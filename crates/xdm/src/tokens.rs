//! The typed XML token stream and tuple representations (§5.1, Figure 4).
//!
//! ALDSP's runtime operators are *token iterators* over a typed token
//! stream — a SAX-like event stream that materializes events and carries
//! the full (typed) XQuery data model. Tuples (FLWOR variable bindings)
//! are not part of the XQuery data model, so the runtime adds tuple
//! delimiters and, per Figure 4, **three tuple representations**:
//!
//! * **Stream**: `BeginTuple f0… FieldSeparator f1… EndTuple` — low memory,
//!   but skipping a field means scanning its tokens.
//! * **SingleToken**: the whole tuple stream wrapped into one token —
//!   cheap to skip/copy, but field access must unwrap and scan.
//! * **Array**: one token per field — highest memory, O(1) access to every
//!   field; usable when each field fits in a single token (the relational
//!   case, where fields are typed column values).
//!
//! The optimizer picks the representation per use site; the
//! `experiments` report's `figure_4` section reproduces the Figure 4
//! trade-offs.

use crate::item::Item;
use crate::node::{Node, NodeKind, NodeRef};
use crate::qname::QName;
use crate::value::AtomicValue;
use crate::{Result, XdmError};
use std::sync::Arc;

/// One token of the typed XML token stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Start of an element with the given name.
    StartElement(QName),
    /// An attribute event (must follow `StartElement`).
    Attribute(QName, AtomicValue),
    /// A typed atomic/text event.
    Atomic(AtomicValue),
    /// End of the current element.
    EndElement,
    /// Start of a tuple (stream representation).
    BeginTuple,
    /// Separator between tuple fields (stream representation).
    FieldSeparator,
    /// End of a tuple (stream representation).
    EndTuple,
    /// A materialized sub-stream carried as a single token: the
    /// *single-token* tuple representation, and the per-field wrapper the
    /// *array* representation uses for non-atomic fields.
    Wrapped(Arc<Vec<Token>>),
    /// The *array* tuple representation: exactly one token per field.
    TupleArray(Arc<Vec<Token>>),
}

/// A materialized token stream.
pub type TokenStream = Vec<Token>;

/// The three tuple representations of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TupleRepr {
    /// `(BeginTuple … EndTuple)` delimiters around inline field streams.
    Stream,
    /// The whole tuple as one `Wrapped` token.
    SingleToken,
    /// One token per field (`TupleArray`).
    Array,
}

/// Expand a node into its token-stream form.
pub fn node_to_tokens(node: &Node, out: &mut TokenStream) {
    match node.kind() {
        NodeKind::Document { children } => {
            for c in children {
                node_to_tokens(c, out);
            }
        }
        NodeKind::Element {
            name,
            attributes,
            children,
        } => {
            out.push(Token::StartElement(name.clone()));
            for a in attributes {
                if let NodeKind::Attribute { name, value } = a.kind() {
                    out.push(Token::Attribute(name.clone(), value.clone()));
                }
            }
            for c in children {
                node_to_tokens(c, out);
            }
            out.push(Token::EndElement);
        }
        NodeKind::Attribute { name, value } => {
            out.push(Token::Attribute(name.clone(), value.clone()));
        }
        NodeKind::Text { value } => out.push(Token::Atomic(value.clone())),
    }
}

/// Expand an item (atomic or node) into tokens.
pub fn item_to_tokens(item: &Item, out: &mut TokenStream) {
    match item {
        Item::Atomic(v) => out.push(Token::Atomic(v.clone())),
        Item::Node(n) => node_to_tokens(n, out),
    }
}

/// Expand a sequence into tokens.
pub fn sequence_to_tokens(seq: &[Item]) -> TokenStream {
    let mut out = Vec::new();
    for item in seq {
        item_to_tokens(item, &mut out);
    }
    out
}

/// Rebuild a sequence of items from a token stream. Inverse of
/// [`sequence_to_tokens`]; `Wrapped` tokens are transparently unwrapped,
/// tuple delimiters are rejected (tuples are not items).
pub fn tokens_to_items(tokens: &[Token]) -> Result<Vec<Item>> {
    let mut items = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i] {
            Token::Atomic(v) => {
                items.push(Item::Atomic(v.clone()));
                i += 1;
            }
            Token::StartElement(_) => {
                let (node, next) = parse_element(tokens, i)?;
                items.push(Item::Node(node));
                i = next;
            }
            Token::Attribute(name, value) => {
                items.push(Item::Node(Node::attribute(name.clone(), value.clone())));
                i += 1;
            }
            Token::Wrapped(inner) => {
                items.extend(tokens_to_items(inner)?);
                i += 1;
            }
            t => {
                return Err(XdmError::Other(format!(
                    "unexpected token in item stream: {t:?}"
                )))
            }
        }
    }
    Ok(items)
}

fn parse_element(tokens: &[Token], start: usize) -> Result<(NodeRef, usize)> {
    let Token::StartElement(name) = &tokens[start] else {
        return Err(XdmError::Other("expected StartElement".into()));
    };
    let mut attrs = Vec::new();
    let mut children = Vec::new();
    let mut i = start + 1;
    while i < tokens.len() {
        match &tokens[i] {
            Token::Attribute(n, v) => {
                attrs.push(Node::attribute(n.clone(), v.clone()));
                i += 1;
            }
            Token::Atomic(v) => {
                children.push(Node::text(v.clone()));
                i += 1;
            }
            Token::StartElement(_) => {
                let (child, next) = parse_element(tokens, i)?;
                children.push(child);
                i = next;
            }
            Token::Wrapped(inner) => {
                for item in tokens_to_items(inner)? {
                    match item {
                        Item::Node(n) => children.push(n),
                        Item::Atomic(v) => children.push(Node::text(v)),
                    }
                }
                i += 1;
            }
            Token::EndElement => {
                return Ok((Node::element(name.clone(), attrs, children), i + 1));
            }
            t => {
                return Err(XdmError::Other(format!(
                    "unexpected token inside element: {t:?}"
                )))
            }
        }
    }
    Err(XdmError::Other(format!(
        "unterminated element <{name}> in token stream"
    )))
}

/// Encode a tuple whose fields are the given token streams, using `repr`.
pub fn encode_tuple(fields: &[TokenStream], repr: TupleRepr) -> TokenStream {
    match repr {
        TupleRepr::Stream => {
            let mut out =
                Vec::with_capacity(2 + fields.iter().map(Vec::len).sum::<usize>() + fields.len());
            out.push(Token::BeginTuple);
            for (i, f) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(Token::FieldSeparator);
                }
                out.extend(f.iter().cloned());
            }
            out.push(Token::EndTuple);
            out
        }
        TupleRepr::SingleToken => {
            vec![Token::Wrapped(Arc::new(encode_tuple(
                fields,
                TupleRepr::Stream,
            )))]
        }
        TupleRepr::Array => {
            let per_field: Vec<Token> = fields
                .iter()
                .map(|f| match f.as_slice() {
                    [single @ (Token::Atomic(_) | Token::Wrapped(_))] => single.clone(),
                    _ => Token::Wrapped(Arc::new(f.clone())),
                })
                .collect();
            vec![Token::TupleArray(Arc::new(per_field))]
        }
    }
}

/// Decode a tuple (in any representation) back into its field streams.
pub fn decode_tuple(tokens: &[Token]) -> Result<Vec<TokenStream>> {
    match tokens {
        [Token::Wrapped(inner)] => decode_tuple(inner),
        [Token::TupleArray(per_field)] => Ok(per_field
            .iter()
            .map(|t| match t {
                Token::Wrapped(inner) => inner.as_ref().clone(),
                other => vec![other.clone()],
            })
            .collect()),
        [Token::BeginTuple, .., Token::EndTuple] => {
            let body = &tokens[1..tokens.len() - 1];
            let mut fields = vec![Vec::new()];
            let mut depth = 0usize;
            for t in body {
                match t {
                    Token::BeginTuple => {
                        depth += 1;
                        fields.last_mut().unwrap().push(t.clone());
                    }
                    Token::EndTuple => {
                        depth = depth
                            .checked_sub(1)
                            .ok_or_else(|| XdmError::Other("unbalanced tuple delimiters".into()))?;
                        fields.last_mut().unwrap().push(t.clone());
                    }
                    Token::FieldSeparator if depth == 0 => fields.push(Vec::new()),
                    _ => fields.last_mut().unwrap().push(t.clone()),
                }
            }
            Ok(fields)
        }
        _ => Err(XdmError::Other("not a tuple token stream".into())),
    }
}

/// Extract field `idx` of an encoded tuple without decoding the rest —
/// the `extract-field` runtime operator (§5.2). The cost profile differs
/// by representation exactly as Figure 4 describes: array is O(1),
/// stream/single-token must scan over preceding fields.
pub fn extract_field(tokens: &[Token], idx: usize) -> Result<TokenStream> {
    match tokens {
        [Token::TupleArray(per_field)] => per_field
            .get(idx)
            .map(|t| match t {
                Token::Wrapped(inner) => inner.as_ref().clone(),
                other => vec![other.clone()],
            })
            .ok_or_else(|| XdmError::Other(format!("tuple has no field {idx}"))),
        [Token::Wrapped(inner)] => extract_field(inner, idx),
        [Token::BeginTuple, ..] => {
            let fields = decode_tuple(tokens)?;
            fields
                .into_iter()
                .nth(idx)
                .ok_or_else(|| XdmError::Other(format!("tuple has no field {idx}")))
        }
        _ => Err(XdmError::Other("not a tuple token stream".into())),
    }
}

/// Concatenate two tuples into one wider tuple (`concat-tuples`, §5.2).
pub fn concat_tuples(a: &[Token], b: &[Token], repr: TupleRepr) -> Result<TokenStream> {
    let mut fields = decode_tuple(a)?;
    fields.extend(decode_tuple(b)?);
    Ok(encode_tuple(&fields, repr))
}

/// Project a contiguous range of fields into a narrower tuple
/// (`extract-subtuple`, §5.2 — the converse of `concat-tuples`).
pub fn extract_subtuple(
    tokens: &[Token],
    range: std::ops::Range<usize>,
    repr: TupleRepr,
) -> Result<TokenStream> {
    let fields = decode_tuple(tokens)?;
    if range.end > fields.len() {
        return Err(XdmError::Other(format!(
            "subtuple range {range:?} out of bounds for {} fields",
            fields.len()
        )));
    }
    Ok(encode_tuple(&fields[range], repr))
}

/// Approximate heap footprint of a token stream in bytes — used by the
/// Figure 4 benchmark to report the memory side of the trade-off.
pub fn approx_size(tokens: &[Token]) -> usize {
    tokens.iter().map(token_size).sum::<usize>() + std::mem::size_of_val(tokens)
}

fn token_size(t: &Token) -> usize {
    let base = std::mem::size_of::<Token>();
    match t {
        Token::Wrapped(inner) | Token::TupleArray(inner) => base + approx_size(inner),
        Token::Atomic(AtomicValue::String(s)) | Token::Atomic(AtomicValue::Untyped(s)) => {
            base + s.len()
        }
        Token::Attribute(_, AtomicValue::String(s)) => base + s.len(),
        _ => base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AtomicValue as V;

    fn figure4_fields() -> Vec<TokenStream> {
        // Figure 4's example tuple: (100, "al")
        vec![
            vec![Token::Atomic(V::Integer(100))],
            vec![Token::Atomic(V::str("al"))],
        ]
    }

    #[test]
    fn stream_representation_matches_figure4() {
        let t = encode_tuple(&figure4_fields(), TupleRepr::Stream);
        assert_eq!(
            t,
            vec![
                Token::BeginTuple,
                Token::Atomic(V::Integer(100)),
                Token::FieldSeparator,
                Token::Atomic(V::str("al")),
                Token::EndTuple,
            ]
        );
    }

    #[test]
    fn single_token_wraps_stream_form() {
        let t = encode_tuple(&figure4_fields(), TupleRepr::SingleToken);
        assert_eq!(t.len(), 1);
        match &t[0] {
            Token::Wrapped(inner) => assert_eq!(inner[0], Token::BeginTuple),
            other => panic!("expected Wrapped, got {other:?}"),
        }
    }

    #[test]
    fn array_representation_is_one_token_per_field() {
        let t = encode_tuple(&figure4_fields(), TupleRepr::Array);
        match &t[0] {
            Token::TupleArray(fs) => {
                assert_eq!(fs.len(), 2);
                assert_eq!(fs[0], Token::Atomic(V::Integer(100)));
            }
            other => panic!("expected TupleArray, got {other:?}"),
        }
    }

    #[test]
    fn all_representations_decode_identically() {
        let fields = figure4_fields();
        for repr in [TupleRepr::Stream, TupleRepr::SingleToken, TupleRepr::Array] {
            let enc = encode_tuple(&fields, repr);
            assert_eq!(decode_tuple(&enc).unwrap(), fields, "{repr:?}");
            assert_eq!(extract_field(&enc, 1).unwrap(), fields[1], "{repr:?}");
        }
    }

    #[test]
    fn nested_tuples_in_stream_form_decode() {
        let inner = encode_tuple(&figure4_fields(), TupleRepr::Stream);
        let fields = vec![inner.clone(), vec![Token::Atomic(V::Integer(7))]];
        let outer = encode_tuple(&fields, TupleRepr::Stream);
        let dec = decode_tuple(&outer).unwrap();
        assert_eq!(dec.len(), 2);
        assert_eq!(dec[0], inner);
    }

    #[test]
    fn concat_and_subtuple_roundtrip() {
        let a = encode_tuple(&figure4_fields(), TupleRepr::Array);
        let b = encode_tuple(&[vec![Token::Atomic(V::Boolean(true))]], TupleRepr::Array);
        let wide = concat_tuples(&a, &b, TupleRepr::Array).unwrap();
        assert_eq!(decode_tuple(&wide).unwrap().len(), 3);
        let narrow = extract_subtuple(&wide, 1..3, TupleRepr::Stream).unwrap();
        let fs = decode_tuple(&narrow).unwrap();
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[1], vec![Token::Atomic(V::Boolean(true))]);
        assert!(extract_subtuple(&wide, 2..5, TupleRepr::Stream).is_err());
    }

    #[test]
    fn node_tokens_roundtrip() {
        let n = Node::element(
            QName::local("CUSTOMER"),
            vec![Node::attribute(QName::local("status"), V::str("gold"))],
            vec![
                Node::simple_element(QName::local("CID"), V::str("C1")),
                Node::simple_element(QName::local("N"), V::Integer(3)),
            ],
        );
        let mut toks = Vec::new();
        node_to_tokens(&n, &mut toks);
        let items = tokens_to_items(&toks).unwrap();
        assert_eq!(items.len(), 1);
        assert!(items[0].as_node().unwrap().deep_equal(&n));
    }

    #[test]
    fn malformed_streams_are_rejected() {
        assert!(tokens_to_items(&[Token::EndElement]).is_err());
        assert!(tokens_to_items(&[Token::StartElement(QName::local("x"))]).is_err());
        assert!(decode_tuple(&[Token::Atomic(V::Integer(1))]).is_err());
        assert!(extract_field(&[Token::Atomic(V::Integer(1))], 0).is_err());
    }

    #[test]
    fn memory_ordering_matches_paper() {
        // array ≥ single-token ≥ stream is the qualitative memory ordering
        // Figure 4 describes for wide, flat tuples.
        let fields: Vec<TokenStream> = (0..20)
            .map(|i| vec![Token::Atomic(V::Integer(i))])
            .collect();
        let s = approx_size(&encode_tuple(&fields, TupleRepr::Stream));
        let st = approx_size(&encode_tuple(&fields, TupleRepr::SingleToken));
        let ar = approx_size(&encode_tuple(&fields, TupleRepr::Array));
        assert!(st >= s, "single-token {st} < stream {s}");
        assert!(ar > 0 && st > 0 && s > 0);
    }
}
