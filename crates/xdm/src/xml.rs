//! XML serialization and parsing.
//!
//! ALDSP's non-queryable sources include XML files (§2.2, §5.3): their
//! content is parsed, validated against a registered schema, and fed into
//! the runtime as typed tokens. This module supplies the (small,
//! namespace-aware) parser the XML file adaptor uses and the serializer
//! used to deliver query results. Text parsed here is `xs:untypedAtomic`
//! until schema validation assigns types (see [`crate::schema`]).

use crate::item::{Item, Sequence};
use crate::node::{Node, NodeKind, NodeRef};
use crate::qname::{Namespaces, QName};
use crate::value::AtomicValue;
use crate::{Result, XdmError};

/// Where serialized XML text goes: a `String`, or anything else that
/// can take `str`s — the wire path writes result items straight into
/// their frames through this.
pub trait XmlSink {
    /// Append a string slice.
    fn push_str(&mut self, s: &str);
}

impl XmlSink for String {
    fn push_str(&mut self, s: &str) {
        String::push_str(self, s)
    }
}

/// Serialize a node to XML text.
pub fn serialize(node: &Node) -> String {
    let mut out = String::new();
    write_node(node, &mut out);
    out
}

/// Serialize a sequence of items, space-separating adjacent atomics per the
/// XQuery serialization rules.
pub fn serialize_sequence(items: &[Item]) -> String {
    let mut out = String::new();
    let mut prev_atomic = false;
    for item in items {
        let atomic = matches!(item, Item::Atomic(_));
        if atomic && prev_atomic {
            out.push(' ');
        }
        write_item(item, &mut out);
        prev_atomic = atomic;
    }
    out
}

/// Append one item's individual serialization to `out`: what
/// [`serialize_sequence`] writes for it, without the separator.
pub fn write_item(item: &Item, out: &mut impl XmlSink) {
    match item {
        Item::Atomic(v) => write_escaped(v, Escape::Text, out),
        Item::Node(n) => write_node(n, out),
    }
}

/// Append the cache key of one argument vector to `out`: per argument a
/// `\u{1}`; per item a `\u{2}`, a tag (the atomic type's `xs:` name,
/// or `node`), a space and the item's text (its lexical form, or the
/// node serialized). The text is escaped in [`Escape::Key`] mode, so
/// no separator occurs inside it: argument and item boundaries and the
/// type of each atomic item are kept, so `("a", "b")` is not `"a b"`,
/// nor `1` the string `"1"`. A node is keyed by its serialization
/// alone, so two nodes whose leaves differ only in type share a key.
pub fn write_key(args: &[Sequence], out: &mut impl XmlSink) {
    for arg in args {
        out.push_str("\u{1}");
        for item in arg {
            out.push_str("\u{2}");
            match item {
                Item::Atomic(v) => {
                    out.push_str(v.type_of().xs_name());
                    out.push_str(" ");
                    write_escaped(v, Escape::Key, out);
                }
                Item::Node(n) => {
                    out.push_str("node ");
                    write_node(
                        n,
                        &mut Escaped {
                            out,
                            mode: Escape::Key,
                        },
                    );
                }
            }
        }
    }
}

fn write_node<S: XmlSink + ?Sized>(node: &Node, out: &mut S) {
    match node.kind() {
        NodeKind::Document { children } => {
            for c in children {
                write_node(c, out);
            }
        }
        NodeKind::Element {
            name,
            attributes,
            children,
        } => {
            out.push_str("<");
            write_name(name, out);
            for a in attributes {
                if let NodeKind::Attribute { name, value } = a.kind() {
                    out.push_str(" ");
                    write_attribute(name, value, out);
                }
            }
            if children.is_empty() {
                out.push_str("/>");
            } else {
                out.push_str(">");
                for c in children {
                    write_node(c, out);
                }
                out.push_str("</");
                write_name(name, out);
                out.push_str(">");
            }
        }
        NodeKind::Attribute { name, value } => write_attribute(name, value, out),
        NodeKind::Text { value } => write_escaped(value, Escape::Text, out),
    }
}

fn write_attribute<S: XmlSink + ?Sized>(name: &QName, value: &AtomicValue, out: &mut S) {
    write_name(name, out);
    out.push_str("=\"");
    write_escaped(value, Escape::Attr, out);
    out.push_str("\"");
}

/// A value's lexical form, escaped for `mode`. Only text can hold a
/// character some mode escapes: every other form is spelled from
/// `[0-9A-Za-z.:+-]` and goes to `out` unscanned.
fn write_escaped<S: XmlSink + ?Sized>(value: &AtomicValue, mode: Escape, out: &mut S) {
    match value {
        AtomicValue::String(_) | AtomicValue::Untyped(_) => {
            value.write_lexical(&mut Escaped { out, mode })
        }
        _ => value.write_lexical(out),
    }
}

fn write_name<S: XmlSink + ?Sized>(name: &QName, out: &mut S) {
    if let Some(p) = name.prefix() {
        out.push_str(p);
        out.push_str(":");
    }
    out.push_str(name.local_name());
}

/// What [`Escaped`] keeps out of the text passing through it.
#[derive(Clone, Copy)]
enum Escape {
    /// Element content: `<`, `>` and `&`.
    Text,
    /// A double-quoted attribute value: `<`, `&` and `"`.
    Attr,
    /// A [`write_key`] item: `&` and the key's separators `\u{1}` and
    /// `\u{2}`.
    Key,
}

impl Escape {
    /// The three bytes this mode escapes; each is ASCII.
    fn bytes(self) -> [u8; 3] {
        match self {
            Escape::Text => *b"<>&",
            Escape::Attr => *b"<&\"",
            Escape::Key => *b"&\x01\x02",
        }
    }
}

/// A sink that escapes what is written through it before passing it on.
/// It scans bytes (every escaped character is ASCII, so a cut never
/// splits a character) and hands each clean run on with one `push_str`.
struct Escaped<'a, S: ?Sized> {
    out: &'a mut S,
    mode: Escape,
}

impl<S: XmlSink + ?Sized> XmlSink for Escaped<'_, S> {
    fn push_str(&mut self, s: &str) {
        let [x, y, z] = self.mode.bytes();
        let mut clean = 0;
        for (i, b) in s.bytes().enumerate() {
            if b != x && b != y && b != z {
                continue;
            }
            let entity = match b {
                b'&' => "&amp;",
                b'<' => "&lt;",
                b'>' => "&gt;",
                b'"' => "&quot;",
                b'\x01' => "&#1;",
                _ => "&#2;",
            };
            if clean < i {
                self.out.push_str(&s[clean..i]);
            }
            self.out.push_str(entity);
            clean = i + 1;
        }
        if clean < s.len() {
            self.out.push_str(&s[clean..]);
        }
    }
}

/// Parse an XML document into a node tree. Namespace-aware; comments,
/// processing instructions and the XML declaration are skipped; DTDs are
/// rejected. All text becomes `xs:untypedAtomic` pending validation.
pub fn parse(input: &str) -> Result<NodeRef> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
    };
    p.skip_misc()?;
    let ns = Namespaces::default();
    let root = p.parse_element(&ns)?;
    p.skip_misc()?;
    if p.pos != p.input.len() {
        return Err(p.err("trailing content after document element"));
    }
    Ok(Node::document(vec![root]))
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> XdmError {
        XdmError::XmlParse {
            pos: self.pos,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_misc(&mut self) -> Result<()> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                return Err(self.err("DOCTYPE is not supported"));
            } else {
                return Ok(());
            }
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<()> {
        while self.pos < self.input.len() {
            if self.starts_with(end) {
                self.pos += end.len();
                return Ok(());
            }
            self.pos += 1;
        }
        Err(self.err("unterminated construct"))
    }

    fn read_name(&mut self) -> Result<String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in name"))?
            .to_string())
    }

    fn parse_element(&mut self, parent_ns: &Namespaces) -> Result<NodeRef> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let raw_name = self.read_name()?;
        let mut ns = parent_ns.clone();
        let mut raw_attrs: Vec<(String, String)> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') | Some(b'/') => break,
                Some(_) => {
                    let aname = self.read_name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected '=' in attribute"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = self
                        .peek()
                        .ok_or_else(|| self.err("unterminated attribute"))?;
                    if quote != b'"' && quote != b'\'' {
                        return Err(self.err("attribute value must be quoted"));
                    }
                    self.pos += 1;
                    let vstart = self.pos;
                    while self.peek().is_some_and(|c| c != quote) {
                        self.pos += 1;
                    }
                    if self.peek() != Some(quote) {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let value = decode_entities(
                        std::str::from_utf8(&self.input[vstart..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                    self.pos += 1;
                    if aname == "xmlns" {
                        ns.set_default_element_ns(&value);
                    } else if let Some(p) = aname.strip_prefix("xmlns:") {
                        ns.bind(p, &value);
                    } else {
                        raw_attrs.push((aname, value));
                    }
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
        let name = ns
            .expand(&raw_name, true)
            .ok_or_else(|| self.err(&format!("unbound namespace prefix in <{raw_name}>")))?;
        let attrs: Vec<NodeRef> = raw_attrs
            .into_iter()
            .map(|(an, av)| {
                let qn = ns
                    .expand(&an, false)
                    .ok_or_else(|| self.err(&format!("unbound prefix in attribute {an}")))?;
                Ok(Node::attribute(qn, AtomicValue::untyped(&av)))
            })
            .collect::<Result<_>>()?;
        if self.peek() == Some(b'/') {
            self.pos += 1;
            if self.peek() != Some(b'>') {
                return Err(self.err("expected '>' after '/'"));
            }
            self.pos += 1;
            return Ok(Node::element(name, attrs, vec![]));
        }
        self.pos += 1; // '>'
        let mut children = Vec::new();
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.read_name()?;
                if close != raw_name {
                    return Err(self.err(&format!(
                        "mismatched close tag: expected </{raw_name}>, found </{close}>"
                    )));
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(self.err("expected '>' in close tag"));
                }
                self.pos += 1;
                // drop whitespace-only text between element children
                if children.len() > 1 {
                    prune_ws(&mut children);
                }
                return Ok(Node::element(name, attrs, children));
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.peek() == Some(b'<') {
                children.push(self.parse_element(&ns)?);
            } else if self.peek().is_none() {
                return Err(self.err(&format!("unterminated element <{raw_name}>")));
            } else {
                let start = self.pos;
                while self.peek().is_some_and(|c| c != b'<') {
                    self.pos += 1;
                }
                let text = decode_entities(
                    std::str::from_utf8(&self.input[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in text"))?,
                );
                if !text.is_empty() {
                    children.push(Node::text(AtomicValue::untyped(&text)));
                }
            }
        }
    }
}

/// Remove whitespace-only text nodes that sit between element children
/// (document formatting noise).
fn prune_ws(children: &mut Vec<NodeRef>) {
    let has_element = children
        .iter()
        .any(|c| matches!(c.kind(), NodeKind::Element { .. }));
    if has_element {
        children.retain(|c| match c.kind() {
            NodeKind::Text { value } => !value.string_value().trim().is_empty(),
            _ => true,
        });
    }
}

fn decode_entities(s: &str) -> String {
    if !s.contains('&') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        rest = &rest[idx..];
        let semi = rest.find(';');
        match semi {
            Some(end) => {
                let ent = &rest[1..end];
                match ent {
                    "lt" => out.push('<'),
                    "gt" => out.push('>'),
                    "amp" => out.push('&'),
                    "quot" => out.push('"'),
                    "apos" => out.push('\''),
                    _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                        if let Ok(cp) = u32::from_str_radix(&ent[2..], 16) {
                            if let Some(c) = char::from_u32(cp) {
                                out.push(c);
                            }
                        }
                    }
                    _ if ent.starts_with('#') => {
                        if let Ok(cp) = ent[1..].parse::<u32>() {
                            if let Some(c) = char::from_u32(cp) {
                                out.push(c);
                            }
                        }
                    }
                    _ => {
                        out.push('&');
                        out.push_str(ent);
                        out.push(';');
                    }
                }
                rest = &rest[end + 1..];
            }
            None => {
                out.push_str(rest);
                break;
            }
        }
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AtomicValue as V;

    #[test]
    fn serialize_simple_tree() {
        let n = Node::element(
            QName::local("CUSTOMER"),
            vec![Node::attribute(QName::local("status"), V::str("a\"b"))],
            vec![Node::simple_element(QName::local("CID"), V::str("C<1>"))],
        );
        assert_eq!(
            serialize(&n),
            r#"<CUSTOMER status="a&quot;b"><CID>C&lt;1&gt;</CID></CUSTOMER>"#
        );
    }

    #[test]
    fn escaper_passes_clean_runs_and_multibyte_text() {
        let text = |s: &str, mode| {
            let mut out = String::new();
            Escaped {
                out: &mut out,
                mode,
            }
            .push_str(s);
            out
        };
        assert_eq!(
            text("caf\u{e9} <&> \"x\"", Escape::Text),
            "caf\u{e9} &lt;&amp;&gt; \"x\""
        );
        assert_eq!(
            text("caf\u{e9} <&> \"x\"", Escape::Attr),
            "caf\u{e9} &lt;&amp;> &quot;x&quot;"
        );
        assert_eq!(text("a\u{1}b\u{2}&<", Escape::Key), "a&#1;b&#2;&amp;<");
        assert_eq!(text("\u{2603}", Escape::Text), "\u{2603}");
    }

    #[test]
    fn typed_leaves_serialize_in_their_lexical_forms() {
        let n = Node::element(
            QName::local("E"),
            vec![Node::attribute(
                QName::local("d"),
                V::Double(f64::NEG_INFINITY),
            )],
            vec![Node::simple_element(
                QName::local("N"),
                V::Integer(i64::MIN),
            )],
        );
        assert_eq!(
            serialize(&n),
            r#"<E d="-INF"><N>-9223372036854775808</N></E>"#
        );
    }

    #[test]
    fn keys_of_distinct_argument_vectors_differ() {
        let key = |args: &[Sequence]| {
            let mut k = String::new();
            write_key(args, &mut k);
            k
        };
        let s = |t: &str| Item::Atomic(V::str(t));
        let distinct: Vec<Vec<Sequence>> = vec![
            vec![vec![s("a"), s("b")]],
            vec![vec![s("a b")]],
            vec![vec![s("a")], vec![s("b")]],
            vec![vec![s("a\u{2}xs:string b")]],
            vec![vec![s("a\u{1}\u{2}xs:string b")]],
            vec![vec![Item::Atomic(V::Integer(1))]],
            vec![vec![s("1")]],
            vec![vec![Item::Node(Node::text(V::str("1")))]],
            vec![vec![]],
            vec![],
        ];
        for (i, a) in distinct.iter().enumerate() {
            for b in &distinct[i + 1..] {
                assert_ne!(key(a), key(b), "{a:?} and {b:?} share a key");
            }
        }
    }

    #[test]
    fn serialize_empty_element_self_closes() {
        let n = Node::element(QName::local("E"), vec![], vec![]);
        assert_eq!(serialize(&n), "<E/>");
    }

    #[test]
    fn parse_roundtrip() {
        let src = r#"<CUSTOMER status="gold"><CID>C1</CID><LAST_NAME>Jones &amp; co</LAST_NAME></CUSTOMER>"#;
        let doc = parse(src).unwrap();
        let root = &doc.children()[0];
        assert_eq!(root.name().unwrap().local_name(), "CUSTOMER");
        assert_eq!(
            root.attribute_named(&QName::local("status"))
                .unwrap()
                .string_value(),
            "gold"
        );
        assert_eq!(
            root.child_elements(&QName::local("LAST_NAME"))
                .next()
                .unwrap()
                .string_value(),
            "Jones & co"
        );
        // reserialize and reparse: stable
        let again = parse(&serialize(root)).unwrap();
        assert!(again.children()[0].deep_equal(root));
    }

    #[test]
    fn parse_namespaces() {
        let src =
            r#"<t:PROFILE xmlns:t="urn:profile" xmlns="urn:default"><CID>1</CID></t:PROFILE>"#;
        let doc = parse(src).unwrap();
        let root = &doc.children()[0];
        assert_eq!(root.name().unwrap().uri(), Some("urn:profile"));
        let cid = root.all_child_elements().next().unwrap();
        assert_eq!(cid.name().unwrap().uri(), Some("urn:default"));
    }

    #[test]
    fn parse_skips_decl_comments_and_ws() {
        let src = "<?xml version=\"1.0\"?>\n<!-- hi -->\n<R>\n  <A>1</A>\n  <A>2</A>\n</R>";
        let doc = parse(src).unwrap();
        let root = &doc.children()[0];
        assert_eq!(root.all_child_elements().count(), 2);
        // whitespace-only text pruned
        assert_eq!(root.children().len(), 2);
    }

    #[test]
    fn parse_preserves_mixed_text() {
        let doc = parse("<A>one</A>").unwrap();
        assert_eq!(doc.children()[0].string_value(), "one");
    }

    #[test]
    fn parse_errors() {
        assert!(parse("<A><B></A>").is_err());
        assert!(parse("<A attr=x/>").is_err());
        assert!(parse("<A>").is_err());
        assert!(parse("<!DOCTYPE foo><A/>").is_err());
        assert!(parse("<A/><B/>").is_err());
        assert!(parse("<zz:A/>").is_err()); // unbound prefix
    }

    #[test]
    fn entity_decoding() {
        assert_eq!(decode_entities("a&#65;&#x42;&amp;"), "aAB&");
        assert_eq!(decode_entities("&unknown;"), "&unknown;");
        assert_eq!(decode_entities("plain"), "plain");
    }
}
