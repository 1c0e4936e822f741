//! Property tests for the data-model crate: randomized trees roundtrip
//! through serialization, token streams, and validation; the type
//! algebra obeys lattice laws.

use aldsp_xdm::item::Item;
use aldsp_xdm::node::{Node, NodeKind, NodeRef};
use aldsp_xdm::tokens::{node_to_tokens, tokens_to_items};
use aldsp_xdm::types::Occurrence;
use aldsp_xdm::value::{AtomicType, AtomicValue, Date, DateTime, Decimal};
use aldsp_xdm::{xml, QName};
use proptest::prelude::*;

/// Text that needs escaping in content and attributes, with multi-byte
/// characters beside the markup ones.
const TEXT: &str = "[a-z<>&\"' \u{e9}\u{2603}]{1,6}";

/// All eight atomic types, each with its boundary values: `i64::MIN`,
/// negative fractional decimals and the `i128` extremes, NaN and ±INF
/// and -0, dates before year 0 and after 9999, negative dateTimes.
fn atomic_strategy() -> impl Strategy<Value = AtomicValue> {
    (0..8usize, 0..4usize, -1_000_000i64..1_000_000i64, TEXT).prop_map(|(kind, edge, v, text)| {
        let small = v.abs() as i128;
        match kind {
            0 => AtomicValue::untyped(&text),
            1 => AtomicValue::str(&text),
            2 => AtomicValue::Boolean(v % 2 == 0),
            3 => AtomicValue::Integer([v, i64::MIN, i64::MAX, -v][edge]),
            4 => AtomicValue::Decimal(Decimal(
                [
                    v as i128 * 1_234,
                    -small * 1_000_003 - 1,
                    i128::MIN,
                    i128::MAX,
                ][edge],
            )),
            5 => AtomicValue::Double(
                [v as f64 / 8.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][edge]
                    * if v % 5 == 0 { -0.0 } else { 1.0 },
            ),
            6 => AtomicValue::Date(Date(
                [v, v * 4, v * 2 - 719_528, v + 2_932_897][edge] as i32,
            )),
            _ => AtomicValue::DateTime(DateTime(
                [
                    v * 86_399,
                    v * 345_611,
                    -v.abs() * 7_919,
                    i64::from(i32::MIN) * 86_400,
                ][edge],
            )),
        }
    })
}

/// A strategy for small element trees with typed leaves and typed
/// attributes.
fn tree_strategy() -> impl Strategy<Value = NodeRef> {
    let leaf = (0..4usize, atomic_strategy())
        .prop_map(|(n, v)| Node::simple_element(QName::local(["A", "B", "C", "D"][n]), v));
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            0..4usize,
            prop::collection::vec(atomic_strategy(), 0..3),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(n, attrs, children)| {
                let attrs = attrs
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| Node::attribute(QName::local(&format!("a{i}")), v))
                    .collect();
                Node::element(QName::local(["R", "S", "T", "U"][n]), attrs, children)
            })
    })
}

/// The serializer as it was spelled before the lexical writers, kept
/// here as an independent reference: `format!` formulas per type and a
/// char-by-char escape. Only `xs:double`'s NaN, ±INF and -0 follow
/// XQuery's forms rather than Rust's.
fn reference(node: &Node) -> String {
    match node.kind() {
        NodeKind::Document { children } => children.iter().map(|c| reference(c)).collect(),
        NodeKind::Element {
            name,
            attributes,
            children,
        } => {
            let name = name.local_name();
            let attrs: String = attributes
                .iter()
                .map(|a| format!(" {}", reference(a)))
                .collect();
            if children.is_empty() {
                format!("<{name}{attrs}/>")
            } else {
                let content: String = children.iter().map(|c| reference(c)).collect();
                format!("<{name}{attrs}>{content}</{name}>")
            }
        }
        NodeKind::Attribute { name, value } => {
            let escaped: String = lexical(value)
                .chars()
                .map(|c| match c {
                    '<' => "&lt;".to_string(),
                    '&' => "&amp;".to_string(),
                    '"' => "&quot;".to_string(),
                    c => c.to_string(),
                })
                .collect();
            format!("{}=\"{escaped}\"", name.local_name())
        }
        NodeKind::Text { value } => lexical(value)
            .chars()
            .map(|c| match c {
                '<' => "&lt;".to_string(),
                '>' => "&gt;".to_string(),
                '&' => "&amp;".to_string(),
                c => c.to_string(),
            })
            .collect(),
    }
}

fn lexical(v: &AtomicValue) -> String {
    match v {
        AtomicValue::Untyped(s) | AtomicValue::String(s) => s.to_string(),
        AtomicValue::Boolean(b) => b.to_string(),
        AtomicValue::Integer(i) => i.to_string(),
        AtomicValue::Decimal(Decimal(units)) => {
            let sign = if *units < 0 { "-" } else { "" };
            let (int, frac) = (
                units.unsigned_abs() / 1_000_000,
                units.unsigned_abs() % 1_000_000,
            );
            if frac == 0 {
                format!("{sign}{int}")
            } else {
                let frac = format!("{frac:06}");
                format!("{sign}{int}.{}", frac.trim_end_matches('0'))
            }
        }
        AtomicValue::Double(d) if d.is_nan() => "NaN".into(),
        AtomicValue::Double(d) if d.is_infinite() => if *d > 0.0 { "INF" } else { "-INF" }.into(),
        AtomicValue::Double(d) if *d == 0.0 && d.is_sign_negative() => "-0".into(),
        AtomicValue::Double(d) if d.fract() == 0.0 && d.abs() < 1e15 => format!("{}", *d as i64),
        AtomicValue::Double(d) => format!("{d}"),
        AtomicValue::Date(d) => {
            let (y, m, d) = d.ymd();
            format!("{y:04}-{m:02}-{d:02}")
        }
        AtomicValue::DateTime(DateTime(s)) => {
            let (y, m, d) = Date(s.div_euclid(86_400) as i32).ymd();
            let secs = s.rem_euclid(86_400);
            format!(
                "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}",
                secs / 3600,
                (secs % 3600) / 60,
                secs % 60
            )
        }
    }
}

proptest! {
    /// The serializer writes exactly what the reference spells, and so
    /// do `string_value` and `serialize_sequence` for a bare atomic.
    #[test]
    fn serializer_matches_the_reference(tree in tree_strategy(), v in atomic_strategy()) {
        prop_assert_eq!(xml::serialize(&tree), reference(&tree));
        prop_assert_eq!(v.string_value(), lexical(&v));
        let text = Node::text(v.clone());
        prop_assert_eq!(xml::serialize_sequence(&[Item::Atomic(v)]), reference(&text));
    }

    /// serialize → parse preserves structure and string values, and the
    /// parsed tree serializes to the same bytes.
    #[test]
    fn xml_serialize_parse_roundtrip(tree in tree_strategy()) {
        let text = xml::serialize(&tree);
        let doc = xml::parse(&text).expect("serializer output must parse");
        let root = &doc.children()[0];
        // names and string values are preserved (type annotations become
        // untyped through the text form, by design — validation restores
        // them)
        prop_assert_eq!(root.name(), tree.name());
        prop_assert_eq!(root.string_value(), tree.string_value());
        prop_assert_eq!(
            count_elements(root),
            count_elements(&tree),
            "element counts differ:\n{}",
            text
        );
        prop_assert_eq!(xml::serialize(root), text);
    }

    /// node → tokens → node is the identity (including type annotations).
    #[test]
    fn token_stream_roundtrip(tree in tree_strategy()) {
        let mut tokens = Vec::new();
        node_to_tokens(&tree, &mut tokens);
        let items = tokens_to_items(&tokens).expect("own tokens parse");
        prop_assert_eq!(items.len(), 1);
        let Item::Node(back) = &items[0] else { panic!("expected a node") };
        // the Debug form pins every annotation and value, NaN included
        // (which `deep_equal` never calls equal)
        prop_assert_eq!(format!("{back:?}"), format!("{tree:?}"));
    }

    /// Occurrence algebra: subtyping is reflexive and transitive; union
    /// is an upper bound.
    #[test]
    fn occurrence_lattice_laws(a in 0..4usize, b in 0..4usize, c in 0..4usize) {
        use Occurrence::*;
        let occs = [One, Optional, Star, Plus];
        let (x, y, z) = (occs[a], occs[b], occs[c]);
        prop_assert!(x.is_subtype_of(x));
        if x.is_subtype_of(y) && y.is_subtype_of(z) {
            prop_assert!(x.is_subtype_of(z));
        }
        let u = x.union(y);
        prop_assert!(x.is_subtype_of(u));
        prop_assert!(y.is_subtype_of(u));
        prop_assert_eq!(x.union(y), y.union(x));
    }

    /// Atomic casting: any value casts to string and back to a value
    /// equal under compare().
    #[test]
    fn cast_to_string_roundtrips(v in -1_000_000i64..1_000_000i64, pick in 0..4usize) {
        let value = match pick {
            0 => AtomicValue::Integer(v),
            1 => AtomicValue::Decimal(Decimal(v as i128 * 1000)),
            2 => AtomicValue::Boolean(v % 2 == 0),
            _ => AtomicValue::str(&format!("x{v}")),
        };
        let t = value.type_of();
        let s = value.cast_to(AtomicType::String).expect("everything casts to string");
        let back = s.cast_to(t).expect("canonical form casts back");
        prop_assert_eq!(
            value.compare(&back),
            Some(std::cmp::Ordering::Equal),
            "{:?} vs {:?}",
            value,
            back
        );
    }

    /// Value comparison is antisymmetric and consistent with ordering.
    #[test]
    fn comparison_consistency(a in -1000i64..1000, b in -1000i64..1000) {
        let (x, y) = (AtomicValue::Integer(a), AtomicValue::Integer(b));
        let xy = x.compare(&y).expect("integers compare");
        let yx = y.compare(&x).expect("integers compare");
        prop_assert_eq!(xy, yx.reverse());
        prop_assert_eq!(xy == std::cmp::Ordering::Equal, a == b);
    }
}

fn count_elements(n: &Node) -> usize {
    1 + n
        .all_child_elements()
        .map(|c| count_elements(c))
        .sum::<usize>()
}
