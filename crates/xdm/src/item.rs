//! Items and sequences.
//!
//! The XQuery data model is built from *sequences of items*, where an item
//! is an atomic value or a node. This module supplies the sequence-level
//! operations the runtime evaluator needs: atomization (`fn:data`),
//! effective boolean value, general vs. value comparison semantics, and
//! singleton extraction.

use crate::node::NodeRef;
use crate::value::{ArithOp, AtomicValue};
use crate::{Result, XdmError};
use std::cmp::Ordering;

/// One XQuery item: an atomic value or a node.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// An atomic value.
    Atomic(AtomicValue),
    /// A node (element, attribute, text or document).
    Node(NodeRef),
}

impl Item {
    /// Convenience constructor for an integer item.
    pub fn int(i: i64) -> Item {
        Item::Atomic(AtomicValue::Integer(i))
    }

    /// Convenience constructor for a string item.
    pub fn str(s: &str) -> Item {
        Item::Atomic(AtomicValue::str(s))
    }

    /// The string value of the item.
    pub fn string_value(&self) -> String {
        match self {
            Item::Atomic(v) => v.string_value(),
            Item::Node(n) => n.string_value(),
        }
    }

    /// Atomize this item into zero or more atomic values (`fn:data`).
    pub fn atomize(&self, out: &mut Vec<AtomicValue>) {
        match self {
            Item::Atomic(v) => out.push(v.clone()),
            Item::Node(n) => {
                if let Some(v) = n.typed_value() {
                    out.push(v);
                }
            }
        }
    }

    /// Is this item a node?
    pub fn as_node(&self) -> Option<&NodeRef> {
        match self {
            Item::Node(n) => Some(n),
            Item::Atomic(_) => None,
        }
    }
}

impl From<AtomicValue> for Item {
    fn from(v: AtomicValue) -> Item {
        Item::Atomic(v)
    }
}

impl From<NodeRef> for Item {
    fn from(n: NodeRef) -> Item {
        Item::Node(n)
    }
}

/// An XQuery sequence — a flat, ordered collection of items. Sequences
/// never nest; concatenation flattens. The inner `Vec` is wrapped so we
/// can hang the XQuery-specific operations off it.
pub type Sequence = Vec<Item>;

/// Atomize a whole sequence (`fn:data($seq)`).
pub fn atomize(seq: &[Item]) -> Vec<AtomicValue> {
    let mut out = Vec::with_capacity(seq.len());
    for item in seq {
        item.atomize(&mut out);
    }
    out
}

/// The effective boolean value of a sequence (XQuery 2.4.3):
/// empty → false; first item a node → true; singleton boolean/number/string
/// → truthiness; anything else is a type error.
pub fn effective_boolean_value(seq: &[Item]) -> Result<bool> {
    match seq {
        [] => Ok(false),
        [Item::Node(_), ..] => Ok(true),
        [Item::Atomic(v)] => Ok(match v {
            AtomicValue::Boolean(b) => *b,
            AtomicValue::Integer(i) => *i != 0,
            AtomicValue::Decimal(d) => d.0 != 0,
            AtomicValue::Double(d) => *d != 0.0 && !d.is_nan(),
            AtomicValue::String(s) | AtomicValue::Untyped(s) => !s.is_empty(),
            _ => {
                return Err(XdmError::BooleanValue(v.string_value()));
            }
        }),
        _ => Err(XdmError::BooleanValue(format!(
            "sequence of {} items",
            seq.len()
        ))),
    }
}

/// Extract the single item of a singleton sequence; empty yields `None`,
/// more than one item is an error.
pub fn singleton(seq: &[Item]) -> Result<Option<&Item>> {
    match seq {
        [] => Ok(None),
        [one] => Ok(Some(one)),
        _ => Err(XdmError::NotSingleton(seq.len())),
    }
}

/// The value-comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompOp {
    /// `eq` / `=`
    Eq,
    /// `ne` / `!=`
    Ne,
    /// `lt` / `<`
    Lt,
    /// `le` / `<=`
    Le,
    /// `gt` / `>`
    Gt,
    /// `ge` / `>=`
    Ge,
}

impl CompOp {
    /// Apply the operator to an ordering.
    pub fn test(self, ord: Ordering) -> bool {
        match self {
            CompOp::Eq => ord == Ordering::Equal,
            CompOp::Ne => ord != Ordering::Equal,
            CompOp::Lt => ord == Ordering::Less,
            CompOp::Le => ord != Ordering::Greater,
            CompOp::Gt => ord == Ordering::Greater,
            CompOp::Ge => ord != Ordering::Less,
        }
    }

    /// The SQL rendering of this operator (used by SQL generation, §4.3).
    pub fn sql(self) -> &'static str {
        match self {
            CompOp::Eq => "=",
            CompOp::Ne => "<>",
            CompOp::Lt => "<",
            CompOp::Le => "<=",
            CompOp::Gt => ">",
            CompOp::Ge => ">=",
        }
    }
}

/// XQuery *value comparison*: both operands must atomize to singletons
/// (empty yields empty = `None`); incomparable types are an error.
pub fn value_compare(a: &[Item], op: CompOp, b: &[Item]) -> Result<Option<bool>> {
    let av = atomize(a);
    let bv = atomize(b);
    if av.is_empty() || bv.is_empty() {
        return Ok(None);
    }
    if av.len() > 1 {
        return Err(XdmError::NotSingleton(av.len()));
    }
    if bv.len() > 1 {
        return Err(XdmError::NotSingleton(bv.len()));
    }
    let ord = av[0]
        .compare(&bv[0])
        .ok_or_else(|| XdmError::Comparison(av[0].type_of(), bv[0].type_of()))?;
    Ok(Some(op.test(ord)))
}

/// XQuery *general comparison* (`=`, `<`, …): existentially quantified over
/// the atomized operands. Untyped values are cast toward the other side.
pub fn general_compare(a: &[Item], op: CompOp, b: &[Item]) -> Result<bool> {
    let av = atomize(a);
    let bv = atomize(b);
    for x in &av {
        for y in &bv {
            let (x2, y2) = promote_general(x, y)?;
            if let Some(ord) = x2.compare(&y2) {
                if op.test(ord) {
                    return Ok(true);
                }
            }
        }
    }
    Ok(false)
}

fn promote_general(x: &AtomicValue, y: &AtomicValue) -> Result<(AtomicValue, AtomicValue)> {
    use crate::value::AtomicType as T;
    let (tx, ty) = (x.type_of(), y.type_of());
    Ok(match (tx, ty) {
        (T::Untyped, T::Untyped) => (x.clone(), y.clone()),
        (T::Untyped, t) => (x.cast_to(t)?, y.clone()),
        (t, T::Untyped) => (x.clone(), y.cast_to(t)?),
        _ => (x.clone(), y.clone()),
    })
}

/// Arithmetic over sequences: empty operand propagates to empty; operands
/// atomize to singletons, untyped casts to double.
pub fn arithmetic(a: &[Item], op: ArithOp, b: &[Item]) -> Result<Option<AtomicValue>> {
    let av = atomize(a);
    let bv = atomize(b);
    if av.is_empty() || bv.is_empty() {
        return Ok(None);
    }
    if av.len() > 1 {
        return Err(XdmError::NotSingleton(av.len()));
    }
    if bv.len() > 1 {
        return Err(XdmError::NotSingleton(bv.len()));
    }
    Ok(Some(av[0].arithmetic(op, &bv[0])?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use crate::qname::QName;
    use crate::value::AtomicValue as V;

    #[test]
    fn ebv_rules() {
        assert!(!effective_boolean_value(&[]).unwrap());
        assert!(effective_boolean_value(&[Item::int(1)]).unwrap());
        assert!(!effective_boolean_value(&[Item::str("")]).unwrap());
        assert!(effective_boolean_value(&[Item::Node(Node::text(V::str("x")))]).unwrap());
        // multi-item non-node-first is an error
        assert!(effective_boolean_value(&[Item::int(1), Item::int(2)]).is_err());
        // node-first multi-item is fine
        assert!(
            effective_boolean_value(&[Item::Node(Node::text(V::str("x"))), Item::int(2)]).unwrap()
        );
        // date has no EBV
        assert!(effective_boolean_value(&[Item::Atomic(V::Date(crate::value::Date(0)))]).is_err());
    }

    #[test]
    fn value_compare_empty_propagates() {
        assert_eq!(
            value_compare(&[], CompOp::Eq, &[Item::int(1)]).unwrap(),
            None
        );
        assert_eq!(
            value_compare(&[Item::int(1)], CompOp::Eq, &[Item::int(1)]).unwrap(),
            Some(true)
        );
        assert!(value_compare(&[Item::int(1), Item::int(2)], CompOp::Eq, &[Item::int(1)]).is_err());
    }

    #[test]
    fn general_compare_is_existential() {
        let a = vec![Item::int(1), Item::int(5)];
        let b = vec![Item::int(5), Item::int(9)];
        assert!(general_compare(&a, CompOp::Eq, &b).unwrap());
        assert!(!general_compare(&a, CompOp::Eq, &[Item::int(7)]).unwrap());
        // the classic XQuery quirk: both = and != can hold simultaneously
        assert!(general_compare(&a, CompOp::Ne, &b).unwrap());
        // empty operand: always false
        assert!(!general_compare(&a, CompOp::Eq, &[]).unwrap());
    }

    #[test]
    fn general_compare_casts_untyped() {
        let a = vec![Item::Atomic(V::untyped("5"))];
        assert!(general_compare(&a, CompOp::Eq, &[Item::int(5)]).unwrap());
        let s = vec![Item::Atomic(V::untyped("abc"))];
        assert!(general_compare(&s, CompOp::Eq, &[Item::str("abc")]).unwrap());
    }

    #[test]
    fn atomize_nodes() {
        let n = Node::simple_element(QName::local("CID"), V::Integer(7));
        let out = atomize(&[Item::Node(n)]);
        assert_eq!(out, vec![V::Integer(7)]);
        // empty element atomizes to nothing
        let e = Node::element(QName::local("X"), vec![], vec![]);
        assert!(atomize(&[Item::Node(e)]).is_empty());
    }

    #[test]
    fn arithmetic_empty_propagates() {
        assert_eq!(
            arithmetic(&[], ArithOp::Add, &[Item::int(1)]).unwrap(),
            None
        );
        assert_eq!(
            arithmetic(&[Item::int(2)], ArithOp::Mul, &[Item::int(3)]).unwrap(),
            Some(V::Integer(6))
        );
    }

    #[test]
    fn comp_op_sql_and_keywords() {
        assert_eq!(CompOp::Ne.sql(), "<>");
        assert!(CompOp::Le.test(Ordering::Equal));
        assert!(!CompOp::Lt.test(Ordering::Equal));
    }
}
