//! [`Val`], the evaluator's transient sequence value, and the two
//! key-shaped reads over it that clauses share.

use crate::eval::RtResult;
use aldsp_xdm::item::{atomize, Item, Sequence};
use aldsp_xdm::value::{AtomicType, AtomicValue};
use aldsp_xdm::XdmError;
use std::sync::Arc;

/// The runtime's one transient sequence value — what `eval` returns
/// and what a frame slot reads out as: empty, a single inline item, a
/// slot's sequence shared by refcount, or an owned vector. It becomes a
/// plain `Sequence` only where items leave the evaluator (the result
/// sink, adaptor and function-cache arguments).
#[derive(Clone, Debug)]
pub enum Val {
    Empty,
    One(Item),
    Shared(Arc<Sequence>),
    Owned(Sequence),
}

impl Val {
    /// Wrap an owned sequence, collapsing the cheap cardinalities.
    pub fn of(mut s: Sequence) -> Val {
        match s.len() {
            0 => Val::Empty,
            1 => Val::One(s.pop().expect("len 1")),
            _ => Val::Owned(s),
        }
    }

    /// A singleton boolean (the commonest op result).
    pub fn bool(b: bool) -> Val {
        Val::One(Item::Atomic(AtomicValue::Boolean(b)))
    }

    /// Borrow the underlying items.
    #[inline]
    pub fn as_slice(&self) -> &[Item] {
        match self {
            Val::Empty => &[],
            Val::One(item) => std::slice::from_ref(item),
            Val::Shared(s) => s.as_slice(),
            Val::Owned(s) => s.as_slice(),
        }
    }

    /// Append the items to `out`, moving the ones this value owns.
    pub(crate) fn append_to(self, out: &mut Sequence) {
        match self {
            Val::Empty => {}
            Val::One(item) => out.push(item),
            Val::Shared(a) => out.extend_from_slice(&a),
            Val::Owned(s) => out.extend(s),
        }
    }

    /// Convert to an owned sequence; shared values clone their items
    /// only when another reference is still alive.
    pub fn into_sequence(self) -> Sequence {
        match self {
            Val::Empty => Vec::new(),
            Val::One(item) => vec![item],
            Val::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()),
            Val::Owned(s) => s,
        }
    }
}

/// The first atomized value — the order-by / group-by / PP-k key shape.
pub(crate) fn atomize_first_val(v: &Val) -> Option<AtomicValue> {
    match v.as_slice() {
        [] => None,
        [Item::Atomic(a)] => Some(a.clone()),
        [Item::Node(n)] => n.typed_value(),
        s => atomize(s).into_iter().next(),
    }
}

/// A `Range` bound: the value's single atomized item cast to integer.
pub(crate) fn single_integer_val(v: &Val) -> RtResult<Option<i64>> {
    let a = atomize(v.as_slice());
    match a.as_slice() {
        [] => Ok(None),
        [one] => match one.cast_to(AtomicType::Integer)? {
            AtomicValue::Integer(i) => Ok(Some(i)),
            _ => unreachable!("cast to integer"),
        },
        _ => Err(XdmError::NotSingleton(a.len()).into()),
    }
}
