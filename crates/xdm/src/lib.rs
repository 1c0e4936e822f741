//! # aldsp-xdm — XQuery Data Model substrate
//!
//! This crate implements the data-model layer that the ALDSP paper (VLDB
//! 2006, §5.1) builds its runtime on:
//!
//! * qualified names and namespace handling ([`qname`]),
//! * typed atomic values with XML-Schema-style casting, comparison and
//!   arithmetic ([`value`]),
//! * XML nodes carrying *type annotations* — the paper's "typed side of
//!   XQuery" ([`node`]),
//! * items and sequences with atomization / effective boolean value
//!   ([`item`]),
//! * the **typed XML token stream** including the three tuple
//!   representations of Figure 4 (stream, single-token, array) ([`tokens`]),
//! * a small XML serializer/parser used by the file adaptors ([`xml`]),
//! * the XML Schema subset used to describe data-service *shapes*
//!   ([`schema`]),
//! * the **structural type system** (sequence types, subtyping,
//!   intersection) that powers ALDSP's optimistic static typing (§3.1,
//!   §4.1) ([`types`]).

#![forbid(unsafe_code)]

pub mod item;
pub mod node;
pub mod qname;
pub mod schema;
pub mod tokens;
pub mod types;
pub mod value;
pub mod xml;

pub use item::{Item, Sequence};
pub use node::{Node, NodeKind, NodeRef};
pub use qname::QName;
pub use tokens::{Token, TokenStream, TupleRepr};
pub use types::{ItemType, Occurrence, SequenceType};
pub use value::{AtomicType, AtomicValue};

/// Errors raised by data-model operations (casting, comparison, navigation).
#[derive(Debug, Clone, PartialEq)]
pub enum XdmError {
    /// A cast between atomic types failed (`err:FORG0001` analogue).
    Cast { value: String, target: AtomicType },
    /// Two values cannot be compared (`err:XPTY0004` analogue).
    Comparison(AtomicType, AtomicType),
    /// Arithmetic on non-numeric operands.
    Arithmetic(AtomicType, AtomicType),
    /// A sequence of more than one item where a single item was required.
    NotSingleton(usize),
    /// Effective boolean value undefined for the operand.
    BooleanValue(String),
    /// A runtime `typematch` check failed (§4.1).
    TypeMatch { expected: String, actual: String },
    /// Malformed XML given to the parser.
    XmlParse { pos: usize, message: String },
    /// Anything else.
    Other(String),
}

impl std::fmt::Display for XdmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XdmError::Cast { value, target } => {
                write!(f, "cannot cast '{value}' to {target}")
            }
            XdmError::Comparison(a, b) => write!(f, "cannot compare {a} with {b}"),
            XdmError::Arithmetic(a, b) => {
                write!(f, "arithmetic not defined on {a} and {b}")
            }
            XdmError::NotSingleton(n) => {
                write!(f, "expected a singleton sequence, found {n} items")
            }
            XdmError::BooleanValue(s) => {
                write!(f, "effective boolean value undefined for {s}")
            }
            XdmError::TypeMatch { expected, actual } => {
                write!(f, "typematch failed: expected {expected}, found {actual}")
            }
            XdmError::XmlParse { pos, message } => {
                write!(f, "XML parse error at byte {pos}: {message}")
            }
            XdmError::Other(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for XdmError {}

/// Convenience result alias for data-model operations.
pub type Result<T> = std::result::Result<T, XdmError>;
