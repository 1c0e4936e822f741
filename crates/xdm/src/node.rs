//! XML nodes with type annotations.
//!
//! ALDSP's runtime keeps data *typed end to end*: adaptors feed typed
//! tokens in, and type annotations on element content "survive
//! construction" under structural typing (§3.1). Nodes here therefore
//! carry typed atomic values in their text leaves rather than only
//! strings. Trees are immutable and `Arc`-shared: node identity (the
//! XQuery `is` relation) is `Arc` pointer identity.

use crate::qname::QName;
use crate::value::AtomicValue;
use std::fmt;
use std::sync::Arc;

/// Shared reference to an immutable node.
pub type NodeRef = Arc<Node>;

/// One XML node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    kind: NodeKind,
}

/// The node kinds ALDSP's data-centric subset needs (no PIs/comments —
/// those never arise from relational, service or validated file sources).
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A document node wrapping root elements.
    Document {
        /// Child nodes (normally a single root element).
        children: Vec<NodeRef>,
    },
    /// An element with attributes and ordered children.
    Element {
        /// The element name.
        name: QName,
        /// Attribute nodes (each `NodeKind::Attribute`).
        attributes: Vec<NodeRef>,
        /// Child element/text nodes in document order.
        children: Vec<NodeRef>,
    },
    /// An attribute with a typed value.
    Attribute {
        /// The attribute name.
        name: QName,
        /// The typed attribute value.
        value: AtomicValue,
    },
    /// A text leaf carrying a typed atomic value (the type annotation the
    /// paper's typed token stream preserves).
    Text {
        /// The typed content; `AtomicValue::Untyped` for unvalidated text.
        value: AtomicValue,
    },
}

impl Node {
    /// Build a document node.
    pub fn document(children: Vec<NodeRef>) -> NodeRef {
        Arc::new(Node {
            kind: NodeKind::Document { children },
        })
    }

    /// Build an element node.
    pub fn element(name: QName, attributes: Vec<NodeRef>, children: Vec<NodeRef>) -> NodeRef {
        debug_assert!(attributes
            .iter()
            .all(|a| matches!(a.kind, NodeKind::Attribute { .. })));
        Arc::new(Node {
            kind: NodeKind::Element {
                name,
                attributes,
                children,
            },
        })
    }

    /// Build an element with a single typed text child — the common shape
    /// for relational column elements.
    pub fn simple_element(name: QName, value: AtomicValue) -> NodeRef {
        Node::element(name, vec![], vec![Node::text(value)])
    }

    /// Build an attribute node.
    pub fn attribute(name: QName, value: AtomicValue) -> NodeRef {
        Arc::new(Node {
            kind: NodeKind::Attribute { name, value },
        })
    }

    /// Build a typed text node.
    pub fn text(value: AtomicValue) -> NodeRef {
        Arc::new(Node {
            kind: NodeKind::Text { value },
        })
    }

    /// The node kind.
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }

    /// The node name, if the kind has one.
    pub fn name(&self) -> Option<&QName> {
        match &self.kind {
            NodeKind::Element { name, .. } | NodeKind::Attribute { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Child nodes (empty for leaves).
    pub fn children(&self) -> &[NodeRef] {
        match &self.kind {
            NodeKind::Document { children } | NodeKind::Element { children, .. } => children,
            _ => &[],
        }
    }

    /// Attribute nodes of an element.
    pub fn attributes(&self) -> &[NodeRef] {
        match &self.kind {
            NodeKind::Element { attributes, .. } => attributes,
            _ => &[],
        }
    }

    /// Child elements whose name matches `name` (the `child::E` axis step).
    pub fn child_elements<'a>(&'a self, name: &'a QName) -> impl Iterator<Item = &'a NodeRef> {
        self.children()
            .iter()
            .filter(move |c| matches!(c.kind(), NodeKind::Element { name: n, .. } if n == name))
    }

    /// All child elements (the `child::*` axis step).
    pub fn all_child_elements(&self) -> impl Iterator<Item = &NodeRef> {
        self.children()
            .iter()
            .filter(|c| matches!(c.kind(), NodeKind::Element { .. }))
    }

    /// The attribute named `name`, if present.
    pub fn attribute_named(&self, name: &QName) -> Option<&NodeRef> {
        self.attributes().iter().find(|a| a.name() == Some(name))
    }

    /// The XQuery string value: concatenated text descendants.
    pub fn string_value(&self) -> String {
        match &self.kind {
            NodeKind::Text { value } => value.string_value(),
            NodeKind::Attribute { value, .. } => value.string_value(),
            _ => {
                let mut out = String::new();
                collect_text(self, &mut out);
                out
            }
        }
    }

    /// The typed value used by atomization (`fn:data`).
    ///
    /// * attributes and text nodes yield their annotated value;
    /// * an element with exactly one text child yields that child's typed
    ///   value (annotations survive construction — §3.1);
    /// * any other element yields its string value as `xs:untypedAtomic`;
    /// * an *empty* element yields `None` (empty sequence), matching the
    ///   paper's NULLs-as-missing-content model.
    pub fn typed_value(&self) -> Option<AtomicValue> {
        match &self.kind {
            NodeKind::Attribute { value, .. } | NodeKind::Text { value } => Some(value.clone()),
            NodeKind::Element { children, .. } => match children.as_slice() {
                [] => None,
                [only] => match only.kind() {
                    NodeKind::Text { value } => Some(value.clone()),
                    _ => Some(AtomicValue::untyped(&self.string_value())),
                },
                _ => Some(AtomicValue::untyped(&self.string_value())),
            },
            NodeKind::Document { .. } => Some(AtomicValue::untyped(&self.string_value())),
        }
    }

    /// Structural deep equality (`fn:deep-equal` semantics over this
    /// node-kind subset): names, typed values and ordered children match.
    pub fn deep_equal(&self, other: &Node) -> bool {
        match (&self.kind, &other.kind) {
            (NodeKind::Text { value: a }, NodeKind::Text { value: b }) => {
                a.compare(b) == Some(std::cmp::Ordering::Equal)
            }
            (
                NodeKind::Attribute {
                    name: na,
                    value: va,
                },
                NodeKind::Attribute {
                    name: nb,
                    value: vb,
                },
            ) => na == nb && va.compare(vb) == Some(std::cmp::Ordering::Equal),
            (
                NodeKind::Element {
                    name: na,
                    attributes: aa,
                    children: ca,
                },
                NodeKind::Element {
                    name: nb,
                    attributes: ab,
                    children: cb,
                },
            ) => {
                na == nb
                    && aa.len() == ab.len()
                    && ca.len() == cb.len()
                    // attributes are unordered
                    && aa.iter().all(|x| ab.iter().any(|y| x.deep_equal(y)))
                    && ca.iter().zip(cb).all(|(x, y)| x.deep_equal(y))
            }
            (NodeKind::Document { children: ca }, NodeKind::Document { children: cb }) => {
                ca.len() == cb.len() && ca.iter().zip(cb).all(|(x, y)| x.deep_equal(y))
            }
            _ => false,
        }
    }
}

fn collect_text(node: &Node, out: &mut String) {
    match node.kind() {
        NodeKind::Text { value } => value.write_lexical(out),
        _ => {
            for c in node.children() {
                collect_text(c, out);
            }
        }
    }
}

impl fmt::Display for Node {
    /// Displays the node as XML (delegates to the serializer in [`crate::xml`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::xml::serialize(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AtomicValue as V;

    fn customer() -> NodeRef {
        Node::element(
            QName::local("CUSTOMER"),
            vec![Node::attribute(QName::local("status"), V::str("gold"))],
            vec![
                Node::simple_element(QName::local("CID"), V::str("CUST001")),
                Node::simple_element(QName::local("LAST_NAME"), V::str("Jones")),
                Node::simple_element(QName::local("SINCE"), V::Integer(1_000_000)),
            ],
        )
    }

    #[test]
    fn navigation() {
        let c = customer();
        let cid = QName::local("CID");
        let hits: Vec<_> = c.child_elements(&cid).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].string_value(), "CUST001");
        assert_eq!(c.all_child_elements().count(), 3);
        assert!(c.attribute_named(&QName::local("status")).is_some());
        assert!(c.attribute_named(&QName::local("missing")).is_none());
    }

    #[test]
    fn typed_value_survives_construction() {
        // The SINCE leaf keeps its integer annotation even though it was
        // wrapped in a constructed element — the point of §3.1.
        let c = customer();
        let since = c
            .child_elements(&QName::local("SINCE"))
            .next()
            .unwrap()
            .typed_value()
            .unwrap();
        assert_eq!(since, V::Integer(1_000_000));
    }

    #[test]
    fn empty_element_atomizes_to_empty_sequence() {
        // NULL columns are modeled as missing/empty content (§4.3).
        let e = Node::element(QName::local("MIDDLE_NAME"), vec![], vec![]);
        assert_eq!(e.typed_value(), None);
    }

    #[test]
    fn complex_content_atomizes_as_untyped_string() {
        let c = customer();
        let v = c.typed_value().unwrap();
        assert_eq!(v.type_of(), crate::AtomicType::Untyped);
        assert_eq!(v.string_value(), "CUST001Jones1000000");
    }

    #[test]
    fn string_value_concatenates_descendants() {
        let c = customer();
        assert_eq!(c.string_value(), "CUST001Jones1000000");
    }

    #[test]
    fn deep_equal_ignores_attribute_order() {
        let a = Node::element(
            QName::local("E"),
            vec![
                Node::attribute(QName::local("x"), V::Integer(1)),
                Node::attribute(QName::local("y"), V::Integer(2)),
            ],
            vec![],
        );
        let b = Node::element(
            QName::local("E"),
            vec![
                Node::attribute(QName::local("y"), V::Integer(2)),
                Node::attribute(QName::local("x"), V::Integer(1)),
            ],
            vec![],
        );
        assert!(a.deep_equal(&b));
    }

    #[test]
    fn deep_equal_respects_child_order_and_values() {
        let a = Node::simple_element(QName::local("E"), V::Integer(1));
        let b = Node::simple_element(QName::local("E"), V::Integer(2));
        assert!(!a.deep_equal(&b));
        // typed 1 equals untyped "1"? compare() promotes untyped to double
        let c = Node::simple_element(QName::local("E"), V::untyped("1"));
        assert!(a.deep_equal(&c));
    }
}
