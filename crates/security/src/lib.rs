//! # aldsp-security — data security (§7)
//!
//! ALDSP provides "a flexible, fine-grained access control model for
//! data services": coarse control on *data service functions* (who may
//! call what) and fine control on *element-level resources* in the
//! return shapes — "unauthorized accessors will either see nothing (the
//! data may be silently removed, if the presence of the subtree is
//! optional in the schema) or they will see an administratively-
//! specified replacement value."
//!
//! The query-processing-relevant property the paper stresses: security
//! filtering runs **late**, after the function cache, "so that compiled
//! query plans and function results can still be effectively cached and
//! reused across different users." [`SecurityPolicy::filter_result`] is
//! that late filter; the `aldsp` server crate applies it to results
//! after execution (and after any cache hit).
//!
//! An [`AuditLog`] records access decisions (§7's auditing service).

#![forbid(unsafe_code)]

use aldsp_xdm::item::{Item, Sequence};
use aldsp_xdm::node::{Node, NodeKind, NodeRef};
use aldsp_xdm::value::AtomicValue;
use aldsp_xdm::QName;
use parking_lot::Mutex;
use std::collections::HashMap;

/// An authenticated caller with roles (authentication itself is the
/// container's job — WebLogic in the paper, out of scope here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Principal {
    /// User name.
    pub name: String,
    /// Granted roles.
    pub roles: Vec<String>,
}

impl Principal {
    /// Construct a principal.
    pub fn new(name: &str, roles: &[&str]) -> Principal {
        Principal {
            name: name.to_string(),
            roles: roles.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Does the principal hold any of the given roles?
    pub fn has_any(&self, roles: &[String]) -> bool {
        roles.iter().any(|r| self.roles.contains(r))
    }
}

/// What an unauthorized accessor sees at a protected subtree (§7).
#[derive(Debug, Clone, PartialEq)]
pub enum DenialAction {
    /// Silently remove the subtree (valid when the schema makes it
    /// optional).
    Remove,
    /// Show an administratively-specified replacement value.
    Replace(AtomicValue),
}

/// A labeled element-level security resource: a path in a data shape
/// plus the roles allowed to see it.
#[derive(Debug, Clone)]
pub struct ElementResource {
    /// Path of element names from the result root (root excluded).
    pub path: Vec<QName>,
    /// Roles that may see the subtree.
    pub allowed_roles: Vec<String>,
    /// What everyone else sees.
    pub denial: DenialAction,
}

/// Security error (function-level denial).
#[derive(Debug, Clone, PartialEq)]
pub struct AccessDenied {
    /// Who was denied.
    pub principal: String,
    /// What they tried to call.
    pub function: String,
}

impl std::fmt::Display for AccessDenied {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "access denied: {} may not call {}",
            self.principal, self.function
        )
    }
}

impl std::error::Error for AccessDenied {}

/// The policy store: function-level rules plus element resources.
#[derive(Debug, Clone, Default)]
pub struct SecurityPolicy {
    function_rules: HashMap<QName, Vec<String>>,
    resources: Vec<ElementResource>,
}

impl SecurityPolicy {
    /// An empty (allow-everything) policy.
    pub fn new() -> SecurityPolicy {
        SecurityPolicy::default()
    }

    /// Restrict calling `function` to the given roles.
    pub fn restrict_function(&mut self, function: QName, roles: &[&str]) {
        self.function_rules
            .insert(function, roles.iter().map(|s| s.to_string()).collect());
    }

    /// Register an element-level resource.
    pub fn add_resource(&mut self, resource: ElementResource) {
        self.resources.push(resource);
    }

    /// Function-level check (§7: "who is allowed to call what").
    /// Unrestricted functions are callable by everyone.
    pub fn check_function_access(
        &self,
        principal: &Principal,
        function: &QName,
        audit: &AuditLog,
    ) -> Result<(), AccessDenied> {
        let decision = match self.function_rules.get(function) {
            None => true,
            Some(roles) => principal.has_any(roles),
        };
        audit.record(AuditEntry {
            principal: principal.name.clone(),
            subject: format!("call {function}"),
            allowed: decision,
        });
        if decision {
            Ok(())
        } else {
            Err(AccessDenied {
                principal: principal.name.clone(),
                function: function.to_string(),
            })
        }
    }

    /// The late, per-user result filter (§7): applied after execution and
    /// after the function cache, so plans and cached results stay shared
    /// across users.
    pub fn filter_result(
        &self,
        principal: &Principal,
        result: Sequence,
        audit: &AuditLog,
    ) -> Sequence {
        if self.resources.is_empty() {
            return result;
        }
        result
            .into_iter()
            .map(|item| match item {
                Item::Node(n) => Item::Node(self.filter_node(principal, &n, &[], audit)),
                atomic => atomic,
            })
            .collect()
    }

    fn filter_node(
        &self,
        principal: &Principal,
        node: &NodeRef,
        path: &[QName],
        audit: &AuditLog,
    ) -> NodeRef {
        let NodeKind::Element {
            name,
            attributes,
            children,
        } = node.kind()
        else {
            return node.clone();
        };
        let mut new_children = Vec::with_capacity(children.len());
        for c in children {
            let Some(cname) = c.name() else {
                new_children.push(c.clone());
                continue;
            };
            let mut child_path: Vec<QName> = path.to_vec();
            child_path.push(cname.clone());
            match self.resource_at(&child_path) {
                Some(res) if !principal.has_any(&res.allowed_roles) => {
                    audit.record(AuditEntry {
                        principal: principal.name.clone(),
                        subject: format!(
                            "read /{}",
                            child_path
                                .iter()
                                .map(|q| q.local_name())
                                .collect::<Vec<_>>()
                                .join("/")
                        ),
                        allowed: false,
                    });
                    match &res.denial {
                        DenialAction::Remove => {} // silently removed
                        DenialAction::Replace(v) => {
                            new_children.push(Node::simple_element(cname.clone(), v.clone()))
                        }
                    }
                }
                _ => {
                    new_children.push(self.filter_node(principal, c, &child_path, audit));
                }
            }
        }
        Node::element(name.clone(), attributes.clone(), new_children)
    }

    fn resource_at(&self, path: &[QName]) -> Option<&ElementResource> {
        self.resources.iter().find(|r| r.path == path)
    }
}

/// One audited decision.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEntry {
    /// Who.
    pub principal: String,
    /// What.
    pub subject: String,
    /// Allowed?
    pub allowed: bool,
}

/// The auditing service (§7): administratively enabled, records security
/// decisions.
#[derive(Debug, Default)]
pub struct AuditLog {
    enabled: std::sync::atomic::AtomicBool,
    entries: Mutex<Vec<AuditEntry>>,
}

impl AuditLog {
    /// A disabled log (no overhead).
    pub fn new() -> AuditLog {
        AuditLog::default()
    }

    /// Enable or disable auditing.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, std::sync::atomic::Ordering::SeqCst);
    }

    /// Record a decision (no-op when disabled).
    pub fn record(&self, entry: AuditEntry) {
        if self.enabled.load(std::sync::atomic::Ordering::SeqCst) {
            self.entries.lock().push(entry);
        }
    }

    /// Snapshot the recorded entries.
    pub fn entries(&self) -> Vec<AuditEntry> {
        self.entries.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aldsp_xdm::value::AtomicValue as V;

    fn profile() -> NodeRef {
        Node::element(
            QName::local("PROFILE"),
            vec![],
            vec![
                Node::simple_element(QName::local("CID"), V::str("C1")),
                Node::simple_element(QName::local("SSN"), V::str("111-11-1111")),
                Node::element(
                    QName::local("CREDIT"),
                    vec![],
                    vec![Node::simple_element(
                        QName::local("RATING"),
                        V::Integer(720),
                    )],
                ),
            ],
        )
    }

    fn policy() -> SecurityPolicy {
        let mut p = SecurityPolicy::new();
        p.restrict_function(QName::new("urn:t", "getProfile"), &["csr", "admin"]);
        p.add_resource(ElementResource {
            path: vec![QName::local("SSN")],
            allowed_roles: vec!["admin".into()],
            denial: DenialAction::Replace(V::str("###-##-####")),
        });
        p.add_resource(ElementResource {
            path: vec![QName::local("CREDIT"), QName::local("RATING")],
            allowed_roles: vec!["admin".into(), "credit".into()],
            denial: DenialAction::Remove,
        });
        p
    }

    #[test]
    fn function_level_access() {
        let p = policy();
        let audit = AuditLog::new();
        let f = QName::new("urn:t", "getProfile");
        assert!(p
            .check_function_access(&Principal::new("alice", &["admin"]), &f, &audit)
            .is_ok());
        assert!(p
            .check_function_access(&Principal::new("bob", &["intern"]), &f, &audit)
            .is_err());
        // unrestricted functions callable by anyone
        assert!(p
            .check_function_access(
                &Principal::new("bob", &[]),
                &QName::new("urn:t", "getPublic"),
                &audit
            )
            .is_ok());
    }

    #[test]
    fn element_replacement_and_removal() {
        let p = policy();
        let audit = AuditLog::new();
        let csr = Principal::new("carol", &["csr"]);
        let out = p.filter_result(&csr, vec![Item::Node(profile())], &audit);
        let s = aldsp_xdm::xml::serialize_sequence(&out);
        // SSN replaced with the administrative value
        assert!(s.contains("<SSN>###-##-####</SSN>"), "{s}");
        // nested RATING silently removed
        assert!(!s.contains("RATING"), "{s}");
        assert!(s.contains("<CREDIT/>"), "{s}");
        // admin sees everything
        let admin = Principal::new("alice", &["admin"]);
        let out = p.filter_result(&admin, vec![Item::Node(profile())], &audit);
        let s = aldsp_xdm::xml::serialize_sequence(&out);
        assert!(s.contains("111-11-1111") && s.contains("720"), "{s}");
    }

    #[test]
    fn audit_records_decisions_when_enabled() {
        let p = policy();
        let audit = AuditLog::new();
        let bob = Principal::new("bob", &[]);
        // disabled: nothing recorded
        p.filter_result(&bob, vec![Item::Node(profile())], &audit);
        assert!(audit.entries().is_empty());
        audit.set_enabled(true);
        p.filter_result(&bob, vec![Item::Node(profile())], &audit);
        let entries = audit.entries();
        assert_eq!(entries.len(), 2, "{entries:?}");
        assert!(entries.iter().all(|e| !e.allowed));
        assert!(entries.iter().any(|e| e.subject.contains("/SSN")));
        assert!(entries.iter().any(|e| e.subject.contains("/CREDIT/RATING")));
    }

    #[test]
    fn empty_policy_is_passthrough() {
        let p = SecurityPolicy::new();
        let audit = AuditLog::new();
        let bob = Principal::new("bob", &[]);
        let input = vec![Item::Node(profile())];
        let out = p.filter_result(&bob, input.clone(), &audit);
        assert_eq!(out, input);
    }
}
