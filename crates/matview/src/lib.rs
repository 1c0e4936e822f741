//! # aldsp-matview — incremental materialized data services
//!
//! The paper's function cache (§5.2) is TTL-only: between expirations it
//! serves stale answers, and on expiry it recomputes wholesale. This
//! crate closes the loop the rest of the system already opened: submit
//! processing (§6) decomposes every write into per-source row deltas
//! with full lineage, so a cached data-service result can be maintained
//! *by the write path* instead of by a clock.
//!
//! A data service declared **materialized** keeps its results in a
//! [`MatViewRegistry`]. Its first evaluation registers a dependency
//! record ([`Dependencies`], derived from `aldsp_updates::lineage`)
//! alongside the cached answer: which `(connection, table)` pairs feed
//! it, which columns are merely *displayed*, which columns *restrict*
//! membership, and where each table's primary key surfaces in the
//! result shape. After every committed submit the emitted
//! [`SourceDelta`]s are routed through that record:
//!
//! - a delta touching no referenced column **skips** the view — cached
//!   entries stay live;
//! - a delta writing only displayed, non-restricting columns of a
//!   row-wise patchable shape is **patched in place**: the matching
//!   cached instances are rewritten at the lineage paths (applying the
//!   registered forward transform where the column surfaces through an
//!   invertible function, §4.4);
//! - anything else **surgically invalidates** the affected entries —
//!   they recompute on next read, never on TTL expiry.
//!
//! ## Atomicity with in-flight reads
//!
//! Each view guards its entries with one mutex; readers clone the
//! cached sequence under the lock, writers patch or drop under the
//! lock, so a reader sees the pre-write or post-write answer, never a
//! torn one. Fills (cache misses) compute *outside* the lock and are
//! admitted by an epoch check: every affecting write bumps the view's
//! epoch, and a fill started before the write is discarded instead of
//! stored, so a racing recompute can never install a stale answer over
//! an invalidation.

#![forbid(unsafe_code)]

use aldsp_updates::lineage::Lineage;
use aldsp_updates::sdo::{locate, rewrite_value, Path};
use aldsp_updates::SourceDelta;
use aldsp_xdm::item::{Item, Sequence};
use aldsp_xdm::value::AtomicValue;
use aldsp_xdm::xml::write_key;
use aldsp_xdm::QName;
use parking_lot::{Mutex, RwLock};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// How a materialized service reacts to writes that touch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatViewPolicy {
    /// Patch single-row point writes in place where provably sound,
    /// invalidate otherwise (the default).
    PatchOrInvalidate,
    /// Never patch: any affecting write invalidates the touched entries.
    InvalidateOnly,
}

impl std::fmt::Display for MatViewPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatViewPolicy::PatchOrInvalidate => write!(f, "patch-or-invalidate"),
            MatViewPolicy::InvalidateOnly => write!(f, "invalidate-only"),
        }
    }
}

/// One displayed source column: where it surfaces in the result shape
/// and the forward transform (if any) between stored and shown value.
#[derive(Debug, Clone)]
pub struct DisplayedColumn {
    /// Source column name.
    pub column: String,
    /// Result path where the value surfaces.
    pub path: Path,
    /// Forward transform applied between column and display (§4.4); the
    /// stored delta value must be run through it before patching.
    pub forward: Option<QName>,
}

/// Everything the maintenance pass needs to know about one source table
/// feeding a materialized service.
#[derive(Debug, Clone)]
pub struct TableDep {
    /// Source connection.
    pub connection: String,
    /// Source table.
    pub table: String,
    /// Read through an unpushed physical call: column analysis is
    /// unavailable, every write to the table affects the view.
    pub opaque: bool,
    /// Every column the plan reads. Writes outside this set skip the
    /// view entirely.
    pub referenced: Vec<String>,
    /// Columns that determine membership or arrangement (predicates,
    /// grouping, ordering, correlations, middleware consumption, and
    /// referenced-but-not-displayed columns). Writes here invalidate.
    pub restricting: Vec<String>,
    /// Columns that surface verbatim (or through one invertible
    /// transform) in the result shape — the patchable set.
    pub displayed: Vec<DisplayedColumn>,
    /// The table's primary-key columns and their result paths, when the
    /// shape exposes them (required for row matching; empty disables
    /// patching for this table).
    pub key: Vec<(String, Path)>,
}

/// The dependency record registered with a view on first evaluation.
#[derive(Debug, Clone, Default)]
pub struct Dependencies {
    /// Per-table dependency facts.
    pub tables: Vec<TableDep>,
    /// `true` when the plan shape is row-wise patchable (one scanned
    /// row per output instance, no nested iteration).
    pub patchable_shape: bool,
}

impl Dependencies {
    /// Derive the dependency record from a lineage analysis.
    pub fn from_lineage(lineage: &Lineage) -> Dependencies {
        let mut names: Vec<(String, String)> = lineage
            .referenced
            .keys()
            .chain(lineage.restricting.keys())
            .cloned()
            .chain(lineage.opaque_tables.iter().cloned())
            .chain(
                lineage
                    .entries
                    .iter()
                    .map(|e| (e.connection.clone(), e.table.clone())),
            )
            .collect();
        names.sort();
        names.dedup();
        let tables = names
            .into_iter()
            .map(|(conn, table)| {
                let kref = (conn.clone(), table.clone());
                let displayed: Vec<DisplayedColumn> = lineage
                    .entries
                    .iter()
                    .filter(|e| e.connection == conn && e.table == table)
                    .map(|e| DisplayedColumn {
                        column: e.column.clone(),
                        path: e.path.clone(),
                        forward: e.inverse.clone(),
                    })
                    .collect();
                let referenced = lineage.referenced.get(&kref).cloned().unwrap_or_default();
                let mut restricting = lineage.restricting.get(&kref).cloned().unwrap_or_default();
                // a referenced column that never surfaces in the shape
                // feeds *something* the record cannot patch — restrict it
                for col in &referenced {
                    if !displayed.iter().any(|d| &d.column == col) && !restricting.contains(col) {
                        restricting.push(col.clone());
                    }
                }
                TableDep {
                    opaque: lineage.opaque_tables.contains(&kref),
                    referenced,
                    restricting,
                    displayed,
                    key: lineage.keys.get(&kref).cloned().unwrap_or_default(),
                    connection: conn,
                    table,
                }
            })
            .collect();
        Dependencies {
            tables,
            patchable_shape: lineage.simple_shape,
        }
    }
}

/// What one maintenance pass did, for the caller's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceOutcome {
    /// Cached result instances rewritten in place.
    pub patched: u64,
    /// Cached entries dropped (they recompute on next read).
    pub invalidated: u64,
}

/// A snapshot of one view for diagnostics / EXPLAIN.
#[derive(Debug, Clone)]
pub struct MatViewStatus {
    /// The declared maintenance policy.
    pub policy: MatViewPolicy,
    /// Source tables in the dependency record (0 until first fill).
    pub tables: usize,
    /// Live cached entries.
    pub entries: usize,
}

/// Applies a registered forward transform to a stored column value.
/// Supplied by the server layer, which owns metadata and adaptors.
pub type ForwardFn<'a> = dyn Fn(&QName, &AtomicValue) -> Result<AtomicValue, String> + 'a;

#[derive(Default)]
struct ViewInner {
    /// Bumped by every affecting write; fills from an older epoch are
    /// discarded instead of stored.
    epoch: u64,
    deps: Option<Arc<Dependencies>>,
    entries: HashMap<String, Sequence>,
}

struct ViewState {
    policy: MatViewPolicy,
    inner: Mutex<ViewInner>,
}

/// An admission ticket for filling one cache slot: records the view
/// epoch at miss time so a fill that raced a write is discarded.
pub struct FillTicket {
    view: Arc<ViewState>,
    epoch: u64,
    key: String,
}

/// The registry of materialized data services.
#[derive(Default)]
pub struct MatViewRegistry {
    views: RwLock<HashMap<QName, Arc<ViewState>>>,
}

impl MatViewRegistry {
    /// An empty registry.
    pub fn new() -> MatViewRegistry {
        MatViewRegistry::default()
    }

    /// Declare `function` materialized under `policy`.
    pub fn materialize(&self, function: QName, policy: MatViewPolicy) {
        self.views.write().insert(
            function,
            Arc::new(ViewState {
                policy,
                inner: Mutex::new(ViewInner::default()),
            }),
        );
    }

    /// Is this function materialized?
    pub fn is_materialized(&self, function: &QName) -> bool {
        self.views.read().contains_key(function)
    }

    /// Policy / dependency / occupancy snapshot for one view.
    pub fn status(&self, function: &QName) -> Option<MatViewStatus> {
        let vs = self.views.read().get(function)?.clone();
        let inner = vs.inner.lock();
        Some(MatViewStatus {
            policy: vs.policy,
            tables: inner.deps.as_ref().map_or(0, |d| d.tables.len()),
            entries: inner.entries.len(),
        })
    }

    /// The cache key for one argument vector (see [`write_key`]).
    pub fn arg_key(args: &[Sequence]) -> String {
        let mut key = String::new();
        write_key(args, &mut key);
        key
    }

    /// A live cached answer, if present.
    pub fn get(&self, function: &QName, key: &str) -> Option<Sequence> {
        let vs = self.views.read().get(function)?.clone();
        let inner = vs.inner.lock();
        inner.entries.get(key).cloned()
    }

    /// Start filling a missing slot: remembers the current epoch so the
    /// computed answer is only admitted if no affecting write lands in
    /// the meantime. `None` when the function is not materialized.
    pub fn fill_ticket(&self, function: &QName, key: &str) -> Option<FillTicket> {
        let vs = self.views.read().get(function)?.clone();
        let epoch = vs.inner.lock().epoch;
        Some(FillTicket {
            view: vs,
            epoch,
            key: key.to_string(),
        })
    }

    /// Install a computed answer and (on first fill) the dependency
    /// record. Returns `false` — and caches nothing — when a write
    /// raced the fill.
    pub fn complete_fill(
        &self,
        ticket: FillTicket,
        items: Sequence,
        deps: Arc<Dependencies>,
    ) -> bool {
        let mut inner = ticket.view.inner.lock();
        if inner.deps.is_none() {
            // dependencies derive from the plan, not the data: valid
            // even when the data raced away from under this fill
            inner.deps = Some(deps);
        }
        if inner.epoch != ticket.epoch {
            return false;
        }
        inner.entries.insert(ticket.key, items);
        true
    }

    /// Route committed submit deltas through every view's dependency
    /// record: skip, patch in place, or surgically invalidate.
    pub fn apply_deltas(&self, deltas: &[SourceDelta], forward: &ForwardFn) -> MaintenanceOutcome {
        let mut out = MaintenanceOutcome::default();
        if deltas.is_empty() {
            return out;
        }
        let views: Vec<Arc<ViewState>> = self.views.read().values().cloned().collect();
        for vs in views {
            let mut inner = vs.inner.lock();
            let Some(deps) = inner.deps.clone() else {
                // never filled: no entries to maintain, but a fill may be
                // in flight against pre-write data — refuse it
                inner.epoch += 1;
                continue;
            };
            let mut affecting: Vec<&SourceDelta> = Vec::new();
            let mut must_invalidate = vs.policy == MatViewPolicy::InvalidateOnly;
            for d in deltas {
                let Some(td) = deps
                    .tables
                    .iter()
                    .find(|t| t.connection == d.connection && t.table == d.table)
                else {
                    continue;
                };
                if td.opaque {
                    affecting.push(d);
                    must_invalidate = true;
                    continue;
                }
                let relevant: Vec<&(String, Option<AtomicValue>)> = d
                    .columns
                    .iter()
                    .filter(|(c, _)| td.referenced.contains(c))
                    .collect();
                if relevant.is_empty() {
                    continue; // provably outside the view's read set
                }
                affecting.push(d);
                let patchable = deps.patchable_shape
                    && !td.key.is_empty()
                    && !d.key.is_empty()
                    && relevant.iter().all(|(c, v)| {
                        v.is_some()
                            && !td.restricting.contains(c)
                            && td.displayed.iter().any(|dc| &dc.column == c)
                    });
                if !patchable {
                    must_invalidate = true;
                }
            }
            if affecting.is_empty() {
                continue; // entries stay live, concurrent fills stay valid
            }
            inner.epoch += 1;
            if must_invalidate {
                out.invalidated += inner.entries.len() as u64;
                inner.entries.clear();
                continue;
            }
            let keys: Vec<String> = inner.entries.keys().cloned().collect();
            'entry: for key in keys {
                let mut items = inner.entries.get(&key).cloned().unwrap_or_default();
                let mut patched_here = 0u64;
                for d in &affecting {
                    let td = deps
                        .tables
                        .iter()
                        .find(|t| t.connection == d.connection && t.table == d.table)
                        .expect("affecting delta has a table dep");
                    match patch_items(&mut items, td, d, forward) {
                        Ok(n) => patched_here += n,
                        Err(_) => {
                            // a row resisted point-rewriting (absent
                            // element, transform failure): drop the entry
                            inner.entries.remove(&key);
                            out.invalidated += 1;
                            continue 'entry;
                        }
                    }
                }
                if patched_here > 0 {
                    inner.entries.insert(key, items);
                    out.patched += patched_here;
                }
                // zero matches: the written row is not in this answer and
                // (restricting columns untouched) cannot have entered it
            }
        }
        out
    }

    /// Coarsely invalidate every view that reads any of `tables` — the
    /// fallback when a write bypassed delta emission (update overrides,
    /// partially-failed submits). Views with unknown dependencies are
    /// invalidated too.
    pub fn invalidate_tables(&self, tables: &[(String, String)]) -> u64 {
        let mut dropped = 0u64;
        let views: Vec<Arc<ViewState>> = self.views.read().values().cloned().collect();
        for vs in views {
            let mut inner = vs.inner.lock();
            let affected = match &inner.deps {
                None => true,
                Some(deps) => deps.tables.iter().any(|t| {
                    tables
                        .iter()
                        .any(|(c, n)| t.connection == *c && t.table == *n)
                }),
            };
            if affected {
                inner.epoch += 1;
                dropped += inner.entries.len() as u64;
                inner.entries.clear();
            }
        }
        dropped
    }
}

/// Rewrite every cached instance whose exposed key matches the delta's
/// row. Returns how many instances were patched; `Err` when a matching
/// instance cannot be soundly rewritten.
fn patch_items(
    items: &mut Sequence,
    td: &TableDep,
    d: &SourceDelta,
    forward: &ForwardFn,
) -> Result<u64, String> {
    let mut patched = 0u64;
    for item in items.iter_mut() {
        let Item::Node(node) = item else { continue };
        let mut matches = true;
        for (col, path) in &td.key {
            let Some((_, want)) = d.key.iter().find(|(c, _)| c == col) else {
                matches = false;
                break;
            };
            let got = locate(node, path).and_then(|n| n.typed_value());
            match got {
                Some(g) if g.compare(want) == Some(Ordering::Equal) => {}
                _ => {
                    matches = false;
                    break;
                }
            }
        }
        if !matches {
            continue;
        }
        let mut rewritten = node.clone();
        for (col, val) in &d.columns {
            if !td.referenced.contains(col) {
                continue;
            }
            let v = val
                .as_ref()
                .ok_or_else(|| format!("NULL write to displayed column {col}"))?;
            for dc in td.displayed.iter().filter(|dc| &dc.column == col) {
                let shown = match &dc.forward {
                    Some(f) => forward(f, v)?,
                    None => v.clone(),
                };
                if locate(&rewritten, &dc.path).is_none() {
                    // the element is absent in the cached instance (was
                    // NULL): a blind append cannot guarantee document
                    // order, so refuse and let the entry recompute
                    return Err(format!("no element at display path for {col}"));
                }
                rewritten = rewrite_value(&rewritten, &dc.path, &Some(shown))?;
            }
        }
        *item = Item::Node(rewritten);
        patched += 1;
    }
    Ok(patched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aldsp_xdm::node::Node;
    use aldsp_xdm::value::AtomicValue as V;
    use aldsp_xdm::xml::serialize_sequence;

    fn profile(cid: &str, last: &str) -> Item {
        Item::Node(Node::element(
            QName::local("PROFILE"),
            vec![],
            vec![
                Node::simple_element(QName::local("CID"), V::str(cid)),
                Node::simple_element(QName::local("LAST_NAME"), V::str(last)),
            ],
        ))
    }

    fn deps() -> Arc<Dependencies> {
        Arc::new(Dependencies {
            tables: vec![TableDep {
                connection: "db1".into(),
                table: "CUSTOMER".into(),
                opaque: false,
                referenced: vec!["CID".into(), "LAST_NAME".into()],
                restricting: vec![],
                displayed: vec![
                    DisplayedColumn {
                        column: "CID".into(),
                        path: vec![(QName::local("CID"), 0)],
                        forward: None,
                    },
                    DisplayedColumn {
                        column: "LAST_NAME".into(),
                        path: vec![(QName::local("LAST_NAME"), 0)],
                        forward: None,
                    },
                ],
                key: vec![("CID".into(), vec![(QName::local("CID"), 0)])],
            }],
            patchable_shape: true,
        })
    }

    fn no_forward(f: &QName, _: &AtomicValue) -> Result<AtomicValue, String> {
        Err(format!("unexpected transform {f}"))
    }

    fn delta(cid: &str, col: &str, v: &str) -> SourceDelta {
        SourceDelta {
            connection: "db1".into(),
            table: "CUSTOMER".into(),
            columns: vec![(col.into(), Some(V::str(v)))],
            key: vec![("CID".into(), V::str(cid))],
        }
    }

    fn filled_registry() -> (MatViewRegistry, QName) {
        let reg = MatViewRegistry::new();
        let f = QName::local("getProfile");
        reg.materialize(f.clone(), MatViewPolicy::PatchOrInvalidate);
        let t = reg.fill_ticket(&f, "k").unwrap();
        assert!(reg.complete_fill(
            t,
            vec![profile("1", "Jones"), profile("2", "Smith")],
            deps()
        ));
        (reg, f)
    }

    #[test]
    fn displayed_write_patches_in_place() {
        let (reg, f) = filled_registry();
        let out = reg.apply_deltas(&[delta("2", "LAST_NAME", "Chan")], &no_forward);
        assert_eq!(
            out,
            MaintenanceOutcome {
                patched: 1,
                invalidated: 0
            }
        );
        let items = reg.get(&f, "k").expect("entry stays live");
        assert!(serialize_sequence(&items).contains("<LAST_NAME>Chan</LAST_NAME>"));
        assert!(serialize_sequence(&items).contains("<LAST_NAME>Jones</LAST_NAME>"));
    }

    #[test]
    fn unreferenced_column_write_skips() {
        let (reg, f) = filled_registry();
        let out = reg.apply_deltas(&[delta("1", "SSN", "000")], &no_forward);
        assert_eq!(out, MaintenanceOutcome::default());
        assert!(reg.get(&f, "k").is_some());
    }

    #[test]
    fn restricting_column_write_invalidates() {
        let (reg, f) = filled_registry();
        let mut d = deps().as_ref().clone();
        d.tables[0].restricting = vec!["LAST_NAME".into()];
        // re-register with restricting lineage
        reg.materialize(f.clone(), MatViewPolicy::PatchOrInvalidate);
        let t = reg.fill_ticket(&f, "k").unwrap();
        assert!(reg.complete_fill(t, vec![profile("1", "Jones")], Arc::new(d)));
        let out = reg.apply_deltas(&[delta("1", "LAST_NAME", "Chan")], &no_forward);
        assert_eq!(
            out,
            MaintenanceOutcome {
                patched: 0,
                invalidated: 1
            }
        );
        assert!(reg.get(&f, "k").is_none());
    }

    #[test]
    fn invalidate_only_policy_never_patches() {
        let reg = MatViewRegistry::new();
        let f = QName::local("getProfile");
        reg.materialize(f.clone(), MatViewPolicy::InvalidateOnly);
        let t = reg.fill_ticket(&f, "k").unwrap();
        assert!(reg.complete_fill(t, vec![profile("1", "Jones")], deps()));
        let out = reg.apply_deltas(&[delta("1", "LAST_NAME", "Chan")], &no_forward);
        assert_eq!(
            out,
            MaintenanceOutcome {
                patched: 0,
                invalidated: 1
            }
        );
    }

    #[test]
    fn racing_fill_is_discarded_after_affecting_write() {
        let (reg, f) = filled_registry();
        // a second slot starts filling …
        let ticket = reg.fill_ticket(&f, "other").unwrap();
        // … a write lands while it computes …
        reg.apply_deltas(&[delta("1", "LAST_NAME", "Chan")], &no_forward);
        // … so its (stale) answer must be refused
        assert!(!reg.complete_fill(ticket, vec![profile("1", "Jones")], deps()));
        assert!(reg.get(&f, "other").is_none());
    }

    #[test]
    fn unaffecting_write_keeps_fill_ticket_valid() {
        let (reg, f) = filled_registry();
        let ticket = reg.fill_ticket(&f, "other").unwrap();
        reg.apply_deltas(&[delta("1", "SSN", "000")], &no_forward);
        assert!(reg.complete_fill(ticket, vec![profile("1", "Jones")], deps()));
        assert!(reg.get(&f, "other").is_some());
    }

    #[test]
    fn coarse_invalidation_by_table() {
        let (reg, f) = filled_registry();
        assert_eq!(reg.invalidate_tables(&[("db9".into(), "OTHER".into())]), 0);
        assert!(reg.get(&f, "k").is_some());
        assert_eq!(
            reg.invalidate_tables(&[("db1".into(), "CUSTOMER".into())]),
            1
        );
        assert!(reg.get(&f, "k").is_none());
    }
}
