//! Per-query operator traces.
//!
//! Where [`crate::stats::ExecStats`] is the runtime's cheap *global*
//! aggregate (shared by every concurrent query), a [`QueryTrace`] is a
//! per-execution record: each plan node — addressed by the compiler's
//! `node_id`, with FLWOR clauses addressed as `(node_id, clause index)`
//! exactly as EXPLAIN prints them — accumulates rows in, rows out, wall
//! time and source roundtrips for one query run.
//!
//! Tracing is opt-in per request. The untraced hot path pays a single
//! branch on an `Option`; the traced path keeps plain `u64` counters in
//! the pipeline's wrapper iterators and flushes them into the shared
//! [`TraceCollector`] only on drop, so there is no per-row locking.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// How much per-query instrumentation to collect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// No per-query trace (the default; hot path pays one branch).
    #[default]
    Off,
    /// Per-operator rows in/out, wall time and source roundtrips.
    Operators,
}

/// Addresses one traced operator: a plan node, or one clause of a FLWOR
/// node (`clause` = index in the clause list, matching the `#id.idx`
/// labels EXPLAIN prints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceKey {
    /// The plan node's `node_id`.
    pub node: u32,
    /// `Some(i)` for clause `i` of a FLWOR node, `None` for the node
    /// itself.
    pub clause: Option<u32>,
}

impl TraceKey {
    /// A whole plan node.
    pub fn node(node: u32) -> TraceKey {
        TraceKey { node, clause: None }
    }

    /// One clause of a FLWOR node.
    pub fn clause(node: u32, idx: usize) -> TraceKey {
        TraceKey {
            node,
            clause: Some(idx as u32),
        }
    }
}

impl std::fmt::Display for TraceKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.clause {
            Some(i) => write!(f, "#{}.{i}", self.node),
            None => write!(f, "#{}", self.node),
        }
    }
}

/// Accumulated counters for one operator in one execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeTrace {
    /// Tuples (or items) pulled from the operator's input.
    pub rows_in: u64,
    /// Tuples (or items) the operator produced.
    pub rows_out: u64,
    /// Wall time spent inside the operator, *inclusive* of its upstream
    /// (an operator's `next()` pulls through the operators below it).
    pub wall_ns: u64,
    /// Source roundtrips (SQL statements / adaptor calls) this operator
    /// issued.
    pub source_roundtrips: u64,
    /// Rows this operator buffered as a middleware join's build side
    /// (zero for everything but hash-join clauses).
    pub join_build_rows: u64,
}

impl NodeTrace {
    fn merge(&mut self, other: &NodeTrace) {
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.wall_ns += other.wall_ns;
        self.source_roundtrips += other.source_roundtrips;
        self.join_build_rows += other.join_build_rows;
    }
}

/// The finished per-execution trace.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    /// Per-operator counters, ordered by plan position.
    pub nodes: BTreeMap<TraceKey, NodeTrace>,
}

impl QueryTrace {
    /// The counters for one operator, if it ran.
    pub fn node(&self, key: TraceKey) -> Option<&NodeTrace> {
        self.nodes.get(&key)
    }

    /// Render the trace as one line per operator (debugging aid).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (key, t) in &self.nodes {
            let _ = writeln!(
                out,
                "{key} rows_in={} rows_out={} wall_us={} roundtrips={}",
                t.rows_in,
                t.rows_out,
                t.wall_ns / 1_000,
                t.source_roundtrips
            );
        }
        out
    }
}

/// Shared sink the pipeline's wrapper iterators flush into. One per
/// traced execution; concurrent operators (async parts, prefetch
/// threads) may flush from different threads, hence the mutex — but
/// only at operator granularity, never per row.
#[derive(Debug, Default)]
pub struct TraceCollector {
    nodes: Mutex<BTreeMap<TraceKey, NodeTrace>>,
}

impl TraceCollector {
    /// Merge one operator's accumulated counters.
    pub fn record(&self, key: TraceKey, delta: NodeTrace) {
        let mut nodes = self.nodes.lock().expect("trace collector poisoned");
        nodes.entry(key).or_default().merge(&delta);
    }

    /// Take the finished trace.
    pub fn finish(&self) -> QueryTrace {
        QueryTrace {
            nodes: std::mem::take(&mut *self.nodes.lock().expect("trace collector poisoned")),
        }
    }
}
