//! Cost-based middleware join planning (the staged join-planning pass).
//!
//! The paper's mediator picks join methods *syntactically*: a correlated
//! `SqlFor` executes once per outer tuple (nested loop / index nested
//! loop on the source side), and PP-k batches only the dependent joins
//! that arise from nested FLWORs. This pass adds a *cost-based* choice
//! for the remaining flat shape — a correlated scan with a single
//! equality parameter, the plan form a cross-source
//! `for $a in src1(), $b in src2() where $a/K eq $b/K` lowers to —
//! using catalog statistics ([`aldsp_metadata::Registry::table_stats`])
//! and the per-source latency model: a **symmetric hash join** fetches
//! the inner side once with a *decorrelated* bulk statement (the
//! correlating conjunct stripped, the key column appended to the select
//! list), builds a hash table on the smaller side and probes with the
//! larger.
//!
//! The runtime emits exactly the rows the per-tuple nested loop would,
//! in the same order, so every strategy stays byte-identical — the
//! reorder decision is which side is *buffered* (`build_outer`), never
//! the output order. The analysis runs once, post-`assign_node_ids`,
//! and records its decisions in a [`JoinPlan`] side table keyed by
//! `(flwor node_id, clause index)`; EXPLAIN renders it as a `-- join:`
//! header and the runtime consults it instead of re-deriving shapes.

use crate::context::Context;
use crate::ir::{CExpr, CKind, Clause};
use aldsp_relational::{OutputColumn, ScalarExpr, Select, TableRef};
use aldsp_xdm::item::CompOp;
use std::fmt;

/// Middleware join-method selection (per-request knob; the default lets
/// the cost model decide). Forced levels exist for the differential
/// harness: every level must return byte-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Cost-based: hash-join a correlated scan when statistics say the
    /// bulk fetch beats per-tuple execution, otherwise leave the
    /// syntactic plan (per-tuple probe / PP-k) alone.
    #[default]
    Auto,
    /// Force per-tuple nested-loop execution (no bulk fetch at all; the
    /// parameterized statement is an index nested loop on the source
    /// side).
    NestedLoop,
    /// Force the symmetric hash join on every eligible correlated scan,
    /// regardless of statistics.
    Hash,
}

impl fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JoinStrategy::Auto => "auto",
            JoinStrategy::NestedLoop => "nested-loop",
            JoinStrategy::Hash => "hash",
        })
    }
}

/// One planned middleware hash join: how to fetch the inner side in
/// bulk and which side to buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinMark {
    /// The decorrelated bulk statement: the original select with the
    /// `key = ?` conjunct removed, the remaining (query-constant)
    /// parameters renumbered over the gap, and the key column appended
    /// to the select list (so the runtime can hash fetched rows without
    /// re-deriving the key).
    pub bulk: Box<Select>,
    /// Index (into the clause's `params`) of the one tuple-dependent
    /// parameter, the probe key; every other parameter is
    /// query-constant and binds, in order, to the bulk statement.
    pub key_param: usize,
    /// Row index of the appended key column (= the original output
    /// column count; the extra column is invisible to `binds`, which
    /// zip only the original columns).
    pub key_row_index: usize,
    /// Estimated rows on the build (buffered) side; 0 = unknown.
    pub build_rows: u64,
    /// Estimated rows on the probe side; 0 = unknown.
    pub probe_rows: u64,
    /// `true` when the *outer* side is the build side (the
    /// cardinality-driven reorder: buffer outer tuples, stream the bulk
    /// fetch past them). Output order is outer-major either way.
    pub build_outer: bool,
}

/// Join decisions for a plan, keyed by `(flwor node_id, clause index)`
/// of the correlated `SqlFor` each replaces. Built once per compile by
/// [`analyze`] (after `assign_node_ids`); empty when the plan has no
/// eligible joins or the strategy forces per-tuple execution.
#[derive(Debug, Default)]
pub struct JoinPlan {
    /// `((flwor node_id, clause idx), mark)`, sorted by key.
    marks: Vec<((u32, usize), JoinMark)>,
}

impl JoinPlan {
    /// The mark for a correlated scan clause, if one was planned.
    pub fn mark(&self, flwor_id: u32, clause_idx: usize) -> Option<&JoinMark> {
        self.marks
            .binary_search_by_key(&(flwor_id, clause_idx), |&((id, i), _)| (id, i))
            .ok()
            .map(|i| &self.marks[i].1)
    }

    /// No join in the plan was re-planned.
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }

    /// All marks in key order (for EXPLAIN).
    pub fn iter(&self) -> impl Iterator<Item = (u32, usize, &JoinMark)> {
        self.marks.iter().map(|((id, i), m)| (*id, *i, m))
    }
}

impl fmt::Display for JoinPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.marks.is_empty() {
            return f.write_str("none");
        }
        for (n, ((id, idx), m)) in self.marks.iter().enumerate() {
            if n > 0 {
                f.write_str("; ")?;
            }
            write!(
                f,
                "#{id}.{idx} strategy=hash est-build={} est-probe={} reordered={}",
                m.build_rows, m.probe_rows, m.build_outer
            )?;
        }
        Ok(())
    }
}

/// Middleware cost-model constants, in the same nanosecond-ish units as
/// the registered per-source latency. Absolute values matter less than
/// the ratio: a roundtrip costs ~three orders of magnitude more than
/// touching a row, which is what makes per-tuple statements lose to one
/// bulk fetch at scale.
const COST_ROUNDTRIP: u128 = 1_000;
/// Source-side cost to scan/filter one inner row per statement.
const COST_SCAN_ROW: u128 = 1;
/// Cost to ship one fetched row to the middleware.
const COST_SHIP_ROW: u128 = 1;
/// Middleware cost to insert one row into the build hash table.
const COST_BUILD_ROW: u128 = 2;
/// Middleware cost to probe the hash table once.
const COST_PROBE: u128 = 1;
/// Below this many rows on the smaller side, per-tuple execution is
/// left alone even when the formula narrowly favors hash: tiny inputs
/// gain nothing and the syntactic plan keeps its streaming behavior.
const AUTO_MIN_ROWS: u64 = 256;

/// Analyze a plan (node ids assigned) and decide a strategy for every
/// eligible correlated scan.
pub fn analyze(ctx: &Context<'_>, plan: &CExpr) -> JoinPlan {
    let strategy = ctx.options.join_strategy;
    if strategy == JoinStrategy::NestedLoop {
        // forces the existing per-tuple parameterized plan
        return JoinPlan::default();
    }
    let mut marks = Vec::new();
    plan.walk(&mut |e| {
        if let CKind::Flwor { clauses, .. } = &e.kind {
            analyze_flwor(ctx, strategy, e.node_id, clauses, &mut marks);
        }
    });
    marks.sort_by_key(|&((id, i), _)| (id, i));
    JoinPlan { marks }
}

/// A correlated scan that can be decorrelated into a bulk fetch.
struct Candidate {
    bulk: Select,
    key_param: usize,
    key_row_index: usize,
    key_column: String,
}

fn analyze_flwor(
    ctx: &Context<'_>,
    strategy: JoinStrategy,
    flwor_id: u32,
    clauses: &[Clause],
    marks: &mut Vec<((u32, usize), JoinMark)>,
) {
    // running cardinality estimate of the tuple stream reaching each
    // clause (None = unknown); joins in a chain plan greedily left-deep,
    // each step's output feeding the next step's probe estimate
    let mut outer_est: Option<u64> = None;
    for (idx, c) in clauses.iter().enumerate() {
        match c {
            Clause::SqlFor {
                connection,
                select,
                query_const,
                ppk,
                ..
            } => {
                if !query_const.contains(&false) && ppk.is_none() {
                    // uncorrelated scan: (re)seed the estimate
                    outer_est = scan_estimate(ctx, connection, select);
                    continue;
                }
                let cand = if idx > 0 {
                    eligible(select, query_const, ppk)
                } else {
                    None
                };
                let Some(cand) = cand else {
                    // PP-k or an unrecognized correlated shape: keep it
                    outer_est = None;
                    continue;
                };
                let inner_est = scan_estimate(ctx, connection, select);
                let both = outer_est.zip(inner_est);
                let build_outer = both.is_some_and(|(o, i)| o < i);
                let hash = match strategy {
                    JoinStrategy::Hash => true,
                    JoinStrategy::Auto => both.is_some_and(|(o, i)| {
                        o.min(i) >= AUTO_MIN_ROWS
                            && hash_cost(ctx, connection, o, i) < nl_cost(ctx, connection, o, i)
                    }),
                    JoinStrategy::NestedLoop => false,
                };
                let joined = join_estimate(ctx, connection, select, &cand, outer_est, inner_est);
                if hash {
                    let (build_rows, probe_rows) = if build_outer {
                        (outer_est.unwrap_or(0), inner_est.unwrap_or(0))
                    } else {
                        (inner_est.unwrap_or(0), outer_est.unwrap_or(0))
                    };
                    marks.push((
                        (flwor_id, idx),
                        JoinMark {
                            bulk: Box::new(cand.bulk),
                            key_param: cand.key_param,
                            key_row_index: cand.key_row_index,
                            build_rows,
                            probe_rows,
                            build_outer,
                        },
                    ));
                }
                outer_est = joined;
            }
            // per-tuple maps and filters keep the estimate (an upper
            // bound: filters only shrink the stream)
            Clause::Where(_) | Clause::Let { .. } => {}
            // anything else (middleware For over an arbitrary source,
            // grouping, ordering) leaves the downstream cardinality
            // unknown
            _ => outer_est = None,
        }
    }
}

/// Is this correlated scan decorrelatable? Requires a plain select with
/// exactly one tuple-dependent parameter, used nowhere but in one
/// top-level `col = ?` conjunct. Returns the bulk statement — that
/// conjunct stripped, the key column appended, the query-constant
/// parameters kept and renumbered over the gap — when so.
fn eligible(
    select: &Select,
    query_const: &[bool],
    ppk: &Option<crate::ir::PpkSpec>,
) -> Option<Candidate> {
    let mut correlated = (0..query_const.len()).filter(|&i| !query_const[i]);
    let (Some(key_param), None, None) = (correlated.next(), correlated.next(), ppk) else {
        return None;
    };
    if select.distinct
        || select.is_aggregate()
        || !select.group_by.is_empty()
        || select.having.is_some()
        || !select.order_by.is_empty()
        || select.offset.is_some()
        || select.fetch.is_some()
    {
        return None;
    }
    let mut conjs = Vec::new();
    split_conjuncts(select.where_.as_ref()?, &mut conjs);
    let (key_at, key) = (conjs.iter().enumerate())
        .find_map(|(at, c)| Some((at, key_equality(c, key_param)?.clone())))?;
    conjs.remove(key_at);
    let ScalarExpr::Column { column, .. } = &key else {
        return None;
    };
    let key_column = column.clone();
    let mut bulk = select.clone();
    bulk.where_ = conjs.into_iter().reduce(ScalarExpr::and);
    // the key parameter may appear nowhere else — not in another
    // conjunct (even a second `col = ?`), the select list or a subquery
    let mut key_used = false;
    bulk.map_params(&mut |i| {
        key_used |= i == key_param;
        i - usize::from(i > key_param)
    });
    if key_used {
        return None;
    }
    let key_row_index = bulk.columns.len();
    bulk.columns.push(OutputColumn {
        expr: key,
        alias: "jk".to_string(),
    });
    Some(Candidate {
        bulk,
        key_param,
        key_row_index,
        key_column,
    })
}

fn split_conjuncts(e: &ScalarExpr, out: &mut Vec<ScalarExpr>) {
    if let ScalarExpr::And(a, b) = e {
        split_conjuncts(a, out);
        split_conjuncts(b, out);
    } else {
        out.push(e.clone());
    }
}

/// Match `col = ?key` (either side) and return the column.
fn key_equality(e: &ScalarExpr, key: usize) -> Option<&ScalarExpr> {
    let ScalarExpr::Compare {
        op: CompOp::Eq,
        lhs,
        rhs,
    } = e
    else {
        return None;
    };
    match (&**lhs, &**rhs) {
        (c @ ScalarExpr::Column { .. }, ScalarExpr::Param(p))
        | (ScalarExpr::Param(p), c @ ScalarExpr::Column { .. })
            if *p == key =>
        {
            Some(c)
        }
        _ => None,
    }
}

/// Estimated rows a scan of this select's base table returns (catalog
/// row count; predicates make it an upper bound). Unknown for derived /
/// joined FROM clauses or unregistered tables.
fn scan_estimate(ctx: &Context<'_>, connection: &str, select: &Select) -> Option<u64> {
    let TableRef::Table { name, .. } = &select.from else {
        return None;
    };
    ctx.registry
        .table_stats(connection, name)
        .map(|s| s.row_count)
}

/// Estimated output cardinality of the equi-join: `outer × inner ÷
/// distinct(inner key)` — the classic uniform-key estimate — falling
/// back to the larger input when the column has no distinct estimate.
fn join_estimate(
    ctx: &Context<'_>,
    connection: &str,
    select: &Select,
    cand: &Candidate,
    outer: Option<u64>,
    inner: Option<u64>,
) -> Option<u64> {
    let (o, i) = (outer?, inner?);
    let TableRef::Table { name, .. } = &select.from else {
        return Some(o.max(i));
    };
    let distinct = ctx
        .registry
        .table_stats(connection, name)
        .and_then(|s| s.column_distinct.get(&cand.key_column).copied())
        .unwrap_or(0);
    if distinct == 0 {
        return Some(o.max(i));
    }
    Some(((o as u128 * i as u128) / distinct as u128).min(u64::MAX as u128) as u64)
}

fn source_latency(ctx: &Context<'_>, connection: &str) -> u128 {
    ctx.registry.source_latency(connection).unwrap_or(0) as u128
}

/// Cost of the per-tuple plan: one parameterized roundtrip per outer
/// tuple, the source filtering the inner table each time.
fn nl_cost(ctx: &Context<'_>, connection: &str, outer: u64, inner: u64) -> u128 {
    let per_stmt = COST_ROUNDTRIP + source_latency(ctx, connection) + inner as u128 * COST_SCAN_ROW;
    outer as u128 * per_stmt
}

/// Cost of the hash plan: one bulk roundtrip shipping every inner row,
/// build each into the hash table, probe once per outer tuple.
fn hash_cost(ctx: &Context<'_>, connection: &str, outer: u64, inner: u64) -> u128 {
    COST_ROUNDTRIP
        + source_latency(ctx, connection)
        + inner as u128 * (COST_SHIP_ROW + COST_BUILD_ROW)
        + outer as u128 * COST_PROBE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{Compiler, Options};
    use crate::tests::{compile, fixture, PROLOG};
    use aldsp_metadata::TableStats;
    use aldsp_relational::Dialect;
    use std::sync::Arc;

    const FLAT_CROSS: &str = r#"for $c in c:CUSTOMER(), $k in cc:CREDIT_CARD()
               where $c/CID eq $k/CID
               return <R>{ $c/CID, $k/CCN }</R>"#;

    /// `(connection, table, row_count, [(column, distinct)])`.
    type StatRow<'a> = (&'a str, &'a str, u64, &'a [(&'a str, u64)]);

    fn compile_with(
        strategy: JoinStrategy,
        stats: &[StatRow<'_>],
        query: &str,
    ) -> crate::CompiledQuery {
        let mut reg = (*fixture()).clone();
        for (conn, table, rows, cols) in stats {
            let mut ts = TableStats {
                row_count: *rows,
                column_distinct: Default::default(),
            };
            for (col, d) in *cols {
                ts.column_distinct.insert(col.to_string(), *d);
            }
            reg.set_table_stats(conn, table, ts);
        }
        let mut opts = Options::default();
        opts.dialects.insert("db1".into(), Dialect::Oracle);
        opts.dialects.insert("db2".into(), Dialect::Db2);
        opts.join_strategy = strategy;
        Compiler::new(Arc::new(reg), opts)
            .compile_query(&format!("{PROLOG}\n{query}"))
            .unwrap_or_else(|d| panic!("compile failed: {d:?}"))
    }

    #[test]
    fn forced_hash_marks_flat_cross_source_join() {
        let q = compile_with(JoinStrategy::Hash, &[], FLAT_CROSS);
        let marks: Vec<_> = q.joins.iter().collect();
        assert_eq!(marks.len(), 1, "plan: {:#?}", q.plan);
        let (_, idx, m) = marks[0];
        assert!(idx >= 1, "correlated scan cannot lead the clause list");
        assert!(!m.build_outer, "no statistics, no reorder");
        // bulk select: correlation stripped, key column appended
        assert!(m.bulk.where_.is_none(), "{:?}", m.bulk.where_);
        assert_eq!(m.key_row_index, m.bulk.columns.len() - 1);
        assert_eq!(m.bulk.columns.last().unwrap().alias, "jk");
    }

    #[test]
    fn same_source_flat_join_is_one_region_and_unmarked() {
        // both tables on db1 merge into a single pushed join — there is
        // no correlated scan for the middleware to re-plan
        let q = compile_with(
            JoinStrategy::Hash,
            &[],
            r#"for $c in c:CUSTOMER(), $o in c:ORDER()
               where $c/CID eq $o/CID
               return <CO>{ $c/CID, $o/OID }</CO>"#,
        );
        assert!(q.joins.is_empty(), "{}", q.joins);
    }

    #[test]
    fn ppk_join_is_untouched() {
        // nested FLWOR → PP-k dependent join; join planning leaves it be
        let q = compile_with(
            JoinStrategy::Hash,
            &[],
            r#"for $c in c:CUSTOMER()
               return <P>{ $c/CID, <CARDS>{
                 for $k in cc:CREDIT_CARD() where $k/CID eq $c/CID return $k/CCN
               }</CARDS> }</P>"#,
        );
        assert!(q.joins.is_empty(), "{}", q.joins);
    }

    #[test]
    fn auto_engages_hash_only_with_large_statistics() {
        let big: &[StatRow<'_>] = &[
            ("db1", "CUSTOMER", 10_000, &[("CID", 10_000)]),
            ("db2", "CREDIT_CARD", 20_000, &[("CID", 10_000)]),
        ];
        let q = compile_with(JoinStrategy::Auto, big, FLAT_CROSS);
        let marks: Vec<_> = q.joins.iter().collect();
        assert_eq!(marks.len(), 1, "{}", q.joins);
        let (_, _, m) = marks[0];
        // outer (10k customers) is smaller than inner (20k cards):
        // the reorder buffers the outer side
        assert!(m.build_outer);
        assert_eq!(m.build_rows, 10_000);
        assert_eq!(m.probe_rows, 20_000);
    }

    #[test]
    fn auto_leaves_small_and_unknown_inputs_alone() {
        // no statistics at all
        let q = compile_with(JoinStrategy::Auto, &[], FLAT_CROSS);
        assert!(q.joins.is_empty(), "{}", q.joins);
        // known but tiny
        let tiny: &[StatRow<'_>] = &[
            ("db1", "CUSTOMER", 60, &[("CID", 60)]),
            ("db2", "CREDIT_CARD", 30, &[("CID", 25)]),
        ];
        let q = compile_with(JoinStrategy::Auto, tiny, FLAT_CROSS);
        assert!(q.joins.is_empty(), "{}", q.joins);
    }

    #[test]
    fn forced_nl_levels_never_mark() {
        let big: &[StatRow<'_>] = &[("db2", "CREDIT_CARD", 50_000, &[])];
        let q = compile_with(JoinStrategy::NestedLoop, big, FLAT_CROSS);
        assert!(q.joins.is_empty(), "{}", q.joins);
    }

    #[test]
    fn default_compile_has_empty_join_plan_and_display() {
        let q = compile(FLAT_CROSS);
        assert!(q.joins.is_empty());
        assert_eq!(q.joins.to_string(), "none");
        let q = compile_with(JoinStrategy::Hash, &[], FLAT_CROSS);
        let s = q.joins.to_string();
        assert!(s.contains("strategy=hash"), "{s}");
        assert!(s.contains("reordered=false"), "{s}");
    }
}
