//! Plan-time parallel-eligibility analysis for morsel-driven execution.
//!
//! The runtime can split an uncorrelated table scan into fixed-size row
//! morsels and evaluate the *partitionable* clause prefix — per-tuple
//! `where` predicates, `let` bindings, grouping-key extraction, sort-key
//! extraction — on a shared worker pool, then merge deterministically so
//! the result is byte-identical to single-threaded execution. Whether a
//! FLWOR has such a prefix is a static property of the plan, so it is
//! decided here, once, at compile time: the runtime consults the
//! [`ParallelPlan`] by FLWOR `node_id` instead of re-deriving the shape
//! per execution, and EXPLAIN renders the decision as a `-- parallel:`
//! header so reviewers can see which operators may fan out.
//!
//! A FLWOR is marked eligible when its clause list starts with
//!
//! ```text
//! SqlFor(uncorrelated, no PP-k) (Where | Let)* (GroupBy(sorted) | OrderBy)?
//! ```
//!
//! The scan must be uncorrelated (no parameters, no PP-k spec): its
//! result set is then a function of nothing but the source, so the rows
//! can be partitioned freely. `Where`/`Let` are per-tuple maps — order
//! within a morsel is preserved and morsels are merged in input order.
//! A trailing *sorted* group-by or order-by is included in the region
//! because both are partitionable with a deterministic merge; a
//! *streaming* (pre-clustered) group-by is not — it is already
//! constant-memory and order-driven, so it consumes the merged stream
//! sequentially. Any remaining clauses run downstream of the merge,
//! unchanged.

use crate::ir::{CExpr, CKind, Clause};
use std::fmt;

/// How the parallel region ends, which decides the merge strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParTail {
    /// Pure per-tuple map (`where`/`let` only): morsel outputs are
    /// concatenated in input order.
    Map,
    /// A sorted group-by: each partition groups independently into a
    /// key-sorted group list; partitions merge pairwise by key, equal
    /// keys combining accumulators in partition (= input) order.
    Group,
    /// An order-by: each partition sorts independently; partitions merge
    /// pairwise with ties resolved toward the earlier partition, which
    /// reproduces a global stable sort.
    Sort,
}

impl fmt::Display for ParTail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ParTail::Map => "map",
            ParTail::Group => "group",
            ParTail::Sort => "sort",
        })
    }
}

/// One FLWOR's parallel region: how many leading clauses it covers
/// (scan + maps + tail) and how it ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelMark {
    /// Number of leading clauses inside the region, *including* the
    /// scan and the tail clause (when the tail is not [`ParTail::Map`]).
    /// Clauses at `clauses..` run sequentially downstream of the merge.
    pub clauses: usize,
    /// The merge strategy the region's last operator requires.
    pub tail: ParTail,
}

/// Parallel-eligibility marks for every FLWOR in a plan, keyed by the
/// FLWOR's `node_id` (assigned by [`CExpr::assign_node_ids`], so the
/// analysis must run after that pass).
#[derive(Debug, Default)]
pub struct ParallelPlan {
    /// `(flwor node_id, mark)`, sorted by node id (pre-order ids are
    /// visited in order, so the walk produces them sorted).
    marks: Vec<(u32, ParallelMark)>,
}

impl ParallelPlan {
    /// The mark for a FLWOR node, if it was found eligible.
    pub fn mark(&self, flwor_id: u32) -> Option<ParallelMark> {
        self.marks
            .binary_search_by_key(&flwor_id, |&(id, _)| id)
            .ok()
            .map(|i| self.marks[i].1)
    }

    /// No FLWOR in the plan is eligible.
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }

    /// All marks, in node-id order (for EXPLAIN).
    pub fn iter(&self) -> impl Iterator<Item = (u32, ParallelMark)> + '_ {
        self.marks.iter().copied()
    }
}

impl fmt::Display for ParallelPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.marks.is_empty() {
            return f.write_str("none");
        }
        for (i, (id, m)) in self.marks.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "#{id} morsels={} tail={}", m.clauses, m.tail)?;
        }
        Ok(())
    }
}

/// Analyze a plan (with node ids assigned) and mark every FLWOR whose
/// leading clauses form a partitionable region.
pub fn analyze(plan: &CExpr) -> ParallelPlan {
    let mut marks = Vec::new();
    plan.walk(&mut |e| {
        if let CKind::Flwor { clauses, .. } = &e.kind {
            if let Some(mark) = analyze_clauses(clauses) {
                marks.push((e.node_id, mark));
            }
        }
    });
    marks.sort_by_key(|&(id, _)| id);
    ParallelPlan { marks }
}

fn analyze_clauses(clauses: &[Clause]) -> Option<ParallelMark> {
    match clauses.first()? {
        Clause::SqlFor {
            query_const, ppk, ..
        } if !query_const.contains(&false) && ppk.is_none() => {}
        _ => return None,
    }
    let mut i = 1;
    while let Some(Clause::Where(_) | Clause::Let { .. }) = clauses.get(i) {
        i += 1;
    }
    let tail = match clauses.get(i) {
        Some(Clause::GroupBy {
            pre_clustered: false,
            ..
        }) => {
            i += 1;
            ParTail::Group
        }
        Some(Clause::OrderBy(_)) => {
            i += 1;
            ParTail::Sort
        }
        _ => ParTail::Map,
    };
    // a bare scan with nothing to evaluate per tuple gains nothing from
    // fan-out; require at least one partitionable operator after it
    if i < 2 {
        return None;
    }
    Some(ParallelMark { clauses: i, tail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::compile;

    #[test]
    fn grouped_scan_is_marked_with_group_tail() {
        let q = compile(
            r#"for $o in c:ORDER()
               let $oid := $o/OID
               group $oid as $ids by fn:substring($o/CID, 1, 2) as $k
               return <G>{ $k, fn:count($ids) }</G>"#,
        );
        let marks: Vec<_> = q.parallel.iter().collect();
        assert_eq!(marks.len(), 1, "plan: {:#?}", q.plan);
        let (_, mark) = marks[0];
        assert_eq!(mark.tail, ParTail::Group);
        assert!(mark.clauses >= 2, "{mark:?}");
    }

    #[test]
    fn correlated_scan_is_not_marked() {
        // the cross-source dependent join: the inner scan is
        // parameterized per outer tuple (PP-k), so neither FLWOR level
        // has a partitionable uncorrelated prefix beyond the bare scan
        let q = compile(
            r#"for $c in c:CUSTOMER()
               return <P>{ $c/CID, <CARDS>{
                 for $k in cc:CREDIT_CARD() where $k/CID eq $c/CID return $k/CCN
               }</CARDS> }</P>"#,
        );
        for (id, mark) in q.parallel.iter() {
            // any marked region must start at an uncorrelated scan;
            // the PP-k join itself must never be inside one
            assert_eq!(mark.tail, ParTail::Map, "#{id}: {mark:?}");
        }
    }

    #[test]
    fn streaming_group_stays_sequential() {
        // same-source nested for compiles to a pre-clustered group over
        // one pushed outer-join scan: the group consumes the merged
        // stream, it is not part of the region
        let q = compile(
            r#"for $c in c:CUSTOMER()
               return <CUST>{ $c/CID, <ORDERS>{
                 for $o in c:ORDER() where $c/CID eq $o/CID return $o/OID
               }</ORDERS> }</CUST>"#,
        );
        for (_, mark) in q.parallel.iter() {
            assert_ne!(mark.tail, ParTail::Group, "streaming group marked");
        }
    }

    #[test]
    fn display_renders_marks() {
        let q = compile(
            r#"for $o in c:ORDER()
               let $oid := $o/OID
               group $oid as $ids by fn:substring($o/CID, 1, 2) as $k
               return <G>{ $k }</G>"#,
        );
        let s = q.parallel.to_string();
        assert!(s.contains("tail=group"), "{s}");
        assert!(ParallelPlan::default().to_string() == "none");
    }
}
