//! Execution statistics.
//!
//! The observable counters behind the paper's performance claims: PP-k
//! block counts (roundtrips, §4.2), grouping memory behavior (§4.2/§5.2
//! — streaming vs sort), async offloads (§5.4), cache effectiveness
//! (§5.5) and failovers taken (§5.6). All counters are atomic; snapshot
//! with [`ExecStats::snapshot`].

use std::sync::atomic::{AtomicU64, Ordering};

/// Declares the counters once: generates [`ExecStats`] (atomics),
/// [`StatsSnapshot`] (plain values) and [`ExecStats::snapshot`], so
/// adding a counter is one line in the table below.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Atomic execution counters (lives inside the runtime).
        #[derive(Debug, Default)]
        pub struct ExecStats {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// Plain-value statistics snapshot.
        ///
        /// `#[non_exhaustive]`: counters are added in most PRs, and each
        /// addition must not be a breaking change for code that constructs or
        /// exhaustively matches snapshots. Read fields directly; construct only
        /// via [`ExecStats::snapshot`] or [`Default`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        #[non_exhaustive]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl ExecStats {
            /// A plain-value copy of the counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }
    };
}

counters! {
    /// Physical source invocations (table scans, nav calls, services…).
    source_calls,
    /// SQL statements executed (includes PP-k block fetches).
    sql_statements,
    /// PP-k blocks fetched.
    ppk_blocks,
    /// Tuples that flowed through PP-k operators.
    ppk_outer_tuples,
    /// PP-k blocks whose fetch ran on a helper thread (i.e. overlapped
    /// with local-join work rather than fetched on demand). A lone block
    /// the outer input ended inside has nothing to overlap and is
    /// fetched on the query's own thread, so it is not counted here.
    ppk_prefetched_blocks,
    /// Nanoseconds the PP-k consumer spent blocked waiting for an
    /// in-flight prefetched block to arrive.
    ppk_prefetch_wait_ns,
    /// Group operator invocations that ran in streaming (pre-clustered)
    /// mode.
    streaming_groups,
    /// Group operator invocations that had to sort first (§4.2's
    /// "worst case").
    sorted_groups,
    /// Peak number of tuples held by any single group/sort operator.
    peak_grouped_tuples,
    /// Expressions evaluated on async threads (§5.4).
    async_spawns,
    /// Timeouts that fired (§5.6).
    timeouts_fired,
    /// Failovers taken (§5.6).
    failovers_taken,
    /// Function-cache hits (§5.5).
    cache_hits,
    /// Function-cache misses.
    cache_misses,
    /// Nanoseconds queries spent waiting for an admission slot.
    admission_wait_ns,
    /// Queries shed by the admission controller (queue full).
    queries_shed,
    /// Deepest the admission wait queue has been.
    admission_queue_peak,
    /// Nanoseconds spent waiting on per-source concurrency gates
    /// (foreground roundtrips and PP-k prefetch threads alike).
    permit_wait_ns,
    /// Peak bytes of budgeted operator memory held by any single query.
    peak_memory_bytes,
    /// Bytecode ops executed by the expression VM (flushed from
    /// per-operator local counters, not bumped per op).
    vm_ops_executed,
    /// Subtree roots the program lowering declined, so the tree-walker
    /// evaluated them (a static plan property, recorded once per
    /// execution).
    vm_fallback_subtrees,
    /// Always zero: what it counted, the intra-query worker pool, is
    /// gone. Declared only because `crates/benchmark` still reads it
    /// (ROADMAP item 2 hands its removal to the next `[benchmark]` PR).
    morsels_executed,
    /// Reads served from a materialized data service's live cache.
    matview_hits,
    /// Materialized entries surgically invalidated by the write path
    /// (they recompute on next read — never on TTL expiry).
    matview_invalidations,
    /// Cached result instances patched in place by the write path.
    matview_patches,
    /// Materialized reads that recomputed (cold or post-invalidation).
    matview_recomputes,
    /// Middleware symmetric hash joins executed (one per hash-join
    /// operator run, not per probe).
    hash_joins,
    /// Rows buffered on the build side of middleware hash joins.
    join_build_rows,
    /// Hash joins the planner ran build-side-swapped (the estimated
    /// smaller input buffered instead of the inner).
    join_reorders,
}

impl ExecStats {
    /// Bump a counter.
    pub fn inc(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Raise a high-water mark.
    pub fn peak(&self, c: &AtomicU64, value: u64) {
        c.fetch_max(value, Ordering::Relaxed);
    }
}
