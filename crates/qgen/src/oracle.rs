//! The differential oracle: one query, many configurations, one
//! answer.
//!
//! A configuration cell is a full [`AldspServer`] built with a
//! particular optimizer/runtime setting ([`CellSpec`]); cell 0 is the
//! **reference**: SQL pushdown off (every operator runs in the
//! middleware interpreter), no prefetch, materialized, unbudgeted.
//! [`Oracle::check`] executes a query in every cell and demands the
//! serialized token stream be byte-identical to the reference — the
//! optimizer may change *how* an answer is computed, never *what* it
//! is (§4.3's contract for the pushdown framework).

use aldsp::security::Principal;
use aldsp::xdm::item::Item;
use aldsp::xdm::xml::serialize_sequence;
use aldsp::{
    AldspServer, ExecutionOptions, JoinStrategy, PushdownLevel, QueryRequest, ServerError,
};

/// One configuration cell of the differential matrix.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Short cell name used in mismatch reports (`"off"`, `"full+pp2"`).
    pub name: &'static str,
    /// SQL pushdown level for this cell's compiler.
    pub pushdown: PushdownLevel,
    /// PP-k prefetch depth (0 disables pipelined prefetch).
    pub prefetch_depth: usize,
    /// Deliver results through a streaming sink instead of
    /// materializing (the serialized bytes must not care).
    pub streaming: bool,
    /// Per-query memory budget in bytes (`None` = unbudgeted). Budgets
    /// in the matrix are sized to never trip — a budget that changes
    /// the answer is exactly the kind of bug the oracle exists to
    /// catch.
    pub memory_budget: Option<u64>,
    /// Run compiled expression subtrees on the bytecode VM (`true`) or
    /// force the pure tree-walker (`false`). The reference cell keeps
    /// the walker so every VM cell is checked against uncompiled
    /// evaluation.
    pub vm: bool,
    /// Worker threads for morsel-driven parallel execution (1 =
    /// sequential). Multi-worker cells run unbudgeted — a budget trip
    /// mid-fan-out may surface at a different tuple than sequential
    /// execution, and the oracle pins *successful* outputs.
    pub workers: usize,
    /// Middleware join-method selection for the join planner
    /// ([`JoinStrategy::Auto`] = cost-based; forced levels pin every
    /// strategy's output to the naive reference).
    pub join_strategy: JoinStrategy,
}

/// The default 14-cell matrix from the roadmap: pushdown {off, joins,
/// full} × representative prefetch/streaming/budget/VM settings, the
/// workers {1, 4} axis — multi-worker cells must be byte-identical
/// to the single-threaded reference, pinning the morsel merge's
/// determinism — and the forced join-strategy axis. The multi-worker cells keep pushdown at joins/full:
/// parallel regions anchor on a pushed SQL scan, so a pushdown-off
/// plan never fans out (its scans are plain source calls). Cell 0 is the naive reference: no pushdown *and* no
/// expression VM, so every other cell's bytecode programs are
/// differentially checked against pure tree-walking.
pub fn default_matrix() -> Vec<CellSpec> {
    let cell =
        |name, pushdown, prefetch_depth, streaming, memory_budget, vm, workers, join| CellSpec {
            name,
            pushdown,
            prefetch_depth,
            streaming,
            memory_budget,
            vm,
            workers,
            join_strategy: join,
        };
    let auto = JoinStrategy::Auto;
    vec![
        cell("off", PushdownLevel::Off, 0, false, None, false, 1, auto),
        cell("off+vm", PushdownLevel::Off, 0, false, None, true, 1, auto),
        cell(
            "off+stream",
            PushdownLevel::Off,
            0,
            true,
            None,
            true,
            1,
            auto,
        ),
        cell("joins", PushdownLevel::Joins, 0, false, None, true, 1, auto),
        cell(
            "joins+pp2",
            PushdownLevel::Joins,
            2,
            true,
            None,
            true,
            1,
            auto,
        ),
        cell("full", PushdownLevel::Full, 0, false, None, true, 1, auto),
        cell(
            "full+pp2",
            PushdownLevel::Full,
            2,
            false,
            None,
            true,
            1,
            auto,
        ),
        cell(
            "full+stream",
            PushdownLevel::Full,
            2,
            true,
            None,
            true,
            1,
            auto,
        ),
        cell(
            "full+budget",
            PushdownLevel::Full,
            0,
            false,
            Some(64 << 20),
            true,
            1,
            auto,
        ),
        cell(
            "full+mt4",
            PushdownLevel::Full,
            0,
            false,
            None,
            true,
            4,
            auto,
        ),
        cell(
            "joins+mt4",
            PushdownLevel::Joins,
            0,
            false,
            None,
            true,
            4,
            auto,
        ),
        // the join-strategy axis: every middleware join method must be
        // byte-identical to the naive nested-loop reference
        cell(
            "joins+hash",
            PushdownLevel::Joins,
            0,
            false,
            None,
            true,
            1,
            JoinStrategy::Hash,
        ),
        cell(
            "joins+nl",
            PushdownLevel::Joins,
            0,
            false,
            None,
            true,
            1,
            JoinStrategy::NestedLoop,
        ),
        cell(
            "full+hash",
            PushdownLevel::Full,
            2,
            false,
            None,
            true,
            1,
            JoinStrategy::Hash,
        ),
    ]
}

/// Why a differential check failed.
#[derive(Debug, Clone)]
pub enum Mismatch {
    /// A cell returned an error (the reference succeeded, or the
    /// reference itself failed — either way the seed is a finding).
    Error {
        /// Failing cell name.
        cell: &'static str,
        /// Rendered error.
        error: String,
    },
    /// A cell's serialized output differed from the reference.
    Diverged {
        /// Diverging cell name.
        cell: &'static str,
        /// Reference (cell 0) serialization.
        expected: String,
        /// This cell's serialization.
        actual: String,
    },
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mismatch::Error { cell, error } => write!(f, "cell '{cell}' errored: {error}"),
            Mismatch::Diverged {
                cell,
                expected,
                actual,
            } => write!(
                f,
                "cell '{cell}' diverged from reference\n  reference: {expected}\n  cell:      {actual}"
            ),
        }
    }
}

/// The oracle: the cell servers (built once, reused across seeds — the
/// fixture data is immutable) plus the principal queries run as.
pub struct Oracle {
    cells: Vec<(CellSpec, AldspServer)>,
    principal: Principal,
}

impl Oracle {
    /// Build every cell server with `build` (a closure over the shared
    /// fixture data; typically `world_tuned` with the spec's knobs).
    pub fn new(
        specs: Vec<CellSpec>,
        principal: Principal,
        mut build: impl FnMut(&CellSpec) -> AldspServer,
    ) -> Oracle {
        assert!(!specs.is_empty(), "oracle needs at least a reference cell");
        let cells = specs
            .into_iter()
            .map(|spec| {
                let server = build(&spec);
                (spec, server)
            })
            .collect();
        Oracle { cells, principal }
    }

    /// Cell specs, reference first.
    pub fn specs(&self) -> impl Iterator<Item = &CellSpec> {
        self.cells.iter().map(|(s, _)| s)
    }

    /// Execute `query` in cell `i` and serialize the result. Streaming
    /// cells collect their sink items and serialize once at the end,
    /// so atomic-separator whitespace matches the materialized path.
    pub fn run_cell(&self, i: usize, query: &str) -> Result<String, ServerError> {
        let (spec, server) = &self.cells[i];
        let mut req = QueryRequest::new(query).principal(self.principal.clone());
        if let Some(b) = spec.memory_budget {
            req = req.memory_budget(b);
        }
        if spec.workers != 1 || spec.join_strategy != JoinStrategy::Auto {
            // a tiny morsel size so the small fixture actually fans
            // out; compile knobs repeat the cell's own settings (the
            // override replaces the whole set)
            req = req.execution(
                ExecutionOptions::new()
                    .workers(spec.workers)
                    .morsel_size(2)
                    .pushdown(spec.pushdown)
                    .ppk_prefetch_depth(spec.prefetch_depth)
                    .join_strategy(spec.join_strategy),
            );
        }
        if spec.streaming {
            let mut collected: Vec<Item> = Vec::new();
            let mut sink = |item: Item| {
                collected.push(item);
                true
            };
            server.execute(req.stream_to(&mut sink))?;
            Ok(serialize_sequence(&collected))
        } else {
            let resp = server.execute(req)?;
            Ok(serialize_sequence(resp.items()))
        }
    }

    /// Run `query` in every cell; `Ok` returns the reference
    /// serialization, `Err` the first mismatch.
    pub fn check(&self, query: &str) -> Result<String, Mismatch> {
        let reference = self.run_cell(0, query).map_err(|e| Mismatch::Error {
            cell: self.cells[0].0.name,
            error: e.to_string(),
        })?;
        for i in 1..self.cells.len() {
            let name = self.cells[i].0.name;
            let out = self.run_cell(i, query).map_err(|e| Mismatch::Error {
                cell: name,
                error: e.to_string(),
            })?;
            if out != reference {
                return Err(Mismatch::Diverged {
                    cell: name,
                    expected: reference,
                    actual: out,
                });
            }
        }
        Ok(reference)
    }

    /// Materialized reference items (for fault-trial prefix checks).
    pub fn reference_items(&self, query: &str) -> Result<Vec<Item>, ServerError> {
        let (_, server) = &self.cells[0];
        let resp = server.execute(QueryRequest::new(query).principal(self.principal.clone()))?;
        Ok(resp.into_items())
    }
}
