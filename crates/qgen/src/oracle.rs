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
//!
//! The reference cell does not go through the plan cache: it compiles
//! the text with its literals in place ([`Compiler::compile_query`])
//! and runs that plan on the runtime, so a plan with lifted literals is
//! never its own reference. On top of the matrix, the **lifted** check
//! holds the `full` cell's server to *lifted ≡ literal*: what
//! `AldspServer::execute` answers (one cached plan per query shape, the
//! text's literals bound as parameters) must be byte-identical to what
//! the text's own literal plan answers on the same server, and the two
//! plans must push the same SQL, statement for statement, modulo
//! literal ↔ `?`. Cell servers live across seeds, so a shape compiled
//! for one seed's sample literals serves the next seed's.
//!
//! [`Compiler::compile_query`]: aldsp::compiler::Compiler::compile_query

use aldsp::compiler::{explain_plan, CompiledQuery, ExplainContext};
use aldsp::relational::modulo_literals;
use aldsp::security::Principal;
use aldsp::xdm::item::Item;
use aldsp::xdm::xml::serialize_sequence;
use aldsp::{
    AldspServer, ExecutionOptions, JoinStrategy, PushdownLevel, QueryRequest, ServerError,
};

/// The cell the lifted check runs on.
const LIFTED_CELL: &str = "full";

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
    /// Middleware join-method selection for the join planner
    /// ([`JoinStrategy::Auto`] = cost-based; forced levels pin every
    /// strategy's output to the naive reference).
    pub join_strategy: JoinStrategy,
}

/// The default 11-cell matrix from the roadmap: pushdown {off, joins,
/// full} × representative prefetch/streaming/budget settings, and the
/// forced join-strategy axis. Cell 0 is the naive reference: no
/// pushdown, no prefetch, no streaming.
pub fn default_matrix() -> Vec<CellSpec> {
    let cell = |name, pushdown, prefetch_depth, streaming, memory_budget, join| CellSpec {
        name,
        pushdown,
        prefetch_depth,
        streaming,
        memory_budget,
        join_strategy: join,
    };
    let auto = JoinStrategy::Auto;
    vec![
        cell("off", PushdownLevel::Off, 0, false, None, auto),
        cell("off+stream", PushdownLevel::Off, 0, true, None, auto),
        cell("joins", PushdownLevel::Joins, 0, false, None, auto),
        cell("joins+pp2", PushdownLevel::Joins, 2, true, None, auto),
        cell("full", PushdownLevel::Full, 0, false, None, auto),
        cell("full+pp2", PushdownLevel::Full, 2, false, None, auto),
        cell("full+stream", PushdownLevel::Full, 2, true, None, auto),
        cell(
            "full+budget",
            PushdownLevel::Full,
            0,
            false,
            Some(64 << 20),
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
            JoinStrategy::Hash,
        ),
        cell(
            "joins+nl",
            PushdownLevel::Joins,
            0,
            false,
            None,
            JoinStrategy::NestedLoop,
        ),
        cell(
            "full+hash",
            PushdownLevel::Full,
            2,
            false,
            None,
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
    /// The plan `execute` ran (literals lifted to parameters) pushes
    /// different SQL than the text's own literal plan.
    LiftedSql {
        /// The literal plan's statements, literals as `?`.
        literal: String,
        /// The executed plan's statements, literals as `?`.
        lifted: String,
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
            Mismatch::LiftedSql { literal, lifted } => write!(
                f,
                "lifted plan pushes different SQL than the literal plan\n--- literal ---\n{literal}--- lifted ---\n{lifted}"
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
        if i == 0 {
            let plan = literal_plan(server, query)?;
            return Ok(serialize_sequence(&self.literal_items(server, &plan)?));
        }
        let mut req = QueryRequest::new(query).principal(self.principal.clone());
        if let Some(b) = spec.memory_budget {
            req = req.memory_budget(b);
        }
        if spec.join_strategy != JoinStrategy::Auto {
            // compile knobs repeat the cell's own settings (the
            // override replaces the whole set)
            req = req.execution(
                ExecutionOptions::new()
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
        self.check_lifted(query, &reference)?;
        Ok(reference)
    }

    /// Run a literal plan on `server`'s runtime, security-filtered for
    /// the oracle's principal as `execute` would.
    fn literal_items(
        &self,
        server: &AldspServer,
        plan: &CompiledQuery,
    ) -> Result<Vec<Item>, ServerError> {
        let raw = server.runtime().execute(plan, &[])?;
        Ok((server.security()).filter_result(&self.principal, raw, server.audit()))
    }

    /// Lifted ≡ literal on the [`LIFTED_CELL`] server (skipped when the
    /// matrix has no such cell): same bytes, same SQL modulo `?`.
    fn check_lifted(&self, query: &str, reference: &str) -> Result<(), Mismatch> {
        let Some((_, server)) = self.cells.iter().find(|(s, _)| s.name == LIFTED_CELL) else {
            return Ok(());
        };
        let error = |e: ServerError| Mismatch::Error {
            cell: "lifted",
            error: e.to_string(),
        };
        let plan = literal_plan(server, query).map_err(error)?;
        let actual = serialize_sequence(&self.literal_items(server, &plan).map_err(error)?);
        if actual != reference {
            return Err(Mismatch::Diverged {
                cell: "lifted",
                expected: reference.to_string(),
                actual,
            });
        }
        let dialects = server.adaptors().connection_dialects();
        let literal = pushed_sql(&explain_plan(
            &plan.plan,
            &ExplainContext {
                dialects: &dialects,
                cache_enabled: &|_| false,
                governor: None,
                matview: None,
                pushdown: plan.pushdown,
                joins: None,
                shape: None,
            },
        ));
        let explained = server
            .execute(
                QueryRequest::new(query)
                    .principal(self.principal.clone())
                    .explain_only(),
            )
            .map_err(error)?;
        let lifted = pushed_sql(explained.plan_explain().unwrap_or_default());
        if lifted != literal {
            return Err(Mismatch::LiftedSql { literal, lifted });
        }
        Ok(())
    }
}

/// `query`'s literal plan: compiled past the plan cache, every literal
/// a constant.
fn literal_plan(server: &AldspServer, query: &str) -> Result<CompiledQuery, ServerError> {
    (server.compiler())
        .compile_query(query)
        .map_err(ServerError::Compile)
}

/// The `sql>` lines of an EXPLAIN, literals cut
/// ([`aldsp::relational::modulo_literals`]), each statement behind a
/// `--` line.
pub fn pushed_sql(explain: &str) -> String {
    let mut out = String::new();
    for line in explain.lines().map(str::trim_start) {
        if line.contains(" SqlScan ") {
            out.push_str("--\n");
        }
        if let Some(sql) = line.strip_prefix("sql> ") {
            out.push_str(&modulo_literals(sql));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::pushed_sql;

    #[test]
    fn pushed_sql_keeps_identifiers_and_cuts_literals() {
        let explain = "#1 FLWOR\n  #1.0 SqlScan connection=db1 dialect=Oracle params=1 binds=[$x]\n    \
            sql> SELECT t1.\"CID\" AS c1, t_out.rn\n    \
            sql> WHERE (t1.\"N 1\" = 'it''s 5') AND (t1.\"SINCE\" >= 1005) AND (t1.\"A\" < 20.50)\n    \
            #2 Var $?0 = 7\n";
        assert_eq!(
            pushed_sql(explain),
            "--\nSELECT t1.\"CID\" AS c1, t_out.rn\n\
             WHERE (t1.\"N 1\" = ?) AND (t1.\"SINCE\" >= ?) AND (t1.\"A\" < ?)\n"
        );
        // a parameter and the literal it stands for read the same
        assert_eq!(
            pushed_sql("sql> WHERE t1.\"CID\" = ?"),
            pushed_sql("sql> WHERE t1.\"CID\" = 'C0003'")
        );
    }
}
