//! The compilation pipeline (§3.3) and the view sub-optimizer (§4.2).
//!
//! Query processing in ALDSP runs parsing → expression-tree construction
//! → normalization → type checking → optimization → code generation.
//! Because data services are layered views, ALDSP factors view
//! optimization in two stages: a *query-independent* partial optimization
//! of each data-service function, cached and reused, followed by
//! query-specific optimization (inlining, predicate motion, SQL
//! pushdown) per query. [`Compiler`] owns that cache; `deploy_module`
//! runs the partial stage, `compile_query`/`compile_call` run the
//! per-query stage.

use crate::context::{Context, InverseRegistry, Mode, UserFunction, LIFTED_PREFIX};
use crate::frames::FrameLayout;
use crate::ir::{CExpr, CKind};
use crate::translate::{
    resolve_seq_type, translate_functions, translate_module, translate_query_with_vars, ModuleEnv,
};
use crate::{frames, rules, sqlgen, typecheck};
use aldsp_metadata::Registry;
use aldsp_parser::ast::Module;
use aldsp_parser::{parse_module, parse_module_strict, Diagnostic};
use aldsp_relational::Dialect;
use aldsp_xdm::types::SequenceType;
use aldsp_xdm::QName;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// How much of a plan the SQL-pushdown pass (§4.3–4.4) may hand to the
/// relational sources. The levels exist for the differential
/// correctness harness: every level must return byte-identical results,
/// because pushdown is an *optimization*, never a semantic change —
/// "semantic transparency" is the paper's core claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PushdownLevel {
    /// No SQL generation at all: every table function stays a naive
    /// full-table scan and all joins, predicates, grouping, ordering
    /// and pagination evaluate in the middleware. This is the oracle's
    /// reference path.
    Off,
    /// Join trees, predicates and projections push (Table 1(b)–(d)),
    /// but trailing group-by, order-by and pagination stay in the
    /// middleware.
    Joins,
    /// Everything pushes (the production default).
    #[default]
    Full,
}

impl std::fmt::Display for PushdownLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PushdownLevel::Off => "off",
            PushdownLevel::Joins => "joins",
            PushdownLevel::Full => "full",
        })
    }
}

/// A deliberately wrong rewrite, compiled in only so the differential
/// harness can prove it would catch a real optimizer bug (the mutation
/// smoke test). Never set in a production configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// While forming a SQL region, consume a pushable `where` conjunct
    /// without attaching it to the generated SQL — the pushed plan
    /// silently returns extra rows.
    DropPushedPredicate,
    /// Panic when the pushdown pass reaches a FLWOR — a planted crash,
    /// so the wire tests can prove that a panicking compile costs its
    /// request, not the session or the server.
    PanicInPushdown,
    /// Regroup a nullable column, not a never-NULL one, for a group
    /// partition that is only counted — tuples whose value is NULL drop
    /// out of `fn:count`.
    RegroupNullableColumn,
}

/// Compiler configuration.
#[derive(Debug, Clone)]
pub struct Options {
    /// Error-handling mode (§4.1).
    pub mode: Mode,
    /// How aggressively to push work into SQL (differential-testing
    /// knob; the default pushes everything).
    pub pushdown: PushdownLevel,
    /// A deliberately planted rewrite bug, for validating correctness
    /// harnesses. `None` in every real configuration.
    pub mutation: Option<Mutation>,
    /// Per-connection SQL dialects (§4.3).
    pub dialects: HashMap<String, Dialect>,
    /// PP-k block size (§4.2: "by default, ALDSP uses a medium-sized k
    /// value (20) that has been empirically shown to work well").
    pub ppk_block_size: usize,
    /// The local join method PP-k uses within a block (§5.2).
    pub ppk_local_method: crate::ir::LocalJoinMethod,
    /// How many PP-k blocks may be fetched ahead of the consumer
    /// (0 = fully synchronous, fetch each block on demand). With depth
    /// d, the runtime keeps up to d parameterized block fetches in
    /// flight on background threads while the local join consumes the
    /// current block, overlapping source latency with local work.
    pub ppk_prefetch_depth: usize,
    /// Lower scalar expression subtrees to bytecode programs for the
    /// runtime's expression VM (differential-testing knob; on in every
    /// real configuration).
    pub vm: bool,
    /// Middleware join-method selection for the join-planning pass:
    /// cost-based by default, with forced levels for the differential
    /// harness (every level returns byte-identical results).
    pub join_strategy: crate::joins::JoinStrategy,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            mode: Mode::FailFast,
            pushdown: PushdownLevel::default(),
            mutation: None,
            dialects: HashMap::new(),
            ppk_block_size: 20,
            ppk_local_method: crate::ir::LocalJoinMethod::IndexNestedLoop,
            ppk_prefetch_depth: 1,
            vm: true,
            join_strategy: crate::joins::JoinStrategy::default(),
        }
    }
}

/// A compiled, executable query plan.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// The optimized expression tree — the plan the runtime interprets.
    pub plan: CExpr,
    /// External variable names the plan expects bound at execution.
    pub external_vars: Vec<String>,
    /// Slot assignment for the plan's bindings (externals occupy slots
    /// `0..external_vars.len()` in declaration order). Shared so each
    /// execution context references it without copying the map.
    pub frame: Arc<FrameLayout>,
    /// The pushdown level the plan was compiled under — recorded so
    /// EXPLAIN (and the differential oracle) can confirm which path a
    /// result actually came from.
    pub pushdown: PushdownLevel,
    /// Diagnostics gathered during compilation (empty in fail-fast mode).
    pub diagnostics: Vec<Diagnostic>,
    /// Bytecode programs for the plan's scalar subtrees, keyed by root
    /// `node_id` (empty when compiled with `vm: false`). Shared so each
    /// execution references the compiled code without copying it.
    pub programs: Arc<crate::program::ProgramSet>,
    /// Middleware join decisions (hash-join bulk fetches with
    /// build-side choice), keyed by `(flwor node_id, clause index)`.
    /// Shared so each execution references the plan without copying the
    /// decorrelated bulk statements.
    pub joins: Arc<crate::joins::JoinPlan>,
}

/// What compiling a parsed module produced
/// ([`Compiler::compile_module`]).
// returned once per compile and taken apart at once: boxing the plan
// would only add an allocation
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Compiled {
    /// An executable plan.
    Plan(CompiledQuery),
    /// The value of a lifted literal would decide the plan — two
    /// filters that prune or collapse depending on whether their
    /// constants are equal, a `fn:subsequence` bound reached through a
    /// function argument — so no one plan serves every text of this
    /// shape. The caller compiles such texts with their literals in
    /// place.
    ValueDependent,
}

impl Compiled {
    /// The plan of a module that holds no lifted literal.
    fn literal(self) -> Result<CompiledQuery, Vec<Diagnostic>> {
        match self {
            Compiled::Plan(p) => Ok(p),
            Compiled::ValueDependent => Err(vec![Diagnostic {
                span: Default::default(),
                message: "plan reported value-dependent without a lifted literal".into(),
            }]),
        }
    }
}

/// Cache/statistics counters for the view sub-optimizer.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompilerStats {
    /// Functions partially optimized (view-cache misses).
    pub partial_optimizations: u64,
    /// View-cache hits during inlining.
    pub view_cache_hits: u64,
    /// Queries compiled.
    pub queries_compiled: u64,
    /// Compiles of a lifted module abandoned as
    /// [`Compiled::ValueDependent`] (not counted in `queries_compiled`:
    /// no plan came of them).
    pub value_dependent: u64,
}

/// The ALDSP query compiler.
pub struct Compiler {
    registry: Arc<Registry>,
    options: Options,
    inverses: InverseRegistry,
    views: Mutex<HashMap<QName, UserFunction>>,
    stats: Mutex<CompilerStats>,
}

impl Compiler {
    /// Create a compiler over the given metadata.
    pub fn new(registry: Arc<Registry>, options: Options) -> Compiler {
        Compiler {
            registry,
            options,
            inverses: InverseRegistry::default(),
            views: Mutex::new(HashMap::new()),
            stats: Mutex::new(CompilerStats::default()),
        }
    }

    /// Register `inverse` as the inverse of `f` and enable the §4.4
    /// rewrite rules for it.
    pub fn declare_inverse(&mut self, f: QName, inverse: QName) {
        self.inverses.declare(f, inverse);
    }

    /// Snapshot the compiler statistics.
    pub fn stats(&self) -> CompilerStats {
        *self.stats.lock()
    }

    fn new_context(&self) -> Context<'_> {
        let mut ctx = Context::new(&self.registry, &self.options);
        ctx.inverses = self.inverses.clone();
        // seed with deployed (partially optimized) functions
        for (name, f) in self.views.lock().iter() {
            ctx.functions.insert(name.clone(), f.clone());
        }
        ctx
    }

    /// Deploy a data-service module: parse, translate, type-check and
    /// *partially optimize* each function (the query-independent stage of
    /// §4.2), caching the results for reuse by later queries. Returns the
    /// deployed function names.
    pub fn deploy_module(&self, src: &str) -> Result<Vec<QName>, Vec<Diagnostic>> {
        let (module, mut diags) = self.parse(src)?;
        let mut ctx = self.new_context();
        let _body = translate_module(&mut ctx, &module);
        diags.append(&mut ctx.diags);
        // partial optimization of each newly declared function body
        let mut deployed = Vec::new();
        let names: Vec<QName> = module
            .functions
            .iter()
            .filter_map(|f| {
                aldsp_parser::ast::Name::parse(&f.name.to_string()).resolve(
                    &|p| {
                        module
                            .namespaces
                            .iter()
                            .find(|(pp, _)| pp == p)
                            .map(|(_, u)| u.clone())
                            .or_else(|| {
                                module
                                    .schema_imports
                                    .iter()
                                    .find(|si| si.prefix.as_deref() == Some(p))
                                    .map(|si| si.uri.clone())
                            })
                    },
                    None,
                )
            })
            .collect();
        for name in names {
            let Some(mut f) = ctx.functions.get(&name).cloned() else {
                continue;
            };
            if let Some(body) = &mut f.body {
                let mut tenv: typecheck::TypeEnv = f.params.iter().cloned().collect();
                typecheck::typecheck(&mut ctx, body, &mut tenv);
                // the partially-optimized-view cache (§4.2)
                rules::optimize(&mut ctx, body);
                self.stats.lock().partial_optimizations += 1;
            }
            deployed.push(name.clone());
            self.views.lock().insert(name, f);
        }
        diags.extend(ctx.diags);
        if self.options.mode == Mode::FailFast && !diags.is_empty() {
            return Err(diags);
        }
        Ok(deployed)
    }

    /// Parse a module text under this compiler's error-handling mode:
    /// fail-fast stops at the first syntax error, recover mode returns
    /// the partial module with every diagnostic (§4.1).
    pub fn parse(&self, src: &str) -> Result<(Module, Vec<Diagnostic>), Vec<Diagnostic>> {
        match self.options.mode {
            Mode::FailFast => match parse_module_strict(src) {
                Ok(m) => Ok((m, Vec::new())),
                Err(d) => Err(vec![d]),
            },
            Mode::Recover => Ok(parse_module(src)),
        }
    }

    /// Compile an ad-hoc query. The source is a module whose main body is
    /// the query; its prolog may declare namespaces, import schemas, and
    /// declare external variables (which become the plan's
    /// `external_vars`). The plan is self-contained: every literal of
    /// the text is a constant in it.
    pub fn compile_query(&self, src: &str) -> Result<CompiledQuery, Vec<Diagnostic>> {
        let (module, diags) = self.parse(src)?;
        self.compile_module(&module, diags)?.literal()
    }

    /// Compile a parsed query module ([`Compiler::parse`]'s
    /// output, `diags` included). An external variable named with
    /// [`LIFTED_PREFIX`] stands for a literal the caller lifted out of
    /// the text: it is typed exactly as declared (the caller binds a
    /// value of that type at every execution), and when its *value*
    /// would decide the plan the result is [`Compiled::ValueDependent`]
    /// instead of a plan that differs from the literal text's.
    pub fn compile_module(
        &self,
        module: &Module,
        diags: Vec<Diagnostic>,
    ) -> Result<Compiled, Vec<Diagnostic>> {
        let mut ctx = self.new_context();
        let env = ModuleEnv::of(module);
        // local function declarations first, then the body with the
        // externals in scope
        translate_functions(&mut ctx, &env, module);
        let externals: Vec<(String, SequenceType)> = module
            .variables
            .iter()
            .map(|v| {
                let ty = match &v.ty {
                    Some(t) if v.name.starts_with(LIFTED_PREFIX) => {
                        resolve_seq_type(&mut ctx, &env, t, Default::default())
                    }
                    _ => SequenceType::any(),
                };
                (v.name.clone(), ty)
            })
            .collect();
        let Some(body) = &module.body else {
            let mut diags = diags;
            diags.push(Diagnostic {
                span: Default::default(),
                message: "query module has no main expression".into(),
            });
            return Err(diags);
        };
        let names: Vec<String> = externals.iter().map(|(n, _)| n.clone()).collect();
        let plan = translate_query_with_vars(&mut ctx, &env, body, &names);
        self.finish(ctx, plan, externals, diags)
    }

    /// Compile an invocation of a deployed data-service function: the
    /// plan calls `name` with external variables `arg0 … argN-1` (the
    /// method-call API of §2.2).
    pub fn compile_call(&self, name: &QName) -> Result<CompiledQuery, Vec<Diagnostic>> {
        let (arity, known) = {
            let views = self.views.lock();
            match views.get(name) {
                Some(f) => (f.params.len(), true),
                None => (
                    self.registry
                        .function(name)
                        .map(|p| p.params.len())
                        .unwrap_or(0),
                    self.registry.function(name).is_some(),
                ),
            }
        };
        if !known {
            return Err(vec![Diagnostic {
                span: Default::default(),
                message: format!("unknown data-service function {name}"),
            }]);
        }
        let ctx = self.new_context();
        let span = crate::ir::Span::default();
        let externals: Vec<(String, SequenceType)> = (0..arity)
            .map(|i| (format!("arg{i}"), SequenceType::any()))
            .collect();
        let args: Vec<CExpr> = (externals.iter())
            .map(|(v, _)| CExpr::var(v, span))
            .collect();
        let kind = if ctx.functions.contains_key(name) {
            self.stats.lock().view_cache_hits += 1;
            CKind::UserCall {
                name: name.clone(),
                args,
            }
        } else {
            CKind::PhysicalCall {
                name: name.clone(),
                args,
            }
        };
        self.finish(ctx, CExpr::new(kind, span), externals, Vec::new())?
            .literal()
    }

    /// The per-query stages, each an explicit pass run exactly once:
    /// type check → **normalize** (view unfolding + the local rewrite
    /// rules to fixpoint) → re-infer types → **predicate placement**
    /// (global duplicate elimination and contradiction pruning) →
    /// **SQL pushdown** → query-constant parameters recorded → frame
    /// layout → node ids → bytecode lowering → **join planning** over
    /// the final shape. Debug builds assert each rewriting pass is
    /// idempotent (re-running it is a no-op), which is what lets them
    /// run once instead of inside one shared fixpoint.
    ///
    /// `externals` are the plan's external variables with their static
    /// types, in slot order; `diags` what parsing already reported.
    fn finish(
        &self,
        mut ctx: Context<'_>,
        mut plan: CExpr,
        externals: Vec<(String, SequenceType)>,
        mut diags: Vec<Diagnostic>,
    ) -> Result<Compiled, Vec<Diagnostic>> {
        let fail_fast = self.options.mode == Mode::FailFast;
        let tenv: typecheck::TypeEnv = externals.iter().cloned().collect();
        let external_vars: Vec<String> = externals.into_iter().map(|(n, _)| n).collect();
        ctx.externals.clone_from(&external_vars);
        typecheck::typecheck(&mut ctx, &mut plan, &mut tenv.clone());
        if fail_fast && ctx.has_errors() {
            return Err(ctx.diags);
        }
        run_pass(&mut ctx, &mut plan, "normalize", rules::optimize);
        // re-infer types after rewriting (rewrites preserve or refine)
        typecheck::typecheck(&mut ctx, &mut plan, &mut tenv.clone());
        run_pass(
            &mut ctx,
            &mut plan,
            "place-predicates",
            rules::place_predicates,
        );
        run_pass(&mut ctx, &mut plan, "pushdown", sqlgen::push_down);
        if ctx.value_dependent {
            self.stats.lock().value_dependent += 1;
            return Ok(Compiled::ValueDependent);
        }
        sqlgen::record_query_consts(&ctx, &mut plan);
        // slots are derived from the final plan: every rewrite above is
        // name-based and slot-agnostic
        let frame = frames::layout(&mut plan, &external_vars);
        let node_count = plan.assign_node_ids();
        let programs = if ctx.options.vm {
            crate::program::lower_plan(&plan, node_count)
        } else {
            crate::program::ProgramSet::default()
        };
        // join planning is a property of the final plan shape and needs
        // the node ids assigned just above
        let joins = crate::joins::analyze(&ctx, &plan);
        diags.append(&mut ctx.diags);
        if fail_fast && !diags.is_empty() {
            return Err(diags);
        }
        self.stats.lock().queries_compiled += 1;
        Ok(Compiled::Plan(CompiledQuery {
            plan,
            external_vars,
            frame: Arc::new(frame),
            pushdown: self.options.pushdown,
            diagnostics: diags,
            programs: Arc::new(programs),
            joins: Arc::new(joins),
        }))
    }

    /// A compiler over the same metadata, inverses, and deployed views
    /// as this one, but with different [`Options`] — the per-request
    /// override path for compile-affecting knobs (pushdown level, PP-k
    /// prefetch depth, join strategy).
    pub fn with_options(&self, options: Options) -> Compiler {
        Compiler {
            registry: Arc::clone(&self.registry),
            options,
            inverses: self.inverses.clone(),
            views: Mutex::new(self.views.lock().clone()),
            stats: Mutex::new(CompilerStats::default()),
        }
    }

    /// The options this compiler was built with.
    pub fn options(&self) -> &Options {
        &self.options
    }
}

/// Run one optimizer pass. Debug builds re-run the pass on a copy of
/// its own output and assert nothing changes: every staged pass must be
/// idempotent, which is the property that lets the pipeline run each
/// one exactly once instead of looping a shared fixpoint (the structure
/// whose ordering sensitivity caused the `hoist_wheres` hang). Plan
/// equality ignores `node_id`s, so the check is purely structural.
fn run_pass(
    ctx: &mut Context<'_>,
    plan: &mut CExpr,
    name: &str,
    pass: impl Fn(&mut Context<'_>, &mut CExpr),
) {
    pass(ctx, plan);
    if cfg!(debug_assertions) {
        let before = plan.clone();
        pass(ctx, plan);
        assert!(*plan == before, "optimizer pass '{name}' is not idempotent");
    }
}
