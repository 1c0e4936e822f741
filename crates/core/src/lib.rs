//! # aldsp — the AquaLogic Data Services Platform server
//!
//! The top of Figure 2: one facade over the query compiler (with its
//! plan cache), the runtime, the adaptor framework, data-service and
//! security metadata, and update processing. A downstream user builds a
//! server with [`ServerBuilder`] (registering relational connections,
//! web services, custom functions and files — each introspected into
//! physical data services, §2.1), deploys XQuery data-service modules,
//! and then:
//!
//! * executes requests built with [`QueryRequest`] — ad-hoc queries and
//!   data-service method calls, with per-request principals, bindings,
//!   operator tracing and EXPLAIN — through [`AldspServer::execute`],
//!   compiled once and reused via the **query plan cache** (§2.2),
//! * invokes data-service methods with optional client-side
//!   filtering/sorting criteria (the SDO mediator API's "degree of
//!   query flexibility", §2.2),
//! * reads change-tracked data objects and submits updates
//!   ([`AldspServer::submit`], §6),
//! * with function- and element-level security enforced around every
//!   result (§7), applied *after* caches so plans and cached results
//!   stay shared across users.

#![forbid(unsafe_code)]

pub use aldsp_adaptors as adaptors;
pub use aldsp_compiler as compiler;
pub use aldsp_matview as matview;
pub use aldsp_metadata as metadata;
pub use aldsp_parser as parser;
pub use aldsp_relational as relational;
pub use aldsp_runtime as runtime;
pub use aldsp_security as security;
pub use aldsp_updates as updates;
pub use aldsp_workload as workload;
pub use aldsp_xdm as xdm;

mod lift;

use aldsp_adaptors::{
    AdaptorRegistry, CsvFileSource, NativeFunction, SimulatedWebService, XmlFileSource,
};
use aldsp_compiler::{
    explain_plan, Compiled, CompiledQuery, Compiler, ExplainContext, Mode, Options, PlanShape,
    LIFTED_PREFIX,
};
pub use aldsp_compiler::{JoinStrategy, Mutation, PushdownLevel};
pub use aldsp_matview::MatViewPolicy;
use aldsp_matview::{Dependencies, MatViewRegistry};
use aldsp_metadata::{
    introspect_relational, introspect_web_service, FunctionKind, ParamDecl, PhysicalFunction,
    Registry, SourceBinding, WebServiceDescription,
};
use aldsp_parser::Diagnostic;
use aldsp_relational::{Catalog, RelationalServer};
use aldsp_runtime::{ExecRequest, Runtime};
pub use aldsp_runtime::{NodeTrace, QueryTrace, StatsSnapshot, TraceKey, TraceLevel};
use aldsp_security::{AccessDenied, AuditLog, Principal, SecurityPolicy};
use aldsp_updates::{
    analyze, ConcurrencyPolicy, DataObject, Lineage, SourceDelta, SubmitError, SubmitProcessor,
    SubmitReport,
};
use aldsp_workload::{Governor, GovernorConfig, QueryBudget};
pub use aldsp_workload::{GovernorSnapshot, Priority, WorkloadError};
use aldsp_xdm::item::{Item, Sequence};
use aldsp_xdm::types::SequenceType;
use aldsp_xdm::value::AtomicValue;
use aldsp_xdm::QName;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Server-level errors.
#[derive(Debug)]
pub enum ServerError {
    /// Compilation failed.
    Compile(Vec<Diagnostic>),
    /// Execution failed.
    Execute(aldsp_runtime::RtError),
    /// The caller is not allowed.
    Security(AccessDenied),
    /// A submit failed.
    Submit(SubmitError),
    /// Writing serialized results to a caller-supplied writer failed.
    Io(std::io::Error),
    /// The workload governor refused or aborted the query: shed at
    /// admission ([`WorkloadError::Overloaded`]), deadline hit
    /// mid-execution ([`WorkloadError::DeadlineExceeded`]), or memory
    /// cap hit by a blocking operator
    /// ([`WorkloadError::BudgetExceeded`]).
    Workload(WorkloadError),
    /// Anything else.
    Other(String),
}

impl ServerError {
    /// Was this query shed by admission control (queue full)?
    pub fn is_overloaded(&self) -> bool {
        matches!(
            self,
            ServerError::Workload(WorkloadError::Overloaded { .. })
        )
    }

    /// Did this query run out of deadline?
    pub fn is_deadline_exceeded(&self) -> bool {
        matches!(
            self,
            ServerError::Workload(WorkloadError::DeadlineExceeded { .. })
        )
    }

    /// Did a blocking operator exceed the query's memory budget?
    pub fn is_budget_exceeded(&self) -> bool {
        matches!(
            self,
            ServerError::Workload(WorkloadError::BudgetExceeded { .. })
        )
    }
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Compile(ds) => {
                write!(f, "compilation failed:")?;
                for d in ds {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            ServerError::Execute(e) => write!(f, "{e}"),
            ServerError::Security(e) => write!(f, "{e}"),
            ServerError::Submit(e) => write!(f, "{e}"),
            ServerError::Io(e) => write!(f, "write failed: {e}"),
            ServerError::Workload(e) => write!(f, "{e}"),
            ServerError::Other(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Execute(e) => Some(e),
            ServerError::Security(e) => Some(e),
            ServerError::Submit(e) => Some(e),
            ServerError::Io(e) => Some(e),
            ServerError::Workload(e) => Some(e),
            ServerError::Compile(_) | ServerError::Other(_) => None,
        }
    }
}

impl From<AccessDenied> for ServerError {
    fn from(e: AccessDenied) -> Self {
        ServerError::Security(e)
    }
}

impl From<aldsp_runtime::RtError> for ServerError {
    fn from(e: aldsp_runtime::RtError) -> Self {
        ServerError::Execute(e)
    }
}

impl From<SubmitError> for ServerError {
    fn from(e: SubmitError) -> Self {
        ServerError::Submit(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<WorkloadError> for ServerError {
    fn from(e: WorkloadError) -> Self {
        ServerError::Workload(e)
    }
}

/// Runtime errors surface as [`ServerError::Execute`] except the
/// workload family, which keeps its typed identity so callers can
/// branch on shed/deadline/budget without string matching.
fn map_rt_error(e: aldsp_runtime::RtError) -> ServerError {
    match e {
        aldsp_runtime::RtError::Workload(w) => ServerError::Workload(w),
        other => ServerError::Execute(other),
    }
}

/// The typed execution-tuning surface: every knob that shapes *how* a
/// query executes (not what it returns — all settings are semantically
/// transparent and must produce byte-identical results). Set a server
/// default with [`ServerBuilder::execution`] and override per request
/// with [`QueryRequest::execution`].
///
/// ```ignore
/// let server = ServerBuilder::new()
///     .execution(ExecutionOptions::new().ppk_prefetch_depth(2))
///     .build();
/// ```
///
/// `#[non_exhaustive]`: knobs are added over time; construct via
/// [`ExecutionOptions::new`] / [`Default`] and the chainable setters so
/// new fields are not breaking changes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ExecutionOptions {
    /// How many PP-k blocks may be prefetched ahead of the local join
    /// (0 disables prefetch; the default 1 double-buffers).
    pub ppk_prefetch_depth: usize,
    /// How much of each plan SQL pushdown may claim
    /// ([`PushdownLevel::Full`] by default).
    pub pushdown: PushdownLevel,
    /// Default per-query instrumentation level
    /// ([`QueryRequest::trace`] still overrides per request).
    pub trace_level: TraceLevel,
    /// Middleware join-method selection ([`JoinStrategy::Auto`] by
    /// default: cost-based from introspected statistics; forced levels
    /// exist for the differential harness).
    pub join_strategy: JoinStrategy,
}

impl Default for ExecutionOptions {
    fn default() -> ExecutionOptions {
        ExecutionOptions {
            ppk_prefetch_depth: 1,
            pushdown: PushdownLevel::default(),
            trace_level: TraceLevel::Off,
            join_strategy: JoinStrategy::default(),
        }
    }
}

impl ExecutionOptions {
    /// The defaults: PP-k double buffering, full pushdown, no tracing,
    /// cost-based join methods.
    pub fn new() -> ExecutionOptions {
        ExecutionOptions::default()
    }

    /// Accepted and ignored: a query runs on one thread (the morsel
    /// pool this sized is gone, DESIGN.md §4c). Kept only because
    /// `crates/benchmark` still calls it (ROADMAP item 2 hands its
    /// removal to the next `[benchmark]` PR).
    pub fn workers(self, _n: usize) -> Self {
        self
    }

    /// Set [`ExecutionOptions::ppk_prefetch_depth`].
    pub fn ppk_prefetch_depth(mut self, depth: usize) -> Self {
        self.ppk_prefetch_depth = depth;
        self
    }

    /// Set [`ExecutionOptions::pushdown`].
    pub fn pushdown(mut self, level: PushdownLevel) -> Self {
        self.pushdown = level;
        self
    }

    /// Set [`ExecutionOptions::trace_level`].
    pub fn trace_level(mut self, level: TraceLevel) -> Self {
        self.trace_level = level;
        self
    }

    /// Set [`ExecutionOptions::join_strategy`].
    pub fn join_strategy(mut self, strategy: JoinStrategy) -> Self {
        self.join_strategy = strategy;
        self
    }
}

/// Builds an [`AldspServer`] by registering data sources (the design-time
/// introspection flow of §2.1) and configuration.
pub struct ServerBuilder {
    metadata: Registry,
    adaptors: AdaptorRegistry,
    security: SecurityPolicy,
    inverses: Vec<(QName, QName)>,
    mode: Mode,
    mutation: Option<Mutation>,
    ppk_block_size: usize,
    ppk_local_method: aldsp_compiler::LocalJoinMethod,
    execution: ExecutionOptions,
    admission: GovernorConfig,
    default_memory_budget: Option<u64>,
    source_concurrency_cap: usize,
    vm: bool,
    materialized: Vec<(QName, MatViewPolicy)>,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        ServerBuilder::new()
    }
}

impl ServerBuilder {
    /// Start building.
    pub fn new() -> ServerBuilder {
        ServerBuilder {
            metadata: Registry::new(),
            adaptors: AdaptorRegistry::new(),
            security: SecurityPolicy::new(),
            inverses: Vec::new(),
            mode: Mode::FailFast,
            mutation: None,
            ppk_block_size: Options::default().ppk_block_size,
            ppk_local_method: Options::default().ppk_local_method,
            execution: ExecutionOptions::default(),
            admission: GovernorConfig::default(),
            default_memory_budget: None,
            source_concurrency_cap: 0,
            vm: true,
            materialized: Vec::new(),
        }
    }

    /// Declare a data service **materialized**: its results are kept as
    /// an incrementally maintained view in `crates/matview`. The first
    /// evaluation registers a dependency record derived from the
    /// function's lineage; afterwards every [`AldspServer::submit`]
    /// routes its per-source deltas through that record — writes outside
    /// the view's read set leave cached answers live, single-row point
    /// writes to displayed columns are patched in place, and anything
    /// else surgically invalidates (recompute on next read, no TTL).
    pub fn materialize(mut self, function: QName, policy: MatViewPolicy) -> Self {
        self.materialized.push((function, policy));
        self
    }

    /// Set the server-default [`ExecutionOptions`]. Individual requests
    /// override the whole set at once via [`QueryRequest::execution`].
    pub fn execution(mut self, options: ExecutionOptions) -> Self {
        self.execution = options;
        self
    }

    /// Toggle the expression VM (on by default): compile scalar
    /// expression subtrees to bytecode programs executed by
    /// [`aldsp_runtime::ExprVM`] instead of the tree-walker. Turning it
    /// off forces pure tree-walking everywhere — same results, useful
    /// as a differential oracle and for isolating regressions.
    pub fn vm(mut self, on: bool) -> Self {
        self.vm = on;
        self
    }

    /// Enable admission control: at most `max_concurrent` queries
    /// execute at once; up to `queue_capacity` more wait FIFO within
    /// their priority class ([`Priority::Interactive`] queues ahead of
    /// [`Priority::Batch`]). A request arriving with the queue full is
    /// shed immediately with [`WorkloadError::Overloaded`]. The default
    /// (`max_concurrent = 0`) admits everything.
    pub fn admission(mut self, max_concurrent: usize, queue_capacity: usize) -> Self {
        self.admission = GovernorConfig {
            max_concurrent,
            queue_capacity,
        };
        self
    }

    /// Cap the bytes of buffered operator state (group-by hash tables,
    /// sort buffers, PP-k prefetch buffers) any single query may hold,
    /// unless the request sets its own [`QueryRequest::memory_budget`].
    /// Exceeding the cap fails the query with
    /// [`WorkloadError::BudgetExceeded`].
    pub fn default_memory_budget(mut self, bytes: u64) -> Self {
        self.default_memory_budget = Some(bytes);
        self
    }

    /// Cap concurrent roundtrips *per backend source* (relational
    /// connections and web services alike; PP-k prefetch threads count
    /// against the same gate). 0 — the default — leaves sources
    /// ungated.
    pub fn source_concurrency_cap(mut self, cap: usize) -> Self {
        self.source_concurrency_cap = cap;
        self
    }

    /// Plant a deliberately wrong rewrite ([`Mutation`]) so a
    /// correctness harness can prove it detects optimizer bugs. Never
    /// use outside the mutation smoke test.
    #[doc(hidden)]
    pub fn mutation(mut self, m: Mutation) -> Self {
        self.mutation = Some(m);
        self
    }

    /// Override the PP-k block size (the paper's default is 20, §4.2).
    pub fn ppk_block_size(mut self, k: usize) -> Self {
        self.ppk_block_size = k;
        self
    }

    /// Override the PP-k local join method (§5.2).
    pub fn ppk_local_method(mut self, m: aldsp_compiler::LocalJoinMethod) -> Self {
        self.ppk_local_method = m;
        self
    }

    /// Compile in design-time recover mode (§4.1) instead of fail-fast.
    pub fn recover_mode(mut self) -> Self {
        self.mode = Mode::Recover;
        self
    }

    /// Register a relational source: introspects `catalog` into a
    /// physical data service under `namespace` (one read function per
    /// table, navigation functions per foreign key) and binds the
    /// connection for runtime access.
    pub fn relational_source(
        mut self,
        server: Arc<RelationalServer>,
        catalog: &Catalog,
        namespace: &str,
    ) -> Result<Self, String> {
        let ds = introspect_relational(catalog, server.name(), namespace)?;
        self.metadata.register_service(&ds)?;
        // Capture data statistics and the source's latency term while we
        // hold the introspection view — the join planner costs middleware
        // strategies from exactly this snapshot.
        for schema in catalog.tables() {
            if let Some(stats) = server.table_stats(&schema.name) {
                self.metadata.set_table_stats(
                    server.name(),
                    &schema.name,
                    aldsp_metadata::TableStats {
                        row_count: stats.row_count,
                        column_distinct: stats.column_distinct.into_iter().collect(),
                    },
                );
            }
        }
        self.metadata.set_source_latency(
            server.name(),
            server.latency().per_roundtrip.as_nanos() as u64,
        );
        self.adaptors.register_connection(server);
        Ok(self)
    }

    /// Register a (simulated) web service with its description.
    pub fn web_service(
        mut self,
        description: &WebServiceDescription,
        service: Arc<SimulatedWebService>,
    ) -> Result<Self, String> {
        self.metadata
            .register_service(&introspect_web_service(description))?;
        self.adaptors.register_service(service);
        Ok(self)
    }

    /// Register a custom library function (the paper's external Java
    /// functions, §4.4) with a typed signature.
    pub fn native_function(
        mut self,
        name: QName,
        param: SequenceType,
        ret: SequenceType,
        f: NativeFunction,
    ) -> Result<Self, String> {
        self.metadata.register_function(PhysicalFunction {
            name,
            kind: FunctionKind::Library,
            params: vec![ParamDecl {
                name: "x".into(),
                ty: param,
            }],
            return_type: ret,
            source: SourceBinding::Native {
                id: f.id().to_string(),
            },
        })?;
        self.adaptors.register_native(f);
        Ok(self)
    }

    /// Register an XML file source under a data-service function name.
    pub fn xml_file(
        mut self,
        function: QName,
        source: Arc<XmlFileSource>,
        shape: aldsp_xdm::types::ElementType,
    ) -> Result<Self, String> {
        self.metadata.register_function(PhysicalFunction {
            name: function,
            kind: FunctionKind::Read,
            params: vec![],
            return_type: SequenceType::Seq(
                aldsp_xdm::types::ItemType::Element(shape.clone()),
                aldsp_xdm::types::Occurrence::Star,
            ),
            source: SourceBinding::XmlFile {
                path: source.name().to_string(),
                shape,
            },
        })?;
        self.adaptors.register_xml_file(source);
        Ok(self)
    }

    /// Register a CSV file source under a data-service function name.
    pub fn csv_file(
        mut self,
        function: QName,
        source: Arc<CsvFileSource>,
        shape: aldsp_xdm::types::ElementType,
    ) -> Result<Self, String> {
        self.metadata.register_function(PhysicalFunction {
            name: function,
            kind: FunctionKind::Read,
            params: vec![],
            return_type: SequenceType::Seq(
                aldsp_xdm::types::ItemType::Element(shape.clone()),
                aldsp_xdm::types::Occurrence::Star,
            ),
            source: SourceBinding::CsvFile {
                path: source.name().to_string(),
                shape,
            },
        })?;
        self.adaptors.register_csv_file(source);
        Ok(self)
    }

    /// Declare `inverse` as the inverse of `f` (§4.4), enabling pushdown
    /// and updates through the transformation.
    pub fn inverse(mut self, f: QName, inverse: QName) -> Self {
        self.inverses.push((f, inverse));
        self
    }

    /// Install the security policy (§7).
    pub fn security(mut self, policy: SecurityPolicy) -> Self {
        self.security = policy;
        self
    }

    /// Finish: wire the compiler (with per-connection dialects), runtime
    /// and caches together.
    pub fn build(self) -> AldspServer {
        let metadata = Arc::new(self.metadata);
        self.adaptors.set_source_cap(self.source_concurrency_cap);
        let adaptors = Arc::new(self.adaptors);
        let options = Options {
            mode: self.mode,
            pushdown: self.execution.pushdown,
            mutation: self.mutation,
            dialects: adaptors.connection_dialects(),
            ppk_block_size: self.ppk_block_size,
            ppk_local_method: self.ppk_local_method,
            ppk_prefetch_depth: self.execution.ppk_prefetch_depth,
            vm: self.vm,
            join_strategy: self.execution.join_strategy,
        };
        let mut compiler = Compiler::new(metadata.clone(), options);
        let mut inverse_registry = aldsp_compiler::InverseRegistry::default();
        for (f, inv) in self.inverses {
            inverse_registry.declare(f.clone(), inv.clone());
            compiler.declare_inverse(f, inv);
        }
        let runtime = Runtime::new(metadata.clone(), adaptors.clone());
        let matviews = MatViewRegistry::new();
        for (f, policy) in self.materialized {
            matviews.materialize(f, policy);
        }
        AldspServer {
            metadata,
            adaptors,
            compiler,
            runtime,
            execution: self.execution,
            governor: Governor::new(self.admission),
            default_memory_budget: self.default_memory_budget,
            security: self.security,
            audit: AuditLog::new(),
            inverses: inverse_registry,
            plan_cache: PlanCache::new(PLAN_CACHE_CAPACITY, SHAPE_CACHE_CAPACITY),
            lineage_cache: Mutex::new(HashMap::new()),
            update_overrides: Mutex::new(HashMap::new()),
            matviews,
        }
    }
}

/// Client-side filtering/sorting criteria a mediator call may attach to
/// a data-service method invocation (§2.2).
#[derive(Debug, Clone, Default)]
pub struct CallCriteria {
    /// Keep only instances whose named child equals the value.
    pub filter: Vec<(String, AtomicValue)>,
    /// Sort instances by a child value.
    pub sort_by: Option<String>,
    /// Sort descending?
    pub descending: bool,
    /// Return at most this many instances.
    pub limit: Option<usize>,
}

impl CallCriteria {
    /// `true` when no filtering, sorting or limiting is requested —
    /// the only shape compatible with streaming delivery.
    pub fn is_empty(&self) -> bool {
        self.filter.is_empty() && self.sort_by.is_none() && self.limit.is_none()
    }
}

/// What a [`QueryRequest`] executes: an ad-hoc query or a deployed
/// data-service method.
enum RequestTarget<'a> {
    Query {
        source: &'a str,
    },
    Call {
        function: QName,
        args: Vec<Sequence>,
        criteria: CallCriteria,
    },
}

/// A builder-style execution request — the one entry point for ad-hoc
/// queries and data-service method calls (replacing the positional
/// `query`/`call`/`query_streaming` family).
///
/// ```ignore
/// let resp = server.execute(
///     QueryRequest::new(src)
///         .principal(user)
///         .bind("minBalance", vec![Item::integer(100)])
///         .trace(TraceLevel::Operators),
/// )?;
/// println!("{}", resp.plan_explain.unwrap());
/// println!("{}", resp.trace.unwrap().render());
/// ```
pub struct QueryRequest<'a> {
    target: RequestTarget<'a>,
    principal: Principal,
    bindings: Vec<(String, Sequence)>,
    trace: Option<TraceLevel>,
    explain_only: bool,
    deadline: Option<std::time::Duration>,
    priority: Priority,
    memory_budget: Option<u64>,
    execution: Option<ExecutionOptions>,
    sink: Option<&'a mut dyn FnMut(Item) -> bool>,
}

impl<'a> QueryRequest<'a> {
    /// An ad-hoc query over `source` text. The compiled plan is cached
    /// by source text (§2.2), which is safe because security filtering
    /// happens per-user *after* execution.
    pub fn new(source: &'a str) -> QueryRequest<'a> {
        QueryRequest {
            target: RequestTarget::Query { source },
            principal: Principal::new("anonymous", &[]),
            bindings: Vec::new(),
            trace: None,
            explain_only: false,
            deadline: None,
            priority: Priority::default(),
            memory_budget: None,
            execution: None,
            sink: None,
        }
    }

    /// A deployed data-service method invocation (the SDO mediator call
    /// path, §2.2). Arguments bind positionally via [`Self::args`].
    pub fn call(function: QName) -> QueryRequest<'a> {
        QueryRequest {
            target: RequestTarget::Call {
                function,
                args: Vec::new(),
                criteria: CallCriteria::default(),
            },
            principal: Principal::new("anonymous", &[]),
            bindings: Vec::new(),
            trace: None,
            explain_only: false,
            deadline: None,
            priority: Priority::default(),
            memory_budget: None,
            execution: None,
            sink: None,
        }
    }

    /// Positional arguments for a [`Self::call`] target (ignored for
    /// ad-hoc queries — use [`Self::bind`] there).
    pub fn args(mut self, values: Vec<Sequence>) -> Self {
        if let RequestTarget::Call { args, .. } = &mut self.target {
            *args = values;
        }
        self
    }

    /// Mediator call criteria for a [`Self::call`] target (§2.2).
    pub fn criteria(mut self, c: CallCriteria) -> Self {
        if let RequestTarget::Call { criteria, .. } = &mut self.target {
            *criteria = c;
        }
        self
    }

    /// Run as this principal (defaults to an anonymous principal with
    /// no roles).
    pub fn principal(mut self, p: Principal) -> Self {
        self.principal = p;
        self
    }

    /// Bind an external variable by name (ad-hoc queries).
    pub fn bind(mut self, name: &str, value: Sequence) -> Self {
        self.bindings.push((name.to_string(), value));
        self
    }

    /// How much per-query instrumentation to collect. At
    /// [`TraceLevel::Operators`] the response carries a per-operator
    /// [`QueryTrace`] and the plan EXPLAIN; [`TraceLevel::Off`] pays
    /// only a branch. Unset, the request inherits
    /// [`ExecutionOptions::trace_level`].
    pub fn trace(mut self, level: TraceLevel) -> Self {
        self.trace = Some(level);
        self
    }

    /// Compile (or fetch from the plan cache) and EXPLAIN only — the
    /// response carries `plan_explain` and no items.
    pub fn explain_only(mut self) -> Self {
        self.explain_only = true;
        self
    }

    /// Fail the query with [`WorkloadError::DeadlineExceeded`] if it
    /// has not finished within `d` of starting execution. Checked
    /// cooperatively at tuple boundaries and before every source
    /// roundtrip — a streaming query stops mid-stream, and a roundtrip
    /// to a slow source is abandoned as soon as the deadline passes
    /// rather than ridden to completion.
    pub fn deadline(mut self, d: std::time::Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Admission priority: [`Priority::Interactive`] (the default)
    /// queues ahead of [`Priority::Batch`] when the server is at its
    /// concurrency limit.
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Cap the bytes of buffered operator state this query may hold
    /// (overrides [`ServerBuilder::default_memory_budget`]). Exceeding
    /// it fails the query with [`WorkloadError::BudgetExceeded`].
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Override the server's default [`ExecutionOptions`] for this
    /// request — the whole set at once. The trace level applies
    /// directly; compile-affecting knobs (pushdown, PP-k prefetch depth,
    /// join strategy) recompile under the override and cache the plan
    /// under an options-qualified key.
    pub fn execution(mut self, options: ExecutionOptions) -> Self {
        self.execution = Some(options);
        self
    }

    /// Deliver result items incrementally to `sink` instead of
    /// materializing them (§2.2), replacing any earlier sink. Security
    /// filtering still applies per item; returning `false` stops
    /// execution early. The sink may live shorter than the request's
    /// other borrows, so a wrapper can aim a caller's request at a
    /// local sink.
    pub fn stream_to<'b>(self, sink: &'b mut dyn FnMut(Item) -> bool) -> QueryRequest<'b>
    where
        'a: 'b,
    {
        QueryRequest {
            sink: Some(sink),
            ..self
        }
    }
}

/// What one [`AldspServer::execute`] call produced. Fields are private
/// behind accessors so new facets (counters arrive in most PRs) are
/// never breaking changes.
#[derive(Debug)]
pub struct QueryResponse {
    items: Sequence,
    delivered: u64,
    per_query_stats: StatsSnapshot,
    trace: Option<QueryTrace>,
    plan_explain: Option<String>,
}

impl QueryResponse {
    /// Materialized, security-filtered result items (empty for
    /// streaming and explain-only requests).
    pub fn items(&self) -> &Sequence {
        &self.items
    }

    /// Take ownership of the result items.
    pub fn into_items(self) -> Sequence {
        self.items
    }

    /// Items delivered (to the caller or the streaming sink).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// This execution's exact stat deltas, unpolluted by concurrent
    /// queries (unlike the server-wide [`AldspServer::stats`]). The
    /// returned [`StatsSnapshot`] is `#[non_exhaustive]`: read the
    /// counters you care about by name.
    pub fn per_query_stats(&self) -> &StatsSnapshot {
        &self.per_query_stats
    }

    /// Per-operator trace, when requested via [`QueryRequest::trace`].
    pub fn trace(&self) -> Option<&QueryTrace> {
        self.trace.as_ref()
    }

    /// Take ownership of the per-operator trace.
    pub fn into_trace(self) -> Option<QueryTrace> {
        self.trace
    }

    /// The plan EXPLAIN, when tracing or [`QueryRequest::explain_only`]
    /// was requested.
    pub fn plan_explain(&self) -> Option<&str> {
        self.plan_explain.as_deref()
    }

    /// Owned variant of [`QueryResponse::plan_explain`].
    pub fn into_plan_explain(self) -> Option<String> {
        self.plan_explain
    }
}

/// Bound on the plan cache's text front: one entry per distinct request
/// (query text or called function, options-qualified). Entries are
/// cheap — a plan handle and the text's literal values — so a few
/// hundred popular queries (§2.2) is plenty; an ad-hoc workload that
/// never repeats shouldn't pin memory forever.
const PLAN_CACHE_CAPACITY: usize = 256;

/// Bound on the plan cache's shapes: one compiled plan per distinct
/// literal-free query shape.
const SHAPE_CACHE_CAPACITY: usize = 256;

/// The §2.2 query plan cache: "ALDSP maintains a query plan cache in
/// order to avoid repeatedly compiling popular queries". Two bounded
/// maps under one mutex (which also covers the hit/miss counters, so a
/// lookup takes a single lock acquisition):
///
/// * **texts** in front — the exact request key → its plan and the
///   literal values that plan runs with for this text. A hit costs one
///   lookup and a clone of the values; nothing is parsed.
/// * **shapes** behind — the text with its liftable literals cut out
///   ([`lift`]) → the one plan every such text shares, or the verdict
///   that texts of this shape must each be compiled with their literals
///   in place (`None`: a literal's value decides the plan).
///
/// Plans never expire on their own, so staleness is recency of use.
struct PlanCache {
    state: Mutex<PlanCacheState>,
}

struct PlanCacheState {
    texts: Lru<Planned>,
    shapes: Lru<Option<Arc<CompiledQuery>>>,
    /// Requests served without compiling.
    hits: u64,
    /// Requests that had to compile.
    misses: u64,
}

/// A plan together with what it needs to run for one particular text.
#[derive(Clone)]
struct Planned {
    plan: Arc<CompiledQuery>,
    literals: Literals,
}

/// What became of a request's literals.
#[derive(Clone)]
enum Literals {
    /// A data-service call: no text, no literals.
    Call,
    /// The plan is the text's shape; `values[i]` binds its `$?i` (the
    /// last `values.len()` of the plan's externals).
    Lifted(Arc<[AtomicValue]>),
    /// The text was compiled with its literals in place because a
    /// literal's value decides the plan.
    InPlace,
}

/// What the plan cache knows about a shape.
enum ShapeLookup {
    /// Nothing yet: compile it.
    Unknown,
    /// One plan serves every text of the shape (here with this text's
    /// literals).
    Shared(Planned),
    /// Texts of the shape are compiled one by one, literals in place.
    ValueDependent,
}

/// A bounded map with least-recently-used eviction in batches: when an
/// insert finds the map full, the stalest eighth goes in one pass, so
/// eviction costs a scan once per `capacity / 8` inserts instead of on
/// every one.
struct Lru<V> {
    entries: HashMap<String, (V, u64)>,
    /// Monotonic use counter; entries stamp it on hit and insert.
    tick: u64,
    capacity: usize,
}

impl<V> Lru<V> {
    fn new(capacity: usize) -> Lru<V> {
        Lru {
            entries: HashMap::new(),
            tick: 0,
            capacity: capacity.max(1),
        }
    }

    fn get(&mut self, key: &str) -> Option<&V> {
        self.tick += 1;
        let (value, last_used) = self.entries.get_mut(key)?;
        *last_used = self.tick;
        Some(value)
    }

    fn insert(&mut self, key: String, value: V) {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            let batch = (self.capacity / 8).max(1);
            let mut stamps: Vec<u64> = self.entries.values().map(|(_, t)| *t).collect();
            // stamps are unique, so exactly `batch` entries are at or
            // below the cutoff
            let (_, cutoff, _) = stamps.select_nth_unstable(batch - 1);
            let cutoff = *cutoff;
            self.entries.retain(|_, (_, t)| *t > cutoff);
        }
        self.tick += 1;
        self.entries.insert(key, (value, self.tick));
    }
}

impl PlanCache {
    fn new(texts: usize, shapes: usize) -> PlanCache {
        PlanCache {
            state: Mutex::new(PlanCacheState {
                texts: Lru::new(texts),
                shapes: Lru::new(shapes),
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// The exact-text lookup — one lock acquisition, counted as a hit
    /// when it finds the request.
    fn text(&self, key: &str) -> Option<Planned> {
        let mut st = self.state.lock();
        let found = st.texts.get(key).cloned();
        st.hits += u64::from(found.is_some());
        found
    }

    /// The shape lookup behind a text miss. A shared plan serves `key`
    /// without compiling: counted as a hit and remembered in the text
    /// front with this text's `values`.
    fn shape(&self, key: &str, shape: &str, values: &Arc<[AtomicValue]>) -> ShapeLookup {
        let mut st = self.state.lock();
        match st.shapes.get(shape).cloned() {
            None => ShapeLookup::Unknown,
            Some(None) => ShapeLookup::ValueDependent,
            Some(Some(plan)) => {
                st.hits += 1;
                let planned = Planned {
                    plan,
                    literals: Literals::Lifted(values.clone()),
                };
                st.texts.insert(key.to_string(), planned.clone());
                ShapeLookup::Shared(planned)
            }
        }
    }

    /// Count a request that has to compile (whether or not the compile
    /// then succeeds, and however many attempts it takes).
    fn miss(&self) {
        self.state.lock().misses += 1;
    }

    /// Remember a freshly compiled plan for `key` and — with `shape` —
    /// for every text of that shape.
    fn compiled(&self, key: &str, shape: Option<String>, planned: &Planned) {
        let mut st = self.state.lock();
        if let Some(shape) = shape {
            st.shapes.insert(shape, Some(planned.plan.clone()));
        }
        st.texts.insert(key.to_string(), planned.clone());
    }

    /// Remember that texts of `shape` are compiled one by one.
    fn value_dependent(&self, shape: String) {
        self.state.lock().shapes.insert(shape, None);
    }

    /// Forget every plan, in the text front and the shape map alike.
    fn clear(&self) {
        let mut st = self.state.lock();
        st.texts.entries.clear();
        st.shapes.entries.clear();
    }

    fn stats(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.hits, st.misses)
    }
}

/// The ALDSP server (Figure 2).
pub struct AldspServer {
    metadata: Arc<Registry>,
    adaptors: Arc<AdaptorRegistry>,
    compiler: Compiler,
    runtime: Runtime,
    execution: ExecutionOptions,
    governor: Arc<Governor>,
    default_memory_budget: Option<u64>,
    security: SecurityPolicy,
    audit: AuditLog,
    inverses: aldsp_compiler::InverseRegistry,
    plan_cache: PlanCache,
    lineage_cache: Mutex<HashMap<QName, Arc<Lineage>>>,
    update_overrides: Mutex<HashMap<QName, UpdateOverride>>,
    matviews: MatViewRegistry,
}

/// A user-supplied update handler (§6: "an update override facility that
/// allows user code to extend or replace ALDSP's default update
/// handling"). Returning `Ok(Some(report))` replaces the default
/// decomposition entirely; `Ok(None)` falls through to it.
pub type UpdateOverride =
    Arc<dyn Fn(&DataObject, &Lineage) -> Result<Option<SubmitReport>, String> + Send + Sync>;

impl AldspServer {
    /// Deploy a data-service module (XQuery function declarations);
    /// functions are partially optimized and cached for reuse (§4.2).
    /// A successful deploy drops every cached query plan, since any of
    /// them may have unfolded a function it replaces.
    pub fn deploy(&self, source: &str) -> Result<Vec<QName>, ServerError> {
        let deployed = self
            .compiler
            .deploy_module(source)
            .map_err(ServerError::Compile)?;
        self.plan_cache.clear();
        Ok(deployed)
    }

    /// Execute a [`QueryRequest`] — the one entry point for ad-hoc
    /// queries and data-service method calls.
    ///
    /// Compiled plans are cached — "ALDSP maintains a query plan cache
    /// in order to avoid repeatedly compiling popular queries from the
    /// same or different users" (§2.2) — which is safe precisely
    /// because security filtering happens per-user *after* execution.
    /// The response carries the security-filtered items (or streams
    /// them to the request's sink), this execution's exact stat deltas,
    /// and — when requested — a per-operator [`QueryTrace`] and the
    /// plan EXPLAIN.
    pub fn execute(&self, request: QueryRequest<'_>) -> Result<QueryResponse, ServerError> {
        let QueryRequest {
            target,
            principal,
            mut bindings,
            trace,
            explain_only,
            deadline,
            priority,
            memory_budget,
            execution,
            sink,
        } = request;
        // The request's shape depends on nothing but the request, so it
        // is validated before anything with a side effect (audit
        // entries, counters, admission slots, fill tickets) runs.
        if sink.is_some()
            && matches!(&target, RequestTarget::Call { criteria, .. } if !criteria.is_empty())
        {
            return Err(ServerError::Other(
                "call criteria (filter/sort/limit) require materialized \
                 execution; drop stream_to or the criteria"
                    .into(),
            ));
        }
        if let Some((name, _)) = bindings.iter().find(|(n, _)| n.starts_with(LIFTED_PREFIX)) {
            return Err(ServerError::Other(format!(
                "cannot bind ${name}: names starting with '{LIFTED_PREFIX}' \
                 are reserved for lifted literals"
            )));
        }
        let exec = execution.unwrap_or_else(|| self.execution.clone());
        let trace = trace.unwrap_or(exec.trace_level);
        if let RequestTarget::Call { function, .. } = &target {
            // Function-level access is checked before anything runs
            // (§7); element-level filtering happens on the results.
            self.security
                .check_function_access(&principal, function, &self.audit)?;
        }
        let planned = self.plan_for(&target, &exec)?;
        let plan = &planned.plan;
        let (call_fn, call_args, criteria) = match target {
            RequestTarget::Query { .. } => (None, None, CallCriteria::default()),
            RequestTarget::Call {
                function,
                args,
                criteria,
            } => (Some(function), Some(args), criteria),
        };
        let mem_cap = memory_budget.or(self.default_memory_budget);
        let plan_explain = (explain_only || trace != TraceLevel::Off).then(|| {
            self.explain_for(
                &planned,
                self.governor_note(priority, deadline, mem_cap),
                call_fn.as_ref().and_then(|f| self.matview_note(f)),
            )
        });
        let mut out = Delivery {
            server: self,
            principal: &principal,
            sink,
            tee: None,
            items: Vec::new(),
            delivered: 0,
            stopped: false,
        };
        if explain_only {
            return Ok(out.finish(&criteria, StatsSnapshot::default(), None, plan_explain));
        }
        // Materialized data services: a live cached answer (raw,
        // pre-security) bypasses execution and admission entirely —
        // element-level security and call criteria still apply per
        // principal in the delivery, so cached entries stay shared
        // across users.
        let view = (call_fn.as_ref().zip(call_args.as_ref()))
            .filter(|(f, _)| self.matviews.is_materialized(f))
            .map(|(f, args)| (f, MatViewRegistry::arg_key(args)));
        if let Some(raw) = view.as_ref().and_then(|(f, key)| self.matviews.get(f, key)) {
            let stats = &self.runtime.inner().stats;
            stats.inc(&stats.matview_hits);
            let mut pq = StatsSnapshot::default();
            pq.matview_hits = 1;
            out.offer(raw);
            return Ok(out.finish(&criteria, pq, None, plan_explain));
        }
        // miss: recompute below, then install the raw answer — unless
        // an affecting write lands while we compute
        let fill =
            view.and_then(|(f, key)| self.matviews.fill_ticket(f, &key).map(|ticket| (f, ticket)));
        // Call arguments bind positionally to the plan's external
        // variables; ad-hoc queries bind by name, their lifted literals
        // to the last of the plan's externals.
        let mut bindings: Vec<(&str, Sequence)> = match call_args {
            Some(args) => (plan.external_vars.iter().map(String::as_str))
                .zip(args)
                .collect(),
            None => (bindings.iter_mut())
                .map(|(n, v)| (n.as_str(), std::mem::take(v)))
                .collect(),
        };
        if let Literals::Lifted(values) = &planned.literals {
            let declared = plan.external_vars.len().saturating_sub(values.len());
            bindings.extend(
                (plan.external_vars[declared..].iter())
                    .zip(values.iter())
                    .map(|(n, v)| (n.as_str(), vec![Item::Atomic(v.clone())])),
            );
        }
        // Workload governance: one budget shared by every thread of the
        // query (PP-k prefetch, async), created only when something is
        // actually governed. Admission may queue — or shed — the
        // request before anything executes.
        let budget = (deadline.is_some() || mem_cap.is_some() || self.governor.enabled())
            .then(|| Arc::new(QueryBudget::new(deadline, mem_cap)));
        let admit_t0 = std::time::Instant::now();
        let admitted = match &budget {
            Some(b) => self.governor.admit(priority, b),
            // No budget means the governor is disabled: no-op admit.
            None => self.governor.admit(priority, &QueryBudget::unlimited()),
        };
        self.sync_governor_stats();
        let _admission = admitted?;
        let admission_wait_ns = admit_t0.elapsed().as_nanos() as u64;
        // Tee raw (pre-security) items for the matview fill.
        out.tee = fill.is_some().then(Vec::new);
        let streaming = out.sink.is_some();
        let mut on_raw = |item: Item| out.offer(vec![item]);
        let ex = self
            .runtime
            .run(
                plan,
                ExecRequest {
                    bindings,
                    trace,
                    budget,
                    sink: if streaming { Some(&mut on_raw) } else { None },
                },
            )
            .map_err(map_rt_error)?;
        let mut per_query_stats = ex.per_query_stats;
        per_query_stats.admission_wait_ns = admission_wait_ns;
        if !streaming {
            out.offer(ex.items);
        }
        if let Some((f, ticket)) = fill {
            // A consumer abort leaves the tee partial, so the fill is
            // dropped rather than caching a truncated answer.
            let raw = out.tee.take().filter(|_| !out.stopped);
            self.finish_fill(f, ticket, raw);
            per_query_stats.matview_recomputes += 1;
        }
        Ok(out.finish(&criteria, per_query_stats, ex.trace, plan_explain))
    }

    /// Complete a materialized-view fill: derive the dependency record
    /// from the function's canonical lineage and install the raw
    /// (pre-security) answer. `items` is `None` when the computed result
    /// is partial (aborted stream) — the recompute still counts, but
    /// nothing is cached. Lineage failures (e.g. a non-updatable shape)
    /// leave the view permanently cold rather than failing the read.
    fn finish_fill(&self, function: &QName, ticket: matview::FillTicket, items: Option<Sequence>) {
        let stats = &self.runtime.inner().stats;
        stats.inc(&stats.matview_recomputes);
        let Some(items) = items else { return };
        if let Ok(lineage) = self.lineage_of(function) {
            let deps = Arc::new(Dependencies::from_lineage(&lineage));
            self.matviews.complete_fill(ticket, items, deps);
        }
    }

    /// The `-- matview:` EXPLAIN header for a materialized function.
    fn matview_note(&self, function: &QName) -> Option<String> {
        self.matviews.status(function).map(|s| {
            format!(
                "policy={} tables={} entries={}",
                s.policy, s.tables, s.entries
            )
        })
    }

    /// Read one instance from a data-service function as a change-tracked
    /// [`DataObject`] (the SDO read side of Figure 5).
    pub fn read_object(
        &self,
        principal: &Principal,
        function: &QName,
        args: Vec<Sequence>,
        criteria: &CallCriteria,
    ) -> Result<Option<DataObject>, ServerError> {
        let items = self
            .execute(
                QueryRequest::call(function.clone())
                    .args(args)
                    .criteria(criteria.clone())
                    .principal(principal.clone()),
            )?
            .items;
        Ok(items.into_iter().find_map(|i| match i {
            Item::Node(n) => Some(DataObject::new(n)),
            _ => None,
        }))
    }

    /// The lineage of a data-service function (computed from its compiled
    /// body — the function is its own lineage provider, §6).
    pub fn lineage_of(&self, function: &QName) -> Result<Arc<Lineage>, ServerError> {
        if let Some(l) = self.lineage_cache.lock().get(function) {
            return Ok(l.clone());
        }
        let plan = self
            .compiler
            .compile_call(function)
            .map_err(ServerError::Compile)?;
        let lineage = Arc::new(analyze(&self.metadata, &plan).map_err(ServerError::Other)?);
        self.lineage_cache
            .lock()
            .insert(function.clone(), lineage.clone());
        Ok(lineage)
    }

    /// Submit a changed data object (Figure 5's `ProfileDS.submit(sdo)`),
    /// decomposing the change log via the lineage of `provider` and
    /// applying per-source conditioned updates under 2PC (§6). A
    /// registered [`UpdateOverride`] runs first and may replace the
    /// default handling entirely.
    pub fn submit(
        &self,
        principal: &Principal,
        provider: &QName,
        sdo: &DataObject,
        policy: ConcurrencyPolicy,
    ) -> Result<SubmitReport, ServerError> {
        self.security
            .check_function_access(principal, provider, &self.audit)?;
        let lineage = self.lineage_of(provider)?;
        let override_fn = self.update_overrides.lock().get(provider).cloned();
        if let Some(f) = override_fn {
            // a None falls through to the default decomposition
            if let Some(report) = f(sdo, &lineage).map_err(ServerError::Other)? {
                // An override that emitted no deltas wrote through a
                // channel the registry cannot see — coarsely invalidate
                // every view over the provider's source tables.
                if report.deltas.is_empty() && sdo.is_dirty() {
                    let n = self.matviews.invalidate_tables(&lineage_tables(&lineage));
                    let stats = &self.runtime.inner().stats;
                    stats.matview_invalidations.fetch_add(n, Ordering::Relaxed);
                } else {
                    self.route_deltas(&report.deltas);
                }
                return Ok(report);
            }
        }
        let proc = SubmitProcessor::new(
            &self.adaptors,
            &self.metadata,
            &lineage,
            &self.inverses,
            policy,
        );
        match proc.submit(sdo) {
            Ok(report) => {
                self.route_deltas(&report.deltas);
                Ok(report)
            }
            Err(e) => {
                // NotWritable is decided before any source is touched;
                // everything else may have left sources in a state the
                // registry didn't observe — invalidate coarsely.
                if !matches!(e, SubmitError::NotWritable(_)) {
                    let n = self.matviews.invalidate_tables(&lineage_tables(&lineage));
                    let stats = &self.runtime.inner().stats;
                    stats.matview_invalidations.fetch_add(n, Ordering::Relaxed);
                }
                Err(ServerError::Submit(e))
            }
        }
    }

    /// Route a committed submit's per-source deltas through every
    /// materialized view (write-through maintenance).
    fn route_deltas(&self, deltas: &[SourceDelta]) {
        if deltas.is_empty() {
            return;
        }
        let outcome = self
            .matviews
            .apply_deltas(deltas, &|f, v| self.apply_forward(f, v));
        let stats = &self.runtime.inner().stats;
        stats
            .matview_patches
            .fetch_add(outcome.patched, Ordering::Relaxed);
        stats
            .matview_invalidations
            .fetch_add(outcome.invalidated, Ordering::Relaxed);
    }

    /// Apply a forward transform (a registered library native, §4.4) to
    /// a stored column value — the patch path's dual of submit
    /// processing's inverse application.
    fn apply_forward(&self, f: &QName, v: &AtomicValue) -> Result<AtomicValue, String> {
        let function = self
            .metadata
            .function(f)
            .ok_or_else(|| format!("unknown transform function {f}"))?;
        let SourceBinding::Native { id } = &function.source else {
            return Err(format!("transform {f} is not a native library function"));
        };
        let native = self.adaptors.native(id).map_err(|e| e.to_string())?;
        let result = native
            .call(&[vec![Item::Atomic(v.clone())]])
            .map_err(|e| e.to_string())?;
        match result.as_slice() {
            [Item::Atomic(out)] => Ok(out.clone()),
            other => Err(format!(
                "transform {f} returned {} items instead of one",
                other.len()
            )),
        }
    }

    /// Register an update override for a data-service provider (§6).
    pub fn register_update_override(&self, provider: QName, f: UpdateOverride) {
        self.update_overrides.lock().insert(provider, f);
    }

    /// Declare `function` materialized at runtime (the builder-time
    /// equivalent is [`ServerBuilder::materialize`]). Re-declaring an
    /// already-materialized function drops its cached entries.
    pub fn materialize(&self, function: QName, policy: MatViewPolicy) {
        self.matviews.materialize(function, policy);
    }

    /// Policy / dependency / occupancy snapshot of one materialized
    /// function, or `None` when it is not materialized.
    pub fn matview_status(&self, function: &QName) -> Option<matview::MatViewStatus> {
        self.matviews.status(function)
    }

    /// Stop TTL-caching `function` and drop its cached entries (§5.5).
    pub fn disable_function_cache(&self, function: &QName) {
        self.runtime.cache().disable(function);
    }

    /// Drop every TTL-cached entry for `function` without disabling
    /// future caching; returns how many entries were dropped.
    pub fn purge_function_cache(&self, function: &QName) -> usize {
        self.runtime.cache().purge(function)
    }

    /// Run a request and serialize the results incrementally to a
    /// writer — "or to redirect them to a file, without materializing
    /// them first" (§2.2). Takes a full [`QueryRequest`], so deadlines,
    /// budgets, priorities and [`ExecutionOptions`] all apply exactly
    /// as they do for [`AldspServer::execute`]; any `stream_to` sink on
    /// the request is replaced by the writer.
    pub fn query_to_writer(
        &self,
        request: QueryRequest<'_>,
        out: &mut dyn std::io::Write,
    ) -> Result<u64, ServerError> {
        let mut io_err: Option<std::io::Error> = None;
        let mut text = String::new();
        let mut sink = |item: Item| {
            text.clear();
            aldsp_xdm::xml::write_item(&item, &mut text);
            out.write_all(text.as_bytes())
                .map_err(|e| io_err = Some(e))
                .is_ok()
        };
        let delivered = self.execute(request.stream_to(&mut sink))?.delivered;
        match io_err {
            Some(e) => Err(ServerError::Io(e)),
            None => Ok(delivered),
        }
    }

    /// Enable result caching for a data-service function with a TTL
    /// (§5.5 — designer permits, administrator enables).
    pub fn enable_function_cache(&self, function: QName, ttl: std::time::Duration) {
        self.runtime.cache().enable(function, ttl);
    }

    /// Runtime execution statistics: a **monotonic** snapshot of the
    /// server-wide counters, aggregated across every query the runtime
    /// has executed (concurrent queries included). For the exact cost
    /// of one query, use [`QueryResponse::per_query_stats`] instead of
    /// differencing two snapshots — a concurrent query can land between
    /// them.
    pub fn stats(&self) -> StatsSnapshot {
        self.runtime.stats()
    }

    /// The workload governor's cumulative admission counters: queries
    /// admitted and shed, current running/queued, deepest the queue has
    /// been, and total admission wait. Monotonic for the life of the
    /// server.
    pub fn governor_stats(&self) -> GovernorSnapshot {
        self.governor.snapshot()
    }

    /// Mirror the governor's cumulative counters into the server-wide
    /// runtime stats so one [`AldspServer::stats`] snapshot shows
    /// admission behavior next to the operator counters. Stored rather
    /// than added — the governor is the source of truth.
    fn sync_governor_stats(&self) {
        let snap = self.governor.snapshot();
        let stats = &self.runtime.inner().stats;
        stats.queries_shed.store(snap.shed, Ordering::Relaxed);
        stats
            .admission_wait_ns
            .store(snap.admission_wait_ns, Ordering::Relaxed);
        stats
            .admission_queue_peak
            .store(snap.queue_peak as u64, Ordering::Relaxed);
    }

    /// The `-- governor:` EXPLAIN header for a request, or `None` when
    /// nothing about the query is governed.
    fn governor_note(
        &self,
        priority: Priority,
        deadline: Option<std::time::Duration>,
        mem_cap: Option<u64>,
    ) -> Option<String> {
        if !self.governor.enabled() && deadline.is_none() && mem_cap.is_none() {
            return None;
        }
        let mut parts = vec![format!("priority={priority}")];
        if let Some(d) = deadline {
            parts.push(format!("deadline={d:?}"));
        }
        if let Some(c) = mem_cap {
            parts.push(format!("mem-cap={c}B"));
        }
        if self.governor.enabled() {
            let cfg = self.governor.config();
            parts.push(format!(
                "admission={}+{}q",
                cfg.max_concurrent, cfg.queue_capacity
            ));
        }
        Some(parts.join(" "))
    }

    /// `(hits, misses)` of the query plan cache (§2.2).
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        self.plan_cache.stats()
    }

    /// The audit log (§7).
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// The security policy (§7) — what a caller that runs a plan on
    /// [`AldspServer::runtime`] directly applies to the raw result.
    pub fn security(&self) -> &SecurityPolicy {
        &self.security
    }

    /// The compiler (for inspection and benches).
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    /// The runtime (for inspection and benches).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// The metadata registry.
    pub fn metadata(&self) -> &Arc<Registry> {
        &self.metadata
    }

    /// The adaptor registry.
    pub fn adaptors(&self) -> &Arc<AdaptorRegistry> {
        &self.adaptors
    }

    /// The compiled plan for a request target and the literal values it
    /// runs with, from the plan cache when they are there. An exact
    /// request hit parses nothing; a text miss parses, lifts the text's
    /// literals ([`lift`]) and looks its shape up; only a shape miss
    /// compiles — the lifted module, so the plan serves every text of
    /// the shape. When the request's [`ExecutionOptions`] override a
    /// compile-affecting knob, both keys are options-qualified and a
    /// miss compiles under a compiler carrying the override.
    fn plan_for(
        &self,
        target: &RequestTarget<'_>,
        exec: &ExecutionOptions,
    ) -> Result<Planned, ServerError> {
        let base = self.compiler.options();
        let overridden = exec.pushdown != base.pushdown
            || exec.ppk_prefetch_depth != base.ppk_prefetch_depth
            || exec.join_strategy != base.join_strategy;
        let suffix = if overridden {
            format!(
                "\u{1}pushdown={};ppk-depth={};join={}",
                exec.pushdown, exec.ppk_prefetch_depth, exec.join_strategy
            )
        } else {
            String::new()
        };
        let key: Cow<'_, str> = match target {
            RequestTarget::Query { source } if !overridden => Cow::Borrowed(source),
            RequestTarget::Query { source } => Cow::Owned(format!("{source}{suffix}")),
            RequestTarget::Call { function, .. } => Cow::Owned(format!("call:{function}{suffix}")),
        };
        if let Some(p) = self.plan_cache.text(&key) {
            return Ok(p);
        }
        let mut literals = match target {
            RequestTarget::Query { .. } => Literals::Lifted(Arc::from([])),
            RequestTarget::Call { .. } => Literals::Call,
        };
        // the lifted module to compile for every text of its shape.
        // Design-time recover mode compiles each text as it stands: its
        // diagnostics are positions in that text.
        let mut shared = None;
        if let (RequestTarget::Query { source }, Mode::FailFast) = (target, base.mode) {
            let (mut module, _) = self.compiler.parse(source).map_err(ServerError::Compile)?;
            if let Some(lift::Lifted { mut shape, values }) = lift::lift(source, &mut module) {
                shape.push_str(&suffix);
                let values: Arc<[AtomicValue]> = values.into();
                match self.plan_cache.shape(&key, &shape, &values) {
                    ShapeLookup::Shared(planned) => return Ok(planned),
                    ShapeLookup::ValueDependent => literals = Literals::InPlace,
                    ShapeLookup::Unknown => shared = Some((module, shape, values)),
                }
            }
        }
        // from here on the request compiles
        self.plan_cache.miss();
        let over = overridden.then(|| {
            let mut options = base.clone();
            options.pushdown = exec.pushdown;
            options.ppk_prefetch_depth = exec.ppk_prefetch_depth;
            options.join_strategy = exec.join_strategy;
            self.compiler.with_options(options)
        });
        let compiler = over.as_ref().unwrap_or(&self.compiler);
        if let Some((module, shape, values)) = shared {
            match compiler
                .compile_module(&module, Vec::new())
                .map_err(ServerError::Compile)?
            {
                Compiled::Plan(plan) => {
                    let planned = Planned {
                        plan: Arc::new(plan),
                        literals: Literals::Lifted(values),
                    };
                    self.plan_cache.compiled(&key, Some(shape), &planned);
                    return Ok(planned);
                }
                Compiled::ValueDependent => {
                    self.plan_cache.value_dependent(shape);
                    literals = Literals::InPlace;
                }
            }
        }
        // this request alone, its literals (if any) in place
        let plan = match target {
            RequestTarget::Query { source } => compiler.compile_query(source),
            RequestTarget::Call { function, .. } => compiler.compile_call(function),
        };
        let planned = Planned {
            plan: Arc::new(plan.map_err(ServerError::Compile)?),
            literals,
        };
        self.plan_cache.compiled(&key, None, &planned);
        Ok(planned)
    }

    /// Render the plan EXPLAIN for a compiled query, supplying the
    /// renderer with runtime state the compiler can't know: connection
    /// dialects, per-function cache enablement (§5.5), and the workload
    /// terms the query would run under.
    fn explain_for(
        &self,
        planned: &Planned,
        governor: Option<String>,
        matview: Option<String>,
    ) -> String {
        let plan = &*planned.plan;
        let dialects = self.adaptors.connection_dialects();
        let cache = self.runtime.cache();
        let ctx = ExplainContext {
            dialects: &dialects,
            cache_enabled: &|q| cache.enabled(q),
            governor,
            matview,
            pushdown: plan.pushdown,
            programs: Some(&plan.programs),
            joins: Some(&plan.joins),
            shape: match &planned.literals {
                Literals::Call => None,
                Literals::Lifted(values) => Some(PlanShape::Lifted(values)),
                Literals::InPlace => Some(PlanShape::ValueDependent),
            },
        };
        explain_plan(&plan.plan, &ctx)
    }
}

/// The one place results leave [`AldspServer::execute`]: raw
/// (pre-security) items — a materialized view's cached answer or the
/// runtime's output — are security-filtered for the principal, then
/// handed to the request's sink or collected.
struct Delivery<'a, 's> {
    server: &'a AldspServer,
    principal: &'a Principal,
    sink: Option<&'s mut dyn FnMut(Item) -> bool>,
    /// Raw copy of everything offered, kept while a matview fill is
    /// pending.
    tee: Option<Sequence>,
    items: Sequence,
    delivered: u64,
    /// The sink asked to stop.
    stopped: bool,
}

impl Delivery<'_, '_> {
    /// Deliver a batch of raw items; `false` once the sink has asked to
    /// stop (the item it stopped on counts as delivered).
    fn offer(&mut self, raw: Sequence) -> bool {
        if let Some(tee) = &mut self.tee {
            tee.extend_from_slice(&raw);
        }
        let filtered =
            (self.server.security).filter_result(self.principal, raw, &self.server.audit);
        let Some(on_item) = &mut self.sink else {
            self.items.extend(filtered);
            return true;
        };
        for item in filtered {
            self.delivered += 1;
            if !on_item(item) {
                self.stopped = true;
                return false;
            }
        }
        true
    }

    /// Apply the call criteria to what was collected (a sink admits
    /// none) and build the response.
    fn finish(
        self,
        criteria: &CallCriteria,
        per_query_stats: StatsSnapshot,
        trace: Option<QueryTrace>,
        plan_explain: Option<String>,
    ) -> QueryResponse {
        let items = apply_criteria(self.items, criteria);
        let delivered = match self.sink {
            Some(_) => self.delivered,
            None => items.len() as u64,
        };
        QueryResponse {
            items,
            delivered,
            per_query_stats,
            trace,
            plan_explain,
        }
    }
}

/// Every `(connection, table)` a lineage analysis touches — the coarse
/// invalidation scope when per-row deltas are unavailable.
fn lineage_tables(lineage: &Lineage) -> Vec<(String, String)> {
    let mut tables: Vec<(String, String)> = lineage
        .entries
        .iter()
        .map(|e| (e.connection.clone(), e.table.clone()))
        .chain(lineage.referenced.keys().cloned())
        .chain(lineage.restricting.keys().cloned())
        .chain(lineage.opaque_tables.iter().cloned())
        .collect();
    tables.sort();
    tables.dedup();
    tables
}

/// Apply mediator call criteria to a method-call result (§2.2).
fn apply_criteria(items: Sequence, criteria: &CallCriteria) -> Sequence {
    let mut out: Vec<Item> = items
        .into_iter()
        .filter(|item| {
            let Item::Node(n) = item else { return true };
            criteria.filter.iter().all(|(child, expect)| {
                n.child_elements(&QName::local(child))
                    .next()
                    .and_then(|c| c.typed_value())
                    .map(|v| v.compare(expect) == Some(std::cmp::Ordering::Equal))
                    .unwrap_or(false)
            })
        })
        .collect();
    if let Some(key) = &criteria.sort_by {
        let kq = QName::local(key);
        out.sort_by(|a, b| {
            let ka = a
                .as_node()
                .and_then(|n| n.child_elements(&kq).next().and_then(|c| c.typed_value()));
            let kb = b
                .as_node()
                .and_then(|n| n.child_elements(&kq).next().and_then(|c| c.typed_value()));
            let ord = match (ka, kb) {
                (None, None) => std::cmp::Ordering::Equal,
                (None, Some(_)) => std::cmp::Ordering::Less,
                (Some(_), None) => std::cmp::Ordering::Greater,
                (Some(x), Some(y)) => x.compare(&y).unwrap_or(std::cmp::Ordering::Equal),
            };
            if criteria.descending {
                ord.reverse()
            } else {
                ord
            }
        });
    }
    if let Some(n) = criteria.limit {
        out.truncate(n);
    }
    out
}

#[cfg(test)]
mod plan_cache_tests {
    use super::*;

    fn planned() -> Planned {
        Planned {
            plan: Arc::new(CompiledQuery {
                plan: aldsp_compiler::ir::CExpr::new(
                    aldsp_compiler::ir::CKind::Seq(vec![]),
                    aldsp_compiler::ir::Span::default(),
                ),
                external_vars: vec![],
                frame: Arc::new(Default::default()),
                pushdown: Default::default(),
                diagnostics: vec![],
                programs: Arc::new(Default::default()),
                joins: Arc::new(Default::default()),
            }),
            literals: Literals::Call,
        }
    }

    #[test]
    fn counts_hits_and_misses_in_one_lock() {
        let c = PlanCache::new(4, 4);
        assert!(c.text("q1").is_none());
        c.miss();
        c.compiled("q1", None, &planned());
        assert!(c.text("q1").is_some());
        assert!(c.text("q1").is_some());
        assert_eq!(c.stats(), (2, 1));
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let mut c = Lru::new(2);
        c.insert("a".into(), ());
        c.insert("b".into(), ());
        // touch "a" so "b" is now the stalest
        assert!(c.get("a").is_some());
        c.insert("c".into(), ());
        assert_eq!(c.entries.len(), 2);
        assert!(c.get("a").is_some(), "recently used entry survives");
        assert!(c.get("b").is_none(), "least recently used entry evicted");
        assert!(c.get("c").is_some());
    }

    #[test]
    fn a_full_map_sheds_its_stalest_eighth_in_one_pass() {
        let mut c = Lru::new(64);
        for i in 0..64 {
            c.insert(format!("k{i}"), i);
        }
        // keep the first four recent; the eviction batch is 64 / 8
        for i in 0..4 {
            assert!(c.get(&format!("k{i}")).is_some());
        }
        c.insert("new".into(), 64);
        assert_eq!(c.entries.len(), 64 - 8 + 1);
        for i in 0..4 {
            assert!(c.get(&format!("k{i}")).is_some(), "k{i} was recent");
        }
        for i in 4..12 {
            assert!(c.get(&format!("k{i}")).is_none(), "k{i} was stalest");
        }
        assert!(c.get("k12").is_some());
        // re-inserting a present key never evicts
        let before = c.entries.len();
        c.insert("k12".into(), 0);
        assert_eq!(c.entries.len(), before);
    }

    #[test]
    fn a_shape_hit_serves_a_new_text_and_remembers_it() {
        let c = PlanCache::new(4, 4);
        let values: Arc<[AtomicValue]> = Arc::from([AtomicValue::Integer(1)]);
        assert!(matches!(c.shape("t1", "s", &values), ShapeLookup::Unknown));
        c.miss();
        c.compiled("t1", Some("s".into()), &planned());
        let other: Arc<[AtomicValue]> = Arc::from([AtomicValue::Integer(2)]);
        assert!(matches!(
            c.shape("t2", "s", &other),
            ShapeLookup::Shared(Planned { literals: Literals::Lifted(v), .. })
                if v[0] == AtomicValue::Integer(2)
        ));
        assert_eq!(c.stats(), (1, 1));
        // the text front now answers for t2 without the shape
        assert!(c.text("t2").is_some());
        // a value-dependent shape is remembered as such
        c.value_dependent("vd".into());
        assert!(matches!(
            c.shape("t3", "vd", &values),
            ShapeLookup::ValueDependent
        ));
        assert_eq!(c.stats(), (2, 1));
    }
}
