//! # aldsp-runtime — the ALDSP query execution engine (§5)
//!
//! Interprets plans produced by `aldsp-compiler`: a streaming FLWOR
//! tuple pipeline with the paper's data-centric operators — pushed-SQL
//! scans, the PP-k distributed join (§4.2), the single clustered group
//! operator with sort fallback (§5.2) — plus the ALDSP runtime
//! extensions: asynchronous evaluation (`fn-bea:async`, §5.4), the
//! mid-tier function cache (§5.5), and failover/timeout handling
//! (`fn-bea:fail-over` / `fn-bea:timeout`, §5.6). Execution statistics
//! expose the observable behavior the paper's design claims are about.

#![forbid(unsafe_code)]

pub mod cache;
pub mod env;
pub mod eval;
pub mod stats;
pub mod trace;
pub mod vm;

pub use cache::FunctionCache;
pub use env::{Env, EnvWriter};
pub use eval::{ExecCtx, RtError, RtResult, RuntimeInner};
pub use stats::{ExecStats, StatsSnapshot};
pub use trace::{NodeTrace, QueryTrace, TraceCollector, TraceKey, TraceLevel};
pub use vm::ExprVM;

pub use aldsp_workload::{QueryBudget, WorkloadError};

use aldsp_adaptors::AdaptorRegistry;
use aldsp_compiler::{CompiledQuery, LIFTED_PREFIX};
use aldsp_metadata::Registry;
use aldsp_xdm::item::{Item, Sequence};
use std::sync::Arc;

/// The outcome of one execution: the items (empty when a sink took
/// them), the number of items produced, this execution's exact stat
/// deltas, and the per-operator trace when one was requested.
#[derive(Debug)]
pub struct Execution {
    /// Materialized result items (empty when the request had a sink).
    pub items: Sequence,
    /// Items produced: collected, or handed to the sink (the item a
    /// sink stops on counts).
    pub delivered: u64,
    /// This execution's stat deltas, unpolluted by concurrent queries.
    pub per_query_stats: StatsSnapshot,
    /// The per-operator trace, when tracing was requested.
    pub trace: Option<QueryTrace>,
}

/// Everything one execution of a compiled plan may vary. The default is
/// an unbound, untraced, ungoverned, materialized run; streaming is a
/// sink choice, not a second API.
pub struct ExecRequest<'a> {
    /// External-variable bindings by name (unbound externals default to
    /// the empty sequence; an unbound lifted literal is a typed
    /// [`RtError::Plan`]). Values move into the initial tuple frame.
    pub bindings: Vec<(&'a str, Sequence)>,
    /// [`TraceLevel::Operators`] collects a per-operator [`QueryTrace`]
    /// keyed by the plan's node ids.
    pub trace: TraceLevel,
    /// Workload budget: the deadline is checked at tuple boundaries and
    /// before source roundtrips, and blocking operators charge their
    /// buffered state against the memory cap. A deadline hit mid-stream
    /// ends the run with the typed error after whatever prefix the sink
    /// already received.
    pub budget: Option<Arc<QueryBudget>>,
    /// Hand result items to this sink as the tuple pipeline produces
    /// them instead of collecting them (§2.2's incremental consumption);
    /// returning `false` stops execution early.
    pub sink: Option<&'a mut dyn FnMut(Item) -> bool>,
}

impl Default for ExecRequest<'_> {
    fn default() -> Self {
        ExecRequest {
            bindings: Vec::new(),
            trace: TraceLevel::Off,
            budget: None,
            sink: None,
        }
    }
}

/// The query execution engine.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RuntimeInner>,
}

impl Runtime {
    /// Create a runtime over metadata and live adaptors.
    pub fn new(metadata: Arc<Registry>, adaptors: Arc<AdaptorRegistry>) -> Runtime {
        Runtime {
            inner: Arc::new(RuntimeInner {
                metadata,
                adaptors,
                cache: FunctionCache::new(),
                stats: ExecStats::default(),
            }),
        }
    }

    /// Execute a compiled plan with external-variable bindings
    /// (unbound externals default to the empty sequence) — the
    /// all-defaults convenience over [`Runtime::run`].
    pub fn execute(
        &self,
        query: &CompiledQuery,
        bindings: &[(&str, Sequence)],
    ) -> RtResult<Sequence> {
        let req = ExecRequest {
            bindings: bindings.to_vec(),
            ..Default::default()
        };
        Ok(self.run(query, req)?.items)
    }

    /// Run a compiled plan under `req` — the one execution path. Budget
    /// counters are folded into the stats whether the run succeeds or
    /// not; the root trace node's row count is the delivered item count,
    /// so a trace always sums consistently with what was returned.
    pub fn run(&self, query: &CompiledQuery, mut req: ExecRequest<'_>) -> RtResult<Execution> {
        let env = bind_env(query, &mut req.bindings)?;
        let cx = ExecCtx::for_plan(self.inner.clone(), query, &req);
        let t0 = std::time::Instant::now();
        let mut items = Vec::new();
        let mut delivered = 0u64;
        // where values leave the evaluator as plain items; `false` once
        // the sink asked to stop
        let mut emit = |batch: vm::Val| match &mut req.sink {
            Some(on_item) => batch.into_sequence().into_iter().all(|item| {
                delivered += 1;
                on_item(item)
            }),
            None => {
                delivered += batch.as_slice().len() as u64;
                batch.append_to(&mut items);
                true
            }
        };
        let result = (|| -> RtResult<()> {
            match &query.plan.kind {
                // a FLWOR root streams tuple by tuple
                aldsp_compiler::CKind::Flwor { clauses, ret } => {
                    for tuple in eval::flwor_tuples(&cx, query.plan.node_id, clauses, &env) {
                        if !emit(eval::eval(&cx, ret, &tuple?)?) {
                            break;
                        }
                    }
                }
                _ => {
                    emit(eval::eval(&cx, &query.plan, &env)?);
                }
            }
            Ok(())
        })();
        merge_budget_counters(&cx);
        result?;
        if let Some(c) = &cx.trace {
            c.record(
                TraceKey::node(query.plan.node_id),
                NodeTrace {
                    rows_out: delivered,
                    wall_ns: t0.elapsed().as_nanos() as u64,
                    ..Default::default()
                },
            );
        }
        Ok(Execution {
            items,
            delivered,
            per_query_stats: cx.local.snapshot(),
            trace: cx.trace.as_ref().map(|c| c.finish()),
        })
    }

    /// The function cache (enable per-function TTLs here, §5.5).
    pub fn cache(&self) -> &FunctionCache {
        &self.inner.cache
    }

    /// Snapshot execution statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// The underlying shared state (for embedding).
    pub fn inner(&self) -> &Arc<RuntimeInner> {
        &self.inner
    }
}

/// The initial frame spans the whole plan; externals sit at the slots
/// the layout pass assigned them (0..n in declaration order). An
/// unbound external is the empty sequence — except a lifted literal
/// (named with [`LIFTED_PREFIX`]): the plan was compiled for a value of
/// exactly its type, so a missing one means plan and literal
/// environment do not belong together.
fn bind_env(query: &CompiledQuery, bindings: &mut [(&str, Sequence)]) -> RtResult<Env> {
    let mut w = Env::with_width(query.frame.width() as usize).writer();
    for var in &query.external_vars {
        let value = match bindings.iter_mut().find(|(n, _)| n == var) {
            Some((_, v)) => std::mem::take(v),
            None if var.starts_with(LIFTED_PREFIX) => {
                return Err(RtError::Plan(format!(
                    "no value bound for lifted literal ${var}"
                )))
            }
            None => Sequence::new(),
        };
        if let Some(slot) = query.frame.slot(var) {
            w.set(slot, value);
        }
    }
    Ok(w.finish())
}

/// Fold the budget's own counters (gate wait, peak held memory) into
/// both the global and the per-query stats scopes, so snapshots show
/// them alongside the operator counters. Called whether the query
/// succeeded or not — a deadline-killed query's permit waits are
/// exactly the interesting ones.
fn merge_budget_counters(cx: &ExecCtx) {
    use std::sync::atomic::Ordering;
    let Some(b) = &cx.budget else { return };
    let wait = b.permit_wait_ns();
    if wait > 0 {
        cx.rt
            .stats
            .permit_wait_ns
            .fetch_add(wait, Ordering::Relaxed);
        cx.local.permit_wait_ns.fetch_add(wait, Ordering::Relaxed);
    }
    let peak = b.peak_memory_bytes();
    if peak > 0 {
        cx.rt.stats.peak(&cx.rt.stats.peak_memory_bytes, peak);
        cx.local.peak(&cx.local.peak_memory_bytes, peak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aldsp_adaptors::SimulatedWebService;
    use aldsp_compiler::{Compiler, Options};
    use aldsp_metadata::{
        introspect_relational, introspect_web_service, WebServiceDescription, WebServiceOperation,
    };
    use aldsp_relational::{
        Catalog, Database, Dialect, LatencyModel, RelationalServer, SqlType, SqlValue, TableSchema,
    };
    use aldsp_xdm::item::Item;
    use aldsp_xdm::schema::ShapeBuilder;
    use aldsp_xdm::value::{AtomicType, AtomicValue};
    use aldsp_xdm::{xml, QName};
    use std::sync::Arc;

    /// The full running-example world: CUSTOMER/ORDER on db1 (Oracle),
    /// CREDIT_CARD on db2 (DB2), the rating web service, int2date natives.
    struct World {
        compiler: Compiler,
        runtime: Runtime,
        db1: Arc<RelationalServer>,
        db2: Arc<RelationalServer>,
        rating: Arc<SimulatedWebService>,
    }

    fn world() -> World {
        world_opts(|_| {})
    }

    fn world_opts(tune: impl FnOnce(&mut Options)) -> World {
        // db1: CUSTOMER + ORDER
        let mut cat1 = Catalog::new();
        cat1.add(
            TableSchema::builder("CUSTOMER")
                .col("CID", SqlType::Varchar)
                .col("LAST_NAME", SqlType::Varchar)
                .col_null("FIRST_NAME", SqlType::Varchar)
                .col_null("SINCE", SqlType::Integer)
                .col_null("SSN", SqlType::Varchar)
                .pk(&["CID"])
                .build()
                .unwrap(),
        )
        .unwrap();
        cat1.add(
            TableSchema::builder("ORDER")
                .col("OID", SqlType::Integer)
                .col("CID", SqlType::Varchar)
                .col_null("AMOUNT", SqlType::Decimal)
                .pk(&["OID"])
                .fk(&["CID"], "CUSTOMER", &["CID"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut db1 = Database::new();
        for t in cat1.tables() {
            db1.create_table(t.clone()).unwrap();
        }
        for (cid, last, first, since, ssn) in [
            ("C1", "Jones", Some("Ann"), Some(1000), Some("111-11-1111")),
            ("C2", "Smith", None, Some(2000), Some("222-22-2222")),
            ("C3", "Jones", Some("Bob"), None, None),
        ] {
            db1.insert(
                "CUSTOMER",
                vec![
                    SqlValue::str(cid),
                    SqlValue::str(last),
                    first.map(SqlValue::str).unwrap_or(SqlValue::Null),
                    since.map(SqlValue::Int).unwrap_or(SqlValue::Null),
                    ssn.map(SqlValue::str).unwrap_or(SqlValue::Null),
                ],
            )
            .unwrap();
        }
        for (oid, cid, amt) in [(1, "C1", "10.5"), (2, "C1", "20"), (3, "C3", "7.25")] {
            db1.insert(
                "ORDER",
                vec![
                    SqlValue::Int(oid),
                    SqlValue::str(cid),
                    SqlValue::Dec(aldsp_xdm::value::Decimal::parse(amt).unwrap()),
                ],
            )
            .unwrap();
        }
        // db2: CREDIT_CARD
        let mut cat2 = Catalog::new();
        cat2.add(
            TableSchema::builder("CREDIT_CARD")
                .col("CCN", SqlType::Varchar)
                .col("CID", SqlType::Varchar)
                .pk(&["CCN"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut db2 = Database::new();
        for t in cat2.tables() {
            db2.create_table(t.clone()).unwrap();
        }
        for (ccn, cid) in [("4000-1", "C1"), ("4000-2", "C1"), ("4000-3", "C2")] {
            db2.insert("CREDIT_CARD", vec![SqlValue::str(ccn), SqlValue::str(cid)])
                .unwrap();
        }
        // metadata
        let mut meta = aldsp_metadata::Registry::new();
        meta.register_service(&introspect_relational(&cat1, "db1", "urn:custDS").unwrap())
            .unwrap();
        meta.register_service(&introspect_relational(&cat2, "db2", "urn:ccDS").unwrap())
            .unwrap();
        let wsin = ShapeBuilder::element(QName::new("urn:ratingTypes", "getRating"))
            .required("lName", AtomicType::String)
            .required("ssn", AtomicType::String)
            .build();
        let wsout = ShapeBuilder::element(QName::new("urn:ratingTypes", "getRatingResponse"))
            .required("getRatingResult", AtomicType::Integer)
            .build();
        meta.register_service(&introspect_web_service(&WebServiceDescription {
            name: "ratingWS".into(),
            namespace: "urn:ratingWS".into(),
            operations: vec![WebServiceOperation {
                name: "getRating".into(),
                input: wsin.clone(),
                output: wsout.clone(),
            }],
        }))
        .unwrap();
        let (i2d, d2i) = aldsp_adaptors::native::int2date_pair();
        for (name, from, to) in [
            ("int2date", AtomicType::Integer, AtomicType::DateTime),
            ("date2int", AtomicType::DateTime, AtomicType::Integer),
        ] {
            meta.register_function(aldsp_metadata::PhysicalFunction {
                name: QName::new("urn:lib", name),
                kind: aldsp_metadata::FunctionKind::Library,
                params: vec![aldsp_metadata::ParamDecl {
                    name: "x".into(),
                    ty: aldsp_xdm::types::SequenceType::Seq(
                        aldsp_xdm::types::ItemType::Atomic(from),
                        aldsp_xdm::types::Occurrence::Optional,
                    ),
                }],
                return_type: aldsp_xdm::types::SequenceType::Seq(
                    aldsp_xdm::types::ItemType::Atomic(to),
                    aldsp_xdm::types::Occurrence::Optional,
                ),
                source: aldsp_metadata::SourceBinding::Native {
                    id: name.to_string(),
                },
            })
            .unwrap();
        }
        let meta = Arc::new(meta);
        // adaptors
        let db1 = Arc::new(RelationalServer::new("db1", Dialect::Oracle, db1));
        let db2 = Arc::new(RelationalServer::new("db2", Dialect::Db2, db2));
        let rating = Arc::new(SimulatedWebService::new("ratingWS").operation(
            "getRating",
            wsin,
            wsout,
            Arc::new(|req| {
                let ssn = req
                    .child_elements(&QName::new("urn:ratingTypes", "ssn"))
                    .next()
                    .map(|n| n.string_value())
                    .unwrap_or_default();
                let rating = 600 + (ssn.bytes().map(u64::from).sum::<u64>() % 250) as i64;
                Ok(aldsp_xdm::Node::element(
                    QName::new("urn:ratingTypes", "getRatingResponse"),
                    vec![],
                    vec![aldsp_xdm::Node::simple_element(
                        QName::new("urn:ratingTypes", "getRatingResult"),
                        AtomicValue::Integer(rating),
                    )],
                ))
            }),
        ));
        let mut adaptors = AdaptorRegistry::new();
        adaptors.register_connection(db1.clone());
        adaptors.register_connection(db2.clone());
        adaptors.register_service(rating.clone());
        adaptors.register_native(i2d);
        adaptors.register_native(d2i);
        let adaptors = Arc::new(adaptors);
        // compiler
        let mut opts = Options {
            dialects: adaptors.connection_dialects(),
            ..Default::default()
        };
        tune(&mut opts);
        let mut compiler = Compiler::new(meta.clone(), opts);
        compiler.declare_inverse(
            QName::new("urn:lib", "int2date"),
            QName::new("urn:lib", "date2int"),
        );
        let runtime = Runtime::new(meta, adaptors);
        World {
            compiler,
            runtime,
            db1,
            db2,
            rating,
        }
    }

    const PROLOG: &str = r#"
        declare namespace c = "urn:custDS";
        declare namespace cc = "urn:ccDS";
        declare namespace ws = "urn:ratingWS";
        declare namespace lib = "urn:lib";
        declare namespace r = "urn:ratingTypes";
    "#;

    fn run(w: &World, query: &str) -> aldsp_xdm::item::Sequence {
        let q = w
            .compiler
            .compile_query(&format!("{PROLOG}\n{query}"))
            .unwrap_or_else(|d| panic!("compile failed: {d:?}"));
        w.runtime
            .execute(&q, &[])
            .unwrap_or_else(|e| panic!("execute failed: {e}\nplan: {:#?}", q.plan))
    }

    fn as_xml(seq: &aldsp_xdm::item::Sequence) -> String {
        xml::serialize_sequence(seq)
    }

    #[test]
    fn simple_pushed_select() {
        let w = world();
        let out = run(
            &w,
            r#"for $c in c:CUSTOMER() where $c/CID eq "C1" return $c/FIRST_NAME"#,
        );
        assert_eq!(as_xml(&out), "<FIRST_NAME>Ann</FIRST_NAME>");
        assert_eq!(w.runtime.stats().sql_statements, 1);
        assert_eq!(w.db1.stats().roundtrips, 1);
    }

    #[test]
    fn same_source_join_single_statement() {
        let w = world();
        let out = run(
            &w,
            r#"for $c in c:CUSTOMER(), $o in c:ORDER()
               where $c/CID eq $o/CID
               return <CO>{ $c/CID, $o/OID }</CO>"#,
        );
        assert_eq!(
            as_xml(&out),
            "<CO><CID>C1</CID><OID>1</OID></CO><CO><CID>C1</CID><OID>2</OID></CO><CO><CID>C3</CID><OID>3</OID></CO>"
        );
        assert_eq!(w.db1.stats().roundtrips, 1, "join pushed as one statement");
    }

    #[test]
    fn nested_same_source_outer_join_preserves_empty_customers() {
        let w = world();
        let out = run(
            &w,
            r#"for $c in c:CUSTOMER()
               return <CUST>{ $c/CID, <ORDERS>{
                 for $o in c:ORDER() where $c/CID eq $o/CID return $o/OID
               }</ORDERS> }</CUST>"#,
        );
        let s = as_xml(&out);
        assert!(s.contains("<CUST><CID>C2</CID><ORDERS/></CUST>"), "{s}");
        assert!(
            s.contains("<CUST><CID>C1</CID><ORDERS><OID>1</OID><OID>2</OID></ORDERS></CUST>"),
            "{s}"
        );
        assert_eq!(
            w.db1.stats().roundtrips,
            1,
            "{:?}",
            w.db1.stats().statements
        );
        assert_eq!(w.runtime.stats().streaming_groups, 1);
        assert_eq!(w.runtime.stats().sorted_groups, 0);
    }

    #[test]
    fn cross_source_ppk_join() {
        let w = world();
        let out = run(
            &w,
            r#"for $c in c:CUSTOMER()
               return <P>{ $c/CID, <CARDS>{
                 for $k in cc:CREDIT_CARD() where $k/CID eq $c/CID return $k/CCN
               }</CARDS> }</P>"#,
        );
        let s = as_xml(&out);
        assert!(
            s.contains("<P><CID>C1</CID><CARDS><CCN>4000-1</CCN><CCN>4000-2</CCN></CARDS></P>"),
            "{s}"
        );
        assert!(s.contains("<P><CID>C3</CID><CARDS/></P>"), "{s}");
        assert_eq!(w.db2.stats().roundtrips, 1);
        assert_eq!(w.runtime.stats().ppk_blocks, 1);
        assert_eq!(w.runtime.stats().ppk_outer_tuples, 3);
        let sql = &w.db2.stats().statements[0];
        assert!(sql.matches('?').count() >= 3, "{sql}");
    }

    #[test]
    fn group_by_pushed_as_sql() {
        let w = world();
        let out = run(
            &w,
            r#"for $c in c:CUSTOMER()
               group $c as $p by $c/LAST_NAME as $l
               return <G>{ $l, count($p) }</G>"#,
        );
        let s = as_xml(&out);
        assert!(s.contains("Jones") && s.contains("2"), "{s}");
        let sql = &w.db1.stats().statements[0];
        assert!(sql.contains("GROUP BY"), "{sql}");
    }

    #[test]
    fn figure3_full_profile_integration() {
        // the complete running example: two databases + a web service
        let w = world();
        let out = run(
            &w,
            r#"for $CUSTOMER in c:CUSTOMER()
               where exists($CUSTOMER/SSN)
               return
                 <PROFILE>
                   <CID>{fn:data($CUSTOMER/CID)}</CID>
                   <LAST_NAME>{fn:data($CUSTOMER/LAST_NAME)}</LAST_NAME>
                   <ORDERS>{
                     for $o in c:ORDER() where $o/CID eq $CUSTOMER/CID return $o/OID
                   }</ORDERS>
                   <CREDIT_CARDS>{
                     for $k in cc:CREDIT_CARD() where $k/CID eq $CUSTOMER/CID return $k/CCN
                   }</CREDIT_CARDS>
                   <RATING>{
                     fn:data(ws:getRating(
                       <r:getRating>
                         <r:lName>{fn:data($CUSTOMER/LAST_NAME)}</r:lName>
                         <r:ssn>{fn:data($CUSTOMER/SSN)}</r:ssn>
                       </r:getRating>)/r:getRatingResult)
                   }</RATING>
                 </PROFILE>"#,
        );
        let s = as_xml(&out);
        assert!(s.contains("<CID>C1</CID>"), "{s}");
        assert!(
            s.contains("<ORDERS><OID>1</OID><OID>2</OID></ORDERS>"),
            "{s}"
        );
        assert!(
            s.contains("<CREDIT_CARDS><CCN>4000-1</CCN><CCN>4000-2</CCN></CREDIT_CARDS>"),
            "{s}"
        );
        assert!(s.contains("<RATING>"), "{s}");
        assert_eq!(
            w.rating.call_count(),
            2,
            "one rating call per customer with an SSN"
        );
    }

    #[test]
    fn inverse_function_pushes_and_computes() {
        let w = world();
        let q = w
            .compiler
            .compile_query(&format!(
                "{PROLOG}
                 declare variable $start as xs:dateTime external;
                 for $c in c:CUSTOMER()
                 where lib:int2date($c/SINCE) gt $start
                 return $c/CID"
            ))
            .unwrap();
        let start = AtomicValue::DateTime(aldsp_xdm::value::DateTime(1500));
        let out = w
            .runtime
            .execute(&q, &[("start", vec![Item::Atomic(start)])])
            .unwrap();
        assert_eq!(as_xml(&out), "<CID>C2</CID>");
        let sql = &w.db1.stats().statements[0];
        assert!(sql.contains("\"SINCE\" > ?"), "{sql}");
    }

    #[test]
    fn function_cache_turns_calls_into_lookups() {
        let w = world();
        w.rating.set_latency(std::time::Duration::from_millis(5));
        w.runtime.cache().enable(
            QName::new("urn:ratingWS", "getRating"),
            std::time::Duration::from_secs(60),
        );
        let query = r#"for $c in c:CUSTOMER()
            where $c/CID eq "C1"
            return fn:data(ws:getRating(
              <r:getRating>
                <r:lName>{fn:data($c/LAST_NAME)}</r:lName>
                <r:ssn>{fn:data($c/SSN)}</r:ssn>
              </r:getRating>)/r:getRatingResult)"#;
        let first = run(&w, query);
        let second = run(&w, query);
        assert_eq!(first, second);
        assert_eq!(w.rating.call_count(), 1, "second call served from cache");
        assert_eq!(w.runtime.stats().cache_hits, 1);
    }

    #[test]
    fn failover_to_alternate_source() {
        let w = world();
        w.db2.set_available(false);
        let query = r#"for $c in c:CUSTOMER()
               where $c/CID eq "C1"
               return <CARDS>{
                 fn-bea:fail-over(
                   for $k in cc:CREDIT_CARD() where $k/CID eq $c/CID return $k/CCN,
                   <UNAVAILABLE/>)
               }</CARDS>"#;
        let out = run(&w, query);
        let s = as_xml(&out);
        assert!(s.contains("<UNAVAILABLE/>"), "{s}");
        assert_eq!(w.runtime.stats().failovers_taken, 1);
        w.db2.set_available(true);
        let out = run(&w, query);
        assert!(as_xml(&out).contains("4000-1"));
    }

    #[test]
    fn timeout_returns_alternate_for_slow_source() {
        let w = world();
        w.rating.set_latency(std::time::Duration::from_millis(100));
        let out = run(
            &w,
            r#"for $c in c:CUSTOMER()
               where $c/CID eq "C1"
               return <R>{
                 fn-bea:timeout(
                   fn:data(ws:getRating(
                     <r:getRating>
                       <r:lName>{fn:data($c/LAST_NAME)}</r:lName>
                       <r:ssn>{fn:data($c/SSN)}</r:ssn>
                     </r:getRating>)/r:getRatingResult),
                   10,
                   -1)
               }</R>"#,
        );
        assert_eq!(as_xml(&out), "<R>-1</R>");
        assert_eq!(w.runtime.stats().timeouts_fired, 1);
    }

    #[test]
    fn async_overlaps_independent_latencies() {
        let w = world();
        w.rating.set_latency(std::time::Duration::from_millis(30));
        let query = r#"for $c in c:CUSTOMER()
            where $c/CID eq "C1"
            return <BOTH>{
              fn-bea:async(<A>{fn:data(ws:getRating(
                <r:getRating><r:lName>x</r:lName><r:ssn>1</r:ssn></r:getRating>)/r:getRatingResult)}</A>),
              fn-bea:async(<B>{fn:data(ws:getRating(
                <r:getRating><r:lName>y</r:lName><r:ssn>2</r:ssn></r:getRating>)/r:getRatingResult)}</B>)
            }</BOTH>"#;
        let t0 = std::time::Instant::now();
        let out = run(&w, query);
        let elapsed = t0.elapsed();
        let s = as_xml(&out);
        assert!(s.contains("<A>") && s.contains("<B>"), "{s}");
        assert!(
            elapsed < std::time::Duration::from_millis(55),
            "two 30ms calls should overlap, took {elapsed:?}"
        );
        assert_eq!(w.runtime.stats().async_spawns, 2);
    }

    #[test]
    fn conditional_construction_omits_empty() {
        let w = world();
        let out = run(
            &w,
            r#"for $c in c:CUSTOMER()
               return <CUST><ID>{fn:data($c/CID)}</ID><FIRST_NAME?>{fn:data($c/FIRST_NAME)}</FIRST_NAME></CUST>"#,
        );
        let s = as_xml(&out);
        assert!(
            s.contains("<CUST><ID>C1</ID><FIRST_NAME>Ann</FIRST_NAME></CUST>"),
            "{s}"
        );
        assert!(s.contains("<CUST><ID>C2</ID></CUST>"), "{s}");
    }

    #[test]
    fn navigation_function_executes() {
        let w = world();
        let out = run(
            &w,
            r#"for $c in c:CUSTOMER(), $o in c:getORDER($c)
               return <X>{ $c/CID, $o/OID }</X>"#,
        );
        assert_eq!(as_xml(&out).matches("<X>").count(), 3);
        assert_eq!(
            w.db1.stats().roundtrips,
            1,
            "navigation joined into one statement"
        );
    }

    #[test]
    fn order_by_and_subsequence_pushed() {
        let w = world();
        let out = run(
            &w,
            r#"let $cs := for $c in c:CUSTOMER()
                         order by $c/CID descending
                         return $c/CID
               return subsequence($cs, 2, 1)"#,
        );
        assert_eq!(as_xml(&out), "<CID>C2</CID>");
        let sql = &w.db1.stats().statements[0];
        assert!(sql.contains("ORDER BY"), "{sql}");
        assert!(sql.contains("ROWNUM") || sql.contains("rn"), "{sql}");
    }

    #[test]
    fn view_deployed_and_called_with_parameters() {
        let w = world();
        w.compiler
            .deploy_module(&format!(
                "{PROLOG}
                 declare namespace t = \"urn:t\";
                 declare function t:byId($id as xs:string) as element(CUSTOMER)* {{
                   for $c in c:CUSTOMER() where $c/CID eq $id return $c
                 }};"
            ))
            .unwrap();
        let q = w
            .compiler
            .compile_call(&QName::new("urn:t", "byId"))
            .unwrap();
        let out = w
            .runtime
            .execute(&q, &[("arg0", vec![Item::str("C3")])])
            .unwrap();
        let s = as_xml(&out);
        assert!(s.contains("<CID>C3</CID>"), "{s}");
        assert!(s.contains("<LAST_NAME>Jones</LAST_NAME>"), "{s}");
        assert!(!s.contains("<SSN>"), "{s}");
    }

    #[test]
    fn middleware_group_fallback() {
        // grouping with regrouped values used raw (the §3.1 example)
        let w = world();
        let out = run(
            &w,
            r#"for $c in c:CUSTOMER()
               let $cid := $c/CID
               group $cid as $ids by $c/LAST_NAME as $name
               return <CUSTOMER_IDS name="{$name}">{ $ids }</CUSTOMER_IDS>"#,
        );
        let s = as_xml(&out);
        assert!(
            s.contains(r#"<CUSTOMER_IDS name="Jones"><CID>C1</CID><CID>C3</CID></CUSTOMER_IDS>"#),
            "{s}"
        );
        assert!(
            s.contains(r#"<CUSTOMER_IDS name="Smith"><CID>C2</CID></CUSTOMER_IDS>"#),
            "{s}"
        );
        let st = w.runtime.stats();
        assert!(st.streaming_groups + st.sorted_groups >= 1);
    }

    #[test]
    fn ppk_respects_latency_economics() {
        let w = world();
        w.db2.set_latency(LatencyModel::lan(2000));
        let t0 = std::time::Instant::now();
        run(
            &w,
            r#"for $c in c:CUSTOMER()
               return <P>{ $c/CID, <CARDS>{
                 for $k in cc:CREDIT_CARD() where $k/CID eq $c/CID return $k/CCN
               }</CARDS> }</P>"#,
        );
        let elapsed = t0.elapsed();
        assert_eq!(w.db2.stats().roundtrips, 1);
        assert!(
            elapsed < std::time::Duration::from_millis(15),
            "one 2ms roundtrip, not three (with scheduling headroom): {elapsed:?}"
        );
    }

    #[test]
    fn ppk_results_identical_across_prefetch_depths() {
        // the cross-source dependent join with outer-join semantics
        // (C3 has no cards) must produce byte-identical output whether
        // blocks are fetched on demand (depth 0), double-buffered
        // (depth 1), or deeply pipelined (depth 4). Block size 1 forces
        // one block per customer: every block gets a helper and depth d
        // keeps min(d + 1, 3) fetches in flight. Filtered to the two
        // Joneses, the outer fits one default-size block: the whole join,
        // fetched on the query's own thread at every depth.
        let all = r#"for $c in c:CUSTOMER()
            return <P>{ $c/CID, <CARDS>{
              for $k in cc:CREDIT_CARD() where $k/CID eq $c/CID return $k/CCN
            }</CARDS> }</P>"#;
        let joneses = r#"for $c in c:CUSTOMER()
            where $c/LAST_NAME eq "Jones"
            return <P>{ $c/CID, <CARDS>{
              for $k in cc:CREDIT_CARD() where $k/CID eq $c/CID return $k/CCN
            }</CARDS> }</P>"#;
        for (query, block_size, blocks) in [(all, 1, 3u64), (joneses, 20, 1)] {
            let mut outputs = Vec::new();
            for depth in [0usize, 1, 4] {
                let w = world_opts(|o| {
                    o.ppk_block_size = block_size;
                    o.ppk_prefetch_depth = depth;
                });
                // a few ms per fetch, so staged helpers overlap for sure
                w.db2.set_latency(LatencyModel::lan(3000));
                let out = as_xml(&run(&w, query));
                let st = w.runtime.stats();
                let helpers = if depth == 0 || blocks == 1 { 0 } else { blocks };
                assert_eq!(
                    (st.ppk_blocks, st.ppk_prefetched_blocks),
                    (blocks, helpers),
                    "depth {depth}: blocks and helper fetches"
                );
                assert_eq!(
                    w.db2.stats().peak_inflight,
                    (depth as u64 + 1).min(blocks),
                    "depth {depth} over {blocks} block(s)"
                );
                outputs.push(out);
            }
            assert_eq!(outputs[0], outputs[1], "depth 1 changed results");
            assert_eq!(outputs[0], outputs[2], "depth 4 changed results");
            let s = &outputs[0];
            assert!(s.contains("<P><CID>C3</CID><CARDS/></P>"), "{s}");
            if blocks == 3 {
                assert!(
                    s.find("C1") < s.find("C2") && s.find("C2") < s.find("C3"),
                    "outer order must be preserved: {s}"
                );
            } else {
                assert!(!s.contains("C2"), "C2 is no Jones: {s}");
                assert!(
                    s.find("C1") < s.find("C3"),
                    "outer order must be preserved: {s}"
                );
            }
        }
    }

    #[test]
    fn shared_runtime_cache_survives_eight_threads() {
        let w = world();
        w.runtime.cache().enable(
            QName::new("urn:ratingWS", "getRating"),
            std::time::Duration::from_secs(60),
        );
        let query = r#"for $c in c:CUSTOMER()
            where exists($c/SSN)
            return fn:data(ws:getRating(
              <r:getRating>
                <r:lName>{fn:data($c/LAST_NAME)}</r:lName>
                <r:ssn>{fn:data($c/SSN)}</r:ssn>
              </r:getRating>)/r:getRatingResult)"#;
        let q = w
            .compiler
            .compile_query(&format!("{PROLOG}\n{query}"))
            .unwrap_or_else(|d| panic!("compile failed: {d:?}"));
        const THREADS: usize = 8;
        const ITERS: usize = 25;
        let expected = w.runtime.execute(&q, &[]).unwrap();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let rt = w.runtime.clone();
                let q = &q;
                let expected = &expected;
                s.spawn(move || {
                    for _ in 0..ITERS {
                        let out = rt.execute(q, &[]).unwrap();
                        assert_eq!(&out, expected, "cached result diverged");
                    }
                });
            }
        });
        let st = w.runtime.stats();
        // 2 cache-enabled calls per execution (C1 and C2), every one a
        // hit or a miss — the counters must balance exactly
        let attempts = ((THREADS * ITERS + 1) * 2) as u64;
        assert_eq!(st.cache_hits + st.cache_misses, attempts);
        // every miss ran the service; racing first calls allow a few
        assert_eq!(w.rating.call_count(), st.cache_misses);
        assert!(
            st.cache_misses >= 2,
            "two distinct keys must each miss once"
        );
        assert!(
            st.cache_misses <= (2 * (THREADS + 1)) as u64,
            "cache ineffective: {} misses",
            st.cache_misses
        );
        assert_eq!(w.runtime.cache().len(), 2);
    }

    #[test]
    fn errors_propagate_cleanly() {
        let w = world();
        w.db1.set_available(false);
        let q = w
            .compiler
            .compile_query(&format!("{PROLOG} for $c in c:CUSTOMER() return $c/CID"))
            .unwrap();
        let err = w.runtime.execute(&q, &[]).unwrap_err();
        assert!(matches!(err, RtError::Adaptor(_)), "{err}");
    }
}
