//! Every engine call the benchmark measures, one function per layer
//! entry point. The harness times these calls from outside; nothing
//! here reads a clock. A PR that changes one of the public items used
//! below must be preceded by a benchmark issue (see README.md).

use crate::workloads::Request;
use aldsp::compiler::{collect_sql_regions, count_physical_calls, CompiledQuery};
use aldsp::relational::{
    ppk_block_predicate, Dml, RelationalServer, ScalarExpr, Select, SqlValue, TableRef, Update,
};
use aldsp::security::{AuditLog, Principal, SecurityPolicy};
use aldsp::updates::{ConcurrencyPolicy, DataObject};
use aldsp::workload::{Governor, Priority, QueryBudget};
use aldsp::xdm::item::{Item, Sequence};
use aldsp::xdm::value::AtomicValue;
use aldsp::xdm::xml::serialize_sequence;
use aldsp::xdm::QName;
use aldsp::{AldspServer, CallCriteria, QueryRequest, QueryResponse, StatsSnapshot};
use aldsp_client::{Client, WireResultSet};
use aldsp_protocol::{join_items, write_frame, FrameReader, ServerMsg, WireOptions};
use aldsp_server::{serve, WireConfig, WireListener};
use std::net::SocketAddr;
use std::sync::Arc;

// ---- parser -----------------------------------------------------------

/// `parser`: text → AST, fail-fast.
pub fn parser_parse(text: &str) -> Result<(), String> {
    aldsp::parser::parse_module_strict(text)
        .map(drop)
        .map_err(|d| d.to_string())
}

// ---- compiler ---------------------------------------------------------

/// `compiler`: text (or deployed function) → executable plan,
/// bypassing the plan cache.
pub fn compiler_compile(server: &AldspServer, request: &Request) -> Result<CompiledQuery, String> {
    let compiled = match request {
        Request::Query { text } => server.compiler().compile_query(text),
        Request::Call { function, .. } => server.compiler().compile_call(function),
    };
    compiled.map_err(|ds| {
        ds.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    })
}

/// `(pushed SQL regions, physical calls left in the middleware)`.
pub fn compiler_plan_shape(plan: &CompiledQuery) -> (usize, usize) {
    (
        collect_sql_regions(&plan.plan).len(),
        count_physical_calls(&plan.plan),
    )
}

pub fn compiler_queries_compiled(server: &AldspServer) -> u64 {
    server.compiler().stats().queries_compiled
}

// ---- core -------------------------------------------------------------

/// `core`: the server facade — plan cache, matview lookup, admission,
/// runtime, security filter.
pub fn core_execute(
    server: &AldspServer,
    request: &Request,
    principal: &Principal,
) -> Result<QueryResponse, String> {
    let req = match request {
        Request::Query { text } => QueryRequest::new(text),
        Request::Call { function, args } => QueryRequest::call(function.clone()).args(args.clone()),
    };
    server
        .execute(req.principal(principal.clone()))
        .map_err(|e| e.to_string())
}

/// `(hits, misses)` of the plan cache.
pub fn core_plan_cache(server: &AldspServer) -> (u64, u64) {
    server.plan_cache_stats()
}

// ---- runtime ----------------------------------------------------------

/// `runtime`: interpret a compiled plan; raw (pre-security) items.
pub fn runtime_execute(
    server: &AldspServer,
    plan: &CompiledQuery,
    request: &Request,
) -> Result<Sequence, String> {
    let bindings: Vec<(&str, Sequence)> = match request {
        Request::Query { .. } => Vec::new(),
        Request::Call { args, .. } => plan
            .external_vars
            .iter()
            .map(String::as_str)
            .zip(args.iter().cloned())
            .collect(),
    };
    server
        .runtime()
        .execute(plan, &bindings)
        .map_err(|e| e.to_string())
}

/// Server-wide monotonic runtime counters.
pub fn runtime_stats(server: &AldspServer) -> StatsSnapshot {
    server.stats()
}

// ---- security ---------------------------------------------------------

/// `security`: the late per-principal element filter.
pub fn security_filter(policy: &SecurityPolicy, principal: &Principal, raw: Sequence) -> Sequence {
    policy.filter_result(principal, raw, &AuditLog::new())
}

// ---- xdm --------------------------------------------------------------

/// `xdm`: serialize a whole result.
pub fn xdm_serialize(items: &[Item]) -> String {
    serialize_sequence(items)
}

/// `xdm` as the wire server uses it: one serialization per item, with
/// the atomic flag the client needs to rejoin them.
pub fn xdm_serialize_each(items: &[Item]) -> Vec<(bool, String)> {
    items
        .iter()
        .map(|item| {
            (
                matches!(item, Item::Atomic(_)),
                serialize_sequence(std::slice::from_ref(item)),
            )
        })
        .collect()
}

// ---- protocol ---------------------------------------------------------

/// `protocol`, server side: one `Item` frame per item, then `Done`.
pub fn protocol_encode(items: &[(bool, String)]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut put = |msg: ServerMsg| {
        let (kind, payload) = msg.encode();
        write_frame(&mut out, kind, &payload).expect("result frames are far below the cap");
    };
    for (atomic, text) in items {
        put(ServerMsg::Item {
            atomic: *atomic,
            text: text.clone(),
        });
    }
    put(ServerMsg::Done {
        delivered: items.len() as u64,
    });
    out
}

/// `protocol`, client side: frames → messages → rejoined text.
/// Returns `(frames, text)`.
pub fn protocol_decode(bytes: &[u8]) -> Result<(u64, String), String> {
    let mut reader = FrameReader::new();
    let mut cursor = bytes;
    let mut items: Vec<(bool, String)> = Vec::new();
    let mut frames = 0u64;
    while let Some((kind, payload)) = reader.read_frame(&mut cursor).map_err(|e| e.to_string())? {
        frames += 1;
        match ServerMsg::decode(kind, &payload).map_err(|e| e.to_string())? {
            ServerMsg::Item { atomic, text } => items.push((atomic, text)),
            ServerMsg::Done { .. } => break,
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
    Ok((
        frames,
        join_items(items.iter().map(|(a, t)| (*a, t.as_str()))),
    ))
}

// ---- server / client --------------------------------------------------

/// `server`: the threaded front door on an ephemeral loopback port.
pub fn server_serve(server: Arc<AldspServer>) -> WireListener {
    serve("127.0.0.1:0", server, WireConfig::default()).expect("bind loopback")
}

pub fn server_handles_live(listener: &WireListener) -> usize {
    listener.handles().len()
}

/// `client`: connect + `Hello`.
pub fn client_connect(addr: SocketAddr, principal: &Principal) -> Result<Client, String> {
    let roles: Vec<&str> = principal.roles.iter().map(String::as_str).collect();
    Client::connect(addr, &principal.name, &roles).map_err(|e| e.to_string())
}

pub fn client_prepare(client: &mut Client, text: &str) -> Result<u64, String> {
    client
        .prepare(text)
        .map(|p| p.handle)
        .map_err(|e| e.to_string())
}

pub fn client_execute(client: &mut Client, text: &str) -> Result<WireResultSet, String> {
    client
        .execute(text, &WireOptions::default())
        .map_err(|e| e.to_string())
}

pub fn client_execute_prepared(client: &mut Client, handle: u64) -> Result<WireResultSet, String> {
    client
        .execute_prepared(handle, &WireOptions::default())
        .map_err(|e| e.to_string())
}

// ---- workload ---------------------------------------------------------

/// An enabled governor nobody else is using.
pub fn workload_governor() -> Arc<Governor> {
    Governor::new(aldsp::workload::GovernorConfig {
        max_concurrent: 4,
        queue_capacity: 16,
    })
}

/// `workload`: admit, then release the permit.
pub fn workload_admit(governor: &Arc<Governor>, budget: &QueryBudget) {
    drop(
        governor
            .admit(Priority::Interactive, budget)
            .expect("uncontended governor admits"),
    );
}

/// Total admission wait the server's governor has charged, ns.
pub fn workload_admission_wait_ns(server: &AldspServer) -> u64 {
    server.governor_stats().admission_wait_ns
}

// ---- matview ----------------------------------------------------------

/// Live materialized entries of `function` (0 when not materialized).
pub fn matview_entries(server: &AldspServer, function: &QName) -> usize {
    server.matview_status(function).map_or(0, |s| s.entries)
}

// ---- updates ----------------------------------------------------------

/// `updates`, read side: one instance of `function` selected by `CID`,
/// as a change-tracked object.
pub fn updates_read_object(
    server: &AldspServer,
    principal: &Principal,
    function: &QName,
    cid: &str,
) -> Result<DataObject, String> {
    let criteria = CallCriteria {
        filter: vec![("CID".into(), AtomicValue::str(cid))],
        ..Default::default()
    };
    server
        .read_object(principal, function, vec![], &criteria)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("no instance with CID {cid}"))
}

/// `updates`, write side: set `LAST_NAME` and submit under the
/// updated-values optimistic policy. Returns the statements issued.
pub fn updates_submit(
    server: &AldspServer,
    principal: &Principal,
    function: &QName,
    mut sdo: DataObject,
    last_name: &str,
) -> Result<usize, String> {
    sdo.set("LAST_NAME", Some(AtomicValue::str(last_name)))?;
    server
        .submit(principal, function, &sdo, ConcurrencyPolicy::UpdatedValues)
        .map(|report| report.statements.len())
        .map_err(|e| e.to_string())
}

/// `updates`: lineage analysis of a provider (cached after the first
/// call on a server).
pub fn updates_lineage(server: &AldspServer, function: &QName) -> Result<(), String> {
    server
        .lineage_of(function)
        .map(drop)
        .map_err(|e| e.to_string())
}

// ---- relational -------------------------------------------------------

/// What `ServerStats` counts, without cloning the retained SQL log on
/// every read of it more than this one time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SourceCounters {
    pub roundtrips: u64,
    pub rows: u64,
    pub sim_latency_ns: u64,
    pub peak_inflight: u64,
    pub statements_retained: u64,
}

pub fn relational_counters(db: &RelationalServer) -> SourceCounters {
    let s = db.stats();
    SourceCounters {
        roundtrips: s.roundtrips,
        rows: s.rows_returned,
        sim_latency_ns: s.latency_ns,
        peak_inflight: s.peak_inflight,
        statements_retained: s.statements.len() as u64,
    }
}

fn customer_select() -> Select {
    Select::new(TableRef::table("CUSTOMER", "t1"))
        .column(ScalarExpr::col("t1", "CID"), "c1")
        .column(ScalarExpr::col("t1", "LAST_NAME"), "c2")
}

/// The statements of the source probe, built once from the public SQL
/// types.
pub struct SourceProbe {
    point: Select,
    block: Select,
    scan: Select,
    update: Dml,
}

pub const PROBE_BLOCK: usize = 20;

impl Default for SourceProbe {
    fn default() -> SourceProbe {
        let cid = ScalarExpr::col("t1", "CID");
        let mut point = customer_select();
        point.where_ = Some(cid.clone().eq(ScalarExpr::Param(0)));
        let mut block = customer_select();
        block.where_ = Some(ppk_block_predicate(
            std::slice::from_ref(&cid),
            PROBE_BLOCK,
            0,
        ));
        SourceProbe {
            point,
            block,
            scan: customer_select(),
            // writes the value the row already holds, so the probe
            // leaves the data (and every golden) untouched
            update: Dml::Update(Update {
                table: "CUSTOMER".into(),
                alias: "t1".into(),
                set: vec![("CID".into(), ScalarExpr::Param(0))],
                where_: Some(cid.eq(ScalarExpr::Param(0))),
            }),
        }
    }
}

impl SourceProbe {
    /// `relational`: one point SELECT by primary key.
    pub fn point_select(&self, db: &RelationalServer, cid: &str) -> usize {
        db.execute_select(&self.point, &[SqlValue::str(cid)])
            .expect("probe select")
            .rows
            .len()
    }

    /// `relational`: one PP-k block fetch of [`PROBE_BLOCK`] keys.
    pub fn ppk_block(&self, db: &RelationalServer, cids: &[SqlValue]) -> usize {
        db.execute_select(&self.block, cids)
            .expect("probe block")
            .rows
            .len()
    }

    /// `relational`: full CUSTOMER scan; returns rows.
    pub fn scan(&self, db: &RelationalServer) -> usize {
        db.execute_select(&self.scan, &[])
            .expect("probe scan")
            .rows
            .len()
    }

    /// `relational`: phase 1 of a one-row update.
    pub fn prepare(&self, db: &RelationalServer, cid: &str) -> u64 {
        db.prepare(vec![(self.update.clone(), vec![SqlValue::str(cid)])])
            .expect("probe prepare")
    }

    pub fn rollback(&self, db: &RelationalServer, tx: u64) {
        db.rollback(tx);
    }

    /// `relational`: phase 2.
    pub fn commit(&self, db: &RelationalServer, tx: u64) -> usize {
        db.commit(tx).expect("probe commit")
    }
}
