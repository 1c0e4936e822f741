//! The closed loop: set a workload's world up, warm it, run a fixed
//! number of ops one at a time (a caller of a data service waits for
//! its reply), check every reply, and turn latencies, counter deltas
//! and spans into the metrics of `report.rs`.
//!
//! Engine calls go through `layers.rs`; this file owns the clock.

use crate::fixtures::{
    build_server, build_sources, cid, profile_fn, ssn_policy, Sources, LAST_NAMES,
};
use crate::golden::{self, Golden};
use crate::host;
use crate::layers::{self, SourceCounters, SourceProbe, PROBE_BLOCK};
use crate::report::{median_f64, median_ns, percentile, Metrics, Report, END_TO_END, PER_LAYER};
use crate::trace::{Tracer, NO_PARENT};
use crate::workloads::{Class, Entry, Kind, Op, Request, Via, RW_PROVIDER};
use aldsp::compiler::CompiledQuery;
use aldsp::relational::SqlValue;
use aldsp::security::{Principal, SecurityPolicy};
use aldsp::workload::QueryBudget;
use aldsp::{AldspServer, MatViewPolicy, StatsSnapshot};
use aldsp_client::Client;
use aldsp_server::WireListener;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up is timed at least this many times per run and its median
/// reported; a set-up of milliseconds is repeated further, up to
/// [`SETUP_REPS_MAX`] times or [`SETUP_BUDGET`], so the median of a
/// small number is still a steady one.
const SETUP_REPS: usize = 3;
const SETUP_REPS_MAX: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);
/// The timed pass is cut into this many equal segments; throughput is
/// the median segment's.
const SEGMENTS: usize = 5;
/// A pass still running after this many times its nominal length
/// stops early (and says so): on a much slower host the frozen op
/// count would otherwise outrun the contract's time limits. Rates and
/// latencies stay valid; the exact counts do not.
const PASS_CAP: u32 = 2;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u64,
    /// Per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
    /// One-hundredth of a ten-second run: keeps the instrument honest
    /// under `cargo test`, measures nothing worth recording.
    pub smoke: bool,
    /// Where to leave `trace_<workload>.json`, if anywhere.
    pub out: Option<PathBuf>,
}

impl RunConfig {
    /// Timed ops of the run: whole blocks of ten (exact class mix),
    /// whole segments when there is more than one.
    fn timed_ops(&self) -> usize {
        let rate = self.kind.ops_per_second();
        if self.smoke {
            (rate / 100).max(1) * 10
        } else {
            (rate * self.seconds as usize / 50).max(1) * 50
        }
    }
}

/// Client threads of every workload: one request in flight.
pub const CLIENTS: usize = 1;

struct Wire {
    // declared before the listener: the client says Goodbye on drop,
    // then the listener joins its session
    client: Client,
    handles: Vec<u64>,
    listener: WireListener,
}

/// The harness's model of `getFlat()` under its own writes: the
/// blessed initial reply cut into per-customer rows, each patched as
/// the harness writes, so every read has an expected digest without
/// asking the engine.
struct RwModel {
    rows: Vec<String>,
    names: Vec<String>,
    writes: u64,
    /// Digest of `rows` joined: what the next read must hash to.
    digest: u64,
}

impl RwModel {
    fn redigest(&mut self) {
        self.digest = golden::digest_parts(self.rows.iter().map(String::as_str));
    }
}

struct Stage {
    kind: Kind,
    entries: Vec<Entry>,
    classes: Vec<Class>,
    golden: Golden,
    sources: Sources,
    server: Arc<AldspServer>,
    policy: SecurityPolicy,
    principal: Principal,
    wire: Option<Wire>,
    rw: Option<RwModel>,
    /// Plans the replays need for ops that did not compile.
    plans: HashMap<usize, Arc<CompiledQuery>>,
    complaints: usize,
}

/// The answer to one op, reduced to what checking needs.
enum Reply {
    Read {
        text: String,
        items: u64,
    },
    Written {
        customer: usize,
        name: String,
        statements: usize,
    },
}

struct Outcome {
    ns: u64,
    root: u32,
    reply: Result<Reply, String>,
}

#[derive(Clone, Copy)]
struct Counters {
    compiled: u64,
    plan_cache: (u64, u64),
    rt: StatsSnapshot,
    db1: SourceCounters,
    db2: SourceCounters,
    admission_wait_ns: u64,
}

#[derive(Default)]
struct PassStats {
    /// Latencies per class, ns, in op order.
    lat_ns: Vec<Vec<u64>>,
    segments: Vec<Segment>,
    attempted: u64,
    failed: u64,
    reads: u64,
    writes: u64,
    reply_bytes: u64,
    submit_statements: u64,
    cpu_us: f64,
    peak_rss_mb: f64,
    truncated: bool,
}

/// One of the equal parts a pass is cut into.
#[derive(Default, Clone, Copy)]
struct Segment {
    /// Time inside requests.
    busy_ns: u64,
    ops: u64,
    /// Result items delivered.
    items: u64,
}

impl PassStats {
    fn all_sorted(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.lat_ns.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    fn busy_ns(&self) -> u64 {
        self.segments.iter().map(|s| s.busy_ns).sum()
    }
}

impl Stage {
    /// Build the world, deploy, connect and prepare, load goldens, and
    /// send the first request of every class (where lazy set-up —
    /// call-plan compilation, the materialized fill, lineage — is
    /// paid). Everything `setup_s` covers.
    fn setup(kind: Kind) -> Result<Stage, String> {
        let golden = golden::load(kind.name())?;
        let (entries, classes) = kind.plan();
        let sources = build_sources(kind.world());
        let policy = match kind {
            Kind::WirePoint | Kind::AdhocCold => ssn_policy(),
            _ => SecurityPolicy::new(),
        };
        let server = Arc::new(build_server(&sources, |b| {
            let b = b.security(policy.clone());
            match kind {
                // admission on, never contended: one client
                Kind::WirePoint => b.admission(4, 64),
                Kind::ProfileRw => {
                    b.materialize(profile_fn(RW_PROVIDER), MatViewPolicy::PatchOrInvalidate)
                }
                _ => b,
            }
        }));
        let principal = Principal::new("bench", &["csr"]);
        let wire = match kind {
            Kind::WirePoint => {
                let listener = layers::server_serve(server.clone());
                let mut client = layers::client_connect(listener.local_addr(), &principal)?;
                let handles = entries
                    .iter()
                    .take(classes[0].len)
                    .map(|e| match &e.request {
                        Request::Query { text } => layers::client_prepare(&mut client, text),
                        Request::Call { .. } => Err("wire requests are texts".into()),
                    })
                    .collect::<Result<Vec<u64>, String>>()?;
                Some(Wire {
                    client,
                    handles,
                    listener,
                })
            }
            _ => None,
        };
        let mut stage = Stage {
            kind,
            entries,
            classes,
            golden,
            sources,
            server,
            policy,
            principal,
            wire,
            rw: None,
            plans: HashMap::new(),
            complaints: 0,
        };
        for class in 0..stage.classes.len() {
            let op = Op {
                class,
                entry: stage.classes[class].first,
            };
            let outcome = stage.perform(op, 0, None);
            if !stage.check(op, &outcome.reply) {
                return Err(format!("first {} op failed", stage.classes[class].name));
            }
            stage.absorb(outcome.reply);
        }
        Ok(stage)
    }

    /// One real op. With a tracer the op is the root span (and a
    /// write's two steps its children); without, only a clock pair.
    fn perform(&mut self, op: Op, seq: u32, mut tracer: Option<&mut Tracer>) -> Outcome {
        let via = self.classes[op.class].via;
        let t0 = Instant::now();
        let root = tracer
            .as_deref_mut()
            .map_or(NO_PARENT, |t| t.open(NO_PARENT, seq, "op"));
        let reply = match via {
            Via::InProcess | Via::InProcessSerialized => layers::core_execute(
                &self.server,
                &self.entries[op.entry].request,
                &self.principal,
            )
            .map(|resp| {
                let text =
                    (via == Via::InProcessSerialized).then(|| layers::xdm_serialize(resp.items()));
                Pending::Items(resp, text)
            }),
            Via::WireAdhoc => {
                let Request::Query { text } = &self.entries[op.entry].request else {
                    unreachable!("wire requests are texts")
                };
                let wire = self.wire.as_mut().expect("wire workload");
                layers::client_execute(&mut wire.client, text).map(Pending::Wire)
            }
            Via::WirePrepared => {
                let wire = self.wire.as_mut().expect("wire workload");
                layers::client_execute_prepared(&mut wire.client, wire.handles[op.entry])
                    .map(Pending::Wire)
            }
            Via::Write => self
                .write(op.entry, seq, root, tracer.as_deref_mut())
                .map(Pending::Done),
        };
        let ns = match tracer {
            Some(t) => t.close(root),
            None => t0.elapsed().as_nanos() as u64,
        };
        // past the clock: reduce the reply to text for checking
        let reply = reply.map(|pending| match pending {
            Pending::Items(resp, text) => Reply::Read {
                items: resp.delivered(),
                text: text.unwrap_or_else(|| layers::xdm_serialize(resp.items())),
            },
            Pending::Wire(set) => Reply::Read {
                items: set.delivered,
                text: set.text(),
            },
            Pending::Done(reply) => reply,
        });
        Outcome { ns, root, reply }
    }

    /// `read_object` by CID, set `LAST_NAME`, `submit`.
    fn write(
        &mut self,
        customer: usize,
        seq: u32,
        root: u32,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Reply, String> {
        let provider = profile_fn(RW_PROVIDER);
        let id = cid(customer);
        let name = format!("W{}", self.rw.as_ref().map_or(0, |m| m.writes));
        let (server, principal) = (&self.server, &self.principal);
        let read = || layers::updates_read_object(server, principal, &provider, &id);
        let sdo = match tracer.as_deref_mut() {
            Some(t) => t.span(root, seq, "updates.read_object", read).1,
            None => read(),
        }?;
        let submit = || layers::updates_submit(server, principal, &provider, sdo, &name);
        let statements = match tracer {
            Some(t) => t.span(root, seq, "updates.submit", submit).1,
            None => submit(),
        }?;
        Ok(Reply::Written {
            customer,
            name,
            statements,
        })
    }

    fn expected(&self, op: Op) -> Option<u64> {
        match &self.rw {
            Some(model) => Some(model.digest),
            None => self.golden.get(&self.entries[op.entry].key).copied(),
        }
    }

    /// Is the reply the right one? Errors, refusals and wrong answers
    /// all count as failed ops.
    fn check(&mut self, op: Op, reply: &Result<Reply, String>) -> bool {
        let problem = match reply {
            Err(e) => Some(format!("error: {e}")),
            Ok(Reply::Written { .. }) => None,
            Ok(Reply::Read { text, .. }) => match self.expected(op) {
                None => Some("no golden answer".to_string()),
                Some(d) if d != golden::digest(text) => Some(format!(
                    "wrong answer: digest {:016x}, expected {d:016x}",
                    golden::digest(text)
                )),
                Some(_) => None,
            },
        };
        if let Some(p) = &problem {
            self.complaints += 1;
            if self.complaints <= 5 {
                eprintln!(
                    "{}: {} {}: {p}",
                    self.kind.name(),
                    self.classes[op.class].name,
                    self.entries.get(op.entry).map_or("", |e| e.key.as_str())
                );
            }
        }
        problem.is_none()
    }

    /// Fold a checked reply into the harness's model of the data.
    fn absorb(&mut self, reply: Result<Reply, String>) {
        match (self.kind, reply) {
            (Kind::ProfileRw, Ok(Reply::Read { text, .. })) if self.rw.is_none() => {
                let rows: Vec<String> = text
                    .split_inclusive("</PROFILE>")
                    .map(str::to_string)
                    .collect();
                let names = (0..rows.len())
                    .map(|i| LAST_NAMES[i % LAST_NAMES.len()].to_string())
                    .collect();
                let mut model = RwModel {
                    rows,
                    names,
                    writes: 0,
                    digest: 0,
                };
                model.redigest();
                self.rw = Some(model);
            }
            (Kind::ProfileRw, Ok(Reply::Written { customer, name, .. })) => {
                let model = self.rw.as_mut().expect("reads precede writes");
                let old = format!("<LAST_NAME>{}</LAST_NAME>", model.names[customer]);
                let new = format!("<LAST_NAME>{name}</LAST_NAME>");
                model.rows[customer] = model.rows[customer].replace(&old, &new);
                model.names[customer] = name;
                model.writes += 1;
                model.redigest();
            }
            _ => {}
        }
    }

    fn counters(&self) -> Counters {
        Counters {
            compiled: layers::compiler_queries_compiled(&self.server),
            plan_cache: layers::core_plan_cache(&self.server),
            rt: layers::runtime_stats(&self.server),
            db1: layers::relational_counters(&self.sources.db1),
            db2: layers::relational_counters(&self.sources.db2),
            admission_wait_ns: layers::workload_admission_wait_ns(&self.server),
        }
    }

    /// The plan a replay interprets when the op itself did not compile.
    fn plan_for(&mut self, entry: usize) -> Result<Arc<CompiledQuery>, String> {
        if let Some(p) = self.plans.get(&entry) {
            return Ok(p.clone());
        }
        let plan = Arc::new(layers::compiler_compile(
            &self.server,
            &self.entries[entry].request,
        )?);
        self.plans.insert(entry, plan.clone());
        Ok(plan)
    }

    /// Re-enact a read through each layer's entry point, as children
    /// of the op's root span. Returns the plan's `(sql regions,
    /// physical calls)` and the bytes and frames its reply takes on the
    /// wire.
    fn replay(
        &mut self,
        op: Op,
        seq: u32,
        root: u32,
        compiled: bool,
        tracer: &mut Tracer,
    ) -> Result<ReplayFacts, String> {
        let via = self.classes[op.class].via;
        let plan = if compiled {
            let request = &self.entries[op.entry].request;
            let (compile, plan) = tracer.span(root, seq, "compiler.compile", || {
                layers::compiler_compile(&self.server, request)
            });
            if let Request::Query { text } = request {
                tracer
                    .span(compile, seq, "parser.parse", || layers::parser_parse(text))
                    .1?;
            }
            Arc::new(plan?)
        } else {
            self.plan_for(op.entry)?
        };
        let request = &self.entries[op.entry].request;
        let (core, resp) = tracer.span(root, seq, "core.execute", || {
            layers::core_execute(&self.server, request, &self.principal)
        });
        let resp = resp?;
        // a materialized hit never reaches the runtime, so neither
        // does its replay
        let raw = if resp.per_query_stats().matview_hits > 0 {
            resp.into_items()
        } else {
            // freed first: a second whole result allocated beside a
            // live one is measurably slower than the request was
            drop(resp);
            tracer
                .span(core, seq, "runtime.execute", || {
                    layers::runtime_execute(&self.server, &plan, request)
                })
                .1?
        };
        let (_, items) = tracer.span(core, seq, "security.filter", || {
            layers::security_filter(&self.policy, &self.principal, raw)
        });
        let mut facts = ReplayFacts {
            plan_shape: layers::compiler_plan_shape(&plan),
            ..Default::default()
        };
        match via {
            Via::InProcessSerialized => {
                tracer.span(root, seq, "xdm.serialize", || layers::xdm_serialize(&items));
            }
            Via::WireAdhoc | Via::WirePrepared => {
                let (_, each) = tracer.span(root, seq, "xdm.serialize", || {
                    layers::xdm_serialize_each(&items)
                });
                let (_, bytes) = tracer.span(root, seq, "protocol.encode", || {
                    layers::protocol_encode(&each)
                });
                let (_, decoded) = tracer.span(root, seq, "protocol.decode", || {
                    layers::protocol_decode(&bytes)
                });
                facts.wire_bytes = bytes.len() as u64;
                facts.wire_frames = decoded?.0;
            }
            Via::InProcess | Via::Write => {}
        }
        Ok(facts)
    }

    /// Run `ops` one at a time. With a tracer every read is replayed
    /// after its root span closes.
    fn pass(
        &mut self,
        ops: &[Op],
        segments: usize,
        cap: Duration,
        mut traced: Option<&mut Traced>,
    ) -> PassStats {
        let mut stats = PassStats {
            lat_ns: vec![Vec::new(); self.classes.len()],
            ..Default::default()
        };
        let per_segment = ops.len().div_ceil(segments);
        let started = Instant::now();
        let cpu0 = host::process_cpu_us();
        'pass: for (chunk_no, chunk) in ops.chunks(per_segment).enumerate() {
            let mut seg = Segment::default();
            for (i, &op) in chunk.iter().enumerate() {
                if started.elapsed() > cap {
                    stats.truncated = true;
                    if seg.ops > 0 {
                        stats.segments.push(seg);
                    }
                    break 'pass;
                }
                let seq = (chunk_no * per_segment + i) as u32;
                let compiled_before = layers::compiler_queries_compiled(&self.server);
                let outcome = self.perform(op, seq, traced.as_deref_mut().map(|t| &mut t.tracer));
                stats.lat_ns[op.class].push(outcome.ns);
                seg.busy_ns += outcome.ns;
                seg.ops += 1;
                stats.attempted += 1;
                let mut ok = self.check(op, &outcome.reply);
                match &outcome.reply {
                    Ok(Reply::Read { text, items }) => {
                        stats.reads += 1;
                        stats.reply_bytes += text.len() as u64;
                        seg.items += items;
                    }
                    Ok(Reply::Written { statements, .. }) => {
                        stats.writes += 1;
                        stats.submit_statements += *statements as u64;
                    }
                    Err(_) => {}
                }
                let is_read = matches!(outcome.reply, Ok(Reply::Read { .. }));
                self.absorb(outcome.reply);
                if let (Some(t), true) = (traced.as_deref_mut(), ok && is_read) {
                    let compiled =
                        layers::compiler_queries_compiled(&self.server) > compiled_before;
                    match self.replay(op, seq, outcome.root, compiled, &mut t.tracer) {
                        Ok(facts) => t.replays.push(facts),
                        Err(e) => {
                            eprintln!("{}: replay failed: {e}", self.kind.name());
                            ok = false;
                        }
                    }
                }
                if !ok {
                    stats.failed += 1;
                }
            }
            stats.segments.push(seg);
        }
        stats.cpu_us = host::process_cpu_us() - cpu0;
        stats.peak_rss_mb = host::peak_rss_mb();
        if stats.truncated {
            eprintln!(
                "{}: pass stopped after {} of {} ops ({cap:?} cap): counts are not the frozen ones",
                self.kind.name(),
                stats.attempted,
                ops.len(),
            );
        }
        stats
    }

    /// After the run: every written customer holds the last value
    /// written, and the materialized answer equals an unmaterialized
    /// twin's over the same sources. Returns failures found.
    fn final_checks(&mut self) -> u64 {
        let Some(model) = &self.rw else { return 0 };
        let request = &self.entries[0].request;
        let twin = build_server(&self.sources, |b| b);
        let read = |server: &AldspServer| {
            layers::core_execute(server, request, &self.principal)
                .map(|r| layers::xdm_serialize(r.items()))
        };
        let expected = model.digest;
        let mut failures = 0;
        for (who, text) in [("materialized", read(&self.server)), ("twin", read(&twin))] {
            match text {
                Ok(t) if golden::digest(&t) == expected => {}
                Ok(_) => {
                    eprintln!("profile_rw: final {who} read differs from the values written");
                    failures += 1;
                }
                Err(e) => {
                    eprintln!("profile_rw: final {who} read failed: {e}");
                    failures += 1;
                }
            }
        }
        failures
    }
}

/// A reply as it stands when the clock stops. Turning it into text
/// to check is the harness's cost, not the op's — except where the op
/// itself serialized (`Some` text).
// lives on the stack for one op; boxing the response would put an
// allocation inside the timed span
#[allow(clippy::large_enum_variant)]
enum Pending {
    Items(aldsp::QueryResponse, Option<String>),
    Wire(aldsp_client::WireResultSet),
    Done(Reply),
}

/// A traced pass's record: the spans, and what each replay learnt.
#[derive(Default)]
struct Traced {
    tracer: Tracer,
    replays: Vec<ReplayFacts>,
}

#[derive(Default, Clone, Copy)]
struct ReplayFacts {
    plan_shape: (usize, usize),
    wire_bytes: u64,
    wire_frames: u64,
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Run one workload once and report it.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let kind = cfg.kind;
    let n = cfg.timed_ops();
    let (min_reps, max_reps) = if cfg.trace || cfg.smoke {
        (1, 1)
    } else {
        (SETUP_REPS, SETUP_REPS_MAX)
    };
    let mut setups = Vec::new();
    let setting_up = Instant::now();
    let mut stage = loop {
        let t0 = Instant::now();
        let stage = Stage::setup(kind)?;
        setups.push(t0.elapsed().as_secs_f64());
        let enough = setups.len() >= min_reps && setting_up.elapsed() >= SETUP_BUDGET;
        if enough || setups.len() >= max_reps {
            break stage;
        }
        // dropped here, before the next one is built, so the memory
        // high-water mark is one world's, not two
    };
    let cap = Duration::from_secs(cfg.seconds) * PASS_CAP;
    let segments = if n >= 50 * SEGMENTS { SEGMENTS } else { 1 };

    // untimed warm-up: 10% of the timed ops, drawn from another seed
    // stream so the timed pass does not simply repeat it
    let warm = stage
        .kind
        .ops(&stage.classes, cfg.seed ^ 0x5EED, (n / 100).max(1) * 10);
    let warmed = stage.pass(&warm, 1, cap, None);
    let mut failed = warmed.failed;
    let mut attempted = warmed.attempted;

    let metrics = if cfg.trace {
        // counters from an untraced quarter-length pass, spans from a
        // traced eighth-length one (a traced op runs ~3x: the request,
        // then its replays)
        let count_ops = stage
            .kind
            .ops(&stage.classes, cfg.seed, (n / 40).max(1) * 10);
        let before = stage.counters();
        let counted = stage.pass(&count_ops, 1, cap, None);
        let after = stage.counters();
        let trace_ops = stage
            .kind
            .ops(&stage.classes, cfg.seed ^ 0x7ACE, (n / 80).max(1) * 10);
        let mut record = Traced::default();
        let traced = stage.pass(&trace_ops, 1, cap, Some(&mut record));
        failed += counted.failed + traced.failed;
        attempted += counted.attempted + traced.attempted;
        // a smoke run takes each probe's three samples and no more
        let budget = if cfg.smoke {
            Duration::ZERO
        } else {
            PROBE_BUDGET
        };
        let m = per_layer(
            &mut stage,
            &counted,
            (before, after),
            &traced,
            &record,
            budget,
        )?;
        print_bill(kind, &record.tracer);
        if let Some(dir) = &cfg.out {
            let path = dir.join(format!("trace_{}.json", kind.name()));
            std::fs::write(&path, record.tracer.to_json())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        m
    } else {
        let ops = stage.kind.ops(&stage.classes, cfg.seed, n);
        let timed = stage.pass(&ops, segments, cap, None);
        failed += timed.failed;
        attempted += timed.attempted;
        end_to_end(&stage, &timed, &setups)
    };
    failed += stage.final_checks();
    Ok(Report {
        workload: kind.name(),
        attempted,
        failed,
        // a layer the workload bypasses reads 0; an end-to-end metric
        // the run cannot carry is left out
        metrics: metrics.finish(cfg.trace),
    })
}

fn end_to_end(stage: &Stage, timed: &PassStats, setups: &[f64]) -> Metrics {
    let mut m = Metrics::new(END_TO_END);
    m.set("setup_s", median_f64(setups));
    let per_s = |count: fn(&Segment) -> u64| -> Vec<f64> {
        timed
            .segments
            .iter()
            .map(|s| count(s) as f64 / (s.busy_ns as f64 / 1e9))
            .collect()
    };
    let ops_per_s = per_s(|s| s.ops);
    m.set("ops_per_s", median_f64(&ops_per_s));
    let all = timed.all_sorted();
    m.set("p50_us", us(all[all.len() / 2] as f64));
    // omitted, not guessed, when the run is too short to carry it
    if let Some(p95) = percentile(&all, 0.95) {
        m.set("p95_us", us(p95 as f64));
    }
    m.set("rows_per_s", median_f64(&per_s(|s| s.items)));
    m.set("cpu_us_per_op", timed.cpu_us / timed.attempted as f64);
    m.set("peak_rss_mb", timed.peak_rss_mb);
    let fold = |f: fn(f64, f64) -> f64| ops_per_s.iter().copied().reduce(f).unwrap_or(0.0);
    println!(
        "{}: {} ops in {:.2} s inside requests; ops_per_s segments min {:.1} max {:.1}; latency samples n={}",
        stage.kind.name(),
        timed.attempted,
        timed.busy_ns() as f64 / 1e9,
        fold(f64::min),
        fold(f64::max),
        all.len()
    );
    for (class, lat) in stage.classes.iter().zip(&timed.lat_ns) {
        let mut sorted = lat.clone();
        sorted.sort_unstable();
        if let Some(&mid) = sorted.get(sorted.len() / 2) {
            println!(
                "  class {:<14} n={:<7} p50 {:>12.1} us",
                class.name,
                sorted.len(),
                us(mid as f64)
            );
        }
    }
    m
}

fn per_layer(
    stage: &mut Stage,
    counted: &PassStats,
    (before, after): (Counters, Counters),
    traced: &PassStats,
    record: &Traced,
    budget: Duration,
) -> Result<Metrics, String> {
    let Traced { tracer, replays } = record;
    let mut m = Metrics::new(PER_LAYER);
    let ops = counted.attempted;
    let per_op = |a: u64, b: u64| ratio(a - b, ops);

    // ---- spans: median duration, or median self time where a layer's
    // children are other layers
    let layers_ns = tracer.by_name();
    let dur = |name: &str| {
        layers_ns
            .get(name)
            .map_or(0.0, |l| us(median_ns(&l.dur_ns)))
    };
    let own = |name: &str| {
        layers_ns
            .get(name)
            .map_or(0.0, |l| us(median_ns(&l.self_ns)))
    };
    m.set("parser.parse_us", dur("parser.parse"));
    m.set("compiler.compile_us", own("compiler.compile"));
    m.set("core.execute_us", dur("core.execute"));
    m.set("core.self_us", own("core.execute"));
    m.set("runtime.execute_us", dur("runtime.execute"));
    m.set("security.filter_us", dur("security.filter"));
    m.set("xdm.serialize_us", dur("xdm.serialize"));
    m.set("protocol.encode_us", dur("protocol.encode"));
    m.set("protocol.decode_us", dur("protocol.decode"));
    m.set("updates.read_object_us", dur("updates.read_object"));
    m.set("updates.submit_us", dur("updates.submit"));
    let roots = layers_ns.get("op").cloned().unwrap_or_default();
    let root_total: i64 = roots.dur_ns.iter().sum();
    let root_self: i64 = roots.self_ns.iter().sum();
    m.set(
        "trace.unattributed_pct",
        100.0 * root_self as f64 / root_total.max(1) as f64,
    );
    let mean = |p: &PassStats| p.busy_ns() as f64 / p.attempted.max(1) as f64;
    m.set(
        "trace.overhead_pct",
        100.0 * (mean(traced) - mean(counted)) / mean(counted),
    );
    if stage.wire.is_some() {
        m.set("server.wire_overhead_us", us(median_ns(&roots.self_ns)));
    }

    // ---- counter deltas over the untraced pass: exact for a seed
    m.set(
        "compiler.compiles_per_op",
        per_op(after.compiled, before.compiled),
    );
    let (hits, misses) = (
        after.plan_cache.0 - before.plan_cache.0,
        after.plan_cache.1 - before.plan_cache.1,
    );
    m.set("core.plan_cache_hit_ratio", ratio(hits, hits + misses));
    let (a, b) = (&after.rt, &before.rt);
    m.set(
        "runtime.vm_ops_per_op",
        per_op(a.vm_ops_executed, b.vm_ops_executed),
    );
    m.set(
        "runtime.vm_fallback_subtrees_per_op",
        per_op(a.vm_fallback_subtrees, b.vm_fallback_subtrees),
    );
    m.set(
        "runtime.sql_statements_per_op",
        per_op(a.sql_statements, b.sql_statements),
    );
    m.set(
        "runtime.ppk_blocks_per_op",
        per_op(a.ppk_blocks, b.ppk_blocks),
    );
    m.set(
        "runtime.ppk_prefetch_wait_us_per_op",
        us(per_op(a.ppk_prefetch_wait_ns, b.ppk_prefetch_wait_ns)),
    );
    m.set(
        "runtime.source_calls_per_op",
        per_op(a.source_calls, b.source_calls),
    );
    m.set(
        "runtime.join_build_rows_per_op",
        per_op(a.join_build_rows, b.join_build_rows),
    );
    m.set("runtime.peak_grouped_tuples", a.peak_grouped_tuples as f64);
    m.set(
        "runtime.morsels_per_op",
        per_op(a.morsels_executed, b.morsels_executed),
    );
    let both = |f: fn(&SourceCounters) -> u64| {
        (
            f(&after.db1) + f(&after.db2),
            f(&before.db1) + f(&before.db2),
        )
    };
    let (ra, rb) = both(|c| c.roundtrips);
    m.set("relational.roundtrips_per_op", per_op(ra, rb));
    let (ra, rb) = both(|c| c.rows);
    m.set("relational.rows_per_op", per_op(ra, rb));
    let (ra, rb) = both(|c| c.sim_latency_ns);
    m.set("relational.sim_latency_us_per_op", us(per_op(ra, rb)));
    m.set(
        "relational.peak_inflight",
        after.db1.peak_inflight.max(after.db2.peak_inflight) as f64,
    );
    m.set(
        "relational.statements_retained",
        both(|c| c.statements_retained).0 as f64,
    );
    m.set(
        "workload.admission_wait_us_per_op",
        us(per_op(after.admission_wait_ns, before.admission_wait_ns)),
    );
    m.set(
        "xdm.serialize_bytes_per_op",
        ratio(counted.reply_bytes, counted.reads),
    );
    // per call of the view: a write's `read_object` calls it too
    m.set(
        "matview.hit_ratio",
        ratio(a.matview_hits - b.matview_hits, counted.attempted),
    );
    m.set(
        "matview.patches_per_write",
        ratio(a.matview_patches - b.matview_patches, counted.writes),
    );
    m.set(
        "matview.invalidations_per_write",
        ratio(
            a.matview_invalidations - b.matview_invalidations,
            counted.writes,
        ),
    );
    m.set(
        "matview.recomputes",
        (a.matview_recomputes - b.matview_recomputes) as f64,
    );
    m.set(
        "updates.statements_per_submit",
        ratio(counted.submit_statements, counted.writes),
    );
    // the bare materialized hit: the warm replay through the facade,
    // without the serialization the read op carries
    if stage.kind == Kind::ProfileRw {
        m.set("matview.hit_read_us", dur("core.execute"));
    }
    let prepared = stage.classes.iter().position(|c| c.name == "prepared");
    m.set(
        "client.roundtrip_us",
        prepared.map_or(0.0, |i| {
            let mut lat = counted.lat_ns[i].clone();
            lat.sort_unstable();
            us(lat[lat.len() / 2] as f64)
        }),
    );

    // ---- facts the replays established
    let n = replays.len().max(1) as f64;
    let mean_of = |f: fn(&ReplayFacts) -> u64| replays.iter().map(f).sum::<u64>() as f64 / n;
    m.set(
        "compiler.sql_regions_per_plan",
        mean_of(|r| r.plan_shape.0 as u64),
    );
    m.set(
        "compiler.physical_calls_per_plan",
        mean_of(|r| r.plan_shape.1 as u64),
    );
    m.set("protocol.bytes_per_op", mean_of(|r| r.wire_bytes));
    m.set("protocol.frames_per_op", mean_of(|r| r.wire_frames));

    probes(stage, budget, &mut m)?;
    Ok(m)
}

/// A probe stops sampling once it has spent this long (and has three
/// samples): `prepare` copies the whole database, which is milliseconds
/// on the small worlds and a fifth of a second on the scan world.
const PROBE_BUDGET: Duration = Duration::from_millis(300);

/// Median of up to `samples` timings of `f`, in us. `before` runs
/// outside the clock and hands `f` its input.
fn time_us<T>(
    samples: usize,
    budget: Duration,
    mut before: impl FnMut(usize) -> T,
    mut f: impl FnMut(T),
) -> f64 {
    let started = Instant::now();
    let mut times = Vec::with_capacity(samples);
    for i in 0..samples {
        let input = before(i);
        let t0 = Instant::now();
        f(input);
        times.push(t0.elapsed().as_nanos() as f64 / 1e3);
        if times.len() >= 3 && started.elapsed() > budget {
            break;
        }
    }
    median_f64(&times)
}

/// Direct timings of entry points no op isolates: the source under the
/// workload's own database, the governor, and (on their workloads)
/// connect, prepare and first lineage.
fn probes(stage: &mut Stage, budget: Duration, m: &mut Metrics) -> Result<(), String> {
    let customers = stage.kind.world().customers;
    let db = &stage.sources.db1;
    // the probe must not pay (or be charged) the workload's simulated
    // LAN: it times the source's own work
    let latency = db.latency();
    db.set_latency(aldsp::relational::LatencyModel::none());
    let probe = SourceProbe::default();
    let key = |i: usize| cid(i * 7 % customers);
    m.set(
        "relational.point_select_us",
        time_us(200, budget, key, |id| {
            probe.point_select(db, &id);
        }),
    );
    let block = |i: usize| -> Vec<SqlValue> {
        (0..PROBE_BLOCK)
            .map(|k| SqlValue::str(&cid((i * PROBE_BLOCK + k) % customers)))
            .collect()
    };
    m.set(
        "relational.ppk_block_us",
        time_us(100, budget, block, |keys| {
            probe.ppk_block(db, &keys);
        }),
    );
    let scan_us = time_us(
        20,
        budget,
        |_| (),
        |()| {
            probe.scan(db);
        },
    );
    m.set(
        "relational.scan_us_per_krow",
        scan_us * 1e3 / customers as f64,
    );
    // `prepare` dry-runs the statement against a copy of the database
    // and is quadratic in its size (the finding behind `submit`'s
    // cost): seconds per sample on the larger worlds. It is probed
    // where the workload itself prepares and commits.
    if stage.kind == Kind::ProfileRw {
        m.set(
            "relational.prepare_us",
            time_us(20, budget, key, |id| {
                let tx = probe.prepare(db, &id);
                probe.rollback(db, tx);
            }),
        );
        m.set(
            "relational.commit_us",
            time_us(
                20,
                budget,
                |i| probe.prepare(db, &key(i)),
                |tx| {
                    probe.commit(db, tx);
                },
            ),
        );
    }
    db.set_latency(latency);

    let governor = layers::workload_governor();
    let unlimited = QueryBudget::unlimited();
    let admits_us = time_us(
        50,
        budget,
        |_| (),
        |()| {
            for _ in 0..100 {
                layers::workload_admit(&governor, &unlimited);
            }
        },
    );
    m.set("workload.admit_us", admits_us / 100.0);

    let mut failure = None;
    if let Some(wire) = &mut stage.wire {
        m.set(
            "server.handles_live",
            layers::server_handles_live(&wire.listener) as f64,
        );
        let addr = wire.listener.local_addr();
        m.set(
            "server.connect_us",
            time_us(
                200,
                budget,
                |_| (),
                |()| {
                    failure = layers::client_connect(addr, &stage.principal)
                        .err()
                        .or(failure.take());
                },
            ),
        );
        let Request::Query { text } = &stage.entries[0].request else {
            unreachable!("wire requests are texts")
        };
        // a text no session has prepared: compiles, mints a handle
        let fresh = |i: usize| {
            text.replace("<P>", &format!("<P{i}>"))
                .replace("</P>", &format!("</P{i}>"))
        };
        m.set(
            "server.prepare_us",
            time_us(50, budget, fresh, |text| {
                failure = layers::client_prepare(&mut wire.client, &text)
                    .err()
                    .or(failure.take());
            }),
        );
    }
    if stage.kind == Kind::ProfileRw {
        let provider = profile_fn(RW_PROVIDER);
        m.set(
            "updates.lineage_us",
            time_us(
                5,
                budget,
                |_| build_server(&stage.sources, |b| b),
                |fresh| {
                    failure = layers::updates_lineage(&fresh, &provider)
                        .err()
                        .or(failure.take())
                },
            ),
        );
    }
    match failure {
        Some(e) => Err(format!("probe failed: {e}")),
        None => Ok(()),
    }
}

/// The itemised bill: each layer's share of the root spans, and the
/// part no layer accounts for. Shares sum to 100% by construction.
fn print_bill(kind: Kind, tracer: &Tracer) {
    let layers_ns = tracer.by_name();
    let total: i64 = layers_ns.get("op").map_or(0, |l| l.dur_ns.iter().sum());
    println!(
        "{}: where a traced op's time goes (n={} ops)",
        kind.name(),
        layers_ns.get("op").map_or(0, |l| l.dur_ns.len())
    );
    for (name, times) in &layers_ns {
        let own: i64 = times.self_ns.iter().sum();
        let label = if *name == "op" {
            "(unattributed)"
        } else {
            name
        };
        println!(
            "  {:<22} {:>6.1} %   n={}",
            label,
            100.0 * own as f64 / total.max(1) as f64,
            times.dur_ns.len()
        );
    }
}
