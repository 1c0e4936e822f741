//! End-to-end tests for the `aldspd` network front door: a real TCP
//! loopback, the real wire protocol, the real engine behind it.
//!
//! The suite covers the session lifecycle (handshake, version and
//! token rejection), the cross-session plan-handle cache, governance
//! surfaced as typed wire errors (shed at the socket, mid-stream
//! deadline), protocol robustness under seeded corrupt byte streams,
//! client disconnect mid-stream, and the paper's §7 post-cache
//! security property: one shared plan handle, per-principal redaction.

mod common;

use aldsp::adaptors::NativeFunction;
use aldsp::relational::{Fault, FaultKind, FaultTrigger, LatencyModel, RelationalServer};
use aldsp::security::{DenialAction, ElementResource, Principal, SecurityPolicy};
use aldsp::xdm::item::{atomize, Item};
use aldsp::xdm::types::{ItemType, Occurrence, SequenceType};
use aldsp::xdm::value::{AtomicType, AtomicValue};
use aldsp::xdm::xml::serialize_sequence;
use aldsp::xdm::QName;
use aldsp::{AldspServer, QueryRequest, ServerBuilder};
use aldsp_client::{Client, ClientError};
use aldsp_protocol as proto;
use aldsp_protocol::{code, ClientMsg, ServerMsg, WireError, WireExec, WireOptions};
use aldsp_server::{serve, WireConfig, WireListener};
use common::{world_tuned, PROLOG};
use rand::{RngCore, SeedableRng, StdRng};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The running-example world served over a loopback socket.
struct Wired {
    server: Arc<AldspServer>,
    db1: Arc<RelationalServer>,
    listener: WireListener,
}

impl Wired {
    fn addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }
}

fn wired_cfg(
    n: usize,
    tune: impl FnOnce(ServerBuilder) -> ServerBuilder,
    config: WireConfig,
) -> Wired {
    let common::World { server, db1, .. } = world_tuned(n, tune);
    let server = Arc::new(server);
    let listener = serve("127.0.0.1:0", server.clone(), config).expect("bind loopback");
    Wired {
        server,
        db1,
        listener,
    }
}

fn wired(n: usize, tune: impl FnOnce(ServerBuilder) -> ServerBuilder) -> Wired {
    wired_cfg(n, tune, WireConfig::default())
}

fn customers_query() -> String {
    format!(
        "{PROLOG}
         for $c in c:CUSTOMER()
         order by $c/CID
         return <P>{{$c/CID}}{{$c/LAST_NAME}}</P>"
    )
}

/// Poll until the shared handle registry drains (sessions release
/// asynchronously when their connection thread unwinds).
fn wait_handles_empty(w: &Wired) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !w.listener.handles().is_empty() {
        assert!(
            Instant::now() < deadline,
            "handle registry never drained: {} live",
            w.listener.handles().len()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

// ---- handshake --------------------------------------------------------------

#[test]
fn handshake_rejects_version_mismatch() {
    let w = wired(3, |b| b);
    let mut s = TcpStream::connect(w.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    ClientMsg::Hello {
        version: proto::PROTOCOL_VERSION + 1,
        principal: "time-traveler".into(),
        roles: vec![],
        token: String::new(),
    }
    .write(&mut s)
    .expect("send hello");
    let reply = ServerMsg::read(&mut s)
        .expect("typed reply")
        .expect("frame");
    match reply {
        ServerMsg::Error { code: c, message } => {
            assert_eq!(c, code::VERSION_MISMATCH, "{message}");
        }
        other => panic!("expected version-mismatch error, got {other:?}"),
    }
    // the server closes after rejecting
    assert!(ServerMsg::read(&mut s).expect("clean close").is_none());
}

#[test]
fn handshake_enforces_token_when_configured() {
    let w = wired_cfg(
        3,
        |b| b,
        WireConfig {
            token: Some("open-sesame".into()),
        },
    );
    let err = Client::connect_with_token(w.addr(), "eve", &[], "guess")
        .expect_err("wrong token rejected");
    assert_eq!(err.code(), Some(code::AUTH), "{err}");
    // and the right token connects and queries
    let mut ok = Client::connect_with_token(w.addr(), "alice", &[], "open-sesame")
        .expect("right token accepted");
    let r = ok
        .execute("1 + 1", &WireOptions::default())
        .expect("query runs");
    assert_eq!(r.text(), "2");
}

#[test]
fn first_frame_must_be_hello() {
    let w = wired(3, |b| b);
    let mut s = TcpStream::connect(w.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    ClientMsg::Prepare {
        source: "1 + 1".into(),
    }
    .write(&mut s)
    .expect("send");
    let reply = ServerMsg::read(&mut s)
        .expect("typed reply")
        .expect("frame");
    assert!(
        matches!(reply, ServerMsg::Error { code: c, .. } if c == code::UNSUPPORTED),
        "{reply:?}"
    );
    assert!(ServerMsg::read(&mut s).expect("clean close").is_none());
}

#[test]
fn client_stalling_mid_frame_does_not_desync_the_stream() {
    // the session socket polls with a 50ms read timeout; a client that
    // stalls longer than that *inside* a frame must not lose the
    // already-consumed prefix (regression: the retry used to restart
    // from scratch and misparse the remainder of the frame)
    let w = wired(3, |b| b);
    let mut s = TcpStream::connect(w.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.set_nodelay(true).unwrap();
    let drip = |s: &mut TcpStream, frame: &[u8]| {
        // stall past the poll timeout inside the header, on the
        // header/body boundary, and inside the body
        for chunk in [&frame[..2], &frame[2..4], &frame[4..7], &frame[7..]] {
            s.write_all(chunk).expect("send chunk");
            s.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(120));
        }
    };
    let mut hello = Vec::new();
    ClientMsg::Hello {
        version: proto::PROTOCOL_VERSION,
        principal: "slowpoke".into(),
        roles: vec![],
        token: String::new(),
    }
    .write(&mut hello)
    .unwrap();
    drip(&mut s, &hello);
    let reply = ServerMsg::read(&mut s).expect("reply").expect("frame");
    assert!(matches!(reply, ServerMsg::HelloAck { .. }), "{reply:?}");
    // and the connection keeps working for a stalled query frame too
    let mut exec = Vec::new();
    ClientMsg::Execute {
        source: "1 + 1".into(),
        options: WireOptions::default(),
    }
    .write(&mut exec)
    .unwrap();
    drip(&mut s, &exec);
    let reply = ServerMsg::read(&mut s).expect("reply").expect("frame");
    assert!(
        matches!(reply, ServerMsg::Item { ref text, .. } if text == "2"),
        "{reply:?}"
    );
    let reply = ServerMsg::read(&mut s).expect("reply").expect("frame");
    assert!(
        matches!(reply, ServerMsg::Done { delivered: 1 }),
        "{reply:?}"
    );
}

// ---- plan handles -----------------------------------------------------------

#[test]
fn prepared_handles_are_shared_across_sessions_and_refcounted() {
    let w = wired(10, |b| b);
    let q = customers_query();
    let mut c1 = Client::connect(w.addr(), "alice", &[]).expect("connect");
    let mut c2 = Client::connect(w.addr(), "bob", &[]).expect("connect");
    let p1 = c1.prepare(&q).expect("prepare");
    assert!(!p1.shared, "first prepare mints the handle");
    let p2 = c2.prepare(&q).expect("prepare");
    assert_eq!(p1.handle, p2.handle, "same text, same handle");
    assert!(p2.shared, "second session sees the shared handle");
    assert_eq!(w.listener.handles().len(), 1);

    // both sessions execute the shared handle and agree byte-for-byte
    let r1 = c1
        .execute_prepared(p1.handle, &WireOptions::default())
        .expect("execute");
    let r2 = c2
        .execute_prepared(p2.handle, &WireOptions::default())
        .expect("execute");
    assert_eq!(r1.text(), r2.text());
    assert!(r1.delivered > 0);

    // refcounting: the handle outlives the first release
    assert!(c1.close_handle(p1.handle).expect("close"));
    assert!(
        !c1.close_handle(p1.handle).expect("close"),
        "double close reports not-held"
    );
    assert_eq!(w.listener.handles().len(), 1, "bob still holds it");
    let r3 = c2
        .execute_prepared(p2.handle, &WireOptions::default())
        .expect("still executable");
    assert_eq!(r3.text(), r1.text());
    assert!(c2.close_handle(p2.handle).expect("close"));
    assert_eq!(w.listener.handles().len(), 0, "dropped at zero refs");

    // a fresh prepare mints a new handle id
    let p3 = c2.prepare(&q).expect("prepare");
    assert!(!p3.shared);
    assert_ne!(p3.handle, p1.handle);
    c1.goodbye().expect("clean close");
    c2.goodbye().expect("clean close");
    wait_handles_empty(&w);
}

#[test]
fn compile_error_is_typed_and_the_session_survives() {
    let w = wired(3, |b| b);
    let mut c = Client::connect(w.addr(), "demo", &[]).expect("connect");
    let err = c
        .prepare("for $x in syntax error here")
        .expect_err("bogus query");
    assert_eq!(err.code(), Some(code::COMPILE), "{err}");
    // the connection is still usable afterwards
    let r = c
        .execute("1 + 1", &WireOptions::default())
        .expect("session survived");
    assert_eq!(r.text(), "2");
    c.goodbye().expect("clean close");
}

#[test]
fn unknown_handle_is_typed_and_the_session_survives() {
    let w = wired(3, |b| b);
    let mut c = Client::connect(w.addr(), "demo", &[]).expect("connect");
    let err = c
        .execute_prepared(12345, &WireOptions::default())
        .expect_err("nobody prepared 12345");
    assert_eq!(err.code(), Some(code::UNKNOWN_HANDLE), "{err}");
    let r = c
        .execute("2 + 3", &WireOptions::default())
        .expect("session survived");
    assert_eq!(r.text(), "5");
    c.goodbye().expect("clean close");
}

/// An execution override is outside input: a PP-k prefetch depth over
/// the cap (the engine runs one helper thread per staged block of a
/// multi-block join; a lone block the outer input ended inside is
/// fetched on the query's own thread, and only helper fetches count as
/// prefetched) is refused like an
/// unknown pushdown level, before the engine runs.
#[test]
fn prefetch_depth_over_the_cap_is_malformed_and_the_session_survives() {
    let w = wired(60, |b| b);
    let mut c = Client::connect(w.addr(), "demo", &[]).expect("connect");
    // a cross-source nested join: three PP-k blocks against the cards
    let q = format!(
        "{PROLOG} for $c in c:CUSTOMER()
         return <P>{{ $c/CID, for $k in cc:CREDIT_CARD() where $k/CID eq $c/CID return $k/CCN }}</P>"
    );
    let depth = |ppk_prefetch_depth| WireOptions {
        exec: Some(WireExec {
            ppk_prefetch_depth,
            ..WireExec::default()
        }),
        ..WireOptions::default()
    };
    let before = w.server.stats();
    let err = c
        .execute(&q, &depth(proto::MAX_PPK_PREFETCH_DEPTH + 1))
        .expect_err("depth over the cap");
    assert_eq!(err.code(), Some(code::MALFORMED), "{err}");
    let after = w.server.stats();
    assert_eq!(
        (after.sql_statements, after.ppk_prefetched_blocks),
        (before.sql_statements, before.ppk_prefetched_blocks),
        "refused before any statement or prefetch thread"
    );
    // the cap itself is served, on the same session
    let r = c
        .execute(&q, &depth(proto::MAX_PPK_PREFETCH_DEPTH))
        .expect("session survived");
    assert_eq!(r.items.len(), 60);
    assert_eq!(w.server.stats().ppk_blocks, after.ppk_blocks + 3);
    c.goodbye().expect("clean close");
}

// ---- wire results match the in-process engine -------------------------------

#[test]
fn wire_results_are_byte_identical_to_in_process_execution() {
    let w = wired(25, |b| b);
    let q = customers_query();
    let reference = serialize_sequence(
        &w.server
            .execute(QueryRequest::new(&q).principal(Principal::new("demo", &[])))
            .expect("in-process reference")
            .into_items(),
    );
    let mut c = Client::connect(w.addr(), "demo", &[]).expect("connect");
    let over_wire = c.execute(&q, &WireOptions::default()).expect("wire run");
    assert_eq!(over_wire.text(), reference);
    c.goodbye().expect("clean close");
}

// ---- governance at the socket -----------------------------------------------

#[test]
fn mid_stream_deadline_is_a_typed_wire_error_after_an_intact_prefix() {
    let w = wired(60, |b| b);
    let q = format!(
        "{PROLOG}
         for $c in c:CUSTOMER()
         order by $c/CID
         return $c/CID"
    );
    let baseline = w
        .server
        .execute(QueryRequest::new(&q).principal(Principal::new("demo", &[])))
        .expect("baseline")
        .into_items();
    // a 400 ms stall once the source has returned 20 rows dwarfs the
    // 60 ms deadline
    w.db1.set_faults(vec![Fault {
        trigger: FaultTrigger::RowsReturned(20),
        kind: FaultKind::LatencySpike(Duration::from_millis(400)),
    }]);
    let mut c = Client::connect(w.addr(), "demo", &[]).expect("connect");
    let mut prefix = Vec::new();
    let err = c
        .execute_streaming(
            &q,
            &WireOptions {
                deadline_ms: 60,
                ..WireOptions::default()
            },
            |item| {
                prefix.push((item.atomic, item.text.clone()));
                true
            },
        )
        .expect_err("deadline should fire");
    w.db1.clear_faults();
    assert!(
        err.is_deadline_exceeded(),
        "typed deadline on the wire: {err}"
    );
    assert!(
        prefix.len() < baseline.len(),
        "deadline fired after full delivery"
    );
    // whatever was streamed before the error is an intact prefix
    assert_eq!(
        proto::join_items(prefix.iter().map(|(a, t)| (*a, t.as_str()))),
        serialize_sequence(&baseline[..prefix.len()]),
        "streamed prefix corrupted"
    );
    // the connection survives a mid-stream error
    let r = c
        .execute("1 + 1", &WireOptions::default())
        .expect("session survived the deadline");
    assert_eq!(r.text(), "2");
    c.goodbye().expect("clean close");
}

#[test]
fn admission_shed_surfaces_as_overloaded_at_the_socket() {
    let w = wired(6, |b| b.admission(1, 1));
    w.db1.set_latency(LatencyModel::lan(100_000)); // 100 ms per roundtrip
    let q = customers_query();
    let addr = w.addr();
    let clients = 6;
    let barrier = Arc::new(Barrier::new(clients));
    let mut threads = Vec::new();
    for i in 0..clients {
        let barrier = barrier.clone();
        let q = q.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("shed-client-{i}"))
                .spawn(move || {
                    let mut c = Client::connect(addr, "demo", &[]).expect("connect");
                    barrier.wait();
                    c.execute(&q, &WireOptions::default())
                })
                .expect("spawn"),
        );
    }
    let mut ok = 0;
    let mut shed = 0;
    for t in threads {
        match t.join().expect("client thread") {
            Ok(_) => ok += 1,
            Err(e) => {
                assert!(e.is_overloaded(), "only typed shed errors expected: {e}");
                shed += 1;
            }
        }
    }
    assert!(
        ok >= 1,
        "at least one query admitted ({ok} ok, {shed} shed)"
    );
    assert!(
        shed >= 1,
        "the governor should shed at the socket ({ok} ok, {shed} shed)"
    );
}

// ---- protocol robustness ----------------------------------------------------

#[test]
fn oversized_frame_announcement_is_rejected_before_allocation() {
    let w = wired(3, |b| b);
    let mut s = TcpStream::connect(w.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // a 4-byte header announcing 2 GiB must not reserve 2 GiB
    s.write_all(&(proto::MAX_FRAME_LEN * 128).to_be_bytes())
        .expect("send header");
    let reply = ServerMsg::read(&mut s)
        .expect("typed reply")
        .expect("frame");
    assert!(
        matches!(reply, ServerMsg::Error { code: c, .. } if c == code::MALFORMED),
        "{reply:?}"
    );
    assert!(ServerMsg::read(&mut s).expect("clean close").is_none());
}

/// Property-style fuzz over seeded corrupt byte streams: whatever
/// garbage a connection sends — cold or after a valid handshake — the
/// server must answer with at most typed error frames, close the
/// connection (never hang), and keep serving well-formed clients.
#[test]
fn seeded_corrupt_streams_never_hang_or_poison_the_server() {
    let w = wired(4, |b| b);
    let addr = w.addr();
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xA1D5_0000 + seed);
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // half the seeds handshake first so corruption lands mid-session
        if seed % 2 == 1 {
            ClientMsg::Hello {
                version: proto::PROTOCOL_VERSION,
                principal: format!("fuzzer-{seed}"),
                roles: vec![],
                token: String::new(),
            }
            .write(&mut s)
            .expect("send hello");
            match ServerMsg::read(&mut s).expect("ack").expect("frame") {
                ServerMsg::HelloAck { .. } => {}
                other => panic!("expected HelloAck, got {other:?}"),
            }
        }
        let n = 1 + (rng.next_u64() % 96) as usize;
        let garbage: Vec<u8> = (0..n).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        // the server may already have replied and closed (reset) —
        // both sends are best-effort
        let _ = s.write_all(&garbage);
        let _ = s.shutdown(Shutdown::Write);
        // drain replies; the server must reach EOF, not hang
        loop {
            match proto::read_frame(&mut s) {
                Ok(None) => break,
                Ok(Some(_)) => continue,
                Err(WireError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    panic!("seed {seed}: server kept the corrupt connection open")
                }
                Err(_) => break, // connection reset is as good as EOF
            }
        }
        // the server is still healthy for a well-formed client
        let mut c = Client::connect(addr, "demo", &[]).expect("connect after corruption");
        let r = c
            .execute("1 + 1", &WireOptions::default())
            .expect("server poisoned by corrupt stream");
        assert_eq!(r.text(), "2", "seed {seed}");
        c.goodbye().expect("clean close");
    }
    wait_handles_empty(&w);
}

#[test]
fn client_disconnect_mid_stream_leaves_the_server_healthy() {
    let w = wired(40, |b| b);
    let q = customers_query();
    // stall the source mid-scan so the client is provably mid-stream
    // when it vanishes
    w.db1.set_faults(vec![Fault {
        trigger: FaultTrigger::RowsReturned(10),
        kind: FaultKind::LatencySpike(Duration::from_millis(200)),
    }]);
    let mut c = Client::connect(w.addr(), "demo", &[]).expect("connect");
    let _ = c.prepare(&q).expect("hold a handle across the disconnect");
    let mut seen = 0;
    let err = c
        .execute_streaming(&q, &WireOptions::default(), |_| {
            seen += 1;
            seen < 3
        })
        .expect_err("the consumer aborts");
    assert!(matches!(err, ClientError::Aborted), "{err}");
    drop(c); // the socket is already torn down
    w.db1.clear_faults();
    // the session thread must clean up its handle references …
    wait_handles_empty(&w);
    // … and the server keeps serving: a fresh client runs the same
    // query to completion
    let mut c2 = Client::connect(w.addr(), "demo", &[]).expect("connect");
    let r = c2.execute(&q, &WireOptions::default()).expect("full run");
    assert!(r.delivered > 3, "full delivery after the disconnect");
    c2.goodbye().expect("clean close");
}

// ---- §7: shared plans, per-principal results --------------------------------

/// The paper's post-cache security property, end to end over
/// concurrent connections: ONE plan handle shared by two principals,
/// redaction applied per-session after the cache, byte-stable results
/// while both sessions run at once.
#[test]
fn concurrent_sessions_share_one_handle_with_per_principal_redaction() {
    let mut policy = SecurityPolicy::new();
    policy.add_resource(ElementResource {
        path: vec![QName::local("SSN")],
        allowed_roles: vec!["admin".into()],
        denial: DenialAction::Replace(AtomicValue::str("###-##-####")),
    });
    let w = wired(30, |b| b.security(policy));
    let q = format!(
        "{PROLOG}
         for $c in c:CUSTOMER()
         order by $c/CID
         return <P><CID>{{fn:data($c/CID)}}</CID><SSN>{{fn:data($c/SSN)}}</SSN></P>"
    );
    // in-process per-principal references
    let reference = |name: &str, roles: &[&str]| {
        serialize_sequence(
            &w.server
                .execute(QueryRequest::new(&q).principal(Principal::new(name, roles)))
                .expect("reference run")
                .into_items(),
        )
    };
    let admin_ref = reference("admin", &["admin"]);
    let csr_ref = reference("csr", &["csr"]);
    assert!(admin_ref.contains("<SSN>000000001</SSN>"), "{admin_ref}");
    assert!(!admin_ref.contains("###-##-####"));
    assert!(csr_ref.contains("<SSN>###-##-####</SSN>"), "{csr_ref}");
    assert!(!csr_ref.contains("<SSN>000000001</SSN>"));

    // both sessions prepare the same text: ONE handle
    let mut admin = Client::connect(w.addr(), "admin", &["admin"]).expect("connect");
    let mut csr = Client::connect(w.addr(), "csr", &["csr"]).expect("connect");
    let pa = admin.prepare(&q).expect("prepare");
    let pc = csr.prepare(&q).expect("prepare");
    assert_eq!(pa.handle, pc.handle, "plans are user-independent");
    assert!(pc.shared, "second principal sees the shared handle");
    assert_eq!(w.listener.handles().len(), 1);

    // run both sessions concurrently
    let options = WireOptions::default();
    let barrier = Arc::new(Barrier::new(2));
    let run = |mut client: Client, handle: u64, options: WireOptions, barrier: Arc<Barrier>| {
        std::thread::spawn(move || {
            barrier.wait();
            let runs: Vec<String> = (0..4)
                .map(|_| {
                    client
                        .execute_prepared(handle, &options)
                        .expect("shared-handle run")
                        .text()
                })
                .collect();
            client.goodbye().expect("clean close");
            runs
        })
    };
    let ta = run(admin, pa.handle, options.clone(), barrier.clone());
    let tc = run(csr, pc.handle, options, barrier);
    let admin_runs = ta.join().expect("admin session");
    let csr_runs = tc.join().expect("csr session");

    // byte-stable within a principal, correctly redacted per principal
    for r in &admin_runs {
        assert_eq!(r, &admin_ref, "admin results byte-stable and unredacted");
    }
    for r in &csr_runs {
        assert_eq!(r, &csr_ref, "csr results byte-stable and redacted");
    }
    // and the engine really shared one compiled plan under the handle
    let (hits, _misses) = w.server.plan_cache_stats();
    assert!(hits >= 2, "shared plan cache should be hot (hits={hits})");
    wait_handles_empty(&w);
}

// ---- the coalesced wire path ------------------------------------------------

/// The wire size of an `Item` frame: length word, kind, atomic flag,
/// text length, text.
fn item_frame_len(text: &str) -> usize {
    4 + 1 + 1 + 4 + text.len()
}

#[test]
fn a_reply_under_the_buffer_size_is_one_write_and_one_read() {
    let w = wired(25, |b| b);
    let mut c = Client::connect(w.addr(), "demo", &[]).expect("connect");
    let point = c
        .prepare(&format!(
            r#"{PROLOG} for $c in c:CUSTOMER() where $c/CID eq "C0007" return $c/LAST_NAME"#
        ))
        .expect("prepare");
    let list = c.prepare(&customers_query()).expect("prepare");
    for (handle, items) in [(point.handle, 1), (list.handle, 25)] {
        let (server, client) = (w.listener.wire_stats(), c.wire_stats());
        let r = c
            .execute_prepared(handle, &WireOptions::default())
            .expect("runs");
        assert_eq!(r.items.len(), items);
        let (server, client) = (
            w.listener.wire_stats().since(&server),
            c.wire_stats().since(&client),
        );
        // the request: one frame, one write, one read
        assert_eq!((client.frames_out, client.writes, server.reads), (1, 1, 1));
        assert_eq!(client.bytes_out, server.bytes_in);
        // the reply: its Items and the Done, one write, one read
        assert_eq!(server.frames_out, items as u64 + 1);
        assert_eq!(client.frames_in, server.frames_out);
        assert!(server.bytes_out < proto::WIRE_BUF_LEN as u64);
        assert_eq!((server.writes, client.reads), (1, 1), "{items} items");
        assert_eq!(client.bytes_in, server.bytes_out);
    }
    c.goodbye().expect("clean close");
}

#[test]
fn a_long_reply_goes_out_in_buffer_sized_writes() {
    let w = wired(2000, |b| b);
    let mut c = Client::connect(w.addr(), "demo", &[]).expect("connect");
    let q = format!("{PROLOG} for $c in c:CUSTOMER() return <P>{{$c/CID}}{{$c/LAST_NAME}}</P>");
    let (server, client) = (w.listener.wire_stats(), c.wire_stats());
    let r = c.execute(&q, &WireOptions::default()).expect("scan");
    assert_eq!(r.items.len(), 2000);
    let (server, client) = (
        w.listener.wire_stats().since(&server),
        c.wire_stats().since(&client),
    );
    // replay the flush rule over the frames that arrived: a write each
    // time the buffered frames pass the buffer size, one for the rest
    let (mut writes, mut buffered, mut longest) = (0u64, 0usize, 0usize);
    for item in &r.items {
        buffered += item_frame_len(&item.text);
        if buffered >= proto::WIRE_BUF_LEN {
            writes += 1;
            longest = longest.max(buffered);
            buffered = 0;
        }
    }
    writes += 1; // the tail and the Done frame
    assert!(writes >= 2, "the scan must outgrow one buffer");
    assert_eq!(server.writes, writes);
    assert_eq!(server.frames_out, 2001);
    // every write but the last carries at least a buffer's worth
    assert!(server.writes <= server.bytes_out.div_ceil(proto::WIRE_BUF_LEN as u64));
    assert!(server.writes >= server.bytes_out.div_ceil(longest as u64));
    // and the client reads through its buffer, not frame by frame
    assert_eq!(client.frames_in, 2001);
    assert_eq!(client.bytes_in, server.bytes_out);
    assert!(
        client.reads * 10 <= client.frames_in,
        "{} reads for {} frames",
        client.reads,
        client.frames_in
    );
    c.goodbye().expect("clean close");
}

/// `lib:blob($n)` is a string of `$n` bytes; `lib:boom($n)` is `$n`
/// until `$n` reaches 3, where the operator panics.
fn with_blob_and_boom(b: ServerBuilder) -> ServerBuilder {
    let int = SequenceType::Seq(ItemType::Atomic(AtomicType::Integer), Occurrence::Optional);
    let string = SequenceType::Seq(ItemType::Atomic(AtomicType::String), Occurrence::Optional);
    let arg = |args: &[Vec<Item>]| match atomize(&args[0]).first() {
        Some(AtomicValue::Integer(n)) => *n,
        other => panic!("integer argument expected, got {other:?}"),
    };
    b.native_function(
        QName::new("urn:lib", "blob"),
        int.clone(),
        string,
        NativeFunction::new("blob", move |args| {
            Ok(vec![Item::Atomic(AtomicValue::str(
                &"x".repeat(arg(args) as usize),
            ))])
        }),
    )
    .expect("register blob")
    .native_function(
        QName::new("urn:lib", "boom"),
        int.clone(),
        int,
        NativeFunction::new("boom", move |args| match arg(args) {
            n if n >= 3 => panic!("boom at {n}"),
            n => Ok(vec![Item::Atomic(AtomicValue::Integer(n))]),
        }),
    )
    .expect("register boom")
}

/// Run `q` expecting a typed error after `prefix` intact items, then
/// prove the same connection still answers.
fn expect_prefix_then_error(c: &mut Client, q: &str, prefix: &[&str], code: u16) -> ClientError {
    let mut seen = Vec::new();
    let err = c
        .execute_streaming(q, &WireOptions::default(), |item| {
            seen.push(item.text.clone());
            true
        })
        .expect_err("the stream must end in an error frame");
    assert_eq!(err.code(), Some(code), "{err}");
    assert_eq!(seen, prefix, "intact prefix");
    let r = c
        .execute("1 + 1", &WireOptions::default())
        .expect("connection still framed and usable");
    assert_eq!(r.text(), "2");
    err
}

#[test]
fn oversized_item_after_a_buffered_prefix_is_prefix_then_internal() {
    let w = wired(3, with_blob_and_boom);
    let mut c = Client::connect(w.addr(), "demo", &[]).expect("connect");
    let q = format!(
        "{PROLOG} for $n in (1, 2, {}) return lib:blob($n)",
        proto::MAX_FRAME_LEN
    );
    let server = w.listener.wire_stats();
    let err = expect_prefix_then_error(&mut c, &q, &["x", "xx"], code::INTERNAL);
    assert!(err.to_string().contains("undeliverable"), "{err}");
    // the prefix waited in the buffer and left with the error frame;
    // the second write is the `1 + 1` reply
    let server = w.listener.wire_stats().since(&server);
    assert_eq!((server.frames_out, server.writes), (3 + 2, 2));
    c.goodbye().expect("clean close");
}

#[test]
fn a_panicking_operator_costs_its_query_not_the_session() {
    // one admission slot: a panic that leaked it would wedge the server
    let w = wired(3, |b| with_blob_and_boom(b).admission(1, 1));
    let mut c = Client::connect(w.addr(), "demo", &[]).expect("connect");
    let q = format!("{PROLOG} for $n in (1, 2, 3, 4) return lib:boom($n)");
    for _ in 0..2 {
        let err = expect_prefix_then_error(&mut c, &q, &["1", "2"], code::INTERNAL);
        assert!(err.to_string().contains("boom at 3"), "{err}");
    }
    // and for every other session
    let mut other = Client::connect(w.addr(), "demo", &[]).expect("connect");
    let r = other
        .execute(&customers_query(), &WireOptions::default())
        .expect("server survived");
    assert_eq!(r.delivered, 3);
    other.goodbye().expect("clean close");
    c.goodbye().expect("clean close");
}

/// `Prepare` runs parse, lift and compile on bytes from the wire: a
/// panic there is a typed `INTERNAL` for that request, and the session,
/// its handles and the server go on.
#[test]
fn a_panicking_prepare_costs_its_request_not_the_session() {
    let w = wired(3, |b| b.mutation(aldsp::Mutation::PanicInPushdown));
    let mut c = Client::connect(w.addr(), "demo", &[]).expect("connect");
    for _ in 0..2 {
        let err = c.prepare(&customers_query()).expect_err("compile panics");
        assert_eq!(err.code(), Some(code::INTERNAL), "{err}");
        assert!(err.to_string().contains("planted pushdown panic"), "{err}");
    }
    assert_eq!(w.listener.handles().len(), 0, "nothing was handed out");
    // the same session prepares and runs what does not panic
    let ok = c.prepare("1 + 1").expect("session still usable");
    let r = c
        .execute_prepared(ok.handle, &WireOptions::default())
        .expect("and so is its handle");
    assert_eq!(r.text(), "2");
    // and so does every other session
    let mut other = Client::connect(w.addr(), "demo", &[]).expect("connect");
    let r = other
        .execute("2 + 2", &WireOptions::default())
        .expect("server survived");
    assert_eq!(r.text(), "4");
    other.goodbye().expect("clean close");
    c.goodbye().expect("clean close");
}

#[test]
fn an_old_style_frame_by_frame_client_still_interoperates() {
    let w = wired(5, |b| b);
    let mut s = TcpStream::connect(w.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // header, kind and payload in separate writes, the way
    // `write_frame` on a bare socket sends them
    let send = |s: &mut TcpStream, msg: ClientMsg| {
        let mut frame = Vec::new();
        msg.write(&mut frame).unwrap();
        for part in [&frame[..4], &frame[4..5], &frame[5..]] {
            s.write_all(part).expect("send part");
        }
    };
    send(
        &mut s,
        ClientMsg::Hello {
            version: proto::PROTOCOL_VERSION,
            principal: "demo".into(),
            roles: vec![],
            token: String::new(),
        },
    );
    let ack = ServerMsg::read(&mut s).expect("reply").expect("frame");
    assert!(matches!(ack, ServerMsg::HelloAck { .. }), "{ack:?}");
    send(
        &mut s,
        ClientMsg::Execute {
            source: customers_query(),
            options: WireOptions::default(),
        },
    );
    // the reply arrives coalesced; read it one exact frame at a time
    let mut items = Vec::new();
    loop {
        match ServerMsg::read(&mut s).expect("reply").expect("frame") {
            ServerMsg::Item { atomic, text } => items.push((atomic, text)),
            ServerMsg::Done { delivered } => {
                assert_eq!(delivered, 5);
                break;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    let reference = serialize_sequence(
        &w.server
            .execute(QueryRequest::new(&customers_query()).principal(Principal::new("demo", &[])))
            .expect("in-process reference")
            .into_items(),
    );
    assert_eq!(
        proto::join_items(items.iter().map(|(a, t)| (*a, t.as_str()))),
        reference
    );
}

// ---- requests the client cannot encode --------------------------------------

#[test]
fn unencodable_requests_are_errors_not_panics_and_send_nothing() {
    let w = wired(3, |b| b);
    // more roles than the handshake admits
    let roles: Vec<String> = (0..=proto::MAX_ROLES).map(|i| format!("r{i}")).collect();
    let roles: Vec<&str> = roles.iter().map(String::as_str).collect();
    match Client::connect(w.addr(), "crowd", &roles).expect_err("too many roles") {
        ClientError::Request(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
        other => panic!("expected a request error, got {other}"),
    }
    // a query text over the frame cap, on an established connection
    let mut c = Client::connect(w.addr(), "demo", &[]).expect("connect");
    let before = c.wire_stats();
    let huge = " ".repeat(proto::MAX_FRAME_LEN as usize);
    for attempt in [
        c.execute(&huge, &WireOptions::default()).map(drop),
        c.prepare(&huge).map(drop),
    ] {
        match attempt.expect_err("over the frame cap") {
            ClientError::Request(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            other => panic!("expected a request error, got {other}"),
        }
    }
    assert_eq!(c.wire_stats(), before, "nothing was written");
    let r = c
        .execute("1 + 1", &WireOptions::default())
        .expect("connection left usable");
    assert_eq!(r.text(), "2");
    c.goodbye().expect("clean close");
}
