//! Noise-free work-counter golden (ROADMAP item 1d): a fixed request
//! set over the shared running-example world whose exact per-query
//! counters, delivered counts and serialized answers are compared to
//! `tests/golden/work_counters.txt`. Wall-clock (`*_ns`) counters are
//! zeroed, so the file repeats exactly on any host — a refactor of the
//! execution path must reproduce it byte for byte.
//!
//! The file's second half (after the `#### wire` line) is the wire
//! path's own golden: frames, socket writes, socket reads and bytes per
//! request for three requests over loopback, from the exact counters of
//! `Client::wire_stats` and `WireListener::wire_stats`.
//!
//! Each record also carries `warm_allocs`: the heap allocations of one
//! *warm repeat* of the request, counted by this binary's counting
//! `#[global_allocator]` over the whole process (the two tests take
//! turns, so nothing else runs). The request is repeated 20 times after
//! the recorded run; when the repeats disagree — helper threads racing
//! the caller — the record says `unstable` instead of a number. Helper
//! threads' allocations count too, and libtest's output capture adds
//! one to every thread a request spawns (PP-k prefetch), so compare and
//! bless in the harness's default mode, not under `--nocapture`.
//!
//! Re-bless (only when a counter's meaning changes on purpose):
//! `WORK_COUNTERS_BLESS=1 cargo test --test work_counters`

mod common;

use aldsp::relational::server::STATEMENT_LOG_CAP;
use aldsp::relational::{Dml, RelationalServer, ScalarExpr, Select, SqlValue, TableRef, Update};
use aldsp::security::Principal;
use aldsp::xdm::item::Item;
use aldsp::xdm::xml::serialize_sequence;
use aldsp::xdm::QName;
use aldsp::{ExecutionOptions, JoinStrategy, MatViewPolicy, QueryRequest, QueryResponse};
use aldsp_client::Client;
use aldsp_protocol::{WireOptions, WireStats};
use aldsp_server::{serve, WireConfig};
use common::{world, world_tuned, PROLOG};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};

/// Heap allocations of the whole process, whichever thread makes them:
/// `alloc`, `alloc_zeroed` and `realloc` count one each.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns, so `System`'s contract is this
// allocator's; the counter is a relaxed atomic outside allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Warm repeats measured per request.
const REPEATS: usize = 20;

/// The `warm_allocs` value of a request already executed once: the
/// allocation count every one of `REPEATS` further runs agrees on, or
/// `unstable` when they do not.
fn warm_allocs(mut run: impl FnMut()) -> String {
    let counts: Vec<u64> = (0..REPEATS)
        .map(|_| {
            let before = ALLOCS.load(Relaxed);
            run();
            ALLOCS.load(Relaxed) - before
        })
        .collect();
    if counts.iter().all(|n| *n == counts[0]) {
        counts[0].to_string()
    } else {
        "unstable".into()
    }
}

/// Fill a source's statement log — a bounded ring that until then
/// grows by doubling, one stray allocation every so many statements —
/// so that a warm repeat finds it in its steady state.
fn fill_statement_log(source: &RelationalServer, table: &str) {
    let one =
        Select::new(TableRef::table(table, "t1")).column(ScalarExpr::lit(SqlValue::Int(1)), "c1");
    for _ in 0..STATEMENT_LOG_CAP {
        source.execute_select(&one, &[]).expect("selects");
    }
}

/// Held by each test for its whole body: the allocation counter is
/// process-wide and the golden file is shared, so the tests take turns.
fn alone() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/work_counters.txt"
);

/// Separates the engine's records from the wire path's.
const WIRE_MARK: &str = "#### wire\n";

/// Compare `got` with its half of the golden file — or, blessing,
/// rewrite that half and leave the other as it is.
fn check_golden(wire: bool, got: &str) {
    let bless = std::env::var_os("WORK_COUNTERS_BLESS").is_some();
    let golden = match std::fs::read_to_string(GOLDEN) {
        Ok(text) => text,
        Err(_) if bless => String::new(),
        Err(e) => panic!("golden file (bless it first): {e}"),
    };
    let (engine_half, wire_half) = golden.split_once(WIRE_MARK).unwrap_or((&golden, ""));
    if bless {
        let (engine_half, wire_half) = if wire {
            (engine_half, got)
        } else {
            (got, wire_half)
        };
        std::fs::write(GOLDEN, format!("{engine_half}{WIRE_MARK}{wire_half}"))
            .expect("writes golden");
        return;
    }
    let want = if wire { wire_half } else { engine_half };
    assert!(
        got == want,
        "work counters drifted from tests/golden/work_counters.txt \
         (`--nocapture` moves the warm_allocs of thread-spawning requests)\n--- got ---\n{got}"
    );
}

const FLAT_MODULE: &str = r#"
    declare namespace tns = "urn:flatDS";
    declare namespace ns3 = "urn:custDS";
    declare function tns:getFlat() as element(FLAT)* {
      for $c in ns3:CUSTOMER()
      return <FLAT><CID>{fn:data($c/CID)}</CID><LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME></FLAT>
    };
"#;

/// Figure 3's profile view and its by-id selection (the shape of the
/// benchmark's `getProfileByID`).
const PROFILE_MODULE: &str = r#"
    declare namespace p = "urn:profileDS";
    declare namespace c = "urn:custDS";
    declare namespace cc = "urn:ccDS";
    declare function p:getProfile() as element(PROFILE)* {
      for $c in c:CUSTOMER()
      return <PROFILE>
        <CID>{fn:data($c/CID)}</CID>
        <ORDERS>{ for $o in c:ORDER() where $o/CID eq $c/CID return $o/OID }</ORDERS>
        <CARDS>{ for $k in cc:CREDIT_CARD() where $k/CID eq $c/CID return $k/CCN }</CARDS>
      </PROFILE>
    };
    declare function p:getProfileByID($id as xs:string) as element(PROFILE)* {
      p:getProfile()[CID eq $id]
    };
"#;

fn demo() -> Principal {
    Principal::new("demo", &[])
}

/// One golden record: the request's name, what it delivered, how many
/// plans the server's compiler built for it, the allocations of a warm
/// repeat, its exact counters with the wall-clock fields zeroed, and the
/// serialized items (the second half of what `run` returns, for a
/// streamed request whose response carries none). `run` executes the
/// request: once for the record, then `REPEATS` times warm.
fn record(
    out: &mut String,
    name: &str,
    compiled: impl Fn() -> u64,
    mut run: impl FnMut() -> (QueryResponse, Option<Vec<Item>>),
) {
    let before = compiled();
    let (resp, seen) = run();
    let compiled = compiled() - before;
    let warm = warm_allocs(|| drop(run()));
    let mut stats = *resp.per_query_stats();
    stats.ppk_prefetch_wait_ns = 0;
    stats.admission_wait_ns = 0;
    stats.permit_wait_ns = 0;
    let items = seen.as_deref().unwrap_or(resp.items());
    writeln!(
        out,
        "== {name}\ndelivered: {}\ncompiled: {compiled}\nwarm_allocs: {warm}\n{stats:#?}\nresult: {}\n",
        resp.delivered(),
        serialize_sequence(items)
    )
    .expect("string write");
}

#[test]
fn work_counters_match_the_golden() {
    let _turn = alone();
    let flat = QName::new("urn:flatDS", "getFlat");
    let w = world_tuned(30, |b| {
        b.materialize(flat.clone(), MatViewPolicy::PatchOrInvalidate)
    });
    w.server.deploy(FLAT_MODULE).expect("deploys");
    w.server.deploy(PROFILE_MODULE).expect("deploys");
    fill_statement_log(&w.db1, "CUSTOMER");
    fill_statement_log(&w.db2, "CREDIT_CARD");
    let mut out = String::new();
    // plans built by the server's own compiler (a request that
    // overrides a compile knob compiles under a derived one)
    let compiled = || w.server.compiler().stats().queries_compiled;
    type Tune = for<'a> fn(QueryRequest<'a>) -> QueryRequest<'a>;
    let adhoc: &[(&str, &str, Tune)] = &[
        (
            "point_lookup",
            r#"for $c in c:CUSTOMER() where $c/CID eq "C0007" return $c/LAST_NAME"#,
            |r| r,
        ),
        (
            // the shape the record above compiled, another literal
            "same_shape_second_literal",
            r#"for $c in c:CUSTOMER() where $c/CID eq "C0011" return $c/LAST_NAME"#,
            |r| r,
        ),
        (
            "same_source_join",
            "for $c in c:CUSTOMER(), $o in c:ORDER()
             where $c/CID eq $o/CID and $c/SINCE ge 1020
             return <CO>{ $c/CID, $o/OID }</CO>",
            |r| r,
        ),
        (
            "cross_source_ppk_profile",
            "for $c in c:CUSTOMER()
             return <P>{ $c/CID,
               <ORDERS>{ for $o in c:ORDER() where $o/CID eq $c/CID return $o/OID }</ORDERS>,
               <CARDS>{ for $k in cc:CREDIT_CARD() where $k/CID eq $c/CID return $k/CCN }</CARDS>,
               <RATING>{ fn:data(ws:getRating(
                 <r:getRating>
                   <r:lName>{fn:data($c/LAST_NAME)}</r:lName>
                   <r:ssn>{fn:data($c/SSN)}</r:ssn>
                 </r:getRating>)/r:getRatingResult) }</RATING> }</P>",
            |r| r,
        ),
        (
            "sorted_group_by",
            "for $o in c:ORDER()
             let $oid := $o/OID
             group $oid as $ids by fn:substring($o/CID, 5, 1) as $k
             return <G>{ $k, fn:count($ids) }</G>",
            // budgeted: the peak-memory fold is part of the counters
            |r| r.memory_budget(1 << 20),
        ),
        (
            "pre_clustered_group_by",
            "for $c in c:CUSTOMER()
             return <CUST>{ $c/CID, <ORDERS>{
               for $o in c:ORDER() where $c/CID eq $o/CID return $o/OID
             }</ORDERS> }</CUST>",
            |r| r,
        ),
        (
            "order_by",
            "for $o in c:ORDER()
             order by fn:substring($o/CID, 5, 1) descending, $o/OID ascending
             return $o/OID",
            |r| r,
        ),
        (
            "hash_join",
            "for $c in c:CUSTOMER(), $k in cc:CREDIT_CARD()
             where $k/CID eq $c/CID
             return <R>{ $c/CID, $k/CCN }</R>",
            |r| r.execution(ExecutionOptions::new().join_strategy(JoinStrategy::Hash)),
        ),
        (
            // `fn:substring` is not pushable, so the group runs in the
            // middleware; its partition is only counted
            "count_only_group_by",
            "for $c in c:CUSTOMER()
             group $c as $g by fn:substring($c/CID, 5, 2) as $k
             return <G><K>{$k}</K><N>{fn:count($g)}</N></G>",
            |r| r,
        ),
        (
            // keyed by a column, but the `order by` after it keeps the
            // group in the middleware; its partition is only counted
            "count_only_group_then_order_by",
            "for $c in c:CUSTOMER()
             group $c as $g by $c/LAST_NAME as $k
             order by $k
             return <G><K>{$k}</K><N>{fn:count($g)}</N></G>",
            |r| r,
        ),
    ];
    for (name, body, tune) in adhoc {
        let q = format!("{PROLOG}\n{body}");
        record(&mut out, name, compiled, || {
            let request = tune(QueryRequest::new(&q).principal(demo()));
            (w.server.execute(request).expect("executes"), None)
        });
    }

    // a view called with an argument plans like the text with the
    // argument as a literal: CUSTOMER ⟕ ORDER in one statement, the
    // cards in a second
    record(&mut out, "view_call_with_argument", compiled, || {
        let request = QueryRequest::call(QName::new("urn:profileDS", "getProfileByID"))
            .args(vec![vec![Item::str("C0007")]])
            .principal(demo());
        (w.server.execute(request).expect("calls"), None)
    });

    // a streamed run whose sink stops on its fifth item
    let q = format!("{PROLOG} for $c in c:CUSTOMER() return <C>{{ $c/CID, $c/FIRST_NAME }}</C>");
    record(&mut out, "streamed_early_stop", compiled, || {
        let mut seen = Vec::new();
        let mut sink = |item: Item| {
            seen.push(item);
            seen.len() < 5
        };
        let request = QueryRequest::new(&q).principal(demo()).stream_to(&mut sink);
        let resp = w.server.execute(request).expect("streams");
        (resp, Some(seen))
    });

    // a materialized data-service call, cold (recompute + fill) then
    // warm; a repeat of either is a warm hit
    for name in ["materialized_call_cold", "materialized_call_warm"] {
        record(&mut out, name, compiled, || {
            let request = QueryRequest::call(flat.clone()).principal(demo());
            (w.server.execute(request).expect("calls"), None)
        });
    }

    check_golden(false, &out);
}

/// Socket work per request over loopback. One client, so the
/// listener's counters are this session's; each side counts a reply
/// before writing it, so both snapshots are complete once the client
/// holds the reply. How many reads the client needs for a reply longer
/// than its buffer depends on how the kernel hands the bytes over, so
/// for the scan that one number is bounded, not recorded. `warm_allocs`
/// here covers client, session thread and engine together.
#[test]
fn wire_counters_match_the_golden() {
    // taken first, so released last: the listener's threads are gone
    // before the other test starts counting
    let _turn = alone();
    let w = world(2000);
    fill_statement_log(&w.db1, "CUSTOMER");
    let listener = serve("127.0.0.1:0", Arc::new(w.server), WireConfig::default()).expect("bind");
    let mut c = Client::connect(listener.local_addr(), "demo", &[]).expect("connect");
    let options = WireOptions::default();
    let point = c
        .prepare(&format!(
            r#"{PROLOG} for $c in c:CUSTOMER() where $c/CID eq "C0007" return $c/LAST_NAME"#
        ))
        .expect("prepares");
    let list = format!(
        "{PROLOG} for $c in c:CUSTOMER() where $c/SINCE lt 1020
         return <C>{{ $c/CID, $c/LAST_NAME }}</C>"
    );
    let scan = format!("{PROLOG} for $c in c:CUSTOMER() return <C>{{ $c/CID, $c/LAST_NAME }}</C>");
    let mut out = String::new();
    let side = |s: &WireStats, reads: String| {
        format!(
            "reads {reads}, frames_in {}, bytes_in {}, writes {}, frames_out {}, bytes_out {}",
            s.frames_in, s.bytes_in, s.writes, s.frames_out, s.bytes_out
        )
    };
    for name in ["prepared_point_lookup", "list_of_20", "scan_of_2000"] {
        let run = |c: &mut Client| {
            match name {
                "prepared_point_lookup" => c.execute_prepared(point.handle, &options),
                "list_of_20" => c.execute(&list, &options),
                _ => c.execute(&scan, &options),
            }
            .expect("executes")
        };
        let (server, client) = (listener.wire_stats(), c.wire_stats());
        let reply = run(&mut c);
        let (server, client) = (
            listener.wire_stats().since(&server),
            c.wire_stats().since(&client),
        );
        // both ends of the loopback connection allocate in this process
        let warm = warm_allocs(|| drop(run(&mut c)));
        let client_reads = if server.writes == 1 {
            client.reads.to_string()
        } else {
            assert!(client.reads * 10 <= client.frames_in, "{client:?}");
            "(at most a tenth of frames_in)".into()
        };
        writeln!(
            out,
            "== {name}\ndelivered: {}\nwarm_allocs: {warm}\nclient: {}\nserver: {}\n",
            reply.delivered,
            side(&client, client_reads),
            side(&server, server.reads.to_string()),
        )
        .expect("string write");
    }
    c.goodbye().expect("clean close");
    check_golden(true, &out);
}

/// A one-row write costs what it touches: `prepare` and `commit` of the
/// benchmark probe's keyed UPDATE (it writes the value the row already
/// holds) make the same heap allocations and examine the same rows on a
/// 30-row and a 300-row CUSTOMER table.
#[test]
fn one_row_write_costs_the_same_at_every_table_size() {
    let _turn = alone();
    let update = Dml::Update(Update {
        table: "CUSTOMER".into(),
        alias: "t1".into(),
        set: vec![("CID".into(), ScalarExpr::Param(0))],
        where_: Some(ScalarExpr::col("t1", "CID").eq(ScalarExpr::Param(0))),
    });
    let cost = |customers: usize| {
        let db1 = world(customers).db1;
        fill_statement_log(&db1, "CUSTOMER");
        let write = || {
            let tx = db1
                .prepare(vec![(update.clone(), vec![SqlValue::str("C0007")])])
                .expect("prepares");
            assert_eq!(db1.commit(tx).expect("commits"), 1);
        };
        write();
        let examined = db1.stats().rows_examined;
        let allocs = warm_allocs(write);
        let examined = (db1.stats().rows_examined - examined) / REPEATS as u64;
        (allocs, examined)
    };
    let small = cost(30);
    assert_eq!(small.1, 2, "one probed row per phase");
    assert_eq!(small, cost(300));
}
