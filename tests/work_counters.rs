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
//! Re-bless (only when a counter's meaning changes on purpose):
//! `WORK_COUNTERS_BLESS=1 cargo test --test work_counters`

mod common;

use aldsp::security::Principal;
use aldsp::xdm::item::Item;
use aldsp::xdm::xml::serialize_sequence;
use aldsp::xdm::QName;
use aldsp::{ExecutionOptions, JoinStrategy, MatViewPolicy, QueryRequest, QueryResponse};
use aldsp_client::Client;
use aldsp_protocol::{WireOptions, WireStats};
use aldsp_server::{serve, WireConfig};
use common::{world, world_tuned, PROLOG};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/work_counters.txt"
);

/// Separates the engine's records from the wire path's.
const WIRE_MARK: &str = "#### wire\n";

/// Compare `got` with its half of the golden file — or, blessing,
/// rewrite that half and leave the other as it is.
fn check_golden(wire: bool, got: &str) {
    // the two tests share the file; only blessing writes it
    static FILE: Mutex<()> = Mutex::new(());
    let _file = FILE.lock().unwrap_or_else(|e| e.into_inner());
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
        "work counters drifted from tests/golden/work_counters.txt\n--- got ---\n{got}"
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
/// plans the server's compiler built for it, its exact counters with
/// the wall-clock fields zeroed, and the serialized items (`seen` for
/// streamed requests, whose response carries none).
fn record(
    out: &mut String,
    name: &str,
    compiled: u64,
    resp: &QueryResponse,
    seen: Option<&[Item]>,
) {
    let mut stats = *resp.per_query_stats();
    stats.ppk_prefetch_wait_ns = 0;
    stats.admission_wait_ns = 0;
    stats.permit_wait_ns = 0;
    stats.worker_busy_ns = 0;
    let items = seen.unwrap_or(resp.items());
    writeln!(
        out,
        "== {name}\ndelivered: {}\ncompiled: {compiled}\n{stats:#?}\nresult: {}\n",
        resp.delivered(),
        serialize_sequence(items)
    )
    .expect("string write");
}

#[test]
fn work_counters_match_the_golden() {
    let flat = QName::new("urn:flatDS", "getFlat");
    let w = world_tuned(30, |b| {
        b.materialize(flat.clone(), MatViewPolicy::PatchOrInvalidate)
    });
    w.server.deploy(FLAT_MODULE).expect("deploys");
    w.server.deploy(PROFILE_MODULE).expect("deploys");
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
            "parallel_workers_4",
            "for $o in c:ORDER()
             let $tag := fn:concat($o/CID, \"-\", $o/OID)
             where fn:string-length($tag) ge 6
             return <T>{ $tag }</T>",
            |r| r.execution(ExecutionOptions::new().workers(4).morsel_size(4)),
        ),
    ];
    for (name, body, tune) in adhoc {
        let q = format!("{PROLOG}\n{body}");
        let before = compiled();
        let resp = w
            .server
            .execute(tune(QueryRequest::new(&q).principal(demo())))
            .expect("executes");
        record(&mut out, name, compiled() - before, &resp, None);
    }

    // a view called with an argument plans like the text with the
    // argument as a literal: CUSTOMER ⟕ ORDER in one statement, the
    // cards in a second
    let before = compiled();
    let resp = w
        .server
        .execute(
            QueryRequest::call(QName::new("urn:profileDS", "getProfileByID"))
                .args(vec![vec![Item::str("C0007")]])
                .principal(demo()),
        )
        .expect("calls");
    record(
        &mut out,
        "view_call_with_argument",
        compiled() - before,
        &resp,
        None,
    );

    // a streamed run whose sink stops on its fifth item
    let q = format!("{PROLOG} for $c in c:CUSTOMER() return <C>{{ $c/CID, $c/FIRST_NAME }}</C>");
    let mut seen = Vec::new();
    let mut sink = |item: Item| {
        seen.push(item);
        seen.len() < 5
    };
    let before = compiled();
    let resp = w
        .server
        .execute(QueryRequest::new(&q).principal(demo()).stream_to(&mut sink))
        .expect("streams");
    record(
        &mut out,
        "streamed_early_stop",
        compiled() - before,
        &resp,
        Some(&seen),
    );

    // a materialized data-service call, cold (recompute + fill) then warm
    for name in ["materialized_call_cold", "materialized_call_warm"] {
        let before = compiled();
        let resp = w
            .server
            .execute(QueryRequest::call(flat.clone()).principal(demo()))
            .expect("calls");
        record(&mut out, name, compiled() - before, &resp, None);
    }

    check_golden(false, &out);
}

/// Socket work per request over loopback. One client, so the
/// listener's counters are this session's; each side counts a reply
/// before writing it, so both snapshots are complete once the client
/// holds the reply. How many reads the client needs for a reply longer
/// than its buffer depends on how the kernel hands the bytes over, so
/// for the scan that one number is bounded, not recorded.
#[test]
fn wire_counters_match_the_golden() {
    let w = world(2000);
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
        let (server, client) = (listener.wire_stats(), c.wire_stats());
        let reply = match name {
            "prepared_point_lookup" => c.execute_prepared(point.handle, &options),
            "list_of_20" => c.execute(&list, &options),
            _ => c.execute(&scan, &options),
        }
        .expect("executes");
        let (server, client) = (
            listener.wire_stats().since(&server),
            c.wire_stats().since(&client),
        );
        let client_reads = if server.writes == 1 {
            client.reads.to_string()
        } else {
            assert!(client.reads * 10 <= client.frames_in, "{client:?}");
            "(at most a tenth of frames_in)".into()
        };
        writeln!(
            out,
            "== {name}\ndelivered: {}\nclient: {}\nserver: {}\n",
            reply.delivered,
            side(&client, client_reads),
            side(&server, server.reads.to_string()),
        )
        .expect("string write");
    }
    c.goodbye().expect("clean close");
    check_golden(true, &out);
}
