//! Noise-free work-counter golden (ROADMAP item 1d): a fixed request
//! set over the shared running-example world whose exact per-query
//! counters, delivered counts and serialized answers are compared to
//! `tests/golden/work_counters.txt`. Wall-clock (`*_ns`) counters are
//! zeroed, so the file repeats exactly on any host — a refactor of the
//! execution path must reproduce it byte for byte.
//!
//! Re-bless (only when a counter's meaning changes on purpose):
//! `WORK_COUNTERS_BLESS=1 cargo test --test work_counters`

mod common;

use aldsp::security::Principal;
use aldsp::xdm::item::Item;
use aldsp::xdm::xml::serialize_sequence;
use aldsp::xdm::QName;
use aldsp::{ExecutionOptions, JoinStrategy, MatViewPolicy, QueryRequest, QueryResponse};
use common::{world_tuned, PROLOG};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/work_counters.txt"
);

const FLAT_MODULE: &str = r#"
    declare namespace tns = "urn:flatDS";
    declare namespace ns3 = "urn:custDS";
    declare function tns:getFlat() as element(FLAT)* {
      for $c in ns3:CUSTOMER()
      return <FLAT><CID>{fn:data($c/CID)}</CID><LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME></FLAT>
    };
"#;

fn demo() -> Principal {
    Principal::new("demo", &[])
}

/// One golden record: the request's name, what it delivered, its exact
/// counters with the wall-clock fields zeroed, and the serialized items
/// (`seen` for streamed requests, whose response carries none).
fn record(out: &mut String, name: &str, resp: &QueryResponse, seen: Option<&[Item]>) {
    let mut stats = *resp.per_query_stats();
    stats.ppk_prefetch_wait_ns = 0;
    stats.admission_wait_ns = 0;
    stats.permit_wait_ns = 0;
    stats.worker_busy_ns = 0;
    let items = seen.unwrap_or(resp.items());
    writeln!(
        out,
        "== {name}\ndelivered: {}\n{stats:#?}\nresult: {}\n",
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
    let mut out = String::new();
    type Tune = for<'a> fn(QueryRequest<'a>) -> QueryRequest<'a>;
    let adhoc: &[(&str, &str, Tune)] = &[
        (
            "point_lookup",
            r#"for $c in c:CUSTOMER() where $c/CID eq "C0007" return $c/LAST_NAME"#,
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
        let resp = w
            .server
            .execute(tune(QueryRequest::new(&q).principal(demo())))
            .expect("executes");
        record(&mut out, name, &resp, None);
    }

    // a streamed run whose sink stops on its fifth item
    let q = format!("{PROLOG} for $c in c:CUSTOMER() return <C>{{ $c/CID, $c/FIRST_NAME }}</C>");
    let mut seen = Vec::new();
    let mut sink = |item: Item| {
        seen.push(item);
        seen.len() < 5
    };
    let resp = w
        .server
        .execute(QueryRequest::new(&q).principal(demo()).stream_to(&mut sink))
        .expect("streams");
    record(&mut out, "streamed_early_stop", &resp, Some(&seen));

    // a materialized data-service call, cold (recompute + fill) then warm
    for name in ["materialized_call_cold", "materialized_call_warm"] {
        let resp = w
            .server
            .execute(QueryRequest::call(flat.clone()).principal(demo()))
            .expect("calls");
        record(&mut out, name, &resp, None);
    }

    if std::env::var_os("WORK_COUNTERS_BLESS").is_some() {
        std::fs::write(GOLDEN, &out).expect("writes golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file (bless it first)");
    assert!(
        out == golden,
        "work counters drifted from tests/golden/work_counters.txt\n--- got ---\n{out}"
    );
}
