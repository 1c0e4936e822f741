//! The Figure 3 running example, end to end through the server facade:
//! the deployed data-service module, view reuse with predicate pushdown,
//! PP-k economics, the plan cache, and the mediator call criteria.

mod common;

use aldsp::relational::LatencyModel;
use aldsp::security::Principal;
use aldsp::xdm::item::Item;
use aldsp::xdm::value::AtomicValue;
use aldsp::xdm::xml::serialize_sequence;
use aldsp::xdm::QName;
use aldsp::{CallCriteria, ExecutionOptions, QueryRequest};
use common::{world, world_tuned, PROLOG};

const PROFILE_MODULE: &str = r#"
    declare namespace tns = "urn:profileDS";
    declare namespace ns2 = "urn:ccDS";
    declare namespace ns3 = "urn:custDS";
    declare namespace ns4 = "urn:ratingWS";
    declare namespace ns5 = "urn:ratingTypes";

    (::pragma function kind="read" ::)
    declare function tns:getProfile() as element(PROFILE)* {
      for $CUSTOMER in ns3:CUSTOMER()
      return
        <PROFILE>
          <CID>{fn:data($CUSTOMER/CID)}</CID>
          <LAST_NAME>{fn:data($CUSTOMER/LAST_NAME)}</LAST_NAME>
          <ORDERS>{
            for $o in ns3:ORDER() where $o/CID eq $CUSTOMER/CID return $o/OID
          }</ORDERS>
          <CREDIT_CARDS>{
            for $k in ns2:CREDIT_CARD() where $k/CID eq $CUSTOMER/CID return $k/CCN
          }</CREDIT_CARDS>
        </PROFILE>
    };

    (::pragma function kind="read" ::)
    declare function tns:getProfileByID($id as xs:string) as element(PROFILE)* {
      tns:getProfile()[CID eq $id]
    };
"#;

fn demo() -> Principal {
    Principal::new("demo", &[])
}

#[test]
fn get_profile_integrates_both_databases() {
    let w = world(12);
    w.server.deploy(PROFILE_MODULE).expect("deploys");
    let out = w
        .server
        .execute(QueryRequest::call(QName::new("urn:profileDS", "getProfile")).principal(demo()))
        .expect("executes")
        .into_items();
    assert_eq!(out.len(), 12);
    let s = serialize_sequence(&out);
    // a customer with orders and cards: C0005 (5%3=2 orders, 5%2=1 card)
    assert!(s.contains("<CID>C0005</CID>"), "{s}");
    // a customer with neither: C0000
    assert!(s.contains("<PROFILE><CID>C0000</CID><LAST_NAME>Jones</LAST_NAME><ORDERS/><CREDIT_CARDS/></PROFILE>"), "{s}");
    // PP-k: 12 customers in one block of 20 → exactly one db2 roundtrip
    assert_eq!(
        w.db2.stats().roundtrips,
        1,
        "{:?}",
        w.db2.stats().statements
    );
}

#[test]
fn get_profile_by_id_pushes_the_view_predicate() {
    let w = world(12);
    w.server.deploy(PROFILE_MODULE).expect("deploys");
    let mark = w.db1.stats().statements.len();
    let out = w
        .server
        .execute(
            QueryRequest::call(QName::new("urn:profileDS", "getProfileByID"))
                .args(vec![vec![Item::str("C0007")]])
                .principal(demo()),
        )
        .expect("executes")
        .into_items();
    assert_eq!(out.len(), 1);
    assert!(serialize_sequence(&out).contains("<CID>C0007</CID>"));
    // the $id predicate reached db1's SQL — the customer scan returns 1
    // row, not 12 (§4.2's efficiency-through-views requirement)
    let stats = w.db1.stats();
    let scan = stats.statements[mark..]
        .iter()
        .find(|s| s.contains("\"CUSTOMER\""))
        .expect("customer scan");
    assert!(scan.contains("WHERE"), "predicate not pushed: {scan}");
}

#[test]
fn navigation_method_compiles_to_a_join() {
    // the getORDER navigation function introspection created (§2.1)
    let w = world(6);
    let q = format!(
        "{PROLOG}
         for $c in c:CUSTOMER(), $o in c:getORDER($c)
         return <CO>{{ $c/CID, $o/OID }}</CO>"
    );
    let out = w
        .server
        .execute(QueryRequest::new(&q).principal(demo()))
        .expect("executes")
        .into_items();
    assert_eq!(out.len(), 6); // 0+1+2+0+1+2
    assert_eq!(
        w.db1.stats().roundtrips,
        1,
        "navigation joined into one statement"
    );
}

#[test]
fn plan_cache_reuses_compiled_queries() {
    let w = world(4);
    let q = format!("{PROLOG} for $c in c:CUSTOMER() return $c/CID");
    for _ in 0..5 {
        w.server
            .execute(QueryRequest::new(&q).principal(demo()))
            .expect("executes");
    }
    let (hits, misses) = w.server.plan_cache_stats();
    assert_eq!(misses, 1, "compiled once");
    assert_eq!(hits, 4, "reused four times");
}

#[test]
fn mediator_call_criteria_filter_sort_limit() {
    // §2.2: "the mediator API permits clients to include result filtering
    // and sorting criteria along with their request"
    let w = world(9);
    w.server.deploy(PROFILE_MODULE).expect("deploys");
    let criteria = CallCriteria {
        filter: vec![("LAST_NAME".into(), AtomicValue::str("Smith"))],
        sort_by: Some("CID".into()),
        descending: true,
        limit: Some(2),
    };
    let out = w
        .server
        .execute(
            QueryRequest::call(QName::new("urn:profileDS", "getProfile"))
                .criteria(criteria)
                .principal(demo()),
        )
        .expect("executes")
        .into_items();
    assert_eq!(out.len(), 2);
    let s = serialize_sequence(&out);
    // Smiths are customers 1,4,7; descending by CID, limited to 2
    let i7 = s.find("C0007").expect("C0007 present");
    let i4 = s.find("C0004").expect("C0004 present");
    assert!(i7 < i4, "descending order: {s}");
    assert!(!s.contains("C0001"), "limit applied: {s}");
}

#[test]
fn streaming_results_match_materialized() {
    // run the same query twice; the engine's pipeline is deterministic
    let w = world(10);
    let q = format!(
        "{PROLOG}
         for $c in c:CUSTOMER()
         return <X>{{ $c/CID, count(for $o in c:ORDER() where $o/CID eq $c/CID return $o) }}</X>"
    );
    let a = w
        .server
        .execute(QueryRequest::new(&q).principal(demo()))
        .expect("first run")
        .into_items();
    let b = w
        .server
        .execute(QueryRequest::new(&q).principal(demo()))
        .expect("second run")
        .into_items();
    assert_eq!(serialize_sequence(&a), serialize_sequence(&b));
}

#[test]
fn async_figure3_variant_overlaps_service_calls() {
    let w = world(2);
    w.rating.set_latency(std::time::Duration::from_millis(25));
    let q = format!(
        r#"{PROLOG}
        for $c in c:CUSTOMER()
        return <P>{{
          fn-bea:async(<R1>{{fn:data(ws:getRating(
            <r:getRating><r:lName>{{fn:data($c/LAST_NAME)}}</r:lName><r:ssn>{{fn:data($c/SSN)}}</r:ssn></r:getRating>
          )/r:getRatingResult)}}</R1>),
          fn-bea:async(<R2>{{fn:data(ws:getRating(
            <r:getRating><r:lName>backup</r:lName><r:ssn>{{fn:data($c/SSN)}}</r:ssn></r:getRating>
          )/r:getRatingResult)}}</R2>)
        }}</P>"#
    );
    let t0 = std::time::Instant::now();
    let out = w
        .server
        .execute(QueryRequest::new(&q).principal(demo()))
        .expect("executes")
        .into_items();
    // 2 customers × 2 parallel calls of 25ms ≈ 2×25ms, not 4×25ms
    assert!(
        t0.elapsed() < std::time::Duration::from_millis(90),
        "{:?}",
        t0.elapsed()
    );
    assert_eq!(out.len(), 2);
    assert_eq!(w.server.stats().async_spawns, 4);
}

#[test]
fn streaming_delivery_and_early_stop() {
    // §2.2: consume results incrementally without materializing
    let w = world(50);
    let q = format!("{PROLOG} for $c in c:CUSTOMER() return $c/CID");
    let mut seen = Vec::new();
    let mut sink = |item: Item| {
        seen.push(item.string_value());
        seen.len() < 5 // stop after five
    };
    let delivered = w
        .server
        .execute(QueryRequest::new(&q).principal(demo()).stream_to(&mut sink))
        .expect("streams")
        .delivered();
    assert_eq!(delivered, 5);
    assert_eq!(seen, vec!["C0000", "C0001", "C0002", "C0003", "C0004"]);
    // full streaming run matches the materialized result
    let mut all = String::new();
    let n = w
        .server
        .query_to_writer(
            QueryRequest::new(&q).principal(demo()),
            &mut unsafe_writer(&mut all),
        )
        .expect("writes");
    assert_eq!(n, 50);
    let materialized = w
        .server
        .execute(QueryRequest::new(&q).principal(demo()))
        .expect("query")
        .into_items();
    assert_eq!(all, serialize_sequence(&materialized));
}

/// A stream stopped after its first item joins the PP-k helpers still
/// fetching blocks ahead of it: every block roundtrip the query issued
/// has reached db2 when the reply returns, and none lands afterwards.
#[test]
fn early_stop_leaves_no_ppk_helper_running() {
    let w = world_tuned(12, |b| {
        b.ppk_block_size(1)
            .execution(ExecutionOptions::new().ppk_prefetch_depth(4))
    });
    // one backend slot: the n-th concurrent block fetch takes n x 30 ms,
    // so the helpers staged ahead finish well after the first block
    w.db2.set_latency(LatencyModel::saturating(30_000, 1));
    let q = format!(
        "{PROLOG}
         for $c in c:CUSTOMER()
         return <P>{{ $c/CID,
           for $k in cc:CREDIT_CARD() where $k/CID eq $c/CID return $k/CCN }}</P>"
    );
    let mut sink = |_item: Item| false; // stop after the first item
    let delivered = w
        .server
        .execute(QueryRequest::new(&q).principal(demo()).stream_to(&mut sink))
        .expect("streams")
        .delivered();
    assert_eq!(delivered, 1);
    let at_reply = w.db2.stats().roundtrips;
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert_eq!(
        w.db2.stats().roundtrips,
        at_reply,
        "a prefetch helper outlived the join"
    );
}

/// A `&mut String` as an `io::Write` shim for the test.
fn unsafe_writer(buf: &mut String) -> StringWriter<'_> {
    StringWriter(buf)
}

struct StringWriter<'a>(&'a mut String);

impl std::io::Write for StringWriter<'_> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.push_str(std::str::from_utf8(data).expect("utf8"));
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn user_defined_navigation_method_figure3() {
    // Figure 3's third function shape: a navigate-kind method taking a
    // PROFILE instance and correlating into another source
    let w = world(6);
    w.server.deploy(PROFILE_MODULE).expect("deploys");
    w.server
        .deploy(
            r#"
            declare namespace tns = "urn:profileDS";
            declare namespace ns3 = "urn:custDS";

            (::pragma function kind="navigate" ::)
            declare function tns:getORDERSof($arg as element(PROFILE)) as element(ORDER)* {
              for $o in ns3:ORDER() where $o/CID eq $arg/CID return $o
            };
            "#,
        )
        .expect("deploys the navigation method");
    // fetch a profile, then navigate from it
    let profiles = w
        .server
        .execute(
            QueryRequest::call(QName::new("urn:profileDS", "getProfile"))
                .criteria(CallCriteria {
                    filter: vec![("CID".into(), AtomicValue::str("C0005"))],
                    ..Default::default()
                })
                .principal(demo()),
        )
        .expect("profile")
        .into_items();
    let orders = w
        .server
        .execute(
            QueryRequest::call(QName::new("urn:profileDS", "getORDERSof"))
                .args(vec![profiles])
                .principal(demo()),
        )
        .expect("navigates")
        .into_items();
    // customer 5 has 5%3 = 2 orders
    assert_eq!(orders.len(), 2, "{}", serialize_sequence(&orders));
}
