//! Incremental materialized data services (crates/matview): write-through
//! maintenance of cached data-service answers — reads stay live across
//! unrelated writes, point writes patch in place, and anything the
//! dependency record cannot prove sound surgically invalidates. Never a
//! TTL.

mod common;

use aldsp::security::{DenialAction, ElementResource, Principal, SecurityPolicy};
use aldsp::updates::ConcurrencyPolicy;
use aldsp::xdm::item::Item;
use aldsp::xdm::value::AtomicValue;
use aldsp::xdm::xml::serialize_sequence;
use aldsp::xdm::QName;
use aldsp::{CallCriteria, MatViewPolicy, QueryRequest};
use common::{world_tuned, World};

const PROFILE_MODULE: &str = r#"
    declare namespace tns = "urn:profileDS";
    declare namespace ns3 = "urn:custDS";
    declare namespace lib = "urn:lib";

    declare function tns:getProfile() as element(PROFILE)* {
      for $c in ns3:CUSTOMER()
      return
        <PROFILE>
          <CID>{fn:data($c/CID)}</CID>
          <LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME>
          <SINCE>{lib:int2date($c/SINCE)}</SINCE>
        </PROFILE>
    };

    declare function tns:getSecure() as element(SEC)* {
      for $c in ns3:CUSTOMER()
      return
        <SEC>
          <CID>{fn:data($c/CID)}</CID>
          <FIRST_NAME>{fn:data($c/FIRST_NAME)}</FIRST_NAME>
          <SSN>{fn:data($c/SSN)}</SSN>
        </SEC>
    };

    declare function tns:getJones() as element(J)* {
      for $c in ns3:CUSTOMER()
      where $c/LAST_NAME = "Jones"
      return <J><CID>{fn:data($c/CID)}</CID></J>
    };
"#;

fn profile() -> QName {
    QName::new("urn:profileDS", "getProfile")
}

fn secure() -> QName {
    QName::new("urn:profileDS", "getSecure")
}

fn jones() -> QName {
    QName::new("urn:profileDS", "getJones")
}

fn mat_world(n: usize) -> World {
    let w = world_tuned(n, |b| {
        b.materialize(profile(), MatViewPolicy::PatchOrInvalidate)
    });
    w.server.deploy(PROFILE_MODULE).expect("deploys");
    w
}

fn read(w: &World, f: &QName) -> aldsp::QueryResponse {
    w.server
        .execute(QueryRequest::call(f.clone()).principal(Principal::new("demo", &[])))
        .expect("executes")
}

/// Change one column of one customer through the submit path (§6), so
/// the write emits per-source deltas for the registry to route.
fn write_through(w: &World, f: &QName, cid: &str, field: &str, value: AtomicValue) {
    let user = Principal::new("demo", &[]);
    let criteria = CallCriteria {
        filter: vec![("CID".into(), AtomicValue::str(cid))],
        ..Default::default()
    };
    let mut sdo = w
        .server
        .read_object(&user, f, vec![], &criteria)
        .expect("reads")
        .expect("row exists");
    sdo.set(field, Some(value)).expect("writable path");
    w.server
        .submit(&user, f, &sdo, ConcurrencyPolicy::UpdatedValues)
        .expect("submits");
}

/// The serialized cold answer: drop the view's entries (re-declaring a
/// materialized function resets it) and recompute from the sources.
fn cold_recompute(w: &World, f: &QName) -> String {
    w.server
        .materialize(f.clone(), MatViewPolicy::PatchOrInvalidate);
    let r = read(w, f);
    assert_eq!(r.per_query_stats().matview_recomputes, 1);
    serialize_sequence(r.items())
}

#[test]
fn second_read_is_a_hit() {
    let w = mat_world(6);
    let first = read(&w, &profile());
    assert_eq!(first.per_query_stats().matview_recomputes, 1);
    assert_eq!(first.per_query_stats().matview_hits, 0);
    let second = read(&w, &profile());
    assert_eq!(second.per_query_stats().matview_hits, 1);
    assert_eq!(second.per_query_stats().matview_recomputes, 0);
    assert_eq!(
        serialize_sequence(first.items()),
        serialize_sequence(second.items())
    );
    // the hit ran no source work at all
    assert_eq!(second.per_query_stats().source_calls, 0);
    assert_eq!(second.per_query_stats().sql_statements, 0);
}

#[test]
fn displayed_write_patches_in_place_and_stays_byte_identical() {
    let w = mat_world(6);
    read(&w, &profile()); // warm
    write_through(
        &w,
        &profile(),
        "C0002",
        "LAST_NAME",
        AtomicValue::str("Patched"),
    );
    let stats = w.server.stats();
    assert!(stats.matview_patches >= 1, "{stats:?}");
    // the patched entry is still live: the post-write read is a hit …
    let after = read(&w, &profile());
    assert_eq!(after.per_query_stats().matview_hits, 1);
    let warm = serialize_sequence(after.items());
    assert!(warm.contains("<LAST_NAME>Patched</LAST_NAME>"), "{warm}");
    // … and byte-identical to a cold recompute over the written sources
    assert_eq!(warm, cold_recompute(&w, &profile()));
    // maintenance was write-driven, not clock-driven: the TTL function
    // cache was never consulted
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_misses, 0);
    assert!(stats.matview_patches + stats.matview_recomputes >= 1);
}

#[test]
fn transformed_column_patches_through_the_forward_function() {
    let w = mat_world(5);
    read(&w, &profile()); // warm
                          // SINCE surfaces through lib:int2date — the delta carries the stored
                          // integer; the patch must re-apply the forward transform
    write_through(
        &w,
        &profile(),
        "C0001",
        "SINCE",
        AtomicValue::DateTime(aldsp::xdm::value::DateTime(7777)),
    );
    assert!(w.server.stats().matview_patches >= 1);
    let after = read(&w, &profile());
    assert_eq!(after.per_query_stats().matview_hits, 1);
    assert_eq!(
        serialize_sequence(after.items()),
        cold_recompute(&w, &profile())
    );
}

#[test]
fn unreferenced_column_write_leaves_entries_live() {
    let w = mat_world(6);
    read(&w, &profile()); // warm
    let before = w.server.stats();
    // SSN feeds getSecure but not getProfile: the delta must skip the
    // materialized view entirely
    write_through(&w, &secure(), "C0003", "SSN", AtomicValue::str("999999999"));
    let after = read(&w, &profile());
    assert_eq!(after.per_query_stats().matview_hits, 1);
    let stats = w.server.stats();
    assert_eq!(stats.matview_hits, before.matview_hits + 1);
    assert_eq!(stats.matview_recomputes, before.matview_recomputes);
    assert_eq!(stats.matview_invalidations, 0);
    assert_eq!(stats.matview_patches, 0);
}

#[test]
fn restricting_column_write_invalidates_and_recomputes() {
    let w = world_tuned(6, |b| {
        b.materialize(jones(), MatViewPolicy::PatchOrInvalidate)
    });
    w.server.deploy(PROFILE_MODULE).expect("deploys");
    let initial = read(&w, &jones());
    assert!(serialize_sequence(initial.items()).contains("C0000"));
    // LAST_NAME restricts getJones's membership (its WHERE clause):
    // patching would be unsound, so the write must invalidate
    write_through(
        &w,
        &profile(),
        "C0000",
        "LAST_NAME",
        AtomicValue::str("Chan"),
    );
    let stats = w.server.stats();
    assert!(stats.matview_invalidations >= 1, "{stats:?}");
    let after = read(&w, &jones());
    assert_eq!(after.per_query_stats().matview_recomputes, 1);
    assert_eq!(after.per_query_stats().matview_hits, 0);
    let s = serialize_sequence(after.items());
    assert!(
        !s.contains("C0000"),
        "membership must reflect the write: {s}"
    );
}

#[test]
fn invalidate_only_policy_never_patches() {
    let w = world_tuned(5, |b| {
        b.materialize(profile(), MatViewPolicy::InvalidateOnly)
    });
    w.server.deploy(PROFILE_MODULE).expect("deploys");
    read(&w, &profile()); // warm
    write_through(
        &w,
        &profile(),
        "C0002",
        "LAST_NAME",
        AtomicValue::str("Dropped"),
    );
    let stats = w.server.stats();
    assert_eq!(stats.matview_patches, 0);
    assert!(stats.matview_invalidations >= 1);
    let after = read(&w, &profile());
    assert_eq!(after.per_query_stats().matview_recomputes, 1);
    assert!(serialize_sequence(after.items()).contains("<LAST_NAME>Dropped</LAST_NAME>"));
}

/// `delivered()` counts items handed to the sink — the one the sink
/// stops on included — whether the answer was recomputed or served
/// from the view.
#[test]
fn early_stopping_sink_sees_the_same_prefix_cold_and_warm() {
    let w = mat_world(12);
    let stop_after_five = |w: &World| {
        let mut seen = Vec::new();
        let mut sink = |item: Item| {
            seen.push(item.string_value());
            seen.len() < 5
        };
        let resp = w
            .server
            .execute(
                QueryRequest::call(profile())
                    .principal(Principal::new("demo", &[]))
                    .stream_to(&mut sink),
            )
            .expect("streams");
        (resp, seen)
    };
    let (cold, cold_seen) = stop_after_five(&w);
    assert_eq!(cold.per_query_stats().matview_recomputes, 1);
    assert_eq!(cold.delivered(), 5);
    // the aborted stream cached nothing; a full read warms the view
    assert_eq!(read(&w, &profile()).per_query_stats().matview_recomputes, 1);
    let (warm, warm_seen) = stop_after_five(&w);
    assert_eq!(warm.per_query_stats().matview_hits, 1);
    assert_eq!(warm.delivered(), cold.delivered());
    assert_eq!(warm_seen, cold_seen);
    assert_eq!(cold_seen.len(), 5);
}

/// `stream_to` + call criteria is an invalid request shape: it is
/// refused before the function-access check, the view lookup, the
/// security filter or admission leave any trace — cold and warm.
#[test]
fn streamed_criteria_request_is_rejected_before_any_side_effect() {
    let mut policy = SecurityPolicy::new();
    policy.add_resource(ElementResource {
        path: vec![QName::local("LAST_NAME")],
        allowed_roles: vec!["admin".into()],
        denial: DenialAction::Replace(AtomicValue::str("###")),
    });
    let w = world_tuned(4, |b| {
        b.materialize(profile(), MatViewPolicy::PatchOrInvalidate)
            .security(policy)
            .admission(4, 4)
    });
    w.server.deploy(PROFILE_MODULE).expect("deploys");
    w.server.audit().set_enabled(true);
    let side_effects = |w: &World| {
        (
            w.server.stats().matview_hits,
            w.server.stats().matview_recomputes,
            w.server.governor_stats().admitted,
            w.server.audit().entries().len(),
        )
    };
    let reject = |w: &World| {
        let before = side_effects(w);
        let mut sink = |_: Item| true;
        let err = w
            .server
            .execute(
                QueryRequest::call(profile())
                    .principal(Principal::new("intern", &[]))
                    .criteria(CallCriteria {
                        limit: Some(1),
                        ..Default::default()
                    })
                    .stream_to(&mut sink),
            )
            .expect_err("criteria cannot stream");
        assert!(err.to_string().contains("require materialized"), "{err}");
        assert_eq!(side_effects(w), before);
    };
    reject(&w); // cold
    let warmed = read(&w, &profile());
    assert_eq!(warmed.per_query_stats().matview_recomputes, 1);
    assert!(!w.server.audit().entries().is_empty(), "the filter audits");
    reject(&w); // warm
    assert_eq!(read(&w, &profile()).per_query_stats().matview_hits, 1);
}

#[test]
fn element_security_applies_after_the_cache_per_principal() {
    // §7 over the matview: entries cache the raw answer; element-level
    // filtering runs per principal on every delivery, hit or miss
    let mut policy = SecurityPolicy::new();
    policy.add_resource(ElementResource {
        path: vec![QName::local("LAST_NAME")],
        allowed_roles: vec!["admin".into()],
        denial: DenialAction::Replace(AtomicValue::str("###")),
    });
    let w = world_tuned(4, |b| {
        b.materialize(profile(), MatViewPolicy::PatchOrInvalidate)
            .security(policy)
    });
    w.server.deploy(PROFILE_MODULE).expect("deploys");
    let admin = Principal::new("root", &["admin"]);
    let intern = Principal::new("intern", &[]);
    let full = w
        .server
        .execute(QueryRequest::call(profile()).principal(admin))
        .expect("executes");
    assert_eq!(full.per_query_stats().matview_recomputes, 1);
    assert!(!serialize_sequence(full.items()).contains("###"));
    // the intern's read is served from the admin-filled entry — masked
    let masked = w
        .server
        .execute(QueryRequest::call(profile()).principal(intern))
        .expect("executes");
    assert_eq!(masked.per_query_stats().matview_hits, 1);
    let s = serialize_sequence(masked.items());
    assert!(s.contains("<LAST_NAME>###</LAST_NAME>"), "{s}");
    assert!(!s.contains("Jones"), "{s}");
}

#[test]
fn explain_carries_the_matview_header() {
    let w = mat_world(4);
    let cold = w
        .server
        .execute(
            QueryRequest::call(profile())
                .principal(Principal::new("demo", &[]))
                .explain_only(),
        )
        .expect("explains");
    let text = cold.plan_explain().expect("explain text");
    assert!(
        text.contains("-- matview: policy=patch-or-invalidate tables=0 entries=0"),
        "{text}"
    );
    read(&w, &profile()); // warm: deps + one entry
    let warm = w
        .server
        .execute(
            QueryRequest::call(profile())
                .principal(Principal::new("demo", &[]))
                .explain_only(),
        )
        .expect("explains");
    let text = warm.plan_explain().expect("explain text");
    assert!(
        text.contains("-- matview: policy=patch-or-invalidate tables=1 entries=1"),
        "{text}"
    );
    // non-materialized functions are unannotated
    let other = w
        .server
        .execute(
            QueryRequest::call(secure())
                .principal(Principal::new("demo", &[]))
                .explain_only(),
        )
        .expect("explains");
    assert!(!other
        .plan_explain()
        .expect("explain text")
        .contains("-- matview:"));
}

#[test]
fn runtime_materialization_and_status() {
    let w = world_tuned(4, |b| b);
    w.server.deploy(PROFILE_MODULE).expect("deploys");
    assert!(w.server.matview_status(&profile()).is_none());
    w.server
        .materialize(profile(), MatViewPolicy::PatchOrInvalidate);
    let s = w.server.matview_status(&profile()).expect("registered");
    assert_eq!((s.tables, s.entries), (0, 0));
    read(&w, &profile());
    let s = w.server.matview_status(&profile()).expect("registered");
    assert_eq!((s.tables, s.entries), (1, 1));
}

/// The torn-read detector behind the nightly matview-storm job: writer
/// threads rename their round's customer through submit; reader threads
/// assert every materialized answer is internally consistent (one
/// instance per customer — a torn patch or half-applied invalidation
/// breaks the count), and the final answer is byte-identical to a cold
/// recompute.
fn invalidation_storm(customers: usize, writers: usize, rounds: usize) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let w = Arc::new(mat_world(customers));
    read(&w, &profile()); // warm
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..writers {
        let w = w.clone();
        handles.push(std::thread::spawn(move || {
            for r in 0..rounds {
                let i = (t + r * writers) % customers;
                let cid = format!("C{i:04}");
                let name = format!("W{t}R{r}");
                write_through(&w, &profile(), &cid, "LAST_NAME", AtomicValue::str(&name));
            }
        }));
    }
    let mut readers = Vec::new();
    for _ in 0..2 {
        let w = w.clone();
        let stop = stop.clone();
        readers.push(std::thread::spawn(move || {
            let mut reads = 0u64;
            // `|| reads == 0`: on a loaded machine the writers can
            // finish before this thread is first scheduled; every
            // reader still checks at least one answer for tears
            while !stop.load(Ordering::Relaxed) || reads == 0 {
                let r = read(&w, &profile());
                let s = serialize_sequence(r.items());
                assert_eq!(
                    s.matches("<PROFILE>").count(),
                    customers,
                    "torn answer: {s}"
                );
                reads += 1;
            }
            reads
        }));
    }
    for h in handles {
        h.join().expect("writer thread");
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().expect("reader thread") > 0);
    }
    // post-storm: the live answer matches a cold recompute byte for byte
    let live = serialize_sequence(read(&w, &profile()).items());
    assert_eq!(live, cold_recompute(&w, &profile()));
}

#[test]
fn invalidation_storm_smoke() {
    invalidation_storm(4, 2, 10);
}

#[test]
#[ignore = "long-running; exercised by the nightly matview-storm job"]
fn invalidation_storm_full() {
    invalidation_storm(12, 4, 200);
}

#[test]
fn argument_vectors_that_serialize_alike_get_their_own_entries() {
    const COUNT_MODULE: &str = r#"
        declare namespace tns = "urn:countDS";
        declare function tns:count($xs as xs:string*) as xs:integer { fn:count($xs) };
        declare function tns:twin($xs as xs:string*) as xs:integer { fn:count($xs) };
    "#;
    let count = QName::new("urn:countDS", "count");
    let w = world_tuned(2, |b| {
        b.materialize(count.clone(), MatViewPolicy::PatchOrInvalidate)
    });
    w.server.deploy(COUNT_MODULE).expect("deploys");
    let call = |f: &str, arg: Vec<Item>| {
        let r = w
            .server
            .execute(
                QueryRequest::call(QName::new("urn:countDS", f))
                    .args(vec![arg])
                    .principal(Principal::new("demo", &[])),
            )
            .expect("executes");
        serialize_sequence(r.items())
    };
    let spaced = || vec![Item::str("a b")];
    let pair = || vec![Item::str("a"), Item::str("b")];
    assert_eq!(call("count", spaced()), "1");
    // ("a", "b") serializes as "a b", but it is another argument
    assert_eq!(call("count", pair()), call("twin", pair()));
    assert_eq!(call("count", pair()), "2");
    assert_eq!(call("count", spaced()), "1");
}
