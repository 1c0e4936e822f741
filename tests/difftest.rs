//! Differential query-correctness harness (the tier-1 smoke slice; see
//! `scripts/difftest.sh` for the dialable runner and the nightly job).
//!
//! Seeded random FLWGOR queries from `aldsp-qgen` run under a matrix of
//! optimizer/runtime configurations — SQL pushdown {off, joins, full},
//! PP-k prefetch {0, 2}, streaming vs. materialized delivery, budgeted
//! vs. unbudgeted — and every cell must produce byte-identical
//! serialized output to the naive reference (pushdown off, fully
//! interpreted, the text's literal plan run past the plan cache). On
//! every seed the oracle's `lifted` check also holds the `full` cell to
//! *lifted ≡ literal*: the plan `execute` serves for the text's shape,
//! literals bound as parameters, answers byte-identically to the
//! text's own literal plan and pushes the same SQL modulo `?` — and
//! since cell servers outlive a seed, shapes are hit again with other
//! sample literals. A second mode attaches seeded fault schedules to the
//! simulated relational servers and asserts every run ends in either an
//! identical result or a typed error, with any streamed prefix intact.
//!
//! Reproduce a failing seed:
//!
//! ```text
//! DIFFTEST_SEED_START=<seed> DIFFTEST_SEEDS=1 cargo test -p aldsp --test difftest
//! ```

mod common;

use aldsp::relational::{Fault, FaultKind, FaultTrigger};
use aldsp::security::Principal;
use aldsp::xdm::xml::serialize_sequence;
use aldsp::{AldspServer, ExecutionOptions, JoinStrategy, Mutation, PushdownLevel, QueryRequest};
use aldsp_qgen::gen::Pred;
use aldsp_qgen::{
    default_matrix, generate, generate_plan, run_fault_trial, shrink, CatalogModel, CellSpec,
    ColTy, Oracle,
};
use common::{card_catalog, customer_catalog, world, world_tuned, PROLOG};
use std::time::Duration;

/// Fixture size: big enough for joins/groups to have real shape, small
/// enough that an 8-cell × 50-seed matrix stays fast.
const WORLD_N: usize = 25;

fn demo() -> Principal {
    Principal::new("demo", &[])
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The generator's model of the running-example world, with sample
/// literals chosen to land inside `world(25)`'s value ranges.
fn model() -> CatalogModel {
    CatalogModel::new()
        .source(&customer_catalog(), "c", "urn:custDS")
        .source(&card_catalog(), "cc", "urn:ccDS")
        .link(("cc", "CREDIT_CARD", "CID"), ("c", "CUSTOMER", "CID"))
        .transform("lib", "urn:lib", "int2date", ColTy::Int)
        .samples(
            "c",
            "CUSTOMER",
            "CID",
            &["\"C0003\"", "\"C0010\"", "\"C0017\""],
        )
        .samples(
            "c",
            "CUSTOMER",
            "LAST_NAME",
            &["\"Jones\"", "\"Smith\"", "\"Chen\"", "\"Nobody\""],
        )
        .samples("c", "CUSTOMER", "SINCE", &["1005", "1011", "1019"])
        .samples("c", "ORDER", "OID", &["3", "7", "12"])
        .samples("c", "ORDER", "CID", &["\"C0004\"", "\"C0008\""])
        .samples("cc", "CREDIT_CARD", "CID", &["\"C0005\"", "\"C0009\""])
        .samples("cc", "CREDIT_CARD", "CCN", &["\"4000-000003\""])
}

fn build_cell(spec: &CellSpec) -> AldspServer {
    world_tuned(WORLD_N, |b| {
        b.execution(
            ExecutionOptions::new()
                .pushdown(spec.pushdown)
                .ppk_prefetch_depth(spec.prefetch_depth)
                .join_strategy(spec.join_strategy),
        )
    })
    .server
}

fn run(server: &AldspServer, q: &str) -> String {
    match server.execute(QueryRequest::new(q).principal(demo())) {
        Ok(resp) => serialize_sequence(resp.items()),
        Err(e) => format!("<error: {e}>"),
    }
}

// ---- the differential matrix ------------------------------------------------

/// The tentpole check: every configuration cell is byte-identical to
/// the naive reference on every generated seed. On failure the seed is
/// shrunk to a minimal query and (when `DIFFTEST_ARTIFACT` is set) the
/// report is written there for CI to upload.
#[test]
fn differential_matrix_over_seeds() {
    let model = model();
    let oracle = Oracle::new(default_matrix(), demo(), build_cell);
    let n = env_u64("DIFFTEST_SEEDS", 50);
    let start = env_u64("DIFFTEST_SEED_START", 0);
    let mut failures: Vec<String> = Vec::new();
    for seed in start..start + n {
        let q = generate(&model, seed);
        let text = q.render(&model);
        if let Err(m) = oracle.check(&text) {
            let minimized = shrink(&model, &q, |cand| {
                oracle.check(&cand.render(&model)).is_err()
            });
            failures.push(format!(
                "seed {seed}: {m}\n--- query ---\n{text}\n--- minimized ---\n{}",
                minimized.render(&model)
            ));
            if failures.len() >= 3 {
                break; // enough to debug; don't spam
            }
        }
    }
    if !failures.is_empty() {
        let report = failures.join("\n\n========\n\n");
        if let Ok(path) = std::env::var("DIFFTEST_ARTIFACT") {
            let _ = std::fs::write(path, &report);
        }
        panic!("{report}");
    }
}

/// Transformed-value predicates are part of the generated grammar (the
/// §4.4 inverse-rewrite surface must be *reachable* by the fuzzer, not
/// just by hand-written goldens).
#[test]
fn generator_emits_transform_predicates() {
    let model = model();
    let hit = (0..200).any(|seed| {
        generate(&model, seed)
            .preds
            .iter()
            .any(|p| matches!(p, Pred::Transform { .. }))
    });
    assert!(hit, "no transformed-value predicate in 200 seeds");
}

/// Determinism of the harness itself: same seed, same query text.
#[test]
fn generator_is_deterministic() {
    let model = model();
    for seed in [0u64, 1, 17, 999, u64::MAX] {
        assert_eq!(
            generate(&model, seed).render(&model),
            generate(&model, seed).render(&model),
            "seed {seed} not stable"
        );
    }
}

// ---- the matview cell -------------------------------------------------------

/// Materialized data services under an interleaved, seeded write
/// workload: a materialized server and an uncached twin share the same
/// simulated sources; after *every* submitted write, each materialized
/// function must answer byte-identically to the twin's cold recompute
/// — whether the registry skipped, patched, or invalidated.
#[test]
fn matview_cell_identical_under_interleaved_writes() {
    use aldsp::updates::ConcurrencyPolicy;
    use aldsp::xdm::QName;
    use aldsp::{CallCriteria, MatViewPolicy};
    use aldsp_qgen::generate_writes;
    use common::twin_server;

    const MODULE: &str = r#"
        declare namespace tns = "urn:mvDS";
        declare namespace c = "urn:custDS";
        declare namespace lib = "urn:lib";

        declare function tns:writer() as element(W)* {
          for $c in c:CUSTOMER()
          return
            <W>
              <CID>{fn:data($c/CID)}</CID>
              <LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME>
              <FIRST_NAME>{fn:data($c/FIRST_NAME)}</FIRST_NAME>
              <SINCE>{lib:int2date($c/SINCE)}</SINCE>
              <SSN>{fn:data($c/SSN)}</SSN>
            </W>
        };

        declare function tns:profile() as element(P)* {
          for $c in c:CUSTOMER()
          return
            <P>
              <CID>{fn:data($c/CID)}</CID>
              <LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME>
              <SINCE>{lib:int2date($c/SINCE)}</SINCE>
            </P>
        };

        declare function tns:smiths() as element(S)* {
          for $c in c:CUSTOMER()
          where $c/LAST_NAME = "Smith"
          return <S><CID>{fn:data($c/CID)}</CID></S>
        };

        declare function tns:spenders() as element(T)* {
          for $c in c:CUSTOMER()
          for $o in c:getORDER($c)
          order by $o/OID
          return <T><CID>{fn:data($c/CID)}</CID><A>{fn:data($o/AMOUNT)}</A></T>
        };
    "#;
    let f = |name: &str| QName::new("urn:mvDS", name);
    let views = ["profile", "smiths", "spenders"];
    let w = world_tuned(WORLD_N, |b| {
        b.materialize(f("profile"), MatViewPolicy::PatchOrInvalidate)
            .materialize(f("smiths"), MatViewPolicy::PatchOrInvalidate)
            .materialize(f("spenders"), MatViewPolicy::InvalidateOnly)
    });
    let reference = twin_server(&w, |b| b);
    w.server.deploy(MODULE).expect("deploys on live");
    reference.deploy(MODULE).expect("deploys on twin");
    let call = |server: &AldspServer, name: &str| -> String {
        serialize_sequence(
            server
                .execute(QueryRequest::call(f(name)).principal(demo()))
                .expect("materializable call executes")
                .items(),
        )
    };
    let write_seeds = env_u64("DIFFTEST_WRITE_SEEDS", 4);
    for seed in 0..write_seeds {
        for op in generate_writes(seed, 8, WORLD_N) {
            let criteria = CallCriteria {
                filter: vec![("CID".into(), aldsp::xdm::value::AtomicValue::str(&op.cid))],
                ..Default::default()
            };
            let mut sdo = w
                .server
                .read_object(&demo(), &f("writer"), vec![], &criteria)
                .expect("reads writer SDO")
                .expect("customer exists");
            sdo.set(&op.field, op.value.clone()).expect("writable path");
            w.server
                .submit(
                    &demo(),
                    &f("writer"),
                    &sdo,
                    ConcurrencyPolicy::UpdatedValues,
                )
                .expect("submits");
            for name in views {
                // first read may hit a patched entry or recompute; the
                // second must hit — both byte-identical to the twin
                let expected = call(&reference, name);
                for pass in 0..2 {
                    let got = call(&w.server, name);
                    assert_eq!(
                        got,
                        expected,
                        "view {name} diverged (pass {pass}, seed {seed}, write {})",
                        op.describe()
                    );
                }
            }
        }
    }
    // the workload actually exercised the maintenance machinery
    let stats = w.server.stats();
    assert!(stats.matview_hits > 0, "{stats:?}");
    assert!(stats.matview_patches > 0, "{stats:?}");
    assert!(stats.matview_invalidations > 0, "{stats:?}");
    assert!(stats.matview_recomputes > 0, "{stats:?}");
}

// ---- mutation smoke ---------------------------------------------------------

/// The harness must be able to catch a real optimizer bug: plant one
/// (a pushdown rewrite that silently drops a pushed `where` conjunct)
/// and demand the differential comparison finds it within 100 seeds.
#[test]
fn planted_rewrite_bug_caught_within_100_seeds() {
    let model = model();
    let honest = world(WORLD_N).server;
    let mutant = world_tuned(WORLD_N, |b| b.mutation(Mutation::DropPushedPredicate)).server;
    for seed in 0..100 {
        let text = generate(&model, seed).render(&model);
        if run(&honest, &text) != run(&mutant, &text) {
            return; // caught
        }
    }
    panic!("mutation smoke test: DropPushedPredicate survived 100 seeds undetected");
}

/// A second planted bug, in the middleware group's usage analysis: a
/// partition that is only counted regroups a nullable column, so tuples
/// whose value is NULL drop out of `fn:count`. The generator's
/// `fn:substring` group keys must expose it within 50 seeds, the
/// tier-1 smoke's range (seeds 0–49 render five count-only
/// `fn:substring` groups).
#[test]
fn planted_count_only_regroup_bug_caught_within_50_seeds() {
    let model = model();
    let honest = world(WORLD_N).server;
    let mutant = world_tuned(WORLD_N, |b| b.mutation(Mutation::RegroupNullableColumn)).server;
    for seed in 0..50 {
        let text = generate(&model, seed).render(&model);
        if run(&honest, &text) != run(&mutant, &text) {
            return; // caught
        }
    }
    panic!("mutation smoke test: RegroupNullableColumn survived 50 seeds undetected");
}

// ---- fault injection --------------------------------------------------------

/// Seeded fault schedules (transient errors, latency spikes under
/// deadlines, disconnects) against generated queries: every run must
/// end byte-identical or in a typed error, and a streaming consumer
/// must never see a non-prefix of the true result.
#[test]
fn fault_schedules_end_typed_or_identical() {
    let model = model();
    let w = world_tuned(WORLD_N, |b| b);
    let n = env_u64("DIFFTEST_FAULT_SEEDS", 25);
    let start = env_u64("DIFFTEST_SEED_START", 0);
    for seed in start..start + n {
        let q = generate(&model, seed).render(&model);
        // known-good baseline without faults
        let baseline = w
            .server
            .execute(QueryRequest::new(&q).principal(demo()))
            .expect("fault-free baseline executes")
            .into_items();
        let plan = generate_plan(seed, &["db1", "db2"]);
        let outcome = run_fault_trial(
            &w.server,
            &demo(),
            &q,
            &baseline,
            &plan,
            |src, faults| {
                let h = if src == "db1" { &w.db1 } else { &w.db2 };
                h.set_faults(faults);
            },
            || {
                w.db1.clear_faults();
                w.db2.clear_faults();
            },
        );
        if let Err(violation) = outcome {
            panic!("fault seed {seed}: {violation}\n--- query ---\n{q}");
        }
    }
}

// ---- inverse-rewrite and typematch goldens ----------------------------------

/// §4.4 transformed-value predicate: identical answers with the
/// rewrite-and-push enabled and with everything interpreted.
#[test]
fn inverse_rewrite_identical_on_off() {
    let on = world(WORLD_N).server;
    let off = world_tuned(WORLD_N, |b| {
        b.execution(ExecutionOptions::new().pushdown(PushdownLevel::Off))
    })
    .server;
    let q = format!(
        "{PROLOG}
         for $c in c:CUSTOMER()
         where lib:int2date($c/SINCE) gt lib:int2date(1004)
         order by $c/CID
         return $c/CID"
    );
    let a = run(&on, &q);
    assert_eq!(a, run(&off, &q));
    assert!(a.contains("C0005") && !a.contains("C0004"), "{a}");
}

/// Same contract when the inverse call sits on the *literal* side and
/// the comparison direction is flipped.
#[test]
fn inverse_rewrite_flipped_identical_on_off() {
    let on = world(WORLD_N).server;
    let off = world_tuned(WORLD_N, |b| {
        b.execution(ExecutionOptions::new().pushdown(PushdownLevel::Off))
    })
    .server;
    let q = format!(
        "{PROLOG}
         for $c in c:CUSTOMER()
         where lib:int2date(1010) ge lib:int2date($c/SINCE)
         order by $c/CID descending
         return $c/SINCE"
    );
    assert_eq!(run(&on, &q), run(&off, &q));
}

/// The optimistic-typing typematch fallback: a conditional whose
/// branches surface different nullabilities forces a runtime type
/// dispatch; results must not depend on where the filter ran.
#[test]
fn typematch_fallback_identical_on_off() {
    let on = world(WORLD_N).server;
    let off = world_tuned(WORLD_N, |b| {
        b.execution(ExecutionOptions::new().pushdown(PushdownLevel::Off))
    })
    .server;
    let q = format!(
        "{PROLOG}
         for $c in c:CUSTOMER()
         where (if ($c/CID eq \"C0007\") then $c/FIRST_NAME else $c/LAST_NAME) eq \"Smith\"
         order by $c/CID
         return <m>{{ $c/CID }}{{ $c/FIRST_NAME }}</m>"
    );
    let a = run(&on, &q);
    assert_eq!(a, run(&off, &q));
    assert!(!a.starts_with("<error"), "{a}");
}

// ---- EXPLAIN surface --------------------------------------------------------

/// The compile option is observable: EXPLAIN reports the pushdown
/// level the plan was compiled under.
#[test]
fn explain_reports_pushdown_level() {
    let q = format!("{PROLOG} for $c in c:CUSTOMER() return $c/CID");
    for (level, tag) in [
        (PushdownLevel::Full, "pushdown: full"),
        (PushdownLevel::Joins, "pushdown: joins"),
        (PushdownLevel::Off, "pushdown: off"),
    ] {
        let server = world_tuned(WORLD_N, |b| {
            b.execution(ExecutionOptions::new().pushdown(level))
        })
        .server;
        let resp = server
            .execute(QueryRequest::new(&q).principal(demo()).explain_only())
            .expect("explain");
        let plan = resp.plan_explain().expect("explain text");
        assert!(plan.contains(tag), "missing '{tag}' in:\n{plan}");
    }
}

/// The `-- join:` EXPLAIN header is golden: the exact planner decision
/// — strategy, both cardinality estimates from the introspected
/// catalog statistics, and the reorder bit — for every strategy knob.
/// world(25) registers CUSTOMER=25 rows and CREDIT_CARD=12 rows
/// (customers 1,3,…,23), so the estimates are exact.
#[test]
fn explain_join_header_is_golden() {
    let q = format!(
        "{PROLOG}
         for $c in c:CUSTOMER(), $k in cc:CREDIT_CARD()
         where $k/CID eq $c/CID
         return <R>{{ $c/CID, $k/CCN }}</R>"
    );
    for (strategy, line) in [
        // auto leaves a 25×13 join on the per-tuple plan (< 256 rows)
        (JoinStrategy::Auto, "-- join: none"),
        (JoinStrategy::NestedLoop, "-- join: none"),
        (
            JoinStrategy::Hash,
            "-- join: #1.1 strategy=hash est-build=12 est-probe=25 reordered=false",
        ),
    ] {
        let server = world_tuned(WORLD_N, |b| {
            b.execution(ExecutionOptions::new().join_strategy(strategy))
        })
        .server;
        let resp = server
            .execute(QueryRequest::new(&q).principal(demo()).explain_only())
            .expect("explain");
        let plan = resp.plan_explain().expect("explain text");
        assert!(
            plan.lines().any(|l| l == line),
            "{strategy}: missing '{line}' in:\n{plan}"
        );
    }
}

/// With pushdown off, no SQL region may appear in the plan at all —
/// the reference cell really is the naive middleware path.
#[test]
fn pushdown_off_compiles_no_sql_regions() {
    let server = world_tuned(WORLD_N, |b| {
        b.execution(ExecutionOptions::new().pushdown(PushdownLevel::Off))
    })
    .server;
    let q = format!(
        "{PROLOG}
         for $c in c:CUSTOMER()
         for $o in c:getORDER($c)
         where $c/LAST_NAME eq \"Smith\"
         order by $o/OID
         return $o/AMOUNT"
    );
    let resp = server
        .execute(QueryRequest::new(&q).principal(demo()).explain_only())
        .expect("explain");
    let plan = resp.plan_explain().expect("explain text");
    assert!(
        !plan.contains("SqlRegion") && !plan.contains("SELECT"),
        "pushdown=off plan still contains SQL:\n{plan}"
    );
}

// ---- governor edges ---------------------------------------------------------

/// A latency spike injected at a row boundary under a deadline: the
/// stream stops *between* tuples with a typed deadline error — the
/// delivered prefix is intact, never a torn or reordered tail.
#[test]
fn deadline_at_tuple_boundary_keeps_prefix_intact() {
    let w = world_tuned(60, |b| b);
    let q = format!(
        "{PROLOG}
         for $c in c:CUSTOMER()
         order by $c/CID
         return $c/CID"
    );
    let baseline = w
        .server
        .execute(QueryRequest::new(&q).principal(demo()))
        .expect("baseline")
        .into_items();
    // spike fires once the source has returned 20 rows; the 400 ms
    // stall dwarfs the 60 ms deadline
    w.db1.set_faults(vec![Fault {
        trigger: FaultTrigger::RowsReturned(20),
        kind: FaultKind::LatencySpike(Duration::from_millis(400)),
    }]);
    let mut delivered = Vec::new();
    let mut sink = |item| {
        delivered.push(item);
        true
    };
    let err = w
        .server
        .execute(
            QueryRequest::new(&q)
                .principal(demo())
                .deadline(Duration::from_millis(60))
                .stream_to(&mut sink),
        )
        .expect_err("deadline should fire");
    w.db1.clear_faults();
    assert!(err.is_deadline_exceeded(), "typed deadline error: {err}");
    let n = delivered.len();
    assert!(n < baseline.len(), "deadline fired after full delivery");
    assert_eq!(
        serialize_sequence(&delivered),
        serialize_sequence(&baseline[..n]),
        "delivered prefix corrupted"
    );
}

/// Budget exhaustion inside a sorted grouping (blocking operators
/// charge their materialization): typed budget error and nothing
/// delivered — a blocking tail must not leak partial groups.
#[test]
fn budget_exhausted_inside_sorted_grouping_is_typed_and_clean() {
    let w = world_tuned(60, |b| b);
    let q = format!(
        "{PROLOG}
         for $c in c:CUSTOMER()
         group $c as $p by $c/LAST_NAME as $k
         order by $k
         return <g><k>{{ $k }}</k><c>{{ count($p) }}</c></g>"
    );
    let mut delivered = Vec::new();
    let mut sink = |item| {
        delivered.push(item);
        true
    };
    let err = w
        .server
        .execute(
            QueryRequest::new(&q)
                .principal(demo())
                .memory_budget(1024)
                .stream_to(&mut sink),
        )
        .expect_err("budget should blow inside the grouping");
    assert!(err.is_budget_exceeded(), "typed budget error: {err}");
    assert!(
        delivered.is_empty(),
        "partial groups escaped a blocking operator: {}",
        serialize_sequence(&delivered)
    );
    // the same query under a workable budget still answers correctly
    let roomy = w
        .server
        .execute(
            QueryRequest::new(&q)
                .principal(demo())
                .memory_budget(1 << 20),
        )
        .expect("roomy budget executes");
    assert!(serialize_sequence(roomy.items()).contains("<k>Chen</k>"));
}

/// The hash join's build side is charged against the query's memory
/// budget: under a tight budget the bulk buffering trips a *typed*
/// budget error before any row escapes, and a workable budget returns
/// output byte-identical to the per-tuple nested-loop reference.
#[test]
fn hash_join_build_respects_memory_budget() {
    let w = world_tuned(60, |b| {
        b.execution(ExecutionOptions::new().join_strategy(JoinStrategy::Hash))
    });
    let q = format!(
        "{PROLOG}
         for $c in c:CUSTOMER(), $k in cc:CREDIT_CARD()
         where $k/CID eq $c/CID
         return <R>{{ $c/CID, $k/CCN }}</R>"
    );
    let mut delivered = Vec::new();
    let mut sink = |item| {
        delivered.push(item);
        true
    };
    let err = w
        .server
        .execute(
            QueryRequest::new(&q)
                .principal(demo())
                .memory_budget(1024)
                .stream_to(&mut sink),
        )
        .expect_err("30 buffered build rows must blow a 1 KiB budget");
    assert!(err.is_budget_exceeded(), "typed budget error: {err}");
    assert!(
        delivered.is_empty(),
        "rows escaped before the build finished: {}",
        serialize_sequence(&delivered)
    );

    // a workable budget answers, byte-identical to nested loop
    let hashed = w
        .server
        .execute(
            QueryRequest::new(&q)
                .principal(demo())
                .memory_budget(1 << 20),
        )
        .expect("roomy budget executes");
    let reference = world_tuned(60, |b| b)
        .server
        .execute(QueryRequest::new(&q).principal(demo()))
        .expect("nested-loop reference");
    assert_eq!(
        serialize_sequence(hashed.items()),
        serialize_sequence(reference.items())
    );
}

// ---- the wire cell ----------------------------------------------------------

/// The network front door as an oracle cell: every generated seed runs
/// once in-process and once over a real loopback connection through
/// `aldsp-client`, and the reassembled wire text must be byte-identical
/// (typed server errors compare against the reference's error
/// rendering). Odd seeds exercise the prepared-handle path so plan
/// handles get the same coverage as ad-hoc execution. 50 seeds in
/// tier-1; the nightly runs it at 2,000 via `DIFFTEST_SEEDS`.
#[test]
fn wire_cell_identical_over_loopback() {
    use aldsp_client::{Client, ClientError};
    use aldsp_protocol::WireOptions;
    use aldsp_server::{serve, WireConfig};
    use std::sync::Arc;

    let model = model();
    let server = Arc::new(world(WORLD_N).server);
    let listener =
        serve("127.0.0.1:0", server.clone(), WireConfig::default()).expect("bind loopback");
    let mut client = Client::connect(listener.local_addr(), "demo", &[]).expect("connect");
    let n = env_u64("DIFFTEST_SEEDS", 50);
    let start = env_u64("DIFFTEST_SEED_START", 0);
    let mut failures: Vec<String> = Vec::new();
    for seed in start..start + n {
        let text = generate(&model, seed).render(&model);
        let reference = run(&server, &text);
        let outcome = if seed % 2 == 0 {
            client.execute(&text, &WireOptions::default())
        } else {
            match client.prepare(&text) {
                Ok(p) => {
                    let r = client.execute_prepared(p.handle, &WireOptions::default());
                    assert!(client.close_handle(p.handle).expect("close"), "seed {seed}");
                    r
                }
                Err(e) => Err(e),
            }
        };
        let wire = match outcome {
            Ok(rs) => rs.text(),
            // the server renders the same ServerError Display the
            // in-process reference wraps
            Err(ClientError::Server { message, .. }) => format!("<error: {message}>"),
            Err(e) => panic!("seed {seed}: transport failure: {e}"),
        };
        if wire != reference {
            failures.push(format!(
                "seed {seed}: wire differs from in-process\n--- query ---\n{text}\n\
                 --- in-process ---\n{reference}\n--- wire ---\n{wire}"
            ));
            if failures.len() >= 3 {
                break; // enough to debug; don't spam
            }
        }
    }
    client.goodbye().expect("clean close");
    if !failures.is_empty() {
        let report = failures.join("\n\n========\n\n");
        if let Ok(path) = std::env::var("DIFFTEST_ARTIFACT") {
            let _ = std::fs::write(path, &report);
        }
        panic!("{report}");
    }
}
