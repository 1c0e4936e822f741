//! Middleware join methods (the cost-based join planner): the flat
//! cross-source equi-join `for $c in src1(), $k in src2() where …` at
//! 10k×10k with *no* usable index — the shape where per-tuple nested
//! loop pays one roundtrip per outer tuple and the source scans the
//! whole inner table each time, while the symmetric hash join fetches
//! the inner side ONCE and probes locally. `Auto` must pick hash from
//! the introspected statistics; the acceptance bar is ≥3× over forced
//! nested loop (BENCH_PR9.json).
//!
//! The 3-way chain alternates sources (db1 → db2 → db1) so no SQL
//! pushdown can merge it; the planner re-plans each step greedily
//! left-deep off the running cardinality estimate.

use aldsp::security::Principal;
use aldsp::{ExecutionOptions, JoinStrategy, QueryRequest};
use aldsp_bench::fixtures::{build_world_tuned, WorldSize, PROLOG};
use criterion::{criterion_group, criterion_main, Criterion};

const FLAT_10K: &str = r#"
    for $c in c:CUSTOMER(), $k in cc:CREDIT_CARD()
    where $k/CID eq $c/CID
    return <R>{ $c/CID, $k/CCN }</R>"#;

const CHAIN_3WAY: &str = r#"
    for $c in c:CUSTOMER(), $k in cc:CREDIT_CARD(), $o in c:ORDER()
    where $k/CID eq $c/CID and $o/CID eq $c/CID
    return <R>{ $c/CID, $k/CCN, $o/OID }</R>"#;

fn bench(c: &mut Criterion) {
    let size = |customers| WorldSize {
        customers,
        orders_per_customer: 1,
        cards_per_customer: 1,
    };
    let big = build_world_tuned(size(10_000), |b| b);
    // a second cardinality ratio: 1k×~875 sits right at the scale where
    // per-tuple roundtrips start to lose
    let small = build_world_tuned(size(1_000), |b| b);
    let user = Principal::new("bench", &[]);
    let run = |world: &aldsp_bench::fixtures::World, q: &str, strategy: JoinStrategy| {
        world
            .server
            .execute(
                QueryRequest::new(q)
                    .principal(user.clone())
                    .execution(ExecutionOptions::new().join_strategy(strategy)),
            )
            .expect("query executes")
    };

    let mut group = c.benchmark_group("join_methods");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));

    let flat = format!("{PROLOG}\n{FLAT_10K}");
    // the paper's syntactic plan: one parameterized statement per outer
    // tuple, the source scanning 10k unindexed rows per statement
    group.bench_function("flat_10kx10k_nested_loop", |b| {
        b.iter(|| run(&big, &flat, JoinStrategy::NestedLoop))
    });
    // cost-based: statistics say hash; one bulk fetch, local probes
    group.bench_function("flat_10kx10k_auto", |b| {
        b.iter(|| run(&big, &flat, JoinStrategy::Auto))
    });

    group.bench_function("flat_1kx1k_nested_loop", |b| {
        b.iter(|| run(&small, &flat, JoinStrategy::NestedLoop))
    });
    group.bench_function("flat_1kx1k_auto", |b| {
        b.iter(|| run(&small, &flat, JoinStrategy::Auto))
    });

    let chain = format!("{PROLOG}\n{CHAIN_3WAY}");
    group.bench_function("chain_3way_nested_loop", |b| {
        b.iter(|| run(&big, &chain, JoinStrategy::NestedLoop))
    });
    group.bench_function("chain_3way_auto", |b| {
        b.iter(|| run(&big, &chain, JoinStrategy::Auto))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
