//! Tuple-pipeline throughput (§5.1, Fig. 4): a tuple-heavy FLWOR
//! (scan → where → let → group-by) where every row flows through the
//! middleware tuple pipeline — per-row column binds, a middleware
//! `where`, a `let`, and a sorted (non-clustered) group-by whose key
//! extraction reads bound variables per buffered tuple.
//!
//! The group key is wrapped in `fn:substring`, which no dialect pushes,
//! so grouping always runs in the middleware (sorted fallback) and the
//! variable-resolution cost of the tuple representation dominates.
//! Cases run at 10k and 100k source rows; `BENCH_PR6.json` records the
//! medians via `scripts/bench_json.sh` (`BENCH_PR4.json` holds the
//! baseline before the since-removed expression VM). Two further 100k
//! cases isolate the scalar evaluator's hot paths: a predicate-heavy
//! scan and a computed-key sort.

use aldsp::security::Principal;
use aldsp::{ExecutionOptions, PushdownLevel};
use aldsp_bench::fixtures::{build_world, build_world_tuned, run, WorldSize, PROLOG};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

const ORDERS_PER_CUSTOMER: usize = 4;

fn grouped_query() -> String {
    format!(
        "{PROLOG}
         for $o in c:ORDER()
         where $o/AMOUNT ge 10.00
         let $oid := $o/OID
         group $oid as $ids by fn:substring($o/CID, 1, 4) as $k
         return <G>{{ $k, fn:count($ids) }}</G>"
    )
}

fn bench(c: &mut Criterion) {
    let user = Principal::new("bench", &[]);
    let q = grouped_query();

    let mut group = c.benchmark_group("tuple_pipeline");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));

    for &rows in &[10_000usize, 100_000] {
        let world = build_world(WorldSize {
            customers: rows / ORDERS_PER_CUSTOMER,
            orders_per_customer: ORDERS_PER_CUSTOMER,
            cards_per_customer: 0,
        });
        // sanity: the group-by must run in the middleware (sorted mode),
        // otherwise the bench is not measuring the tuple pipeline
        let s = *run(&world.server, &user, &q).per_query_stats();
        assert!(
            s.sorted_groups > 0,
            "group-by was not middleware-sorted: streaming={} sorted={}",
            s.streaming_groups,
            s.sorted_groups
        );
        let label = format!("grouped_flwor_{}k", rows / 1000);
        group.bench_with_input(BenchmarkId::from_parameter(&label), &rows, |b, _| {
            b.iter(|| black_box(run(&world.server, &user, &q)))
        });
    }

    // scalar-evaluator hot paths in isolation: pushdown stays off so
    // the predicates and sort keys run in the middleware, not at the
    // source
    let world = build_world_tuned(
        WorldSize {
            customers: 100_000 / ORDERS_PER_CUSTOMER,
            orders_per_customer: ORDERS_PER_CUSTOMER,
            cards_per_customer: 0,
        },
        |b| b.execution(ExecutionOptions::new().pushdown(PushdownLevel::Off)),
    );
    let predicate_q = format!(
        "{PROLOG}
         for $o in c:ORDER()
         where $o/AMOUNT ge 10.00 and $o/OID mod 2 eq 0
               and fn:starts-with($o/CID, \"C\")
         return $o/OID"
    );
    group.bench_function("predicate_heavy_100k", |b| {
        b.iter(|| black_box(run(&world.server, &user, &predicate_q)))
    });
    let order_q = format!(
        "{PROLOG}
         for $o in c:ORDER()
         order by fn:substring($o/CID, 2, 6) descending, $o/OID
         return $o/OID"
    );
    group.bench_function("order_key_100k", |b| {
        b.iter(|| black_box(run(&world.server, &user, &order_q)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
