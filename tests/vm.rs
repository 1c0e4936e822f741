//! PR 6 safety net: the bytecode expression VM must be invisible in
//! results and visible in observability.
//!
//! Covers: byte-identical output with the VM on vs. off (the walker is
//! the oracle), the EXPLAIN `-- program:` disassembly, the
//! `vm_ops_executed` / `vm_fallback_subtrees` counters, per-operator
//! `vm_ns` trace attribution (and its absence untraced), and the
//! constant positional filter whose walker and VM paths share one
//! helper.

mod common;

use aldsp::security::Principal;
use aldsp::xdm::xml::serialize_sequence;
use aldsp::{AldspServer, ExecutionOptions, PushdownLevel, QueryRequest, TraceKey, TraceLevel};
use common::{world_tuned, PROLOG};

fn demo() -> Principal {
    Principal::new("demo", &[])
}

fn run(server: &AldspServer, q: &str) -> String {
    match server.execute(QueryRequest::new(q).principal(demo())) {
        Ok(resp) => serialize_sequence(resp.items()),
        Err(e) => format!("<error: {e}>"),
    }
}

fn exec(server: &AldspServer, q: &str) -> aldsp::QueryResponse {
    server
        .execute(QueryRequest::new(q).principal(demo()))
        .expect("executes")
}

/// Middleware-heavy corpus: pushdown stays off so predicates, keys and
/// filters are evaluated by the engine (VM or walker), not the source.
const CORPUS: &[&str] = &[
    // comparison + arithmetic + boolean connectives in a where clause
    r#"for $o in c:ORDER()
       where $o/AMOUNT ge 20.00 and ($o/OID mod 2 eq 1 or $o/AMOUNT lt 100.00)
       return <R>{ $o/OID }</R>"#,
    // let over string builtins, order by a substring key (descending)
    r#"for $c in c:CUSTOMER()
       let $k := fn:concat($c/LAST_NAME, "-", $c/CID)
       order by fn:substring($k, 2, 5) descending, $c/CID
       return <K>{ $k }</K>"#,
    // group by a computed key through the sort-based group operator
    r#"for $o in c:ORDER()
       let $oid := $o/OID
       group $oid as $ids by fn:substring($o/CID, 1, 4) as $g
       return <G k="{$g}">{ fn:count($ids) }</G>"#,
    // casts, castable and instance-of in value space
    r#"for $x in (1, 2, 3)
       return (xs:string($x * 10), $x castable as xs:decimal,
               ($x + 1) instance of xs:integer)"#,
    // constant positional filters, in and out of range
    r#"let $s := (10, 20, 30)
       return ($s[2], $s[1], $s[4], ("a","b")[2])"#,
    // a quantified predicate: not lowerable, must fall back cleanly
    r#"for $c in c:CUSTOMER()
       where some $o in c:ORDER() satisfies $o/CID eq $c/CID
       return $c/CID"#,
    // sequence + range construction feeding an aggregate
    r#"for $x in (1 to 4)
       return fn:sum((1 to $x, 100))"#,
    // string predicates over child steps
    r#"for $c in c:CUSTOMER()
       where fn:contains($c/LAST_NAME, "e") and fn:starts-with($c/CID, "C0")
       return $c/LAST_NAME"#,
    // a multi-item let read by a where, an order key and the return
    r#"for $c in c:CUSTOMER()
       let $os := for $o in c:ORDER() where $o/CID eq $c/CID return $o/OID
       where fn:count($os) ge 1
       order by fn:count($os) descending, $c/CID
       return <C>{ $c/CID, $os }</C>"#,
    // if with a node branch and an empty branch
    r#"for $c in c:CUSTOMER()
       return if ($c/FIRST_NAME) then $c/FIRST_NAME else ()"#,
    // typeswitch binding its operand in the chosen branch
    r#"for $x in (1, "a", <e>7</e>, 2.5)
       return typeswitch ($x)
              case $i as xs:integer return $i + 1
              case $e as element() return fn:data($e)
              default $d return fn:string($d)"#,
    // some / every over a let-bound sequence, empty domains included
    r#"for $c in c:CUSTOMER()
       let $os := for $o in c:ORDER() where $o/CID eq $c/CID return $o
       where every $o in $os satisfies $o/AMOUNT ge 0.00
       return <Q>{ $c/CID, some $o in $os satisfies $o/OID mod 2 eq 0 }</Q>"#,
    // general filter predicates: boolean over the context item, and a
    // positional one that is not a constant
    r#"for $c in c:CUSTOMER()
       return <F>{ c:ORDER()[CID eq $c/CID]/OID }</F>"#,
    r#"let $s := (10, 20, 30)
       for $i in (3, 1, 4)
       return $s[$i]"#,
    // conditional element whose content is sometimes empty
    r#"for $c in c:CUSTOMER()
       return <C>{ $c/CID }<F?>{ fn:data($c/FIRST_NAME) }</F></C>"#,
];

fn vm_world(n: usize, vm: bool) -> common::World {
    world_tuned(n, |b| {
        b.execution(ExecutionOptions::new().pushdown(PushdownLevel::Off))
            .vm(vm)
    })
}

/// The VM is an implementation detail: every corpus query serializes
/// byte-identically with programs on and off, at sizes that exercise
/// empty groups, nulls and multi-group keys.
#[test]
fn vm_matches_walker_bytes() {
    for n in [1, 7, 13] {
        let on = vm_world(n, true);
        let off = vm_world(n, false);
        for q in CORPUS {
            let q = format!("{PROLOG}{q}");
            assert_eq!(
                run(&on.server, &q),
                run(&off.server, &q),
                "vm/walker divergence at n={n} for {q}"
            );
        }
        // the off server really walked: no program ever executed
        assert_eq!(off.server.stats().vm_ops_executed, 0);
        // the on server really compiled: programs ran
        assert!(on.server.stats().vm_ops_executed > 0);
    }
}

/// Reading a slot nothing bound is the same plan error, by name, from
/// the VM's `var` op and from the walker's `Var` arm. Query text cannot
/// reach it (the translator rejects undeclared variables), so the
/// binding clause is cut out of a compiled plan.
#[test]
fn unbound_variable_error_is_the_same_text_on_both_paths() {
    let q = format!(
        "{PROLOG}
         for $o in c:ORDER()
         where $o/AMOUNT ge 20.00
         return $o/OID"
    );
    let errors = [true, false].map(|vm| {
        let w = vm_world(3, vm);
        let mut plan = w.server.compiler().compile_query(&q).expect("compiles");
        assert_eq!(plan.programs.is_empty(), !vm);
        let aldsp::compiler::CKind::Flwor { clauses, .. } = &mut plan.plan.kind else {
            panic!("expected a FLWOR root");
        };
        clauses.remove(0);
        let err = w.server.runtime().execute(&plan, &[]).expect_err("unbound");
        err.to_string()
    });
    assert!(
        errors[0].starts_with("plan error: unbound variable $o"),
        "{}",
        errors[0]
    );
    assert_eq!(errors[0], errors[1]);
}

/// EXPLAIN pins the compiled program: the `-- vm:` header counts
/// programs and declined subtrees, and each covered node carries its
/// disassembly.
#[test]
fn explain_pins_program_disassembly() {
    let w = vm_world(3, true);
    let q = format!(
        "{PROLOG}
         for $o in c:ORDER()
         where $o/AMOUNT ge 20.00
         return $o/OID"
    );
    let resp = w
        .server
        .execute(QueryRequest::new(&q).principal(demo()).explain_only())
        .expect("explains");
    let explain = resp.plan_explain().expect("explain-only output");
    assert!(explain.contains("-- vm: programs="), "{explain}");
    // the where predicate's program, op for op (the literal is lifted:
    // it reads the first external's slot where the constant stood)
    let want = "-- program: ops=5 stack=2\n\
                --   0: var slot=1 ($o__1)\n\
                --   1: child::AMOUNT\n\
                --   2: data\n\
                --   3: var slot=0 ($?0)\n\
                --   4: compare ge (value)";
    let normalized: String = explain
        .lines()
        .map(|l| l.trim_start())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(normalized.contains(want), "missing disassembly:\n{explain}");
    // with the VM off, no header and no disassembly
    let off = vm_world(3, false);
    let resp = off
        .server
        .execute(QueryRequest::new(&q).principal(demo()).explain_only())
        .expect("explains");
    let explain = resp.plan_explain().expect("explain-only output");
    assert!(!explain.contains("-- program:"), "{explain}");
}

/// The two VM counters: ops executed counts covered work, fallback
/// subtrees counts what lowering declined (once per execution, a
/// static plan property — not per tuple).
#[test]
fn vm_stats_count_ops_and_fallbacks() {
    let w = vm_world(5, true);
    let q = format!(
        "{PROLOG}
         for $o in c:ORDER()
         where $o/AMOUNT ge 0.00
         return $o/OID"
    );
    let s1 = *exec(&w.server, &q).per_query_stats();
    assert!(s1.vm_ops_executed > 0, "covered predicate ran on the VM");

    // a quantified where cannot lower: the fallback counter moves, and
    // every execution reports the same static count (not a per-tuple
    // tally — n=5 customers would multiply it otherwise)
    let q = format!(
        "{PROLOG}
         for $c in c:CUSTOMER()
         where some $o in c:ORDER() satisfies $o/CID eq $c/CID
         return $c/CID"
    );
    let a = exec(&w.server, &q).per_query_stats().vm_fallback_subtrees;
    assert!(a > 0, "quantified predicate must be declined");
    assert!(a < 5, "fallbacks are per-execution, not per-tuple");
    let b = exec(&w.server, &q).per_query_stats().vm_fallback_subtrees;
    assert_eq!(b, a, "the declined count is a static plan property");
}

/// Untraced queries pay no VM timing (no trace, just the op counter);
/// traced queries attribute VM time to the owning operator, bounded by
/// that operator's wall time.
#[test]
fn vm_time_only_when_traced() {
    let w = vm_world(13, true);
    let q = format!(
        "{PROLOG}
         for $o in c:ORDER()
         where $o/AMOUNT ge 0.00
         return $o/OID"
    );
    let resp = w
        .server
        .execute(QueryRequest::new(&q).principal(demo()))
        .expect("executes");
    assert!(resp.trace().is_none(), "untraced by default");
    assert!(resp.per_query_stats().vm_ops_executed > 0);

    let resp = w
        .server
        .execute(
            QueryRequest::new(&q)
                .principal(demo())
                .trace(TraceLevel::Operators),
        )
        .expect("executes");
    let trace = resp.trace().expect("trace requested");
    let whole = trace.node(TraceKey::node(1)).expect("flwor node traced");
    let wc = trace
        .node(TraceKey::clause(1, 1))
        .expect("where clause traced");
    assert!(wc.vm_ns > 0, "where predicate time attributed to the VM");
    assert!(
        wc.vm_ns <= whole.wall_ns,
        "vm_ns {} exceeds the pipeline's wall {}",
        wc.vm_ns,
        whole.wall_ns
    );
    assert!(trace.render().contains("vm_us="));
}

/// The constant positional filter (`$s[2]`): one shared helper behind
/// the walker's `Filter` arm and the VM's `pick` op, checked against
/// hand-computed answers and against each other.
#[test]
fn const_positional_filter_picks_item() {
    let on = vm_world(1, true);
    let off = vm_world(1, false);
    for (q, want) in [
        ("let $s := (10, 20, 30) return $s[2]", "20"),
        ("let $s := (10, 20, 30) return $s[1]", "10"),
        ("let $s := (10, 20, 30) return $s[3]", "30"),
        ("let $s := (10, 20, 30) return $s[4]", ""),
        ("let $s := (10, 20, 30) return $s[0]", ""),
        ("(\"a\", \"b\")[2]", "b"),
    ] {
        let q = format!("{PROLOG}{q}");
        let got = run(&on.server, &q);
        assert_eq!(got, want, "{q}");
        assert_eq!(got, run(&off.server, &q), "{q}");
    }
}
