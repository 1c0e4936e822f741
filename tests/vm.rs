//! Two edge cases of the scalar evaluator: the unbound-variable plan
//! error's text, and the constant positional filter. The evaluator's
//! answers on a wider corpus are pinned by `tests/scalar_answers.rs`.

mod common;

use aldsp::security::Principal;
use aldsp::xdm::xml::serialize_sequence;
use aldsp::{ExecutionOptions, PushdownLevel, QueryRequest};
use common::{world_tuned, PROLOG};

fn demo() -> Principal {
    Principal::new("demo", &[])
}

fn walker_world(n: usize) -> common::World {
    world_tuned(n, |b| {
        b.execution(ExecutionOptions::new().pushdown(PushdownLevel::Off))
    })
}

/// Reading a slot nothing bound is a plan error that names the
/// variable. Query text cannot reach it (the translator rejects
/// undeclared variables), so the binding clause is cut out of a
/// compiled plan.
#[test]
fn unbound_variable_error_is_the_same_text_on_both_paths() {
    let q = format!(
        "{PROLOG}
         for $o in c:ORDER()
         where $o/AMOUNT ge 20.00
         return $o/OID"
    );
    let w = walker_world(3);
    let mut plan = w.server.compiler().compile_query(&q).expect("compiles");
    let aldsp::compiler::CKind::Flwor { clauses, .. } = &mut plan.plan.kind else {
        panic!("expected a FLWOR root");
    };
    clauses.remove(0);
    let err = w.server.runtime().execute(&plan, &[]).expect_err("unbound");
    assert_eq!(err.to_string(), "plan error: unbound variable $o__1");
}

/// The constant positional filter (`$s[2]`) indexes directly; checked
/// against hand-computed answers, out-of-range positions included.
#[test]
fn const_positional_filter_picks_item() {
    let w = walker_world(1);
    for (q, want) in [
        ("let $s := (10, 20, 30) return $s[2]", "20"),
        ("let $s := (10, 20, 30) return $s[1]", "10"),
        ("let $s := (10, 20, 30) return $s[3]", "30"),
        ("let $s := (10, 20, 30) return $s[4]", ""),
        ("let $s := (10, 20, 30) return $s[0]", ""),
        ("(\"a\", \"b\")[2]", "b"),
    ] {
        let q = format!("{PROLOG}{q}");
        let got = match w.server.execute(QueryRequest::new(&q).principal(demo())) {
            Ok(resp) => serialize_sequence(resp.items()),
            Err(e) => format!("<error: {e}>"),
        };
        assert_eq!(got, want, "{q}");
    }
}
