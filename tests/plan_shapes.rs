//! One plan per query *shape*: the plan cache's text front and shape
//! behind, seen through `AldspServer::execute` — which texts share a
//! plan, which literals stay constants of the shape, the
//! value-dependent exit, and the reserved `$?n` names.

mod common;

use aldsp::compiler::{Compiled, LIFTED_PREFIX};
use aldsp::parser::ast::{
    Expr, ExprKind, ItemTypeAst, Module, Name, Occurrence, SeqTypeAst, Span, VarDecl,
};
use aldsp::runtime::RtError;
use aldsp::security::Principal;
use aldsp::xdm::item::Item;
use aldsp::xdm::xml::serialize_sequence;
use aldsp::{AldspServer, QueryRequest, ServerError};
use common::{world, PROLOG};

fn demo() -> Principal {
    Principal::new("demo", &[])
}

fn run(server: &AldspServer, body: &str) -> String {
    let q = format!("{PROLOG}\n{body}");
    let resp = server
        .execute(QueryRequest::new(&q).principal(demo()))
        .unwrap_or_else(|e| panic!("{body}: {e}"));
    serialize_sequence(resp.items())
}

fn explain(server: &AldspServer, body: &str) -> String {
    let q = format!("{PROLOG}\n{body}");
    server
        .execute(QueryRequest::new(&q).principal(demo()).explain_only())
        .unwrap_or_else(|e| panic!("{body}: {e}"))
        .into_plan_explain()
        .expect("explain text")
}

fn compiled(server: &AldspServer) -> u64 {
    server.compiler().stats().queries_compiled
}

/// A redeploy drops every cached plan: a text run before it, and a new
/// text of a shape compiled before it, both answer the new body.
#[test]
fn redeploy_serves_the_new_body_not_a_cached_plan() {
    let w = world(12);
    let module = |col: &str| {
        format!(
            "{PROLOG}
             declare namespace t = \"urn:t\";
             declare function t:f() as element(X)* {{
               for $c in c:CUSTOMER() where $c/CID eq \"C0003\"
               return <X><V>{{fn:data($c/{col})}}</V></X>
             }};"
        )
    };
    let call = "declare namespace t = \"urn:t\"; t:f()";
    let filtered = |v: &str| format!("declare namespace t = \"urn:t\"; t:f()[V ne \"{v}\"]");
    w.server.deploy(&module("CID")).expect("deploys");
    assert_eq!(run(&w.server, call), "<X><V>C0003</V></X>");
    assert_eq!(run(&w.server, &filtered("a")), "<X><V>C0003</V></X>");
    w.server.deploy(&module("LAST_NAME")).expect("redeploys");
    // the exact-text front, then the shape map behind it
    assert_eq!(run(&w.server, call), "<X><V>Jones</V></X>");
    assert_eq!(run(&w.server, &filtered("b")), "<X><V>Jones</V></X>");
}

#[test]
fn texts_that_differ_in_lifted_literals_share_one_plan() {
    let w = world(12);
    let point =
        |id: &str| format!("for $c in c:CUSTOMER() where $c/CID eq \"{id}\" return $c/LAST_NAME");
    let before = (compiled(&w.server), w.server.plan_cache_stats());
    assert_eq!(
        run(&w.server, &point("C0001")),
        "<LAST_NAME>Smith</LAST_NAME>"
    );
    assert_eq!(
        run(&w.server, &point("C0002")),
        "<LAST_NAME>Chen</LAST_NAME>"
    );
    assert_eq!(
        run(&w.server, &point("C0003")),
        "<LAST_NAME>Jones</LAST_NAME>"
    );
    assert_eq!(
        run(&w.server, &point("C0002")),
        "<LAST_NAME>Chen</LAST_NAME>"
    );
    assert_eq!(compiled(&w.server) - before.0, 1, "one shape, one compile");
    // served without compiling: two shape hits and one exact-text hit
    let (hits, misses) = w.server.plan_cache_stats();
    assert_eq!((hits - before.1 .0, misses - before.1 .1), (3, 1));
    // EXPLAIN says what was lifted and shows this text's value
    let text = explain(&w.server, &point("C0009"));
    assert!(text.contains("-- shape: 1 literals lifted"), "{text}");
    assert!(text.contains("Var $?0 = C0009"), "{text}");
    assert!(text.contains("sql> WHERE t1.\"CID\" = ?"), "{text}");
}

/// A literal outside the whitelist is a constant of the shape: texts
/// that differ there do not share a plan, and it plans as a constant.
#[test]
fn excluded_literals_stay_constants_of_the_shape() {
    let w = world(12);
    let page = |n: u32| {
        format!(
            "let $cs := for $c in c:CUSTOMER() where $c/SINCE ge 1002 \
                        order by $c/CID return $c/CID \
             return fn:subsequence($cs, 2, {n})"
        )
    };
    let before = compiled(&w.server);
    assert_eq!(run(&w.server, &page(2)), "<CID>C0003</CID><CID>C0004</CID>");
    assert_eq!(run(&w.server, &page(1)), "<CID>C0003</CID>");
    assert_eq!(
        compiled(&w.server) - before,
        2,
        "the bound is part of the shape"
    );
    let text = explain(&w.server, &page(2));
    // the comparison's literal is a parameter, the range is still SQL
    assert!(text.contains("-- shape: 1 literals lifted"), "{text}");
    assert!(text.contains("ROWNUM"), "{text}");
    assert!(text.contains(">= ?"), "{text}");
    // a positional predicate and a built-in's argument, in the plan
    let text = explain(
        &w.server,
        "for $c in c:CUSTOMER()[2] return fn:substring($c/CID, 2, 3)",
    );
    assert!(text.contains("-- shape: 0 literals lifted"), "{text}");
    assert!(
        text.contains("Const 2") && text.contains("Const 3"),
        "{text}"
    );
}

#[test]
fn a_literal_type_is_part_of_the_shape_and_still_a_static_error() {
    let w = world(6);
    let since = |lit: &str| format!("for $c in c:CUSTOMER() where $c/SINCE ge {lit} return $c/CID");
    let before = compiled(&w.server);
    assert_eq!(
        run(&w.server, &since("1004")),
        "<CID>C0004</CID><CID>C0005</CID>"
    );
    assert_eq!(run(&w.server, &since("1005")), "<CID>C0005</CID>");
    assert_eq!(run(&w.server, &since("1004.5")), "<CID>C0005</CID>");
    assert_eq!(
        compiled(&w.server) - before,
        2,
        "integer shape + decimal shape"
    );
    // the lifted variable is typed as the literal was
    let q = format!("{PROLOG}\n{}", since("\"1004\""));
    match w.server.execute(QueryRequest::new(&q).principal(demo())) {
        Err(ServerError::Compile(ds)) => {
            assert!(ds[0].message.contains("cannot compare"), "{ds:?}")
        }
        other => panic!("expected a static type error, got {other:?}"),
    }
}

#[test]
fn a_text_holding_the_placeholder_byte_is_compiled_with_its_literals() {
    let w = world(6);
    let odd =
        "for $c in c:CUSTOMER() where $c/CID ne \"\u{2}s\" and $c/CID eq \"C0004\" return $c/CID";
    assert_eq!(run(&w.server, odd), "<CID>C0004</CID>");
    let text = explain(&w.server, odd);
    assert!(text.contains("-- shape: 0 literals lifted"), "{text}");
    assert!(text.contains("= 'C0004'"), "{text}");
}

/// Two equality filters on one expression prune to `where false()` or
/// stay, depending on their constants: the shape is compiled once as
/// value-dependent, then every text of it with its literals in place.
#[test]
fn value_dependent_shapes_are_compiled_per_text_and_not_lifted_again() {
    let w = world(6);
    let both = |a: &str, b: &str| {
        format!(
            "for $c in c:CUSTOMER() where $c/CID eq \"{a}\" and $c/CID eq \"{b}\" return $c/CID"
        )
    };
    let stats = |s: &AldspServer| {
        let st = s.compiler().stats();
        (st.queries_compiled, st.value_dependent)
    };
    let before = stats(&w.server);
    assert_eq!(run(&w.server, &both("C0001", "C0002")), "");
    let first = stats(&w.server);
    assert_eq!(
        (first.0 - before.0, first.1 - before.1),
        (1, 1),
        "lift abandoned once, text compiled literally"
    );
    let text = explain(&w.server, &both("C0001", "C0002"));
    assert!(
        text.contains("-- shape: literal (value-dependent)"),
        "{text}"
    );
    assert!(
        text.contains("Const false") || text.contains("AND 0"),
        "{text}"
    );
    // a second text of the shape: its own literal compile, no new lift
    assert_eq!(run(&w.server, &both("C0003", "C0003")), "<CID>C0003</CID>");
    let second = stats(&w.server);
    assert_eq!((second.0 - first.0, second.1 - first.1), (1, 0));
    let text = explain(&w.server, &both("C0003", "C0003"));
    assert!(
        text.contains("-- shape: literal (value-dependent)"),
        "{text}"
    );
    assert!(
        !text.contains("Const false") && !text.contains("AND 0"),
        "{text}"
    );
}

/// A `fn:subsequence` bound that arrives through a function argument is
/// in a whitelisted position but decides the plan: same exit.
#[test]
fn a_lifted_argument_reaching_a_pagination_bound_is_value_dependent() {
    let w = world(12);
    let q = |n: u32| {
        format!(
            "declare function c:firstN($n as xs:integer) {{ \
               fn:subsequence(for $c in c:CUSTOMER() order by $c/CID return $c/CID, 1, $n) }}; \
             c:firstN({n})"
        )
    };
    assert_eq!(run(&w.server, &q(2)), "<CID>C0000</CID><CID>C0001</CID>");
    let text = explain(&w.server, &q(2));
    assert!(
        text.contains("-- shape: literal (value-dependent)"),
        "{text}"
    );
    assert!(text.contains("ROWNUM"), "{text}");
    assert_eq!(run(&w.server, &q(1)), "<CID>C0000</CID>");
}

#[test]
fn the_lifted_prefix_cannot_be_bound_or_declared() {
    let w = world(3);
    let q = format!("{PROLOG} for $c in c:CUSTOMER() where $c/CID eq \"C0001\" return $c/CID");
    let name = format!("{LIFTED_PREFIX}0");
    match w.server.execute(
        QueryRequest::new(&q)
            .principal(demo())
            .bind(&name, vec![Item::str("C0002")]),
    ) {
        Err(ServerError::Other(msg)) => assert!(msg.contains("reserved"), "{msg}"),
        other => panic!("expected a reserved-name error, got {other:?}"),
    }
    // and the answer is still the text's own literal's
    assert_eq!(
        run(
            &w.server,
            "for $c in c:CUSTOMER() where $c/CID eq \"C0001\" return $c/CID"
        ),
        "<CID>C0001</CID>"
    );
    let declared = format!("{PROLOG} declare variable ${name} external; ${name}");
    match w
        .server
        .execute(QueryRequest::new(&declared).principal(demo()))
    {
        // `$?` does not lex
        Err(ServerError::Compile(ds)) => assert!(!ds.is_empty()),
        other => panic!("expected a syntax error, got {other:?}"),
    }
}

/// Bugfix: an unbound external is `()`, but a lifted literal without
/// its value is a plan/environment mismatch, reported as such.
#[test]
fn a_lifted_literal_without_a_value_is_a_typed_plan_error() {
    let w = world(3);
    let name = format!("{LIFTED_PREFIX}0");
    let sp = Span::default();
    let module = Module {
        variables: vec![VarDecl {
            name: name.clone(),
            ty: Some(SeqTypeAst {
                item: ItemTypeAst::Atomic(Name::local("integer")),
                occ: Occurrence::One,
            }),
        }],
        body: Some(Expr::new(ExprKind::VarRef(name.clone()), sp)),
        ..Default::default()
    };
    let Compiled::Plan(plan) = (w.server.compiler())
        .compile_module(&module, Vec::new())
        .expect("compiles")
    else {
        panic!("nothing here depends on the value");
    };
    match w.server.runtime().execute(&plan, &[]) {
        Err(RtError::Plan(msg)) => assert!(msg.contains("lifted literal $?0"), "{msg}"),
        other => panic!("expected a plan error, got {other:?}"),
    }
    let bound = (w.server.runtime())
        .execute(&plan, &[(name.as_str(), vec![Item::int(7)])])
        .expect("runs with its value");
    assert_eq!(serialize_sequence(&bound), "7");
    // an ordinary external still defaults to the empty sequence
    let q = "declare variable $x external; fn:count($x)";
    let plan = w.server.compiler().compile_query(q).expect("compiles");
    let out = w.server.runtime().execute(&plan, &[]).expect("runs");
    assert_eq!(serialize_sequence(&out), "0");
}

/// §4.2: a point query through three view layers compiles to the
/// hand-written base query — the same SQL at the source and the same
/// answer bytes.
#[test]
fn three_view_layers_push_the_base_querys_sql_and_answer() {
    let w = world(12);
    w.server
        .deploy(&format!(
            "{PROLOG}
             declare namespace v = \"urn:views\";
             declare function v:layer1() as element(CUSTOMER)* {{
               for $c in c:CUSTOMER() return $c
             }};
             declare function v:layer2() as element(CUSTOMER)* {{
               for $c in v:layer1() return $c
             }};
             declare function v:byId($id as xs:string) as element(CUSTOMER)* {{
               v:layer2()[CID eq $id]
             }};"
        ))
        .expect("deploys");
    let answer_and_sql = |body: &str| {
        let q = format!("{PROLOG} declare variable $id as xs:string external; {body}");
        let mark = w.db1.stats().statements.len();
        let resp = w
            .server
            .execute(
                QueryRequest::new(&q)
                    .principal(demo())
                    .bind("id", vec![Item::str("C0007")]),
            )
            .unwrap_or_else(|e| panic!("{body}: {e}"));
        let sql = w.db1.stats().statements[mark..].to_vec();
        (serialize_sequence(resp.items()), sql)
    };
    let base = answer_and_sql("for $c in c:CUSTOMER() where $c/CID eq $id return $c");
    assert!(
        base.0.starts_with("<CUSTOMER><CID>C0007</CID>"),
        "{}",
        base.0
    );
    assert_eq!(base.1.len(), 1, "one statement: {:?}", base.1);
    assert!(
        base.1[0].contains("WHERE"),
        "predicate not pushed: {}",
        base.1[0]
    );
    let layered = answer_and_sql("declare namespace v = \"urn:views\"; v:byId($id)");
    assert_eq!(layered, base);
}
