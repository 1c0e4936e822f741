//! Answer golden for the engine's scalar evaluator: a middleware-heavy
//! corpus (pushdown off, so predicates, keys, filters and constructors
//! run in the engine, not the source) at world sizes 1, 7 and 13, whose
//! serialized answers are compared to `tests/golden/scalar_answers.txt`.
//!
//! The last entries aim at the evaluator's singleton short cuts and the
//! general paths they fall through to: `fn:data` of one node, of an
//! atomic value, of several nodes and of an untyped node; a named child
//! step with zero, one and two matches; and a sequence whose parts are
//! partly empty.
//!
//! Re-bless (only when an answer changes on purpose):
//! `SCALAR_ANSWERS_BLESS=1 cargo test --test scalar_answers`

mod common;

use aldsp::security::Principal;
use aldsp::xdm::xml::serialize_sequence;
use aldsp::{ExecutionOptions, PushdownLevel, QueryRequest};
use common::{world_tuned, PROLOG};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/scalar_answers.txt"
);

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
    // a quantified predicate
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
    // a named child step with two matches, and fn:data over both
    r#"let $e := <e><a>1</a><a>2</a></e>
       return ($e/a, fn:data($e/a))"#,
    // fn:data of a multi-node sequence, and of one typed node (its
    // typed value, not its string)
    r#"for $c in c:CUSTOMER()
       return (fn:data(($c/CID, $c/LAST_NAME, $c/SINCE)),
               fn:data($c/SINCE) instance of xs:integer,
               fn:data($c/SINCE) + 1)"#,
    // fn:data of an untyped node, and of a value that is already atomic
    r#"let $u := <u>7</u>
       return (fn:data($u), fn:data($u) instance of xs:untypedAtomic,
               fn:data($u) instance of xs:integer, fn:data((1, "b")))"#,
    // sequences with one empty and one non-empty part, either order;
    // FIRST_NAME is empty for every 7th customer
    r#"for $c in c:CUSTOMER()
       return <S>{ ((), $c/CID), ($c/FIRST_NAME, ()), ($c/FIRST_NAME, $c/CID) }</S>"#,
];

/// Every corpus answer at world sizes 1, 7 and 13, one record per
/// query: a header with the size and corpus index, then the answer (or
/// the error text) on one line.
fn answers() -> String {
    let demo = Principal::new("demo", &[]);
    let mut out = String::new();
    for n in [1, 7, 13] {
        let w = world_tuned(n, |b| {
            b.execution(ExecutionOptions::new().pushdown(PushdownLevel::Off))
        });
        for (i, q) in CORPUS.iter().enumerate() {
            let q = format!("{PROLOG}{q}");
            let answer = match w
                .server
                .execute(QueryRequest::new(&q).principal(demo.clone()))
            {
                Ok(resp) => serialize_sequence(resp.items()),
                Err(e) => format!("<error: {e}>"),
            };
            writeln!(out, "## n={n} q={i}\n{answer}").expect("writes to a String");
        }
    }
    out
}

#[test]
fn scalar_answers_match_the_golden() {
    let got = answers();
    if std::env::var_os("SCALAR_ANSWERS_BLESS").is_some() {
        std::fs::write(GOLDEN, &got).expect("writes golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden file (bless it first)");
    assert!(
        got == want,
        "answers drifted from tests/golden/scalar_answers.txt \
         (re-bless with SCALAR_ANSWERS_BLESS=1 only if the change is meant):\n{got}"
    );
}
