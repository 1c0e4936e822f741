//! Golden tests for Tables 1 and 2 of the paper, end to end: each
//! XQuery snippet compiles through the full server, the generated SQL is
//! checked against the paper's shape, *and* the query executes against
//! the simulated backend with the expected results. The SQL goldens
//! are those of the text's literal plan (`Compiler::compile_query`);
//! the plan `execute` runs, with the liftable literals as parameters,
//! is held to the same statement modulo `?`.

mod common;

use aldsp::compiler::collect_sql_regions;
use aldsp::relational::{modulo_literals, render_select, Dialect};
use aldsp::security::Principal;
use aldsp::xdm::xml::serialize_sequence;
use aldsp::QueryRequest;
use aldsp_qgen::pushed_sql;
use common::{world, PROLOG};

fn demo() -> Principal {
    Principal::new("demo", &[])
}

/// Compile + run, returning (first generated SQL in Oracle syntax,
/// serialized result).
fn compile_and_run(w: &common::World, query: &str) -> (String, String) {
    let src = format!("{PROLOG}\n{query}");
    let plan = w
        .server
        .compiler()
        .compile_query(&src)
        .unwrap_or_else(|d| panic!("compile failed: {d:?}"));
    let regions = collect_sql_regions(&plan.plan);
    assert!(!regions.is_empty(), "no SQL pushed for:\n{query}");
    let sql = render_select(&regions[0].select, Dialect::Oracle);
    // what `execute` runs is this text's *shape* — its liftable
    // literals are parameters — and must push the same statement
    let explained = w
        .server
        .execute(QueryRequest::new(&src).principal(demo()).explain_only())
        .expect("explains");
    let executed = pushed_sql(explained.plan_explain().expect("explain text"));
    let first = executed.split("--\n").nth(1).expect("a pushed statement");
    assert_eq!(
        first.trim_end(),
        modulo_literals(&sql),
        "executed plan vs literal plan"
    );
    let out = w
        .server
        .execute(QueryRequest::new(&src).principal(demo()))
        .expect("execution")
        .into_items();
    (sql, serialize_sequence(&out))
}

#[test]
fn table_1a_simple_select_project() {
    let w = world(5);
    let (sql, out) = compile_and_run(
        &w,
        r#"for $c in c:CUSTOMER() where $c/CID eq "C0001" return $c/FIRST_NAME"#,
    );
    assert_eq!(
        sql,
        "SELECT t1.\"FIRST_NAME\" AS c1\nFROM \"CUSTOMER\" t1\nWHERE t1.\"CID\" = 'C0001'"
    );
    assert_eq!(out, "<FIRST_NAME>F1</FIRST_NAME>");
}

#[test]
fn table_1b_inner_join() {
    let w = world(6);
    let (sql, out) = compile_and_run(
        &w,
        r#"for $c in c:CUSTOMER(), $o in c:ORDER()
           where $c/CID eq $o/CID
           return <CUSTOMER_ORDER>{ $c/CID, $o/OID }</CUSTOMER_ORDER>"#,
    );
    assert!(
        sql.contains("FROM \"CUSTOMER\" t1\nJOIN \"ORDER\" t2\nON t1.\"CID\" = t2.\"CID\""),
        "{sql}"
    );
    // customers 1,2,4,5 have i%3 orders → 1+2+1+2 = 6 pairs
    assert_eq!(out.matches("<CUSTOMER_ORDER>").count(), 6);
}

#[test]
fn table_1c_left_outer_join() {
    let w = world(4);
    let (sql, out) = compile_and_run(
        &w,
        r#"for $c in c:CUSTOMER()
           return <CUSTOMER>{
             $c/CID,
             for $o in c:ORDER() where $c/CID eq $o/CID return $o/OID
           }</CUSTOMER>"#,
    );
    assert!(sql.contains("LEFT OUTER JOIN \"ORDER\""), "{sql}");
    // all four customers appear, including C0000 with no orders
    assert_eq!(out.matches("<CUSTOMER>").count(), 4);
    assert!(
        out.contains("<CUSTOMER><CID>C0000</CID></CUSTOMER>"),
        "{out}"
    );
}

#[test]
fn table_1d_if_then_else_case() {
    let w = world(3);
    let (sql, _) = compile_and_run(
        &w,
        r#"for $c in c:CUSTOMER()
           where (if ($c/CID eq "C0000") then $c/FIRST_NAME else $c/LAST_NAME) eq "Smith"
           return $c/CID"#,
    );
    assert!(
        sql.contains(
            "CASE\nWHEN t1.\"CID\" = 'C0000'\nTHEN t1.\"FIRST_NAME\"\nELSE t1.\"LAST_NAME\"\nEND"
        ),
        "{sql}"
    );
}

#[test]
fn table_1e_group_by_with_aggregation() {
    let w = world(9);
    let (sql, out) = compile_and_run(&w, TABLE_1E);
    assert!(sql.contains("COUNT(*)"), "{sql}");
    assert!(sql.contains("GROUP BY t1.\"LAST_NAME\""), "{sql}");
    // three last names, three each
    assert_eq!(out.matches("<CUSTOMER>").count(), 3);
    assert!(out.contains("Jones 3") || out.contains("Jones3"), "{out}");
    // the whole plan: the group and its count run in SQL, and nothing
    // of the row is rebuilt in the middleware
    let explained = w
        .server
        .execute(
            QueryRequest::new(&format!("{PROLOG}\n{TABLE_1E}"))
                .principal(demo())
                .explain_only(),
        )
        .expect("explains");
    let text = explained.plan_explain().expect("explain text");
    assert_eq!(text, TABLE_1E_EXPLAIN, "{text}");
}

const TABLE_1E: &str = r#"for $c in c:CUSTOMER()
           group $c as $p by $c/LAST_NAME as $l
           return <CUSTOMER>{ $l, count($p) }</CUSTOMER>"#;

const TABLE_1E_EXPLAIN: &str = r#"-- pushdown: full
-- join: none
-- shape: 0 literals lifted
#1 FLWOR
  #1.0 SqlScan connection=db1 dialect=Oracle params=0 query-const=0 binds=[$l__2, $aggv__10]
    sql> SELECT t1."LAST_NAME" AS c1, COUNT(*) AS c2
    sql> FROM "CUSTOMER" t1
    sql> GROUP BY t1."LAST_NAME"
  return
    #2 ElementCtor <CUSTOMER> attrs=0
      #3 Seq n=1
        #4 Seq n=2
          #5 Var $l__2
          #6 Var $aggv__10
"#;

/// The group class of the `report_scan` workload: `fn:substring` is not
/// pushable, so the group runs in the middleware. Its partition is only
/// counted, so it regroups the one never-NULL column the key reads
/// already: no row element is built per tuple, and the SELECT reads one
/// column.
#[test]
fn count_only_middleware_group_by() {
    let w = world(12);
    let query = "for $c in c:CUSTOMER()
                 group $c as $g by fn:substring($c/CID, 5, 2) as $k
                 return <G><K>{$k}</K><N>{fn:count($g)}</N></G>";
    let (sql, out) = compile_and_run(&w, query);
    assert_eq!(sql, "SELECT t1.\"CID\" AS c1\nFROM \"CUSTOMER\" t1");
    assert_eq!(
        out,
        "<G><K>0</K><N>2</N></G><G><K>1</K><N>2</N></G><G><K>2</K><N>1</N></G>\
         <G><K>3</K><N>1</N></G><G><K>4</K><N>1</N></G><G><K>5</K><N>1</N></G>\
         <G><K>6</K><N>1</N></G><G><K>7</K><N>1</N></G><G><K>8</K><N>1</N></G>\
         <G><K>9</K><N>1</N></G>"
    );
    let explained = w
        .server
        .execute(
            QueryRequest::new(&format!("{PROLOG}\n{query}"))
                .principal(demo())
                .explain_only(),
        )
        .expect("explains");
    let text = explained.plan_explain().expect("explain text");
    assert_eq!(text, COUNT_ONLY_GROUP_EXPLAIN, "{text}");
}

const COUNT_ONLY_GROUP_EXPLAIN: &str = r#"-- pushdown: full
-- join: none
-- shape: 0 literals lifted
#1 FLWOR
  #1.0 SqlScan connection=db1 dialect=Oracle params=0 query-const=0 binds=[$c__1#CID__4]
    sql> SELECT t1."CID" AS c1
    sql> FROM "CUSTOMER" t1
  #1.1 GroupBy mode=sorted (buffers groups) keys=[k__2] regroups=1
    #2 Data
      #3 Builtin Substring
        #4 Data
          #5 Var $c__1#CID__4
        #6 Const 5
        #7 Const 2
  return
    #8 ElementCtor <G> attrs=0
      #9 Seq n=2
        #10 ElementCtor <K> attrs=0
          #11 Seq n=1
            #12 Var $k__2
        #13 ElementCtor <N> attrs=0
          #14 Seq n=1
            #15 Builtin Count
              #16 Var $g__3
"#;

#[test]
fn table_1f_group_by_distinct() {
    let w = world(9);
    let (sql, out) = compile_and_run(
        &w,
        r#"for $c in c:CUSTOMER()
           group by $c/LAST_NAME as $l
           return $l"#,
    );
    assert!(sql.starts_with("SELECT DISTINCT t1.\"LAST_NAME\""), "{sql}");
    // three distinct names
    let names: Vec<&str> = out.split_whitespace().collect();
    assert_eq!(names.len(), 3, "{out}");
}

#[test]
fn table_2g_outer_join_with_aggregation() {
    let w = world(4);
    let (sql, out) = compile_and_run(
        &w,
        r#"for $c in c:CUSTOMER()
           return <CUSTOMER>{
             $c/CID,
             <ORDERS>{
               count(for $o in c:ORDER() where $o/CID eq $c/CID return $o)
             }</ORDERS>
           }</CUSTOMER>"#,
    );
    assert!(sql.contains("LEFT OUTER JOIN \"ORDER\""), "{sql}");
    assert!(sql.contains("COUNT("), "{sql}");
    assert!(sql.contains("GROUP BY"), "{sql}");
    // zero counts included (C0000 and C0003 have 0 orders)
    assert!(
        out.contains("<CUSTOMER><CID>C0000</CID><ORDERS>0</ORDERS></CUSTOMER>"),
        "{out}"
    );
    assert!(
        out.contains("<CUSTOMER><CID>C0002</CID><ORDERS>2</ORDERS></CUSTOMER>"),
        "{out}"
    );
}

#[test]
fn table_2h_semi_join_exists() {
    let w = world(5);
    let (sql, out) = compile_and_run(
        &w,
        r#"for $c in c:CUSTOMER()
           where some $o in c:ORDER() satisfies $c/CID eq $o/CID
           return $c/CID"#,
    );
    assert!(
        sql.contains(
            "WHERE EXISTS(\nSELECT 1 AS c1\nFROM \"ORDER\" t2\nWHERE t1.\"CID\" = t2.\"CID\")"
        ),
        "{sql}"
    );
    // only customers with ≥1 order: C0001, C0002, C0004
    assert_eq!(out.matches("<CID>").count(), 3, "{out}");
}

#[test]
fn table_2i_subsequence_rownum_pagination() {
    let w = world(30);
    let src = format!(
        "{PROLOG}
         let $cs :=
           for $c in c:CUSTOMER()
           let $oc := count(for $o in c:ORDER() where $c/CID eq $o/CID return $o)
           order by $oc descending
           return <CUSTOMER>{{ fn:data($c/CID), $oc }}</CUSTOMER>
         return subsequence($cs, 10, 20)"
    );
    let plan = w.server.compiler().compile_query(&src).expect("compiles");
    let regions = collect_sql_regions(&plan.plan);
    let sql = render_select(&regions[0].select, Dialect::Oracle);
    // the paper's nested-ROWNUM pattern
    assert!(sql.contains("ROWNUM"), "{sql}");
    assert!(sql.contains("ORDER BY COUNT("), "{sql}");
    assert!(sql.contains("DESC"), "{sql}");
    assert!(
        sql.contains("(t_out.rn >= 10) AND (t_out.rn < 30)"),
        "{sql}"
    );
    let out = w
        .server
        .execute(QueryRequest::new(&src).principal(demo()))
        .expect("executes")
        .into_items();
    assert_eq!(
        out.len(),
        20,
        "subsequence(.., 10, 20) returns 20 instances"
    );
}

#[test]
fn dialect_variants_render_differently() {
    // the same logical query renders per-vendor (§4.3): DB2 pagination
    // uses FETCH FIRST, SQL92 refuses to push it at all
    let w = world(10);
    let src = format!(
        "{PROLOG}
         let $cs := for $c in c:CUSTOMER() order by $c/CID return $c/CID
         return subsequence($cs, 1, 5)"
    );
    let plan = w.server.compiler().compile_query(&src).expect("compiles");
    let regions = collect_sql_regions(&plan.plan);
    let oracle = render_select(&regions[0].select, Dialect::Oracle);
    let db2 = render_select(&regions[0].select, Dialect::Db2);
    assert!(oracle.contains("ROWNUM"), "{oracle}");
    assert!(db2.contains("FETCH FIRST 5 ROWS ONLY"), "{db2}");
}

#[test]
fn inverse_function_parameter_pushdown() {
    // §4.4's worked example, end to end
    let w = world(10);
    let src = format!(
        "{PROLOG}
         declare variable $start as xs:dateTime external;
         for $c in c:CUSTOMER()
         where lib:int2date($c/SINCE) gt $start
         return $c/CID"
    );
    let plan = w.server.compiler().compile_query(&src).expect("compiles");
    let regions = collect_sql_regions(&plan.plan);
    let sql = render_select(&regions[0].select, Dialect::Oracle);
    assert!(sql.contains("WHERE t1.\"SINCE\" > ?"), "{sql}");
    // SINCE = 1000+i; start=1005 → customers 6..9 qualify
    use aldsp::xdm::item::Item;
    use aldsp::xdm::value::{AtomicValue, DateTime};
    let out = w
        .server
        .execute(QueryRequest::new(&src).principal(demo()).bind(
            "start",
            vec![Item::Atomic(AtomicValue::DateTime(DateTime(1005)))],
        ))
        .expect("executes")
        .into_items();
    assert_eq!(out.len(), 4, "{}", serialize_sequence(&out));
}
