//! # aldsp-compiler — the ALDSP XQuery compiler
//!
//! Implements §3.3–§4 of *Query Processing in the AquaLogic Data
//! Services Platform* (VLDB 2006): expression-tree construction and
//! normalization ([`translate`]), structural/optimistic static typing
//! with `typematch` insertion ([`typecheck`]), the rule-driven optimizer
//! — view unfolding, source-access elimination, predicate motion,
//! inverse functions ([`rules`]) — and SQL pushdown analysis + vendor
//! SQL generation ([`sqlgen`]). [`compile::Compiler`] drives the
//! pipeline and owns the partially-optimized view cache (§4.2).
//!
//! The optimized tree ([`ir::CExpr`]) *is* the executable plan; the
//! `aldsp-runtime` crate interprets it.

#![forbid(unsafe_code)]

pub mod compile;
pub mod context;
pub mod explain;
pub mod frames;
pub mod ir;
pub mod joins;
pub mod program;
pub mod rules;
pub mod sqlgen;
pub mod translate;
pub mod typecheck;

pub use compile::{
    Compiled, CompiledQuery, Compiler, CompilerStats, Mutation, Options, PushdownLevel,
};
pub use context::{Context, InverseRegistry, Mode, UserFunction, LIFTED_PREFIX};
pub use explain::{explain_plan, ExplainContext, PlanShape};
pub use frames::FrameLayout;
pub use ir::{Builtin, CExpr, CKind, Clause, LocalJoinMethod, OrderSpec, PpkSpec, NO_SLOT};
pub use joins::{JoinMark, JoinPlan, JoinStrategy};
pub use program::{Op, Program, ProgramSet};

use aldsp_relational::Select;

/// A pushed SQL region found in a plan (inspection/testing helper).
#[derive(Debug, Clone)]
pub struct SqlRegion {
    /// Connection name.
    pub connection: String,
    /// The generated SQL statement.
    pub select: Select,
    /// The PP-k spec, when the region is a dependent join.
    pub ppk: Option<PpkSpec>,
}

/// Collect every `SqlFor` region in a plan, in pre-order.
pub fn collect_sql_regions(plan: &CExpr) -> Vec<SqlRegion> {
    let mut out = Vec::new();
    fn walk(e: &CExpr, out: &mut Vec<SqlRegion>) {
        if let CKind::Flwor { clauses, .. } = &e.kind {
            for c in clauses {
                if let Clause::SqlFor {
                    connection,
                    select,
                    ppk,
                    ..
                } = c
                {
                    out.push(SqlRegion {
                        connection: connection.clone(),
                        select: (**select).clone(),
                        ppk: ppk.clone(),
                    });
                }
            }
        }
        e.for_each_child(&mut |c| walk(c, out));
    }
    walk(plan, &mut out);
    out
}

/// Count the physical source calls remaining in a plan (un-pushed
/// accesses).
pub fn count_physical_calls(plan: &CExpr) -> usize {
    let mut n = 0;
    plan.walk(&mut |e| {
        if matches!(&e.kind, CKind::PhysicalCall { .. }) {
            n += 1;
        }
    });
    n
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use aldsp_metadata::{
        introspect_relational, introspect_web_service, FunctionKind, ParamDecl, PhysicalFunction,
        Registry, SourceBinding, WebServiceDescription, WebServiceOperation,
    };
    use aldsp_relational::{render_select, Catalog, Dialect, SqlType, TableSchema};
    use aldsp_xdm::schema::ShapeBuilder;
    use aldsp_xdm::types::{ItemType, Occurrence, SequenceType};
    use aldsp_xdm::value::AtomicType;
    use aldsp_xdm::QName;
    use std::sync::Arc;

    /// The running-example metadata: CUSTOMER/ORDER on db1 (Oracle),
    /// CREDIT_CARD on db2 (DB2), the rating web service, and the
    /// int2date/date2int natives of §4.4.
    pub(crate) fn fixture() -> Arc<Registry> {
        let mut cat1 = Catalog::new();
        cat1.add(
            TableSchema::builder("CUSTOMER")
                .col("CID", SqlType::Varchar)
                .col("LAST_NAME", SqlType::Varchar)
                .col_null("FIRST_NAME", SqlType::Varchar)
                .col_null("SINCE", SqlType::Integer)
                .col_null("SSN", SqlType::Varchar)
                .pk(&["CID"])
                .build()
                .unwrap(),
        )
        .unwrap();
        cat1.add(
            TableSchema::builder("ORDER")
                .col("OID", SqlType::Integer)
                .col("CID", SqlType::Varchar)
                .col_null("AMOUNT", SqlType::Decimal)
                .pk(&["OID"])
                .fk(&["CID"], "CUSTOMER", &["CID"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut cat2 = Catalog::new();
        cat2.add(
            TableSchema::builder("CREDIT_CARD")
                .col("CCN", SqlType::Varchar)
                .col("CID", SqlType::Varchar)
                .col_null("LIMIT_AMT", SqlType::Decimal)
                .pk(&["CCN"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut reg = Registry::new();
        reg.register_service(&introspect_relational(&cat1, "db1", "urn:custDS").unwrap())
            .unwrap();
        reg.register_service(&introspect_relational(&cat2, "db2", "urn:ccDS").unwrap())
            .unwrap();
        let input = ShapeBuilder::element(QName::new("urn:ratingTypes", "getRating"))
            .required("lName", AtomicType::String)
            .required("ssn", AtomicType::String)
            .build();
        let output = ShapeBuilder::element(QName::new("urn:ratingTypes", "getRatingResponse"))
            .required("getRatingResult", AtomicType::Integer)
            .build();
        reg.register_service(&introspect_web_service(&WebServiceDescription {
            name: "ratingWS".into(),
            namespace: "urn:ratingWS".into(),
            operations: vec![WebServiceOperation {
                name: "getRating".into(),
                input,
                output,
            }],
        }))
        .unwrap();
        // §4.4 natives
        for (name, from, to) in [
            ("int2date", AtomicType::Integer, AtomicType::DateTime),
            ("date2int", AtomicType::DateTime, AtomicType::Integer),
        ] {
            reg.register_function(PhysicalFunction {
                name: QName::new("urn:lib", name),
                kind: FunctionKind::Library,
                params: vec![ParamDecl {
                    name: "x".into(),
                    ty: SequenceType::Seq(ItemType::Atomic(from), Occurrence::Optional),
                }],
                return_type: SequenceType::Seq(ItemType::Atomic(to), Occurrence::Optional),
                source: SourceBinding::Native {
                    id: name.to_string(),
                },
            })
            .unwrap();
        }
        Arc::new(reg)
    }

    pub(crate) fn compiler() -> Compiler {
        let mut opts = Options::default();
        opts.dialects.insert("db1".into(), Dialect::Oracle);
        opts.dialects.insert("db2".into(), Dialect::Db2);
        Compiler::new(fixture(), opts)
    }

    pub(crate) const PROLOG: &str = r#"
        declare namespace c = "urn:custDS";
        declare namespace cc = "urn:ccDS";
        declare namespace ws = "urn:ratingWS";
        declare namespace lib = "urn:lib";
        declare namespace r = "urn:ratingTypes";
    "#;

    pub(crate) fn compile(query: &str) -> CompiledQuery {
        let src = format!("{PROLOG}\n{query}");
        compiler()
            .compile_query(&src)
            .unwrap_or_else(|d| panic!("compile failed: {d:?}\n{query}"))
    }

    pub(crate) fn oracle_sql(q: &CompiledQuery) -> String {
        let regions = collect_sql_regions(&q.plan);
        assert!(!regions.is_empty(), "no SQL pushed: {:#?}", q.plan);
        render_select(&regions[0].select, Dialect::Oracle)
    }

    #[test]
    fn table1a_simple_select_project() {
        let q = compile(r#"for $c in c:CUSTOMER() where $c/CID eq "CUST001" return $c/FIRST_NAME"#);
        let sql = oracle_sql(&q);
        assert_eq!(
            sql,
            "SELECT t1.\"FIRST_NAME\" AS c1\nFROM \"CUSTOMER\" t1\nWHERE t1.\"CID\" = 'CUST001'"
        );
        assert_eq!(count_physical_calls(&q.plan), 0);
    }

    #[test]
    fn table1b_inner_join() {
        let q = compile(
            r#"for $c in c:CUSTOMER(), $o in c:ORDER()
               where $c/CID eq $o/CID
               return <CUSTOMER_ORDER>{ $c/CID, $o/OID }</CUSTOMER_ORDER>"#,
        );
        let sql = oracle_sql(&q);
        assert!(sql.contains("JOIN \"ORDER\" t2"), "{sql}");
        assert!(sql.contains("ON t1.\"CID\" = t2.\"CID\""), "{sql}");
        assert!(!sql.contains("LEFT OUTER"), "{sql}");
        assert_eq!(collect_sql_regions(&q.plan).len(), 1);
    }

    #[test]
    fn table1c_outer_join_from_nested_for() {
        let q = compile(
            r#"for $c in c:CUSTOMER()
               return
                 <CUSTOMER>{
                   $c/CID,
                   for $o in c:ORDER()
                   where $c/CID eq $o/CID
                   return $o/OID
                 }</CUSTOMER>"#,
        );
        let sql = oracle_sql(&q);
        assert!(sql.contains("LEFT OUTER JOIN \"ORDER\""), "{sql}");
        assert!(sql.contains("ON t1.\"CID\" = t_inner.\"CID\""), "{sql}");
        // clustered middleware grouping on the customer key
        let has_clustered_group = {
            let mut found = false;
            q.plan.walk(&mut |e| {
                if let CKind::Flwor { clauses, .. } = &e.kind {
                    for c in clauses {
                        if let Clause::GroupBy {
                            pre_clustered: true,
                            ..
                        } = c
                        {
                            found = true;
                        }
                    }
                }
            });
            found
        };
        assert!(has_clustered_group, "{:#?}", q.plan);
    }

    #[test]
    fn table1d_if_then_else_case() {
        let q = compile(
            r#"for $c in c:CUSTOMER()
               where (if ($c/CID eq "CUST001") then $c/FIRST_NAME else $c/LAST_NAME) eq "Jones"
               return $c/CID"#,
        );
        let sql = oracle_sql(&q);
        assert!(sql.contains("CASE"), "{sql}");
        assert!(sql.contains("WHEN t1.\"CID\" = 'CUST001'"), "{sql}");
        assert!(sql.contains("THEN t1.\"FIRST_NAME\""), "{sql}");
        assert!(sql.contains("ELSE t1.\"LAST_NAME\""), "{sql}");
    }

    #[test]
    fn table1e_group_by_with_aggregation() {
        let q = compile(
            r#"for $c in c:CUSTOMER()
               group $c as $p by $c/LAST_NAME as $l
               return <CUSTOMER>{ $l, count($p) }</CUSTOMER>"#,
        );
        let sql = oracle_sql(&q);
        assert!(sql.contains("COUNT(*)"), "{sql}");
        assert!(sql.contains("GROUP BY t1.\"LAST_NAME\""), "{sql}");
    }

    #[test]
    fn table1f_group_by_distinct() {
        let q = compile(
            r#"for $c in c:CUSTOMER()
               group by $c/LAST_NAME as $l
               return $l"#,
        );
        let sql = oracle_sql(&q);
        assert!(sql.starts_with("SELECT DISTINCT t1.\"LAST_NAME\""), "{sql}");
        assert!(!sql.contains("GROUP BY"), "{sql}");
    }

    #[test]
    fn table2g_outer_join_with_aggregation() {
        let q = compile(
            r#"for $c in c:CUSTOMER()
               return
                 <CUSTOMER>{
                   $c/CID,
                   <ORDERS>{
                     count(for $o in c:ORDER()
                           where $o/CID eq $c/CID
                           return $o)
                   }</ORDERS>
                 }</CUSTOMER>"#,
        );
        let sql = oracle_sql(&q);
        assert!(sql.contains("LEFT OUTER JOIN \"ORDER\""), "{sql}");
        assert!(sql.contains("COUNT("), "{sql}");
        assert!(sql.contains("GROUP BY"), "{sql}");
    }

    #[test]
    fn table2h_semi_join_exists() {
        let q = compile(
            r#"for $c in c:CUSTOMER()
               where some $o in c:ORDER() satisfies $c/CID eq $o/CID
               return $c/CID"#,
        );
        let sql = oracle_sql(&q);
        assert!(sql.contains("WHERE EXISTS("), "{sql}");
        assert!(sql.contains("SELECT 1 AS c1"), "{sql}");
        assert!(sql.contains("t1.\"CID\" = t2.\"CID\""), "{sql}");
    }

    #[test]
    fn table2i_subsequence_pagination() {
        let q = compile(
            r#"let $cs :=
                 for $c in c:CUSTOMER()
                 order by $c/LAST_NAME descending
                 return $c/CID
               return subsequence($cs, 10, 20)"#,
        );
        let sql = oracle_sql(&q);
        assert!(sql.contains("ROWNUM"), "{sql}");
        assert!(
            sql.contains("(t_out.rn >= 10) AND (t_out.rn < 30)"),
            "{sql}"
        );
        assert!(sql.contains("ORDER BY t1.\"LAST_NAME\" DESC"), "{sql}");
    }

    #[test]
    fn subsequence_not_pushed_to_sql92() {
        let mut opts = Options::default();
        opts.dialects.insert("db1".into(), Dialect::Sql92);
        let c = Compiler::new(fixture(), opts);
        let q = c
            .compile_query(&format!(
                "{PROLOG}
                 let $cs := for $c in c:CUSTOMER() order by $c/LAST_NAME return $c/CID
                 return subsequence($cs, 10, 20)"
            ))
            .unwrap();
        let regions = collect_sql_regions(&q.plan);
        assert!(
            regions[0].select.offset.is_none(),
            "subsequence must stay in middleware"
        );
        let mut has_subseq = false;
        q.plan.walk(&mut |e| {
            if matches!(
                &e.kind,
                CKind::Builtin {
                    op: Builtin::Subsequence,
                    ..
                }
            ) {
                has_subseq = true;
            }
        });
        assert!(has_subseq);
    }

    #[test]
    fn cross_source_join_uses_ppk() {
        let q = compile(
            r#"for $c in c:CUSTOMER()
               return
                 <PROFILE>{
                   $c/CID,
                   <CARDS>{
                     for $k in cc:CREDIT_CARD()
                     where $k/CID eq $c/CID
                     return $k/CCN
                   }</CARDS>
                 }</PROFILE>"#,
        );
        let regions = collect_sql_regions(&q.plan);
        assert_eq!(regions.len(), 2, "{:#?}", q.plan);
        let inner = regions.iter().find(|r| r.connection == "db2").unwrap();
        let ppk = inner.ppk.as_ref().expect("dependent join must use PP-k");
        assert_eq!(ppk.k, 20, "the paper's default block size");
        assert!(ppk.outer_join);
        assert_eq!(ppk.local_method, LocalJoinMethod::IndexNestedLoop);
        assert_eq!(ppk.outer_keys.len(), 1);
    }

    #[test]
    fn navigation_function_becomes_join() {
        let q = compile(
            r#"for $c in c:CUSTOMER(), $o in c:getORDER($c)
               return <CO>{ $c/CID, $o/OID }</CO>"#,
        );
        let sql = oracle_sql(&q);
        assert!(sql.contains("JOIN \"ORDER\" t2"), "{sql}");
        assert!(sql.contains("ON t1.\"CID\" = t2.\"CID\""), "{sql}");
    }

    #[test]
    fn inverse_function_rewrite_enables_pushdown() {
        let src = format!(
            "{PROLOG}
             declare variable $start as xs:dateTime external;
             for $c in c:CUSTOMER()
             where lib:int2date($c/SINCE) gt $start
             return $c/CID"
        );
        // without the inverse declared: no pushdown of the predicate
        let plain = compiler().compile_query(&src).unwrap();
        let r0 = collect_sql_regions(&plain.plan);
        assert!(
            r0.is_empty() || r0[0].select.where_.is_none(),
            "predicate must not push without the inverse: {:?}",
            r0[0].select.where_
        );
        // with the inverse: SINCE > ? with a middleware date2int param
        let mut c = compiler();
        c.declare_inverse(
            QName::new("urn:lib", "int2date"),
            QName::new("urn:lib", "date2int"),
        );
        let q = c.compile_query(&src).unwrap();
        let regions = collect_sql_regions(&q.plan);
        let sql = render_select(&regions[0].select, Dialect::Oracle);
        assert!(sql.contains("t1.\"SINCE\" > ?"), "{sql}");
        let mut has_param_call = false;
        q.plan.walk(&mut |e| {
            if let CKind::Flwor { clauses, .. } = &e.kind {
                for cl in clauses {
                    if let Clause::SqlFor { params, .. } = cl {
                        for p in params {
                            p.walk(&mut |pe| {
                                if let CKind::PhysicalCall { name, .. } = &pe.kind {
                                    if name.local_name() == "date2int" {
                                        has_param_call = true;
                                    }
                                }
                            });
                        }
                    }
                }
            }
        });
        assert!(
            has_param_call,
            "date2int($start) must be a middleware param"
        );
    }

    #[test]
    fn view_unfolding_pushes_predicate_through_data_service() {
        // the getProfileByID pattern of Figure 3 / §4.2
        let c = compiler();
        c.deploy_module(&format!(
            "{PROLOG}
             declare namespace tns = \"urn:profileDS\";
             declare function tns:getProfile() as element(PROFILE)* {{
               for $c in c:CUSTOMER()
               return <PROFILE><CID>{{fn:data($c/CID)}}</CID><NAME>{{fn:data($c/LAST_NAME)}}</NAME></PROFILE>
             }};
             declare function tns:getProfileByID($id as xs:string) as element(PROFILE)* {{
               tns:getProfile()[CID eq $id]
             }};"
        ))
        .unwrap();
        let q = c
            .compile_query(&format!(
                "{PROLOG}
                 declare namespace tns = \"urn:profileDS\";
                 declare variable $id as xs:string external;
                 tns:getProfileByID($id)"
            ))
            .unwrap();
        let regions = collect_sql_regions(&q.plan);
        assert_eq!(regions.len(), 1, "{:#?}", q.plan);
        let sql = render_select(&regions[0].select, Dialect::Oracle);
        assert!(sql.contains("WHERE t1.\"CID\" = ?"), "{sql}");
        assert_eq!(count_physical_calls(&q.plan), 0);
    }

    #[test]
    fn unused_constructor_content_is_not_fetched() {
        // §4.2's access-elimination example: only LAST_NAME survives
        let q = compile(
            r#"for $c in c:CUSTOMER()
               let $x := <CUSTOMER>
                           <LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME>
                           <FIRST>{fn:data($c/FIRST_NAME)}</FIRST>
                         </CUSTOMER>
               return fn:data($x/LAST_NAME)"#,
        );
        let sql = oracle_sql(&q);
        assert!(sql.contains("LAST_NAME"), "{sql}");
        assert!(
            !sql.contains("FIRST_NAME"),
            "FIRST_NAME must not be fetched: {sql}"
        );
    }

    #[test]
    fn optimistic_typing_inserts_typematch() {
        let c = compiler();
        c.deploy_module(&format!(
            "{PROLOG}
             declare namespace t = \"urn:t\";
             declare function t:pick($x as element(CUSTOMER)) as element(CUSTOMER) {{ $x }};"
        ))
        .unwrap();
        let q = c
            .compile_query(&format!(
                "{PROLOG}
                 declare namespace t = \"urn:t\";
                 declare variable $v external;
                 t:pick($v)"
            ))
            .unwrap();
        let mut has_typematch = false;
        q.plan.walk(&mut |e| {
            if matches!(&e.kind, CKind::TypeMatch { .. }) {
                has_typematch = true;
            }
        });
        assert!(has_typematch, "{:#?}", q.plan);
    }

    #[test]
    fn disjoint_types_rejected_statically() {
        let c = compiler();
        c.deploy_module(
            "declare namespace t = \"urn:t\";
             declare function t:f($x as xs:date) as xs:date { $x };",
        )
        .unwrap();
        let err = c
            .compile_query(
                "declare namespace t = \"urn:t\";
                 t:f(42)",
            )
            .unwrap_err();
        assert!(
            err.iter().any(|d| d.message.contains("never match")),
            "{err:?}"
        );
    }

    #[test]
    fn view_cache_reuses_partial_optimizations() {
        let c = compiler();
        c.deploy_module(&format!(
            "{PROLOG}
             declare namespace t = \"urn:t\";
             declare function t:all() as element(CUSTOMER)* {{
               for $c in c:CUSTOMER() return $c
             }};"
        ))
        .unwrap();
        let before = c.stats();
        assert_eq!(before.partial_optimizations, 1);
        for _ in 0..2 {
            c.compile_query(&format!(
                "{PROLOG}
                 declare namespace t = \"urn:t\";
                 for $x in t:all() return $x/CID"
            ))
            .unwrap();
        }
        let after = c.stats();
        assert_eq!(after.partial_optimizations, 1);
        assert_eq!(after.queries_compiled, 2);
    }

    #[test]
    fn compile_call_generates_parameter_plan() {
        let c = compiler();
        c.deploy_module(&format!(
            "{PROLOG}
             declare namespace t = \"urn:t\";
             declare function t:byId($id as xs:string) as element(CUSTOMER)* {{
               for $c in c:CUSTOMER() where $c/CID eq $id return $c
             }};"
        ))
        .unwrap();
        let q = c.compile_call(&QName::new("urn:t", "byId")).unwrap();
        assert_eq!(q.external_vars, vec!["arg0"]);
        let regions = collect_sql_regions(&q.plan);
        assert_eq!(regions.len(), 1);
        let sql = render_select(&regions[0].select, Dialect::Oracle);
        assert!(sql.contains("= ?"), "{sql}");
    }

    #[test]
    fn recover_mode_collects_errors_and_keeps_good_functions() {
        let opts = Options {
            mode: Mode::Recover,
            ..Default::default()
        };
        let c = Compiler::new(fixture(), opts);
        let deployed = c
            .deploy_module(
                "declare namespace t = \"urn:t\";
                 declare function t:bad() { $undefined };
                 declare function t:good() { 42 };",
            )
            .unwrap();
        assert_eq!(deployed.len(), 2);
        let q = c
            .compile_query(
                "declare namespace t = \"urn:t\";
                 t:good()",
            )
            .unwrap();
        assert!(matches!(
            &q.plan.kind,
            CKind::Const(aldsp_xdm::value::AtomicValue::Integer(42))
        ));
    }

    #[test]
    fn web_service_calls_stay_in_middleware() {
        let q = compile(
            r#"for $c in c:CUSTOMER()
               return
                 <P>{
                   $c/CID,
                   <RATING>{
                     fn:data(ws:getRating(
                       <r:getRating xmlns:r="urn:ratingTypes">
                         <r:lName>{fn:data($c/LAST_NAME)}</r:lName>
                         <r:ssn>{fn:data($c/SSN)}</r:ssn>
                       </r:getRating>)/r:getRatingResult)
                   }</RATING>
                 }</P>"#,
        );
        assert!(!collect_sql_regions(&q.plan).is_empty());
        assert_eq!(count_physical_calls(&q.plan), 1, "{:#?}", q.plan);
    }
}

#[cfg(test)]
mod scalar_projection_tests {
    use super::tests::compile;
    use super::*;
    use aldsp_relational::{render_select, Dialect};

    #[test]
    fn table1d_exact_form_case_in_select_list() {
        // the paper's published 1(d): the conditional is constructor
        // content, so CASE lands in the SELECT list
        // note: the paper's snippet writes the branches without explicit
        // atomization; its SQL fetches the *values*, so the faithful
        // pushable form atomizes (see EXPERIMENTS.md)
        let q = compile(
            r#"for $c in c:CUSTOMER()
               return
                 <CUSTOMER>{
                   if ($c/CID eq "CUST001")
                   then fn:data($c/FIRST_NAME)
                   else fn:data($c/LAST_NAME)
                 }</CUSTOMER>"#,
        );
        let regions = collect_sql_regions(&q.plan);
        let sql = render_select(&regions[0].select, Dialect::Oracle);
        assert!(
            sql.contains("SELECT CASE\nWHEN t1.\"CID\" = 'CUST001'\nTHEN t1.\"FIRST_NAME\"\nELSE t1.\"LAST_NAME\"\nEND AS c1"),
            "{sql}"
        );
        assert_eq!(count_physical_calls(&q.plan), 0);
    }

    #[test]
    fn arithmetic_projection_pushes() {
        let q = compile(
            r#"for $o in c:ORDER()
               return <TOTAL>{ $o/AMOUNT * 2 }</TOTAL>"#,
        );
        let regions = collect_sql_regions(&q.plan);
        let sql = render_select(&regions[0].select, Dialect::Oracle);
        assert!(sql.contains("(t1.\"AMOUNT\" * 2)"), "{sql}");
    }

    #[test]
    fn string_function_projection_pushes() {
        let q = compile(
            r#"for $c in c:CUSTOMER()
               return <U>{ fn:upper-case($c/LAST_NAME) }</U>"#,
        );
        let regions = collect_sql_regions(&q.plan);
        let sql = render_select(&regions[0].select, Dialect::Oracle);
        assert!(sql.contains("UPPER(t1.\"LAST_NAME\")"), "{sql}");
    }
}

/// A query-constant parameter plans exactly like the literal it stands
/// for: each probe compiles once with its literal and once with an
/// external variable in its place, and the two plans must agree on
/// everything but `?` for the literal and the parameter list.
#[cfg(test)]
mod param_neutral_tests {
    use super::tests::{fixture, PROLOG};
    use super::*;
    use aldsp_metadata::TableStats;
    use aldsp_relational::Dialect;
    use aldsp_xdm::QName;
    use std::sync::Arc;

    const PROFILE_MODULE: &str = r#"
        declare namespace p = "urn:profileDS";
        declare function p:getProfile() as element(PROFILE)* {
          for $c in c:CUSTOMER()
          return
            <PROFILE>
              <CID>{fn:data($c/CID)}</CID>
              <LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME>
              <ORDERS>{ for $o in c:ORDER() where $o/CID eq $c/CID return $o/OID }</ORDERS>
              <CREDIT_CARDS>{
                for $k in cc:CREDIT_CARD() where $k/CID eq $c/CID return $k/CCN
              }</CREDIT_CARDS>
            </PROFILE>
        };
        declare function p:getProfileByID($id as xs:string) as element(PROFILE)* {
          p:getProfile()[CID eq $id]
        };
    "#;

    /// The running-example compiler with the statistics that let the
    /// cost model choose a hash join, and the profile views deployed.
    fn compiler() -> Compiler {
        let mut reg = (*fixture()).clone();
        for (conn, table, rows) in [
            ("db1", "CUSTOMER", 10_000),
            ("db1", "ORDER", 30_000),
            ("db2", "CREDIT_CARD", 20_000),
        ] {
            let mut ts = TableStats {
                row_count: rows,
                column_distinct: Default::default(),
            };
            ts.column_distinct.insert("CID".into(), 10_000);
            reg.set_table_stats(conn, table, ts);
        }
        let mut opts = Options::default();
        opts.dialects.insert("db1".into(), Dialect::Oracle);
        opts.dialects.insert("db2".into(), Dialect::Db2);
        let c = Compiler::new(Arc::new(reg), opts);
        c.deploy_module(&format!("{PROLOG}{PROFILE_MODULE}"))
            .expect("deploys");
        c
    }

    /// The plan's shape: clause lines, SQL text, PP-k specs and the
    /// join header, with node ids, parameter counts and SQL
    /// literals normalized away; parameter expression subtrees (and the
    /// middleware expressions, which differ by `Const` ↔ `Var`) left out.
    fn shape(c: &Compiler, q: &CompiledQuery) -> String {
        let dialects = c.options().dialects.clone();
        let text = explain_plan(
            &q.plan,
            &ExplainContext {
                dialects: &dialects,
                cache_enabled: &|_| false,
                governor: None,
                matview: None,
                pushdown: q.pushdown,
                programs: None,
                joins: Some(&q.joins),
                shape: None,
            },
        );
        let mut out = String::new();
        for line in text.lines() {
            let l = line.trim_start();
            let clause =
                l.starts_with('#') && l[1..].split(' ').next().is_some_and(|id| id.contains('.'));
            let kept = clause
                || l.starts_with("sql> ")
                || l.starts_with("ppk: ")
                || l.starts_with("-- join:");
            if kept {
                out.push_str(&normalize(l));
                out.push('\n');
            }
        }
        out
    }

    /// `#12.3` → `#`, `params=2 query-const=1` → gone, and in SQL text
    /// every literal → `?`.
    fn normalize(line: &str) -> String {
        if let Some(sql) = line.strip_prefix("sql> ") {
            return format!("sql> {}", aldsp_relational::modulo_literals(sql));
        }
        let mut out = String::new();
        let mut rest = line;
        while let Some(c) = rest.chars().next() {
            if c == '#' {
                out.push('#');
                rest = rest[1..].trim_start_matches(|d: char| d.is_ascii_digit() || d == '.');
            } else if rest.starts_with("params=") {
                rest = &rest[rest.find(" binds=").unwrap_or(rest.len())..];
            } else {
                out.push(c);
                rest = &rest[c.len_utf8()..];
            }
        }
        out
    }

    /// Compile `template` with `literal` for `{}` and with an external
    /// variable for `{}`; both plans must have one shape.
    fn assert_neutral(template: &str, literal: &str) -> String {
        let c = compiler();
        let lit = c
            .compile_query(&format!("{PROLOG}{}", template.replace("{}", literal)))
            .unwrap_or_else(|d| panic!("literal text: {d:?}"));
        let ext = c
            .compile_query(&format!(
                "{PROLOG} declare variable $v external; {}",
                template.replace("{}", "$v")
            ))
            .unwrap_or_else(|d| panic!("external text: {d:?}"));
        let (want, got) = (shape(&c, &lit), shape(&c, &ext));
        assert_eq!(
            got, want,
            "\n--- external ---\n{got}\n--- literal ---\n{want}"
        );
        want
    }

    #[test]
    fn the_six_adhoc_templates() {
        let id = "\"C0007\"";
        // point lookup
        assert_neutral(
            "for $c in c:CUSTOMER() where $c/CID eq {} \
             return <R>{$c/CID}{$c/LAST_NAME}{$c/SSN}</R>",
            id,
        );
        // same-source join
        assert_neutral(
            "for $c in c:CUSTOMER(), $o in c:ORDER() \
             where $o/CID eq $c/CID and $c/CID eq {} \
             return <R>{$c/LAST_NAME}{$o/OID}{$o/AMOUNT}</R>",
            id,
        );
        // cross-source profile
        let s = assert_neutral(
            "for $c in c:CUSTOMER() where $c/CID eq {} \
             return <R>{$c/CID}<CARDS>{ \
               for $k in cc:CREDIT_CARD() where $k/CID eq $c/CID return $k/CCN \
             }</CARDS></R>",
            id,
        );
        assert!(s.contains("ppk: k=20"), "{s}");
        // group-by with aggregate
        let s = assert_neutral(
            "for $o in c:ORDER() where $o/CID ge {} and $o/CID le \"C0011\" \
             group $o as $g by $o/CID as $k \
             return <R><K>{$k}</K><N>{fn:count($g)}</N></R>",
            id,
        );
        assert!(s.contains("GROUP BY"), "{s}");
        // order-by: the ORDER BY still pushes
        let s = assert_neutral(
            "for $c in c:CUSTOMER() where $c/LAST_NAME eq \"Jones\" and $c/CID ge {} \
             order by $c/SINCE descending \
             return <R>{$c/CID}</R>",
            id,
        );
        assert!(s.contains("ORDER BY t1.\"SINCE\" DESC"), "{s}");
        // call through the getProfileByID view: CUSTOMER ⟕ ORDER still
        // merge, leaving two statements
        let s = assert_neutral(
            "declare namespace p = \"urn:profileDS\"; \
             for $p in p:getProfileByID({}) return <R>{$p/CID}{$p/ORDERS}</R>",
            id,
        );
        assert!(s.contains("LEFT OUTER JOIN \"ORDER\""), "{s}");
        assert_eq!(s.matches("SqlScan").count(), 2, "{s}");
    }

    #[test]
    fn nested_same_connection_flwor_merges_with_constants_on_both_sides() {
        let s = assert_neutral(
            "for $c in c:CUSTOMER() where $c/LAST_NAME eq {} \
             return <C>{ $c/CID, for $o in c:ORDER() \
               where $o/CID eq $c/CID and $o/AMOUNT gt 10 return $o/OID }</C>",
            "\"Jones\"",
        );
        assert!(s.contains("LEFT OUTER JOIN \"ORDER\""), "{s}");
        assert_eq!(s.matches("SqlScan").count(), 1, "{s}");
        // ... and with the inner constant the parameter
        let s = assert_neutral(
            "for $c in c:CUSTOMER() where $c/LAST_NAME eq \"Jones\" \
             return <C>{ $c/CID, for $o in c:ORDER() \
               where $o/CID eq $c/CID and $o/AMOUNT gt {} return $o/OID }</C>",
            "10",
        );
        assert_eq!(s.matches("SqlScan").count(), 1, "{s}");
    }

    #[test]
    fn ppk_inner_region_with_an_extra_filter_keeps_its_block_size() {
        let s = assert_neutral(
            "for $c in c:CUSTOMER() \
             return <P>{ $c/CID, for $k in cc:CREDIT_CARD() \
               where $k/CID eq $c/CID and $k/LIMIT_AMT gt {} return $k/CCN }</P>",
            "500",
        );
        assert!(s.contains("ppk: k=20"), "{s}");
        // the runtime's block size follows the recorded constancy
        let c = compiler();
        let q = c
            .compile_query(&format!(
                "{PROLOG} declare variable $v external; \
                 for $c in c:CUSTOMER() \
                 return <P>{{ $c/CID, for $k in cc:CREDIT_CARD() \
                   where $k/CID eq $c/CID and $k/LIMIT_AMT gt $v return $k/CCN }}</P>"
            ))
            .unwrap();
        let mut seen = 0;
        q.plan.walk(&mut |e| {
            let CKind::Flwor { clauses, .. } = &e.kind else {
                return;
            };
            for cl in clauses {
                if let Clause::SqlFor {
                    params,
                    query_const,
                    ppk: Some(_),
                    ..
                } = cl
                {
                    assert_eq!(params.len(), 1);
                    assert_eq!(query_const, &[true]);
                    seen += 1;
                }
            }
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn cross_source_join_with_a_constant_filter_stays_a_hash_join() {
        let s = assert_neutral(
            "for $c in c:CUSTOMER(), $k in cc:CREDIT_CARD() \
             where $k/CID eq $c/CID and $k/LIMIT_AMT gt {} \
             return <J>{$c/LAST_NAME}{$k/CCN}</J>",
            "40000",
        );
        assert!(s.contains("strategy=hash"), "{s}");
        // the bulk statement keeps the constant, renumbered to ?0, and
        // loses only the correlating conjunct
        let c = compiler();
        let q = c
            .compile_query(&format!(
                "{PROLOG} declare variable $v external; \
                 for $c in c:CUSTOMER(), $k in cc:CREDIT_CARD() \
                 where $k/LIMIT_AMT gt $v and $k/CID eq $c/CID \
                 return <J>{{$c/LAST_NAME}}{{$k/CCN}}</J>"
            ))
            .unwrap();
        let (_, _, mark) = q.joins.iter().next().expect("marked");
        let bulk = aldsp_relational::render_select(&mark.bulk, Dialect::Db2);
        assert!(bulk.contains("WHERE t1.\"LIMIT_AMT\" > ?"), "{bulk}");
        assert!(!bulk.contains("\"CID\" ="), "{bulk}");
        assert_eq!(mark.bulk.where_.as_ref().unwrap().param_count(), 1);
    }

    #[test]
    fn trailing_order_by_and_pagination_push_past_a_constant() {
        let s = assert_neutral(
            "let $cs := for $c in c:CUSTOMER() where $c/SINCE ge {} \
                        order by $c/LAST_NAME descending return $c/CID \
             return fn:subsequence($cs, 10, 20)",
            "1005",
        );
        assert!(s.contains("ROWNUM"), "{s}");
        assert!(s.contains("ORDER BY t1.\"LAST_NAME\" DESC"), "{s}");
    }

    #[test]
    fn a_call_plans_like_the_text_with_its_argument_as_a_literal() {
        let c = compiler();
        let call = c
            .compile_call(&QName::new("urn:profileDS", "getProfileByID"))
            .expect("compiles");
        let text = c
            .compile_query(&format!(
                "{PROLOG} declare namespace p = \"urn:profileDS\"; \
                 p:getProfileByID(\"C0007\")"
            ))
            .expect("compiles");
        let (got, want) = (shape(&c, &call), shape(&c, &text));
        assert_eq!(got, want, "\n--- call ---\n{got}\n--- text ---\n{want}");
        assert_eq!(want.matches("SqlScan").count(), 2, "{want}");
    }
}
