//! # aldsp-parser — the ALDSP XQuery front end
//!
//! Lexer and recursive-descent parser for the XQuery dialect ALDSP 2.1
//! supports (the July-2004 XQuery working draft subset, §3.1 of the VLDB
//! 2006 paper), with the ALDSP extensions:
//!
//! * the FLWGOR `group … by` clause,
//! * conditional element/attribute construction (`<E?>`, `a?="…"`),
//! * `(::pragma … ::)` metadata annotations on declarations (§3.2),
//!
//! and the paper's two-mode error handling (§4.1): fail-fast for runtime
//! compilation, recover-and-collect for the design-time XQuery editor.

#![forbid(unsafe_code)]

pub mod ast;
pub mod lexer;
pub mod parser;

pub use ast::{Expr, ExprKind, FunctionDecl, Module, Name, Pragma};
pub use parser::{parse_expr, parse_module, parse_module_strict, Diagnostic, Mode};

#[cfg(test)]
mod tests {
    use super::ast::*;
    use super::*;
    use aldsp_xdm::item::CompOp;
    use aldsp_xdm::value::AtomicValue;

    fn expr(src: &str) -> Expr {
        parse_expr(src).unwrap_or_else(|d| panic!("parse failed: {d}\n{src}"))
    }

    #[test]
    fn flwor_with_where_and_return() {
        let e = expr(r#"for $c in CUSTOMER() where $c/CID eq "CUST001" return $c/FIRST_NAME"#);
        let ExprKind::Flwor { clauses, ret } = &e.kind else {
            panic!("expected FLWOR, got {e:?}")
        };
        assert_eq!(clauses.len(), 2);
        assert!(matches!(&clauses[0], Clause::For { var, .. } if var == "c"));
        let Clause::Where(w) = &clauses[1] else {
            panic!()
        };
        assert!(matches!(
            &w.kind,
            ExprKind::Comparison {
                op: CompOp::Eq,
                general: false,
                ..
            }
        ));
        assert!(matches!(&ret.kind, ExprKind::Path { .. }));
    }

    #[test]
    fn group_clause_full_form() {
        // the paper's §3.1 example
        let e = expr(
            r#"for $c in CUSTOMER()
               let $cid := $c/CID
               group $cid as $ids by $c/LAST_NAME as $name
               return <CUSTOMER_IDS name="{$name}">{ $ids }</CUSTOMER_IDS>"#,
        );
        let ExprKind::Flwor { clauses, .. } = &e.kind else {
            panic!()
        };
        let Clause::GroupBy { bindings, keys } = &clauses[2] else {
            panic!("expected group clause, got {:?}", clauses[2])
        };
        assert_eq!(bindings.len(), 1);
        assert_eq!(bindings[0].from, "cid");
        assert_eq!(bindings[0].to, "ids");
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].alias.as_deref(), Some("name"));
    }

    #[test]
    fn group_clause_keys_only_distinct_form() {
        // Table 1(f): group by with no bindings
        let e = expr("for $c in CUSTOMER() group by $c/LAST_NAME as $l return $l");
        let ExprKind::Flwor { clauses, .. } = &e.kind else {
            panic!()
        };
        let Clause::GroupBy { bindings, keys } = &clauses[1] else {
            panic!()
        };
        assert!(bindings.is_empty());
        assert_eq!(keys.len(), 1);
    }

    #[test]
    fn order_by_descending() {
        let e = expr("for $c in C() order by $c/N descending, $c/M return $c");
        let ExprKind::Flwor { clauses, .. } = &e.kind else {
            panic!()
        };
        let Clause::OrderBy(specs) = &clauses[1] else {
            panic!()
        };
        assert!(specs[0].descending);
        assert!(!specs[1].descending);
    }

    #[test]
    fn direct_constructor_with_enclosed_exprs() {
        let e = expr(r#"<PROFILE id="{$x}" kind="a{$y}b"><CID>{fn:data($c/CID)}</CID></PROFILE>"#);
        let ExprKind::DirectElement {
            name,
            attributes,
            content,
            conditional,
            ..
        } = &e.kind
        else {
            panic!("expected constructor, got {e:?}")
        };
        assert_eq!(name.local, "PROFILE");
        assert!(!conditional);
        assert_eq!(attributes.len(), 2);
        assert_eq!(attributes[1].value.len(), 3); // "a", {$y}, "b"
        assert_eq!(content.len(), 1);
        let ExprKind::DirectElement {
            name: cname,
            content: ccontent,
            ..
        } = &content[0].kind
        else {
            panic!()
        };
        assert_eq!(cname.local, "CID");
        let ExprKind::Call { name: f, .. } = &ccontent[0].kind else {
            panic!()
        };
        assert_eq!(f.to_string(), "fn:data");
    }

    #[test]
    fn conditional_construction_extension() {
        // §3.1: <FIRST_NAME?>{$fname}</FIRST_NAME>
        let e = expr("<FIRST_NAME?>{$fname}</FIRST_NAME>");
        let ExprKind::DirectElement { conditional, .. } = &e.kind else {
            panic!()
        };
        assert!(*conditional);
        // conditional attribute
        let e = expr(r#"<E a?="{$v}"/>"#);
        let ExprKind::DirectElement { attributes, .. } = &e.kind else {
            panic!()
        };
        assert!(attributes[0].conditional);
    }

    #[test]
    fn constructor_brace_escapes_and_text() {
        let e = expr("<E>literal {{braces}} kept</E>");
        let ExprKind::DirectElement { content, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(content.len(), 1);
        let ExprKind::Literal(v) = &content[0].kind else {
            panic!()
        };
        assert_eq!(v.string_value(), "literal {braces} kept");
    }

    #[test]
    fn nested_constructors_with_namespaces() {
        let e = expr(r#"<tns:PROFILE xmlns:tns="urn:p" xmlns="urn:d"><INNER/></tns:PROFILE>"#);
        let ExprKind::DirectElement {
            namespaces,
            default_ns,
            content,
            ..
        } = &e.kind
        else {
            panic!()
        };
        assert_eq!(namespaces[0], ("tns".to_string(), "urn:p".to_string()));
        assert_eq!(default_ns.as_deref(), Some("urn:d"));
        assert_eq!(content.len(), 1);
    }

    #[test]
    fn predicates_on_calls_and_steps() {
        // the paper's navigation-function pattern:
        //   ns2:CREDIT_CARD()[CID eq $CUSTOMER/CID]
        let e = expr("ns2:CREDIT_CARD()[CID eq $CUSTOMER/CID]");
        let ExprKind::Filter { base, predicates } = &e.kind else {
            panic!("{e:?}")
        };
        assert!(matches!(&base.kind, ExprKind::Call { .. }));
        assert_eq!(predicates.len(), 1);
        // relative path inside the predicate
        let ExprKind::Comparison { lhs, .. } = &predicates[0].kind else {
            panic!()
        };
        let ExprKind::Path { start, steps } = &lhs.kind else {
            panic!()
        };
        assert!(matches!(&start.kind, ExprKind::ContextItem));
        assert_eq!(steps.len(), 1);
    }

    #[test]
    fn quantified_expression() {
        // Table 2(h)
        let e = expr("some $o in ORDERS() satisfies $c/CID eq $o/CID");
        let ExprKind::Quantified {
            every, bindings, ..
        } = &e.kind
        else {
            panic!()
        };
        assert!(!every);
        assert_eq!(bindings.len(), 1);
        let e = expr("every $x in (1,2), $y in (3) satisfies $x lt $y");
        let ExprKind::Quantified {
            every, bindings, ..
        } = &e.kind
        else {
            panic!()
        };
        assert!(every);
        assert_eq!(bindings.len(), 2);
    }

    #[test]
    fn if_then_else_and_operators() {
        let e = expr(r#"if ($c/CID eq "X") then $c/A else $c/B"#);
        assert!(matches!(&e.kind, ExprKind::If { .. }));
        let e = expr("1 + 2 * 3");
        let ExprKind::Arith { op, rhs, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(*op, aldsp_xdm::value::ArithOp::Add);
        assert!(matches!(&rhs.kind, ExprKind::Arith { .. }));
        let e = expr("$a = 1 or $b != 2 and $c < 3");
        assert!(matches!(&e.kind, ExprKind::Or(..)));
    }

    #[test]
    fn general_vs_value_comparisons() {
        let g = expr("$a = $b");
        assert!(matches!(
            &g.kind,
            ExprKind::Comparison { general: true, .. }
        ));
        let v = expr("$a eq $b");
        assert!(matches!(
            &v.kind,
            ExprKind::Comparison { general: false, .. }
        ));
    }

    #[test]
    fn instance_of_and_cast() {
        let e = expr("$x instance of element(CUSTOMER)*");
        assert!(matches!(&e.kind, ExprKind::InstanceOf(..)));
        let e = expr("$x cast as xs:integer");
        assert!(matches!(&e.kind, ExprKind::CastAs(..)));
        let e = expr("$x castable as xs:date");
        assert!(matches!(&e.kind, ExprKind::CastableAs(..)));
    }

    #[test]
    fn typeswitch_parses() {
        let e = expr(
            "typeswitch ($x) case $e as element(A) return 1 case xs:string return 2 default $d return 3",
        );
        let ExprKind::Typeswitch {
            cases, default_var, ..
        } = &e.kind
        else {
            panic!()
        };
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].var.as_deref(), Some("e"));
        assert_eq!(default_var.as_deref(), Some("d"));
    }

    #[test]
    fn sequence_and_range() {
        let e = expr("(1, 2, 3)");
        let ExprKind::Sequence(items) = &e.kind else {
            panic!()
        };
        assert_eq!(items.len(), 3);
        let e = expr("1 to 10");
        assert!(matches!(&e.kind, ExprKind::Range(..)));
        let e = expr("()");
        assert!(matches!(&e.kind, ExprKind::Sequence(v) if v.is_empty()));
    }

    #[test]
    fn paths_with_descendants_and_attributes() {
        let e = expr("$doc//ORDER/@id");
        let ExprKind::Path { steps, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[0].axis, Axis::DescendantOrSelf);
        assert_eq!(steps[2].axis, Axis::Attribute);
    }

    #[test]
    fn negative_numbers_and_literals() {
        let e = expr("-5");
        assert!(matches!(&e.kind, ExprKind::Neg(..)));
        let e = expr("2.5");
        assert!(matches!(
            &e.kind,
            ExprKind::Literal(AtomicValue::Decimal(_))
        ));
        let e = expr(r#""hello""#);
        assert!(matches!(&e.kind, ExprKind::Literal(AtomicValue::String(_))));
    }

    // ---- module-level tests -------------------------------------------------

    #[test]
    fn full_module_prolog() {
        let src = r#"
            xquery version "1.0" encoding "UTF8";
            declare namespace tns = "urn:profile";
            import schema namespace ns0 = "urn:shapes" at "profile.xsd";
            declare default element namespace "urn:d";
            declare variable $who as xs:string external;

            (::pragma function kind="read" nativeName="CUSTOMER" ::)
            declare function tns:getProfile() as element(ns0:PROFILE)* {
              for $c in tns:CUSTOMER() return <PROFILE>{ $c/CID }</PROFILE>
            };

            declare function tns:CUSTOMER() as element(CUSTOMER)* external;
        "#;
        let m = parse_module_strict(src).unwrap();
        assert_eq!(m.version.as_deref(), Some("1.0"));
        assert_eq!(
            m.namespaces,
            vec![("tns".to_string(), "urn:profile".to_string())]
        );
        assert_eq!(m.schema_imports.len(), 1);
        assert_eq!(m.schema_imports[0].location.as_deref(), Some("profile.xsd"));
        assert_eq!(m.default_element_ns.as_deref(), Some("urn:d"));
        assert_eq!(m.variables.len(), 1);
        assert_eq!(m.functions.len(), 2);
        let f = &m.functions[0];
        assert_eq!(f.name.to_string(), "tns:getProfile");
        assert_eq!(f.pragmas.len(), 1);
        assert_eq!(f.pragmas[0].get("kind"), Some("read"));
        assert!(f.body.is_some());
        assert!(!f.external);
        assert!(m.functions[1].external);
        assert!(m.body.is_none());
    }

    #[test]
    fn module_with_main_body() {
        let m = parse_module_strict("declare namespace a = \"u\"; 1 + 1").unwrap();
        assert!(m.body.is_some());
    }

    #[test]
    fn error_recovery_collects_multiple_errors() {
        // §4.1: skip to ';' after a broken declaration and keep going
        let src = r#"
            declare namespace good = "urn:g";
            declare namespce broken = "urn:b";
            declare function f:one() { 1 };
            declare function f:two() { ]]] };
            declare function f:three($x as xs:integer) as xs:integer { $x };
        "#;
        let (m, diags) = parse_module(src);
        assert!(diags.len() >= 2, "expected ≥2 diagnostics, got {diags:?}");
        assert_eq!(m.namespaces.len(), 1);
        // f:one and f:three fully parsed; f:two's *signature* retained
        assert_eq!(m.functions.len(), 3);
        let two = &m.functions[1];
        assert_eq!(two.name.to_string(), "f:two");
        assert!(
            two.body.is_none() && !two.external,
            "broken body, kept signature"
        );
        assert!(m.functions[2].body.is_some());
    }

    #[test]
    fn fail_fast_stops_at_first_error() {
        let src = r#"
            declare namespce broken = "urn:b";
            declare function f:ok() { 1 };
        "#;
        let err = parse_module_strict(src).unwrap_err();
        assert!(!err.message.is_empty());
    }

    #[test]
    fn running_example_figure3_parses() {
        // A faithful transcription of Figure 3's getProfile
        let src = r#"
            xquery version "1.0" encoding "UTF8";
            declare namespace tns = "urn:profileDS";
            import schema namespace ns0 = "urn:profileShape";
            declare namespace ns2 = "urn:ccDS";
            declare namespace ns3 = "urn:custDS";
            declare namespace ns4 = "urn:ratingWS";
            declare namespace ns5 = "urn:ratingTypes";

            (::pragma function kind="read" ::)
            declare function tns:getProfile() as element(ns0:PROFILE)* {
              for $CUSTOMER in ns3:CUSTOMER()
              return
                <tns:PROFILE>
                  <CID>{fn:data($CUSTOMER/CID)}</CID>
                  <LAST_NAME>{fn:data($CUSTOMER/LAST_NAME)}</LAST_NAME>
                  <ORDERS>{ns3:getORDER($CUSTOMER)}</ORDERS>
                  <CREDIT_CARDS>{ns2:CREDIT_CARD()[CID eq $CUSTOMER/CID]}</CREDIT_CARDS>
                  <RATING>{
                    fn:data(ns4:getRating(
                      <ns5:getRating>
                        <ns5:lName>{fn:data($CUSTOMER/LAST_NAME)}</ns5:lName>
                        <ns5:ssn>{fn:data($CUSTOMER/SSN)}</ns5:ssn>
                      </ns5:getRating>)/ns5:getRatingResult)
                  }</RATING>
                </tns:PROFILE>
            };

            (::pragma function kind="read" ::)
            declare function tns:getProfileByID($id as xs:string) as element(ns0:PROFILE)* {
              tns:getProfile()[CID eq $id]
            };
        "#;
        let m = parse_module_strict(src).unwrap();
        assert_eq!(m.functions.len(), 2);
        let get_profile = &m.functions[0];
        let ExprKind::Flwor { ret, .. } = &get_profile.body.as_ref().unwrap().kind else {
            panic!()
        };
        let ExprKind::DirectElement { content, .. } = &ret.kind else {
            panic!()
        };
        assert_eq!(content.len(), 5); // CID, LAST_NAME, ORDERS, CREDIT_CARDS, RATING
    }

    #[test]
    fn subsequence_pattern_table2i_parses() {
        let e = expr(
            r#"let $cs :=
                 for $c in CUSTOMER()
                 let $oc := count(for $o in ORDER() where $c/CID eq $o/CID return $o)
                 order by $oc descending
                 return <CUSTOMER>{ fn:data($c/CID), $oc }</CUSTOMER>
               return subsequence($cs, 10, 20)"#,
        );
        let ExprKind::Flwor { clauses, ret } = &e.kind else {
            panic!()
        };
        assert_eq!(clauses.len(), 1);
        assert!(matches!(&ret.kind, ExprKind::Call { name, .. } if name.local == "subsequence"));
    }

    #[test]
    fn keywords_usable_as_path_steps() {
        // XQuery has no reserved words: `order` etc. can be element names
        let e = expr("$x/order/group");
        let ExprKind::Path { steps, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(steps.len(), 2);
    }
}
