//! Vendor-specific SQL text rendering (§4.3).
//!
//! "Actual SQL syntax generation during pushdown is done in a
//! vendor/version-dependent manner" — ALDSP ships dialect knowledge for
//! Oracle, DB2, SQL Server and Sybase, plus a conservative *base SQL92*
//! platform for any other database. The differences this module models:
//!
//! * **Pagination** (Table 2(i)): Oracle uses the nested `ROWNUM`
//!   pattern shown in the paper; DB2 uses `FETCH FIRST n ROWS ONLY` (and
//!   `ROW_NUMBER()` nesting when an offset is required); SQL Server uses
//!   `TOP n` / `ROW_NUMBER()`; Sybase and base SQL92 cannot push row
//!   ranges at all ([`Dialect::supports_pagination`] is how the pushdown
//!   analysis learns this and keeps `fn:subsequence` in the middleware).
//! * **String concatenation**: `||` (Oracle/DB2/SQL92) vs `+`
//!   (SQL Server/Sybase).
//! * Identifier quoting and function spellings.
//!
//! Note: the paper's Table 1(a) prints `WHERE t1."CID" = "CUST001"`;
//! standard SQL requires single quotes for character literals, so this
//! renderer emits `'CUST001'` (see EXPERIMENTS.md).

use crate::sql::{JoinKind, ScalarExpr, Select, TableRef};
use aldsp_xdm::value::ArithOp;
use std::fmt::Write;

/// The relational platforms the SQL generator knows (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dialect {
    /// Oracle (9i/10g era — `ROWNUM` pagination).
    Oracle,
    /// IBM DB2 (`FETCH FIRST n ROWS ONLY`).
    Db2,
    /// Microsoft SQL Server (`TOP n`, `ROW_NUMBER()` since 2005).
    SqlServer,
    /// Sybase ASE (conservative; no pushable pagination).
    Sybase,
    /// The "base SQL92 platform" for any other RDBMS.
    Sql92,
}

impl Dialect {
    /// Vendor name used in connection metadata.
    pub fn name(self) -> &'static str {
        match self {
            Dialect::Oracle => "Oracle",
            Dialect::Db2 => "DB2",
            Dialect::SqlServer => "SQL Server",
            Dialect::Sybase => "Sybase",
            Dialect::Sql92 => "SQL92",
        }
    }

    /// Can `fn:subsequence` row ranges be pushed to this platform? When
    /// not, the pushdown analysis leaves subsequence in the middleware.
    pub fn supports_pagination(self) -> bool {
        matches!(self, Dialect::Oracle | Dialect::Db2 | Dialect::SqlServer)
    }

    /// The string-concatenation operator.
    fn concat_op(self) -> &'static str {
        match self {
            Dialect::SqlServer | Dialect::Sybase => " + ",
            _ => " || ",
        }
    }

    /// `LENGTH` vs `LEN`, `SUBSTR` vs `SUBSTRING`.
    fn function_name(self, name: &str) -> &'static str {
        match (self, name) {
            (Dialect::SqlServer | Dialect::Sybase, "LENGTH") => "LEN",
            (Dialect::SqlServer | Dialect::Sybase, "SUBSTR") => "SUBSTRING",
            (_, "UPPER") => "UPPER",
            (_, "LOWER") => "LOWER",
            (_, "LENGTH") => "LENGTH",
            (_, "SUBSTR") => "SUBSTR",
            (_, "ABS") => "ABS",
            _ => "CONCAT", // CONCAT handled via concat_op
        }
    }
}

/// Rendered `sql` with every literal (quoted string, number) replaced by `?` —
/// the form in which a statement with a parameter and the statement
/// with the literal it stands for read the same.
pub fn modulo_literals(sql: &str) -> String {
    let b = sql.as_bytes();
    let mut out = String::with_capacity(sql.len());
    let mut i = 0;
    while i < b.len() {
        let after_ident = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b"_\"".contains(&b[i - 1]));
        match b[i] {
            b'"' => {
                // a quoted identifier, copied whole
                let end = sql[i + 1..].find('"').map_or(b.len(), |e| i + e + 2);
                out.push_str(&sql[i..end]);
                i = end;
            }
            b'\'' => {
                out.push('?');
                i += 1;
                while i < b.len() && (b[i] != b'\'' || b.get(i + 1) == Some(&b'\'')) {
                    i += if b[i] == b'\'' { 2 } else { 1 };
                }
                i += 1;
            }
            c if c.is_ascii_digit() && !after_ident => {
                out.push('?');
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'.') {
                    i += 1;
                }
            }
            _ => {
                let ch = sql[i..].chars().next().expect("in bounds");
                out.push(ch);
                i += ch.len_utf8();
            }
        }
    }
    out
}

/// Render a `SELECT` statement as SQL text in the given dialect.
pub fn render_select(q: &Select, d: Dialect) -> String {
    match (q.offset, q.fetch) {
        (None, None) => render_core(q, d),
        _ => render_paginated(q, d),
    }
}

fn render_paginated(q: &Select, d: Dialect) -> String {
    let offset = q.offset.unwrap_or(0);
    let fetch = q.fetch;
    let mut inner = q.clone();
    inner.offset = None;
    inner.fetch = None;
    match d {
        Dialect::Oracle => {
            // the Table 2(i) pattern: wrap in ROWNUM numbering, then range
            let core = render_core(&inner, d);
            if offset == 0 {
                if let Some(n) = fetch {
                    return format!("SELECT * FROM (\n{core}\n) t_page WHERE ROWNUM <= {n}");
                }
            }
            let cols: Vec<&str> = q.columns.iter().map(|c| c.alias.as_str()).collect();
            let outer_cols: String = cols
                .iter()
                .map(|c| format!("t_out.{c}"))
                .collect::<Vec<_>>()
                .join(", ");
            let numbered_cols: String = cols
                .iter()
                .map(|c| format!("t_in.{c}"))
                .collect::<Vec<_>>()
                .join(", ");
            let lower = offset + 1;
            let range = match fetch {
                Some(n) => format!("(t_out.rn >= {lower}) AND (t_out.rn < {})", lower + n),
                None => format!("t_out.rn >= {lower}"),
            };
            format!(
                "SELECT {outer_cols}\nFROM (\nSELECT ROWNUM AS rn, {numbered_cols}\nFROM (\n{core}\n) t_in\n) t_out\nWHERE {range}"
            )
        }
        Dialect::Db2 => {
            if offset == 0 {
                let core = render_core(&inner, d);
                match fetch {
                    Some(n) => format!("{core}\nFETCH FIRST {n} ROWS ONLY"),
                    None => core,
                }
            } else {
                render_row_number_wrapper(&inner, q, d, offset, fetch)
            }
        }
        Dialect::SqlServer => {
            if offset == 0 {
                if let Some(n) = fetch {
                    let core = render_core(&inner, d);
                    return core.replacen("SELECT ", &format!("SELECT TOP {n} "), 1);
                }
                render_core(&inner, d)
            } else {
                render_row_number_wrapper(&inner, q, d, offset, fetch)
            }
        }
        // not pushable: the middleware applies the row range (the caller
        // should not have asked, but render the core rather than lie)
        Dialect::Sybase | Dialect::Sql92 => render_core(&inner, d),
    }
}

/// The `ROW_NUMBER() OVER (ORDER BY …)` pagination nesting used for DB2
/// and SQL Server when an offset is present.
fn render_row_number_wrapper(
    inner: &Select,
    orig: &Select,
    d: Dialect,
    offset: u64,
    fetch: Option<u64>,
) -> String {
    let mut numbered = inner.clone();
    numbered.order_by = Vec::new(); // ordering moves into OVER()
    let over = if inner.order_by.is_empty() {
        "ORDER BY 1".to_string()
    } else {
        let mut s = String::from("ORDER BY ");
        for (i, o) in inner.order_by.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&render_expr(&o.expr, d));
            if o.descending {
                s.push_str(" DESC");
            }
        }
        s
    };
    let core = render_core(&numbered, d);
    let with_rn = core.replacen(
        "SELECT ",
        &format!("SELECT ROW_NUMBER() OVER ({over}) AS rn, "),
        1,
    );
    let cols: String = orig
        .columns
        .iter()
        .map(|c| format!("t_out.{}", c.alias))
        .collect::<Vec<_>>()
        .join(", ");
    let lower = offset + 1;
    let range = match fetch {
        Some(n) => format!("(t_out.rn >= {lower}) AND (t_out.rn < {})", lower + n),
        None => format!("t_out.rn >= {lower}"),
    };
    format!("SELECT {cols}\nFROM (\n{with_rn}\n) t_out\nWHERE {range}")
}

fn render_core(q: &Select, d: Dialect) -> String {
    let mut s = String::new();
    s.push_str("SELECT ");
    if q.distinct {
        s.push_str("DISTINCT ");
    }
    for (i, c) in q.columns.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{} AS {}", render_expr(&c.expr, d), c.alias);
    }
    s.push_str("\nFROM ");
    render_table_ref(&q.from, d, &mut s);
    if let Some(w) = &q.where_ {
        let _ = write!(s, "\nWHERE {}", render_expr(w, d));
    }
    if !q.group_by.is_empty() {
        s.push_str("\nGROUP BY ");
        for (i, g) in q.group_by.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&render_expr(g, d));
        }
    }
    if let Some(h) = &q.having {
        let _ = write!(s, "\nHAVING {}", render_expr(h, d));
    }
    if !q.order_by.is_empty() {
        s.push_str("\nORDER BY ");
        for (i, o) in q.order_by.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&render_expr(&o.expr, d));
            if o.descending {
                s.push_str(" DESC");
            }
        }
    }
    s
}

fn render_table_ref(t: &TableRef, d: Dialect, s: &mut String) {
    match t {
        TableRef::Table { name, alias } => {
            let _ = write!(s, "\"{name}\" {alias}");
        }
        TableRef::Join {
            left,
            right,
            kind,
            on,
        } => {
            render_table_ref(left, d, s);
            s.push_str(match kind {
                JoinKind::Inner => "\nJOIN ",
                JoinKind::LeftOuter => "\nLEFT OUTER JOIN ",
            });
            render_table_ref(right, d, s);
            let _ = write!(s, "\nON {}", render_expr(on, d));
        }
        TableRef::Derived { query, alias } => {
            let _ = write!(s, "(\n{}\n) {alias}", render_core(query, d));
        }
    }
}

fn render_expr(e: &ScalarExpr, d: Dialect) -> String {
    match e {
        ScalarExpr::Column { table, column } => format!("{table}.\"{column}\""),
        ScalarExpr::Literal(v) => v.sql_literal(),
        ScalarExpr::Param(_) => "?".into(),
        ScalarExpr::Compare { op, lhs, rhs } => format!(
            "{} {} {}",
            render_operand(lhs, d),
            op.sql(),
            render_operand(rhs, d)
        ),
        ScalarExpr::And(a, b) => {
            format!("{} AND {}", render_operand(a, d), render_operand(b, d))
        }
        ScalarExpr::Or(a, b) => {
            format!("({} OR {})", render_operand(a, d), render_operand(b, d))
        }
        ScalarExpr::Not(a) => format!("NOT ({})", render_expr(a, d)),
        ScalarExpr::IsNull(a) => format!("{} IS NULL", render_operand(a, d)),
        ScalarExpr::Arith { op, lhs, rhs } => {
            let sym = match op {
                ArithOp::Add => "+",
                ArithOp::Sub => "-",
                ArithOp::Mul => "*",
                ArithOp::Div => "/",
                ArithOp::Mod => "MOD",
            };
            if *op == ArithOp::Mod {
                format!("MOD({}, {})", render_expr(lhs, d), render_expr(rhs, d))
            } else {
                format!("({} {sym} {})", render_expr(lhs, d), render_expr(rhs, d))
            }
        }
        ScalarExpr::Case { when, els } => {
            let mut s = String::from("CASE");
            for (c, v) in when {
                let _ = write!(
                    s,
                    "\nWHEN {}\nTHEN {}",
                    render_expr(c, d),
                    render_expr(v, d)
                );
            }
            if let Some(e) = els {
                let _ = write!(s, "\nELSE {}", render_expr(e, d));
            }
            s.push_str("\nEND");
            s
        }
        ScalarExpr::Exists(sub) => {
            format!("EXISTS(\n{})", render_core(sub, d))
        }
        ScalarExpr::InList { expr, list } => {
            let items: Vec<String> = list.iter().map(|i| render_expr(i, d)).collect();
            format!("{} IN ({})", render_operand(expr, d), items.join(", "))
        }
        ScalarExpr::Func { name, args } => {
            if name == "CONCAT" {
                let parts: Vec<String> = args.iter().map(|a| render_operand(a, d)).collect();
                format!("({})", parts.join(d.concat_op()))
            } else {
                let parts: Vec<String> = args.iter().map(|a| render_expr(a, d)).collect();
                format!("{}({})", d.function_name(name), parts.join(", "))
            }
        }
        ScalarExpr::Agg {
            func,
            arg,
            distinct,
        } => {
            let inner = match arg {
                None => "*".to_string(),
                Some(a) => {
                    let rendered = render_expr(a, d);
                    if *distinct {
                        format!("DISTINCT {rendered}")
                    } else {
                        rendered
                    }
                }
            };
            format!("{}({inner})", func.keyword())
        }
    }
}

/// Parenthesize compound operands for readability/precedence safety.
fn render_operand(e: &ScalarExpr, d: Dialect) -> String {
    match e {
        ScalarExpr::And(..) | ScalarExpr::Or(..) | ScalarExpr::Compare { .. } => {
            format!("({})", render_expr(e, d))
        }
        _ => render_expr(e, d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::{AggFunc, OrderBy};
    use crate::types::SqlValue;

    fn col(t: &str, c: &str) -> ScalarExpr {
        ScalarExpr::col(t, c)
    }

    #[test]
    fn table1a_simple_select_project() {
        let mut q =
            Select::new(TableRef::table("CUSTOMER", "t1")).column(col("t1", "FIRST_NAME"), "c1");
        q.where_ = Some(col("t1", "CID").eq(ScalarExpr::lit(SqlValue::str("CUST001"))));
        let sql = render_select(&q, Dialect::Oracle);
        assert_eq!(
            sql,
            "SELECT t1.\"FIRST_NAME\" AS c1\nFROM \"CUSTOMER\" t1\nWHERE t1.\"CID\" = 'CUST001'"
        );
    }

    #[test]
    fn table1b_inner_join() {
        let q = Select::new(TableRef::table("CUSTOMER", "t1").join(
            JoinKind::Inner,
            TableRef::table("ORDER", "t2"),
            col("t1", "CID").eq(col("t2", "CID")),
        ))
        .column(col("t1", "CID"), "c1")
        .column(col("t2", "OID"), "c2");
        let sql = render_select(&q, Dialect::Oracle);
        assert_eq!(
            sql,
            "SELECT t1.\"CID\" AS c1, t2.\"OID\" AS c2\nFROM \"CUSTOMER\" t1\nJOIN \"ORDER\" t2\nON t1.\"CID\" = t2.\"CID\""
        );
    }

    #[test]
    fn table2i_oracle_rownum_nesting() {
        let mut q = Select::new(TableRef::table("CUSTOMER", "t1")).column(col("t1", "CID"), "c1");
        q.order_by = vec![OrderBy {
            expr: col("t1", "CID"),
            descending: true,
        }];
        q.offset = Some(9);
        q.fetch = Some(20);
        let sql = render_select(&q, Dialect::Oracle);
        assert!(sql.contains("ROWNUM AS rn"), "{sql}");
        assert!(
            sql.contains("(t_out.rn >= 10) AND (t_out.rn < 30)"),
            "{sql}"
        );
        assert!(sql.contains("ORDER BY t1.\"CID\" DESC"), "{sql}");
    }

    #[test]
    fn db2_fetch_first_and_sqlserver_top() {
        let mut q = Select::new(TableRef::table("T", "t1")).column(col("t1", "A"), "c1");
        q.fetch = Some(5);
        assert!(render_select(&q, Dialect::Db2).ends_with("FETCH FIRST 5 ROWS ONLY"));
        assert!(render_select(&q, Dialect::SqlServer).starts_with("SELECT TOP 5 "));
        q.offset = Some(10);
        let db2 = render_select(&q, Dialect::Db2);
        assert!(db2.contains("ROW_NUMBER() OVER"), "{db2}");
        let mss = render_select(&q, Dialect::SqlServer);
        assert!(mss.contains("ROW_NUMBER() OVER"), "{mss}");
    }

    #[test]
    fn pagination_support_flags() {
        assert!(Dialect::Oracle.supports_pagination());
        assert!(Dialect::Db2.supports_pagination());
        assert!(Dialect::SqlServer.supports_pagination());
        assert!(!Dialect::Sybase.supports_pagination());
        assert!(!Dialect::Sql92.supports_pagination());
        // unsupported dialects render the core and leave the range to the
        // middleware
        let mut q = Select::new(TableRef::table("T", "t1")).column(col("t1", "A"), "c1");
        q.fetch = Some(5);
        assert!(!render_select(&q, Dialect::Sql92).contains('5'));
    }

    #[test]
    fn concat_operator_differs_by_vendor() {
        let e = ScalarExpr::Func {
            name: "CONCAT".into(),
            args: vec![col("t1", "A"), col("t1", "B")],
        };
        assert_eq!(render_expr(&e, Dialect::Oracle), "(t1.\"A\" || t1.\"B\")");
        assert_eq!(render_expr(&e, Dialect::SqlServer), "(t1.\"A\" + t1.\"B\")");
    }

    #[test]
    fn function_spellings() {
        let e = ScalarExpr::Func {
            name: "LENGTH".into(),
            args: vec![col("t1", "A")],
        };
        assert_eq!(render_expr(&e, Dialect::Oracle), "LENGTH(t1.\"A\")");
        assert_eq!(render_expr(&e, Dialect::Sybase), "LEN(t1.\"A\")");
    }

    #[test]
    fn case_exists_and_group_render() {
        let c = ScalarExpr::Case {
            when: vec![(
                col("t1", "CID").eq(ScalarExpr::lit(SqlValue::str("X"))),
                col("t1", "A"),
            )],
            els: Some(Box::new(col("t1", "B"))),
        };
        let s = render_expr(&c, Dialect::Oracle);
        assert!(s.starts_with("CASE\nWHEN") && s.ends_with("END"), "{s}");

        let mut sub = Select::new(TableRef::table("ORDERS", "t2"))
            .column(ScalarExpr::lit(SqlValue::Int(1)), "c1");
        sub.where_ = Some(col("t1", "CID").eq(col("t2", "CID")));
        let e = ScalarExpr::Exists(Box::new(sub));
        let s = render_expr(&e, Dialect::Oracle);
        assert!(s.starts_with("EXISTS(\nSELECT 1 AS c1"), "{s}");

        let agg = ScalarExpr::Agg {
            func: AggFunc::Count,
            arg: Some(Box::new(col("t2", "CID"))),
            distinct: false,
        };
        assert_eq!(render_expr(&agg, Dialect::Oracle), "COUNT(t2.\"CID\")");
        assert_eq!(
            render_expr(&ScalarExpr::count_star(), Dialect::Oracle),
            "COUNT(*)"
        );
    }

    #[test]
    fn params_render_as_question_marks() {
        let e = crate::sql::ppk_block_predicate(&[col("t1", "CID")], 2, 0);
        let s = render_expr(&e, Dialect::Oracle);
        assert_eq!(s, "((t1.\"CID\" = ?) OR (t1.\"CID\" = ?))");
    }
}
