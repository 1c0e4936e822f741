//! The SQL abstract syntax the pushdown framework generates (§4.3, §4.4).
//!
//! ALDSP's SQL generation produces vendor-specific SQL *text*; internally
//! it first builds this AST, then renders it per dialect
//! ([`crate::dialect`]) and — in this reproduction — executes it directly
//! against the in-memory engine ([`crate::exec`]). The AST covers exactly
//! the pushable repertoire Tables 1–2 demonstrate: select-project, inner
//! and left outer joins, CASE, GROUP BY with aggregates, DISTINCT,
//! EXISTS semi-joins, ORDER BY, pagination, and disjunctive parameter
//! blocks (the PP-k fetch query shape).

use crate::types::SqlValue;
use aldsp_xdm::item::CompOp;

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Projected columns with output aliases (`AS c1`, `AS c2`, … — the
    /// naming scheme visible in the paper's Tables 1–2).
    pub columns: Vec<OutputColumn>,
    /// The FROM clause.
    pub from: TableRef,
    /// WHERE predicate.
    pub where_: Option<ScalarExpr>,
    /// GROUP BY keys.
    pub group_by: Vec<ScalarExpr>,
    /// HAVING predicate.
    pub having: Option<ScalarExpr>,
    /// ORDER BY specifications.
    pub order_by: Vec<OrderBy>,
    /// Row-range selection (from `fn:subsequence` pushdown, Table 2(i)):
    /// skip `offset` rows, then return at most `fetch` rows.
    pub offset: Option<u64>,
    /// Maximum number of rows to return.
    pub fetch: Option<u64>,
}

impl Select {
    /// A bare `SELECT cols FROM from`.
    pub fn new(from: TableRef) -> Select {
        Select {
            distinct: false,
            columns: Vec::new(),
            from,
            where_: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            offset: None,
            fetch: None,
        }
    }

    /// Add a projected column.
    pub fn column(mut self, expr: ScalarExpr, alias: &str) -> Self {
        self.columns.push(OutputColumn {
            expr,
            alias: alias.to_string(),
        });
        self
    }

    /// Renumber every positional parameter of the statement (subqueries
    /// and derived tables included) through `f` — how the pushdown
    /// framework merges two statements' parameter lists into one.
    pub fn map_params(&mut self, f: &mut dyn FnMut(usize) -> usize) {
        for c in &mut self.columns {
            c.expr.map_params(f);
        }
        self.from.map_params(f);
        for e in (self.where_.iter_mut())
            .chain(&mut self.group_by)
            .chain(&mut self.having)
            .chain(self.order_by.iter_mut().map(|o| &mut o.expr))
        {
            e.map_params(f);
        }
    }

    /// Does any output column or the HAVING clause aggregate?
    pub fn is_aggregate(&self) -> bool {
        !self.group_by.is_empty()
            || self.columns.iter().any(|c| c.expr.contains_aggregate())
            || self
                .having
                .as_ref()
                .is_some_and(ScalarExpr::contains_aggregate)
    }
}

/// One projected output column.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputColumn {
    /// The projected expression.
    pub expr: ScalarExpr,
    /// Output alias.
    pub alias: String,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderBy {
    /// Sort key expression.
    pub expr: ScalarExpr,
    /// Descending?
    pub descending: bool,
}

/// A FROM-clause item.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A base table with a correlation alias (`"CUSTOMER" t1`).
    Table {
        /// Table name.
        name: String,
        /// Correlation alias (`t1`, `t2`, …).
        alias: String,
    },
    /// A join of two table refs.
    Join {
        /// Left input.
        left: Box<TableRef>,
        /// Right input.
        right: Box<TableRef>,
        /// Inner or left-outer.
        kind: JoinKind,
        /// The ON condition.
        on: ScalarExpr,
    },
    /// A parenthesized subquery with an alias (the nesting Table 2(i)'s
    /// Oracle ROWNUM pagination uses).
    Derived {
        /// The subquery.
        query: Box<Select>,
        /// Correlation alias.
        alias: String,
    },
}

impl TableRef {
    /// A base table reference.
    pub fn table(name: &str, alias: &str) -> TableRef {
        TableRef::Table {
            name: name.to_string(),
            alias: alias.to_string(),
        }
    }

    /// Join this ref with another.
    pub fn join(self, kind: JoinKind, right: TableRef, on: ScalarExpr) -> TableRef {
        TableRef::Join {
            left: Box::new(self),
            right: Box::new(right),
            kind,
            on,
        }
    }

    /// See [`Select::map_params`].
    pub fn map_params(&mut self, f: &mut dyn FnMut(usize) -> usize) {
        match self {
            TableRef::Table { .. } => {}
            TableRef::Join {
                left, right, on, ..
            } => {
                left.map_params(f);
                right.map_params(f);
                on.map_params(f);
            }
            TableRef::Derived { query, .. } => query.map_params(f),
        }
    }

    /// All correlation aliases introduced by this ref.
    pub fn aliases(&self, out: &mut Vec<String>) {
        match self {
            TableRef::Table { alias, .. } | TableRef::Derived { alias, .. } => {
                out.push(alias.clone())
            }
            TableRef::Join { left, right, .. } => {
                left.aliases(out);
                right.aliases(out);
            }
        }
    }
}

/// Join kinds the pushdown framework emits (Tables 1(b), 1(c), 2(g)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `JOIN … ON`.
    Inner,
    /// `LEFT OUTER JOIN … ON`.
    LeftOuter,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// A column reference `alias.column`.
    Column {
        /// Correlation alias of the owning table ref.
        table: String,
        /// Column name.
        column: String,
    },
    /// A literal value.
    Literal(SqlValue),
    /// A positional parameter (`?`) — bound per execution; the PP-k join
    /// rebinds these once per block (§4.2).
    Param(usize),
    /// A comparison.
    Compare {
        /// Operator.
        op: CompOp,
        /// Left operand.
        lhs: Box<ScalarExpr>,
        /// Right operand.
        rhs: Box<ScalarExpr>,
    },
    /// `a AND b`.
    And(Box<ScalarExpr>, Box<ScalarExpr>),
    /// `a OR b`.
    Or(Box<ScalarExpr>, Box<ScalarExpr>),
    /// `NOT a`.
    Not(Box<ScalarExpr>),
    /// `a IS NULL`.
    IsNull(Box<ScalarExpr>),
    /// Arithmetic.
    Arith {
        /// Operator (`div` renders `/`).
        op: aldsp_xdm::value::ArithOp,
        /// Left operand.
        lhs: Box<ScalarExpr>,
        /// Right operand.
        rhs: Box<ScalarExpr>,
    },
    /// `CASE WHEN … THEN … [ELSE …] END` (Table 1(d)).
    Case {
        /// `(condition, result)` arms.
        when: Vec<(ScalarExpr, ScalarExpr)>,
        /// ELSE result.
        els: Option<Box<ScalarExpr>>,
    },
    /// `EXISTS (subquery)` — semi-join (Table 2(h)). The subquery may
    /// reference outer aliases (correlated).
    Exists(Box<Select>),
    /// `expr IN (v1, v2, …)`.
    InList {
        /// Tested expression.
        expr: Box<ScalarExpr>,
        /// List members.
        list: Vec<ScalarExpr>,
    },
    /// A scalar function (`UPPER`, `LOWER`, `LENGTH`, `SUBSTR`, `CONCAT`,
    /// `ABS`, …) — the pushable function repertoire of §4.3.
    Func {
        /// Function name (uppercase).
        name: String,
        /// Arguments.
        args: Vec<ScalarExpr>,
    },
    /// An aggregate (`COUNT(*)`, `COUNT(x)`, `SUM`, `AVG`, `MIN`, `MAX`).
    Agg {
        /// Which aggregate.
        func: AggFunc,
        /// Argument; `None` only for `COUNT(*)`.
        arg: Option<Box<ScalarExpr>>,
        /// `DISTINCT` aggregate?
        distinct: bool,
    },
}

impl ScalarExpr {
    /// Column shorthand.
    pub fn col(table: &str, column: &str) -> ScalarExpr {
        ScalarExpr::Column {
            table: table.to_string(),
            column: column.to_string(),
        }
    }

    /// Literal shorthand.
    pub fn lit(v: SqlValue) -> ScalarExpr {
        ScalarExpr::Literal(v)
    }

    /// Equality comparison shorthand.
    pub fn eq(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Compare {
            op: CompOp::Eq,
            lhs: Box::new(self),
            rhs: Box::new(rhs),
        }
    }

    /// Conjunction shorthand.
    pub fn and(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::And(Box::new(self), Box::new(rhs))
    }

    /// Disjunction shorthand.
    pub fn or(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Or(Box::new(self), Box::new(rhs))
    }

    /// `COUNT(*)`.
    pub fn count_star() -> ScalarExpr {
        ScalarExpr::Agg {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        }
    }

    /// Does this expression (outside subqueries) contain an aggregate?
    pub fn contains_aggregate(&self) -> bool {
        match self {
            ScalarExpr::Agg { .. } => true,
            ScalarExpr::Column { .. } | ScalarExpr::Literal(_) | ScalarExpr::Param(_) => false,
            ScalarExpr::Compare { lhs, rhs, .. } | ScalarExpr::Arith { lhs, rhs, .. } => {
                lhs.contains_aggregate() || rhs.contains_aggregate()
            }
            ScalarExpr::And(a, b) | ScalarExpr::Or(a, b) => {
                a.contains_aggregate() || b.contains_aggregate()
            }
            ScalarExpr::Not(a) | ScalarExpr::IsNull(a) => a.contains_aggregate(),
            ScalarExpr::Case { when, els } => {
                when.iter()
                    .any(|(c, r)| c.contains_aggregate() || r.contains_aggregate())
                    || els.as_ref().is_some_and(|e| e.contains_aggregate())
            }
            ScalarExpr::Exists(_) => false,
            ScalarExpr::InList { expr, list } => {
                expr.contains_aggregate() || list.iter().any(ScalarExpr::contains_aggregate)
            }
            ScalarExpr::Func { args, .. } => args.iter().any(ScalarExpr::contains_aggregate),
        }
    }

    /// Highest `Param` index + 1 (the statement's parameter count).
    pub fn param_count(&self) -> usize {
        let mut max = 0;
        self.walk(&mut |e| {
            if let ScalarExpr::Param(i) = e {
                max = max.max(i + 1);
            }
        });
        max
    }

    /// See [`Select::map_params`].
    pub fn map_params(&mut self, f: &mut dyn FnMut(usize) -> usize) {
        match self {
            ScalarExpr::Param(i) => *i = f(*i),
            ScalarExpr::Column { .. } | ScalarExpr::Literal(_) => {}
            ScalarExpr::Compare { lhs, rhs, .. } | ScalarExpr::Arith { lhs, rhs, .. } => {
                lhs.map_params(f);
                rhs.map_params(f);
            }
            ScalarExpr::And(a, b) | ScalarExpr::Or(a, b) => {
                a.map_params(f);
                b.map_params(f);
            }
            ScalarExpr::Not(a) | ScalarExpr::IsNull(a) => a.map_params(f),
            ScalarExpr::Case { when, els } => {
                for (c, r) in when {
                    c.map_params(f);
                    r.map_params(f);
                }
                if let Some(e) = els {
                    e.map_params(f);
                }
            }
            ScalarExpr::Exists(sub) => sub.map_params(f),
            ScalarExpr::InList { expr, list } => {
                expr.map_params(f);
                list.iter_mut().for_each(|e| e.map_params(f));
            }
            ScalarExpr::Func { args, .. } => args.iter_mut().for_each(|a| a.map_params(f)),
            ScalarExpr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.map_params(f);
                }
            }
        }
    }

    /// Visit this expression tree (not descending into subqueries).
    pub fn walk(&self, f: &mut dyn FnMut(&ScalarExpr)) {
        f(self);
        match self {
            ScalarExpr::Compare { lhs, rhs, .. } | ScalarExpr::Arith { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            ScalarExpr::And(a, b) | ScalarExpr::Or(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            ScalarExpr::Not(a) | ScalarExpr::IsNull(a) => a.walk(f),
            ScalarExpr::Case { when, els } => {
                for (c, r) in when {
                    c.walk(f);
                    r.walk(f);
                }
                if let Some(e) = els {
                    e.walk(f);
                }
            }
            ScalarExpr::InList { expr, list } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            ScalarExpr::Func { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            ScalarExpr::Agg { arg: Some(a), .. } => a.walk(f),
            _ => {}
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT`.
    Count,
    /// `SUM`.
    Sum,
    /// `AVG`.
    Avg,
    /// `MIN`.
    Min,
    /// `MAX`.
    Max,
}

impl AggFunc {
    /// SQL keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// Build the disjunctive PP-k block-fetch predicate (§4.2): for key
/// columns `cols` and a block of `k` outer tuples, produce
/// `(c1 = ?a1 AND c2 = ?b1) OR (c1 = ?a2 AND c2 = ?b2) OR …` with
/// sequentially numbered parameters starting at `first_param`.
pub fn ppk_block_predicate(cols: &[ScalarExpr], k: usize, first_param: usize) -> ScalarExpr {
    assert!(
        !cols.is_empty() && k > 0,
        "PP-k predicate needs keys and a block"
    );
    let mut disjuncts: Option<ScalarExpr> = None;
    let mut p = first_param;
    for _ in 0..k {
        let mut conj: Option<ScalarExpr> = None;
        for c in cols {
            let term = c.clone().eq(ScalarExpr::Param(p));
            p += 1;
            conj = Some(match conj {
                Some(prev) => prev.and(term),
                None => term,
            });
        }
        let conj = conj.expect("cols non-empty");
        disjuncts = Some(match disjuncts {
            Some(prev) => prev.or(conj),
            None => conj,
        });
    }
    disjuncts.expect("k > 0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection() {
        let q = Select::new(TableRef::table("CUSTOMER", "t1"))
            .column(ScalarExpr::col("t1", "LAST_NAME"), "c1")
            .column(ScalarExpr::count_star(), "c2");
        assert!(q.is_aggregate());
        let plain = Select::new(TableRef::table("CUSTOMER", "t1"))
            .column(ScalarExpr::col("t1", "CID"), "c1");
        assert!(!plain.is_aggregate());
    }

    #[test]
    fn param_counting() {
        let e = ScalarExpr::col("t1", "CID")
            .eq(ScalarExpr::Param(0))
            .or(ScalarExpr::col("t1", "CID").eq(ScalarExpr::Param(1)));
        assert_eq!(e.param_count(), 2);
    }

    #[test]
    fn map_params_reaches_joins_and_subqueries() {
        let mut sub = Select::new(TableRef::table("ORDER", "t2"))
            .column(ScalarExpr::lit(SqlValue::Int(1)), "c1");
        sub.where_ = Some(ScalarExpr::col("t2", "AMOUNT").eq(ScalarExpr::Param(1)));
        let mut q = Select::new(TableRef::table("CUSTOMER", "t1").join(
            JoinKind::LeftOuter,
            TableRef::table("ORDER", "t3"),
            ScalarExpr::col("t3", "OID").eq(ScalarExpr::Param(2)),
        ))
        .column(ScalarExpr::col("t1", "CID"), "c1");
        q.where_ = Some(
            ScalarExpr::col("t1", "CID")
                .eq(ScalarExpr::Param(0))
                .and(ScalarExpr::Exists(Box::new(sub))),
        );
        let mut seen = Vec::new();
        q.map_params(&mut |i| {
            seen.push(i);
            i + 10
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
        let mut shifted = Vec::new();
        q.map_params(&mut |i| {
            shifted.push(i);
            i
        });
        shifted.sort_unstable();
        assert_eq!(shifted, vec![10, 11, 12]);
    }

    #[test]
    fn ppk_predicate_shape() {
        // single-column key, block of 3
        let p = ppk_block_predicate(&[ScalarExpr::col("t1", "CID")], 3, 0);
        assert_eq!(p.param_count(), 3);
        // composite key, block of 2 → 4 params, OR of ANDs
        let p = ppk_block_predicate(
            &[ScalarExpr::col("t1", "A"), ScalarExpr::col("t1", "B")],
            2,
            0,
        );
        assert_eq!(p.param_count(), 4);
        let ScalarExpr::Or(l, _) = &p else {
            panic!("expected OR at top")
        };
        assert!(matches!(**l, ScalarExpr::And(..)));
    }

    #[test]
    fn aliases_collected() {
        let t = TableRef::table("A", "t1").join(
            JoinKind::LeftOuter,
            TableRef::table("B", "t2"),
            ScalarExpr::col("t1", "X").eq(ScalarExpr::col("t2", "X")),
        );
        let mut a = Vec::new();
        t.aliases(&mut a);
        assert_eq!(a, vec!["t1", "t2"]);
    }
}
