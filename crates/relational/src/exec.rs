//! The SQL executor.
//!
//! Executes [`crate::sql::Select`] statements (and, via
//! [`crate::dml`], DML) directly against the in-memory [`Database`]. The
//! semantics follow SQL92 for the repertoire the pushdown framework
//! emits: three-valued WHERE/ON logic, NULL-grouping GROUP BY, correlated
//! EXISTS, DISTINCT, ORDER BY (NULLs least) and OFFSET/FETCH. This is the
//! "backend" that stands in for the paper's Oracle/DB2/SQL Server/Sybase
//! installations.

use crate::access;
use crate::error::SourceError;
use crate::sql::{AggFunc, JoinKind, OrderBy, ScalarExpr, Select, TableRef};
use crate::store::{Database, KeyPart, Row, Table};
use crate::types::{SqlValue, Truth};
use aldsp_xdm::value::{ArithOp, Decimal};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};

/// A query result: output column names plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column aliases.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

/// Flattened layout of the FROM product: each alias owns a column slice.
#[derive(Debug, Clone, Default)]
struct Layout {
    entries: Vec<(String, Vec<String>, usize)>,
    width: usize,
}

impl Layout {
    fn of_table(alias: &str, table: &Table) -> Layout {
        let mut layout = Layout::default();
        layout.push(
            alias.to_string(),
            table
                .schema()
                .columns
                .iter()
                .map(|c| c.name.clone())
                .collect(),
        );
        layout
    }

    fn push(&mut self, alias: String, columns: Vec<String>) {
        let offset = self.width;
        self.width += columns.len();
        self.entries.push((alias, columns, offset));
    }

    fn merge(mut self, other: Layout) -> Layout {
        for (alias, cols, off) in other.entries {
            self.entries.push((alias, cols, off + self.width));
        }
        self.width += other.width;
        self
    }

    fn resolve(&self, table: &str, column: &str) -> Option<usize> {
        self.entries.iter().find_map(|(alias, cols, off)| {
            if alias == table {
                cols.iter().position(|c| c == column).map(|i| off + i)
            } else {
                None
            }
        })
    }
}

/// Evaluation context: a plain row or an aggregation group.
enum Ctx<'a> {
    Row(&'a [SqlValue]),
    Group {
        rows: &'a [Row],
        repr: &'a [SqlValue],
    },
}

impl<'a> Ctx<'a> {
    fn repr(&self) -> &'a [SqlValue] {
        match self {
            Ctx::Row(r) => r,
            Ctx::Group { repr, .. } => repr,
        }
    }
}

/// Linked outer-scope chain for correlated subqueries.
struct Scope<'a> {
    layout: &'a Layout,
    row: &'a [SqlValue],
    parent: Option<&'a Scope<'a>>,
}

/// What one statement executes against: the database, its positional
/// parameters, and the count of rows a WHERE predicate was evaluated on.
pub(crate) struct Exec<'a> {
    pub(crate) db: &'a Database,
    pub(crate) params: &'a [SqlValue],
    examined: Cell<u64>,
}

impl<'a> Exec<'a> {
    pub(crate) fn new(db: &'a Database, params: &'a [SqlValue]) -> Exec<'a> {
        Exec {
            db,
            params,
            examined: Cell::new(0),
        }
    }

    pub(crate) fn examined(&self) -> u64 {
        self.examined.get()
    }

    fn examine(&self) {
        self.examined.set(self.examined.get() + 1);
    }
}

impl Database {
    /// Execute a `SELECT` with positional parameters.
    ///
    /// This is the public source boundary: internal evaluation keeps plain
    /// `String` errors, converted to a typed [`SourceError`] here.
    pub fn execute_select(
        &self,
        q: &Select,
        params: &[SqlValue],
    ) -> Result<ResultSet, SourceError> {
        self.select_examining(q, params).0
    }

    /// [`Database::execute_select`], also reporting how many rows the
    /// statement evaluated a WHERE predicate on.
    pub(crate) fn select_examining(
        &self,
        q: &Select,
        params: &[SqlValue],
    ) -> (Result<ResultSet, SourceError>, u64) {
        let cx = Exec::new(self, params);
        let rs = exec_select(&cx, q, None).map_err(SourceError::Sql);
        (rs, cx.examined())
    }
}

/// One table as an UPDATE or DELETE sees it: its rows under the
/// statement's correlation alias.
pub(crate) struct TableEval<'a> {
    cx: &'a Exec<'a>,
    table: &'a Table,
    alias: &'a str,
    layout: Layout,
}

impl<'a> TableEval<'a> {
    pub(crate) fn new(
        cx: &'a Exec<'a>,
        table: &str,
        alias: &'a str,
    ) -> Result<TableEval<'a>, String> {
        let table = cx
            .db
            .table(table)
            .ok_or_else(|| format!("no table '{table}'"))?;
        Ok(TableEval {
            cx,
            table,
            alias,
            layout: Layout::of_table(alias, table),
        })
    }

    pub(crate) fn table(&self) -> &'a Table {
        self.table
    }

    /// Indices, in storage order, of the rows `where_` selects. As the
    /// DML executor always has, only a predicate that evaluates to TRUE
    /// selects; any other value, boolean or not, does not.
    pub(crate) fn matching(&self, where_: Option<&ScalarExpr>) -> Result<Vec<usize>, String> {
        let all = 0..self.table.len();
        let Some(w) = where_ else {
            return Ok(all.collect());
        };
        let picked = access::candidates(self.table, self.alias, w, self.cx.params);
        let mut hits = Vec::new();
        for i in picked.unwrap_or_else(|| all.collect()) {
            self.cx.examine();
            if self.eval(w, i)? == SqlValue::Bool(true) {
                hits.push(i);
            }
        }
        Ok(hits)
    }

    /// Evaluate `e` against stored row `i`.
    pub(crate) fn eval(&self, e: &ScalarExpr, i: usize) -> Result<SqlValue, String> {
        let row = Ctx::Row(&self.table.rows()[i]);
        eval(self.cx, e, &self.layout, &row, None)
    }
}

fn exec_select(cx: &Exec<'_>, q: &Select, outer: Option<&Scope<'_>>) -> Result<ResultSet, String> {
    let (layout, from_rows) = eval_from(cx, &q.from, q.where_.as_ref(), outer)?;
    let columns: Vec<String> = q.columns.iter().map(|c| c.alias.clone()).collect();
    // Each output row is paired with its sort keys.
    let mut out: Vec<(Row, Vec<SqlValue>)> = Vec::new();
    let project = |ctx: &Ctx<'_>| -> Result<(Row, Vec<SqlValue>), String> {
        let mut r = Vec::with_capacity(q.columns.len());
        for c in &q.columns {
            r.push(eval(cx, &c.expr, &layout, ctx, outer)?);
        }
        let mut keys = Vec::with_capacity(q.order_by.len());
        for OrderBy { expr, .. } in &q.order_by {
            keys.push(eval(cx, expr, &layout, ctx, outer)?);
        }
        Ok((r, keys))
    };
    if q.is_aggregate() {
        let mut rows = from_rows.into_owned();
        if let Some(w) = &q.where_ {
            let mut kept = Vec::with_capacity(rows.len());
            for row in rows {
                cx.examine();
                if truth_of(cx, w, &layout, &Ctx::Row(&row), outer)?.is_true() {
                    kept.push(row);
                }
            }
            rows = kept;
        }
        // group rows on the GROUP BY keys (SQL NULL-grouping semantics),
        // hashing on the literal rendering for O(n) grouping
        let mut groups: Vec<(Vec<SqlValue>, Vec<Row>)> = Vec::new();
        let mut group_index: HashMap<String, usize> = HashMap::new();
        for row in rows {
            let mut key = Vec::with_capacity(q.group_by.len());
            for g in &q.group_by {
                key.push(eval(cx, g, &layout, &Ctx::Row(&row), outer)?);
            }
            let hash_key: String = key.iter().map(|v| v.sql_literal() + "\u{1}").collect();
            match group_index.get(&hash_key) {
                Some(&gi) => groups[gi].1.push(row),
                None => {
                    group_index.insert(hash_key, groups.len());
                    groups.push((key, vec![row]));
                }
            }
        }
        // a pure aggregate query (no GROUP BY) aggregates the whole input,
        // even when it is empty
        if groups.is_empty() && q.group_by.is_empty() {
            groups.push((Vec::new(), Vec::new()));
        }
        for (_, grows) in &groups {
            let empty: Row = Vec::new();
            let repr: &[SqlValue] = grows.first().map(|r| r.as_slice()).unwrap_or(&empty);
            let ctx = Ctx::Group { rows: grows, repr };
            if let Some(h) = &q.having {
                if !truth_of(cx, h, &layout, &ctx, outer)?.is_true() {
                    continue;
                }
            }
            out.push(project(&ctx)?);
        }
    } else {
        // the non-aggregate scan filters and projects straight off the
        // borrowed storage rows: no clone of the table, no kept-rows
        // intermediate — per-query allocation is exactly the projected
        // output
        for row in from_rows.iter() {
            if let Some(w) = &q.where_ {
                cx.examine();
                if !truth_of(cx, w, &layout, &Ctx::Row(row), outer)?.is_true() {
                    continue;
                }
            }
            out.push(project(&Ctx::Row(row))?);
        }
    }
    if q.distinct {
        let mut seen = HashSet::new();
        out.retain(|(r, _)| {
            let key: String = r.iter().map(|v| v.sql_literal() + "\u{1}").collect();
            seen.insert(key)
        });
    }
    if !q.order_by.is_empty() {
        let desc: Vec<bool> = q.order_by.iter().map(|o| o.descending).collect();
        out.sort_by(|(_, ka), (_, kb)| {
            for (i, (a, b)) in ka.iter().zip(kb).enumerate() {
                let mut ord = a.order_cmp(b);
                if desc[i] {
                    ord = ord.reverse();
                }
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    let mut rows: Vec<Row> = out.into_iter().map(|(r, _)| r).collect();
    if let Some(off) = q.offset {
        rows = rows.split_off((off as usize).min(rows.len()));
    }
    if let Some(n) = q.fetch {
        rows.truncate(n as usize);
    }
    Ok(ResultSet { columns, rows })
}

/// Rows produced by a `FROM` clause: a base-table scan borrows the
/// stored rows (no per-query copy of the table), an index probe borrows
/// just its candidates, while derived tables and joins own what they
/// computed.
enum FromRows<'a> {
    Borrowed(&'a [Row]),
    Picked(Vec<&'a Row>),
    Owned(Vec<Row>),
}

impl FromRows<'_> {
    fn iter(&self) -> impl Iterator<Item = &Row> {
        let (all, picked): (&[Row], &[&Row]) = match self {
            FromRows::Borrowed(r) => (r, &[]),
            FromRows::Picked(p) => (&[], p),
            FromRows::Owned(r) => (r, &[]),
        };
        all.iter().chain(picked.iter().copied())
    }

    fn into_owned(self) -> Vec<Row> {
        match self {
            FromRows::Borrowed(r) => r.to_vec(),
            FromRows::Picked(p) => p.into_iter().cloned().collect(),
            FromRows::Owned(r) => r,
        }
    }
}

/// Evaluate a FROM clause. `where_` is the predicate the caller goes on
/// to evaluate on every returned row: a base table may then return only
/// the candidates an index probe leaves ([`access::candidates`]).
fn eval_from<'a>(
    cx: &Exec<'a>,
    t: &TableRef,
    where_: Option<&ScalarExpr>,
    outer: Option<&Scope<'_>>,
) -> Result<(Layout, FromRows<'a>), String> {
    match t {
        TableRef::Table { name, alias } => {
            let table = cx
                .db
                .table(name)
                .ok_or_else(|| format!("no table '{name}'"))?;
            let rows = table.rows();
            let from = match where_.and_then(|w| access::candidates(table, alias, w, cx.params)) {
                Some(picked) => FromRows::Picked(picked.into_iter().map(|i| &rows[i]).collect()),
                None => FromRows::Borrowed(rows),
            };
            Ok((Layout::of_table(alias, table), from))
        }
        TableRef::Derived { query, alias } => {
            let rs = exec_select(cx, query, outer)?;
            let mut layout = Layout::default();
            layout.push(alias.clone(), rs.columns);
            Ok((layout, FromRows::Owned(rs.rows)))
        }
        TableRef::Join {
            left,
            right,
            kind,
            on,
        } => {
            if let Some(joined) = pinned_join(cx, left, right, *kind, on, where_, outer)? {
                return Ok(joined);
            }
            let (ll, lrows) = eval_from(cx, left, None, outer)?;
            let (rl, rrows) = eval_from(cx, right, None, outer)?;
            let lwidth = ll.width;
            let rwidth = rl.width;
            let layout = ll.merge(rl);
            // split the ON condition into hashable equi-conjuncts
            // (left-col = right-col) and a residual predicate
            let (equi, residual) = split_equi_conjuncts(on, &layout, lwidth);
            let rrows: Vec<&Row> = rrows.iter().collect();
            let mut out = Vec::new();
            if equi.is_empty() {
                // general nested loop
                for l in lrows.iter() {
                    let mut matched = false;
                    for r in &rrows {
                        let combined = joined(l, Some(r), rwidth);
                        if truth_of(cx, on, &layout, &Ctx::Row(&combined), outer)?.is_true() {
                            matched = true;
                            out.push(combined);
                        }
                    }
                    if !matched && *kind == JoinKind::LeftOuter {
                        out.push(joined(l, None, rwidth));
                    }
                }
            } else {
                // hash join: build on the right side's key columns
                let mut index: HashMap<String, Vec<usize>> = HashMap::new();
                for (ri, r) in rrows.iter().enumerate() {
                    let mut key = String::new();
                    let mut null_key = false;
                    for &(_, rc) in &equi {
                        let v = &r[rc - lwidth];
                        if v.is_null() {
                            null_key = true;
                            break;
                        }
                        key.push_str(&v.sql_literal());
                        key.push('\u{1}');
                    }
                    if !null_key {
                        index.entry(key).or_default().push(ri);
                    }
                }
                for l in lrows.iter() {
                    let mut matched = false;
                    let mut key = String::new();
                    let mut null_key = false;
                    for &(lc, _) in &equi {
                        let v = &l[lc];
                        if v.is_null() {
                            null_key = true;
                            break;
                        }
                        key.push_str(&v.sql_literal());
                        key.push('\u{1}');
                    }
                    if !null_key {
                        for &ri in index.get(&key).map(|v| v.as_slice()).unwrap_or(&[]) {
                            let combined = joined(l, Some(rrows[ri]), rwidth);
                            let keep = match &residual {
                                Some(res) => {
                                    truth_of(cx, res, &layout, &Ctx::Row(&combined), outer)?
                                        .is_true()
                                }
                                None => true,
                            };
                            if keep {
                                matched = true;
                                out.push(combined);
                            }
                        }
                    }
                    if !matched && *kind == JoinKind::LeftOuter {
                        out.push(joined(l, None, rwidth));
                    }
                }
            }
            Ok((layout, FromRows::Owned(out)))
        }
    }
}

/// One joined row: `l` followed by its partner, or by `rwidth` NULLs
/// when a left outer join found none.
fn joined(l: &[SqlValue], r: Option<&[SqlValue]>, rwidth: usize) -> Row {
    let mut combined = Vec::with_capacity(l.len() + rwidth);
    combined.extend_from_slice(l);
    match r {
        Some(r) => combined.extend_from_slice(r),
        None => combined.extend(std::iter::repeat_n(SqlValue::Null, rwidth)),
    }
    combined
}

/// The index path of a join of two base tables whose WHERE pins the
/// left one ([`access::candidates`]): only the candidate left rows are
/// joined, each finding its partners by a probe of the right table's
/// join column, verified the way the hash join of the general path
/// matches keys. `None` — take the general path — unless rows, their
/// order and errors are provably the general path's: the rows the pin
/// rules out are rejected by the WHERE without raising (that is
/// `candidates`' own condition, and holds of every joined row a
/// ruled-out left row would have produced), and the ON condition they
/// would have been matched with cannot raise either.
fn pinned_join<'a>(
    cx: &Exec<'a>,
    left: &TableRef,
    right: &TableRef,
    kind: JoinKind,
    on: &ScalarExpr,
    where_: Option<&ScalarExpr>,
    outer: Option<&Scope<'_>>,
) -> Result<Option<(Layout, FromRows<'a>)>, String> {
    let (
        TableRef::Table {
            name: lname,
            alias: lalias,
        },
        TableRef::Table {
            name: rname,
            alias: ralias,
        },
        Some(where_),
    ) = (left, right, where_)
    else {
        return Ok(None);
    };
    let (Some(ltable), Some(rtable)) = (cx.db.table(lname), cx.db.table(rname)) else {
        return Ok(None); // the general path reports the missing table
    };
    let Some(picked) = access::candidates(ltable, lalias, where_, cx.params) else {
        return Ok(None);
    };
    let lwidth = ltable.schema().columns.len();
    let rwidth = rtable.schema().columns.len();
    let layout = Layout::of_table(lalias, ltable).merge(Layout::of_table(ralias, rtable));
    let (equi, residual) = split_equi_conjuncts(on, &layout, lwidth);
    let Some(&(probe_l, probe_r)) = equi.first() else {
        return Ok(None);
    };
    let resolves = |c: &ScalarExpr| matches!(c, ScalarExpr::Column { table, column } if layout.resolve(table, column).is_some());
    if (residual.as_ref()).is_some_and(|r| !access::cannot_raise(r, &resolves, cx.params.len())) {
        return Ok(None);
    }
    let probe_ty = rtable.schema().columns[probe_r - lwidth].ty;
    let mut out = Vec::new();
    for li in picked {
        let l = &ltable.rows()[li];
        let mut matched = false;
        if !l[probe_l].is_null() {
            if !access::hashes_as_compared(probe_ty, &l[probe_l]) {
                return Ok(None);
            }
            for ri in rtable.probe(probe_r - lwidth, &[KeyPart::of(&l[probe_l])]) {
                let r = &rtable.rows()[ri];
                // partners as the hash join defines them: every key pair
                // non-NULL and alike in its literal rendering
                let partners = equi.iter().all(|&(lc, rc)| {
                    let (a, b) = (&l[lc], &r[rc - lwidth]);
                    !a.is_null() && !b.is_null() && a.sql_literal() == b.sql_literal()
                });
                if !partners {
                    continue;
                }
                let combined = joined(l, Some(r), rwidth);
                let keep = match &residual {
                    Some(res) => truth_of(cx, res, &layout, &Ctx::Row(&combined), outer)?.is_true(),
                    None => true,
                };
                if keep {
                    matched = true;
                    out.push(combined);
                }
            }
        }
        if !matched && kind == JoinKind::LeftOuter {
            out.push(joined(l, None, rwidth));
        }
    }
    Ok(Some((layout, FromRows::Owned(out))))
}

/// Decompose an ON condition into `(left column index, right column
/// index)` equality pairs plus an optional residual. Only top-level AND
/// chains of `col = col` comparisons qualify; hashing uses the literal
/// rendering, which matches SQL equality for identically-typed keys
/// (NULL keys never match, per SQL).
fn split_equi_conjuncts(
    on: &ScalarExpr,
    layout: &Layout,
    lwidth: usize,
) -> (Vec<(usize, usize)>, Option<ScalarExpr>) {
    let mut conjuncts = Vec::new();
    access::flatten(on, false, &mut conjuncts);
    let mut equi = Vec::new();
    let mut residual: Vec<ScalarExpr> = Vec::new();
    for c in conjuncts {
        let mut taken = false;
        if let ScalarExpr::Compare {
            op: aldsp_xdm::item::CompOp::Eq,
            lhs,
            rhs,
        } = c
        {
            if let (
                ScalarExpr::Column {
                    table: ta,
                    column: ca,
                },
                ScalarExpr::Column {
                    table: tb,
                    column: cb,
                },
            ) = (lhs.as_ref(), rhs.as_ref())
            {
                if let (Some(ia), Some(ib)) = (layout.resolve(ta, ca), layout.resolve(tb, cb)) {
                    // same-type columns only: comparing e.g. INTEGER with
                    // DECIMAL via literals would be wrong, so require the
                    // literal-compatible case (both sides resolve); cross-
                    // type keys fall back to the residual predicate
                    if ia < lwidth && ib >= lwidth {
                        equi.push((ia, ib));
                        taken = true;
                    } else if ib < lwidth && ia >= lwidth {
                        equi.push((ib, ia));
                        taken = true;
                    }
                }
            }
        }
        if !taken {
            residual.push(c.clone());
        }
    }
    let residual = residual.into_iter().reduce(|a, b| a.and(b));
    (equi, residual)
}

fn truth_of(
    cx: &Exec<'_>,
    e: &ScalarExpr,
    layout: &Layout,
    ctx: &Ctx<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<Truth, String> {
    Ok(match eval(cx, e, layout, ctx, outer)? {
        SqlValue::Bool(b) => Truth::of(b),
        SqlValue::Null => Truth::Unknown,
        other => return Err(format!("predicate evaluated to non-boolean {other}")),
    })
}

fn eval(
    cx: &Exec<'_>,
    e: &ScalarExpr,
    layout: &Layout,
    ctx: &Ctx<'_>,
    outer: Option<&Scope<'_>>,
) -> Result<SqlValue, String> {
    Ok(match e {
        ScalarExpr::Column { table, column } => {
            if let Some(i) = layout.resolve(table, column) {
                ctx.repr().get(i).cloned().unwrap_or(SqlValue::Null)
            } else {
                // correlated reference into an outer scope
                let mut scope = outer;
                loop {
                    match scope {
                        Some(s) => {
                            if let Some(i) = s.layout.resolve(table, column) {
                                break s.row.get(i).cloned().unwrap_or(SqlValue::Null);
                            }
                            scope = s.parent;
                        }
                        None => return Err(format!("unresolved column {table}.{column}")),
                    }
                }
            }
        }
        ScalarExpr::Literal(v) => v.clone(),
        ScalarExpr::Param(i) => cx
            .params
            .get(*i)
            .cloned()
            .ok_or_else(|| format!("missing parameter ?{i}"))?,
        ScalarExpr::Compare { op, lhs, rhs } => {
            let a = eval(cx, lhs, layout, ctx, outer)?;
            let b = eval(cx, rhs, layout, ctx, outer)?;
            match a.compare(&b) {
                Some(ord) => SqlValue::Bool(op.test(ord)),
                None => SqlValue::Null,
            }
        }
        ScalarExpr::And(a, b) => {
            let ta = truth_of(cx, a, layout, ctx, outer)?;
            // short-circuit FALSE without evaluating the right side
            if ta == Truth::False {
                SqlValue::Bool(false)
            } else {
                truth_to_value(ta.and(truth_of(cx, b, layout, ctx, outer)?))
            }
        }
        ScalarExpr::Or(a, b) => {
            let ta = truth_of(cx, a, layout, ctx, outer)?;
            if ta == Truth::True {
                SqlValue::Bool(true)
            } else {
                truth_to_value(ta.or(truth_of(cx, b, layout, ctx, outer)?))
            }
        }
        ScalarExpr::Not(a) => truth_to_value(truth_of(cx, a, layout, ctx, outer)?.not()),
        ScalarExpr::IsNull(a) => SqlValue::Bool(eval(cx, a, layout, ctx, outer)?.is_null()),
        ScalarExpr::Arith { op, lhs, rhs } => {
            let a = eval(cx, lhs, layout, ctx, outer)?;
            let b = eval(cx, rhs, layout, ctx, outer)?;
            sql_arith(*op, &a, &b)?
        }
        ScalarExpr::Case { when, els } => {
            let mut result = None;
            for (cond, val) in when {
                if truth_of(cx, cond, layout, ctx, outer)?.is_true() {
                    result = Some(eval(cx, val, layout, ctx, outer)?);
                    break;
                }
            }
            match result {
                Some(v) => v,
                None => match els {
                    Some(e) => eval(cx, e, layout, ctx, outer)?,
                    None => SqlValue::Null,
                },
            }
        }
        ScalarExpr::Exists(sub) => {
            let scope = Scope {
                layout,
                row: ctx.repr(),
                parent: outer,
            };
            let rs = exec_select(cx, sub, Some(&scope))?;
            SqlValue::Bool(!rs.rows.is_empty())
        }
        ScalarExpr::InList { expr, list } => {
            let v = eval(cx, expr, layout, ctx, outer)?;
            if v.is_null() {
                return Ok(SqlValue::Null);
            }
            let mut saw_unknown = false;
            for item in list {
                let w = eval(cx, item, layout, ctx, outer)?;
                match v.compare(&w) {
                    Some(std::cmp::Ordering::Equal) => return Ok(SqlValue::Bool(true)),
                    Some(_) => {}
                    None => saw_unknown = true,
                }
            }
            if saw_unknown {
                SqlValue::Null
            } else {
                SqlValue::Bool(false)
            }
        }
        ScalarExpr::Func { name, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(cx, a, layout, ctx, outer)?);
            }
            sql_function(name, &vals)?
        }
        ScalarExpr::Agg {
            func,
            arg,
            distinct,
        } => {
            let Ctx::Group { rows, .. } = ctx else {
                return Err(format!(
                    "{} used outside an aggregate context",
                    func.keyword()
                ));
            };
            let mut vals: Vec<SqlValue> = Vec::new();
            for row in rows.iter() {
                match arg {
                    None => vals.push(SqlValue::Int(1)), // COUNT(*)
                    Some(a) => {
                        let v = eval(cx, a, layout, &Ctx::Row(row), outer)?;
                        if !v.is_null() {
                            vals.push(v);
                        }
                    }
                }
            }
            if *distinct {
                let mut seen = HashSet::new();
                vals.retain(|v| seen.insert(v.sql_literal()));
            }
            aggregate(*func, &vals)?
        }
    })
}

fn truth_to_value(t: Truth) -> SqlValue {
    match t {
        Truth::True => SqlValue::Bool(true),
        Truth::False => SqlValue::Bool(false),
        Truth::Unknown => SqlValue::Null,
    }
}

fn sql_arith(op: ArithOp, a: &SqlValue, b: &SqlValue) -> Result<SqlValue, String> {
    if a.is_null() || b.is_null() {
        return Ok(SqlValue::Null);
    }
    let xa = a.to_xml().expect("non-null");
    let xb = b.to_xml().expect("non-null");
    let r = xa
        .arithmetic(op, &xb)
        .map_err(|e| format!("SQL arithmetic error: {e}"))?;
    SqlValue::from_xml(
        Some(&r),
        crate::types::SqlType::from_xml_type(r.type_of()).expect("numeric"),
    )
}

fn sql_function(name: &str, args: &[SqlValue]) -> Result<SqlValue, String> {
    if args.iter().any(SqlValue::is_null) && name != "CONCAT" {
        return Ok(SqlValue::Null);
    }
    Ok(match (name, args) {
        ("UPPER", [SqlValue::Str(s)]) => SqlValue::str(&s.to_uppercase()),
        ("LOWER", [SqlValue::Str(s)]) => SqlValue::str(&s.to_lowercase()),
        ("LENGTH", [SqlValue::Str(s)]) => SqlValue::Int(s.chars().count() as i64),
        ("ABS", [SqlValue::Int(i)]) => SqlValue::Int(i.abs()),
        ("ABS", [SqlValue::Dec(d)]) => SqlValue::Dec(Decimal(d.0.abs())),
        ("ABS", [SqlValue::Dbl(d)]) => SqlValue::Dbl(d.abs()),
        ("SUBSTR", [SqlValue::Str(s), SqlValue::Int(start)]) => {
            let chars: Vec<char> = s.chars().collect();
            let from = (start - 1).max(0) as usize;
            SqlValue::str(&chars[from.min(chars.len())..].iter().collect::<String>())
        }
        ("SUBSTR", [SqlValue::Str(s), SqlValue::Int(start), SqlValue::Int(len)]) => {
            let chars: Vec<char> = s.chars().collect();
            let from = (start - 1).max(0) as usize;
            let to = (from + (*len).max(0) as usize).min(chars.len());
            SqlValue::str(&chars[from.min(chars.len())..to].iter().collect::<String>())
        }
        ("CONCAT", parts) => {
            let mut out = String::new();
            for p in parts {
                if !p.is_null() {
                    out.push_str(&p.to_string());
                }
            }
            SqlValue::str(&out)
        }
        _ => {
            return Err(format!(
                "unknown SQL function {name}/{} or bad argument types",
                args.len()
            ))
        }
    })
}

fn aggregate(func: AggFunc, vals: &[SqlValue]) -> Result<SqlValue, String> {
    Ok(match func {
        AggFunc::Count => SqlValue::Int(vals.len() as i64),
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<&SqlValue> = None;
            for v in vals {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let take = match v.compare(b) {
                            Some(std::cmp::Ordering::Less) => func == AggFunc::Min,
                            Some(std::cmp::Ordering::Greater) => func == AggFunc::Max,
                            _ => false,
                        };
                        if take {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            best.cloned().unwrap_or(SqlValue::Null)
        }
        AggFunc::Sum | AggFunc::Avg => {
            if vals.is_empty() {
                return Ok(SqlValue::Null);
            }
            let mut acc = SqlValue::Int(0);
            for v in vals {
                acc = sql_arith(ArithOp::Add, &acc, v)?;
            }
            if func == AggFunc::Avg {
                acc = sql_arith(ArithOp::Div, &acc, &SqlValue::Int(vals.len() as i64))?;
            }
            acc
        }
    })
}

/// The reference the access paths are tested against: the row indices a
/// WHERE selects when it is evaluated on every stored row, or the first
/// error that raises.
#[cfg(test)]
pub(crate) fn scan_filter(
    db: &Database,
    table: &str,
    alias: &str,
    where_: &ScalarExpr,
    params: &[SqlValue],
) -> Result<Vec<usize>, String> {
    let cx = Exec::new(db, params);
    let table = db.table(table).expect("table exists");
    let layout = Layout::of_table(alias, table);
    let mut hits = Vec::new();
    for (i, row) in table.rows().iter().enumerate() {
        if truth_of(&cx, where_, &layout, &Ctx::Row(row), None)?.is_true() {
            hits.push(i);
        }
    }
    Ok(hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableSchema;
    use crate::sql::{ppk_block_predicate, OutputColumn};
    use crate::types::SqlType;

    fn db() -> Database {
        let mut d = Database::new();
        d.create_table(
            TableSchema::builder("CUSTOMER")
                .col("CID", SqlType::Varchar)
                .col("LAST_NAME", SqlType::Varchar)
                .col_null("FIRST_NAME", SqlType::Varchar)
                .pk(&["CID"])
                .build()
                .unwrap(),
        )
        .unwrap();
        d.create_table(
            TableSchema::builder("ORDER")
                .col("OID", SqlType::Integer)
                .col("CID", SqlType::Varchar)
                .col("AMOUNT", SqlType::Decimal)
                .pk(&["OID"])
                .build()
                .unwrap(),
        )
        .unwrap();
        for (cid, last, first) in [
            ("C1", "Jones", Some("Ann")),
            ("C2", "Smith", None),
            ("C3", "Jones", Some("Bob")),
        ] {
            d.insert(
                "CUSTOMER",
                vec![
                    SqlValue::str(cid),
                    SqlValue::str(last),
                    first.map(SqlValue::str).unwrap_or(SqlValue::Null),
                ],
            )
            .unwrap();
        }
        for (oid, cid, amt) in [(1, "C1", "10.5"), (2, "C1", "20"), (3, "C3", "7.25")] {
            d.insert(
                "ORDER",
                vec![
                    SqlValue::Int(oid),
                    SqlValue::str(cid),
                    SqlValue::Dec(Decimal::parse(amt).unwrap()),
                ],
            )
            .unwrap();
        }
        d
    }

    fn col(t: &str, c: &str) -> ScalarExpr {
        ScalarExpr::col(t, c)
    }

    #[test]
    fn select_project_where() {
        // Table 1(a)
        let d = db();
        let q =
            Select::new(TableRef::table("CUSTOMER", "t1")).column(col("t1", "FIRST_NAME"), "c1");
        let mut q = q;
        q.where_ = Some(col("t1", "CID").eq(ScalarExpr::lit(SqlValue::str("C1"))));
        let rs = d.execute_select(&q, &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![SqlValue::str("Ann")]]);
    }

    #[test]
    fn inner_and_outer_join() {
        // Tables 1(b)/1(c)
        let d = db();
        let join_on = col("t1", "CID").eq(col("t2", "CID"));
        let inner = Select::new(TableRef::table("CUSTOMER", "t1").join(
            JoinKind::Inner,
            TableRef::table("ORDER", "t2"),
            join_on.clone(),
        ))
        .column(col("t1", "CID"), "c1")
        .column(col("t2", "OID"), "c2");
        let rs = d.execute_select(&inner, &[]).unwrap();
        assert_eq!(rs.rows.len(), 3); // C1×2, C3×1
        let outer = Select::new(TableRef::table("CUSTOMER", "t1").join(
            JoinKind::LeftOuter,
            TableRef::table("ORDER", "t2"),
            join_on,
        ))
        .column(col("t1", "CID"), "c1")
        .column(col("t2", "OID"), "c2");
        let rs = d.execute_select(&outer, &[]).unwrap();
        assert_eq!(rs.rows.len(), 4); // + C2 with NULL OID
        assert!(rs
            .rows
            .iter()
            .any(|r| r[0] == SqlValue::str("C2") && r[1].is_null()));
    }

    #[test]
    fn case_when() {
        // Table 1(d)
        let d = db();
        let q = Select::new(TableRef::table("CUSTOMER", "t1")).column(
            ScalarExpr::Case {
                when: vec![(
                    col("t1", "CID").eq(ScalarExpr::lit(SqlValue::str("C1"))),
                    col("t1", "FIRST_NAME"),
                )],
                els: Some(Box::new(col("t1", "LAST_NAME"))),
            },
            "c1",
        );
        let rs = d.execute_select(&q, &[]).unwrap();
        assert_eq!(
            rs.rows,
            vec![
                vec![SqlValue::str("Ann")],
                vec![SqlValue::str("Smith")],
                vec![SqlValue::str("Jones")]
            ]
        );
    }

    #[test]
    fn group_by_count_and_distinct() {
        // Tables 1(e)/1(f)
        let d = db();
        let mut q = Select::new(TableRef::table("CUSTOMER", "t1"))
            .column(col("t1", "LAST_NAME"), "c1")
            .column(ScalarExpr::count_star(), "c2");
        q.group_by = vec![col("t1", "LAST_NAME")];
        q.order_by = vec![OrderBy {
            expr: col("t1", "LAST_NAME"),
            descending: false,
        }];
        let rs = d.execute_select(&q, &[]).unwrap();
        assert_eq!(
            rs.rows,
            vec![
                vec![SqlValue::str("Jones"), SqlValue::Int(2)],
                vec![SqlValue::str("Smith"), SqlValue::Int(1)],
            ]
        );
        let mut q2 =
            Select::new(TableRef::table("CUSTOMER", "t1")).column(col("t1", "LAST_NAME"), "c1");
        q2.distinct = true;
        let rs = d.execute_select(&q2, &[]).unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn outer_join_with_aggregation() {
        // Table 2(g): per-customer order counts, zero included
        let d = db();
        let mut q = Select::new(TableRef::table("CUSTOMER", "t1").join(
            JoinKind::LeftOuter,
            TableRef::table("ORDER", "t2"),
            col("t1", "CID").eq(col("t2", "CID")),
        ))
        .column(col("t1", "CID"), "c1")
        .column(
            ScalarExpr::Agg {
                func: AggFunc::Count,
                arg: Some(Box::new(col("t2", "CID"))),
                distinct: false,
            },
            "c2",
        );
        q.group_by = vec![col("t1", "CID")];
        q.order_by = vec![OrderBy {
            expr: col("t1", "CID"),
            descending: false,
        }];
        let rs = d.execute_select(&q, &[]).unwrap();
        assert_eq!(
            rs.rows,
            vec![
                vec![SqlValue::str("C1"), SqlValue::Int(2)],
                vec![SqlValue::str("C2"), SqlValue::Int(0)], // COUNT skips NULLs
                vec![SqlValue::str("C3"), SqlValue::Int(1)],
            ]
        );
    }

    #[test]
    fn correlated_exists_semi_join() {
        // Table 2(h)
        let d = db();
        let sub = Select::new(TableRef::table("ORDER", "t2"))
            .column(ScalarExpr::lit(SqlValue::Int(1)), "c1");
        let mut sub = sub;
        sub.where_ = Some(col("t1", "CID").eq(col("t2", "CID")));
        let mut q = Select::new(TableRef::table("CUSTOMER", "t1")).column(col("t1", "CID"), "c1");
        q.where_ = Some(ScalarExpr::Exists(Box::new(sub)));
        q.order_by = vec![OrderBy {
            expr: col("t1", "CID"),
            descending: false,
        }];
        let rs = d.execute_select(&q, &[]).unwrap();
        assert_eq!(
            rs.rows,
            vec![vec![SqlValue::str("C1")], vec![SqlValue::str("C3")]]
        );
    }

    #[test]
    fn derived_table_with_pagination() {
        // Table 2(i): order by count desc, subsequence
        let d = db();
        let mut inner = Select::new(TableRef::table("CUSTOMER", "t1").join(
            JoinKind::LeftOuter,
            TableRef::table("ORDER", "t2"),
            col("t1", "CID").eq(col("t2", "CID")),
        ))
        .column(col("t1", "CID"), "c1")
        .column(
            ScalarExpr::Agg {
                func: AggFunc::Count,
                arg: Some(Box::new(col("t2", "CID"))),
                distinct: false,
            },
            "c2",
        );
        inner.group_by = vec![col("t1", "CID")];
        inner.order_by = vec![OrderBy {
            expr: ScalarExpr::Agg {
                func: AggFunc::Count,
                arg: Some(Box::new(col("t2", "CID"))),
                distinct: false,
            },
            descending: true,
        }];
        let mut outer = Select::new(TableRef::Derived {
            query: Box::new(inner),
            alias: "t3".into(),
        })
        .column(col("t3", "c1"), "c1")
        .column(col("t3", "c2"), "c2");
        outer.offset = Some(1);
        outer.fetch = Some(1);
        let rs = d.execute_select(&outer, &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![SqlValue::str("C3"), SqlValue::Int(1)]]);
    }

    #[test]
    fn ppk_disjunctive_parameter_block() {
        // the PP-k fetch query (§4.2): fetch ORDER rows joining a block
        let d = db();
        let mut q = Select::new(TableRef::table("ORDER", "t1"))
            .column(col("t1", "OID"), "c1")
            .column(col("t1", "CID"), "c2");
        q.where_ = Some(ppk_block_predicate(&[col("t1", "CID")], 2, 0));
        let rs = d
            .execute_select(&q, &[SqlValue::str("C1"), SqlValue::str("C3")])
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn three_valued_where_and_in_list() {
        let d = db();
        // FIRST_NAME = 'Ann' is UNKNOWN for C2 (NULL) → filtered out
        let mut q = Select::new(TableRef::table("CUSTOMER", "t1")).column(col("t1", "CID"), "c1");
        q.where_ = Some(ScalarExpr::Not(Box::new(
            col("t1", "FIRST_NAME").eq(ScalarExpr::lit(SqlValue::str("Ann"))),
        )));
        let rs = d.execute_select(&q, &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![SqlValue::str("C3")]]); // NOT UNKNOWN is UNKNOWN
                                                              // IN list with NULL member
        let mut q = Select::new(TableRef::table("CUSTOMER", "t1")).column(col("t1", "CID"), "c1");
        q.where_ = Some(ScalarExpr::InList {
            expr: Box::new(col("t1", "FIRST_NAME")),
            list: vec![
                ScalarExpr::lit(SqlValue::str("Bob")),
                ScalarExpr::lit(SqlValue::Null),
            ],
        });
        let rs = d.execute_select(&q, &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![SqlValue::str("C3")]]);
    }

    #[test]
    fn scalar_functions() {
        let d = db();
        let q = Select::new(TableRef::table("CUSTOMER", "t1"))
            .column(
                ScalarExpr::Func {
                    name: "UPPER".into(),
                    args: vec![col("t1", "LAST_NAME")],
                },
                "c1",
            )
            .column(
                ScalarExpr::Func {
                    name: "SUBSTR".into(),
                    args: vec![
                        col("t1", "CID"),
                        ScalarExpr::lit(SqlValue::Int(2)),
                        ScalarExpr::lit(SqlValue::Int(1)),
                    ],
                },
                "c2",
            );
        let rs = d.execute_select(&q, &[]).unwrap();
        assert_eq!(rs.rows[0], vec![SqlValue::str("JONES"), SqlValue::str("1")]);
    }

    #[test]
    fn aggregates_over_empty_input() {
        let d = db();
        let mut q = Select::new(TableRef::table("ORDER", "t1"))
            .column(ScalarExpr::count_star(), "c1")
            .column(
                ScalarExpr::Agg {
                    func: AggFunc::Sum,
                    arg: Some(Box::new(col("t1", "AMOUNT"))),
                    distinct: false,
                },
                "c2",
            );
        q.where_ = Some(col("t1", "OID").eq(ScalarExpr::lit(SqlValue::Int(999))));
        let rs = d.execute_select(&q, &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![SqlValue::Int(0), SqlValue::Null]]);
    }

    #[test]
    fn sum_avg_min_max() {
        let d = db();
        let q = Select::new(TableRef::table("ORDER", "t1"))
            .column(
                ScalarExpr::Agg {
                    func: AggFunc::Sum,
                    arg: Some(Box::new(col("t1", "AMOUNT"))),
                    distinct: false,
                },
                "s",
            )
            .column(
                ScalarExpr::Agg {
                    func: AggFunc::Min,
                    arg: Some(Box::new(col("t1", "AMOUNT"))),
                    distinct: false,
                },
                "mn",
            )
            .column(
                ScalarExpr::Agg {
                    func: AggFunc::Max,
                    arg: Some(Box::new(col("t1", "AMOUNT"))),
                    distinct: false,
                },
                "mx",
            );
        let rs = d.execute_select(&q, &[]).unwrap();
        assert_eq!(rs.rows[0][0].to_string(), "37.75");
        assert_eq!(rs.rows[0][1].to_string(), "7.25");
        assert_eq!(rs.rows[0][2].to_string(), "20");
    }

    #[test]
    fn order_by_nulls_least_and_desc() {
        let d = db();
        let mut q =
            Select::new(TableRef::table("CUSTOMER", "t1")).column(col("t1", "FIRST_NAME"), "c1");
        q.order_by = vec![OrderBy {
            expr: col("t1", "FIRST_NAME"),
            descending: true,
        }];
        let rs = d.execute_select(&q, &[]).unwrap();
        assert_eq!(
            rs.rows,
            vec![
                vec![SqlValue::str("Bob")],
                vec![SqlValue::str("Ann")],
                vec![SqlValue::Null]
            ]
        );
    }

    #[test]
    fn errors_surface() {
        let d = db();
        let q = Select::new(TableRef::table("NOPE", "t1"))
            .column(ScalarExpr::lit(SqlValue::Int(1)), "c1");
        assert!(d.execute_select(&q, &[]).is_err());
        let q = Select::new(TableRef::table("CUSTOMER", "t1")).column(col("t1", "MISSING"), "c1");
        assert!(d.execute_select(&q, &[]).is_err());
        let mut q = Select::new(TableRef::table("CUSTOMER", "t1")).column(col("t1", "CID"), "c1");
        q.where_ = Some(col("t1", "CID").eq(ScalarExpr::Param(2)));
        assert!(d.execute_select(&q, &[SqlValue::str("x")]).is_err());
    }

    #[test]
    fn projection_struct_helpers() {
        let c = OutputColumn {
            expr: ScalarExpr::lit(SqlValue::Int(1)),
            alias: "x".into(),
        };
        assert_eq!(c.alias, "x");
    }
}
