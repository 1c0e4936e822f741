//! DML: UPDATE / INSERT / DELETE statements.
//!
//! ALDSP's update decomposition (§6) turns SDO change logs into
//! per-source SQL updates whose `WHERE` clauses carry the optimistic-
//! concurrency conditions ("the sameness required is expressed as part
//! of the where clause for the update statements"). This module supplies
//! those statements plus their executor and dialect rendering.

use crate::dialect::Dialect;
use crate::exec::{Exec, TableEval};
use crate::sql::{ScalarExpr, Select, TableRef};
use crate::store::{Database, Row};
use crate::types::SqlValue;
use std::fmt::Write;

/// An `UPDATE table SET col = expr, … WHERE …` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Target table.
    pub table: String,
    /// Correlation alias used in expressions (`t1`).
    pub alias: String,
    /// `SET` assignments.
    pub set: Vec<(String, ScalarExpr)>,
    /// `WHERE` predicate (key condition + optimistic-concurrency terms).
    pub where_: Option<ScalarExpr>,
}

/// An `INSERT INTO table VALUES (…)` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target table.
    pub table: String,
    /// One value expression per column, in schema order.
    pub values: Vec<ScalarExpr>,
}

/// A `DELETE FROM table WHERE …` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    /// Target table.
    pub table: String,
    /// Correlation alias used in the predicate.
    pub alias: String,
    /// `WHERE` predicate.
    pub where_: Option<ScalarExpr>,
}

/// Any DML statement (the unit of ALDSP change propagation).
#[derive(Debug, Clone, PartialEq)]
pub enum Dml {
    /// UPDATE.
    Update(Update),
    /// INSERT.
    Insert(Insert),
    /// DELETE.
    Delete(Delete),
}

impl Dml {
    /// The target table name.
    pub fn table(&self) -> &str {
        match self {
            Dml::Update(u) => &u.table,
            Dml::Insert(i) => &i.table,
            Dml::Delete(d) => &d.table,
        }
    }
}

impl Database {
    /// Execute a DML statement; returns the number of affected rows.
    /// An optimistic-concurrency conflict shows up as 0 affected rows on
    /// an UPDATE/DELETE the caller expected to hit. A statement that
    /// fails changes nothing.
    pub fn execute_dml(&mut self, stmt: &Dml, params: &[SqlValue]) -> Result<usize, String> {
        self.dml_examining(stmt, params).0
    }

    /// [`Database::execute_dml`], also reporting how many stored rows
    /// the statement evaluated its WHERE predicate on.
    pub(crate) fn dml_examining(
        &mut self,
        stmt: &Dml,
        params: &[SqlValue],
    ) -> (Result<usize, String>, u64) {
        let mut undo = Vec::new();
        let (n, examined) = self.apply_one(stmt, params, &mut undo);
        if n.is_err() {
            self.undo(undo);
        }
        (n, examined)
    }

    /// Apply `stmts` in order, each seeing the effects of those before
    /// it, and also report the stored rows their WHERE predicates were
    /// evaluated on. On success the tables hold every statement's writes
    /// and [`Applied::undo`] takes them back; on an error nothing is left
    /// applied. Only the rows written are recorded: no table is copied.
    pub(crate) fn apply_all<'s>(
        &mut self,
        stmts: &'s [(Dml, Vec<SqlValue>)],
    ) -> (Result<Applied<'s>, String>, u64) {
        let mut applied = Applied {
            matched: Vec::with_capacity(stmts.len()),
            undo: Vec::new(),
        };
        let mut examined = 0;
        for (stmt, params) in stmts {
            let (n, e) = self.apply_one(stmt, params, &mut applied.undo);
            examined += e;
            match n {
                Ok(n) => applied.matched.push(n),
                Err(e) => {
                    self.undo(applied.undo);
                    return (Err(e), examined);
                }
            }
        }
        (Ok(applied), examined)
    }

    /// Plan one statement and apply it, logging an undo entry for every
    /// row it writes — also for the rows of a statement that fails
    /// halfway.
    fn apply_one<'s>(
        &mut self,
        stmt: &'s Dml,
        params: &[SqlValue],
        undo: &mut Vec<(&'s str, Undo)>,
    ) -> (Result<usize, String>, u64) {
        let cx = Exec::new(self, params);
        let planned = plan_dml(&cx, stmt);
        let examined = cx.examined();
        let table = stmt.table();
        let applied = planned.and_then(|change| match change {
            Change::Insert(row) => {
                self.insert(table, row)?;
                undo.push((table, Undo::Inserted));
                Ok(1)
            }
            Change::Replace(rows) => {
                let t = self.table_mut(table).expect("planned against it");
                let n = rows.len();
                for (at, new) in rows {
                    let old = t.replace_row(at, new)?;
                    undo.push((table, Undo::Replaced { at, old }));
                }
                Ok(n)
            }
            Change::Delete(hits) => {
                let t = self.table_mut(table).expect("planned against it");
                undo.push((table, Undo::Deleted(t.delete_rows(&hits))));
                Ok(hits.len())
            }
        });
        (applied, examined)
    }

    /// Take back the writes of an undo log, latest first.
    fn undo(&mut self, log: Vec<(&str, Undo)>) {
        for (table, entry) in log.into_iter().rev() {
            let t = self.table_mut(table).expect("written before");
            match entry {
                Undo::Replaced { at, old } => {
                    t.replace_row(at, old).expect("the row it replaced fits");
                }
                Undo::Inserted => t.pop_row(),
                Undo::Deleted(rows) => t.restore_rows(rows),
            }
        }
    }
}

/// The statements [`Database::apply_all`] applied: how many rows each
/// matched, and what it takes to put the tables back.
pub(crate) struct Applied<'s> {
    /// Rows each statement matched (an INSERT: 1), in statement order.
    pub(crate) matched: Vec<usize>,
    undo: Vec<(&'s str, Undo)>,
}

impl Applied<'_> {
    /// Take every write back, leaving `db` as it was before
    /// [`Database::apply_all`].
    pub(crate) fn undo(self, db: &mut Database) {
        db.undo(self.undo);
    }
}

/// One write to a table, with what it takes to reverse it.
enum Undo {
    /// An UPDATE replaced row `at`, which held `old`.
    Replaced { at: usize, old: Row },
    /// An INSERT appended a row; undone, it is still the last row.
    Inserted,
    /// A DELETE removed these rows, ascending by their old index.
    Deleted(Vec<(usize, Row)>),
}

/// What a statement will do to its table, worked out against the
/// unmodified database: every predicate and SET expression sees the
/// rows as they were when the statement began.
enum Change {
    Insert(Row),
    /// `(row index, new row)`, in storage order.
    Replace(Vec<(usize, Row)>),
    /// Row indices, ascending.
    Delete(Vec<usize>),
}

fn plan_dml(cx: &Exec<'_>, stmt: &Dml) -> Result<Change, String> {
    match stmt {
        Dml::Insert(ins) => {
            let mut row = Vec::with_capacity(ins.values.len());
            for e in &ins.values {
                row.push(match e {
                    ScalarExpr::Literal(v) => v.clone(),
                    ScalarExpr::Param(i) => cx
                        .params
                        .get(*i)
                        .cloned()
                        .ok_or_else(|| format!("missing parameter ?{i}"))?,
                    other => {
                        return Err(format!(
                            "INSERT values must be literals or parameters, found {other:?}"
                        ))
                    }
                });
            }
            Ok(Change::Insert(row))
        }
        Dml::Update(upd) => {
            let rows_of = TableEval::new(cx, &upd.table, &upd.alias)?;
            let t = rows_of.table();
            let hits = rows_of.matching(upd.where_.as_ref())?;
            let mut set_idx = Vec::with_capacity(upd.set.len());
            for (c, e) in &upd.set {
                let i = t
                    .schema()
                    .column_index(c)
                    .ok_or_else(|| format!("no column '{c}' in '{}'", upd.table))?;
                set_idx.push((i, e));
            }
            let mut rows = Vec::with_capacity(hits.len());
            for ri in hits {
                let mut new = t.rows()[ri].clone();
                for (i, e) in &set_idx {
                    new[*i] = rows_of.eval(e, ri)?;
                }
                rows.push((ri, new));
            }
            Ok(Change::Replace(rows))
        }
        Dml::Delete(del) => {
            let rows_of = TableEval::new(cx, &del.table, &del.alias)?;
            rows_of.matching(del.where_.as_ref()).map(Change::Delete)
        }
    }
}

/// Render a DML statement as SQL text in the given dialect.
pub fn render_dml(stmt: &Dml, d: Dialect) -> String {
    let _ = d; // the DML subset is identical across our dialects
    match stmt {
        Dml::Update(u) => {
            let mut s = format!("UPDATE \"{}\" {} SET ", u.table, u.alias);
            for (i, (c, e)) in u.set.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{c}\" = {}", render_set_expr(e, d));
            }
            if let Some(w) = &u.where_ {
                let _ = write!(s, "\nWHERE {}", render_set_expr(w, d));
            }
            s
        }
        Dml::Insert(i) => {
            let vals: Vec<String> = i.values.iter().map(|e| render_set_expr(e, d)).collect();
            format!("INSERT INTO \"{}\" VALUES ({})", i.table, vals.join(", "))
        }
        Dml::Delete(del) => {
            let mut s = format!("DELETE FROM \"{}\" {}", del.table, del.alias);
            if let Some(w) = &del.where_ {
                let _ = write!(s, "\nWHERE {}", render_set_expr(w, d));
            }
            s
        }
    }
}

fn render_set_expr(e: &ScalarExpr, d: Dialect) -> String {
    // reuse the SELECT expression renderer via a tiny shim select
    let q = Select::new(TableRef::table("_", "_")).column(e.clone(), "v");
    let text = crate::dialect::render_select(&q, d);
    let start = "SELECT ".len();
    let end = text.find(" AS v").expect("renderer emits alias");
    text[start..end].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableSchema;
    use crate::types::SqlType;

    fn db() -> Database {
        let mut d = Database::new();
        d.create_table(
            TableSchema::builder("CUSTOMER")
                .col("CID", SqlType::Varchar)
                .col("LAST_NAME", SqlType::Varchar)
                .pk(&["CID"])
                .build()
                .unwrap(),
        )
        .unwrap();
        d.insert(
            "CUSTOMER",
            vec![SqlValue::str("0815"), SqlValue::str("Jones")],
        )
        .unwrap();
        d.insert(
            "CUSTOMER",
            vec![SqlValue::str("0816"), SqlValue::str("Adams")],
        )
        .unwrap();
        d
    }

    #[test]
    fn figure5_update_with_optimistic_check() {
        // UPDATE … SET LAST_NAME = 'Smith'
        // WHERE CID = '0815' AND LAST_NAME = 'Jones'   (value-read check)
        let mut d = db();
        let upd = Dml::Update(Update {
            table: "CUSTOMER".into(),
            alias: "t1".into(),
            set: vec![("LAST_NAME".into(), ScalarExpr::lit(SqlValue::str("Smith")))],
            where_: Some(
                ScalarExpr::col("t1", "CID")
                    .eq(ScalarExpr::lit(SqlValue::str("0815")))
                    .and(
                        ScalarExpr::col("t1", "LAST_NAME")
                            .eq(ScalarExpr::lit(SqlValue::str("Jones"))),
                    ),
            ),
        });
        assert_eq!(d.execute_dml(&upd, &[]).unwrap(), 1);
        // second application: the read value no longer matches → 0 rows,
        // which is how optimistic conflicts surface
        assert_eq!(d.execute_dml(&upd, &[]).unwrap(), 0);
        let t = d.table("CUSTOMER").unwrap();
        assert_eq!(t.rows()[0][1], SqlValue::str("Smith"));
    }

    #[test]
    fn insert_and_delete() {
        let mut d = db();
        let ins = Dml::Insert(Insert {
            table: "CUSTOMER".into(),
            values: vec![ScalarExpr::Param(0), ScalarExpr::lit(SqlValue::str("New"))],
        });
        assert_eq!(d.execute_dml(&ins, &[SqlValue::str("0900")]).unwrap(), 1);
        assert_eq!(d.table("CUSTOMER").unwrap().len(), 3);
        let del = Dml::Delete(Delete {
            table: "CUSTOMER".into(),
            alias: "t1".into(),
            where_: Some(ScalarExpr::col("t1", "CID").eq(ScalarExpr::Param(0))),
        });
        assert_eq!(d.execute_dml(&del, &[SqlValue::str("0900")]).unwrap(), 1);
        assert_eq!(d.table("CUSTOMER").unwrap().len(), 2);
        // PK index still valid after delete
        assert!(d
            .table("CUSTOMER")
            .unwrap()
            .lookup_pk(&[SqlValue::str("0816")])
            .is_some());
    }

    #[test]
    fn update_expression_references_old_values() {
        let mut d = Database::new();
        d.create_table(
            TableSchema::builder("ACCT")
                .col("ID", SqlType::Integer)
                .col("BAL", SqlType::Integer)
                .pk(&["ID"])
                .build()
                .unwrap(),
        )
        .unwrap();
        d.insert("ACCT", vec![SqlValue::Int(1), SqlValue::Int(100)])
            .unwrap();
        let upd = Dml::Update(Update {
            table: "ACCT".into(),
            alias: "t1".into(),
            set: vec![(
                "BAL".into(),
                ScalarExpr::Arith {
                    op: aldsp_xdm::value::ArithOp::Add,
                    lhs: Box::new(ScalarExpr::col("t1", "BAL")),
                    rhs: Box::new(ScalarExpr::lit(SqlValue::Int(50))),
                },
            )],
            where_: None,
        });
        d.execute_dml(&upd, &[]).unwrap();
        assert_eq!(d.table("ACCT").unwrap().rows()[0][1], SqlValue::Int(150));
    }

    #[test]
    fn a_statement_failing_halfway_changes_nothing() {
        let mut d = db();
        let before = d.table("CUSTOMER").unwrap().rows().to_vec();
        // the first row takes key 'X', the second then collides with it
        let rekey = Dml::Update(Update {
            table: "CUSTOMER".into(),
            alias: "t1".into(),
            set: vec![("CID".into(), ScalarExpr::lit(SqlValue::str("X")))],
            where_: None,
        });
        assert!(d.execute_dml(&rekey, &[]).is_err());
        let t = d.table("CUSTOMER").unwrap();
        assert_eq!(t.rows(), before);
        assert_eq!(t.lookup_pk(&[SqlValue::str("0815")]), Some(0));
        assert_eq!(t.lookup_pk(&[SqlValue::str("X")]), None);
    }

    #[test]
    fn dml_rendering() {
        let upd = Dml::Update(Update {
            table: "CUSTOMER".into(),
            alias: "t1".into(),
            set: vec![("LAST_NAME".into(), ScalarExpr::lit(SqlValue::str("Smith")))],
            where_: Some(ScalarExpr::col("t1", "CID").eq(ScalarExpr::Param(0))),
        });
        let sql = render_dml(&upd, Dialect::Oracle);
        assert_eq!(
            sql,
            "UPDATE \"CUSTOMER\" t1 SET \"LAST_NAME\" = 'Smith'\nWHERE t1.\"CID\" = ?"
        );
        let del = Dml::Delete(Delete {
            table: "T".into(),
            alias: "t1".into(),
            where_: None,
        });
        assert_eq!(render_dml(&del, Dialect::Oracle), "DELETE FROM \"T\" t1");
        let ins = Dml::Insert(Insert {
            table: "T".into(),
            values: vec![ScalarExpr::lit(SqlValue::Int(1)), ScalarExpr::Param(0)],
        });
        assert_eq!(
            render_dml(&ins, Dialect::Oracle),
            "INSERT INTO \"T\" VALUES (1, ?)"
        );
    }

    #[test]
    fn bad_dml_errors() {
        let mut d = db();
        let upd = Dml::Update(Update {
            table: "CUSTOMER".into(),
            alias: "t1".into(),
            set: vec![("NOPE".into(), ScalarExpr::lit(SqlValue::Int(1)))],
            where_: None,
        });
        assert!(d.execute_dml(&upd, &[]).is_err());
        let ins = Dml::Insert(Insert {
            table: "CUSTOMER".into(),
            values: vec![
                ScalarExpr::col("t1", "CID"),
                ScalarExpr::lit(SqlValue::Int(1)),
            ],
        });
        assert!(d.execute_dml(&ins, &[]).is_err());
    }
}
