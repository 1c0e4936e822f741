//! Access-path selection: the stored rows a WHERE can possibly select.
//!
//! The mediator's point lookups, PP-k block fetches (§4.2) and keyed
//! updates all carry a top-level conjunct that pins one column to a
//! handful of values: `col = ?`, `col IN (…)`, or the disjunctive block
//! `(col = ? AND …) OR (col = ? AND …) OR …`. For those, [`candidates`]
//! returns the rows an index probe of that column leaves, and the
//! executor evaluates the whole WHERE on just them, in storage order.
//!
//! That is the scan's answer only if the scan would have rejected every
//! other row without raising. On such a row the pinned column holds
//! either a non-NULL value equal to none of the keys — the pinning term
//! is FALSE and the AND chain around it stops there, having evaluated
//! only the conjuncts ahead of it — or NULL — the term is UNKNOWN and
//! the conjuncts after it are evaluated too. So the conjuncts ahead must
//! be unable to raise, and those after as well unless the column is NOT
//! NULL; and each key must hash the way it compares. Where any of this
//! cannot be shown, `candidates` is `None` and the executor scans, so
//! rows, their order and errors are the scan's either way.
//!
//! The same pin serves a join of two base tables (`exec::pinned_join`):
//! the mediator's merged statement `CUSTOMER t1 LEFT OUTER JOIN "ORDER"
//! t_inner ON t1.CID = t_inner.CID WHERE t1.CID = ?` takes only the
//! candidate rows of its left table and finds each one's partners by
//! probing the right table's join column, where the general path hashes
//! the whole right table for every statement.

use crate::sql::ScalarExpr;
use crate::store::{KeyPart, Table};
use crate::types::{SqlType, SqlValue};
use aldsp_xdm::item::CompOp;

/// Row indices, ascending, outside which `where_` selects nothing and
/// raises nothing; `None` when only a scan can tell.
pub(crate) fn candidates(
    table: &Table,
    alias: &str,
    where_: &ScalarExpr,
    params: &[SqlValue],
) -> Option<Vec<usize>> {
    let shape = Shape {
        table,
        alias,
        params,
    };
    let (col, values) = shape.pinned(where_)?;
    let ty = table.schema().columns[col].ty;
    let mut keys = Vec::with_capacity(values.len());
    for v in values {
        let v = match v {
            ScalarExpr::Literal(v) => v,
            ScalarExpr::Param(i) => params.get(*i)?,
            _ => unreachable!("pinning terms hold literals and parameters"),
        };
        if !hashes_as_compared(ty, v) {
            return None;
        }
        keys.push(KeyPart::of(v));
    }
    Some(table.probe(col, &keys))
}

/// Does equality of `v` with a stored value of a `ty` column coincide
/// with equality of their [`KeyPart`]s? Not for NULL (never equal), not
/// for doubles (compared as floats), not across type classes (UNKNOWN).
pub(crate) fn hashes_as_compared(ty: SqlType, v: &SqlValue) -> bool {
    match v {
        SqlValue::Null | SqlValue::Dbl(_) => false,
        SqlValue::Int(_) | SqlValue::Dec(_) => matches!(ty, SqlType::Integer | SqlType::Decimal),
        _ => v.conforms_to(ty),
    }
}

/// A column with the values a term pins it to (literals and parameters).
type Pin<'e> = (usize, Vec<&'e ScalarExpr>);

struct Shape<'a> {
    table: &'a Table,
    alias: &'a str,
    params: &'a [SqlValue],
}

impl Shape<'_> {
    /// The first conjunct of the AND chain `e` that pins a column, if
    /// the chain meets the module's conditions around it.
    fn pinned<'e>(&self, e: &'e ScalarExpr) -> Option<Pin<'e>> {
        let mut conjuncts = Vec::new();
        flatten(e, false, &mut conjuncts);
        for (at, c) in conjuncts.iter().enumerate() {
            if let Some((col, values)) = self.pinning_term(c) {
                if !self.table.schema().columns[col].nullable
                    || conjuncts[at + 1..].iter().all(|c| self.cannot_raise(c))
                {
                    return Some((col, values));
                }
            }
            if !self.cannot_raise(c) {
                return None;
            }
        }
        None
    }

    fn pinning_term<'e>(&self, c: &'e ScalarExpr) -> Option<Pin<'e>> {
        let is_value = |e: &ScalarExpr| matches!(e, ScalarExpr::Literal(_) | ScalarExpr::Param(_));
        match c {
            ScalarExpr::Compare {
                op: CompOp::Eq,
                lhs,
                rhs,
            } => {
                let (col, v) = match (self.column(lhs), self.column(rhs)) {
                    (Some(col), None) => (col, rhs),
                    (None, Some(col)) => (col, lhs),
                    _ => return None,
                };
                is_value(v).then(|| (col, vec![v.as_ref()]))
            }
            ScalarExpr::InList { expr, list } => {
                let col = self.column(expr)?;
                list.iter()
                    .all(is_value)
                    .then(|| (col, list.iter().collect()))
            }
            ScalarExpr::Or(..) => {
                // every disjunct must pin the same column: then all of
                // them are FALSE (or, on NULL, UNKNOWN) off the candidates
                let mut disjuncts = Vec::new();
                flatten(c, true, &mut disjuncts);
                let mut pin: Option<Pin<'e>> = None;
                for d in disjuncts {
                    let (col, values) = self.pinned(d)?;
                    match &mut pin {
                        None => pin = Some((col, values)),
                        Some((same, all)) if *same == col => all.extend(values),
                        Some(_) => return None,
                    }
                }
                pin
            }
            _ => None,
        }
    }

    /// [`cannot_raise`] over this table's columns.
    fn cannot_raise(&self, e: &ScalarExpr) -> bool {
        cannot_raise(e, &|c| self.column(c).is_some(), self.params.len())
    }

    fn column(&self, e: &ScalarExpr) -> Option<usize> {
        match e {
            ScalarExpr::Column { table, column } if table == self.alias => {
                self.table.schema().column_index(column)
            }
            _ => None,
        }
    }
}

/// Can evaluating `e` as a predicate only yield TRUE, FALSE or UNKNOWN?
/// Deliberately narrow: comparisons and boolean connectives over the
/// columns `resolves` knows, literals and the `params` supplied
/// parameters. Arithmetic, functions, CASE and subqueries can all raise.
pub(crate) fn cannot_raise(
    e: &ScalarExpr,
    resolves: &dyn Fn(&ScalarExpr) -> bool,
    params: usize,
) -> bool {
    let plain = |e: &ScalarExpr| match e {
        ScalarExpr::Column { .. } => resolves(e),
        ScalarExpr::Literal(_) => true,
        ScalarExpr::Param(i) => *i < params,
        _ => false,
    };
    match e {
        ScalarExpr::Compare { lhs, rhs, .. } => plain(lhs) && plain(rhs),
        ScalarExpr::And(a, b) | ScalarExpr::Or(a, b) => {
            cannot_raise(a, resolves, params) && cannot_raise(b, resolves, params)
        }
        ScalarExpr::Not(a) => cannot_raise(a, resolves, params),
        ScalarExpr::IsNull(a) => plain(a),
        ScalarExpr::InList { expr, list } => plain(expr) && list.iter().all(plain),
        _ => false,
    }
}

/// The operands of a chain of ANDs (or, with `or`, of ORs), left to
/// right — the order the executor evaluates and short-circuits them in.
pub(crate) fn flatten<'e>(e: &'e ScalarExpr, or: bool, out: &mut Vec<&'e ScalarExpr>) {
    match (e, or) {
        (ScalarExpr::And(a, b), false) | (ScalarExpr::Or(a, b), true) => {
            flatten(a, or, out);
            flatten(b, or, out);
        }
        _ => out.push(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableSchema;
    use crate::dialect::Dialect;
    use crate::dml::{Delete, Dml, Insert, Update};
    use crate::exec::{scan_filter, Exec, TableEval};
    use crate::server::RelationalServer;
    use crate::sql::{ppk_block_predicate, Select, TableRef};
    use crate::store::Database;
    use aldsp_xdm::value::{ArithOp, Decimal};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    /// `T`: `ID` is the sole primary key; `K`, `AMT` and `NAME` are
    /// nullable and hold duplicates, `AMT` (DECIMAL) holds `Int`s and
    /// `Dec`s alike; `A` and `B` are NOT NULL and form the composite
    /// join key of the block shapes; `D` is a DOUBLE.
    fn schema() -> TableSchema {
        TableSchema::builder("T")
            .col("ID", SqlType::Integer)
            .col_null("K", SqlType::Integer)
            .col_null("AMT", SqlType::Decimal)
            .col_null("NAME", SqlType::Varchar)
            .col("A", SqlType::Integer)
            .col("B", SqlType::Integer)
            .col_null("D", SqlType::Double)
            .pk(&["ID"])
            .build()
            .unwrap()
    }

    fn dec(s: &str) -> SqlValue {
        SqlValue::Dec(Decimal::parse(s).unwrap())
    }

    fn random_row(rng: &mut StdRng, id: i64) -> Vec<SqlValue> {
        let nullable = |rng: &mut StdRng, v: SqlValue| {
            if rng.gen_bool(0.2) {
                SqlValue::Null
            } else {
                v
            }
        };
        let k = SqlValue::Int(rng.gen_range(0..5));
        let amt = match rng.gen_range(0..3) {
            0 => SqlValue::Int(rng.gen_range(0..4)),
            1 => dec(&format!("{}", rng.gen_range(0..4))),
            _ => dec(&format!("{}.5", rng.gen_range(0..4))),
        };
        let name = SqlValue::str(["a", "b", "c", "d"][rng.gen_range(0..4usize)]);
        let d = SqlValue::Dbl(rng.gen_range(0..4) as f64);
        vec![
            SqlValue::Int(id),
            nullable(rng, k),
            nullable(rng, amt),
            nullable(rng, name),
            SqlValue::Int(rng.gen_range(0..4)),
            SqlValue::Int(rng.gen_range(0..4)),
            nullable(rng, d),
        ]
    }

    fn random_db(rng: &mut StdRng, rows: usize) -> Database {
        let mut db = Database::new();
        db.create_table(schema()).unwrap();
        for id in 0..rows {
            db.insert("T", random_row(rng, id as i64)).unwrap();
        }
        db
    }

    fn col(c: &str) -> ScalarExpr {
        ScalarExpr::col("t1", c)
    }

    fn func(name: &str, arg: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Func {
            name: name.into(),
            args: vec![arg],
        }
    }

    fn int(i: i64) -> ScalarExpr {
        ScalarExpr::lit(SqlValue::Int(i))
    }

    /// The predicate shapes the mediator emits, each with a parameter
    /// vector, plus the ones that must make the probe stand down.
    fn predicates(rng: &mut StdRng) -> Vec<(ScalarExpr, Vec<SqlValue>)> {
        let p = ScalarExpr::Param;
        let mut small = || SqlValue::Int(rng.gen_range(0..5));
        let name_is_a = col("NAME").eq(ScalarExpr::lit(SqlValue::str("a")));
        // raises on every row it is evaluated on: LENGTH of an integer
        let raises = func("LENGTH", col("ID")).eq(int(1));
        // can raise as far as the analysis knows, never does on this data
        let upper = func("UPPER", col("NAME")).eq(ScalarExpr::lit(SqlValue::str("A")));
        vec![
            // point lookups: primary key and plain column, either way round
            (col("ID").eq(p(0)), vec![SqlValue::Int(3)]),
            (col("ID").eq(int(2)), vec![]),
            (col("K").eq(p(0)), vec![small()]),
            (p(0).eq(col("K")), vec![small()]),
            // the PP-k block, single and composite key, repeated keys
            (
                ppk_block_predicate(&[col("K")], 3, 0),
                vec![small(), small(), SqlValue::Int(1)],
            ),
            (
                ppk_block_predicate(&[col("A"), col("B")], 3, 0),
                (0..6).map(|_| small()).collect(),
            ),
            (
                ppk_block_predicate(&[col("ID")], 4, 0),
                vec![
                    SqlValue::Int(7),
                    SqlValue::Int(1),
                    SqlValue::Int(7),
                    SqlValue::Int(99),
                ],
            ),
            (
                ScalarExpr::InList {
                    expr: Box::new(col("K")),
                    list: vec![p(0), p(1), int(2)],
                },
                vec![small(), small()],
            ),
            // equality AND residual, probe conjunct first or not
            (col("K").eq(p(0)).and(name_is_a.clone()), vec![small()]),
            (name_is_a.clone().and(col("K").eq(p(0))), vec![small()]),
            (col("A").eq(p(0)).and(upper.clone()), vec![small()]),
            (col("K").eq(p(0)).and(upper.clone()), vec![small()]),
            (upper.and(col("A").eq(p(0))), vec![small()]),
            // a residual that raises, behind and ahead of the probe; with
            // a key no row holds, only the scan ever reaches it
            (col("A").eq(p(0)).and(raises.clone()), vec![small()]),
            (
                col("A").eq(p(0)).and(raises.clone()),
                vec![SqlValue::Int(99)],
            ),
            (
                col("K").eq(p(0)).and(raises.clone()),
                vec![SqlValue::Int(99)],
            ),
            (raises.clone().and(col("A").eq(p(0))), vec![small()]),
            (raises.and(col("A").eq(p(0))), vec![SqlValue::Int(99)]),
            // missing parameters
            (col("K").eq(p(5)), vec![small()]),
            (col("A").eq(p(0)).and(col("B").eq(p(7))), vec![small()]),
            (
                ppk_block_predicate(&[col("A"), col("B")], 2, 0),
                vec![small(), small(), small()],
            ),
            // keys that do not hash the way they compare
            (col("K").eq(p(0)), vec![dec("2")]),
            (col("K").eq(p(0)), vec![dec("2.5")]),
            (col("K").eq(p(0)), vec![SqlValue::Dbl(2.0)]),
            (col("K").eq(p(0)), vec![SqlValue::Null]),
            (col("K").eq(p(0)), vec![SqlValue::str("2")]),
            (col("ID").eq(p(0)), vec![SqlValue::Dbl(3.0)]),
            (col("NAME").eq(p(0)), vec![SqlValue::str("b")]),
            (col("NAME").eq(p(0)), vec![SqlValue::Int(1)]),
            (col("D").eq(p(0)), vec![SqlValue::Dbl(1.0)]),
            (col("D").eq(p(0)), vec![SqlValue::Int(1)]),
            // Int and Dec stored side by side in a DECIMAL column
            (col("AMT").eq(p(0)), vec![SqlValue::Int(2)]),
            (col("AMT").eq(p(0)), vec![dec("2")]),
            (col("AMT").eq(p(0)), vec![dec("2.5")]),
            (
                ppk_block_predicate(&[col("AMT")], 2, 0),
                vec![SqlValue::Int(1), dec("1.5")],
            ),
        ]
    }

    /// SELECT and DML row selection both agree with the full scan: same
    /// rows in the same order, or the same error.
    fn assert_equivalent(db: &Database, w: &ScalarExpr, params: &[SqlValue], what: &str) {
        let want = scan_filter(db, "T", "t1", w, params);
        let table = db.table("T").unwrap();
        let mut q = Select::new(TableRef::table("T", "t1"));
        for c in &table.schema().columns {
            q = q.column(col(&c.name), &c.name);
        }
        q.where_ = Some(w.clone());
        let got = db.execute_select(&q, params).map(|rs| rs.rows);
        let want_rows = want
            .clone()
            .map(|hits| hits.iter().map(|&i| table.rows()[i].clone()).collect());
        assert_eq!(
            got.map_err(|e| e.to_string()),
            want_rows.map_err(|e: String| crate::error::SourceError::Sql(e).to_string()),
            "SELECT, {what}: {w:?} {params:?}"
        );
        let cx = Exec::new(db, params);
        assert_eq!(
            TableEval::new(&cx, "T", "t1").unwrap().matching(Some(w)),
            want,
            "DML, {what}: {w:?} {params:?}"
        );
    }

    fn assert_all_equivalent(db: &Database, seed: u64, what: &str) {
        for (w, params) in predicates(&mut StdRng::seed_from_u64(seed)) {
            assert_equivalent(db, &w, &params, what);
        }
        // a stale index entry would cost work, not answers: for a bare
        // equality the candidates must be exactly the rows selected
        let t = db.table("T").unwrap();
        for k in 0..5 {
            let w = col("K").eq(int(k));
            assert_eq!(
                candidates(t, "t1", &w, &[]),
                scan_filter(db, "T", "t1", &w, &[]).ok(),
                "index entries of K = {k}, {what}"
            );
        }
    }

    #[test]
    fn index_or_scan_is_chosen_from_the_statement() {
        let db = random_db(&mut StdRng::seed_from_u64(1), 30);
        let t = db.table("T").unwrap();
        let probes = |w: ScalarExpr, params: &[SqlValue]| candidates(t, "t1", &w, params).is_some();
        let one = [SqlValue::Int(1)];
        let p = ScalarExpr::Param;
        let upper = func("UPPER", col("NAME")).eq(ScalarExpr::lit(SqlValue::str("A")));
        assert!(probes(col("ID").eq(p(0)), &one));
        assert!(probes(col("K").eq(p(0)), &one));
        assert!(probes(ppk_block_predicate(&[col("K")], 1, 0), &one));
        assert!(probes(
            ppk_block_predicate(&[col("A"), col("B")], 2, 0),
            &[
                one[0].clone(),
                one[0].clone(),
                one[0].clone(),
                one[0].clone()
            ]
        ));
        assert!(probes(col("AMT").eq(p(0)), &one), "Int probes DECIMAL");
        assert!(probes(col("K").eq(p(0)), &[dec("1")]), "Dec probes INTEGER");
        // a NOT NULL column shields what follows it; a nullable one does not
        assert!(probes(col("A").eq(p(0)).and(upper.clone()), &one));
        assert!(!probes(col("K").eq(p(0)).and(upper.clone()), &one));
        assert!(!probes(upper.and(col("A").eq(p(0))), &one));
        // keys that cannot be hashed, and terms that pin nothing
        assert!(!probes(col("K").eq(p(0)), &[SqlValue::Null]));
        assert!(!probes(col("K").eq(p(0)), &[SqlValue::Dbl(1.0)]));
        assert!(!probes(col("K").eq(p(0)), &[SqlValue::str("1")]));
        assert!(!probes(col("D").eq(p(0)), &[SqlValue::Dbl(1.0)]));
        assert!(!probes(col("K").eq(p(1)), &one), "missing parameter");
        assert!(!probes(col("K").eq(col("A")), &one));
        assert!(!probes(col("K").eq(p(0)).or(col("A").eq(p(0))), &one));
        assert!(!probes(ScalarExpr::col("t2", "K").eq(p(0)), &one));
    }

    #[test]
    fn probes_agree_with_the_scan_on_random_tables() {
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let rows = [0, 1, 7, 40][seed as usize % 4];
            let db = random_db(&mut rng, rows);
            assert_all_equivalent(&db, seed, &format!("seed {seed}, {rows} rows"));
        }
    }

    /// The pinned join agrees with the general join path — the same
    /// statement with its WHERE written `NOT (NOT (…))`, which pins
    /// nothing — on rows, their order and errors, for every predicate
    /// shape on the left table, inner and left outer, over ON
    /// conditions that probe, that must be verified after the probe,
    /// and that make the index path stand down.
    #[test]
    fn pinned_joins_agree_with_the_general_join_path() {
        use crate::sql::JoinKind;
        let r = |c: &str| ScalarExpr::col("t2", c);
        let ons = [
            col("K").eq(r("K")),
            r("K").eq(col("ID")),
            // Int 1 and Dec 1.0 share an index entry but not a rendering
            col("AMT").eq(r("AMT")),
            col("A").eq(r("A")).and(col("B").eq(r("B"))),
            col("NAME").eq(r("NAME")),
            col("K")
                .eq(r("K"))
                .and(r("NAME").eq(ScalarExpr::lit(SqlValue::str("a")))),
            // stand down: a residual that can raise, float keys, no equality
            col("K").eq(r("K")).and(func("LENGTH", r("ID")).eq(int(1))),
            col("D").eq(r("D")),
            ScalarExpr::Compare {
                op: CompOp::Lt,
                lhs: Box::new(col("K")),
                rhs: Box::new(r("K")),
            },
        ];
        for seed in 0..12 {
            let mut rng = StdRng::seed_from_u64(seed);
            let db = random_db(&mut rng, [1, 9, 30][seed as usize % 3]);
            let columns = &db.table("T").unwrap().schema().columns;
            for (on, kind) in ons
                .iter()
                .flat_map(|on| [(on, JoinKind::Inner), (on, JoinKind::LeftOuter)])
            {
                let from =
                    TableRef::table("T", "t1").join(kind, TableRef::table("T", "t2"), on.clone());
                let mut q = Select::new(from);
                for c in columns {
                    q = q.column(col(&c.name), &c.name);
                    q = q.column(r(&c.name), &format!("r{}", c.name));
                }
                for (w, params) in predicates(&mut StdRng::seed_from_u64(seed)) {
                    // a conjunct on the right table behind the pin, too
                    let behind = w
                        .clone()
                        .and(r("NAME").eq(ScalarExpr::lit(SqlValue::str("b"))));
                    for w in [w, behind] {
                        let mut general = q.clone();
                        general.where_ = Some(ScalarExpr::Not(Box::new(ScalarExpr::Not(
                            Box::new(w.clone()),
                        ))));
                        q.where_ = Some(w);
                        assert_eq!(
                            db.execute_select(&q, &params).map_err(|e| e.to_string()),
                            db.execute_select(&general, &params)
                                .map_err(|e| e.to_string()),
                            "seed {seed}, {kind:?} ON {on:?} WHERE {:?} {params:?}",
                            q.where_
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_pinned_join_examines_its_matches_not_the_tables() {
        use crate::sql::JoinKind;
        let mut db = Database::new();
        db.create_table(schema()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for id in 0..2_000 {
            let mut row = random_row(&mut rng, id);
            row[1] = SqlValue::Int(id / 2); // K: two rows each
            db.insert("T", row).unwrap();
        }
        let from = TableRef::table("T", "t1").join(
            JoinKind::LeftOuter,
            TableRef::table("T", "t2"),
            col("ID").eq(ScalarExpr::col("t2", "K")),
        );
        let mut q = Select::new(from).column(ScalarExpr::col("t2", "ID"), "c1");
        q.where_ = Some(col("ID").eq(ScalarExpr::Param(0)));
        let (rs, examined) = db.select_examining(&q, &[SqlValue::Int(7)]);
        assert_eq!(
            rs.unwrap().rows,
            vec![vec![SqlValue::Int(14)], vec![SqlValue::Int(15)]]
        );
        assert_eq!(examined, 2, "one WHERE evaluation per joined row");
    }

    #[test]
    fn indexes_follow_inserts_updates_and_deletes() {
        let p = ScalarExpr::Param;
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let mut db = random_db(&mut rng, 25);
            // the first pass builds every index the shapes ask for
            assert_all_equivalent(&db, seed, "before any write");
            assert_eq!(db.table("T").unwrap().indexed_columns(), [1, 2, 3, 4]);
            let mut next_id = 25;
            for step in 0..30 {
                let id = SqlValue::Int(rng.gen_range(0..next_id));
                let (stmt, params) = match rng.gen_range(0..4) {
                    0 => {
                        next_id += 1;
                        let row = random_row(&mut rng, next_id - 1);
                        let values = (0..row.len()).map(p).collect();
                        (
                            Dml::Insert(Insert {
                                table: "T".into(),
                                values,
                            }),
                            row,
                        )
                    }
                    // an indexed column changes, to a value or to NULL
                    1 => {
                        let row = random_row(&mut rng, 0);
                        (
                            Dml::Update(Update {
                                table: "T".into(),
                                alias: "t1".into(),
                                set: vec![("K".into(), p(1)), ("NAME".into(), p(2))],
                                where_: Some(col("ID").eq(p(0))),
                            }),
                            vec![id, row[1].clone(), row[3].clone()],
                        )
                    }
                    // the primary key changes
                    2 => {
                        next_id += 1;
                        (
                            Dml::Update(Update {
                                table: "T".into(),
                                alias: "t1".into(),
                                set: vec![("ID".into(), p(1))],
                                where_: Some(col("ID").eq(p(0))),
                            }),
                            vec![id, SqlValue::Int(next_id - 1)],
                        )
                    }
                    _ => (
                        Dml::Delete(Delete {
                            table: "T".into(),
                            alias: "t1".into(),
                            where_: Some(col("K").eq(p(0)).and(col("B").eq(p(1)))),
                        }),
                        vec![
                            SqlValue::Int(rng.gen_range(0..5)),
                            SqlValue::Int(rng.gen_range(0..4)),
                        ],
                    ),
                };
                db.execute_dml(&stmt, &params).unwrap();
                assert_all_equivalent(&db, seed, &format!("seed {seed} step {step}: {stmt:?}"));
            }
            assert_eq!(db.table("T").unwrap().indexed_columns(), [1, 2, 3, 4]);
        }
    }

    fn bump_k(where_: ScalarExpr) -> Dml {
        Dml::Update(Update {
            table: "T".into(),
            alias: "t1".into(),
            set: vec![(
                "K".into(),
                ScalarExpr::Arith {
                    op: ArithOp::Add,
                    lhs: Box::new(col("K")),
                    rhs: Box::new(int(1)),
                },
            )],
            where_: Some(where_),
        })
    }

    #[test]
    fn prepare_and_rollback_leave_the_live_indexes_alone() {
        let p = ScalarExpr::Param;
        let server = RelationalServer::new(
            "db",
            Dialect::Oracle,
            random_db(&mut StdRng::seed_from_u64(7), 30),
        );
        server.with_db(|db| assert_all_equivalent(db, 7, "before prepare"));
        let before = server.with_db(|db| db.table("T").unwrap().rows().to_vec());
        let stmts = vec![
            (bump_k(col("A").eq(p(0))), vec![SqlValue::Int(1)]),
            (
                Dml::Delete(Delete {
                    table: "T".into(),
                    alias: "t1".into(),
                    where_: Some(col("K").eq(p(0))),
                }),
                vec![SqlValue::Int(2)],
            ),
        ];
        let tx = server.prepare(stmts.clone()).unwrap();
        server.with_db(|db| {
            let t = db.table("T").unwrap();
            assert_eq!(
                t.rows(),
                before,
                "prepare left its writes in the live table"
            );
            assert_eq!(t.indexed_columns(), [1, 2, 3, 4], "indexes stripped");
            assert_all_equivalent(db, 7, "prepared");
        });
        server.rollback(tx);
        server.with_db(|db| {
            assert_eq!(db.table("T").unwrap().rows(), before);
            assert_all_equivalent(db, 7, "rolled back");
        });
        let tx = server.prepare(stmts).unwrap();
        server.commit(tx).unwrap();
        server.with_db(|db| {
            let t = db.table("T").unwrap();
            assert_ne!(t.rows(), before);
            assert_eq!(t.indexed_columns(), [1, 2, 3, 4]);
            assert_all_equivalent(db, 7, "committed");
        });
    }

    #[test]
    fn readers_probe_while_a_writer_commits() {
        const READERS: usize = 4;
        let p = ScalarExpr::Param;
        let server = RelationalServer::new(
            "db",
            Dialect::Oracle,
            random_db(&mut StdRng::seed_from_u64(11), 200),
        );
        let start = Barrier::new(READERS + 1);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for reader in 0..READERS {
                let (server, start, done) = (&server, &start, &done);
                scope.spawn(move || {
                    // the first reader through builds the index the rest use
                    start.wait();
                    let mut rounds = 0;
                    while rounds < 20 || !done.load(Ordering::SeqCst) {
                        let key = [SqlValue::Int((rounds + reader as i64) % 8)];
                        // one read lock over probe and reference: they
                        // must agree on whatever the writer has committed
                        server.with_db(|db| {
                            assert_equivalent(db, &col("K").eq(p(0)), &key, "concurrent");
                            assert_equivalent(db, &col("ID").eq(p(0)), &key, "concurrent");
                        });
                        rounds += 1;
                    }
                });
            }
            start.wait();
            for i in 0..50 {
                let stmt = bump_k(col("A").eq(p(0)));
                let tx = server
                    .prepare(vec![(stmt, vec![SqlValue::Int(i % 4)])])
                    .unwrap();
                server.commit(tx).unwrap();
            }
            done.store(true, Ordering::SeqCst);
        });
        server.with_db(|db| assert_all_equivalent(db, 11, "after the writer"));
    }
}
