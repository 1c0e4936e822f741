//! Row storage: tables and databases.
//!
//! Tables enforce their schema on insert (arity, types, NOT NULL, primary
//! key uniqueness); the [`Database`] additionally checks foreign keys.
//! A primary-key hash index backs constraint checking, and together with
//! per-column equality indexes built on first use it is the access path
//! for the executor's equality probes ([`crate::access`]).

use crate::catalog::{Catalog, TableSchema};
use crate::types::SqlValue;
use aldsp_xdm::value::{Date, DateTime, Decimal};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// One stored row.
pub type Row = Vec<SqlValue>;

/// One component of an index key: a stored value in the form under which
/// two values hash alike exactly when [`SqlValue::compare`] calls them
/// equal. `Int` and `Dec` share the exact decimal, so an `Int` stored in
/// a DECIMAL column meets a `Dec` probe; it is held as the two halves of
/// its `i128`, whose 16-byte alignment would otherwise grow every key of
/// every index by a third. Doubles are keyed by their bits, which serves
/// primary-key uniqueness only: float equality is not bit-identity, so
/// equality probes never use a double key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum KeyPart {
    Null,
    Str(Arc<str>),
    Num(u64, u64),
    Dbl(u64),
    Date(Date),
    Timestamp(DateTime),
    Bool(bool),
}

impl KeyPart {
    pub(crate) fn of(v: &SqlValue) -> KeyPart {
        let num = |d: Decimal| KeyPart::Num((d.0 >> 64) as u64, d.0 as u64);
        match v {
            SqlValue::Null => KeyPart::Null,
            SqlValue::Str(s) => KeyPart::Str(s.clone()),
            SqlValue::Int(i) => num(Decimal::from_int(*i)),
            SqlValue::Dec(d) => num(*d),
            SqlValue::Dbl(d) => KeyPart::Dbl(d.to_bits()),
            SqlValue::Date(d) => KeyPart::Date(*d),
            SqlValue::Timestamp(t) => KeyPart::Timestamp(*t),
            SqlValue::Bool(b) => KeyPart::Bool(*b),
        }
    }
}

/// Equality index over one column: key → indices of the rows holding it,
/// ascending. NULLs are not indexed (`col = x` is never TRUE on them).
type ColumnIndex = HashMap<KeyPart, Vec<usize>>;

/// Enter row `at`, which holds `v` in the index's column, into `ix`.
fn index_value(ix: &mut ColumnIndex, v: &SqlValue, at: usize) {
    if !v.is_null() {
        let posting = ix.entry(KeyPart::of(v)).or_default();
        posting.insert(posting.partition_point(|&r| r < at), at);
    }
}

/// Take row `at`, which holds `v` in the index's column, out of `ix`.
fn unindex_value(ix: &mut ColumnIndex, v: &SqlValue, at: usize) {
    if v.is_null() {
        return;
    }
    let key = KeyPart::of(v);
    let posting = ix.get_mut(&key).expect("indexed on the way in");
    posting.retain(|&r| r != at);
    if posting.is_empty() {
        ix.remove(&key);
    }
}

/// A table: schema plus rows plus its indexes.
#[derive(Debug)]
pub struct Table {
    schema: TableSchema,
    pk_cols: Vec<usize>,
    rows: Vec<Row>,
    pk_index: HashMap<Box<[KeyPart]>, usize>,
    /// One slot per column, filled by the first probe of that column —
    /// which runs under the server's read lock, hence the `OnceLock` —
    /// and kept current by every mutation after that.
    eq_indexes: Vec<OnceLock<ColumnIndex>>,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: TableSchema) -> Table {
        Table {
            pk_cols: schema.pk_indices(),
            eq_indexes: vec![OnceLock::new(); schema.columns.len()],
            schema,
            rows: Vec::new(),
            pk_index: HashMap::new(),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The stored rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn check_row(&self, row: &Row) -> Result<(), String> {
        if row.len() != self.schema.columns.len() {
            return Err(format!(
                "table '{}': expected {} values, got {}",
                self.schema.name,
                self.schema.columns.len(),
                row.len()
            ));
        }
        for (v, c) in row.iter().zip(&self.schema.columns) {
            if v.is_null() && !c.nullable {
                return Err(format!(
                    "table '{}': column '{}' is NOT NULL",
                    self.schema.name, c.name
                ));
            }
            if !v.conforms_to(c.ty) {
                return Err(format!(
                    "table '{}': value {v} does not conform to {} {}",
                    self.schema.name, c.name, c.ty
                ));
            }
        }
        Ok(())
    }

    fn pk_key(&self, row: &Row) -> Option<Box<[KeyPart]>> {
        if self.pk_cols.is_empty() {
            return None;
        }
        Some(self.pk_cols.iter().map(|&i| KeyPart::of(&row[i])).collect())
    }

    /// Insert a row, enforcing schema and PK uniqueness.
    pub fn insert(&mut self, row: Row) -> Result<(), String> {
        self.check_row(&row)?;
        let key = self.pk_key(&row);
        if let Some(key) = key.as_ref().filter(|k| self.pk_index.contains_key(*k)) {
            return Err(format!(
                "table '{}': duplicate primary key {key:?}",
                self.schema.name
            ));
        }
        self.index_row(self.rows.len(), key, &row);
        self.rows.push(row);
        Ok(())
    }

    /// Enter `row`, about to be stored at index `at`, into the primary-key
    /// index under `key` and into every equality index built so far.
    fn index_row(&mut self, at: usize, key: Option<Box<[KeyPart]>>, row: &Row) {
        if let Some(key) = key {
            self.pk_index.insert(key, at);
        }
        for (ix, v) in self.eq_indexes.iter_mut().zip(row) {
            if let Some(ix) = ix.get_mut() {
                index_value(ix, v, at);
            }
        }
    }

    /// Look up a row index by primary-key values.
    pub fn lookup_pk(&self, key_vals: &[SqlValue]) -> Option<usize> {
        let key: Vec<KeyPart> = key_vals.iter().map(KeyPart::of).collect();
        self.pk_index.get(key.as_slice()).copied()
    }

    /// Indices, ascending, of the rows whose column `col` equals one of
    /// `keys`. Answered from the primary-key index when `col` is the
    /// whole key, otherwise from the column's equality index, which the
    /// first call builds.
    pub(crate) fn probe(&self, col: usize, keys: &[KeyPart]) -> Vec<usize> {
        let mut hits = Vec::new();
        if self.pk_cols == [col] {
            hits.extend(
                keys.iter()
                    .filter_map(|k| self.pk_index.get(std::slice::from_ref(k))),
            );
        } else {
            let index = self.eq_indexes[col].get_or_init(|| {
                let mut index = ColumnIndex::new();
                for (i, row) in self.rows.iter().enumerate() {
                    if !row[col].is_null() {
                        index.entry(KeyPart::of(&row[col])).or_default().push(i);
                    }
                }
                index
            });
            for k in keys {
                hits.extend(index.get(k).into_iter().flatten());
            }
        }
        hits.sort_unstable();
        hits.dedup();
        hits
    }

    /// The columns whose equality index has been built.
    #[cfg(test)]
    pub(crate) fn indexed_columns(&self) -> Vec<usize> {
        let built = |col: &usize| self.eq_indexes[*col].get().is_some();
        (0..self.eq_indexes.len()).filter(built).collect()
    }

    /// In-place update of row `i` (used by the DML executor), returning
    /// the row it replaced. Key changes move the row's index entries; an
    /// error leaves the table unchanged.
    pub(crate) fn replace_row(&mut self, i: usize, new: Row) -> Result<Row, String> {
        self.check_row(&new)?;
        let old_key = self.pk_key(&self.rows[i]);
        let new_key = self.pk_key(&new);
        if old_key != new_key {
            if let Some(nk) = &new_key {
                if self.pk_index.contains_key(nk) {
                    return Err(format!(
                        "table '{}': duplicate primary key after update",
                        self.schema.name
                    ));
                }
            }
            if let Some(ok) = old_key {
                self.pk_index.remove(&ok);
            }
            if let Some(nk) = new_key {
                self.pk_index.insert(nk, i);
            }
        }
        let old = std::mem::replace(&mut self.rows[i], new);
        for ((ix, was), now) in self.eq_indexes.iter_mut().zip(&old).zip(&self.rows[i]) {
            if let Some(ix) = ix.get_mut().filter(|_| was != now) {
                unindex_value(ix, was, i);
                index_value(ix, now, i);
            }
        }
        Ok(old)
    }

    /// Delete rows by indices (sorted ascending), returning them with
    /// their indices. A surviving row moves down by the number of deleted
    /// rows below it, and so does every index entry that points at it.
    pub(crate) fn delete_rows(&mut self, indices: &[usize]) -> Vec<(usize, Row)> {
        let mut at = 0;
        let removed = self
            .rows
            .extract_if(.., |_| {
                at += 1;
                indices.binary_search(&(at - 1)).is_ok()
            })
            .zip(indices.iter().copied())
            .map(|(row, i)| (i, row))
            .collect();
        self.reindex(|i| match indices.binary_search(i) {
            Ok(_) => false,
            Err(below) => {
                *i -= below;
                true
            }
        });
        removed
    }

    /// Put back the rows a [`Table::delete_rows`] returned: every row
    /// returns to its index, and the rows and index entries above it move
    /// up again.
    pub(crate) fn restore_rows(&mut self, removed: Vec<(usize, Row)>) {
        // the k-th restored row lands in front of the survivor whose
        // index is `gaps[k]` while the rows are out
        let gaps: Vec<usize> = removed
            .iter()
            .enumerate()
            .map(|(k, (i, _))| i - k)
            .collect();
        self.reindex(|i: &mut usize| {
            *i += gaps.partition_point(|&g| g <= *i);
            true
        });
        let mut survivors = std::mem::take(&mut self.rows).into_iter();
        self.rows.reserve(survivors.len() + removed.len());
        for (i, row) in removed {
            self.rows
                .extend(survivors.by_ref().take(i - self.rows.len()));
            self.index_row(i, self.pk_key(&row), &row);
            self.rows.push(row);
        }
        self.rows.extend(survivors);
    }

    /// Undo the latest [`Table::insert`]: drop the last row and its
    /// index entries.
    pub(crate) fn pop_row(&mut self) {
        let row = self.rows.pop().expect("an inserted row to take back");
        if let Some(key) = self.pk_key(&row) {
            self.pk_index.remove(&key);
        }
        for (ix, v) in self.eq_indexes.iter_mut().zip(&row) {
            if let Some(ix) = ix.get_mut() {
                unindex_value(ix, v, self.rows.len());
            }
        }
    }

    /// Renumber every index entry with `moved`, dropping the entries for
    /// which it returns false. `moved` keeps the order of the indices it
    /// keeps, so each posting stays ascending.
    fn reindex(&mut self, mut moved: impl FnMut(&mut usize) -> bool) {
        self.pk_index.retain(|_, i| moved(i));
        for ix in self.eq_indexes.iter_mut().filter_map(OnceLock::get_mut) {
            ix.retain(|_, posting| {
                posting.retain_mut(&mut moved);
                !posting.is_empty()
            });
        }
    }
}

/// An in-memory database: a catalog plus table storage. Tables are held
/// by value and written in place; a transaction that must be taken back
/// (a `prepare`, a failed `commit`) keeps an undo log of the rows it
/// wrote instead of a copy of the tables ([`Database::apply_all`]).
#[derive(Debug, Default)]
pub struct Database {
    tables: HashMap<String, Table>,
    order: Vec<String>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Create a table from a schema.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<(), String> {
        if self.tables.contains_key(&schema.name) {
            return Err(format!("table '{}' already exists", schema.name));
        }
        self.order.push(schema.name.clone());
        self.tables.insert(schema.name.clone(), Table::new(schema));
        Ok(())
    }

    /// Access a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Mutable access to a table.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name)
    }

    /// The catalog view of this database (schemas only).
    pub fn catalog(&self) -> Catalog {
        let mut c = Catalog::new();
        for name in &self.order {
            c.add(self.tables[name].schema().clone())
                .expect("names unique");
        }
        c
    }

    /// Insert a row with foreign-key checking.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<(), String> {
        // FK existence checks against current contents
        let schema = self
            .table(table)
            .ok_or_else(|| format!("no table '{table}'"))?
            .schema();
        for fk in &schema.foreign_keys {
            let vals: Vec<SqlValue> = fk
                .columns
                .iter()
                .map(|c| row[schema.column_index(c).expect("validated")].clone())
                .collect();
            if vals.iter().any(SqlValue::is_null) {
                continue; // NULL FK values are exempt per SQL
            }
            let target = self.table(&fk.ref_table).ok_or_else(|| {
                format!("foreign key references missing table '{}'", fk.ref_table)
            })?;
            // only indexable when referencing the PK, which is the
            // introspection-relevant case
            if fk.ref_columns == target.schema().primary_key {
                if target.lookup_pk(&vals).is_none() {
                    return Err(format!(
                        "foreign key violation: {table} → {}({:?})",
                        fk.ref_table, fk.ref_columns
                    ));
                }
            } else {
                let idx: Vec<usize> = fk
                    .ref_columns
                    .iter()
                    .map(|c| target.schema().column_index(c).expect("validated"))
                    .collect();
                if !target
                    .rows()
                    .iter()
                    .any(|r| idx.iter().zip(&vals).all(|(&i, v)| r[i].group_eq(v)))
                {
                    return Err(format!(
                        "foreign key violation: {table} → {}({:?})",
                        fk.ref_table, fk.ref_columns
                    ));
                }
            }
        }
        self.table_mut(table).expect("checked above").insert(row)
    }
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
                .col_null("SINCE", SqlType::Integer)
                .pk(&["CID"])
                .build()
                .unwrap(),
        )
        .unwrap();
        d.create_table(
            TableSchema::builder("ORDER")
                .col("OID", SqlType::Integer)
                .col("CID", SqlType::Varchar)
                .pk(&["OID"])
                .fk(&["CID"], "CUSTOMER", &["CID"])
                .build()
                .unwrap(),
        )
        .unwrap();
        d
    }

    #[test]
    fn insert_and_pk_lookup() {
        let mut d = db();
        d.insert(
            "CUSTOMER",
            vec![
                SqlValue::str("C1"),
                SqlValue::str("Jones"),
                SqlValue::Int(5),
            ],
        )
        .unwrap();
        d.insert(
            "CUSTOMER",
            vec![SqlValue::str("C2"), SqlValue::str("Smith"), SqlValue::Null],
        )
        .unwrap();
        let t = d.table("CUSTOMER").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup_pk(&[SqlValue::str("C2")]), Some(1));
        assert_eq!(t.lookup_pk(&[SqlValue::str("C9")]), None);
    }

    #[test]
    fn constraint_violations() {
        let mut d = db();
        d.insert(
            "CUSTOMER",
            vec![SqlValue::str("C1"), SqlValue::str("J"), SqlValue::Null],
        )
        .unwrap();
        // duplicate PK
        assert!(d
            .insert(
                "CUSTOMER",
                vec![SqlValue::str("C1"), SqlValue::str("K"), SqlValue::Null]
            )
            .is_err());
        // NOT NULL
        assert!(d
            .insert(
                "CUSTOMER",
                vec![SqlValue::str("C2"), SqlValue::Null, SqlValue::Null]
            )
            .is_err());
        // type mismatch
        assert!(d
            .insert(
                "CUSTOMER",
                vec![SqlValue::Int(3), SqlValue::str("K"), SqlValue::Null]
            )
            .is_err());
        // arity
        assert!(d.insert("CUSTOMER", vec![SqlValue::str("C3")]).is_err());
    }

    #[test]
    fn foreign_keys_enforced() {
        let mut d = db();
        d.insert(
            "CUSTOMER",
            vec![SqlValue::str("C1"), SqlValue::str("J"), SqlValue::Null],
        )
        .unwrap();
        d.insert("ORDER", vec![SqlValue::Int(1), SqlValue::str("C1")])
            .unwrap();
        assert!(d
            .insert("ORDER", vec![SqlValue::Int(2), SqlValue::str("C9")])
            .is_err());
    }

    #[test]
    fn replace_and_delete_maintain_pk_index() {
        let mut d = db();
        for i in 0..5 {
            d.insert(
                "CUSTOMER",
                vec![
                    SqlValue::str(&format!("C{i}")),
                    SqlValue::str("X"),
                    SqlValue::Null,
                ],
            )
            .unwrap();
        }
        let t = d.table_mut("CUSTOMER").unwrap();
        t.replace_row(
            1,
            vec![SqlValue::str("C1b"), SqlValue::str("Y"), SqlValue::Null],
        )
        .unwrap();
        assert_eq!(t.lookup_pk(&[SqlValue::str("C1b")]), Some(1));
        assert_eq!(t.lookup_pk(&[SqlValue::str("C1")]), None);
        // PK collision on update
        assert!(t
            .replace_row(
                2,
                vec![SqlValue::str("C1b"), SqlValue::str("Z"), SqlValue::Null]
            )
            .is_err());
        t.delete_rows(&[0, 2]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup_pk(&[SqlValue::str("C1b")]), Some(0));
        assert_eq!(t.lookup_pk(&[SqlValue::str("C4")]), Some(2));
    }

    #[test]
    fn restore_and_pop_take_writes_back() {
        let mut d = db();
        for i in 0..6 {
            let name = ["X", "Y"][i % 2];
            d.insert(
                "CUSTOMER",
                vec![
                    SqlValue::str(&format!("C{i}")),
                    SqlValue::str(name),
                    SqlValue::Null,
                ],
            )
            .unwrap();
        }
        let t = d.table_mut("CUSTOMER").unwrap();
        let by_name = |t: &Table, name: &str| t.probe(1, &[KeyPart::of(&SqlValue::str(name))]);
        assert_eq!(by_name(t, "Y"), [1, 3, 5], "builds the LAST_NAME index");
        let before = t.rows().to_vec();
        let removed = t.delete_rows(&[1, 2, 5]);
        assert_eq!(by_name(t, "Y"), [1]);
        t.restore_rows(removed);
        assert_eq!(t.rows(), before);
        assert_eq!(by_name(t, "Y"), [1, 3, 5]);
        assert_eq!(by_name(t, "X"), [0, 2, 4]);
        for (i, row) in before.iter().enumerate() {
            assert_eq!(t.lookup_pk(&row[..1]), Some(i));
        }
        t.insert(vec![
            SqlValue::str("C6"),
            SqlValue::str("Y"),
            SqlValue::Null,
        ])
        .unwrap();
        t.pop_row();
        assert_eq!(t.rows(), before);
        assert_eq!(by_name(t, "Y"), [1, 3, 5]);
        assert_eq!(t.lookup_pk(&[SqlValue::str("C6")]), None);
    }
}
