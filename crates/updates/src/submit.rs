//! Update decomposition and submit processing (§6).
//!
//! "Each data service has a submit method … the unit of update execution
//! is a submit call." Submit examines the change log, uses the lineage
//! to decompose the changes into per-source SQL updates — "unaffected
//! data sources are not involved in the update" — conditions the
//! statements with the chosen optimistic-concurrency policy, applies
//! registered inverse functions to transformed values, and executes
//! everything as an atomic two-phase commit when every affected source
//! supports XA.

use crate::lineage::{resolve_inverse, Lineage};
use crate::sdo::{path_string, DataObject};
use aldsp_adaptors::AdaptorRegistry;
use aldsp_compiler::InverseRegistry;
use aldsp_metadata::{Registry, SourceBinding};
use aldsp_relational::{render_dml, Dml, RelationalServer, ScalarExpr, SqlType, SqlValue, Update};
use aldsp_xdm::item::Item;
use aldsp_xdm::value::AtomicValue;
use std::collections::HashMap;

/// The optimistic-concurrency options the data-service designer can
/// choose from (§6).
#[derive(Debug, Clone, PartialEq)]
pub enum ConcurrencyPolicy {
    /// "requiring all values read to still be the same": every
    /// lineage-mapped column of the affected table must match its read
    /// value.
    AllValuesRead,
    /// "requiring all values updated to still be the same": only the
    /// changed columns must match their read values (the default).
    UpdatedValues,
    /// "requiring a designated subset of the data … to still be the
    /// same": the named top-level children must match.
    Designated(Vec<String>),
    /// No verification (last writer wins).
    None,
}

/// Submit errors.
#[derive(Debug, Clone)]
pub enum SubmitError {
    /// A changed path has no writable lineage.
    NotWritable(String),
    /// The optimistic check failed at a source (0 rows matched).
    OptimisticConflict {
        /// The connection where the conflict surfaced.
        connection: String,
        /// The table.
        table: String,
    },
    /// A source refused prepare (the whole submit rolled back).
    PrepareFailed(String),
    /// Anything else.
    Other(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::NotWritable(p) => write!(f, "path {p} is not writable"),
            SubmitError::OptimisticConflict { connection, table } => write!(
                f,
                "optimistic concurrency conflict updating {table} on {connection}"
            ),
            SubmitError::PrepareFailed(s) => write!(f, "prepare failed: {s}"),
            SubmitError::Other(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One committed row change at one source: the columns written
/// (post-inverse, round-tripped through their SQL type so they compare
/// equal to what a fresh scan would return) and the primary-key values
/// identifying the row. Emitted by [`SubmitProcessor::submit`] for
/// write-through cache maintenance (`crates/matview`).
#[derive(Debug, Clone)]
pub struct SourceDelta {
    /// Source connection.
    pub connection: String,
    /// Updated table.
    pub table: String,
    /// `(column, new value)` — `None` is SQL NULL.
    pub columns: Vec<(String, Option<AtomicValue>)>,
    /// `(primary-key column, value)` identifying the updated row.
    pub key: Vec<(String, AtomicValue)>,
}

/// What a submit did.
#[derive(Debug, Clone, Default)]
pub struct SubmitReport {
    /// `(connection, rendered SQL)` in execution order.
    pub statements: Vec<(String, String)>,
    /// Total rows affected.
    pub rows_affected: usize,
    /// The connections that participated (unaffected sources stay out).
    pub sources_touched: Vec<String>,
    /// Per-row change records for cache maintenance, in statement order.
    pub deltas: Vec<SourceDelta>,
}

/// The submit processor: lineage + inverse registrations + policy.
pub struct SubmitProcessor<'a> {
    adaptors: &'a AdaptorRegistry,
    metadata: &'a Registry,
    lineage: &'a Lineage,
    inverses: &'a InverseRegistry,
    policy: ConcurrencyPolicy,
}

impl<'a> SubmitProcessor<'a> {
    /// Build a processor.
    pub fn new(
        adaptors: &'a AdaptorRegistry,
        metadata: &'a Registry,
        lineage: &'a Lineage,
        inverses: &'a InverseRegistry,
        policy: ConcurrencyPolicy,
    ) -> SubmitProcessor<'a> {
        SubmitProcessor {
            adaptors,
            metadata,
            lineage,
            inverses,
            policy,
        }
    }

    /// Decompose the object's change log into per-source updates and
    /// apply them atomically (2PC across all affected sources, §6).
    pub fn submit(&self, sdo: &DataObject) -> Result<SubmitReport, SubmitError> {
        if !sdo.is_dirty() {
            return Ok(SubmitReport::default());
        }
        // group changes by (connection, table)
        #[derive(Default)]
        struct TableUpdate {
            sets: Vec<(String, SqlValue)>,
            verify: Vec<(String, Option<SqlValue>)>,
        }
        let mut per_table: HashMap<(String, String), TableUpdate> = HashMap::new();
        for change in &sdo.change_log().changes {
            let entry = self
                .lineage
                .entry(&change.path)
                .ok_or_else(|| SubmitError::NotWritable(path_string(&change.path)))?;
            // primary-key columns are not writable through this path
            if self
                .lineage
                .keys
                .get(&(entry.connection.clone(), entry.table.clone()))
                .is_some_and(|pk| pk.iter().any(|(c, _)| *c == entry.column))
            {
                return Err(SubmitError::NotWritable(format!(
                    "{} (primary key)",
                    path_string(&change.path)
                )));
            }
            // apply the inverse transform to the new value (§4.4/§6)
            let inverse =
                resolve_inverse(self.inverses, entry).map_err(SubmitError::NotWritable)?;
            let new_value = match (&change.new, &inverse) {
                (None, _) => None,
                (Some(v), None) => Some(v.clone()),
                (Some(v), Some(inv)) => {
                    Some(self.apply_inverse(inv, v).map_err(SubmitError::Other)?)
                }
            };
            let old_value = match (&change.old, &inverse) {
                (None, _) => None,
                (Some(v), None) => Some(v.clone()),
                (Some(v), Some(inv)) => {
                    Some(self.apply_inverse(inv, v).map_err(SubmitError::Other)?)
                }
            };
            let upd = per_table
                .entry((entry.connection.clone(), entry.table.clone()))
                .or_default();
            upd.sets.push((
                entry.column.clone(),
                to_sql(new_value.as_ref()).map_err(SubmitError::Other)?,
            ));
            if self.policy == ConcurrencyPolicy::UpdatedValues {
                upd.verify.push((
                    entry.column.clone(),
                    match old_value {
                        Some(v) => Some(to_sql(Some(&v)).map_err(SubmitError::Other)?),
                        None => None,
                    },
                ));
            }
        }
        // extend verification per policy
        for ((conn, table), upd) in per_table.iter_mut() {
            match &self.policy {
                ConcurrencyPolicy::AllValuesRead => {
                    for e in &self.lineage.entries {
                        if e.connection != *conn || e.table != *table || e.inverse.is_some() {
                            continue;
                        }
                        let read = crate::sdo::locate(sdo.original(), &e.path)
                            .and_then(|n| n.typed_value());
                        upd.verify.push((
                            e.column.clone(),
                            match read {
                                Some(v) => Some(to_sql(Some(&v)).map_err(SubmitError::Other)?),
                                None => None,
                            },
                        ));
                    }
                }
                ConcurrencyPolicy::Designated(children) => {
                    for child in children {
                        let path = vec![(aldsp_xdm::QName::local(child), 0)];
                        let Some(e) = self.lineage.entry(&path) else {
                            continue;
                        };
                        if e.connection != *conn || e.table != *table {
                            continue;
                        }
                        let read =
                            crate::sdo::locate(sdo.original(), &path).and_then(|n| n.typed_value());
                        upd.verify.push((
                            e.column.clone(),
                            match read {
                                Some(v) => Some(to_sql(Some(&v)).map_err(SubmitError::Other)?),
                                None => None,
                            },
                        ));
                    }
                }
                _ => {}
            }
        }
        // build the conditioned UPDATE statements
        let mut per_source: HashMap<String, Vec<(Dml, Vec<SqlValue>)>> = HashMap::new();
        let mut report = SubmitReport::default();
        for ((conn, table), upd) in per_table {
            let pk = self
                .lineage
                .keys
                .get(&(conn.clone(), table.clone()))
                .ok_or_else(|| {
                    SubmitError::NotWritable(format!(
                        "{table}: primary key is not exposed by the lineage provider"
                    ))
                })?;
            let mut params: Vec<SqlValue> = Vec::new();
            let mut sets = Vec::with_capacity(upd.sets.len());
            let mut delta_cols = Vec::with_capacity(upd.sets.len());
            for (col, val) in upd.sets {
                delta_cols.push((col.clone(), val.to_xml()));
                params.push(val);
                sets.push((col, ScalarExpr::Param(params.len() - 1)));
            }
            // key condition from the object's exposed key values
            let mut pred: Option<ScalarExpr> = None;
            let mut delta_key = Vec::with_capacity(pk.len());
            for (col, path) in pk {
                let v = crate::sdo::locate(sdo.original(), path)
                    .and_then(|n| n.typed_value())
                    .ok_or_else(|| {
                        SubmitError::Other(format!(
                            "object is missing its key at {}",
                            path_string(path)
                        ))
                    })?;
                let sql = to_sql(Some(&v)).map_err(SubmitError::Other)?;
                if let Some(x) = sql.to_xml() {
                    delta_key.push((col.clone(), x));
                }
                params.push(sql);
                let term = ScalarExpr::col("t1", col).eq(ScalarExpr::Param(params.len() - 1));
                pred = Some(match pred {
                    Some(p) => p.and(term),
                    None => term,
                });
            }
            report.deltas.push(SourceDelta {
                connection: conn.clone(),
                table: table.clone(),
                columns: delta_cols,
                key: delta_key,
            });
            // "the sameness required is expressed as part of the where
            // clause for the update statements" (§6)
            for (col, old) in upd.verify {
                let term = match old {
                    Some(v) => {
                        params.push(v);
                        ScalarExpr::col("t1", &col).eq(ScalarExpr::Param(params.len() - 1))
                    }
                    None => ScalarExpr::IsNull(Box::new(ScalarExpr::col("t1", &col))),
                };
                pred = Some(match pred {
                    Some(p) => p.and(term),
                    None => term,
                });
            }
            let stmt = Dml::Update(Update {
                table: table.clone(),
                alias: "t1".into(),
                set: sets,
                where_: pred,
            });
            per_source.entry(conn).or_default().push((stmt, params));
        }
        // two-phase commit across the affected sources (§6)
        let mut order: Vec<&String> = per_source.keys().collect();
        order.sort();
        let mut sources = Vec::with_capacity(order.len());
        for &conn in &order {
            let server = self
                .adaptors
                .connection(conn)
                .map_err(|e| SubmitError::Other(e.to_string()))?;
            if !server.supports_xa() && order.len() > 1 {
                return Err(SubmitError::Other(format!(
                    "source '{conn}' cannot participate in a multi-source transaction"
                )));
            }
            sources.push((conn, server));
        }
        let mut prepared: Vec<(&String, &RelationalServer, u64)> = Vec::new();
        for (conn, server) in sources {
            let stmts = &per_source[conn];
            let tx = match server.prepare(stmts.clone()) {
                Ok(tx) => tx,
                Err(e) => {
                    rollback(&prepared);
                    return Err(SubmitError::PrepareFailed(e.to_string()));
                }
            };
            prepared.push((conn, server, tx));
            // every statement is conditioned on the object's key and read
            // values: one that matched no row is an optimistic conflict,
            // known here, before any source commits
            let matched = server.prepared_rows(tx).unwrap_or_default();
            if let Some(k) = matched.iter().position(|&n| n == 0) {
                rollback(&prepared);
                return Err(SubmitError::OptimisticConflict {
                    connection: conn.clone(),
                    table: stmts[k].0.table().to_string(),
                });
            }
        }
        for (i, &(conn, server, tx)) in prepared.iter().enumerate() {
            let n = match server.commit(tx) {
                Ok(n) if n > 0 => n,
                failed => {
                    rollback(&prepared[i + 1..]);
                    return Err(match failed {
                        // a writer changed the rows between the phases
                        Ok(_) => SubmitError::OptimisticConflict {
                            connection: conn.clone(),
                            table: per_source[conn][0].0.table().to_string(),
                        },
                        Err(e) => SubmitError::Other(e.to_string()),
                    });
                }
            };
            report.rows_affected += n;
            for (stmt, _) in &per_source[conn] {
                report
                    .statements
                    .push((conn.clone(), render_dml(stmt, server.dialect())));
            }
            report.sources_touched.push(conn.clone());
        }
        Ok(report)
    }

    fn apply_inverse(
        &self,
        inv: &aldsp_xdm::QName,
        v: &AtomicValue,
    ) -> Result<AtomicValue, String> {
        // inverse functions are registered library natives (§4.4)
        let f = self
            .metadata
            .function(inv)
            .ok_or_else(|| format!("unknown inverse function {inv}"))?;
        let SourceBinding::Native { id } = &f.source else {
            return Err(format!("inverse {inv} is not a native library function"));
        };
        let native = self.adaptors.native(id).map_err(|e| e.to_string())?;
        let result = native
            .call(&[vec![Item::Atomic(v.clone())]])
            .map_err(|e| e.to_string())?;
        match result.as_slice() {
            [Item::Atomic(out)] => Ok(out.clone()),
            other => Err(format!(
                "inverse {inv} returned {} items instead of one",
                other.len()
            )),
        }
    }
}

/// Abort transactions prepared at their sources.
fn rollback(prepared: &[(&String, &RelationalServer, u64)]) {
    for (_, server, tx) in prepared {
        server.rollback(*tx);
    }
}

fn to_sql(v: Option<&AtomicValue>) -> Result<SqlValue, String> {
    let ty = v
        .and_then(|x| SqlType::from_xml_type(x.type_of()))
        .unwrap_or(SqlType::Varchar);
    SqlValue::from_xml(v, ty)
}
