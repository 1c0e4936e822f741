//! The simulated relational server.
//!
//! The paper's experiments ran against real Oracle/DB2/SQL Server/Sybase
//! installations reached over JDBC; the behaviours ALDSP's query
//! processor actually depends on are (a) which SQL text the backend
//! accepts — modeled by [`Dialect`] — and (b) the *cost shape* of
//! talking to it: a per-roundtrip latency plus a per-row transfer cost.
//! [`RelationalServer`] wraps the in-memory [`Database`] with exactly
//! those: a configurable latency model, roundtrip/row counters, a SQL
//! statement log (used by the Table 1–2 goldens), availability/failure
//! injection (for `fn-bea:fail-over` / `fn-bea:timeout`, §5.6), and an
//! XA-style two-phase-commit interface (§6).

use crate::dialect::{render_select, Dialect};
use crate::dml::{render_dml, Dml};
use crate::error::SourceError;
use crate::exec::ResultSet;
use crate::sql::Select;
use crate::store::Database;
use crate::types::SqlValue;
use aldsp_workload::QueryBudget;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// The simulated cost of one interaction with the backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyModel {
    /// Fixed cost per statement execution (network + parse + plan).
    pub per_roundtrip: Duration,
    /// Incremental cost per returned row (transfer).
    pub per_row: Duration,
    /// Number of backend "slots" before the source saturates. 0 means an
    /// ideal backend whose latency is independent of load; with `n > 0`,
    /// the per-roundtrip cost is multiplied by `ceil(in_flight / n)` — a
    /// coarse processor-sharing model that makes oversubscribing a source
    /// visibly expensive (what per-source concurrency caps protect against).
    pub saturation: usize,
}

impl LatencyModel {
    /// No simulated latency (unit tests).
    pub fn none() -> LatencyModel {
        LatencyModel::default()
    }

    /// A typical LAN database: fixed per-roundtrip cost.
    pub fn lan(roundtrip_micros: u64) -> LatencyModel {
        LatencyModel {
            per_roundtrip: Duration::from_micros(roundtrip_micros),
            per_row: Duration::ZERO,
            saturation: 0,
        }
    }

    /// A LAN database that degrades past `slots` concurrent requests.
    pub fn saturating(roundtrip_micros: u64, slots: usize) -> LatencyModel {
        LatencyModel {
            per_roundtrip: Duration::from_micros(roundtrip_micros),
            per_row: Duration::ZERO,
            saturation: slots,
        }
    }
}

/// Data statistics introspected from one table — the input to the
/// mediator's cost-based join planner. Captured by scanning the current
/// store contents, so they reflect the data at introspection time, not
/// a live count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableStatistics {
    /// Rows currently in the table.
    pub row_count: u64,
    /// `(column name, distinct value count)` in declaration order.
    pub column_distinct: Vec<(String, u64)>,
}

/// Execution statistics — the observable side of the PP-k trade-off
/// (§4.2: "k trades roundtrips against middleware memory").
///
/// Counters are **monotonic** for the lifetime of the server: they only
/// ever increase, so concurrent readers can difference two snapshots to
/// get an interval's activity without coordinating with writers. The
/// statement log is the exception: it is a window, not a history.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Number of statement executions — the exact count, however few of
    /// their texts `statements` still holds.
    pub roundtrips: u64,
    /// Total rows returned.
    pub rows_returned: u64,
    /// Rows a WHERE predicate was evaluated on, by SELECTs, DML and
    /// `prepare` alike: the source-side work an access path saves. An
    /// index probe examines its candidates, a scan the table.
    pub rows_examined: u64,
    /// Total simulated latency charged across all statements, in
    /// nanoseconds. With overlapped (prefetched/parallel) access this
    /// exceeds the wall-clock time the client actually waited.
    pub latency_ns: u64,
    /// Highest number of statements simultaneously in their latency
    /// window — >1 proves the middleware overlapped source accesses.
    pub peak_inflight: u64,
    /// Rendered SQL texts in execution order: the most recent
    /// [`STATEMENT_LOG_CAP`] of them, so a long-lived server's log does
    /// not grow with its uptime.
    pub statements: Vec<String>,
}

/// How many statement texts a server retains. Every test, golden and
/// example that reads the log issues far fewer between the mark it takes
/// and the read.
pub const STATEMENT_LOG_CAP: usize = 1024;

/// The server's running statistics: [`ServerStats`] with its
/// `statements` left empty, and the log kept beside it as a ring so that
/// dropping the oldest text is O(1).
#[derive(Default)]
struct Recorded {
    stats: ServerStats,
    log: VecDeque<String>,
}

impl Recorded {
    fn statement(&mut self, sql: String) {
        self.stats.roundtrips += 1;
        if self.log.len() == STATEMENT_LOG_CAP {
            self.log.pop_front();
        }
        self.log.push_back(sql);
    }
}

/// One buffered DML statement with its positional parameters.
type PendingDml = (Dml, Vec<SqlValue>);

/// A prepared transaction: its statements, and the rows each matched
/// when phase 1 applied them.
struct Prepared {
    stmts: Vec<PendingDml>,
    matched: Vec<usize>,
}

/// When a scheduled [`Fault`] fires, measured against the server's
/// cumulative counters at the start of a SELECT roundtrip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Fire on the first roundtrip once `roundtrips >= n` (so
    /// `Roundtrips(0)` fires on the very first statement).
    Roundtrips(u64),
    /// Fire on the first roundtrip once `rows_returned >= n` — the
    /// "error after N rows" schedule of the differential harness.
    RowsReturned(u64),
}

/// What a scheduled [`Fault`] does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail this one statement with a [`SourceError::Sql`] (a transient
    /// backend error); later statements succeed.
    ErrorOnce,
    /// Sleep an extra latency spike before executing (interruptible by
    /// the query's deadline, like regular simulated latency).
    LatencySpike(Duration),
    /// Drop the connection: the server becomes unavailable (as if
    /// [`RelationalServer::set_available`]`(false)` were called) until
    /// explicitly restored.
    Disconnect,
}

/// One scheduled fault. Schedules are installed with
/// [`RelationalServer::set_faults`] and consumed as they fire — each
/// fault fires at most once. They drive the differential harness's
/// fault mode: under any schedule, a query must end in either a
/// byte-identical result or a typed error, never a silently truncated
/// or reordered stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// When the fault fires.
    pub trigger: FaultTrigger,
    /// What happens.
    pub kind: FaultKind,
}

/// A simulated relational backend.
pub struct RelationalServer {
    name: String,
    dialect: Dialect,
    db: RwLock<Database>,
    latency: RwLock<LatencyModel>,
    stats: Mutex<Recorded>,
    available: AtomicBool,
    inflight: AtomicU64,
    fail_on_prepare: AtomicBool,
    faults: Mutex<Vec<Fault>>,
    supports_xa: bool,
    next_tx: AtomicU64,
    pending: Mutex<HashMap<u64, Prepared>>,
}

impl RelationalServer {
    /// Wrap a database as a server speaking `dialect`.
    pub fn new(name: &str, dialect: Dialect, db: Database) -> RelationalServer {
        RelationalServer {
            name: name.to_string(),
            dialect,
            db: RwLock::new(db),
            latency: RwLock::new(LatencyModel::none()),
            stats: Mutex::new(Recorded::default()),
            available: AtomicBool::new(true),
            inflight: AtomicU64::new(0),
            fail_on_prepare: AtomicBool::new(false),
            faults: Mutex::new(Vec::new()),
            supports_xa: true,
            next_tx: AtomicU64::new(1),
            pending: Mutex::new(HashMap::new()),
        }
    }

    /// The connection name (ALDSP's pragma `connection` attribute, §3.2).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The vendor dialect.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// Whether this source can participate in two-phase commit (§6).
    pub fn supports_xa(&self) -> bool {
        self.supports_xa
    }

    /// Install a latency model.
    pub fn set_latency(&self, l: LatencyModel) {
        *self.latency.write() = l;
    }

    /// Mark the server (un)available — drives failover experiments.
    pub fn set_available(&self, up: bool) {
        self.available.store(up, Ordering::SeqCst);
    }

    /// Make the next `prepare` fail — drives 2PC abort tests.
    pub fn fail_next_prepare(&self) {
        self.fail_on_prepare.store(true, Ordering::SeqCst);
    }

    /// Install a fault schedule (replacing any pending one). Faults are
    /// consumed as they fire; [`RelationalServer::clear_faults`]
    /// discards whatever is left and restores availability.
    pub fn set_faults(&self, schedule: Vec<Fault>) {
        *self.faults.lock() = schedule;
    }

    /// Discard pending faults and restore availability (undoing a fired
    /// [`FaultKind::Disconnect`]).
    pub fn clear_faults(&self) {
        self.faults.lock().clear();
        self.set_available(true);
    }

    /// Check the fault schedule at the start of a SELECT roundtrip,
    /// firing (and consuming) every due fault. Latency spikes sleep
    /// here; errors and disconnects abort the statement.
    fn apply_faults(&self, budget: Option<&QueryBudget>) -> Result<(), SourceError> {
        let due: Vec<FaultKind> = {
            let mut schedule = self.faults.lock();
            if schedule.is_empty() {
                return Ok(());
            }
            let (roundtrips, rows) = {
                let s = &self.stats.lock().stats;
                (s.roundtrips, s.rows_returned)
            };
            let mut due = Vec::new();
            schedule.retain(|f| {
                let fires = match f.trigger {
                    FaultTrigger::Roundtrips(n) => roundtrips >= n,
                    FaultTrigger::RowsReturned(n) => rows >= n,
                };
                if fires {
                    due.push(f.kind);
                }
                !fires
            });
            due
        };
        for kind in due {
            match kind {
                FaultKind::ErrorOnce => {
                    return Err(SourceError::Sql(format!(
                        "injected transient error on '{}'",
                        self.name
                    )));
                }
                FaultKind::Disconnect => {
                    self.set_available(false);
                    return Err(SourceError::unavailable(&self.name));
                }
                FaultKind::LatencySpike(d) => {
                    if !Self::simulated_sleep(budget, d) {
                        return Err(SourceError::Cancelled {
                            source: self.name.clone(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Snapshot the statistics.
    pub fn stats(&self) -> ServerStats {
        let s = self.stats.lock();
        ServerStats {
            statements: s.log.iter().cloned().collect(),
            ..s.stats.clone()
        }
    }

    /// The installed latency model.
    pub fn latency(&self) -> LatencyModel {
        *self.latency.read()
    }

    /// Introspect data statistics for `table`: current row count plus a
    /// per-column distinct-value count (computed over rendered SQL
    /// literals, so `NULL` counts as one value). `None` when the table
    /// does not exist. This is the source-side half of the cost model
    /// the mediator's join planner runs on.
    pub fn table_stats(&self, table: &str) -> Option<TableStatistics> {
        self.db.read().table(table).map(|t| {
            let cols = &t.schema().columns;
            let mut distinct: Vec<std::collections::HashSet<String>> =
                vec![std::collections::HashSet::new(); cols.len()];
            for row in t.rows() {
                for (set, v) in distinct.iter_mut().zip(row.iter()) {
                    set.insert(v.sql_literal());
                }
            }
            TableStatistics {
                row_count: t.len() as u64,
                column_distinct: cols
                    .iter()
                    .zip(&distinct)
                    .map(|(c, set)| (c.name.clone(), set.len() as u64))
                    .collect(),
            }
        })
    }

    /// Direct read access to the underlying database (tests, loaders).
    pub fn with_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.db.read())
    }

    /// Direct write access to the underlying database (loaders).
    pub fn with_db_mut<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut self.db.write())
    }

    /// Sleep `dur` of simulated latency; interruptible by the query's
    /// deadline/cancellation when a budget is supplied. Returns `false`
    /// when the sleep was cut short.
    fn simulated_sleep(budget: Option<&QueryBudget>, dur: Duration) -> bool {
        match budget {
            Some(b) => b.bounded_sleep(dur),
            None => {
                std::thread::sleep(dur);
                true
            }
        }
    }

    fn charge(
        &self,
        rows: usize,
        examined: u64,
        sql: String,
        budget: Option<&QueryBudget>,
    ) -> Result<(), SourceError> {
        if !self.available.load(Ordering::SeqCst) {
            return Err(SourceError::unavailable(&self.name));
        }
        let l = *self.latency.read();
        let in_window = self.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        // Past the saturation point the backend degrades: each roundtrip
        // costs proportionally more the more requests share the source.
        let factor = if l.saturation > 0 {
            (in_window as u32).div_ceil(l.saturation as u32).max(1)
        } else {
            1
        };
        let mut charged = Duration::ZERO;
        let mut interrupted = false;
        if l.per_roundtrip > Duration::ZERO {
            let d = l.per_roundtrip * factor;
            interrupted = !Self::simulated_sleep(budget, d);
            charged += d;
        }
        if !interrupted && l.per_row > Duration::ZERO && rows > 0 {
            let d = l.per_row * rows as u32;
            interrupted = !Self::simulated_sleep(budget, d);
            charged += d;
        }
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        // The statement did reach the source, so it is logged and counted
        // even when the waiting query gave up mid-roundtrip.
        let mut s = self.stats.lock();
        s.statement(sql);
        s.stats.rows_returned += rows as u64;
        s.stats.rows_examined += examined;
        s.stats.latency_ns += charged.as_nanos() as u64;
        s.stats.peak_inflight = s.stats.peak_inflight.max(in_window);
        drop(s);
        if interrupted {
            return Err(SourceError::Cancelled {
                source: self.name.clone(),
            });
        }
        Ok(())
    }

    /// Execute a SELECT (one roundtrip).
    pub fn execute_select(
        &self,
        q: &Select,
        params: &[SqlValue],
    ) -> Result<ResultSet, SourceError> {
        self.execute_select_governed(q, params, None)
    }

    /// Execute a SELECT, charging simulated latency against `budget` so a
    /// deadline can interrupt the roundtrip mid-sleep.
    pub fn execute_select_governed(
        &self,
        q: &Select,
        params: &[SqlValue],
        budget: Option<&QueryBudget>,
    ) -> Result<ResultSet, SourceError> {
        if !self.available.load(Ordering::SeqCst) {
            return Err(SourceError::unavailable(&self.name));
        }
        self.apply_faults(budget)?;
        let (rs, examined) = self.db.read().select_examining(q, params);
        let rs = rs?;
        self.charge(
            rs.rows.len(),
            examined,
            render_select(q, self.dialect),
            budget,
        )?;
        Ok(rs)
    }

    /// Execute a single autocommitted DML statement (one roundtrip).
    pub fn execute_dml(&self, stmt: &Dml, params: &[SqlValue]) -> Result<usize, SourceError> {
        if !self.available.load(Ordering::SeqCst) {
            return Err(SourceError::unavailable(&self.name));
        }
        let (n, examined) = self.db.write().dml_examining(stmt, params);
        let n = n.map_err(SourceError::Sql)?;
        self.charge(n, examined, render_dml(stmt, self.dialect), None)?;
        Ok(n)
    }

    // ---- XA-style two-phase commit (§6) ---------------------------------

    /// Phase 1: validate the statements and buffer them. They are applied
    /// in order under the write lock, so each sees the effects of those
    /// before it, and then undone; [`RelationalServer::prepared_rows`]
    /// reports what each matched. Returns a transaction id for
    /// `commit`/`rollback`.
    pub fn prepare(&self, stmts: Vec<(Dml, Vec<SqlValue>)>) -> Result<u64, SourceError> {
        if !self.available.load(Ordering::SeqCst) {
            return Err(SourceError::unavailable(&self.name));
        }
        if self.fail_on_prepare.swap(false, Ordering::SeqCst) {
            return Err(SourceError::Tx(format!(
                "injected prepare failure on '{}'",
                self.name
            )));
        }
        let (applied, examined) = {
            let mut db = self.db.write();
            let (applied, examined) = db.apply_all(&stmts);
            let applied = applied.map(|mut a| {
                let matched = std::mem::take(&mut a.matched);
                a.undo(&mut db);
                matched
            });
            (applied, examined)
        };
        self.stats.lock().stats.rows_examined += examined;
        let matched = applied.map_err(SourceError::Sql)?;
        let tx = self.next_tx.fetch_add(1, Ordering::SeqCst);
        self.pending.lock().insert(tx, Prepared { stmts, matched });
        Ok(tx)
    }

    /// The rows each statement of prepared transaction `tx` matched in
    /// phase 1, in statement order: 0 for an UPDATE whose WHERE clause —
    /// key plus optimistic-concurrency terms — found no row. `None` when
    /// `tx` is not pending.
    pub fn prepared_rows(&self, tx: u64) -> Option<Vec<usize>> {
        self.pending.lock().get(&tx).map(|p| p.matched.clone())
    }

    /// Prepared transactions neither committed nor rolled back yet.
    pub fn pending_transactions(&self) -> usize {
        self.pending.lock().len()
    }

    /// Phase 2: apply a prepared transaction, all of it or — when a
    /// statement fails — none of it.
    pub fn commit(&self, tx: u64) -> Result<usize, SourceError> {
        let Prepared { stmts, .. } = self.pending.lock().remove(&tx).ok_or_else(|| {
            SourceError::Tx(format!("unknown transaction {tx} on '{}'", self.name))
        })?;
        let (applied, examined) = self.db.write().apply_all(&stmts);
        let mut s = self.stats.lock();
        s.stats.rows_examined += examined;
        let total = applied.map_err(SourceError::Sql)?.matched.iter().sum();
        for (stmt, _) in &stmts {
            s.statement(render_dml(stmt, self.dialect));
        }
        Ok(total)
    }

    /// Abort a prepared transaction.
    pub fn rollback(&self, tx: u64) {
        self.pending.lock().remove(&tx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableSchema;
    use crate::dml::{Delete, Update};
    use crate::sql::{ScalarExpr, TableRef};
    use crate::types::SqlType;

    fn server() -> RelationalServer {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("CUSTOMER")
                .col("CID", SqlType::Varchar)
                .col("LAST_NAME", SqlType::Varchar)
                .pk(&["CID"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert(
            "CUSTOMER",
            vec![SqlValue::str("C1"), SqlValue::str("Jones")],
        )
        .unwrap();
        RelationalServer::new("db1", Dialect::Oracle, db)
    }

    fn select_all() -> Select {
        Select::new(TableRef::table("CUSTOMER", "t1")).column(ScalarExpr::col("t1", "CID"), "c1")
    }

    #[test]
    fn select_records_stats_and_sql() {
        let s = server();
        let rs = s.execute_select(&select_all(), &[]).unwrap();
        assert_eq!(rs.rows.len(), 1);
        let st = s.stats();
        assert_eq!(st.roundtrips, 1);
        assert_eq!(st.rows_returned, 1);
        assert!(st.statements[0].starts_with("SELECT t1.\"CID\" AS c1"));
    }

    #[test]
    fn table_stats_count_rows_and_distinct_values() {
        let s = server();
        s.with_db_mut(|db| {
            db.insert(
                "CUSTOMER",
                vec![SqlValue::str("C2"), SqlValue::str("Jones")],
            )
            .unwrap();
        });
        let st = s.table_stats("CUSTOMER").unwrap();
        assert_eq!(st.row_count, 2);
        assert_eq!(
            st.column_distinct,
            vec![("CID".to_string(), 2), ("LAST_NAME".to_string(), 1)]
        );
        assert!(s.table_stats("NOPE").is_none());
    }

    #[test]
    fn unavailable_server_errors() {
        let s = server();
        s.set_available(false);
        assert!(s.execute_select(&select_all(), &[]).is_err());
        s.set_available(true);
        assert!(s.execute_select(&select_all(), &[]).is_ok());
    }

    #[test]
    fn latency_is_charged() {
        let s = server();
        s.set_latency(LatencyModel::lan(2000)); // 2ms per roundtrip
        let t0 = std::time::Instant::now();
        for _ in 0..5 {
            s.execute_select(&select_all(), &[]).unwrap();
        }
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert_eq!(s.stats().roundtrips, 5);
    }

    #[test]
    fn deadline_interrupts_simulated_latency() {
        let s = server();
        s.set_latency(LatencyModel::lan(50_000)); // 50ms per roundtrip
        let b = QueryBudget::new(Some(Duration::from_millis(10)), None);
        let t0 = std::time::Instant::now();
        let r = s.execute_select_governed(&select_all(), &[], Some(&b));
        assert!(matches!(r, Err(SourceError::Cancelled { .. })));
        assert!(
            t0.elapsed() < Duration::from_millis(40),
            "cancelled roundtrip must not pay the full simulated latency"
        );
        // The statement still reached the source.
        assert_eq!(s.stats().roundtrips, 1);
    }

    #[test]
    fn saturating_latency_degrades_under_load() {
        let s = server();
        s.set_latency(LatencyModel::saturating(5_000, 1)); // 5ms, 1 slot
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    s.execute_select(&select_all(), &[]).unwrap();
                });
            }
        });
        let st = s.stats();
        assert_eq!(st.roundtrips, 4);
        if st.peak_inflight > 1 {
            // Overlapped requests were charged a saturation multiplier.
            assert!(st.latency_ns > 4 * 5_000_000);
        }
    }

    #[test]
    fn fault_error_once_fails_one_statement_then_recovers() {
        let s = server();
        s.set_faults(vec![Fault {
            trigger: FaultTrigger::Roundtrips(1),
            kind: FaultKind::ErrorOnce,
        }]);
        assert!(s.execute_select(&select_all(), &[]).is_ok(), "before N");
        let r = s.execute_select(&select_all(), &[]);
        assert!(matches!(r, Err(SourceError::Sql(_))), "{r:?}");
        assert!(
            s.execute_select(&select_all(), &[]).is_ok(),
            "consumed after firing"
        );
    }

    #[test]
    fn fault_rows_trigger_counts_cumulative_rows() {
        let s = server();
        s.set_faults(vec![Fault {
            trigger: FaultTrigger::RowsReturned(2),
            kind: FaultKind::ErrorOnce,
        }]);
        // table has one row: trip 1 → 1 row, trip 2 → 2 rows, trip 3 fires
        assert!(s.execute_select(&select_all(), &[]).is_ok());
        assert!(s.execute_select(&select_all(), &[]).is_ok());
        assert!(s.execute_select(&select_all(), &[]).is_err());
    }

    #[test]
    fn fault_disconnect_persists_until_cleared() {
        let s = server();
        s.set_faults(vec![Fault {
            trigger: FaultTrigger::Roundtrips(0),
            kind: FaultKind::Disconnect,
        }]);
        let r = s.execute_select(&select_all(), &[]);
        assert!(matches!(r, Err(SourceError::Unavailable { .. })), "{r:?}");
        assert!(s.execute_select(&select_all(), &[]).is_err(), "still down");
        s.clear_faults();
        assert!(s.execute_select(&select_all(), &[]).is_ok());
    }

    #[test]
    fn fault_latency_spike_is_deadline_interruptible() {
        let s = server();
        s.set_faults(vec![Fault {
            trigger: FaultTrigger::Roundtrips(0),
            kind: FaultKind::LatencySpike(Duration::from_millis(50)),
        }]);
        let b = QueryBudget::new(Some(Duration::from_millis(5)), None);
        let t0 = std::time::Instant::now();
        let r = s.execute_select_governed(&select_all(), &[], Some(&b));
        assert!(matches!(r, Err(SourceError::Cancelled { .. })), "{r:?}");
        assert!(t0.elapsed() < Duration::from_millis(40));
    }

    #[test]
    fn two_phase_commit_applies_atomically() {
        let s = server();
        let upd = Dml::Update(Update {
            table: "CUSTOMER".into(),
            alias: "t1".into(),
            set: vec![("LAST_NAME".into(), ScalarExpr::lit(SqlValue::str("Smith")))],
            where_: Some(ScalarExpr::col("t1", "CID").eq(ScalarExpr::Param(0))),
        });
        let tx = s.prepare(vec![(upd, vec![SqlValue::str("C1")])]).unwrap();
        // not yet applied
        assert_eq!(
            s.with_db(|d| d.table("CUSTOMER").unwrap().rows()[0][1].clone()),
            SqlValue::str("Jones")
        );
        s.commit(tx).unwrap();
        assert_eq!(
            s.with_db(|d| d.table("CUSTOMER").unwrap().rows()[0][1].clone()),
            SqlValue::str("Smith")
        );
        assert!(s.commit(tx).is_err(), "double commit rejected");
    }

    #[test]
    fn prepare_dry_runs_and_can_fail() {
        let s = server();
        // invalid statement caught at prepare time
        let bad = Dml::Delete(Delete {
            table: "NOPE".into(),
            alias: "t1".into(),
            where_: None,
        });
        assert!(s.prepare(vec![(bad, vec![])]).is_err());
        // injected failure
        s.fail_next_prepare();
        let ok = Dml::Delete(Delete {
            table: "CUSTOMER".into(),
            alias: "t1".into(),
            where_: None,
        });
        assert!(s.prepare(vec![(ok.clone(), vec![])]).is_err());
        // next prepare succeeds and rollback discards
        let tx = s.prepare(vec![(ok, vec![])]).unwrap();
        s.rollback(tx);
        assert!(s.commit(tx).is_err());
        assert_eq!(s.with_db(|d| d.table("CUSTOMER").unwrap().len()), 1);
    }

    /// `n` customers with one order each; `ORDER.CID` is not a key.
    fn server_with(n: i64) -> RelationalServer {
        let s = server();
        s.with_db_mut(|db| {
            db.create_table(
                TableSchema::builder("ORDER")
                    .col("OID", SqlType::Integer)
                    .col("CID", SqlType::Varchar)
                    .pk(&["OID"])
                    .build()
                    .unwrap(),
            )
            .unwrap();
            for i in 0..n {
                let cid = SqlValue::str(&format!("N{i}"));
                db.insert("CUSTOMER", vec![cid.clone(), SqlValue::str("Jones")])
                    .unwrap();
                db.insert("ORDER", vec![SqlValue::Int(i), cid]).unwrap();
            }
        });
        s
    }

    #[test]
    fn point_select_by_primary_key_examines_one_row() {
        let s = server_with(10_000);
        let mut q = select_all();
        q.where_ = Some(ScalarExpr::col("t1", "CID").eq(ScalarExpr::Param(0)));
        let rs = s.execute_select(&q, &[SqlValue::str("N4711")]).unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(s.stats().rows_examined, 1);
        // without a predicate nothing is examined, however much is read
        s.execute_select(&select_all(), &[]).unwrap();
        assert_eq!(s.stats().rows_examined, 1);
    }

    #[test]
    fn ppk_block_examines_exactly_its_matches() {
        let s = server_with(10_000);
        let mut q =
            Select::new(TableRef::table("ORDER", "t1")).column(ScalarExpr::col("t1", "OID"), "c1");
        q.where_ = Some(crate::sql::ppk_block_predicate(
            &[ScalarExpr::col("t1", "CID")],
            20,
            0,
        ));
        // 18 distinct customers with an order, one of them twice, and
        // one key nobody holds
        let mut keys: Vec<SqlValue> = (0..18)
            .map(|i| SqlValue::str(&format!("N{}", i * 500)))
            .collect();
        keys.push(keys[0].clone());
        keys.push(SqlValue::str("nobody"));
        let rs = s.execute_select(&q, &keys).unwrap();
        assert_eq!(rs.rows.len(), 18);
        assert_eq!(s.stats().rows_examined, 18);
    }

    #[test]
    fn two_phase_conditioned_update_examines_two_rows() {
        let s = server_with(10_000);
        let upd = Dml::Update(Update {
            table: "CUSTOMER".into(),
            alias: "t1".into(),
            set: vec![("LAST_NAME".into(), ScalarExpr::lit(SqlValue::str("Smith")))],
            where_: Some(
                ScalarExpr::col("t1", "CID")
                    .eq(ScalarExpr::Param(0))
                    .and(ScalarExpr::col("t1", "LAST_NAME").eq(ScalarExpr::Param(1))),
            ),
        });
        let params = vec![SqlValue::str("N4711"), SqlValue::str("Jones")];
        let tx = s.prepare(vec![(upd.clone(), params.clone())]).unwrap();
        assert_eq!(s.stats().rows_examined, 1, "prepare");
        assert_eq!(s.commit(tx).unwrap(), 1);
        assert_eq!(s.stats().rows_examined, 2, "and the commit");
        // the optimistic condition no longer holds: still one row each
        let tx = s.prepare(vec![(upd, params)]).unwrap();
        assert_eq!(s.commit(tx).unwrap(), 0);
        assert_eq!(s.stats().rows_examined, 4);
    }

    /// A writer that lands between the phases makes the second statement
    /// fail at commit: the first one, already applied, is taken back.
    #[test]
    fn commit_applies_all_statements_or_none() {
        let s = server_with(3);
        let rename = Dml::Update(Update {
            table: "CUSTOMER".into(),
            alias: "t1".into(),
            set: vec![("LAST_NAME".into(), ScalarExpr::lit(SqlValue::str("Smith")))],
            where_: Some(ScalarExpr::col("t1", "CID").eq(ScalarExpr::lit(SqlValue::str("C1")))),
        });
        let insert_k = Dml::Insert(crate::dml::Insert {
            table: "CUSTOMER".into(),
            values: vec![
                ScalarExpr::lit(SqlValue::str("K")),
                ScalarExpr::lit(SqlValue::str("Kim")),
            ],
        });
        let mut by_name = select_all();
        by_name.where_ = Some(ScalarExpr::col("t1", "LAST_NAME").eq(ScalarExpr::Param(0)));
        let answers = || {
            let probe = |name: &str| {
                s.execute_select(&by_name, &[SqlValue::str(name)])
                    .unwrap()
                    .rows
            };
            let keys = s.with_db(|d| {
                let t = d.table("CUSTOMER").unwrap();
                ["C1", "N2", "K"].map(|k| t.lookup_pk(&[SqlValue::str(k)]))
            });
            (
                probe("Jones"),
                probe("Smith"),
                probe("Kim"),
                keys,
                s.with_db(|d| d.table("CUSTOMER").unwrap().rows().to_vec()),
            )
        };
        answers(); // builds the LAST_NAME index the probe then reads
        let tx = s
            .prepare(vec![(rename, vec![]), (insert_k.clone(), vec![])])
            .unwrap();
        assert_eq!(s.prepared_rows(tx), Some(vec![1, 1]));
        assert_eq!(s.execute_dml(&insert_k, &[]), Ok(1), "another writer");
        let before = answers();
        assert!(s.commit(tx).is_err(), "duplicate key K");
        assert_eq!(answers(), before);
        assert_eq!(before.0.len(), 4, "C1 is still a Jones");
        assert_eq!(s.pending_transactions(), 0);
    }

    #[test]
    fn statement_log_keeps_the_most_recent_texts() {
        let s = server();
        let numbered = |i: usize| {
            Select::new(TableRef::table("CUSTOMER", "t1"))
                .column(ScalarExpr::lit(SqlValue::Int(i as i64)), "c1")
        };
        let total = STATEMENT_LOG_CAP + 10;
        for i in 0..total {
            s.execute_select(&numbered(i), &[]).unwrap();
        }
        let st = s.stats();
        assert_eq!(st.roundtrips, total as u64, "the count stays exact");
        assert_eq!(st.statements.len(), STATEMENT_LOG_CAP);
        assert!(st.statements[0].starts_with("SELECT 10 AS c1"));
        assert!(st.statements[STATEMENT_LOG_CAP - 1]
            .starts_with(&format!("SELECT {} AS c1", total - 1)));
    }
}
