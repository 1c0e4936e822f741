//! Workload governor: admission control, deadlines, per-source concurrency
//! caps, and per-query memory budgets.
//!
//! ALDSP sits in the middle tier between many concurrent clients and a few
//! slow, failure-prone sources (paper §2, §5). This crate rations the
//! mid-tier's resources with four cooperating mechanisms:
//!
//! * [`Governor`] — a server-wide concurrency limit with a bounded,
//!   priority-aware FIFO wait queue. When the queue is full, requests are
//!   shed immediately with [`WorkloadError::Overloaded`] instead of piling
//!   up behind a saturated server (fast rejection, graceful degradation).
//! * [`QueryBudget`] — a per-query handle carrying an optional deadline and
//!   an optional memory cap. Operators check it cooperatively at row
//!   boundaries and before each source roundtrip, so a timed-out query
//!   stops doing work mid-stream.
//! * [`SourceGates`] / [`Gate`] — a counting semaphore per physical source
//!   bounding in-flight requests; PP-k prefetch threads acquire the same
//!   permits as foreground scans. Wait time is recorded on the budget.
//! * Memory accounting — blocking operators charge bytes against the
//!   budget and abort with [`WorkloadError::BudgetExceeded`] when the cap
//!   is hit.
//!
//! The crate is a leaf: it depends only on `std`, so `relational`,
//! `adaptors`, `runtime`, and `core` can all use it without cycles.

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Scheduling class for a request. `Interactive` requests are admitted
/// ahead of any queued `Batch` request regardless of arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    #[default]
    Interactive,
    Batch,
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Priority::Interactive => write!(f, "interactive"),
            Priority::Batch => write!(f, "batch"),
        }
    }
}

/// Typed errors raised by the governor and budget machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// Admission queue was full; the request was shed without waiting.
    Overloaded { running: usize, queued: usize },
    /// The query's deadline elapsed (possibly mid-stream).
    DeadlineExceeded {
        deadline: Duration,
        elapsed: Duration,
    },
    /// A blocking operator pushed the query past its memory cap.
    BudgetExceeded {
        requested_bytes: u64,
        used_bytes: u64,
        cap_bytes: u64,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Overloaded { running, queued } => write!(
                f,
                "server overloaded: {running} queries running, {queued} queued, admission queue full"
            ),
            WorkloadError::DeadlineExceeded { deadline, elapsed } => write!(
                f,
                "deadline of {deadline:?} exceeded after {elapsed:?}"
            ),
            WorkloadError::BudgetExceeded {
                requested_bytes,
                used_bytes,
                cap_bytes,
            } => write!(
                f,
                "memory budget exceeded: {used_bytes} bytes held + {requested_bytes} requested > cap {cap_bytes}"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// QueryBudget
// ---------------------------------------------------------------------------

/// Per-query resource envelope: optional wall-clock deadline, optional
/// memory cap, and counters accumulated across every thread working on the
/// query (foreground pipeline, PP-k prefetchers, `fn-bea:async` branches).
///
/// Shared as `Arc<QueryBudget>`; all methods take `&self`.
pub struct QueryBudget {
    started: Instant,
    deadline: Option<Duration>,
    mem_cap: Option<u64>,
    mem_used: AtomicU64,
    mem_peak: AtomicU64,
    permit_wait_ns: AtomicU64,
    /// Cancellation flag guarded by a mutex so sleepers can wait on `cv`.
    cancelled: Mutex<bool>,
    cv: Condvar,
}

impl QueryBudget {
    pub fn new(deadline: Option<Duration>, mem_cap: Option<u64>) -> Self {
        QueryBudget {
            started: Instant::now(),
            deadline,
            mem_cap,
            mem_used: AtomicU64::new(0),
            mem_peak: AtomicU64::new(0),
            permit_wait_ns: AtomicU64::new(0),
            cancelled: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    /// A budget with no deadline and no memory cap (counters still work).
    pub fn unlimited() -> Self {
        QueryBudget::new(None, None)
    }

    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    pub fn mem_cap(&self) -> Option<u64> {
        self.mem_cap
    }

    /// Time left before the deadline; `None` when no deadline is set.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_sub(self.started.elapsed()))
    }

    /// Mark the query cancelled and wake any thread sleeping on this budget
    /// (simulated roundtrip latency, gate waits, admission waits).
    pub fn cancel(&self) {
        *lock(&self.cancelled) = true;
        self.cv.notify_all();
    }

    pub fn is_cancelled(&self) -> bool {
        *lock(&self.cancelled)
    }

    /// Cooperative check, called at operator row boundaries and before each
    /// source roundtrip. Converts an elapsed deadline into cancellation so
    /// sibling threads notice promptly.
    pub fn check(&self) -> Result<(), WorkloadError> {
        if let Some(d) = self.deadline {
            let elapsed = self.started.elapsed();
            if elapsed >= d || self.is_cancelled() {
                self.cancel();
                return Err(WorkloadError::DeadlineExceeded {
                    deadline: d,
                    elapsed,
                });
            }
        } else if self.is_cancelled() {
            // Explicit cancel without a deadline still stops the query.
            return Err(WorkloadError::DeadlineExceeded {
                deadline: Duration::ZERO,
                elapsed: self.started.elapsed(),
            });
        }
        Ok(())
    }

    /// Sleep for `dur`, waking early if the query is cancelled or its
    /// deadline falls inside the sleep. Returns `true` if the full duration
    /// elapsed, `false` if the sleep was interrupted (the budget is then
    /// marked cancelled when the deadline was the cause).
    pub fn bounded_sleep(&self, dur: Duration) -> bool {
        let cap = match self.remaining() {
            Some(r) if r < dur => r,
            _ => dur,
        };
        let wake = Instant::now() + cap;
        let mut cancelled = lock(&self.cancelled);
        loop {
            if *cancelled {
                return false;
            }
            let now = Instant::now();
            if now >= wake {
                break;
            }
            let (g, _) = self
                .cv
                .wait_timeout(cancelled, wake - now)
                .unwrap_or_else(PoisonError::into_inner);
            cancelled = g;
        }
        drop(cancelled);
        if cap < dur {
            // Deadline fell inside the requested sleep: the query is done for.
            self.cancel();
            return false;
        }
        true
    }

    /// Charge `bytes` of buffered state against the memory cap.
    pub fn charge(&self, bytes: u64) -> Result<(), WorkloadError> {
        let prev = self.mem_used.fetch_add(bytes, Ordering::Relaxed);
        let now = prev + bytes;
        if let Some(cap) = self.mem_cap {
            if now > cap {
                self.mem_used.fetch_sub(bytes, Ordering::Relaxed);
                return Err(WorkloadError::BudgetExceeded {
                    requested_bytes: bytes,
                    used_bytes: prev,
                    cap_bytes: cap,
                });
            }
        }
        self.mem_peak.fetch_max(now, Ordering::Relaxed);
        Ok(())
    }

    /// Return `bytes` previously charged (an operator drained its buffer).
    pub fn release(&self, bytes: u64) {
        self.mem_used.fetch_sub(bytes, Ordering::Relaxed);
    }

    pub fn used_memory_bytes(&self) -> u64 {
        self.mem_used.load(Ordering::Relaxed)
    }

    pub fn peak_memory_bytes(&self) -> u64 {
        self.mem_peak.load(Ordering::Relaxed)
    }

    /// Record time spent waiting on a source gate (any thread of the query).
    pub fn note_permit_wait(&self, ns: u64) {
        self.permit_wait_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn permit_wait_ns(&self) -> u64 {
        self.permit_wait_ns.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for QueryBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryBudget")
            .field("deadline", &self.deadline)
            .field("mem_cap", &self.mem_cap)
            .field("mem_used", &self.used_memory_bytes())
            .finish()
    }
}

impl Default for QueryBudget {
    fn default() -> Self {
        QueryBudget::unlimited()
    }
}

// ---------------------------------------------------------------------------
// Source gates: per-source counting semaphores
// ---------------------------------------------------------------------------

/// A counting semaphore bounding in-flight requests to one physical source.
pub struct Gate {
    name: String,
    cap: usize,
    in_use: Mutex<usize>,
    cv: Condvar,
}

impl Gate {
    fn new(name: &str, cap: usize) -> Arc<Gate> {
        Arc::new(Gate {
            name: name.to_string(),
            cap,
            in_use: Mutex::new(0),
            cv: Condvar::new(),
        })
    }

    /// Acquire a permit, waiting as long as the budget's deadline allows.
    /// Wait time is recorded on the budget when one is supplied.
    pub fn acquire(
        self: &Arc<Gate>,
        budget: Option<&QueryBudget>,
    ) -> Result<GatePermit, WorkloadError> {
        let t0 = Instant::now();
        let mut in_use = lock(&self.in_use);
        while *in_use >= self.cap {
            if let Some(b) = budget {
                b.check().inspect_err(|_| {
                    b.note_permit_wait(t0.elapsed().as_nanos() as u64);
                })?;
                // Wake at least by the deadline; spurious wakeups re-check.
                let chunk = b
                    .remaining()
                    .unwrap_or(Duration::from_millis(50))
                    .min(Duration::from_millis(50));
                let (g, _) = self
                    .cv
                    .wait_timeout(in_use, chunk.max(Duration::from_micros(100)))
                    .unwrap_or_else(PoisonError::into_inner);
                in_use = g;
            } else {
                in_use = self.cv.wait(in_use).unwrap_or_else(PoisonError::into_inner);
            }
        }
        *in_use += 1;
        drop(in_use);
        let waited = t0.elapsed();
        if let Some(b) = budget {
            if !waited.is_zero() {
                b.note_permit_wait(waited.as_nanos() as u64);
            }
        }
        Ok(GatePermit {
            gate: Arc::clone(self),
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn cap(&self) -> usize {
        self.cap
    }

    pub fn in_use(&self) -> usize {
        *lock(&self.in_use)
    }
}

/// RAII permit; dropping it releases the gate slot.
pub struct GatePermit {
    gate: Arc<Gate>,
}

impl Drop for GatePermit {
    fn drop(&mut self) {
        let mut in_use = lock(&self.gate.in_use);
        *in_use = in_use.saturating_sub(1);
        drop(in_use);
        self.gate.cv.notify_one();
    }
}

/// Lazily-built map of per-source gates, keyed by source (connection or
/// service) name. A cap of 0 disables gating entirely.
#[derive(Default)]
pub struct SourceGates {
    cap: AtomicUsize,
    gates: Mutex<std::collections::HashMap<String, Arc<Gate>>>,
}

impl SourceGates {
    pub fn new() -> SourceGates {
        SourceGates::default()
    }

    /// Set the per-source in-flight cap. 0 disables gating.
    pub fn set_cap(&self, cap: usize) {
        self.cap.store(cap, Ordering::Relaxed);
    }

    pub fn cap(&self) -> usize {
        self.cap.load(Ordering::Relaxed)
    }

    /// The gate for `source`, or `None` when gating is disabled.
    pub fn gate(&self, source: &str) -> Option<Arc<Gate>> {
        let cap = self.cap();
        if cap == 0 {
            return None;
        }
        let mut gates = lock(&self.gates);
        Some(Arc::clone(
            gates
                .entry(source.to_string())
                .or_insert_with(|| Gate::new(source, cap)),
        ))
    }
}

// ---------------------------------------------------------------------------
// Governor: server-wide admission control
// ---------------------------------------------------------------------------

/// Admission-control configuration. `max_concurrent == 0` disables the
/// governor (every request is admitted immediately).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GovernorConfig {
    pub max_concurrent: usize,
    pub queue_capacity: usize,
}

struct AdmissionState {
    running: usize,
    interactive: VecDeque<u64>,
    batch: VecDeque<u64>,
    next_ticket: u64,
}

impl AdmissionState {
    fn queued(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }

    fn head(&self) -> Option<u64> {
        self.interactive.front().or(self.batch.front()).copied()
    }

    fn remove(&mut self, ticket: u64) {
        self.interactive.retain(|&t| t != ticket);
        self.batch.retain(|&t| t != ticket);
    }
}

/// Monotonic counters exported by the governor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GovernorSnapshot {
    pub admitted: u64,
    pub shed: u64,
    pub running: usize,
    pub queued: usize,
    pub queue_peak: usize,
    pub admission_wait_ns: u64,
}

/// Server-wide admission controller: at most `max_concurrent` queries run;
/// up to `queue_capacity` more wait FIFO-within-priority; the rest are shed.
pub struct Governor {
    cfg: GovernorConfig,
    state: Mutex<AdmissionState>,
    cv: Condvar,
    admitted: AtomicU64,
    shed: AtomicU64,
    queue_peak: AtomicUsize,
    admission_wait_ns: AtomicU64,
}

impl Governor {
    pub fn new(cfg: GovernorConfig) -> Arc<Governor> {
        Arc::new(Governor {
            cfg,
            state: Mutex::new(AdmissionState {
                running: 0,
                interactive: VecDeque::new(),
                batch: VecDeque::new(),
                next_ticket: 0,
            }),
            cv: Condvar::new(),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            queue_peak: AtomicUsize::new(0),
            admission_wait_ns: AtomicU64::new(0),
        })
    }

    pub fn config(&self) -> GovernorConfig {
        self.cfg
    }

    pub fn enabled(&self) -> bool {
        self.cfg.max_concurrent > 0
    }

    /// Admit a request, waiting in the priority queue if the server is at
    /// its concurrency limit. Sheds immediately when the queue is full and
    /// gives up (with `DeadlineExceeded`) if the budget's deadline elapses
    /// while queued.
    pub fn admit(
        self: &Arc<Governor>,
        priority: Priority,
        budget: &QueryBudget,
    ) -> Result<AdmissionPermit, WorkloadError> {
        if !self.enabled() {
            return Ok(AdmissionPermit { gov: None });
        }
        let t0 = Instant::now();
        let mut st = lock(&self.state);
        if st.running < self.cfg.max_concurrent && st.queued() == 0 {
            st.running += 1;
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(AdmissionPermit {
                gov: Some(Arc::clone(self)),
            });
        }
        if st.queued() >= self.cfg.queue_capacity {
            let err = WorkloadError::Overloaded {
                running: st.running,
                queued: st.queued(),
            };
            drop(st);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(err);
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        match priority {
            Priority::Interactive => st.interactive.push_back(ticket),
            Priority::Batch => st.batch.push_back(ticket),
        }
        self.queue_peak.fetch_max(st.queued(), Ordering::Relaxed);
        loop {
            if st.running < self.cfg.max_concurrent && st.head() == Some(ticket) {
                st.remove(ticket);
                st.running += 1;
                drop(st);
                let waited = t0.elapsed().as_nanos() as u64;
                self.admitted.fetch_add(1, Ordering::Relaxed);
                self.admission_wait_ns.fetch_add(waited, Ordering::Relaxed);
                return Ok(AdmissionPermit {
                    gov: Some(Arc::clone(self)),
                });
            }
            if let Err(e) = budget.check() {
                st.remove(ticket);
                drop(st);
                self.cv.notify_all();
                return Err(e);
            }
            let chunk = budget
                .remaining()
                .unwrap_or(Duration::from_millis(50))
                .min(Duration::from_millis(50))
                .max(Duration::from_micros(100));
            let (g, _) = self
                .cv
                .wait_timeout(st, chunk)
                .unwrap_or_else(PoisonError::into_inner);
            st = g;
        }
    }

    fn release(&self) {
        let mut st = lock(&self.state);
        st.running = st.running.saturating_sub(1);
        drop(st);
        self.cv.notify_all();
    }

    pub fn snapshot(&self) -> GovernorSnapshot {
        let st = lock(&self.state);
        GovernorSnapshot {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            running: st.running,
            queued: st.queued(),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
            admission_wait_ns: self.admission_wait_ns.load(Ordering::Relaxed),
        }
    }
}

/// RAII admission slot; dropping it frees the slot and wakes queued waiters.
pub struct AdmissionPermit {
    gov: Option<Arc<Governor>>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        if let Some(g) = self.gov.take() {
            g.release();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn budget_deadline_trips_check() {
        let b = QueryBudget::new(Some(Duration::from_millis(5)), None);
        assert!(b.check().is_ok());
        thread::sleep(Duration::from_millis(8));
        match b.check() {
            Err(WorkloadError::DeadlineExceeded { deadline, .. }) => {
                assert_eq!(deadline, Duration::from_millis(5));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(b.is_cancelled());
    }

    #[test]
    fn bounded_sleep_wakes_at_deadline() {
        let b = QueryBudget::new(Some(Duration::from_millis(10)), None);
        let t0 = Instant::now();
        let completed = b.bounded_sleep(Duration::from_millis(200));
        assert!(!completed);
        assert!(t0.elapsed() < Duration::from_millis(100));
        assert!(b.is_cancelled());
    }

    #[test]
    fn bounded_sleep_wakes_on_cancel() {
        let b = Arc::new(QueryBudget::unlimited());
        let b2 = Arc::clone(&b);
        let h = thread::spawn(move || {
            let t0 = Instant::now();
            let completed = b2.bounded_sleep(Duration::from_secs(5));
            (completed, t0.elapsed())
        });
        thread::sleep(Duration::from_millis(10));
        b.cancel();
        let (completed, took) = h.join().unwrap();
        assert!(!completed);
        assert!(took < Duration::from_secs(1));
    }

    #[test]
    fn memory_charges_and_cap() {
        let b = QueryBudget::new(None, Some(1024));
        b.charge(1000).unwrap();
        match b.charge(100) {
            Err(WorkloadError::BudgetExceeded {
                requested_bytes,
                used_bytes,
                cap_bytes,
            }) => {
                assert_eq!(requested_bytes, 100);
                assert_eq!(used_bytes, 1000);
                assert_eq!(cap_bytes, 1024);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        b.release(1000);
        b.charge(24).unwrap();
        assert_eq!(b.peak_memory_bytes(), 1000);
    }

    #[test]
    fn gate_bounds_inflight() {
        let gates = SourceGates::new();
        gates.set_cap(2);
        let gate = gates.gate("db1").unwrap();
        let peak = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for _ in 0..6 {
                let gate = Arc::clone(&gate);
                let peak = Arc::clone(&peak);
                s.spawn(move || {
                    let _p = gate.acquire(None).unwrap();
                    let now = gate.in_use();
                    peak.fetch_max(now, Ordering::Relaxed);
                    thread::sleep(Duration::from_millis(5));
                });
            }
        });
        assert!(peak.load(Ordering::Relaxed) <= 2);
        assert_eq!(gate.in_use(), 0);
    }

    #[test]
    fn gate_wait_respects_deadline() {
        let gates = SourceGates::new();
        gates.set_cap(1);
        let gate = gates.gate("db1").unwrap();
        let _held = gate.acquire(None).unwrap();
        let b = QueryBudget::new(Some(Duration::from_millis(10)), None);
        let t0 = Instant::now();
        let r = gate.acquire(Some(&b));
        assert!(matches!(r, Err(WorkloadError::DeadlineExceeded { .. })));
        assert!(t0.elapsed() < Duration::from_millis(100));
        assert!(b.permit_wait_ns() > 0);
    }

    #[test]
    fn governor_disabled_admits_everything() {
        let gov = Governor::new(GovernorConfig::default());
        let b = QueryBudget::unlimited();
        for _ in 0..64 {
            let _p = gov.admit(Priority::Batch, &b).unwrap();
        }
        assert_eq!(gov.snapshot().shed, 0);
    }

    #[test]
    fn governor_sheds_when_queue_full() {
        let gov = Governor::new(GovernorConfig {
            max_concurrent: 1,
            queue_capacity: 0,
        });
        let b = QueryBudget::unlimited();
        let _running = gov.admit(Priority::Interactive, &b).unwrap();
        match gov.admit(Priority::Interactive, &b) {
            Err(WorkloadError::Overloaded { running, queued }) => {
                assert_eq!(running, 1);
                assert_eq!(queued, 0);
            }
            other => panic!("expected Overloaded, got {:?}", other.map(|_| ())),
        }
        let snap = gov.snapshot();
        assert_eq!(snap.admitted, 1);
        assert_eq!(snap.shed, 1);
    }

    #[test]
    fn interactive_jumps_batch_queue() {
        let gov = Governor::new(GovernorConfig {
            max_concurrent: 1,
            queue_capacity: 4,
        });
        let b = QueryBudget::unlimited();
        let slot = gov.admit(Priority::Interactive, &b).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        thread::scope(|s| {
            // Queue a batch request first…
            let g1 = Arc::clone(&gov);
            let o1 = Arc::clone(&order);
            s.spawn(move || {
                let bb = QueryBudget::unlimited();
                let _p = g1.admit(Priority::Batch, &bb).unwrap();
                lock(&o1).push("batch");
            });
            thread::sleep(Duration::from_millis(20));
            // …then an interactive one; it must be admitted first.
            let g2 = Arc::clone(&gov);
            let o2 = Arc::clone(&order);
            s.spawn(move || {
                let ib = QueryBudget::unlimited();
                let _p = g2.admit(Priority::Interactive, &ib).unwrap();
                lock(&o2).push("interactive");
                // Hold the slot long enough that "batch" can't sneak in
                // between our release and its wakeup being recorded.
                thread::sleep(Duration::from_millis(5));
            });
            thread::sleep(Duration::from_millis(20));
            drop(slot);
        });
        assert_eq!(*lock(&order), vec!["interactive", "batch"]);
    }

    #[test]
    fn queued_request_respects_deadline() {
        let gov = Governor::new(GovernorConfig {
            max_concurrent: 1,
            queue_capacity: 4,
        });
        let b = QueryBudget::unlimited();
        let _running = gov.admit(Priority::Interactive, &b).unwrap();
        let deadline = QueryBudget::new(Some(Duration::from_millis(10)), None);
        let t0 = Instant::now();
        let r = gov.admit(Priority::Interactive, &deadline);
        assert!(matches!(r, Err(WorkloadError::DeadlineExceeded { .. })));
        assert!(t0.elapsed() < Duration::from_millis(100));
        // The abandoned ticket must not wedge the queue.
        assert_eq!(gov.snapshot().queued, 0);
    }

    #[test]
    fn concurrency_limit_is_never_exceeded() {
        let gov = Governor::new(GovernorConfig {
            max_concurrent: 3,
            queue_capacity: 64,
        });
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for _ in 0..16 {
                let gov = Arc::clone(&gov);
                let running = Arc::clone(&running);
                let peak = Arc::clone(&peak);
                s.spawn(move || {
                    let b = QueryBudget::unlimited();
                    let _p = gov.admit(Priority::Interactive, &b).unwrap();
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    thread::sleep(Duration::from_millis(3));
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 3);
        assert_eq!(gov.snapshot().admitted, 16);
    }

    #[test]
    fn threads_share_one_cap() {
        // four threads of one query (foreground, prefetchers) charging
        // one budget: the cap bounds their sum, and a failed charge
        // rolls back so the others can continue
        let b = QueryBudget::new(None, Some(950));
        let trips = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for _ in 0..4 {
                let b = &b;
                let trips = Arc::clone(&trips);
                s.spawn(move || {
                    let mut held = 0;
                    for _ in 0..100 {
                        if b.charge(10).is_err() {
                            trips.fetch_add(1, Ordering::SeqCst);
                            break;
                        }
                        held += 10;
                    }
                    b.release(held);
                });
            }
        });
        // each thread alone demands 100 × 10 = 1000 bytes against a
        // 950-byte cap: however the threads interleave someone must
        // trip, the total never exceeded the cap, and every release
        // returned what was held
        assert!(trips.load(Ordering::SeqCst) >= 1);
        assert!(b.peak_memory_bytes() <= 950);
        assert_eq!(b.used_memory_bytes(), 0);
    }
}
