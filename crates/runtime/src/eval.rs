//! The plan interpreter (§5).
//!
//! Evaluates the compiler's optimized expression tree. FLWOR clause
//! lists run as a *streaming tuple pipeline* (iterators of environments
//! — the token-iterator discipline of §5.2 at IR granularity), with the
//! operators the paper adds for data-centric use:
//!
//! * [`Clause::SqlFor`] — executes generated SQL through the adaptor
//!   layer; with a [`PpkSpec`] it runs the **PP-k** distributed join
//!   (§4.2): k outer tuples per block, one disjunctive parameterized
//!   fetch per block, local nested-loop or index-nested-loop join;
//! * the single **group operator** (§5.2): streaming over pre-clustered
//!   input, sorting first otherwise;
//! * `fn-bea:async` (§5.4) — sibling async calls evaluate concurrently;
//! * `fn-bea:timeout` / `fn-bea:fail-over` (§5.6);
//! * the function cache (§5.5) wraps physical calls.

use crate::cache::FunctionCache;
use crate::env::Env;
use crate::stats::ExecStats;
use crate::trace::{NodeTrace, TraceCollector, TraceKey, TraceLevel};
use crate::vm::{atomize_first_val, single_integer_val, ExprVM, Val};
use aldsp_adaptors::{AdaptorError, AdaptorRegistry};
use aldsp_compiler::frames::FrameLayout;
use aldsp_compiler::ir::{Builtin, CExpr, CKind, Clause, LocalJoinMethod, OrderSpec, PpkSpec};
use aldsp_compiler::joins::{JoinMark, JoinPlan};
use aldsp_compiler::program::{Program, ProgramSet};
use aldsp_compiler::CompiledQuery;
use aldsp_metadata::Registry;
use aldsp_relational::{ppk_block_predicate, ResultSet, Select, SqlType, SqlValue};
use aldsp_workload::{QueryBudget, WorkloadError};
use aldsp_xdm::item::{
    arithmetic, atomize, effective_boolean_value, general_compare, value_compare, Item, Sequence,
};
use aldsp_xdm::node::{Node, NodeKind, NodeRef};
use aldsp_xdm::value::{AtomicType, AtomicValue};
use aldsp_xdm::{QName, XdmError};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Runtime errors.
#[derive(Debug, Clone)]
pub enum RtError {
    /// A data-model error (type match, cast, comparison…).
    Xdm(XdmError),
    /// A source-access error.
    Adaptor(AdaptorError),
    /// A malformed or unexecutable plan.
    Plan(String),
    /// A workload-governance limit was hit (deadline, memory budget).
    Workload(WorkloadError),
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::Xdm(e) => write!(f, "{e}"),
            RtError::Adaptor(e) => write!(f, "{e}"),
            RtError::Plan(s) => write!(f, "plan error: {s}"),
            RtError::Workload(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RtError {}

impl From<XdmError> for RtError {
    fn from(e: XdmError) -> RtError {
        RtError::Xdm(e)
    }
}

impl From<AdaptorError> for RtError {
    fn from(e: AdaptorError) -> RtError {
        RtError::Adaptor(e)
    }
}

impl From<WorkloadError> for RtError {
    fn from(e: WorkloadError) -> RtError {
        RtError::Workload(e)
    }
}

/// Result alias.
pub type RtResult<T> = Result<T, RtError>;

/// Shared runtime state (wrapped in `Arc` so async/timeout evaluation
/// can move to detached threads).
pub struct RuntimeInner {
    /// Source metadata.
    pub metadata: Arc<Registry>,
    /// Live adaptors.
    pub adaptors: Arc<AdaptorRegistry>,
    /// The mid-tier function cache (§5.5).
    pub cache: FunctionCache,
    /// Execution counters.
    pub stats: ExecStats,
}

/// Per-execution context threaded through the interpreter: the shared
/// runtime plus this execution's own stat counters and (optional) trace
/// sink. Cloning is cheap (three `Arc`s), which is how async / timeout /
/// prefetch threads carry the context with them.
#[derive(Clone)]
pub struct ExecCtx {
    /// Shared runtime state.
    pub rt: Arc<RuntimeInner>,
    /// Per-execution counters: every event lands here *and* in the
    /// global `rt.stats` aggregate, so a snapshot of `local` is this
    /// query's exact delta regardless of concurrent queries.
    pub local: Arc<ExecStats>,
    /// Per-operator trace sink; `None` when tracing is off (the
    /// untraced path pays only this branch).
    pub trace: Option<Arc<TraceCollector>>,
    /// Workload budget (deadline, memory cap); `None` for ungoverned
    /// executions. Shared by every thread of the query, so PP-k prefetch
    /// and async threads observe cancellation and charge the same caps.
    pub budget: Option<Arc<QueryBudget>>,
    /// The executing plan's slot assignment: binder names resolve to
    /// frame slots once, when a pipeline is constructed — never per
    /// tuple.
    pub frame: Arc<FrameLayout>,
    /// The executing plan's compiled expression programs, keyed by
    /// subtree-root `node_id` (empty when the plan was compiled with
    /// the VM disabled).
    pub programs: Arc<ProgramSet>,
    /// The executing plan's middleware-join decisions (empty when the
    /// plan predates the join-planning pass or was built by hand; every
    /// unmarked `SqlFor` runs as a nested-loop probe).
    pub joins: Arc<JoinPlan>,
    /// Per-buffered-tuple memory charge, precomputed from the frame
    /// width (a wider tuple frame holds more state per buffered row).
    tuple_mem: u64,
}

impl ExecCtx {
    /// The per-execution context for running `plan` under `req`: the
    /// plan's frame layout, programs and join decisions, plus the
    /// request's trace sink and budget. The plan's fallback-subtree
    /// count is a static property, so it is recorded here once per
    /// execution rather than re-counted while running.
    pub fn for_plan(
        rt: Arc<RuntimeInner>,
        plan: &CompiledQuery,
        req: &crate::ExecRequest<'_>,
    ) -> ExecCtx {
        let cx = ExecCtx {
            rt,
            local: Arc::new(ExecStats::default()),
            trace: match req.trace {
                TraceLevel::Off => None,
                TraceLevel::Operators => Some(Arc::new(TraceCollector::default())),
            },
            budget: req.budget.clone(),
            frame: Arc::clone(&plan.frame),
            programs: Arc::clone(&plan.programs),
            joins: Arc::clone(&plan.joins),
            // a wider tuple frame holds more state per buffered row
            tuple_mem: TUPLE_MEM_BYTES + 8 * u64::from(plan.frame.width()),
        };
        if plan.programs.fallback_subtrees > 0 {
            cx.add(
                |s| &s.vm_fallback_subtrees,
                u64::from(plan.programs.fallback_subtrees),
            );
        }
        cx
    }

    /// Resolve a clause binder to its frame slot. Binders always have a
    /// slot when the plan went through the frame-layout pass; a miss
    /// means the plan was built by hand or predates the pass.
    fn slot_of(&self, name: &str) -> RtResult<u32> {
        self.frame
            .slot(name)
            .ok_or_else(|| RtError::Plan(format!("no frame slot for binder ${name}")))
    }

    /// Cooperative budget check (row boundaries, before roundtrips).
    fn check_budget(&self) -> RtResult<()> {
        if let Some(b) = &self.budget {
            b.check()?;
        }
        Ok(())
    }

    /// Charge buffered-operator memory against the budget.
    fn charge_mem(&self, bytes: u64) -> RtResult<()> {
        if let Some(b) = &self.budget {
            b.charge(bytes)?;
        }
        Ok(())
    }

    /// Return memory previously charged with [`Self::charge_mem`].
    fn release_mem(&self, bytes: u64) {
        if let Some(b) = &self.budget {
            b.release(bytes);
        }
    }

    /// Bump a counter on both the global aggregate and this execution.
    fn inc(&self, f: impl Fn(&ExecStats) -> &std::sync::atomic::AtomicU64) {
        self.rt.stats.inc(f(&self.rt.stats));
        self.local.inc(f(&self.local));
    }

    /// Add to a counter on both the global aggregate and this execution.
    fn add(&self, f: impl Fn(&ExecStats) -> &std::sync::atomic::AtomicU64, n: u64) {
        f(&self.rt.stats).fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        f(&self.local).fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }

    /// Raise a high-water mark on both scopes.
    fn peak(&self, f: impl Fn(&ExecStats) -> &std::sync::atomic::AtomicU64, v: u64) {
        self.rt.stats.peak(f(&self.rt.stats), v);
        self.local.peak(f(&self.local), v);
    }

    /// Merge a trace delta for `key`, when tracing is on.
    fn trace_record(&self, key: Option<TraceKey>, delta: NodeTrace) {
        if let (Some(sink), Some(key)) = (&self.trace, key) {
            sink.record(key, delta);
        }
    }

    /// Count one source roundtrip against a traced operator.
    fn trace_roundtrip(&self, key: Option<TraceKey>) {
        self.trace_record(
            key,
            NodeTrace {
                source_roundtrips: 1,
                ..Default::default()
            },
        );
    }
}

type TupleIter<'a> = Box<dyn Iterator<Item = RtResult<Env>> + 'a>;

/// The one spelling of the unbound-variable plan error, for the
/// walker's `Var` arm and the VM's `var` op alike.
pub(crate) fn unbound_variable(name: &str) -> RtError {
    RtError::Plan(format!("unbound variable ${name}"))
}

/// `fn:data` is idempotent, so `data(data(x))` ≡ `data(x)`: helpers that
/// atomize their operand anyway can skip interposed `Data` nodes (and
/// their per-call result vectors) entirely.
fn skip_data(mut e: &CExpr) -> &CExpr {
    while let CKind::Data(inner) = &e.kind {
        e = inner;
    }
    e
}

std::thread_local! {
    /// The generic `eval` probe's VM. Program ops never re-enter
    /// `eval` (uncovered shapes are not lowered), so the borrow is
    /// never already held when a probe fires.
    static PROBE_VM: std::cell::RefCell<ExprVM> = std::cell::RefCell::new(ExprVM::new());
}

/// Run a compiled program from the generic `eval` probe. Hot clause
/// sites (where/let/keys) own their VM and batch their op counts; this
/// path serves the long tail (return expressions, SQL parameters,
/// quantifier bodies), so a per-call stats flush is acceptable.
fn run_probe(cx: &ExecCtx, prog: &Program, env: &Env) -> RtResult<Val> {
    PROBE_VM.with(|vm| {
        let mut ops = 0u64;
        let r = vm.borrow_mut().run(prog, env, &mut ops);
        cx.add(|s| &s.vm_ops_executed, ops);
        r
    })
}

/// One scalar expression a clause evaluates per tuple — a `let` value,
/// a `where` condition, an order or group key: the expression, its
/// compiled program when lowering covered it, and the clause-owned VM
/// (reusable stack, executed-op count and, only when traced, VM wall
/// time — both flushed once on drop, never per tuple). [`Self::eval`]
/// is the only place a clause chooses between VM and walker.
struct ScalarSite<'a> {
    cx: &'a ExecCtx,
    tkey: Option<TraceKey>,
    expr: &'a CExpr,
    prog: Option<Arc<Program>>,
    vm: ExprVM,
    ops: u64,
    ns: u64,
}

impl<'a> ScalarSite<'a> {
    fn new(cx: &'a ExecCtx, tkey: Option<TraceKey>, expr: &'a CExpr) -> ScalarSite<'a> {
        ScalarSite {
            cx,
            tkey,
            expr,
            prog: cx.programs.lookup(expr.node_id).cloned(),
            vm: ExprVM::new(),
            ops: 0,
            ns: 0,
        }
    }

    /// The untraced compiled path pays a single `tkey.is_some()` branch
    /// per run.
    #[inline]
    fn eval(&mut self, env: &Env) -> RtResult<Val> {
        let Some(prog) = &self.prog else {
            return eval(self.cx, self.expr, env);
        };
        if self.tkey.is_some() {
            let t0 = std::time::Instant::now();
            let r = self.vm.run(prog, env, &mut self.ops);
            self.ns += t0.elapsed().as_nanos() as u64;
            r
        } else {
            self.vm.run(prog, env, &mut self.ops)
        }
    }
}

impl Drop for ScalarSite<'_> {
    fn drop(&mut self) {
        if self.ops > 0 {
            self.cx.add(|s| &s.vm_ops_executed, self.ops);
        }
        if self.ns > 0 {
            self.cx.trace_record(
                self.tkey,
                NodeTrace {
                    vm_ns: self.ns,
                    ..Default::default()
                },
            );
        }
    }
}

/// A constant positional predicate (`$x[3]`) is a direct index: item
/// `n` (1-based) or nothing. Shared by the tree-walker's `Filter` arm
/// and the VM's `PickConst` op, so both paths are one code path.
pub(crate) fn pick_const_positional(v: &[Item], n: i64) -> Option<Item> {
    usize::try_from(n)
        .ok()
        .filter(|&n| n >= 1)
        .and_then(|n| v.get(n - 1))
        .cloned()
}

/// Evaluate an expression to a sequence value.
pub fn eval(cx: &ExecCtx, e: &CExpr, env: &Env) -> RtResult<Val> {
    // the compile-once/execute-many fast path: subtrees the program
    // lowering covered run on the VM, everything else walks the tree
    if let Some(prog) = cx.programs.lookup(e.node_id) {
        return run_probe(cx, prog, env);
    }
    match &e.kind {
        CKind::Const(v) => Ok(Val::One(Item::Atomic(v.clone()))),
        CKind::Var { name, slot } => env.slot_value(*slot).ok_or_else(|| unbound_variable(name)),
        CKind::Seq(parts) => eval_sequence(cx, parts, env),
        CKind::Range(a, b) => {
            let lo = single_integer_val(&eval(cx, a, env)?)?;
            let hi = single_integer_val(&eval(cx, b, env)?)?;
            match (lo, hi) {
                (Some(lo), Some(hi)) if lo <= hi => Ok(Val::of((lo..=hi).map(Item::int).collect())),
                _ => Ok(Val::Empty),
            }
        }
        CKind::Flwor { clauses, ret } => {
            let mut out = Vec::new();
            for tuple in flwor_tuples(cx, e.node_id, clauses, env) {
                eval(cx, ret, &tuple?)?.append_to(&mut out);
            }
            Ok(Val::of(out))
        }
        CKind::If { cond, then, els } => {
            if effective_boolean_value(eval(cx, cond, env)?.as_slice())? {
                eval(cx, then, env)
            } else {
                eval(cx, els, env)
            }
        }
        CKind::Quantified {
            every,
            var,
            source,
            satisfies,
        } => {
            let domain = eval(cx, source, env)?;
            let slot = cx.slot_of(var)?;
            for item in domain.as_slice() {
                let benv = env.bind_slot(slot, Val::One(item.clone()));
                let holds = effective_boolean_value(eval(cx, satisfies, &benv)?.as_slice())?;
                // `every` ends on the first false, `some` on the first true
                if holds != *every {
                    return Ok(Val::bool(holds));
                }
            }
            Ok(Val::bool(*every))
        }
        CKind::Typeswitch {
            operand,
            cases,
            default,
        } => {
            let value = eval(cx, operand, env)?;
            let (var, body) = cases
                .iter()
                .find(|(ty, _, _)| ty.matches(value.as_slice()))
                .map_or((&default.0, &default.1), |(_, var, body)| (var, body));
            eval(cx, body, &env.bind_slot(cx.slot_of(var)?, value))
        }
        CKind::And(a, b) => Ok(Val::bool(
            effective_boolean_value(eval(cx, a, env)?.as_slice())?
                && effective_boolean_value(eval(cx, b, env)?.as_slice())?,
        )),
        CKind::Or(a, b) => Ok(Val::bool(
            effective_boolean_value(eval(cx, a, env)?.as_slice())?
                || effective_boolean_value(eval(cx, b, env)?.as_slice())?,
        )),
        CKind::Compare {
            op,
            general,
            lhs,
            rhs,
        } => {
            let l = eval(cx, lhs, env)?;
            let r = eval(cx, rhs, env)?;
            if *general {
                Ok(Val::bool(general_compare(l.as_slice(), *op, r.as_slice())?))
            } else {
                Ok(value_compare(l.as_slice(), *op, r.as_slice())?.map_or(Val::Empty, Val::bool))
            }
        }
        CKind::Arith { op, lhs, rhs } => {
            let l = eval(cx, lhs, env)?;
            let r = eval(cx, rhs, env)?;
            Ok(arithmetic(l.as_slice(), *op, r.as_slice())?
                .map_or(Val::Empty, |v| Val::One(Item::Atomic(v))))
        }
        CKind::Data(inner) => {
            let v = eval(cx, inner, env)?;
            Ok(Val::of(
                atomize(v.as_slice())
                    .into_iter()
                    .map(Item::Atomic)
                    .collect(),
            ))
        }
        CKind::ChildStep { input, name } => {
            let v = eval(cx, input, env)?;
            let mut out = Vec::new();
            for item in v.as_slice() {
                if let Item::Node(n) = item {
                    match name {
                        Some(q) => out.extend(n.child_elements(q).cloned().map(Item::Node)),
                        None => out.extend(n.all_child_elements().cloned().map(Item::Node)),
                    }
                }
            }
            Ok(Val::of(out))
        }
        CKind::AttrStep { input, name } => {
            let v = eval(cx, input, env)?;
            let mut out = Vec::new();
            for item in v.as_slice() {
                if let Item::Node(n) = item {
                    match name {
                        Some(q) => {
                            if let Some(a) = n.attribute_named(q) {
                                out.push(Item::Node(a.clone()));
                            }
                        }
                        None => out.extend(n.attributes().iter().cloned().map(Item::Node)),
                    }
                }
            }
            Ok(Val::of(out))
        }
        CKind::DescendantStep { input } => {
            let v = eval(cx, input, env)?;
            let mut out = Vec::new();
            for item in v.as_slice() {
                if let Item::Node(n) = item {
                    descend(n, &mut out);
                }
            }
            Ok(Val::of(out))
        }
        CKind::Filter {
            input,
            predicate,
            ctx_var,
            positional,
        } => {
            let v = eval(cx, input, env)?;
            // a constant positional predicate (`$x[3]`) is a direct
            // index — no per-item context binding or predicate eval;
            // same helper the VM's PickConst op lowers to
            if *positional {
                if let CKind::Const(c) = &predicate.kind {
                    if let Ok(AtomicValue::Integer(n)) = c.cast_to(AtomicType::Integer) {
                        return Ok(
                            pick_const_positional(v.as_slice(), n).map_or(Val::Empty, Val::One)
                        );
                    }
                }
            }
            let mut out = Vec::new();
            let slot = cx.slot_of(ctx_var)?;
            for (i, item) in v.as_slice().iter().enumerate() {
                let benv = env.bind_slot(slot, Val::One(item.clone()));
                let p = eval(cx, predicate, &benv)?;
                if *positional {
                    let pos = atomize(p.as_slice());
                    if let Some(v) = pos.first() {
                        if let Ok(AtomicValue::Integer(n)) = v.cast_to(AtomicType::Integer) {
                            if n == (i + 1) as i64 {
                                out.push(item.clone());
                            }
                        }
                    }
                } else if effective_boolean_value(p.as_slice())? {
                    out.push(item.clone());
                }
            }
            Ok(Val::of(out))
        }
        CKind::ElementCtor {
            name,
            conditional,
            attributes,
            content,
        } => construct_element(cx, name, *conditional, attributes, content, env),
        CKind::Builtin { op, args } => eval_builtin(cx, *op, args, env),
        CKind::PhysicalCall { name, args } => {
            // adaptors and the function cache take plain sequences
            let mut arg_vals = Vec::with_capacity(args.len());
            for a in args {
                arg_vals.push(eval(cx, a, env)?.into_sequence());
            }
            call_physical(cx, name, &arg_vals, e.node_id)
        }
        CKind::UserCall { name, .. } => Err(RtError::Plan(format!(
            "call to {name} was not unfolded (recursive data-service functions are not executable)"
        ))),
        CKind::TypeMatch { input, ty } => {
            let v = eval(cx, input, env)?;
            if ty.matches(v.as_slice()) {
                Ok(v)
            } else {
                Err(XdmError::TypeMatch {
                    expected: ty.to_string(),
                    actual: format!("a sequence of {} item(s)", v.as_slice().len()),
                }
                .into())
            }
        }
        CKind::Cast {
            input,
            target,
            optional,
        } => {
            let v = atomize(eval(cx, input, env)?.as_slice());
            match v.as_slice() {
                [] if *optional => Ok(Val::Empty),
                [] => Err(XdmError::Cast {
                    value: "()".into(),
                    target: *target,
                }
                .into()),
                [one] => Ok(Val::One(Item::Atomic(one.cast_to(*target)?))),
                _ => Err(XdmError::NotSingleton(v.len()).into()),
            }
        }
        CKind::Castable { input, target } => {
            let v = atomize(eval(cx, input, env)?.as_slice());
            Ok(Val::bool(match v.as_slice() {
                [] => true,
                [one] => one.cast_to(*target).is_ok(),
                _ => false,
            }))
        }
        CKind::InstanceOf { input, ty } => {
            Ok(Val::bool(ty.matches(eval(cx, input, env)?.as_slice())))
        }
        CKind::Error(_) => Err(RtError::Plan(
            "the query contains compile-time errors and cannot be executed".into(),
        )),
    }
}

/// Evaluate a sequence of parts; immediate `fn-bea:async(...)` parts run
/// concurrently on scoped threads (§5.4), overlapping their latencies.
fn eval_sequence(cx: &ExecCtx, parts: &[CExpr], env: &Env) -> RtResult<Val> {
    let is_async = |p: &CExpr| {
        matches!(
            &p.kind,
            CKind::Builtin {
                op: Builtin::Async,
                ..
            }
        )
    };
    let mut out = Vec::new();
    if !parts.iter().any(is_async) {
        for p in parts {
            eval(cx, p, env)?.append_to(&mut out);
        }
        return Ok(Val::of(out));
    }
    let mut slots: Vec<Option<RtResult<Val>>> = (0..parts.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, p) in parts.iter().enumerate() {
            if let CKind::Builtin {
                op: Builtin::Async,
                args,
            } = &p.kind
            {
                cx.inc(|s| &s.async_spawns);
                let arg = &args[0];
                let env = env.clone();
                let cx2 = cx.clone();
                handles.push((i, scope.spawn(move || eval(&cx2, arg, &env))));
            }
        }
        for (i, p) in parts.iter().enumerate() {
            if !is_async(p) {
                slots[i] = Some(eval(cx, p, env));
            }
        }
        for (i, h) in handles {
            slots[i] =
                Some(h.join().unwrap_or_else(|_| {
                    Err(RtError::Plan("async evaluation thread panicked".into()))
                }));
        }
    });
    for s in slots {
        s.expect("every slot filled")?.append_to(&mut out);
    }
    Ok(Val::of(out))
}

pub(crate) fn descend(n: &NodeRef, out: &mut Vec<Item>) {
    for c in n.children() {
        if matches!(c.kind(), NodeKind::Element { .. }) {
            out.push(Item::Node(c.clone()));
            descend(c, out);
        }
    }
}

// ---- element construction -----------------------------------------------------

fn construct_element(
    cx: &ExecCtx,
    name: &QName,
    conditional: bool,
    attributes: &[(QName, bool, CExpr)],
    content: &CExpr,
    env: &Env,
) -> RtResult<Val> {
    let mut attr_nodes: Vec<NodeRef> = Vec::new();
    for (aname, acond, value) in attributes {
        match attr_string(cx, value, env)? {
            Some(s) => attr_nodes.push(Node::attribute(aname.clone(), AtomicValue::str(&s))),
            None if *acond => {} // conditional attribute omitted (§3.1)
            None => attr_nodes.push(Node::attribute(aname.clone(), AtomicValue::str(""))),
        }
    }
    let items = eval(cx, content, env)?;
    let items = items.as_slice();
    if conditional && items.is_empty() {
        // <E?> with empty content constructs nothing (§3.1)
        return Ok(Val::Empty);
    }
    let mut children: Vec<NodeRef> = Vec::new();
    let mut prev_atomic = false;
    for item in items {
        match item.clone() {
            Item::Atomic(v) => {
                // adjacent atomics join with a single space (XQuery
                // constructor semantics); a *single* atomic keeps its
                // type annotation so annotations survive construction —
                // and pays no string conversion until a neighbour forces
                // the join
                if prev_atomic {
                    let prev = children.pop().expect("text node just pushed");
                    let prev = match prev.kind() {
                        NodeKind::Text { value } => value.string_value(),
                        _ => unreachable!("prev_atomic marks a text node"),
                    };
                    // the merged text is untyped
                    children.push(Node::text(AtomicValue::untyped(&format!(
                        "{prev} {}",
                        v.string_value()
                    ))));
                } else {
                    children.push(Node::text(v));
                }
                prev_atomic = true;
            }
            Item::Node(n) => {
                prev_atomic = false;
                match n.kind() {
                    NodeKind::Attribute { name, value } => {
                        attr_nodes.push(Node::attribute(name.clone(), value.clone()))
                    }
                    NodeKind::Document { .. } => children.extend(n.children().iter().cloned()),
                    _ => children.push(n),
                }
            }
        }
    }
    Ok(Val::One(Item::Node(Node::element(
        name.clone(),
        attr_nodes,
        children,
    ))))
}

/// Evaluate an attribute-value template; `None` when every dynamic part
/// evaluated to the empty sequence and there is no literal text (the
/// `a?=` conditional-omission trigger).
fn attr_string(cx: &ExecCtx, value: &CExpr, env: &Env) -> RtResult<Option<String>> {
    let parts: Vec<&CExpr> = match &value.kind {
        CKind::Seq(parts) => parts.iter().collect(),
        _ => vec![value],
    };
    let mut s = String::new();
    let mut any = false;
    for p in parts {
        match &p.kind {
            CKind::Const(v) => {
                v.write_lexical(&mut s);
                any = true;
            }
            _ => {
                let items = atomize(eval(cx, p, env)?.as_slice());
                if !items.is_empty() {
                    any = true;
                }
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        s.push(' ');
                    }
                    v.write_lexical(&mut s);
                }
            }
        }
    }
    Ok(if any { Some(s) } else { None })
}

// ---- builtins -------------------------------------------------------------------

fn eval_builtin(cx: &ExecCtx, op: Builtin, args: &[CExpr], env: &Env) -> RtResult<Val> {
    use Builtin as B;
    match op {
        // a lone async (not in sequence position) evaluates inline — the
        // concurrency win comes from sibling asyncs (see eval_sequence)
        B::Async => eval(cx, &args[0], env),
        B::FailOver => match eval(cx, &args[0], env) {
            Ok(v) => Ok(v),
            Err(_) => {
                cx.inc(|s| &s.failovers_taken);
                eval(cx, &args[1], env)
            }
        },
        B::Timeout => {
            let millis =
                single_number_arg(&eval(cx, skip_data(&args[1]), env)?)?.unwrap_or(0.0) as u64;
            let (tx, rx) = std::sync::mpsc::channel();
            let prim = args[0].clone();
            let env2 = env.clone();
            let cx2 = cx.clone();
            // a detached worker: if it outlives the timeout we abandon it
            // (the paper's semantics: "when the time is up, the system
            // fails over to the alternate expression")
            std::thread::spawn(move || {
                let _ = tx.send(eval(&cx2, &prim, &env2));
            });
            match rx.recv_timeout(Duration::from_millis(millis)) {
                Ok(Ok(v)) => Ok(v),
                Ok(Err(_)) | Err(_) => {
                    cx.inc(|s| &s.timeouts_fired);
                    eval(cx, &args[2], env)
                }
            }
        }
        // every other builtin is strict: evaluate the arguments, then
        // hand them to the same kernel the VM's `call` op uses, so the
        // walker and compiled programs agree by construction
        _ => {
            if args.len() <= 4 {
                let mut buf = [Val::Empty, Val::Empty, Val::Empty, Val::Empty];
                for (slot, a) in buf.iter_mut().zip(args) {
                    *slot = eval(cx, a, env)?;
                }
                apply_builtin(op, &buf[..args.len()])
            } else {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(eval(cx, a, env)?);
                }
                apply_builtin(op, &vals)
            }
        }
    }
}

fn aggregate(op: Builtin, vals: &[AtomicValue]) -> RtResult<Val> {
    if vals.is_empty() {
        return Ok(Val::Empty);
    }
    match op {
        Builtin::Min | Builtin::Max => {
            let mut best = &vals[0];
            for v in &vals[1..] {
                let ord = v
                    .compare(best)
                    .ok_or(XdmError::Comparison(v.type_of(), best.type_of()))?;
                if (op == Builtin::Min && ord == Ordering::Less)
                    || (op == Builtin::Max && ord == Ordering::Greater)
                {
                    best = v;
                }
            }
            Ok(Val::One(Item::Atomic(best.clone())))
        }
        Builtin::Sum | Builtin::Avg => {
            let mut acc = AtomicValue::Integer(0);
            for v in vals {
                acc = acc.arithmetic(aldsp_xdm::value::ArithOp::Add, v)?;
            }
            if op == Builtin::Avg {
                acc = acc.arithmetic(
                    aldsp_xdm::value::ArithOp::Div,
                    &AtomicValue::Integer(vals.len() as i64),
                )?;
            }
            Ok(Val::One(Item::Atomic(acc)))
        }
        _ => unreachable!("aggregate() called with non-aggregate builtin"),
    }
}

/// Apply a strict builtin to already-evaluated arguments.
///
/// This is the single kernel behind both the tree-walker
/// ([`eval_builtin`]) and the expression VM's `call` op, so the two
/// evaluation regimes cannot drift. Lazy builtins (`Async`, `FailOver`,
/// `Timeout`) never reach here: the walker keeps dedicated arms for
/// them and program lowering declines them.
pub(crate) fn apply_builtin(op: Builtin, args: &[Val]) -> RtResult<Val> {
    use Builtin as B;
    Ok(match op {
        B::Count => Val::One(Item::int(args[0].as_slice().len() as i64)),
        B::Sum | B::Avg | B::Min | B::Max => {
            let vals = atomize(args[0].as_slice());
            return aggregate(op, &vals);
        }
        B::Exists => Val::bool(!args[0].as_slice().is_empty()),
        B::Empty => Val::bool(args[0].as_slice().is_empty()),
        B::Not => Val::bool(!effective_boolean_value(args[0].as_slice())?),
        B::Boolean => Val::bool(effective_boolean_value(args[0].as_slice())?),
        B::True => Val::bool(true),
        B::False => Val::bool(false),
        B::String => match args[0].as_slice() {
            [] => Val::One(Item::str("")),
            // xs:string of a string is identity: reuse the Arc payload
            [Item::Atomic(AtomicValue::String(s) | AtomicValue::Untyped(s))] => {
                Val::One(Item::Atomic(AtomicValue::String(Arc::clone(s))))
            }
            [one] => Val::One(Item::str(&one.string_value())),
            s => return Err(XdmError::NotSingleton(s.len()).into()),
        },
        B::Concat => {
            let mut s = String::new();
            for a in args {
                for item in atomize(a.as_slice()) {
                    item.write_lexical(&mut s);
                }
            }
            Val::One(Item::str(&s))
        }
        B::StringLength => {
            let v = str_arg(&args[0])?;
            Val::One(Item::int(v.chars().count() as i64))
        }
        B::UpperCase => {
            let v = str_arg(&args[0])?;
            Val::One(Item::str(&v.to_uppercase()))
        }
        B::LowerCase => {
            let v = str_arg(&args[0])?;
            Val::One(Item::str(&v.to_lowercase()))
        }
        B::Substring => {
            let sarg = str_arg(&args[0])?;
            let s: &str = &sarg;
            let start = single_number_arg(&args[1])?.unwrap_or(f64::NAN);
            let len = match args.get(2) {
                Some(a) => single_number_arg(a)?.unwrap_or(f64::NAN),
                None => f64::INFINITY,
            };
            if start.is_nan() || len.is_nan() {
                return Ok(Val::One(Item::str("")));
            }
            let n_chars = s.chars().count();
            let from = ((start.round() as i64 - 1).max(0) as usize).min(n_chars);
            let to = if len.is_infinite() {
                n_chars
            } else {
                ((start.round() + len.round() - 1.0).max(0.0) as usize).min(n_chars)
            }
            .max(from);
            // slice by byte offsets of the char range — no Vec<char>
            let mut idx = s.char_indices().map(|(i, _)| i).skip(from);
            let b0 = idx.next().unwrap_or(s.len());
            let b1 = if to > from {
                s[b0..]
                    .char_indices()
                    .nth(to - from)
                    .map(|(i, _)| b0 + i)
                    .unwrap_or(s.len())
            } else {
                b0
            };
            Val::One(Item::str(&s[b0..b1]))
        }
        B::Contains => {
            let a = str_arg(&args[0])?;
            let b = str_arg(&args[1])?;
            Val::bool(a.contains(&*b))
        }
        B::StartsWith => {
            let a = str_arg(&args[0])?;
            let b = str_arg(&args[1])?;
            Val::bool(a.starts_with(&*b))
        }
        B::Subsequence => {
            let start = single_number_arg(&args[1])?.unwrap_or(f64::NAN);
            let len = match args.get(2) {
                Some(a) => single_number_arg(a)?.unwrap_or(f64::NAN),
                None => f64::INFINITY,
            };
            if start.is_nan() || len.is_nan() {
                return Ok(Val::Empty);
            }
            let s = start.round();
            let e = s + if len.is_infinite() {
                f64::INFINITY
            } else {
                len.round()
            };
            Val::of(
                args[0]
                    .as_slice()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| {
                        let p = (*i + 1) as f64;
                        p >= s && p < e
                    })
                    .map(|(_, item)| item.clone())
                    .collect(),
            )
        }
        B::DistinctValues => {
            let vals = atomize(args[0].as_slice());
            let mut out: Vec<AtomicValue> = Vec::new();
            for v in vals {
                if !out.iter().any(|w| w.compare(&v) == Some(Ordering::Equal)) {
                    out.push(v);
                }
            }
            Val::of(out.into_iter().map(Item::Atomic).collect())
        }
        B::Abs => {
            let vals = atomize(args[0].as_slice());
            match vals.as_slice() {
                [] => Val::Empty,
                [v] => Val::One(Item::Atomic(match v {
                    AtomicValue::Integer(i) => AtomicValue::Integer(i.abs()),
                    AtomicValue::Decimal(d) => {
                        AtomicValue::Decimal(aldsp_xdm::value::Decimal(d.0.abs()))
                    }
                    AtomicValue::Double(d) => AtomicValue::Double(d.abs()),
                    other => {
                        return Err(XdmError::Arithmetic(other.type_of(), other.type_of()).into())
                    }
                })),
                _ => return Err(XdmError::NotSingleton(vals.len()).into()),
            }
        }
        B::Async | B::FailOver | B::Timeout => {
            unreachable!("lazy builtin reached the strict kernel")
        }
    })
}

/// A singleton string argument without forcing an owned `String`:
/// borrows the payload when the argument is already a string-ish atomic
/// (the common shape on the VM hot path, where a `data` op precedes the
/// call), keeps the `Arc` when a node's typed value is string-ish, and
/// only otherwise falls back to the owned conversion. An empty argument
/// reads as `""`, matching the `unwrap_or_default` the owned path used.
enum StrArg<'a> {
    Borrowed(&'a str),
    Shared(Arc<str>),
    Owned(String),
}

impl std::ops::Deref for StrArg<'_> {
    type Target = str;
    fn deref(&self) -> &str {
        match self {
            StrArg::Borrowed(s) => s,
            StrArg::Shared(s) => s,
            StrArg::Owned(s) => s,
        }
    }
}

fn str_arg(v: &Val) -> RtResult<StrArg<'_>> {
    match v.as_slice() {
        [Item::Atomic(AtomicValue::String(s) | AtomicValue::Untyped(s))] => Ok(StrArg::Borrowed(s)),
        [Item::Node(n)] => Ok(match n.typed_value() {
            Some(AtomicValue::String(s) | AtomicValue::Untyped(s)) => StrArg::Shared(s),
            Some(other) => StrArg::Owned(other.string_value()),
            None => StrArg::Borrowed(""),
        }),
        _ => Ok(match single_string_arg(v)? {
            Some(s) => StrArg::Owned(s),
            None => StrArg::Borrowed(""),
        }),
    }
}

/// Singleton string extraction from an evaluated argument (the slice
/// twin of the walker's old expression-taking helper).
fn single_string_arg(v: &Val) -> RtResult<Option<String>> {
    match v.as_slice() {
        [] => Ok(None),
        // singleton fast path: no atomized intermediate vector
        [Item::Atomic(one)] => Ok(Some(one.string_value())),
        [Item::Node(n)] => Ok(n.typed_value().map(|v| v.string_value())),
        s => {
            let v = atomize(s);
            match v.as_slice() {
                [] => Ok(None),
                [one] => Ok(Some(one.string_value())),
                _ => Err(XdmError::NotSingleton(v.len()).into()),
            }
        }
    }
}

/// Singleton numeric extraction (cast to double) from an evaluated
/// argument.
fn single_number_arg(v: &Val) -> RtResult<Option<f64>> {
    let one = match v.as_slice() {
        [] => return Ok(None),
        // singleton fast path: no atomized intermediate vector
        [Item::Atomic(a)] => a.clone(),
        [Item::Node(n)] => match n.typed_value() {
            Some(a) => a,
            None => return Ok(None),
        },
        s => {
            let all = atomize(s);
            match all.len() {
                0 => return Ok(None),
                1 => all.into_iter().next().expect("len 1"),
                n => return Err(XdmError::NotSingleton(n).into()),
            }
        }
    };
    match one.cast_to(AtomicType::Double)? {
        AtomicValue::Double(d) => Ok(Some(d)),
        _ => unreachable!("cast to double"),
    }
}

// ---- physical calls with the function cache (§5.5) ---------------------------

fn call_physical(cx: &ExecCtx, name: &QName, args: &[Sequence], node: u32) -> RtResult<Val> {
    let t0 = cx.trace.as_ref().map(|_| std::time::Instant::now());
    let record = |cx: &ExecCtx, rows: u64, roundtrips: u64| {
        cx.trace_record(
            t0.map(|_| TraceKey::node(node)),
            NodeTrace {
                rows_out: rows,
                source_roundtrips: roundtrips,
                wall_ns: t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0),
                ..Default::default()
            },
        );
    };
    if cx.rt.cache.enabled(name) {
        if let Some(hit) = cx.rt.cache.get(name, args) {
            cx.inc(|s| &s.cache_hits);
            record(cx, hit.len() as u64, 0);
            return Ok(Val::of(hit));
        }
        cx.inc(|s| &s.cache_misses);
    }
    cx.check_budget()?;
    cx.inc(|s| &s.source_calls);
    let call = cx
        .rt
        .adaptors
        .call_physical(&cx.rt.metadata, name, args, cx.budget.as_deref());
    let result = match call {
        Ok(r) => r,
        Err(e) => {
            // A roundtrip interrupted by cancellation surfaces as the
            // precise deadline error, not the adaptor's wrapped message.
            cx.check_budget()?;
            return Err(e.into());
        }
    };
    cx.rt.cache.put(name, args, result.clone());
    record(cx, result.len() as u64, 1);
    Ok(Val::of(result))
}

// ---- the FLWOR tuple pipeline -------------------------------------------------

/// Run a clause list as a streaming tuple pipeline rooted at `base`.
pub fn flwor_tuples<'a>(
    cx: &'a ExecCtx,
    flwor_id: u32,
    clauses: &'a [Clause],
    base: &Env,
) -> TupleIter<'a> {
    let mut it: TupleIter<'a> = Box::new(std::iter::once(Ok(base.clone())));
    for (i, c) in clauses.iter().enumerate() {
        it = apply_clause(cx, flwor_id, i, c, it, base.clone());
    }
    if cx.budget.is_some() {
        // Cooperative deadline check at every tuple boundary, so a
        // timed-out query stops mid-stream instead of running dry.
        it = Box::new(it.map(move |t| {
            cx.check_budget()?;
            t
        }));
    }
    it
}

/// Counts tuples flowing *into* a traced clause; the plain `u64` is
/// flushed to the collector once, on drop — no per-row locking.
struct CountIn<'a> {
    inner: TupleIter<'a>,
    n: u64,
    sink: Arc<TraceCollector>,
    key: TraceKey,
}

impl Iterator for CountIn<'_> {
    type Item = RtResult<Env>;

    fn next(&mut self) -> Option<Self::Item> {
        let x = self.inner.next();
        if x.is_some() {
            self.n += 1;
        }
        x
    }
}

impl Drop for CountIn<'_> {
    fn drop(&mut self) {
        self.sink.record(
            self.key,
            NodeTrace {
                rows_in: self.n,
                ..Default::default()
            },
        );
    }
}

/// Counts tuples a traced clause emits and the wall time spent inside
/// its `next()` (inclusive of upstream pulls); flushed on drop.
struct CountOut<'a> {
    inner: TupleIter<'a>,
    n: u64,
    wall_ns: u64,
    sink: Arc<TraceCollector>,
    key: TraceKey,
}

impl Iterator for CountOut<'_> {
    type Item = RtResult<Env>;

    fn next(&mut self) -> Option<Self::Item> {
        let t0 = std::time::Instant::now();
        let x = self.inner.next();
        self.wall_ns += t0.elapsed().as_nanos() as u64;
        if x.is_some() {
            self.n += 1;
        }
        x
    }
}

impl Drop for CountOut<'_> {
    fn drop(&mut self) {
        self.sink.record(
            self.key,
            NodeTrace {
                rows_out: self.n,
                wall_ns: self.wall_ns,
                ..Default::default()
            },
        );
    }
}

fn apply_clause<'a>(
    cx: &'a ExecCtx,
    flwor_id: u32,
    idx: usize,
    clause: &'a Clause,
    input: TupleIter<'a>,
    flwor_base: Env,
) -> TupleIter<'a> {
    // Tracing wraps the clause between two counting iterators: rows in
    // below, rows out + wall time above. Eager operators (order by,
    // sorted group) do their work during construction, so that time is
    // measured here and credited to the clause as well.
    let tkey = cx.trace.as_ref().map(|_| TraceKey::clause(flwor_id, idx));
    let input = match (&cx.trace, tkey) {
        (Some(sink), Some(key)) => Box::new(CountIn {
            inner: input,
            n: 0,
            sink: Arc::clone(sink),
            key,
        }) as TupleIter<'a>,
        _ => input,
    };
    let t0 = tkey.map(|_| std::time::Instant::now());
    let out = build_clause(cx, flwor_id, idx, tkey, clause, input, flwor_base);
    match (&cx.trace, tkey) {
        (Some(sink), Some(key)) => Box::new(CountOut {
            inner: out,
            n: 0,
            wall_ns: t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0),
            sink: Arc::clone(sink),
            key,
        }) as TupleIter<'a>,
        _ => out,
    }
}

fn build_clause<'a>(
    cx: &'a ExecCtx,
    flwor_id: u32,
    idx: usize,
    tkey: Option<TraceKey>,
    clause: &'a Clause,
    input: TupleIter<'a>,
    flwor_base: Env,
) -> TupleIter<'a> {
    match clause {
        Clause::For { var, pos, source } => {
            let (var_slot, pos_slot) = match (cx.slot_of(var), pos.as_ref().map(|p| cx.slot_of(p)))
            {
                (Ok(v), Some(Ok(p))) => (v, Some(p)),
                (Ok(v), None) => (v, None),
                (Err(e), _) | (_, Some(Err(e))) => return one_err(e),
            };
            Box::new(input.flat_map(move |tuple| {
                let env = match tuple {
                    Ok(e) => e,
                    Err(e) => return one_err(e),
                };
                match eval(cx, source, &env) {
                    Ok(seq) => Box::new(seq.into_sequence().into_iter().enumerate().map(
                        move |(i, item)| {
                            Ok(match pos_slot {
                                None => env.bind_slot(var_slot, Val::One(item)),
                                Some(p) => {
                                    let mut w = env.writer();
                                    w.set_item(var_slot, item);
                                    w.set_item(p, Item::int((i + 1) as i64));
                                    w.finish()
                                }
                            })
                        },
                    )) as TupleIter<'a>,
                    Err(e) => one_err(e),
                }
            }))
        }
        Clause::Let { var, value } => {
            let slot = match cx.slot_of(var) {
                Ok(s) => s,
                Err(e) => return one_err(e),
            };
            let mut value = ScalarSite::new(cx, tkey, value);
            Box::new(input.map(move |tuple| {
                let env = tuple?;
                let v = value.eval(&env)?;
                Ok(env.bind_val_owned(slot, v))
            }))
        }
        Clause::Where(cond) => {
            let mut cond = ScalarSite::new(cx, tkey, cond);
            Box::new(input.filter_map(move |tuple| {
                tuple
                    .and_then(|env| {
                        let keep = effective_boolean_value(cond.eval(&env)?.as_slice())?;
                        Ok(keep.then_some(env))
                    })
                    .transpose()
            }))
        }
        Clause::OrderBy(specs) => order_by(cx, tkey, specs, input),
        Clause::GroupBy {
            bindings,
            keys,
            carry,
            pre_clustered,
        } => {
            let slots = match GroupSlots::resolve(cx, bindings, keys, carry) {
                Ok(s) => s,
                Err(e) => return one_err(e),
            };
            if *pre_clustered {
                cx.inc(|s| &s.streaming_groups);
                Box::new(StreamingGroups {
                    cx,
                    keys: key_sites(cx, tkey, keys),
                    input,
                    slots,
                    base: flwor_base,
                    current: None,
                    done: false,
                })
            } else {
                sorted_group_by(cx, tkey, &slots, keys, input, flwor_base)
            }
        }
        Clause::SqlFor {
            connection,
            select,
            params,
            query_const,
            binds,
            ppk,
        } => {
            let bind_slots: Vec<u32> = match binds
                .iter()
                .map(|(var, _)| cx.slot_of(var))
                .collect::<RtResult<_>>()
            {
                Ok(s) => s,
                Err(e) => return one_err(e),
            };
            match ppk {
                Some(spec) => Box::new(PpkIter {
                    cx,
                    tkey,
                    input,
                    connection,
                    select,
                    base_params: params,
                    // tuple-dependent base params force block size 1
                    // (they may vary from one outer tuple to the next)
                    k: if query_const.contains(&false) {
                        1
                    } else {
                        spec.k.max(1)
                    },
                    bind_slots,
                    spec,
                    buffer: std::collections::VecDeque::new(),
                    pending: std::collections::VecDeque::new(),
                    staging_err: None,
                    tid: 0,
                    input_done: false,
                    exhausted: false,
                    key_buf: String::new(),
                    buffered_charge: 0,
                }),
                None => match cx.joins.mark(flwor_id, idx) {
                    Some(mark) => Box::new(HashJoinIter::new(
                        cx, tkey, connection, mark, params, bind_slots, input, flwor_base,
                    )),
                    None => sql_for_plain(
                        cx,
                        tkey,
                        connection,
                        select,
                        params,
                        bind_slots.into(),
                        input,
                    ),
                },
            }
        }
    }
}

fn one_err<'a>(e: RtError) -> TupleIter<'a> {
    Box::new(std::iter::once(Err(e)))
}

/// Coarse deterministic per-buffered-tuple estimate used by the memory
/// budget. The point is not byte-accurate accounting but a reproducible
/// measure of how much state a blocking operator holds, so caps behave
/// identically across runs and platforms.
pub(crate) const TUPLE_MEM_BYTES: u64 = 256;

/// Streams a materialized buffer while holding its memory charge against
/// the query budget; the charge is released when the stream is dropped
/// (fully drained or abandoned early).
struct Charged<'a> {
    cx: &'a ExecCtx,
    bytes: u64,
    inner: TupleIter<'a>,
}

impl Iterator for Charged<'_> {
    type Item = RtResult<Env>;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }
}

impl Drop for Charged<'_> {
    fn drop(&mut self) {
        self.cx.release_mem(self.bytes);
    }
}

// ---- order by -------------------------------------------------------------------

/// The sorted input: rows with their evaluated sort keys, plus the
/// buffered-tuple memory they hold charged against the budget (released
/// when the stream over the rows is dropped).
struct SortedPart {
    rows: Vec<(Vec<Option<AtomicValue>>, Env)>,
    charged: u64,
}

/// The full `order by` comparator over evaluated key tuples.
fn cmp_spec_keys(
    specs: &[OrderSpec],
    a: &[Option<AtomicValue>],
    b: &[Option<AtomicValue>],
) -> Ordering {
    for (i, s) in specs.iter().enumerate() {
        let mut ord = cmp_keys(&a[i], &b[i], s.empty_least);
        if s.descending {
            ord = ord.reverse();
        }
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Materialize and stably sort the input. On error the charges made so
/// far are released before returning.
fn sort_partition(
    cx: &ExecCtx,
    tkey: Option<TraceKey>,
    specs: &[OrderSpec],
    input: TupleIter<'_>,
) -> RtResult<SortedPart> {
    let mut keys: Vec<ScalarSite<'_>> = specs
        .iter()
        .map(|s| ScalarSite::new(cx, tkey, &s.expr))
        .collect();
    let mut rows: Vec<(Vec<Option<AtomicValue>>, Env)> = Vec::new();
    let mut charged = 0u64;
    let fail = |cx: &ExecCtx, charged: u64, e: RtError| {
        cx.release_mem(charged);
        Err(e)
    };
    for tuple in input {
        let env = match tuple {
            Ok(e) => e,
            Err(e) => return fail(cx, charged, e),
        };
        // the sort buffer is blocking state: charge it against the budget
        if let Err(e) = cx.charge_mem(cx.tuple_mem) {
            return fail(cx, charged, e);
        }
        charged += cx.tuple_mem;
        let mut key = Vec::with_capacity(specs.len());
        for k in &mut keys {
            match k.eval(&env) {
                Ok(v) => key.push(atomize_first_val(&v)),
                Err(e) => return fail(cx, charged, e),
            }
        }
        rows.push((key, env));
    }
    rows.sort_by(|(a, _), (b, _)| cmp_spec_keys(specs, a, b));
    Ok(SortedPart { rows, charged })
}

fn order_by<'a>(
    cx: &'a ExecCtx,
    tkey: Option<TraceKey>,
    specs: &'a [OrderSpec],
    input: TupleIter<'a>,
) -> TupleIter<'a> {
    match sort_partition(cx, tkey, specs, input) {
        Ok(part) => Box::new(Charged {
            cx,
            bytes: part.charged,
            inner: Box::new(part.rows.into_iter().map(|(_, e)| Ok(e))),
        }),
        Err(e) => one_err(e),
    }
}

fn cmp_keys(a: &Option<AtomicValue>, b: &Option<AtomicValue>, empty_least: bool) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => {
            if empty_least {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        }
        (Some(_), None) => {
            if empty_least {
                Ordering::Greater
            } else {
                Ordering::Less
            }
        }
        (Some(x), Some(y)) => x.compare(y).unwrap_or(Ordering::Equal),
    }
}

// ---- the group operator (§5.2) ---------------------------------------------------

/// Frame slots a group operator touches, resolved once per pipeline so
/// the per-tuple work is all indexed loads/stores.
struct GroupSlots {
    /// Key alias slots, parallel to the key expressions.
    aliases: Vec<u32>,
    /// (source slot, destination slot) per regrouped binding.
    bind_from: Vec<u32>,
    bind_to: Vec<u32>,
    /// (source slot, destination slot) per carried binding.
    carry_from: Vec<u32>,
    carry_to: Vec<u32>,
}

impl GroupSlots {
    fn resolve(
        cx: &ExecCtx,
        bindings: &[(String, String)],
        keys: &[(CExpr, String)],
        carry: &[(String, String)],
    ) -> RtResult<GroupSlots> {
        let slot = |n: &String| cx.slot_of(n);
        Ok(GroupSlots {
            aliases: keys.iter().map(|(_, a)| slot(a)).collect::<RtResult<_>>()?,
            bind_from: bindings
                .iter()
                .map(|(f, _)| slot(f))
                .collect::<RtResult<_>>()?,
            bind_to: bindings
                .iter()
                .map(|(_, t)| slot(t))
                .collect::<RtResult<_>>()?,
            carry_from: carry
                .iter()
                .map(|(f, _)| slot(f))
                .collect::<RtResult<_>>()?,
            carry_to: carry
                .iter()
                .map(|(_, t)| slot(t))
                .collect::<RtResult<_>>()?,
        })
    }
}

/// One scalar site per grouping key, owned by the operator that
/// evaluates them.
fn key_sites<'a>(
    cx: &'a ExecCtx,
    tkey: Option<TraceKey>,
    keys: &'a [(CExpr, String)],
) -> Vec<ScalarSite<'a>> {
    keys.iter()
        .map(|(k, _)| ScalarSite::new(cx, tkey, k))
        .collect()
}

/// The streaming group operator: "relies on input that is pre-clustered
/// with respect to the grouping expressions. Its job is thus to simply
/// form groups while watching for the grouping expressions to change."
/// Memory is bounded by the largest single group.
struct StreamingGroups<'a> {
    cx: &'a ExecCtx,
    input: TupleIter<'a>,
    keys: Vec<ScalarSite<'a>>,
    slots: GroupSlots,
    base: Env,
    current: Option<GroupAccum>,
    done: bool,
}

/// One in-progress group: key values, per-binding accumulators, carried
/// first-tuple values, and size (for the memory high-water mark).
struct GroupAccum {
    key: Vec<Option<AtomicValue>>,
    accums: Vec<Sequence>,
    carried: Vec<Sequence>,
    size: u64,
}

impl StreamingGroups<'_> {
    fn emit(&mut self, g: GroupAccum) -> Env {
        let mut w = self.base.writer();
        for (&slot, k) in self.slots.aliases.iter().zip(&g.key) {
            w.set(
                slot,
                k.clone().map(|v| vec![Item::Atomic(v)]).unwrap_or_default(),
            );
        }
        for (&slot, acc) in self.slots.bind_to.iter().zip(g.accums) {
            w.set(slot, acc);
        }
        for (&slot, v) in self.slots.carry_to.iter().zip(g.carried) {
            w.set(slot, v);
        }
        w.finish()
    }
}

impl Iterator for StreamingGroups<'_> {
    type Item = RtResult<Env>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            match self.input.next() {
                Some(Err(e)) => {
                    self.done = true;
                    return Some(Err(e));
                }
                Some(Ok(env)) => {
                    // evaluate the grouping keys on this tuple
                    let mut key = Vec::with_capacity(self.keys.len());
                    for k in &mut self.keys {
                        match k.eval(&env) {
                            Ok(v) => key.push(atomize_first_val(&v)),
                            Err(e) => {
                                self.done = true;
                                return Some(Err(e));
                            }
                        }
                    }
                    let values: Vec<Sequence> = self
                        .slots
                        .bind_from
                        .iter()
                        .map(|&from| env.get_slot(from).map(<[Item]>::to_vec).unwrap_or_default())
                        .collect();
                    let carried: Vec<Sequence> = self
                        .slots
                        .carry_from
                        .iter()
                        .map(|&from| env.get_slot(from).map(<[Item]>::to_vec).unwrap_or_default())
                        .collect();
                    // every accumulated tuple is blocking state: charge it
                    if let Err(e) = self.cx.charge_mem(self.cx.tuple_mem) {
                        self.done = true;
                        return Some(Err(e));
                    }
                    match &mut self.current {
                        Some(g)
                            if g.key.len() == key.len()
                                && g.key
                                    .iter()
                                    .zip(&key)
                                    .all(|(a, b)| cmp_keys(a, b, true) == Ordering::Equal) =>
                        {
                            for (acc, v) in g.accums.iter_mut().zip(values) {
                                acc.extend(v);
                            }
                            g.size += 1;
                            self.cx.peak(|s| &s.peak_grouped_tuples, g.size);
                        }
                        Some(_) => {
                            // group boundary: emit the finished group and
                            // return its buffered-tuple charge
                            let g = self.current.take().expect("matched Some");
                            self.current = Some(GroupAccum {
                                key,
                                accums: values,
                                carried,
                                size: 1,
                            });
                            let released = g.size * self.cx.tuple_mem;
                            let env = self.emit(g);
                            self.cx.release_mem(released);
                            return Some(Ok(env));
                        }
                        None => {
                            self.cx.peak(|s| &s.peak_grouped_tuples, 1);
                            self.current = Some(GroupAccum {
                                key,
                                accums: values,
                                carried,
                                size: 1,
                            });
                        }
                    }
                }
                None => {
                    self.done = true;
                    let last = self.current.take();
                    return last.map(|g| {
                        let released = g.size * self.cx.tuple_mem;
                        let env = self.emit(g);
                        self.cx.release_mem(released);
                        Ok(env)
                    });
                }
            }
        }
    }
}

impl Drop for StreamingGroups<'_> {
    fn drop(&mut self) {
        // return the in-progress group's charge when the stream is
        // abandoned before the group was emitted
        if let Some(g) = self.current.take() {
            self.cx.release_mem(g.size * self.cx.tuple_mem);
        }
    }
}

/// The fallback: materialize, sort by the keys, then stream-group —
/// "in the worst case, ALDSP falls back on sorting for grouping" (§4.2).
/// The grouped input, ready to emit: the kept first-row key cells (`nk`
/// per group), the groups in **key-sorted order** with their
/// accumulators and carried first-row values, the input row count (for
/// the memory high-water mark), and the buffered-tuple charge held.
struct GroupedPart {
    flat_keys: Vec<Option<AtomicValue>>,
    /// `(index into flat_keys rows, group)`, sorted by key.
    entries: Vec<(u32, SortedGroupAcc)>,
    rows: u64,
    charged: u64,
}

/// Per-group accumulated state for the sorting group operator.
struct SortedGroupAcc {
    accums: Vec<Sequence>,
    carried: Vec<Sequence>,
}

/// Compare key rows `a` and `b` of `keys` (`nk` cells per row).
fn cmp_group_keys(nk: usize, keys: &[Option<AtomicValue>], a: usize, b: usize) -> Ordering {
    for (x, y) in keys[a * nk..(a + 1) * nk]
        .iter()
        .zip(&keys[b * nk..(b + 1) * nk])
    {
        let ord = cmp_keys(x, y, true);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Group the whole input, then emit the groups in key order over
/// `base`, holding the memory charge until the stream is dropped.
fn sorted_group_by<'a>(
    cx: &'a ExecCtx,
    tkey: Option<TraceKey>,
    slots: &GroupSlots,
    keys: &'a [(CExpr, String)],
    input: TupleIter<'a>,
    base: Env,
) -> TupleIter<'a> {
    cx.inc(|s| &s.sorted_groups);
    let part = match group_partition(cx, tkey, slots, keys, input) {
        Ok(p) => p,
        Err(e) => return one_err(e),
    };
    cx.peak(|s| &s.peak_grouped_tuples, part.rows);
    let nk = slots.aliases.len();
    let mut out: Vec<Env> = Vec::with_capacity(part.entries.len());
    for (first, acc) in part.entries {
        let mut w = base.writer();
        for (&slot, k) in slots
            .aliases
            .iter()
            .zip(&part.flat_keys[first as usize * nk..(first as usize + 1) * nk])
        {
            w.set(
                slot,
                k.clone().map(|v| vec![Item::Atomic(v)]).unwrap_or_default(),
            );
        }
        for (&slot, a) in slots.bind_to.iter().zip(acc.accums) {
            w.set(slot, a);
        }
        for (&slot, v) in slots.carry_to.iter().zip(acc.carried) {
            w.set(slot, v);
        }
        out.push(w.finish());
    }
    Box::new(Charged {
        cx,
        bytes: part.charged,
        inner: Box::new(out.into_iter().map(Ok)),
    })
}

/// Group the input into a [`GroupedPart`]. On error the charges made so
/// far are released before returning.
fn group_partition(
    cx: &ExecCtx,
    tkey: Option<TraceKey>,
    slots: &GroupSlots,
    keys: &[(CExpr, String)],
    input: TupleIter<'_>,
) -> RtResult<GroupedPart> {
    let mut keys = key_sites(cx, tkey, keys);
    // Incremental grouping instead of buffer-sort-scan: each row's key
    // is compared against the previous row's key first (clustered
    // inputs — the common shape from an ordered scan — group in O(1)
    // per row), and only a key *change* binary-searches the sorted
    // unique-key list. The row's grouped and carried slot values are
    // folded into per-group accumulators immediately, so the tuple env
    // (and the node tree it pins) drops while still cache-hot — live
    // state is O(groups + keys), not O(rows). Equal keys land in one
    // group and groups emit in key order, so the output is exactly
    // what sort-then-scan produced.
    let nk = keys.len();
    // group keys, `nk` cells per *group first-row*, kept for comparison
    let mut flat_keys: Vec<Option<AtomicValue>> = Vec::new();
    let mut groups: Vec<SortedGroupAcc> = Vec::new();
    // gid → index into flat_keys of that group's kept key cells
    let mut group_first: Vec<u32> = Vec::new();
    // (index into flat_keys of the group's key, group id), key-sorted
    let mut uniq: Vec<(u32, u32)> = Vec::new();
    let mut prev_gid: Option<u32> = None;
    let mut rows = 0u64;
    let mut charged = 0u64;
    let fail = |cx: &ExecCtx, charged: u64, e: RtError| {
        cx.release_mem(charged);
        Err(e)
    };
    for tuple in input {
        let env = match tuple {
            Ok(e) => e,
            Err(e) => return fail(cx, charged, e),
        };
        // grouped accumulators are blocking state: charge per input row
        if let Err(e) = cx.charge_mem(cx.tuple_mem) {
            return fail(cx, charged, e);
        }
        charged += cx.tuple_mem;
        rows += 1;
        // stage this row's key after the kept group keys…
        let staged = flat_keys.len() / nk;
        for k in &mut keys {
            match k.eval(&env) {
                Ok(v) => flat_keys.push(atomize_first_val(&v)),
                Err(e) => return fail(cx, charged, e),
            }
        }
        let gid = match prev_gid {
            Some(g)
                if cmp_group_keys(nk, &flat_keys, staged, group_first[g as usize] as usize)
                    == Ordering::Equal =>
            {
                g
            }
            _ => {
                match uniq.binary_search_by(|&(first, _)| {
                    cmp_group_keys(nk, &flat_keys, first as usize, staged)
                }) {
                    Ok(pos) => uniq[pos].1,
                    Err(pos) => {
                        // …a new key keeps its staged cells and becomes
                        // a group, capturing the carried slots from
                        // this (its first) row
                        let g = groups.len() as u32;
                        groups.push(SortedGroupAcc {
                            accums: vec![Vec::new(); slots.bind_from.len()],
                            carried: slots
                                .carry_from
                                .iter()
                                .map(|&from| {
                                    env.get_slot(from).map(<[Item]>::to_vec).unwrap_or_default()
                                })
                                .collect(),
                        });
                        group_first.push(staged as u32);
                        uniq.insert(pos, (staged as u32, g));
                        g
                    }
                }
            }
        };
        // …a seen key discards its staged cells
        if group_first[gid as usize] as usize != staged {
            flat_keys.truncate(staged * nk);
        }
        let acc = &mut groups[gid as usize];
        for (&from, acc) in slots.bind_from.iter().zip(acc.accums.iter_mut()) {
            if let Some(v) = env.get_slot(from) {
                acc.extend_from_slice(v);
            }
        }
        prev_gid = Some(gid);
    }
    // hand the groups over in key order (what `uniq` maintained)
    let entries: Vec<(u32, SortedGroupAcc)> = uniq
        .into_iter()
        .map(|(first, gid)| {
            let acc = std::mem::replace(
                &mut groups[gid as usize],
                SortedGroupAcc {
                    accums: Vec::new(),
                    carried: Vec::new(),
                },
            );
            (first, acc)
        })
        .collect();
    Ok(GroupedPart {
        flat_keys,
        entries,
        rows,
        charged,
    })
}

// ---- SQL clauses ------------------------------------------------------------------

fn eval_sql_params<'p>(
    cx: &ExecCtx,
    params: impl IntoIterator<Item = &'p CExpr>,
    env: &Env,
) -> RtResult<Vec<SqlValue>> {
    let params = params.into_iter();
    let mut out = Vec::with_capacity(params.size_hint().0);
    for p in params {
        let v = atomize(eval(cx, p, env)?.as_slice());
        let first = v.first();
        let ty = first
            .and_then(|f| SqlType::from_xml_type(f.type_of()))
            .unwrap_or(SqlType::Varchar);
        out.push(SqlValue::from_xml(first, ty).map_err(RtError::Plan)?);
    }
    Ok(out)
}

fn exec_sql(
    cx: &ExecCtx,
    connection: &str,
    select: &Select,
    params: &[SqlValue],
) -> RtResult<ResultSet> {
    // budget check before every roundtrip: a timed-out query (including
    // its PP-k prefetch threads, which share the budget through their
    // cloned context) stops issuing statements
    cx.check_budget()?;
    cx.inc(|s| &s.sql_statements);
    let r = cx
        .rt
        .adaptors
        .execute_sql(connection, select, params, cx.budget.as_deref());
    match r {
        Ok(rs) => Ok(rs),
        Err(e) => {
            // a roundtrip interrupted by cancellation surfaces as the
            // precise deadline error, not the adaptor's wrapped message
            cx.check_budget()?;
            Err(e.into())
        }
    }
}

fn bind_row(env: &Env, slots: &[u32], row: &[SqlValue]) -> Env {
    // zip semantics: bind only the columns both sides have
    let n = slots.len().min(row.len());
    env.bind_indexed(&slots[..n], |k| row[k].to_xml().map(Item::Atomic))
}

/// A `SqlFor` without PP-k: uncorrelated statements execute once;
/// correlated ones execute per outer tuple (block size 1).
fn sql_for_plain<'a>(
    cx: &'a ExecCtx,
    tkey: Option<TraceKey>,
    connection: &'a str,
    select: &'a Select,
    params: &'a [CExpr],
    bind_slots: Arc<[u32]>,
    input: TupleIter<'a>,
) -> TupleIter<'a> {
    Box::new(input.flat_map(move |tuple| {
        let env = match tuple {
            Ok(e) => e,
            Err(e) => return one_err(e),
        };
        let slots = Arc::clone(&bind_slots);
        let param_vals = match eval_sql_params(cx, params, &env) {
            Ok(v) => v,
            Err(e) => return one_err(e),
        };
        cx.trace_roundtrip(tkey);
        match exec_sql(cx, connection, select, &param_vals) {
            Ok(rs) => Box::new(
                rs.rows
                    .into_iter()
                    .map(move |row| Ok(bind_row(&env, &slots, &row))),
            ) as TupleIter<'a>,
            Err(e) => one_err(e),
        }
    }))
}

// ---- middleware hash join (cost-based join planning) ------------------------------

/// A correlated `SqlFor` the join planner marked for middleware
/// execution: instead of one parameterized roundtrip per outer tuple
/// (the nested-loop probe of [`sql_for_plain`]), fetch the decorrelated
/// bulk statement **once**, build an equality index over it in the
/// middleware, and probe locally.
///
/// Output order is exactly the nested-loop order — per outer tuple, in
/// the bulk statement's scan order — so every strategy is byte-identical
/// to the naive plan. Two physical shapes:
///
/// * build-inner hash (default): hash all bulk rows by join key, probe
///   per outer tuple;
/// * build-outer hash (`mark.build_outer`, the planner's cardinality
///   reorder): buffer the estimated-smaller *outer* side instead, stream
///   the bulk scan against it keeping only matching rows, then emit
///   outer-major.
///
/// Every buffered row — bulk rows, and buffered outers under reorder —
/// is charged to the query's memory budget and released on drop, so a
/// tight [`QueryBudget`] surfaces the build's footprint as a typed
/// `BudgetExceeded` error.
struct HashJoinIter<'a> {
    cx: &'a ExecCtx,
    tkey: Option<TraceKey>,
    connection: &'a str,
    mark: &'a JoinMark,
    params: &'a [CExpr],
    bind_slots: Vec<u32>,
    input: TupleIter<'a>,
    /// The FLWOR's base tuple: what the bulk statement's
    /// (query-constant) parameters are evaluated against.
    base: Env,
    built: bool,
    /// Terminal failure already emitted: stop producing.
    failed: bool,
    /// Buffered rows (all bulk rows when building inner; matched bulk
    /// rows only when building outer).
    rows: Vec<Vec<SqlValue>>,
    /// Key literal → `rows` indices in scan order.
    lookup: HashMap<String, Vec<usize>>,
    /// Staged output (whole result under build-outer; the current outer
    /// tuple's matches otherwise).
    pending: std::collections::VecDeque<RtResult<Env>>,
    charged: u64,
    key_buf: String,
}

impl<'a> HashJoinIter<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        cx: &'a ExecCtx,
        tkey: Option<TraceKey>,
        connection: &'a str,
        mark: &'a JoinMark,
        params: &'a [CExpr],
        bind_slots: Vec<u32>,
        input: TupleIter<'a>,
        base: Env,
    ) -> HashJoinIter<'a> {
        HashJoinIter {
            cx,
            tkey,
            connection,
            mark,
            params,
            bind_slots,
            input,
            base,
            built: false,
            failed: false,
            rows: Vec::new(),
            lookup: HashMap::new(),
            pending: std::collections::VecDeque::new(),
            charged: 0,
            key_buf: String::new(),
        }
    }

    /// Charge one buffered row against the memory budget.
    fn charge_row(&mut self) -> RtResult<()> {
        self.cx.charge_mem(self.cx.tuple_mem)?;
        self.charged += self.cx.tuple_mem;
        Ok(())
    }

    /// The probe key for one outer tuple: `None` when the param is SQL
    /// NULL (which never equi-joins).
    fn probe_key(&mut self, env: &Env) -> RtResult<Option<String>> {
        let vals = eval_sql_params(self.cx, [&self.params[self.mark.key_param]], env)?;
        if vals.iter().any(|v| matches!(v, SqlValue::Null)) {
            return Ok(None);
        }
        self.key_buf.clear();
        values_key_into(&mut self.key_buf, &vals);
        Ok(Some(self.key_buf.clone()))
    }

    /// Fetch the decorrelated bulk statement (one roundtrip); its
    /// parameters are the clause's query-constant ones, in order.
    fn fetch_bulk(&mut self) -> RtResult<ResultSet> {
        let consts = (self.params.iter().enumerate())
            .filter(|(i, _)| *i != self.mark.key_param)
            .map(|(_, p)| p);
        let vals = eval_sql_params(self.cx, consts, &self.base)?;
        self.cx.trace_roundtrip(self.tkey);
        exec_sql(self.cx, self.connection, &self.mark.bulk, &vals)
    }

    /// The key literal of one bulk row; `None` for NULL keys, which can
    /// never match and are left out of the index.
    fn row_key(buf: &mut String, row: &[SqlValue], k: usize) -> Option<String> {
        let v = row.get(k)?;
        if matches!(v, SqlValue::Null) {
            return None;
        }
        buf.clear();
        values_key_into(buf, std::slice::from_ref(v));
        Some(buf.clone())
    }

    /// Build-inner: fetch all bulk rows up front and index them by key;
    /// probing streams the outer side.
    fn build_inner(&mut self) -> RtResult<()> {
        self.cx.inc(|s| &s.hash_joins);
        let rs = self.fetch_bulk()?;
        let k = self.mark.key_row_index;
        for row in rs.rows {
            self.charge_row()?;
            let i = self.rows.len();
            if let Some(key) = Self::row_key(&mut self.key_buf, &row, k) {
                self.lookup.entry(key).or_default().push(i);
            }
            self.rows.push(row);
        }
        let n = self.rows.len() as u64;
        self.cx.add(|s| &s.join_build_rows, n);
        self.cx.trace_record(
            self.tkey,
            NodeTrace {
                join_build_rows: n,
                ..Default::default()
            },
        );
        Ok(())
    }

    /// Build-outer (the planner's reorder): buffer the outer side and
    /// its probe keys, stream the bulk scan keeping only matching rows,
    /// then stage the whole outer-major output.
    fn build_outer(&mut self) -> RtResult<()> {
        self.cx.inc(|s| &s.hash_joins);
        self.cx.inc(|s| &s.join_reorders);
        // 1. drain + hash the outer side (errors keep their stream slot)
        let mut outers: Vec<RtResult<(Env, Option<String>)>> = Vec::new();
        while let Some(tuple) = self.input.next() {
            self.charge_row()?;
            outers.push(tuple.and_then(|env| {
                let key = self.probe_key(&env)?;
                Ok((env, key))
            }));
            if let Ok((_, Some(key))) = outers.last().expect("just pushed") {
                self.lookup
                    .entry(key.clone())
                    .or_default()
                    .push(outers.len() - 1);
            }
        }
        let n = outers.len() as u64;
        self.cx.add(|s| &s.join_build_rows, n);
        self.cx.trace_record(
            self.tkey,
            NodeTrace {
                join_build_rows: n,
                ..Default::default()
            },
        );
        // 2. stream the bulk scan, keeping matching rows only
        let rs = self.fetch_bulk()?;
        let k = self.mark.key_row_index;
        let mut matches: Vec<Vec<usize>> = vec![Vec::new(); outers.len()];
        for row in rs.rows {
            let Some(key) = Self::row_key(&mut self.key_buf, &row, k) else {
                continue;
            };
            if !self.lookup.contains_key(&key) {
                continue;
            }
            self.charge_row()?;
            let ri = self.rows.len();
            self.rows.push(row);
            for &oi in &self.lookup[&key] {
                matches[oi].push(ri);
            }
        }
        // 3. stage nested-loop order: per outer, bulk scan order
        for (oi, entry) in outers.into_iter().enumerate() {
            match entry {
                Err(e) => self.pending.push_back(Err(e)),
                Ok((_, None)) => {}
                Ok((env, Some(_))) => {
                    for &ri in &matches[oi] {
                        self.pending.push_back(Ok(bind_row(
                            &env,
                            &self.bind_slots,
                            &self.rows[ri],
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

impl Iterator for HashJoinIter<'_> {
    type Item = RtResult<Env>;

    fn next(&mut self) -> Option<Self::Item> {
        if !self.built {
            self.built = true;
            let r = if self.mark.build_outer {
                self.build_outer()
            } else {
                self.build_inner()
            };
            if let Err(e) = r {
                self.failed = true;
                return Some(Err(e));
            }
        }
        loop {
            if let Some(out) = self.pending.pop_front() {
                return Some(out);
            }
            if self.failed || self.mark.build_outer {
                return None;
            }
            // probe phase: one outer tuple at a time
            let env = match self.input.next()? {
                Ok(env) => env,
                Err(e) => return Some(Err(e)),
            };
            let key = match self.probe_key(&env) {
                Ok(Some(k)) => k,
                Ok(None) => continue,
                Err(e) => return Some(Err(e)),
            };
            if let Some(idxs) = self.lookup.get(&key) {
                for &ri in idxs {
                    self.pending
                        .push_back(Ok(bind_row(&env, &self.bind_slots, &self.rows[ri])));
                }
            }
        }
    }
}

impl Drop for HashJoinIter<'_> {
    fn drop(&mut self) {
        self.cx.release_mem(self.charged);
    }
}

// ---- the PP-k distributed join (§4.2, §5.2) ---------------------------------------

/// PP-k: pull up to `k` outer tuples, fetch all joining inner rows with
/// one disjunctive parameterized query, join locally (nested loop or
/// index nested loop), repeat. "This method provides an excellent
/// tradeoff between the required middleware join memory footprint …
/// and the latency imposed by roundtrips to the source" — the
/// `ppk_sweep` bench measures exactly that.
struct PpkIter<'a> {
    cx: &'a ExecCtx,
    /// This clause's trace key, when tracing is on.
    tkey: Option<TraceKey>,
    input: TupleIter<'a>,
    connection: &'a str,
    select: &'a Select,
    base_params: &'a [CExpr],
    /// Outer tuples per block: `spec.k`, or 1 when a base parameter is
    /// tuple-dependent.
    k: usize,
    /// Frame slots of the bound result columns (last is the tuple id
    /// when `spec.outer_join` is set).
    bind_slots: Vec<u32>,
    spec: &'a PpkSpec,
    buffer: std::collections::VecDeque<RtResult<Env>>,
    /// Blocks whose fetch has been issued but not yet joined, oldest
    /// first; never longer than `spec.prefetch_depth.max(1)`.
    pending: std::collections::VecDeque<PendingBlock>,
    /// An error hit while staging a later block. It is emitted only
    /// after every earlier pending block has drained, so the output
    /// stream is identical to the synchronous (depth 0) execution.
    staging_err: Option<RtError>,
    tid: u64,
    input_done: bool,
    exhausted: bool,
    /// Scratch for local-join key building (reused across rows/blocks).
    key_buf: String,
    /// Bytes currently charged against the budget for `buffer` contents
    /// (the materialized array-tuples of the block join, §4.2).
    buffered_charge: u64,
}

/// One block of outer tuples with their evaluated key values.
type OuterBlock = Vec<(Env, Vec<Option<AtomicValue>>)>;

/// A staged block awaiting its local join.
struct PendingBlock {
    block: OuterBlock,
    fetch: BlockFetch,
}

enum BlockFetch {
    /// Rows already in hand (nothing was fetchable, or prefetch is off).
    Ready(Vec<Vec<SqlValue>>),
    /// A parameterized block fetch running on a background thread.
    InFlight(std::thread::JoinHandle<RtResult<ResultSet>>),
}

impl PpkIter<'_> {
    /// Abort the block join: emit `e` after already-buffered tuples and
    /// stop staging further fetches.
    fn fail_buffer(&mut self, e: RtError) {
        self.buffer.push_back(Err(e));
        self.join_pending();
        self.staging_err = None;
        self.exhausted = true;
    }

    /// Drop every staged block, first waiting out each helper still
    /// fetching one, so no helper outlives the join. The wait is one
    /// roundtrip at most, and a budgeted query's roundtrip sleep is
    /// interruptible. A helper's rows, error or panic are discarded: the
    /// join has stopped before its block, where depth 0 would never
    /// have fetched it.
    fn join_pending(&mut self) {
        for PendingBlock { fetch, .. } in self.pending.drain(..) {
            if let BlockFetch::InFlight(handle) = fetch {
                let _ = handle.join();
            }
        }
    }

    /// Pull up to `k` outer tuples and evaluate their key expressions.
    /// `None` means the input is done — either exhausted or errored (the
    /// error lands in `staging_err` and the partial block is dropped).
    fn read_block(&mut self) -> Option<OuterBlock> {
        let k = self.k;
        let mut block: OuterBlock = Vec::with_capacity(k);
        while block.len() < k {
            match self.input.next() {
                Some(Ok(env)) => {
                    let mut keys = Vec::with_capacity(self.spec.outer_keys.len());
                    for kexpr in &self.spec.outer_keys {
                        // atomized below, so the `data` wrapper is skipped
                        // and the inner expression goes through `eval`
                        match eval(self.cx, skip_data(kexpr), &env) {
                            Ok(v) => keys.push(atomize_first_val(&v)),
                            Err(e) => {
                                self.staging_err = Some(e);
                                self.input_done = true;
                                return None;
                            }
                        }
                    }
                    block.push((env, keys));
                }
                Some(Err(e)) => {
                    self.staging_err = Some(e);
                    self.input_done = true;
                    return None;
                }
                None => {
                    self.input_done = true;
                    break;
                }
            }
        }
        if block.is_empty() {
            None
        } else {
            Some(block)
        }
    }

    /// Issue the block's disjunctive parameterized fetch — on a helper
    /// thread when `helper` is set, on this thread otherwise.
    fn start_fetch(&mut self, block: &OuterBlock, helper: bool) -> RtResult<BlockFetch> {
        self.cx.add(|s| &s.ppk_outer_tuples, block.len() as u64);
        // tuples whose keys contain an empty value can't join
        let fetchable: Vec<usize> = block
            .iter()
            .enumerate()
            .filter(|(_, (_, keys))| keys.iter().all(Option::is_some))
            .map(|(i, _)| i)
            .collect();
        if fetchable.is_empty() {
            return Ok(BlockFetch::Ready(Vec::new()));
        }
        // build the disjunctive block predicate and parameter list
        let mut select = self.select.clone();
        let base = eval_sql_params(self.cx, self.base_params, &block[fetchable[0]].0)?;
        let pred = ppk_block_predicate(&self.spec.key_columns, fetchable.len(), base.len());
        select.where_ = Some(match select.where_.take() {
            Some(w) => w.and(pred),
            None => pred,
        });
        let mut params = base;
        for &i in &fetchable {
            for key in &block[i].1 {
                let v = key.as_ref().expect("fetchable keys are non-empty");
                let ty = SqlType::from_xml_type(v.type_of()).unwrap_or(SqlType::Varchar);
                params.push(SqlValue::from_xml(Some(v), ty).map_err(RtError::Plan)?);
            }
        }
        self.cx.inc(|s| &s.ppk_blocks);
        self.cx.trace_roundtrip(self.tkey);
        if !helper {
            return Ok(BlockFetch::Ready(
                exec_sql(self.cx, self.connection, &select, &params)?.rows,
            ));
        }
        self.cx.inc(|s| &s.ppk_prefetched_blocks);
        let cx = self.cx.clone();
        let connection = self.connection.to_string();
        Ok(BlockFetch::InFlight(std::thread::spawn(move || {
            exec_sql(&cx, &connection, &select, &params)
        })))
    }

    /// Keep up to `target` block fetches staged ahead of the consumer;
    /// `joining` says a block popped off the window awaits its join.
    fn stage_blocks(&mut self, target: usize, joining: bool) {
        while self.pending.len() < target && !self.input_done && self.staging_err.is_none() {
            let Some(block) = self.read_block() else {
                break;
            };
            // A block the outer input ended inside, with no other block
            // in flight or awaiting its join, is the whole join: nothing
            // could overlap its fetch, so a helper would only add a
            // thread spawn and a join.
            let overlap = block.len() == self.k || joining || !self.pending.is_empty();
            let helper = self.spec.prefetch_depth > 0 && overlap;
            match self.start_fetch(&block, helper) {
                Ok(fetch) => self.pending.push_back(PendingBlock { block, fetch }),
                Err(e) => {
                    // drop the block; the error surfaces once earlier
                    // blocks drain, preserving depth-0 output order
                    self.staging_err = Some(e);
                    self.input_done = true;
                }
            }
        }
    }

    /// Wait for a fetch's rows, timing how long the consumer blocked.
    fn resolve_fetch(&mut self, fetch: BlockFetch) -> RtResult<Vec<Vec<SqlValue>>> {
        match fetch {
            BlockFetch::Ready(rows) => Ok(rows),
            BlockFetch::InFlight(handle) => {
                let t0 = std::time::Instant::now();
                let joined = handle.join();
                self.cx
                    .add(|s| &s.ppk_prefetch_wait_ns, t0.elapsed().as_nanos() as u64);
                match joined {
                    Ok(r) => Ok(r?.rows),
                    Err(_) => Err(RtError::Plan("PP-k prefetch thread panicked".into())),
                }
            }
        }
    }

    fn fill_block(&mut self) {
        let depth = self.spec.prefetch_depth;
        self.stage_blocks(depth.max(1), false);
        let Some(PendingBlock { block, fetch }) = self.pending.pop_front() else {
            if let Some(e) = self.staging_err.take() {
                self.buffer.push_back(Err(e));
            }
            self.exhausted = true;
            return;
        };
        // top the window back up *before* joining, so the next fetches
        // overlap this block's local join and downstream consumption
        self.stage_blocks(depth, true);
        match self.resolve_fetch(fetch) {
            Ok(rows) => self.join_block(block, rows),
            Err(e) => self.fail_buffer(e),
        }
    }

    /// The middleware-side join of one fetched block (§5.2).
    fn join_block(&mut self, block: OuterBlock, rows: Vec<Vec<SqlValue>>) {
        // local join: index nested loop builds a hash on the block's rows
        let index: Option<HashMap<String, Vec<usize>>> = match self.spec.local_method {
            LocalJoinMethod::IndexNestedLoop => {
                let mut idx: HashMap<String, Vec<usize>> = HashMap::new();
                for (ri, row) in rows.iter().enumerate() {
                    row_key_into(&mut self.key_buf, row, &self.spec.bind_key_indices);
                    // only allocate an owned key for first occurrences
                    match idx.get_mut(self.key_buf.as_str()) {
                        Some(v) => v.push(ri),
                        None => {
                            idx.insert(self.key_buf.clone(), vec![ri]);
                        }
                    }
                }
                Some(idx)
            }
            LocalJoinMethod::NestedLoop => None,
        };
        // copied out so the loop below can mutate self (key_buf, buffer)
        let (field_slots, tid_slot): (Vec<u32>, Option<u32>) = if self.spec.outer_join {
            // last bind is the tuple id
            let (last, rest) = self.bind_slots.split_last().expect("outer join binds");
            (rest.to_vec(), Some(*last))
        } else {
            (self.bind_slots.clone(), None)
        };
        for (env, keys) in block {
            let tid = self.tid;
            self.tid += 1;
            let joinable = keys.iter().all(Option::is_some);
            let matches: Vec<usize> = if !joinable {
                Vec::new()
            } else {
                let key_vals: Vec<SqlValue> = keys
                    .iter()
                    .map(|k| {
                        let v = k.as_ref().expect("joinable");
                        let ty = SqlType::from_xml_type(v.type_of()).unwrap_or(SqlType::Varchar);
                        SqlValue::from_xml(Some(v), ty).unwrap_or(SqlValue::Null)
                    })
                    .collect();
                match &index {
                    Some(idx) => {
                        values_key_into(&mut self.key_buf, &key_vals);
                        idx.get(self.key_buf.as_str()).cloned().unwrap_or_default()
                    }
                    None => rows
                        .iter()
                        .enumerate()
                        .filter(|(_, row)| {
                            self.spec
                                .bind_key_indices
                                .iter()
                                .zip(&key_vals)
                                .all(|(&ci, kv)| row[ci].group_eq(kv))
                        })
                        .map(|(i, _)| i)
                        .collect(),
                }
            };
            if matches.is_empty() && self.spec.outer_join {
                // unmatched outer tuple: empty fields + tuple id
                let mut w = env.writer();
                for &slot in &field_slots {
                    w.set_empty(slot);
                }
                w.set_item(tid_slot.expect("outer join"), Item::int(tid as i64));
                if let Err(e) = self.cx.charge_mem(self.cx.tuple_mem) {
                    self.fail_buffer(e);
                    return;
                }
                self.buffered_charge += self.cx.tuple_mem;
                self.buffer.push_back(Ok(w.finish()));
            } else {
                for ri in matches {
                    let mut w = env.writer();
                    for (&slot, v) in field_slots.iter().zip(&rows[ri]) {
                        match v.to_xml() {
                            Some(x) => w.set_item(slot, Item::Atomic(x)),
                            None => w.set_empty(slot),
                        }
                    }
                    if let Some(ts) = tid_slot {
                        w.set_item(ts, Item::int(tid as i64));
                    }
                    if let Err(e) = self.cx.charge_mem(self.cx.tuple_mem) {
                        self.fail_buffer(e);
                        return;
                    }
                    self.buffered_charge += self.cx.tuple_mem;
                    self.buffer.push_back(Ok(w.finish()));
                }
            }
        }
    }
}

impl Iterator for PpkIter<'_> {
    type Item = RtResult<Env>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(x) = self.buffer.pop_front() {
                // the consumer took a buffered tuple: return its charge
                if x.is_ok() && self.buffered_charge >= self.cx.tuple_mem {
                    self.buffered_charge -= self.cx.tuple_mem;
                    self.cx.release_mem(self.cx.tuple_mem);
                }
                return Some(x);
            }
            if self.exhausted {
                return None;
            }
            self.fill_block();
            if self.buffer.is_empty() && self.exhausted {
                return None;
            }
        }
    }
}

impl Drop for PpkIter<'_> {
    fn drop(&mut self) {
        // at early stop, wait out the helpers still fetching ahead
        self.join_pending();
        // return the charge for tuples still buffered at early stop
        self.cx.release_mem(self.buffered_charge);
    }
}

fn row_key_into(buf: &mut String, row: &[SqlValue], indices: &[usize]) {
    buf.clear();
    for &i in indices {
        row[i].sql_literal_into(buf);
        buf.push('\u{1}');
    }
}

fn values_key_into(buf: &mut String, vals: &[SqlValue]) {
    buf.clear();
    for v in vals {
        v.sql_literal_into(buf);
        buf.push('\u{1}');
    }
}
