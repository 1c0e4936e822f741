//! The expression VM: a zero-recursion executor for the compiler's
//! bytecode [`Program`]s (the execute-many half of compile-once /
//! execute-many).
//!
//! A [`Program`] is compiled once per cached plan; an [`ExprVM`] is a
//! reusable operand stack that runs it against one tuple frame per
//! call. The hot path allocates nothing per tuple: the stack is
//! pre-sized from the program's simulated peak depth, frame reads
//! share the slot's sequence (`Arc` bump or inline-item clone, never an
//! item copy of a `Many` cell), and every op that merely inspects its
//! operand — comparisons, EBV, casts of singletons — works on borrowed
//! slices via [`Val::as_slice`].
//!
//! Every op mirrors the corresponding tree-walker arm in
//! [`crate::eval`] exactly (builtins go through the *shared*
//! `apply_builtin` kernel), so a compiled subtree and its interpreted
//! fallback are byte-identical by construction — the property the
//! differential oracle's `vm {on,off}` axis checks.

use crate::env::Env;
use crate::eval::{apply_builtin, descend, pick_const_positional, unbound_variable, RtResult};
use aldsp_compiler::program::{Op, Program};
use aldsp_xdm::item::{
    arithmetic, atomize, effective_boolean_value, general_compare, value_compare, Item, Sequence,
};
use aldsp_xdm::value::{AtomicType, AtomicValue};
use aldsp_xdm::XdmError;
use std::sync::Arc;

/// The runtime's one transient sequence value — what the walker's
/// `eval` returns, what the VM stack holds and what a frame slot reads
/// out as: empty, a single inline item, a slot's sequence shared by
/// refcount, or an owned vector. It becomes a plain `Sequence` only
/// where items leave the evaluator (the result sink, adaptor and
/// function-cache arguments).
#[derive(Clone, Debug)]
pub enum Val {
    Empty,
    One(Item),
    Shared(Arc<Sequence>),
    Owned(Sequence),
}

impl Val {
    /// Wrap an owned sequence, collapsing the cheap cardinalities.
    pub fn of(mut s: Sequence) -> Val {
        match s.len() {
            0 => Val::Empty,
            1 => Val::One(s.pop().expect("len 1")),
            _ => Val::Owned(s),
        }
    }

    /// A singleton boolean (the commonest op result).
    pub fn bool(b: bool) -> Val {
        Val::One(Item::Atomic(AtomicValue::Boolean(b)))
    }

    /// Borrow the underlying items.
    #[inline]
    pub fn as_slice(&self) -> &[Item] {
        match self {
            Val::Empty => &[],
            Val::One(item) => std::slice::from_ref(item),
            Val::Shared(s) => s.as_slice(),
            Val::Owned(s) => s.as_slice(),
        }
    }

    /// Append the items to `out`, moving the ones this value owns.
    pub(crate) fn append_to(self, out: &mut Sequence) {
        match self {
            Val::Empty => {}
            Val::One(item) => out.push(item),
            Val::Shared(a) => out.extend_from_slice(&a),
            Val::Owned(s) => out.extend(s),
        }
    }

    /// Convert to an owned sequence; shared values clone their items
    /// only when another reference is still alive.
    pub fn into_sequence(self) -> Sequence {
        match self {
            Val::Empty => Vec::new(),
            Val::One(item) => vec![item],
            Val::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()),
            Val::Owned(s) => s,
        }
    }
}

/// The first atomized value — the order-by / group-by / PP-k key shape.
pub(crate) fn atomize_first_val(v: &Val) -> Option<AtomicValue> {
    match v.as_slice() {
        [] => None,
        [Item::Atomic(a)] => Some(a.clone()),
        [Item::Node(n)] => n.typed_value(),
        s => atomize(s).into_iter().next(),
    }
}

/// A `Range` bound: the value's single atomized item cast to integer.
pub(crate) fn single_integer_val(v: &Val) -> RtResult<Option<i64>> {
    let a = atomize(v.as_slice());
    match a.as_slice() {
        [] => Ok(None),
        [one] => match one.cast_to(AtomicType::Integer)? {
            AtomicValue::Integer(i) => Ok(Some(i)),
            _ => unreachable!("cast to integer"),
        },
        _ => Err(XdmError::NotSingleton(a.len()).into()),
    }
}

/// A reusable operand stack. One per hot call site (clause closures own
/// theirs; the generic `eval` probe uses a thread-local).
#[derive(Default)]
pub struct ExprVM {
    stack: Vec<Val>,
}

impl ExprVM {
    pub fn new() -> ExprVM {
        ExprVM::default()
    }

    /// Execute `prog` against one tuple frame, leaving the expression's
    /// value. `ops` accumulates the executed-op count locally; callers
    /// flush it to stats at operator granularity, never per tuple.
    pub fn run(&mut self, prog: &Program, env: &Env, ops: &mut u64) -> RtResult<Val> {
        self.stack.clear();
        self.stack.reserve(prog.max_stack as usize);
        let code = prog.ops.as_slice();
        let mut pc = 0usize;
        let mut executed = 0u64;
        let result = loop {
            if pc >= code.len() {
                break Ok(self.stack.pop().expect("program leaves one value"));
            }
            executed += 1;
            match code[pc] {
                Op::Const(i) => self
                    .stack
                    .push(Val::One(Item::Atomic(prog.consts[i as usize].clone()))),
                Op::Var { slot, name } => match env.slot_value(slot) {
                    Some(v) => self.stack.push(v),
                    None => break Err(unbound_variable(&prog.names[name as usize])),
                },
                Op::Seq(n) => {
                    let start = self.stack.len() - n as usize;
                    let total: usize = self.stack[start..].iter().map(|v| v.as_slice().len()).sum();
                    let v = if total <= 1 {
                        // at most one item: pass its operand on as it is
                        self.stack
                            .drain(start..)
                            .find(|v| !v.as_slice().is_empty())
                            .unwrap_or(Val::Empty)
                    } else {
                        let mut out: Sequence = Vec::with_capacity(total);
                        for v in self.stack.drain(start..) {
                            v.append_to(&mut out);
                        }
                        Val::of(out)
                    };
                    self.stack.push(v);
                }
                Op::Range => {
                    let hi = self.stack.pop().expect("range hi");
                    let lo = self.stack.pop().expect("range lo");
                    let bounds = single_integer_val(&lo)
                        .and_then(|lo| single_integer_val(&hi).map(|hi| (lo, hi)));
                    let v = match bounds {
                        Ok((Some(lo), Some(hi))) if lo <= hi => {
                            Val::of((lo..=hi).map(Item::int).collect())
                        }
                        Ok(_) => Val::Empty,
                        Err(e) => break Err(e),
                    };
                    self.stack.push(v);
                }
                Op::Ebv => {
                    let v = self.stack.pop().expect("ebv operand");
                    match effective_boolean_value(v.as_slice()) {
                        Ok(b) => self.stack.push(Val::bool(b)),
                        Err(e) => break Err(e.into()),
                    }
                }
                Op::AndShort(target) => {
                    let v = self.stack.pop().expect("and operand");
                    match effective_boolean_value(v.as_slice()) {
                        Ok(false) => {
                            self.stack.push(Val::bool(false));
                            pc = target as usize;
                            continue;
                        }
                        Ok(true) => {}
                        Err(e) => break Err(e.into()),
                    }
                }
                Op::OrShort(target) => {
                    let v = self.stack.pop().expect("or operand");
                    match effective_boolean_value(v.as_slice()) {
                        Ok(true) => {
                            self.stack.push(Val::bool(true));
                            pc = target as usize;
                            continue;
                        }
                        Ok(false) => {}
                        Err(e) => break Err(e.into()),
                    }
                }
                Op::JumpIfFalse(target) => {
                    let v = self.stack.pop().expect("condition");
                    match effective_boolean_value(v.as_slice()) {
                        Ok(false) => {
                            pc = target as usize;
                            continue;
                        }
                        Ok(true) => {}
                        Err(e) => break Err(e.into()),
                    }
                }
                Op::Jump(target) => {
                    pc = target as usize;
                    continue;
                }
                Op::Compare { op, general } => {
                    let r = self.stack.pop().expect("rhs");
                    let l = self.stack.pop().expect("lhs");
                    let v = if general {
                        match general_compare(l.as_slice(), op, r.as_slice()) {
                            Ok(b) => Val::bool(b),
                            Err(e) => break Err(e.into()),
                        }
                    } else {
                        match value_compare(l.as_slice(), op, r.as_slice()) {
                            Ok(Some(b)) => Val::bool(b),
                            Ok(None) => Val::Empty,
                            Err(e) => break Err(e.into()),
                        }
                    };
                    self.stack.push(v);
                }
                Op::Arith(op) => {
                    let r = self.stack.pop().expect("rhs");
                    let l = self.stack.pop().expect("lhs");
                    match arithmetic(l.as_slice(), op, r.as_slice()) {
                        Ok(Some(v)) => self.stack.push(Val::One(Item::Atomic(v))),
                        Ok(None) => self.stack.push(Val::Empty),
                        Err(e) => break Err(e.into()),
                    }
                }
                Op::Data => {
                    let v = self.stack.pop().expect("data operand");
                    match v.as_slice() {
                        // the pipeline's hot shape: one node, one value
                        [Item::Node(n)] => self.stack.push(match n.typed_value() {
                            Some(a) => Val::One(Item::Atomic(a)),
                            None => Val::Empty,
                        }),
                        // atomization of an all-atomic sequence is itself
                        s if s.iter().all(|i| matches!(i, Item::Atomic(_))) => {
                            self.stack.push(v);
                        }
                        s => {
                            let out = atomize(s).into_iter().map(Item::Atomic).collect();
                            self.stack.push(Val::of(out));
                        }
                    }
                }
                Op::ChildStep(name) => {
                    let v = self.stack.pop().expect("step input");
                    // the pipeline's hot shape — one node, a named child
                    // that occurs 0 or 1 times — never touches the heap
                    if let ([Item::Node(n)], Some(q)) = (v.as_slice(), name) {
                        let mut it = n.child_elements(&prog.qnames[q as usize]);
                        let out = match it.next() {
                            None => Val::Empty,
                            Some(first) => match it.next() {
                                None => Val::One(Item::Node(first.clone())),
                                Some(second) => {
                                    let mut out =
                                        vec![Item::Node(first.clone()), Item::Node(second.clone())];
                                    out.extend(it.cloned().map(Item::Node));
                                    Val::Owned(out)
                                }
                            },
                        };
                        self.stack.push(out);
                        pc += 1;
                        continue;
                    }
                    let mut out = Vec::new();
                    for item in v.as_slice() {
                        if let Item::Node(n) = item {
                            match name {
                                Some(q) => out.extend(
                                    n.child_elements(&prog.qnames[q as usize])
                                        .cloned()
                                        .map(Item::Node),
                                ),
                                None => out.extend(n.all_child_elements().cloned().map(Item::Node)),
                            }
                        }
                    }
                    self.stack.push(Val::of(out));
                }
                Op::AttrStep(name) => {
                    let v = self.stack.pop().expect("step input");
                    let mut out = Vec::new();
                    for item in v.as_slice() {
                        if let Item::Node(n) = item {
                            match name {
                                Some(q) => {
                                    if let Some(a) = n.attribute_named(&prog.qnames[q as usize]) {
                                        out.push(Item::Node(a.clone()));
                                    }
                                }
                                None => out.extend(n.attributes().iter().cloned().map(Item::Node)),
                            }
                        }
                    }
                    self.stack.push(Val::of(out));
                }
                Op::DescendantStep => {
                    let v = self.stack.pop().expect("step input");
                    let mut out = Vec::new();
                    for item in v.as_slice() {
                        if let Item::Node(n) = item {
                            descend(n, &mut out);
                        }
                    }
                    self.stack.push(Val::of(out));
                }
                Op::Cast { target, optional } => {
                    let v = self.stack.pop().expect("cast input");
                    let r = match v.as_slice() {
                        // singleton-atomic fast path: atomization is identity
                        [Item::Atomic(a)] => a.cast_to(target).map(|c| Val::One(Item::Atomic(c))),
                        s => {
                            let av = atomize(s);
                            match av.as_slice() {
                                [] if optional => Ok(Val::Empty),
                                [] => Err(XdmError::Cast {
                                    value: "()".into(),
                                    target,
                                }),
                                [one] => one.cast_to(target).map(|c| Val::One(Item::Atomic(c))),
                                _ => Err(XdmError::NotSingleton(av.len())),
                            }
                        }
                    };
                    match r {
                        Ok(v) => self.stack.push(v),
                        Err(e) => break Err(e.into()),
                    }
                }
                Op::Castable(target) => {
                    let v = self.stack.pop().expect("castable input");
                    let ok = match v.as_slice() {
                        [Item::Atomic(a)] => a.cast_to(target).is_ok(),
                        s => {
                            let av = atomize(s);
                            match av.as_slice() {
                                [] => true,
                                [one] => one.cast_to(target).is_ok(),
                                _ => false,
                            }
                        }
                    };
                    self.stack.push(Val::bool(ok));
                }
                Op::InstanceOf(ti) => {
                    let v = self.stack.pop().expect("instance-of input");
                    let ok = prog.types[ti as usize].matches(v.as_slice());
                    self.stack.push(Val::bool(ok));
                }
                Op::TypeMatch(ti) => {
                    let v = self.stack.pop().expect("type-match input");
                    let ty = &prog.types[ti as usize];
                    if ty.matches(v.as_slice()) {
                        self.stack.push(v);
                    } else {
                        break Err(XdmError::TypeMatch {
                            expected: ty.to_string(),
                            actual: format!("a sequence of {} item(s)", v.as_slice().len()),
                        }
                        .into());
                    }
                }
                Op::Call { op, argc } => {
                    let start = self.stack.len() - argc as usize;
                    match apply_builtin(op, &self.stack[start..]) {
                        Ok(v) => {
                            self.stack.truncate(start);
                            self.stack.push(v);
                        }
                        Err(e) => break Err(e),
                    }
                }
                Op::PickConst(n) => {
                    let v = self.stack.pop().expect("filter input");
                    let picked = match pick_const_positional(v.as_slice(), n) {
                        Some(item) => Val::One(item),
                        None => Val::Empty,
                    };
                    self.stack.push(picked);
                }
            }
            pc += 1;
        };
        *ops += executed;
        if result.is_err() {
            self.stack.clear();
        }
        result
    }
}
