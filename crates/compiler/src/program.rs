//! Compile-once/execute-many bytecode programs for scalar expression
//! subtrees (the paper's §3.3 "compiled plan" taken one level further).
//!
//! This pass runs **after** [`crate::frames`] so every `CKind::Var` it
//! sees carries its final frame slot, and after `assign_node_ids` so a
//! compiled subtree can be keyed by its root's `node_id`. It lowers the
//! scalar-shaped fragments of the plan — comparisons, arithmetic,
//! boolean connectives, casts, path steps, constant/var reads, strict
//! builtins, constant positional filters — into immutable [`Program`]s
//! (a flat op vector plus constant pools) stored in the cached plan and
//! shared via `Arc`. The runtime's `ExprVM` executes a `Program` with a
//! pre-sized operand stack and zero recursion.
//!
//! Coverage is deliberately partial: shapes with their own iteration or
//! construction machinery (FLWORs, quantifiers, typeswitch, element
//! constructors, user/physical calls, general filters) are *not*
//! lowered. The walker keeps evaluating those, and any compiled subtree
//! underneath them is picked up by the runtime's per-node program
//! probe, so results are byte-identical by construction and coverage
//! can grow incrementally. Each uncovered subtree root is counted in
//! [`ProgramSet::fallback_subtrees`] and surfaced in per-query stats.

use crate::ir::{Builtin, CExpr, CKind, NO_SLOT};
use aldsp_xdm::item::CompOp;
use aldsp_xdm::types::SequenceType;
use aldsp_xdm::value::{ArithOp, AtomicType, AtomicValue};
use aldsp_xdm::QName;
use std::fmt;
use std::sync::Arc;

/// One VM instruction. Operands reference the owning [`Program`]'s
/// pools by index; jump targets are absolute op indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push the pooled constant as a singleton sequence.
    Const(u16),
    /// Push the frame slot's value (shared, not copied). `name` indexes
    /// the name pool and is only used for the unbound-variable error.
    Var { slot: u32, name: u16 },
    /// Pop `n` values and push their concatenation.
    Seq(u16),
    /// Pop `hi`, `lo`; push the integer range `lo to hi`.
    Range,
    /// Pop a value; push its effective boolean value.
    Ebv,
    /// Pop a value; if its EBV is false push `false` and jump, else
    /// fall through (the `and` short-circuit).
    AndShort(u32),
    /// Pop a value; if its EBV is true push `true` and jump, else fall
    /// through (the `or` short-circuit).
    OrShort(u32),
    /// Pop a value; jump when its EBV is false.
    JumpIfFalse(u32),
    /// Unconditional jump.
    Jump(u32),
    /// Pop `rhs`, `lhs`; push the comparison result.
    Compare { op: CompOp, general: bool },
    /// Pop `rhs`, `lhs`; push the arithmetic result.
    Arith(ArithOp),
    /// Pop a value; push its atomization.
    Data,
    /// Pop a value; push the matching child elements of its nodes.
    ChildStep(Option<u16>),
    /// Pop a value; push the matching attributes of its nodes.
    AttrStep(Option<u16>),
    /// Pop a value; push its descendant elements, document order.
    DescendantStep,
    /// Pop a value; push `cast as` on its atomization.
    Cast { target: AtomicType, optional: bool },
    /// Pop a value; push whether the cast would succeed.
    Castable(AtomicType),
    /// Pop a value; push whether it matches the pooled sequence type.
    InstanceOf(u16),
    /// Pop a value; push it back if it matches the pooled sequence
    /// type, else raise the type-match error.
    TypeMatch(u16),
    /// Pop `argc` arguments; push the builtin's result.
    Call { op: Builtin, argc: u8 },
    /// Pop a value; push its `n`th item (1-based), or empty. The
    /// lowering of a constant positional filter.
    PickConst(i64),
}

/// An immutable compiled expression: flat ops plus the pools they
/// reference, shared by every execution of the cached plan.
#[derive(Debug, Default)]
pub struct Program {
    pub ops: Vec<Op>,
    pub consts: Vec<AtomicValue>,
    pub names: Vec<String>,
    pub qnames: Vec<QName>,
    pub types: Vec<SequenceType>,
    /// Worst-case operand-stack depth, so the VM reserves once and
    /// never reallocates mid-run.
    pub max_stack: u32,
}

impl Program {
    /// Render one op for EXPLAIN, resolving pool references.
    pub fn render_op(&self, op: &Op) -> String {
        match op {
            Op::Const(i) => format!("const {}", self.consts[*i as usize].string_value()),
            Op::Var { slot, name } => {
                format!("var slot={} (${})", slot, self.names[*name as usize])
            }
            Op::Seq(n) => format!("seq {n}"),
            Op::Range => "range".into(),
            Op::Ebv => "ebv".into(),
            Op::AndShort(t) => format!("and-short -> {t}"),
            Op::OrShort(t) => format!("or-short -> {t}"),
            Op::JumpIfFalse(t) => format!("jump-if-false -> {t}"),
            Op::Jump(t) => format!("jump -> {t}"),
            Op::Compare { op, general } => format!(
                "compare {} ({})",
                op.keyword(),
                if *general { "general" } else { "value" }
            ),
            Op::Arith(op) => format!("arith {op:?}"),
            Op::Data => "data".into(),
            Op::ChildStep(None) => "child::*".into(),
            Op::ChildStep(Some(i)) => format!("child::{}", self.qnames[*i as usize]),
            Op::AttrStep(None) => "attribute::*".into(),
            Op::AttrStep(Some(i)) => format!("attribute::{}", self.qnames[*i as usize]),
            Op::DescendantStep => "descendant::*".into(),
            Op::Cast { target, optional } => {
                format!("cast as {target}{}", if *optional { "?" } else { "" })
            }
            Op::Castable(t) => format!("castable as {t}"),
            Op::InstanceOf(i) => format!("instance of {}", self.types[*i as usize]),
            Op::TypeMatch(i) => format!("type-match {}", self.types[*i as usize]),
            Op::Call { op, argc } => format!("call {op:?}/{argc}"),
            Op::PickConst(n) => format!("pick {n}"),
        }
    }
}

/// The per-plan table of compiled programs, indexed by the root
/// `node_id` of each covered subtree (ids are pre-order from 1, so
/// index 0 is never used).
#[derive(Debug, Default)]
pub struct ProgramSet {
    progs: Vec<Option<Arc<Program>>>,
    /// Number of compiled subtrees.
    pub compiled: u32,
    /// Number of subtree roots the lowering declined — a static plan
    /// property, recorded once per execution in per-query stats.
    pub fallback_subtrees: u32,
}

impl ProgramSet {
    /// The program whose covered subtree is rooted at `node_id`, if any.
    #[inline]
    pub fn lookup(&self, node_id: u32) -> Option<&Arc<Program>> {
        self.progs.get(node_id as usize)?.as_ref()
    }

    /// True when the plan compiled no programs (lowering disabled or
    /// nothing coverable).
    pub fn is_empty(&self) -> bool {
        self.compiled == 0
    }

    /// Iterate `(node_id, program)` pairs in plan order (for EXPLAIN).
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Arc<Program>)> {
        self.progs
            .iter()
            .enumerate()
            .filter_map(|(id, p)| p.as_ref().map(|p| (id as u32, p)))
    }
}

impl fmt::Display for ProgramSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "programs={} fallback-subtrees={}",
            self.compiled, self.fallback_subtrees
        )
    }
}

/// Lower every coverable subtree of the finished plan. `node_count` is
/// the value returned by `assign_node_ids`.
pub fn lower_plan(plan: &CExpr, node_count: u32) -> ProgramSet {
    let mut set = ProgramSet {
        progs: vec![None; node_count as usize + 1],
        compiled: 0,
        fallback_subtrees: 0,
    };
    attempt(plan, &mut set);
    set
}

/// Try to compile the subtree rooted at `e`; on failure, count the
/// fallback and recurse so interior scalar fragments still compile.
fn attempt(e: &CExpr, set: &mut ProgramSet) {
    // A bare constant or variable read is already a single non-recursive
    // lookup in the walker's `eval`; a program would only add
    // dispatch. Not compiled, and not a fallback either.
    if matches!(e.kind, CKind::Const(_) | CKind::Var { .. }) {
        return;
    }
    if let Some(prog) = try_lower(e) {
        set.progs[e.node_id as usize] = Some(Arc::new(prog));
        set.compiled += 1;
        return; // the whole subtree is covered; nothing nests deeper
    }
    set.fallback_subtrees += 1;
    e.for_each_child(&mut |c| attempt(c, set));
}

/// Compile one subtree, or `None` when it contains an uncovered shape
/// (or overflows a u16 pool — never seen in practice).
fn try_lower(e: &CExpr) -> Option<Program> {
    let mut b = Builder::default();
    b.lower(e)?;
    debug_assert_eq!(b.depth, 1, "a program must leave exactly one value");
    Some(b.prog)
}

#[derive(Default)]
struct Builder {
    prog: Program,
    /// Simulated operand-stack depth at the current emission point.
    depth: u32,
}

impl Builder {
    /// Append `op` whose net stack effect is `delta`, returning its
    /// index (for jump patching).
    fn emit(&mut self, op: Op, delta: i32) -> usize {
        self.prog.ops.push(op);
        // Ops that pop-then-push never exceed the pre-op depth, so the
        // peak only moves on a net push.
        self.depth = self.depth.checked_add_signed(delta).expect("stack sim");
        self.prog.max_stack = self.prog.max_stack.max(self.depth);
        self.prog.ops.len() - 1
    }

    /// Point the jump at `at` to the current end of the program.
    fn patch(&mut self, at: usize) {
        let target = self.prog.ops.len() as u32;
        match &mut self.prog.ops[at] {
            Op::AndShort(t) | Op::OrShort(t) | Op::JumpIfFalse(t) | Op::Jump(t) => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn const_idx(&mut self, v: &AtomicValue) -> Option<u16> {
        pool_idx(&mut self.prog.consts, v)
    }

    fn name_idx(&mut self, n: &str) -> Option<u16> {
        match self.prog.names.iter().position(|x| x == n) {
            Some(i) => u16::try_from(i).ok(),
            None => {
                self.prog.names.push(n.to_string());
                u16::try_from(self.prog.names.len() - 1).ok()
            }
        }
    }

    fn qname_idx(&mut self, q: &QName) -> Option<u16> {
        pool_idx(&mut self.prog.qnames, q)
    }

    fn type_idx(&mut self, t: &SequenceType) -> Option<u16> {
        pool_idx(&mut self.prog.types, t)
    }

    /// Emit code that leaves exactly `e`'s value on the stack, or
    /// `None` when `e` contains an uncovered shape.
    fn lower(&mut self, e: &CExpr) -> Option<()> {
        match &e.kind {
            CKind::Const(v) => {
                let i = self.const_idx(v)?;
                self.emit(Op::Const(i), 1);
            }
            CKind::Var { name, slot } => {
                if *slot == NO_SLOT {
                    return None; // unframed (external/global) variable
                }
                let n = self.name_idx(name)?;
                self.emit(
                    Op::Var {
                        slot: *slot,
                        name: n,
                    },
                    1,
                );
            }
            CKind::Seq(parts) => {
                let n = u16::try_from(parts.len()).ok()?;
                for p in parts {
                    self.lower(p)?;
                }
                self.emit(Op::Seq(n), 1 - parts.len() as i32);
            }
            CKind::Range(lo, hi) => {
                self.lower(lo)?;
                self.lower(hi)?;
                self.emit(Op::Range, -1);
            }
            CKind::If { cond, then, els } => {
                self.lower(cond)?;
                let jf = self.emit(Op::JumpIfFalse(0), -1);
                self.lower(then)?;
                let jend = self.emit(Op::Jump(0), 0);
                self.depth -= 1; // the else arm re-pushes on its own path
                self.patch(jf);
                self.lower(els)?;
                self.patch(jend);
            }
            CKind::And(a, b) => {
                self.lower(a)?;
                // On the jump path the short-circuit pushes `false`, so
                // the peak depth already covers it.
                let js = self.emit(Op::AndShort(0), -1);
                self.lower(b)?;
                self.emit(Op::Ebv, 0);
                self.patch(js);
            }
            CKind::Or(a, b) => {
                self.lower(a)?;
                let js = self.emit(Op::OrShort(0), -1);
                self.lower(b)?;
                self.emit(Op::Ebv, 0);
                self.patch(js);
            }
            CKind::Compare {
                op,
                general,
                lhs,
                rhs,
            } => {
                self.lower(lhs)?;
                self.lower(rhs)?;
                self.emit(
                    Op::Compare {
                        op: *op,
                        general: *general,
                    },
                    -1,
                );
            }
            CKind::Arith { op, lhs, rhs } => {
                self.lower(lhs)?;
                self.lower(rhs)?;
                self.emit(Op::Arith(*op), -1);
            }
            CKind::Data(input) => {
                self.lower(input)?;
                self.emit(Op::Data, 0);
            }
            CKind::ChildStep { input, name } => {
                let q = match name {
                    Some(q) => Some(self.qname_idx(q)?),
                    None => None,
                };
                self.lower(input)?;
                self.emit(Op::ChildStep(q), 0);
            }
            CKind::AttrStep { input, name } => {
                let q = match name {
                    Some(q) => Some(self.qname_idx(q)?),
                    None => None,
                };
                self.lower(input)?;
                self.emit(Op::AttrStep(q), 0);
            }
            CKind::DescendantStep { input } => {
                self.lower(input)?;
                self.emit(Op::DescendantStep, 0);
            }
            CKind::Filter {
                input,
                predicate,
                positional,
                ..
            } => {
                // Only the constant positional form `e[3]` compiles; a
                // general predicate re-evaluates per item with a bound
                // context variable, which is the walker's job (the
                // predicate subtree is attempted separately).
                if !*positional {
                    return None;
                }
                let CKind::Const(c) = &predicate.kind else {
                    return None;
                };
                let Ok(AtomicValue::Integer(n)) = c.cast_to(AtomicType::Integer) else {
                    return None;
                };
                self.lower(input)?;
                self.emit(Op::PickConst(n), 0);
            }
            CKind::Builtin { op, args } => {
                // These three have their own evaluation regime (threads,
                // laziness, error capture) — walker only.
                if matches!(op, Builtin::Async | Builtin::Timeout | Builtin::FailOver) {
                    return None;
                }
                let argc = u8::try_from(args.len()).ok()?;
                for a in args {
                    self.lower(a)?;
                }
                self.emit(Op::Call { op: *op, argc }, 1 - args.len() as i32);
            }
            CKind::Cast {
                input,
                target,
                optional,
            } => {
                self.lower(input)?;
                self.emit(
                    Op::Cast {
                        target: *target,
                        optional: *optional,
                    },
                    0,
                );
            }
            CKind::Castable { input, target } => {
                self.lower(input)?;
                self.emit(Op::Castable(*target), 0);
            }
            CKind::InstanceOf { input, ty } => {
                let t = self.type_idx(ty)?;
                self.lower(input)?;
                self.emit(Op::InstanceOf(t), 0);
            }
            CKind::TypeMatch { input, ty } => {
                let t = self.type_idx(ty)?;
                self.lower(input)?;
                self.emit(Op::TypeMatch(t), 0);
            }
            // Shapes with their own iteration/construction machinery
            // stay on the walker.
            CKind::Flwor { .. }
            | CKind::Quantified { .. }
            | CKind::Typeswitch { .. }
            | CKind::ElementCtor { .. }
            | CKind::PhysicalCall { .. }
            | CKind::UserCall { .. }
            | CKind::Error(_) => return None,
        }
        Some(())
    }
}

fn pool_idx<T: Clone + PartialEq>(pool: &mut Vec<T>, v: &T) -> Option<u16> {
    match pool.iter().position(|x| x == v) {
        Some(i) => u16::try_from(i).ok(),
        None => {
            pool.push(v.clone());
            u16::try_from(pool.len() - 1).ok()
        }
    }
}
