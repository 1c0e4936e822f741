//! The compiler's expression tree (the paper's "internal form", §3.3
//! stage 2).
//!
//! Produced from the parser AST by [`crate::translate`] (normalization:
//! names resolved, scopes checked, implicit operations such as
//! atomization made explicit, variables alpha-renamed unique), then
//! refined in place by type checking, the optimizer rules and SQL
//! pushdown. The optimized tree **is** the executable plan: the runtime
//! crate interprets it, with the SQL-bearing [`Clause::SqlFor`] nodes
//! marking the regions that were pushed to relational sources and the
//! [`PpkSpec`] annotation selecting the paper's PP-k distributed join.

use aldsp_relational::{ScalarExpr, Select};
use aldsp_xdm::item::CompOp;
use aldsp_xdm::types::SequenceType;
use aldsp_xdm::value::{ArithOp, AtomicType, AtomicValue};
use aldsp_xdm::QName;
use std::collections::HashSet;

pub use aldsp_parser::ast::Span;

/// A typed compiler expression.
#[derive(Debug, Clone)]
pub struct CExpr {
    /// The node kind.
    pub kind: CKind,
    /// The inferred static type (filled by the type checker; `item()*`
    /// until then).
    pub ty: SequenceType,
    /// Source location.
    pub span: Span,
    /// Stable plan-node identifier, assigned pre-order by
    /// [`CExpr::assign_node_ids`] after optimization (0 = unassigned).
    /// Shared between EXPLAIN output and runtime operator traces.
    pub node_id: u32,
}

/// Equality ignores `node_id`: two structurally identical plans compare
/// equal whether or not ids have been assigned yet.
impl PartialEq for CExpr {
    fn eq(&self, other: &CExpr) -> bool {
        self.kind == other.kind && self.ty == other.ty && self.span == other.span
    }
}

impl CExpr {
    /// Construct an untyped node (type to be inferred).
    pub fn new(kind: CKind, span: Span) -> CExpr {
        CExpr {
            kind,
            ty: SequenceType::any(),
            span,
            node_id: 0,
        }
    }

    /// The empty sequence `()`.
    pub fn empty(span: Span) -> CExpr {
        CExpr {
            kind: CKind::Seq(Vec::new()),
            ty: SequenceType::Empty,
            span,
            node_id: 0,
        }
    }

    /// A constant.
    pub fn constant(v: AtomicValue, span: Span) -> CExpr {
        let ty = SequenceType::atomic(v.type_of());
        CExpr {
            kind: CKind::Const(v),
            ty,
            span,
            node_id: 0,
        }
    }

    /// A variable reference (unslotted until the frame-layout pass).
    pub fn var(name: &str, span: Span) -> CExpr {
        CExpr::new(
            CKind::Var {
                name: name.to_string(),
                slot: NO_SLOT,
            },
            span,
        )
    }
}

/// Sentinel slot for variables the frame-layout pass has not (or could
/// not) resolve; the runtime reports these as unbound by name.
pub const NO_SLOT: u32 = u32::MAX;

/// Expression kinds after normalization.
#[derive(Debug, Clone, PartialEq)]
pub enum CKind {
    /// A literal atomic value.
    Const(AtomicValue),
    /// A variable reference (alpha-renamed unique). `slot` is the dense
    /// frame index assigned by the frame-layout pass (Fig. 4 array
    /// tuples at IR granularity); the name is kept for EXPLAIN and
    /// error text.
    Var {
        /// Alpha-renamed unique name.
        name: String,
        /// Frame slot, or [`NO_SLOT`] before layout.
        slot: u32,
    },
    /// Sequence concatenation (empty = `()`).
    Seq(Vec<CExpr>),
    /// `a to b`.
    Range(Box<CExpr>, Box<CExpr>),
    /// A normalized FLW(G)OR block.
    Flwor {
        /// Clauses in pipeline order.
        clauses: Vec<Clause>,
        /// The per-tuple return expression.
        ret: Box<CExpr>,
    },
    /// `if (cond) then t else e` (condition under effective boolean
    /// value).
    If {
        /// Condition.
        cond: Box<CExpr>,
        /// Then branch.
        then: Box<CExpr>,
        /// Else branch.
        els: Box<CExpr>,
    },
    /// A single-variable quantifier (multi-binding forms are unnested
    /// during translation).
    Quantified {
        /// `every` vs `some`.
        every: bool,
        /// Bound variable.
        var: String,
        /// Domain.
        source: Box<CExpr>,
        /// Predicate.
        satisfies: Box<CExpr>,
    },
    /// `typeswitch`.
    Typeswitch {
        /// Operand (bound once).
        operand: Box<CExpr>,
        /// `(type, var, branch)` cases; the var is always generated.
        cases: Vec<(SequenceType, String, CExpr)>,
        /// Default branch `(var, body)`.
        default: Box<(String, CExpr)>,
    },
    /// Logical `and` (EBV operands).
    And(Box<CExpr>, Box<CExpr>),
    /// Logical `or`.
    Or(Box<CExpr>, Box<CExpr>),
    /// Value or general comparison.
    Compare {
        /// Operator.
        op: CompOp,
        /// General (`=`) vs value (`eq`) semantics.
        general: bool,
        /// Left operand.
        lhs: Box<CExpr>,
        /// Right operand.
        rhs: Box<CExpr>,
    },
    /// Arithmetic (operands atomized by normalization).
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        lhs: Box<CExpr>,
        /// Right operand.
        rhs: Box<CExpr>,
    },
    /// Explicit atomization (`fn:data`, also inserted for implicit
    /// atomization during normalization — §3.3 stage 3).
    Data(Box<CExpr>),
    /// `input/child::name` (`None` = wildcard).
    ChildStep {
        /// The step input.
        input: Box<CExpr>,
        /// Name test.
        name: Option<QName>,
    },
    /// `input/@name`.
    AttrStep {
        /// The step input.
        input: Box<CExpr>,
        /// Name test (`None` = `@*`).
        name: Option<QName>,
    },
    /// `input//…` — descendant-or-self.
    DescendantStep {
        /// The step input.
        input: Box<CExpr>,
    },
    /// `input[pred]`. `positional` is set by the type checker when the
    /// predicate has a numeric type (`[3]` selects by position).
    Filter {
        /// Filtered input.
        input: Box<CExpr>,
        /// Predicate; evaluated with the context item bound to `ctx_var`.
        predicate: Box<CExpr>,
        /// Generated variable the predicate's context item binds to.
        ctx_var: String,
        /// Position-selection semantics?
        positional: bool,
    },
    /// An element constructor (direct constructors normalize to this),
    /// including the ALDSP `<E?>` conditional form (§3.1).
    ElementCtor {
        /// Element name.
        name: QName,
        /// Conditional construction: emit only if content non-empty.
        conditional: bool,
        /// Attribute constructors `(name, conditional, value)`.
        attributes: Vec<(QName, bool, CExpr)>,
        /// Content expression (a `Seq` of parts).
        content: Box<CExpr>,
    },
    /// A call to a built-in function.
    Builtin {
        /// Which builtin.
        op: Builtin,
        /// Arguments.
        args: Vec<CExpr>,
    },
    /// A call to a *physical* (source) function — a data-source access
    /// (§3.2). The runtime dispatches this through the adaptor framework.
    PhysicalCall {
        /// The resolved physical function name.
        name: QName,
        /// Arguments.
        args: Vec<CExpr>,
    },
    /// A call to a user-defined XQuery function that has not (yet) been
    /// inlined (view unfolding inlines these, §4.2).
    UserCall {
        /// Function name.
        name: QName,
        /// Arguments.
        args: Vec<CExpr>,
    },
    /// Runtime type check inserted by optimistic static typing (§4.1).
    TypeMatch {
        /// Checked expression.
        input: Box<CExpr>,
        /// Required type.
        ty: SequenceType,
    },
    /// `cast as` (target is atomic).
    Cast {
        /// Input.
        input: Box<CExpr>,
        /// Target atomic type.
        target: AtomicType,
        /// `true` when the cast target was written with `?`.
        optional: bool,
    },
    /// `castable as`.
    Castable {
        /// Input.
        input: Box<CExpr>,
        /// Target atomic type.
        target: AtomicType,
    },
    /// `instance of`.
    InstanceOf {
        /// Input.
        input: Box<CExpr>,
        /// Tested type.
        ty: SequenceType,
    },
    /// The error expression substituted during design-time recovery
    /// (§4.1); keeps the salvageable inputs.
    Error(Vec<CExpr>),
}

/// One normalized FLWOR clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    /// `for $var (at $pos)? in source`.
    For {
        /// Binding variable.
        var: String,
        /// Positional variable.
        pos: Option<String>,
        /// Domain expression.
        source: CExpr,
    },
    /// `let $var := value`.
    Let {
        /// Binding variable.
        var: String,
        /// Bound expression.
        value: CExpr,
    },
    /// `where cond` (EBV).
    Where(CExpr),
    /// The ALDSP group clause (§3.1). After grouping, only the `to`
    /// binding variables and key aliases remain in scope.
    GroupBy {
        /// `(from, to)` regrouping pairs.
        bindings: Vec<(String, String)>,
        /// `(key expression, alias)` pairs (aliases always present —
        /// generated when the query omitted them).
        keys: Vec<(CExpr, String)>,
        /// `(from, to)` pass-through pairs: variables functionally
        /// dependent on the keys, carried from the group's first tuple
        /// *without* atomization (used by dependent-join re-nesting,
        /// §4.2).
        carry: Vec<(String, String)>,
        /// Set by the optimizer when the input is known clustered on the
        /// keys, enabling the streaming constant-memory group operator
        /// (§4.2, §5.2).
        pre_clustered: bool,
    },
    /// `order by`.
    OrderBy(Vec<OrderSpec>),
    /// A pushed SQL region (§4.3–4.4): executes `select` on `connection`
    /// and binds one tuple per row, one field variable per output column.
    /// Replaces one or more `For`/`Where`/`Let` clauses.
    SqlFor {
        /// Connection name (pragma metadata, resolved by the adaptors).
        connection: String,
        /// The generated SQL.
        select: Box<Select>,
        /// Expressions for the statement's positional parameters,
        /// evaluated per outer tuple (correlated / external values).
        params: Vec<CExpr>,
        /// `query_const[i]`: `params[i]` reads nothing but the plan's
        /// external variables (call arguments, declared externals,
        /// lifted literals), so it has one value for the whole
        /// execution and plans exactly like the literal it stands for.
        /// A statement is *correlated* only when some parameter is not
        /// query-constant. Recorded once by `Compiler::finish` on the
        /// final plan (empty until then — pushdown asks
        /// [`crate::Context::is_query_const`] while parameters are still
        /// being rewritten).
        query_const: Vec<bool>,
        /// `(field variable, column type)` — field i binds output column
        /// i; SQL NULL binds the empty sequence.
        binds: Vec<(String, AtomicType)>,
        /// PP-k batching (§4.2/§5.2); `None` executes once per outer
        /// tuple (or once overall when `params` is empty).
        ppk: Option<PpkSpec>,
    },
}

/// PP-k distributed-join specification (§4.2): fetch in blocks of `k`
/// outer tuples via a disjunctive parameterized query, then join in the
/// middleware.
#[derive(Debug, Clone, PartialEq)]
pub struct PpkSpec {
    /// Block size (the paper's default is 20).
    pub k: usize,
    /// Key expressions evaluated on each outer tuple.
    pub outer_keys: Vec<CExpr>,
    /// The matching inner columns (as SQL expressions over the select's
    /// FROM aliases) used to build the disjunctive block predicate.
    pub key_columns: Vec<ScalarExpr>,
    /// Indices into `binds` of the columns to compare with `outer_keys`
    /// when joining a fetched block back to its outer tuples.
    pub bind_key_indices: Vec<usize>,
    /// The local join method used within a block (§5.2: PP-k using
    /// nested loops or PP-k using index nested loops).
    pub local_method: LocalJoinMethod,
    /// `true` when unmatched outer tuples must still produce output
    /// (left-outer semantics from nested constructors).
    pub outer_join: bool,
    /// How many block fetches the runtime may keep in flight ahead of
    /// the local join (0 = synchronous).
    pub prefetch_depth: usize,
}

/// The middleware-side join method inside a PP-k block (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalJoinMethod {
    /// Nested loops over the fetched block.
    NestedLoop,
    /// Build an index (hash) on the fetched block, probe per outer tuple
    /// — "the most performant one" per §5.2.
    IndexNestedLoop,
}

/// One order-by key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderSpec {
    /// Key expression.
    pub expr: CExpr,
    /// Descending?
    pub descending: bool,
    /// Empty-least (default true).
    pub empty_least: bool,
}

/// The built-in function repertoire (§4.3 lists the pushable subset;
/// §5.4–5.6 add the ALDSP extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `fn:count`.
    Count,
    /// `fn:sum`.
    Sum,
    /// `fn:avg`.
    Avg,
    /// `fn:min`.
    Min,
    /// `fn:max`.
    Max,
    /// `fn:exists`.
    Exists,
    /// `fn:empty`.
    Empty,
    /// `fn:not`.
    Not,
    /// `fn:true`.
    True,
    /// `fn:false`.
    False,
    /// `fn:string`.
    String,
    /// `fn:concat`.
    Concat,
    /// `fn:string-length`.
    StringLength,
    /// `fn:upper-case`.
    UpperCase,
    /// `fn:lower-case`.
    LowerCase,
    /// `fn:substring`.
    Substring,
    /// `fn:contains`.
    Contains,
    /// `fn:starts-with`.
    StartsWith,
    /// `fn:subsequence`.
    Subsequence,
    /// `fn:distinct-values`.
    DistinctValues,
    /// `fn:abs`.
    Abs,
    /// `fn:boolean` (EBV).
    Boolean,
    /// `fn-bea:async` — evaluate the argument on another thread (§5.4).
    Async,
    /// `fn-bea:timeout($expr, $millis, $alt)` (§5.6).
    Timeout,
    /// `fn-bea:fail-over($expr, $alt)` (§5.6).
    FailOver,
}

impl Builtin {
    /// Resolve `(namespace-uri, local, arity)` to a builtin.
    pub fn resolve(uri: Option<&str>, local: &str, arity: usize) -> Option<Builtin> {
        use aldsp_xdm::qname::ns;
        let std_fn = uri.is_none() || uri == Some(ns::FN);
        let bea = uri == Some(ns::FN_BEA);
        Some(match (local, arity) {
            ("data", 1) => return None, // handled specially (CKind::Data)
            ("count", 1) if std_fn => Builtin::Count,
            ("sum", 1) if std_fn => Builtin::Sum,
            ("avg", 1) if std_fn => Builtin::Avg,
            ("min", 1) if std_fn => Builtin::Min,
            ("max", 1) if std_fn => Builtin::Max,
            ("exists", 1) if std_fn => Builtin::Exists,
            ("empty", 1) if std_fn => Builtin::Empty,
            ("not", 1) if std_fn => Builtin::Not,
            ("true", 0) if std_fn => Builtin::True,
            ("false", 0) if std_fn => Builtin::False,
            ("string", 1) if std_fn => Builtin::String,
            ("concat", _) if std_fn && arity >= 2 => Builtin::Concat,
            ("string-length", 1) if std_fn => Builtin::StringLength,
            ("upper-case", 1) if std_fn => Builtin::UpperCase,
            ("lower-case", 1) if std_fn => Builtin::LowerCase,
            ("substring", 2 | 3) if std_fn => Builtin::Substring,
            ("contains", 2) if std_fn => Builtin::Contains,
            ("starts-with", 2) if std_fn => Builtin::StartsWith,
            ("subsequence", 2 | 3) if std_fn => Builtin::Subsequence,
            ("distinct-values", 1) if std_fn => Builtin::DistinctValues,
            ("abs", 1) if std_fn => Builtin::Abs,
            ("boolean", 1) if std_fn => Builtin::Boolean,
            ("async", 1) if bea => Builtin::Async,
            ("timeout", 3) if bea => Builtin::Timeout,
            ("fail-over", 2) if bea => Builtin::FailOver,
            _ => return None,
        })
    }
}

// ---- tree utilities ---------------------------------------------------------

impl CExpr {
    /// Visit every sub-expression (pre-order), including clause bodies.
    pub fn walk(&self, f: &mut dyn FnMut(&CExpr)) {
        f(self);
        self.for_each_child(&mut |c| c.walk(f));
    }

    /// Apply `f` to each direct child expression.
    pub fn for_each_child(&self, f: &mut dyn FnMut(&CExpr)) {
        match &self.kind {
            CKind::Const(_) | CKind::Var { .. } | CKind::Error(_) => {
                if let CKind::Error(inputs) = &self.kind {
                    for i in inputs {
                        f(i);
                    }
                }
            }
            CKind::Seq(items) => items.iter().for_each(f),
            CKind::Range(a, b) | CKind::And(a, b) | CKind::Or(a, b) => {
                f(a);
                f(b);
            }
            CKind::Flwor { clauses, ret } => {
                for c in clauses {
                    match c {
                        Clause::For { source, .. } => f(source),
                        Clause::Let { value, .. } => f(value),
                        Clause::Where(e) => f(e),
                        Clause::GroupBy { keys, .. } => keys.iter().for_each(|(e, _)| f(e)),
                        Clause::OrderBy(specs) => specs.iter().for_each(|s| f(&s.expr)),
                        Clause::SqlFor { params, ppk, .. } => {
                            params.iter().for_each(&mut *f);
                            if let Some(p) = ppk {
                                p.outer_keys.iter().for_each(&mut *f);
                            }
                        }
                    }
                }
                f(ret);
            }
            CKind::If { cond, then, els } => {
                f(cond);
                f(then);
                f(els);
            }
            CKind::Quantified {
                source, satisfies, ..
            } => {
                f(source);
                f(satisfies);
            }
            CKind::Typeswitch {
                operand,
                cases,
                default,
            } => {
                f(operand);
                for (_, _, b) in cases {
                    f(b);
                }
                f(&default.1);
            }
            CKind::Compare { lhs, rhs, .. } | CKind::Arith { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            CKind::Data(a) | CKind::DescendantStep { input: a } => f(a),
            CKind::ChildStep { input, .. } | CKind::AttrStep { input, .. } => f(input),
            CKind::Filter {
                input, predicate, ..
            } => {
                f(input);
                f(predicate);
            }
            CKind::ElementCtor {
                attributes,
                content,
                ..
            } => {
                for (_, _, v) in attributes {
                    f(v);
                }
                f(content);
            }
            CKind::Builtin { args, .. }
            | CKind::PhysicalCall { args, .. }
            | CKind::UserCall { args, .. } => args.iter().for_each(f),
            CKind::TypeMatch { input, .. }
            | CKind::Cast { input, .. }
            | CKind::Castable { input, .. }
            | CKind::InstanceOf { input, .. } => f(input),
        }
    }

    /// Number every node pre-order starting at 1 (0 stays "unassigned").
    /// Run once on the finished plan; the ids are stable for the life
    /// of the [`crate::CompiledQuery`] and key both EXPLAIN lines and
    /// runtime trace records. Clauses have no id of their own: they are
    /// addressed as `(owning Flwor node_id, clause index)`.
    pub fn assign_node_ids(&mut self) {
        fn go(e: &mut CExpr, next: &mut u32) {
            e.node_id = *next;
            *next += 1;
            e.for_each_child_mut(&mut |c| go(c, next));
        }
        go(self, &mut 1);
    }

    /// The free variables of this expression.
    pub fn free_vars(&self) -> HashSet<String> {
        let mut free = HashSet::new();
        collect_free(self, &mut HashSet::new(), &mut free);
        free
    }

    /// Substitute free occurrences of `var` with `replacement`.
    pub fn substitute(&mut self, var: &str, replacement: &CExpr) {
        match &mut self.kind {
            CKind::Var { name: v, .. } if v == var => {
                *self = replacement.clone();
            }
            CKind::Flwor { clauses, ret } => {
                let mut shadowed = false;
                for c in clauses.iter_mut() {
                    if shadowed {
                        break;
                    }
                    match c {
                        Clause::For {
                            var: v,
                            pos,
                            source,
                        } => {
                            source.substitute(var, replacement);
                            if v == var || pos.as_deref() == Some(var) {
                                shadowed = true;
                            }
                        }
                        Clause::Let { var: v, value } => {
                            value.substitute(var, replacement);
                            if v == var {
                                shadowed = true;
                            }
                        }
                        Clause::Where(e) => e.substitute(var, replacement),
                        Clause::GroupBy { bindings, keys, .. } => {
                            for (k, _) in keys.iter_mut() {
                                k.substitute(var, replacement);
                            }
                            if bindings.iter().any(|(_, to)| to == var)
                                || keys.iter().any(|(_, a)| a == var)
                            {
                                shadowed = true;
                            }
                        }
                        Clause::OrderBy(specs) => {
                            for s in specs.iter_mut() {
                                s.expr.substitute(var, replacement);
                            }
                        }
                        Clause::SqlFor {
                            params, ppk, binds, ..
                        } => {
                            for p in params.iter_mut() {
                                p.substitute(var, replacement);
                            }
                            if let Some(p) = ppk {
                                for e in p.outer_keys.iter_mut() {
                                    e.substitute(var, replacement);
                                }
                            }
                            if binds.iter().any(|(b, _)| b == var) {
                                shadowed = true;
                            }
                        }
                    }
                }
                if !shadowed {
                    ret.substitute(var, replacement);
                }
            }
            CKind::Quantified {
                var: v,
                source,
                satisfies,
                ..
            } => {
                source.substitute(var, replacement);
                if v != var {
                    satisfies.substitute(var, replacement);
                }
            }
            CKind::Filter {
                input,
                predicate,
                ctx_var,
                ..
            } => {
                input.substitute(var, replacement);
                if ctx_var != var {
                    predicate.substitute(var, replacement);
                }
            }
            CKind::Typeswitch {
                operand,
                cases,
                default,
            } => {
                operand.substitute(var, replacement);
                for (_, v, b) in cases.iter_mut() {
                    if v != var {
                        b.substitute(var, replacement);
                    }
                }
                if default.0 != var {
                    default.1.substitute(var, replacement);
                }
            }
            _ => {
                self.for_each_child_mut(&mut |c| c.substitute(var, replacement));
            }
        }
    }

    /// Apply `f` to each direct child expression, mutably.
    pub fn for_each_child_mut(&mut self, f: &mut dyn FnMut(&mut CExpr)) {
        match &mut self.kind {
            CKind::Const(_) | CKind::Var { .. } => {}
            CKind::Error(inputs) => inputs.iter_mut().for_each(f),
            CKind::Seq(items) => items.iter_mut().for_each(f),
            CKind::Range(a, b) | CKind::And(a, b) | CKind::Or(a, b) => {
                f(a);
                f(b);
            }
            CKind::Flwor { clauses, ret } => {
                for c in clauses.iter_mut() {
                    match c {
                        Clause::For { source, .. } => f(source),
                        Clause::Let { value, .. } => f(value),
                        Clause::Where(e) => f(e),
                        Clause::GroupBy { keys, .. } => keys.iter_mut().for_each(|(e, _)| f(e)),
                        Clause::OrderBy(specs) => specs.iter_mut().for_each(|s| f(&mut s.expr)),
                        Clause::SqlFor { params, ppk, .. } => {
                            params.iter_mut().for_each(&mut *f);
                            if let Some(p) = ppk {
                                p.outer_keys.iter_mut().for_each(&mut *f);
                            }
                        }
                    }
                }
                f(ret);
            }
            CKind::If { cond, then, els } => {
                f(cond);
                f(then);
                f(els);
            }
            CKind::Quantified {
                source, satisfies, ..
            } => {
                f(source);
                f(satisfies);
            }
            CKind::Typeswitch {
                operand,
                cases,
                default,
            } => {
                f(operand);
                for (_, _, b) in cases.iter_mut() {
                    f(b);
                }
                f(&mut default.1);
            }
            CKind::Compare { lhs, rhs, .. } | CKind::Arith { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            CKind::Data(a) | CKind::DescendantStep { input: a } => f(a),
            CKind::ChildStep { input, .. } | CKind::AttrStep { input, .. } => f(input),
            CKind::Filter {
                input, predicate, ..
            } => {
                f(input);
                f(predicate);
            }
            CKind::ElementCtor {
                attributes,
                content,
                ..
            } => {
                for (_, _, v) in attributes.iter_mut() {
                    f(v);
                }
                f(content);
            }
            CKind::Builtin { args, .. }
            | CKind::PhysicalCall { args, .. }
            | CKind::UserCall { args, .. } => args.iter_mut().for_each(f),
            CKind::TypeMatch { input, .. }
            | CKind::Cast { input, .. }
            | CKind::Castable { input, .. }
            | CKind::InstanceOf { input, .. } => f(input),
        }
    }
}

fn collect_free(e: &CExpr, bound: &mut HashSet<String>, free: &mut HashSet<String>) {
    match &e.kind {
        CKind::Var { name: v, .. } => {
            if !bound.contains(v) {
                free.insert(v.clone());
            }
        }
        CKind::Flwor { clauses, ret } => {
            let mut local: Vec<String> = Vec::new();
            let add = |name: &str, bound: &mut HashSet<String>, local: &mut Vec<String>| {
                if bound.insert(name.to_string()) {
                    local.push(name.to_string());
                }
            };
            for c in clauses {
                match c {
                    Clause::For { var, pos, source } => {
                        collect_free(source, bound, free);
                        add(var, bound, &mut local);
                        if let Some(p) = pos {
                            add(p, bound, &mut local);
                        }
                    }
                    Clause::Let { var, value } => {
                        collect_free(value, bound, free);
                        add(var, bound, &mut local);
                    }
                    Clause::Where(w) => collect_free(w, bound, free),
                    Clause::GroupBy {
                        bindings,
                        keys,
                        carry,
                        ..
                    } => {
                        for (k, _) in keys {
                            collect_free(k, bound, free);
                        }
                        for (from, _) in carry {
                            if !bound.contains(from) {
                                free.insert(from.clone());
                            }
                        }
                        for (_, to) in bindings {
                            add(to, bound, &mut local);
                        }
                        for (_, alias) in keys {
                            add(alias, bound, &mut local);
                        }
                        for (_, to) in carry {
                            add(to, bound, &mut local);
                        }
                    }
                    Clause::OrderBy(specs) => {
                        for s in specs {
                            collect_free(&s.expr, bound, free);
                        }
                    }
                    Clause::SqlFor {
                        params, binds, ppk, ..
                    } => {
                        for p in params {
                            collect_free(p, bound, free);
                        }
                        if let Some(p) = ppk {
                            for k in &p.outer_keys {
                                collect_free(k, bound, free);
                            }
                        }
                        for (b, _) in binds {
                            add(b, bound, &mut local);
                        }
                    }
                }
            }
            collect_free(ret, bound, free);
            for v in local {
                bound.remove(&v);
            }
        }
        CKind::Quantified {
            var,
            source,
            satisfies,
            ..
        } => {
            collect_free(source, bound, free);
            let added = bound.insert(var.clone());
            collect_free(satisfies, bound, free);
            if added {
                bound.remove(var);
            }
        }
        CKind::Filter {
            input,
            predicate,
            ctx_var,
            ..
        } => {
            collect_free(input, bound, free);
            let added = bound.insert(ctx_var.clone());
            collect_free(predicate, bound, free);
            if added {
                bound.remove(ctx_var);
            }
        }
        CKind::Typeswitch {
            operand,
            cases,
            default,
        } => {
            collect_free(operand, bound, free);
            for (_, v, b) in cases {
                let added = bound.insert(v.clone());
                collect_free(b, bound, free);
                if added {
                    bound.remove(v);
                }
            }
            let added = bound.insert(default.0.clone());
            collect_free(&default.1, bound, free);
            if added {
                bound.remove(&default.0);
            }
        }
        _ => {
            e.for_each_child(&mut |c| collect_free(c, bound, free));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> Span {
        Span::default()
    }

    #[test]
    fn free_vars_respect_flwor_scoping() {
        // for $x in $src return ($x, $y)
        let e = CExpr::new(
            CKind::Flwor {
                clauses: vec![Clause::For {
                    var: "x".into(),
                    pos: None,
                    source: CExpr::var("src", sp()),
                }],
                ret: Box::new(CExpr::new(
                    CKind::Seq(vec![CExpr::var("x", sp()), CExpr::var("y", sp())]),
                    sp(),
                )),
            },
            sp(),
        );
        let free = e.free_vars();
        assert!(free.contains("src"));
        assert!(free.contains("y"));
        assert!(!free.contains("x"));
    }

    #[test]
    fn substitution_avoids_shadowed_bindings() {
        // for $x in $a return $x — substituting x must not touch the body
        let mut e = CExpr::new(
            CKind::Flwor {
                clauses: vec![Clause::For {
                    var: "x".into(),
                    pos: None,
                    source: CExpr::var("a", sp()),
                }],
                ret: Box::new(CExpr::var("x", sp())),
            },
            sp(),
        );
        e.substitute("x", &CExpr::constant(AtomicValue::Integer(1), sp()));
        let CKind::Flwor { ret, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(
            ret.kind,
            CKind::Var {
                name: "x".into(),
                slot: NO_SLOT
            }
        );
        // but substituting a genuinely free var works
        e.substitute("a", &CExpr::constant(AtomicValue::Integer(2), sp()));
        let CKind::Flwor { clauses, .. } = &e.kind else {
            panic!()
        };
        let Clause::For { source, .. } = &clauses[0] else {
            panic!()
        };
        assert_eq!(source.kind, CKind::Const(AtomicValue::Integer(2)));
    }

    #[test]
    fn builtin_resolution() {
        use aldsp_xdm::qname::ns;
        assert_eq!(
            Builtin::resolve(Some(ns::FN), "count", 1),
            Some(Builtin::Count)
        );
        assert_eq!(Builtin::resolve(None, "count", 1), Some(Builtin::Count));
        assert_eq!(Builtin::resolve(Some(ns::FN), "count", 2), None);
        assert_eq!(
            Builtin::resolve(Some(ns::FN_BEA), "async", 1),
            Some(Builtin::Async)
        );
        assert_eq!(Builtin::resolve(None, "async", 1), None);
        assert_eq!(
            Builtin::resolve(Some(ns::FN_BEA), "fail-over", 2),
            Some(Builtin::FailOver)
        );
        assert_eq!(Builtin::resolve(None, "nonsense", 1), None);
    }

    #[test]
    fn quantifier_scoping_in_free_vars() {
        let e = CExpr::new(
            CKind::Quantified {
                every: false,
                var: "o".into(),
                source: Box::new(CExpr::var("orders", sp())),
                satisfies: Box::new(CExpr::new(
                    CKind::Seq(vec![CExpr::var("o", sp()), CExpr::var("c", sp())]),
                    sp(),
                )),
            },
            sp(),
        );
        let free = e.free_vars();
        assert!(free.contains("orders") && free.contains("c") && !free.contains("o"));
    }
}
