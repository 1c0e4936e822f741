//! Expression-tree construction and normalization (§3.3 stages 2–3).
//!
//! Translates the parser AST into the compiler IR: names are resolved
//! against the module's namespace environment and the metadata registry,
//! variable scoping is checked (with error-expression substitution in
//! recover mode, §4.1), implicit operations — atomization at value
//! comparisons, arithmetic and typed call sites — are made explicit,
//! multi-binding quantifiers are unnested, and every binding is
//! alpha-renamed to a unique name so later rewrites need no capture
//! analysis.

use crate::context::{Context, UserFunction, LIFTED_PREFIX};
use crate::ir::{Builtin, CExpr, CKind, Clause, OrderSpec, Span};
use aldsp_parser::ast::{
    self, Axis, Clause as AClause, Expr, ExprKind, ItemTypeAst, Module, NameTest, SeqTypeAst,
};
use aldsp_parser::Name;
use aldsp_xdm::qname::{ns, Namespaces};
use aldsp_xdm::types::{ElementType, ItemType, Occurrence, SequenceType};
use aldsp_xdm::value::{ArithOp, AtomicType, AtomicValue};
use aldsp_xdm::QName;
use std::collections::HashMap;

/// Per-module translation environment.
pub struct ModuleEnv {
    /// Namespace bindings of the module prolog.
    pub namespaces: Namespaces,
    /// Default element namespace.
    pub default_element_ns: Option<String>,
}

impl ModuleEnv {
    /// Build the environment from a parsed module.
    pub fn of(module: &Module) -> ModuleEnv {
        let mut nsenv = Namespaces::with_defaults();
        for (p, u) in &module.namespaces {
            nsenv.bind(p, u);
        }
        for imp in &module.schema_imports {
            if let Some(p) = &imp.prefix {
                nsenv.bind(p, &imp.uri);
            }
        }
        ModuleEnv {
            namespaces: nsenv,
            default_element_ns: module.default_element_ns.clone(),
        }
    }

    /// Resolve an element-name lexical.
    pub fn element_name(&self, n: &Name) -> Option<QName> {
        n.resolve(
            &|p| self.namespaces.resolve(p).map(str::to_string),
            self.default_element_ns.as_deref(),
        )
    }

    /// Resolve a function-name lexical (unprefixed names resolve to no
    /// namespace; builtins are matched separately).
    pub fn function_name(&self, n: &Name) -> Option<QName> {
        n.resolve(&|p| self.namespaces.resolve(p).map(str::to_string), None)
    }
}

/// Variable scope: source name → unique IR name.
type Scope = HashMap<String, String>;

/// Translate a whole module: every function body plus the main query
/// body (if any). Returns the translated main body.
pub fn translate_module(ctx: &mut Context<'_>, module: &Module) -> Option<CExpr> {
    let env = ModuleEnv::of(module);
    translate_functions(ctx, &env, module);
    module.body.as_ref().map(|b| {
        let mut scope = Scope::new();
        translate_expr(ctx, &env, &mut scope, b)
    })
}

/// Translate a module's function declarations into `ctx.functions`.
pub fn translate_functions(ctx: &mut Context<'_>, env: &ModuleEnv, module: &Module) {
    // two passes: signatures first so bodies can call forward
    #[allow(clippy::type_complexity)]
    let mut sigs: Vec<(
        QName,
        Vec<(String, SequenceType)>,
        SequenceType,
        Vec<(String, String)>,
    )> = Vec::new();
    for f in &module.functions {
        let Some(name) = env.function_name(&f.name) else {
            ctx.diag(
                f.span,
                format!("unbound namespace prefix in function name {}", f.name),
            );
            continue;
        };
        let params: Vec<(String, SequenceType)> = f
            .params
            .iter()
            .map(|p| {
                let ty =
                    p.ty.as_ref()
                        .map(|t| resolve_seq_type(ctx, env, t, f.span))
                        .unwrap_or_else(SequenceType::any);
                (p.name.clone(), ty)
            })
            .collect();
        let ret = f
            .return_type
            .as_ref()
            .map(|t| resolve_seq_type(ctx, env, t, f.span))
            .unwrap_or_else(SequenceType::any);
        let pragmas: Vec<(String, String)> =
            f.pragmas.iter().flat_map(|p| p.attrs.clone()).collect();
        sigs.push((name.clone(), params, ret, pragmas));
        // register the signature immediately (bodies translated next pass)
        ctx.functions.insert(
            name.clone(),
            UserFunction {
                name,
                params: sigs.last().expect("just pushed").1.clone(),
                return_type: sigs.last().expect("just pushed").2.clone(),
                body: None,
                pragmas: sigs.last().expect("just pushed").3.clone(),
            },
        );
    }
    for f in &module.functions {
        let Some(name) = env.function_name(&f.name) else {
            continue;
        };
        if f.external {
            // external: must be backed by a physical function
            if ctx.registry.function(&name).is_none() {
                ctx.diag(
                    f.span,
                    format!("external function {name} has no registered physical binding"),
                );
            }
            continue;
        }
        let Some(body_ast) = &f.body else {
            // body was in error at parse time; signature already usable
            continue;
        };
        // parameters become unique variables free in the body
        let mut scope = Scope::new();
        let mut unique_params = Vec::new();
        {
            let fun = ctx.functions.get(&name).expect("registered above").clone();
            for (pname, pty) in &fun.params {
                let u = ctx.fresh(pname);
                scope.insert(pname.clone(), u.clone());
                unique_params.push((u, pty.clone()));
            }
        }
        let body = translate_expr(ctx, env, &mut scope, body_ast);
        let f_entry = ctx.functions.get_mut(&name).expect("registered above");
        f_entry.params = unique_params;
        f_entry.body = Some(body);
    }
}

/// Translate an expression with external variables pre-bound.
pub fn translate_query_with_vars(
    ctx: &mut Context<'_>,
    env: &ModuleEnv,
    e: &Expr,
    external_vars: &[String],
) -> CExpr {
    let mut scope = Scope::new();
    for v in external_vars {
        scope.insert(v.clone(), v.clone());
    }
    translate_expr(ctx, env, &mut scope, e)
}

fn error_expr(inputs: Vec<CExpr>, span: Span) -> CExpr {
    CExpr {
        kind: CKind::Error(inputs),
        ty: SequenceType::Seq(ItemType::Error, Occurrence::Star),
        span,
        node_id: 0,
    }
}

fn translate_expr(ctx: &mut Context<'_>, env: &ModuleEnv, scope: &mut Scope, e: &Expr) -> CExpr {
    let span = e.span;
    match &e.kind {
        ExprKind::Literal(v) => CExpr::constant(v.clone(), span),
        ExprKind::VarRef(v) => match scope.get(v) {
            Some(u) => CExpr::var(u, span),
            None => {
                ctx.diag(span, format!("reference to undeclared variable ${v}"));
                error_expr(vec![], span)
            }
        },
        ExprKind::ContextItem => match scope.get(".") {
            Some(u) => CExpr::var(u, span),
            None => {
                ctx.diag(span, "the context item is undefined here");
                error_expr(vec![], span)
            }
        },
        ExprKind::Sequence(items) => CExpr::new(
            CKind::Seq(
                items
                    .iter()
                    .map(|i| translate_expr(ctx, env, scope, i))
                    .collect(),
            ),
            span,
        ),
        ExprKind::Range(a, b) => CExpr::new(
            CKind::Range(
                Box::new(atomized(translate_expr(ctx, env, scope, a))),
                Box::new(atomized(translate_expr(ctx, env, scope, b))),
            ),
            span,
        ),
        ExprKind::Flwor { clauses, ret } => {
            let saved: Scope = scope.clone();
            let mut out = Vec::with_capacity(clauses.len());
            for c in clauses {
                match c {
                    AClause::For {
                        var,
                        pos_var,
                        ty,
                        source,
                    } => {
                        let src = translate_expr(ctx, env, scope, source);
                        let src = match ty {
                            Some(t) => wrap_typematch_iterated(ctx, env, src, t, span),
                            None => src,
                        };
                        let u = ctx.fresh(var);
                        scope.insert(var.clone(), u.clone());
                        let up = pos_var.as_ref().map(|p| {
                            let upos = ctx.fresh(p);
                            scope.insert(p.clone(), upos.clone());
                            upos
                        });
                        out.push(Clause::For {
                            var: u,
                            pos: up,
                            source: src,
                        });
                    }
                    AClause::Let { var, ty, value } => {
                        let val = translate_expr(ctx, env, scope, value);
                        let val = match ty {
                            Some(t) => wrap_typematch(ctx, env, val, t, span),
                            None => val,
                        };
                        let u = ctx.fresh(var);
                        scope.insert(var.clone(), u.clone());
                        out.push(Clause::Let { var: u, value: val });
                    }
                    AClause::Where(w) => {
                        out.push(Clause::Where(translate_expr(ctx, env, scope, w)));
                    }
                    AClause::GroupBy { bindings, keys } => {
                        // keys evaluated in the pre-grouping scope
                        let mut ckeys = Vec::with_capacity(keys.len());
                        let mut key_aliases = Vec::with_capacity(keys.len());
                        for k in keys {
                            let ke = atomized(translate_expr(ctx, env, scope, &k.expr));
                            let alias_src =
                                k.alias.clone().unwrap_or_else(|| "groupkey".to_string());
                            let ua = ctx.fresh(&alias_src);
                            key_aliases.push((k.alias.clone(), ua.clone()));
                            ckeys.push((ke, ua));
                        }
                        let mut cbinds = Vec::with_capacity(bindings.len());
                        let mut bind_names = Vec::with_capacity(bindings.len());
                        for b in bindings {
                            match scope.get(&b.from) {
                                Some(u) => {
                                    let ut = ctx.fresh(&b.to);
                                    cbinds.push((u.clone(), ut.clone()));
                                    bind_names.push((b.to.clone(), ut));
                                }
                                None => {
                                    ctx.diag(
                                        span,
                                        format!("group binding references undeclared ${}", b.from),
                                    );
                                }
                            }
                        }
                        // after grouping, FLWOR-local bindings are out of
                        // scope; only regrouped vars and key aliases remain
                        *scope = saved.clone();
                        for (src, u) in &bind_names {
                            scope.insert(src.clone(), u.clone());
                        }
                        for (alias, u) in &key_aliases {
                            if let Some(a) = alias {
                                scope.insert(a.clone(), u.clone());
                            }
                        }
                        out.push(Clause::GroupBy {
                            bindings: cbinds,
                            keys: ckeys,
                            carry: Vec::new(),
                            pre_clustered: false,
                        });
                    }
                    AClause::OrderBy(specs) => {
                        let cspecs = specs
                            .iter()
                            .map(|s| OrderSpec {
                                expr: atomized(translate_expr(ctx, env, scope, &s.expr)),
                                descending: s.descending,
                                empty_least: s.empty_least,
                            })
                            .collect();
                        out.push(Clause::OrderBy(cspecs));
                    }
                }
            }
            let ret = translate_expr(ctx, env, scope, ret);
            *scope = saved;
            CExpr::new(
                CKind::Flwor {
                    clauses: out,
                    ret: Box::new(ret),
                },
                span,
            )
        }
        ExprKind::If { cond, then, els } => CExpr::new(
            CKind::If {
                cond: Box::new(translate_expr(ctx, env, scope, cond)),
                then: Box::new(translate_expr(ctx, env, scope, then)),
                els: Box::new(translate_expr(ctx, env, scope, els)),
            },
            span,
        ),
        ExprKind::Quantified {
            every,
            bindings,
            satisfies,
        } => {
            // unnest multi-binding quantifiers: some $a in A, $b in B
            // satisfies P  ≡  some $a in A satisfies (some $b in B satisfies P)
            let saved = scope.clone();
            let mut uniques = Vec::with_capacity(bindings.len());
            for (v, src) in bindings {
                let s = translate_expr(ctx, env, scope, src);
                let u = ctx.fresh(v);
                scope.insert(v.clone(), u.clone());
                uniques.push((u, s));
            }
            let mut body = translate_expr(ctx, env, scope, satisfies);
            *scope = saved;
            for (u, s) in uniques.into_iter().rev() {
                body = CExpr::new(
                    CKind::Quantified {
                        every: *every,
                        var: u,
                        source: Box::new(s),
                        satisfies: Box::new(body),
                    },
                    span,
                );
            }
            body
        }
        ExprKind::Typeswitch {
            operand,
            cases,
            default_var,
            default,
        } => {
            let op = translate_expr(ctx, env, scope, operand);
            let mut ccases = Vec::with_capacity(cases.len());
            for c in cases {
                let ty = resolve_seq_type(ctx, env, &c.ty, span);
                let saved = scope.clone();
                let u = ctx.fresh(c.var.as_deref().unwrap_or("tsw"));
                if let Some(v) = &c.var {
                    scope.insert(v.clone(), u.clone());
                }
                let body = translate_expr(ctx, env, scope, &c.body);
                *scope = saved;
                ccases.push((ty, u, body));
            }
            let saved = scope.clone();
            let du = ctx.fresh(default_var.as_deref().unwrap_or("tsw"));
            if let Some(v) = default_var {
                scope.insert(v.clone(), du.clone());
            }
            let dbody = translate_expr(ctx, env, scope, default);
            *scope = saved;
            CExpr::new(
                CKind::Typeswitch {
                    operand: Box::new(op),
                    cases: ccases,
                    default: Box::new((du, dbody)),
                },
                span,
            )
        }
        ExprKind::Or(a, b) => CExpr::new(
            CKind::Or(
                Box::new(translate_expr(ctx, env, scope, a)),
                Box::new(translate_expr(ctx, env, scope, b)),
            ),
            span,
        ),
        ExprKind::And(a, b) => CExpr::new(
            CKind::And(
                Box::new(translate_expr(ctx, env, scope, a)),
                Box::new(translate_expr(ctx, env, scope, b)),
            ),
            span,
        ),
        ExprKind::Comparison {
            op,
            general,
            lhs,
            rhs,
        } => {
            let mut l = translate_expr(ctx, env, scope, lhs);
            let mut r = translate_expr(ctx, env, scope, rhs);
            if !general {
                // value comparisons atomize (§3.3 stage 3: implicit
                // operations made explicit)
                l = atomized(l);
                r = atomized(r);
            }
            CExpr::new(
                CKind::Compare {
                    op: *op,
                    general: *general,
                    lhs: Box::new(l),
                    rhs: Box::new(r),
                },
                span,
            )
        }
        ExprKind::Arith { op, lhs, rhs } => CExpr::new(
            CKind::Arith {
                op: *op,
                lhs: Box::new(atomized(translate_expr(ctx, env, scope, lhs))),
                rhs: Box::new(atomized(translate_expr(ctx, env, scope, rhs))),
            },
            span,
        ),
        ExprKind::Neg(inner) => CExpr::new(
            CKind::Arith {
                op: ArithOp::Sub,
                lhs: Box::new(CExpr::constant(AtomicValue::Integer(0), span)),
                rhs: Box::new(atomized(translate_expr(ctx, env, scope, inner))),
            },
            span,
        ),
        ExprKind::Path { start, steps } => {
            let mut cur = translate_expr(ctx, env, scope, start);
            for step in steps {
                cur = translate_step(ctx, env, scope, cur, step, span);
            }
            cur
        }
        ExprKind::Filter { base, predicates } => {
            let mut cur = translate_expr(ctx, env, scope, base);
            for p in predicates {
                cur = wrap_filter(ctx, env, scope, cur, p, span);
            }
            cur
        }
        ExprKind::Call { name, args } => translate_call(ctx, env, scope, name, args, span),
        ExprKind::DirectElement {
            name,
            conditional,
            attributes,
            content,
            namespaces,
            default_ns,
        } => {
            // constructor-local namespace declarations
            let mut local_env = ModuleEnv {
                namespaces: env.namespaces.clone(),
                default_element_ns: default_ns.clone().or(env.default_element_ns.clone()),
            };
            for (p, u) in namespaces {
                local_env.namespaces.bind(p, u);
            }
            let Some(qname) = local_env.element_name(name) else {
                ctx.diag(span, format!("unbound namespace prefix in <{name}>"));
                return error_expr(vec![], span);
            };
            let mut cattrs = Vec::with_capacity(attributes.len());
            for a in attributes {
                // attribute names never take the default namespace
                let Some(aname) = a.name.resolve(
                    &|p| local_env.namespaces.resolve(p).map(str::to_string),
                    None,
                ) else {
                    ctx.diag(
                        span,
                        format!("unbound namespace prefix in attribute {}", a.name),
                    );
                    continue;
                };
                let value = CExpr::new(
                    CKind::Seq(
                        a.value
                            .iter()
                            .map(|p| translate_expr(ctx, &local_env, scope, p))
                            .collect(),
                    ),
                    span,
                );
                cattrs.push((aname, a.conditional, value));
            }
            let ccontent = CExpr::new(
                CKind::Seq(
                    content
                        .iter()
                        .map(|c| translate_expr(ctx, &local_env, scope, c))
                        .collect(),
                ),
                span,
            );
            CExpr::new(
                CKind::ElementCtor {
                    name: qname,
                    conditional: *conditional,
                    attributes: cattrs,
                    content: Box::new(ccontent),
                },
                span,
            )
        }
        ExprKind::InstanceOf(inner, ty) => {
            let t = resolve_seq_type(ctx, env, ty, span);
            CExpr::new(
                CKind::InstanceOf {
                    input: Box::new(translate_expr(ctx, env, scope, inner)),
                    ty: t,
                },
                span,
            )
        }
        ExprKind::CastAs(inner, ty) => {
            let (target, optional) = resolve_atomic_target(ctx, env, ty, span);
            CExpr::new(
                CKind::Cast {
                    input: Box::new(atomized(translate_expr(ctx, env, scope, inner))),
                    target,
                    optional,
                },
                span,
            )
        }
        ExprKind::CastableAs(inner, ty) => {
            let (target, _) = resolve_atomic_target(ctx, env, ty, span);
            CExpr::new(
                CKind::Castable {
                    input: Box::new(atomized(translate_expr(ctx, env, scope, inner))),
                    target,
                },
                span,
            )
        }
        ExprKind::TreatAs(inner, ty) => {
            let t = resolve_seq_type(ctx, env, ty, span);
            CExpr::new(
                CKind::TypeMatch {
                    input: Box::new(translate_expr(ctx, env, scope, inner)),
                    ty: t,
                },
                span,
            )
        }
        ExprKind::Error(inputs) => error_expr(
            inputs
                .iter()
                .map(|i| translate_expr(ctx, env, scope, i))
                .collect(),
            span,
        ),
    }
}

fn translate_step(
    ctx: &mut Context<'_>,
    env: &ModuleEnv,
    scope: &mut Scope,
    input: CExpr,
    step: &ast::Step,
    span: Span,
) -> CExpr {
    let name = match &step.test {
        NameTest::Wildcard => None,
        NameTest::Name(n) => match env.element_name(n) {
            Some(q) => Some(q),
            None => {
                ctx.diag(span, format!("unbound namespace prefix in step {n}"));
                return error_expr(vec![input], span);
            }
        },
    };
    let mut cur = match step.axis {
        Axis::Child => CExpr::new(
            CKind::ChildStep {
                input: Box::new(input),
                name,
            },
            span,
        ),
        Axis::Attribute => {
            // attribute names never take the default element namespace
            let aname = match &step.test {
                NameTest::Wildcard => None,
                NameTest::Name(n) => {
                    n.resolve(&|p| env.namespaces.resolve(p).map(str::to_string), None)
                }
            };
            CExpr::new(
                CKind::AttrStep {
                    input: Box::new(input),
                    name: aname,
                },
                span,
            )
        }
        Axis::DescendantOrSelf => CExpr::new(
            CKind::DescendantStep {
                input: Box::new(input),
            },
            span,
        ),
    };
    for p in &step.predicates {
        cur = wrap_filter(ctx, env, scope, cur, p, span);
    }
    cur
}

fn wrap_filter(
    ctx: &mut Context<'_>,
    env: &ModuleEnv,
    scope: &mut Scope,
    input: CExpr,
    pred: &Expr,
    span: Span,
) -> CExpr {
    let ctx_var = ctx.fresh("ctx");
    let saved = scope.clone();
    scope.insert(".".to_string(), ctx_var.clone());
    // inside a predicate, relative paths start at the context item: the
    // parser already encodes them as paths from ContextItem
    let p = translate_expr(ctx, env, scope, pred);
    *scope = saved;
    CExpr::new(
        CKind::Filter {
            input: Box::new(input),
            predicate: Box::new(p),
            ctx_var,
            positional: false, // decided during type checking
        },
        span,
    )
}

fn translate_call(
    ctx: &mut Context<'_>,
    env: &ModuleEnv,
    scope: &mut Scope,
    name: &Name,
    args: &[Expr],
    span: Span,
) -> CExpr {
    let cargs: Vec<CExpr> = args
        .iter()
        .map(|a| translate_expr(ctx, env, scope, a))
        .collect();
    let uri = name
        .prefix
        .as_ref()
        .and_then(|p| env.namespaces.resolve(p))
        .map(str::to_string);
    if name.prefix.is_some() && uri.is_none() {
        ctx.diag(span, format!("unbound namespace prefix in call {name}()"));
        return error_expr(cargs, span);
    }
    let builtin = match call_target(uri.as_deref(), &name.local, cargs.len()) {
        // fn:data is the atomization node
        CallTarget::Data => {
            return CExpr::new(
                CKind::Data(Box::new(cargs.into_iter().next().expect("one arg"))),
                span,
            );
        }
        // xs:TYPE(...) constructor functions are casts
        CallTarget::Cast(t) => {
            return CExpr::new(
                CKind::Cast {
                    input: Box::new(atomized(cargs.into_iter().next().expect("one arg"))),
                    target: t,
                    optional: true,
                },
                span,
            );
        }
        CallTarget::Builtin(b) => Some(b),
        CallTarget::Function => None,
    };
    if let Some(b) = builtin {
        let cargs = match b {
            // aggregates and string functions atomize their arguments
            // (function conversion rules — §3.3 stage 3)
            Builtin::Sum
            | Builtin::Avg
            | Builtin::Min
            | Builtin::Max
            | Builtin::DistinctValues
            | Builtin::UpperCase
            | Builtin::LowerCase
            | Builtin::StringLength
            | Builtin::Substring
            | Builtin::Contains
            | Builtin::StartsWith
            | Builtin::Concat
            | Builtin::Abs => cargs.into_iter().map(atomized).collect(),
            _ => cargs,
        };
        return CExpr::new(CKind::Builtin { op: b, args: cargs }, span);
    }
    // user or physical function
    let qname = match &uri {
        Some(u) => QName::with_prefix(name.prefix.as_deref().unwrap_or(""), u, &name.local),
        None => QName::local(&name.local),
    };
    if let Some(f) = ctx.functions.get(&qname) {
        if f.params.len() != cargs.len() {
            ctx.diag(
                span,
                format!(
                    "function {qname} expects {} arguments, got {}",
                    f.params.len(),
                    cargs.len()
                ),
            );
            return error_expr(cargs, span);
        }
        return CExpr::new(
            CKind::UserCall {
                name: qname,
                args: cargs,
            },
            span,
        );
    }
    if let Some(p) = ctx.registry.function(&qname) {
        if p.params.len() != cargs.len() {
            ctx.diag(
                span,
                format!(
                    "physical function {qname} expects {} arguments, got {}",
                    p.params.len(),
                    cargs.len()
                ),
            );
            return error_expr(cargs, span);
        }
        return CExpr::new(
            CKind::PhysicalCall {
                name: qname,
                args: cargs,
            },
            span,
        );
    }
    ctx.diag(span, format!("call to undeclared function {name}()"));
    error_expr(cargs, span)
}

/// What a call's resolved name and arity select, in the order
/// translation tries them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallTarget {
    /// `fn:data` — the atomization node.
    Data,
    /// An `xs:TYPE(…)` constructor function — a cast.
    Cast(AtomicType),
    /// A built-in function.
    Builtin(Builtin),
    /// Anything else: a user or physical (data-source) function.
    Function,
}

/// Classify a call by namespace URI (`None` = unprefixed), local name
/// and arity.
pub fn call_target(uri: Option<&str>, local: &str, arity: usize) -> CallTarget {
    if local == "data" && arity == 1 && (uri.is_none() || uri == Some(ns::FN)) {
        return CallTarget::Data;
    }
    if uri == Some(ns::XS) && arity == 1 {
        if let Some(t) = AtomicType::from_xs_name(local) {
            return CallTarget::Cast(t);
        }
    }
    match Builtin::resolve(uri, local, arity) {
        Some(b) => CallTarget::Builtin(b),
        None => CallTarget::Function,
    }
}

/// Wrap with atomization unless the expression is already atomic-typed
/// syntax (constants and the lifted literals that stand for them,
/// casts, existing Data nodes).
fn atomized(e: CExpr) -> CExpr {
    match &e.kind {
        CKind::Const(_) | CKind::Data(_) | CKind::Cast { .. } | CKind::Arith { .. } => e,
        CKind::Var { name, .. } if name.starts_with(LIFTED_PREFIX) => e,
        _ => {
            let span = e.span;
            CExpr::new(CKind::Data(Box::new(e)), span)
        }
    }
}

fn wrap_typematch(
    ctx: &mut Context<'_>,
    env: &ModuleEnv,
    e: CExpr,
    ty: &SeqTypeAst,
    span: Span,
) -> CExpr {
    let t = resolve_seq_type(ctx, env, ty, span);
    CExpr::new(
        CKind::TypeMatch {
            input: Box::new(e),
            ty: t,
        },
        span,
    )
}

fn wrap_typematch_iterated(
    ctx: &mut Context<'_>,
    env: &ModuleEnv,
    e: CExpr,
    ty: &SeqTypeAst,
    span: Span,
) -> CExpr {
    // the `for $x as T in …` annotation checks each item: widen to *
    let t = resolve_seq_type(ctx, env, ty, span).with_occurrence(Occurrence::Star);
    CExpr::new(
        CKind::TypeMatch {
            input: Box::new(e),
            ty: t,
        },
        span,
    )
}

fn resolve_atomic_target(
    ctx: &mut Context<'_>,
    env: &ModuleEnv,
    ty: &SeqTypeAst,
    span: Span,
) -> (AtomicType, bool) {
    match &ty.item {
        ItemTypeAst::Atomic(n) => {
            let resolved = match &n.prefix {
                None => AtomicType::from_xs_name(&n.local),
                Some(p) if env.namespaces.resolve(p) == Some(ns::XS) => {
                    AtomicType::from_xs_name(&n.local)
                }
                _ => None,
            };
            match resolved {
                Some(t) => (t, ty.occ == Occurrence::Optional),
                None => {
                    ctx.diag(span, format!("unknown atomic type {n}"));
                    (AtomicType::AnyAtomic, true)
                }
            }
        }
        other => {
            ctx.diag(
                span,
                format!("cast target must be an atomic type, found {other:?}"),
            );
            (AtomicType::AnyAtomic, true)
        }
    }
}

/// Resolve a syntactic sequence type against the module environment and
/// the imported schemas in the registry.
pub fn resolve_seq_type(
    ctx: &mut Context<'_>,
    env: &ModuleEnv,
    t: &SeqTypeAst,
    span: Span,
) -> SequenceType {
    let item = match &t.item {
        ItemTypeAst::EmptySequence => return SequenceType::Empty,
        ItemTypeAst::AnyItem => ItemType::AnyItem,
        ItemTypeAst::AnyNode => ItemType::AnyNode,
        ItemTypeAst::Text => ItemType::Text,
        ItemTypeAst::Document => ItemType::Document,
        ItemTypeAst::Atomic(n) => {
            let resolved = match &n.prefix {
                None => AtomicType::from_xs_name(&n.local),
                Some(p) if env.namespaces.resolve(p) == Some(ns::XS) => {
                    AtomicType::from_xs_name(&n.local)
                }
                _ => None,
            };
            match resolved {
                Some(a) => ItemType::Atomic(a),
                None => {
                    ctx.diag(span, format!("unknown atomic type {n}"));
                    ItemType::Error
                }
            }
        }
        ItemTypeAst::Element(name) => match name {
            None => ItemType::Element(ElementType::any()),
            Some(n) => match env.element_name(n) {
                Some(q) => {
                    // element(N): use the schema's structural shape when
                    // one is declared, else ANYTYPE content (§3.1)
                    match ctx.registry.schema_element(&q) {
                        Some(shape) => ItemType::Element(shape.clone()),
                        None => ItemType::element_any(q),
                    }
                }
                None => {
                    ctx.diag(span, format!("unbound prefix in element({n})"));
                    ItemType::Error
                }
            },
        },
        ItemTypeAst::SchemaElement(n) => match env.element_name(n) {
            Some(q) => match ctx.registry.schema_element(&q) {
                Some(shape) => ItemType::Element(shape.clone()),
                None => {
                    // schema-element(E) requires the declaration to exist
                    // (§3.1): error if not found
                    ctx.diag(
                        span,
                        format!("schema-element({n}) is not declared in any imported schema"),
                    );
                    ItemType::Error
                }
            },
            None => {
                ctx.diag(span, format!("unbound prefix in schema-element({n})"));
                ItemType::Error
            }
        },
        ItemTypeAst::Attribute(name) => {
            let aname = name
                .as_ref()
                .and_then(|n| n.resolve(&|p| env.namespaces.resolve(p).map(str::to_string), None));
            ItemType::Attribute {
                name: aname,
                typ: AtomicType::AnyAtomic,
            }
        }
    };
    SequenceType::Seq(item, t.occ)
}
