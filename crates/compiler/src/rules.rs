//! The rule-driven optimizer (§4.2).
//!
//! ALDSP's optimizer (and its lineage analyzer, §6) are driven by a
//! rewrite-rule engine over the expression tree. The rules here are the
//! ones the paper calls out:
//!
//! * **View unfolding** — user-function inlining ([`inline_user_calls`]),
//!   the XQuery analogue of relational view unfolding; recursion-safe.
//! * **Source-access elimination** — constructor/navigation elimination:
//!   `fn:data(<E>{x}</E>/LAST_NAME)`-style patterns collapse so that
//!   data feeding unused constructor parts is never fetched (§4.2's
//!   `$name` example).
//! * **Predicate normalization** — conjunctive `where` splitting and
//!   pushing each predicate to the earliest clause position its
//!   variables allow (preparing SQL pushdown, §4.3).
//! * **Nested-FLWOR flattening** and `if/()` → `where` conversion, which
//!   together let predicates travel through unfolded views.
//! * **Inverse functions** (§4.4) — `f($x) op $y` rewrites to
//!   `$x op f⁻¹($y)` for registered inverses, unblocking pushdown and
//!   updates through value transformations.
//! * **Dead-let elimination** — unused (pure) lets are dropped, so
//!   unused source accesses disappear entirely.

use crate::context::{Context, LIFTED_PREFIX};
use crate::ir::{CExpr, CKind, Clause};
use aldsp_xdm::types::{ItemType, SequenceType};
use aldsp_xdm::value::{AtomicType, AtomicValue};
use std::collections::HashSet;

/// Run the optimizer to fixpoint (bounded).
pub fn optimize(ctx: &mut Context<'_>, e: &mut CExpr) {
    inline_user_calls(ctx, e, &mut Vec::new(), 0);
    for _ in 0..20 {
        let mut changed = false;
        rewrite_bottom_up(e, &mut |node| {
            let c = simplify_node(ctx, node);
            changed |= c;
            c
        });
        if !changed {
            break;
        }
    }
}

/// Apply `f` to every node, children first, so local rewrites see
/// already-simplified inputs.
fn rewrite_bottom_up(e: &mut CExpr, f: &mut dyn FnMut(&mut CExpr) -> bool) {
    e.for_each_child_mut(&mut |c| rewrite_bottom_up(c, f));
    // re-run on this node until it stops changing locally
    while f(e) {
        e.for_each_child_mut(&mut |c| rewrite_bottom_up(c, f));
    }
}

/// View unfolding: inline user-defined function calls, renaming
/// parameters fresh and binding arguments with `let`s. Recursive calls
/// are left in place (and reported — ALDSP's data-service functions are
/// non-recursive).
pub fn inline_user_calls(
    ctx: &mut Context<'_>,
    e: &mut CExpr,
    stack: &mut Vec<aldsp_xdm::QName>,
    depth: usize,
) {
    e.for_each_child_mut(&mut |c| inline_user_calls(ctx, c, stack, depth));
    if let CKind::UserCall { name, args } = &e.kind {
        if depth > 64 {
            ctx.diag(e.span, format!("inlining depth exceeded at {name}"));
            return;
        }
        if stack.contains(name) {
            ctx.diag(
                e.span,
                format!("recursive data-service function {name} cannot be unfolded"),
            );
            return;
        }
        let Some(f) = ctx.functions.get(name) else {
            return;
        };
        let Some(body) = f.body.clone() else {
            // body in error (§4.1) or external-without-binding: leave the
            // call; the signature already type-checked the use site
            return;
        };
        let params = f.params.clone();
        let fname = name.clone();
        let args = args.clone();
        // rename the body's bound variables fresh? Bodies were translated
        // with globally-unique names, but inlining the same function
        // twice would duplicate them — so alpha-rename parameters and
        // rely on let-binding for arguments.
        let mut inlined = body;
        let mut clauses = Vec::with_capacity(params.len());
        for ((pvar, _pty), arg) in params.iter().zip(args) {
            let fresh = ctx.fresh(pvar);
            inlined.substitute(pvar, &CExpr::var(&fresh, inlined.span));
            clauses.push(Clause::Let {
                var: fresh,
                value: arg,
            });
        }
        let mut result = if clauses.is_empty() {
            inlined
        } else {
            CExpr::new(
                CKind::Flwor {
                    clauses,
                    ret: Box::new(inlined),
                },
                e.span,
            )
        };
        // rename *all* bindings introduced by the body so that a second
        // inlining of the same function cannot collide
        freshen_bindings(ctx, &mut result);
        stack.push(fname);
        inline_user_calls(ctx, &mut result, stack, depth + 1);
        stack.pop();
        *e = result;
    }
}

/// Alpha-rename every binding introduced inside `e` to a fresh name.
fn freshen_bindings(ctx: &mut Context<'_>, e: &mut CExpr) {
    match &mut e.kind {
        CKind::Flwor { clauses, ret } => {
            let mut renames: Vec<(String, String)> = Vec::new();
            let apply = |s: &mut CExpr, renames: &[(String, String)], ctx: &mut Context<'_>| {
                let mut s2 = std::mem::replace(s, CExpr::empty(Default::default()));
                for (old, new) in renames {
                    s2.substitute(old, &CExpr::var(new, s2.span));
                }
                freshen_bindings(ctx, &mut s2);
                *s = s2;
            };
            for c in clauses.iter_mut() {
                match c {
                    Clause::For { var, pos, source } => {
                        apply(source, &renames, ctx);
                        let nv = ctx.fresh(var.split("__").next().unwrap_or(var));
                        renames.push((var.clone(), nv.clone()));
                        *var = nv;
                        if let Some(p) = pos {
                            let np = ctx.fresh(p.split("__").next().unwrap_or(p));
                            renames.push((p.clone(), np.clone()));
                            *p = np;
                        }
                    }
                    Clause::Let { var, value } => {
                        apply(value, &renames, ctx);
                        let nv = ctx.fresh(var.split("__").next().unwrap_or(var));
                        renames.push((var.clone(), nv.clone()));
                        *var = nv;
                    }
                    Clause::Where(w) => apply(w, &renames, ctx),
                    Clause::GroupBy {
                        bindings,
                        keys,
                        carry,
                        ..
                    } => {
                        for (k, alias) in keys.iter_mut() {
                            apply(k, &renames, ctx);
                            let na = ctx.fresh(alias.split("__").next().unwrap_or(alias));
                            renames.push((alias.clone(), na.clone()));
                            *alias = na;
                        }
                        for (from, to) in bindings.iter_mut().chain(carry.iter_mut()) {
                            if let Some((_, n)) = renames.iter().find(|(o, _)| o == from) {
                                *from = n.clone();
                            }
                            let nt = ctx.fresh(to.split("__").next().unwrap_or(to));
                            renames.push((to.clone(), nt.clone()));
                            *to = nt;
                        }
                    }
                    Clause::OrderBy(specs) => {
                        for s in specs.iter_mut() {
                            apply(&mut s.expr, &renames, ctx);
                        }
                    }
                    Clause::SqlFor {
                        params, ppk, binds, ..
                    } => {
                        for p in params.iter_mut() {
                            apply(p, &renames, ctx);
                        }
                        if let Some(pk) = ppk {
                            for k in pk.outer_keys.iter_mut() {
                                apply(k, &renames, ctx);
                            }
                        }
                        for (b, _) in binds.iter_mut() {
                            let nb = ctx.fresh(b.split("__").next().unwrap_or(b));
                            renames.push((b.clone(), nb.clone()));
                            *b = nb;
                        }
                    }
                }
            }
            apply(ret, &renames, ctx);
        }
        CKind::Quantified {
            var,
            source,
            satisfies,
            ..
        } => {
            freshen_bindings(ctx, source);
            let nv = ctx.fresh(var.split("__").next().unwrap_or(var));
            satisfies.substitute(var, &CExpr::var(&nv, satisfies.span));
            *var = nv;
            freshen_bindings(ctx, satisfies);
        }
        CKind::Filter {
            input,
            predicate,
            ctx_var,
            ..
        } => {
            freshen_bindings(ctx, input);
            let nv = ctx.fresh("ctx");
            predicate.substitute(ctx_var, &CExpr::var(&nv, predicate.span));
            *ctx_var = nv;
            freshen_bindings(ctx, predicate);
        }
        CKind::Typeswitch {
            operand,
            cases,
            default,
        } => {
            freshen_bindings(ctx, operand);
            for (_, v, b) in cases.iter_mut() {
                let nv = ctx.fresh("tsw");
                b.substitute(v, &CExpr::var(&nv, b.span));
                *v = nv;
                freshen_bindings(ctx, b);
            }
            let nv = ctx.fresh("tsw");
            default
                .1
                .substitute(&default.0, &CExpr::var(&nv, default.1.span));
            default.0 = nv;
            freshen_bindings(ctx, &mut default.1);
        }
        _ => e.for_each_child_mut(&mut |c| freshen_bindings(ctx, c)),
    }
}

/// One local simplification step; returns true if the node changed.
fn simplify_node(ctx: &mut Context<'_>, e: &mut CExpr) -> bool {
    let span = e.span;
    match &mut e.kind {
        // data(<E>{x}</E>) with simple content → atomized content
        CKind::Data(inner) => {
            // data(<E>{x}</E>) and data(<E?>{x}</E>) both equal data(x)
            // for atomic content: the conditional form omits the element
            // exactly when x is empty, and data of nothing is nothing
            if let CKind::ElementCtor {
                attributes,
                content,
                ..
            } = &inner.kind
            {
                if attributes.is_empty() && is_atomic_content(content) {
                    let c = (**content).clone();
                    *e = CExpr::new(CKind::Data(Box::new(unwrap_seq1(c))), span);
                    return true;
                }
            }
            // data(data(x)) → data(x)
            if let CKind::Data(inner2) = &inner.kind {
                let i = (**inner2).clone();
                *e = CExpr::new(CKind::Data(Box::new(i)), span);
                return false; // structurally same shape; avoid loop
            }
            // data(FLWOR) → FLWOR wrapping data over the return
            if let CKind::Flwor { clauses, ret } = &inner.kind {
                if flwor_is_mappable(clauses) {
                    let new_ret = CExpr::new(CKind::Data(Box::new((**ret).clone())), ret.span);
                    *e = CExpr::new(
                        CKind::Flwor {
                            clauses: clauses.clone(),
                            ret: Box::new(new_ret),
                        },
                        span,
                    );
                    return true;
                }
            }
            false
        }
        // <E>…</E>/child — constructor/navigation elimination (§4.2)
        CKind::ChildStep {
            input,
            name: Some(name),
        } => {
            match &input.kind {
                CKind::ElementCtor { content, .. } => {
                    if let Some(projected) = project_content(content, name) {
                        *e = projected;
                        return true;
                    }
                    false
                }
                // ($x/A)/B etc. left alone; FLWOR maps through
                CKind::Flwor { clauses, ret } if flwor_is_mappable(clauses) => {
                    let new_ret = CExpr::new(
                        CKind::ChildStep {
                            input: Box::new((**ret).clone()),
                            name: Some(name.clone()),
                        },
                        ret.span,
                    );
                    *e = CExpr::new(
                        CKind::Flwor {
                            clauses: clauses.clone(),
                            ret: Box::new(new_ret),
                        },
                        span,
                    );
                    true
                }
                CKind::Seq(parts) if !parts.is_empty() => {
                    let mapped: Vec<CExpr> = parts
                        .iter()
                        .map(|p| {
                            CExpr::new(
                                CKind::ChildStep {
                                    input: Box::new(p.clone()),
                                    name: Some(name.clone()),
                                },
                                p.span,
                            )
                        })
                        .collect();
                    *e = CExpr::new(CKind::Seq(mapped), span);
                    true
                }
                _ => false,
            }
        }
        // filter over FLWOR maps into the return (non-positional)
        CKind::Filter {
            input,
            predicate,
            ctx_var,
            positional: false,
        } => {
            match &input.kind {
                CKind::Flwor { clauses, ret } if flwor_is_mappable(clauses) => {
                    let new_ret = CExpr::new(
                        CKind::Filter {
                            input: Box::new((**ret).clone()),
                            predicate: predicate.clone(),
                            ctx_var: ctx_var.clone(),
                            positional: false,
                        },
                        ret.span,
                    );
                    *e = CExpr::new(
                        CKind::Flwor {
                            clauses: clauses.clone(),
                            ret: Box::new(new_ret),
                        },
                        span,
                    );
                    true
                }
                // filter over a many-valued source normalizes to FLWOR
                // form so pushdown sees one uniform shape:
                //   e[p]  ≡  for $v in e where p($v) return $v
                CKind::PhysicalCall { .. } | CKind::ChildStep { .. } | CKind::Var { .. }
                    if !singleton_like(&input.ty) =>
                {
                    let iv = (**input).clone();
                    let pred = (**predicate).clone();
                    let cv = ctx_var.clone();
                    *e = CExpr::new(
                        CKind::Flwor {
                            clauses: vec![
                                Clause::For {
                                    var: cv.clone(),
                                    pos: None,
                                    source: iv,
                                },
                                Clause::Where(pred),
                            ],
                            ret: Box::new(CExpr::var(&cv, span)),
                        },
                        span,
                    );
                    true
                }
                // filter over a singleton: let + if (unlocks predicate
                // motion into where clauses)
                _ if singleton_like(&input.ty) => {
                    let iv = (**input).clone();
                    let pred = (**predicate).clone();
                    let cv = ctx_var.clone();
                    *e = CExpr::new(
                        CKind::Flwor {
                            clauses: vec![Clause::Let {
                                var: cv.clone(),
                                value: iv,
                            }],
                            ret: Box::new(CExpr::new(
                                CKind::If {
                                    cond: Box::new(pred),
                                    then: Box::new(CExpr::var(&cv, span)),
                                    els: Box::new(CExpr::empty(span)),
                                },
                                span,
                            )),
                        },
                        span,
                    );
                    true
                }
                _ => false,
            }
        }
        CKind::Flwor { .. } => {
            let mut taken = std::mem::replace(e, CExpr::empty(span));
            let changed;
            if let CKind::Flwor {
                ref mut clauses,
                ref mut ret,
            } = taken.kind
            {
                let mut replacement: Option<CExpr> = None;
                changed = simplify_flwor(ctx, clauses, ret, span, &mut replacement);
                *e = match replacement {
                    Some(r) => r,
                    None => taken,
                };
            } else {
                unreachable!("matched Flwor above");
            }
            changed
        }
        // inverse-function rewrite (§4.4): f($x) op $y → $x op f⁻¹($y)
        CKind::Compare {
            op,
            general,
            lhs,
            rhs,
        } => {
            let op = *op;
            let general = *general;
            if let Some((inner, inv, other, swapped)) = match_inverse(ctx, lhs, rhs) {
                let new_lhs = if swapped {
                    other.clone()
                } else {
                    inner.clone()
                };
                let new_rhs_core = if swapped { inner } else { other };
                let inv_call = CExpr::new(
                    CKind::PhysicalCall {
                        name: inv,
                        args: vec![new_rhs_core],
                    },
                    span,
                );
                let (l, r) = if swapped {
                    (inv_call, new_lhs)
                } else {
                    (new_lhs, inv_call)
                };
                *e = CExpr::new(
                    CKind::Compare {
                        op,
                        general,
                        lhs: Box::new(l),
                        rhs: Box::new(r),
                    },
                    span,
                );
                return true;
            }
            false
        }
        _ => false,
    }
}

/// Match `f(x) op y` (either side) where `f` has a registered inverse.
/// Returns `(x, f⁻¹ name, y, swapped)`.
fn match_inverse(
    ctx: &Context<'_>,
    lhs: &CExpr,
    rhs: &CExpr,
) -> Option<(CExpr, aldsp_xdm::QName, CExpr, bool)> {
    let extract = |side: &CExpr| -> Option<(aldsp_xdm::QName, CExpr)> {
        let core = match &side.kind {
            CKind::Data(inner) => inner,
            _ => return extract_call(side),
        };
        extract_call(core)
    };
    fn extract_call(e: &CExpr) -> Option<(aldsp_xdm::QName, CExpr)> {
        match &e.kind {
            CKind::PhysicalCall { name, args } | CKind::UserCall { name, args }
                if args.len() == 1 =>
            {
                Some((name.clone(), args[0].clone()))
            }
            _ => None,
        }
    }
    if let Some((f, x)) = extract(lhs) {
        if let Some(inv) = ctx.inverses.inverse_of(&f) {
            return Some((x, inv.clone(), rhs.clone(), false));
        }
    }
    if let Some((f, x)) = extract(rhs) {
        if let Some(inv) = ctx.inverses.inverse_of(&f) {
            return Some((x, inv.clone(), lhs.clone(), true));
        }
    }
    None
}

fn simplify_flwor(
    _ctx: &mut Context<'_>,
    clauses: &mut Vec<Clause>,
    ret: &mut Box<CExpr>,
    span: crate::ir::Span,
    replacement: &mut Option<CExpr>,
) -> bool {
    let mut changed = false;
    // 1. split conjunctive where clauses
    let mut i = 0;
    while i < clauses.len() {
        if let Clause::Where(w) = &clauses[i] {
            if let CKind::And(a, b) = &w.kind {
                let (a, b) = ((**a).clone(), (**b).clone());
                clauses[i] = Clause::Where(a);
                clauses.insert(i + 1, Clause::Where(b));
                changed = true;
                continue;
            }
        }
        i += 1;
    }
    // 1b. project child steps on let-bound constructors: with
    //     `let $v := <E><CID>{…}</CID>…</E>`, an occurrence of `$v/CID`
    //     in the return becomes the (cheap) CID constructor itself, so
    //     it no longer forces construction of the rest — the §4.2
    //     access-elimination pattern
    for c in clauses.iter() {
        if let Clause::Let { var, value } = c {
            if let CKind::ElementCtor { content, .. } = &value.kind {
                changed |= project_var_steps(ret, var, content);
            }
        }
    }
    // 2. if the return is `if (p) then r else ()`, lift p into a where
    //    clause (valid: per-tuple filtering) — unless grouping follows
    let has_group = clauses.iter().any(|c| matches!(c, Clause::GroupBy { .. }));
    if !has_group {
        if let CKind::If { cond, then, els } = &ret.kind {
            if is_empty_seq(els) {
                clauses.push(Clause::Where((**cond).clone()));
                let t = (**then).clone();
                **ret = t;
                changed = true;
            }
        }
    }
    // 3. flatten a mappable nested FLWOR in return position
    if let CKind::Flwor {
        clauses: inner,
        ret: iret,
    } = &ret.kind
    {
        if flwor_is_mappable(inner) && !has_group {
            let mut all = clauses.clone();
            all.extend(inner.clone());
            let new_ret = (**iret).clone();
            *replacement = Some(CExpr::new(
                CKind::Flwor {
                    clauses: all,
                    ret: Box::new(new_ret),
                },
                span,
            ));
            return true;
        }
    }
    // 4. push where clauses to the earliest position their variables allow
    changed |= hoist_wheres(clauses);
    // 4b. inline single-use pure lets (keeps pushdown patterns visible
    //     through `let $cs := … return subsequence($cs, …)` chains)
    {
        let mut i = 0;
        while i < clauses.len() {
            if let Clause::Let { var, value } = &clauses[i] {
                if is_pure(value) {
                    let var = var.clone();
                    let mut uses = 0usize;
                    for c in clauses.iter().skip(i + 1) {
                        uses += clause_var_uses(c, &var);
                    }
                    uses += count_var_uses(ret, &var);
                    if uses == 1 {
                        let value = value.clone();
                        clauses.remove(i);
                        for c in clauses.iter_mut().skip(i) {
                            substitute_clause(c, &var, &value);
                        }
                        ret.substitute(&var, &value);
                        changed = true;
                        continue;
                    }
                }
            }
            i += 1;
        }
    }
    // 5. drop unused pure lets (unused source accesses vanish, §4.2)
    let used = {
        let mut used: HashSet<String> = ret.free_vars();
        for c in clauses.iter() {
            match c {
                Clause::For { source, .. } => used.extend(source.free_vars()),
                Clause::Let { value, .. } => used.extend(value.free_vars()),
                Clause::Where(w) => used.extend(w.free_vars()),
                Clause::GroupBy {
                    bindings,
                    keys,
                    carry,
                    ..
                } => {
                    for (k, _) in keys {
                        used.extend(k.free_vars());
                    }
                    for (from, _) in bindings.iter().chain(carry.iter()) {
                        used.insert(from.clone());
                    }
                }
                Clause::OrderBy(specs) => {
                    for s in specs {
                        used.extend(s.expr.free_vars());
                    }
                }
                Clause::SqlFor { params, ppk, .. } => {
                    for p in params {
                        used.extend(p.free_vars());
                    }
                    if let Some(pk) = ppk {
                        for k in &pk.outer_keys {
                            used.extend(k.free_vars());
                        }
                    }
                }
            }
        }
        used
    };
    let before = clauses.len();
    clauses.retain(|c| match c {
        Clause::Let { var, value } => used.contains(var) || !is_pure(value),
        _ => true,
    });
    changed |= clauses.len() != before;
    // 6. a FLWOR with no clauses is just its return
    if clauses.is_empty() {
        *replacement = Some((**ret).clone());
        return true;
    }
    // 7. a one-clause FLWOR that binds `$x` (a `let`, or a `for`
    //    without `at`) and returns `$x` is its source: a view layer
    //    `for $c in S return $c` unfolds to S, so a caller's predicate
    //    still reaches S
    if clauses.len() == 1 {
        if let Clause::Let { var, value: s }
        | Clause::For {
            var,
            pos: None,
            source: s,
        } = &clauses[0]
        {
            if matches!(&ret.kind, CKind::Var { name: v, .. } if v == var) {
                *replacement = Some(s.clone());
                return true;
            }
        }
    }
    changed
}

/// The staged predicate-placement pass: a global analysis over whole
/// clause lists that the per-node rewrite walk cannot express — run
/// once, after normalization, before SQL pushdown.
///
/// **Contradiction pruning** — two value-comparison filters
/// `expr eq C1` … `expr eq C2` with `C1 ≠ C2` can never both hold, so
/// the *later* one is replaced by `where false()` (replacing the later
/// clause keeps error semantics: the first comparison still evaluates,
/// and when it held, the second was type-safe and false).
///
/// The rewrite is idempotent by construction — the staged-pass
/// contract `run_pass` asserts in debug builds.
pub fn place_predicates(ctx: &mut Context<'_>, e: &mut CExpr) {
    e.for_each_child_mut(&mut |c| place_predicates(ctx, c));
    if let CKind::Flwor { clauses, .. } = &mut e.kind {
        ctx.value_dependent |= prune_contradictions(clauses);
    }
}

/// The constant side of a value comparison: a literal, or a literal
/// lifted out of the query text, of which only the type is known.
enum Literal {
    Const(AtomicValue),
    Lifted(AtomicType),
}

impl Literal {
    fn of(e: &CExpr) -> Option<Literal> {
        match (&e.kind, e.ty.item_type()) {
            (CKind::Const(v), _) => Some(Literal::Const(v.clone())),
            (CKind::Var { name, .. }, Some(ItemType::Atomic(t)))
                if name.starts_with(LIFTED_PREFIX) =>
            {
                Some(Literal::Lifted(*t))
            }
            _ => None,
        }
    }

    fn type_of(&self) -> AtomicType {
        match self {
            Literal::Const(v) => v.type_of(),
            Literal::Lifted(t) => *t,
        }
    }
}

/// Match a value comparison `expr eq <literal>` (either side) against
/// a type whose structural equality is semantic equality. The
/// expression comes back without source positions, so two occurrences
/// of one expression compare equal wherever the text wrote them.
fn const_equality(c: &Clause) -> Option<(CExpr, Literal)> {
    let Clause::Where(w) = c else { return None };
    let CKind::Compare {
        op: aldsp_xdm::item::CompOp::Eq,
        general: false,
        lhs,
        rhs,
    } = &w.kind
    else {
        return None;
    };
    let (expr, lit) = match (Literal::of(lhs), Literal::of(rhs)) {
        (_, Some(lit)) => (lhs, lit),
        (Some(lit), _) => (rhs, lit),
        _ => return None,
    };
    // Integer/String/Boolean literals compare structurally iff they
    // compare semantically; decimals (1.0 vs 1.00) and dates do not.
    // The comparison is evaluated twice, so it must not be able to
    // tell.
    if !matches!(
        lit.type_of(),
        AtomicType::Integer | AtomicType::String | AtomicType::Boolean
    ) || !is_pure(expr)
    {
        return None;
    }
    let mut expr = (**expr).clone();
    fn unplace(e: &mut CExpr) {
        e.span = Default::default();
        e.for_each_child_mut(&mut unplace);
    }
    unplace(&mut expr);
    Some((expr, lit))
}

/// Replace the later of two contradictory equality filters by
/// `where false()`. Returns `true` when one of a pair that might
/// contradict is a lifted literal: whether it does depends on a value
/// this compile does not have.
fn prune_contradictions(clauses: &mut [Clause]) -> bool {
    let mut value_dependent = false;
    let mut equalities: Vec<_> = clauses.iter().map(const_equality).collect();
    for j in 1..clauses.len() {
        let Some((expr, lit)) = &equalities[j] else {
            continue;
        };
        let mut found = false;
        for (c, prev) in clauses[..j].iter().zip(&equalities).rev() {
            // grouping/ordering rebinds or reorders scope: stop looking
            if matches!(c, Clause::GroupBy { .. } | Clause::OrderBy(_)) {
                break;
            }
            let Some((pe, pl)) = prev else { continue };
            if pe != expr || pl.type_of() != lit.type_of() {
                continue;
            }
            match (pl, lit) {
                (Literal::Const(a), Literal::Const(b)) if a != b => {
                    found = true;
                    break;
                }
                (Literal::Const(_), Literal::Const(_)) => {}
                _ => value_dependent = true,
            }
        }
        if let (true, Clause::Where(w)) = (found, &clauses[j]) {
            clauses[j] = Clause::Where(CExpr::constant(AtomicValue::Boolean(false), w.span));
            equalities[j] = None;
        }
    }
    value_dependent
}

/// Move `where` clauses up to just after the clause that binds the last
/// of their free variables (§4.3's "where conditions pushed into joins").
fn hoist_wheres(clauses: &mut Vec<Clause>) -> bool {
    let mut changed = false;
    let mut i = 0;
    while i < clauses.len() {
        if matches!(clauses[i], Clause::Where(_)) {
            let Clause::Where(w) = clauses[i].clone() else {
                unreachable!()
            };
            let free = w.free_vars();
            // earliest legal position: after the last binding clause that
            // introduces one of `free`, and never across group/order
            let mut earliest = 0;
            for (j, c) in clauses.iter().enumerate().take(i) {
                let binds_needed = clause_bindings(c).iter().any(|b| free.contains(b));
                let barrier = matches!(c, Clause::GroupBy { .. } | Clause::OrderBy(_));
                if binds_needed || barrier {
                    earliest = j + 1;
                }
            }
            // never leapfrog a sibling filter: hoisting is about
            // crossing *binding* clauses, and two filters with the
            // same earliest slot would otherwise swap places on every
            // pass, making the rewrite fixpoint diverge
            while earliest < i && matches!(clauses[earliest], Clause::Where(_)) {
                earliest += 1;
            }
            if earliest < i {
                clauses.remove(i);
                clauses.insert(earliest, Clause::Where(w));
                changed = true;
            }
        }
        i += 1;
    }
    changed
}

/// The variables a clause binds.
pub fn clause_bindings(c: &Clause) -> Vec<String> {
    match c {
        Clause::For { var, pos, .. } => {
            let mut v = vec![var.clone()];
            if let Some(p) = pos {
                v.push(p.clone());
            }
            v
        }
        Clause::Let { var, .. } => vec![var.clone()],
        Clause::GroupBy {
            bindings,
            keys,
            carry,
            ..
        } => bindings
            .iter()
            .map(|(_, to)| to.clone())
            .chain(keys.iter().map(|(_, a)| a.clone()))
            .chain(carry.iter().map(|(_, to)| to.clone()))
            .collect(),
        Clause::SqlFor { binds, .. } => binds.iter().map(|(b, _)| b.clone()).collect(),
        _ => Vec::new(),
    }
}

/// Clauses that make a FLWOR an item-wise map (safe to push maps/filters
/// through): no grouping or ordering.
fn flwor_is_mappable(clauses: &[Clause]) -> bool {
    clauses
        .iter()
        .all(|c| !matches!(c, Clause::GroupBy { .. } | Clause::OrderBy(_)))
}

fn is_empty_seq(e: &CExpr) -> bool {
    matches!(&e.kind, CKind::Seq(v) if v.is_empty())
}

fn singleton_like(t: &SequenceType) -> bool {
    !t.occurrence().allows_many() && !matches!(t, SequenceType::Empty)
}

fn is_atomic_content(content: &CExpr) -> bool {
    match &content.ty {
        SequenceType::Seq(ItemType::Atomic(_), _) => true,
        SequenceType::Empty => true,
        _ => matches!(&content.kind, CKind::Seq(parts) if parts.len() == 1
            && matches!(&parts[0].ty, SequenceType::Seq(ItemType::Atomic(_), _))),
    }
}

fn unwrap_seq1(e: CExpr) -> CExpr {
    match e.kind {
        CKind::Seq(mut parts) if parts.len() == 1 => parts.remove(0),
        _ => e,
    }
}

/// Replace `ChildStep(Var var, name)` occurrences inside `e` with the
/// projection of `content` (a let-bound constructor's content), where
/// projectable. Does not descend into scopes that rebind `var`.
fn project_var_steps(e: &mut CExpr, var: &str, content: &CExpr) -> bool {
    // rebinding can't occur: translation alpha-renamed all bindings unique
    let mut changed = false;
    if let CKind::ChildStep {
        input,
        name: Some(name),
    } = &e.kind
    {
        if matches!(&input.kind, CKind::Var { name: v, .. } if v == var) {
            if let Some(projected) = project_content(content, name) {
                *e = projected;
                return true;
            }
        }
    }
    e.for_each_child_mut(&mut |c| changed |= project_var_steps(c, var, content));
    changed
}

/// Project `ctor-content/child::name`: succeeds when every content part
/// has a statically known element name (then the matching parts are the
/// step result) — the §4.2 source-access-elimination enabler.
fn project_content(content: &CExpr, name: &aldsp_xdm::QName) -> Option<CExpr> {
    let parts: Vec<&CExpr> = match &content.kind {
        CKind::Seq(parts) => parts.iter().collect(),
        _ => vec![content],
    };
    let mut selected = Vec::new();
    for p in parts {
        match &p.kind {
            CKind::ElementCtor { name: n, .. } => {
                if n == name {
                    selected.push(p.clone());
                }
            }
            // a typed part with a known, *different* element name can be
            // skipped; matching or unknown shapes block projection
            _ => match p.ty.item_type() {
                Some(ItemType::Element(et)) => match &et.name {
                    Some(n) if n != name => {}
                    _ => return None,
                },
                Some(ItemType::Atomic(_)) => {
                    // text content: contributes nothing to a child step
                }
                _ => return None,
            },
        }
    }
    Some(match selected.len() {
        0 => CExpr::empty(content.span),
        1 => selected.remove(0),
        _ => CExpr::new(CKind::Seq(selected), content.span),
    })
}

/// Occurrences of a free variable in an expression.
fn count_var_uses(e: &CExpr, var: &str) -> usize {
    let mut n = 0;
    // bindings are globally unique after translation, so no shadowing
    e.walk(&mut |x| {
        if matches!(&x.kind, CKind::Var { name: v, .. } if v == var) {
            n += 1;
        }
    });
    n
}

fn clause_var_uses(c: &Clause, var: &str) -> usize {
    let mut n = 0;
    match c {
        Clause::For { source, .. } => n += count_var_uses(source, var),
        Clause::Let { value, .. } => n += count_var_uses(value, var),
        Clause::Where(w) => n += count_var_uses(w, var),
        Clause::GroupBy {
            keys,
            bindings,
            carry,
            ..
        } => {
            for (k, _) in keys {
                n += count_var_uses(k, var);
            }
            n += carry.iter().filter(|(from, _)| from == var).count() * 2;
            // a group binding holds the variable *by name* — it cannot be
            // substituted with an expression, so treat it as two uses to
            // block single-use inlining
            n += bindings.iter().filter(|(from, _)| from == var).count() * 2;
        }
        Clause::OrderBy(specs) => {
            for s in specs {
                n += count_var_uses(&s.expr, var);
            }
        }
        Clause::SqlFor { params, ppk, .. } => {
            for p in params {
                n += count_var_uses(p, var);
            }
            if let Some(pk) = ppk {
                for k in &pk.outer_keys {
                    n += count_var_uses(k, var);
                }
            }
        }
    }
    n
}

fn substitute_clause(c: &mut Clause, var: &str, value: &CExpr) {
    match c {
        Clause::For { source, .. } => source.substitute(var, value),
        Clause::Let { value: v, .. } => v.substitute(var, value),
        Clause::Where(w) => w.substitute(var, value),
        Clause::GroupBy { keys, .. } => {
            for (k, _) in keys.iter_mut() {
                k.substitute(var, value);
            }
        }
        Clause::OrderBy(specs) => {
            for s in specs.iter_mut() {
                s.expr.substitute(var, value);
            }
        }
        Clause::SqlFor { params, ppk, .. } => {
            for p in params.iter_mut() {
                p.substitute(var, value);
            }
            if let Some(pk) = ppk {
                for k in pk.outer_keys.iter_mut() {
                    k.substitute(var, value);
                }
            }
        }
    }
}

/// Purity for dead-code elimination: everything except the async/timing
/// extension functions is side-effect-free; dropping an unused *pure*
/// source access is precisely the paper's "not fetched at all" win.
pub fn is_pure(e: &CExpr) -> bool {
    let mut pure = true;
    e.walk(&mut |n| {
        if let CKind::Builtin {
            op: crate::ir::Builtin::Async | crate::ir::Builtin::Timeout | crate::ir::Builtin::FailOver,
            ..
        } = &n.kind
        {
            pure = false;
        }
    });
    pure
}

#[cfg(test)]
mod rules_tests {
    use crate::tests::compile;

    /// Regression: two `where` conjuncts whose earliest legal slots
    /// coincide used to leapfrog each other on every `hoist_wheres`
    /// pass, so the rewrite fixpoint diverged and compilation hung.
    #[test]
    fn equal_earliest_wheres_reach_fixpoint() {
        // both split conjuncts hoist to just after `for $c`
        compile(
            r#"for $c in c:CUSTOMER()
               where $c/CID ne "CUST001" and $c/LAST_NAME eq "Jones"
               return $c/CID"#,
        );
        // join conjunct and single-var conjunct share the slot after
        // the second `for`
        compile(
            r#"for $cc in cc:CREDIT_CARD()
               for $c in c:CUSTOMER()
               where $cc/CID eq $c/CID and lib:int2date($c/SINCE) le lib:int2date(1005)
               return $c/CID"#,
        );
    }
}

#[cfg(test)]
mod predicate_placement_tests {
    use super::*;
    use aldsp_parser::ast::Span;
    use aldsp_xdm::item::CompOp;
    use aldsp_xdm::value::AtomicValue;

    fn sp() -> Span {
        Span::default()
    }

    fn eq_const(var: &str, v: AtomicValue) -> CExpr {
        CExpr::new(
            CKind::Compare {
                op: CompOp::Eq,
                general: false,
                lhs: Box::new(CExpr::var(var, sp())),
                rhs: Box::new(CExpr::constant(v, sp())),
            },
            sp(),
        )
    }

    fn wheres(filters: Vec<CExpr>) -> Vec<Clause> {
        filters.into_iter().map(Clause::Where).collect()
    }

    fn is_where_false(c: &Clause) -> bool {
        matches!(c, Clause::Where(w)
            if matches!(&w.kind, CKind::Const(AtomicValue::Boolean(false))))
    }

    #[test]
    fn contradictory_equalities_prune_the_later_filter() {
        let mut clauses = wheres(vec![
            eq_const("x", AtomicValue::String("a".into())),
            eq_const("x", AtomicValue::String("b".into())),
        ]);
        prune_contradictions(&mut clauses);
        assert!(matches!(&clauses[0], Clause::Where(w)
            if matches!(w.kind, CKind::Compare { .. })));
        assert!(is_where_false(&clauses[1]));

        // same value: no contradiction (duplicate elimination's job)
        let mut same = wheres(vec![
            eq_const("x", AtomicValue::Integer(7)),
            eq_const("x", AtomicValue::Integer(7)),
        ]);
        prune_contradictions(&mut same);
        assert!(!same.iter().any(is_where_false));

        // non-Integer/String/Boolean literal types are excluded from the rule
        let mut dec = wheres(vec![
            eq_const(
                "x",
                AtomicValue::Decimal(aldsp_xdm::value::Decimal::from_int(1)),
            ),
            eq_const(
                "x",
                AtomicValue::Decimal(aldsp_xdm::value::Decimal::from_int(2)),
            ),
        ]);
        prune_contradictions(&mut dec);
        assert!(!dec.iter().any(is_where_false));

        // a group-by between the filters rebinds scope: no pruning across it
        let mut grouped = vec![
            Clause::Where(eq_const("x", AtomicValue::Integer(1))),
            Clause::GroupBy {
                bindings: vec![],
                keys: vec![],
                carry: vec![],
                pre_clustered: false,
            },
            Clause::Where(eq_const("x", AtomicValue::Integer(2))),
        ];
        prune_contradictions(&mut grouped);
        assert!(!grouped.iter().any(is_where_false));
    }

    #[test]
    fn place_predicates_is_idempotent_on_mixed_filters() {
        let reg = aldsp_metadata::Registry::new();
        let opts = crate::Options::default();
        let mut ctx = Context::new(&reg, &opts);
        let clauses = vec![
            Clause::Where(eq_const("x", AtomicValue::Integer(1))),
            Clause::Where(eq_const("x", AtomicValue::Integer(2))),
        ];
        let mut plan = CExpr::new(
            CKind::Flwor {
                clauses,
                ret: Box::new(CExpr::var("x", sp())),
            },
            sp(),
        );
        place_predicates(&mut ctx, &mut plan);
        let CKind::Flwor { clauses, .. } = &plan.kind else {
            panic!("flwor survived");
        };
        // contradiction replaced with `where false`
        assert_eq!(clauses.len(), 2);
        assert!(is_where_false(&clauses[1]));
        let once = plan.clone();
        place_predicates(&mut ctx, &mut plan);
        assert_eq!(plan, once);
    }
}
