//! SQL plan preparation, pushdown analysis and SQL generation (§4.3–4.4).
//!
//! After view unfolding and predicate normalization, this pass looks at
//! regions of the expression tree "that involve data that all comes from
//! the same relational database" (determined from the metadata on the
//! physical functions) and replaces them with [`Clause::SqlFor`] nodes
//! carrying generated SQL:
//!
//! * consecutive `for` clauses over tables/navigation functions of one
//!   connection become a join tree (Table 1(b));
//! * pushable `where` conjuncts go into the `ON`/`WHERE`; expressions
//!   without pushed variables are shipped as *parameters* evaluated in
//!   the XQuery engine (§4.3) — which is how the inverse-function
//!   rewrite's `date2int($start)` reaches the source (§4.4);
//! * correlated nested FLWORs in constructor content are hoisted:
//!   same-connection, single-outer-table cases merge into a **left
//!   outer join** with a clustered middleware group-by (Tables 1(c),
//!   2(g)); cross-source cases become **PP-k** dependent joins (§4.2);
//! * `group by` over pushed fields becomes SQL `GROUP BY`/`DISTINCT`
//!   (Tables 1(e), 1(f)), aggregates over group bindings push as SQL
//!   aggregates;
//! * trailing `order by` and `fn:subsequence` push as `ORDER BY` and
//!   dialect-specific pagination (Table 2(i)) when the vendor supports
//!   it;
//! * quantified expressions over one source become `EXISTS` semi-joins
//!   (Table 2(h)).

use crate::context::{Context, LIFTED_PREFIX};
use crate::ir::{Builtin, CExpr, CKind, Clause, PpkSpec};
use aldsp_metadata::SourceBinding;
use aldsp_relational::{
    AggFunc, JoinKind, OrderBy, ScalarExpr, Select, SqlType, SqlValue, TableRef,
};
use aldsp_xdm::item::CompOp;
use aldsp_xdm::types::{ContentType, ElementType, Occurrence};
use aldsp_xdm::value::AtomicType;
use aldsp_xdm::QName;
use std::collections::HashMap;

/// Insertion-ordered variable map — SQL column order must be
/// deterministic for the dialect goldens.
#[derive(Debug, Default)]
struct VarMap {
    entries: Vec<(String, PushedVar)>,
}

impl VarMap {
    fn insert(&mut self, k: String, v: PushedVar) {
        self.entries.push((k, v));
    }
    fn get(&self, k: &str) -> Option<&PushedVar> {
        self.entries.iter().find(|(n, _)| n == k).map(|(_, v)| v)
    }
    fn remove(&mut self, k: &str) {
        self.entries.retain(|(n, _)| n != k);
    }
    fn contains_key(&self, k: &str) -> bool {
        self.get(k).is_some()
    }
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
    fn iter(&self) -> impl Iterator<Item = (&String, &PushedVar)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
    fn values(&self) -> impl Iterator<Item = &PushedVar> {
        self.entries.iter().map(|(_, v)| v)
    }
}

/// The synthetic tuple-id bind appended by PP-k outer joins; see
/// [`PpkSpec`].
pub const TID_TYPE: AtomicType = AtomicType::Integer;

/// Run pushdown over the whole tree (bottom-up so nested FLWORs are
/// processed before their parents try to hoist them).
///
/// The [`Context::pushdown`] level gates the pass: `Off` leaves the
/// naive plan untouched (every table function stays a middleware scan
/// — the differential oracle's reference path), `Joins` forms join
/// regions and pushes predicates/projections but keeps trailing
/// group-by / order-by / pagination in the middleware, and `Full` (the
/// default) pushes everything.
pub fn push_down(ctx: &mut Context<'_>, e: &mut CExpr) {
    use crate::compile::PushdownLevel;
    if ctx.options.pushdown == PushdownLevel::Off {
        return;
    }
    let full = ctx.options.pushdown == PushdownLevel::Full;
    e.for_each_child_mut(&mut |c| push_down(ctx, c));
    if let CKind::Flwor { clauses, ret } = &mut e.kind {
        if ctx.options.mutation == Some(crate::compile::Mutation::PanicInPushdown) {
            panic!("planted pushdown panic");
        }
        form_regions(ctx, clauses, ret);
    }
    // fold the rewritten field references (Data(<COL>{$f}</COL>) → $f)
    // before the pattern passes below match on them
    crate::rules::optimize(ctx, e);
    if let CKind::Flwor { clauses, ret } = &mut e.kind {
        let span = e.span;
        absorb_wheres(ctx, clauses);
        push_scalar_projections(ctx, clauses, ret);
        hoist_dependent_joins(ctx, clauses, ret, span);
        if full {
            push_trailing_group_by(ctx, clauses, ret);
            push_trailing_order_by(ctx, clauses);
        }
        demand(ctx, clauses, ret);
    }
    // clean up after the pattern passes, then try pagination pushdown on
    // the (possibly collapsed) node
    crate::rules::optimize(ctx, e);
    if full {
        push_subsequence(ctx, e);
    }
}

/// Record on every `SqlFor` of the finished plan which of its
/// parameters are query-constant ([`Context::is_query_const`]) — what
/// join planning, EXPLAIN and the runtime read
/// instead of asking "any parameter?".
pub fn record_query_consts(ctx: &Context<'_>, e: &mut CExpr) {
    if let CKind::Flwor { clauses, .. } = &mut e.kind {
        for c in clauses {
            if let Clause::SqlFor {
                params,
                query_const,
                ..
            } = c
            {
                *query_const = params.iter().map(|p| ctx.is_query_const(p)).collect();
            }
        }
    }
    e.for_each_child_mut(&mut |c| record_query_consts(ctx, c));
}

/// Metadata about one pushed FLWOR variable.
#[derive(Debug, Clone)]
struct PushedVar {
    alias: String,
    element: QName,
    columns: Vec<(String, AtomicType, bool)>, // (name, xml type, nullable)
}

impl PushedVar {
    fn column(&self, local: &str) -> Option<(&str, AtomicType, bool)> {
        self.columns
            .iter()
            .find(|(n, _, _)| n == local)
            .map(|(n, t, nl)| (n.as_str(), *t, *nl))
    }
}

/// The in-progress SQL region for one connection.
struct Region {
    connection: String,
    from: TableRef,
    wheres: Vec<ScalarExpr>,
    params: Vec<CExpr>,
    vars: VarMap,
    alias_counter: usize,
    /// correlation equalities `(outer key expr, inner column)` that make
    /// this region a dependent join
    correlations: Vec<(CExpr, ScalarExpr)>,
}

impl Region {
    fn next_alias(&mut self) -> String {
        self.alias_counter += 1;
        format!("t{}", self.alias_counter)
    }
}

/// Extract table metadata from a physical read/navigation call.
#[allow(clippy::type_complexity)]
fn table_of_call(
    ctx: &Context<'_>,
    e: &CExpr,
) -> Option<(
    String,
    String,
    QName,
    Vec<(String, AtomicType, bool)>,
    Option<(String, Vec<(String, String)>)>,
)> {
    let CKind::PhysicalCall { name, args } = &e.kind else {
        return None;
    };
    let f = ctx.registry.function(name)?;
    match &f.source {
        SourceBinding::RelationalTable {
            connection,
            table,
            shape,
            ..
        } => Some((
            connection.clone(),
            table.clone(),
            shape.name.clone()?,
            shape_columns(shape),
            None,
        )),
        SourceBinding::RelationalNavigation {
            connection,
            to_table,
            key_pairs,
            shape,
            from_table: _,
            ..
        } => {
            // navigation: the argument must be a pushed row variable; the
            // caller checks that and supplies the join
            let arg_var = match &args[0].kind {
                CKind::Var { name: v, .. } => v.clone(),
                _ => return None,
            };
            Some((
                connection.clone(),
                to_table.clone(),
                shape.name.clone()?,
                shape_columns(shape),
                Some((arg_var, key_pairs.clone())),
            ))
        }
        _ => None,
    }
}

fn shape_columns(shape: &ElementType) -> Vec<(String, AtomicType, bool)> {
    let ContentType::Complex(c) = &shape.content else {
        return Vec::new();
    };
    c.children
        .iter()
        .filter_map(|ch| {
            let name = ch.elem.name.as_ref()?.local_name().to_string();
            let ContentType::Simple(t) = ch.elem.content else {
                return None;
            };
            Some((name, t, ch.occ.allows_empty()))
        })
        .collect()
}

/// Phase 1: scan the clause list, forming SQL regions out of
/// for-over-table/navigation clauses plus pushable wheres, then replace
/// each region with a `SqlFor` and rewrite downstream field references.
fn form_regions(ctx: &mut Context<'_>, clauses: &mut Vec<Clause>, ret: &mut CExpr) {
    let mut i = 0;
    while i < clauses.len() {
        // try to start a region at clause i
        let Some(start) = try_start_region(ctx, &clauses[i]) else {
            i += 1;
            continue;
        };
        let mut region = start;
        let mut consumed = vec![i];
        let mut j = i + 1;
        while j < clauses.len() {
            match &clauses[j] {
                Clause::For {
                    var,
                    pos: None,
                    source,
                } => {
                    if let Some((conn, table, element, columns, nav)) = table_of_call(ctx, source) {
                        if conn != region.connection {
                            break;
                        }
                        let alias = region.next_alias();
                        let tref = TableRef::table(&table, &alias);
                        match nav {
                            Some((arg_var, key_pairs)) => {
                                let Some(from_pv) = region.vars.get(&arg_var).cloned() else {
                                    break; // navigation from an unpushed var
                                };
                                let mut on: Option<ScalarExpr> = None;
                                for (fc, tc) in &key_pairs {
                                    let term = ScalarExpr::col(&from_pv.alias, fc)
                                        .eq(ScalarExpr::col(&alias, tc));
                                    on = Some(match on {
                                        Some(p) => p.and(term),
                                        None => term,
                                    });
                                }
                                region.from = region.from.clone().join(
                                    JoinKind::Inner,
                                    tref,
                                    on.expect("nav has key pairs"),
                                );
                            }
                            None => {
                                // cross join for now; join conditions are
                                // folded in from where clauses below
                                region.from = region.from.clone().join(
                                    JoinKind::Inner,
                                    tref,
                                    ScalarExpr::lit(SqlValue::Bool(true)),
                                );
                            }
                        }
                        region.vars.insert(
                            var.clone(),
                            PushedVar {
                                alias,
                                element,
                                columns,
                            },
                        );
                        consumed.push(j);
                        j += 1;
                        continue;
                    }
                    break;
                }
                Clause::Where(w) => {
                    let scope = Scope::Region(&mut region);
                    match (Translator { ctx, scope }).translate(w) {
                        Some(sql) => {
                            // mutation smoke test: consume the conjunct
                            // without attaching it, so the pushed plan
                            // returns extra rows the naive plan filters
                            if ctx.options.mutation
                                != Some(crate::compile::Mutation::DropPushedPredicate)
                            {
                                attach_condition(&mut region, sql);
                            }
                            consumed.push(j);
                            j += 1;
                            continue;
                        }
                        None => {
                            // a correlation equality? col op outer-expr
                            if let Some((outer, col)) = correlation_of(&region, w) {
                                region.correlations.push((outer, col));
                                consumed.push(j);
                                j += 1;
                                continue;
                            }
                            // an unpushable where referencing pushed vars
                            // only blocks pushes *behind* it if it uses a
                            // var bound later; stop conservatively
                            break;
                        }
                    }
                }
                // lets/others end the region
                _ => break,
            }
        }
        if region.vars.is_empty() {
            i += 1;
            continue;
        }
        // decide the fetched columns by scanning downstream usage
        let mut usage: HashMap<String, ColumnUsage> = HashMap::new();
        for (v, _) in region.vars.iter() {
            usage.insert(v.clone(), ColumnUsage::default());
        }
        for (idx, c) in clauses.iter().enumerate() {
            if consumed.contains(&idx) {
                continue;
            }
            collect_usage_clause(c, &mut usage);
        }
        collect_usage(ret, &mut usage);
        // materialize the SqlFor clause
        let sql_for = build_sql_for(ctx, &mut region, &usage);
        let Some((sql_for, rewrites)) = sql_for else {
            i += 1;
            continue;
        };
        // splice: remove consumed clauses, insert the SqlFor at position i
        let mut kept = Vec::with_capacity(clauses.len());
        for (idx, c) in clauses.drain(..).enumerate() {
            if idx == i {
                kept.push(sql_for.clone());
            }
            if !consumed.contains(&idx) {
                kept.push(c);
            }
        }
        *clauses = kept;
        // rewrite downstream references
        for c in clauses.iter_mut().skip(i + 1) {
            rewrite_clause_refs(c, &rewrites);
        }
        rewrite_refs(ret, &rewrites);
        // group-by bindings that regroup a whole pushed row need the row
        // value as a variable: bind a reconstruction let after the SqlFor
        // (`demand` drops it when the group pushes to SQL or regroups one
        // field instead)
        let mut row_lets: Vec<Clause> = Vec::new();
        for c in clauses.iter_mut().skip(i + 1) {
            if let Clause::GroupBy { bindings, .. } = c {
                for (from, _) in bindings.iter_mut() {
                    if let Some(rw) = rewrites.iter().find(|r| &r.var == from) {
                        let row_var = ctx.fresh(&format!("{}_row", rw.var));
                        row_lets.push(Clause::Let {
                            var: row_var.clone(),
                            value: reconstruct_row(rw, crate::ir::Span::default()),
                        });
                        *from = row_var;
                    }
                }
            }
        }
        for (off, l) in row_lets.into_iter().enumerate() {
            clauses.insert(i + 1 + off, l);
        }
        i += 1;
    }
}

/// A typed `<COL>{$field}</COL>` constructor for a rewritten field
/// reference; the types let the Data-folding rule fire without a fresh
/// type-inference pass.
fn typed_field_element(
    col: &str,
    fvar: &str,
    ty: AtomicType,
    nullable: bool,
    span: crate::ir::Span,
) -> CExpr {
    use aldsp_xdm::types::{ItemType, Occurrence, SequenceType};
    let mut content = CExpr::var(fvar, span);
    content.ty = SequenceType::Seq(ItemType::Atomic(ty), Occurrence::Optional);
    let mut ctor = CExpr::new(
        CKind::ElementCtor {
            name: QName::local(col),
            conditional: nullable,
            attributes: vec![],
            content: Box::new(content),
        },
        span,
    );
    ctor.ty = SequenceType::Seq(
        ItemType::element_simple(QName::local(col), ty),
        if nullable {
            Occurrence::Optional
        } else {
            Occurrence::One
        },
    );
    ctor
}

/// Build the reconstructed row element for a rewritten variable.
fn reconstruct_row(rw: &Rewrite, span: crate::ir::Span) -> CExpr {
    use aldsp_xdm::types::{ItemType, Occurrence, SequenceType};
    let parts: Vec<CExpr> = rw
        .fields
        .iter()
        .map(|(col, fvar, ty, nullable)| typed_field_element(col, fvar, *ty, *nullable, span))
        .collect();
    let mut ctor = CExpr::new(
        CKind::ElementCtor {
            name: rw.element.clone(),
            conditional: false,
            attributes: vec![],
            content: Box::new(CExpr::new(CKind::Seq(parts), span)),
        },
        span,
    );
    ctor.ty = SequenceType::Seq(ItemType::element_any(rw.element.clone()), Occurrence::One);
    ctor
}

/// Per-variable downstream usage.
#[derive(Debug, Clone, Default)]
struct ColumnUsage {
    cols: Vec<String>,
    whole: bool,
}

/// Is every use of `var` in `e` the sole argument of `fn:count`,
/// `fn:exists` or `fn:empty`?
fn only_counted(e: &CExpr, var: &str) -> bool {
    match &e.kind {
        CKind::Builtin {
            op: Builtin::Count | Builtin::Exists | Builtin::Empty,
            args,
        } if matches!(args.as_slice(), [a] if matches!(&a.kind, CKind::Var { name, .. } if name == var)) => {
            true
        }
        CKind::Var { name, .. } => name != var,
        CKind::Flwor { clauses, ret } => {
            clauses.iter().all(|c| clause_only_counted(c, var)) && only_counted(ret, var)
        }
        _ => {
            let mut only = true;
            e.for_each_child(&mut |c| only = only && only_counted(c, var));
            only
        }
    }
}

/// [`only_counted`] for a clause, whose `group` bindings name the
/// variables they regroup.
fn clause_only_counted(c: &Clause, var: &str) -> bool {
    let mut only = !group_froms(c).any(|from| from == var);
    clause_exprs(c, &mut |e| only = only && only_counted(e, var));
    only
}

/// Visit every expression a clause reads (not the variables a `group`
/// names, see [`group_froms`]).
fn clause_exprs<'c>(c: &'c Clause, f: &mut impl FnMut(&'c CExpr)) {
    match c {
        Clause::For { source: e, .. } | Clause::Let { value: e, .. } | Clause::Where(e) => f(e),
        Clause::GroupBy { keys, .. } => keys.iter().for_each(|(k, _)| f(k)),
        Clause::OrderBy(specs) => specs.iter().for_each(|s| f(&s.expr)),
        Clause::SqlFor { params, ppk, .. } => params
            .iter()
            .chain(ppk.iter().flat_map(|p| &p.outer_keys))
            .for_each(f),
    }
}

/// The variables a `group` clause regroups or carries.
fn group_froms(c: &Clause) -> impl Iterator<Item = &String> {
    let (bindings, carry): (&[_], &[_]) = match c {
        Clause::GroupBy {
            bindings, carry, ..
        } => (bindings, carry),
        _ => (&[], &[]),
    };
    bindings.iter().chain(carry).map(|(from, _)| from)
}

fn collect_usage_clause(c: &Clause, usage: &mut HashMap<String, ColumnUsage>) {
    clause_exprs(c, &mut |e| collect_usage(e, usage));
    for from in group_froms(c) {
        if let Some(u) = usage.get_mut(from) {
            u.whole = true;
        }
    }
}

fn collect_usage(e: &CExpr, usage: &mut HashMap<String, ColumnUsage>) {
    match &e.kind {
        CKind::ChildStep {
            input,
            name: Some(n),
        } => {
            if let CKind::Var { name: v, .. } = &input.kind {
                if let Some(u) = usage.get_mut(v) {
                    if !u.cols.contains(&n.local_name().to_string()) {
                        u.cols.push(n.local_name().to_string());
                    }
                    return;
                }
            }
            collect_usage(input, usage);
        }
        CKind::Var { name: v, .. } => {
            if let Some(u) = usage.get_mut(v) {
                u.whole = true;
            }
        }
        _ => e.for_each_child(&mut |c| collect_usage(c, usage)),
    }
}

/// Start a region from a `for` over a table function.
fn try_start_region(ctx: &Context<'_>, c: &Clause) -> Option<Region> {
    let Clause::For {
        var,
        pos: None,
        source,
    } = c
    else {
        return None;
    };
    let (connection, table, element, columns, nav) = table_of_call(ctx, source)?;
    if nav.is_some() {
        return None; // navigation can't begin a region (needs its source)
    }
    let mut region = Region {
        connection,
        from: TableRef::table(&table, "t1"),
        wheres: Vec::new(),
        params: Vec::new(),
        vars: VarMap::default(),
        alias_counter: 1,
        correlations: Vec::new(),
    };
    region.vars.insert(
        var.clone(),
        PushedVar {
            alias: "t1".into(),
            element,
            columns,
        },
    );
    Some(region)
}

/// Fold a pushed condition into the deepest join whose sides it
/// connects, or the WHERE list otherwise (makes Table 1(b)'s `JOIN … ON`
/// shape).
fn attach_condition(region: &mut Region, cond: ScalarExpr) {
    fn aliases_in(e: &ScalarExpr) -> Vec<String> {
        let mut out = Vec::new();
        e.walk(&mut |n| {
            if let ScalarExpr::Column { table, .. } = n {
                if !out.contains(table) {
                    out.push(table.clone());
                }
            }
        });
        out
    }
    let needed = aliases_in(&cond);
    if needed.len() >= 2 {
        // attach to the top join if it spans both sides
        if let TableRef::Join {
            left, right, on, ..
        } = &mut region.from
        {
            let mut laliases = Vec::new();
            left.aliases(&mut laliases);
            let mut raliases = Vec::new();
            right.aliases(&mut raliases);
            let spans = needed.iter().any(|a| laliases.contains(a))
                && needed.iter().any(|a| raliases.contains(a));
            if spans {
                if matches!(on, ScalarExpr::Literal(SqlValue::Bool(true))) {
                    *on = cond;
                } else {
                    let prev = on.clone();
                    *on = prev.and(cond);
                }
                return;
            }
        }
    }
    region.wheres.push(cond);
}

/// Detect `inner-col op outer-expr` equality correlations.
fn correlation_of(region: &Region, w: &CExpr) -> Option<(CExpr, ScalarExpr)> {
    let CKind::Compare {
        op: CompOp::Eq,
        lhs,
        rhs,
        ..
    } = &w.kind
    else {
        return None;
    };
    let col_of = |e: &CExpr| region_column(region, e).map(|(c, _)| c);
    let is_outer = |e: &CExpr| -> bool {
        // no pushed vars and no free use of region tables
        e.free_vars().iter().all(|v| !region.vars.contains_key(v))
    };
    if let Some(c) = col_of(lhs) {
        if is_outer(rhs) {
            return Some(((**rhs).clone(), c));
        }
    }
    if let Some(c) = col_of(rhs) {
        if is_outer(lhs) {
            return Some(((**lhs).clone(), c));
        }
    }
    None
}

/// Build the final `SqlFor` clause and the downstream rewrite map.
fn build_sql_for(
    ctx: &mut Context<'_>,
    region: &mut Region,
    usage: &HashMap<String, ColumnUsage>,
) -> Option<(Clause, Vec<Rewrite>)> {
    let mut select = Select::new(region.from.clone());
    let mut where_: Option<ScalarExpr> = None;
    for w in region.wheres.drain(..) {
        where_ = Some(match where_ {
            Some(p) => p.and(w),
            None => w,
        });
    }
    select.where_ = where_;
    let mut binds: Vec<(String, AtomicType)> = Vec::new();
    let mut rewrites: Vec<Rewrite> = Vec::new();
    let mut col_no = 0usize;
    for (var, pv) in region.vars.iter() {
        let u = usage.get(var).cloned().unwrap_or_default();
        let fetch: Vec<(String, AtomicType, bool)> = if u.whole {
            pv.columns.clone()
        } else {
            pv.columns
                .iter()
                .filter(|(n, _, _)| u.cols.contains(n))
                .cloned()
                .collect()
        };
        let mut fields = Vec::new();
        for (cname, cty, nullable) in &fetch {
            col_no += 1;
            let alias = format!("c{col_no}");
            select.columns.push(aldsp_relational::OutputColumn {
                expr: ScalarExpr::col(&pv.alias, cname),
                alias,
            });
            let fvar = ctx.fresh(&format!("{var}#{cname}"));
            binds.push((fvar.clone(), *cty));
            fields.push((cname.clone(), fvar, *cty, *nullable));
        }
        rewrites.push(Rewrite {
            var: var.clone(),
            element: pv.element.clone(),
            fields,
            whole: u.whole,
        });
    }
    if binds.is_empty() {
        // nothing consumed: still fetch one column (existence/cardinality
        // matters — each row is one tuple)
        let (var, pv) = region.vars.iter().next()?;
        let (cname, cty, _) = pv.columns.first()?.clone();
        select.columns.push(aldsp_relational::OutputColumn {
            expr: ScalarExpr::col(&pv.alias, &cname),
            alias: "c1".into(),
        });
        let fvar = ctx.fresh(&format!("{var}#{cname}"));
        binds.push((fvar, cty));
    }
    // correlations → PP-k spec (keys must also be fetched for the local
    // block join)
    let ppk = if region.correlations.is_empty() {
        None
    } else {
        let mut outer_keys = Vec::new();
        let mut key_columns = Vec::new();
        let mut bind_key_indices = Vec::new();
        for (outer, col) in region.correlations.drain(..) {
            outer_keys.push(outer);
            key_columns.push(col.clone());
            // ensure the key column is among the outputs
            let pos = select
                .columns
                .iter()
                .position(|c| c.expr == col)
                .unwrap_or_else(|| {
                    let alias = format!("c{}", select.columns.len() + 1);
                    select.columns.push(aldsp_relational::OutputColumn {
                        expr: col.clone(),
                        alias,
                    });
                    let ScalarExpr::Column { column, .. } = &col else {
                        unreachable!()
                    };
                    let ty = region
                        .vars
                        .values()
                        .find_map(|pv| pv.column(column).map(|(_, t, _)| t))
                        .unwrap_or(AtomicType::AnyAtomic);
                    binds.push((ctx.fresh(&format!("key#{column}")), ty));
                    select.columns.len() - 1
                });
            bind_key_indices.push(pos);
        }
        Some(PpkSpec {
            k: ctx.options.ppk_block_size, // default 20, the paper's empirically-good value (§4.2)
            outer_keys,
            key_columns,
            bind_key_indices,
            local_method: ctx.options.ppk_local_method,
            outer_join: false,
            prefetch_depth: ctx.options.ppk_prefetch_depth,
        })
    };
    Some((
        Clause::SqlFor {
            connection: region.connection.clone(),
            select: Box::new(select),
            params: std::mem::take(&mut region.params),
            query_const: Vec::new(),
            binds,
            ppk,
        },
        rewrites,
    ))
}

/// How downstream references to a pushed variable are rewritten.
#[derive(Debug, Clone)]
struct Rewrite {
    var: String,
    element: QName,
    /// `(column, field var, type, nullable)`.
    fields: Vec<(String, String, AtomicType, bool)>,
    whole: bool,
}

fn rewrite_clause_refs(c: &mut Clause, rewrites: &[Rewrite]) {
    match c {
        Clause::For { source, .. } => rewrite_refs(source, rewrites),
        Clause::Let { value, .. } => rewrite_refs(value, rewrites),
        Clause::Where(w) => rewrite_refs(w, rewrites),
        Clause::GroupBy { keys, .. } => {
            for (k, _) in keys.iter_mut() {
                rewrite_refs(k, rewrites);
            }
        }
        Clause::OrderBy(specs) => {
            for s in specs.iter_mut() {
                rewrite_refs(&mut s.expr, rewrites);
            }
        }
        Clause::SqlFor { params, ppk, .. } => {
            for p in params.iter_mut() {
                rewrite_refs(p, rewrites);
            }
            if let Some(pk) = ppk {
                for k in pk.outer_keys.iter_mut() {
                    rewrite_refs(k, rewrites);
                }
            }
        }
    }
}

/// Rewrite `$v/COL` → field variables and whole-row uses of `$v` →
/// reconstructed row elements (the runtime's extract-field / construct
/// tuple ops in IR form, §5.2).
fn rewrite_refs(e: &mut CExpr, rewrites: &[Rewrite]) {
    let span = e.span;
    // $v/COL
    if let CKind::ChildStep {
        input,
        name: Some(n),
    } = &e.kind
    {
        if let CKind::Var { name: v, .. } = &input.kind {
            if let Some(rw) = rewrites.iter().find(|r| &r.var == v) {
                if let Some((col, fvar, fty, nullable)) =
                    rw.fields.iter().find(|(c, _, _, _)| c == n.local_name())
                {
                    // the source element: <COL>{value}</COL>, omitted when
                    // the column is NULL → conditional construction
                    // (column elements are unqualified, see row_shape)
                    *e = typed_field_element(col, fvar, *fty, *nullable, span);
                    return;
                }
            }
        }
    }
    // whole $v
    if let CKind::Var { name: v, .. } = &e.kind {
        if let Some(rw) = rewrites.iter().find(|r| &r.var == v && r.whole) {
            *e = reconstruct_row(rw, span);
            return;
        }
    }
    e.for_each_child_mut(&mut |c| rewrite_refs(c, rewrites));
}

// ---- CExpr → SQL translation --------------------------------------------------

/// The one translator from a `CExpr` to the SQL it pushes (§4.3): the
/// operator arms are written once, and a [`Scope`] decides only the
/// leaves — which expression is a column, which is shipped as a
/// parameter, and where an `EXISTS` semi-join may form.
///
/// * A value comparison, `and`, `or`, arithmetic, `if` (as `CASE`), a
///   constant and `upper-case`, `lower-case`, `string-length`,
///   `substring`, `concat`, `abs` translate operand by operand.
/// * `empty`/`exists` of a column is `IS [NOT] NULL`; of anything else
///   the expression stays in the middleware.
/// * `some $x in T satisfies p` over the region's source is an
///   `EXISTS` semi-join (Table 2(h)), in a region only.
/// * Any other expression independent of the statement — a `cast`, a
///   `typematch`, `true()`/`false()` among them — is evaluated in the
///   middleware and shipped as a parameter. Paths into rows the
///   statement does not fetch never are: a region turns them into
///   correlations.
///
/// **Empty sequences.** SQL reads XQuery's `()` as `NULL`, and the two
/// agree wherever a `WHERE` or a `CASE WHEN` takes `UNKNOWN` as false.
/// They part under `not` (`not(())` is true), `string-length` (`0`),
/// `upper-case`, `lower-case` and `substring` (`""`): SQL gives `NULL`.
/// Those push only over operands that cannot be `NULL` — every column
/// under them non-nullable, every parameter typed exactly-one (a lifted
/// literal is) — and otherwise stay in the middleware.
struct Translator<'t, 'c> {
    ctx: &'t Context<'c>,
    scope: Scope<'t>,
}

/// What a [`Translator`] translates against.
enum Scope<'t> {
    /// A region being formed ([`form_regions`]): `$v/COL` of a pushed
    /// row is a column.
    Region(&'t mut Region),
    /// One finished statement ([`absorb_wheres`],
    /// [`push_scalar_projections`]): a bind variable is the column the
    /// statement fetches into it.
    Binds {
        connection: &'t str,
        select: &'t Select,
        binds: &'t [(String, AtomicType)],
        params: &'t mut Vec<CExpr>,
    },
}

/// A translated expression, and whether it can be `NULL` where XQuery
/// has `()`.
type Sql = (ScalarExpr, bool);

impl Translator<'_, '_> {
    /// `e` as SQL, or `None` — with no parameter left behind — when it
    /// stays in the middleware.
    fn translate(mut self, e: &CExpr) -> Option<ScalarExpr> {
        let saved = self.params().len();
        let sql = self.expr(e);
        if sql.is_none() {
            self.params().truncate(saved);
        }
        sql.map(|(s, _)| s)
    }

    fn params(&mut self) -> &mut Vec<CExpr> {
        match &mut self.scope {
            Scope::Region(region) => &mut region.params,
            Scope::Binds { params, .. } => params,
        }
    }

    fn expr(&mut self, e: &CExpr) -> Option<Sql> {
        Some(match &e.kind {
            CKind::Data(inner) => return self.expr(inner),
            CKind::Const(v) => {
                let ty = SqlType::from_xml_type(v.type_of())?;
                (
                    ScalarExpr::Literal(SqlValue::from_xml(Some(v), ty).ok()?),
                    false,
                )
            }
            CKind::ChildStep { .. } => return self.column(e),
            CKind::And(a, b) => {
                let (a, b, n) = self.pair(a, b)?;
                (a.and(*b), n)
            }
            CKind::Or(a, b) => {
                let (a, b, n) = self.pair(a, b)?;
                (a.or(*b), n)
            }
            CKind::Compare { op, lhs, rhs, .. } => {
                let (lhs, rhs, n) = self.pair(lhs, rhs)?;
                (ScalarExpr::Compare { op: *op, lhs, rhs }, n)
            }
            CKind::Arith { op, lhs, rhs } => {
                let (lhs, rhs, n) = self.pair(lhs, rhs)?;
                (ScalarExpr::Arith { op: *op, lhs, rhs }, n)
            }
            CKind::If { cond, then, els } => {
                let (c, _) = self.expr(cond)?;
                let (t, x, n) = self.pair(then, els)?;
                (
                    ScalarExpr::Case {
                        when: vec![(c, *t)],
                        els: Some(x),
                    },
                    n,
                )
            }
            CKind::Builtin {
                op: op @ (Builtin::Empty | Builtin::Exists),
                args,
            } => {
                let is_null = ScalarExpr::IsNull(Box::new(self.column(&args[0])?.0));
                match op {
                    Builtin::Empty => (is_null, false),
                    _ => (ScalarExpr::Not(Box::new(is_null)), false),
                }
            }
            CKind::Builtin {
                op: Builtin::Not,
                args,
            } => match self.expr(&args[0])? {
                (x, false) => (ScalarExpr::Not(Box::new(x)), false),
                (_, true) => return None,
            },
            CKind::Builtin { op, args } if sql_function(*op).is_some() => {
                let (name, strict) = sql_function(*op).expect("guarded");
                let mut sargs = Vec::with_capacity(args.len());
                let mut nullable = false;
                for a in args {
                    let (s, n) = self.expr(a)?;
                    if strict && n {
                        return None;
                    }
                    sargs.push(s);
                    nullable |= n;
                }
                let name = name.into();
                (ScalarExpr::Func { name, args: sargs }, nullable)
            }
            CKind::Quantified {
                every: false,
                var,
                source,
                satisfies,
            } => (self.exists(var, source, satisfies)?, false),
            _ => return self.column(e).or_else(|| self.param(e)),
        })
    }

    /// Two operands, left first (parameters are numbered in order), and
    /// whether either can be `NULL`.
    fn pair(&mut self, a: &CExpr, b: &CExpr) -> Option<(Box<ScalarExpr>, Box<ScalarExpr>, bool)> {
        let (a, an) = self.expr(a)?;
        let (b, bn) = self.expr(b)?;
        Some((Box::new(a), Box::new(b), an || bn))
    }

    /// A column of the scope.
    fn column(&self, e: &CExpr) -> Option<Sql> {
        let e = strip_data(e);
        match &self.scope {
            Scope::Region(region) => region_column(region, e),
            Scope::Binds {
                connection,
                select,
                binds,
                ..
            } => {
                let CKind::Var { name, .. } = &e.kind else {
                    return None;
                };
                let pos = binds.iter().position(|(b, _)| b == name)?;
                let col = select.columns[pos].expr.clone();
                let nullable = may_be_null(self.ctx, connection, &select.from, &col);
                Some((col, nullable))
            }
        }
    }

    /// "Other expressions can first be evaluated in the XQuery runtime
    /// engine and then pushed as SQL parameters" (§4.3): only those
    /// independent of the statement qualify.
    fn param(&mut self, e: &CExpr) -> Option<Sql> {
        let free = e.free_vars();
        let dependent = match &self.scope {
            Scope::Region(region) => free.iter().any(|v| region.vars.contains_key(v)),
            Scope::Binds { binds, .. } => binds.iter().any(|(b, _)| free.contains(b)),
        };
        if dependent {
            return None;
        }
        let params = self.params();
        params.push(CExpr::new(CKind::Data(Box::new(e.clone())), e.span));
        let nullable = e.ty.occurrence() != Occurrence::One;
        Some((ScalarExpr::Param(params.len() - 1), nullable))
    }

    /// A quantified expression over the region's own source becomes an
    /// `EXISTS` semi-join (Table 2(h)).
    fn exists(&mut self, var: &str, source: &CExpr, satisfies: &CExpr) -> Option<ScalarExpr> {
        let Scope::Region(region) = &mut self.scope else {
            return None;
        };
        let (conn, table, element, columns, nav) = table_of_call(self.ctx, source)?;
        if conn != region.connection || nav.is_some() {
            return None;
        }
        let alias = region.next_alias();
        // extend the region's var map while the inner predicate is
        // translated, so it resolves both inner and outer columns
        let pv = PushedVar {
            alias: alias.clone(),
            element,
            columns,
        };
        region.vars.insert(var.to_string(), pv);
        let inner_pred = self.expr(satisfies);
        if let Scope::Region(region) = &mut self.scope {
            region.vars.remove(var);
        }
        let mut sub = Select::new(TableRef::table(&table, &alias))
            .column(ScalarExpr::lit(SqlValue::Int(1)), "c1");
        sub.where_ = Some(inner_pred?.0);
        Some(ScalarExpr::Exists(Box::new(sub)))
    }
}

/// The SQL function a builtin pushes as, and whether it is *strict*:
/// XQuery maps an empty argument to a value where SQL gives `NULL`.
fn sql_function(op: Builtin) -> Option<(&'static str, bool)> {
    Some(match op {
        Builtin::UpperCase => ("UPPER", true),
        Builtin::LowerCase => ("LOWER", true),
        Builtin::StringLength => ("LENGTH", true),
        Builtin::Substring => ("SUBSTR", true),
        Builtin::Concat => ("CONCAT", false),
        Builtin::Abs => ("ABS", false),
        _ => return None,
    })
}

/// `$v/COL` of a row the region pushes: the column and whether it is
/// nullable.
fn region_column(region: &Region, e: &CExpr) -> Option<Sql> {
    let CKind::ChildStep {
        input,
        name: Some(n),
    } = &strip_data(e).kind
    else {
        return None;
    };
    let CKind::Var { name: v, .. } = &input.kind else {
        return None;
    };
    let pv = region.vars.get(v)?;
    let (col, _, nullable) = pv.column(n.local_name())?;
    Some((ScalarExpr::col(&pv.alias, col), nullable))
}

/// Can a statement's output `col` be `NULL`? Not when it is a column
/// its table's shape declares non-nullable, of a table no outer join
/// may `NULL`-extend.
fn may_be_null(ctx: &Context<'_>, connection: &str, from: &TableRef, col: &ScalarExpr) -> bool {
    fn table_of<'f>(from: &'f TableRef, alias: &str) -> Option<&'f str> {
        match from {
            TableRef::Table { name, alias: a } => (a == alias).then_some(name.as_str()),
            TableRef::Join {
                left, right, kind, ..
            } => table_of(left, alias)
                .or_else(|| (*kind == JoinKind::Inner).then(|| table_of(right, alias))?),
            TableRef::Derived { .. } => None,
        }
    }
    let ScalarExpr::Column { table, column } = col else {
        return true;
    };
    let Some(name) = table_of(from, table) else {
        return true;
    };
    !ctx.registry.functions().any(|f| {
        matches!(&f.source, SourceBinding::RelationalTable { connection: c, table: t, shape, .. }
            if c == connection && t == name
                && shape_columns(shape).iter().any(|(n, _, nullable)| n == column && !nullable))
    })
}

// ---- phase 2: dependent-join hoisting ---------------------------------------

/// Find correlated single-`SqlFor` FLWORs nested in the return
/// expression and hoist them into the outer clause list: merged as a
/// LEFT OUTER JOIN when same-connection (Tables 1(c)/2(g)), or as a
/// PP-k dependent join with middleware re-nesting otherwise (§4.2).
fn hoist_dependent_joins(
    ctx: &mut Context<'_>,
    clauses: &mut Vec<Clause>,
    ret: &mut CExpr,
    span: crate::ir::Span,
) {
    // an existing group clause is a hard barrier (scope changes)
    if clauses.iter().any(|c| matches!(c, Clause::GroupBy { .. })) {
        return;
    }
    // hoisting is only useful (and only batches) when this FLWOR owns the
    // driving tuple loop; a let/where-only block should stay simple so an
    // enclosing FLWOR can flatten it and hoist at the right level
    if !clauses
        .iter()
        .any(|c| matches!(c, Clause::For { .. } | Clause::SqlFor { .. }))
    {
        return;
    }
    loop {
        let has_order = clauses.iter().any(|c| matches!(c, Clause::OrderBy(_)));
        // locate the outer SqlFor: single table, uncorrelated, followed
        // only by non-binding-loop clauses (lets / wheres / order by)
        let outer_info: Option<(usize, String, String, String)> =
            clauses.iter().enumerate().find_map(|(i, c)| {
                if let Clause::SqlFor {
                    connection,
                    select,
                    ppk: None,
                    params,
                    ..
                } = c
                {
                    if !ctx.correlated(params)
                        && clauses[i + 1..].iter().all(|t| {
                            matches!(
                                t,
                                Clause::Let { .. } | Clause::Where(_) | Clause::OrderBy(_)
                            )
                        })
                    {
                        if let TableRef::Table { name, alias } = &select.from {
                            return Some((i, connection.clone(), name.clone(), alias.clone()));
                        }
                    }
                }
                None
            });
        let outer_is_last = outer_info
            .as_ref()
            .is_some_and(|(i, ..)| *i + 1 == clauses.len());
        // search the return, then let values, for a hoistable nested FLWOR
        let (found, slot) = {
            match find_nested_dependent(ret) {
                Some(f) => (Some(f), Slot::Ret),
                None => {
                    let mut hit = None;
                    for (li, c) in clauses.iter().enumerate() {
                        if let Clause::Let { value, .. } = c {
                            if let Some(f) = find_nested_dependent(value) {
                                // let-slot hoisting is aggregate-only (the
                                // Table 2(i) `let $oc := count(…)` shape)
                                if f.agg.is_some() {
                                    hit = Some((f, Slot::Let(li)));
                                    break;
                                }
                            }
                        }
                    }
                    match hit {
                        Some((f, sl)) => (Some(f), sl),
                        None => (None, Slot::Ret),
                    }
                }
            }
        };
        let Some(NestedDependent {
            path_marker,
            inner_clause,
            inner_ret,
            agg,
        }) = found
        else {
            break;
        };
        // temporarily take the slot expression so merges can mutate the
        // clause list while rewriting it
        let mut slot_expr = match slot {
            Slot::Ret => std::mem::replace(ret, CExpr::empty(span)),
            Slot::Let(li) => {
                let Clause::Let { value, .. } = &mut clauses[li] else {
                    unreachable!()
                };
                std::mem::replace(value, CExpr::empty(span))
            }
        };
        // clauses a re-nesting merge inserts right after the outer SqlFor
        let mut renest = Vec::new();
        let hoisted = match (&outer_info, &inner_clause) {
            (
                Some((outer_idx, oconn, otable, oalias)),
                Clause::SqlFor {
                    connection,
                    select,
                    params,
                    binds,
                    ppk: Some(ppk),
                    ..
                },
            ) if oconn == connection && !ctx.correlated(params) => {
                // the re-nesting (non-aggregate) variant inserts a group
                // clause, which is only sound when nothing follows the
                // outer SqlFor and the slot is the return
                if agg.is_none() && !(outer_is_last && matches!(slot, Slot::Ret)) {
                    false
                } else if let Some(extra) = merge_same_connection(
                    ctx,
                    clauses,
                    *outer_idx,
                    otable,
                    oalias,
                    select,
                    params,
                    binds,
                    ppk,
                    inner_ret.clone(),
                    agg,
                    &mut slot_expr,
                    &path_marker,
                    span,
                ) {
                    renest = extra;
                    true
                } else {
                    false
                }
            }
            (_, Clause::SqlFor { ppk: Some(_), .. }) if matches!(slot, Slot::Ret) && !has_order => {
                hoist_cross_source(
                    ctx,
                    clauses,
                    inner_clause.clone(),
                    inner_ret.clone(),
                    agg,
                    &mut slot_expr,
                    &path_marker,
                    span,
                )
            }
            _ => false,
        };
        // restore the slot
        match slot {
            Slot::Ret => *ret = slot_expr,
            Slot::Let(li) => {
                let Clause::Let { value, .. } = &mut clauses[li] else {
                    unreachable!()
                };
                *value = slot_expr;
            }
        }
        if let Some((outer_idx, ..)) = outer_info {
            clauses.splice(outer_idx + 1..outer_idx + 1, renest);
        }
        if !hoisted {
            break;
        }
    }
}

/// Which expression a nested dependent was found in.
enum Slot {
    Ret,
    Let(usize),
}

/// A located nested dependent join. `path_marker` is the span used to
/// find the node again for replacement.
struct NestedDependent {
    path_marker: crate::ir::Span,
    inner_clause: Clause,
    inner_ret: CExpr,
    agg: Option<Builtin>,
}

/// Search `e` for `Flwor{[SqlFor(ppk)], ret}` (optionally under a
/// count/sum aggregate).
fn find_nested_dependent(e: &CExpr) -> Option<NestedDependent> {
    // aggregate form first: count(Flwor{[SqlFor(ppk)]})
    if let CKind::Builtin {
        op: op @ (Builtin::Count | Builtin::Sum | Builtin::Min | Builtin::Max | Builtin::Avg),
        args,
    } = &e.kind
    {
        if let CKind::Flwor { clauses, ret } = &args[0].kind {
            if clauses.len() == 1 {
                if let Clause::SqlFor { ppk: Some(_), .. } = &clauses[0] {
                    return Some(NestedDependent {
                        path_marker: e.span,
                        inner_clause: clauses[0].clone(),
                        inner_ret: (**ret).clone(),
                        agg: Some(*op),
                    });
                }
            }
        }
    }
    if let CKind::Flwor { clauses, ret } = &e.kind {
        if clauses.len() == 1 {
            if let Clause::SqlFor { ppk: Some(_), .. } = &clauses[0] {
                return Some(NestedDependent {
                    path_marker: e.span,
                    inner_clause: clauses[0].clone(),
                    inner_ret: (**ret).clone(),
                    agg: None,
                });
            }
        }
    }
    // never hoist across the async/timeout/fail-over boundaries (§5.4,
    // §5.6): those functions own their operands' evaluation — moving a
    // source access out of them would strip their protection
    if matches!(
        &e.kind,
        CKind::Builtin {
            op: Builtin::Async | Builtin::Timeout | Builtin::FailOver,
            ..
        }
    ) {
        return None;
    }
    let mut found = None;
    e.for_each_child(&mut |c| {
        if found.is_none() {
            found = find_nested_dependent(c);
        }
    });
    found
}

/// Replace the marked nested node with `replacement`.
fn replace_marked(e: &mut CExpr, marker: &crate::ir::Span, replacement: &CExpr) -> bool {
    let is_target =
        e.span == *marker && matches!(&e.kind, CKind::Flwor { .. } | CKind::Builtin { .. });
    if is_target {
        *e = replacement.clone();
        return true;
    }
    let mut done = false;
    e.for_each_child_mut(&mut |c| {
        if !done {
            done = replace_marked(c, marker, replacement);
        }
    });
    done
}

/// Same-connection merge: extend the outer select with a LEFT OUTER JOIN
/// of the inner table, then either push the aggregate entirely (GROUP BY
/// in SQL — Table 2(g)) or re-nest in the middleware with a clustered
/// group-by (Table 1(c) + §4.2's streaming grouping). Returns the
/// clauses to insert right after the outer `SqlFor` (none for the
/// aggregate), or `None` when the merge does not apply.
#[allow(clippy::too_many_arguments)]
fn merge_same_connection(
    ctx: &mut Context<'_>,
    clauses: &mut [Clause],
    outer_idx: usize,
    otable: &str,
    oalias: &str,
    inner_select: &Select,
    inner_params: &[CExpr],
    inner_binds: &[(String, AtomicType)],
    ppk: &PpkSpec,
    inner_ret: CExpr,
    agg: Option<Builtin>,
    ret: &mut CExpr,
    marker: &crate::ir::Span,
    span: crate::ir::Span,
) -> Option<Vec<Clause>> {
    // the inner select must be a single table with no pagination
    let TableRef::Table {
        name: itable,
        alias: _,
    } = &inner_select.from
    else {
        return None;
    };
    // outer PK columns (needed for grouping identity)
    let pk_cols: Vec<String> = {
        let f = ctx.registry.functions().find_map(|f| match &f.source {
            SourceBinding::RelationalTable {
                table, primary_key, ..
            } if table == otable => Some(primary_key.clone()),
            _ => None,
        });
        match f {
            Some(pk) if !pk.is_empty() => pk,
            _ => return None,
        }
    };
    // correlation: outer_keys must be field vars bound by the outer SqlFor
    let Clause::SqlFor {
        select: outer_select,
        params: outer_params,
        binds: outer_binds,
        ..
    } = &mut clauses[outer_idx]
    else {
        return None;
    };
    let mut on: Option<ScalarExpr> = None;
    let ialias = "t_inner".to_string();
    for (outer_key, key_col) in ppk.outer_keys.iter().zip(&ppk.key_columns) {
        // outer key must be (data of) an outer bind var
        let kv = match &outer_key.kind {
            CKind::Var { name: v, .. } => v.clone(),
            CKind::Data(inner) => match &inner.kind {
                CKind::Var { name: v, .. } => v.clone(),
                _ => return None,
            },
            _ => return None,
        };
        let pos = outer_binds.iter().position(|(b, _)| *b == kv)?;
        let outer_col = outer_select.columns[pos].expr.clone();
        let ScalarExpr::Column { column, .. } = key_col else {
            return None;
        };
        let term = outer_col.eq(ScalarExpr::col(&ialias, column));
        on = Some(match on {
            Some(p) => p.and(term),
            None => term,
        });
    }
    let on = on?;
    // both statements' parameters are query-constant (the caller
    // checked): the merged statement takes the outer's, then the
    // inner's renumbered behind them
    let inner_select = &{
        let mut renumbered = inner_select.clone();
        renumbered.map_params(&mut |i| i + outer_params.len());
        renumbered
    };
    outer_params.extend_from_slice(inner_params);
    // splice the join in
    outer_select.from = outer_select.from.clone().join(
        JoinKind::LeftOuter,
        TableRef::table(itable, &ialias),
        match &inner_select.where_ {
            Some(w) => {
                let rebased = rebase_aliases(w, inner_select, &ialias);
                on.and(rebased)
            }
            None => on,
        },
    );
    match agg {
        Some(op) => {
            // full SQL aggregation (Table 2(g)): GROUP BY outer columns
            let group_cols: Vec<ScalarExpr> = outer_select
                .columns
                .iter()
                .map(|c| c.expr.clone())
                .collect();
            outer_select.group_by = group_cols;
            // aggregate argument: first inner output column (or * count)
            let inner_col = rebase_aliases(&inner_select.columns[0].expr, inner_select, &ialias);
            let func = match op {
                Builtin::Count => AggFunc::Count,
                Builtin::Sum => AggFunc::Sum,
                Builtin::Avg => AggFunc::Avg,
                Builtin::Min => AggFunc::Min,
                Builtin::Max => AggFunc::Max,
                _ => unreachable!("agg matched above"),
            };
            let alias = format!("c{}", outer_select.columns.len() + 1);
            outer_select.columns.push(aldsp_relational::OutputColumn {
                expr: ScalarExpr::Agg {
                    func,
                    arg: Some(Box::new(inner_col)),
                    distinct: false,
                },
                alias,
            });
            let agg_var = ctx.fresh("agg");
            outer_binds.push((agg_var.clone(), AtomicType::Integer));
            replace_marked(ret, marker, &CExpr::var(&agg_var, span)).then(Vec::new)
        }
        None => {
            // middleware re-nesting: fetch inner fields, ORDER BY outer
            // PK, then a *pre-clustered* streaming group-by (§4.2)
            let mut inner_field_vars = Vec::with_capacity(inner_binds.len());
            for (i, col) in inner_select.columns.iter().enumerate() {
                let alias = format!("c{}", outer_select.columns.len() + 1);
                outer_select.columns.push(aldsp_relational::OutputColumn {
                    expr: rebase_aliases(&col.expr, inner_select, &ialias),
                    alias,
                });
                let (bvar, bty) = inner_binds[i].clone();
                outer_binds.push((bvar.clone(), bty));
                inner_field_vars.push(bvar);
            }
            // ensure PK columns are fetched & ordered
            let mut pk_field_vars = Vec::new();
            for pk in &pk_cols {
                let col = ScalarExpr::col(oalias, pk);
                let pos = outer_select.columns.iter().position(|c| c.expr == col);
                let pos = match pos {
                    Some(p) => p,
                    None => {
                        let alias = format!("c{}", outer_select.columns.len() + 1);
                        outer_select.columns.push(aldsp_relational::OutputColumn {
                            expr: col.clone(),
                            alias,
                        });
                        outer_binds.push((ctx.fresh(&format!("pk#{pk}")), AtomicType::AnyAtomic));
                        outer_select.columns.len() - 1
                    }
                };
                pk_field_vars.push(outer_binds[pos].0.clone());
                outer_select.order_by.push(OrderBy {
                    expr: col,
                    descending: false,
                });
            }
            // per-joined-row value of the nested return, then regroup
            let val_var = ctx.fresh("nestval");
            // guard: an unmatched outer row produces NULL inner fields; the
            // nested value must then be empty. All-inner-fields-null test:
            let mut guard: Option<CExpr> = None;
            for fv in &inner_field_vars {
                let t = CExpr::new(
                    CKind::Builtin {
                        op: Builtin::Exists,
                        args: vec![CExpr::var(fv, span)],
                    },
                    span,
                );
                guard = Some(match guard {
                    Some(g) => CExpr::new(CKind::Or(Box::new(g), Box::new(t)), span),
                    None => t,
                });
            }
            let guarded = match guard {
                Some(g) => CExpr::new(
                    CKind::If {
                        cond: Box::new(g),
                        then: Box::new(inner_ret),
                        els: Box::new(CExpr::empty(span)),
                    },
                    span,
                ),
                None => inner_ret,
            };
            let grouped_var = ctx.fresh("nested");
            // group keys: outer PK fields plus every outer bind still used
            let outer_bind_names: Vec<(String, AtomicType)> = outer_binds.clone();
            let mut keys: Vec<(CExpr, String)> = Vec::new();
            let mut key_renames: Vec<(String, String)> = Vec::new();
            for pkv in &pk_field_vars {
                let alias = ctx.fresh("gk");
                keys.push((CExpr::var(pkv, span), alias.clone()));
                key_renames.push((pkv.clone(), alias));
            }
            for (b, _) in &outer_bind_names {
                if pk_field_vars.contains(b) || inner_field_vars.contains(b) {
                    continue;
                }
                let alias = ctx.fresh("gk");
                keys.push((CExpr::var(b, span), alias.clone()));
                key_renames.push((b.clone(), alias));
            }
            // replace the nested expression and rename outer binds to
            // their group-key aliases in the return
            if !replace_marked(ret, marker, &CExpr::var(&grouped_var, span)) {
                return None;
            }
            for (old, new) in &key_renames {
                ret.substitute(old, &CExpr::var(new, span));
            }
            Some(vec![
                Clause::Let {
                    var: val_var.clone(),
                    value: guarded,
                },
                Clause::GroupBy {
                    bindings: vec![(val_var, grouped_var)],
                    keys,
                    carry: Vec::new(),
                    pre_clustered: true,
                },
            ])
        }
    }
}

/// Rewrite inner-select column aliases to the joined alias.
fn rebase_aliases(e: &ScalarExpr, inner: &Select, new_alias: &str) -> ScalarExpr {
    let TableRef::Table { alias, .. } = &inner.from else {
        return e.clone();
    };
    let mut out = e.clone();
    fn rec(e: &mut ScalarExpr, from: &str, to: &str) {
        if let ScalarExpr::Column { table, .. } = e {
            if table == from {
                *table = to.to_string();
            }
        }
        match e {
            ScalarExpr::Compare { lhs, rhs, .. } | ScalarExpr::Arith { lhs, rhs, .. } => {
                rec(lhs, from, to);
                rec(rhs, from, to);
            }
            ScalarExpr::And(a, b) | ScalarExpr::Or(a, b) => {
                rec(a, from, to);
                rec(b, from, to);
            }
            ScalarExpr::Not(a) | ScalarExpr::IsNull(a) => rec(a, from, to),
            ScalarExpr::Case { when, els } => {
                for (c, v) in when {
                    rec(c, from, to);
                    rec(v, from, to);
                }
                if let Some(x) = els {
                    rec(x, from, to);
                }
            }
            ScalarExpr::InList { expr, list } => {
                rec(expr, from, to);
                for i in list {
                    rec(i, from, to);
                }
            }
            ScalarExpr::Func { args, .. } => {
                for a in args {
                    rec(a, from, to);
                }
            }
            ScalarExpr::Agg { arg: Some(a), .. } => rec(a, from, to),
            _ => {}
        }
    }
    rec(&mut out, alias, new_alias);
    out
}

/// Cross-source hoist: move the dependent `SqlFor` into the outer clause
/// list so the runtime can batch it (PP-k), re-nesting via a tuple-id
/// keyed, pre-clustered group-by.
#[allow(clippy::too_many_arguments)]
fn hoist_cross_source(
    ctx: &mut Context<'_>,
    clauses: &mut Vec<Clause>,
    inner_clause: Clause,
    inner_ret: CExpr,
    agg: Option<Builtin>,
    ret: &mut CExpr,
    marker: &crate::ir::Span,
    span: crate::ir::Span,
) -> bool {
    let Clause::SqlFor {
        connection,
        select,
        params,
        query_const,
        mut binds,
        ppk: Some(mut ppk),
    } = inner_clause
    else {
        return false;
    };
    // the PP-k operator emits a synthetic outer-tuple ordinal so grouping
    // can re-nest per outer tuple
    ppk.outer_join = true;
    let tid = ctx.fresh("tid");
    binds.push((tid.clone(), TID_TYPE));
    let val_var = ctx.fresh("nestval");
    // unmatched outer tuples surface with all inner fields empty
    let inner_field_vars: Vec<String> = binds
        .iter()
        .take(binds.len() - 1)
        .map(|(b, _)| b.clone())
        .collect();
    let mut guard: Option<CExpr> = None;
    for fv in &inner_field_vars {
        let t = CExpr::new(
            CKind::Builtin {
                op: Builtin::Exists,
                args: vec![CExpr::var(fv, span)],
            },
            span,
        );
        guard = Some(match guard {
            Some(g) => CExpr::new(CKind::Or(Box::new(g), Box::new(t)), span),
            None => t,
        });
    }
    let guarded = match guard {
        Some(g) => CExpr::new(
            CKind::If {
                cond: Box::new(g),
                then: Box::new(inner_ret),
                els: Box::new(CExpr::empty(span)),
            },
            span,
        ),
        None => inner_ret,
    };
    let grouped_var = ctx.fresh("nested");
    // keys: the tuple id plus every variable the return still needs
    let replacement = match agg {
        Some(op) => CExpr::new(
            CKind::Builtin {
                op,
                args: vec![CExpr::var(&grouped_var, span)],
            },
            span,
        ),
        None => CExpr::var(&grouped_var, span),
    };
    if !replace_marked(ret, marker, &replacement) {
        return false;
    }
    let keys: Vec<(CExpr, String)> = vec![(CExpr::var(&tid, span), ctx.fresh("gk"))];
    // every other variable the return still needs is functionally
    // dependent on the tuple id: *carry* it (no atomization)
    let mut carry = Vec::new();
    let mut renames = Vec::new();
    let needed: Vec<String> = {
        let mut free = ret.free_vars();
        free.remove(&grouped_var);
        let bound_before: Vec<String> = clauses
            .iter()
            .flat_map(crate::rules::clause_bindings)
            .collect();
        bound_before
            .into_iter()
            .filter(|b| free.contains(b))
            .collect()
    };
    for b in needed {
        let alias = ctx.fresh("gk");
        renames.push((b.clone(), alias.clone()));
        carry.push((b.clone(), alias));
    }
    for (old, new) in &renames {
        ret.substitute(old, &CExpr::var(new, span));
    }
    clauses.push(Clause::SqlFor {
        connection,
        select,
        params,
        query_const,
        binds,
        ppk: Some(ppk),
    });
    clauses.push(Clause::Let {
        var: val_var.clone(),
        value: guarded,
    });
    clauses.push(Clause::GroupBy {
        bindings: vec![(val_var, grouped_var)],
        keys,
        carry,
        pre_clustered: true,
    });
    true
}

// ---- phase 3: trailing clause pushdowns --------------------------------------

/// `[SqlFor, GroupBy]` → SQL GROUP BY / DISTINCT (Tables 1(e)/1(f)),
/// with `count` over group bindings pushed as `COUNT(*)` when that is
/// all the bindings are used for; otherwise ORDER BY the keys and mark
/// the group-by pre-clustered (backend sort, §4.2).
fn push_trailing_group_by(ctx: &mut Context<'_>, clauses: &mut Vec<Clause>, ret: &mut CExpr) {
    // pattern: SqlFor, zero or more row-reconstruction Lets, GroupBy last
    if clauses.len() < 2 || !matches!(clauses[0], Clause::SqlFor { .. }) {
        return;
    }
    let last = clauses.len() - 1;
    if !matches!(clauses[last], Clause::GroupBy { .. }) {
        return;
    }
    // intermediate clauses must be lets (their vars may feed bindings)
    let mut row_let_vars: Vec<String> = Vec::new();
    for c in &clauses[1..last] {
        match c {
            Clause::Let { var, value } if matches!(value.kind, CKind::ElementCtor { .. }) => {
                row_let_vars.push(var.clone())
            }
            _ => return,
        }
    }
    let (first, rest) = clauses.split_at_mut(1);
    let Clause::SqlFor {
        select,
        binds,
        ppk: None,
        ..
    } = &mut first[0]
    else {
        return;
    };
    let Clause::GroupBy {
        bindings,
        keys,
        carry,
        pre_clustered,
    } = rest.last_mut().expect("checked")
    else {
        return;
    };
    if !carry.is_empty() {
        return; // carried values need the middleware group operator
    }
    // keys must be pushed field vars; the pushed statement outputs them
    // first, bound to the keys' variables
    let mut key_cols = Vec::new();
    let mut new_cols = Vec::new();
    let mut new_binds = Vec::new();
    for (k, alias) in keys.iter() {
        let CKind::Var { name: kv, .. } = &strip_data(k).kind else {
            return;
        };
        let Some(pos) = binds.iter().position(|(b, _)| b == kv) else {
            return;
        };
        key_cols.push(select.columns[pos].expr.clone());
        new_cols.push(aldsp_relational::OutputColumn {
            expr: select.columns[pos].expr.clone(),
            alias: format!("c{}", new_cols.len() + 1),
        });
        new_binds.push((alias.clone(), binds[pos].1));
    }
    if bindings.is_empty() {
        // DISTINCT form (Table 1(f)) — only when the return uses keys only
        select.distinct = true;
        select.columns = new_cols;
        *binds = new_binds;
        clauses.truncate(clauses.len() - 1);
        return;
    }
    // count-only bindings? check every use of each binding var in ret:
    // a binding over a pushed field or a reconstructed row whose
    // partition is only counted pushes as COUNT(*)
    for (from, to) in bindings.iter() {
        let pushed = binds.iter().any(|(b, _)| b == from) || row_let_vars.contains(from);
        if !pushed || !sole_count_use(ret, to) {
            push_order_for_clustering(select, &key_cols, pre_clustered);
            return;
        }
    }
    // full push: SELECT keys, COUNT(*) … GROUP BY keys
    for (_, gvar) in bindings.iter() {
        let alias = format!("c{}", new_cols.len() + 1);
        new_cols.push(aldsp_relational::OutputColumn {
            expr: ScalarExpr::Agg {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            },
            alias,
        });
        let fresh = ctx.fresh("aggv");
        new_binds.push((fresh.clone(), AtomicType::Integer));
        replace_count(ret, gvar, &fresh);
    }
    select.group_by = key_cols;
    select.columns = new_cols;
    *binds = new_binds;
    clauses.truncate(clauses.len() - 1);
}

fn push_order_for_clustering(
    select: &mut Select,
    key_cols: &[ScalarExpr],
    pre_clustered: &mut bool,
) {
    // "in the worst case, ALDSP falls back on sorting for grouping, which
    // then can possibly be pushed to the backend" (§4.2)
    for k in key_cols {
        if !select.order_by.iter().any(|o| &o.expr == k) {
            select.order_by.push(OrderBy {
                expr: k.clone(),
                descending: false,
            });
        }
    }
    *pre_clustered = true;
}

/// Is `e` `count($var)` (or `count(fn:data($var))`)?
fn counts_var(e: &CExpr, var: &str) -> bool {
    let CKind::Builtin {
        op: Builtin::Count,
        args,
    } = &e.kind
    else {
        return false;
    };
    let [arg] = args.as_slice() else {
        return false;
    };
    let inner = match &arg.kind {
        CKind::Data(i) => i.as_ref(),
        _ => arg,
    };
    matches!(&inner.kind, CKind::Var { name: v, .. } if v == var)
}

/// Does `ret` use `$var` at least once, and only as `count($var)`?
fn sole_count_use(ret: &CExpr, var: &str) -> bool {
    fn scan(e: &CExpr, var: &str, counted: &mut bool, bare: &mut bool) {
        if counts_var(e, var) {
            *counted = true;
            return;
        }
        if matches!(&e.kind, CKind::Var { name: v, .. } if v == var) {
            *bare = true;
        }
        e.for_each_child(&mut |c| scan(c, var, counted, bare));
    }
    let (mut counted, mut bare) = (false, false);
    scan(ret, var, &mut counted, &mut bare);
    counted && !bare
}

/// Replace every `count($var)` in `e` with `$fresh`.
fn replace_count(e: &mut CExpr, var: &str, fresh: &str) {
    if counts_var(e, var) {
        *e = CExpr::var(fresh, e.span);
        return;
    }
    e.for_each_child_mut(&mut |c| replace_count(c, var, fresh));
}

/// The demand pass, run once on a FLWOR's finished clause list: what
/// does the rest of the FLWOR read of each pushed row? "Any unused
/// information [is] not … fetched at all" (§4.2):
///
/// * a `group` binding over a row `Let` whose partition is only counted
///   regroups one never-NULL field of the row instead — one value per
///   tuple, so every count stays the same — preferring a field that is
///   read anyway;
/// * row `Let`s that nothing reads are dropped;
/// * each plain `SqlFor` is shrunk to the binds still read. PP-k
///   statements keep their columns (their key indices are positional),
///   a `SELECT DISTINCT` keeps them (each is part of what is distinct),
///   and so does a statement none of whose binds is read (each row is
///   still one tuple).
fn demand(ctx: &Context<'_>, clauses: &mut Vec<Clause>, ret: &CExpr) {
    let rows: Vec<(String, Vec<(String, bool)>)> = clauses
        .iter()
        .filter_map(|c| match c {
            Clause::Let { var, value } => Some((var.clone(), row_fields(value)?)),
            _ => None,
        })
        .collect();
    let is_row = |v: &str| rows.iter().any(|(r, _)| r == v);
    // what everything but the row lets and the group bindings reads
    let mut used = ret.free_vars();
    for c in clauses.iter() {
        match c {
            Clause::Let { var, .. } if is_row(var) => {}
            c => clause_exprs(c, &mut |e| used.extend(e.free_vars())),
        }
    }
    for g in 0..clauses.len() {
        let (head, tail) = clauses.split_at_mut(g + 1);
        let Clause::GroupBy { bindings, .. } = &mut head[g] else {
            continue;
        };
        for (from, to) in bindings.iter_mut() {
            let Some((_, fields)) = rows.iter().find(|(r, _)| r == from) else {
                continue;
            };
            if !(tail.iter().all(|c| clause_only_counted(c, to)) && only_counted(ret, to)) {
                continue;
            }
            if let Some(field) = regroup_field(ctx, fields, &used) {
                *from = field.to_string();
            }
        }
    }
    used.extend(clauses.iter().flat_map(group_froms).cloned());
    clauses.retain(|c| !matches!(c, Clause::Let { var, .. } if is_row(var) && !used.contains(var)));
    for (r, fields) in &rows {
        if used.contains(r) {
            used.extend(fields.iter().map(|(f, _)| f.clone()));
        }
    }
    for c in clauses.iter_mut() {
        let Clause::SqlFor {
            select,
            binds,
            ppk: None,
            ..
        } = c
        else {
            continue;
        };
        if select.distinct {
            continue;
        }
        let read: Vec<bool> = binds.iter().map(|(b, _)| used.contains(b)).collect();
        if read.iter().all(|r| *r) || !read.contains(&true) {
            continue;
        }
        let mut keep = read.iter();
        binds.retain(|_| *keep.next().expect("one flag per bind"));
        let mut keep = read.iter();
        select
            .columns
            .retain(|_| *keep.next().expect("one flag per column"));
        for (n, col) in select.columns.iter_mut().enumerate() {
            col.alias = format!("c{}", n + 1);
        }
    }
}

/// The `(field variable, nullable)` pairs of a row reconstructed by
/// [`reconstruct_row`]: each child is a field element whose content is
/// the bare field variable, conditional when the column is nullable.
/// Constructors from the query text always wrap their content in a
/// sequence, so they never match.
fn row_fields(e: &CExpr) -> Option<Vec<(String, bool)>> {
    let CKind::ElementCtor { content, .. } = &e.kind else {
        return None;
    };
    let CKind::Seq(parts) = &content.kind else {
        return None;
    };
    parts
        .iter()
        .map(|p| match &p.kind {
            CKind::ElementCtor {
                conditional,
                content,
                ..
            } => match &content.kind {
                CKind::Var { name, .. } => Some((name.clone(), *conditional)),
                _ => None,
            },
            _ => None,
        })
        .collect()
}

/// The field a counted partition of a row regroups: a never-NULL one,
/// which has exactly one value per tuple, read elsewhere if one is,
/// else the row's first; `None` when every field is nullable.
fn regroup_field<'f>(
    ctx: &Context<'_>,
    fields: &'f [(String, bool)],
    used: &std::collections::HashSet<String>,
) -> Option<&'f str> {
    if ctx.options.mutation == Some(crate::compile::Mutation::RegroupNullableColumn) {
        if let Some((f, _)) = fields.iter().find(|(_, nullable)| *nullable) {
            return Some(f);
        }
    }
    let mut never_null = fields.iter().filter(|(_, nullable)| !nullable);
    never_null
        .clone()
        .find(|(f, _)| used.contains(f))
        .or_else(|| never_null.next())
        .map(|(f, _)| f.as_str())
}

/// Fold `where` clauses that follow a `SqlFor` and reference only its
/// bind variables (they surface when view unfolding flattens a nested
/// FLWOR *after* region formation) back into the statement's WHERE.
fn absorb_wheres(ctx: &Context<'_>, clauses: &mut Vec<Clause>) {
    let mut i = 1;
    while i < clauses.len() {
        let absorbable = matches!(clauses[i], Clause::Where(_))
            && matches!(clauses[i - 1], Clause::SqlFor { ppk: None, .. });
        if absorbable {
            let Clause::Where(w) = clauses[i].clone() else {
                unreachable!()
            };
            let (head, _) = clauses.split_at_mut(i);
            let Clause::SqlFor {
                connection,
                select,
                binds,
                params,
                ..
            } = &mut head[i - 1]
            else {
                unreachable!()
            };
            let scope = Scope::Binds {
                connection,
                select,
                binds,
                params,
            };
            if let Some(sql) = (Translator { ctx, scope }).translate(&w) {
                select.where_ = Some(match select.where_.take() {
                    Some(prev) => prev.and(sql),
                    None => sql,
                });
                clauses.remove(i);
                continue;
            }
        }
        i += 1;
    }
}

/// Does `e` read a literal lifted out of the query text?
fn reads_lifted_literal(e: &CExpr) -> bool {
    e.free_vars().iter().any(|v| v.starts_with(LIFTED_PREFIX))
}

fn strip_data(e: &CExpr) -> &CExpr {
    match &e.kind {
        CKind::Data(inner) => strip_data(inner),
        _ => e,
    }
}

/// Push *computed scalar projections* into the statement: a pushable
/// `if/then/else`, arithmetic or string expression in the return that
/// reads only one `SqlFor`'s fields becomes an output column (the exact
/// published form of Table 1(d), where the `CASE` sits in the SELECT
/// list). "Things considered to be pushable to SQL include … if-then-
/// else expressions" (§4.3).
fn push_scalar_projections(ctx: &mut Context<'_>, clauses: &mut [Clause], ret: &mut CExpr) {
    // single uncorrelated SqlFor only (multi-region attribution is the
    // compiler's job elsewhere)
    let mut target = None;
    for (i, c) in clauses.iter().enumerate() {
        if let Clause::SqlFor { ppk: None, .. } = c {
            if target.is_some() {
                return;
            }
            target = Some(i);
        }
    }
    let Some(i) = target else { return };
    let Clause::SqlFor {
        connection,
        select,
        binds,
        params,
        ..
    } = &mut clauses[i]
    else {
        unreachable!()
    };
    push_scalars_in(ctx, ret, connection, select, binds, params);
}

/// Recursively replace pushable computed subexpressions with fresh field
/// variables backed by new output columns.
fn push_scalars_in(
    ctx: &mut Context<'_>,
    e: &mut CExpr,
    connection: &str,
    select: &mut Select,
    binds: &mut Vec<(String, AtomicType)>,
    params: &mut Vec<CExpr>,
) {
    let pushable_shape = match &e.kind {
        CKind::If { .. } | CKind::Arith { .. } => true,
        CKind::Builtin { op, .. } => sql_function(*op).is_some(),
        _ => false,
    };
    let ty = match e.ty.item_type() {
        Some(aldsp_xdm::types::ItemType::Atomic(t)) => *t,
        _ => AtomicType::AnyAtomic,
    };
    // must read at least one of this statement's fields, and all its
    // branches/operands must translate
    if pushable_shape
        && SqlType::from_xml_type(ty).is_some()
        && e.free_vars()
            .iter()
            .any(|v| binds.iter().any(|(b, _)| b == v))
    {
        let scope = Scope::Binds {
            connection,
            select,
            binds,
            params,
        };
        if let Some(sql) = (Translator { ctx, scope }).translate(e) {
            let alias = format!("c{}", select.columns.len() + 1);
            select
                .columns
                .push(aldsp_relational::OutputColumn { expr: sql, alias });
            let fvar = ctx.fresh("proj");
            binds.push((fvar.clone(), ty));
            let mut var = CExpr::var(&fvar, e.span);
            var.ty = e.ty.clone();
            *e = var;
            return;
        }
    }
    // don't descend into nested FLWORs that own their own statements
    if matches!(&e.kind, CKind::Flwor { .. }) {
        return;
    }
    e.for_each_child_mut(&mut |c| push_scalars_in(ctx, c, connection, select, binds, params));
}

/// `[SqlFor, (Let|Where)*, OrderBy(fields)]` → `ORDER BY` in the SQL.
/// Order keys may reference the SqlFor's binds directly or through
/// simple `let` aliases (`let $oc := $aggvar`).
fn push_trailing_order_by(ctx: &Context<'_>, clauses: &mut Vec<Clause>) {
    // find the single uncorrelated SqlFor
    let Some(sf_idx) = clauses.iter().position(
        |c| matches!(c, Clause::SqlFor { ppk: None, params, .. } if !ctx.correlated(params)),
    ) else {
        return;
    };
    // alias map through intermediate lets
    let mut aliases: Vec<(String, String)> = Vec::new(); // let var → bind var
    let mut order_idx = None;
    for (i, c) in clauses.iter().enumerate().skip(sf_idx + 1) {
        match c {
            Clause::Let { var, value } => {
                let inner = match &value.kind {
                    CKind::Data(x) => x.as_ref(),
                    _ => value,
                };
                if let CKind::Var { name: v, .. } = &inner.kind {
                    aliases.push((var.clone(), v.clone()));
                }
            }
            Clause::Where(_) => {}
            Clause::OrderBy(_) => {
                order_idx = Some(i);
                break;
            }
            _ => return, // another loop intervenes
        }
    }
    let Some(oi) = order_idx else { return };
    let resolve = |mut v: String, aliases: &[(String, String)]| -> String {
        while let Some((_, to)) = aliases.iter().find(|(from, _)| *from == v) {
            v = to.clone();
        }
        v
    };
    let Clause::OrderBy(specs) = clauses[oi].clone() else {
        unreachable!()
    };
    let mut pushed = Vec::new();
    {
        let Clause::SqlFor { select, binds, .. } = &clauses[sf_idx] else {
            unreachable!()
        };
        for s in &specs {
            let v = match &s.expr.kind {
                CKind::Var { name: v, .. } => v.clone(),
                CKind::Data(inner) => match &inner.kind {
                    CKind::Var { name: v, .. } => v.clone(),
                    _ => return,
                },
                _ => return,
            };
            let v = resolve(v, &aliases);
            let Some(pos) = binds.iter().position(|(b, _)| *b == v) else {
                return;
            };
            pushed.push(OrderBy {
                expr: select.columns[pos].expr.clone(),
                descending: s.descending,
            });
        }
    }
    let Clause::SqlFor { select, .. } = &mut clauses[sf_idx] else {
        unreachable!()
    };
    select.order_by.extend(pushed);
    clauses.remove(oi);
}

/// `subsequence(Flwor{[SqlFor]}, start, len)` → OFFSET/FETCH pushed into
/// the SQL when the connection's dialect supports pagination (Table
/// 2(i)); otherwise the builtin stays in the middleware.
fn push_subsequence(ctx: &mut Context<'_>, e: &mut CExpr) {
    let CKind::Builtin {
        op: Builtin::Subsequence,
        args,
    } = &mut e.kind
    else {
        return;
    };
    let int_bound = |a: &CExpr| match &a.kind {
        CKind::Const(v) => match v.cast_to(AtomicType::Integer) {
            Ok(aldsp_xdm::value::AtomicValue::Integer(i)) => Some(i),
            _ => None,
        },
        _ => None,
    };
    // a lifted literal as a bound: whether (and as what) the range
    // pushes depends on its value, so if everything else would push,
    // the shape is reported value-dependent instead
    let lifted_bound = args[1..].iter().any(reads_lifted_literal);
    let (start, len) = if lifted_bound {
        (1, None)
    } else {
        let Some(s) = args.get(1).and_then(int_bound) else {
            return;
        };
        let l = match args.get(2) {
            Some(a) => match int_bound(a) {
                Some(l) => Some(l),
                None => return,
            },
            None => None,
        };
        (s, l)
    };
    if start < 1 || len.is_some_and(|l| l < 0) {
        return; // non-canonical ranges stay in the middleware
    }
    let CKind::Flwor { clauses, .. } = &mut args[0].kind else {
        return;
    };
    let all_pushed = clauses.len() == 1;
    if !all_pushed {
        return;
    }
    let Clause::SqlFor {
        connection,
        select,
        ppk: None,
        params,
        ..
    } = &mut clauses[0]
    else {
        return;
    };
    if ctx.correlated(params) || !ctx.dialect_of(connection).supports_pagination() {
        return;
    }
    if lifted_bound {
        ctx.value_dependent = true;
        return;
    }
    select.offset = Some((start - 1) as u64);
    select.fetch = len.map(|l| l as u64);
    // the builtin is now redundant
    let inner = args.remove(0);
    *e = inner;
}
