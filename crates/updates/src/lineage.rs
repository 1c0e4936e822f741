//! Automatic lineage computation (§6).
//!
//! "Change propagation requires ALDSP to identify where changed data
//! originated — its lineage must be determined. ALDSP performs automatic
//! computation of the lineage for a data service from the query body of
//! the … lineage provider. … Primary key information, query predicates,
//! and query result shapes are used together to determine which data in
//! which sources are affected." The analysis here is rule-driven over
//! the same optimized expression tree the optimizer produces (the paper
//! notes the lineage rule set runs on the optimizer's rule engine):
//! `SqlFor` clauses say which (connection, table, column) each field
//! variable reads; the constructed result shape says where each field
//! surfaces; registered **inverse functions** (§4.4) make transformed
//! values writable.

use crate::sdo::Path;
use aldsp_compiler::ir::{CExpr, CKind, Clause};
use aldsp_compiler::CompiledQuery;
use aldsp_metadata::Registry;
use aldsp_relational::{ScalarExpr, TableRef};
use aldsp_xdm::QName;
use std::collections::{BTreeSet, HashMap};

/// `(connection, table, column)` triples collected by the dependency pass.
type ColumnSet = BTreeSet<(String, String, String)>;

/// One writable output location.
#[derive(Debug, Clone, PartialEq)]
pub struct LineageEntry {
    /// Path in the result shape (e.g. `/LAST_NAME`).
    pub path: Path,
    /// Source connection.
    pub connection: String,
    /// Source table.
    pub table: String,
    /// Source column.
    pub column: String,
    /// When the output value is `f(column)` for an invertible `f`: the
    /// inverse function to apply to new values before writing (§4.4).
    pub inverse: Option<QName>,
}

/// Lineage of one data-service shape.
#[derive(Debug, Clone, Default)]
pub struct Lineage {
    /// Writable column mappings.
    pub entries: Vec<LineageEntry>,
    /// For each `(connection, table)`: its primary-key columns and the
    /// result paths where they surface (used to key UPDATE statements).
    pub keys: HashMap<(String, String), Vec<(String, Path)>>,
    /// Every source column the plan reads, per `(connection, table)`:
    /// SQL projections plus predicate/grouping/ordering columns. A write
    /// to a column outside this set cannot change the service's answer.
    pub referenced: HashMap<(String, String), Vec<String>>,
    /// Columns whose value determines *which* rows appear (or how the
    /// result is arranged) rather than just a displayed value: SQL
    /// WHERE/HAVING/GROUP BY/ORDER BY/join-ON columns, PP-k correlation
    /// keys, and columns consumed by middleware clauses or opaque
    /// result-shape expressions. A write to one of these may change
    /// membership, so a cached answer cannot be patched in place.
    pub restricting: HashMap<(String, String), Vec<String>>,
    /// Relational tables read through unpushed physical calls (e.g. with
    /// pushdown off). Column-level analysis is unavailable for these, so
    /// any write to the table must be treated as affecting the plan.
    pub opaque_tables: Vec<(String, String)>,
    /// `true` when the plan is a single scan-and-construct FLWOR (one
    /// `SqlFor`, only `Let`/`Where` beside it, no nested iteration in
    /// the return shape) — the shape whose cached answers are row-wise
    /// patchable: each output instance carries the columns of exactly
    /// one scanned row.
    pub simple_shape: bool,
}

impl Lineage {
    /// The entry for a result path, if that path is writable.
    pub fn entry(&self, path: &Path) -> Option<&LineageEntry> {
        self.entries.iter().find(|e| &e.path == path)
    }
}

/// Per-field-variable source info collected from `SqlFor` clauses.
#[derive(Debug, Clone)]
struct FieldSource {
    connection: String,
    table: String,
    column: String,
}

/// Compute the lineage of a compiled lineage-provider plan.
pub fn analyze(registry: &Registry, plan: &CompiledQuery) -> Result<Lineage, String> {
    // pass 1: field variable → (connection, table, column), plus the
    // column equivalences implied by join predicates ("query predicates
    // … are used together to determine which data … are affected", §6)
    let mut fields: HashMap<String, FieldSource> = HashMap::new();
    let mut equiv: Vec<(FieldSource, FieldSource)> = Vec::new();
    collect_fields(&plan.plan, &mut fields);
    collect_equivalences(&plan.plan, &fields, &mut equiv);
    // pass 2: walk the constructed result shape. Paths are relative to
    // the object root (the instance element the data service returns),
    // so the root constructor contributes no path step.
    let mut lineage = Lineage::default();
    let ret = result_expr(&plan.plan);
    let root_content = match &ret.kind {
        CKind::ElementCtor { content, .. } => content.as_ref(),
        CKind::Seq(parts) if parts.len() == 1 => match &parts[0].kind {
            CKind::ElementCtor { content, .. } => content.as_ref(),
            _ => ret,
        },
        _ => ret,
    };
    walk_shape(
        root_content,
        &mut Vec::new(),
        &fields,
        registry,
        &mut lineage,
    );
    // pass 3: key exposure — for each referenced table, find the result
    // paths carrying its primary key
    let mut keys: HashMap<(String, String), Vec<(String, Path)>> = HashMap::new();
    let tables: Vec<(String, String)> = {
        let mut t: Vec<(String, String)> = lineage
            .entries
            .iter()
            .map(|e| (e.connection.clone(), e.table.clone()))
            .collect();
        t.sort();
        t.dedup();
        t
    };
    for (conn, table) in tables {
        let pk = registry
            .functions()
            .find_map(|f| match &f.source {
                aldsp_metadata::SourceBinding::RelationalTable {
                    connection,
                    table: t,
                    primary_key,
                    ..
                } if *connection == conn && *t == table => Some(primary_key.clone()),
                _ => None,
            })
            .unwrap_or_default();
        if pk.is_empty() {
            continue; // tables without a PK are not updatable
        }
        let mut exposed = Vec::with_capacity(pk.len());
        let mut all_found = true;
        for col in &pk {
            // directly exposed, or exposed through a join-equivalent
            // column of another table
            let direct = lineage.entries.iter().find(|e| {
                e.connection == conn && e.table == table && &e.column == col && e.inverse.is_none()
            });
            let found = direct.or_else(|| {
                equiv.iter().find_map(|(a, b)| {
                    let other = if a.connection == conn && a.table == table && a.column == *col {
                        Some(b)
                    } else if b.connection == conn && b.table == table && b.column == *col {
                        Some(a)
                    } else {
                        None
                    }?;
                    lineage.entries.iter().find(|e| {
                        e.connection == other.connection
                            && e.table == other.table
                            && e.column == other.column
                            && e.inverse.is_none()
                    })
                })
            });
            match found {
                Some(e) => exposed.push((col.clone(), e.path.clone())),
                None => {
                    all_found = false;
                    break;
                }
            }
        }
        if all_found {
            keys.insert((conn, table), exposed);
        }
    }
    lineage.keys = keys;
    // pass 4: dependency metadata for write-through cache maintenance
    // (crates/matview): which columns the plan reads, which of them
    // restrict membership, and which tables it reads opaquely.
    let mut referenced = ColumnSet::new();
    let mut restricting = ColumnSet::new();
    collect_sql_columns(&plan.plan, &mut referenced, &mut restricting);
    collect_clause_uses(&plan.plan, &fields, &mut restricting);
    collect_shape_uses(root_content, &fields, registry, &mut restricting);
    referenced.extend(restricting.iter().cloned());
    let mut opaque: BTreeSet<(String, String)> = BTreeSet::new();
    plan.plan.walk(&mut |e| {
        if let CKind::PhysicalCall { name, .. } = &e.kind {
            if let Some(f) = registry.function(name) {
                match &f.source {
                    aldsp_metadata::SourceBinding::RelationalTable {
                        connection, table, ..
                    } => {
                        opaque.insert((connection.clone(), table.clone()));
                    }
                    aldsp_metadata::SourceBinding::RelationalNavigation {
                        connection,
                        to_table,
                        ..
                    } => {
                        opaque.insert((connection.clone(), to_table.clone()));
                    }
                    _ => {}
                }
            }
        }
    });
    for (c, t, col) in referenced {
        lineage.referenced.entry((c, t)).or_default().push(col);
    }
    for (c, t, col) in restricting {
        lineage.restricting.entry((c, t)).or_default().push(col);
    }
    lineage.opaque_tables = opaque.into_iter().collect();
    lineage.simple_shape = compute_simple_shape(&plan.plan);
    Ok(lineage)
}

/// Collect referenced / restricting columns from every pushed SQL
/// statement: projections are referenced; predicate, grouping, ordering,
/// join-ON, and PP-k correlation columns additionally restrict.
fn collect_sql_columns(e: &CExpr, referenced: &mut ColumnSet, restricting: &mut ColumnSet) {
    if let CKind::Flwor { clauses, .. } = &e.kind {
        for c in clauses {
            let Clause::SqlFor {
                connection,
                select,
                ppk,
                ..
            } = c
            else {
                continue;
            };
            let mut alias_tables: HashMap<String, String> = HashMap::new();
            fn tables(t: &TableRef, out: &mut HashMap<String, String>) {
                match t {
                    TableRef::Table { name, alias } => {
                        out.insert(alias.clone(), name.clone());
                    }
                    TableRef::Join { left, right, .. } => {
                        tables(left, out);
                        tables(right, out);
                    }
                    TableRef::Derived { .. } => {}
                }
            }
            tables(&select.from, &mut alias_tables);
            let mark = |expr: &ScalarExpr, out: &mut ColumnSet| {
                expr.walk(&mut |s| {
                    if let ScalarExpr::Column { table, column } = s {
                        if let Some(t) = alias_tables.get(table) {
                            out.insert((connection.clone(), t.clone(), column.clone()));
                        }
                    }
                });
            };
            for col in &select.columns {
                mark(&col.expr, referenced);
            }
            for pred in select.where_.iter().chain(select.having.iter()) {
                mark(pred, restricting);
            }
            for key in &select.group_by {
                mark(key, restricting);
            }
            for ob in &select.order_by {
                mark(&ob.expr, restricting);
            }
            fn on_columns(
                t: &TableRef,
                mark: &dyn Fn(&ScalarExpr, &mut ColumnSet),
                out: &mut ColumnSet,
            ) {
                if let TableRef::Join {
                    left, right, on, ..
                } = t
                {
                    on_columns(left, mark, out);
                    on_columns(right, mark, out);
                    mark(on, out);
                }
            }
            on_columns(&select.from, &mark, restricting);
            if let Some(spec) = ppk {
                for col in &spec.key_columns {
                    mark(col, restricting);
                }
            }
        }
    }
    e.for_each_child(&mut |c| collect_sql_columns(c, referenced, restricting));
}

/// Record the source column of every field variable consumed by a
/// middleware clause (a where predicate, a non-transparent let, a group
/// key, an order key, a correlation parameter, a non-SQL for source):
/// such uses restrict membership or arrangement, so writes to those
/// columns must invalidate rather than patch.
fn collect_clause_uses(e: &CExpr, fields: &HashMap<String, FieldSource>, out: &mut ColumnSet) {
    if let CKind::Flwor { clauses, .. } = &e.kind {
        for c in clauses {
            match c {
                Clause::For { source, .. } => mark_field_vars(source, fields, out),
                Clause::Let { value, .. } => {
                    if transparent_source(value, fields).is_none() {
                        mark_field_vars(value, fields, out);
                    }
                }
                Clause::Where(cond) => mark_field_vars(cond, fields, out),
                Clause::GroupBy { keys, .. } => {
                    for (k, _) in keys {
                        mark_field_vars(k, fields, out);
                    }
                }
                Clause::OrderBy(specs) => {
                    for s in specs {
                        mark_field_vars(&s.expr, fields, out);
                    }
                }
                Clause::SqlFor { params, ppk, .. } => {
                    for p in params {
                        mark_field_vars(p, fields, out);
                    }
                    if let Some(spec) = ppk {
                        for k in &spec.outer_keys {
                            mark_field_vars(k, fields, out);
                        }
                    }
                }
            }
        }
    }
    e.for_each_child(&mut |c| collect_clause_uses(c, fields, out));
}

/// Mirror of [`walk_shape`] that records *non-display* uses of field
/// variables in the constructed result: attribute values, `if`
/// conditions, opaque content expressions, and any display chain that
/// consumes more than one field. Those columns cannot be patched blind.
fn collect_shape_uses(
    e: &CExpr,
    fields: &HashMap<String, FieldSource>,
    registry: &Registry,
    out: &mut ColumnSet,
) {
    match &e.kind {
        CKind::ElementCtor {
            attributes,
            content,
            ..
        } => {
            for (_, _, value) in attributes {
                mark_field_vars(value, fields, out);
            }
            if backing_field(content, fields, registry).is_some() {
                // a clean display chain reads exactly one field; a chain
                // that also consults *other* fields (guards comparing
                // neighbours) makes every one of them restricting
                let mut names: BTreeSet<String> = BTreeSet::new();
                content.walk(&mut |x| {
                    if let CKind::Var { name, .. } = &x.kind {
                        if fields.contains_key(name) {
                            names.insert(name.clone());
                        }
                    }
                });
                if names.len() > 1 {
                    mark_field_vars(content, fields, out);
                }
            } else {
                collect_shape_uses(content, fields, registry, out);
            }
        }
        CKind::Seq(parts) => {
            for p in parts {
                collect_shape_uses(p, fields, registry, out);
            }
        }
        // nested-iteration clauses are covered by `collect_clause_uses`
        CKind::Flwor { ret, .. } => collect_shape_uses(ret, fields, registry, out),
        CKind::If { cond, then, els } => {
            mark_field_vars(cond, fields, out);
            collect_shape_uses(then, fields, registry, out);
            collect_shape_uses(els, fields, registry, out);
        }
        _ => mark_field_vars(e, fields, out),
    }
}

/// Record the source column of every field variable in the subtree.
fn mark_field_vars(e: &CExpr, fields: &HashMap<String, FieldSource>, out: &mut ColumnSet) {
    e.walk(&mut |x| {
        if let CKind::Var { name, .. } = &x.kind {
            if let Some(src) = fields.get(name) {
                out.insert((
                    src.connection.clone(),
                    src.table.clone(),
                    src.column.clone(),
                ));
            }
        }
    });
}

/// Is the plan one scan-and-construct FLWOR whose answers are row-wise
/// patchable? (Exactly one `SqlFor`, only `Let`/`Where` beside it, and
/// no nested iteration in the constructed shape — so each output
/// instance corresponds to one scanned row.)
fn compute_simple_shape(plan: &CExpr) -> bool {
    let e = match &plan.kind {
        CKind::Seq(parts) if parts.len() == 1 => &parts[0],
        _ => plan,
    };
    let CKind::Flwor { clauses, ret } = &e.kind else {
        return false;
    };
    let mut sql_fors = 0usize;
    for c in clauses {
        match c {
            Clause::SqlFor { .. } => sql_fors += 1,
            Clause::Let { .. } | Clause::Where(_) => {}
            _ => return false,
        }
    }
    if sql_fors != 1 {
        return false;
    }
    let mut nested = false;
    ret.walk(&mut |x| {
        if matches!(&x.kind, CKind::Flwor { .. }) {
            nested = true;
        }
    });
    !nested
}

/// Collect field-variable sources from every `SqlFor` in the plan.
fn collect_fields(e: &CExpr, out: &mut HashMap<String, FieldSource>) {
    if let CKind::Flwor { clauses, .. } = &e.kind {
        for c in clauses {
            if let Clause::SqlFor {
                connection,
                select,
                binds,
                ..
            } = c
            {
                // alias → table map from the FROM tree
                let mut alias_tables: HashMap<String, String> = HashMap::new();
                fn tables(t: &TableRef, out: &mut HashMap<String, String>) {
                    match t {
                        TableRef::Table { name, alias } => {
                            out.insert(alias.clone(), name.clone());
                        }
                        TableRef::Join { left, right, .. } => {
                            tables(left, out);
                            tables(right, out);
                        }
                        TableRef::Derived { .. } => {}
                    }
                }
                tables(&select.from, &mut alias_tables);
                for (i, (var, _)) in binds.iter().enumerate() {
                    let Some(col) = select.columns.get(i) else {
                        continue;
                    };
                    if let ScalarExpr::Column { table, column } = &col.expr {
                        if let Some(tname) = alias_tables.get(table) {
                            out.insert(
                                var.clone(),
                                FieldSource {
                                    connection: connection.clone(),
                                    table: tname.clone(),
                                    column: column.clone(),
                                },
                            );
                        }
                    }
                }
            }
            // carried/regrouped variables keep their origin
            if let Clause::GroupBy {
                bindings, carry, ..
            } = c
            {
                for (from, to) in bindings.iter().chain(carry.iter()) {
                    if let Some(src) = out.get(from).cloned() {
                        out.insert(to.clone(), src);
                    }
                }
            }
            // lets that merely wrap a single field (guards, constructors
            // from dependent-join re-nesting) stay transparent
            if let Clause::Let { var, value } = c {
                if let Some(src) = transparent_source(value, out) {
                    out.insert(var.clone(), src);
                }
            }
        }
    }
    e.for_each_child(&mut |c| collect_fields(c, out));
}

/// Collect column equivalences from PP-k correlations and same-source
/// join ON conditions.
fn collect_equivalences(
    e: &CExpr,
    fields: &HashMap<String, FieldSource>,
    out: &mut Vec<(FieldSource, FieldSource)>,
) {
    if let CKind::Flwor { clauses, .. } = &e.kind {
        for c in clauses {
            let Clause::SqlFor {
                connection,
                select,
                ppk,
                ..
            } = c
            else {
                continue;
            };
            let mut alias_tables: HashMap<String, String> = HashMap::new();
            fn tables(t: &TableRef, out: &mut HashMap<String, String>) {
                match t {
                    TableRef::Table { name, alias } => {
                        out.insert(alias.clone(), name.clone());
                    }
                    TableRef::Join { left, right, .. } => {
                        tables(left, out);
                        tables(right, out);
                    }
                    TableRef::Derived { .. } => {}
                }
            }
            tables(&select.from, &mut alias_tables);
            let col_source = |c: &ScalarExpr| -> Option<FieldSource> {
                let ScalarExpr::Column { table, column } = c else {
                    return None;
                };
                Some(FieldSource {
                    connection: connection.clone(),
                    table: alias_tables.get(table)?.clone(),
                    column: column.clone(),
                })
            };
            // PP-k correlation equalities: inner column ≡ outer field
            if let Some(spec) = ppk {
                for (outer, col) in spec.outer_keys.iter().zip(&spec.key_columns) {
                    if let (Some(a), Some(b)) = (transparent_source(outer, fields), col_source(col))
                    {
                        out.push((a, b));
                    }
                }
            }
            // join ON equalities within one statement
            fn on_equalities(
                t: &TableRef,
                col_source: &dyn Fn(&ScalarExpr) -> Option<FieldSource>,
                out: &mut Vec<(FieldSource, FieldSource)>,
            ) {
                if let TableRef::Join {
                    left, right, on, ..
                } = t
                {
                    on_equalities(left, col_source, out);
                    on_equalities(right, col_source, out);
                    on.walk(&mut |e| {
                        if let ScalarExpr::Compare {
                            op: aldsp_xdm::item::CompOp::Eq,
                            lhs,
                            rhs,
                        } = e
                        {
                            if let (Some(a), Some(b)) = (col_source(lhs), col_source(rhs)) {
                                out.push((a, b));
                            }
                        }
                    });
                }
            }
            on_equalities(&select.from, &col_source, out);
        }
    }
    e.for_each_child(&mut |c| collect_equivalences(c, fields, out));
}

/// Trace a wrapper expression (guard `if`s, data/typematch, single-part
/// sequences, reconstructed column elements) back to one field variable.
fn transparent_source(e: &CExpr, fields: &HashMap<String, FieldSource>) -> Option<FieldSource> {
    match &e.kind {
        CKind::Var { name: v, .. } => fields.get(v).cloned(),
        CKind::Data(i) | CKind::TypeMatch { input: i, .. } => transparent_source(i, fields),
        CKind::Seq(parts) if parts.len() == 1 => transparent_source(&parts[0], fields),
        CKind::ElementCtor {
            attributes,
            content,
            ..
        } if attributes.is_empty() => transparent_source(content, fields),
        // the hoist guard: if (exists(f) or …) then value else ()
        CKind::If { then, els, .. } => {
            if matches!(&els.kind, CKind::Seq(v) if v.is_empty()) {
                transparent_source(then, fields)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The per-instance result expression: the return of the outermost FLWOR
/// (or the plan itself for degenerate shapes).
fn result_expr(plan: &CExpr) -> &CExpr {
    match &plan.kind {
        CKind::Flwor { ret, .. } => ret,
        _ => plan,
    }
}

/// Walk the constructed shape, recording column-backed simple contents.
fn walk_shape(
    e: &CExpr,
    path: &mut Path,
    fields: &HashMap<String, FieldSource>,
    registry: &Registry,
    lineage: &mut Lineage,
) {
    match &e.kind {
        CKind::ElementCtor { name, content, .. } => {
            // entering <name>…</name>
            path.push((name.clone(), 0));
            match backing_field(content, fields, registry) {
                Some((src, inverse)) => {
                    lineage.entries.push(LineageEntry {
                        path: path.clone(),
                        connection: src.connection.clone(),
                        table: src.table.clone(),
                        column: src.column.clone(),
                        inverse,
                    });
                }
                None => {
                    walk_shape(content, path, fields, registry, lineage);
                }
            }
            path.pop();
        }
        CKind::Seq(parts) => {
            for p in parts {
                walk_shape(p, path, fields, registry, lineage);
            }
        }
        // nested iteration (re-nested joins): descend into the return
        CKind::Flwor { ret, .. } => walk_shape(ret, path, fields, registry, lineage),
        CKind::If { then, els, .. } => {
            walk_shape(then, path, fields, registry, lineage);
            walk_shape(els, path, fields, registry, lineage);
        }
        _ => {}
    }
}

/// Does this content expression read exactly one source column (possibly
/// through an invertible transformation)?
#[allow(clippy::only_used_in_recursion)]
fn backing_field<'a>(
    e: &CExpr,
    fields: &'a HashMap<String, FieldSource>,
    registry: &Registry,
) -> Option<(&'a FieldSource, Option<QName>)> {
    match &e.kind {
        CKind::Var { name: v, .. } => fields.get(v).map(|s| (s, None)),
        CKind::Data(inner) | CKind::TypeMatch { input: inner, .. } => {
            backing_field(inner, fields, registry)
        }
        CKind::Seq(parts) if parts.len() == 1 => backing_field(&parts[0], fields, registry),
        // a reconstructed source element (<COL>{$field}</COL>) reads the
        // same column
        CKind::ElementCtor {
            attributes,
            content,
            ..
        } if attributes.is_empty() => backing_field(content, fields, registry),
        // f($col) where f has a registered inverse → writable through f⁻¹.
        // The inverse registration lives in the compiler; for lineage we
        // accept any single-argument library call whose argument is a
        // column and look the inverse up in the caller-provided map via
        // `inverse_of` below.
        CKind::PhysicalCall { name, args } if args.len() == 1 => {
            let (src, inner_inv) = backing_field(&args[0], fields, registry)?;
            if inner_inv.is_some() {
                return None; // nested transforms unsupported
            }
            Some((src, Some(name.clone())))
        }
        _ => None,
    }
}

/// Resolve the writable inverse of a transform recorded by
/// [`analyze`]: the lineage stores the *forward* function name; submit
/// processing swaps it for the declared inverse (or refuses the write).
pub fn resolve_inverse(
    inverses: &aldsp_compiler::InverseRegistry,
    entry: &LineageEntry,
) -> Result<Option<QName>, String> {
    match &entry.inverse {
        None => Ok(None),
        Some(forward) => match inverses.inverse_of(forward) {
            Some(inv) => Ok(Some(inv.clone())),
            None => Err(format!(
                "path {} is computed by {forward} which has no registered inverse — not writable",
                crate::sdo::path_string(&entry.path)
            )),
        },
    }
}
