//! Plan EXPLAIN rendering.
//!
//! The compiled [`CExpr`] tree **is** the physical plan the runtime
//! interprets, so EXPLAIN is a pretty-printer over it: one line per
//! plan node, `#id` labels from [`CExpr::assign_node_ids`], clause
//! sub-lines labelled `#id.idx` (the same `(node, clause)` addressing
//! the runtime's operator traces use), the generated SQL text for every
//! pushed scan, PP-k specs, the group-by mode the optimizer chose, and
//! cache / fail-over / timeout annotations.

use crate::context::LIFTED_PREFIX;
use crate::ir::{Builtin, CExpr, CKind, Clause, LocalJoinMethod, PpkSpec};
use aldsp_relational::{render_select, Dialect};
use aldsp_xdm::QName;
use std::collections::HashMap;
use std::fmt::Write;

/// Context the renderer needs beyond the plan itself.
///
/// Dialects decide how each pushed `Select` is rendered to SQL text;
/// cache enablement is *runtime* state (the mid-tier function cache is
/// configured per deployed function), so the server supplies a callback
/// rather than the compiler guessing.
pub struct ExplainContext<'a> {
    /// Connection name → SQL dialect (from the adaptor registry).
    pub dialects: &'a HashMap<String, Dialect>,
    /// Is the mid-tier function cache enabled for this source function?
    pub cache_enabled: &'a dyn Fn(&QName) -> bool,
    /// Workload-governor terms this plan would run under (priority,
    /// deadline, memory cap) — server state, rendered as a header line
    /// so EXPLAIN shows how the query will be scheduled, not just how
    /// it will be evaluated. `None` leaves the plan text unchanged.
    pub governor: Option<String>,
    /// Materialization terms for this function (policy, dependency /
    /// entry counts) — server state from the matview registry, rendered
    /// as a `-- matview:` header. `None` leaves the plan text unchanged.
    pub matview: Option<String>,
    /// The pushdown level the plan was compiled under (from
    /// [`crate::CompiledQuery::pushdown`]), rendered as a
    /// `-- pushdown:` header so the differential oracle — and a human
    /// reading the plan — can confirm which path produced a result.
    pub pushdown: crate::compile::PushdownLevel,
    /// The plan's compiled expression programs (from
    /// [`crate::CompiledQuery::programs`]): rendered as a `-- vm:`
    /// header plus a `-- program:` disassembly under each covered
    /// subtree root, so lowering-coverage regressions are visible in
    /// review. `None` leaves the plan text unchanged.
    pub programs: Option<&'a crate::program::ProgramSet>,
    /// The plan's middleware-join decisions (from
    /// [`crate::CompiledQuery::joins`]): rendered as a `-- join:` header
    /// listing, per marked join, the chosen strategy, estimated build /
    /// probe cardinalities and whether the build side was reordered —
    /// so join-planning regressions are visible in review. `None`
    /// leaves the plan text unchanged.
    pub joins: Option<&'a crate::joins::JoinPlan>,
    /// How the plan relates to the literals of the query text it was
    /// fetched for (server state from the plan cache), rendered as a
    /// `-- shape:` header. `None` leaves the plan text unchanged.
    pub shape: Option<PlanShape<'a>>,
}

/// What became of a query text's literals.
pub enum PlanShape<'a> {
    /// The plan serves every text of this shape; these are *this*
    /// text's lifted literals, bound to `$?0`, `$?1`, … and printed
    /// beside each reference.
    Lifted(&'a [aldsp_xdm::value::AtomicValue]),
    /// The value of a literal decides the plan, so this text was
    /// compiled with its literals in place.
    ValueDependent,
}

impl<'a> ExplainContext<'a> {
    fn dialect(&self, connection: &str) -> Dialect {
        self.dialects
            .get(connection)
            .copied()
            .unwrap_or(Dialect::Sql92)
    }
}

/// Render the physical plan as an indented tree, one node per line.
pub fn explain_plan(plan: &CExpr, ctx: &ExplainContext<'_>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "-- pushdown: {}", ctx.pushdown);
    if let Some(g) = &ctx.governor {
        let _ = writeln!(out, "-- governor: {g}");
    }
    if let Some(m) = &ctx.matview {
        let _ = writeln!(out, "-- matview: {m}");
    }
    if let Some(p) = ctx.programs {
        let _ = writeln!(out, "-- vm: {p}");
    }
    if let Some(j) = ctx.joins {
        let _ = writeln!(out, "-- join: {j}");
    }
    match &ctx.shape {
        Some(PlanShape::Lifted(values)) => {
            let _ = writeln!(out, "-- shape: {} literals lifted", values.len());
        }
        Some(PlanShape::ValueDependent) => {
            out.push_str("-- shape: literal (value-dependent)\n");
        }
        None => {}
    }
    render_expr(plan, ctx, 0, &mut out);
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render_expr(e: &CExpr, ctx: &ExplainContext<'_>, depth: usize, out: &mut String) {
    render_expr_node(e, ctx, depth, out);
    // A compiled subtree root gets its disassembly right under the
    // subtree it replaces at execution time.
    if let Some(prog) = ctx.programs.and_then(|p| p.lookup(e.node_id)) {
        indent(out, depth + 1);
        let _ = writeln!(
            out,
            "-- program: ops={} stack={}",
            prog.ops.len(),
            prog.max_stack
        );
        for (i, op) in prog.ops.iter().enumerate() {
            indent(out, depth + 1);
            let _ = writeln!(out, "--   {i}: {}", prog.render_op(op));
        }
    }
}

fn render_expr_node(e: &CExpr, ctx: &ExplainContext<'_>, depth: usize, out: &mut String) {
    indent(out, depth);
    let _ = write!(out, "#{} ", e.node_id);
    match &e.kind {
        CKind::Const(v) => {
            let _ = writeln!(out, "Const {}", v.string_value());
        }
        CKind::Var { name: v, .. } => {
            let lifted = match &ctx.shape {
                Some(PlanShape::Lifted(values)) => (v.strip_prefix(LIFTED_PREFIX))
                    .and_then(|i| values.get(i.parse::<usize>().ok()?)),
                _ => None,
            };
            match lifted {
                Some(value) => {
                    let _ = writeln!(out, "Var ${v} = {}", value.string_value());
                }
                None => {
                    let _ = writeln!(out, "Var ${v}");
                }
            }
        }
        CKind::Seq(items) => {
            let _ = writeln!(out, "Seq n={}", items.len());
            for i in items {
                render_expr(i, ctx, depth + 1, out);
            }
        }
        CKind::Range(a, b) => {
            out.push_str("Range\n");
            render_expr(a, ctx, depth + 1, out);
            render_expr(b, ctx, depth + 1, out);
        }
        CKind::Flwor { clauses, ret } => {
            out.push_str("FLWOR\n");
            for (idx, c) in clauses.iter().enumerate() {
                render_clause(e.node_id, idx, c, ctx, depth + 1, out);
            }
            indent(out, depth + 1);
            out.push_str("return\n");
            render_expr(ret, ctx, depth + 2, out);
        }
        CKind::If { cond, then, els } => {
            out.push_str("If\n");
            render_expr(cond, ctx, depth + 1, out);
            render_expr(then, ctx, depth + 1, out);
            render_expr(els, ctx, depth + 1, out);
        }
        CKind::Quantified {
            every,
            var,
            source,
            satisfies,
        } => {
            let _ = writeln!(
                out,
                "Quantified {} ${var}",
                if *every { "every" } else { "some" }
            );
            render_expr(source, ctx, depth + 1, out);
            render_expr(satisfies, ctx, depth + 1, out);
        }
        CKind::Typeswitch {
            operand,
            cases,
            default,
        } => {
            let _ = writeln!(out, "Typeswitch cases={}", cases.len());
            render_expr(operand, ctx, depth + 1, out);
            for (ty, var, branch) in cases {
                indent(out, depth + 1);
                let _ = writeln!(out, "case {ty} ${var}");
                render_expr(branch, ctx, depth + 2, out);
            }
            indent(out, depth + 1);
            let _ = writeln!(out, "default ${}", default.0);
            render_expr(&default.1, ctx, depth + 2, out);
        }
        CKind::And(a, b) => {
            out.push_str("And\n");
            render_expr(a, ctx, depth + 1, out);
            render_expr(b, ctx, depth + 1, out);
        }
        CKind::Or(a, b) => {
            out.push_str("Or\n");
            render_expr(a, ctx, depth + 1, out);
            render_expr(b, ctx, depth + 1, out);
        }
        CKind::Compare {
            op,
            general,
            lhs,
            rhs,
        } => {
            let _ = writeln!(
                out,
                "Compare {op:?}{}",
                if *general { " (general)" } else { "" }
            );
            render_expr(lhs, ctx, depth + 1, out);
            render_expr(rhs, ctx, depth + 1, out);
        }
        CKind::Arith { op, lhs, rhs } => {
            let _ = writeln!(out, "Arith {op}");
            render_expr(lhs, ctx, depth + 1, out);
            render_expr(rhs, ctx, depth + 1, out);
        }
        CKind::Data(input) => {
            out.push_str("Data\n");
            render_expr(input, ctx, depth + 1, out);
        }
        CKind::ChildStep { input, name } => {
            let _ = writeln!(out, "ChildStep {}", name_test(name));
            render_expr(input, ctx, depth + 1, out);
        }
        CKind::AttrStep { input, name } => {
            let _ = writeln!(out, "AttrStep @{}", name_test(name));
            render_expr(input, ctx, depth + 1, out);
        }
        CKind::DescendantStep { input } => {
            out.push_str("DescendantStep\n");
            render_expr(input, ctx, depth + 1, out);
        }
        CKind::Filter {
            input,
            predicate,
            positional,
            ..
        } => {
            let _ = writeln!(
                out,
                "Filter{}",
                if *positional { " (positional)" } else { "" }
            );
            render_expr(input, ctx, depth + 1, out);
            render_expr(predicate, ctx, depth + 1, out);
        }
        CKind::ElementCtor {
            name,
            conditional,
            attributes,
            content,
        } => {
            let _ = writeln!(
                out,
                "ElementCtor <{name}{}> attrs={}",
                if *conditional { "?" } else { "" },
                attributes.len()
            );
            for (_, _, v) in attributes {
                render_expr(v, ctx, depth + 1, out);
            }
            render_expr(content, ctx, depth + 1, out);
        }
        CKind::Builtin { op, args } => {
            match op {
                Builtin::Async => out.push_str("Async [parallel part, §5.4]\n"),
                Builtin::Timeout => out.push_str("Timeout [alternate on expiry, §5.6]\n"),
                Builtin::FailOver => out.push_str("FailOver [alternate on error, §5.6]\n"),
                _ => {
                    let _ = writeln!(out, "Builtin {op:?}");
                }
            }
            for a in args {
                render_expr(a, ctx, depth + 1, out);
            }
        }
        CKind::PhysicalCall { name, args } => {
            let cached = (ctx.cache_enabled)(name);
            let _ = writeln!(
                out,
                "SourceCall {name}{}",
                if cached { " [cached]" } else { "" }
            );
            for a in args {
                render_expr(a, ctx, depth + 1, out);
            }
        }
        CKind::UserCall { name, args } => {
            let _ = writeln!(out, "UserCall {name}");
            for a in args {
                render_expr(a, ctx, depth + 1, out);
            }
        }
        CKind::TypeMatch { input, ty } => {
            let _ = writeln!(out, "TypeMatch {ty}");
            render_expr(input, ctx, depth + 1, out);
        }
        CKind::Cast {
            input,
            target,
            optional,
        } => {
            let _ = writeln!(out, "Cast {target}{}", if *optional { "?" } else { "" });
            render_expr(input, ctx, depth + 1, out);
        }
        CKind::Castable { input, target } => {
            let _ = writeln!(out, "Castable {target}");
            render_expr(input, ctx, depth + 1, out);
        }
        CKind::InstanceOf { input, ty } => {
            let _ = writeln!(out, "InstanceOf {ty}");
            render_expr(input, ctx, depth + 1, out);
        }
        CKind::Error(inputs) => {
            out.push_str("Error\n");
            for i in inputs {
                render_expr(i, ctx, depth + 1, out);
            }
        }
    }
}

fn render_clause(
    flwor_id: u32,
    idx: usize,
    c: &Clause,
    ctx: &ExplainContext<'_>,
    depth: usize,
    out: &mut String,
) {
    indent(out, depth);
    let _ = write!(out, "#{flwor_id}.{idx} ");
    match c {
        Clause::For { var, pos, source } => {
            match pos {
                Some(p) => {
                    let _ = writeln!(out, "For ${var} at ${p}");
                }
                None => {
                    let _ = writeln!(out, "For ${var}");
                }
            }
            render_expr(source, ctx, depth + 1, out);
        }
        Clause::Let { var, value } => {
            let _ = writeln!(out, "Let ${var}");
            render_expr(value, ctx, depth + 1, out);
        }
        Clause::Where(e) => {
            out.push_str("Where\n");
            render_expr(e, ctx, depth + 1, out);
        }
        Clause::GroupBy {
            bindings,
            keys,
            pre_clustered,
            ..
        } => {
            let mode = if *pre_clustered {
                "streaming (pre-clustered, constant memory)"
            } else {
                "sorted (buffers groups)"
            };
            let key_names: Vec<&str> = keys.iter().map(|(_, a)| a.as_str()).collect();
            let _ = writeln!(
                out,
                "GroupBy mode={mode} keys=[{}] regroups={}",
                key_names.join(", "),
                bindings.len()
            );
            for (k, _) in keys {
                render_expr(k, ctx, depth + 1, out);
            }
        }
        Clause::OrderBy(specs) => {
            let _ = writeln!(out, "OrderBy keys={}", specs.len());
            for s in specs {
                render_expr(&s.expr, ctx, depth + 1, out);
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
            let dialect = ctx.dialect(connection);
            let bind_vars: Vec<String> = binds.iter().map(|(v, _)| format!("${v}")).collect();
            let _ = writeln!(
                out,
                "SqlScan connection={connection} dialect={} params={} query-const={} binds=[{}]",
                dialect.name(),
                params.len(),
                query_const.iter().filter(|c| **c).count(),
                bind_vars.join(", ")
            );
            if let Some(spec) = ppk {
                indent(out, depth + 1);
                let _ = writeln!(out, "{}", ppk_line(spec));
            }
            let sql = render_select(select, dialect);
            for line in sql.lines() {
                indent(out, depth + 1);
                let _ = writeln!(out, "sql> {line}");
            }
            for p in params {
                render_expr(p, ctx, depth + 1, out);
            }
            if let Some(spec) = ppk {
                for k in &spec.outer_keys {
                    render_expr(k, ctx, depth + 1, out);
                }
            }
        }
    }
}

fn ppk_line(spec: &PpkSpec) -> String {
    let method = match spec.local_method {
        LocalJoinMethod::NestedLoop => "nested-loop",
        LocalJoinMethod::IndexNestedLoop => "index-nested-loop",
    };
    format!(
        "ppk: k={} local-join={method} prefetch-depth={} outer-join={}",
        spec.k, spec.prefetch_depth, spec.outer_join
    )
}

fn name_test(name: &Option<QName>) -> String {
    match name {
        Some(q) => q.to_string(),
        None => "*".to_string(),
    }
}
