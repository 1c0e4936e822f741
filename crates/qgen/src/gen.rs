//! Seeded random FLWGOR generation.
//!
//! [`generate`] maps a `u64` seed to a [`GenQuery`] — a structured
//! query over a [`CatalogModel`] exercising the optimizer surface the
//! differential oracle cares about: scans, FK navigation joins,
//! cross-source equality joins, pushable comparison predicates,
//! inverse-function (transformed-value) predicates, existential
//! semi-joins, order-by with mixed directions, single-block grouping
//! with aggregates (by a column, which can push to SQL, or by a
//! `fn:substring` of a string column, which cannot, so the group runs
//! in the middleware), and conditional / nested construction in return
//! clauses.
//!
//! Every generated query is **order-total by construction**: queries
//! with more than one `for` always carry an `order by` whose trailing
//! keys append each bound variable's primary-key columns, and grouped
//! queries order by the group key. This is what makes byte-identical
//! comparison across configuration cells sound — without a total
//! order, SQL join output order and middleware nested-loop order are
//! both *correct* but not *equal*. Nullable columns are never used as
//! order or group keys (NULL-ordering is vendor-defined) and
//! aggregates other than `count` only touch non-nullable integer
//! columns (`fn:sum(()) = 0` but `SUM` of no rows is SQL NULL).

use crate::model::{CatalogModel, ColTy, ColumnModel, TableModel};
use rand::{Rng, SeedableRng, StdRng};

/// A value-comparison operator (`eq ne lt le gt ge` — keyword forms
/// parse unambiguously and treat NULL/empty like SQL treats UNKNOWN).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `eq`
    Eq,
    /// `ne`
    Ne,
    /// `lt`
    Lt,
    /// `le`
    Le,
    /// `gt`
    Gt,
    /// `ge`
    Ge,
}

impl CmpOp {
    const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    fn render(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }
}

/// How a `for` clause binds its variable.
#[derive(Debug, Clone)]
pub enum Access {
    /// Table read function: `c:TABLE()`.
    Scan,
    /// FK navigation from an earlier variable: `c:getORDER($v0)`.
    Nav {
        /// Navigation function local name.
        function: String,
        /// Index of the variable navigated from.
        of: usize,
    },
}

/// One `for $vI in …` clause. The variable name is the clause index.
#[derive(Debug, Clone)]
pub struct ForClause {
    /// Source index into [`CatalogModel::sources`].
    pub source: usize,
    /// Table the variable ranges over.
    pub table: String,
    /// Binding form.
    pub access: Access,
}

/// A `where` conjunct.
#[derive(Debug, Clone)]
pub enum Pred {
    /// `$v/COL op literal`.
    Cmp {
        /// Variable index.
        var: usize,
        /// Column name.
        column: String,
        /// Operator.
        op: CmpOp,
        /// Rendered literal.
        lit: String,
    },
    /// `lib:f($v/COL) op lib:f(literal)` — a transformed-value
    /// predicate the §4.4 inverse rewrite can unblock for pushdown.
    Transform {
        /// Index into [`CatalogModel::transforms`].
        tf: usize,
        /// Variable index.
        var: usize,
        /// Column name.
        column: String,
        /// Operator.
        op: CmpOp,
        /// Rendered literal (argument to the transform on the RHS).
        lit: String,
    },
    /// `$a/C1 eq $b/C2` — an equality join over a model edge.
    Join {
        /// Left variable index.
        lvar: usize,
        /// Left column.
        lcol: String,
        /// Right variable index.
        rvar: usize,
        /// Right column.
        rcol: String,
    },
    /// `exists(c:getX($v))` — existential semi-join.
    Exists {
        /// Variable index navigated from.
        var: usize,
        /// Source of the navigation function.
        source: usize,
        /// Navigation function local name.
        function: String,
    },
    /// `(A or B)` over two simple comparisons.
    Or(Box<Pred>, Box<Pred>),
}

/// One explicit `order by` key.
#[derive(Debug, Clone)]
pub struct OrderKey {
    /// Variable index.
    pub var: usize,
    /// Column name (always non-nullable).
    pub column: String,
    /// Render `descending`.
    pub descending: bool,
}

/// The clause between `where` and `return`.
#[derive(Debug, Clone)]
pub enum Tail {
    /// Neither ordering nor grouping (single-`for` queries only —
    /// scan/filter order is preserved by every configuration cell).
    None,
    /// `order by` with the user keys followed by primary-key
    /// totalizers for every bound variable (see module docs).
    OrderBy {
        /// All keys, totalizers included, in render order.
        keys: Vec<OrderKey>,
    },
    /// `group $v0 as $p by $v0/COL as $k order by $k` — single-`for`
    /// queries only; output order made total by ordering on the key.
    GroupBy {
        /// Group key column (non-nullable).
        column: String,
        /// Group by `fn:substring($v0/COL, 1, 4)` of a string column
        /// instead: a key SQL cannot compute, so the group runs in the
        /// middleware.
        substring: bool,
        /// Optionally also `sum()` this non-nullable integer column.
        agg_sum: Option<String>,
    },
}

/// One item of the constructed return element.
#[derive(Debug, Clone)]
pub enum RetItem {
    /// `$v/COL` — projects the column element.
    Field {
        /// Variable index.
        var: usize,
        /// Column name.
        column: String,
    },
    /// `if ($v/COL op lit) then $v/THEN else ()` — conditional
    /// construction.
    Cond {
        /// Variable index.
        var: usize,
        /// Tested column.
        column: String,
        /// Operator.
        op: CmpOp,
        /// Rendered literal.
        lit: String,
        /// Column projected when the test holds.
        then_column: String,
    },
    /// `count(c:getX($v))` — order-insensitive dependent aggregate.
    CountNav {
        /// Variable navigated from.
        var: usize,
        /// Source of the navigation function.
        source: usize,
        /// Navigation function local name.
        function: String,
    },
    /// `sum(for $w in c:getX($v) return $w/COL)` over a non-nullable
    /// integer column.
    SumNav {
        /// Variable navigated from.
        var: usize,
        /// Source of the navigation function.
        source: usize,
        /// Navigation function local name.
        function: String,
        /// Summed column.
        column: String,
    },
    /// `for $w in c:getX($v) order by $w/PK return $w/COL` — a
    /// correlated nested sequence, made order-total by its PK.
    NestedSeq {
        /// Variable navigated from.
        var: usize,
        /// Source of the navigation function.
        source: usize,
        /// Navigation function local name.
        function: String,
        /// Projected column.
        column: String,
        /// Single-column primary key used as the nested order key.
        order_col: String,
    },
}

/// A generated query: structure plus the seed that produced it.
#[derive(Debug, Clone)]
pub struct GenQuery {
    /// The seed [`generate`] was called with (0 after shrinking).
    pub seed: u64,
    /// `for` clauses; variable `$vI` is `fors[I]`.
    pub fors: Vec<ForClause>,
    /// `where` conjuncts.
    pub preds: Vec<Pred>,
    /// Order/group clause.
    pub tail: Tail,
    /// Return items (ignored when `tail` is `GroupBy`, which renders
    /// its own aggregate element).
    pub ret: Vec<RetItem>,
}

fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> &'a T {
    &xs[rng.gen_range(0..xs.len())]
}

/// Columns of `t` usable in literal comparisons: sampled Int/Str.
fn cmp_columns(t: &TableModel) -> Vec<&ColumnModel> {
    t.columns
        .iter()
        .filter(|c| !c.samples.is_empty() && matches!(c.ty, ColTy::Int | ColTy::Str))
        .collect()
}

/// Columns of `t` usable as order/group keys: non-nullable Int/Str.
fn key_columns(t: &TableModel) -> Vec<&ColumnModel> {
    t.columns
        .iter()
        .filter(|c| !c.nullable && matches!(c.ty, ColTy::Int | ColTy::Str))
        .collect()
}

/// Non-nullable integer columns of `t` (safe under `fn:sum`).
fn sum_columns(t: &TableModel) -> Vec<&ColumnModel> {
    t.columns
        .iter()
        .filter(|c| !c.nullable && c.ty == ColTy::Int)
        .collect()
}

/// Map `seed` to a query over `model`. Pure: the same seed and model
/// always produce the same query, on every platform (the PRNG is the
/// workspace's integer-only xoshiro256** shim).
pub fn generate(model: &CatalogModel, seed: u64) -> GenQuery {
    let mut rng = StdRng::seed_from_u64(seed);
    let rng = &mut rng;

    // --- for clauses ---------------------------------------------------
    let nf = *pick(rng, &[1usize, 1, 2, 2, 2, 3]);
    let mut fors: Vec<ForClause> = Vec::new();
    let mut preds: Vec<Pred> = Vec::new();
    let s0 = rng.gen_range(0..model.sources.len());
    let t0 = pick(rng, &model.sources[s0].tables).name.clone();
    fors.push(ForClause {
        source: s0,
        table: t0,
        access: Access::Scan,
    });
    while fors.len() < nf {
        // candidate navigations from already-bound variables
        let navs: Vec<(usize, usize, String, String)> = fors
            .iter()
            .enumerate()
            .flat_map(|(vi, f)| {
                model.sources[f.source]
                    .navs
                    .iter()
                    .filter(|n| n.from_table == f.table)
                    .map(move |n| (vi, f.source, n.function.clone(), n.to_table.clone()))
            })
            .collect();
        // candidate join edges touching an already-bound variable
        let mut edges: Vec<(usize, String, usize, String, String)> = Vec::new();
        for e in &model.edges {
            for (vi, f) in fors.iter().enumerate() {
                if e.left.0 == f.source && e.left.1 == f.table {
                    edges.push((
                        vi,
                        e.left.2.clone(),
                        e.right.0,
                        e.right.1.clone(),
                        e.right.2.clone(),
                    ));
                }
                if e.right.0 == f.source && e.right.1 == f.table {
                    edges.push((
                        vi,
                        e.right.2.clone(),
                        e.left.0,
                        e.left.1.clone(),
                        e.left.2.clone(),
                    ));
                }
            }
        }
        let roll = rng.gen_range(0..100u32);
        if roll < 55 && !navs.is_empty() {
            let (of, source, function, to_table) = pick(rng, &navs).clone();
            fors.push(ForClause {
                source,
                table: to_table,
                access: Access::Nav { function, of },
            });
        } else if roll < 90 && !edges.is_empty() {
            let (lvar, lcol, rsource, rtable, rcol) = pick(rng, &edges).clone();
            fors.push(ForClause {
                source: rsource,
                table: rtable,
                access: Access::Scan,
            });
            preds.push(Pred::Join {
                lvar,
                lcol,
                rvar: fors.len() - 1,
                rcol,
            });
        } else {
            // rare: an independent scan (small cartesian product)
            let s = rng.gen_range(0..model.sources.len());
            let t = pick(rng, &model.sources[s].tables).name.clone();
            fors.push(ForClause {
                source: s,
                table: t,
                access: Access::Scan,
            });
        }
    }

    // --- where conjuncts -----------------------------------------------
    let simple_cmp = |rng: &mut StdRng, fors: &[ForClause]| -> Option<Pred> {
        let candidates: Vec<(usize, &ForClause)> = fors
            .iter()
            .enumerate()
            .filter(|(_, f)| !cmp_columns(model.table(f.source, &f.table)).is_empty())
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let (var, f) = *pick(rng, &candidates);
        let cols = cmp_columns(model.table(f.source, &f.table));
        let col = pick(rng, &cols);
        Some(Pred::Cmp {
            var,
            column: col.name.clone(),
            op: *pick(rng, &CmpOp::ALL),
            lit: pick(rng, &col.samples).clone(),
        })
    };
    let npred = rng.gen_range(0..3usize);
    for _ in 0..npred {
        let roll = rng.gen_range(0..100u32);
        if roll < 15 && !model.transforms.is_empty() {
            // transformed-value predicate on a matching sampled column
            let tf = rng.gen_range(0..model.transforms.len());
            let want = model.transforms[tf].applies_to;
            let candidates: Vec<(usize, String, String)> = fors
                .iter()
                .enumerate()
                .flat_map(|(vi, f)| {
                    model
                        .table(f.source, &f.table)
                        .columns
                        .iter()
                        .filter(|c| c.ty == want && !c.samples.is_empty())
                        .map(move |c| (vi, c.name.clone(), c.samples.clone()))
                })
                .map(|(vi, name, samples)| {
                    let lit = samples[0].clone();
                    (vi, name, lit)
                })
                .collect();
            if !candidates.is_empty() {
                let (var, column, lit) = pick(rng, &candidates).clone();
                preds.push(Pred::Transform {
                    tf,
                    var,
                    column,
                    op: *pick(rng, &[CmpOp::Gt, CmpOp::Le, CmpOp::Eq]),
                    lit,
                });
                continue;
            }
        }
        if roll < 30 {
            // existential semi-join from a variable that has navigations
            let navs: Vec<(usize, usize, String)> = fors
                .iter()
                .enumerate()
                .flat_map(|(vi, f)| {
                    model.sources[f.source]
                        .navs
                        .iter()
                        .filter(|n| n.from_table == f.table)
                        .map(move |n| (vi, f.source, n.function.clone()))
                })
                .collect();
            if !navs.is_empty() {
                let (var, source, function) = pick(rng, &navs).clone();
                preds.push(Pred::Exists {
                    var,
                    source,
                    function,
                });
                continue;
            }
        }
        if roll < 42 {
            if let (Some(a), Some(b)) = (simple_cmp(rng, &fors), simple_cmp(rng, &fors)) {
                preds.push(Pred::Or(Box::new(a), Box::new(b)));
                continue;
            }
        }
        if let Some(p) = simple_cmp(rng, &fors) {
            preds.push(p);
        }
    }

    // --- tail ----------------------------------------------------------
    let groupable = fors.len() == 1 && {
        let f = &fors[0];
        !key_columns(model.table(f.source, &f.table)).is_empty()
    };
    let tail = if fors.len() == 1 {
        match rng.gen_range(0..100u32) {
            r if r < 25 && groupable => {
                let f = &fors[0];
                let t = model.table(f.source, &f.table);
                let keys = key_columns(t);
                let sums = sum_columns(t);
                let key = pick(rng, &keys);
                // weighted toward a middleware group that is only
                // counted (a `fn:substring` key, no `sum`): seeds 0–49
                // render five, so the tier-1 smoke runs that path
                let agg_sum = if !sums.is_empty() && rng.gen_bool(0.25) {
                    Some(pick(rng, &sums).name.clone())
                } else {
                    None
                };
                Tail::GroupBy {
                    column: key.name.clone(),
                    substring: key.ty == ColTy::Str && rng.gen_bool(0.9),
                    agg_sum,
                }
            }
            r if r < 65 => order_by(rng, model, &fors),
            _ => Tail::None,
        }
    } else {
        // multi-for: total order is mandatory (see module docs)
        order_by(rng, model, &fors)
    };

    // --- return --------------------------------------------------------
    let ret = if matches!(tail, Tail::GroupBy { .. }) {
        Vec::new()
    } else {
        let mut items = Vec::new();
        let n = rng.gen_range(1..4usize);
        for _ in 0..n {
            items.push(ret_item(rng, model, &fors));
        }
        items
    };

    GenQuery {
        seed,
        fors,
        preds,
        tail,
        ret,
    }
}

/// User-chosen keys plus every variable's primary-key totalizers.
fn order_by(rng: &mut StdRng, model: &CatalogModel, fors: &[ForClause]) -> Tail {
    let mut keys: Vec<OrderKey> = Vec::new();
    let nuser = rng.gen_range(0..3usize);
    for _ in 0..nuser {
        let var = rng.gen_range(0..fors.len());
        let f = &fors[var];
        let cols = key_columns(model.table(f.source, &f.table));
        if cols.is_empty() {
            continue;
        }
        let col = pick(rng, &cols).name.clone();
        if keys.iter().any(|k| k.var == var && k.column == col) {
            continue;
        }
        keys.push(OrderKey {
            var,
            column: col,
            descending: rng.gen_bool(0.25),
        });
    }
    for (var, f) in fors.iter().enumerate() {
        for pk in &model.table(f.source, &f.table).primary_key {
            if !keys.iter().any(|k| k.var == var && &k.column == pk) {
                keys.push(OrderKey {
                    var,
                    column: pk.clone(),
                    descending: false,
                });
            }
        }
    }
    Tail::OrderBy { keys }
}

fn ret_item(rng: &mut StdRng, model: &CatalogModel, fors: &[ForClause]) -> RetItem {
    let navs: Vec<(usize, usize, String, String)> = fors
        .iter()
        .enumerate()
        .flat_map(|(vi, f)| {
            model.sources[f.source]
                .navs
                .iter()
                .filter(|n| n.from_table == f.table)
                .map(move |n| (vi, f.source, n.function.clone(), n.to_table.clone()))
        })
        .collect();
    let roll = rng.gen_range(0..100u32);
    if roll >= 50 {
        // conditional construction
        if roll < 70 {
            let candidates: Vec<(usize, &ForClause)> = fors
                .iter()
                .enumerate()
                .filter(|(_, f)| !cmp_columns(model.table(f.source, &f.table)).is_empty())
                .collect();
            if !candidates.is_empty() {
                let (var, f) = *pick(rng, &candidates);
                let t = model.table(f.source, &f.table);
                let cols = cmp_columns(t);
                let col = pick(rng, &cols);
                let then = pick(rng, &t.columns);
                return RetItem::Cond {
                    var,
                    column: col.name.clone(),
                    op: *pick(rng, &[CmpOp::Eq, CmpOp::Ne, CmpOp::Ge]),
                    lit: pick(rng, &col.samples).clone(),
                    then_column: then.name.clone(),
                };
            }
        } else if !navs.is_empty() {
            let (var, source, function, to_table) = pick(rng, &navs).clone();
            let target = model.table(source, &to_table);
            let sums = sum_columns(target);
            if roll < 80 {
                return RetItem::CountNav {
                    var,
                    source,
                    function,
                };
            }
            if roll < 90 && !sums.is_empty() {
                return RetItem::SumNav {
                    var,
                    source,
                    function,
                    column: sums[0].name.clone(),
                };
            }
            if target.primary_key.len() == 1 {
                return RetItem::NestedSeq {
                    var,
                    source,
                    function,
                    column: pick(rng, &target.columns).name.clone(),
                    order_col: target.primary_key[0].clone(),
                };
            }
        }
    }
    let var = rng.gen_range(0..fors.len());
    let f = &fors[var];
    let col = pick(rng, &model.table(f.source, &f.table).columns);
    RetItem::Field {
        var,
        column: col.name.clone(),
    }
}

impl GenQuery {
    /// Render to query text (prolog included).
    pub fn render(&self, model: &CatalogModel) -> String {
        let mut q = model.prolog();
        for (i, f) in self.fors.iter().enumerate() {
            let pfx = &model.sources[f.source].prefix;
            match &f.access {
                Access::Scan => {
                    q.push_str(&format!("for $v{i} in {pfx}:{}()\n", f.table));
                }
                Access::Nav { function, of } => {
                    q.push_str(&format!("for $v{i} in {pfx}:{function}($v{of})\n"));
                }
            }
        }
        if !self.preds.is_empty() {
            let conj: Vec<String> = self.preds.iter().map(|p| self.pred(model, p)).collect();
            q.push_str(&format!("where {}\n", conj.join(" and ")));
        }
        match &self.tail {
            Tail::None => {}
            Tail::OrderBy { keys } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| {
                        format!(
                            "$v{}/{}{}",
                            k.var,
                            k.column,
                            if k.descending { " descending" } else { "" }
                        )
                    })
                    .collect();
                q.push_str(&format!("order by {}\n", ks.join(", ")));
            }
            Tail::GroupBy {
                column,
                substring,
                agg_sum,
            } => {
                let key = if *substring {
                    format!("fn:substring($v0/{column}, 1, 4)")
                } else {
                    format!("$v0/{column}")
                };
                q.push_str(&format!("group $v0 as $p by {key} as $k\n"));
                q.push_str("order by $k\n");
                let mut body = String::from("<g><k>{ $k }</k><c>{ count($p) }</c>");
                if let Some(s) = agg_sum {
                    body.push_str(&format!("<s>{{ sum(for $x in $p return $x/{s}) }}</s>"));
                }
                body.push_str("</g>");
                q.push_str(&format!("return {body}\n"));
                return q;
            }
        }
        let mut body = String::from("<r>");
        for (j, item) in self.ret.iter().enumerate() {
            body.push_str(&format!(
                "<f{j}>{{ {} }}</f{j}>",
                self.ret_expr(model, item, j)
            ));
        }
        body.push_str("</r>");
        q.push_str(&format!("return {body}\n"));
        q
    }

    fn pred(&self, model: &CatalogModel, p: &Pred) -> String {
        match p {
            Pred::Cmp {
                var,
                column,
                op,
                lit,
            } => format!("$v{var}/{column} {} {lit}", op.render()),
            Pred::Transform {
                tf,
                var,
                column,
                op,
                lit,
            } => {
                let t = &model.transforms[*tf];
                format!(
                    "{p}:{f}($v{var}/{column}) {op} {p}:{f}({lit})",
                    p = t.prefix,
                    f = t.function,
                    op = op.render()
                )
            }
            Pred::Join {
                lvar,
                lcol,
                rvar,
                rcol,
            } => format!("$v{lvar}/{lcol} eq $v{rvar}/{rcol}"),
            Pred::Exists {
                var,
                source,
                function,
            } => format!(
                "exists({}:{function}($v{var}))",
                model.sources[*source].prefix
            ),
            Pred::Or(a, b) => format!("({} or {})", self.pred(model, a), self.pred(model, b)),
        }
    }

    fn ret_expr(&self, model: &CatalogModel, item: &RetItem, j: usize) -> String {
        match item {
            RetItem::Field { var, column } => format!("$v{var}/{column}"),
            RetItem::Cond {
                var,
                column,
                op,
                lit,
                then_column,
            } => format!(
                "if ($v{var}/{column} {} {lit}) then $v{var}/{then_column} else ()",
                op.render()
            ),
            RetItem::CountNav {
                var,
                source,
                function,
            } => format!(
                "count({}:{function}($v{var}))",
                model.sources[*source].prefix
            ),
            RetItem::SumNav {
                var,
                source,
                function,
                column,
            } => format!(
                "sum(for $w{j} in {}:{function}($v{var}) return $w{j}/{column})",
                model.sources[*source].prefix
            ),
            RetItem::NestedSeq {
                var,
                source,
                function,
                column,
                order_col,
            } => format!(
                "for $w{j} in {}:{function}($v{var}) order by $w{j}/{order_col} return $w{j}/{column}",
                model.sources[*source].prefix
            ),
        }
    }
}
