//! Greedy structural shrinking of failing queries.
//!
//! Given a failing [`GenQuery`] and a predicate that re-runs the
//! oracle, [`shrink`] repeatedly tries structure-removing candidates
//! (drop a return item, drop a predicate, simplify a disjunction or
//! conditional, drop the trailing `for`, simplify the tail) and keeps
//! the first candidate that still fails, until no candidate fails.
//! The result is a local minimum: removing any single piece makes the
//! bug disappear — which is exactly what a human wants to read in a
//! failure report.

use crate::gen::{Access, GenQuery, Pred, RetItem, Tail};
use crate::model::CatalogModel;

/// One-step-smaller variants of `q`, most-aggressive first.
fn candidates(model: &CatalogModel, q: &GenQuery) -> Vec<GenQuery> {
    let mut out = Vec::new();

    // drop the trailing for (nothing can reference a later variable),
    // with everything mentioning it
    if q.fors.len() > 1 {
        let last = q.fors.len() - 1;
        let mut c = q.clone();
        c.fors.pop();
        c.preds.retain(|p| !pred_uses(p, last));
        c.ret.retain(|r| !ret_uses(r, last));
        if let Tail::OrderBy { keys } = &mut c.tail {
            keys.retain(|k| k.var != last);
        }
        if c.ret.is_empty() && !matches!(c.tail, Tail::GroupBy { .. }) {
            c.ret.push(RetItem::Field {
                var: 0,
                column: any_column(model, &c, 0),
            });
        }
        out.push(c);
    }

    // drop each predicate (skip Join preds while both sides are still
    // bound — dropping one turns a join into a cartesian product,
    // which grows the query instead of shrinking it)
    for i in 0..q.preds.len() {
        if matches!(q.preds[i], Pred::Join { .. }) {
            continue;
        }
        let mut c = q.clone();
        c.preds.remove(i);
        out.push(c);
    }

    // simplify a disjunction to its left arm
    for i in 0..q.preds.len() {
        if let Pred::Or(a, _) = &q.preds[i] {
            let mut c = q.clone();
            c.preds[i] = (**a).clone();
            out.push(c);
        }
    }

    // drop each return item (keep at least one)
    if q.ret.len() > 1 {
        for i in 0..q.ret.len() {
            let mut c = q.clone();
            c.ret.remove(i);
            out.push(c);
        }
    }

    // replace a compound return item with a plain field
    for i in 0..q.ret.len() {
        let var = match &q.ret[i] {
            RetItem::Field { .. } => continue,
            RetItem::Cond { var, .. }
            | RetItem::CountNav { var, .. }
            | RetItem::SumNav { var, .. }
            | RetItem::NestedSeq { var, .. } => *var,
        };
        let mut c = q.clone();
        c.ret[i] = RetItem::Field {
            var,
            column: any_column(model, q, var),
        };
        out.push(c);
    }

    // simplify the tail
    match &q.tail {
        Tail::GroupBy {
            agg_sum: Some(_),
            column,
            substring,
        } => {
            let mut c = q.clone();
            c.tail = Tail::GroupBy {
                column: column.clone(),
                substring: *substring,
                agg_sum: None,
            };
            out.push(c);
        }
        Tail::OrderBy { .. } if q.fors.len() == 1 => {
            // single-for order-by can be dropped entirely
            let mut c = q.clone();
            c.tail = Tail::None;
            out.push(c);
        }
        Tail::OrderBy { keys } => {
            // multi-for: PK totalizers must stay (they carry the total
            // order the oracle depends on); try dropping user keys
            for i in 0..keys.len() {
                let k = &keys[i];
                if is_pk_key(model, q, k.var, &k.column) {
                    continue;
                }
                let mut ks = keys.clone();
                ks.remove(i);
                let mut c = q.clone();
                c.tail = Tail::OrderBy { keys: ks };
                out.push(c);
            }
        }
        _ => {}
    }

    out
}

fn pred_uses(p: &Pred, var: usize) -> bool {
    match p {
        Pred::Cmp { var: v, .. } | Pred::Transform { var: v, .. } | Pred::Exists { var: v, .. } => {
            *v == var
        }
        Pred::Join { lvar, rvar, .. } => *lvar == var || *rvar == var,
        Pred::Or(a, b) => pred_uses(a, var) || pred_uses(b, var),
    }
}

fn ret_uses(r: &RetItem, var: usize) -> bool {
    match r {
        RetItem::Field { var: v, .. }
        | RetItem::Cond { var: v, .. }
        | RetItem::CountNav { var: v, .. }
        | RetItem::SumNav { var: v, .. }
        | RetItem::NestedSeq { var: v, .. } => *v == var,
    }
}

/// Candidates that dropped a `for` another `for` navigates from are
/// discarded — no dangling `Nav.of` references reach the renderer.
fn well_formed(q: &GenQuery) -> bool {
    q.fors.iter().enumerate().all(|(i, f)| match &f.access {
        Access::Scan => true,
        Access::Nav { of, .. } => *of < i,
    })
}

/// A replacement projection column for `var`: its PK head if the
/// table has one, else its first column.
fn any_column(model: &CatalogModel, q: &GenQuery, var: usize) -> String {
    let f = &q.fors[var];
    let t = model.table(f.source, &f.table);
    t.primary_key
        .first()
        .cloned()
        .unwrap_or_else(|| t.columns[0].name.clone())
}

fn is_pk_key(model: &CatalogModel, q: &GenQuery, var: usize, column: &str) -> bool {
    let f = &q.fors[var];
    model
        .table(f.source, &f.table)
        .primary_key
        .iter()
        .any(|pk| pk == column)
}

/// Shrink `q` while `still_fails` holds. `still_fails` is called on
/// each candidate; it should render the candidate against the model
/// and re-run the oracle, returning `true` when the failure persists.
pub fn shrink(
    model: &CatalogModel,
    q: &GenQuery,
    mut still_fails: impl FnMut(&GenQuery) -> bool,
) -> GenQuery {
    let mut cur = q.clone();
    loop {
        let mut advanced = false;
        for cand in candidates(model, &cur) {
            if !well_formed(&cand) {
                continue;
            }
            if still_fails(&cand) {
                cur = cand;
                advanced = true;
                break;
            }
        }
        if !advanced {
            return cur;
        }
    }
}
