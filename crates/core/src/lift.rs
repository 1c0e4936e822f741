//! Literal lifting: a query text as (shape, literal environment).
//!
//! Ad-hoc texts that differ only in the constants they compare against
//! or pass to data-service functions compile to plans that differ only
//! in those constants. [`lift`] rewrites a parsed module so that such
//! literals become references to synthetic external variables
//! (`$?0`, `$?1`, … — [`LIFTED_PREFIX`], a name no text can spell),
//! typed exactly as the literal was, and returns the *shape key* under
//! which the plan cache shares one plan between all those texts,
//! together with the literal values to bind when it runs.
//!
//! Only literals in positions where a SQL parameter plans exactly like
//! a constant are lifted: a direct operand of a comparison, and a
//! direct argument of a call to a user or physical function. Every
//! other literal — positional predicates, arguments of built-ins
//! (`fn:subsequence` bounds become `ROWNUM` ranges), ranges, arithmetic,
//! constructor content, anything inside a prolog function body — stays
//! a constant of the shape, so two texts that differ there have
//! different keys. What the whitelist cannot see (a lifted argument
//! reaching a `fn:subsequence` bound through view unfolding, two
//! equality filters that prune or collapse depending on their values)
//! the compiler reports as `Compiled::ValueDependent`.

use aldsp_compiler::translate::{call_target, CallTarget, ModuleEnv};
use aldsp_compiler::LIFTED_PREFIX;
use aldsp_parser::ast::{
    Clause, Expr, ExprKind, ItemTypeAst, Module, Name, Occurrence, SeqTypeAst, Span, VarDecl,
};
use aldsp_xdm::value::{AtomicType, AtomicValue};

/// Stands where a lifted literal stood in a shape key, followed by one
/// letter for the literal's type. A text that already holds this byte
/// is not lifted, so a key reads back unambiguously: two texts share a
/// key only when they differ in nothing but the values of their lifted
/// literals.
const HOLE: char = '\u{2}';

/// A liftable literal type: `(type, key letter, unprefixed xs name)`.
type Liftable = (AtomicType, char, &'static str);

static LIFTABLE: [Liftable; 4] = [
    (AtomicType::String, 's', "string"),
    (AtomicType::Integer, 'i', "integer"),
    (AtomicType::Decimal, 'd', "decimal"),
    (AtomicType::Double, 'e', "double"),
];

/// A lifted text.
pub(crate) struct Lifted {
    /// The source with each lifted literal replaced by [`HOLE`] and its
    /// type letter.
    pub shape: String,
    /// The lifted literals in variable order: `values[i]` binds `$?i`.
    pub values: Vec<AtomicValue>,
}

/// Lift the whitelisted literals of `module` (parsed from `source`) in
/// place. `None` — and `module` untouched — when the text cannot be
/// keyed.
pub(crate) fn lift(source: &str, module: &mut Module) -> Option<Lifted> {
    if source.contains(HOLE) {
        return None;
    }
    let mut lifter = Lifter {
        env: ModuleEnv::of(module),
        local_ns: Vec::new(),
        found: Vec::new(),
    };
    lifter.expr(module.body.as_mut()?);
    let found = lifter.found;
    // the key replaces spans front to back; variables are numbered in
    // traversal order, which need not be
    let mut by_position: Vec<&(Span, &Liftable, AtomicValue)> = found.iter().collect();
    by_position.sort_by_key(|(span, ..)| span.start);
    let mut shape = String::with_capacity(source.len());
    let mut at = 0;
    for (span, (_, letter, _), _) in by_position {
        shape.push_str(&source[at..span.start as usize]);
        shape.push(HOLE);
        shape.push(*letter);
        at = span.end as usize;
    }
    shape.push_str(&source[at..]);
    let mut values = Vec::with_capacity(found.len());
    for (i, (_, (_, _, xs_name), value)) in found.into_iter().enumerate() {
        module.variables.push(VarDecl {
            name: format!("{LIFTED_PREFIX}{i}"),
            ty: Some(SeqTypeAst {
                item: ItemTypeAst::Atomic(Name::local(xs_name)),
                occ: Occurrence::One,
            }),
        });
        values.push(value);
    }
    Some(Lifted { shape, values })
}

struct Lifter {
    env: ModuleEnv,
    /// Namespace declarations of the enclosing direct constructors,
    /// innermost last.
    local_ns: Vec<(String, String)>,
    /// `(where it stood, its type, value)` per lifted literal; entry
    /// `i` became `$?i`.
    found: Vec<(Span, &'static Liftable, AtomicValue)>,
}

impl Lifter {
    /// A whitelisted position: lift `e` if it is a literal of a
    /// liftable type, else look inside it.
    fn operand(&mut self, e: &mut Expr) {
        let liftable = match &e.kind {
            ExprKind::Literal(v) => LIFTABLE.iter().find(|(t, ..)| *t == v.type_of()),
            _ => None,
        };
        let Some(liftable) = liftable else {
            return self.expr(e);
        };
        let var = ExprKind::VarRef(format!("{LIFTED_PREFIX}{}", self.found.len()));
        let ExprKind::Literal(value) = std::mem::replace(&mut e.kind, var) else {
            unreachable!("matched a literal above");
        };
        self.found.push((e.span, liftable, value));
    }

    /// Does this call go to a user or physical function (not a
    /// built-in, whose arguments may decide the plan)?
    fn calls_function(&self, name: &Name, arity: usize) -> bool {
        let uri = match &name.prefix {
            None => None,
            Some(p) => {
                let local = self.local_ns.iter().rev().find(|(q, _)| q == p);
                match local
                    .map(|(_, u)| u.as_str())
                    .or(self.env.namespaces.resolve(p))
                {
                    Some(u) => Some(u),
                    // unbound prefix: the compile will say so
                    None => return false,
                }
            }
        };
        call_target(uri, &name.local, arity) == CallTarget::Function
    }

    fn exprs(&mut self, es: &mut [Expr]) {
        es.iter_mut().for_each(|e| self.expr(e));
    }

    fn expr(&mut self, e: &mut Expr) {
        match &mut e.kind {
            ExprKind::Comparison { lhs, rhs, .. } => {
                self.operand(lhs);
                self.operand(rhs);
            }
            ExprKind::Call { name, args } => {
                if self.calls_function(name, args.len()) {
                    args.iter_mut().for_each(|a| self.operand(a));
                } else {
                    self.exprs(args);
                }
            }
            ExprKind::Literal(_) | ExprKind::VarRef(_) | ExprKind::ContextItem => {}
            ExprKind::Sequence(items) | ExprKind::Error(items) => self.exprs(items),
            ExprKind::Range(a, b)
            | ExprKind::Or(a, b)
            | ExprKind::And(a, b)
            | ExprKind::Arith { lhs: a, rhs: b, .. } => {
                self.expr(a);
                self.expr(b);
            }
            ExprKind::Flwor { clauses, ret } => {
                for c in clauses {
                    match c {
                        Clause::For { source: e, .. }
                        | Clause::Let { value: e, .. }
                        | Clause::Where(e) => self.expr(e),
                        Clause::GroupBy { keys, .. } => {
                            keys.iter_mut().for_each(|k| self.expr(&mut k.expr))
                        }
                        Clause::OrderBy(specs) => {
                            specs.iter_mut().for_each(|s| self.expr(&mut s.expr))
                        }
                    }
                }
                self.expr(ret);
            }
            ExprKind::If { cond, then, els } => {
                self.expr(cond);
                self.expr(then);
                self.expr(els);
            }
            ExprKind::Quantified {
                bindings,
                satisfies,
                ..
            } => {
                bindings.iter_mut().for_each(|(_, e)| self.expr(e));
                self.expr(satisfies);
            }
            ExprKind::Typeswitch {
                operand,
                cases,
                default,
                ..
            } => {
                self.expr(operand);
                cases.iter_mut().for_each(|c| self.expr(&mut c.body));
                self.expr(default);
            }
            ExprKind::Neg(inner)
            | ExprKind::InstanceOf(inner, _)
            | ExprKind::CastAs(inner, _)
            | ExprKind::CastableAs(inner, _)
            | ExprKind::TreatAs(inner, _) => self.expr(inner),
            ExprKind::Path { start, steps } => {
                self.expr(start);
                for s in steps {
                    self.exprs(&mut s.predicates);
                }
            }
            ExprKind::Filter { base, predicates } => {
                self.expr(base);
                self.exprs(predicates);
            }
            ExprKind::DirectElement {
                attributes,
                content,
                namespaces,
                ..
            } => {
                let outer = self.local_ns.len();
                self.local_ns.extend(namespaces.iter().cloned());
                for a in attributes {
                    self.exprs(&mut a.value);
                }
                self.exprs(content);
                self.local_ns.truncate(outer);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aldsp_parser::parse_module_strict;

    const PROLOG: &str = "declare namespace c = \"urn:custDS\";\n";

    fn lifted(body: &str) -> (Module, Lifted) {
        let src = format!("{PROLOG}{body}");
        let mut m = parse_module_strict(&src).expect("parses");
        let l = lift(&src, &mut m).expect("liftable");
        (m, l)
    }

    fn key(body: &str) -> String {
        lifted(body).1.shape
    }

    #[test]
    fn comparison_operands_and_function_arguments_are_lifted() {
        let (m, l) = lifted(
            "for $x in c:CUSTOMER() where $x/CID eq \"C1\" and 7 lt $x/SINCE \
             return c:f($x, 2.5, 1e3)",
        );
        assert_eq!(
            l.values,
            vec![
                AtomicValue::str("C1"),
                AtomicValue::Integer(7),
                AtomicValue::Decimal(aldsp_xdm::value::Decimal::parse("2.5").unwrap()),
                AtomicValue::Double(1000.0),
            ]
        );
        assert!(
            l.shape.contains("$x/CID eq \u{2}s and \u{2}i lt $x/SINCE"),
            "{}",
            l.shape
        );
        assert!(l.shape.contains("c:f($x, \u{2}d, \u{2}e)"), "{}", l.shape);
        let names: Vec<&str> = m.variables.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["?0", "?1", "?2", "?3"]);
        assert_eq!(
            m.variables[1].ty.as_ref().unwrap().item,
            ItemTypeAst::Atomic(Name::local("integer"))
        );
    }

    /// Every excluded position keeps its literal (so the key holds it
    /// verbatim and the values stay empty).
    #[test]
    fn excluded_positions_stay_constants() {
        for body in [
            "c:CUSTOMER()[3]",
            "fn:subsequence(c:CUSTOMER(), 2, 5)",
            "for $x in c:CUSTOMER() return fn:substring($x/CID, 2, 3)",
            "1 to 5",
            "for $x in c:CUSTOMER() return $x/SINCE + 1",
            "<A b=\"lit\">text{ 5 }</A>",
            "-5",
            "xs:integer(\"5\")",
            "fn:data(5)",
            "declare function c:g() { c:CUSTOMER()[CID eq \"A\"] }; c:g()",
        ] {
            let (m, l) = lifted(body);
            assert!(l.values.is_empty(), "{body}: {:?}", l.values);
            assert!(m.variables.is_empty(), "{body}");
            assert_eq!(l.shape, format!("{PROLOG}{body}"));
        }
    }

    #[test]
    fn keys_separate_what_plans_differently_and_share_the_rest() {
        let point = |v: &str| key(&format!("c:CUSTOMER()[CID eq {v}]"));
        assert_eq!(point("\"A\""), point("\"B&amp;C\""));
        // same position, another type
        assert_ne!(point("\"a\""), point("5"));
        assert_ne!(point("5"), point("5.0"));
        // an excluded literal is part of the shape
        let page = |n: u32| {
            key(&format!(
                "fn:subsequence(c:CUSTOMER()[CID ge \"A\"], 1, {n})"
            ))
        };
        assert_ne!(page(10), page(20));
        assert_eq!(page(10), page(10));
    }

    #[test]
    fn a_text_holding_the_placeholder_byte_is_not_lifted() {
        let src = format!("{PROLOG}c:CUSTOMER()[CID eq \"\u{2}s\"]");
        let mut m = parse_module_strict(&src).expect("parses");
        assert!(lift(&src, &mut m).is_none());
        assert!(m.variables.is_empty());
    }

    #[test]
    fn constructor_namespaces_decide_what_a_prefix_calls() {
        // `f:count` is the built-in inside the constructor that binds
        // `f` to the fn namespace, a user function outside it
        let fn_ns = aldsp_xdm::qname::ns::FN;
        let (_, l) = lifted(&format!(
            "declare namespace f = \"urn:mine\"; \
             (f:count(1), <A xmlns:f=\"{fn_ns}\">{{ f:count(2) }}</A>)"
        ));
        assert_eq!(l.values, vec![AtomicValue::Integer(1)]);
    }
}
