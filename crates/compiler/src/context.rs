//! Compilation context: namespaces, function environment, diagnostics.

use crate::compile::Options;
use crate::ir::CExpr;
use aldsp_metadata::Registry;
use aldsp_parser::ast::Span;
use aldsp_parser::Diagnostic;
use aldsp_relational::Dialect;
use aldsp_xdm::types::SequenceType;
use aldsp_xdm::QName;
use std::collections::HashMap;

/// Compilation mode, mirroring the parser's (§4.1): fail-fast at runtime,
/// recover-and-collect at design time.
pub use aldsp_parser::Mode;

/// A user-defined XQuery function after translation: resolved signature
/// plus normalized body (parameters appear as free variables named by
/// `params`).
#[derive(Debug, Clone)]
pub struct UserFunction {
    /// The function's qualified name.
    pub name: QName,
    /// `(unique parameter variable, declared type)` pairs.
    pub params: Vec<(String, SequenceType)>,
    /// Declared (or inferred) return type.
    pub return_type: SequenceType,
    /// The normalized body; `None` when the body failed analysis — the
    /// signature stays usable for checking callers (§4.1).
    pub body: Option<CExpr>,
    /// Pragma attributes from the declaration (§3.2).
    pub pragmas: Vec<(String, String)>,
}

/// Inverse-function registrations (§4.4): `date2int` declared as the
/// inverse of `int2date`, plus transformation rules
/// `(op, f) → rewrite using f⁻¹`.
#[derive(Debug, Clone, Default)]
pub struct InverseRegistry {
    inverses: HashMap<QName, QName>,
}

impl InverseRegistry {
    /// Declare `inverse` as the inverse of `f`. The registration asserts
    /// (as the paper's rule registration does) that `f` is injective and
    /// order-preserving, so `f(x) op y ≡ x op f⁻¹(y)` for the comparison
    /// operators.
    pub fn declare(&mut self, f: QName, inverse: QName) {
        self.inverses.insert(f, inverse);
    }

    /// The declared inverse of `f`, if any.
    pub fn inverse_of(&self, f: &QName) -> Option<&QName> {
        self.inverses.get(f)
    }

    /// Number of registrations.
    pub fn len(&self) -> usize {
        self.inverses.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.inverses.is_empty()
    }
}

/// Name prefix of the synthetic external variables that stand for
/// literals lifted out of a query text (`?0`, `?1`, … in source order).
/// No query text can spell it — `$?` does not lex — so a variable with
/// this prefix is known to be bound by the server to a value of exactly
/// its declared type.
pub const LIFTED_PREFIX: &str = "?";

/// The shared compilation context.
pub struct Context<'r> {
    /// Source metadata (physical functions, schemas).
    pub registry: &'r Registry,
    /// The compiler's knobs (mode, dialects, PP-k, pushdown level,
    /// join strategy): declared and defaulted once, in [`Options`].
    pub options: &'r Options,
    /// Collected diagnostics.
    pub diags: Vec<Diagnostic>,
    /// Translated user functions by name.
    pub functions: HashMap<QName, UserFunction>,
    /// Inverse-function registrations.
    pub inverses: InverseRegistry,
    /// The plan's external variables (call arguments `arg0…`, declared
    /// externals, lifted literals), set by `Compiler::finish` before
    /// the first pass — what [`Context::is_query_const`] tests against.
    pub externals: Vec<String>,
    /// Set by a pass that meets a lifted literal (an external named
    /// with [`LIFTED_PREFIX`]) where its *value* would decide the plan:
    /// the compile is abandoned and the text is compiled with its
    /// literals in place instead.
    pub value_dependent: bool,
    var_counter: u32,
}

impl<'r> Context<'r> {
    /// A fresh context over the given metadata registry.
    pub fn new(registry: &'r Registry, options: &'r Options) -> Context<'r> {
        Context {
            registry,
            options,
            diags: Vec::new(),
            functions: HashMap::new(),
            inverses: InverseRegistry::default(),
            externals: Vec::new(),
            value_dependent: false,
            var_counter: 0,
        }
    }

    /// Does `e` read nothing but the plan's external variables? Such an
    /// expression has one value for the whole execution, so a SQL
    /// parameter carrying it does not correlate its statement to the
    /// enclosing tuple stream.
    pub fn is_query_const(&self, e: &CExpr) -> bool {
        e.free_vars().iter().all(|v| self.externals.contains(v))
    }

    /// Is some parameter of a statement tuple-dependent (not
    /// query-constant)?
    pub fn correlated(&self, params: &[CExpr]) -> bool {
        !params.iter().all(|p| self.is_query_const(p))
    }

    /// The SQL dialect of a connection (§4.3: "SQL syntax generation
    /// during pushdown is done in a vendor/version-dependent manner");
    /// unregistered connections get the conservative base SQL92.
    pub fn dialect_of(&self, connection: &str) -> Dialect {
        self.options
            .dialects
            .get(connection)
            .copied()
            .unwrap_or(Dialect::Sql92)
    }

    /// Generate a fresh unique variable name derived from `base`.
    pub fn fresh(&mut self, base: &str) -> String {
        self.var_counter += 1;
        format!("{base}__{}", self.var_counter)
    }

    /// Record a diagnostic.
    pub fn diag(&mut self, span: Span, message: impl Into<String>) {
        self.diags.push(Diagnostic {
            span,
            message: message.into(),
        });
    }

    /// Did compilation produce any errors?
    pub fn has_errors(&self) -> bool {
        !self.diags.is_empty()
    }
}
