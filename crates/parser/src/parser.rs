//! The recursive-descent XQuery parser with error recovery (§4.1).
//!
//! The parser has the two modes the paper describes: **fail-fast** for
//! runtime query compilation (stop at the first error) and **recover**
//! for design-time use by the graphical XQuery editor: on a syntax error
//! inside a prolog declaration it records a diagnostic, skips to the next
//! `;`, and keeps going, so one compilation pass surfaces as many errors
//! as possible. Error-free signatures of functions with broken bodies are
//! retained so uses of those functions can still be checked.

use crate::ast::*;
use crate::lexer::{decode_refs, is_name_start, Scanner, Tok};
use aldsp_xdm::item::CompOp;
use aldsp_xdm::value::{ArithOp, AtomicValue, Decimal};

/// A parser or analysis diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Where in the source.
    pub span: Span,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}..{}] {}",
            self.span.start, self.span.end, self.message
        )
    }
}

impl std::error::Error for Diagnostic {}

/// Compilation mode (§4.1): fail on first error at runtime, recover and
/// collect as many errors as possible at design time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Stop at the first error (runtime query compilation).
    FailFast,
    /// Recover per-declaration and collect diagnostics (XQuery editor).
    Recover,
}

/// Parse a whole module in [`Mode::Recover`], returning the (partial)
/// module plus all diagnostics.
pub fn parse_module(src: &str) -> (Module, Vec<Diagnostic>) {
    let mut p = Parser::new(src, Mode::Recover);
    let m = p.module();
    (m, p.diags)
}

/// Parse a whole module in [`Mode::FailFast`].
pub fn parse_module_strict(src: &str) -> Result<Module, Diagnostic> {
    let mut p = Parser::new(src, Mode::FailFast);
    let m = p.module();
    match p.diags.into_iter().next() {
        Some(d) => Err(d),
        None => Ok(m),
    }
}

/// Parse a standalone expression (an ad-hoc query body).
pub fn parse_expr(src: &str) -> Result<Expr, Diagnostic> {
    let mut p = Parser::new(src, Mode::FailFast);
    let e = p.expr().map_err(|d| d.clone_first(&p.diags))?;
    if let Err(d) = p.expect_eof() {
        return Err(d.clone_first(&p.diags));
    }
    match p.diags.into_iter().next() {
        Some(d) => Err(d),
        None => Ok(e),
    }
}

/// Internal error marker: the diagnostic has already been pushed.
struct Fail;

impl Fail {
    fn clone_first(&self, diags: &[Diagnostic]) -> Diagnostic {
        diags.first().cloned().unwrap_or_else(|| Diagnostic {
            span: Span::default(),
            message: "parse error".into(),
        })
    }
}

type PResult<T> = Result<T, Fail>;

struct Parser<'a> {
    s: Scanner<'a>,
    mode: Mode,
    diags: Vec<Diagnostic>,
    pending_pragmas: Vec<Pragma>,
    ahead: Option<Lookahead>,
}

/// One token of lookahead: what [`Parser::next`] returns from scanner
/// position `at`, scanned once and kept until it is consumed. Scanning
/// depends on nothing but the position, so the buffer is valid exactly
/// while the scanner still stands at `at` — raw character access and
/// `seek` (direct constructors re-read a position as XML) invalidate it
/// by moving away, with no bookkeeping of their own.
struct Lookahead {
    at: usize,
    tok: Tok,
    span: Span,
    /// Scanner position just past the token.
    end: usize,
    /// Lexical diagnostics and pragmas met on the way to the token;
    /// they take effect when the token is consumed.
    diags: Vec<Diagnostic>,
    pragmas: Vec<Pragma>,
    /// The token after this one, once [`Parser::peek2`] has asked.
    second: Option<Tok>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, mode: Mode) -> Parser<'a> {
        Parser {
            s: Scanner::new(src),
            mode,
            diags: Vec::new(),
            pending_pragmas: Vec::new(),
            ahead: None,
        }
    }

    // ---- token plumbing -------------------------------------------------

    /// Scan the next non-trivia token; pragmas are captured into
    /// `pragmas`; lexical errors become `diags` and the offending
    /// character is skipped.
    fn scan(
        s: &mut Scanner<'_>,
        diags: &mut Vec<Diagnostic>,
        pragmas: &mut Vec<Pragma>,
    ) -> (Tok, Span) {
        loop {
            match s.next() {
                Ok((Tok::Pragma(body), _)) => pragmas.push(Pragma::parse(&body)),
                Ok(ts) => return ts,
                Err(e) => {
                    diags.push(Diagnostic {
                        span: Span::new(e.pos, e.pos + 1),
                        message: e.message,
                    });
                    // skip one char and retry so recovery can proceed
                    let p = s.raw_pos();
                    if s.peek_char().is_none() {
                        return (Tok::Eof, Span::new(p, p));
                    }
                    s.seek(p + 1);
                }
            }
        }
    }

    /// Consume and return the next non-trivia token, with the pragmas
    /// and lexical diagnostics on the way to it.
    fn next(&mut self) -> (Tok, Span) {
        match self.ahead.take() {
            Some(a) if a.at == self.s.raw_pos() => {
                self.diags.extend(a.diags);
                self.pending_pragmas.extend(a.pragmas);
                self.s.seek(a.end);
                (a.tok, a.span)
            }
            _ => Self::scan(&mut self.s, &mut self.diags, &mut self.pending_pragmas),
        }
    }

    /// Permanently consume any pragmas (and trivia) ahead of the next
    /// token, capturing them into `pending_pragmas`. Used before each
    /// prolog declaration so its annotations attach to it.
    fn consume_pragmas(&mut self) {
        loop {
            let p = self.s.raw_pos();
            match self.s.next() {
                Ok((Tok::Pragma(body), _)) => {
                    self.pending_pragmas.push(Pragma::parse(&body));
                }
                _ => {
                    self.s.seek(p);
                    return;
                }
            }
        }
    }

    /// The lookahead for the scanner's current position, scanning it
    /// if it is not already there. The scanner stays where it was.
    fn ahead(&mut self) -> &mut Lookahead {
        let at = self.s.raw_pos();
        if self.ahead.as_ref().is_none_or(|a| a.at != at) {
            let (mut diags, mut pragmas) = (Vec::new(), Vec::new());
            let (tok, span) = Self::scan(&mut self.s, &mut diags, &mut pragmas);
            let end = self.s.raw_pos();
            self.s.seek(at);
            self.ahead = Some(Lookahead {
                at,
                tok,
                span,
                end,
                diags,
                pragmas,
                second: None,
            });
        }
        self.ahead.as_mut().expect("filled above")
    }

    /// Peek the next token without consuming it.
    fn peek_tok(&mut self) -> &Tok {
        &self.ahead().tok
    }

    /// Where the next token stands.
    fn peek_span(&mut self) -> Span {
        self.ahead().span
    }

    /// An owned copy of the next token (for diagnostics and the cold
    /// prolog paths; the expression grammar peeks by reference).
    fn peek(&mut self) -> (Tok, Span) {
        let a = self.ahead();
        (a.tok.clone(), a.span)
    }

    /// Peek the token after the next one.
    fn peek2(&mut self) -> &Tok {
        let (at, end, known) = {
            let a = self.ahead();
            (a.at, a.end, a.second.is_some())
        };
        if !known {
            // its pragmas and diagnostics are scanned again, for real,
            // when the parser gets there
            self.s.seek(end);
            let (tok, _) = Self::scan(&mut self.s, &mut Vec::new(), &mut Vec::new());
            self.s.seek(at);
            self.ahead().second = Some(tok);
        }
        self.ahead().second.as_ref().expect("scanned above")
    }

    fn at_name(&mut self, kw: &str) -> bool {
        matches!(self.peek_tok(), Tok::Name(n) if n == kw)
    }

    fn eat_name(&mut self, kw: &str) -> bool {
        if self.at_name(kw) {
            self.next();
            true
        } else {
            false
        }
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek_tok() == t {
            self.next();
            true
        } else {
            false
        }
    }

    fn fail(&mut self, span: Span, message: String) -> Fail {
        self.diags.push(Diagnostic { span, message });
        Fail
    }

    /// Fail on the next token: `expected <what>, found <token>`.
    fn unexpected(&mut self, what: &str) -> Fail {
        let (tok, span) = self.peek();
        self.fail(span, format!("expected {what}, found {}", tok.describe()))
    }

    fn expect(&mut self, t: Tok) -> PResult<Span> {
        if *self.peek_tok() == t {
            Ok(self.next().1)
        } else {
            Err(self.unexpected(&t.describe()))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> PResult<Span> {
        if self.at_name(kw) {
            Ok(self.next().1)
        } else {
            Err(self.unexpected(&format!("'{kw}'")))
        }
    }

    fn expect_var(&mut self) -> PResult<String> {
        match self.peek_tok() {
            Tok::Var(_) => match self.next().0 {
                Tok::Var(v) => Ok(v),
                _ => unreachable!("peeked a variable"),
            },
            _ => Err(self.unexpected("a variable")),
        }
    }

    fn expect_name(&mut self) -> PResult<(Name, Span)> {
        match self.peek_tok() {
            Tok::Name(_) => match self.next() {
                (Tok::Name(n), span) => Ok((Name::parse(&n), span)),
                _ => unreachable!("peeked a name"),
            },
            _ => Err(self.unexpected("a name")),
        }
    }

    fn expect_string(&mut self) -> PResult<String> {
        match self.peek_tok() {
            Tok::Str(_) => match self.next().0 {
                Tok::Str(s) => Ok(s),
                _ => unreachable!("peeked a string"),
            },
            _ => Err(self.unexpected("a string literal")),
        }
    }

    fn expect_eof(&mut self) -> Result<(), Fail> {
        let (tok, span) = self.peek();
        if tok == Tok::Eof {
            Ok(())
        } else {
            Err(self.fail(
                span,
                format!("unexpected {} after expression", tok.describe()),
            ))
        }
    }

    /// Skip to just after the next `;` (declaration-level recovery, §4.1).
    fn skip_to_semi(&mut self) {
        loop {
            let (tok, _) = self.next();
            match tok {
                Tok::Semi | Tok::Eof => return,
                _ => {}
            }
        }
    }

    // ---- module / prolog ------------------------------------------------

    fn module(&mut self) -> Module {
        let mut m = Module::default();
        // version declaration
        if self.at_name("xquery") && matches!(self.peek2(), Tok::Name(n) if n == "version") {
            self.next();
            self.next();
            match self.expect_string() {
                Ok(v) => m.version = Some(v),
                Err(_) => {
                    self.skip_to_semi();
                }
            }
            if self.eat_name("encoding") {
                let _ = self.expect_string();
            }
            let _ = self.expect(Tok::Semi);
        }
        // prolog declarations, interleaved (in recover mode) with
        // skip-past-garbage resynchronization: the design-time editor
        // must find every salvageable declaration in the file (§4.1)
        loop {
            self.consume_pragmas();
            let (tok, span) = self.peek();
            match &tok {
                Tok::Eof => break,
                Tok::Name(n) if n == "declare" || n == "import" => {
                    let pragmas = std::mem::take(&mut self.pending_pragmas);
                    match self.declaration(&mut m, pragmas) {
                        Ok(()) => {}
                        Err(_) => {
                            if self.mode == Mode::FailFast {
                                return m;
                            }
                            self.skip_to_semi();
                        }
                    }
                }
                _ => {
                    // the main query body — or garbage
                    match self.expr() {
                        Ok(e) => {
                            let (after, aspan) = self.peek();
                            if after == Tok::Eof {
                                m.body = Some(e);
                                return m;
                            }
                            self.diags.push(Diagnostic {
                                span: aspan,
                                message: format!(
                                    "unexpected {} after expression",
                                    after.describe()
                                ),
                            });
                            if self.mode == Mode::FailFast {
                                return m;
                            }
                            self.skip_to_semi();
                        }
                        Err(_) => {
                            if self.mode == Mode::FailFast {
                                return m;
                            }
                            let _ = span;
                            self.skip_to_semi();
                        }
                    }
                }
            }
        }
        m
    }

    fn declaration(&mut self, m: &mut Module, pragmas: Vec<Pragma>) -> PResult<()> {
        if self.eat_name("import") {
            self.expect_kw("schema")?;
            let mut prefix = None;
            if self.eat_name("namespace") {
                let (n, _) = self.expect_name()?;
                prefix = Some(n.local);
                self.expect(Tok::Eq)?;
            } else if self.eat_name("default") {
                self.expect_kw("element")?;
                self.expect_kw("namespace")?;
            }
            let uri = self.expect_string()?;
            let mut location = None;
            if self.eat_name("at") {
                location = Some(self.expect_string()?);
            }
            self.expect(Tok::Semi)?;
            m.schema_imports.push(SchemaImport {
                prefix,
                uri,
                location,
            });
            return Ok(());
        }
        self.expect_kw("declare")?;
        if self.eat_name("namespace") {
            let (n, span) = self.expect_name()?;
            if n.prefix.is_some() {
                return Err(self.fail(span, "namespace prefix must be an NCName".into()));
            }
            self.expect(Tok::Eq)?;
            let uri = self.expect_string()?;
            self.expect(Tok::Semi)?;
            m.namespaces.push((n.local, uri));
            Ok(())
        } else if self.eat_name("default") {
            self.expect_kw("element")?;
            self.expect_kw("namespace")?;
            let uri = self.expect_string()?;
            self.expect(Tok::Semi)?;
            m.default_element_ns = Some(uri);
            Ok(())
        } else if self.eat_name("variable") {
            let name = self.expect_var()?;
            let ty = if self.eat_name("as") {
                Some(self.seq_type()?)
            } else {
                None
            };
            self.expect_kw("external")?;
            self.expect(Tok::Semi)?;
            m.variables.push(VarDecl { name, ty });
            Ok(())
        } else if self.eat_name("function") {
            self.function_decl(m, pragmas)
        } else {
            let (tok, span) = self.peek();
            Err(self.fail(
                span,
                format!("unsupported declaration starting with {}", tok.describe()),
            ))
        }
    }

    fn function_decl(&mut self, m: &mut Module, pragmas: Vec<Pragma>) -> PResult<()> {
        let (name, start_span) = self.expect_name()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                let pname = self.expect_var()?;
                let ty = if self.eat_name("as") {
                    Some(self.seq_type()?)
                } else {
                    None
                };
                params.push(Param { name: pname, ty });
                if self.eat(&Tok::Comma) {
                    continue;
                }
                self.expect(Tok::RParen)?;
                break;
            }
        }
        let return_type = if self.eat_name("as") {
            Some(self.seq_type()?)
        } else {
            None
        };
        // At this point the signature is complete and error-free; per the
        // paper, a body error must not discard the signature.
        let (external, body) = if self.eat_name("external") {
            (true, None)
        } else {
            match self.expect(Tok::LBrace) {
                Ok(_) => match self.expr().and_then(|e| {
                    self.expect(Tok::RBrace)?;
                    Ok(e)
                }) {
                    Ok(e) => (false, Some(e)),
                    Err(f) => {
                        if self.mode == Mode::FailFast {
                            return Err(f);
                        }
                        // body in error: keep the signature, drop the body
                        self.skip_to_semi();
                        let span = start_span;
                        m.functions.push(FunctionDecl {
                            pragmas,
                            name,
                            params,
                            return_type,
                            body: None,
                            external: false,
                            span,
                        });
                        return Ok(());
                    }
                },
                Err(f) => return Err(f),
            }
        };
        let end = self.expect(Tok::Semi)?;
        m.functions.push(FunctionDecl {
            pragmas,
            name,
            params,
            return_type,
            body,
            external,
            span: start_span.to(end),
        });
        Ok(())
    }

    // ---- sequence types --------------------------------------------------

    fn seq_type(&mut self) -> PResult<SeqTypeAst> {
        let (name, span) = self.expect_name()?;
        let kind_with_parens = *self.peek_tok() == Tok::LParen;
        let item = if kind_with_parens {
            self.next(); // '('
            match name.to_string().as_str() {
                "item" => {
                    self.expect(Tok::RParen)?;
                    ItemTypeAst::AnyItem
                }
                "node" => {
                    self.expect(Tok::RParen)?;
                    ItemTypeAst::AnyNode
                }
                "text" => {
                    self.expect(Tok::RParen)?;
                    ItemTypeAst::Text
                }
                "document-node" => {
                    self.expect(Tok::RParen)?;
                    ItemTypeAst::Document
                }
                "empty-sequence" => {
                    self.expect(Tok::RParen)?;
                    return Ok(SeqTypeAst {
                        item: ItemTypeAst::EmptySequence,
                        occ: Occurrence::One,
                    });
                }
                "element" | "schema-element" | "attribute" => {
                    let inner = if *self.peek_tok() == Tok::RParen || self.eat(&Tok::Star) {
                        None
                    } else {
                        let (n, _) = self.expect_name()?;
                        // optional ", TypeName" — captured and ignored
                        // (structural typing supersedes the nominal part)
                        if self.eat(&Tok::Comma) {
                            let _ = self.expect_name()?;
                        }
                        Some(n)
                    };
                    self.expect(Tok::RParen)?;
                    match name.to_string().as_str() {
                        "element" => ItemTypeAst::Element(inner),
                        "attribute" => ItemTypeAst::Attribute(inner),
                        _ => match inner {
                            Some(n) => ItemTypeAst::SchemaElement(n),
                            None => {
                                return Err(
                                    self.fail(span, "schema-element() requires a name".into())
                                )
                            }
                        },
                    }
                }
                other => {
                    return Err(self.fail(span, format!("unknown item-type constructor '{other}'")))
                }
            }
        } else {
            ItemTypeAst::Atomic(name)
        };
        let occ = if self.eat(&Tok::QMark) {
            Occurrence::Optional
        } else if self.eat(&Tok::Star) {
            Occurrence::Star
        } else if self.eat(&Tok::Plus) {
            Occurrence::Plus
        } else {
            Occurrence::One
        };
        Ok(SeqTypeAst { item, occ })
    }

    // ---- expressions ------------------------------------------------------

    /// `Expr ::= ExprSingle ("," ExprSingle)*`
    fn expr(&mut self) -> PResult<Expr> {
        let first = self.expr_single()?;
        if *self.peek_tok() != Tok::Comma {
            return Ok(first);
        }
        let mut items = vec![first];
        while self.eat(&Tok::Comma) {
            items.push(self.expr_single()?);
        }
        let span = items[0].span.to(items.last().expect("non-empty").span);
        Ok(Expr::new(ExprKind::Sequence(items), span))
    }

    fn expr_single(&mut self) -> PResult<Expr> {
        // a keyword only when what follows says so (else it's a path step)
        let keyword = match self.peek_tok() {
            Tok::Name(n) => match n.as_str() {
                "for" | "let" => 'f',
                "some" | "every" => 'q',
                "if" => 'i',
                "typeswitch" => 't',
                _ => ' ',
            },
            _ => ' ',
        };
        match keyword {
            'f' => self.flwor(),
            'q' if matches!(self.peek2(), Tok::Var(_)) => self.quantified(),
            'i' if *self.peek2() == Tok::LParen => self.if_expr(),
            't' if *self.peek2() == Tok::LParen => self.typeswitch(),
            _ => self.or_expr(),
        }
    }

    fn flwor(&mut self) -> PResult<Expr> {
        let start = self.peek_span();
        let mut clauses = Vec::new();
        loop {
            let kw = match self.peek_tok() {
                Tok::Name(kw) => ["for", "let", "where", "group", "stable", "order"]
                    .into_iter()
                    .find(|k| k == kw),
                _ => None,
            };
            match kw.unwrap_or("") {
                "for" => {
                    self.next();
                    loop {
                        let var = self.expect_var()?;
                        let ty = if self.eat_name("as") {
                            Some(self.seq_type()?)
                        } else {
                            None
                        };
                        let pos_var = if self.eat_name("at") {
                            Some(self.expect_var()?)
                        } else {
                            None
                        };
                        self.expect_kw("in")?;
                        let source = self.expr_single()?;
                        clauses.push(Clause::For {
                            var,
                            pos_var,
                            ty,
                            source,
                        });
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                "let" => {
                    self.next();
                    loop {
                        let var = self.expect_var()?;
                        let ty = if self.eat_name("as") {
                            Some(self.seq_type()?)
                        } else {
                            None
                        };
                        self.expect(Tok::Assign)?;
                        let value = self.expr_single()?;
                        clauses.push(Clause::Let { var, ty, value });
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                "where" => {
                    self.next();
                    clauses.push(Clause::Where(self.expr_single()?));
                }
                "group" => {
                    self.next();
                    clauses.push(self.group_clause()?);
                }
                "stable" => {
                    self.next();
                    self.expect_kw("order")?;
                    self.expect_kw("by")?;
                    clauses.push(Clause::OrderBy(self.order_specs()?));
                }
                "order" => {
                    self.next();
                    self.expect_kw("by")?;
                    clauses.push(Clause::OrderBy(self.order_specs()?));
                }
                _ => break,
            }
        }
        let end = self.expect_kw("return")?;
        let ret = self.expr_single()?;
        if !clauses
            .iter()
            .any(|c| matches!(c, Clause::For { .. } | Clause::Let { .. }))
        {
            return Err(self.fail(start, "FLWOR requires at least one for/let clause".into()));
        }
        let span = start.to(end).to(ret.span);
        Ok(Expr::new(
            ExprKind::Flwor {
                clauses,
                ret: Box::new(ret),
            },
            span,
        ))
    }

    /// The ALDSP FLWGOR group clause (§3.1):
    /// `group (var1 as var2)? by expr (as var3)? (, expr (as var4)?)*`
    fn group_clause(&mut self) -> PResult<Clause> {
        let mut bindings = Vec::new();
        if matches!(self.peek_tok(), Tok::Var(_)) {
            loop {
                let from = self.expect_var()?;
                self.expect_kw("as")?;
                let to = self.expect_var()?;
                bindings.push(GroupBinding { from, to });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect_kw("by")?;
        let mut keys = Vec::new();
        loop {
            let expr = self.expr_single()?;
            let alias = if self.eat_name("as") {
                Some(self.expect_var()?)
            } else {
                None
            };
            keys.push(GroupKey { expr, alias });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(Clause::GroupBy { bindings, keys })
    }

    fn order_specs(&mut self) -> PResult<Vec<OrderSpec>> {
        let mut specs = Vec::new();
        loop {
            let expr = self.expr_single()?;
            let mut descending = false;
            if self.eat_name("descending") {
                descending = true;
            } else {
                let _ = self.eat_name("ascending");
            }
            let mut empty_least = true;
            if self.eat_name("empty") {
                if self.eat_name("greatest") {
                    empty_least = false;
                } else {
                    self.expect_kw("least")?;
                }
            }
            specs.push(OrderSpec {
                expr,
                descending,
                empty_least,
            });
            if !self.eat(&Tok::Comma) {
                return Ok(specs);
            }
        }
    }

    fn quantified(&mut self) -> PResult<Expr> {
        let (tok, start) = self.next();
        let every = matches!(&tok, Tok::Name(n) if n == "every");
        let mut bindings = Vec::new();
        loop {
            let var = self.expect_var()?;
            self.expect_kw("in")?;
            let source = self.expr_single()?;
            bindings.push((var, source));
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect_kw("satisfies")?;
        let satisfies = self.expr_single()?;
        let span = start.to(satisfies.span);
        Ok(Expr::new(
            ExprKind::Quantified {
                every,
                bindings,
                satisfies: Box::new(satisfies),
            },
            span,
        ))
    }

    fn if_expr(&mut self) -> PResult<Expr> {
        let (_, start) = self.next(); // 'if'
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        self.expect_kw("then")?;
        let then = self.expr_single()?;
        self.expect_kw("else")?;
        let els = self.expr_single()?;
        let span = start.to(els.span);
        Ok(Expr::new(
            ExprKind::If {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
            },
            span,
        ))
    }

    fn typeswitch(&mut self) -> PResult<Expr> {
        let (_, start) = self.next(); // 'typeswitch'
        self.expect(Tok::LParen)?;
        let operand = self.expr()?;
        self.expect(Tok::RParen)?;
        let mut cases = Vec::new();
        while self.eat_name("case") {
            let var = if matches!(self.peek_tok(), Tok::Var(_)) {
                let v = self.expect_var()?;
                self.expect_kw("as")?;
                Some(v)
            } else {
                None
            };
            let ty = self.seq_type()?;
            self.expect_kw("return")?;
            let body = self.expr_single()?;
            cases.push(TypeswitchCase { var, ty, body });
        }
        if cases.is_empty() {
            return Err(self.fail(start, "typeswitch requires at least one case".into()));
        }
        self.expect_kw("default")?;
        let default_var = if matches!(self.peek_tok(), Tok::Var(_)) {
            Some(self.expect_var()?)
        } else {
            None
        };
        self.expect_kw("return")?;
        let default = self.expr_single()?;
        let span = start.to(default.span);
        Ok(Expr::new(
            ExprKind::Typeswitch {
                operand: Box::new(operand),
                cases,
                default_var,
                default: Box::new(default),
            },
            span,
        ))
    }

    fn or_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.at_name("or") {
            self.next();
            let rhs = self.and_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr::new(ExprKind::Or(Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.comparison_expr()?;
        while self.at_name("and") {
            self.next();
            let rhs = self.comparison_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr::new(ExprKind::And(Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    fn comparison_expr(&mut self) -> PResult<Expr> {
        let lhs = self.range_expr()?;
        let (op, general) = match self.peek_tok() {
            Tok::Eq => (CompOp::Eq, true),
            Tok::Ne => (CompOp::Ne, true),
            Tok::Lt => (CompOp::Lt, true),
            Tok::Le => (CompOp::Le, true),
            Tok::Gt => (CompOp::Gt, true),
            Tok::Ge => (CompOp::Ge, true),
            Tok::Name(n) => match n.as_str() {
                "eq" => (CompOp::Eq, false),
                "ne" => (CompOp::Ne, false),
                "lt" => (CompOp::Lt, false),
                "le" => (CompOp::Le, false),
                "gt" => (CompOp::Gt, false),
                "ge" => (CompOp::Ge, false),
                _ => return Ok(lhs),
            },
            _ => return Ok(lhs),
        };
        self.next();
        let rhs = self.range_expr()?;
        let span = lhs.span.to(rhs.span);
        Ok(Expr::new(
            ExprKind::Comparison {
                op,
                general,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            span,
        ))
    }

    fn range_expr(&mut self) -> PResult<Expr> {
        let lhs = self.additive_expr()?;
        if self.at_name("to") {
            self.next();
            let rhs = self.additive_expr()?;
            let span = lhs.span.to(rhs.span);
            return Ok(Expr::new(
                ExprKind::Range(Box::new(lhs), Box::new(rhs)),
                span,
            ));
        }
        Ok(lhs)
    }

    fn additive_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.multiplicative_expr()?;
        loop {
            let op = match self.peek_tok() {
                Tok::Plus => ArithOp::Add,
                Tok::Minus => ArithOp::Sub,
                _ => return Ok(lhs),
            };
            self.next();
            let rhs = self.multiplicative_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr::new(
                ExprKind::Arith {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
    }

    fn multiplicative_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek_tok() {
                Tok::Star => ArithOp::Mul,
                Tok::Name(n) if n == "div" => ArithOp::Div,
                Tok::Name(n) if n == "mod" => ArithOp::Mod,
                _ => return Ok(lhs),
            };
            self.next();
            let rhs = self.unary_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr::new(
                ExprKind::Arith {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
    }

    fn unary_expr(&mut self) -> PResult<Expr> {
        if *self.peek_tok() == Tok::Minus {
            let (_, start) = self.next();
            let inner = self.unary_expr()?;
            let span = start.to(inner.span);
            return Ok(Expr::new(ExprKind::Neg(Box::new(inner)), span));
        }
        if *self.peek_tok() == Tok::Plus {
            self.next();
            return self.unary_expr();
        }
        self.type_ops_expr()
    }

    fn type_ops_expr(&mut self) -> PResult<Expr> {
        let mut e = self.path_expr()?;
        loop {
            if self.at_name("instance") && matches!(self.peek2(), Tok::Name(n) if n == "of") {
                self.next();
                self.next();
                let ty = self.seq_type()?;
                let span = e.span;
                e = Expr::new(ExprKind::InstanceOf(Box::new(e), ty), span);
            } else if self.at_name("cast") {
                self.next();
                self.expect_kw("as")?;
                let ty = self.seq_type()?;
                let span = e.span;
                e = Expr::new(ExprKind::CastAs(Box::new(e), ty), span);
            } else if self.at_name("castable") {
                self.next();
                self.expect_kw("as")?;
                let ty = self.seq_type()?;
                let span = e.span;
                e = Expr::new(ExprKind::CastableAs(Box::new(e), ty), span);
            } else if self.at_name("treat") {
                self.next();
                self.expect_kw("as")?;
                let ty = self.seq_type()?;
                let span = e.span;
                e = Expr::new(ExprKind::TreatAs(Box::new(e), ty), span);
            } else {
                return Ok(e);
            }
        }
    }

    // ---- paths, steps, primaries -------------------------------------------

    fn path_expr(&mut self) -> PResult<Expr> {
        let start = self.peek_span();
        // leading step (relative path) vs primary
        let leading_step = match self.peek_tok() {
            Tok::Star | Tok::At => true,
            Tok::Name(_) => *self.peek2() != Tok::LParen,
            _ => false,
        };
        let (base, mut steps) = match leading_step {
            true => {
                let step = self.step()?;
                (Expr::new(ExprKind::ContextItem, start), vec![step])
            }
            false => {
                let mut primary = self.primary_expr()?;
                // postfix predicates on the primary
                let mut preds = Vec::new();
                while *self.peek_tok() == Tok::LBracket {
                    self.next();
                    preds.push(self.expr()?);
                    self.expect(Tok::RBracket)?;
                }
                if !preds.is_empty() {
                    let span = primary.span;
                    primary = Expr::new(
                        ExprKind::Filter {
                            base: Box::new(primary),
                            predicates: preds,
                        },
                        span,
                    );
                }
                (primary, Vec::new())
            }
        };
        while matches!(self.peek_tok(), Tok::Slash | Tok::SlashSlash) {
            let (sep, _) = self.next();
            if sep == Tok::SlashSlash {
                // `//E` abbreviates descendant-or-self::node()/child::E
                steps.push(Step {
                    axis: Axis::DescendantOrSelf,
                    test: NameTest::Wildcard,
                    predicates: Vec::new(),
                });
            }
            steps.push(self.step()?);
        }
        if steps.is_empty() {
            return Ok(base);
        }
        let span = start.to(steps_span(&steps, base.span));
        Ok(Expr::new(
            ExprKind::Path {
                start: Box::new(base),
                steps,
            },
            span,
        ))
    }

    fn step(&mut self) -> PResult<Step> {
        let span = self.peek_span();
        let axis = match self.peek_tok() {
            Tok::At => {
                self.next();
                Axis::Attribute
            }
            _ => Axis::Child,
        };
        let test = match self.peek_tok() {
            Tok::Star => {
                self.next();
                NameTest::Wildcard
            }
            Tok::Name(_) => match self.next().0 {
                Tok::Name(n) => NameTest::Name(Name::parse(&n)),
                _ => unreachable!("peeked a name"),
            },
            other => {
                let message = match axis {
                    Axis::Attribute => format!(
                        "expected attribute name after '@', found {}",
                        other.describe()
                    ),
                    _ => format!("expected a path step, found {}", other.describe()),
                };
                return Err(self.fail(span, message));
            }
        };
        let mut predicates = Vec::new();
        while *self.peek_tok() == Tok::LBracket {
            self.next();
            predicates.push(self.expr()?);
            self.expect(Tok::RBracket)?;
        }
        Ok(Step {
            axis,
            test,
            predicates,
        })
    }

    fn primary_expr(&mut self) -> PResult<Expr> {
        let span = self.peek_span();
        if matches!(self.peek_tok(), Tok::Name(_)) && *self.peek2() == Tok::LParen {
            return self.function_call();
        }
        match self.peek_tok() {
            // single-token primaries: take the token, keep its payload
            Tok::Int(_) | Tok::Dec(_) | Tok::Dbl(_) | Tok::Str(_) | Tok::Var(_) | Tok::Dot => {
                let kind = match self.next().0 {
                    Tok::Int(i) => ExprKind::Literal(AtomicValue::Integer(i)),
                    Tok::Dec(d) => match Decimal::parse(&d) {
                        Some(v) => ExprKind::Literal(AtomicValue::Decimal(v)),
                        None => {
                            return Err(self.fail(span, format!("invalid decimal literal '{d}'")))
                        }
                    },
                    Tok::Dbl(v) => ExprKind::Literal(AtomicValue::Double(v)),
                    Tok::Str(s) => ExprKind::Literal(AtomicValue::str(&s)),
                    Tok::Var(v) => ExprKind::VarRef(v),
                    _ => ExprKind::ContextItem,
                };
                Ok(Expr::new(kind, span))
            }
            Tok::LParen => {
                self.next();
                if self.eat(&Tok::RParen) {
                    return Ok(Expr::new(ExprKind::Sequence(Vec::new()), span));
                }
                let inner = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(inner)
            }
            Tok::Lt => {
                // direct constructor iff '<' is immediately followed by a
                // name-start character
                let after = span.end as usize;
                self.s.seek(span.start as usize);
                if self.s.peek_char_at(1).is_some_and(is_name_start) {
                    self.direct_constructor()
                } else {
                    self.s.seek(after);
                    Err(self.fail(span, "unexpected '<' (not a constructor)".into()))
                }
            }
            other => {
                let message = format!("unexpected {} in expression", other.describe());
                Err(self.fail(span, message))
            }
        }
    }

    fn function_call(&mut self) -> PResult<Expr> {
        let (name, start) = self.expect_name()?;
        self.expect(Tok::LParen)?;
        let mut args = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                args.push(self.expr_single()?);
                if self.eat(&Tok::Comma) {
                    continue;
                }
                self.expect(Tok::RParen)?;
                break;
            }
        }
        let end = Span::new(self.s.raw_pos(), self.s.raw_pos());
        Ok(Expr::new(ExprKind::Call { name, args }, start.to(end)))
    }

    // ---- direct constructors (raw mode) --------------------------------------

    /// Parse `<Name …>…</Name>` (or `<Name?>` — the ALDSP conditional
    /// construction extension, §3.1) directly from the character stream.
    /// On entry the scanner is positioned at `<`.
    fn direct_constructor(&mut self) -> PResult<Expr> {
        let start = self.s.raw_pos();
        self.s.bump_char(); // '<'
        let Some(raw_name) = self.s.read_raw_name() else {
            return Err(self.fail(
                Span::new(start, start + 1),
                "expected element name after '<'".into(),
            ));
        };
        let name = Name::parse(&raw_name);
        // the `<E?>` extension: '?' directly after the name
        let conditional = if self.s.peek_char() == Some(b'?') {
            self.s.bump_char();
            true
        } else {
            false
        };
        let mut attributes = Vec::new();
        let mut namespaces = Vec::new();
        let mut default_ns = None;
        loop {
            self.s.skip_ws_raw();
            match self.s.peek_char() {
                Some(b'>') | Some(b'/') => break,
                Some(c) if is_name_start(c) => {
                    let aname_raw = self.s.read_raw_name().expect("name start checked");
                    let a_cond = if self.s.peek_char() == Some(b'?') {
                        self.s.bump_char();
                        true
                    } else {
                        false
                    };
                    self.s.skip_ws_raw();
                    if self.s.peek_char() != Some(b'=') {
                        return Err(self.fail(
                            Span::new(self.s.raw_pos(), self.s.raw_pos() + 1),
                            format!("expected '=' after attribute name '{aname_raw}'"),
                        ));
                    }
                    self.s.bump_char();
                    self.s.skip_ws_raw();
                    let value = self.attr_value()?;
                    if aname_raw == "xmlns" {
                        default_ns = Some(attr_static_text(&value));
                    } else if let Some(p) = aname_raw.strip_prefix("xmlns:") {
                        namespaces.push((p.to_string(), attr_static_text(&value)));
                    } else {
                        attributes.push(AttrConstructor {
                            name: Name::parse(&aname_raw),
                            conditional: a_cond,
                            value,
                        });
                    }
                }
                _ => {
                    return Err(self.fail(
                        Span::new(self.s.raw_pos(), self.s.raw_pos() + 1),
                        "unterminated start tag".into(),
                    ))
                }
            }
        }
        if self.s.peek_char() == Some(b'/') {
            self.s.bump_char();
            if self.s.bump_char() != Some(b'>') {
                return Err(self.fail(
                    Span::new(self.s.raw_pos(), self.s.raw_pos() + 1),
                    "expected '>' after '/'".into(),
                ));
            }
            let span = Span::new(start, self.s.raw_pos());
            return Ok(Expr::new(
                ExprKind::DirectElement {
                    name,
                    conditional,
                    attributes,
                    content: Vec::new(),
                    namespaces,
                    default_ns,
                },
                span,
            ));
        }
        self.s.bump_char(); // '>'
        let content = self.constructor_content(&raw_name, start)?;
        let span = Span::new(start, self.s.raw_pos());
        Ok(Expr::new(
            ExprKind::DirectElement {
                name,
                conditional,
                attributes,
                content,
                namespaces,
                default_ns,
            },
            span,
        ))
    }

    /// Parse an attribute value `"…{expr}…"` into literal/enclosed parts.
    fn attr_value(&mut self) -> PResult<Vec<Expr>> {
        let quote = match self.s.peek_char() {
            Some(q @ (b'"' | b'\'')) => {
                self.s.bump_char();
                q
            }
            _ => {
                return Err(self.fail(
                    Span::new(self.s.raw_pos(), self.s.raw_pos() + 1),
                    "attribute value must be quoted".into(),
                ))
            }
        };
        let mut parts: Vec<Expr> = Vec::new();
        let mut text = String::new();
        let text_start = self.s.raw_pos();
        loop {
            match self.s.peek_char() {
                Some(c) if c == quote => {
                    self.s.bump_char();
                    break;
                }
                Some(b'{') => {
                    if self.s.peek_char_at(1) == Some(b'{') {
                        self.s.bump_char();
                        self.s.bump_char();
                        text.push('{');
                        continue;
                    }
                    if !text.is_empty() {
                        parts.push(Expr::new(
                            ExprKind::Literal(AtomicValue::str(&decode_refs(&text))),
                            Span::new(text_start, self.s.raw_pos()),
                        ));
                        text.clear();
                    }
                    self.s.bump_char(); // '{'
                    let inner = self.expr()?;
                    if *self.peek_tok() != Tok::RBrace {
                        let sp = self.peek_span();
                        return Err(
                            self.fail(sp, "expected '}' closing enclosed expression".into())
                        );
                    }
                    self.next();
                    parts.push(inner);
                }
                Some(b'}') => {
                    if self.s.peek_char_at(1) == Some(b'}') {
                        self.s.bump_char();
                        self.s.bump_char();
                        text.push('}');
                    } else {
                        return Err(self.fail(
                            Span::new(self.s.raw_pos(), self.s.raw_pos() + 1),
                            "unescaped '}' in attribute value".into(),
                        ));
                    }
                }
                Some(c) => {
                    self.s.bump_char();
                    text.push(c as char);
                }
                None => {
                    return Err(self.fail(
                        Span::new(self.s.raw_pos(), self.s.raw_pos()),
                        "unterminated attribute value".into(),
                    ))
                }
            }
        }
        if !text.is_empty() {
            parts.push(Expr::new(
                ExprKind::Literal(AtomicValue::str(&decode_refs(&text))),
                Span::new(text_start, self.s.raw_pos()),
            ));
        }
        Ok(parts)
    }

    /// Parse element content until the matching close tag.
    fn constructor_content(&mut self, open_name: &str, open_pos: usize) -> PResult<Vec<Expr>> {
        let mut content: Vec<Expr> = Vec::new();
        let mut text = String::new();
        let mut text_start = self.s.raw_pos();
        macro_rules! flush_text {
            () => {
                if !text.is_empty() {
                    // whitespace-only boundary text is formatting noise;
                    // kept text becomes an *untyped* text node (XQuery
                    // constructor character content is unvalidated)
                    if !text.trim().is_empty() {
                        content.push(Expr::new(
                            ExprKind::Literal(AtomicValue::untyped(&decode_refs(&text))),
                            Span::new(text_start, self.s.raw_pos()),
                        ));
                    }
                    text.clear();
                }
            };
        }
        loop {
            match self.s.peek_char() {
                Some(b'<') => {
                    if self.s.at_raw("</") {
                        flush_text!();
                        self.s.bump_char();
                        self.s.bump_char();
                        let close = self.s.read_raw_name().unwrap_or_default();
                        if close != open_name {
                            return Err(self.fail(
                                Span::new(self.s.raw_pos(), self.s.raw_pos()),
                                format!("mismatched close tag </{close}> for <{open_name}>"),
                            ));
                        }
                        self.s.skip_ws_raw();
                        if self.s.bump_char() != Some(b'>') {
                            return Err(self.fail(
                                Span::new(self.s.raw_pos(), self.s.raw_pos()),
                                "expected '>' in close tag".into(),
                            ));
                        }
                        return Ok(content);
                    } else if self.s.at_raw("<!--") {
                        flush_text!();
                        while !self.s.at_raw("-->") {
                            if self.s.bump_char().is_none() {
                                return Err(self.fail(
                                    Span::new(open_pos, open_pos + 1),
                                    "unterminated comment in constructor".into(),
                                ));
                            }
                        }
                        self.s.seek(self.s.raw_pos() + 3);
                        text_start = self.s.raw_pos();
                    } else {
                        flush_text!();
                        content.push(self.direct_constructor()?);
                        text_start = self.s.raw_pos();
                    }
                }
                Some(b'{') => {
                    if self.s.peek_char_at(1) == Some(b'{') {
                        self.s.bump_char();
                        self.s.bump_char();
                        text.push('{');
                        continue;
                    }
                    flush_text!();
                    self.s.bump_char(); // '{'
                    let inner = self.expr()?;
                    if *self.peek_tok() != Tok::RBrace {
                        let sp = self.peek_span();
                        return Err(
                            self.fail(sp, "expected '}' closing enclosed expression".into())
                        );
                    }
                    self.next();
                    content.push(inner);
                    text_start = self.s.raw_pos();
                }
                Some(b'}') => {
                    if self.s.peek_char_at(1) == Some(b'}') {
                        self.s.bump_char();
                        self.s.bump_char();
                        text.push('}');
                    } else {
                        return Err(self.fail(
                            Span::new(self.s.raw_pos(), self.s.raw_pos() + 1),
                            "unescaped '}' in element content".into(),
                        ));
                    }
                }
                Some(c) => {
                    self.s.bump_char();
                    text.push(c as char);
                }
                None => {
                    return Err(self.fail(
                        Span::new(open_pos, open_pos + 1),
                        format!("unterminated element <{open_name}>"),
                    ))
                }
            }
        }
    }
}

fn steps_span(steps: &[Step], fallback: Span) -> Span {
    steps
        .last()
        .and_then(|s| s.predicates.last().map(|p| p.span))
        .unwrap_or(fallback)
}

fn attr_static_text(parts: &[Expr]) -> String {
    parts
        .iter()
        .filter_map(|p| match &p.kind {
            ExprKind::Literal(v) => Some(v.string_value()),
            _ => None,
        })
        .collect()
}
