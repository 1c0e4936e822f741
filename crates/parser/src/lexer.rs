//! The XQuery scanner.
//!
//! XQuery cannot be tokenized independently of parsing context — direct
//! element constructors embed XML syntax mid-expression. The [`Scanner`]
//! therefore exposes two levels: ordinary token scanning (with pragma and
//! nested-comment handling) and raw character access that the parser uses
//! while inside direct constructors. A token depends on nothing but the
//! position it is scanned from, so the parser can keep one token of
//! lookahead keyed by position and still freely re-interpret a position.

use crate::ast::Span;

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// An NCName or lexical QName (`p:l`).
    Name(String),
    /// `$name`.
    Var(String),
    /// A string literal (quotes removed, escapes decoded).
    Str(String),
    /// An integer literal.
    Int(i64),
    /// A decimal literal (kept lexical for exactness).
    Dec(String),
    /// A double literal.
    Dbl(f64),
    /// A `(::pragma … ::)` annotation body.
    Pragma(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `/`
    Slash,
    /// `//`
    SlashSlash,
    /// `@`
    At,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `?`
    QMark,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `:=`
    Assign,
    /// End of input.
    Eof,
}

impl Tok {
    /// Human-readable description for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            Tok::Name(n) => format!("'{n}'"),
            Tok::Var(v) => format!("'${v}'"),
            Tok::Str(_) => "string literal".into(),
            Tok::Int(_) | Tok::Dec(_) | Tok::Dbl(_) => "numeric literal".into(),
            Tok::Pragma(_) => "pragma".into(),
            Tok::Eof => "end of input".into(),
            other => format!(
                "'{}'",
                match other {
                    Tok::LParen => "(",
                    Tok::RParen => ")",
                    Tok::LBracket => "[",
                    Tok::RBracket => "]",
                    Tok::LBrace => "{",
                    Tok::RBrace => "}",
                    Tok::Comma => ",",
                    Tok::Semi => ";",
                    Tok::Dot => ".",
                    Tok::DotDot => "..",
                    Tok::Slash => "/",
                    Tok::SlashSlash => "//",
                    Tok::At => "@",
                    Tok::Star => "*",
                    Tok::Plus => "+",
                    Tok::Minus => "-",
                    Tok::QMark => "?",
                    Tok::Eq => "=",
                    Tok::Ne => "!=",
                    Tok::Lt => "<",
                    Tok::Le => "<=",
                    Tok::Gt => ">",
                    Tok::Ge => ">=",
                    Tok::Assign => ":=",
                    _ => unreachable!(),
                }
            ),
        }
    }
}

/// Is `c` a valid NCName start character (ASCII subset)?
pub fn is_name_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_name_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.')
}

/// A scanning error (unterminated literal/comment, bad character).
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Byte position of the error.
    pub pos: usize,
    /// Description.
    pub message: String,
}

/// The two-level scanner.
pub struct Scanner<'a> {
    src: &'a [u8],
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    /// Create a scanner over `src`.
    pub fn new(src: &'a str) -> Scanner<'a> {
        Scanner {
            src: src.as_bytes(),
            text: src,
            pos: 0,
        }
    }

    /// Current byte position.
    pub fn raw_pos(&self) -> usize {
        self.pos
    }

    /// Rewind/seek to a position previously obtained from [`raw_pos`].
    ///
    /// [`raw_pos`]: Scanner::raw_pos
    pub fn seek(&mut self, pos: usize) {
        self.pos = pos;
    }

    /// Peek the current raw character.
    pub fn peek_char(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    /// Peek `n` characters ahead.
    pub fn peek_char_at(&self, n: usize) -> Option<u8> {
        self.src.get(self.pos + n).copied()
    }

    /// Consume one raw character.
    pub fn bump_char(&mut self) -> Option<u8> {
        let c = self.peek_char();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    /// Does the raw input start with `s` at the current position?
    pub fn at_raw(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }

    /// Skip raw whitespace.
    pub fn skip_ws_raw(&mut self) {
        while matches!(self.peek_char(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Read a raw NCName/QName at the current position.
    pub fn read_raw_name(&mut self) -> Option<String> {
        let start = self.pos;
        if !self.peek_char().is_some_and(is_name_start) {
            return None;
        }
        self.pos += 1;
        while self.peek_char().is_some_and(is_name_char) {
            self.pos += 1;
        }
        // one optional ':' NCName for a QName
        if self.peek_char() == Some(b':') && self.peek_char_at(1).is_some_and(is_name_start) {
            self.pos += 2;
            while self.peek_char().is_some_and(is_name_char) {
                self.pos += 1;
            }
        }
        Some(self.text[start..self.pos].to_string())
    }

    /// Skip whitespace, comments and (non-pragma) trivia. Returns a pragma
    /// body if one is encountered.
    fn skip_trivia(&mut self) -> Result<Option<(String, Span)>, LexError> {
        loop {
            self.skip_ws_raw();
            if self.at_raw("(::pragma") {
                let start = self.pos;
                self.pos += "(::pragma".len();
                let body_start = self.pos;
                while self.pos < self.src.len() && !self.at_raw("::)") {
                    self.pos += 1;
                }
                if !self.at_raw("::)") {
                    return Err(LexError {
                        pos: start,
                        message: "unterminated pragma".into(),
                    });
                }
                let body = self.text[body_start..self.pos].to_string();
                self.pos += 3;
                return Ok(Some((body, Span::new(start, self.pos))));
            }
            if self.at_raw("(:") {
                let start = self.pos;
                self.pos += 2;
                let mut depth = 1;
                while depth > 0 {
                    if self.pos >= self.src.len() {
                        return Err(LexError {
                            pos: start,
                            message: "unterminated comment".into(),
                        });
                    }
                    if self.at_raw("(:") {
                        depth += 1;
                        self.pos += 2;
                    } else if self.at_raw(":)") {
                        depth -= 1;
                        self.pos += 2;
                    } else {
                        self.pos += 1;
                    }
                }
                continue;
            }
            return Ok(None);
        }
    }

    /// Scan the next token.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<(Tok, Span), LexError> {
        if let Some((body, span)) = self.skip_trivia()? {
            return Ok((Tok::Pragma(body), span));
        }
        let start = self.pos;
        let Some(c) = self.peek_char() else {
            return Ok((Tok::Eof, Span::new(start, start)));
        };
        let tok = match c {
            b'(' => {
                self.pos += 1;
                Tok::LParen
            }
            b')' => {
                self.pos += 1;
                Tok::RParen
            }
            b'[' => {
                self.pos += 1;
                Tok::LBracket
            }
            b']' => {
                self.pos += 1;
                Tok::RBracket
            }
            b'{' => {
                self.pos += 1;
                Tok::LBrace
            }
            b'}' => {
                self.pos += 1;
                Tok::RBrace
            }
            b',' => {
                self.pos += 1;
                Tok::Comma
            }
            b';' => {
                self.pos += 1;
                Tok::Semi
            }
            b'@' => {
                self.pos += 1;
                Tok::At
            }
            b'*' => {
                self.pos += 1;
                Tok::Star
            }
            b'+' => {
                self.pos += 1;
                Tok::Plus
            }
            b'-' => {
                self.pos += 1;
                Tok::Minus
            }
            b'?' => {
                self.pos += 1;
                Tok::QMark
            }
            b'=' => {
                self.pos += 1;
                Tok::Eq
            }
            b'!' => {
                if self.peek_char_at(1) == Some(b'=') {
                    self.pos += 2;
                    Tok::Ne
                } else {
                    return Err(LexError {
                        pos: start,
                        message: "unexpected '!'".into(),
                    });
                }
            }
            b'<' => {
                if self.peek_char_at(1) == Some(b'=') {
                    self.pos += 2;
                    Tok::Le
                } else {
                    self.pos += 1;
                    Tok::Lt
                }
            }
            b'>' => {
                if self.peek_char_at(1) == Some(b'=') {
                    self.pos += 2;
                    Tok::Ge
                } else {
                    self.pos += 1;
                    Tok::Gt
                }
            }
            b'/' => {
                if self.peek_char_at(1) == Some(b'/') {
                    self.pos += 2;
                    Tok::SlashSlash
                } else {
                    self.pos += 1;
                    Tok::Slash
                }
            }
            b':' => {
                if self.peek_char_at(1) == Some(b'=') {
                    self.pos += 2;
                    Tok::Assign
                } else {
                    return Err(LexError {
                        pos: start,
                        message: "unexpected ':'".into(),
                    });
                }
            }
            b'.' => {
                if self.peek_char_at(1) == Some(b'.') {
                    self.pos += 2;
                    Tok::DotDot
                } else if self.peek_char_at(1).is_some_and(|d| d.is_ascii_digit()) {
                    return self.scan_number(start);
                } else {
                    self.pos += 1;
                    Tok::Dot
                }
            }
            b'$' => {
                self.pos += 1;
                match self.read_raw_name() {
                    Some(n) => Tok::Var(n),
                    None => {
                        return Err(LexError {
                            pos: start,
                            message: "expected variable name after '$'".into(),
                        })
                    }
                }
            }
            b'"' | b'\'' => return self.scan_string(start, c),
            b'0'..=b'9' => return self.scan_number(start),
            c if is_name_start(c) => {
                let n = self.read_raw_name().expect("name start checked");
                Tok::Name(n)
            }
            other => {
                return Err(LexError {
                    pos: start,
                    message: format!("unexpected character '{}'", other as char),
                })
            }
        };
        Ok((tok, Span::new(start, self.pos)))
    }

    fn scan_string(&mut self, start: usize, quote: u8) -> Result<(Tok, Span), LexError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.peek_char() {
                Some(c) if c == quote => {
                    if self.peek_char_at(1) == Some(quote) {
                        out.push(quote as char);
                        self.pos += 2;
                    } else {
                        self.pos += 1;
                        return Ok((Tok::Str(decode_refs(&out)), Span::new(start, self.pos)));
                    }
                }
                Some(_) => {
                    let c0 = self.pos;
                    while self.peek_char().is_some_and(|c| c != quote) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[c0..self.pos]);
                }
                None => {
                    return Err(LexError {
                        pos: start,
                        message: "unterminated string literal".into(),
                    })
                }
            }
        }
    }

    fn scan_number(&mut self, start: usize) -> Result<(Tok, Span), LexError> {
        while self.peek_char().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_dec = false;
        if self.peek_char() == Some(b'.') && self.peek_char_at(1).is_none_or(|c| c.is_ascii_digit())
        {
            is_dec = true;
            self.pos += 1;
            while self.peek_char().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let mut is_dbl = false;
        if matches!(self.peek_char(), Some(b'e' | b'E')) {
            let mut look = 1;
            if matches!(self.peek_char_at(1), Some(b'+' | b'-')) {
                look = 2;
            }
            if self.peek_char_at(look).is_some_and(|c| c.is_ascii_digit()) {
                is_dbl = true;
                self.pos += look;
                while self.peek_char().is_some_and(|c| c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
        }
        let lexeme = &self.text[start..self.pos];
        let tok = if is_dbl {
            Tok::Dbl(lexeme.parse().map_err(|_| LexError {
                pos: start,
                message: format!("invalid double literal '{lexeme}'"),
            })?)
        } else if is_dec {
            Tok::Dec(lexeme.to_string())
        } else {
            Tok::Int(lexeme.parse().map_err(|_| LexError {
                pos: start,
                message: format!("integer literal '{lexeme}' out of range"),
            })?)
        };
        Ok((tok, Span::new(start, self.pos)))
    }
}

/// Decode the predefined XML entity/character references inside string
/// literals and constructor text.
pub fn decode_refs(s: &str) -> String {
    if !s.contains('&') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        if let Some(end) = rest.find(';') {
            match &rest[1..end] {
                "lt" => out.push('<'),
                "gt" => out.push('>'),
                "amp" => out.push('&'),
                "quot" => out.push('"'),
                "apos" => out.push('\''),
                other => {
                    out.push('&');
                    out.push_str(other);
                    out.push(';');
                }
            }
            rest = &rest[end + 1..];
        } else {
            out.push_str(rest);
            return out;
        }
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        let mut s = Scanner::new(src);
        let mut out = Vec::new();
        loop {
            let (t, _) = s.next().unwrap();
            if t == Tok::Eof {
                return out;
            }
            out.push(t);
        }
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks(r#"for $c in CUSTOMER() where $c/CID eq "C1" return $c"#),
            vec![
                Tok::Name("for".into()),
                Tok::Var("c".into()),
                Tok::Name("in".into()),
                Tok::Name("CUSTOMER".into()),
                Tok::LParen,
                Tok::RParen,
                Tok::Name("where".into()),
                Tok::Var("c".into()),
                Tok::Slash,
                Tok::Name("CID".into()),
                Tok::Name("eq".into()),
                Tok::Str("C1".into()),
                Tok::Name("return".into()),
                Tok::Var("c".into()),
            ]
        );
    }

    #[test]
    fn qnames_and_assign() {
        assert_eq!(
            toks("let $x := tns:getProfile()"),
            vec![
                Tok::Name("let".into()),
                Tok::Var("x".into()),
                Tok::Assign,
                Tok::Name("tns:getProfile".into()),
                Tok::LParen,
                Tok::RParen,
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("1 2.5 .5 3e2 10 20"),
            vec![
                Tok::Int(1),
                Tok::Dec("2.5".into()),
                Tok::Dec(".5".into()),
                Tok::Dbl(300.0),
                Tok::Int(10),
                Tok::Int(20),
            ]
        );
    }

    #[test]
    fn comments_nest_and_pragmas_surface() {
        assert_eq!(
            toks("a (: outer (: inner :) still :) b"),
            vec![Tok::Name("a".into()), Tok::Name("b".into())]
        );
        let ts = toks(r#"(::pragma function kind="read" ::) declare"#);
        match &ts[0] {
            Tok::Pragma(body) => assert!(body.contains("kind=\"read\"")),
            other => panic!("expected pragma, got {other:?}"),
        }
    }

    #[test]
    fn strings_escape_and_refs() {
        assert_eq!(toks(r#""a""b""#), vec![Tok::Str("a\"b".into())]);
        assert_eq!(toks("'it''s'"), vec![Tok::Str("it's".into())]);
        assert_eq!(toks(r#""a&lt;b""#), vec![Tok::Str("a<b".into())]);
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("< <= > >= = !="),
            vec![Tok::Lt, Tok::Le, Tok::Gt, Tok::Ge, Tok::Eq, Tok::Ne]
        );
    }

    #[test]
    fn slashes_and_dots() {
        assert_eq!(
            toks("/ // . .."),
            vec![Tok::Slash, Tok::SlashSlash, Tok::Dot, Tok::DotDot]
        );
    }

    #[test]
    fn errors() {
        let mut s = Scanner::new("\"abc");
        assert!(s.next().is_err());
        let mut s = Scanner::new("(: never closed");
        assert!(s.next().is_err());
        let mut s = Scanner::new("#");
        assert!(s.next().is_err());
    }

    #[test]
    fn seek_allows_reinterpretation() {
        let mut s = Scanner::new("<CUSTOMER>");
        let p = s.raw_pos();
        let (t, _) = s.next().unwrap();
        assert_eq!(t, Tok::Lt);
        s.seek(p);
        assert_eq!(s.peek_char(), Some(b'<'));
    }
}
