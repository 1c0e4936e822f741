//! Typed atomic values.
//!
//! ALDSP "relies heavily on the typed side of XQuery" (§3.1): every value
//! entering the system from a relational source or validated service result
//! carries a type annotation, and those annotations survive construction
//! under structural typing. This module provides the atomic-value layer:
//! the [`AtomicType`] lattice (with the subtype relation the optimistic
//! type-checker uses), the [`AtomicValue`] representation, XML-Schema-style
//! casting, value comparison with numeric promotion, and arithmetic.

use crate::xml::XmlSink;
use crate::{Result, XdmError};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The atomic types ALDSP's data-centric use cases require.
///
/// This is the subset that SQL columns, WSDL messages and CSV/XML file
/// schemas map onto (§5.3's "well-defined set of SQL to XML data type
/// mappings"). `Untyped` is the type of unvalidated text; `AnyAtomic` is
/// the top of the atomic lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AtomicType {
    /// `xs:untypedAtomic` — text with no validation.
    Untyped,
    /// `xs:string`.
    String,
    /// `xs:boolean`.
    Boolean,
    /// `xs:integer` (the integer family; SQL INT/BIGINT map here).
    Integer,
    /// `xs:decimal` — exact fixed-point numeric (SQL DECIMAL/NUMERIC).
    Decimal,
    /// `xs:double` (SQL FLOAT/DOUBLE).
    Double,
    /// `xs:date` (SQL DATE).
    Date,
    /// `xs:dateTime` (SQL TIMESTAMP).
    DateTime,
    /// `xs:anyAtomicType` — the top atomic type.
    AnyAtomic,
}

impl AtomicType {
    /// XML-Schema-style derivation: is `self` a subtype of `sup`?
    ///
    /// `Integer <: Decimal <: AnyAtomic`; every concrete type is a subtype
    /// of itself and of `AnyAtomic`.
    pub fn is_subtype_of(self, sup: AtomicType) -> bool {
        if self == sup || sup == AtomicType::AnyAtomic {
            return true;
        }
        matches!((self, sup), (AtomicType::Integer, AtomicType::Decimal))
    }

    /// Do the two types have a non-empty intersection? This is the relation
    /// the paper's *optimistic* static typing rule uses (§4.1): a call
    /// `f($x)` is accepted iff the argument type intersects the parameter
    /// type (a `typematch` is inserted unless it is a proper subtype).
    pub fn intersects(self, other: AtomicType) -> bool {
        self.is_subtype_of(other)
            || other.is_subtype_of(self)
            // untyped data can be cast to anything at runtime
            || self == AtomicType::Untyped
            || other == AtomicType::Untyped
    }

    /// Is this one of the numeric types?
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            AtomicType::Integer | AtomicType::Decimal | AtomicType::Double
        )
    }

    /// The `xs:` lexical name of this type.
    pub fn xs_name(self) -> &'static str {
        match self {
            AtomicType::Untyped => "xs:untypedAtomic",
            AtomicType::String => "xs:string",
            AtomicType::Boolean => "xs:boolean",
            AtomicType::Integer => "xs:integer",
            AtomicType::Decimal => "xs:decimal",
            AtomicType::Double => "xs:double",
            AtomicType::Date => "xs:date",
            AtomicType::DateTime => "xs:dateTime",
            AtomicType::AnyAtomic => "xs:anyAtomicType",
        }
    }

    /// Parse an `xs:`-prefixed (or bare) type name.
    pub fn from_xs_name(name: &str) -> Option<AtomicType> {
        let bare = name.strip_prefix("xs:").unwrap_or(name);
        Some(match bare {
            "untypedAtomic" => AtomicType::Untyped,
            "string" => AtomicType::String,
            "boolean" => AtomicType::Boolean,
            "integer" | "int" | "long" | "short" | "byte" => AtomicType::Integer,
            "decimal" => AtomicType::Decimal,
            "double" | "float" => AtomicType::Double,
            "date" => AtomicType::Date,
            "dateTime" => AtomicType::DateTime,
            "anyAtomicType" => AtomicType::AnyAtomic,
            _ => return None,
        })
    }
}

impl fmt::Display for AtomicType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.xs_name())
    }
}

/// Exact fixed-point decimal with 6 fractional digits, stored as a scaled
/// `i128`. This keeps SQL DECIMAL arithmetic exact (unlike binary floats)
/// without pulling in an arbitrary-precision dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Decimal(pub i128);

/// Scale factor for [`Decimal`]: values are `units / 10^6`.
pub const DECIMAL_SCALE: i128 = 1_000_000;

impl Decimal {
    /// Build from an integer.
    pub fn from_int(i: i64) -> Self {
        Decimal(i as i128 * DECIMAL_SCALE)
    }

    /// Parse a decimal literal like `-12.75`.
    pub fn parse(s: &str) -> Option<Decimal> {
        let s = s.trim();
        let (neg, s) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if s.is_empty() {
            return None;
        }
        let (int_part, frac_part) = match s.split_once('.') {
            Some((i, f)) => (i, f),
            None => (s, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return None;
        }
        if !int_part.bytes().all(|b| b.is_ascii_digit())
            || !frac_part.bytes().all(|b| b.is_ascii_digit())
        {
            return None;
        }
        let int_val: i128 = if int_part.is_empty() {
            0
        } else {
            int_part.parse().ok()?
        };
        let mut frac_val: i128 = 0;
        let mut scale = DECIMAL_SCALE / 10;
        for b in frac_part.bytes().take(6) {
            frac_val += (b - b'0') as i128 * scale;
            scale /= 10;
        }
        let v = int_val.checked_mul(DECIMAL_SCALE)?.checked_add(frac_val)?;
        Some(Decimal(if neg { -v } else { v }))
    }

    /// Approximate conversion to `f64`.
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / DECIMAL_SCALE as f64
    }

    /// Truncate toward zero to an integer.
    pub fn trunc(self) -> i64 {
        (self.0 / DECIMAL_SCALE) as i64
    }

    /// Exact sum.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, o: Decimal) -> Decimal {
        Decimal(self.0 + o.0)
    }
    /// Exact difference.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, o: Decimal) -> Decimal {
        Decimal(self.0 - o.0)
    }
    /// Product, truncated to 6 fractional digits.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, o: Decimal) -> Decimal {
        Decimal(self.0 * o.0 / DECIMAL_SCALE)
    }
    /// Quotient, truncated to 6 fractional digits.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, o: Decimal) -> Option<Decimal> {
        if o.0 == 0 {
            None
        } else {
            Some(Decimal(self.0 * DECIMAL_SCALE / o.0))
        }
    }

    /// Canonical lexical form: no trailing fractional zeros, no `.`
    /// when the fraction is zero.
    fn lexical(self, l: &mut Lexical) {
        if self.0 < 0 {
            l.byte(b'-');
        }
        let abs = self.0.unsigned_abs();
        l.wide(abs / DECIMAL_SCALE as u128);
        let mut frac = (abs % DECIMAL_SCALE as u128) as u64;
        if frac != 0 {
            let mut width = 6;
            while frac.is_multiple_of(10) {
                frac /= 10;
                width -= 1;
            }
            l.byte(b'.');
            l.digits(frac, width);
        }
    }
}

impl fmt::Display for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Lexical::spell(f, |l| self.lexical(l))
    }
}

/// Days since 1970-01-01 (proleptic Gregorian), with parse/format helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Date(pub i32);

const DAYS_IN_MONTH: [i64; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

fn is_leap(y: i64) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

fn days_from_civil(y: i64, m: i64, d: i64) -> i64 {
    // Howard Hinnant's algorithm: days since 1970-01-01.
    let y = y - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let doy = (153 * (m + if m > 2 { -3 } else { 9 }) + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146097 + doe - 719468
}

fn civil_from_days(z: i64) -> (i64, i64, i64) {
    // the inverse of `days_from_civil`; within an era every quantity
    // is non-negative and small, so it runs in `u32`
    let z = z + 719468;
    let era = z.div_euclid(146097);
    let doe = z.rem_euclid(146097) as u32;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (
        era * 400 + i64::from(yoe) + i64::from(m <= 2),
        m.into(),
        d.into(),
    )
}

impl Date {
    /// Build from a `(year, month, day)` triple; validates the calendar.
    pub fn from_ymd(y: i64, m: i64, d: i64) -> Option<Date> {
        if !(1..=12).contains(&m) {
            return None;
        }
        let max = DAYS_IN_MONTH[(m - 1) as usize] + i64::from(m == 2 && is_leap(y));
        if !(1..=max).contains(&d) {
            return None;
        }
        Some(Date(days_from_civil(y, m, d) as i32))
    }

    /// Parse `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Option<Date> {
        let s = s.trim();
        let mut it = s.splitn(3, '-');
        let y: i64 = it.next()?.parse().ok()?;
        let m: i64 = it.next()?.parse().ok()?;
        let d: i64 = it.next()?.parse().ok()?;
        Date::from_ymd(y, m, d)
    }

    /// `(year, month, day)` of this date.
    pub fn ymd(self) -> (i64, i64, i64) {
        civil_from_days(self.0 as i64)
    }
}

/// `YYYY-MM-DD` of a day number. The year is at least four characters
/// including its sign (`-005`, `12345`), as Rust's `{:04}` pads.
fn write_day(days: i64, l: &mut Lexical) {
    let (y, m, d) = civil_from_days(days);
    l.signed(y, 4);
    l.byte(b'-');
    l.pair(m as u64);
    l.byte(b'-');
    l.pair(d as u64);
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Lexical::spell(f, |l| write_day(self.0 as i64, l))
    }
}

/// Seconds since 1970-01-01T00:00:00 (UTC, no timezone handling — ALDSP's
/// data-centric cases normalize to a single zone at the adaptor boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DateTime(pub i64);

impl DateTime {
    /// Parse `YYYY-MM-DDTHH:MM:SS` (a trailing `Z` is accepted and ignored).
    pub fn parse(s: &str) -> Option<DateTime> {
        let s = s.trim().trim_end_matches('Z');
        let (d, t) = s.split_once('T')?;
        let date = Date::parse(d)?;
        let mut it = t.splitn(3, ':');
        let h: i64 = it.next()?.parse().ok()?;
        let mi: i64 = it.next()?.parse().ok()?;
        let sec: i64 = it.next().unwrap_or("0").parse().ok()?;
        if !(0..24).contains(&h) || !(0..60).contains(&mi) || !(0..60).contains(&sec) {
            return None;
        }
        Some(DateTime(date.0 as i64 * 86400 + h * 3600 + mi * 60 + sec))
    }

    /// The date component.
    pub fn date(self) -> Date {
        Date(self.0.div_euclid(86400) as i32)
    }

    /// `YYYY-MM-DDTHH:MM:SS`.
    fn lexical(self, l: &mut Lexical) {
        write_day(self.0.div_euclid(86400), l);
        let secs = self.0.rem_euclid(86400) as u64;
        l.byte(b'T');
        l.pair(secs / 3600);
        l.byte(b':');
        l.pair(secs % 3600 / 60);
        l.byte(b':');
        l.pair(secs % 60);
    }
}

impl fmt::Display for DateTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Lexical::spell(f, |l| self.lexical(l))
    }
}

/// A stack buffer one lexical form is spelled into from digits, so no
/// `String` is built for it. 64 bytes hold the longest form: a
/// negative `Decimal` is at most 41 characters.
struct Lexical {
    bytes: [u8; 64],
    len: usize,
}

impl Lexical {
    fn new() -> Lexical {
        Lexical {
            bytes: [0; 64],
            len: 0,
        }
    }

    /// Spell one form with `write` and hand it to a formatter.
    fn spell(f: &mut fmt::Formatter<'_>, write: impl FnOnce(&mut Lexical)) -> fmt::Result {
        let mut l = Lexical::new();
        write(&mut l);
        f.write_str(l.as_str())
    }

    fn byte(&mut self, b: u8) {
        self.bytes[self.len] = b;
        self.len += 1;
    }

    /// Two digits of `v` < 100.
    fn pair(&mut self, v: u64) {
        self.byte(b'0' + (v / 10) as u8);
        self.byte(b'0' + (v % 10) as u8);
    }

    /// `v` in decimal, left-padded with zeros to `width` digits.
    fn digits(&mut self, mut v: u64, width: usize) {
        let len = v.checked_ilog10().map_or(1, |l| l as usize + 1).max(width);
        for slot in self.bytes[self.len..self.len + len].iter_mut().rev() {
            *slot = b'0' + (v % 10) as u8;
            v /= 10;
        }
        self.len += len;
    }

    /// A `u128` in decimal, split into `u64` halves.
    fn wide(&mut self, v: u128) {
        const TEN_19: u128 = 10_000_000_000_000_000_000;
        match u64::try_from(v) {
            Ok(v) => self.digits(v, 0),
            Err(_) => {
                self.wide(v / TEN_19);
                self.digits((v % TEN_19) as u64, 19);
            }
        }
    }

    /// `v` zero-padded to `width` characters, the sign counted among
    /// them (Rust's `{:0width$}`).
    fn signed(&mut self, v: i64, width: usize) {
        if v < 0 {
            self.byte(b'-');
            self.digits(v.unsigned_abs(), width.saturating_sub(1));
        } else {
            self.digits(v as u64, width);
        }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("lexical forms are ASCII")
    }
}

/// Lets `fmt` machinery (the `xs:double` form) write into an [`XmlSink`].
struct FmtSink<'a, S: ?Sized>(&'a mut S);

impl<S: XmlSink + ?Sized> fmt::Write for FmtSink<'_, S> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.push_str(s);
        Ok(())
    }
}

/// The canonical `xs:double` form: `NaN`, `INF`, `-INF`, `-0`; an
/// integral value below 1e15 as an integer; anything else in Rust's
/// shortest round-tripping decimal form.
fn write_double(d: f64, out: &mut (impl XmlSink + ?Sized)) {
    if d.is_nan() {
        out.push_str("NaN");
    } else if d.is_infinite() {
        out.push_str(if d > 0.0 { "INF" } else { "-INF" });
    } else if d == 0.0 && d.is_sign_negative() {
        out.push_str("-0");
    } else if d.fract() == 0.0 && d.abs() < 1e15 {
        let mut l = Lexical::new();
        l.signed(d as i64, 0);
        out.push_str(l.as_str());
    } else {
        let _ = fmt::Write::write_fmt(&mut FmtSink(out), format_args!("{d}"));
    }
}

/// Parse the XSD lexical space of `xs:double`: `INF`, `-INF`, `NaN`,
/// or an optionally signed decimal with an optional exponent.
fn parse_double(s: &str) -> Option<f64> {
    let s = s.trim();
    match s {
        "INF" => return Some(f64::INFINITY),
        "-INF" => return Some(f64::NEG_INFINITY),
        "NaN" => return Some(f64::NAN),
        _ => {}
    }
    fn unsigned(t: &str) -> &str {
        t.strip_prefix(['+', '-']).unwrap_or(t)
    }
    let digits = |t: &str| t.bytes().all(|b| b.is_ascii_digit());
    let (mantissa, exponent) = match unsigned(s).split_once(['e', 'E']) {
        Some((m, e)) => (m, Some(unsigned(e))),
        None => (unsigned(s), None),
    };
    let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, ""));
    let well_formed = (!int.is_empty() || !frac.is_empty())
        && digits(int)
        && digits(frac)
        && exponent.is_none_or(|e| !e.is_empty() && digits(e));
    if well_formed {
        s.parse().ok()
    } else {
        None
    }
}

/// A typed atomic value — the leaves of the XQuery data model.
#[derive(Debug, Clone, PartialEq)]
pub enum AtomicValue {
    /// `xs:untypedAtomic` text.
    Untyped(Arc<str>),
    /// `xs:string`.
    String(Arc<str>),
    /// `xs:boolean`.
    Boolean(bool),
    /// `xs:integer`.
    Integer(i64),
    /// `xs:decimal`.
    Decimal(Decimal),
    /// `xs:double`.
    Double(f64),
    /// `xs:date`.
    Date(Date),
    /// `xs:dateTime`.
    DateTime(DateTime),
}

impl AtomicValue {
    /// Convenience constructor for strings.
    pub fn str(s: &str) -> AtomicValue {
        AtomicValue::String(Arc::from(s))
    }

    /// Convenience constructor for untyped text.
    pub fn untyped(s: &str) -> AtomicValue {
        AtomicValue::Untyped(Arc::from(s))
    }

    /// The dynamic type of this value.
    pub fn type_of(&self) -> AtomicType {
        match self {
            AtomicValue::Untyped(_) => AtomicType::Untyped,
            AtomicValue::String(_) => AtomicType::String,
            AtomicValue::Boolean(_) => AtomicType::Boolean,
            AtomicValue::Integer(_) => AtomicType::Integer,
            AtomicValue::Decimal(_) => AtomicType::Decimal,
            AtomicValue::Double(_) => AtomicType::Double,
            AtomicValue::Date(_) => AtomicType::Date,
            AtomicValue::DateTime(_) => AtomicType::DateTime,
        }
    }

    /// The string value (XQuery `fn:string` on an atomic).
    pub fn string_value(&self) -> String {
        let mut out = String::new();
        self.write_lexical(&mut out);
        out
    }

    /// Append this value's canonical lexical form to `out` — the one
    /// place each form is spelled. Text is borrowed, every other form
    /// is spelled from digits on the stack; no `String` is built.
    pub fn write_lexical(&self, out: &mut (impl XmlSink + ?Sized)) {
        let mut l = Lexical::new();
        match self {
            AtomicValue::Untyped(s) | AtomicValue::String(s) => return out.push_str(s),
            AtomicValue::Boolean(b) => return out.push_str(if *b { "true" } else { "false" }),
            AtomicValue::Double(d) => return write_double(*d, out),
            AtomicValue::Integer(i) => l.signed(*i, 0),
            AtomicValue::Decimal(d) => d.lexical(&mut l),
            AtomicValue::Date(d) => write_day(d.0 as i64, &mut l),
            AtomicValue::DateTime(dt) => dt.lexical(&mut l),
        }
        out.push_str(l.as_str())
    }

    /// XML-Schema-style cast to `target`.
    ///
    /// Untyped and string values are parsed; numerics widen (`integer →
    /// decimal → double`) and narrow with truncation; everything casts to
    /// string via its canonical lexical form.
    pub fn cast_to(&self, target: AtomicType) -> Result<AtomicValue> {
        use AtomicType as T;
        use AtomicValue as V;
        if self.type_of() == target {
            return Ok(self.clone());
        }
        let err = || XdmError::Cast {
            value: self.string_value(),
            target,
        };
        Ok(match target {
            T::AnyAtomic => self.clone(),
            T::Untyped => V::Untyped(Arc::from(self.string_value().as_str())),
            T::String => V::String(Arc::from(self.string_value().as_str())),
            T::Boolean => match self {
                V::Untyped(s) | V::String(s) => match s.trim() {
                    "true" | "1" => V::Boolean(true),
                    "false" | "0" => V::Boolean(false),
                    _ => return Err(err()),
                },
                V::Integer(i) => V::Boolean(*i != 0),
                V::Double(d) => V::Boolean(*d != 0.0 && !d.is_nan()),
                V::Decimal(d) => V::Boolean(d.0 != 0),
                _ => return Err(err()),
            },
            T::Integer => match self {
                V::Untyped(s) | V::String(s) => V::Integer(s.trim().parse().map_err(|_| err())?),
                V::Decimal(d) => V::Integer(d.trunc()),
                V::Double(d) if d.is_finite() => V::Integer(d.trunc() as i64),
                V::Boolean(b) => V::Integer(i64::from(*b)),
                _ => return Err(err()),
            },
            T::Decimal => match self {
                V::Untyped(s) | V::String(s) => V::Decimal(Decimal::parse(s).ok_or_else(err)?),
                V::Integer(i) => V::Decimal(Decimal::from_int(*i)),
                V::Double(d) if d.is_finite() => {
                    V::Decimal(Decimal((d * DECIMAL_SCALE as f64) as i128))
                }
                V::Boolean(b) => V::Decimal(Decimal::from_int(i64::from(*b))),
                _ => return Err(err()),
            },
            T::Double => match self {
                V::Untyped(s) | V::String(s) => V::Double(parse_double(s).ok_or_else(err)?),
                V::Integer(i) => V::Double(*i as f64),
                V::Decimal(d) => V::Double(d.to_f64()),
                V::Boolean(b) => V::Double(f64::from(*b)),
                _ => return Err(err()),
            },
            T::Date => match self {
                V::Untyped(s) | V::String(s) => V::Date(Date::parse(s).ok_or_else(err)?),
                V::DateTime(dt) => V::Date(dt.date()),
                _ => return Err(err()),
            },
            T::DateTime => match self {
                V::Untyped(s) | V::String(s) => V::DateTime(DateTime::parse(s).ok_or_else(err)?),
                V::Date(d) => V::DateTime(DateTime(d.0 as i64 * 86400)),
                _ => return Err(err()),
            },
        })
    }

    /// XQuery *value comparison* (`eq`, `lt`, …) with numeric promotion and
    /// untyped-to-string fallback. Returns `None` for incomparable pairs
    /// (the caller maps that to a type error) and for NaN comparisons.
    pub fn compare(&self, other: &AtomicValue) -> Option<Ordering> {
        use AtomicValue as V;
        match (self, other) {
            (V::Untyped(a), V::Untyped(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (V::String(a), V::String(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (V::Untyped(a), V::String(b)) | (V::String(a), V::Untyped(b)) => {
                Some(a.as_ref().cmp(b.as_ref()))
            }
            (V::Boolean(a), V::Boolean(b)) => Some(a.cmp(b)),
            (V::Date(a), V::Date(b)) => Some(a.cmp(b)),
            (V::DateTime(a), V::DateTime(b)) => Some(a.cmp(b)),
            _ => {
                // numeric promotion; untyped promotes to double
                let a = self.as_numeric()?;
                let b = other.as_numeric()?;
                match (a, b) {
                    (Num::Int(x), Num::Int(y)) => Some(x.cmp(&y)),
                    (Num::Dec(x), Num::Dec(y)) => Some(x.cmp(&y)),
                    (Num::Int(x), Num::Dec(y)) => Some(Decimal::from_int(x).cmp(&y)),
                    (Num::Dec(x), Num::Int(y)) => Some(x.cmp(&Decimal::from_int(y))),
                    (x, y) => x.to_f64().partial_cmp(&y.to_f64()),
                }
            }
        }
    }

    fn as_numeric(&self) -> Option<Num> {
        match self {
            AtomicValue::Integer(i) => Some(Num::Int(*i)),
            AtomicValue::Decimal(d) => Some(Num::Dec(*d)),
            AtomicValue::Double(d) => Some(Num::Dbl(*d)),
            AtomicValue::Untyped(s) => parse_double(s).map(Num::Dbl),
            _ => None,
        }
    }

    /// Numeric arithmetic with XQuery promotion rules. `op` is one of
    /// `+ - * div mod`; integer `div` yields a decimal, per the spec.
    pub fn arithmetic(&self, op: ArithOp, other: &AtomicValue) -> Result<AtomicValue> {
        let err = || XdmError::Arithmetic(self.type_of(), other.type_of());
        let a = self.as_numeric().ok_or_else(err)?;
        let b = other.as_numeric().ok_or_else(err)?;
        use ArithOp as O;
        Ok(match (a, b) {
            (Num::Int(x), Num::Int(y)) => match op {
                O::Add => AtomicValue::Integer(x.wrapping_add(y)),
                O::Sub => AtomicValue::Integer(x.wrapping_sub(y)),
                O::Mul => AtomicValue::Integer(x.wrapping_mul(y)),
                O::Div => AtomicValue::Decimal(
                    Decimal::from_int(x)
                        .div(Decimal::from_int(y))
                        .ok_or_else(err)?,
                ),
                O::Mod => {
                    if y == 0 {
                        return Err(err());
                    }
                    AtomicValue::Integer(x % y)
                }
            },
            (Num::Dbl(_), _) | (_, Num::Dbl(_)) => {
                let (x, y) = (a.to_f64(), b.to_f64());
                AtomicValue::Double(match op {
                    O::Add => x + y,
                    O::Sub => x - y,
                    O::Mul => x * y,
                    O::Div => x / y,
                    O::Mod => x % y,
                })
            }
            _ => {
                let x = a.to_decimal();
                let y = b.to_decimal();
                AtomicValue::Decimal(match op {
                    O::Add => x.add(y),
                    O::Sub => x.sub(y),
                    O::Mul => x.mul(y),
                    O::Div => x.div(y).ok_or_else(err)?,
                    O::Mod => {
                        if y.0 == 0 {
                            return Err(err());
                        }
                        Decimal(x.0 % y.0)
                    }
                })
            }
        })
    }
}

/// The arithmetic operators of XQuery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `div`
    Div,
    /// `mod`
    Mod,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "div",
            ArithOp::Mod => "mod",
        })
    }
}

#[derive(Clone, Copy)]
enum Num {
    Int(i64),
    Dec(Decimal),
    Dbl(f64),
}

impl Num {
    fn to_f64(self) -> f64 {
        match self {
            Num::Int(i) => i as f64,
            Num::Dec(d) => d.to_f64(),
            Num::Dbl(d) => d,
        }
    }
    fn to_decimal(self) -> Decimal {
        match self {
            Num::Int(i) => Decimal::from_int(i),
            Num::Dec(d) => d,
            Num::Dbl(d) => Decimal((d * DECIMAL_SCALE as f64) as i128),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtype_lattice() {
        assert!(AtomicType::Integer.is_subtype_of(AtomicType::Decimal));
        assert!(AtomicType::Integer.is_subtype_of(AtomicType::AnyAtomic));
        assert!(!AtomicType::Decimal.is_subtype_of(AtomicType::Integer));
        assert!(!AtomicType::String.is_subtype_of(AtomicType::Boolean));
        assert!(AtomicType::String.is_subtype_of(AtomicType::String));
    }

    #[test]
    fn intersection_is_symmetric_and_optimistic() {
        assert!(AtomicType::Integer.intersects(AtomicType::Decimal));
        assert!(AtomicType::Decimal.intersects(AtomicType::Integer));
        assert!(AtomicType::Untyped.intersects(AtomicType::DateTime));
        assert!(!AtomicType::String.intersects(AtomicType::Integer));
    }

    #[test]
    fn decimal_parse_and_display_roundtrip() {
        for s in ["0", "1", "-1", "12.5", "-0.25", "1234.000001"] {
            let d = Decimal::parse(s).unwrap();
            assert_eq!(d.to_string(), s.trim_start_matches('+'));
        }
        assert!(Decimal::parse("abc").is_none());
        assert!(Decimal::parse("").is_none());
        assert!(Decimal::parse(".").is_none());
        assert_eq!(Decimal::parse(".5").unwrap().to_string(), "0.5");
    }

    #[test]
    fn decimal_arith_exact() {
        let a = Decimal::parse("0.1").unwrap();
        let b = Decimal::parse("0.2").unwrap();
        assert_eq!(a.add(b).to_string(), "0.3");
        assert_eq!(
            Decimal::parse("1")
                .unwrap()
                .div(Decimal::parse("3").unwrap())
                .unwrap(),
            Decimal(333333)
        );
        assert!(a.div(Decimal(0)).is_none());
    }

    #[test]
    fn date_roundtrip_and_validation() {
        let d = Date::parse("2006-09-12").unwrap(); // VLDB'06 in Seoul
        assert_eq!(d.to_string(), "2006-09-12");
        assert_eq!(d.ymd(), (2006, 9, 12));
        assert_eq!(Date::parse("1970-01-01").unwrap().0, 0);
        assert_eq!(Date::parse("1969-12-31").unwrap().0, -1);
        assert!(Date::parse("2006-02-29").is_none());
        assert!(Date::parse("2004-02-29").is_some()); // leap year
        assert!(Date::parse("2006-13-01").is_none());
    }

    #[test]
    fn datetime_roundtrip_and_epoch_semantics() {
        // The paper's int2date example: SINCE holds seconds since
        // 1970-01-01 and converts to xs:dateTime.
        let dt = DateTime(0);
        assert_eq!(dt.to_string(), "1970-01-01T00:00:00");
        let p = DateTime::parse("2005-06-15T12:30:05Z").unwrap();
        assert_eq!(p.to_string(), "2005-06-15T12:30:05");
        assert_eq!(DateTime::parse(&p.to_string()), Some(p));
        assert!(DateTime::parse("2005-06-15T25:00:00").is_none());
    }

    #[test]
    fn casting_rules() {
        let s = AtomicValue::str("42");
        assert_eq!(
            s.cast_to(AtomicType::Integer).unwrap(),
            AtomicValue::Integer(42)
        );
        assert_eq!(
            AtomicValue::Integer(7).cast_to(AtomicType::Double).unwrap(),
            AtomicValue::Double(7.0)
        );
        assert_eq!(
            AtomicValue::Integer(7).cast_to(AtomicType::String).unwrap(),
            AtomicValue::str("7")
        );
        assert!(AtomicValue::str("x").cast_to(AtomicType::Integer).is_err());
        // dateTime -> date truncation
        let dt = AtomicValue::DateTime(DateTime::parse("2001-02-03T04:05:06").unwrap());
        assert_eq!(
            dt.cast_to(AtomicType::Date).unwrap().string_value(),
            "2001-02-03"
        );
    }

    #[test]
    fn value_comparison_with_promotion() {
        use std::cmp::Ordering::*;
        assert_eq!(
            AtomicValue::Integer(2).compare(&AtomicValue::Double(2.5)),
            Some(Less)
        );
        assert_eq!(
            AtomicValue::Integer(3).compare(&AtomicValue::Decimal(Decimal::from_int(3))),
            Some(Equal)
        );
        assert_eq!(
            AtomicValue::str("a").compare(&AtomicValue::str("b")),
            Some(Less)
        );
        assert_eq!(
            AtomicValue::untyped("5").compare(&AtomicValue::Integer(4)),
            Some(Greater)
        );
        assert_eq!(
            AtomicValue::str("a").compare(&AtomicValue::Integer(1)),
            None
        );
        assert_eq!(
            AtomicValue::Double(f64::NAN).compare(&AtomicValue::Double(1.0)),
            None
        );
    }

    #[test]
    fn arithmetic_promotion() {
        let r = AtomicValue::Integer(1)
            .arithmetic(ArithOp::Add, &AtomicValue::Integer(2))
            .unwrap();
        assert_eq!(r, AtomicValue::Integer(3));
        // integer div yields decimal per XQuery
        let r = AtomicValue::Integer(1)
            .arithmetic(ArithOp::Div, &AtomicValue::Integer(2))
            .unwrap();
        assert_eq!(r.string_value(), "0.5");
        let r = AtomicValue::Integer(1)
            .arithmetic(ArithOp::Add, &AtomicValue::Double(0.5))
            .unwrap();
        assert_eq!(r, AtomicValue::Double(1.5));
        assert!(AtomicValue::str("x")
            .arithmetic(ArithOp::Add, &AtomicValue::Integer(1))
            .is_err());
        assert!(AtomicValue::Integer(1)
            .arithmetic(ArithOp::Mod, &AtomicValue::Integer(0))
            .is_err());
    }

    #[test]
    fn double_lexical_forms_are_xquerys() {
        let form = |d: f64| AtomicValue::Double(d).string_value();
        assert_eq!(form(f64::INFINITY), "INF");
        assert_eq!(form(f64::NEG_INFINITY), "-INF");
        assert_eq!(form(f64::NAN), "NaN");
        assert_eq!(form(-0.0), "-0");
        assert_eq!(form(0.0), "0");
        assert_eq!(form(-3.0), "-3");
        assert_eq!(form(-2.5), "-2.5");
        assert_eq!(form(1e15), "1000000000000000");
        assert_eq!(form(1e-7), "0.0000001");
    }

    #[test]
    fn double_cast_accepts_only_the_xsd_lexical_space() {
        let cast = |s: &str| AtomicValue::str(s).cast_to(AtomicType::Double);
        for (text, want) in [
            ("INF", f64::INFINITY),
            ("-INF", f64::NEG_INFINITY),
            (" 12 ", 12.0),
            ("-.5E-2", -0.005),
            ("+1.5", 1.5),
            ("3.", 3.0),
            ("1e3", 1000.0),
        ] {
            assert_eq!(cast(text).unwrap(), AtomicValue::Double(want), "{text}");
        }
        let AtomicValue::Double(nan) = cast("NaN").unwrap() else {
            panic!("NaN casts to a double")
        };
        assert!(nan.is_nan());
        for text in [
            "inf", "-inf", "+INF", "infinity", "Infinity", "nan", "NAN", "", ".", "e3", "1e",
            "1e+", "1.2.3", "0x10", "1_000",
        ] {
            assert!(
                matches!(cast(text), Err(XdmError::Cast { .. })),
                "{text:?} is not an xs:double"
            );
        }
        // untyped text promotes through the same lexical space
        assert_eq!(
            AtomicValue::untyped("inf").compare(&AtomicValue::Double(1.0)),
            None
        );
    }

    #[test]
    fn boundary_forms_match_the_fmt_formulas() {
        for i in [i64::MIN, -1, 0, 7, i64::MAX] {
            assert_eq!(AtomicValue::Integer(i).string_value(), i.to_string());
        }
        for (units, want) in [
            (-1_250_000, "-1.25"),
            (-500_000, "-0.5"),
            (-1, "-0.000001"),
            (10_000_000, "10"),
            (i128::MAX, "170141183460469231731687303715884.105727"),
            (i128::MIN, "-170141183460469231731687303715884.105728"),
        ] {
            assert_eq!(Decimal(units).to_string(), want);
        }
        for (y, m, d) in [(-5, 3, 1), (-2024, 12, 31), (0, 1, 1), (12345, 6, 7)] {
            let date = Date::from_ymd(y, m, d).unwrap();
            assert_eq!(date.to_string(), format!("{y:04}-{m:02}-{d:02}"));
        }
        assert_eq!(DateTime(-1).to_string(), "1969-12-31T23:59:59");
        assert_eq!(
            DateTime(-62_167_219_200 - 86_400).to_string(),
            "-001-12-31T00:00:00"
        );
    }

    #[test]
    fn string_value_canonical_forms() {
        assert_eq!(AtomicValue::Boolean(true).string_value(), "true");
        assert_eq!(AtomicValue::Double(3.0).string_value(), "3");
        assert_eq!(AtomicValue::Double(3.5).string_value(), "3.5");
        assert_eq!(
            AtomicValue::Decimal(Decimal::parse("2.50").unwrap()).string_value(),
            "2.5"
        );
    }
}
