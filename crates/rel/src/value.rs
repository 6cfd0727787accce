//! Dynamically typed SQL values.

use std::cmp::Ordering;
use std::fmt;

/// A SQL value. Dates are carried as ISO-8601 strings, which compare
/// correctly lexicographically — the hotel schema's `startdate`/`enddate`
/// need equality and grouping only.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String (also used for dates).
    Str(String),
    /// Boolean (result of comparisons; not a storable column type here).
    Bool(bool),
}

impl Value {
    /// True if this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view, if this value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// SQL three-valued-logic truthiness: NULL is "unknown", which filters
    /// treat as false.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Null => false,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
        }
    }

    /// SQL comparison. Returns `None` when either side is NULL (unknown) or
    /// the types are incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// SQL equality: NULL = anything is unknown (`None`).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Strict identity key: unlike the equality key of `GROUP BY` and the
    /// hash joins, `Int(2)`, `Float(2.0)` and `Str("2")` are three keys,
    /// and so are `0.0` and `-0.0` (floats compare by bits; every NaN is
    /// one key). Values with equal identity behave identically everywhere,
    /// which is what lets a batch serve duplicate bindings with one
    /// execution.
    pub(crate) fn identity(&self) -> Identity<'_> {
        match self {
            Value::Null => Identity::Null,
            Value::Int(i) => Identity::Int(*i),
            Value::Float(f) if f.is_nan() => Identity::Float(f64::NAN.to_bits()),
            Value::Float(f) => Identity::Float(f.to_bits()),
            Value::Str(s) => Identity::Str(s),
            Value::Bool(b) => Identity::Bool(*b),
        }
    }

    /// Renders the value the way it appears as an XML attribute: integers
    /// without decimal point, floats with, NULL as empty string (the
    /// publisher omits NULL attributes entirely).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// [`Value::render`], appended to `out`.
    pub fn render_into(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = match self {
            Value::Null => Ok(()),
            Value::Int(i) => write!(out, "{i}"),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 1e15 => write!(out, "{}", *f as i64),
            Value::Float(f) => write!(out, "{f}"),
            Value::Str(s) => out.write_str(s),
            Value::Bool(b) => write!(out, "{b}"),
        };
    }
}

/// Hashable strict-identity key for a value (see [`Value::identity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Identity<'a> {
    Null,
    Int(i64),
    /// Bit pattern of the float, NaNs canonicalized.
    Float(u64),
    Str(&'a str),
    Bool(bool),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                // Keep the decimal point on every finite integral float
                // (`fract()` is NaN for the infinities), so the literal
                // reparses as a float: `3.0` and `1000000000000000.0`, not
                // the integers `3` and `1000000000000000`.
                if v.fract() == 0.0 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert!(!Value::Null.is_truthy());
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn string_comparison_lexicographic() {
        assert_eq!(
            Value::Str("2003-06-09".into()).sql_cmp(&Value::Str("2003-06-12".into())),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn incomparable_types() {
        assert_eq!(Value::Str("a".into()).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn render_for_xml_attributes() {
        assert_eq!(Value::Int(42).render(), "42");
        assert_eq!(Value::Float(3.0).render(), "3");
        assert_eq!(Value::Float(3.5).render(), "3.5");
        assert_eq!(Value::Str("chicago".into()).render(), "chicago");
        assert_eq!(Value::Null.render(), "");
        let mut out = String::from("x=");
        Value::Float(-2.5).render_into(&mut out);
        assert_eq!(out, "x=-2.5");
    }

    #[test]
    fn identity_is_strict() {
        let two = Value::Str("2".into());
        assert_ne!(Value::Int(2).identity(), Value::Float(2.0).identity());
        assert_ne!(Value::Float(2.0).identity(), two.identity());
        assert_ne!(Value::Float(0.0).identity(), Value::Float(-0.0).identity());
        assert_eq!(
            Value::Float(f64::NAN).identity(),
            Value::Float(-f64::NAN).identity()
        );
        assert_eq!(two.identity(), Identity::Str("2"));
    }

    #[test]
    fn display_quotes_strings() {
        assert_eq!(Value::Str("o'hare".into()).to_string(), "'o''hare'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
