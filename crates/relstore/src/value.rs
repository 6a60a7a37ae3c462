//! Typed values stored in table cells.

use std::cmp::Ordering;
use std::fmt;

/// The data type of a column or value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float (totally ordered via IEEE total order for storage).
    Float,
    /// UTF-8 string.
    Text,
    /// Absence of a value; compatible with every column type.
    Null,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "int"),
            DataType::Float => write!(f, "float"),
            DataType::Text => write!(f, "text"),
            DataType::Null => write!(f, "null"),
        }
    }
}

/// A single cell value.
///
/// Values are ordered (floats via total ordering) and hashable so they can be
/// used as index keys. `Null` compares less than everything else and equals
/// only itself.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Text(String),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// The runtime [`DataType`] of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Text(_) => DataType::Text,
        }
    }

    /// True when the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Borrow the inner string if this is a text value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Whether this value can be stored in a column of type `ty`
    /// (`Null` is storable everywhere).
    pub fn conforms_to(&self, ty: DataType) -> bool {
        self.is_null() || self.data_type() == ty
    }

    /// Parse a string into the "best" value of the given type.
    ///
    /// Returns `None` when the string does not parse as `ty`.
    pub fn parse_as(s: &str, ty: DataType) -> Option<Value> {
        match ty {
            DataType::Int => s.parse::<i64>().ok().map(Value::Int),
            DataType::Float => s.parse::<f64>().ok().map(Value::Float),
            DataType::Text => Some(Value::text(s)),
            DataType::Null => None,
        }
    }

    /// Render the value as it would appear in annotation text / query output.
    /// `Null` renders as the empty string.
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Int(i) => i.to_string(),
            Value::Float(x) => format!("{x}"),
            Value::Text(s) => s.clone(),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Text(a), Value::Text(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Int(i) => i.hash(state),
            Value::Float(x) => x.to_bits().hash(state),
            Value::Text(s) => s.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Int(_) => 1,
                Float(_) => 2,
                Text(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "{s}"),
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
        Value::text(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn data_types_roundtrip() {
        assert_eq!(Value::Int(7).data_type(), DataType::Int);
        assert_eq!(Value::Float(1.5).data_type(), DataType::Float);
        assert_eq!(Value::text("x").data_type(), DataType::Text);
        assert_eq!(Value::Null.data_type(), DataType::Null);
    }

    #[test]
    fn null_conforms_to_everything() {
        for ty in [DataType::Int, DataType::Float, DataType::Text] {
            assert!(Value::Null.conforms_to(ty));
        }
        assert!(Value::Int(1).conforms_to(DataType::Int));
        assert!(!Value::Int(1).conforms_to(DataType::Text));
    }

    #[test]
    fn parse_as_respects_type() {
        assert_eq!(Value::parse_as("42", DataType::Int), Some(Value::Int(42)));
        assert_eq!(Value::parse_as("4.5", DataType::Float), Some(Value::Float(4.5)));
        assert_eq!(Value::parse_as("abc", DataType::Int), None);
        assert_eq!(Value::parse_as("abc", DataType::Text), Some(Value::text("abc")));
        assert_eq!(Value::parse_as("x", DataType::Null), None);
    }

    #[test]
    fn float_equality_uses_bits() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(hash_of(&Value::Float(1.25)), hash_of(&Value::Float(1.25)));
    }

    #[test]
    fn ordering_is_total_and_null_first() {
        let mut vals = [
            Value::text("b"),
            Value::Int(3),
            Value::Null,
            Value::Float(2.5),
            Value::Int(-1),
            Value::text("a"),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(-1));
        assert_eq!(vals[2], Value::Int(3));
        assert_eq!(vals[3], Value::Float(2.5));
        assert_eq!(vals[4], Value::text("a"));
        assert_eq!(vals[5], Value::text("b"));
    }

    #[test]
    fn render_matches_display_for_non_null() {
        for v in [Value::Int(9), Value::Float(0.5), Value::text("yaaB")] {
            assert_eq!(v.render(), v.to_string());
        }
        assert_eq!(Value::Null.render(), "");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(1.5f64), Value::Float(1.5));
        assert_eq!(Value::from("g"), Value::text("g"));
        assert_eq!(Value::from(String::from("g")), Value::text("g"));
    }
}
