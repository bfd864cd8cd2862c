//! Runtime values of the load-store language.
//!
//! LSL is untyped, but values carry a runtime type tag (paper §3.1,
//! "Values and types"): a value is `undefined`, an integer `n`, or a
//! pointer `[n0 n1 ... nk]` consisting of a base address and a path of
//! field/array offsets (paper Fig. 5). Keeping offsets separate from the
//! base avoids arithmetic in the SAT encoding and lets the range analysis
//! fix most of the path statically.

use std::fmt;

/// An LSL runtime value.
///
/// # Examples
///
/// ```
/// use cf_lsl::Value;
/// let p = Value::ptr(vec![0, 1, 2]);
/// assert!(p.is_ptr());
/// assert_eq!(p.truthy(), Some(true));
/// assert_eq!(Value::Int(0).truthy(), Some(false));
/// assert_eq!(Value::Undefined.truthy(), None);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Value {
    /// No value has been assigned; using it is a detected error.
    #[default]
    Undefined,
    /// An integer.
    Int(i64),
    /// A pointer: base address followed by a path of offsets.
    Ptr(Vec<u32>),
}

impl Value {
    /// Convenience constructor for pointers.
    ///
    /// # Panics
    ///
    /// Panics if `path` is empty — a pointer needs at least a base.
    pub fn ptr(path: Vec<u32>) -> Value {
        assert!(!path.is_empty(), "pointer needs at least a base address");
        Value::Ptr(path)
    }

    /// Constructs a boolean as the integers 0/1 (LSL has no bool type).
    pub fn bool(b: bool) -> Value {
        Value::Int(i64::from(b))
    }

    /// `true` if this is [`Value::Undefined`].
    pub fn is_undefined(&self) -> bool {
        matches!(self, Value::Undefined)
    }

    /// `true` if this is a pointer.
    pub fn is_ptr(&self) -> bool {
        matches!(self, Value::Ptr(_))
    }

    /// The integer payload, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The pointer path, if any.
    pub fn as_ptr(&self) -> Option<&[u32]> {
        match self {
            Value::Ptr(p) => Some(p),
            _ => None,
        }
    }

    /// C-style truthiness: integers are true iff non-zero, pointers are
    /// always true (the null pointer is the integer 0). `None` for
    /// undefined values — the caller must report an error.
    pub fn truthy(&self) -> Option<bool> {
        match self {
            Value::Undefined => None,
            Value::Int(n) => Some(*n != 0),
            Value::Ptr(_) => Some(true),
        }
    }

    /// Structural equality as observed by programs: comparing anything
    /// with an undefined value is an error (`None`). An integer never
    /// equals a pointer (the integer 0 serves as the null pointer, and a
    /// valid pointer is never null).
    pub fn program_eq(&self, other: &Value) -> Option<bool> {
        match (self, other) {
            (Value::Undefined, _) | (_, Value::Undefined) => None,
            (Value::Int(a), Value::Int(b)) => Some(a == b),
            (Value::Ptr(a), Value::Ptr(b)) => Some(a == b),
            (Value::Int(_), Value::Ptr(_)) | (Value::Ptr(_), Value::Int(_)) => Some(false),
        }
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Int(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::bool(b)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Undefined => write!(f, "undef"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Ptr(p) => {
                write!(f, "[")?;
                for (i, n) in p.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{n}")?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert_eq!(Value::Int(0).truthy(), Some(false));
        assert_eq!(Value::Int(-3).truthy(), Some(true));
        assert_eq!(Value::ptr(vec![2]).truthy(), Some(true));
        assert_eq!(Value::Undefined.truthy(), None);
    }

    #[test]
    fn program_equality() {
        let p = Value::ptr(vec![1, 0]);
        let q = Value::ptr(vec![1, 1]);
        assert_eq!(p.program_eq(&p.clone()), Some(true));
        assert_eq!(p.program_eq(&q), Some(false));
        assert_eq!(Value::Int(0).program_eq(&p), Some(false));
        assert_eq!(Value::Int(7).program_eq(&Value::Int(7)), Some(true));
        assert_eq!(Value::Undefined.program_eq(&Value::Int(0)), None);
    }

    #[test]
    fn display() {
        assert_eq!(Value::ptr(vec![0, 1, 2]).to_string(), "[0 1 2]");
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Undefined.to_string(), "undef");
    }

    #[test]
    #[should_panic(expected = "base address")]
    fn empty_pointer_panics() {
        let _ = Value::ptr(vec![]);
    }
}
