//! Fundamental solver types: variables, literals and three-valued booleans.

use std::fmt;
use std::ops::Not;

/// A propositional variable, numbered from 0.
///
/// Variables are created with [`crate::Solver::new_var`] and are only
/// meaningful for the solver instance that created them.
///
/// # Examples
///
/// ```
/// use cf_sat::{Solver, Var};
/// let mut s = Solver::new();
/// let v: Var = s.new_var();
/// assert_eq!(v.index(), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Creates a variable from a raw index.
    ///
    /// Callers must ensure the index was produced by the same solver.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Var(index as u32)
    }

    /// The zero-based index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit::new(self, true)
    }

    /// The negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit::new(self, false)
    }

    /// The literal of this variable with the given sign
    /// (`true` means positive).
    #[inline]
    pub fn lit(self, sign: bool) -> Lit {
        Lit::new(self, sign)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0 + 1)
    }
}

/// A literal: a variable together with a sign.
///
/// Encoded as `2 * var + (negated as usize)`, the classic MiniSat layout,
/// so that a literal indexes watch lists directly.
///
/// # Examples
///
/// ```
/// use cf_sat::Solver;
/// let mut s = Solver::new();
/// let x = s.new_var().positive();
/// assert_eq!(!!x, x);
/// assert_ne!(!x, x);
/// assert_eq!((!x).var(), x.var());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// Creates a literal from a variable and a sign (`true` = positive).
    #[inline]
    pub fn new(var: Var, sign: bool) -> Self {
        Lit(var.0 << 1 | u32::from(!sign))
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` if this is the positive literal of its variable.
    #[inline]
    pub fn sign(self) -> bool {
        self.0 & 1 == 0
    }

    /// The dense index of this literal (usable as a watch-list index).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from [`Lit::index`].
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Lit(index as u32)
    }

    /// Converts from a DIMACS-style non-zero integer
    /// (`1` is the positive literal of the first variable).
    ///
    /// A literal packs a variable index below 2^31 and a sign into 32
    /// bits, so `code` ranges over `1 ..= 2^31` in magnitude.
    ///
    /// # Panics
    ///
    /// Panics if `code == 0` or `|code| > 2^31`.
    pub fn from_dimacs(code: i64) -> Self {
        assert!(code != 0, "DIMACS literal must be non-zero");
        assert!(
            code.unsigned_abs() <= Self::MAX_DIMACS,
            "DIMACS literal {code} is beyond 2^31 in magnitude"
        );
        let var = Var((code.unsigned_abs() - 1) as u32);
        Lit::new(var, code > 0)
    }

    /// The largest magnitude [`Lit::from_dimacs`] accepts: 2^31, the
    /// number of variables a literal can name.
    pub(crate) const MAX_DIMACS: u64 = 1 << 31;

    /// Converts to a DIMACS-style non-zero integer.
    pub fn to_dimacs(self) -> i64 {
        let v = i64::from(self.0 >> 1) + 1;
        if self.sign() {
            v
        } else {
            -v
        }
    }
}

impl Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.sign() { "" } else { "-" }, self.var().0)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dimacs())
    }
}

/// A three-valued boolean: true, false or unassigned.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Not assigned.
    #[default]
    Undef,
}

impl LBool {
    /// Converts a concrete boolean.
    #[inline]
    pub fn from_bool(b: bool) -> Self {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }

    /// `Some(bool)` if assigned, `None` otherwise.
    #[inline]
    pub fn to_option(self) -> Option<bool> {
        match self {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// `true` when assigned true.
    #[inline]
    pub fn is_true(self) -> bool {
        self == LBool::True
    }

    /// `true` when assigned false.
    #[inline]
    pub fn is_false(self) -> bool {
        self == LBool::False
    }

    /// `true` when unassigned.
    #[inline]
    pub fn is_undef(self) -> bool {
        self == LBool::Undef
    }

    /// Negates the value; `Undef` stays `Undef`.
    #[inline]
    pub fn negate(self) -> Self {
        match self {
            LBool::True => LBool::False,
            LBool::False => LBool::True,
            LBool::Undef => LBool::Undef,
        }
    }

    /// Applies the sign of a literal: `xor(false)` flips.
    #[inline]
    pub fn xor_sign(self, sign: bool) -> Self {
        if sign {
            self
        } else {
            self.negate()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lit_roundtrip() {
        for i in 0..64 {
            let v = Var::from_index(i);
            let p = v.positive();
            let n = v.negative();
            assert_eq!(p.var(), v);
            assert_eq!(n.var(), v);
            assert!(p.sign());
            assert!(!n.sign());
            assert_eq!(!p, n);
            assert_eq!(!n, p);
            assert_eq!(Lit::from_index(p.index()), p);
        }
    }

    #[test]
    fn dimacs_roundtrip() {
        for code in [-5i64, -1, 1, 2, 17] {
            assert_eq!(Lit::from_dimacs(code).to_dimacs(), code);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn dimacs_zero_panics() {
        let _ = Lit::from_dimacs(0);
    }

    #[test]
    fn dimacs_range_ends_at_two_to_the_31() {
        let top = 1i64 << 31;
        for code in [top, -top] {
            assert_eq!(Lit::from_dimacs(code).to_dimacs(), code);
        }
        assert_eq!(Lit::from_dimacs(-top).index(), u32::MAX as usize);
    }

    #[test]
    #[should_panic(expected = "beyond 2^31")]
    fn dimacs_literal_beyond_the_range_panics() {
        let _ = Lit::from_dimacs((1i64 << 31) + 1);
    }

    #[test]
    fn lbool_ops() {
        assert_eq!(LBool::from_bool(true), LBool::True);
        assert_eq!(LBool::True.negate(), LBool::False);
        assert_eq!(LBool::Undef.negate(), LBool::Undef);
        assert_eq!(LBool::True.xor_sign(false), LBool::False);
        assert_eq!(LBool::False.to_option(), Some(false));
        assert_eq!(LBool::Undef.to_option(), None);
        assert!(LBool::Undef.is_undef());
    }
}
