//! Hash-consed symbolic terms.
//!
//! The symbolic executor produces a term DAG instead of textual SSA: every
//! load introduces a fresh [`VTerm::LoadResult`], every test input a fresh
//! [`VTerm::Arg`], every conditional branch a fresh boolean. This is the
//! register-SSA construction of paper §3.2.1 in DAG form.
//!
//! Construction performs constant folding, so fully concrete subprograms
//! (such as initialization code with fixed arguments) melt away into
//! constants before the CNF encoding ever sees them.

use cf_lsl::{PrimOp, Value};

use crate::fxhash::FxHashMap;

/// Index of a value term in the arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VTermId(pub u32);

/// Index of a boolean term in the arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BTermId(pub u32);

/// Identifies a memory access event.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct EventId(pub u32);

impl EventId {
    /// Zero-based index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A symbolic LSL value.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum VTerm {
    /// A concrete value.
    Const(Value),
    /// The value read by a load event (fresh unknown, constrained by the
    /// memory model axioms).
    LoadResult(EventId),
    /// A nondeterministic test argument, restricted to {0, 1} (Fig. 8:
    /// "chosen nondeterministically out of {0,1}").
    Arg(u32),
    /// A primitive operation over value terms.
    Prim(PrimOp, Vec<VTermId>),
    /// A guarded merge: `if c then a else b`.
    Mux(BTermId, VTermId, VTermId),
}

/// A symbolic boolean (guards, path conditions).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum BTerm {
    /// Constant.
    Const(bool),
    /// A toggle literal ([`cf_lsl::Stmt::Toggle`]): true when the toggle
    /// site is active. Encoded as a dedicated SAT variable so a checking
    /// session selects mutants and candidate fences through assumptions.
    Toggle(u32),
    /// C truthiness of a value term (undefined values are flagged as
    /// errors separately; their truthiness is arbitrary).
    Truthy(VTermId),
    /// The value term is `undefined`.
    IsUndef(VTermId),
    /// Negation.
    Not(BTermId),
    /// Conjunction.
    And(BTermId, BTermId),
    /// Disjunction.
    Or(BTermId, BTermId),
}

/// Arena of hash-consed terms.
#[derive(Default, Debug)]
pub struct TermArena {
    vterms: Vec<VTerm>,
    vhash: FxHashMap<VTerm, VTermId>,
    bterms: Vec<BTerm>,
    bhash: FxHashMap<BTerm, BTermId>,
}

impl TermArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of value terms.
    pub fn num_vterms(&self) -> usize {
        self.vterms.len()
    }

    /// Interns a value term.
    pub fn vterm(&mut self, t: VTerm) -> VTermId {
        if let Some(&id) = self.vhash.get(&t) {
            return id;
        }
        let id = VTermId(self.vterms.len() as u32);
        self.vterms.push(t.clone());
        self.vhash.insert(t, id);
        id
    }

    /// Interns a boolean term.
    pub fn bterm(&mut self, t: BTerm) -> BTermId {
        if let Some(&id) = self.bhash.get(&t) {
            return id;
        }
        let id = BTermId(self.bterms.len() as u32);
        self.bterms.push(t.clone());
        self.bhash.insert(t, id);
        id
    }

    /// Looks up a value term.
    pub fn vt(&self, id: VTermId) -> &VTerm {
        &self.vterms[id.0 as usize]
    }

    /// Looks up a boolean term.
    pub fn bt(&self, id: BTermId) -> &BTerm {
        &self.bterms[id.0 as usize]
    }

    // ------------------------------------------------------- constructors

    /// A constant value term.
    pub fn const_val(&mut self, v: Value) -> VTermId {
        self.vterm(VTerm::Const(v))
    }

    /// The concrete value of a term, if it is constant.
    pub fn as_const(&self, id: VTermId) -> Option<&Value> {
        match self.vt(id) {
            VTerm::Const(v) => Some(v),
            _ => None,
        }
    }

    /// The concrete truth of a boolean term, if constant.
    pub fn as_const_bool(&self, id: BTermId) -> Option<bool> {
        match self.bt(id) {
            BTerm::Const(b) => Some(*b),
            _ => None,
        }
    }

    /// Constant `true`.
    pub fn btrue(&mut self) -> BTermId {
        self.bterm(BTerm::Const(true))
    }

    /// Constant `false`.
    pub fn bfalse(&mut self) -> BTermId {
        self.bterm(BTerm::Const(false))
    }

    /// The toggle literal of a mutation site (hash-consed: every
    /// unrolling of one site shares the term, hence the SAT variable).
    pub fn toggle(&mut self, site: u32) -> BTermId {
        self.bterm(BTerm::Toggle(site))
    }

    /// A primitive application with constant folding.
    pub fn prim(&mut self, op: PrimOp, args: Vec<VTermId>) -> VTermId {
        // Fold when every argument is constant and evaluation succeeds.
        let consts: Option<Vec<Value>> = args.iter().map(|&a| self.as_const(a).cloned()).collect();
        if let Some(vals) = consts {
            if let Some(v) = op.eval(&vals) {
                return self.const_val(v);
            }
            // Concrete type error: the result is the undefined value
            // (error detection happens at use sites).
            return self.const_val(Value::Undefined);
        }
        // Identity folds structurally.
        if op == PrimOp::Id {
            return args[0];
        }
        self.vterm(VTerm::Prim(op, args))
    }

    /// A guarded merge with folding.
    pub fn mux(&mut self, c: BTermId, a: VTermId, b: VTermId) -> VTermId {
        match self.as_const_bool(c) {
            Some(true) => a,
            Some(false) => b,
            None if a == b => a,
            None => self.vterm(VTerm::Mux(c, a, b)),
        }
    }

    /// Truthiness with folding.
    pub fn truthy(&mut self, v: VTermId) -> BTermId {
        if let Some(val) = self.as_const(v) {
            // Arbitrary choice for undefined (flagged as an error at the
            // use site): undefined counts as false.
            let b = val.truthy().unwrap_or(false);
            return self.bterm(BTerm::Const(b));
        }
        self.bterm(BTerm::Truthy(v))
    }

    /// `IsUndef` with folding.
    pub fn is_undef(&mut self, v: VTermId) -> BTermId {
        if let Some(val) = self.as_const(v) {
            let b = val.is_undefined();
            return self.bterm(BTerm::Const(b));
        }
        self.bterm(BTerm::IsUndef(v))
    }

    /// Negation with folding.
    pub fn not(&mut self, b: BTermId) -> BTermId {
        match self.bt(b) {
            BTerm::Const(v) => {
                let v = !*v;
                self.bterm(BTerm::Const(v))
            }
            BTerm::Not(inner) => *inner,
            _ => self.bterm(BTerm::Not(b)),
        }
    }

    /// Conjunction with folding.
    pub fn and(&mut self, a: BTermId, b: BTermId) -> BTermId {
        match (self.as_const_bool(a), self.as_const_bool(b)) {
            (Some(false), _) | (_, Some(false)) => self.bfalse(),
            (Some(true), _) => b,
            (_, Some(true)) => a,
            _ if a == b => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.bterm(BTerm::And(a, b))
            }
        }
    }

    /// Disjunction with folding.
    pub fn or(&mut self, a: BTermId, b: BTermId) -> BTermId {
        match (self.as_const_bool(a), self.as_const_bool(b)) {
            (Some(true), _) | (_, Some(true)) => self.btrue(),
            (Some(false), _) => b,
            (_, Some(false)) => a,
            _ if a == b => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.bterm(BTerm::Or(a, b))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut a = TermArena::new();
        let x = a.const_val(Value::Int(1));
        let y = a.const_val(Value::Int(1));
        assert_eq!(x, y);
        assert_eq!(a.num_vterms(), 1);
    }

    #[test]
    fn prim_folds_constants() {
        let mut a = TermArena::new();
        let one = a.const_val(Value::Int(1));
        let two = a.const_val(Value::Int(2));
        let sum = a.prim(PrimOp::Add, vec![one, two]);
        assert_eq!(a.as_const(sum), Some(&Value::Int(3)));
    }

    #[test]
    fn prim_type_error_folds_to_undef() {
        let mut a = TermArena::new();
        let p = a.const_val(Value::ptr(vec![0]));
        let bad = a.prim(PrimOp::Lt, vec![p, p]);
        assert_eq!(a.as_const(bad), Some(&Value::Undefined));
    }

    #[test]
    fn bool_folding() {
        let mut a = TermArena::new();
        let t = a.btrue();
        let f = a.bfalse();
        let ev = a.vterm(VTerm::Arg(0));
        let x = a.truthy(ev);
        assert_eq!(a.and(t, x), x);
        assert_eq!(a.and(f, x), f);
        assert_eq!(a.or(t, x), t);
        assert_eq!(a.or(f, x), x);
        let nx = a.not(x);
        assert_eq!(a.not(nx), x, "double negation folds");
        assert_eq!(a.and(x, x), x);
    }

    #[test]
    fn and_is_commutative_in_the_arena() {
        let mut a = TermArena::new();
        let v0 = a.vterm(VTerm::Arg(0));
        let v1 = a.vterm(VTerm::Arg(1));
        let x = a.truthy(v0);
        let y = a.truthy(v1);
        assert_eq!(a.and(x, y), a.and(y, x));
        assert_eq!(a.or(x, y), a.or(y, x));
    }

    #[test]
    fn mux_folding() {
        let mut a = TermArena::new();
        let t = a.btrue();
        let x = a.vterm(VTerm::Arg(0));
        let y = a.vterm(VTerm::Arg(1));
        assert_eq!(a.mux(t, x, y), x);
        let ev = a.vterm(VTerm::Arg(2));
        let c = a.truthy(ev);
        assert_eq!(a.mux(c, x, x), x);
    }

    #[test]
    fn truthy_of_undef_is_false() {
        let mut a = TermArena::new();
        let u = a.const_val(Value::Undefined);
        let b = a.truthy(u);
        assert_eq!(a.as_const_bool(b), Some(false));
        let iu = a.is_undef(u);
        assert_eq!(a.as_const_bool(iu), Some(true));
    }
}
