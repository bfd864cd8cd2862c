//! The statement forms of the load-store language (paper Fig. 4).

use crate::layout::StructId;
use crate::prim::PrimOp;
use crate::value::Value;
use std::fmt;

/// A virtual register, local to one procedure.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Reg(pub u32);

impl Reg {
    /// Zero-based register index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifies a procedure within a [`crate::Program`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ProcId(pub u32);

impl ProcId {
    /// Zero-based procedure index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A label identifying a [`Stmt::Block`], unique within a procedure.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BlockTag(pub u32);

impl fmt::Display for BlockTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A C11-style per-access memory ordering annotation.
///
/// `Plain` marks an unannotated access (an ordinary mini-C read or
/// write); the remaining five are the C11 orderings. Built-in hardware
/// models ignore these tags entirely — they become meaningful through
/// the `[RLX]`/`[ACQ]`/`[REL]`/`[SC]`/`[NA]` filter sets of declarative
/// `.cfm` models (see `specs/c11.cfm`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum MemOrder {
    /// An unannotated (non-atomic) access.
    Plain,
    /// `relaxed`: atomic, no ordering.
    Relaxed,
    /// `acquire`: loads only.
    Acquire,
    /// `release`: stores only.
    Release,
    /// `acq_rel`: read-modify-writes and fences.
    AcqRel,
    /// `seq_cst`: the default for annotated atomic operations.
    SeqCst,
}

impl MemOrder {
    /// The mini-C spelling, e.g. `"acq_rel"` (`Plain` has no spelling
    /// and prints as `"plain"`).
    pub fn as_str(self) -> &'static str {
        match self {
            MemOrder::Plain => "plain",
            MemOrder::Relaxed => "relaxed",
            MemOrder::Acquire => "acquire",
            MemOrder::Release => "release",
            MemOrder::AcqRel => "acq_rel",
            MemOrder::SeqCst => "seq_cst",
        }
    }

    /// Parses the mini-C spelling of the five C11 orderings (`Plain` is
    /// not writable in source).
    pub fn parse(s: &str) -> Option<MemOrder> {
        match s {
            "relaxed" => Some(MemOrder::Relaxed),
            "acquire" => Some(MemOrder::Acquire),
            "release" => Some(MemOrder::Release),
            "acq_rel" => Some(MemOrder::AcqRel),
            "seq_cst" => Some(MemOrder::SeqCst),
            _ => None,
        }
    }

    /// Is this an atomic ordering (anything except `Plain`)?
    pub fn is_atomic(self) -> bool {
        self != MemOrder::Plain
    }

    /// Does this ordering include acquire semantics (`acquire`,
    /// `acq_rel` or `seq_cst`)?
    pub fn is_acquire(self) -> bool {
        matches!(
            self,
            MemOrder::Acquire | MemOrder::AcqRel | MemOrder::SeqCst
        )
    }

    /// Does this ordering include release semantics (`release`,
    /// `acq_rel` or `seq_cst`)?
    pub fn is_release(self) -> bool {
        matches!(
            self,
            MemOrder::Release | MemOrder::AcqRel | MemOrder::SeqCst
        )
    }

    /// Is this `seq_cst`?
    pub fn is_seq_cst(self) -> bool {
        self == MemOrder::SeqCst
    }

    /// Splits a read-modify-write ordering into the orderings of its
    /// load and store halves: the load carries the acquire side, the
    /// store the release side, and `seq_cst` covers both.
    pub fn rmw_split(self) -> (MemOrder, MemOrder) {
        match self {
            MemOrder::Plain => (MemOrder::Plain, MemOrder::Plain),
            MemOrder::Relaxed => (MemOrder::Relaxed, MemOrder::Relaxed),
            MemOrder::Acquire => (MemOrder::Acquire, MemOrder::Relaxed),
            MemOrder::Release => (MemOrder::Relaxed, MemOrder::Release),
            MemOrder::AcqRel => (MemOrder::Acquire, MemOrder::Release),
            MemOrder::SeqCst => (MemOrder::SeqCst, MemOrder::SeqCst),
        }
    }

    /// All six orderings, weakest first.
    pub fn all() -> [MemOrder; 6] {
        [
            MemOrder::Plain,
            MemOrder::Relaxed,
            MemOrder::Acquire,
            MemOrder::Release,
            MemOrder::AcqRel,
            MemOrder::SeqCst,
        ]
    }
}

impl fmt::Display for MemOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The four memory ordering fence kinds of the SPARC RMO model, as used by
/// the paper (§3.1, "Fences"). An X-Y fence orders all preceding accesses
/// of kind X before all succeeding accesses of kind Y.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FenceKind {
    /// Orders preceding loads before succeeding loads.
    LoadLoad,
    /// Orders preceding loads before succeeding stores.
    LoadStore,
    /// Orders preceding stores before succeeding loads.
    StoreLoad,
    /// Orders preceding stores before succeeding stores.
    StoreStore,
}

impl FenceKind {
    /// The spelling used in source code, e.g. `"store-store"`.
    pub fn as_str(self) -> &'static str {
        match self {
            FenceKind::LoadLoad => "load-load",
            FenceKind::LoadStore => "load-store",
            FenceKind::StoreLoad => "store-load",
            FenceKind::StoreStore => "store-store",
        }
    }

    /// Parses the source spelling.
    pub fn parse(s: &str) -> Option<FenceKind> {
        match s {
            "load-load" => Some(FenceKind::LoadLoad),
            "load-store" => Some(FenceKind::LoadStore),
            "store-load" => Some(FenceKind::StoreLoad),
            "store-store" => Some(FenceKind::StoreStore),
            _ => None,
        }
    }

    /// `(orders_loads_before, orders_loads_after)`: whether the fence
    /// constrains loads on the before side and on the after side
    /// (`false` means it constrains stores on that side).
    pub fn sides(self) -> (bool, bool) {
        match self {
            FenceKind::LoadLoad => (true, true),
            FenceKind::LoadStore => (true, false),
            FenceKind::StoreLoad => (false, true),
            FenceKind::StoreStore => (false, false),
        }
    }

    /// All four fence kinds.
    pub fn all() -> [FenceKind; 4] {
        [
            FenceKind::LoadLoad,
            FenceKind::LoadStore,
            FenceKind::StoreLoad,
            FenceKind::StoreStore,
        ]
    }
}

impl fmt::Display for FenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The semantics of one fence instruction: either a classic SPARC-style
/// X-Y barrier ([`Stmt::Fence`]) or a C11 ordering fence
/// ([`Stmt::CFence`]). Symbolic execution tags every fence event with
/// this so both fence families flow through one encoding path.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FenceSem {
    /// An X-Y barrier.
    Classic(FenceKind),
    /// A C11 `fence(ord)`; the hardware mapping orders prior loads
    /// (acquire side) and subsequent stores (release side), everything
    /// for `seq_cst`, nothing for `relaxed`.
    C11(MemOrder),
}

impl fmt::Display for FenceSem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FenceSem::Classic(k) => k.fmt(f),
            FenceSem::C11(o) => o.fmt(f),
        }
    }
}

/// One LSL statement (paper Fig. 4, extended with allocation).
///
/// Control flow is structured: a labeled [`Stmt::Block`] can be exited by
/// [`Stmt::Break`] or restarted by [`Stmt::Continue`]; loops are blocks
/// containing a `Continue` to their own tag. This shape is what makes the
/// minimalistic lazy loop unrolling of §3.3 possible.
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    /// `r = v`
    Const {
        /// Destination register.
        dst: Reg,
        /// The constant.
        value: Value,
    },
    /// `r = f(r...)`
    Prim {
        /// Destination register.
        dst: Reg,
        /// The operation.
        op: PrimOp,
        /// Operand registers (length = `op.arity()`).
        args: Vec<Reg>,
    },
    /// `*r_addr = r_val`
    Store {
        /// Register holding the target address.
        addr: Reg,
        /// Register holding the stored value.
        value: Reg,
        /// Per-access ordering annotation ([`MemOrder::Plain`] for an
        /// unannotated store).
        ord: MemOrder,
    },
    /// `r = *r_addr`
    Load {
        /// Destination register.
        dst: Reg,
        /// Register holding the source address.
        addr: Reg,
        /// Per-access ordering annotation ([`MemOrder::Plain`] for an
        /// unannotated load).
        ord: MemOrder,
    },
    /// `r = cas(*r_addr, r_exp, r_des)` — an atomic compare-and-swap:
    /// reads `*r_addr` into `r`, and stores `r_des` iff the old value
    /// equals `r_exp`. The load and the (conditional) store execute as
    /// one indivisible read-modify-write; declarative models see the
    /// pair through the `rmw` base relation.
    Cas {
        /// Destination register (receives the old value).
        dst: Reg,
        /// Register holding the target address.
        addr: Reg,
        /// Register holding the expected value.
        expected: Reg,
        /// Register holding the replacement value.
        desired: Reg,
        /// Ordering annotation covering both halves (the load half
        /// carries the acquire side, the store half the release side).
        ord: MemOrder,
    },
    /// `fence X-Y`
    Fence(FenceKind),
    /// `fence(ord)` — a C11 ordering fence (see [`FenceSem::C11`]).
    CFence(MemOrder),
    /// `toggle? [site] { orig } else { mutant }` — a *batched mutation*
    /// point used by the incremental checking sessions: the symbolic
    /// encoder executes `orig` when the per-`site` toggle literal is
    /// inactive and `mutant` when it is active, so a whole matrix of
    /// program mutations (statement deletions, fence weakenings,
    /// adjacent-operation swaps) shares one encoding and each mutant is
    /// selected by an assumption vector. Fence inference uses the same
    /// device with an empty `orig` and a one-fence `mutant`, so each
    /// candidate placement is an assumption vector too. The concrete
    /// interpreter always runs `orig` (mutations are a symbolic-analysis
    /// device, not program semantics).
    Toggle {
        /// Stable toggle-site identifier (assigned by the mutation
        /// planner or the fence-inference driver; every unrolling of one
        /// site shares one literal).
        site: u32,
        /// Statements executed while the site is inactive (the original
        /// program).
        orig: Vec<Stmt>,
        /// Statements executed while the site is active (the mutant).
        mutant: Vec<Stmt>,
    },
    /// `atomic { s... }` — executed without interleaving, in program order.
    Atomic(Vec<Stmt>),
    /// `r = p(r...)` — procedure call (inlined before encoding).
    Call {
        /// Register receiving the return value, if the callee returns one.
        dst: Option<Reg>,
        /// The callee.
        proc: ProcId,
        /// Argument registers.
        args: Vec<Reg>,
    },
    /// `t : { s... }` — labeled block.
    Block {
        /// The label.
        tag: BlockTag,
        /// `true` if a `Continue` to this tag makes it a loop.
        is_loop: bool,
        /// Marks a side-effect-free spin loop eligible for the paper's
        /// spin reduction (single iteration + assume exit).
        spin: bool,
        /// Block body.
        body: Vec<Stmt>,
    },
    /// `if (r) break t` — leave block `t` when `r` is truthy.
    Break {
        /// The condition register.
        cond: Reg,
        /// Block to leave.
        tag: BlockTag,
    },
    /// `if (r) continue t` — restart block `t` when `r` is truthy.
    Continue {
        /// The condition register.
        cond: Reg,
        /// Block to restart.
        tag: BlockTag,
    },
    /// `assert(r)` — an error if `r` is falsy.
    Assert {
        /// The asserted register.
        cond: Reg,
    },
    /// `assume(r)` — restricts attention to executions where `r` is truthy.
    Assume {
        /// The assumed register.
        cond: Reg,
    },
    /// `r = alloc S` — fresh heap object of struct type `S`
    /// (models the paper's `new_node()`; each dynamic allocation receives
    /// a distinct base address).
    Alloc {
        /// Destination register (receives the pointer).
        dst: Reg,
        /// The allocated struct type.
        ty: StructId,
    },
    /// `commit(r)` — a no-op marker declaring that the enclosing operation
    /// commits at the last preceding memory access when `r` is truthy.
    /// Used only by the commit-point verification method (the Fig. 12
    /// baseline); ignored by the observation-set method.
    CommitIf {
        /// Condition under which this is the operation's commit point.
        cond: Reg,
    },
}

impl Stmt {
    /// `true` for statements that directly read or write shared memory.
    pub fn is_memory_access(&self) -> bool {
        matches!(
            self,
            Stmt::Load { .. } | Stmt::Store { .. } | Stmt::Cas { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fence_roundtrip() {
        for k in FenceKind::all() {
            assert_eq!(FenceKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(FenceKind::parse("flush"), None);
    }

    #[test]
    fn mem_order_roundtrip() {
        for o in MemOrder::all() {
            if o == MemOrder::Plain {
                assert_eq!(MemOrder::parse(o.as_str()), None, "plain is unwritable");
            } else {
                assert_eq!(MemOrder::parse(o.as_str()), Some(o));
            }
        }
        assert_eq!(MemOrder::parse("sequential"), None);
    }

    #[test]
    fn mem_order_sides() {
        use MemOrder::*;
        assert!(Acquire.is_acquire() && !Acquire.is_release());
        assert!(Release.is_release() && !Release.is_acquire());
        assert!(AcqRel.is_acquire() && AcqRel.is_release());
        assert!(SeqCst.is_acquire() && SeqCst.is_release() && SeqCst.is_seq_cst());
        assert!(!Relaxed.is_acquire() && !Relaxed.is_release());
        assert!(Relaxed.is_atomic() && !Plain.is_atomic());
    }

    #[test]
    fn fence_sides() {
        assert_eq!(FenceKind::LoadStore.sides(), (true, false));
        assert_eq!(FenceKind::StoreLoad.sides(), (false, true));
    }

    #[test]
    fn memory_access_predicate() {
        let l = Stmt::Load {
            dst: Reg(0),
            addr: Reg(1),
            ord: MemOrder::Plain,
        };
        let c = Stmt::Cas {
            dst: Reg(0),
            addr: Reg(1),
            expected: Reg(2),
            desired: Reg(3),
            ord: MemOrder::SeqCst,
        };
        let f = Stmt::Fence(FenceKind::LoadLoad);
        assert!(l.is_memory_access());
        assert!(c.is_memory_access());
        assert!(!f.is_memory_access());
    }
}
