//! # cf-sat — an incremental CDCL SAT solver
//!
//! This crate is the SAT back-end of the CheckFence reproduction. The paper
//! (Burckhardt, Alur, Martin; PLDI 2007) hands its CNF encodings to zChaff;
//! since the reproduction must be self-contained, this crate provides an
//! equivalent engine: a conflict-driven clause-learning solver with
//! two-watched-literal propagation, first-UIP learning, VSIDS branching,
//! phase saving, Luby restarts and learnt-clause database reduction.
//!
//! Clauses live in one flat arena of 32-bit words, each a small header
//! followed by its literals inline (MiniSat's layout; see the `clause`
//! module): a 3-literal problem clause takes 16 bytes plus 16 for its
//! two watchers. Deleted learnt clauses are reclaimed by compacting the
//! arena in place once they pass a fifth of it. The layout decides
//! memory and speed only, never the search: every clause keeps its
//! literal order and every watch list its order.
//!
//! The one property CheckFence depends on heavily is *incrementality*:
//! specification mining (paper §3.2) repeatedly solves, reads off a model,
//! adds a blocking clause and re-solves. [`Solver::add_clause`] may be called
//! between [`Solver::solve`] calls, and learnt clauses are kept across calls.
//!
//! ## Example
//!
//! Enumerate the models of `(a ∨ b)`:
//!
//! ```
//! use cf_sat::{Solver, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause([a.positive(), b.positive()]);
//!
//! let mut models = 0;
//! while s.solve() == SolveResult::Sat {
//!     models += 1;
//!     // block this model
//!     let block = [
//!         a.lit(!s.value(a).unwrap_or(false)),
//!         b.lit(!s.value(b).unwrap_or(false)),
//!     ];
//!     s.add_clause(block);
//! }
//! assert_eq!(models, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clause;
mod heap;
mod solver;
mod stats;
mod types;

pub mod dimacs;
#[cfg(feature = "faults")]
pub mod faults;
pub mod xorshift;

pub use solver::{SolveEvent, SolveHook, SolveResult, Solver, StopCause};
pub use stats::Stats;
pub use types::{LBool, Lit, Var};
