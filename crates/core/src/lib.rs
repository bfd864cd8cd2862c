//! # checkfence — checking consistency of concurrent data types on relaxed memory models
//!
//! A from-scratch reproduction of the CheckFence verifier (Burckhardt,
//! Alur, Martin; PLDI 2007). Given a concurrent data type implementation
//! (mini-C compiled to LSL by `cf-minic`), a bounded symbolic test
//! ([`TestSpec`], Fig. 8 notation) and a memory model
//! ([`cf_memmodel::Mode`]), the checker:
//!
//! 1. **mines the specification**: the set of observations (operation
//!    argument/return vectors) of all *serial* executions, via
//!    incremental SAT enumeration or concrete interleaving;
//! 2. **checks inclusion**: encodes *all* concurrent executions on the
//!    chosen model as a SAT formula (thread-local circuits + the
//!    axiomatic memory model of §2.3.2) and solves for an execution whose
//!    observation is not serializable, or which raises a runtime error
//!    (assertion failure, undefined-value use, invalid address);
//! 3. decodes **counterexample traces** in memory order when the check
//!    fails.
//!
//! The crate also implements the *commit-point method* of the authors'
//! earlier CAV 2006 paper as the baseline for the paper's Fig. 12 speed
//! comparison.
//!
//! ## The checking surface
//!
//! * [`query`] — **the one checking path**: a composable [`Query`]
//!   value per question (mine / enumerate / inclusion / commit × model
//!   × toggle assumption vector) answered by an [`Engine`] pooling one
//!   incremental [`CheckSession`] per (harness, test) under an
//!   engine-wide model universe, running up to `jobs` sessions at
//!   once, with per-query solver attribution ([`QueryStats`]);
//! * [`CheckSession`] — the underlying incremental session: one
//!   persistent solver per (harness, test), with built-in
//!   [`cf_memmodel::Mode`]s and declarative [`cf_spec::ModelSpec`]s
//!   selected per query through assumption literals (encode once,
//!   solve many);
//! * [`oracle`] — the one-shot reference: the same queries answered
//!   with a fresh encoding and solver per check, kept only as the
//!   independent baseline for equivalence tests and benchmarks;
//! * [`infer`] — automatic 1-minimal fence placement, candidate fences
//!   as toggle sites on pooled sessions;
//! * [`mutate`] — batched Fig. 11-style mutation checking: statement
//!   deletions, fence weakenings and adjacent-operation swaps as
//!   per-site *toggle literals*, the whole mutant × model matrix
//!   answered as one engine batch;
//! * [`commit`] — the commit-point baseline.
//!
//! ## Example
//!
//! ```
//! use checkfence::{mine_reference, Harness, OpSig, Query, TestSpec};
//! use cf_memmodel::Mode;
//!
//! // A trivially racy "register" data type: set / get.
//! let program = cf_minic::compile(r#"
//!     int cell;
//!     void set_op(int v) { cell = v; }
//!     int get_op() { return cell; }
//! "#).expect("compiles");
//! let harness = Harness {
//!     name: "register".into(),
//!     program,
//!     init_proc: None,
//!     ops: vec![
//!         OpSig { key: 's', proc_name: "set_op".into(), num_args: 1, has_ret: false },
//!         OpSig { key: 'g', proc_name: "get_op".into(), num_args: 0, has_ret: true },
//!     ],
//! };
//! let test = TestSpec::parse("T", "( s | g )").expect("parses");
//! let spec = mine_reference(&harness, &test).expect("mines").spec;
//! let verdict = Query::check_inclusion(&harness, &test, spec)
//!     .on(Mode::Relaxed)
//!     .run()
//!     .expect("checks");
//! assert!(verdict.passed(), "a single racy register is serializable");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod cnf;
mod encode;
mod fxhash;
mod mine;
mod range;
mod session;
mod spec_compile;
mod symexec;
mod term;
mod test_spec;

pub mod commit;
pub mod cycles;
pub mod infer;
pub mod mutate;
mod obs_text;
pub mod oracle;
pub mod provenance;
pub mod query;

pub use checker::{
    CheckConfig, CheckError, CheckOutcome, Counterexample, FailureKind, InconclusiveReason,
    MiningResult, ObsSet, TraceStep, MAX_BOUND_ROUNDS, RETRY_GROWTH, SPIN_BOUND,
};
pub use cnf::CnfBuilder;
pub use encode::{EncVal, Encoding, ModelSel, OrderEncoding};
pub use fxhash::{FxHashMap, FxHasher};
pub use mine::mine_reference;
pub use obs_text::ParseObsError;
pub use provenance::{Provenance, ProvenanceKind};
pub use query::{
    run_indexed, Answer, Engine, EngineConfig, EngineStats, Query, QueryKind, QueryStats, Verdict,
};
pub use range::{analyze, RangeInfo, ValueSet};
pub use session::{CheckSession, SessionConfig};
pub use symexec::{
    execute, ErrorCond, ErrorKind, Event, FenceEvt, LoopBounds, ObsEntry, ObsRole, SymExec,
    SymExecError, UnrollStats,
};
pub use term::{BTerm, BTermId, EventId, TermArena, VTerm, VTermId};
pub use test_spec::{Harness, OpInvocation, OpSig, ParseTestError, TestSpec};
