//! # checkfence-repro — reproduction of CheckFence (PLDI 2007)
//!
//! This facade crate ties together the workspace reproducing
//! *CheckFence: Checking Consistency of Concurrent Data Types on Relaxed
//! Memory Models* (Burckhardt, Alur, Martin; PLDI 2007):
//!
//! * [`sat`] — an incremental CDCL SAT solver (the zChaff stand-in);
//! * [`lsl`] — the load-store intermediate language and its interpreter;
//! * [`minic`] — the mini-C front-end (the CIL stand-in);
//! * [`memmodel`] — the axiomatic memory models (SC, TSO, PSO, Relaxed,
//!   Seriality) with an explicit-state oracle and litmus catalog;
//! * [`spec`] — declarative `.cfm` memory-model specifications compiled
//!   to both the explicit oracle and the SAT session encoder (the five
//!   built-ins ship as bundled specs under `specs/`);
//! * [`core`] — the CheckFence engine: symbolic execution, range
//!   analysis, CNF encoding, specification mining, inclusion checking,
//!   counterexample traces, the commit-point baseline, and automatic
//!   fence inference;
//! * [`cycles`] — static critical-cycle analysis (the delay-set view)
//!   behind the per-model robustness reports of `--analyze`
//!   (see `docs/static-analysis.md`);
//! * [`algos`] — the five studied implementations (two-lock queue,
//!   nonblocking queue, lazy list set, Harris set, snark deque) plus a
//!   Treiber-stack extension, with the Fig. 8 test catalog;
//! * [`synth`] — bounded harness synthesis: enumerate every test shape
//!   within (threads, ops) bounds, canonicalize away symmetry, and
//!   batch-check whole corpora on the engine with model-lattice
//!   inference and subsumption pruning, plus the loader for the mini-C
//!   scenario corpus under `corpus/`;
//! * [`trace`] — the structured-event observability layer: a
//!   zero-cost-when-disabled collector with deterministic coordinates,
//!   JSONL and Prometheus-style sinks, and the solver-cost profile
//!   (see `docs/observability.md`).
//!
//! A command-line front end is available as the `checkfence` binary
//! (`cargo run --release --bin checkfence -- --help`).
//!
//! See the `examples/` directory for runnable entry points, and
//! `perfbench/BASELINE.md` and the `BENCH_*.json` records for the
//! measured numbers.
//!
//! ## Quick start
//!
//! ```
//! use checkfence_repro::prelude::*;
//!
//! let harness = cf_algos::msn::harness(cf_algos::Variant::Fenced);
//! let test = cf_algos::tests::by_name("T0").expect("catalog test");
//! let spec = mine_reference(&harness, &test).expect("mining").spec;
//! let mut engine = Engine::new(EngineConfig::default());
//! let verdict = engine
//!     .run(&Query::check_inclusion(&harness, &test, spec).on(Mode::Relaxed))
//!     .expect("checking");
//! assert!(verdict.passed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cf_algos as algos;
pub use cf_cycles as cycles;
pub use cf_lsl as lsl;
pub use cf_memmodel as memmodel;
pub use cf_minic as minic;
pub use cf_sat as sat;
pub use cf_spec as spec;
pub use cf_synth as synth;
pub use cf_trace as trace;
pub use checkfence as core;

// The user guide's Rust blocks run as doctests of this crate, so the
// documentation under docs/ cannot drift from the API (mini-C and .cfm
// blocks are compiled by tests/doc_examples.rs).
#[cfg(doctest)]
mod doc_examples {
    #[doc = include_str!("../docs/guide.md")]
    pub struct Guide;
    #[doc = include_str!("../docs/spec-language.md")]
    pub struct SpecLanguage;
    #[doc = include_str!("../docs/ablation.md")]
    pub struct Ablation;
    #[doc = include_str!("../docs/query-api.md")]
    pub struct QueryApi;
    #[doc = include_str!("../docs/harness-synthesis.md")]
    pub struct HarnessSynthesis;
    #[doc = include_str!("../docs/robustness.md")]
    pub struct Robustness;
    #[doc = include_str!("../docs/observability.md")]
    pub struct Observability;
    #[doc = include_str!("../docs/static-analysis.md")]
    pub struct StaticAnalysis;
    #[doc = include_str!("../docs/provenance.md")]
    pub struct Provenance;
    #[doc = include_str!("../README.md")]
    pub struct Readme;
}

/// The most common imports for using the checker.
pub mod prelude {
    pub use cf_algos;
    pub use cf_memmodel::{Mode, ModeSet};
    pub use cf_spec::ModelSpec;
    pub use cf_synth::{
        run_corpus, synthesize, CorpusConfig, CorpusReport, CorpusVerdict, SynthBounds,
    };
    pub use checkfence::commit::AbstractType;
    pub use checkfence::infer::{infer, InferConfig};
    pub use checkfence::{
        mine_reference, Answer, CheckError, CheckOutcome, CheckSession, Counterexample, Engine,
        EngineConfig, Harness, ModelSel, ObsSet, OpSig, Query, QueryKind, QueryStats,
        SessionConfig, TestSpec, Verdict,
    };
}
