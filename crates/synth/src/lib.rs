//! # cf-synth — bounded harness synthesis and scenario corpora
//!
//! CheckFence's method (paper §3, Fig. 5) checks each data type on a
//! *hand-picked* set of bounded symbolic tests — coverage lives or dies
//! on which bounded executions a human thought to write down. This
//! crate closes that gap from two directions:
//!
//! * [`synthesize`] **generates** the bounded test universe: given the
//!   operation signatures of a harness and [`SynthBounds`] (threads ≤
//!   `T`, operations per thread ≤ `K`, an init-prefix budget and an
//!   argument-bit cap), it enumerates every test shape, canonicalizes
//!   away thread-permutation symmetry, and deduplicates with an
//!   FxHash-keyed set so the corpus is minimal and deterministic.
//!   Argument-renaming symmetry needs no explicit reduction: operation
//!   arguments are fresh symbolic variables ranging over the whole
//!   domain, so every value renaming maps a shape's observation set to
//!   itself by construction.
//! * [`run_corpus`] **answers** a whole corpus as
//!   [`Engine::run_batch_keeping`](checkfence::Engine::run_batch_keeping)
//!   rounds per (data type, model universe), dropping each test's
//!   session once no later round asks about it: the reference
//!   specification is mined once per synthesized test (instead of
//!   once per (test, model) cell), inclusion is checked across the
//!   built-in lattice plus any `.cfm` specs, and harnesses whose
//!   failure signature is subsumed by an already-kept harness are
//!   pruned (coverage-guided corpus shrinking). The result renders as
//!   a Fig. 5-style coverage table.
//! * [`corpus`] loads the curated mini-C scenario corpus shipped under
//!   `corpus/` (seqlock, Dekker mutex, bounded MPMC queue, SPSC ring),
//!   lowering each entry through `cf-minic` and attaching its declared
//!   tests and expected verdicts.
//!
//! ## Example
//!
//! ```
//! use checkfence::{Harness, OpSig};
//! use cf_synth::{run_corpus, synthesize, CorpusConfig, SynthBounds};
//!
//! let program = cf_minic::compile(
//!     r#"
//!     int cell;
//!     void set_op(int v) { cell = v; }
//!     int get_op() { return cell; }
//!     "#,
//! )
//! .expect("compiles");
//! let harness = Harness {
//!     name: "register".into(),
//!     program,
//!     init_proc: None,
//!     ops: vec![
//!         OpSig { key: 's', proc_name: "set_op".into(), num_args: 1, has_ret: false },
//!         OpSig { key: 'g', proc_name: "get_op".into(), num_args: 0, has_ret: true },
//!     ],
//! };
//! let corpus = synthesize(&harness.ops, &SynthBounds::new(2, 2));
//! assert!(corpus.tests.iter().any(|t| t.name == "(g|s)"));
//! let report = run_corpus(&harness, &corpus.tests, &CorpusConfig::default());
//! // `( s | gg )` exhibits read-read incoherence on Relaxed, so the
//! // synthesized corpus finds at least one failing harness.
//! assert!(report.rows.iter().any(|r| !r.failing_models(&report.model_names).is_empty()));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod corpus;
mod run;
mod synthesize;

pub use run::{run_corpus, CorpusConfig, CorpusReport, CorpusRow, CorpusVerdict};
pub use synthesize::{
    canonicalize, enumerate_ordered, synthesize, SynthBounds, SynthCorpus, MIN_THREADS,
};
