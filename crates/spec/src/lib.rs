//! # cf-spec — declarative axiomatic memory-model specifications
//!
//! CheckFence defines memory models axiomatically (§2.3.2); this crate
//! turns those axioms into *data*. A small cat-style language (the
//! `.cfm` text format, plus a [`builder`] API) describes a model as
//! named relations over the events of an execution — program order
//! `po`, same-address `loc`, the postulated total memory order `mo`,
//! the communication relations `rf`/`co`/`fr`, fence edges — combined
//! with union/intersection/difference/composition/closure, and
//! constrained by `order`/`acyclic`/`irreflexive`/`empty` axioms.
//!
//! A compiled [`ModelSpec`] has **two backends sharing one evaluator**
//! ([`eval()`]):
//!
//! * the explicit-state oracle ([`interp`]) decides litmus tests and
//!   annotated traces by exhaustive search, replacing the hand-written
//!   per-`Mode` rule checks as the reference semantics for spec-defined
//!   models;
//! * the `checkfence` core compiles the same spec into the CNF relation
//!   encoding, gated behind a per-spec *selector literal*, so user
//!   models slot into incremental `CheckSession`s next to the
//!   built-ins (encode once, toggle models as assumptions).
//!
//! The five built-in modes ship as bundled `.cfm` files ([`bundled`]),
//! each verified equivalent to its enum twin.
//!
//! ## Semantics
//!
//! A spec constrains one postulated total memory order `mo` (this is
//! the paper's framework: "the execution is allowed iff there exists a
//! total order such that ..."). `order r` asserts `r ⊆ mo`; `acyclic r`
//! asserts `r ∪ mo` is acyclic, which for a total `mo` is `order`
//! plus irreflexivity; `empty`/`irreflexive` are emptiness checks.
//! Value axioms (a load returns the most recent visible store, §2.3.2
//! axioms 2–3), atomic-block contiguity and init-before-everything are
//! framework-level and apply to every model; the `forwarding` option
//! controls whether a thread's own buffered stores are visible early,
//! and `atomic_ops` requests Seriality's whole-operation atomicity.
//!
//! ## Example
//!
//! ```
//! use cf_spec::{compile, interp};
//! use cf_memmodel::{litmus, Mode};
//!
//! // TSO as a user-written spec:
//! let tso = compile(r"
//!     model my_tso
//!     option forwarding
//!     let ppo = po \ ([W] ; po ; [R])
//!     order ppo | fence
//! ").expect("well-formed");
//!
//! let sb = litmus::store_buffering();
//! assert!(interp::litmus_allows(&sb, &tso, &[0, 0]));       // store buffering
//! assert!(!litmus_allows_mp(&tso));                          // loads stay ordered
//! # fn litmus_allows_mp(tso: &cf_spec::ModelSpec) -> bool {
//! #     cf_spec::interp::litmus_allows(&litmus::message_passing(), tso, &[1, 0])
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod ast;
mod error;
mod parse;

pub mod builder;
pub mod bundled;
pub mod check;
pub mod eval;
pub mod interp;

pub use ast::{Axiom, AxiomKind, BaseRel, ModelSpec, RawSpec, RelExpr, SetFilter};
pub use check::{builtin, compile};
pub use error::SpecError;
pub use eval::{eval, RelBackend, RelMatrix};
pub use parse::parse;
