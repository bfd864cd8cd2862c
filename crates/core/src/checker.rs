//! Configuration, result and error types of the verification pipeline.
//!
//! The paper's method (§3.2) has two phases — **specification mining**
//! (the observation set [`ObsSet`] of all serial executions) and the
//! **inclusion check** (an execution on the chosen memory model whose
//! observation lies outside the specification, decoded into a
//! [`Counterexample`]) — both run inside the lazy loop-unrolling
//! procedure of §3.3. They are asked as [`Query`](crate::Query) values
//! and answered by the [`Engine`](crate::Engine); the one-shot
//! reference in [`crate::oracle`] answers the same queries
//! independently. This module holds the types both paths share.

use std::collections::BTreeSet;
use std::fmt;
use std::time::Duration;

use cf_lsl::Value;
use cf_memmodel::AccessKind;

use crate::encode::Encoding;
use crate::symexec::{SymExec, SymExecError};
use crate::test_spec::{Harness, TestSpec};

/// Configuration of a verification run.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Whether the range analysis runs (Fig. 11c ablation).
    pub range_analysis: bool,
    /// Optional deterministic tick budget (propagations + conflicts) per
    /// solve call. Ticks depend only on the formula and the solver state,
    /// so exhaustion reproduces exactly on any machine — prefer this over
    /// [`CheckConfig::deadline`] when reproducibility matters.
    pub tick_budget: Option<u64>,
    /// Optional wall-clock deadline per query (covers every solve call
    /// and bound-growth round the query issues). Machine-dependent by
    /// nature; the backstop for pathological instances, not a
    /// reproducible budget.
    pub deadline: Option<Duration>,
    /// How many times the engine retries an exhausted query before
    /// declaring it inconclusive (the retry ladder; each retry multiplies
    /// the tick budget by [`RETRY_GROWTH`]).
    pub max_retries: u32,
    /// When provenance is enabled: greedy deletion-minimization budget
    /// for extracted assumption cores, in solver ticks. `None` (the
    /// default) skips minimization entirely — the raw final-conflict
    /// core is reported. `Some(t)` minimizes within `t` ticks; a
    /// starved budget degrades to the unminimized core
    /// ([`Provenance::minimized`](crate::Provenance::minimized) is
    /// `false`), never to an inconclusive verdict, so minimization can
    /// never blow a query's resource governance.
    pub core_minimize_ticks: Option<u64>,
    /// Testing knob: after extracting a core, re-solve with only the
    /// core assumptions and panic unless the result is still Unsat (and,
    /// when minimization completed, probe that dropping any single
    /// element loses unsatisfiability). Costs extra solves; default
    /// `false`.
    pub verify_cores: bool,
}

/// Geometric growth factor of the tick budget across the retries of
/// [`CheckConfig::max_retries`].
pub const RETRY_GROWTH: u64 = 8;

/// Lazy-unrolling rounds (§3.3) a query may take before it fails with
/// [`CheckError::BoundsDiverged`]; the engine and the reference oracle
/// both stop here.
pub const MAX_BOUND_ROUNDS: u32 = 8;

/// Unrolling bound for `spin`-marked retry loops: their exit is assumed
/// within this many iterations (the spin-loop reduction). The engine's
/// sessions and the reference oracle both unroll with it.
pub const SPIN_BOUND: u32 = 3;

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            range_analysis: true,
            tick_budget: None,
            deadline: None,
            max_retries: 2,
            core_minimize_ticks: None,
            verify_cores: false,
        }
    }
}

/// The observation set `S` (paper §2.2): the specification mined from
/// serial executions.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ObsSet {
    /// Each vector lists argument/return values in canonical operation
    /// order.
    pub vectors: BTreeSet<Vec<Value>>,
}

impl ObsSet {
    /// Number of distinct observations.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// `true` if no observation was mined.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, obs: &[Value]) -> bool {
        self.vectors.contains(obs)
    }
}

/// One step of a counterexample trace, in memory order.
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// Thread (0 = initialization).
    pub thread: usize,
    /// Operation index.
    pub op: usize,
    /// Load or store.
    pub kind: AccessKind,
    /// Resolved address.
    pub addr: Value,
    /// Human-readable location name.
    pub location: String,
    /// The value loaded or stored.
    pub value: Value,
    /// Source provenance.
    pub label: String,
}

/// Why the check failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// The observation is not produced by any serial execution.
    InconsistentObservation,
    /// A runtime error (assertion, undefined value, bad address).
    RuntimeError,
    /// The failure was found during serial specification mining — the
    /// algorithm is broken even without memory-model relaxations.
    SerialError,
}

/// A decoded counterexample execution (paper Fig. 1 "counterexample
/// trace").
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// What kind of failure this is.
    pub kind: FailureKind,
    /// The observation vector of the failing execution.
    pub obs: Vec<Value>,
    /// Triggered error descriptions (empty for pure consistency
    /// violations).
    pub errors: Vec<String>,
    /// Executed memory accesses in memory order.
    pub steps: Vec<TraceStep>,
    /// Name of the memory model under which the execution exists (a
    /// built-in [`Mode`](cf_memmodel::Mode) name or a declarative spec's
    /// `model` header).
    pub model: String,
    /// For failures under a declarative model: the axiom of the bundled
    /// `sc` spec that the witness breaks (by its `as` label), obtained
    /// by replaying the decoded trace through the explicit oracle
    /// ([`cf_spec::interp::violated_axioms`]). `None` for built-in
    /// models, for runtime errors, or when the witness is too large to
    /// replay.
    pub violated_axiom: Option<String>,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "counterexample on {} ({})",
            self.model,
            match self.kind {
                FailureKind::InconsistentObservation => "observation not serializable",
                FailureKind::RuntimeError => "runtime error",
                FailureKind::SerialError => "serial execution error",
            }
        )?;
        writeln!(f, "  observation: {}", format_obs(&self.obs))?;
        if let Some(ax) = &self.violated_axiom {
            writeln!(f, "  breaks serializability at sc axiom `{ax}`")?;
        }
        for e in &self.errors {
            writeln!(f, "  error: {e}")?;
        }
        writeln!(f, "  memory order:")?;
        for s in &self.steps {
            writeln!(
                f,
                "    [t{} op{}] {} {} = {}  ({})",
                s.thread,
                s.op,
                match s.kind {
                    AccessKind::Load => "load ",
                    AccessKind::Store => "store",
                },
                s.location,
                s.value,
                s.label
            )?;
        }
        Ok(())
    }
}

fn format_obs(obs: &[Value]) -> String {
    let parts: Vec<String> = obs.iter().map(ToString::to_string).collect();
    format!("({})", parts.join(", "))
}

/// Outcome of an inclusion check.
#[derive(Clone, Debug)]
pub enum CheckOutcome {
    /// Every execution's observation is serializable: the implementation
    /// satisfies the specification on this model.
    Pass,
    /// A counterexample exists.
    Fail(Box<Counterexample>),
}

impl CheckOutcome {
    /// `true` on pass.
    pub fn passed(&self) -> bool {
        matches!(self, CheckOutcome::Pass)
    }
}

/// Result of specification mining.
#[derive(Clone, Debug)]
pub struct MiningResult {
    /// The mined observation set.
    pub spec: ObsSet,
}

/// Why a query ended without a verdict (graceful degradation instead of
/// an unbounded solve or a lost batch).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InconclusiveReason {
    /// A solver budget (ticks or conflicts) ran out on every attempt of
    /// the retry ladder. Deterministic: reproduces exactly under the
    /// same configuration.
    Budget,
    /// The wall-clock deadline passed. Machine-dependent by nature.
    Deadline,
    /// The worker running the query crashed, and so did the retry on a
    /// freshly rebuilt session. Only this query's cell is lost; the rest
    /// of the batch is unaffected. (The name and its `shard-crashed`
    /// slug are trace and metrics schema, so they stay fixed.)
    ShardCrashed,
}

impl InconclusiveReason {
    /// Stable machine-readable identifier, used as the `reason` field of
    /// trace events and JSON exports. Unlike the [`fmt::Display`] prose,
    /// this vocabulary is part of the [`cf_trace`] schema and only grows.
    pub fn slug(self) -> &'static str {
        match self {
            InconclusiveReason::Budget => "budget",
            InconclusiveReason::Deadline => "deadline",
            InconclusiveReason::ShardCrashed => "shard-crashed",
        }
    }
}

impl fmt::Display for InconclusiveReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InconclusiveReason::Budget => "solver budget exhausted",
            InconclusiveReason::Deadline => "deadline exceeded",
            InconclusiveReason::ShardCrashed => "worker shard crashed",
        })
    }
}

/// Maps the solver's reported stop cause to the degradation reason
/// attached to `CheckError::Exhausted` (shared by the session and the
/// reference oracle so both report the same reason for the same stop).
pub(crate) fn exhausted_err(solver: &cf_sat::Solver) -> CheckError {
    CheckError::Exhausted(match solver.stop_cause() {
        Some(cf_sat::StopCause::Deadline) => InconclusiveReason::Deadline,
        _ => InconclusiveReason::Budget,
    })
}

/// Errors of the checking infrastructure itself.
#[derive(Clone, Debug)]
pub enum CheckError {
    /// Symbolic execution failed structurally.
    SymExec(SymExecError),
    /// Loop bounds kept growing past the configured limit.
    BoundsDiverged {
        /// The loops that would not converge.
        keys: Vec<String>,
    },
    /// A resource limit ran out before the query had an answer. The
    /// engine's retry ladder converts this into
    /// [`Answer::Inconclusive`](crate::query::Answer::Inconclusive) once
    /// retries are spent; only the reference oracle
    /// ([`crate::oracle::oneshot`]), which has no ladder, surfaces it as
    /// an error.
    Exhausted(InconclusiveReason),
    /// A serial execution raised a runtime error: the implementation is
    /// broken sequentially, so mining cannot produce a specification.
    SerialBug(Box<Counterexample>),
    /// A [`Query`](crate::query::Query) asked for something outside its
    /// engine's universe (an unknown spec index, a mode the engine does
    /// not encode, a commit query on a declarative model) or passed a
    /// spec whose vectors do not fit the test.
    BadQuery(String),
    /// The symbolic test is degenerate — no threads, an empty thread, or
    /// no operations at all — so neither mining nor checking has a
    /// meaningful answer. Returned up front instead of running (or
    /// panicking inside) the pipeline; harness generators hit this class
    /// of input routinely.
    DegenerateTest(String),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::SymExec(e) => write!(f, "{e}"),
            CheckError::BoundsDiverged { keys } => {
                write!(f, "loop bounds diverged for {keys:?}")
            }
            CheckError::Exhausted(reason) => write!(f, "inconclusive: {reason}"),
            CheckError::SerialBug(c) => write!(f, "serial bug found:\n{c}"),
            CheckError::BadQuery(msg) => write!(f, "bad query: {msg}"),
            CheckError::DegenerateTest(msg) => write!(f, "degenerate test: {msg}"),
        }
    }
}

/// Rejects test shapes no phase of the pipeline can answer: zero
/// threads, an empty thread, or zero operations overall. Shared by
/// [`crate::mine_reference`], [`crate::query::Engine`] and
/// [`crate::oracle::oneshot`] so degenerate
/// inputs fail with a clear [`CheckError::DegenerateTest`] instead of a
/// panic deep inside symbolic execution.
pub(crate) fn validate_test_shape(test: &TestSpec) -> Result<(), CheckError> {
    if test.threads.is_empty() {
        return Err(CheckError::DegenerateTest(format!(
            "test `{}` has no threads",
            test.name
        )));
    }
    if let Some(i) = test.threads.iter().position(Vec::is_empty) {
        return Err(CheckError::DegenerateTest(format!(
            "test `{}` has an empty thread (#{i})",
            test.name
        )));
    }
    // Non-empty threads imply at least one operation, so "0-op" inputs
    // are fully covered by the two rejections above.
    Ok(())
}

/// Rejects an inclusion spec whose vectors do not have the width of
/// `test`'s observation vector: the arguments plus the return value of
/// every operation, init first, which is how symbolic execution lays
/// out [`SymExec::obs`]. The inclusion check compares the two position
/// by position, so a shorter vector would ignore observations (a false
/// PASS) and a longer one would index past them. Shared by
/// [`crate::query::Engine`] and [`crate::oracle::oneshot`]; an unknown
/// operation key is left to symbolic execution, which names it.
pub(crate) fn validate_spec_width(
    harness: &Harness,
    test: &TestSpec,
    spec: &ObsSet,
) -> Result<(), CheckError> {
    let width: Option<usize> = test
        .all_ops()
        .map(|o| {
            harness
                .op(o.key)
                .map(|s| s.num_args + usize::from(s.has_ret))
        })
        .sum();
    let Some(width) = width else {
        return Ok(());
    };
    match spec.vectors.iter().find(|v| v.len() != width) {
        None => Ok(()),
        Some(v) => Err(CheckError::BadQuery(format!(
            "spec vectors must have {width} values, the observation width of test `{}`, \
             but one has {}",
            test.name,
            v.len()
        ))),
    }
}

impl std::error::Error for CheckError {}

impl From<SymExecError> for CheckError {
    fn from(e: SymExecError) -> Self {
        CheckError::SymExec(e)
    }
}

/// Decodes the current model into a counterexample.
pub(crate) fn decode_counterexample(
    sx: &SymExec,
    enc: &mut Encoding,
    kind: FailureKind,
    model: String,
) -> Counterexample {
    let obs = enc.decode_obs();
    let errors = enc.triggered_errors();
    let order = enc.memory_order();
    let steps = order
        .into_iter()
        .map(|i| {
            let e = &sx.events[i];
            let addr = enc.decode(&enc.addrs[i]);
            let location = match &addr {
                Value::Ptr(p) => sx.space.location_name(&sx.types, p),
                other => format!("<{other}>"),
            };
            TraceStep {
                thread: e.thread,
                op: e.op,
                kind: e.kind,
                addr,
                location,
                value: enc.decode(&enc.values[i]),
                label: e.label.clone(),
            }
        })
        .collect();
    Counterexample {
        kind,
        obs,
        errors,
        steps,
        model,
        violated_axiom: None,
    }
}

/// Replays the current witness against the bundled `sc` spec and names
/// the serializability axiom it breaks — the diagnostic attached to
/// counterexamples found under declarative models. `None` when the
/// witness is too large for the explicit oracle (more than 12 executed
/// accesses), when an address fails to decode, or when the witness is
/// value-rejected rather than order-rejected.
pub(crate) fn diagnose_serializability(sx: &SymExec, enc: &mut Encoding) -> Option<String> {
    use cf_memmodel::{ConcreteTrace, TraceItem};
    use std::sync::OnceLock;

    static SC: OnceLock<cf_spec::ModelSpec> = OnceLock::new();
    let sc = SC
        .get_or_init(|| cf_spec::compile(cf_spec::bundled::SC).expect("bundled sc spec compiles"));

    let executed: Vec<usize> = (0..sx.events.len())
        .filter(|&i| enc.event_executed(i))
        .collect();
    if executed
        .iter()
        .filter(|&&i| sx.events[i].thread != 0)
        .count()
        > 12
    {
        return None;
    }
    // Fold the executed init-thread stores (in program order) into the
    // initial-value map; the replayed trace covers test threads only.
    let mut trace = ConcreteTrace::default();
    let init = &mut trace.init;
    for loc in sx.space.all_scalar_locations(&sx.types) {
        init.insert(loc.clone(), crate::range::init_value(sx, &loc));
    }
    let mut init_stores: Vec<usize> = executed
        .iter()
        .copied()
        .filter(|&i| sx.events[i].thread == 0 && sx.events[i].kind == AccessKind::Store)
        .collect();
    init_stores.sort_by_key(|&i| sx.events[i].po);
    for i in init_stores {
        let Value::Ptr(path) = enc.decode(&enc.addrs[i].clone()) else {
            return None;
        };
        init.insert(path, enc.decode(&enc.values[i].clone()));
    }
    // Per-thread items in program order: executed accesses plus fences
    // whose guard is known to hold in the witness.
    let mut threads: Vec<Vec<(usize, TraceItem)>> = vec![Vec::new(); sx.num_threads - 1];
    for &i in &executed {
        let e = &sx.events[i];
        if e.thread == 0 {
            continue;
        }
        let Value::Ptr(addr) = enc.decode(&enc.addrs[i].clone()) else {
            return None;
        };
        let value = enc.decode(&enc.values[i].clone());
        threads[e.thread - 1].push((
            e.po,
            TraceItem::Access {
                kind: e.kind,
                addr,
                value,
                group: e.group,
                ord: e.ord,
            },
        ));
    }
    for f in &sx.fences {
        if f.thread == 0 {
            continue;
        }
        if enc.guard_value(sx, f.guard) != Some(true) {
            continue;
        }
        let item = match f.sem {
            cf_lsl::FenceSem::Classic(k) => TraceItem::Fence(k),
            cf_lsl::FenceSem::C11(o) => TraceItem::CFence(o),
        };
        threads[f.thread - 1].push((f.po, item));
    }
    for t in &mut threads {
        t.sort_by_key(|(po, _)| *po);
    }
    trace.threads = threads
        .into_iter()
        .map(|t| t.into_iter().map(|(_, item)| item).collect())
        .collect();
    cf_spec::interp::violated_axioms(&trace, sc)
        .into_iter()
        .next()
}
