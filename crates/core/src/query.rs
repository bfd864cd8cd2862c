//! The composable query API: one value type per question, one engine
//! for all of them.
//!
//! CheckFence's core loop is *encode once, answer many related
//! questions* (paper Fig. 6). Every question, whatever its shape, is
//! described by one value type and answered by one engine:
//!
//! * [`Query`] — a declarative description of one question: the
//!   implementation ([`Harness`]) and symbolic test ([`TestSpec`]), the
//!   model ([`ModelSel`]: a built-in [`Mode`] or a declarative spec),
//!   the assumption vectors (active candidate-fence sites, active
//!   mutation toggles) and the question kind ([`QueryKind`]: mine,
//!   enumerate, inclusion check, commit-point method). All axes are
//!   orthogonal and builder-composable.
//! * [`Engine`] — a pool of [`CheckSession`]s keyed by (harness, test,
//!   model universe), the universe being engine-wide configuration
//!   ([`EngineConfig::modes`] + [`EngineConfig::specs`]).
//!   [`Engine::run`] answers one query; [`Engine::run_batch`] groups a
//!   mixed batch by session key, reuses live encodings across calls,
//!   and runs up to [`EngineConfig::jobs`] keys' sessions at once (one
//!   session per key at any job count, so every key encodes once).
//!
//! Every [`Verdict`] carries per-query solver attribution
//! ([`QueryStats`], computed with [`cf_sat::Stats::since`]) next to the
//! per-phase [`PhaseStats`], so batch drivers can report cost per
//! question instead of only session totals.
//!
//! The engine is the one checking path. The same [`Query`] values also
//! run through [`crate::oracle::oneshot`], the independent reference
//! that equivalence tests and benchmark baselines compare against.
//!
//! # Examples
//!
//! One engine answering a mode sweep and a mutant from one encoding:
//!
//! ```
//! use checkfence::query::{Engine, EngineConfig, Query};
//! use checkfence::{Harness, OpSig, TestSpec};
//! use cf_memmodel::Mode;
//!
//! let program = cf_minic::compile(r#"
//!     int data; int flag;
//!     void put(int v) { data = v + 1; fence("store-store"); flag = 1; }
//!     int get() { int f = flag; fence("load-load");
//!                 if (f == 0) { return 0 - 1; } return data; }
//! "#).expect("compiles");
//! let harness = Harness {
//!     name: "mailbox".into(),
//!     program,
//!     init_proc: None,
//!     ops: vec![
//!         OpSig { key: 'p', proc_name: "put".into(), num_args: 1, has_ret: false },
//!         OpSig { key: 'g', proc_name: "get".into(), num_args: 0, has_ret: true },
//!     ],
//! };
//! let test = TestSpec::parse("pg", "( p | g )").expect("parses");
//!
//! let mut engine = Engine::new(EngineConfig::default());
//! let spec = engine
//!     .run(&Query::mine(&harness, &test))
//!     .expect("mines")
//!     .into_observations()
//!     .expect("mining yields observations");
//! let queries: Vec<Query> = Mode::hardware()
//!     .iter()
//!     .map(|&m| Query::check_inclusion(&harness, &test, spec.clone()).on(m))
//!     .collect();
//! for verdict in engine.run_batch(&queries) {
//!     assert!(verdict.expect("runs").passed(), "fenced mailbox passes");
//! }
//! // The mine + four checks shared one session and one encoding.
//! let stats = engine.stats();
//! assert_eq!(stats.sessions, 1);
//! assert_eq!(stats.encodes, 1);
//! assert_eq!(stats.queries, 5);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cf_memmodel::{Mode, ModeSet};
use cf_spec::ModelSpec;

use crate::checker::{
    CheckConfig, CheckError, CheckOutcome, Counterexample, InconclusiveReason, ObsSet, PhaseStats,
};
use crate::commit::AbstractType;
use crate::encode::ModelSel;
use crate::provenance::{Provenance, ProvenanceKind};
use crate::session::{CheckSession, SessionConfig, SessionStats};
use crate::test_spec::{Harness, TestSpec};

/// The question a [`Query`] asks.
#[derive(Clone, Debug)]
pub enum QueryKind {
    /// Mine the specification: enumerate the observations of all
    /// error-free *serial* executions with the SAT encoding (§3.2).
    /// The model axis is ignored — mining always runs under Seriality.
    Mine,
    /// Enumerate the observations of all error-free executions under
    /// the query's model.
    Enumerate,
    /// Check that every execution under the query's model observes a
    /// member of `spec` and raises no runtime error.
    CheckInclusion {
        /// The specification (a mined observation set). Shared, so
        /// cloning a query for another cell of a matrix — the
        /// batch-building idiom — does not copy the set.
        spec: Arc<ObsSet>,
    },
    /// Run the commit-point method (the Fig. 12 baseline) against the
    /// given abstract machine. Requires a built-in model.
    CommitMethod {
        /// The abstract data type the machine simulates.
        ty: AbstractType,
    },
}

impl QueryKind {
    /// Short display name of the question.
    pub fn name(&self) -> &'static str {
        match self {
            QueryKind::Mine => "mine",
            QueryKind::Enumerate => "enumerate",
            QueryKind::CheckInclusion { .. } => "check",
            QueryKind::CommitMethod { .. } => "commit",
        }
    }
}

/// One declarative question about one (implementation, test) pair.
///
/// A query names every axis the engine can vary — the model, the active
/// candidate-fence sites, the active mutation toggles, and the question
/// kind — so drivers describe *what* they want answered and leave
/// session pooling, encoding reuse and parallel scheduling to the
/// [`Engine`].
#[derive(Clone, Debug)]
pub struct Query<'h> {
    harness: &'h Harness,
    test: &'h TestSpec,
    model: ModelSel,
    pub(crate) fences: Vec<u32>,
    pub(crate) toggles: Vec<u32>,
    kind: QueryKind,
    budget: Option<u64>,
    deadline: Option<Duration>,
    provenance: bool,
}

impl<'h> Query<'h> {
    fn with_kind(harness: &'h Harness, test: &'h TestSpec, kind: QueryKind) -> Query<'h> {
        Query {
            harness,
            test,
            model: ModelSel::Builtin(Mode::Relaxed),
            fences: Vec::new(),
            toggles: Vec::new(),
            kind,
            budget: None,
            deadline: None,
            provenance: false,
        }
    }

    /// A specification-mining query (SAT enumeration under Seriality).
    pub fn mine(harness: &'h Harness, test: &'h TestSpec) -> Query<'h> {
        Query::with_kind(harness, test, QueryKind::Mine)
    }

    /// An observation-enumeration query (defaults to `relaxed`; pick the
    /// model with [`Query::on`] / [`Query::on_model`]).
    pub fn enumerate(harness: &'h Harness, test: &'h TestSpec) -> Query<'h> {
        Query::with_kind(harness, test, QueryKind::Enumerate)
    }

    /// An inclusion-check query against `spec` (defaults to `relaxed`).
    /// The spec is stored behind an [`Arc`], so building a matrix by
    /// cloning one base query per cell shares it instead of copying.
    pub fn check_inclusion(
        harness: &'h Harness,
        test: &'h TestSpec,
        spec: impl Into<Arc<ObsSet>>,
    ) -> Query<'h> {
        Query::with_kind(
            harness,
            test,
            QueryKind::CheckInclusion { spec: spec.into() },
        )
    }

    /// A commit-point-method query (defaults to `relaxed`; built-in
    /// models only).
    pub fn commit_method(harness: &'h Harness, test: &'h TestSpec, ty: AbstractType) -> Query<'h> {
        Query::with_kind(harness, test, QueryKind::CommitMethod { ty })
    }

    /// Selects a built-in memory model (chainable).
    #[must_use]
    pub fn on(mut self, mode: Mode) -> Query<'h> {
        self.model = ModelSel::Builtin(mode);
        self
    }

    /// Selects any model of the engine's universe — a built-in mode or
    /// a declarative spec by its index in [`EngineConfig::specs`]
    /// (chainable).
    #[must_use]
    pub fn on_model(mut self, model: ModelSel) -> Query<'h> {
        self.model = model;
        self
    }

    /// Activates exactly the given candidate-fence sites
    /// ([`cf_lsl::Stmt::CandidateFence`]); all other sites stay inactive
    /// (chainable).
    #[must_use]
    pub fn with_fences(mut self, sites: &[u32]) -> Query<'h> {
        self.fences = sites.to_vec();
        self
    }

    /// Switches exactly the given mutation toggle sites
    /// ([`cf_lsl::Stmt::Toggle`]) to their mutant branch (chainable).
    #[must_use]
    pub fn with_toggles(mut self, sites: &[u32]) -> Query<'h> {
        self.toggles = sites.to_vec();
        self
    }

    /// Sets this query's initial tick budget, overriding
    /// [`CheckConfig::tick_budget`]. Ticks (solver propagations +
    /// conflicts) are deterministic: the same query against the same
    /// session state spends the same ticks on every machine. When the
    /// ladder of escalating retries (see [`CheckConfig::max_retries`])
    /// still exhausts the budget, the verdict is
    /// [`Answer::Inconclusive`] rather than an error (chainable).
    #[must_use]
    pub fn with_budget(mut self, ticks: u64) -> Query<'h> {
        self.budget = Some(ticks);
        self
    }

    /// Sets this query's wall-clock deadline, overriding
    /// [`CheckConfig::deadline`]. Unlike tick budgets, deadlines are
    /// machine-dependent; use them as a safety net, not for
    /// reproducible cutoffs (chainable).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Query<'h> {
        self.deadline = Some(deadline);
        self
    }

    /// Requests verdict [`Provenance`] for this query (chainable).
    /// Inclusion-check verdicts then carry the assumption core of the
    /// decisive solve mapped back to named artifacts — which fences,
    /// axioms, toggles and gates the proof (or witness) leaned on.
    /// Extraction adds **zero extra solves**; sessions answering
    /// provenance queries are pooled separately from plain ones, so a
    /// provenance-free query's verdict and solver statistics never
    /// change. See also [`EngineConfig::provenance`] for the
    /// engine-wide switch and [`CheckConfig::core_minimize_ticks`] for
    /// optional core minimization.
    #[must_use]
    pub fn with_provenance(mut self) -> Query<'h> {
        self.provenance = true;
        self
    }

    /// The implementation under test.
    pub fn harness(&self) -> &'h Harness {
        self.harness
    }

    /// The symbolic test.
    pub fn test(&self) -> &'h TestSpec {
        self.test
    }

    /// The selected model.
    pub fn model(&self) -> ModelSel {
        self.model
    }

    /// The question kind.
    pub fn kind(&self) -> &QueryKind {
        &self.kind
    }

    /// A short human-readable label (for per-query stats tables), e.g.
    /// `check treiber/U0@relaxed+t3`.
    pub fn describe(&self) -> String {
        let model = match self.model {
            ModelSel::Builtin(m) => m.name().to_string(),
            ModelSel::Spec(i) => format!("spec#{i}"),
        };
        let mut out = format!(
            "{} {}/{}@{model}",
            self.kind.name(),
            self.harness.name,
            self.test.name
        );
        for f in &self.fences {
            out.push_str(&format!("+f{f}"));
        }
        for t in &self.toggles {
            out.push_str(&format!("+t{t}"));
        }
        out
    }

    /// Answers this query on a throwaway single-use [`Engine`] whose
    /// universe holds exactly this query's model — the one-off
    /// convenience for tests and small tools, at the encoding cost of
    /// one single-model check. Batch drivers should build an
    /// [`Engine`] and reuse it. Spec models need an engine configured
    /// with [`EngineConfig::specs`], so they cannot run through this
    /// helper.
    ///
    /// # Errors
    ///
    /// As [`Engine::run`].
    pub fn run(&self) -> Result<Verdict, CheckError> {
        let modes = match (&self.kind, self.model) {
            (QueryKind::Mine, _) => ModeSet::single(Mode::Serial),
            (_, ModelSel::Builtin(m)) => ModeSet::single(m),
            // Rejected by validate() on a spec-less engine anyway.
            (_, ModelSel::Spec(_)) => ModeSet::empty(),
        };
        Engine::new(EngineConfig {
            modes,
            ..EngineConfig::default()
        })
        .run(self)
    }
}

/// The payload of a [`Verdict`]: what the question produced.
#[derive(Clone, Debug)]
pub enum Answer {
    /// A pass/fail outcome (inclusion checks, the commit method).
    Outcome(CheckOutcome),
    /// An observation set (mining, enumeration).
    Observations(ObsSet),
    /// The engine ran out of resources before the question was decided
    /// — a first-class verdict, not an error, so batch drivers render a
    /// `?` cell and keep going instead of aborting the table.
    Inconclusive {
        /// Why the query could not be decided.
        reason: InconclusiveReason,
        /// Solver ticks spent across all retry attempts.
        spent: u64,
    },
}

/// Per-query solver attribution, measured with [`cf_sat::Stats::since`]
/// around exactly this query's solver activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Solver calls issued by this query (incl. bound-overflow probes).
    pub solves: u64,
    /// Conflicts attributable to this query.
    pub conflicts: u64,
    /// Restarts attributable to this query.
    pub restarts: u64,
    /// Propagations attributable to this query.
    pub propagations: u64,
    /// Assumption literals passed for this query.
    pub assumed_literals: u64,
    /// Wall-clock time of the query end to end (including retries).
    pub wall: Duration,
    /// Budget-escalation retries the engine spent on this query.
    pub retries: u32,
}

impl QueryStats {
    pub(crate) fn from_delta(delta: cf_sat::Stats, wall: Duration, retries: u32) -> QueryStats {
        QueryStats {
            solves: delta.solves,
            conflicts: delta.conflicts,
            restarts: delta.restarts,
            propagations: delta.propagations,
            assumed_literals: delta.assumed_literals,
            wall,
            retries,
        }
    }
}

/// The unified result of one [`Query`]: the answer plus this query's
/// phase breakdown and solver attribution.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The answer payload.
    pub answer: Answer,
    /// Encode/solve/bound-round breakdown of the query.
    pub phase: PhaseStats,
    /// Per-query solver counters ([`cf_sat::Stats::since`] deltas).
    pub stats: QueryStats,
    /// What the verdict leaned on, when provenance was requested
    /// ([`Query::with_provenance`] / [`EngineConfig::provenance`]) and
    /// the query produced a pass/fail outcome. `None` for
    /// observation-shaped answers, inconclusive verdicts and whenever
    /// provenance is off.
    pub provenance: Option<Provenance>,
}

impl Verdict {
    /// `true` unless the answer is a failing outcome. Inconclusive
    /// verdicts did not pass: nothing was proved.
    pub fn passed(&self) -> bool {
        match &self.answer {
            Answer::Outcome(o) => o.passed(),
            Answer::Observations(_) => true,
            Answer::Inconclusive { .. } => false,
        }
    }

    /// The pass/fail outcome, if the query produced one.
    pub fn outcome(&self) -> Option<&CheckOutcome> {
        match &self.answer {
            Answer::Outcome(o) => Some(o),
            _ => None,
        }
    }

    /// Consumes the verdict into its outcome.
    pub fn into_outcome(self) -> Option<CheckOutcome> {
        match self.answer {
            Answer::Outcome(o) => Some(o),
            _ => None,
        }
    }

    /// The observation set, if the query produced one.
    pub fn observations(&self) -> Option<&ObsSet> {
        match &self.answer {
            Answer::Observations(s) => Some(s),
            _ => None,
        }
    }

    /// Consumes the verdict into its observation set.
    pub fn into_observations(self) -> Option<ObsSet> {
        match self.answer {
            Answer::Observations(s) => Some(s),
            _ => None,
        }
    }

    /// The counterexample of a failing outcome.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match &self.answer {
            Answer::Outcome(CheckOutcome::Fail(cx)) => Some(cx),
            _ => None,
        }
    }

    /// Why the query was left undecided, if it was.
    pub fn inconclusive(&self) -> Option<InconclusiveReason> {
        match &self.answer {
            Answer::Inconclusive { reason, .. } => Some(*reason),
            _ => None,
        }
    }
}

/// Configuration of an [`Engine`]: the model universe every pooled
/// session encodes, plus scheduling knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The built-in modes of the model universe. Every session the
    /// engine creates encodes exactly these (mode axioms are gated by
    /// selector literals, so a wide universe costs formula size, not
    /// re-encodes). Queries selecting a mode outside the universe are
    /// rejected with [`CheckError::BadQuery`]; mining queries need
    /// [`Mode::Serial`] in the set. Defaults to all five modes.
    pub modes: ModeSet,
    /// Declarative models of the universe ([`ModelSel::Spec`] indexes
    /// this list). Compiled into every session next to the built-ins.
    pub specs: Vec<ModelSpec>,
    /// Check settings (bounds, budgets, retries); queries name
    /// their models.
    pub check: CheckConfig,
    /// How many sessions [`Engine::run_batch`] runs at once, one worker
    /// thread each. `0` and `1` both mean sequential. A key's queries
    /// always run in order on the key's one session, so the pool shape
    /// (sessions, symbolic executions, encodes) and every verdict are
    /// the same at any job count; only batches spanning several keys
    /// run in parallel.
    pub jobs: usize,
    /// Engine-wide provenance: every query behaves as if it had
    /// [`Query::with_provenance`] set. Off by default; with it off,
    /// queries that do not individually request provenance run on
    /// provenance-free sessions with byte-identical verdicts and solver
    /// statistics.
    pub provenance: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            modes: ModeSet::all(),
            specs: Vec::new(),
            check: CheckConfig::default(),
            jobs: 1,
            provenance: false,
        }
    }
}

impl EngineConfig {
    /// A universe holding a single built-in mode (the cheapest session
    /// for one-model drivers: the reference oracle's encoding).
    pub fn single(mode: Mode) -> EngineConfig {
        EngineConfig {
            modes: ModeSet::single(mode),
            ..EngineConfig::default()
        }
    }

    /// An engine configuration derived from check settings, restricted
    /// to the given built-in universe.
    pub fn from_check_config(check: &CheckConfig, modes: ModeSet) -> EngineConfig {
        EngineConfig {
            modes,
            specs: Vec::new(),
            check: check.clone(),
            jobs: 1,
            provenance: false,
        }
    }

    /// Sets the declarative-model pool (chainable).
    #[must_use]
    pub fn with_specs(mut self, specs: Vec<ModelSpec>) -> EngineConfig {
        self.specs = specs;
        self
    }

    /// Sets how many sessions run at once (chainable); see
    /// [`EngineConfig::jobs`].
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> EngineConfig {
        self.jobs = jobs;
        self
    }

    /// Enables engine-wide provenance (chainable); see
    /// [`EngineConfig::provenance`].
    #[must_use]
    pub fn with_provenance(mut self, on: bool) -> EngineConfig {
        self.provenance = on;
        self
    }
}

/// Aggregated pool counters: the amortization ledger of the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Live sessions in the pool: one per (harness, test, provenance)
    /// key the engine has answered, at any [`EngineConfig::jobs`].
    pub sessions: usize,
    /// Symbolic executions across all sessions.
    pub symexecs: u32,
    /// CNF encodings built across all sessions (== `sessions` unless
    /// lazy unrolling grew a loop bound).
    pub encodes: u32,
    /// Queries answered across all sessions.
    pub queries: u32,
}

/// One pooled session: the key identifies the (harness, test) cell it
/// answers (the model universe is engine-wide).
struct Slot<'h> {
    /// Address-identity of the harness (stable while the caller holds
    /// the `&'h` borrows the engine requires).
    hkey: usize,
    tkey: usize,
    /// Whether the session was built with provenance instrumentation.
    /// Part of the pool key: provenance queries must never reuse a
    /// plain session (no gates to extract) and plain queries must never
    /// reuse an instrumented one (its formula differs).
    prov: bool,
    session: CheckSession<'h>,
}

/// A pool of [`CheckSession`]s answering [`Query`] values.
///
/// Sessions are created lazily, one per (harness identity, test
/// identity, provenance) key — the model universe is fixed per engine —
/// and persist across [`Engine::run`] / [`Engine::run_batch`] calls,
/// so repeated batches on the same key reuse the live encoding.
pub struct Engine<'h> {
    config: EngineConfig,
    pool: Vec<Slot<'h>>,
}

impl<'h> Engine<'h> {
    /// Creates an engine with the given configuration (no sessions yet).
    pub fn new(config: EngineConfig) -> Engine<'h> {
        Engine {
            config,
            pool: Vec::new(),
        }
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Mutable access to the configuration, for adjusting resource
    /// governance (budgets, deadlines, retries) between batches. The
    /// model universe of already-pooled sessions is fixed — changing
    /// `modes`/`specs` mid-flight only affects sessions created later,
    /// so restrict mutation to the scheduling and budget knobs.
    pub fn config_mut(&mut self) -> &mut EngineConfig {
        &mut self.config
    }

    /// Aggregated amortization counters over the whole pool.
    pub fn stats(&self) -> EngineStats {
        let mut out = EngineStats {
            sessions: self.pool.len(),
            ..EngineStats::default()
        };
        for slot in &self.pool {
            let s: SessionStats = slot.session.stats();
            out.symexecs += s.symexecs;
            out.encodes += s.encodes;
            out.queries += s.queries;
        }
        out
    }

    /// Cumulative SAT statistics summed over every pooled solver.
    pub fn solver_stats(&self) -> cf_sat::Stats {
        let mut out = cf_sat::Stats::default();
        for slot in &self.pool {
            out.add(&slot.session.solver_stats());
        }
        out
    }

    /// Answers one query on its key's pooled session.
    ///
    /// # Errors
    ///
    /// Verification failures are answers ([`CheckOutcome::Fail`]);
    /// errors are infrastructure-level: invalid queries
    /// ([`CheckError::BadQuery`]), solver budget exhaustion, diverging
    /// loop bounds, serial bugs found while mining.
    pub fn run(&mut self, query: &Query<'h>) -> Result<Verdict, CheckError> {
        self.run_batch(std::slice::from_ref(query))
            .pop()
            .expect("one query in, one verdict out")
    }

    /// Answers a batch, returning verdicts in query order.
    ///
    /// Queries are grouped by (harness, test, provenance); each group
    /// runs in query order on its key's one pooled session, and up to
    /// [`EngineConfig::jobs`] groups run at once. A single group — one
    /// mutation matrix, say — therefore runs on one thread at any job
    /// count. Per-query failures (including
    /// [`CheckError::BoundsDiverged`], which mutation drivers treat as a
    /// verdict) are returned in place, not propagated.
    pub fn run_batch(&mut self, queries: &[Query<'h>]) -> Vec<Result<Verdict, CheckError>> {
        let batch = cf_trace::next_batch();
        let batch_t0 = Instant::now();
        cf_trace::emit("batch_start", || {
            vec![("queries", cf_trace::u(queries.len() as u64))]
        });
        let mut results: Vec<Option<Result<Verdict, CheckError>>> = Vec::new();
        results.resize_with(queries.len(), || None);

        // Validate up front; invalid queries never touch the pool.
        let mut valid: Vec<usize> = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            match self.validate(q) {
                Ok(()) => valid.push(i),
                Err(e) => results[i] = Some(Err(e)),
            }
        }

        // One task per (harness, test, provenance) identity; the model
        // universe is engine-wide, so the pool key reduces to identity
        // + provenance bit. Provenance queries get their own
        // (instrumented) sessions so plain queries keep byte-identical
        // formulas and stats. Every task *owns* its session for the
        // duration of the batch (taken out of the pool, returned
        // afterwards), so a worker panic can poison at most its own
        // task's cell — never a neighbour's session.
        struct Task<'h> {
            hkey: usize,
            tkey: usize,
            prov: bool,
            /// `None` after a panic discarded the session; the task
            /// loop rebuilds it from the query's key.
            session: Mutex<Option<CheckSession<'h>>>,
            members: Vec<usize>,
        }
        let mut tasks: Vec<Task<'h>> = Vec::new();
        for &i in &valid {
            let q = &queries[i];
            let (hkey, tkey) = (
                std::ptr::from_ref(q.harness) as usize,
                std::ptr::from_ref(q.test) as usize,
            );
            let prov = self.config.provenance || q.provenance;
            let t = match tasks
                .iter()
                .position(|t| t.hkey == hkey && t.tkey == tkey && t.prov == prov)
            {
                Some(t) => t,
                None => {
                    let session = self.take_session(hkey, tkey, prov, q);
                    tasks.push(Task {
                        hkey,
                        tkey,
                        prov,
                        session: Mutex::new(Some(session)),
                        members: Vec::new(),
                    });
                    tasks.len() - 1
                }
            };
            tasks[t].members.push(i);
        }

        let config = &self.config;
        let answered = run_indexed(config.jobs, tasks.len(), |t| {
            let task = &tasks[t];
            let mut slot = task.session.lock().unwrap_or_else(|p| p.into_inner());
            task.members
                .iter()
                .map(|&i| {
                    // Item lane i+1: lane 0 is the coordinator. The scope
                    // pins every event of this query to its canonical
                    // (batch, item) coordinate regardless of which worker
                    // thread runs it, so traces sort identically at any
                    // `--jobs` level.
                    let _scope = cf_trace::enabled()
                        .then(|| cf_trace::scope(batch, i as u64 + 1, queries[i].describe()));
                    (i, exec_isolated(&mut slot, &queries[i], config))
                })
                .collect::<Vec<_>>()
        });
        for (i, r) in answered.into_iter().flatten() {
            results[i] = Some(r);
        }

        // Return the surviving sessions to the pool. A session whose
        // second life also crashed stays discarded; the next batch on
        // its key starts fresh.
        for task in tasks {
            let session = task.session.into_inner().unwrap_or_else(|p| p.into_inner());
            if let Some(session) = session {
                self.pool.push(Slot {
                    hkey: task.hkey,
                    tkey: task.tkey,
                    prov: task.prov,
                    session,
                });
            }
        }

        cf_trace::emit("batch_done", || {
            vec![(
                "batch_us",
                cf_trace::u(batch_t0.elapsed().as_micros() as u64),
            )]
        });
        results
            .into_iter()
            .map(|r| r.expect("every query answered"))
            .collect()
    }

    /// Rejects queries outside the engine's model universe before any
    /// session work.
    fn validate(&self, q: &Query<'h>) -> Result<(), CheckError> {
        crate::checker::validate_test_shape(q.test)?;
        match q.model {
            ModelSel::Spec(i) => {
                if i >= self.config.specs.len() {
                    return Err(CheckError::BadQuery(format!(
                        "query selects spec #{i}, but the engine holds {} spec(s)",
                        self.config.specs.len()
                    )));
                }
                if matches!(q.kind, QueryKind::CommitMethod { .. }) {
                    return Err(CheckError::BadQuery(
                        "the commit-point method needs a built-in model".into(),
                    ));
                }
            }
            ModelSel::Builtin(m) => {
                if !matches!(q.kind, QueryKind::Mine) && !self.config.modes.contains(m) {
                    return Err(CheckError::BadQuery(format!(
                        "query selects mode `{}`, which is outside the engine's universe",
                        m.name()
                    )));
                }
            }
        }
        if matches!(q.kind, QueryKind::Mine) && !self.config.modes.contains(Mode::Serial) {
            return Err(CheckError::BadQuery(
                "mining queries need `serial` in the engine's universe".into(),
            ));
        }
        // Mine and CommitMethod run without assumption vectors; accepting
        // fences/toggles and silently answering for the unmutated build
        // would be a wrong answer, not a convenience.
        if matches!(q.kind, QueryKind::Mine | QueryKind::CommitMethod { .. })
            && !(q.fences.is_empty() && q.toggles.is_empty())
        {
            return Err(CheckError::BadQuery(format!(
                "`{}` queries do not support fence/toggle assumption vectors",
                q.kind.name()
            )));
        }
        Ok(())
    }

    /// Removes the pooled session for a key, creating it if the key is
    /// new. The caller owns the session for the batch and pushes the
    /// survivors back.
    fn take_session(
        &mut self,
        hkey: usize,
        tkey: usize,
        prov: bool,
        query: &Query<'h>,
    ) -> CheckSession<'h> {
        if let Some(i) = self
            .pool
            .iter()
            .position(|s| s.hkey == hkey && s.tkey == tkey && s.prov == prov)
        {
            return self.pool.swap_remove(i).session;
        }
        build_session(query, &self.config)
    }
}

/// Runs `work(0)`, …, `work(n - 1)` on up to `jobs` scoped worker
/// threads pulling indices from one atomic queue, and returns the
/// results in index order. At one job (or one item) it runs inline on
/// the calling thread and spawns nothing. [`Engine::run_batch`] runs
/// its per-session tasks through it; batch drivers use it to fan out
/// work the engine does not cover, such as reference mining.
pub fn run_indexed<R: Send>(jobs: usize, n: usize, work: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if jobs <= 1 || n <= 1 {
        return (0..n).map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = work(i);
                results
                    .lock()
                    .expect("no worker panics holding the lock")
                    .push((i, r));
            });
        }
    });
    let mut indexed = results.into_inner().expect("workers joined");
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Builds a fresh session for a query's (harness, test) key under the
/// engine's model universe — session creation and post-panic rebuild
/// share this path.
fn build_session<'h>(query: &Query<'h>, config: &EngineConfig) -> CheckSession<'h> {
    // Deterministic: sessions are built on the coordinator lane in group
    // order, or rebuilt after a panic in the crashed query's own lane.
    cf_trace::emit("session_spawn", || {
        vec![(
            "key",
            cf_trace::s(format!("{}/{}", query.harness.name, query.test.name)),
        )]
    });
    // Recomputing the provenance bit here (instead of threading it in)
    // keeps the post-panic rebuild path honest: a resubmitted provenance
    // query gets an instrumented session again, so a worker crash never
    // silently drops provenance.
    let sc = SessionConfig::from_check_config(&config.check, config.modes)
        .with_specs(config.specs.clone())
        .with_provenance(config.provenance || query.provenance);
    CheckSession::with_config(query.harness, query.test, sc)
}

/// Runs one query with panic isolation: a panicking session (a solver
/// bug, or an injected worker fault) is discarded and rebuilt from the
/// query's key, and the in-flight query is resubmitted once. If the
/// retry dies too, only this query degrades — to
/// [`InconclusiveReason::ShardCrashed`] — and the slot stays empty for
/// the remaining members, each rebuilding at most once more.
fn exec_isolated<'h>(
    slot: &mut Option<CheckSession<'h>>,
    query: &Query<'h>,
    config: &EngineConfig,
) -> Result<Verdict, CheckError> {
    // The phase accumulator lives outside the resubmit loop so a
    // crashed-worker verdict still reports the encode/solve work done
    // before the panic instead of an all-zero placeholder.
    let mut phase = PhaseStats::default();
    for resubmit in 0..2u64 {
        let session = slot.get_or_insert_with(|| build_session(query, config));
        #[cfg(feature = "faults")]
        let injected = cf_sat::faults::hit(&format!("worker:{}", query.describe()));
        // AssertUnwindSafe: on unwind the session is dropped below and
        // never observed again, so torn state cannot leak.
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "faults")]
            if injected == Some(cf_sat::faults::FaultKind::Panic) {
                panic!("injected worker fault: {}", query.describe());
            }
            exec(session, query, &config.check, &mut phase)
        }));
        match attempt {
            Ok(result) => return result,
            Err(_) => {
                *slot = None;
                cf_trace::emit("shard_crash", || vec![("resubmit", cf_trace::u(resubmit))]);
            }
        }
    }
    cf_trace::emit("query_done", || {
        vec![
            ("class", cf_trace::s(query.kind.name())),
            ("outcome", cf_trace::s("inconclusive")),
            ("reason", cf_trace::s("shard-crashed")),
            ("ticks", cf_trace::u(0)),
            ("conflicts", cf_trace::u(0)),
            ("propagations", cf_trace::u(0)),
            ("solves", cf_trace::u(0)),
            ("retries", cf_trace::u(0)),
            ("wall_us", cf_trace::u(0)),
        ]
    });
    Ok(Verdict {
        answer: Answer::Inconclusive {
            reason: InconclusiveReason::ShardCrashed,
            spent: 0,
        },
        phase,
        stats: QueryStats::default(),
        provenance: None,
    })
}

/// Runs one query on its session with the escalating retry ladder,
/// attributing solver work and wall time across all attempts.
///
/// Attempt `n` runs with the base budgets (the query's override, else
/// the engine's [`CheckConfig`]) scaled by `retry_growth^n`; the
/// wall-clock deadline, if any, is re-armed fresh per attempt so a
/// transient stall does not starve the retry. When the last permitted
/// attempt still exhausts, the query resolves to
/// [`Answer::Inconclusive`] with the ticks spent across every attempt.
fn exec(
    session: &mut CheckSession<'_>,
    query: &Query<'_>,
    check: &CheckConfig,
    phase: &mut PhaseStats,
) -> Result<Verdict, CheckError> {
    let t0 = Instant::now();
    let before = session.solver_stats();
    let base_ticks = query.budget.or(check.tick_budget);
    let deadline = query.deadline.or(check.deadline);
    let mut scale: u64 = 1;
    let mut retries: u32 = 0;
    cf_trace::emit("query_start", || {
        vec![
            ("class", cf_trace::s(query.kind.name())),
            (
                "model",
                cf_trace::s(match query.model {
                    ModelSel::Builtin(m) => m.name().to_string(),
                    ModelSel::Spec(i) => format!("spec#{i}"),
                }),
            ),
        ]
    });
    let done = |delta: cf_sat::Stats,
                outcome: &'static str,
                reason: Option<String>,
                retries: u32,
                wall: Duration| {
        cf_trace::emit("query_done", || {
            let mut fields = vec![
                ("class", cf_trace::s(query.kind.name())),
                ("outcome", cf_trace::s(outcome)),
            ];
            if let Some(r) = reason {
                fields.push(("reason", cf_trace::s(r)));
            }
            fields.extend([
                ("ticks", cf_trace::u(delta.ticks())),
                ("conflicts", cf_trace::u(delta.conflicts)),
                ("propagations", cf_trace::u(delta.propagations)),
                ("solves", cf_trace::u(delta.solves)),
                ("retries", cf_trace::u(u64::from(retries))),
                ("wall_us", cf_trace::u(wall.as_micros() as u64)),
            ]);
            fields
        });
    };
    loop {
        session.config.tick_budget = base_ticks.map(|b| b.saturating_mul(scale));
        session.config.deadline_at = deadline.map(|d| Instant::now() + d);
        cf_trace::emit("attempt", || {
            let mut fields = vec![("n", cf_trace::u(u64::from(retries)))];
            if let Some(b) = session.config.tick_budget {
                fields.push(("tick_budget", cf_trace::u(b)));
            }
            fields
        });
        match exec_once(session, query, phase) {
            Err(CheckError::Exhausted(reason)) => {
                if retries < check.max_retries {
                    retries += 1;
                    scale = scale.saturating_mul(check.retry_growth.max(1));
                    cf_trace::emit("retry", || {
                        vec![
                            ("attempt", cf_trace::u(u64::from(retries))),
                            ("reason", cf_trace::s(reason.slug())),
                            (
                                "spent",
                                cf_trace::u(session.solver_stats().since(&before).ticks()),
                            ),
                        ]
                    });
                    continue;
                }
                let delta = session.solver_stats().since(&before);
                phase.total_time = t0.elapsed();
                done(
                    delta,
                    "inconclusive",
                    Some(reason.slug().to_string()),
                    retries,
                    t0.elapsed(),
                );
                // Drop any provenance a half-finished attempt left
                // behind; an inconclusive verdict proves nothing.
                let _ = session.take_provenance();
                return Ok(Verdict {
                    answer: Answer::Inconclusive {
                        reason,
                        spent: delta.ticks(),
                    },
                    phase: phase.clone(),
                    stats: QueryStats::from_delta(delta, t0.elapsed(), retries),
                    provenance: None,
                });
            }
            Err(e) => {
                let delta = session.solver_stats().since(&before);
                phase.total_time = t0.elapsed();
                done(delta, "error", None, retries, t0.elapsed());
                return Err(e);
            }
            Ok(answer) => {
                let delta = session.solver_stats().since(&before);
                phase.total_time = t0.elapsed();
                let outcome = match &answer {
                    Answer::Outcome(o) if o.passed() => "pass",
                    Answer::Outcome(_) => "fail",
                    Answer::Observations(_) => "observations",
                    Answer::Inconclusive { .. } => "inconclusive",
                };
                done(delta, outcome, None, retries, t0.elapsed());
                let provenance = session.take_provenance();
                if let Some(p) = &provenance {
                    cf_trace::emit("provenance", || {
                        vec![
                            (
                                "kind",
                                cf_trace::s(match p.kind {
                                    ProvenanceKind::Proof => "proof",
                                    ProvenanceKind::Witness => "witness",
                                }),
                            ),
                            ("core_size", cf_trace::u(p.core_size as u64)),
                            ("minimized", cf_trace::u(u64::from(p.minimized))),
                            ("uses", cf_trace::s(p.summary())),
                        ]
                    });
                }
                return Ok(Verdict {
                    answer,
                    phase: phase.clone(),
                    stats: QueryStats::from_delta(delta, t0.elapsed(), retries),
                    provenance,
                });
            }
        }
    }
}

/// One un-retried attempt at a query: dispatch by kind, plus the
/// `solve:` fault hook (synthetic exhaustion consumes no solver work;
/// a stall sleeps here, *after* the deadline was armed, so the solver's
/// own deadline check is what trips). Phase timings accumulate into
/// `phase` on every path, so exhausted and crashed attempts keep their
/// partial attribution.
fn exec_once(
    session: &mut CheckSession<'_>,
    query: &Query<'_>,
    phase: &mut PhaseStats,
) -> Result<Answer, CheckError> {
    #[cfg(feature = "faults")]
    match cf_sat::faults::hit(&format!("solve:{}", query.describe())) {
        Some(cf_sat::faults::FaultKind::Exhaust) => {
            return Err(CheckError::Exhausted(InconclusiveReason::Budget));
        }
        Some(cf_sat::faults::FaultKind::Stall(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
        }
        Some(cf_sat::faults::FaultKind::Panic) => {
            panic!("injected solve fault: {}", query.describe());
        }
        None => {}
    }
    match &query.kind {
        QueryKind::Mine => session.query_mine(phase).map(Answer::Observations),
        QueryKind::Enumerate => session
            .query_enumerate(query.model, &query.fences, &query.toggles, phase)
            .map(Answer::Observations),
        QueryKind::CheckInclusion { spec } => session
            .query_inclusion(
                query.model,
                spec.as_ref(),
                &query.fences,
                &query.toggles,
                phase,
            )
            .map(Answer::Outcome),
        QueryKind::CommitMethod { ty } => {
            let ModelSel::Builtin(mode) = query.model else {
                unreachable!("validated: commit queries use built-in models");
            };
            session.query_commit(mode, *ty, phase).map(Answer::Outcome)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_spec::OpSig;

    fn mailbox() -> (Harness, TestSpec) {
        let program = cf_minic::compile(
            r#"
            int data; int flag;
            void put(int v) { data = v + 1; fence("store-store"); flag = 1; }
            int get() { int f = flag; fence("load-load");
                        if (f == 0) { return 0 - 1; } return data; }
            "#,
        )
        .expect("compiles");
        let harness = Harness {
            name: "mailbox".into(),
            program,
            init_proc: None,
            ops: vec![
                OpSig {
                    key: 'p',
                    proc_name: "put".into(),
                    num_args: 1,
                    has_ret: false,
                },
                OpSig {
                    key: 'g',
                    proc_name: "get".into(),
                    num_args: 0,
                    has_ret: true,
                },
            ],
        };
        let test = TestSpec::parse("pg", "( p | g )").expect("parses");
        (harness, test)
    }

    /// Everything a verdict decides, plus the solver work it took: equal
    /// summaries mean the same answer reached the same way.
    fn summary(r: &Result<Verdict, CheckError>) -> String {
        match r {
            Ok(v) => format!(
                "{:?} solves={} conflicts={} propagations={}",
                v.answer, v.stats.solves, v.stats.conflicts, v.stats.propagations
            ),
            Err(e) => format!("error: {e}"),
        }
    }

    #[test]
    fn one_session_per_key_at_any_jobs_level() {
        let (h, t) = mailbox();
        let t2 = TestSpec::parse("pgg", "( p | g g )").expect("parses");
        let spec = Arc::new(crate::mine::mine_reference(&h, &t).expect("mines").spec);
        let spec2 = Arc::new(crate::mine::mine_reference(&h, &t2).expect("mines").spec);
        // Nine queries on one key: a mine, then an enumeration and a
        // check per hardware model.
        let mut one_key = vec![Query::mine(&h, &t)];
        for &m in Mode::hardware().iter() {
            one_key.push(Query::enumerate(&h, &t).on(m));
            one_key.push(Query::check_inclusion(&h, &t, spec.clone()).on(m));
        }
        // Two keys, interleaved in the batch.
        let mut two_keys = Vec::new();
        for &m in Mode::hardware().iter() {
            two_keys.push(Query::check_inclusion(&h, &t, spec.clone()).on(m));
            two_keys.push(Query::check_inclusion(&h, &t2, spec2.clone()).on(m));
        }
        let run = |jobs: usize, batch: &[Query<'_>]| {
            let mut engine = Engine::new(EngineConfig::default().with_jobs(jobs));
            let verdicts: Vec<String> = engine.run_batch(batch).iter().map(summary).collect();
            (verdicts, engine.stats())
        };
        for (batch, keys) in [(&one_key, 1), (&two_keys, 2)] {
            let (seq, seq_stats) = run(1, batch);
            let (par, par_stats) = run(4, batch);
            assert_eq!(seq, par, "verdicts at jobs 1 and jobs 4");
            assert_eq!(seq_stats, par_stats, "pool shape at jobs 1 and jobs 4");
            assert_eq!(seq_stats.sessions, keys, "one session per key");
            assert_eq!(seq_stats.encodes as usize, keys, "one encoding per key");
            assert_eq!(seq_stats.queries as usize, batch.len());
        }
    }

    #[test]
    fn queries_outside_the_universe_fail_fast() {
        let (h, t) = mailbox();
        let mut engine = Engine::new(EngineConfig::single(Mode::Tso));
        // A mode the engine does not encode.
        let err = engine
            .run(&Query::enumerate(&h, &t).on(Mode::Relaxed))
            .expect_err("relaxed is outside the universe");
        assert!(matches!(err, CheckError::BadQuery(_)), "{err}");
        // A spec index the engine does not hold.
        let err = engine
            .run(&Query::enumerate(&h, &t).on_model(ModelSel::Spec(0)))
            .expect_err("no specs configured");
        assert!(matches!(err, CheckError::BadQuery(_)), "{err}");
        // Mining needs Seriality in the universe.
        let err = engine
            .run(&Query::mine(&h, &t))
            .expect_err("serial is outside the universe");
        assert!(matches!(err, CheckError::BadQuery(_)), "{err}");
        // Nothing above touched the pool.
        assert_eq!(engine.stats().sessions, 0);
    }

    #[test]
    fn assumption_vectors_are_rejected_on_kinds_that_ignore_them() {
        // Mine and CommitMethod run without fence/toggle assumptions;
        // silently answering for the unmutated build would be a wrong
        // answer, so the engine must refuse.
        let (h, t) = mailbox();
        let mut engine = Engine::new(EngineConfig::default());
        let err = engine
            .run(&Query::mine(&h, &t).with_toggles(&[0]))
            .expect_err("mine ignores toggles");
        assert!(matches!(err, CheckError::BadQuery(_)), "{err}");
        let err = engine
            .run(
                &Query::commit_method(&h, &t, AbstractType::Queue)
                    .on(Mode::Sc)
                    .with_fences(&[0]),
            )
            .expect_err("commit ignores fences");
        assert!(matches!(err, CheckError::BadQuery(_)), "{err}");
    }

    #[test]
    fn the_reference_oracle_refuses_fences_and_toggles() {
        // The reference checks concrete programs; its callers rebuild
        // fenced or mutated builds instead of assuming them.
        let (h, t) = mailbox();
        let config = CheckConfig::default();
        let spec = crate::mine::mine_reference(&h, &t).expect("mines").spec;
        let check = Query::check_inclusion(&h, &t, spec).on(Mode::Tso);
        for q in [
            check.clone().with_fences(&[0]),
            check.clone().with_toggles(&[1]),
            Query::enumerate(&h, &t).on(Mode::Pso).with_toggles(&[0]),
            Query::mine(&h, &t).with_fences(&[2]),
            Query::commit_method(&h, &t, AbstractType::Queue)
                .on(Mode::Sc)
                .with_toggles(&[0]),
        ] {
            let err = crate::oracle::oneshot(&q, &config, &[]).expect_err("refused");
            assert!(
                matches!(err, CheckError::BadQuery(_)),
                "{}: {err}",
                q.describe()
            );
        }
        // Without assumption vectors the same questions are answered.
        let v = crate::oracle::oneshot(&check, &config, &[]).expect("plain check runs");
        assert!(v.passed(), "the fenced mailbox passes on tso");
    }
}
