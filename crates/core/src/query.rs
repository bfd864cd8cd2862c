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
//!   the assumption vector (active toggle sites: mutants and candidate
//!   fences) and the question kind ([`QueryKind`]: mine,
//!   enumerate, inclusion check, commit-point method). All axes are
//!   orthogonal and builder-composable.
//! * [`Engine`] — a pool of [`CheckSession`]s keyed by (harness, test).
//!   How every query is answered is engine-wide configuration: the
//!   model universe ([`EngineConfig::modes`] + [`EngineConfig::specs`]),
//!   provenance, and the budgets of [`EngineConfig::check`].
//!   [`Engine::run`] answers one query; [`Engine::run_batch`] groups a
//!   mixed batch by session key, reuses live encodings across calls,
//!   and runs up to [`EngineConfig::jobs`] keys' sessions at once (one
//!   session per key at any job count, so every key encodes once).
//!   [`Engine::run_batch_keeping`] lets the caller drop each key's
//!   session as soon as its last query is answered, so a sweep's memory
//!   follows the sessions in flight.
//!
//! Every [`Verdict`] carries the one record of its query's work
//! ([`QueryStats`]: the encodings it built and its solve calls), so
//! batch drivers can report cost per question; the engine's totals are
//! running sums of these records.
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
    CheckConfig, CheckError, CheckOutcome, Counterexample, InconclusiveReason, ObsSet, RETRY_GROWTH,
};
use crate::commit::AbstractType;
use crate::encode::ModelSel;
use crate::provenance::{Provenance, ProvenanceKind};
use crate::session::{CheckSession, SessionConfig};
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
/// toggle sites, and the question kind — so drivers describe *what*
/// they want answered and leave session pooling, encoding reuse,
/// parallel scheduling and resource governance to the [`Engine`] and
/// its [`EngineConfig`].
#[derive(Clone, Debug)]
pub struct Query<'h> {
    harness: &'h Harness,
    test: &'h TestSpec,
    model: ModelSel,
    pub(crate) toggles: Vec<u32>,
    kind: QueryKind,
}

impl<'h> Query<'h> {
    fn with_kind(harness: &'h Harness, test: &'h TestSpec, kind: QueryKind) -> Query<'h> {
        Query {
            harness,
            test,
            model: ModelSel::Builtin(Mode::Relaxed),
            toggles: Vec::new(),
            kind,
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

    /// Switches exactly the given toggle sites ([`cf_lsl::Stmt::Toggle`])
    /// to their mutant branch; all other sites run their original
    /// branch. Mutation matrices select one mutant this way, fence
    /// inference one candidate placement (chainable).
    #[must_use]
    pub fn with_toggles(mut self, sites: &[u32]) -> Query<'h> {
        self.toggles = sites.to_vec();
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
    /// `?` cell and keep going instead of aborting the table. The
    /// solver work spent across all retry attempts is the verdict's
    /// [`QueryStats`].
    Inconclusive {
        /// Why the query could not be decided.
        reason: InconclusiveReason,
    },
}

/// The record of one query's work, counted where the work is done:
/// each lazy-unrolling round adds the solver work of an encoding it
/// builds (unit propagation while the CNF is built) and of its own
/// solve calls, bound-overflow probes included. Work on a discarded
/// encoding is kept when a bound grows, and across every retry attempt.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Solver calls issued by this query (incl. bound-overflow probes).
    pub solves: u64,
    /// Conflicts of this query.
    pub conflicts: u64,
    /// Restarts of this query.
    pub restarts: u64,
    /// Propagations of this query.
    pub propagations: u64,
    /// Assumption literals passed for this query.
    pub assumed_literals: u64,
    /// Encodings this query built: 0 on a warm session, one more per
    /// loop-bound growth.
    pub encodes: u32,
    /// Variables of the last encoding the query ran on, query-local
    /// circuits included.
    pub vars: usize,
    /// Clauses of that encoding.
    pub clauses: u64,
    /// Wall-clock time of the query end to end (including retries).
    pub wall: Duration,
    /// Budget-escalation retries the engine spent on this query.
    pub retries: u32,
}

impl QueryStats {
    /// Solver ticks (propagations + conflicts), the unit of tick
    /// budgets and of the `--profile` ledger.
    pub fn ticks(&self) -> u64 {
        self.propagations + self.conflicts
    }

    /// The record's solver counters as [`cf_sat::Stats`]. Decisions,
    /// learnt literals and reductions are not part of the record and
    /// read 0.
    pub fn solver_stats(&self) -> cf_sat::Stats {
        cf_sat::Stats {
            solves: self.solves,
            conflicts: self.conflicts,
            restarts: self.restarts,
            propagations: self.propagations,
            assumed_literals: self.assumed_literals,
            ..cf_sat::Stats::default()
        }
    }

    /// Adds solver counters (a delta of one solver) to the record.
    pub(crate) fn charge(&mut self, work: &cf_sat::Stats) {
        self.solves += work.solves;
        self.conflicts += work.conflicts;
        self.restarts += work.restarts;
        self.propagations += work.propagations;
        self.assumed_literals += work.assumed_literals;
    }
}

/// The unified result of one [`Query`]: the answer plus the record of
/// this query's work.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The answer payload.
    pub answer: Answer,
    /// The query's work ([`QueryStats`]).
    pub stats: QueryStats,
    /// What the verdict leaned on, when [`EngineConfig::provenance`] is
    /// on and the query produced a pass/fail outcome. `None` for
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
    /// Check settings (range analysis, spin bound, budgets, retries,
    /// core post-processing); queries name their models.
    pub check: CheckConfig,
    /// How many sessions [`Engine::run_batch`] runs at once, one worker
    /// thread each. `0` and `1` both mean sequential. A key's queries
    /// always run in order on the key's one session, so the pool shape
    /// (sessions, symbolic executions, encodes) and every verdict are
    /// the same at any job count; only batches spanning several keys
    /// run in parallel.
    pub jobs: usize,
    /// Verdict [`Provenance`]: inclusion-check verdicts carry the
    /// assumption core of the decisive solve mapped back to named
    /// artifacts — which fences, axioms, toggles and gates the proof
    /// (or witness) leaned on. Extraction adds **zero extra solves**;
    /// see [`CheckConfig::core_minimize_ticks`] for optional core
    /// minimization. Off by default; with it off, sessions are built
    /// without instrumentation, so verdicts and solver statistics are
    /// byte-identical to a build without provenance.
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

/// The amortization ledger of the engine: the sessions it built, and
/// running sums of the records of the queries it answered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Sessions the engine built: one per (harness, test) key it has
    /// answered, at any [`EngineConfig::jobs`], plus one each time a key
    /// whose session was gone at the end of a batch is asked about
    /// again — dropped by its caller ([`Engine::run_batch_keeping`]) or
    /// discarded after crashing twice. Only the rebuild after a panic
    /// inside the crashing batch does not count. Dropped sessions stay
    /// counted, so this is not the number of live sessions.
    pub sessions: usize,
    /// CNF encodings the engine's queries built (== `sessions` unless
    /// lazy unrolling grew a loop bound). Each encoding is one symbolic
    /// execution.
    pub encodes: u32,
    /// Queries answered, errors included; retries do not count again.
    pub queries: u32,
}

/// One pooled session: the key identifies the (harness, test) cell it
/// answers (the model universe is engine-wide).
struct Slot<'h> {
    /// Address-identity of the harness (stable while the caller holds
    /// the `&'h` borrows the engine requires).
    hkey: usize,
    tkey: usize,
    session: CheckSession<'h>,
}

/// A pool of [`CheckSession`]s answering [`Query`] values.
///
/// Sessions are created lazily, one per (harness identity, test
/// identity) key — the model universe and provenance are fixed per
/// engine. A session lives until its caller stops asking about its
/// key: [`Engine::run`] and [`Engine::run_batch`] keep every session
/// pooled, so repeated batches on the same key reuse the live encoding,
/// while [`Engine::run_batch_keeping`] drops the sessions its caller is
/// done with. A dropped key asked about again gets a fresh session.
pub struct Engine<'h> {
    config: EngineConfig,
    pool: Vec<Slot<'h>>,
    /// Sessions `take_session` built ([`EngineStats::sessions`]).
    built: usize,
    /// Running sums of every answered query's [`QueryStats`], so the
    /// totals do not depend on which sessions are still pooled.
    solver: cf_sat::Stats,
    encodes: u32,
    queries: u32,
}

impl<'h> Engine<'h> {
    /// Creates an engine with the given configuration (no sessions yet).
    pub fn new(config: EngineConfig) -> Engine<'h> {
        Engine {
            config,
            pool: Vec::new(),
            built: 0,
            solver: cf_sat::Stats::default(),
            encodes: 0,
            queries: 0,
        }
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Mutable access to the check settings, for adjusting resource
    /// governance (budgets, deadlines, retries, core post-processing)
    /// between batches; every later query reads them. `range_analysis`
    /// shapes an encoding, so changing it applies only to sessions built
    /// later, including the fresh session of a dropped key asked about
    /// again. The model universe, `jobs` and provenance are fixed at
    /// [`Engine::new`].
    pub fn check_mut(&mut self) -> &mut CheckConfig {
        &mut self.config.check
    }

    /// The amortization ledger: sessions built, encodes and queries.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            sessions: self.built,
            encodes: self.encodes,
            queries: self.queries,
        }
    }

    /// The solver counters of every query the engine answered, summed
    /// ([`QueryStats::solver_stats`]).
    pub fn solver_stats(&self) -> cf_sat::Stats {
        self.solver
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

    /// Answers a batch, returning verdicts in query order, and keeps
    /// every session it used pooled for later batches.
    ///
    /// Queries are grouped by (harness, test); each group runs in query
    /// order on its key's one pooled session, and up to
    /// [`EngineConfig::jobs`] groups run at once. A single group — one
    /// mutation matrix, say — therefore runs on one thread at any job
    /// count. Per-query failures (including
    /// [`CheckError::BoundsDiverged`], which mutation drivers treat as a
    /// verdict) are returned in place, not propagated.
    pub fn run_batch(&mut self, queries: &[Query<'h>]) -> Vec<Result<Verdict, CheckError>> {
        self.run_batch_keeping(queries, |_| true)
    }

    /// Answers a batch like [`Engine::run_batch`], and asks the caller,
    /// per key, whether the key's session stays pooled.
    ///
    /// `keep` sees one key's results, in query order, as soon as the
    /// key's last query is answered. When it returns `false` the
    /// session is dropped on its worker right away, not when the batch
    /// or the engine ends, and a later query on the key builds a fresh
    /// session (and encoding). `keep` runs on any worker, in any key
    /// order; when it decides from the results it is handed alone, the
    /// sessions built, the encodes and every verdict are the same at
    /// any [`EngineConfig::jobs`].
    pub fn run_batch_keeping(
        &mut self,
        queries: &[Query<'h>],
        keep: impl Fn(&[&Result<Verdict, CheckError>]) -> bool + Sync,
    ) -> Vec<Result<Verdict, CheckError>> {
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

        // One task per (harness, test) identity; the model universe and
        // provenance are engine-wide, so identity is the whole pool
        // key. Every task *owns* its session for the duration of the
        // batch (taken out of the pool, returned afterwards), so a
        // worker panic can poison at most its own task's cell — never a
        // neighbour's session.
        struct Task<'h> {
            hkey: usize,
            tkey: usize,
            /// `None` after a panic discarded the session (the task
            /// loop rebuilds it from the query's key), or once `keep`
            /// refused it.
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
            let t = match tasks.iter().position(|t| t.hkey == hkey && t.tkey == tkey) {
                Some(t) => t,
                None => {
                    let session = self.take_session(hkey, tkey, q);
                    tasks.push(Task {
                        hkey,
                        tkey,
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
            let answers = task
                .members
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
                .collect::<Vec<_>>();
            let results: Vec<&Result<Verdict, CheckError>> =
                answers.iter().map(|(_, (r, _))| r).collect();
            if !keep(&results) {
                *slot = None;
            }
            answers
        });
        for (i, (r, spent)) in answered.into_iter().flatten() {
            self.solver.add(&spent.solver_stats());
            self.encodes += spent.encodes;
            self.queries += 1;
            results[i] = Some(r);
        }

        // Return the surviving sessions to the pool. A session its
        // caller did not keep, or whose second life also crashed, is
        // gone; the next batch on its key starts fresh.
        for task in tasks {
            let session = task.session.into_inner().unwrap_or_else(|p| p.into_inner());
            if let Some(session) = session {
                self.pool.push(Slot {
                    hkey: task.hkey,
                    tkey: task.tkey,
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

    /// Rejects queries outside the engine's model universe, and
    /// inclusion specs of the wrong width, before any session work.
    fn validate(&self, q: &Query<'h>) -> Result<(), CheckError> {
        crate::checker::validate_test_shape(q.test)?;
        if let QueryKind::CheckInclusion { spec } = &q.kind {
            crate::checker::validate_spec_width(q.harness, q.test, spec)?;
        }
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
        // toggles and silently answering for the unmutated build would be
        // a wrong answer, not a convenience.
        if matches!(q.kind, QueryKind::Mine | QueryKind::CommitMethod { .. })
            && !q.toggles.is_empty()
        {
            return Err(CheckError::BadQuery(format!(
                "`{}` queries do not support toggle assumption vectors",
                q.kind.name()
            )));
        }
        Ok(())
    }

    /// Removes the pooled session for a key, building (and counting) a
    /// new one if the key has none. The caller owns the session for the
    /// batch and pushes the kept survivors back.
    fn take_session(&mut self, hkey: usize, tkey: usize, query: &Query<'h>) -> CheckSession<'h> {
        if let Some(i) = self
            .pool
            .iter()
            .position(|s| s.hkey == hkey && s.tkey == tkey)
        {
            return self.pool.swap_remove(i).session;
        }
        self.built += 1;
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
    let sc = SessionConfig {
        specs: config.specs.clone(),
        provenance: config.provenance,
        ..SessionConfig::from_check_config(&config.check, config.modes)
    };
    CheckSession::with_config(query.harness, query.test, sc)
}

/// Runs one query with panic isolation: a panicking session (a solver
/// bug, or an injected worker fault) is discarded and rebuilt from the
/// query's key, and the in-flight query is resubmitted once. If the
/// retry dies too, only this query degrades — to
/// [`InconclusiveReason::ShardCrashed`] — and the slot stays empty for
/// the remaining members, each rebuilding at most once more. Returns
/// the query's record next to the result, because an error carries
/// none; the work of a crashed attempt is discarded with its session.
fn exec_isolated<'h>(
    slot: &mut Option<CheckSession<'h>>,
    query: &Query<'h>,
    config: &EngineConfig,
) -> (Result<Verdict, CheckError>, QueryStats) {
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
            exec(session, query, &config.check)
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
    let verdict = Verdict {
        answer: Answer::Inconclusive {
            reason: InconclusiveReason::ShardCrashed,
        },
        stats: QueryStats::default(),
        provenance: None,
    };
    (Ok(verdict), QueryStats::default())
}

/// Runs one query on its session with the escalating retry ladder; the
/// session's record of the query's work covers every attempt.
///
/// Attempt `n` runs with the [`CheckConfig::tick_budget`] scaled by
/// [`RETRY_GROWTH`]`^n`; the wall-clock deadline, if any, is re-armed
/// fresh per attempt so a transient stall does not starve the retry.
/// When the last permitted attempt still exhausts, the query resolves
/// to [`Answer::Inconclusive`].
fn exec(
    session: &mut CheckSession<'_>,
    query: &Query<'_>,
    check: &CheckConfig,
) -> (Result<Verdict, CheckError>, QueryStats) {
    let t0 = Instant::now();
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
    let answer = loop {
        let tick_budget = check.tick_budget.map(|b| b.saturating_mul(scale));
        session.set_limits(tick_budget, check.deadline.map(|d| Instant::now() + d));
        cf_trace::emit("attempt", || {
            let mut fields = vec![("n", cf_trace::u(u64::from(retries)))];
            if let Some(b) = tick_budget {
                fields.push(("tick_budget", cf_trace::u(b)));
            }
            fields
        });
        match exec_once(session, query, check) {
            Err(CheckError::Exhausted(reason)) if retries < check.max_retries => {
                retries += 1;
                scale = scale.saturating_mul(RETRY_GROWTH);
                cf_trace::emit("retry", || {
                    vec![
                        ("attempt", cf_trace::u(u64::from(retries))),
                        ("reason", cf_trace::s(reason.slug())),
                        ("spent", cf_trace::u(session.spent().ticks())),
                    ]
                });
            }
            Err(CheckError::Exhausted(reason)) => break Ok(Answer::Inconclusive { reason }),
            other => break other,
        }
    };
    let mut stats = session.take_spent();
    stats.wall = t0.elapsed();
    stats.retries = retries;
    let (outcome, reason) = match &answer {
        Ok(Answer::Outcome(o)) if o.passed() => ("pass", None),
        Ok(Answer::Outcome(_)) => ("fail", None),
        Ok(Answer::Observations(_)) => ("observations", None),
        Ok(Answer::Inconclusive { reason, .. }) => ("inconclusive", Some(reason.slug())),
        Err(_) => ("error", None),
    };
    cf_trace::emit("query_done", || {
        let mut fields = vec![
            ("class", cf_trace::s(query.kind.name())),
            ("outcome", cf_trace::s(outcome)),
        ];
        if let Some(r) = reason {
            fields.push(("reason", cf_trace::s(r)));
        }
        fields.extend([
            ("ticks", cf_trace::u(stats.ticks())),
            ("conflicts", cf_trace::u(stats.conflicts)),
            ("propagations", cf_trace::u(stats.propagations)),
            ("solves", cf_trace::u(stats.solves)),
            ("retries", cf_trace::u(u64::from(retries))),
            ("wall_us", cf_trace::u(stats.wall.as_micros() as u64)),
        ]);
        fields
    });
    let answer = match answer {
        Ok(answer) => answer,
        Err(e) => return (Err(e), stats),
    };
    // An inconclusive verdict proves nothing: drop any provenance a
    // half-finished attempt left behind.
    let provenance = session
        .take_provenance()
        .filter(|_| !matches!(answer, Answer::Inconclusive { .. }));
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
    let verdict = Verdict {
        answer,
        stats,
        provenance,
    };
    (Ok(verdict), stats)
}

/// One un-retried attempt at a query: dispatch by kind, plus the
/// `solve:` fault hook (synthetic exhaustion consumes no solver work;
/// a stall sleeps here, *after* the deadline was armed, so the solver's
/// own deadline check is what trips).
fn exec_once(
    session: &mut CheckSession<'_>,
    query: &Query<'_>,
    check: &CheckConfig,
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
        QueryKind::Mine => session.query_mine().map(Answer::Observations),
        QueryKind::Enumerate => session
            .query_enumerate(query.model, &query.toggles)
            .map(Answer::Observations),
        QueryKind::CheckInclusion { spec } => session
            .query_inclusion(query.model, spec.as_ref(), &query.toggles, check)
            .map(Answer::Outcome),
        QueryKind::CommitMethod { ty } => {
            let ModelSel::Builtin(mode) = query.model else {
                unreachable!("validated: commit queries use built-in models");
            };
            session.query_commit(mode, *ty).map(Answer::Outcome)
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
    fn a_dropped_session_is_rebuilt_and_a_kept_one_is_not() {
        let (h, t) = mailbox();
        let t2 = TestSpec::parse("pgg", "( p | g g )").expect("parses");
        let spec = Arc::new(crate::mine::mine_reference(&h, &t).expect("mines").spec);
        let spec2 = Arc::new(crate::mine::mine_reference(&h, &t2).expect("mines").spec);
        let pg = |m: Mode| Query::check_inclusion(&h, &t, spec.clone()).on(m);
        let pgg = |m: Mode| Query::check_inclusion(&h, &t2, spec2.clone()).on(m);
        // The first batch asks once about `pg` and twice about `pgg`,
        // and keeps only the keys it asked about more than once; the
        // second asks about both again and keeps both.
        let first_batch = [pg(Mode::Tso), pgg(Mode::Tso), pgg(Mode::Pso)];
        let second_batch = [pg(Mode::Sc), pgg(Mode::Sc)];
        // Each verdict's summary (with its solver counters) and encodes,
        // then the engine's ledger after the batch.
        let record = |verdicts: Vec<Result<Verdict, CheckError>>, engine: &Engine| {
            let verdicts: Vec<(String, u32)> = verdicts
                .iter()
                .map(|r| {
                    let v = r.as_ref().expect("verdict");
                    assert!(v.passed(), "the fenced mailbox passes");
                    (summary(r), v.stats.encodes)
                })
                .collect();
            (verdicts, engine.stats())
        };
        let run = |jobs: usize| {
            let mut engine = Engine::new(EngineConfig::default().with_jobs(jobs));
            let first = engine.run_batch_keeping(&first_batch, |answers| answers.len() > 1);
            let first = record(first, &engine);
            let second = engine.run_batch_keeping(&second_batch, |_| true);
            (first, record(second, &engine))
        };
        let (first, second) = run(1);
        assert_eq!(
            (first.clone(), second.clone()),
            run(4),
            "verdicts, encodes and ledger at jobs 1 and jobs 4"
        );
        let encodes = |verdicts: &[(String, u32)]| verdicts.iter().map(|v| v.1).collect::<Vec<_>>();
        assert_eq!(encodes(&first.0), [1, 1, 0]);
        assert_eq!((first.1.sessions, first.1.encodes), (2, 2));
        // Only the refused key `pg` builds again: one more session, one
        // more encoding.
        assert_eq!(encodes(&second.0), [1, 0]);
        assert_eq!((second.1.sessions, second.1.encodes), (3, 3));
        assert_eq!(second.1.queries, 5);
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
        // Mine and CommitMethod run without toggle assumptions;
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
                    .with_toggles(&[0]),
            )
            .expect_err("commit ignores toggles");
        assert!(matches!(err, CheckError::BadQuery(_)), "{err}");
    }

    #[test]
    fn inclusion_specs_of_the_wrong_width_are_rejected() {
        // The mailbox test observes two values: put's argument and get's
        // return. Compared position by position, width-1 vectors would
        // ignore the second (a false PASS) and width-3 vectors would
        // index past the observation vector.
        let (h, t) = mailbox();
        let config = CheckConfig::default();
        let mut engine = Engine::new(EngineConfig::single(Mode::Relaxed));
        for width in [1, 3] {
            let spec = ObsSet {
                vectors: [vec![cf_lsl::Value::Int(0); width]].into(),
            };
            let q = Query::check_inclusion(&h, &t, spec).on(Mode::Relaxed);
            let err = engine.run(&q).expect_err("the engine refuses");
            assert!(matches!(err, CheckError::BadQuery(_)), "{err}");
            let err = crate::oracle::oneshot(&q, &config, &[]).expect_err("the oracle refuses");
            assert!(matches!(err, CheckError::BadQuery(_)), "{err}");
        }
        assert_eq!(
            engine.stats().sessions,
            0,
            "rejected before any session work"
        );
    }

    #[test]
    fn the_reference_oracle_refuses_toggles() {
        // The reference checks concrete programs; its callers rebuild
        // fenced or mutated builds instead of assuming them.
        let (h, t) = mailbox();
        let config = CheckConfig::default();
        let spec = crate::mine::mine_reference(&h, &t).expect("mines").spec;
        let check = Query::check_inclusion(&h, &t, spec).on(Mode::Tso);
        for q in [
            check.clone().with_toggles(&[1]),
            Query::enumerate(&h, &t).on(Mode::Pso).with_toggles(&[0]),
            Query::mine(&h, &t).with_toggles(&[2]),
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
