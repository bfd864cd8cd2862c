//! Incremental checking sessions: encode once, solve many.
//!
//! CheckFence's practical cost is dominated by re-checking the same test
//! under slightly different configurations: fence inference re-checks one
//! test per candidate placement (§4.2), spec mining solves once per
//! observation (§3.2), and model sweeps re-check per memory model. A
//! one-shot check ([`crate::oracle::oneshot`], the reference) pays a
//! full symbolic execution, a full CNF encode and a cold SAT solver for
//! each of those checks, even though the formula differs only
//! marginally between them.
//!
//! A [`CheckSession`] binds one (harness, test) pair to one *persistent*
//! incremental solver and answers every query through assumptions (the
//! [`Engine`](crate::query::Engine) pools sessions and is their only
//! driver):
//!
//! * **Program variants** ([`cf_lsl::Stmt::Toggle`] sites: mutants and
//!   candidate fences) are encoded once, each site's two branches
//!   guarded by the polarity of a per-site *toggle literal*. A mutant or
//!   a candidate placement is then just an assumption vector — no
//!   program rebuild, no re-encode, no cold solver.
//! * **Memory models** are encoded together ([`Encoding::build_full`]):
//!   the mode-dependent Θ axioms are gated behind per-mode *selector
//!   literals*, grouped by mode delta ([`cf_memmodel::ModeSet`]), so a
//!   lattice sweep reuses the thread-local Δ circuits and all learnt
//!   clauses that do not depend on the selectors.
//! * **Query-local constraints** (the blocking clauses of spec mining,
//!   the spec-membership circuit of inclusion checks, the abstract
//!   machine of the commit-point method) are either pure definitions —
//!   added permanently and cached — or gated behind a per-query literal
//!   that is retired when the query completes.
//!
//! The lazy loop-unrolling of §3.3 still applies, in one loop every
//! query kind runs through: when a query discovers executions exceeding
//! the current loop bounds, the session re-executes and re-encodes at
//! larger bounds (this is the only event that discards solver state;
//! [`QueryStats::encodes`] counts it).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use cf_memmodel::{Mode, ModeSet};
use cf_sat::{Lit, SolveResult};
use cf_spec::ModelSpec;

use crate::checker::{
    decode_counterexample, exhausted_err, CheckConfig, CheckError, CheckOutcome, FailureKind,
    ObsSet, MAX_BOUND_ROUNDS, SPIN_BOUND,
};
use crate::commit::{encode_abstract_machine, AbstractType};
use crate::encode::{Encoding, ModelSel, OrderEncoding};
use crate::provenance::{Provenance, ProvenanceKind};
use crate::query::QueryStats;
use crate::range::analyze;
use crate::symexec::{execute, LoopBounds, SymExec};
use crate::test_spec::{Harness, TestSpec};

/// Configuration of a [`CheckSession`]: what shapes its encoding.
/// Budgets, deadlines and core post-processing are run-time settings
/// of the engine's [`CheckConfig`], read per query.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// The built-in memory models the session can answer queries for.
    /// Encoding only the modes you need keeps the formula smaller; a
    /// single-model session costs exactly what the reference oracle's
    /// encoding does.
    pub modes: ModeSet,
    /// Declarative models encoded alongside the built-ins, addressed by
    /// index ([`ModelSel::Spec`]). Compiled once into the shared
    /// encoding, toggled per query like any built-in mode.
    pub specs: Vec<ModelSpec>,
    /// Memory-order encoding (one variant; see [`OrderEncoding`]).
    pub order_encoding: OrderEncoding,
    /// Whether the range analysis runs.
    pub range_analysis: bool,
    /// Always [`SPIN_BOUND`], which is what sessions unroll `spin`
    /// loops with; this copy is not read by the session. It stays only
    /// because perfbench's ledger reads it (ROADMAP item 6).
    pub spin_bound: u32,
    /// Whether inclusion verdicts carry [`Provenance`]: real fences are
    /// made assumption-addressable (wrapped in synthetic toggle sites)
    /// and spec axioms are gated per-axiom, so the decisive solve's
    /// assumption core resolves to named artifacts. Off by default —
    /// and with it off, the session's formula, verdicts and solver
    /// statistics are byte-identical to a provenance-free build.
    pub provenance: bool,
}

impl SessionConfig {
    /// Derives a session configuration from a [`CheckConfig`], encoding
    /// the given mode set, with no specs and provenance off.
    pub fn from_check_config(config: &CheckConfig, modes: ModeSet) -> SessionConfig {
        SessionConfig {
            modes,
            specs: Vec::new(),
            order_encoding: OrderEncoding::Pairwise,
            range_analysis: config.range_analysis,
            spin_bound: SPIN_BOUND,
            provenance: false,
        }
    }
}

/// The per-encoding state: everything discarded when loop bounds grow.
struct State {
    sx: SymExec,
    enc: Encoding,
    /// Activation literal of the bound-overflow query clause, if the
    /// encoding has loop-bound-exceeded flags.
    overflow_act: Option<Lit>,
}

/// Whether a query result depends on the loop bounds being sufficient
/// (the payload contract of both lazy-unrolling loops: this module's
/// and the reference oracle's).
pub(crate) enum Round<T> {
    /// Valid regardless of loop bounds (a within-bounds counterexample).
    Final(T),
    /// Valid only if no execution exceeds the bounds.
    Bounded(T),
}

/// An incremental checking session for one implementation and one test.
///
/// Sessions are the unit of encoding reuse. Drivers describe questions
/// as [`Query`](crate::query::Query) values and let an
/// [`Engine`](crate::query::Engine) pool and schedule the sessions.
///
/// # Examples
///
/// One engine-pooled encoding answering the full mode lattice:
///
/// ```
/// use checkfence::query::{Engine, EngineConfig, Query};
/// use checkfence::{Harness, OpSig, TestSpec};
/// use cf_memmodel::Mode;
///
/// let program = cf_minic::compile(r#"
///     int data; int flag;
///     void put(int v) { data = v + 1; fence("store-store"); flag = 1; }
///     int get() { int f = flag; fence("load-load");
///                 if (f == 0) { return 0 - 1; } return data; }
/// "#).expect("compiles");
/// let harness = Harness {
///     name: "mailbox".into(),
///     program,
///     init_proc: None,
///     ops: vec![
///         OpSig { key: 'p', proc_name: "put".into(), num_args: 1, has_ret: false },
///         OpSig { key: 'g', proc_name: "get".into(), num_args: 0, has_ret: true },
///     ],
/// };
/// let test = TestSpec::parse("pg", "( p | g )").expect("parses");
/// let mut engine = Engine::new(EngineConfig::default());
/// let spec = engine
///     .run(&Query::mine(&harness, &test))
///     .expect("mines")
///     .into_observations()
///     .expect("observations");
/// for mode in Mode::hardware() {
///     let q = Query::check_inclusion(&harness, &test, spec.clone()).on(mode);
///     let v = engine.run(&q).expect("checks");
///     assert!(v.passed(), "fenced mailbox passes on {}", mode.name());
/// }
/// // All five queries shared one session, one symbolic execution and
/// // one encoding.
/// assert_eq!(engine.stats().sessions, 1);
/// assert_eq!(engine.stats().encodes, 1);
/// assert_eq!(engine.stats().queries, 5);
/// ```
pub struct CheckSession<'h> {
    harness: &'h Harness,
    test: &'h TestSpec,
    config: SessionConfig,
    /// The current attempt's tick budget per solve call and absolute
    /// deadline, applied to every solver the attempt encodes.
    limits: (Option<u64>, Option<Instant>),
    bounds: LoopBounds,
    state: Option<State>,
    /// The work of the query in flight: each lazy-unrolling round
    /// charges the encoding it builds and its own solve calls, and the
    /// engine takes the record when the query ends.
    spent: QueryStats,
    /// The provenance-instrumented copy of the harness (real fences
    /// wrapped in synthetic toggle sites). Built once, survives bound
    /// growth. `None` unless [`SessionConfig::provenance`] is on.
    prov_harness: Option<Box<Harness>>,
    /// Synthetic toggle site → source coordinate
    /// ([`cf_lsl::FenceSite`]) of the wrapped fence.
    fence_coords: BTreeMap<u32, String>,
    /// Provenance of the most recent inclusion query, taken by the
    /// engine when it assembles the verdict.
    last_provenance: Option<Provenance>,
}

impl<'h> CheckSession<'h> {
    /// Creates a session with an explicit configuration.
    pub fn with_config(harness: &'h Harness, test: &'h TestSpec, config: SessionConfig) -> Self {
        CheckSession {
            harness,
            test,
            config,
            limits: (None, None),
            bounds: LoopBounds::new(),
            state: None,
            spent: QueryStats::default(),
            prov_harness: None,
            fence_coords: BTreeMap::new(),
            last_provenance: None,
        }
    }

    /// Sets the resource limits of the next attempt: a tick budget per
    /// solve call, and one absolute deadline that covers every solve
    /// call and bound-growth round of the attempt.
    pub(crate) fn set_limits(&mut self, tick_budget: Option<u64>, deadline_at: Option<Instant>) {
        self.limits = (tick_budget, deadline_at);
    }

    /// Takes (and clears) the provenance of the most recent inclusion
    /// query. `None` unless provenance is enabled and the last query
    /// produced a pass/fail outcome.
    pub(crate) fn take_provenance(&mut self) -> Option<Provenance> {
        self.last_provenance.take()
    }

    /// The work charged to the query in flight so far.
    pub(crate) fn spent(&self) -> &QueryStats {
        &self.spent
    }

    /// Takes (and clears) the work charged to the query in flight.
    pub(crate) fn take_spent(&mut self) -> QueryStats {
        std::mem::take(&mut self.spent)
    }

    /// The [`QueryKind::Mine`](crate::query::QueryKind::Mine) body:
    /// the SAT-enumerated observation set of all error-free serial
    /// executions (§3.2).
    ///
    /// # Errors
    ///
    /// [`CheckError::SerialBug`] if a serial execution raises a runtime
    /// error; infrastructure errors otherwise.
    pub(crate) fn query_mine(&mut self) -> Result<ObsSet, CheckError> {
        let serial = ModelSel::Builtin(Mode::Serial);
        self.with_bounds(serial, &[], |sx, enc, asm| {
            // Any serial execution with an error is a sequential bug.
            let mut with_err = asm.to_vec();
            with_err.push(enc.error_lit);
            match enc.cnf.solver.solve_with(&with_err) {
                SolveResult::Sat => {
                    let name = enc.model_name(serial);
                    let cx = decode_counterexample(sx, enc, FailureKind::SerialError, name);
                    return Err(CheckError::SerialBug(Box::new(cx)));
                }
                SolveResult::Unknown => return Err(exhausted_err(&enc.cnf.solver)),
                SolveResult::Unsat => {}
            }
            // Enumerate observations of error-free serial executions.
            let vectors = Self::enumerate_gated(enc, asm)?;
            Ok(Round::Bounded(ObsSet { vectors }))
        })
    }

    /// The [`QueryKind::Enumerate`](crate::query::QueryKind::Enumerate)
    /// body: observations of all error-free executions under any model
    /// of the universe, with the given toggle sites active.
    ///
    /// # Errors
    ///
    /// Infrastructure errors only. Panics if the model is not part of
    /// the session's universe.
    pub(crate) fn query_enumerate(
        &mut self,
        model: ModelSel,
        active_toggles: &[u32],
    ) -> Result<ObsSet, CheckError> {
        self.with_bounds(model, active_toggles, |_sx, enc, asm| {
            let vectors = Self::enumerate_gated(enc, asm)?;
            Ok(Round::Bounded(ObsSet { vectors }))
        })
    }

    /// Enumerates error-free observations under the given assumptions by
    /// iterated solving. Blocking clauses are gated on a per-query
    /// literal so they can be retired (by asserting its negation) once
    /// the enumeration completes, without poisoning later queries on the
    /// persistent solver. On a budget abort the literal is left free:
    /// the gated clauses stay individually satisfiable and cannot
    /// constrain subsequent queries.
    fn enumerate_gated(
        enc: &mut Encoding,
        asm: &[Lit],
    ) -> Result<BTreeSet<Vec<cf_lsl::Value>>, CheckError> {
        let q = enc.cnf.fresh();
        let mut clean = asm.to_vec();
        clean.push(!enc.error_lit);
        clean.push(q);
        let mut vectors = BTreeSet::new();
        loop {
            match enc.cnf.solver.solve_with(&clean) {
                SolveResult::Sat => {
                    let obs = enc.decode_obs();
                    let mut block: Vec<Lit> = Vec::with_capacity(obs.len() + 1);
                    block.push(!q);
                    for (i, v) in obs.iter().enumerate() {
                        let e = enc.obs[i].clone();
                        let eq = enc.enc_eq_const(&e, v);
                        block.push(!eq);
                    }
                    enc.cnf.clause(block);
                    vectors.insert(obs);
                }
                SolveResult::Unsat => break,
                SolveResult::Unknown => return Err(exhausted_err(&enc.cnf.solver)),
            }
        }
        enc.cnf.assert_lit(!q);
        Ok(vectors)
    }

    /// The
    /// [`QueryKind::CheckInclusion`](crate::query::QueryKind::CheckInclusion)
    /// body: toggle sites are just assumption polarities. A PASS core
    /// is minimized and verified as `check` says.
    pub(crate) fn query_inclusion(
        &mut self,
        model: ModelSel,
        spec: &ObsSet,
        active_toggles: &[u32],
        check: &CheckConfig,
    ) -> Result<CheckOutcome, CheckError> {
        self.last_provenance = None;
        let prov = self.config.provenance;
        let min_ticks = check.core_minimize_ticks;
        let verify = check.verify_cores;
        // Building the state populates `fence_coords` (the fence-wrap
        // pass runs there); force it before snapshotting the map, or
        // the very first query would see no coordinates.
        self.ensure_state()?;
        let coords = self.fence_coords.clone();
        let mut prov_out: Option<Provenance> = None;
        let result = self.with_bounds(model, active_toggles, |sx, enc, asm| {
            // The spec-membership circuit is a pure definition: cache it
            // per spec, so the fence-inference loop (same spec, different
            // toggle vector) encodes it once.
            let no_match = Self::spec_no_match(enc, spec);
            let bad = enc.cnf.or(enc.error_lit, no_match);
            let mut a = asm.to_vec();
            a.push(bad);
            match enc.cnf.solver.solve_with(&a) {
                SolveResult::Unsat => {
                    if prov {
                        // The decisive solve's final-conflict core —
                        // extraction itself costs zero extra solves.
                        let raw: Vec<Lit> = enc
                            .cnf
                            .solver
                            .unsat_core()
                            .map(<[Lit]>::to_vec)
                            .unwrap_or_default();
                        let (core, minimized) = match min_ticks {
                            Some(budget) => enc
                                .cnf
                                .solver
                                .minimize_core(Some(budget))
                                .unwrap_or((raw, false)),
                            None => (raw, false),
                        };
                        if verify {
                            verify_core(enc, &core, minimized);
                        }
                        prov_out = Some(classify_core(enc, model, &core, bad, &coords, minimized));
                    }
                    Ok(Round::Bounded(CheckOutcome::Pass))
                }
                SolveResult::Unknown => Err(exhausted_err(&enc.cnf.solver)),
                SolveResult::Sat => {
                    if prov {
                        // A witness carries its assumption
                        // environment: the model, the fences present
                        // in the program it ran against, and the
                        // active toggle vector.
                        let mut w = Provenance::witness(enc.model_name(model));
                        w.fences = coords.values().cloned().collect();
                        w.toggles = active_toggles.to_vec();
                        w.fences.sort();
                        w.toggles.sort_unstable();
                        prov_out = Some(w);
                    }
                    let kind = if enc.cnf.lit_value(enc.error_lit) {
                        FailureKind::RuntimeError
                    } else {
                        FailureKind::InconsistentObservation
                    };
                    let name = enc.model_name(model);
                    let mut cx = decode_counterexample(sx, enc, kind, name);
                    // Spec-model reports name the serializability
                    // axiom the witness breaks (the spec's `model`
                    // header alone does not say *why* the execution
                    // is inconsistent).
                    if matches!(model, ModelSel::Spec(_))
                        && kind == FailureKind::InconsistentObservation
                    {
                        cx.violated_axiom = crate::checker::diagnose_serializability(sx, enc);
                    }
                    Ok(Round::Final(CheckOutcome::Fail(Box::new(cx))))
                }
            }
        });
        if result.is_ok() {
            self.last_provenance = prov_out;
        }
        result
    }

    /// The
    /// [`QueryKind::CommitMethod`](crate::query::QueryKind::CommitMethod)
    /// body: the commit-point method (the Fig. 12 baseline) under
    /// `mode`. The abstract machine is built once per encoding and gated
    /// on a per-machine literal, so commit queries coexist with
    /// observation queries on one solver.
    ///
    /// # Errors
    ///
    /// [`CheckError::SymExec`] if an operation lacks commit annotations;
    /// the usual infrastructure errors otherwise.
    pub(crate) fn query_commit(
        &mut self,
        mode: Mode,
        ty: AbstractType,
    ) -> Result<CheckOutcome, CheckError> {
        let model = ModelSel::Builtin(mode);
        self.with_bounds(model, &[], |sx, enc, asm| {
            let (gate, mismatch) = match enc.commit_cache_lookup(ty) {
                Some(cached) => cached,
                None => {
                    let gate = enc.cnf.fresh();
                    let mismatch = encode_abstract_machine(sx, enc, ty, gate)?;
                    enc.commit_cache_insert(ty, gate, mismatch);
                    (gate, mismatch)
                }
            };
            let mut a = asm.to_vec();
            a.push(gate);
            let bad = enc.cnf.or(enc.error_lit, mismatch);
            a.push(bad);
            match enc.cnf.solver.solve_with(&a) {
                SolveResult::Sat => {
                    let kind = if enc.cnf.lit_value(enc.error_lit) {
                        FailureKind::RuntimeError
                    } else {
                        FailureKind::InconsistentObservation
                    };
                    let name = enc.model_name(model);
                    let cx = decode_counterexample(sx, enc, kind, name);
                    Ok(Round::Final(CheckOutcome::Fail(Box::new(cx))))
                }
                SolveResult::Unknown => Err(exhausted_err(&enc.cnf.solver)),
                SolveResult::Unsat => Ok(Round::Bounded(CheckOutcome::Pass)),
            }
        })
    }

    // ------------------------------------------------------------ internals

    /// Builds (or reuses) the encoding for the current loop bounds. A
    /// build charges the query in flight with one encode and the
    /// solver work the encoding did: unit clauses propagate eagerly
    /// while the CNF is built, outside any solve call.
    fn ensure_state(&mut self) -> Result<(), CheckError> {
        if self.state.is_none() {
            if self.config.provenance && self.prov_harness.is_none() {
                // Every real fence becomes a toggle site whose inactive
                // polarity keeps it, so a `!act` literal in a PASS core
                // names that fence as load-bearing.
                let program = &self.harness.program;
                self.fence_coords = (FENCE_SITE_BASE..)
                    .zip(program.fence_sites().iter().map(ToString::to_string))
                    .collect();
                self.prov_harness = Some(Box::new(Harness {
                    program: program.with_fence_toggles(FENCE_SITE_BASE),
                    ..self.harness.clone()
                }));
            }
            let harness: &Harness = self.prov_harness.as_deref().unwrap_or(self.harness);
            let sx = execute(harness, self.test, &self.bounds, SPIN_BOUND)?;
            let t0 = Instant::now();
            let range = analyze(&sx, self.config.range_analysis);
            let mut enc = Encoding::build_full(
                &sx,
                &range,
                self.config.modes,
                &self.config.specs,
                self.config.order_encoding,
                self.config.provenance,
            );
            let encoded = *enc.cnf.solver.stats();
            self.spent.charge(&encoded);
            self.spent.encodes += 1;
            cf_trace::emit("encode", || {
                vec![
                    ("vars", cf_trace::u(enc.cnf.num_vars() as u64)),
                    ("clauses", cf_trace::u(enc.cnf.num_clauses())),
                    ("ticks", cf_trace::u(encoded.ticks())),
                    ("encode_us", cf_trace::u(t0.elapsed().as_micros() as u64)),
                ]
            });
            let overflow_act = if enc.exceeded.is_empty() {
                None
            } else {
                let act = enc.cnf.fresh();
                let mut clause = vec![!act];
                clause.extend(enc.exceeded.iter().map(|(_, l)| *l));
                enc.cnf.clause(clause);
                Some(act)
            };
            self.state = Some(State {
                sx,
                enc,
                overflow_act,
            });
        }
        let st = self.state.as_mut().expect("state built");
        st.enc.cnf.solver.set_tick_budget(self.limits.0);
        st.enc.cnf.solver.set_deadline(self.limits.1);
        // The trace observer on the solver: re-armed on every query so
        // enabling/disabling tracing between batches takes effect. Each
        // solve call reports its result and counter deltas into the
        // ambient trace lane (the engine's per-query scope).
        st.enc.cnf.solver.set_solve_hook(if cf_trace::enabled() {
            Some(cf_sat::SolveHook::new(|ev| {
                cf_trace::emit("sat_solve", || {
                    let result = match ev.result {
                        SolveResult::Sat => "sat",
                        SolveResult::Unsat => "unsat",
                        SolveResult::Unknown => "unknown",
                    };
                    vec![
                        ("result", cf_trace::s(result)),
                        ("ticks", cf_trace::u(ev.delta.ticks())),
                        ("conflicts", cf_trace::u(ev.delta.conflicts)),
                        ("propagations", cf_trace::u(ev.delta.propagations)),
                    ]
                });
            }))
        } else {
            None
        });
        Ok(())
    }

    /// The assumption prefix of a query: model selectors plus the
    /// polarity of every toggle site. Sites absent from the list are
    /// pinned inactive, so the default query always checks the original
    /// program.
    fn base_assumptions(enc: &Encoding, model: ModelSel, active_toggles: &[u32]) -> Vec<Lit> {
        let mut asm = enc.model_assumptions(model);
        // Provenance-gated spec axioms: the selected spec's per-axiom
        // gates must be assumed on, or the solver would simply drop an
        // axiom instead of finding a real counterexample. Empty unless
        // the encoding was built with provenance.
        asm.extend(enc.axiom_assumptions(model));
        for (&site, &act) in &enc.toggle_acts {
            asm.push(if active_toggles.contains(&site) {
                act
            } else {
                !act
            });
        }
        asm
    }

    /// Solves the bound-overflow query; `Some(keys)` lists the loops to
    /// grow. The query runs under the same mode/toggle assumptions as the
    /// payload, so bounds only grow for executions the query can see.
    fn overflow_keys(st: &mut State, base: &[Lit]) -> Result<Option<Vec<String>>, CheckError> {
        let Some(act) = st.overflow_act else {
            return Ok(None);
        };
        let mut asm = base.to_vec();
        asm.push(act);
        match st.enc.cnf.solver.solve_with(&asm) {
            SolveResult::Sat => Ok(Some(st.enc.exceeded_keys())),
            SolveResult::Unsat => Ok(None),
            SolveResult::Unknown => Err(exhausted_err(&st.enc.cnf.solver)),
        }
    }

    fn grow_bounds(&mut self, keys: Vec<String>) {
        cf_trace::emit("bound_grow", || {
            vec![("loops", cf_trace::u(keys.len() as u64))]
        });
        for key in keys {
            *self.bounds.entry(key).or_insert(1) += 1;
        }
        // Bounds changed: the unrolling (and therefore the encoding and
        // all solver state) is stale.
        self.state = None;
    }

    /// The lazy loop-unrolling procedure of §3.3, shared by every query
    /// kind: reuse the persistent encoding, re-encoding only when a query
    /// discovers executions past the current bounds. `payload` runs
    /// restricted to within-bounds executions and says whether its
    /// result is final (a counterexample) or bound-sensitive (a pass or
    /// an observation set, valid only if no execution escapes the
    /// bounds). Every round charges its solve calls to the query in
    /// flight, on the error paths too.
    fn with_bounds<T>(
        &mut self,
        model: ModelSel,
        active_toggles: &[u32],
        mut payload: impl FnMut(&SymExec, &mut Encoding, &[Lit]) -> Result<Round<T>, CheckError>,
    ) -> Result<T, CheckError> {
        for _ in 0..MAX_BOUND_ROUNDS {
            self.ensure_state()?;
            let st = self.state.as_mut().expect("state built");
            let solved = *st.enc.cnf.solver.solve_stats();
            let base = Self::base_assumptions(&st.enc, model, active_toggles);
            // Overflow first: the payload may add (gated) clauses, but
            // more importantly a pass is only bound-valid if no execution
            // escapes the bounds under these assumptions.
            let result = Self::overflow_keys(st, &base).and_then(|overflow| {
                let mut asm = base;
                asm.extend(st.enc.exceeded.iter().map(|(_, l)| !*l));
                Ok((payload(&st.sx, &mut st.enc, &asm)?, overflow))
            });
            self.spent
                .charge(&st.enc.cnf.solver.solve_stats().since(&solved));
            self.spent.vars = st.enc.cnf.num_vars();
            self.spent.clauses = st.enc.cnf.num_clauses();
            match result? {
                (Round::Final(t), _) | (Round::Bounded(t), None) => return Ok(t),
                (Round::Bounded(_), Some(keys)) => self.grow_bounds(keys),
            }
        }
        Err(CheckError::BoundsDiverged {
            keys: self.bounds.keys().cloned().collect(),
        })
    }

    /// The cached `obs ∉ spec` circuit (a pure definition).
    fn spec_no_match(enc: &mut Encoding, spec: &ObsSet) -> Lit {
        // The cache lives on the Encoding so it is dropped on re-encode.
        if let Some(l) = enc.spec_cache_lookup(spec) {
            return l;
        }
        let mut no_match = enc.cnf.tt();
        for o in &spec.vectors {
            let mut all_eq = enc.cnf.tt();
            for (i, v) in o.iter().enumerate() {
                let e = enc.obs[i].clone();
                let eq = enc.enc_eq_const(&e, v);
                all_eq = enc.cnf.and(all_eq, eq);
            }
            no_match = enc.cnf.and(no_match, !all_eq);
        }
        enc.spec_cache_insert(spec.clone(), no_match);
        no_match
    }
}

/// Base of the synthetic toggle-site numbering that makes real fences
/// assumption-addressable for provenance — far above anything the
/// mutation planner or fence-inference driver assigns, so the two site
/// spaces cannot collide.
pub(crate) const FENCE_SITE_BASE: u32 = 1_000_000;

/// Maps a PASS core's literals back to named artifacts. Every entry of
/// the core is one of the query's assumptions, so classification is a
/// lookup against the encoding's literal vocabularies; anything not
/// matched below is a model-selector polarity, covered by the `model`
/// field.
fn classify_core(
    enc: &Encoding,
    model: ModelSel,
    core: &[Lit],
    bad: Lit,
    fence_coords: &BTreeMap<u32, String>,
    minimized: bool,
) -> Provenance {
    let mut p = Provenance {
        kind: ProvenanceKind::Proof,
        model: enc.model_name(model),
        axioms: Vec::new(),
        fences: Vec::new(),
        toggles: Vec::new(),
        bounds_gate: false,
        spec_gate: false,
        core_size: core.len(),
        minimized,
    };
    p.spec_gate = core.contains(&bad);
    p.bounds_gate = enc.exceeded.iter().any(|&(_, l)| core.contains(&!l));
    for (&site, &act) in &enc.toggle_acts {
        match fence_coords.get(&site) {
            // A wrapped real fence is assumed *inactive* (fence kept),
            // so `!act` in the core means the proof leans on it.
            Some(coord) => {
                if core.contains(&!act) {
                    p.fences.push(coord.clone());
                }
            }
            // A mutation toggle in the core with its *active* polarity
            // means the proof leans on the mutant branch; the inactive
            // polarity (proof needs the original statements) is not an
            // artifact we name.
            None => {
                if core.contains(&act) {
                    p.toggles.push(site);
                }
            }
        }
    }
    if let ModelSel::Spec(i) = model {
        if let Some(gates) = enc.axiom_acts.get(i) {
            for (label, g) in gates {
                if core.contains(g) {
                    p.axioms.push(label.clone());
                }
            }
        }
    }
    p.fences.sort();
    p
}

/// The [`CheckConfig::verify_cores`] self-check: the core alone must
/// reproduce Unsat, and a completely minimized core must be locally
/// minimal. Budget exhaustion (Unknown) skips a probe instead of
/// failing it.
fn verify_core(enc: &mut Encoding, core: &[Lit], minimized: bool) {
    let r = enc.cnf.solver.solve_with(core);
    assert!(
        !matches!(r, SolveResult::Sat),
        "provenance core does not reproduce the Unsat verdict"
    );
    if minimized {
        for i in 0..core.len() {
            let mut probe = core.to_vec();
            probe.remove(i);
            let r = enc.cnf.solver.solve_with(&probe);
            assert!(
                !matches!(r, SolveResult::Unsat),
                "minimized provenance core is not locally minimal (element {i} is redundant)"
            );
        }
    }
}
