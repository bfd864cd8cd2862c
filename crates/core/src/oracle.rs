//! The one-shot reference oracle.
//!
//! [`oneshot`] answers one [`Query`] the way a checker without sessions
//! does: every round of the lazy loop-unrolling procedure (§3.3) runs a
//! fresh symbolic execution, builds a single-model encoding and solves
//! it with a cold solver. It shares no solver, assumption gating or
//! circuit cache with the [`Engine`](crate::Engine), which makes it the
//! independent baseline that the equivalence suites and the `cf-bench`
//! benchmarks compare the engine against, and that
//! [`infer_baseline`](crate::infer::infer_baseline) and
//! [`run_mutation_matrix_oneshot`](crate::mutate::run_mutation_matrix_oneshot)
//! are built on.
//!
//! Real checking goes through the engine. The reference has no retry
//! ladder (running out of budget is [`CheckError::Exhausted`]), and its
//! verdicts carry no provenance and no
//! [`violated_axiom`](crate::Counterexample::violated_axiom).

use std::collections::BTreeSet;
use std::time::Instant;

use cf_lsl::Value;
use cf_memmodel::{Mode, ModeSet};
use cf_sat::{Lit, SolveResult};
use cf_spec::ModelSpec;

use crate::checker::{
    decode_counterexample, exhausted_err, validate_test_shape, CheckConfig, CheckError,
    CheckOutcome, FailureKind, ObsSet, PhaseStats,
};
use crate::commit::encode_abstract_machine;
use crate::encode::{Encoding, ModelSel, OrderEncoding};
use crate::query::{Answer, Query, QueryKind, QueryStats, Verdict};
use crate::range::analyze;
use crate::session::Round;
use crate::symexec::{execute, LoopBounds, SymExec};

/// Answers `query` with a fresh symbolic execution, encoding and solver
/// per lazy-unrolling round. `config` supplies the check settings,
/// budgets included (a budget, deadline or provenance request set on
/// the query itself is not consulted); `specs` resolves
/// [`ModelSel::Spec`] indices, and only the selected spec is encoded.
///
/// # Errors
///
/// * [`CheckError::BadQuery`] for a query carrying candidate fences or
///   mutation toggles (the reference checks concrete programs: rebuild
///   them into the harness instead), a spec index outside `specs`, or
///   a commit query on a declarative model;
/// * [`CheckError::Exhausted`] when a solver budget or the deadline
///   runs out;
/// * [`CheckError::SerialBug`] when mining finds a serial execution
///   that raises a runtime error;
/// * the other infrastructure errors of the engine path.
pub fn oneshot(
    query: &Query<'_>,
    config: &CheckConfig,
    specs: &[ModelSpec],
) -> Result<Verdict, CheckError> {
    let t0 = Instant::now();
    validate_test_shape(query.test())?;
    if !query.fences.is_empty() || !query.toggles.is_empty() {
        return Err(CheckError::BadQuery(
            "the reference oracle checks concrete programs; build fences and \
             mutants into the harness instead of assuming them"
                .into(),
        ));
    }
    // The one model the encoding holds, and how to select it there.
    let (modes, universe, model) = match (query.kind(), query.model()) {
        (QueryKind::Mine, _) => (ModeSet::single(Mode::Serial), &[][..], Mode::Serial.into()),
        (_, ModelSel::Builtin(m)) => (ModeSet::single(m), &[][..], m.into()),
        (QueryKind::CommitMethod { .. }, ModelSel::Spec(_)) => {
            return Err(CheckError::BadQuery(
                "the commit-point method needs a built-in model".into(),
            ));
        }
        (_, ModelSel::Spec(i)) => match specs.get(i) {
            Some(spec) => (
                ModeSet::empty(),
                std::slice::from_ref(spec),
                ModelSel::Spec(0),
            ),
            None => {
                return Err(CheckError::BadQuery(format!(
                    "query selects spec #{i}, but the oracle was given {} spec(s)",
                    specs.len()
                )));
            }
        },
    };
    let mut phase = PhaseStats::default();
    let mut sat = cf_sat::Stats::default();
    let payload = |sx: &SymExec, enc: &mut Encoding, asm: &[Lit], phase: &mut PhaseStats| {
        match query.kind() {
            QueryKind::Mine => {
                // Any serial execution with an error is a sequential bug.
                let mut with_err = asm.to_vec();
                with_err.push(enc.error_lit);
                if solve(enc, &with_err, phase)? {
                    let name = enc.model_name(model);
                    let cx = decode_counterexample(sx, enc, FailureKind::SerialError, name);
                    return Err(CheckError::SerialBug(Box::new(cx)));
                }
                let vectors = enumerate(enc, asm, phase)?;
                Ok(Round::Bounded(Answer::Observations(ObsSet { vectors })))
            }
            QueryKind::Enumerate => {
                let vectors = enumerate(enc, asm, phase)?;
                Ok(Round::Bounded(Answer::Observations(ObsSet { vectors })))
            }
            QueryKind::CheckInclusion { spec } => {
                // bad := error ∨ (obs ∉ S)
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
                let bad = enc.cnf.or(enc.error_lit, no_match);
                outcome(sx, enc, asm, bad, model, phase)
            }
            QueryKind::CommitMethod { ty } => {
                let te = Instant::now();
                let tt = enc.cnf.tt();
                let mismatch = encode_abstract_machine(sx, enc, *ty, tt)?;
                phase.encode_time += te.elapsed();
                phase.iterations += 1;
                let bad = enc.cnf.or(enc.error_lit, mismatch);
                outcome(sx, enc, asm, bad, model, phase)
            }
        }
    };
    let answer = with_bounds(
        query, config, modes, universe, &mut phase, &mut sat, payload,
    )?;
    phase.sat_conflicts = sat.conflicts;
    phase.sat_propagations = sat.propagations;
    phase.sat_solves = sat.solves;
    phase.total_time = t0.elapsed();
    Ok(Verdict {
        answer,
        phase,
        stats: QueryStats::from_delta(sat, t0.elapsed(), 0),
        provenance: None,
    })
}

/// The lazy loop-unrolling procedure of §3.3, one cold encoding per
/// round: solve for executions that exceed the loop bounds, run the
/// payload on the within-bounds executions, and grow the exceeded
/// bounds while a bound-sensitive result could be invalidated by them.
/// `sat` accumulates the statistics of every round's solver.
fn with_bounds(
    query: &Query<'_>,
    config: &CheckConfig,
    modes: ModeSet,
    specs: &[ModelSpec],
    phase: &mut PhaseStats,
    sat: &mut cf_sat::Stats,
    mut payload: impl FnMut(
        &SymExec,
        &mut Encoding,
        &[Lit],
        &mut PhaseStats,
    ) -> Result<Round<Answer>, CheckError>,
) -> Result<Answer, CheckError> {
    let mut bounds = LoopBounds::new();
    // One deadline covers the whole query, bound-growth rounds
    // included; tick budgets are per solve call.
    let deadline_at = config.deadline.map(|d| Instant::now() + d);
    for round in 0..config.max_bound_rounds {
        phase.bound_rounds = round + 1;
        let sx = execute(query.harness(), query.test(), &bounds, config.spin_bound)?;
        let t0 = Instant::now();
        let range = analyze(&sx, config.range_analysis);
        let mut enc =
            Encoding::build_full(&sx, &range, modes, specs, OrderEncoding::Pairwise, false);
        phase.encode_time += t0.elapsed();
        phase.unrolled = sx.stats;
        phase.sat_vars = enc.cnf.num_vars();
        phase.sat_clauses = enc.cnf.num_clauses();
        enc.cnf.solver.set_tick_budget(config.tick_budget);
        enc.cnf.solver.set_deadline(deadline_at);

        // Solve for overflowing executions before the payload adds its
        // clauses, so those cannot hide them; a failing payload result
        // is still returned below even when the bounds are insufficient
        // (failures are within-bounds witnesses).
        let overflow = if enc.exceeded.is_empty() {
            false
        } else {
            let act = enc.cnf.fresh();
            let mut clause = vec![!act];
            clause.extend(enc.exceeded.iter().map(|(_, l)| *l));
            enc.cnf.clause(clause);
            if solve(&mut enc, &[act], phase)? {
                for key in enc.exceeded_keys() {
                    *bounds.entry(key).or_insert(1) += 1;
                }
                true
            } else {
                enc.cnf.assert_lit(!act);
                false
            }
        };
        let assumptions: Vec<Lit> = enc.exceeded.iter().map(|(_, l)| !*l).collect();
        let result = payload(&sx, &mut enc, &assumptions, phase);
        sat.add(enc.cnf.solver.stats());
        match result? {
            Round::Final(answer) => return Ok(answer),
            Round::Bounded(answer) if !overflow => return Ok(answer),
            // Bounds insufficient: grow and retry.
            Round::Bounded(_) => {}
        }
    }
    Err(CheckError::BoundsDiverged {
        keys: bounds.keys().cloned().collect(),
    })
}

/// One timed solve: `true` on Sat, `false` on Unsat, and exhaustion as
/// an error.
fn solve(
    enc: &mut Encoding,
    assumptions: &[Lit],
    phase: &mut PhaseStats,
) -> Result<bool, CheckError> {
    let t = Instant::now();
    let r = enc.cnf.solver.solve_with(assumptions);
    phase.solve_time += t.elapsed();
    match r {
        SolveResult::Sat => Ok(true),
        SolveResult::Unsat => Ok(false),
        SolveResult::Unknown => Err(exhausted_err(&enc.cnf.solver)),
    }
}

/// Enumerates the observations of the error-free executions under
/// `assumptions` by iterated solving with blocking clauses.
fn enumerate(
    enc: &mut Encoding,
    assumptions: &[Lit],
    phase: &mut PhaseStats,
) -> Result<BTreeSet<Vec<Value>>, CheckError> {
    let mut clean = assumptions.to_vec();
    clean.push(!enc.error_lit);
    let mut vectors = BTreeSet::new();
    while solve(enc, &clean, phase)? {
        phase.iterations += 1;
        let obs = enc.decode_obs();
        let mut block: Vec<Lit> = Vec::with_capacity(obs.len());
        for (i, v) in obs.iter().enumerate() {
            let e = enc.obs[i].clone();
            block.push(!enc.enc_eq_const(&e, v));
        }
        enc.cnf.clause(block);
        vectors.insert(obs);
    }
    Ok(vectors)
}

/// Solves for a within-bounds execution satisfying `bad`: a decoded
/// counterexample if one exists (final), else a bound-sensitive pass.
fn outcome(
    sx: &SymExec,
    enc: &mut Encoding,
    assumptions: &[Lit],
    bad: Lit,
    model: ModelSel,
    phase: &mut PhaseStats,
) -> Result<Round<Answer>, CheckError> {
    let mut a = assumptions.to_vec();
    a.push(bad);
    if !solve(enc, &a, phase)? {
        return Ok(Round::Bounded(Answer::Outcome(CheckOutcome::Pass)));
    }
    let kind = if enc.cnf.lit_value(enc.error_lit) {
        FailureKind::RuntimeError
    } else {
        FailureKind::InconsistentObservation
    };
    let name = enc.model_name(model);
    let cx = Box::new(decode_counterexample(sx, enc, kind, name));
    Ok(Round::Final(Answer::Outcome(CheckOutcome::Fail(cx))))
}
