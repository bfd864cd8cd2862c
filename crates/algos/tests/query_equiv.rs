//! Randomized engine/reference equivalence: mixed [`Query`] batches
//! over treiber/ms2 answered by [`Engine::run_batch`] at `jobs` 3 must
//! return exactly the verdicts of (a) the same batch on a sequential
//! engine and (b) the one-shot reference oracle
//! ([`oracle::oneshot`]) on concretely mutated builds — on every
//! sampled point of the (kind × model × toggles) space.
//!
//! The generator is a deterministic xorshift (matching the
//! `mutation_equiv.rs` style), so failures replay bit for bit.

use cf_algos::{ms2, tests, treiber, Variant};
use cf_memmodel::{Mode, ModeSet};
use cf_sat::xorshift::Rng;
use checkfence::mutate::{MutationConfig, MutationPlan};
use checkfence::{
    mine_reference, oracle, CheckConfig, CheckOutcome, Engine, EngineConfig, Harness, ObsSet,
    Query, TestSpec, Verdict,
};

/// What a query answered, reduced to comparable data.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// Inclusion verdict: pass, or the failure kind's debug name.
    Check(Option<String>),
    /// Enumerated observation vectors.
    Obs(ObsSet),
    /// Loop bounds diverged — a verdict for mutants (the livelock
    /// symptom), and it must diverge identically on every path.
    Diverged,
}

fn of_outcome(o: &CheckOutcome) -> Outcome {
    Outcome::Check(match o {
        CheckOutcome::Pass => None,
        CheckOutcome::Fail(cx) => Some(format!("{:?}", cx.kind)),
    })
}

/// Folds a result into a comparable outcome, treating bound divergence
/// as data and anything else as an infrastructure failure.
fn fold<T>(r: Result<T, checkfence::CheckError>, f: impl FnOnce(T) -> Outcome) -> Outcome {
    match r {
        Ok(v) => f(v),
        Err(checkfence::CheckError::BoundsDiverged { .. }) => Outcome::Diverged,
        Err(e) => panic!("infrastructure error: {e}"),
    }
}

fn of_verdict(v: Verdict) -> Outcome {
    match v.answer {
        checkfence::Answer::Outcome(o) => of_outcome(&o),
        checkfence::Answer::Observations(obs) => Outcome::Obs(obs),
        // No budgets are configured on any path of this suite.
        checkfence::Answer::Inconclusive { reason, .. } => {
            panic!("unbudgeted run came back inconclusive: {reason}")
        }
    }
}

/// Runs `queries` as one batch on an all-mode engine with `jobs`
/// workers and folds the verdicts.
fn run_engine(h: &Harness, queries: &[Query], jobs: usize) -> Vec<Outcome> {
    let mut engine = Engine::new(
        EngineConfig::from_check_config(&CheckConfig::default(), ModeSet::all()).with_jobs(jobs),
    );
    let outcomes: Vec<Outcome> = engine
        .run_batch(queries)
        .into_iter()
        .map(|v| {
            // The batch path must surface the query's real record — a
            // past regression filled default stats here, so a
            // default-looking record on a solved verdict is a bug.
            if let Ok(v) = &v {
                assert!(
                    v.stats.solves >= 1 && v.stats.vars > 0,
                    "{}: batch verdict dropped its solver stats",
                    h.name
                );
                assert!(
                    v.stats.wall > std::time::Duration::ZERO,
                    "{}: batch verdict carries no elapsed time",
                    h.name
                );
            }
            fold(v, of_verdict)
        })
        .collect();
    // One pool key: its one session encodes exactly once at any jobs.
    let stats = engine.stats();
    assert_eq!(stats.encodes as usize, stats.sessions, "{}", h.name);
    outcomes
}

/// One sampled point of the query space.
struct Sample {
    mode: Mode,
    /// Active toggle sites (empty = original program).
    toggles: Vec<u32>,
    /// `true` = inclusion check, `false` = observation enumeration.
    check: bool,
}

fn sample(rng: &mut Rng, max_site: u32) -> Sample {
    let mode = Mode::hardware()[rng.below(4) as usize];
    let toggles = if max_site > 0 && rng.below(2) == 0 {
        vec![rng.below(u64::from(max_site)) as u32]
    } else {
        vec![]
    };
    Sample {
        mode,
        toggles,
        // Enumeration is the rarer, costlier query shape.
        check: rng.below(4) != 0,
    }
}

/// Runs the sampled batch through all three paths on one subject.
fn assert_three_way_equivalence(h: &Harness, t: &TestSpec, seed: u64, n: usize) {
    let plan = MutationPlan::build(&h.program, &MutationConfig::default());
    assert!(!plan.points.is_empty(), "{}: nothing planned", h.name);
    let instrumented = Harness {
        name: format!("{}+mutants", h.name),
        program: plan.instrumented.clone(),
        init_proc: h.init_proc.clone(),
        ops: h.ops.clone(),
    };
    let spec = mine_reference(h, t).expect("mines").spec;

    let mut rng = Rng::new(seed);
    let samples: Vec<Sample> = (0..n)
        .map(|_| sample(&mut rng, plan.points.len() as u32))
        .collect();

    // Path 1: the engine at jobs 3 (one pool key, so one session; the
    // job count must not change a verdict).
    let queries: Vec<Query> = samples
        .iter()
        .map(|s| {
            let q = if s.check {
                Query::check_inclusion(&instrumented, t, spec.clone())
            } else {
                Query::enumerate(&instrumented, t)
            };
            q.on(s.mode).with_toggles(&s.toggles)
        })
        .collect();
    let engine_outcomes = run_engine(h, &queries, 3);

    // Path 2: the same batch on a sequential engine (one session).
    let sequential = run_engine(h, &queries, 1);
    for (i, s) in samples.iter().enumerate() {
        assert_eq!(
            engine_outcomes[i],
            sequential[i],
            "{}/{} sample {i}: jobs=3 and jobs=1 engines disagree (mode {}, toggles {:?})",
            h.name,
            t.name,
            s.mode.name(),
            s.toggles
        );
    }

    // Path 3: the reference oracle on concretely mutated builds.
    for (i, s) in samples.iter().enumerate() {
        let build = match s.toggles.first() {
            None => h.clone(),
            Some(&id) => Harness {
                name: format!("{}+m{id}", h.name),
                program: plan.mutant(id),
                init_proc: h.init_proc.clone(),
                ops: h.ops.clone(),
            },
        };
        let q = if s.check {
            Query::check_inclusion(&build, t, spec.clone())
        } else {
            Query::enumerate(&build, t)
        };
        let oneshot = fold(
            oracle::oneshot(&q.on(s.mode), &CheckConfig::default(), &[]),
            of_verdict,
        );
        assert_eq!(
            engine_outcomes[i],
            oneshot,
            "{}/{} sample {i}: engine and one-shot oracle disagree (mode {}, toggles {:?})",
            h.name,
            t.name,
            s.mode.name(),
            s.toggles
        );
    }
}

#[test]
fn treiber_random_query_batches_match_sequential_and_oneshot() {
    let h = treiber::harness(Variant::Fenced);
    let t = tests::by_name("U0").expect("catalog");
    assert_three_way_equivalence(&h, &t, 0x5EED_CAFE, 10);
}

#[test]
fn ms2_random_query_batches_match_sequential_and_oneshot() {
    let h = ms2::harness(Variant::Fenced);
    let t = tests::by_name("T0").expect("catalog");
    assert_three_way_equivalence(&h, &t, 0xFACE_FEED, 10);
}

#[test]
fn mining_queries_match_the_oneshot_path() {
    for h in [
        treiber::harness(Variant::Fenced),
        ms2::harness(Variant::Fenced),
    ] {
        let t = tests::by_name(if h.name.contains("treiber") {
            "U0"
        } else {
            "T0"
        })
        .expect("catalog");
        let q = Query::mine(&h, &t);
        let query = q
            .run()
            .expect("engine mining")
            .into_observations()
            .expect("observations");
        let oneshot = oracle::oneshot(&q, &CheckConfig::default(), &[])
            .expect("oneshot")
            .into_observations()
            .expect("observations");
        assert_eq!(query, oneshot, "{}: engine vs one-shot mining", h.name);
    }
}

#[test]
fn commit_queries_match_the_oneshot_path() {
    use checkfence::commit::AbstractType;
    let h = treiber::harness(Variant::Fenced);
    let t = tests::by_name("U0").expect("catalog");
    for mode in [Mode::Sc, Mode::Relaxed] {
        let q = Query::commit_method(&h, &t, AbstractType::Stack).on(mode);
        let query = q.run().expect("engine commit");
        let oneshot = oracle::oneshot(&q, &CheckConfig::default(), &[]).expect("oneshot commit");
        assert_eq!(
            of_outcome(query.outcome().expect("outcome")),
            of_outcome(oneshot.outcome().expect("outcome")),
            "{}: engine vs one-shot commit on {}",
            h.name,
            mode.name()
        );
    }
}
