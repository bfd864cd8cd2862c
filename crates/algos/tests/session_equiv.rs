//! Engine-vs-reference equivalence: the pooled all-mode [`Engine`]
//! answering the full `Mode` lattice from one persistent encoding must
//! return exactly the results of the one-shot reference oracle
//! ([`oracle::oneshot`]: a fresh single-model encoding per check) and of
//! the reference interpreter ([`mine_reference`]) — same mined
//! observation sets, same pass/fail verdicts, same failure kinds — for
//! every catalog implementation.
//!
//! This is the regression gate of the incremental-session architecture:
//! any divergence means a mode-selector or activation-literal gating bug.

use cf_algos::{harris, lazylist, ms2, msn, snark, tests, treiber, Variant};
use cf_lsl::FenceKind;
use cf_memmodel::Mode;
use checkfence::infer::{infer, infer_baseline, InferConfig};
use checkfence::{
    mine_reference, oracle, CheckConfig, CheckOutcome, Engine, EngineConfig, Harness, Query,
};

/// Mines the spec with the engine, the reference oracle and the
/// reference interpreter, and checks every hardware mode on the engine
/// and the oracle, asserting identical observation sets and verdicts.
fn assert_equivalent(h: &Harness, test_name: &str) {
    let t = tests::by_name(test_name).expect("catalog test");
    let config = CheckConfig::default();
    let mut engine = Engine::new(EngineConfig::default());

    let mined = engine
        .run(&Query::mine(h, &t))
        .expect("engine mining")
        .into_observations()
        .expect("observations");
    let mined_oneshot = oracle::oneshot(&Query::mine(h, &t), &config, &[])
        .expect("one-shot mining")
        .into_observations()
        .expect("observations");
    assert_eq!(
        mined.vectors, mined_oneshot.vectors,
        "{} / {test_name}: engine and one-shot SAT mining disagree",
        h.name
    );
    let reference = mine_reference(h, &t).expect("reference mining").spec;
    assert_eq!(
        mined.vectors, reference.vectors,
        "{} / {test_name}: SAT mining and reference interpreter disagree",
        h.name
    );

    for mode in Mode::hardware() {
        let q = Query::check_inclusion(h, &t, mined.clone()).on(mode);
        let s = engine
            .run(&q)
            .expect("engine inclusion")
            .into_outcome()
            .expect("outcome");
        let o = oracle::oneshot(&q, &config, &[])
            .expect("one-shot inclusion")
            .into_outcome()
            .expect("outcome");
        assert_eq!(
            s.passed(),
            o.passed(),
            "{} / {test_name} on {}: engine and one-shot verdicts disagree",
            h.name,
            mode.name()
        );
        if let (CheckOutcome::Fail(sc), CheckOutcome::Fail(oc)) = (&s, &o) {
            assert_eq!(
                sc.kind,
                oc.kind,
                "{} / {test_name} on {}: failure kinds disagree",
                h.name,
                mode.name()
            );
        }
    }
    // The whole lattice was answered from one persistent solver.
    let stats = engine.stats();
    assert_eq!(stats.sessions, 1, "one pooled session");
    assert_eq!(
        stats.symexecs, stats.encodes,
        "every symbolic execution is encoded exactly once"
    );
    assert_eq!(stats.queries, 5, "mining + four hardware modes");
}

#[test]
fn ms2_sessions_match_oneshot() {
    assert_equivalent(&ms2::harness(Variant::Fenced), "T0");
}

#[test]
fn msn_sessions_match_oneshot() {
    assert_equivalent(&msn::harness(Variant::Fenced), "T0");
}

#[test]
fn msn_unfenced_sessions_match_oneshot() {
    // Failing builds too: counterexample verdicts must agree per mode.
    assert_equivalent(&msn::harness(Variant::Unfenced), "T0");
}

#[test]
fn lazylist_sessions_match_oneshot() {
    assert_equivalent(&lazylist::harness(lazylist::Build::Fixed), "Sac");
}

#[test]
fn harris_sessions_match_oneshot() {
    assert_equivalent(&harris::harness(Variant::Fenced), "Sac");
}

#[test]
fn snark_sessions_match_oneshot() {
    assert_equivalent(&snark::harness(snark::Build::Fixed, Variant::Fenced), "D0");
}

#[test]
fn treiber_sessions_match_oneshot() {
    assert_equivalent(&treiber::harness(Variant::Fenced), "U0");
}

#[test]
fn treiber_unfenced_sessions_match_oneshot() {
    assert_equivalent(&treiber::harness(Variant::Unfenced), "U0");
}

/// The acceptance criterion of the session refactor: fence inference on
/// the Treiber stack performs exactly one symbolic execution and one
/// encode per test, answers every candidate build by assumptions, and
/// lands on the same 1-minimal placement as the per-candidate baseline.
#[test]
fn treiber_inference_is_encode_once_and_matches_baseline() {
    let h = treiber::harness(Variant::Unfenced);
    let u0 = vec![tests::by_name("U0").expect("catalog")];
    let config = InferConfig {
        kinds: vec![FenceKind::LoadLoad, FenceKind::StoreStore],
        procs: Some(vec!["push".into(), "pop".into()]),
    };
    let session = infer(&h, &u0, Mode::Relaxed, &config).expect("session inference");
    // One test, stable spin-loop bounds: exactly one symbolic execution
    // and one encode for the whole candidate search.
    assert_eq!(session.symexecs, 1, "one symbolic execution per test");
    assert_eq!(session.encodes, 1, "one encode per test");
    assert!(
        session.checks as u64 <= session.sat.solves,
        "candidate builds are assumption-vector queries on one solver"
    );
    // The paper's Treiber repair: one store-store fence in push, one
    // load-load fence in pop.
    assert_eq!(session.kept.len(), 2, "kept: {:?}", session.kept);

    let baseline = infer_baseline(&h, &u0, Mode::Relaxed, &config).expect("baseline inference");
    assert_eq!(
        session.kept, baseline.kept,
        "session and per-candidate inference must agree on the placement"
    );
    assert_eq!(session.checks, baseline.checks, "identical search traces");
    assert!(
        baseline.encodes > session.encodes,
        "the baseline re-encodes per check ({} vs {})",
        baseline.encodes,
        session.encodes
    );
}

/// Commit-point queries ride the same session solver as observation
/// queries and agree with the reference oracle.
#[test]
fn treiber_commit_method_sessions_match_oneshot() {
    use checkfence::commit::AbstractType;
    let h = treiber::harness(Variant::Fenced);
    let t = tests::by_name("U0").expect("catalog");
    let mut engine = Engine::new(EngineConfig::default());
    for mode in [Mode::Sc, Mode::Relaxed] {
        let q = Query::commit_method(&h, &t, AbstractType::Stack).on(mode);
        let s = engine.run(&q).expect("engine commit");
        let o = oracle::oneshot(&q, &CheckConfig::default(), &[]).expect("one-shot commit");
        assert_eq!(
            s.passed(),
            o.passed(),
            "commit-point verdicts disagree on {}",
            mode.name()
        );
    }
    assert_eq!(engine.stats().encodes, 1, "one encode for both modes");
}
