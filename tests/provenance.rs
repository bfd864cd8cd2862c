//! Soundness suite for verdict provenance: assumption cores must
//! *reproduce* their verdicts (re-solving with only the core
//! assumptions yields the same answer — asserted in-session by the
//! `verify_cores` knob), minimized cores must be locally minimal, and
//! the fence sets a proof reports must cross-check against the ablation
//! ground truth: a load-bearing fence, removed, breaks the check.

use cf_algos::{lamport, ms2, tests as catalog, treiber, Variant};
use cf_memmodel::Mode;
use checkfence::{
    mine_reference, Engine, EngineConfig, Harness, ModelSel, ProvenanceKind, Query, TestSpec,
    Verdict,
};

/// An engine whose sessions extract, minimize and *verify* every core:
/// `verify_cores` re-solves with only the core assumptions (panicking
/// if the verdict is not reproduced) and probes each literal of a
/// minimized core for necessity.
fn strict_engine() -> Engine<'static> {
    let mut config = EngineConfig::default().with_provenance(true);
    config.check.core_minimize_ticks = Some(2_000_000);
    config.check.verify_cores = true;
    Engine::new(config)
}

fn check<'a>(engine: &mut Engine<'a>, h: &'a Harness, t: &'a TestSpec, mode: Mode) -> Verdict {
    let spec = mine_reference(h, t).expect("mines").spec;
    let q = Query::check_inclusion(h, t, spec).on(mode);
    engine.run(&q).expect("checks")
}

#[test]
fn cores_reproduce_their_verdicts_across_the_catalog() {
    // Three implementations, all four hardware models. Every PASS must
    // carry a verified proof core; every FAIL a witness environment.
    // The re-solve and minimality assertions happen inside the session
    // (`verify_cores`), so this test failing loudly *is* the check.
    let cells: [(Harness, &str); 3] = [
        (treiber::harness(Variant::Fenced), "U0"),
        (ms2::harness(Variant::Fenced), "T0"),
        (lamport::harness(Variant::Fenced), "L0"),
    ];
    for (h, tname) in &cells {
        let t = catalog::by_name(tname).expect("catalog test");
        let spec = mine_reference(h, &t).expect("mines").spec;
        let mut engine = strict_engine();
        let queries: Vec<Query> = Mode::hardware()
            .iter()
            .map(|m| Query::check_inclusion(h, &t, spec.clone()).on(*m))
            .collect();
        for (mode, v) in Mode::hardware().iter().zip(engine.run_batch(&queries)) {
            let v = v.expect("checks");
            let p = v
                .provenance
                .as_ref()
                .unwrap_or_else(|| panic!("{}/{tname}@{}: no provenance", h.name, mode.name()));
            match p.kind {
                ProvenanceKind::Proof => assert!(v.passed()),
                ProvenanceKind::Witness => assert!(!v.passed()),
            }
            if v.passed() {
                assert!(
                    p.minimized,
                    "{}/{tname}@{}: minimization under a generous budget",
                    h.name,
                    mode.name()
                );
            }
        }
    }
}

#[test]
fn minimized_proof_cores_name_load_bearing_fences() {
    // The ablation cross-check: every fence a minimized proof core
    // reports as load-bearing must, when removed from the program,
    // produce a failing (or bounds-diverging) weaken-mutant. The fence
    // coordinates in the provenance are `cf_lsl::FenceSite`s, so the two
    // vocabularies join.
    let h = treiber::harness(Variant::Fenced);
    let t = catalog::by_name("U0").expect("catalog test");
    let mut engine = strict_engine();
    let v = check(&mut engine, &h, &t, Mode::Relaxed);
    assert!(v.passed(), "fenced treiber U0 passes on relaxed");
    let p = v.provenance.expect("provenance requested");
    assert_eq!(p.kind, ProvenanceKind::Proof);
    assert!(
        !p.fences.is_empty(),
        "the relaxed-mode proof must lean on at least one fence, got: {p}"
    );
    let spec = mine_reference(&h, &t).expect("mines").spec;
    let sites = h.program.fence_sites();
    for coord in &p.fences {
        let site = sites
            .iter()
            .find(|s| s.to_string() == *coord)
            .unwrap_or_else(|| panic!("reported fence `{coord}` is not a program site"));
        let mutant = Harness {
            program: h.program.without_fences(|s| s == site),
            ..h.clone()
        };
        let broken = match Query::check_inclusion(&mutant, &t, spec.clone())
            .on(Mode::Relaxed)
            .run()
        {
            Ok(v) => !v.passed(),
            Err(checkfence::CheckError::BoundsDiverged { .. }) => true,
            Err(e) => panic!("weaken-mutant of `{coord}` errored: {e}"),
        };
        assert!(
            broken,
            "core reports `{coord}` as load-bearing, but removing it still passes"
        );
    }
}

#[test]
fn witness_provenance_records_the_assumption_environment() {
    // FAIL verdicts carry the witness's assumption environment with
    // zero extra solves: the model it ran under and every fence that
    // was active while the counterexample was found.
    let h = treiber::harness_with_kinds(true, false); // load-load only
    let t = catalog::by_name("U0").expect("catalog test");
    let mut engine = strict_engine();
    let v = check(&mut engine, &h, &t, Mode::Pso);
    assert!(!v.passed(), "without the store-store fence, pso breaks U0");
    let p = v.provenance.expect("provenance requested");
    assert_eq!(p.kind, ProvenanceKind::Witness);
    assert_eq!(p.model, "pso");
    assert_eq!(p.core_size, 0, "witnesses have no unsat core");
    assert!(
        p.fences.iter().any(|f| f.contains("load-load")),
        "the surviving fence was active under the witness: {p}"
    );
    assert!(!p.minimized);
}

#[test]
fn spec_model_proofs_attribute_axiom_groups() {
    // Against a declarative `.cfm` model, a proof core names the axiom
    // groups it leaned on, in the spec's own `violated_axiom`
    // vocabulary.
    let spec_model = cf_spec::bundled::for_mode(Mode::Sc);
    let h = treiber::harness(Variant::Fenced);
    let t = catalog::by_name("U0").expect("catalog test");
    let mined = mine_reference(&h, &t).expect("mines").spec;
    let mut config = EngineConfig::default()
        .with_specs(vec![spec_model])
        .with_provenance(true);
    config.check.verify_cores = true;
    let mut engine = Engine::new(config);
    let q = Query::check_inclusion(&h, &t, mined).on_model(ModelSel::Spec(0));
    let v = engine.run(&q).expect("checks");
    assert!(v.passed(), "fenced treiber U0 passes under declarative sc");
    let p = v.provenance.expect("provenance requested");
    assert_eq!(p.kind, ProvenanceKind::Proof);
    assert_eq!(p.model, "sc");
    assert!(
        !p.axioms.is_empty(),
        "an sc proof must lean on at least one axiom group: {p}"
    );
}

#[test]
fn provenance_engines_pool_one_session_per_key() {
    // Provenance is engine-wide, so the pool key is (harness, test):
    // every model's check shares one session and one encoding, and each
    // verdict carries provenance without changing the plain answer.
    let h = treiber::harness(Variant::Fenced);
    let t = catalog::by_name("U0").expect("catalog test");
    let spec = mine_reference(&h, &t).expect("mines").spec;
    let queries: Vec<Query> = Mode::hardware()
        .iter()
        .map(|m| Query::check_inclusion(&h, &t, spec.clone()).on(*m))
        .collect();
    let mut plain = Engine::new(EngineConfig::default());
    let mut instrumented = Engine::new(EngineConfig::default().with_provenance(true));
    let plain_verdicts = plain.run_batch(&queries);
    let instrumented_verdicts = instrumented.run_batch(&queries);
    for ((mode, p), i) in Mode::hardware()
        .iter()
        .zip(&plain_verdicts)
        .zip(&instrumented_verdicts)
    {
        let (p, i) = (p.as_ref().expect("checks"), i.as_ref().expect("checks"));
        assert!(
            p.provenance.is_none(),
            "{}: provenance is opt-in",
            mode.name()
        );
        assert!(i.provenance.is_some(), "{}: no provenance", mode.name());
        assert_eq!(p.passed(), i.passed(), "{}", mode.name());
    }
    for stats in [plain.stats(), instrumented.stats()] {
        assert_eq!(stats.sessions, 1, "one session per key");
        assert_eq!(stats.encodes, 1, "one encoding per key");
    }
}

#[test]
fn core_settings_set_through_check_mut_reach_a_pooled_session() {
    // Core minimization reads the engine's current settings, so a
    // session built under a starved minimizer minimizes once the
    // budget is raised, without being rebuilt.
    let h = treiber::harness(Variant::Fenced);
    let t = catalog::by_name("U0").expect("catalog test");
    let mut config = EngineConfig::default().with_provenance(true);
    config.check.core_minimize_ticks = Some(1);
    config.check.verify_cores = true;
    let mut engine = Engine::new(config);
    let starved = check(&mut engine, &h, &t, Mode::Relaxed);
    assert!(!starved.provenance.expect("provenance requested").minimized);

    engine.check_mut().core_minimize_ticks = Some(2_000_000);
    let fed = check(&mut engine, &h, &t, Mode::Relaxed);
    assert!(fed.passed());
    assert!(fed.provenance.expect("provenance requested").minimized);
    assert_eq!(engine.stats().sessions, 1, "no session was rebuilt");
}

#[test]
fn budget_starved_minimization_degrades_to_the_unminimized_core() {
    // Minimization runs under its own tick budget; starving it must
    // degrade to the raw (verified, unminimized) core — never to an
    // inconclusive verdict.
    let h = treiber::harness(Variant::Fenced);
    let t = catalog::by_name("U0").expect("catalog test");
    let mut config = EngineConfig::default().with_provenance(true);
    config.check.core_minimize_ticks = Some(1);
    config.check.verify_cores = true;
    let mut engine = Engine::new(config);
    let v = check(&mut engine, &h, &t, Mode::Relaxed);
    assert!(
        v.passed(),
        "a starved minimizer must not change the verdict"
    );
    let p = v.provenance.expect("provenance requested");
    assert_eq!(p.kind, ProvenanceKind::Proof);
    assert!(
        !p.minimized,
        "one tick cannot complete a deletion pass; the core stays raw"
    );
}
