//! Mutation-engine equivalence: the batched matrix (toggle literals on
//! one session) must return exactly the verdicts of the per-mutant
//! reference oracle ([`oracle::oneshot`] on concretely mutated builds)
//! — the mirror of `session_equiv.rs` for the statement-toggle
//! generalization.
//!
//! Three layers:
//!
//! 1. **litmus-style programs** (store buffering, message passing, load
//!    buffering, coherence): every mutant × every model compared
//!    exhaustively, plus the gating check that the instrumented program
//!    with all toggles off is observation-equivalent to the original;
//! 2. **treiber/ms2**: the full treiber matrix with a declarative
//!    column (the bundled `tso.cfm` spec), and a seeded-random subset of
//!    each plan's toggles compared against concretely mutated one-shot
//!    builds on all hardware models;
//! 3. amortization: every engine matrix above answers from one
//!    symbolic execution and one encoding.

use cf_algos::{ms2, tests, treiber, Variant};
use cf_memmodel::{Mode, ModeSet};
use cf_sat::xorshift::Rng;
use checkfence::mutate::{
    run_mutation_matrix, run_mutation_matrix_oneshot, MatrixConfig, MutationConfig, MutationPlan,
    MutationReport,
};
use checkfence::{
    mine_reference, oracle, CheckConfig, Engine, EngineConfig, Harness, OpSig, Query, TestSpec,
};

fn harness(name: &str, source: &str, ops: Vec<OpSig>) -> Harness {
    Harness {
        name: name.into(),
        program: cf_minic::compile(source).expect("litmus-style source compiles"),
        init_proc: None,
        ops,
    }
}

fn ret_op(key: char, proc_name: &str) -> OpSig {
    OpSig {
        key,
        proc_name: proc_name.into(),
        num_args: 0,
        has_ret: true,
    }
}

/// The four classic two-thread shapes as mini-C harnesses.
fn litmus_catalog() -> Vec<(Harness, TestSpec)> {
    let two = |name: &str, src: &str, a: &str, b: &str| {
        (
            harness(name, src, vec![ret_op('a', a), ret_op('b', b)]),
            TestSpec::parse(name, "( a | b )").expect("parses"),
        )
    };
    vec![
        two(
            "sb",
            r#"int x; int y;
               int sb0() { x = 1; return y; }
               int sb1() { y = 1; return x; }"#,
            "sb0",
            "sb1",
        ),
        two(
            "mp",
            r#"int data; int flag;
               int mp0() { data = 1; fence("store-store"); flag = 1; return 0; }
               int mp1() { int f = flag; fence("load-load"); int d = data; return f + 2 * d; }"#,
            "mp0",
            "mp1",
        ),
        two(
            "lb",
            r#"int x; int y;
               int lb0() { int r = y; x = 1; return r; }
               int lb1() { int r = x; y = 1; return r; }"#,
            "lb0",
            "lb1",
        ),
        two(
            "corr",
            r#"int x;
               int w() { x = 1; return 0; }
               int rr() { int a = x; fence("load-load"); int b = x; return a + 2 * b; }"#,
            "w",
            "rr",
        ),
    ]
}

/// Session matrix == one-shot matrix, cell for cell; returns the
/// session report.
fn assert_matrix_equiv(
    h: &Harness,
    t: &TestSpec,
    mutation: &MutationConfig,
    config: &MatrixConfig,
) -> MutationReport {
    let plan = MutationPlan::build(&h.program, mutation);
    assert!(!plan.points.is_empty(), "{}: nothing planned", h.name);
    let session = run_mutation_matrix(h, t, &plan, config).expect("session matrix");
    let oneshot = run_mutation_matrix_oneshot(h, t, &plan, config).expect("one-shot matrix");
    assert_eq!(session.baseline, oneshot.baseline, "{}: baseline", h.name);
    for (s, o) in session.rows.iter().zip(&oneshot.rows) {
        assert_eq!(
            s.verdicts, o.verdicts,
            "{} / {}: mutant {} ({}) disagrees",
            h.name, t.name, s.point, s.description
        );
    }
    assert_eq!(session.encodes, 1, "{}: one encode", h.name);
    session
}

#[test]
fn litmus_catalog_mutants_match_oneshot_on_every_model() {
    let config = MatrixConfig {
        modes: Mode::all().to_vec(),
        ..MatrixConfig::default()
    };
    for (h, t) in litmus_catalog() {
        assert_matrix_equiv(&h, &t, &MutationConfig::default(), &config);
    }
}

#[test]
fn treiber_matrix_spec_column_matches_oneshot() {
    // The spec column runs through the reference's own lazy-unrolling
    // loop with a single-spec encoding, independent of the engine.
    let s = cf_algos::ablation::subject("treiber").expect("known subject");
    let tso = cf_spec::compile(cf_spec::bundled::TSO).expect("bundled tso spec compiles");
    let config = MatrixConfig {
        modes: vec![Mode::Tso, Mode::Relaxed],
        specs: vec![tso],
        ..MatrixConfig::default()
    };
    let report = assert_matrix_equiv(&s.harness, &s.tests[0], &s.mutation, &config);
    // The column is not vacuous: the matrix separates tso from relaxed,
    // and the spec agrees with the built-in model it axiomatizes.
    let column =
        |i: usize| -> Vec<_> { report.rows.iter().map(|r| r.verdicts[i].clone()).collect() };
    assert_ne!(column(0), column(1), "tso and relaxed columns coincide");
    assert_eq!(column(0), column(2), "tso.cfm disagrees with built-in tso");
}

#[test]
fn toggles_off_is_observation_equivalent_to_the_original() {
    // The gating soundness property behind the whole engine: an
    // instrumented program with every toggle pinned off must produce
    // exactly the original program's observation sets, per model.
    for (h, t) in litmus_catalog() {
        let plan = MutationPlan::build(&h.program, &MutationConfig::default());
        let instrumented = Harness {
            name: format!("{}+mutants", h.name),
            program: plan.instrumented.clone(),
            init_proc: h.init_proc.clone(),
            ops: h.ops.clone(),
        };
        let mut engine = Engine::new(EngineConfig::from_check_config(
            &CheckConfig::default(),
            ModeSet::hardware(),
        ));
        for mode in Mode::hardware() {
            let gated = engine
                .run(
                    &Query::enumerate(&instrumented, &t)
                        .on(mode)
                        .with_toggles(&[]),
                )
                .expect("gated enumeration")
                .into_observations()
                .expect("observations");
            let plain = oracle::oneshot(
                &Query::enumerate(&h, &t).on(mode),
                &CheckConfig::default(),
                &[],
            )
            .expect("one-shot enumeration")
            .into_observations()
            .expect("observations");
            assert_eq!(
                gated.vectors,
                plain.vectors,
                "{} on {}: toggles-off observations differ from the original",
                h.name,
                mode.name()
            );
        }
        assert_eq!(engine.stats().encodes, 1);
    }
}

/// A seeded-random sample of one subject's toggles, engine vs.
/// one-shot, on all hardware models.
fn assert_random_subset_equiv(h: &Harness, t: &TestSpec, mutation: &MutationConfig, seed: u64) {
    let plan = MutationPlan::build(&h.program, mutation);
    assert!(plan.points.len() >= 4, "{}: plan too small", h.name);
    let mut rng = Rng::new(seed);
    let mut picked: Vec<u32> = Vec::new();
    while picked.len() < 4 {
        let id = rng.below(plan.points.len() as u64) as u32;
        if !picked.contains(&id) {
            picked.push(id);
        }
    }
    let spec = mine_reference(h, t).expect("mines").spec;
    let instrumented = Harness {
        name: format!("{}+mutants", h.name),
        program: plan.instrumented.clone(),
        init_proc: h.init_proc.clone(),
        ops: h.ops.clone(),
    };
    let mut engine = Engine::new(EngineConfig::from_check_config(
        &CheckConfig::default(),
        ModeSet::hardware(),
    ));
    for &id in &picked {
        let mutant = Harness {
            name: format!("{}+m{id}", h.name),
            program: plan.mutant(id),
            init_proc: h.init_proc.clone(),
            ops: h.ops.clone(),
        };
        for mode in Mode::hardware() {
            let s = engine
                .run(
                    &Query::check_inclusion(&instrumented, t, spec.clone())
                        .on(mode)
                        .with_toggles(&[id]),
                )
                .map(|v| v.passed());
            let o = oracle::oneshot(
                &Query::check_inclusion(&mutant, t, spec.clone()).on(mode),
                &CheckConfig::default(),
                &[],
            )
            .map(|v| v.passed());
            match (s, o) {
                (Ok(a), Ok(b)) => assert_eq!(
                    a,
                    b,
                    "{} mutant {} ({}) on {}",
                    h.name,
                    id,
                    plan.points[id as usize].description,
                    mode.name()
                ),
                (s, o) => panic!("{}: infrastructure divergence: {s:?} vs {o:?}", h.name),
            }
        }
    }
    assert_eq!(engine.stats().encodes, 1, "{}: one encode", h.name);
}

#[test]
fn treiber_random_toggle_subset_matches_oneshot() {
    let h = treiber::harness(Variant::Fenced);
    let t = tests::by_name("U0").expect("catalog");
    let mutation = MutationConfig {
        procs: Some(vec!["push".into(), "pop".into()]),
    };
    assert_random_subset_equiv(&h, &t, &mutation, 0xC0FFEE);
}

#[test]
fn ms2_random_toggle_subset_matches_oneshot() {
    let h = ms2::harness(Variant::Fenced);
    let t = tests::by_name("T0").expect("catalog");
    let mutation = MutationConfig {
        procs: Some(vec!["enqueue".into(), "dequeue".into()]),
    };
    assert_random_subset_equiv(&h, &t, &mutation, 0xBADCAB);
}
