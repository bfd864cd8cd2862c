//! SAT-backend equivalence of the bundled `.cfm` specs and their
//! built-in `Mode` twins on real harnesses.
//!
//! The acceptance bar for the spec subsystem: on the Treiber stack and
//! the two-lock queue, a session encoding built-in modes *and* their
//! compiled spec twins side by side must return identical checker
//! verdicts for every (mode, twin) pair, from a single symbolic
//! execution and a single encoding. A one-shot spec checker run is also
//! compared against the enum path for both a passing and a failing
//! configuration.

use cf_algos::{ms2, tests, treiber, Variant};
use cf_memmodel::{Mode, ModeSet};
use cf_spec::bundled;
use checkfence::{
    mine_reference, CheckConfig, Engine, EngineConfig, Harness, ModelSel, Query, TestSpec,
};

/// Sweeps all four hardware modes and their spec twins on one shared
/// engine session and asserts pairwise-identical verdicts.
fn assert_mixed_session_equivalence(harness: &Harness, test: &TestSpec) {
    let hardware: Vec<Mode> = Mode::hardware().to_vec();
    let specs: Vec<cf_spec::ModelSpec> = hardware.iter().map(|&m| bundled::for_mode(m)).collect();
    let config = EngineConfig::from_check_config(&CheckConfig::default(), ModeSet::hardware())
        .with_specs(specs);
    let mut engine = Engine::new(config);
    let spec = mine_reference(harness, test).expect("mines").spec;
    for (i, &mode) in hardware.iter().enumerate() {
        let enum_verdict = engine
            .run(&Query::check_inclusion(harness, test, spec.clone()).on(mode))
            .expect("enum check")
            .passed();
        let spec_verdict = engine
            .run(&Query::check_inclusion(harness, test, spec.clone()).on_model(ModelSel::Spec(i)))
            .expect("spec check")
            .passed();
        assert_eq!(
            enum_verdict, spec_verdict,
            "{} {}: Mode::{mode:?} and its .cfm twin disagree",
            harness.name, test.name
        );
    }
    assert_eq!(engine.stats().sessions, 1, "one pooled session");
    assert_eq!(engine.stats().encodes, 1, "one shared encoding");
}

#[test]
fn treiber_unfenced_mixed_session_matches() {
    let h = treiber::harness(Variant::Unfenced);
    let t = tests::by_name("U0").expect("catalog test");
    assert_mixed_session_equivalence(&h, &t);
}

#[test]
fn treiber_fenced_mixed_session_matches() {
    let h = treiber::harness(Variant::Fenced);
    let t = tests::by_name("U0").expect("catalog test");
    assert_mixed_session_equivalence(&h, &t);
}

#[test]
fn ms2_fenced_mixed_session_matches() {
    let h = ms2::harness(Variant::Fenced);
    for name in ["T0", "Ti2"] {
        let t = tests::by_name(name).expect("catalog test");
        assert_mixed_session_equivalence(&h, &t);
    }
}

#[test]
fn single_model_engines_agree_with_the_enum_path() {
    // A failing configuration: the unfenced Treiber stack on Relaxed.
    let h = treiber::harness(Variant::Unfenced);
    let t = tests::by_name("U0").expect("catalog test");
    let obs = mine_reference(&h, &t).expect("mines").spec;
    let spec_engine_config =
        EngineConfig::from_check_config(&CheckConfig::default(), ModeSet::single(Mode::Relaxed))
            .with_specs(vec![bundled::for_mode(Mode::Relaxed)]);
    let mut engine = Engine::new(spec_engine_config.clone());
    let enum_fail = engine
        .run(&Query::check_inclusion(&h, &t, obs.clone()).on(Mode::Relaxed))
        .expect("enum check");
    let spec_fail = engine
        .run(&Query::check_inclusion(&h, &t, obs).on_model(ModelSel::Spec(0)))
        .expect("spec check");
    assert!(!enum_fail.passed(), "unfenced treiber breaks on relaxed");
    assert!(!spec_fail.passed(), "the spec twin must find the bug too");
    if let Some(cx) = spec_fail.counterexample() {
        assert_eq!(cx.model, "relaxed", "counterexample names the spec");
    }

    // A passing configuration: the fenced build on the same model.
    let h = treiber::harness(Variant::Fenced);
    let obs = mine_reference(&h, &t).expect("mines").spec;
    let mut engine = Engine::new(spec_engine_config);
    assert!(engine
        .run(&Query::check_inclusion(&h, &t, obs.clone()).on(Mode::Relaxed))
        .expect("enum")
        .passed());
    assert!(engine
        .run(&Query::check_inclusion(&h, &t, obs).on_model(ModelSel::Spec(0)))
        .expect("spec")
        .passed());
}

#[test]
fn serial_spec_enumerates_the_mined_specification() {
    // The `serial.cfm` spec (atomic_ops) must enumerate exactly the
    // serial observation set on the SAT path.
    let h = ms2::harness(Variant::Fenced);
    let t = tests::by_name("T0").expect("catalog test");
    let mined = mine_reference(&h, &t).expect("mines").spec;
    let config = EngineConfig::from_check_config(&CheckConfig::default(), ModeSet::empty())
        .with_specs(vec![bundled::for_mode(Mode::Serial)]);
    let enumerated = Engine::new(config)
        .run(&Query::enumerate(&h, &t).on_model(ModelSel::Spec(0)))
        .expect("enumerates")
        .into_observations()
        .expect("observations");
    assert_eq!(enumerated, mined, "serial spec = serial semantics");
}

#[test]
fn spec_counterexamples_name_the_violated_sc_axiom() {
    // A failing check under `relaxed.cfm` replays its witness through
    // the explicit oracle and reports which serializability axiom the
    // execution breaks — `sc.cfm` labels its one axiom
    // `program_order`, so that name must appear in the report.
    let program = cf_minic::compile(
        r#"
        int data; int flag;
        void put(int v) { data = v + 1; flag = 1; }
        int get() { int f = flag; if (f == 0) { return 0 - 1; } return data; }
        "#,
    )
    .expect("compiles");
    let h = Harness {
        name: "mailbox".into(),
        program,
        init_proc: None,
        ops: vec![
            checkfence::OpSig {
                key: 'p',
                proc_name: "put".into(),
                num_args: 1,
                has_ret: false,
            },
            checkfence::OpSig {
                key: 'g',
                proc_name: "get".into(),
                num_args: 0,
                has_ret: true,
            },
        ],
    };
    let t = TestSpec::parse("pg", "( p | g )").expect("parses");
    let obs = mine_reference(&h, &t).expect("mines").spec;
    let relaxed = bundled::for_mode(Mode::Relaxed);
    let config =
        EngineConfig::from_check_config(&CheckConfig::default(), ModeSet::single(Mode::Relaxed))
            .with_specs(vec![relaxed]);
    let mut engine = Engine::new(config);
    let r = engine
        .run(&Query::check_inclusion(&h, &t, obs.clone()).on_model(ModelSel::Spec(0)))
        .expect("spec check runs");
    let Some(cx) = r.counterexample() else {
        panic!("the unfenced mailbox must fail under relaxed.cfm");
    };
    assert_eq!(
        cx.violated_axiom.as_deref(),
        Some("program_order"),
        "witness replay must name sc.cfm's axiom: {cx}"
    );
    let report = format!("{cx}");
    assert!(
        report.contains("breaks serializability at sc axiom `program_order`"),
        "{report}"
    );

    // Built-in models keep the old report shape (no axiom line).
    let r = engine
        .run(&Query::check_inclusion(&h, &t, obs).on(Mode::Relaxed))
        .expect("builtin check runs");
    let Some(cx) = r.counterexample() else {
        panic!("the unfenced mailbox must fail under builtin relaxed");
    };
    assert!(cx.violated_axiom.is_none(), "{cx}");
}
