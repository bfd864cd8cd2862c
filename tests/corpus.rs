//! The scenario corpus under `corpus/` is machine-checked: every entry
//! loads, compiles, mines, and reproduces every verdict its header
//! declares — so the corpus cannot rot any more than the docs can.

use std::path::Path;

use cf_memmodel::ModeSet;
use cf_synth::corpus::{load_dir, CorpusEntry};
use cf_synth::{run_corpus, CorpusConfig, CorpusVerdict};
use checkfence::{mine_reference, Engine, EngineConfig, ModelSel, Query};

fn corpus() -> Vec<CorpusEntry> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    load_dir(&dir).expect("corpus loads")
}

fn c11_corpus() -> Vec<CorpusEntry> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/c11");
    load_dir(&dir).expect("c11 corpus loads")
}

/// Runs every entry under `config` at jobs 1 and at jobs 4, and asserts
/// that both coverage tables are byte-identical, mining succeeds, no
/// model column errors out, and every declared verdict is reproduced.
fn assert_verdicts(entries: &[CorpusEntry], config: &CorpusConfig) {
    for entry in entries {
        let run_at = |jobs: usize| {
            let config = CorpusConfig {
                jobs,
                ..config.clone()
            };
            run_corpus(&entry.harness, &entry.tests, &config)
        };
        let report = run_at(1);
        assert_eq!(
            run_at(4).table(),
            report.table(),
            "{}: the coverage table differs between jobs 1 and jobs 4",
            entry.name
        );
        for row in &report.rows {
            assert!(
                row.mine_error.is_none(),
                "{}/{}: mining failed: {:?}",
                entry.name,
                row.test.name,
                row.mine_error
            );
            for (model, v) in report.model_names.iter().zip(&row.verdicts) {
                assert!(
                    !matches!(v, CorpusVerdict::Error(_)),
                    "{}/{} on {model}: {v:?}",
                    entry.name,
                    row.test.name
                );
            }
        }
        for expect in &entry.expects {
            let row = report
                .rows
                .iter()
                .find(|r| r.test.name == expect.test)
                .expect("expectation names a declared test");
            let col = report
                .model_names
                .iter()
                .position(|m| *m == expect.model)
                .unwrap_or_else(|| panic!("{}: unknown model {}", entry.name, expect.model));
            let want = if expect.pass {
                CorpusVerdict::Pass
            } else {
                CorpusVerdict::Fail
            };
            assert_eq!(
                row.verdicts[col],
                want,
                "{}: {} @ {} declared {} — got {}",
                entry.name,
                expect.test,
                expect.model,
                if expect.pass { "pass" } else { "fail" },
                row.verdicts[col].cell()
            );
        }
    }
}

#[test]
fn corpus_holds_the_five_scenarios() {
    let names: Vec<String> = corpus().into_iter().map(|e| e.name).collect();
    assert_eq!(
        names,
        ["dekker", "mpmc_queue", "seqlock", "spsc_ring", "treiber"]
    );
}

#[test]
fn every_entry_declares_checked_expectations() {
    for entry in corpus() {
        assert!(
            entry.expects.len() >= 4,
            "{}: a corpus entry must pin at least four verdicts",
            entry.name
        );
        // Every entry tells both stories: fenced ops passing across the
        // lattice, and raw twins pinning at least one failure.
        for model in ["sc", "tso", "pso", "relaxed"] {
            assert!(
                entry.expects.iter().any(|e| e.model == model),
                "{}: no expectation on {model}",
                entry.name
            );
        }
        assert!(
            entry.expects.iter().any(|e| e.pass),
            "{}: no passing expectation",
            entry.name
        );
        assert!(
            entry.expects.iter().any(|e| !e.pass),
            "{}: no failing expectation",
            entry.name
        );
    }
}

#[test]
fn declared_verdicts_are_reproduced() {
    assert_verdicts(&corpus(), &CorpusConfig::default());
}

/// `// cf: explain` pins are machine-checked too: re-running the entry
/// with provenance on, every pinned fence coordinate must appear in
/// the solved cell's provenance report. The pin is a subset
/// requirement — the core may lean on more fences than the header
/// names, but never fewer.
#[test]
fn declared_explains_are_reproduced() {
    let entries: Vec<CorpusEntry> = corpus()
        .into_iter()
        .filter(|e| !e.explains.is_empty())
        .collect();
    assert!(
        entries.iter().any(|e| e.name == "treiber"),
        "the treiber entry must pin at least one provenance explain"
    );
    let config = CorpusConfig {
        jobs: 2,
        provenance: true,
        ..CorpusConfig::default()
    };
    for entry in &entries {
        let report = run_corpus(&entry.harness, &entry.tests, &config);
        for pin in &entry.explains {
            let row = report
                .rows
                .iter()
                .find(|r| r.test.name == pin.test)
                .expect("explain names a declared test");
            let col = report
                .model_names
                .iter()
                .position(|m| *m == pin.model)
                .unwrap_or_else(|| panic!("{}: unknown model {}", entry.name, pin.model));
            let explain = row.explains[col].as_ref().unwrap_or_else(|| {
                panic!(
                    "{}: {} @ {} pinned but the cell carries no provenance \
                     (was it inferred instead of solved?)",
                    entry.name, pin.test, pin.model
                )
            });
            for coord in &pin.fences {
                assert!(
                    explain.contains(coord),
                    "{}: {} @ {} provenance must mention `{coord}`, got: {explain}",
                    entry.name,
                    pin.test,
                    pin.model
                );
            }
        }
    }
}

/// The ported C11 litmus family in `corpus/c11/` — checked against the
/// hardware lattice *plus* the `c11.cfm` / `rc11.cfm` spec columns.
fn c11_config() -> CorpusConfig {
    let specs = vec![
        cf_spec::compile(cf_spec::bundled::C11).expect("c11.cfm compiles"),
        cf_spec::compile(cf_spec::bundled::RC11).expect("rc11.cfm compiles"),
    ];
    CorpusConfig {
        specs,
        ..CorpusConfig::default()
    }
}

#[test]
fn c11_family_is_ported_in_force() {
    let entries = c11_corpus();
    let total_tests: usize = entries.iter().map(|e| e.tests.len()).sum();
    assert!(
        total_tests >= 25,
        "corpus/c11 must port at least 25 litmus tests, found {total_tests}"
    );
    // Every litmus test pins its verdict on both ordering specs: the
    // family exists to exercise c11.cfm and rc11.cfm, so an entry that
    // only speaks about hardware models has rotted.
    for entry in &entries {
        for test in &entry.tests {
            for spec in ["c11", "rc11"] {
                assert!(
                    entry
                        .expects
                        .iter()
                        .any(|e| e.test == test.name && e.model == spec),
                    "{}/{}: no expectation on {spec}",
                    entry.name,
                    test.name
                );
            }
        }
        // And the family tells both stories per entry: something the
        // orderings make safe, and something they leave broken.
        assert!(
            entry.expects.iter().any(|e| e.pass),
            "{}: no passing expectation",
            entry.name
        );
        assert!(
            entry.expects.iter().any(|e| !e.pass),
            "{}: no failing expectation",
            entry.name
        );
    }
}

#[test]
fn c11_declared_verdicts_are_reproduced() {
    assert_verdicts(&c11_corpus(), &c11_config());
}

/// The family's costliest diagnosis: `RSEQbrk` fails under both
/// ordering specs with an 11-access witness, which the checker replays
/// through the explicit oracle against `sc.cfm` to name the axiom the
/// execution breaks.
#[test]
fn c11_release_sequence_witness_names_the_sc_axiom() {
    let entry = c11_corpus()
        .into_iter()
        .find(|e| e.name == "c11_release_seq")
        .expect("corpus/c11/release_seq.c loads");
    let test = entry
        .tests
        .iter()
        .find(|t| t.name == "RSEQbrk")
        .expect("release_seq.c declares RSEQbrk");
    let obs = mine_reference(&entry.harness, test).expect("mines").spec;
    let config = c11_config();
    let modes: ModeSet = config.modes.iter().copied().collect();
    let mut engine = Engine::new(
        EngineConfig::from_check_config(&config.check, modes).with_specs(config.specs.clone()),
    );
    for (i, spec) in config.specs.iter().enumerate() {
        let query =
            Query::check_inclusion(&entry.harness, test, obs.clone()).on_model(ModelSel::Spec(i));
        let verdict = engine.run(&query).expect("spec check runs");
        let cx = verdict
            .counterexample()
            .unwrap_or_else(|| panic!("RSEQbrk must fail under {}", spec.name));
        assert_eq!(
            cx.violated_axiom.as_deref(),
            Some("program_order"),
            "RSEQbrk under {}: {cx}",
            spec.name
        );
    }
}
