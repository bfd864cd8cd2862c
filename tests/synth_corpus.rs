//! Acceptance suite for `cf-synth`: the synthesized bounded corpus
//! subsumes the hand-written treiber catalog — every harness a human
//! wrote appears (canonicalized) in the generated corpus and gets the
//! identical verdict from the engine-batched corpus runner as from the
//! one-shot oracle path the hand-written suites use — plus a
//! seeded-sample equivalence sweep and a jobs-determinism check.

use cf_algos::{tests as catalog, treiber, Variant};
use cf_memmodel::Mode;
use cf_sat::xorshift::Rng;
use cf_synth::{run_corpus, synthesize, CorpusConfig, CorpusReport, CorpusVerdict, SynthBounds};
use checkfence::{mine_reference, CheckError, Harness, Query, TestSpec};

/// The one-shot oracle: the pattern every hand-written results suite
/// uses (mine the reference spec, answer one query on a throwaway
/// engine), folded to the corpus verdict domain.
fn oneshot(h: &Harness, t: &TestSpec, mode: Mode) -> CorpusVerdict {
    let spec = match mine_reference(h, t) {
        Ok(m) => m.spec,
        Err(e) => return CorpusVerdict::Error(e.to_string()),
    };
    match Query::check_inclusion(h, t, spec).on(mode).run() {
        Ok(v) => {
            if v.passed() {
                CorpusVerdict::Pass
            } else {
                CorpusVerdict::Fail
            }
        }
        Err(CheckError::BoundsDiverged { .. }) => CorpusVerdict::Diverged,
        Err(e) => CorpusVerdict::Error(e.to_string()),
    }
}

/// One session and one encoding per test: `sessions` counts the
/// sessions built, so a session dropped while a later batch still asks
/// about its test would add one to both counts.
fn assert_one_encode_per_test(report: &CorpusReport, what: &str) {
    let rows = report.rows.len();
    assert_eq!(
        (report.sessions, report.encodes as usize),
        (rows, rows),
        "{what}: sessions and encodes must equal the {rows} tests"
    );
}

/// The canonical twin of a hand-written stack test, named through the
/// production reduction itself.
fn canonical_name(t: &TestSpec) -> String {
    cf_synth::canonicalize(t).name
}

#[test]
fn synthesized_corpus_covers_the_handwritten_stack_catalog() {
    let ops = treiber::harness(Variant::Fenced).ops;
    // (T=2, K=3) covers U0, Upc2, Upc3 and the init-seeded Ui2 …
    let two_by_three = synthesize(&ops, &SynthBounds::new(2, 3));
    // … and (T=4, K=1) covers the four-thread U1.
    let four_by_one = synthesize(&ops, &SynthBounds::new(4, 1));
    for name in ["U0", "Upc2", "Upc3", "Ui2", "U1"] {
        let t = catalog::by_name(name).expect("catalog test");
        let canonical = canonical_name(&t);
        let found = two_by_three
            .tests
            .iter()
            .chain(&four_by_one.tests)
            .any(|s| s.name == canonical);
        assert!(found, "{name} (canonical `{canonical}`) not synthesized");
    }
}

#[test]
fn synth_corpus_reproduces_every_handwritten_treiber_verdict() {
    // For both builds of the stack, the synthesized twins of the
    // hand-written harnesses must reproduce the hand-written verdicts
    // cell for cell — corpus runner (one engine batch, one encode per
    // test) versus the one-shot oracle the hand-written suites use.
    let names = ["U0", "Upc2", "Ui2", "U1"];
    let config = CorpusConfig {
        jobs: 2,
        ..CorpusConfig::default()
    };
    for variant in [Variant::Fenced, Variant::Unfenced] {
        let h = treiber::harness(variant);
        let all = synthesize(&h.ops, &SynthBounds::new(4, 3));
        let twins: Vec<TestSpec> = names
            .iter()
            .map(|n| {
                let canonical = canonical_name(&catalog::by_name(n).expect("catalog"));
                all.tests
                    .iter()
                    .find(|t| t.name == canonical)
                    .unwrap_or_else(|| panic!("{n} not synthesized"))
                    .clone()
            })
            .collect();
        let report = run_corpus(&h, &twins, &config);
        assert_one_encode_per_test(&report, &h.name);
        for (name, row) in names.iter().zip(&report.rows) {
            let t = catalog::by_name(name).expect("catalog");
            for (mode, got) in Mode::hardware().iter().zip(&row.verdicts) {
                let want = oneshot(&h, &t, *mode);
                assert_eq!(
                    *got,
                    want,
                    "{}/{name} on {}: corpus runner vs one-shot oracle",
                    h.name,
                    mode.name()
                );
            }
        }
        // And the paper-style qualitative expectations hold.
        let u0 = &report.rows[0];
        match variant {
            Variant::Fenced => {
                for (mode, v) in report.model_names.iter().zip(&u0.verdicts) {
                    assert_eq!(*v, CorpusVerdict::Pass, "fenced U0 on {mode}");
                }
            }
            Variant::Unfenced => {
                assert_eq!(u0.verdicts[0], CorpusVerdict::Pass, "unfenced U0 on sc");
                assert_eq!(u0.verdicts[1], CorpusVerdict::Pass, "unfenced U0 on tso");
                assert_eq!(u0.verdicts[2], CorpusVerdict::Fail, "unfenced U0 on pso");
                assert_eq!(
                    u0.verdicts[3],
                    CorpusVerdict::Fail,
                    "unfenced U0 on relaxed"
                );
            }
        }
    }
}

#[test]
fn seeded_sample_matches_the_oneshot_oracle_and_jobs_are_deterministic() {
    // A seeded random sample of the synthesized corpus: the
    // engine-batched runner and the one-shot oracle must agree on
    // every sampled (test, model) cell, and the coverage table must be
    // byte-identical at jobs=1 and jobs=4. The bundled `sc` spec rides
    // along as a fifth column: it is primed, since a built-in already
    // holds its name, and agrees with the built-in cell by cell.
    let h = treiber::harness(Variant::Unfenced);
    let corpus = synthesize(&h.ops, &SynthBounds::new(2, 3));
    let small: Vec<&TestSpec> = corpus.tests.iter().filter(|t| t.num_ops() <= 4).collect();
    let mut rng = Rng::new(0xcf5);
    let mut sample: Vec<TestSpec> = Vec::new();
    while sample.len() < 4 {
        let pick = small[rng.below(small.len() as u64) as usize];
        if !sample.iter().any(|t| t.name == pick.name) {
            sample.push(pick.clone());
        }
    }
    let config = CorpusConfig {
        specs: vec![cf_spec::bundled::for_mode(Mode::Sc)],
        ..CorpusConfig::default()
    };
    let seq = run_corpus(&h, &sample, &config);
    let par = run_corpus(&h, &sample, &CorpusConfig { jobs: 4, ..config });
    assert_eq!(seq.model_names, ["sc", "tso", "pso", "relaxed", "sc'"]);
    assert_eq!(seq.table(), par.table(), "tables must not depend on jobs");
    assert_one_encode_per_test(&seq, "sample at jobs 1");
    assert_one_encode_per_test(&par, "sample at jobs 4");
    for row in &seq.rows {
        assert_eq!(row.verdicts[4], row.verdicts[0], "{}: sc'", row.test.name);
        for (mode, got) in Mode::hardware().iter().zip(&row.verdicts) {
            assert_eq!(
                *got,
                oneshot(&h, &row.test, *mode),
                "{} on {}",
                row.test.name,
                mode.name()
            );
        }
    }
}
