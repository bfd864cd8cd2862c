//! The two consumers of the critical-cycle analysis are *optimizations*,
//! not approximations — this harness proves it end to end:
//!
//! * **candidate pruning** (`InferConfig::prune`): inference with
//!   statically-irrelevant candidate sites dropped before encoding must
//!   keep the exact placement the unpruned search keeps, on every
//!   bundled data type;
//! * **sweep triage** (`CorpusConfig::static_triage`): corpus verdict
//!   tables with triage on must be byte-identical to the all-solver
//!   tables, cell for cell, at any job count.

use std::path::{Path, PathBuf};

use cf_algos::{lamport, tests, treiber, Algo, Variant};
use cf_lsl::FenceKind;
use cf_memmodel::Mode;
use cf_synth::corpus::load_dir;
use cf_synth::{run_corpus, CorpusConfig};
use checkfence::infer::{infer, InferConfig};
use checkfence::{Harness, TestSpec};

/// Runs inference twice — candidates pruned by the cycle analysis, and
/// the full saturated space — and asserts the kept placements agree.
fn assert_prune_equiv(
    harness: &Harness,
    test_names: &[&str],
    mode: Mode,
    kinds: Vec<FenceKind>,
    procs: Option<Vec<String>>,
) {
    let tests: Vec<TestSpec> = test_names
        .iter()
        .map(|n| tests::by_name(n).expect("catalog test"))
        .collect();
    let config = InferConfig {
        kinds,
        procs,
        prune: true,
    };
    let pruned = infer(harness, &tests, mode, &config).expect("pruned inference succeeds");
    let full = infer(
        harness,
        &tests,
        mode,
        &InferConfig {
            prune: false,
            ..config
        },
    )
    .expect("unpruned inference succeeds");

    assert_eq!(
        pruned.kept,
        full.kept,
        "{} on {}: pruning changed the inferred placement",
        harness.name,
        mode.name()
    );
    assert_eq!(pruned.candidates, full.candidates);
    assert_eq!(full.candidates_pruned, 0);
    assert_eq!(full.candidates_encoded, full.candidates);
    assert_eq!(
        pruned.candidates_pruned + pruned.candidates_encoded,
        pruned.candidates,
        "{}: pruning accounting must partition the candidate space",
        harness.name
    );
}

#[test]
fn treiber_pruned_inference_keeps_the_same_fences() {
    assert_prune_equiv(
        &treiber::harness(Variant::Unfenced),
        &["U0"],
        Mode::Pso,
        vec![FenceKind::StoreStore],
        None,
    );
}

#[test]
fn lamport_pruned_inference_keeps_the_same_fences() {
    assert_prune_equiv(
        &lamport::harness(Variant::Unfenced),
        &["L0"],
        Mode::Tso,
        vec![FenceKind::StoreLoad],
        None,
    );
}

#[test]
fn ms2_pruned_inference_keeps_the_same_fences() {
    assert_prune_equiv(
        &Algo::Ms2.harness(Variant::Unfenced),
        &["T0"],
        Mode::Pso,
        vec![FenceKind::StoreStore],
        Some(vec!["enqueue".into(), "dequeue".into()]),
    );
}

#[test]
fn msn_pruned_inference_keeps_the_same_fences() {
    assert_prune_equiv(
        &Algo::Msn.harness(Variant::Unfenced),
        &["T0"],
        Mode::Pso,
        vec![FenceKind::StoreStore],
        Some(vec!["enqueue".into(), "dequeue".into()]),
    );
}

#[test]
fn lazylist_pruned_inference_keeps_the_same_fences() {
    assert_prune_equiv(
        &Algo::Lazylist.harness(Variant::Unfenced),
        &["Sac"],
        Mode::Pso,
        vec![FenceKind::StoreStore],
        None,
    );
}

fn repo_dir(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// Triage must be invisible in the verdicts: for every corpus entry the
/// coverage table with static triage (at sequential *and* parallel job
/// counts) is byte-identical to the table the solver produces alone.
/// `table()` excludes the summary line, so the comparison is exact.
fn assert_triage_equiv(dir: &str) {
    let entries = load_dir(&repo_dir(dir)).expect("corpus loads");
    assert!(!entries.is_empty(), "{dir} lost its entries?");
    for entry in &entries {
        let table_with = |static_triage: bool, jobs: usize| {
            let config = CorpusConfig {
                jobs,
                static_triage,
                ..CorpusConfig::default()
            };
            run_corpus(&entry.harness, &entry.tests, &config).table()
        };
        let solver = table_with(false, 1);
        for jobs in [1, 4] {
            assert_eq!(
                table_with(true, jobs),
                solver,
                "{dir}/{}: triage changed a verdict cell at jobs {jobs}",
                entry.name
            );
        }
    }
}

#[test]
fn triage_matches_solver_verdicts_on_the_scenario_corpus() {
    assert_triage_equiv("corpus");
}

#[test]
fn triage_matches_solver_verdicts_on_the_c11_corpus() {
    assert_triage_equiv("corpus/c11");
}
