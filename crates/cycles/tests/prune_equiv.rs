//! Candidate pruning (`InferConfig::prune`) is an *optimization*, not
//! an approximation — this harness proves it end to end: inference with
//! statically-irrelevant candidate sites dropped before encoding must
//! keep the exact placement the unpruned search keeps, on every bundled
//! data type.

use cf_algos::{lamport, tests, treiber, Algo, Variant};
use cf_lsl::FenceKind;
use cf_memmodel::Mode;
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
