//! Fence inference on the real algorithms: the automated version of the
//! paper's manual derive-by-counterexample loop (§4.2–4.3).

use cf_algos::{lamport, lazylist, msn, tests, treiber, Algo, Variant};
use cf_lsl::FenceKind;
use cf_memmodel::Mode;
use checkfence::infer::{infer, InferConfig, InferError};
use checkfence::{mine_reference, CheckError, Harness, Query};

/// On PSO, one store-store fence (Fig. 9 line 29: node fields before the
/// linking CAS) is both necessary and sufficient for `T0`: the other
/// Fig. 9 store-store placement (line 44) is subsumed because each CAS
/// starts with a load and PSO preserves load→load and load→store order.
#[test]
fn msn_on_pso_needs_exactly_one_store_store_fence() {
    let h = msn::harness(Variant::Unfenced);
    let t0 = vec![tests::by_name("T0").expect("catalog")];
    let config = InferConfig {
        kinds: vec![FenceKind::StoreStore],
        procs: Some(vec!["enqueue".into(), "dequeue".into()]),
    };
    let r = infer(&h, &t0, Mode::Pso, &config).expect("inference succeeds");
    assert_eq!(r.kept.len(), 1, "kept: {:?}", r.kept);
    assert_eq!(r.kept[0].proc, "enqueue");
    assert_eq!(r.kept[0].kind, FenceKind::StoreStore);

    // The inferred build passes (sufficiency was verified internally;
    // re-verify end to end through the public API).
    let inferred = Harness {
        name: "msn-inferred".into(),
        program: r.program.clone(),
        init_proc: h.init_proc.clone(),
        ops: h.ops.clone(),
    };
    let spec = mine_reference(&inferred, &t0[0]).expect("mines").spec;
    assert!(Query::check_inclusion(&inferred, &t0[0], spec)
        .on(Mode::Pso)
        .run()
        .expect("checks")
        .passed());
}

/// Inference on TSO infers the empty placement for msn — the executable
/// form of "the algorithm works without inserting any fences on these
/// architectures" (§4.2).
#[test]
fn msn_on_tso_needs_no_fences() {
    let h = msn::harness(Variant::Unfenced);
    let t0 = vec![tests::by_name("T0").expect("catalog")];
    let config = InferConfig {
        kinds: vec![FenceKind::StoreStore, FenceKind::LoadLoad],
        procs: Some(vec!["enqueue".into(), "dequeue".into()]),
    };
    let r = infer(&h, &t0, Mode::Tso, &config).expect("inference succeeds");
    assert!(r.kept.is_empty(), "kept: {:?}", r.kept);
}

/// Algorithmic bugs cannot be fenced away: the lazylist initialization
/// bug is found during specification mining, before any search begins.
#[test]
fn lazylist_marked_bug_surfaces_during_inference() {
    let h = lazylist::harness(lazylist::Build::Buggy);
    let tests = vec![tests::by_name("Sac").expect("catalog")];
    match infer(&h, &tests, Mode::Relaxed, &InferConfig::default()) {
        Err(InferError::Check(CheckError::SerialBug(cx))) => {
            assert!(
                cx.errors.iter().any(|e| e.contains("undefined")),
                "expected the undefined-marked-field error, got {:?}",
                cx.errors
            );
        }
        other => panic!("expected the serial bug, got {other:?}"),
    }
}

/// One single-kind inference run and the placement it must keep.
struct Placement {
    harness: Harness,
    test: &'static str,
    mode: Mode,
    kind: FenceKind,
    procs: Option<Vec<String>>,
    candidates: usize,
    kept: &'static [&'static str],
}

/// Runs `case` and asserts its exact placement: every kept site and the
/// size of the single-kind candidate space searched. Every candidate is
/// encoded, so this pins what the session search keeps over the whole
/// space.
fn assert_placement(case: Placement) {
    let tests = vec![tests::by_name(case.test).expect("catalog")];
    let config = InferConfig {
        kinds: vec![case.kind],
        procs: case.procs,
    };
    let r = infer(&case.harness, &tests, case.mode, &config).expect("inference succeeds");
    let kept: Vec<String> = r.kept.iter().map(|s| s.to_string()).collect();
    let what = format!(
        "{} {} on {}",
        case.harness.name,
        case.test,
        case.mode.name()
    );
    assert_eq!(kept, case.kept, "{what}");
    assert_eq!(r.candidates, case.candidates, "{what}");
}

fn queue_ops() -> Option<Vec<String>> {
    Some(vec!["enqueue".to_string(), "dequeue".to_string()])
}

#[test]
fn treiber_placement_over_the_full_candidate_space() {
    assert_placement(Placement {
        harness: treiber::harness(Variant::Unfenced),
        test: "U0",
        mode: Mode::Pso,
        kind: FenceKind::StoreStore,
        procs: None,
        candidates: 114,
        kept: &["push@0.4.11 (store-store)"],
    });
}

#[test]
fn lamport_placement_over_the_full_candidate_space() {
    assert_placement(Placement {
        harness: lamport::harness(Variant::Unfenced),
        test: "L0",
        mode: Mode::Tso,
        kind: FenceKind::StoreLoad,
        procs: None,
        candidates: 142,
        kept: &[],
    });
}

#[test]
fn ms2_placement_over_the_full_candidate_space() {
    assert_placement(Placement {
        harness: Algo::Ms2.harness(Variant::Unfenced),
        test: "T0",
        mode: Mode::Pso,
        kind: FenceKind::StoreStore,
        procs: queue_ops(),
        candidates: 69,
        kept: &["enqueue@0.14 (store-store)"],
    });
}

#[test]
fn msn_placement_over_the_full_candidate_space() {
    assert_placement(Placement {
        harness: Algo::Msn.harness(Variant::Unfenced),
        test: "T0",
        mode: Mode::Pso,
        kind: FenceKind::StoreStore,
        procs: queue_ops(),
        candidates: 142,
        kept: &["enqueue@0.7.15.4.0.2 (store-store)"],
    });
}

#[test]
fn lazylist_placement_over_the_full_candidate_space() {
    assert_placement(Placement {
        harness: Algo::Lazylist.harness(Variant::Unfenced),
        test: "Sac",
        mode: Mode::Pso,
        kind: FenceKind::StoreStore,
        procs: None,
        candidates: 289,
        kept: &["add@0.0.25.5.14 (store-store)"],
    });
}
