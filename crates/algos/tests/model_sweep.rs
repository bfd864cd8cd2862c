//! Memory-model sweep: the §4.2 architecture observation, executable.
//!
//! The paper notes: "An interesting observation is that the
//! implementations we studied required only load-load and store-store
//! fences. On some architectures (such as Sun TSO or IBM zSeries), these
//! fences are automatic and the algorithm therefore works without
//! inserting any fences on these architectures."
//!
//! With the TSO and PSO models this claim becomes checkable:
//!
//! * on **TSO** both load-load and store-store order are automatic, so
//!   the *unfenced* algorithms pass;
//! * on **PSO** only load order is automatic; the store-store placements
//!   (Fig. 9 lines 29 and 44 for msn) are still required, but the
//!   load-load placements are not;
//! * on **Relaxed** the full Fig. 9 placement is needed.

use cf_algos::{harris, lazylist, ms2, msn, tests, Variant};
use cf_memmodel::Mode;
use checkfence::{mine_reference, CheckOutcome, Engine, EngineConfig, Harness, Query};

fn outcome(h: &Harness, test_name: &str, mode: Mode) -> CheckOutcome {
    let t = tests::by_name(test_name).expect("catalog test");
    let spec = mine_reference(h, &t).expect("mines").spec;
    Engine::new(EngineConfig::single(mode))
        .run(&Query::check_inclusion(h, &t, spec).on(mode))
        .expect("checks")
        .into_outcome()
        .expect("outcome")
}

/// Sweeps every hardware mode on one engine-pooled session (one
/// symbolic execution, one encoding, one persistent solver for the
/// whole lattice).
fn sweep(h: &Harness, test_name: &str) -> Vec<(Mode, bool)> {
    let t = tests::by_name(test_name).expect("catalog test");
    let spec = mine_reference(h, &t).expect("mines").spec;
    let mut engine = Engine::new(EngineConfig::default());
    let queries: Vec<Query> = Mode::hardware()
        .into_iter()
        .map(|mode| Query::check_inclusion(h, &t, spec.clone()).on(mode))
        .collect();
    let out = Mode::hardware()
        .into_iter()
        .zip(engine.run_batch(&queries))
        .map(|(mode, v)| (mode, v.expect("checks").passed()))
        .collect();
    assert_eq!(
        engine.stats().encodes,
        1,
        "sweep must reuse the encoding across modes"
    );
    out
}

// ------------------------------------------------------------------ TSO

#[test]
fn msn_unfenced_passes_t0_on_tso() {
    // The headline claim: Michael & Scott's queue as published (no
    // fences) is correct on TSO.
    let h = msn::harness(Variant::Unfenced);
    assert!(outcome(&h, "T0", Mode::Tso).passed());
}

#[test]
fn msn_unfenced_passes_ti2_on_tso() {
    let h = msn::harness(Variant::Unfenced);
    assert!(outcome(&h, "Ti2", Mode::Tso).passed());
}

#[test]
fn ms2_unfenced_passes_t0_on_tso() {
    let h = ms2::harness(Variant::Unfenced);
    assert!(outcome(&h, "T0", Mode::Tso).passed());
}

#[test]
fn lazylist_unfenced_passes_sac_on_tso() {
    let h = lazylist::harness(lazylist::Build::Unfenced);
    assert!(outcome(&h, "Sac", Mode::Tso).passed());
}

#[test]
fn harris_unfenced_passes_sac_on_tso() {
    let h = harris::harness(Variant::Unfenced);
    assert!(outcome(&h, "Sac", Mode::Tso).passed());
}

// ------------------------------------------------------------------ PSO

#[test]
fn msn_unfenced_fails_t0_on_pso() {
    // PSO reorders the node-field stores past the linking CAS
    // ("incomplete initialization", §4.3) — store-store fences are not
    // automatic there.
    let h = msn::harness(Variant::Unfenced);
    assert!(!outcome(&h, "T0", Mode::Pso).passed());
}

#[test]
fn msn_store_store_only_passes_t0_on_pso() {
    // Keeping just the two store-store placements (Fig. 9 lines 29/44)
    // suffices on PSO: loads never reorder there, so the five load-load
    // placements are automatic.
    let h = msn::harness_with_kinds(false, true);
    assert!(outcome(&h, "T0", Mode::Pso).passed());
}

#[test]
fn msn_store_store_only_passes_ti2_on_pso() {
    let h = msn::harness_with_kinds(false, true);
    assert!(outcome(&h, "Ti2", Mode::Pso).passed());
}

#[test]
fn msn_load_load_only_fails_t0_on_pso() {
    // The converse: load-load fences alone do not restore store order.
    let h = msn::harness_with_kinds(true, false);
    assert!(!outcome(&h, "T0", Mode::Pso).passed());
}

#[test]
fn msn_store_store_only_fails_t0_on_relaxed() {
    // On Relaxed the load-load placements are load-bearing (reordering
    // of load sequences and of value-dependent loads, §4.3).
    let h = msn::harness_with_kinds(false, true);
    assert!(!outcome(&h, "T0", Mode::Relaxed).passed());
}

// ------------------------------------------------------- full placement

#[test]
fn msn_fenced_passes_t0_on_every_hardware_model() {
    let h = msn::harness(Variant::Fenced);
    for mode in Mode::hardware() {
        assert!(
            outcome(&h, "T0", mode).passed(),
            "fenced msn must pass T0 on {}",
            mode.name()
        );
    }
}

#[test]
fn failures_are_monotone_in_model_strength() {
    // If a build fails on a stronger model it must fail on every weaker
    // one: executions only accumulate as the model weakens. The whole
    // lattice runs on one incremental session per build.
    let builds = [
        msn::harness(Variant::Unfenced),
        msn::harness_with_kinds(false, true),
        msn::harness_with_kinds(true, false),
        msn::harness(Variant::Fenced),
    ];
    for h in &builds {
        let mut failed = false;
        for (mode, passed) in sweep(h, "T0") {
            assert!(
                !(failed && passed),
                "{}: passed on {} after failing on a stronger model",
                h.name,
                mode.name()
            );
            failed |= !passed;
        }
    }
}
