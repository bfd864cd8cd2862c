//! Static critical-cycle analysis benchmark: what the delay-set
//! analysis buys candidate pruning — fence inference with
//! statically-irrelevant candidate sites dropped before encoding,
//! against the full saturated candidate space. Placements must match
//! exactly; the win is the smaller activation-literal space and the
//! wall-clock delta.
//!
//! Run with `cargo bench -p cf-bench --bench cycles`. Writes
//! `BENCH_cycles.json` at the workspace root (override the path with
//! `CHECKFENCE_BENCH_OUT`). Plain `main` (criterion is not vendored in
//! this offline build).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use cf_algos::{lamport, tests, treiber, Variant};
use cf_memmodel::Mode;
use cf_synth::corpus::load_dir;
use checkfence::infer::{infer, InferConfig};
use checkfence::{Harness, TestSpec};

struct InferCase {
    name: String,
    harness: Harness,
    tests: Vec<TestSpec>,
    mode: Mode,
    config: InferConfig,
}

/// The candidate-pruning workload mixes both aliasing regimes: the
/// global-array scenarios (lamport, dekker, seqlock) have precise
/// abstract locations and prune hard; the heap-based treiber stack
/// aliases through one abstract heap blob and prunes little — recorded
/// anyway so the artifact shows the limit, not just the wins.
fn infer_cases() -> Vec<InferCase> {
    let scenario = |name: &str| {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
        let entries = load_dir(&dir).expect("corpus loads");
        let e = entries
            .into_iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("corpus entry {name}"));
        (e.harness, vec![e.tests[0].clone()])
    };
    let (dekker, dekker_tests) = scenario("dekker");
    let (seqlock, seqlock_tests) = scenario("seqlock");
    vec![
        InferCase {
            name: "lamport-L0-relaxed".into(),
            harness: lamport::harness(Variant::Unfenced),
            tests: vec![tests::by_name("L0").expect("catalog")],
            mode: Mode::Relaxed,
            config: InferConfig::default(),
        },
        InferCase {
            name: "treiber-U0-pso".into(),
            harness: treiber::harness(Variant::Unfenced),
            tests: vec![tests::by_name("U0").expect("catalog")],
            mode: Mode::Pso,
            config: InferConfig {
                procs: Some(vec!["push".into(), "pop".into()]),
                ..InferConfig::default()
            },
        },
        InferCase {
            name: format!("dekker-{}-relaxed", dekker_tests[0].name),
            harness: dekker,
            tests: dekker_tests,
            mode: Mode::Relaxed,
            config: InferConfig::default(),
        },
        InferCase {
            name: format!("seqlock-{}-relaxed", seqlock_tests[0].name),
            harness: seqlock,
            tests: seqlock_tests,
            mode: Mode::Relaxed,
            config: InferConfig::default(),
        },
    ]
}

fn main() {
    let mut rows = Vec::new();
    let mut big_reductions = 0usize;
    for case in infer_cases() {
        let t0 = Instant::now();
        let pruned = infer(&case.harness, &case.tests, case.mode, &case.config)
            .unwrap_or_else(|e| panic!("{} (pruned) fails: {e}", case.name));
        let pruned_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let full = infer(
            &case.harness,
            &case.tests,
            case.mode,
            &InferConfig {
                prune: false,
                ..case.config.clone()
            },
        )
        .unwrap_or_else(|e| panic!("{} (full) fails: {e}", case.name));
        let full_ms = t0.elapsed().as_secs_f64() * 1e3;

        // The contract the pruning consumer rests on: identical
        // placements, strictly fewer (or equal) encoded candidates.
        assert_eq!(
            pruned.kept, full.kept,
            "{}: pruning changed the inferred placement",
            case.name
        );
        assert_eq!(pruned.candidates, full.candidates);
        if full.candidates_encoded >= 2 * pruned.candidates_encoded.max(1) {
            big_reductions += 1;
        }
        let reduction = full.candidates_encoded as f64 / pruned.candidates_encoded.max(1) as f64;
        let speedup = full_ms / pruned_ms.max(0.001);
        println!(
            "{:<16} candidates {:>3} -> encoded {:>3} ({reduction:.1}x fewer literals)  \
             kept {}  pruned {:>7.1} ms  full {:>7.1} ms  speedup {speedup:.2}x",
            case.name,
            full.candidates,
            pruned.candidates_encoded,
            pruned.kept.len(),
            pruned_ms,
            full_ms,
        );
        let mut row = String::new();
        let _ = write!(
            row,
            "    {{\"name\": \"{}\", \"mode\": \"{}\", \"candidates\": {}, \
             \"encoded\": {}, \"literal_reduction\": {:.2}, \"kept\": {}, \
             \"pruned\": {{\"wall_ms\": {:.1}, \"encodes\": {}}}, \
             \"full\": {{\"wall_ms\": {:.1}, \"encodes\": {}}}, \"speedup\": {:.3}}}",
            case.name,
            case.mode.name(),
            full.candidates,
            pruned.candidates_encoded,
            reduction,
            pruned.kept.len(),
            pruned_ms,
            pruned.encodes,
            full_ms,
            full.encodes,
            speedup,
        );
        rows.push(row);
    }
    assert!(
        big_reductions >= 2,
        "expected >= 2 harnesses with a >= 2x encoded-candidate reduction, got {big_reductions}"
    );

    cf_bench::write_record("BENCH_cycles.json", "critical_cycle_analysis", &[], &rows);
}
