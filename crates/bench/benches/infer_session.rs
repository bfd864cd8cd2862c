//! Fence-inference benchmark: incremental sessions vs. the per-candidate
//! baseline, on the Treiber stack and the two-lock queue.
//!
//! Run with `cargo bench -p cf-bench --bench infer_session`. Writes
//! `BENCH_infer.json` at the workspace root (override the path with
//! `CHECKFENCE_BENCH_OUT`) recording wall time and SAT statistics for
//! both paths, so the perf trajectory is tracked across PRs.
//!
//! This is a plain `main` (criterion is not vendored in this offline
//! build); each case runs both paths once — the workloads are large
//! enough that run-to-run noise is far below the session-vs-baseline
//! gap being measured.

use std::fmt::Write as _;
use std::time::Instant;

use cf_algos::{ms2, tests, treiber, Variant};
use cf_lsl::FenceKind;
use cf_memmodel::Mode;
use checkfence::infer::{infer, infer_baseline, InferConfig, InferenceResult};
use checkfence::TestSpec;

struct Case {
    name: &'static str,
    harness: checkfence::Harness,
    tests: Vec<TestSpec>,
    mode: Mode,
    config: InferConfig,
}

struct Measured {
    wall_ms: f64,
    result: InferenceResult,
}

fn run(case: &Case, baseline: bool) -> Measured {
    let t0 = Instant::now();
    let result = if baseline {
        infer_baseline(&case.harness, &case.tests, case.mode, &case.config)
    } else {
        infer(&case.harness, &case.tests, case.mode, &case.config)
    }
    .unwrap_or_else(|e| panic!("{} ({}) fails: {e}", case.name, path_name(baseline)));
    Measured {
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        result,
    }
}

fn path_name(baseline: bool) -> &'static str {
    if baseline {
        "baseline"
    } else {
        "session"
    }
}

fn json_side(m: &Measured) -> String {
    format!(
        "{{\"wall_ms\": {:.1}, \"encodes\": {}, \"solves\": {}, \
         \"conflicts\": {}, \"propagations\": {}}}",
        m.wall_ms,
        m.result.encodes,
        m.result.sat.solves,
        m.result.sat.conflicts,
        m.result.sat.propagations,
    )
}

fn main() {
    let cases = vec![
        Case {
            name: "treiber-U0-relaxed",
            harness: treiber::harness(Variant::Unfenced),
            tests: vec![tests::by_name("U0").expect("catalog")],
            mode: Mode::Relaxed,
            config: InferConfig {
                kinds: vec![FenceKind::LoadLoad, FenceKind::StoreStore],
                procs: Some(vec!["push".into(), "pop".into()]),
            },
        },
        Case {
            name: "ms2-T0-pso",
            harness: ms2::harness(Variant::Unfenced),
            tests: vec![tests::by_name("T0").expect("catalog")],
            mode: Mode::Pso,
            config: InferConfig {
                kinds: vec![FenceKind::StoreStore],
                procs: Some(vec!["enqueue".into(), "dequeue".into()]),
            },
        },
    ];

    let mut rows = Vec::new();
    for case in &cases {
        let session = run(case, false);
        let baseline = run(case, true);
        assert_eq!(
            session.result.kept, baseline.result.kept,
            "{}: session and baseline must infer the same placement",
            case.name
        );
        let speedup = baseline.wall_ms / session.wall_ms.max(0.001);
        println!(
            "{:<20} candidates {:>3}  checks {:>3}  kept {}  session {:>8.1} ms \
             (encodes {:>2})  baseline {:>8.1} ms (encodes {:>3})  speedup {:.2}x",
            case.name,
            session.result.candidates,
            session.result.checks,
            session.result.kept.len(),
            session.wall_ms,
            session.result.encodes,
            baseline.wall_ms,
            baseline.result.encodes,
            speedup,
        );
        let mut row = String::new();
        let _ = write!(
            row,
            "    {{\"name\": \"{}\", \"mode\": \"{}\", \"candidates\": {}, \"checks\": {}, \
             \"kept\": {}, \"session\": {}, \"baseline\": {}, \"speedup\": {:.3}}}",
            case.name,
            case.mode.name(),
            session.result.candidates,
            session.result.checks,
            session.result.kept.len(),
            json_side(&session),
            json_side(&baseline),
            speedup,
        );
        rows.push(row);
    }

    cf_bench::write_record("BENCH_infer.json", "fence_inference_sessions", &[], &rows);
}
