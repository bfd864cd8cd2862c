//! Self-test of the benchmark: every workload runs at a tiny size, both
//! untraced and traced; every metric it prints is named legally and is
//! exactly the set `BENCHMARK.json` declares; and a corrupted
//! known-answer file is rejected.
//!
//! ```console
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::Path;
use std::sync::{Mutex, MutexGuard};

use perfbench::answers::Answers;
use perfbench::report::valid_name;
use perfbench::workloads::{setup, Size, Workload};
use perfbench::{bench, load_answers, repo_root, Args};

/// The metric names one section of `BENCHMARK.json` declares.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

/// The trace collector is process-global and the traced run times its
/// own work, so the tests take turns instead of running in parallel.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn tiny(workload: Workload, trace: bool) -> Args {
    Args {
        workload,
        seed: 7,
        seconds: 0.001,
        trace,
    }
}

#[test]
fn every_workload_runs_tiny_and_reports_the_declared_metrics() {
    let _turn = serial();
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    for workload in Workload::ALL {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let outcome = bench(&tiny(workload, trace), Size::Tiny, &repo_root())
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(
                outcome.correct,
                "{} trace={trace}: {:?}",
                workload.name(),
                outcome.lines
            );
            assert!(outcome.attempted > 0 && outcome.failed == 0);
            let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            for name in &names {
                assert!(valid_name(name), "illegal metric name `{name}`");
            }
            assert_eq!(
                names,
                want.iter().map(String::as_str).collect::<Vec<_>>(),
                "{} trace={trace}: metrics differ from BENCHMARK.json",
                workload.name()
            );
            let json = outcome.json();
            assert!(json.starts_with("{\"correct\": true"), "{json}");
        }
    }
}

#[test]
fn tiny_runs_are_real_slices_of_the_full_workloads() {
    let _turn = serial();
    // A tiny run that produced no answered cell would pass vacuously.
    for workload in Workload::ALL {
        let p = setup(workload, Size::Tiny, 1, &repo_root(), 2).expect("sets up");
        let out = p.run();
        let answers = load_answers(&repo_root(), workload).expect("answers load");
        let check = answers.check(&out.cells, false);
        assert!(check.correct(), "{}: {:?}", workload.name(), check.wrong);
        assert!(check.checked > 0, "{}: no cell checked", workload.name());
        assert!(
            check.checked < answers.len(),
            "{}: not tiny",
            workload.name()
        );
    }
}

/// Copies the known-answer file of `workload` into a scratch checkout
/// with one verdict flipped, so the benchmark must report a mismatch.
fn corrupted_root(workload: Workload, flip: impl Fn(&str) -> String) -> std::path::PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("corrupt-{}", workload.name()));
    let answers = root.join("perfbench/answers");
    std::fs::create_dir_all(&answers).expect("scratch dir");
    let original = std::fs::read_to_string(
        repo_root()
            .join("perfbench/answers")
            .join(format!("{}.txt", workload.name())),
    )
    .expect("answers");
    std::fs::write(
        answers.join(format!("{}.txt", workload.name())),
        flip(&original),
    )
    .expect("writes");
    root
}

#[test]
fn a_corrupted_known_answer_file_is_rejected() {
    let _turn = serial();
    // paper-fig10 at tiny size checks msn/T0 on Relaxed; claim it fails.
    let workload = Workload::PaperFig10;
    let root = corrupted_root(workload, |text| {
        text.replace("msn/T0\trelaxed\tpass", "msn/T0\trelaxed\tFAIL")
    });
    let outcome = bench(&tiny(workload, false), Size::Tiny, &root).expect("runs");
    assert!(!outcome.correct, "a flipped verdict must be caught");
    assert_eq!(outcome.failed, outcome.attempted);
    assert!(outcome.json().starts_with("{\"correct\": false"));
    assert!(outcome
        .lines
        .iter()
        .any(|l| l.starts_with("MISMATCH msn/T0 @ relaxed")));

    // A malformed line is an error, not a silently shorter answer set.
    let root = corrupted_root(workload, |text| text.replacen('\t', " ", 1));
    assert!(bench(&tiny(workload, false), Size::Tiny, &root).is_err());
}

#[test]
fn full_answer_files_hold_the_declared_cell_counts() {
    let count = |w: Workload| load_answers(&repo_root(), w).expect("loads").len();
    assert_eq!(count(Workload::SynthTreiber), 63 * 4);
    assert_eq!(count(Workload::PaperFig10), 8);
    assert_eq!(count(Workload::C11Corpus), 90);
    assert!(count(Workload::AblateMatrix) > 0);
    // The files parse with the same rules the benchmark applies.
    assert!(Answers::parse("").is_err());
}
