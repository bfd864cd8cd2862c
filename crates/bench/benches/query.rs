//! Batch-throughput benchmark of the query engine: the ablation
//! (mutant × model) matrices of treiber/ms2 answered three ways —
//! sequential legacy one-shot calls (the reference oracle,
//! `checkfence::oracle::oneshot`: a fresh encoding and solver per cell
//! on the concretely mutated build), `Engine::run_batch` at `jobs` 1,
//! and `Engine::run_batch` at `jobs` 4 (the same one session: a matrix
//! is one pool key).
//!
//! Run with `cargo bench -p cf-bench --bench query`. Writes
//! `BENCH_query.json` at the workspace root (override with
//! `CHECKFENCE_BENCH_OUT`). Asserts:
//!
//! * verdicts identical across all three paths, cell for cell;
//! * `encodes == sessions == 1` on both engine paths (one encoding per
//!   pool key);
//! * batched `--jobs 4` at least 3x faster than the sequential legacy
//!   calls.
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use cf_algos::{ms2, tests, treiber, Variant};
use cf_memmodel::{Mode, ModeSet};
use checkfence::mutate::{MutationConfig, MutationPlan};
use checkfence::{
    mine_reference, oracle, CheckConfig, CheckError, Engine, EngineConfig, Harness, Query, TestSpec,
};

struct Subject {
    harness: Harness,
    test: TestSpec,
    plan: MutationPlan,
    spec: Arc<checkfence::ObsSet>,
}

fn subject(name: &'static str) -> Subject {
    let (harness, test, procs): (Harness, TestSpec, Vec<String>) = match name {
        "treiber" => (
            treiber::harness(Variant::Fenced),
            tests::by_name("U0").expect("catalog"),
            vec!["push".into(), "pop".into()],
        ),
        "ms2" => (
            ms2::harness(Variant::Fenced),
            tests::by_name("T0").expect("catalog"),
            vec!["enqueue".into(), "dequeue".into()],
        ),
        other => panic!("unknown subject {other}"),
    };
    let plan = MutationPlan::build(
        &harness.program,
        &MutationConfig {
            procs: Some(procs),
            ..MutationConfig::default()
        },
    );
    let spec = Arc::new(mine_reference(&harness, &test).expect("mines").spec);
    Subject {
        harness,
        test,
        plan,
        spec,
    }
}

/// The matrix cells: (toggle set, mode) — baseline row first.
fn cells(s: &Subject) -> Vec<(Vec<u32>, Mode)> {
    let mut out = Vec::new();
    for &mode in &Mode::all() {
        out.push((vec![], mode));
    }
    for p in &s.plan.points {
        for &mode in &Mode::all() {
            out.push((vec![p.id], mode));
        }
    }
    out
}

/// `None` = pass, `Some(kind)` = caught, `Some("Diverged")` = bounds.
type CellVerdict = Option<String>;

fn of_result(r: Result<bool, CheckError>) -> CellVerdict {
    match r {
        Ok(true) => None,
        Ok(false) => Some("fail".into()),
        Err(CheckError::BoundsDiverged { .. }) => Some("diverged".into()),
        Err(e) => panic!("infrastructure error: {e}"),
    }
}

/// The sequential legacy series: the reference oracle per cell on the
/// concretely mutated build — the pre-engine cost model.
fn run_legacy(s: &Subject) -> (f64, Vec<CellVerdict>) {
    let t0 = Instant::now();
    let mut verdicts = Vec::new();
    for (toggles, mode) in cells(s) {
        let build = match toggles.first() {
            None => s.harness.clone(),
            Some(&id) => Harness {
                name: format!("{}+m{id}", s.harness.name),
                program: s.plan.mutant(id),
                init_proc: s.harness.init_proc.clone(),
                ops: s.harness.ops.clone(),
            },
        };
        let query = Query::check_inclusion(&build, &s.test, Arc::clone(&s.spec)).on(mode);
        verdicts.push(of_result(
            oracle::oneshot(&query, &CheckConfig::default(), &[]).map(|v| v.passed()),
        ));
    }
    (t0.elapsed().as_secs_f64() * 1e3, verdicts)
}

/// The engine series: the whole matrix as one batch at `jobs` on the
/// toggle-instrumented build.
fn run_engine(s: &Subject, jobs: usize) -> (f64, Vec<CellVerdict>, usize, u32) {
    let instrumented = Harness {
        name: format!("{}+mutants", s.harness.name),
        program: s.plan.instrumented.clone(),
        init_proc: s.harness.init_proc.clone(),
        ops: s.harness.ops.clone(),
    };
    let t0 = Instant::now();
    let mut engine = Engine::new(
        EngineConfig::from_check_config(&CheckConfig::default(), ModeSet::all()).with_jobs(jobs),
    );
    let base = Query::check_inclusion(&instrumented, &s.test, Arc::clone(&s.spec));
    let queries: Vec<Query> = cells(s)
        .into_iter()
        .map(|(toggles, mode)| base.clone().on(mode).with_toggles(&toggles))
        .collect();
    let verdicts: Vec<CellVerdict> = engine
        .run_batch(&queries)
        .into_iter()
        .map(|v| of_result(v.map(|v| v.passed())))
        .collect();
    let wall = t0.elapsed().as_secs_f64() * 1e3;
    let stats = engine.stats();
    (wall, verdicts, stats.sessions, stats.encodes)
}

fn main() {
    let mut rows = Vec::new();
    for name in ["treiber", "ms2"] {
        let s = subject(name);
        let (legacy_ms, legacy) = run_legacy(&s);
        let (seq_ms, seq, seq_sessions, seq_encodes) = run_engine(&s, 1);
        let (par_ms, par, par_sessions, par_encodes) = run_engine(&s, 4);
        assert_eq!(legacy, seq, "{name}: legacy and jobs=1 verdicts differ");
        assert_eq!(seq, par, "{name}: jobs=1 and jobs=4 verdicts differ");
        // One encoding per pool key, on both engine paths.
        assert_eq!(seq_encodes as usize, seq_sessions, "{name}: jobs=1");
        assert_eq!(par_encodes as usize, par_sessions, "{name}: jobs=4");
        assert_eq!(seq_sessions, 1, "{name}: sequential batch pools once");
        assert_eq!(par_sessions, 1, "{name}: jobs=4 batch pools once");
        let speedup = legacy_ms / par_ms.max(0.001);
        println!(
            "{name:<10} cells {:>4}  legacy {legacy_ms:>8.1} ms  engine j1 {seq_ms:>7.1} ms \
             (encodes {seq_encodes})  engine j4 {par_ms:>7.1} ms (encodes {par_encodes})  \
             speedup {speedup:.2}x",
            legacy.len(),
        );
        let mut row = String::new();
        let _ = write!(
            row,
            "    {{\"name\": \"{name}\", \"cells\": {}, \
             \"legacy\": {{\"wall_ms\": {legacy_ms:.1}}}, \
             \"engine_jobs1\": {{\"wall_ms\": {seq_ms:.1}, \"sessions\": {seq_sessions}, \
             \"encodes\": {seq_encodes}}}, \
             \"engine_jobs4\": {{\"wall_ms\": {par_ms:.1}, \"sessions\": {par_sessions}, \
             \"encodes\": {par_encodes}}}, \
             \"speedup\": {speedup:.3}}}",
            legacy.len(),
        );
        rows.push(row);
        assert!(
            speedup >= 3.0,
            "{name}: batched run_batch at jobs=4 must be >= 3x faster than \
             sequential legacy calls (got {speedup:.2}x)"
        );
    }

    let json = format!(
        "{{\n  \"schema_version\": {},\n  \
         \"benchmark\": \"query_batch_throughput\",\n  \"target_speedup\": 3.0,\n  \
         \"cases\": [\n{}\n  ]\n}}\n",
        cf_trace::SCHEMA_VERSION,
        rows.join(",\n")
    );
    let out = std::env::var("CHECKFENCE_BENCH_OUT").map_or_else(
        |_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_query.json")
        },
        PathBuf::from,
    );
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    println!("wrote {}", out.display());
}
