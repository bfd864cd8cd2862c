//! Runtime coverage for the workload matrix on the query engine: a
//! (workload × model) grid answered as one engine batch must come back in
//! matrix order with the same verdicts at any `jobs` level, from one
//! pooled session per (implementation, test) cell.

use cf_algos::{tests, Algo, Variant};
use cf_bench::Workload;
use cf_memmodel::{Mode, ModeSet};
use checkfence::{CheckConfig, Engine, EngineConfig, ModelSel, Query};

fn small_matrix() -> Vec<Workload> {
    ["T0", "Ti2"]
        .iter()
        .map(|name| Workload {
            algo: Algo::Ms2,
            harness: Algo::Ms2.harness(Variant::Fenced),
            test: tests::by_name(name).expect("catalog test"),
        })
        .collect()
}

/// One answered cell: (passed, solver calls, propagations). The solver
/// counters differ between workloads, so a misplaced cell shows.
type Cell = (bool, u64, u64);

/// Mines every workload's specification on `jobs` threads, then answers
/// the workload × model grid as one engine batch at `jobs`. Cells come
/// back row-major by workload, next to the engine's pooled session count.
fn run_grid(
    workloads: &[Workload],
    models: &[ModelSel],
    universe: ModeSet,
    specs: &[cf_spec::ModelSpec],
    jobs: usize,
) -> (Vec<Cell>, usize) {
    let mined = checkfence::run_indexed(jobs, workloads.len(), |i| {
        checkfence::mine_reference(&workloads[i].harness, &workloads[i].test)
            .expect("mines")
            .spec
    });
    let config = EngineConfig::from_check_config(&CheckConfig::default(), universe)
        .with_specs(specs.to_vec())
        .with_jobs(jobs);
    let mut engine = Engine::new(config);
    let queries: Vec<Query<'_>> = workloads
        .iter()
        .zip(mined)
        .flat_map(|(w, spec)| {
            let base = Query::check_inclusion(&w.harness, &w.test, spec);
            models.iter().map(move |&sel| base.clone().on_model(sel))
        })
        .collect();
    let cells = engine
        .run_batch(&queries)
        .into_iter()
        .map(|v| {
            let v = v.expect("cell runs");
            (v.passed(), v.stats.solves, v.stats.propagations)
        })
        .collect();
    (cells, engine.stats().sessions)
}

#[test]
fn parallel_matrix_matches_sequential_and_preserves_order() {
    let modes = [Mode::Sc, Mode::Relaxed];
    let universe: ModeSet = modes.iter().copied().collect();
    let models: Vec<ModelSel> = modes.iter().map(|&m| ModelSel::Builtin(m)).collect();
    let (sequential, seq_sessions) = run_grid(&small_matrix(), &models, universe, &[], 1);
    let (fanned, fan_sessions) = run_grid(&small_matrix(), &models, universe, &[], 4);

    assert_eq!(sequential.len(), 4, "2 workloads x 2 modes");
    assert_eq!(sequential, fanned, "same cells in the same order");
    assert_eq!(seq_sessions, 2, "one session per (algo, test) cell");
    assert_eq!(fan_sessions, 2, "still one session per cell at jobs 4");
    // The fenced two-lock queue passes everywhere (paper §4).
    for (i, &(passed, ..)) in sequential.iter().enumerate() {
        assert!(passed, "cell {i} fails");
    }
}

#[test]
fn mixed_model_matrix_agrees_with_enum_columns() {
    // Built-ins and their compiled spec twins checked from one session
    // per workload: twin columns must agree cell by cell.
    let modes = [Mode::Sc, Mode::Relaxed];
    let specs: Vec<_> = modes
        .iter()
        .map(|&m| cf_spec::bundled::for_mode(m))
        .collect();
    let models: Vec<ModelSel> = modes
        .iter()
        .map(|&m| ModelSel::Builtin(m))
        .chain((0..specs.len()).map(ModelSel::Spec))
        .collect();
    let workloads = small_matrix();
    let universe: ModeSet = modes.iter().copied().collect();
    let (cells, sessions) = run_grid(&workloads, &models, universe, &specs, 3);
    assert_eq!(cells.len(), 8, "2 workloads x (2 modes + 2 specs)");
    assert_eq!(sessions, 2, "one session per workload answers every column");
    for (w, row) in workloads.iter().zip(cells.chunks(4)) {
        for (i, (mode, spec)) in modes.iter().zip(&specs).enumerate() {
            assert_eq!(mode.name(), spec.name, "twin columns align");
            assert_eq!(
                row[i].0,
                row[2 + i].0,
                "{} {} on {}: enum and spec verdicts diverge",
                w.algo.name(),
                w.test.name,
                spec.name
            );
        }
    }
}
