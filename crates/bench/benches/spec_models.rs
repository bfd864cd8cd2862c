//! Compiled-spec benchmark: encode+solve cost of the bundled `.cfm`
//! models versus the built-in enum paths, on the Treiber stack and the
//! nonblocking queue.
//!
//! Run with `cargo bench -p cf-bench --bench spec_models`. Writes
//! `BENCH_spec.json` at the workspace root (override the path with
//! `CHECKFENCE_BENCH_OUT`): per case, wall time, CNF size and solver
//! work for both paths, plus the ratio. The acceptance target for the
//! spec subsystem is a compiled path within 2x of the enum path.
//!
//! Plain `main` (criterion is not vendored in this offline build); the
//! verdicts of both paths are asserted identical, so this doubles as an
//! equivalence check on the benchmark workloads.

use std::fmt::Write as _;
use std::time::Instant;

use cf_algos::{ms2, tests, treiber, Variant};
use cf_memmodel::{Mode, ModeSet};
use cf_spec::bundled;
use checkfence::{CheckConfig, Engine, EngineConfig, Harness, ModelSel, Query, TestSpec};

struct Case {
    name: &'static str,
    harness: Harness,
    test: TestSpec,
    mode: Mode,
}

struct Measured {
    wall_ms: f64,
    passed: bool,
    sat_vars: usize,
    sat_clauses: u64,
    conflicts: u64,
    solves: u64,
}

fn run(case: &Case, use_spec: bool) -> Measured {
    let t0 = Instant::now();
    let config = if use_spec {
        EngineConfig::from_check_config(&CheckConfig::default(), ModeSet::empty())
            .with_specs(vec![bundled::for_mode(case.mode)])
    } else {
        EngineConfig::from_check_config(&CheckConfig::default(), ModeSet::single(case.mode))
    };
    let mut engine = Engine::new(config);
    let obs = checkfence::mine_reference(&case.harness, &case.test)
        .unwrap_or_else(|e| panic!("{}: mining fails: {e}", case.name))
        .spec;
    let sel = if use_spec {
        ModelSel::Spec(0)
    } else {
        ModelSel::Builtin(case.mode)
    };
    let v = engine
        .run(&Query::check_inclusion(&case.harness, &case.test, obs).on_model(sel))
        .unwrap_or_else(|e| panic!("{}: check fails: {e}", case.name));
    let sat = engine.solver_stats();
    Measured {
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        passed: v.passed(),
        sat_vars: v.stats.vars,
        sat_clauses: v.stats.clauses,
        conflicts: sat.conflicts,
        solves: sat.solves,
    }
}

fn json_side(m: &Measured) -> String {
    format!(
        "{{\"wall_ms\": {:.1}, \"passed\": {}, \"sat_vars\": {}, \"sat_clauses\": {}, \
         \"conflicts\": {}, \"solves\": {}}}",
        m.wall_ms, m.passed, m.sat_vars, m.sat_clauses, m.conflicts, m.solves,
    )
}

fn main() {
    let cases = vec![
        Case {
            name: "treiber-U0-relaxed",
            harness: treiber::harness(Variant::Fenced),
            test: tests::by_name("U0").expect("catalog"),
            mode: Mode::Relaxed,
        },
        Case {
            name: "treiber-U0-unfenced-relaxed",
            harness: treiber::harness(Variant::Unfenced),
            test: tests::by_name("U0").expect("catalog"),
            mode: Mode::Relaxed,
        },
        Case {
            name: "ms2-T0-relaxed",
            harness: ms2::harness(Variant::Fenced),
            test: tests::by_name("T0").expect("catalog"),
            mode: Mode::Relaxed,
        },
        Case {
            name: "ms2-T0-pso",
            harness: ms2::harness(Variant::Fenced),
            test: tests::by_name("T0").expect("catalog"),
            mode: Mode::Pso,
        },
    ];

    let mut rows = Vec::new();
    println!(
        "{:<28} {:>10} {:>10} {:>7}  verdicts",
        "case", "enum ms", "spec ms", "ratio"
    );
    for case in &cases {
        let enum_path = run(case, false);
        let spec_path = run(case, true);
        assert_eq!(
            enum_path.passed, spec_path.passed,
            "{}: enum and spec verdicts diverge",
            case.name
        );
        let ratio = spec_path.wall_ms / enum_path.wall_ms.max(0.001);
        println!(
            "{:<28} {:>10.1} {:>10.1} {:>6.2}x  {}",
            case.name,
            enum_path.wall_ms,
            spec_path.wall_ms,
            ratio,
            if enum_path.passed { "pass" } else { "fail" },
        );
        let mut row = String::new();
        let _ = write!(
            row,
            "  {{\"case\": \"{}\", \"enum\": {}, \"spec\": {}, \"ratio\": {:.3}}}",
            case.name,
            json_side(&enum_path),
            json_side(&spec_path),
            ratio
        );
        rows.push(row);
    }

    cf_bench::write_record("BENCH_spec.json", "spec_vs_builtin_models", &[], &rows);
}
