//! Overhead benchmark for verdict provenance: the treiber/ms2 inclusion
//! sweeps answered with provenance off (the default) and on (core
//! extraction plus greedy minimization under a 2M-tick budget).
//!
//! Run with `cargo bench -p cf-bench --bench provenance`. Writes
//! `BENCH_provenance.json` at the workspace root (override with
//! `CHECKFENCE_BENCH_OUT`). Asserts that **on is bounded**: the
//! instrumented sweep — per-fence toggle literals plus core extraction,
//! which is free-riding on the decisive solve's final-conflict analysis
//! — stays within 1.5x of the plain sweep's wall clock, with the same
//! verdicts. Greedy minimization is measured as its own series: it
//! deliberately buys extra (tick-budgeted) re-solves, so its wall clock
//! is reported, and its contract is that every PASS core comes back
//! locally minimal.

use std::fmt::Write as _;
use std::time::Instant;

use cf_algos::{ms2, tests, treiber, Variant};
use cf_memmodel::Mode;
use checkfence::{
    mine_reference, Engine, EngineConfig, Harness, ProvenanceKind, Query, TestSpec, Verdict,
};

struct Subject {
    harness: Harness,
    test: TestSpec,
    spec: checkfence::ObsSet,
}

fn subject(name: &'static str) -> Subject {
    let (harness, test) = match name {
        "treiber" => (
            treiber::harness(Variant::Fenced),
            tests::by_name("U0").expect("catalog"),
        ),
        "ms2" => (
            ms2::harness(Variant::Fenced),
            tests::by_name("T0").expect("catalog"),
        ),
        other => panic!("unknown subject {other}"),
    };
    let spec = mine_reference(&harness, &test).expect("mines").spec;
    Subject {
        harness,
        test,
        spec,
    }
}

fn queries(s: &Subject) -> Vec<Query<'_>> {
    Mode::hardware()
        .iter()
        .map(|&m| Query::check_inclusion(&s.harness, &s.test, s.spec.clone()).on(m))
        .collect()
}

/// One sweep. `Plain` is the default engine; `Extract` turns on
/// provenance (raw final-conflict cores, zero extra solves);
/// `Minimize` adds the deterministic 2M-tick deletion pass the CLI's
/// `--explain` uses.
#[derive(Clone, Copy, PartialEq)]
enum Series {
    Plain,
    Extract,
    Minimize,
}

fn sweep(s: &Subject, series: Series) -> (f64, Vec<Verdict>) {
    let mut config = EngineConfig::default().with_provenance(series != Series::Plain);
    if series == Series::Minimize {
        config.check.core_minimize_ticks = Some(2_000_000);
    }
    let t0 = Instant::now();
    let mut engine = Engine::new(config);
    let qs = queries(s);
    let verdicts: Vec<Verdict> = engine
        .run_batch(&qs)
        .into_iter()
        .map(|v| v.expect("checks"))
        .collect();
    (t0.elapsed().as_secs_f64() * 1e3, verdicts)
}

/// Best-of-`n` wall clock (minimum filters scheduler noise).
fn best_of(n: usize, mut f: impl FnMut() -> (f64, Vec<Verdict>)) -> (f64, Vec<Verdict>) {
    let mut best = f();
    for _ in 1..n {
        let run = f();
        if run.0 < best.0 {
            best.0 = run.0;
        }
    }
    best
}

fn main() {
    const REPS: usize = 3;
    let mut rows = Vec::new();
    for name in ["treiber", "ms2"] {
        let s = subject(name);

        let (off_ms, off) = best_of(REPS, || sweep(&s, Series::Plain));
        let (on_ms, on) = best_of(REPS, || sweep(&s, Series::Extract));
        let (min_ms, minimized) = best_of(REPS, || sweep(&s, Series::Minimize));
        let (mut cores, mut core_size, mut min_size) = (0usize, 0usize, 0usize);
        for ((plain, raw), min) in off.iter().zip(&on).zip(&minimized) {
            assert_eq!(plain.passed(), raw.passed(), "{name}: verdict drift");
            assert_eq!(plain.passed(), min.passed(), "{name}: verdict drift");
            let p = raw.provenance.as_ref().expect("provenance on");
            if p.kind == ProvenanceKind::Proof {
                cores += 1;
                core_size += p.core_size;
                let m = min.provenance.as_ref().expect("provenance on");
                assert!(m.minimized, "{name}: 2M ticks must finish the pass");
                assert!(m.core_size <= p.core_size, "{name}: minimization grew?");
                min_size += m.core_size;
            }
        }
        assert!(cores > 0, "{name}: the fenced sweep must extract cores");
        let ratio = on_ms / off_ms.max(0.001);
        let min_ratio = min_ms / off_ms.max(0.001);
        println!(
            "{name:<10} queries {:>2}  off {off_ms:>7.1} ms  on {on_ms:>7.1} ms \
             (ratio {ratio:.2}x)  minimized {min_ms:>7.1} ms ({min_ratio:.2}x, \
             cores {cores}, literals {core_size} -> {min_size})",
            off.len(),
        );
        let mut row = String::new();
        let _ = write!(
            row,
            "    {{\"name\": \"{name}\", \"queries\": {}, \
             \"off\": {{\"wall_ms\": {off_ms:.1}}}, \
             \"on\": {{\"wall_ms\": {on_ms:.1}, \"cores\": {cores}, \
             \"core_literals\": {core_size}}}, \
             \"minimized\": {{\"wall_ms\": {min_ms:.1}, \
             \"core_literals\": {min_size}, \"ratio\": {min_ratio:.3}}}, \
             \"ratio\": {ratio:.3}}}",
            off.len(),
        );
        rows.push(row);
        assert!(
            ratio <= 1.5,
            "{name}: provenance extraction must stay within 1.5x of the plain \
             sweep (got {ratio:.2}x: off {off_ms:.1} ms, on {on_ms:.1} ms)"
        );
    }

    cf_bench::write_record(
        "BENCH_provenance.json",
        "verdict_provenance_overhead",
        &[("max_on_ratio", "1.5".into())],
        &rows,
    );
}
