//! Batched-mutation benchmark: the Fig. 11 mutant matrix answered by
//! one incremental session vs. the per-mutant one-shot oracle, on the
//! Treiber stack and the two-lock queue.
//!
//! Run with `cargo bench -p cf-bench --bench mutate`. Writes
//! `BENCH_mutate.json` at the workspace root (override the path with
//! `CHECKFENCE_BENCH_OUT`) recording wall time, amortization counters
//! and SAT statistics for both paths. The session path must answer the
//! whole (mutant × model) matrix from one symbolic execution and one
//! encoding, land on identical verdicts, and beat the oracle by ≥ 10x.

use std::fmt::Write as _;
use std::time::Instant;

use cf_algos::ablation::{run_ablation, Oracle};
use checkfence::mutate::MutationReport;

struct Measured {
    wall_ms: f64,
    reports: Vec<MutationReport>,
}

fn run(subject: &str, oracle: Oracle) -> Measured {
    let t0 = Instant::now();
    let outcome = run_ablation(subject, &[], oracle, 1)
        .unwrap_or_else(|e| panic!("{subject} ({oracle:?}) fails: {e}"));
    Measured {
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        reports: outcome.reports,
    }
}

fn totals(m: &Measured) -> (u32, u32, u64, u64, usize, usize) {
    let mut symexecs = 0;
    let mut encodes = 0;
    let mut solves = 0;
    let mut conflicts = 0;
    let mut mutants = 0;
    let mut cells = 0;
    for r in &m.reports {
        symexecs += r.session.symexecs;
        encodes += r.session.encodes;
        solves += r.solver.solves;
        conflicts += r.solver.conflicts;
        mutants += r.rows.len();
        cells += (r.rows.len() + 1) * r.models.len();
    }
    (symexecs, encodes, solves, conflicts, mutants, cells)
}

fn json_side(m: &Measured) -> String {
    let (symexecs, encodes, solves, conflicts, _, _) = totals(m);
    format!(
        "{{\"wall_ms\": {:.1}, \"symexecs\": {symexecs}, \"encodes\": {encodes}, \
         \"solves\": {solves}, \"conflicts\": {conflicts}}}",
        m.wall_ms,
    )
}

fn main() {
    let mut rows = Vec::new();
    for subject in ["treiber", "ms2"] {
        let session = run(subject, Oracle::Session);
        let oneshot = run(subject, Oracle::Oneshot);
        // Cell-for-cell verdict equivalence between the two paths.
        for (s, o) in session.reports.iter().zip(&oneshot.reports) {
            assert_eq!(s.baseline, o.baseline, "{subject}: baselines disagree");
            for (a, b) in s.rows.iter().zip(&o.rows) {
                assert_eq!(
                    a.verdicts, b.verdicts,
                    "{subject}: verdicts disagree on mutant {} ({})",
                    a.point, a.description
                );
            }
        }
        // The headline claim: one symbolic execution + one encoding per
        // (test, model-universe) answers the entire matrix.
        for r in &session.reports {
            assert_eq!(r.session.symexecs, 1, "{subject}/{}", r.test);
            assert_eq!(r.session.encodes, 1, "{subject}/{}", r.test);
        }
        let speedup = oneshot.wall_ms / session.wall_ms.max(0.001);
        let (_, s_enc, _, _, mutants, cells) = totals(&session);
        let (_, o_enc, _, _, _, _) = totals(&oneshot);
        println!(
            "{subject:<10} mutants {mutants:>3}  cells {cells:>4}  session {:>8.1} ms \
             (encodes {s_enc:>2})  oneshot {:>8.1} ms (encodes {o_enc:>3})  speedup {speedup:.2}x",
            session.wall_ms, oneshot.wall_ms,
        );
        let mut row = String::new();
        let _ = write!(
            row,
            "    {{\"name\": \"{subject}\", \"mutants\": {mutants}, \"cells\": {cells}, \
             \"session\": {}, \"oneshot\": {}, \"speedup\": {speedup:.3}}}",
            json_side(&session),
            json_side(&oneshot),
        );
        rows.push(row);
        assert!(
            speedup >= 10.0,
            "{subject}: the batched matrix must be >= 10x faster than the \
             one-shot oracle (got {speedup:.2}x)"
        );
    }

    cf_bench::write_record(
        "BENCH_mutate.json",
        "batched_mutation_matrix",
        &[("target_speedup", "10.0".into())],
        &rows,
    );
}
