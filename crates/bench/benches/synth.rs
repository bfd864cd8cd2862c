//! Synthesized-corpus throughput: what checking the whole bounded test
//! universe of a data type costs with and without `cf-synth`.
//!
//! * **one-shot** — the baseline a driver without the subsystem pays:
//!   every *generated* bounded shape (no symmetry reduction), each
//!   (shape, model) cell re-mined with the reference interpreter and
//!   checked by the reference oracle (`checkfence::oracle::oneshot`:
//!   fresh single-model encoding and solver);
//! * **engine batch** — `cf_synth::run_corpus` on the canonical corpus:
//!   thread-permutation symmetry reduction, one pooled session per
//!   harness encoding the whole hardware lattice, ladder rounds that
//!   solve weakest-first and fill stronger cells of passing tests by
//!   §2.3.3 inference, at `--jobs` 1 and 4.
//!
//! Run with `cargo bench -p cf-bench --bench synth`. Writes
//! `BENCH_synth.json` at the workspace root (override with
//! `CHECKFENCE_BENCH_OUT`). Asserts:
//!
//! * every generated shape's one-shot verdict row equals its canonical
//!   twin's engine verdict row (symmetry reduction and lattice
//!   inference change nothing but the cost);
//! * `encodes == sessions` on both engine paths;
//! * each subject's better engine series is at least 3x faster than
//!   one-shot, and the aggregate over all subjects at least 5x.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use cf_algos::{ms2, treiber, Variant};
use cf_memmodel::Mode;
use cf_synth::{
    canonicalize, enumerate_ordered, run_corpus, synthesize, CorpusConfig, CorpusReport,
    CorpusVerdict, SynthBounds,
};
use checkfence::{mine_reference, oracle, CheckConfig, CheckError, Harness, Query, TestSpec};

fn verdict_of(r: Result<bool, CheckError>) -> CorpusVerdict {
    match r {
        Ok(true) => CorpusVerdict::Pass,
        Ok(false) => CorpusVerdict::Fail,
        Err(CheckError::BoundsDiverged { .. }) => CorpusVerdict::Diverged,
        Err(e) => CorpusVerdict::Error(e.to_string()),
    }
}

/// The one-shot series over the full ordered (pre-reduction) universe:
/// re-mine and re-encode for every cell.
fn run_oneshot(h: &Harness, shapes: &[TestSpec]) -> (f64, Vec<Vec<CorpusVerdict>>) {
    let t0 = Instant::now();
    let mut rows = Vec::with_capacity(shapes.len());
    for test in shapes {
        let mut row = Vec::new();
        for &mode in &Mode::hardware() {
            let v = mine_reference(h, test).and_then(|m| {
                let query = Query::check_inclusion(h, test, m.spec).on(mode);
                oracle::oneshot(&query, &CheckConfig::default(), &[]).map(|v| v.passed())
            });
            row.push(verdict_of(v));
        }
        rows.push(row);
    }
    (t0.elapsed().as_secs_f64() * 1e3, rows)
}

/// The engine series: the corpus runner on the canonical corpus.
fn run_engine(h: &Harness, tests: &[TestSpec], jobs: usize) -> (f64, CorpusReport) {
    let config = CorpusConfig {
        jobs,
        ..CorpusConfig::default()
    };
    let t0 = Instant::now();
    let report = run_corpus(h, tests, &config);
    (t0.elapsed().as_secs_f64() * 1e3, report)
}

fn main() {
    let subjects: [(Harness, SynthBounds); 2] = [
        (
            treiber::harness(Variant::Fenced),
            SynthBounds::new(4, 1).with_init_ops(0),
        ),
        (
            ms2::harness(Variant::Fenced),
            SynthBounds::new(2, 2).with_init_ops(0),
        ),
    ];
    let mut rows = Vec::new();
    let (mut total_oneshot_ms, mut total_engine_ms) = (0.0f64, 0.0f64);
    for (h, bounds) in subjects {
        let name = h.name.clone();
        let ordered = enumerate_ordered(&h.ops, &bounds);
        let corpus = synthesize(&h.ops, &bounds);
        let cells = ordered.len() * Mode::hardware().len();

        let (oneshot_ms, oneshot) = run_oneshot(&h, &ordered);
        let (j1_ms, j1) = run_engine(&h, &corpus.tests, 1);
        let (j4_ms, j4) = run_engine(&h, &corpus.tests, 4);

        // Every ordered shape's verdicts must equal its canonical
        // twin's: symmetry reduction + lattice inference are cost
        // optimizations, not semantics changes.
        let canonical: BTreeMap<&str, &Vec<CorpusVerdict>> = j1
            .rows
            .iter()
            .map(|r| (r.test.name.as_str(), &r.verdicts))
            .collect();
        for (shape, row) in ordered.iter().zip(&oneshot) {
            let twin = canonicalize(shape);
            let engine_row = canonical[twin.name.as_str()];
            assert_eq!(
                row, engine_row,
                "{name}: verdicts of `{}` differ from its canonical twin `{}`",
                shape.name, twin.name
            );
        }
        for (a, b) in j1.rows.iter().zip(&j4.rows) {
            assert_eq!(a.verdicts, b.verdicts, "{name}: jobs=1 and jobs=4 differ");
        }
        assert_eq!(j1.encodes as usize, j1.sessions, "{name}: jobs=1 encodes");
        assert_eq!(j4.encodes as usize, j4.sessions, "{name}: jobs=4 encodes");
        assert_eq!(
            j1.sessions,
            corpus.tests.len(),
            "{name}: one session per harness"
        );

        let speedup_j1 = oneshot_ms / j1_ms.max(0.001);
        let speedup_j4 = oneshot_ms / j4_ms.max(0.001);
        let speedup = speedup_j1.max(speedup_j4);
        println!(
            "{name:<10} shapes {:>3} -> {:>3} canonical, cells {cells:>4}  oneshot \
             {oneshot_ms:>8.1} ms  engine j1 {j1_ms:>7.1} ms (encodes {}, inferred {})  \
             engine j4 {j4_ms:>7.1} ms  best speedup {speedup:.2}x",
            ordered.len(),
            corpus.tests.len(),
            j1.encodes,
            j1.inferred,
        );
        let mut row = String::new();
        let _ = write!(
            row,
            "    {{\"name\": \"{name}\", \"generated\": {}, \"canonical\": {}, \
             \"cells\": {cells}, \
             \"oneshot\": {{\"wall_ms\": {oneshot_ms:.1}}}, \
             \"engine_jobs1\": {{\"wall_ms\": {j1_ms:.1}, \"sessions\": {}, \
             \"encodes\": {}, \"solved\": {}, \"inferred\": {}}}, \
             \"engine_jobs4\": {{\"wall_ms\": {j4_ms:.1}, \"sessions\": {}, \
             \"encodes\": {}}}, \
             \"speedup\": {speedup:.3}}}",
            ordered.len(),
            corpus.tests.len(),
            j1.sessions,
            j1.encodes,
            j1.queries,
            j1.inferred,
            j4.sessions,
            j4.encodes,
        );
        rows.push(row);
        total_oneshot_ms += oneshot_ms;
        total_engine_ms += j1_ms.min(j4_ms);
        assert!(
            speedup >= 3.0,
            "{name}: the synthesized corpus on the pooled engine must be >= 3x faster \
             than the per-harness one-shot path (got {speedup:.2}x)"
        );
    }

    let overall = total_oneshot_ms / total_engine_ms.max(0.001);
    println!("overall speedup {overall:.2}x (target 5x)");
    assert!(
        overall >= 5.0,
        "synthesized-corpus throughput on the pooled engine must be >= 5x the \
         per-harness one-shot path overall (got {overall:.2}x)"
    );

    cf_bench::write_record(
        "BENCH_synth.json",
        "synth_corpus_throughput",
        &[
            ("target_speedup", "5.0".into()),
            (
                "overall",
                format!(
                    "{{\"oneshot_wall_ms\": {total_oneshot_ms:.1}, \
                     \"engine_wall_ms\": {total_engine_ms:.1}, \"speedup\": {overall:.3}}}"
                ),
            ),
        ],
        &rows,
    );
}
