//! Batch-checking a corpus on the query engine.
//!
//! [`run_corpus`] answers a whole corpus against one harness on one
//! [`Engine`] over the configured model universe: the reference
//! specification is mined once per test (fanned out across `jobs`
//! worker threads), every (test, model) cell becomes one [`Query`] on
//! the test's session — so each test encodes exactly once no matter
//! how many models the universe holds — and the verdict grid is folded
//! into a Fig. 5-style coverage report.
//!
//! **The model-lattice ladder** cuts the solved cell count using the
//! §2.3.3 hierarchy: each model of the chain Serial → SC → TSO → PSO →
//! Relaxed admits a superset of its predecessor's executions, so an
//! inclusion check that *passes* on a weaker model must pass on every
//! stronger one. The runner solves the built-in columns weakest-first
//! (one engine batch per rung, then one batch for the spec columns)
//! and fills the stronger cells of a passing test by inference instead
//! of solving them — on an all-pass corpus that is one SAT query per
//! harness for the whole built-in lattice. Failures, diverging bounds
//! and errors infer nothing; those cells are solved individually, so
//! the reported grid is exactly what cell-by-cell solving would
//! report. Declarative spec columns have no known strength relation
//! and are always solved.
//!
//! **A test's session lives while later batches ask about it.** Each
//! batch runs through [`Engine::run_batch_keeping`]: after a rung, a
//! test's session stays pooled only if spec columns follow, or if the
//! test did not pass and a later rung will ask about it again; the
//! spec-column batch keeps none. So a sweep holds the encodings of the
//! tests in flight, not of the whole corpus, and no test encodes twice.
//!
//! **Subsumption pruning** shrinks the corpus after checking: tests are
//! visited in corpus order, each summarized by its *failure signature*
//! (the set of models on which the inclusion check fails), and a test
//! is pruned when its signature is a subset of an already-kept test's
//! signature — it demonstrates nothing a smaller or earlier harness did
//! not already demonstrate. Tests that could not be fully answered
//! (diverging bounds, mining errors, budget exhaustion) are always
//! kept: their coverage is unknown, so they are incomparable.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use checkfence::{
    mine_reference, run_indexed, CheckError, Engine, Harness, ModelSel, ObsSet, Query, TestSpec,
};

/// Configuration of a corpus run: the sweep configuration the mutant
/// matrix uses too.
pub use checkfence::mutate::MatrixConfig as CorpusConfig;

/// The verdict of one (test, model) cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CorpusVerdict {
    /// Every execution's observation is serializable.
    Pass,
    /// A counterexample exists.
    Fail,
    /// The lazy loop bounds would not converge on this model.
    Diverged,
    /// The cell could not be answered (infrastructure error).
    Error(String),
    /// The cell ran out of resources (budget, deadline, or a crashed
    /// worker) before deciding.
    Inconclusive,
}

impl CorpusVerdict {
    /// Fixed-width cell text for the coverage table.
    pub fn cell(&self) -> &'static str {
        match self {
            CorpusVerdict::Pass => "pass",
            CorpusVerdict::Fail => "FAIL",
            CorpusVerdict::Diverged => "div?",
            CorpusVerdict::Error(_) => "err!",
            CorpusVerdict::Inconclusive => "?",
        }
    }
}

/// One corpus test's row of the coverage grid.
#[derive(Clone, Debug)]
pub struct CorpusRow {
    /// The test.
    pub test: TestSpec,
    /// Size of the mined reference specification (0 when mining
    /// failed).
    pub observations: usize,
    /// Why mining failed, if it did (e.g. a serial bug).
    pub mine_error: Option<String>,
    /// Per-model verdicts, in [`CorpusReport::model_names`] order.
    pub verdicts: Vec<CorpusVerdict>,
    /// Provenance summaries parallel to `verdicts` — `Some` only for
    /// cells a solver actually answered under
    /// [`CorpusConfig::provenance`] (inferred cells stay `None`).
    pub explains: Vec<Option<String>>,
    /// `false` when subsumption pruning dropped this test from the
    /// shrunk corpus.
    pub kept: bool,
}

impl CorpusRow {
    /// Indices of the models this row fails on (its failure signature).
    pub fn fail_set(&self) -> BTreeSet<usize> {
        self.verdicts
            .iter()
            .enumerate()
            .filter(|(_, v)| matches!(v, CorpusVerdict::Fail))
            .map(|(i, _)| i)
            .collect()
    }

    /// `true` when some cell could not be fully answered.
    pub fn incomplete(&self) -> bool {
        self.mine_error.is_some()
            || self.verdicts.iter().any(|v| {
                matches!(
                    v,
                    CorpusVerdict::Diverged | CorpusVerdict::Error(_) | CorpusVerdict::Inconclusive
                )
            })
    }

    /// Names of the models this row fails on.
    pub fn failing_models<'n>(&self, names: &'n [String]) -> Vec<&'n str> {
        self.fail_set()
            .into_iter()
            .map(|i| names[i].as_str())
            .collect()
    }
}

/// The outcome of [`run_corpus`]: the verdict grid plus the engine's
/// amortization counters.
#[derive(Clone, Debug)]
pub struct CorpusReport {
    /// Display names of the model columns (modes first, then specs).
    pub model_names: Vec<String>,
    /// Per-test rows, in corpus order.
    pub rows: Vec<CorpusRow>,
    /// Sessions the engine built, one per test that reached a model
    /// column (each lives only while later batches ask about its test,
    /// so this is not how many were alive at once), plus one per later
    /// batch on a test whose session crashed twice and was discarded.
    pub sessions: usize,
    /// CNF encodings built (== `sessions` unless lazy unrolling grew a
    /// bound).
    pub encodes: u32,
    /// Queries answered by the engine.
    pub queries: u32,
    /// Built-in cells filled by model-lattice inference instead of a
    /// SAT query (a pass on a weaker model implies a pass on every
    /// stronger one).
    pub inferred: usize,
    /// Always 0: every built-in cell is solved or lattice-inferred.
    /// The field stays so that code reading it keeps compiling.
    pub triaged: usize,
    /// End-to-end wall-clock time (mining + checking).
    pub elapsed: Duration,
}

impl CorpusReport {
    /// Rows surviving subsumption pruning.
    pub fn kept(&self) -> usize {
        self.rows.iter().filter(|r| r.kept).count()
    }

    /// Rows folded away by subsumption pruning.
    pub fn pruned(&self) -> usize {
        self.rows.len() - self.kept()
    }

    /// Failing-test count per model column.
    pub fn failing_per_model(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.model_names.len()];
        for row in &self.rows {
            for i in row.fail_set() {
                out[i] += 1;
            }
        }
        out
    }

    /// The Fig. 5-style coverage table: per-model failure counts and
    /// the kept rows' verdict grid. A pure function of the verdicts —
    /// byte-identical at any job count (timings live in
    /// [`CorpusReport::summary`]).
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "coverage — {} harnesses checked, {} kept, {} pruned (subsumption)",
            self.rows.len(),
            self.kept(),
            self.pruned(),
        );
        let _ = writeln!(out, "  {:<10} {:>7} {:>9}", "model", "failing", "diverged");
        let failing = self.failing_per_model();
        let mut diverged = vec![0usize; self.model_names.len()];
        for row in &self.rows {
            for (i, v) in row.verdicts.iter().enumerate() {
                if matches!(v, CorpusVerdict::Diverged) {
                    diverged[i] += 1;
                }
            }
        }
        for (i, name) in self.model_names.iter().enumerate() {
            let _ = writeln!(out, "  {name:<10} {:>7} {:>9}", failing[i], diverged[i]);
        }
        let w = self
            .rows
            .iter()
            .filter(|r| r.kept)
            .map(|r| r.test.name.len())
            .chain(["harness".len()])
            .max()
            .unwrap_or(8);
        let _ = writeln!(out, "kept harnesses:");
        let mut header = format!("  {:<w$} {:>4}", "harness", "obs");
        for name in &self.model_names {
            let _ = write!(header, " {name:<8}");
        }
        let _ = writeln!(out, "{}", header.trim_end());
        for row in self.rows.iter().filter(|r| r.kept) {
            let mut line = format!("  {:<w$} {:>4}", row.test.name, row.observations);
            for v in &row.verdicts {
                let _ = write!(line, " {:<8}", v.cell());
            }
            if let Some(e) = &row.mine_error {
                let _ = write!(line, " mining: {e}");
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Renders the per-cell provenance report: one line per solved
    /// cell naming the assumptions its verdict leaned on. Inferred
    /// cells are omitted — their verdicts were copied, not solved, so
    /// they have no core. Like [`CorpusReport::table`] this is a pure
    /// function of the verdict grid: the ladder schedule is
    /// deterministic, so `--explain` output compares bit for bit across
    /// job counts. Empty without [`CorpusConfig::provenance`].
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            for ((model, v), e) in self
                .model_names
                .iter()
                .zip(&row.verdicts)
                .zip(&row.explains)
            {
                if let Some(summary) = e {
                    let _ = writeln!(
                        out,
                        "  {} @ {model} [{}]: {summary}",
                        row.test.name,
                        v.cell()
                    );
                }
            }
        }
        if out.is_empty() {
            return out;
        }
        format!("provenance — solved cells (inferred cells carry no core)\n{out}")
    }

    /// The timing/amortization line (deliberately not part of
    /// [`CorpusReport::table`], so tables compare bit for bit across
    /// job counts).
    pub fn summary(&self) -> String {
        format!(
            "{} cells: {} solved, {} inferred from the model lattice; \
             sessions {}  encodes {}  wall {:.2?}",
            self.rows.len() * self.model_names.len(),
            self.queries,
            self.inferred,
            self.sessions,
            self.encodes,
            self.elapsed
        )
    }
}

/// Checks every test of a corpus against one harness across the
/// configured model universe, on one engine: one batch per ladder rung,
/// then one for the spec columns.
///
/// Per-test problems (serial bugs found while mining, diverging loop
/// bounds, budget exhaustion) land in the affected row instead of
/// aborting the run, so a synthesized corpus always yields a complete
/// coverage report.
pub fn run_corpus(harness: &Harness, tests: &[TestSpec], config: &CorpusConfig) -> CorpusReport {
    let t0 = Instant::now();
    cf_trace::emit("corpus_start", || {
        vec![
            ("harness", cf_trace::s(harness.name.clone())),
            ("tests", cf_trace::u(tests.len() as u64)),
            (
                "models",
                cf_trace::u((config.modes.len() + config.specs.len()) as u64),
            ),
        ]
    });
    let (model_names, sels): (Vec<String>, Vec<ModelSel>) = config.models().into_iter().unzip();

    // Mine each test's reference specification once, in parallel.
    let mined: Vec<Result<ObsSet, String>> = run_indexed(config.jobs, tests.len(), |i| {
        mine_reference(harness, &tests[i])
            .map(|m| m.spec)
            .map_err(|e| e.to_string())
    });

    cf_trace::emit("mining_done", || {
        vec![
            (
                "mined",
                cf_trace::u(mined.iter().filter(|r| r.is_ok()).count() as u64),
            ),
            (
                "failed",
                cf_trace::u(mined.iter().filter(|r| r.is_err()).count() as u64),
            ),
        ]
    });

    // Share each mined spec across every query of its test.
    let specs: Vec<Option<std::sync::Arc<ObsSet>>> = mined
        .iter()
        .map(|r| r.as_ref().ok().cloned().map(std::sync::Arc::new))
        .collect();

    // The engine builds one session per test, so each test encodes once
    // for the whole model universe; the grid is then filled in ladder
    // rounds, weakest built-in model first, inferring the stronger
    // cells of every pass (see the module docs for why that is sound).
    // A session is dropped as soon as no later batch asks about its
    // test.
    let mut engine = Engine::new(config.engine_config());
    let mut grids: Vec<Vec<Option<CorpusVerdict>>> = vec![vec![None; sels.len()]; tests.len()];
    let mut explains: Vec<Vec<Option<String>>> = vec![vec![None; sels.len()]; tests.len()];
    let mut inferred = 0usize;

    let convert = |verdict: Result<checkfence::Verdict, CheckError>| match verdict {
        Ok(v) => {
            if v.inconclusive().is_some() {
                // Undecided, not failed — and never a ladder seed:
                // nothing can be inferred from a cell that proved
                // nothing.
                CorpusVerdict::Inconclusive
            } else if v.passed() {
                CorpusVerdict::Pass
            } else {
                CorpusVerdict::Fail
            }
        }
        Err(CheckError::BoundsDiverged { .. }) => CorpusVerdict::Diverged,
        Err(CheckError::Exhausted(_)) => CorpusVerdict::Inconclusive,
        Err(e) => CorpusVerdict::Error(e.to_string()),
    };

    // Built-in columns, weakest model first (the §2.3.3 chain is
    // totally ordered, so this sort is unambiguous).
    let mut ladder: Vec<usize> = (0..config.modes.len()).collect();
    ladder.sort_by(|&a, &b| {
        let (ma, mb) = (config.modes[a], config.modes[b]);
        if ma == mb {
            std::cmp::Ordering::Equal
        } else if ma.at_most_as_strong_as(mb) {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        }
    });
    let specs_follow = !config.specs.is_empty();
    for (rung, &col) in ladder.iter().enumerate() {
        let mode = config.modes[col];
        // A later rung asks about this round's row again unless the row
        // passed here, which fills every stronger cell; only a repeat
        // of this column's mode is left unfilled by a pass.
        let later = &ladder[rung + 1..];
        let keep = |answers: &[&Result<checkfence::Verdict, CheckError>]| {
            let passed = answers.iter().all(|r| matches!(r, Ok(v) if v.passed()));
            specs_follow || later.iter().any(|&c| !passed || config.modes[c] == mode)
        };
        let mut round_rows: Vec<usize> = Vec::new();
        let mut queries: Vec<Query> = Vec::new();
        for (row, (test, spec)) in tests.iter().zip(&specs).enumerate() {
            let Some(spec) = spec else { continue };
            if grids[row][col].is_some() {
                continue;
            }
            round_rows.push(row);
            queries.push(Query::check_inclusion(harness, test, spec.clone()).on(mode));
        }
        cf_trace::emit("ladder_round", || {
            vec![
                ("model", cf_trace::s(mode.name())),
                ("queries", cf_trace::u(queries.len() as u64)),
            ]
        });
        let verdicts = engine.run_batch_keeping(&queries, keep);
        for (row, verdict) in round_rows.into_iter().zip(verdicts) {
            if let Ok(v) = &verdict {
                // Capture the provenance summary before `convert`
                // consumes the verdict; lattice-inferred copies made
                // below deliberately carry none — no solve ran for
                // those cells.
                explains[row][col] = v.provenance.as_ref().map(|p| p.summary());
            }
            let v = convert(verdict);
            if v == CorpusVerdict::Pass {
                // Every stronger built-in model admits a subset of this
                // model's executions: the check passes there too.
                for (other, &m) in config.modes.iter().enumerate() {
                    if grids[row][other].is_none() && mode.at_most_as_strong_as(m) && m != mode {
                        grids[row][other] = Some(CorpusVerdict::Pass);
                        inferred += 1;
                    }
                }
            }
            grids[row][col] = Some(v);
        }
    }

    // Declarative spec columns: no strength relation, always solved.
    let mut spec_rows: Vec<(usize, usize)> = Vec::new();
    let mut queries: Vec<Query> = Vec::new();
    for (row, (test, spec)) in tests.iter().zip(&specs).enumerate() {
        let Some(spec) = spec else { continue };
        for (i, &sel) in sels.iter().enumerate().skip(config.modes.len()) {
            spec_rows.push((row, i));
            queries.push(Query::check_inclusion(harness, test, spec.clone()).on_model(sel));
        }
    }
    cf_trace::emit("spec_columns", || {
        vec![("queries", cf_trace::u(queries.len() as u64))]
    });
    let verdicts = engine.run_batch_keeping(&queries, |_| false);
    for ((row, col), verdict) in spec_rows.into_iter().zip(verdicts) {
        if let Ok(v) = &verdict {
            explains[row][col] = v.provenance.as_ref().map(|p| p.summary());
        }
        grids[row][col] = Some(convert(verdict));
    }

    let grids: Vec<Vec<CorpusVerdict>> = grids
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|v| v.unwrap_or_else(|| CorpusVerdict::Error("unanswered".into())))
                .collect()
        })
        .collect();

    // Fold into rows, then prune by failure-signature subsumption.
    let mut rows: Vec<CorpusRow> = tests
        .iter()
        .zip(mined)
        .zip(grids.into_iter().zip(explains))
        .map(|((test, spec), (verdicts, explains))| CorpusRow {
            test: test.clone(),
            observations: spec.as_ref().map_or(0, ObsSet::len),
            mine_error: spec.err(),
            verdicts,
            explains,
            kept: true,
        })
        .collect();
    let mut kept_signatures: Vec<BTreeSet<usize>> = Vec::new();
    for row in &mut rows {
        if row.incomplete() {
            continue; // unknown coverage: incomparable, always kept.
        }
        let sig = row.fail_set();
        if kept_signatures.iter().any(|k| sig.is_subset(k)) {
            row.kept = false;
        } else {
            kept_signatures.push(sig);
        }
    }

    let stats = engine.stats();
    cf_trace::emit("corpus_done", || {
        vec![
            ("queries", cf_trace::u(u64::from(stats.queries))),
            ("inferred", cf_trace::u(inferred as u64)),
            ("corpus_us", cf_trace::u(t0.elapsed().as_micros() as u64)),
        ]
    });
    cf_trace::emit("pool_stats", || {
        vec![
            ("sessions", cf_trace::u(stats.sessions as u64)),
            ("encodes", cf_trace::u(u64::from(stats.encodes))),
        ]
    });
    CorpusReport {
        model_names,
        rows,
        sessions: stats.sessions,
        encodes: stats.encodes,
        queries: stats.queries,
        inferred,
        triaged: 0,
        elapsed: t0.elapsed(),
    }
}
