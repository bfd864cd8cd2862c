//! The four workloads, each split into a timed set-up (load and lower
//! sources, compile specs, synthesize shapes, build harnesses) and a
//! timed run (every query to the last verdict), driven through the
//! repository's public API only.
//!
//! The seed permutes the order in which inputs are submitted; the input
//! set, and so the expected verdicts, stay fixed.

use std::path::Path;
use std::time::{Duration, Instant};

use cf_algos::ablation::Subject;
use cf_memmodel::{Mode, ModeSet};
use cf_sat::xorshift::Rng;
use cf_spec::ModelSpec;
use cf_synth::corpus::CorpusEntry;
use cf_synth::{run_corpus, synthesize, CorpusConfig, CorpusReport, SynthBounds};
use checkfence::mutate::{run_mutation_matrix, MatrixConfig, MutationPlan};
use checkfence::{mine_reference, CheckConfig, Engine, EngineConfig, Harness, Query, TestSpec};

use crate::answers::Cell;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `cf_synth::synthesize` over treiber (threads ≤ 2, ops ≤ 2,
    /// init ≤ 1), then `run_corpus` over the four hardware models.
    SynthTreiber,
    /// The five Table 1 implementations (fenced) × `cf_bench::workloads()`:
    /// reference mining plus one inclusion query each on Relaxed, the
    /// queries in one engine batch.
    PaperFig10,
    /// `corpus/c11` with the `c11.cfm` and `rc11.cfm` columns.
    C11Corpus,
    /// The Fig. 11 mutant matrices of treiber, ms2, msn and lazylist
    /// under the five built-in models.
    AblateMatrix,
}

/// How much of a workload to run: the full input set, or a tiny slice
/// of it for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's input set.
    Full,
    /// A few cells of it.
    Tiny,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SynthTreiber,
        Workload::PaperFig10,
        Workload::C11Corpus,
        Workload::AblateMatrix,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SynthTreiber => "synth-treiber",
            Workload::PaperFig10 => "paper-fig10",
            Workload::C11Corpus => "c11-corpus",
            Workload::AblateMatrix => "ablate-matrix",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads: the sweeps that parallelize across sessions or
    /// shards use two, never more than the host has.
    pub fn jobs(self, nproc: usize) -> usize {
        match self {
            Workload::SynthTreiber | Workload::AblateMatrix => nproc.clamp(1, 2),
            Workload::PaperFig10 | Workload::C11Corpus => 1,
        }
    }
}

/// Set-up time split by the layer it ran in.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Mini-C lowering: harness builds and corpus loading.
    pub minic: Duration,
    /// `.cfm` compilation.
    pub spec: Duration,
    /// Test-shape synthesis.
    pub synth: Duration,
    /// Everything else before the first query (mutation planning).
    pub other: Duration,
}

enum Inputs {
    Synth {
        harness: Box<Harness>,
        tests: Vec<TestSpec>,
    },
    Fig10 {
        cells: Vec<cf_bench::Workload>,
    },
    C11 {
        entries: Vec<CorpusEntry>,
        specs: Vec<ModelSpec>,
    },
    Ablate {
        /// Each subject with its mutation plan and the toggle-instrumented
        /// harness the matrix engine checks (the replay target).
        subjects: Vec<(Subject, MutationPlan, Harness)>,
    },
}

/// A workload after set-up: its inputs, in seed order.
pub struct Prepared {
    /// Worker threads it runs with.
    pub jobs: usize,
    /// Canonical tests synthesized (0 outside `synth-treiber`).
    pub canonical_tests: usize,
    /// How long set-up took.
    pub setup: SetupTimes,
    inputs: Inputs,
}

/// Ladder bookkeeping of the corpus runner, summed over its calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ladder {
    /// Cells in the verdict grids.
    pub cells: usize,
    /// Cells a query answered.
    pub solved: usize,
    /// Cells filled by model-lattice inference.
    pub inferred: usize,
    /// Cells filled by static triage.
    pub triaged: usize,
}

/// What one run of a workload produced.
pub struct RunOutput {
    /// Every verdict, as (row, model) cells.
    pub cells: Vec<Cell>,
    /// Corpus-runner ladder counts (zero outside corpus workloads).
    pub ladder: Ladder,
    /// Mutant-matrix cells answered (zero outside `ablate-matrix`).
    pub mutate_cells: usize,
    /// Sessions the engines pooled, summed over engines.
    pub sessions: usize,
}

/// One (harness, test) pair the workload checks, with the model
/// universe its sessions encode.
pub struct Target<'a> {
    /// `harness/test`, as engine trace labels name it.
    pub key: String,
    /// The harness.
    pub harness: &'a Harness,
    /// The test.
    pub test: &'a TestSpec,
    /// Built-in models of the session universe.
    pub modes: ModeSet,
    /// Declarative models of the session universe.
    pub specs: &'a [ModelSpec],
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed();
    out
}

/// Sets a workload up from the sources under `root` (the repository
/// checkout).
///
/// # Errors
///
/// A corpus or `.cfm` file fails to load or compile.
pub fn setup(
    workload: Workload,
    size: Size,
    seed: u64,
    root: &Path,
    nproc: usize,
) -> Result<Prepared, String> {
    let mut rng = Rng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut t = SetupTimes::default();
    let mut canonical_tests = 0;
    let inputs = match workload {
        Workload::SynthTreiber => {
            let harness = timed(&mut t.minic, || {
                cf_algos::treiber::harness(cf_algos::Variant::Fenced)
            });
            let ops = if size == Size::Full { 2 } else { 1 };
            let corpus = timed(&mut t.synth, || {
                synthesize(&harness.ops, &SynthBounds::new(2, ops))
            });
            canonical_tests = corpus.tests.len();
            let mut tests = corpus.tests;
            if size == Size::Tiny {
                tests.truncate(3);
            }
            shuffle(&mut tests, &mut rng);
            Inputs::Synth {
                harness: Box::new(harness),
                tests,
            }
        }
        Workload::PaperFig10 => {
            let mut cells = timed(&mut t.minic, cf_bench::workloads);
            if size == Size::Tiny {
                cells.retain(|w| w.algo.name() == "msn" && w.test.name == "T0");
            }
            shuffle(&mut cells, &mut rng);
            Inputs::Fig10 { cells }
        }
        Workload::C11Corpus => {
            let mut entries = timed(&mut t.minic, || {
                cf_synth::corpus::load_dir(&root.join("corpus/c11"))
            })
            .map_err(|e| format!("loading corpus/c11: {e}"))?;
            if size == Size::Tiny {
                entries.retain(|e| e.path.ends_with("mp.c"));
            }
            let specs = ["c11", "rc11"]
                .into_iter()
                .map(|name| {
                    let path = root.join("specs").join(format!("{name}.cfm"));
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    timed(&mut t.spec, || cf_spec::compile(&text))
                        .map_err(|e| format!("{}: {e}", path.display()))
                })
                .collect::<Result<Vec<_>, String>>()?;
            shuffle(&mut entries, &mut rng);
            for entry in &mut entries {
                shuffle(&mut entry.tests, &mut rng);
            }
            Inputs::C11 { entries, specs }
        }
        Workload::AblateMatrix => {
            let names: &[&str] = if size == Size::Full {
                &cf_algos::ablation::subjects()
            } else {
                &["treiber"]
            };
            let mut subjects = Vec::new();
            for name in names {
                let subject = timed(&mut t.minic, || cf_algos::ablation::subject(name))
                    .ok_or_else(|| format!("unknown ablation subject {name}"))?;
                let plan = timed(&mut t.other, || {
                    MutationPlan::build(&subject.harness.program, &subject.mutation)
                });
                // Named and built as `run_mutation_matrix` builds it.
                let instrumented = Harness {
                    name: format!("{}+mutants", subject.harness.name),
                    program: plan.instrumented.clone(),
                    init_proc: subject.harness.init_proc.clone(),
                    ops: subject.harness.ops.clone(),
                };
                subjects.push((subject, plan, instrumented));
            }
            shuffle(&mut subjects, &mut rng);
            Inputs::Ablate { subjects }
        }
    };
    Ok(Prepared {
        jobs: workload.jobs(nproc),
        canonical_tests,
        setup: t,
        inputs,
    })
}

fn corpus_cells(report: &CorpusReport, harness: &str, out: &mut Vec<Cell>, ladder: &mut Ladder) {
    for row in &report.rows {
        for (model, v) in report.model_names.iter().zip(&row.verdicts) {
            out.push(Cell {
                row: format!("{harness}/{}", row.test.name),
                model: model.clone(),
                verdict: v.cell().to_string(),
                decided: matches!(
                    v,
                    cf_synth::CorpusVerdict::Pass | cf_synth::CorpusVerdict::Fail
                ),
            });
        }
    }
    ladder.cells += report.rows.len() * report.model_names.len();
    ladder.solved += report.queries as usize;
    ladder.inferred += report.inferred;
    ladder.triaged += report.triaged;
}

impl Prepared {
    /// The (harness, test) pairs the workload checks, with their session
    /// universes — what the traced run replays.
    pub fn targets(&self) -> Vec<Target<'_>> {
        let key = |h: &Harness, t: &TestSpec| format!("{}/{}", h.name, t.name);
        match &self.inputs {
            Inputs::Synth { harness, tests } => tests
                .iter()
                .map(|t| Target {
                    key: key(harness, t),
                    harness,
                    test: t,
                    modes: ModeSet::hardware(),
                    specs: &[],
                })
                .collect(),
            Inputs::Fig10 { cells } => cells
                .iter()
                .map(|w| Target {
                    key: key(&w.harness, &w.test),
                    harness: &w.harness,
                    test: &w.test,
                    modes: ModeSet::single(Mode::Relaxed),
                    specs: &[],
                })
                .collect(),
            Inputs::C11 { entries, specs } => entries
                .iter()
                .flat_map(|e| {
                    e.tests.iter().map(move |t| Target {
                        key: key(&e.harness, t),
                        harness: &e.harness,
                        test: t,
                        modes: ModeSet::hardware(),
                        specs,
                    })
                })
                .collect(),
            Inputs::Ablate { subjects } => subjects
                .iter()
                .flat_map(|(s, _, instrumented)| {
                    s.tests.iter().map(move |t| Target {
                        key: key(instrumented, t),
                        harness: instrumented,
                        test: t,
                        modes: ModeSet::all(),
                        specs: &[],
                    })
                })
                .collect(),
        }
    }

    /// Runs the workload once, from the first query to the last verdict.
    pub fn run(&self) -> RunOutput {
        let mut cells = Vec::new();
        let mut ladder = Ladder::default();
        let mut mutate_cells = 0;
        let mut sessions = 0;
        match &self.inputs {
            Inputs::Synth { harness, tests } => {
                let config = CorpusConfig {
                    jobs: self.jobs,
                    ..CorpusConfig::default()
                };
                let report = run_corpus(harness, tests, &config);
                corpus_cells(&report, &harness.name, &mut cells, &mut ladder);
                sessions += report.sessions;
            }
            Inputs::Fig10 { cells: work } => {
                let config = EngineConfig::from_check_config(
                    &CheckConfig::default(),
                    ModeSet::single(Mode::Relaxed),
                )
                .with_jobs(self.jobs);
                let mut engine = Engine::new(config);
                let mut queries = Vec::new();
                let mut rows = Vec::new();
                for w in work {
                    let row = format!("{}/{}", w.algo.name(), w.test.name);
                    match mine_reference(&w.harness, &w.test) {
                        Ok(m) => {
                            queries.push(
                                Query::check_inclusion(&w.harness, &w.test, m.spec)
                                    .on(Mode::Relaxed),
                            );
                            rows.push(row);
                        }
                        Err(e) => cells.push(Cell {
                            row,
                            model: "relaxed".into(),
                            verdict: format!("mining error: {e}"),
                            decided: false,
                        }),
                    }
                }
                for (row, verdict) in rows.into_iter().zip(engine.run_batch(&queries)) {
                    let (verdict, decided) = match verdict {
                        Ok(v) if v.inconclusive().is_some() => ("?".to_string(), false),
                        Ok(v) if v.passed() => ("pass".to_string(), true),
                        Ok(_) => ("FAIL".to_string(), true),
                        Err(e) => (format!("error: {e}"), false),
                    };
                    cells.push(Cell {
                        row,
                        model: "relaxed".into(),
                        verdict,
                        decided,
                    });
                }
                sessions += engine.stats().sessions;
            }
            Inputs::C11 { entries, specs } => {
                let config = CorpusConfig {
                    jobs: self.jobs,
                    specs: specs.clone(),
                    ..CorpusConfig::default()
                };
                for entry in entries {
                    let report = run_corpus(&entry.harness, &entry.tests, &config);
                    corpus_cells(&report, &entry.name, &mut cells, &mut ladder);
                    sessions += report.sessions;
                }
            }
            Inputs::Ablate { subjects } => {
                let config = MatrixConfig {
                    modes: Mode::all().to_vec(),
                    jobs: self.jobs,
                    ..MatrixConfig::default()
                };
                for (subject, plan, _) in subjects {
                    for test in &subject.tests {
                        let prefix = format!("{}/{}", subject.harness.name, test.name);
                        match run_mutation_matrix(&subject.harness, test, plan, &config) {
                            Ok(report) => {
                                cells.extend(matrix_cells(&prefix, &report));
                                mutate_cells += (report.rows.len() + 1) * report.models.len();
                                sessions += report.sessions;
                            }
                            Err(e) => cells.push(Cell {
                                row: prefix,
                                model: "*".into(),
                                verdict: format!("error: {e}"),
                                decided: false,
                            }),
                        }
                    }
                }
            }
        }
        RunOutput {
            cells,
            ladder,
            mutate_cells,
            sessions,
        }
    }
}

/// The cells of one mutant matrix: the unmutated baseline row plus one
/// row per mutant (`harness/test#point description`).
pub fn matrix_cells(prefix: &str, report: &checkfence::mutate::MutationReport) -> Vec<Cell> {
    let cell = |row: String, model: &String, v: &checkfence::mutate::MutantVerdict| Cell {
        row,
        model: model.clone(),
        verdict: v.cell().to_string(),
        decided: !matches!(v, checkfence::mutate::MutantVerdict::Inconclusive(_)),
    };
    let mut out = Vec::new();
    for (model, v) in report.models.iter().zip(&report.baseline) {
        out.push(cell(format!("{prefix}#baseline"), model, v));
    }
    for r in &report.rows {
        for (model, v) in report.models.iter().zip(&r.verdicts) {
            out.push(cell(
                format!("{prefix}#{} {}", r.point, r.description),
                model,
                v,
            ));
        }
    }
    out
}
