//! The end-to-end benchmark of the CheckFence reproduction.
//!
//! One command runs one of four named workloads through the public API
//! for a fixed time, checks every verdict against the workload's
//! committed known answers, and ends with one JSON result line. With
//! `--trace 0` it reports the end-to-end metrics (tracing off); with
//! `--trace 1` it alternates untraced and traced runs and reports the
//! per-layer ledger (see `ledger`). README.md in this directory lists
//! every metric, its unit, and which end-to-end metric it should move
//! on which workload.

#![forbid(unsafe_code)]

pub mod answers;
pub mod host;
pub mod ledger;
pub mod report;
pub mod workloads;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use answers::{Answers, Check};
use report::{median, result_json, Metric};
use workloads::{Prepared, Size, Workload};

/// Command-line arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed for the input submission order.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// `true` for the per-layer (traced) run.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: synth-treiber paper-fig10 c11-corpus ablate-matrix";

/// Parses `--workload NAME --seed N --seconds S --trace 0|1`.
///
/// # Errors
///
/// An unknown flag, a missing or malformed value, or a missing flag.
pub fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (expected 0 or 1)")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The repository checkout the benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one directory below the repository root")
        .to_path_buf()
}

/// Reads and parses a workload's committed known-answer file.
///
/// # Errors
///
/// The file is missing or malformed.
pub fn load_answers(root: &Path, workload: Workload) -> Result<Answers, String> {
    let path = root
        .join("perfbench/answers")
        .join(format!("{}.txt", workload.name()));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Answers::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// What one benchmark invocation measured.
pub struct Outcome {
    /// Human-readable report lines (host facts, then every metric).
    pub lines: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Every verdict matched its known answer and none was missing.
    pub correct: bool,
    /// Cells attempted over all measured runs.
    pub attempted: usize,
    /// Cells failed over all measured runs.
    pub failed: usize,
}

impl Outcome {
    /// The result line.
    pub fn json(&self) -> String {
        result_json(self.correct, self.attempted, self.failed, &self.metrics)
    }
}

fn seconds_list(values: &[f64]) -> String {
    let list: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    list.join(" ")
}

/// Set-up is short and the host's speed drifts, so set-up repeats in
/// bursts spread over the whole run: one before the first measured run
/// (at least [`SETUP_MIN_REPS`] reps) and one after every run, each
/// lasting at least [`SETUP_BURST_SECONDS`]. The median rep is reported.
const SETUP_MIN_REPS: usize = 7;
const SETUP_BURST_SECONDS: f64 = 0.1;
const SETUP_BURST_MAX_REPS: usize = 1000;

/// Every set-up rep of one benchmark invocation.
#[derive(Default)]
struct SetupSamples {
    totals: Vec<f64>,
    split: Vec<workloads::SetupTimes>,
}

impl SetupSamples {
    /// Runs one burst of set-ups; returns the last preparation.
    fn burst(
        &mut self,
        args: &Args,
        size: Size,
        root: &Path,
        min_reps: usize,
    ) -> Result<Prepared, String> {
        let start = Instant::now();
        let mut reps = 0;
        loop {
            let t0 = Instant::now();
            let p = workloads::setup(args.workload, size, args.seed, root, host::nproc())?;
            self.totals.push(t0.elapsed().as_secs_f64());
            self.split.push(p.setup);
            reps += 1;
            if reps >= SETUP_BURST_MAX_REPS
                || (reps >= min_reps && start.elapsed().as_secs_f64() >= SETUP_BURST_SECONDS)
            {
                return Ok(p);
            }
        }
    }

    /// Median set-up time, in seconds.
    fn median(&self) -> f64 {
        median(&self.totals)
    }

    /// Median set-up time of each layer.
    fn median_split(&self) -> workloads::SetupTimes {
        let med = |f: fn(&workloads::SetupTimes) -> Duration| {
            Duration::from_secs_f64(median(
                &self
                    .split
                    .iter()
                    .map(|s| f(s).as_secs_f64())
                    .collect::<Vec<_>>(),
            ))
        };
        workloads::SetupTimes {
            minic: med(|s| s.minic),
            spec: med(|s| s.spec),
            synth: med(|s| s.synth),
            other: med(|s| s.other),
        }
    }
}

/// Runs the benchmark: set-up, then measured runs for `args.seconds`.
///
/// # Errors
///
/// Set-up failed, the known-answer file is unreadable, or `/proc` is
/// unavailable.
pub fn bench(args: &Args, size: Size, root: &Path) -> Result<Outcome, String> {
    let answers = load_answers(root, args.workload)?;
    let mut setups = SetupSamples::default();
    let prepared = setups.burst(args, size, root, SETUP_MIN_REPS)?;
    let complete = size == Size::Full;
    let mut total = Check::default();
    let mut absorb = |check: Check| {
        total.attempted += check.attempted;
        total.checked += check.checked;
        total.failed += check.failed;
        total.wrong.extend(check.wrong);
        total.missing.extend(check.missing);
    };
    let nproc = host::nproc();
    let mut lines = vec![format!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} jobs={} schema_version={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        prepared.jobs,
        cf_trace::SCHEMA_VERSION
    )];
    let start = Instant::now();
    let metrics;
    let mut cells_per_run = 0;
    if args.trace {
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        let mut last = None;
        while traced.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
            let t0 = Instant::now();
            let out = prepared.run();
            untraced.push(t0.elapsed().as_secs_f64());
            absorb(answers.check(&out.cells, complete));
            cf_trace::enable();
            let t0 = Instant::now();
            let out = prepared.run();
            traced.push(t0.elapsed().as_secs_f64());
            cf_trace::disable();
            let events = cf_trace::take();
            absorb(answers.check(&out.cells, complete));
            cells_per_run = out.cells.len();
            last = Some((events, out));
            setups.burst(args, size, root, 1)?;
        }
        let (events, output) = last.expect("one traced run");
        let (layer, matched) = ledger::layer_metrics(&ledger::Traced {
            prepared: &prepared,
            events: &events,
            output: &output,
            wall_s: median(&traced),
            run_wall_s: *traced.last().expect("one traced run"),
            untraced_wall_s: median(&untraced),
            setup: setups.median_split(),
        });
        if !matched {
            total
                .wrong
                .push("the replay did not reproduce every traced encoding".into());
        }
        let ratio = layer
            .iter()
            .find(|m| m.name == "replay.encode_ratio")
            .map_or(1.0, |m| m.value);
        if !(1.0 / ledger::REPLAY_TOLERANCE..=ledger::REPLAY_TOLERANCE).contains(&ratio) {
            lines.push(format!(
                "NOTE replayed range + encode time is {ratio:.2}x the traced encode_us \
                 (tolerance {}x either way)",
                ledger::REPLAY_TOLERANCE
            ));
        }
        lines.push(format!(
            "runs: {} untraced + {} traced, {cells_per_run} cells each; wall_s per run: \
             untraced {}, traced {}",
            untraced.len(),
            traced.len(),
            seconds_list(&untraced),
            seconds_list(&traced)
        ));
        metrics = layer;
    } else {
        let (mut walls, mut cpus) = (Vec::new(), Vec::new());
        while walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
            let c0 = host::cpu_seconds()?;
            let t0 = Instant::now();
            let out = prepared.run();
            walls.push(t0.elapsed().as_secs_f64());
            cpus.push(host::cpu_seconds()? - c0);
            absorb(answers.check(&out.cells, complete));
            cells_per_run = out.cells.len();
            setups.burst(args, size, root, 1)?;
        }
        lines.push(format!(
            "runs: {}, {cells_per_run} cells each; wall_s per run: {}",
            walls.len(),
            seconds_list(&walls)
        ));
        let ok_frac = 1.0 - total.failed as f64 / total.attempted.max(1) as f64;
        metrics = vec![
            Metric {
                name: "setup_s",
                value: setups.median(),
                unit: "s",
            },
            Metric {
                name: "wall_s",
                value: median(&walls),
                unit: "s",
            },
            Metric {
                name: "cpu_s",
                value: median(&cpus),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: host::peak_rss_mb()?,
                unit: "MiB",
            },
            Metric {
                name: "ok_frac",
                value: ok_frac,
                unit: "frac",
            },
        ];
    }
    lines.push(format!(
        "cells: {} attempted, {} checked against known answers, {} failed ({} wrong, {} missing)",
        total.attempted,
        total.checked,
        total.failed,
        total.wrong.len(),
        total.missing.len()
    ));
    for w in total.wrong.iter().chain(&total.missing).take(20) {
        lines.push(format!("MISMATCH {w}"));
    }
    for m in &metrics {
        lines.push(format!("{:<24} {:>14.4} {}", m.name, m.value, m.unit));
    }
    Ok(Outcome {
        lines,
        metrics,
        correct: total.correct(),
        attempted: total.attempted,
        failed: total.failed,
    })
}
