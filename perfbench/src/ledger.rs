//! The per-layer ledger of a traced run, measured from outside the
//! program: counters come from the `cf-trace` events the engine already
//! emits, and the layers no event times on its own (symbolic execution,
//! range analysis, CNF encoding, cycle analysis) are replayed here by
//! calling their public entry points on the exact keys the run encoded.
//!
//! The replay proves it measures the same work: every replayed encoding
//! must reproduce the traced `encode` event's variable and clause counts
//! bit for bit, and its range + encode time is set against the trace's
//! own `encode_us` for the same events.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cf_memmodel::Mode;
use cf_trace::Event;
use checkfence::{analyze, execute, CheckConfig, Encoding, LoopBounds, ModelSel, SessionConfig};

use crate::report::Metric;
use crate::workloads::{Prepared, RunOutput, SetupTimes, Target};

/// Replayed range + encode time should agree with the trace's
/// `encode_us` within this factor either way. Outside it the run prints
/// a note but stays correct: the replay runs after the workload, and on
/// a shared host the machine's speed drifts between the two by more
/// than the layers' own differences. The exact variable and clause
/// match is what proves the replay does the engine's work.
pub const REPLAY_TOLERANCE: f64 = 1.5;

/// A traced run of a workload, ready to be split into layers.
pub struct Traced<'a> {
    /// The workload's inputs.
    pub prepared: &'a Prepared,
    /// Events of one traced run, in canonical order.
    pub events: &'a [Event],
    /// What that run produced.
    pub output: &'a RunOutput,
    /// Wall seconds of traced runs (median).
    pub wall_s: f64,
    /// Wall seconds of the traced run whose events these are: the base
    /// of the shares of its own time.
    pub run_wall_s: f64,
    /// Wall seconds of untraced runs of the same process (median).
    pub untraced_wall_s: f64,
    /// Set-up time split (median set-up).
    pub setup: SetupTimes,
}

/// Parsed coordinates of an engine query lane label
/// (`kind harness/test@model+f1+t2`).
struct Lane<'l> {
    key: &'l str,
    model: &'l str,
    fences: Vec<u32>,
    toggles: Vec<u32>,
}

fn lane(label: &str) -> Option<Lane<'_>> {
    let (_, rest) = label.split_once(' ')?;
    let (key, tail) = rest.rsplit_once('@')?;
    let mut parts = tail.split('+');
    let model = parts.next()?;
    let mut fences = Vec::new();
    let mut toggles = Vec::new();
    for p in parts {
        if let Some(n) = p.strip_prefix('f') {
            fences.push(n.parse().ok()?);
        } else if let Some(n) = p.strip_prefix('t') {
            toggles.push(n.parse().ok()?);
        }
    }
    Some(Lane {
        key,
        model,
        fences,
        toggles,
    })
}

fn model_sel(name: &str) -> Option<ModelSel> {
    if let Some(i) = name.strip_prefix("spec#") {
        return i.parse().ok().map(ModelSel::Spec);
    }
    Mode::all()
        .into_iter()
        .find(|m| m.name() == name)
        .map(ModelSel::Builtin)
}

fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

/// One replayed encoding.
#[derive(Clone, Copy)]
struct Replayed {
    symexec_ms: f64,
    range_ms: f64,
    encode_ms: f64,
    accesses: usize,
}

/// Totals of the replay, summed over the traced encode events it
/// matched.
#[derive(Default)]
struct Replay {
    symexec_ms: f64,
    range_ms: f64,
    encode_ms: f64,
    accesses: usize,
    matched: usize,
    traced_encode_ms: f64,
}

/// Traced encodings of one key, as (vars, clauses, encode_us).
type Shapes = Vec<(u64, u64, u64)>;

/// Re-runs symbolic execution, range analysis and encoding for every
/// key the trace encoded, on as many threads as the workload ran, so
/// the replayed encodes share the cores the way the engine's did.
/// Returns the totals and the number of traced encode events.
fn replay(targets: &[Target<'_>], events: &[Event], jobs: usize) -> (Replay, usize) {
    let mut encodes: BTreeMap<&str, Shapes> = BTreeMap::new();
    let mut grows: BTreeMap<&str, Vec<Lane<'_>>> = BTreeMap::new();
    let mut total = 0;
    for e in events {
        match e.kind {
            "encode" => {
                total += 1;
                if let Some(l) = lane(&e.label) {
                    encodes.entry(l.key).or_default().push((
                        e.get_u64("vars").unwrap_or(0),
                        e.get_u64("clauses").unwrap_or(0),
                        e.get_u64("encode_us").unwrap_or(0),
                    ));
                }
            }
            "bound_grow" => {
                if let Some(l) = lane(&e.label) {
                    grows.entry(l.key).or_default().push(l);
                }
            }
            _ => {}
        }
    }
    let next = AtomicUsize::new(0);
    let parts: Mutex<Vec<Replay>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..jobs.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(target) = targets.get(i) else { break };
                let Some(traced) = encodes.get(target.key.as_str()) else {
                    continue;
                };
                let grows = grows
                    .get(target.key.as_str())
                    .map_or(&[][..], Vec::as_slice);
                let part = replay_target(target, traced, grows);
                parts.lock().expect("no replay worker panicked").push(part);
            });
        }
    });
    let mut out = Replay::default();
    for p in parts.into_inner().expect("replay workers joined") {
        out.symexec_ms += p.symexec_ms;
        out.range_ms += p.range_ms;
        out.encode_ms += p.encode_ms;
        out.accesses += p.accesses;
        out.matched += p.matched;
        out.traced_encode_ms += p.traced_encode_ms;
    }
    (out, total)
}

/// Replays one key, growing loop bounds the way its session did: a
/// `bound_grow` event in a query lane is replayed as that query's
/// overflow solve under the same model, fence and toggle assumptions.
/// Every traced encoding the replay reproduces exactly (same variable
/// and clause counts) is charged the replayed times.
fn replay_target(target: &Target<'_>, traced: &Shapes, mut grows: &[Lane<'_>]) -> Replay {
    let config = SessionConfig::from_check_config(&CheckConfig::default(), target.modes);
    let mut bounds = LoopBounds::new();
    let mut done: BTreeMap<(u64, u64), Replayed> = BTreeMap::new();
    loop {
        let Some((shape, mut enc, r)) = encode_once(target, &config, &bounds) else {
            break;
        };
        done.insert(shape, r);
        if traced.iter().all(|(v, c, _)| done.contains_key(&(*v, *c))) {
            break;
        }
        let Some((grow, rest)) = grows.split_first() else {
            break;
        };
        grows = rest;
        let Some(keys) = overflow_keys(&mut enc, grow) else {
            break;
        };
        for k in keys {
            *bounds.entry(k).or_insert(1) += 1;
        }
    }
    let mut out = Replay::default();
    for (v, c, us) in traced {
        if let Some(r) = done.get(&(*v, *c)) {
            out.symexec_ms += r.symexec_ms;
            out.range_ms += r.range_ms;
            out.encode_ms += r.encode_ms;
            out.accesses += r.accesses;
            out.matched += 1;
            out.traced_encode_ms += ms(*us);
        }
    }
    out
}

fn encode_once(
    target: &Target<'_>,
    config: &SessionConfig,
    bounds: &LoopBounds,
) -> Option<((u64, u64), Encoding, Replayed)> {
    let t0 = Instant::now();
    let sx = execute(target.harness, target.test, bounds, config.spin_bound).ok()?;
    let t1 = Instant::now();
    let range = analyze(&sx, config.range_analysis);
    let t2 = Instant::now();
    let enc = Encoding::build_full(
        &sx,
        &range,
        target.modes,
        target.specs,
        config.order_encoding,
        false,
    );
    let t3 = Instant::now();
    let shape = (enc.cnf.num_vars() as u64, enc.cnf.num_clauses());
    let r = Replayed {
        symexec_ms: (t1 - t0).as_secs_f64() * 1e3,
        range_ms: (t2 - t1).as_secs_f64() * 1e3,
        encode_ms: (t3 - t2).as_secs_f64() * 1e3,
        accesses: sx.events.len(),
    };
    Some((shape, enc, r))
}

/// The session's overflow query: can an execution under the lane's
/// assumptions leave the current loop bounds? Returns the loops to grow.
fn overflow_keys(enc: &mut Encoding, grow: &Lane<'_>) -> Option<Vec<String>> {
    if enc.exceeded.is_empty() {
        return None;
    }
    let mut asm = enc.model_assumptions(model_sel(grow.model)?);
    for (site, act) in &enc.fence_acts {
        asm.push(if grow.fences.contains(site) {
            *act
        } else {
            !*act
        });
    }
    for (site, act) in &enc.toggle_acts {
        asm.push(if grow.toggles.contains(site) {
            *act
        } else {
            !*act
        });
    }
    let act = enc.cnf.fresh();
    let mut clause = vec![!act];
    clause.extend(enc.exceeded.iter().map(|(_, l)| *l));
    enc.cnf.clause(clause);
    asm.push(act);
    match enc.cnf.solver.solve_with(&asm) {
        cf_sat::SolveResult::Sat => Some(enc.exceeded_keys()),
        _ => None,
    }
}

/// Times `cf_cycles` analysis for every (harness, test) the trace's
/// `cycle_analysis` events name, once per event.
fn cycles_ms(targets: &[Target<'_>], events: &[Event]) -> f64 {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut harness = String::new();
    for e in events {
        match (e.kind, e.get_str("consumer")) {
            ("corpus_start", _) => harness = e.get_str("harness").unwrap_or("").to_string(),
            ("cycle_analysis", Some("corpus")) => {
                let test = e.get_str("test").unwrap_or("");
                *counts.entry(format!("{harness}/{test}")).or_default() += 1;
            }
            ("cycle_analysis", Some("triage")) => {
                *counts
                    .entry(e.get_str("target").unwrap_or("").to_string())
                    .or_default() += 1;
            }
            _ => {}
        }
    }
    let mut total = 0.0;
    for t in targets {
        if let Some(&n) = counts.get(&t.key) {
            let t0 = Instant::now();
            std::hint::black_box(checkfence::cycles::analyze(t.harness, t.test));
            total += t0.elapsed().as_secs_f64() * 1e3 * n as f64;
        }
    }
    total
}

/// The highest of a fixed ladder of percentiles that still has at least
/// ten samples beyond it, as (percentile, value); `(0, max)` when there
/// are fewer than twenty samples.
fn tail(sorted: &[f64]) -> (f64, f64) {
    for p in [99.9, 99.0, 95.0, 90.0, 75.0, 50.0] {
        if sorted.len() - rank(sorted.len(), p) >= 10 {
            return (p, percentile(sorted, p));
        }
    }
    (0.0, sorted.last().copied().unwrap_or(0.0))
}

/// Nearest rank (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Rounded first, so 90% of 100 is rank 90 and not 91 by float error.
    let exact = (p * n as f64 / 100.0 * 1e6).round() / 1e6;
    (exact.ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Per-query numbers read from `query_done` and `encode` events.
#[derive(Default)]
struct Queries {
    count: usize,
    walls_ms: Vec<f64>,
    wall_sum_ms: f64,
    residual_ms: f64,
    fail_residual_ms: f64,
    retries: u64,
    inconclusive: usize,
}

fn queries(events: &[Event]) -> Queries {
    // Encode time per query lane: a session encodes inside the query
    // that first needs it.
    let mut lane_encode: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == "encode") {
        *lane_encode.entry((e.batch, e.item)).or_default() +=
            ms(e.get_u64("encode_us").unwrap_or(0));
    }
    let mut q = Queries::default();
    for e in events.iter().filter(|e| e.kind == "query_done") {
        q.count += 1;
        q.retries += e.get_u64("retries").unwrap_or(0);
        let outcome = e.get_str("outcome").unwrap_or("");
        if outcome == "inconclusive" {
            q.inconclusive += 1;
        }
        if e.get_str("class") == Some("discharged") {
            continue;
        }
        let wall = ms(e.get_u64("wall_us").unwrap_or(0));
        let residual =
            (wall - lane_encode.get(&(e.batch, e.item)).copied().unwrap_or(0.0)).max(0.0);
        q.walls_ms.push(wall);
        q.wall_sum_ms += wall;
        q.residual_ms += residual;
        if outcome == "fail" {
            q.fail_residual_ms += residual;
        }
    }
    q.walls_ms.sort_by(f64::total_cmp);
    q
}

/// Splits a traced run into the per-layer metrics.
/// The flag is `true` when every traced encoding was reproduced.
pub fn layer_metrics(t: &Traced<'_>) -> (Vec<Metric>, bool) {
    let ev = t.events;
    let sum = |kind: &str, field: &str| -> u64 {
        ev.iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.get_u64(field).unwrap_or(0))
            .sum()
    };
    let count = |kind: &str| ev.iter().filter(|e| e.kind == kind).count() as f64;
    let targets = t.prepared.targets();
    let (rep, traced_encodes) = replay(&targets, ev, t.prepared.jobs);
    let cycles = cycles_ms(&targets, ev);
    let q = queries(ev);
    let mine_ms = ms(sum("mine_reference", "mine_us"));
    let jobs = t.prepared.jobs as f64;
    let (tail_pct, tail_ms) = tail(&q.walls_ms);
    let encoded_keys = ev
        .iter()
        .filter(|e| e.kind == "encode")
        .filter_map(|e| lane(&e.label).map(|l| l.key.to_string()))
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let replay_ratio = if rep.traced_encode_ms > 0.0 {
        (rep.range_ms + rep.encode_ms) / rep.traced_encode_ms
    } else {
        1.0
    };
    let matched_frac = if traced_encodes > 0 {
        rep.matched as f64 / traced_encodes as f64
    } else {
        1.0
    };
    let matched = rep.matched == traced_encodes;
    let ladder = t.output.ladder;
    let secs_ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let metrics = vec![
        m("minic.compile_ms", secs_ms(t.setup.minic), "ms"),
        m("spec.compile_ms", secs_ms(t.setup.spec), "ms"),
        m("synth.enumerate_ms", secs_ms(t.setup.synth), "ms"),
        m(
            "synth.canonical_tests",
            t.prepared.canonical_tests as f64,
            "count",
        ),
        m("mine.calls", count("mine_reference"), "count"),
        m("mine.ms", mine_ms, "ms"),
        m("cycles.analyze_ms", cycles, "ms"),
        m("cycles.triaged_cells", ladder.triaged as f64, "count"),
        m("symexec.ms", rep.symexec_ms, "ms"),
        m("symexec.accesses", rep.accesses as f64, "count"),
        m("symexec.runs", rep.matched as f64, "count"),
        m("range.ms", rep.range_ms, "ms"),
        m("encode.ms", rep.encode_ms, "ms"),
        m("encode.count", count("encode"), "count"),
        m(
            "encode.replicas",
            t.output.sessions.saturating_sub(encoded_keys) as f64,
            "count",
        ),
        m("encode.vars", sum("encode", "vars") as f64, "count"),
        m("encode.clauses", sum("encode", "clauses") as f64, "count"),
        m("encode.traced_ms", ms(sum("encode", "encode_us")), "ms"),
        m("replay.encode_ratio", replay_ratio, "ratio"),
        m("replay.matched_frac", matched_frac, "frac"),
        m("sat.solves", count("sat_solve"), "count"),
        m("sat.ticks", sum("sat_solve", "ticks") as f64, "count"),
        m(
            "sat.conflicts",
            sum("sat_solve", "conflicts") as f64,
            "count",
        ),
        m(
            "sat.propagations",
            sum("sat_solve", "propagations") as f64,
            "count",
        ),
        m("query.count", q.count as f64, "count"),
        m("query.ms_p50", percentile(&q.walls_ms, 50.0), "ms"),
        m("query.ms_tail", tail_ms, "ms"),
        m("query.tail_pct", tail_pct, "%"),
        m("query.tail_samples", q.walls_ms.len() as f64, "count"),
        m("query.residual_ms", q.residual_ms, "ms"),
        m("query.fail_residual_ms", q.fail_residual_ms, "ms"),
        m("query.retries", q.retries as f64, "count"),
        m("query.inconclusive", q.inconclusive as f64, "count"),
        m(
            "query.busy_frac",
            q.wall_sum_ms / (jobs * t.run_wall_s * 1e3),
            "frac",
        ),
        m("ladder.cells", ladder.cells as f64, "count"),
        m("ladder.solved", ladder.solved as f64, "count"),
        m(
            "ladder.saved_frac",
            if ladder.cells > 0 {
                (ladder.inferred + ladder.triaged) as f64 / ladder.cells as f64
            } else {
                0.0
            },
            "frac",
        ),
        m("mutate.cells", t.output.mutate_cells as f64, "count"),
        m("trace.wall_s", t.wall_s, "s"),
        m(
            "trace.overhead_frac",
            t.wall_s / t.untraced_wall_s - 1.0,
            "frac",
        ),
        m(
            "ledger.closed_frac",
            (mine_ms + cycles + q.wall_sum_ms) / (jobs * t.run_wall_s * 1e3),
            "frac",
        ),
    ];
    (metrics, matched)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_labels_parse() {
        let l = lane("inclusion treiber/u(o|u)@relaxed+f3+t12").expect("parses");
        assert_eq!(l.key, "treiber/u(o|u)");
        assert_eq!(l.model, "relaxed");
        assert_eq!(l.fences, vec![3]);
        assert_eq!(l.toggles, vec![12]);
        assert!(matches!(model_sel("spec#1"), Some(ModelSel::Spec(1))));
        assert!(matches!(
            model_sel("pso"),
            Some(ModelSel::Builtin(Mode::Pso))
        ));
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&samples), (90.0, 90.0));
        assert_eq!(tail(&samples[..8]), (0.0, 8.0));
        assert_eq!(percentile(&samples, 50.0), 50.0);
    }
}
