//! Observability suite: the cf-trace event stream is a deterministic
//! artifact. Stripped of wall clock and nondeterministic side-channel
//! events, a traced run compares bit for bit at any `--jobs` level, and
//! the profile aggregator closes its solver-tick attribution ledger.

use std::sync::Mutex;

use cf_algos::ablation::{run_ablation, Oracle};
use cf_algos::{lamport, Variant};
use cf_memmodel::Mode;
use cf_synth::{run_corpus, synthesize, CorpusConfig, SynthBounds};
use checkfence::{Engine, EngineConfig, Harness, OpSig, Query, QueryStats, TestSpec};

/// The trace collector (and, in the faults module, the fault-plan
/// registry) is process-global; serialize every test that enables it.
static GATE: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

/// Runs the lamport synth sweep under the collector and returns the
/// rendered JSONL trace. [`cf_trace::enable`] resets the batch/step
/// counters, so back-to-back captures are directly comparable.
fn traced_sweep(jobs: usize) -> String {
    let harness = lamport::harness(Variant::Fenced);
    let corpus = synthesize(&harness.ops, &SynthBounds::new(2, 1));
    assert!(!corpus.tests.is_empty());
    let config = CorpusConfig {
        jobs,
        ..CorpusConfig::default()
    };
    cf_trace::enable();
    let report = run_corpus(&harness, &corpus.tests, &config);
    cf_trace::disable();
    assert!(!report.rows.is_empty());
    cf_trace::render_jsonl(&cf_trace::take())
}

/// The tentpole determinism contract: every deterministic event carries
/// a canonical `(batch, item, step)` coordinate and real solver
/// counters, so the stripped trace of the same workload is
/// byte-identical whether the engine ran sequentially or on four
/// workers.
#[test]
fn stripped_synth_traces_are_identical_across_jobs() {
    let _g = locked();
    let seq = traced_sweep(1);
    let par = traced_sweep(4);
    assert!(
        seq.starts_with("{\"k\":\"trace_meta\""),
        "schema header leads"
    );

    let stripped = cf_trace::strip(&seq);
    assert_eq!(
        stripped,
        cf_trace::strip(&par),
        "stripped traces must compare bit for bit at jobs=1 vs jobs=4"
    );

    // The comparison is over real content: solver counters survive the
    // strip, while wall clock and nd side-channel events do not.
    assert!(stripped.contains("\"k\":\"query_done\""));
    assert!(stripped.contains("\"k\":\"sat_solve\""));
    assert!(stripped.contains("\"k\":\"corpus_done\""));
    // The pool shape no longer depends on `--jobs`, so its events are
    // part of the compared stream.
    assert!(stripped.contains("\"k\":\"pool_stats\""));
    assert!(stripped.contains("\"k\":\"session_spawn\""));
    assert!(stripped.contains("\"ticks\":"));
    assert!(!stripped.contains("_us\":"), "wall clock is stripped");
    assert!(!stripped.contains("\"nd\":1"), "nd events are stripped");
    // ...but the raw trace does carry them, for humans reading one run.
    assert!(seq.contains("\"k\":\"mine_reference\""));
    assert!(seq.contains("_us\":"));
}

/// A harness whose relaxed executions escape the first loop unrolling:
/// `r` spins only after seeing `b`'s store before `a`'s, which takes a
/// store-store reordering. So serial and `sc` checks encode once, and a
/// `relaxed` check grows the loop bound and re-encodes mid-query.
fn bound_growing_harness() -> Harness {
    let program = cf_minic::compile(
        r#"
        int a; int b;
        void w() { a = 1; b = 1; }
        int r() { int n = 0; while (b == 1 && a == 0 && n < 2) { n = n + 1; } return n; }
        "#,
    )
    .expect("compiles");
    Harness {
        name: "grow".into(),
        program,
        init_proc: None,
        ops: vec![
            OpSig::parse("w=w").expect("op"),
            OpSig::parse("r=r:ret").expect("op"),
        ],
    }
}

/// The trace's solver work: `sat_solve` plus `encode` ticks.
fn traced_ticks<'e>(events: impl IntoIterator<Item = &'e cf_trace::Event>) -> u64 {
    events
        .into_iter()
        .filter(|e| e.kind == "sat_solve" || e.kind == "encode")
        .map(|e| e.get_u64("ticks").unwrap_or(0))
        .sum()
}

/// The profile ledger closes exactly: each query's `query_done` ticks
/// are the encode-phase ticks of the encodings it built plus its own
/// solve calls, so attributed equals total — also on a sweep whose
/// relaxed checks grow a loop bound and re-encode mid-query.
#[test]
fn profile_ledger_closes_exactly_also_when_bounds_grow() {
    let _g = locked();
    let lamport = lamport::harness(Variant::Fenced);
    let grow = bound_growing_harness();
    for harness in [&lamport, &grow] {
        let corpus = synthesize(&harness.ops, &SynthBounds::new(2, 1));
        cf_trace::enable();
        let report = run_corpus(harness, &corpus.tests, &CorpusConfig::default());
        cf_trace::disable();
        let profile = cf_trace::profile(&cf_trace::take());
        assert!(profile.total_ticks > 0, "the sweep does real solver work");
        assert_eq!(
            profile.attributed_ticks, profile.total_ticks,
            "{}: every solver tick belongs to exactly one query",
            harness.name
        );
        assert!(profile.render().contains(&format!(
            "attributed {0} / {0} solver ticks (100.0%)",
            profile.total_ticks
        )));
        if harness.name == "grow" {
            assert!(
                report.encodes as usize > report.sessions,
                "the relaxed checks grow a bound: {}",
                report.summary()
            );
        }
    }
}

/// A query that grows a loop bound on a warm session keeps the work of
/// the encoding it discards. Each verdict's record matches its trace
/// lane, and the engine's totals are the sums of the three records.
#[test]
fn query_records_agree_with_their_trace_lanes_when_a_bound_grows() {
    let _g = locked();
    let harness = bound_growing_harness();
    let test = TestSpec::parse("T", "( w | r )").expect("parses");
    let mut engine = Engine::new(EngineConfig::default());
    cf_trace::enable();
    let mined = engine.run(&Query::mine(&harness, &test)).expect("mines");
    let spec = mined.observations().expect("observations").clone();
    let sc = engine
        .run(&Query::check_inclusion(&harness, &test, spec.clone()).on(Mode::Sc))
        .expect("checks sc");
    let relaxed = engine
        .run(&Query::check_inclusion(&harness, &test, spec).on(Mode::Relaxed))
        .expect("checks relaxed");
    cf_trace::disable();
    let events = cf_trace::take();
    assert!(
        events.iter().all(|e| e.kind != "shard_crash"),
        "no query crashed"
    );
    assert!(sc.passed(), "sc keeps a and b in order");
    assert!(!relaxed.passed(), "relaxed reorders the stores");
    let verdicts = [&mined, &sc, &relaxed];
    let encodes: Vec<u32> = verdicts.iter().map(|v| v.stats.encodes).collect();
    assert_eq!(encodes, [1, 0, 1], "only the relaxed check re-encodes");
    // Each `run` is one batch whose query runs in lane 1.
    let batches: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == "query_done")
        .map(|e| e.batch)
        .collect();
    assert_eq!(batches.len(), 3, "one query_done per run");
    let mut sum = QueryStats::default();
    for (v, batch) in verdicts.into_iter().zip(batches) {
        let lane: Vec<&cf_trace::Event> = events
            .iter()
            .filter(|e| e.batch == batch && e.item == 1)
            .collect();
        let done = lane.iter().find(|e| e.kind == "query_done").expect("done");
        let solves = lane.iter().filter(|e| e.kind == "sat_solve").count() as u64;
        assert_eq!(v.stats.solves, solves, "solves are the lane's solve calls");
        assert_eq!(done.get_u64("solves"), Some(v.stats.solves));
        assert_eq!(done.get_u64("ticks"), Some(v.stats.ticks()));
        assert_eq!(
            v.stats.ticks(),
            traced_ticks(lane.iter().copied()),
            "query_done ticks are the lane's sat_solve plus encode ticks"
        );
        sum.solves += v.stats.solves;
        sum.conflicts += v.stats.conflicts;
        sum.restarts += v.stats.restarts;
        sum.propagations += v.stats.propagations;
        sum.assumed_literals += v.stats.assumed_literals;
    }
    assert!(events.iter().any(|e| e.kind == "bound_grow"));
    let stats = engine.stats();
    assert_eq!((stats.sessions, stats.encodes, stats.queries), (1, 2, 3));
    assert_eq!(engine.solver_stats(), sum.solver_stats());
}

/// A mutation matrix whose cells grow loop bounds (lazylist `Sac`: three
/// encodes on one session) reports the solver work its trace shows.
#[test]
fn mutation_matrix_solver_totals_match_the_trace() {
    let _g = locked();
    cf_trace::enable();
    let outcome = run_ablation("lazylist", &[], Oracle::Session, 1).expect("matrix runs");
    cf_trace::disable();
    let events = cf_trace::take();
    let report = &outcome.reports[0];
    assert_eq!(report.test, "Sac");
    assert_eq!(
        (report.sessions, report.encodes),
        (1, 3),
        "{}",
        report.summary()
    );
    assert_eq!(report.solver.ticks(), traced_ticks(&events));
}

/// Degraded runs stay in the determinism contract: starved cells,
/// retries, and crashed workers all surface as trace events, and the
/// stripped stream still compares bit for bit across `--jobs` levels.
#[cfg(feature = "faults")]
mod degraded {
    use super::*;

    use cf_memmodel::Mode;
    use cf_sat::faults::{self, FaultKind, FaultPlan};
    use checkfence::{
        mine_reference, Engine, EngineConfig, Harness, InconclusiveReason, OpSig, Query, TestSpec,
    };

    fn mailbox() -> (Harness, TestSpec) {
        let program = cf_minic::compile(
            r#"
            int data; int flag;
            void put(int v) { data = v + 1; fence("store-store"); flag = 1; }
            int get() { int f = flag; fence("load-load");
                        if (f == 0) { return 0 - 1; } return data; }
            "#,
        )
        .expect("compiles");
        let harness = Harness {
            name: "mailbox".into(),
            program,
            init_proc: None,
            ops: vec![
                OpSig {
                    key: 'p',
                    proc_name: "put".into(),
                    num_args: 1,
                    has_ret: false,
                },
                OpSig {
                    key: 'g',
                    proc_name: "get".into(),
                    num_args: 0,
                    has_ret: true,
                },
            ],
        };
        let test = TestSpec::parse("pg", "( p | g )").expect("parses");
        (harness, test)
    }

    /// Exhaustion scattered over the weakest ladder column starves the
    /// same cells by address at any jobs level, and the starved lanes'
    /// `attempt`/`retry`/`query_done` event sequences are part of the
    /// deterministic stream — the stripped traces still match.
    #[test]
    fn starved_sweep_traces_are_identical_and_carry_retry_events() {
        let _g = locked();
        let harness = lamport::harness(Variant::Fenced);
        let corpus = synthesize(&harness.ops, &SynthBounds::new(2, 1));
        let addrs: Vec<String> = corpus
            .tests
            .iter()
            .map(|t| format!("solve:check {}/{}@relaxed", harness.name, t.name))
            .collect();
        let k = 2.min(addrs.len());

        let traced = |jobs: usize| {
            faults::install(FaultPlan::new(7).scatter(FaultKind::Exhaust, &addrs, k));
            let config = CorpusConfig {
                jobs,
                ..CorpusConfig::default()
            };
            cf_trace::enable();
            run_corpus(&harness, &corpus.tests, &config);
            cf_trace::disable();
            faults::clear();
            cf_trace::render_jsonl(&cf_trace::take())
        };

        let seq = traced(1);
        let par = traced(4);
        assert_eq!(
            cf_trace::strip(&seq),
            cf_trace::strip(&par),
            "degraded stripped traces must compare bit for bit"
        );

        // The budget ladder ran out in public: every starved cell left
        // its retries and its inconclusive verdict in the stream.
        assert!(seq.contains("\"k\":\"retry\""));
        assert!(seq.contains("\"reason\":\"budget\""));
        assert!(seq.contains("\"outcome\":\"inconclusive\""));
    }

    /// A mutation matrix is one big (harness, test) group, answered on
    /// one session at any `jobs`. Starving *every* cell (the solve hook
    /// fires before any encode) leaves only the per-lane retry ladders
    /// and the pool events in the stream, which must still compare bit
    /// for bit across jobs.
    #[test]
    fn starved_matrix_traces_are_identical_across_jobs() {
        let _g = locked();
        use checkfence::mutate::{run_mutation_matrix, MatrixConfig, MutationConfig, MutationPlan};

        let (h, t) = mailbox();
        let plan = MutationPlan::build(&h.program, &MutationConfig::default());
        assert!(!plan.points.is_empty());
        // One address per cell: active toggles are part of a query's
        // describe string (`+t<id>`), so baseline and mutant cells of
        // the same model starve separately.
        let mut addrs: Vec<String> = Vec::new();
        for m in Mode::hardware() {
            let base = format!("solve:check {}+mutants/{}@{}", h.name, t.name, m.name());
            addrs.push(base.clone());
            for point in &plan.points {
                addrs.push(format!("{base}+t{}", point.id));
            }
        }

        let traced = |jobs: usize| {
            faults::install(FaultPlan::new(3).scatter(FaultKind::Exhaust, &addrs, addrs.len()));
            let config = MatrixConfig {
                jobs,
                ..MatrixConfig::default()
            };
            cf_trace::enable();
            let report = run_mutation_matrix(&h, &t, &plan, &config).expect("matrix runs");
            cf_trace::disable();
            faults::clear();
            for cell in report
                .baseline
                .iter()
                .chain(report.rows.iter().flat_map(|r| r.verdicts.iter()))
            {
                assert!(
                    matches!(cell, checkfence::mutate::MutantVerdict::Inconclusive(_)),
                    "every cell starves: {cell:?}"
                );
            }
            cf_trace::render_jsonl(&cf_trace::take())
        };

        let seq = traced(1);
        let par = traced(4);
        assert_eq!(
            cf_trace::strip(&seq),
            cf_trace::strip(&par),
            "starved matrix stripped traces must compare bit for bit"
        );
        assert!(seq.contains("\"k\":\"matrix_start\""));
        assert!(seq.contains("\"k\":\"matrix_done\""));
        assert!(seq.contains("\"k\":\"pool_stats\""));
        assert!(seq.contains("\"k\":\"retry\""));
    }

    /// A persistent worker panic shows up as `shard_crash` events plus a
    /// degraded `query_done` carrying the `shard-crashed` reason, while
    /// the neighbours' verdicts (and their trace spans) are unaffected.
    #[test]
    fn persistent_panic_emits_shard_crash_events() {
        let _g = locked();
        let (h, t) = mailbox();
        let spec = mine_reference(&h, &t).expect("mines").spec;
        let queries: Vec<Query> = Mode::hardware()
            .iter()
            .map(|&m| Query::check_inclusion(&h, &t, spec.clone()).on(m))
            .collect();
        let victim = queries[1].describe();

        faults::install(FaultPlan::new(1).panic_at(format!("worker:{victim}")));
        let mut engine = Engine::new(EngineConfig::default().with_jobs(2));
        cf_trace::enable();
        let verdicts = engine.run_batch(&queries);
        cf_trace::disable();
        faults::clear();

        for (q, v) in queries.iter().zip(verdicts) {
            let v = v.expect("verdict");
            if q.describe() == victim {
                assert_eq!(v.inconclusive(), Some(InconclusiveReason::ShardCrashed));
            } else {
                assert!(v.passed(), "{}: neighbours are unaffected", q.describe());
            }
        }

        let trace = cf_trace::render_jsonl(&cf_trace::take());
        assert!(trace.contains("\"k\":\"shard_crash\""));
        assert!(trace.contains("\"reason\":\"shard-crashed\""));
        // The crash-and-rebuild cycle spawns sessions more than once.
        assert!(trace.contains("\"k\":\"session_spawn\""));
    }
}
