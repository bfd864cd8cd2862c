//! Observability suite: the cf-trace event stream is a deterministic
//! artifact. Stripped of wall clock and nondeterministic side-channel
//! events, a traced run compares bit for bit at any `--jobs` level, and
//! the profile aggregator closes its solver-tick attribution ledger.

use std::sync::Mutex;

use cf_algos::{lamport, Variant};
use cf_synth::{run_corpus, synthesize, CorpusConfig, SynthBounds};

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

/// The profile ledger closes: whole-query spans plus encode-phase ticks
/// account for (at least) 95% of the ground-truth solver ticks — in
/// practice exactly 100%, because eager unit propagation during CNF
/// construction is credited to the encode row.
#[test]
fn profile_attributes_at_least_95_percent_of_solver_ticks() {
    let _g = locked();
    let harness = lamport::harness(Variant::Fenced);
    let corpus = synthesize(&harness.ops, &SynthBounds::new(2, 1));
    cf_trace::enable();
    run_corpus(&harness, &corpus.tests, &CorpusConfig::default());
    cf_trace::disable();
    let profile = cf_trace::profile(&cf_trace::take());

    assert!(profile.total_ticks > 0, "the sweep does real solver work");
    let fraction = profile.attributed_fraction();
    assert!(
        fraction >= 0.95,
        "attributed {:.1}% of {} solver ticks; the unattributed bucket \
         must stay under 5%",
        fraction * 100.0,
        profile.total_ticks
    );
    assert!(
        fraction <= 1.0 + 1e-9,
        "attribution over 100% means ticks were double-counted"
    );

    let rendered = profile.render();
    assert!(rendered.contains("cost profile"));
    assert!(rendered.contains("attributed"));
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
