//! Fault-injection suite (requires `--features faults`): deterministic,
//! seed-addressed failures prove the engine's graceful-degradation
//! contract — exhausted cells render `?` identically at any `--jobs`
//! level, a panicking worker loses at most its in-flight query, and a
//! cleared plan restores byte-identical verdicts.
#![cfg(feature = "faults")]

use std::sync::Mutex;

use cf_memmodel::Mode;
use cf_sat::faults::{self, FaultKind, FaultPlan};
use cf_synth::{run_corpus, synthesize, CorpusConfig, CorpusVerdict, SynthBounds};
use checkfence::{
    mine_reference, CheckError, Engine, EngineConfig, Harness, InconclusiveReason, OpSig, Query,
    TestSpec,
};

/// The fault-plan registry is process-global; serialize every test that
/// installs one.
static GATE: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

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

/// A mode-sweep batch over the mailbox, summarized per cell: `None` for
/// a conclusive verdict (with its pass bit), `Some(reason)` otherwise.
fn sweep(jobs: usize) -> Vec<(String, Result<bool, InconclusiveReason>)> {
    let (h, t) = mailbox();
    let spec = mine_reference(&h, &t).expect("mines").spec;
    let mut engine = Engine::new(EngineConfig::default().with_jobs(jobs));
    let queries: Vec<Query> = Mode::hardware()
        .iter()
        .map(|&m| Query::check_inclusion(&h, &t, spec.clone()).on(m))
        .collect();
    queries
        .iter()
        .zip(engine.run_batch(&queries))
        .map(|(q, v)| {
            let v = v.expect("faults degrade verdicts, never error the batch");
            (
                q.describe(),
                match v.inconclusive() {
                    Some(reason) => Err(reason),
                    None => Ok(v.passed()),
                },
            )
        })
        .collect()
}

/// Scattered synthetic exhaustion starves exactly the k victim cells —
/// selected by address, not arrival order — so the degraded sweep is
/// identical at `jobs = 1` and `jobs = 4`, and every other cell matches
/// the fault-free run.
#[test]
fn scattered_exhaustion_starves_the_same_k_cells_at_any_jobs_level() {
    let _g = locked();
    faults::clear();
    let healthy = sweep(1);

    let addrs: Vec<String> = healthy.iter().map(|(d, _)| format!("solve:{d}")).collect();
    let k = 2;
    let plan = FaultPlan::new(0xC0FFEE).scatter(FaultKind::Exhaust, &addrs, k);
    let victims: Vec<String> = plan.addresses().iter().map(|a| a.to_string()).collect();
    assert_eq!(victims.len(), k);

    faults::install(FaultPlan::new(0xC0FFEE).scatter(FaultKind::Exhaust, &addrs, k));
    let degraded_seq = sweep(1);
    faults::install(FaultPlan::new(0xC0FFEE).scatter(FaultKind::Exhaust, &addrs, k));
    let degraded_par = sweep(4);
    faults::clear();

    assert_eq!(degraded_seq, degraded_par, "degraded sweeps must agree");
    for (describe, cell) in &degraded_seq {
        let addr = format!("solve:{describe}");
        if victims.contains(&addr) {
            assert_eq!(
                *cell,
                Err(InconclusiveReason::Budget),
                "{describe}: a victim cell must starve"
            );
        } else {
            let healthy_cell = healthy
                .iter()
                .find(|(d, _)| d == describe)
                .map(|(_, c)| *c)
                .expect("same batch shape");
            assert_eq!(*cell, healthy_cell, "{describe}: untouched cells agree");
        }
    }
}

/// A worker panic poisons only its own session: the engine rebuilds the
/// session from the query's key and resubmits the in-flight query once,
/// so a single injected panic loses nothing.
#[test]
fn single_worker_panic_is_absorbed_by_rebuild_and_resubmit() {
    let _g = locked();
    let (h, t) = mailbox();
    let spec = mine_reference(&h, &t).expect("mines").spec;
    let queries: Vec<Query> = Mode::hardware()
        .iter()
        .map(|&m| Query::check_inclusion(&h, &t, spec.clone()).on(m))
        .collect();

    faults::install(FaultPlan::new(1).panic_times(format!("worker:{}", queries[0].describe()), 1));
    let mut engine = Engine::new(EngineConfig::default().with_jobs(2));
    let verdicts = engine.run_batch(&queries);
    faults::clear();

    for (q, v) in queries.iter().zip(verdicts) {
        let v = v.expect("verdict");
        assert!(
            v.passed(),
            "{}: one panic must not cost any verdict (fenced mailbox passes everywhere)",
            q.describe()
        );
    }
    // The rebuilt session returned to the pool: one more query on the
    // key reuses its encoding, and the engine built one session only.
    let again = engine.run(&queries[0]).expect("verdict");
    assert_eq!(again.stats.encodes, 0, "the rebuilt session is reused");
    assert_eq!(
        engine.stats().sessions,
        1,
        "no session built after the batch"
    );
}

/// The rebuilt session keeps the provenance instrumentation: a panicked
/// worker's resubmitted query still answers with a proof core, because
/// the rebuild path re-derives the provenance bit from the engine
/// config instead of the (lost) session it replaces.
#[test]
fn rebuilt_session_still_extracts_provenance() {
    let _g = locked();
    let (h, t) = mailbox();
    let spec = mine_reference(&h, &t).expect("mines").spec;
    let queries: Vec<Query> = Mode::hardware()
        .iter()
        .map(|&m| Query::check_inclusion(&h, &t, spec.clone()).on(m))
        .collect();
    let victim = queries[0].describe();

    faults::install(FaultPlan::new(1).panic_times(format!("worker:{victim}"), 1));
    let mut engine = Engine::new(EngineConfig::default().with_jobs(2).with_provenance(true));
    let verdicts = engine.run_batch(&queries);
    faults::clear();

    for (q, v) in queries.iter().zip(verdicts) {
        let v = v.expect("verdict");
        assert!(v.passed(), "{}: fenced mailbox passes", q.describe());
        let p = v.provenance.as_ref().unwrap_or_else(|| {
            panic!(
                "{}: a rebuilt session must stay instrumented for provenance",
                q.describe()
            )
        });
        assert!(p.core_size > 0, "{}: empty proof core", q.describe());
    }
}

/// A *persistent* panic (the rebuilt session dies too) degrades exactly
/// the in-flight query to `Inconclusive(ShardCrashed)`; every other
/// query in the batch still gets its verdict.
#[test]
fn persistent_worker_panic_degrades_only_the_inflight_query() {
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
    let verdicts = engine.run_batch(&queries);
    faults::clear();

    for (q, v) in queries.iter().zip(verdicts) {
        let v = v.expect("verdict");
        if q.describe() == victim {
            assert_eq!(
                v.inconclusive(),
                Some(InconclusiveReason::ShardCrashed),
                "the doomed query degrades, it does not vanish"
            );
        } else {
            assert!(v.passed(), "{}: neighbours are unaffected", q.describe());
        }
    }
}

/// An injected stall drives the wall-clock deadline path: the solve
/// sleeps past its armed deadline and comes back `Deadline`, while the
/// retry (stall entry exhausted) succeeds — the transient-hang
/// self-heal story end to end.
#[test]
fn transient_stall_trips_the_deadline_and_the_retry_recovers() {
    let _g = locked();
    let (h, t) = mailbox();
    let spec = mine_reference(&h, &t).expect("mines").spec;
    let q = Query::check_inclusion(&h, &t, spec).on(Mode::Relaxed);

    faults::install(FaultPlan::new(1).stall(format!("solve:{}", q.describe()), 30));
    let mut config = EngineConfig::single(Mode::Relaxed);
    config.check.deadline = Some(std::time::Duration::from_millis(5));
    config.check.max_retries = 0;
    let mut engine = Engine::new(config);
    let v = engine.run(&q).expect("verdict");
    assert_eq!(v.inconclusive(), Some(InconclusiveReason::Deadline));

    // Same stall, but bounded to one firing and one retry permitted:
    // the re-armed attempt runs stall-free and answers conclusively.
    faults::install(FaultPlan::new(1).stall_times(format!("solve:{}", q.describe()), 30, 1));
    let mut config = EngineConfig::single(Mode::Relaxed);
    config.check.deadline = Some(std::time::Duration::from_millis(5));
    config.check.max_retries = 1;
    let mut engine = Engine::new(config);
    let v = engine.run(&q).expect("verdict");
    faults::clear();
    assert!(v.passed(), "the retry self-heals a transient stall");
    assert_eq!(v.stats.retries, 1);
}

/// Fault-injected exhaustion on the synth corpus: victims scattered
/// over the first-solved (weakest) model column render exactly k `?`
/// cells, and the whole coverage table — a pure function of the
/// verdicts — is byte-identical at `jobs = 1` and `jobs = 4`.
#[test]
fn starved_corpus_cells_render_identically_across_jobs() {
    let _g = locked();
    use cf_algos::{lamport, Variant};
    let harness = lamport::harness(Variant::Fenced);
    let corpus = synthesize(&harness.ops, &SynthBounds::new(2, 1));
    assert!(!corpus.tests.is_empty());

    // The ladder solves the weakest column (`relaxed`) first, so those
    // cells are always solved, never inferred — faults there are
    // guaranteed to fire.
    let addrs: Vec<String> = corpus
        .tests
        .iter()
        .map(|t| format!("solve:check {}/{}@relaxed", harness.name, t.name))
        .collect();
    let k = 2.min(addrs.len());
    let table_at = |jobs: usize| {
        faults::install(FaultPlan::new(7).scatter(FaultKind::Exhaust, &addrs, k));
        let config = CorpusConfig {
            jobs,
            ..CorpusConfig::default()
        };
        let report = run_corpus(&harness, &corpus.tests, &config);
        faults::clear();
        let starved = report
            .rows
            .iter()
            .flat_map(|r| r.verdicts.iter())
            .filter(|v| matches!(v, CorpusVerdict::Inconclusive))
            .count();
        assert_eq!(
            starved,
            k,
            "exactly the k victims starve:\n{}",
            report.table()
        );
        report.table()
    };
    assert_eq!(table_at(1), table_at(4), "tables must compare bit for bit");
}

/// An undecided check is not a failing placement: when the saturated
/// build's check crashes its worker twice (the rebuilt session dies
/// too), fence inference reports the crash instead of calling the
/// implementation unfixable.
#[test]
fn crashed_saturated_check_is_an_inference_error_not_unfixable() {
    use checkfence::infer::{
        apply_candidates_gated, candidate_sites, infer, InferConfig, InferError,
    };
    let _g = locked();
    let (h, t) = mailbox();
    let spec = mine_reference(&h, &t).expect("mines").spec;
    let config = InferConfig::default();
    let all = candidate_sites(&h.program, &config);
    // The saturated check, named as `infer` names it.
    let gated = Harness {
        name: format!("{}+candidates", h.name),
        program: apply_candidates_gated(&h.program, &all),
        ..h.clone()
    };
    let every: Vec<u32> = (0..all.len() as u32).collect();
    let saturated = Query::check_inclusion(&gated, &t, spec)
        .on(Mode::Relaxed)
        .with_toggles(&every);

    faults::install(FaultPlan::new(1).panic_times(format!("worker:{}", saturated.describe()), 2));
    let result = infer(&h, std::slice::from_ref(&t), Mode::Relaxed, &config);
    faults::clear();
    assert!(
        matches!(
            result,
            Err(InferError::Check(CheckError::Exhausted(
                InconclusiveReason::ShardCrashed
            )))
        ),
        "{result:?}"
    );
}

/// Necessity analysis follows the same rule: a deletion check that
/// crashes its worker twice is an error, never a `broken_by`.
#[test]
fn crashed_deletion_check_is_a_necessity_error_not_a_needed_fence() {
    let _g = locked();
    let (h, t) = mailbox();
    let spec = mine_reference(&h, &t).expect("mines").spec;
    // The first deletion, named as `necessity` names it.
    let wrapped = Harness {
        name: format!("{}+fence-toggles", h.name),
        program: h.program.with_fence_toggles(0),
        ..h.clone()
    };
    let first = Query::check_inclusion(&wrapped, &t, spec)
        .on(Mode::Relaxed)
        .with_toggles(&[0]);

    faults::install(FaultPlan::new(1).panic_times(format!("worker:{}", first.describe()), 2));
    let result = cf_algos::fences::necessity(&h, std::slice::from_ref(&t), Mode::Relaxed);
    faults::clear();
    assert!(
        matches!(
            result,
            Err(CheckError::Exhausted(InconclusiveReason::ShardCrashed))
        ),
        "{result:?}"
    );
}
