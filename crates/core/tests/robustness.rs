//! Resource governance: tick budgets, wall-clock deadlines and the
//! escalating retry ladder turn solver exhaustion into first-class
//! [`checkfence::Answer::Inconclusive`] verdicts — batch drivers render `?` cells
//! and keep going instead of aborting on the first starved query.

use std::time::Duration;

use cf_memmodel::Mode;
use checkfence::mutate::{
    run_mutation_matrix, MatrixConfig, MutantVerdict, MutationConfig, MutationPlan,
};
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

/// A starved tick budget resolves to `Inconclusive(Budget)` — an
/// answer, not an error — and the session stays usable for the next
/// query.
#[test]
fn starved_budget_is_a_verdict_not_an_error() {
    let (h, t) = mailbox();
    let spec = mine_reference(&h, &t).expect("mines").spec;
    let mut config = EngineConfig::single(Mode::Relaxed);
    config.check.tick_budget = Some(1);
    config.check.max_retries = 0;
    let mut engine = Engine::new(config);
    let q = Query::check_inclusion(&h, &t, spec).on(Mode::Relaxed);

    let v = engine.run(&q).expect("a verdict, not an error");
    assert_eq!(v.inconclusive(), Some(InconclusiveReason::Budget));
    assert!(!v.passed(), "nothing was proved");
    assert!(v.outcome().is_none());
    let spent = v.stats.ticks();
    assert!(spent >= 1, "the solver did attributable work: {spent}");

    // The pooled session survived the exhaustion: lifting the budget
    // answers the same query conclusively on the same encoding.
    engine.check_mut().tick_budget = None;
    let v = engine.run(&q).expect("runs");
    assert!(v.passed(), "the fenced mailbox passes on relaxed");
    assert_eq!(engine.stats().sessions, 1, "no session was rebuilt");
}

/// A budget tightened through `check_mut` reaches a session the pool
/// built without one: every attempt takes its limits from the engine's
/// current settings, not from when its session was built.
#[test]
fn budget_set_through_check_mut_reaches_a_pooled_session() {
    let (h, t) = mailbox();
    let spec = mine_reference(&h, &t).expect("mines").spec;
    let mut config = EngineConfig::default();
    config.check.max_retries = 0;
    let mut engine = Engine::new(config);
    let on = |m: Mode| Query::check_inclusion(&h, &t, spec.clone()).on(m);
    assert!(engine.run(&on(Mode::Sc)).expect("runs").passed());

    // Relaxed is a new question for the warm session.
    engine.check_mut().tick_budget = Some(1);
    let v = engine.run(&on(Mode::Relaxed)).expect("runs");
    assert_eq!(v.inconclusive(), Some(InconclusiveReason::Budget));

    engine.check_mut().tick_budget = None;
    assert!(engine.run(&on(Mode::Relaxed)).expect("runs").passed());
    assert_eq!(engine.stats().sessions, 1, "no session was rebuilt");
}

/// The escalating ladder self-heals: a budget far too small for attempt
/// zero succeeds after geometric growth, and the verdict attributes the
/// retries it took.
#[test]
fn retry_ladder_escalates_until_the_query_fits() {
    let (h, t) = mailbox();
    let spec = mine_reference(&h, &t).expect("mines").spec;
    let mut config = EngineConfig::single(Mode::Relaxed);
    config.check.tick_budget = Some(1);
    config.check.max_retries = 10;
    let mut engine = Engine::new(config);

    let v = engine
        .run(&Query::check_inclusion(&h, &t, spec).on(Mode::Relaxed))
        .expect("runs");
    assert!(v.passed(), "the ladder must eventually fit the query");
    assert!(
        v.stats.retries > 0,
        "a 1-tick initial budget cannot decide the mailbox in one attempt"
    );
}

/// An already-expired wall-clock deadline resolves to
/// `Inconclusive(Deadline)` without looping the retry ladder forever.
#[test]
fn expired_deadline_reports_deadline_not_budget() {
    let (h, t) = mailbox();
    let spec = mine_reference(&h, &t).expect("mines").spec;
    let mut config = EngineConfig::single(Mode::Relaxed);
    config.check.deadline = Some(Duration::from_nanos(1));
    config.check.max_retries = 1;
    let mut engine = Engine::new(config);
    let v = engine
        .run(&Query::check_inclusion(&h, &t, spec).on(Mode::Relaxed))
        .expect("runs");
    assert_eq!(v.inconclusive(), Some(InconclusiveReason::Deadline));
    assert_eq!(v.stats.retries, 1, "the ladder re-armed once, then gave up");
}

/// Tick budgets are deterministic: the same starved matrix renders the
/// same `?` cells byte for byte at `jobs = 1` and `jobs = 4` (every
/// cell exhausts at its first budget checkpoint, independent of session
/// state), and the cells do not count as caught.
#[test]
fn starved_mutation_matrix_renders_question_cells_identically_across_jobs() {
    let (h, t) = mailbox();
    let plan = MutationPlan::build(&h.program, &MutationConfig::default());
    assert!(!plan.points.is_empty());
    let table_at = |jobs: usize| {
        let mut config = MatrixConfig {
            modes: vec![Mode::Sc, Mode::Relaxed],
            jobs,
            ..MatrixConfig::default()
        };
        config.check.tick_budget = Some(1);
        config.check.max_retries = 0;
        let report = run_mutation_matrix(&h, &t, &plan, &config).expect("matrix runs");
        assert!(
            report
                .baseline
                .iter()
                .chain(report.rows.iter().flat_map(|r| r.verdicts.iter()))
                .all(|v| matches!(v, MutantVerdict::Inconclusive(_))),
            "every cell starves under a 1-tick budget:\n{}",
            report.table()
        );
        assert_eq!(report.caught().0, 0, "`?` cells never count as caught");
        report.table()
    };
    let sequential = table_at(1);
    assert!(sequential.contains('?'), "{sequential}");
    assert_eq!(sequential, table_at(4), "tables must compare bit for bit");
}
