//! Quickstart: verify Michael & Scott's nonblocking queue (with the
//! paper's Fig. 9 fences) on the Relaxed memory model.
//!
//! Run with `cargo run --release --example quickstart`.

use checkfence_repro::prelude::*;

fn main() {
    // 1. Pick an implementation (compiled from mini-C to LSL) and a
    //    symbolic test from the paper's Fig. 8 catalog.
    let harness = cf_algos::msn::harness(cf_algos::Variant::Fenced);
    let test = cf_algos::tests::by_name("Ti2").expect("catalog test");
    println!("implementation: {}", harness.name);
    println!("test {}: {}", test.name, test);

    // 2. Mine the specification: the observations of all serial
    //    executions (here via the fast reference-interpreter path).
    let mining = mine_reference(&harness, &test).expect("mining succeeds");
    println!(
        "specification: {} serializable observations",
        mining.spec.len()
    );

    // 3. Check that every concurrent execution on Relaxed observes one
    //    of them: describe the question as a `Query` and let the engine
    //    pool the session.
    let mut engine = Engine::new(EngineConfig::default());
    let verdict = engine
        .run(&Query::check_inclusion(&harness, &test, mining.spec.clone()).on(Mode::Relaxed))
        .expect("check runs");
    match verdict.outcome().expect("check outcome") {
        CheckOutcome::Pass => println!(
            "PASS: all Relaxed executions are serializable \
             ({} SAT vars, {} clauses, {:.3}s)",
            verdict.stats.vars,
            verdict.stats.clauses,
            verdict.stats.wall.as_secs_f64()
        ),
        CheckOutcome::Fail(cx) => println!("FAIL:\n{cx}"),
    }

    // 4. The same check without the fences fails — that is the paper's
    //    §4.2 result. The engine pools a second session for the
    //    unfenced build; the fenced one stays live.
    let unfenced = cf_algos::msn::harness(cf_algos::Variant::Unfenced);
    let verdict = engine
        .run(&Query::check_inclusion(&unfenced, &test, mining.spec).on(Mode::Relaxed))
        .expect("check runs");
    match verdict.outcome().expect("check outcome") {
        CheckOutcome::Pass => println!("unfenced: unexpectedly passed!"),
        CheckOutcome::Fail(cx) => {
            println!("\nunfenced build fails as expected; counterexample:\n{cx}");
        }
    }
    println!(
        "\n(engine pooled {} sessions for {} queries)",
        engine.stats().sessions,
        engine.stats().queries
    );
}
