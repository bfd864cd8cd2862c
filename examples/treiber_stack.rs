//! The Treiber stack, end to end: a data type the paper did not study,
//! checked with the full CheckFence pipeline.
//!
//! Run with `cargo run --release --example treiber_stack`.
//!
//! 1. sweep the unfenced published algorithm across all four hardware
//!    models (passes SC and TSO, fails PSO and Relaxed);
//! 2. let fence inference derive a repair from the smallest test — and
//!    watch it under-fence, reproducing the paper's §4.2 caveat that
//!    placements are only as good as the tests that drive them;
//! 3. infer against both tests and re-verify.

use cf_algos::{tests, treiber, Variant};
use cf_lsl::FenceKind;
use cf_memmodel::Mode;
use checkfence::infer::{infer, InferConfig};
use checkfence::{mine_reference, CheckOutcome, Harness, Query, TestSpec};

fn check(h: &Harness, test: &TestSpec, mode: Mode) -> CheckOutcome {
    let spec = mine_reference(h, test).expect("mines").spec;
    Query::check_inclusion(h, test, spec)
        .on(mode)
        .run()
        .expect("checks")
        .into_outcome()
        .expect("outcome")
}

fn main() {
    let u0 = tests::by_name("U0").expect("catalog");

    // --- 1. model sweep on the unfenced algorithm ------------------------
    println!("== unfenced Treiber stack, test U0 = ( push | pop )");
    let unfenced = treiber::harness(Variant::Unfenced);
    for mode in Mode::hardware() {
        let out = check(&unfenced, &u0, mode);
        println!(
            "   {:8} {}",
            mode.name(),
            if out.passed() { "PASS" } else { "FAIL" }
        );
        if let CheckOutcome::Fail(cx) = out {
            let text = format!("{cx}");
            for line in text.lines().take(4) {
                println!("      | {line}");
            }
            println!("      | ...");
        }
    }

    // --- 2. infer a repair from the smallest test --------------------------
    println!("\n== inferring fences for Relaxed from U0 alone");
    let config = InferConfig {
        kinds: vec![FenceKind::LoadLoad, FenceKind::StoreStore],
        procs: Some(vec!["push".into(), "pop".into()]),
    };
    let r = infer(&unfenced, std::slice::from_ref(&u0), Mode::Relaxed, &config).expect("inference");
    println!(
        "   searched {} candidates with {} checks in {:.2?}",
        r.candidates, r.checks, r.elapsed
    );
    for site in &r.kept {
        println!("   keep {site}");
    }

    let inferred = Harness {
        name: "treiber-inferred-u0".into(),
        program: r.program,
        init_proc: unfenced.init_proc.clone(),
        ops: unfenced.ops.clone(),
    };
    let ui2 = tests::by_name("Ui2").expect("catalog");
    let out = check(&inferred, &ui2, Mode::Relaxed);
    println!(
        "   the U0-minimal placement on the larger Ui2 = u ( uo | ou ): {}",
        if out.passed() { "PASS" } else { "FAIL" }
    );
    println!(
        "   (the paper's caveat, §4.2: \"our method may miss some fences if\n\
         \x20   the tests do not cover the scenarios for which they are needed\")"
    );

    // --- 3. infer against both tests ---------------------------------------
    println!("\n== inferring fences for Relaxed from {{U0, Ui2}}");
    let r = infer(
        &unfenced,
        &[u0.clone(), ui2.clone()],
        Mode::Relaxed,
        &config,
    )
    .expect("inference");
    println!(
        "   searched {} candidates with {} checks in {:.2?}",
        r.candidates, r.checks, r.elapsed
    );
    for site in &r.kept {
        println!("   keep {site}");
    }
    let inferred = Harness {
        name: "treiber-inferred".into(),
        program: r.program,
        init_proc: unfenced.init_proc.clone(),
        ops: unfenced.ops.clone(),
    };
    for t in [&u0, &ui2] {
        let out = check(&inferred, t, Mode::Relaxed);
        println!(
            "   inferred build on {}: {}",
            t.name,
            if out.passed() { "PASS" } else { "FAIL" }
        );
    }
    println!(
        "   (compare the hand-placed build: a store-store publish fence in\n\
         \x20   push, a load-load dependence fence in pop)"
    );
}
