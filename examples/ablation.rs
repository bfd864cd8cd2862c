//! Fig. 11-style ablation matrices on the batched mutation engine:
//! every mutant × model cell answered from one incremental encoding.
//!
//! Run with `cargo run --release --example ablation`.

use cf_algos::ablation::{run_ablation, subjects, Oracle};

fn main() {
    // A user-written model joins the matrix next to the built-ins: here
    // the bundled relaxed spec, whose column must match the built-in
    // `relaxed` column cell for cell.
    let user_spec = cf_spec::compile(cf_spec::bundled::RELAXED).expect("bundled spec compiles");
    let mut user_spec = user_spec;
    user_spec.name = "user.cfm".into();

    for name in subjects() {
        let outcome =
            run_ablation(name, &[user_spec.clone()], Oracle::Session, 1).expect("ablation runs");
        for report in &outcome.reports {
            println!("{}", report.table());
            // Retry loops in treiber/ms2 are spin-reduced, so no mutant
            // can outgrow the loop bounds: the whole matrix shares one
            // encoding. (msn/lazylist mutants may legitimately trigger
            // lazy re-unrolling, which re-encodes.)
            if matches!(name, "treiber" | "ms2") {
                assert_eq!(
                    report.encodes, 1,
                    "{name}: the whole matrix must share one encoding"
                );
            }
            // The declarative twin agrees with the built-in relaxed
            // column on every mutant.
            let builtin = report
                .models
                .iter()
                .position(|m| m == "relaxed")
                .expect("built-in relaxed column");
            let spec = report
                .models
                .iter()
                .position(|m| m == "user.cfm")
                .expect("user spec column");
            for row in &report.rows {
                assert_eq!(
                    row.verdicts[builtin].caught(),
                    row.verdicts[spec].caught(),
                    "{name}: user.cfm and built-in relaxed disagree on mutant {}",
                    row.point
                );
            }
        }
    }
    println!("all subjects: one encoding per matrix; user spec column matches built-in relaxed");
}
