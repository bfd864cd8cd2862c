//! Automatic fence inference: let the tool *derive* the placements the
//! paper found by hand (§4.2–4.3).
//!
//! Run with `cargo run --release --example fence_inference`.
//!
//! Two demonstrations:
//!
//! 1. A two-operation "mailbox" (the message-passing idiom underlying
//!    the paper's "incomplete initialization" failures): inference
//!    discovers the classic repair — a store-store fence in the writer,
//!    a load-load fence in the reader — from nothing but the test.
//! 2. Michael & Scott's nonblocking queue on PSO: starting from the
//!    *unfenced* published algorithm, inference rediscovers the
//!    store-store placements of the paper's Fig. 9 (lines 29/44); the
//!    five load-load placements are not inferred because PSO keeps
//!    loads in order (the §4.2 architecture observation).

use cf_lsl::FenceKind;
use cf_memmodel::Mode;
use checkfence::infer::{infer, InferConfig, InferenceResult};
use checkfence::{Harness, OpSig, TestSpec};

fn report(what: &str, r: &InferenceResult) {
    println!("\n== {what}");
    println!(
        "   searched {} candidate sites with {} inclusion checks in {:.2?}",
        r.candidates, r.checks, r.elapsed
    );
    if r.kept.is_empty() {
        println!("   no fences needed");
    }
    for site in &r.kept {
        println!("   keep {site}");
    }
}

fn mailbox() -> Harness {
    let program = cf_minic::compile(
        r#"
        int data; int flag;
        void put(int v) { data = v + 1; flag = 1; }
        int get() { int f = flag; if (f == 0) { return 0 - 1; } return data; }
        "#,
    )
    .expect("compiles");
    Harness {
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
    }
}

fn main() {
    // --- 1. the mailbox, on three models --------------------------------
    let h = mailbox();
    let tests = vec![TestSpec::parse("pg", "( p | g )").expect("parses")];
    for mode in [Mode::Relaxed, Mode::Pso, Mode::Tso] {
        let r = infer(&h, &tests, mode, &InferConfig::default()).expect("inference");
        report(&format!("mailbox on {}", mode.name()), &r);
    }

    // --- 2. unfenced msn on PSO ------------------------------------------
    // Restrict the search to the algorithm procedures and to store-store
    // candidates (PSO never reorders loads, so no other kind can matter).
    let msn = cf_algos::msn::harness(cf_algos::Variant::Unfenced);
    let tests = vec![cf_algos::tests::by_name("T0").expect("catalog")];
    let config = InferConfig {
        kinds: vec![FenceKind::StoreStore],
        procs: Some(vec!["enqueue".into(), "dequeue".into()]),
    };
    let r = infer(&msn, &tests, Mode::Pso, &config).expect("inference");
    report("unfenced msn on pso (store-store candidates)", &r);
    println!(
        "\n   (compare: the paper's Fig. 9 line 29 — node fields must be\n\
         \x20   published before the linking CAS. Inference places the fence\n\
         \x20   just before the CAS inside the retry loop, which protects the\n\
         \x20   same ordering. Fig. 9's *second* store-store fence, line 44\n\
         \x20   between the linking and tail-swinging CAS, is not needed on\n\
         \x20   PSO: each CAS begins with a load, and PSO keeps load→load and\n\
         \x20   load→store order, so consecutive CAS blocks never reorder —\n\
         \x20   that fence is only load-bearing on Relaxed.)"
    );
}
