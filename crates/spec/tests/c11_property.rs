//! Randomized ordering-annotation properties, `query_equiv.rs` style
//! (deterministic xorshift so failures replay bit for bit).
//!
//! For random fence-free straight-line programs over two locations:
//!
//! 1. annotating *every* access `seq_cst` yields exactly the outcome
//!    set of the unannotated twin under `specs/sc.cfm` — blanket
//!    seq_cst is sequential consistency;
//! 2. annotating every access `relaxed` yields an outcome set no
//!    larger than the unannotated twin under `specs/relaxed.cfm` —
//!    all-relaxed c11 still enforces per-location coherence (it
//!    forbids CoRR, which the paper's Relaxed model allows), so it may
//!    be strictly stronger but never weaker.

use std::collections::BTreeSet;

use cf_lsl::{MemOrder, Value};
use cf_memmodel::{Mode, ModeSet};
use cf_sat::xorshift::Rng;
use cf_spec::{bundled, compile, ModelSpec};
use checkfence::{CheckConfig, Engine, EngineConfig, Harness, ModelSel, OpSig, Query, TestSpec};

/// One straight-line access; `None` ordering renders the unannotated
/// plain form.
#[derive(Clone, Copy, Debug)]
enum Instr {
    Store { addr: u8, value: i64 },
    Load { addr: u8 },
}

fn random_program(rng: &mut Rng) -> Vec<Vec<Instr>> {
    let num_threads = 2 + rng.below(2) as usize;
    (0..num_threads)
        .map(|_| {
            let len = 1 + rng.below(3) as usize;
            (0..len)
                .map(|_| {
                    if rng.below(2) == 0 {
                        Instr::Store {
                            addr: rng.below(2) as u8,
                            value: 1 + rng.below(2) as i64,
                        }
                    } else {
                        Instr::Load {
                            addr: rng.below(2) as u8,
                        }
                    }
                })
                .collect()
        })
        .collect()
}

/// Renders the program as mini-C, annotated with `ord` or plain.
fn source(threads: &[Vec<Instr>], ord: Option<MemOrder>) -> String {
    let mut src = String::from("int g0;\nint g1;\n");
    for (tid, instrs) in threads.iter().enumerate() {
        let mut body = String::new();
        let mut ret = String::from("0");
        let mut mult = 1i64;
        for (i, ins) in instrs.iter().enumerate() {
            match (ins, ord) {
                (Instr::Store { addr, value }, Some(o)) => {
                    body.push_str(&format!("    store(g{addr}, {}, {value});\n", o.as_str()));
                }
                (Instr::Store { addr, value }, None) => {
                    body.push_str(&format!("    g{addr} = {value};\n"));
                }
                (Instr::Load { addr }, Some(o)) => {
                    body.push_str(&format!("    int r{i} = load(g{addr}, {});\n", o.as_str()));
                }
                (Instr::Load { addr }, None) => {
                    body.push_str(&format!("    int r{i} = g{addr};\n"));
                }
            }
            if matches!(ins, Instr::Load { .. }) {
                ret = format!("{ret} + r{i} * {mult}");
                mult *= 4;
            }
        }
        src.push_str(&format!("int op{tid}() {{\n{body}    return {ret};\n}}\n"));
    }
    src
}

/// Enumerates the observation set of a rendered program under a spec.
fn outcomes(
    threads: &[Vec<Instr>],
    ord: Option<MemOrder>,
    spec: &ModelSpec,
) -> BTreeSet<Vec<Value>> {
    let src = source(threads, ord);
    let program = cf_minic::compile(&src).expect("generated source compiles");
    let ops = (0..threads.len())
        .map(|tid| OpSig {
            key: char::from(b'a' + tid as u8),
            proc_name: format!("op{tid}"),
            num_args: 0,
            has_ret: true,
        })
        .collect();
    let harness = Harness {
        name: "c11-prop".into(),
        program,
        init_proc: None,
        ops,
    };
    let text = format!(
        "( {} )",
        (0..threads.len())
            .map(|t| char::from(b'a' + t as u8).to_string())
            .collect::<Vec<_>>()
            .join(" | ")
    );
    let test = TestSpec::parse("prop", &text).expect("test parses");
    let config =
        EngineConfig::from_check_config(&CheckConfig::default(), ModeSet::single(Mode::Relaxed))
            .with_specs(vec![spec.clone()]);
    Engine::new(config)
        .run(&Query::enumerate(&harness, &test).on_model(ModelSel::Spec(0)))
        .expect("enumerates")
        .into_observations()
        .expect("observations")
        .vectors
}

#[test]
fn all_seq_cst_is_sequential_consistency() {
    let c11 = compile(bundled::C11).expect("c11 compiles");
    let sc = compile(bundled::SC).expect("sc compiles");
    let mut rng = Rng::new(0x5e9_c57);
    for _ in 0..32 {
        let threads = random_program(&mut rng);
        let annotated = outcomes(&threads, Some(MemOrder::SeqCst), &c11);
        let plain = outcomes(&threads, None, &sc);
        assert_eq!(
            annotated,
            plain,
            "all-seq_cst c11 must equal sc on {threads:?}\nsource:\n{}",
            source(&threads, Some(MemOrder::SeqCst))
        );
    }
}

#[test]
fn all_relaxed_is_no_weaker_than_relaxed_model() {
    let c11 = compile(bundled::C11).expect("c11 compiles");
    let relaxed = compile(bundled::RELAXED).expect("relaxed compiles");
    let mut rng = Rng::new(0x0c11_bead);
    let mut strictly_stronger = 0usize;
    for _ in 0..32 {
        let threads = random_program(&mut rng);
        let annotated = outcomes(&threads, Some(MemOrder::Relaxed), &c11);
        let plain = outcomes(&threads, None, &relaxed);
        assert!(
            annotated.is_subset(&plain),
            "all-relaxed c11 produced outcomes relaxed.cfm forbids on {threads:?}\nsource:\n{}",
            source(&threads, Some(MemOrder::Relaxed))
        );
        if annotated != plain {
            strictly_stronger += 1;
        }
    }
    // The inclusion must not be vacuous equality everywhere: c11's
    // coherence axiom really prunes some outcome (e.g. CoRR) on at
    // least one sampled program.
    assert!(
        strictly_stronger > 0,
        "sample never exercised the coherence difference; grow the sample"
    );
}
