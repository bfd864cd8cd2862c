//! Cross-crate randomized test: the SAT pipeline (mini-C → LSL → symbolic
//! execution → CNF → solver) agrees with the explicit-state memory-model
//! oracle (`cf-memmodel`) on randomly generated litmus programs.
//!
//! For every generated program we compare, under every hardware model
//! (SC, TSO, PSO, Relaxed): the set of final register observations the
//! checker enumerates via iterated SAT solving against the set
//! brute-forced directly from the paper's axioms. This exercises the
//! complete stack — including fences, program order, store visibility,
//! forwarding and totality — end to end. A deterministic xorshift
//! generator replaces an external property-testing dependency.

use cf_lsl::Value;
use cf_memmodel::{Litmus, LitmusOp, Mode};
use checkfence::{Harness, OpSig, TestSpec};

/// One straight-line thread instruction.
#[derive(Clone, Copy, Debug)]
enum Instr {
    Store { addr: u8, value: i64 },
    Load { addr: u8 },
    Fence(u8), // 0..4 = ll, ls, sl, ss
}

const FENCES: [&str; 4] = ["load-load", "load-store", "store-load", "store-store"];

use cf_sat::xorshift::Rng;

fn random_instr(rng: &mut Rng) -> Instr {
    match rng.below(3) {
        0 => Instr::Store {
            addr: rng.below(2) as u8,
            value: 1 + rng.below(2) as i64,
        },
        1 => Instr::Load {
            addr: rng.below(2) as u8,
        },
        _ => Instr::Fence(rng.below(4) as u8),
    }
}

fn random_program(rng: &mut Rng) -> Vec<Vec<Instr>> {
    let num_threads = 2 + rng.below(2) as usize;
    (0..num_threads)
        .map(|_| {
            let len = 1 + rng.below(4) as usize;
            (0..len).map(|_| random_instr(rng)).collect()
        })
        .collect()
}

/// Renders a thread as one mini-C operation whose return value packs all
/// loaded registers in base 4 (values are < 3).
fn thread_source(tid: usize, instrs: &[Instr]) -> (String, usize) {
    let mut body = String::new();
    let mut loads = 0usize;
    for (i, ins) in instrs.iter().enumerate() {
        match ins {
            Instr::Store { addr, value } => {
                body.push_str(&format!("    g{addr} = {value};\n"));
            }
            Instr::Load { addr } => {
                body.push_str(&format!("    int r{i} = g{addr};\n"));
                loads += 1;
            }
            Instr::Fence(k) => {
                body.push_str(&format!("    fence(\"{}\");\n", FENCES[*k as usize]));
            }
        }
    }
    // Pack loads into one integer: sum r_i * 4^position.
    let mut ret = String::from("0");
    let mut mult = 1i64;
    for (i, ins) in instrs.iter().enumerate() {
        if matches!(ins, Instr::Load { .. }) {
            ret = format!("{ret} + r{i} * {mult}");
            mult *= 4;
        }
    }
    let fun = format!("int op{tid}() {{\n{body}    return {ret};\n}}\n");
    (fun, loads)
}

/// Builds the matching `Litmus` program for the oracle.
fn to_litmus(threads: &[Vec<Instr>]) -> Litmus {
    let mut reg = 0usize;
    let mut lt_threads = Vec::new();
    for instrs in threads {
        let mut ops = Vec::new();
        for ins in instrs {
            match ins {
                Instr::Store { addr, value } => ops.push(LitmusOp::Store {
                    addr: u32::from(*addr),
                    value: *value,
                    ord: cf_lsl::MemOrder::Plain,
                }),
                Instr::Load { addr } => {
                    ops.push(LitmusOp::Load {
                        addr: u32::from(*addr),
                        reg,
                        ord: cf_lsl::MemOrder::Plain,
                    });
                    reg += 1;
                }
                Instr::Fence(k) => ops.push(LitmusOp::Fence(
                    cf_lsl::FenceKind::parse(FENCES[*k as usize]).expect("valid"),
                )),
            }
        }
        lt_threads.push(ops);
    }
    Litmus {
        name: "random",
        threads: lt_threads,
        num_regs: reg,
    }
}

/// Packs an oracle outcome (per-register values, grouped by thread, in
/// program order) into the per-thread base-4 encoding the wrappers use.
fn pack_outcome(threads: &[Vec<Instr>], regs: &[i64]) -> Vec<Value> {
    let mut out = Vec::new();
    let mut next = 0usize;
    for instrs in threads {
        let mut packed = 0i64;
        let mut mult = 1i64;
        for ins in instrs {
            if matches!(ins, Instr::Load { .. }) {
                packed += regs[next] * mult;
                mult *= 4;
                next += 1;
            }
        }
        out.push(Value::Int(packed));
    }
    out
}

fn total_accesses(threads: &[Vec<Instr>]) -> usize {
    threads
        .iter()
        .flatten()
        .filter(|i| !matches!(i, Instr::Fence(_)))
        .count()
}

#[test]
fn sat_pipeline_matches_axiomatic_oracle() {
    let mut rng = Rng::new(0xcf05);
    let mut cases = 0usize;
    while cases < 48 {
        let threads = random_program(&mut rng);
        if total_accesses(&threads) > 8 {
            continue;
        }
        cases += 1;
        // Build the mini-C harness: globals g0, g1 plus one op per thread.
        let mut src = String::from("int g0;\nint g1;\n");
        let mut ops = Vec::new();
        for (tid, instrs) in threads.iter().enumerate() {
            let (fun, _) = thread_source(tid, instrs);
            src.push_str(&fun);
            ops.push(OpSig {
                key: char::from(b'a' + tid as u8),
                proc_name: format!("op{tid}"),
                num_args: 0,
                has_ret: true,
            });
        }
        let program = cf_minic::compile(&src).expect("generated source compiles");
        let harness = Harness {
            name: "random-litmus".into(),
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
        let test = TestSpec::parse("rand", &text).expect("test parses");
        let litmus = to_litmus(&threads);

        for mode in Mode::hardware() {
            let oracle: std::collections::BTreeSet<Vec<Value>> = litmus
                .allowed_outcomes(mode)
                .into_iter()
                .map(|regs| pack_outcome(&threads, &regs))
                .collect();
            let sat = checkfence::Engine::new(checkfence::EngineConfig::single(mode))
                .run(&checkfence::Query::enumerate(&harness, &test).on(mode))
                .expect("enumerates")
                .into_observations()
                .expect("observations");
            assert_eq!(
                sat.vectors, oracle,
                "disagreement on {mode:?} for {threads:?}\nsource:\n{src}"
            );
        }
    }
}
