//! Equivalence of the two `specs/c11.cfm` / `specs/rc11.cfm` backends
//! on the per-ordering litmus grid.
//!
//! Same discipline as `bundled_equiv.rs`, but the grid axis is the
//! *access annotation* instead of the model: for MP, SB and LB every
//! combination of per-op orderings (stores over relaxed/release/
//! seq_cst, loads over relaxed/acquire/seq_cst) is run through both
//! the explicit oracle (`interp::litmus_outcomes`) and the SAT
//! pipeline (mini-C builtins → symexec → CNF → enumeration), and the
//! two outcome sets must match exactly. IRIW's 729-variant grid is
//! covered by the uniform diagonal plus a deterministic sample.
//!
//! A hand-declared verdict block pins the classic results (MP-rel/acq
//! forbids the stale read, LB-rlx separates c11 from rc11, ...) so the
//! equivalence cannot be trivially satisfied by two backends that are
//! wrong in the same way.

use std::collections::BTreeSet;

use cf_lsl::{MemOrder, Value};
use cf_memmodel::{Litmus, LitmusOp, Mode, ModeSet};
use cf_spec::{bundled, compile, interp, ModelSpec};
use checkfence::{CheckConfig, Engine, EngineConfig, Harness, ModelSel, OpSig, Query, TestSpec};

/// One litmus slot: a store of a constant or a load into the next
/// register, with a variable ordering annotation.
#[derive(Clone, Copy, Debug)]
enum Op {
    St { addr: u8, val: i64 },
    Ld { addr: u8 },
}

type Thread = Vec<(Op, MemOrder)>;

const STORE_ORDS: [MemOrder; 3] = [MemOrder::Relaxed, MemOrder::Release, MemOrder::SeqCst];
const LOAD_ORDS: [MemOrder; 3] = [MemOrder::Relaxed, MemOrder::Acquire, MemOrder::SeqCst];

// ------------------------------------------------------------- shapes

/// Message passing: T0 publishes data then flag, T1 reads flag then
/// data. Registers: r0 = flag, r1 = data.
fn mp(ords: &[MemOrder; 4]) -> Vec<Thread> {
    vec![
        vec![
            (Op::St { addr: 0, val: 1 }, ords[0]), // data
            (Op::St { addr: 1, val: 1 }, ords[1]), // flag
        ],
        vec![
            (Op::Ld { addr: 1 }, ords[2]), // r0 = flag
            (Op::Ld { addr: 0 }, ords[3]), // r1 = data
        ],
    ]
}

/// Store buffering: each thread writes its own flag then reads the
/// other. Registers: r0 = T0's read, r1 = T1's read.
fn sb(ords: &[MemOrder; 4]) -> Vec<Thread> {
    vec![
        vec![
            (Op::St { addr: 0, val: 1 }, ords[0]),
            (Op::Ld { addr: 1 }, ords[1]),
        ],
        vec![
            (Op::St { addr: 1, val: 1 }, ords[2]),
            (Op::Ld { addr: 0 }, ords[3]),
        ],
    ]
}

/// Load buffering: each thread reads one location then writes the
/// other. Registers: r0 = T0's read, r1 = T1's read.
fn lb(ords: &[MemOrder; 4]) -> Vec<Thread> {
    vec![
        vec![
            (Op::Ld { addr: 0 }, ords[0]),
            (Op::St { addr: 1, val: 1 }, ords[1]),
        ],
        vec![
            (Op::Ld { addr: 1 }, ords[2]),
            (Op::St { addr: 0, val: 1 }, ords[3]),
        ],
    ]
}

/// Independent reads of independent writes. Registers r0..r3 in thread
/// order.
fn iriw(ords: &[MemOrder; 6]) -> Vec<Thread> {
    vec![
        vec![(Op::St { addr: 0, val: 1 }, ords[0])],
        vec![(Op::St { addr: 1, val: 1 }, ords[1])],
        vec![(Op::Ld { addr: 0 }, ords[2]), (Op::Ld { addr: 1 }, ords[3])],
        vec![(Op::Ld { addr: 1 }, ords[4]), (Op::Ld { addr: 0 }, ords[5])],
    ]
}

// ---------------------------------------------------- the two backends

/// Renders the shape as a mini-C harness using the ordering builtins.
fn minic_source(threads: &[Thread]) -> String {
    let mut src = String::from("int g0;\nint g1;\n");
    for (tid, ops) in threads.iter().enumerate() {
        let mut body = String::new();
        let mut ret = String::from("0");
        let mut mult = 1i64;
        for (i, (op, ord)) in ops.iter().enumerate() {
            match op {
                Op::St { addr, val } => {
                    body.push_str(&format!("    store(g{addr}, {}, {val});\n", ord.as_str()));
                }
                Op::Ld { addr } => {
                    body.push_str(&format!(
                        "    int r{i} = load(g{addr}, {});\n",
                        ord.as_str()
                    ));
                    ret = format!("{ret} + r{i} * {mult}");
                    mult *= 4;
                }
            }
        }
        src.push_str(&format!("int op{tid}() {{\n{body}    return {ret};\n}}\n"));
    }
    src
}

/// The matching oracle litmus program.
fn to_litmus(threads: &[Thread]) -> Litmus {
    let mut reg = 0usize;
    let mut lt = Vec::new();
    for ops in threads {
        let mut out = Vec::new();
        for (op, ord) in ops {
            match op {
                Op::St { addr, val } => out.push(LitmusOp::Store {
                    addr: u32::from(*addr),
                    value: *val,
                    ord: *ord,
                }),
                Op::Ld { addr } => {
                    out.push(LitmusOp::Load {
                        addr: u32::from(*addr),
                        reg,
                        ord: *ord,
                    });
                    reg += 1;
                }
            }
        }
        lt.push(out);
    }
    Litmus {
        name: "c11-grid",
        threads: lt,
        num_regs: reg,
    }
}

/// Packs one oracle outcome into the per-thread base-4 observation the
/// mini-C wrappers return.
fn pack(threads: &[Thread], regs: &[i64]) -> Vec<Value> {
    let mut out = Vec::new();
    let mut next = 0usize;
    for ops in threads {
        let mut packed = 0i64;
        let mut mult = 1i64;
        for (op, _) in ops {
            if matches!(op, Op::Ld { .. }) {
                packed += regs[next] * mult;
                mult *= 4;
                next += 1;
            }
        }
        out.push(Value::Int(packed));
    }
    out
}

fn oracle_outcomes(threads: &[Thread], spec: &ModelSpec) -> BTreeSet<Vec<Value>> {
    interp::litmus_outcomes(&to_litmus(threads), spec)
        .into_iter()
        .map(|regs| pack(threads, &regs))
        .collect()
}

fn sat_outcomes(threads: &[Thread], spec: &ModelSpec) -> BTreeSet<Vec<Value>> {
    let src = minic_source(threads);
    let program = cf_minic::compile(&src).expect("grid source compiles");
    let ops = (0..threads.len())
        .map(|tid| OpSig {
            key: char::from(b'a' + tid as u8),
            proc_name: format!("op{tid}"),
            num_args: 0,
            has_ret: true,
        })
        .collect();
    let harness = Harness {
        name: "c11-grid".into(),
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
    let test = TestSpec::parse("grid", &text).expect("test parses");
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

fn assert_equiv(threads: &[Thread], spec: &ModelSpec, label: &str) {
    let oracle = oracle_outcomes(threads, spec);
    let sat = sat_outcomes(threads, spec);
    assert_eq!(
        sat,
        oracle,
        "{label} under {}: SAT pipeline and explicit oracle disagree\nsource:\n{}",
        spec.name,
        minic_source(threads)
    );
}

fn c11_and_rc11() -> (ModelSpec, ModelSpec) {
    (
        compile(bundled::C11).expect("c11 compiles"),
        compile(bundled::RC11).expect("rc11 compiles"),
    )
}

// ---------------------------------------------------------- grid tests

fn grid4(shape: fn(&[MemOrder; 4]) -> Vec<Thread>, slots: [&[MemOrder; 3]; 4], label: &str) {
    let (c11, rc11) = c11_and_rc11();
    for a in slots[0] {
        for b in slots[1] {
            for c in slots[2] {
                for d in slots[3] {
                    let threads = shape(&[*a, *b, *c, *d]);
                    let tag = format!("{label}[{a} {b} {c} {d}]");
                    assert_equiv(&threads, &c11, &tag);
                    assert_equiv(&threads, &rc11, &tag);
                }
            }
        }
    }
}

#[test]
fn mp_full_ordering_grid() {
    grid4(mp, [&STORE_ORDS, &STORE_ORDS, &LOAD_ORDS, &LOAD_ORDS], "MP");
}

#[test]
fn sb_full_ordering_grid() {
    grid4(sb, [&STORE_ORDS, &LOAD_ORDS, &STORE_ORDS, &LOAD_ORDS], "SB");
}

#[test]
fn lb_full_ordering_grid() {
    grid4(lb, [&LOAD_ORDS, &STORE_ORDS, &LOAD_ORDS, &STORE_ORDS], "LB");
}

#[test]
fn iriw_diagonal_and_sampled_grid() {
    let (c11, rc11) = c11_and_rc11();
    // Uniform diagonal: everything at the same strength.
    for (so, lo) in STORE_ORDS.iter().zip(LOAD_ORDS) {
        let threads = iriw(&[*so, *so, lo, lo, lo, lo]);
        let tag = format!("IRIW[{so}/{lo}]");
        assert_equiv(&threads, &c11, &tag);
        assert_equiv(&threads, &rc11, &tag);
    }
    // Deterministic xorshift sample of the mixed grid.
    let mut state = 0x00c1_1c11_u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize
    };
    for _ in 0..21 {
        let ords = [
            STORE_ORDS[next() % 3],
            STORE_ORDS[next() % 3],
            LOAD_ORDS[next() % 3],
            LOAD_ORDS[next() % 3],
            LOAD_ORDS[next() % 3],
            LOAD_ORDS[next() % 3],
        ];
        let threads = iriw(&ords);
        let tag = format!("IRIW{ords:?}");
        assert_equiv(&threads, &c11, &tag);
        assert_equiv(&threads, &rc11, &tag);
    }
}

// ------------------------------------------------- pinned hand verdicts

/// The classic results, declared by hand so backend agreement cannot
/// hide a shared bug.
#[test]
fn pinned_verdicts() {
    let (c11, rc11) = c11_and_rc11();
    let rlx = MemOrder::Relaxed;

    // MP with release/acquire on the flag forbids the stale read
    // (r0 = flag = 1, r1 = data = 0); all-relaxed allows it.
    let mp_ra = to_litmus(&mp(&[rlx, MemOrder::Release, MemOrder::Acquire, rlx]));
    assert!(!interp::litmus_allows(&mp_ra, &c11, &[1, 0]));
    let mp_rlx = to_litmus(&mp(&[rlx; 4]));
    assert!(interp::litmus_allows(&mp_rlx, &c11, &[1, 0]));

    // SB: both loads reading 0 needs seq_cst everywhere; even
    // release/acquire pairs leave it allowed.
    let sc = MemOrder::SeqCst;
    let sb_sc = to_litmus(&sb(&[sc; 4]));
    assert!(!interp::litmus_allows(&sb_sc, &c11, &[0, 0]));
    let sb_ra = to_litmus(&sb(&[
        MemOrder::Release,
        MemOrder::Acquire,
        MemOrder::Release,
        MemOrder::Acquire,
    ]));
    assert!(interp::litmus_allows(&sb_ra, &c11, &[0, 0]));

    // LB all-relaxed separates the two models: c11 admits the cycle,
    // rc11's no-thin-air axiom does not.
    let lb_rlx = to_litmus(&lb(&[rlx; 4]));
    assert!(interp::litmus_allows(&lb_rlx, &c11, &[1, 1]));
    assert!(!interp::litmus_allows(&lb_rlx, &rc11, &[1, 1]));
    // Acquire loads restore the order in both.
    let lb_acq = to_litmus(&lb(&[MemOrder::Acquire, rlx, MemOrder::Acquire, rlx]));
    assert!(!interp::litmus_allows(&lb_acq, &c11, &[1, 1]));

    // IRIW: relaxed readers may disagree on the store order; acquire
    // readers may not (the engine's single total memory order makes
    // the model multi-copy-atomic — stronger than the C11 standard,
    // which allows IRIW even with acquire loads).
    let split = [1, 0, 1, 0];
    let iriw_rlx = to_litmus(&iriw(&[rlx; 6]));
    assert!(interp::litmus_allows(&iriw_rlx, &c11, &split));
    let acq = MemOrder::Acquire;
    let iriw_acq = to_litmus(&iriw(&[rlx, rlx, acq, acq, acq, acq]));
    assert!(!interp::litmus_allows(&iriw_acq, &c11, &split));
}
