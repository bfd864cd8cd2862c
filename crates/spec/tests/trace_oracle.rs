//! Randomized differential tests for the trace oracle
//! (`interp::trace_allowed`).
//!
//! The oracle cuts its linearization search short (load values checked
//! at placement, dead prefixes memoized); these tests pin that it still
//! answers exactly like plain enumeration:
//!
//! * on seeded random traces, every bundled mode twin agrees with the
//!   legacy `ConcreteTrace::allowed` of its `Mode`;
//! * on every candidate outcome of the litmus catalog — as written and
//!   with seeded re-drawn orderings and stored values — the trace
//!   oracle agrees with the litmus oracle (`interp::litmus_outcomes`,
//!   which enumerates every order) under all seven bundled specs —
//!   covering `c11`/`rc11`, which have no legacy twin — and two specs
//!   that pair dynamic axioms with forwarding off.

use std::collections::BTreeSet;

use cf_lsl::{FenceKind, MemOrder, Value};
use cf_memmodel::{litmus, AccessKind, ConcreteTrace, Litmus, LitmusOp, Mode, TraceItem};
use cf_sat::xorshift::Rng;
use cf_spec::{bundled, compile, interp};

const FENCES: [FenceKind; 4] = [
    FenceKind::LoadLoad,
    FenceKind::LoadStore,
    FenceKind::StoreLoad,
    FenceKind::StoreStore,
];

fn access(kind: AccessKind, addr: u32, value: i64, group: Option<u32>, ord: MemOrder) -> TraceItem {
    TraceItem::Access {
        kind,
        addr: vec![addr],
        value: Value::Int(value),
        group,
        ord,
    }
}

fn pick<T: Copy>(rng: &mut Rng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

/// A random trace: 2–3 threads, 2–7 accesses over two addresses,
/// values 0–2, random classic fences between accesses, and some
/// two-access atomic groups. Most loads carry a value that the initial
/// memory or some same-address store supplies, so both verdicts occur.
fn random_trace(rng: &mut Rng) -> ConcreteTrace {
    let threads = 2 + rng.below(2) as usize;
    let accesses = threads + rng.below(8 - threads as u64) as usize;
    let mut per_thread = vec![1; threads];
    for _ in threads..accesses {
        per_thread[rng.below(threads as u64) as usize] += 1;
    }
    // (kind, address, stored value) per access.
    let shapes: Vec<Vec<(AccessKind, u32, i64)>> = per_thread
        .iter()
        .map(|&k| {
            (0..k)
                .map(|_| {
                    let kind = pick(rng, &[AccessKind::Load, AccessKind::Store]);
                    (kind, rng.below(2) as u32, rng.below(3) as i64)
                })
                .collect()
        })
        .collect();
    let init: Vec<i64> = (0..2).map(|_| rng.below(3) as i64).collect();
    let supplied = |addr: u32| -> Vec<i64> {
        let stores = shapes.iter().flatten();
        let stored = stores.filter(|(k, a, _)| *k == AccessKind::Store && *a == addr);
        std::iter::once(init[addr as usize])
            .chain(stored.map(|&(_, _, v)| v))
            .collect()
    };
    let mut items = Vec::new();
    for shape in &shapes {
        let mut thread = Vec::new();
        let mut groups = 0;
        // The group the previous access opened, which this one closes.
        let mut open = None;
        for (i, &(kind, addr, stored)) in shape.iter().enumerate() {
            let group = if let Some(g) = open.take() {
                Some(g)
            } else {
                if i > 0 && rng.below(4) == 0 {
                    thread.push(TraceItem::Fence(pick(rng, &FENCES)));
                }
                if i + 1 < shape.len() && rng.below(4) == 0 {
                    groups += 1;
                    open = Some(groups);
                }
                open
            };
            let value = match kind {
                AccessKind::Store => stored,
                AccessKind::Load if rng.below(4) == 0 => rng.below(3) as i64,
                AccessKind::Load => pick(rng, &supplied(addr)),
            };
            thread.push(access(kind, addr, value, group, MemOrder::Plain));
        }
        items.push(thread);
    }
    ConcreteTrace {
        threads: items,
        init: [
            (vec![0], Value::Int(init[0])),
            (vec![1], Value::Int(init[1])),
        ]
        .into(),
    }
}

#[test]
fn trace_oracle_matches_the_legacy_oracle_on_random_traces() {
    let specs: Vec<_> = Mode::all()
        .into_iter()
        .map(|m| (m, bundled::for_mode(m)))
        .collect();
    let mut rng = Rng::new(0x7ace);
    let (mut allowed, mut rejected) = (0usize, 0usize);
    for i in 0..6000 {
        let trace = random_trace(&mut rng);
        for (mode, spec) in &specs {
            let want = trace.allowed(*mode);
            assert_eq!(
                interp::trace_allowed(&trace, spec),
                want,
                "trace #{i} under {}: {trace:?}",
                spec.name
            );
            if want {
                allowed += 1;
            } else {
                rejected += 1;
            }
        }
    }
    // The generator exercises both verdicts in earnest.
    assert!(allowed * 5 > allowed + rejected, "{allowed} allowed");
    assert!(rejected * 5 > allowed + rejected, "{rejected} rejected");
}

/// The catalog test with its orderings and stored values re-drawn: each
/// access gets a random ordering valid for its kind (or stays plain),
/// each store a value 0–2 (so a load's value may no longer say which
/// store, or the initial value, it read), and each classic fence may
/// become a C11 fence.
fn redrawn(test: &Litmus, rng: &mut Rng) -> Litmus {
    let threads = test
        .threads
        .iter()
        .map(|ops| {
            ops.iter()
                .map(|&op| match op {
                    LitmusOp::Store { addr, .. } => LitmusOp::Store {
                        addr,
                        value: rng.below(3) as i64,
                        ord: pick(
                            rng,
                            &[
                                MemOrder::Plain,
                                MemOrder::Relaxed,
                                MemOrder::Release,
                                MemOrder::SeqCst,
                            ],
                        ),
                    },
                    LitmusOp::Load { addr, reg, .. } => LitmusOp::Load {
                        addr,
                        reg,
                        ord: pick(
                            rng,
                            &[
                                MemOrder::Plain,
                                MemOrder::Relaxed,
                                MemOrder::Acquire,
                                MemOrder::SeqCst,
                            ],
                        ),
                    },
                    LitmusOp::Fence(_) if rng.bool() => LitmusOp::CFence(pick(
                        rng,
                        &[
                            MemOrder::Acquire,
                            MemOrder::Release,
                            MemOrder::AcqRel,
                            MemOrder::SeqCst,
                        ],
                    )),
                    op => op,
                })
                .collect()
        })
        .collect();
    Litmus {
        name: test.name,
        threads,
        num_regs: test.num_regs,
    }
}

/// Every register's candidate values, if each register has exactly one
/// writing load: the initial 0 plus every value stored to its address.
fn register_candidates(test: &Litmus) -> Option<Vec<BTreeSet<i64>>> {
    let ops = || test.threads.iter().flatten();
    let mut candidates = Vec::new();
    for r in 0..test.num_regs {
        let mut writers = ops().filter_map(|op| match *op {
            LitmusOp::Load { addr, reg, .. } if reg == r => Some(addr),
            _ => None,
        });
        let (Some(addr), None) = (writers.next(), writers.next()) else {
            return None;
        };
        let stored = ops().filter_map(|op| match *op {
            LitmusOp::Store { addr: a, value, .. } if a == addr => Some(value),
            _ => None,
        });
        candidates.push(std::iter::once(0).chain(stored).collect());
    }
    Some(candidates)
}

/// The litmus test as a concrete trace whose loads carry `outcome`.
fn annotated_trace(test: &Litmus, outcome: &[i64]) -> ConcreteTrace {
    let mut trace = ConcreteTrace::default();
    let init = &mut trace.init;
    trace.threads = test
        .threads
        .iter()
        .map(|ops| {
            ops.iter()
                .map(|&op| match op {
                    LitmusOp::Store { addr, value, ord } => {
                        init.insert(vec![addr], Value::Int(0));
                        access(AccessKind::Store, addr, value, None, ord)
                    }
                    LitmusOp::Load { addr, reg, ord } => {
                        init.insert(vec![addr], Value::Int(0));
                        access(AccessKind::Load, addr, outcome[reg], None, ord)
                    }
                    LitmusOp::Fence(k) => TraceItem::Fence(k),
                    LitmusOp::CFence(o) => TraceItem::CFence(o),
                })
                .collect()
        })
        .collect();
    trace
}

#[test]
fn trace_oracle_matches_the_litmus_oracle_on_every_candidate_outcome() {
    // The bundled specs, plus two that pair dynamic axioms with
    // forwarding off: there the search must not memoize dead prefixes,
    // because their key does not record what earlier loads read.
    let mut specs = bundled::all();
    specs.push(compile("model local\norder po\nempty rf & ext").expect("compiles"));
    let c11_unforwarded = bundled::C11
        .replace("model c11", "model c11_unforwarded")
        .replace("option forwarding", "");
    specs.push(compile(&c11_unforwarded).expect("compiles"));
    let mut rng = Rng::new(0x11705);
    let mut tests = Vec::new();
    for test in litmus::all() {
        for _ in 0..3 {
            tests.push(redrawn(&test, &mut rng));
        }
        tests.push(test);
    }
    let mut cells = 0usize;
    for test in &tests {
        let Some(candidates) = register_candidates(test) else {
            continue;
        };
        let mut outcomes = vec![Vec::new()];
        for values in &candidates {
            outcomes = outcomes
                .into_iter()
                .flat_map(|prefix| {
                    values.iter().map(move |&v| {
                        let mut o = prefix.clone();
                        o.push(v);
                        o
                    })
                })
                .collect();
        }
        for spec in &specs {
            let allowed = interp::litmus_outcomes(test, spec);
            for outcome in &outcomes {
                assert_eq!(
                    interp::trace_allowed(&annotated_trace(test, outcome), spec),
                    allowed.contains(outcome),
                    "{} under {} with outcome {outcome:?}: {test:?}",
                    test.name,
                    spec.name
                );
                cells += 1;
            }
        }
    }
    assert!(cells > 1000, "only {cells} cells checked");
}
