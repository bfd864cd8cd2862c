//! Explicit-state checking of the memory model axioms.
//!
//! This module brute-forces the existential quantifier in the axioms of
//! §2.3.2 — "there exists a total memory order `<M` such that ..." — by
//! enumerating all linearizations of the per-thread access sequences that
//! respect the required program-order edges. It is exponential and only
//! usable for litmus-sized programs, which is exactly its purpose: it is
//! the *oracle* against which the SAT encoding is validated, and the
//! reference for the Fig. 2 experiment.

use std::collections::{BTreeMap, BTreeSet};

use cf_lsl::{FenceKind, MemOrder, Value};

use crate::rules::{c11_fence_orders, fence_orders, AccessKind, Mode};

/// One item in a thread of a concrete trace.
#[derive(Clone, PartialEq, Debug)]
pub enum TraceItem {
    /// A memory access with its annotated execution value.
    Access {
        /// Load or store.
        kind: AccessKind,
        /// Absolute location path.
        addr: Vec<u32>,
        /// The value loaded or stored.
        value: Value,
        /// Atomic-block group (scoped to the thread), if any.
        group: Option<u32>,
        /// C11-style ordering annotation (`Plain` for classic accesses).
        ord: MemOrder,
    },
    /// A classic two-sided memory ordering fence.
    Fence(FenceKind),
    /// A C11-style ordering fence.
    CFence(MemOrder),
}

/// A complete annotated execution trace `e = (w1, ..., wn)` (§2.3.1).
#[derive(Clone, Default, PartialEq, Debug)]
pub struct ConcreteTrace {
    /// Per-thread instruction sequences.
    pub threads: Vec<Vec<TraceItem>>,
    /// Initial memory values `i(a)`; locations absent here start
    /// undefined.
    pub init: BTreeMap<Vec<u32>, Value>,
}

#[derive(Clone, Debug)]
struct Access {
    thread: usize,
    item_index: usize,
    kind: AccessKind,
    addr: Vec<u32>,
    value: Value,
    group: Option<(usize, u32)>,
}

impl ConcreteTrace {
    fn accesses(&self) -> Vec<Access> {
        let mut out = Vec::new();
        for (t, items) in self.threads.iter().enumerate() {
            for (i, item) in items.iter().enumerate() {
                if let TraceItem::Access {
                    kind,
                    addr,
                    value,
                    group,
                    ..
                } = item
                {
                    out.push(Access {
                        thread: t,
                        item_index: i,
                        kind: *kind,
                        addr: addr.clone(),
                        value: value.clone(),
                        group: group.map(|g| (t, g)),
                    });
                }
            }
        }
        out
    }

    /// Required `x <M y` edges between access indices (into the vector
    /// returned by `accesses`).
    fn required_edges(&self, accesses: &[Access], mode: Mode) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for (i, x) in accesses.iter().enumerate() {
            for (j, y) in accesses.iter().enumerate() {
                if x.thread != y.thread || x.item_index >= y.item_index {
                    continue;
                }
                let same_addr = x.addr == y.addr;
                let mut required = mode.po_edge_required(x.kind, y.kind, same_addr);
                // Fences between x and y.
                if !required {
                    for item in &self.threads[x.thread][x.item_index + 1..y.item_index] {
                        let orders = match item {
                            TraceItem::Fence(k) => fence_orders(*k, x.kind, y.kind),
                            TraceItem::CFence(o) => c11_fence_orders(*o, x.kind, y.kind),
                            TraceItem::Access { .. } => false,
                        };
                        if orders {
                            required = true;
                            break;
                        }
                    }
                }
                // Atomic blocks execute in program order internally.
                if !required && x.group.is_some() && x.group == y.group {
                    required = true;
                }
                if required {
                    edges.push((i, j));
                }
            }
        }
        edges
    }

    /// Does some total memory order satisfy the axioms of `mode` for this
    /// annotated trace?
    ///
    /// Checks: the required ordering edges (axiom 1 plus fences), atomic
    /// block contiguity, and the value axioms 2–3 against the annotated
    /// load values.
    ///
    /// # Panics
    ///
    /// Panics if the trace has more than 12 accesses (the brute-force
    /// search is factorial; the SAT path handles bigger programs).
    pub fn allowed(&self, mode: Mode) -> bool {
        let accesses = self.accesses();
        assert!(
            accesses.len() <= 12,
            "explicit-state check limited to 12 accesses"
        );
        let edges = self.required_edges(&accesses, mode);
        let mut order = Vec::with_capacity(accesses.len());
        let mut used = vec![false; accesses.len()];
        self.search(&accesses, &edges, mode, &mut order, &mut used)
    }

    fn search(
        &self,
        accesses: &[Access],
        edges: &[(usize, usize)],
        mode: Mode,
        order: &mut Vec<usize>,
        used: &mut Vec<bool>,
    ) -> bool {
        if order.len() == accesses.len() {
            return self.check_values(accesses, order, mode);
        }
        'next: for c in 0..accesses.len() {
            if used[c] {
                continue;
            }
            // All required predecessors placed?
            for &(a, b) in edges {
                if b == c && !used[a] {
                    continue 'next;
                }
            }
            // Atomic group contiguity: if the group of `c` is already
            // open (some members placed, some not), `c` must belong to it;
            // conversely if `c` opens a group it is fine.
            if let Some(last) = order.last() {
                let open_group = accesses[*last].group.filter(|g| {
                    accesses
                        .iter()
                        .enumerate()
                        .any(|(i, a)| !used[i] && a.group == Some(*g))
                });
                if let Some(g) = open_group {
                    if accesses[c].group != Some(g) {
                        continue 'next;
                    }
                }
            }
            used[c] = true;
            order.push(c);
            if self.search(accesses, edges, mode, order, used) {
                used[c] = false;
                order.pop();
                return true;
            }
            used[c] = false;
            order.pop();
        }
        false
    }

    /// Value axioms 2–3 for a candidate total order.
    fn check_values(&self, accesses: &[Access], order: &[usize], mode: Mode) -> bool {
        let pos: BTreeMap<usize, usize> = order.iter().enumerate().map(|(p, &a)| (a, p)).collect();
        for (l_idx, l) in accesses.iter().enumerate() {
            if l.kind != AccessKind::Load {
                continue;
            }
            // Visible stores S(l).
            let mut max_store: Option<usize> = None;
            for (s_idx, s) in accesses.iter().enumerate() {
                if s.kind != AccessKind::Store || s.addr != l.addr {
                    continue;
                }
                let before_m = pos[&s_idx] < pos[&l_idx];
                let forwarded =
                    mode.allows_forwarding() && s.thread == l.thread && s.item_index < l.item_index;
                if before_m || forwarded {
                    max_store = Some(match max_store {
                        None => s_idx,
                        Some(m) if pos[&s_idx] > pos[&m] => s_idx,
                        Some(m) => m,
                    });
                }
            }
            let expected = match max_store {
                Some(s) => accesses[s].value.clone(),
                None => self.init.get(&l.addr).cloned().unwrap_or(Value::Undefined),
            };
            if l.value != expected {
                return false;
            }
        }
        true
    }
}

// ---------------------------------------------------------------- litmus

/// One instruction of a litmus thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LitmusOp {
    /// Store a constant.
    Store {
        /// Location (small integer).
        addr: u32,
        /// Stored value.
        value: i64,
        /// C11-style ordering annotation (`Plain` for classic tests).
        ord: MemOrder,
    },
    /// Load into an observation register.
    Load {
        /// Location.
        addr: u32,
        /// Output register index.
        reg: usize,
        /// C11-style ordering annotation (`Plain` for classic tests).
        ord: MemOrder,
    },
    /// A classic two-sided fence.
    Fence(FenceKind),
    /// A C11-style ordering fence.
    CFence(MemOrder),
}

/// A litmus test: straight-line threads over integer locations
/// (initially 0), observing loads into registers.
#[derive(Clone, PartialEq, Debug)]
pub struct Litmus {
    /// Display name.
    pub name: &'static str,
    /// The threads.
    pub threads: Vec<Vec<LitmusOp>>,
    /// Number of observation registers.
    pub num_regs: usize,
}

impl Litmus {
    /// Enumerates all final register outcomes allowed by `mode`
    /// (`Mode::Serial` is treated as SC — litmus programs have no
    /// operation structure).
    pub fn allowed_outcomes(&self, mode: Mode) -> BTreeSet<Vec<i64>> {
        #[derive(Clone)]
        struct A {
            thread: usize,
            item_index: usize,
            kind: AccessKind,
            addr: u32,
            value: i64, // store value; loads filled per order
            reg: Option<usize>,
        }
        let mut accesses = Vec::new();
        for (t, ops) in self.threads.iter().enumerate() {
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    LitmusOp::Store { addr, value, .. } => accesses.push(A {
                        thread: t,
                        item_index: i,
                        kind: AccessKind::Store,
                        addr,
                        value,
                        reg: None,
                    }),
                    LitmusOp::Load { addr, reg, .. } => accesses.push(A {
                        thread: t,
                        item_index: i,
                        kind: AccessKind::Load,
                        addr,
                        value: 0,
                        reg: Some(reg),
                    }),
                    LitmusOp::Fence(_) | LitmusOp::CFence(_) => {}
                }
            }
        }
        assert!(
            accesses.len() <= 10,
            "litmus enumeration limited to 10 accesses"
        );

        // Required edges.
        let mut edges = Vec::new();
        for (i, x) in accesses.iter().enumerate() {
            for (j, y) in accesses.iter().enumerate() {
                if x.thread != y.thread || x.item_index >= y.item_index {
                    continue;
                }
                let mut required = mode.po_edge_required(x.kind, y.kind, x.addr == y.addr);
                if !required {
                    for op in &self.threads[x.thread][x.item_index + 1..y.item_index] {
                        let orders = match op {
                            LitmusOp::Fence(k) => fence_orders(*k, x.kind, y.kind),
                            LitmusOp::CFence(o) => c11_fence_orders(*o, x.kind, y.kind),
                            _ => false,
                        };
                        if orders {
                            required = true;
                            break;
                        }
                    }
                }
                if required {
                    edges.push((i, j));
                }
            }
        }

        let mut outcomes = BTreeSet::new();
        let mut order: Vec<usize> = Vec::with_capacity(accesses.len());
        let mut used = vec![false; accesses.len()];

        fn rec(
            accesses: &[A],
            edges: &[(usize, usize)],
            mode: Mode,
            num_regs: usize,
            order: &mut Vec<usize>,
            used: &mut Vec<bool>,
            outcomes: &mut BTreeSet<Vec<i64>>,
        ) {
            if order.len() == accesses.len() {
                // Derive load values from the order.
                let pos: BTreeMap<usize, usize> =
                    order.iter().enumerate().map(|(p, &a)| (a, p)).collect();
                let mut regs = vec![0i64; num_regs];
                for (l_idx, l) in accesses.iter().enumerate() {
                    let Some(r) = l.reg else { continue };
                    let mut best: Option<usize> = None;
                    for (s_idx, s) in accesses.iter().enumerate() {
                        if s.kind != AccessKind::Store || s.addr != l.addr {
                            continue;
                        }
                        let visible = pos[&s_idx] < pos[&l_idx]
                            || (mode.allows_forwarding()
                                && s.thread == l.thread
                                && s.item_index < l.item_index);
                        if visible {
                            best = Some(match best {
                                None => s_idx,
                                Some(b) if pos[&s_idx] > pos[&b] => s_idx,
                                Some(b) => b,
                            });
                        }
                    }
                    regs[r] = best.map_or(0, |s| accesses[s].value);
                }
                outcomes.insert(regs);
                return;
            }
            'next: for c in 0..accesses.len() {
                if used[c] {
                    continue;
                }
                for &(a, b) in edges {
                    if b == c && !used[a] {
                        continue 'next;
                    }
                }
                used[c] = true;
                order.push(c);
                rec(accesses, edges, mode, num_regs, order, used, outcomes);
                used[c] = false;
                order.pop();
            }
        }
        rec(
            &accesses,
            &edges,
            mode,
            self.num_regs,
            &mut order,
            &mut used,
            &mut outcomes,
        );
        outcomes
    }

    /// Is the given register outcome possible under `mode`?
    pub fn allows(&self, mode: Mode, outcome: &[i64]) -> bool {
        self.allowed_outcomes(mode).contains(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_forwarding() {
        // x = 1; r0 = x  — r0 must be 1 under every model.
        let t = Litmus {
            name: "sf",
            threads: vec![vec![
                LitmusOp::Store {
                    addr: 0,
                    value: 1,
                    ord: MemOrder::Plain,
                },
                LitmusOp::Load {
                    addr: 0,
                    reg: 0,
                    ord: MemOrder::Plain,
                },
            ]],
            num_regs: 1,
        };
        for mode in [Mode::Sc, Mode::Relaxed] {
            let out = t.allowed_outcomes(mode);
            assert_eq!(out, BTreeSet::from([vec![1]]), "{mode:?}");
        }
    }

    #[test]
    fn trace_check_respects_fences() {
        use TraceItem::*;
        // MP with both fences: stale data read must be disallowed on
        // Relaxed.
        let mk = |data_read: i64| ConcreteTrace {
            threads: vec![
                vec![
                    Access {
                        kind: AccessKind::Store,
                        addr: vec![0],
                        value: Value::Int(1),
                        group: None,
                        ord: MemOrder::Plain,
                    },
                    Fence(FenceKind::StoreStore),
                    Access {
                        kind: AccessKind::Store,
                        addr: vec![1],
                        value: Value::Int(1),
                        group: None,
                        ord: MemOrder::Plain,
                    },
                ],
                vec![
                    Access {
                        kind: AccessKind::Load,
                        addr: vec![1],
                        value: Value::Int(1),
                        group: None,
                        ord: MemOrder::Plain,
                    },
                    Fence(FenceKind::LoadLoad),
                    Access {
                        kind: AccessKind::Load,
                        addr: vec![0],
                        value: Value::Int(data_read),
                        group: None,
                        ord: MemOrder::Plain,
                    },
                ],
            ],
            init: BTreeMap::from([(vec![0], Value::Int(0)), (vec![1], Value::Int(0))]),
        };
        assert!(mk(1).allowed(Mode::Relaxed));
        assert!(
            !mk(0).allowed(Mode::Relaxed),
            "fenced MP forbids stale read"
        );
    }

    #[test]
    fn atomic_groups_are_contiguous() {
        use TraceItem::*;
        // Two threads perform atomic read-modify-write on the same cell;
        // both reading 0 is impossible because the groups cannot
        // interleave.
        let mk = |r1: i64, r2: i64| ConcreteTrace {
            threads: vec![
                vec![
                    Access {
                        kind: AccessKind::Load,
                        addr: vec![0],
                        value: Value::Int(r1),
                        group: Some(0),
                        ord: MemOrder::Plain,
                    },
                    Access {
                        kind: AccessKind::Store,
                        addr: vec![0],
                        value: Value::Int(1),
                        group: Some(0),
                        ord: MemOrder::Plain,
                    },
                ],
                vec![
                    Access {
                        kind: AccessKind::Load,
                        addr: vec![0],
                        value: Value::Int(r2),
                        group: Some(0),
                        ord: MemOrder::Plain,
                    },
                    Access {
                        kind: AccessKind::Store,
                        addr: vec![0],
                        value: Value::Int(1),
                        group: Some(0),
                        ord: MemOrder::Plain,
                    },
                ],
            ],
            init: BTreeMap::from([(vec![0], Value::Int(0))]),
        };
        assert!(mk(0, 1).allowed(Mode::Sc));
        assert!(mk(1, 0).allowed(Mode::Sc));
        assert!(!mk(0, 0).allowed(Mode::Sc), "atomicity violated");
        assert!(
            !mk(0, 0).allowed(Mode::Relaxed),
            "atomicity holds on Relaxed too"
        );
    }
}
