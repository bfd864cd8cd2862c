//! The explicit-state oracle: evaluating a compiled specification
//! against concrete traces and litmus tests by exhaustive search.
//!
//! This replaces the hand-written per-[`Mode`](cf_memmodel::Mode) rule
//! checks of `cf-memmodel` as the reference semantics for spec-defined
//! models: it enumerates linearizations of the events (the existential
//! quantifier over the total memory order `mo`) and accepts a trace iff
//! some order satisfies every axiom plus the value axioms 2–3 of
//! §2.3.2.
//!
//! Axioms whose relations are *static* (no `mo`/`rf`/`co`/`fr`) are
//! evaluated once up front: `order`/`acyclic` axioms become required
//! edges (kept as per-event predecessor masks) that prune the search,
//! `empty`/`irreflexive` axioms are decided immediately. Dynamic axioms
//! are re-evaluated per complete candidate order with the derived
//! reads-from relation.
//!
//! The trace search ([`trace_allowed`]) also cuts prefixes that cannot
//! succeed, without changing any answer:
//!
//! * **Values are checked at placement.** A load placed into `mo` whose
//!   value is already determined must carry it: with forwarding off it
//!   reads the last placed same-address store (or the initial value);
//!   with forwarding on the same holds once none of its program-order
//!   earlier same-thread same-address stores is still unplaced. Any
//!   other load is left to the check of the complete order.
//! * **Dead prefixes are memoized** by (placed set, last placed store
//!   per address, open atomic block) when the spec has no dynamic
//!   axioms and forwarding is off — then the placement checks imply the
//!   check of the complete order, so that key alone decides whether a
//!   prefix can be completed. This covers the bundled `sc` spec and its
//!   axiom-removed variants, which every counterexample diagnosis
//!   ([`violated_axioms`]) replays against.
//!
//! The check of each complete order is unchanged by either cut, so the
//! answers are those of plain enumeration.
//!
//! Model-independent execution structure is enforced exactly as in the
//! legacy oracle: atomic blocks execute in program order and
//! contiguously, and initial values are read when no store is visible.

use std::collections::{BTreeSet, HashMap, HashSet};

use cf_lsl::{FenceSem, MemOrder, Value};
use cf_memmodel::{sem_orders, AccessKind, ConcreteTrace, Litmus, LitmusOp, TraceItem};

use crate::ast::{Axiom, AxiomKind, BaseRel, ModelSpec, SetFilter};
use crate::eval::{eval, RelBackend};

/// One event of the normalized program shared by both entry points.
struct PEvent {
    thread: usize,
    pos: usize,
    kind: AccessKind,
    addr: Vec<u32>,
    group: Option<u32>,
    ord: MemOrder,
}

struct PFence {
    thread: usize,
    pos: usize,
    sem: FenceSem,
}

struct Prog {
    events: Vec<PEvent>,
    fences: Vec<PFence>,
}

impl Prog {
    /// Some fence between `x` and `y` (same thread) satisfying `pred`.
    fn fence_between(&self, x: &PEvent, y: &PEvent, pred: impl Fn(FenceSem) -> bool) -> bool {
        self.fences
            .iter()
            .any(|f| f.thread == x.thread && f.pos > x.pos && f.pos < y.pos && pred(f.sem))
    }
}

// ----------------------------------------------------------- backends

/// Static relations only (`mo`-free fragments).
struct StaticCtx<'a> {
    prog: &'a Prog,
}

fn static_base(prog: &Prog, rel: BaseRel, x: usize, y: usize) -> bool {
    let (ex, ey) = (&prog.events[x], &prog.events[y]);
    match rel {
        BaseRel::Po => ex.thread == ey.thread && ex.pos < ey.pos,
        BaseRel::Loc => ex.addr == ey.addr,
        BaseRel::Int => ex.thread == ey.thread && x != y,
        BaseRel::Ext => ex.thread != ey.thread,
        BaseRel::Id => x == y,
        BaseRel::Fence(k) => {
            ex.thread == ey.thread
                && ex.pos < ey.pos
                && prog.fence_between(ex, ey, |sem| match (k, sem) {
                    // Generic `fence`: any fence whose semantics order
                    // this pair of access kinds.
                    (None, sem) => sem_orders(sem, ex.kind, ey.kind),
                    // `fence_xy`: classic fences of that kind only (the
                    // pair's kinds must still match the X-Y signature).
                    (Some(want), FenceSem::Classic(have)) => {
                        want == have && sem_orders(sem, ex.kind, ey.kind)
                    }
                    (Some(_), FenceSem::C11(_)) => false,
                })
        }
        BaseRel::FenceAcq => {
            ex.thread == ey.thread
                && ex.pos < ey.pos
                && prog.fence_between(
                    ex,
                    ey,
                    |sem| matches!(sem, FenceSem::C11(o) if o.is_acquire()),
                )
        }
        BaseRel::FenceRel => {
            ex.thread == ey.thread
                && ex.pos < ey.pos
                && prog.fence_between(
                    ex,
                    ey,
                    |sem| matches!(sem, FenceSem::C11(o) if o.is_release()),
                )
        }
        BaseRel::FenceSc => {
            ex.thread == ey.thread
                && ex.pos < ey.pos
                && prog.fence_between(ex, ey, |sem| sem == FenceSem::C11(MemOrder::SeqCst))
        }
        // Read-modify-write: the load and store halves of one atomic
        // group targeting the same location. This is a *derived* notion
        // — an atomic load/store pair to one address is exactly an RMW
        // in this framework — which keeps it aligned with the CNF
        // backend without a dedicated event field.
        BaseRel::Rmw => {
            ex.kind == AccessKind::Load
                && ey.kind == AccessKind::Store
                && ex.thread == ey.thread
                && ex.pos < ey.pos
                && ex.group.is_some()
                && ex.group == ey.group
                && ex.addr == ey.addr
        }
        BaseRel::Mo | BaseRel::Rf | BaseRel::Co | BaseRel::Fr => {
            panic!("dynamic relation {} in a static context", rel.name())
        }
    }
}

fn in_set(prog: &Prog, set: SetFilter, e: usize) -> bool {
    let ev = &prog.events[e];
    match set {
        SetFilter::Loads => ev.kind == AccessKind::Load,
        SetFilter::Stores => ev.kind == AccessKind::Store,
        SetFilter::All => true,
        SetFilter::Relaxed => ev.ord.is_atomic(),
        SetFilter::Acquire => ev.ord.is_acquire(),
        SetFilter::Release => ev.ord.is_release(),
        SetFilter::SeqCst => ev.ord == MemOrder::SeqCst,
        SetFilter::NonAtomic => ev.ord == MemOrder::Plain,
    }
}

impl RelBackend for StaticCtx<'_> {
    type C = bool;
    fn n(&self) -> usize {
        self.prog.events.len()
    }
    fn tt(&self) -> bool {
        true
    }
    fn ff(&self) -> bool {
        false
    }
    fn is_ff(&self, c: &bool) -> bool {
        !*c
    }
    fn and(&mut self, a: bool, b: bool) -> bool {
        a && b
    }
    fn or(&mut self, a: bool, b: bool) -> bool {
        a || b
    }
    fn not(&mut self, a: bool) -> bool {
        !a
    }
    fn base(&mut self, rel: BaseRel, x: usize, y: usize) -> bool {
        static_base(self.prog, rel, x, y)
    }
    fn in_set(&self, set: SetFilter, e: usize) -> bool {
        in_set(self.prog, set, e)
    }
}

/// All relations, given a candidate order and the derived reads-from
/// sources (`rf_src[l] = Some(store)`; `None` means `l` reads the
/// initial value).
struct DynCtx<'a> {
    prog: &'a Prog,
    pos: &'a [usize],
    rf_src: &'a [Option<usize>],
}

impl RelBackend for DynCtx<'_> {
    type C = bool;
    fn n(&self) -> usize {
        self.prog.events.len()
    }
    fn tt(&self) -> bool {
        true
    }
    fn ff(&self) -> bool {
        false
    }
    fn is_ff(&self, c: &bool) -> bool {
        !*c
    }
    fn and(&mut self, a: bool, b: bool) -> bool {
        a && b
    }
    fn or(&mut self, a: bool, b: bool) -> bool {
        a || b
    }
    fn not(&mut self, a: bool) -> bool {
        !a
    }
    fn base(&mut self, rel: BaseRel, x: usize, y: usize) -> bool {
        let (ex, ey) = (&self.prog.events[x], &self.prog.events[y]);
        match rel {
            BaseRel::Mo => x != y && self.pos[x] < self.pos[y],
            BaseRel::Rf => ey.kind == AccessKind::Load && self.rf_src[y] == Some(x),
            BaseRel::Co => {
                ex.kind == AccessKind::Store
                    && ey.kind == AccessKind::Store
                    && ex.addr == ey.addr
                    && x != y
                    && self.pos[x] < self.pos[y]
            }
            BaseRel::Fr => {
                ex.kind == AccessKind::Load
                    && ey.kind == AccessKind::Store
                    && ex.addr == ey.addr
                    && match self.rf_src[x] {
                        // Reading the initial value: fr-before every
                        // same-address store.
                        None => true,
                        Some(s0) => s0 != y && self.pos[s0] < self.pos[y],
                    }
            }
            _ => static_base(self.prog, rel, x, y),
        }
    }
    fn in_set(&self, set: SetFilter, e: usize) -> bool {
        in_set(self.prog, set, e)
    }
}

// ------------------------------------------------- static compilation

/// A set of events as a bitmask over event indices (traces have at most
/// 12 accesses, litmus tests at most 10).
type Mask = u16;

fn bit(e: usize) -> Mask {
    1 << e
}

struct CompiledStatic<'s> {
    /// `preds[y]`: every `x` with a required `x <mo y` edge, from static
    /// `order`/`acyclic` axioms plus atomic-block internal program
    /// order.
    preds: Vec<Mask>,
    /// `group[e]`: the members of `e`'s atomic block (same thread and
    /// group), empty when `e` is in none.
    group: Vec<Mask>,
    /// Axioms needing per-order evaluation.
    dynamic: Vec<&'s Axiom>,
    /// A static axiom is violated by the program text alone: no
    /// execution is allowed.
    impossible: bool,
}

impl CompiledStatic<'_> {
    /// Are all required predecessors of `c` among the `placed` events?
    fn ready(&self, c: usize, placed: Mask) -> bool {
        self.preds[c] & !placed == 0
    }
}

fn compile_static<'s>(spec: &'s ModelSpec, prog: &Prog) -> CompiledStatic<'s> {
    let n = prog.events.len();
    let mut out = CompiledStatic {
        preds: vec![0; n],
        group: vec![0; n],
        dynamic: Vec::new(),
        impossible: false,
    };
    for ax in &spec.axioms {
        if !ax.rel.is_static() {
            out.dynamic.push(ax);
            continue;
        }
        let m = eval(&mut StaticCtx { prog }, &ax.rel);
        match ax.kind {
            AxiomKind::Order | AxiomKind::Acyclic => {
                for (x, row) in m.iter().enumerate() {
                    for (y, &member) in row.iter().enumerate() {
                        if !member {
                            continue;
                        }
                        if x == y {
                            out.impossible = true;
                        } else {
                            out.preds[y] |= bit(x);
                        }
                    }
                }
            }
            AxiomKind::Irreflexive => {
                if (0..n).any(|x| m[x][x]) {
                    out.impossible = true;
                }
            }
            AxiomKind::Empty => {
                if m.iter().any(|row| row.iter().any(|&c| c)) {
                    out.impossible = true;
                }
            }
        }
    }
    // Atomic blocks execute in program order internally (model
    // independent, as in the legacy oracle).
    for x in 0..n {
        for y in 0..n {
            let (ex, ey) = (&prog.events[x], &prog.events[y]);
            if ex.thread == ey.thread && ex.group.is_some() && ex.group == ey.group {
                out.group[x] |= bit(y);
                if ex.pos < ey.pos {
                    out.preds[y] |= bit(x);
                }
            }
        }
    }
    out
}

fn dynamic_ok(dynamic: &[&Axiom], prog: &Prog, pos: &[usize], rf_src: &[Option<usize>]) -> bool {
    let n = prog.events.len();
    for ax in dynamic {
        let m = eval(&mut DynCtx { prog, pos, rf_src }, &ax.rel);
        let ok = match ax.kind {
            AxiomKind::Order | AxiomKind::Acyclic => {
                (0..n).all(|x| (0..n).all(|y| !m[x][y] || (x != y && pos[x] < pos[y])))
            }
            AxiomKind::Irreflexive => (0..n).all(|x| !m[x][x]),
            AxiomKind::Empty => m.iter().all(|row| row.iter().all(|&c| !c)),
        };
        if !ok {
            return false;
        }
    }
    true
}

// ------------------------------------------------------- trace oracle

/// Does some total memory order satisfy `spec` for this annotated
/// trace? The spec-driven analogue of
/// [`ConcreteTrace::allowed`](cf_memmodel::ConcreteTrace::allowed).
///
/// The search places events into `mo` one at a time, checking each
/// load's value as soon as it is determined, and — for specs without
/// dynamic axioms or forwarding — remembers the prefixes that cannot
/// be completed (see the module docs).
///
/// # Panics
///
/// Panics if the trace has more than 12 accesses (the search is still
/// exponential in the worst case; the SAT path handles bigger
/// programs).
pub fn trace_allowed(trace: &ConcreteTrace, spec: &ModelSpec) -> bool {
    let mut events = Vec::new();
    let mut values = Vec::new();
    let mut fences = Vec::new();
    for (t, items) in trace.threads.iter().enumerate() {
        for (i, item) in items.iter().enumerate() {
            match item {
                TraceItem::Access {
                    kind,
                    addr,
                    value,
                    group,
                    ord,
                } => {
                    events.push(PEvent {
                        thread: t,
                        pos: i,
                        kind: *kind,
                        addr: addr.clone(),
                        group: *group,
                        ord: *ord,
                    });
                    values.push(value.clone());
                }
                TraceItem::Fence(k) => fences.push(PFence {
                    thread: t,
                    pos: i,
                    sem: FenceSem::Classic(*k),
                }),
                TraceItem::CFence(o) => fences.push(PFence {
                    thread: t,
                    pos: i,
                    sem: FenceSem::C11(*o),
                }),
            }
        }
    }
    assert!(
        events.len() <= 12,
        "explicit-state check limited to 12 accesses"
    );
    let prog = Prog { events, fences };
    let compiled = compile_static(spec, &prog);
    if compiled.impossible {
        return false;
    }
    TraceSearch::new(&prog, &values, &trace.init, spec.forwarding, &compiled).run()
}

/// The last placed store per address, four bits per address index
/// (`0`: none yet, `s + 1`: store `s`). At most 12 events means at most
/// 12 addresses, so 48 bits suffice.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct LastStores(u64);

impl LastStores {
    fn get(self, a: usize) -> Option<usize> {
        match (self.0 >> (4 * a)) & 0xf {
            0 => None,
            s => Some(s as usize - 1),
        }
    }

    fn set(self, a: usize, s: usize) -> Self {
        LastStores(self.0 & !(0xf << (4 * a)) | (s as u64 + 1) << (4 * a))
    }
}

/// What decides whether a prefix can be completed, when the placement
/// checks imply the check of the complete order: (placed set, unplaced
/// members of the open atomic block, last placed store per address).
type PrefixKey = (Mask, Mask, LastStores);

/// The linearization search behind [`trace_allowed`].
struct TraceSearch<'a> {
    prog: &'a Prog,
    values: &'a [Value],
    init: &'a HashMap<Vec<u32>, Value>,
    forwarding: bool,
    compiled: &'a CompiledStatic<'a>,
    /// Per event: its address, as an index into the trace's distinct
    /// addresses.
    addr: Vec<usize>,
    /// Per load: the same-address stores that wrote its value.
    reads_store: Vec<Mask>,
    /// Per load: does it carry the initial value of its address?
    reads_init: Vec<bool>,
    /// Per load: its forwarding sources (same-thread, program-order
    /// earlier, same-address stores).
    fwd_src: Vec<Mask>,
    /// Prefixes known not to complete, kept only when the placement
    /// checks imply the check of the complete order. Membership only.
    dead: Option<HashSet<PrefixKey>>,
    /// The events placed so far, in `mo` order.
    order: Vec<usize>,
}

impl<'a> TraceSearch<'a> {
    fn new(
        prog: &'a Prog,
        values: &'a [Value],
        init: &'a HashMap<Vec<u32>, Value>,
        forwarding: bool,
        compiled: &'a CompiledStatic<'a>,
    ) -> Self {
        let events = &prog.events;
        let n = events.len();
        let mut addrs: Vec<&[u32]> = Vec::new();
        let addr = events
            .iter()
            .map(|e| {
                addrs.iter().position(|a| *a == e.addr).unwrap_or_else(|| {
                    addrs.push(&e.addr);
                    addrs.len() - 1
                })
            })
            .collect();
        let mut reads_store = vec![0; n];
        let mut reads_init = vec![false; n];
        let mut fwd_src = vec![0; n];
        for (l, el) in events.iter().enumerate() {
            if el.kind != AccessKind::Load {
                continue;
            }
            let init_value = init.get(&el.addr).cloned().unwrap_or(Value::Undefined);
            reads_init[l] = values[l] == init_value;
            for (s, es) in events.iter().enumerate() {
                if es.kind != AccessKind::Store || es.addr != el.addr {
                    continue;
                }
                if values[s] == values[l] {
                    reads_store[l] |= bit(s);
                }
                if es.thread == el.thread && es.pos < el.pos {
                    fwd_src[l] |= bit(s);
                }
            }
        }
        TraceSearch {
            prog,
            values,
            init,
            forwarding,
            compiled,
            addr,
            reads_store,
            reads_init,
            fwd_src,
            dead: (compiled.dynamic.is_empty() && !forwarding).then(HashSet::new),
            order: Vec::with_capacity(n),
        }
    }

    fn run(mut self) -> bool {
        self.search(0, 0, LastStores(0))
    }

    /// Can the prefix `order` be completed into an allowed order?
    /// `placed` is its event set, `open` the unplaced members of the
    /// atomic block it has entered but not finished, `last` its last
    /// store per address.
    fn search(&mut self, placed: Mask, open: Mask, last: LastStores) -> bool {
        let prog = self.prog;
        let n = prog.events.len();
        if self.order.len() == n {
            let pos = positions(&self.order);
            let Some(rf_src) = trace_values_ok(prog, self.values, self.init, &pos, self.forwarding)
            else {
                return false;
            };
            return dynamic_ok(&self.compiled.dynamic, prog, &pos, &rf_src);
        }
        let key = (placed, open, last);
        if self.dead.as_ref().is_some_and(|dead| dead.contains(&key)) {
            return false;
        }
        for c in 0..n {
            // Unplaced, every required predecessor placed, and — atomic
            // block contiguity, as in the legacy oracle — inside the
            // open block if there is one.
            if placed & bit(c) != 0
                || !self.compiled.ready(c, placed)
                || (open != 0 && open & bit(c) == 0)
            {
                continue;
            }
            let next_last = match prog.events[c].kind {
                AccessKind::Store => last.set(self.addr[c], c),
                AccessKind::Load if self.value_possible(c, placed, last) => last,
                AccessKind::Load => continue,
            };
            let now = placed | bit(c);
            self.order.push(c);
            let found = self.search(now, self.compiled.group[c] & !now, next_last);
            self.order.pop();
            if found {
                return true;
            }
        }
        if let Some(dead) = &mut self.dead {
            dead.insert(key);
        }
        false
    }

    /// The placement-time value check of load `l`, placed right after
    /// `placed`: false only when `l` reads a value other than its own
    /// in every completion of the prefix.
    fn value_possible(&self, l: usize, placed: Mask, last: LastStores) -> bool {
        if self.forwarding && self.fwd_src[l] & !placed != 0 {
            // An unplaced forwarding source lands after `l` in `mo` and
            // would be the latest visible store: undetermined yet, so
            // left to the check of the complete order.
            return true;
        }
        // Every store visible to `l` is placed: it reads the last one.
        match last.get(self.addr[l]) {
            Some(s) => self.reads_store[l] & bit(s) != 0,
            None => self.reads_init[l],
        }
    }
}

fn positions(order: &[usize]) -> Vec<usize> {
    let mut pos = vec![0; order.len()];
    for (p, &e) in order.iter().enumerate() {
        pos[e] = p;
    }
    pos
}

/// Checks the value axioms 2–3 against annotated values and returns the
/// derived reads-from sources on success.
fn trace_values_ok(
    prog: &Prog,
    values: &[Value],
    init: &HashMap<Vec<u32>, Value>,
    pos: &[usize],
    forwarding: bool,
) -> Option<Vec<Option<usize>>> {
    let n = prog.events.len();
    let mut rf_src = vec![None; n];
    for l in 0..n {
        let el = &prog.events[l];
        if el.kind != AccessKind::Load {
            continue;
        }
        let mut max_store: Option<usize> = None;
        for s in 0..n {
            let es = &prog.events[s];
            if es.kind != AccessKind::Store || es.addr != el.addr {
                continue;
            }
            let before_m = pos[s] < pos[l];
            let forwarded = forwarding && es.thread == el.thread && es.pos < el.pos;
            if before_m || forwarded {
                max_store = Some(match max_store {
                    None => s,
                    Some(m) if pos[s] > pos[m] => s,
                    Some(m) => m,
                });
            }
        }
        let expected = match max_store {
            Some(s) => values[s].clone(),
            None => init.get(&el.addr).cloned().unwrap_or(Value::Undefined),
        };
        if values[l] != expected {
            return None;
        }
        rf_src[l] = max_store;
    }
    Some(rf_src)
}

/// Names the axioms that forbid `trace` under `spec`: every axiom whose
/// *individual* removal makes the trace allowed, by its `as` label or a
/// positional fallback. Returns the empty vector when the trace is
/// allowed, and the full axiom list when only removing several axioms
/// together admits the trace (a joint violation). A trace rejected by
/// the value axioms alone (no candidate order reproduces the annotated
/// loads, whatever the spec says) has no violated axiom to name and
/// also yields the empty vector.
///
/// This is the diagnostic behind counterexample reports: the checker
/// replays a witness execution against a reference spec and names the
/// axiom the witness breaks.
///
/// # Panics
///
/// Panics if the trace has more than 12 accesses (see
/// [`trace_allowed`]).
pub fn violated_axioms(trace: &ConcreteTrace, spec: &ModelSpec) -> Vec<String> {
    if trace_allowed(trace, spec) {
        return Vec::new();
    }
    let name_of = |i: usize, ax: &Axiom| {
        ax.label
            .clone()
            .unwrap_or_else(|| format!("{} axiom #{i}", ax.kind.name()))
    };
    let mut blocking = Vec::new();
    for i in 0..spec.axioms.len() {
        let mut reduced = spec.clone();
        reduced.axioms.remove(i);
        if trace_allowed(trace, &reduced) {
            blocking.push(name_of(i, &spec.axioms[i]));
        }
    }
    if !blocking.is_empty() {
        return blocking;
    }
    // No single axiom is responsible. If the axioms are jointly to
    // blame (the trace satisfies the value axioms under *some* order),
    // report all of them; otherwise the rejection is value-level. With
    // at most one axiom the bare spec has already been searched and
    // rejected: it is `spec` itself, or its one axiom-removed variant.
    let bare_allowed = spec.axioms.len() > 1 && {
        let mut bare = spec.clone();
        bare.axioms.clear();
        trace_allowed(trace, &bare)
    };
    if bare_allowed {
        spec.axioms
            .iter()
            .enumerate()
            .map(|(i, ax)| name_of(i, ax))
            .collect()
    } else {
        Vec::new()
    }
}

// ------------------------------------------------------ litmus oracle

/// Enumerates all final register outcomes allowed by `spec` — the
/// spec-driven analogue of
/// [`Litmus::allowed_outcomes`](cf_memmodel::Litmus::allowed_outcomes).
///
/// # Panics
///
/// Panics if the test has more than 10 accesses.
pub fn litmus_outcomes(test: &Litmus, spec: &ModelSpec) -> BTreeSet<Vec<i64>> {
    let mut events = Vec::new();
    let mut fences = Vec::new();
    let mut store_val = Vec::new();
    let mut load_reg = Vec::new();
    for (t, ops) in test.threads.iter().enumerate() {
        for (i, op) in ops.iter().enumerate() {
            match *op {
                LitmusOp::Store { addr, value, ord } => {
                    events.push(PEvent {
                        thread: t,
                        pos: i,
                        kind: AccessKind::Store,
                        addr: vec![addr],
                        group: None,
                        ord,
                    });
                    store_val.push(value);
                    load_reg.push(None);
                }
                LitmusOp::Load { addr, reg, ord } => {
                    events.push(PEvent {
                        thread: t,
                        pos: i,
                        kind: AccessKind::Load,
                        addr: vec![addr],
                        group: None,
                        ord,
                    });
                    store_val.push(0);
                    load_reg.push(Some(reg));
                }
                LitmusOp::Fence(k) => fences.push(PFence {
                    thread: t,
                    pos: i,
                    sem: FenceSem::Classic(k),
                }),
                LitmusOp::CFence(o) => fences.push(PFence {
                    thread: t,
                    pos: i,
                    sem: FenceSem::C11(o),
                }),
            }
        }
    }
    assert!(
        events.len() <= 10,
        "litmus enumeration limited to 10 accesses"
    );
    let prog = Prog { events, fences };
    let compiled = compile_static(spec, &prog);
    let mut outcomes = BTreeSet::new();
    if compiled.impossible {
        return outcomes;
    }
    let mut order = Vec::with_capacity(prog.events.len());
    litmus_rec(
        &prog,
        spec,
        &compiled,
        &store_val,
        &load_reg,
        test.num_regs,
        &mut order,
        0,
        &mut outcomes,
    );
    outcomes
}

/// Is the given register outcome possible under `spec`?
pub fn litmus_allows(test: &Litmus, spec: &ModelSpec, outcome: &[i64]) -> bool {
    litmus_outcomes(test, spec).contains(outcome)
}

#[allow(clippy::too_many_arguments)]
fn litmus_rec(
    prog: &Prog,
    spec: &ModelSpec,
    compiled: &CompiledStatic<'_>,
    store_val: &[i64],
    load_reg: &[Option<usize>],
    num_regs: usize,
    order: &mut Vec<usize>,
    placed: Mask,
    outcomes: &mut BTreeSet<Vec<i64>>,
) {
    let n = prog.events.len();
    if order.len() == n {
        let pos = positions(order);
        let mut regs = vec![0i64; num_regs];
        let mut rf_src = vec![None; n];
        for l in 0..n {
            let Some(r) = load_reg[l] else { continue };
            let el = &prog.events[l];
            let mut best: Option<usize> = None;
            for s in 0..n {
                let es = &prog.events[s];
                if es.kind != AccessKind::Store || es.addr != el.addr {
                    continue;
                }
                let visible = pos[s] < pos[l]
                    || (spec.forwarding && es.thread == el.thread && es.pos < el.pos);
                if visible {
                    best = Some(match best {
                        None => s,
                        Some(b) if pos[s] > pos[b] => s,
                        Some(b) => b,
                    });
                }
            }
            regs[r] = best.map_or(0, |s| store_val[s]);
            rf_src[l] = best;
        }
        if dynamic_ok(&compiled.dynamic, prog, &pos, &rf_src) {
            outcomes.insert(regs);
        }
        return;
    }
    for c in 0..n {
        if placed & bit(c) != 0 || !compiled.ready(c, placed) {
            continue;
        }
        order.push(c);
        litmus_rec(
            prog,
            spec,
            compiled,
            store_val,
            load_reg,
            num_regs,
            order,
            placed | bit(c),
            outcomes,
        );
        order.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::compile;
    use cf_lsl::FenceKind;
    use cf_memmodel::{litmus, Mode};

    #[test]
    fn order_po_is_sequential_consistency() {
        let sc = compile("model sc\norder po").expect("checks");
        let sb = litmus::store_buffering();
        assert!(!litmus_allows(&sb, &sc, &[0, 0]));
        assert_eq!(litmus_outcomes(&sb, &sc), sb.allowed_outcomes(Mode::Sc));
    }

    #[test]
    fn rf_based_sc_formulation_matches_order_po() {
        // The classic `acyclic (po | rf | co | fr)` SC formulation:
        // under the total-order semantics with forwarding off, the
        // communication edges are implied, so it coincides with
        // `order po`.
        let sc = compile("model sc_rf\nacyclic po | rf | co | fr").expect("checks");
        for t in litmus::all() {
            assert_eq!(
                litmus_outcomes(&t, &sc),
                t.allowed_outcomes(Mode::Sc),
                "{}",
                t.name
            );
        }
    }

    #[test]
    fn fence_free_spec_ignores_fences() {
        // A spec without `fence` in its ordering axiom treats fences as
        // no-ops — the fence-semantics-experiment use case.
        let weak =
            compile("model weak\noption forwarding\norder (po ; [W]) & loc").expect("checks");
        let fenced = litmus::store_buffering_fenced();
        assert!(
            litmus_allows(&fenced, &weak, &[0, 0]),
            "fences are inert without a fence axiom"
        );
        let with_fence =
            compile("model weak_f\noption forwarding\norder ((po ; [W]) & loc) | fence")
                .expect("checks");
        assert!(!litmus_allows(&fenced, &with_fence, &[0, 0]));
    }

    #[test]
    fn empty_axiom_forbids_executions() {
        let spec = compile("model none\norder po\nempty po").expect("checks");
        let sb = litmus::store_buffering();
        assert!(litmus_outcomes(&sb, &spec).is_empty());
    }

    #[test]
    fn dynamic_empty_axiom_restricts_reads() {
        // `empty rf & ext`: no load may read another thread's store.
        let spec = compile("model local\norder po\nempty rf & ext").expect("checks");
        let mp = litmus::message_passing();
        let out = litmus_outcomes(&mp, &spec);
        assert!(out.contains(&vec![0, 0]), "init reads remain");
        assert!(!out.contains(&vec![1, 1]), "cross-thread reads forbidden");
    }

    #[test]
    fn violated_axioms_names_the_blocking_axiom() {
        // A fenced message-passing trace with a stale data read: the
        // bundled relaxed spec (whose single axiom carries the label
        // `same_address_stores`) forbids it through the fence edges of
        // that axiom — and removal-flipping names exactly it.
        use crate::bundled;
        use cf_lsl::Value;
        let relaxed = compile(bundled::RELAXED).expect("bundled relaxed compiles");
        let trace = ConcreteTrace {
            threads: vec![
                vec![
                    TraceItem::Access {
                        kind: AccessKind::Store,
                        addr: vec![0],
                        value: Value::Int(1),
                        group: None,
                        ord: MemOrder::Plain,
                    },
                    TraceItem::Fence(FenceKind::StoreStore),
                    TraceItem::Access {
                        kind: AccessKind::Store,
                        addr: vec![1],
                        value: Value::Int(1),
                        group: None,
                        ord: MemOrder::Plain,
                    },
                ],
                vec![
                    TraceItem::Access {
                        kind: AccessKind::Load,
                        addr: vec![1],
                        value: Value::Int(1),
                        group: None,
                        ord: MemOrder::Plain,
                    },
                    TraceItem::Fence(FenceKind::LoadLoad),
                    TraceItem::Access {
                        kind: AccessKind::Load,
                        addr: vec![0],
                        value: Value::Int(0),
                        group: None,
                        ord: MemOrder::Plain,
                    },
                ],
            ],
            init: HashMap::from([(vec![0], Value::Int(0)), (vec![1], Value::Int(0))]),
        };
        assert!(!trace_allowed(&trace, &relaxed));
        assert_eq!(
            violated_axioms(&trace, &relaxed),
            vec!["same_address_stores".to_string()]
        );
        // The unfenced variant of the same trace is allowed: nothing to
        // blame.
        let mut unfenced = trace.clone();
        for t in &mut unfenced.threads {
            t.retain(|i| !matches!(i, TraceItem::Fence(_)));
        }
        for (i, items) in unfenced.threads.iter().enumerate() {
            assert_eq!(items.len(), 2, "thread {i}");
        }
        assert!(violated_axioms(&unfenced, &relaxed).is_empty());
    }

    #[test]
    fn value_rejected_trace_names_no_axiom() {
        // The load returns 5, which neither the store nor the initial
        // value wrote: no order reproduces it, whatever the axioms say,
        // so there is no axiom to blame.
        use crate::bundled;
        use cf_lsl::Value;
        let sc = compile(bundled::SC).expect("bundled sc compiles");
        let access = |kind, value| TraceItem::Access {
            kind,
            addr: vec![0],
            value: Value::Int(value),
            group: None,
            ord: MemOrder::Plain,
        };
        let trace = ConcreteTrace {
            threads: vec![
                vec![access(AccessKind::Store, 1)],
                vec![access(AccessKind::Load, 5)],
            ],
            init: HashMap::from([(vec![0], Value::Int(0))]),
        };
        assert!(!trace_allowed(&trace, &sc));
        assert!(violated_axioms(&trace, &sc).is_empty());
    }

    #[test]
    fn trace_oracle_checks_values_and_fences() {
        use cf_lsl::Value;
        let relaxed =
            compile("model relaxed\noption forwarding\norder (((po ; [W]) & loc) | fence)")
                .expect("checks");
        let mk = |data_read: i64| ConcreteTrace {
            threads: vec![
                vec![
                    TraceItem::Access {
                        kind: AccessKind::Store,
                        addr: vec![0],
                        value: Value::Int(1),
                        group: None,
                        ord: MemOrder::Plain,
                    },
                    TraceItem::Fence(FenceKind::StoreStore),
                    TraceItem::Access {
                        kind: AccessKind::Store,
                        addr: vec![1],
                        value: Value::Int(1),
                        group: None,
                        ord: MemOrder::Plain,
                    },
                ],
                vec![
                    TraceItem::Access {
                        kind: AccessKind::Load,
                        addr: vec![1],
                        value: Value::Int(1),
                        group: None,
                        ord: MemOrder::Plain,
                    },
                    TraceItem::Fence(FenceKind::LoadLoad),
                    TraceItem::Access {
                        kind: AccessKind::Load,
                        addr: vec![0],
                        value: Value::Int(data_read),
                        group: None,
                        ord: MemOrder::Plain,
                    },
                ],
            ],
            init: HashMap::from([(vec![0], Value::Int(0)), (vec![1], Value::Int(0))]),
        };
        assert!(trace_allowed(&mk(1), &relaxed));
        assert!(
            !trace_allowed(&mk(0), &relaxed),
            "fenced MP forbids stale read"
        );
    }
}
