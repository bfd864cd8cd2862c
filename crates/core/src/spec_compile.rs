//! Compiling declarative memory-model specifications (`cf-spec`) into
//! the CNF relation encoding.
//!
//! This is the SAT twin of the explicit oracle in `cf_spec::interp`:
//! both consume the same compiled [`ModelSpec`] through the same
//! generic evaluator (`cf_spec::eval`), instantiated here with SAT
//! literals as the condition algebra. Base relations map onto the
//! encoding's existing variables — `mo` is the pairwise order literal
//! `before(x, y)`, `rf` reuses the retained `Flows(s, l)`
//! literals of the value-flow encoding, `loc` is the cached address
//! equality circuit, and fence relations reuse candidate-site
//! activation literals so spec models participate in fence inference
//! sessions unchanged.
//!
//! Every emitted clause is premised on the spec's *selector literal*,
//! so a compiled spec is one more member of the encoding's model
//! universe: selecting it is an assumption vector, exactly like a
//! built-in mode.
//!
//! Axiom semantics over the postulated total order (see the `cf-spec`
//! crate docs): `order r` emits `sel ∧ r(x,y) → x <M y`; `acyclic r`
//! is `order` plus irreflexivity; `irreflexive`/`empty` emit negated
//! membership. Guards are part of relation membership (an event that
//! does not execute is in no relation), so composed relations cannot
//! smuggle edges through unexecuted intermediates.

use cf_lsl::{FenceSem, MemOrder};
use cf_memmodel::{sem_orders, AccessKind};
use cf_sat::Lit;
use cf_spec::{AxiomKind, BaseRel, RelBackend, SetFilter};

use crate::encode::{may_alias, Encoding};
use crate::range::RangeInfo;
use crate::symexec::SymExec;

/// The SAT condition backend: conditions are literals of the encoding's
/// solver.
struct SatCtx<'a, 'b> {
    enc: &'a mut Encoding,
    sx: &'b SymExec,
    range: &'b RangeInfo,
}

impl SatCtx<'_, '_> {
    /// The conjunction of both endpoint guards (membership requires the
    /// events to execute).
    fn guards(&mut self, x: usize, y: usize) -> Lit {
        let gx = self.enc.guards[x];
        let gy = self.enc.guards[y];
        self.enc.cnf.and(gx, gy)
    }

    fn loc(&mut self, x: usize, y: usize) -> Lit {
        let (ax, ay) = (self.sx.events[x].addr, self.sx.events[y].addr);
        if may_alias(self.range, ax, ay) {
            self.enc.addr_eq(self.sx, ax, ay)
        } else {
            self.enc.cnf.ff()
        }
    }

    fn fence_between(&mut self, x: usize, y: usize, pred: impl Fn(FenceSem) -> bool) -> Lit {
        let (ex, ey) = (&self.sx.events[x], &self.sx.events[y]);
        if ex.thread != ey.thread || ex.po >= ey.po {
            return self.enc.cnf.ff();
        }
        let (thread, xpo, ypo) = (ex.thread, ex.po, ey.po);
        let mut acc = self.enc.cnf.ff();
        for fi in 0..self.sx.fences.len() {
            let f = &self.sx.fences[fi];
            if f.thread != thread || f.po <= xpo || f.po >= ypo || !pred(f.sem) {
                continue;
            }
            let (guard, site) = (f.guard, f.site);
            let gf = self.enc.encode_guard(self.sx, guard);
            let act = match site {
                Some(s) => self.enc.fence_act(s),
                None => self.enc.cnf.tt(),
            };
            let here = self.enc.cnf.and(gf, act);
            acc = self.enc.cnf.or(acc, here);
        }
        acc
    }

    fn rf(&mut self, x: usize, y: usize) -> Lit {
        // Flows(x, y) already contains the store-side guard, address
        // equality and maximal visibility; the load guard joins via the
        // uniform endpoint-guard factor in `base`.
        self.enc
            .flows
            .get(&(x, y))
            .copied()
            .unwrap_or_else(|| self.enc.cnf.ff())
    }

    fn co(&mut self, x: usize, y: usize) -> Lit {
        let (ex, ey) = (&self.sx.events[x], &self.sx.events[y]);
        if x == y || ex.kind != AccessKind::Store || ey.kind != AccessKind::Store {
            return self.enc.cnf.ff();
        }
        let ae = self.loc(x, y);
        if ae == self.enc.cnf.ff() {
            return ae;
        }
        let b = self.enc.before(x, y);
        self.enc.cnf.and(ae, b)
    }

    fn fr(&mut self, x: usize, y: usize) -> Lit {
        let (ex, ey) = (&self.sx.events[x], &self.sx.events[y]);
        if ex.kind != AccessKind::Load || ey.kind != AccessKind::Store {
            return self.enc.cnf.ff();
        }
        let ae = self.loc(x, y);
        if ae == self.enc.cnf.ff() {
            return ae;
        }
        // fr(x, y) ⇔ loc(x, y) ∧ (Init(x) ∨ ∃s₀. rf(s₀, x) ∧ s₀ <M y):
        // the read-from store (or the initial value) is overwritten by y.
        let mut cases = self
            .enc
            .load_init
            .get(&x)
            .copied()
            .unwrap_or_else(|| self.enc.cnf.tt());
        for s0 in 0..self.sx.events.len() {
            if s0 == y {
                continue;
            }
            let Some(&flows) = self.enc.flows.get(&(s0, x)) else {
                continue;
            };
            let b = self.enc.before(s0, y);
            let case = self.enc.cnf.and(flows, b);
            cases = self.enc.cnf.or(cases, case);
        }
        self.enc.cnf.and(ae, cases)
    }
}

impl RelBackend for SatCtx<'_, '_> {
    type C = Lit;

    fn n(&self) -> usize {
        self.sx.events.len()
    }

    fn tt(&self) -> Lit {
        self.enc.cnf.tt()
    }

    fn ff(&self) -> Lit {
        self.enc.cnf.ff()
    }

    fn is_ff(&self, c: &Lit) -> bool {
        *c == self.enc.cnf.ff()
    }

    fn and(&mut self, a: Lit, b: Lit) -> Lit {
        self.enc.cnf.and(a, b)
    }

    fn or(&mut self, a: Lit, b: Lit) -> Lit {
        self.enc.cnf.or(a, b)
    }

    fn not(&mut self, a: Lit) -> Lit {
        !a
    }

    fn base(&mut self, rel: BaseRel, x: usize, y: usize) -> Lit {
        let (ex, ey) = (&self.sx.events[x], &self.sx.events[y]);
        let cond = match rel {
            BaseRel::Po => {
                if ex.thread == ey.thread && ex.po < ey.po {
                    self.enc.cnf.tt()
                } else {
                    self.enc.cnf.ff()
                }
            }
            BaseRel::Int => {
                if ex.thread == ey.thread && x != y {
                    self.enc.cnf.tt()
                } else {
                    self.enc.cnf.ff()
                }
            }
            BaseRel::Ext => {
                if ex.thread != ey.thread {
                    self.enc.cnf.tt()
                } else {
                    self.enc.cnf.ff()
                }
            }
            BaseRel::Id => {
                if x == y {
                    self.enc.cnf.tt()
                } else {
                    self.enc.cnf.ff()
                }
            }
            BaseRel::Loc => self.loc(x, y),
            BaseRel::Mo => {
                if x == y {
                    self.enc.cnf.ff()
                } else {
                    self.enc.before(x, y)
                }
            }
            BaseRel::Rf => self.rf(x, y),
            BaseRel::Co => self.co(x, y),
            BaseRel::Fr => self.fr(x, y),
            BaseRel::Fence(k) => {
                let (xk, yk) = (ex.kind, ey.kind);
                self.fence_between(x, y, move |sem| match (k, sem) {
                    // Generic `fence`: any fence whose semantics order
                    // this pair of access kinds.
                    (None, sem) => sem_orders(sem, xk, yk),
                    // `fence_xy`: classic fences of that kind only (the
                    // pair's kinds must still match the X-Y signature).
                    (Some(want), FenceSem::Classic(have)) => {
                        want == have && sem_orders(sem, xk, yk)
                    }
                    (Some(_), FenceSem::C11(_)) => false,
                })
            }
            BaseRel::FenceAcq => self.fence_between(
                x,
                y,
                |sem| matches!(sem, FenceSem::C11(o) if o.is_acquire()),
            ),
            BaseRel::FenceRel => self.fence_between(
                x,
                y,
                |sem| matches!(sem, FenceSem::C11(o) if o.is_release()),
            ),
            BaseRel::FenceSc => {
                self.fence_between(x, y, |sem| sem == FenceSem::C11(MemOrder::SeqCst))
            }
            // Read-modify-write: the load and store halves of one atomic
            // group targeting the same location (the address-equality
            // circuit supplies `loc`; CAS pairs share one address term,
            // making it constant-true there). Mirrors the derived `rmw`
            // of the explicit oracle.
            BaseRel::Rmw => {
                let shape = ex.kind == AccessKind::Load
                    && ey.kind == AccessKind::Store
                    && ex.thread == ey.thread
                    && ex.po < ey.po
                    && ex.group.is_some()
                    && ex.group == ey.group;
                if shape {
                    self.loc(x, y)
                } else {
                    self.enc.cnf.ff()
                }
            }
        };
        if self.is_ff(&cond) {
            return cond;
        }
        let g = self.guards(x, y);
        self.enc.cnf.and(g, cond)
    }

    fn in_set(&self, set: SetFilter, e: usize) -> bool {
        let ev = &self.sx.events[e];
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
}

/// Emits every encoded spec's axioms, each clause premised on the
/// spec's selector literal. Called at the end of `encode_all` (the
/// `rf`/`fr` relations need the retained value-flow literals).
pub(crate) fn emit_spec_axioms(enc: &mut Encoding, sx: &SymExec, range: &RangeInfo) {
    for i in 0..enc.specs.len() {
        let spec = enc.specs[i].clone();
        let sel = enc.spec_selector(i);
        let mut gates: Vec<(String, Lit)> = Vec::new();
        for ax in &spec.axioms {
            // Provenance gating: one extra premise literal per axiom,
            // so a query assuming the gate positively keeps the axiom,
            // and the gate's appearance in an unsat core names the
            // axiom the proof leaned on. With provenance off, the
            // emitted clauses are exactly the historical ones.
            let premise: Vec<Lit> = if enc.provenance {
                let g = enc.cnf.fresh();
                let label = ax
                    .label
                    .clone()
                    .unwrap_or_else(|| ax.kind.name().to_string());
                gates.push((label, g));
                vec![sel, g]
            } else {
                vec![sel]
            };
            let m = {
                let mut ctx = SatCtx { enc, sx, range };
                cf_spec::eval(&mut ctx, &ax.rel)
            };
            let premise_with = |c: Lit| {
                let mut p = premise.clone();
                p.push(c);
                p
            };
            match ax.kind {
                AxiomKind::Order | AxiomKind::Acyclic => {
                    for (x, row) in m.iter().enumerate() {
                        for (y, &c) in row.iter().enumerate() {
                            if c == enc.cnf.ff() {
                                continue;
                            }
                            if x == y {
                                // A self-edge can never lie on a strict
                                // total order: unsatisfiable under this
                                // spec's selector.
                                enc.imply(&premise_with(c), enc.cnf.ff());
                            } else {
                                let b = enc.before(x, y);
                                enc.imply(&premise_with(c), b);
                            }
                        }
                    }
                }
                AxiomKind::Irreflexive => {
                    for (x, row) in m.iter().enumerate() {
                        let c = row[x];
                        if c == enc.cnf.ff() {
                            continue;
                        }
                        enc.imply(&premise_with(c), enc.cnf.ff());
                    }
                }
                AxiomKind::Empty => {
                    for row in &m {
                        for &c in row {
                            if c == enc.cnf.ff() {
                                continue;
                            }
                            enc.imply(&premise_with(c), enc.cnf.ff());
                        }
                    }
                }
            }
        }
        enc.axiom_acts.push(gates);
    }
}
