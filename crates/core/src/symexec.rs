//! Predicated symbolic execution of the unrolled test program.
//!
//! This module performs the back-end transformation of paper §3.2: it
//! inlines operation calls, unrolls loops to their current bounds
//! (§3.3), and symbolically executes each thread under a path predicate,
//! producing:
//!
//! * a term DAG (the thread-local formulae Δ of §3.2.1),
//! * the list of guarded memory access events and fences (the input to
//!   the memory-model formula Θ),
//! * assume/assert/error conditions, loop-bound-exceeded flags, the
//!   observation vector, and commit-point candidates.
//!
//! Every register assignment becomes a guarded update
//! `env[r] ← mux(live, new, env[r])`, which subsumes SSA renaming and phi
//! placement.

use std::collections::BTreeMap;

use cf_lsl::{
    AddressSpace, BaseDef, BlockTag, FenceSem, MemOrder, MemType, PrimOp, ProcId, Procedure, Reg,
    Stmt, Value,
};
use cf_memmodel::AccessKind;

use crate::fxhash::FxHashMap;
use crate::term::{BTermId, EventId, TermArena, VTerm, VTermId};
use crate::test_spec::{Harness, TestSpec};

/// A guarded memory access event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Dense id (index into the event vector).
    pub id: EventId,
    /// Thread index; 0 is the virtual initialization thread.
    pub thread: usize,
    /// Program-order position within the thread (shared counter with
    /// fences so fence betweenness is decidable).
    pub po: usize,
    /// Load or store.
    pub kind: AccessKind,
    /// Execution guard.
    pub guard: BTermId,
    /// Address term.
    pub addr: VTermId,
    /// Value term (store: stored value; load: its fresh result term).
    pub value: VTermId,
    /// Atomic block instance, if inside one.
    pub group: Option<u32>,
    /// C11-style ordering annotation (`Plain` for classic accesses).
    pub ord: MemOrder,
    /// Operation index this event belongs to.
    pub op: usize,
    /// Human-readable provenance for traces.
    pub label: String,
}

/// A guarded fence.
#[derive(Clone, Debug)]
pub struct FenceEvt {
    /// Thread index.
    pub thread: usize,
    /// Program-order position (same counter as events).
    pub po: usize,
    /// Fence semantics (classic two-sided or C11 ordering).
    pub sem: FenceSem,
    /// Execution guard.
    pub guard: BTermId,
}

/// Kinds of runtime errors the checker detects (paper §3.1: "runtime
/// types help to automatically detect bugs").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorKind {
    /// An `assert` evaluated to false.
    AssertFailed,
    /// An undefined value was used in a condition.
    UndefCondition,
    /// A load or store targeted an invalid address (filled in by the
    /// encoder from range information).
    BadAddress,
}

impl ErrorKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::AssertFailed => "assertion failed",
            ErrorKind::UndefCondition => "undefined value used in condition",
            ErrorKind::BadAddress => "invalid address dereferenced",
        }
    }
}

/// A guarded error condition.
#[derive(Clone, Debug)]
pub struct ErrorCond {
    /// The execution exhibits the error when this holds.
    pub cond: BTermId,
    /// What went wrong.
    pub kind: ErrorKind,
    /// Provenance.
    pub label: String,
}

/// Role of an observation component.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ObsRole {
    /// The n-th argument of the operation.
    Arg(usize),
    /// The return value.
    Ret,
}

/// One component of the observation vector (paper §2.2).
#[derive(Clone, Debug)]
pub struct ObsEntry {
    /// Operation index (canonical order: init ops then threads).
    pub op: usize,
    /// Argument or return value.
    pub role: ObsRole,
    /// The observed value term.
    pub term: VTermId,
}

/// Unrolled-code statistics (the first columns of Fig. 10).
#[derive(Clone, Copy, Default, Debug)]
pub struct UnrollStats {
    /// Statements symbolically executed (unrolled instruction count).
    pub instrs: usize,
    /// Load events.
    pub loads: usize,
    /// Store events.
    pub stores: usize,
}

/// The complete result of symbolically executing a test.
#[derive(Debug)]
pub struct SymExec {
    /// Term arena.
    pub arena: TermArena,
    /// All memory access events.
    pub events: Vec<Event>,
    /// All fences.
    pub fences: Vec<FenceEvt>,
    /// Guarded assumptions (each must hold in every considered execution).
    pub assumes: Vec<BTermId>,
    /// Error conditions (any one true makes the execution a bug).
    pub errors: Vec<ErrorCond>,
    /// The observation vector.
    pub obs: Vec<ObsEntry>,
    /// Commit-point candidates per operation: (preceding event, active).
    pub commits: Vec<Vec<(EventId, BTermId)>>,
    /// Loop-bound-exceeded conditions, keyed by loop instance.
    pub exceeded: Vec<(String, BTermId)>,
    /// The address space (globals + allocations).
    pub space: AddressSpace,
    /// Struct layouts (cloned from the harness program).
    pub types: cf_lsl::TypeTable,
    /// Unrolled-code statistics.
    pub stats: UnrollStats,
    /// Number of threads including the virtual init thread 0.
    pub num_threads: usize,
    /// Number of operations (including the init entry point).
    pub num_ops: usize,
}

/// Loop bounds per loop-instance key, refined lazily (§3.3).
pub type LoopBounds = BTreeMap<String, u32>;

/// Execution error surfaced while building the encoding (structural
/// problems, not program bugs).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SymExecError {
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for SymExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "symbolic execution: {}", self.message)
    }
}

impl std::error::Error for SymExecError {}

const MAX_INLINE_DEPTH: usize = 24;

/// Symbolically executes `test` against `harness` under the given loop
/// bounds.
///
/// # Errors
///
/// Returns [`SymExecError`] for structural problems: unknown operation
/// keys, missing procedures, excessive inlining depth.
pub fn execute(
    harness: &Harness,
    test: &TestSpec,
    bounds: &LoopBounds,
    spin_bound: u32,
) -> Result<SymExec, SymExecError> {
    let mut space = AddressSpace::new();
    for g in &harness.program.globals {
        space.add_base(BaseDef {
            name: g.name.clone(),
            ty: g.ty.clone(),
            is_heap: false,
        });
    }
    let mut ex = Execer {
        harness,
        bounds,
        spin_bound: spin_bound.max(1),
        arena: TermArena::new(),
        events: Vec::new(),
        fences: Vec::new(),
        assumes: Vec::new(),
        errors: Vec::new(),
        obs: Vec::new(),
        commits: Vec::new(),
        exceeded: Vec::new(),
        space,
        stats: UnrollStats::default(),
        thread: 0,
        po: 0,
        group: None,
        next_group: 0,
        op: 0,
        arg_counter: 0,
        alloc_counter: 0,
        ctx: Vec::new(),
        assume_exceeded: false,
        depth: 0,
    };
    ex.run(test)?;
    let num_ops = ex.commits.len();
    Ok(SymExec {
        types: harness.program.types.clone(),
        arena: ex.arena,
        events: ex.events,
        fences: ex.fences,
        assumes: ex.assumes,
        errors: ex.errors,
        obs: ex.obs,
        commits: ex.commits,
        exceeded: ex.exceeded,
        space: ex.space,
        stats: ex.stats,
        num_threads: test.threads.len() + 1,
        num_ops,
    })
}

struct Frame {
    env: Vec<VTermId>,
    proc_name: String,
}

struct Execer<'h> {
    harness: &'h Harness,
    bounds: &'h LoopBounds,
    spin_bound: u32,
    arena: TermArena,
    events: Vec<Event>,
    fences: Vec<FenceEvt>,
    assumes: Vec<BTermId>,
    errors: Vec<ErrorCond>,
    obs: Vec<ObsEntry>,
    commits: Vec<Vec<(EventId, BTermId)>>,
    exceeded: Vec<(String, BTermId)>,
    space: AddressSpace,
    stats: UnrollStats,
    thread: usize,
    po: usize,
    group: Option<u32>,
    next_group: u32,
    op: usize,
    arg_counter: u32,
    alloc_counter: u32,
    ctx: Vec<String>,
    assume_exceeded: bool,
    depth: usize,
}

impl<'h> Execer<'h> {
    fn err(&self, msg: impl Into<String>) -> SymExecError {
        SymExecError {
            message: msg.into(),
        }
    }

    fn run(&mut self, test: &TestSpec) -> Result<(), SymExecError> {
        // Virtual thread 0: the init entry point, then the init sequence.
        self.thread = 0;
        self.po = 0;
        if let Some(init_name) = &self.harness.init_proc {
            let id = self
                .harness
                .program
                .proc_id(init_name)
                .ok_or_else(|| self.err(format!("missing init procedure `{init_name}`")))?;
            let op = self.begin_op();
            let live = self.arena.btrue();
            self.ctx.push(format!("init.{op}"));
            self.exec_call(id, &[], live)?;
            self.ctx.pop();
        }
        let init_ops = test.init.clone();
        for inv in &init_ops {
            self.exec_operation(inv.key, inv.primed)?;
        }
        // Test threads.
        for (t, ops) in test.threads.iter().enumerate() {
            self.thread = t + 1;
            self.po = 0;
            for inv in ops {
                self.exec_operation(inv.key, inv.primed)?;
            }
        }
        Ok(())
    }

    fn begin_op(&mut self) -> usize {
        self.op = self.commits.len();
        self.commits.push(Vec::new());
        self.op
    }

    fn exec_operation(&mut self, key: char, primed: bool) -> Result<(), SymExecError> {
        let sig = self
            .harness
            .op(key)
            .ok_or_else(|| self.err(format!("unknown operation key `{key}`")))?
            .clone();
        let id = self
            .harness
            .program
            .proc_id(&sig.proc_name)
            .ok_or_else(|| self.err(format!("missing wrapper `{}`", sig.proc_name)))?;
        let op = self.begin_op();
        let mut args = Vec::new();
        for i in 0..sig.num_args {
            let a = self.arena.vterm(VTerm::Arg(self.arg_counter));
            self.arg_counter += 1;
            args.push(a);
            self.obs.push(ObsEntry {
                op,
                role: ObsRole::Arg(i),
                term: a,
            });
        }
        let saved = self.assume_exceeded;
        self.assume_exceeded = primed;
        let live = self.arena.btrue();
        self.ctx
            .push(format!("t{}.{op}.{}", self.thread, sig.proc_name));
        let (_, ret) = self.exec_call(id, &args, live)?;
        self.ctx.pop();
        self.assume_exceeded = saved;
        if sig.has_ret {
            let term = ret.ok_or_else(|| {
                self.err(format!("wrapper `{}` returned no value", sig.proc_name))
            })?;
            self.obs.push(ObsEntry {
                op,
                role: ObsRole::Ret,
                term,
            });
        }
        Ok(())
    }

    fn exec_call(
        &mut self,
        id: ProcId,
        args: &[VTermId],
        live: BTermId,
    ) -> Result<(BTermId, Option<VTermId>), SymExecError> {
        self.depth += 1;
        if self.depth > MAX_INLINE_DEPTH {
            return Err(self.err("inlining depth exceeded (recursion?)"));
        }
        let proc: &Procedure = self.harness.program.procedure(id);
        let undef = self.arena.const_val(Value::Undefined);
        let mut frame = Frame {
            env: vec![undef; proc.num_regs as usize],
            proc_name: proc.name.clone(),
        };
        if proc.params.len() != args.len() {
            return Err(self.err(format!(
                "`{}` expects {} args, got {}",
                proc.name,
                proc.params.len(),
                args.len()
            )));
        }
        for (p, &a) in proc.params.iter().zip(args) {
            frame.env[p.index()] = a;
        }
        let mut exits: FxHashMap<BlockTag, BTermId> = FxHashMap::default();
        let mut conts: FxHashMap<BlockTag, BTermId> = FxHashMap::default();
        let body = proc.body.clone();
        let live_out = self.exec_stmts(&body, &mut frame, live, &mut exits, &mut conts)?;
        let ret = proc.ret.map(|r| frame.env[r.index()]);
        self.depth -= 1;
        Ok((live_out, ret))
    }

    fn emit_load(&mut self, addr: VTermId, guard: BTermId, ord: MemOrder, proc: &str) -> VTermId {
        let id = EventId(self.events.len() as u32);
        let result = self.arena.vterm(VTerm::LoadResult(id));
        self.events.push(Event {
            id,
            thread: self.thread,
            po: self.po,
            kind: AccessKind::Load,
            guard,
            addr,
            value: result,
            group: self.group,
            ord,
            op: self.op,
            label: format!("{proc}: load"),
        });
        self.po += 1;
        self.stats.loads += 1;
        result
    }

    fn emit_store(
        &mut self,
        addr: VTermId,
        value: VTermId,
        guard: BTermId,
        ord: MemOrder,
        proc: &str,
    ) {
        let id = EventId(self.events.len() as u32);
        self.events.push(Event {
            id,
            thread: self.thread,
            po: self.po,
            kind: AccessKind::Store,
            guard,
            addr,
            value,
            group: self.group,
            ord,
            op: self.op,
            label: format!("{proc}: store"),
        });
        self.po += 1;
        self.stats.stores += 1;
    }

    fn set_reg(&mut self, frame: &mut Frame, dst: Reg, live: BTermId, value: VTermId) {
        let old = frame.env[dst.index()];
        frame.env[dst.index()] = self.arena.mux(live, value, old);
    }

    fn record_cond_undef(&mut self, live: BTermId, cond: VTermId, what: &str, frame: &Frame) {
        let iu = self.arena.is_undef(cond);
        let c = self.arena.and(live, iu);
        if self.arena.as_const_bool(c) != Some(false) {
            self.errors.push(ErrorCond {
                cond: c,
                kind: ErrorKind::UndefCondition,
                label: format!("{} in {}", what, frame.proc_name),
            });
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec_stmts(
        &mut self,
        stmts: &[Stmt],
        frame: &mut Frame,
        mut live: BTermId,
        exits: &mut FxHashMap<BlockTag, BTermId>,
        conts: &mut FxHashMap<BlockTag, BTermId>,
    ) -> Result<BTermId, SymExecError> {
        for s in stmts {
            if self.arena.as_const_bool(live) == Some(false) {
                // Dead code after unconditional break/continue.
                break;
            }
            self.stats.instrs += 1;
            match s {
                Stmt::Const { dst, value } => {
                    let v = self.arena.const_val(value.clone());
                    self.set_reg(frame, *dst, live, v);
                }
                Stmt::Prim { dst, op, args } => {
                    let ts: Vec<VTermId> = args.iter().map(|r| frame.env[r.index()]).collect();
                    let v = self.arena.prim(*op, ts);
                    self.set_reg(frame, *dst, live, v);
                }
                Stmt::Load { dst, addr, ord } => {
                    let a = frame.env[addr.index()];
                    let result = self.emit_load(a, live, *ord, &frame.proc_name);
                    self.set_reg(frame, *dst, live, result);
                }
                Stmt::Store { addr, value, ord } => {
                    let a = frame.env[addr.index()];
                    let v = frame.env[value.index()];
                    self.emit_store(a, v, live, *ord, &frame.proc_name);
                }
                Stmt::Cas {
                    dst,
                    addr,
                    expected,
                    desired,
                    ord,
                } => {
                    // A compare-and-swap is a load plus a success-guarded
                    // store inside one atomic group: the group makes the
                    // pair indivisible and (with the shared address)
                    // identifies it as an `rmw` pair to spec evaluation.
                    let a = frame.env[addr.index()];
                    let exp = frame.env[expected.index()];
                    let des = frame.env[desired.index()];
                    let saved = self.group;
                    if saved.is_none() {
                        self.group = Some(self.next_group);
                        self.next_group += 1;
                    }
                    let (load_ord, store_ord) = ord.rmw_split();
                    let old = self.emit_load(a, live, load_ord, &frame.proc_name);
                    let eq = self.arena.prim(PrimOp::Eq, vec![old, exp]);
                    let hit = self.arena.truthy(eq);
                    let success = self.arena.and(live, hit);
                    self.emit_store(a, des, success, store_ord, &frame.proc_name);
                    self.group = saved;
                    self.set_reg(frame, *dst, live, old);
                }
                Stmt::Fence(kind) => {
                    self.fences.push(FenceEvt {
                        thread: self.thread,
                        po: self.po,
                        sem: FenceSem::Classic(*kind),
                        guard: live,
                    });
                    self.po += 1;
                }
                Stmt::CFence(ord) => {
                    self.fences.push(FenceEvt {
                        thread: self.thread,
                        po: self.po,
                        sem: FenceSem::C11(*ord),
                        guard: live,
                    });
                    self.po += 1;
                }
                Stmt::Toggle { site, orig, mutant } => {
                    // Batched mutation point: both branches execute
                    // symbolically, guarded by the polarity of the site's
                    // toggle term, so one encoding covers the original
                    // program and every mutant and the session picks one
                    // via assumptions. The branches may not diverge in
                    // liveness (a branch that `break`s out of blocks the
                    // other stays in would corrupt the merge), so toggles
                    // are restricted to straight-line rewrites — enforced
                    // here, since Stmt::Toggle is public API.
                    let t = self.arena.toggle(*site);
                    let nt = self.arena.not(t);
                    let live_orig = self.arena.and(live, nt);
                    let live_mut = self.arena.and(live, t);
                    let out_orig = self.exec_stmts(orig, frame, live_orig, exits, conts)?;
                    if out_orig != live_orig {
                        return Err(self.err(format!(
                            "toggle site {site}: branches must be straight-line \
                             (a control transfer inside a branch would corrupt \
                             the liveness merge)"
                        )));
                    }
                    if !mutant.is_empty() {
                        let out_mut = self.exec_stmts(mutant, frame, live_mut, exits, conts)?;
                        if out_mut != live_mut {
                            return Err(self.err(format!(
                                "toggle site {site}: branches must be straight-line \
                                 (a control transfer inside a branch would corrupt \
                                 the liveness merge)"
                            )));
                        }
                    }
                }
                Stmt::Atomic(body) => {
                    let saved = self.group;
                    if saved.is_none() {
                        self.group = Some(self.next_group);
                        self.next_group += 1;
                    }
                    live = self.exec_stmts(body, frame, live, exits, conts)?;
                    self.group = saved;
                }
                Stmt::Call { dst, proc, args } => {
                    let ts: Vec<VTermId> = args.iter().map(|r| frame.env[r.index()]).collect();
                    self.ctx
                        .push(self.harness.program.procedure(*proc).name.clone());
                    let (live_out, ret) = self.exec_call(*proc, &ts, live)?;
                    self.ctx.pop();
                    live = live_out;
                    if let (Some(d), Some(r)) = (dst, ret) {
                        self.set_reg(frame, *d, live, r);
                    }
                }
                Stmt::Block {
                    tag,
                    is_loop,
                    spin,
                    body,
                } => {
                    live =
                        self.exec_block(*tag, *is_loop, *spin, body, frame, live, exits, conts)?;
                }
                Stmt::Break { cond, tag } => {
                    let c = frame.env[cond.index()];
                    self.record_cond_undef(live, c, "break condition", frame);
                    let t = self.arena.truthy(c);
                    let taken = self.arena.and(live, t);
                    let prev = exits
                        .get(tag)
                        .copied()
                        .unwrap_or_else(|| self.arena.bfalse());
                    let merged = self.arena.or(prev, taken);
                    exits.insert(*tag, merged);
                    let nt = self.arena.not(t);
                    live = self.arena.and(live, nt);
                }
                Stmt::Continue { cond, tag } => {
                    let c = frame.env[cond.index()];
                    self.record_cond_undef(live, c, "continue condition", frame);
                    let t = self.arena.truthy(c);
                    let taken = self.arena.and(live, t);
                    let prev = conts
                        .get(tag)
                        .copied()
                        .unwrap_or_else(|| self.arena.bfalse());
                    let merged = self.arena.or(prev, taken);
                    conts.insert(*tag, merged);
                    let nt = self.arena.not(t);
                    live = self.arena.and(live, nt);
                }
                Stmt::Assert { cond } => {
                    let c = frame.env[cond.index()];
                    self.record_cond_undef(live, c, "assert condition", frame);
                    let t = self.arena.truthy(c);
                    let nt = self.arena.not(t);
                    let fail = self.arena.and(live, nt);
                    if self.arena.as_const_bool(fail) != Some(false) {
                        self.errors.push(ErrorCond {
                            cond: fail,
                            kind: ErrorKind::AssertFailed,
                            label: format!("assert in {}", frame.proc_name),
                        });
                    }
                }
                Stmt::Assume { cond } => {
                    let c = frame.env[cond.index()];
                    self.record_cond_undef(live, c, "assume condition", frame);
                    let t = self.arena.truthy(c);
                    let nl = self.arena.not(live);
                    let holds = self.arena.or(nl, t);
                    self.assumes.push(holds);
                }
                Stmt::Alloc { dst, ty } => {
                    self.alloc_counter += 1;
                    let name = format!(
                        "{}#{}",
                        self.harness.program.types.get(*ty).name,
                        self.alloc_counter
                    );
                    let base = self.space.add_base(BaseDef {
                        name,
                        ty: MemType::Struct(*ty),
                        is_heap: true,
                    });
                    let v = self.arena.const_val(Value::ptr(vec![base]));
                    self.set_reg(frame, *dst, live, v);
                }
                Stmt::CommitIf { cond } => {
                    let c = frame.env[cond.index()];
                    let t = self.arena.truthy(c);
                    let active = self.arena.and(live, t);
                    // The commit point is the last memory access emitted by
                    // this thread.
                    if let Some(last) = self.events.iter().rev().find(|e| e.thread == self.thread) {
                        let id = last.id;
                        self.commits[self.op].push((id, active));
                    }
                }
            }
        }
        Ok(live)
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_block(
        &mut self,
        tag: BlockTag,
        is_loop: bool,
        spin: bool,
        body: &[Stmt],
        frame: &mut Frame,
        live: BTermId,
        exits: &mut FxHashMap<BlockTag, BTermId>,
        conts: &mut FxHashMap<BlockTag, BTermId>,
    ) -> Result<BTermId, SymExecError> {
        if !is_loop {
            let body_live = self.exec_stmts(body, frame, live, exits, conts)?;
            let brk = exits.remove(&tag).unwrap_or_else(|| self.arena.bfalse());
            debug_assert!(
                conts.remove(&tag).is_none(),
                "continue targeting a non-loop block"
            );
            return Ok(self.arena.or(body_live, brk));
        }

        let key = format!("{}/{}", self.ctx.join("/"), tag);
        let bound = if spin {
            // Spin loops (the paper's reduction): a fixed bound with an
            // exit assumption instead of lazy growth. Failing iterations
            // are side-effect free, so executions with more iterations
            // are observationally equivalent to shorter ones.
            self.spin_bound
        } else {
            *self.bounds.get(&key).unwrap_or(&1)
        };
        let mut exit_live = self.arena.bfalse();
        let mut iter_live = live;
        for _ in 0..bound {
            if self.arena.as_const_bool(iter_live) == Some(false) {
                break;
            }
            let body_live = self.exec_stmts(body, frame, iter_live, exits, conts)?;
            let brk = exits.remove(&tag).unwrap_or_else(|| self.arena.bfalse());
            let cont = conts.remove(&tag).unwrap_or_else(|| self.arena.bfalse());
            exit_live = self.arena.or(exit_live, body_live);
            exit_live = self.arena.or(exit_live, brk);
            iter_live = cont;
        }
        // `iter_live` is now the condition of needing another iteration.
        if self.arena.as_const_bool(iter_live) != Some(false) {
            if spin || self.assume_exceeded {
                // The paper's spin reduction / primed operations: assume
                // the loop exits within the bound.
                let holds = self.arena.not(iter_live);
                self.assumes.push(holds);
            } else {
                self.exceeded.push((key, iter_live));
            }
        }
        Ok(exit_live)
    }
}
