//! Event-graph construction: flatten each thread of a bounded test into
//! a stream of abstract shared-memory events.
//!
//! The builder is a tiny abstract interpreter over registers. It tracks
//! exactly one kind of fact — *which abstract location a register may
//! point to* — because that is all the conflict relation needs. Every
//! other value is `Unknown`. Branches are not split: both arms of every
//! conditional contribute their events in program order, so the event
//! stream *over*-approximates what any execution performs. That is the
//! right direction for the robustness report: extra events can only add
//! critical cycles, which makes the report more cautious (sound).

use cf_lsl::{FenceSem, MemOrder, PrimOp, ProcId, Program, Stmt, Value};
use cf_memmodel::AccessKind;

/// Maximum call-inlining depth before the builder gives up (recursion
/// guard; bundled implementations inline within 3–4 levels).
const MAX_DEPTH: usize = 16;

/// Abstract memory location of a shared access.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AbsLoc {
    /// A global base with a partially known offset path (`None` entries
    /// are dynamically computed indices).
    Global {
        /// Index into [`Program::globals`].
        base: u32,
        /// Field/array offsets below the base; `None` = unknown index.
        path: Vec<Option<u32>>,
    },
    /// Some heap allocation ([`Stmt::Alloc`]); heap bases are fresh at
    /// runtime, so a heap location never aliases a global.
    Heap,
    /// Statically unknown; may alias anything.
    Unknown,
}

impl AbsLoc {
    /// `true` when the two locations could denote the same address.
    pub fn may_alias(&self, other: &AbsLoc) -> bool {
        match (self, other) {
            (AbsLoc::Unknown, _) | (_, AbsLoc::Unknown) => true,
            (AbsLoc::Heap, AbsLoc::Heap) => true,
            (AbsLoc::Heap, AbsLoc::Global { .. }) | (AbsLoc::Global { .. }, AbsLoc::Heap) => false,
            (AbsLoc::Global { base: a, path: p }, AbsLoc::Global { base: b, path: q }) => {
                a == b
                    && p.iter().zip(q.iter()).all(|(x, y)| match (x, y) {
                        (Some(x), Some(y)) => x == y,
                        _ => true,
                    })
            }
        }
    }

    /// `true` when the two locations certainly denote the same address
    /// (needed before crediting a model's same-address ordering rule).
    pub fn must_alias(&self, other: &AbsLoc) -> bool {
        match (self, other) {
            (AbsLoc::Global { base: a, path: p }, AbsLoc::Global { base: b, path: q }) => {
                a == b
                    && p.len() == q.len()
                    && p.iter()
                        .zip(q.iter())
                        .all(|(x, y)| matches!((x, y), (Some(x), Some(y)) if x == y))
            }
            _ => false,
        }
    }
}

/// One shared-memory access in a thread's flattened event stream.
#[derive(Clone, Debug)]
pub struct AccessEvent {
    /// Thread index (position in the test's thread list).
    pub thread: usize,
    /// Position in the thread's stream (accesses and fences share one
    /// counter, so positions order both).
    pub pos: usize,
    /// Load or store ([`Stmt::Cas`] contributes one of each).
    pub kind: AccessKind,
    /// Abstract target location.
    pub loc: AbsLoc,
    /// Per-access C11 ordering annotation (recorded for reporting; the
    /// built-in hardware models ignore annotations, so chord
    /// enforcement never credits them).
    pub ord: MemOrder,
    /// Originating operation, e.g. `push_op#0`.
    pub op: String,
    /// Enclosing structured-block ids, outermost first.
    pub blocks: Vec<u32>,
    /// The subset of [`AccessEvent::blocks`] that are loops.
    pub loops: Vec<u32>,
    /// Atomic-group id when inside [`Stmt::Atomic`] (or the implicit
    /// group of a CAS).
    pub atomic: Option<u32>,
}

/// One real fence (classic or C11) in a thread's stream.
#[derive(Clone, Debug)]
pub struct FenceEvent {
    /// Thread index.
    pub thread: usize,
    /// Stream position.
    pub pos: usize,
    /// What the fence orders.
    pub sem: FenceSem,
    /// Enclosing structured-block ids, outermost first.
    pub blocks: Vec<u32>,
}

/// The flattened per-thread event streams of one bounded test.
#[derive(Clone, Debug, Default)]
pub(crate) struct Graph {
    pub accesses: Vec<AccessEvent>,
    pub fences: Vec<FenceEvent>,
    /// Set when inlining hit the depth cap: the streams are incomplete
    /// and no conclusion may be drawn from them.
    pub gave_up: bool,
    pub global_names: Vec<String>,
}

/// Abstract register value: a location or nothing we track.
#[derive(Clone, Debug, PartialEq, Eq)]
enum AbsVal {
    Unknown,
    Ptr(AbsLoc),
}

impl AbsVal {
    fn loc(&self) -> AbsLoc {
        match self {
            AbsVal::Ptr(l) => l.clone(),
            AbsVal::Unknown => AbsLoc::Unknown,
        }
    }
}

struct Builder<'p> {
    program: &'p Program,
    out: Graph,
    thread: usize,
    pos: usize,
    op: String,
    blocks: Vec<u32>,
    loops: Vec<u32>,
    next_block: u32,
    next_atomic: u32,
    atomic: Option<u32>,
}

pub(crate) fn build(program: &Program, threads: &[Vec<ProcId>]) -> Graph {
    let mut b = Builder {
        program,
        out: Graph {
            global_names: program.globals.iter().map(|g| g.name.clone()).collect(),
            ..Graph::default()
        },
        thread: 0,
        pos: 0,
        op: String::new(),
        blocks: Vec::new(),
        loops: Vec::new(),
        next_block: 0,
        next_atomic: 0,
        atomic: None,
    };
    for (t, ops) in threads.iter().enumerate() {
        b.thread = t;
        b.pos = 0;
        for (k, &proc) in ops.iter().enumerate() {
            b.op = format!("{}#{k}", program.procedure(proc).name);
            let nargs = program.procedure(proc).params.len();
            b.exec_proc(proc, &vec![AbsVal::Unknown; nargs], 0);
        }
    }
    b.out
}

impl Builder<'_> {
    fn exec_proc(&mut self, proc: ProcId, args: &[AbsVal], depth: usize) -> AbsVal {
        if depth > MAX_DEPTH {
            self.out.gave_up = true;
            return AbsVal::Unknown;
        }
        let p = self.program.procedure(proc);
        let mut regs = vec![AbsVal::Unknown; p.num_regs as usize];
        for (param, a) in p.params.iter().zip(args) {
            if let Some(r) = regs.get_mut(param.0 as usize) {
                *r = a.clone();
            }
        }
        self.exec_body(&p.body, &mut regs, depth);
        p.ret
            .and_then(|r| regs.get(r.0 as usize).cloned())
            .unwrap_or(AbsVal::Unknown)
    }

    fn exec_body(&mut self, body: &[Stmt], regs: &mut Vec<AbsVal>, depth: usize) {
        for stmt in body {
            self.exec_stmt(stmt, regs, depth);
        }
    }

    fn access(&mut self, kind: AccessKind, loc: AbsLoc, ord: MemOrder, atomic: Option<u32>) {
        self.out.accesses.push(AccessEvent {
            thread: self.thread,
            pos: self.pos,
            kind,
            loc,
            ord,
            op: self.op.clone(),
            blocks: self.blocks.clone(),
            loops: self.loops.clone(),
            atomic,
        });
        self.pos += 1;
    }

    fn exec_stmt(&mut self, stmt: &Stmt, regs: &mut Vec<AbsVal>, depth: usize) {
        let get = |regs: &[AbsVal], r: cf_lsl::Reg| {
            regs.get(r.0 as usize).cloned().unwrap_or(AbsVal::Unknown)
        };
        let set = |regs: &mut Vec<AbsVal>, r: cf_lsl::Reg, v: AbsVal| {
            if let Some(slot) = regs.get_mut(r.0 as usize) {
                *slot = v;
            }
        };
        match stmt {
            Stmt::Const { dst, value } => {
                let v = match value {
                    Value::Ptr(path) if !path.is_empty() => AbsVal::Ptr(AbsLoc::Global {
                        base: path[0],
                        path: path[1..].iter().map(|&k| Some(k)).collect(),
                    }),
                    _ => AbsVal::Unknown,
                };
                set(regs, *dst, v);
            }
            Stmt::Prim { dst, op, args } => {
                let v = match op {
                    PrimOp::Id => get(regs, args[0]),
                    PrimOp::Field(k) => match get(regs, args[0]) {
                        AbsVal::Ptr(AbsLoc::Global { base, mut path }) => {
                            path.push(Some(*k));
                            AbsVal::Ptr(AbsLoc::Global { base, path })
                        }
                        other => other,
                    },
                    PrimOp::Index => match get(regs, args[0]) {
                        AbsVal::Ptr(AbsLoc::Global { base, mut path }) => {
                            path.push(None);
                            AbsVal::Ptr(AbsLoc::Global { base, path })
                        }
                        other => other,
                    },
                    PrimOp::Ite => {
                        let (a, b) = (get(regs, args[1]), get(regs, args[2]));
                        if a == b {
                            a
                        } else {
                            AbsVal::Unknown
                        }
                    }
                    _ => AbsVal::Unknown,
                };
                set(regs, *dst, v);
            }
            Stmt::Load { dst, addr, ord } => {
                self.access(AccessKind::Load, get(regs, *addr).loc(), *ord, self.atomic);
                set(regs, *dst, AbsVal::Unknown);
            }
            Stmt::Store { addr, ord, .. } => {
                self.access(AccessKind::Store, get(regs, *addr).loc(), *ord, self.atomic);
            }
            Stmt::Cas { dst, addr, ord, .. } => {
                // The two halves of a CAS execute indivisibly: give them
                // a shared atomic group so the chord between them is
                // always enforced.
                let group = self.atomic.unwrap_or_else(|| {
                    self.next_atomic += 1;
                    self.next_atomic - 1
                });
                let loc = get(regs, *addr).loc();
                let (load_ord, store_ord) = ord.rmw_split();
                self.access(AccessKind::Load, loc.clone(), load_ord, Some(group));
                self.access(AccessKind::Store, loc, store_ord, Some(group));
                set(regs, *dst, AbsVal::Unknown);
            }
            Stmt::Fence(kind) => {
                self.out.fences.push(FenceEvent {
                    thread: self.thread,
                    pos: self.pos,
                    sem: FenceSem::Classic(*kind),
                    blocks: self.blocks.clone(),
                });
                self.pos += 1;
            }
            Stmt::CFence(ord) => {
                self.out.fences.push(FenceEvent {
                    thread: self.thread,
                    pos: self.pos,
                    sem: FenceSem::C11(*ord),
                    blocks: self.blocks.clone(),
                });
                self.pos += 1;
            }
            // Mutation toggles run their original branch: the analysis
            // describes the program as written, not its mutants.
            Stmt::Toggle { orig, .. } => self.exec_body(orig, regs, depth),
            Stmt::Atomic(body) => {
                let prev = self.atomic;
                if prev.is_none() {
                    self.atomic = Some(self.next_atomic);
                    self.next_atomic += 1;
                }
                self.exec_body(body, regs, depth);
                self.atomic = prev;
            }
            Stmt::Call { dst, proc, args } => {
                let vals: Vec<AbsVal> = args.iter().map(|&r| get(regs, r)).collect();
                let ret = self.exec_proc(*proc, &vals, depth + 1);
                if let Some(d) = dst {
                    set(regs, *d, ret);
                }
            }
            Stmt::Block {
                is_loop,
                spin,
                body,
                ..
            } => {
                let id = self.next_block;
                self.next_block += 1;
                self.blocks.push(id);
                if *is_loop || *spin {
                    self.loops.push(id);
                }
                self.exec_body(body, regs, depth);
                if *is_loop || *spin {
                    self.loops.pop();
                }
                self.blocks.pop();
            }
            Stmt::Alloc { dst, .. } => set(regs, *dst, AbsVal::Ptr(AbsLoc::Heap)),
            // Candidate fences are inert: never credited as real fences.
            Stmt::CandidateFence { .. }
            | Stmt::Break { .. }
            | Stmt::Continue { .. }
            | Stmt::Assert { .. }
            | Stmt::Assume { .. }
            | Stmt::CommitIf { .. } => {}
        }
    }
}
