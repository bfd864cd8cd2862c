//! Programmatic construction of LSL procedures.

use crate::layout::StructId;
use crate::prim::PrimOp;
use crate::program::Procedure;
use crate::stmt::{BlockTag, FenceKind, MemOrder, ProcId, Reg, Stmt};
use crate::value::Value;

/// A stack-based builder for [`Procedure`] bodies, used by the mini-C
/// lowering and by tests.
///
/// # Examples
///
/// ```
/// use cf_lsl::{ProcBuilder, PrimOp, Value};
/// let mut b = ProcBuilder::new("inc");
/// let x = b.param();
/// let one = b.constant(Value::Int(1));
/// let sum = b.prim(PrimOp::Add, &[x, one]);
/// b.set_ret(sum);
/// let proc = b.finish();
/// assert_eq!(proc.name, "inc");
/// assert_eq!(proc.params.len(), 1);
/// ```
#[derive(Debug)]
pub struct ProcBuilder {
    name: String,
    params: Vec<Reg>,
    num_regs: u32,
    /// Statement frames; index 0 is the procedure body, deeper entries are
    /// open blocks / atomic sections.
    frames: Vec<Frame>,
    next_tag: u32,
    ret: Option<Reg>,
}

#[derive(Debug)]
enum Frame {
    Body(Vec<Stmt>),
    Block {
        tag: BlockTag,
        is_loop: bool,
        spin: bool,
        stmts: Vec<Stmt>,
    },
    Atomic(Vec<Stmt>),
}

impl Frame {
    fn stmts_mut(&mut self) -> &mut Vec<Stmt> {
        match self {
            Frame::Body(s) | Frame::Atomic(s) => s,
            Frame::Block { stmts, .. } => stmts,
        }
    }
}

impl ProcBuilder {
    /// Starts building a procedure with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProcBuilder {
            name: name.into(),
            params: Vec::new(),
            num_regs: 0,
            frames: vec![Frame::Body(Vec::new())],
            next_tag: 0,
            ret: None,
        }
    }

    /// Allocates a fresh register.
    pub fn fresh(&mut self) -> Reg {
        let r = Reg(self.num_regs);
        self.num_regs += 1;
        r
    }

    /// Declares the next parameter (parameters are ordinary registers
    /// filled by the caller).
    pub fn param(&mut self) -> Reg {
        let r = self.fresh();
        self.params.push(r);
        r
    }

    fn push(&mut self, s: Stmt) {
        self.frames
            .last_mut()
            .expect("builder has a frame")
            .stmts_mut()
            .push(s);
    }

    /// Emits `dst = value` into a fresh register.
    pub fn constant(&mut self, value: Value) -> Reg {
        let dst = self.fresh();
        self.push(Stmt::Const { dst, value });
        dst
    }

    /// Emits a primitive operation into a fresh register.
    ///
    /// # Panics
    ///
    /// Panics if the operand count does not match the operation's arity.
    pub fn prim(&mut self, op: PrimOp, args: &[Reg]) -> Reg {
        assert_eq!(args.len(), op.arity(), "arity mismatch for {op:?}");
        let dst = self.fresh();
        self.push(Stmt::Prim {
            dst,
            op,
            args: args.to_vec(),
        });
        dst
    }

    /// Emits a primitive operation into an existing register
    /// (used by the front-end for assignments to locals).
    pub fn prim_into(&mut self, dst: Reg, op: PrimOp, args: &[Reg]) {
        assert_eq!(args.len(), op.arity(), "arity mismatch for {op:?}");
        self.push(Stmt::Prim {
            dst,
            op,
            args: args.to_vec(),
        });
    }

    /// Copies `src` into `dst`.
    pub fn copy_into(&mut self, dst: Reg, src: Reg) {
        self.prim_into(dst, PrimOp::Id, &[src]);
    }

    /// Emits an unannotated load into a fresh register.
    pub fn load(&mut self, addr: Reg) -> Reg {
        self.load_ord(addr, MemOrder::Plain)
    }

    /// Emits a load with an explicit ordering annotation.
    pub fn load_ord(&mut self, addr: Reg, ord: MemOrder) -> Reg {
        let dst = self.fresh();
        self.push(Stmt::Load { dst, addr, ord });
        dst
    }

    /// Emits an unannotated store.
    pub fn store(&mut self, addr: Reg, value: Reg) {
        self.store_ord(addr, value, MemOrder::Plain);
    }

    /// Emits a store with an explicit ordering annotation.
    pub fn store_ord(&mut self, addr: Reg, value: Reg, ord: MemOrder) {
        self.push(Stmt::Store { addr, value, ord });
    }

    /// Emits an atomic compare-and-swap; returns the register receiving
    /// the old value.
    pub fn cas(&mut self, addr: Reg, expected: Reg, desired: Reg, ord: MemOrder) -> Reg {
        let dst = self.fresh();
        self.push(Stmt::Cas {
            dst,
            addr,
            expected,
            desired,
            ord,
        });
        dst
    }

    /// Emits a fence.
    pub fn fence(&mut self, kind: FenceKind) {
        self.push(Stmt::Fence(kind));
    }

    /// Emits a C11 ordering fence.
    pub fn cfence(&mut self, ord: MemOrder) {
        self.push(Stmt::CFence(ord));
    }

    /// Emits a heap allocation of struct `ty` into a fresh register.
    pub fn alloc(&mut self, ty: StructId) -> Reg {
        let dst = self.fresh();
        self.push(Stmt::Alloc { dst, ty });
        dst
    }

    /// Emits a procedure call; returns the destination register when
    /// `has_ret` is set.
    pub fn call(&mut self, proc: ProcId, args: &[Reg], has_ret: bool) -> Option<Reg> {
        let dst = if has_ret { Some(self.fresh()) } else { None };
        self.push(Stmt::Call {
            dst,
            proc,
            args: args.to_vec(),
        });
        dst
    }

    /// Emits `assert(cond)`.
    pub fn assert_true(&mut self, cond: Reg) {
        self.push(Stmt::Assert { cond });
    }

    /// Emits `assume(cond)`.
    pub fn assume(&mut self, cond: Reg) {
        self.push(Stmt::Assume { cond });
    }

    /// Emits a `commit(cond)` marker (commit-point method only).
    pub fn commit_if(&mut self, cond: Reg) {
        self.push(Stmt::CommitIf { cond });
    }

    /// Opens a labeled block; statements go into it until
    /// [`ProcBuilder::end_block`].
    pub fn begin_block(&mut self, is_loop: bool, spin: bool) -> BlockTag {
        let tag = BlockTag(self.next_tag);
        self.next_tag += 1;
        self.frames.push(Frame::Block {
            tag,
            is_loop,
            spin,
            stmts: Vec::new(),
        });
        tag
    }

    /// Closes the innermost open block.
    ///
    /// # Panics
    ///
    /// Panics if no block is open (or an atomic section is innermost).
    pub fn end_block(&mut self) {
        match self.frames.pop() {
            Some(Frame::Block {
                tag,
                is_loop,
                spin,
                stmts,
            }) => self.push(Stmt::Block {
                tag,
                is_loop,
                spin,
                body: stmts,
            }),
            _ => panic!("end_block without open block"),
        }
    }

    /// Opens an atomic section.
    pub fn begin_atomic(&mut self) {
        self.frames.push(Frame::Atomic(Vec::new()));
    }

    /// Closes the innermost atomic section.
    ///
    /// # Panics
    ///
    /// Panics if no atomic section is open.
    pub fn end_atomic(&mut self) {
        match self.frames.pop() {
            Some(Frame::Atomic(stmts)) => self.push(Stmt::Atomic(stmts)),
            _ => panic!("end_atomic without open atomic section"),
        }
    }

    /// Emits `if (cond) break tag`.
    pub fn break_if(&mut self, cond: Reg, tag: BlockTag) {
        self.push(Stmt::Break { cond, tag });
    }

    /// Emits an unconditional break (via a constant-true register).
    pub fn break_always(&mut self, tag: BlockTag) {
        let t = self.constant(Value::bool(true));
        self.break_if(t, tag);
    }

    /// Emits `if (cond) continue tag`.
    pub fn continue_if(&mut self, cond: Reg, tag: BlockTag) {
        self.push(Stmt::Continue { cond, tag });
    }

    /// Emits an unconditional continue.
    pub fn continue_always(&mut self, tag: BlockTag) {
        let t = self.constant(Value::bool(true));
        self.continue_if(t, tag);
    }

    /// Designates the register read as the return value.
    pub fn set_ret(&mut self, reg: Reg) {
        self.ret = Some(reg);
    }

    /// Finishes construction.
    ///
    /// # Panics
    ///
    /// Panics if blocks or atomic sections are still open.
    pub fn finish(mut self) -> Procedure {
        assert_eq!(self.frames.len(), 1, "unclosed block or atomic section");
        let body = match self.frames.pop() {
            Some(Frame::Body(s)) => s,
            _ => unreachable!("outermost frame is the body"),
        };
        Procedure {
            name: self.name,
            params: self.params,
            ret: self.ret,
            num_regs: self.num_regs,
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_blocks() {
        let mut b = ProcBuilder::new("f");
        let outer = b.begin_block(true, false);
        let c = b.constant(Value::bool(false));
        b.break_if(c, outer);
        b.continue_always(outer);
        b.end_block();
        let p = b.finish();
        assert_eq!(p.body.len(), 1);
        match &p.body[0] {
            Stmt::Block { is_loop, body, .. } => {
                assert!(*is_loop);
                assert_eq!(body.len(), 4); // const, break, const, continue
            }
            other => panic!("expected block, got {other:?}"),
        }
    }

    #[test]
    fn atomic_sections() {
        let mut b = ProcBuilder::new("f");
        b.begin_atomic();
        let a = b.constant(Value::Int(1));
        let addr = b.constant(Value::ptr(vec![0]));
        b.store(addr, a);
        b.end_atomic();
        let p = b.finish();
        assert!(matches!(p.body[0], Stmt::Atomic(_)));
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn unclosed_block_panics() {
        let mut b = ProcBuilder::new("f");
        b.begin_block(false, false);
        let _ = b.finish();
    }
}
