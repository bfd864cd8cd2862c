//! A concrete, sequential interpreter for LSL.
//!
//! CheckFence uses this interpreter in two roles:
//!
//! * *Serial execution enumeration* — the specification-mining fast path
//!   the paper calls using "a small, fast reference implementation"
//!   (§3.2, "refset"): operations are executed atomically in every
//!   interleaving to enumerate the observation set without SAT calls.
//! * *Differential oracle* — property tests compare the mini-C lowering
//!   and the symbolic encoder against this interpreter.
//!
//! The interpreter executes under sequential-consistency-with-atomicity
//! semantics: memory is a flat map, fences are no-ops.

use std::fmt;

use crate::layout::{AddressSpace, BaseDef, MemType};
use crate::program::Program;
use crate::stmt::{BlockTag, ProcId, Reg, Stmt};
use crate::value::Value;

/// Why a concrete execution stopped abnormally.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// An undefined value was used in a computation or condition
    /// (a bug class the paper detects automatically, §3.1).
    UndefinedUse {
        /// What used the value.
        context: String,
    },
    /// A primitive operation was applied to operands of the wrong runtime
    /// type (e.g. `<` on pointers).
    TypeError {
        /// What went wrong.
        context: String,
    },
    /// A load or store targeted a value that is not a valid scalar
    /// location (null, an integer, a struct, an out-of-bounds path).
    BadAddress {
        /// The offending address value.
        addr: Value,
    },
    /// `assert` failed.
    AssertFailed,
    /// `assume` failed: the execution is infeasible, not buggy. Callers
    /// enumerating executions silently discard these.
    AssumeViolated,
    /// The step budget was exhausted (possible livelock).
    OutOfFuel,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UndefinedUse { context } => {
                write!(f, "undefined value used in {context}")
            }
            ExecError::TypeError { context } => write!(f, "runtime type error: {context}"),
            ExecError::BadAddress { addr } => write!(f, "bad address {addr}"),
            ExecError::AssertFailed => write!(f, "assertion failed"),
            ExecError::AssumeViolated => write!(f, "assumption violated"),
            ExecError::OutOfFuel => write!(f, "execution did not terminate within fuel"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Result alias for interpreter operations.
pub type ExecResult<T> = Result<T, ExecError>;

enum Flow {
    Normal,
    Break(BlockTag),
    Continue(BlockTag),
}

/// A concrete machine: an address space plus memory contents.
///
/// # Examples
///
/// ```
/// use cf_lsl::{Machine, ProcBuilder, Program, Value, MemType};
/// let mut program = Program::new();
/// program.add_global("x", MemType::Scalar);
/// let mut b = ProcBuilder::new("write_x");
/// let v = b.param();
/// let addr = b.constant(Value::ptr(vec![0]));
/// b.store(addr, v);
/// let id = program.add_procedure(b.finish());
///
/// let mut m = Machine::new(&program);
/// m.call(id, &[Value::Int(7)]).expect("runs");
/// assert_eq!(m.read(&[0]), Value::Int(7));
/// ```
#[derive(Debug)]
pub struct Machine<'p> {
    program: &'p Program,
    space: AddressSpace,
    memory: Memory,
    fuel: u64,
    allocs: u32,
}

/// Concrete memory by address.
#[allow(
    clippy::disallowed_types,
    reason = "read and written by key, never iterated; hashed because every \
              workload's specification mining runs the interpreter"
)]
type Memory = std::collections::HashMap<Vec<u32>, Value>;

const DEFAULT_FUEL: u64 = 200_000;

/// How many consecutive spin-loop retries a sequential execution
/// tolerates before concluding the loop can never exit. Two retries
/// (not one) keep the check conservative against lowerings whose first
/// iteration still has visible effects.
const SPIN_EXIT_BOUND: u32 = 2;

impl<'p> Machine<'p> {
    /// Creates a machine whose address space holds the program's globals.
    /// All memory starts undefined.
    pub fn new(program: &'p Program) -> Self {
        let mut space = AddressSpace::new();
        for g in &program.globals {
            space.add_base(BaseDef {
                name: g.name.clone(),
                ty: g.ty.clone(),
                is_heap: false,
            });
        }
        Machine {
            program,
            space,
            memory: Memory::new(),
            fuel: DEFAULT_FUEL,
            allocs: 0,
        }
    }

    /// Overrides the step budget.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// The current address space (globals + allocations so far).
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Reads a location directly. Never-written global locations read as
    /// the integer 0 (C zero-initialization); never-written heap locations
    /// read as undefined (`malloc` contents) — this is the initial-value
    /// function `i(a)` of the paper's axioms.
    pub fn read(&self, path: &[u32]) -> Value {
        if let Some(v) = self.memory.get(path) {
            return v.clone();
        }
        match path.first().and_then(|&b| self.space.bases.get(b as usize)) {
            Some(base) if !base.is_heap => Value::Int(0),
            _ => Value::Undefined,
        }
    }

    /// Writes a location directly (for test setup).
    pub fn write(&mut self, path: Vec<u32>, value: Value) {
        self.memory.insert(path, value);
    }

    /// Calls a procedure with concrete arguments; returns its return
    /// value (if it has one).
    ///
    /// # Errors
    ///
    /// Any [`ExecError`] raised during execution.
    pub fn call(&mut self, id: ProcId, args: &[Value]) -> ExecResult<Option<Value>> {
        let proc = self.program.procedure(id);
        assert_eq!(
            args.len(),
            proc.params.len(),
            "argument count mismatch calling `{}`",
            proc.name
        );
        let mut regs: Vec<Value> = vec![Value::Undefined; proc.num_regs as usize];
        for (p, a) in proc.params.iter().zip(args) {
            regs[p.index()] = a.clone();
        }
        self.exec_stmts(&proc.body, &mut regs)?;
        Ok(proc.ret.map(|r| regs[r.index()].clone()))
    }

    fn spend_fuel(&mut self) -> ExecResult<()> {
        if self.fuel == 0 {
            return Err(ExecError::OutOfFuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn exec_stmts(&mut self, stmts: &[Stmt], regs: &mut Vec<Value>) -> ExecResult<Flow> {
        for s in stmts {
            match self.exec_stmt(s, regs)? {
                Flow::Normal => {}
                flow => return Ok(flow),
            }
        }
        Ok(Flow::Normal)
    }

    fn truthy(&self, regs: &[Value], r: Reg, context: &str) -> ExecResult<bool> {
        regs[r.index()].truthy().ok_or(ExecError::UndefinedUse {
            context: context.to_string(),
        })
    }

    fn exec_stmt(&mut self, s: &Stmt, regs: &mut Vec<Value>) -> ExecResult<Flow> {
        self.spend_fuel()?;
        match s {
            Stmt::Const { dst, value } => {
                regs[dst.index()] = value.clone();
                Ok(Flow::Normal)
            }
            Stmt::Prim { dst, op, args } => {
                let vals: Vec<Value> = args.iter().map(|r| regs[r.index()].clone()).collect();
                match op.eval(&vals) {
                    Some(v) => {
                        regs[dst.index()] = v;
                        Ok(Flow::Normal)
                    }
                    None => {
                        if vals.iter().any(Value::is_undefined) {
                            Err(ExecError::UndefinedUse {
                                context: format!("primitive `{}`", op.name()),
                            })
                        } else {
                            Err(ExecError::TypeError {
                                context: format!("primitive `{}` on {vals:?}", op.name()),
                            })
                        }
                    }
                }
            }
            Stmt::Store { addr, value, .. } => {
                let path = self.check_addr(&regs[addr.index()])?;
                self.memory.insert(path, regs[value.index()].clone());
                Ok(Flow::Normal)
            }
            Stmt::Load { dst, addr, .. } => {
                let path = self.check_addr(&regs[addr.index()])?;
                regs[dst.index()] = self.read(&path);
                Ok(Flow::Normal)
            }
            Stmt::Cas {
                dst,
                addr,
                expected,
                desired,
                ..
            } => {
                let path = self.check_addr(&regs[addr.index()])?;
                let old = self.read(&path);
                if old == regs[expected.index()] {
                    self.memory.insert(path, regs[desired.index()].clone());
                }
                regs[dst.index()] = old;
                Ok(Flow::Normal)
            }
            // Sequential: fences of either family have no effect.
            Stmt::Fence(_) | Stmt::CFence(_) => Ok(Flow::Normal),
            // Mutation toggles are a symbolic-analysis device; concretely
            // the program is the original.
            Stmt::Toggle { orig, .. } => self.exec_stmts(orig, regs),
            Stmt::Atomic(body) => self.exec_stmts(body, regs),
            Stmt::Call { dst, proc, args } => {
                let vals: Vec<Value> = args.iter().map(|r| regs[r.index()].clone()).collect();
                let ret = self.call(*proc, &vals)?;
                if let Some(d) = dst {
                    regs[d.index()] = ret.unwrap_or(Value::Undefined);
                }
                Ok(Flow::Normal)
            }
            Stmt::Block {
                tag, body, spin, ..
            } => {
                let mut spins = 0u32;
                loop {
                    match self.exec_stmts(body, regs)? {
                        Flow::Normal => return Ok(Flow::Normal),
                        Flow::Break(t) if t == *tag => return Ok(Flow::Normal),
                        Flow::Continue(t) if t == *tag => {
                            // Spin loops carry the paper's exit assumption:
                            // failing iterations are side-effect free, so a
                            // sequential execution that retries can never
                            // make progress — the schedule is infeasible
                            // (matching the symbolic encoder's bounded
                            // unrolling + assume-exit), not a livelock.
                            if *spin {
                                spins += 1;
                                if spins >= SPIN_EXIT_BOUND {
                                    return Err(ExecError::AssumeViolated);
                                }
                            }
                            continue;
                        }
                        other => return Ok(other),
                    }
                }
            }
            Stmt::Break { cond, tag } => {
                if self.truthy(regs, *cond, "break condition")? {
                    Ok(Flow::Break(*tag))
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::Continue { cond, tag } => {
                if self.truthy(regs, *cond, "continue condition")? {
                    Ok(Flow::Continue(*tag))
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::Assert { cond } => {
                if self.truthy(regs, *cond, "assert condition")? {
                    Ok(Flow::Normal)
                } else {
                    Err(ExecError::AssertFailed)
                }
            }
            Stmt::Assume { cond } => {
                if self.truthy(regs, *cond, "assume condition")? {
                    Ok(Flow::Normal)
                } else {
                    Err(ExecError::AssumeViolated)
                }
            }
            Stmt::CommitIf { .. } => Ok(Flow::Normal), // marker only
            Stmt::Alloc { dst, ty } => {
                self.allocs += 1;
                let name = format!("{}#{}", self.program.types.get(*ty).name, self.allocs);
                let base = self.space.add_base(BaseDef {
                    name,
                    ty: MemType::Struct(*ty),
                    is_heap: true,
                });
                regs[dst.index()] = Value::ptr(vec![base]);
                Ok(Flow::Normal)
            }
        }
    }

    fn check_addr(&self, v: &Value) -> ExecResult<Vec<u32>> {
        match v {
            Value::Ptr(p) if self.space.is_scalar_location(&self.program.types, p) => Ok(p.clone()),
            _ => Err(ExecError::BadAddress { addr: v.clone() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcBuilder;
    use crate::layout::{StructDef, TypeTable};
    use crate::prim::PrimOp;

    fn node_program() -> (Program, ProcId, ProcId) {
        let mut program = Program::new();
        let mut types = TypeTable::new();
        let node = types.define(StructDef {
            name: "node".into(),
            fields: vec![
                ("next".into(), MemType::Scalar),
                ("value".into(), MemType::Scalar),
            ],
        });
        program.types = types;
        program.add_global("head", MemType::Scalar);

        // push(v): n = alloc node; n->value = v; n->next = *head; *head = n
        let mut b = ProcBuilder::new("push");
        let v = b.param();
        let n = b.alloc(node);
        let val_field = b.prim(PrimOp::Field(1), &[n]);
        b.store(val_field, v);
        let head = b.constant(Value::ptr(vec![0]));
        let old = b.load(head);
        let next_field = b.prim(PrimOp::Field(0), &[n]);
        b.store(next_field, old);
        b.store(head, n);
        let push = program.add_procedure(b.finish());

        // top(): n = *head; return n->value
        let mut b = ProcBuilder::new("top");
        let head = b.constant(Value::ptr(vec![0]));
        let n = b.load(head);
        let val_field = b.prim(PrimOp::Field(1), &[n]);
        let v = b.load(val_field);
        b.set_ret(v);
        let top = program.add_procedure(b.finish());
        (program, push, top)
    }

    #[test]
    fn push_then_top() {
        let (program, push, top) = node_program();
        let mut m = Machine::new(&program);
        m.write(vec![0], Value::Int(0)); // head = null
        m.call(push, &[Value::Int(42)]).expect("push runs");
        let got = m.call(top, &[]).expect("top runs");
        assert_eq!(got, Some(Value::Int(42)));
    }

    #[test]
    fn null_deref_is_bad_address() {
        let (program, _, top) = node_program();
        let mut m = Machine::new(&program);
        m.write(vec![0], Value::Int(0)); // head = null
        let err = m.call(top, &[]).expect_err("null deref");
        // top loads head (=0), then Field(1) of an integer is a type error
        // caught at the primitive.
        assert!(matches!(err, ExecError::TypeError { .. }), "{err}");
    }

    #[test]
    fn uninitialized_global_reads_zero() {
        let (program, _, top) = node_program();
        let mut m = Machine::new(&program);
        // head never initialized: C zero-initialization makes it null, so
        // dereferencing it is a type error (field of an integer).
        let err = m.call(top, &[]).expect_err("null head");
        assert!(matches!(err, ExecError::TypeError { .. }), "{err}");
    }

    #[test]
    fn uninitialized_heap_field_is_undefined() {
        let (program, push, top) = node_program();
        let mut m = Machine::new(&program);
        m.call(push, &[Value::Int(1)]).expect("push");
        // Manually clear the pushed node's value field to simulate a
        // missing initialization: loads then yield undefined (heap memory
        // has no zero-initialization, unlike globals).
        let node_base = 1; // base 0 = head global, base 1 = first alloc
        m.memory.remove(&vec![node_base, 1]);
        let got = m.call(top, &[]).expect("load of undef succeeds");
        assert_eq!(got, Some(Value::Undefined));
    }

    #[test]
    fn loops_and_fuel() {
        let mut program = Program::new();
        let mut b = ProcBuilder::new("spin");
        let t = b.begin_block(true, false);
        b.continue_always(t);
        b.end_block();
        let id = program.add_procedure(b.finish());
        let mut m = Machine::new(&program);
        m.set_fuel(1_000);
        assert_eq!(m.call(id, &[]), Err(ExecError::OutOfFuel));
    }

    #[test]
    fn assume_and_assert() {
        let mut program = Program::new();
        let mut b = ProcBuilder::new("f");
        let x = b.param();
        b.assume(x);
        b.assert_true(x);
        let id = program.add_procedure(b.finish());
        let mut m = Machine::new(&program);
        assert!(m.call(id, &[Value::Int(1)]).is_ok());
        assert_eq!(m.call(id, &[Value::Int(0)]), Err(ExecError::AssumeViolated));
    }

    #[test]
    fn bounded_loop_computes_sum() {
        // sum = 0; i = 0; loop { if (i >= n) break; sum += i; i += 1 }
        let mut program = Program::new();
        let mut b = ProcBuilder::new("sum_below");
        let n = b.param();
        let zero = b.constant(Value::Int(0));
        let one = b.constant(Value::Int(1));
        // mutable registers: emulate by re-assigning via Prim into same reg?
        // LSL registers are plain storage in the interpreter, so reuse regs
        // through Prim dst. We build with explicit registers:
        let sum = b.fresh();
        let i = b.fresh();
        // initialize via Ite trick: sum = 0 + 0, i = 0 + 0
        let s0 = b.prim(PrimOp::Add, &[zero, zero]);
        let _ = s0;
        // Simpler: constants then copy through Add with zero into sum/i.
        // Directly assign with Const into the named regs:
        // (builder lacks targeted const; emulate with prim add)
        // We instead rebuild using a loop over Stmt primitives:
        let t = b.begin_block(true, false);
        let done = b.prim(PrimOp::Ge, &[i, n]);
        b.break_if(done, t);
        let new_sum = b.prim(PrimOp::Add, &[sum, i]);
        let new_i = b.prim(PrimOp::Add, &[i, one]);
        // copy back via Ite(true, new, old) into the loop-carried registers
        let tru = b.constant(Value::bool(true));
        let s2 = b.prim(PrimOp::Ite, &[tru, new_sum, sum]);
        let i2 = b.prim(PrimOp::Ite, &[tru, new_i, i]);
        let _ = (s2, i2);
        b.continue_always(t);
        b.end_block();
        b.set_ret(sum);
        // The register-reuse dance above is awkward by design: the builder
        // produces single-assignment style code and loop-carried state is
        // normally expressed by the mini-C lowering, which may re-assign
        // registers freely. We verify that re-assignment works by patching
        // the Ite destinations to write back into `sum`/`i`.
        let mut proc = b.finish();
        patch_dst(&mut proc.body, s2, sum);
        patch_dst(&mut proc.body, i2, i);
        patch_init(&mut proc.body, sum);
        patch_init(&mut proc.body, i);
        let id = program.add_procedure(proc);
        let mut m = Machine::new(&program);
        let got = m.call(id, &[Value::Int(5)]).expect("runs");
        assert_eq!(got, Some(Value::Int(1 + 2 + 3 + 4)));

        fn patch_dst(stmts: &mut [Stmt], from: Reg, to: Reg) {
            for s in stmts {
                match s {
                    Stmt::Prim { dst, .. } if *dst == from => *dst = to,
                    Stmt::Block { body, .. } | Stmt::Atomic(body) => patch_dst(body, from, to),
                    _ => {}
                }
            }
        }
        fn patch_init(stmts: &mut Vec<Stmt>, reg: Reg) {
            stmts.insert(
                0,
                Stmt::Const {
                    dst: reg,
                    value: Value::Int(0),
                },
            );
        }
    }
}
