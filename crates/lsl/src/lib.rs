//! # cf-lsl — the load-store language
//!
//! LSL is the intermediate representation of CheckFence (paper §3.1,
//! Fig. 4): an untyped language of loads, stores, register assignments,
//! memory-ordering fences, atomic blocks and structured control flow
//! (labeled blocks with conditional `break`/`continue`). The mini-C
//! front-end ([`cf-minic`](https://docs.rs/cf-minic)) lowers C-like source
//! into LSL; the CheckFence back-end unrolls, inlines and encodes LSL into
//! SAT.
//!
//! Values (paper Fig. 5) are `undefined`, integers, or pointers
//! represented as a base address plus a path of field/array offsets —
//! keeping offsets symbolic-friendly and cheap to encode.
//!
//! The crate also ships a concrete [`Machine`] interpreter used for
//! reference-implementation specification mining and as a differential
//! testing oracle.
//!
//! ## Example
//!
//! ```
//! use cf_lsl::{Machine, MemType, ProcBuilder, Program, Value};
//!
//! let mut program = Program::new();
//! program.add_global("counter", MemType::Scalar);
//!
//! let mut b = ProcBuilder::new("bump");
//! let addr = b.constant(Value::ptr(vec![0]));
//! let old = b.load(addr);
//! let one = b.constant(Value::Int(1));
//! let new = b.prim(cf_lsl::PrimOp::Add, &[old, one]);
//! b.store(addr, new);
//! b.set_ret(new);
//! let bump = program.add_procedure(b.finish());
//!
//! let mut m = Machine::new(&program);
//! m.write(vec![0], Value::Int(0));
//! assert_eq!(m.call(bump, &[]).unwrap(), Some(Value::Int(1)));
//! assert_eq!(m.call(bump, &[]).unwrap(), Some(Value::Int(2)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod fences;
mod interp;
mod layout;
mod prim;
mod program;
mod stmt;
mod value;

pub mod pretty;

pub use builder::ProcBuilder;
pub use fences::FenceSite;
pub use interp::{ExecError, ExecResult, Machine};
pub use layout::{AddressSpace, BaseDef, MemType, StructDef, StructId, TypeTable};
pub use prim::PrimOp;
pub use program::{GlobalDef, Procedure, Program};
pub use stmt::{BlockTag, FenceKind, FenceSem, MemOrder, ProcId, Reg, Stmt};
pub use value::Value;
