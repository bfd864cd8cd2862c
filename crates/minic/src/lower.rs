//! Lowering from the mini-C AST to LSL.
//!
//! The translation mirrors what the paper's CIL-based front-end does
//! (§3.1): structured control flow becomes labeled blocks with conditional
//! `break`/`continue`, short-circuit operators become control flow,
//! pointers become base-plus-offset values, and the special forms
//! `atomic { }`, `fence("...")`, `assert`, `assume`, `malloc(type)`,
//! `commit(...)` and `spinwhile` map to their LSL counterparts.
//!
//! C11-style atomics are builtins taking an optional ordering keyword
//! (`relaxed`, `acquire`, `release`, `acq_rel`, `seq_cst`; default
//! `seq_cst` when omitted): `load(x, acquire)`, `store(x, release, v)`,
//! `cas(x, expected, desired, acq_rel)` and `fence(seq_cst)`. Orderings
//! invalid for the access direction (a `release` load, an `acquire`
//! store) are rejected at lowering time.
//!
//! Locals whose address is taken (`&v`) are placed in fresh heap cells so
//! that pointers to them are ordinary LSL pointers; plain locals live in
//! registers.

use std::collections::{BTreeMap, BTreeSet};

use cf_lsl::{
    BlockTag, FenceKind, MemOrder, MemType, PrimOp, ProcBuilder, ProcId, Program, Reg, StructDef,
    StructId, Value,
};

use crate::ast::{CBinOp, CExpr, CStmt, CType, Func, Item, StructField, UnOp};
use crate::error::MinicError;
use crate::parser::Ast;

/// Compiles a parsed translation unit into an LSL [`Program`].
///
/// # Errors
///
/// Returns [`MinicError`] for unsupported constructs or type resolution
/// failures (e.g. `->` on an expression whose struct type is unknown).
pub fn lower(ast: &Ast) -> Result<Program, MinicError> {
    let mut cx = Lowerer::new();
    cx.collect_types(ast)?;
    cx.collect_globals(ast)?;
    cx.collect_signatures(ast)?;
    cx.lower_functions(ast)?;
    Ok(cx.program)
}

/// The name of the synthetic single-field struct used for addressable
/// locals.
pub const CELL_STRUCT: &str = "__cell";

#[derive(Clone, Debug)]
struct Signature {
    params: Vec<CType>,
    ret: CType,
    id: Option<ProcId>, // None for externs (must be builtins)
}

struct Lowerer {
    program: Program,
    struct_ids: BTreeMap<String, StructId>,
    struct_fields: BTreeMap<String, Vec<StructField>>,
    globals: BTreeMap<String, (u32, CType, Option<u32>)>,
    signatures: BTreeMap<String, Signature>,
    cell_id: Option<StructId>,
}

impl Lowerer {
    fn new() -> Self {
        Lowerer {
            program: Program::new(),
            struct_ids: BTreeMap::new(),
            struct_fields: BTreeMap::new(),
            globals: BTreeMap::new(),
            signatures: BTreeMap::new(),
            cell_id: None,
        }
    }

    fn mem_type(&self, ty: &CType, array: Option<u32>, line: usize) -> Result<MemType, MinicError> {
        let base = match ty {
            CType::Int | CType::Ptr(_) => MemType::Scalar,
            CType::Struct(name) => match self.struct_ids.get(name) {
                Some(&id) => MemType::Struct(id),
                None => {
                    return Err(MinicError::new(
                        line,
                        format!("struct `{name}` used by value before its definition"),
                    ))
                }
            },
            CType::Void => {
                return Err(MinicError::new(line, "`void` object has no layout"));
            }
        };
        Ok(match array {
            Some(n) => MemType::Array(Box::new(base), n),
            None => base,
        })
    }

    fn collect_types(&mut self, ast: &Ast) -> Result<(), MinicError> {
        for item in &ast.items {
            if let Item::Struct { name, fields } = item {
                let mut defs = Vec::new();
                for f in fields {
                    let mt = self.mem_type(&f.ty, f.array, f.line)?;
                    defs.push((f.name.clone(), mt));
                }
                let id = self.program.types.define(StructDef {
                    name: name.clone(),
                    fields: defs,
                });
                self.struct_ids.insert(name.clone(), id);
                self.struct_fields.insert(name.clone(), fields.clone());
            }
        }
        // Synthetic cell struct for addressable locals.
        let id = self.program.types.define(StructDef {
            name: CELL_STRUCT.into(),
            fields: vec![("val".into(), MemType::Scalar)],
        });
        self.cell_id = Some(id);
        Ok(())
    }

    fn collect_globals(&mut self, ast: &Ast) -> Result<(), MinicError> {
        for item in &ast.items {
            if let Item::Global {
                name,
                ty,
                array,
                line,
            } = item
            {
                let mt = self.mem_type(ty, *array, *line)?;
                let base = self.program.add_global(name.clone(), mt);
                self.globals
                    .insert(name.clone(), (base, ty.clone(), *array));
            }
        }
        Ok(())
    }

    fn collect_signatures(&mut self, ast: &Ast) -> Result<(), MinicError> {
        let mut defined = BTreeSet::new();
        for item in &ast.items {
            if let Item::Func(f) = item {
                if f.body.is_some() && !defined.insert(f.name.as_str()) {
                    return Err(MinicError::new(
                        f.line,
                        format!("function `{}` is defined twice", f.name),
                    ));
                }
                let sig = Signature {
                    params: f.params.iter().map(|(_, t)| t.clone()).collect(),
                    ret: f.ret.clone(),
                    id: None,
                };
                self.signatures.insert(f.name.clone(), sig);
            }
        }
        Ok(())
    }

    fn lower_functions(&mut self, ast: &Ast) -> Result<(), MinicError> {
        // Assign procedure ids in definition order first so calls resolve
        // regardless of ordering.
        let mut with_bodies: Vec<&Func> = Vec::new();
        for item in &ast.items {
            if let Item::Func(f) = item {
                if f.body.is_some() {
                    with_bodies.push(f);
                }
            }
        }
        // Lower each function.
        for f in with_bodies {
            let proc = {
                let fx = FnLowerer::new(self, f)?;
                fx.run()?
            };
            let id = self.program.add_procedure(proc);
            if let Some(sig) = self.signatures.get_mut(&f.name) {
                sig.id = Some(id);
            }
        }
        Ok(())
    }
}

#[derive(Clone, Debug)]
enum Slot {
    /// A plain local held in a register.
    Reg(Reg, CType),
    /// An addressable local: the register holds a pointer to its cell.
    Cell(Reg, CType),
}

#[derive(Clone, Copy, Debug)]
enum ContinueTarget {
    /// `continue` restarts the loop block (while loops re-evaluate the
    /// condition at the top).
    Restart(BlockTag),
    /// `continue` leaves an inner body block (do-while evaluates the
    /// condition at the bottom).
    LeaveBody(BlockTag),
}

/// A typed value held in a register during lowering.
#[derive(Clone, Debug)]
struct TypedReg {
    reg: Reg,
    ty: CType,
}

/// A typed address (lvalue): register holding the pointer plus the
/// pointee description.
#[derive(Clone, Debug)]
struct TypedAddr {
    reg: Reg,
    ty: CType,
    /// `Some(n)` when the pointee is an array of `ty`.
    array: Option<u32>,
}

struct FnLowerer<'a> {
    lx: &'a Lowerer,
    f: &'a Func,
    b: ProcBuilder,
    scopes: Vec<BTreeMap<String, Slot>>,
    addressable: BTreeSet<String>,
    ret_reg: Option<Reg>,
    exit_tag: BlockTag,
    loops: Vec<(BlockTag, ContinueTarget)>,
    line: usize,
}

impl<'a> FnLowerer<'a> {
    fn new(lx: &'a Lowerer, f: &'a Func) -> Result<Self, MinicError> {
        let mut b = ProcBuilder::new(f.name.clone());
        let addressable = collect_addressable(f.body.as_deref().unwrap_or(&[]));

        // Parameters first (callers fill them positionally).
        let mut param_regs = Vec::new();
        for _ in &f.params {
            param_regs.push(b.param());
        }
        let ret_reg = if f.ret == CType::Void {
            None
        } else {
            Some(b.fresh())
        };
        let exit_tag = b.begin_block(false, false);

        let mut me = FnLowerer {
            lx,
            f,
            b,
            scopes: vec![BTreeMap::new()],
            addressable,
            ret_reg,
            exit_tag,
            loops: Vec::new(),
            line: f.line,
        };

        // Bind parameters; addressable ones are copied into cells.
        for ((name, ty), reg) in f.params.iter().zip(param_regs) {
            if me.addressable.contains(name) {
                let cell = me.make_cell()?;
                me.b.store(cell, reg);
                me.bind(name.clone(), Slot::Cell(cell, ty.clone()));
            } else {
                me.bind(name.clone(), Slot::Reg(reg, ty.clone()));
            }
        }
        Ok(me)
    }

    fn run(mut self) -> Result<cf_lsl::Procedure, MinicError> {
        let body = self.f.body.as_ref().expect("only defined functions");
        self.lower_stmts(body)?;
        self.b.end_block(); // exit_tag
        if let Some(r) = self.ret_reg {
            self.b.set_ret(r);
        }
        Ok(self.b.finish())
    }

    fn err(&self, msg: impl Into<String>) -> MinicError {
        MinicError::new(self.line, format!("in `{}`: {}", self.f.name, msg.into()))
    }

    fn make_cell(&mut self) -> Result<Reg, MinicError> {
        let id = self.lx.cell_id.expect("cell struct defined");
        let ptr = self.b.alloc(id);
        Ok(self.b.prim(PrimOp::Field(0), &[ptr]))
    }

    fn bind(&mut self, name: String, slot: Slot) {
        self.scopes
            .last_mut()
            .expect("scope stack non-empty")
            .insert(name, slot);
    }

    fn lookup(&self, name: &str) -> Option<&Slot> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    // ------------------------------------------------------------ statements

    fn lower_stmts(&mut self, stmts: &[CStmt]) -> Result<(), MinicError> {
        self.scopes.push(BTreeMap::new());
        for s in stmts {
            self.lower_stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn lower_stmt(&mut self, s: &CStmt) -> Result<(), MinicError> {
        match s {
            CStmt::Block(body) => self.lower_stmts(body),
            CStmt::Local {
                name,
                ty,
                init,
                line,
            } => {
                self.line = *line;
                if !ty.is_scalar() {
                    return Err(self.err(format!(
                        "local `{name}` must be scalar (structs by value are not supported)"
                    )));
                }
                if self.addressable.contains(name) {
                    let cell = self.make_cell()?;
                    if let Some(e) = init {
                        let v = self.lower_expr(e)?;
                        self.b.store(cell, v.reg);
                    }
                    self.bind(name.clone(), Slot::Cell(cell, ty.clone()));
                } else {
                    let reg = self.b.fresh();
                    if let Some(e) = init {
                        let v = self.lower_expr(e)?;
                        self.b.copy_into(reg, v.reg);
                    }
                    self.bind(name.clone(), Slot::Reg(reg, ty.clone()));
                }
                Ok(())
            }
            CStmt::Expr(e) => {
                self.lower_expr_or_void(e)?;
                Ok(())
            }
            CStmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.lower_expr(cond)?;
                let not_c = self.b.prim(PrimOp::Not, &[c.reg]);
                if else_branch.is_empty() {
                    let t = self.b.begin_block(false, false);
                    self.b.break_if(not_c, t);
                    self.lower_stmts(then_branch)?;
                    self.b.end_block();
                } else {
                    let outer = self.b.begin_block(false, false);
                    let inner = self.b.begin_block(false, false);
                    self.b.break_if(not_c, inner);
                    self.lower_stmts(then_branch)?;
                    self.b.break_always(outer);
                    self.b.end_block();
                    self.lower_stmts(else_branch)?;
                    self.b.end_block();
                }
                Ok(())
            }
            CStmt::While { cond, body, spin } => {
                let t = self.b.begin_block(true, *spin);
                let c = self.lower_expr(cond)?;
                let not_c = self.b.prim(PrimOp::Not, &[c.reg]);
                self.b.break_if(not_c, t);
                self.loops.push((t, ContinueTarget::Restart(t)));
                self.lower_stmts(body)?;
                self.loops.pop();
                self.b.continue_always(t);
                self.b.end_block();
                Ok(())
            }
            CStmt::DoWhile { body, cond, spin } => {
                let t = self.b.begin_block(true, *spin);
                let inner = self.b.begin_block(false, false);
                self.loops.push((t, ContinueTarget::LeaveBody(inner)));
                self.lower_stmts(body)?;
                self.loops.pop();
                self.b.end_block();
                let c = self.lower_expr(cond)?;
                self.b.continue_if(c.reg, t);
                self.b.end_block();
                Ok(())
            }
            CStmt::Break => match self.loops.last() {
                Some(&(t, _)) => {
                    self.b.break_always(t);
                    Ok(())
                }
                None => Err(self.err("`break` outside of a loop")),
            },
            CStmt::Continue => match self.loops.last() {
                Some(&(_, ContinueTarget::Restart(t))) => {
                    self.b.continue_always(t);
                    Ok(())
                }
                Some(&(_, ContinueTarget::LeaveBody(t))) => {
                    self.b.break_always(t);
                    Ok(())
                }
                None => Err(self.err("`continue` outside of a loop")),
            },
            CStmt::Return(e) => {
                match (e, self.ret_reg) {
                    (Some(e), Some(r)) => {
                        let v = self.lower_expr(e)?;
                        self.b.copy_into(r, v.reg);
                    }
                    (None, None) => {}
                    (Some(_), None) => {
                        return Err(self.err("returning a value from a void function"))
                    }
                    (None, Some(_)) => {
                        return Err(self.err("missing return value"));
                    }
                }
                self.b.break_always(self.exit_tag);
                Ok(())
            }
            CStmt::Atomic(body) => {
                self.b.begin_atomic();
                // On an error the builder's frames stay open; compilation
                // stops here, so only close the section on success.
                self.lower_stmts(body)?;
                self.b.end_atomic();
                Ok(())
            }
        }
    }

    // ----------------------------------------------------------- expressions

    /// Lowers an expression in statement position (result may be void).
    fn lower_expr_or_void(&mut self, e: &CExpr) -> Result<Option<TypedReg>, MinicError> {
        match e {
            CExpr::Call { name, args } => self.lower_call(name, args),
            CExpr::Assign { lhs, rhs } => {
                let v = self.lower_assign(lhs, rhs)?;
                Ok(Some(v))
            }
            _ => self.lower_expr(e).map(Some),
        }
    }

    /// Lowers an expression that must produce a value.
    fn lower_expr(&mut self, e: &CExpr) -> Result<TypedReg, MinicError> {
        match e {
            CExpr::Num(n) => {
                let reg = self.b.constant(Value::Int(*n));
                Ok(TypedReg {
                    reg,
                    ty: CType::Int,
                })
            }
            CExpr::Str(_) => Err(self.err("string literals only appear in fence(...)")),
            CExpr::Ident(name) => {
                if let Some(slot) = self.lookup(name).cloned() {
                    return Ok(match slot {
                        Slot::Reg(reg, ty) => TypedReg { reg, ty },
                        Slot::Cell(addr, ty) => {
                            let reg = self.b.load(addr);
                            TypedReg { reg, ty }
                        }
                    });
                }
                if let Some((base, ty, array)) = self.lx.globals.get(name).cloned() {
                    if array.is_some() || !ty.is_scalar() {
                        return Err(self.err(format!(
                            "global `{name}` is an aggregate; use `&`, field or index access"
                        )));
                    }
                    let addr = self.b.constant(Value::ptr(vec![base]));
                    let reg = self.b.load(addr);
                    return Ok(TypedReg { reg, ty });
                }
                Err(self.err(format!("unknown identifier `{name}`")))
            }
            CExpr::Unary { op, expr } => match op {
                UnOp::Not => {
                    let v = self.lower_expr(expr)?;
                    let reg = self.b.prim(PrimOp::Not, &[v.reg]);
                    Ok(TypedReg {
                        reg,
                        ty: CType::Int,
                    })
                }
                UnOp::Neg => {
                    let v = self.lower_expr(expr)?;
                    let zero = self.b.constant(Value::Int(0));
                    let reg = self.b.prim(PrimOp::Sub, &[zero, v.reg]);
                    Ok(TypedReg {
                        reg,
                        ty: CType::Int,
                    })
                }
                UnOp::Deref => {
                    let v = self.lower_expr(expr)?;
                    let ty = v.ty.deref().cloned().unwrap_or(CType::Int);
                    let reg = self.b.load(v.reg);
                    Ok(TypedReg { reg, ty })
                }
                UnOp::AddrOf => {
                    let addr = self.lower_lvalue(expr)?;
                    Ok(TypedReg {
                        reg: addr.reg,
                        ty: addr.ty.clone().ptr(),
                    })
                }
            },
            CExpr::Binary { op, lhs, rhs } => self.lower_binary(*op, lhs, rhs),
            CExpr::Assign { lhs, rhs } => self.lower_assign(lhs, rhs),
            CExpr::Ternary {
                cond,
                then_e,
                else_e,
            } => {
                // Control-flow lowering so side effects stay conditional.
                let result = self.b.fresh();
                let c = self.lower_expr(cond)?;
                let not_c = self.b.prim(PrimOp::Not, &[c.reg]);
                let outer = self.b.begin_block(false, false);
                let inner = self.b.begin_block(false, false);
                self.b.break_if(not_c, inner);
                let tv = self.lower_expr(then_e)?;
                self.b.copy_into(result, tv.reg);
                self.b.break_always(outer);
                self.b.end_block();
                let ev = self.lower_expr(else_e)?;
                self.b.copy_into(result, ev.reg);
                self.b.end_block();
                Ok(TypedReg {
                    reg: result,
                    ty: tv_type(&tv.ty, &ev.ty),
                })
            }
            CExpr::Call { name, args } => match self.lower_call(name, args)? {
                Some(v) => Ok(v),
                None => Err(self.err(format!("void call `{name}` used as a value"))),
            },
            CExpr::Field { .. } | CExpr::Index { .. } => {
                let addr = self.lower_lvalue(e)?;
                if addr.array.is_some() {
                    // Arrays decay to pointers when read.
                    return Ok(TypedReg {
                        reg: addr.reg,
                        ty: addr.ty.clone().ptr(),
                    });
                }
                let reg = self.b.load(addr.reg);
                Ok(TypedReg { reg, ty: addr.ty })
            }
            CExpr::Cast { ty, expr } => {
                let v = self.lower_expr(expr)?;
                Ok(TypedReg {
                    reg: v.reg,
                    ty: ty.clone(),
                })
            }
        }
    }

    fn lower_binary(
        &mut self,
        op: CBinOp,
        lhs: &CExpr,
        rhs: &CExpr,
    ) -> Result<TypedReg, MinicError> {
        match op {
            CBinOp::And | CBinOp::Or => {
                // Short-circuit via control flow.
                let result = self.b.fresh();
                let a = self.lower_expr(lhs)?;
                let na = self.b.prim(PrimOp::Not, &[a.reg]);
                let norm_a = self.b.prim(PrimOp::Not, &[na]);
                self.b.copy_into(result, norm_a);
                let t = self.b.begin_block(false, false);
                if op == CBinOp::And {
                    // if (!a) break (result stays 0)
                    self.b.break_if(na, t);
                } else {
                    // if (a) break (result stays 1)
                    self.b.break_if(norm_a, t);
                }
                let bv = self.lower_expr(rhs)?;
                let nb = self.b.prim(PrimOp::Not, &[bv.reg]);
                let norm_b = self.b.prim(PrimOp::Not, &[nb]);
                self.b.copy_into(result, norm_b);
                self.b.end_block();
                Ok(TypedReg {
                    reg: result,
                    ty: CType::Int,
                })
            }
            _ => {
                let a = self.lower_expr(lhs)?;
                let b = self.lower_expr(rhs)?;
                let prim = match op {
                    CBinOp::Add => PrimOp::Add,
                    CBinOp::Sub => PrimOp::Sub,
                    CBinOp::Mul => PrimOp::Mul,
                    CBinOp::Eq => PrimOp::Eq,
                    CBinOp::Ne => PrimOp::Ne,
                    CBinOp::Lt => PrimOp::Lt,
                    CBinOp::Le => PrimOp::Le,
                    CBinOp::Gt => PrimOp::Gt,
                    CBinOp::Ge => PrimOp::Ge,
                    CBinOp::And | CBinOp::Or => unreachable!("handled above"),
                };
                let reg = self.b.prim(prim, &[a.reg, b.reg]);
                Ok(TypedReg {
                    reg,
                    ty: CType::Int,
                })
            }
        }
    }

    fn lower_assign(&mut self, lhs: &CExpr, rhs: &CExpr) -> Result<TypedReg, MinicError> {
        // Assignment to a register-allocated local writes the register;
        // everything else goes through an lvalue store.
        if let CExpr::Ident(name) = lhs {
            if let Some(Slot::Reg(reg, ty)) = self.lookup(name).cloned() {
                let v = self.lower_expr(rhs)?;
                self.b.copy_into(reg, v.reg);
                return Ok(TypedReg { reg, ty });
            }
        }
        let addr = self.lower_lvalue(lhs)?;
        let v = self.lower_expr(rhs)?;
        self.b.store(addr.reg, v.reg);
        Ok(v)
    }

    /// Lowers an lvalue to an address register.
    fn lower_lvalue(&mut self, e: &CExpr) -> Result<TypedAddr, MinicError> {
        match e {
            CExpr::Ident(name) => {
                if let Some(slot) = self.lookup(name).cloned() {
                    return match slot {
                        Slot::Cell(addr, ty) => Ok(TypedAddr {
                            reg: addr,
                            ty,
                            array: None,
                        }),
                        Slot::Reg(..) => Err(self.err(format!(
                            "cannot take the address of register local `{name}`"
                        ))),
                    };
                }
                if let Some((base, ty, array)) = self.lx.globals.get(name).cloned() {
                    let reg = self.b.constant(Value::ptr(vec![base]));
                    return Ok(TypedAddr { reg, ty, array });
                }
                Err(self.err(format!("unknown identifier `{name}`")))
            }
            CExpr::Unary {
                op: UnOp::Deref,
                expr,
            } => {
                let v = self.lower_expr(expr)?;
                let ty = v.ty.deref().cloned().unwrap_or(CType::Int);
                Ok(TypedAddr {
                    reg: v.reg,
                    ty,
                    array: None,
                })
            }
            CExpr::Field { base, field, arrow } => {
                let (addr_reg, struct_name) = if *arrow {
                    let v = self.lower_expr(base)?;
                    match v.ty.deref() {
                        Some(CType::Struct(s)) => (v.reg, s.clone()),
                        _ => {
                            return Err(self.err(format!(
                                "`->{field}` on a value whose struct type is unknown"
                            )))
                        }
                    }
                } else {
                    let a = self.lower_lvalue(base)?;
                    match &a.ty {
                        CType::Struct(s) => (a.reg, s.clone()),
                        _ => return Err(self.err(format!("`.{field}` on a non-struct lvalue"))),
                    }
                };
                let fields = self
                    .lx
                    .struct_fields
                    .get(&struct_name)
                    .ok_or_else(|| self.err(format!("unknown struct `{struct_name}`")))?;
                let (offset, fdef) = fields
                    .iter()
                    .enumerate()
                    .find(|(_, f)| &f.name == field)
                    .map(|(i, f)| (i as u32, f.clone()))
                    .ok_or_else(|| {
                        self.err(format!("struct `{struct_name}` has no field `{field}`"))
                    })?;
                let reg = self.b.prim(PrimOp::Field(offset), &[addr_reg]);
                Ok(TypedAddr {
                    reg,
                    ty: fdef.ty,
                    array: fdef.array,
                })
            }
            CExpr::Index { base, index } => {
                let idx = self.lower_expr(index)?;
                // Array lvalue (global array / array field) or pointer value.
                if matches!(&**base, CExpr::Ident(n) if self.lookup(n).is_none()
                    && self.lx.globals.get(n).is_some_and(|g| g.2.is_some()))
                {
                    let a = self.lower_lvalue(base)?;
                    let reg = self.b.prim(PrimOp::Index, &[a.reg, idx.reg]);
                    return Ok(TypedAddr {
                        reg,
                        ty: a.ty,
                        array: None,
                    });
                }
                if let CExpr::Field { .. } = &**base {
                    let a = self.lower_lvalue(base)?;
                    if a.array.is_some() {
                        let reg = self.b.prim(PrimOp::Index, &[a.reg, idx.reg]);
                        return Ok(TypedAddr {
                            reg,
                            ty: a.ty,
                            array: None,
                        });
                    }
                }
                let v = self.lower_expr(base)?;
                let ty = v.ty.deref().cloned().unwrap_or(CType::Int);
                let reg = self.b.prim(PrimOp::Index, &[v.reg, idx.reg]);
                Ok(TypedAddr {
                    reg,
                    ty,
                    array: None,
                })
            }
            CExpr::Cast { expr, ty } => {
                // Cast of an lvalue: address unchanged, pointee retyped.
                let mut a = self.lower_lvalue(expr)?;
                a.ty = ty.clone();
                Ok(a)
            }
            other => Err(self.err(format!("not an lvalue: {other:?}"))),
        }
    }

    // --------------------------------------------------------------- calls

    /// Parses a memory-ordering keyword argument of an atomic builtin.
    /// Ordering names are reserved in these positions; they never refer
    /// to program variables.
    fn parse_ord(&self, e: &CExpr, what: &str) -> Result<MemOrder, MinicError> {
        match e {
            CExpr::Ident(s) => MemOrder::parse(s).ok_or_else(|| {
                self.err(format!(
                    "unknown memory ordering `{s}` in {what}(...) \
                     (expected relaxed, acquire, release, acq_rel or seq_cst)"
                ))
            }),
            _ => Err(self.err(format!(
                "{what}(...) ordering must be a keyword \
                 (relaxed, acquire, release, acq_rel or seq_cst)"
            ))),
        }
    }

    fn lower_call(&mut self, name: &str, args: &[CExpr]) -> Result<Option<TypedReg>, MinicError> {
        // The atomic-access builtins yield to user-defined functions of
        // the same name (e.g. a hand-written `cas` modelled with an
        // `atomic { }` block, as in the paper's Fig. 6).
        let user_defined = self.lx.signatures.contains_key(name);
        match name {
            "fence" => {
                match args {
                    [CExpr::Str(s)] => {
                        let kind = FenceKind::parse(s)
                            .ok_or_else(|| self.err(format!("unknown fence kind `{s}`")))?;
                        self.b.fence(kind);
                    }
                    [e @ CExpr::Ident(_)] => {
                        let ord = self.parse_ord(e, "fence")?;
                        if ord == MemOrder::Relaxed {
                            return Err(self.err(
                                "fence(relaxed) has no ordering effect; \
                                 use acquire, release, acq_rel or seq_cst",
                            ));
                        }
                        self.b.cfence(ord);
                    }
                    _ => {
                        return Err(self.err(
                            "fence(...) takes one string literal (classic kind) \
                             or one ordering keyword",
                        ))
                    }
                }
                Ok(None)
            }
            "load" if !user_defined => {
                let (place, ord) = match args {
                    [p] => (p, MemOrder::SeqCst),
                    [p, o] => (p, self.parse_ord(o, "load")?),
                    _ => return Err(self.err("load(place[, ordering]) takes 1 or 2 arguments")),
                };
                if matches!(ord, MemOrder::Release | MemOrder::AcqRel) {
                    return Err(self.err(format!(
                        "`{ord}` is not a valid load ordering \
                         (loads may be relaxed, acquire or seq_cst)"
                    )));
                }
                let addr = self.lower_lvalue(place)?;
                let reg = self.b.load_ord(addr.reg, ord);
                Ok(Some(TypedReg { reg, ty: addr.ty }))
            }
            "store" if !user_defined => {
                let (place, ord, value) = match args {
                    [p, v] => (p, MemOrder::SeqCst, v),
                    [p, o, v] => (p, self.parse_ord(o, "store")?, v),
                    _ => {
                        return Err(
                            self.err("store(place[, ordering], value) takes 2 or 3 arguments")
                        )
                    }
                };
                if matches!(ord, MemOrder::Acquire | MemOrder::AcqRel) {
                    return Err(self.err(format!(
                        "`{ord}` is not a valid store ordering \
                         (stores may be relaxed, release or seq_cst)"
                    )));
                }
                let addr = self.lower_lvalue(place)?;
                let v = self.lower_expr(value)?;
                self.b.store_ord(addr.reg, v.reg, ord);
                Ok(None)
            }
            "cas" if !user_defined => {
                let (place, expected, desired, ord) = match args {
                    [p, e, d] => (p, e, d, MemOrder::SeqCst),
                    [p, e, d, o] => (p, e, d, self.parse_ord(o, "cas")?),
                    _ => {
                        return Err(self.err(
                            "cas(place, expected, desired[, ordering]) takes 3 or 4 arguments",
                        ))
                    }
                };
                let addr = self.lower_lvalue(place)?;
                let exp = self.lower_expr(expected)?;
                let des = self.lower_expr(desired)?;
                let reg = self.b.cas(addr.reg, exp.reg, des.reg, ord);
                Ok(Some(TypedReg { reg, ty: addr.ty }))
            }
            "assert" => {
                let [e] = args else {
                    return Err(self.err("assert(...) takes one argument"));
                };
                let v = self.lower_expr(e)?;
                self.b.assert_true(v.reg);
                Ok(None)
            }
            "assume" => {
                let [e] = args else {
                    return Err(self.err("assume(...) takes one argument"));
                };
                let v = self.lower_expr(e)?;
                self.b.assume(v.reg);
                Ok(None)
            }
            "commit" => {
                let [e] = args else {
                    return Err(self.err("commit(...) takes one argument"));
                };
                let v = self.lower_expr(e)?;
                self.b.commit_if(v.reg);
                Ok(None)
            }
            "malloc" => {
                let [CExpr::Ident(ty_name)] = args else {
                    return Err(self.err("malloc(...) takes a type name"));
                };
                // Accept both the struct tag and a typedef alias.
                let struct_name = match self.lx.struct_ids.contains_key(ty_name) {
                    true => ty_name.clone(),
                    false => {
                        // try `<name>_t` typedef convention by stripping
                        // nothing: the parser resolved typedefs into types,
                        // so look for a struct whose typedef alias this was.
                        return match self.find_struct_by_alias(ty_name) {
                            Some(s) => self.emit_malloc(&s),
                            None => Err(self.err(format!("malloc of unknown type `{ty_name}`"))),
                        };
                    }
                };
                self.emit_malloc(&struct_name)
            }
            "free" | "delete_node" => {
                for a in args {
                    let _ = self.lower_expr(a)?;
                }
                Ok(None)
            }
            _ => {
                let sig = self
                    .lx
                    .signatures
                    .get(name)
                    .cloned()
                    .ok_or_else(|| self.err(format!("call to unknown function `{name}`")))?;
                let Some(id) = sig.id else {
                    return Err(self.err(format!(
                        "call to extern function `{name}` (not a builtin and has no body)"
                    )));
                };
                if sig.params.len() != args.len() {
                    return Err(self.err(format!(
                        "`{name}` expects {} arguments, got {}",
                        sig.params.len(),
                        args.len()
                    )));
                }
                let mut regs = Vec::new();
                for a in args {
                    regs.push(self.lower_expr(a)?.reg);
                }
                let has_ret = sig.ret != CType::Void;
                let dst = self.b.call(id, &regs, has_ret);
                Ok(dst.map(|reg| TypedReg { reg, ty: sig.ret }))
            }
        }
    }

    fn find_struct_by_alias(&self, alias: &str) -> Option<String> {
        // The parser resolves typedefs before lowering, so `malloc(node_t)`
        // arrives with `node_t` unresolved only if it wasn't a typedef.
        // Fall back to stripping a trailing `_t`.
        let stripped = alias.strip_suffix("_t")?;
        self.lx
            .struct_ids
            .contains_key(stripped)
            .then(|| stripped.to_string())
    }

    fn emit_malloc(&mut self, struct_name: &str) -> Result<Option<TypedReg>, MinicError> {
        let id = self.lx.struct_ids[struct_name];
        let reg = self.b.alloc(id);
        Ok(Some(TypedReg {
            reg,
            ty: CType::Struct(struct_name.into()).ptr(),
        }))
    }
}

/// Result type of a ternary: prefer the branch with the more specific type.
fn tv_type(a: &CType, b: &CType) -> CType {
    if matches!(a, CType::Int) {
        b.clone()
    } else {
        a.clone()
    }
}

/// Collects names whose address is taken anywhere in the body.
fn collect_addressable(stmts: &[CStmt]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    fn walk_expr(e: &CExpr, out: &mut BTreeSet<String>) {
        match e {
            CExpr::Unary {
                op: UnOp::AddrOf,
                expr,
            } => {
                if let CExpr::Ident(n) = &**expr {
                    out.insert(n.clone());
                }
                walk_expr(expr, out);
            }
            CExpr::Unary { expr, .. } | CExpr::Cast { expr, .. } => walk_expr(expr, out),
            CExpr::Binary { lhs, rhs, .. } => {
                walk_expr(lhs, out);
                walk_expr(rhs, out);
            }
            CExpr::Assign { lhs, rhs } => {
                walk_expr(lhs, out);
                walk_expr(rhs, out);
            }
            CExpr::Ternary {
                cond,
                then_e,
                else_e,
            } => {
                walk_expr(cond, out);
                walk_expr(then_e, out);
                walk_expr(else_e, out);
            }
            CExpr::Call { args, .. } => args.iter().for_each(|a| walk_expr(a, out)),
            CExpr::Field { base, .. } => walk_expr(base, out),
            CExpr::Index { base, index } => {
                walk_expr(base, out);
                walk_expr(index, out);
            }
            CExpr::Num(_) | CExpr::Ident(_) | CExpr::Str(_) => {}
        }
    }
    fn walk(stmts: &[CStmt], out: &mut BTreeSet<String>) {
        for s in stmts {
            match s {
                CStmt::Block(b) | CStmt::Atomic(b) => walk(b, out),
                CStmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    walk_expr(cond, out);
                    walk(then_branch, out);
                    walk(else_branch, out);
                }
                CStmt::While { cond, body, .. } => {
                    walk_expr(cond, out);
                    walk(body, out);
                }
                CStmt::DoWhile { body, cond, .. } => {
                    walk(body, out);
                    walk_expr(cond, out);
                }
                CStmt::Return(Some(e)) => walk_expr(e, out),
                CStmt::Return(None) | CStmt::Break | CStmt::Continue => {}
                CStmt::Local { init, .. } => {
                    if let Some(e) = init {
                        walk_expr(e, out);
                    }
                }
                CStmt::Expr(e) => walk_expr(e, out),
            }
        }
    }
    walk(stmts, &mut out);
    out
}
