//! Human-readable rendering of LSL programs (used in counterexample
//! traces and debugging output).

use std::fmt::Write as _;

use crate::program::Procedure;
use crate::stmt::Stmt;

/// Renders a single statement on one line (blocks render their header).
pub fn stmt_line(s: &Stmt) -> String {
    match s {
        Stmt::Const { dst, value } => format!("{dst} = {value}"),
        Stmt::Prim { dst, op, args } => {
            let args: Vec<String> = args.iter().map(|r| r.to_string()).collect();
            match op {
                crate::PrimOp::Field(k) => format!("{dst} = field<{k}>({})", args.join(", ")),
                _ => format!("{dst} = {}({})", op.name(), args.join(", ")),
            }
        }
        Stmt::Store { addr, value, ord } => {
            format!("*{addr} ={} {value}", ord_suffix(*ord))
        }
        Stmt::Load { dst, addr, ord } => {
            format!("{dst} ={} *{addr}", ord_suffix(*ord))
        }
        Stmt::Cas {
            dst,
            addr,
            expected,
            desired,
            ord,
        } => format!(
            "{dst} = cas{}(*{addr}, {expected}, {desired})",
            ord_suffix(*ord)
        ),
        Stmt::Fence(kind) => format!("fence {kind}"),
        Stmt::CFence(ord) => format!("fence {ord}"),
        Stmt::Toggle { site, .. } => format!("toggle? [{site}] {{"),
        Stmt::Atomic(_) => "atomic {".into(),
        Stmt::Call { dst, proc, args } => {
            let args: Vec<String> = args.iter().map(|r| r.to_string()).collect();
            match dst {
                Some(d) => format!("{d} = call p{}({})", proc.0, args.join(", ")),
                None => format!("call p{}({})", proc.0, args.join(", ")),
            }
        }
        Stmt::Block {
            tag, is_loop, spin, ..
        } => {
            let mut s = format!("{tag}:");
            if *is_loop {
                s.push_str(" loop");
            }
            if *spin {
                s.push_str(" spin");
            }
            s.push_str(" {");
            s
        }
        Stmt::Break { cond, tag } => format!("if ({cond}) break {tag}"),
        Stmt::Continue { cond, tag } => format!("if ({cond}) continue {tag}"),
        Stmt::Assert { cond } => format!("assert({cond})"),
        Stmt::Assume { cond } => format!("assume({cond})"),
        Stmt::Alloc { dst, ty } => format!("{dst} = alloc S{}", ty.0),
        Stmt::CommitIf { cond } => format!("commit({cond})"),
    }
}

/// Ordering annotation rendered after the access operator: empty for a
/// plain access, `.acquire` etc. otherwise.
fn ord_suffix(ord: crate::MemOrder) -> String {
    if ord == crate::MemOrder::Plain {
        String::new()
    } else {
        format!(".{ord}")
    }
}

fn write_stmts(out: &mut String, stmts: &[Stmt], indent: usize) {
    for s in stmts {
        for _ in 0..indent {
            out.push_str("  ");
        }
        out.push_str(&stmt_line(s));
        out.push('\n');
        match s {
            Stmt::Atomic(body) | Stmt::Block { body, .. } => {
                write_stmts(out, body, indent + 1);
                for _ in 0..indent {
                    out.push_str("  ");
                }
                out.push_str("}\n");
            }
            Stmt::Toggle { orig, mutant, .. } => {
                write_stmts(out, orig, indent + 1);
                for _ in 0..indent {
                    out.push_str("  ");
                }
                out.push_str("} else {\n");
                write_stmts(out, mutant, indent + 1);
                for _ in 0..indent {
                    out.push_str("  ");
                }
                out.push_str("}\n");
            }
            _ => {}
        }
    }
}

/// Renders a whole procedure.
pub fn procedure_text(p: &Procedure) -> String {
    let mut out = String::new();
    let params: Vec<String> = p.params.iter().map(|r| r.to_string()).collect();
    let _ = write!(out, "proc {}({})", p.name, params.join(", "));
    if let Some(r) = p.ret {
        let _ = write!(out, " -> {r}");
    }
    out.push_str(" {\n");
    write_stmts(&mut out, &p.body, 1);
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcBuilder;
    use crate::value::Value;

    #[test]
    fn renders_structure() {
        let mut b = ProcBuilder::new("f");
        let x = b.param();
        let t = b.begin_block(true, false);
        b.break_if(x, t);
        b.continue_always(t);
        b.end_block();
        let text = procedure_text(&b.finish());
        assert!(text.contains("proc f(r0)"));
        assert!(text.contains("t0: loop {"));
        assert!(text.contains("if (r0) break t0"));
    }

    #[test]
    fn renders_values_and_fences() {
        use crate::stmt::FenceKind;
        let mut b = ProcBuilder::new("g");
        let a = b.constant(Value::ptr(vec![0, 1]));
        let v = b.constant(Value::Int(3));
        b.fence(FenceKind::StoreStore);
        b.store(a, v);
        let text = procedure_text(&b.finish());
        assert!(text.contains("r0 = [0 1]"));
        assert!(text.contains("fence store-store"));
        assert!(text.contains("*r0 = r1"));
    }
}
