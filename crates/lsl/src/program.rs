//! Whole-program structure: procedures, globals and types.

use std::collections::BTreeMap;

use crate::layout::{MemType, TypeTable};
use crate::stmt::{ProcId, Reg, Stmt};

/// A named global variable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GlobalDef {
    /// Source name.
    pub name: String,
    /// Shape of the global region.
    pub ty: MemType,
}

/// One procedure: parameters, an optional return register and a
/// structured statement body.
#[derive(Clone, PartialEq, Debug)]
pub struct Procedure {
    /// Source name.
    pub name: String,
    /// Parameter registers (filled by the caller at entry).
    pub params: Vec<Reg>,
    /// Register holding the return value when the body exits, if any.
    pub ret: Option<Reg>,
    /// Total number of registers used in the body.
    pub num_regs: u32,
    /// The body.
    pub body: Vec<Stmt>,
}

impl Procedure {
    /// Whether this is a lock helper (its name contains `lock`, as
    /// `lock`/`unlock` do). Its fences belong to the locking discipline
    /// (paper Fig. 7), not to the algorithm, so fence inference,
    /// mutation planning, fence enumeration and fence provenance all
    /// skip it.
    pub fn is_lock_helper(&self) -> bool {
        self.name.contains("lock")
    }

    /// Whether a procedure-scoped analysis (fence inference, mutation
    /// planning) covers this procedure: the ones `procs` names, or, for
    /// `None`, every procedure except lock helpers.
    pub fn in_scope(&self, procs: Option<&[String]>) -> bool {
        match procs {
            Some(names) => names.contains(&self.name),
            None => !self.is_lock_helper(),
        }
    }

    /// Counts statements recursively (for reporting; loops counted once).
    pub fn num_stmts(&self) -> usize {
        fn walk(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::Atomic(body) => 1 + walk(body),
                    Stmt::Block { body, .. } => 1 + walk(body),
                    // A toggle reports its original shape (the mutant
                    // branch is an analysis alternative, not extra code).
                    Stmt::Toggle { orig, .. } => walk(orig),
                    _ => 1,
                })
                .sum()
        }
        walk(&self.body)
    }
}

/// A complete LSL program: type definitions, globals and procedures.
///
/// # Examples
///
/// Programs are normally produced by the mini-C front-end or the
/// [`crate::ProcBuilder`]; see those for construction examples.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct Program {
    /// Struct definitions.
    pub types: TypeTable,
    /// Global variables; global `i` occupies base address `i`.
    pub globals: Vec<GlobalDef>,
    /// All procedures.
    pub procedures: Vec<Procedure>,
    by_name: BTreeMap<String, ProcId>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a procedure and returns its id.
    ///
    /// # Panics
    ///
    /// Panics on duplicate procedure names.
    pub fn add_procedure(&mut self, proc: Procedure) -> ProcId {
        assert!(
            !self.by_name.contains_key(&proc.name),
            "duplicate procedure `{}`",
            proc.name
        );
        let id = ProcId(self.procedures.len() as u32);
        self.by_name.insert(proc.name.clone(), id);
        self.procedures.push(proc);
        id
    }

    /// Adds a global variable; returns its base address.
    pub fn add_global(&mut self, name: impl Into<String>, ty: MemType) -> u32 {
        self.globals.push(GlobalDef {
            name: name.into(),
            ty,
        });
        (self.globals.len() - 1) as u32
    }

    /// Looks up a procedure by name.
    pub fn proc_id(&self, name: &str) -> Option<ProcId> {
        self.by_name.get(name).copied()
    }

    /// The procedure behind an id.
    pub fn procedure(&self, id: ProcId) -> &Procedure {
        &self.procedures[id.index()]
    }

    /// The base address of a named global, if declared.
    pub fn global_base(&self, name: &str) -> Option<u32> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| i as u32)
    }

    /// Total statement count across procedures.
    pub fn num_stmts(&self) -> usize {
        self.procedures.iter().map(Procedure::num_stmts).sum()
    }

    /// A copy of the program with every statement list replaced by what
    /// `edit` returns for it. The rewrite runs bottom-up: the bodies of
    /// a list's blocks and atomic statements are edited before the list
    /// itself. `edit` gets the procedure name, the list's path (the
    /// index of each enclosing block or atomic statement, outermost
    /// first; empty for the body) and the list. Every procedure is
    /// visited, lock helpers included; [`Stmt::Toggle`] branches are
    /// not.
    pub fn map_lists(
        &self,
        mut edit: impl FnMut(&str, &[usize], Vec<Stmt>) -> Vec<Stmt>,
    ) -> Program {
        let mut program = self.clone();
        for proc in &mut program.procedures {
            let body = std::mem::take(&mut proc.body);
            proc.body = map_list(body, &proc.name, &mut Vec::new(), &mut edit);
        }
        program
    }
}

/// Rewrites one statement list at `path` for [`Program::map_lists`].
fn map_list(
    stmts: Vec<Stmt>,
    proc: &str,
    path: &mut Vec<usize>,
    edit: &mut impl FnMut(&str, &[usize], Vec<Stmt>) -> Vec<Stmt>,
) -> Vec<Stmt> {
    let mut nested = |i: usize, body: Vec<Stmt>| {
        path.push(i);
        let body = map_list(body, proc, path, edit);
        path.pop();
        body
    };
    let stmts = stmts
        .into_iter()
        .enumerate()
        .map(|(i, s)| match s {
            Stmt::Atomic(body) => Stmt::Atomic(nested(i, body)),
            Stmt::Block {
                tag,
                is_loop,
                spin,
                body,
            } => Stmt::Block {
                tag,
                is_loop,
                spin,
                body: nested(i, body),
            },
            other => other,
        })
        .collect();
    edit(proc, path, stmts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::MemType;

    #[test]
    fn lookup_by_name() {
        let mut p = Program::new();
        let id = p.add_procedure(Procedure {
            name: "f".into(),
            params: vec![],
            ret: None,
            num_regs: 0,
            body: vec![],
        });
        assert_eq!(p.proc_id("f"), Some(id));
        assert_eq!(p.proc_id("g"), None);
        assert_eq!(p.procedure(id).name, "f");
    }

    #[test]
    fn globals_get_sequential_bases() {
        let mut p = Program::new();
        assert_eq!(p.add_global("a", MemType::Scalar), 0);
        assert_eq!(p.add_global("b", MemType::Scalar), 1);
        assert_eq!(p.global_base("b"), Some(1));
        assert_eq!(p.global_base("c"), None);
    }

    #[test]
    fn map_lists_edits_nested_lists_first_and_skips_toggle_branches() {
        use crate::stmt::{BlockTag, FenceKind};
        let proc = |name: &str, body| Procedure {
            name: name.into(),
            params: vec![],
            ret: None,
            num_regs: 1,
            body,
        };
        let set = Stmt::Const {
            dst: Reg(0),
            value: crate::Value::Int(1),
        };
        let block = |body| Stmt::Block {
            tag: BlockTag(0),
            is_loop: false,
            spin: false,
            body,
        };
        let toggle = Stmt::Toggle {
            site: 0,
            orig: vec![block(vec![set.clone()])],
            mutant: vec![],
        };
        let mut p = Program::new();
        p.add_procedure(proc(
            "f",
            vec![
                block(vec![set.clone(), Stmt::Atomic(vec![set])]),
                toggle.clone(),
            ],
        ));
        p.add_procedure(proc("unlock", vec![]));

        fn fences(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::Fence(_) => 1,
                    Stmt::Atomic(body) | Stmt::Block { body, .. } => fences(body),
                    _ => 0,
                })
                .sum()
        }
        // Each edit appends a fence, so the fences a list already holds
        // when its edit runs are the nested lists edited before it.
        let mut visits = Vec::new();
        let marked = p.map_lists(|proc, path, mut stmts| {
            visits.push((proc.to_string(), path.to_vec(), fences(&stmts)));
            stmts.push(Stmt::Fence(FenceKind::LoadLoad));
            stmts
        });
        let visit = |proc: &str, path: &[usize], seen| (proc.to_string(), path.to_vec(), seen);
        assert_eq!(
            visits,
            [
                visit("f", &[0, 1], 0),
                visit("f", &[0], 1),
                visit("f", &[], 2),
                visit("unlock", &[], 0),
            ]
        );
        assert_eq!(marked.procedures[0].body[1], toggle, "toggle not entered");
        assert_eq!(p.map_lists(|_, _, stmts| stmts), p);
    }

    #[test]
    #[should_panic(expected = "duplicate procedure")]
    fn duplicate_procedure_panics() {
        let mut p = Program::new();
        let f = Procedure {
            name: "f".into(),
            params: vec![],
            ret: None,
            num_regs: 0,
            body: vec![],
        };
        p.add_procedure(f.clone());
        p.add_procedure(f);
    }
}
