//! Fence sites: the one numbering of a program's fences, and the program
//! variants derived from it (see [`FenceSite`]).

use std::fmt;

use crate::program::{Procedure, Program};
use crate::stmt::{FenceSem, Stmt};

/// One fence of a program, named by its source coordinate: `proc#i
/// (kind)` for the `i`-th classic fence of `proc`, `proc#cN
/// (fence(ord))` for its `N`-th C11 fence (the two families are
/// numbered separately, each in document order).
///
/// A fence placement (paper §4.2–4.3) is a list of fence sites in the
/// fenced code. One walker finds them: it visits every procedure in
/// document order, skips lock helpers ([`Procedure::is_lock_helper`],
/// whose fences belong to the locking primitives of Fig. 7), descends
/// into blocks and atomic bodies, and leaves [`Stmt::Toggle`] branches
/// alone (a fence there is selected per query: a candidate fence, a
/// mutant's, or one already wrapped for deletion). The same walk lists
/// the sites ([`Program::fence_sites`]) and derives programs from them
/// ([`Program::without_fences`], [`Program::with_fence_toggles`]), so
/// unfenced and partial builds, necessity analysis and verdict
/// provenance all name a fence alike.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FenceSite {
    /// Procedure name.
    pub proc: String,
    /// Index among the procedure's fences of the same family.
    pub index: usize,
    /// The fence.
    pub fence: FenceSem,
}

impl fmt::Display for FenceSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.fence {
            FenceSem::Classic(kind) => write!(f, "{}#{} ({kind})", self.proc, self.index),
            FenceSem::C11(ord) => write!(f, "{}#c{} (fence({ord}))", self.proc, self.index),
        }
    }
}

impl Program {
    /// Every fence site, in walk order (see [`FenceSite`]).
    pub fn fence_sites(&self) -> Vec<FenceSite> {
        let mut sites = Vec::new();
        self.map_fences(|site, fence| {
            sites.push(site);
            Some(fence)
        });
        sites
    }

    /// A copy of the program without the fences `drop` selects.
    pub fn without_fences(&self, mut drop: impl FnMut(&FenceSite) -> bool) -> Program {
        self.map_fences(|site, fence| (!drop(&site)).then_some(fence))
    }

    /// A copy of the program with every fence wrapped in a toggle site
    /// whose original branch is the fence and whose mutant is empty:
    /// site `base + i` wraps the `i`-th entry of
    /// [`fence_sites`](Program::fence_sites). An inactive site keeps its
    /// fence, an active one deletes it, so one encoding answers every
    /// fence deletion by assumptions.
    pub fn with_fence_toggles(&self, base: u32) -> Program {
        let mut next = base;
        self.map_fences(|_, fence| {
            let site = next;
            next += 1;
            Some(Stmt::Toggle {
                site,
                orig: vec![fence],
                mutant: Vec::new(),
            })
        })
    }

    /// The walker: a copy of the program with each fence replaced by
    /// what `edit` returns for it (`None` deletes it). It is not
    /// [`Program::map_lists`], which edits nested lists first: site
    /// numbers follow document order.
    fn map_fences(&self, mut edit: impl FnMut(FenceSite, Stmt) -> Option<Stmt>) -> Program {
        let mut program = self.clone();
        for proc in &mut program.procedures {
            if proc.is_lock_helper() {
                continue;
            }
            let body = std::mem::take(&mut proc.body);
            proc.body = map_body(body, proc, &mut [0, 0], &mut edit);
        }
        program
    }
}

/// Rewrites one statement list; `seen` counts the procedure's classic
/// and C11 fences so far.
fn map_body(
    stmts: Vec<Stmt>,
    proc: &Procedure,
    seen: &mut [usize; 2],
    edit: &mut impl FnMut(FenceSite, Stmt) -> Option<Stmt>,
) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        let (family, fence) = match s {
            Stmt::Fence(kind) => (0, FenceSem::Classic(kind)),
            Stmt::CFence(ord) => (1, FenceSem::C11(ord)),
            Stmt::Atomic(body) => {
                out.push(Stmt::Atomic(map_body(body, proc, seen, edit)));
                continue;
            }
            Stmt::Block {
                tag,
                is_loop,
                spin,
                body,
            } => {
                out.push(Stmt::Block {
                    tag,
                    is_loop,
                    spin,
                    body: map_body(body, proc, seen, edit),
                });
                continue;
            }
            other => {
                out.push(other);
                continue;
            }
        };
        let site = FenceSite {
            proc: proc.name.clone(),
            index: seen[family],
            fence,
        };
        seen[family] += 1;
        out.extend(edit(site, s));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::{FenceKind, MemOrder};

    fn proc(name: &str, body: Vec<Stmt>) -> Procedure {
        Procedure {
            name: name.into(),
            params: vec![],
            ret: None,
            num_regs: 0,
            body,
        }
    }

    fn program() -> Program {
        let mut p = Program::new();
        p.add_procedure(proc(
            "f",
            vec![
                Stmt::Fence(FenceKind::StoreStore),
                Stmt::Atomic(vec![Stmt::CFence(MemOrder::SeqCst)]),
                Stmt::Toggle {
                    site: 7,
                    orig: vec![],
                    mutant: vec![Stmt::Fence(FenceKind::LoadStore)],
                },
                Stmt::Block {
                    tag: crate::stmt::BlockTag(0),
                    is_loop: false,
                    spin: false,
                    body: vec![Stmt::Fence(FenceKind::LoadLoad)],
                },
            ],
        ));
        p.add_procedure(proc("unlock", vec![Stmt::Fence(FenceKind::LoadStore)]));
        p
    }

    #[test]
    fn sites_are_numbered_per_family_outside_toggles_and_lock_helpers() {
        let coords: Vec<String> = program()
            .fence_sites()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            coords,
            [
                "f#0 (store-store)",
                "f#c0 (fence(seq_cst))",
                "f#1 (load-load)"
            ]
        );
    }

    #[test]
    fn derivations_drop_or_wrap_exactly_the_walked_fences() {
        let p = program();
        let fences = |p: &Program| -> Vec<FenceSem> {
            p.fence_sites().into_iter().map(|s| s.fence).collect()
        };
        let kept = p.without_fences(|s| s.fence == FenceSem::Classic(FenceKind::StoreStore));
        assert_eq!(fences(&kept), fences(&p)[1..]);
        assert_eq!(kept.fence_sites()[1].to_string(), "f#0 (load-load)");
        assert_eq!(kept.procedures[1], p.procedures[1], "lock helper untouched");

        let wrapped = p.with_fence_toggles(40);
        assert!(
            wrapped.fence_sites().is_empty(),
            "toggle branches not walked"
        );
        let Stmt::Toggle { site, orig, mutant } = &wrapped.procedures[0].body[0] else {
            panic!("first fence wrapped");
        };
        assert_eq!(
            (*site, orig.as_slice(), mutant.len()),
            (40, &p.procedures[0].body[..1], 0)
        );
        let Stmt::Block { body, .. } = &wrapped.procedures[0].body[3] else {
            panic!("block kept");
        };
        assert!(matches!(body[0], Stmt::Toggle { site: 42, .. }));
    }
}
