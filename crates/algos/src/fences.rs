//! Fence enumeration and removal, for necessity analysis.
//!
//! The paper verifies that its fence placements are "sufficient and
//! necessary for the tests" (§4.2). Sufficiency is a passing inclusion
//! check; necessity is established by deleting each fence individually
//! and checking that some test then fails. This module manipulates fences
//! at the LSL level so the analysis is independent of how sources are
//! generated.

use cf_lsl::{FenceKind, Program, Stmt};
use cf_memmodel::Mode;
use checkfence::{CheckError, Engine, EngineConfig, Harness, Query, TestSpec};

/// Identifies one fence statement in a program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FenceSite {
    /// Procedure name.
    pub proc: String,
    /// Index within the procedure's fences (document order).
    pub index_in_proc: usize,
    /// The fence kind.
    pub kind: FenceKind,
}

impl std::fmt::Display for FenceSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{} ({})", self.proc, self.index_in_proc, self.kind)
    }
}

/// Lists every fence in the program (document order), excluding fences
/// inside lock helpers ([`cf_lsl::Procedure::is_lock_helper`]) — those
/// belong to the locking primitives (paper Fig. 7), not to the
/// algorithm's placement.
pub fn fence_sites(program: &Program) -> Vec<FenceSite> {
    let mut out = Vec::new();
    for proc in &program.procedures {
        if proc.is_lock_helper() {
            continue;
        }
        let mut count = 0usize;
        visit(&proc.body, &mut |s| {
            if let Stmt::Fence(kind) = s {
                out.push(FenceSite {
                    proc: proc.name.clone(),
                    index_in_proc: count,
                    kind: *kind,
                });
                count += 1;
            }
        });
    }
    out
}

/// Returns a copy of the program with the given fence removed.
///
/// # Panics
///
/// Panics if the site does not exist (sites must come from
/// [`fence_sites`] on the same program).
pub fn remove_fence(program: &Program, site: &FenceSite) -> Program {
    let mut program = program.clone();
    let mut found = false;
    for proc in &mut program.procedures {
        if proc.name != site.proc {
            continue;
        }
        let mut count = 0usize;
        remove_nth_fence(&mut proc.body, site.index_in_proc, &mut count, &mut found);
    }
    assert!(found, "fence site {site} not found");
    program
}

/// Verdict for one fence site in a [`necessity`] analysis.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NecessityVerdict {
    /// The site examined.
    pub site: FenceSite,
    /// `Some(test name)` if deleting the fence makes that test fail (or
    /// diverges its retry bounds — the livelock symptom of a missing
    /// load-load fence); `None` if every given test still passes, i.e.
    /// the fence is not exercised by these tests.
    pub broken_by: Option<String>,
}

/// The §4.2 necessity analysis: deletes each fence of `harness`
/// individually and reports which of `tests` (if any) then fails on
/// `mode`. A placement is *necessary for the tests* when every verdict
/// has `broken_by = Some(..)`; sufficiency is the fenced build passing,
/// which callers check separately.
///
/// Specifications are mined once per test (fences are serially inert)
/// and reused across all deletions.
///
/// # Errors
///
/// Propagates mining/checking failures ([`CheckError::SerialBug`] is a
/// verification result in its own right and is also propagated).
pub fn necessity(
    harness: &Harness,
    tests: &[TestSpec],
    mode: Mode,
) -> Result<Vec<NecessityVerdict>, CheckError> {
    let mut specs = Vec::with_capacity(tests.len());
    for t in tests {
        specs.push(checkfence::mine_reference(harness, t)?.spec);
    }
    let mut out = Vec::new();
    for site in fence_sites(&harness.program) {
        let program = remove_fence(&harness.program, &site);
        let build = Harness {
            name: format!("{}-minus-{site}", harness.name),
            program,
            init_proc: harness.init_proc.clone(),
            ops: harness.ops.clone(),
        };
        let mut engine = Engine::new(EngineConfig::single(mode));
        let mut broken_by = None;
        for (t, spec) in tests.iter().zip(&specs) {
            let q = Query::check_inclusion(&build, t, spec.clone()).on(mode);
            match engine.run(&q) {
                Ok(v) if v.passed() => {}
                Ok(_) | Err(CheckError::BoundsDiverged { .. }) => {
                    broken_by = Some(t.name.clone());
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        out.push(NecessityVerdict { site, broken_by });
    }
    Ok(out)
}

fn visit(stmts: &[Stmt], f: &mut impl FnMut(&Stmt)) {
    for s in stmts {
        f(s);
        match s {
            Stmt::Atomic(body) | Stmt::Block { body, .. } => visit(body, f),
            _ => {}
        }
    }
}

fn remove_nth_fence(stmts: &mut Vec<Stmt>, target: usize, count: &mut usize, found: &mut bool) {
    let mut i = 0;
    while i < stmts.len() {
        if *found {
            return;
        }
        match &mut stmts[i] {
            Stmt::Fence(_) => {
                if *count == target {
                    stmts.remove(i);
                    *found = true;
                    return;
                }
                *count += 1;
                i += 1;
            }
            Stmt::Atomic(body) | Stmt::Block { body, .. } => {
                remove_nth_fence(body, target, count, found);
                i += 1;
            }
            _ => i += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerate_and_remove() {
        let program = cf_minic::compile(
            r#"
            int x;
            void f() {
                x = 1;
                fence("store-store");
                x = 2;
                if (x == 2) { fence("load-load"); }
            }
            void lock_thing() { fence("load-load"); }
            "#,
        )
        .expect("compiles");
        let sites = fence_sites(&program);
        assert_eq!(sites.len(), 2, "lock helpers excluded");
        assert_eq!(sites[0].kind, FenceKind::StoreStore);
        assert_eq!(sites[1].kind, FenceKind::LoadLoad);

        let without_first = remove_fence(&program, &sites[0]);
        assert_eq!(fence_sites(&without_first).len(), 1);
        let without_second = remove_fence(&program, &sites[1]);
        let remaining = fence_sites(&without_second);
        assert_eq!(remaining.len(), 1);
        assert_eq!(remaining[0].kind, FenceKind::StoreStore);
    }

    #[test]
    #[should_panic(expected = "not found")]
    fn removing_missing_site_panics() {
        let program = cf_minic::compile("int x; void f() { x = 1; }").expect("compiles");
        let site = FenceSite {
            proc: "f".into(),
            index_in_proc: 0,
            kind: FenceKind::LoadLoad,
        };
        let _ = remove_fence(&program, &site);
    }
}
