//! Automatic fence-placement inference.
//!
//! The paper derives its fence placements manually: run the checker,
//! study the counterexample, insert a fence, repeat (§4.2–4.3). This
//! module automates that loop with a *saturate-then-minimize* search:
//!
//! 1. **Saturate**: insert candidate fences of every requested kind at
//!    every statement boundary of the implementation (outside atomic
//!    blocks, whose interiors are already program-ordered). If the
//!    saturated build still fails the given tests, no fence placement
//!    can help — the defect is algorithmic, not a memory-model issue.
//! 2. **Minimize**: repeatedly remove candidates while the build keeps
//!    passing every test. Removal proceeds in two phases: whole fence
//!    *kinds* first (cheaply discovering, e.g., that store-load and
//!    load-store fences are never needed — the paper's §4.2
//!    observation), then one candidate at a time.
//!
//! The result is *1-minimal*: every kept fence is necessary (removing
//! it alone makes some test fail), and the set as a whole is sufficient
//! (the final build passes all tests). This is exactly the
//! "sufficient and necessary for the tests" criterion of §4.2, with the
//! same caveat: placements are relative to the tests provided, so a
//! fence whose protecting scenario is not exercised may be dropped.
//!
//! The specification of each test is mined **once** from the original
//! build and reused for every candidate build: fences are no-ops under
//! the Seriality model, so the observation set does not depend on the
//! placement.
//!
//! ## Example
//!
//! ```
//! use checkfence::infer::{infer, InferConfig};
//! use checkfence::{Harness, OpSig, TestSpec};
//! use cf_memmodel::Mode;
//!
//! // Message passing: `put` publishes data then a flag; `get` polls the
//! // flag and reads the data back.
//! let program = cf_minic::compile(r#"
//!     int data; int flag;
//!     void put(int v) { data = v + 1; flag = 1; }
//!     int get() { int f = flag; if (f == 0) { return 0 - 1; } return data; }
//! "#).expect("compiles");
//! let harness = Harness {
//!     name: "mailbox".into(),
//!     program,
//!     init_proc: None,
//!     ops: vec![
//!         OpSig { key: 'p', proc_name: "put".into(), num_args: 1, has_ret: false },
//!         OpSig { key: 'g', proc_name: "get".into(), num_args: 0, has_ret: true },
//!     ],
//! };
//! let tests = [TestSpec::parse("pg", "( p | g )").expect("parses")];
//! let result = infer(&harness, &tests, Mode::Relaxed, &InferConfig::default())
//!     .expect("inference succeeds");
//! // The classic repair: a store-store fence in the writer and a
//! // load-load fence in the reader.
//! assert_eq!(result.kept.len(), 2);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cf_lsl::{FenceKind, Procedure, Program, Stmt};
use cf_memmodel::{Mode, ModeSet};

use crate::checker::{CheckConfig, CheckError, ObsSet};
use crate::mine::mine_reference;
use crate::query::{Engine, EngineConfig, Query};
use crate::test_spec::{Harness, TestSpec};

/// Configuration of the candidate space searched by [`infer`].
#[derive(Clone, Debug)]
pub struct InferConfig {
    /// Candidate fence kinds, tried for batch removal in this order.
    pub kinds: Vec<FenceKind>,
    /// Restrict candidate insertion to these procedures. `None` selects
    /// every procedure except lock primitives (procedures whose name
    /// contains `lock`), whose internal fences belong to the locking
    /// discipline (paper Fig. 7), not to the algorithm.
    pub procs: Option<Vec<String>>,
}

impl Default for InferConfig {
    fn default() -> Self {
        InferConfig {
            kinds: FenceKind::all().to_vec(),
            procs: None,
        }
    }
}

/// A candidate fence location: insert `kind` before the `stmt_index`-th
/// statement of the statement list reached by descending `block_path`
/// from the procedure body (an index of `len` means "at the end").
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CandidateSite {
    /// Procedure name.
    pub proc: String,
    /// Indices of the nested `Block` statements from the procedure body
    /// to the statement list containing the insertion point.
    pub block_path: Vec<usize>,
    /// Insertion index within that statement list.
    pub stmt_index: usize,
    /// The fence kind to insert.
    pub kind: FenceKind,
}

impl fmt::Display for CandidateSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@", self.proc)?;
        for p in &self.block_path {
            write!(f, "{p}.")?;
        }
        write!(f, "{} ({})", self.stmt_index, self.kind)
    }
}

/// The outcome of a successful inference.
#[derive(Clone, Debug)]
pub struct InferenceResult {
    /// The implementation with exactly the kept fences inserted.
    pub program: Program,
    /// The 1-minimal placement (in document order).
    pub kept: Vec<CandidateSite>,
    /// Total candidate sites considered.
    pub candidates: usize,
    /// Inclusion checks performed during the search.
    pub checks: usize,
    /// Wall-clock time of the whole search.
    pub elapsed: Duration,
    /// Symbolic executions performed across the search (sessions: one per
    /// test unless loop bounds grew; baseline: one per check round).
    pub symexecs: u32,
    /// CNF encodings built across the search.
    pub encodes: u32,
    /// Cumulative SAT-solver statistics across the search.
    pub sat: cf_sat::Stats,
}

/// Why inference failed.
#[derive(Debug)]
pub enum InferError {
    /// Even the fully saturated build fails some test: the defect
    /// cannot be repaired by fences (e.g. the snark double-pop or the
    /// lazylist initialization bug).
    Unfixable {
        /// The test that still fails with every candidate inserted.
        failing_test: String,
    },
    /// The underlying checker failed (mining found a serial bug, loop
    /// bounds diverged, ...).
    Check(CheckError),
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::Unfixable { failing_test } => write!(
                f,
                "no fence placement can fix the implementation: test {failing_test} \
                 fails even when fully fenced"
            ),
            InferError::Check(e) => write!(f, "checker error during inference: {e}"),
        }
    }
}

impl std::error::Error for InferError {}

impl From<CheckError> for InferError {
    fn from(e: CheckError) -> Self {
        InferError::Check(e)
    }
}

/// Enumerates every candidate insertion point allowed by `config`.
///
/// Boundaries inside `atomic` blocks are skipped (their interiors
/// execute in program order and without interleaving, so a fence there
/// can never matter).
pub fn candidate_sites(program: &Program, config: &InferConfig) -> Vec<CandidateSite> {
    let mut out = Vec::new();
    for proc in &program.procedures {
        if !proc_selected(proc, config) {
            continue;
        }
        let mut path = Vec::new();
        collect_sites(&proc.body, &proc.name, &mut path, &config.kinds, &mut out);
    }
    out
}

fn proc_selected(proc: &Procedure, config: &InferConfig) -> bool {
    match &config.procs {
        Some(list) => list.iter().any(|n| n == &proc.name),
        None => !proc.name.contains("lock"),
    }
}

fn collect_sites(
    stmts: &[Stmt],
    proc: &str,
    path: &mut Vec<usize>,
    kinds: &[FenceKind],
    out: &mut Vec<CandidateSite>,
) {
    for index in 0..=stmts.len() {
        for &kind in kinds {
            out.push(CandidateSite {
                proc: proc.to_string(),
                block_path: path.clone(),
                stmt_index: index,
                kind,
            });
        }
        if index < stmts.len() {
            if let Stmt::Block { body, .. } = &stmts[index] {
                path.push(index);
                collect_sites(body, proc, path, kinds, out);
                path.pop();
            }
        }
    }
}

/// Builds a copy of `program` with the given candidates inserted as real
/// fences (candidates must come from [`candidate_sites`] on the same
/// program).
pub fn apply_candidates(program: &Program, sites: &[CandidateSite]) -> Program {
    apply_impl(program, sites.iter().map(|s| (s, None)))
}

/// Builds a copy of `program` with **all** given candidates inserted as
/// activation-gated [`Stmt::CandidateFence`] statements, site `i` being
/// `sites[i]`. An engine session over the result checks any candidate
/// subset as an assumption vector
/// ([`Query::with_fences`](crate::query::Query::with_fences)) — the
/// encode-once fence-inference inner loop.
pub fn apply_candidates_gated(program: &Program, sites: &[CandidateSite]) -> Program {
    apply_impl(
        program,
        sites.iter().enumerate().map(|(i, s)| (s, Some(i as u32))),
    )
}

/// Insertion plan: (proc, block path, stmt index) → fences to insert
/// there, with optional candidate-site ids.
type InsertionPlan<'a> = HashMap<(&'a str, &'a [usize], usize), Vec<(FenceKind, Option<u32>)>>;

fn apply_impl<'a>(
    program: &Program,
    sites: impl Iterator<Item = (&'a CandidateSite, Option<u32>)>,
) -> Program {
    // Group by (proc, path, index), preserving kind order.
    let mut by_point: InsertionPlan<'_> = HashMap::new();
    for (s, site_id) in sites {
        by_point
            .entry((s.proc.as_str(), s.block_path.as_slice(), s.stmt_index))
            .or_default()
            .push((s.kind, site_id));
    }
    let mut program = program.clone();
    for proc in &mut program.procedures {
        let name = proc.name.clone();
        let mut path = Vec::new();
        proc.body = rebuild(&proc.body, &name, &mut path, &by_point);
    }
    program
}

fn rebuild(
    stmts: &[Stmt],
    proc: &str,
    path: &mut Vec<usize>,
    by_point: &InsertionPlan<'_>,
) -> Vec<Stmt> {
    let mut out = Vec::new();
    for index in 0..=stmts.len() {
        if let Some(kinds) = by_point.get(&(proc, path.as_slice(), index)) {
            for &(kind, site_id) in kinds {
                out.push(match site_id {
                    None => Stmt::Fence(kind),
                    Some(site) => Stmt::CandidateFence { kind, site },
                });
            }
        }
        if index < stmts.len() {
            match &stmts[index] {
                Stmt::Block {
                    tag,
                    is_loop,
                    spin,
                    body,
                } => {
                    path.push(index);
                    let body = rebuild(body, proc, path, by_point);
                    path.pop();
                    out.push(Stmt::Block {
                        tag: *tag,
                        is_loop: *is_loop,
                        spin: *spin,
                        body,
                    });
                }
                other => out.push(other.clone()),
            }
        }
    }
    out
}

/// Infers a 1-minimal fence placement making `harness` pass every test
/// in `tests` on `mode` (see the module documentation).
///
/// # Errors
///
/// [`InferError::Unfixable`] if even the saturated build fails;
/// [`InferError::Check`] for mining/checking failures (which include
/// genuine verification results such as serial bugs).
pub fn infer(
    harness: &Harness,
    tests: &[TestSpec],
    mode: Mode,
    config: &InferConfig,
) -> Result<InferenceResult, InferError> {
    let t0 = Instant::now();
    // Mine each test's specification once; fences cannot change it.
    let mut specs: Vec<ObsSet> = Vec::with_capacity(tests.len());
    for t in tests {
        specs.push(mine_reference(harness, t)?.spec);
    }

    let all = candidate_sites(&harness.program, config);
    // Encode once: every candidate site goes in as an activation-gated
    // fence (site i = all[i]), and the engine pools one persistent
    // session per test, answering each candidate build as an
    // assumption-vector query (no re-encode, no cold solver).
    let gated = Harness {
        name: format!("{}+candidates", harness.name),
        program: apply_candidates_gated(&harness.program, &all),
        init_proc: harness.init_proc.clone(),
        ops: harness.ops.clone(),
    };
    let mut engine = Engine::new(EngineConfig::from_check_config(
        &CheckConfig::default(),
        ModeSet::single(mode),
    ));
    // One base query per test holds the (Arc-shared) spec; every
    // candidate build clones it and swaps the fence vector.
    let bases: Vec<Query> = tests
        .iter()
        .zip(specs)
        .map(|(t, spec)| Query::check_inclusion(&gated, t, spec).on(mode))
        .collect();

    let passes = |enabled: &[bool], checks: &mut usize| -> Result<Option<String>, CheckError> {
        let active: Vec<u32> = enabled
            .iter()
            .enumerate()
            .filter(|(_, &e)| e)
            .map(|(i, _)| i as u32)
            .collect();
        for (t, base) in tests.iter().zip(&bases) {
            *checks += 1;
            if !engine.run(&base.clone().with_fences(&active))?.passed() {
                return Ok(Some(t.name.clone()));
            }
        }
        Ok(None)
    };

    let (enabled, checks) = minimize(&all, &config.kinds, passes)?;

    let kept: Vec<CandidateSite> = all
        .iter()
        .zip(&enabled)
        .filter(|(_, &e)| e)
        .map(|(s, _)| s.clone())
        .collect();
    let program = apply_candidates(&harness.program, &kept);
    let stats = engine.stats();
    Ok(InferenceResult {
        program,
        candidates: all.len(),
        kept,
        checks,
        elapsed: t0.elapsed(),
        symexecs: stats.symexecs,
        encodes: stats.encodes,
        sat: engine.solver_stats(),
    })
}

/// The per-candidate baseline: every candidate build is re-compiled
/// into a fresh harness and checked by the reference oracle
/// ([`crate::oracle::oneshot`]: fresh symbolic execution, encoding and
/// solver per check). Produces the same 1-minimal placement as
/// [`infer`]; kept for session-equivalence tests and as the "before"
/// series of the fence-inference benchmark.
///
/// # Errors
///
/// As [`infer`].
pub fn infer_baseline(
    harness: &Harness,
    tests: &[TestSpec],
    mode: Mode,
    config: &InferConfig,
) -> Result<InferenceResult, InferError> {
    let t0 = Instant::now();
    let mut specs: Vec<Arc<ObsSet>> = Vec::with_capacity(tests.len());
    for t in tests {
        specs.push(Arc::new(mine_reference(harness, t)?.spec));
    }

    let all = candidate_sites(&harness.program, config);
    let mut symexecs = 0u32;
    let mut sat = cf_sat::Stats::default();

    let passes = |enabled: &[bool], checks: &mut usize| -> Result<Option<String>, CheckError> {
        let sites: Vec<CandidateSite> = all
            .iter()
            .zip(enabled)
            .filter(|(_, &e)| e)
            .map(|(s, _)| s.clone())
            .collect();
        let program = apply_candidates(&harness.program, &sites);
        let build = Harness {
            name: format!("{}+inferred", harness.name),
            program,
            init_proc: harness.init_proc.clone(),
            ops: harness.ops.clone(),
        };
        for (t, spec) in tests.iter().zip(&specs) {
            *checks += 1;
            let query = Query::check_inclusion(&build, t, Arc::clone(spec)).on(mode);
            let v = crate::oracle::oneshot(&query, &CheckConfig::default(), &[])?;
            symexecs += v.phase.bound_rounds;
            sat.conflicts += v.phase.sat_conflicts;
            sat.propagations += v.phase.sat_propagations;
            sat.solves += v.phase.sat_solves;
            if !v.passed() {
                return Ok(Some(t.name.clone()));
            }
        }
        Ok(None)
    };

    let (enabled, checks) = minimize(&all, &config.kinds, passes)?;

    let kept: Vec<CandidateSite> = all
        .iter()
        .zip(&enabled)
        .filter(|(_, &e)| e)
        .map(|(s, _)| s.clone())
        .collect();
    let program = apply_candidates(&harness.program, &kept);
    Ok(InferenceResult {
        program,
        candidates: all.len(),
        kept,
        checks,
        elapsed: t0.elapsed(),
        symexecs,
        encodes: symexecs,
        sat,
    })
}

/// The saturate-then-minimize search shared by [`infer`] and
/// [`infer_baseline`]: identical decision sequence, so both paths land on
/// the same 1-minimal placement whenever the underlying checks agree.
fn minimize(
    all: &[CandidateSite],
    kinds: &[FenceKind],
    mut passes: impl FnMut(&[bool], &mut usize) -> Result<Option<String>, CheckError>,
) -> Result<(Vec<bool>, usize), InferError> {
    let mut enabled = vec![true; all.len()];
    let mut checks = 0usize;

    // Sufficiency of the saturated build.
    if let Some(failing_test) = passes(&enabled, &mut checks)? {
        return Err(InferError::Unfixable { failing_test });
    }

    // Phase 1: drop whole kinds.
    for &kind in kinds {
        let saved = enabled.clone();
        for (site, e) in all.iter().zip(enabled.iter_mut()) {
            if site.kind == kind {
                *e = false;
            }
        }
        if enabled.iter().all(|e| !e) || passes(&enabled, &mut checks)?.is_none() {
            continue; // removal accepted (trivially if nothing remains)
        }
        enabled = saved;
    }
    // An empty placement must still be validated when phase 1 emptied
    // the set without a check.
    if enabled.iter().all(|e| !e) && passes(&enabled, &mut checks)?.is_some() {
        enabled = vec![true; all.len()];
        // Re-run phase 1 conservatively (validating each batch).
        for &kind in kinds {
            let saved = enabled.clone();
            for (site, e) in all.iter().zip(enabled.iter_mut()) {
                if site.kind == kind {
                    *e = false;
                }
            }
            if passes(&enabled, &mut checks)?.is_some() {
                enabled = saved;
            }
        }
    }

    // Phase 2: drop single candidates.
    for i in 0..all.len() {
        if !enabled[i] {
            continue;
        }
        enabled[i] = false;
        if passes(&enabled, &mut checks)?.is_some() {
            enabled[i] = true;
        }
    }

    Ok((enabled, checks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_spec::OpSig;

    fn mailbox() -> Harness {
        let program = cf_minic::compile(
            r#"
            int data; int flag;
            void put(int v) { data = v + 1; flag = 1; }
            int get() { int f = flag; if (f == 0) { return 0 - 1; } return data; }
            "#,
        )
        .expect("compiles");
        Harness {
            name: "mailbox".into(),
            program,
            init_proc: None,
            ops: vec![
                OpSig {
                    key: 'p',
                    proc_name: "put".into(),
                    num_args: 1,
                    has_ret: false,
                },
                OpSig {
                    key: 'g',
                    proc_name: "get".into(),
                    num_args: 0,
                    has_ret: true,
                },
            ],
        }
    }

    fn mailbox_tests() -> Vec<TestSpec> {
        vec![TestSpec::parse("pg", "( p | g )").expect("parses")]
    }

    #[test]
    fn candidates_skip_atomic_interiors() {
        let program = cf_minic::compile(
            r#"
            int x;
            void f() { atomic { x = 1; x = 2; } x = 3; }
            "#,
        )
        .expect("compiles");
        let sites = candidate_sites(
            &program,
            &InferConfig {
                kinds: vec![FenceKind::StoreStore],
                procs: None,
            },
        );
        // One site per boundary reachable without entering an atomic
        // block (lowering may introduce temporaries and wrapper blocks,
        // so count from the lowered body).
        fn boundaries(stmts: &[Stmt]) -> usize {
            let mut n = stmts.len() + 1;
            for s in stmts {
                if let Stmt::Block { body, .. } = s {
                    n += boundaries(body);
                }
            }
            n
        }
        fn has_atomic_with_stmts(stmts: &[Stmt]) -> bool {
            stmts.iter().any(|s| match s {
                Stmt::Atomic(body) => !body.is_empty(),
                Stmt::Block { body, .. } => has_atomic_with_stmts(body),
                _ => false,
            })
        }
        let f = program
            .procedures
            .iter()
            .find(|p| p.name == "f")
            .expect("f exists");
        assert!(
            has_atomic_with_stmts(&f.body),
            "lowering kept the atomic block: {f:?}"
        );
        assert_eq!(sites.len(), boundaries(&f.body), "{sites:?}");
    }

    #[test]
    fn candidates_descend_into_blocks() {
        let program = cf_minic::compile(
            r#"
            int x;
            void f() { while (x == 0) { x = 1; } }
            "#,
        )
        .expect("compiles");
        let sites = candidate_sites(
            &program,
            &InferConfig {
                kinds: vec![FenceKind::LoadLoad],
                procs: None,
            },
        );
        assert!(
            sites.iter().any(|s| !s.block_path.is_empty()),
            "loop bodies must contribute sites: {sites:?}"
        );
    }

    #[test]
    fn apply_round_trips_through_sites() {
        let h = mailbox();
        let config = InferConfig::default();
        let sites = candidate_sites(&h.program, &config);
        let saturated = apply_candidates(&h.program, &sites);
        // Every candidate materialized as a fence statement.
        let mut fences = 0usize;
        for proc in &saturated.procedures {
            let mut stack = vec![&proc.body];
            while let Some(body) = stack.pop() {
                for s in body {
                    match s {
                        Stmt::Fence(_) => fences += 1,
                        Stmt::Block { body, .. } | Stmt::Atomic(body) => stack.push(body),
                        _ => {}
                    }
                }
            }
        }
        assert_eq!(fences, sites.len());
        // Inserting nothing is the identity.
        let same = apply_candidates(&h.program, &[]);
        assert_eq!(format!("{:?}", same), format!("{:?}", h.program));
    }

    #[test]
    fn infers_the_classic_mp_repair() {
        let h = mailbox();
        let tests = mailbox_tests();
        let r =
            infer(&h, &tests, Mode::Relaxed, &InferConfig::default()).expect("inference succeeds");
        assert_eq!(r.kept.len(), 2, "kept: {:?}", r.kept);
        let kinds: Vec<FenceKind> = r.kept.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&FenceKind::StoreStore), "{kinds:?}");
        assert!(kinds.contains(&FenceKind::LoadLoad), "{kinds:?}");
        let put_fence = r
            .kept
            .iter()
            .find(|s| s.proc == "put")
            .expect("writer fence");
        assert_eq!(put_fence.kind, FenceKind::StoreStore);
        let get_fence = r
            .kept
            .iter()
            .find(|s| s.proc == "get")
            .expect("reader fence");
        assert_eq!(get_fence.kind, FenceKind::LoadLoad);
    }

    #[test]
    fn infers_nothing_on_sc() {
        let h = mailbox();
        let tests = mailbox_tests();
        let r = infer(&h, &tests, Mode::Sc, &InferConfig::default()).expect("succeeds");
        assert!(r.kept.is_empty(), "SC needs no fences: {:?}", r.kept);
    }

    #[test]
    fn infers_only_store_store_on_pso() {
        let h = mailbox();
        let tests = mailbox_tests();
        let r = infer(&h, &tests, Mode::Pso, &InferConfig::default()).expect("succeeds");
        assert_eq!(r.kept.len(), 1, "{:?}", r.kept);
        assert_eq!(r.kept[0].kind, FenceKind::StoreStore);
        assert_eq!(r.kept[0].proc, "put");
    }

    #[test]
    fn unfixable_defects_are_reported() {
        // Restrict the candidate space so saturation cannot repair the
        // MP race (store-load fences in the reader are the wrong tool):
        // inference must report the failure rather than loop.
        let h = mailbox();
        let tests = mailbox_tests();
        let config = InferConfig {
            kinds: vec![FenceKind::StoreLoad],
            procs: Some(vec!["get".into()]),
        };
        let err = infer(&h, &tests, Mode::Relaxed, &config).expect_err("cannot fix");
        match err {
            InferError::Unfixable { failing_test } => assert_eq!(failing_test, "pg"),
            other => panic!("expected Unfixable, got {other:?}"),
        }
    }
}
