//! Batched mutation checking: the paper's Fig. 11 ablation experiments
//! run as assumption vectors on one incremental session.
//!
//! CheckFence validates itself by *mutating* the implementations it
//! checks — deleting a fence, weakening its kind, reordering adjacent
//! operations — and verifying that the checker catches each injected
//! bug. Done naively, a mutant matrix of `M` mutations × `K` memory
//! models costs `M × K` full pipeline runs (symbolic execution, CNF
//! encoding, cold SAT solver each time).
//!
//! This module uses the toggle sites of the incremental sessions
//! ([`crate::CheckSession`]), which fence inference uses to add
//! candidate fences, for arbitrary statement rewrites: a
//! [`MutationPlan`] instruments the program once, wrapping
//! every mutation point in a [`cf_lsl::Stmt::Toggle`] whose per-site
//! *toggle literal* selects between the original statements and the
//! mutant. The whole matrix is then answered from **one** symbolic
//! execution and **one** encoding covering the entire model universe
//! (built-in [`Mode`]s *and* declarative [`ModelSpec`]s): checking
//! mutant `m` under model `k` is one incremental solver call under the
//! assumptions "model `k` selected, toggle `m` active, every other
//! toggle inactive".
//!
//! Three mutation operators are planned (see [`MutationKind`]):
//!
//! * **delete-stmt** — drop a store or a fence;
//! * **weaken-fence** — replace a fence's kind with its orthogonal kind
//!   (e.g. `store-store` → `load-load`), which orders none of the pairs
//!   the original ordered;
//! * **swap-adjacent** — exchange two adjacent memory accesses whose
//!   *register* dataflow is independent. Their addresses may still
//!   coincide dynamically: a same-address swap is a legitimate mutant,
//!   typically caught already under `serial`/`sc` (like a deleted value
//!   store), while disjoint-address swaps probe memory-model
//!   sensitivity.
//!
//! The planner numbers the points in one document-order walk. The
//! instrumented program and each concrete mutant
//! ([`MutationPlan::mutant`]) are then two separate edits on cf-lsl's
//! statement-list rewriter ([`cf_lsl::Program::map_lists`]): only the
//! tree walk is shared, so the one-shot oracle still checks concretely
//! rebuilt programs.
//!
//! [`run_mutation_matrix`] produces a [`MutationReport`] (a Fig.
//! 11-style table); [`run_mutation_matrix_oneshot`] answers the same
//! matrix through the reference oracle ([`crate::oracle::oneshot`]) on
//! concretely mutated programs, for equivalence tests and the
//! `BENCH_mutate.json` benchmark.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use cf_lsl::{pretty, FenceKind, Program, Reg, Stmt};
use cf_memmodel::Mode;
use cf_spec::ModelSpec;

use crate::checker::{CheckConfig, CheckError, CheckOutcome, FailureKind};
use crate::encode::ModelSel;
use crate::query::{Engine, EngineConfig, Query, Verdict};
use crate::test_spec::{Harness, TestSpec};

/// A mutation operator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MutationKind {
    /// Delete one store or fence statement.
    DeleteStmt,
    /// Replace a fence's kind with its orthogonal kind (both sides
    /// flipped), so the mutant orders none of the pairs the original
    /// ordered.
    WeakenFence,
    /// Swap two adjacent, data-independent memory accesses.
    SwapAdjacent,
}

impl MutationKind {
    /// All operators, in planning order.
    pub fn all() -> [MutationKind; 3] {
        [
            MutationKind::DeleteStmt,
            MutationKind::WeakenFence,
            MutationKind::SwapAdjacent,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MutationKind::DeleteStmt => "delete",
            MutationKind::WeakenFence => "weaken",
            MutationKind::SwapAdjacent => "swap",
        }
    }
}

/// The orthogonal fence kind used by [`MutationKind::WeakenFence`].
fn weakened(kind: FenceKind) -> FenceKind {
    match kind {
        FenceKind::LoadLoad => FenceKind::StoreStore,
        FenceKind::StoreStore => FenceKind::LoadLoad,
        FenceKind::LoadStore => FenceKind::StoreLoad,
        FenceKind::StoreLoad => FenceKind::LoadStore,
    }
}

/// Configuration of the mutation planner, which plans every operator
/// (in [`MutationKind::all`] order per statement).
#[derive(Clone, Debug, Default)]
pub struct MutationConfig {
    /// Restrict mutation to these procedures. `None` selects every
    /// procedure except lock helpers ([`cf_lsl::Procedure::in_scope`],
    /// the fence-inference candidate rule).
    pub procs: Option<Vec<String>>,
}

/// Where a mutation applies: a statement list (procedure body plus the
/// [`Program::map_lists`] path of nested block and atomic indices), an
/// index within it, and the number of statements covered (1 except for
/// swaps, which cover the two accesses plus any pure register
/// statements between them).
#[derive(Clone, PartialEq, Eq, Debug)]
struct Locator {
    proc: String,
    block_path: Vec<usize>,
    stmt_index: usize,
    span: usize,
}

/// One planned mutation.
#[derive(Clone, Debug)]
pub struct MutationPoint {
    /// Toggle-site id (the assumption handle; dense from 0).
    pub id: u32,
    /// The operator.
    pub kind: MutationKind,
    /// Procedure the mutation lives in.
    pub proc: String,
    /// Human-readable description, e.g. ``delete `*r3 = r1` in push``.
    pub description: String,
    locator: Locator,
}

/// A batched mutation plan: the instrumented program plus the point
/// table mapping toggle-site ids back to source-level mutations.
#[derive(Clone, Debug)]
pub struct MutationPlan {
    /// The unmutated input program.
    pub original: Program,
    /// The program with every point wrapped in a
    /// [`cf_lsl::Stmt::Toggle`]; site `i` is `points[i]`.
    pub instrumented: Program,
    /// The planned mutations, indexed by toggle-site id.
    pub points: Vec<MutationPoint>,
}

impl MutationPlan {
    /// Plans every mutation allowed by `config` and instruments the
    /// program with one toggle per point.
    pub fn build(program: &Program, config: &MutationConfig) -> MutationPlan {
        let mut points = Vec::new();
        for proc in &program.procedures {
            if !proc.in_scope(config.procs.as_deref()) {
                continue;
            }
            let mut path = Vec::new();
            enumerate_points(&proc.body, &proc.name, &mut path, false, &mut points);
        }
        for (i, p) in points.iter_mut().enumerate() {
            p.id = i as u32;
        }
        let mut by_list: BTreeMap<(&str, &[usize]), Vec<&MutationPoint>> = BTreeMap::new();
        for p in &points {
            by_list
                .entry((p.locator.proc.as_str(), p.locator.block_path.as_slice()))
                .or_default()
                .push(p);
        }
        let instrumented =
            program.map_lists(|proc, path, stmts| match by_list.get(&(proc, path)) {
                Some(here) => instrument(stmts, here),
                None => stmts,
            });
        MutationPlan {
            original: program.clone(),
            instrumented,
            points,
        }
    }

    /// The concretely mutated program for a single point — the input of
    /// the one-shot oracle. Identical in behavior to activating exactly
    /// that point's toggle on the instrumented program.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn mutant(&self, id: u32) -> Program {
        let point = &self.points[id as usize];
        let at = &point.locator;
        self.original.map_lists(|proc, path, mut stmts| {
            if proc != at.proc || path != at.block_path {
                return stmts;
            }
            let i = at.stmt_index;
            match point.kind {
                MutationKind::DeleteStmt => {
                    stmts.remove(i);
                }
                MutationKind::WeakenFence => {
                    let Stmt::Fence(kind) = stmts[i] else {
                        unreachable!("weaken planned on a non-fence statement")
                    };
                    stmts[i] = Stmt::Fence(weakened(kind));
                }
                // `[i, middle..., j]` becomes `[middle..., j, i]`.
                MutationKind::SwapAdjacent => stmts[i..i + at.span].rotate_left(1),
            }
            stmts
        })
    }
}

/// Registers written / read by a straight-line statement eligible to
/// participate in a swap span (`None` for anything else).
fn rw_regs(s: &Stmt) -> Option<(Vec<Reg>, Vec<Reg>)> {
    match s {
        Stmt::Store { addr, value, .. } => Some((vec![], vec![*addr, *value])),
        Stmt::Load { dst, addr, .. } => Some((vec![*dst], vec![*addr])),
        Stmt::Const { dst, .. } => Some((vec![*dst], vec![])),
        Stmt::Alloc { dst, .. } => Some((vec![*dst], vec![])),
        Stmt::Prim { dst, args, .. } => Some((vec![*dst], args.clone())),
        _ => None,
    }
}

/// A pure register statement (no memory effect, no control flow) — may
/// sit between the two accesses of a swap without being reordered.
fn is_pure_reg_stmt(s: &Stmt) -> bool {
    matches!(
        s,
        Stmt::Const { .. } | Stmt::Prim { .. } | Stmt::Alloc { .. }
    )
}

/// Finds the next memory access after `i` reachable across pure
/// register statements, and checks that moving access `j` before the
/// whole span (and access `i` after it) preserves register dataflow.
/// Returns the span end `j` on success.
fn swap_partner(stmts: &[Stmt], i: usize) -> Option<usize> {
    if !stmts[i].is_memory_access() {
        return None;
    }
    let mut j = i + 1;
    while j < stmts.len() && is_pure_reg_stmt(&stmts[j]) {
        j += 1;
    }
    if j >= stmts.len() || !stmts[j].is_memory_access() {
        return None;
    }
    let (wi, ri) = rw_regs(&stmts[i]).expect("memory access");
    let (wj, rj) = rw_regs(&stmts[j]).expect("memory access");
    let mut wm: Vec<Reg> = Vec::new();
    let mut rm: Vec<Reg> = Vec::new();
    for s in &stmts[i + 1..j] {
        let (w, r) = rw_regs(s).expect("pure register statement");
        wm.extend(w);
        rm.extend(r);
    }
    let disjoint = |xs: &[Reg], ys: &[Reg]| xs.iter().all(|x| !ys.contains(x));
    // The mutant is `[middle..., j, i]`: the register scaffolding runs
    // first (j's operands are typically set up there), then the two
    // accesses in swapped order. Moving access i past the middle and
    // past j must not change any register's value:
    let mid_movable = disjoint(&wm, &ri) && disjoint(&wm, &wi) && disjoint(&rm, &wi);
    let swap_ok = disjoint(&wj, &ri) && disjoint(&wi, &rj) && disjoint(&wi, &wj);
    (mid_movable && swap_ok).then_some(j)
}

fn enumerate_points(
    stmts: &[Stmt],
    proc: &str,
    path: &mut Vec<usize>,
    in_atomic: bool,
    out: &mut Vec<MutationPoint>,
) {
    fn push_point(
        out: &mut Vec<MutationPoint>,
        kind: MutationKind,
        proc: &str,
        path: &[usize],
        index: usize,
        span: usize,
        description: String,
    ) {
        out.push(MutationPoint {
            id: 0, // renumbered by the caller
            kind,
            proc: proc.to_string(),
            description,
            locator: Locator {
                proc: proc.to_string(),
                block_path: path.to_vec(),
                stmt_index: index,
                span,
            },
        });
    }
    let mut swap_blocked = 0usize; // indices below this are in a swap span
    for (i, s) in stmts.iter().enumerate() {
        match s {
            Stmt::Store { .. } => {
                push_point(
                    out,
                    MutationKind::DeleteStmt,
                    proc,
                    path,
                    i,
                    1,
                    format!("delete `{}` in {proc}", pretty::stmt_line(s)),
                );
            }
            // Fences inside atomic blocks are inert; mutating them
            // proves nothing.
            Stmt::Fence(kind) if !in_atomic => {
                push_point(
                    out,
                    MutationKind::DeleteStmt,
                    proc,
                    path,
                    i,
                    1,
                    format!("delete `fence {kind}` in {proc}"),
                );
                push_point(
                    out,
                    MutationKind::WeakenFence,
                    proc,
                    path,
                    i,
                    1,
                    format!("weaken `fence {kind}` to `{}` in {proc}", weakened(*kind)),
                );
            }
            _ => {}
        }
        // Swaps only matter where interleaving is observable.
        if !in_atomic && i >= swap_blocked {
            if let Some(j) = swap_partner(stmts, i) {
                push_point(
                    out,
                    MutationKind::SwapAdjacent,
                    proc,
                    path,
                    i,
                    j - i + 1,
                    format!(
                        "swap `{}` with `{}` in {proc}",
                        pretty::stmt_line(s),
                        pretty::stmt_line(&stmts[j])
                    ),
                );
                swap_blocked = j + 1;
            }
        }
        match s {
            Stmt::Block { body, .. } => {
                path.push(i);
                enumerate_points(body, proc, path, in_atomic, out);
                path.pop();
            }
            Stmt::Atomic(body) => {
                path.push(i);
                enumerate_points(body, proc, path, true, out);
                path.pop();
            }
            _ => {}
        }
    }
}

/// Wraps the points of one statement list, whose nested lists are
/// already instrumented. Per-statement points (delete, weaken) nest
/// inside the swap wrapper of their pair, which is sound because at most
/// one toggle is ever active per query.
fn instrument(stmts: Vec<Stmt>, here: &[&MutationPoint]) -> Vec<Stmt> {
    let mut stmts: Vec<Stmt> = stmts
        .into_iter()
        .enumerate()
        .map(|(i, mut stmt)| {
            // Weaken first (innermost), then delete: `delete` removes the
            // whole (possibly weakened) statement, and with one active
            // toggle per query the nesting order is unobservable anyway.
            for kind in [MutationKind::WeakenFence, MutationKind::DeleteStmt] {
                for p in here
                    .iter()
                    .filter(|p| p.kind == kind && p.locator.stmt_index == i)
                {
                    let mutant = match (kind, &stmt) {
                        (MutationKind::DeleteStmt, _) => Vec::new(),
                        (_, Stmt::Fence(fence)) => vec![Stmt::Fence(weakened(*fence))],
                        _ => unreachable!("weaken planned on a non-fence statement"),
                    };
                    stmt = Stmt::Toggle {
                        site: p.id,
                        orig: vec![stmt],
                        mutant,
                    };
                }
            }
            stmt
        })
        .collect();
    // Swap spans last, back to front so earlier spans keep their indices.
    for p in here
        .iter()
        .rev()
        .filter(|p| p.kind == MutationKind::SwapAdjacent)
    {
        let at = p.locator.stmt_index;
        let orig: Vec<Stmt> = stmts.drain(at..at + p.locator.span).collect();
        let mut mutant = orig.clone();
        mutant.rotate_left(1);
        stmts.insert(
            at,
            Stmt::Toggle {
                site: p.id,
                orig,
                mutant,
            },
        );
    }
    stmts
}

// --------------------------------------------------------------- matrix

/// Configuration of a sweep over a model universe: a mutant matrix
/// here, or a corpus run in `cf_synth`, which names this type
/// `CorpusConfig`. It holds the models, the check settings and how the
/// engine runs; reports are identical at any job count.
#[derive(Clone, Debug)]
pub struct MatrixConfig {
    /// Built-in models checked, in column order. Defaults to the
    /// hardware lattice `[sc, tso, pso, relaxed]`.
    pub modes: Vec<Mode>,
    /// Declarative `.cfm` models checked as additional columns
    /// (compiled into the same encoding, selected per query).
    pub specs: Vec<ModelSpec>,
    /// Check settings (order encoding, bounds, budgets) shared by every
    /// session; the sweep supplies the models.
    pub check: CheckConfig,
    /// The engine's [`EngineConfig::jobs`]: how many sessions run at
    /// once, and in a corpus run how many tests mine at once. A matrix
    /// is one (harness, test) key and so one session, answered from one
    /// encoding on one thread at any job count.
    pub jobs: usize,
    /// Attach verdict provenance to every solved cell: passing cells
    /// carry a proof core, failing cells the witness environment,
    /// rendered by [`MutationReport::explain`] and `CorpusReport::explain`.
    /// Cells a corpus run infers from the model lattice carry none, since
    /// no solve ran for them. Off by default. It sets
    /// [`EngineConfig::provenance`], so each session is built
    /// instrumented; there is no separate provenance pool.
    pub provenance: bool,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        MatrixConfig {
            modes: Mode::hardware().to_vec(),
            specs: Vec::new(),
            check: CheckConfig::default(),
            jobs: 1,
            provenance: false,
        }
    }
}

impl MatrixConfig {
    /// The model axis in report order: built-ins, then specs. A spec
    /// whose `model` header collides with an earlier column name is
    /// primed (`relaxed` → `relaxed'`) so every column stays
    /// distinguishable.
    pub fn models(&self) -> Vec<(String, ModelSel)> {
        let mut out: Vec<(String, ModelSel)> = self
            .modes
            .iter()
            .map(|&m| (m.name().to_string(), ModelSel::Builtin(m)))
            .collect();
        for (i, s) in self.specs.iter().enumerate() {
            let mut name = s.name.clone();
            while out.iter().any(|(n, _)| *n == name) {
                name.push('\'');
            }
            out.push((name, ModelSel::Spec(i)));
        }
        out
    }

    /// The engine a sweep runs on: the check settings over the
    /// configured built-ins and specs, with `jobs` and `provenance`.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig::from_check_config(&self.check, self.modes.iter().copied().collect())
            .with_specs(self.specs.clone())
            .with_jobs(self.jobs)
            .with_provenance(self.provenance)
    }
}

/// The verdict of one (mutant, model) cell.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MutantVerdict {
    /// The mutant passes the inclusion check — the mutation survived
    /// (it is unobservable on this test/model).
    Survived,
    /// The checker caught the mutant with a counterexample.
    Caught(FailureKind),
    /// Loop bounds diverged — the livelock symptom (e.g. a deleted
    /// load-load fence turning a retry loop infinite). Counts as
    /// caught.
    Diverged,
    /// The cell ran out of resources (solver budget, deadline, or a
    /// crashed worker) before deciding — nothing is known about
    /// this mutant on this model.
    Inconclusive(crate::checker::InconclusiveReason),
}

impl MutantVerdict {
    /// `true` unless the mutant survived or the cell is undecided.
    pub fn caught(&self) -> bool {
        !matches!(
            self,
            MutantVerdict::Survived | MutantVerdict::Inconclusive(_)
        )
    }

    /// Fixed-width table cell.
    pub fn cell(&self) -> &'static str {
        match self {
            MutantVerdict::Survived => ".",
            MutantVerdict::Caught(_) => "X",
            MutantVerdict::Diverged => "~",
            MutantVerdict::Inconclusive(_) => "?",
        }
    }
}

/// One row of the mutant matrix.
#[derive(Clone, Debug)]
pub struct MutationRow {
    /// Toggle-site id of the mutant.
    pub point: u32,
    /// The planner's description of the mutation.
    pub description: String,
    /// Verdicts, parallel to [`MutationReport::models`].
    pub verdicts: Vec<MutantVerdict>,
    /// Provenance summaries parallel to `verdicts` — `Some` only when
    /// the matrix ran with [`MatrixConfig::provenance`] and the cell
    /// was decided (inconclusive and diverged cells carry none).
    pub explains: Vec<Option<String>>,
}

/// A Fig. 11-style mutant matrix for one (implementation, test) pair.
#[derive(Clone, Debug)]
pub struct MutationReport {
    /// Implementation name.
    pub harness: String,
    /// Test name.
    pub test: String,
    /// Model axis (column headers).
    pub models: Vec<String>,
    /// Verdicts of the *unmutated* build per model (all should be
    /// `Survived` for a correctly fenced implementation).
    pub baseline: Vec<MutantVerdict>,
    /// Provenance summaries for the baseline cells, parallel to
    /// `baseline` (see [`MutationRow::explains`]).
    pub baseline_explains: Vec<Option<String>>,
    /// One row per planned mutation.
    pub rows: Vec<MutationRow>,
    /// Sessions the engine pooled for this matrix (1 at any `jobs`; the
    /// one-shot oracle reports one "session" per cell).
    pub sessions: usize,
    /// CNF encodings the cells built, each one symbolic execution
    /// (`encodes == sessions` unless loop bounds grew).
    pub encodes: u32,
    /// Queries answered: one per cell.
    pub queries: u32,
    /// SAT counters summed over the cells' [`QueryStats`](crate::QueryStats).
    pub solver: cf_sat::Stats,
    /// End-to-end wall-clock time.
    pub elapsed: Duration,
}

impl MutationReport {
    /// Mutants caught (on at least one model) / total.
    pub fn caught(&self) -> (usize, usize) {
        let caught = self
            .rows
            .iter()
            .filter(|r| r.verdicts.iter().any(MutantVerdict::caught))
            .count();
        (caught, self.rows.len())
    }

    /// Renders the Fig. 11-style table (`X` caught, `.` survived, `~`
    /// bounds diverged, `?` inconclusive). The output is a pure
    /// function of the verdicts —
    /// timings and amortization counters are reported separately
    /// ([`MutationReport::summary`]) so tables from different `jobs`
    /// settings compare bit for bit.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let desc_w = self
            .rows
            .iter()
            .map(|r| r.description.len())
            .chain(["(baseline)".len()])
            .max()
            .unwrap_or(12)
            .min(56);
        let _ = writeln!(
            out,
            "mutant matrix — {} / {} ({} mutants, {} models)",
            self.harness,
            self.test,
            self.rows.len(),
            self.models.len(),
        );
        let _ = write!(out, "  {:>4}  {:<desc_w$}", "id", "mutation");
        for m in &self.models {
            let _ = write!(out, " {m:>8}");
        }
        out.push('\n');
        let _ = write!(out, "  {:>4}  {:<desc_w$}", "", "(baseline)");
        for v in &self.baseline {
            let _ = write!(out, " {:>8}", v.cell());
        }
        out.push('\n');
        for r in &self.rows {
            let mut d = r.description.clone();
            if d.len() > desc_w {
                d.truncate(desc_w - 1);
                d.push('…');
            }
            let _ = write!(out, "  {:>4}  {:<desc_w$}", r.point, d);
            for v in &r.verdicts {
                let _ = write!(out, " {:>8}", v.cell());
            }
            out.push('\n');
        }
        let (caught, total) = self.caught();
        let _ = writeln!(
            out,
            "  caught {caught}/{total}   (X caught, . survived, ~ bounds diverged, ? inconclusive)"
        );
        out
    }

    /// Renders the per-cell provenance report: one line per decided
    /// cell naming the assumptions its verdict leaned on. Like
    /// [`MutationReport::table`] this is a pure function of the
    /// verdicts, so `--explain` output compares bit for bit across
    /// `jobs` settings. Empty when the matrix ran without
    /// [`MatrixConfig::provenance`].
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let mut cell_lines =
            |label: &str, verdicts: &[MutantVerdict], explains: &[Option<String>]| {
                for ((model, v), e) in self.models.iter().zip(verdicts).zip(explains) {
                    if let Some(summary) = e {
                        let _ = writeln!(out, "  {label} @ {model} [{}]: {summary}", v.cell());
                    }
                }
            };
        cell_lines("(baseline)", &self.baseline, &self.baseline_explains);
        for r in &self.rows {
            let label = format!("#{} {}", r.point, r.description);
            cell_lines(&label, &r.verdicts, &r.explains);
        }
        if out.is_empty() {
            return out;
        }
        format!("provenance — {} / {}\n{out}", self.harness, self.test)
    }

    /// One line of run metadata (wall time and amortization counters) —
    /// everything deliberately kept out of [`MutationReport::table`].
    pub fn summary(&self) -> String {
        format!(
            "sessions {}  encodes {}  queries {}  ({:.2?})",
            self.sessions, self.encodes, self.queries, self.elapsed
        )
    }
}

/// The cell verdict of a query result (bound divergence and exhaustion
/// are verdicts, not errors), plus the provenance summary (captured
/// *before* the verdict is consumed; `None` unless the engine ran with
/// provenance and decided the cell).
fn verdict_of_query(
    r: Result<Verdict, CheckError>,
) -> Result<(MutantVerdict, Option<String>), CheckError> {
    match r {
        Ok(v) => {
            let explain = v.provenance.as_ref().map(|p| p.summary());
            if let Some(reason) = v.inconclusive() {
                return Ok((MutantVerdict::Inconclusive(reason), None));
            }
            Ok((
                match v.into_outcome().expect("inclusion yields an outcome") {
                    CheckOutcome::Pass => MutantVerdict::Survived,
                    CheckOutcome::Fail(cx) => MutantVerdict::Caught(cx.kind),
                },
                explain,
            ))
        }
        Err(CheckError::BoundsDiverged { .. }) => Ok((MutantVerdict::Diverged, None)),
        Err(CheckError::Exhausted(reason)) => Ok((MutantVerdict::Inconclusive(reason), None)),
        Err(e) => Err(e),
    }
}

/// Runs the whole mutant matrix on an [`Engine`] batch: every (mutant,
/// model) cell is one [`Query`] with a toggle assumption on one pooled
/// session — one symbolic execution and one encoding for the entire
/// model universe, at any [`MatrixConfig::jobs`] (unless lazy
/// unrolling grows a loop bound). The specification is mined once from
/// the unmutated build with the reference interpreter (mutations must
/// be judged against the original semantics).
///
/// # Errors
///
/// Propagates mining failures and infrastructure errors; per-cell bound
/// divergence is reported as [`MutantVerdict::Diverged`], not an error.
pub fn run_mutation_matrix(
    harness: &Harness,
    test: &TestSpec,
    plan: &MutationPlan,
    config: &MatrixConfig,
) -> Result<MutationReport, CheckError> {
    let t0 = Instant::now();
    cf_trace::emit("matrix_start", || {
        vec![
            ("harness", cf_trace::s(harness.name.clone())),
            ("test", cf_trace::s(test.name.clone())),
            ("mutants", cf_trace::u(plan.points.len() as u64)),
            ("models", cf_trace::u(config.models().len() as u64)),
        ]
    });
    let spec = std::sync::Arc::new(crate::mine::mine_reference(harness, test)?.spec);
    let instrumented = Harness {
        name: format!("{}+mutants", harness.name),
        program: plan.instrumented.clone(),
        init_proc: harness.init_proc.clone(),
        ops: harness.ops.clone(),
    };
    let mut engine = Engine::new(config.engine_config());
    let models = config.models();
    // The batch: baseline cells first, then one row of cells per mutant.
    // One base query holds the (Arc-shared) spec; each cell clones it
    // and retargets the model/toggle axes.
    let base = Query::check_inclusion(&instrumented, test, spec);
    let mut queries = Vec::with_capacity((plan.points.len() + 1) * models.len());
    for (_, sel) in &models {
        queries.push(base.clone().on_model(*sel));
    }
    for point in &plan.points {
        for (_, sel) in &models {
            queries.push(base.clone().on_model(*sel).with_toggles(&[point.id]));
        }
    }
    let mut results = engine.run_batch(&queries).into_iter();
    let mut baseline = Vec::with_capacity(models.len());
    let mut baseline_explains = Vec::with_capacity(models.len());
    for _ in &models {
        let (v, e) = verdict_of_query(results.next().expect("baseline cell"))?;
        baseline.push(v);
        baseline_explains.push(e);
    }
    let mut rows = Vec::with_capacity(plan.points.len());
    for point in &plan.points {
        let mut verdicts = Vec::with_capacity(models.len());
        let mut explains = Vec::with_capacity(models.len());
        for _ in &models {
            let (v, e) = verdict_of_query(results.next().expect("mutant cell"))?;
            verdicts.push(v);
            explains.push(e);
        }
        rows.push(MutationRow {
            point: point.id,
            description: point.description.clone(),
            verdicts,
            explains,
        });
    }
    let stats = engine.stats();
    cf_trace::emit("matrix_done", || {
        vec![
            ("cells", cf_trace::u(queries.len() as u64)),
            ("matrix_us", cf_trace::u(t0.elapsed().as_micros() as u64)),
        ]
    });
    cf_trace::emit("pool_stats", || {
        vec![
            ("sessions", cf_trace::u(stats.sessions as u64)),
            ("encodes", cf_trace::u(u64::from(stats.encodes))),
        ]
    });
    Ok(MutationReport {
        harness: harness.name.clone(),
        test: test.name.clone(),
        models: models.into_iter().map(|(n, _)| n).collect(),
        baseline,
        baseline_explains,
        rows,
        sessions: stats.sessions,
        encodes: stats.encodes,
        queries: stats.queries,
        solver: engine.solver_stats(),
        elapsed: t0.elapsed(),
    })
}

/// The per-mutant oracle: every (mutant, model) cell is a
/// [`crate::oracle::oneshot`] run on the concretely mutated program —
/// full symbolic execution, encoding and cold solver each time.
/// Verdict-equivalent to [`run_mutation_matrix`] (the equivalence suite
/// asserts it); kept as the baseline of `BENCH_mutate.json`.
///
/// # Errors
///
/// As [`run_mutation_matrix`].
pub fn run_mutation_matrix_oneshot(
    harness: &Harness,
    test: &TestSpec,
    plan: &MutationPlan,
    config: &MatrixConfig,
) -> Result<MutationReport, CheckError> {
    let t0 = Instant::now();
    let spec = std::sync::Arc::new(crate::mine::mine_reference(harness, test)?.spec);
    let models = config.models();
    let (mut encodes, mut queries) = (0u32, 0u32);
    let mut solver = cf_sat::Stats::default();
    let mut check_build =
        |program: Program, name: String| -> Result<Vec<MutantVerdict>, CheckError> {
            let build = Harness {
                name,
                program,
                init_proc: harness.init_proc.clone(),
                ops: harness.ops.clone(),
            };
            let mut verdicts = Vec::with_capacity(models.len());
            for (_, sel) in &models {
                queries += 1;
                let query = Query::check_inclusion(&build, test, spec.clone()).on_model(*sel);
                let r = crate::oracle::oneshot(&query, &config.check, &config.specs);
                if let Ok(v) = &r {
                    encodes += v.stats.encodes;
                    solver.add(&v.stats.solver_stats());
                }
                verdicts.push(verdict_of_query(r)?.0);
            }
            Ok(verdicts)
        };
    let baseline = check_build(harness.program.clone(), harness.name.clone())?;
    let mut rows = Vec::with_capacity(plan.points.len());
    for point in &plan.points {
        let verdicts = check_build(
            plan.mutant(point.id),
            format!("{}+m{}", harness.name, point.id),
        )?;
        rows.push(MutationRow {
            point: point.id,
            description: point.description.clone(),
            // The one-shot oracle has no assumption layer to extract
            // cores from; only the engine path explains its cells.
            explains: vec![None; verdicts.len()],
            verdicts,
        });
    }
    Ok(MutationReport {
        harness: harness.name.clone(),
        test: test.name.clone(),
        baseline_explains: vec![None; baseline.len()],
        models: models.into_iter().map(|(n, _)| n).collect(),
        baseline,
        rows,
        sessions: queries as usize,
        encodes,
        queries,
        solver,
        elapsed: t0.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_spec::OpSig;

    fn mailbox() -> Harness {
        let program = cf_minic::compile(
            r#"
            int data; int flag;
            void put(int v) { data = v + 1; fence("store-store"); flag = 1; }
            int get() { int f = flag; fence("load-load");
                        if (f == 0) { return 0 - 1; } return data; }
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

    #[test]
    fn planner_finds_all_three_kinds() {
        let program = cf_minic::compile(
            r#"
            int a; int b;
            void both() { a = 1; fence("store-store"); b = 2; }
            void pair() { a = 1; b = 2; }
            "#,
        )
        .expect("compiles");
        let plan = MutationPlan::build(&program, &MutationConfig::default());
        let kinds: Vec<MutationKind> = plan.points.iter().map(|p| p.kind).collect();
        assert!(kinds.contains(&MutationKind::DeleteStmt), "{kinds:?}");
        assert!(kinds.contains(&MutationKind::WeakenFence), "{kinds:?}");
        assert!(kinds.contains(&MutationKind::SwapAdjacent), "{kinds:?}");
        let swap = plan
            .points
            .iter()
            .find(|p| p.kind == MutationKind::SwapAdjacent)
            .expect("adjacent independent stores swap");
        assert_eq!(swap.proc, "pair", "{:?}", plan.points);
        // Site ids are dense and match indices.
        for (i, p) in plan.points.iter().enumerate() {
            assert_eq!(p.id as usize, i);
        }
    }

    #[test]
    fn concrete_mutants_differ_from_the_original() {
        let h = mailbox();
        let plan = MutationPlan::build(&h.program, &MutationConfig::default());
        assert!(!plan.points.is_empty());
        for p in &plan.points {
            let m = plan.mutant(p.id);
            assert_ne!(
                format!("{m:?}"),
                format!("{:?}", plan.original),
                "mutant {} must change the program: {}",
                p.id,
                p.description
            );
        }
    }

    #[test]
    fn matrix_catches_fence_deletions_and_keeps_baseline_green() {
        let h = mailbox();
        let t = TestSpec::parse("pg", "( p | g )").expect("parses");
        let plan = MutationPlan::build(&h.program, &MutationConfig::default());
        let config = MatrixConfig::default();
        let report = run_mutation_matrix(&h, &t, &plan, &config).expect("matrix runs");
        assert!(
            report.baseline.iter().all(|v| !v.caught()),
            "fenced mailbox passes every hardware model: {:?}",
            report.baseline
        );
        // One encoding answered the whole matrix.
        assert_eq!(report.encodes, 1);
        // Deleting either fence is caught on relaxed (the last builtin
        // column), and the store-store deletion already on pso.
        let relaxed = report.models.iter().position(|m| m == "relaxed").unwrap();
        for r in &report.rows {
            if r.description.contains("delete `fence") {
                assert!(
                    r.verdicts[relaxed].caught(),
                    "fence deletion must be caught on relaxed: {}",
                    r.description
                );
            }
        }
        // The table renders with one row per mutant.
        let table = report.table();
        assert!(table.contains("(baseline)"), "{table}");
        assert_eq!(
            table.lines().count(),
            report.rows.len() + 4,
            "header + models + baseline + rows + summary: {table}"
        );
    }

    #[test]
    fn weakening_is_sharper_than_deletion_on_pso() {
        // On PSO only stores reorder: weakening the reader's load-load
        // fence must survive, weakening the writer's store-store fence
        // must be caught — the matrix distinguishes the two.
        let h = mailbox();
        let t = TestSpec::parse("pg", "( p | g )").expect("parses");
        let plan = MutationPlan::build(&h.program, &MutationConfig::default());
        let config = MatrixConfig::default();
        let report = run_mutation_matrix(&h, &t, &plan, &config).expect("matrix runs");
        let pso = report.models.iter().position(|m| m == "pso").unwrap();
        let ss = report
            .rows
            .iter()
            .find(|r| r.description.contains("weaken `fence store-store`"))
            .expect("writer fence weakened");
        let ll = report
            .rows
            .iter()
            .find(|r| r.description.contains("weaken `fence load-load`"))
            .expect("reader fence weakened");
        assert!(ss.verdicts[pso].caught(), "{}", report.table());
        assert!(!ll.verdicts[pso].caught(), "{}", report.table());
    }
}
