//! The CDCL search engine.
//!
//! A conflict-driven clause-learning solver in the MiniSat lineage:
//! two-watched-literal propagation, first-UIP conflict analysis with basic
//! clause minimization, exponential VSIDS decision ordering, phase saving,
//! Luby restarts and LBD-guided learnt-clause database reduction. The solver
//! is *incremental*: clauses may be added between [`Solver::solve`] calls and
//! solving under assumptions is supported, which is exactly what the
//! CheckFence specification-mining loop requires (Section 3.2 of the paper).

use crate::clause::{ClauseDb, ClauseRef};
use crate::heap::VarHeap;
use crate::stats::Stats;
use crate::types::{LBool, Lit, Var};

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; query it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// A resource limit was exhausted before an answer was found; the
    /// specific limit is reported by [`Solver::stop_cause`].
    Unknown,
}

/// Which resource limit made the last `solve` call return
/// [`SolveResult::Unknown`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopCause {
    /// The deterministic tick budget ([`Solver::set_tick_budget`]) ran out.
    TickBudget,
    /// The wall-clock deadline ([`Solver::set_deadline`]) passed.
    Deadline,
}

/// What one [`Solver::solve_with`] call did: its result, the limit
/// that stopped it (for [`SolveResult::Unknown`]), and the counter
/// deltas it accumulated. Passed to the [`SolveHook`] after every
/// solve call, on every return path.
#[derive(Clone, Copy, Debug)]
pub struct SolveEvent {
    /// The result the call returned.
    pub result: SolveResult,
    /// Which resource limit stopped the call, when `result` is
    /// [`SolveResult::Unknown`].
    pub stop: Option<StopCause>,
    /// Counter deltas for this call alone ([`Stats::since`] against a
    /// snapshot taken at call entry).
    pub delta: Stats,
}

/// An observer invoked after every solve call with its [`SolveEvent`].
///
/// The hook is how higher layers (the CheckFence trace collector)
/// attribute solver work to spans without the solver depending on them;
/// `cf-sat` itself never inspects the events.
pub struct SolveHook(Box<dyn FnMut(&SolveEvent) + Send>);

impl SolveHook {
    /// Wraps a callback as a solve hook.
    pub fn new(hook: impl FnMut(&SolveEvent) + Send + 'static) -> Self {
        SolveHook(Box::new(hook))
    }
}

impl std::fmt::Debug for SolveHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SolveHook(..)")
    }
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    /// A second literal of the clause; if it is already true the clause is
    /// satisfied and the watch list walk can skip loading the clause.
    blocker: Lit,
}

/// An incremental CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use cf_sat::{Solver, SolveResult};
/// let mut s = Solver::new();
/// let a = s.new_var().positive();
/// let b = s.new_var().positive();
/// s.add_clause([a, b]);
/// s.add_clause([!a]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert_eq!(s.value(b.var()), Some(true));
/// s.add_clause([!b]);
/// assert_eq!(s.solve(), SolveResult::Unsat);
/// ```
#[derive(Debug)]
pub struct Solver {
    db: ClauseDb,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    activity: Vec<f64>,
    var_inc: f64,
    order: VarHeap,
    saved_phase: Vec<bool>,

    cla_inc: f64,

    /// Formula already proven unsatisfiable at level 0.
    unsat: bool,

    /// The assumption subset the last Unsat answer depends on (the
    /// final-conflict analysis result); `None` after Sat/Unknown.
    last_core: Option<Vec<Lit>>,

    // scratch buffer for conflict analysis
    seen: Vec<bool>,
    // scratch buffer for `add_clause`, reused across calls
    clause_buf: Vec<Lit>,

    max_learnts: f64,
    stats: Stats,
    // the part of `stats` accumulated inside solve calls
    solve_stats: Stats,
    tick_budget: Option<u64>,
    deadline: Option<std::time::Instant>,
    stop_cause: Option<StopCause>,
    solve_hook: Option<SolveHook>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f64 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;
// Wall-clock sampling intervals: `Instant::now` per conflict would be
// noise, per decision would dominate the hot path.
const DEADLINE_CHECK_CONFLICTS: u64 = 64;
const DEADLINE_CHECK_DECISIONS: u64 = 512;

impl Solver {
    /// Creates an empty solver with no variables and no clauses.
    pub fn new() -> Self {
        Solver {
            db: ClauseDb::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarHeap::new(),
            saved_phase: Vec::new(),
            cla_inc: 1.0,
            unsat: false,
            last_core: None,
            seen: Vec::new(),
            clause_buf: Vec::new(),
            max_learnts: 0.0,
            stats: Stats::default(),
            solve_stats: Stats::default(),
            tick_budget: None,
            deadline: None,
            stop_cause: None,
            solve_hook: None,
        }
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow_to(self.assigns.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of live problem clauses (units and empty clauses are absorbed
    /// into the assignment and the unsat flag and are not counted).
    pub fn num_clauses(&self) -> usize {
        self.db.num_original
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The part of [`Solver::stats`] accumulated inside solve calls: the
    /// sum of every [`SolveEvent::delta`] so far. It leaves out the
    /// level-0 propagation that [`Solver::add_clause`] does between
    /// calls.
    pub fn solve_stats(&self) -> &Stats {
        &self.solve_stats
    }

    /// Limits the next `solve` calls to roughly `ticks` *ticks*, where a
    /// tick is one propagation or one conflict; `None` removes the limit.
    ///
    /// Unlike a wall-clock deadline, tick counts depend only on the formula
    /// and the solver state, so an exhausted budget reproduces exactly on
    /// any machine. When the budget is exhausted `solve` returns
    /// [`SolveResult::Unknown`] and [`Solver::stop_cause`] reports
    /// [`StopCause::TickBudget`].
    pub fn set_tick_budget(&mut self, ticks: Option<u64>) {
        self.tick_budget = ticks;
    }

    /// Aborts any `solve` call still running at `deadline` (checked at
    /// conflict and decision boundaries); `None` removes the deadline.
    /// On expiry `solve` returns [`SolveResult::Unknown`] and
    /// [`Solver::stop_cause`] reports [`StopCause::Deadline`].
    ///
    /// Wall-clock deadlines are inherently machine-dependent; prefer
    /// [`Solver::set_tick_budget`] when reproducibility matters.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// Cumulative ticks (propagations + conflicts) across all solves.
    pub fn ticks(&self) -> u64 {
        self.stats.ticks()
    }

    /// Why the most recent `solve` call returned [`SolveResult::Unknown`],
    /// or `None` if it returned a definite answer.
    pub fn stop_cause(&self) -> Option<StopCause> {
        self.stop_cause
    }

    /// Adds a clause. Returns `false` if the formula is now known to be
    /// unsatisfiable (the empty clause was derived), `true` otherwise.
    ///
    /// May be called between `solve` calls; the solver backtracks to
    /// decision level 0 first.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        if self.unsat {
            return false;
        }
        self.cancel_until(0);
        let mut c = std::mem::take(&mut self.clause_buf);
        c.clear();
        c.extend(lits);
        c.sort_unstable();
        c.dedup();
        let ok = self.satisfied_at_level_0(&mut c)
            || match c.len() {
                0 => {
                    self.unsat = true;
                    false
                }
                1 => {
                    self.unchecked_enqueue(c[0], None);
                    if self.propagate().is_some() {
                        self.unsat = true;
                        false
                    } else {
                        true
                    }
                }
                _ => {
                    let cref = self.db.alloc(&c, false, 0);
                    self.attach(cref);
                    true
                }
            };
        self.clause_buf = c;
        ok
    }

    /// Simplifies a sorted, deduplicated clause at level 0: `true` if it
    /// is a tautology or already satisfied, otherwise strips its false
    /// literals in place.
    fn satisfied_at_level_0(&self, c: &mut Vec<Lit>) -> bool {
        let mut kept = 0;
        let mut prev: Option<Lit> = None;
        for i in 0..c.len() {
            let l = c[i];
            if prev == Some(!l) {
                return true; // tautology: x ∨ ¬x
            }
            match self.lit_value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop
                LBool::Undef => {
                    c[kept] = l;
                    kept += 1;
                }
            }
            prev = Some(l);
        }
        c.truncate(kept);
        false
    }

    /// Solves the current formula.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Installs (or removes) the per-call observer; see [`SolveHook`].
    pub fn set_solve_hook(&mut self, hook: Option<SolveHook>) {
        self.solve_hook = hook;
    }

    /// Solves under the given assumptions. The assumptions behave like
    /// temporary unit clauses for this call only.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        // Snapshot-delta-notify wrapper: the hook must observe every
        // return path of the search body, early outs included.
        let before = self.stats;
        let result = self.solve_with_inner(assumptions);
        let delta = self.stats.since(&before);
        self.solve_stats.add(&delta);
        if let Some(hook) = &mut self.solve_hook {
            let event = SolveEvent {
                result,
                stop: self.stop_cause,
                delta,
            };
            (hook.0)(&event);
        }
        result
    }

    fn solve_with_inner(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solves += 1;
        self.stats.assumed_literals += assumptions.len() as u64;
        self.stop_cause = None;
        // The formula being unsatisfiable without any assumption help is
        // the empty core: re-solving with no assumptions reproduces it.
        self.last_core = None;
        if self.unsat {
            self.last_core = Some(Vec::new());
            return SolveResult::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.unsat = true;
            self.last_core = Some(Vec::new());
            return SolveResult::Unsat;
        }
        if self.past_deadline() {
            // A stalled caller may arrive with the deadline already spent;
            // answer Unknown without starting a search.
            self.stop_cause = Some(StopCause::Deadline);
            return SolveResult::Unknown;
        }
        self.max_learnts = (self.db.num_original as f64 / 3.0).max(4000.0);
        let tick_start = self.ticks();
        let mut restart_round = 0u32;
        loop {
            let conflict_limit = 100 * luby(2.0, restart_round) as u64;
            match self.search(conflict_limit, assumptions, tick_start) {
                Some(r) => return r,
                None => {
                    // Restart.
                    self.stats.restarts += 1;
                    restart_round += 1;
                }
            }
        }
    }

    /// The model value of `v` after a successful solve.
    ///
    /// Returns `None` for variables that were never assigned (such
    /// variables are unconstrained; either value satisfies the formula).
    pub fn value(&self, v: Var) -> Option<bool> {
        self.assigns[v.index()].to_option()
    }

    /// The model value of a literal after a successful solve.
    pub fn lit_value_model(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| b == l.sign())
    }

    // ---------------------------------------------------------------- search

    /// Runs CDCL until a result, a restart (`None`) or budget exhaustion.
    fn search(
        &mut self,
        conflict_limit: u64,
        assumptions: &[Lit],
        tick_start: u64,
    ) -> Option<SolveResult> {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                // Conflict.
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    self.last_core = Some(Vec::new());
                    return Some(SolveResult::Unsat);
                }
                let (learnt, bt_level, lbd) = self.analyze(confl);
                self.cancel_until(bt_level);
                self.record_learnt(learnt, lbd);
                self.decay_activities();
                if self.exhausted(tick_start) {
                    self.cancel_until(0);
                    self.stop_cause = Some(StopCause::TickBudget);
                    return Some(SolveResult::Unknown);
                }
                if self
                    .stats
                    .conflicts
                    .is_multiple_of(DEADLINE_CHECK_CONFLICTS)
                    && self.past_deadline()
                {
                    self.cancel_until(0);
                    self.stop_cause = Some(StopCause::Deadline);
                    return Some(SolveResult::Unknown);
                }
            } else {
                // Resource checks sit at decision boundaries too, so
                // propagation-heavy searches with few conflicts still stop.
                // Tick exhaustion depends only on the deterministic
                // decision/propagation sequence; the wall clock is sampled
                // every few hundred decisions to keep the hot path cheap.
                if self.exhausted(tick_start) {
                    self.cancel_until(0);
                    self.stop_cause = Some(StopCause::TickBudget);
                    return Some(SolveResult::Unknown);
                }
                if self
                    .stats
                    .decisions
                    .is_multiple_of(DEADLINE_CHECK_DECISIONS)
                    && self.past_deadline()
                {
                    self.cancel_until(0);
                    self.stop_cause = Some(StopCause::Deadline);
                    return Some(SolveResult::Unknown);
                }
                if conflicts_here >= conflict_limit {
                    // Restart.
                    self.cancel_until(0);
                    return None;
                }
                if self.db.num_learnt as f64 >= self.max_learnts {
                    self.reduce_db();
                }
                // Place assumptions first, then decide.
                let mut next: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_value(a) {
                        LBool::True => {
                            // Already satisfied: open an empty level for it.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            // Assumption contradicted: run the final-conflict
                            // analysis before unwinding the trail it walks.
                            let core = self.analyze_final(a);
                            self.last_core = Some(core);
                            self.cancel_until(0);
                            return Some(SolveResult::Unsat);
                        }
                        LBool::Undef => {
                            next = Some(a);
                            break;
                        }
                    }
                }
                let decision = match next {
                    Some(l) => Some(l),
                    None => self.pick_branch_lit(),
                };
                match decision {
                    None => return Some(SolveResult::Sat),
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(l, None);
                    }
                }
            }
        }
    }

    /// The deterministic tick budget check: `true` once the budget has
    /// no headroom left.
    #[inline]
    fn exhausted(&self, tick_start: u64) -> bool {
        self.tick_budget
            .is_some_and(|b| self.ticks() - tick_start >= b)
    }

    #[inline]
    fn past_deadline(&self) -> bool {
        self.deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        value_under(&self.assigns, l)
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assigns[v.index()].is_undef() {
                let phase = self.saved_phase[v.index()];
                return Some(v.lit(phase));
            }
        }
        None
    }

    fn unchecked_enqueue(&mut self, l: Lit, from: Option<ClauseRef>) {
        debug_assert!(self.lit_value(l).is_undef());
        let v = l.var();
        self.assigns[v.index()] = LBool::from_bool(l.sign());
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = from;
        self.trail.push(l);
        self.stats.propagations += 1;
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        while self.trail.len() > bound {
            let l = self.trail.pop().expect("trail non-empty");
            let v = l.var();
            self.saved_phase[v.index()] = l.sign();
            self.assigns[v.index()] = LBool::Undef;
            self.reason[v.index()] = None;
            self.order.insert(v, &self.activity);
        }
        self.trail_lim.truncate(target as usize);
        self.qhead = bound.min(self.trail.len());
    }

    // ----------------------------------------------------------- propagation

    fn attach(&mut self, cref: ClauseRef) {
        let l0 = self.db.lit(cref, 0);
        let l1 = self.db.lit(cref, 1);
        self.watches[(!l0).index()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).index()].push(Watcher { cref, blocker: l0 });
    }

    fn detach(&mut self, cref: ClauseRef) {
        let l0 = self.db.lit(cref, 0);
        let l1 = self.db.lit(cref, 1);
        self.watches[(!l0).index()].retain(|w| w.cref != cref);
        self.watches[(!l1).index()].retain(|w| w.cref != cref);
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            // Process clauses watching ¬p (stored under index p).
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            let mut j = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.lit_value(w.blocker).is_true() {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                // The clause's literals, read in place; the borrow of the
                // arena leaves `assigns` and `watches` free.
                let lits = self.db.lits_mut(cref);
                // Normalize: put the false literal (¬p) at position 1.
                if lits[0] == false_lit.0 {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit.0);
                let first = Lit(lits[0]);
                let new_watcher = Watcher {
                    cref,
                    blocker: first,
                };
                if first != w.blocker && value_under(&self.assigns, first).is_true() {
                    ws[j] = new_watcher;
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..lits.len() {
                    let lk = Lit(lits[k]);
                    if !value_under(&self.assigns, lk).is_false() {
                        lits.swap(1, k);
                        self.watches[(!lk).index()].push(new_watcher);
                        continue 'watchers;
                    }
                }
                // No new watch: clause is unit or conflicting.
                ws[j] = new_watcher;
                j += 1;
                if self.lit_value(first).is_false() {
                    // Conflict: copy the remaining watchers back and stop.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(cref);
                } else {
                    self.unchecked_enqueue(first, Some(cref));
                }
            }
            ws.truncate(j);
            debug_assert!(self.watches[p.index()].is_empty());
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    // -------------------------------------------------------------- analysis

    /// First-UIP conflict analysis. Returns (learnt clause with the
    /// asserting literal first, backtrack level, LBD).
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 = asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = confl;

        loop {
            self.bump_clause(confl);
            // Literal 0 of a reason clause is the literal it implied.
            let skip = usize::from(p.is_some());
            for k in skip..self.db.lits(confl).len() {
                let q = self.db.lit(confl, k);
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to resolve on.
            loop {
                index -= 1;
                let l = self.trail[index];
                if self.seen[l.var().index()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found").var();
            self.seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !p.expect("found");
                break;
            }
            confl = self.reason[pv.index()].expect("non-decision has a reason");
        }

        // Basic (one-step self-subsumption) minimization.
        let kept: Vec<Lit> = learnt[1..]
            .iter()
            .copied()
            .filter(|&l| !self.lit_redundant(l))
            .collect();
        let mut minimized = Vec::with_capacity(kept.len() + 1);
        minimized.push(learnt[0]);
        minimized.extend(kept);

        // Compute backtrack level: max level among non-asserting literals,
        // and move that literal to slot 1 (it becomes the second watch).
        let bt_level = if minimized.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var().index()]
                    > self.level[minimized[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            self.level[minimized[1].var().index()]
        };

        // LBD = number of distinct decision levels in the clause.
        let mut levels: Vec<u32> = minimized
            .iter()
            .map(|l| self.level[l.var().index()])
            .collect();
        levels.sort_unstable();
        levels.dedup();
        let lbd = levels.len() as u32;

        // Clear `seen` for the literals we kept (dropped ones cleared here too).
        for l in &learnt {
            self.seen[l.var().index()] = false;
        }

        (minimized, bt_level, lbd)
    }

    /// Final-conflict analysis (MiniSat's `analyzeFinal`): called when
    /// installing assumption `p` finds it already falsified. Walks the
    /// implication graph backwards from `¬p` through the trail and
    /// collects the assumption literals (the decisions above level 0 —
    /// during installation every decision *is* an assumption) that the
    /// falsification depends on. Returns them as passed by the caller,
    /// `p` included, so the result is a subset of the assumption vector.
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        let mut core = vec![p];
        if self.decision_level() == 0 {
            // `¬p` is implied by the clause set alone.
            return core;
        }
        self.seen[p.var().index()] = true;
        let start = self.trail_lim[0];
        for i in (start..self.trail.len()).rev() {
            let x = self.trail[i];
            let v = x.var();
            if !self.seen[v.index()] {
                continue;
            }
            match self.reason[v.index()] {
                // A decision: an installed assumption the chain rests on.
                None => core.push(x),
                Some(cref) => {
                    for &w in self.db.lits(cref) {
                        let q = Lit(w);
                        if q.var() != v && self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v.index()] = false;
        }
        // `¬p` may itself be a level-0 implication (below the walk).
        self.seen[p.var().index()] = false;
        core
    }

    /// The assumption subset the most recent [`Solver::solve_with`]
    /// call's [`SolveResult::Unsat`] answer depends on, as a subset of
    /// the literals that were passed (an empty slice when the formula is
    /// unsatisfiable without any assumptions). `None` if the most recent
    /// solve did not return Unsat.
    ///
    /// Re-solving with only the core literals as assumptions is
    /// guaranteed to reproduce the Unsat answer. The core is *not*
    /// guaranteed minimal; see [`Solver::minimize_core`].
    ///
    /// # Examples
    ///
    /// ```
    /// use cf_sat::{Solver, SolveResult};
    /// let mut s = Solver::new();
    /// let a = s.new_var().positive();
    /// let b = s.new_var().positive();
    /// let c = s.new_var().positive();
    /// s.add_clause([!a, !b]);
    /// assert_eq!(s.solve_with(&[a, c, b]), SolveResult::Unsat);
    /// let core = s.unsat_core().expect("unsat has a core").to_vec();
    /// assert!(core.contains(&a) && core.contains(&b) && !core.contains(&c));
    /// assert_eq!(s.solve_with(&core), SolveResult::Unsat);
    /// ```
    pub fn unsat_core(&self) -> Option<&[Lit]> {
        self.last_core.as_deref()
    }

    /// Greedy deletion minimization of the last unsat core: repeatedly
    /// re-solves with one element dropped, keeping the drop whenever the
    /// query stays unsatisfiable (and shrinking to the probe's own core),
    /// until a full pass deletes nothing — the result is then *locally
    /// minimal* (dropping any element loses unsatisfiability).
    ///
    /// The pass runs under its own deterministic tick budget, separate
    /// from (and without touching) the solver's configured budgets and
    /// deadline, so minimization can never blow a query's resource
    /// governance: on exhaustion it stops early and returns the current
    /// — possibly only partially minimized — core. `None` for the
    /// budget means minimize without limit.
    ///
    /// Returns `(core, complete)` where `complete` reports whether the
    /// pass reached local minimality; [`Solver::unsat_core`] is updated
    /// to the returned core. Returns `None` when there is no core (the
    /// most recent solve was not Unsat).
    pub fn minimize_core(&mut self, ticks: Option<u64>) -> Option<(Vec<Lit>, bool)> {
        let mut core = self.last_core.clone()?;
        let saved_ticks = self.tick_budget;
        let saved_deadline = self.deadline;
        self.deadline = None;
        let mut remaining = ticks;
        let mut complete = true;
        'passes: loop {
            let mut deleted = false;
            let mut i = 0;
            while i < core.len() {
                if remaining == Some(0) {
                    complete = false;
                    break 'passes;
                }
                let mut probe = core.clone();
                probe.remove(i);
                self.tick_budget = remaining;
                let t0 = self.ticks();
                let r = self.solve_with(&probe);
                if let Some(rem) = &mut remaining {
                    *rem = rem.saturating_sub(self.ticks() - t0);
                }
                match r {
                    SolveResult::Unsat => {
                        // The element is redundant; adopt the probe's own
                        // core, which may be smaller still.
                        core = self.last_core.clone().unwrap_or(probe);
                        deleted = true;
                    }
                    SolveResult::Sat => i += 1,
                    SolveResult::Unknown => {
                        complete = false;
                        break 'passes;
                    }
                }
            }
            if !deleted {
                break;
            }
        }
        self.tick_budget = saved_ticks;
        self.deadline = saved_deadline;
        // The probes are internal: the last *query* answer was Unsat, so
        // the exposed state must read as such again.
        self.stop_cause = None;
        self.last_core = Some(core.clone());
        Some((core, complete))
    }

    /// One-step redundancy: `l` is redundant if it was implied by a clause
    /// whose other literals are all already in the learnt clause (seen) or
    /// fixed at level 0.
    fn lit_redundant(&self, l: Lit) -> bool {
        let v = l.var();
        match self.reason[v.index()] {
            None => false,
            Some(r) => self.db.lits(r).iter().all(|&w| {
                let q = Lit(w);
                q.var() == v || self.seen[q.var().index()] || self.level[q.var().index()] == 0
            }),
        }
    }

    fn record_learnt(&mut self, learnt: Vec<Lit>, lbd: u32) {
        self.stats.learnt_literals += learnt.len() as u64;
        if learnt.len() == 1 {
            self.unchecked_enqueue(learnt[0], None);
        } else {
            let first = learnt[0];
            let cref = self.db.alloc(&learnt, true, lbd);
            self.bump_clause(cref);
            self.attach(cref);
            self.unchecked_enqueue(first, Some(cref));
        }
    }

    // ------------------------------------------------------------ activities

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        if !self.db.is_learnt(cref) {
            return;
        }
        let activity = self.db.activity(cref) + self.cla_inc;
        self.db.set_activity(cref, activity);
        if activity > RESCALE_LIMIT {
            self.cla_inc *= 1e-100;
            self.db.scale_activities(1e-100);
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
        self.cla_inc /= CLA_DECAY;
    }

    // -------------------------------------------------------------- reduceDB

    /// Removes roughly half of the learnt clauses, preferring high-LBD,
    /// low-activity ones (a stable sort, so ties keep arena order).
    /// Binary and LBD ≤ 2 clauses and clauses that are the reason of a
    /// current assignment are kept. Compacts the arena once deleted
    /// clauses hold more than a fifth of it.
    fn reduce_db(&mut self) {
        self.stats.reductions += 1;
        let mut learnts: Vec<ClauseRef> = self.db.learnts().to_vec();
        learnts.sort_by(|&a, &b| {
            let db = &self.db;
            db.lbd(b).cmp(&db.lbd(a)).then(
                db.activity(a)
                    .partial_cmp(&db.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let target = learnts.len() / 2;
        let mut removed = 0;
        for cref in learnts {
            if removed >= target {
                break;
            }
            if self.db.lits(cref).len() <= 2 || self.db.lbd(cref) <= 2 || self.is_locked(cref) {
                continue;
            }
            self.detach(cref);
            self.db.free(cref);
            removed += 1;
        }
        self.db.purge_learnts();
        self.max_learnts *= 1.3;
        if self.db.needs_compaction() {
            // No reason or watcher names a deleted clause: locked clauses
            // were kept and deleted ones detached above.
            let reloc = self.db.compact();
            for w in self.watches.iter_mut().flatten() {
                w.cref = reloc.apply(w.cref);
            }
            for r in self.reason.iter_mut().flatten() {
                *r = reloc.apply(*r);
            }
        }
    }

    fn is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.db.lit(cref, 0);
        self.reason[first.var().index()] == Some(cref) && self.lit_value(first).is_true()
    }
}

/// The value of literal `l` under `assigns` (a free function, so that
/// propagation can read it while it holds the clause arena mutably).
#[inline]
fn value_under(assigns: &[LBool], l: Lit) -> LBool {
    assigns[l.var().index()].xor_sign(l.sign())
}

/// The Luby restart sequence (1,1,2,1,1,2,4,...) scaled by `y`.
fn luby(y: f64, mut x: u32) -> f64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < (x as u64) + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x as u64 {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size as u32;
    }
    y.powi(seq as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &mut Solver, n: i64) -> Lit {
        while s.num_vars() < n.unsigned_abs() as usize {
            s.new_var();
        }
        Lit::from_dimacs(n)
    }

    fn clause(s: &mut Solver, ns: &[i64]) -> bool {
        let lits: Vec<Lit> = ns.iter().map(|&n| lit(s, n)).collect();
        s.add_clause(lits)
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        clause(&mut s, &[1, 2]);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        clause(&mut s, &[1]);
        assert!(!clause(&mut s, &[-1]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn tautology_is_ignored() {
        let mut s = Solver::new();
        clause(&mut s, &[1, -1]);
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn solve_stats_leave_out_propagation_between_solve_calls() {
        let mut s = Solver::new();
        clause(&mut s, &[-1, 2]);
        clause(&mut s, &[-2, 3]);
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Stats::default()));
        let sink = seen.clone();
        s.set_solve_hook(Some(SolveHook::new(move |ev| {
            sink.lock().expect("hook lock").add(&ev.delta);
        })));
        let a = lit(&mut s, 1);
        assert_eq!(s.solve_with(&[a]), SolveResult::Sat);
        // A unit clause propagates 1 → 2 → 3 at level 0, outside any
        // solve call.
        let before = *s.stats();
        clause(&mut s, &[1]);
        assert_eq!(s.stats().propagations, before.propagations + 3);
        assert_eq!(s.solve(), SolveResult::Sat);
        let solved = *s.solve_stats();
        assert_eq!(
            solved,
            *seen.lock().expect("hook lock"),
            "sum of the deltas"
        );
        assert_eq!(solved.solves, 2);
        assert_eq!(s.stats().propagations, solved.propagations + 3);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        clause(&mut s, &[1]);
        clause(&mut s, &[-1, 2]);
        clause(&mut s, &[-2, 3]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Var::from_index(2)), Some(true));
    }

    #[test]
    fn pigeonhole_2_into_1_unsat() {
        // Two pigeons, one hole.
        let mut s = Solver::new();
        clause(&mut s, &[1]); // pigeon 1 in hole 1
        clause(&mut s, &[2]); // pigeon 2 in hole 1
        clause(&mut s, &[-1, -2]); // not both
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_4_into_3_unsat() {
        // PHP(4,3): pigeons p in 1..=4, holes h in 1..=3,
        // var(p,h) = (p-1)*3 + h.
        let mut s = Solver::new();
        let v = |p: i64, h: i64| (p - 1) * 3 + h;
        for p in 1..=4 {
            clause(&mut s, &[v(p, 1), v(p, 2), v(p, 3)]);
        }
        for h in 1..=3 {
            for p1 in 1..=4 {
                for p2 in (p1 + 1)..=4 {
                    clause(&mut s, &[-v(p1, h), -v(p2, h)]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn incremental_blocking() {
        // Enumerate all 4 models of a 2-variable free formula by blocking.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.positive(), a.negative()]); // tautology: ignored
        let mut count = 0;
        loop {
            match s.solve() {
                SolveResult::Sat => {
                    count += 1;
                    let block = [
                        a.lit(!s.value(a).unwrap_or(false)),
                        b.lit(!s.value(b).unwrap_or(false)),
                    ];
                    s.add_clause(block);
                }
                SolveResult::Unsat => break,
                SolveResult::Unknown => panic!("no budget set"),
            }
            assert!(count <= 4);
        }
        assert_eq!(count, 4);
    }

    #[test]
    fn assumptions() {
        let mut s = Solver::new();
        clause(&mut s, &[1, 2]);
        let l1 = Lit::from_dimacs(1);
        let l2 = Lit::from_dimacs(2);
        assert_eq!(s.solve_with(&[!l1]), SolveResult::Sat);
        assert_eq!(s.value(l2.var()), Some(true));
        assert_eq!(s.solve_with(&[!l1, !l2]), SolveResult::Unsat);
        // Assumptions do not persist.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn conflicting_assumptions() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        s.add_clause([a]);
        assert_eq!(s.solve_with(&[!a]), SolveResult::Unsat);
        assert_eq!(s.solve_with(&[a]), SolveResult::Sat);
    }

    /// PHP(5,4): small but guaranteed to take real search effort.
    fn pigeonhole_5_into_4(s: &mut Solver) {
        let v = |p: i64, h: i64| (p - 1) * 4 + h;
        for p in 1..=5 {
            clause(s, &[v(p, 1), v(p, 2), v(p, 3), v(p, 4)]);
        }
        for h in 1..=4 {
            for p1 in 1..=5 {
                for p2 in (p1 + 1)..=5 {
                    clause(s, &[-v(p1, h), -v(p2, h)]);
                }
            }
        }
    }

    #[test]
    fn tick_budget_exhaustion_reports_its_cause() {
        let mut s = Solver::new();
        pigeonhole_5_into_4(&mut s);
        s.set_tick_budget(Some(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stop_cause(), Some(StopCause::TickBudget));
        s.set_tick_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.stop_cause(), None);
    }

    #[test]
    fn tick_budget_is_deterministic_across_runs() {
        // The same formula under the same budget stops at the same tick
        // count — the property that makes budgets reproducible across
        // machines.
        let run = || {
            let mut s = Solver::new();
            pigeonhole_5_into_4(&mut s);
            s.set_tick_budget(Some(50));
            let r = s.solve();
            (r, s.ticks(), s.stats().decisions)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.0, SolveResult::Unknown);
    }

    #[test]
    fn zero_tick_budget_stops_before_the_first_decision() {
        let mut s = Solver::new();
        clause(&mut s, &[1, 2]);
        s.set_tick_budget(Some(0));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stop_cause(), Some(StopCause::TickBudget));
    }

    #[test]
    fn expired_deadline_returns_unknown_immediately() {
        let mut s = Solver::new();
        pigeonhole_5_into_4(&mut s);
        s.set_deadline(Some(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        ));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stop_cause(), Some(StopCause::Deadline));
        s.set_deadline(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unsat_core_is_a_reproducing_subset() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let c = s.new_var().positive();
        let d = s.new_var().positive();
        s.add_clause([!a, !b]);
        assert_eq!(s.solve_with(&[a, c, d, b]), SolveResult::Unsat);
        let core = s.unsat_core().expect("unsat has a core").to_vec();
        assert!(core.contains(&a), "a is load-bearing");
        assert!(core.contains(&b), "b is load-bearing");
        assert!(!core.contains(&c), "c is irrelevant");
        assert!(!core.contains(&d), "d is irrelevant");
        // Soundness: the core alone reproduces the answer.
        assert_eq!(s.solve_with(&core), SolveResult::Unsat);
        // A Sat answer clears the core.
        assert_eq!(s.solve_with(&[a]), SolveResult::Sat);
        assert!(s.unsat_core().is_none());
    }

    #[test]
    fn core_of_directly_contradictory_assumptions() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let _ = b;
        assert_eq!(s.solve_with(&[b, a, !a]), SolveResult::Unsat);
        let core = s.unsat_core().expect("core").to_vec();
        assert!(core.contains(&a) && core.contains(&!a));
        assert!(!core.contains(&b));
        assert_eq!(s.solve_with(&core), SolveResult::Unsat);
    }

    #[test]
    fn core_of_a_level_zero_falsified_assumption_is_that_assumption() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause([!a]);
        assert_eq!(s.solve_with(&[b, a]), SolveResult::Unsat);
        assert_eq!(s.unsat_core(), Some(&[a][..]));
    }

    #[test]
    fn globally_unsat_formula_has_an_empty_core() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        clause(&mut s, &[3]);
        clause(&mut s, &[-3]);
        assert_eq!(s.solve_with(&[a, b]), SolveResult::Unsat);
        assert_eq!(s.unsat_core(), Some(&[][..]));
        // And so does a search-discovered global conflict.
        let mut s = Solver::new();
        pigeonhole_5_into_4(&mut s);
        let a = s.new_var().positive();
        assert_eq!(s.solve_with(&[a]), SolveResult::Unsat);
        assert_eq!(s.unsat_core(), Some(&[][..]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn minimize_core_reaches_the_unique_minimal_core() {
        // y can be forced by c two ways: through x (which needs a) or
        // directly. If propagation happens to route through x, the
        // final-conflict core over-approximates with a; minimization
        // must land on the unique minimal core {b, c} either way.
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let c = s.new_var().positive();
        let x = s.new_var().positive();
        let y = s.new_var().positive();
        s.add_clause([!a, x]);
        s.add_clause([!x, !c, y]);
        s.add_clause([!c, y]);
        s.add_clause([!b, !y]);
        assert_eq!(s.solve_with(&[a, c, b]), SolveResult::Unsat);
        let raw = s.unsat_core().expect("core").to_vec();
        let (min, complete) = s.minimize_core(None).expect("core to minimize");
        assert!(complete, "unbudgeted minimization completes");
        assert!(min.len() <= raw.len());
        let mut sorted = min.clone();
        sorted.sort_unstable();
        let mut want = vec![b, c];
        want.sort_unstable();
        assert_eq!(sorted, want, "unique minimal core");
        assert_eq!(s.unsat_core(), Some(&min[..]));
        assert_eq!(s.solve_with(&min), SolveResult::Unsat);
        // Local minimality: dropping any element loses the answer.
        let core = s.unsat_core().expect("core").to_vec();
        for i in 0..core.len() {
            let mut probe = core.clone();
            probe.remove(i);
            assert_eq!(s.solve_with(&probe), SolveResult::Sat);
        }
    }

    #[test]
    fn budget_starved_minimization_degrades_to_the_unminimized_core() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let c = s.new_var().positive();
        s.add_clause([!a, !b]);
        assert_eq!(s.solve_with(&[a, c, b]), SolveResult::Unsat);
        let raw = s.unsat_core().expect("core").to_vec();
        let (min, complete) = s.minimize_core(Some(0)).expect("core present");
        assert!(!complete, "a zero budget cannot finish");
        assert_eq!(min, raw, "degrades to the unminimized core");
        // The solver's own governance is untouched by the pass.
        assert_eq!(s.stop_cause(), None);
        assert_eq!(s.solve_with(&min), SolveResult::Unsat);
    }

    #[test]
    fn minimization_budgets_are_restored_afterwards() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause([!a, !b]);
        s.set_tick_budget(Some(10_000));
        assert_eq!(s.solve_with(&[a, b]), SolveResult::Unsat);
        let _ = s.minimize_core(Some(1_000));
        assert_eq!(s.tick_budget, Some(10_000));
    }

    #[test]
    fn dead_words_stay_below_the_compaction_threshold() {
        // Seeded random 3-SAT near the threshold reduces the learnt
        // database several times. Solving in 10,000-tick slices (at most
        // 200 conflicts here; each solve resets the limit to 4000 learnt
        // clauses, so a slice holds at most one reduction) inspects the
        // arena after every one.
        let mut rng = crate::xorshift::Rng::new(4);
        let mut s = Solver::new();
        for _ in 0..220 {
            s.new_var();
        }
        for _ in 0..937 {
            let c: Vec<Lit> = (0..3)
                .map(|_| Var::from_index(rng.below(220) as usize).lit(rng.bool()))
                .collect();
            s.add_clause(c);
        }
        s.set_tick_budget(Some(10_000));
        let (mut reductions, mut compactions, mut words) = (0, 0, s.db.words());
        let result = loop {
            let r = s.solve();
            assert!(
                s.stats().reductions <= reductions + 1,
                "one reduction per slice"
            );
            assert!(
                !s.db.needs_compaction(),
                "dead words above a fifth of the arena"
            );
            reductions = s.stats().reductions;
            compactions += usize::from(s.db.words() < words);
            words = s.db.words();
            if r != SolveResult::Unknown {
                break r;
            }
        };
        assert_eq!(result, SolveResult::Unsat);
        assert!(reductions >= 3, "{reductions} reductions");
        assert!(compactions >= 3, "{compactions} compactions");
    }

    #[test]
    fn luby_sequence() {
        let seq: Vec<f64> = (0..7).map(|i| luby(2.0, i)).collect();
        assert_eq!(seq, vec![1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0]);
    }
}
