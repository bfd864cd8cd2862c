//! Pins the solver's search step for step on seeded inputs large enough
//! to reach learnt-clause database reduction.
//!
//! The expected counters were recorded once and must not move: a change
//! to clause storage, watch-list handling or reduction order that keeps
//! every answer but alters the search shows up here as a different
//! conflict, decision or propagation count, or as a different model or
//! core. The property suite (`prop_solver.rs`) stops at 16 variables and
//! never reaches `reduce_db`; every input here reduces the database.

use cf_sat::dimacs::Cnf;
use cf_sat::xorshift::Rng;
use cf_sat::{Lit, SolveResult, Solver, Stats, Var};

/// Random 3-literal clauses over `vars` variables (a variable may repeat
/// within a clause, as in the plain fixed-length model).
fn random_3sat(rng: &mut Rng, vars: usize, clauses: usize) -> Vec<Vec<Lit>> {
    (0..clauses)
        .map(|_| {
            (0..3)
                .map(|_| {
                    let v = Var::from_index(rng.below(vars as u64) as usize);
                    Lit::new(v, rng.bool())
                })
                .collect()
        })
        .collect()
}

/// FNV-1a over a stream of words: a compact fingerprint of models and
/// cores, so a different witness fails the pin even at equal counters.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn model(&mut self, s: &Solver) {
        for i in 0..s.num_vars() {
            self.word(match s.value(Var::from_index(i)) {
                None => 2,
                Some(b) => u64::from(b),
            });
        }
    }

    fn lits(&mut self, lits: &[Lit]) {
        self.word(lits.len() as u64);
        for l in lits {
            self.word(l.index() as u64);
        }
    }
}

/// The counters in `Stats` display order: solves, conflicts, decisions,
/// propagations, restarts, reductions; then learnt and assumed literals.
#[allow(clippy::too_many_arguments)]
fn stats(
    solves: u64,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    restarts: u64,
    reductions: u64,
    learnt_literals: u64,
    assumed_literals: u64,
) -> Stats {
    Stats {
        conflicts,
        decisions,
        propagations,
        learnt_literals,
        reductions,
        solves,
        restarts,
        assumed_literals,
    }
}

/// One cold solve of seeded random 3-SAT near the phase transition
/// (220 variables, 937 clauses): the result, a model fingerprint (the
/// FNV offset basis for Unsat) and the solver's counters.
fn cold_solve(seed: u64) -> (SolveResult, u64, Stats) {
    let mut rng = Rng::new(seed);
    let cnf = Cnf {
        num_vars: 220,
        clauses: random_3sat(&mut rng, 220, 937),
    };
    let mut s = cnf.to_solver();
    let r = s.solve();
    let mut h = Fnv::new();
    if r == SolveResult::Sat {
        h.model(&s);
        let model: Vec<bool> = (0..cnf.num_vars)
            .map(|i| s.value(Var::from_index(i)).unwrap_or(false))
            .collect();
        assert!(cnf.eval(&model), "seed {seed}: the model does not satisfy");
    }
    (r, h.0, *s.stats())
}

#[test]
fn cold_solves_keep_their_search() {
    let expected = [
        (
            SolveResult::Unsat,
            Fnv::new().0,
            stats(1, 8210, 10009, 437_723, 32, 2, 98_938, 0),
        ),
        (
            SolveResult::Sat,
            0x96f6_3e5d_94d5_a104,
            stats(1, 5169, 6434, 280_776, 27, 1, 70_888, 0),
        ),
        (
            SolveResult::Sat,
            0xe843_aa00_5b7c_6a24,
            stats(1, 8492, 10240, 460_915, 34, 2, 100_360, 0),
        ),
    ];
    for (seed, want) in (1..).zip(expected) {
        assert_eq!(cold_solve(seed), want, "seed {seed}");
    }
}

/// Solves under assumptions with clauses added between solves, and
/// minimizes every unsat core: 91 solves and 16 reductions in all.
#[test]
fn incremental_script_keeps_its_search() {
    let mut rng = Rng::new(0x5eed);
    let mut s = Solver::new();
    for _ in 0..180 {
        s.new_var();
    }
    for c in random_3sat(&mut rng, 180, 640) {
        s.add_clause(c);
    }
    let mut transcript = String::new();
    let mut h = Fnv::new();
    for _ in 0..24 {
        let mut assumptions: Vec<Lit> = Vec::new();
        while assumptions.len() < 6 {
            let v = Var::from_index(rng.below(180) as usize);
            if assumptions.iter().all(|l| l.var() != v) {
                assumptions.push(Lit::new(v, rng.bool()));
            }
        }
        match s.solve_with(&assumptions) {
            SolveResult::Sat => {
                transcript.push('S');
                h.model(&s);
            }
            SolveResult::Unsat => {
                let core = s.unsat_core().expect("unsat has a core").to_vec();
                let (min, complete) = s.minimize_core(None).expect("core to minimize");
                assert!(complete, "unbudgeted minimization completes");
                transcript.push_str(&format!("U{}/{}", core.len(), min.len()));
                h.lits(&core);
                h.lits(&min);
            }
            SolveResult::Unknown => panic!("no budget was set"),
        }
        for c in random_3sat(&mut rng, 180, 4) {
            s.add_clause(c);
        }
    }
    assert_eq!(transcript, "SSSSSSSSSSSSSSSU6/3U6/3U6/3SSU6/2U6/2U6/4U6/1");
    assert_eq!(h.0, 0x0afe_2628_73bd_36e9);
    assert_eq!(
        *s.stats(),
        stats(91, 34_196, 43_484, 1_657_907, 219, 16, 395_376, 335)
    );
}
