//! Randomized tests: the CDCL solver agrees with brute-force enumeration
//! on random small formulas, and models it returns actually satisfy the
//! input. A deterministic xorshift generator replaces an external
//! property-testing dependency so the suite is reproducible offline.

use cf_sat::dimacs::Cnf;
use cf_sat::xorshift::Rng;
use cf_sat::{Lit, SolveResult, Var};

/// Brute-force satisfiability over `n` variables.
fn brute_force_sat(cnf: &Cnf) -> bool {
    let n = cnf.num_vars;
    assert!(n <= 16, "brute force limited to 16 vars");
    (0u32..(1 << n)).any(|bits| {
        let assignment: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        cnf.eval(&assignment)
    })
}

fn random_cnf(rng: &mut Rng, max_vars: usize, max_clauses: usize) -> Cnf {
    let num_clauses = rng.below(max_clauses as u64 + 1) as usize;
    let clauses: Vec<Vec<Lit>> = (0..num_clauses)
        .map(|_| {
            let len = 1 + rng.below(4) as usize;
            (0..len)
                .map(|_| {
                    let v = rng.below(max_vars as u64) as usize;
                    Lit::new(Var::from_index(v), rng.bool())
                })
                .collect()
        })
        .collect();
    Cnf {
        num_vars: max_vars,
        clauses,
    }
}

#[test]
fn solver_matches_brute_force() {
    // (seed, variables, maximum clauses, formulas)
    for (seed, vars, clauses, formulas) in [(0xcf01, 8, 24, 300), (0xcf04, 7, 20, 48)] {
        let mut rng = Rng::new(seed);
        for _ in 0..formulas {
            let cnf = random_cnf(&mut rng, vars, clauses);
            let mut s = cnf.to_solver();
            let expected = brute_force_sat(&cnf);
            match s.solve() {
                SolveResult::Sat => {
                    assert!(expected, "solver said SAT but formula is UNSAT: {cnf:?}");
                    // The model must satisfy the formula (unassigned vars are free).
                    let model: Vec<bool> = (0..cnf.num_vars)
                        .map(|i| s.value(Var::from_index(i)).unwrap_or(false))
                        .collect();
                    assert!(cnf.eval(&model), "returned model does not satisfy {cnf:?}");
                }
                SolveResult::Unsat => {
                    assert!(!expected, "solver said UNSAT but formula is SAT: {cnf:?}");
                }
                SolveResult::Unknown => panic!("no budget was set"),
            }
        }
    }
}

#[test]
fn model_enumeration_is_complete() {
    let mut rng = Rng::new(0xcf02);
    for _ in 0..150 {
        // Count models by blocking; must equal brute-force count.
        let cnf = random_cnf(&mut rng, 5, 12);
        let n = cnf.num_vars;
        let expected = (0u32..(1 << n))
            .filter(|bits| {
                let a: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                cnf.eval(&a)
            })
            .count();

        let mut s = cnf.to_solver();
        let mut found = 0usize;
        while s.solve() == SolveResult::Sat {
            found += 1;
            assert!(
                found <= expected,
                "enumerated more models than exist: {cnf:?}"
            );
            let block: Vec<Lit> = (0..n)
                .map(|i| {
                    let v = Var::from_index(i);
                    v.lit(!s.value(v).unwrap_or(false))
                })
                .collect();
            s.add_clause(block);
        }
        assert_eq!(found, expected, "{cnf:?}");
    }
}

#[test]
fn assumptions_are_sound() {
    let mut rng = Rng::new(0xcf03);
    for _ in 0..200 {
        // Solving with assumptions == solving the formula with those units added.
        let cnf = random_cnf(&mut rng, 6, 16);
        let pattern = rng.below(64) as u32;
        let mask = rng.below(64) as u32;
        let assumptions: Vec<Lit> = (0..6)
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| Lit::new(Var::from_index(i), pattern >> i & 1 == 1))
            .collect();
        let mut s = cnf.to_solver();
        let with_assumptions = s.solve_with(&assumptions);

        let mut strengthened = cnf.clone();
        for &l in &assumptions {
            strengthened.clauses.push(vec![l]);
        }
        let expected = brute_force_sat(&strengthened);
        match with_assumptions {
            SolveResult::Sat => assert!(expected, "{cnf:?} under {assumptions:?}"),
            SolveResult::Unsat => assert!(!expected, "{cnf:?} under {assumptions:?}"),
            SolveResult::Unknown => panic!("no budget was set"),
        }
        // And the solver is reusable afterwards without the assumptions.
        let plain = s.solve();
        assert_eq!(plain == SolveResult::Sat, brute_force_sat(&cnf), "{cnf:?}");
    }
}
