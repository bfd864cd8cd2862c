//! Structural equivalence of the two ways a program variant is built:
//! every concrete variant (a mutant, a candidate-fence build) equals its
//! toggled program with the toggles resolved. The resolver below is
//! local to this test, so it checks the rewriters without sharing their
//! code. The SAT equivalence suites compare verdicts only on litmus
//! shapes and seeded samples; this covers every mutation point and
//! several candidate subsets of every bundled build, in milliseconds.

use cf_algos::{ablation, lamport, treiber, Algo, Variant};
use cf_lsl::{Program, Stmt};
use cf_sat::xorshift::Rng;
use checkfence::infer::{apply_candidates, apply_candidates_gated, candidate_sites, InferConfig};
use checkfence::mutate::{MutationConfig, MutationPlan};
use checkfence::Harness;

/// Replaces each toggle by its mutant branch when its site is active,
/// else by its original branch, inside blocks, atomic bodies and the
/// chosen branches too.
fn resolve(stmts: &[Stmt], active: &dyn Fn(u32) -> bool) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::Toggle { site, orig, mutant } => {
                out.extend(resolve(if active(*site) { mutant } else { orig }, active));
            }
            Stmt::Block {
                tag,
                is_loop,
                spin,
                body,
            } => out.push(Stmt::Block {
                tag: *tag,
                is_loop: *is_loop,
                spin: *spin,
                body: resolve(body, active),
            }),
            Stmt::Atomic(body) => out.push(Stmt::Atomic(resolve(body, active))),
            other => out.push(other.clone()),
        }
    }
    out
}

fn resolved(program: &Program, active: impl Fn(u32) -> bool) -> Program {
    let mut program = program.clone();
    for proc in &mut program.procedures {
        proc.body = resolve(&proc.body, &active);
    }
    program
}

/// The bundled builds, each with the mutation scope it is planned over.
fn builds() -> Vec<(Harness, MutationConfig)> {
    let mut out = Vec::new();
    for v in [Variant::Fenced, Variant::Unfenced] {
        out.push(treiber::harness(v));
        out.push(lamport::harness(v));
        out.extend(Algo::all().map(|a| a.harness(v)));
    }
    let mut out: Vec<_> = out
        .into_iter()
        .map(|h| (h, MutationConfig::default()))
        .collect();
    for name in ablation::subjects() {
        let s = ablation::subject(name).expect("known subject");
        out.push((s.harness, s.mutation));
    }
    out
}

#[test]
fn every_mutant_is_its_instrumented_program_with_one_toggle_active() {
    let mut points = 0;
    for (h, config) in builds() {
        let plan = MutationPlan::build(&h.program, &config);
        assert!(
            resolved(&plan.instrumented, |_| false) == plan.original,
            "{}: toggles off must give the original",
            h.name
        );
        for p in &plan.points {
            assert!(
                plan.mutant(p.id) == resolved(&plan.instrumented, |s| s == p.id),
                "{}: mutant {} ({}) differs from its resolved toggle",
                h.name,
                p.id,
                p.description
            );
        }
        points += plan.points.len();
    }
    assert!(points > 300, "only {points} mutation points planned");
}

#[test]
fn every_candidate_build_is_the_gated_build_with_its_sites_active() {
    let mut rng = Rng::new(0x5eed);
    for (h, _) in builds() {
        let p = &h.program;
        let all = candidate_sites(p, &InferConfig::default());
        let gated = apply_candidates_gated(p, &all);
        let random: Vec<bool> = all.iter().map(|_| rng.below(2) == 0).collect();
        let subsets: [&dyn Fn(usize) -> bool; 4] =
            [&|_| false, &|_| true, &|i| i % 3 == 1, &|i| random[i]];
        for (k, chosen) in subsets.iter().enumerate() {
            let sites: Vec<_> = (0..all.len())
                .filter(|&i| chosen(i))
                .map(|i| all[i].clone())
                .collect();
            assert!(
                apply_candidates(p, &sites) == resolved(&gated, |s| chosen(s as usize)),
                "{}: candidate subset {k} differs from the resolved gated build",
                h.name
            );
        }
    }
}
