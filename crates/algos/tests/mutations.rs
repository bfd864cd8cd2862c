//! Failure injection: deliberately broken builds that the checker must
//! reject. This guards the *detector*, not the algorithms — a checker
//! that silently passes corrupted implementations would make every
//! green test in this repository meaningless.
//!
//! Three families:
//!
//! 1. **fence deletions** (the paper's §4.2 necessity criterion): every
//!    fence of the msn Fig. 9 placement is load-bearing;
//! 2. **logic mutations**: wrong-node reads, lost CAS updates, lock
//!    confusion — algorithmic bugs that must already fail under SC;
//! 3. **specification corruption**: removing a vector from a mined
//!    observation set must turn a passing check into a failing one.

use cf_algos::{ms2, msn, refmodel, snark, tests, treiber, Shape, Variant};
use cf_memmodel::Mode;
use checkfence::{mine_reference, CheckError, Harness, Query};

/// `true` if the build fails the inclusion check against the *reference
/// model's* observation set. Logic mutations that stay deterministic
/// can be invisible to self-mined specifications (the implementation
/// "specifies itself", §2.2); the reference spec catches them.
fn rejected_vs_reference(h: &Harness, shape: Shape, test_name: &str, mode: Mode) -> bool {
    let t = tests::by_name(test_name).expect("catalog test");
    let spec = refmodel::mine(shape, &t);
    match Query::check_inclusion(h, &t, spec).on(mode).run() {
        Ok(v) => !v.passed(),
        Err(CheckError::BoundsDiverged { .. }) => true,
        Err(e) => panic!("checking infrastructure error: {e}"),
    }
}

/// `true` if the checker rejects the build: a counterexample, a serial
/// bug found during mining, or diverging retry bounds (the livelock
/// symptom of a missing load-load fence).
fn rejected(h: &Harness, test_name: &str, mode: Mode) -> bool {
    let t = tests::by_name(test_name).expect("catalog test");
    let spec = match mine_reference(h, &t) {
        Ok(m) => m.spec,
        Err(CheckError::SerialBug(_)) => return true,
        Err(e) => panic!("mining infrastructure error: {e}"),
    };
    match Query::check_inclusion(h, &t, spec).on(mode).run() {
        Ok(v) => !v.passed(),
        Err(CheckError::BoundsDiverged { .. }) => true,
        Err(e) => panic!("checking infrastructure error: {e}"),
    }
}

fn mutate(base: &Harness, name: &str, source: &str, from: &str, to: &str) -> Harness {
    assert!(
        source.contains(from),
        "mutation anchor `{from}` not found in {name}'s source"
    );
    let mutated = source.replace(from, to);
    let program = cf_minic::compile(&mutated)
        .unwrap_or_else(|e| panic!("mutated {name} must still compile: {e}"));
    Harness {
        name: name.into(),
        program,
        init_proc: base.init_proc.clone(),
        ops: base.ops.clone(),
    }
}

// ------------------------------------------------------ fence deletions

#[test]
fn every_msn_fence_is_necessary() {
    // §4.2: the Fig. 9 placement is necessary — deleting any single
    // fence makes T0 or Ti2 fail on Relaxed.
    let fenced = msn::harness(Variant::Fenced);
    let sites = fenced.program.fence_sites();
    assert_eq!(sites.len(), 7, "Fig. 9 places seven fences");
    for site in &sites {
        let program = fenced.program.without_fences(|s| s == site);
        let h = Harness {
            name: format!("msn-minus-{site}"),
            program,
            init_proc: fenced.init_proc.clone(),
            ops: fenced.ops.clone(),
        };
        assert!(
            ["T0", "Ti2", "T1"]
                .iter()
                .any(|tn| rejected(&h, tn, Mode::Relaxed)),
            "removing {site} must break T0, Ti2 or T1 on Relaxed"
        );
    }
}

// ------------------------------------------------------- logic mutations

#[test]
fn msn_reading_the_dummy_nodes_value_is_caught() {
    // Dequeue must return `next->value`; reading `head->value` returns
    // the dummy node's (undefined or stale) value. Fails even under SC.
    let base = msn::harness(Variant::Fenced);
    let h = mutate(
        &base,
        "msn-wrong-node",
        msn::SOURCE,
        "*pvalue = next->value;",
        "*pvalue = head->value;",
    );
    assert!(rejected(&h, "T0", Mode::Sc));
}

#[test]
fn msn_skipping_the_consistency_recheck_still_works_on_sc() {
    // Negative control for the mutation harness: the `head ==
    // queue.head` re-check guards against ABA-style interference, but
    // with only one dequeuer in T0/Ti2 removing it must NOT fail — a
    // mutation the checker rightly accepts on these tests.
    let base = msn::harness(Variant::Fenced);
    let h = mutate(
        &base,
        "msn-no-recheck",
        msn::SOURCE,
        "if (head == queue.head) {",
        "if (head == head) {",
    );
    assert!(!rejected(&h, "T0", Mode::Sc));
}

#[test]
fn treiber_lost_pop_update_is_caught_by_the_reference_spec() {
    // Pop that reinstalls the same top (`t` instead of `next`) never
    // removes anything: every pop returns the same element.
    let base = treiber::harness(Variant::Fenced);
    let h = mutate(
        &base,
        "treiber-lost-pop",
        treiber::SOURCE,
        "if (cas(&stack.top, (unsigned) t, (unsigned) next)) {",
        "if (cas(&stack.top, (unsigned) t, (unsigned) t)) {",
    );
    // Against its own serial executions the mutant *passes*: the bug is
    // deterministic, so the self-mined specification absorbs it. This
    // is the paper's §2.2 point that the specification may (and here
    // must) come from a separate reference implementation.
    assert!(!rejected(&h, "U1", Mode::Sc), "self-spec cannot see it");
    assert!(
        rejected_vs_reference(&h, Shape::Stack, "U1", Mode::Sc),
        "the LIFO reference spec must reject the double pop"
    );
}

#[test]
fn treiber_unfenced_publish_is_caught_only_on_weak_models() {
    // The same missing-fence defect, checked both ways: accepted under
    // SC (it is not a logic bug), rejected under Relaxed.
    let h = treiber::harness(Variant::Unfenced);
    assert!(!rejected(&h, "U0", Mode::Sc));
    assert!(rejected(&h, "U0", Mode::Relaxed));
}

#[test]
fn ms2_without_the_head_lock_is_caught() {
    // Removing dequeue's locking entirely lets two dequeuers race past
    // the same head: both return the *same* element, which no serial
    // order can justify when the two enqueued values differ.
    let base = ms2::harness(Variant::Fenced);
    // NB: replace `unlock` before `lock` — the latter is a substring.
    let source = ms2::SOURCE
        .replace("unlock(&queue.head_lock);", "")
        .replace("lock(&queue.head_lock);", "");
    let program = cf_minic::compile(&source).expect("still compiles");
    let h = Harness {
        name: "ms2-no-head-lock".into(),
        program,
        init_proc: base.init_proc.clone(),
        ops: base.ops.clone(),
    };
    assert!(
        rejected(&h, "T1", Mode::Sc),
        "two unsynchronized dequeuers must double-dequeue"
    );
}

#[test]
fn ms2_lost_enqueue_is_masked_by_small_tests() {
    // The dual mutation — dropping the *tail* lock — is a real bug, but
    // on ( e | e | d | d ) every lost-update observation is still
    // serializable: the lost enqueue can be ordered after both
    // dequeues. A reminder that bounded testing proves inclusion for
    // the given test only (§2.2), recorded here as a negative control.
    let base = ms2::harness(Variant::Fenced);
    let source = ms2::SOURCE
        .replace("unlock(&queue.tail_lock);", "")
        .replace("lock(&queue.tail_lock);", "");
    let program = cf_minic::compile(&source).expect("still compiles");
    let h = Harness {
        name: "ms2-no-tail-lock".into(),
        program,
        init_proc: base.init_proc.clone(),
        ops: base.ops.clone(),
    };
    assert!(!rejected(&h, "T1", Mode::Sc));
}

#[test]
fn ms2_with_a_single_lock_still_passes() {
    // Negative control: taking the head lock in enqueue *serializes*
    // the whole queue on one lock — ugly but correct, and the checker
    // must accept it.
    let base = ms2::harness(Variant::Fenced);
    // NB: replace `unlock` before `lock` — the latter is a substring.
    let source = ms2::SOURCE
        .replace("unlock(&queue.tail_lock);", "unlock(&queue.head_lock);")
        .replace("lock(&queue.tail_lock);", "lock(&queue.head_lock);");
    let program = cf_minic::compile(&source).expect("still compiles");
    let h = Harness {
        name: "ms2-one-lock".into(),
        program,
        init_proc: base.init_proc.clone(),
        ops: base.ops.clone(),
    };
    assert!(!rejected(&h, "T1", Mode::Sc));
}

// ------------------------------------------------ specification corruption

#[test]
fn corrupting_the_mined_spec_fails_the_check() {
    let h = msn::harness(Variant::Fenced);
    let t = tests::by_name("T0").expect("catalog");
    let mut spec = mine_reference(&h, &t).expect("mines").spec;
    let mut engine = checkfence::Engine::new(checkfence::EngineConfig::default());
    assert!(engine
        .run(&Query::check_inclusion(&h, &t, spec.clone()).on(Mode::Sc))
        .expect("checks")
        .passed());

    // Remove one legal observation: some execution now has "no serial
    // justification" and the inclusion check must produce it.
    let victim = spec.vectors.iter().next().expect("non-empty").clone();
    spec.vectors.remove(&victim);
    assert!(
        !engine
            .run(&Query::check_inclusion(&h, &t, spec).on(Mode::Sc))
            .expect("checks")
            .passed(),
        "removing {victim:?} from the spec must surface a counterexample"
    );
    // Both checks shared the pooled encoding.
    assert_eq!(engine.stats().encodes, 1);
}

#[test]
fn the_empty_spec_rejects_everything() {
    let h = msn::harness(Variant::Fenced);
    let t = tests::by_name("T0").expect("catalog");
    let empty = checkfence::ObsSet::default();
    assert!(!Query::check_inclusion(&h, &t, empty)
        .on(Mode::Sc)
        .run()
        .expect("checks")
        .passed());
}

// --------------------------------------------- cross-model agreement

#[test]
fn sat_mining_agrees_with_reference_models_on_all_shapes() {
    // The SAT-based Seriality mining and the pure-Rust reference models
    // must enumerate identical observation sets (the paper's "refset"
    // shortcut is only sound if the two agree).
    let cases: [(Harness, Shape, &str); 4] = [
        (msn::harness(Variant::Fenced), Shape::Queue, "Ti2"),
        (
            cf_algos::lazylist::harness(cf_algos::lazylist::Build::Fixed),
            Shape::Set,
            "Sac",
        ),
        (
            snark::harness(snark::Build::Fixed, Variant::Fenced),
            Shape::Deque,
            "D0",
        ),
        (treiber::harness(Variant::Fenced), Shape::Stack, "U0"),
    ];
    for (h, shape, test_name) in &cases {
        let t = tests::by_name(test_name).expect("catalog");
        let sat = Query::mine(h, &t)
            .run()
            .expect("sat mining")
            .into_observations()
            .expect("observations");
        let reference = refmodel::mine(*shape, &t);
        assert_eq!(
            sat.vectors, reference.vectors,
            "{}/{test_name}: SAT mining disagrees with the reference model",
            h.name
        );
    }
}
