//! Bounded enumeration of symbolic test shapes.
//!
//! A *shape* is a [`TestSpec`]: an init prefix plus one operation word
//! per thread, letters drawn from the harness's operation keys. The
//! enumeration is exhaustive within [`SynthBounds`] and deterministic:
//! words are generated in (length, lexicographic) order and thread
//! tuples in lexicographic order over those words, so the same bounds
//! always produce the byte-identical corpus.
//!
//! Canonicalization exploits the two symmetries of the checking
//! semantics:
//!
//! * **thread permutation** — threads are anonymous, so `( uo | ou )`
//!   and `( ou | uo )` have identical observation sets; the canonical
//!   representative sorts the thread words, and non-canonical tuples
//!   are folded onto it through an FxHash-keyed dedup set;
//! * **argument renaming** — operation arguments are fresh symbolic
//!   variables ranging over the whole domain, so shapes carry no
//!   argument annotations at all and every renaming of concrete values
//!   maps a shape's observation set to itself. The reduction is built
//!   into the symbolic encoding rather than applied here.

use std::hash::BuildHasherDefault;

use checkfence::{FxHasher, OpInvocation, OpSig, TestSpec};

/// The fewest threads a synthesized test has: one-thread tests are
/// serial by construction, so every observation they can make is in
/// the mined specification already.
pub const MIN_THREADS: usize = 2;

/// The enumeration bounds of a synthesis run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynthBounds {
    /// Maximum number of threads per test (the paper's `T`); bounds
    /// below [`MIN_THREADS`] synthesize nothing.
    pub max_threads: usize,
    /// Maximum operations per thread (the paper's `K`).
    pub max_ops_per_thread: usize,
    /// Maximum operations in the init prefix (0 disables init
    /// prefixes).
    pub max_init_ops: usize,
    /// Cap on the total number of nondeterministic argument bits of a
    /// test (its argument domain is `{0,1}^bits`); shapes exceeding the
    /// cap are skipped. Keeps reference mining, which enumerates the
    /// whole domain, tractable.
    pub max_arg_bits: usize,
}

impl SynthBounds {
    /// Bounds with `max_threads` threads and `max_ops_per_thread`
    /// operations per thread; init prefixes of at most one operation,
    /// and an 8-bit argument cap.
    pub fn new(max_threads: usize, max_ops_per_thread: usize) -> SynthBounds {
        SynthBounds {
            max_threads,
            max_ops_per_thread,
            max_init_ops: 1,
            max_arg_bits: 8,
        }
    }

    /// Sets the init-prefix budget (chainable).
    #[must_use]
    pub fn with_init_ops(mut self, max_init_ops: usize) -> SynthBounds {
        self.max_init_ops = max_init_ops;
        self
    }
}

/// The result of a synthesis run: the canonical corpus plus the raw
/// generation count the canonicalization collapsed.
#[derive(Clone, Debug)]
pub struct SynthCorpus {
    /// The canonical tests, in deterministic enumeration order. Each
    /// test's name is its compact shape text (e.g. `u(ou|uo)`).
    pub tests: Vec<TestSpec>,
    /// Ordered shapes enumerated before symmetry reduction (within the
    /// argument cap).
    pub generated: usize,
    /// The bounds the corpus was synthesized under.
    pub bounds: SynthBounds,
}

impl SynthCorpus {
    /// Number of canonical tests (`generated` minus the shapes folded
    /// away by symmetry reduction).
    pub fn deduped(&self) -> usize {
        self.tests.len()
    }
}

/// The canonical representative of a test's thread-permutation orbit:
/// thread words sorted lexicographically, named by the compact shape
/// text (e.g. `u(ou|uo)`).
pub fn canonicalize(test: &TestSpec) -> TestSpec {
    let word = |ops: &[OpInvocation]| -> String { ops.iter().map(|o| o.key).collect() };
    let mut threads: Vec<&[OpInvocation]> = test.threads.iter().map(Vec::as_slice).collect();
    threads.sort_by_key(|ops| word(ops));
    TestSpec {
        name: format!(
            "{}({})",
            word(&test.init),
            threads
                .iter()
                .map(|t| word(t))
                .collect::<Vec<_>>()
                .join("|")
        ),
        init: test.init.clone(),
        threads: threads.into_iter().map(<[OpInvocation]>::to_vec).collect(),
    }
}

/// Enumerates every *ordered* bounded test shape — the raw universe
/// before symmetry reduction, in deterministic (init, thread-tuple)
/// lexicographic order. This is what a driver without the reduction
/// would have to check; [`synthesize`] folds it onto canonical
/// representatives.
pub fn enumerate_ordered(ops: &[OpSig], bounds: &SynthBounds) -> Vec<TestSpec> {
    // The alphabet, sorted for determinism independent of `ops` order.
    let mut alphabet: Vec<char> = ops.iter().map(|o| o.key).collect();
    alphabet.sort_unstable();
    alphabet.dedup();
    let arg_bits = |word: &str| -> usize {
        word.chars()
            .map(|k| ops.iter().find(|o| o.key == k).map_or(0, |o| o.num_args))
            .sum()
    };

    // All words of length 1..=len in (length, lex) order.
    let words_up_to = |len: usize| -> Vec<String> {
        let mut words: Vec<String> = Vec::new();
        let mut frontier: Vec<String> = vec![String::new()];
        for _ in 0..len {
            let mut next = Vec::with_capacity(frontier.len() * alphabet.len());
            for w in &frontier {
                for &k in &alphabet {
                    let mut ext = w.clone();
                    ext.push(k);
                    next.push(ext);
                }
            }
            words.extend(next.iter().cloned());
            frontier = next;
        }
        words
    };
    let words = words_up_to(bounds.max_ops_per_thread);
    // Init prefixes: the empty prefix plus every word up to the init
    // budget (enumerated independently of the per-thread bound, so an
    // init budget larger than `max_ops_per_thread` still enumerates
    // the full prefix universe).
    let mut inits: Vec<String> = vec![String::new()];
    inits.extend(words_up_to(bounds.max_init_ops));

    let invocations = |word: &str| -> Vec<OpInvocation> {
        word.chars()
            .map(|key| OpInvocation { key, primed: false })
            .collect()
    };

    let mut out = Vec::new();
    for init in &inits {
        for n in MIN_THREADS..=bounds.max_threads {
            // Ordered n-tuples of words, odometer-style.
            if words.is_empty() {
                continue;
            }
            let mut idx = vec![0usize; n];
            loop {
                let threads: Vec<&String> = idx.iter().map(|&i| &words[i]).collect();
                let bits: usize =
                    arg_bits(init) + threads.iter().map(|w| arg_bits(w)).sum::<usize>();
                if bits <= bounds.max_arg_bits {
                    out.push(TestSpec {
                        name: format!(
                            "{init}({})",
                            threads
                                .iter()
                                .map(|w| w.as_str())
                                .collect::<Vec<_>>()
                                .join("|")
                        ),
                        init: invocations(init),
                        threads: threads.into_iter().map(|w| invocations(w)).collect(),
                    });
                }
                // Advance the odometer.
                let mut pos = n;
                loop {
                    if pos == 0 {
                        break;
                    }
                    pos -= 1;
                    idx[pos] += 1;
                    if idx[pos] < words.len() {
                        break;
                    }
                    idx[pos] = 0;
                }
                if idx.iter().all(|&i| i == 0) {
                    break;
                }
            }
        }
    }
    out
}

/// Canonical test names already kept.
#[allow(
    clippy::disallowed_types,
    reason = "a membership memo; never iterated, so hash order cannot reach a result"
)]
type Seen = std::collections::HashSet<String, BuildHasherDefault<FxHasher>>;

/// Enumerates every canonical bounded test shape over the operation
/// universe `ops`.
///
/// `generated` counts the ordered shapes of [`enumerate_ordered`];
/// `tests` keeps one canonical representative per thread-permutation
/// orbit (see the module docs for why argument renaming needs no
/// explicit reduction). The output is a pure function of `ops` and
/// `bounds`.
pub fn synthesize(ops: &[OpSig], bounds: &SynthBounds) -> SynthCorpus {
    let ordered = enumerate_ordered(ops, bounds);
    let mut seen = Seen::default();
    let mut tests = Vec::new();
    let generated = ordered.len();
    for test in ordered {
        let canonical = canonicalize(&test);
        if seen.insert(canonical.name.clone()) {
            tests.push(canonical);
        }
    }
    SynthCorpus {
        tests,
        generated,
        bounds: bounds.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops() -> Vec<OpSig> {
        vec![
            OpSig {
                key: 'u',
                proc_name: "push_op".into(),
                num_args: 1,
                has_ret: false,
            },
            OpSig {
                key: 'o',
                proc_name: "pop_op".into(),
                num_args: 0,
                has_ret: true,
            },
        ]
    }

    #[test]
    fn counts_are_exact_for_two_ops() {
        // Words of length 1..=2 over {o, u}: 2 + 4 = 6. Ordered pairs:
        // 36; canonical (unordered with repetition): C(6,2) + 6 = 21.
        // Init prefixes: empty, "o", "u".
        let c = synthesize(&ops(), &SynthBounds::new(2, 2));
        assert_eq!(c.generated, 36 * 3);
        assert_eq!(c.deduped(), 21 * 3);
    }

    #[test]
    fn corpus_is_deterministic_and_canonical() {
        let a = synthesize(&ops(), &SynthBounds::new(2, 2));
        let b = synthesize(&ops(), &SynthBounds::new(2, 2));
        assert_eq!(a.tests, b.tests, "same bounds, same corpus");
        for t in &a.tests {
            let words: Vec<String> = t
                .threads
                .iter()
                .map(|ops| ops.iter().map(|o| o.key).collect())
                .collect();
            let mut sorted = words.clone();
            sorted.sort();
            assert_eq!(words, sorted, "{}: threads not canonical", t.name);
        }
        // Names are unique.
        let names: std::collections::BTreeSet<&str> =
            a.tests.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names.len(), a.tests.len());
    }

    #[test]
    fn catalog_shapes_are_covered() {
        // The hand-written stack tests within (T=2, K=3, init<=1).
        let c = synthesize(&ops(), &SynthBounds::new(2, 3));
        for name in ["(o|u)", "(oo|uu)", "(ooo|uuu)", "u(ou|uo)"] {
            assert!(
                c.tests.iter().any(|t| t.name == name),
                "missing {name}; corpus holds {} tests",
                c.tests.len()
            );
        }
        // And the four-thread U1 shape at (T=4, K=1).
        let c = synthesize(&ops(), &SynthBounds::new(4, 1).with_init_ops(0));
        assert!(c.tests.iter().any(|t| t.name == "(o|o|u|u)"));
    }

    #[test]
    fn argument_cap_prunes_shapes() {
        let unbounded = synthesize(&ops(), &SynthBounds::new(2, 2));
        let mut tight = SynthBounds::new(2, 2);
        tight.max_arg_bits = 1;
        let capped = synthesize(&ops(), &tight);
        assert!(capped.generated < unbounded.generated);
        for t in &capped.tests {
            let pushes = t.all_ops().filter(|o| o.key == 'u').count();
            assert!(pushes <= 1, "{}: exceeds the argument cap", t.name);
        }
    }

    #[test]
    fn empty_universe_or_zero_bounds_yield_an_empty_corpus() {
        let c = synthesize(&[], &SynthBounds::new(2, 2));
        assert_eq!(c.generated, 0);
        assert!(c.tests.is_empty());
        let c = synthesize(&ops(), &SynthBounds::new(2, 0));
        assert!(c.tests.is_empty());
        let c = synthesize(&ops(), &SynthBounds::new(0, 2));
        assert!(c.tests.is_empty());
    }

    #[test]
    fn init_budget_larger_than_thread_bound_is_fully_enumerated() {
        // The init-prefix universe is independent of the per-thread
        // bound: K=1 with a 2-op init budget must still produce
        // length-2 prefixes.
        let c = synthesize(&ops(), &SynthBounds::new(2, 1).with_init_ops(2));
        assert!(c.tests.iter().any(|t| t.name == "uu(o|o)"), "2-op init");
        // Init prefixes: empty + 2 + 4; thread pairs: 3 canonical of 4.
        assert_eq!(c.deduped(), 7 * 3);
        assert_eq!(c.generated, 7 * 4);
    }
}
