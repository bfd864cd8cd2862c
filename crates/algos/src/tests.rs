//! The symbolic test catalog of paper Fig. 8.
//!
//! Queue tests use `e`/`d` (enqueue/dequeue), set tests use `a`/`c`/`r`
//! (add/contains/remove), deque tests use `l`/`r`/`L`/`R` (push left,
//! push right, pop left, pop right — the paper writes aₗ, aᵣ, rₗ, rᵣ).
//! Primes mark operations restricted to a single retry iteration.

use checkfence::TestSpec;

use crate::Shape;

/// One catalog entry.
#[derive(Clone, Debug)]
pub struct CatalogTest {
    /// Paper name (e.g. `Tpc2`).
    pub name: &'static str,
    /// The DSL text.
    pub text: &'static str,
    /// Which data type shape it exercises.
    pub shape: Shape,
}

/// The queue tests of Fig. 8.
pub const QUEUE_TESTS: &[(&str, &str)] = &[
    ("T0", "( e | d )"),
    ("T1", "( e | e | d | d )"),
    ("Tpc2", "( ee | dd )"),
    ("Tpc3", "( eee | ddd )"),
    ("Tpc4", "( eeee | dddd )"),
    ("Tpc5", "( eeeee | ddddd )"),
    ("Tpc6", "( eeeeee | dddddd )"),
    ("Ti2", "e ( ed | de )"),
    ("Ti3", "e ( de | dde )"),
    ("T53", "( eeee | d | d )"),
    ("T54", "( eee | e | d | d )"),
    ("T55", "( ee | e | e | d | d )"),
    ("T56", "( e | e | e | e | d | d )"),
];

/// The set tests of Fig. 8.
pub const SET_TESTS: &[(&str, &str)] = &[
    ("Sac", "( a | c )"),
    ("Sar", "( a | r )"),
    ("Saa", "( a | a )"),
    ("Sacr", "( a | c | r )"),
    ("Saacr", "a ( a | c | r )"),
    ("Sacr2", "aar ( a | c | r )"),
    ("Saaarr", "aaa ( r | rc )"),
    ("Sarr", "( a | r | r )"),
    ("S1", "( a' | a' | c' | c' | r' | r' )"),
];

/// The deque tests of Fig. 8 (in our key notation) plus `Dx`, the
/// three-element opposing-pops test on which the seeded snark bug
/// manifests (see the `snark` module docs).
pub const DEQUE_TESTS: &[(&str, &str)] = &[
    ("D0", "( lR | rL )"),
    ("Da", "ll ( RR | LL )"),
    ("Db", "( RL | r | l )"),
    ("Dm", "( l'l'l' | R'R'R' | L' | r' )"),
    ("Dq", "( l' | l' | r' | r' | L' | L' | R' | R' )"),
    ("Dx", "rrr ( R'R' | L'L' )"),
];

/// The stack tests for the `treiber` extension, following the Fig. 8
/// queue-test patterns (`u` = push, `o` = pop).
pub const STACK_TESTS: &[(&str, &str)] = &[
    ("U0", "( u | o )"),
    ("U1", "( u | u | o | o )"),
    ("Upc2", "( uu | oo )"),
    ("Upc3", "( uuu | ooo )"),
    ("Ui2", "u ( uo | ou )"),
];

/// Tests for the `lamport` SPSC extension: one producer thread, one
/// consumer thread (the algorithm's contract), reusing the queue keys.
pub const SPSC_TESTS: &[(&str, &str)] = &[
    ("L0", "( e | d )"),
    ("Li1", "e ( e | d )"),
    ("Lpc2", "( ee | dd )"),
    ("Lpc3", "( eee | ddd )"),
];

/// Parses a catalog test by name (searches all five groups).
pub fn by_name(name: &str) -> Option<TestSpec> {
    for (n, text) in QUEUE_TESTS
        .iter()
        .chain(SET_TESTS)
        .chain(DEQUE_TESTS)
        .chain(STACK_TESTS)
        .chain(SPSC_TESTS)
    {
        if *n == name {
            return Some(TestSpec::parse(n, text).expect("catalog entries parse"));
        }
    }
    None
}

#[cfg(test)]
mod unit_tests {
    use super::*;

    #[test]
    fn whole_catalog_parses() {
        for (n, t) in QUEUE_TESTS
            .iter()
            .chain(SET_TESTS)
            .chain(DEQUE_TESTS)
            .chain(STACK_TESTS)
            .chain(SPSC_TESTS)
        {
            let spec = TestSpec::parse(n, t).expect("parses");
            assert!(!spec.threads.is_empty(), "{n}");
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("Tpc4").is_some());
        assert!(by_name("Dq").is_some());
        assert!(by_name("nope").is_none());
        let t = by_name("Ti2").expect("exists");
        assert_eq!(t.init.len(), 1);
        assert_eq!(t.threads.len(), 2);
    }

    #[test]
    fn primed_tests_are_primed() {
        let s1 = by_name("S1").expect("exists");
        assert!(s1.threads.iter().all(|t| t.iter().all(|o| o.primed)));
        let dq = by_name("Dq").expect("exists");
        assert_eq!(dq.threads.len(), 8);
    }

    #[test]
    fn counts_match_figure() {
        assert_eq!(QUEUE_TESTS.len(), 13);
        assert_eq!(SET_TESTS.len(), 9);
        assert_eq!(DEQUE_TESTS.len(), 6);
    }
}
