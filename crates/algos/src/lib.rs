//! # cf-algos — the five concurrent data types studied by CheckFence
//!
//! Mini-C implementations (closely following the published pseudocode,
//! with the memory-ordering fences the paper derived in §4.2–4.3) of the
//! algorithms in the paper's Table 1:
//!
//! | mnemonic   | algorithm | module |
//! |------------|-----------|--------|
//! | `ms2`      | Michael & Scott two-lock queue | [`ms2`] |
//! | `msn`      | Michael & Scott nonblocking queue (paper Fig. 9) | [`msn`] |
//! | `lazylist` | Heller et al. lazy list-based set | [`lazylist`] |
//! | `harris`   | Harris nonblocking list-based set | [`harris`] |
//! | `snark`    | Detlefs et al. DCAS-based deque | [`snark`] |
//!
//! Two extensions beyond Table 1 (the paper's §6 lists "more data type
//! implementations from the literature" as future work):
//!
//! | mnemonic   | algorithm | module |
//! |------------|-----------|--------|
//! | `treiber`  | Treiber lock-free stack | [`treiber`] |
//! | `lamport`  | Lamport SPSC ring buffer (no atomics at all) | [`lamport`] |
//!
//! Each module's source is the *fenced* mini-C: the published
//! algorithm plus the placements the paper reports (the published
//! algorithms carry no fences). The *unfenced* build, and the partial
//! builds that keep only some fence kinds, are derived from the compiled
//! fenced program by dropping fences
//! ([`cf_lsl::Program::without_fences`]), so each fence is written once.
//! Where the paper found algorithmic bugs, a *buggy* variant reproduces
//! them (`lazylist` misses the `marked` initialization; `snark` admits a
//! double pop).
//!
//! The crate also ships the Fig. 8 test catalog plus stack/SPSC
//! extensions ([`tests`]), pure-Rust reference models for fast
//! specification mining ([`refmodel`]), and the §4.2 fence necessity
//! analysis ([`fences`]).
//!
//! ## Example
//!
//! ```
//! use cf_algos::{msn, tests};
//! use checkfence::{mine_reference, Query};
//! use cf_memmodel::Mode;
//!
//! let harness = msn::harness(cf_algos::Variant::Fenced);
//! let t0 = tests::by_name("T0").expect("catalog test");
//! let spec = mine_reference(&harness, &t0).expect("mines").spec;
//! let verdict = Query::check_inclusion(&harness, &t0, spec)
//!     .on(Mode::Relaxed)
//!     .run()
//!     .expect("runs");
//! assert!(verdict.passed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod fences;
pub mod harris;
pub mod lamport;
pub mod lazylist;
pub mod ms2;
pub mod msn;
pub mod refmodel;
pub mod snark;
pub mod tests;
pub mod treiber;

use cf_lsl::{FenceKind, FenceSem};
use checkfence::{Harness, OpSig};

/// Fence configuration of an implementation build.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// With the memory-ordering fences the paper derived (§4.2).
    Fenced,
    /// As published: no fences beyond those inside lock primitives.
    Unfenced,
}

/// The five studied implementations (paper Table 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algo {
    /// Two-lock queue.
    Ms2,
    /// Nonblocking queue.
    Msn,
    /// Lazy list-based set.
    Lazylist,
    /// Nonblocking set.
    Harris,
    /// DCAS deque.
    Snark,
}

impl Algo {
    /// All five, in Table 1 order.
    pub fn all() -> [Algo; 5] {
        [
            Algo::Ms2,
            Algo::Msn,
            Algo::Lazylist,
            Algo::Harris,
            Algo::Snark,
        ]
    }

    /// The paper's mnemonic.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Ms2 => "ms2",
            Algo::Msn => "msn",
            Algo::Lazylist => "lazylist",
            Algo::Harris => "harris",
            Algo::Snark => "snark",
        }
    }

    /// Builds the harness for a variant (the correct algorithm; buggy
    /// variants are exposed by the individual modules).
    pub fn harness(self, variant: Variant) -> Harness {
        match self {
            Algo::Ms2 => ms2::harness(variant),
            Algo::Msn => msn::harness(variant),
            Algo::Lazylist => lazylist::harness(match variant {
                Variant::Fenced => lazylist::Build::Fixed,
                Variant::Unfenced => lazylist::Build::Unfenced,
            }),
            Algo::Harris => harris::harness(variant),
            Algo::Snark => snark::harness(snark::Build::Fixed, variant),
        }
    }

    /// Which kind of data type this is (selects tests and models).
    pub fn shape(self) -> Shape {
        match self {
            Algo::Ms2 | Algo::Msn => Shape::Queue,
            Algo::Lazylist | Algo::Harris => Shape::Set,
            Algo::Snark => Shape::Deque,
        }
    }
}

/// The abstract data type shape.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// FIFO queue: enqueue / dequeue.
    Queue,
    /// Set over keys {0,1}: add / contains / remove.
    Set,
    /// Double-ended queue: push/pop left/right.
    Deque,
    /// LIFO stack: push / pop (the `treiber` extension beyond the
    /// paper's Table 1).
    Stack,
    /// Single-producer single-consumer bounded queue of capacity 1 (the
    /// `lamport` extension): enqueue returns `false` when full, dequeue
    /// returns 0 when empty.
    Spsc,
}

pub(crate) fn queue_ops() -> Vec<OpSig> {
    vec![
        OpSig {
            key: 'e',
            proc_name: "enqueue_op".into(),
            num_args: 1,
            has_ret: false,
        },
        OpSig {
            key: 'd',
            proc_name: "dequeue_op".into(),
            num_args: 0,
            has_ret: true,
        },
    ]
}

pub(crate) fn set_ops() -> Vec<OpSig> {
    vec![
        OpSig {
            key: 'a',
            proc_name: "add_op".into(),
            num_args: 1,
            has_ret: true,
        },
        OpSig {
            key: 'c',
            proc_name: "contains_op".into(),
            num_args: 1,
            has_ret: true,
        },
        OpSig {
            key: 'r',
            proc_name: "remove_op".into(),
            num_args: 1,
            has_ret: true,
        },
    ]
}

pub(crate) fn spsc_ops() -> Vec<OpSig> {
    vec![
        OpSig {
            key: 'e',
            proc_name: "enqueue_op".into(),
            num_args: 1,
            has_ret: true,
        },
        OpSig {
            key: 'd',
            proc_name: "dequeue_op".into(),
            num_args: 0,
            has_ret: true,
        },
    ]
}

pub(crate) fn stack_ops() -> Vec<OpSig> {
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

pub(crate) fn deque_ops() -> Vec<OpSig> {
    vec![
        OpSig {
            key: 'l',
            proc_name: "push_left_op".into(),
            num_args: 1,
            has_ret: false,
        },
        OpSig {
            key: 'r',
            proc_name: "push_right_op".into(),
            num_args: 1,
            has_ret: false,
        },
        OpSig {
            key: 'L',
            proc_name: "pop_left_op".into(),
            num_args: 0,
            has_ret: true,
        },
        OpSig {
            key: 'R',
            proc_name: "pop_right_op".into(),
            num_args: 0,
            has_ret: true,
        },
    ]
}

pub(crate) fn compile_harness(
    name: &str,
    source: &str,
    init_proc: &str,
    ops: Vec<OpSig>,
) -> Harness {
    let program = cf_minic::compile(source)
        .unwrap_or_else(|e| panic!("bundled {name} source must compile: {e}"));
    Harness {
        name: name.into(),
        program,
        init_proc: Some(init_proc.into()),
        ops,
    }
}

/// `variant` of a fenced build: the build itself, or its LSL program
/// without fences, named `<name>-unfenced`.
pub(crate) fn build(fenced: Harness, variant: Variant) -> Harness {
    match variant {
        Variant::Fenced => fenced,
        Variant::Unfenced => {
            let name = format!("{}-unfenced", fenced.name);
            with_fences(fenced, name, &[])
        }
    }
}

/// A fenced build keeping only the fences of the kinds flagged `true`
/// in `kinds` (lock helpers keep theirs, see [`cf_lsl::FenceSite`]),
/// renamed `name`. Every unfenced and partial build is derived from its
/// fenced build this way, so each fence is written once, in the fenced
/// source.
pub(crate) fn with_fences(
    fenced: Harness,
    name: impl Into<String>,
    kinds: &[(FenceKind, bool)],
) -> Harness {
    Harness {
        name: name.into(),
        program: fenced.program.without_fences(
            |site| !matches!(site.fence, FenceSem::Classic(kind) if kinds.contains(&(kind, true))),
        ),
        ..fenced
    }
}

#[cfg(test)]
mod placements {
    use super::*;
    use FenceKind::{LoadLoad as LL, LoadStore as LS, StoreStore as SS};

    /// Every bundled fence placement, as the walker's coordinates.
    const PLACEMENTS: [(&str, &str); 7] = [
        ("ms2", "enqueue#0 (store-store), dequeue#0 (load-load)"),
        // Fig. 9 lines 29, 32, 34, 44 and 53, 55, 57.
        (
            "msn",
            "enqueue#0 (store-store), enqueue#1 (load-load), enqueue#2 (load-load), \
             enqueue#3 (store-store), dequeue#0 (load-load), dequeue#1 (load-load), \
             dequeue#2 (load-load)",
        ),
        (
            "harris",
            "add#0 (load-load), add#1 (load-load), add#2 (load-load), add#3 (load-load), \
             add#4 (load-load), add#5 (store-store), remove#0 (load-load), \
             remove#1 (load-load), remove#2 (load-load), remove#3 (load-load), \
             remove#4 (load-load), remove#5 (load-load), contains#0 (load-load), \
             contains#1 (load-load), contains#2 (load-load)",
        ),
        ("treiber", "push#0 (store-store), pop#0 (load-load)"),
        (
            "lamport",
            "enqueue#0 (load-load), enqueue#1 (load-store), enqueue#2 (store-store), \
             dequeue#0 (load-load), dequeue#1 (load-store)",
        ),
        (
            "lazylist",
            "add#0 (load-load), add#1 (load-load), add#2 (load-load), add#3 (store-store), \
             remove#0 (load-load), remove#1 (load-load), remove#2 (load-load), \
             remove#3 (store-store), contains#0 (load-load), contains#1 (load-load), \
             contains#2 (load-load)",
        ),
        (
            "snark",
            "push_right#0 (load-load), push_right#1 (load-load), push_right#2 (store-store), \
             push_right#3 (store-store), push_left#0 (load-load), push_left#1 (load-load), \
             push_left#2 (store-store), push_left#3 (store-store), pop_right#0 (load-load), \
             pop_right#1 (load-load), pop_right#2 (load-load), pop_right#3 (load-load), \
             pop_right#4 (load-load), pop_left#0 (load-load), pop_left#1 (load-load), \
             pop_left#2 (load-load), pop_left#3 (load-load), pop_left#4 (load-load)",
        ),
    ];

    /// (procedure, fence) of every fence in walk order: a derived
    /// build's indices renumber, its procedures and kinds do not.
    fn fences(h: &Harness) -> Vec<(String, FenceSem)> {
        let sites = h.program.fence_sites();
        sites.into_iter().map(|s| (s.proc, s.fence)).collect()
    }

    #[test]
    fn bundled_placements_and_the_builds_derived_from_them() {
        let fenced = [
            ms2::harness(Variant::Fenced),
            msn::harness(Variant::Fenced),
            harris::harness(Variant::Fenced),
            treiber::harness(Variant::Fenced),
            lamport::harness(Variant::Fenced),
            lazylist::harness(lazylist::Build::Fixed),
            snark::harness(snark::Build::Fixed, Variant::Fenced),
        ];
        for (h, (name, coords)) in fenced.iter().zip(PLACEMENTS) {
            let sites: Vec<String> = h
                .program
                .fence_sites()
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert_eq!((h.name.as_str(), sites.join(", ")), (name, coords.into()));
        }

        let [ms2, msn, harris, treiber, lamport, lazylist, snark] = fenced;
        let original = snark::harness(snark::Build::Original, Variant::Fenced);
        // (derived build, the fenced build, the kinds it keeps)
        let derived = [
            (ms2::harness(Variant::Unfenced), &ms2, &[][..]),
            (msn::harness(Variant::Unfenced), &msn, &[]),
            (msn::harness_with_kinds(true, false), &msn, &[LL]),
            (msn::harness_with_kinds(false, true), &msn, &[SS]),
            (harris::harness(Variant::Unfenced), &harris, &[]),
            (treiber::harness(Variant::Unfenced), &treiber, &[]),
            (treiber::harness_with_kinds(true, false), &treiber, &[LL]),
            (treiber::harness_with_kinds(false, true), &treiber, &[SS]),
            (lamport::harness(Variant::Unfenced), &lamport, &[]),
            (
                lamport::harness_with_kinds(true, true, false),
                &lamport,
                &[LL, SS],
            ),
            (
                lamport::harness_with_kinds(false, true, false),
                &lamport,
                &[SS],
            ),
            (
                lamport::harness_with_kinds(true, false, true),
                &lamport,
                &[LL, LS],
            ),
            (
                lamport::harness_with_kinds(false, false, true),
                &lamport,
                &[LS],
            ),
            (lazylist::harness(lazylist::Build::Unfenced), &lazylist, &[]),
            (
                snark::harness(snark::Build::Fixed, Variant::Unfenced),
                &snark,
                &[],
            ),
            (
                snark::harness(snark::Build::Original, Variant::Unfenced),
                &original,
                &[],
            ),
        ];
        let names: Vec<&str> = derived.iter().map(|(h, ..)| h.name.as_str()).collect();
        assert_eq!(
            names.join(" "),
            "ms2-unfenced msn-unfenced msn-ll-only msn-ss-only harris-unfenced \
             treiber-unfenced treiber-ll-only treiber-ss-only lamport-unfenced lamport+ll+ss \
             lamport+ss lamport+ll+ls lamport+ls lazylist-unfenced snark-unfenced snark-original"
        );
        let unfenced = |h: &Harness| h.program.without_fences(|_| true);
        for (h, fenced, kinds) in &derived {
            let mut kept = fences(fenced);
            kept.retain(|(_, f)| kinds.iter().any(|&k| *f == FenceSem::Classic(k)));
            assert_eq!(fences(h), kept, "{}", h.name);
            assert_eq!(
                unfenced(h),
                unfenced(fenced),
                "{}: only fences differ",
                h.name
            );
        }
    }
}
