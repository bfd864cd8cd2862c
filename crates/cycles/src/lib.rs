//! Static critical-cycle analysis over LSL programs.
//!
//! Implements the delay-set view of fence placement (Shasha–Snir, as
//! revived for weak memory by Alglave et al., "Don't sit on the
//! fence"): flatten each thread of a bounded test into its stream of
//! abstract shared-memory events ([`AccessEvent`]), connect
//! cross-thread *conflict* edges (may-aliasing accesses, at least one
//! store), and enumerate the *critical cycles* — cycles alternating
//! conflict edges with per-thread program-order chords, each thread
//! contributing at most one chord. A program with no critical cycle is
//! conflict-serializable on **every** execution of **any** of the
//! built-in models; a program whose every cycle chord is enforced under
//! model `M` behaves identically to sequential consistency under `M`.
//!
//! The analysis backs the robustness report ([`CycleAnalysis::report`],
//! [`CycleAnalysis::robust_under`]): the CLI's `--analyze` mode prints
//! each cycle, the ordering each chord needs and the models that relax
//! it. Chord enforcement is judged *conservatively* (under-credited),
//! so a model reported robust is robust.
//!
//! The analysis is deliberately execution-free: both arms of every
//! branch contribute events, loop bodies contribute one iteration plus
//! wrap-around chords, and unknown addresses alias everything. All of
//! that over-approximates the conflict graph, which is the sound
//! direction for the report.
//!
//! # Example
//!
//! The classic store-buffering shape is robust under SC but not under
//! TSO (both threads may read 0 out of their store buffers):
//!
//! ```
//! use cf_memmodel::Mode;
//!
//! let program = cf_minic::compile(
//!     r#"
//!     int x;
//!     int y;
//!     int t0_op() { x = 1; return y; }
//!     int t1_op() { y = 1; return x; }
//! "#,
//! )
//! .unwrap();
//! let t0 = program.proc_id("t0_op").unwrap();
//! let t1 = program.proc_id("t1_op").unwrap();
//!
//! let analysis = cf_cycles::analyze(&program, &[vec![t0], vec![t1]]);
//! assert!(analysis.reliable());
//! assert!(!analysis.cycles().is_empty()); // the SB cycle is critical
//! assert!(analysis.robust_under(Mode::Sc));
//! assert!(!analysis.robust_under(Mode::Tso)); // store→load chords relax
//! ```

#![warn(missing_docs)]

mod cycle;
mod graph;

use std::fmt::Write as _;

use cf_lsl::{FenceKind, ProcId, Program};
use cf_memmodel::{sem_orders, AccessKind, Mode};

pub use cycle::{Cycle, Leg};
pub use graph::{AbsLoc, AccessEvent, FenceEvent};

use graph::Graph;

/// Maximum number of cycles spelled out by [`CycleAnalysis::report`];
/// the rest are summarized by count.
const REPORT_CYCLE_CAP: usize = 16;

/// The result of analyzing one bounded test: the flattened event
/// streams plus every critical cycle of their conflict graph.
#[derive(Clone, Debug)]
pub struct CycleAnalysis {
    graph: Graph,
    cycles: Vec<Cycle>,
    truncated: bool,
}

/// Builds the static event graph of `program` under the given thread
/// structure and enumerates its critical cycles.
///
/// `threads[t]` lists the procedures thread `t` invokes in order (the
/// operations of one test thread); initialization procedures should be
/// omitted — they happen-before everything and cannot sit on a cycle.
pub fn analyze(program: &Program, threads: &[Vec<ProcId>]) -> CycleAnalysis {
    let graph = graph::build(program, threads);
    let (cycles, truncated) = cycle::enumerate(&graph);
    CycleAnalysis {
        graph,
        cycles,
        truncated,
    }
}

impl CycleAnalysis {
    /// All shared-memory accesses, grouped by thread in stream order.
    /// [`Leg`] indices point into this slice.
    pub fn accesses(&self) -> &[AccessEvent] {
        &self.graph.accesses
    }

    /// All real fences (classic and C11).
    pub fn fences(&self) -> &[FenceEvent] {
        &self.graph.fences
    }

    /// Every critical cycle found (deduplicated, deterministic order).
    pub fn cycles(&self) -> &[Cycle] {
        &self.cycles
    }

    /// `true` when cycle enumeration hit its caps; the cycle list is
    /// then incomplete.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// `true` when event-graph construction gave up (call inlining
    /// exceeded its depth cap); the event streams are then incomplete.
    pub fn gave_up(&self) -> bool {
        self.graph.gave_up
    }

    /// `true` when the analysis saw the whole program and all of its
    /// cycles. Every consumer must check this before drawing *negative*
    /// conclusions (no cycle ⇒ robust).
    pub fn reliable(&self) -> bool {
        !self.graph.gave_up && !self.truncated
    }

    /// Is the chord of `leg` ordered under `mode` on every execution?
    ///
    /// Judged **conservatively** (for robustness): a chord is credited only
    /// when (a) it is a single access, (b) both ends share an atomic
    /// group, (c) the model's program-order axiom keeps the pair in
    /// order (same-address credit requires *must*-alias), or (d) a real
    /// fence provably executes between the two ends and orders their
    /// kinds. Per-access C11 annotations are never credited — the
    /// built-in hardware models ignore them.
    pub fn chord_enforced(&self, leg: &Leg, mode: Mode) -> bool {
        if leg.entry == leg.exit {
            return true;
        }
        let a = &self.graph.accesses[leg.entry];
        let b = &self.graph.accesses[leg.exit];
        if a.atomic.is_some() && a.atomic == b.atomic {
            return true;
        }
        if !leg.wrap && mode.po_edge_required(a.kind, b.kind, a.loc.must_alias(&b.loc)) {
            return true;
        }
        // Fence credit. Any fence whose block path is a prefix of the
        // exit's path and whose position precedes the exit must execute
        // before the exit does (a break that skipped the fence would
        // skip the exit too). On a straight chord the fence must also
        // sit after the entry; on a wrap-around chord it must sit
        // inside a loop shared by both ends, so its next-iteration
        // instance falls between them. The symmetric entry-side rule
        // (fence after the entry, prefix of the *entry's* path) is not
        // sound — a break between fence and exit skips only the fence.
        self.graph.fences.iter().any(|f| {
            f.thread == a.thread
                && b.blocks.starts_with(&f.blocks)
                && f.pos < b.pos
                && (if leg.wrap {
                    f.blocks
                        .iter()
                        .any(|id| a.loops.contains(id) && b.loops.contains(id))
                } else {
                    f.pos > a.pos
                })
                && sem_orders(f.sem, a.kind, b.kind)
        })
    }

    /// May `mode` reorder some chord of `cycle`? A relaxable cycle is
    /// one the model could exhibit, i.e. a potential SC violation.
    pub fn cycle_relaxable(&self, cycle: &Cycle, mode: Mode) -> bool {
        cycle.legs.iter().any(|leg| !self.chord_enforced(leg, mode))
    }

    /// `true` when every chord of every critical cycle is enforced
    /// under `mode` (and the analysis is reliable): all `mode`
    /// executions are sequentially consistent, so any verdict
    /// (PASS *or* FAIL) coincides with the SC verdict.
    pub fn robust_under(&self, mode: Mode) -> bool {
        self.reliable() && self.cycles.iter().all(|c| !self.cycle_relaxable(c, mode))
    }

    /// The fence kind that would order `(a, b)` — the name of the
    /// program-order axiom the chord needs.
    fn needed_kind(a: AccessKind, b: AccessKind) -> FenceKind {
        match (a, b) {
            (AccessKind::Load, AccessKind::Load) => FenceKind::LoadLoad,
            (AccessKind::Load, AccessKind::Store) => FenceKind::LoadStore,
            (AccessKind::Store, AccessKind::Load) => FenceKind::StoreLoad,
            (AccessKind::Store, AccessKind::Store) => FenceKind::StoreStore,
        }
    }

    fn fmt_loc(&self, loc: &AbsLoc) -> String {
        match loc {
            AbsLoc::Global { base, path } => {
                let mut s = self
                    .graph
                    .global_names
                    .get(*base as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("g{base}"));
                for p in path {
                    match p {
                        Some(k) => {
                            let _ = write!(s, ".{k}");
                        }
                        None => s.push_str("[?]"),
                    }
                }
                s
            }
            AbsLoc::Heap => "<heap>".into(),
            AbsLoc::Unknown => "<?>".into(),
        }
    }

    fn fmt_access(&self, i: usize) -> String {
        let a = &self.graph.accesses[i];
        let kind = match a.kind {
            AccessKind::Load => "load",
            AccessKind::Store => "store",
        };
        format!("t{} {} {} ({})", a.thread, kind, self.fmt_loc(&a.loc), a.op)
    }

    /// Renders a human-readable report: robustness verdict per mode,
    /// then each cycle with its chords, the fence kind (program-order
    /// axiom) each chord needs, and the models that relax it.
    pub fn report(&self, modes: &[Mode]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "accesses {}  fences {}  critical cycles {}{}",
            self.graph.accesses.len(),
            self.graph.fences.len(),
            self.cycles.len(),
            if self.reliable() {
                ""
            } else {
                "  [UNRELIABLE: analysis gave up or was truncated]"
            }
        );
        for &mode in modes {
            let verdict = if !self.reliable() {
                "unknown (analysis unreliable)"
            } else if self.robust_under(mode) {
                "robust (all executions sequentially consistent)"
            } else {
                "not robust (some critical cycle may relax)"
            };
            let _ = writeln!(out, "  under {}: {}", mode.name(), verdict);
        }
        for (n, cycle) in self.cycles.iter().take(REPORT_CYCLE_CAP).enumerate() {
            let _ = writeln!(out, "cycle {}:", n + 1);
            for leg in &cycle.legs {
                if leg.entry == leg.exit {
                    let _ = writeln!(out, "  {}", self.fmt_access(leg.entry));
                    continue;
                }
                let a = &self.graph.accesses[leg.entry];
                let b = &self.graph.accesses[leg.exit];
                let relaxed: Vec<&str> = modes
                    .iter()
                    .filter(|&&m| !self.chord_enforced(leg, m))
                    .map(|m| m.name())
                    .collect();
                let status = if relaxed.is_empty() {
                    "enforced for all listed models".to_string()
                } else {
                    format!("relaxed under: {}", relaxed.join(", "))
                };
                let _ = writeln!(
                    out,
                    "  {} ..{} {}  [needs {} order; {}]",
                    self.fmt_access(leg.entry),
                    if leg.wrap { " (next iteration)" } else { "" },
                    self.fmt_access(leg.exit),
                    Self::needed_kind(a.kind, b.kind),
                    status
                );
            }
        }
        if self.cycles.len() > REPORT_CYCLE_CAP {
            let _ = writeln!(
                out,
                "  ... and {} more cycles",
                self.cycles.len() - REPORT_CYCLE_CAP
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> Program {
        cf_minic::compile(src).expect("test source compiles")
    }

    fn two_threads(program: &Program, p0: &str, p1: &str) -> CycleAnalysis {
        let t0 = program.proc_id(p0).expect("proc exists");
        let t1 = program.proc_id(p1).expect("proc exists");
        analyze(program, &[vec![t0], vec![t1]])
    }

    #[test]
    fn single_thread_has_no_cycles() {
        let p = compile("int x; void w_op() { x = 1; x = 2; }");
        let id = p.proc_id("w_op").unwrap();
        let a = analyze(&p, &[vec![id]]);
        assert!(a.reliable());
        assert!(a.cycles().is_empty());
    }

    #[test]
    fn disjoint_locations_have_no_cycles() {
        let p = compile(
            r#"
            int x;
            int y;
            void a_op() { x = 1; x = 2; }
            void b_op() { y = 1; y = 2; }
        "#,
        );
        let a = two_threads(&p, "a_op", "b_op");
        assert!(a.reliable());
        assert!(a.cycles().is_empty());
    }

    #[test]
    fn store_buffering_relaxes_from_tso_down() {
        let p = compile(
            r#"
            int x;
            int y;
            int a_op() { x = 1; return y; }
            int b_op() { y = 1; return x; }
        "#,
        );
        let a = two_threads(&p, "a_op", "b_op");
        assert!(a.reliable());
        assert!(!a.cycles().is_empty());
        assert!(a.robust_under(Mode::Sc));
        assert!(!a.robust_under(Mode::Tso));
        assert!(!a.robust_under(Mode::Pso));
        assert!(!a.robust_under(Mode::Relaxed));
    }

    #[test]
    fn message_passing_relaxes_from_pso_down_only() {
        // MP: the writer's store→store chord and the reader's load→load
        // chord are both TSO-enforced, but PSO relaxes the former and
        // Relaxed both.
        let p = compile(
            r#"
            int data;
            int flag;
            void w_op() { data = 1; flag = 1; }
            int r_op() { int f = flag; int d = data; return f + d; }
        "#,
        );
        let a = two_threads(&p, "w_op", "r_op");
        assert!(a.reliable());
        assert!(!a.cycles().is_empty());
        assert!(a.robust_under(Mode::Sc));
        assert!(a.robust_under(Mode::Tso));
        assert!(!a.robust_under(Mode::Pso));
        assert!(!a.robust_under(Mode::Relaxed));
    }

    #[test]
    fn fences_restore_robustness() {
        let p = compile(
            r#"
            int x;
            int y;
            int a_op() { x = 1; fence("store-load"); return y; }
            int b_op() { y = 1; fence("store-load"); return x; }
        "#,
        );
        let a = two_threads(&p, "a_op", "b_op");
        assert!(!a.cycles().is_empty());
        for m in Mode::hardware() {
            assert!(a.robust_under(m), "fenced SB must be robust under {m:?}");
        }
    }

    #[test]
    fn fence_in_skippable_branch_is_not_credited() {
        // The fence sits in a conditional block that is not an ancestor
        // of the second access, so it may be skipped and must not be
        // credited.
        let p = compile(
            r#"
            int x;
            int y;
            int a_op(int c) { x = 1; if (c) { fence("store-load"); } return y; }
            int b_op() { y = 1; fence("store-load"); return x; }
        "#,
        );
        let a = two_threads(&p, "a_op", "b_op");
        assert!(!a.robust_under(Mode::Tso));
    }

    #[test]
    fn c11_seq_cst_fence_is_credited() {
        let p = compile(
            r#"
            int x;
            int y;
            int a_op() { x = 1; fence(seq_cst); return y; }
            int b_op() { y = 1; fence(seq_cst); return x; }
        "#,
        );
        let a = two_threads(&p, "a_op", "b_op");
        assert!(a.robust_under(Mode::Relaxed));
    }

    #[test]
    fn per_access_annotations_are_not_credited_for_builtin_models() {
        // Release/acquire would make this robust under a C11 model, but
        // the built-in hardware lattice ignores annotations, so the
        // conservative analysis must not credit them.
        let p = compile(
            r#"
            int data;
            int flag;
            void w_op() { data = 1; store(flag, release, 1); }
            int r_op() { int f = load(flag, acquire); int d = data; return f + d; }
        "#,
        );
        let a = two_threads(&p, "w_op", "r_op");
        assert!(!a.robust_under(Mode::Pso));
    }

    #[test]
    fn spin_loop_wrap_chords_are_found() {
        // Reader spins on flag then reads data: the load→load chord
        // exists within one iteration (flag load at pos 0, data load
        // after the loop), and Relaxed relaxes it.
        let p = compile(
            r#"
            int data;
            int flag;
            void w_op() { data = 1; flag = 1; }
            int r_op() {
                int f;
                do { f = flag; } spinwhile (f == 0);
                return data;
            }
        "#,
        );
        let a = two_threads(&p, "w_op", "r_op");
        assert!(!a.cycles().is_empty());
        assert!(a.robust_under(Mode::Tso));
        assert!(!a.robust_under(Mode::Relaxed));
    }

    #[test]
    fn report_names_locations_and_models() {
        let p = compile(
            r#"
            int x;
            int y;
            int a_op() { x = 1; return y; }
            int b_op() { y = 1; return x; }
        "#,
        );
        let a = two_threads(&p, "a_op", "b_op");
        let report = a.report(&[Mode::Sc, Mode::Tso]);
        assert!(report.contains("under sc: robust"), "{report}");
        assert!(report.contains("under tso: not robust"), "{report}");
        assert!(report.contains("store x"), "{report}");
        assert!(report.contains("needs store-load order"), "{report}");
        assert!(report.contains("relaxed under: tso"), "{report}");
    }

    #[test]
    fn atomic_blocks_enforce_their_chords() {
        let p = compile(
            r#"
            int x;
            int y;
            int a_op() { atomic { x = 1; int r = y; return r; } }
            int b_op() { atomic { y = 1; int r = x; return r; } }
        "#,
        );
        let a = two_threads(&p, "a_op", "b_op");
        for m in Mode::hardware() {
            assert!(a.robust_under(m), "atomic SB must be robust under {m:?}");
        }
    }
}
