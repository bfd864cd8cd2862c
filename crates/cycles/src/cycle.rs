//! Critical-cycle enumeration over the flattened event streams.
//!
//! A *critical cycle* (Shasha–Snir; Alglave et al., "Don't sit on the
//! fence") alternates per-thread program-order chords with cross-thread
//! conflict edges: each participating thread contributes one chord
//! (entry access → exit access, possibly the same access), the exit of
//! each leg conflicts with the entry of the next (different threads,
//! may-aliasing locations, at least one store), every thread appears at
//! most once and all conflict edges are distinct as unordered pairs.
//! If every chord of every critical cycle is enforced under a model,
//! all of that model's executions are conflict-serializable — the
//! delay-set argument the robustness report rests on.

use std::collections::BTreeSet;

use cf_memmodel::AccessKind;

use crate::graph::Graph;

/// Hard cap on materialized cycles; hitting it marks the analysis
/// truncated, so the report claims no robustness.
const CYCLE_CAP: usize = 4096;

/// Hard cap on search steps (paranoia guard for adversarial inputs).
const WORK_CAP: usize = 1_000_000;

/// One per-thread leg of a cycle: the chord from the entry access to
/// the exit access (indices into the analysis' access list).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Leg {
    /// Access the cycle enters this thread on.
    pub entry: usize,
    /// Access the cycle leaves this thread on (== `entry` when the
    /// thread contributes a single access and no chord).
    pub exit: usize,
    /// `true` when the chord crosses a loop back-edge: entry and exit
    /// share a loop and the exit sits at an earlier stream position,
    /// i.e. the exit instance belongs to a later iteration.
    pub wrap: bool,
}

/// A critical cycle: its per-thread legs in traversal order. The
/// conflict edges are implicit — leg *i*'s exit conflicts with leg
/// *i+1*'s entry (wrapping around).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cycle {
    /// Per-thread legs; at least two, each on a distinct thread.
    pub legs: Vec<Leg>,
}

/// Enumerates all critical cycles of the graph, deduplicated and in a
/// deterministic order. Returns `(cycles, truncated)`.
pub(crate) fn enumerate(g: &Graph) -> (Vec<Cycle>, bool) {
    let n = g.accesses.len();
    let threads = g
        .accesses
        .iter()
        .map(|a| a.thread)
        .max()
        .map_or(0, |t| t + 1);
    if !(2..=64).contains(&threads) {
        return (Vec::new(), threads > 64);
    }

    // Cross-thread conflict adjacency: may-aliasing pairs with at least
    // one store.
    let mut conf: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, row) in conf.iter_mut().enumerate() {
        for j in 0..n {
            let (a, b) = (&g.accesses[i], &g.accesses[j]);
            if i != j
                && a.thread != b.thread
                && (a.kind == AccessKind::Store || b.kind == AccessKind::Store)
                && a.loc.may_alias(&b.loc)
            {
                row.push(j);
            }
        }
    }

    // Chords available from each entry access: (exit, wrap).
    let shares_loop = |i: usize, j: usize| {
        g.accesses[i]
            .loops
            .iter()
            .any(|l| g.accesses[j].loops.contains(l))
    };
    let mut legs_from: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n];
    for (i, row) in legs_from.iter_mut().enumerate() {
        row.push((i, false));
        for j in 0..n {
            if i == j || g.accesses[i].thread != g.accesses[j].thread {
                continue;
            }
            if g.accesses[i].pos < g.accesses[j].pos {
                row.push((j, false));
            } else if shares_loop(i, j) {
                row.push((j, true));
            }
        }
    }

    let mut out: BTreeSet<Cycle> = BTreeSet::new();
    let mut work = 0usize;
    let mut truncated = false;

    // DFS fixing the starting thread as the minimum thread of the
    // cycle, so every cycle is found exactly once (up to its unique
    // starting leg) and the output order is deterministic.
    struct Dfs<'a> {
        g: &'a Graph,
        conf: &'a [Vec<usize>],
        legs_from: &'a [Vec<(usize, bool)>],
        out: &'a mut BTreeSet<Cycle>,
        work: &'a mut usize,
        truncated: &'a mut bool,
        threads: usize,
    }
    impl Dfs<'_> {
        fn go(&mut self, path: &mut Vec<Leg>, used: u64, t0: usize) {
            *self.work += 1;
            if *self.work > WORK_CAP || self.out.len() >= CYCLE_CAP {
                *self.truncated = true;
                return;
            }
            let first_entry = path[0].entry;
            let last_exit = path.last().expect("non-empty path").exit;
            if path.len() >= 2 && self.conf[last_exit].contains(&first_entry) {
                // Conflict edges must be pairwise distinct as unordered
                // pairs (two accesses alone are ordered by any single
                // execution and cannot cycle).
                let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(path.len());
                for k in 0..path.len() {
                    let x = path[k].exit;
                    let y = path[(k + 1) % path.len()].entry;
                    pairs.push((x.min(y), x.max(y)));
                }
                pairs.sort_unstable();
                if pairs.windows(2).all(|w| w[0] != w[1]) {
                    self.out.insert(Cycle { legs: path.clone() });
                }
            }
            if path.len() >= self.threads {
                return;
            }
            for &next in &self.conf[last_exit] {
                let t = self.g.accesses[next].thread;
                if t <= t0 || used & (1 << t) != 0 {
                    continue;
                }
                for &(exit, wrap) in &self.legs_from[next] {
                    path.push(Leg {
                        entry: next,
                        exit,
                        wrap,
                    });
                    self.go(path, used | (1 << t), t0);
                    path.pop();
                }
            }
        }
    }

    for start in 0..n {
        let t0 = g.accesses[start].thread;
        for li in 0..legs_from[start].len() {
            let (exit, wrap) = legs_from[start][li];
            let mut path = vec![Leg {
                entry: start,
                exit,
                wrap,
            }];
            let mut dfs = Dfs {
                g,
                conf: &conf,
                legs_from: &legs_from,
                out: &mut out,
                work: &mut work,
                truncated: &mut truncated,
                threads,
            };
            dfs.go(&mut path, 1 << t0, t0);
        }
    }
    (out.into_iter().collect(), truncated)
}
