//! Clause storage: one flat arena of 32-bit words addressed by
//! [`ClauseRef`].
//!
//! Each clause is a header followed by its literals inline, in the
//! layout of MiniSat's clause arena (Eén and Sörensson, "An Extensible
//! SAT-solver", SAT 2003):
//!
//! ```text
//! problem clause:  [len << 2 | 0b00] [lit 0] [lit 1] ...
//! learnt clause:   [len << 2 | 0b10] [lbd] [activity lo] [activity hi] [lit 0] ...
//! ```
//!
//! Bit 1 of the first header word marks a learnt clause and bit 0 a
//! deleted one; learnt clauses carry their LBD and the bits of their
//! `f64` activity in three more words. A 3-literal problem clause takes
//! 16 bytes, and propagation reads its literals with one load after the
//! watcher instead of two.
//!
//! Deleting a clause only marks it. [`ClauseDb::compact`] slides the
//! live clauses down over the deleted ones, in arena order, once the dead
//! words pass a fixed fifth of the arena, and returns the
//! [`Relocation`] the solver applies to its watchers and reasons.

use crate::types::Lit;

/// A handle to a clause in the [`ClauseDb`]: the word offset of its
/// header. Valid until the next [`ClauseDb::compact`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ClauseRef(u32);

impl ClauseRef {
    /// The handle of the clause whose header sits at word `offset`.
    fn at(offset: usize) -> Self {
        ClauseRef(u32::try_from(offset).expect("clause arena exceeds 2^32 words"))
    }

    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

const DELETED: u32 = 0b01;
const LEARNT: u32 = 0b10;
/// Header words of a learnt clause: the flags word, the LBD and the two
/// halves of the activity.
const LEARNT_HEADER: usize = 4;

#[inline]
fn header_words(header: u32) -> usize {
    if header & LEARNT != 0 {
        LEARNT_HEADER
    } else {
        1
    }
}

/// The number of literals after the header.
#[inline]
fn lit_count(header: u32) -> usize {
    (header >> 2) as usize
}

/// The arena of clauses, plus the list of live learnt clauses in arena
/// order.
#[derive(Debug, Default)]
pub(crate) struct ClauseDb {
    arena: Vec<u32>,
    learnts: Vec<ClauseRef>,
    /// Words held by deleted clauses, reclaimed by [`ClauseDb::compact`].
    wasted: usize,
    /// Number of live learnt clauses.
    pub num_learnt: usize,
    /// Number of live problem (original) clauses.
    pub num_original: usize,
}

impl ClauseDb {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a clause with `lits` in the given order.
    pub fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "unit/empty clauses are not stored");
        let cref = ClauseRef::at(self.arena.len());
        let len = u32::try_from(lits.len())
            .ok()
            .filter(|&n| n < 1 << 30)
            .expect("clause longer than 2^30 literals");
        if learnt {
            self.num_learnt += 1;
            self.learnts.push(cref);
            self.arena.extend([len << 2 | LEARNT, lbd, 0, 0]);
        } else {
            self.num_original += 1;
            self.arena.push(len << 2);
        }
        self.arena.extend(lits.iter().map(|l| l.0));
        cref
    }

    /// Marks a clause deleted. Its words stay in the arena until the next
    /// [`ClauseDb::compact`]; the learnt list drops it at the next
    /// [`ClauseDb::purge_learnts`].
    pub fn free(&mut self, cref: ClauseRef) {
        let header = self.arena[cref.index()];
        debug_assert!(header & DELETED == 0, "clause freed twice");
        if header & LEARNT != 0 {
            self.num_learnt -= 1;
        } else {
            self.num_original -= 1;
        }
        self.arena[cref.index()] = header | DELETED;
        self.wasted += header_words(header) + lit_count(header);
    }

    #[inline]
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.arena[cref.index()] & LEARNT != 0
    }

    /// The LBD a learnt clause was recorded with.
    #[inline]
    pub fn lbd(&self, cref: ClauseRef) -> u32 {
        debug_assert!(self.is_learnt(cref));
        self.arena[cref.index() + 1]
    }

    /// The bump-and-decay activity of a learnt clause.
    #[inline]
    pub fn activity(&self, cref: ClauseRef) -> f64 {
        debug_assert!(self.is_learnt(cref));
        let i = cref.index();
        f64::from_bits(u64::from(self.arena[i + 2]) | u64::from(self.arena[i + 3]) << 32)
    }

    #[inline]
    pub fn set_activity(&mut self, cref: ClauseRef, activity: f64) {
        debug_assert!(self.is_learnt(cref));
        let i = cref.index();
        let bits = activity.to_bits();
        // The low and the high half of the bits.
        self.arena[i + 2] = bits as u32;
        self.arena[i + 3] = (bits >> 32) as u32;
    }

    /// Multiplies the activity of every learnt clause by `factor`.
    pub fn scale_activities(&mut self, factor: f64) {
        for i in 0..self.learnts.len() {
            let c = self.learnts[i];
            self.set_activity(c, self.activity(c) * factor);
        }
    }

    /// The literal words of a clause, in their current order.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[u32] {
        let header = self.arena[cref.index()];
        let start = cref.index() + header_words(header);
        &self.arena[start..start + lit_count(header)]
    }

    /// The literal words of a clause, for reordering them in place.
    #[inline]
    pub fn lits_mut(&mut self, cref: ClauseRef) -> &mut [u32] {
        let header = self.arena[cref.index()];
        let start = cref.index() + header_words(header);
        &mut self.arena[start..start + lit_count(header)]
    }

    /// Literal `k` of a clause.
    #[inline]
    pub fn lit(&self, cref: ClauseRef, k: usize) -> Lit {
        Lit(self.lits(cref)[k])
    }

    /// The live learnt clauses in arena order, up to the last
    /// [`ClauseDb::purge_learnts`] (deleted ones may remain until then).
    pub fn learnts(&self) -> &[ClauseRef] {
        &self.learnts
    }

    /// Drops deleted clauses from the learnt list, keeping arena order.
    pub fn purge_learnts(&mut self) {
        let arena = &self.arena;
        self.learnts.retain(|c| arena[c.index()] & DELETED == 0);
    }

    /// Words in the arena, dead ones included.
    #[cfg(test)]
    pub fn words(&self) -> usize {
        self.arena.len()
    }

    /// Whether the dead words have passed a fifth of the arena.
    pub fn needs_compaction(&self) -> bool {
        self.wasted * 5 > self.arena.len()
    }

    /// Slides every live clause down over the deleted ones, keeping
    /// arena order, and rewrites the learnt list. The caller must apply
    /// the returned [`Relocation`] to every other [`ClauseRef`] it holds;
    /// none of them may name a deleted clause.
    pub fn compact(&mut self) -> Relocation {
        self.purge_learnts();
        let mut gaps = Vec::new();
        let mut dead = 0usize;
        let mut src = 0usize;
        while src < self.arena.len() {
            let header = self.arena[src];
            let size = header_words(header) + lit_count(header);
            if header & DELETED != 0 {
                dead += size;
                gaps.push((src, dead));
            } else if dead > 0 {
                self.arena.copy_within(src..src + size, src - dead);
            }
            src += size;
        }
        self.arena.truncate(self.arena.len() - dead);
        self.wasted = 0;
        let reloc = Relocation { gaps };
        for c in &mut self.learnts {
            *c = reloc.apply(*c);
        }
        reloc
    }
}

/// Where [`ClauseDb::compact`] moved each live clause: a clause moves
/// down by the words of every deleted clause before it.
pub(crate) struct Relocation {
    /// `(offset of a deleted clause, dead words up to and including it)`,
    /// in arena order.
    gaps: Vec<(usize, usize)>,
}

impl Relocation {
    /// The new handle of a live clause.
    #[inline]
    pub fn apply(&self, cref: ClauseRef) -> ClauseRef {
        let i = self.gaps.partition_point(|&(at, _)| at < cref.index());
        debug_assert!(self.gaps.get(i).is_none_or(|&(at, _)| at != cref.index()));
        ClauseRef::at(cref.index() - i.checked_sub(1).map_or(0, |i| self.gaps[i].1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(n: &[i64]) -> Vec<Lit> {
        n.iter().map(|&x| Lit::from_dimacs(x)).collect()
    }

    fn read(db: &ClauseDb, c: ClauseRef) -> Vec<Lit> {
        db.lits(c).iter().map(|&w| Lit(w)).collect()
    }

    #[test]
    fn alloc_reads_back_header_and_literals() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), false, 0);
        let b = db.alloc(&lits(&[1, -2, 3]), true, 2);
        assert_eq!(db.num_original, 1);
        assert_eq!(db.num_learnt, 1);
        assert_eq!(read(&db, a), lits(&[1, 2]));
        assert_eq!(read(&db, b), lits(&[1, -2, 3]));
        assert!(!db.is_learnt(a) && db.is_learnt(b));
        assert_eq!(db.lbd(b), 2);
        db.set_activity(b, 1.5e-300);
        assert_eq!(db.activity(b), 1.5e-300);
        assert_eq!(db.arena.len(), 3 + 7, "1 + 2 words, then 4 + 3");
        db.free(b);
        assert_eq!(db.num_learnt, 0);
        assert_eq!(db.wasted, 7);
    }

    #[test]
    fn compaction_keeps_arena_order_and_relocates_handles() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), false, 0);
        let b = db.alloc(&lits(&[3, 4, 5]), true, 3);
        let c = db.alloc(&lits(&[-1, 6]), true, 2);
        let d = db.alloc(&lits(&[7, 8, 9, 10]), true, 4);
        let e = db.alloc(&lits(&[-7, 2]), false, 0);
        db.set_activity(c, 0.25);
        db.free(b);
        db.free(d);
        db.purge_learnts();
        assert_eq!(db.learnts(), &[c]);
        assert!(db.needs_compaction());
        let reloc = db.compact();
        assert_eq!(reloc.apply(a), a, "nothing before a was deleted");
        let (c2, e2) = (reloc.apply(c), reloc.apply(e));
        assert_eq!(read(&db, c2), lits(&[-1, 6]));
        assert_eq!(read(&db, e2), lits(&[-7, 2]));
        assert!(db.is_learnt(c2) && !db.is_learnt(e2));
        assert_eq!((db.lbd(c2), db.activity(c2)), (2, 0.25));
        assert_eq!(db.learnts(), &[c2]);
        assert_eq!(db.arena.len(), 3 + 6 + 3);
        assert!(!db.needs_compaction());
    }
}
