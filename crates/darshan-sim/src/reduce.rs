//! Cross-rank record reduction — what parallel Darshan does at
//! `MPI_Finalize`: records for files shared across ranks are merged into a
//! single job-level record (counters sum, extrema min/max), so the log
//! stays compact regardless of the process count (paper §III: "The
//! parallel version of Darshan uses the PMPI profiling interface…").
//!
//! There is one merge operator, [`Fold`], and it is pairwise: any
//! reduction — a rank-ordered left fold ([`reduce_job`]) or a log-depth
//! tree (`tfdarshan::job_tree`) — is a sequence of [`Fold::absorb`] calls
//! in rank order, and every such sequence gives the same bytes.
//!
//! Two ingredients of the operator are order-sensitive: f64
//! cumulative-time sums are not associative, and the common-access tracker
//! has bounded memory with order-dependent eviction. A fold therefore
//! splits the operator: every *associative* field (integer sums, byte
//! extrema, first-min-nonzero/last-max timestamps, max op times) merges
//! pairwise, while the order-sensitive remainder — the three
//! cumulative-time floats and the four `(access, count)` slots of each
//! contributor — rides along as a rank-ordered deferred list that
//! [`Fold::finish`] replays exactly as a flat left fold over the records
//! would. The result is byte-identical for every tree shape (proptested
//! against a flat oracle in `tests/proptests_extensions.rs`).

use std::borrow::Borrow;
use std::collections::btree_map::{BTreeMap, Entry};

use crate::counters::{PosixCounter as P, PosixFCounter as PF, PosixRecord};
use crate::counters::{StdioCounter as S, StdioFCounter as SF, StdioRecord};

/// Counters that reduce with `max` instead of `+`.
const MAX_COUNTERS: &[P] = &[P::POSIX_MAX_BYTE_READ, P::POSIX_MAX_BYTE_WRITTEN];

/// STDIO counters that reduce with `max` instead of `+`.
const STDIO_MAX_COUNTERS: &[S] = &[S::STDIO_MAX_BYTE_READ, S::STDIO_MAX_BYTE_WRITTEN];

/// The common-access `(ACCESSi_ACCESS, ACCESSi_COUNT)` slot pairs.
const ACCESS_SLOTS: [(P, P); 4] = [
    (P::POSIX_ACCESS1_ACCESS, P::POSIX_ACCESS1_COUNT),
    (P::POSIX_ACCESS2_ACCESS, P::POSIX_ACCESS2_COUNT),
    (P::POSIX_ACCESS3_ACCESS, P::POSIX_ACCESS3_COUNT),
    (P::POSIX_ACCESS4_ACCESS, P::POSIX_ACCESS4_COUNT),
];

/// POSIX `(first, last)` timestamp pairs.
const POSIX_STAMPS: [(PF, PF); 4] = [
    (
        PF::POSIX_F_OPEN_START_TIMESTAMP,
        PF::POSIX_F_OPEN_END_TIMESTAMP,
    ),
    (
        PF::POSIX_F_READ_START_TIMESTAMP,
        PF::POSIX_F_READ_END_TIMESTAMP,
    ),
    (
        PF::POSIX_F_WRITE_START_TIMESTAMP,
        PF::POSIX_F_WRITE_END_TIMESTAMP,
    ),
    (
        PF::POSIX_F_CLOSE_START_TIMESTAMP,
        PF::POSIX_F_CLOSE_END_TIMESTAMP,
    ),
];

/// POSIX cumulative times (order-sensitive f64 sums).
const POSIX_TIMES: [PF; 3] = [
    PF::POSIX_F_READ_TIME,
    PF::POSIX_F_WRITE_TIME,
    PF::POSIX_F_META_TIME,
];

/// STDIO `(first, last)` timestamp pairs.
const STDIO_STAMPS: [(SF, SF); 2] = [
    (
        SF::STDIO_F_OPEN_START_TIMESTAMP,
        SF::STDIO_F_OPEN_END_TIMESTAMP,
    ),
    (
        SF::STDIO_F_CLOSE_START_TIMESTAMP,
        SF::STDIO_F_CLOSE_END_TIMESTAMP,
    ),
];

/// STDIO cumulative times (order-sensitive f64 sums).
const STDIO_TIMES: [SF; 3] = [
    SF::STDIO_F_READ_TIME,
    SF::STDIO_F_WRITE_TIME,
    SF::STDIO_F_META_TIME,
];

/// Fold one `(first, last)` timestamp pair: the first timestamp takes the
/// earliest non-zero value, the last timestamp the latest.
fn fold_stamps(out: &mut [f64], r: &[f64], start: usize, end: usize) {
    let s = r[start];
    if s > 0.0 {
        out[start] = if out[start] == 0.0 {
            s
        } else {
            out[start].min(s)
        };
    }
    out[end] = out[end].max(r[end]);
}

/// A Darshan record type the fold reduces, split into its associative
/// part and its order-sensitive remainder.
pub trait Reducible: Clone + std::fmt::Debug {
    /// The order-sensitive slice of one contributor.
    type Deferred: Clone + std::fmt::Debug;
    /// The record id the fold groups by.
    fn rec_id(&self) -> u64;
    /// A zeroed record: the identity of the associative fields.
    fn empty(rec_id: u64) -> Self;
    /// Fold the associative slice of `r` into `self`. Also correct for
    /// folding one *partial* into another: every field it touches holds
    /// the same kind of partial value (a sum, a max, a min-nonzero) in a
    /// record and in a partial.
    fn fold_assoc(&mut self, r: &Self);
    /// This contributor's order-sensitive slice.
    fn deferred(&self) -> Self::Deferred;
    /// Replay rank-ordered deferred slices into an associative partial.
    fn replay(&mut self, deferred: &[Self::Deferred]);
}

/// The order-sensitive slice of one POSIX contributor: its common-access
/// slots (replayed into the tracker in rank order) and its
/// cumulative-time floats (left-folded in rank order).
#[derive(Clone, Copy, Debug)]
pub struct PosixDeferred {
    /// The contributor's `(ACCESSi_ACCESS, ACCESSi_COUNT)` slot pairs.
    pub accesses: [(i64, i64); 4],
    /// `[POSIX_F_READ_TIME, POSIX_F_WRITE_TIME, POSIX_F_META_TIME]`.
    pub times: [f64; 3],
}

impl Reducible for PosixRecord {
    type Deferred = PosixDeferred;

    fn rec_id(&self) -> u64 {
        self.rec_id
    }

    fn empty(rec_id: u64) -> Self {
        PosixRecord::new(rec_id)
    }

    /// Additive counters sum, byte extrema take the max, timestamps fold
    /// first-min-nonzero/last-max, max op times take the max. The access
    /// slots and cumulative times are deferred.
    fn fold_assoc(&mut self, r: &Self) {
        for c in P::ALL {
            let i = c as usize;
            if MAX_COUNTERS.contains(&c) {
                self.counters[i] = self.counters[i].max(r.counters[i]);
            } else if !ACCESS_SLOTS.iter().any(|&(a, n)| c == a || c == n) {
                self.counters[i] += r.counters[i];
            }
        }
        for (start, end) in POSIX_STAMPS {
            fold_stamps(
                &mut self.fcounters,
                &r.fcounters,
                start as usize,
                end as usize,
            );
        }
        for t in [PF::POSIX_F_MAX_READ_TIME, PF::POSIX_F_MAX_WRITE_TIME] {
            *self.fget_mut(t) = self.fget(t).max(r.fget(t));
        }
    }

    fn deferred(&self) -> PosixDeferred {
        PosixDeferred {
            accesses: ACCESS_SLOTS.map(|(a, n)| (self.get(a), self.get(n))),
            times: POSIX_TIMES.map(|t| self.fget(t)),
        }
    }

    /// Re-accumulate the common access sizes from each contributor's
    /// top-4 slots, sum the cumulative times, and re-derive the slots.
    fn replay(&mut self, deferred: &[PosixDeferred]) {
        for d in deferred {
            for (a, cnt) in d.accesses {
                if cnt > 0 {
                    self.access_sizes.add_n(a as u64, cnt as u64);
                }
            }
            for (t, v) in POSIX_TIMES.into_iter().zip(d.times) {
                *self.fget_mut(t) += v;
            }
        }
        self.reduce_common_accesses();
    }
}

impl Reducible for StdioRecord {
    /// `[STDIO_F_READ_TIME, STDIO_F_WRITE_TIME, STDIO_F_META_TIME]`.
    type Deferred = [f64; 3];

    fn rec_id(&self) -> u64 {
        self.rec_id
    }

    fn empty(rec_id: u64) -> Self {
        StdioRecord::new(rec_id)
    }

    /// Additive counters sum, byte extrema take the max, timestamps fold
    /// first-min-nonzero/last-max. Cumulative times are deferred.
    fn fold_assoc(&mut self, r: &Self) {
        for c in S::ALL {
            let i = c as usize;
            if STDIO_MAX_COUNTERS.contains(&c) {
                self.counters[i] = self.counters[i].max(r.counters[i]);
            } else {
                self.counters[i] += r.counters[i];
            }
        }
        for (start, end) in STDIO_STAMPS {
            fold_stamps(
                &mut self.fcounters,
                &r.fcounters,
                start as usize,
                end as usize,
            );
        }
    }

    fn deferred(&self) -> [f64; 3] {
        STDIO_TIMES.map(|t| self.fget(t))
    }

    fn replay(&mut self, deferred: &[[f64; 3]]) {
        for d in deferred {
            for (t, v) in STDIO_TIMES.into_iter().zip(*d) {
                *self.fget_mut(t) += v;
            }
        }
    }
}

/// A partially reduced group of one file's records, mergeable pairwise.
/// A group one rank contributed to so far is kept verbatim, so a
/// rank-private file passes through unchanged.
#[derive(Clone, Debug)]
pub struct Fold<R: Reducible> {
    /// The lone contributor while `deferred` is empty; otherwise the
    /// associative partial of every contributor.
    out: R,
    /// Rank-ordered order-sensitive contributions; empty for a lone one.
    deferred: Vec<R::Deferred>,
}

/// The POSIX record fold.
pub type PosixFold = Fold<PosixRecord>;
/// The STDIO record fold.
pub type StdioFold = Fold<StdioRecord>;

impl<R: Reducible> Fold<R> {
    /// A leaf: one rank's record, unreduced.
    pub fn leaf(r: R) -> Self {
        Fold {
            out: r,
            deferred: Vec::new(),
        }
    }

    /// Turn a lone contributor into a one-contributor partial.
    fn split(&mut self) {
        if self.deferred.is_empty() {
            let empty = R::empty(self.out.rec_id());
            let lone = std::mem::replace(&mut self.out, empty);
            self.out.fold_assoc(&lone);
            self.deferred.push(lone.deferred());
        }
    }

    /// Merge `right` (the higher-rank half) into `self`. Associative; the
    /// rank order of the deferred list is preserved by construction.
    pub fn absorb(&mut self, mut right: Fold<R>) {
        self.split();
        right.split();
        self.out.fold_assoc(&right.out);
        self.deferred.append(&mut right.deferred);
    }

    /// Finish the group. A lone contributor passes through unchanged;
    /// otherwise the deferred order-sensitive fields are replayed in rank
    /// order, reproducing a flat left fold bit-for-bit.
    pub fn finish(mut self) -> R {
        if !self.deferred.is_empty() {
            self.out.replay(&self.deferred);
        }
        self.out
    }
}

/// Per-record-id fold groups in rec-id order: the map merge shared by
/// every reduction. A rec id seen once holds a lone leaf; a later
/// contributor for the same id absorbs into it.
#[derive(Clone, Debug)]
pub struct FoldMap<R: Reducible>(BTreeMap<u64, Fold<R>>);

impl<R: Reducible> Default for FoldMap<R> {
    fn default() -> Self {
        FoldMap(BTreeMap::new())
    }
}

impl<R: Reducible> FoldMap<R> {
    /// Fold `fold` — covering ranks after every contributor so far — into
    /// its rec id's group. Returns whether two groups merged.
    pub fn push(&mut self, fold: Fold<R>) -> bool {
        match self.0.entry(fold.out.rec_id()) {
            Entry::Vacant(v) => {
                v.insert(fold);
                false
            }
            Entry::Occupied(mut o) => {
                o.get_mut().absorb(fold);
                true
            }
        }
    }

    /// Merge `right` (covering higher ranks) into `self`. Returns the
    /// number of pairwise group merges performed.
    pub fn absorb(&mut self, right: FoldMap<R>) -> u64 {
        right.0.into_values().map(|f| self.push(f) as u64).sum()
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map holds no group.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The finished records, in rec-id order.
    pub fn finish(self) -> Vec<R> {
        self.0.into_values().map(Fold::finish).collect()
    }
}

impl<R: Reducible> FromIterator<R> for FoldMap<R> {
    /// Left-fold records, in iteration order, into their groups.
    fn from_iter<I: IntoIterator<Item = R>>(records: I) -> Self {
        let mut map = FoldMap::default();
        for r in records {
            map.push(Fold::leaf(r));
        }
        map
    }
}

/// Reduce full per-rank record sets into the job view: a rank-ordered
/// left fold, so records of files touched by several ranks merge and
/// rank-private files pass through unchanged. Generic over owned records
/// and the `Arc`-shared records that incremental snapshots hand out.
/// The result is in rec-id order.
pub fn reduce_job<R: Borrow<PosixRecord>>(per_rank: &[Vec<R>]) -> Vec<PosixRecord> {
    per_rank
        .iter()
        .flatten()
        .map(|r| r.borrow().clone())
        .collect::<FoldMap<_>>()
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, reads: i64, bytes: i64, max_byte: i64, t0: f64, t1: f64) -> PosixRecord {
        let mut r = PosixRecord::new(id);
        *r.get_mut(P::POSIX_READS) = reads;
        *r.get_mut(P::POSIX_BYTES_READ) = bytes;
        *r.get_mut(P::POSIX_MAX_BYTE_READ) = max_byte;
        *r.fget_mut(PF::POSIX_F_READ_START_TIMESTAMP) = t0;
        *r.fget_mut(PF::POSIX_F_READ_END_TIMESTAMP) = t1;
        *r.fget_mut(PF::POSIX_F_READ_TIME) = t1 - t0;
        *r.get_mut(P::POSIX_ACCESS1_ACCESS) = 4096;
        *r.get_mut(P::POSIX_ACCESS1_COUNT) = reads;
        r
    }

    #[test]
    fn merge_sums_and_extremizes() {
        let mut fold = PosixFold::leaf(rec(9, 10, 1_000, 999, 1.0, 2.0));
        fold.absorb(PosixFold::leaf(rec(9, 5, 500, 5_000, 0.5, 3.0)));
        let merged = fold.finish();
        assert_eq!(merged.get(P::POSIX_READS), 15);
        assert_eq!(merged.get(P::POSIX_BYTES_READ), 1_500);
        assert_eq!(merged.get(P::POSIX_MAX_BYTE_READ), 5_000);
        assert_eq!(merged.fget(PF::POSIX_F_READ_START_TIMESTAMP), 0.5);
        assert_eq!(merged.fget(PF::POSIX_F_READ_END_TIMESTAMP), 3.0);
        assert!((merged.fget(PF::POSIX_F_READ_TIME) - 3.5).abs() < 1e-12);
        // Common access slots re-reduced: 15 × 4096.
        assert_eq!(merged.get(P::POSIX_ACCESS1_ACCESS), 4096);
        assert_eq!(merged.get(P::POSIX_ACCESS1_COUNT), 15);
    }

    #[test]
    fn merge_stdio_sums_and_extremizes() {
        let mk = |writes: i64, max_byte: i64, open_start: f64, close_end: f64| {
            let mut r = StdioRecord::new(7);
            *r.get_mut(S::STDIO_WRITES) = writes;
            *r.get_mut(S::STDIO_MAX_BYTE_WRITTEN) = max_byte;
            *r.fget_mut(SF::STDIO_F_OPEN_START_TIMESTAMP) = open_start;
            *r.fget_mut(SF::STDIO_F_CLOSE_END_TIMESTAMP) = close_end;
            *r.fget_mut(SF::STDIO_F_WRITE_TIME) = 0.25;
            r
        };
        let mut fold = StdioFold::leaf(mk(4, 100, 1.5, 2.0));
        fold.absorb(StdioFold::leaf(mk(6, 900, 0.5, 5.0)));
        let merged = fold.finish();
        assert_eq!(merged.get(S::STDIO_WRITES), 10);
        assert_eq!(merged.get(S::STDIO_MAX_BYTE_WRITTEN), 900);
        assert_eq!(merged.fget(SF::STDIO_F_OPEN_START_TIMESTAMP), 0.5);
        assert_eq!(merged.fget(SF::STDIO_F_CLOSE_END_TIMESTAMP), 5.0);
        assert!((merged.fget(SF::STDIO_F_WRITE_TIME) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reduce_job_merges_shared_keeps_private() {
        let rank0 = vec![rec(1, 1, 100, 99, 1.0, 2.0), rec(2, 2, 200, 199, 1.0, 2.0)];
        let rank1 = vec![rec(1, 3, 300, 299, 2.0, 4.0)];
        let job = reduce_job(&[rank0, rank1]);
        assert_eq!(job.len(), 2);
        let shared = job.iter().find(|r| r.rec_id == 1).unwrap();
        assert_eq!(shared.get(P::POSIX_READS), 4);
        assert_eq!(shared.get(P::POSIX_BYTES_READ), 400);
        let private = job.iter().find(|r| r.rec_id == 2).unwrap();
        assert_eq!(private.get(P::POSIX_READS), 2);
    }
}
