//! Fused entity-table scan: one cache-blocked pass that scores every
//! table row against a group of query vectors and streams the scores
//! into bounded consumers — per-row scores are never materialized as a
//! full `N_e` vector.
//!
//! ## Why fuse
//!
//! Both the serving engine's batched top-k and the offline filtered
//! evaluator reduce to the same loop: `score[e] = ⟨E[e], q⟩` for every
//! entity `e`, immediately folded into a tiny summary (a top-k heap, a
//! better/ties tally). Materializing the score vector costs an extra
//! `O(N_e)` store+load sweep and, for the serve path, a heap compare
//! per entity per query. The fused kernel instead:
//!
//! - tiles the entity table into [`BLOCK_ROWS`]-row blocks sized to
//!   stay L1/L2-resident (`256 rows × 32 dims × 4 B = 32 KiB` at the
//!   serving benchmark's dimension),
//! - processes queries in register tiles of four over each block via
//!   [`crate::vecops::dot4`], so every row is loaded once per four
//!   queries instead of once per query,
//! - hands each consumer its block of scores through a small
//!   stack-resident scratch buffer ([`BlockConsumer::consume`]), where
//!   a cached-threshold top-k ([`StreamTopK`]) or a rank tally
//!   ([`RankTally`]) digests them without ever seeing a full score
//!   vector.
//!
//! ## Row shards
//!
//! [`scan_row_range`] runs the same loop over a sub-range of rows
//! ([`scan_rows`] is its full-range case), so one table pass can be cut
//! into row shards that run on different executors. Per-shard top-k
//! lists combine into the exact whole-table top-k with [`merge_topk`].
//!
//! ## Exactness
//!
//! Every score produced by the scan is bit-identical to
//! `vecops::dot(row, q)` — and therefore to `Matrix::matvec` — under
//! both the vectorized and the `scalar-kernels` builds ([`dot4`]'s
//! documented invariant). The serve/eval agreement tests compare the
//! fused path against the materialized matvec path down to the bit.
//!
//! [`dot4`]: crate::vecops::dot4

use crate::cmp;
use crate::matrix::Matrix;
use crate::vecops;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::ops::Range;

/// Rows per cache block of the fused scan. At dimension `d` a block
/// holds `256·d·4` bytes of entity rows (32 KiB at d = 32, 128 KiB at
/// d = 128) — small enough that the four query tiles sweeping it reuse
/// L1/L2-resident rows rather than streaming from memory.
pub const BLOCK_ROWS: usize = 256;

/// Queries per register tile: [`vecops::dot4`] keeps four accumulator
/// sets live across one row load.
const QTILE: usize = 4;

/// A streaming sink for one query's scores. The scan calls
/// [`consume`](BlockConsumer::consume) once per cache block with the
/// scores of rows `base .. base + scores.len()`, in ascending row
/// order across calls.
pub trait BlockConsumer {
    /// Digest the scores of one block of rows, where `scores[i]` is
    /// the score of row `base + i`.
    fn consume(&mut self, base: u32, scores: &[f32]);
}

/// Score every row of `table` against `consumers.len()` query vectors
/// (`qvecs` holds them contiguously, `table.cols()` floats each) and
/// stream each query's scores into its consumer.
///
/// Scores are bit-identical to `vecops::dot(table.row(e), q)` for
/// every entity `e` — see the module docs. This is
/// [`scan_row_range`] over `0..table.rows()`.
pub fn scan_rows<C: BlockConsumer>(table: &Matrix, qvecs: &[f32], consumers: &mut [C]) {
    scan_row_range(table, 0..table.rows(), qvecs, consumers);
}

/// [`scan_rows`] restricted to the rows `rows` of `table` (clamped to
/// `table.rows()`): consumers see the same absolute row ids and
/// bit-identical scores as in a full scan, for rows of the range only.
///
/// Cache blocks start at `rows.start`, so a range that starts on a
/// multiple of [`BLOCK_ROWS`] tiles exactly like the full scan. Row
/// shards of one table pass can therefore run on different executors
/// and be merged afterwards (see [`merge_topk`]).
// audit:allow(E701): all indexing is structurally in bounds — row
// indices stay below the clamped end <= table.rows() (block loop
// bound), query offsets below consumers.len()*dim (qvecs length is
// debug-asserted), and scratch offsets below QTILE*BLOCK_ROWS
// (nb <= BLOCK_ROWS, t < QTILE)
pub fn scan_row_range<C: BlockConsumer>(
    table: &Matrix,
    rows: Range<usize>,
    qvecs: &[f32],
    consumers: &mut [C],
) {
    let dim = table.cols();
    let nq = consumers.len();
    debug_assert_eq!(qvecs.len(), nq * dim);
    let end = rows.end.min(table.rows());
    // Per-block score scratch, one BLOCK_ROWS stripe per tiled query:
    // 4 KiB on the stack, no heap traffic in the hot loop.
    let mut scores = [0.0f32; QTILE * BLOCK_ROWS];
    let mut base = rows.start;
    while base < end {
        let nb = BLOCK_ROWS.min(end - base);
        let mut qi = 0;
        // Register-tiled queries: each entity row is loaded once per
        // four queries while it is cache-hot.
        while qi + QTILE <= nq {
            let q0 = &qvecs[qi * dim..(qi + 1) * dim];
            let q1 = &qvecs[(qi + 1) * dim..(qi + 2) * dim];
            let q2 = &qvecs[(qi + 2) * dim..(qi + 3) * dim];
            let q3 = &qvecs[(qi + 3) * dim..(qi + 4) * dim];
            for r in 0..nb {
                let s = vecops::dot4(table.row(base + r), q0, q1, q2, q3);
                scores[r] = s[0];
                scores[BLOCK_ROWS + r] = s[1];
                scores[2 * BLOCK_ROWS + r] = s[2];
                scores[3 * BLOCK_ROWS + r] = s[3];
            }
            for t in 0..QTILE {
                consumers[qi + t].consume(base as u32, &scores[t * BLOCK_ROWS..][..nb]);
            }
            qi += QTILE;
        }
        // Remainder queries (nq mod 4), one at a time over the same
        // cache-hot block.
        while qi < nq {
            let q = &qvecs[qi * dim..(qi + 1) * dim];
            for r in 0..nb {
                scores[r] = vecops::dot(table.row(base + r), q);
            }
            consumers[qi].consume(base as u32, &scores[..nb]);
            qi += 1;
        }
        base += nb;
    }
}

/// One scored candidate, ordered "greater ranks higher": descending
/// score with NaN below every number
/// ([`cmp::nan_lowest_f32`]), ties broken toward the smaller id.
#[derive(Debug, Clone, Copy)]
pub struct Hit {
    /// Row (entity) id of the candidate.
    pub id: u32,
    /// Its score (higher is better).
    pub score: f32,
}

impl PartialEq for Hit {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Hit {}

impl Ord for Hit {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp::nan_lowest_f32(self.score, other.score).then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for Hit {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Streaming bounded top-k over one query's scores: a `k`-bounded
/// min-heap plus a forward cursor into a sorted (ascending) filter
/// list, fed block-by-block by [`scan_rows`].
///
/// Once the heap is full, a cached copy of the current worst member
/// rejects non-improving candidates with one float compare — the
/// common case on a large table — before ever touching the heap.
pub struct StreamTopK<'a> {
    k: usize,
    filt: &'a [u32],
    cursor: usize,
    heap: BinaryHeap<Reverse<Hit>>,
    /// Current worst heap member, valid while `heap.len() == k`.
    worst: Hit,
}

impl<'a> StreamTopK<'a> {
    /// Top-`k` sink skipping the ids in `filt` (sorted ascending).
    pub fn new(k: usize, filt: &'a [u32]) -> Self {
        StreamTopK {
            k,
            filt,
            cursor: 0,
            heap: BinaryHeap::with_capacity(k.saturating_add(1).min(4096)),
            worst: Hit {
                id: 0,
                score: f32::NAN,
            },
        }
    }

    /// Offer one candidate.
    #[inline]
    fn offer(&mut self, h: Hit) {
        if self.heap.len() < self.k {
            self.heap.push(Reverse(h));
            if self.heap.len() == self.k {
                if let Some(w) = self.heap.peek() {
                    self.worst = w.0;
                }
            }
            return;
        }
        // Fast reject: against a non-NaN worst member, a candidate
        // scoring strictly below it cannot enter, and a NaN candidate
        // ranks below every number so it cannot either. A NaN worst
        // falls through to the exact total-order compare.
        if !self.worst.score.is_nan() && (h.score < self.worst.score || h.score.is_nan()) {
            return;
        }
        if let Some(w) = self.heap.peek() {
            if h > w.0 {
                self.heap.pop();
                self.heap.push(Reverse(h));
                if let Some(nw) = self.heap.peek() {
                    self.worst = nw.0;
                }
            }
        }
    }

    /// Drain to a best-first vector.
    pub fn into_sorted(self) -> Vec<Hit> {
        // `into_sorted_vec` is ascending in `Reverse<Hit>`, i.e.
        // descending in `Hit` — best first.
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|r| r.0)
            .collect()
    }
}

impl BlockConsumer for StreamTopK<'_> {
    // audit:allow(E701): filt[cursor] is guarded by cursor < filt.len()
    // in both the loop condition and the short-circuit below it; k == 0
    // sinks never push (heap.len() < k is false and peek is None)
    fn consume(&mut self, base: u32, scores: &[f32]) {
        if self.k == 0 {
            return;
        }
        for (off, &score) in scores.iter().enumerate() {
            let id = base + off as u32;
            // Blocks arrive in ascending row order, so the filter
            // cursor only moves forward.
            while self.cursor < self.filt.len() && self.filt[self.cursor] < id {
                self.cursor += 1;
            }
            if self.cursor < self.filt.len() && self.filt[self.cursor] == id {
                continue;
            }
            self.offer(Hit { id, score });
        }
    }
}

/// Exact top-`k` of a row-sharded scan: merges per-shard best-first
/// lists (each the [`StreamTopK::into_sorted`] of one disjoint row
/// range, with the same `k`) into the best-first top-`k` of their
/// union, under the [`Hit`] total order.
///
/// Every member of the global top-`k` is in the top-`k` of its own
/// shard, so the result equals a single [`StreamTopK`] over the whole
/// table, ids and score bits alike, whatever the shard boundaries.
pub fn merge_topk<'a>(k: usize, parts: impl IntoIterator<Item = &'a [Hit]>) -> Vec<Hit> {
    let mut all: Vec<Hit> = parts.into_iter().flatten().copied().collect();
    // The parts are sorted runs; the stable sort merges runs in
    // O(n log parts). Row ranges are disjoint, so ids are unique and
    // the order is strict.
    all.sort_by(|a, b| b.cmp(a));
    all.truncate(k);
    all
}

/// Streaming filtered-rank tally for one evaluation query: counts
/// candidates scoring strictly above / exactly equal to the target's
/// score, skipping filtered ids and the target itself — the streaming
/// form of `eras_train::eval::filtered_rank` (`rank = 1 + #better +
/// #ties/2`, average-tie convention).
pub struct RankTally<'a> {
    target: u32,
    target_score: f32,
    filt: &'a [u32],
    cursor: usize,
    better: u64,
    ties: u64,
}

impl<'a> RankTally<'a> {
    /// Tally for `target` whose score is `target_score`, skipping the
    /// ids in `filt` (sorted ascending; the target is always kept).
    pub fn new(target: u32, target_score: f32, filt: &'a [u32]) -> Self {
        RankTally {
            target,
            target_score,
            filt,
            cursor: 0,
            better: 0,
            ties: 0,
        }
    }

    /// The filtered average-tie rank after the scan.
    pub fn rank(&self) -> f64 {
        1.0 + self.better as f64 + self.ties as f64 / 2.0
    }
}

impl BlockConsumer for RankTally<'_> {
    // audit:allow(E701): filt[cursor] is guarded by cursor < filt.len()
    // in both the loop condition and the short-circuit below it
    fn consume(&mut self, base: u32, scores: &[f32]) {
        for (off, &s) in scores.iter().enumerate() {
            let id = base + off as u32;
            if id == self.target {
                continue;
            }
            while self.cursor < self.filt.len() && self.filt[self.cursor] < id {
                self.cursor += 1;
            }
            if self.cursor < self.filt.len() && self.filt[self.cursor] == id {
                continue;
            }
            if s > self.target_score {
                self.better += 1;
            } else if s == self.target_score {
                self.ties += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Collects every score of a scan starting at row `lo` — the
    /// materializing reference consumer.
    struct Collect {
        lo: usize,
        scores: Vec<f32>,
    }

    impl Collect {
        fn sinks(lo: usize, nq: usize) -> Vec<Collect> {
            (0..nq)
                .map(|_| Collect {
                    lo,
                    scores: Vec::new(),
                })
                .collect()
        }
    }

    impl BlockConsumer for Collect {
        fn consume(&mut self, base: u32, scores: &[f32]) {
            assert_eq!(
                base as usize,
                self.lo + self.scores.len(),
                "blocks must be in order"
            );
            self.scores.extend_from_slice(scores);
        }
    }

    fn table_and_queries(rows: usize, dim: usize, nq: usize) -> (Matrix, Vec<f32>) {
        let mut rng = Rng::seed_from_u64(9);
        let table = Matrix::uniform_init(rows, dim, 1.0, &mut rng);
        let qvecs: Vec<f32> = (0..nq * dim).map(|_| rng.normal()).collect();
        (table, qvecs)
    }

    #[test]
    fn scan_matches_matvec_bitwise() {
        // Row counts straddling the block size, query counts straddling
        // the register tile.
        for (rows, nq) in [(1usize, 1usize), (7, 3), (256, 4), (300, 5), (513, 9)] {
            let dim = 16;
            let (table, qvecs) = table_and_queries(rows, dim, nq);
            let mut sinks = Collect::sinks(0, nq);
            scan_rows(&table, &qvecs, &mut sinks);
            let mut want = vec![0.0f32; rows];
            for (qi, sink) in sinks.iter().enumerate() {
                table.matvec(&qvecs[qi * dim..(qi + 1) * dim], &mut want);
                assert_eq!(sink.scores.len(), rows);
                for (e, (&got, &w)) in sink.scores.iter().zip(&want).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        w.to_bits(),
                        "rows={rows} nq={nq} q={qi} e={e}"
                    );
                }
            }
        }
    }

    /// Materializing reference top-k: sort every unfiltered hit.
    fn sorted_topk(hits: impl IntoIterator<Item = Hit>, k: usize) -> Vec<Hit> {
        let mut want: Vec<Hit> = hits.into_iter().collect();
        want.sort_by(|a, b| b.cmp(a));
        want.truncate(k);
        want
    }

    fn assert_hits_eq(got: &[Hit], want: &[Hit], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.id, w.id, "{ctx}");
            assert_eq!(g.score.to_bits(), w.score.to_bits(), "{ctx}");
        }
    }

    /// 400 scores with exact ties (ids 3, 17, 200) and a NaN (id 99),
    /// plus a filter list (3 is filtered, so 17 and 200 stay tied).
    fn tie_and_nan_scores() -> (Vec<f32>, Vec<u32>) {
        let rows = 400;
        let (table, qvecs) = table_and_queries(rows, 8, 1);
        let mut scores = vec![0.0f32; rows];
        table.matvec(&qvecs, &mut scores);
        scores[17] = scores[3];
        scores[200] = scores[3];
        scores[99] = f32::NAN;
        (scores, vec![3, 42, 399])
    }

    fn unfiltered_hits<'a>(scores: &'a [f32], filt: &'a [u32]) -> impl Iterator<Item = Hit> + 'a {
        scores
            .iter()
            .enumerate()
            .filter(|(i, _)| filt.binary_search(&(*i as u32)).is_err())
            .map(|(i, &s)| Hit {
                id: i as u32,
                score: s,
            })
    }

    #[test]
    fn stream_topk_matches_sort_reference() {
        let (scores, filt) = tie_and_nan_scores();
        for k in [1usize, 5, 50, 400, 1000] {
            let mut sink = StreamTopK::new(k, &filt);
            sink.consume(0, &scores);
            let want = sorted_topk(unfiltered_hits(&scores, &filt), k);
            assert_hits_eq(&sink.into_sorted(), &want, &format!("k={k}"));
        }
    }

    #[test]
    fn merge_topk_matches_sort_of_shard_union() {
        let (scores, filt) = tie_and_nan_scores();
        // Shard sizes put boundaries on the tie (17), the NaN (99,
        // 100) and the filtered ids, including one-row shards.
        for shard in [1usize, 7, 17, 99, 100, 256, 400] {
            for k in [1usize, 5, 50, 400, 1000] {
                let parts: Vec<Vec<Hit>> = (0..scores.len())
                    .step_by(shard)
                    .map(|lo| {
                        let hi = (lo + shard).min(scores.len());
                        let mut sink = StreamTopK::new(k, &filt);
                        sink.consume(lo as u32, &scores[lo..hi]);
                        sink.into_sorted()
                    })
                    .collect();
                // The union of every shard's unfiltered hits is the
                // whole table's.
                let got = merge_topk(k, parts.iter().map(Vec::as_slice));
                let want = sorted_topk(unfiltered_hits(&scores, &filt), k);
                assert_hits_eq(&got, &want, &format!("shard={shard} k={k}"));
            }
        }
    }

    #[test]
    fn row_range_scan_equals_slice_of_full_scan() {
        let (rows, dim, nq) = (513usize, 16usize, 5usize);
        let (table, qvecs) = table_and_queries(rows, dim, nq);
        let mut full = Collect::sinks(0, nq);
        scan_rows(&table, &qvecs, &mut full);
        // Unaligned starts and ends, block-aligned ranges, empty ranges
        // (including one at the table's end) and the full range.
        let ranges = [
            0..rows,
            0..0,
            300..300,
            rows..rows,
            0..1,
            3..300,
            255..257,
            256..512,
            100..513,
            500..rows,
        ];
        for range in ranges {
            let mut part = Collect::sinks(range.start, nq);
            scan_row_range(&table, range.clone(), &qvecs, &mut part);
            for (qi, (p, f)) in part.iter().zip(&full).enumerate() {
                let want = &f.scores[range.clone()];
                assert_eq!(p.scores.len(), want.len(), "{range:?} q={qi}");
                for (e, (g, w)) in p.scores.iter().zip(want).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "{range:?} q={qi} e={e}");
                }
            }
        }
    }

    #[test]
    fn stream_topk_threshold_survives_blockwise_feeding() {
        // Feed the same scores in two blocks; the cached worst-member
        // threshold must not reject candidates that beat the worst.
        let scores: Vec<f32> = (0..100).map(|i| (i as f32 * 0.7).sin()).collect();
        let mut whole = StreamTopK::new(10, &[]);
        whole.consume(0, &scores);
        let mut split = StreamTopK::new(10, &[]);
        split.consume(0, &scores[..37]);
        split.consume(37, &scores[37..]);
        let a = whole.into_sorted();
        let b = split.into_sorted();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    fn zero_k_collects_nothing() {
        let mut sink = StreamTopK::new(0, &[]);
        sink.consume(0, &[1.0, 2.0, 3.0]);
        assert!(sink.into_sorted().is_empty());
    }

    #[test]
    fn rank_tally_counts_better_and_ties() {
        // scores: e0..e4; target e3 (score 5.0); e1 better, e2 filtered
        // (mirrors the filtered_rank_basic test in eras-train).
        let scores = [1.0f32, 9.0, 7.0, 5.0, 2.0];
        let mut t = RankTally::new(3, scores[3], &[1, 2, 3]);
        t.consume(0, &scores);
        assert_eq!(t.rank(), 1.0);
        let mut u = RankTally::new(3, scores[3], &[3]);
        u.consume(0, &scores);
        assert_eq!(u.rank(), 3.0);
        // Constant scores → average rank.
        let flat = [0.5f32; 10];
        let mut v = RankTally::new(4, flat[4], &[4]);
        v.consume(0, &flat);
        assert_eq!(v.rank(), 1.0 + 9.0 / 2.0);
    }
}
