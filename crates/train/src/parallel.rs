//! Deterministic data-parallel minibatch training.
//!
//! [`train_minibatch_parallel`] is the pool-backed counterpart of
//! [`crate::block::train_minibatch`]. The sequential step interleaves
//! gradient computation with optimizer application per example; that
//! serialises on the optimizer state and, under [`LossMode::Full`],
//! pays an Adagrad sweep over *every* entity row per side. The
//! data-parallel step restructures the batch instead:
//!
//! 1. **Fixed sharding.** The batch is cut into `ceil(len / 32)` shards
//!    of [`SHARD_TRIPLES`] triples. Shard boundaries depend only on the
//!    batch length — never on the pool size — and shard `s` draws its
//!    negatives from an RNG derived from `(batch_base, s)`, so the work
//!    a shard does is a pure function of the shard index.
//! 2. **Snapshot gradients.** Every shard computes exact gradients
//!    against the batch-start embeddings into its own accumulator
//!    (entity/relation tables with touched-row tracking, so
//!    [`LossMode::Sampled`] shards stay sparse). No shard writes
//!    anything another shard reads.
//! 3. **Fixed tree reduction.** Shard accumulators are merged
//!    sequentially with stride doubling (`s[i] += s[i + stride]`,
//!    stride 1, 2, 4, …). Floating-point addition is not associative;
//!    fixing the reduction *tree* — not just the set of addends — is
//!    what makes the sums bit-identical for every pool size.
//! 4. **Single application.** The optimizer applies the merged gradient
//!    once per touched row in ascending row order.
//!
//! ## Bounded memory under `LossMode::Full`
//!
//! A full-softmax shard is dense: its entity accumulator spans the
//! whole table and its deferred outer products carry one residual per
//! entity per example side. Letting every shard of a large batch hold
//! that at once would cost memory linear in the batch length, so two
//! machine-independent constants bound it instead:
//!
//! - `FULL_FLUSH_SIDES` caps the deferred `p ⊗ q` buffer: a shard
//!   flushes after that many sides, in ascending side order, which
//!   leaves every per-element sum in exactly the same order as one big
//!   flush.
//! - `FULL_LIVE_SHARDS` caps how many dense shard accumulators are
//!   live at once: the batch runs as a sequence of *super-steps* over a
//!   fixed-size window of shard buffers. Each super-step tree-reduces
//!   its window, then folds it into a running batch accumulator in
//!   ascending step order. Window size and step order are constants of
//!   the batch length — never the pool size — so the overall reduction
//!   shape, and therefore every floating-point sum, stays bit-identical
//!   for every thread count.
//!
//! `LossMode::Sampled` shards are sparse (a few dozen rows each), so
//! they keep the single-window path with every shard live.
//! [`LossMode::NegSampling`] shards are sparse too, but they target
//! million-entity tables where even a sparse shard carries a
//! rows-sized slot map, so they run over their own bounded window
//! (`NEG_LIVE_SHARDS`). Sparse shards store only the rows they touch
//! (slot-compressed, see `GradTable`): a neg-sampling shard over a
//! million-entity table costs kilobytes of gradient rows, not the
//! 4·`N_e`·`d` bytes a dense accumulator would.
//!
//! The result is bit-identical for every thread count (the pool only
//! decides *which worker* runs a shard, never what the shard computes),
//! and the restructuring itself is the throughput win: under
//! `LossMode::Full` the per-side entity sweep collapses from a
//! `sqrt`/`div`-bound Adagrad pass over the whole table to two fused
//! `axpy` passes, with one Adagrad pass per *batch* instead of per
//! side.
//!
//! N3 regularisation is folded into the same batch gradient (evaluated
//! on the batch-start snapshot) rather than applied as a separate
//! post-batch pass like the sequential `apply_n3`.

use crate::block::{sides_for, BlockModel};
use crate::embeddings::Embeddings;
use crate::loss::LossMode;
use crate::negative::{sample_neg_block, NegCtx};
use eras_data::Triple;
use eras_linalg::optim::Optimizer;
use eras_linalg::pool::ThreadPool;
use eras_linalg::softmax::{self, log_loss_and_residual, neg_sampling_loss_and_residual};
use eras_linalg::{vecops, Rng};
use std::cell::UnsafeCell;

/// Triples per gradient shard. Shard count is `ceil(batch / 32)` — a
/// function of the batch length only, which is what keeps results
/// independent of the pool size.
pub const SHARD_TRIPLES: usize = 32;

/// Deferred outer-product group size under [`LossMode::Full`]: a shard
/// materialises its `p ⊗ q` sides every this-many sides instead of
/// buffering one residual row per side of the whole shard, capping
/// `p_rows` at `FULL_FLUSH_SIDES · num_entities` floats per shard.
/// Groups flush in ascending side order, so each gradient element
/// accumulates its sides in the same order as a single flush would —
/// the sums are bitwise unchanged.
const FULL_FLUSH_SIDES: usize = 8;

/// Maximum shard accumulators live at once under [`LossMode::Full`],
/// where each accumulator holds a dense `num_entities × dim` gradient
/// table. Batches with more shards run as a sequence of super-steps
/// over a window this wide, so a batch's footprint is bounded by a
/// constant independent of its length. This is a fixed constant — never
/// the pool size — so the reduction shape (and with it every
/// floating-point sum) remains a pure function of the batch length.
const FULL_LIVE_SHARDS: usize = 8;

/// Maximum shard accumulators live at once under
/// [`LossMode::NegSampling`]. Neg-sampling shards are sparse, but the
/// mode targets million-entity tables where every live shard still
/// carries a rows-sized row→slot map; bounding the window keeps the
/// batch footprint a constant multiple of the table's *row count*
/// rather than of the shard count. Like `FULL_LIVE_SHARDS` it is a
/// machine-independent constant, so the reduction shape stays a pure
/// function of the batch length.
const NEG_LIVE_SHARDS: usize = 8;

/// A gradient table with slot-compressed sparse storage: `grad` holds
/// one `dim`-row per *touched* row (first-touch order) and `slot_of`
/// maps a table row to its slot, so a sampled- or neg-sampling-mode
/// shard over a million-entity table costs memory proportional to the
/// rows it actually touches, never to the table. [`LossMode::Full`]
/// shards flip to a dense layout ([`GradTable::mark_dense`]) where row
/// `r` lives at offset `r·dim` — the deferred outer-product flush
/// writes the whole table anyway, and a direct offset beats a slot
/// lookup per row there.
#[derive(Default)]
struct GradTable {
    rows: usize,
    dim: usize,
    /// Active storage: `touched.len()·dim` floats (sparse layout) or
    /// `rows·dim` (dense layout).
    grad: Vec<f32>,
    /// Retained buffer for the other layout, so the sparse↔dense flip
    /// allocates once per table lifetime, not once per batch. All-zero
    /// whenever the table is sparse (restored by [`GradTable::clear`]).
    spare: Vec<f32>,
    /// Row → slot index into `grad`; `u32::MAX` marks untouched.
    slot_of: Vec<u32>,
    touched: Vec<u32>,
    dense: bool,
}

impl GradTable {
    fn ensure(&mut self, rows: usize, dim: usize) {
        if self.rows == rows && self.dim == dim {
            return;
        }
        self.rows = rows;
        self.dim = dim;
        self.grad = Vec::new();
        self.spare = Vec::new();
        self.slot_of = vec![u32::MAX; rows];
        self.touched = Vec::new();
        self.dense = false;
    }

    /// Assign `row` a slot (appending a zeroed gradient row) unless it
    /// already has one. In the dense layout every row is live already.
    #[inline]
    fn mark(&mut self, row: u32) {
        if self.dense {
            return;
        }
        if self.slot_of[row as usize] == u32::MAX {
            self.slot_of[row as usize] = self.touched.len() as u32;
            self.touched.push(row);
            self.grad.resize(self.grad.len() + self.dim, 0.0);
        }
    }

    /// Flip to the dense layout: scatter the sparse slots to their
    /// `r·dim` offsets in the (all-zero) spare buffer and swap. The
    /// flip moves values without touching any sum. Idempotent within a
    /// batch (the flag is reset by [`GradTable::clear`]).
    fn mark_dense(&mut self, rows: usize) {
        if self.dense {
            return;
        }
        let dim = self.dim;
        self.spare.resize(rows * dim, 0.0);
        for (slot, &r) in self.touched.iter().enumerate() {
            self.spare[r as usize * dim..(r as usize + 1) * dim]
                .copy_from_slice(&self.grad[slot * dim..(slot + 1) * dim]);
        }
        std::mem::swap(&mut self.grad, &mut self.spare);
        self.dense = true;
        self.touched.clear();
        self.touched.extend(0..rows as u32);
    }

    // audit:allow(E701): `at` is a dense row index or a slot assigned
    // by `mark`, both < the length the layout fixes
    #[inline]
    fn row(&self, row: usize, dim: usize) -> &[f32] {
        let at = if self.dense {
            row
        } else {
            self.slot_of[row] as usize
        };
        &self.grad[at * dim..(at + 1) * dim]
    }

    #[inline]
    fn row_mut(&mut self, row: usize, dim: usize) -> &mut [f32] {
        let at = if self.dense {
            row
        } else {
            self.slot_of[row] as usize
        };
        &mut self.grad[at * dim..(at + 1) * dim]
    }

    /// `self[r] += src[r]` for every row `src` touched. Row values are
    /// independent, so the merge order of rows cannot affect the sums.
    /// A dense source merges as one whole-table add — the same
    /// element-wise sums as the row loop, minus the per-row marking.
    fn merge_from(&mut self, src: &GradTable, dim: usize) {
        if src.dense {
            self.mark_dense(src.rows);
            for (d, &v) in self.grad.iter_mut().zip(&src.grad) {
                *d += v;
            }
            return;
        }
        for (slot, &r) in src.touched.iter().enumerate() {
            self.mark(r);
            let s = &src.grad[slot * dim..(slot + 1) * dim];
            for (d, &v) in self.row_mut(r as usize, dim).iter_mut().zip(s) {
                *d += v;
            }
        }
    }

    /// Restore the empty-table invariant the next batch relies on: the
    /// sparse layout just truncates (new marks push freshly zeroed
    /// rows), the dense layout re-zeroes the big buffer and parks it in
    /// `spare` so the next flip reuses it without reallocating.
    fn clear(&mut self) {
        if self.dense {
            vecops::zero(&mut self.grad);
            std::mem::swap(&mut self.grad, &mut self.spare);
            self.grad.clear();
            self.slot_of.fill(u32::MAX);
            self.touched.clear();
            self.dense = false;
            return;
        }
        for &r in &self.touched {
            self.slot_of[r as usize] = u32::MAX;
        }
        self.touched.clear();
        self.grad.clear();
    }
}

/// One shard's accumulators plus its private work buffers.
#[derive(Default)]
struct Shard {
    entity: GradTable,
    relation: GradTable,
    loss: f32,
    /// Loss-term sides accumulated — the batch-mean divisor. Bernoulli
    /// corruption trains one side per triple; every other mode two.
    sides: u32,
    q: Vec<f32>,
    g_q: Vec<f32>,
    scores: Vec<f32>,
    candidates: Vec<u32>,
    /// Deferred `LossMode::Full` outer products: side `s` stores its
    /// residual row `p_s` (one scalar per entity) and query `q_s` here,
    /// and [`Shard::flush_full`] materialises `G += Σ_s p_s ⊗ q_s` in
    /// one table-resident pass per shard instead of a read-modify-write
    /// of the whole gradient table per side.
    p_rows: Vec<f32>,
    q_rows: Vec<f32>,
    n_sides: usize,
    g_q_b: Vec<f32>,
}

impl Shard {
    /// Accumulate exact gradients for `triples` against the snapshot
    /// `emb`, mirroring the math of `train_side` for both directions.
    #[allow(clippy::too_many_arguments)]
    fn accumulate(
        &mut self,
        model: &BlockModel,
        emb: &Embeddings,
        triples: &[Triple],
        mode: LossMode,
        neg: Option<&NegCtx>,
        n3_lambda: f32,
        rng: &mut Rng,
    ) {
        self.entity.ensure(emb.num_entities(), emb.dim());
        self.relation.ensure(emb.num_relations(), emb.dim());
        self.q.resize(emb.dim(), 0.0);
        self.g_q.resize(emb.dim(), 0.0);
        self.g_q_b.resize(emb.dim(), 0.0);
        self.loss = 0.0;
        self.sides = 0;
        if matches!(mode, LossMode::Full) {
            let sides = (2 * triples.len()).min(FULL_FLUSH_SIDES);
            self.p_rows.resize(sides * emb.num_entities(), 0.0);
            self.q_rows.resize(sides * emb.dim(), 0.0);
            self.n_sides = 0;
        }
        for &t in triples {
            let (tail_side, head_side) = sides_for(mode, neg, t, rng);
            if tail_side {
                self.loss += self.side(model, emb, false, t.head, t.rel, t.tail, mode, neg, rng);
                self.sides += 1;
            }
            if head_side {
                self.loss += self.side(model, emb, true, t.tail, t.rel, t.head, mode, neg, rng);
                self.sides += 1;
            }
            if n3_lambda > 0.0 {
                self.accumulate_n3(emb, t, n3_lambda);
            }
        }
        if matches!(mode, LossMode::Full) {
            self.flush_full(emb.num_entities(), emb.dim());
        }
    }

    /// One 1-vs-all direction: residuals into candidate entity rows,
    /// chain rule through `q` into the anchor and relation rows.
    #[allow(clippy::too_many_arguments)]
    fn side(
        &mut self,
        model: &BlockModel,
        emb: &Embeddings,
        transposed: bool,
        anchor: u32,
        rel: u32,
        target: u32,
        mode: LossMode,
        neg: Option<&NegCtx>,
        rng: &mut Rng,
    ) -> f32 {
        let dim = emb.dim();
        let num_entities = emb.num_entities();
        let sf = if transposed {
            model.sf_for_transposed(rel)
        } else {
            model.sf_for(rel)
        };
        let x = emb.entity.row(anchor as usize);
        let r_row = emb.relation.row(rel as usize);
        model.query_with(sf, x, r_row, &mut self.q);

        vecops::zero(&mut self.g_q);
        let loss = match mode {
            LossMode::Full => {
                // Side group full: materialise the deferred outer
                // products before claiming a new slot. Ascending side
                // order per group keeps every element's sum order
                // identical to one big flush.
                if self.n_sides * num_entities >= self.p_rows.len() {
                    self.flush_full(num_entities, dim);
                }
                self.scores.resize(num_entities, 0.0);
                emb.entity.matvec(&self.q, &mut self.scores);
                // Fast softmax: scores become unnormalised exp values;
                // the 1/Σ normalisation folds into each row's gradient
                // scalar below instead of costing its own pass.
                let (loss, inv) = softmax::log_loss_exp_scale(&mut self.scores, target as usize);
                // One pass over the entity table yields g_q (= Eᵀ·p)
                // and records the residual scalars — the per-row grads
                // `p_c·q` are *deferred* to [`Shard::flush_full`], so
                // the gradient table is written once per shard instead
                // of read-modify-written once per side. Rows go two at
                // a time with split g_q accumulators so the two
                // streams stay independent; the combine order is
                // fixed, keeping the result a pure function of the
                // input.
                let s_idx = self.n_sides;
                self.n_sides += 1;
                let p_row = &mut self.p_rows[s_idx * num_entities..(s_idx + 1) * num_entities];
                self.q_rows[s_idx * dim..(s_idx + 1) * dim].copy_from_slice(&self.q);
                {
                    let gq = &mut self.g_q[..dim];
                    let gqb = &mut self.g_q_b[..dim];
                    let mut pi = p_row.chunks_exact_mut(2);
                    let mut ei = emb.entity.as_slice().chunks_exact(2 * dim);
                    let mut si = self.scores.chunks_exact(2);
                    for ((p2, e2), s2) in (&mut pi).zip(&mut ei).zip(&mut si) {
                        let r0 = s2[0] * inv;
                        let r1 = s2[1] * inv;
                        p2[0] = r0;
                        p2[1] = r1;
                        let (e0, e1) = e2.split_at(dim);
                        vecops::axpy(r0, e0, gq);
                        vecops::axpy(r1, e1, gqb);
                    }
                    for ((p, e_row), &s) in pi
                        .into_remainder()
                        .iter_mut()
                        .zip(ei.remainder().chunks_exact(dim))
                        .zip(si.remainder())
                    {
                        let r = s * inv;
                        *p = r;
                        vecops::axpy(r, e_row, gq);
                    }
                    vecops::axpy(1.0, gqb, gq);
                    vecops::zero(gqb);
                }
                // The pass used p (softmax) rather than the residual
                // p − onehot; subtract the one-hot column here.
                p_row[target as usize] -= 1.0;
                vecops::axpy(-1.0, emb.entity.row(target as usize), &mut self.g_q);
                loss
            }
            LossMode::Sampled { negatives } => {
                self.candidates.clear();
                self.candidates.push(target);
                for _ in 0..negatives {
                    let mut c = rng.next_below(num_entities) as u32;
                    if c == target {
                        c = (c + 1) % num_entities as u32;
                    }
                    self.candidates.push(c);
                }
                self.scores.resize(self.candidates.len(), 0.0);
                for slot in 0..self.candidates.len() {
                    let c = self.candidates[slot] as usize;
                    self.scores[slot] = vecops::dot(&self.q, emb.entity.row(c));
                }
                let loss = log_loss_and_residual(&mut self.scores, 0);
                // self.scores now holds resid = softmax − onehot.
                for slot in 0..self.candidates.len() {
                    let c = self.candidates[slot] as usize;
                    let resid = self.scores[slot];
                    self.entity.mark(c as u32);
                    vecops::axpy(resid, emb.entity.row(c), &mut self.g_q);
                    vecops::axpy(resid, &self.q, self.entity.row_mut(c, dim));
                }
                loss
            }
            LossMode::NegSampling {
                negatives,
                gamma,
                adversarial_temp,
                ..
            } => {
                // Slot 0 is the positive; the filtered negative block
                // corrupts the side being predicted (tail unless this
                // is the transposed/head-prediction direction) — the
                // same math as the sequential `train_side` arm.
                self.candidates.clear();
                self.candidates.push(target);
                self.candidates.resize(1 + negatives, 0);
                sample_neg_block(
                    anchor,
                    rel,
                    target,
                    !transposed,
                    num_entities,
                    neg.map(|n| n.filter),
                    rng,
                    &mut self.candidates[1..],
                );
                self.scores.resize(self.candidates.len(), 0.0);
                for slot in 0..self.candidates.len() {
                    let c = self.candidates[slot] as usize;
                    self.scores[slot] = vecops::dot(&self.q, emb.entity.row(c));
                }
                let loss =
                    neg_sampling_loss_and_residual(&mut self.scores, gamma, adversarial_temp);
                // self.scores now holds the per-candidate ∂L/∂s.
                for slot in 0..self.candidates.len() {
                    let c = self.candidates[slot] as usize;
                    let resid = self.scores[slot];
                    self.entity.mark(c as u32);
                    vecops::axpy(resid, emb.entity.row(c), &mut self.g_q);
                    vecops::axpy(resid, &self.q, self.entity.row_mut(c, dim));
                }
                loss
            }
        };

        self.entity.mark(anchor);
        self.relation.mark(rel);
        model.backprop_query(
            sf,
            x,
            r_row,
            &self.g_q,
            self.entity.row_mut(anchor as usize, dim),
            self.relation.row_mut(rel as usize, dim),
        );
        loss
    }

    /// N3 gradient `3λ·sign(x)·x²` for the factor rows of `t`,
    /// evaluated on the batch-start snapshot.
    fn accumulate_n3(&mut self, emb: &Embeddings, t: Triple, lambda: f32) {
        let dim = emb.dim();
        for &e in &[t.head, t.tail] {
            self.entity.mark(e);
            let dst = self.entity.row_mut(e as usize, dim);
            for (g, &x) in dst.iter_mut().zip(emb.entity.row(e as usize)) {
                *g += 3.0 * lambda * x * x * x.signum();
            }
        }
        self.relation.mark(t.rel);
        let dst = self.relation.row_mut(t.rel as usize, dim);
        for (g, &x) in dst.iter_mut().zip(emb.relation.row(t.rel as usize)) {
            *g += 3.0 * lambda * x * x * x.signum();
        }
    }

    /// Materialise the deferred `LossMode::Full` entity gradients:
    /// `G_c += Σ_s p_s[c] · q_s`, entity rows outermost so each row
    /// stays cache-resident across all sides of the shard. The side
    /// order `s` is ascending — fixed — so the sums are a pure
    /// function of the shard's input.
    fn flush_full(&mut self, num_entities: usize, dim: usize) {
        if self.n_sides == 0 {
            return;
        }
        self.entity.mark_dense(num_entities);
        let q_rows = &self.q_rows[..self.n_sides * dim];
        for (c, g_row) in self
            .entity
            .grad
            .chunks_exact_mut(dim)
            .enumerate()
            .take(num_entities)
        {
            for (s, q_s) in q_rows.chunks_exact(dim).enumerate() {
                vecops::axpy(self.p_rows[s * num_entities + c], q_s, g_row);
            }
        }
        self.n_sides = 0;
    }

    fn merge_from(&mut self, src: &Shard, dim: usize) {
        self.loss += src.loss;
        self.sides += src.sides;
        self.entity.merge_from(&src.entity, dim);
        self.relation.merge_from(&src.relation, dim);
    }

    fn clear(&mut self) {
        self.loss = 0.0;
        self.sides = 0;
        self.entity.clear();
        self.relation.clear();
    }
}

/// Reusable per-shard accumulators for [`train_minibatch_parallel`] —
/// one set per trainer, sized lazily (the data-parallel analogue of
/// [`crate::block::BlockScratch`]).
#[derive(Default)]
pub struct GradShards {
    /// Live shard buffers — the window one super-step accumulates into.
    shards: Vec<UnsafeCell<Shard>>,
    /// Running batch total: each super-step's reduced window folds into
    /// here (ascending step order), and the optimizer reads from here.
    root: Shard,
}

impl GradShards {
    /// Fresh accumulator set; shards are allocated on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        while self.shards.len() < n {
            self.shards.push(UnsafeCell::new(Shard::default()));
        }
    }
}

/// Shared view of the shard cells for the parallel region.
struct ShardCells<'a>(&'a [UnsafeCell<Shard>]);
// SAFETY: pool task index `s` is claimed by exactly one executor and
// touches exactly `cells.0[s]`; no two tasks alias a shard.
// audit:allow(W406): per-index exclusive access under the pool barrier
unsafe impl Sync for ShardCells<'_> {}

impl ShardCells<'_> {
    /// SAFETY: the caller must be the sole accessor of shard `s` for
    /// the lifetime of the returned borrow. Accessed through a method
    /// so closures capture the `Sync` wrapper, not its non-Sync field
    /// (edition 2021 closures capture fields precisely).
    #[allow(clippy::mut_from_ref)]
    unsafe fn shard(&self, s: usize) -> &mut Shard {
        // SAFETY: exclusivity is the caller's contract (doc above).
        unsafe { &mut *self.0[s].get() }
    }
}

/// One data-parallel pass over a minibatch: shard gradients on the
/// pool, tree-reduce, apply once. Returns the mean per-side loss.
///
/// Bit-identical for every pool size — see the module docs for the
/// argument. N3 regularisation (`n3_lambda > 0`) is folded into the
/// batch gradient. `neg` supplies the filtered-negative context for
/// [`LossMode::NegSampling`]; `None` falls back to target-excluded
/// uniform sampling.
#[allow(clippy::too_many_arguments)]
pub fn train_minibatch_parallel(
    model: &BlockModel,
    emb: &mut Embeddings,
    opt_entity: &mut dyn Optimizer,
    opt_relation: &mut dyn Optimizer,
    batch: &[Triple],
    mode: LossMode,
    neg: Option<&NegCtx>,
    n3_lambda: f32,
    rng: &mut Rng,
    pool: &ThreadPool,
    state: &mut GradShards,
) -> f32 {
    if batch.is_empty() {
        return 0.0;
    }
    let dim = emb.dim();
    let num_shards = batch.len().div_ceil(SHARD_TRIPLES);
    // Full-softmax shards are dense, so only a bounded window of them
    // is live at once and the batch runs as super-steps over that
    // window; sampled shards are sparse and all stay live. The window
    // size is a machine-independent constant, keeping the reduction
    // shape a pure function of the batch length.
    let window = match mode {
        LossMode::Full => num_shards.min(FULL_LIVE_SHARDS),
        LossMode::Sampled { .. } => num_shards,
        LossMode::NegSampling { .. } => num_shards.min(NEG_LIVE_SHARDS),
    };
    state.ensure(window);
    // One parent draw per batch; shard RNGs derive from (base, s) the
    // same way `Rng::fork` mixes streams, so the negative samples a
    // shard draws are a function of the shard index alone.
    let base = rng.next_u64();

    let GradShards { shards, root } = state;
    root.entity.ensure(emb.num_entities(), dim);
    root.relation.ensure(emb.num_relations(), dim);

    let mut step_base = 0;
    while step_base < num_shards {
        let count = window.min(num_shards - step_base);
        {
            let emb_ref: &Embeddings = emb;
            let cells = ShardCells(&shards[..count]);
            let cells_ref = &cells;
            pool.run(count, |k| {
                // SAFETY: task `k` is the sole accessor of buffer `k`.
                let shard = unsafe { cells_ref.shard(k) };
                let s = step_base + k;
                let lo = s * SHARD_TRIPLES;
                let hi = (lo + SHARD_TRIPLES).min(batch.len());
                let mut srng =
                    Rng::seed_from_u64(base ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                shard.accumulate(
                    model,
                    emb_ref,
                    &batch[lo..hi],
                    mode,
                    neg,
                    n3_lambda,
                    &mut srng,
                );
            });
        }

        // Fixed tree reduction within the super-step: stride doubling
        // on the buffer index (= shard index offset by `step_base`).
        // The tree shape depends only on the step's shard count, so the
        // floating-point sums are bit-identical regardless of how the
        // pool scheduled the shards above.
        let mut stride = 1;
        while stride < count {
            let mut i = 0;
            while i + stride < count {
                // SAFETY: `i != i + stride`; both cells are exclusively
                // ours (the parallel region is over).
                let (dst, src) = unsafe { (&mut *shards[i].get(), &*shards[i + stride].get()) };
                dst.merge_from(src, dim);
                i += 2 * stride;
            }
            stride *= 2;
        }

        // Fold the reduced super-step into the running batch total —
        // ascending step order, another fixed shape — and re-zero the
        // window for the next step.
        // SAFETY: the parallel region is over; this thread owns cell 0.
        root.merge_from(unsafe { &*shards[0].get() }, dim);
        for cell in &mut shards[..count] {
            cell.get_mut().clear();
        }
        step_base += count;
    }

    // Apply the merged gradient once per touched row, ascending — a
    // fixed order, and one optimizer pass per batch instead of one per
    // example side.
    root.entity.touched.sort_unstable();
    root.relation.touched.sort_unstable();
    for &r in &root.entity.touched {
        opt_entity.step_at(
            emb.entity.as_mut_slice(),
            r as usize * dim,
            root.entity.row(r as usize, dim),
        );
    }
    for &r in &root.relation.touched {
        opt_relation.step_at(
            emb.relation.as_mut_slice(),
            r as usize * dim,
            root.relation.row(r as usize, dim),
        );
    }
    // Divide by the sides actually trained: 2·len for every mode but
    // Bernoulli corruption, which draws one side per triple.
    let mean = root.loss / root.sides.max(1) as f32;

    // Restore the all-zero invariant for the next batch.
    root.clear();
    mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::evaluate_loss;
    use crate::loss::Corruption;
    use eras_data::FilterIndex;
    use eras_linalg::Adagrad;
    use eras_sf::zoo;

    fn planted(n: usize) -> Vec<Triple> {
        (0..n as u32)
            .map(|i| Triple::new(i % 40, i % 3, (i * 7 + 1) % 40))
            .collect()
    }

    fn run_training(
        pool_size: usize,
        mode: LossMode,
        n3: f32,
        batch_len: usize,
        steps: usize,
    ) -> (Embeddings, f32) {
        let pool = ThreadPool::new(pool_size);
        let mut rng = Rng::seed_from_u64(99);
        let mut emb = Embeddings::init(40, 3, 16, &mut rng);
        let model = BlockModel::universal(zoo::complex(), 3);
        let mut opt_e = Adagrad::new(emb.entity.as_slice().len(), 0.1, 1e-4);
        let mut opt_r = Adagrad::new(emb.relation.as_slice().len(), 0.1, 1e-4);
        let mut state = GradShards::new();
        let data = planted(batch_len);
        let filter = FilterIndex::from_triples(data.iter().copied());
        let neg_ctx = match mode {
            LossMode::NegSampling {
                corruption: Corruption::Bernoulli,
                ..
            } => NegCtx::bernoulli(&filter, &data, 3),
            _ => NegCtx::uniform(&filter),
        };
        let neg = matches!(mode, LossMode::NegSampling { .. }).then_some(&neg_ctx);
        let mut loss = 0.0;
        for _ in 0..steps {
            loss = train_minibatch_parallel(
                &model, &mut emb, &mut opt_e, &mut opt_r, &data, mode, neg, n3, &mut rng, &pool,
                &mut state,
            );
        }
        (emb, loss)
    }

    fn assert_bit_identical_across_pool_sizes(batch_len: usize, steps: usize) {
        for mode in [
            LossMode::Full,
            LossMode::Sampled { negatives: 8 },
            LossMode::NegSampling {
                negatives: 4,
                gamma: 6.0,
                adversarial_temp: 1.0,
                corruption: Corruption::Uniform,
            },
            LossMode::NegSampling {
                negatives: 4,
                gamma: 6.0,
                adversarial_temp: 0.0,
                corruption: Corruption::Bernoulli,
            },
        ] {
            let (ref_emb, ref_loss) = run_training(1, mode, 1e-3, batch_len, steps);
            for threads in [2usize, 3, 8] {
                let (emb, loss) = run_training(threads, mode, 1e-3, batch_len, steps);
                assert_eq!(
                    ref_emb.entity.as_slice(),
                    emb.entity.as_slice(),
                    "entity table diverged at {threads} threads ({mode:?})"
                );
                assert_eq!(
                    ref_emb.relation.as_slice(),
                    emb.relation.as_slice(),
                    "relation table diverged at {threads} threads ({mode:?})"
                );
                assert_eq!(ref_loss, loss, "loss diverged at {threads} threads");
            }
        }
    }

    #[test]
    fn bit_identical_across_pool_sizes() {
        assert_bit_identical_across_pool_sizes(100, 10);
    }

    #[test]
    fn bit_identical_across_pool_sizes_with_multiple_super_steps() {
        // 300 triples → 10 shards → two Full-mode super-steps over the
        // 8-wide window (the second with a partial count): the in-step
        // tree plus the cross-step fold must stay a pure function of
        // the batch length, for full and partial windows alike.
        assert!(300usize.div_ceil(SHARD_TRIPLES) > FULL_LIVE_SHARDS);
        assert_bit_identical_across_pool_sizes(300, 3);
    }

    #[test]
    fn full_mode_learns() {
        let pool = ThreadPool::new(4);
        let mut rng = Rng::seed_from_u64(7);
        let mut emb = Embeddings::init(40, 3, 16, &mut rng);
        let model = BlockModel::universal(zoo::complex(), 3);
        let data = planted(60);
        let before = evaluate_loss(&model, &emb, &data);
        let mut opt_e = Adagrad::new(emb.entity.as_slice().len(), 0.2, 0.0);
        let mut opt_r = Adagrad::new(emb.relation.as_slice().len(), 0.2, 0.0);
        let mut state = GradShards::new();
        for _ in 0..40 {
            train_minibatch_parallel(
                &model,
                &mut emb,
                &mut opt_e,
                &mut opt_r,
                &data,
                LossMode::Full,
                None,
                0.0,
                &mut rng,
                &pool,
                &mut state,
            );
        }
        let after = evaluate_loss(&model, &emb, &data);
        assert!(after < before * 0.8, "loss {before} -> {after}");
    }

    #[test]
    fn neg_sampling_mode_learns() {
        let pool = ThreadPool::new(4);
        let mut rng = Rng::seed_from_u64(13);
        let mut emb = Embeddings::init(40, 3, 16, &mut rng);
        let model = BlockModel::universal(zoo::complex(), 3);
        let data = planted(60);
        let filter = FilterIndex::from_triples(data.iter().copied());
        let neg_ctx = NegCtx::uniform(&filter);
        let mut opt_e = Adagrad::new(emb.entity.as_slice().len(), 0.2, 0.0);
        let mut opt_r = Adagrad::new(emb.relation.as_slice().len(), 0.2, 0.0);
        let mut state = GradShards::new();
        let mode = LossMode::NegSampling {
            negatives: 8,
            gamma: 4.0,
            adversarial_temp: 1.0,
            corruption: Corruption::Uniform,
        };
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..60 {
            last = train_minibatch_parallel(
                &model,
                &mut emb,
                &mut opt_e,
                &mut opt_r,
                &data,
                mode,
                Some(&neg_ctx),
                0.0,
                &mut rng,
                &pool,
                &mut state,
            );
            if step == 0 {
                first = last;
            }
        }
        assert!(last < first * 0.8, "neg-sampling loss {first} -> {last}");
    }

    #[test]
    fn sampled_mode_learns() {
        let pool = ThreadPool::new(3);
        let mut rng = Rng::seed_from_u64(11);
        let mut emb = Embeddings::init(40, 3, 16, &mut rng);
        let model = BlockModel::universal(zoo::simple(), 3);
        let data = planted(60);
        let before = evaluate_loss(&model, &emb, &data);
        let mut opt_e = Adagrad::new(emb.entity.as_slice().len(), 0.2, 0.0);
        let mut opt_r = Adagrad::new(emb.relation.as_slice().len(), 0.2, 0.0);
        let mut state = GradShards::new();
        for _ in 0..60 {
            train_minibatch_parallel(
                &model,
                &mut emb,
                &mut opt_e,
                &mut opt_r,
                &data,
                LossMode::Sampled { negatives: 8 },
                None,
                0.0,
                &mut rng,
                &pool,
                &mut state,
            );
        }
        let after = evaluate_loss(&model, &emb, &data);
        assert!(after < before, "loss {before} -> {after}");
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pool = ThreadPool::new(2);
        let mut rng = Rng::seed_from_u64(0);
        let mut emb = Embeddings::init(8, 2, 8, &mut rng);
        let before = emb.entity.as_slice().to_vec();
        let model = BlockModel::universal(zoo::distmult(4), 2);
        let mut opt_e = Adagrad::new(emb.entity.as_slice().len(), 0.1, 0.0);
        let mut opt_r = Adagrad::new(emb.relation.as_slice().len(), 0.1, 0.0);
        let mut state = GradShards::new();
        let loss = train_minibatch_parallel(
            &model,
            &mut emb,
            &mut opt_e,
            &mut opt_r,
            &[],
            LossMode::Full,
            None,
            0.0,
            &mut rng,
            &pool,
            &mut state,
        );
        assert_eq!(loss, 0.0);
        assert_eq!(emb.entity.as_slice(), &before[..]);
    }
}
