//! The sampled 1-vs-all step shared by the query-vector comparators
//! (HolE, QuatE, MlpE).
//!
//! Each side of a training triple draws the target plus `negatives`
//! uniform entities, fills the model's [`SideGrads`] through its pure
//! `side_grads` kernel, steps every candidate row by `resid[c] · q`,
//! then the anchor row and the relation row. MlpE adds its network
//! updates through [`SampledModel::step_own`]. The models keep only
//! the math: the query vector and the chain rule back through it.

use crate::embeddings::Embeddings;
use crate::grads::SideGrads;
use eras_data::Triple;
use eras_linalg::optim::{Adagrad, Optimizer};
use eras_linalg::softmax::log_loss_and_residual;
use eras_linalg::{vecops, Rng};

/// The entity/relation Adagrad state and the negative count of a
/// sampled 1-vs-all trainer.
#[derive(Debug, Clone)]
pub(crate) struct SampledSoftmax {
    opt_entity: Adagrad,
    opt_relation: Adagrad,
    /// Negatives per positive.
    negatives: usize,
}

impl SampledSoftmax {
    /// Adagrad with learning rate `lr` (L2 `1e-5`) over both tables of
    /// `emb`.
    pub(crate) fn new(emb: &Embeddings, lr: f32, negatives: usize) -> Self {
        SampledSoftmax {
            opt_entity: Adagrad::new(emb.entity.as_slice().len(), lr, 1e-5),
            opt_relation: Adagrad::new(emb.relation.as_slice().len(), lr, 1e-5),
            negatives,
        }
    }
}

/// A model trained by the sampled 1-vs-all step.
pub(crate) trait SampledModel {
    /// The gradient buffers [`SampledModel::side_grads`] fills.
    type Grads: AsRef<SideGrads>;

    /// Zero-filled gradient buffers for embedding dimension `dim`.
    fn new_grads(&self, dim: usize) -> Self::Grads;

    /// Pure gradients of one 1-vs-all step over an explicit candidate
    /// list (`candidates[0]` is the target; `tail_side` picks the query
    /// direction). Reads `emb` and the model, writes only `g`; the
    /// training step and the gradient contract checker share it.
    fn side_grads(
        &self,
        emb: &Embeddings,
        anchor: u32,
        rel: u32,
        candidates: &[u32],
        tail_side: bool,
        g: &mut Self::Grads,
    );

    /// The optimizer state the step drives.
    fn softmax(&mut self) -> &mut SampledSoftmax;

    /// Step the parameters the model owns outside the embedding tables
    /// (MlpE's network) from `g`. None by default.
    fn step_own(&mut self, _g: &Self::Grads) {}
}

/// Score every candidate against `g.q` and fill the softmax residual
/// (target in slot 0), the loss and `g.g_q = Σ resid[slot] · E[c]`.
pub(crate) fn candidate_residuals(emb: &Embeddings, candidates: &[u32], g: &mut SideGrads) {
    g.resid.clear();
    g.resid.extend(
        candidates
            .iter()
            .map(|&c| vecops::dot(&g.q, emb.entity.row(c as usize))),
    );
    g.loss = log_loss_and_residual(&mut g.resid, 0);
    vecops::zero(&mut g.g_q);
    for (slot, &c) in candidates.iter().enumerate() {
        vecops::axpy(g.resid[slot], emb.entity.row(c as usize), &mut g.g_q);
    }
}

/// One pass over `train`: a tail-prediction and a head-prediction step
/// per triple. Returns the mean per-side loss.
pub(crate) fn train_epoch<M: SampledModel>(
    model: &mut M,
    emb: &mut Embeddings,
    train: &[Triple],
    rng: &mut Rng,
) -> f32 {
    if train.is_empty() {
        return 0.0;
    }
    let dim = emb.dim();
    let mut g = model.new_grads(dim);
    let mut candidates = Vec::new();
    let mut row_grad = vec![0.0f32; dim];
    let mut side = |emb: &mut Embeddings, anchor: u32, rel: u32, target: u32, tail_side: bool| {
        let ne = emb.num_entities();
        candidates.clear();
        candidates.push(target);
        for _ in 0..model.softmax().negatives {
            let mut c = rng.next_below(ne) as u32;
            if c == target {
                c = (c + 1) % ne as u32;
            }
            candidates.push(c);
        }
        model.side_grads(emb, anchor, rel, &candidates, tail_side, &mut g);
        let s = g.as_ref();
        let opt = model.softmax();
        for (slot, &c) in candidates.iter().enumerate() {
            vecops::scaled_copy(s.resid[slot], &s.q, &mut row_grad);
            opt.opt_entity
                .step_at(emb.entity.as_mut_slice(), c as usize * dim, &row_grad);
        }
        opt.opt_entity
            .step_at(emb.entity.as_mut_slice(), anchor as usize * dim, &s.anchor);
        opt.opt_relation
            .step_at(emb.relation.as_mut_slice(), rel as usize * dim, &s.rel);
        let loss = s.loss;
        model.step_own(&g);
        loss
    };
    let mut total = 0.0f32;
    for &t in train {
        total += side(emb, t.head, t.rel, t.tail, true);
        total += side(emb, t.tail, t.rel, t.head, false);
    }
    total / (2.0 * train.len() as f32)
}
