//! MlpE — a small neural (NNM) scorer standing in for ConvE/HypER.
//!
//! The paper's Table VI includes neural-network models (ConvE, HypER)
//! that project `(h, r)` through a learned network and score candidates
//! by inner product with the projection. A 2-D convolution stack is out
//! of proportion for this reproduction (DESIGN.md §2); MlpE keeps the
//! family's defining structure — a learned nonlinear projection
//!
//! ```text
//! score(h, r, t) = ⟨ W₂ · relu(W₁ · [h ; r] + b₁) + b₂ , t ⟩
//! ```
//!
//! — with exact manual gradients through both layers (finite-difference
//! checked). Like ConvE it can model any relation pattern but pays a
//! `O(d·H)` projection per query and gives up the bilinear models'
//! algebraic regularisation, which is exactly the trade-off the paper's
//! taxonomy (Table I) attributes to NNMs.

use crate::embeddings::Embeddings;
use crate::eval::QueryModel;
use crate::grads::MlpSideGrads;
use crate::one_vs_all::{self, candidate_residuals, SampledModel, SampledSoftmax};
use eras_data::Triple;
use eras_linalg::optim::{Adagrad, Optimizer};
use eras_linalg::vecops;
use eras_linalg::{Matrix, Rng};

/// The MLP projection scorer.
#[derive(Debug, Clone)]
pub struct MlpE {
    /// First layer, `H × 2d`.
    w1: Matrix,
    /// First bias, `H`.
    b1: Vec<f32>,
    /// Second layer, `d × H`.
    w2: Matrix,
    /// Second bias, `d`.
    b2: Vec<f32>,
    hidden: usize,
    opt_w1: Adagrad,
    opt_b1: Adagrad,
    opt_w2: Adagrad,
    opt_b2: Adagrad,
    softmax: SampledSoftmax,
}

impl MlpE {
    /// Create with hidden width `hidden`.
    pub fn new(emb: &Embeddings, hidden: usize, lr: f32, negatives: usize, rng: &mut Rng) -> Self {
        let d = emb.dim();
        let w1 = Matrix::xavier_init(hidden, 2 * d, rng);
        let w2 = Matrix::xavier_init(d, hidden, rng);
        MlpE {
            opt_w1: Adagrad::new(w1.as_slice().len(), lr, 1e-5),
            opt_b1: Adagrad::new(hidden, lr, 0.0),
            opt_w2: Adagrad::new(w2.as_slice().len(), lr, 1e-5),
            opt_b2: Adagrad::new(d, lr, 0.0),
            softmax: SampledSoftmax::new(emb, lr, negatives),
            w1,
            b1: vec![0.0; hidden],
            w2,
            b2: vec![0.0; d],
            hidden,
        }
    }

    /// Forward pass: the post-ReLU hidden activations into `hid`, the
    /// query vector into `q`.
    fn project(&self, h: &[f32], r: &[f32], hid: &mut [f32], q: &mut [f32]) {
        let d = h.len();
        for j in 0..self.hidden {
            let row = self.w1.row(j);
            let z = vecops::dot(&row[..d], h) + vecops::dot(&row[d..], r) + self.b1[j];
            hid[j] = z.max(0.0);
        }
        q.copy_from_slice(&self.b2);
        for (i, qv) in q.iter_mut().enumerate() {
            *qv += vecops::dot(self.w2.row(i), hid);
        }
    }

    /// One pass over the training set: a tail-prediction step from
    /// `(h, r)` and a head-prediction step from `(t, r)` per triple,
    /// both through the same projection. Returns the mean per-side
    /// loss.
    pub fn train_epoch(&mut self, emb: &mut Embeddings, train: &[Triple], rng: &mut Rng) -> f32 {
        one_vs_all::train_epoch(self, emb, train, rng)
    }

    /// Hidden width `H`.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// The network parameters flattened as `[W1, b1, W2, b2]` (used for
    /// checkpointing and by the gradient contract checker).
    pub fn net_param_vec(&self) -> Vec<f32> {
        let mut v = Vec::with_capacity(
            self.w1.as_slice().len() + self.b1.len() + self.w2.as_slice().len() + self.b2.len(),
        );
        v.extend_from_slice(self.w1.as_slice());
        v.extend_from_slice(&self.b1);
        v.extend_from_slice(self.w2.as_slice());
        v.extend_from_slice(&self.b2);
        v
    }

    /// Restore network parameters from a `[W1, b1, W2, b2]` flat vector.
    /// Panics on a length mismatch.
    pub fn set_net_params(&mut self, v: &[f32]) {
        let (n1, nb1, n2) = (
            self.w1.as_slice().len(),
            self.b1.len(),
            self.w2.as_slice().len(),
        );
        assert_eq!(v.len(), n1 + nb1 + n2 + self.b2.len(), "bad param vector");
        self.w1.as_mut_slice().copy_from_slice(&v[..n1]);
        self.b1.copy_from_slice(&v[n1..n1 + nb1]);
        self.w2
            .as_mut_slice()
            .copy_from_slice(&v[n1 + nb1..n1 + nb1 + n2]);
        self.b2.copy_from_slice(&v[n1 + nb1 + n2..]);
    }
}

impl QueryModel for MlpE {
    fn tail_query(&self, emb: &Embeddings, h: u32, r: u32, q: &mut [f32]) {
        let mut hid = vec![0.0f32; self.hidden];
        self.project(
            emb.entity.row(h as usize),
            emb.relation.row(r as usize),
            &mut hid,
            q,
        );
    }

    /// Symmetric treatment: project `(t, r)` and score head candidates
    /// (MlpE trains both directions through the same network).
    fn head_query(&self, emb: &Embeddings, t: u32, r: u32, q: &mut [f32]) {
        self.tail_query(emb, t, r, q);
    }
}

impl SampledModel for MlpE {
    type Grads = MlpSideGrads;

    fn new_grads(&self, dim: usize) -> MlpSideGrads {
        MlpSideGrads::new(dim, self.hidden)
    }

    /// Both directions project `(anchor, rel)` the same way, so
    /// `tail_side` is unused. Layer gradients are the outer products
    /// documented on [`MlpSideGrads`].
    fn side_grads(
        &self,
        emb: &Embeddings,
        anchor: u32,
        rel: u32,
        candidates: &[u32],
        _tail_side: bool,
        g: &mut MlpSideGrads,
    ) {
        let d = emb.dim();
        let h_row = emb.entity.row(anchor as usize);
        let r_row = emb.relation.row(rel as usize);
        g.input[..d].copy_from_slice(h_row);
        g.input[d..].copy_from_slice(r_row);
        self.project(h_row, r_row, &mut g.hid, &mut g.side.q);
        candidate_residuals(emb, candidates, &mut g.side);

        // Layer 2: q = W2·hid + b2 → d_hid = W2ᵀ g_q, then the ReLU mask.
        vecops::zero(&mut g.d_hid);
        for i in 0..d {
            let gi = g.side.g_q[i];
            if gi != 0.0 {
                let row = self.w2.row(i);
                for j in 0..self.hidden {
                    g.d_hid[j] += gi * row[j];
                }
            }
        }
        for j in 0..self.hidden {
            if g.hid[j] <= 0.0 {
                g.d_hid[j] = 0.0;
            }
        }
        // Layer 1 chain rule into the anchor and relation rows.
        vecops::zero(&mut g.side.anchor);
        vecops::zero(&mut g.side.rel);
        for j in 0..self.hidden {
            let gz = g.d_hid[j];
            if gz == 0.0 {
                continue;
            }
            let row = self.w1.row(j);
            vecops::axpy(gz, &row[..d], &mut g.side.anchor);
            vecops::axpy(gz, &row[d..], &mut g.side.rel);
        }
    }

    fn softmax(&mut self) -> &mut SampledSoftmax {
        &mut self.softmax
    }

    /// W2 rows (`g_q[i] · hid`), b2, W1 rows (`d_hid[j] · input`), b1.
    fn step_own(&mut self, g: &MlpSideGrads) {
        let d = g.side.q.len();
        let mut w2_row_grad = vec![0.0f32; self.hidden];
        for i in 0..d {
            vecops::scaled_copy(g.side.g_q[i], &g.hid, &mut w2_row_grad);
            self.opt_w2
                .step_at(self.w2.as_mut_slice(), i * self.hidden, &w2_row_grad);
        }
        self.opt_b2.step_at(&mut self.b2, 0, &g.side.g_q);
        let mut w1_row_grad = vec![0.0f32; 2 * d];
        for j in 0..self.hidden {
            let gz = g.d_hid[j];
            if gz == 0.0 {
                continue;
            }
            vecops::scaled_copy(gz, &g.input, &mut w1_row_grad);
            self.opt_w1
                .step_at(self.w1.as_mut_slice(), j * 2 * d, &w1_row_grad);
        }
        self.opt_b1.step_at(&mut self.b1, 0, &g.d_hid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::ScoreModel;
    use eras_linalg::softmax::log_loss_and_residual;

    #[test]
    fn score_consistency() {
        let mut rng = Rng::seed_from_u64(1);
        let emb = Embeddings::init(9, 2, 8, &mut rng);
        let model = MlpE::new(&emb, 12, 0.05, 4, &mut rng);
        let mut out = vec![0.0f32; 9];
        model.score_all_tails(&emb, 3, 1, &mut out);
        for t in 0..9u32 {
            let s = model.score_triple(&emb, Triple::new(3, 1, t));
            assert!((out[t as usize] - s).abs() < 1e-4);
        }
    }

    #[test]
    fn gradients_match_finite_differences_on_w1() {
        let mut rng = Rng::seed_from_u64(2);
        let emb = Embeddings::init(6, 1, 4, &mut rng);
        let model = MlpE::new(&emb, 5, 0.05, 3, &mut rng);
        let (h, r, t) = (1u32, 0u32, 2u32);

        let loss_of = |m: &MlpE, e: &Embeddings| -> f32 {
            let mut q = vec![0.0f32; 4];
            m.tail_query(e, h, r, &mut q);
            let mut scores: Vec<f32> = (0..6).map(|c| vecops::dot(&q, e.entity.row(c))).collect();
            log_loss_and_residual(&mut scores, t as usize)
        };

        // Analytic: replicate the layer math with full candidates.
        let (mut hid, mut q) = (vec![0.0f32; 5], vec![0.0f32; 4]);
        model.project(emb.entity.row(1), emb.relation.row(0), &mut hid, &mut q);
        let mut scores: Vec<f32> = (0..6).map(|c| vecops::dot(&q, emb.entity.row(c))).collect();
        let _ = log_loss_and_residual(&mut scores, t as usize);
        let mut g_q = vec![0.0f32; 4];
        for (c, &resid) in scores.iter().enumerate() {
            vecops::axpy(resid, emb.entity.row(c), &mut g_q);
        }
        let mut d_hid = [0.0f32; 5];
        for i in 0..4 {
            for j in 0..5 {
                d_hid[j] += g_q[i] * model.w2.get(i, j);
            }
        }
        for j in 0..5 {
            if hid[j] <= 0.0 {
                d_hid[j] = 0.0;
            }
        }
        // dW1[j][k] = d_hid[j] * input[k] with input = [h ; r].
        let input: Vec<f32> = emb
            .entity
            .row(1)
            .iter()
            .chain(emb.relation.row(0))
            .copied()
            .collect();

        let eps = 1e-3f32;
        for (j, k) in [(0usize, 0usize), (2, 3), (4, 7), (1, 5)] {
            let analytic = d_hid[j] * input[k];
            let mut plus = model.clone();
            let idx = j * 8 + k;
            plus.w1.as_mut_slice()[idx] += eps;
            let mut minus = model.clone();
            minus.w1.as_mut_slice()[idx] -= eps;
            let fd = (loss_of(&plus, &emb) - loss_of(&minus, &emb)) / (2.0 * eps);
            assert!(
                (fd - analytic).abs() < 2e-2,
                "w1[{j},{k}]: fd {fd} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = Rng::seed_from_u64(3);
        let mut emb = Embeddings::init(12, 2, 8, &mut rng);
        let train: Vec<Triple> = (0..10u32)
            .map(|i| Triple::new(i, i % 2, (i + 3) % 12))
            .collect();
        let mut model = MlpE::new(&emb, 16, 0.1, 6, &mut rng);
        let first = model.train_epoch(&mut emb, &train, &mut rng);
        let mut last = first;
        for _ in 0..30 {
            last = model.train_epoch(&mut emb, &train, &mut rng);
        }
        assert!(last < first, "loss {first} -> {last}");
    }
}
