//! HolE — holographic embeddings (Nickel et al., 2016).
//!
//! The base model of the HolEX row in the paper's Table VI. The score is
//! the relation's projection of the *circular correlation* of head and
//! tail:
//!
//! ```text
//! score(h, r, t) = ⟨ r , h ⋆ t ⟩,   (h ⋆ t)_k = Σ_i h_i · t_{(i+k) mod d}
//! ```
//!
//! Rearranging gives the 1-vs-all query forms used here:
//! `score = ⟨ t , r ∗ h ⟩` (circular convolution) for tail queries and
//! `score = ⟨ h , r ⋆ t ⟩` for head queries, so scoring all candidates is
//! one `O(d²)` query-vector build plus a mat-vec — the same pattern as the
//! bilinear models. (Nickel et al. use FFTs for the `O(d log d)` version;
//! at `d ≤ 64` the direct form is simpler and comparably fast.)
//!
//! Interesting aside the tests pin down: HolE is equivalent to ComplEx up
//! to a constant factor (Hayashi & Shimbo, 2017), which is why its scores
//! can model all four relation patterns.

use crate::embeddings::Embeddings;
use crate::eval::QueryModel;
use crate::grads::SideGrads;
use crate::one_vs_all::{self, candidate_residuals, SampledModel, SampledSoftmax};
use eras_data::Triple;
use eras_linalg::Rng;

/// Circular correlation `(a ⋆ b)_k = Σ_i a_i b_{(i+k) mod d}`.
fn correlate(a: &[f32], b: &[f32], out: &mut [f32]) {
    let d = a.len();
    for k in 0..d {
        let mut acc = 0.0f32;
        for i in 0..d {
            acc += a[i] * b[(i + k) % d];
        }
        out[k] = acc;
    }
}

/// Circular convolution `(a ∗ b)_k = Σ_i a_i b_{(k−i) mod d}`.
fn convolve(a: &[f32], b: &[f32], out: &mut [f32]) {
    let d = a.len();
    for k in 0..d {
        let mut acc = 0.0f32;
        for i in 0..d {
            acc += a[i] * b[(k + d - i) % d];
        }
        out[k] = acc;
    }
}

/// HolE trainer (sampled-softmax 1-vs-all, analytic gradients).
#[derive(Debug, Clone)]
pub struct HolE {
    softmax: SampledSoftmax,
}

impl HolE {
    /// Create for the given embedding shapes.
    pub fn new(emb: &Embeddings, lr: f32, negatives: usize) -> Self {
        HolE {
            softmax: SampledSoftmax::new(emb, lr, negatives),
        }
    }

    /// One pass over the training set (both directions). Returns mean loss.
    pub fn train_epoch(&mut self, emb: &mut Embeddings, train: &[Triple], rng: &mut Rng) -> f32 {
        one_vs_all::train_epoch(self, emb, train, rng)
    }
}

impl QueryModel for HolE {
    /// `score(t) = ⟨t, r ∗ h⟩`.
    fn tail_query(&self, emb: &Embeddings, h: u32, r: u32, q: &mut [f32]) {
        convolve(emb.relation.row(r as usize), emb.entity.row(h as usize), q);
    }

    /// `score(h) = ⟨h, r ⋆ t⟩`.
    fn head_query(&self, emb: &Embeddings, t: u32, r: u32, q: &mut [f32]) {
        correlate(emb.relation.row(r as usize), emb.entity.row(t as usize), q);
    }
}

impl SampledModel for HolE {
    type Grads = SideGrads;

    fn new_grads(&self, dim: usize) -> SideGrads {
        SideGrads::new(dim)
    }

    fn side_grads(
        &self,
        emb: &Embeddings,
        anchor: u32,
        rel: u32,
        candidates: &[u32],
        tail_side: bool,
        g: &mut SideGrads,
    ) {
        let d = emb.dim();
        if tail_side {
            self.tail_query(emb, anchor, rel, &mut g.q);
        } else {
            self.head_query(emb, anchor, rel, &mut g.q);
        }
        candidate_residuals(emb, candidates, g);

        // Back through the correlation/convolution. Both are bilinear:
        // tail side, q = r ∗ a:  ∂⟨g,q⟩/∂r = g ⋆ a ;  ∂/∂a = r ⋆ g.
        // head side, q = r ⋆ a:  direct index forms, finite-difference
        // checked by the gradient contract.
        let a_row = emb.entity.row(anchor as usize);
        let r_row = emb.relation.row(rel as usize);
        let g_q = &g.g_q;
        if tail_side {
            // q_k = Σ_i r_i a_{(k−i)}: ∂/∂r_i = Σ_k g_k a_{(k−i)}.
            for i in 0..d {
                let mut acc_r = 0.0f32;
                let mut acc_a = 0.0f32;
                for k in 0..d {
                    acc_r += g_q[k] * a_row[(k + d - i) % d];
                    acc_a += g_q[k] * r_row[(k + d - i) % d];
                }
                g.rel[i] = acc_r;
                g.anchor[i] = acc_a;
            }
        } else {
            // q_k = Σ_i r_i a_{(i+k)}: ∂/∂r_i = Σ_k g_k a_{(i+k)};
            //                          ∂/∂a_j = Σ_k g_k r_{(j−k)}.
            for i in 0..d {
                let mut acc_r = 0.0f32;
                for k in 0..d {
                    acc_r += g_q[k] * a_row[(i + k) % d];
                }
                g.rel[i] = acc_r;
            }
            for j in 0..d {
                let mut acc_a = 0.0f32;
                for k in 0..d {
                    acc_a += g_q[k] * r_row[(j + d - k) % d];
                }
                g.anchor[j] = acc_a;
            }
        }
    }

    fn softmax(&mut self) -> &mut SampledSoftmax {
        &mut self.softmax
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::ScoreModel;
    use eras_linalg::softmax::log_loss_and_residual;
    use eras_linalg::vecops;

    #[test]
    fn correlation_and_convolution_identities() {
        // Correlation with the identity impulse reproduces the input.
        let e0 = [1.0f32, 0.0, 0.0, 0.0];
        let x = [0.5f32, -1.0, 2.0, 0.25];
        let mut out = [0.0f32; 4];
        correlate(&e0, &x, &mut out);
        assert_eq!(out, x);
        convolve(&e0, &x, &mut out);
        assert_eq!(out, x);
        // ⟨r, h ⋆ t⟩ = ⟨t, r ∗ h⟩ (the tail-query identity).
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..10 {
            let h: Vec<f32> = (0..6).map(|_| rng.normal()).collect();
            let r: Vec<f32> = (0..6).map(|_| rng.normal()).collect();
            let t: Vec<f32> = (0..6).map(|_| rng.normal()).collect();
            let mut ht = vec![0.0f32; 6];
            correlate(&h, &t, &mut ht);
            let lhs = vecops::dot(&r, &ht);
            let mut rh = vec![0.0f32; 6];
            convolve(&r, &h, &mut rh);
            let rhs = vecops::dot(&t, &rh);
            assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
        }
    }

    #[test]
    fn score_consistency_both_directions() {
        let mut rng = Rng::seed_from_u64(2);
        let emb = Embeddings::init(9, 2, 8, &mut rng);
        let model = HolE::new(&emb, 0.05, 4);
        let mut out = vec![0.0f32; 9];
        model.score_all_tails(&emb, 3, 1, &mut out);
        for t in 0..9u32 {
            let s = model.score_triple(&emb, Triple::new(3, 1, t));
            assert!((out[t as usize] - s).abs() < 1e-4);
        }
        model.score_all_heads(&emb, 5, 0, &mut out);
        for h in 0..9u32 {
            let s = model.score_triple(&emb, Triple::new(h, 0, 5));
            assert!((out[h as usize] - s).abs() < 1e-3, "head {h}");
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from_u64(3);
        let emb = Embeddings::init(6, 1, 4, &mut rng);
        let (h, _r, t) = (1u32, 0u32, 2u32);
        let loss_of = |e: &Embeddings| -> f32 {
            let mut q = vec![0.0f32; 4];
            convolve(e.relation.row(0), e.entity.row(h as usize), &mut q);
            let mut scores: Vec<f32> = (0..6).map(|c| vecops::dot(&q, e.entity.row(c))).collect();
            log_loss_and_residual(&mut scores, t as usize)
        };
        // Analytic relation gradient from the training math (full
        // candidates).
        let mut q = vec![0.0f32; 4];
        convolve(emb.relation.row(0), emb.entity.row(1), &mut q);
        let mut scores: Vec<f32> = (0..6).map(|c| vecops::dot(&q, emb.entity.row(c))).collect();
        let _ = log_loss_and_residual(&mut scores, t as usize);
        let mut g_q = vec![0.0f32; 4];
        for (c, &resid) in scores.iter().enumerate() {
            vecops::axpy(resid, emb.entity.row(c), &mut g_q);
        }
        let a_row = emb.entity.row(1);
        let mut grad_r = [0.0f32; 4];
        for i in 0..4 {
            for k in 0..4 {
                grad_r[i] += g_q[k] * a_row[(k + 4 - i) % 4];
            }
        }
        let eps = 1e-3f32;
        for i in 0..4 {
            let mut plus = emb.clone();
            plus.relation.as_mut_slice()[i] += eps;
            let mut minus = emb.clone();
            minus.relation.as_mut_slice()[i] -= eps;
            let fd = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);
            assert!(
                (fd - grad_r[i]).abs() < 2e-2,
                "grad_r[{i}]: fd {fd} vs analytic {}",
                grad_r[i]
            );
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = Rng::seed_from_u64(4);
        let mut emb = Embeddings::init(12, 2, 8, &mut rng);
        let train: Vec<Triple> = (0..10u32)
            .map(|i| Triple::new(i, i % 2, (i + 5) % 12))
            .collect();
        let mut model = HolE::new(&emb, 0.1, 6);
        let first = model.train_epoch(&mut emb, &train, &mut rng);
        let mut last = first;
        for _ in 0..30 {
            last = model.train_epoch(&mut emb, &train, &mut rng);
        }
        assert!(last < first, "loss {first} -> {last}");
    }
}
