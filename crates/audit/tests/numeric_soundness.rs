//! Soundness fuzz for the numeric abstract-interpretation pass.
//!
//! The certificate's whole value is the *guarantee*: every concrete
//! score and gradient the training loop can produce under the declared
//! norm bounds lies inside the predicted interval. These tests check
//! that claim against the repo's real scoring path
//! ([`BlockModel::score_triple`]) and the analytic trilinear gradients,
//! at 10 000 random in-bounds embeddings per shipped preset.

use eras_audit::numeric::default_contract;
use eras_audit::sf_pass;
use eras_data::Triple;
use eras_linalg::{Matrix, Rng};
use eras_sf::numeric::{certify, NormBounds, Role, Var};
use eras_sf::BlockSf;
use eras_train::{BlockModel, Embeddings, QueryModel, ScoreModel};

const SAMPLES_PER_PRESET: usize = 10_000;

/// One random embedding triple inside the contract box.
fn sample_rows(dim: usize, bounds: NormBounds, rng: &mut Rng) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let e = bounds.entity_abs;
    let r = bounds.relation_abs;
    let row = |b: f32, rng: &mut Rng| (0..dim).map(|_| rng.uniform(-b, b)).collect::<Vec<f32>>();
    (row(e, rng), row(r, rng), row(e, rng))
}

/// Concrete analytic partial ∂score/∂(var at block-coordinate `k`),
/// computed straight from the trilinear definition — independently of
/// both the trainer's backprop and the abstract evaluator.
fn concrete_grad(sf: &BlockSf, h: &[f32], r: &[f32], t: &[f32], var: Var, k: usize) -> f64 {
    let bs = h.len() / sf.m();
    let mut g = 0.0f64;
    for (i, j, op) in sf.nonzero_cells() {
        let b = op.block().expect("nonzero") as usize;
        let s = op.sign() as f64;
        let (hk, rk, tk) = (
            h[i * bs + k] as f64,
            r[b * bs + k] as f64,
            t[j * bs + k] as f64,
        );
        let vb = var.block as usize;
        match var.role {
            Role::Head if vb == i => g += s * rk * tk,
            Role::Rel if vb == b => g += s * hk * tk,
            Role::Tail if vb == j => g += s * hk * rk,
            _ => {}
        }
    }
    g
}

#[test]
fn certified_intervals_contain_all_concrete_values() {
    let (bounds, dim) = default_contract();
    let mut rng = Rng::seed_from_u64(0x05EE_D800);
    for (name, sf) in sf_pass::default_corpus() {
        let cert = certify(&sf, bounds, dim);
        assert!(
            !cert.is_refuted(),
            "{name}: shipped presets must not be refuted"
        );
        let model = BlockModel::universal(sf.clone(), 1);
        let m = sf.m();
        let bs = dim / m;
        for sample in 0..SAMPLES_PER_PRESET {
            let (h, r, t) = sample_rows(dim, bounds, &mut rng);
            // Score through the repo's real path: entity rows 0 (head)
            // and 1 (tail), relation row 0.
            let emb = Embeddings {
                entity: Matrix::from_vec(2, dim, [h.clone(), t.clone()].concat()),
                relation: Matrix::from_vec(1, dim, r.clone()),
            };
            let score = model.score_triple(
                &emb,
                Triple {
                    head: 0,
                    rel: 0,
                    tail: 1,
                },
            );
            assert!(
                cert.score.contains(score as f64),
                "{name} sample {sample}: concrete score {score} escapes predicted {}",
                cert.score
            );
            // Every gradient coordinate of every variable block.
            for var in Var::all(m) {
                let predicted = cert.grad_for(var).expect("certificate covers every var");
                for k in 0..bs {
                    let g = concrete_grad(&sf, &h, &r, &t, var, k);
                    assert!(
                        predicted.contains(g),
                        "{name} sample {sample}: ∂f/∂{var}[{k}] = {g} escapes predicted {predicted}"
                    );
                }
            }
        }
    }
}

/// The score bound must also hold for the *query* vector the serving
/// scan streams over (per-coordinate |q| ≤ the certified query bound).
#[test]
fn query_coordinates_stay_inside_query_bound() {
    let (bounds, dim) = default_contract();
    let mut rng = Rng::seed_from_u64(0xC0FFEE);
    for (name, sf) in sf_pass::default_corpus() {
        let qbound = eras_sf::numeric::query_coord_abs_bound(&sf, bounds);
        let model = BlockModel::universal(sf.clone(), 1);
        for _ in 0..200 {
            let (h, r, _) = sample_rows(dim, bounds, &mut rng);
            let emb = Embeddings {
                entity: Matrix::from_vec(2, dim, [h.clone(), h.clone()].concat()),
                relation: Matrix::from_vec(1, dim, r.clone()),
            };
            let mut q = vec![0.0f32; dim];
            model.tail_query(&emb, 0, 0, &mut q);
            for (k, qk) in q.iter().enumerate() {
                assert!(
                    (qk.abs() as f64) <= qbound + 1e-6,
                    "{name}: |q[{k}]| = {} exceeds certified bound {qbound}",
                    qk.abs()
                );
            }
        }
    }
}
