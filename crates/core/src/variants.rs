//! ERAS ablation variants (Section V-E, Table XI of the paper).
//!
//! | variant     | what changes                                                     |
//! |-------------|------------------------------------------------------------------|
//! | `Full`      | the real ERAS (with `N = 1` it is ERAS^{N=1})                     |
//! | `Los`       | reward = −validation loss instead of validation MRR               |
//! | `Dif`       | differentiable search: continuous architecture weights `A`       |
//! |             | updated by validation-loss gradients, NASP-style discretisation   |
//! | `Sig`       | single-level: the controller's reward is computed on *training*   |
//! |             | minibatches                                                       |
//! | `Pde`       | grouping frozen from a SimplE pre-training run                    |
//! | `Smt`       | grouping fixed to the semantic (ground-truth pattern) classes     |

use crate::config::ErasConfig;
use crate::supernet::Supernet;
use eras_ctrl::{LstmPolicy, ReinforceTrainer};
use eras_data::patterns::detect_patterns;
use eras_data::{Dataset, FilterIndex, Triple};
use eras_linalg::cmp::nan_last_desc_f64;
use eras_linalg::vecops;
use eras_linalg::{Matrix, Rng};
use eras_sf::{BlockSf, Op};
use eras_train::block::evaluate_loss;
use eras_train::trainer::{train_standalone, TrainConfig};
use eras_train::{BlockModel, Embeddings, QueryModel};

/// Which ERAS variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The full algorithm (Algorithm 2).
    Full,
    /// `ERAS^los`: −validation loss as the reward.
    Los,
    /// `ERAS^dif`: differentiable architecture weights (Appendix).
    Dif,
    /// `ERAS^sig`: single-level optimisation (reward on training data).
    Sig,
    /// `ERAS^pde`: grouping frozen from SimplE pre-training.
    Pde,
    /// `ERAS^smt`: grouping fixed to semantic pattern classes.
    Smt,
}

impl Variant {
    /// Every ablation variant, in Table XI order.
    pub fn ablations() -> [Variant; 5] {
        [
            Variant::Los,
            Variant::Dif,
            Variant::Sig,
            Variant::Pde,
            Variant::Smt,
        ]
    }

    /// Display / trace label.
    pub fn trace_name(self) -> &'static str {
        match self {
            Variant::Full => "ERAS",
            Variant::Los => "ERAS^los",
            Variant::Dif => "ERAS^dif",
            Variant::Sig => "ERAS^sig",
            Variant::Pde => "ERAS^pde",
            Variant::Smt => "ERAS^smt",
        }
    }

    /// Does the variant re-run EM clustering during search?
    pub fn dynamic_grouping(self) -> bool {
        !matches!(self, Variant::Pde | Variant::Smt)
    }

    /// Initial relation → group assignment.
    pub fn initial_assignment(
        self,
        dataset: &Dataset,
        filter: &FilterIndex,
        cfg: &ErasConfig,
        rng: &mut Rng,
    ) -> Vec<u8> {
        let nr = dataset.num_relations();
        if cfg.n_groups == 1 {
            return vec![0; nr];
        }
        match self {
            Variant::Pde => {
                // Brief SimplE pre-training, then one EM pass — frozen.
                let seed_sf = if cfg.m == 4 {
                    eras_sf::zoo::simple()
                } else {
                    eras_sf::zoo::distmult(cfg.m)
                };
                let model = BlockModel::universal(seed_sf, nr);
                let pre_cfg = TrainConfig {
                    dim: cfg.dim,
                    max_epochs: 5,
                    eval_every: 5,
                    patience: 1,
                    seed: cfg.seed ^ 0x9E37,
                    ..TrainConfig::default()
                };
                let outcome = train_standalone(&model, dataset, filter, &pre_cfg);
                crate::algorithm::em_assignment(&outcome.embeddings, cfg.n_groups, rng)
            }
            Variant::Smt => {
                let labels = if dataset.pattern_labels.is_empty() {
                    detect_patterns(dataset)
                } else {
                    dataset.pattern_labels.clone()
                };
                let all = eras_data::RelationPattern::all();
                labels
                    .iter()
                    .map(|l| {
                        let idx = all.iter().position(|p| p == l).unwrap_or(0);
                        (idx % cfg.n_groups) as u8
                    })
                    .collect()
            }
            _ => (0..nr)
                .map(|_| rng.next_below(cfg.n_groups) as u8)
                .collect(),
        }
    }
}

/// Strategy object for the "update architectures" step, covering both the
/// REINFORCE variants and the differentiable `Dif` path.
pub struct ArchUpdater {
    variant: Variant,
    supernet: Supernet,
    /// Continuous architecture weights for `Dif`, `V × (2M+1)`.
    dif_weights: Option<Matrix>,
    dif_lr: f32,
    /// Best architectures seen during search, by one-shot reward. These
    /// join the controller's samples as derivation candidates (step 8),
    /// where they are re-scored on the (larger) derivation batch.
    archive: Vec<(Vec<BlockSf>, f64)>,
    archive_enabled: bool,
}

/// Number of elite architectures retained in the search archive.
const ARCHIVE_CAPACITY: usize = 8;

impl ArchUpdater {
    /// Create the updater for a variant.
    pub fn new(variant: Variant, supernet: Supernet, cfg: &ErasConfig, rng: &mut Rng) -> Self {
        let dif_weights = if variant == Variant::Dif {
            Some(Matrix::uniform_init(
                supernet.num_slots(),
                supernet.vocab(),
                0.05,
                rng,
            ))
        } else {
            None
        };
        ArchUpdater {
            variant,
            supernet,
            dif_weights,
            dif_lr: cfg.ctrl_lr,
            archive: Vec::new(),
            archive_enabled: cfg.use_archive,
        }
    }

    /// The elite archive collected during search.
    pub fn archive(&self) -> impl Iterator<Item = &Vec<BlockSf>> {
        self.archive.iter().map(|(sfs, _)| sfs)
    }

    fn archive_offer(&mut self, sfs: &[BlockSf], reward: f64) {
        if !self.archive_enabled || reward <= 0.0 || self.archive.iter().any(|(a, _)| a == sfs) {
            return;
        }
        self.archive.push((sfs.to_vec(), reward));
        self.archive.sort_by(|a, b| nan_last_desc_f64(a.1, b.1));
        self.archive.truncate(ARCHIVE_CAPACITY);
    }

    /// Architecture used to score the next training minibatch.
    pub fn sample_for_training(&self, policy: &LstmPolicy, rng: &mut Rng) -> Vec<BlockSf> {
        match &self.dif_weights {
            Some(a) => self.discretize_with_exploration(a, rng),
            None => {
                let ep = policy.sample(self.supernet.num_slots(), 1.0, rng);
                self.supernet.decode(&ep.tokens)
            }
        }
    }

    /// Architecture candidates for the final derivation step.
    pub fn sample_for_derivation(&self, policy: &LstmPolicy, rng: &mut Rng) -> Vec<BlockSf> {
        match &self.dif_weights {
            Some(a) => self.discretize(a),
            None => {
                let ep = policy.sample(self.supernet.num_slots(), 1.0, rng);
                self.supernet.decode(&ep.tokens)
            }
        }
    }

    fn discretize(&self, a: &Matrix) -> Vec<BlockSf> {
        let tokens: Vec<usize> = (0..a.rows()).map(|v| vecops::argmax(a.row(v))).collect();
        self.supernet.decode(&tokens)
    }

    fn discretize_with_exploration(&self, a: &Matrix, rng: &mut Rng) -> Vec<BlockSf> {
        let mut tokens: Vec<usize> = (0..a.rows()).map(|v| vecops::argmax(a.row(v))).collect();
        // Light ε-exploration so the shared embeddings do not overfit one
        // architecture early in the search.
        for t in tokens.iter_mut() {
            if rng.bernoulli(0.05) {
                *t = rng.next_below(self.supernet.vocab());
            }
        }
        self.supernet.decode(&tokens)
    }

    /// One architecture-update step. Returns the best reward observed (for
    /// the search trace).
    #[allow(clippy::too_many_arguments)]
    pub fn update(
        &mut self,
        policy: &mut LstmPolicy,
        reinforce: &mut ReinforceTrainer,
        assignment: &[u8],
        emb: &Embeddings,
        dataset: &Dataset,
        filter: &FilterIndex,
        cfg: &ErasConfig,
        rng: &mut Rng,
    ) -> f64 {
        // The reward minibatch: validation for the bi-level variants,
        // training for the single-level ERAS^sig.
        let pool: &[Triple] = match self.variant {
            Variant::Sig => &dataset.train,
            _ => &dataset.valid,
        };
        let batch: Vec<Triple> = {
            let size = cfg.val_batch.min(pool.len());
            rng.sample_distinct(pool.len(), size)
                .into_iter()
                .map(|i| pool[i])
                .collect()
        };

        if self.dif_weights.is_some() {
            // ERAS^dif: gradient descent on the continuous weights using
            // the validation loss (Appendix of the paper).
            let supernet = self.supernet;
            let a = self.dif_weights.as_mut().expect("checked above");
            let current = {
                let tokens: Vec<usize> = (0..a.rows()).map(|v| vecops::argmax(a.row(v))).collect();
                supernet.decode(&tokens)
            };
            let grad = dif_arch_gradient(supernet, &current, assignment, emb, &batch);
            for (w, g) in a.as_mut_slice().iter_mut().zip(grad.as_slice()) {
                *w -= self.dif_lr * g;
            }
            let refreshed = {
                let tokens: Vec<usize> = (0..a.rows()).map(|v| vecops::argmax(a.row(v))).collect();
                supernet.decode(&tokens)
            };
            let reward =
                supernet.one_shot_reward(refreshed.clone(), assignment, emb, &batch, filter);
            self.archive_offer(&refreshed, reward);
            return reward;
        }

        // REINFORCE variants: sample U architectures, score, update θ.
        let mut episodes: Vec<(Vec<usize>, f64)> = Vec::with_capacity(cfg.u_samples);
        let mut best = f64::NEG_INFINITY;
        for _ in 0..cfg.u_samples {
            let ep = policy.sample(self.supernet.num_slots(), cfg.temperature, rng);
            let sfs = self.supernet.decode(&ep.tokens);
            let reward = match self.variant {
                Variant::Los => {
                    if self.supernet.satisfies_exploitative_constraint(&sfs) {
                        let model = BlockModel::relation_aware(sfs, assignment.to_vec());
                        -f64::from(evaluate_loss(&model, emb, &batch))
                    } else {
                        // Constraint violations get a clearly-bad reward
                        // (the MRR variants use 0, which is already the
                        // floor there; for −loss the floor must be below
                        // any attainable value).
                        -f64::from(emb.num_entities() as f32).ln() * 4.0
                    }
                }
                _ => {
                    let r =
                        self.supernet
                            .one_shot_reward(sfs.clone(), assignment, emb, &batch, filter);
                    self.archive_offer(&sfs, r);
                    r
                }
            };
            best = best.max(reward);
            episodes.push((ep.tokens, reward));
        }
        reinforce.update(policy, &episodes);
        best
    }
}

/// Gradient of the validation loss with respect to the architecture
/// weights `A` (Appendix, ERAS^dif).
///
/// Because `f_n` is linear in `A` (Eq. 8), `∂ℓ/∂A_{vk}` for slot
/// `v = (n, i, j)` and op `k = ±r_b` reduces to
/// `sign_k · ⟨h_i ⊙ r_b, g_q[j]⟩` with `g_q = Eᵀ(softmax − onehot)` — the
/// same residual the embedding step already uses. Both query directions
/// contribute.
fn dif_arch_gradient(
    supernet: Supernet,
    current: &[BlockSf],
    assignment: &[u8],
    emb: &Embeddings,
    batch: &[Triple],
) -> Matrix {
    let m = supernet.m;
    let dim = emb.dim();
    let bs = dim / m;
    let model = BlockModel::relation_aware(current.to_vec(), assignment.to_vec());
    let mut grad = Matrix::zeros(supernet.num_slots(), supernet.vocab());
    let mut q = vec![0.0f32; dim];
    let mut scores = vec![0.0f32; emb.num_entities()];
    let mut g_q = vec![0.0f32; dim];
    let mut had = vec![0.0f32; bs];

    for &t in batch {
        let group = assignment[t.rel as usize] as usize;
        let r = emb.relation.row(t.rel as usize);
        // Tail side.
        model.tail_query(emb, t.head, t.rel, &mut q);
        emb.entity.matvec(&q, &mut scores);
        let _ = eras_linalg::softmax::log_loss_and_residual(&mut scores, t.tail as usize);
        emb.entity.matvec_transpose(&scores, &mut g_q);
        let h = emb.entity.row(t.head as usize);
        for i in 0..m {
            for j in 0..m {
                let slot = group * m * m + i * m + j;
                for k in 1..supernet.vocab() {
                    let op = Op::from_index(k, m);
                    let b = op.block().expect("non-zero op") as usize;
                    vecops::hadamard(&h[i * bs..(i + 1) * bs], &r[b * bs..(b + 1) * bs], &mut had);
                    let val = op.sign() * vecops::dot(&had, &g_q[j * bs..(j + 1) * bs]);
                    grad.set(slot, k, grad.get(slot, k) + val);
                }
            }
        }
        // Head side (transposed structure).
        model.head_query(emb, t.tail, t.rel, &mut q);
        emb.entity.matvec(&q, &mut scores);
        let _ = eras_linalg::softmax::log_loss_and_residual(&mut scores, t.head as usize);
        emb.entity.matvec_transpose(&scores, &mut g_q);
        let tl = emb.entity.row(t.tail as usize);
        for i in 0..m {
            for j in 0..m {
                let slot = group * m * m + i * m + j;
                for k in 1..supernet.vocab() {
                    let op = Op::from_index(k, m);
                    let b = op.block().expect("non-zero op") as usize;
                    vecops::hadamard(
                        &tl[j * bs..(j + 1) * bs],
                        &r[b * bs..(b + 1) * bs],
                        &mut had,
                    );
                    let val = op.sign() * vecops::dot(&had, &g_q[i * bs..(i + 1) * bs]);
                    grad.set(slot, k, grad.get(slot, k) + val);
                }
            }
        }
    }
    if !batch.is_empty() {
        let inv = 1.0 / (2.0 * batch.len() as f32);
        vecops::scale(inv, grad.as_mut_slice());
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::run_eras;
    use eras_data::Preset;

    #[test]
    fn ablation_list_is_complete() {
        assert_eq!(Variant::ablations().len(), 5);
        let names: Vec<&str> = Variant::ablations()
            .iter()
            .map(|v| v.trace_name())
            .collect();
        assert!(names.contains(&"ERAS^dif"));
        assert!(names.contains(&"ERAS^smt"));
    }

    #[test]
    fn grouping_flags() {
        assert!(Variant::Full.dynamic_grouping());
        assert!(Variant::Sig.dynamic_grouping());
        assert!(!Variant::Pde.dynamic_grouping());
        assert!(!Variant::Smt.dynamic_grouping());
    }

    #[test]
    fn smt_assignment_follows_pattern_labels() {
        let dataset = Preset::Tiny.build(20);
        let filter = FilterIndex::build(&dataset);
        let cfg = ErasConfig {
            n_groups: 3,
            ..ErasConfig::fast()
        };
        let mut rng = Rng::seed_from_u64(0);
        let assignment = Variant::Smt.initial_assignment(&dataset, &filter, &cfg, &mut rng);
        assert_eq!(assignment.len(), dataset.num_relations());
        // Relations sharing a ground-truth pattern share a group.
        for (r1, &p1) in dataset.pattern_labels.iter().enumerate() {
            for (r2, &p2) in dataset.pattern_labels.iter().enumerate() {
                if p1 == p2 {
                    assert_eq!(assignment[r1], assignment[r2]);
                }
            }
        }
    }

    #[test]
    fn pde_assignment_is_frozen_and_valid() {
        let dataset = Preset::Tiny.build(24);
        let filter = FilterIndex::build(&dataset);
        let cfg = ErasConfig {
            n_groups: 3,
            ..ErasConfig::fast()
        };
        let mut rng = Rng::seed_from_u64(1);
        let a = Variant::Pde.initial_assignment(&dataset, &filter, &cfg, &mut rng);
        assert_eq!(a.len(), dataset.num_relations());
        assert!(a.iter().all(|&g| g < 3));
        // Frozen: the variant never re-runs EM during search.
        assert!(!Variant::Pde.dynamic_grouping());
        // And the pre-training-based clustering actually uses more than
        // one group on the multi-pattern tiny dataset.
        let distinct: std::collections::HashSet<u8> = a.iter().copied().collect();
        assert!(distinct.len() > 1, "degenerate clustering {a:?}");
    }

    #[test]
    fn single_group_assignment_is_trivial() {
        let dataset = Preset::Tiny.build(20);
        let filter = FilterIndex::build(&dataset);
        let cfg = ErasConfig {
            n_groups: 1,
            ..ErasConfig::fast()
        };
        let mut rng = Rng::seed_from_u64(0);
        for v in [Variant::Full, Variant::Pde, Variant::Smt] {
            let a = v.initial_assignment(&dataset, &filter, &cfg, &mut rng);
            assert!(a.iter().all(|&g| g == 0), "{v:?}");
        }
    }

    #[test]
    fn dif_variant_runs_end_to_end() {
        let dataset = Preset::Tiny.build(21);
        let filter = FilterIndex::build(&dataset);
        let cfg = ErasConfig {
            epochs: 4,
            n_groups: 2,
            ..ErasConfig::fast()
        };
        let outcome = run_eras(&dataset, &filter, &cfg, Variant::Dif);
        assert_eq!(outcome.sfs.len(), 2);
        assert!(outcome.test.mrr > 0.0);
    }

    #[test]
    fn los_and_sig_variants_run_end_to_end() {
        let dataset = Preset::Tiny.build(22);
        let filter = FilterIndex::build(&dataset);
        let cfg = ErasConfig {
            epochs: 3,
            ..ErasConfig::fast()
        };
        for v in [Variant::Los, Variant::Sig, Variant::Smt] {
            let outcome = run_eras(&dataset, &filter, &cfg, v);
            assert!(outcome.test.mrr > 0.0, "{v:?}");
        }
    }

    #[test]
    fn dif_gradient_is_finite_and_nonzero() {
        let dataset = Preset::Tiny.build(23);
        let mut rng = Rng::seed_from_u64(5);
        let emb = Embeddings::init(
            dataset.num_entities(),
            dataset.num_relations(),
            16,
            &mut rng,
        );
        let s = Supernet::new(4, 1);
        let current = vec![eras_sf::zoo::complex()];
        let assignment = vec![0u8; dataset.num_relations()];
        let batch: Vec<Triple> = dataset.valid.iter().copied().take(8).collect();
        let grad = dif_arch_gradient(s, &current, &assignment, &emb, &batch);
        assert!(grad.as_slice().iter().all(|v| v.is_finite()));
        assert!(grad.frobenius_norm() > 0.0);
        // Zero-op column never receives gradient.
        for v in 0..grad.rows() {
            assert_eq!(grad.get(v, 0), 0.0);
        }
    }
}
