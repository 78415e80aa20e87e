//! `eras-search`: Algorithm 2 end to end on `fb15k237-synth` with the
//! full-profile budgets.
//!
//! The untraced run times `eras_core::run_eras`. The traced run replays
//! the same algorithm from the public calls `run_eras` makes, in its
//! order and with its RNG use, and wraps each call in a span; it then
//! reports whether the replay reproduced `run_eras` bit for bit.

use crate::report::Report;
use crate::stats::{median, peak_rss_mb};
use crate::trace::Tracer;
use crate::Args;
use eras_core::variants::ArchUpdater;
use eras_core::{run_eras, ErasConfig, ErasOutcome, Supernet, Variant};
use eras_ctrl::{kmeans, LstmPolicy, ReinforceTrainer};
use eras_data::{Dataset, FilterIndex, Preset, Triple};
use eras_linalg::cmp::{nan_last_desc_f64, nan_lowest_f64};
use eras_linalg::optim::Adagrad;
use eras_linalg::Rng;
use eras_sf::{BlockSf, NormBounds};
use eras_train::block::{train_minibatch, BlockScratch};
use eras_train::eval::link_prediction;
use eras_train::trainer::{train_standalone, Execution, TrainConfig};
use eras_train::{BlockModel, Embeddings, LossMode, RankingMode};
use std::time::Instant;

/// Seed of the searched dataset and of the search itself. Fixed, not
/// taken from `--seed`: at these budgets the search outcome swings with
/// its seed (test MRR 0.036-0.114 and supernet phase 2.9-3.8 s over five
/// seeds), so a seed-varied run could not hold any bound. One fixed
/// input makes the test MRR bit-identical and leaves only timing noise.
/// That range is still the noise floor of the search's outcome for a
/// change that alters its RNG use or float summation order: such a change
/// derives other structures, which moves the test MRR and the retraining
/// time by a random draw (see `README.md`).
pub const INPUT_SEED: u64 = 1;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The full-profile ERAS budgets (`crates/bench` `Profile::full`),
/// frozen here so the workload does not move when profiles are retuned.
pub fn config(seed: u64) -> ErasConfig {
    let train = TrainConfig {
        dim: 32,
        lr: 0.1,
        l2: 1e-4,
        n3: 0.0,
        decay_rate: 1.0,
        batch_size: 256,
        max_epochs: 45,
        eval_every: 10,
        patience: 3,
        loss: LossMode::Sampled { negatives: 64 },
        seed,
        execution: Execution::Sequential,
        ranking: RankingMode::Full,
        bounds: NormBounds::default(),
    };
    ErasConfig {
        m: 4,
        n_groups: 3,
        dim: 32,
        epochs: 18,
        ctrl_updates_per_epoch: 8,
        u_samples: 4,
        val_batch: 128,
        derive_k: 12,
        derive_screen: 4,
        retrain: train,
        seed,
        ..ErasConfig::default()
    }
}

fn setup(seed: u64) -> (Dataset, FilterIndex) {
    let dataset = Preset::Fb15k237.build(seed);
    let filter = FilterIndex::build(&dataset);
    (dataset, filter)
}

/// Mean reciprocal rank of a scorer that ranks uniformly at random over
/// `n` candidates: H(n) / n.
fn random_mrr(n: usize) -> f64 {
    (1..=n).map(|k| 1.0 / k as f64).sum::<f64>() / n as f64
}

/// The output checks on one search; each failing one fails the run.
fn check_outcome(
    report: &mut Report,
    dataset: &Dataset,
    cfg: &ErasConfig,
    out: &ErasOutcome,
    wall_s: f64,
) {
    let supernet = Supernet::new(cfg.m, cfg.n_groups);
    let floor = random_mrr(dataset.num_entities());
    let checks = [
        (
            supernet.satisfies_exploitative_constraint(&out.sfs),
            "derived structures violate the exploitative constraint".to_owned(),
        ),
        (
            out.assignment.len() == dataset.num_relations()
                && out.assignment.iter().all(|&g| (g as usize) < cfg.n_groups),
            format!(
                "assignment has {} entries for {} relations or a group id >= {}",
                out.assignment.len(),
                dataset.num_relations(),
                cfg.n_groups
            ),
        ),
        (
            out.search_trace.len() == cfg.epochs,
            format!(
                "search trace has {} points for {} epochs",
                out.search_trace.len(),
                cfg.epochs
            ),
        ),
        (
            out.test.mrr > floor,
            format!("test MRR {} does not beat random {floor}", out.test.mrr),
        ),
        (
            out.search_secs > 0.0 && out.search_secs <= wall_s,
            format!(
                "supernet phase {} s outside (0, wall {wall_s}]",
                out.search_secs
            ),
        ),
    ];
    let ok = checks.iter().all(|(ok, _)| *ok);
    for (passed, what) in checks {
        report.require(passed, what);
    }
    report.op(ok, "eras search");
}

/// Untraced run: set-up timing, then one `run_eras`. A search takes
/// about 20 s whatever `--seconds` says. `latency_ms` is the `run_eras`
/// call; `throughput_per_s` is the supernet phase's train triples per
/// second of its own stopwatch (`ErasOutcome::search_secs`, Table IX).
pub fn run() -> Report {
    let mut report = Report::new();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut data = None;
    for _ in 0..SETUP_REPS {
        drop(data.take());
        let t0 = Instant::now();
        data = Some(setup(INPUT_SEED));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (dataset, filter) = data.expect("SETUP_REPS >= 1");
    let cfg = config(INPUT_SEED);
    let t0 = Instant::now();
    let out = run_eras(&dataset, &filter, &cfg, Variant::Full);
    let wall = t0.elapsed().as_secs_f64();
    check_outcome(&mut report, &dataset, &cfg, &out, wall);
    eprintln!(
        "eras-search: wall {wall:.3} s, supernet {:.3} s, test MRR {:.5}",
        out.search_secs, out.test.mrr
    );
    report.set("setup_s", median(&setups));
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("latency_ms", wall * 1e3);
    report.set(
        "throughput_per_s",
        supernet_triples(&dataset, &cfg) as f64 / out.search_secs,
    );
    report
}

/// Train triples the supernet phase trains on: every epoch passes the
/// whole train split `emb_samples` times through the block trainer.
fn supernet_triples(dataset: &Dataset, cfg: &ErasConfig) -> usize {
    cfg.epochs * dataset.train.len() * cfg.emb_samples.max(1)
}

/// What the replay produced, for comparison with `run_eras`.
struct Replay {
    sfs: Vec<BlockSf>,
    assignment: Vec<u8>,
    test_mrr: f64,
}

/// Per-layer counts gathered during the replay.
#[derive(Default)]
struct Counts {
    sample_calls: u64,
    minibatch_triples: u64,
    em_calls: u64,
    arch_update_calls: u64,
    derive_candidates: u64,
    screen_epochs: u64,
    retrain_epochs: u64,
}

/// Algorithm 2 rebuilt from the public calls of `eras-core`,
/// `eras-ctrl` and `eras-train`, statement for statement in the order
/// and RNG use of `eras_core::run_eras` (ablation branches that
/// `Variant::Full` never takes are left out).
fn replay(
    dataset: &Dataset,
    filter: &FilterIndex,
    cfg: &ErasConfig,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Replay {
    let variant = Variant::Full;
    cfg.validate().expect("frozen ERAS budgets are valid");
    let supernet = Supernet::new(cfg.m, cfg.n_groups);
    let mut rng = Rng::seed_from_u64(cfg.seed);

    let (mut emb, mut opt_e, mut opt_r) = tr.scope("train.init", 0, || {
        let emb = Embeddings::init(
            dataset.num_entities(),
            dataset.num_relations(),
            cfg.dim,
            &mut rng,
        );
        let opt_e = Adagrad::new(emb.entity.as_slice().len(), cfg.emb_lr, cfg.emb_l2);
        let opt_r = Adagrad::new(emb.relation.as_slice().len(), cfg.emb_lr, cfg.emb_l2);
        (emb, opt_e, opt_r)
    });
    let mut policy = LstmPolicy::new(supernet.vocab(), cfg.ctrl_hidden, cfg.ctrl_embed, &mut rng);
    policy.bias_token(0, cfg.zero_op_bias);
    let mut reinforce = ReinforceTrainer::new(&policy, cfg.ctrl_lr, cfg.baseline_decay);
    let mut arch_updater = ArchUpdater::new(variant, supernet, cfg, &mut rng);
    let mut assignment = variant.initial_assignment(dataset, filter, cfg, &mut rng);
    let mut scratch = BlockScratch::new();
    let mut train_order: Vec<Triple> = dataset.train.clone();

    let mut batch_id = 0u64;
    for epoch in 0..cfg.epochs {
        rng.shuffle(&mut train_order);
        for batch in train_order.chunks(cfg.batch_size.max(1)) {
            for _ in 0..cfg.emb_samples.max(1) {
                let sfs = tr.scope("ctrl.sample", batch_id, || {
                    arch_updater.sample_for_training(&policy, &mut rng)
                });
                counts.sample_calls += 1;
                let model = BlockModel::relation_aware(sfs, assignment.clone());
                tr.scope("train.block_minibatch", batch_id, || {
                    train_minibatch(
                        &model,
                        &mut emb,
                        &mut opt_e,
                        &mut opt_r,
                        batch,
                        cfg.search_loss,
                        None,
                        &mut rng,
                        &mut scratch,
                    )
                });
                counts.minibatch_triples += batch.len() as u64;
            }
            batch_id += 1;
        }
        if variant.dynamic_grouping() && cfg.n_groups > 1 && (epoch + 1) % cfg.em_every == 0 {
            assignment = tr.scope("ctrl.em", epoch as u64, || {
                kmeans(&emb.relation, cfg.n_groups, 20, &mut rng).assignment
            });
            counts.em_calls += 1;
        }
        for _ in 0..cfg.ctrl_updates_per_epoch.max(1) {
            tr.scope("ctrl.arch_update", epoch as u64, || {
                arch_updater.update(
                    &mut policy,
                    &mut reinforce,
                    &assignment,
                    &emb,
                    dataset,
                    filter,
                    cfg,
                    &mut rng,
                )
            });
            counts.arch_update_calls += 1;
        }
    }

    // Derivation: `run_eras` draws 256 distinct validation triples.
    let derive_batch: Vec<Triple> = if dataset.valid.is_empty() {
        Vec::new()
    } else {
        let size = 256.min(dataset.valid.len());
        rng.sample_distinct(dataset.valid.len(), size)
            .into_iter()
            .map(|i| dataset.valid[i])
            .collect()
    };
    let mut candidates: Vec<Vec<BlockSf>> = (0..cfg.derive_k)
        .map(|_| arch_updater.sample_for_derivation(&policy, &mut rng))
        .collect();
    candidates.push(supernet.decode(&policy.greedy_decode(supernet.num_slots())));
    candidates.extend(arch_updater.archive().cloned());
    counts.derive_candidates = candidates.len() as u64;
    let (best, scored_candidates) = tr.scope("core.derive", 0, || {
        let mut best: Option<(Vec<BlockSf>, f64)> = None;
        let mut scored: Vec<(Vec<BlockSf>, f64)> = Vec::with_capacity(candidates.len());
        for sfs in candidates {
            let reward =
                supernet.one_shot_reward(sfs.clone(), &assignment, &emb, &derive_batch, filter);
            if best.as_ref().map(|(_, b)| reward > *b).unwrap_or(true) {
                best = Some((sfs.clone(), reward));
            }
            scored.push((sfs, reward));
        }
        (best, scored)
    });
    let (fallback_sfs, best_reward) = best.expect("derive_k >= 1");
    let best_sfs = if best_reward <= 0.0 {
        supernet.random_architecture(2 * cfg.m, &mut rng)
    } else if cfg.derive_screen > 1 {
        let mut scored = scored_candidates;
        scored.sort_by(|a, b| nan_last_desc_f64(a.1, b.1));
        scored.truncate(cfg.derive_screen);
        let screen_cfg = TrainConfig {
            max_epochs: (cfg.retrain.max_epochs / 3).max(3),
            ..cfg.retrain.clone()
        };
        let mut screened = Vec::with_capacity(scored.len());
        for (i, (sfs, _)) in scored.into_iter().enumerate() {
            let model = BlockModel::relation_aware(sfs.clone(), assignment.clone());
            let outcome = tr.scope("train.screen", i as u64, || {
                train_standalone(&model, dataset, filter, &screen_cfg)
            });
            counts.screen_epochs += outcome.epochs_run as u64;
            screened.push((sfs, outcome.best_valid.mrr));
        }
        screened
            .into_iter()
            .max_by(|a, b| nan_lowest_f64(a.1, b.1))
            .map(|(sfs, _)| sfs)
            .unwrap_or(fallback_sfs)
    } else {
        fallback_sfs
    };

    let model = BlockModel::relation_aware(best_sfs.clone(), assignment.clone());
    let outcome = tr.scope("train.retrain", 0, || {
        train_standalone(&model, dataset, filter, &cfg.retrain)
    });
    counts.retrain_epochs = outcome.epochs_run as u64;
    tr.scope("eval.valid", 0, || {
        link_prediction(&model, &outcome.embeddings, &dataset.valid, filter)
    });
    Replay {
        sfs: best_sfs,
        assignment,
        test_mrr: outcome.test.mrr,
    }
}

/// Traced run: `run_eras` untraced, then the traced replay, then the
/// split, the bit-equality verdict and the tracing overhead.
pub fn run_traced(args: &Args) -> Report {
    let mut report = Report::new();
    let cfg = config(INPUT_SEED);
    let (dataset, filter) = setup(INPUT_SEED);
    let t0 = Instant::now();
    let reference = run_eras(&dataset, &filter, &cfg, Variant::Full);
    let untraced_s = t0.elapsed().as_secs_f64();
    check_outcome(&mut report, &dataset, &cfg, &reference, untraced_s);
    drop((dataset, filter));

    let mut tr = Tracer::new(true);
    let mut counts = Counts::default();
    let root = tr.begin(crate::ROOT_SPAN, 1);
    let dataset = tr.scope("data.generate", 1, || Preset::Fb15k237.build(INPUT_SEED));
    let filter = tr.scope("data.filter_build", 1, || FilterIndex::build(&dataset));
    let t0 = Instant::now();
    let replayed = replay(&dataset, &filter, &cfg, &mut tr, &mut counts);
    let replay_s = t0.elapsed().as_secs_f64();
    tr.end(root);

    let matches = replayed.sfs == reference.sfs
        && replayed.assignment == reference.assignment
        && replayed.test_mrr.to_bits() == reference.test.mrr.to_bits();
    if !matches {
        eprintln!(
            "eras-search: replay differs from run_eras (test MRR {} vs {}); the layer split is stale",
            replayed.test_mrr, reference.test.mrr
        );
    }
    crate::record_trace(&mut report, &tr, args);
    report.set(
        "trace.overhead_pct",
        100.0 * (replay_s - untraced_s) / untraced_s,
    );
    crate::record_op(&mut report, &tr, "train.block_minibatch");
    report.set("core.replay_mismatch", if matches { 0.0 } else { 1.0 });
    report.set("ctrl.sample_calls", counts.sample_calls as f64);
    report.set(
        "train.block_minibatch_triples",
        counts.minibatch_triples as f64,
    );
    report.require(
        counts.minibatch_triples == supernet_triples(&dataset, &cfg) as u64,
        format!(
            "replay trained {} supernet triples, expected {}",
            counts.minibatch_triples,
            supernet_triples(&dataset, &cfg)
        ),
    );
    report.set("ctrl.em_calls", counts.em_calls as f64);
    report.set("ctrl.arch_update_calls", counts.arch_update_calls as f64);
    report.set("core.derive_candidates", counts.derive_candidates as f64);
    report.set("train.screen_epochs", counts.screen_epochs as f64);
    report.set("train.retrain_epochs", counts.retrain_epochs as f64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_mrr_is_harmonic_over_n() {
        assert_eq!(random_mrr(1), 1.0);
        assert!((random_mrr(2) - 0.75).abs() < 1e-12);
        assert!((random_mrr(650) - 0.010854).abs() < 1e-5);
    }
}
