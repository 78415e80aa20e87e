//! Registry of the comparison models implemented in this reproduction.
//!
//! Each [`Comparator`] trains on a dataset under a [`Profile`] and returns
//! a trained [`ScoreModel`] (boxed) plus its embeddings, so every
//! downstream evaluation — global metrics, pattern slicing (Table III),
//! classification (Table X) — runs through the same code path.

use crate::profiles::Profile;
use eras_data::json::{Json, ToJson};
use eras_data::{Dataset, FilterIndex};
use eras_linalg::Rng;
use eras_train::baselines::{MarginConfig, RotatE, TransE, TransH, TuckEr};
use eras_train::eval::{link_prediction, LinkPredictionMetrics, ScoreModel};
use eras_train::hole::HolE;
use eras_train::mlpe::MlpE;
use eras_train::quate::QuatE;
use eras_train::trainer::train_standalone;
use eras_train::{BlockModel, Embeddings};
use std::time::Instant;

/// The implemented comparison models (Table VI rows built here; remaining
/// rows are quoted from the literature — see `literature.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparator {
    /// TransE (TDM, margin loss).
    TransE,
    /// TransH (TDM, margin loss).
    TransH,
    /// RotatE (TDM, margin loss).
    RotatE,
    /// TuckER (tensor model, multiclass loss).
    TuckEr,
    /// QuatE (quaternion rotations, sampled softmax).
    QuatE,
    /// HolE (circular correlation — the HolEX family's base model).
    HolE,
    /// MlpE (learned-projection NNM standing in for ConvE/HypER).
    MlpE,
    /// DistMult (bilinear).
    DistMult,
    /// ComplEx (bilinear).
    ComplEx,
    /// SimplE (bilinear).
    SimplE,
    /// Analogy (bilinear).
    Analogy,
    /// AnyBURL-style bottom-up rule learner (non-embedding comparator).
    AnyBurl,
}

impl Comparator {
    /// Every implemented comparator, in Table VI order (TDMs, NNM, TBMs).
    pub fn all() -> [Comparator; 12] {
        [
            Comparator::TransE,
            Comparator::TransH,
            Comparator::RotatE,
            Comparator::MlpE,
            Comparator::TuckEr,
            Comparator::QuatE,
            Comparator::HolE,
            Comparator::DistMult,
            Comparator::ComplEx,
            Comparator::SimplE,
            Comparator::Analogy,
            Comparator::AnyBurl,
        ]
    }

    /// The bilinear subset (the BLM rows of Tables III and X).
    pub fn bilinear() -> [Comparator; 4] {
        [
            Comparator::DistMult,
            Comparator::ComplEx,
            Comparator::SimplE,
            Comparator::Analogy,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Comparator::TransE => "TransE",
            Comparator::TransH => "TransH",
            Comparator::RotatE => "RotatE",
            Comparator::TuckEr => "TuckER",
            Comparator::QuatE => "QuatE",
            Comparator::HolE => "HolE",
            Comparator::MlpE => "MlpE (ConvE-like)",
            Comparator::AnyBurl => "AnyBURL-like",
            Comparator::DistMult => "DistMult",
            Comparator::ComplEx => "ComplEx",
            Comparator::SimplE => "SimplE",
            Comparator::Analogy => "Analogy",
        }
    }
}

/// One row of an evaluation table.
#[derive(Debug, Clone)]
pub struct EvalRow {
    /// Model name.
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// Filtered MRR on test.
    pub mrr: f64,
    /// Hit@1 on test.
    pub hits1: f64,
    /// Hit@10 on test.
    pub hits10: f64,
    /// Wall-clock training seconds.
    pub train_secs: f64,
}

impl EvalRow {
    /// Build from metrics.
    pub fn new(model: &str, dataset: &str, m: LinkPredictionMetrics, secs: f64) -> Self {
        EvalRow {
            model: model.to_owned(),
            dataset: dataset.to_owned(),
            mrr: m.mrr,
            hits1: m.hits1,
            hits10: m.hits10,
            train_secs: secs,
        }
    }
}

impl ToJson for EvalRow {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("model", self.model.as_str())
            .set("dataset", self.dataset.as_str())
            .set("mrr", self.mrr)
            .set("hits1", self.hits1)
            .set("hits10", self.hits10)
            .set("train_secs", self.train_secs)
    }
}

/// A trained comparator ready for further evaluation.
pub struct TrainedModel {
    /// Scoring interface.
    pub model: Box<dyn ScoreModel>,
    /// Trained embeddings.
    pub embeddings: Embeddings,
    /// Test metrics already computed.
    pub row: EvalRow,
}

/// Train a comparator on a dataset and evaluate it on the test split.
pub fn run_comparator(
    comparator: Comparator,
    dataset: &Dataset,
    filter: &FilterIndex,
    profile: &Profile,
) -> TrainedModel {
    let started = Instant::now();
    let (seed, dim, epochs) = (profile.seed, profile.train.dim, profile.margin_epochs);
    let train = &dataset.train;
    let (model, embeddings) = match comparator {
        Comparator::DistMult | Comparator::ComplEx | Comparator::SimplE | Comparator::Analogy => {
            let sf = match comparator {
                Comparator::DistMult => eras_sf::zoo::distmult(4),
                Comparator::ComplEx => eras_sf::zoo::complex(),
                Comparator::SimplE => eras_sf::zoo::simple(),
                _ => eras_sf::zoo::analogy(),
            };
            let model = BlockModel::universal(sf, dataset.num_relations());
            let outcome = train_standalone(&model, dataset, filter, &profile.train);
            let row = EvalRow::new(
                comparator.name(),
                &dataset.name,
                outcome.test,
                started.elapsed().as_secs_f64(),
            );
            return TrainedModel {
                model: Box::new(model),
                embeddings: outcome.embeddings,
                row,
            };
        }
        Comparator::AnyBurl => {
            let model = eras_rules::RuleModel::learn(dataset, &eras_rules::LearnConfig::default());
            let embeddings = model.dummy_embeddings();
            (Box::new(model) as Box<dyn ScoreModel>, embeddings)
        }
        Comparator::TransE => fit(
            dataset,
            seed,
            dim,
            epochs,
            |e, _| TransE::new(e, MarginConfig::default()),
            |m, e, r| m.train_epoch(e, train, filter, r),
        ),
        Comparator::TransH => fit(
            dataset,
            seed,
            dim,
            epochs,
            |e, r| TransH::new(e, MarginConfig::default(), r),
            |m, e, r| m.train_epoch(e, train, filter, r),
        ),
        Comparator::RotatE => fit(
            dataset,
            seed,
            dim,
            epochs,
            |e, _| RotatE::new(e, MarginConfig::default()),
            |m, e, r| m.train_epoch(e, train, filter, r),
        ),
        Comparator::HolE => fit(
            dataset,
            seed,
            dim,
            epochs,
            |e, _| HolE::new(e, 0.1, 64),
            |m, e, r| m.train_epoch(e, train, r),
        ),
        Comparator::QuatE => fit(
            dataset,
            seed,
            dim,
            epochs,
            |e, _| QuatE::new(e, 0.1, 64),
            |m, e, r| m.train_epoch(e, train, r),
        ),
        Comparator::MlpE => fit(
            dataset,
            seed,
            dim,
            epochs,
            |e, r| MlpE::new(e, 2 * dim, 0.1, 64, r),
            |m, e, r| m.train_epoch(e, train, r),
        ),
        // TuckER's core is d³; cap the dimension to keep its cost in
        // the same ballpark as the other rows (the paper notes its
        // O(d³) inference cost in Table I).
        Comparator::TuckEr => fit(
            dataset,
            seed,
            dim.min(24),
            profile.tucker_epochs,
            |e, r| TuckEr::new(e, 0.05, r),
            |m, e, _| m.train_epoch(e, train),
        ),
    };
    let metrics = link_prediction(model.as_ref(), &embeddings, &dataset.test, filter);
    let row = EvalRow::new(
        comparator.name(),
        &dataset.name,
        metrics,
        started.elapsed().as_secs_f64(),
    );
    TrainedModel {
        model,
        embeddings,
        row,
    }
}

/// The one training loop of the epoch-trained comparators: embeddings
/// of width `dim` drawn from `seed`, the model built on them, then
/// `epochs` calls of its per-epoch step.
fn fit<M: ScoreModel + 'static>(
    dataset: &Dataset,
    seed: u64,
    dim: usize,
    epochs: usize,
    build: impl FnOnce(&Embeddings, &mut Rng) -> M,
    mut epoch: impl FnMut(&mut M, &mut Embeddings, &mut Rng) -> f32,
) -> (Box<dyn ScoreModel>, Embeddings) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut emb = Embeddings::init(
        dataset.num_entities(),
        dataset.num_relations(),
        dim,
        &mut rng,
    );
    let mut model = build(&emb, &mut rng);
    for _ in 0..epochs {
        epoch(&mut model, &mut emb, &mut rng);
    }
    (Box::new(model), emb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eras_data::Preset;

    #[test]
    fn every_comparator_trains_and_evaluates_on_tiny() {
        let dataset = Preset::Tiny.build(8);
        let filter = FilterIndex::build(&dataset);
        let profile = Profile::quick(Preset::Tiny, 8);
        for c in Comparator::all() {
            let trained = run_comparator(c, &dataset, &filter, &profile);
            assert!(
                trained.row.mrr > 0.0 && trained.row.mrr <= 1.0,
                "{}: mrr {}",
                c.name(),
                trained.row.mrr
            );
            assert!(trained.row.train_secs >= 0.0);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Comparator::all().iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 12);
    }
}
