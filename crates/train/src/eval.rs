//! Filtered link-prediction evaluation (Section V-B1 of the paper).
//!
//! For every evaluation triple `(h, r, t)` the model ranks `t` against all
//! entities as the answer to `(h, r, ?)` and `h` against all entities as
//! the answer to `(?, r, t)`. Candidates that form *other* known true
//! triples are filtered out; ties are resolved to the average rank so an
//! untrained constant scorer gets chance-level MRR rather than an
//! optimistic 1.0.

use crate::embeddings::Embeddings;
use eras_data::patterns::RelationPattern;
use eras_data::{Dataset, FilterIndex, Triple};
use eras_linalg::pool::ThreadPool;
use eras_linalg::scan::{scan_rows, RankTally};
use eras_linalg::{vecops, Matrix, Rng};

/// How ranking candidates are materialised during evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankingMode {
    /// Rank against every entity — the exact filtered protocol.
    #[default]
    Full,
    /// Rank against a seeded sample of `candidates` entities plus the
    /// true answer (filtered the same way). `O(candidates)` per query
    /// instead of `O(N_e)`, which is what makes million-entity
    /// validation-during-training affordable. With `candidates ≥ N_e`
    /// the sample is the full entity set and the metrics reproduce the
    /// exact protocol bit for bit.
    Sampled {
        /// Number of candidate entities to draw (without replacement).
        candidates: usize,
        /// Seed for the candidate draw; fixed seed → fixed candidate
        /// set → reproducible metrics.
        seed: u64,
    },
}

/// A seeded, sorted candidate sample shared by every query of one
/// sampled evaluation: the ids (ascending, distinct) plus their
/// gathered entity rows, so the fused scan can stream candidate scores
/// with the same kernel it uses for the full table.
pub struct CandidateSet {
    ids: Vec<u32>,
    rows: Matrix,
}

impl CandidateSet {
    /// Draw `candidates` distinct entities with `seed` and gather their
    /// embedding rows. `candidates ≥ num_entities` selects every entity
    /// in ascending order — the sampled evaluator then reproduces the
    /// full filtered ranking exactly.
    pub fn draw(emb: &Embeddings, candidates: usize, seed: u64) -> Self {
        assert!(candidates > 0, "need at least one ranking candidate");
        let n = emb.num_entities();
        let ids: Vec<u32> = if candidates >= n {
            (0..n as u32).collect()
        } else {
            let mut rng = Rng::seed_from_u64(seed);
            let mut ids: Vec<u32> = rng
                .sample_distinct(n, candidates)
                .into_iter()
                .map(|i| i as u32)
                .collect();
            ids.sort_unstable();
            ids
        };
        let dim = emb.dim();
        let mut rows = Matrix::zeros(ids.len(), dim);
        for (slot, &id) in ids.iter().enumerate() {
            rows.row_mut(slot)
                .copy_from_slice(emb.entity.row(id as usize));
        }
        CandidateSet { ids, rows }
    }

    /// The sampled entity ids, ascending and distinct.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The gathered candidate embedding rows (`len() × dim`), in the
    /// same order as [`CandidateSet::ids`].
    pub fn rows(&self) -> &Matrix {
        &self.rows
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty (it never is — `draw` asserts).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Local slot of entity `id` in the sample, if drawn.
    pub fn local_of(&self, id: u32) -> Option<u32> {
        self.ids.binary_search(&id).ok().map(|i| i as u32)
    }
}

/// Anything that can score candidates for both query directions.
///
/// Every [`QueryModel`] gets it from the blanket impl below; the
/// distance models (TransE, TransH, RotatE) and the rule learner
/// implement it directly. The evaluator and the classification harness
/// are generic over it.
pub trait ScoreModel {
    /// Scores of `(h, r, t')` for every entity `t'` into `out`.
    fn score_all_tails(&self, emb: &Embeddings, h: u32, r: u32, out: &mut [f32]);
    /// Scores of `(h', r, t)` for every entity `h'` into `out`.
    fn score_all_heads(&self, emb: &Embeddings, t: u32, r: u32, out: &mut [f32]);
    /// Score of one triple.
    fn score_triple(&self, emb: &Embeddings, triple: Triple) -> f32;

    /// Filtered average-tie rank of `target` as the answer to
    /// `(h, r, ?)`. `scores` is an `num_entities`-sized scratch buffer
    /// for the default dense path (score everything, then
    /// [`filtered_rank`]); implementations with a streaming scoring
    /// path — every [`QueryModel`] uses the fused entity-table scan —
    /// may override and ignore it. Overrides must return exactly what
    /// the default computes.
    fn tail_rank(
        &self,
        emb: &Embeddings,
        h: u32,
        r: u32,
        target: u32,
        filtered: &[u32],
        scores: &mut [f32],
    ) -> f64 {
        self.score_all_tails(emb, h, r, scores);
        filtered_rank(scores, target, filtered)
    }

    /// Filtered average-tie rank of `target` as the answer to
    /// `(?, r, t)` — see [`ScoreModel::tail_rank`].
    fn head_rank(
        &self,
        emb: &Embeddings,
        t: u32,
        r: u32,
        target: u32,
        filtered: &[u32],
        scores: &mut [f32],
    ) -> f64 {
        self.score_all_heads(emb, t, r, scores);
        filtered_rank(scores, target, filtered)
    }

    /// Filtered average-tie rank of `target` as the answer to
    /// `(h, r, ?)` among `cand ∪ {target}` — the sampled protocol. The
    /// default scores everything and ranks over the sample;
    /// implementations with a streaming path (a [`QueryModel`] scans
    /// the gathered candidate rows) may override. Overrides must return
    /// exactly what the default computes.
    #[allow(clippy::too_many_arguments)]
    fn tail_rank_sampled(
        &self,
        emb: &Embeddings,
        h: u32,
        r: u32,
        target: u32,
        filtered: &[u32],
        cand: &CandidateSet,
        scores: &mut [f32],
    ) -> f64 {
        self.score_all_tails(emb, h, r, scores);
        sampled_filtered_rank(scores, cand.ids(), target, filtered)
    }

    /// Sampled counterpart of [`ScoreModel::head_rank`] — see
    /// [`ScoreModel::tail_rank_sampled`].
    #[allow(clippy::too_many_arguments)]
    fn head_rank_sampled(
        &self,
        emb: &Embeddings,
        t: u32,
        r: u32,
        target: u32,
        filtered: &[u32],
        cand: &CandidateSet,
        scores: &mut [f32],
    ) -> f64 {
        self.score_all_heads(emb, t, r, scores);
        sampled_filtered_rank(scores, cand.ids(), target, filtered)
    }
}

impl ScoreModel for Box<dyn ScoreModel> {
    fn score_all_tails(&self, emb: &Embeddings, h: u32, r: u32, out: &mut [f32]) {
        self.as_ref().score_all_tails(emb, h, r, out)
    }
    fn score_all_heads(&self, emb: &Embeddings, t: u32, r: u32, out: &mut [f32]) {
        self.as_ref().score_all_heads(emb, t, r, out)
    }
    fn score_triple(&self, emb: &Embeddings, triple: Triple) -> f32 {
        self.as_ref().score_triple(emb, triple)
    }
    // Forward the rank methods too, so a boxed query model keeps its
    // fused-scan override instead of falling back to the dense default.
    fn tail_rank(
        &self,
        emb: &Embeddings,
        h: u32,
        r: u32,
        target: u32,
        filtered: &[u32],
        scores: &mut [f32],
    ) -> f64 {
        self.as_ref().tail_rank(emb, h, r, target, filtered, scores)
    }
    fn head_rank(
        &self,
        emb: &Embeddings,
        t: u32,
        r: u32,
        target: u32,
        filtered: &[u32],
        scores: &mut [f32],
    ) -> f64 {
        self.as_ref().head_rank(emb, t, r, target, filtered, scores)
    }
    fn tail_rank_sampled(
        &self,
        emb: &Embeddings,
        h: u32,
        r: u32,
        target: u32,
        filtered: &[u32],
        cand: &CandidateSet,
        scores: &mut [f32],
    ) -> f64 {
        self.as_ref()
            .tail_rank_sampled(emb, h, r, target, filtered, cand, scores)
    }
    fn head_rank_sampled(
        &self,
        emb: &Embeddings,
        t: u32,
        r: u32,
        target: u32,
        filtered: &[u32],
        cand: &CandidateSet,
        scores: &mut [f32],
    ) -> f64 {
        self.as_ref()
            .head_rank_sampled(emb, t, r, target, filtered, cand, scores)
    }
}

/// A model that scores by inner product with a query vector:
/// `score(h, r, t) = ⟨q_tail(h, r), E[t]⟩ = ⟨q_head(t, r), E[h]⟩`.
///
/// BlockModel, HolE, QuatE, TuckER and MlpE supply only these two
/// builders; the blanket [`ScoreModel`] impl scores and ranks all of
/// them with the same code, the fused entity-table scan included.
pub trait QueryModel {
    /// Build the tail-query vector: `score(t') = ⟨q, E[t']⟩`.
    fn tail_query(&self, emb: &Embeddings, h: u32, r: u32, q: &mut [f32]);
    /// Build the head-query vector: `score(h') = ⟨q, E[h']⟩`.
    fn head_query(&self, emb: &Embeddings, t: u32, r: u32, q: &mut [f32]);
}

/// A fresh tail-query vector of `model`.
fn tail_query_vec<M: QueryModel>(model: &M, emb: &Embeddings, h: u32, r: u32) -> Vec<f32> {
    let mut q = vec![0.0; emb.dim()];
    model.tail_query(emb, h, r, &mut q);
    q
}

/// A fresh head-query vector of `model`.
fn head_query_vec<M: QueryModel>(model: &M, emb: &Embeddings, t: u32, r: u32) -> Vec<f32> {
    let mut q = vec![0.0; emb.dim()];
    model.head_query(emb, t, r, &mut q);
    q
}

/// Rank `target` among all entities scored against the query vector
/// `q`, via the fused entity-table scan: the target's score is one dot
/// product, every other candidate's score streams through a
/// [`RankTally`] without materializing a score vector. Each streamed
/// score is bit-identical to the matvec the dense default would rank
/// over, so this returns exactly what
/// `filtered_rank(E·q, target, filtered)` does.
fn rank_with_query(emb: &Embeddings, q: &[f32], target: u32, filtered: &[u32]) -> f64 {
    let target_score = vecops::dot(emb.entity.row(target as usize), q);
    let mut tally = RankTally::new(target, target_score, filtered);
    scan_rows(&emb.entity, q, std::slice::from_mut(&mut tally));
    tally.rank()
}

/// Sampled counterpart of [`rank_with_query`]: stream the gathered
/// candidate rows instead of the whole entity table. Global ids map to
/// candidate slots (both sorted, so the filtered remap preserves
/// order); a target outside the sample maps to the `u32::MAX` sentinel
/// no slot can match — its score still anchors the tally, so the true
/// answer always competes and is never filtered.
fn rank_with_query_sampled(
    emb: &Embeddings,
    q: &[f32],
    target: u32,
    filtered: &[u32],
    cand: &CandidateSet,
) -> f64 {
    let target_score = vecops::dot(emb.entity.row(target as usize), q);
    let local_target = cand.local_of(target).unwrap_or(u32::MAX);
    let local_filt: Vec<u32> = filtered.iter().filter_map(|&f| cand.local_of(f)).collect();
    let mut tally = RankTally::new(local_target, target_score, &local_filt);
    scan_rows(cand.rows(), q, std::slice::from_mut(&mut tally));
    tally.rank()
}

impl<M: QueryModel> ScoreModel for M {
    fn score_all_tails(&self, emb: &Embeddings, h: u32, r: u32, out: &mut [f32]) {
        emb.entity.matvec(&tail_query_vec(self, emb, h, r), out);
    }

    fn score_all_heads(&self, emb: &Embeddings, t: u32, r: u32, out: &mut [f32]) {
        emb.entity.matvec(&head_query_vec(self, emb, t, r), out);
    }

    fn score_triple(&self, emb: &Embeddings, triple: Triple) -> f32 {
        let q = tail_query_vec(self, emb, triple.head, triple.rel);
        vecops::dot(&q, emb.entity.row(triple.tail as usize))
    }

    fn tail_rank(
        &self,
        emb: &Embeddings,
        h: u32,
        r: u32,
        target: u32,
        filtered: &[u32],
        _scores: &mut [f32],
    ) -> f64 {
        rank_with_query(emb, &tail_query_vec(self, emb, h, r), target, filtered)
    }

    fn head_rank(
        &self,
        emb: &Embeddings,
        t: u32,
        r: u32,
        target: u32,
        filtered: &[u32],
        _scores: &mut [f32],
    ) -> f64 {
        rank_with_query(emb, &head_query_vec(self, emb, t, r), target, filtered)
    }

    fn tail_rank_sampled(
        &self,
        emb: &Embeddings,
        h: u32,
        r: u32,
        target: u32,
        filtered: &[u32],
        cand: &CandidateSet,
        _scores: &mut [f32],
    ) -> f64 {
        let q = tail_query_vec(self, emb, h, r);
        rank_with_query_sampled(emb, &q, target, filtered, cand)
    }

    fn head_rank_sampled(
        &self,
        emb: &Embeddings,
        t: u32,
        r: u32,
        target: u32,
        filtered: &[u32],
        cand: &CandidateSet,
        _scores: &mut [f32],
    ) -> f64 {
        let q = head_query_vec(self, emb, t, r);
        rank_with_query_sampled(emb, &q, target, filtered, cand)
    }
}

/// Aggregated ranking metrics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkPredictionMetrics {
    /// Mean reciprocal rank.
    pub mrr: f64,
    /// Fraction of queries ranked 1 (the paper reports this in %).
    pub hits1: f64,
    /// Fraction ranked ≤ 3.
    pub hits3: f64,
    /// Fraction ranked ≤ 10.
    pub hits10: f64,
    /// Number of ranking queries aggregated (2 per triple).
    pub count: usize,
}

/// Triples per evaluation shard. Both the sequential and the pooled
/// evaluator cut the triple set into shards of this size and merge the
/// per-shard partials with the same fixed reduction tree, so the two
/// paths produce bit-identical metrics (see [`reduce_counts`]).
const EVAL_SHARD_TRIPLES: usize = 64;

/// Per-shard metric partials: integer hit counts (exact under any
/// merge order) plus the reciprocal-rank sum as the one floating-point
/// accumulator whose merge order the reduction tree pins down.
#[derive(Debug, Clone, Copy, Default)]
struct RankCounts {
    mrr: f64,
    hits1: u64,
    hits3: u64,
    hits10: u64,
    count: u64,
}

impl RankCounts {
    fn accumulate(&mut self, rank: f64) {
        self.mrr += 1.0 / rank;
        if rank <= 1.0 {
            self.hits1 += 1;
        }
        if rank <= 3.0 {
            self.hits3 += 1;
        }
        if rank <= 10.0 {
            self.hits10 += 1;
        }
        self.count += 1;
    }

    fn merge(&mut self, other: &RankCounts) {
        self.mrr += other.mrr;
        self.hits1 += other.hits1;
        self.hits3 += other.hits3;
        self.hits10 += other.hits10;
        self.count += other.count;
    }

    fn finalise(self) -> LinkPredictionMetrics {
        if self.count == 0 {
            return LinkPredictionMetrics::default();
        }
        let n = self.count as f64;
        LinkPredictionMetrics {
            mrr: self.mrr / n,
            hits1: self.hits1 as f64 / n,
            hits3: self.hits3 as f64 / n,
            hits10: self.hits10 as f64 / n,
            count: self.count as usize,
        }
    }
}

/// Rank both directions of every triple in one shard. A pure function
/// of the shard's triples — which worker runs it cannot matter.
fn eval_shard<M: ScoreModel + ?Sized>(
    model: &M,
    emb: &Embeddings,
    triples: &[Triple],
    filter: &FilterIndex,
    scores: &mut [f32],
) -> RankCounts {
    let mut counts = RankCounts::default();
    for &t in triples {
        counts.accumulate(model.tail_rank(
            emb,
            t.head,
            t.rel,
            t.tail,
            filter.tails(t.head, t.rel),
            scores,
        ));
        counts.accumulate(model.head_rank(
            emb,
            t.tail,
            t.rel,
            t.head,
            filter.heads(t.tail, t.rel),
            scores,
        ));
    }
    counts
}

/// Merge shard partials with stride doubling (`p[i] += p[i + stride]`,
/// stride 1, 2, 4, …). The tree shape depends only on the shard count,
/// so the reciprocal-rank sums come out bit-identical whether the
/// shards were evaluated inline or scattered across a pool.
fn reduce_counts(mut parts: Vec<RankCounts>) -> RankCounts {
    let n = parts.len();
    let mut stride = 1;
    while stride < n {
        let mut i = 0;
        while i + stride < n {
            let src = parts[i + stride];
            parts[i].merge(&src);
            i += 2 * stride;
        }
        stride *= 2;
    }
    parts.into_iter().next().unwrap_or_default()
}

/// Filtered average-tie rank of `target` among `scores`, excluding the
/// `filtered` entities (other known-true answers).
///
/// `rank = 1 + #{strictly better} + #{ties}/2`, counted over non-filtered
/// candidates only.
pub fn filtered_rank(scores: &[f32], target: u32, filtered: &[u32]) -> f64 {
    let target_score = scores[target as usize];
    let mut better = 0usize;
    let mut ties = 0usize;
    let mut filt_iter = filtered.iter().peekable();
    for (i, &s) in scores.iter().enumerate() {
        let i = i as u32;
        // `filtered` is sorted; advance the cursor and skip matches
        // (the target itself is always kept).
        while let Some(&&f) = filt_iter.peek() {
            if f < i {
                filt_iter.next();
            } else {
                break;
            }
        }
        if i != target {
            if let Some(&&f) = filt_iter.peek() {
                if f == i {
                    continue;
                }
            }
            if s > target_score {
                better += 1;
            } else if s == target_score {
                ties += 1;
            }
        }
    }
    1.0 + better as f64 + ties as f64 / 2.0
}

/// Filtered average-tie rank of `target` among the candidate ids in
/// `ids` (sorted ascending) — the sampled form of [`filtered_rank`].
/// The target always competes (rank starts at 1 whether or not it was
/// drawn) and is never filtered out; other known-true answers in
/// `filtered` (sorted ascending) are skipped. With `ids = 0..N_e` this
/// computes exactly what [`filtered_rank`] computes.
pub fn sampled_filtered_rank(scores: &[f32], ids: &[u32], target: u32, filtered: &[u32]) -> f64 {
    let target_score = scores[target as usize];
    let mut better = 0usize;
    let mut ties = 0usize;
    let mut filt_iter = filtered.iter().peekable();
    for &i in ids {
        // `ids` and `filtered` are both sorted; one forward cursor.
        while let Some(&&f) = filt_iter.peek() {
            if f < i {
                filt_iter.next();
            } else {
                break;
            }
        }
        if i == target {
            continue;
        }
        if let Some(&&f) = filt_iter.peek() {
            if f == i {
                continue;
            }
        }
        let s = scores[i as usize];
        if s > target_score {
            better += 1;
        } else if s == target_score {
            ties += 1;
        }
    }
    1.0 + better as f64 + ties as f64 / 2.0
}

/// Rank both directions of every triple in one shard against the
/// shared candidate sample. A pure function of the shard's triples.
fn eval_shard_sampled<M: ScoreModel + ?Sized>(
    model: &M,
    emb: &Embeddings,
    triples: &[Triple],
    filter: &FilterIndex,
    cand: &CandidateSet,
    scores: &mut [f32],
) -> RankCounts {
    let mut counts = RankCounts::default();
    for &t in triples {
        counts.accumulate(model.tail_rank_sampled(
            emb,
            t.head,
            t.rel,
            t.tail,
            filter.tails(t.head, t.rel),
            cand,
            scores,
        ));
        counts.accumulate(model.head_rank_sampled(
            emb,
            t.tail,
            t.rel,
            t.head,
            filter.heads(t.tail, t.rel),
            cand,
            scores,
        ));
    }
    counts
}

/// Evaluate sampled filtered link prediction: every query ranks its
/// true answer against one shared seeded candidate sample (see
/// [`RankingMode::Sampled`]). Sharded and tree-reduced exactly like
/// [`link_prediction`], so the sequential and pooled sampled paths
/// agree to the last bit; with `candidates ≥ N_e` the result equals
/// [`link_prediction`] bit for bit.
pub fn link_prediction_sampled<M: ScoreModel + ?Sized>(
    model: &M,
    emb: &Embeddings,
    triples: &[Triple],
    filter: &FilterIndex,
    candidates: usize,
    seed: u64,
) -> LinkPredictionMetrics {
    let cand = CandidateSet::draw(emb, candidates, seed);
    let mut scores = vec![0.0f32; emb.num_entities()];
    let parts: Vec<RankCounts> = triples
        .chunks(EVAL_SHARD_TRIPLES)
        .map(|shard| eval_shard_sampled(model, emb, shard, filter, &cand, &mut scores))
        .collect();
    reduce_counts(parts).finalise()
}

/// Pooled [`link_prediction_sampled`]: the candidate sample is drawn
/// once, shards run on the shared pool, and the partials merge with
/// the same fixed tree as the sequential path — bit-identical metrics
/// for every pool size.
pub fn link_prediction_sampled_pool<M: ScoreModel + Sync + ?Sized>(
    model: &M,
    emb: &Embeddings,
    triples: &[Triple],
    filter: &FilterIndex,
    candidates: usize,
    seed: u64,
    pool: &ThreadPool,
) -> LinkPredictionMetrics {
    let cand = CandidateSet::draw(emb, candidates, seed);
    let shards: Vec<&[Triple]> = triples.chunks(EVAL_SHARD_TRIPLES).collect();
    let _span = eras_obs::span!(
        "train.eval.sampled",
        shards = shards.len(),
        triples = triples.len(),
        candidates = cand.len(),
    );
    let cand_ref = &cand;
    let parts = pool.map(shards.len(), |s| {
        let _shard_span = eras_obs::span!("train.eval.shard", shard = s);
        let mut scores = vec![0.0f32; emb.num_entities()];
        eval_shard_sampled(model, emb, shards[s], filter, cand_ref, &mut scores)
    });
    reduce_counts(parts).finalise()
}

/// Dispatch an evaluation over `mode`: the exact pooled evaluator for
/// [`RankingMode::Full`], the sampled one otherwise.
pub fn link_prediction_with<M: ScoreModel + Sync + ?Sized>(
    model: &M,
    emb: &Embeddings,
    triples: &[Triple],
    filter: &FilterIndex,
    mode: RankingMode,
    pool: &ThreadPool,
) -> LinkPredictionMetrics {
    match mode {
        RankingMode::Full => link_prediction_pool(model, emb, triples, filter, pool),
        RankingMode::Sampled { candidates, seed } => {
            link_prediction_sampled_pool(model, emb, triples, filter, candidates, seed, pool)
        }
    }
}

/// Evaluate filtered link prediction over a triple set.
///
/// Internally sharded and tree-reduced exactly like
/// [`link_prediction_pool`], so the sequential and pooled evaluators
/// agree to the last bit.
pub fn link_prediction<M: ScoreModel + ?Sized>(
    model: &M,
    emb: &Embeddings,
    triples: &[Triple],
    filter: &FilterIndex,
) -> LinkPredictionMetrics {
    let mut scores = vec![0.0f32; emb.num_entities()];
    let parts: Vec<RankCounts> = triples
        .chunks(EVAL_SHARD_TRIPLES)
        .map(|shard| eval_shard(model, emb, shard, filter, &mut scores))
        .collect();
    reduce_counts(parts).finalise()
}

/// Pooled [`link_prediction`]: shards the triple set on the shared
/// thread pool. Every query is independent and the per-shard partials
/// are merged with the same fixed tree as the sequential path, so the
/// metrics are bit-identical to [`link_prediction`] for every pool
/// size — including a pool of 1 and more workers than shards.
pub fn link_prediction_pool<M: ScoreModel + Sync + ?Sized>(
    model: &M,
    emb: &Embeddings,
    triples: &[Triple],
    filter: &FilterIndex,
    pool: &ThreadPool,
) -> LinkPredictionMetrics {
    let shards: Vec<&[Triple]> = triples.chunks(EVAL_SHARD_TRIPLES).collect();
    let _span = eras_obs::span!(
        "train.eval.pooled",
        shards = shards.len(),
        triples = triples.len(),
    );
    let parts = pool.map(shards.len(), |s| {
        // Shard spans run on whichever executor claims the index, so a
        // trace shows the actual work distribution across threads.
        let _shard_span = eras_obs::span!("train.eval.shard", shard = s);
        let mut scores = vec![0.0f32; emb.num_entities()];
        eval_shard(model, emb, shards[s], filter, &mut scores)
    });
    reduce_counts(parts).finalise()
}

/// Per-pattern link prediction on the test split (Tables III and VIII).
/// Returns one entry per pattern that has at least one test triple.
pub fn link_prediction_by_pattern<M: ScoreModel + ?Sized>(
    model: &M,
    emb: &Embeddings,
    dataset: &Dataset,
    filter: &FilterIndex,
) -> Vec<(RelationPattern, LinkPredictionMetrics)> {
    RelationPattern::all()
        .iter()
        .filter_map(|&p| {
            let triples = dataset.test_triples_with_pattern(p);
            if triples.is_empty() {
                None
            } else {
                Some((p, link_prediction(model, emb, &triples, filter)))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockModel;
    use eras_data::vocab::Vocab;
    use eras_linalg::Rng;
    use eras_sf::zoo;

    /// A model that scores candidate `e` as a fixed table lookup, with
    /// separate tables per query direction.
    struct TableModel {
        tail_scores: Vec<f32>,
        head_scores: Vec<f32>,
    }

    impl TableModel {
        fn symmetric(scores: Vec<f32>) -> Self {
            TableModel {
                head_scores: scores.clone(),
                tail_scores: scores,
            }
        }
    }

    impl ScoreModel for TableModel {
        fn score_all_tails(&self, _e: &Embeddings, _h: u32, _r: u32, out: &mut [f32]) {
            out.copy_from_slice(&self.tail_scores);
        }
        fn score_all_heads(&self, _e: &Embeddings, _t: u32, _r: u32, out: &mut [f32]) {
            out.copy_from_slice(&self.head_scores);
        }
        fn score_triple(&self, _e: &Embeddings, t: Triple) -> f32 {
            self.tail_scores[t.tail as usize]
        }
    }

    fn tiny_dataset() -> (Dataset, FilterIndex, Embeddings) {
        let mut entities = Vocab::new();
        let mut relations = Vocab::new();
        for i in 0..5 {
            entities.intern(&format!("e{i}"));
        }
        relations.intern("r");
        let d = Dataset {
            name: "t".into(),
            entities,
            relations,
            train: vec![Triple::new(0, 0, 1), Triple::new(0, 0, 2)],
            valid: vec![],
            test: vec![Triple::new(0, 0, 3)],
            pattern_labels: vec![RelationPattern::GeneralAsymmetric],
        };
        let f = FilterIndex::build(&d);
        let mut rng = Rng::seed_from_u64(0);
        let e = Embeddings::init(5, 1, 4, &mut rng);
        (d, f, e)
    }

    #[test]
    fn filtered_rank_basic() {
        // scores: e0..e4; target e3 (score 5.0); e1 better, e2 filtered.
        let scores = [1.0, 9.0, 7.0, 5.0, 2.0];
        let rank = filtered_rank(&scores, 3, &[1, 2, 3]);
        // e1 is filtered too? No: filtered = known-true answers {1,2,3};
        // both e1 and e2 are removed; target kept. Only e0, e4 compete,
        // both worse → rank 1.
        assert_eq!(rank, 1.0);
        // Without filtering, e1 and e2 are better → rank 3.
        assert_eq!(filtered_rank(&scores, 3, &[3]), 3.0);
    }

    #[test]
    fn constant_scores_give_average_rank() {
        let scores = [0.5f32; 10];
        let rank = filtered_rank(&scores, 4, &[4]);
        assert_eq!(rank, 1.0 + 9.0 / 2.0);
    }

    #[test]
    fn perfect_model_gets_mrr_one() {
        let (d, f, e) = tiny_dataset();
        // Target of the only test triple is e3 for tails and e0 for heads.
        // A table scoring e3 and e0 highest ranks both first.
        let mut tail_scores = vec![0.0; 5];
        tail_scores[3] = 10.0;
        let mut head_scores = vec![0.0; 5];
        head_scores[0] = 10.0;
        let model = TableModel {
            tail_scores,
            head_scores,
        };
        let m = link_prediction(&model, &e, &d.test, &f);
        assert_eq!(m.count, 2);
        assert!((m.mrr - 1.0).abs() < 1e-12, "mrr {}", m.mrr);
        assert_eq!(m.hits1, 1.0);
        assert_eq!(m.hits10, 1.0);
    }

    #[test]
    fn filtering_removes_known_positives() {
        let (_d, f, e) = tiny_dataset();
        // e1, e2 are known tails of (0, r); give them the highest scores.
        // With filtering the target e3 still ranks 1st among {e0, e3, e4}.
        let model = TableModel::symmetric(vec![0.0, 10.0, 9.0, 5.0, 1.0]);
        let mut scores = vec![0.0; 5];
        model.score_all_tails(&e, 0, 0, &mut scores);
        let rank = filtered_rank(&scores, 3, f.tails(0, 0));
        assert_eq!(rank, 1.0);
    }

    #[test]
    fn untrained_block_model_is_near_chance() {
        let (d, f, e) = tiny_dataset();
        let model = BlockModel::universal(zoo::distmult(4), 1);
        let m = link_prediction(&model, &e, &d.test, &f);
        // 5 entities: chance MRR with mild filtering is well below 0.9.
        assert!(m.mrr < 0.9);
        assert!(m.mrr > 0.0);
    }

    #[test]
    fn pattern_slicing_covers_only_present_patterns() {
        let (d, f, e) = tiny_dataset();
        let model = BlockModel::universal(zoo::distmult(4), 1);
        let per = link_prediction_by_pattern(&model, &e, &d, &f);
        assert_eq!(per.len(), 1);
        assert_eq!(per[0].0, RelationPattern::GeneralAsymmetric);
    }

    #[test]
    fn pooled_evaluator_matches_sequential_for_every_pool_size() {
        let dataset = eras_data::Preset::Tiny.build(60);
        let filter = FilterIndex::build(&dataset);
        let mut rng = Rng::seed_from_u64(2);
        let emb = Embeddings::init(
            dataset.num_entities(),
            dataset.num_relations(),
            16,
            &mut rng,
        );
        let model = BlockModel::universal(zoo::complex(), dataset.num_relations());
        let seq = link_prediction(&model, &emb, &dataset.test, &filter);
        let two = &dataset.test[..2.min(dataset.test.len())];
        let seq_two = link_prediction(&model, &emb, two, &filter);
        for threads in [1usize, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let pooled = link_prediction_pool(&model, &emb, &dataset.test, &filter, &pool);
            assert_eq!(pooled, seq, "pool size {threads}");
            // More workers than shards (and than triples).
            let pooled_two = link_prediction_pool(&model, &emb, two, &filter, &pool);
            assert_eq!(pooled_two, seq_two, "pool size {threads}, two triples");
            // Empty triple set: zero metrics on every path.
            let empty = link_prediction_pool(&model, &emb, &[], &filter, &pool);
            assert_eq!(
                empty,
                LinkPredictionMetrics::default(),
                "pool size {threads}"
            );
        }
        assert_eq!(
            link_prediction(&model, &emb, &[], &filter),
            LinkPredictionMetrics::default()
        );
    }

    /// Strips a model's rank overrides, forcing the default dense path
    /// (materialize scores, then [`filtered_rank`]).
    struct DenseOnly<'a, M: ScoreModel>(&'a M);

    impl<M: ScoreModel> ScoreModel for DenseOnly<'_, M> {
        fn score_all_tails(&self, emb: &Embeddings, h: u32, r: u32, out: &mut [f32]) {
            self.0.score_all_tails(emb, h, r, out)
        }
        fn score_all_heads(&self, emb: &Embeddings, t: u32, r: u32, out: &mut [f32]) {
            self.0.score_all_heads(emb, t, r, out)
        }
        fn score_triple(&self, emb: &Embeddings, triple: Triple) -> f32 {
            self.0.score_triple(emb, triple)
        }
        // No tail_rank/head_rank overrides: the defaults run.
    }

    /// Every ⟨q, E[e]⟩ model, untrained, on the tiny preset's shapes:
    /// the inputs of the fused-vs-dense agreement tests.
    fn query_models(emb: &Embeddings, rng: &mut Rng) -> Vec<(&'static str, Box<dyn ScoreModel>)> {
        vec![
            (
                "ComplEx",
                Box::new(BlockModel::universal(zoo::complex(), emb.num_relations())),
            ),
            ("HolE", Box::new(crate::hole::HolE::new(emb, 0.1, 4))),
            ("QuatE", Box::new(crate::quate::QuatE::new(emb, 0.1, 4))),
            (
                "TuckER",
                Box::new(crate::baselines::TuckEr::new(emb, 0.05, rng)),
            ),
            (
                "MlpE",
                Box::new(crate::mlpe::MlpE::new(emb, 8, 0.05, 4, rng)),
            ),
        ]
    }

    /// The fused-scan rank path of every query-vector model must agree
    /// with the dense score-everything default to the last bit — every
    /// score it streams is bit-identical to the matvec the default
    /// ranks over.
    #[test]
    fn fused_rank_path_matches_dense_default_exactly() {
        let dataset = eras_data::Preset::Tiny.build(60);
        let filter = FilterIndex::build(&dataset);
        let mut rng = Rng::seed_from_u64(3);
        let emb = Embeddings::init(
            dataset.num_entities(),
            dataset.num_relations(),
            16,
            &mut rng,
        );
        for (name, model) in query_models(&emb, &mut rng) {
            let fused = link_prediction(&model, &emb, &dataset.test, &filter);
            let dense = link_prediction(&DenseOnly(&model), &emb, &dataset.test, &filter);
            assert_eq!(fused, dense, "{name}");
            // And per-query, on a few triples, through the trait methods.
            let mut scores = vec![0.0f32; dataset.num_entities()];
            for &t in dataset.test.iter().take(8) {
                let f = model.tail_rank(
                    &emb,
                    t.head,
                    t.rel,
                    t.tail,
                    filter.tails(t.head, t.rel),
                    &mut scores,
                );
                let d = DenseOnly(&model).tail_rank(
                    &emb,
                    t.head,
                    t.rel,
                    t.tail,
                    filter.tails(t.head, t.rel),
                    &mut scores,
                );
                assert_eq!(f.to_bits(), d.to_bits(), "{name} {t:?}");
            }
        }
    }

    /// With `candidates ≥ num_entities` the sampled evaluator must
    /// reproduce the full filtered ranking **bit for bit** — same
    /// candidate order, same scores, same tie handling — on both the
    /// fused BlockModel path and the dense default path.
    #[test]
    fn sampled_with_all_candidates_matches_full_exactly() {
        let dataset = eras_data::Preset::Tiny.build(60);
        let filter = FilterIndex::build(&dataset);
        let mut rng = Rng::seed_from_u64(5);
        let emb = Embeddings::init(
            dataset.num_entities(),
            dataset.num_relations(),
            16,
            &mut rng,
        );
        let model = BlockModel::universal(zoo::complex(), dataset.num_relations());
        let full = link_prediction(&model, &emb, &dataset.test, &filter);
        for candidates in [dataset.num_entities(), dataset.num_entities() * 3] {
            let sampled =
                link_prediction_sampled(&model, &emb, &dataset.test, &filter, candidates, 42);
            assert_eq!(sampled.mrr.to_bits(), full.mrr.to_bits(), "{candidates}");
            assert_eq!(sampled, full, "{candidates}");
            let dense = link_prediction_sampled(
                &DenseOnly(&model),
                &emb,
                &dataset.test,
                &filter,
                candidates,
                42,
            );
            assert_eq!(dense, full, "dense default, {candidates}");
        }
    }

    /// The fused sampled path (scan over gathered candidate rows) and
    /// the dense default (score all, rank over the sample) must agree
    /// bit for bit for candidate sets smaller than the entity count, for
    /// every query-vector model.
    #[test]
    fn sampled_fused_path_matches_dense_default_exactly() {
        let dataset = eras_data::Preset::Tiny.build(60);
        let filter = FilterIndex::build(&dataset);
        let mut rng = Rng::seed_from_u64(6);
        let emb = Embeddings::init(
            dataset.num_entities(),
            dataset.num_relations(),
            16,
            &mut rng,
        );
        for (name, model) in query_models(&emb, &mut rng) {
            for seed in [0u64, 7, 99] {
                let fused = link_prediction_sampled(&model, &emb, &dataset.test, &filter, 40, seed);
                let dense = link_prediction_sampled(
                    &DenseOnly(&model),
                    &emb,
                    &dataset.test,
                    &filter,
                    40,
                    seed,
                );
                assert_eq!(fused, dense, "{name} seed {seed}");
            }
        }
    }

    /// Sampled evaluation is a pure function of `(embeddings, seed)`:
    /// repeated runs and every pool size produce identical metrics, and
    /// the sampled MRR stays pinned for a fixed seed (regression).
    #[test]
    fn sampled_mrr_is_deterministic_and_pool_size_independent() {
        let dataset = eras_data::Preset::Tiny.build(60);
        let filter = FilterIndex::build(&dataset);
        let mut rng = Rng::seed_from_u64(7);
        let emb = Embeddings::init(
            dataset.num_entities(),
            dataset.num_relations(),
            16,
            &mut rng,
        );
        let model = BlockModel::universal(zoo::complex(), dataset.num_relations());
        let a = link_prediction_sampled(&model, &emb, &dataset.test, &filter, 50, 123);
        let b = link_prediction_sampled(&model, &emb, &dataset.test, &filter, 50, 123);
        assert_eq!(a.mrr.to_bits(), b.mrr.to_bits());
        // Pinned regression: the sampled protocol is part of the public
        // contract — candidate draws, filtering, and tie handling must
        // not drift across refactors. Bits of the seed-123 MRR above.
        assert_eq!(a.mrr.to_bits(), 0x3fb9_327a_3c24_4d8a, "mrr {}", a.mrr);
        for threads in [1usize, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let pooled =
                link_prediction_sampled_pool(&model, &emb, &dataset.test, &filter, 50, 123, &pool);
            assert_eq!(pooled, a, "pool size {threads}");
        }
        // A different candidate seed is allowed to (and here does)
        // move the metric — the seed is part of the protocol.
        let c = link_prediction_sampled(&model, &emb, &dataset.test, &filter, 50, 124);
        assert!(c.count == a.count);
    }

    /// Protocol properties of the sampled rank: the true entity always
    /// competes (even when it was not drawn) and is never filtered
    /// out, and known-true candidates never outrank it spuriously.
    #[test]
    fn sampled_rank_always_ranks_the_target_and_never_filters_it() {
        let n = 12usize;
        let mut rng = Rng::seed_from_u64(8);
        let emb = Embeddings::init(n, 1, 4, &mut rng);
        for seed in 0..20u64 {
            let cand = CandidateSet::draw(&emb, 5, seed);
            assert_eq!(cand.len(), 5);
            let target = (seed % n as u64) as u32;
            // Target scored best: rank 1 whether or not it was drawn,
            // even when the target id itself appears in `filtered`.
            let mut scores = vec![0.0f32; n];
            scores[target as usize] = 10.0;
            let rank = sampled_filtered_rank(&scores, cand.ids(), target, &[target]);
            assert_eq!(rank, 1.0, "seed {seed}");
            // Target scored worst: rank = 1 + #unfiltered competitors.
            let mut scores = vec![5.0f32; n];
            scores[target as usize] = -10.0;
            let filtered: Vec<u32> = (0..n as u32).filter(|&e| e % 3 == 0).collect();
            let competitors = cand
                .ids()
                .iter()
                .filter(|&&c| c != target && c % 3 != 0)
                .count();
            let rank = sampled_filtered_rank(&scores, cand.ids(), target, &filtered);
            assert_eq!(rank, 1.0 + competitors as f64, "seed {seed}");
        }
    }

    /// Candidate sets are seeded draws: same seed → same ids, distinct
    /// and sorted; `candidates ≥ n` → all entities.
    #[test]
    fn candidate_sets_are_seed_stable_sorted_and_distinct() {
        let mut rng = Rng::seed_from_u64(9);
        let emb = Embeddings::init(30, 1, 4, &mut rng);
        for seed in 0..10u64 {
            let a = CandidateSet::draw(&emb, 8, seed);
            let b = CandidateSet::draw(&emb, 8, seed);
            assert_eq!(a.ids(), b.ids());
            assert!(a.ids().windows(2).all(|w| w[0] < w[1]), "sorted distinct");
            assert_eq!(a.rows().rows(), 8);
        }
        let all = CandidateSet::draw(&emb, 30, 3);
        assert_eq!(all.ids(), (0..30u32).collect::<Vec<_>>().as_slice());
        let more = CandidateSet::draw(&emb, 1000, 3);
        assert_eq!(more.ids(), all.ids());
    }

    #[test]
    fn metrics_monotonicity() {
        // hits1 <= hits3 <= hits10 and mrr in (0, 1].
        let (d, f, e) = tiny_dataset();
        let model = TableModel::symmetric(vec![5.0, 4.0, 3.0, 2.0, 1.0]);
        let m = link_prediction(&model, &e, &d.test, &f);
        assert!(m.hits1 <= m.hits3);
        assert!(m.hits3 <= m.hits10);
        assert!(m.mrr > 0.0 && m.mrr <= 1.0);
    }
}
