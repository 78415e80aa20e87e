//! Bit pins for the Table VI comparator models.
//!
//! Each comparator trains for three epochs on `Preset::Tiny` from a
//! fixed seed. The test pins, to the last bit, the loss of every
//! epoch, a checksum of the trained parameters (entity and relation
//! tables plus any model-owned parameters: TransH's normals, TuckER's
//! core, MlpE's network) and the filtered test MRR. Refactoring the
//! training loops or the scoring path must leave all three unchanged.
//!
//! The reduction kernels of the laned and the `scalar-kernels` builds
//! round differently, so each build has its own pin table.

use eras_data::{Dataset, FilterIndex, Preset, Triple};
use eras_linalg::{vecops, Rng};
use eras_train::baselines::{MarginConfig, RotatE, TransE, TransH, TuckEr};
use eras_train::eval::{link_prediction, ScoreModel};
use eras_train::hole::HolE;
use eras_train::mlpe::MlpE;
use eras_train::quate::QuatE;
use eras_train::Embeddings;

const DIM: usize = 16;
const EPOCHS: usize = 3;
const SEED: u64 = 11;

/// What one comparator run is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    loss_bits: [u32; EPOCHS],
    params: u64,
    mrr_bits: u64,
}

/// FNV-1a over the bit patterns of every parameter slice.
fn checksum(slices: &[&[f32]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in slices {
        for v in s.iter() {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Train `model` for [`EPOCHS`] epochs with `epoch` and pin the run.
fn pin<M: ScoreModel>(
    data: &(Dataset, FilterIndex),
    mut emb: Embeddings,
    mut rng: Rng,
    mut model: M,
    mut epoch: impl FnMut(&mut M, &mut Embeddings, &[Triple], &FilterIndex, &mut Rng) -> f32,
    extra: impl Fn(&M) -> Vec<f32>,
) -> Pin {
    let (dataset, filter) = data;
    let mut loss_bits = [0u32; EPOCHS];
    for bits in loss_bits.iter_mut() {
        *bits = epoch(&mut model, &mut emb, &dataset.train, filter, &mut rng).to_bits();
    }
    let params = checksum(&[
        emb.entity.as_slice(),
        emb.relation.as_slice(),
        &extra(&model),
    ]);
    let mrr_bits = link_prediction(&model, &emb, &dataset.test, filter)
        .mrr
        .to_bits();
    Pin {
        loss_bits,
        params,
        mrr_bits,
    }
}

/// The fixed dataset and a fresh seeded generator with initialised
/// embeddings — the same order of draws as the bench harness.
fn setup() -> ((Dataset, FilterIndex), Embeddings, Rng) {
    let dataset = Preset::Tiny.build(SEED);
    let filter = FilterIndex::build(&dataset);
    let mut rng = Rng::seed_from_u64(SEED);
    let emb = Embeddings::init(
        dataset.num_entities(),
        dataset.num_relations(),
        DIM,
        &mut rng,
    );
    ((dataset, filter), emb, rng)
}

/// Comparators whose parameters are the embedding tables alone.
fn no_extra<M>(_: &M) -> Vec<f32> {
    Vec::new()
}

fn run(name: &str) -> Pin {
    let (data, emb, mut rng) = setup();
    match name {
        "TransE" => {
            let m = TransE::new(&emb, MarginConfig::default());
            pin(
                &data,
                emb,
                rng,
                m,
                |m, e, t, f, r| m.train_epoch(e, t, f, r),
                no_extra,
            )
        }
        "TransH" => {
            let m = TransH::new(&emb, MarginConfig::default(), &mut rng);
            pin(
                &data,
                emb,
                rng,
                m,
                |m, e, t, f, r| m.train_epoch(e, t, f, r),
                |m: &TransH| m.normals.as_slice().to_vec(),
            )
        }
        "RotatE" => {
            let m = RotatE::new(&emb, MarginConfig::default());
            pin(
                &data,
                emb,
                rng,
                m,
                |m, e, t, f, r| m.train_epoch(e, t, f, r),
                no_extra,
            )
        }
        "TuckER" => {
            let m = TuckEr::new(&emb, 0.05, &mut rng);
            pin(
                &data,
                emb,
                rng,
                m,
                |m, e, t, _, _| m.train_epoch(e, t),
                |m: &TuckEr| m.core().to_vec(),
            )
        }
        "HolE" => {
            let m = HolE::new(&emb, 0.1, 64);
            pin(
                &data,
                emb,
                rng,
                m,
                |m, e, t, _, r| m.train_epoch(e, t, r),
                no_extra,
            )
        }
        "QuatE" => {
            let m = QuatE::new(&emb, 0.1, 64);
            pin(
                &data,
                emb,
                rng,
                m,
                |m, e, t, _, r| m.train_epoch(e, t, r),
                no_extra,
            )
        }
        "MlpE" => {
            let m = MlpE::new(&emb, 2 * DIM, 0.1, 64, &mut rng);
            pin(
                &data,
                emb,
                rng,
                m,
                |m, e, t, _, r| m.train_epoch(e, t, r),
                |m: &MlpE| m.net_param_vec(),
            )
        }
        other => panic!("unknown comparator {other}"),
    }
}

/// Whether the reduction kernels are the scalar reference (the
/// `scalar-kernels` build): the laned `dot` reassociates this sum and
/// rounds it differently.
fn scalar_kernels() -> bool {
    let a: Vec<f32> = (0..16).map(|i| 1.0 + i as f32 * 1e-3).collect();
    let b: Vec<f32> = (0..16)
        .map(|i| if i % 2 == 0 { 1e8 } else { -1e8 + 1.0 })
        .collect();
    vecops::dot(&a, &b).to_bits() == vecops::reference::dot(&a, &b).to_bits()
}

/// `(name, laned pin, scalar pin)`.
type PinRow = (&'static str, Pin, Pin);

fn pins() -> Vec<PinRow> {
    let p = |loss_bits: [u32; EPOCHS], params: u64, mrr_bits: u64| Pin {
        loss_bits,
        params,
        mrr_bits,
    };
    vec![
        (
            "TransE",
            p(
                [0x3feb13c5, 0x3fc75728, 0x3fb27e28],
                0xf5f402bed37c2e58,
                0x3fb0be0d84d31737,
            ),
            p(
                [0x3feb13c5, 0x3fc75726, 0x3fb27e28],
                0x1e6f11d1e566589c,
                0x3fb0be0d84d31737,
            ),
        ),
        (
            "TransH",
            p(
                [0x3febe80a, 0x3fcabec1, 0x3fb77c03],
                0xf47b3ba6d0d7cde6,
                0x3fa880085751f4f8,
            ),
            p(
                [0x3febe80d, 0x3fcabec0, 0x3fb77c04],
                0xbb8c7178c460f82f,
                0x3fa880085751f4f8,
            ),
        ),
        (
            "RotatE",
            p(
                [0x3fe0262d, 0x3fba9da5, 0x3facf80b],
                0x5a8d9ef0f2474f8e,
                0x3fa6551b82ed1040,
            ),
            p(
                [0x3fe0262d, 0x3fba9da5, 0x3facf80b],
                0x5a8d9ef0f2474f8e,
                0x3fa6551b82ed1040,
            ),
        ),
        (
            "TuckER",
            p(
                [0x409a4aab, 0x408be6ce, 0x4082e0b3],
                0x5a6e16113575d694,
                0x3fbb7901c0db5111,
            ),
            p(
                [0x409a4aac, 0x408be6ce, 0x4082e0b3],
                0x21f9ef1ffd5df26e,
                0x3fbb7901c0db5111,
            ),
        ),
        (
            "HolE",
            p(
                [0x407a25d7, 0x4045444d, 0x402819cd],
                0x7a1a251b6c9ca086,
                0x3fc3d727e629c81e,
            ),
            p(
                [0x407a25d6, 0x4045444f, 0x402819d2],
                0x1d7a0f813eaa6670,
                0x3fc3d727e629c81e,
            ),
        ),
        (
            "QuatE",
            p(
                [0x407cf8d5, 0x405656e3, 0x403b515f],
                0x71d4e09e65eac5a8,
                0x3fc1fd7287a4d9c5,
            ),
            p(
                [0x407cf8d7, 0x405656e5, 0x403b515e],
                0x45b9abd564c1529d,
                0x3fc1fd7287a4d9c5,
            ),
        ),
        (
            "MlpE",
            p(
                [0x4081c97a, 0x406da771, 0x40603456],
                0x26cd00e745594a7b,
                0x3fbc92d44f4bc24e,
            ),
            p(
                [0x4081c97b, 0x406da772, 0x40603452],
                0xb4e88b3a02a7631f,
                0x3fbc92d44f4bc24e,
            ),
        ),
    ]
}

#[test]
fn comparators_train_and_score_bit_identically() {
    let scalar = scalar_kernels();
    let mut failures = Vec::new();
    for (name, laned, scalar_pin) in pins() {
        let expected = if scalar { scalar_pin } else { laned };
        let got = run(name);
        if got != expected {
            failures.push(format!("{name}: got {got:x?}, pinned {expected:x?}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
