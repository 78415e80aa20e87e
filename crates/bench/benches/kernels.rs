//! Kernel micro-benchmarks: the hand-vectorized vecops against their
//! scalar reference forms, the fast-exp sweep, and the fused
//! entity-table scan against the unfused score-then-reduce pipeline.
//!
//! Backs the before/after tables in `docs/performance.md` § Vectorized
//! kernels. Emits `crates/bench/results/BENCH_kernels.json`. Set `ERAS_BENCH_QUICK`
//! for a smoke run (dimension 32 only, small scan table) — the JSON is
//! still written, with a `quick` marker.

use eras_bench::harness::bench;
use eras_bench::report::save_json;
use eras_data::Json;
use eras_linalg::scan::{scan_rows, StreamTopK};
use eras_linalg::softmax::{exp_approx, exp_approx_shifted};
use eras_linalg::vecops::{self, reference};
use eras_linalg::{Matrix, Rng};
use std::hint::black_box;

/// Queries per fused-scan group (the serving engine's shard width).
const SCAN_QUERIES: usize = 8;
const TOPK: usize = 10;

fn vec_of(n: usize, rng: &mut Rng) -> Vec<f32> {
    (0..n).map(|_| rng.normal()).collect()
}

fn bench_dot_family(dim: usize, rng: &mut Rng, results: Json) -> Json {
    let x = vec_of(dim, rng);
    let ys: Vec<Vec<f32>> = (0..4).map(|_| vec_of(dim, rng)).collect();

    let ns_ref = bench(&format!("dot/scalar_ref/d{dim}"), || {
        black_box(reference::dot(black_box(&x), black_box(&ys[0])))
    });
    let ns_vec = bench(&format!("dot/laned/d{dim}"), || {
        black_box(vecops::dot(black_box(&x), black_box(&ys[0])))
    });
    // dot4 amortises the left operand over four rows; report per-dot.
    let ns_dot4 = bench(&format!("dot4/laned/d{dim}"), || {
        black_box(vecops::dot4(black_box(&x), &ys[0], &ys[1], &ys[2], &ys[3]))
    }) / 4.0;

    results
        .set(&format!("dot_ref_d{dim}_ns"), ns_ref)
        .set(&format!("dot_d{dim}_ns"), ns_vec)
        .set(&format!("dot4_per_dot_d{dim}_ns"), ns_dot4)
}

fn bench_axpy(dim: usize, rng: &mut Rng, results: Json) -> Json {
    let x = vec_of(dim, rng);
    let mut y = vec_of(dim, rng);
    let ns_ref = bench(&format!("axpy/scalar_ref/d{dim}"), || {
        reference::axpy(black_box(0.5), black_box(&x), black_box(&mut y));
        black_box(y[0])
    });
    let ns_vec = bench(&format!("axpy/laned/d{dim}"), || {
        vecops::axpy(black_box(0.5), black_box(&x), black_box(&mut y));
        black_box(y[0])
    });
    results
        .set(&format!("axpy_ref_d{dim}_ns"), ns_ref)
        .set(&format!("axpy_d{dim}_ns"), ns_vec)
}

fn bench_exp(results: Json) -> Json {
    // The training hot path sweeps exp over a whole entity-table score
    // vector per side; benchmark that shape, per element.
    let n = 10_000usize;
    let mut rng = Rng::seed_from_u64(3);
    let base: Vec<f32> = (0..n).map(|_| rng.uniform(-12.0, 4.0)).collect();
    let mut buf = base.clone();

    let ns_std = bench("exp/std_exp/10k", || {
        buf.copy_from_slice(&base);
        for v in &mut buf {
            *v = (*v - 1.0).exp();
        }
        black_box(buf[0])
    }) / n as f64;
    let ns_scalar = bench("exp/approx_scalar/10k", || {
        buf.copy_from_slice(&base);
        for v in &mut buf {
            *v = exp_approx(*v - 1.0);
        }
        black_box(buf[0])
    }) / n as f64;
    let ns_laned = bench("exp/approx_shifted/10k", || {
        buf.copy_from_slice(&base);
        exp_approx_shifted(black_box(&mut buf), black_box(1.0));
        black_box(buf[0])
    }) / n as f64;
    results
        .set("exp_std_per_elem_ns", ns_std)
        .set("exp_approx_per_elem_ns", ns_scalar)
        .set("exp_approx_shifted_per_elem_ns", ns_laned)
}

fn bench_fused_scan(dim: usize, rows: usize, rng: &mut Rng, results: Json) -> Json {
    let table = Matrix::uniform_init(rows, dim, 1.0, rng);
    let qvecs = vec_of(SCAN_QUERIES * dim, rng);
    let no_filter: &[u32] = &[];

    // Fused: one cache-blocked pass, scores streamed into the heaps.
    let ns_fused = bench(&format!("scan/fused_topk/{rows}r_d{dim}"), || {
        let mut sinks: Vec<StreamTopK> = (0..SCAN_QUERIES)
            .map(|_| StreamTopK::new(TOPK, no_filter))
            .collect();
        scan_rows(black_box(&table), black_box(&qvecs), &mut sinks);
        black_box(sinks.pop().unwrap().into_sorted().len())
    });

    // Unfused reference: materialize each query's score vector with a
    // matvec, then feed the heap from the dense buffer.
    let mut scores = vec![0.0f32; rows];
    let ns_unfused = bench(&format!("scan/unfused_topk/{rows}r_d{dim}"), || {
        let mut last = 0usize;
        for qi in 0..SCAN_QUERIES {
            table.matvec(black_box(&qvecs[qi * dim..(qi + 1) * dim]), &mut scores);
            let mut sink = StreamTopK::new(TOPK, no_filter);
            sink.consume_dense(&scores);
            last = sink.into_sorted().len();
        }
        black_box(last)
    });
    results
        .set(&format!("scan_fused_{rows}r_d{dim}_ns"), ns_fused)
        .set(&format!("scan_unfused_{rows}r_d{dim}_ns"), ns_unfused)
        .set(
            &format!("scan_speedup_{rows}r_d{dim}"),
            ns_unfused / ns_fused,
        )
}

/// Feed a dense score vector through the consumer interface.
trait ConsumeDense {
    fn consume_dense(&mut self, scores: &[f32]);
}

impl ConsumeDense for StreamTopK<'_> {
    fn consume_dense(&mut self, scores: &[f32]) {
        use eras_linalg::scan::BlockConsumer;
        self.consume(0, scores);
    }
}

fn main() {
    let quick = std::env::var("ERAS_BENCH_QUICK").is_ok();
    let dims: &[usize] = if quick { &[32] } else { &[32, 64, 128] };
    let scan_rows_n = if quick { 5_000 } else { 50_000 };

    let mut rng = Rng::seed_from_u64(42);
    let mut results = Json::obj()
        .set("quick", quick)
        .set("lanes", vecops::LANES)
        .set("scan_queries", SCAN_QUERIES)
        .set("scan_rows", scan_rows_n)
        .set("topk", TOPK);

    for &dim in dims {
        results = bench_dot_family(dim, &mut rng, results);
        results = bench_axpy(dim, &mut rng, results);
    }
    results = bench_exp(results);
    for &dim in dims {
        results = bench_fused_scan(dim, scan_rows_n, &mut rng, results);
    }

    match save_json("BENCH_kernels", &results) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_kernels.json: {e}"),
    }
}
