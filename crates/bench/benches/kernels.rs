//! Criterion: the tiled/threaded kernel layer against the naive reference
//! loops, plus the buffer-pool fast path. `fig_kernels` is the headline
//! harness (GFLOP/s table + regression gate); this bench gives
//! statistically-sound per-kernel timings for local tuning of the
//! MC/KC/NC blocking, and the microkernel tile on its own at every SIMD
//! level the host has.

// criterion_group! expands to an undocumented public fn.
#![allow(missing_docs)]
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use chimera_tensor::{kernels, pool, Rng, Tensor};

fn randvec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::new(seed);
    (0..len).map(|_| rng.normal()).collect()
}

/// Naive vs tiled (1 thread) vs tiled (4 threads), at shapes spanning the
/// cache-resident → cache-busting range.
fn bench_matmul_variants(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels/matmul");
    for &(m, k, n) in &[
        (64usize, 64usize, 64usize),
        (128, 256, 256),
        (256, 512, 512),
    ] {
        let a = randvec(m * k, 1);
        let b = randvec(k * n, 2);
        let mut out = vec![0.0f32; m * n];
        let id = format!("{m}x{k}x{n}");

        g.bench_with_input(BenchmarkId::new("naive", &id), &(), |bench, ()| {
            bench.iter(|| {
                out.iter_mut().for_each(|o| *o = 0.0);
                kernels::naive::matmul_into(black_box(&a), black_box(&b), &mut out, m, k, n);
            });
        });
        g.bench_with_input(BenchmarkId::new("tiled_1t", &id), &(), |bench, ()| {
            kernels::set_threads(1);
            bench.iter(|| {
                out.iter_mut().for_each(|o| *o = 0.0);
                kernels::matmul_into(black_box(&a), black_box(&b), &mut out, m, k, n);
            });
        });
        g.bench_with_input(BenchmarkId::new("tiled_4t", &id), &(), |bench, ()| {
            kernels::set_threads(4);
            bench.iter(|| {
                out.iter_mut().for_each(|o| *o = 0.0);
                kernels::matmul_into(black_box(&a), black_box(&b), &mut out, m, k, n);
            });
            kernels::set_threads(1);
        });
    }
    g.finish();
}

/// The microkernel alone at every level the host supports: one `MR×NR` tile
/// over one `KC`-deep pair of packed panels, no packing and no output
/// traffic — `fig_kernels`' tile ceiling, per level (`2·MR·NR·KC` flops per
/// iteration).
fn bench_tile(c: &mut Criterion) {
    let kcb = kernels::KC;
    let apack = randvec(kcb * kernels::MR, 8);
    let bpack = randvec(kcb * kernels::NR, 9);
    let mut g = c.benchmark_group(format!("kernels/tile_{}x{}", kernels::MR, kernels::NR));
    for &level in kernels::SimdLevel::supported() {
        g.bench_function(level.name(), |bench| {
            kernels::set_level_cap(level);
            let mut tile = [[0.0f32; kernels::NR]; kernels::MR];
            bench.iter(|| {
                let mut rows = tile.each_mut().map(|r| &mut r[..]);
                kernels::gemm_micro(black_box(&apack), black_box(&bpack), kcb, &mut rows, 0);
            });
            kernels::set_level_cap(kernels::SimdLevel::Avx512);
        });
    }
    g.finish();
}

/// The two backward-pass kernels at a transformer-block gradient shape
/// (both on the packed engine: `dX` packs its transposed operand).
fn bench_backward_kernels(c: &mut Criterion) {
    let (m, k, n) = (128usize, 256usize, 256usize);
    let a = randvec(k * m, 3);
    let b = randvec(k * n, 4);
    let at = randvec(m * k, 5);
    let bt = randvec(n * k, 6);
    let mut out = vec![0.0f32; m * n];
    let mut g = c.benchmark_group("kernels/backward_128x256x256");
    g.bench_function("t_matmul (dW)", |bench| {
        bench.iter(|| {
            out.iter_mut().for_each(|o| *o = 0.0);
            kernels::t_matmul_into(black_box(&a), black_box(&b), &mut out, k, m, n);
        });
    });
    g.bench_function("matmul_t (dX)", |bench| {
        bench.iter(|| {
            out.iter_mut().for_each(|o| *o = 0.0);
            kernels::matmul_t_into(black_box(&at), black_box(&bt), &mut out, m, k, n);
        });
    });
    g.finish();
}

/// Pool take/put round trip vs a raw allocation, at a gradient-buffer size.
fn bench_pool(c: &mut Criterion) {
    const LEN: usize = 1 << 16;
    let mut g = c.benchmark_group("pool/take_zeroed_64k");
    g.bench_function("pooled", |bench| {
        pool::set_enabled(true);
        pool::put(pool::take_zeroed(LEN)); // prime the class
        bench.iter(|| {
            let v = pool::take_zeroed(black_box(LEN));
            pool::put(v);
        });
    });
    g.bench_function("alloc", |bench| {
        bench.iter(|| black_box(vec![0.0f32; black_box(LEN)]));
    });
    g.finish();
}

/// Tensor-level ops that compose kernels + pool: the per-micro-batch linear
/// forward/backward the runtime actually executes.
fn bench_linear_roundtrip(c: &mut Criterion) {
    let mut rng = Rng::new(7);
    let x = Tensor::normal(32, 256, 1.0, &mut rng);
    let w = Tensor::normal(256, 256, 0.05, &mut rng);
    let dy = Tensor::normal(32, 256, 1.0, &mut rng);
    let mut gw = vec![0.0f32; 256 * 256];
    c.bench_function("tensor/linear_fwd_bwd_32x256", |bench| {
        bench.iter(|| {
            let y = x.matmul(black_box(&w));
            gw.iter_mut().for_each(|o| *o = 0.0);
            x.t_matmul_acc(black_box(&dy), &mut gw);
            let dx = dy.matmul_t(black_box(&w));
            black_box((y, dx));
        });
    });
}

criterion_group!(
    benches,
    bench_tile,
    bench_matmul_variants,
    bench_backward_kernels,
    bench_pool,
    bench_linear_roundtrip
);
criterion_main!(benches);
