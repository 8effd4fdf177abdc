//! Criterion: the gradient path's two kernels — the keyed reduction of four
//! contributions and the in-place optimizer step — per element, beside a
//! plain copy.

// criterion_group! expands to an undocumented public fn.
#![allow(missing_docs)]
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use chimera_nn::{ModelConfig, Optimizer, OptimizerKind, Stage};
use chimera_tensor::ops;

/// What one worker does per held stage per step once the gradients exist,
/// at the size of a `pipe_chimera` stage (the benchmark's wide model cut in
/// two, ≈ 0.93 M parameters): `keyed_reduce_4x` is the pass a completed
/// keyed round runs — four contributions summed in key order into the
/// group's result buffer (`ops::sum_ordered`, five sweeps of the vector);
/// `update_in_place` is `Stage::step` with momentum SGD (five sweeps: read
/// parameter, moment and gradient, write parameter and moment);
/// `copy_from_slice` is the two-sweep ceiling to read both against. All in
/// ns per element of the vector.
fn bench_gradient_path(c: &mut Criterion) {
    let cfg = ModelConfig {
        vocab: 512,
        hidden: 256,
        seq: 64,
        layers: 2,
        heads: 4,
        causal: true,
        seed: 1,
    };
    let mut stage = Stage::build(cfg, 0, 2);
    let len = stage.num_params();
    let terms: Vec<Vec<f32>> = (0..4).map(|k| vec![k as f32 + 0.5; len]).collect();
    let refs: Vec<&[f32]> = terms.iter().map(Vec::as_slice).collect();
    let mut out = vec![0.0f32; len];

    let mut g = c.benchmark_group("gradient_path");
    g.sample_size(20);
    g.throughput(Throughput::Elements(len as u64));
    g.bench_function("copy_from_slice", |b| {
        b.iter(|| black_box(&mut out).copy_from_slice(black_box(&terms[0])));
    });
    g.bench_function("keyed_reduce_4x", |b| {
        b.iter(|| ops::sum_ordered(black_box(&mut out), black_box(&refs)));
    });
    let mut opt = Optimizer::new(OptimizerKind::Sgd { momentum: 0.9 }, len);
    g.bench_function("update_in_place", |b| {
        b.iter(|| black_box(&mut stage).step(&mut opt, black_box(&out), 1e-3));
    });
    g.finish();
}

criterion_group!(benches, bench_gradient_path);
criterion_main!(benches);
