//! Kernel-layer throughput harness: the microkernel's own rate (the tile
//! ceiling every packed rate is reported as a fraction of), naive vs
//! packed-panel vs packed+threaded GFLOP/s, backward-kernel rates (and
//! model G's weight gradients under the `Add` epilogue beside a scratch
//! folded in by `add_ordered`),
//! elementwise ops
//! (ns/element beside the libm loops they replaced), softmax over
//! attention's stacked scores at every level (ns per live element and per
//! row, masked and not), the attention core
//! (µs per call beside the per-head composition it replaced, and its
//! score-shaped product on either tile), model G's forward and `dX`
//! products at 64, 128 and 256 rows per call (what stacking micro-batches
//! buys), a transformer
//! block's measured backward/forward balance for sim calibration, and
//! end-to-end training step time with the buffer pool on/off.
//!
//! Writes `BENCH_kernels.json` at the workspace root. The JSON carries a
//! `calibration` section whose `bwd_over_fwd` —
//! one block's backward time over its forward time, GEMMs and elementwise
//! ops together — `chimera profile --calibration` feeds into the
//! simulator's unit costs. Flags:
//!
//! * `--smoke`      short run for the CI bench-smoke job; still includes
//!   the 512×1024×1024 headline shape the ROADMAP targets. Writes under
//!   `target/smoke/` (the artifact CI uploads), never over the committed
//!   full-run files
//! * `--check`      enforce the committed baseline
//!   (`crates/bench/baselines/kernels.json`: each shape's packed rate as a
//!   fraction of the tile ceiling measured in the same run), the
//!   `speedup_vs_naive ≥ 4.0` floor on the headline shape, threading
//!   (mt ≥ 1.5× 1t when ≥2 cores are actually available, mt ≥ 0.9× 1t
//!   otherwise), `gelu` ≥ 8× its libm loop (lost autovectorisation shows
//!   here), the attention core over its per-head composition at the
//!   long-sequence shape (same), the causal softmax stack under the unmasked
//!   one and `q·kᵀ` on the wide tile over the 8-lane one (a lost lockstep
//!   body or tile shows there), model G's products at 128 rows per call
//!   over 64, and `end_to_end` pool ratio ≥ 1.0
//! * `--threads N`  intra-op thread count (default: `max(4, cores)`)
//!
//! The committed baseline is deliberately conservative — about half the
//! fraction a healthy run shows — and relative to this run's own ceiling, so
//! the gate catches structural regressions (a lost packed panel, broken
//! level dispatch, an accidental bounds check in the pack) on any host
//! rather than CI-runner noise or a narrower vector unit.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use chimera_bench::{arg_value, output_root, print_table, write_json};
use chimera_nn::{
    Attention, ModelConfig, ReferenceTrainer, Stage, SyntheticData, TransformerBlock,
};
use chimera_tensor::{
    gelu, gelu_backward, kernels, layernorm, ops, pool, scale_mask_softmax_rows, softmax_rows,
    softmax_rows_backward, Rng, Tensor,
};

/// Time `body` (called repeatedly) and return mean seconds per call:
/// at least `min_reps` calls and at least ~0.2 s of total wall clock.
fn time_per_call(min_reps: u32, mut body: impl FnMut()) -> f64 {
    body(); // warm the caches / pool
    let mut reps = 0u32;
    let start = Instant::now();
    while reps < min_reps || start.elapsed().as_secs_f64() < 0.2 {
        body();
        reps += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(reps)
}

fn gflops(m: usize, k: usize, n: usize, secs: f64) -> f64 {
    2.0 * (m as f64) * (k as f64) * (n as f64) / secs / 1e9
}

fn randvec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::new(seed);
    (0..len).map(|_| rng.normal()).collect()
}

/// GFLOP/s of the microkernel alone, at every level the host supports
/// (ascending; the last is the dispatched one): one `MR×NR` tile over one
/// `KC`-deep pair of packed panels (8 KB of `a`, 32 KB of `b`, a 1 KB tile —
/// L1-resident where L1 holds 48 KB), called back to back. No packing and no
/// `out` traffic beyond the tile's own load and store, so no packed product
/// can run faster than the last entry: the same-run ceiling its rate is a
/// fraction of. Best of a few passes — a ceiling is a maximum.
fn bench_tile_ceilings() -> Vec<(kernels::SimdLevel, f64)> {
    const CALLS: usize = 512;
    let kcb = kernels::KC;
    let apack = randvec(kcb * kernels::MR, 3);
    let bpack = randvec(kcb * kernels::NR, 4);
    let mut tile = [[0.0f32; kernels::NR]; kernels::MR];
    let mut rate_at = |level: kernels::SimdLevel| {
        kernels::set_level_cap(level);
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            best = best.min(time_per_call(3, || {
                tile = [[0.0; kernels::NR]; kernels::MR];
                for _ in 0..CALLS {
                    let mut rows = tile.each_mut().map(|r| &mut r[..]);
                    kernels::gemm_micro(black_box(&apack), black_box(&bpack), kcb, &mut rows, 0);
                }
                black_box(&tile);
            }));
        }
        gflops(kernels::MR * CALLS, kcb, kernels::NR, best)
    };
    let levels = kernels::SimdLevel::supported();
    let ceilings = levels.iter().map(|&l| (l, rate_at(l))).collect();
    kernels::set_level_cap(kernels::SimdLevel::Avx512);
    ceilings
}

/// The ROADMAP's headline kernel shape: large enough that every GEMM
/// dimension spills all cache levels, so packing either pays or doesn't.
const HEADLINE: (usize, usize, usize) = (512, 1024, 1024);

struct MatmulRow {
    shape: String,
    naive: f64,
    tiled_1t: f64,
    tiled_mt: f64,
}

/// Naive vs tiled vs tiled+threaded GFLOP/s for one `m×k×n` product.
fn bench_shape(m: usize, k: usize, n: usize, threads: usize) -> MatmulRow {
    let a = randvec(m * k, 1);
    let b = randvec(k * n, 2);
    let mut out = vec![0.0f32; m * n];

    let naive = time_per_call(3, || {
        out.iter_mut().for_each(|o| *o = 0.0);
        kernels::naive::matmul_into(&a, &b, &mut out, m, k, n);
    });
    kernels::set_threads(1);
    let tiled_1t = time_per_call(3, || {
        out.iter_mut().for_each(|o| *o = 0.0);
        kernels::matmul_into(&a, &b, &mut out, m, k, n);
    });
    kernels::set_threads(threads);
    let tiled_mt = time_per_call(3, || {
        out.iter_mut().for_each(|o| *o = 0.0);
        kernels::matmul_into(&a, &b, &mut out, m, k, n);
    });
    kernels::set_threads(1);

    MatmulRow {
        shape: format!("{m}x{k}x{n}"),
        naive: gflops(m, k, n, naive),
        tiled_1t: gflops(m, k, n, tiled_1t),
        tiled_mt: gflops(m, k, n, tiled_mt),
    }
}

/// Single-threaded GFLOP/s of the two backward-pass kernels (`aᵀ@b` for
/// `dW`, `a@bᵀ` for `dX`) at one shape, for unit-cost calibration.
fn bench_backward(m: usize, k: usize, n: usize) -> (f64, f64) {
    let a = randvec(m * k, 5);
    let at = randvec(k * m, 6);
    let b = randvec(k * n, 7);
    let bt = randvec(n * k, 8);
    let mut out = vec![0.0f32; m * n];
    kernels::set_threads(1);
    let t_mm = time_per_call(3, || {
        out.iter_mut().for_each(|o| *o = 0.0);
        kernels::t_matmul_into(&at, &b, &mut out, k, m, n);
    });
    let mm_t = time_per_call(3, || {
        out.iter_mut().for_each(|o| *o = 0.0);
        kernels::matmul_t_into(&a, &bt, &mut out, m, k, n);
    });
    (gflops(m, k, n, t_mm), gflops(m, k, n, mm_t))
}

/// Single-threaded GFLOP/s of model G's weight gradients (`xᵀ·dy` of every
/// weight of [`G_WEIGHTS`], one micro-batch of 64 rows) landing in an
/// accumulator that already holds a sum: `[Add in the tile, the chain
/// written into a zeroed scratch + add_ordered + the scratch cleared]` — the
/// second is how a micro-batch after the first used to fold. Alternating
/// rounds, best of each.
fn bench_dw_epilogues(rounds: u32) -> [f64; 2] {
    const ROWS: usize = 64;
    kernels::set_threads(1);
    let widest = G_WEIGHTS.iter().map(|&(i, o)| i.max(o)).max().unwrap_or(0);
    let (x, dy) = (randvec(ROWS * widest, 40), randvec(ROWS * widest, 41));
    let mut accs: Vec<Vec<f32>> = G_WEIGHTS.iter().map(|&(i, o)| vec![0.0; i * o]).collect();
    let mut scratch = vec![0.0f32; widest * widest];
    let flops: usize = G_WEIGHTS.iter().map(|&(i, o)| 2 * ROWS * i * o).sum();
    let mut best = [f64::INFINITY; 2];
    for _ in 0..rounds {
        best[0] = best[0].min(time_per_call(5, || {
            for (acc, &(i, o)) in accs.iter_mut().zip(&G_WEIGHTS) {
                let (x, dy) = (&x[..ROWS * i], &dy[..ROWS * o]);
                let ep = kernels::Epilogue::Add;
                kernels::gemm_into(
                    kernels::Product::TransA,
                    x,
                    dy,
                    black_box(acc),
                    (i, ROWS, o),
                    ep,
                );
            }
        }));
        best[1] = best[1].min(time_per_call(5, || {
            for (acc, &(i, o)) in accs.iter_mut().zip(&G_WEIGHTS) {
                let g = &mut scratch[..i * o];
                kernels::t_matmul_into(&x[..ROWS * i], &dy[..ROWS * o], black_box(g), ROWS, i, o);
                ops::add_ordered(acc, &[g]);
                g.fill(0.0);
            }
        }));
    }
    best.map(|secs| flops as f64 / secs / 1e9)
}

struct ElementwiseRow {
    op: &'static str,
    shape: String,
    ns_per_elem: f64,
    /// The same formula over `f32::tanh`/`f32::exp` through `Tensor::map`,
    /// as `ops.rs` had it before `vmath`; `None` where no libm was involved.
    libm_ns_per_elem: Option<f64>,
}

/// The libm loops the elementwise ops replaced, kept here (outside the
/// crates whose `clippy.toml` bans libm) as the speed reference.
mod libm {
    use chimera_tensor::Tensor;

    const C: f32 = 0.797_884_6;
    const A: f32 = 0.044715;

    pub fn gelu(x: &Tensor) -> Tensor {
        x.map(|v| 0.5 * v * (1.0 + (C * (v + A * v * v * v)).tanh()))
    }

    pub fn gelu_backward(x: &Tensor, dy: &Tensor) -> Tensor {
        let grad = x.map(|v| {
            let t = (C * (v + A * v * v * v)).tanh();
            0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * C * (1.0 + 3.0 * A * v * v)
        });
        grad.hadamard(dy)
    }

    pub fn softmax_rows(x: &Tensor) -> Tensor {
        let mut out = x.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            let inv = 1.0 / sum;
            row.iter_mut().for_each(|v| *v *= inv);
        }
        out
    }
}

/// ns/element of the elementwise ops at the shapes the benchmark's wide
/// model gives them (`[64, 1024]` MLP activation, `[128, 128]` scores,
/// `[64, 256]` hidden rows).
fn bench_elementwise() -> Vec<ElementwiseRow> {
    let mut rng = Rng::new(9);
    let act = Tensor::normal(64, 1024, 1.0, &mut rng);
    let dact = Tensor::normal(64, 1024, 1.0, &mut rng);
    let scores = Tensor::normal(128, 128, 1.0, &mut rng);
    let hidden = Tensor::normal(64, 256, 1.0, &mut rng);
    let (gamma, beta) = (vec![1.0f32; 256], vec![0.0f32; 256]);
    let row = |op, t: &Tensor, ours: &mut dyn FnMut(), reference: Option<&mut dyn FnMut()>| {
        let ns = |body: &mut dyn FnMut()| time_per_call(20, body) * 1e9 / t.len() as f64;
        ElementwiseRow {
            op,
            shape: format!("{}x{}", t.rows(), t.cols()),
            ns_per_elem: ns(ours),
            libm_ns_per_elem: reference.map(ns),
        }
    };
    vec![
        row(
            "gelu",
            &act,
            &mut || drop(black_box(gelu(black_box(&act)))),
            Some(&mut || drop(black_box(libm::gelu(black_box(&act))))),
        ),
        row(
            "gelu_backward",
            &act,
            &mut || drop(black_box(gelu_backward(black_box(&act), &dact))),
            Some(&mut || drop(black_box(libm::gelu_backward(black_box(&act), &dact)))),
        ),
        row(
            "softmax_rows",
            &scores,
            &mut || drop(black_box(softmax_rows(black_box(&scores)))),
            Some(&mut || drop(black_box(libm::softmax_rows(black_box(&scores))))),
        ),
        row(
            "layernorm",
            &hidden,
            &mut || drop(black_box(layernorm(black_box(&hidden), &gamma, &beta))),
            None,
        ),
    ]
}

struct SoftmaxStackRow {
    op: &'static str,
    level: kernels::SimdLevel,
    causal: bool,
    secs: f64,
}

impl SoftmaxStackRow {
    fn mask(&self) -> &'static str {
        if self.causal {
            "causal"
        } else {
            "none"
        }
    }

    /// Per element the op reads and exponentiates (or differentiates).
    fn ns_per_live_elem(&self) -> f64 {
        let (blocks, s) = STACK;
        let live = if self.causal {
            blocks * s * (s + 1) / 2
        } else {
            blocks * s * s
        };
        self.secs * 1e9 / live as f64
    }

    fn ns_per_row(&self) -> f64 {
        self.secs * 1e9 / (STACK.0 * STACK.1) as f64
    }
}

/// Attention's stacked scores at the benchmark's long-sequence model: eight
/// `[128, 128]` blocks.
const STACK: (usize, usize) = (8, 128);

/// Softmax and its backward over [`STACK`], in place as attention runs
/// them, under the causal mask and without it, at every level the host
/// supports. `softmax_rows` at 128×128 above is a per-element number; the
/// cost that hid behind it was per row — the masked half of the elements
/// cost nothing less — so these rows report both. Best of alternating
/// rounds, the restoring copy timed apart and subtracted.
fn bench_softmax_stack(rounds: u32) -> Vec<SoftmaxStackRow> {
    let (blocks, s) = STACK;
    let mut rng = Rng::new(12);
    let scores = Tensor::normal(blocks * s, s, 1.0, &mut rng);
    let dy = Tensor::normal(blocks * s, s, 1.0, &mut rng);
    let scale = 0.35;
    let mut buf = scores.clone();
    let mut rows = Vec::new();
    for &level in kernels::SimdLevel::supported() {
        kernels::set_level_cap(level);
        let mut best = [[f64::INFINITY; 2]; 2];
        let mut copy = f64::INFINITY;
        for _ in 0..rounds {
            copy = copy.min(time_per_call(20, || {
                buf.data_mut().copy_from_slice(black_box(scores.data()));
            }));
            for (m, causal) in [Some(s), None].into_iter().enumerate() {
                let mut y = scores.clone();
                scale_mask_softmax_rows(&mut y, scale, causal);
                best[0][m] = best[0][m].min(time_per_call(20, || {
                    buf.data_mut().copy_from_slice(scores.data());
                    scale_mask_softmax_rows(black_box(&mut buf), scale, causal);
                }));
                best[1][m] = best[1][m].min(time_per_call(20, || {
                    buf.data_mut().copy_from_slice(dy.data());
                    softmax_rows_backward(&y, black_box(&mut buf), scale, causal);
                }));
            }
        }
        for (o, op) in ["softmax", "softmax_backward"].into_iter().enumerate() {
            for (m, causal) in [true, false].into_iter().enumerate() {
                rows.push(SoftmaxStackRow {
                    op,
                    level,
                    causal,
                    secs: best[o][m] - copy,
                });
            }
        }
    }
    kernels::set_level_cap(kernels::SimdLevel::Avx512);
    rows
}

/// The attention core one `(sample, head)` pair at a time — operands copied
/// out of `qkv`, three products and a softmax per pair, results added back —
/// as `chimera-nn` had it before `kernels::gemm_batch`; kept here as the
/// speed reference (its twin in `attention.rs`'s tests is the numeric one).
mod per_head {
    use chimera_tensor::{scale_mask_softmax_rows, softmax_rows_backward, Tensor};

    fn extract(src: &Tensor, r0: usize, c0: usize, rows: usize, cols: usize) -> Tensor {
        let mut out = Tensor::zeros(rows, cols);
        for r in 0..rows {
            out.row_mut(r)
                .copy_from_slice(&src.row(r0 + r)[c0..c0 + cols]);
        }
        out
    }

    fn add_into(dst: &mut Tensor, src: &Tensor, r0: usize, c0: usize) {
        for r in 0..src.rows() {
            let drow = dst.row_mut(r0 + r);
            for (c, &v) in src.row(r).iter().enumerate() {
                drow[c0 + c] += v;
            }
        }
    }

    pub fn attend(qkv: &Tensor, heads: usize, s: usize) -> (Vec<Tensor>, Tensor) {
        let h = qkv.cols() / 3;
        let d = h / heads;
        let scale = 1.0 / (d as f32).sqrt();
        let mut ctx = Tensor::zeros(qkv.rows(), h);
        let mut probs = Vec::new();
        for r0 in (0..qkv.rows()).step_by(s) {
            for head in 0..heads {
                let q = extract(qkv, r0, head * d, s, d);
                let k = extract(qkv, r0, h + head * d, s, d);
                let v = extract(qkv, r0, 2 * h + head * d, s, d);
                let mut p = q.matmul_t(&k);
                scale_mask_softmax_rows(&mut p, scale, Some(s));
                add_into(&mut ctx, &p.matmul(&v), r0, head * d);
                probs.push(p);
            }
        }
        (probs, ctx)
    }

    pub fn attend_backward(qkv: &Tensor, probs: &[Tensor], dctx: &Tensor, s: usize) -> Tensor {
        let h = qkv.cols() / 3;
        let heads = probs.len() * s / qkv.rows();
        let d = h / heads;
        let scale = 1.0 / (d as f32).sqrt();
        let mut dqkv = Tensor::zeros(qkv.rows(), 3 * h);
        let mut probs = probs.iter();
        for r0 in (0..qkv.rows()).step_by(s) {
            for head in 0..heads {
                let p = probs.next().expect("one per pair");
                let q = extract(qkv, r0, head * d, s, d);
                let k = extract(qkv, r0, h + head * d, s, d);
                let v = extract(qkv, r0, 2 * h + head * d, s, d);
                let dc = extract(dctx, r0, head * d, s, d);
                let mut ds = dc.matmul_t(&v);
                softmax_rows_backward(p, &mut ds, scale, Some(s));
                add_into(&mut dqkv, &ds.matmul(&k), r0, head * d);
                add_into(&mut dqkv, &ds.t_matmul(&q), r0, h + head * d);
                add_into(&mut dqkv, &p.t_matmul(&dc), r0, 2 * h + head * d);
            }
        }
        dqkv
    }
}

struct AttentionRow {
    model: &'static str,
    shape: String,
    /// Seconds per call: `[forward, backward]`.
    batched: [f64; 2],
    per_head: [f64; 2],
    /// Flops the batched kernels report for one call (what the causal
    /// mask leaves of the six products): `[forward, backward]`.
    flops: [u64; 2],
    /// `p = q·kᵀ` alone, seconds per call: at the dispatched level, and
    /// capped to scalar, where it runs on the 8-lane tile whatever `n` is.
    scores: [f64; 2],
    /// The flops `q·kᵀ` reports at the dispatched level.
    scores_flops: u64,
}

impl AttentionRow {
    /// GFLOP/s of the executed flops, forward (`0`) or backward (`1`).
    fn gflops(&self, pass: usize) -> f64 {
        self.flops[pass] as f64 / self.batched[pass] / 1e9
    }

    fn scores_gflops(&self) -> f64 {
        self.scores_flops as f64 / self.scores[0] / 1e9
    }

    /// `q·kᵀ` on the wide tile over the same call on the 8-lane one.
    fn scores_wide_speedup(&self) -> f64 {
        self.scores[1] / self.scores[0]
    }

    fn speedup(&self) -> f64 {
        (self.per_head[0] + self.per_head[1]) / (self.batched[0] + self.batched[1])
    }
}

/// The attention core — everything between the layer's two projections —
/// at the three model shapes of `benchmark/` (causal, single-threaded):
/// the batched kernels against the per-head composition, alternating
/// rounds and best of each so that the ratio the gate reads is not tilted
/// by a slow minute.
fn bench_attention_core(rounds: u32) -> Vec<AttentionRow> {
    kernels::set_threads(1);
    let shapes = [
        ("A", 64, 8, 128, 1),
        ("G", 256, 4, 64, 1),
        ("S", 64, 4, 16, 2),
    ];
    let bench = |(model, hidden, heads, seq, b): (&'static str, usize, usize, usize, usize)| {
        let mut rng = Rng::new(11);
        let attn = Attention::new(hidden, heads, seq, true, &mut rng);
        let qkv = Tensor::normal(b * seq, 3 * hidden, 1.0, &mut rng);
        let dctx = Tensor::normal(b * seq, hidden, 1.0, &mut rng);
        let (probs, _) = attn.attend(&qkv);
        let (probs_per_head, _) = per_head::attend(&qkv, heads, seq);
        let counted = |body: &mut dyn FnMut()| {
            let before = kernels::stats().flops;
            body();
            kernels::stats().flops - before
        };
        let flops = [
            counted(&mut || drop(attn.attend(&qkv))),
            counted(&mut || drop(attn.attend_backward(&qkv, &probs, &dctx))),
        ];
        // `q·kᵀ` as `attend` issues it, on its own.
        let d = hidden / heads;
        let offsets: Vec<[usize; 3]> = (0..b * heads)
            .map(|pair| {
                let (sample, head) = (pair / heads, pair % heads);
                let q = sample * seq * 3 * hidden + head * d;
                [q, q + hidden, pair * seq * seq]
            })
            .collect();
        let operand = |trans| kernels::Operand {
            data: qkv.data(),
            ld: 3 * hidden,
            trans,
        };
        let mut p = Tensor::zeros(b * heads * seq, seq);
        let mut q_kt = || {
            kernels::gemm_batch(
                (seq, d, seq),
                operand(false),
                operand(true),
                black_box(p.data_mut()),
                seq,
                &offsets,
                kernels::Triangle::LowerOut,
            );
        };
        let scores_flops = counted(&mut q_kt);
        let (mut batched, mut per_head) = ([f64::INFINITY; 2], [f64::INFINITY; 2]);
        let mut scores = [f64::INFINITY; 2];
        for _ in 0..rounds {
            let best = |slot: &mut f64, body: &mut dyn FnMut()| {
                *slot = slot.min(time_per_call(20, body));
            };
            best(&mut scores[0], &mut q_kt);
            kernels::set_level_cap(kernels::SimdLevel::Scalar);
            best(&mut scores[1], &mut q_kt);
            kernels::set_level_cap(kernels::SimdLevel::Avx512);
            best(&mut batched[0], &mut || {
                drop(black_box(attn.attend(black_box(&qkv))));
            });
            best(&mut per_head[0], &mut || {
                drop(black_box(per_head::attend(black_box(&qkv), heads, seq)));
            });
            best(&mut batched[1], &mut || {
                drop(black_box(attn.attend_backward(
                    &qkv,
                    &probs,
                    black_box(&dctx),
                )));
            });
            best(&mut per_head[1], &mut || {
                let dqkv = per_head::attend_backward(&qkv, &probs_per_head, black_box(&dctx), seq);
                drop(black_box(dqkv));
            });
        }
        AttentionRow {
            model,
            shape: format!("[{},{hidden}] / {heads} heads / b={b}", b * seq),
            batched,
            per_head,
            flops,
            scores,
            scores_flops,
        }
    };
    shapes.into_iter().map(bench).collect()
}

/// Seconds per forward and per backward of one transformer block at the
/// benchmark's wide shape (hidden 256, 4 heads, one 64-token sequence),
/// single-threaded. Their ratio is the backward/forward balance of a real
/// pipeline op — GEMMs, attention and elementwise ops in the proportions
/// the model has them — which is what the simulator's unit costs stand for.
fn bench_block() -> (f64, f64) {
    let mut rng = Rng::new(10);
    let (hidden, heads, seq) = (256, 4, 64);
    let block = TransformerBlock::new(hidden, heads, seq, true, &mut rng);
    let x = Tensor::normal(seq, hidden, 1.0, &mut rng);
    let dy = Tensor::normal(seq, hidden, 1.0, &mut rng);
    let mut grad = vec![0.0f32; block.num_params()];
    let (_, stash) = block.forward(&x);
    kernels::set_threads(1);
    // Alternating rounds, best of each: the ratio feeds the simulator, so a
    // scheduler blip in one pass must not tilt it (same reasoning as
    // `bench_end_to_end`).
    let (mut fwd, mut bwd) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        fwd = fwd.min(time_per_call(10, || {
            drop(black_box(block.forward(black_box(&x))));
        }));
        bwd = bwd.min(time_per_call(10, || {
            drop(black_box(block.backward(&stash, black_box(&dy), &mut grad)));
        }));
    }
    (fwd, bwd)
}

/// Model G's weights as `(in, out)`: a block's four projections (`wqkv`,
/// `wo`, `fc1`, `fc2`) and the head's.
const G_WEIGHTS: [(usize, usize); 5] =
    [(256, 768), (256, 256), (256, 1024), (1024, 256), (256, 512)];

/// Rows per call of [`bench_rows_per_call`]: one micro-batch of model G,
/// two stacked, four stacked.
const ROWS_PER_CALL: [usize; 3] = [64, 128, 256];

struct RowsPerCallRow {
    rows: usize,
    /// Seconds for the forward and the `dX` product of every weight.
    secs: f64,
}

impl RowsPerCallRow {
    fn gflops(&self) -> f64 {
        let per_row: usize = G_WEIGHTS.iter().map(|&(i, o)| 2 * 2 * i * o).sum();
        (self.rows * per_row) as f64 / self.secs / 1e9
    }
}

/// Model G's forward and `dX` products (`x·W`, `dy·Wᵀ`) over every weight of
/// [`G_WEIGHTS`] at 64, 128 and 256 rows per call, single-threaded,
/// hot-cache: the packed engine packs each weight once per call and each
/// packed element of it feeds `rows` fmas, so a taller call is what closes
/// the distance to the tile ceiling at this width — what the sequential
/// reference's stacked micro-batches buy. Alternating rounds, best of each.
fn bench_rows_per_call(rounds: u32) -> Vec<RowsPerCallRow> {
    kernels::set_threads(1);
    let weights: Vec<Vec<f32>> = (0..)
        .zip(G_WEIGHTS)
        .map(|(seed, (i, o))| randvec(i * o, 20 + seed))
        .collect();
    let widest = G_WEIGHTS.iter().map(|&(i, o)| i.max(o)).max().unwrap_or(0);
    let rows_max = ROWS_PER_CALL[ROWS_PER_CALL.len() - 1];
    let a = randvec(rows_max * widest, 30);
    let mut out = vec![0.0f32; rows_max * widest];
    let mut best = [f64::INFINITY; ROWS_PER_CALL.len()];
    for _ in 0..rounds {
        for (slot, &rows) in best.iter_mut().zip(&ROWS_PER_CALL) {
            *slot = slot.min(time_per_call(5, || {
                for (w, &(i, o)) in weights.iter().zip(&G_WEIGHTS) {
                    let y = &mut out[..rows * o];
                    y.fill(0.0);
                    kernels::matmul_into(&a[..rows * i], w, black_box(y), rows, i, o);
                    let dx = &mut out[..rows * i];
                    dx.fill(0.0);
                    kernels::matmul_t_into(&a[..rows * o], w, black_box(dx), rows, o, i);
                }
            }));
        }
    }
    ROWS_PER_CALL
        .iter()
        .zip(best)
        .map(|(&rows, secs)| RowsPerCallRow { rows, secs })
        .collect()
}

struct EndToEnd {
    pool_on_ms: f64,
    pool_off_ms: f64,
    hit_rate: f64,
}

/// Per-iteration step time of the sequential reference trainer with the
/// buffer pool on vs off, plus the steady-state pool hit rate.
///
/// The two modes **alternate** round-by-round and the **minimum** per mode
/// is kept: the `--check` gate asserts pool-on is never slower than
/// pool-off, best-of-N strips container-scheduler noise from a
/// sub-millisecond loop (the mean once reported pool-on "losing" at ratio
/// 0.94 purely from a descheduling blip), and interleaving makes slow
/// machine drift — thermals, a background compile — hit both modes equally
/// instead of whichever happened to run second.
fn bench_end_to_end(iters: u32) -> EndToEnd {
    let cfg = ModelConfig::tiny();
    let n = 4u32;
    const ROUNDS: u32 = 5;
    let mk = || {
        let mut r = ReferenceTrainer::new(
            Stage::build_all(cfg, 2),
            SyntheticData::new(cfg, 7),
            2,
            0.05,
            0.9,
        );
        r.train_iteration(0, n); // warm-up populates the pool classes
        r
    };
    pool::set_enabled(true);
    let mut on = mk();
    pool::reset_stats(); // hit rate below covers only pooled timed iterations
    pool::set_enabled(false);
    let mut off = mk();
    let mut best = [f64::INFINITY; 2];
    for round in 0..ROUNDS {
        for (slot, pooled) in [(0usize, true), (1usize, false)] {
            pool::set_enabled(pooled);
            let r = if pooled { &mut on } else { &mut off };
            let start = Instant::now();
            for it in 1..=iters {
                let sample = u64::from(round) * u64::from(iters) + u64::from(it);
                r.train_iteration(sample * u64::from(n), n);
            }
            best[slot] = best[slot].min(start.elapsed().as_secs_f64() * 1e3 / f64::from(iters));
        }
    }
    pool::set_enabled(true);
    EndToEnd {
        pool_on_ms: best[0],
        pool_off_ms: best[1],
        hit_rate: pool::stats().hit_rate(),
    }
}

/// The committed floors (see the baseline file's comments).
fn load_baseline() -> Option<serde_json::Value> {
    let path = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => format!("{m}/baselines/kernels.json"),
        Err(_) => "crates/bench/baselines/kernels.json".to_string(),
    };
    let text = std::fs::read_to_string(&path).ok()?;
    serde_json::from_str(&text).ok()
}

fn check_regressions(
    ceilings: &[(kernels::SimdLevel, f64)],
    rows: &[MatmulRow],
    elementwise: &[ElementwiseRow],
    softmax: &[SoftmaxStackRow],
    attention: &[AttentionRow],
    e2e: &EndToEnd,
    parallelism: usize,
) -> bool {
    let Some(baseline) = load_baseline() else {
        eprintln!("--check: no readable baseline; failing");
        return false;
    };
    let Some(shapes) = baseline
        .get("tiled_mt_min_fraction_of_tile_ceiling")
        .and_then(|v| v.as_object())
    else {
        eprintln!("--check: baseline missing tiled_mt_min_fraction_of_tile_ceiling; failing");
        return false;
    };
    let mut ok = true;
    // Dispatch gate: every vector level must beat the one below it at the
    // tile itself (measured ~90 → ~168 GFLOP/s from 256 to 512 bits, the
    // scalar loops far below both). A wider level that does not is not
    // running its own body.
    for pair in ceilings.windows(2) {
        let ((below, slow), (above, fast)) = (pair[0], pair[1]);
        if fast < 1.3 * slow {
            eprintln!(
                "check tile: DISPATCH REGRESSION {} at {fast:.1} GFLOP/s < 1.3 x {} at {slow:.1}",
                above.name(),
                below.name()
            );
            ok = false;
        } else {
            println!(
                "check tile: {} {:.1}x {} ok",
                above.name(),
                fast / slow,
                below.name()
            );
        }
    }
    let ceiling = ceilings.last().expect("scalar is always supported").1;
    for (shape, floor) in shapes {
        let Some(floor) = floor.as_f64() else {
            continue;
        };
        match rows.iter().find(|r| &r.shape == shape) {
            Some(r) if r.tiled_mt >= floor * ceiling => {
                println!(
                    "check {shape}: {:.2} GFLOP/s is {:.2} of the {ceiling:.1} tile ceiling >= {floor} ok",
                    r.tiled_mt,
                    r.tiled_mt / ceiling
                );
            }
            Some(r) => {
                eprintln!(
                    "check {shape}: REGRESSION {:.2} GFLOP/s is {:.2} of the {ceiling:.1} tile \
                     ceiling < {floor}",
                    r.tiled_mt,
                    r.tiled_mt / ceiling
                );
                ok = false;
            }
            None => {} // baseline shape not measured in this mode
        }
    }
    // Threading-regression gate: the multi-threaded kernel must never lose
    // to single-threaded beyond noise. This caught the PAR_MIN_FLOPS
    // mis-tune once (mt 0.89× 1t on small shapes, PR-5 era) — shapes below
    // the gate now run the identical sequential path, larger shapes must
    // show threading paying for itself. The 0.9 factor absorbs
    // container-scheduler noise, not structural losses. On the headline
    // shape, when the machine actually has ≥2 cores, threading must *win*:
    // mt ≥ 1.5× 1t (the 2D grid makes every shape parallel-friendly, so a
    // miss here means the partitioning broke, not that the shape is hard).
    let headline = format!("{}x{}x{}", HEADLINE.0, HEADLINE.1, HEADLINE.2);
    for r in rows {
        if r.tiled_mt < 0.9 * r.tiled_1t {
            eprintln!(
                "check {}: THREADING REGRESSION mt {:.2} GFLOP/s < 0.9 x 1t {:.2} \
                 (raise PAR_MIN_FLOPS or fix the parallel partitioning)",
                r.shape, r.tiled_mt, r.tiled_1t
            );
            ok = false;
        }
        if r.shape == headline {
            // The packed engine must hold the ROADMAP's ≥4× floor over the
            // naive loops single-threaded — thread count can't rescue it.
            if r.tiled_1t < 4.0 * r.naive {
                eprintln!(
                    "check {}: PACKED-ENGINE REGRESSION tiled_1t {:.2} GFLOP/s \
                     < 4.0 x naive {:.2}",
                    r.shape, r.tiled_1t, r.naive
                );
                ok = false;
            } else {
                println!(
                    "check {}: speedup_vs_naive {:.2} >= 4.0 ok",
                    r.shape,
                    r.tiled_1t / r.naive
                );
            }
            if parallelism >= 2 && r.tiled_mt < 1.5 * r.tiled_1t {
                eprintln!(
                    "check {}: THREADING REGRESSION mt {:.2} GFLOP/s < 1.5 x 1t \
                     {:.2} on {parallelism} cores",
                    r.shape, r.tiled_mt, r.tiled_1t
                );
                ok = false;
            }
        }
    }
    // Elementwise gate: `vmath` is plain slice loops that LLVM vectorises;
    // measured ~30x the scalar libm loop, so below 8x the loop has stopped
    // vectorising (a branch crept into `tanh`, or the build lost
    // `target-cpu=native` and `mul_add` became a libm call itself).
    for r in elementwise.iter().filter(|r| r.op == "gelu") {
        let speedup = r.libm_ns_per_elem.unwrap_or(0.0) / r.ns_per_elem;
        if speedup < 8.0 {
            eprintln!(
                "check gelu: ELEMENTWISE REGRESSION {:.2} ns/elem is only {speedup:.1}x \
                 the libm loop (floor 8x)",
                r.ns_per_elem
            );
            ok = false;
        } else {
            println!("check gelu: {speedup:.1}x the libm loop >= 8.0 ok");
        }
    }
    // Attention-core gate: both sides are timed in this run, so a slow
    // runner moves neither; measured ~2x at the long-sequence shape (the
    // per-head side runs the packed engine too), so below the floor the
    // accumulator tile has stopped vectorising or the triangular skip is
    // gone (see the baseline file's comment for what each would read).
    let floors = baseline
        .get("attention_core_min_speedup")
        .and_then(|v| v.as_object());
    for (model, floor) in floors.into_iter().flatten() {
        let (Some(floor), Some(r)) = (
            floor.as_f64(),
            attention.iter().find(|r| r.model == model.as_str()),
        ) else {
            eprintln!("check attention_core {model}: no such row or floor; failing");
            ok = false;
            continue;
        };
        if r.speedup() < floor {
            eprintln!(
                "check attention_core {model}: ATTENTION REGRESSION fwd+bwd is only {:.1}x \
                 the per-head composition (floor {floor}x)",
                r.speedup()
            );
            ok = false;
        } else {
            println!(
                "check attention_core {model}: {:.1}x the per-head composition >= {floor} ok",
                r.speedup()
            );
        }
    }
    // Lockstep gate, at the levels that have the body (the baseline names
    // them): half of a causal stack is masked, so it must cost clearly less
    // than the same stack unmasked. Row by row it costs as much or more
    // (measured 1.0–1.06x): a row's chains and its ragged end, not its
    // elements, are what take the time.
    let floors = baseline
        .get("softmax_causal_max_fraction_of_unmasked")
        .and_then(|v| v.as_object());
    for (level, floor) in floors.into_iter().flatten() {
        let time = |causal| {
            let mut at = softmax.iter().filter(|r| r.level.name() == level.as_str());
            at.find(|r| r.op == "softmax" && r.causal == causal)
                .map(|r| r.secs)
        };
        let (Some(floor), Some(masked), Some(unmasked)) = (floor.as_f64(), time(true), time(false))
        else {
            continue; // a level this host does not have
        };
        if masked > floor * unmasked {
            eprintln!(
                "check softmax {level}: LOCKSTEP REGRESSION the causal stack takes {:.2}x the \
                 unmasked one (ceiling {floor}x)",
                masked / unmasked
            );
            ok = false;
        } else {
            println!(
                "check softmax {level}: causal stack at {:.2}x the unmasked one <= {floor} ok",
                masked / unmasked
            );
        }
    }
    // Wide-tile gate, the shape of the dispatch gate above: where the level
    // has a vector body `q·kᵀ` runs on the microkernel's tile, and must
    // beat the same call capped to scalar, which runs on the 8-lane tile
    // (measured 1.7x at 512 bits, 1.6x at 256).
    let floors = baseline
        .get("scores_wide_tile_min_speedup")
        .and_then(|v| v.as_object());
    for (model, floor) in floors.into_iter().flatten() {
        let (Some(floor), Some(r)) = (
            floor.as_f64(),
            attention.iter().find(|r| r.model == model.as_str()),
        ) else {
            eprintln!("check q.kT {model}: no such row or floor; failing");
            ok = false;
            continue;
        };
        let speedup = r.scores_wide_speedup();
        if kernels::simd_level() == kernels::SimdLevel::Scalar {
            println!("check q.kT {model}: no vector level on this host, nothing to compare");
        } else if speedup < floor {
            eprintln!(
                "check q.kT {model}: WIDE-TILE REGRESSION only {speedup:.2}x the 8-lane tile \
                 (floor {floor}x)"
            );
            ok = false;
        } else {
            println!("check q.kT {model}: {speedup:.2}x the 8-lane tile >= {floor} ok");
        }
    }
    // Pool-payoff gate: recycling buffers must never cost step time. Both
    // sides are best-of-3, so a ratio below 1.0 is structural (a slow pool
    // hot path), not scheduler noise.
    let ratio = e2e.pool_off_ms / e2e.pool_on_ms;
    if ratio < 1.0 {
        eprintln!(
            "check end_to_end: POOL REGRESSION step_time_ratio_off_over_on \
             {ratio:.3} < 1.0 (pool on is slower than pool off)"
        );
        ok = false;
    } else {
        println!("check end_to_end: pool ratio {ratio:.3} >= 1.0 ok");
    }
    ok
}

/// The rows-per-call gate against the committed baseline: both rates are
/// timed in this run. A taller call reuses each packed weight for more rows
/// (measured ~1.15x at 128 rows over 64); if it stops paying, the pack is no
/// longer amortised over the rows and the stacked reference gains nothing.
fn check_rows_per_call(rows_per_call: &[RowsPerCallRow]) -> bool {
    let Some(baseline) = load_baseline() else {
        eprintln!("--check: no readable baseline; failing");
        return false;
    };
    let mut ok = true;
    let floors = baseline
        .get("rows_per_call_min_rate_over_64")
        .and_then(|v| v.as_object());
    for (rows, floor) in floors.into_iter().flatten() {
        let at = |n: usize| rows_per_call.iter().find(|r| r.rows == n);
        let (Some(floor), Some(r), Some(base)) = (
            floor.as_f64(),
            rows.parse().ok().and_then(at),
            at(ROWS_PER_CALL[0]),
        ) else {
            eprintln!("check rows_per_call {rows}: no such row or floor; failing");
            ok = false;
            continue;
        };
        let ratio = r.gflops() / base.gflops();
        if ratio < floor {
            eprintln!(
                "check rows_per_call {rows}: STACKING REGRESSION {ratio:.2}x the rate at 64 rows \
                 (floor {floor}x)"
            );
            ok = false;
        } else {
            println!("check rows_per_call {rows}: {ratio:.2}x the rate at 64 rows >= {floor} ok");
        }
    }
    ok
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let check = std::env::args().any(|a| a == "--check");
    let threads = arg_value("--threads")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map_or(4, std::num::NonZeroUsize::get)
                .max(4)
        });

    // Smoke keeps the small shape for quick signal but must also carry the
    // headline shape: that's the number the ROADMAP targets and the
    // speedup_vs_naive gate asserts on, so CI has to track it.
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(128, 256, 256), HEADLINE]
    } else {
        &[(128, 256, 256), (256, 512, 512), HEADLINE]
    };

    let level = kernels::simd_level();
    let ceilings = bench_tile_ceilings();
    let ceiling = ceilings.last().expect("scalar is always supported").1;
    print_table(
        &format!(
            "Microkernel: {}x{} tile, GFLOP/s by level (1t; dispatched: {})",
            kernels::MR,
            kernels::NR,
            level.name()
        ),
        &["level", "lanes", "tile GFLOP/s"],
        &ceilings
            .iter()
            .map(|(l, rate)| {
                vec![
                    l.name().to_string(),
                    l.lanes().to_string(),
                    format!("{rate:.2}"),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let rows: Vec<MatmulRow> = shapes
        .iter()
        .map(|&(m, k, n)| bench_shape(m, k, n, threads))
        .collect();

    let hw_parallelism = kernels::hw_parallelism();
    let parallelism = threads.min(hw_parallelism);

    print_table(
        &format!("Matmul GFLOP/s (mt = {threads} threads)"),
        &[
            "shape",
            "naive",
            "tiled 1t",
            "tiled mt",
            "mt/naive",
            "1t/ceiling",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.shape.clone(),
                    format!("{:.2}", r.naive),
                    format!("{:.2}", r.tiled_1t),
                    format!("{:.2}", r.tiled_mt),
                    format!("{:.2}x", r.tiled_mt / r.naive),
                    format!("{:.2}", r.tiled_1t / ceiling),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // Backward-kernel rates at the headline shape (the `matmul_backward`
    // section; the simulator is calibrated from `bench_block` below).
    let (fwd_gf, t_mm_gf, mm_t_gf) = {
        let (m, k, n) = HEADLINE;
        let fwd = rows
            .iter()
            .find(|r| r.shape == format!("{m}x{k}x{n}"))
            .map_or(0.0, |r| r.tiled_1t);
        let (t_mm, mm_t) = bench_backward(m, k, n);
        (fwd, t_mm, mm_t)
    };
    // Backward = dW (aᵀ@b) + dX (a@bᵀ), each the same flop count as the
    // forward product, so time ratio = fwd_rate/t_mm_rate + fwd_rate/mm_t_rate.
    let gemm_bwd_over_fwd = fwd_gf / t_mm_gf + fwd_gf / mm_t_gf;
    let [dw_add_gf, dw_fold_gf] = bench_dw_epilogues(if smoke { 2 } else { 5 });
    print_table(
        "Backward-kernel rates (1t, headline shape)",
        &["kernel", "GFLOP/s", "rel. to fwd", "of ceiling"],
        &[
            vec![
                "fwd a@b".into(),
                format!("{fwd_gf:.2}"),
                "1.00".into(),
                format!("{:.2}", fwd_gf / ceiling),
            ],
            vec![
                "dW aT@b".into(),
                format!("{t_mm_gf:.2}"),
                format!("{:.2}", fwd_gf / t_mm_gf),
                format!("{:.2}", t_mm_gf / ceiling),
            ],
            vec![
                "dX a@bT".into(),
                format!("{mm_t_gf:.2}"),
                format!("{:.2}", fwd_gf / mm_t_gf),
                format!("{:.2}", mm_t_gf / ceiling),
            ],
            vec![
                "bwd total".into(),
                "-".into(),
                format!("{gemm_bwd_over_fwd:.2}"),
                "-".into(),
            ],
            vec![
                "dW G 64 rows, Add".into(),
                format!("{dw_add_gf:.2}"),
                "-".into(),
                format!("{:.2}", dw_add_gf / ceiling),
            ],
            vec![
                "dW G 64 rows, scratch+add".into(),
                format!("{dw_fold_gf:.2}"),
                "-".into(),
                format!("{:.2}", dw_fold_gf / ceiling),
            ],
        ],
    );

    let elementwise = bench_elementwise();
    print_table(
        "Elementwise ops (1t, ns/element)",
        &["op", "shape", "vmath", "libm loop", "speedup"],
        &elementwise
            .iter()
            .map(|r| {
                vec![
                    r.op.to_string(),
                    r.shape.clone(),
                    format!("{:.2}", r.ns_per_elem),
                    r.libm_ns_per_elem.map_or("-".into(), |l| format!("{l:.2}")),
                    r.libm_ns_per_elem
                        .map_or("-".into(), |l| format!("{:.1}x", l / r.ns_per_elem)),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let softmax = bench_softmax_stack(if smoke { 2 } else { 5 });
    print_table(
        &format!(
            "Softmax over [{},{}] stacked scores (1t, in place)",
            STACK.0 * STACK.1,
            STACK.1
        ),
        &["op", "level", "mask", "µs", "ns/live elem", "ns/row"],
        &softmax
            .iter()
            .map(|r| {
                vec![
                    r.op.to_string(),
                    r.level.name().to_string(),
                    r.mask().to_string(),
                    format!("{:.1}", r.secs * 1e6),
                    format!("{:.2}", r.ns_per_live_elem()),
                    format!("{:.1}", r.ns_per_row()),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let attention = bench_attention_core(if smoke { 2 } else { 5 });
    print_table(
        "Attention core (1t, causal; µs per call, GFLOP/s of executed flops, of the tile ceiling)",
        &[
            "model",
            "shape",
            "fwd",
            "bwd",
            "fwd GF/s",
            "bwd GF/s",
            "fwd/ceil",
            "bwd/ceil",
            "q.kT GF/s",
            "q.kT wide/8-lane",
            "per-head fwd",
            "per-head bwd",
            "speedup",
        ],
        &attention
            .iter()
            .map(|r| {
                let us = |secs: f64| format!("{:.1}", secs * 1e6);
                vec![
                    r.model.to_string(),
                    r.shape.clone(),
                    us(r.batched[0]),
                    us(r.batched[1]),
                    format!("{:.1}", r.gflops(0)),
                    format!("{:.1}", r.gflops(1)),
                    format!("{:.2}", r.gflops(0) / ceiling),
                    format!("{:.2}", r.gflops(1) / ceiling),
                    format!("{:.1}", r.scores_gflops()),
                    format!("{:.2}x", r.scores_wide_speedup()),
                    us(r.per_head[0]),
                    us(r.per_head[1]),
                    format!("{:.1}x", r.speedup()),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let (block_fwd, block_bwd) = bench_block();
    let bwd_over_fwd = block_bwd / block_fwd;
    print_table(
        "Transformer block balance (1t, hidden 256, 4 heads, 64 tokens)",
        &["pass", "ms", "rel. to fwd"],
        &[
            vec![
                "forward".into(),
                format!("{:.3}", block_fwd * 1e3),
                "1.00".into(),
            ],
            vec![
                "backward".into(),
                format!("{:.3}", block_bwd * 1e3),
                format!("{bwd_over_fwd:.2}"),
            ],
        ],
    );

    let rows_per_call = bench_rows_per_call(if smoke { 2 } else { 5 });
    let rate_over_64 = |r: &RowsPerCallRow| r.gflops() / rows_per_call[0].gflops();
    print_table(
        "Model G's forward + dX products by rows per call (1t; every block and head weight)",
        &[
            "rows",
            "µs",
            "µs per 64 rows",
            "GFLOP/s",
            "of ceiling",
            "rate / 64 rows",
        ],
        &rows_per_call
            .iter()
            .map(|r| {
                vec![
                    r.rows.to_string(),
                    format!("{:.1}", r.secs * 1e6),
                    format!("{:.1}", r.secs * 1e6 * 64.0 / r.rows as f64),
                    format!("{:.1}", r.gflops()),
                    format!("{:.2}", r.gflops() / ceiling),
                    format!("{:.2}x", rate_over_64(r)),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let e2e = bench_end_to_end(if smoke { 2 } else { 5 });
    print_table(
        "End-to-end reference-trainer step time",
        &["pool", "ms/iter", "hit rate"],
        &[
            vec![
                "on".into(),
                format!("{:.2}", e2e.pool_on_ms),
                format!("{:.3}", e2e.hit_rate),
            ],
            vec!["off".into(), format!("{:.2}", e2e.pool_off_ms), "-".into()],
        ],
    );

    let payload = serde_json::json!({
        "threads": threads,
        "hw_parallelism": hw_parallelism,
        "parallelism": parallelism,
        "simd": level.name(),
        "simd_lanes": level.lanes(),
        "tile": format!("{}x{}", kernels::MR, kernels::NR),
        "tile_ceiling_gflops": ceiling,
        "tile_gflops_by_level": ceilings.iter().map(|(l, rate)| serde_json::json!({
            "level": l.name(),
            "gflops": rate,
        })).collect::<Vec<_>>(),
        "smoke": smoke,
        "matmul": rows.iter().map(|r| serde_json::json!({
            "shape": r.shape,
            "naive_gflops": r.naive,
            "tiled_1t_gflops": r.tiled_1t,
            "tiled_mt_gflops": r.tiled_mt,
            "tiled_1t_fraction_of_tile_ceiling": r.tiled_1t / ceiling,
            // Single-threaded ratio: the packed engine's win over the naive
            // loops, independent of how many cores the runner has.
            "speedup_vs_naive": r.tiled_1t / r.naive,
            // With one core the "mt" run is the 1t run again: a ratio near
            // 1.0 there would read as "threading gains nothing" when it is
            // only unmeasured.
            "speedup_mt_vs_1t": (parallelism >= 2).then(|| r.tiled_mt / r.tiled_1t),
        })).collect::<Vec<_>>(),
        "elementwise": elementwise.iter().map(|r| serde_json::json!({
            "op": r.op,
            "shape": r.shape,
            "ns_per_elem": r.ns_per_elem,
            "libm_ns_per_elem": r.libm_ns_per_elem,
            "speedup_vs_libm": r.libm_ns_per_elem.map(|l| l / r.ns_per_elem),
        })).collect::<Vec<_>>(),
        "softmax_stack": softmax.iter().map(|r| serde_json::json!({
            "op": r.op,
            "level": r.level.name(),
            "mask": r.mask(),
            "shape": format!("{}x{}", STACK.0 * STACK.1, STACK.1),
            "us": r.secs * 1e6,
            "ns_per_live_elem": r.ns_per_live_elem(),
            "ns_per_row": r.ns_per_row(),
        })).collect::<Vec<_>>(),
        "attention_core": attention.iter().map(|r| serde_json::json!({
            "model": r.model,
            "shape": r.shape,
            "fwd_us": r.batched[0] * 1e6,
            "bwd_us": r.batched[1] * 1e6,
            "fwd_gflops": r.gflops(0),
            "bwd_gflops": r.gflops(1),
            "fwd_fraction_of_tile_ceiling": r.gflops(0) / ceiling,
            "bwd_fraction_of_tile_ceiling": r.gflops(1) / ceiling,
            "scores_us": r.scores[0] * 1e6,
            "scores_gflops": r.scores_gflops(),
            "scores_lane_tile_us": r.scores[1] * 1e6,
            "scores_wide_over_lane_tile": r.scores_wide_speedup(),
            "per_head_fwd_us": r.per_head[0] * 1e6,
            "per_head_bwd_us": r.per_head[1] * 1e6,
            "speedup_vs_per_head": r.speedup(),
        })).collect::<Vec<_>>(),
        "matmul_backward": serde_json::json!({
            "shape": format!("{}x{}x{}", HEADLINE.0, HEADLINE.1, HEADLINE.2),
            "fwd_gflops": fwd_gf,
            "t_matmul_gflops": t_mm_gf,
            "matmul_t_gflops": mm_t_gf,
            "fwd_fraction_of_tile_ceiling": fwd_gf / ceiling,
            "t_matmul_fraction_of_tile_ceiling": t_mm_gf / ceiling,
            "matmul_t_fraction_of_tile_ceiling": mm_t_gf / ceiling,
            "bwd_over_fwd": gemm_bwd_over_fwd,
            "model_g_dw_add_gflops": dw_add_gf,
            "model_g_dw_scratch_add_ordered_gflops": dw_fold_gf,
        }),
        "rows_per_call": rows_per_call.iter().map(|r| serde_json::json!({
            "rows": r.rows,
            "us": r.secs * 1e6,
            "us_per_64_rows": r.secs * 1e6 * 64.0 / r.rows as f64,
            "gflops": r.gflops(),
            "fraction_of_tile_ceiling": r.gflops() / ceiling,
            "rate_over_64_rows": rate_over_64(r),
        })).collect::<Vec<_>>(),
        "rows_per_call_products": G_WEIGHTS
            .iter()
            .map(|(i, o)| format!("{i}x{o}"))
            .collect::<Vec<_>>(),
        "calibration": serde_json::json!({
            "block": "hidden 256, 4 heads, 64 tokens, causal",
            "block_fwd_ms": block_fwd * 1e3,
            "block_bwd_ms": block_bwd * 1e3,
            "bwd_over_fwd": bwd_over_fwd,
        }),
        "end_to_end": serde_json::json!({
            "pool_on_ms_per_iter": e2e.pool_on_ms,
            "pool_off_ms_per_iter": e2e.pool_off_ms,
            "pool_hit_rate": e2e.hit_rate,
            "step_time_ratio_off_over_on": e2e.pool_off_ms / e2e.pool_on_ms,
        }),
    });
    // `BENCH_kernels.json` sits at the root next to the other BENCH_*
    // outputs; a smoke run puts it under `target/smoke/` instead.
    write_json(&output_root(smoke), "BENCH_kernels", &payload);

    if check {
        // Both run, so that one report lists every failure.
        let passed = check_regressions(
            &ceilings,
            &rows,
            &elementwise,
            &softmax,
            &attention,
            &e2e,
            parallelism,
        ) & check_rows_per_call(&rows_per_call);
        if !passed {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
