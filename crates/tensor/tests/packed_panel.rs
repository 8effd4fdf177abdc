//! Adversarial bit-exactness suite for the packed-panel GEMM engine.
//!
//! The `*_with_threads` entry points force an exact 2D grid thread count,
//! bypassing the flop gate and the hardware-parallelism clamp — so this file
//! exercises panel packing (copying and transposing), the microkernel,
//! zero-padded edge tiles, and the row×column output partitioning on shapes
//! far too small to thread, and on a single-core CI runner. Every result
//! must match the naive reference loops **bit-for-bit** at every microkernel
//! level the host supports (`at_every_level`): each level equals naive,
//! hence each other — the same fused-multiply-add op chain at 512, 256 and
//! 32 bits.

use proptest::prelude::*;

use chimera_tensor::kernels::{Epilogue, Product};
use chimera_tensor::{kernels, ops, Rng};

mod common;
use common::at_every_level;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn randvec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::new(seed);
    (0..len).map(|_| rng.normal()).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Force the packed engine over `(m, k, n)` at every grid thread count and
/// compare all three kernels against naive, accumulating into a non-zero
/// output to also pin the accumulate contract.
fn assert_packed_bitexact(m: usize, k: usize, n: usize, seed: u64) {
    let a = randvec(m * k, seed);
    let b = randvec(k * n, seed ^ 0x9E37_79B9);
    let at = randvec(k * m, seed ^ 0x5851_F42D);
    let bt = randvec(n * k, seed ^ 0x1405_7B7E);
    let base = randvec(m * n, seed ^ 0x0BAD_CAFE);

    let mut want_mm = base.clone();
    kernels::naive::matmul_into(&a, &b, &mut want_mm, m, k, n);
    let mut want_tm = base.clone();
    kernels::naive::t_matmul_into(&at, &b, &mut want_tm, k, m, n);
    let mut want_mt = base.clone();
    kernels::naive::matmul_t_into(&a, &bt, &mut want_mt, m, k, n);

    at_every_level(|level| {
        let level = level.name();
        for &t in &THREAD_COUNTS {
            let mut got = base.clone();
            kernels::matmul_into_with_threads(&a, &b, &mut got, m, k, n, t);
            assert_eq!(
                bits(&got),
                bits(&want_mm),
                "packed matmul {m}x{k}x{n} t={t} {level}"
            );

            let mut got = base.clone();
            kernels::t_matmul_into_with_threads(&at, &b, &mut got, k, m, n, t);
            assert_eq!(
                bits(&got),
                bits(&want_tm),
                "packed t_matmul {m}x{k}x{n} t={t} {level}"
            );

            let mut got = base.clone();
            kernels::matmul_t_into_with_threads(&a, &bt, &mut got, m, k, n, t);
            assert_eq!(
                bits(&got),
                bits(&want_mt),
                "packed matmul_t {m}x{k}x{n} t={t} {level}"
            );
        }
    });
}

/// Dimension values that straddle every boundary the engine tiles over:
/// the microkernel register tile (MR=8, NR=32) and its 16-lane half, the
/// 8-lane step of the transposing pack, and the packing panels (MC), each
/// ±1. A fixed-choice array is a strategy (uniform pick per case), so each
/// sampled shape mixes these boundaries.
fn lane_adversarial() -> [usize; 16] {
    [
        1, // single row/column
        2,
        kernels::MR - 1, // register-tile height edges
        kernels::MR,
        kernels::MR + 1,
        kernels::NR / 2 - 1, // half-tile (one 512-bit, two 256-bit vectors) edges
        kernels::NR / 2,
        kernels::NR / 2 + 1,
        kernels::NR - 1, // register-tile width edges
        kernels::NR,
        kernels::NR + 1,
        kernels::MC - 1, // a-panel stripe edges
        kernels::MC + 1,
        kernels::LANES - 1, // pack-group edges
        2 * kernels::LANES + 3,
        2 * kernels::NR + kernels::NR / 2 + 1, // whole tiles, then a ragged one
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Lane/tile-adversarial shapes: never multiples of the microkernel or
    /// panel sizes unless the strategy happens to land there.
    #[test]
    fn packed_bitexact_on_lane_adversarial_shapes(
        m in lane_adversarial(),
        n in lane_adversarial(),
        k in [1usize, 2, 3, 7, 8, 9, 63, 64, 65, 255, 256, 257],
        seed in 0u64..10_000,
    ) {
        assert_packed_bitexact(m, k, n, seed);
    }
}

/// The shapes the 32-wide tile makes adversarial, exhaustively: every
/// residue of `n` against the tile and its 16-lane half, every kind of
/// `m % 8`, and depths at the empty, the single step and either side of a
/// `KC` slab.
#[test]
fn tile_width_edges() {
    let (kc, nr, mr) = (kernels::KC, kernels::NR, kernels::MR);
    let mut seed = 12_000;
    for k in [0, 1, kc - 1, kc + 1] {
        for rem in [0, 1, 15, 16, 17, 31] {
            for m in [mr, mr + 1, 2 * mr - 1] {
                seed += 1;
                assert_packed_bitexact(m, k, nr + rem, seed);
            }
        }
    }
}

/// Handpicked worst cases: panel-exact shapes, panel±1, extreme aspect
/// ratios, and k spilling multiple KC slabs.
#[test]
fn packed_adversarial_shapes() {
    let cases = [
        (1, 1, 1),
        (1, 513, 1),                             // k crosses KC twice, 1x1 out
        (kernels::MR, 31, kernels::NR),          // exactly one register tile
        (kernels::MR + 1, 31, kernels::NR + 1),  // one tile + edge in both dims
        (kernels::MC, kernels::KC, kernels::NC), // exactly one packed panel
        (kernels::MC + 1, kernels::KC + 1, kernels::NC + 1), // panel + 1
        (2 * kernels::MC + 7, 2 * kernels::KC + 1, 17), // multi-slab, narrow out
        (3, 7, 2 * kernels::NC + 5),             // wide-flat multi-panel
        (517, 2, 3),                             // tall-skinny
    ];
    for (i, &(m, k, n)) in cases.iter().enumerate() {
        assert_packed_bitexact(m, k, n, 11_000 + i as u64);
    }
}

/// `product` by the naive loop, continuing from `out`.
fn naive(
    product: Product,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
) {
    match product {
        Product::Plain => kernels::naive::matmul_into(a, b, out, m, k, n),
        Product::TransA => kernels::naive::t_matmul_into(a, b, out, k, m, n),
        Product::TransB => kernels::naive::matmul_t_into(a, b, out, m, k, n),
    }
}

/// `len` normals with a signed zero at every fifth and seventh place.
fn with_zeros(len: usize, seed: u64) -> Vec<f32> {
    let mut v = randvec(len, seed);
    for (i, x) in v.iter_mut().enumerate() {
        if i % 5 == 0 {
            *x = -0.0;
        } else if i % 7 == 0 {
            *x = 0.0;
        }
    }
    v
}

/// `Write` and `Add` for all three products against the naive loop on
/// zeros (and that added in by `add_ordered`) and against the engine's own
/// `Continue` on zeros added in the same way: at every level, at 1, 2 and 4
/// grid threads, on ragged outputs, at depths on either side of one `KC`
/// slab and two (`k > KC` takes `Add`'s write-aside path; so does `k = 0`),
/// with signed zeros in both operands. `Write` runs on an output of NaN it
/// must not read; `Add` on one holding `−0.0`, `±∞` and NaN among normals.
#[test]
fn epilogues_match_naive_and_the_written_fold() {
    let (kc, mr, nr) = (kernels::KC, kernels::MR, kernels::NR);
    let shapes = [
        (mr + 1, nr + 5),
        (3, 2 * nr + 17),
        (kernels::MC + 5, nr - 1),
    ];
    let products = [Product::Plain, Product::TransA, Product::TransB];
    let mut seed = 13_000;
    for k in [0, 1, 63, kc - 1, kc, kc + 1, 2 * kc + 5] {
        for (m, n) in shapes {
            seed += 1;
            let shape = (m, k, n);
            let (a, b) = (with_zeros(m * k, seed), with_zeros(k * n, seed ^ 0x9E37));
            let mut held = randvec(m * n, seed ^ 0x5851);
            for (i, special) in [-0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN]
                .into_iter()
                .enumerate()
            {
                held[i * 3 % (m * n)] = special;
            }
            for product in products {
                let mut written = vec![0.0f32; m * n];
                naive(product, &a, &b, &mut written, shape);
                let mut added = held.clone();
                ops::add_ordered(&mut added, &[&written]);
                at_every_level(|level| {
                    for t in [1, 2, 4] {
                        let what = format!("{product:?} {m}x{k}x{n} t={t} {}", level.name());
                        let run = |ep: Epilogue, start: &[f32]| {
                            let mut out = start.to_vec();
                            kernels::gemm_into_with_threads(
                                product, &a, &b, &mut out, shape, ep, t,
                            );
                            out
                        };
                        let continued = run(Epilogue::Continue, &vec![0.0; m * n]);
                        assert_eq!(bits(&continued), bits(&written), "{what}: Continue");
                        let mut folded = held.clone();
                        ops::add_ordered(&mut folded, &[&continued]);
                        assert_eq!(bits(&folded), bits(&added), "{what}: the fold");
                        let got = run(Epilogue::Write, &vec![f32::NAN; m * n]);
                        assert_eq!(bits(&got), bits(&written), "{what}: Write");
                        let got = run(Epilogue::Add, &held);
                        assert_eq!(bits(&got), bits(&added), "{what}: Add");
                    }
                });
            }
        }
    }
}

/// `k = 0` and empty outputs: the packed engine must accumulate nothing
/// and never panic, at any forced thread count.
#[test]
fn packed_degenerate_edges() {
    for &t in &THREAD_COUNTS {
        let mut out = vec![3.0f32; 2 * 5];
        kernels::matmul_into_with_threads(&[], &[], &mut out, 2, 0, 5, t);
        assert!(out.iter().all(|&v| v == 3.0), "k=0 must add nothing");
        kernels::t_matmul_into_with_threads(&[], &[], &mut out, 0, 2, 5, t);
        assert!(out.iter().all(|&v| v == 3.0));
        kernels::matmul_t_into_with_threads(&[], &[], &mut out, 2, 0, 5, t);
        assert!(out.iter().all(|&v| v == 3.0));

        let mut empty: Vec<f32> = Vec::new();
        kernels::matmul_into_with_threads(&[], &randvec(4 * 3, 1), &mut empty, 0, 4, 3, t);
        kernels::matmul_into_with_threads(&randvec(4 * 4, 2), &[], &mut empty, 4, 4, 0, t);
    }
}

/// Grid thread counts far beyond the output's tile count degrade
/// gracefully (cells clamp to whole register tiles) and stay bit-exact.
#[test]
fn oversubscribed_grid_is_bitexact() {
    for &(m, k, n) in &[(3usize, 40usize, 5usize), (17, 64, 33)] {
        let a = randvec(m * k, 21);
        let b = randvec(k * n, 22);
        let mut want = vec![0.0f32; m * n];
        kernels::naive::matmul_into(&a, &b, &mut want, m, k, n);
        for t in [16usize, 64, 1024] {
            let mut got = vec![0.0f32; m * n];
            kernels::matmul_into_with_threads(&a, &b, &mut got, m, k, n, t);
            assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n} t={t}");
        }
    }
}

/// The packed engine reuses pool scratch: after a warm-up call, repeated
/// large products add **zero** pool misses (panel buffers round-trip
/// through the calling thread's free lists).
#[test]
fn pack_scratch_reuses_pool() {
    std::thread::spawn(|| {
        let (m, k, n) = (kernels::MC + 3, kernels::KC + 9, kernels::NC + 5);
        let a = randvec(m * k, 31);
        let b = randvec(k * n, 32);
        let mut out = vec![0.0f32; m * n];
        kernels::matmul_into_with_threads(&a, &b, &mut out, m, k, n, 2);
        let before = chimera_tensor::pool::local_stats();
        for _ in 0..3 {
            kernels::matmul_into_with_threads(&a, &b, &mut out, m, k, n, 2);
        }
        let after = chimera_tensor::pool::local_stats();
        assert_eq!(
            after.misses - before.misses,
            0,
            "steady-state packing must not allocate"
        );
        assert!(after.hits > before.hits, "packing must draw from the pool");
    })
    .join()
    .unwrap();
}
