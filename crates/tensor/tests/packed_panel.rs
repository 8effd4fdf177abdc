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

use chimera_tensor::{kernels, Rng};

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
