//! Equivalence suite for the tiled, multi-threaded kernels: every variant
//! must match the naive single-threaded reference loops **bit-for-bit** at
//! every thread count — the determinism contract the runtime's replica
//! verification and checkpoint-replay tests build on.
//!
//! Thread count is process-global state; kernels are bit-identical at any
//! setting, so concurrent tests flipping it cannot perturb each other's
//! results — that invariant is exactly what this file asserts. The
//! microkernel level is process-global too, and is walked under a lock
//! (`at_every_level`) so that each level's body is known to have run: every
//! level equals the naive loops, hence every level equals every other.
//!
//! The strided, batched small-product kernel (`gemm_batch`) is held to the
//! same standard against its own naive twin: any strides, offsets,
//! transposes and batch, and with the triangular hints, which must change
//! no bit that is read — at every level too, since an output at least `NR`
//! wide runs on the microkernel's tile wherever that has a vector body.

use proptest::prelude::*;

use chimera_tensor::kernels::{gemm_batch, naive, Operand, Triangle};
use chimera_tensor::{kernels, Rng, Tensor};

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

/// Run all three tiled kernels over `(m, k, n)` at every thread count and
/// compare against the naive loops bit-for-bit.
fn assert_all_variants_bitexact(m: usize, k: usize, n: usize, seed: u64) {
    let a = randvec(m * k, seed);
    let b = randvec(k * n, seed ^ 0x9E37_79B9);
    let at = randvec(k * m, seed ^ 0x5851_F42D);
    let bt = randvec(n * k, seed ^ 0x1405_7B7E);

    let mut want_mm = vec![0.0f32; m * n];
    kernels::naive::matmul_into(&a, &b, &mut want_mm, m, k, n);
    let mut want_tm = vec![0.0f32; m * n];
    kernels::naive::t_matmul_into(&at, &b, &mut want_tm, k, m, n);
    let mut want_mt = vec![0.0f32; m * n];
    kernels::naive::matmul_t_into(&a, &bt, &mut want_mt, m, k, n);

    at_every_level(|level| {
        let level = level.name();
        for &t in &THREAD_COUNTS {
            kernels::set_threads(t);
            let mut got = vec![0.0f32; m * n];
            kernels::matmul_into(&a, &b, &mut got, m, k, n);
            assert_eq!(
                bits(&got),
                bits(&want_mm),
                "matmul {m}x{k}x{n} t={t} {level}"
            );

            let mut got = vec![0.0f32; m * n];
            kernels::t_matmul_into(&at, &b, &mut got, k, m, n);
            assert_eq!(
                bits(&got),
                bits(&want_tm),
                "t_matmul {m}x{k}x{n} t={t} {level}"
            );

            let mut got = vec![0.0f32; m * n];
            kernels::matmul_t_into(&a, &bt, &mut got, m, k, n);
            assert_eq!(
                bits(&got),
                bits(&want_mt),
                "matmul_t {m}x{k}x{n} t={t} {level}"
            );
        }
    });
    kernels::set_threads(1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random shapes up to sizes that cross the MC/KC/NC tile boundaries.
    #[test]
    fn tiled_threaded_matches_naive(m in 1usize..80, k in 1usize..140, n in 1usize..80, seed in 0u64..10_000) {
        assert_all_variants_bitexact(m, k, n, seed);
    }

    /// The `Tensor` methods route through the same kernels: `matmul` at any
    /// thread count equals the naive loop over the same data.
    #[test]
    fn tensor_matmul_bitexact_across_threads(m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..10_000) {
        let a = Tensor::normal(m, k, 1.0, &mut Rng::new(seed));
        let b = Tensor::normal(k, n, 1.0, &mut Rng::new(seed + 1));
        let mut want = vec![0.0f32; m * n];
        kernels::naive::matmul_into(a.data(), b.data(), &mut want, m, k, n);
        for &t in &THREAD_COUNTS {
            kernels::set_threads(t);
            prop_assert_eq!(bits(a.matmul(&b).data()), bits(&want));
        }
        kernels::set_threads(1);
    }

}

/// Shapes chosen adversarially against the tiling: degenerate, boundary,
/// and aspect-ratio extremes.
#[test]
fn adversarial_shapes_bitexact() {
    let cases = [
        (1, 1, 1),                                           // minimal
        (1, 257, 1),                                         // k crosses KC twice
        (513, 2, 1),                                         // tall-skinny
        (1, 2, 513),                                         // wide-flat
        (kernels::MC, kernels::KC, kernels::NC),             // exact tile
        (kernels::MC + 1, kernels::KC + 1, kernels::NC + 1), // tile + 1
        (kernels::MC - 1, kernels::KC - 1, kernels::NC - 1), // tile - 1
        (2 * kernels::MC + 3, 7, 2 * kernels::NC + 5),       // multi-stripe
        (kernels::MR - 1, 9, kernels::NR - 1),               // below one register tile
        (kernels::MR + 1, 9, kernels::NR + 1),               // register tile + edge
        (3 * kernels::MR, 33, 3 * kernels::NR + 7),          // tiles + ragged columns
    ];
    for (i, &(m, k, n)) in cases.iter().enumerate() {
        assert_all_variants_bitexact(m, k, n, 7_000 + i as u64);
    }
}

/// The output width on every residue of the 32-wide tile that has an edge
/// of its own (none, one lane, either side of the 16-lane half, one short),
/// with one and two whole tiles before it and `m` around a multiple of the
/// tile height.
#[test]
fn tile_width_residues_bitexact() {
    for (i, rem) in [0usize, 1, 15, 16, 17, 31].into_iter().enumerate() {
        for n in [kernels::NR + rem, 2 * kernels::NR + rem] {
            for m in [63usize, 64, 65] {
                assert_all_variants_bitexact(m, 64, n, 8_000 + i as u64);
            }
        }
    }
}

/// `k = 0` contractions are empty sums: well-defined, all-zero output, no
/// panic at any thread count.
#[test]
fn k_zero_edge() {
    for &t in &THREAD_COUNTS {
        kernels::set_threads(t);
        let a = Tensor::zeros(3, 0);
        let b = Tensor::zeros(0, 5);
        let out = a.matmul(&b);
        assert_eq!((out.rows(), out.cols()), (3, 5));
        assert!(out.data().iter().all(|&v| v == 0.0));
        let tm = a.transpose().t_matmul(&b); // [0,3]ᵀ·[0,5]
        assert_eq!((tm.rows(), tm.cols()), (3, 5));
        let mt = a.matmul_t(&Tensor::zeros(5, 0));
        assert_eq!((mt.rows(), mt.cols()), (3, 5));
    }
    kernels::set_threads(1);
}

/// Zero-row / zero-col outputs don't trip the thread partitioner.
#[test]
fn empty_output_edges() {
    kernels::set_threads(8);
    let a = Tensor::zeros(0, 4);
    let b = Tensor::zeros(4, 3);
    assert_eq!(a.matmul(&b).rows(), 0);
    let c = Tensor::zeros(4, 0);
    assert_eq!(b.t_matmul(&c).cols(), 0);
    kernels::set_threads(1);
}

/// A full forward/backward-sized chain of products is bit-stable when the
/// thread count changes *between* runs — the runtime's determinism test in
/// miniature, at the kernel level.
#[test]
fn chained_products_stable_across_thread_counts() {
    let run = |threads: usize| -> Vec<u32> {
        kernels::set_threads(threads);
        let x = Tensor::normal(48, 96, 1.0, &mut Rng::new(42));
        let w1 = Tensor::normal(96, 192, 0.5, &mut Rng::new(43));
        let w2 = Tensor::normal(192, 96, 0.5, &mut Rng::new(44));
        let h = x.matmul(&w1);
        let y = h.matmul(&w2);
        let dw2 = h.t_matmul(&y);
        let dh = y.matmul_t(&w2);
        let mut out = Vec::new();
        out.extend(bits(y.data()));
        out.extend(bits(dw2.data()));
        out.extend(bits(dh.data()));
        out
    };
    let base = run(1);
    for &t in &THREAD_COUNTS[1..] {
        assert_eq!(run(t), base, "thread count {t} changed results");
    }
    kernels::set_threads(1);
}

// --- the strided, batched small-product kernel --------------------------------

/// What an untouched output element holds.
const SENTINEL: f32 = 7.5;

/// One random `gemm_batch` call. Both operands are blocks of one backing
/// matrix, so blocks overlap one another the way q, k and v blocks of one
/// `qkv` buffer do; output blocks are disjoint column blocks of a wider
/// matrix.
struct Problem {
    dims: (usize, usize, usize),
    src: Vec<f32>,
    a: (usize, bool),
    b: (usize, bool),
    ldo: usize,
    out_len: usize,
    batch: Vec<[usize; 3]>,
}

impl Problem {
    fn random(seed: u64, dims: (usize, usize, usize), items: usize) -> Problem {
        let (m, k, n) = dims;
        let mut rng = Rng::new(seed);
        let mut pick = |n: u32| rng.below(n) as usize;
        let (ta, tb) = (pick(2) == 1, pick(2) == 1);
        // Stored shapes, leading dimensions wider than the stored rows.
        let (ar, ac) = if ta { (k, m) } else { (m, k) };
        let (br, bc) = if tb { (n, k) } else { (k, n) };
        let (lda, ldb, ldo) = (ac + 1 + pick(7), bc + 1 + pick(7), n + 1 + pick(7));
        let col0 = pick((ldo - n) as u32 + 1);
        let batch: Vec<[usize; 3]> = (0..items)
            .map(|i| [1 + pick(40), 1 + pick(40), i * m * ldo + col0])
            .collect();
        let end = |off: usize, rows: usize, cols: usize, ld: usize| off + rows * ld + cols;
        let len = batch
            .iter()
            .map(|&[ao, bo, _]| end(ao, ar, ac, lda).max(end(bo, br, bc, ldb)))
            .max()
            .unwrap_or(0);
        Problem {
            dims,
            src: randvec(len, seed ^ 0xA5A5),
            a: (lda, ta),
            b: (ldb, tb),
            ldo,
            out_len: items * m * ldo + 3,
            batch,
        }
    }

    fn operands(&self) -> (Operand<'_>, Operand<'_>) {
        let of = |(ld, trans): (usize, bool)| Operand {
            data: &self.src,
            ld,
            trans,
        };
        (of(self.a), of(self.b))
    }

    fn run(&self, tri: Triangle) -> Vec<f32> {
        let (a, b) = self.operands();
        let mut out = vec![SENTINEL; self.out_len];
        gemm_batch(self.dims, a, b, &mut out, self.ldo, &self.batch, tri);
        out
    }

    fn run_naive(&self) -> Vec<f32> {
        let (a, b) = self.operands();
        let mut out = vec![SENTINEL; self.out_len];
        naive::gemm_batch(self.dims, a, b, &mut out, self.ldo, &self.batch);
        out
    }

    /// Write `±0.0` at stored (row, col > row) of every `a` block.
    fn zero_a_above_diagonal(&mut self, seed: u64) {
        let (m, k, _) = self.dims;
        let (lda, ta) = self.a;
        let (rows, cols) = if ta { (k, m) } else { (m, k) };
        let mut rng = Rng::new(seed);
        for &[ao, _, _] in &self.batch {
            for r in 0..rows {
                for c in r + 1..cols {
                    self.src[ao + r * lda + c] = if rng.below(2) == 0 { 0.0 } else { -0.0 };
                }
            }
        }
    }
}

/// `n` on either side of the microkernel's width and of two tiles of it:
/// where `gemm_batch` changes tile, and where the wide tile has an edge.
fn width_around_nr(pick: usize) -> usize {
    [31, 32, 33, 64, 65][pick % 5]
}

/// Every element of `p`'s product equals the naive twin's, at every level;
/// under `LowerOut` above the diagonal of a block anything goes.
fn assert_matches_naive(p: &Problem, tri: Triangle) {
    let (m, _, n) = p.dims;
    let want = p.run_naive();
    at_every_level(|level| {
        let mut got = p.run(tri);
        if tri == Triangle::LowerOut {
            // Unspecified there: take the reference's.
            for &[_, _, oo] in &p.batch {
                for (i, j) in (0..m).flat_map(|i| (i + 1..n).map(move |j| (i, j))) {
                    got[oo + i * p.ldo + j] = want[oo + i * p.ldo + j];
                }
            }
        }
        assert_eq!(
            bits(&got),
            bits(&want),
            "{:?} {tri:?} at {}",
            p.dims,
            level.name()
        );
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any shape up to 80, any strides, offsets, transposes and batch: the
    /// tiled kernel equals its naive twin bit for bit, inside the output
    /// blocks and (untouched) outside them.
    #[test]
    fn strided_batched_matches_naive(m in 1usize..=80, k in 1usize..=80, n in 1usize..=80, items in 1usize..5, seed in 0u64..100_000) {
        assert_matches_naive(&Problem::random(seed, (m, k, n), items), Triangle::Full);
        // The same call at the widths where the tile changes (any `m`, so
        // ragged row tiles come with them).
        let n = width_around_nr(n);
        assert_matches_naive(&Problem::random(seed, (m, k, n), items), Triangle::Full);
    }

    /// `LowerA` skips only `k` steps whose multiplier is a `±0.0` of the
    /// stored upper triangle: same bits as the full product over the same
    /// operands.
    #[test]
    fn lower_a_skip_is_exact(m in 1usize..=80, k in 1usize..=80, n in 1usize..=40, items in 1usize..4, seed in 0u64..100_000) {
        for n in [n, width_around_nr(n)] {
            let mut p = Problem::random(seed, (m, k, n), items);
            p.zero_a_above_diagonal(seed + 1);
            assert_matches_naive(&p, Triangle::LowerA);
        }
    }

    /// `LowerOut` computes every element at or below the diagonal of every
    /// output block exactly as the full product does, and writes nothing
    /// outside the blocks.
    #[test]
    fn lower_out_keeps_the_lower_triangle(m in 1usize..=80, k in 1usize..=40, n in 1usize..=80, items in 1usize..4, seed in 0u64..100_000) {
        for n in [n, width_around_nr(n)] {
            assert_matches_naive(&Problem::random(seed, (m, k, n), items), Triangle::LowerOut);
        }
    }
}

/// A depth past one packed slab (`k > KC`), under every hint: later slabs
/// accumulate into what the first one wrote, and `LowerA`'s live range cuts
/// through a slab edge.
#[test]
fn gemm_batch_deeper_than_a_slab() {
    let (m, k, n) = (kernels::KC + 20, kernels::KC + 20, kernels::NR + 3);
    for tri in [Triangle::Full, Triangle::LowerOut, Triangle::LowerA] {
        let mut p = Problem::random(9, (m, k, n), 2);
        if tri == Triangle::LowerA {
            p.zero_a_above_diagonal(10);
        }
        assert_matches_naive(&p, tri);
    }
}

/// Empty contractions write `+0.0` over the block (the kernel overwrites,
/// it does not accumulate); empty outputs and empty batches write nothing.
#[test]
fn gemm_batch_degenerate_shapes() {
    at_every_level(|level| {
        for tri in [Triangle::Full, Triangle::LowerOut, Triangle::LowerA] {
            for (m, n) in [(5, 9), (9, 40)] {
                let p = Problem::random(3, (m, 0, n), 2);
                let got = p.run(tri);
                for &[_, _, oo] in &p.batch {
                    for (i, j) in (0..m).flat_map(|i| (0..n).map(move |j| (i, j))) {
                        if tri != Triangle::LowerOut || j <= i {
                            let what = format!("k = 0, {tri:?} at {}", level.name());
                            assert_eq!(got[oo + i * p.ldo + j].to_bits(), 0, "{what}");
                        }
                    }
                }
            }
            for dims in [(0, 4, 6), (6, 4, 0), (0, 4, 40), (0, 0, 0)] {
                let p = Problem::random(4, dims, 3);
                assert!(
                    p.run(tri).iter().all(|&v| v == SENTINEL),
                    "{dims:?} {tri:?}"
                );
            }
            for n in [3, 40] {
                let p = Problem::random(5, (6, 4, n), 0);
                assert!(p.run(tri).iter().all(|&v| v == SENTINEL), "empty batch");
            }
        }
    });
}

/// A block that does not fit its matrix is refused, not wrapped.
#[test]
#[should_panic(expected = "out of bounds")]
fn gemm_batch_rejects_a_block_past_the_end() {
    let mut p = Problem::random(6, (8, 8, 8), 1);
    p.batch[0][0] = p.src.len();
    p.run(Triangle::Full);
}
