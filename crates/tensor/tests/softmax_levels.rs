//! Softmax, forward and backward, at every SIMD level the host supports:
//! the lockstep bodies (`micro::softmax`) must equal the portable row loop
//! bit for bit, whatever the width, the causal block size, the number of
//! blocks or the values.
//!
//! The reference is the op itself on one live prefix at a time — a one-row
//! tensor has no group of equal rows to walk in lockstep, so it always runs
//! the portable loop — which also pins the grouping: a row the group walk
//! visited twice, skipped, or cut at the wrong column differs from it.

use chimera_tensor::{scale_mask_softmax_rows, softmax_rows_backward, Rng, Tensor};

mod common;
use common::at_every_level;

const SCALE: f32 = 0.35;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Columns row `r` sees.
fn live(r: usize, cols: usize, causal: Option<usize>) -> usize {
    causal.map_or(cols, |block| (r % block + 1).min(cols))
}

/// Forward and backward one live prefix at a time; masked columns `+0.0`.
fn reference(x: &Tensor, dy: &Tensor, causal: Option<usize>) -> (Tensor, Tensor) {
    let (mut y, mut d) = (
        Tensor::zeros(x.rows(), x.cols()),
        Tensor::zeros(x.rows(), x.cols()),
    );
    for r in 0..x.rows() {
        let n = live(r, x.cols(), causal);
        let mut yr = Tensor::from_vec(1, n, x.row(r)[..n].to_vec());
        scale_mask_softmax_rows(&mut yr, SCALE, None);
        let mut dr = Tensor::from_vec(1, n, dy.row(r)[..n].to_vec());
        softmax_rows_backward(&yr, &mut dr, SCALE, None);
        y.row_mut(r)[..n].copy_from_slice(yr.data());
        d.row_mut(r)[..n].copy_from_slice(dr.data());
    }
    (y, d)
}

/// The ops on the whole stack equal [`reference`] at every level. `dy`'s
/// masked columns are poisoned first: the backward must not read them.
fn assert_matches_reference(x: &Tensor, dy: &Tensor, causal: Option<usize>, what: &str) {
    let (want_y, want_d) = reference(x, dy, causal);
    let mut poisoned = dy.clone();
    for r in 0..x.rows() {
        poisoned.row_mut(r)[live(r, x.cols(), causal)..].fill(f32::NAN);
    }
    at_every_level(|level| {
        let what = format!("{what} {causal:?} at {}", level.name());
        let mut y = x.clone();
        scale_mask_softmax_rows(&mut y, SCALE, causal);
        assert_eq!(bits(&y), bits(&want_y), "forward {what}");
        let mut d = poisoned.clone();
        softmax_rows_backward(&y, &mut d, SCALE, causal);
        assert_eq!(bits(&d), bits(&want_d), "backward {what}");
    });
}

/// Scores with a spread that underflows some exponentials, and a few
/// planted values: far below and far above the rest, a negative zero.
fn scores(rows: usize, cols: usize, rng: &mut Rng) -> Tensor {
    let mut x = Tensor::normal(rows, cols, 8.0, rng);
    let len = x.len();
    for (i, v) in [-200.0, 90.0, -0.0, -600.0].into_iter().enumerate() {
        if len > 0 {
            x.data_mut()[(i * 7919 + 13) % len] = v;
        }
    }
    x
}

/// Every width from none to past four vectors, under every block height
/// with an edge of its own — one row, fewer rows than a vector has lanes,
/// a whole vector, a ragged one, more rows than columns — in stacks of
/// six blocks: one lockstep group and a short one behind it.
#[test]
fn every_width_and_block_matches_the_portable_rows() {
    let mut rng = Rng::new(41);
    for cols in 0..=67 {
        for block in [1, 3, 16, 19, 64] {
            let rows = 6 * block;
            let (x, dy) = (
                scores(rows, cols, &mut rng),
                Tensor::normal(rows, cols, 1.0, &mut rng),
            );
            let what = format!("[{rows},{cols}] block {block}");
            assert_matches_reference(&x, &dy, Some(block), &what);
        }
        // Unmasked: a whole number of groups, and every remainder.
        for rows in [8, 9, 10, 11] {
            let (x, dy) = (
                scores(rows, cols, &mut rng),
                Tensor::normal(rows, cols, 1.0, &mut rng),
            );
            assert_matches_reference(&x, &dy, None, &format!("[{rows},{cols}]"));
        }
    }
}

/// Block counts around the group size: none, a whole group, one short.
#[test]
fn short_and_whole_groups() {
    let mut rng = Rng::new(42);
    for blocks in [1, 3, 4, 5, 7, 8] {
        let (block, cols) = (19, 19);
        let x = scores(blocks * block, cols, &mut rng);
        let dy = Tensor::normal(blocks * block, cols, 1.0, &mut rng);
        assert_matches_reference(&x, &dy, Some(block), &format!("{blocks} blocks"));
    }
}

/// Rows the arithmetic has no good answer for get the portable loop's
/// answer, whatever it is: a row of `-∞` (every exponent is `∞ − ∞`), rows
/// holding a NaN at the front, in the vector body and in the scalar tail,
/// a row whose maximum is `+∞`. One kind of NaN per row: which payload
/// survives an operation on two different NaNs is the compiler's choice of
/// operand order, not the op's.
#[test]
fn rows_of_infinities_and_nans() {
    let mut rng = Rng::new(43);
    for (cols, causal) in [(37, None), (37, Some(37)), (128, Some(128)), (16, None)] {
        let rows = 8 * causal.unwrap_or(1);
        let mut x = scores(rows, cols, &mut rng);
        let dy = Tensor::normal(rows, cols, 1.0, &mut rng);
        let stride = causal.unwrap_or(1);
        // Row `stride − 1` of a block sees every column.
        let full_row = |b: usize| b * stride + stride - 1;
        x.row_mut(full_row(0)).fill(f32::NEG_INFINITY);
        x.row_mut(full_row(1))[0] = f32::NAN;
        x.row_mut(full_row(2))[cols / 2] = f32::NAN;
        x.row_mut(full_row(3))[cols - 1] = f32::NAN;
        x.row_mut(full_row(5))[cols / 3] = f32::INFINITY;
        assert_matches_reference(&x, &dy, causal, "non-finite rows");
        // And a NaN arriving in `dy` against finite probabilities.
        let (x, mut dy) = (scores(rows, cols, &mut rng), dy);
        dy.row_mut(full_row(4))[cols - 1] = f32::NAN;
        dy.row_mut(full_row(6))[0] = f32::NAN;
        assert_matches_reference(&x, &dy, causal, "non-finite gradients");
    }
}

/// The benchmark's long-sequence stack: eight `[128, 128]` blocks.
#[test]
fn model_a_stack() {
    let mut rng = Rng::new(44);
    let (x, dy) = (
        scores(1024, 128, &mut rng),
        Tensor::normal(1024, 128, 1.0, &mut rng),
    );
    assert_matches_reference(&x, &dy, Some(128), "[1024,128]");
    assert_matches_reference(&x, &dy, None, "[1024,128]");
}
