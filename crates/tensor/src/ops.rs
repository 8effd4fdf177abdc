//! Nonlinear kernels shared by the transformer layers: softmax, GELU, and
//! layer normalization, each with its exact backward.
//!
//! No libm: `exp` and `tanh` come from [`crate::vmath`], `sqrt` and division
//! are exactly-rounded IEEE operations, and every reduction has a fixed
//! order written out below (eight lanes combined in ascending order for
//! softmax, one ascending chain for layernorm), so results do not depend on
//! the platform, the SIMD width or the thread count.

use std::ops::Range;

use crate::micro::softmax::{dot_lockstep, softmax_lockstep, R};
use crate::pool;
use crate::tensor::{dot, Tensor};
use crate::vmath;

/// Reduce `row` with the combiner `f` (applied to elements and to lane
/// partials alike) in eight independent lanes (element `i` goes to lane
/// `i % 8`), combine lanes 0..8 in ascending order, then fold in the
/// `len % 8` tail. The order is fixed by this code, not by the compiler's
/// choice of vector width.
#[inline(always)]
fn lane_reduce(row: &[f32], init: f32, f: impl Fn(f32, f32) -> f32) -> f32 {
    const LANES: usize = 8;
    let mut acc = [init; LANES];
    let chunks = row.chunks_exact(LANES);
    let tail = chunks.remainder();
    for c in chunks {
        for l in 0..LANES {
            acc[l] = f(acc[l], c[l]);
        }
    }
    acc.iter().chain(tail).fold(init, |a, &v| f(a, v))
}

/// `row = softmax(scale · row)`, numerically stabilized.
fn softmax_row(row: &mut [f32], scale: f32) {
    for v in row.iter_mut() {
        *v *= scale;
    }
    let max = lane_reduce(row, f32::NEG_INFINITY, |a, v| if v > a { v } else { a });
    for v in row.iter_mut() {
        *v = vmath::exp(*v - max);
    }
    let inv = 1.0 / lane_reduce(row, 0.0, |a, v| a + v);
    for v in row.iter_mut() {
        // `exp` returns zero or a normal number, but a normal number times
        // `inv < 1` can land in the subnormal range; flush that too, so no
        // probability ever drags subnormal arithmetic into the products
        // that consume it.
        let p = *v * inv;
        *v = if p < f32::MIN_POSITIVE { 0.0 } else { p };
    }
}

/// Row-wise softmax (numerically stabilized).
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let mut out = x.clone();
    scale_mask_softmax_rows(&mut out, 1.0, None);
    out
}

/// Columns row `r` may attend to: all `cols` of them, or under a causal
/// mask over stacked blocks of `block` rows each (`causal = Some(block)`)
/// columns `0..=r % block`.
fn live_cols(r: usize, cols: usize, causal: Option<usize>) -> usize {
    causal.map_or(cols, |block| (r % block + 1).min(cols))
}

fn check_blocks(x: &Tensor, causal: Option<usize>) {
    if let Some(block) = causal {
        assert!(
            block > 0 && x.rows().is_multiple_of(block),
            "rows must be whole causal blocks"
        );
    }
}

/// Hand `each` the rows the lockstep bodies take [`R`] at a time, as
/// `(first row, rows between two of the group, live columns)`: row `i` of
/// `R` consecutive causal blocks — all `i + 1` columns live — or `R`
/// consecutive unmasked rows. Returns how many leading rows of the stack
/// the groups cover.
fn for_each_group(
    rows: usize,
    cols: usize,
    causal: Option<usize>,
    mut each: impl FnMut((usize, usize, usize)),
) -> usize {
    let block = causal.unwrap_or(1);
    // A row of no columns has nothing to group (or to do).
    let covered = if cols == 0 {
        0
    } else {
        rows - rows % (R * block)
    };
    for r0 in (0..covered).step_by(R * block) {
        for i in 0..block {
            let live = causal.map_or(cols, |_| cols.min(i + 1));
            each((r0 + i, block, live));
        }
    }
    covered
}

/// Rows `first`, `first + step`, … ([`R`] of them) of the row-major `data`,
/// each cut to its `live` columns, the masked rest of it written as `+0.0`.
fn live_rows(
    data: &mut [f32],
    cols: usize,
    (first, step, live): (usize, usize, usize),
) -> [&mut [f32]; R] {
    let mut rows = data[first * cols..].chunks_mut(step * cols);
    std::array::from_fn(|_| {
        let row = &mut rows.next().expect("whole groups")[..cols];
        let (seen, masked) = row.split_at_mut(live);
        // Not a `memset` call for the nothing an unmasked row leaves.
        if !masked.is_empty() {
            masked.fill(0.0);
        }
        seen
    })
}

/// Attention's `softmax(scale · x + mask)` in place, row by row.
/// `causal = Some(block)` says `x` stacks score blocks of `block` rows
/// each, every one under its own causal mask: row `r` attends to columns
/// `0..=r % block`. Only those are read and exponentiated, and the rest of
/// the row is written as exact `+0.0` (what `exp` of a `-∞` mask would
/// give, without computing it).
///
/// Rows of equal live length go through `micro::softmax`'s lockstep body
/// where the SIMD level has one; the portable row loop is what that body
/// must equal bit for bit, and what every other row runs.
pub fn scale_mask_softmax_rows(x: &mut Tensor, scale: f32, causal: Option<usize>) {
    check_blocks(x, causal);
    let (rows, cols) = (x.rows(), x.cols());
    let covered = for_each_group(rows, cols, causal, |group| {
        let mut seen = live_rows(x.data_mut(), cols, group);
        if !softmax_lockstep(&mut seen, scale) {
            seen.into_iter().for_each(|row| softmax_row(row, scale));
        }
    });
    for r in covered..rows {
        let (seen, masked) = x.row_mut(r).split_at_mut(live_cols(r, cols, causal));
        softmax_row(seen, scale);
        masked.fill(0.0);
    }
}

/// One row of [`softmax_rows_backward`] once its inner product is known:
/// `d = scale · y ⊙ (d − inner)`.
fn centre_and_scale(y: &[f32], d: &mut [f32], inner: f32, scale: f32) {
    for (dv, &yv) in d.iter_mut().zip(y) {
        *dv = yv * (*dv - inner) * scale;
    }
}

/// Backward of [`scale_mask_softmax_rows`], in place: with `y` its output
/// and `d` holding `dy`, overwrite `d` with the gradient of the scores,
/// `scale · y ⊙ (dy − y·dy)` per row.
///
/// Only the live prefix of a row (all of it, or columns `0..=r % block`
/// under `causal = Some(block)`) is read — the masked columns of `dy` need
/// not have been computed — and the masked columns are written as exact
/// `+0.0`. The row's inner product `y·dy` is therefore [`dot`] over the
/// live prefix alone: prefix element `i` goes to lane `i % 8` while whole
/// groups of eight last, lanes are summed in ascending order, and the
/// remaining `live % 8` elements are folded in one `mul_add` at a time.
/// Rows are grouped as in the forward op.
pub fn softmax_rows_backward(y: &Tensor, d: &mut Tensor, scale: f32, causal: Option<usize>) {
    assert_eq!((y.rows(), y.cols()), (d.rows(), d.cols()));
    check_blocks(y, causal);
    let (rows, cols) = (y.rows(), y.cols());
    let covered = for_each_group(rows, cols, causal, |group| {
        let (first, step, live) = group;
        let yr: [&[f32]; R] = std::array::from_fn(|r| &y.row(first + r * step)[..live]);
        let seen = live_rows(d.data_mut(), cols, group);
        let inner = dot_lockstep(&yr, &seen.each_ref().map(|row| &**row))
            .unwrap_or_else(|| std::array::from_fn(|r| dot(yr[r], seen[r])));
        for ((yr, dr), inner) in yr.into_iter().zip(seen).zip(inner) {
            centre_and_scale(yr, dr, inner, scale);
        }
    });
    for r in covered..rows {
        let live = live_cols(r, cols, causal);
        let (yr, (seen, masked)) = (&y.row(r)[..live], d.row_mut(r).split_at_mut(live));
        centre_and_scale(yr, seen, dot(yr, seen), scale);
        masked.fill(0.0);
    }
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/π)
const GELU_A: f32 = 0.044715;

/// `tanh` of GELU's inner cubic.
#[inline(always)]
fn gelu_tanh(v: f32) -> f32 {
    vmath::tanh(GELU_C * (v + GELU_A * v * v * v))
}

/// GELU activation (tanh approximation).
pub fn gelu(x: &Tensor) -> Tensor {
    x.map(|v| 0.5 * v * (1.0 + gelu_tanh(v)))
}

/// Backward of [`gelu`]: `dx = dy * gelu'(x)`.
pub fn gelu_backward(x: &Tensor, dy: &Tensor) -> Tensor {
    x.zip_map(dy, |v, g| {
        let t = gelu_tanh(v);
        let sech2 = 1.0 - t * t;
        let slope = 0.5 * (1.0 + t) + 0.5 * v * sech2 * GELU_C * (1.0 + 3.0 * GELU_A * v * v);
        slope * g
    })
}

/// Stash produced by [`layernorm`] for its backward.
#[derive(Debug, Clone)]
pub struct LayerNormStash {
    /// Normalized input `x̂`.
    pub xhat: Tensor,
    /// Per-row `1/σ`.
    pub inv_std: Vec<f32>,
}

impl LayerNormStash {
    /// Total `f32` elements held by this stash.
    pub fn elements(&self) -> usize {
        self.xhat.len() + self.inv_std.len()
    }

    /// Visit each pool-backed buffer's length (the `inv_std` vector is a
    /// plain allocation and is not pooled).
    pub fn for_each_pooled(&self, f: &mut dyn FnMut(usize)) {
        f(self.xhat.len());
    }
}

const LN_EPS: f32 = 1e-5;

/// Layer normalization over each row: `y = γ ⊙ x̂ + β`.
pub fn layernorm(x: &Tensor, gamma: &[f32], beta: &[f32]) -> (Tensor, LayerNormStash) {
    let n = x.cols();
    assert_eq!(gamma.len(), n);
    assert_eq!(beta.len(), n);
    let mut xhat = pool::take_spare(x.len());
    let mut y = pool::take_spare(x.len());
    let mut inv_std = Vec::with_capacity(x.rows());
    for r in 0..x.rows() {
        let row = x.row(r);
        let mean = row.iter().sum::<f32>() / n as f32;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        let inv = 1.0 / (var + LN_EPS).sqrt();
        xhat.extend(row.iter().map(|&v| (v - mean) * inv));
        let hat = xhat[r * n..].iter().zip(gamma).zip(beta);
        y.extend(hat.map(|((&h, &g), &b)| h * g + b));
        inv_std.push(inv);
    }
    let xhat = Tensor::from_vec(x.rows(), n, xhat);
    (
        Tensor::from_vec(x.rows(), n, y),
        LayerNormStash { xhat, inv_std },
    )
}

/// Backward of [`layernorm`] over rows `rows` of `dy`: appends those rows of
/// `dx` to `dx`, and adds their `dγ` and `dβ` into `dparams` (`[dγ.., dβ..]`)
/// as one ascending chain per column, continued from the value already
/// there. A pass over stacked micro-batches calls it once per micro-batch,
/// so that each one's chain can start from `+0.0` of its own.
pub fn layernorm_backward(
    stash: &LayerNormStash,
    gamma: &[f32],
    dy: &Tensor,
    rows: Range<usize>,
    dx: &mut Vec<f32>,
    dparams: &mut [f32],
) {
    let n = dy.cols();
    let nf = n as f32;
    assert_eq!(dparams.len(), 2 * n, "dparams is [dγ.., dβ..]");
    let (dgamma, dbeta) = dparams.split_at_mut(n);
    for r in rows {
        let xhat = stash.xhat.row(r);
        let dyr = dy.row(r);
        // The dx row first holds dx̂ = dy ⊙ γ, then is rewritten in place.
        let at = dx.len();
        dx.extend(dyr.iter().zip(gamma).map(|(&d, &g)| d * g));
        let dxr = &mut dx[at..];
        let mut sum_dxhat = 0.0f32;
        let mut sum_dxhat_xhat = 0.0f32;
        for (&d, &h) in dxr.iter().zip(xhat) {
            sum_dxhat += d;
            sum_dxhat_xhat += d * h;
        }
        let params = dgamma.iter_mut().zip(dbeta.iter_mut());
        for ((dg, db), (&d, &h)) in params.zip(dyr.iter().zip(xhat)) {
            *dg += d * h;
            *db += d;
        }
        let k = stash.inv_std[r] / nf;
        for (d, &h) in dxr.iter_mut().zip(xhat) {
            *d = k * (nf * *d - sum_dxhat - h * sum_dxhat_xhat);
        }
    }
}

/// Elements per block of [`sum_ordered`] / [`add_ordered`]: 16 KiB of
/// accumulator, so it stays in L1 while every term is streamed past it once.
pub const SUM_CHUNK: usize = 4096;

/// `acc[i] = (..((start + terms[0][i]) + terms[1][i]) + ..)`, where `start` is
/// `first[i]` if given and the old `acc[i]` otherwise. The per-element order
/// is the order of `terms` whatever the blocking, so the bits are those of
/// one whole-vector pass per term; the blocking only turns `terms.len()`
/// read-modify-write sweeps of `acc` through memory into one.
fn fold_ordered(acc: &mut [f32], first: Option<&[f32]>, terms: &[&[f32]]) {
    for t in first.iter().chain(terms) {
        assert_eq!(t.len(), acc.len(), "ordered sum length mismatch");
    }
    let mut at = 0;
    for block in acc.chunks_mut(SUM_CHUNK) {
        let range = at..at + block.len();
        if let Some(first) = first {
            block.copy_from_slice(&first[range.clone()]);
        }
        for t in terms {
            for (a, b) in block.iter_mut().zip(&t[range.clone()]) {
                *a += b;
            }
        }
        at = range.end;
    }
}

/// Overwrite `out` with the left-to-right sum of `terms`: the first term is
/// copied, the rest added in order (`out` is left untouched when there are
/// none). The one summation kernel under every deterministic reduction —
/// keyed, exact, transport-backed — so they cannot drift apart in order.
pub fn sum_ordered(out: &mut [f32], terms: &[&[f32]]) {
    if let Some((first, rest)) = terms.split_first() {
        fold_ordered(out, Some(first), rest);
    }
}

/// `acc[i] = ((acc[i] + terms[0][i]) + terms[1][i]) + ..`: the
/// accumulate-in-place form of [`sum_ordered`].
pub fn add_ordered(acc: &mut [f32], terms: &[&[f32]]) {
    fold_ordered(acc, None, terms);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Central-difference numerical gradient check for a scalar loss
    /// `L = Σ y ⊙ w` of a tensor op.
    fn num_grad(x: &Tensor, weights: &Tensor, f: impl Fn(&Tensor) -> Tensor) -> Tensor {
        let eps = 1e-3f32;
        let mut g = Tensor::zeros(x.rows(), x.cols());
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp: f32 = f(&xp).hadamard(weights).data().iter().sum();
            let lm: f32 = f(&xm).hadamard(weights).data().iter().sum();
            g.data_mut()[i] = (lp - lm) / (2.0 * eps);
        }
        g
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = Rng::new(1);
        let x = Tensor::normal(4, 7, 2.0, &mut rng);
        let y = softmax_rows(&x);
        for r in 0..4 {
            let s: f32 = y.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(y.row(r).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn softmax_backward_matches_numeric() {
        let mut rng = Rng::new(2);
        let x = Tensor::normal(3, 5, 1.0, &mut rng);
        let w = Tensor::normal(3, 5, 1.0, &mut rng);
        let y = softmax_rows(&x);
        let mut analytic = w.clone();
        softmax_rows_backward(&y, &mut analytic, 1.0, None);
        let numeric = num_grad(&x, &w, softmax_rows);
        assert!(
            analytic.max_abs_diff(&numeric) < 2e-3,
            "diff {}",
            analytic.max_abs_diff(&numeric)
        );
    }

    #[test]
    fn gelu_values_and_backward() {
        let x = Tensor::from_vec(1, 3, vec![-2.0, 0.0, 2.0]);
        let y = gelu(&x);
        assert!((y.get(0, 1)).abs() < 1e-6);
        assert!(y.get(0, 2) > 1.9 && y.get(0, 2) < 2.0);
        assert!(y.get(0, 0) > -0.1 && y.get(0, 0) < 0.0);

        let mut rng = Rng::new(3);
        let x = Tensor::normal(2, 6, 1.0, &mut rng);
        let w = Tensor::normal(2, 6, 1.0, &mut rng);
        let analytic = gelu_backward(&x, &w);
        let numeric = num_grad(&x, &w, gelu);
        assert!(analytic.max_abs_diff(&numeric) < 2e-3);
    }

    /// libm is the accuracy oracle: the ops agree with the same formulas
    /// over `f32::tanh`/`f32::exp` to within a few ulp.
    #[test]
    fn gelu_and_softmax_match_libm_oracle() {
        let mut rng = Rng::new(6);
        let x = Tensor::normal(8, 40, 3.0, &mut rng);
        let dy = Tensor::normal(8, 40, 1.0, &mut rng);
        let inner = |v: f32| GELU_C * (v + GELU_A * v * v * v);
        let want = x.map(|v| 0.5 * v * (1.0 + inner(v).tanh()));
        assert!(gelu(&x).max_abs_diff(&want) < 1e-6);
        let want = x.zip_map(&dy, |v, g| {
            let t = inner(v).tanh();
            let sech2 = 1.0 - t * t;
            g * (0.5 * (1.0 + t) + 0.5 * v * sech2 * GELU_C * (1.0 + 3.0 * GELU_A * v * v))
        });
        assert!(gelu_backward(&x, &dy).max_abs_diff(&want) < 1e-5);

        let y = softmax_rows(&x);
        for r in 0..x.rows() {
            let max = x.row(r).iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let sum: f32 = x.row(r).iter().map(|&v| (v - max).exp()).sum();
            for (&got, &v) in y.row(r).iter().zip(x.row(r)) {
                assert!((got - (v - max).exp() / sum).abs() < 1e-6);
            }
        }
    }

    /// Element `i` of a long call equals the one-element call bit for bit:
    /// the vector body, the remainder loop and the scalar path are one op
    /// chain.
    #[test]
    fn gelu_is_lane_independent() {
        let mut rng = Rng::new(8);
        let pool = Tensor::normal(1, 80, 3.0, &mut rng);
        for offset in 0..8 {
            for len in 0..=67 {
                let slice =
                    |t: &Tensor| Tensor::from_vec(1, len, t.data()[offset..offset + len].to_vec());
                let (x, dy) = (slice(&pool), slice(&pool.map(|v| 0.3 - v)));
                let (y, dx) = (gelu(&x), gelu_backward(&x, &dy));
                for i in 0..len {
                    let one = |t: &Tensor| Tensor::from_vec(1, 1, vec![t.data()[i]]);
                    assert_eq!(y.data()[i].to_bits(), gelu(&one(&x)).data()[0].to_bits());
                    assert_eq!(
                        dx.data()[i].to_bits(),
                        gelu_backward(&one(&x), &one(&dy)).data()[0].to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn causal_rows_carry_exact_zeros_and_no_subnormals() {
        let mut rng = Rng::new(9);
        // A spread wide enough that many exponentials underflow; row 2
        // holds an exponential that is normal until it is normalized.
        let mut scores = Tensor::normal(19, 19, 60.0, &mut rng);
        scores.row_mut(2)[..3].copy_from_slice(&[0.0, 0.0, -174.4]);
        let mut p = scores.clone();
        scale_mask_softmax_rows(&mut p, 0.5, Some(19));
        for i in 0..p.rows() {
            let (seen, masked) = p.row(i).split_at(i + 1);
            assert!(masked.iter().all(|v| v.to_bits() == 0), "row {i} mask");
            assert!(seen.iter().all(|&v| v == 0.0 || v.is_normal()), "row {i}");
            assert!((seen.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            // Same bits as the unmasked op on the visible prefix alone.
            let prefix = Tensor::from_vec(1, i + 1, scores.row(i)[..=i].to_vec());
            assert_eq!(softmax_rows(&prefix.map(|v| v * 0.5)).data(), seen);
        }
        assert_eq!(p.row(2)[..3], [0.5, 0.5, 0.0]);
    }

    /// On a stack of blocks the causal ops equal themselves on each block
    /// alone, bit for bit; the backward reads no masked column of `dy`
    /// (poisoned here) and matches central differences with `scale ≠ 1`.
    #[test]
    fn stacked_causal_blocks_match_single_blocks() {
        let (blocks, block, scale) = (3, 5, 0.7);
        let mut rng = Rng::new(10);
        let scores = Tensor::normal(blocks * block, block, 2.0, &mut rng);
        let w = Tensor::normal(blocks * block, block, 1.0, &mut rng);
        let fwd = |x: &Tensor, causal| {
            let mut p = x.clone();
            scale_mask_softmax_rows(&mut p, scale, causal);
            p
        };
        let y = fwd(&scores, Some(block));
        let mut poisoned = w.clone();
        for r in 0..poisoned.rows() {
            poisoned.row_mut(r)[r % block + 1..].fill(f32::NAN);
        }
        let mut d = poisoned.clone();
        softmax_rows_backward(&y, &mut d, scale, Some(block));
        for r in 0..d.rows() {
            let masked = &d.row(r)[r % block + 1..];
            assert!(masked.iter().all(|v| v.to_bits() == 0), "row {r} mask");
        }
        for b in 0..blocks {
            let one = fwd(&scores.rows_slice(b * block, block), Some(block));
            assert_eq!(one, y.rows_slice(b * block, block));
            let mut d1 = poisoned.rows_slice(b * block, block);
            softmax_rows_backward(&one, &mut d1, scale, Some(block));
            assert_eq!(d1, d.rows_slice(b * block, block));
        }
        let numeric = num_grad(&scores, &w, |x| fwd(x, Some(block)));
        assert!(
            d.max_abs_diff(&numeric) < 2e-3,
            "{}",
            d.max_abs_diff(&numeric)
        );
    }

    #[test]
    #[should_panic(expected = "whole causal blocks")]
    fn causal_block_must_divide_rows() {
        scale_mask_softmax_rows(&mut Tensor::zeros(7, 3), 1.0, Some(3));
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let mut rng = Rng::new(4);
        let x = Tensor::normal(3, 64, 5.0, &mut rng);
        let gamma = vec![1.0; 64];
        let beta = vec![0.0; 64];
        let (y, _) = layernorm(&x, &gamma, &beta);
        for r in 0..3 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 64.0;
            let var: f32 = y
                .row(r)
                .iter()
                .map(|&v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 64.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn layernorm_backward_matches_numeric() {
        let mut rng = Rng::new(5);
        let x = Tensor::normal(2, 8, 1.5, &mut rng);
        let gamma: Vec<f32> = (0..8).map(|i| 0.5 + 0.1 * i as f32).collect();
        let beta: Vec<f32> = (0..8).map(|i| 0.05 * i as f32).collect();
        let w = Tensor::normal(2, 8, 1.0, &mut rng);
        let (_, stash) = layernorm(&x, &gamma, &beta);
        let (mut dx, mut dparams) = (Vec::new(), vec![0.0f32; 16]);
        layernorm_backward(&stash, &gamma, &w, 0..2, &mut dx, &mut dparams);
        let dx = Tensor::from_vec(2, 8, dx);
        let (dgamma, dbeta) = dparams.split_at(8);
        let numeric = num_grad(&x, &w, |t| layernorm(t, &gamma, &beta).0);
        assert!(
            dx.max_abs_diff(&numeric) < 3e-3,
            "{}",
            dx.max_abs_diff(&numeric)
        );
        // dβ = column sums of dy.
        for (c, &db) in dbeta.iter().enumerate() {
            let expect: f32 = (0..2).map(|r| w.get(r, c)).sum();
            assert!((db - expect).abs() < 1e-5);
        }
        // dγ numeric check on one coordinate.
        let eps = 1e-3;
        let mut gp = gamma.clone();
        gp[3] += eps;
        let mut gm = gamma.clone();
        gm[3] -= eps;
        let lp: f32 = layernorm(&x, &gp, &beta).0.hadamard(&w).data().iter().sum();
        let lm: f32 = layernorm(&x, &gm, &beta).0.hadamard(&w).data().iter().sum();
        assert!((dgamma[3] - (lp - lm) / (2.0 * eps)).abs() < 3e-3);
        // Split at a row, the calls append the same dx rows and continue
        // the same chains.
        let (mut split_dx, mut split_params) = (Vec::new(), vec![0.0f32; 16]);
        for rows in [0..1, 1..2] {
            layernorm_backward(&stash, &gamma, &w, rows, &mut split_dx, &mut split_params);
        }
        assert_eq!(split_dx, dx.data());
        assert_eq!(split_params, dparams);
    }

    /// Blocking must not reassociate: each element is the left-to-right
    /// chain over the terms, across a block edge too.
    #[test]
    fn ordered_sums_keep_term_order_across_blocks() {
        let len = SUM_CHUNK + 3;
        let terms = [vec![1e8f32; len], vec![1.0; len], vec![-1e8; len]];
        let refs: Vec<&[f32]> = terms.iter().map(Vec::as_slice).collect();
        let want = (1e8f32 + 1.0) + -1e8;
        let mut out = vec![7.0f32; len];
        sum_ordered(&mut out, &refs);
        assert!(out.iter().all(|v| v.to_bits() == want.to_bits()));
        // In place, the old contents lead the chain: 0 + (-0) is +0, not -0.
        let mut acc = vec![0.0f32; len];
        add_ordered(&mut acc, &[&vec![-0.0f32; len]]);
        assert!(acc.iter().all(|v| v.to_bits() == 0));
        sum_ordered(&mut out, &[]);
        assert_eq!(out[0].to_bits(), want.to_bits(), "no terms, no write");
    }
}
