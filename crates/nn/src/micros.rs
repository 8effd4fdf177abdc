//! Stacked micro-batches: `count` micro-batches of whole sequences, equal in
//! size, run as one pass over their rows stacked in micro order.
//!
//! Every forward and `dX` product is row-independent bit for bit — one
//! `mul_add` chain per output element, and no element reads another row —
//! so it runs once over all the rows. A weight gradient sums over rows, and
//! the sequential reference's bits are one chain per micro-batch, started
//! from `+0.0` over that micro-batch's rows and added into the accumulator in
//! micro order. [`Micros::fold`] keeps exactly that: "micro order" is the
//! order of chains, not of buffers.

use chimera_tensor::{ops, pool, Tensor};

/// How a backward pass adds its weight gradients into the caller's
/// accumulator: how many micro-batches its rows stack, and whether the first
/// one's chains may run in the accumulator itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Micros {
    /// Micro-batches stacked in the pass's rows.
    pub count: usize,
    /// Whether micro-batch 0 accumulates in place. On an accumulator of
    /// `+0.0` that is bit for bit the fold, because a chain started at
    /// `+0.0` is never `−0.0` (so `0.0 + g` is `g`); the one-micro calls
    /// always do it, accumulating into the caller's buffer as they always
    /// have.
    pub first_in_place: bool,
}

impl Micros {
    /// One micro-batch, accumulated in place: what the one-micro module
    /// calls mean.
    pub const ONE: Micros = Micros {
        count: 1,
        first_in_place: true,
    };

    /// Rows of one micro-batch in a pass over `rows` stacked rows.
    pub fn rows_each(self, rows: usize) -> usize {
        rows_each(rows, self.count)
    }

    /// Micro-batch `m`'s rows of `t`, a tensor over the pass's stacked rows.
    pub fn rows_of(self, t: &Tensor, m: usize) -> &[f32] {
        let len = self.rows_each(t.rows()) * t.cols();
        &t.data()[m * len..(m + 1) * len]
    }

    /// Add each micro-batch's gradient into `acc`, in micro order.
    /// `chain(m, g)` accumulates micro-batch `m`'s gradient into `g`, which
    /// is `acc` itself for micro-batch 0 when [`Micros::first_in_place`],
    /// and otherwise a scratch of `acc`'s size holding `+0.0`, added into
    /// `acc` afterwards and cleared for the next one.
    pub fn fold(self, acc: &mut [f32], mut chain: impl FnMut(usize, &mut [f32])) {
        let mut rest = 0..self.count;
        if self.first_in_place && rest.next().is_some() {
            chain(0, acc);
        }
        if rest.is_empty() {
            return;
        }
        let mut scratch = pool::take_zeroed(acc.len());
        for m in rest {
            chain(m, &mut scratch);
            ops::add_ordered(acc, &[&scratch]);
            scratch.fill(0.0);
        }
        pool::put(scratch);
    }
}

/// Rows of one of `count` equal micro-batches stacked in `rows` rows.
pub(crate) fn rows_each(rows: usize, count: usize) -> usize {
    assert!(
        count > 0 && rows.is_multiple_of(count),
        "{rows} rows do not stack {count} equal micro-batches"
    );
    rows / count
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fold is each micro-batch's chain from `+0.0`, added in order;
    /// in place, the first chain continues from what the accumulator held.
    #[test]
    fn fold_adds_one_chain_per_micro_in_order() {
        let terms = [0.1f32, 0.2, 0.7];
        let chain = |m: usize, g: &mut [f32]| {
            for t in terms {
                g[0] += t * (m + 1) as f32;
            }
        };
        let from_zero = |m: usize| {
            let mut g = [0.0f32];
            chain(m, &mut g);
            g[0]
        };
        for first_in_place in [false, true] {
            let mut acc = [0.0f32];
            let micros = Micros {
                count: 3,
                first_in_place,
            };
            micros.fold(&mut acc, chain);
            let want = ((0.0 + from_zero(0)) + from_zero(1)) + from_zero(2);
            assert_eq!(acc[0].to_bits(), want.to_bits());
        }
        let mut acc = [5.0f32];
        Micros::ONE.fold(&mut acc, chain);
        assert_eq!(acc[0].to_bits(), (((5.0f32 + 0.1) + 0.2) + 0.7).to_bits());
    }

    #[test]
    fn rows_split_evenly() {
        let micros = Micros {
            count: 3,
            first_in_place: true,
        };
        let t = Tensor::from_vec(6, 2, (0..12).map(|v| v as f32).collect());
        assert_eq!(micros.rows_each(6), 2);
        assert_eq!(micros.rows_of(&t, 1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "equal micro-batches")]
    fn ragged_stack_rejected() {
        Micros {
            count: 4,
            first_in_place: false,
        }
        .rows_each(6);
    }
}
