//! Stacked micro-batches: `count` micro-batches of whole sequences, equal in
//! size, run as one pass over their rows stacked in micro order.
//!
//! Every forward and `dX` product is row-independent bit for bit — one
//! `mul_add` chain per output element, and no element reads another row —
//! so it runs once over all the rows. A weight gradient sums over rows, and
//! the sequential reference's bits are one chain per micro-batch, started
//! from `+0.0` over that micro-batch's rows and added into the accumulator in
//! micro order. [`Micros::fold`] keeps exactly that by handing each chain
//! the [`Epilogue`] it lands under — "micro order" is the order of chains,
//! not of buffers — so no chain is written aside and added in a second
//! pass: the packed GEMM takes the add in its tile's store, and the small
//! slices (biases, layer-norm scales, embeddings) go through `small`.

use chimera_tensor::{kernels::Epilogue, ops, pool, Tensor};

/// How a backward pass adds its weight gradients into the caller's
/// accumulator: how many micro-batches its rows stack, and how micro-batch
/// 0's chains meet the accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Micros {
    /// Micro-batches stacked in the pass's rows.
    pub count: usize,
    /// Micro-batch 0's epilogue; every later one's is [`Epilogue::Add`].
    /// `Continue` accumulates in place, as the one-micro module calls
    /// always have; `Write` is for an accumulator nothing has been added to
    /// yet, whatever it holds (bit for bit `Continue` on `+0.0`, because a
    /// chain started at `+0.0` is never `−0.0`); `Add` folds into one that
    /// already holds a sum.
    pub first: Epilogue,
}

impl Micros {
    /// One micro-batch, accumulated in place: what the one-micro module
    /// calls mean.
    pub const ONE: Micros = Micros {
        count: 1,
        first: Epilogue::Continue,
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

    /// Land each micro-batch's gradient in `acc`, in micro order:
    /// `chain(m, ep, acc)` runs micro-batch `m`'s chains under `ep` —
    /// [`Micros::first`] for micro-batch 0, [`Epilogue::Add`] after it.
    pub fn fold(self, acc: &mut [f32], mut chain: impl FnMut(usize, Epilogue, &mut [f32])) {
        for m in 0..self.count {
            let ep = if m == 0 { self.first } else { Epilogue::Add };
            chain(m, ep, acc);
        }
    }
}

/// Run `chain`, which continues the chains of `acc`'s elements from what
/// they hold, under `ep`: in `acc` for `Continue`, in `acc` cleared for
/// `Write`, and in a zeroed scratch of `acc`'s length added into `acc` for
/// `Add`. For the slices no GEMM writes — a bias, layer-norm scales, an
/// embedding — which are small next to the weights.
pub(crate) fn small(ep: Epilogue, acc: &mut [f32], chain: impl FnOnce(&mut [f32])) {
    match ep {
        Epilogue::Continue => chain(acc),
        Epilogue::Write => {
            acc.fill(0.0);
            chain(acc);
        }
        Epilogue::Add => {
            let mut sum = pool::take_zeroed(acc.len());
            chain(&mut sum);
            ops::add_ordered(acc, &[&sum]);
            pool::put(sum);
        }
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
    /// under `Continue` the first chain continues from what the accumulator
    /// held, under `Write` it ignores it.
    #[test]
    fn fold_adds_one_chain_per_micro_in_order() {
        let terms = [0.1f32, 0.2, 0.7];
        let chain = |m: usize, ep: Epilogue, g: &mut [f32]| {
            small(ep, g, |g| {
                for t in terms {
                    g[0] += t * (m + 1) as f32;
                }
            });
        };
        let from_zero = |m: usize| {
            let mut g = [0.0f32];
            chain(m, Epilogue::Continue, &mut g);
            g[0]
        };
        let folded = |first: Epilogue, held: f32| {
            let mut acc = [held];
            Micros { count: 3, first }.fold(&mut acc, chain);
            acc[0].to_bits()
        };
        let sum = |held: f32| (((held + from_zero(0)) + from_zero(1)) + from_zero(2)).to_bits();
        assert_eq!(folded(Epilogue::Continue, 0.0), sum(0.0));
        assert_eq!(folded(Epilogue::Write, f32::NAN), sum(0.0));
        assert_eq!(folded(Epilogue::Add, 5.0), sum(5.0));
        let mut acc = [5.0f32];
        Micros::ONE.fold(&mut acc, chain);
        assert_eq!(acc[0].to_bits(), (((5.0f32 + 0.1) + 0.2) + 0.7).to_bits());
    }

    #[test]
    fn rows_split_evenly() {
        let micros = Micros {
            count: 3,
            first: Epilogue::Write,
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
            first: Epilogue::Add,
        }
        .rows_each(6);
    }
}
