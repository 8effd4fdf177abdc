//! Softmax over lockstep rows: the explicit bodies under [`crate::ops`]'
//! row loops.
//!
//! # Why explicit
//!
//! One softmax row is latency-bound: its 8-lane max and sum are serial
//! chains (16 dependent 4-cycle operations each at 128 columns, then an
//! 8-step scalar fold and a divide), the autovectoriser's 64-element `exp`
//! body leaves up to 63 scalar calls behind at a causal row's ragged end,
//! and nothing overlaps any of it because the next row cannot start.
//! Widening one row's `exp` alone was measured and is not enough (113 →
//! 88 µs on attention's `[1024, 128]` causal stack). What is: [`R`] rows of
//! **equal live length** — row `i` of `R` stacked causal blocks, or any `R`
//! rows of an unmasked stack — walked in lockstep, so that four independent
//! chains share one trip count and one tail mask, with `exp` evaluated 16
//! lanes at a time (113 → 58 µs; `fig_kernels` keeps both numbers current).
//!
//! The backward's chain is [`crate::tensor::dot`], so its lockstep body is
//! four of those ([`dot_lockstep`]); the elementwise pass after it only
//! streams, which the portable loop already does at the rate of the cache
//! (a 512-bit lockstep version of that pass measured *slower*, 40 against
//! 30 µs on the same stack, and was not kept).
//!
//! # Bit-exactness
//!
//! [`crate::vmath::exp`] stays the definition: `avx512::exp` is its op
//! chain, constant for constant, on 16 lanes, every step the same
//! exactly-rounded IEEE operation (`vmaxps`/`vminps` with the operand order
//! that keeps `f32::clamp`'s NaN, fused multiply-adds, integer arithmetic on
//! the exponent field, ordered compares and selects). The reductions keep
//! the portable loops' order — element `i` in lane `i % 8` while whole
//! groups of eight last, lanes folded ascending, then the `live % 8` tail
//! one element at a time — the 16-lane pass by folding each vector's two
//! halves into an 8-lane accumulator in turn. So no level moves a bit, and
//! the portable loops in `ops.rs` remain both the fallback and the
//! reference (`tests/softmax_levels.rs`).

use super::{simd_level, SimdLevel};

/// Rows a lockstep body walks together.
pub const R: usize = 4;

/// Lanes of the reductions' accumulators (fixed by the portable loops).
const LANES: usize = 8;

fn same_len(lens: [usize; R]) -> usize {
    assert!(lens.iter().all(|&l| l == lens[0]), "lockstep rows differ");
    lens[0]
}

/// `row = softmax(scale · row)` on each of `rows`, which are equally long;
/// what [`crate::ops`]' portable row loop computes, bit for bit. Returns
/// `false`, having written nothing, when the current level has no explicit
/// body.
#[must_use]
pub fn softmax_lockstep(rows: &mut [&mut [f32]; R], scale: f32) -> bool {
    let live = same_len(rows.each_ref().map(|r| r.len()));
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => {
            let rows = rows.each_mut().map(|r| r.as_mut_ptr());
            // SAFETY: `simd_level` never exceeds what the CPU reports, so
            // avx512f is available; each pointer heads a distinct slice of
            // `live` elements, asserted above.
            unsafe { avx512::softmax(rows, live, scale) };
            true
        }
        _ => false,
    }
}

/// [`crate::tensor::dot`] of each of the `R` equally long row pairs, bit
/// for bit; `None` when the current level has no explicit body.
pub fn dot_lockstep(a: &[&[f32]; R], b: &[&[f32]; R]) -> Option<[f32; R]> {
    let live = same_len(a.map(<[f32]>::len));
    assert_eq!(same_len(b.map(<[f32]>::len)), live, "lockstep rows differ");
    match simd_level() {
        SimdLevel::Scalar => None,
        #[cfg(target_arch = "x86_64")]
        _ => {
            let (a, b) = (a.map(<[f32]>::as_ptr), b.map(<[f32]>::as_ptr));
            // SAFETY: every level above scalar has avx2+fma, and
            // `simd_level` never exceeds what the CPU reports; every pointer
            // heads a slice of `live` elements, asserted above.
            Some(unsafe { avx2::dot(a, b, live) })
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => None,
    }
}

/// The last `live % 8` elements of a row: what a reduction folds in one at
/// a time after its lanes.
///
/// # Safety
///
/// `row` must head `live` readable elements that nothing writes while the
/// returned slice lives.
#[cfg(target_arch = "x86_64")]
unsafe fn tail_of<'a>(row: *const f32, live: usize) -> &'a [f32] {
    let tail = live % LANES;
    // SAFETY: the last `tail` of the row's `live` elements.
    unsafe { std::slice::from_raw_parts(row.add(live - tail), tail) }
}

/// The lanes of a reduction's accumulator, in the order they are folded.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx")]
fn lanes_of(acc: std::arch::x86_64::__m256) -> [f32; LANES] {
    let mut lanes = [0.0; LANES];
    // SAFETY: `lanes` is exactly one vector long.
    unsafe { std::arch::x86_64::_mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
    lanes
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{lanes_of, tail_of, LANES, R};
    use std::arch::x86_64::*;

    /// See [`super::dot_lockstep`].
    ///
    /// # Safety
    ///
    /// avx2 and fma must be available and every pointer must head `live`
    /// readable elements.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: [*const f32; R], b: [*const f32; R], live: usize) -> [f32; R] {
        let mut acc = [_mm256_setzero_ps(); R];
        for col in (0..live - live % LANES).step_by(LANES) {
            for r in 0..R {
                // SAFETY: `col + LANES <= live`, inside both rows.
                let (av, bv) = unsafe {
                    (
                        _mm256_loadu_ps(a[r].add(col)),
                        _mm256_loadu_ps(b[r].add(col)),
                    )
                };
                acc[r] = _mm256_fmadd_ps(av, bv, acc[r]);
            }
        }
        let mut out = [0.0; R];
        for r in 0..R {
            // SAFETY: the caller's contract, for both rows.
            let (at, bt) = unsafe { (tail_of(a[r], live), tail_of(b[r], live)) };
            let mut sum = 0.0;
            for lane in lanes_of(acc[r]) {
                sum += lane;
            }
            for (&x, &y) in at.iter().zip(bt) {
                sum = x.mul_add(y, sum);
            }
            out[r] = sum;
        }
        out
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{lanes_of, tail_of, LANES, R};
    use crate::vmath::{EXP_HI, EXP_LO, LN2_HI, LN2_LO, P, ROUND_MAGIC};
    use std::arch::x86_64::*;

    /// Lanes of one vector.
    const W: usize = 16;

    /// [`crate::vmath::exp`] on 16 lanes: the same constants through the
    /// same operations in the same order.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn exp(x: __m512) -> __m512 {
        let (lo, hi) = (_mm512_set1_ps(EXP_LO), _mm512_set1_ps(EXP_HI));
        let magic = _mm512_set1_ps(ROUND_MAGIC);
        // `f32::clamp`: both return their second operand when it is NaN.
        let xc = _mm512_min_ps(hi, _mm512_max_ps(lo, x));
        let t = _mm512_fmadd_ps(xc, _mm512_set1_ps(std::f32::consts::LOG2_E), magic);
        let n = _mm512_sub_ps(t, magic);
        let r = _mm512_fmadd_ps(n, _mm512_set1_ps(-LN2_HI), xc);
        let r = _mm512_fmadd_ps(n, _mm512_set1_ps(-LN2_LO), r);
        let n = _mm512_sub_epi32(_mm512_castps_si512(t), _mm512_castps_si512(magic));
        let mut p = _mm512_set1_ps(P[0]);
        for &c in &P[1..] {
            p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(c));
        }
        let y = _mm512_fmadd_ps(_mm512_mul_ps(r, r), p, r);
        let y = _mm512_add_ps(y, _mm512_set1_ps(1.0));
        let y = _mm512_add_epi32(_mm512_castps_si512(y), _mm512_slli_epi32::<23>(n));
        let y = _mm512_castsi512_ps(y);
        let under = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(x, lo);
        let y = _mm512_mask_blend_ps(under, y, _mm512_setzero_ps());
        let over = _mm512_add_ps(x, _mm512_set1_ps(f32::INFINITY));
        _mm512_mask_blend_ps(_mm512_cmp_ps_mask::<_CMP_LE_OQ>(x, hi), over, y)
    }

    /// `body(r, v, halves)` on every vector `v` of every row `r`, storing
    /// what it returns: rows innermost, and every load of a step before any
    /// of its stores (the rows of a causal group lie whole pages apart, and
    /// a load that follows a store to its page offset waits for it). A
    /// row's ragged end is visited under a mask — dead lanes load as zero
    /// and are not stored — and `halves` says how many of `v`'s 8-lane
    /// halves, from the low one, are wholly live.
    ///
    /// # Safety
    ///
    /// Each pointer must head `live` readable and writable elements.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn pass(
        rows: [*mut f32; R],
        live: usize,
        mut body: impl FnMut(usize, __m512, usize) -> __m512,
    ) {
        let tail = live % W;
        let ends = [
            (0..live - tail, !0, W / LANES),
            (
                live - tail..live,
                ((1u32 << tail) - 1) as __mmask16,
                tail / LANES,
            ),
        ];
        for (cols, mask, halves) in ends {
            for col in cols.step_by(W) {
                let mut v = [_mm512_setzero_ps(); R];
                for r in 0..R {
                    // SAFETY: the mask keeps the access to the live
                    // elements from `col` on.
                    v[r] = unsafe { _mm512_maskz_loadu_ps(mask, rows[r].add(col)) };
                }
                for (r, v) in v.iter_mut().enumerate() {
                    *v = body(r, *v, halves);
                }
                for r in 0..R {
                    // SAFETY: as above.
                    unsafe { _mm512_mask_storeu_ps(rows[r].add(col), mask, v[r]) };
                }
            }
        }
    }

    /// The low and the high eight lanes of `v`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn halves_of(v: __m512) -> [__m256; 2] {
        let high = _mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v));
        [_mm512_castps512_ps256(v), _mm256_castpd_ps(high)]
    }

    /// See [`super::softmax_lockstep`].
    ///
    /// # Safety
    ///
    /// avx512f must be available and each pointer must head a distinct
    /// slice of `live` elements.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn softmax(rows: [*mut f32; R], live: usize, scale: f32) {
        // Scale, and the running maximum: `vmaxps(v, acc)` is `v > acc ? v
        // : acc`, NaN and equal zeros included.
        let scale = _mm512_set1_ps(scale);
        let mut acc = [_mm256_set1_ps(f32::NEG_INFINITY); R];
        // SAFETY: the caller's contract is `pass`'s.
        unsafe {
            pass(rows, live, |r, v, halves| {
                let v = _mm512_mul_ps(v, scale);
                for half in &halves_of(v)[..halves] {
                    acc[r] = _mm256_max_ps(*half, acc[r]);
                }
                v
            });
        }
        let mut max = [_mm512_setzero_ps(); R];
        for r in 0..R {
            // SAFETY: the caller's contract; no pass is writing.
            let tail = unsafe { tail_of(rows[r], live) };
            let mut m = f32::NEG_INFINITY;
            for v in lanes_of(acc[r]).into_iter().chain(tail.iter().copied()) {
                m = if v > m { v } else { m };
            }
            max[r] = _mm512_set1_ps(m);
        }
        // Exponentials, and their sum.
        let mut acc = [_mm256_setzero_ps(); R];
        // SAFETY: as above.
        unsafe {
            pass(rows, live, |r, v, halves| {
                let v = exp(_mm512_sub_ps(v, max[r]));
                for half in &halves_of(v)[..halves] {
                    acc[r] = _mm256_add_ps(acc[r], *half);
                }
                v
            });
        }
        let mut inv = [_mm512_setzero_ps(); R];
        for r in 0..R {
            // SAFETY: as above.
            let tail = unsafe { tail_of(rows[r], live) };
            let mut sum = 0.0;
            for v in lanes_of(acc[r]).into_iter().chain(tail.iter().copied()) {
                sum += v;
            }
            inv[r] = _mm512_set1_ps(1.0 / sum);
        }
        // Normalise; a product below the normal range is flushed to zero.
        let tiny = _mm512_set1_ps(f32::MIN_POSITIVE);
        // SAFETY: as above.
        unsafe {
            pass(rows, live, |r, v, _| {
                let p = _mm512_mul_ps(v, inv[r]);
                let flush = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(p, tiny);
                _mm512_mask_blend_ps(flush, p, _mm512_setzero_ps())
            });
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::vmath;

    /// `avx512::exp` of sixteen values.
    #[target_feature(enable = "avx512f")]
    fn exp16(xs: [f32; 16]) -> [f32; 16] {
        let mut out = [0.0; 16];
        // SAFETY: both arrays are exactly one vector long.
        unsafe {
            use std::arch::x86_64::{_mm512_loadu_ps, _mm512_storeu_ps};
            _mm512_storeu_ps(out.as_mut_ptr(), avx512::exp(_mm512_loadu_ps(xs.as_ptr())));
        }
        out
    }

    /// A level has the bodies this module's docs give it whatever the build
    /// targets: they are reached by runtime detection, so a baseline build
    /// on a wide host must find them too.
    #[test]
    fn bodies_exist_where_the_level_says() {
        let _cap = crate::micro::cap_lock();
        let (mut a, mut b, mut c, mut d) = ([1.0f32; 9], [2.0f32; 9], [3.0f32; 9], [4.0f32; 9]);
        let y = [0.5f32; 9];
        for &level in SimdLevel::supported() {
            crate::micro::set_level_cap(level);
            let dots = dot_lockstep(&[&y; R], &[&a, &b, &c, &d]);
            assert_eq!(
                dots.is_some(),
                level > SimdLevel::Scalar,
                "dot at {}",
                level.name()
            );
            let ran = softmax_lockstep(&mut [&mut a, &mut b, &mut c, &mut d], 1.0);
            assert_eq!(
                ran,
                level == SimdLevel::Avx512,
                "softmax at {}",
                level.name()
            );
        }
        crate::micro::set_level_cap(SimdLevel::Avx512);
    }

    /// The 16-lane `exp` is `vmath::exp` bit for bit: over the accuracy
    /// test's sweep, and on every value with a branch of its own — NaN,
    /// the infinities, both cutoffs and their neighbours, the zeros.
    #[test]
    fn explicit_exp_is_vmath_exp() {
        if SimdLevel::detected() < SimdLevel::Avx512 {
            return;
        }
        let next = |x: f32, ulps: i32| f32::from_bits(x.to_bits().wrapping_add_signed(ulps));
        let special = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
        ]
        .into_iter()
        .chain(
            [vmath::EXP_LO, vmath::EXP_HI]
                .into_iter()
                .flat_map(|x| [-1, 0, 1].map(|u| next(x, u))),
        )
        .chain([
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            1e-40,
            -200.0,
            90.0,
            1.0,
        ]);
        let mut points = vmath::exp_sweep().chain(special).peekable();
        let mut checked = 0usize;
        while points.peek().is_some() {
            // A short last vector is padded with a value already checked.
            let xs: [f32; 16] = std::array::from_fn(|_| points.next().unwrap_or(1.0));
            // SAFETY: avx512f detected above.
            let got = unsafe { exp16(xs) };
            for (x, got) in xs.into_iter().zip(got) {
                let want = vmath::exp(std::hint::black_box(x));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "exp({x:e}): {got:e} vs {want:e}"
                );
            }
            checked += 16;
        }
        assert!(checked >= 1_600_000);
    }
}
