//! `exp` and `tanh` without libm: branch-free, bit-stable, autovectorised.
//!
//! The platform's `expf`/`tanhf` differ in their last bits between glibc,
//! musl and macOS, and are scalar calls the compiler cannot vectorise. The
//! functions here are built from exactly-rounded IEEE-754 operations only —
//! [`f32::mul_add`], add, sub, mul, div, compare-and-select, and integer
//! arithmetic on the exponent field — with no data-dependent branch. An
//! exactly-rounded operation has one possible result, so the same input
//! gives the same bits in a scalar loop, in an 8-lane AVX2 loop, on any
//! thread and on any CPU; and because every lane runs the same chain, LLVM
//! turns the plain slice loops over [`exp`] and [`tanh`] into SIMD code
//! under the workspace's `target-cpu=native` without `unsafe` or
//! intrinsics (`fig_kernels` reports ns/element and gates `gelu` at 8× the
//! libm loop). Intrinsics take a measurement to justify, and softmax over
//! attention's stacked scores had one: 113 µs per `[1024, 128]` stack
//! whether masked or not, bound by each row's chains and ragged end, which
//! no per-element loop can help. So [`exp`] has one explicit twin, 16 lanes
//! wide inside `micro::softmax`'s lockstep rows, held to this scalar
//! definition bit for bit over the accuracy sweep below.
//!
//! Method (Cephes `expf` constants): `x = n·ln2 + r` with `n` rounded to
//! nearest by the add-a-magic-constant trick and `|r| ≤ ln2/2` by a
//! two-constant Cody–Waite subtraction; `eʳ − 1` from a degree-6 Horner
//! polynomial; `2ⁿ` by writing the exponent field.
//!
//! Error bounds, asserted against an `f64` oracle in the tests below:
//! `exp` ≤ 2 ulp on `[EXP_LO, EXP_HI]`, `tanh` ≤ 4 ulp everywhere.

/// Below this `exp` returns exact `+0.0`. `exp(-87.3)` is the last result
/// comfortably above the smallest normal `f32` (`exp(-87.34)`); past it the
/// true value is subnormal, and subnormal arithmetic costs ~100 cycles per
/// operation in every product that later touches it, so the tail is
/// **flushed to zero**, never clamped to a tiny nonzero value.
pub const EXP_LO: f32 = -87.3;

/// Above this `exp` returns `+∞` (`exp(88.72)` is the last finite `f32`).
pub const EXP_HI: f32 = 88.72;

/// `tanh` rounds to exactly ±1 from `|x| = 13·ln2 ≈ 9.01`; clamping there
/// keeps `2ⁿ` far from overflow.
const TANH_SAT: f32 = 10.0;

pub(crate) const LN2_HI: f32 = 355.0 / 512.0; // 9 significant bits: `n * LN2_HI` is exact
pub(crate) const LN2_LO: f32 = -2.121_944_4e-4; // ln 2 − LN2_HI
/// `1.5·2²³`: adding it rounds to the nearest integer (ties to even) and
/// leaves that integer in the low mantissa bits.
pub(crate) const ROUND_MAGIC: f32 = 12_582_912.0;

pub(crate) const P: [f32; 6] = [
    1.987_569_1e-4,
    1.398_2e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    0.5,
];

/// `x = n·ln2 + r`, `|r| ≤ ln2/2`, for `|x| < 2²¹`. NaN gives `r = NaN`
/// and an arbitrary `n`.
#[inline(always)]
fn reduce(x: f32) -> (i32, f32) {
    let t = x.mul_add(std::f32::consts::LOG2_E, ROUND_MAGIC);
    let n = t - ROUND_MAGIC;
    let r = n.mul_add(-LN2_LO, n.mul_add(-LN2_HI, x));
    let n = (t.to_bits() as i32).wrapping_sub(ROUND_MAGIC.to_bits() as i32);
    (n, r)
}

/// `eʳ − 1` for `|r| ≤ ln2/2`, relatively accurate down to `r → 0`.
#[inline(always)]
fn expm1_reduced(r: f32) -> f32 {
    let mut p = P[0];
    for &c in &P[1..] {
        p = p.mul_add(r, c);
    }
    (r * r).mul_add(p, r)
}

/// `eˣ`. `exp(0) == 1`; `x < EXP_LO` gives exact `+0.0`, `x > EXP_HI` gives
/// `+∞`, NaN gives NaN.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    let (n, r) = reduce(x.clamp(EXP_LO, EXP_HI));
    let y = expm1_reduced(r) + 1.0;
    // y ∈ [0.70, 1.42] and y·2ⁿ is a finite normal number on the clamped
    // domain, so adding n to y's exponent field multiplies by 2ⁿ exactly —
    // including n = 128, where 2ⁿ itself is not representable.
    let y = f32::from_bits(y.to_bits().wrapping_add((n as u32) << 23));
    let y = if x < EXP_LO { 0.0 } else { y };
    // `x + ∞` is `+∞` past the top of the range and NaN for NaN.
    if x <= EXP_HI {
        y
    } else {
        x + f32::INFINITY
    }
}

/// `tanh x = (e²ᵃ − 1)/(e²ᵃ + 1)` with `a = |x|`, sign restored at the end,
/// so it is odd bit for bit and `tanh(±0) == ±0`. The numerator comes from
/// `expm1_reduced`, not from `exp(2a) − 1`, so nothing cancels as
/// `x → 0`; from `|x| ≈ 9.01` the quotient rounds to exactly 1.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let a = x.abs();
    let a = if a > TANH_SAT { TANH_SAT } else { a };
    let (n, r) = reduce(2.0 * a);
    let scale = f32::from_bits((n.wrapping_add(127) as u32) << 23); // 2ⁿ, 0 ≤ n ≤ 29
    let em1 = expm1_reduced(r).mul_add(scale, scale - 1.0);
    (em1 / (em1 + 2.0)).copysign(x)
}

/// `points` values evenly spaced over `[lo, hi]`, ends included.
#[cfg(test)]
fn sweep(lo: f32, hi: f32, points: u32) -> impl Iterator<Item = f32> {
    let step = (f64::from(hi) - f64::from(lo)) / f64::from(points - 1);
    (0..points)
        .map(move |i| (f64::from(lo) + step * f64::from(i)).clamp(lo.into(), hi.into()) as f32)
}

/// What the `exp` tests walk: 1.2M points over the domain, 0.4M more where
/// softmax lives.
#[cfg(test)]
pub(crate) fn exp_sweep() -> impl Iterator<Item = f32> {
    sweep(EXP_LO, EXP_HI, 1_200_000).chain(sweep(-20.0, 0.0, 400_000))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in units of `f32` spacing at `want` between `got` and the
    /// exact (`f64`) value.
    fn ulps(got: f32, want: f64) -> f64 {
        let w = want as f32;
        let spacing = f64::from(f32::from_bits(w.abs().to_bits() + 1)) - f64::from(w.abs());
        (f64::from(got) - want).abs() / spacing
    }

    #[test]
    fn exp_within_two_ulp_of_f64_oracle() {
        let mut worst = 0.0f64;
        for x in exp_sweep() {
            let got = exp(x);
            assert!(got.is_normal(), "exp({x}) = {got:e} is not a normal f32");
            worst = worst.max(ulps(got, f64::from(x).exp()));
        }
        assert!(worst <= 2.0, "exp worst error {worst} ulp");
    }

    #[test]
    fn tanh_within_four_ulp_of_f64_oracle() {
        let mut worst = 0.0f64;
        let mut check = |x: f32| {
            let e = ulps(tanh(x), f64::from(x).tanh());
            assert!(e <= 4.0, "tanh({x:e}) off by {e} ulp");
            worst = worst.max(e);
        };
        for x in sweep(-12.0, 12.0, 1_200_000) {
            check(x);
        }
        // Every binade from the smallest subnormal up to 16: tanh x → x as
        // x → 0, which (e−1)/(e+1) computed from exp alone cannot deliver.
        for exponent in 0..=130u32 {
            for m in 0..2048u32 {
                let x = f32::from_bits((exponent << 23) | (m << 12));
                check(x);
                check(-x);
            }
        }
        assert!(worst <= 4.0, "tanh worst error {worst} ulp");
    }

    #[test]
    fn exp_special_values() {
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        assert!(exp(f32::NAN).is_nan());
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(89.0), f32::INFINITY);
        assert!(exp(EXP_HI).is_finite());
        assert!(exp(EXP_LO) >= f32::MIN_POSITIVE);
        // Flush to zero: exact +0.0 below the cutoff, never a subnormal.
        let just_below = f32::from_bits(EXP_LO.to_bits() + 1);
        for x in [
            just_below,
            -88.0,
            -100.0,
            -1e30,
            f32::MIN,
            f32::NEG_INFINITY,
        ] {
            assert_eq!(exp(x).to_bits(), 0, "exp({x:e})");
        }
    }

    #[test]
    fn tanh_special_values() {
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert!(tanh(f32::NAN).is_nan());
        for x in [9.02f32, 10.0, 50.0, 1e30, f32::MAX, f32::INFINITY] {
            assert_eq!(tanh(x).to_bits(), 1.0f32.to_bits(), "tanh({x:e})");
            assert_eq!(tanh(-x).to_bits(), (-1.0f32).to_bits(), "tanh(-{x:e})");
        }
        // Subnormals map to themselves.
        let tiny = f32::from_bits(1);
        assert_eq!(tanh(tiny).to_bits(), tiny.to_bits());
        assert_eq!(tanh(-tiny).to_bits(), (-tiny).to_bits());
    }

    /// A slice loop's vectorised body and its remainder loop must agree
    /// with the one-element call bit for bit at every length and offset.
    #[test]
    fn slice_loops_match_one_element_calls() {
        let mut rng = crate::rng::Rng::new(31);
        let mut pool: Vec<f32> = (0..80).map(|_| rng.uniform_in(-12.0, 12.0)).collect();
        pool[3] = f32::NAN;
        pool[11] = -100.0;
        pool[17] = 0.0;
        pool[29] = 100.0;
        for offset in 0..8 {
            for len in 0..=67 {
                let src = &pool[offset..offset + len];
                let (mut e, mut t) = (src.to_vec(), src.to_vec());
                e.iter_mut().for_each(|v| *v = exp(*v));
                t.iter_mut().for_each(|v| *v = tanh(*v));
                for i in 0..len {
                    let x = std::hint::black_box(src[i]);
                    assert_eq!(
                        e[i].to_bits(),
                        exp(x).to_bits(),
                        "exp len {len} @ {offset}+{i}"
                    );
                    assert_eq!(
                        t[i].to_bits(),
                        tanh(x).to_bits(),
                        "tanh len {len} @ {offset}+{i}"
                    );
                }
            }
        }
    }
}
