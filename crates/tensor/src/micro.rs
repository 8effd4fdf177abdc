//! Register-blocked microkernels: the only SIMD-explicit (and only
//! `unsafe`-bearing) code in the workspace.
//!
//! # Why explicit intrinsics
//!
//! The packed-panel GEMM in [`crate::kernels`] feeds these kernels
//! contiguous, aligned-enough panels; all that is left is keeping an
//! `MR×NR` accumulator tile in vector registers across the `k` loop. LLVM's
//! autovectorizer refuses to do that from scalar Rust: on this loop shape it
//! picks the register-starved axis, chains dependent FMAs through a single
//! register, and spills the tile (measured ~5 GFLOP/s where the explicit
//! kernel reaches ~100). So the hot tile is written directly against
//! `core::arch::x86_64` FMA intrinsics, with a scalar `f32::mul_add` kernel
//! as both the portable fallback and the reference the SIMD path must match.
//!
//! # Bit-exactness across paths
//!
//! `vfmaddps` and `f32::mul_add` are the *same* exactly-rounded IEEE 754
//! fused multiply-add, and both kernels execute the identical per-element
//! operation chain (ascending `k`, one fma per step). The SIMD and scalar
//! kernels therefore produce **bit-identical** results — dispatching on
//! runtime CPU features never changes numerics, and neither does
//! `-C target-cpu`. The equivalence proptests pin this by running both
//! paths explicitly (see [`set_force_scalar`]).
//!
//! # Safety
//!
//! `unsafe` is confined to this module and used for exactly two things:
//! calling `#[target_feature]` functions after a cached
//! `is_x86_feature_detected!` check, and raw-pointer vector load/store into
//! slices whose bounds are asserted (not merely debug-asserted) on entry.

// The one sanctioned exception to the workspace-wide `deny(unsafe_code)`;
// see the module docs and the root Cargo.toml lint comment.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

/// Microkernel tile height (output rows held in registers).
pub const MR: usize = 8;
/// Microkernel tile width (output columns held in registers); two 8-lane
/// vectors per row.
pub const NR: usize = 16;
/// SIMD lane width the kernels (and [`crate::tensor::dot`]) are specified
/// in terms of.
pub const LANES: usize = 8;
/// Dot-tile side: the `a @ bᵀ` kernel computes `DT×DT` dot products at once.
pub const DT: usize = 4;

/// When set, [`gemm_micro`] and [`dot_tile`] take the scalar path even on
/// FMA-capable hosts. Test hook for proving SIMD/scalar bit-identity.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Force the scalar microkernels (testing only; see `FORCE_SCALAR`).
pub fn set_force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::SeqCst);
}

/// Whether the explicit-FMA microkernels are compiled in *and* the CPU
/// reports the features at runtime (cached after first query).
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static CACHED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *CACHED.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn use_simd() -> bool {
    simd_available() && !FORCE_SCALAR.load(Ordering::Relaxed)
}

// --- `out-tile += apanel @ bpanel` (the GEMM microkernel) --------------------

/// One `MR×NR` GEMM tile: `rows[r][j0 + c] += Σ_kk apack[kk·MR + r] ·
/// bpack[kk·NR + c]`, `kk` ascending, one fma per step.
///
/// `apack`/`bpack` are packed panels (layouts documented in
/// [`crate::kernels`]); `rows` must hold exactly [`MR`] row slices each
/// covering at least `j0 + NR` elements.
pub fn gemm_micro(apack: &[f32], bpack: &[f32], kcb: usize, rows: &mut [&mut [f32]], j0: usize) {
    assert_eq!(rows.len(), MR);
    assert!(apack.len() >= kcb * MR && bpack.len() >= kcb * NR);
    for row in rows.iter() {
        assert!(row.len() >= j0 + NR);
    }
    #[cfg(target_arch = "x86_64")]
    if use_simd() {
        // SAFETY: avx2+fma verified by `use_simd`; slice bounds asserted
        // above match every pointer access inside.
        unsafe { gemm_micro_fma(apack, bpack, kcb, rows, j0) };
        return;
    }
    gemm_micro_scalar(apack, bpack, kcb, rows, j0);
}

/// Scalar reference tile. Same op chain as the FMA tile: `mul_add` is the
/// same exactly-rounded operation as `vfmaddps`, so results are
/// bit-identical.
fn gemm_micro_scalar(apack: &[f32], bpack: &[f32], kcb: usize, rows: &mut [&mut [f32]], j0: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, row) in rows.iter().enumerate() {
        acc[r].copy_from_slice(&row[j0..j0 + NR]);
    }
    for kk in 0..kcb {
        let av = &apack[kk * MR..kk * MR + MR];
        let bv = &bpack[kk * NR..kk * NR + NR];
        for r in 0..MR {
            let a = av[r];
            for c in 0..NR {
                acc[r][c] = a.mul_add(bv[c], acc[r][c]);
            }
        }
    }
    for (r, row) in rows.iter_mut().enumerate() {
        row[j0..j0 + NR].copy_from_slice(&acc[r]);
    }
}

/// Explicit-FMA tile: 16 accumulator vectors (8×16 tile as 2×8-lane
/// columns), one broadcast + two fmas per packed `a` element.
///
/// # Safety
///
/// Caller must guarantee avx2+fma are available and the bounds asserted in
/// [`gemm_micro`] hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_micro_fma(
    apack: &[f32],
    bpack: &[f32],
    kcb: usize,
    rows: &mut [&mut [f32]],
    j0: usize,
) {
    use std::arch::x86_64::*;
    unsafe {
        let mut acc: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
        for (r, row) in rows.iter().enumerate() {
            let p = row.as_ptr().add(j0);
            acc[r][0] = _mm256_loadu_ps(p);
            acc[r][1] = _mm256_loadu_ps(p.add(LANES));
        }
        let mut ap = apack.as_ptr();
        let mut bp = bpack.as_ptr();
        for _ in 0..kcb {
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(LANES));
            for (r, accr) in acc.iter_mut().enumerate() {
                let a = _mm256_broadcast_ss(&*ap.add(r));
                accr[0] = _mm256_fmadd_ps(a, b0, accr[0]);
                accr[1] = _mm256_fmadd_ps(a, b1, accr[1]);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        for (r, row) in rows.iter_mut().enumerate() {
            let p = row.as_mut_ptr().add(j0);
            _mm256_storeu_ps(p, acc[r][0]);
            _mm256_storeu_ps(p.add(LANES), acc[r][1]);
        }
    }
}

// --- `tile = a-block @ bpanel` with `a` read in place -------------------------

/// One `MR×LANES` tile of a small product whose `a` operand is not packed:
/// `tile[r][c] = Σ_t a(r, t) · bpanel[t·LANES + c]` over every step `t` of
/// `bpanel` (`bpanel.len() / LANES` of them), ascending, one fma per step
/// from `+0.0` — the op chain of [`gemm_micro`] on a zeroed tile.
///
/// `a` starts at the tile's element `(0, 0)`; `a(r, t)` lies at
/// `a[r·ld + t]`, or at `a[t·ld + r]` when `trans`. Only the first `h ≤ MR`
/// rows exist: the others repeat row `h − 1` and are for the caller to
/// discard.
///
/// Safe code on purpose: the tile is a local array of `MR` rows of one
/// 8-lane vector each, which the autovectorizer keeps in registers (it does
/// not for 16-column rows, hence [`gemm_micro`]), and `f32::mul_add`
/// compiles to the `vfmadd` it names, so there is no second path to keep
/// bit-identical. A function of its own on purpose too: inlined into the
/// caller's loop nest its row pointers are spilled and reloaded every step.
#[inline(never)]
pub fn axpy_tile(
    a: &[f32],
    ld: usize,
    trans: bool,
    h: usize,
    bpanel: &[f32],
) -> [[f32; LANES]; MR] {
    #[inline(always)]
    fn step(acc: &mut [[f32; LANES]; MR], av: [f32; MR], bv: &[f32]) {
        for (accr, a) in acc.iter_mut().zip(av) {
            for (o, &b) in accr.iter_mut().zip(bv) {
                *o = a.mul_add(b, *o);
            }
        }
    }
    assert!((1..=MR).contains(&h));
    let steps = bpanel.chunks_exact(LANES);
    let mut acc = [[0.0f32; LANES]; MR];
    if steps.len() == 0 {
        // Nothing to read, and `a` may be empty.
    } else if !trans {
        let n = steps.len();
        let rows: [&[f32]; MR] = std::array::from_fn(|r| &a[r.min(h - 1) * ld..][..n]);
        for (t, bv) in steps.enumerate() {
            step(&mut acc, std::array::from_fn(|r| rows[r][t]), bv);
        }
    } else if h == MR {
        for (t, bv) in steps.enumerate() {
            let av = a[t * ld..].first_chunk().expect("a block covers MR rows");
            step(&mut acc, *av, bv);
        }
    } else {
        for (t, bv) in steps.enumerate() {
            step(
                &mut acc,
                std::array::from_fn(|r| a[t * ld + r.min(h - 1)]),
                bv,
            );
        }
    }
    acc
}

// --- `out-tile += a-rows @ b-rowsᵀ` (the dot-product tile) -------------------

/// `DT×DT` dot products at once: `out[i][j] += dot(a_rows[i], b_rows[j])`,
/// where each dot is **bit-identical** to [`crate::tensor::dot`] (8
/// independent fma lanes over ascending `k`, lanes combined in ascending
/// order, then the scalar fma tail).
///
/// All eight slices must share one length.
pub fn dot_tile(a_rows: &[&[f32]; DT], b_rows: &[&[f32]; DT], out: &mut [[f32; DT]; DT]) {
    let k = a_rows[0].len();
    for s in a_rows.iter().chain(b_rows.iter()) {
        assert_eq!(s.len(), k);
    }
    #[cfg(target_arch = "x86_64")]
    if use_simd() {
        // SAFETY: avx2+fma verified; all slices asserted to length `k`.
        unsafe { dot_tile_fma(a_rows, b_rows, out, k) };
        return;
    }
    for (i, arow) in a_rows.iter().enumerate() {
        for (j, brow) in b_rows.iter().enumerate() {
            out[i][j] += crate::tensor::dot(arow, brow);
        }
    }
}

/// Explicit-FMA dot tile: 16 accumulator vectors, 8 streaming loads per
/// 8-deep `k` chunk, lane reduction replicated from
/// [`crate::tensor::dot`]'s fixed order.
///
/// # Safety
///
/// Caller must guarantee avx2+fma and that all slices have length `k`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_tile_fma(
    a_rows: &[&[f32]; DT],
    b_rows: &[&[f32]; DT],
    out: &mut [[f32; DT]; DT],
    k: usize,
) {
    use std::arch::x86_64::*;
    unsafe {
        let chunks = k / LANES;
        let mut acc: [[__m256; DT]; DT] = [[_mm256_setzero_ps(); DT]; DT];
        for c in 0..chunks {
            let mut av = [_mm256_setzero_ps(); DT];
            let mut bv = [_mm256_setzero_ps(); DT];
            for i in 0..DT {
                av[i] = _mm256_loadu_ps(a_rows[i].as_ptr().add(c * LANES));
                bv[i] = _mm256_loadu_ps(b_rows[i].as_ptr().add(c * LANES));
            }
            for i in 0..DT {
                for j in 0..DT {
                    acc[i][j] = _mm256_fmadd_ps(av[i], bv[j], acc[i][j]);
                }
            }
        }
        for i in 0..DT {
            for j in 0..DT {
                // Fixed reduction order of `dot`: lanes 0..8 ascending...
                let mut lanes = [0.0f32; LANES];
                _mm256_storeu_ps(lanes.as_mut_ptr(), acc[i][j]);
                let mut sum = 0.0f32;
                for &lane in &lanes {
                    sum += lane;
                }
                // ...then the scalar fma tail.
                for p in chunks * LANES..k {
                    sum = a_rows[i][p].mul_add(b_rows[j][p], sum);
                }
                out[i][j] += sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::dot;

    fn seq(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as u32).wrapping_mul(2654435761).wrapping_add(salt) % 997) as f32 / 331.0)
            .collect()
    }

    /// SIMD and scalar GEMM tiles agree bit-for-bit (on non-FMA hosts both
    /// calls take the scalar path and the test is trivially green).
    #[test]
    fn gemm_micro_simd_matches_scalar() {
        for kcb in [0usize, 1, 5, 8, 64] {
            let apack = seq(kcb * MR, 1);
            let bpack = seq(kcb * NR, 2);
            let run = |scalar: bool| {
                set_force_scalar(scalar);
                let mut out: Vec<Vec<f32>> = (0..MR).map(|r| seq(NR + 3, 7 + r as u32)).collect();
                let mut rows: Vec<&mut [f32]> = out.iter_mut().map(|r| &mut r[..]).collect();
                gemm_micro(&apack, &bpack, kcb, &mut rows, 3);
                out
            };
            let simd = run(false);
            let scalar = run(true);
            set_force_scalar(false);
            for (a, b) in simd.iter().flatten().zip(scalar.iter().flatten()) {
                assert_eq!(a.to_bits(), b.to_bits(), "kcb={kcb}");
            }
        }
    }

    /// The dot tile reproduces `dot` exactly, SIMD or not, including tails.
    #[test]
    fn dot_tile_matches_dot_bitexact() {
        for k in [0usize, 1, 7, 8, 9, 64, 67] {
            let a: Vec<Vec<f32>> = (0..DT).map(|i| seq(k, i as u32)).collect();
            let b: Vec<Vec<f32>> = (0..DT).map(|i| seq(k, 40 + i as u32)).collect();
            let ar: [&[f32]; DT] = std::array::from_fn(|i| &a[i][..]);
            let br: [&[f32]; DT] = std::array::from_fn(|i| &b[i][..]);
            for scalar in [false, true] {
                set_force_scalar(scalar);
                let mut out = [[1.5f32; DT]; DT];
                dot_tile(&ar, &br, &mut out);
                for i in 0..DT {
                    for j in 0..DT {
                        let want = 1.5f32 + dot(&a[i], &b[j]);
                        assert_eq!(
                            out[i][j].to_bits(),
                            want.to_bits(),
                            "k={k} scalar={scalar} ({i},{j})"
                        );
                    }
                }
            }
            set_force_scalar(false);
        }
    }
}
