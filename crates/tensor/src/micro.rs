//! Register-blocked microkernels, and (in [`softmax`]) softmax over lockstep
//! rows: the only SIMD-explicit (and only `unsafe`-bearing) code in the
//! workspace.
//!
//! # Why explicit intrinsics
//!
//! The packed-panel GEMM in [`crate::kernels`] feeds these kernels
//! contiguous, aligned-enough panels; all that is left is keeping an
//! `MR×NR` accumulator tile in vector registers across the `k` loop. LLVM's
//! autovectorizer refuses to do that from scalar Rust: on this loop shape it
//! picks the register-starved axis, chains dependent FMAs through a single
//! register, and spills the tile (measured ~5 GFLOP/s where the explicit
//! kernel reaches its hardware rate). So the hot tile is written directly
//! against `core::arch::x86_64` FMA intrinsics, with a scalar `f32::mul_add`
//! kernel as both the portable fallback and the reference the SIMD bodies
//! must match.
//!
//! # One tile, three bodies
//!
//! [`gemm_micro`] has one contract — an [`MR`]`×`[`NR`]` = 8×32` tile over
//! one packed `a` panel and one packed `b` panel — and a body per
//! [`SimdLevel`]: `avx512f` holds the tile in 16 zmm registers (two 16-lane
//! vectors per row), `avx2+fma` holds half of it in 16 ymm registers and
//! walks the same 32-wide `b` panel twice (columns 0..16, then 16..32),
//! scalar loops over `mul_add`. One panel width serves every level because
//! the layout is a property of the *packing*, which must not depend on the
//! CPU: a 32-wide panel is what a 512-bit tile needs, and a narrower body
//! loses nothing by striding through it (each half-pass touches one cache
//! line of every two, so its working set is the 16-wide panel's). The level
//! is the best the host reports, detected once ([`SimdLevel::detected`]).
//!
//! # Bit-exactness across levels
//!
//! `vfmadd…ps` at either width and `f32::mul_add` are the *same*
//! exactly-rounded IEEE 754 fused multiply-add, and every body executes the
//! identical per-element operation chain (ascending `k`, one fma per step,
//! started and stored as the [`Epilogue`] says — the store of `Add` is one
//! exactly-rounded add, `cell + chain`, at every width). All levels therefore
//! produce **bit-identical** results — dispatching on runtime CPU features
//! never changes numerics, and neither does `-C target-cpu`. The equivalence
//! proptests pin this by running every level the host has against the naive
//! loops (see [`set_level_cap`]).
//!
//! # Safety
//!
//! `unsafe` is confined to this module and the one it owns, and used for
//! exactly two things: calling `#[target_feature]` functions after a cached
//! `is_x86_feature_detected!` check, and raw-pointer vector load/store
//! (masked, at a row's ragged end) into slices whose bounds are asserted
//! (not merely debug-asserted) on entry.

// The one sanctioned exception to the workspace-wide `deny(unsafe_code)`;
// see the module docs and the root Cargo.toml lint comment.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

pub mod softmax;

/// Microkernel tile height (output rows held in registers).
pub const MR: usize = 8;
/// Microkernel tile width (output columns held in registers): two 16-lane
/// vectors per row at `avx512f`, two passes of two 8-lane vectors at
/// `avx2+fma`.
pub const NR: usize = 32;
/// Lane width `axpy_tile` (and [`crate::tensor::dot`]) are specified in
/// terms of.
pub const LANES: usize = 8;

/// Which body of [`gemm_micro`] (and of the other explicit kernels) runs.
/// Ordered: a host that has a level has every level below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable `f32::mul_add` loops.
    Scalar,
    /// 256-bit FMA: the tile as two half-passes of 16 ymm accumulators.
    Avx2Fma,
    /// 512-bit FMA: the tile in 16 zmm accumulators.
    Avx512,
}

impl SimdLevel {
    const ALL: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512];

    /// The CPU features the level needs, as reports name it.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2Fma => "avx2+fma",
            SimdLevel::Avx512 => "avx512f",
        }
    }

    /// `f32` lanes per vector register at this level.
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Avx2Fma => 8,
            SimdLevel::Avx512 => 16,
        }
    }

    /// The best level this CPU reports (queried once, then cached).
    pub fn detected() -> SimdLevel {
        #[cfg(target_arch = "x86_64")]
        {
            static CACHED: std::sync::OnceLock<SimdLevel> = std::sync::OnceLock::new();
            *CACHED.get_or_init(|| {
                let avx2 = std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma");
                if avx2 && std::arch::is_x86_feature_detected!("avx512f") {
                    SimdLevel::Avx512
                } else if avx2 {
                    SimdLevel::Avx2Fma
                } else {
                    SimdLevel::Scalar
                }
            })
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdLevel::Scalar
        }
    }

    /// Every level this CPU can run, ascending; the last is
    /// [`SimdLevel::detected`].
    pub fn supported() -> &'static [SimdLevel] {
        &Self::ALL[..=Self::detected() as usize]
    }
}

/// Highest level [`simd_level`] may return, as a `SimdLevel` discriminant.
static LEVEL_CAP: AtomicU8 = AtomicU8::new(SimdLevel::Avx512 as u8);

/// Cap the level every explicit body dispatches on (testing only: lets the
/// proptests walk every level the host has). A cap above what the host
/// supports changes nothing; `SimdLevel::Avx512` removes the cap.
pub fn set_level_cap(cap: SimdLevel) {
    LEVEL_CAP.store(cap as u8, Ordering::SeqCst);
}

/// The level the explicit bodies run at: the detected one, unless capped
/// lower.
pub fn simd_level() -> SimdLevel {
    let cap = SimdLevel::ALL[usize::from(LEVEL_CAP.load(Ordering::Relaxed))];
    cap.min(SimdLevel::detected())
}

// --- `out-tile += apanel @ bpanel` (the GEMM microkernel) --------------------

/// How a GEMM tile meets the output cells it covers. All three run one
/// chain per cell — `acc = a.mul_add(b, acc)` over ascending `k` — and
/// differ only in where it starts and where it lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Epilogue {
    /// Start from the value already in the cell and store the chain there.
    Continue,
    /// Start from `+0.0` and store the chain; the cell is not read. Bit for
    /// bit `Continue` on a zeroed cell.
    Write,
    /// Start from `+0.0` and store `cell + chain`, one exactly-rounded add
    /// per cell: bit for bit the chain written aside and added in.
    Add,
}

/// The three [`Epilogue`]s as a const parameter of the bodies.
const CONTINUE: u8 = 0;
const WRITE: u8 = 1;
const ADD: u8 = 2;

/// One `MR×NR` GEMM tile: `rows[r][j0 + c] += Σ_kk apack[kk·MR + r] ·
/// bpack[kk·NR + c]`, `kk` ascending, one fma per step.
///
/// `apack`/`bpack` are packed panels (layouts documented in
/// [`crate::kernels`]); `rows` must hold exactly [`MR`] row slices each
/// covering at least `j0 + NR` elements.
pub fn gemm_micro(apack: &[f32], bpack: &[f32], kcb: usize, rows: &mut [&mut [f32]], j0: usize) {
    tile::<CONTINUE>(apack, bpack, kcb, rows, j0);
}

/// [`gemm_micro`] under any [`Epilogue`]: the same chain, started and
/// stored as `ep` says.
pub fn gemm_micro_with(
    ep: Epilogue,
    apack: &[f32],
    bpack: &[f32],
    kcb: usize,
    rows: &mut [&mut [f32]],
    j0: usize,
) {
    match ep {
        Epilogue::Continue => tile::<CONTINUE>(apack, bpack, kcb, rows, j0),
        Epilogue::Write => tile::<WRITE>(apack, bpack, kcb, rows, j0),
        Epilogue::Add => tile::<ADD>(apack, bpack, kcb, rows, j0),
    }
}

/// The tile at the current level under the epilogue `EP`.
fn tile<const EP: u8>(
    apack: &[f32],
    bpack: &[f32],
    kcb: usize,
    rows: &mut [&mut [f32]],
    j0: usize,
) {
    assert_eq!(rows.len(), MR);
    assert!(apack.len() >= kcb * MR && bpack.len() >= kcb * NR);
    for row in rows.iter() {
        assert!(row.len() >= j0 + NR);
    }
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level` never exceeds what the CPU reports, so
        // avx512f is available; slice bounds asserted above match every
        // pointer access inside.
        SimdLevel::Avx512 => unsafe { gemm_micro_avx512::<EP>(apack, bpack, kcb, rows, j0) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => {
            for half in [0, NR / 2] {
                // SAFETY: avx2+fma available as above; `half + NR/2 <= NR`,
                // so the asserted bounds cover both half-passes.
                unsafe { gemm_micro_avx2::<EP>(apack, bpack, kcb, rows, j0, half) };
            }
        }
        _ => gemm_micro_scalar::<EP>(apack, bpack, kcb, rows, j0),
    }
}

/// Scalar reference tile. Same op chain as the FMA tiles: `mul_add` is the
/// same exactly-rounded operation as `vfmadd…ps`, so results are
/// bit-identical.
fn gemm_micro_scalar<const EP: u8>(
    apack: &[f32],
    bpack: &[f32],
    kcb: usize,
    rows: &mut [&mut [f32]],
    j0: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if EP == CONTINUE {
        for (r, row) in rows.iter().enumerate() {
            acc[r].copy_from_slice(&row[j0..j0 + NR]);
        }
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
        let cells = &mut row[j0..j0 + NR];
        if EP == ADD {
            for (o, &v) in cells.iter_mut().zip(&acc[r]) {
                *o += v;
            }
        } else {
            cells.copy_from_slice(&acc[r]);
        }
    }
}

/// 512-bit tile: 16 accumulator vectors (8 rows × two 16-lane columns), two
/// panel loads and eight broadcasts per `k` step, each broadcast feeding two
/// fmas.
///
/// # Safety
///
/// Caller must guarantee avx512f is available and the bounds asserted in
/// [`tile`] hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_micro_avx512<const EP: u8>(
    apack: &[f32],
    bpack: &[f32],
    kcb: usize,
    rows: &mut [&mut [f32]],
    j0: usize,
) {
    use std::arch::x86_64::*;
    const W: usize = 16;
    unsafe {
        let mut acc: [[__m512; 2]; MR] = [[_mm512_setzero_ps(); 2]; MR];
        if EP == CONTINUE {
            for (r, row) in rows.iter().enumerate() {
                let p = row.as_ptr().add(j0);
                acc[r][0] = _mm512_loadu_ps(p);
                acc[r][1] = _mm512_loadu_ps(p.add(W));
            }
        }
        let mut ap = apack.as_ptr();
        let mut bp = bpack.as_ptr();
        for _ in 0..kcb {
            let b0 = _mm512_loadu_ps(bp);
            let b1 = _mm512_loadu_ps(bp.add(W));
            for (r, accr) in acc.iter_mut().enumerate() {
                let a = _mm512_set1_ps(*ap.add(r));
                accr[0] = _mm512_fmadd_ps(a, b0, accr[0]);
                accr[1] = _mm512_fmadd_ps(a, b1, accr[1]);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        for (r, row) in rows.iter_mut().enumerate() {
            let p = row.as_mut_ptr().add(j0);
            let [lo, hi] = acc[r];
            let (lo, hi) = match EP {
                ADD => (
                    _mm512_add_ps(_mm512_loadu_ps(p), lo),
                    _mm512_add_ps(_mm512_loadu_ps(p.add(W)), hi),
                ),
                _ => (lo, hi),
            };
            _mm512_storeu_ps(p, lo);
            _mm512_storeu_ps(p.add(W), hi);
        }
    }
}

/// 256-bit half-tile: columns `half..half + 16` of the tile in 16
/// accumulator vectors (8 rows × two 8-lane columns), striding through the
/// 32-wide `b` panel; one broadcast + two fmas per packed `a` element.
///
/// # Safety
///
/// Caller must guarantee avx2+fma are available, `half + 16 <= NR`, and the
/// bounds asserted in [`tile`] hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_micro_avx2<const EP: u8>(
    apack: &[f32],
    bpack: &[f32],
    kcb: usize,
    rows: &mut [&mut [f32]],
    j0: usize,
    half: usize,
) {
    use std::arch::x86_64::*;
    const W: usize = 8;
    unsafe {
        let mut acc: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
        if EP == CONTINUE {
            for (r, row) in rows.iter().enumerate() {
                let p = row.as_ptr().add(j0 + half);
                acc[r][0] = _mm256_loadu_ps(p);
                acc[r][1] = _mm256_loadu_ps(p.add(W));
            }
        }
        for kk in 0..kcb {
            // Formed per step: `half` past the last step's row would lie
            // outside `bpack`.
            let ap = apack.as_ptr().add(kk * MR);
            let bp = bpack.as_ptr().add(kk * NR + half);
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(W));
            for (r, accr) in acc.iter_mut().enumerate() {
                let a = _mm256_broadcast_ss(&*ap.add(r));
                accr[0] = _mm256_fmadd_ps(a, b0, accr[0]);
                accr[1] = _mm256_fmadd_ps(a, b1, accr[1]);
            }
        }
        for (r, row) in rows.iter_mut().enumerate() {
            let p = row.as_mut_ptr().add(j0 + half);
            let [lo, hi] = acc[r];
            let (lo, hi) = match EP {
                ADD => (
                    _mm256_add_ps(_mm256_loadu_ps(p), lo),
                    _mm256_add_ps(_mm256_loadu_ps(p.add(W)), hi),
                ),
                _ => (lo, hi),
            };
            _mm256_storeu_ps(p, lo);
            _mm256_storeu_ps(p.add(W), hi);
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

/// Held by a unit test while it moves the level cap, so that the level it
/// set is the level its calls run at.
#[cfg(test)]
fn cap_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as u32).wrapping_mul(2654435761).wrapping_add(salt) % 997) as f32 / 331.0)
            .collect()
    }

    /// Every level the host has produces the scalar tile's bits under every
    /// epilogue, on a non-zero output at a column offset (on a host without
    /// FMA the list is `[scalar]` and the test is trivially green).
    #[test]
    fn gemm_micro_levels_match_scalar() {
        let _cap = cap_lock();
        for ep in [Epilogue::Continue, Epilogue::Write, Epilogue::Add] {
            for kcb in [0usize, 1, 5, 8, 64] {
                let apack = seq(kcb * MR, 1);
                let bpack = seq(kcb * NR, 2);
                let run = |level: SimdLevel| {
                    set_level_cap(level);
                    let mut out: Vec<Vec<f32>> =
                        (0..MR).map(|r| seq(NR + 3, 7 + r as u32)).collect();
                    let mut rows: Vec<&mut [f32]> = out.iter_mut().map(|r| &mut r[..]).collect();
                    gemm_micro_with(ep, &apack, &bpack, kcb, &mut rows, 3);
                    out
                };
                let scalar = run(SimdLevel::Scalar);
                for &level in SimdLevel::supported() {
                    let got = run(level);
                    for (a, b) in got.iter().flatten().zip(scalar.iter().flatten()) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{ep:?} kcb={kcb} {}",
                            level.name()
                        );
                    }
                }
                set_level_cap(SimdLevel::Avx512);
            }
        }
    }

    #[test]
    fn supported_levels_ascend_to_the_detected_one() {
        let supported = SimdLevel::supported();
        assert_eq!(supported[0], SimdLevel::Scalar);
        assert_eq!(*supported.last().unwrap(), SimdLevel::detected());
        assert!(supported
            .windows(2)
            .all(|w| w[0] < w[1] && w[0].lanes() < w[1].lanes()));
    }
}
