//! Packed-panel, register-blocked, multi-threaded matmul kernels with a
//! **fixed reduction order**.
//!
//! # Determinism contract
//!
//! Every kernel here produces results that are **bit-identical at any thread
//! count, any tile size, and on any CPU** (with or without FMA hardware).
//! The runtime's replica verification and checkpoint-replay tests compare
//! parameters with `==`, so "close enough" floating point is not
//! acceptable. What guarantees it is that every arithmetic step between
//! the initial parameters and the updated ones is an exactly-rounded
//! IEEE-754 operation (`mul_add`, `+ − × ÷`, `sqrt`, compare-and-select)
//! applied in an order this crate's code fixes — such an operation has one
//! possible result. That covers the matmuls below and, since
//! [`crate::vmath`] replaced libm's `expf`/`tanhf` (whose last bits differ
//! between C libraries), softmax, GELU and layernorm in [`crate::ops`] as
//! well; clippy's `disallowed-methods` (`clippy.toml` in `chimera-tensor`
//! and `chimera-nn`) rejects libm calls in their non-test code so that it
//! stays covered, and the two that remain (Box–Muller at initialization,
//! the `ln` of the reported loss) carry an `#[allow]` with the reason. For
//! the matmuls the contract is enforced structurally:
//!
//! * Work is partitioned across threads by **output element**: the 2D
//!   (row-tile × column-tile) grid gives every output element to exactly one
//!   thread, so its accumulation order never depends on the thread count or
//!   the grid shape.
//! * Packing copies operand panels but never reassociates arithmetic. All
//!   three products ([`Product`]) build every output element as one chain
//!   of exactly-rounded [`f32::mul_add`] steps over ascending `k` — the op
//!   chain of the naive untiled loop, the same for all three, so `dX` and
//!   `dW` are one engine's work — and an [`Epilogue`] says where the chain
//!   starts and lands: `Continue` starts from the value already in `out`
//!   ([`matmul_into`] and its two siblings always do), `Write` starts from
//!   `+0.0` and never reads `out` (bit for bit `Continue` on a zeroed
//!   output, since such a chain is never `−0.0`), and `Add` starts from
//!   `+0.0` and adds the chain to `out` with one exactly-rounded add per
//!   element (bit for bit the chain written aside and folded in by
//!   [`ops::add_ordered`]). Only the first `KC` slab takes the epilogue,
//!   later slabs continue the chain, so `Add` deeper than one slab (or with
//!   no slab at all, `k = 0`) writes into pool scratch and adds that. Panel
//!   padding is zero-filled and only ever feeds accumulator lanes whose
//!   results are discarded.
//! * The strided, batched small-product kernel ([`gemm_batch`], attention's
//!   six products) **writes** each output element as that same ascending
//!   `mul_add` chain started at `+0.0`, for every combination of transposes
//!   — including `q·kᵀ` and `dc·vᵀ`. One thread and one owner per element,
//!   so there is no grid; of its two tiles the 8-lane one is safe code
//!   whose `mul_add` *is* the fused instruction, and the wide one is the
//!   microkernel under `Write` (next bullet), so which of them a shape
//!   and a level select changes no bit. Its [`Triangle`] hints skip work without
//!   touching the chain of anything that is read: `LowerOut` leaves whole
//!   tiles above the diagonal uncomputed (unspecified, for a masked softmax
//!   that never reads them), and `LowerA` drops `k` steps whose multiplier
//!   is a stored `±0.0` — exact, because the dropped step adds `±0.0` to an
//!   accumulator that started at `+0.0`, and round-to-nearest produces
//!   `−0.0` from a sum only when both addends are `−0.0`, so that
//!   accumulator is never `−0.0` and either zero leaves it as it was.
//! * The 512-bit, 256-bit and scalar bodies of the microkernel execute the
//!   same op chain with the same exactly-rounded fused multiply-add (see
//!   `crate::micro`), so runtime CPU-feature dispatch never changes results
//!   — nor does it for softmax, whose lockstep bodies keep the portable
//!   row's operations and reduction order (`crate::micro::softmax`).
//!
//! The [`naive`] module keeps the untiled single-threaded reference loops;
//! property tests assert bit-equality against them at every microkernel
//! level the host supports ([`SimdLevel::supported`]) and thread counts
//! {1, 2, 4, 8} on adversarial shapes, and for [`gemm_batch`] over random
//! strides, offsets, transposes and batches with and without the hints
//! (see `tests/kernel_equivalence.rs` and `tests/packed_panel.rs`).
//!
//! # The packed-panel engine (GotoBLAS structure)
//!
//! Every product, whatever its size and whichever operand is transposed,
//! runs the classic five-loop nest:
//!
//! ```text
//! for jc in steps of NC:            // column panel of the output
//!   for k0 in steps of KC:          // slab of the shared dimension
//!     pack op(B)[k0.., jc..] → bpack  // KC×NC, NR-interleaved, zero-padded
//!     for ic in steps of MC:        // row stripe
//!       pack op(A)[ic.., k0..] → apack  // MC×KC, MR-interleaved, zero-padded
//!       for jr in steps of NR:      // register tile columns
//!         for ir in steps of MR:    // register tile rows
//!           gemm_micro: MR×NR accumulator tile in vector registers
//! ```
//!
//! `bpack` stores, for each `NR`-wide panel, `kcb` rows of `NR` consecutive
//! output-column values (`bpack[kk·NR + c]`); `apack` stores `kcb` rows of
//! `MR` consecutive output-row values (`apack[kk·MR + r]`). The microkernel
//! therefore streams both panels with stride-1 loads and keeps the full
//! `MR×NR` accumulator tile in registers across the `kcb` loop — this is
//! what closes the gap to hardware: no strided `b` reads at large `n`, no
//! per-step accumulator store/reload. One packed layout serves every
//! microkernel level (see `crate::micro` for why one panel width does), and
//! one pack routine serves both operands of all three products: an operand
//! stored with the depth along its rows (`b` of `a @ b`, both of `aᵀ @ b`'s)
//! is copied lane-group by lane-group, one stored along the other axis (`a`
//! of `a @ b`, both of `a @ bᵀ`'s) is transposed in blocks whose reads and
//! writes are both contiguous. Panels live in scratch buffers drawn from the
//! thread-local buffer [`pool`] (classes [`pack_pool_classes`]), so
//! steady-state packing allocates nothing.
//!
//! Ragged edges (`m % MR`, `n % NR`) run the same microkernel against
//! zero-padded panels, staging the affected output cells through a stack
//! tile; padded lanes compute values that are never written back.
//!
//! # Threading
//!
//! Kernels above [`PAR_MIN_FLOPS`] split the output over a 2D
//! `tr × tc` grid of scoped threads (`grid_for` picks the squarest grid
//! that still gives every cell whole register tiles). Each cell packs its
//! own panels into its own pool scratch, so threads share nothing mutable.
//! The thread count comes from [`set_threads`], falling back to the
//! `CHIMERA_THREADS` environment variable, defaulting to 1, and is clamped
//! to the machine's parallelism; the `*_with_threads` entry points bypass
//! the gate and the clamp for tests and benches that must exercise the grid
//! on any host.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::micro;
pub use crate::micro::{
    gemm_micro, gemm_micro_with, set_level_cap, simd_level, Epilogue, SimdLevel, LANES, MR, NR,
};
use crate::{ops, pool};

/// Row-stripe height of one packed `a` panel (a multiple of [`MR`]).
pub const MC: usize = 64;
/// Depth of one packed slab of the shared `k` dimension.
pub const KC: usize = 256;
/// Width of one packed column panel of `b` (a multiple of [`NR`]).
pub const NC: usize = 512;

const _: () = assert!(MC.is_multiple_of(MR) && NC.is_multiple_of(NR));

/// Minimum multiply-add count (`2·m·k·n`) before a kernel spawns threads;
/// below this the scoped-spawn overhead exceeds the parallel win.
///
/// Retuned upward (2²¹ → 2²⁵) after `BENCH_kernels.json` recorded the
/// multi-threaded path *losing* to single-threaded on small shapes
/// (e.g. 128×256×256 ≈ 2²⁴ MAs): per-call scoped spawn + join costs tens of
/// microseconds, which a sub-millisecond matmul cannot amortize. 2²⁵ keeps
/// every shape below ~512×256×256 sequential while the large training GEMMs
/// (≥ 2²⁷) still thread. `fig_kernels --check` gates `mt` vs `1t` per
/// shape so this regression cannot silently return.
pub const PAR_MIN_FLOPS: u64 = 1 << 25;

// --- intra-op thread-count configuration ------------------------------------

/// 0 = unset (resolve from `CHIMERA_THREADS`, default 1).
static THREADS: AtomicUsize = AtomicUsize::new(0);
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

/// Parse a `CHIMERA_THREADS`-style value: a positive integer, anything else
/// (absent, empty, `0`, garbage) is `None`.
pub fn parse_threads(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// Set the intra-op thread count for this process. `0` resets to the
/// environment default (`CHIMERA_THREADS`, else 1).
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::SeqCst);
}

/// The configured intra-op thread count: the last [`set_threads`] value, or
/// `CHIMERA_THREADS` (read once), or 1.
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => *ENV_THREADS.get_or_init(|| {
            parse_threads(std::env::var("CHIMERA_THREADS").ok().as_deref()).unwrap_or(1)
        }),
        n => n,
    }
}

/// The machine's available parallelism, read once. Oversubscribing a
/// smaller machine (e.g. `CHIMERA_THREADS=4` inside a 1-core container)
/// only adds context-switch overhead — the determinism contract makes the
/// clamp safe, since results are bit-identical at any thread count.
pub fn hw_parallelism() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// The flop count (`2·m·k·n`) of an `m×k×n` product.
fn flops_of(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

/// Threads actually used for an `m×k×n` product: 1 below
/// [`PAR_MIN_FLOPS`], otherwise capped by the machine's parallelism and by
/// the number of whole register tiles in the output (each grid cell must own
/// at least one).
fn effective_threads(m: usize, k: usize, n: usize) -> usize {
    if flops_of(m, k, n) < PAR_MIN_FLOPS {
        return 1;
    }
    threads()
        .min(hw_parallelism())
        .min(m.div_ceil(MR).saturating_mul(n.div_ceil(NR)))
        .max(1)
}

// --- kernel-time counters ----------------------------------------------------

static CALLS: AtomicU64 = AtomicU64::new(0);
static FLOPS: AtomicU64 = AtomicU64::new(0);
static NANOS: AtomicU64 = AtomicU64::new(0);
static TIMING: AtomicBool = AtomicBool::new(false);
static PACK_CALLS: AtomicU64 = AtomicU64::new(0);
static PACK_ELEMS: AtomicU64 = AtomicU64::new(0);

/// Enable wall-clock timing of kernel calls ([`stats`] `nanos`). Off by
/// default: two `Instant` reads per call are measurable on tiny matmuls.
pub fn set_timing(on: bool) {
    TIMING.store(on, Ordering::SeqCst);
}

/// Cumulative kernel counters since the last [`reset_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Matmul-family kernel invocations.
    pub calls: u64,
    /// Multiply-add operations issued (`2·m·k·n` per call).
    pub flops: u64,
    /// Wall-clock nanoseconds inside kernels (0 unless [`set_timing`] on).
    pub nanos: u64,
}

impl KernelStats {
    /// Mean throughput in GFLOP/s over the timed window (`None` without
    /// timing data).
    pub fn gflops(&self) -> Option<f64> {
        (self.nanos > 0).then(|| self.flops as f64 / self.nanos as f64)
    }
}

/// Cumulative packed-panel counters since the last [`reset_stats`]:
/// the panel-copy traffic the GotoBLAS engine pays to make the microkernel
/// stream contiguously. Exported through chimera-trace as
/// `runtime.kernel.pack.*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackStats {
    /// Panel-pack invocations (one per packed `a` stripe or `b` slab).
    pub calls: u64,
    /// `f32` elements written into panels, padding included.
    pub elems: u64,
}

/// Snapshot the kernel counters.
pub fn stats() -> KernelStats {
    KernelStats {
        calls: CALLS.load(Ordering::Relaxed),
        flops: FLOPS.load(Ordering::Relaxed),
        nanos: NANOS.load(Ordering::Relaxed),
    }
}

/// Snapshot the packed-panel counters.
pub fn pack_stats() -> PackStats {
    PackStats {
        calls: PACK_CALLS.load(Ordering::Relaxed),
        elems: PACK_ELEMS.load(Ordering::Relaxed),
    }
}

/// Zero the kernel and packing counters.
pub fn reset_stats() {
    CALLS.store(0, Ordering::Relaxed);
    FLOPS.store(0, Ordering::Relaxed);
    NANOS.store(0, Ordering::Relaxed);
    PACK_CALLS.store(0, Ordering::Relaxed);
    PACK_ELEMS.store(0, Ordering::Relaxed);
}

/// Count one kernel call; returns a start instant while timing is enabled.
fn enter(flops: u64) -> Option<Instant> {
    CALLS.fetch_add(1, Ordering::Relaxed);
    FLOPS.fetch_add(flops, Ordering::Relaxed);
    TIMING.load(Ordering::Relaxed).then(Instant::now)
}

fn leave(start: Option<Instant>) {
    if let Some(t0) = start {
        NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

// --- pool-backed pack scratch ------------------------------------------------

/// Pool size classes the packed engine draws its panel scratch from —
/// `MC·KC` for `a` panels, `KC·NC` for `b` panels (both exact powers of
/// two). A liveness plan that pre-warms these classes (one pair per kernel
/// thread) keeps even the first packed product allocation-free.
pub fn pack_pool_classes() -> [usize; 2] {
    [
        pool::class_of_request(MC * KC).expect("MC*KC is pool-sized"),
        pool::class_of_request(KC * NC).expect("KC*NC is pool-sized"),
    ]
}

/// One cell's pack scratch for an `m×k×n` product: buffers of the two
/// [`pack_pool_classes`], resized (which zero-fills) only to the panels the
/// cell will pack — `⌈min(m,MC)/MR⌉·MR × min(k,KC)` of `a` and
/// `min(k,KC) × ⌈min(n,NC)/NR⌉·NR` of `b` — not to the classes' 576 KB.
/// Contents are fully overwritten before every use.
fn take_scratch(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
    let kcb = k.min(KC);
    let mut apack = pool::take_spare(MC * KC);
    apack.resize(m.min(MC).next_multiple_of(MR) * kcb, 0.0);
    let mut bpack = pool::take_spare(KC * NC);
    bpack.resize(kcb * n.min(NC).next_multiple_of(NR), 0.0);
    (apack, bpack)
}

fn put_scratch(scratch: impl IntoIterator<Item = (Vec<f32>, Vec<f32>)>) {
    for (apack, bpack) in scratch {
        pool::put(apack);
        pool::put(bpack);
    }
}

// --- packing -----------------------------------------------------------------

/// One operand of the packed engine as its pack reads it. Element `(i, kk)`
/// — output row `i` for the left operand, output column `i` for the right
/// one, at depth `kk` — lies at `data[i·ld + kk]`, or at `data[kk·ld + i]`
/// when `depth_major`.
#[derive(Clone, Copy)]
struct Source<'a> {
    data: &'a [f32],
    ld: usize,
    depth_major: bool,
}

impl<'a> Source<'a> {
    /// Every stored row is one output row (or column): `a` of `a @ b` and
    /// `a @ bᵀ`, `b` of `a @ bᵀ`. Packing it is a transpose.
    fn rows(data: &'a [f32], ld: usize) -> Self {
        Source {
            data,
            ld,
            depth_major: false,
        }
    }

    /// Every stored row is one depth step: `b` of `a @ b` and `aᵀ @ b`, `a`
    /// of `aᵀ @ b`. Packing it is a copy.
    fn depth(data: &'a [f32], ld: usize) -> Self {
        Source {
            data,
            ld,
            depth_major: true,
        }
    }

    /// Pack outputs `i0..i0+count` over depth `k0..k0+kcb` into `W`-wide
    /// interleaved panels: `pack[p·kcb·W + kk·W + r]` holds element
    /// `(i0 + p·W + r, k0 + kk)`. Lanes past `count` are zero-filled; the
    /// zeros feed only discarded accumulator lanes.
    fn pack<const W: usize>(
        &self,
        pack: &mut [f32],
        i0: usize,
        count: usize,
        k0: usize,
        kcb: usize,
    ) {
        let panels = pack[..count.div_ceil(W) * kcb * W].chunks_exact_mut(kcb * W);
        let panels = panels.zip((0..count).step_by(W).map(|ip| (i0 + ip, W.min(count - ip))));
        if self.depth_major {
            for (panel, (i, w)) in panels {
                copy_into::<W>(&self.data[k0 * self.ld + i..], self.ld, w, panel);
            }
        } else {
            // Cleared once per call, not once per panel: 8 KB of stores is
            // most of what a shallow panel costs.
            let mut block = [[0.0f32; TRANSPOSE_STEPS * 8]; NR / 8];
            for (panel, (i, w)) in panels {
                let src = &self.data[i * self.ld + k0..];
                transpose_into::<W>(src, self.ld, w, panel, &mut block);
            }
        }
        PACK_CALLS.fetch_add(1, Ordering::Relaxed);
        PACK_ELEMS.fetch_add((count.div_ceil(W) * W * kcb) as u64, Ordering::Relaxed);
    }
}

/// `panel[kk·W + r] = src[kk·ld + r]` for `r < w` and `0.0` for `w ≤ r < W`,
/// over every `W`-wide step `kk` of `panel`: the copying pack.
fn copy_into<const W: usize>(src: &[f32], ld: usize, w: usize, panel: &mut [f32]) {
    let steps = panel.chunks_exact_mut(W).enumerate();
    if w == W {
        // A copy of constant size is a few vector moves, not a `memcpy` call.
        for (kk, d) in steps {
            d.copy_from_slice(&src[kk * ld..][..W]);
        }
    } else {
        for (kk, d) in steps {
            d[..w].copy_from_slice(&src[kk * ld..][..w]);
            d[w..].fill(0.0);
        }
    }
}

/// Depth steps the transposing pack stages per block (8 KB of stack for the
/// widest panel).
const TRANSPOSE_STEPS: usize = 64;

/// `panel[kk·W + r] = src[r·ld + kk]` for `r < w` and `0.0` for `w ≤ r < W`,
/// over every `W`-wide step `kk` of `panel`: the transposing pack.
///
/// Reads and writes are both contiguous (a scatter `panel[kk·W + r] = v` one
/// source row at a time touches a new cache line per element, and cost
/// 2–3× as much): the source is taken `STEPS` depth steps at a time, eight
/// rows by eight rows through [`interleave8`] into the caller's stack
/// `block`, and the block is written out as whole panel rows.
fn transpose_into<const W: usize>(
    src: &[f32],
    ld: usize,
    w: usize,
    panel: &mut [f32],
    block: &mut [[f32; TRANSPOSE_STEPS * 8]; NR / 8],
) {
    const STEPS: usize = TRANSPOSE_STEPS;
    /// What a lane past `w` reads.
    static ZEROS: [f32; KC] = [0.0; KC];
    const { assert!(W.is_multiple_of(8) && W <= NR) };
    let kcb = panel.len() / W;
    let row = |r: usize| match r < w {
        true => &src[r * ld..][..kcb],
        false => &ZEROS[..kcb],
    };
    if W == 8 {
        return interleave8(std::array::from_fn(row), panel);
    }
    for k0 in (0..kcb).step_by(STEPS) {
        let steps = STEPS.min(kcb - k0);
        for (g, staged) in block.iter_mut().enumerate().take(W / 8) {
            let rows = std::array::from_fn(|r| &row(g * 8 + r)[k0..k0 + steps]);
            interleave8(rows, &mut staged[..steps * 8]);
        }
        let out = panel[k0 * W..].chunks_exact_mut(W).take(steps);
        for (kk, lanes) in out.enumerate() {
            for (to, staged) in lanes.chunks_exact_mut(8).zip(block.iter()) {
                to.copy_from_slice(&staged[kk * 8..kk * 8 + 8]);
            }
        }
    }
}

/// `out[i·8 + r] = rows[r][i]` for every whole group of eight in `out`: a
/// loop the vectorizer turns into eight row loads, an in-register transpose
/// and whole-vector stores.
#[inline(always)]
fn interleave8(rows: [&[f32]; 8], out: &mut [f32]) {
    let [r0, r1, r2, r3, r4, r5, r6, r7] = rows;
    for (i, o) in out.chunks_exact_mut(8).enumerate() {
        o[0] = r0[i];
        o[1] = r1[i];
        o[2] = r2[i];
        o[3] = r3[i];
        o[4] = r4[i];
        o[5] = r5[i];
        o[6] = r6[i];
        o[7] = r7[i];
    }
}

// --- the packed-panel GEMM driver --------------------------------------------

/// One grid cell of `op(a) @ op(b)` under `ep`: the full five-loop packed
/// nest over this cell's rows and columns, the first slab of every column
/// panel under `ep` and the rest continuing its chains.
///
/// * `rows` — the cell's output-row views, each exactly the cell's width.
/// * `(i0, j0)` — the cell's first output row and column (for reading `a`
///   and `b`).
fn gemm_cell(
    a: Source<'_>,
    b: Source<'_>,
    k: usize,
    (i0, j0): (usize, usize),
    rows: &mut [&mut [f32]],
    ep: Epilogue,
    (apack, bpack): (&mut [f32], &mut [f32]),
) {
    let mrows = rows.len();
    let ncw = rows.first().map_or(0, |r| r.len());
    if mrows == 0 || ncw == 0 {
        return;
    }
    // Stack staging tile for ragged edges: real cells are copied in (unless
    // the epilogue writes them), the microkernel runs full-size against
    // zero-padded panels, and only the real cells are copied back out.
    let mut edge = [[0.0f32; NR]; MR];
    for jc in (0..ncw).step_by(NC) {
        let ncb = NC.min(ncw - jc);
        for k0 in (0..k).step_by(KC) {
            let kcb = KC.min(k - k0);
            let ep = if k0 == 0 { ep } else { Epilogue::Continue };
            b.pack::<NR>(bpack, j0 + jc, ncb, k0, kcb);
            for ic in (0..mrows).step_by(MC) {
                let mcb = MC.min(mrows - ic);
                a.pack::<MR>(apack, i0 + ic, mcb, k0, kcb);
                for (p, jp) in (0..ncb).step_by(NR).enumerate() {
                    let bslab = &bpack[p * kcb * NR..(p + 1) * kcb * NR];
                    let w = NR.min(ncb - jp);
                    for (q, ip) in (0..mcb).step_by(MR).enumerate() {
                        let aslab = &apack[q * kcb * MR..(q + 1) * kcb * MR];
                        let h = MR.min(mcb - ip);
                        if h == MR && w == NR {
                            gemm_micro_with(
                                ep,
                                aslab,
                                bslab,
                                kcb,
                                &mut rows[ic + ip..ic + ip + MR],
                                jc + jp,
                            );
                        } else {
                            for (r, staged) in edge.iter_mut().enumerate() {
                                staged.fill(0.0);
                                if r < h && ep != Epilogue::Write {
                                    let srcrow = &rows[ic + ip + r][jc + jp..jc + jp + w];
                                    staged[..w].copy_from_slice(srcrow);
                                }
                            }
                            let mut views = edge.each_mut().map(|r| &mut r[..]);
                            gemm_micro_with(ep, aslab, bslab, kcb, &mut views, 0);
                            for r in 0..h {
                                rows[ic + ip + r][jc + jp..jc + jp + w]
                                    .copy_from_slice(&edge[r][..w]);
                            }
                        }
                    }
                }
            }
        }
    }
}

// --- 2D output partitioning --------------------------------------------------

/// Pick a `tr × tc` grid for `t` threads over an `m×n` output: the factor
/// pair using the most cells (≤ `t`, each cell at least one register tile)
/// with the smallest per-cell perimeter (`m/tr + n/tc`, which minimizes
/// duplicated packing and cache footprint).
fn grid_for(t: usize, m: usize, n: usize) -> (usize, usize) {
    let max_r = m.div_ceil(MR).max(1);
    let max_c = n.div_ceil(NR).max(1);
    let mut best = (1usize, 1usize);
    let mut best_cells = 0usize;
    let mut best_cost = usize::MAX;
    for tr in 1..=t.min(max_r) {
        let tc = (t / tr).min(max_c).max(1);
        let cells = tr * tc;
        let cost = m.div_ceil(tr) + n.div_ceil(tc);
        if cells > best_cells || (cells == best_cells && cost < best_cost) {
            best = (tr, tc);
            best_cells = cells;
            best_cost = cost;
        }
    }
    best
}

/// Grid boundary `i` of `count` items split `ways` ways (balanced,
/// deterministic).
fn cut(i: usize, count: usize, ways: usize) -> usize {
    i * count / ways
}

/// Split `out` (`m×n` row-major) into a `tr×tc` grid of per-cell row views:
/// cell `(ri, ci)` (row-major in the returned vec) holds one `&mut [f32]`
/// per output row in its stripe, each covering exactly its column range.
fn split_grid(out: &mut [f32], m: usize, n: usize, tr: usize, tc: usize) -> Vec<Vec<&mut [f32]>> {
    let mut cells: Vec<Vec<&mut [f32]>> = Vec::new();
    for ri in 0..tr {
        let rows = cut(ri + 1, m, tr) - cut(ri, m, tr);
        for _ in 0..tc {
            cells.push(Vec::with_capacity(rows));
        }
    }
    let mut ri = 0usize;
    for (i, row) in out.chunks_mut(n).enumerate() {
        while i >= cut(ri + 1, m, tr) {
            ri += 1;
        }
        let mut rest = row;
        for ci in 0..tc {
            let w = cut(ci + 1, n, tc) - cut(ci, n, tc);
            let (seg, tail) = rest.split_at_mut(w);
            cells[ri * tc + ci].push(seg);
            rest = tail;
        }
    }
    cells
}

/// Run the packed engine under `ep` over a `tr×tc` grid on scoped threads.
/// Each cell gets its own pool-backed pack scratch, taken and returned on
/// the calling thread (worker threads are scoped and short-lived, so routing
/// scratch through *their* thread-local pools would leak a miss/discard pair
/// per call).
fn run_grid(
    a: Source<'_>,
    b: Source<'_>,
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
    ep: Epilogue,
    t: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    match ep {
        // A tile can add only a chain it holds whole: one slab deep, and
        // at least one step.
        Epilogue::Add if k == 0 || k > KC => {
            let mut chains = pool::take_stale(m * n);
            run_grid(a, b, &mut chains, (m, k, n), Epilogue::Write, t);
            ops::add_ordered(out, &[&chains]);
            return pool::put(chains);
        }
        Epilogue::Write if k == 0 => return out.fill(0.0),
        _ => {}
    }
    let (tr, tc) = grid_for(t.max(1), m, n);
    if tr * tc <= 1 {
        let mut rows: Vec<&mut [f32]> = out.chunks_mut(n).collect();
        let (mut apack, mut bpack) = take_scratch(m, k, n);
        gemm_cell(a, b, k, (0, 0), &mut rows, ep, (&mut apack, &mut bpack));
        put_scratch([(apack, bpack)]);
        return;
    }
    let cells = split_grid(out, m, n, tr, tc);
    // No cell is taller than `⌈m/tr⌉` or wider than `⌈n/tc⌉`.
    let mut scratch: Vec<(Vec<f32>, Vec<f32>)> = (0..tr * tc)
        .map(|_| take_scratch(m.div_ceil(tr), k, n.div_ceil(tc)))
        .collect();
    std::thread::scope(|s| {
        for ((idx, mut rows), (apack, bpack)) in
            cells.into_iter().enumerate().zip(scratch.iter_mut())
        {
            let origin = (cut(idx / tc, m, tr), cut(idx % tc, n, tc));
            s.spawn(move || gemm_cell(a, b, k, origin, &mut rows, ep, (apack, bpack)));
        }
    });
    put_scratch(scratch);
}

// --- the three products ------------------------------------------------------
//
// One engine for every size: the pack pays for itself from a few thousand
// flops up (measured 2–6× the plain cache-blocked loops between 2¹² and 2¹⁹
// flops, and behind them only below ~2¹⁰, where a call costs a fraction of a
// microsecond either way), so there is no small path to keep bit-identical.

/// Which operand of a packed product is stored transposed. Every product
/// is `m×k` by `k×n` into a row-major `out: [m,n]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Product {
    /// `a @ b`: `a: [m,k]`, `b: [k,n]`.
    Plain,
    /// `aᵀ @ b`: `a: [k,m]`, `b: [k,n]` — the `dW = Xᵀ dY` pattern, without
    /// materializing the transpose.
    TransA,
    /// `a @ bᵀ`: `a: [m,k]`, `b: [n,k]` — the `dX = dY Wᵀ` pattern.
    TransB,
}

/// `op(a) @ op(b)` into `out` under `ep`: every output element is one
/// ascending chain of exactly-rounded `mul_add` steps over `k`, started and
/// stored as [`Epilogue`] says, regardless of packing, tiling, or thread
/// count.
pub fn gemm_into(
    product: Product,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
    ep: Epilogue,
) {
    let t = effective_threads(m, k, n);
    gemm_into_with_threads(product, a, b, out, (m, k, n), ep, t);
}

/// [`gemm_into`] with exactly `t` grid threads: bypasses the flop gate and
/// the hardware-parallelism clamp. Bit-identical at every `t`; for tests
/// and benches that must exercise the 2D grid regardless of shape or host.
pub fn gemm_into_with_threads(
    product: Product,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
    ep: Epilogue,
    t: usize,
) {
    debug_assert_eq!((a.len(), b.len(), out.len()), (m * k, k * n, m * n));
    let (asrc, bsrc) = match product {
        Product::Plain => (Source::rows(a, k), Source::depth(b, n)),
        Product::TransA => (Source::depth(a, m), Source::depth(b, n)),
        Product::TransB => (Source::rows(a, k), Source::rows(b, k)),
    };
    let t0 = enter(flops_of(m, k, n));
    run_grid(asrc, bsrc, out, (m, k, n), ep, t);
    leave(t0);
}

/// `out += a @ b` where `a: [m,k]`, `b: [k,n]`, `out: [m,n]`, all
/// row-major: [`gemm_into`] under [`Epilogue::Continue`] (zero `out` first
/// for a plain product).
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_into(Product::Plain, a, b, out, (m, k, n), Epilogue::Continue);
}

/// [`matmul_into`] with exactly `t` grid threads (see
/// [`gemm_into_with_threads`]).
pub fn matmul_into_with_threads(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    t: usize,
) {
    let ep = Epilogue::Continue;
    gemm_into_with_threads(Product::Plain, a, b, out, (m, k, n), ep, t);
}

/// `out += aᵀ @ b` where `a: [k,m]`, `b: [k,n]`, `out: [m,n]`
/// ([`Product::TransA`] under [`Epilogue::Continue`]).
pub fn t_matmul_into(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    gemm_into(Product::TransA, a, b, out, (m, k, n), Epilogue::Continue);
}

/// [`t_matmul_into`] with exactly `t` grid threads.
pub fn t_matmul_into_with_threads(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
    t: usize,
) {
    let ep = Epilogue::Continue;
    gemm_into_with_threads(Product::TransA, a, b, out, (m, k, n), ep, t);
}

/// `out += a @ bᵀ` where `a: [m,k]`, `b: [n,k]`, `out: [m,n]`
/// ([`Product::TransB`] under [`Epilogue::Continue`]).
pub fn matmul_t_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_into(Product::TransB, a, b, out, (m, k, n), Epilogue::Continue);
}

/// [`matmul_t_into`] with exactly `t` grid threads.
pub fn matmul_t_into_with_threads(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    t: usize,
) {
    let ep = Epilogue::Continue;
    gemm_into_with_threads(Product::TransB, a, b, out, (m, k, n), ep, t);
}

// --- strided, batched small products -----------------------------------------

/// One operand of [`gemm_batch`]: a row-major matrix whose sub-blocks the
/// batch reads in place.
#[derive(Debug, Clone, Copy)]
pub struct Operand<'a> {
    /// The whole matrix; each batch item names its block by an offset.
    pub data: &'a [f32],
    /// Leading dimension: elements between the starts of two stored rows.
    pub ld: usize,
    /// Whether blocks are stored transposed (`[k, m]` for `a`, `[n, k]`
    /// for `b`).
    pub trans: bool,
}

impl<'a> Operand<'a> {
    /// The block at `offset` as the packed engine's pack reads it.
    fn source(&self, offset: usize, depth_major: bool) -> Source<'a> {
        Source {
            // An empty block may start past the end of its matrix.
            data: self.data.get(offset..).unwrap_or(&[]),
            ld: self.ld,
            depth_major,
        }
    }

    /// Panic unless a block of logical shape `rows × cols` at `offset` lies
    /// inside the matrix without wrapping a stored row.
    fn check(&self, offset: usize, rows: usize, cols: usize, what: &str) {
        let (srows, scols) = if self.trans {
            (cols, rows)
        } else {
            (rows, cols)
        };
        assert!(scols <= self.ld, "{what}: block wider than its ld");
        // `k = 0` makes an empty block, which lies anywhere.
        if srows > 0 && scols > 0 {
            let end = offset + (srows - 1) * self.ld + scols;
            assert!(end <= self.data.len(), "{what}: block out of bounds");
        }
    }
}

/// What [`gemm_batch`] may skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Triangle {
    /// Nothing: every element of every product is computed.
    Full,
    /// Only elements `j ≤ i` of each output block are wanted. Tiles wholly
    /// above the diagonal are not computed and the block's elements above
    /// the diagonal are left unspecified (written or not).
    LowerOut,
    /// Every `a` block, *as stored*, holds `±0.0` at (row, col > row), and
    /// `b` is finite. Steps of the `k` loop whose multiplier is one of
    /// those zeros may be skipped, which changes no bit of the result: a
    /// skipped step would have added `±0.0` to an accumulator that started
    /// at `+0.0`, and such an accumulator is never `−0.0`.
    LowerA,
}

/// The `k` range and the number of leading output columns a row tile
/// `i..i + h` has to cover under `tri`.
fn live_part(
    tri: Triangle,
    a_trans: bool,
    i: usize,
    h: usize,
    k: usize,
    n: usize,
) -> (std::ops::Range<usize>, usize) {
    match tri {
        Triangle::Full => (0..k, n),
        Triangle::LowerOut => (0..k, n.min(i + h)),
        // Stored `[m, k]`: row `i` is zero past column `i`.
        Triangle::LowerA if !a_trans => (0..k.min(i + h), n),
        // Stored `[k, m]`: column `i` is zero before row `i`.
        Triangle::LowerA => (i.min(k)..k, n),
    }
}

/// `out_block = op(a_block) @ op(b_block)` for every item of `batch`, each
/// item `[a_offset, b_offset, out_offset]` naming one `m×k` block of `a`,
/// one `k×n` block of `b` (either stored transposed, see [`Operand`]) and
/// one `m×n` block of `out` (leading dimension `ldo`), all read and written
/// where they lie. Blocks of `a` and `b` may overlap each other; output
/// blocks of one batch must not.
///
/// Every output element is **written**, not accumulated into: it is the
/// chain `acc = a(i,kk).mul_add(b(kk,j), acc)` from `+0.0` over ascending
/// `kk`, the chain of [`matmul_into`] on a zeroed output, whatever the
/// strides, transposes, tiling or `tri`. [`naive::gemm_batch`] is the same
/// chain untiled. One thread: the products this serves are far below
/// [`PAR_MIN_FLOPS`].
///
/// Two tiles, chosen by what the call can see. Where the output fills the
/// microkernel's width (`n ≥ NR`: attention's score-shaped products, and
/// all six at head widths from 32) and the level has a vector body, each
/// item's blocks are packed as the packed engine packs them and every
/// `MR×NR` tile is [`gemm_micro_with`]'s under [`Epilogue::Write`]. Otherwise each `b`
/// block is packed into [`LANES`]-wide panels, `a` is read in place, and
/// the tile is [`MR`] rows of one 8-lane vector (`micro::axpy_tile`), which
/// a narrow output (`d = 8`) fills where the wide tile would idle three
/// lanes in four. Pack scratch is the packed engine's, or one pool buffer
/// sized to one `b` block.
///
/// Counts as one kernel call with the flops of the tiles it computes, so a
/// triangular call reports about half the flops of a full one.
pub fn gemm_batch(
    (m, k, n): (usize, usize, usize),
    a: Operand<'_>,
    b: Operand<'_>,
    out: &mut [f32],
    ldo: usize,
    batch: &[[usize; 3]],
    tri: Triangle,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(n <= ldo, "out: block wider than its ld");
    for &[ao, bo, oo] in batch {
        a.check(ao, m, k, "a");
        b.check(bo, k, n, "b");
        let end = oo + (m - 1) * ldo + n;
        assert!(end <= out.len(), "out: block out of bounds");
    }
    let wide = n >= NR && simd_level() > SimdLevel::Scalar;
    let width = if wide { NR } else { LANES };
    let per_item: u64 = (0..m)
        .step_by(MR)
        .map(|i| {
            let h = MR.min(m - i);
            let (ks, cols) = live_part(tri, a.trans, i, h, k, n);
            2 * (h * ks.len() * n.min(cols.next_multiple_of(width))) as u64
        })
        .sum();
    let t0 = enter(per_item * batch.len() as u64);
    if wide {
        batch_on_micro_tiles((m, k, n), a, b, out, ldo, batch, tri);
    } else {
        batch_on_lane_tiles((m, k, n), a, b, out, ldo, batch, tri);
    }
    leave(t0);
}

/// [`gemm_batch`] on the `MR×LANES` tile.
fn batch_on_lane_tiles(
    (m, k, n): (usize, usize, usize),
    a: Operand<'_>,
    b: Operand<'_>,
    out: &mut [f32],
    ldo: usize,
    batch: &[[usize; 3]],
    tri: Triangle,
) {
    let panel = k * LANES;
    let packed = n.div_ceil(LANES) * panel;
    // Zero-filled once: packing rewrites every real column for every item
    // and never touches the padding columns.
    let mut bpack = pool::take_spare(packed);
    bpack.resize(packed, 0.0);
    // Where `a(i, kk)` lies relative to its block's start.
    let a_at = |i: usize, kk: usize| {
        if a.trans {
            kk * a.ld + i
        } else {
            i * a.ld + kk
        }
    };
    for &[ao, bo, oo] in batch {
        pack_b_block(b, bo, k, n, &mut bpack);
        for i in (0..m).step_by(MR) {
            let h = MR.min(m - i);
            let (ks, cols) = live_part(tri, a.trans, i, h, k, n);
            // An empty `k` range may start past the end of `a`.
            let a_tile = a.data.get(ao + a_at(i, ks.start)..).unwrap_or(&[]);
            for (p, j) in (0..cols).step_by(LANES).enumerate() {
                let bpanel = &bpack[p * panel..][ks.start * LANES..ks.end * LANES];
                let tile = micro::axpy_tile(a_tile, a.ld, a.trans, h, bpanel);
                let w = LANES.min(n - j);
                for (r, row) in tile.iter().enumerate().take(h) {
                    out[oo + (i + r) * ldo + j..][..w].copy_from_slice(&row[..w]);
                }
            }
        }
    }
    pool::put(bpack);
    PACK_CALLS.fetch_add(batch.len() as u64, Ordering::Relaxed);
    PACK_ELEMS.fetch_add((batch.len() * packed) as u64, Ordering::Relaxed);
}

/// [`gemm_batch`] on the microkernel's tile: [`gemm_cell`]'s loop nest per
/// item, over blocks addressed by offset and leading dimension, with each
/// tile written from `+0.0` by the first depth slab, accumulated into by the
/// rest, and left alone where `tri` spares it.
fn batch_on_micro_tiles(
    (m, k, n): (usize, usize, usize),
    a: Operand<'_>,
    b: Operand<'_>,
    out: &mut [f32],
    ldo: usize,
    batch: &[[usize; 3]],
    tri: Triangle,
) {
    let (mut apack, mut bpack) = take_scratch(m, k, n);
    let mut edge = [[0.0f32; NR]; MR];
    for &[ao, bo, oo] in batch {
        let (asrc, bsrc) = (a.source(ao, a.trans), b.source(bo, !b.trans));
        for jc in (0..n).step_by(NC) {
            let ncb = NC.min(n - jc);
            // `k = 0` still owes the output its zeros: one slab of no steps.
            for k0 in (0..k.max(1)).step_by(KC) {
                let kcb = KC.min(k - k0);
                if kcb > 0 {
                    bsrc.pack::<NR>(&mut bpack, jc, ncb, k0, kcb);
                }
                for ic in (0..m).step_by(MC) {
                    let mcb = MC.min(m - ic);
                    if kcb > 0 {
                        asrc.pack::<MR>(&mut apack, ic, mcb, k0, kcb);
                    }
                    for (q, i) in (ic..ic + mcb).step_by(MR).enumerate() {
                        let h = MR.min(ic + mcb - i);
                        let (ks, cols) = live_part(tri, a.trans, i, h, k, n);
                        // This slab's steps inside the stripe's live range.
                        let (lo, hi) = (k0, k0 + kcb);
                        let steps = ks.start.clamp(lo, hi) - k0..ks.end.clamp(lo, hi) - k0;
                        let aslab = &apack[q * kcb * MR..][steps.start * MR..steps.end * MR];
                        for (p, j) in (jc..cols.min(jc + ncb)).step_by(NR).enumerate() {
                            let bslab = &bpack[p * kcb * NR..][steps.start * NR..steps.end * NR];
                            let w = NR.min(jc + ncb - j);
                            let cells = &mut out[oo + i * ldo + j..];
                            let ep = if k0 == 0 {
                                Epilogue::Write
                            } else {
                                Epilogue::Continue
                            };
                            micro_tile(aslab, bslab, cells, ldo, (h, w), ep, &mut edge);
                        }
                    }
                }
            }
        }
    }
    put_scratch([(apack, bpack)]);
}

/// One microkernel tile under `ep` over the `h×w` cells at the head of
/// `cells` (rows `ldo` apart). A ragged tile is staged through `edge` as
/// [`gemm_cell`] stages its own.
fn micro_tile(
    aslab: &[f32],
    bslab: &[f32],
    cells: &mut [f32],
    ldo: usize,
    (h, w): (usize, usize),
    ep: Epilogue,
    edge: &mut [[f32; NR]; MR],
) {
    let kcb = aslab.len() / MR;
    if (h, w) == (MR, NR) {
        let mut rows = cells.chunks_mut(ldo);
        let mut rows: [&mut [f32]; MR] =
            std::array::from_fn(|_| &mut rows.next().expect("blocks checked on entry")[..NR]);
        return gemm_micro_with(ep, aslab, bslab, kcb, &mut rows, 0);
    }
    for (r, staged) in edge.iter_mut().enumerate() {
        staged.fill(0.0);
        if r < h && ep != Epilogue::Write {
            staged[..w].copy_from_slice(&cells[r * ldo..][..w]);
        }
    }
    gemm_micro_with(
        ep,
        aslab,
        bslab,
        kcb,
        &mut edge.each_mut().map(|r| &mut r[..]),
        0,
    );
    for (r, staged) in edge.iter().enumerate().take(h) {
        cells[r * ldo..][..w].copy_from_slice(&staged[..w]);
    }
}

/// Pack the `k×n` block of `b` at `offset` into `W = LANES`-wide panels:
/// `bpack[p·k·W + kk·W + c]` holds `b(kk, p·W + c)`. Padding columns are
/// left as they are (zero, see the caller).
fn pack_b_block(b: Operand<'_>, offset: usize, k: usize, n: usize, bpack: &mut [f32]) {
    const W: usize = LANES;
    let panel = k * W;
    if b.trans {
        for j in 0..n {
            let src = &b.data[offset + j * b.ld..][..k];
            let at = (j / W) * panel + j % W;
            for (kk, &v) in src.iter().enumerate() {
                bpack[at + kk * W] = v;
            }
        }
    } else {
        for kk in 0..k {
            let src = &b.data[offset + kk * b.ld..][..n];
            for (p, chunk) in src.chunks(W).enumerate() {
                bpack[p * panel + kk * W..][..chunk.len()].copy_from_slice(chunk);
            }
        }
    }
}

// --- naive reference loops ---------------------------------------------------

/// The untiled, single-threaded reference loops the packed kernels must
/// match **bit-for-bit**. Kept for the equivalence property tests and as
/// the "before" side of the kernel benchmarks; never used on the training
/// hot path. Like the tiled kernels these accumulate with one
/// exactly-rounded [`f32::mul_add`] per `k` step, so the fused-FMA SIMD
/// paths are bit-identical to them.
pub mod naive {
    use super::Operand;

    /// Naive `out += a @ b` in i-k-j order (the order the packed kernel
    /// reproduces per element).
    pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (kk, &aik) in a_row.iter().enumerate() {
                let b_row = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o = aik.mul_add(bv, *o);
                }
            }
        }
    }

    /// Naive `out += aᵀ @ b` in k-i-j order (ascending `k` per element).
    pub fn t_matmul_into(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
        for kk in 0..k {
            let a_row = &a[kk * m..(kk + 1) * m];
            let b_row = &b[kk * n..(kk + 1) * n];
            for (i, &aik) in a_row.iter().enumerate() {
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o = aik.mul_add(bv, *o);
                }
            }
        }
    }

    /// Naive `out += a @ bᵀ`: per element, the ascending `mul_add` chain
    /// continued from the value in `out`.
    pub fn matmul_t_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b[j * k..(j + 1) * k];
                let o = &mut out[i * n + j];
                for (&av, &bv) in a_row.iter().zip(b_row) {
                    *o = av.mul_add(bv, *o);
                }
            }
        }
    }

    /// Naive [`gemm_batch`](super::gemm_batch): every element of every
    /// output block, one `mul_add` chain from `+0.0` over ascending `k`,
    /// no packing, no tiles, nothing skipped.
    pub fn gemm_batch(
        (m, k, n): (usize, usize, usize),
        a: Operand<'_>,
        b: Operand<'_>,
        out: &mut [f32],
        ldo: usize,
        batch: &[[usize; 3]],
    ) {
        let (ars, acs) = if a.trans { (1, a.ld) } else { (a.ld, 1) };
        let (brs, bcs) = if b.trans { (1, b.ld) } else { (b.ld, 1) };
        for &[ao, bo, oo] in batch {
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        let av = a.data[ao + i * ars + kk * acs];
                        acc = av.mul_add(b.data[bo + kk * brs + j * bcs], acc);
                    }
                    out[oo + i * ldo + j] = acc;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn randvec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = Rng::new(seed);
        (0..len).map(|_| rng.normal()).collect()
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    /// Dispatched kernels match the naive loops bit-for-bit on shapes
    /// straddling every tile boundary, at several thread counts.
    #[test]
    fn tiled_matches_naive_bitexact() {
        let shapes = [
            (1, 1, 1),
            (3, 5, 2),
            (MC, KC, NC),
            (MC + 1, KC + 3, NC + 5),
            (2 * MC + 7, 2 * KC + 1, 17),
            (130, 70, 300),
        ];
        let saved = threads();
        for &(m, k, n) in &shapes {
            let a = randvec(m * k, 1);
            let b = randvec(k * n, 2);
            let at = randvec(k * m, 3);
            let bt = randvec(n * k, 4);

            let mut want = vec![0.0f32; m * n];
            naive::matmul_into(&a, &b, &mut want, m, k, n);
            let mut want_t = vec![0.0f32; m * n];
            naive::t_matmul_into(&at, &b, &mut want_t, k, m, n);
            let mut want_mt = vec![0.0f32; m * n];
            naive::matmul_t_into(&a, &bt, &mut want_mt, m, k, n);

            for t in [1usize, 2, 3, 8] {
                set_threads(t);
                let mut got = vec![0.0f32; m * n];
                matmul_into(&a, &b, &mut got, m, k, n);
                assert_bits_eq(&got, &want, &format!("matmul {m}x{k}x{n} t{t}"));

                let mut got = vec![0.0f32; m * n];
                t_matmul_into(&at, &b, &mut got, k, m, n);
                assert_bits_eq(&got, &want_t, &format!("t_matmul {m}x{k}x{n} t{t}"));

                let mut got = vec![0.0f32; m * n];
                matmul_t_into(&a, &bt, &mut got, m, k, n);
                assert_bits_eq(&got, &want_mt, &format!("matmul_t {m}x{k}x{n} t{t}"));
            }
        }
        set_threads(saved);
    }

    /// The forced-packed, forced-grid entry points match naive bit-for-bit
    /// even on shapes far below the dispatch gates.
    #[test]
    fn with_threads_entries_match_naive() {
        let (m, k, n) = (MC + 3, KC + 9, NR + 5);
        let a = randvec(m * k, 11);
        let b = randvec(k * n, 12);
        let at = randvec(k * m, 13);
        let bt = randvec(n * k, 14);
        let mut want = vec![0.0f32; m * n];
        naive::matmul_into(&a, &b, &mut want, m, k, n);
        let mut want_t = vec![0.0f32; m * n];
        naive::t_matmul_into(&at, &b, &mut want_t, k, m, n);
        let mut want_mt = vec![0.0f32; m * n];
        naive::matmul_t_into(&a, &bt, &mut want_mt, m, k, n);
        for t in [1usize, 2, 4, 8] {
            let mut got = vec![0.0f32; m * n];
            matmul_into_with_threads(&a, &b, &mut got, m, k, n, t);
            assert_bits_eq(&got, &want, &format!("packed matmul t{t}"));
            let mut got = vec![0.0f32; m * n];
            t_matmul_into_with_threads(&at, &b, &mut got, k, m, n, t);
            assert_bits_eq(&got, &want_t, &format!("packed t_matmul t{t}"));
            let mut got = vec![0.0f32; m * n];
            matmul_t_into_with_threads(&a, &bt, &mut got, m, k, n, t);
            assert_bits_eq(&got, &want_mt, &format!("tiled matmul_t t{t}"));
        }
    }

    /// k = 0 contracts to an all-zero product without panicking.
    #[test]
    fn zero_k_is_identity_on_zeroed_out() {
        let mut out = vec![1.0f32; 6];
        matmul_into(&[], &[], &mut out, 2, 0, 3);
        assert_eq!(out, vec![1.0; 6]); // accumulating: adds nothing
        let mut out = vec![0.0f32; 6];
        t_matmul_into(&[], &[], &mut out, 0, 2, 3);
        assert_eq!(out, vec![0.0; 6]);
        let mut out = vec![0.0f32; 6];
        matmul_t_into(&[], &[], &mut out, 2, 0, 3);
        assert_eq!(out, vec![0.0; 6]);
        // Forced-packed path, same contract.
        let mut out = vec![1.0f32; 6];
        matmul_into_with_threads(&[], &[], &mut out, 2, 0, 3, 4);
        assert_eq!(out, vec![1.0; 6]);
    }

    #[test]
    fn accumulates_into_nonzero_out() {
        let (m, k, n) = (3, 4, 5);
        let a = randvec(m * k, 9);
        let b = randvec(k * n, 10);
        let base = randvec(m * n, 11);
        let mut got = base.clone();
        matmul_into(&a, &b, &mut got, m, k, n);
        let mut want = base;
        naive::matmul_into(&a, &b, &mut want, m, k, n);
        assert_bits_eq(&got, &want, "accumulating matmul");
    }

    #[test]
    fn grid_covers_and_respects_bounds() {
        for (t, m, n) in [
            (1, 5, 5),
            (4, 100, 100),
            (8, 8, 2000),
            (8, 3, 3),
            (6, 64, 64),
        ] {
            let (tr, tc) = grid_for(t, m, n);
            assert!(tr * tc <= t.max(1), "grid {tr}x{tc} over t={t}");
            assert!(tr <= m.div_ceil(MR).max(1));
            assert!(tc <= n.div_ceil(NR).max(1));
        }
        // A wide-and-short output must split by column, not by row.
        let (tr, tc) = grid_for(8, 8, 2000);
        assert_eq!(tr, 1);
        assert!(tc > 1);
    }

    #[test]
    fn parse_threads_rules() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("junk")), None);
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 8 ")), Some(8));
    }

    // Counters are process-global and tests in this binary run
    // concurrently, so deltas are lower bounds here; exact accounting is
    // asserted in `tests/pool_stats.rs`.
    #[test]
    fn stats_count_calls_and_flops() {
        let before = stats();
        let a = randvec(4 * 6, 20);
        let b = randvec(6 * 3, 21);
        let mut out = vec![0.0f32; 4 * 3];
        matmul_into(&a, &b, &mut out, 4, 6, 3);
        let after = stats();
        assert!(after.calls - before.calls >= 1);
        assert!(after.flops - before.flops >= 2 * 4 * 6 * 3);
        set_timing(true);
        matmul_into(&a, &b, &mut out, 4, 6, 3);
        set_timing(false);
        assert!(stats().gflops().is_some());
    }

    /// The packed engine reports its panel-copy traffic.
    #[test]
    fn pack_counters_track_packed_calls() {
        let (m, k, n) = (MR + 1, 40, NR + 1);
        let a = randvec(m * k, 30);
        let b = randvec(k * n, 31);
        let mut out = vec![0.0f32; m * n];
        let before = pack_stats();
        matmul_into_with_threads(&a, &b, &mut out, m, k, n, 1);
        let after = pack_stats();
        assert!(after.calls - before.calls >= 2, "one a-pack and one b-pack");
        // Padded panel sizes: b packs ceil(n/NR)*NR columns, a packs
        // ceil(m/MR)*MR rows, both over all k.
        let min_elems = (n.div_ceil(NR) * NR * k + m.div_ceil(MR) * MR * k) as u64;
        assert!(after.elems - before.elems >= min_elems);
    }

    #[test]
    fn pack_pool_classes_are_pool_sized() {
        let [ca, cb] = pack_pool_classes();
        assert_eq!(1usize << ca, MC * KC);
        assert_eq!(1usize << cb, KC * NC);
    }
}
