//! Thread-local pooling of `Vec<f32>` backing stores.
//!
//! Training touches the same tensor shapes every micro-batch (activations,
//! gradients, parameter snapshots), so instead of round-tripping each buffer
//! through the global allocator, [`Tensor`](crate::Tensor) returns its
//! backing store here on drop and takes a recycled one on creation. After
//! one warm-up micro-batch the steady-state loop performs **zero heap
//! allocations** for tensor data (observable via [`stats`]'s hit rate).
//!
//! # Design
//!
//! * **Thread-local free lists.** Each thread owns its own pool, so `take`
//!   and `put` are lock-free `RefCell` operations. Buffers never migrate
//!   between threads through the pool; a buffer freed on a worker thread is
//!   reused by that worker. (Tensors themselves may still move across
//!   threads — only the *free list* is thread-local.)
//! * **Power-of-two size classes.** A buffer of capacity `c` is filed under
//!   class `floor(log2 c)`; a request for `len` takes from class
//!   `ceil(log2 len)`, which guarantees the recycled capacity covers the
//!   request. At most [`PER_CLASS`] buffers are retained per class (a
//!   [`prewarm`] driven by a liveness plan may raise a class's cap, bounded
//!   by [`MAX_PREWARM`]); overflow and oversized buffers are dropped
//!   (counted as `discards`).
//! * **Tiny buffers bypass the pool.** Requests under [`MIN_POOLED`] floats
//!   go straight to the allocator and are excluded from the hit/miss
//!   statistics — they are cheap and would otherwise drown the hit-rate
//!   signal the benches assert on.
//!
//! # Determinism and checkpoint/restore
//!
//! Pooling recycles *capacity*; contents reach only a caller that overwrites
//! them: [`take_zeroed`] fully re-zeroes, [`take_spare`] returns a length-0
//! buffer that callers must fill before reading, and [`take_stale`] hands a
//! recycled buffer back as it was to a caller that writes every element
//! before it reads one (a gradient built by `Write` epilogues) — debug
//! builds poison it with NaN, so a read before the write shows. Numeric
//! results are therefore independent of pool state, and checkpoints taken
//! mid-run are byte-identical with the pool on or off — fault recovery
//! restores parameters by value and never serializes pool state. Disabling
//! the pool ([`set_enabled`]`(false)`) degrades to plain allocation with no
//! behavior change.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Smallest buffer length (in floats) the pool manages; shorter requests go
/// straight to the allocator.
pub const MIN_POOLED: usize = 64;

/// Largest size class: `2^MAX_CLASS` floats (256 MiB). Bigger buffers are
/// never retained.
pub const MAX_CLASS: usize = 26;

/// Buffers retained per size class per thread. Sized above the peak number
/// of same-class buffers live at once in a training micro-batch (activations
/// cached across a transformer block's layers all land in a few classes);
/// a cap below that peak causes overflow discards at the end of every
/// iteration and a matching stream of steady-state misses. Retained memory
/// is bounded by the workload's own peak concurrency, never more than
/// `PER_CLASS` buffers per class.
pub const PER_CLASS: usize = 64;

/// Hard ceiling on plan-driven retention per class: [`prewarm`] may raise a
/// class's cap above [`PER_CLASS`] when a liveness plan proves more buffers
/// are concurrently held, but never beyond this.
pub const MAX_PREWARM: usize = 1024;

static ENABLED: AtomicBool = AtomicBool::new(true);

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RETURNS: AtomicU64 = AtomicU64::new(0);
static DISCARDS: AtomicU64 = AtomicU64::new(0);

/// One thread's entire pool state. Free lists, raised retention caps, and
/// the per-thread counters live in a **single** thread-local so the hot
/// `take`/`put` path costs one TLS address computation and one `RefCell`
/// borrow, not three of each (the previous three-slot layout — pool,
/// stats, caps — put two extra TLS round-trips on every buffer return and
/// showed up in the end-to-end bench as pool-on losing to pool-off).
struct LocalPool {
    /// Free lists indexed by size class.
    buckets: Vec<Vec<Vec<f32>>>,
    /// Per-class retention caps raised above [`PER_CLASS`] by [`prewarm`].
    caps: Vec<usize>,
    /// This thread's counters (see [`local_stats`]).
    stats: PoolStats,
}

impl LocalPool {
    const fn new() -> Self {
        LocalPool {
            buckets: Vec::new(),
            caps: Vec::new(),
            stats: PoolStats::new(),
        }
    }

    /// Effective retention cap of `class` on this thread.
    fn cap_of(&self, class: usize) -> usize {
        self.caps.get(class).copied().unwrap_or(0).max(PER_CLASS)
    }

    fn bucket_mut(&mut self, class: usize) -> &mut Vec<Vec<f32>> {
        if self.buckets.len() <= class {
            self.buckets.resize_with(class + 1, Vec::new);
        }
        &mut self.buckets[class]
    }
}

thread_local! {
    static LOCAL: RefCell<LocalPool> = const { RefCell::new(LocalPool::new()) };
}

/// Pop a recycled buffer for `class`, updating this thread's hit/miss
/// counters in the same borrow. `None` also when TLS is being torn down.
fn pop_counted(class: usize) -> Option<Vec<f32>> {
    LOCAL
        .try_with(|l| {
            let mut l = l.borrow_mut();
            let got = l.buckets.get_mut(class).and_then(Vec::pop);
            if got.is_some() {
                l.stats.hits += 1;
            } else {
                l.stats.misses += 1;
            }
            got
        })
        .unwrap_or(None)
}

/// Globally enable or disable pooling (default: enabled). Disabled, `take*`
/// allocate fresh and `put` drops — useful for isolating pool effects in
/// benches and tests.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether pooling is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Size class that can *satisfy* a request of `len` floats: `ceil(log2 len)`.
fn class_for_request(len: usize) -> usize {
    debug_assert!(len >= 1);
    len.next_power_of_two().trailing_zeros() as usize
}

/// Size class a buffer of capacity `cap` is *filed under*: `floor(log2 cap)`.
fn class_for_capacity(cap: usize) -> usize {
    debug_assert!(cap >= 1);
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

/// A recycled buffer of the class serving `len`, as it was put back, or a
/// new empty one of the class's full capacity (so it is maximally reusable
/// when it comes back); `None` when `len` bypasses the pool.
fn take_pooled(len: usize) -> Option<Vec<f32>> {
    if len < MIN_POOLED || !enabled() {
        return None;
    }
    let class = class_for_request(len);
    if class > MAX_CLASS {
        return None;
    }
    Some(match pop_counted(class) {
        Some(v) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            v
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            Vec::with_capacity(1 << class)
        }
    })
}

/// A zero-filled buffer of exactly `len` floats, recycled when possible.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    let Some(mut v) = take_pooled(len) else {
        return vec![0.0; len];
    };
    v.clear();
    v.resize(len, 0.0);
    v
}

/// An **empty** buffer with capacity for at least `len` floats; callers
/// `extend`/`push` exactly the data they mean to read back.
pub fn take_spare(len: usize) -> Vec<f32> {
    let Some(mut v) = take_pooled(len) else {
        return Vec::with_capacity(len);
    };
    v.clear();
    v
}

/// A buffer of exactly `len` floats for a caller that writes every element
/// before it reads one: a recycled buffer keeps its old contents, and only
/// the part past its old length is zero-filled, so nothing is cleared that
/// is about to be overwritten. Debug builds fill it with NaN instead, so an
/// element read before it is written shows.
pub fn take_stale(len: usize) -> Vec<f32> {
    let mut v = take_pooled(len).unwrap_or_default();
    v.resize(len, 0.0);
    if cfg!(debug_assertions) {
        v.fill(f32::NAN);
    }
    v
}

/// Return a buffer's backing store to the current thread's pool. Buffers
/// below [`MIN_POOLED`] capacity are dropped silently; oversized buffers and
/// overflow beyond [`PER_CLASS`] are dropped and counted as discards.
pub fn put(v: Vec<f32>) {
    let cap = v.capacity();
    if cap < MIN_POOLED || !enabled() {
        return;
    }
    let class = class_for_capacity(cap);
    if class > MAX_CLASS {
        DISCARDS.fetch_add(1, Ordering::Relaxed);
        let _ = LOCAL.try_with(|l| l.borrow_mut().stats.discards += 1);
        return;
    }
    // One TLS access covers the cap lookup, the push, and the counter
    // update. try_with: during thread teardown the slot may already be
    // gone; dropping the buffer then is fine.
    let stored = LOCAL
        .try_with(|l| {
            let mut l = l.borrow_mut();
            let cap = l.cap_of(class);
            let bucket = l.bucket_mut(class);
            let stored = bucket.len() < cap;
            if stored {
                bucket.push(v);
                l.stats.returns += 1;
            } else {
                l.stats.discards += 1;
            }
            stored
        })
        .unwrap_or(false);
    if stored {
        RETURNS.fetch_add(1, Ordering::Relaxed);
    } else {
        DISCARDS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Drop every buffer held by the **current thread's** pool (other threads'
/// pools are untouched). Mainly for tests that need a cold pool.
pub fn clear_local() {
    LOCAL.with(|l| l.borrow_mut().buckets.clear());
}

/// Cumulative pool counters (process-wide, all threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Pool-eligible requests served from a recycled buffer.
    pub hits: u64,
    /// Pool-eligible requests that fell through to the allocator.
    pub misses: u64,
    /// Buffers successfully returned to a free list.
    pub returns: u64,
    /// Buffers dropped on return (oversized or full bucket).
    pub discards: u64,
}

impl PoolStats {
    /// All-zero counters (`const` so the thread-local can be
    /// const-initialized).
    pub const fn new() -> Self {
        PoolStats {
            hits: 0,
            misses: 0,
            returns: 0,
            discards: 0,
        }
    }

    /// Fraction of pool-eligible requests served without allocating
    /// (`NaN`-free: 0.0 when there were no eligible requests).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Snapshot the pool counters.
pub fn stats() -> PoolStats {
    PoolStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        returns: RETURNS.load(Ordering::Relaxed),
        discards: DISCARDS.load(Ordering::Relaxed),
    }
}

/// Zero the pool counters (free lists are untouched).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    RETURNS.store(0, Ordering::Relaxed);
    DISCARDS.store(0, Ordering::Relaxed);
}

/// Snapshot the **current thread's** counters. Unlike [`stats`] these are
/// not shared across threads, so a worker can measure its own hit/miss
/// behavior (e.g. "zero misses in the first micro-batch") without races
/// against sibling workers.
pub fn local_stats() -> PoolStats {
    LOCAL.with(|l| l.borrow().stats)
}

/// The size class a pooled request of `len` floats is served from, or `None`
/// when the request bypasses the pool (too small or too large). This is the
/// class a pre-sizing plan must provision for that request.
pub fn class_of_request(len: usize) -> Option<usize> {
    if len < MIN_POOLED {
        return None;
    }
    let class = class_for_request(len);
    (class <= MAX_CLASS).then_some(class)
}

/// Number of spare buffers the current thread holds in `class`.
pub fn spare_count(class: usize) -> usize {
    LOCAL.with(|l| l.borrow().buckets.get(class).map_or(0, Vec::len))
}

/// Pre-warm the current thread's pool so `class` holds at least `count`
/// spare buffers (clamped to [`MAX_PREWARM`]), allocating the shortfall up
/// front. Pre-warming is provisioning, not traffic: it touches neither the
/// global nor the thread-local hit/miss counters, so a fully pre-warmed
/// first micro-batch reports zero misses. A target above [`PER_CLASS`] also
/// raises this thread's retention cap for the class — a liveness plan that
/// proves `count` buffers are concurrently held must be able to keep them
/// all through the return path, or steady state would discard and re-miss.
pub fn prewarm(class: usize, count: usize) {
    if class > MAX_CLASS || !enabled() {
        return;
    }
    let target = count.min(MAX_PREWARM);
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if target > PER_CLASS {
            if l.caps.len() <= class {
                l.caps.resize(class + 1, 0);
            }
            l.caps[class] = l.caps[class].max(target);
        }
        let bucket = l.bucket_mut(class);
        while bucket.len() < target {
            bucket.push(Vec::with_capacity(1 << class));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_and_rezeroes() {
        clear_local();
        let mut v = take_zeroed(1000);
        let cap = v.capacity();
        assert!(cap >= 1000);
        v.iter_mut().for_each(|x| *x = 7.0);
        put(v);
        let v2 = take_zeroed(900);
        // Same class (2^10) → must reuse the stored buffer and re-zero it.
        assert_eq!(v2.capacity(), cap);
        assert_eq!(v2.len(), 900);
        assert!(v2.iter().all(|&x| x == 0.0));
    }

    /// A stale buffer keeps what a recycled buffer held (release) or is
    /// NaN throughout (debug), and is zero past the recycled length.
    #[test]
    fn take_stale_keeps_contents_and_fills_the_tail() {
        std::thread::spawn(|| {
            set_enabled(true);
            let mut held = Vec::with_capacity(1024);
            held.resize(600, 7.0f32);
            put(held);
            let v = take_stale(1000);
            assert_eq!(v.len(), 1000);
            if cfg!(debug_assertions) {
                assert!(v.iter().all(|x| x.is_nan()));
            } else {
                assert!(v[..600].iter().all(|&x| x == 7.0));
                assert!(v[600..].iter().all(|&x| x == 0.0));
            }
            put(v);
            let v = take_stale(700);
            assert_eq!(v.len(), 700);
            assert_eq!(local_stats().misses, 0, "one buffer, recycled twice");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn take_spare_is_empty_with_capacity() {
        clear_local();
        put(Vec::with_capacity(256));
        let v = take_spare(200);
        assert!(v.is_empty());
        assert!(v.capacity() >= 200);
    }

    // Exact counter assertions live in `tests/pool_stats.rs`: the counters
    // are process-global, and unit tests in this binary run concurrently.

    #[test]
    fn tiny_buffers_bypass_pool() {
        clear_local();
        // A tiny put is dropped, so a following take can't see its buffer.
        put(vec![9.0f32; MIN_POOLED - 1]);
        let v = take_zeroed(MIN_POOLED - 1);
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(v.capacity(), MIN_POOLED - 1);
    }

    #[test]
    fn class_math_guarantees_capacity() {
        for len in [64usize, 65, 100, 127, 128, 129, 4096, 5000] {
            let class = class_for_request(len);
            assert!(
                (1usize << class) >= len,
                "class {class} too small for {len}"
            );
        }
        // A buffer filed under its capacity class always satisfies requests
        // routed to that class.
        for cap in [64usize, 100, 128, 200, 1024] {
            let fc = class_for_capacity(cap);
            assert!(cap >= (1 << fc));
        }
    }

    #[test]
    fn disabled_pool_allocates_fresh() {
        clear_local();
        set_enabled(false);
        put(Vec::with_capacity(1 << 12));
        let v = take_zeroed(1 << 12);
        assert_eq!(v.capacity(), 1 << 12);
        set_enabled(true);
    }

    #[test]
    fn prewarm_fills_class_without_counting_traffic() {
        // Run on a fresh thread: the pool and local counters are
        // thread-local, so this is isolated from concurrent tests.
        std::thread::spawn(|| {
            set_enabled(true);
            let class = class_for_request(1000);
            assert_eq!(spare_count(class), 0);
            prewarm(class, 3);
            assert_eq!(spare_count(class), 3);
            assert_eq!(local_stats(), PoolStats::new(), "prewarm is not traffic");
            // Three takes hit; the fourth misses.
            let a = take_zeroed(1000);
            let b = take_zeroed(1000);
            let c = take_zeroed(1000);
            let d = take_zeroed(1000);
            let s = local_stats();
            assert_eq!((s.hits, s.misses), (3, 1));
            for v in [a, b, c, d] {
                put(v);
            }
            assert_eq!(local_stats().returns, 4);
            // Prewarm tops up to the target, never shrinks.
            prewarm(class, 2);
            assert_eq!(spare_count(class), 4);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn prewarm_above_per_class_raises_retention_cap() {
        std::thread::spawn(|| {
            set_enabled(true);
            let class = class_for_request(2000);
            prewarm(class, PER_CLASS + 8);
            assert_eq!(spare_count(class), PER_CLASS + 8);
            // Every planned buffer survives a take/return round-trip — the
            // raised cap keeps what the plan proved is concurrently held.
            let vs: Vec<_> = (0..PER_CLASS + 8).map(|_| take_zeroed(2000)).collect();
            assert_eq!(local_stats().misses, 0);
            for v in vs {
                put(v);
            }
            assert_eq!(local_stats().discards, 0);
            assert_eq!(spare_count(class), PER_CLASS + 8);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn class_of_request_bounds() {
        assert_eq!(class_of_request(MIN_POOLED - 1), None);
        assert_eq!(class_of_request(MIN_POOLED), Some(6));
        assert_eq!(class_of_request(1000), Some(10));
        assert_eq!(class_of_request(1 << (MAX_CLASS + 1)), None);
    }

    #[test]
    fn hit_rate_handles_empty() {
        assert_eq!(PoolStats::default().hit_rate(), 0.0);
        let s = PoolStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
