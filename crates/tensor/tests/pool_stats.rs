//! Exact accounting of the pool and kernel counters.
//!
//! These counters are process-global, so every assertion lives in this one
//! test function — cargo gives the binary its own process, and a single
//! `#[test]` keeps the sequence of pool operations deterministic.

use chimera_tensor::{kernels, pool};

#[test]
fn exact_counter_accounting() {
    pool::clear_local();
    pool::reset_stats();
    kernels::reset_stats();

    // Tiny buffers bypass the pool entirely: no stats movement.
    let tiny = pool::take_zeroed(pool::MIN_POOLED - 1);
    pool::put(tiny);
    let s = pool::stats();
    assert_eq!((s.hits, s.misses, s.returns, s.discards), (0, 0, 0, 0));

    // Cold take = miss; put = return; warm take = hit.
    let v = pool::take_zeroed(1000);
    assert_eq!(pool::stats().misses, 1);
    pool::put(v);
    assert_eq!(pool::stats().returns, 1);
    let v = pool::take_zeroed(600); // same 2^10 class
    assert_eq!(pool::stats().hits, 1);
    pool::put(v); // returns = 2

    // Bucket overflow counts discards (class 2^7 starts empty).
    for _ in 0..pool::PER_CLASS + 2 {
        pool::put(vec![0.0f32; 128]);
    }
    let s = pool::stats();
    assert_eq!(s.returns, 2 + pool::PER_CLASS as u64);
    assert_eq!(s.discards, 2);

    // Steady state: after one warm-up round, the same shape sequence is all
    // hits — the "zero allocations per micro-batch" property the runtime
    // benches assert via hit rate.
    pool::clear_local();
    pool::reset_stats();
    let shapes = [4096usize, 1024, 4096, 2048];
    for round in 0..5 {
        let bufs: Vec<Vec<f32>> = shapes.iter().map(|&n| pool::take_zeroed(n)).collect();
        for b in bufs {
            pool::put(b);
        }
        if round == 0 {
            assert_eq!(pool::stats().misses, shapes.len() as u64);
        }
    }
    let s = pool::stats();
    assert_eq!(s.misses, shapes.len() as u64, "warm rounds must not miss");
    assert_eq!(s.hits, 4 * shapes.len() as u64);
    assert!(s.hit_rate() > 0.79 && s.hit_rate() < 0.81);

    // Kernel counters: one call, exactly 2·m·k·n flops, no nanos untimed.
    kernels::reset_stats();
    let a = vec![1.0f32; 8 * 16];
    let b = vec![1.0f32; 16 * 4];
    let mut out = vec![0.0f32; 8 * 4];
    kernels::matmul_into(&a, &b, &mut out, 8, 16, 4);
    let ks = kernels::stats();
    assert_eq!(ks.calls, 1);
    assert_eq!(ks.flops, 2 * 8 * 16 * 4);
    assert_eq!(ks.nanos, 0);
    assert_eq!(ks.gflops(), None);
    kernels::set_timing(true);
    kernels::matmul_into(&a, &b, &mut out, 8, 16, 4);
    kernels::set_timing(false);
    let ks = kernels::stats();
    assert_eq!(ks.calls, 2);
    assert!(ks.nanos > 0);
    assert!(ks.gflops().is_some());

    // Pack accounting, exact. One cell packs one `b` slab per (column
    // panel, depth slab) and one `a` stripe per row stripe of each, every
    // panel padded to whole `NR = 32`- or `MR = 8`-wide lanes: here two
    // depth slabs of a 9×33 output, so 2 + 2 calls and (64 + 16)·k elements
    // — the same for all three products, `a·bᵀ` packing its transposed
    // operand like any other.
    let (m, k, n) = (kernels::MR + 1, kernels::KC + 40, kernels::NR + 1);
    let (a, b) = (vec![1.0f32; m * k], vec![1.0f32; k * n]);
    let mut out = vec![0.0f32; m * n];
    let padded = (n.next_multiple_of(kernels::NR) + m.next_multiple_of(kernels::MR)) * k;
    assert_eq!(padded, (64 + 16) * k);
    type Product = fn(&[f32], &[f32], &mut [f32], usize, usize, usize, usize);
    let products: [Product; 3] = [
        kernels::matmul_into_with_threads,
        |a, b, out, m, k, n, t| kernels::t_matmul_into_with_threads(a, b, out, k, m, n, t),
        kernels::matmul_t_into_with_threads,
    ];
    for product in products {
        kernels::reset_stats();
        product(&a, &b, &mut out, m, k, n, 1);
        let ps = kernels::pack_stats();
        assert_eq!((ps.calls, ps.elems), (4, padded as u64));
    }
    // There is no small path: the dispatching entries pack too, however
    // small the product (one slab, one stripe), and draw both pack classes
    // from the pool — two misses cold, then hits.
    let (m, k, n) = (8usize, 16usize, 4usize);
    kernels::reset_stats();
    pool::clear_local();
    pool::reset_stats();
    kernels::matmul_into(&a[..m * k], &b[..k * n], &mut out[..m * n], m, k, n);
    kernels::t_matmul_into(&a[..k * m], &b[..k * n], &mut out[..m * n], k, m, n);
    kernels::matmul_t_into(&a[..m * k], &b[..n * k], &mut out[..m * n], m, k, n);
    let ps = kernels::pack_stats();
    assert_eq!((ps.calls, ps.elems), (6, 3 * ((32 + 8) * k) as u64));
    let ps = pool::stats();
    assert_eq!((ps.misses, ps.hits, ps.returns), (2, 4, 6));

    // A batched call is one call whatever the batch, with the flops of the
    // tiles it computes: all of them, or with a triangular hint those at
    // and below the diagonal tile by tile — 8-row tiles of 8-column panels,
    // so 1 + 2 + 3 of the 3 + 3 + 3 tiles of a 24×24 output.
    kernels::reset_stats();
    let (s, d) = (24usize, 16usize);
    let src = vec![1.0f32; s * d];
    let q = kernels::Operand {
        data: &src,
        ld: d,
        trans: false,
    };
    let kt = kernels::Operand { trans: true, ..q };
    let mut scores = vec![0.0f32; 3 * s * s];
    let batch = [[0, 0, 0], [0, 0, s * s], [0, 0, 2 * s * s]];
    for (calls, tri, tiles) in [
        (1, kernels::Triangle::Full, 9),
        (2, kernels::Triangle::LowerOut, 6),
    ] {
        let before = kernels::stats().flops;
        kernels::gemm_batch((s, d, s), q, kt, &mut scores, s, &batch, tri);
        let ks = kernels::stats();
        assert_eq!(ks.calls, calls);
        assert_eq!(ks.flops - before, 3 * tiles * 2 * 8 * 8 * d as u64);
    }
    // An output at least `NR` wide runs on the microkernel's tile where the
    // level has a vector body, and both counters follow the tile that ran:
    // 8-row tiles of 32-column panels — under `LowerOut` 1, 1, 1, 1, 2, 2,
    // 2, 2 of the 2 per stripe of a 64×64 output — and per item one packed
    // `b` block and one packed `a` block, `(64 + 64)·d` elements.
    if kernels::simd_level() > kernels::SimdLevel::Scalar {
        let s = 64usize;
        let src = vec![1.0f32; s * d];
        let q = kernels::Operand { data: &src, ..q };
        let kt = kernels::Operand { trans: true, ..q };
        let mut scores = vec![0.0f32; 2 * s * s];
        let batch = [[0, 0, 0], [0, 0, s * s]];
        for (tri, tiles) in [
            (kernels::Triangle::Full, 16),
            (kernels::Triangle::LowerOut, 12),
        ] {
            kernels::reset_stats();
            kernels::gemm_batch((s, d, s), q, kt, &mut scores, s, &batch, tri);
            assert_eq!(kernels::stats().flops, 2 * tiles * 2 * 8 * 32 * d as u64);
            let ps = kernels::pack_stats();
            assert_eq!((ps.calls, ps.elems), (4, (2 * (s + s) * d) as u64));
        }
    }
    // One pool scratch per call, recycled: a miss, then a hit.
    pool::clear_local();
    pool::reset_stats();
    for _ in 0..2 {
        kernels::gemm_batch(
            (s, d, s),
            q,
            kt,
            &mut scores,
            s,
            &batch,
            kernels::Triangle::Full,
        );
    }
    let ps = pool::stats();
    assert_eq!((ps.misses, ps.hits, ps.returns), (1, 1, 2));
}
