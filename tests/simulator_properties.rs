//! Property tests over the simulator and planner: physical sanity of every
//! simulated quantity for arbitrary valid configurations.

use proptest::prelude::*;

use chimera::core::baselines::{dapple, gpipe};
use chimera::core::chimera::{chimera, ChimeraConfig};
use chimera::core::schedule::SyncStrategy;
use chimera::core::sync::place_sync;
use chimera::core::unit_time::UnitCosts;
use chimera::perf::planner::{depth_candidates, evaluate, sweep, PlanScheme};
use chimera::perf::{ClusterSpec, ModelSpec, StructureTable, TrainConfig};
use chimera::sim::simulate;
use chimera::verify::memory_v2;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Simulated iteration time is at least the busiest worker's compute
    /// time; the bubble ratio lies in [0, 1); the coarse memory bound is an
    /// upper bound on the exact peak on every worker.
    #[test]
    fn simulation_physical_sanity(
        dh in 1u32..5,
        n_mult in 1u32..4,
        w_exp in 0u32..5,
        b_exp in 0u32..4,
    ) {
        let d = 2 * dh;
        let n = d * n_mult;
        let w = 1u32 << w_exp;
        let b = 1u32 << b_exp;
        let sched = place_sync(
            chimera(&ChimeraConfig::new(d, n)).unwrap(),
            SyncStrategy::EagerOpt,
            UnitCosts::practical(),
        );
        let cost = TrainConfig {
            model: ModelSpec::bert48(),
            cluster: ClusterSpec::piz_daint(),
            d,
            w,
            b,
            stage_replicas: 2,
        }
        .cost_model();
        let rep = simulate(&sched, &cost).unwrap();
        let max_busy = rep.busy_s.iter().copied().fold(0.0, f64::max);
        prop_assert!(rep.iter_time_s >= max_busy - 1e-9);
        prop_assert!((0.0..1.0).contains(&rep.bubble_ratio));
        for wm in &memory_v2(&sched, &cost).workers {
            prop_assert!(wm.coarse_bound_bytes >= wm.exact_peak_bytes);
        }
        prop_assert!(rep.throughput((n as u64) * (b as u64) * (w as u64)) > 0.0);
    }

    /// More micro-batches never slow a synchronous pipeline's per-sample
    /// rate (bubbles amortize).
    #[test]
    fn throughput_monotone_in_n(dh in 1u32..5, b_exp in 0u32..3) {
        let d = 2 * dh;
        let b = 1u32 << b_exp;
        let cost = TrainConfig {
            model: ModelSpec::bert48(),
            cluster: ClusterSpec::piz_daint(),
            d,
            w: 1,
            b,
            stage_replicas: 1,
        }
        .cost_model();
        let mut last = 0.0f64;
        for n_mult in [1u32, 2, 4] {
            let n = d * n_mult;
            let rep = simulate(&dapple(d, n), &cost).unwrap();
            let per_sample = rep.iter_time_s / n as f64;
            if last > 0.0 {
                prop_assert!(per_sample <= last * 1.001, "n={n}: {per_sample} vs {last}");
            }
            last = per_sample;
        }
    }

    /// GPipe's simulated peak memory is never below DAPPLE's at the same
    /// configuration (it stashes N ≥ min(D, N) micro-batches).
    #[test]
    fn gpipe_memory_dominates_dapple(dh in 1u32..5, n_mult in 1u32..4) {
        let d = 2 * dh;
        let n = d * n_mult;
        let cost = TrainConfig {
            model: ModelSpec::bert48(),
            cluster: ClusterSpec::piz_daint(),
            d,
            w: 2,
            b: 2,
            stage_replicas: 1,
        }
        .cost_model();
        let peak = |sched| memory_v2(&sched, &cost).max_exact_peak();
        prop_assert!(peak(gpipe(d, n)) >= peak(dapple(d, n)));
    }
}

/// Planner invariants on a fixed, representative setup.
#[test]
fn planner_invariants() {
    let model = ModelSpec::bert48();
    let cluster = ClusterSpec::piz_daint();
    let (p, b_hat) = (32u32, 512u64);
    for d in depth_candidates(p, &model) {
        assert_eq!(p % d, 0);
        assert!(d as usize <= model.layers as usize);
    }
    for scheme in [
        PlanScheme::GPipe,
        PlanScheme::Dapple,
        PlanScheme::PipeDream2Bw,
    ] {
        let cands = sweep(scheme, model, cluster, p, b_hat);
        assert!(!cands.is_empty(), "{}", scheme.label());
        for c in &cands {
            assert!(c.fits, "sweep only returns fitting configs");
            assert!(c.throughput > 0.0);
            assert_eq!(c.w * c.d, p);
        }
        // Sorted best-first (PipeDream sorts by B̂ first).
        if scheme != PlanScheme::PipeDream {
            for pair in cands.windows(2) {
                assert!(pair[0].throughput >= pair[1].throughput);
            }
        }
    }
    // evaluate() agrees with sweep on a point it contains.
    let best = &sweep(PlanScheme::Dapple, model, cluster, p, b_hat)[0];
    let again = evaluate(
        &StructureTable::new(),
        PlanScheme::Dapple,
        model,
        cluster,
        p,
        b_hat,
        best.w,
        best.d,
        best.b,
    )
    .unwrap()
    .unwrap();
    assert!((again.throughput - best.throughput).abs() < 1e-6);
}
