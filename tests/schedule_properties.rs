//! Property-based tests over the schedule generators: every generated
//! schedule, for every scheme and any valid (D, N, f, scaling method), must
//! validate (lowers without a defect — every forward meets its backward,
//! every message its counterpart, sync balanced and on time — and executes
//! without deadlock), respect the Table 2/3 memory bounds, and hit the
//! closed-form bubble counts where the paper states them exactly.

use proptest::prelude::*;

use chimera::core::baselines::{dapple, gems, gpipe, pipedream_2bw_steady, pipedream_steady};
use chimera::core::chimera::{chimera, ChimeraConfig, ScaleMethod};
use chimera::core::program::lower;
use chimera::core::schedule::{Schedule, SyncStrategy};
use chimera::core::sync::place_sync;
use chimera::core::unit_time::{execute, UnitCosts};
use chimera::verify::verify_span;

/// The schedule lowers without a defect and runs to completion.
fn validate(sched: &Schedule) -> Result<(), String> {
    match lower(sched, 1).defects.first() {
        Some(defect) => Err(format!("{:?}: {defect:?}", sched.scheme)),
        None => execute(sched, UnitCosts::equal())
            .map(drop)
            .map_err(|e| e.to_string()),
    }
}

fn even(max_half: u32) -> impl Strategy<Value = u32> {
    (1..=max_half).prop_map(|x| 2 * x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chimera validates and meets Table 3's exact bubble count for every
    /// even D, f | D/2, N = D.
    #[test]
    fn chimera_basic_unit_bubbles_exact(d in even(16u32)) {
        let mut f = 1;
        while (d / 2).is_multiple_of(f) && f <= d / 2 {
            let sched = chimera(&ChimeraConfig { d, n: d, f, scale: ScaleMethod::Direct }).unwrap();
            validate(&sched).unwrap();
            let tl = execute(&sched, UnitCosts::equal()).unwrap();
            for b in tl.per_worker_bubbles() {
                prop_assert_eq!(b, (d / f - 2) as u64 * 2, "D={} f={}", d, f);
            }
            f *= 2;
        }
    }

    /// Chimera validates for any N (below, equal to, above D) and every
    /// scaling method; activation stash stays within Table 2's D·Ma bound
    /// (2D under forward doubling).
    #[test]
    fn chimera_any_n_validates_and_bounds_memory(
        d in even(8u32),
        n in 1u32..40,
        method in 0u8..3,
    ) {
        let scale = match method {
            0 => ScaleMethod::Direct,
            1 => ScaleMethod::ForwardDoubling,
            _ => ScaleMethod::BackwardHalving,
        };
        let sched = chimera(&ChimeraConfig { d, n, f: 1, scale }).unwrap();
        validate(&sched).unwrap();
        let cap = match scale {
            ScaleMethod::ForwardDoubling => 2.0 * d as f64,
            // Backward halving admits a 2D-micro unit; its stash stays near
            // D (Table 2: "does not increase the activation memory"), with
            // at most one extra micro in flight transiently.
            ScaleMethod::BackwardHalving => d as f64 + 1.0,
            ScaleMethod::Direct => d as f64,
        };
        for peak in &verify_span(&sched, 1).peak_activation_units {
            prop_assert!(*peak <= cap + 1e-9, "peak {} cap {}", peak, cap);
        }
        // Every micro visits every stage twice (fwd + bwd).
        prop_assert_eq!(sched.micros().len(), n as usize);
    }

    /// All sync strategies keep schedules valid for all schemes.
    #[test]
    fn sync_strategies_preserve_validity(
        d in even(6u32),
        n_mult in 1u32..4,
        strat in 0u8..3,
    ) {
        let n = d * n_mult;
        let strategy = match strat {
            0 => SyncStrategy::PostHoc,
            1 => SyncStrategy::Eager,
            _ => SyncStrategy::EagerOpt,
        };
        for sched in [
            chimera(&ChimeraConfig::new(d, n)).unwrap(),
            dapple(d, n),
            gpipe(d, n),
            gems(d, n),
        ] {
            let synced = place_sync(sched, strategy, UnitCosts::practical());
            validate(&synced).unwrap();
        }
    }

    /// GPipe and DAPPLE have identical makespans (same bubbles) but DAPPLE
    /// stashes at most min(D, N) micro-batches while GPipe stashes N.
    #[test]
    fn gpipe_dapple_tradeoff(d in 2u32..12, n_mult in 1u32..5) {
        let n = d * n_mult;
        let g = execute(&gpipe(d, n), UnitCosts::practical()).unwrap();
        let a = execute(&dapple(d, n), UnitCosts::practical()).unwrap();
        prop_assert_eq!(g.makespan, a.makespan);
        let peak0 = |sched| verify_span(&sched, 1).peak_activation_units[0];
        prop_assert!((peak0(gpipe(d, n)) - n as f64).abs() < 1e-9);
        prop_assert!(peak0(dapple(d, n)) <= d.min(n) as f64 + 1e-9);
    }

    /// Chimera's makespan never exceeds DAPPLE's for N = D (the bubble
    /// halving), at equal or practical workloads.
    #[test]
    fn chimera_not_slower_than_dapple_at_n_eq_d(d in even(16u32)) {
        let chim = chimera(&ChimeraConfig::new(d, d)).unwrap();
        for costs in [UnitCosts::equal(), UnitCosts::practical()] {
            let c = execute(&chim, costs).unwrap();
            let a = execute(&dapple(d, d), costs).unwrap();
            prop_assert!(c.makespan <= a.makespan, "D={}: {} vs {}", d, c.makespan, a.makespan);
        }
    }

    /// Async steady-state schedules validate at arbitrary unroll lengths.
    #[test]
    fn async_unrolled_validate(d in 2u32..8, n_mult in 1u32..4, iters in 1u32..4) {
        let n = d * n_mult;
        validate(&pipedream_steady(d, n, iters)).unwrap();
        validate(&pipedream_2bw_steady(d, n, iters)).unwrap();
    }

    /// Micro-batch splitting across the bidirectional pipelines is "as even
    /// as possible": per-replica forward counts on any worker differ by at
    /// most the pairing granularity.
    #[test]
    fn micro_split_is_balanced(d in even(8u32), n in 2u32..24) {
        let sched = chimera(&ChimeraConfig::new(d, n)).unwrap();
        // Count micros per replica.
        let mut per_replica = vec![0u32; 2];
        for m in sched.micros() {
            // Find the replica that forwards this micro at stage 0.
            for (_, _, op) in sched.iter_ops() {
                if op.is_forward() && op.stage.0 == 0 && op.covered_micros().any(|x| x == m) {
                    per_replica[op.replica.idx()] += 1;
                    break;
                }
            }
        }
        let diff = per_replica[0].abs_diff(per_replica[1]);
        prop_assert!(diff <= d, "split {:?}", per_replica);
    }
}
