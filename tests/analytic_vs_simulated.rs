//! Table 2 / Table 3 cross-checks: the closed-form bubble and memory
//! formulas must agree with measured executions of the actual schedules.

use proptest::prelude::*;

use chimera::core::analysis::{
    chimera_practical_bubble_ratio, onedir_practical_bubble_ratio, table2, table3,
};
use chimera::core::baselines::{dapple, gems, gpipe, pipedream, pipedream_2bw_steady};
use chimera::core::chimera::{chimera, ChimeraConfig, ScaleMethod};
use chimera::core::program::{lower, Program};
use chimera::core::repeat::concat_iterations;
use chimera::core::schedule::{Schedule, Scheme};
use chimera::core::unit_time::{execute, UnitCosts};
use chimera::verify::verify_span;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// GPipe/DAPPLE practical bubble ratio == (D-1)/(N+D-1) exactly.
    #[test]
    fn onedirectional_bubble_formula(d in 2u32..12, n_mult in 1u32..6) {
        let n = d * n_mult;
        for sched in [gpipe(d, n), dapple(d, n)] {
            let tl = execute(&sched, UnitCosts::practical()).unwrap();
            let expected = onedir_practical_bubble_ratio(d, n);
            prop_assert!((tl.bubble_ratio() - expected).abs() < 1e-9);
        }
    }

    /// Chimera practical bubble ratio at N = D == (D-2)/(3N/2+D-2) exactly
    /// (Fig. 2 caption).
    #[test]
    fn chimera_practical_formula(dh in 1u32..10) {
        let d = 2 * dh;
        let tl = execute(
            &chimera(&ChimeraConfig::new(d, d)).unwrap(),
            UnitCosts::practical(),
        )
        .unwrap();
        prop_assert!((tl.bubble_ratio() - chimera_practical_bubble_ratio(d, d)).abs() < 1e-9);
    }

    /// Table 3's equal-workload ratio (D-2f)/(2fN + D-2f) is exact for every
    /// valid f at N = D.
    #[test]
    fn table3_exact(dh in 2u32..12) {
        let d = 2 * dh;
        let mut f = 1;
        while (d / 2) % f == 0 && f <= d / 2 {
            let sched = chimera(&ChimeraConfig { d, n: d, f, scale: ScaleMethod::Direct }).unwrap();
            let tl = execute(&sched, UnitCosts::equal()).unwrap();
            let expected = table3(d, d, f).bubble_ratio;
            prop_assert!(
                (tl.bubble_ratio() - expected).abs() < 1e-9,
                "D={} f={}: {} vs {}", d, f, tl.bubble_ratio(), expected
            );
            f *= 2;
        }
    }

    /// Activation-memory intervals of Table 2/3 hold as measured bounds.
    #[test]
    fn activation_intervals(dh in 1u32..8) {
        let d = 2 * dh;
        let n = d;
        // Chimera: [(D - D/2f + 1) Ma, D Ma].
        for f in [1u32, 2] {
            if (d / 2) % f != 0 { continue; }
            let a = table3(d, n, f);
            let sched = chimera(&ChimeraConfig { d, n, f, scale: ScaleMethod::Direct }).unwrap();
            for peak in &verify_span(&sched, 1).peak_activation_units {
                prop_assert!(*peak >= a.activations_memory.0 - 1e-9, "f={} low {}", f, peak);
                prop_assert!(*peak <= a.activations_memory.1 + 1e-9, "f={} high {}", f, peak);
            }
        }
        // DAPPLE: [Ma, min(D, N) Ma].
        let a = table2(Scheme::Dapple, d, n);
        for peak in &verify_span(&dapple(d, n), 1).peak_activation_units {
            prop_assert!(*peak >= a.activations_memory.0 - 1e-9);
            prop_assert!(*peak <= a.activations_memory.1 + 1e-9);
        }
    }
}

/// GEMS's bubble ratio matches Table 2's (D-1)/(D+1/2) within ~12% and is
/// insensitive to N (our reconstruction squeezes slightly more overlap out
/// of small depths than the formula credits).
#[test]
fn gems_bubble_vs_table2() {
    for d in [8u32, 16] {
        let expected = table2(Scheme::Gems, d, 8).bubble_ratio;
        for n in [8u32, 32] {
            let tl = execute(&gems(d, n), UnitCosts::practical()).unwrap();
            let err = (tl.bubble_ratio() - expected).abs() / expected;
            assert!(
                err < 0.12,
                "D={d} N={n}: {} vs {expected}",
                tl.bubble_ratio()
            );
        }
    }
    // At D=4 our reconstruction overlaps a bit more than the formula
    // credits, but stays bubble-dominated.
    let tl = execute(&gems(4, 16), UnitCosts::practical()).unwrap();
    assert!(tl.bubble_ratio() > 0.5 && tl.bubble_ratio() < 0.7);
}

/// Weight-version requirements match Table 2: PipeDream [Mθ, D·Mθ],
/// PipeDream-2BW 2Mθ, synchronous schemes 1 per held replica — read off the
/// rows the runtime executes: one live copy per held replica plus the slots
/// lowering parks superseded versions in. A backward reading a parked version
/// is the "not convergence friendly" column.
#[test]
fn weight_versions_match_table2() {
    let d = 6;
    let n = 12;
    let copies = |sched: &Schedule, iterations| -> Vec<usize> {
        let lowered = lower(sched, iterations);
        assert_eq!(lowered.defects, [], "{:?}", sched.scheme);
        let per_worker = lowered.programs.iter();
        per_worker.map(|p| p.held.len() + p.version_slots).collect()
    };
    let stale = |sched: &Schedule, iterations| {
        let programs = lower(sched, iterations).programs;
        let mut rows = programs.iter().flat_map(|p| p.rows.iter());
        rows.any(|row| row.covered().iter().any(|cov| cov.version_slot.is_some()))
    };

    let pd = concat_iterations(&pipedream(d, n), 3, false);
    assert_eq!(copies(&pd, 3).into_iter().max(), Some(d as usize));
    assert_eq!(copies(&pd, 3).into_iter().min(), Some(1));
    assert!(stale(&pd, 3), "PipeDream uses stale weights");

    let bw = pipedream_2bw_steady(d, n, 4);
    assert_eq!(copies(&bw, 4).into_iter().max(), Some(2));
    assert!(stale(&bw, 4), "2BW uses stale weights");

    for sched in [
        gpipe(d, n),
        dapple(d, n),
        chimera(&ChimeraConfig::new(d, n)).unwrap(),
    ] {
        let held = |p: &Program| p.held.len();
        let one_each: Vec<usize> = lower(&sched, 1).programs.iter().map(held).collect();
        let many = concat_iterations(&sched, 3, false);
        assert_eq!(copies(&many, 3), one_each, "{:?}", sched.scheme);
        assert!(!stale(&many, 3), "{:?}", sched.scheme);
        // No forward reads weights an update overwrites before its backward.
        assert!(verify_span(&many, 3).is_clean(), "{:?}", sched.scheme);
    }
}

/// The bubble *count* claim of the abstract: Chimera reduces bubbles by up
/// to 50% vs DAPPLE/GPipe (D-2 vs 2(D-1) slots).
#[test]
fn fifty_percent_bubble_reduction() {
    for d in [4u32, 8, 16, 32] {
        let chim = execute(
            &chimera(&ChimeraConfig::new(d, d)).unwrap(),
            UnitCosts::equal(),
        )
        .unwrap()
        .per_worker_bubbles()[0];
        let dap = execute(&dapple(d, d), UnitCosts::equal())
            .unwrap()
            .per_worker_bubbles()[0];
        let reduction = 1.0 - chim as f64 / dap as f64;
        assert!(
            reduction >= 0.45,
            "D={d}: chimera {chim} vs dapple {dap} ({reduction:.2})"
        );
    }
}
