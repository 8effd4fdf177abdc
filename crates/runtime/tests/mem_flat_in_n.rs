//! Pipeline memory does not grow with the number of micro-batches.
//!
//! Each backward hands its gradient to the stage's keyed group at once and
//! the group folds it, so a worker holds one gradient at a time, not one
//! per micro-batch until the launch. What a worker holds across ops is then
//! its stashes and weight versions alone, which Chimera and DAPPLE bound by
//! `D`, not `N`: the tracked high-water mark and the static liveness peak
//! must both come out the same at every `N`.

use chimera_core::named::build_named;
use chimera_nn::{ModelConfig, Stage};
use chimera_runtime::{mem, train, TrainOptions};

fn cfg() -> ModelConfig {
    ModelConfig {
        layers: 4,
        ..ModelConfig::tiny()
    }
}

/// Per worker `(runtime high-water, static peak)` of `scheme` at `D = 2`.
fn peaks(scheme: &str, n: u32) -> Vec<(u64, u64)> {
    let sched = build_named(scheme, 2, n).expect("known scheme");
    let opts = TrainOptions {
        micro_batch: 1,
        iterations: 2,
        ..TrainOptions::default()
    };
    let fp = mem::ModelFootprint::probe(&Stage::build_all(cfg(), 2), opts.micro_batch);
    let plans = mem::plan(&sched, &fp);
    let res = train(&sched, cfg(), opts).expect("trains");
    (res.mem.iter().zip(&plans))
        .map(|(report, plan)| (report.high_water_elems, plan.static_peak_elems))
        .collect()
}

#[test]
fn worker_memory_is_the_same_at_every_n() {
    for (scheme, ns) in [("chimera", &[2u32, 8, 32][..]), ("dapple", &[2, 8])] {
        let at: Vec<_> = ns.iter().map(|&n| (n, peaks(scheme, n))).collect();
        let (n0, first) = &at[0];
        for (n, peaks) in &at {
            for (w, &(high_water, static_peak)) in peaks.iter().enumerate() {
                assert_eq!(
                    high_water, static_peak,
                    "{scheme} N={n} w{w}: runtime high-water != static peak"
                );
            }
            assert_eq!(
                peaks, first,
                "{scheme}: per-worker peaks at N={n} differ from N={n0}"
            );
        }
    }
}
