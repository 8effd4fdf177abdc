//! Quickstart: generate a Chimera schedule, look at it, simulate it, and
//! train a real model with it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use chimera::core::baselines::dapple;
use chimera::core::chimera::{chimera, ChimeraConfig};
use chimera::core::render;
use chimera::core::schedule::SyncStrategy;
use chimera::core::sync::place_sync;
use chimera::core::unit_time::{execute, UnitCosts};
use chimera::nn::{ModelConfig, ReferenceTrainer, Stage, SyntheticData};
use chimera::perf::{ClusterSpec, ModelSpec, TrainConfig};
use chimera::runtime::{train, TrainOptions};
use chimera::sim::simulate;
use chimera::verify::{memory_v2, verify_span};

fn main() {
    // ------------------------------------------------------------------
    // 1. The paper's Figure 3/5 schedule: D = 4 stages, N = 4 micro-batches,
    //    two pipelines in opposite directions through the same workers.
    // ------------------------------------------------------------------
    let sched = chimera(&ChimeraConfig::new(4, 4)).expect("valid config");
    println!("Chimera D=4 N=4 (backward = 2x forward):\n");
    let tl = execute(&sched, UnitCosts::practical()).expect("executes");
    println!("{}", render::render(&tl));
    let peak_act = verify_span(&sched, 1).peak_activation_units;
    println!("{}\n", render::summary(&tl, &peak_act));

    // Compare with DAPPLE (1F1B + flush): twice the bubbles.
    let tl_dapple = execute(&dapple(4, 4), UnitCosts::practical()).expect("executes");
    println!(
        "bubble ratio: Chimera {:.3} vs DAPPLE {:.3} (Table 2: (D-2)/(3N/2+D-2) vs (D-1)/(N+D-1))\n",
        tl.bubble_ratio(),
        tl_dapple.bubble_ratio()
    );

    // ------------------------------------------------------------------
    // 2. Simulate the schedule as Bert-48 on Piz Daint (P100 + Aries).
    // ------------------------------------------------------------------
    let cost = TrainConfig {
        model: ModelSpec::bert48(),
        cluster: ClusterSpec::piz_daint(),
        d: 4,
        w: 8,
        b: 8,
        stage_replicas: 2,
    }
    .cost_model();
    let synced = place_sync(
        sched.clone(),
        SyncStrategy::EagerOpt,
        UnitCosts::practical(),
    );
    let report = simulate(&synced, &cost).expect("simulates");
    println!(
        "Simulated on 32 P100 nodes (W=8, B=8): {:.3} s/iteration, {:.0} samples/s, peak {:.1} GiB",
        report.iter_time_s,
        report.throughput(8 * 8 * 4),
        memory_v2(&synced, &cost).max_exact_peak() as f64 / (1u64 << 30) as f64
    );

    // ------------------------------------------------------------------
    // 3. Train a real (tiny) GPT-style model with the same schedule, one
    //    thread per worker — and verify the result is bit-identical to
    //    sequential mini-batch SGD.
    // ------------------------------------------------------------------
    let cfg = ModelConfig::tiny();
    let opts = TrainOptions {
        micro_batch: 2,
        iterations: 5,
        lr: 0.05,
        momentum: 0.9,
        data_seed: 42,
        ..TrainOptions::default()
    };
    let result = train(&sched, cfg, opts.clone()).expect("training succeeds");
    println!("\nPipelined training losses: {:?}", result.iteration_losses);

    let mut reference = ReferenceTrainer::new(
        Stage::build_all(cfg, 4),
        SyntheticData::new(cfg, opts.data_seed),
        opts.micro_batch,
        opts.lr,
        opts.momentum,
    );
    for it in 0..opts.iterations {
        reference.train_iteration(it as u64 * sched.n as u64, sched.n);
    }
    assert_eq!(
        result.flat_params(),
        reference.flat_params(),
        "synchronous pipeline must equal sequential SGD bit-for-bit"
    );
    println!("✓ pipelined parameters are bit-identical to sequential mini-batch SGD");
}
