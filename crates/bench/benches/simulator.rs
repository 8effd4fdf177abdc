//! Criterion: discrete-event simulator throughput.

// criterion_group! expands to an undocumented public fn.
#![allow(missing_docs)]
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use chimera_core::baselines::{dapple, pipedream_2bw_steady};
use chimera_core::chimera::ScaleMethod;
use chimera_core::chimera::{chimera, ChimeraConfig};
use chimera_core::program::lower;
use chimera_core::schedule::SyncStrategy;
use chimera_core::sync::place_sync;
use chimera_core::unit_time::{execute, UnitCosts};
use chimera_perf::planner::{batch_candidates, depth_candidates};
use chimera_perf::{evaluate, ClusterSpec, ModelSpec, PlanScheme, StructureTable, TrainConfig};
use chimera_sim::{simulate, simulate_span};
use chimera_verify::liveness::analyze;
use chimera_verify::{comm_lint, memory_v2, verify_span, verify_states, verify_with_memory};

fn bench_simulate(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulate_iteration");
    for (d, n) in [(4u32, 4u32), (8, 32), (16, 64), (32, 32)] {
        let sched = place_sync(
            chimera(&ChimeraConfig::new(d, n)).unwrap(),
            SyncStrategy::EagerOpt,
            UnitCosts::practical(),
        );
        let cost = TrainConfig {
            model: ModelSpec::bert48(),
            cluster: ClusterSpec::piz_daint(),
            d,
            w: 512 / d,
            b: 4,
            stage_replicas: 2,
        }
        .cost_model();
        g.bench_with_input(
            BenchmarkId::new("chimera", format!("d{d}_n{n}")),
            &(sched, cost),
            |bench, (sched, cost)| {
                bench.iter(|| simulate(black_box(sched), black_box(cost)).unwrap());
            },
        );
    }
    g.finish();
}

/// The static passes of the planning path next to their ceiling: what
/// `simulate_span` pays to *execute* the same ops. Every row of a schedule
/// reports time per op, so a pass's ratio to the ceiling is two numbers
/// apart.
fn bench_planning_passes(c: &mut Criterion) {
    let mut g = c.benchmark_group("planning_passes");
    g.sample_size(20);
    for d in [8u32, 16] {
        let n = 8 * d;
        let synced = |s| place_sync(s, SyncStrategy::EagerOpt, UnitCosts::practical());
        // (label, schedule as the planner lowers it, iterations its span
        // covers, the planner's name for the scheme)
        let direct = PlanScheme::Chimera {
            f: 1,
            scale: ScaleMethod::Direct,
        };
        let cases = [
            ("dapple", synced(dapple(d, n)), 1, PlanScheme::Dapple),
            (
                "chimera",
                synced(chimera(&ChimeraConfig::new(d, n)).unwrap()),
                1,
                direct,
            ),
            (
                "pipedream_2bw_x6",
                pipedream_2bw_steady(d, n, 6).with_recompute(),
                6,
                PlanScheme::PipeDream2Bw,
            ),
        ];
        let (model, cluster) = (ModelSpec::bert48(), ClusterSpec::piz_daint());
        let (w, b) = (2u32, 4u32);
        for (name, sched, iters, scheme) in cases {
            let cost = TrainConfig {
                model,
                cluster,
                d,
                w,
                b,
                stage_replicas: sched.placement.replicas(),
            }
            .cost_model();
            let ops: usize = sched.workers.iter().map(Vec::len).sum();
            g.throughput(Throughput::Elements(ops as u64));
            let id = |pass| BenchmarkId::new(pass, format!("{name}_d{d}_n{n}"));
            g.bench_with_input(id("simulate_span"), &sched, |b, s| {
                b.iter(|| simulate_span(black_box(s), &cost, iters).unwrap());
            });
            g.bench_with_input(id("execute"), &sched, |b, s| {
                b.iter(|| execute(black_box(s), UnitCosts::practical()).unwrap());
            });
            g.bench_with_input(id("comm_lint"), &sched, |b, s| {
                b.iter(|| comm_lint::lint(black_box(s)));
            });
            g.bench_with_input(id("verify_span"), &sched, |b, s| {
                b.iter(|| verify_span(black_box(s), iters));
            });
            // What a verified plan pays on top: the one lowering, a liveness
            // report from scratch (lower + price, live ranges kept), memory
            // from scratch (lower + a size-free pass per worker + pricing its
            // states), the pricing every candidate pays (the states a shape
            // keeps, priced in bytes), and the whole gate.
            g.bench_with_input(id("lower"), &sched, |b, s| {
                b.iter(|| lower(black_box(s), iters));
            });
            g.bench_with_input(id("liveness"), &sched, |b, s| {
                b.iter(|| analyze(black_box(s), &cost));
            });
            g.bench_with_input(id("memory_v2"), &sched, |b, s| {
                b.iter(|| memory_v2(black_box(s), &cost));
            });
            let states = verify_states(&sched, iters, false)
                .1
                .expect("a clean schedule");
            g.bench_with_input(id("price"), &sched, |b, s| {
                b.iter(|| black_box(&states).price(s, &cost));
            });
            g.bench_with_input(id("verify_with_memory"), &sched, |b, s| {
                b.iter(|| verify_with_memory(black_box(s), iters, &cost, u64::MAX));
            });
            // The whole candidate at the first sight of its shape — generate,
            // analyse, price, simulate — and at every later one — price the
            // kept states, simulate. The difference is what a shape's structure costs:
            // the generator, `verify_span`, and for flushing schemes
            // `place_sync`'s execute, for Chimera Eq. 1's two more.
            let (p, b_hat) = (w * d, u64::from(n * w * b));
            let candidate = |table: &StructureTable| {
                evaluate(table, scheme, model, cluster, p, b_hat, w, d, b)
                    .expect("a clean schedule")
                    .expect("a valid candidate")
            };
            g.bench_with_input(id("evaluate_first"), &scheme, |bench, _| {
                bench.iter(|| candidate(&StructureTable::new()));
            });
            let seen = StructureTable::new();
            candidate(&seen);
            g.bench_with_input(id("evaluate_again"), &seen, |bench, seen| {
                bench.iter(|| candidate(black_box(seen)));
            });
        }
    }
    // What every first sight of a Chimera shape pays for its schedule
    // alone: `chimera()` — stand-alone 1F1B slot times, then the merge —
    // over the direct (D, N) shapes the `plan_cold` queries reach.
    let shapes = plan_cold_direct_shapes();
    assert_eq!(shapes.len(), 25, "plan_cold's grid moved");
    let generate = |&(d, n): &(u32, u32)| chimera(&ChimeraConfig::new(d, n)).unwrap();
    let ops: usize = shapes
        .iter()
        .map(|s| generate(s).workers.iter().map(Vec::len).sum::<usize>())
        .sum();
    g.throughput(Throughput::Elements(ops as u64));
    let id = BenchmarkId::new("chimera_generate", "plan_cold_direct_x25");
    g.bench_with_input(id, &shapes, |b, shapes| {
        b.iter(|| shapes.iter().map(generate).for_each(|s| drop(black_box(s))));
    });
    g.finish();
}

/// The distinct `(D, N)` of Chimera (f = 1, direct) over the planner's
/// `(W, D, B)` grid for the six `(model, P, B̂)` queries of `plan_cold`
/// (`benchmark/src/plan.rs`'s `SHAPES`).
fn plan_cold_direct_shapes() -> Vec<(u32, u32)> {
    let queries = [
        (ModelSpec::bert48(), 4, 32),
        (ModelSpec::bert48(), 8, 64),
        (ModelSpec::bert48(), 16, 128),
        (ModelSpec::gpt2(), 8, 32),
        (ModelSpec::gpt2_32(), 16, 64),
        (ModelSpec::gpt2_32(), 8, 32),
    ];
    let mut shapes = std::collections::BTreeSet::new();
    for (model, p, b_hat) in queries {
        for d in depth_candidates(p, &model) {
            for b in batch_candidates(b_hat, p / d) {
                shapes.insert((d, (b_hat / u64::from(p / d * b)) as u32));
            }
        }
    }
    shapes.into_iter().collect()
}

fn bench_unit_executor(c: &mut Criterion) {
    let mut g = c.benchmark_group("unit_executor");
    for d in [8u32, 32] {
        let sched = chimera(&ChimeraConfig::new(d, 4 * d)).unwrap();
        g.bench_with_input(BenchmarkId::new("practical", d), &sched, |b, sched| {
            b.iter(|| execute(black_box(sched), UnitCosts::practical()).unwrap());
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_simulate,
    bench_unit_executor,
    bench_planning_passes
);
criterion_main!(benches);
