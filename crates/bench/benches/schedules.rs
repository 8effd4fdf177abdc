//! Criterion: schedule-generation throughput for Chimera and the baselines.

// criterion_group! expands to an undocumented public fn.
#![allow(missing_docs)]
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use chimera_core::baselines::{dapple, gems, gpipe, pipedream_2bw_steady};
use chimera_core::chimera::{chimera, ChimeraConfig, ScaleMethod};
use chimera_core::unit_time::{execute, UnitCosts};

fn bench_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("schedule_generation");
    for d in [4u32, 8, 16, 32] {
        g.bench_with_input(BenchmarkId::new("chimera_n_eq_d", d), &d, |b, &d| {
            b.iter(|| chimera(black_box(&ChimeraConfig::new(d, d))).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("chimera_n_4d_direct", d), &d, |b, &d| {
            b.iter(|| chimera(black_box(&ChimeraConfig::new(d, 4 * d))).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("dapple", d), &d, |b, &d| {
            b.iter(|| dapple(black_box(d), black_box(4 * d)));
        });
        g.bench_with_input(BenchmarkId::new("gpipe", d), &d, |b, &d| {
            b.iter(|| gpipe(black_box(d), black_box(4 * d)));
        });
    }
    g.finish();

    let mut g = c.benchmark_group("schedule_generation_variants");
    g.bench_function("chimera_f2_d16", |b| {
        b.iter(|| {
            chimera(&ChimeraConfig {
                d: 16,
                n: 16,
                f: 2,
                scale: ScaleMethod::Direct,
            })
            .unwrap()
        });
    });
    g.bench_function("chimera_fwd_doubling_d8_n32", |b| {
        b.iter(|| {
            chimera(&ChimeraConfig {
                d: 8,
                n: 32,
                f: 1,
                scale: ScaleMethod::ForwardDoubling,
            })
            .unwrap()
        });
    });
    g.bench_function("gems_d8_n16", |b| b.iter(|| gems(8, 16)));
    g.bench_function("pipedream_2bw_steady_d8_n8x6", |b| {
        b.iter(|| pipedream_2bw_steady(8, 8, 6));
    });
    g.finish();
}

/// Generating a Chimera schedule next to its ceiling: executing the
/// generated schedule once. Both rows report time per op of that schedule.
fn bench_generation_vs_execution(c: &mut Criterion) {
    let mut g = c.benchmark_group("generation_vs_execution");
    g.sample_size(20);
    for d in [8u32, 16] {
        let cfg = ChimeraConfig::new(d, 8 * d);
        let sched = chimera(&cfg).unwrap();
        let ops: usize = sched.workers.iter().map(Vec::len).sum();
        g.throughput(Throughput::Elements(ops as u64));
        g.bench_with_input(BenchmarkId::new("chimera_n_8d", d), &cfg, |b, cfg| {
            b.iter(|| chimera(black_box(cfg)).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("execute", d), &sched, |b, sched| {
            b.iter(|| execute(black_box(sched), UnitCosts::practical()).unwrap());
        });
    }
    g.finish();
}

criterion_group!(benches, bench_generation, bench_generation_vs_execution);
criterion_main!(benches);
