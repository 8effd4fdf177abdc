//! [`SpanBound`] is admissible: priced under any cost model, it never
//! exceeds the makespan the executor finds for the schedule it counted —
//! the recomputing variant, priced from the plain schedule's counts,
//! included — and where nothing but the chains and the busy time decides
//! the makespan it is the makespan.

use chimera_core::baselines::gpipe;
use chimera_core::named::{build_named, NAMED_SCHEMES};
use chimera_core::op::{Chunk, Op, OpKind};
use chimera_core::schedule::{Schedule, SyncStrategy};
use chimera_core::sync::place_sync;
use chimera_core::unit_time::{execute_span, CostProvider, UnitCosts};
use chimera_core::{MicroId, ReplicaId, StageId, WorkerId};
use chimera_sim::{
    simulate_span, AllReduceAlgo, NetScenario, SimCostModel, SpanBound, StageCosts, Topology,
};

/// Every schedule of the nine scheme ids × D ∈ {2, 4, 8} × N ∈ {1, D, 2D,
/// 4D} that its generator builds, as generated and, for a flushing scheme,
/// with eager-opt sync ops placed as the planner places them; with the
/// iterations its span covers.
fn schedules() -> Vec<(String, Schedule, u32)> {
    let mut out = Vec::new();
    for name in NAMED_SCHEMES {
        let iterations = if name.starts_with("pipedream") { 2 } else { 1 };
        for d in [2u32, 4, 8] {
            for n in [1, d, 2 * d, 4 * d] {
                let Ok(sched) = build_named(name, d, n) else {
                    continue;
                };
                let what = format!("{name} D={d} N={n}");
                if sched.flushes {
                    let synced = place_sync(
                        sched.clone(),
                        SyncStrategy::EagerOpt,
                        UnitCosts::practical(),
                    );
                    out.push((format!("{what} synced"), synced, iterations));
                }
                out.push((what, sched, iterations));
            }
        }
    }
    out
}

/// A depth-`d` cost model on `scenario`'s network and node packing, with
/// stages of unequal cost, host-side p2p charges, a launch overhead that
/// steals compute and a half-chunk penalty: every term of `op_cost` nonzero.
fn preset_cost(scenario: &NetScenario, d: u32) -> SimCostModel {
    let stage = |s: u32| {
        let scale = 1.0 + f64::from(s % 3) * 0.5;
        StageCosts {
            fwd_s: 4e-3 * scale,
            bwd_s: 8.5e-3 * scale,
            recompute_s: 4e-3 * scale,
            boundary_bytes: (2 << 20) * u64::from(1 + s % 2),
            act_bytes: 32 << 20,
            param_bytes: 60 << 20,
            grad_opt_bytes: 120 << 20,
        }
    };
    SimCostModel {
        stages: (0..d).map(stage).collect(),
        network: scenario.network,
        topology: Topology::packed(d, scenario.gpus_per_node),
        allreduce_participants: 8,
        allreduce_algo: AllReduceAlgo::Rabenseifner,
        allreduce_beta_factor: 3.0,
        launch_overhead_s: 3e-4,
        half_chunk_penalty: 1.15,
        comm_compute_interference: 0.6,
        p2p_host_overhead_s: 1e-3,
        p2p_host_s_per_byte: 1.0 / 5e9,
    }
}

/// Practical unit costs, free transfers, and halved backwards priced by
/// stage and half: at an even stage the first half costs a tick and the
/// second five, at an odd stage each costs ten (two more recomputing). A
/// stage's halves differ, so a chain through it is bounded by the cheaper.
#[derive(Debug, Clone, Copy)]
struct UnevenHalves;

impl CostProvider for UnevenHalves {
    fn op_cost(&self, op: &Op) -> u64 {
        match (op.kind, op.chunk) {
            (OpKind::Backward { recompute }, Chunk::Half(h)) => {
                let half = match op.stage.0 % 2 {
                    0 => 1 + 4 * u64::from(h.min(1)),
                    _ => 10,
                };
                half + 2 * u64::from(recompute)
            }
            _ => UnitCosts::practical().cost(op),
        }
    }

    fn p2p_delay(&self, _from: WorkerId, _to: WorkerId, _op: &Op) -> u64 {
        0
    }

    fn allreduce_duration(&self, _stage: StageId) -> u64 {
        0
    }
}

/// Check the bound of `sched` and of its recomputing variant under `cost`
/// against the makespans `makespan` finds; returns how many were checked.
fn check<C: CostProvider>(
    what: &str,
    sched: &Schedule,
    cost: &C,
    makespan: impl Fn(&Schedule) -> u64,
) -> usize {
    let plain = SpanBound::of(sched);
    let retried = sched.clone().with_recompute();
    let counted = SpanBound::of(&retried);
    let bound = plain.ticks(cost, false);
    let span = makespan(sched);
    assert!(bound <= span, "{what}: bound {bound} > makespan {span}");
    assert!(bound > 0, "{what}: an empty bound");
    let retried_bound = plain.ticks(cost, true);
    let retried_span = makespan(&retried);
    assert!(
        retried_bound <= retried_span,
        "{what}, recomputing: bound {retried_bound} > makespan {retried_span}"
    );
    // The retry priced from the plain counts is the retried schedule's own.
    assert_eq!(retried_bound, counted.ticks(cost, false), "{what}");
    assert_eq!(retried_bound, counted.ticks(cost, true), "{what}");
    2
}

#[test]
fn the_bound_never_exceeds_the_makespan() {
    let mut checked = 0;
    for (what, sched, iterations) in schedules() {
        for (label, unit) in [
            ("equal", UnitCosts::equal()),
            ("practical", UnitCosts::practical()),
        ] {
            let makespan = |s: &Schedule| {
                let tl = execute_span(s, &unit, iterations).expect("executes");
                tl.makespan
            };
            checked += check(&format!("{what}, {label}"), &sched, &unit, makespan);
        }
        let makespan = |s: &Schedule| {
            let tl = execute_span(s, &UnevenHalves, iterations).expect("executes");
            tl.makespan
        };
        checked += check(
            &format!("{what}, uneven halves"),
            &sched,
            &UnevenHalves,
            makespan,
        );
        for scenario in NetScenario::all() {
            let cost = preset_cost(&scenario, sched.d);
            let makespan = |s: &Schedule| {
                let report = simulate_span(s, &cost, iterations).expect("simulates");
                report.timeline.makespan
            };
            let what = format!("{what}, {}", scenario.name);
            checked += check(&what, &sched, &cost, makespan);
        }
    }
    // 9 ids × 3 depths × 4 micro-batch counts, less the shapes a generator
    // refuses, plus the synced variants; 8 cost models, 2 variants each.
    assert!(checked > 100 * 8 * 2, "{checked} bounds checked");
}

/// Two stages, one micro-batch, its backward halved — the second half
/// first — under [`UnevenHalves`]: the first stage is idle when the last
/// stage's final half arrives, and its own copy of that half is its
/// cheaper one.
fn halved_last_first() -> Schedule {
    let (m, r) = (MicroId(0), ReplicaId(0));
    let stage = |s: u32| {
        let half = |h| Op {
            chunk: Chunk::Half(h),
            ..Op::backward(m, StageId(s), r)
        };
        vec![Op::forward(m, StageId(s), r), half(1), half(0)]
    };
    Schedule {
        workers: vec![stage(0), stage(1)],
        ..gpipe(2, 1)
    }
}

/// Where nothing but the chains and the busy time decides the makespan,
/// the bound is the makespan. GPipe with one micro-batch on two stages and
/// free transfers: the last stage's forward waits for the first's, the
/// first's backward for the last's. The halved schedule: the last stage
/// runs its forward after the first stage's, then both halves (ten ticks
/// each); the first stage's second half takes five ticks within them, and
/// its first half — a tick, the cheapest backward it has — follows the
/// last stage's.
#[test]
fn the_bound_is_the_makespan_where_only_the_chains_decide_it() {
    let sched = gpipe(2, 1);
    let bound = SpanBound::of(&sched);
    for unit in [UnitCosts::equal(), UnitCosts::practical()] {
        let span = execute_span(&sched, &unit, 1).unwrap().makespan;
        assert_eq!(bound.ticks(&unit, false), span, "{unit:?}");
        assert_eq!(span, 2 * (unit.fwd + unit.bwd));
        let retried = execute_span(&sched.clone().with_recompute(), &unit, 1).unwrap();
        assert_eq!(bound.ticks(&unit, true), retried.makespan, "{unit:?}");
    }
    let halved = halved_last_first();
    let span = execute_span(&halved, &UnevenHalves, 1).unwrap().makespan;
    assert_eq!(span, 2 + 2 + 10 + 10 + 1);
    assert_eq!(SpanBound::of(&halved).ticks(&UnevenHalves, false), span);
}
