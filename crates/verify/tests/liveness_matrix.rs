//! The liveness dataflow engine across the scheme space.
//!
//! 1. Peak-vs-ranges: on the retired replay's unit-test cases plus a seeded
//!    sweep over (scheme, D ∈ {2, 4, 6, 8}, N ∈ {D, 2D, 4D}, f, §3.5 scale
//!    method, recompute, boundary fraction) the engine's activation peak is
//!    the largest sum of live ranges over any op, its cliff is the first op
//!    whose live ranges sum to that peak, and the exact byte peak never
//!    exceeds the Table-2 bound. Stash defects surface once each, under the
//!    three stable codes.
//! 2. Exact ≤ coarse: the exact byte peak never exceeds the coarse Table-2
//!    bound it replaces, and the recovered slack ratio is reported.
//! 3. Determinism: the whole `memory_v2` report is identical across repeated
//!    runs and across threads.
//! 4. Off-by-one boundary: live ranges that abut at exactly one op (a
//!    rematerialization whose def == kill is the op that also kills the
//!    boundary stash) interfere and are both counted at the peak.
//! 5. States == the table they replaced: `memory_v2`, which walks each
//!    worker's rows into the few live-buffer count states that can decide a
//!    peak and prices those, equals field for field the accounting it
//!    superseded — all live ranges first, then a `max_overlap` sort per size
//!    class — kept here as the reference, on the sweep, the matrix and every
//!    single-op mutant, under six byte models: four of them make pruned
//!    states tie the peak (a rematerialization of no bytes, a boundary of no
//!    bytes, stash halves of an odd half-byte, free activations on every
//!    other stage). The `with_recompute`
//!    variant's states, walked from the schedule without the retry, price as
//!    `memory_v2` of the retried schedule.

use chimera_core::baselines::{
    dapple, gems, gpipe, pipedream, pipedream_2bw_steady, pipedream_steady,
};
use chimera_core::chimera::{chimera, ChimeraConfig, ScaleMethod};
use chimera_core::named::build_named;
use chimera_core::op::{Chunk, Op};
use chimera_core::schedule::Schedule;
use chimera_core::StageId;
use chimera_sim::{AllReduceAlgo, NetworkModel, SimCostModel, StageCosts, Topology};
use chimera_verify::liveness::{analyze, max_overlap, BufferKind, BufferSizes, UnitMa};
use chimera_verify::{memory_v2, verify_states, verify_with_memory, MemoryV2, OpLoc, WorkerMemory};

#[path = "../../../tests/support/mutants.rs"]
mod mutants;

/// Activations in `Ma` with `boundary` of a micro-batch's stash kept at the
/// stage boundary under recomputation; nothing else has a size.
struct BoundaryFraction(f64);

impl BufferSizes for BoundaryFraction {
    fn full_stash(&self, op: &Op) -> f64 {
        UnitMa.full_stash(op)
    }
    fn boundary_stash(&self, op: &Op) -> f64 {
        UnitMa.full_stash(op) * self.0
    }
    fn weight_version(&self, _stage: StageId) -> f64 {
        0.0
    }
    fn grad_contribution(&self, _op: &Op) -> f64 {
        0.0
    }
}

const SCHEMES: [&str; 9] = [
    "gpipe",
    "dapple",
    "gems",
    "pipedream",
    "pipedream-2bw",
    "chimera",
    "chimera-f2",
    "doubling",
    "halving",
];

fn matrix() -> Vec<(&'static str, u32, Schedule)> {
    let mut out = Vec::new();
    for scheme in SCHEMES {
        for d in [2u32, 4, 8] {
            if scheme == "chimera-f2" && (d / 2) % 2 != 0 {
                continue; // f=2 requires f | D/2
            }
            let s = build_named(scheme, d, 2 * d).expect("known scheme");
            out.push((scheme, d, s));
        }
    }
    out
}

fn cost(d: u32) -> SimCostModel {
    SimCostModel {
        stages: vec![
            StageCosts {
                fwd_s: 1e-3,
                bwd_s: 2e-3,
                recompute_s: 1e-3,
                boundary_bytes: 1 << 20,
                act_bytes: 8 << 20,
                param_bytes: 100 << 20,
                grad_opt_bytes: 200 << 20,
            };
            d as usize
        ],
        network: NetworkModel::cray_aries(),
        topology: Topology::one_per_node(d),
        allreduce_participants: 2,
        allreduce_algo: AllReduceAlgo::Rabenseifner,
        allreduce_beta_factor: 1.0,
        launch_overhead_s: 0.0,
        half_chunk_penalty: 1.0,
        comm_compute_interference: 0.0,
        p2p_host_overhead_s: 0.0,
        p2p_host_s_per_byte: 0.0,
    }
}

/// Deterministic xorshift64* (the vendored proptest stub has no structured
/// strategies, so the sweep draws its own samples from a fixed seed).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n as u64) as usize
    }
}

/// One draw from (scheme, D, N, f, scale method, recompute); `None` where
/// the generator rejects the combination.
fn draw(rng: &mut Rng) -> Option<(String, Schedule)> {
    let d = [2u32, 4, 6, 8][rng.below(4)];
    let n = d * [1u32, 2, 4][rng.below(3)];
    let (name, base) = match rng.below(7) {
        0 => ("gpipe".to_string(), gpipe(d, n)),
        1 => ("dapple".to_string(), dapple(d, n)),
        2 => ("gems".to_string(), gems(d, n)),
        3 => ("pipedream".to_string(), pipedream_steady(d, n, 2)),
        4 => ("pipedream-2bw".to_string(), pipedream_2bw_steady(d, n, 2)),
        _ => {
            let divisors: Vec<u32> = (1..=d / 2).filter(|&f| (d / 2).is_multiple_of(f)).collect();
            let f = divisors[rng.below(divisors.len())];
            let scale = match rng.below(4) {
                // Doubling takes two draws of the four.
                0 | 1 => ScaleMethod::ForwardDoubling,
                2 => ScaleMethod::BackwardHalving,
                _ => ScaleMethod::Direct,
            };
            let s = chimera(&ChimeraConfig { d, n, f, scale }).ok()?;
            (format!("chimera f={f} {scale:?}"), s)
        }
    };
    let recompute = rng.below(2) == 1;
    let s = if recompute {
        base.with_recompute()
    } else {
        base
    };
    Some((format!("{name} D={d} N={n} recompute={recompute}"), s))
}

/// The cases the retired `verify::memory` replay was unit-tested on: every
/// built-in scheme with a quarter of a micro's activations kept at the stage
/// boundary.
fn replay_cases() -> Vec<(String, Schedule, f64)> {
    let chimera_with = |d, n, f, scale| chimera(&ChimeraConfig { d, n, f, scale }).unwrap();
    [
        gpipe(4, 8),
        dapple(4, 8),
        gems(4, 8),
        pipedream(4, 4),
        chimera_with(4, 8, 1, ScaleMethod::Direct),
        chimera_with(4, 16, 1, ScaleMethod::BackwardHalving),
        chimera_with(8, 32, 2, ScaleMethod::ForwardDoubling),
    ]
    .into_iter()
    .map(|s| (format!("{} D={} N={}", s.scheme, s.d, s.n), s, 0.25))
    .collect()
}

#[test]
fn activation_peak_and_cliff_match_the_live_ranges_on_a_seeded_sweep() {
    let mut rng = Rng(0x5EED_CAFE_F00D_0013);
    let mut cases = replay_cases();
    for _ in 0..240 {
        let Some((ctx, s)) = draw(&mut rng) else {
            continue;
        };
        cases.push((ctx, s, [0.0, 0.25, 0.5][rng.below(3)]));
    }
    assert!(cases.len() >= 200, "only {} schedules built", cases.len());

    for (ctx, s, boundary) in cases {
        let engine = analyze(&s, &BoundaryFraction(boundary));
        assert!(
            engine.diagnostics.is_empty(),
            "{ctx}: {:?}",
            engine.diagnostics
        );
        for w in 0..s.num_workers() {
            let peak = engine.activation_peak[w];
            // Activation-only sizing: the overall peak is the same number.
            assert_eq!(engine.peak[w], peak, "{ctx} P{w}");
            assert_eq!(engine.cliff[w], engine.activation_cliff[w], "{ctx} P{w}");
            // The cliff, recomputed from the live ranges alone: the first op
            // whose resident stash + remat buffers sum to the peak.
            let live_at = |i: usize| -> f64 {
                engine.lives[w]
                    .iter()
                    .filter(|b| matches!(b.kind, BufferKind::Stash | BufferKind::Remat))
                    .filter(|b| b.def <= i && i <= b.kill)
                    .map(|b| b.size)
                    .sum()
            };
            let ops = 0..s.workers[w].len();
            let highest = ops.clone().map(live_at).fold(0.0, f64::max);
            assert!(
                (peak - highest).abs() < 1e-9,
                "{ctx} P{w}: {peak} vs {highest}"
            );
            let first_at_peak = ops
                .clone()
                .find(|&i| peak > 0.0 && (live_at(i) - peak).abs() < 1e-9);
            assert_eq!(engine.activation_cliff[w], first_at_peak, "{ctx} P{w}");
        }
        let mem = memory_v2(&s, &cost(s.d));
        for (w, wm) in mem.workers.iter().enumerate() {
            assert!(
                wm.exact_peak_bytes <= wm.coarse_bound_bytes,
                "{ctx} P{w}: exact {} > Table-2 bound {}",
                wm.exact_peak_bytes,
                wm.coarse_bound_bytes
            );
        }
    }
}

#[test]
fn gpipe_cliff_is_its_last_injected_forward() {
    let rep = analyze(&gpipe(2, 4), &UnitMa);
    assert_eq!(rep.activation_cliff[0], Some(3));
    assert_eq!(rep.activation_peak[0], 4.0);
}

/// `(code, op indices of its locations)` of every stash diagnostic.
fn stash_codes(s: &Schedule) -> Vec<(&'static str, Vec<usize>)> {
    analyze(s, &UnitMa)
        .diagnostics
        .iter()
        .map(|d| (d.code, d.locations.iter().map(|l| l.op_index).collect()))
        .collect()
}

/// The retired slot-mask lint's cases: each defect surfaces once, under its
/// stable code, located at the offending op (def → def for an overwrite).
#[test]
fn stash_defects_surface_once_under_the_stable_codes() {
    let mut s = gpipe(2, 2);
    let dup = s.workers[0][0];
    s.workers[0].insert(1, dup);
    assert_eq!(stash_codes(&s), vec![("overwritten_stash", vec![0, 1])]);

    let mut s = gpipe(2, 2);
    s.workers[1].swap(0, 2); // B(m0)@s1 before F(m0)@s1
    assert_eq!(stash_codes(&s), vec![("use_before_def", vec![0])]);

    // A half backward run twice frees its half twice while the other half
    // of the micro is still live.
    let mut s = build_named("halving", 4, 8).unwrap();
    let (w, i) = s
        .iter_ops()
        .find(|(_, _, op)| op.is_backward() && matches!(op.chunk, Chunk::Half(0)))
        .map(|(w, i, _)| (w.idx(), i))
        .expect("halving emits half backwards");
    let dup = s.workers[w][i];
    s.workers[w].insert(i + 1, dup);
    assert_eq!(stash_codes(&s), vec![("double_free", vec![i + 1])]);
}

#[test]
fn exact_peak_never_exceeds_coarse_bound_and_reports_slack() {
    for (scheme, d, s) in matrix() {
        let c = cost(d);
        let mem = memory_v2(&s, &c);
        for (w, wm) in mem.workers.iter().enumerate() {
            assert!(
                wm.exact_peak_bytes <= wm.coarse_bound_bytes,
                "{scheme} D={d} P{w}: exact {} > coarse {}",
                wm.exact_peak_bytes,
                wm.coarse_bound_bytes
            );
            assert!(
                wm.slack_ratio >= 1.0,
                "{scheme} D={d} P{w}: slack {}",
                wm.slack_ratio
            );
            assert_eq!(
                wm.exact_peak_bytes,
                wm.resident_bytes + wm.dynamic_peak_bytes
            );
        }
        // The cross-check lint stays silent on every sound schedule, and the
        // report carries the memory/v2 section.
        let report = verify_with_memory(&s, 1, &c, u64::MAX);
        assert!(
            report
                .diagnostics
                .iter()
                .all(|di| di.code != "coarse_bound_exceeded"),
            "{scheme} D={d}"
        );
        assert!(report.memory_v2.is_some());
    }
}

#[test]
fn two_bw_recovers_real_slack_while_table2_is_tight_for_pipedream() {
    // PipeDream's Table-2 bound (D−s versions at stage s) is *exactly*
    // attained in the copy-on-update steady state — the exact analysis
    // validates the paper's accounting to the byte. PipeDream-2BW's
    // double-buffer bound, in contrast, over-charges: the second buffer is
    // live only between an update and the draining of the micros that
    // reference the superseded version, so the exact analysis recovers
    // planner headroom.
    let pd = memory_v2(&build_named("pipedream", 4, 8).unwrap(), &cost(4));
    for wm in &pd.workers {
        assert_eq!(
            wm.exact_peak_bytes, wm.coarse_bound_bytes,
            "Table 2 should be tight for pipedream: {wm:?}"
        );
    }
    let bw = memory_v2(&build_named("pipedream-2bw", 4, 8).unwrap(), &cost(4));
    for wm in &bw.workers {
        assert!(
            wm.slack_ratio > 1.25,
            "expected ≥25% recovered headroom, got {wm:?}"
        );
    }
}

#[test]
fn memory_v2_is_deterministic_across_runs_and_threads() {
    let golden = memory_v2(&build_named("chimera", 4, 8).unwrap(), &cost(4));
    let threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || memory_v2(&build_named("chimera", 4, 8).unwrap(), &cost(4)))
        })
        .collect();
    for t in threads {
        assert_eq!(t.join().unwrap(), golden);
    }
    for _ in 0..10 {
        let again = memory_v2(&build_named("chimera", 4, 8).unwrap(), &cost(4));
        assert_eq!(again, golden);
    }
}

#[test]
fn remat_and_boundary_stash_abut_at_the_backward_op() {
    // Forward doubling with recomputation: at each recomputing backward the
    // rematerialization buffer (def == kill == that op) and the boundary
    // stash it consumes (killed by that op) are live *simultaneously* — the
    // classic off-by-one boundary. The engine must count both at that op.
    let s = build_named("doubling", 4, 8).unwrap();
    let engine = analyze(&s, &BoundaryFraction(0.25));
    let mut checked = 0;
    for (w, wl) in engine.lives.iter().enumerate() {
        for remat in wl.iter().filter(|b| b.kind == BufferKind::Remat) {
            let stash = wl
                .iter()
                .find(|b| {
                    b.kind == BufferKind::Stash
                        && b.replica == remat.replica
                        && b.stage == remat.stage
                        && b.kill == remat.def
                })
                .unwrap_or_else(|| panic!("P{w}: remat at op {} has no dying stash", remat.def));
            assert!(stash.interferes(remat), "abutting ranges must interfere");
            assert_ne!(
                stash.def, stash.kill,
                "boundary stash lives from forward to backward"
            );
            // Both need a slot of their own even though they share only one op.
            let ranges = [(stash.def, stash.kill), (remat.def, remat.kill)];
            assert_eq!(max_overlap(&ranges), 2);
            checked += 1;
        }
    }
    assert!(checked > 0, "doubling must produce recomputing backwards");
}

/// Byte sizes that differ by stage, so that a worker's buffers fall in
/// several size classes — stage 0's boundary stash in none (under one `f32`).
fn varied_cost(d: u32) -> SimCostModel {
    let mut c = cost(d);
    for (s, st) in c.stages.iter_mut().enumerate() {
        st.act_bytes = (3 << 20) << (s % 3);
        st.boundary_bytes = if s == 0 {
            2
        } else {
            (1 << 16) * (s as u64 + 1)
        };
        st.param_bytes = (50 << 20) * (s as u64 + 1);
    }
    c
}

/// `memory_v2` as it was before it became one pass: every worker's live
/// ranges from `analyze`, then per size class the intervals gathered in a map
/// and sorted by `max_overlap`.
fn reference_memory(sched: &Schedule, cost: &SimCostModel) -> MemoryV2 {
    let lifetimes = analyze(sched, cost);
    let coarse_weights = chimera_sim::memory::weights_bytes(sched, cost);
    let workers = (0..sched.num_workers())
        .map(|w| {
            let resident: u64 = sched
                .placement
                .held_by(chimera_core::WorkerId(w as u32))
                .into_iter()
                .map(|(_, stage)| {
                    let st = &cost.stages[stage.idx()];
                    st.param_bytes + st.grad_opt_bytes
                })
                .sum();
            let dynamic = lifetimes.peak[w].round() as u64;
            let exact = resident + dynamic;
            let coarse = coarse_weights[w] + lifetimes.activation_peak[w].round() as u64;
            let mut by_class: std::collections::BTreeMap<u32, Vec<(usize, usize)>> =
                std::collections::BTreeMap::new();
            for b in &lifetimes.lives[w] {
                let elems = (b.size / 4.0).round() as u64;
                if elems == 0 {
                    continue;
                }
                let class = 64 - u64::leading_zeros(elems.next_power_of_two().max(1));
                by_class
                    .entry(class.saturating_sub(1))
                    .or_default()
                    .push((b.def, b.kill));
            }
            let pool_classes = by_class
                .into_iter()
                .map(|(class, intervals)| (class, max_overlap(&intervals) as u32))
                .collect();
            WorkerMemory {
                exact_peak_bytes: exact,
                resident_bytes: resident,
                dynamic_peak_bytes: dynamic,
                coarse_bound_bytes: coarse,
                slack_ratio: if exact == 0 {
                    1.0
                } else {
                    coarse as f64 / exact as f64
                },
                cliff: lifetimes.cliff[w].map(|i| OpLoc::of(sched, w, i)),
                stash_at_peak_bytes: (lifetimes.breakdown[w].stash + lifetimes.breakdown[w].remat)
                    .round() as u64,
                versions_at_peak_bytes: lifetimes.breakdown[w].weight_versions.round() as u64,
                pool_classes,
            }
        })
        .collect();
    MemoryV2 { workers }
}

/// Byte models under which states a pruning drops tie the kept ones: a
/// boundary as large as the stash (every rematerialization is of no bytes),
/// a boundary of no bytes (a recomputing stage's halves price at zero), an
/// odd stash (halves of a half byte, the totals' rounding at stake), and
/// every other stage's activations free (a later state with more of those
/// halves ties an earlier one, which must stay the cliff).
fn tying_costs(d: u32) -> [SimCostModel; 4] {
    let with = |f: &dyn Fn(usize, &mut StageCosts)| {
        let mut c = cost(d);
        c.stages.iter_mut().enumerate().for_each(|(s, st)| f(s, st));
        c
    };
    [
        with(&|_, st| st.boundary_bytes = st.act_bytes),
        with(&|_, st| st.boundary_bytes = 0),
        with(&|_, st| st.act_bytes = (5 << 20) + 3),
        with(&|s, st| {
            if s % 2 == 1 {
                (st.act_bytes, st.boundary_bytes) = (0, 0);
            }
        }),
    ]
}

/// `memory_v2` of `s` equals the reference under every byte model, the
/// rows' slot demand is `analyze`'s too, and the `with_recompute` variant's
/// states price as the retried schedule's `memory_v2`; returns the classes
/// it filled.
fn assert_one_pass_matches(s: &Schedule, ctx: &str) -> usize {
    let mut classes = 0;
    // A schedule with an op off its placement has no states to price.
    let (_, states) = verify_states(s, 1, true);
    let recomputing = s.clone().with_recompute();
    let tying = tying_costs(s.d);
    for c in [cost(s.d), varied_cost(s.d)].into_iter().chain(tying) {
        let reference = reference_memory(s, &c);
        assert_eq!(memory_v2(s, &c), reference, "{ctx}");
        let slots = analyze(s, &c).slots;
        for (w, wm) in reference.workers.iter().enumerate() {
            assert_eq!(slots[w], wm.pool_classes, "{ctx} P{w}");
            classes += wm.pool_classes.len();
        }
        let Some(states) = &states else {
            continue;
        };
        assert_eq!(states.price(s, &c), reference, "{ctx}");
        let retried_mem = states.price_retried(s, &c).expect("asked for");
        assert_eq!(retried_mem, memory_v2(&recomputing, &c), "{ctx} retried");
        assert_eq!(
            retried_mem,
            reference_memory(&recomputing, &c),
            "{ctx} retried"
        );
    }
    classes
}

#[test]
fn one_pass_memory_matches_the_live_range_table_on_the_sweep_and_the_matrix() {
    let mut rng = Rng(0x5EED_CAFE_F00D_0013);
    let mut cases: Vec<(String, Schedule)> = (replay_cases().into_iter())
        .map(|(ctx, s, _)| (ctx, s))
        .collect();
    cases.extend((0..240).filter_map(|_| draw(&mut rng)));
    cases.extend((matrix().into_iter()).map(|(scheme, d, s)| (format!("{scheme} D={d}"), s)));
    assert!(cases.len() >= 220, "only {} schedules built", cases.len());
    let classes: usize = (cases.iter())
        .map(|(ctx, s)| assert_one_pass_matches(s, ctx))
        .sum();
    assert!(
        classes > 10 * cases.len(),
        "{classes} size classes compared"
    );
}

/// A buffer killed by the op that defines another needs a slot beside it;
/// one killed by the op before does not.
#[test]
fn a_kill_and_a_def_at_one_op_take_two_slots_and_abutting_ops_one() {
    let stash_slots = |s: &Schedule, w: usize| -> Vec<u32> {
        let classes = &memory_v2(s, &cost(s.d)).workers[w].pool_classes;
        classes.iter().map(|&(_, slots)| slots).collect()
    };
    // The last stage runs strictly F B F B: each stash — two half-micro
    // buffers — dies the op before the next is defined.
    let one_f_one_b = dapple(2, 3);
    assert_eq!(stash_slots(&one_f_one_b, 1), vec![2]);
    // A forward run twice overwrites its stash: the clobbered buffer is
    // resident while the op that defines its successor runs.
    let mut overwritten = gpipe(2, 1);
    let dup = overwritten.workers[0][0];
    overwritten.workers[0].insert(1, dup);
    assert_eq!(stash_codes(&overwritten)[0].0, "overwritten_stash");
    assert_eq!(stash_slots(&overwritten, 0), vec![4]);
    assert_one_pass_matches(&overwritten, "overwritten");

    // A half backward run twice: the second finds its half already freed.
    let mut twice = build_named("halving", 4, 8).unwrap();
    let (w, i) = (twice.iter_ops())
        .find(|(_, _, op)| op.is_backward() && matches!(op.chunk, Chunk::Half(0)))
        .map(|(w, i, _)| (w.idx(), i))
        .expect("halving emits half backwards");
    let dup = twice.workers[w][i];
    twice.workers[w].insert(i + 1, dup);
    assert_eq!(stash_codes(&twice)[0].0, "double_free");
    assert_one_pass_matches(&twice, "double free");
}

/// Every single-op drop / move mutant of the clean matrix — stash defects
/// included — is priced by the one pass as by the table.
#[test]
fn one_pass_memory_matches_the_live_range_table_on_every_mutant() {
    let (mut mutants, mut stash_defects) = (0, 0);
    for d in [2, 4] {
        for (name, clean) in mutants::clean_schedules(d) {
            mutants += mutants::for_each_mutant(&name, &clean, |mutant, what| {
                assert_one_pass_matches(mutant, what);
                stash_defects += usize::from(!stash_codes(mutant).is_empty());
            });
        }
    }
    assert!(
        mutants > 4000 && stash_defects > 500,
        "{mutants} mutants, {stash_defects} with a stash defect"
    );
}
