//! A candidate is a structure and a price list: planning against a
//! [`StructureTable`] must give the answers planning without one gives, and
//! must drop no check — only repeat none.
//!
//! The grid is the serve benchmark's `plan_cold` workload: its six
//! `(model, devices, mini-batch)` shapes, every scheme id the service knows
//! and, for the searches' answers, its five topology presets.

use std::collections::HashSet;

use chimera_core::baselines::{dapple, gpipe, pipedream_2bw_steady};
use chimera_core::chimera::{chimera, ChimeraConfig, ScaleMethod};
use chimera_core::program::lowerings;
use chimera_core::schedule::Schedule;
use chimera_perf::planner::{
    batch_candidates, depth_candidates, evaluate, rebuild, reopen, Candidate,
};
use chimera_perf::structure::{Opened, TableStats};
use chimera_perf::{
    plan_until, sweep, ClusterSpec, ModelSpec, PlanScheme, StructureKey, StructureTable,
    TrainConfig,
};
use chimera_sim::{NetScenario, SimCostModel, SpanBound};
use chimera_verify::verify_states;

#[allow(dead_code)] // only the mutation operators, not the clean matrix
#[path = "../../../tests/support/mutants.rs"]
mod mutants;

fn shapes() -> [(ModelSpec, u32, u64); 6] {
    [
        (ModelSpec::bert48(), 4, 32),
        (ModelSpec::bert48(), 8, 64),
        (ModelSpec::bert48(), 16, 128),
        (ModelSpec::gpt2(), 8, 32),
        (ModelSpec::gpt2_32(), 16, 64),
        (ModelSpec::gpt2_32(), 8, 32),
    ]
}

/// The nine scheme ids of `chimera-serve`, as the planner names them.
fn schemes() -> [PlanScheme; 9] {
    let chimera = |f, scale| PlanScheme::Chimera { f, scale };
    [
        chimera(1, ScaleMethod::Direct),
        chimera(2, ScaleMethod::Direct),
        chimera(1, ScaleMethod::ForwardDoubling),
        chimera(1, ScaleMethod::BackwardHalving),
        PlanScheme::GPipe,
        PlanScheme::Dapple,
        PlanScheme::Gems,
        PlanScheme::PipeDream,
        PlanScheme::PipeDream2Bw,
    ]
}

/// Every field, `f64`s by bits.
fn assert_same(a: &Option<Candidate>, b: &Option<Candidate>, what: &str) {
    let bits = |c: &Candidate| {
        (
            (c.scheme, c.w, c.d, c.b, c.n, c.recompute, c.fits),
            (c.iter_time_s.to_bits(), c.throughput.to_bits(), c.peak_mem),
            (
                c.bubble_ratio.to_bits(),
                c.predicted_s.map(f64::to_bits),
                c.b_hat,
            ),
        )
    };
    assert_eq!(a.as_ref().map(bits), b.as_ref().map(bits), "{what}");
}

/// `scheme`'s candidate at one grid point, evaluated on a fresh table.
#[allow(clippy::too_many_arguments)] // evaluate's, without the table
fn evaluate_alone(
    scheme: PlanScheme,
    model: ModelSpec,
    cluster: ClusterSpec,
    p: u32,
    b_hat: u64,
    w: u32,
    d: u32,
    b: u32,
) -> Option<Candidate> {
    let table = StructureTable::new();
    evaluate(&table, scheme, model, cluster, p, b_hat, w, d, b).unwrap()
}

/// The valid candidates of `scheme`'s grid, in grid order (`D` ascending,
/// then `B`), each evaluated on a fresh table.
fn valid_grid(
    scheme: PlanScheme,
    model: ModelSpec,
    cluster: ClusterSpec,
    p: u32,
    b_hat: u64,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    for d in depth_candidates(p, &model) {
        let w = p / d;
        for b in batch_candidates(b_hat, w) {
            let c = evaluate_alone(scheme, model, cluster, p, b_hat, w, d, b);
            out.extend(c);
        }
    }
    out
}

/// The answer the search must give for `scheme`, built without the search.
/// Chimera's is the first of its grid points that fit (`grid`, as
/// `valid_grid` lists them) with the least Eq. 1 prediction, as simulated
/// by `evaluate`; a grid scheme's is the first entry of its full sweep.
fn oracle(
    scheme: PlanScheme,
    grid: Vec<Candidate>,
    model: ModelSpec,
    cluster: ClusterSpec,
    p: u32,
    b_hat: u64,
) -> Option<Candidate> {
    let PlanScheme::Chimera { .. } = scheme else {
        return sweep(scheme, model, cluster, p, b_hat).into_iter().next();
    };
    let predicted = |c: &Candidate| c.predicted_s.expect("Chimera is priced by Eq. 1");
    let mut pick: Option<Candidate> = None;
    for c in grid.into_iter().filter(|c| c.fits) {
        if pick.as_ref().is_none_or(|b| predicted(&c) < predicted(b)) {
            pick = Some(c);
        }
    }
    pick
}

/// (a) Table-backed `evaluate` equals fresh-table `evaluate` on every grid
/// point, a lived-in table's search equals its oracle and its gate a fresh
/// table's, and (d) the counters of one pass say that nothing was dropped:
/// generations with their full structural verification (`misses`) ==
/// distinct shapes seen, pricings (`hits + misses`, one per `open`) ==
/// candidates (+ gated winners, for a pass with gates).
#[test]
fn the_table_changes_no_answer_and_drops_no_check() {
    let cluster = ClusterSpec::piz_daint();
    // `grid`: every candidate evaluated once. `pass`: what the service does
    // per query — search, then gate the winner.
    let (grid, pass) = (StructureTable::new(), StructureTable::new());
    // `keys`: every recomputing candidate gated, for the key its gate takes.
    let keys = StructureTable::new();
    let (mut candidates, mut gates) = (0u64, 0u64);
    let (mut grid_keys, mut pass_keys) = (HashSet::new(), HashSet::new());
    for (model, p, b_hat) in shapes() {
        for scheme in schemes() {
            let mut valid = Vec::new();
            for d in depth_candidates(p, &model) {
                let w = p / d;
                for b in batch_candidates(b_hat, w) {
                    let what = format!("{} {scheme:?} W={w} D={d} B={b}", model.name);
                    let fresh = evaluate_alone(scheme, model, cluster, p, b_hat, w, d, b);
                    let tabled =
                        evaluate(&grid, scheme, model, cluster, p, b_hat, w, d, b).unwrap();
                    assert_same(&fresh, &tabled, &what);
                    if let Some(c) = fresh {
                        candidates += 1;
                        grid_keys.insert((scheme, c.d, c.n));
                        if c.recompute {
                            let gate = reopen(&keys, &c, model, cluster).expect("it rebuilds");
                            assert_eq!(gate.key.recompute, takes_the_retry(&c, model, cluster));
                        }
                        valid.push(c);
                    }
                }
            }
            let served = plan_until(&pass, scheme, model, cluster, p, b_hat, None).unwrap();
            assert_same(
                &oracle(scheme, valid, model, cluster, p, b_hat),
                &served,
                &format!("{} {scheme:?} winner", model.name),
            );
            if let Some(c) = served {
                let opened = reopen(&pass, &c, model, cluster).expect("a winner rebuilds");
                gates += 1;
                pass_keys.insert(opened.key);
                assert_eq!(opened.key.recompute, takes_the_retry(&c, model, cluster));
                let alone = reopen(&StructureTable::new(), &c, model, cluster).unwrap();
                assert_same_gate(opened, alone, &c, model, cluster);
            }
        }
    }
    assert!(
        candidates > 500 && gates > 40,
        "{candidates} candidates, {gates} gates"
    );
    let shapes_seen = grid_keys.len() as u64;
    assert_eq!(
        grid.stats(),
        TableStats {
            hits: candidates - shapes_seen,
            misses: shapes_seen,
            entries: shapes_seen,
            ops: grid.stats().ops,
            states: grid.stats().states,
            simulated: candidates,
        }
    );
    // The pass saw the grid's shapes plus the retried variant of each winner
    // that recomputes: first verified at its gate, as a shape of its own.
    let retried = pass_keys.iter().filter(|k| k.recompute).count() as u64;
    assert!(retried > 0, "no winner took the recomputation retry");
    assert!(pass_keys
        .iter()
        .all(|k| grid_keys.contains(&(k.scheme, k.d, k.n))));
    assert_eq!(
        pass.stats(),
        TableStats {
            hits: candidates + gates - shapes_seen - retried,
            misses: shapes_seen + retried,
            entries: shapes_seen + retried,
            ops: pass.stats().ops,
            states: pass.stats().states,
            simulated: pass.stats().simulated,
        }
    );
    // A search simulates what can still win, not its grid.
    assert!(
        pass.stats().simulated < candidates / 2,
        "{:?}",
        pass.stats()
    );
    // The retried variants are as long as the shapes they retry.
    assert!(pass.stats().ops > grid.stats().ops && grid.stats().ops > 100_000);
}

/// The service's answer on every topology preset: each scheme's search
/// against one lived-in table per preset equals its oracle, field for field
/// — a baseline's the first entry of its full sweep, a Chimera variant's
/// the first fitting grid point with the least Eq. 1 prediction.
#[test]
fn the_pruned_search_answers_what_the_full_sweep_answers_on_every_preset() {
    let mut searches = 0;
    for scenario in NetScenario::all() {
        let cluster = ClusterSpec::from_scenario(&scenario);
        let table = StructureTable::new();
        for (model, p, b_hat) in shapes() {
            for scheme in schemes() {
                let what = format!("{} {} {scheme:?}", scenario.name, model.name);
                let served = plan_until(&table, scheme, model, cluster, p, b_hat, None).unwrap();
                let grid = match scheme {
                    PlanScheme::Chimera { .. } => valid_grid(scheme, model, cluster, p, b_hat),
                    _ => Vec::new(),
                };
                let oracle = oracle(scheme, grid, model, cluster, p, b_hat);
                assert_same(&oracle, &served, &what);
                searches += 1;
            }
        }
        let stats = table.stats();
        assert!(stats.simulated < stats.hits + stats.misses, "{stats:?}");
    }
    assert_eq!(searches, 5 * 6 * 9);
}

/// Chimera's answer under a tenant's memory budget (8 GiB, a budget serve
/// accepts) on every preset equals its oracle's. Here some candidates that
/// do not fit predict less than every one that does, so the oracle's fit
/// rule decides.
#[test]
fn chimera_answers_its_oracle_under_a_memory_budget() {
    let mut unfit_below = 0;
    for scenario in NetScenario::all() {
        let cluster = ClusterSpec::from_scenario(&scenario).with_mem_budget(8 << 30);
        let table = StructureTable::new();
        for (model, p, b_hat) in shapes() {
            for scheme in schemes() {
                let PlanScheme::Chimera { .. } = scheme else {
                    continue;
                };
                let what = format!("{} {} {scheme:?}", scenario.name, model.name);
                let served = plan_until(&table, scheme, model, cluster, p, b_hat, None).unwrap();
                let grid = valid_grid(scheme, model, cluster, p, b_hat);
                let oracle = oracle(scheme, grid.clone(), model, cluster, p, b_hat);
                assert_same(&oracle, &served, &what);
                let least = oracle.and_then(|c| c.predicted_s).unwrap_or(f64::INFINITY);
                let unfit = grid.iter().filter(|c| !c.fits);
                unfit_below += unfit
                    .filter(|c| c.predicted_s.is_some_and(|s| s < least))
                    .count();
            }
        }
    }
    assert!(unfit_below > 0, "no unfit candidate predicts below a pick");
}

/// The Chimera oracle's tie rule: of equal predictions, the first grid
/// point. No preset's grid ties at its least prediction, so the tie is made
/// here, from a real grid.
#[test]
fn the_chimera_oracle_takes_the_first_of_equal_predictions() {
    let (model, cluster) = (ModelSpec::bert48(), ClusterSpec::piz_daint());
    let scheme = schemes()[0];
    let tied: Vec<Candidate> = (valid_grid(scheme, model, cluster, 8, 64).into_iter())
        .filter(|c| c.fits)
        .map(|c| Candidate {
            predicted_s: Some(1.0),
            ..c
        })
        .collect();
    assert!(tied.len() > 2);
    let first = Some(tied[0].clone());
    let oracle = oracle(scheme, tied, model, cluster, 8, 64);
    assert_same(&first, &oracle, "ties");
}

/// The throughput bound a grid search ranks `c` by, recomputed from the
/// schedule `rebuild` makes for it: its samples over its `SpanBound`.
fn throughput_bound(c: &Candidate, model: ModelSpec, cluster: ClusterSpec) -> f64 {
    let (sched, cost, _) = rebuild(c, model, cluster).expect("it rebuilds");
    let ticks = SpanBound::of(&sched).ticks(&cost, false);
    let samples = u64::from(sched.n) * u64::from(c.b) * u64::from(c.w);
    samples as f64 / SimCostModel::seconds(ticks)
}

/// A grid search simulates exactly what can still win: every candidate
/// whose bound exceeds the winner's throughput, and none whose bound is
/// below a throughput simulated before it — in descending bound order, ties
/// in grid order, stopping at the first that cannot reach the best so far.
/// Counted by the table's `simulated`, on every preset, shape and grid
/// scheme.
#[test]
fn a_grid_search_simulates_only_what_can_still_win() {
    let (mut fitting, mut simulated, mut reaching) = (0, 0, 0);
    for scenario in NetScenario::all() {
        let cluster = ClusterSpec::from_scenario(&scenario);
        for (model, p, b_hat) in shapes() {
            for scheme in schemes() {
                if matches!(scheme, PlanScheme::Chimera { .. }) {
                    continue;
                }
                let mut grid = valid_grid(scheme, model, cluster, p, b_hat);
                grid.retain(|c| c.fits);
                if scheme == PlanScheme::PipeDream {
                    let largest = grid.iter().map(|c| c.b_hat).max();
                    grid.retain(|c| Some(c.b_hat) == largest);
                }
                let mut ranked: Vec<(f64, &Candidate)> = (grid.iter())
                    .map(|c| (throughput_bound(c, model, cluster), c))
                    .collect();
                ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
                let what = format!("{} {} {scheme:?}", scenario.name, model.name);
                let table = StructureTable::new();
                let found = plan_until(&table, scheme, model, cluster, p, b_hat, None).unwrap();
                let full = sweep(scheme, model, cluster, p, b_hat).into_iter().next();
                assert_same(&full, &found, &what);
                let count = table.stats().simulated as usize;
                let Some(winner) = found else {
                    assert_eq!(count, 0, "{what}");
                    continue;
                };
                for (at, &(bound, c)) in ranked.iter().enumerate() {
                    assert!(bound >= c.throughput, "{what}: {c:?} above its bound");
                    if bound > winner.throughput {
                        assert!(at < count, "{what}: {c:?} can win and was skipped");
                    }
                    let before = ranked[..at].iter().map(|(_, c)| c.throughput);
                    if before.clone().any(|t| bound < t) {
                        assert!(at >= count, "{what}: {c:?} cannot win and was simulated");
                    }
                }
                fitting += grid.len();
                simulated += count;
                reaching += ranked
                    .iter()
                    .filter(|(b, _)| *b >= winner.throughput)
                    .count();
            }
        }
    }
    println!("{fitting} fitting, {reaching} reach their winner, {simulated} simulated");
    assert!(
        simulated < fitting / 2,
        "{simulated} of {fitting} simulated"
    );
}

/// Whether `c`'s gate must open the retried variant of its shape: it
/// recomputes, and its scheme's own schedule — `rebuild` with the flag off —
/// does not.
fn takes_the_retry(c: &Candidate, model: ModelSpec, cluster: ClusterSpec) -> bool {
    let own = Candidate {
        recompute: false,
        ..c.clone()
    };
    let (own, _, _) = rebuild(&own, model, cluster).expect("it rebuilds");
    c.recompute && !own.iter_ops().any(|(_, _, op)| op.recomputes())
}

/// A gate through a lived-in table and one through a fresh table pass with
/// the same parts, and the schedule they priced is the one `rebuild` makes
/// from nothing.
fn assert_same_gate(
    lived_in: Opened,
    alone: Opened,
    c: &Candidate,
    model: ModelSpec,
    cluster: ClusterSpec,
) {
    assert_eq!(lived_in.key, alone.key);
    let budget = cluster.usable_mem();
    let (structure, _, mem) = lived_in.check(budget).expect("a winner passes its gate");
    let (fresh, _, fresh_mem) = alone.check(budget).expect("and alone");
    assert_eq!(mem, fresh_mem, "{c:?}");
    assert_eq!(mem.max_exact_peak(), c.peak_mem);
    let (rebuilt, _, iterations) = rebuild(c, model, cluster).expect("it rebuilds");
    for kept in [&structure, &fresh] {
        assert_eq!(kept.sched.workers, rebuilt.workers, "{c:?}");
        assert_eq!(kept.sched.sync, rebuilt.sync);
        assert_eq!(kept.iterations, iterations);
    }
    assert_eq!(structure.report.to_json(), fresh.report.to_json());
    assert_eq!(structure.critical, fresh.critical);
}

fn cost(model: ModelSpec, cluster: ClusterSpec, d: u32, w: u32, b: u32) -> SimCostModel {
    TrainConfig {
        model,
        cluster,
        d,
        w,
        b,
        stage_replicas: 2,
    }
    .cost_model()
}

/// (c) One shape, many price lists: the synced schedule and the structural
/// report do not depend on which `(model, cluster, W, B)` asked, and the two
/// recompute values of one `(scheme, D, N)` are two entries.
#[test]
fn a_shape_is_the_same_under_every_price_list() {
    let table = StructureTable::new();
    let scheme = PlanScheme::Chimera {
        f: 1,
        scale: ScaleMethod::Direct,
    };
    let key = StructureKey {
        scheme,
        d: 4,
        n: 8,
        recompute: false,
    };
    let base = || Some((chimera(&ChimeraConfig::new(4, 8)).unwrap(), 1));
    let v100 = ClusterSpec::v100_cluster();
    let fat_tree = ClusterSpec::from_scenario(&NetScenario::by_name("fat-tree").unwrap());
    let prices = [
        cost(ModelSpec::bert48(), ClusterSpec::piz_daint(), 4, 2, 4),
        cost(ModelSpec::gpt2(), v100, 4, 8, 1),
        cost(ModelSpec::gpt2_32(), fat_tree, 4, 4, 2),
        cost(ModelSpec::bert48(), v100, 4, 1, 16),
    ];
    let opened: Vec<_> = (prices.iter())
        .map(|c| table.open(key, base, |_| c.clone()).unwrap())
        .collect();
    let first = &opened[0];
    assert!(
        first.structure.report.is_clean(),
        "{}",
        first.structure.report
    );
    assert!(first.structure.critical.is_some());
    let sched = &first.structure.sched;
    assert!(sched.iter_ops().any(|(_, _, op)| !op.is_compute()));
    assert!(sched.workers.iter().all(|ops| ops.capacity() == ops.len()));
    for o in &opened[1..] {
        assert!(std::sync::Arc::ptr_eq(&o.structure, &first.structure));
        // The prices differ: same buffers, different bytes.
        assert_ne!(
            o.mem.as_ref().unwrap().max_exact_peak(),
            first.mem.as_ref().unwrap().max_exact_peak()
        );
    }
    // Analysed again from scratch under another price list: the same value.
    let again = (StructureTable::new().open(key, base, |_| prices[2].clone())).unwrap();
    assert_eq!(again.structure.sched.workers, sched.workers);
    assert_eq!(again.structure.sched.sync, sched.sync);
    assert_eq!(
        again.structure.report.to_json(),
        first.structure.report.to_json()
    );
    assert_eq!(again.structure.critical, first.structure.critical);
    assert_eq!((table.stats().misses, table.stats().entries), (1, 1));

    let retried_key = StructureKey {
        recompute: true,
        ..key
    };
    let retried = (table.open(retried_key, base, |_| prices[0].clone())).unwrap();
    assert_eq!((table.stats().misses, table.stats().entries), (2, 2));
    assert_eq!(table.stats().ops, 2 * first.structure.report.ops as u64);
    assert!(retried.structure.report.is_clean());
    // Sync ops where the scheme's own schedule has them.
    assert_eq!(
        retried.structure.sched.workers,
        sched.clone().with_recompute().workers
    );
    assert_ne!(retried.structure.sched.workers, sched.workers);
}

/// The generator a table is handed runs at a shape's first sight and never
/// again: generations == `misses`, a hit builds nothing, and a shape the
/// generator refuses is no lookup at all.
#[test]
fn a_hit_generates_nothing() {
    let table = StructureTable::new();
    let cluster = ClusterSpec::piz_daint();
    let chimera_direct = PlanScheme::Chimera {
        f: 1,
        scale: ScaleMethod::Direct,
    };
    let generated = std::cell::Cell::new(0u64);
    let generate = |scheme: PlanScheme, d: u32, n: u32| {
        let built = match scheme {
            PlanScheme::Dapple => (dapple(d, n), 1),
            PlanScheme::GPipe => (gpipe(d, n), 1),
            PlanScheme::PipeDream2Bw if n >= d => {
                (pipedream_2bw_steady(d, n, 6).with_recompute(), 6)
            }
            PlanScheme::Chimera { .. } => (chimera(&ChimeraConfig::new(d, n)).ok()?, 1),
            _ => return None,
        };
        generated.set(generated.get() + 1);
        Some(built)
    };
    let (mut lookups, mut seen) = (0u64, HashSet::new());
    for (model, p, b_hat) in shapes() {
        for scheme in [
            chimera_direct,
            PlanScheme::Dapple,
            PlanScheme::GPipe,
            PlanScheme::PipeDream2Bw,
        ] {
            for d in depth_candidates(p, &model) {
                let w = p / d;
                for b in batch_candidates(b_hat, w) {
                    let n = (b_hat / (u64::from(w) * u64::from(b))) as u32;
                    let key = StructureKey {
                        scheme,
                        d,
                        n,
                        recompute: false,
                    };
                    let before = generated.get();
                    let price = |_: &Schedule| cost(model, cluster, d, w, b);
                    let opened = table.open(key, || generate(scheme, d, n), price);
                    let first_sight = opened.is_some() && seen.insert(key);
                    lookups += u64::from(opened.is_some());
                    assert_eq!(generated.get() - before, u64::from(first_sight), "{key:?}");
                    let stats = table.stats();
                    assert_eq!(stats.misses, generated.get());
                    assert_eq!(stats.hits + stats.misses, lookups);
                }
            }
        }
    }
    let stats = table.stats();
    assert!(
        stats.hits > 3 * stats.misses && stats.misses > 50,
        "{stats:?}"
    );
    assert_eq!(stats.entries, seen.len() as u64);
}

/// A shape with more ops than the table may hold is analysed and priced at
/// every sight, and never kept.
#[test]
fn a_shape_over_the_op_bound_is_priced_and_not_kept() {
    let table = StructureTable::new();
    let (d, n) = (2, StructureTable::OP_CAP as u32 / 4 + 1);
    let key = StructureKey {
        scheme: PlanScheme::Dapple,
        d,
        n,
        recompute: false,
    };
    let price = |_: &Schedule| cost(ModelSpec::bert48(), ClusterSpec::piz_daint(), d, 2, 1);
    let open = || table.open(key, || Some((dapple(d, n), 1)), price).unwrap();
    let (first, again) = (open(), open());
    assert!(first.structure.report.ops > StructureTable::OP_CAP);
    assert!(first.structure.report.is_clean() && first.mem.is_some());
    assert_eq!(first.mem, again.mem);
    let stats = table.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries, stats.ops),
        (0, 2, 0, 0)
    );
}

/// A winner that takes the recomputation retry was evaluated under its
/// scheme's own verdict; the retried schedule is verified itself at its
/// first gate (a miss), and looked up from then on.
#[test]
fn a_recompute_winners_first_gate_is_a_miss() {
    let (model, cluster) = (ModelSpec::bert48(), ClusterSpec::piz_daint());
    let table = StructureTable::new();
    let c = evaluate(
        &table,
        PlanScheme::Dapple,
        model,
        cluster,
        32,
        8192,
        8,
        4,
        32,
    )
    .unwrap()
    .unwrap();
    assert!(c.recompute && c.fits);
    assert_eq!((table.stats().misses, table.stats().entries), (1, 1));
    for (sight, misses) in [(1, 2), (2, 2)] {
        let opened = reopen(&table, &c, model, cluster).unwrap();
        assert!(opened.key.recompute);
        assert_eq!(table.stats().misses, misses, "gate {sight}");
        let (structure, _, mem) = opened.check(cluster.usable_mem()).unwrap();
        assert!(structure.sched.iter_ops().any(|(_, _, op)| op.recomputes()));
        assert_eq!(mem.max_exact_peak(), c.peak_mem);
    }
    assert_eq!(table.stats().entries, 2);
}

/// A deliberately unclean structure — every single-op drop / move mutant of
/// two clean schedules, handed to the entry point every candidate goes through —
/// is refused with the typed error at its first sight and, from the table,
/// at its second: an unclean report is kept like a clean one.
#[test]
fn an_unclean_structure_is_refused_on_every_sight() {
    let bases: [(PlanScheme, Schedule); 2] = [
        (PlanScheme::Dapple, dapple(4, 8)),
        (
            PlanScheme::Chimera {
                f: 1,
                scale: ScaleMethod::Direct,
            },
            chimera(&ChimeraConfig::new(4, 4)).unwrap(),
        ),
    ];
    let mut refused = 0;
    for (scheme, clean) in bases {
        let key = StructureKey {
            scheme,
            d: clean.d,
            n: clean.n,
            recompute: false,
        };
        let cost = cost(ModelSpec::bert48(), ClusterSpec::piz_daint(), 4, 2, 4);
        mutants::for_each_mutant("base", &clean, |mutant, what| {
            let table = StructureTable::new();
            let open = || {
                let opened = table.open(key, || Some((mutant.clone(), 1)), |_| cost.clone());
                opened.expect("a schedule was generated").check(u64::MAX)
            };
            let first = open().expect_err("a mutant is not clean");
            let second = open().expect_err("nor at its second sight");
            assert_eq!(first, second, "{what}");
            assert_eq!(first.key, key);
            assert!(!first.code.is_empty() && first.to_string().contains(first.code));
            let stats = table.stats();
            assert_eq!(
                (stats.misses, stats.hits, stats.entries),
                (1, 1, 1),
                "{what}"
            );
            refused += 1;
        });
    }
    assert_eq!(refused, 3 * (64 + 32), "mutants");
}

/// What `f` returns, and how many schedules it lowered on this thread.
fn counting_lowerings<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = lowerings();
    let out = f();
    (out, lowerings() - before)
}

/// A shape's memory is structure too: the lowering that verifies its
/// schedule at the first sight also walks it into count states, and from then
/// on a hit, a candidate that takes the recomputation retry and a gate hit
/// price their memory from the states and lower nothing — counted the way
/// the generator is. The kept states are the ones a walk of the kept
/// schedule gives: the schedule's own and, where the retry can be taken, its
/// `with_recompute` variant's.
#[test]
fn a_hit_lowers_nothing() {
    let (model, cluster) = (ModelSpec::bert48(), ClusterSpec::piz_daint());
    let (p, b_hat) = (32, 2048);
    let table = StructureTable::new();
    let (mut candidates, mut retried, mut gates) = (0, HashSet::new(), 0);
    for scheme in schemes() {
        // Depths whose schedules the table keeps at this mini-batch.
        for d in depth_candidates(p, &model).into_iter().filter(|&d| d <= 8) {
            let w = p / d;
            for b in batch_candidates(b_hat, w) {
                let evaluate = || evaluate(&table, scheme, model, cluster, p, b_hat, w, d, b);
                let (first, _) = counting_lowerings(evaluate);
                let (again, lowered) = counting_lowerings(evaluate);
                let what = format!("{scheme:?} W={w} D={d} B={b}");
                assert_eq!(lowered, 0, "{what}: a hit");
                let first = first.unwrap();
                assert_same(&first, &again.unwrap(), &what);
                let Some(c) = first else {
                    continue;
                };
                candidates += 1;
                if c.recompute && takes_the_retry(&c, model, cluster) {
                    retried.insert(scheme);
                }
                // The gate: its first sight of a retried shape is a miss, its
                // second a hit.
                let gate = || reopen(&table, &c, model, cluster).expect("it rebuilds");
                counting_lowerings(gate);
                let (opened, lowered) = counting_lowerings(gate);
                assert_eq!(lowered, 0, "{what}: a gate hit");
                let (checked, lowered) = counting_lowerings(|| opened.check(u64::MAX));
                let (structure, _, _) = checked.expect("a clean structure");
                assert_eq!(lowered, 0, "{what}: a gate's check");
                gates += 1;

                // The retry's states are kept where the retry can be taken:
                // on a shape whose schedule does not recompute already.
                let recomputes = structure.sched.iter_ops().any(|(_, _, op)| op.recomputes());
                let (_, rewalked) = verify_states(&structure.sched, 1, !recomputes);
                assert_eq!(structure.states, rewalked, "{what}");
            }
        }
    }
    assert!(
        candidates > 100 && gates == candidates,
        "{candidates} candidates"
    );
    // A Chimera candidate prices its retried Eq. 1 too, a grid scheme's only
    // its memory.
    assert!(
        retried.contains(&schemes()[0]) && retried.contains(&PlanScheme::Dapple),
        "{retried:?}"
    );
}
