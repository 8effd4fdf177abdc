//! A candidate is a structure and a price list: planning against a
//! [`StructureTable`] must give the answers planning without one gives, and
//! must drop no check — only repeat none.
//!
//! The grid is the serve benchmark's `plan_cold` workload: its six
//! `(model, devices, mini-batch)` shapes, every scheme id the service knows.

use std::collections::HashSet;

use chimera_core::baselines::dapple;
use chimera_core::chimera::{chimera, ChimeraConfig, ScaleMethod};
use chimera_core::schedule::Schedule;
use chimera_perf::planner::{
    batch_candidates, depth_candidates, evaluate, evaluate_with, reopen, Candidate,
};
use chimera_perf::structure::TableStats;
use chimera_perf::{
    best, plan_chimera, plan_until, ClusterSpec, ModelSpec, PlanScheme, StructureKey,
    StructureTable, TrainConfig,
};
use chimera_sim::{NetScenario, SimCostModel};

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
        chimera(1, ScaleMethod::ForwardDoubling { recompute: true }),
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

/// The search the service runs for `scheme`, and the frozen wrapper that
/// must agree with it.
fn search(
    table: &StructureTable,
    scheme: PlanScheme,
    model: ModelSpec,
    cluster: ClusterSpec,
    p: u32,
    b_hat: u64,
) -> (Option<Candidate>, Option<Candidate>) {
    let served = plan_until(table, scheme, model, cluster, p, b_hat, None).unwrap();
    let frozen = match scheme {
        PlanScheme::Chimera { f, scale } => plan_chimera(f, scale, model, cluster, p, b_hat),
        grid => best(grid, model, cluster, p, b_hat),
    };
    (served, frozen)
}

/// (a) Table-backed `evaluate` equals fresh-table `evaluate` on every grid
/// point, and (d) the counters of one pass say that nothing was dropped:
/// full structural verifications (`misses`) == distinct shapes seen, pricings
/// (`hits + misses`, one per `open`) == candidates (+ gated winners, for a
/// pass with gates).
#[test]
fn the_table_changes_no_answer_and_drops_no_check() {
    let cluster = ClusterSpec::piz_daint();
    // `grid`: every candidate evaluated once. `pass`: what the service does
    // per query — search, then gate the winner.
    let (grid, pass) = (StructureTable::new(), StructureTable::new());
    let (mut candidates, mut gates) = (0u64, 0u64);
    let (mut grid_keys, mut pass_keys) = (HashSet::new(), HashSet::new());
    for (model, p, b_hat) in shapes() {
        for scheme in schemes() {
            for d in depth_candidates(p, &model) {
                let w = p / d;
                for b in batch_candidates(b_hat, w) {
                    let what = format!("{} {scheme:?} W={w} D={d} B={b}", model.name);
                    let fresh = evaluate(scheme, model, cluster, p, b_hat, w, d, b);
                    let tabled =
                        evaluate_with(&grid, scheme, model, cluster, p, b_hat, w, d, b).unwrap();
                    assert_same(&fresh, &tabled, &what);
                    if let Some(c) = fresh {
                        candidates += 1;
                        grid_keys.insert((scheme, c.d, c.n));
                    }
                }
            }
            let (served, frozen) = search(&pass, scheme, model, cluster, p, b_hat);
            assert_same(
                &frozen,
                &served,
                &format!("{} {scheme:?} winner", model.name),
            );
            if let Some(c) = served {
                let opened = reopen(&pass, &c, model, cluster).expect("a winner rebuilds");
                gates += 1;
                pass_keys.insert(opened.key);
                opened
                    .check(cluster.usable_mem())
                    .expect("a winner passes its gate");
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
        }
    );
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
    let base = || chimera(&ChimeraConfig::new(4, 8)).unwrap();
    let v100 = ClusterSpec::v100_cluster();
    let fat_tree = ClusterSpec::from_scenario(&NetScenario::by_name("fat-tree").unwrap());
    let prices = [
        cost(ModelSpec::bert48(), ClusterSpec::piz_daint(), 4, 2, 4),
        cost(ModelSpec::gpt2(), v100, 4, 8, 1),
        cost(ModelSpec::gpt2_32(), fat_tree, 4, 4, 2),
        cost(ModelSpec::bert48(), v100, 4, 1, 16),
    ];
    let opened: Vec<_> = (prices.iter())
        .map(|c| table.open(key, base(), 1, c))
        .collect();
    let first = &opened[0];
    assert!(
        first.structure.report.is_clean(),
        "{}",
        first.structure.report
    );
    assert!(first.structure.critical.is_some() && first.structure.eager.is_some());
    for o in &opened[1..] {
        assert!(std::sync::Arc::ptr_eq(&o.structure, &first.structure));
        assert_eq!(o.sched.workers, first.sched.workers);
        assert_eq!(o.sched.sync, first.sched.sync);
        // The prices differ: same buffers, different bytes.
        assert_ne!(
            o.mem.as_ref().unwrap().max_exact_peak(),
            first.mem.as_ref().unwrap().max_exact_peak()
        );
    }
    // Analysed again from scratch under another price list: the same value.
    let again = StructureTable::new().open(key, base(), 1, &prices[2]);
    assert_eq!(again.sched.workers, first.sched.workers);
    assert_eq!(
        again.structure.report.to_json(),
        first.structure.report.to_json()
    );
    assert_eq!(again.structure.eager, first.structure.eager);
    assert_eq!(again.structure.critical, first.structure.critical);
    assert_eq!((table.stats().misses, table.stats().entries), (1, 1));

    let retried = table.open(
        StructureKey {
            recompute: true,
            ..key
        },
        base(),
        1,
        &prices[0],
    );
    assert_eq!((table.stats().misses, table.stats().entries), (2, 2));
    assert!(retried.structure.report.is_clean());
    assert_eq!(retried.structure.eager, first.structure.eager);
    assert_eq!(
        retried.sched.workers,
        first.sched.clone().with_recompute().workers
    );
    assert_ne!(retried.sched.workers, first.sched.workers);
}

/// A winner that takes the recomputation retry was evaluated under its
/// scheme's own verdict; the retried schedule is verified itself at its
/// first gate (a miss), and looked up from then on.
#[test]
fn a_recompute_winners_first_gate_is_a_miss() {
    let (model, cluster) = (ModelSpec::bert48(), ClusterSpec::piz_daint());
    let table = StructureTable::new();
    let c = evaluate_with(
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
        let (_, sched, mem) = opened.check(cluster.usable_mem()).unwrap();
        assert!(sched.iter_ops().any(|(_, _, op)| op.recomputes()));
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
            let first = (table.open(key, mutant.clone(), 1, &cost).check(u64::MAX))
                .expect_err("a mutant is not clean");
            let second = (table.open(key, mutant.clone(), 1, &cost).check(u64::MAX))
                .expect_err("nor at its second sight");
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
