//! Exhaustive-interleaving checks for the keyed allreduce
//! (`KeyedMember`), driven by the `chimera_comm::modelcheck` explorer
//! (run with `RUSTFLAGS="--cfg loom"`, see the CI `loom` job).
//!
//! A member's contribute is up to three kinds of explorer step — file the
//! gradient; sum a fold its arrival made due with the group lock released;
//! publish that fold — and so is its launch, so the other members run
//! between them. The buffer a contribute puts back rides on its last step
//! (the file, or the publish of its last fold): it touches only the group's
//! spare list, so where it sits decides which spare comes back, never a
//! result. The properties: every member of every interleaving observes the
//! key-ordered sum bit for bit — runs folded mid-round included — and never
//! while a fold of its round is still out; rounds never bleed into each
//! other; every contribute puts exactly one buffer back and every buffer
//! deposited at launch goes home exactly once; a held result is never
//! overwritten.
#![cfg(loom)]

use chimera_collectives::{keyed_group, sum_in_key_order, Fold, KeyedMember};
use chimera_comm::modelcheck::{explore, StepOutcome};
use chimera_comm::Reduced;
use chimera_tensor::pool;

/// Floats per gradient: the smallest buffer the pool files, so a buffer's
/// trip into a pool shows in the pool's counters.
const LEN: usize = pool::MIN_POOLED;

/// One member's program, a round at a time.
#[derive(Clone)]
struct Plan {
    /// Per round: the `(key, value)` pairs this member contributes, keys
    /// increasing.
    contributes: Vec<Vec<(u64, f32)>>,
    /// Per round: the pairs it deposits at launch.
    launches: Vec<Vec<(u64, f32)>>,
}

enum Next {
    /// File the round's next contribution, or launch after the last.
    Contribute,
    /// Launch the round.
    Launch,
    /// Sum, then publish, the folds this member holds.
    Fold,
    /// Wait for the round's result.
    Fetch,
}

struct Member {
    plan: Plan,
    round: usize,
    /// Contributions filed this round.
    filed: usize,
    next: Next,
    /// The fold this member is running and whether it has been summed.
    fold: Option<(Fold, bool)>,
    /// After its folds: put a buffer back (a contribute), or move on to
    /// the fetch (a launch).
    gives_back: bool,
}

struct World {
    members: Vec<KeyedMember>,
    state: Vec<Member>,
    /// `results[rank]` = fetched handles in round order.
    results: Vec<Vec<Reduced>>,
    /// Folds summed or waiting, by round, across every member.
    outstanding: Vec<usize>,
    /// Most folds any round took.
    folds_per_round: Vec<usize>,
    /// Pool puts (kept or discarded) on this thread before the run.
    puts_before: u64,
}

fn pool_puts() -> u64 {
    let s = pool::local_stats();
    s.returns + s.discards
}

impl World {
    fn new(n: usize, plans: &[Plan]) -> Self {
        let rounds = plans.iter().map(|p| p.launches.len()).max().unwrap_or(0);
        World {
            members: keyed_group(n),
            state: plans
                .iter()
                .map(|plan| Member {
                    plan: plan.clone(),
                    round: 0,
                    filed: 0,
                    next: Next::Contribute,
                    fold: None,
                    gives_back: false,
                })
                .collect(),
            results: (0..n).map(|_| Vec::new()).collect(),
            outstanding: vec![0; rounds],
            folds_per_round: vec![0; rounds],
            puts_before: pool_puts(),
        }
    }
}

/// The vector filed with value `v` in round `round`.
fn value(v: f32, round: usize) -> Vec<f32> {
    vec![v + (10 * round) as f32; LEN]
}

/// Take up the fold `fold` (if any) or finish the contribute / launch.
fn after(w: &mut World, rank: usize, fold: Option<Fold>) {
    let m = &mut w.state[rank];
    match fold {
        Some(fold) => {
            w.outstanding[m.round] += 1;
            w.folds_per_round[m.round] += 1;
            m.fold = Some((fold, false));
            m.next = Next::Fold;
        }
        None if m.gives_back => {
            w.members[rank].give_back(LEN);
            m.filed += 1;
            m.next = Next::Contribute;
            m.gives_back = false;
        }
        None => m.next = Next::Fetch,
    }
}

fn run_member(w: &mut World, rank: usize) -> StepOutcome {
    let m = &mut w.state[rank];
    let round = m.round;
    match m.next {
        Next::Contribute => {
            let Some(&(key, v)) = m.plan.contributes[round].get(m.filed) else {
                m.next = Next::Launch;
                return run_member(w, rank);
            };
            m.gives_back = true;
            let fold = w.members[rank].file(key, value(v, round));
            after(w, rank, fold);
        }
        Next::Launch => {
            let pairs = (m.plan.launches[round].iter())
                .map(|&(key, v)| (key, value(v, round)))
                .collect();
            let fold = w.members[rank].launch(pairs);
            after(w, rank, fold);
        }
        Next::Fold => {
            let (mut fold, summed) = m.fold.take().expect("a fold to run");
            if !summed {
                fold.sum();
                m.fold = Some((fold, true));
            } else {
                w.outstanding[round] -= 1;
                let next = fold.publish();
                after(w, rank, next);
            }
        }
        Next::Fetch => {
            let Some(v) = w.members[rank].try_fetch() else {
                return StepOutcome::Blocked;
            };
            assert_eq!(
                w.outstanding[round], 0,
                "member {rank} fetched round {round} while a fold of it was out"
            );
            w.results[rank].push(v);
            m.round += 1;
            m.filed = 0;
            m.next = Next::Contribute;
            if m.round == m.plan.launches.len() {
                return StepOutcome::Done;
            }
        }
    }
    StepOutcome::Progress
}

/// What every member must fetch: per round, the key-ordered sum of every
/// member's contributed and launched vectors.
fn expected(plans: &[Plan]) -> Vec<Vec<f32>> {
    let rounds = plans[0].launches.len();
    (0..rounds)
        .map(|round| {
            sum_in_key_order(plans.iter().enumerate().flat_map(|(rank, p)| {
                let pairs = p.contributes[round].iter().chain(&p.launches[round]);
                pairs.map(move |&(k, v)| (k, rank, value(v, round)))
            }))
        })
        .collect()
}

/// Explore `plans` on a group of their size and check every interleaving.
/// Returns the largest number of folds one round took in any of them.
fn check_all(plans: Vec<Plan>, min_executions: usize) -> usize {
    let n = plans.len();
    let expected = expected(&plans);
    // One put per contribute, and one per pair deposited at launch (at its
    // depositor's fetch).
    let puts: usize = (plans.iter())
        .flat_map(|p| p.contributes.iter().chain(&p.launches))
        .map(Vec::len)
        .sum();
    let most_folds = std::cell::Cell::new(0);
    let ex = explore(
        n,
        {
            let plans = plans.clone();
            move || World::new(n, &plans)
        },
        run_member,
        |w, sched| {
            for (rank, res) in w.results.iter().enumerate() {
                assert_eq!(res.len(), expected.len(), "schedule {sched:?}");
                for (round, (got, want)) in res.iter().zip(&expected).enumerate() {
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(got),
                        bits(want),
                        "schedule {sched:?}: member {rank}, round {round}"
                    );
                }
            }
            assert_eq!(
                pool_puts() - w.puts_before,
                puts as u64,
                "schedule {sched:?}"
            );
            let folds = w.folds_per_round.iter().copied().max().unwrap_or(0);
            most_folds.set(most_folds.get().max(folds));
        },
    );
    assert!(
        ex.deadlock_free(),
        "deadlocked schedules: {:?}",
        ex.deadlocks
    );
    assert!(
        ex.executions >= min_executions,
        "only {} schedules explored",
        ex.executions
    );
    most_folds.get()
}

fn streaming(contributes: &[&[(u64, f32)]]) -> Plan {
    Plan {
        contributes: contributes.iter().map(|c| c.to_vec()).collect(),
        launches: contributes.iter().map(|_| Vec::new()).collect(),
    }
}

/// Three members with interleaved keys, adversarial to float reassociation
/// (1e8 + 1 + −1e8 + 1): the fold must be the *key-ordered* sum, bit-exact
/// and identical on every member, in every interleaving — arrival order
/// must never leak into the result.
#[test]
fn folds_are_bit_exact_and_order_independent() {
    // Key order differs from arrival order in most interleavings, and a
    // different order would visibly change the bits.
    assert_eq!(((1e8f32 + 1.0) + -1e8) + 1.0, 1.0);
    assert_ne!(((1e8f32 + -1e8) + 1.0) + 1.0, 1.0);
    let plans = vec![
        streaming(&[&[(0, 1e8), (3, 1.0)]]),
        streaming(&[&[(1, 1.0)]]),
        streaming(&[&[(2, -1e8)]]),
    ];
    check_all(plans, 1000);
}

/// Two members whose keys make a run of four foldable before either
/// launches: a fold mid-round, by whichever member's arrival made it due,
/// then the rest at the last launch — and the same bits as one ordered sum.
#[test]
fn a_run_folds_mid_round_with_the_same_bits() {
    let plans = vec![
        streaming(&[&[(0, 1e8), (2, -1e8), (4, 0.5)]]),
        streaming(&[&[(1, 1.0), (3, 1.0)]]),
    ];
    let most = check_all(plans, 100);
    assert!(
        most >= 2,
        "no interleaving folded before the round completed"
    );
}

/// A member running ahead has contributed key 2 while the other has not
/// yet: the fold must stop below it, because the lagging member's own key 2
/// ranks first. Folding it early would give `(1e8 − 1e8) + 1 = 1` instead
/// of `(1e8 + 1) − 1e8 = 0`.
#[test]
fn a_fold_stops_below_a_lagging_members_equal_key() {
    assert_ne!((1e8f32 + -1e8) + 1.0, (1e8f32 + 1.0) + -1e8);
    let plans = vec![
        streaming(&[&[(1, 0.0), (2, 1.0)]]),
        streaming(&[&[(0, 1e8), (1, 0.0), (2, -1e8), (3, 0.0)]]),
    ];
    let most = check_all(plans, 100);
    assert!(
        most >= 2,
        "no interleaving folded before the round completed"
    );
}

/// Two rounds: member 0 contributes as it goes, member 1 deposits its pairs
/// at launch, and either may run a round ahead. Rounds stay isolated, the
/// launch pairs are folded but go home only at their depositor's fetch,
/// and member 0's handles, held to the end, still read as fetched.
#[test]
fn rounds_stay_isolated_and_launch_pairs_go_home_at_the_fetch() {
    let plans = vec![
        streaming(&[&[(0, 3.0), (2, 7.0)], &[(1, 5.0)]]),
        Plan {
            contributes: vec![Vec::new(), Vec::new()],
            launches: vec![vec![(1, 5.0)], vec![(0, 3.0), (2, 7.0)]],
        },
    ];
    check_all(plans, 50);
}

/// A member that never launches wedges everyone: every interleaving of the
/// remaining members deadlocks rather than completing with a partial sum.
#[test]
fn missing_launch_never_yields_a_partial_sum() {
    let plans = vec![
        streaming(&[&[(0, 1.0), (2, 1.0)]]),
        streaming(&[&[(1, 1.0), (3, 1.0)]]),
    ];
    let ex = explore(
        2,
        || World::new(3, &plans), // member 2 never shows up
        run_member,
        |w, sched| {
            for res in &w.results {
                assert!(res.is_empty(), "schedule {sched:?} produced a partial sum");
            }
        },
    );
    assert!(ex.executions >= 1);
    assert_eq!(
        ex.deadlocks.len(),
        ex.executions,
        "some interleaving completed without member 2's launch"
    );
}
