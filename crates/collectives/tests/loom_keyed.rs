//! Exhaustive-interleaving checks for the keyed allreduce
//! (`KeyedMember`), driven by the `chimera_comm::modelcheck` explorer
//! (run with `RUSTFLAGS="--cfg loom"`, see the CI `loom` job).
//!
//! A member's wait is up to three explorer steps — claim a completed,
//! unclaimed round; sum it with the group lock released; fetch — so the
//! other members run between them. The properties: every
//! member of every interleaving observes the same bit-exact, key-ordered
//! sum, and never before its reduction finished; rounds never bleed into
//! each other even when a fast member runs a round ahead; every deposited
//! buffer comes back exactly once; a result buffer is reused only after the
//! round retired and every handle on it dropped.
#![cfg(loom)]

use chimera_collectives::{keyed_group, sum_in_key_order, KeyedMember, PendingReduction};
use chimera_comm::modelcheck::{explore, StepOutcome};
use chimera_comm::Reduced;
use chimera_tensor::pool;

/// Floats per contribution: the smallest buffer the pool files, so a
/// buffer's trip home shows in the pool's counters.
const LEN: usize = pool::MIN_POOLED;

struct World {
    members: Vec<KeyedMember>,
    pc: Vec<usize>,
    /// The round `rank` claimed, its arithmetic still to run.
    pending: Vec<Option<(usize, PendingReduction)>>,
    /// `results[rank]` = fetched handles in that member's round order,
    /// emptied at once by members listed in `drops`.
    results: Vec<Vec<Reduced>>,
    /// `seen[rank]` = (first value, buffer address) of every fetch.
    seen: Vec<Vec<(f32, usize)>>,
    drops: Vec<bool>,
    /// Pool puts (kept or discarded) on this thread before the run.
    puts_before: u64,
}

fn pool_puts() -> u64 {
    let s = pool::local_stats();
    s.returns + s.discards
}

impl World {
    fn new(n: usize) -> Self {
        World {
            members: keyed_group(n),
            pc: vec![0; n],
            pending: (0..n).map(|_| None).collect(),
            results: (0..n).map(|_| Vec::new()).collect(),
            seen: vec![Vec::new(); n],
            drops: vec![false; n],
            puts_before: pool_puts(),
        }
    }
}

/// One member's step through a fixed program of `rounds` rounds of
/// deposit, then (claim, sum,) fetch; `value(rank, round)` fills the one
/// vector the member deposits under key 0.
fn run_member(
    w: &mut World,
    rank: usize,
    rounds: usize,
    value: impl Fn(usize, usize) -> f32,
) -> StepOutcome {
    let (round, waiting) = (w.pc[rank] / 2, w.pc[rank] % 2 == 1);
    if !waiting {
        w.members[rank].deposit(vec![(0u64, vec![value(rank, round); LEN])]);
        w.pc[rank] += 1;
        return StepOutcome::Progress;
    }
    if let Some((_, p)) = w.pending[rank].take() {
        p.complete();
        return StepOutcome::Progress;
    }
    if let Some(p) = w.members[rank].try_claim() {
        w.pending[rank] = Some((round, p));
        return StepOutcome::Progress;
    }
    match w.members[rank].try_fetch() {
        None => StepOutcome::Blocked,
        Some(v) => {
            assert!(
                w.pending.iter().flatten().all(|&(r, _)| r != round),
                "member {rank} fetched round {round} while its sum was still being computed"
            );
            w.seen[rank].push((v[0], v.as_ptr() as usize));
            if !w.drops[rank] {
                w.results[rank].push(v);
            }
            w.pc[rank] += 1;
            if round + 1 == rounds {
                StepOutcome::Done
            } else {
                StepOutcome::Progress
            }
        }
    }
}

/// Three members whose contributions are adversarial to float reassociation
/// (1e8 + 1 + -1e8): the reduction must be the *key-ordered* sum, bit-exact
/// and identical on every member, in every interleaving — arrival order
/// must never leak into the result — and no member may see it while the
/// reducer is still summing.
#[test]
fn reduction_is_bit_exact_order_independent_and_never_early() {
    let vals = [1e8f32, 1.0, -1e8];
    let expected = sum_in_key_order(vals.iter().enumerate().map(|(r, &v)| (0u64, r, vec![v])));
    // Key-order is rank order here, and f32 addition is not associative:
    // a different reduction order would visibly change the bits.
    assert_eq!(expected, vec![(1e8f32 + 1.0) + -1e8]);

    let ex = explore(
        3,
        || World::new(3),
        move |w, t| run_member(w, t, 1, |rank, _| vals[rank]),
        move |w, sched| {
            for (rank, res) in w.results.iter().enumerate() {
                assert_eq!(res.len(), 1);
                assert!(
                    res[0].iter().all(|v| v.to_bits() == expected[0].to_bits()),
                    "schedule {sched:?}: member {rank} saw a reassociated sum"
                );
            }
            // One buffer per member went in; each came out to a pool once.
            assert_eq!(pool_puts() - w.puts_before, 3, "schedule {sched:?}");
        },
    );
    assert!(
        ex.deadlock_free(),
        "deadlocked schedules: {:?}",
        ex.deadlocks
    );
    assert!(
        ex.executions >= 3,
        "only {} schedules explored",
        ex.executions
    );
}

/// Two members, three overlapping rounds: one member may deposit round
/// `k + 1` before the other has touched round `k`. Rounds must stay isolated
/// (round `k`'s result only ever contains round-`k` contributions), retired
/// rounds must give their buffers back — and only retired, unreferenced
/// ones: with member 0 holding every handle to the end, all three results
/// live in distinct buffers and still read as fetched; with both members
/// dropping at once, the group runs on a single buffer.
#[test]
fn overlapping_rounds_stay_isolated_and_recycle_only_dropped_results() {
    const ROUNDS: usize = 3;
    let value = |rank: usize, round: usize| (round * 10 + rank + 1) as f32;
    // Round k: (10k + 1) + (10k + 2).
    let expected: Vec<f32> = (0..ROUNDS).map(|k| (20 * k + 3) as f32).collect();

    for hold in [true, false] {
        let expected = expected.clone();
        let ex = explore(
            2,
            move || {
                let mut w = World::new(2);
                w.drops = vec![!hold, true];
                w
            },
            move |w, t| run_member(w, t, ROUNDS, value),
            move |w, sched| {
                for (rank, seen) in w.seen.iter().enumerate() {
                    let values: Vec<f32> = seen.iter().map(|&(v, _)| v).collect();
                    assert_eq!(
                        values, expected,
                        "schedule {sched:?}: member {rank} mixed rounds"
                    );
                }
                let mut buffers: Vec<usize> = w.seen[0].iter().map(|&(_, p)| p).collect();
                buffers.sort_unstable();
                buffers.dedup();
                if hold {
                    assert_eq!(
                        buffers.len(),
                        ROUNDS,
                        "schedule {sched:?}: a held result was reused"
                    );
                    for (held, want) in w.results[0].iter().zip(&expected) {
                        assert!(
                            held.iter().all(|v| v == want),
                            "schedule {sched:?}: overwritten"
                        );
                    }
                } else {
                    assert_eq!(
                        buffers.len(),
                        1,
                        "schedule {sched:?}: a free result was not reused"
                    );
                }
                assert_eq!(
                    pool_puts() - w.puts_before,
                    2 * ROUNDS as u64,
                    "schedule {sched:?}"
                );
            },
        );
        assert!(
            ex.deadlock_free(),
            "deadlocked schedules: {:?}",
            ex.deadlocks
        );
        // A fast member running a full round ahead is among the schedules.
        assert!(
            ex.executions >= 5,
            "only {} schedules explored",
            ex.executions
        );
    }
}

/// A member that never deposits wedges everyone: every interleaving of the
/// remaining members deadlocks rather than completing with a partial sum.
#[test]
fn missing_contribution_never_yields_a_partial_sum() {
    let ex = explore(
        2,
        || World::new(3), // three-member group, member 2 never shows up
        |w, t| run_member(w, t, 1, |_, _| 1.0),
        |w, sched| {
            for seen in &w.seen {
                assert!(seen.is_empty(), "schedule {sched:?} produced a partial sum");
            }
        },
    );
    assert!(ex.executions >= 1);
    assert_eq!(
        ex.deadlocks.len(),
        ex.executions,
        "some interleaving completed without member 2's contribution"
    );
}
