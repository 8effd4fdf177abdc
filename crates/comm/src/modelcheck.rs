//! Exhaustive interleaving exploration for the transport layer's concurrent
//! structures — a small, dependency-free stand-in for `loom`.
//!
//! `loom` model-checks by intercepting synchronization primitives; that
//! requires compiling the code under test against loom's shadow `std`. This
//! explorer takes the complementary *replay* approach, which works on the
//! real structures unchanged: a test models each thread as a deterministic
//! sequence of **non-blocking** steps (send, `try_recv`, `deposit`,
//! `try_fetch`, ...), and [`explore`] enumerates every schedule of those
//! steps by depth-first search, rebuilding the world from scratch to replay
//! each branch. Because the inbox and keyed-reduce operations are
//! linearizable (every operation happens under one lock — the keyed
//! reduction, which folds with the lock released, is modelled as separate
//! steps: file or launch, `Fold::sum` and `Fold::publish`), every real
//! thread interleaving is
//! equivalent to some sequential schedule of steps — so exhausting the
//! schedules exhausts the behaviors, including drop/park/wake orderings.
//!
//! A step may return [`StepOutcome::Blocked`] to model a wait whose
//! condition is not yet true (e.g. `try_recv` returning `None`); blocked
//! attempts must be semantically side-effect free, which the keyed inbox
//! and `KeyedMember::try_fetch` guarantee. A state where every unfinished
//! thread is blocked is recorded as a deadlock.
//!
//! The tests built on this live behind `--cfg loom` (see the CI `loom`
//! job), matching the usual loom convention; the explorer itself always
//! compiles so schedule-level code can reuse it.

/// Result of attempting one step of one model thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step ran and changed state; the thread has more steps.
    Progress,
    /// The step's precondition does not hold in this state; attempting it
    /// had no semantic effect. The thread may become runnable after another
    /// thread progresses.
    Blocked,
    /// The thread finished its program (this step, if any, ran).
    Done,
}

/// Result of an exploration.
#[derive(Debug)]
pub struct Exploration {
    /// Number of maximal schedules executed.
    pub executions: usize,
    /// Schedules (as thread-id sequences) that ended with unfinished but
    /// permanently blocked threads.
    pub deadlocks: Vec<Vec<usize>>,
}

impl Exploration {
    /// No schedule deadlocked.
    pub fn deadlock_free(&self) -> bool {
        self.deadlocks.is_empty()
    }
}

/// Hard cap on schedule length, to turn accidental livelock in a test model
/// into a panic instead of an endless search.
const MAX_STEPS: usize = 10_000;

/// Exhaustively explore every interleaving of `threads` deterministic
/// threads.
///
/// For each schedule, a fresh world is built with `new_world`, and
/// `step(world, t)` advances thread `t` by one operation. After each maximal
/// schedule (all threads done, or every unfinished thread blocked),
/// `check(world, schedule)` is called to assert invariants — it runs for
/// deadlocked schedules too, so checks should guard on completion if they
/// only hold for finished runs.
pub fn explore<W>(
    threads: usize,
    mut new_world: impl FnMut() -> W,
    mut step: impl FnMut(&mut W, usize) -> StepOutcome,
    mut check: impl FnMut(&W, &[usize]),
) -> Exploration {
    assert!(threads >= 1);
    // `stack` is the schedule under replay: thread chosen at each point.
    let mut stack: Vec<usize> = Vec::new();
    let mut executions = 0usize;
    let mut deadlocks = Vec::new();

    'outer: loop {
        let mut world = new_world();
        let mut done = vec![false; threads];

        // Replay the committed prefix. A choice that no longer progresses
        // (blocked, or the thread already finished) marks a branch that does
        // not exist; advance to the next sibling.
        let mut d = 0;
        while d < stack.len() {
            let t = stack[d];
            let dead_branch = done[t] || {
                match step(&mut world, t) {
                    StepOutcome::Progress => false,
                    StepOutcome::Done => {
                        done[t] = true;
                        false
                    }
                    StepOutcome::Blocked => true,
                }
            };
            if dead_branch {
                if !advance(&mut stack, d, threads) {
                    break 'outer;
                }
                continue 'outer;
            }
            d += 1;
        }

        // Extend greedily with the first runnable thread until the schedule
        // is maximal.
        loop {
            if done.iter().all(|&f| f) {
                break;
            }
            assert!(stack.len() < MAX_STEPS, "model exceeds {MAX_STEPS} steps");
            let mut ran = false;
            for (t, fin) in done.iter_mut().enumerate() {
                if *fin {
                    continue;
                }
                match step(&mut world, t) {
                    StepOutcome::Blocked => continue,
                    StepOutcome::Done => *fin = true,
                    StepOutcome::Progress => {}
                }
                stack.push(t);
                ran = true;
                break;
            }
            if !ran {
                deadlocks.push(stack.clone());
                break;
            }
        }

        executions += 1;
        check(&world, &stack);

        // Backtrack to the deepest point with an untried sibling.
        if stack.is_empty() {
            break;
        }
        let last = stack.len() - 1;
        if !advance(&mut stack, last, threads) {
            break;
        }
    }

    Exploration {
        executions,
        deadlocks,
    }
}

/// Replace the choice at depth `d` with its next sibling (a higher thread
/// id), discarding everything deeper; pops upward when siblings run out.
/// Returns `false` when the whole tree is exhausted.
fn advance(stack: &mut Vec<usize>, mut d: usize, threads: usize) -> bool {
    loop {
        if stack[d] + 1 < threads {
            stack[d] += 1;
            stack.truncate(d + 1);
            return true;
        }
        if d == 0 {
            return false;
        }
        stack.truncate(d);
        d -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads each incrementing a shared counter twice: 4!/(2!2!) = 6
    /// interleavings, all ending at 4.
    #[test]
    fn counts_interleavings_of_independent_threads() {
        let ex = explore(
            2,
            || (0u32, [0usize; 2]),
            |w, t| {
                w.0 += 1;
                w.1[t] += 1;
                if w.1[t] == 2 {
                    StepOutcome::Done
                } else {
                    StepOutcome::Progress
                }
            },
            |w, _| assert_eq!(w.0, 4),
        );
        assert_eq!(ex.executions, 6);
        assert!(ex.deadlock_free());
    }

    /// A consumer blocked on a flag only a producer sets: every schedule
    /// completes (the explorer retries blocked threads), none deadlock.
    #[test]
    fn blocked_threads_wake_when_enabled() {
        struct W {
            flag: bool,
            got: bool,
        }
        let ex = explore(
            2,
            || W {
                flag: false,
                got: false,
            },
            |w, t| match t {
                0 => {
                    w.flag = true;
                    StepOutcome::Done
                }
                _ => {
                    if !w.flag {
                        return StepOutcome::Blocked;
                    }
                    w.got = true;
                    StepOutcome::Done
                }
            },
            |w, _| assert!(w.got),
        );
        assert!(ex.deadlock_free());
        assert!(ex.executions >= 1);
    }

    /// Duplicated delivery vs keyed reduction: a sender whose every parcel
    /// is delivered twice (chaos `duplicate = 1.0`, the transport-level
    /// equivalent of a retransmit racing its original), and a receiver
    /// accumulating contributions in `KeyedReduce` deposit order. Across
    /// every interleaving the receive-side dedup must absorb each copy, so
    /// the reduction is bit-exact and nothing is left in the inbox.
    #[test]
    fn duplicated_delivery_keeps_keyed_reduction_bit_exact() {
        use crate::chaos::NetChaos;
        use crate::local::{LocalEndpoint, LocalFabric};
        use crate::transport::{MsgKey, Payload, Transport};

        const VALS: [f32; 2] = [0.1, 0.2];
        let expected = (VALS[0] + VALS[1]).to_bits();
        let key = |round: u64| MsgKey::Coll {
            tag: 0,
            round,
            from: 1,
        };

        struct W {
            eps: Vec<LocalEndpoint>,
            sent: u64,
            got: u64,
            sum: f32,
        }
        let ex = explore(
            2,
            || {
                let mut eps = LocalFabric::new(2);
                // Every send is also delivered a second time.
                eps[1].install_chaos(NetChaos::new(1).with_duplicate(1.0));
                W {
                    eps,
                    sent: 0,
                    got: 0,
                    sum: 0.0,
                }
            },
            |w, t| match t {
                0 => {
                    // Sender: one (duplicated) contribution per step.
                    let r = w.sent;
                    w.sent += 1;
                    w.eps[1]
                        .send(0, key(r), Payload::Flat(vec![VALS[r as usize]]))
                        .expect("receiver alive");
                    if w.sent == 2 {
                        StepOutcome::Done
                    } else {
                        StepOutcome::Progress
                    }
                }
                _ => {
                    // Receiver: fetch contributions in deposit order, like
                    // `KeyedReduce` members do, and accumulate bit-exactly.
                    match w.eps[0].try_recv(&key(w.got)) {
                        None => StepOutcome::Blocked,
                        Some(p) => {
                            w.sum += p.into_flat()[0];
                            w.got += 1;
                            if w.got == 2 {
                                StepOutcome::Done
                            } else {
                                StepOutcome::Progress
                            }
                        }
                    }
                }
            },
            |w, sched| {
                assert_eq!(
                    w.sum.to_bits(),
                    expected,
                    "duplicate leaked into the reduction on schedule {sched:?}"
                );
                // Exactly-once: the duplicated copies left nothing behind.
                for r in 0..2 {
                    assert!(
                        w.eps[0].try_recv(&key(r)).is_none(),
                        "stale duplicate for round {r} on schedule {sched:?}"
                    );
                }
                assert_eq!(w.eps[0].dup_dropped(), 2);
            },
        );
        assert!(ex.deadlock_free());
        assert!(ex.executions >= 2, "interleavings actually explored");
    }

    /// Two threads each waiting on a flag only the other sets, with the set
    /// happening *after* the wait: every schedule deadlocks.
    #[test]
    fn circular_waits_are_reported_as_deadlocks() {
        let ex = explore(
            2,
            || [false; 2],
            |w, t| {
                if !w[t] {
                    return StepOutcome::Blocked; // wait for my flag first
                }
                w[1 - t] = true; // then release the other thread
                StepOutcome::Done
            },
            |_, _| {},
        );
        assert_eq!(ex.executions, 1);
        assert_eq!(ex.deadlocks.len(), 1);
    }
}
