//! Exhaustive-interleaving checks for the keyed inbox, in the spirit of
//! `loom`: every schedule of sender/receiver steps is explored via
//! `chimera_comm::modelcheck` (run with `RUSTFLAGS="--cfg loom"`, see the
//! CI `loom` job).
#![cfg(loom)]

use chimera_comm::modelcheck::{explore, StepOutcome};
use chimera_comm::{LocalEndpoint, LocalFabric, MsgKey, Payload, Transport};

fn act(micro: u64) -> MsgKey {
    MsgKey::Act {
        replica: 0,
        stage: 0,
        micro,
    }
}

fn flat(p: Payload) -> Vec<f32> {
    p.into_flat()
}

struct World {
    eps: Vec<LocalEndpoint>,
    /// Per-thread program counter.
    pc: Vec<usize>,
    /// What the receiver thread pulled out, in its program order.
    got: Vec<Vec<f32>>,
}

impl World {
    fn new(world: u32, threads: usize) -> Self {
        World {
            eps: LocalFabric::new(world),
            pc: vec![0; threads],
            got: Vec::new(),
        }
    }
}

/// Two senders racing on *different* keys, receiver asking for them in the
/// opposite order: keyed addressing must deliver by key, never by arrival
/// order, in every one of the interleavings.
#[test]
fn receiver_gets_messages_by_key_under_any_arrival_order() {
    let ex = explore(
        3,
        || World::new(3, 3),
        |w, t| match t {
            0 => {
                w.eps[0].send(2, act(0), Payload::Flat(vec![10.0])).unwrap();
                StepOutcome::Done
            }
            1 => {
                w.eps[1].send(2, act(1), Payload::Flat(vec![20.0])).unwrap();
                StepOutcome::Done
            }
            _ => {
                // Receiver program: take micro 1 first, then micro 0.
                let want = act(1 - w.pc[2] as u64);
                match w.eps[2].try_recv(&want) {
                    None => StepOutcome::Blocked,
                    Some(p) => {
                        w.got.push(flat(p));
                        w.pc[2] += 1;
                        if w.pc[2] == 2 {
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
                w.got,
                vec![vec![20.0], vec![10.0]],
                "schedule {sched:?} delivered by arrival order, not by key"
            );
        },
    );
    assert!(
        ex.deadlock_free(),
        "deadlocked schedules: {:?}",
        ex.deadlocks
    );
    // Both senders can land before/after/between the two receives: more than
    // one distinct maximal schedule must have been explored.
    assert!(
        ex.executions >= 3,
        "only {} schedules explored",
        ex.executions
    );
}

/// Two senders racing on the *same* key: the receiver's two receives drain
/// both messages exactly once (no loss, no duplication) in every
/// interleaving; FIFO order within the key may legitimately differ per
/// schedule.
#[test]
fn same_key_racers_are_each_delivered_exactly_once() {
    let mut saw_both_orders = (false, false);
    let ex = explore(
        3,
        || World::new(3, 3),
        |w, t| match t {
            0 => {
                w.eps[0].send(2, act(7), Payload::Flat(vec![1.0])).unwrap();
                StepOutcome::Done
            }
            1 => {
                w.eps[1].send(2, act(7), Payload::Flat(vec![2.0])).unwrap();
                StepOutcome::Done
            }
            _ => match w.eps[2].try_recv(&act(7)) {
                None => StepOutcome::Blocked,
                Some(p) => {
                    w.got.push(flat(p));
                    w.pc[2] += 1;
                    if w.pc[2] == 2 {
                        StepOutcome::Done
                    } else {
                        StepOutcome::Progress
                    }
                }
            },
        },
        |w, sched| {
            let mut vals: Vec<f32> = w.got.iter().map(|v| v[0]).collect();
            if vals == [1.0, 2.0] {
                saw_both_orders.0 = true;
            }
            if vals == [2.0, 1.0] {
                saw_both_orders.1 = true;
            }
            vals.sort_by(f32::total_cmp);
            assert_eq!(
                vals,
                [1.0, 2.0],
                "schedule {sched:?} lost or duplicated a message"
            );
        },
    );
    assert!(ex.deadlock_free());
    assert!(
        saw_both_orders.0 && saw_both_orders.1,
        "exploration failed to surface both same-key delivery orders"
    );
}

/// A message parked for a key nobody asked for yet must not satisfy (or
/// wedge) a receive for a different key issued later.
#[test]
fn parked_message_does_not_satisfy_other_keys() {
    let ex = explore(
        2,
        || World::new(2, 2),
        |w, t| match t {
            0 => match w.pc[0] {
                // Early message the receiver only wants *second*.
                0 => {
                    w.eps[0].send(1, act(5), Payload::Flat(vec![5.0])).unwrap();
                    w.pc[0] += 1;
                    StepOutcome::Progress
                }
                _ => {
                    w.eps[0].send(1, act(6), Payload::Flat(vec![6.0])).unwrap();
                    StepOutcome::Done
                }
            },
            _ => {
                let want = if w.pc[1] == 0 { act(6) } else { act(5) };
                match w.eps[1].try_recv(&want) {
                    None => StepOutcome::Blocked,
                    Some(p) => {
                        w.got.push(flat(p));
                        w.pc[1] += 1;
                        if w.pc[1] == 2 {
                            StepOutcome::Done
                        } else {
                            StepOutcome::Progress
                        }
                    }
                }
            }
        },
        |w, sched| {
            assert_eq!(w.got, vec![vec![6.0], vec![5.0]], "schedule {sched:?}");
        },
    );
    assert!(
        ex.deadlock_free(),
        "deadlocked schedules: {:?}",
        ex.deadlocks
    );
}

/// A dropped message is a send that never happens (the runtime's worker
/// skips it): the receiver's wait can never be satisfied, so **every**
/// interleaving must deadlock — the model checker proves the loss is not
/// maskable by any lucky ordering.
#[test]
fn dropped_message_deadlocks_every_interleaving() {
    let ex = explore(
        2,
        || World::new(2, 2),
        |w, t| match t {
            // The sender's program with its one send dropped.
            0 => StepOutcome::Done,
            _ => match w.eps[1].try_recv(&act(3)) {
                None => StepOutcome::Blocked,
                Some(_) => StepOutcome::Done,
            },
        },
        |_, _| {},
    );
    assert!(ex.executions >= 1);
    assert_eq!(
        ex.deadlocks.len(),
        ex.executions,
        "some interleaving masked the dropped message"
    );
}
