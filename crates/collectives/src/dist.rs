//! The transport-backed collective: the same reduction as [`crate::keyed`],
//! but running over a [`chimera_comm::Transport`] — so one group can span OS
//! processes (the TCP backend) or stay in-process (the local backend) without
//! the caller changing anything.
//!
//! Bit-exactness carries over: [`TransportKeyed`] gathers every member's
//! `(micro, gradient)` contributions at the group root and sums them with
//! the summation kernel the shared-memory `KeyedMember` uses, in the same
//! `(key, member)` order — so a distributed data-parallel run
//! produces parameters bitwise identical to the threaded one, which is what
//! the TCP-loopback equivalence test asserts.
//!
//! All collective traffic travels under [`MsgKey::Coll`] keys carrying
//! `(tag, round, sender)`, so concurrent groups (one per pipeline stage)
//! and back-to-back rounds never collide even when the wire reorders.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use chimera_comm::{KeyedReduce, MsgKey, Payload, Rank, Reduced, Transport};
use chimera_tensor::pool;
use chimera_trace::{Counter, MetricsRegistry};

use crate::keyed::sum_keyed;

type Contribution = Vec<(u64, Vec<f32>)>;

/// One member of a keyed-ordered allreduce group running over a transport.
///
/// The group is defined by `members`: the global ranks of every
/// participant, in **member order** — the order must be identical on every
/// rank, because member index is the tiebreaker in the key-ordered sum.
/// Member 0 acts as the root: it gathers all contributions, reduces, and
/// broadcasts the result.
pub struct TransportKeyed {
    ep: Arc<dyn Transport>,
    tag: u32,
    members: Vec<Rank>,
    /// This endpoint's index in `members`.
    me: usize,
    deposit_round: AtomicU64,
    fetch_round: AtomicU64,
    /// Root only: own contributions parked by round (never sent to self).
    stash: Mutex<HashMap<u64, Contribution>>,
    deposits: Arc<Counter>,
    fetches: Arc<Counter>,
    bytes_contributed: Arc<Counter>,
}

impl TransportKeyed {
    /// Create this rank's member of the group `(tag, members)`. Panics if
    /// the endpoint's rank is not in `members`.
    pub fn new(ep: Arc<dyn Transport>, tag: u32, members: Vec<Rank>) -> Self {
        let me = members
            .iter()
            .position(|&m| m == ep.rank())
            .expect("endpoint rank must be a group member");
        let reg = MetricsRegistry::global();
        TransportKeyed {
            ep,
            tag,
            members,
            me,
            deposit_round: AtomicU64::new(0),
            fetch_round: AtomicU64::new(0),
            stash: Mutex::new(HashMap::new()),
            deposits: reg.counter("collectives.keyed.deposits"),
            fetches: reg.counter("collectives.keyed.fetches"),
            bytes_contributed: reg.counter("collectives.keyed.bytes_contributed"),
        }
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    fn root(&self) -> Rank {
        self.members[0]
    }
}

impl KeyedReduce for TransportKeyed {
    fn deposit(&self, contribution: Contribution) {
        self.deposits.inc();
        self.bytes_contributed
            .add(contribution.iter().map(|(_, v)| v.len() as u64 * 4).sum());
        let round = self.deposit_round.fetch_add(1, Ordering::Relaxed);
        if self.me == 0 {
            self.stash.lock().insert(round, contribution);
        } else {
            // A failed send means the root is gone; the matching fetch will
            // hit its deadline and the worker reports the blocked op.
            let _ = self.ep.send(
                self.root(),
                MsgKey::Coll {
                    tag: self.tag,
                    round,
                    from: self.ep.rank(),
                },
                Payload::Keyed(contribution),
            );
        }
    }

    fn fetch_deadline(&self, timeout: Duration) -> Option<Reduced> {
        self.fetches.inc();
        let round = self.fetch_round.fetch_add(1, Ordering::Relaxed);
        let root_key = MsgKey::Coll {
            tag: self.tag,
            round,
            from: self.root(),
        };
        if self.me != 0 {
            let sum = self.ep.recv_deadline(root_key, timeout).ok()?.into_flat();
            return Some(Reduced::new(sum));
        }
        let deadline = Instant::now() + timeout;
        // By member index, the root's own first.
        let mut all = vec![self.stash.lock().remove(&round).unwrap_or_default()];
        for &m in &self.members[1..] {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let key = MsgKey::Coll {
                tag: self.tag,
                round,
                from: m,
            };
            all.push(self.ep.recv_deadline(key, remaining).ok()?.into_keyed());
        }
        let mut sum = Vec::new();
        sum_keyed(&mut sum, &all);
        for (_, buf) in all.into_iter().flatten() {
            pool::put(buf);
        }
        for &m in &self.members[1..] {
            // A dead member can't stall the survivors' update.
            let _ = self.ep.send(m, root_key, Payload::Flat(sum.clone()));
        }
        Some(Reduced::new(sum))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_comm::LocalFabric;
    use std::thread;

    fn fabric(n: u32) -> Vec<Arc<dyn Transport>> {
        LocalFabric::new(n)
            .into_iter()
            .map(|e| Arc::new(e) as Arc<dyn Transport>)
            .collect()
    }

    #[test]
    fn transport_keyed_matches_shared_memory_bitwise() {
        // Values that expose f32 non-associativity.
        let g0 = vec![(0u64, vec![1e8f32]), (1, vec![1.0])];
        let g1 = vec![(2u64, vec![-1e8f32]), (3, vec![1.0])];

        let shared = {
            let members = crate::keyed_group(2);
            let handles: Vec<_> = members
                .into_iter()
                .map(|m| {
                    let c = if m.rank() == 0 {
                        g0.clone()
                    } else {
                        g1.clone()
                    };
                    thread::spawn(move || m.reduce(c)[0].to_bits())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        };

        let wired = {
            let eps = fabric(2);
            let handles: Vec<_> = eps
                .into_iter()
                .enumerate()
                .map(|(i, ep)| {
                    let c = if i == 0 { g0.clone() } else { g1.clone() };
                    thread::spawn(move || {
                        let member = TransportKeyed::new(ep, 0, vec![0, 1]);
                        member.deposit(c);
                        member.fetch_deadline(Duration::from_secs(5)).unwrap()[0].to_bits()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(shared, wired);
    }

    #[test]
    fn transport_keyed_repeated_rounds() {
        let eps = fabric(3);
        let handles: Vec<_> = eps
            .into_iter()
            .enumerate()
            .map(|(i, ep)| {
                thread::spawn(move || {
                    let member = TransportKeyed::new(ep, 7, vec![0, 1, 2]);
                    let mut outs = Vec::new();
                    for round in 0..4u64 {
                        member.deposit(vec![(i as u64, vec![round as f32])]);
                        outs.push(
                            member
                                .fetch_deadline(Duration::from_secs(5))
                                .unwrap()
                                .to_vec(),
                        );
                    }
                    outs
                })
            })
            .collect();
        for h in handles {
            for (round, out) in h.join().unwrap().into_iter().enumerate() {
                assert_eq!(out, vec![3.0 * round as f32]);
            }
        }
    }

    #[test]
    fn transport_keyed_times_out_on_missing_member() {
        let eps = fabric(2);
        let mut eps = eps.into_iter();
        let e0 = eps.next().unwrap();
        let _e1 = eps.next().unwrap(); // never deposits
        let member = TransportKeyed::new(e0, 0, vec![0, 1]);
        member.deposit(vec![(0, vec![1.0])]);
        assert!(member.fetch_deadline(Duration::from_millis(50)).is_none());
    }
}
