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
//!
//! Gradients contributed during a round are held by the member and travel
//! with its launch: the wire format is one contribution per member and
//! round, and the root sums after the gather, not as pairs arrive. So a
//! member here holds its round's gradients until the launch, and its
//! contribute puts nothing back in the caller's pool: the buffers leave
//! with the launch (the root's come home at its fetch).

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
    /// The next round to fetch; advanced only when a fetch returns it.
    fetch_round: AtomicU64,
    /// Gradients contributed since the last launch, which ships them.
    held: Mutex<Contribution>,
    /// Root only: own contributions parked by round (never sent to self).
    stash: Mutex<HashMap<u64, Contribution>>,
    /// Root only: the round being gathered, by member index. A fetch that
    /// times out leaves what it has received here for the next one.
    gathered: Mutex<Vec<Option<Contribution>>>,
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
            held: Mutex::new(Vec::new()),
            stash: Mutex::new(HashMap::new()),
            gathered: Mutex::new(Vec::new()),
            deposits: reg.counter("collectives.keyed.deposits"),
            fetches: reg.counter("collectives.keyed.fetches"),
            bytes_contributed: reg.counter("collectives.keyed.bytes_contributed"),
        }
    }

    fn root(&self) -> Rank {
        self.members[0]
    }
}

impl KeyedReduce for TransportKeyed {
    /// Hold the pair until the launch, which ships it: nothing is folded
    /// here, so nothing goes back to the caller's pool.
    fn contribute(&self, key: u64, grad: Vec<f32>) {
        self.bytes_contributed.add(grad.len() as u64 * 4);
        self.held.lock().push((key, grad));
    }

    fn deposit(&self, contribution: Contribution) {
        self.deposits.inc();
        self.bytes_contributed
            .add(contribution.iter().map(|(_, v)| v.len() as u64 * 4).sum());
        let mut all = std::mem::take(&mut *self.held.lock());
        all.extend(contribution);
        let round = self.deposit_round.fetch_add(1, Ordering::Relaxed);
        if self.me == 0 {
            self.stash.lock().insert(round, all);
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
                Payload::Keyed(all),
            );
        }
    }

    fn fetch_deadline(&self, timeout: Duration) -> Option<Reduced> {
        let round = self.fetch_round.load(Ordering::Relaxed);
        let root_key = MsgKey::Coll {
            tag: self.tag,
            round,
            from: self.root(),
        };
        if self.me != 0 {
            let sum = self.ep.recv_deadline(root_key, timeout).ok()?.into_flat();
            self.fetch_round.store(round + 1, Ordering::Relaxed);
            self.fetches.inc();
            return Some(Reduced::new(sum));
        }
        let deadline = Instant::now() + timeout;
        let mut gathered = self.gathered.lock();
        gathered.resize_with(self.members.len(), || None);
        // By member index, the root's own first: it is here once the root
        // has launched the round.
        if gathered[0].is_none() {
            gathered[0] = Some(self.stash.lock().remove(&round)?);
        }
        for (slot, &m) in gathered.iter_mut().zip(&self.members).skip(1) {
            if slot.is_some() {
                continue;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            let key = MsgKey::Coll {
                tag: self.tag,
                round,
                from: m,
            };
            *slot = Some(self.ep.recv_deadline(key, remaining).ok()?.into_keyed());
        }
        let all: Vec<Contribution> = gathered.drain(..).map(|c| c.expect("gathered")).collect();
        drop(gathered);
        self.fetch_round.store(round + 1, Ordering::Relaxed);
        self.fetches.inc();
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

    /// A fetch that times out consumes nothing: at the root, the round's own
    /// contribution and whatever it already gathered stay for the next
    /// fetch; at a member, the next fetch waits for the same round.
    #[test]
    fn a_timed_out_fetch_leaves_the_round_for_the_next() {
        let short = Duration::from_millis(50);
        let long = Duration::from_secs(5);
        // Root: deposits, times out, then the peer deposits.
        let mut eps = fabric(2).into_iter();
        let (root, peer) = (eps.next().unwrap(), eps.next().unwrap());
        let root = TransportKeyed::new(root, 0, vec![0, 1]);
        let peer = TransportKeyed::new(peer, 0, vec![0, 1]);
        root.deposit(vec![(0, vec![1.0])]);
        assert!(root.fetch_deadline(short).is_none());
        peer.deposit(vec![(1, vec![2.0])]);
        assert_eq!(root.fetch_deadline(long).as_deref(), Some(&[3.0][..]));
        assert_eq!(peer.fetch_deadline(long).as_deref(), Some(&[3.0][..]));

        // Member: deposits and times out before the root has reduced.
        let mut eps = fabric(3).into_iter();
        let (r0, r1, r2) = (
            eps.next().unwrap(),
            eps.next().unwrap(),
            eps.next().unwrap(),
        );
        let members = vec![0, 1, 2];
        let root = TransportKeyed::new(r0, 4, members.clone());
        let early = TransportKeyed::new(r1, 4, members.clone());
        let late = TransportKeyed::new(r2, 4, members);
        early.deposit(vec![(1, vec![2.0])]);
        assert!(early.fetch_deadline(short).is_none());
        root.deposit(vec![(0, vec![1.0])]);
        // The root gathers one member, then times out on the other.
        assert!(root.fetch_deadline(short).is_none());
        late.deposit(vec![(2, vec![4.0])]);
        assert_eq!(root.fetch_deadline(long).as_deref(), Some(&[7.0][..]));
        assert_eq!(early.fetch_deadline(long).as_deref(), Some(&[7.0][..]));
        assert_eq!(late.fetch_deadline(long).as_deref(), Some(&[7.0][..]));
    }

    /// Contributed gradients travel with the launch and sum as if deposited
    /// there, bit for bit with the shared-memory group's streaming path.
    #[test]
    fn contributions_ride_the_launch() {
        let len = 2 * pool::MIN_POOLED;
        let vals = [1e8f32, 1.0, -1e8, 1.0];
        let shared = {
            let handles: Vec<_> = crate::keyed_group(2)
                .into_iter()
                .map(|m| {
                    thread::spawn(move || {
                        for k in (m.rank()..4).step_by(2) {
                            m.contribute(k as u64, vec![vals[k]; len]);
                        }
                        m.reduce(Vec::new()).to_vec()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        };
        let wired = {
            let handles: Vec<_> = fabric(2)
                .into_iter()
                .enumerate()
                .map(|(i, ep)| {
                    thread::spawn(move || {
                        let member = TransportKeyed::new(ep, 3, vec![0, 1]);
                        let before = pool::local_stats().returns;
                        for k in (i..4).step_by(2) {
                            member.contribute(k as u64, vec![vals[k]; len]);
                        }
                        assert_eq!(pool::local_stats().returns, before, "held, not replaced");
                        member.deposit(Vec::new());
                        let out = member.fetch_deadline(Duration::from_secs(5)).unwrap();
                        out.to_vec()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(shared, wired);
        assert_eq!(shared[0], vec![((1e8f32 + 1.0) + -1e8) + 1.0; len]);
    }
}
