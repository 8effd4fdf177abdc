//! Transport-backed collectives: the same reductions as [`crate::exact`],
//! [`crate::ring`], and [`crate::keyed`], but running over a
//! [`chimera_comm::Transport`] — so one group can span OS processes (the
//! TCP backend) or stay in-process (the local backend) without the caller
//! changing anything.
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

use chimera_comm::{CommError, KeyedReduce, MsgKey, Payload, Rank, Reduced, Transport};
use chimera_tensor::{ops, pool};
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

    /// This member's index within the group.
    pub fn member_index(&self) -> usize {
        self.me
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

/// Position of `ep.rank()` in `members`, or a protocol error.
fn member_index(ep: &dyn Transport, members: &[Rank]) -> Result<usize, CommError> {
    members.iter().position(|&m| m == ep.rank()).ok_or_else(|| {
        CommError::Protocol(format!(
            "rank {} is not in collective group {members:?}",
            ep.rank()
        ))
    })
}

/// Gather → member-ordered sum → broadcast over a transport: bitwise
/// deterministic regardless of arrival timing, like
/// [`crate::exact_group`]. `round` must advance per call so back-to-back
/// collectives on the same `(tag, members)` never collide.
pub fn exact_allreduce(
    ep: &dyn Transport,
    members: &[Rank],
    tag: u32,
    round: u64,
    buf: &mut [f32],
    timeout: Duration,
) -> Result<(), CommError> {
    let me = member_index(ep, members)?;
    let reg = MetricsRegistry::global();
    reg.counter("collectives.exact.calls").inc();
    reg.counter("collectives.exact.bytes_reduced")
        .add(buf.len() as u64 * 4);
    if members.len() == 1 {
        return Ok(());
    }
    let root = members[0];
    let root_key = MsgKey::Coll {
        tag,
        round,
        from: root,
    };
    if me != 0 {
        ep.send(
            root,
            MsgKey::Coll {
                tag,
                round,
                from: ep.rank(),
            },
            Payload::Flat(buf.to_vec()),
        )?;
        let result = ep.recv_deadline(root_key, timeout)?.into_flat();
        buf.copy_from_slice(&result);
        return Ok(());
    }
    let deadline = Instant::now() + timeout;
    for &m in &members[1..] {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let key = MsgKey::Coll {
            tag,
            round,
            from: m,
        };
        let c = ep.recv_deadline(key, remaining)?.into_flat();
        ops::add_ordered(buf, &[&c]);
    }
    for &m in &members[1..] {
        ep.send(m, root_key, Payload::Flat(buf.to_vec()))?;
    }
    Ok(())
}

/// Ring allreduce (reduce-scatter + allgather) over a transport — the same
/// bandwidth-optimal algorithm as [`crate::ring_group`], with each hop a
/// keyed transport message. Deterministic across runs, but the reduction
/// order depends on ring position, so results are not bitwise equal to
/// [`exact_allreduce`].
pub fn ring_allreduce(
    ep: &dyn Transport,
    members: &[Rank],
    tag: u32,
    round: u64,
    buf: &mut [f32],
    timeout: Duration,
) -> Result<(), CommError> {
    let me = member_index(ep, members)?;
    let n = members.len();
    let reg = MetricsRegistry::global();
    reg.counter("collectives.ring.calls").inc();
    if n == 1 {
        return Ok(());
    }
    reg.counter("collectives.ring.rounds")
        .add(2 * (n as u64 - 1));
    let bytes_sent = reg.counter("collectives.ring.bytes_sent");
    let next = members[(me + 1) % n];
    let prev = members[(me + n - 1) % n];
    let steps = 2 * (n as u64 - 1);
    let chunks = chunk_ranges(buf.len(), n);
    let deadline = Instant::now() + timeout;
    // Each hop gets a unique wire round: global collective round × total
    // steps + step index.
    let hop = |step: u64, send_idx: usize, buf: &mut [f32]| -> Result<Vec<f32>, CommError> {
        let r = &chunks[send_idx];
        bytes_sent.add(r.len() as u64 * 4);
        ep.send(
            next,
            MsgKey::Coll {
                tag,
                round: round * steps + step,
                from: ep.rank(),
            },
            Payload::Flat(buf[r.clone()].to_vec()),
        )?;
        let remaining = deadline.saturating_duration_since(Instant::now());
        Ok(ep
            .recv_deadline(
                MsgKey::Coll {
                    tag,
                    round: round * steps + step,
                    from: prev,
                },
                remaining,
            )?
            .into_flat())
    };
    // Reduce-scatter: step t, send chunk (me - t), accumulate chunk
    // (me - t - 1).
    for t in 0..n - 1 {
        let send_idx = (me + n - t) % n;
        let recv = hop(t as u64, send_idx, buf)?;
        let rr = &chunks[(me + n - t - 1) % n];
        for (a, b) in buf[rr.clone()].iter_mut().zip(&recv) {
            *a += b;
        }
    }
    // Allgather: step t, send fully-reduced chunk (me + 1 - t), overwrite
    // chunk (me - t).
    for t in 0..n - 1 {
        let send_idx = (me + 1 + n - t) % n;
        let recv = hop((n - 1 + t) as u64, send_idx, buf)?;
        let rr = &chunks[(me + n - t) % n];
        buf[rr.clone()].copy_from_slice(&recv);
    }
    Ok(())
}

/// Split `len` elements into `n` contiguous ranges (first `len % n` ranges
/// one element longer) — identical to the shared-memory ring's layout.
fn chunk_ranges(len: usize, n: usize) -> Vec<std::ops::Range<usize>> {
    let base = len / n;
    let rem = len % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let size = base + usize::from(i < rem);
        out.push(start..start + size);
        start += size;
    }
    out
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

    #[test]
    fn exact_allreduce_sums_in_member_order() {
        let eps = fabric(3);
        let vals = [1e8f32, 1.0, -1e8];
        // Expected: strictly member-ordered accumulation.
        let expect = ((1e8f32 + 1.0) + -1e8).to_bits();
        let handles: Vec<_> = eps
            .into_iter()
            .enumerate()
            .map(|(i, ep)| {
                thread::spawn(move || {
                    let mut buf = vec![vals[i]];
                    exact_allreduce(&*ep, &[0, 1, 2], 0, 0, &mut buf, Duration::from_secs(5))
                        .unwrap();
                    buf[0].to_bits()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expect);
        }
    }

    #[test]
    fn ring_allreduce_matches_expected_sum() {
        for (n, len) in [(2usize, 8usize), (3, 7), (4, 16)] {
            let eps = fabric(n as u32);
            let members: Vec<Rank> = (0..n as u32).collect();
            let handles: Vec<_> = eps
                .into_iter()
                .enumerate()
                .map(|(rank, ep)| {
                    let members = members.clone();
                    thread::spawn(move || {
                        let mut buf: Vec<f32> = (0..len).map(|i| (rank * len + i) as f32).collect();
                        for round in 0..2u64 {
                            let mut b = buf.clone();
                            ring_allreduce(
                                &*ep,
                                &members,
                                1,
                                round,
                                &mut b,
                                Duration::from_secs(5),
                            )
                            .unwrap();
                            if round == 1 {
                                buf = b;
                            }
                        }
                        buf
                    })
                })
                .collect();
            let expect: Vec<f32> = (0..len)
                .map(|i| (0..n).map(|r| (r * len + i) as f32).sum())
                .collect();
            for h in handles {
                let got = h.join().unwrap();
                for (a, b) in got.iter().zip(&expect) {
                    assert!((a - b).abs() < 1e-4, "n={n} len={len}");
                }
            }
        }
    }
}
