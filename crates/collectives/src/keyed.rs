//! Keyed-ordered allreduce with non-blocking launch.
//!
//! Gradient synchronization across pipeline replicas must reproduce the
//! sequential reference's accumulation order to stay bit-exact: the
//! reference sums per-micro-batch gradients in micro-batch order. Each
//! member therefore contributes `(key, vector)` pairs (key = micro id); the
//! reduction gathers all pairs, sorts by key, and sums in key order.
//!
//! The API is split like a non-blocking collective (§3.2 of the paper):
//! [`KeyedMember::deposit`] never blocks (the launch), and
//! [`KeyedMember::fetch`] blocks until the matching round's result is ready
//! (the wait). Rounds are matched by per-member call order, so different
//! members may interleave launches of several stages in different orders
//! without deadlocking. [`KeyedMember::reduce`] is the blocking convenience
//! combination.
//!
//! # Who touches which bytes
//!
//! The group mutex guards bookkeeping only — no arithmetic and no copy runs
//! under it. A deposit files its buffers and moves on. The first member to
//! *wait* for a completed round claims it: it takes every contribution out,
//! **releases the lock**, and sums them in one blocked pass
//! ([`chimera_tensor::ops::sum_ordered`]) into a result buffer the group
//! owns; it then publishes the result and parks each contribution back in
//! its depositor's slot. So the arithmetic lands on a member with nothing
//! else to do — and when members wait for their stages in different orders,
//! as the two directions of a bidirectional pipeline do, rounds completed
//! together are summed side by side. A fetch hands out a [`Reduced`] handle
//! on that one buffer (no per-member copy) and takes the member's own
//! buffers home to its thread's pool, so every pool gets back exactly what
//! it gave. The result buffer returns to the group's spare list when the
//! last handle drops, and the next round reuses it.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use chimera_comm::Reduced;
use chimera_tensor::{ops, pool};
use chimera_trace::{Counter, MetricsRegistry};

type Contribution = Vec<(u64, Vec<f32>)>;

struct Round {
    /// By rank: what each member deposited, until the round completes and
    /// the reducer takes them all; after the reduction the same buffers
    /// again, each waiting for its depositor's fetch to take it home.
    contributions: Vec<Option<Contribution>>,
    arrived: usize,
    /// A member has taken the contributions and is summing them.
    claimed: bool,
    result: Option<Reduced>,
    fetched: usize,
}

impl Round {
    fn new(n: usize) -> Self {
        Round {
            contributions: (0..n).map(|_| None).collect(),
            arrived: 0,
            claimed: false,
            result: None,
            fetched: 0,
        }
    }
}

struct State {
    rounds: VecDeque<Round>,
    /// Global index of `rounds[0]`.
    base: u64,
    deposit_round: Vec<u64>,
    fetch_round: Vec<u64>,
}

/// Result buffers no handle refers to any more, ready for the next round.
type Spares = Arc<Mutex<Vec<Vec<f32>>>>;

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    n: usize,
    spares: Spares,
}

/// A round's result while any [`Reduced`] handle on it lives; dropping the
/// last one hands the buffer back to its group.
struct ResultBuf {
    data: Vec<f32>,
    home: Spares,
}

impl AsRef<[f32]> for ResultBuf {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

impl Drop for ResultBuf {
    fn drop(&mut self) {
        self.home.lock().push(std::mem::take(&mut self.data));
    }
}

/// One member of a keyed-reduce group.
pub struct KeyedMember {
    rank: usize,
    shared: Arc<Shared>,
    deposits: Arc<Counter>,
    fetches: Arc<Counter>,
    bytes_contributed: Arc<Counter>,
    /// Nanoseconds spent summing completed rounds.
    reduce_ns: Arc<Counter>,
    /// Nanoseconds fetches spent blocked on a round still incomplete.
    wait_ns: Arc<Counter>,
}

/// Create a keyed-reduce group of `n` members.
pub fn keyed_group(n: usize) -> Vec<KeyedMember> {
    assert!(n >= 1);
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            rounds: VecDeque::new(),
            base: 0,
            deposit_round: vec![0; n],
            fetch_round: vec![0; n],
        }),
        cv: Condvar::new(),
        n,
        spares: Spares::default(),
    });
    let reg = MetricsRegistry::global();
    (0..n)
        .map(|rank| KeyedMember {
            rank,
            shared: shared.clone(),
            deposits: reg.counter("collectives.keyed.deposits"),
            fetches: reg.counter("collectives.keyed.fetches"),
            bytes_contributed: reg.counter("collectives.keyed.bytes_contributed"),
            reduce_ns: reg.counter("collectives.keyed.reduce_ns"),
            wait_ns: reg.counter("collectives.keyed.wait_ns"),
        })
        .collect()
}

/// A completed round between being claimed and its published result: every
/// contribution, by rank, and the buffer the sum goes into. Returned by
/// [`KeyedMember::try_claim`]; [`Self::complete`] does the arithmetic.
#[must_use = "the round's members wait until the reduction completes"]
pub struct PendingReduction {
    shared: Arc<Shared>,
    reduce_ns: Arc<Counter>,
    round: u64,
    contributions: Vec<Contribution>,
    out: Vec<f32>,
}

impl PendingReduction {
    /// Sum the round outside the group lock, then publish it: the result
    /// becomes fetchable and every contribution is parked for its depositor.
    pub fn complete(self) {
        let PendingReduction {
            shared,
            reduce_ns,
            round,
            contributions,
            mut out,
        } = self;
        let start = Instant::now();
        sum_keyed(&mut out, &contributions);
        reduce_ns.add(start.elapsed().as_nanos() as u64);

        let result = Reduced::new(ResultBuf {
            data: out,
            home: shared.spares.clone(),
        });
        let mut st = shared.state.lock();
        let slot = (round - st.base) as usize;
        let r = &mut st.rounds[slot];
        for (parked, c) in r.contributions.iter_mut().zip(contributions) {
            *parked = Some(c);
        }
        r.result = Some(result);
        shared.cv.notify_all();
    }
}

impl KeyedMember {
    /// This member's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.shared.n
    }

    /// Non-blocking launch: contribute this member's `(key, vec)` pairs to
    /// its next round. Bookkeeping only; a completed round is summed by the
    /// first member that waits for it.
    pub fn deposit(&self, contribution: Contribution) {
        let n = self.shared.n;
        self.deposits.inc();
        self.bytes_contributed
            .add(contribution.iter().map(|(_, v)| v.len() as u64 * 4).sum());
        let mut st = self.shared.state.lock();
        let round_idx = st.deposit_round[self.rank];
        st.deposit_round[self.rank] += 1;
        let slot = (round_idx - st.base) as usize;
        while st.rounds.len() <= slot {
            st.rounds.push_back(Round::new(n));
        }
        let round = &mut st.rounds[slot];
        round.contributions[self.rank] = Some(contribution);
        round.arrived += 1;
        if round.arrived == n {
            // Whoever is parked on this round can claim it now.
            self.shared.cv.notify_all();
        }
    }

    /// Claim this member's next un-fetched round if every member has
    /// deposited and nobody is summing it yet: the reduction still to be
    /// done, to be [`PendingReduction::complete`]d with no lock held. Every
    /// fetch does this by itself; it is public so an interleaving explorer
    /// can step other members between the claim and the publication.
    pub fn try_claim(&self) -> Option<PendingReduction> {
        self.claim(&mut self.shared.state.lock())
    }

    fn claim(&self, st: &mut State) -> Option<PendingReduction> {
        let round_idx = st.fetch_round[self.rank];
        let round = st.rounds.get_mut((round_idx - st.base) as usize)?;
        if round.arrived < self.shared.n || round.claimed {
            return None;
        }
        round.claimed = true;
        Some(PendingReduction {
            shared: self.shared.clone(),
            reduce_ns: self.reduce_ns.clone(),
            round: round_idx,
            contributions: round
                .contributions
                .iter_mut()
                .map(|c| c.take().expect("rank contributed"))
                .collect(),
            out: self.shared.spares.lock().pop().unwrap_or_default(),
        })
    }

    /// Blocking wait: returns the reduced vector of this member's next
    /// un-fetched round (in deposit order).
    pub fn fetch(&self) -> Reduced {
        self.fetch_until(None)
            .expect("a wait without a deadline ends only with the result")
    }

    /// Consume this member's next un-fetched round if its result is
    /// published: a handle on the result plus the member's own deposited
    /// buffers, still to be pooled once the lock is released.
    fn take_ready(&self, st: &mut State) -> Option<(Reduced, Contribution)> {
        let round_idx = st.fetch_round[self.rank];
        let round = st.rounds.get_mut((round_idx - st.base) as usize)?;
        let result = round.result.clone()?;
        let mine = round.contributions[self.rank]
            .take()
            .expect("parked at publication, taken by this fetch only");
        round.fetched += 1;
        st.fetch_round[self.rank] = round_idx + 1;
        // Retire fully-fetched rounds; dropping a round's handle is what
        // lets its buffer go back to the spares once the members are done.
        while st
            .rounds
            .front()
            .is_some_and(|r| r.fetched == self.shared.n)
        {
            st.rounds.pop_front();
            st.base += 1;
        }
        self.fetches.inc();
        Some((result, mine))
    }

    /// Wait on the group's condition variable until this member's next
    /// un-fetched round is published or `deadline` passes — summing the round
    /// itself if it is complete and unclaimed; the round is consumed only
    /// when its result is returned.
    fn fetch_until(&self, deadline: Option<Instant>) -> Option<Reduced> {
        let start = Instant::now();
        let mut summing = Duration::ZERO;
        let mut st = self.shared.state.lock();
        let ready = loop {
            if let Some(ready) = self.take_ready(&mut st) {
                break Some(ready);
            }
            if let Some(pending) = self.claim(&mut st) {
                drop(st);
                let claimed_at = Instant::now();
                pending.complete();
                summing += claimed_at.elapsed();
                st = self.shared.state.lock();
                continue;
            }
            match deadline {
                None => self.shared.cv.wait(&mut st),
                Some(deadline) => {
                    let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                        break None;
                    };
                    self.shared.cv.wait_for(&mut st, remaining);
                }
            }
        };
        drop(st);
        self.wait_ns
            .add(start.elapsed().saturating_sub(summing).as_nanos() as u64);
        ready.map(take_home)
    }

    /// Non-blocking wait: returns the reduced vector of this member's next
    /// un-fetched round if every member has deposited (summing it first if
    /// nobody has), `None` if the round is incomplete or another member is
    /// summing it right now (the round is *not* consumed on `None`).
    pub fn try_fetch(&self) -> Option<Reduced> {
        if let Some(pending) = self.try_claim() {
            pending.complete();
        }
        let ready = self.take_ready(&mut self.shared.state.lock());
        ready.map(take_home)
    }

    /// [`Self::fetch`] with a hard deadline: gives up after `timeout`,
    /// returning `None` without consuming the round. A member of a group
    /// whose peer died would otherwise block forever on the condition
    /// variable; every blocking wait in the training runtime goes through
    /// this path.
    pub fn fetch_deadline(&self, timeout: Duration) -> Option<Reduced> {
        self.fetch_until(Some(Instant::now() + timeout))
    }

    /// Blocking allreduce: [`Self::deposit`] + [`Self::fetch`].
    pub fn reduce(&self, contribution: Contribution) -> Reduced {
        self.deposit(contribution);
        self.fetch()
    }
}

/// Runs on the fetching member's thread with no lock held: its deposited
/// buffers go back to the pool they were drawn from.
fn take_home((result, mine): (Reduced, Contribution)) -> Reduced {
    for (_, buf) in mine {
        pool::put(buf);
    }
    result
}

/// The shared-memory member satisfies the transport-neutral reduction
/// contract the runtime programs against; [`crate::dist::TransportKeyed`]
/// is the wire-backed implementation.
impl chimera_comm::KeyedReduce for KeyedMember {
    fn deposit(&self, contribution: Vec<(u64, Vec<f32>)>) {
        KeyedMember::deposit(self, contribution);
    }

    fn fetch_deadline(&self, timeout: Duration) -> Option<Reduced> {
        KeyedMember::fetch_deadline(self, timeout)
    }
}

/// Overwrite `out` with the sum of every vector in `contributions` (indexed
/// by member) taken in `(key, member)` order — the one accumulation order
/// every keyed-reduce backend (shared memory here, transport-backed in
/// [`crate::dist`]) must reproduce for results to stay bitwise identical to
/// the sequential reference. One blocked pass over all terms
/// ([`ops::sum_ordered`]); `out` keeps its allocation from round to round.
pub(crate) fn sum_keyed(out: &mut Vec<f32>, contributions: &[Contribution]) {
    let mut terms: Vec<(u64, usize, &[f32])> = contributions
        .iter()
        .enumerate()
        .flat_map(|(member, c)| c.iter().map(move |(key, v)| (*key, member, v.as_slice())))
        .collect();
    terms.sort_by_key(|&(key, member, _)| (key, member));
    let terms: Vec<&[f32]> = terms.into_iter().map(|(_, _, v)| v).collect();
    // A recycled buffer already has the round's length; only a fresh one
    // pays for the fill.
    out.resize(terms.first().map_or(0, |t| t.len()), 0.0);
    ops::sum_ordered(out, &terms);
}

/// Test oracle: sum `(key, member, vector)` contributions strictly in
/// `(key, member)` order, one whole-vector pass per contribution with the
/// first in key order as the accumulator — the reduction every backend ran
/// before the blocked pass of [`ops::sum_ordered`] replaced it. Tests pin the
/// two bit for bit.
pub fn sum_in_key_order(items: impl IntoIterator<Item = (u64, usize, Vec<f32>)>) -> Vec<f32> {
    let mut all: Vec<(u64, usize, Vec<f32>)> = items.into_iter().collect();
    all.sort_by_key(|&(k, r, _)| (k, r));
    let mut iter = all.into_iter();
    let Some((_, _, mut acc)) = iter.next() else {
        return Vec::new();
    };
    for (_, _, v) in iter {
        assert_eq!(v.len(), acc.len(), "keyed reduce length mismatch");
        for (a, b) in acc.iter_mut().zip(&v) {
            *a += b;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn sums_in_key_order_exactly() {
        // Values chosen so summation order changes the f32 result.
        let g0 = vec![(0u64, vec![1e8f32]), (1, vec![1.0])];
        let g1 = vec![(2u64, vec![-1e8f32]), (3, vec![1.0])];
        let expect = (((1e8f32 + 1.0) + -1e8) + 1.0).to_bits();

        let members = keyed_group(2);
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
        for h in handles {
            assert_eq!(h.join().unwrap(), expect);
        }
    }

    #[test]
    fn key_order_independent_of_rank_assignment() {
        // Swap which rank holds which micros: result identical.
        let run = |swap: bool| {
            let g_even = vec![(0u64, vec![0.1f32, 7.0]), (2, vec![0.2, -3.0])];
            let g_odd = vec![(1u64, vec![0.4f32, 0.5]), (3, vec![0.8, 0.25])];
            let members = keyed_group(2);
            let handles: Vec<_> = members
                .into_iter()
                .map(|m| {
                    let mine = if (m.rank() == 0) ^ swap {
                        g_even.clone()
                    } else {
                        g_odd.clone()
                    };
                    thread::spawn(move || m.reduce(mine).to_vec())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .next()
                .unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn single_member_sums_locally() {
        let mut g = keyed_group(1);
        let m = g.pop().unwrap();
        let out = m.reduce(vec![(1, vec![2.0]), (0, vec![3.0])]);
        assert_eq!(*out, [5.0]);
    }

    #[test]
    fn repeated_rounds() {
        let members = keyed_group(3);
        let handles: Vec<_> = members
            .into_iter()
            .map(|m| {
                thread::spawn(move || {
                    let mut outs = Vec::new();
                    for round in 0..5u64 {
                        let c = vec![(m.rank() as u64, vec![round as f32])];
                        outs.push(m.reduce(c).to_vec());
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
    fn empty_contributions_allowed() {
        let members = keyed_group(2);
        let handles: Vec<_> = members
            .into_iter()
            .map(|m| {
                thread::spawn(move || {
                    let c = if m.rank() == 0 {
                        vec![(0u64, vec![1.0f32])]
                    } else {
                        Vec::new()
                    };
                    m.reduce(c).to_vec()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![1.0]);
        }
    }

    #[test]
    fn counts_deposits_fetches_and_bytes() {
        let reg = MetricsRegistry::global();
        let deposits = reg.counter("collectives.keyed.deposits");
        let fetches = reg.counter("collectives.keyed.fetches");
        let bytes = reg.counter("collectives.keyed.bytes_contributed");
        let (d0, f0, b0) = (deposits.get(), fetches.get(), bytes.get());
        let mut g = keyed_group(1);
        let m = g.pop().unwrap();
        m.reduce(vec![(0, vec![1.0; 3]), (1, vec![2.0; 3])]);
        // Lower bounds: other tests in this binary run groups concurrently.
        assert!(deposits.get() - d0 >= 1);
        assert!(fetches.get() - f0 >= 1);
        assert!(bytes.get() - b0 >= 6 * 4);
    }

    #[test]
    fn deadline_expiry_leaves_the_round_for_a_later_fetch() {
        let mut g = keyed_group(2);
        let (m1, m0) = (g.pop().unwrap(), g.pop().unwrap());
        m0.deposit(vec![(0, vec![1.0])]);
        assert!(m0.fetch_deadline(Duration::from_millis(5)).is_none());
        assert!(m0.fetch_deadline(Duration::ZERO).is_none());
        // A waiter parked on the condition variable is woken by the deposit
        // that completes its round.
        let waiter = thread::spawn(move || m0.fetch_deadline(Duration::from_secs(30)));
        m1.deposit(vec![(1, vec![2.0])]);
        assert_eq!(waiter.join().unwrap().as_deref(), Some(&[3.0][..]));
        assert_eq!(
            m1.fetch_deadline(Duration::ZERO).as_deref(),
            Some(&[3.0][..])
        );
    }

    /// Whichever member runs a round's reduction, each thread's pool gets
    /// back exactly the buffers that thread deposited, and every member reads
    /// the round's result from one shared buffer.
    #[test]
    fn buffers_go_home_and_the_result_is_shared() {
        const ROUNDS: u64 = 4;
        let all_read = Arc::new(std::sync::Barrier::new(3));
        let handles: Vec<_> = keyed_group(3)
            .into_iter()
            .map(|m| {
                let all_read = all_read.clone();
                thread::spawn(move || {
                    let before = pool::local_stats().returns;
                    let mut buffers = Vec::new();
                    for _ in 0..ROUNDS {
                        // Member `r` deposits `r + 1` pooled buffers.
                        let mine = (0..=m.rank() as u64)
                            .map(|k| (k, pool::take_zeroed(256)))
                            .collect();
                        let out = m.reduce(mine);
                        buffers.push(out.as_ptr() as usize);
                        // Hold the handle until everyone has one, so equal
                        // addresses mean one buffer, not a recycled one.
                        all_read.wait();
                    }
                    (
                        m.rank() as u64,
                        pool::local_stats().returns - before,
                        buffers,
                    )
                })
            })
            .collect();
        let outs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (rank, returned, buffers) in &outs {
            assert_eq!(*returned, ROUNDS * (rank + 1), "member {rank}");
            assert_eq!(buffers, &outs[0].2, "member {rank} read a private copy");
        }
    }

    /// Two overlapping outstanding rounds: launch round 0 and round 1 before
    /// waiting on either (non-blocking collective semantics).
    #[test]
    fn overlapping_outstanding_rounds() {
        let members = keyed_group(2);
        let handles: Vec<_> = members
            .into_iter()
            .map(|m| {
                thread::spawn(move || {
                    m.deposit(vec![(m.rank() as u64, vec![1.0f32])]);
                    m.deposit(vec![(m.rank() as u64, vec![10.0f32])]);
                    let a = m.fetch();
                    let b = m.fetch();
                    (a.to_vec(), b.to_vec())
                })
            })
            .collect();
        for h in handles {
            let (a, b) = h.join().unwrap();
            assert_eq!(a, vec![2.0]);
            assert_eq!(b, vec![20.0]);
        }
    }
}
