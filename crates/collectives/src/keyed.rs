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

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use chimera_trace::{Counter, MetricsRegistry};

type Contribution = Vec<(u64, Vec<f32>)>;

struct Round {
    contributions: Vec<Option<Contribution>>,
    arrived: usize,
    result: Option<Arc<Vec<f32>>>,
    fetched: usize,
}

impl Round {
    fn new(n: usize) -> Self {
        Round {
            contributions: (0..n).map(|_| None).collect(),
            arrived: 0,
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

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    n: usize,
}

/// One member of a keyed-reduce group.
pub struct KeyedMember {
    rank: usize,
    shared: Arc<Shared>,
    deposits: Arc<Counter>,
    fetches: Arc<Counter>,
    bytes_contributed: Arc<Counter>,
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
    });
    let reg = MetricsRegistry::global();
    let deposits = reg.counter("collectives.keyed.deposits");
    let fetches = reg.counter("collectives.keyed.fetches");
    let bytes_contributed = reg.counter("collectives.keyed.bytes_contributed");
    (0..n)
        .map(|rank| KeyedMember {
            rank,
            shared: shared.clone(),
            deposits: deposits.clone(),
            fetches: fetches.clone(),
            bytes_contributed: bytes_contributed.clone(),
        })
        .collect()
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
    /// its next round. The member whose deposit completes a round performs
    /// the reduction inline.
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
            let mut all: Vec<(u64, usize, Vec<f32>)> = Vec::new();
            for r in 0..n {
                let c = round.contributions[r].take().expect("rank contributed");
                all.extend(c.into_iter().map(|(k, v)| (k, r, v)));
            }
            round.result = Some(Arc::new(sum_in_key_order(all)));
            self.shared.cv.notify_all();
        }
    }

    /// Blocking wait: returns the reduced vector of this member's next
    /// un-fetched round (in deposit order).
    pub fn fetch(&self) -> Vec<f32> {
        self.fetch_until(None)
            .expect("a wait without a deadline ends only with the result")
    }

    /// Wait on the group's condition variable until this member's next
    /// un-fetched round is complete or `deadline` passes; the round is
    /// consumed only when its result is returned.
    fn fetch_until(&self, deadline: Option<Instant>) -> Option<Vec<f32>> {
        let n = self.shared.n;
        let mut st = self.shared.state.lock();
        let round_idx = st.fetch_round[self.rank];
        loop {
            let slot = (round_idx - st.base) as usize;
            if let Some(result) = st.rounds.get(slot).and_then(|r| r.result.as_ref()) {
                let out = pooled_copy(result);
                st.fetch_round[self.rank] = round_idx + 1;
                st.rounds[slot].fetched += 1;
                retire_rounds(&mut st, n);
                self.fetches.inc();
                return Some(out);
            }
            match deadline {
                None => self.shared.cv.wait(&mut st),
                Some(deadline) => {
                    let remaining = deadline.checked_duration_since(Instant::now())?;
                    self.shared.cv.wait_for(&mut st, remaining);
                }
            }
        }
    }

    /// Non-blocking wait: returns the reduced vector of this member's next
    /// un-fetched round if it is already complete, `None` otherwise (the
    /// round is *not* consumed on `None`).
    pub fn try_fetch(&self) -> Option<Vec<f32>> {
        let n = self.shared.n;
        let mut st = self.shared.state.lock();
        let round_idx = st.fetch_round[self.rank];
        let slot = (round_idx - st.base) as usize;
        let out = {
            let round = st.rounds.get(slot)?;
            pooled_copy(round.result.as_ref()?)
        };
        st.fetch_round[self.rank] = round_idx + 1;
        st.rounds[slot].fetched += 1;
        retire_rounds(&mut st, n);
        self.fetches.inc();
        Some(out)
    }

    /// [`Self::fetch`] with a hard deadline: gives up after `timeout`,
    /// returning `None` without consuming the round. A member of a group
    /// whose peer died would otherwise block forever on the condition
    /// variable; every blocking wait in the training runtime goes through
    /// this path.
    pub fn fetch_deadline(&self, timeout: Duration) -> Option<Vec<f32>> {
        self.fetch_until(Some(Instant::now() + timeout))
    }

    /// Blocking allreduce: [`Self::deposit`] + [`Self::fetch`].
    pub fn reduce(&self, contribution: Contribution) -> Vec<f32> {
        self.deposit(contribution);
        self.fetch()
    }
}

/// The shared-memory member satisfies the transport-neutral reduction
/// contract the runtime programs against; [`crate::dist::TransportKeyed`]
/// is the wire-backed implementation.
impl chimera_comm::KeyedReduce for KeyedMember {
    fn deposit(&self, contribution: Vec<(u64, Vec<f32>)>) {
        KeyedMember::deposit(self, contribution);
    }

    fn fetch_deadline(&self, timeout: Duration) -> Option<Vec<f32>> {
        KeyedMember::fetch_deadline(self, timeout)
    }
}

/// Retire fully-fetched rounds from the front of the queue, recycling each
/// retired round's result buffer through the tensor pool (every member holds
/// a pooled copy by then, so this is the last reference).
fn retire_rounds(st: &mut State, n: usize) {
    while st.rounds.front().is_some_and(|r| r.fetched == n) {
        let round = st.rounds.pop_front().expect("front checked");
        if let Some(result) = round.result {
            if let Ok(v) = Arc::try_unwrap(result) {
                chimera_tensor::pool::put(v);
            }
        }
        st.base += 1;
    }
}

/// Copy a reduced result out of its round via a pooled buffer (the per-fetch
/// copy is a steady-state per-iteration allocation otherwise).
fn pooled_copy(result: &Arc<Vec<f32>>) -> Vec<f32> {
    let mut out = chimera_tensor::pool::take_spare(result.len());
    out.extend_from_slice(result);
    out
}

/// Sum `(key, member, vector)` contributions strictly in `(key, member)`
/// order — the one accumulation order every keyed-reduce backend (shared
/// memory here, transport-backed in [`crate::dist`]) must reproduce for
/// results to stay bitwise identical to the sequential reference.
///
/// The first contribution in key order becomes the accumulator; the rest are
/// recycled through the tensor buffer pool after being summed in.
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
        chimera_tensor::pool::put(v);
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
                    thread::spawn(move || m.reduce(mine))
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
        assert_eq!(out, vec![5.0]);
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
                        outs.push(m.reduce(c));
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
                    m.reduce(c)
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
        assert_eq!(m0.fetch_deadline(Duration::from_millis(5)), None);
        assert_eq!(m0.fetch_deadline(Duration::ZERO), None);
        // A waiter parked on the condition variable is woken by the deposit
        // that completes its round.
        let waiter = thread::spawn(move || m0.fetch_deadline(Duration::from_secs(30)));
        m1.deposit(vec![(1, vec![2.0])]);
        assert_eq!(waiter.join().unwrap(), Some(vec![3.0]));
        assert_eq!(m1.fetch_deadline(Duration::ZERO), Some(vec![3.0]));
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
                    (a, b)
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
