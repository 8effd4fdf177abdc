//! Keyed-ordered allreduce that folds gradients as they are made.
//!
//! Gradient synchronization across pipeline replicas must reproduce the
//! sequential reference's accumulation order to stay bit-exact: the
//! reference sums per-micro-batch gradients in micro-batch order. Every
//! gradient therefore enters its stage's group as a `(key, vector)` pair
//! (key = global micro id), and the group sums the pairs in `(key, member)`
//! order with the first term as the accumulator — the bits of
//! [`sum_in_key_order`].
//!
//! A round is split like a non-blocking collective (§3.2 of the paper), in
//! the three calls of [`chimera_comm::KeyedReduce`]: `contribute` files one
//! gradient in the member's current round as soon as its backward makes it;
//! `deposit` is the launch — it files the pairs it is given (the training
//! runtime gives none) and closes the member's part of the round, never
//! waiting; and `fetch_deadline` waits until the round's sum is published.
//! Rounds are matched by per-member call order, so different members may
//! interleave launches of several stages in different orders without
//! deadlocking. [`KeyedMember::reduce`] is the blocking deposit + fetch.
//!
//! # Folding as gradients arrive
//!
//! Each member contributes in increasing key order within a round (the
//! runtime's front door refuses a schedule whose backwards would not). So
//! once every member has launched or contributed a key ≥ `k`, no term with
//! a key ≤ `k` can still arrive: the pending terms up to the least such
//! frontier form a *run* that may be added to the accumulator now, and runs
//! added one after another give the bits of one ordered sum over the round.
//! A run is folded once it holds `2 ×` the group's size terms, or when
//! every member has launched; the round is published when every member
//! has launched and nothing is pending. A group therefore holds one
//! accumulator and the terms not yet foldable, not one buffer per
//! micro-batch: where the members' keys interleave, as Chimera's two
//! directions' do, that is a bounded run whatever `N`. (Where one member's
//! keys all rank above another's, its terms wait for the other's launch.)
//!
//! # Who touches which bytes
//!
//! The group mutex guards bookkeeping only — no arithmetic and no copy runs
//! under it. The contributor or launcher whose arrival makes a run foldable
//! takes the run and the accumulator out, **releases the lock**, and adds
//! the run in one blocked pass ([`chimera_tensor::ops::add_ordered`]; a
//! round's first term becomes its accumulator). A contributed buffer, once
//! folded, joins the group's spares, and every contribute puts exactly one
//! buffer of the same pool class back into the caller's thread-local pool
//! at once — a spare, often its own just folded, or a fresh one while the
//! group holds none — so a worker's pool gives one buffer per backward and
//! gets one back, whoever folds. Pairs deposited at launch are read by a
//! fold but never adopted: they wait for their depositor's fetch to take
//! them home. A fetch hands out a [`Reduced`] handle on the accumulator (no
//! per-member copy); when the last handle drops, the buffer joins the
//! spares and a later round reuses it.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use chimera_comm::Reduced;
use chimera_tensor::{ops, pool};
use chimera_trace::{Counter, MetricsRegistry};

type Contribution = Vec<(u64, Vec<f32>)>;

/// A round's accumulator (if any term is folded yet) and a run to add to it.
type Due = (Option<Vec<f32>>, Vec<Term>);

/// A run is folded once it holds this many terms per member (or when the
/// round completes): long enough that one blocked pass amortises a sweep of
/// the accumulator, short enough that a group holds a bounded run.
const FOLD_RUN: usize = 2;

/// One filed gradient, waiting for its fold.
struct Term {
    key: u64,
    member: usize,
    buf: Vec<f32>,
    /// Deposited at launch: a fold reads it, then it waits for its
    /// depositor's fetch — never adopted as an accumulator or a spare.
    launched: bool,
}

struct Round {
    /// Per member: the largest key it has filed, `u64::MAX` once it has
    /// launched (`None`: nothing yet). Terms up to the least are foldable.
    frontier: Vec<Option<u64>>,
    launched: usize,
    /// Filed terms not yet folded, in arrival order.
    pending: Vec<Term>,
    /// The sum of every term folded so far; out while a fold runs.
    acc: Option<Vec<f32>>,
    folding: bool,
    /// Per member: its launch-deposited buffers, folded, waiting for its
    /// fetch to take them home.
    home: Vec<Vec<Vec<f32>>>,
    result: Option<Reduced>,
    fetched: usize,
}

impl Round {
    fn new(n: usize) -> Self {
        Round {
            frontier: vec![None; n],
            launched: 0,
            pending: Vec::new(),
            acc: None,
            folding: false,
            home: vec![Vec::new(); n],
            result: None,
            fetched: 0,
        }
    }

    /// If a fold is due and none is running: take the foldable run out,
    /// sorted into `(key, member)` order, with the accumulator.
    fn take_due(&mut self, n: usize) -> Option<Due> {
        let bound = (*self.frontier.iter().min()?)?;
        let run = self.pending.iter().filter(|t| t.key <= bound).count();
        if self.folding || run == 0 || (run < FOLD_RUN * n && self.launched < n) {
            return None;
        }
        let mut run: Vec<Term> = self.pending.extract_if(.., |t| t.key <= bound).collect();
        // Stable: one member's equal keys keep their filing order.
        run.sort_by_key(|t| (t.key, t.member));
        self.folding = true;
        Some((self.acc.take(), run))
    }

    /// Publish the round once every member has launched and every term is
    /// folded: `true` if this call did.
    fn publish_if_complete(&mut self, n: usize, spares: &Spares) -> bool {
        let done = self.launched == n && self.pending.is_empty() && !self.folding;
        if !done || self.result.is_some() {
            return false;
        }
        self.result = Some(Reduced::new(ResultBuf {
            data: self.acc.take().unwrap_or_default(),
            home: spares.clone(),
        }));
        true
    }
}

struct State {
    rounds: VecDeque<Round>,
    /// Global index of `rounds[0]`.
    base: u64,
    deposit_round: Vec<u64>,
    fetch_round: Vec<u64>,
}

impl State {
    fn round_mut(&mut self, round: u64, n: usize) -> &mut Round {
        let slot = (round - self.base) as usize;
        while self.rounds.len() <= slot {
            self.rounds.push_back(Round::new(n));
        }
        &mut self.rounds[slot]
    }
}

/// Buffers the group holds and no round needs: folded contributions and
/// results no handle refers to any more.
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
        if self.data.capacity() > 0 {
            self.home.lock().push(std::mem::take(&mut self.data));
        }
    }
}

/// One member of a keyed-reduce group.
pub struct KeyedMember {
    rank: usize,
    shared: Arc<Shared>,
    deposits: Arc<Counter>,
    fetches: Arc<Counter>,
    bytes_contributed: Arc<Counter>,
    /// Nanoseconds spent folding runs.
    reduce_ns: Arc<Counter>,
    /// Nanoseconds fetches spent blocked on a round not yet published.
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

/// A run some arrival made foldable, taken out of its round together with
/// the round's accumulator: [`Self::sum`] adds it with no lock held,
/// [`Self::publish`] puts the accumulator back. Returned by
/// [`KeyedMember::file`] and [`KeyedMember::launch`]; contribute and deposit
/// run each fold to its end themselves, and the steps are public so an
/// interleaving explorer can step other members between them.
#[must_use = "the round is not published until its folds are"]
pub struct Fold {
    shared: Arc<Shared>,
    reduce_ns: Arc<Counter>,
    round: u64,
    acc: Option<Vec<f32>>,
    run: Vec<Term>,
    summed: bool,
}

impl Fold {
    fn new(shared: Arc<Shared>, reduce_ns: Arc<Counter>, round: u64, (acc, run): Due) -> Self {
        Fold {
            shared,
            reduce_ns,
            round,
            acc,
            run,
            summed: false,
        }
    }

    /// Add the run to the accumulator in `(key, member)` order. A round's
    /// first term becomes its accumulator, unless it was deposited at launch:
    /// then a spare, or a fresh buffer, takes a copy of it.
    pub fn sum(&mut self) {
        assert!(!self.summed, "a fold is summed once");
        let start = Instant::now();
        let (mut acc, skip) = match self.acc.take() {
            Some(acc) => (acc, 0),
            None if !self.run[0].launched => (std::mem::take(&mut self.run[0].buf), 1),
            None => {
                let mut acc = self.shared.spares.lock().pop().unwrap_or_default();
                acc.clear();
                acc.extend_from_slice(&self.run[0].buf);
                (acc, 1)
            }
        };
        let terms: Vec<&[f32]> = self.run[skip..].iter().map(|t| t.buf.as_slice()).collect();
        ops::add_ordered(&mut acc, &terms);
        self.acc = Some(acc);
        self.summed = true;
        self.reduce_ns.add(start.elapsed().as_nanos() as u64);
    }

    /// Put the accumulator back into its round, file the folded buffers — a
    /// contributed one with the group's spares, a launch-deposited one for
    /// its depositor's fetch — and publish the round if it is complete.
    /// Returns the next fold due on the round, to be run the same way.
    pub fn publish(self) -> Option<Fold> {
        assert!(self.summed, "a fold is published after its sum");
        let Fold {
            shared,
            reduce_ns,
            round,
            acc,
            run,
            ..
        } = self;
        let mut freed = Vec::with_capacity(run.len());
        let mut st = shared.state.lock();
        let r = st.round_mut(round, shared.n);
        r.acc = acc;
        r.folding = false;
        for t in run {
            if t.launched {
                r.home[t.member].push(t.buf);
            } else if t.buf.capacity() > 0 {
                freed.push(t.buf);
            }
        }
        let next = r.take_due(shared.n);
        if r.publish_if_complete(shared.n, &shared.spares) {
            shared.cv.notify_all();
        }
        drop(st);
        shared.spares.lock().extend(freed);
        next.map(|due| Fold::new(shared, reduce_ns, round, due))
    }
}

/// Run `fold` and every fold it leads to.
fn run_folds(mut fold: Option<Fold>) {
    while let Some(mut f) = fold {
        f.sum();
        fold = f.publish();
    }
}

impl KeyedMember {
    /// This member's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    fn fold(&self, round: u64, due: Due) -> Fold {
        Fold::new(self.shared.clone(), self.reduce_ns.clone(), round, due)
    }

    /// File one gradient under `key` in this member's current round (the one
    /// its next launch closes), fold every run it makes foldable, and put
    /// one buffer of `grad`'s pool class back into this thread's pool. Keys
    /// must increase from one call to the next within a round.
    pub(crate) fn contribute(&self, key: u64, grad: Vec<f32>) {
        let capacity = grad.capacity();
        run_folds(self.file(key, grad));
        self.give_back(capacity);
    }

    /// `contribute`'s first step: file the gradient and return the
    /// fold its arrival made due, if any. Bookkeeping only.
    pub fn file(&self, key: u64, grad: Vec<f32>) -> Option<Fold> {
        self.bytes_contributed.add(grad.len() as u64 * 4);
        let n = self.shared.n;
        let mut st = self.shared.state.lock();
        let round = st.deposit_round[self.rank];
        let r = st.round_mut(round, n);
        let frontier = &mut r.frontier[self.rank];
        assert!(
            *frontier < Some(key),
            "member {} contributed key {key} after key {frontier:?} in one round",
            self.rank
        );
        *frontier = Some(key);
        r.pending.push(Term {
            key,
            member: self.rank,
            buf: grad,
            launched: false,
        });
        let due = r.take_due(n);
        drop(st);
        due.map(|due| self.fold(round, due))
    }

    /// `contribute`'s last step: put one buffer of the pool class of
    /// a `capacity`-float buffer into this thread's pool — a spare of the
    /// group's, the latest first, or a fresh one while it holds none.
    pub fn give_back(&self, capacity: usize) {
        let class = |cap: usize| usize::BITS - cap.leading_zeros();
        let spare = {
            let mut spares = self.shared.spares.lock();
            let at = (spares.iter()).rposition(|s| class(s.capacity()) == class(capacity));
            at.map(|at| spares.swap_remove(at))
        };
        pool::put(spare.unwrap_or_else(|| Vec::with_capacity(capacity)));
    }

    /// Non-blocking launch: file this member's `(key, vec)` pairs (keys above
    /// every key it contributed to the round) and close its part of the
    /// round, folding what that makes foldable. The buffers go home at the
    /// round's fetch.
    pub(crate) fn deposit(&self, contribution: Contribution) {
        run_folds(self.launch(contribution));
    }

    /// `deposit`'s first step: file the pairs, close the member's
    /// part of the round and return the fold that made due, if any.
    pub fn launch(&self, contribution: Contribution) -> Option<Fold> {
        let n = self.shared.n;
        self.deposits.inc();
        self.bytes_contributed
            .add(contribution.iter().map(|(_, v)| v.len() as u64 * 4).sum());
        let mut st = self.shared.state.lock();
        let round = st.deposit_round[self.rank];
        st.deposit_round[self.rank] += 1;
        let r = st.round_mut(round, n);
        let frontier = &mut r.frontier[self.rank];
        assert!(
            contribution.iter().all(|&(key, _)| *frontier < Some(key)),
            "member {} launched a key at or below one it contributed",
            self.rank
        );
        *frontier = Some(u64::MAX);
        r.launched += 1;
        r.pending
            .extend(contribution.into_iter().map(|(key, buf)| Term {
                key,
                member: self.rank,
                buf,
                launched: true,
            }));
        let due = r.take_due(n);
        if r.publish_if_complete(n, &self.shared.spares) {
            self.shared.cv.notify_all();
        }
        drop(st);
        due.map(|due| self.fold(round, due))
    }

    /// Blocking wait: returns the reduced vector of this member's next
    /// un-fetched round (in deposit order).
    pub(crate) fn fetch(&self) -> Reduced {
        self.fetch_until(None)
            .expect("a wait without a deadline ends only with the result")
    }

    /// Consume this member's next un-fetched round if its result is
    /// published: a handle on the result plus the member's own deposited
    /// buffers, still to be pooled once the lock is released.
    fn take_ready(&self, st: &mut State) -> Option<(Reduced, Vec<Vec<f32>>)> {
        let round_idx = st.fetch_round[self.rank];
        let round = st.rounds.get_mut((round_idx - st.base) as usize)?;
        let result = round.result.clone()?;
        let mine = std::mem::take(&mut round.home[self.rank]);
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
    /// un-fetched round is published or `deadline` passes; the round is
    /// consumed only when its result is returned.
    fn fetch_until(&self, deadline: Option<Instant>) -> Option<Reduced> {
        let start = Instant::now();
        let mut st = self.shared.state.lock();
        let ready = loop {
            if let Some(ready) = self.take_ready(&mut st) {
                break Some(ready);
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
        self.wait_ns.add(start.elapsed().as_nanos() as u64);
        ready.map(take_home)
    }

    /// Non-blocking wait: returns the reduced vector of this member's next
    /// un-fetched round if it is published, `None` otherwise (the round is
    /// *not* consumed on `None`).
    pub fn try_fetch(&self) -> Option<Reduced> {
        let ready = self.take_ready(&mut self.shared.state.lock());
        ready.map(take_home)
    }

    /// Wait for this member's next un-fetched round with a hard deadline:
    /// gives up after `timeout`, returning `None` without consuming the
    /// round. A member of a group whose peer died would otherwise block
    /// forever on the condition variable; every blocking wait in the
    /// training runtime goes through this path.
    pub(crate) fn fetch_deadline(&self, timeout: Duration) -> Option<Reduced> {
        self.fetch_until(Some(Instant::now() + timeout))
    }

    /// Blocking allreduce: `deposit`, then wait for the round without a
    /// deadline.
    pub fn reduce(&self, contribution: Contribution) -> Reduced {
        self.deposit(contribution);
        self.fetch()
    }
}

/// Runs on the fetching member's thread with no lock held: its deposited
/// buffers go back to the pool they were drawn from.
fn take_home((result, mine): (Reduced, Vec<Vec<f32>>)) -> Reduced {
    for buf in mine {
        pool::put(buf);
    }
    result
}

/// The shared-memory member satisfies the transport-neutral reduction
/// contract the runtime programs against; [`crate::dist::TransportKeyed`]
/// is the wire-backed implementation.
impl chimera_comm::KeyedReduce for KeyedMember {
    fn contribute(&self, key: u64, grad: Vec<f32>) {
        KeyedMember::contribute(self, key, grad);
    }

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

    /// Interleaved keys over three members, each contributing as its
    /// "backwards" run and launching empty, on values whose sum depends on
    /// the order (1e8, 1, −1e8) and lengths around the kernel's block edge:
    /// every member reads the oracle's bits, whatever the threads' timing.
    #[test]
    fn streamed_contributions_fold_to_the_key_ordered_sum() {
        for (round, len) in [1, ops::SUM_CHUNK - 1, ops::SUM_CHUNK + 3]
            .into_iter()
            .enumerate()
        {
            let value = |key: u64, i: usize| [1e8f32, 1.0, -1e8][(key as usize + i) % 3];
            // Member `r` holds the keys `k` with `k % 3 == r`, plus key 7 on
            // every member: equal keys tie-break by member.
            let keys = |r: usize| -> Vec<u64> {
                let mut keys: Vec<u64> = (0..12u64).filter(|k| k % 3 == r as u64).collect();
                keys.push(7);
                keys.sort_unstable();
                keys.dedup();
                keys
            };
            let expected = sum_in_key_order((0..3).flat_map(|r| {
                keys(r)
                    .into_iter()
                    .map(move |k| (k, r, (0..len).map(|i| value(k, i)).collect::<Vec<f32>>()))
            }));
            let handles: Vec<_> = keyed_group(3)
                .into_iter()
                .map(|m| {
                    let keys = keys(m.rank());
                    thread::spawn(move || {
                        for (i, k) in keys.into_iter().enumerate() {
                            if (i + m.rank() + round) % 2 == 0 {
                                thread::yield_now();
                            }
                            m.contribute(k, (0..len).map(|i| value(k, i)).collect());
                        }
                        m.reduce(Vec::new()).to_vec()
                    })
                })
                .collect();
            for h in handles {
                let got = h.join().unwrap();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&expected), "len {len}");
            }
        }
    }

    /// Gradients contributed and pairs deposited at launch fold into one
    /// key-ordered sum; the launch-deposited buffers go home at the fetch,
    /// and every contribute puts exactly one buffer back at once.
    #[test]
    fn contributions_and_launch_pairs_share_a_round() {
        let len = 2 * pool::MIN_POOLED;
        let v = move |x: f32| vec![x; len];
        let expected = sum_in_key_order([
            (0, 0, v(1e8)),
            (1, 1, v(1.0)),
            (2, 0, v(-1e8)),
            (3, 1, v(1.0)),
        ]);
        let mut g = keyed_group(2);
        let (m1, m0) = (g.pop().unwrap(), g.pop().unwrap());
        let launcher = thread::spawn(move || {
            let before = pool::local_stats().returns;
            m1.deposit(vec![(1, v(1.0)), (3, v(1.0))]);
            let out = m1.fetch().to_vec();
            (out, pool::local_stats().returns - before)
        });
        let before = pool::local_stats().returns;
        m0.contribute(0, v(1e8));
        assert_eq!(pool::local_stats().returns - before, 1);
        m0.contribute(2, v(-1e8));
        assert_eq!(pool::local_stats().returns - before, 2);
        let out = m0.reduce(Vec::new()).to_vec();
        assert_eq!(out, expected);
        let (theirs, returned) = launcher.join().unwrap();
        assert_eq!(theirs, expected);
        assert_eq!(returned, 2, "the launch pairs went home at the fetch");
    }

    /// A worker's pool gives one buffer per backward and gets one back: from
    /// the second round on, contributing from the pool never misses, and the
    /// group settles on a fixed set of buffers however long the rounds are.
    #[test]
    fn contributing_from_the_pool_stays_balanced() {
        let len = 4 * pool::MIN_POOLED;
        let handles: Vec<_> = keyed_group(2)
            .into_iter()
            .map(|m| {
                thread::spawn(move || {
                    let mut misses = Vec::new();
                    for round in 0..4u64 {
                        let before = pool::local_stats().misses;
                        for micro in 0..32u64 {
                            let mut grad = pool::take_zeroed(len);
                            grad.fill((round + micro) as f32);
                            m.contribute(2 * micro + m.rank() as u64, grad);
                        }
                        drop(m.reduce(Vec::new()));
                        misses.push(pool::local_stats().misses - before);
                    }
                    misses
                })
            })
            .collect();
        for h in handles {
            let misses = h.join().unwrap();
            assert!(misses[0] <= 1, "{misses:?}");
            assert_eq!(&misses[1..], [0, 0, 0], "{misses:?}");
        }
    }

    #[test]
    #[should_panic(expected = "contributed key 3 after key Some(5)")]
    fn a_key_out_of_order_is_refused() {
        let mut g = keyed_group(1);
        let m = g.pop().unwrap();
        m.contribute(5, vec![1.0]);
        m.contribute(3, vec![1.0]);
    }
}
