//! Deterministic allreduce: gather → rank-ordered sum → broadcast.
//!
//! Floating-point addition is not associative, so a gradient allreduce that
//! sums in a data-dependent order breaks the bit-exact equivalence between
//! pipelined and sequential training. This implementation always reduces
//! contributions in rank order, making the result independent of thread
//! timing — the property the equivalence tests in `chimera-runtime` rely on.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use chimera_tensor::ops;
use chimera_trace::{Counter, MetricsRegistry};

struct State {
    generation: u64,
    contributions: Vec<Option<Vec<f32>>>,
    arrived: usize,
    departed: usize,
    result: Option<Arc<Vec<f32>>>,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    n: usize,
}

/// One member (rank) of an exact allreduce group.
pub struct ExactMember {
    rank: usize,
    shared: Arc<Shared>,
    calls: Arc<Counter>,
    bytes_reduced: Arc<Counter>,
}

/// Create an exact allreduce group of `n` members. Hand one member to each
/// participating thread.
pub fn exact_group(n: usize) -> Vec<ExactMember> {
    assert!(n >= 1);
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            generation: 0,
            contributions: (0..n).map(|_| None).collect(),
            arrived: 0,
            departed: 0,
            result: None,
        }),
        cv: Condvar::new(),
        n,
    });
    let reg = MetricsRegistry::global();
    let calls = reg.counter("collectives.exact.calls");
    let bytes_reduced = reg.counter("collectives.exact.bytes_reduced");
    (0..n)
        .map(|rank| ExactMember {
            rank,
            shared: shared.clone(),
            calls: calls.clone(),
            bytes_reduced: bytes_reduced.clone(),
        })
        .collect()
}

impl ExactMember {
    /// This member's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.shared.n
    }

    /// Sum `buf` across all members (in rank order) and write the result
    /// back into every member's `buf`. Blocks until the whole group arrives.
    pub fn allreduce_sum(&self, buf: &mut [f32]) {
        let n = self.shared.n;
        self.calls.inc();
        self.bytes_reduced.add(buf.len() as u64 * 4);
        if n == 1 {
            return;
        }
        let mine = buf.to_vec();
        let mut st = self.shared.state.lock();
        let gen = st.generation;
        st.contributions[self.rank] = Some(mine);
        st.arrived += 1;
        if st.arrived == n {
            // Last to arrive reduces, strictly in rank order, with the lock
            // released: nobody else can move until the result is published.
            let all: Vec<Vec<f32>> = st
                .contributions
                .iter_mut()
                .map(|c| c.take().expect("rank contributed"))
                .collect();
            drop(st);
            let terms: Vec<&[f32]> = all.iter().map(Vec::as_slice).collect();
            let mut acc = vec![0.0; buf.len()];
            ops::sum_ordered(&mut acc, &terms);
            st = self.shared.state.lock();
            st.result = Some(Arc::new(acc));
            self.shared.cv.notify_all();
        } else {
            while st.result.is_none() {
                self.shared.cv.wait(&mut st);
            }
        }
        let result = st.result.as_ref().expect("result present").clone();
        drop(st);
        buf.copy_from_slice(&result);
        st = self.shared.state.lock();
        st.departed += 1;
        if st.departed == n {
            st.result = None;
            st.arrived = 0;
            st.departed = 0;
            st.generation += 1;
            self.shared.cv.notify_all();
        } else {
            while st.generation == gen {
                self.shared.cv.wait(&mut st);
            }
        }
    }

    /// Barrier across the group (an allreduce of nothing).
    pub fn barrier(&self) {
        let mut empty: [f32; 0] = [];
        // A zero-length allreduce still runs the arrive/depart protocol.
        self.allreduce_sum_slice(&mut empty);
    }

    fn allreduce_sum_slice(&self, buf: &mut [f32]) {
        self.allreduce_sum(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn sums_across_threads() {
        let members = exact_group(4);
        let handles: Vec<_> = members
            .into_iter()
            .map(|m| {
                thread::spawn(move || {
                    let mut buf = vec![m.rank() as f32 + 1.0; 3];
                    m.allreduce_sum(&mut buf);
                    buf
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![10.0, 10.0, 10.0]);
        }
    }

    #[test]
    fn repeated_rounds_are_isolated() {
        let members = exact_group(3);
        let handles: Vec<_> = members
            .into_iter()
            .map(|m| {
                thread::spawn(move || {
                    let mut outs = Vec::new();
                    for round in 0..10u32 {
                        let mut buf = vec![(m.rank() as f32 + 1.0) * round as f32];
                        m.allreduce_sum(&mut buf);
                        outs.push(buf[0]);
                    }
                    outs
                })
            })
            .collect();
        for h in handles {
            let outs = h.join().unwrap();
            for (round, &v) in outs.iter().enumerate() {
                assert_eq!(v, 6.0 * round as f32);
            }
        }
    }

    #[test]
    fn single_member_is_identity() {
        let mut g = exact_group(1);
        let m = g.pop().unwrap();
        let mut buf = vec![5.0, -1.0];
        m.allreduce_sum(&mut buf);
        assert_eq!(buf, vec![5.0, -1.0]);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = Arc::new(AtomicUsize::new(0));
        let members = exact_group(4);
        let handles: Vec<_> = members
            .into_iter()
            .map(|m| {
                let counter = counter.clone();
                thread::spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    m.barrier();
                    // After the barrier everyone must observe all arrivals.
                    assert_eq!(counter.load(Ordering::SeqCst), 4);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn counts_calls_and_bytes() {
        let reg = MetricsRegistry::global();
        let calls = reg.counter("collectives.exact.calls");
        let bytes = reg.counter("collectives.exact.bytes_reduced");
        let (c0, b0) = (calls.get(), bytes.get());
        let members = exact_group(2);
        let handles: Vec<_> = members
            .into_iter()
            .map(|m| {
                thread::spawn(move || {
                    let mut buf = vec![1.0f32; 8];
                    m.allreduce_sum(&mut buf);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Lower bounds: other tests in this binary run groups concurrently.
        assert!(calls.get() - c0 >= 2);
        assert!(bytes.get() - b0 >= 2 * 8 * 4);
    }

    /// Rank-ordered reduction: result is bitwise identical across repeats
    /// even with values that expose non-associativity.
    #[test]
    fn deterministic_sum_order() {
        let run = || {
            let members = exact_group(3);
            let vals = [1e8f32, 1.0, -1e8];
            let handles: Vec<_> = members
                .into_iter()
                .map(|m| {
                    let v = vals[m.rank()];
                    thread::spawn(move || {
                        let mut buf = vec![v];
                        m.allreduce_sum(&mut buf);
                        buf[0].to_bits()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        };
        for _ in 0..5 {
            assert_eq!(run(), run());
        }
    }
}
