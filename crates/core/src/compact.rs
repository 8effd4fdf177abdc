//! Chimera's merge: the work-conserving interleave of its directional
//! pipelines, private to [`chimera`](crate::chimera::chimera).
//!
//! Chimera scales past `N = D` micro-batches by concatenating basic
//! scheduling units (§3.5). A real runtime lets the next unit's forwards
//! occupy the previous unit's draining bubbles: each worker keeps one cursor
//! per directional pipeline and, whenever it is free, executes the
//! highest-priority *ready* op among its cursors, subject to an in-flight
//! activation cap. This module performs that greedy execution once, under
//! abstract costs, and freezes the resulting per-worker op order into the
//! schedule. Its streams hold forwards and backwards only, each filed under
//! the worker its placement names — `merge_input` builds them that way.
//!
//! # What is kept, and what wakes a blocked head
//!
//! Every pick takes the minimum `(start, priority, worker, stream)` over all
//! stream heads that are ready and inside the micro window. Nothing about a
//! head is re-derived unless something it depends on changed:
//!
//! * per stream, the head's readiness is cached — `Ready` at a tick,
//!   or `Blocked` on the dependency
//!   [`DepTracker::first_unmet`](crate::dep::DepTracker::first_unmet) names;
//! * per worker, the best admissible ready head is cached, and recomputed
//!   only when the worker executed an op (its `free` tick moved), one of its
//!   heads was re-evaluated, or the window moved;
//! * an executed op re-evaluates its stream's next head, and the blocked
//!   heads whose named dependency it produces. Those can only sit on its own
//!   worker (a forward's stash is read by the local backward) or on the
//!   holder of the next stage in its direction, so two workers' heads are
//!   compared against it — not every head of every worker;
//! * the window admits by comparison against `oldest_unretired`, so when a
//!   stage-0 backward retires a micro-batch the readiness of window-blocked
//!   forwards stands and only the workers' picks are recomputed.
//!
//! A head is therefore evaluated once when it reaches its cursor and once
//! per dependency that wakes it: at most four times for a backward waiting
//! on a stash and two gradient halves, where rescanning costs one evaluation
//! per head per pick.

use crate::chimera::GenError;
use crate::dep::{DepTracker, Need};
use crate::ids::{StageId, WorkerId};
use crate::op::{Chunk, Op, OpKind};
use crate::placement::Placement;
use crate::unit_time::{CostProvider, UnitCosts};

/// One ordered op stream (e.g. all ops of one replica on one worker, across
/// all concatenated basic units). `priority` breaks ties between streams when
/// several heads could start at the same tick — lower runs first.
#[derive(Debug, Clone)]
pub(crate) struct Stream {
    /// Ops in their mandatory relative order.
    pub(crate) ops: Vec<Op>,
    /// Tie-break priority per op (same length as `ops`).
    pub(crate) priority: Vec<u64>,
}

/// What the compactor knows about the op at a stream's cursor.
#[derive(Clone, Copy)]
enum Head {
    /// The stream is exhausted.
    Done,
    /// Waiting for this dependency; only an op producing it can change that.
    Blocked(Need),
    /// Dependencies satisfied at tick `at`. A forward also carries the
    /// newest micro-batch it covers, which the run-ahead window is checked
    /// against at every pick.
    Ready { at: u64, newest: Option<u64> },
}

/// Whether executing `op` can satisfy `need`.
fn produces(op: &Op, need: &Need) -> bool {
    let (m, s, r) = match (op.kind, *need) {
        (OpKind::Forward, Need::Fwd(m, s, r)) => (m, s, r),
        (OpKind::Backward { .. }, Need::Bwd(m, s, r, _)) => (m, s, r),
        _ => return false,
    };
    op.stage == s && op.replica == r && op.covered_micros().any(|c| c == m)
}

/// The readiness tables for `streams_per_worker`'s ops, each named by its
/// position in its stream.
fn tracker(
    d: u32,
    placement: &Placement,
    streams_per_worker: &[Vec<Stream>],
) -> Result<DepTracker, GenError> {
    let ops = (streams_per_worker.iter().enumerate()).flat_map(|(w, streams)| {
        (streams.iter().flat_map(|s| s.ops.iter().enumerate())).map(move |(i, op)| (w, i, op))
    });
    let sized = DepTracker::sized(d, u32::MAX, placement, streams_per_worker.len(), ops);
    sized
        .map(|(deps, _)| deps)
        .map_err(|e| GenError::Merge(format!("streams inconsistent: {e}")))
}

/// Retirement units of a stage-0 backward: a micro-batch retires after two
/// (one full backward or two halves).
fn retire_units(op: &Op) -> u32 {
    match op.chunk {
        Chunk::Half(_) => 1,
        _ => 2,
    }
}

/// One worker's side of the merge.
struct Lane<'a> {
    streams: &'a [Stream],
    /// Per stream: index of its next op, and what is known about that op.
    cursors: Vec<usize>,
    heads: Vec<Head>,
    /// Streams with ops left; only these are ever looked at again.
    live: Vec<usize>,
    /// When the worker finishes the last op it was given.
    free: u64,
    /// `(start, priority, stream)` of the best admissible ready head. Stale
    /// once `free`, a head of this worker, or the window moves.
    best: Option<(u64, u64, usize)>,
}

/// The greedy execution's state.
struct Merge<'a> {
    costs: UnitCosts,
    micro_window: u64,
    tracker: DepTracker,
    lanes: Vec<Lane<'a>>,
    /// Oldest micro-batch whose stage-0 backward has not completed.
    oldest_unretired: u64,
    /// Readiness evaluations so far.
    evaluations: usize,
}

impl Merge<'_> {
    /// Look at the op under stream `k`'s cursor on worker `w` afresh.
    fn evaluate(&mut self, w: usize, k: usize) {
        let lane = &mut self.lanes[w];
        let Some(op) = lane.streams[k].ops.get(lane.cursors[k]) else {
            lane.heads[k] = Head::Done;
            lane.live.retain(|&j| j != k);
            return;
        };
        self.evaluations += 1;
        let wid = WorkerId(w as u32);
        lane.heads[k] = match self.tracker.ready_time(&self.costs, wid, op) {
            Some(at) => Head::Ready {
                at,
                newest: op
                    .is_forward()
                    .then(|| op.covered_micros().map(|m| m.0 as u64).max().unwrap_or(0)),
            },
            None => Head::Blocked(
                self.tracker
                    .first_unmet(wid, op)
                    .expect("an op that is not ready has an unmet need"),
            ),
        };
    }

    /// Bring worker `w`'s pick up to date, after re-evaluating those of its
    /// blocked heads that `woken_by` — the op that just executed — unblocks.
    fn refresh(&mut self, w: usize, woken_by: Option<&Op>) {
        let mut best: Option<(u64, u64, usize)> = None;
        for i in 0..self.lanes[w].live.len() {
            let k = self.lanes[w].live[i];
            if let (Some(op), Head::Blocked(need)) = (woken_by, self.lanes[w].heads[k]) {
                if produces(op, &need) {
                    self.evaluate(w, k);
                }
            }
            let lane = &self.lanes[w];
            let Head::Ready { at, newest } = lane.heads[k] else {
                continue;
            };
            let window_end = self.oldest_unretired.saturating_add(self.micro_window);
            if newest.is_none_or(|newest| newest < window_end) {
                let key = (
                    lane.free.max(at),
                    lane.streams[k].priority[lane.cursors[k]],
                    k,
                );
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        self.lanes[w].best = best;
    }
}

/// Greedily execute the per-worker streams and return the flattened
/// per-worker op order, and how many times an op's readiness was evaluated.
///
/// `micro_window` bounds run-ahead: a forward for micro-batch `m` may only
/// start while `m < oldest_unretired_micro + window` (a micro retires when
/// its stage-0 backward completes). This caps each worker's activation stash
/// at `window` micro-batches — `D` for Chimera (Table 2), `2D` under forward
/// doubling — and, unlike a raw per-worker stash cap, cannot deadlock: the
/// oldest unretired micro-batch is always admissible everywhere, so its
/// chain can always progress.
pub(crate) fn compact(
    d: u32,
    placement: &Placement,
    streams_per_worker: &[Vec<Stream>],
    costs: UnitCosts,
    micro_window: u32,
) -> Result<(Vec<Vec<Op>>, usize), GenError> {
    let nw = streams_per_worker.len();
    let tracker = tracker(d, placement, streams_per_worker)?;
    // Retirement tracking: per micro, how many stage-0 backward half-units
    // remain; zero for a micro that has none (left).
    let mut remaining = vec![0u32; tracker.micros()];
    for s in streams_per_worker.iter().flatten() {
        assert_eq!(s.ops.len(), s.priority.len(), "priority per op required");
        for op in &s.ops {
            if op.is_backward() && op.stage.0 == 0 {
                for m in op.covered_micros() {
                    remaining[m.idx()] += retire_units(op);
                }
            }
        }
    }
    // Micros retire at most once, so the oldest unretired one only moves up.
    let mut oldest = remaining.iter().position(|&r| r > 0);

    let mut merge = Merge {
        costs,
        micro_window: micro_window as u64,
        tracker,
        lanes: streams_per_worker
            .iter()
            .map(|streams| Lane {
                streams,
                cursors: vec![0; streams.len()],
                heads: vec![Head::Done; streams.len()],
                live: (0..streams.len()).collect(),
                free: 0,
                best: None,
            })
            .collect(),
        oldest_unretired: oldest.map_or(0, |m| m as u64),
        evaluations: 0,
    };
    for (w, streams) in streams_per_worker.iter().enumerate() {
        for k in 0..streams.len() {
            merge.evaluate(w, k);
        }
        merge.refresh(w, None);
    }

    let total: usize = streams_per_worker
        .iter()
        .map(|ws| ws.iter().map(|s| s.ops.len()).sum::<usize>())
        .sum();
    let mut out: Vec<Vec<Op>> = vec![Vec::new(); nw];
    for done in 0..total {
        // The (worker, stream) whose head op can start earliest.
        let pick = merge
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(w, lane)| lane.best.map(|(start, prio, k)| (start, prio, w, k)))
            .min();
        let Some((start, _, w, k)) = pick else {
            return Err(GenError::Merge(format!(
                "deadlock after {done}/{total} ops under micro window {micro_window}"
            )));
        };
        let lane = &mut merge.lanes[w];
        let op = lane.streams[k].ops[lane.cursors[k]];
        let finish = start + costs.op_cost(&op);
        lane.free = finish;
        lane.cursors[k] += 1;
        out[w].push(op);
        merge
            .tracker
            .record(&costs, WorkerId(w as u32), &op, finish);
        merge.evaluate(w, k);

        // Whose pick `op` changes: its own worker's; that of the worker it
        // may wake; everyone's when the window moves. A compute op's output
        // is read by its own worker (a forward's stash, by the local
        // backward) and by the holder of the next stage in its direction,
        // nowhere else.
        let consumer = if op.is_forward() {
            Some(op.stage.0 + 1).filter(|&s| s < d)
        } else {
            op.stage.0.checked_sub(1)
        };
        let remote = consumer
            .map(|s| placement.worker(op.replica, StageId(s)).idx())
            .filter(|&x| x != w && x < nw);
        let mut everyone = false;
        if op.is_backward() && op.stage.0 == 0 {
            for m in op.covered_micros() {
                remaining[m.idx()] = remaining[m.idx()].saturating_sub(retire_units(&op));
            }
            while oldest.is_some_and(|m| remaining[m] == 0) {
                oldest = oldest.map(|m| m + 1).filter(|&m| m < remaining.len());
            }
            let moved = oldest.map_or(u64::MAX, |m| m as u64);
            // Window-blocked forwards anywhere may have become admissible.
            everyone |= moved != merge.oldest_unretired;
            merge.oldest_unretired = moved;
        }
        let stale = if everyone { 0..nw } else { w..w + 1 };
        for x in stale.chain(remote.filter(|_| !everyone)) {
            merge.refresh(x, Some(&op));
        }
    }
    Ok((out, merge.evaluations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chimera::{merge_input, ChimeraConfig, ScaleMethod};
    use crate::ids::{MicroId, ReplicaId};

    /// The oracle: before every pick, re-derive the readiness of every
    /// stream head of every worker. Returns the op order and the number of
    /// readiness evaluations.
    fn compact_rescan(
        d: u32,
        placement: &Placement,
        streams_per_worker: &[Vec<Stream>],
        costs: UnitCosts,
        micro_window: u32,
    ) -> Result<(Vec<Vec<Op>>, usize), GenError> {
        let nw = streams_per_worker.len();
        let mut tracker = tracker(d, placement, streams_per_worker)?;
        let mut remaining: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
        for op in streams_per_worker.iter().flatten().flat_map(|s| &s.ops) {
            if op.is_backward() && op.stage.0 == 0 {
                for m in op.covered_micros() {
                    *remaining.entry(m.0 as u64).or_insert(0) += retire_units(op);
                }
            }
        }
        let mut oldest_unretired: u64 = remaining.keys().next().copied().unwrap_or(0);
        let total: usize = streams_per_worker
            .iter()
            .map(|ws| ws.iter().map(|s| s.ops.len()).sum::<usize>())
            .sum();
        let mut cursors: Vec<Vec<usize>> = streams_per_worker
            .iter()
            .map(|ws| vec![0usize; ws.len()])
            .collect();
        let mut free = vec![0u64; nw];
        let mut out: Vec<Vec<Op>> = vec![Vec::new(); nw];
        let mut evaluations = 0usize;
        for done in 0..total {
            let mut best: Option<(u64, u64, usize, usize)> = None; // (start, prio, w, k)
            for (w, streams) in streams_per_worker.iter().enumerate() {
                for (k, stream) in streams.iter().enumerate() {
                    let c = cursors[w][k];
                    if c >= stream.ops.len() {
                        continue;
                    }
                    let op = &stream.ops[c];
                    evaluations += 1;
                    let Some(t) = tracker.ready_time(&costs, WorkerId(w as u32), op) else {
                        continue;
                    };
                    if op.is_forward() {
                        let newest = op.covered_micros().map(|m| m.0 as u64).max().unwrap_or(0);
                        if newest >= oldest_unretired.saturating_add(micro_window as u64) {
                            continue;
                        }
                    }
                    let key = (free[w].max(t), stream.priority[c], w, k);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
            let Some((start, _, w, k)) = best else {
                return Err(GenError::Merge(format!(
                    "deadlock after {done}/{total} ops"
                )));
            };
            let op = streams_per_worker[w][k].ops[cursors[w][k]];
            let finish = start + costs.op_cost(&op);
            tracker.record(&costs, WorkerId(w as u32), &op, finish);
            if op.is_backward() && op.stage.0 == 0 {
                for m in op.covered_micros() {
                    if let Some(r) = remaining.get_mut(&(m.0 as u64)) {
                        *r = r.saturating_sub(retire_units(&op));
                        if *r == 0 {
                            remaining.remove(&(m.0 as u64));
                        }
                    }
                }
                oldest_unretired = remaining.keys().next().copied().unwrap_or(u64::MAX);
            }
            free[w] = finish;
            out[w].push(op);
            cursors[w][k] += 1;
        }
        Ok((out, evaluations))
    }

    /// `(ops, evaluations by `compact`, evaluations by the oracle)` for one
    /// Chimera configuration, after asserting both emit the same order.
    fn same_order_as_rescan(cfg: &ChimeraConfig) -> (usize, usize, usize) {
        let (placement, streams, costs, window) = merge_input(cfg).unwrap();
        let (fast, evals) = compact(cfg.d, &placement, &streams, costs, window).unwrap();
        let (slow, rescans) = compact_rescan(cfg.d, &placement, &streams, costs, window).unwrap();
        assert_eq!(fast, slow, "{cfg:?}");
        (fast.iter().map(Vec::len).sum(), evals, rescans)
    }

    /// Every `(d, n, f, scale)` the crate's tests, `fig12`, `fig19` and the
    /// planner's depth/batch candidates reach: the emitted per-worker order
    /// is the rescan oracle's. Debug builds trim the matrix (the oracle is
    /// O(ops × heads)); CI runs it whole in `--release`.
    #[test]
    fn order_matches_the_rescan_oracle() {
        let full = !cfg!(debug_assertions);
        let depths: &[u32] = if full {
            &[2, 4, 6, 8, 12, 16, 32]
        } else {
            &[2, 4, 6, 8, 16]
        };
        let scales = [
            ScaleMethod::Direct,
            ScaleMethod::ForwardDoubling,
            ScaleMethod::BackwardHalving,
        ];
        let mut configs = 0;
        for &d in depths {
            let mut ns = vec![1, d / 2, d - 1, d, d + 1, 2 * d, 3 * d, 4 * d];
            if full {
                ns.extend([6 * d, 8 * d]);
            }
            for n in ns.into_iter().filter(|&n| n > 0) {
                for f in [1, 2, d / 2] {
                    if f == 0 || !(d / 2).is_multiple_of(f) {
                        continue;
                    }
                    for scale in scales {
                        same_order_as_rescan(&ChimeraConfig { d, n, f, scale });
                        configs += 1;
                    }
                }
            }
        }
        assert!(configs >= 300, "matrix shrank to {configs} configurations");
    }

    /// The work gate, as an exact count: readiness is evaluated at most four
    /// times per op (once when it reaches the head of its stream, once per
    /// dependency that wakes it), where the rescan pays one evaluation per
    /// head per pick.
    #[test]
    fn readiness_evaluations_are_linear_in_ops() {
        for (d, n) in [(16, 64), (32, 32)] {
            let (ops, evals, rescans) = same_order_as_rescan(&ChimeraConfig::new(d, n));
            assert!(evals <= 4 * ops, "D={d} N={n}: {evals} for {ops} ops");
            assert!(
                rescans >= d as usize * ops,
                "D={d} N={n}: the oracle rescans, {rescans} for {ops} ops"
            );
        }
    }

    /// D=2 linear pipeline, two units of 2 micros each, single stream per
    /// worker: compaction preserves a valid order and executes everything.
    #[test]
    fn single_stream_roundtrip() {
        let placement = Placement::linear(2);
        let mut w0 = Vec::new();
        let mut w1 = Vec::new();
        for m in 0..4u32 {
            w0.push(Op::forward(MicroId(m), StageId(0), ReplicaId(0)));
        }
        for m in 0..4u32 {
            w0.push(Op::backward(MicroId(m), StageId(0), ReplicaId(0)));
        }
        for m in 0..4u32 {
            w1.push(Op::forward(MicroId(m), StageId(1), ReplicaId(0)));
            w1.push(Op::backward(MicroId(m), StageId(1), ReplicaId(0)));
        }
        let streams = vec![
            vec![Stream {
                priority: (0..w0.len() as u64).collect(),
                ops: w0,
            }],
            vec![Stream {
                priority: (0..w1.len() as u64).collect(),
                ops: w1,
            }],
        ];
        let (out, _) = compact(2, &placement, &streams, UnitCosts::equal(), 4).unwrap();
        assert_eq!(out[0].len(), 8);
        assert_eq!(out[1].len(), 8);
    }

    /// A micro window of 1 forces worker 0 to interleave F/B even though
    /// its forward stream is always ready.
    #[test]
    fn micro_window_limits_run_ahead() {
        let placement = Placement::linear(2);
        let mut w0f = Vec::new();
        let mut w0b = Vec::new();
        for m in 0..3u32 {
            w0f.push(Op::forward(MicroId(m), StageId(0), ReplicaId(0)));
            w0b.push(Op::backward(MicroId(m), StageId(0), ReplicaId(0)));
        }
        let mut w1 = Vec::new();
        for m in 0..3u32 {
            w1.push(Op::forward(MicroId(m), StageId(1), ReplicaId(0)));
            w1.push(Op::backward(MicroId(m), StageId(1), ReplicaId(0)));
        }
        let streams = vec![
            vec![
                Stream {
                    priority: vec![0, 2, 4],
                    ops: w0f,
                },
                Stream {
                    priority: vec![1, 3, 5],
                    ops: w0b,
                },
            ],
            vec![Stream {
                priority: (0..6).collect(),
                ops: w1,
            }],
        ];
        let (out, _) = compact(2, &placement, &streams, UnitCosts::equal(), 1).unwrap();
        // With cap 1, worker 0 must alternate F, B, F, B, ...
        let kinds: Vec<bool> = out[0].iter().map(Op::is_forward).collect();
        assert_eq!(kinds, vec![true, false, true, false, true, false]);
    }

    #[test]
    fn priority_breaks_ties_deterministically() {
        // Two independent forward streams on one worker; priorities decide.
        let placement = Placement::new(1, vec![vec![WorkerId(0)], vec![WorkerId(0)]]);
        let a = Stream {
            ops: vec![Op::forward(MicroId(0), StageId(0), ReplicaId(0))],
            priority: vec![5],
        };
        let b = Stream {
            ops: vec![Op::forward(MicroId(1), StageId(0), ReplicaId(1))],
            priority: vec![1],
        };
        let (out, _) = compact(1, &placement, &[vec![a, b]], UnitCosts::equal(), 2).unwrap();
        assert_eq!(out[0][0].micro, MicroId(1));
        assert_eq!(out[0][1].micro, MicroId(0));
    }
}
