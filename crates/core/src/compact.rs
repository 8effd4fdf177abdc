//! Work-conserving schedule compaction.
//!
//! Chimera scales past `N = D` micro-batches by concatenating basic
//! scheduling units (§3.5). A real runtime lets the next unit's forwards
//! occupy the previous unit's draining bubbles: each worker keeps one cursor
//! per directional pipeline and, whenever it is free, executes the
//! highest-priority *ready* op among its cursors, subject to an in-flight
//! activation cap. This module performs that greedy execution once, under
//! abstract costs, and freezes the resulting per-worker op order into the
//! schedule.

use crate::dep::DepTracker;
use crate::ids::WorkerId;
use crate::op::{Chunk, Op};
use crate::placement::Placement;
use crate::unit_time::{CostProvider, UnitCosts};

/// One ordered op stream (e.g. all ops of one replica on one worker, across
/// all concatenated basic units). `priority` breaks ties between streams when
/// several heads could start at the same tick — lower runs first.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Ops in their mandatory relative order.
    pub ops: Vec<Op>,
    /// Tie-break priority per op (same length as `ops`).
    pub priority: Vec<u64>,
}

/// Failure during compaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for CompactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CompactError {}

/// Greedily execute the per-worker streams and return the flattened
/// per-worker op order.
///
/// * `micro_window` bounds run-ahead: a forward for micro-batch `m` may only
///   start while `m < oldest_unretired_micro + window` (a micro retires when
///   its stage-0 backward completes). This caps each worker's activation
///   stash at `window` micro-batches — `D` for Chimera (Table 2), `2D` under
///   forward doubling — and, unlike a raw per-worker stash cap, cannot
///   deadlock: the oldest unretired micro-batch is always admissible
///   everywhere, so its chain can always progress.
pub fn compact(
    d: u32,
    placement: &Placement,
    streams_per_worker: Vec<Vec<Stream>>,
    costs: UnitCosts,
    micro_window: Option<u32>,
) -> Result<Vec<Vec<Op>>, CompactError> {
    let nw = streams_per_worker.len();
    for streams in &streams_per_worker {
        for s in streams {
            assert_eq!(s.ops.len(), s.priority.len(), "priority per op required");
        }
    }
    let mut tracker = DepTracker::new(d, placement);

    // Retirement tracking: per micro, how many stage-0 backward half-units
    // remain (2 = one full backward or two halves).
    let mut remaining: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
    for ws in &streams_per_worker {
        for stream in ws {
            for op in &stream.ops {
                if op.is_backward() && op.stage.0 == 0 {
                    let units = match op.chunk {
                        Chunk::Half(_) => 1,
                        _ => 2,
                    };
                    for m in op.covered_micros() {
                        *remaining.entry(m.0 as u64).or_insert(0) += units;
                    }
                }
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
    let mut done = 0usize;

    while done < total {
        // Find the (worker, stream) whose head op can start earliest.
        let mut best: Option<(u64, u64, usize, usize)> = None; // (start, prio, w, k)
        for (w, streams) in streams_per_worker.iter().enumerate() {
            for (k, stream) in streams.iter().enumerate() {
                let c = cursors[w][k];
                if c >= stream.ops.len() {
                    continue;
                }
                let op = &stream.ops[c];
                let Some(t) = tracker.ready_time(&costs, WorkerId(w as u32), op) else {
                    continue;
                };
                if let (Some(window), true) = (micro_window, op.is_forward()) {
                    let newest = op.covered_micros().map(|m| m.0 as u64).max().unwrap_or(0);
                    if newest >= oldest_unretired + window as u64 {
                        continue;
                    }
                }
                let start = free[w].max(t);
                let key = (start, stream.priority[c], w, k);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        let Some((start, _, w, k)) = best else {
            return Err(CompactError {
                message: format!(
                    "compaction deadlock after {done}/{total} ops; \
                     micro window {micro_window:?} too small or streams inconsistent"
                ),
            });
        };
        let op = streams_per_worker[w][k].ops[cursors[w][k]];
        let finish = start + costs.op_cost(&op);
        tracker.record(&costs, WorkerId(w as u32), &op, finish);
        if op.is_backward() && op.stage.0 == 0 {
            let units = match op.chunk {
                Chunk::Half(_) => 1,
                _ => 2,
            };
            for m in op.covered_micros() {
                if let Some(r) = remaining.get_mut(&(m.0 as u64)) {
                    *r = r.saturating_sub(units);
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
        done += 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{MicroId, ReplicaId, StageId};

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
        let out = compact(2, &placement, streams, UnitCosts::equal(), None).unwrap();
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
        let out = compact(2, &placement, streams, UnitCosts::equal(), Some(1)).unwrap();
        // With cap 1, worker 0 must alternate F, B, F, B, ...
        let kinds: Vec<bool> = out[0].iter().map(Op::is_forward).collect();
        assert_eq!(kinds, vec![true, false, true, false, true, false]);
    }

    #[test]
    fn impossible_window_reports_deadlock() {
        let placement = Placement::linear(1);
        let ops = vec![
            Op::forward(MicroId(0), StageId(0), ReplicaId(0)),
            Op::backward(MicroId(0), StageId(0), ReplicaId(0)),
        ];
        let streams = vec![vec![Stream {
            priority: vec![0, 1],
            ops,
        }]];
        let err = compact(1, &placement, streams, UnitCosts::equal(), Some(0)).unwrap_err();
        assert!(err.to_string().contains("deadlock"));
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
        let out = compact(1, &placement, vec![vec![a, b]], UnitCosts::equal(), None).unwrap();
        assert_eq!(out[0][0].micro, MicroId(1));
        assert_eq!(out[0][1].micro, MicroId(0));
    }
}
