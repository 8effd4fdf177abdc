//! Communication-matching lint: prove the keyed-inbox transport semantics of
//! `chimera-comm` are sufficient for a schedule.
//!
//! Every cross-worker data dependency is a message in *half-micro*
//! units (so §3.5's backward-halving chunks compare against full backwards):
//! a forward at stage `s` sends both halves of each covered micro's output
//! activation to stage `s+1`'s holder; a backward at stage `s` sends the
//! covered halves of the input gradient to stage `s-1`'s holder. The lint
//! checks, per channel `(src, dst)`:
//!
//! - **bijection** — each recv matches exactly one send with the same
//!   `(direction, replica, stage, micro, half)` and vice versa
//!   (`unmatched_recv`, `duplicate_send`, `duplicate_recv`,
//!   `unconsumed_send`);
//! - **ordering** — the runtime `MsgKey` carries no half index, so two half
//!   messages from *different* producer ops that share a coarse key must be
//!   consumed in send order or the inbox silently delivers the wrong payload
//!   (`misordered_channel`);
//! - **bounded parking** — an upper bound on messages parked in the
//!   receiver's inbox, reported per channel (see
//!   [`crate::ChannelStats::max_parked`]).
//!
//! # How
//!
//! `chimera_core::program` lowers each compute op to a row naming the
//! boundary tensor it waits for and the one it ships, and pairs the two ends
//! of every tensor as it goes ([`Wires`]: per half-micro and end, how often
//! and where — the op and the message's position in its channel). The
//! table's index is the message key, so a channel's wires in index order are
//! its keys in the order the diagnostics name them, and every check reads
//! one wire; nothing is recorded or sorted per message.
//!
//! An op lowering gives no row — one off its placement worker, or naming ids
//! outside the schedule — has no messages here; `verify_span` reports such a
//! schedule under `misplaced_op` / `id_out_of_range` and does not lint it.

use chimera_core::ids::{ReplicaId, StageId};
use chimera_core::program::{lower_each, End, KeyTemplate, Wires, RECV, SEND};
use chimera_core::schedule::Schedule;

use crate::{ChannelStats, Diagnostic, OpLoc, Severity};

/// Lint outcome: diagnostics plus per-channel statistics.
pub struct CommLint {
    /// Findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-channel stats, sorted by `(src, dst)`.
    pub channels: Vec<ChannelStats>,
}

/// Run the communication lint on `sched`.
pub fn lint(sched: &Schedule) -> CommLint {
    check(sched, &lower_each(sched, 1, drop).1)
}

/// A key as the diagnostics name it: by the stage that *consumes* the tensor.
fn fmt_key(key: KeyTemplate, micro: u32, half: usize) -> String {
    let (dir, s) = match key.grad {
        false => ("act", key.stage + 1),
        true => ("grad", key.stage - 1),
    };
    format!("{dir} m{micro}.{half}@s{s}/r{}", key.replica)
}

/// The lint of `sched` from the boundary tensors its lowering paired up.
pub(crate) fn check(sched: &Schedule, wires: &Wires) -> CommLint {
    // Each tensor travels one channel: from its producing stage's holder to
    // its consuming stage's.
    let mut tensors: Vec<_> = (wires.tensors())
        .filter_map(|(key, first, table)| {
            let consumer = if key.grad {
                key.stage.checked_sub(1)?
            } else {
                key.stage + 1
            };
            let holder = |s| sched.placement.worker(ReplicaId(key.replica), StageId(s)).0;
            let channel = (consumer < sched.d).then(|| (holder(key.stage), holder(consumer)))?;
            (channel.0 != channel.1).then_some((channel, key, first, table))
        })
        .collect();
    tensors.sort_unstable_by_key(|&(channel, key, ..)| (channel, key));
    let mut lint = CommLint {
        diagnostics: Vec::new(),
        channels: Vec::new(),
    };
    for tensors in tensors.chunk_by(|a, b| a.0 == b.0) {
        let (src, dst) = tensors[0].0;
        let stats = ChannelStats {
            src,
            dst,
            messages: 0,
            max_parked: 0,
        };
        let mut on = Channel {
            sched,
            wires,
            stats,
            found: Default::default(),
        };
        let in_use = tensors.iter().flat_map(|&(_, key, first, table)| {
            let wires = (0..).zip(first..).zip(table);
            wires
                .filter(|(_, wire)| wire.count != [[0; 2]; 2])
                .map(move |(at, _)| (key, at))
        });
        let mut used = false;
        for (key, (micro, at)) in in_use {
            used = true;
            on.bijection(key, micro, at);
            let misordered = on.misordered(key, micro, at);
            on.found[2].extend(misordered);
        }
        if used {
            lint.channels.push(on.stats);
            lint.diagnostics.extend(on.found.into_iter().flatten());
        }
    }
    lint
}

/// One channel's wires, read in key order.
struct Channel<'a> {
    sched: &'a Schedule,
    wires: &'a Wires,
    stats: ChannelStats,
    /// Recv-side, send-side and ordering findings, each in key order.
    found: [Vec<Diagnostic>; 3],
}

impl Channel<'_> {
    /// The locations of `ops` on `worker`, repeats of one op once.
    fn locs(&self, worker: u32, ops: impl Iterator<Item = u32>) -> Vec<OpLoc> {
        let mut out: Vec<OpLoc> =
            (ops.map(|op| OpLoc::of(self.sched, worker as usize, op as usize))).collect();
        out.dedup();
        out
    }

    /// An error at every one of `ends`, on `worker`.
    fn error(
        &self,
        code: &'static str,
        message: String,
        worker: u32,
        ends: impl Iterator<Item = End>,
    ) -> Diagnostic {
        let locations = self.locs(worker, ends.map(|e| e.op));
        let severity = Severity::Error;
        Diagnostic {
            code,
            severity,
            message,
            locations,
        }
    }

    /// Both halves' bijection findings on wire `at`, into `found[0]` (recv
    /// side) and `found[1]` (send side), and — over the matched recvs — the
    /// parking bound: the k-th recv matching the p-th send parks at most
    /// p - k messages (a duplicated send counts at its last position).
    fn bijection(&mut self, key: KeyTemplate, micro: u32, at: usize) {
        let (src, dst) = (self.stats.src, self.stats.dst);
        for half in [0, 1] {
            let name = || fmt_key(key, micro, half);
            let (sends, recvs) = (
                self.wires.ends(at, SEND, half),
                self.wires.ends(at, RECV, half),
            );
            let (sent, received) = (sends.clone().count(), recvs.clone().count());
            if received > 1 {
                let message = format!("P{dst} receives {} from P{src} {received} times", name());
                self.found[0].push(self.error("duplicate_recv", message, dst, recvs.clone()));
            }
            match sends.clone().last() {
                _ if received == 0 => {}
                Some(send) => {
                    for e in recvs {
                        let parked = send.seq.saturating_sub(e.seq) as usize;
                        self.stats.max_parked = self.stats.max_parked.max(parked);
                    }
                    self.stats.messages += received;
                }
                None => {
                    let never = format!("but P{src} never sends it on this channel");
                    let message = format!("P{dst} expects {} from P{src}, {never}", name());
                    self.found[0].push(self.error("unmatched_recv", message, dst, recvs));
                }
            }
            if sent > 1 {
                let message = format!("P{src} sends {} to P{dst} {sent} times", name());
                self.found[1].push(self.error("duplicate_send", message, src, sends.clone()));
            }
            if sent > 0 && received == 0 {
                let nobody = format!("but no op on P{dst} receives it");
                let message = format!("P{src} sends {} to P{dst}, {nobody}", name());
                let unconsumed = self.error("unconsumed_send", message, src, sends);
                self.found[1].push(Diagnostic {
                    severity: Severity::Warning,
                    ..unconsumed
                });
            }
        }
    }

    /// Wire `at`'s occurrences at `end`, both halves merged into channel
    /// order: `(half, op)` each.
    fn in_order(&self, at: usize, end: usize) -> impl Iterator<Item = (u8, u32)> + '_ {
        let (mut h0, mut h1) = (
            self.wires.ends(at, end, 0).peekable(),
            self.wires.ends(at, end, 1).peekable(),
        );
        std::iter::from_fn(move || match (h0.peek(), h1.peek()) {
            (Some(a), Some(b)) if b.seq < a.seq => h1.next().map(|e| (1, e.op)),
            (Some(_), _) => h0.next().map(|e| (0, e.op)),
            _ => h1.next().map(|e| (1, e.op)),
        })
    }

    /// Ordering under the coarse runtime key (no half index): halves of one
    /// micro produced by *different* ops must be consumed in send order, or
    /// the inbox hands the consumer the wrong half's payload.
    fn misordered(&self, key: KeyTemplate, micro: u32, at: usize) -> Option<Diagnostic> {
        let ops = |end| self.in_order(at, end).map(|(_, op)| op);
        let halves = |end| self.in_order(at, end).map(|(half, _)| half);
        // Same producer op ⇒ one runtime message; nothing to misorder.
        let mut producers = ops(SEND);
        let first = producers.next()?;
        if ops(RECV).next().is_none()
            || producers.all(|op| op == first)
            || halves(SEND).eq(halves(RECV))
        {
            return None;
        }
        let (send_halves, recv_halves): (Vec<u8>, Vec<u8>) =
            (halves(SEND).collect(), halves(RECV).collect());
        let (src, dst) = (self.stats.src, self.stats.dst);
        let mut locations = self.locs(src, ops(SEND));
        locations.extend(self.locs(dst, ops(RECV)));
        Some(Diagnostic {
            code: "misordered_channel",
            severity: Severity::Error,
            message: format!(
                "halves of {} travel P{src}->P{dst} in send order {send_halves:?} but are \
                 consumed in order {recv_halves:?}; the runtime MsgKey does not carry \
                 the half index, so the inbox would deliver the wrong payload",
                fmt_key(key, micro, 0),
            ),
            locations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_core::baselines::{dapple, gpipe};
    use chimera_core::chimera::{chimera, ChimeraConfig};

    #[test]
    fn clean_schedules_have_no_findings() {
        for s in [gpipe(4, 8), dapple(4, 8)] {
            let l = lint(&s);
            assert!(l.diagnostics.is_empty(), "{:?}", l.diagnostics);
        }
        let l = lint(&chimera(&ChimeraConfig::new(4, 8)).unwrap());
        assert!(l.diagnostics.is_empty(), "{:?}", l.diagnostics);
    }

    #[test]
    fn gpipe_linear_channels_are_neighbors_only() {
        let l = lint(&gpipe(4, 4));
        for c in &l.channels {
            assert_eq!(
                (c.src as i64 - c.dst as i64).abs(),
                1,
                "linear pipeline only talks to neighbors"
            );
            assert!(c.messages > 0);
        }
    }

    #[test]
    fn dropped_send_is_unmatched_recv() {
        let mut s = gpipe(2, 2);
        // Remove F(m1)@s0: worker 1 still expects its activation.
        s.workers[0].remove(1);
        let l = lint(&s);
        assert!(
            l.diagnostics.iter().any(|d| d.code == "unmatched_recv"),
            "{:?}",
            l.diagnostics
        );
    }

    #[test]
    fn dropped_recv_is_unconsumed_send_warning() {
        let mut s = gpipe(2, 2);
        // Remove F(m1)@s1: worker 0's activation send has no consumer.
        s.workers[1].remove(1);
        let l = lint(&s);
        let d = l
            .diagnostics
            .iter()
            .find(|d| d.code == "unconsumed_send")
            .expect("unconsumed send");
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn duplicated_forward_is_duplicate_send() {
        let mut s = gpipe(2, 2);
        let dup = s.workers[0][0];
        s.workers[0].insert(1, dup);
        let l = lint(&s);
        assert!(l.diagnostics.iter().any(|d| d.code == "duplicate_send"));
    }

    #[test]
    fn inverted_halves_are_misordered() {
        // Stage 1 produces gradient halves in order [0, 1]; stage 0 consumes
        // them as [1, 0]. The dynamic executor accepts this (both halves
        // exist when needed) — but the runtime's coarse MsgKey would deliver
        // half 0's payload to the half-1 recv. Only the static lint sees it.
        use chimera_core::ids::{MicroId, ReplicaId, StageId};
        use chimera_core::op::{Chunk, Op, OpKind};
        use chimera_core::placement::Placement;
        use chimera_core::schedule::{Schedule, Scheme, SyncStrategy};
        use chimera_core::unit_time::{execute, UnitCosts};
        let half = |h, s| Op {
            kind: OpKind::Backward { recompute: false },
            micro: MicroId(0),
            stage: StageId(s),
            replica: ReplicaId(0),
            chunk: Chunk::Half(h),
        };
        let s = Schedule {
            scheme: Scheme::Chimera,
            d: 2,
            n: 1,
            placement: Placement::linear(2),
            workers: vec![
                vec![
                    Op::forward(MicroId(0), StageId(0), ReplicaId(0)),
                    half(1, 0),
                    half(0, 0),
                ],
                vec![
                    Op::forward(MicroId(0), StageId(1), ReplicaId(0)),
                    half(0, 1),
                    half(1, 1),
                ],
            ],
            flushes: true,
            sync: SyncStrategy::None,
        };
        assert!(execute(&s, UnitCosts::equal()).is_ok(), "dynamically fine");
        let l = lint(&s);
        let d = l
            .diagnostics
            .iter()
            .find(|d| d.code == "misordered_channel")
            .expect("misordered channel");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("[0, 1]") && d.message.contains("[1, 0]"));
    }

    #[test]
    fn parking_bound_is_finite_and_small_for_builtin_schemes() {
        for s in [gpipe(8, 16), dapple(8, 16)] {
            let l = lint(&s);
            for c in &l.channels {
                assert!(
                    c.max_parked <= s.n as usize,
                    "{}->{} parks {}",
                    c.src,
                    c.dst,
                    c.max_parked
                );
            }
        }
    }
}
