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
//! The messages are not derived here: `chimera_core::program` lowers each
//! compute op to a row that states the boundary tensor it waits for and the
//! one it ships — `(peer, KeyTemplate)` — and the micro-batches and halves it
//! covers, and the runtime sends exactly those. The lint is a fold over the
//! programs as `lower_each` hands them out, one worker at a time: every
//! half-message of a program's rows becomes a flat record, sends in one array
//! and recvs in another — the channel `(src, dst)`, the message key
//! `(direction, replica, producer stage, micro, half)` packed into one
//! integer whose order is the tuple's, the record's position `seq` in its
//! channel's send (or recv) order, and the op it came from. A channel is
//! judged as soon as the workers at both of its ends have been seen and its
//! records are dropped, so the arrays hold about two workers' messages, never
//! the schedule's.
//!
//! Both arrays are sorted by `(channel, key, seq)` and a channel's two sides
//! walked in lockstep. Records with equal keys are then adjacent — a run
//! longer than one is a duplicate, a run with no counterpart on the other
//! side is unmatched — and because the half index is the key's lowest bit, so
//! are the two halves of one runtime `MsgKey`. The diagnostics want their keys
//! in order anyway, so the sort is not extra work; there is no per-channel or
//! per-key container.
//!
//! An op lowering gives no row — one off its placement worker, or naming ids
//! outside the schedule — has no messages here; `verify_span` reports such a
//! schedule under `misplaced_op` / `id_out_of_range` and does not lint it.

use chimera_core::program::{half_mask, halves_in, lower_each, KeyTemplate, Program};
use chimera_core::schedule::Schedule;

use crate::{ChannelStats, Diagnostic, OpLoc, Severity};

/// Full message identity — a row's [`KeyTemplate`], micro and half — packed
/// most significant first, so keys compare as that tuple does:
/// `grad:1 | replica · D + stage:30 | micro:32 | half:1`. The runtime's coarse
/// `MsgKey` is this without the half: `key >> 1`.
type Key = u64;

fn pack(d: u32, tensor: KeyTemplate, micro: u32, half: usize) -> Key {
    let pair = tensor.replica as Key * d as Key + tensor.stage as Key;
    assert!(
        pair < 1 << 30,
        "replica {} of a depth-{d} schedule does not fit the lint's message keys",
        tensor.replica
    );
    (tensor.grad as Key) << 63 | pair << 33 | (micro as Key) << 1 | half as Key
}

/// A key as the diagnostics name it: by the stage that *consumes* the tensor.
fn fmt_key(d: u32, k: Key) -> String {
    let pair = (k << 1 >> 34) as u32;
    let (r, producer) = (pair / d, pair % d);
    let (dir, s) = match k >> 63 {
        0 => ("act", producer + 1),
        _ => ("grad", producer - 1),
    };
    let (m, h) = ((k >> 1) as u32, k & 1);
    format!("{dir} m{m}.{h}@s{s}/r{r}")
}

/// One half-message at its producer (a send) or its consumer (a recv) — the
/// op at `op_index` on the channel's source (destination) worker. Field
/// order is sort order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Msg {
    /// `src << 32 | dst`.
    channel: u64,
    key: Key,
    /// Position in the channel's send (or recv) order.
    seq: u32,
    op_index: u32,
}

impl Msg {
    fn half(&self) -> u8 {
        self.key as u8 & 1
    }
}

/// Lint outcome: diagnostics plus per-channel statistics.
pub struct CommLint {
    /// Findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-channel stats, sorted by `(src, dst)`.
    pub channels: Vec<ChannelStats>,
}

/// Run the communication lint on `sched`.
pub fn lint(sched: &Schedule) -> CommLint {
    let mut messages = Messages::default();
    lower_each(sched, 1, |program| messages.push(sched, &program));
    messages.finish()
}

/// The lint as a fold over the programs `lower_each` hands out: the records
/// of the channels still waiting for the worker at their other end, each
/// array in `(channel, key, seq)` order, and the verdicts on the channels both
/// of whose ends have been seen.
#[derive(Default)]
pub(crate) struct Messages {
    sends: Vec<Msg>,
    recvs: Vec<Msg>,
    channels: Vec<(ChannelStats, Vec<Diagnostic>)>,
}

impl Messages {
    /// Record what the next worker's rows send and wait for, and lint every
    /// channel that completes; `sched`, the schedule being lowered, renders
    /// the op locations.
    pub(crate) fn push(&mut self, sched: &Schedule, program: &Program) {
        let w = program.worker;
        // All sends of channel (w, dst) and all recvs of channel (src, w)
        // come from this worker's rows, in this order.
        let mut send_seq = vec![0u32; program.d as usize];
        let mut recv_seq = vec![0u32; program.d as usize];
        for row in &program.rows {
            for (end, sending) in [(row.send, true), (row.recv, false)] {
                let Some((peer, tensor)) = end.filter(|&(peer, _)| peer != w) else {
                    continue;
                };
                let (list, seq, src, dst) = match sending {
                    true => (&mut self.sends, &mut send_seq[peer as usize], w, peer),
                    false => (&mut self.recvs, &mut recv_seq[peer as usize], peer, w),
                };
                for cov in row.covered() {
                    for half in halves_in(half_mask(row.op.chunk)) {
                        list.push(Msg {
                            channel: (src as u64) << 32 | dst as u64,
                            key: pack(program.d, tensor, cov.micro, half),
                            seq: *seq,
                            op_index: row.op_ix as u32,
                        });
                        *seq += 1;
                    }
                }
            }
        }

        // The records kept from earlier workers are in order already: the
        // stable sort merges this worker's into that run.
        let (mut sends, mut recvs) = (
            std::mem::take(&mut self.sends),
            std::mem::take(&mut self.recvs),
        );
        sends.sort();
        recvs.sort();
        // `lower_each` hands the programs over in worker order: a channel
        // whose other end is a worker still to come keeps its records, every
        // other channel is complete.
        let (mut sends, mut recvs) = (&sends[..], &recvs[..]);
        while let Some(channel) = [sends.first(), recvs.first()]
            .into_iter()
            .flatten()
            .map(|m| m.channel)
            .min()
        {
            let s = take_while(&mut sends, |m| m.channel == channel);
            let r = take_while(&mut recvs, |m| m.channel == channel);
            let (src, dst) = ((channel >> 32) as u32, channel as u32);
            if src.max(dst) > w {
                self.sends.extend_from_slice(s);
                self.recvs.extend_from_slice(r);
            } else {
                self.channels.push(lint_channel(sched, (src, dst), s, r));
            }
        }
    }

    /// The verdict, once every worker's program has been pushed.
    pub(crate) fn finish(mut self) -> CommLint {
        self.channels
            .sort_by_key(|(stats, _)| (stats.src, stats.dst));
        let (channels, diagnostics): (Vec<_>, Vec<_>) = self.channels.into_iter().unzip();
        CommLint {
            diagnostics: diagnostics.into_iter().flatten().collect(),
            channels,
        }
    }
}

/// Split the longest prefix satisfying `pred` off `rest`.
fn take_while<'a>(rest: &mut &'a [Msg], pred: impl Fn(&Msg) -> bool) -> &'a [Msg] {
    let n = rest.iter().position(|m| !pred(m)).unwrap_or(rest.len());
    let (head, tail) = rest.split_at(n);
    *rest = tail;
    head
}

/// The records of `rest` whose key, shifted right by `shift`, is `key`;
/// `rest` is sorted and asked for ascending keys, so it is consumed up to
/// and including them.
fn run_of<'a>(rest: &mut &'a [Msg], key: Key, shift: u32) -> &'a [Msg] {
    take_while(rest, |m| m.key >> shift < key);
    take_while(rest, |m| m.key >> shift == key)
}

/// Lint one channel from all of its sends `s` and recvs `r`, each sorted by
/// `(key, seq)`.
fn lint_channel(
    sched: &Schedule,
    (src, dst): (u32, u32),
    s: &[Msg],
    r: &[Msg],
) -> (ChannelStats, Vec<Diagnostic>) {
    let fmt_key = |k| fmt_key(sched.d, k);
    let mut diagnostics = Vec::new();
    let locs = |worker: u32, events: &[Msg]| {
        let mut out: Vec<OpLoc> = events
            .iter()
            .map(|e| OpLoc::of(sched, worker as usize, e.op_index as usize))
            .collect();
        out.dedup();
        out
    };

    // Bijection, recv side — and, over the matched pairs, the parking
    // bound: the k-th recv matching the p-th send parks at most p - k
    // messages (a duplicated send counts at its last position).
    let mut max_parked = 0usize;
    let mut matched = 0usize;
    let mut rest = s;
    for rs in r.chunk_by(|a, b| a.key == b.key) {
        let key = rs[0].key;
        if rs.len() > 1 {
            diagnostics.push(Diagnostic {
                code: "duplicate_recv",
                severity: Severity::Error,
                message: format!(
                    "P{dst} receives {} from P{src} {} times",
                    fmt_key(key),
                    rs.len()
                ),
                locations: locs(dst, rs),
            });
        }
        match run_of(&mut rest, key, 0).last() {
            Some(send) => {
                for e in rs {
                    max_parked = max_parked.max(send.seq.saturating_sub(e.seq) as usize);
                }
                matched += rs.len();
            }
            None => diagnostics.push(Diagnostic {
                code: "unmatched_recv",
                severity: Severity::Error,
                message: format!(
                    "P{dst} expects {} from P{src}, but P{src} never sends it on this channel",
                    fmt_key(key),
                ),
                locations: locs(dst, rs),
            }),
        }
    }

    // Bijection, send side.
    let mut rest = r;
    for ss in s.chunk_by(|a, b| a.key == b.key) {
        let key = ss[0].key;
        if ss.len() > 1 {
            diagnostics.push(Diagnostic {
                code: "duplicate_send",
                severity: Severity::Error,
                message: format!("P{src} sends {} to P{dst} {} times", fmt_key(key), ss.len()),
                locations: locs(src, ss),
            });
        }
        if run_of(&mut rest, key, 0).is_empty() {
            diagnostics.push(Diagnostic {
                code: "unconsumed_send",
                severity: Severity::Warning,
                message: format!(
                    "P{src} sends {} to P{dst}, but no op on P{dst} receives it",
                    fmt_key(key),
                ),
                locations: locs(src, ss),
            });
        }
    }

    // Ordering under the coarse runtime key (no half index): halves of
    // one micro produced by *different* ops must be consumed in send
    // order, or the inbox hands the consumer the wrong half's payload.
    let mut rest = r;
    for ss in s.chunk_by(|a, b| a.key >> 1 == b.key >> 1) {
        let coarse = ss[0].key >> 1;
        let rs = run_of(&mut rest, coarse, 1);
        // Same producer op ⇒ one runtime message; nothing to misorder.
        if rs.is_empty() || ss.iter().all(|e| e.op_index == ss[0].op_index) {
            continue;
        }
        let in_channel_order = |events: &[Msg]| {
            let mut v = events.to_vec();
            v.sort_unstable_by_key(|e| e.seq);
            v
        };
        let (ss, rs) = (in_channel_order(ss), in_channel_order(rs));
        let send_halves: Vec<u8> = ss.iter().map(Msg::half).collect();
        let recv_halves: Vec<u8> = rs.iter().map(Msg::half).collect();
        if send_halves != recv_halves {
            let mut locations = locs(src, &ss);
            locations.extend(locs(dst, &rs));
            diagnostics.push(Diagnostic {
                code: "misordered_channel",
                severity: Severity::Error,
                message: format!(
                    "halves of {} travel P{src}->P{dst} in send order {send_halves:?} but are \
                 consumed in order {recv_halves:?}; the runtime MsgKey does not carry \
                 the half index, so the inbox would deliver the wrong payload",
                    fmt_key(coarse << 1),
                ),
                locations,
            });
        }
    }

    let stats = ChannelStats {
        src,
        dst,
        messages: matched,
        max_parked,
    };
    (stats, diagnostics)
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
