//! Differential test of `comm_lint::lint` against an implementation it
//! replaced: per channel, hash maps from message key to the events carrying
//! it. Same diagnostics (code, severity, message, locations, in order) and
//! same `ChannelStats`, on clean schedules of every scheme and on mutants
//! that break the send/recv bijection, the channel order, or both — from
//! `lint` itself and from the reports of `verify_span` and `verify_parts`,
//! the planner's path, where the lint reads the wire table of the one
//! lowering the report is built on.
//!
//! The oracle derives its messages from the ops and the placement; the lint
//! reads them off `chimera_core::program`'s rows, which exist only for ops on
//! their placement worker. A mutant with an op elsewhere is therefore not
//! linted by `verify_span` at all: it is refused under a structural code, and
//! that refusal is what this test asserts for it.

use chimera_core::baselines::{dapple, gems, gpipe, pipedream, pipedream_2bw};
use chimera_core::chimera::{chimera, ChimeraConfig, ScaleMethod};
use chimera_core::op::Chunk;
use chimera_core::program::{lower, structural};
use chimera_core::schedule::Schedule;
use chimera_sim::{AllReduceAlgo, NetworkModel, SimCostModel, StageCosts, Topology};
use chimera_verify::comm_lint::lint;
use chimera_verify::{verify_parts, verify_span, Diagnostic, Severity, VerifyReport};

/// The map-per-channel lint, as it stood before the sort-merge one.
mod oracle {
    use std::collections::HashMap;

    use chimera_core::ids::StageId;
    use chimera_core::op::{Chunk, OpKind};
    use chimera_core::schedule::Schedule;
    use chimera_verify::{ChannelStats, Diagnostic, OpLoc, Severity};

    /// Message direction, mirroring the runtime's `MsgKey::Act` / `MsgKey::Grad`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    enum Dir {
        Act,
        Grad,
    }

    /// Full message identity: direction, replica, *consumer* stage, micro, half.
    /// The runtime's coarse `MsgKey` is this without the half.
    type Key = (Dir, u32, u32, u32, u8);

    #[derive(Debug, Clone, Copy)]
    struct Event {
        key: Key,
        /// Producer (for sends) or consumer (for recvs) op location.
        worker: usize,
        op_index: usize,
        /// Position in the channel's send/recv order.
        seq: usize,
    }

    fn fmt_key(k: Key) -> String {
        let (dir, r, s, m, h) = k;
        let d = match dir {
            Dir::Act => "act",
            Dir::Grad => "grad",
        };
        format!("{d} m{m}.{h}@s{s}/r{r}")
    }

    /// The oracle's verdict on `sched`: `(diagnostics, channels)`.
    pub fn lint(sched: &Schedule) -> (Vec<Diagnostic>, Vec<ChannelStats>) {
        // channel (src, dst) -> ordered send / recv event lists.
        let mut sends: HashMap<(usize, usize), Vec<Event>> = HashMap::new();
        let mut recvs: HashMap<(usize, usize), Vec<Event>> = HashMap::new();

        for (w, ops) in sched.workers.iter().enumerate() {
            for (i, op) in ops.iter().enumerate() {
                let halves: &[u8] = match op.chunk {
                    Chunk::Half(h) => std::slice::from_ref(if h == 0 { &0 } else { &1 }),
                    _ => &[0, 1],
                };
                match op.kind {
                    OpKind::Forward => {
                        // Send activations downstream.
                        if op.stage.0 + 1 < sched.d {
                            let consumer = StageId(op.stage.0 + 1);
                            let dst = sched.placement.worker(op.replica, consumer).idx();
                            if dst != w {
                                for m in op.covered_micros() {
                                    for &h in halves {
                                        push(
                                            &mut sends,
                                            (w, dst),
                                            (Dir::Act, op.replica.0, consumer.0, m.0, h),
                                            w,
                                            i,
                                        );
                                    }
                                }
                            }
                        }
                        // Receive the previous stage's activations.
                        if op.stage.0 > 0 {
                            let src = sched
                                .placement
                                .worker(op.replica, StageId(op.stage.0 - 1))
                                .idx();
                            if src != w {
                                for m in op.covered_micros() {
                                    for &h in halves {
                                        push(
                                            &mut recvs,
                                            (src, w),
                                            (Dir::Act, op.replica.0, op.stage.0, m.0, h),
                                            w,
                                            i,
                                        );
                                    }
                                }
                            }
                        }
                    }
                    OpKind::Backward { .. } => {
                        // Send input gradients upstream.
                        if op.stage.0 > 0 {
                            let consumer = StageId(op.stage.0 - 1);
                            let dst = sched.placement.worker(op.replica, consumer).idx();
                            if dst != w {
                                for m in op.covered_micros() {
                                    for &h in halves {
                                        push(
                                            &mut sends,
                                            (w, dst),
                                            (Dir::Grad, op.replica.0, consumer.0, m.0, h),
                                            w,
                                            i,
                                        );
                                    }
                                }
                            }
                        }
                        // Receive the next stage's output gradient.
                        if op.stage.0 + 1 < sched.d {
                            let src = sched
                                .placement
                                .worker(op.replica, StageId(op.stage.0 + 1))
                                .idx();
                            if src != w {
                                for m in op.covered_micros() {
                                    for &h in halves {
                                        push(
                                            &mut recvs,
                                            (src, w),
                                            (Dir::Grad, op.replica.0, op.stage.0, m.0, h),
                                            w,
                                            i,
                                        );
                                    }
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }

        let mut diagnostics = Vec::new();
        let mut channels = Vec::new();
        let mut keys: Vec<(usize, usize)> = sends.keys().chain(recvs.keys()).copied().collect();
        keys.sort_unstable();
        keys.dedup();

        for ch in keys {
            let empty = Vec::new();
            let s = sends.get(&ch).unwrap_or(&empty);
            let r = recvs.get(&ch).unwrap_or(&empty);
            let mut by_key_send: HashMap<Key, Vec<&Event>> = HashMap::new();
            for e in s {
                by_key_send.entry(e.key).or_default().push(e);
            }
            let mut by_key_recv: HashMap<Key, Vec<&Event>> = HashMap::new();
            for e in r {
                by_key_recv.entry(e.key).or_default().push(e);
            }

            for (key, rs) in sorted(&by_key_recv) {
                if rs.len() > 1 {
                    diagnostics.push(Diagnostic {
                        code: "duplicate_recv",
                        severity: Severity::Error,
                        message: format!(
                            "P{} receives {} from P{} {} times",
                            ch.1,
                            fmt_key(key),
                            ch.0,
                            rs.len()
                        ),
                        locations: locs(sched, rs),
                    });
                }
                if !by_key_send.contains_key(&key) {
                    diagnostics.push(Diagnostic {
                        code: "unmatched_recv",
                        severity: Severity::Error,
                        message: format!(
                            "P{} expects {} from P{}, but P{} never sends it on this channel",
                            ch.1,
                            fmt_key(key),
                            ch.0,
                            ch.0
                        ),
                        locations: locs(sched, rs),
                    });
                }
            }
            for (key, ss) in sorted(&by_key_send) {
                if ss.len() > 1 {
                    diagnostics.push(Diagnostic {
                        code: "duplicate_send",
                        severity: Severity::Error,
                        message: format!(
                            "P{} sends {} to P{} {} times",
                            ch.0,
                            fmt_key(key),
                            ch.1,
                            ss.len()
                        ),
                        locations: locs(sched, ss),
                    });
                }
                if !by_key_recv.contains_key(&key) {
                    diagnostics.push(Diagnostic {
                        code: "unconsumed_send",
                        severity: Severity::Warning,
                        message: format!(
                            "P{} sends {} to P{}, but no op on P{} receives it",
                            ch.0,
                            fmt_key(key),
                            ch.1,
                            ch.1
                        ),
                        locations: locs(sched, ss),
                    });
                }
            }

            // Ordering under the coarse runtime key (no half index): halves of
            // one micro produced by *different* ops must be consumed in send
            // order, or the inbox hands the consumer the wrong half's payload.
            let mut coarse_send: HashMap<(Dir, u32, u32, u32), Vec<&Event>> = HashMap::new();
            for e in s {
                let (d, r_, s_, m, _) = e.key;
                coarse_send.entry((d, r_, s_, m)).or_default().push(e);
            }
            let mut coarse_recv: HashMap<(Dir, u32, u32, u32), Vec<&Event>> = HashMap::new();
            for e in r {
                let (d, r_, s_, m, _) = e.key;
                coarse_recv.entry((d, r_, s_, m)).or_default().push(e);
            }
            for (coarse, ss) in sorted(&coarse_send) {
                let Some(rs) = coarse_recv.get(&coarse) else {
                    continue;
                };
                // Same producer op ⇒ one runtime message; nothing to misorder.
                if ss.len() < 2
                    || ss
                        .iter()
                        .all(|e| e.op_index == ss[0].op_index && e.worker == ss[0].worker)
                {
                    continue;
                }
                let send_halves: Vec<u8> = ss.iter().map(|e| e.key.4).collect();
                let recv_halves: Vec<u8> = rs.iter().map(|e| e.key.4).collect();
                if send_halves != recv_halves {
                    let mut locations = locs(sched, ss);
                    locations.extend(locs(sched, rs));
                    diagnostics.push(Diagnostic {
                        code: "misordered_channel",
                        severity: Severity::Error,
                        message: format!(
                            "halves of {} travel P{}->P{} in send order {send_halves:?} but are \
                             consumed in order {recv_halves:?}; the runtime MsgKey does not carry \
                             the half index, so the inbox would deliver the wrong payload",
                            fmt_key((coarse.0, coarse.1, coarse.2, coarse.3, 0)),
                            ch.0,
                            ch.1
                        ),
                        locations,
                    });
                }
            }

            // Parking bound: match each recv (in consumer order) to its send's
            // channel position; the k-th recv matching the p-th send parks at
            // most p - k messages.
            let send_pos: HashMap<Key, usize> = s.iter().map(|e| (e.key, e.seq)).collect();
            let mut max_parked = 0usize;
            let mut matched = 0usize;
            for e in r {
                if let Some(&p) = send_pos.get(&e.key) {
                    max_parked = max_parked.max(p.saturating_sub(e.seq));
                    matched += 1;
                }
            }
            channels.push(ChannelStats {
                src: ch.0 as u32,
                dst: ch.1 as u32,
                messages: matched,
                max_parked,
            });
        }

        (diagnostics, channels)
    }

    fn push(
        map: &mut HashMap<(usize, usize), Vec<Event>>,
        ch: (usize, usize),
        key: Key,
        worker: usize,
        op_index: usize,
    ) {
        let list = map.entry(ch).or_default();
        let seq = list.len();
        list.push(Event {
            key,
            worker,
            op_index,
            seq,
        });
    }

    fn locs(sched: &Schedule, events: &[&Event]) -> Vec<OpLoc> {
        let mut out: Vec<OpLoc> = events
            .iter()
            .map(|e| OpLoc::of(sched, e.worker, e.op_index))
            .collect();
        out.dedup();
        out
    }

    fn sorted<K: Copy + Ord, V>(map: &HashMap<K, V>) -> Vec<(K, &V)> {
        let mut v: Vec<(K, &V)> = map.iter().map(|(k, val)| (*k, val)).collect();
        v.sort_by_key(|&(k, _)| k);
        v
    }
}

/// Deterministic xorshift64* RNG (the vendored proptest stub is not a real
/// property engine, so randomness is hand-rolled and seeded).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The nine schemes at `(d, n)`, those whose constraints it meets.
fn schedules_for(d: u32, n: u32) -> Vec<Schedule> {
    let chim = |f, scale| chimera(&ChimeraConfig { d, n, f, scale }).unwrap();
    let mut out = vec![
        gpipe(d, n),
        dapple(d, n),
        pipedream(d, n),
        pipedream_2bw(d, n),
        gems(d, n),
        chim(1, ScaleMethod::Direct),
        chim(1, ScaleMethod::BackwardHalving),
        chim(1, ScaleMethod::ForwardDoubling),
    ];
    // f = 2 needs f | D/2.
    if (d / 2).is_multiple_of(2) {
        out.push(chim(2, ScaleMethod::Direct));
    }
    out
}

/// Apply one random defect to `s`; returns what it did. Ops may leave their
/// placement worker: those mutants are lowering's to refuse.
fn mutate(s: &mut Schedule, rng: &mut Rng) -> String {
    loop {
        let w = rng.below(s.workers.len());
        let len = s.workers[w].len();
        if len < 2 {
            continue;
        }
        let i = rng.below(len);
        match rng.below(6) {
            0 => {
                let op = s.workers[w].remove(i);
                return format!("drop {op} from P{w}");
            }
            1 => {
                let op = s.workers[w][i];
                let at = rng.below(len + 1);
                s.workers[w].insert(at, op);
                return format!("duplicate {op} on P{w} at #{at}");
            }
            2 => {
                let j = rng.below(len);
                if i == j {
                    continue;
                }
                s.workers[w].swap(i, j);
                return format!("swap #{i} and #{j} on P{w}");
            }
            3 => {
                let to = rng.below(s.workers.len());
                if to == w {
                    continue;
                }
                let op = s.workers[w].remove(i);
                let at = rng.below(s.workers[to].len() + 1);
                s.workers[to].insert(at, op);
                return format!("move {op} from P{w} to P{to} #{at}");
            }
            4 => {
                // Flip a half index; where the schedule has no halves, halve
                // a full backward instead (its other half is then missing).
                let op = &mut s.workers[w][i];
                if !op.is_backward() {
                    continue;
                }
                op.chunk = match op.chunk {
                    Chunk::Half(h) => Chunk::Half(1 - h),
                    Chunk::Full => Chunk::Half(rng.below(2) as u8),
                    Chunk::Pair => continue,
                };
                return format!("flip half of #{i} on P{w}");
            }
            _ => {
                // Reverse the two halves of one micro's backward, as in
                // `inverted_halves_are_misordered`.
                let first = s.workers[w][i];
                let Chunk::Half(h) = first.chunk else {
                    continue;
                };
                let Some(j) = s.workers[w].iter().position(|o| {
                    o.is_backward()
                        && (o.micro, o.stage, o.replica)
                            == (first.micro, first.stage, first.replica)
                        && o.chunk == Chunk::Half(1 - h)
                }) else {
                    continue;
                };
                s.workers[w].swap(i, j);
                return format!("reverse halves #{i} and #{j} on P{w}");
            }
        }
    }
}

/// A byte model for `verify_parts`; the lint does not read it.
fn cost(d: u32) -> SimCostModel {
    let stage = StageCosts {
        fwd_s: 1e-3,
        bwd_s: 2e-3,
        recompute_s: 1e-3,
        boundary_bytes: 1 << 20,
        act_bytes: 8 << 20,
        param_bytes: 100 << 20,
        grad_opt_bytes: 200 << 20,
    };
    SimCostModel {
        stages: vec![stage; d as usize],
        network: NetworkModel::cray_aries(),
        topology: Topology::one_per_node(d),
        allreduce_participants: 2,
        allreduce_algo: AllReduceAlgo::Rabenseifner,
        allreduce_beta_factor: 1.0,
        launch_overhead_s: 0.0,
        half_chunk_penalty: 1.0,
        comm_compute_interference: 0.0,
        p2p_host_overhead_s: 0.0,
        p2p_host_s_per_byte: 0.0,
    }
}

/// The communication lint's share of a report: its findings, in the order
/// the report sorts findings (errors first, then by code; stably).
fn comm_findings(report: &VerifyReport) -> Vec<Diagnostic> {
    let codes = [
        "duplicate_recv",
        "duplicate_send",
        "misordered_channel",
        "unconsumed_send",
        "unmatched_recv",
    ];
    (report.diagnostics.iter())
        .filter(|d| codes.contains(&d.code))
        .cloned()
        .collect()
}

fn assert_same_verdict(s: &Schedule, ctx: &str) {
    let new = lint(s);
    let (mut diagnostics, channels) = oracle::lint(s);
    assert_eq!(new.diagnostics, diagnostics, "{ctx}: diagnostics differ");
    assert_eq!(new.channels, channels, "{ctx}: channel stats differ");
    diagnostics.sort_by_key(|d| (d.severity != Severity::Error, d.code));
    let (parts, _) = verify_parts(s, 1, &cost(s.d));
    for (path, report) in [("verify_span", verify_span(s, 1)), ("verify_parts", parts)] {
        assert_eq!(
            comm_findings(&report),
            diagnostics,
            "{ctx}: {path}'s comm findings differ"
        );
        assert_eq!(report.channels, channels, "{ctx}: {path}'s channels differ");
    }
}

/// A mutant lowering gives no rows for: not clean, under a structural code,
/// with no channel linted.
fn assert_refused(s: &Schedule, ctx: &str) {
    let report = verify_span(s, 1);
    let structural_code = |code| ["misplaced_op", "id_out_of_range"].contains(&code);
    assert!(
        report.errors().any(|d| structural_code(d.code)),
        "{ctx}: not refused:\n{report}"
    );
    assert_eq!(report.channels, [], "{ctx}: linted all the same");
}

#[test]
fn sort_merge_lint_matches_the_map_oracle() {
    let mut rng = Rng(0x00C0_FFEE_D15E_A5E5);
    let (mut clean, mut defective, mut refused, mut linted) = (0, 0, 0, 0);
    let mut seen = std::collections::BTreeSet::new();
    for d in [2u32, 4, 6, 8] {
        for n in [d, 2 * d, 4 * d] {
            for s in schedules_for(d, n) {
                let name = format!("{} D={d} N={n}", s.scheme);
                assert_same_verdict(&s, &name);
                assert!(lint(&s).diagnostics.is_empty(), "{name} is not clean");
                clean += 1;
                for k in 0..24 {
                    // One to three defects, so findings also overlap.
                    let mut m = s.clone();
                    let what: Vec<String> =
                        (0..1 + k % 3).map(|_| mutate(&mut m, &mut rng)).collect();
                    let ctx = format!("{name} after {what:?}");
                    if structural(&lower(&m, 1).defects) {
                        assert_refused(&m, &ctx);
                        refused += 1;
                        continue;
                    }
                    assert_same_verdict(&m, &ctx);
                    linted += 1;
                    let found = lint(&m).diagnostics;
                    defective += usize::from(!found.is_empty());
                    seen.extend(found.iter().map(|d| d.code));
                }
            }
        }
    }
    assert_eq!(clean, 102);
    println!("{linted} mutants compared to the oracle, {refused} refused by lowering");
    assert_eq!(linted + refused, 24 * clean);
    // Both arms must be taken, and the linted mutants must actually
    // exercise the diagnostics.
    assert!(refused > 0 && linted > 2 * refused);
    assert!(defective > 13 * clean, "only {defective} defective mutants");
    let codes = [
        "duplicate_recv",
        "duplicate_send",
        "misordered_channel",
        "unconsumed_send",
        "unmatched_recv",
    ];
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), codes);
}
