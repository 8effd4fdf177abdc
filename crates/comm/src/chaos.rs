//! Seeded network-chaos plans: per-frame link faults for both backends.
//!
//! A [`NetChaos`] plan degrades a whole run the way a real cluster does,
//! beneath the session layer, where the transport heals it (a message lost
//! *for good* is a fault above the session, and the runtime's worker injects
//! it): a flaky link dropping a few percent of frames, a partition window
//! during which nothing gets through, frames duplicated or reordered in
//! flight, a uniformly slow link, and a
//! one-shot hard socket break. Every decision is a pure function of
//! `(seed, link, event index)` — SplitMix64-hashed — so a chaotic run is
//! exactly reproducible from its seed, which is what lets CI assert
//! bit-identical results *through* the chaos.
//!
//! The plan is interpreted differently by the two backends, matching what
//! each medium can express:
//!
//! * **TCP** applies verdicts beneath the session layer: a dropped frame
//!   is really not written, a break really shuts the socket. Retransmit,
//!   dedup, and reconnect (see [`crate::tcp`]) then recover — chaos
//!   exercises the self-healing machinery, not the training code.
//! * **Local** channels cannot lose messages, so `drop` and `break`
//!   degrade to *deferred delivery* (the parcel is held back and delivered
//!   after the next send on the link), while duplicate/reorder/delay apply
//!   natively against the receive-side dedup.
//!
//! `chimera-sim` mirrors the same parameters onto its analytic fault layer
//! (`FaultPlan::net_chaos`), so a measured chaotic run can be compared
//! against its simulated counterpart.

use std::time::Duration;

use crate::transport::Rank;

/// A seeded per-link chaos plan. All probabilities are per-frame.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetChaos {
    /// Seed for every per-frame decision.
    pub seed: u64,
    /// Flaky link: probability a frame is dropped (TCP) / deferred (local).
    pub flaky: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame is held back and delivered after its successor.
    pub reorder: f64,
    /// Slow link: fixed extra latency applied to every frame.
    pub slow: Option<Duration>,
    /// Partition window in link-frame indices: frames with index in
    /// `[start, start + len)` are dropped/deferred.
    pub partition: Option<(u64, u64)>,
    /// One-shot hard break: the link's socket is shut at this frame index
    /// (TCP only; local treats it as a deferral).
    pub break_at: Option<u64>,
}

impl NetChaos {
    /// An empty plan with a seed (builder root).
    pub fn new(seed: u64) -> Self {
        NetChaos {
            seed,
            ..NetChaos::default()
        }
    }

    /// Drop (TCP) / defer (local) each frame with probability `p`.
    #[must_use]
    pub fn with_flaky(mut self, p: f64) -> Self {
        self.flaky = p;
        self
    }

    /// Deliver each frame twice with probability `p`.
    #[must_use]
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Hold each frame behind its successor with probability `p`.
    #[must_use]
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Add `delay` to every frame on the link.
    #[must_use]
    pub fn with_slow(mut self, delay: Duration) -> Self {
        self.slow = Some(delay);
        self
    }

    /// Drop/defer every frame whose link-frame index falls in
    /// `[start, start + len)`.
    #[must_use]
    pub fn with_partition(mut self, start: u64, len: u64) -> Self {
        self.partition = Some((start, len));
        self
    }

    /// Hard-break the link's socket once, at frame index `at`.
    #[must_use]
    pub fn with_break_at(mut self, at: u64) -> Self {
        self.break_at = Some(at);
        self
    }

    /// True when no fault can ever fire.
    pub fn is_empty(&self) -> bool {
        self.flaky == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.slow.is_none()
            && self.partition.is_none()
            && self.break_at.is_none()
    }

    /// Decide the fate of the next frame on the link to `to`, advancing
    /// `link`'s event counter. Deterministic in `(seed, to, event index)`.
    pub fn next(&self, to: Rank, link: &mut LinkChaos) -> Verdict {
        let idx = link.events;
        link.events += 1;
        let mut v = Verdict {
            delay: self.slow,
            ..Verdict::default()
        };
        if self.break_at == Some(idx) {
            v.break_link = true;
        }
        if let Some((start, len)) = self.partition {
            if idx >= start && idx < start + len {
                v.drop = true;
                return v;
            }
        }
        if self.flaky > 0.0 && unit(self.seed, to, idx, 0x1) < self.flaky {
            v.drop = true;
            return v;
        }
        if self.duplicate > 0.0 && unit(self.seed, to, idx, 0x2) < self.duplicate {
            v.duplicate = true;
        }
        if self.reorder > 0.0 && unit(self.seed, to, idx, 0x3) < self.reorder {
            v.reorder = true;
        }
        v
    }
}

/// Per-link chaos state: a frame counter (the event index).
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkChaos {
    /// Frames decided on this link so far.
    pub events: u64,
}

/// What happens to one frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Do not deliver now (TCP: real loss, recovered by retransmit;
    /// local: deferred behind the next frame).
    pub drop: bool,
    /// Deliver twice (receive-side dedup must absorb the copy).
    pub duplicate: bool,
    /// Deliver after the next frame on the link.
    pub reorder: bool,
    /// Extra latency before delivery.
    pub delay: Option<Duration>,
    /// Shut the link's socket (forces a reconnect + session resume).
    pub break_link: bool,
}

/// SplitMix64 mix of `(seed, link, event, salt)` to a unit float.
fn unit(seed: u64, to: Rank, idx: u64, salt: u64) -> f64 {
    let mut z = seed
        .wrapping_add(u64::from(to).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(idx.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(salt.wrapping_mul(0x94d0_49bb_1331_11eb));
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let plan = NetChaos::new(7);
        assert!(plan.is_empty());
        let mut link = LinkChaos::default();
        for _ in 0..100 {
            assert_eq!(plan.next(1, &mut link), Verdict::default());
        }
        assert_eq!(link.events, 100);
    }

    #[test]
    fn verdicts_are_deterministic_in_the_seed() {
        let plan = NetChaos::new(42)
            .with_flaky(0.2)
            .with_duplicate(0.2)
            .with_reorder(0.2);
        let run = |p: &NetChaos| {
            let mut link = LinkChaos::default();
            (0..256).map(|_| p.next(3, &mut link)).collect::<Vec<_>>()
        };
        assert_eq!(run(&plan), run(&plan.clone()));
        let other = NetChaos::new(43)
            .with_flaky(0.2)
            .with_duplicate(0.2)
            .with_reorder(0.2);
        assert_ne!(run(&plan), run(&other), "different seeds diverge");
    }

    #[test]
    fn flaky_rate_tracks_the_probability() {
        let plan = NetChaos::new(1).with_flaky(0.25);
        let mut link = LinkChaos::default();
        let drops = (0..4096).filter(|_| plan.next(0, &mut link).drop).count();
        let rate = drops as f64 / 4096.0;
        assert!((rate - 0.25).abs() < 0.05, "drop rate {rate}");
    }

    #[test]
    fn partition_window_drops_exactly_its_frames() {
        let plan = NetChaos::new(9).with_partition(10, 5);
        let mut link = LinkChaos::default();
        for i in 0..30u64 {
            let v = plan.next(2, &mut link);
            assert_eq!(v.drop, (10..15).contains(&i), "frame {i}");
        }
    }

    #[test]
    fn break_fires_once_at_its_index() {
        let plan = NetChaos::new(5).with_break_at(3);
        let mut link = LinkChaos::default();
        let breaks: Vec<u64> = (0..10u64)
            .filter(|_| plan.next(0, &mut link).break_link)
            .collect();
        assert_eq!(breaks.len(), 1);
    }

    #[test]
    fn links_get_independent_streams() {
        let plan = NetChaos::new(11).with_flaky(0.5);
        let mut a = LinkChaos::default();
        let mut b = LinkChaos::default();
        let va: Vec<bool> = (0..64).map(|_| plan.next(0, &mut a).drop).collect();
        let vb: Vec<bool> = (0..64).map(|_| plan.next(1, &mut b).drop).collect();
        assert_ne!(va, vb);
    }
}
