//! Cross-process trace-clock alignment.
//!
//! Every process stamps trace events with `chimera_trace::now_ns`, which
//! counts nanoseconds since that *process's own* first clock read — so two
//! workers launched a second apart disagree by a second about when tick 0
//! was, and their exported timelines shear apart when overlaid. This module
//! fixes the skew at the transport layer: each rank runs a few
//! probe/response exchanges with rank 0 ([`rendezvous_epoch`]) and computes
//! the offset that maps its local trace clock onto rank 0's, Cristian-style
//! (the reply carrying rank 0's clock is assumed to sit at the midpoint of
//! the probe's round trip, and the minimum-RTT sample wins because it has
//! the least queueing noise). Exporters then shift every event by the
//! offset before writing, producing per-rank files that share one time
//! axis.

use std::time::Duration;

use crate::transport::{CommError, MsgKey, Payload, Transport};

/// Control-plane tag for epoch-rendezvous traffic. Sits just below the
/// runtime's loss-gather tag (`u32::MAX`) and metrics tag (`u32::MAX - 1`),
/// far above any `(replica << 16) | stage` tag a runnable config produces.
pub const EPOCH_TAG: u32 = u32::MAX - 2;

/// Probe exchanges per rank; the minimum-RTT sample is kept.
const ROUNDS: u32 = 5;

/// The result of one rank's clock rendezvous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockSync {
    /// Add this to a local `now_ns` trace timestamp to land on rank 0's
    /// trace-clock axis. Zero on rank 0 itself.
    pub offset_ns: i64,
    /// Round-trip time of the accepted sample — an upper bound on the
    /// alignment error (the true offset lies within `±rtt_ns / 2`).
    pub rtt_ns: u64,
}

impl ClockSync {
    /// The identity sync (rank 0's view of its own clock).
    pub fn identity() -> ClockSync {
        ClockSync {
            offset_ns: 0,
            rtt_ns: 0,
        }
    }

    /// Map a local trace timestamp onto the shared (rank 0) axis,
    /// saturating at zero rather than wrapping for events that predate the
    /// shared epoch.
    pub fn align(&self, local_ns: u64) -> u64 {
        let shifted = local_ns as i128 + self.offset_ns as i128;
        shifted.clamp(0, u64::MAX as i128) as u64
    }
}

/// Agree on a shared trace epoch across the fabric.
///
/// Every rank of `ep`'s fabric must call this at the same protocol point
/// (it is a collective): rank 0 serves `ROUNDS` probe/response exchanges
/// to every other rank and returns [`ClockSync::identity`]; every other
/// rank measures its offset to rank 0's clock and returns the minimum-RTT
/// estimate. `now` must be the same clock the caller stamps trace events
/// with (pass `chimera_trace::now_ns`); it is injected so tests can model
/// skewed clocks deterministically.
pub fn rendezvous_epoch(
    ep: &dyn Transport,
    now: &dyn Fn() -> u64,
    timeout: Duration,
) -> Result<ClockSync, CommError> {
    let rank = ep.rank();
    if rank == 0 {
        // Serve each peer's probes in rank order. Peers probe
        // independently, so later ranks' probes simply queue in the keyed
        // inbox while an earlier rank is being served.
        for from in 1..ep.world() {
            for _ in 0..ROUNDS {
                ep.recv_deadline(
                    MsgKey::Ctrl {
                        tag: EPOCH_TAG,
                        from,
                    },
                    timeout,
                )?;
                ep.send(
                    from,
                    MsgKey::Ctrl {
                        tag: EPOCH_TAG,
                        from: 0,
                    },
                    Payload::Bytes(now().to_le_bytes().to_vec()),
                )?;
            }
        }
        return Ok(ClockSync::identity());
    }

    let mut best: Option<ClockSync> = None;
    for _ in 0..ROUNDS {
        let sent = now();
        ep.send(
            0,
            MsgKey::Ctrl {
                tag: EPOCH_TAG,
                from: rank,
            },
            Payload::Bytes(Vec::new()),
        )?;
        let reply = ep.recv_deadline(
            MsgKey::Ctrl {
                tag: EPOCH_TAG,
                from: 0,
            },
            timeout,
        )?;
        let received = now();
        let Payload::Bytes(bytes) = reply else {
            return Err(CommError::Protocol(
                "epoch reply must be a bytes payload".into(),
            ));
        };
        let t0 = u64::from_le_bytes(bytes.as_slice().try_into().map_err(|_| {
            CommError::Protocol(format!("epoch reply must be 8 bytes, got {}", bytes.len()))
        })?);
        let rtt_ns = received.saturating_sub(sent);
        // Rank 0 read its clock at (approximately) the midpoint of the
        // round trip: local midpoint = sent + rtt/2.
        let offset_ns = (t0 as i128 - (sent as i128 + rtt_ns as i128 / 2)) as i64;
        if best.is_none_or(|b| rtt_ns < b.rtt_ns) {
            best = Some(ClockSync { offset_ns, rtt_ns });
        }
    }
    Ok(best.expect("ROUNDS >= 1"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalFabric;
    use std::sync::Arc;
    use std::time::Instant;

    /// Two ranks whose "process clocks" started 1.5 ms apart: the
    /// rendezvous must recover the skew to within the measured RTT.
    #[test]
    fn recovers_injected_skew_within_rtt() {
        let mut eps = LocalFabric::new(2);
        let e1 = Arc::new(eps.remove(1));
        let e0 = Arc::new(eps.remove(0));
        let base = Instant::now();
        const SKEW_NS: u64 = 1_500_000;

        let server = std::thread::spawn(move || {
            let clock = move || base.elapsed().as_nanos() as u64 + SKEW_NS;
            rendezvous_epoch(e0.as_ref(), &clock, Duration::from_secs(5)).unwrap()
        });
        let clock = move || base.elapsed().as_nanos() as u64;
        let sync = rendezvous_epoch(e1.as_ref(), &clock, Duration::from_secs(5)).unwrap();
        assert_eq!(server.join().unwrap(), ClockSync::identity());

        // True offset is exactly SKEW_NS; the estimate may be off by up to
        // the accepted sample's round trip.
        let err = (sync.offset_ns - SKEW_NS as i64).unsigned_abs();
        assert!(
            err <= sync.rtt_ns.max(1),
            "offset {} vs true {SKEW_NS}, rtt {}",
            sync.offset_ns,
            sync.rtt_ns
        );
        // Aligned timestamps land on rank 0's axis (within the same bound).
        let local = clock();
        let aligned = sync.align(local);
        assert!(aligned >= local, "alignment must add the positive skew");
    }

    #[test]
    fn align_saturates_instead_of_wrapping() {
        let sync = ClockSync {
            offset_ns: -1_000,
            rtt_ns: 10,
        };
        assert_eq!(sync.align(400), 0);
        assert_eq!(sync.align(1_400), 400);
        let sync_up = ClockSync {
            offset_ns: i64::MAX,
            rtt_ns: 10,
        };
        assert_eq!(sync_up.align(u64::MAX), u64::MAX);
    }

    /// Three ranks: every non-zero rank gets its own estimate and the
    /// collective completes without deadlock.
    #[test]
    fn whole_fabric_rendezvous_completes() {
        let eps = LocalFabric::new(3);
        let base = Instant::now();
        let handles: Vec<_> = eps
            .into_iter()
            .map(|e| {
                std::thread::spawn(move || {
                    let clock = move || base.elapsed().as_nanos() as u64;
                    rendezvous_epoch(&e, &clock, Duration::from_secs(5)).unwrap()
                })
            })
            .collect();
        let syncs: Vec<ClockSync> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(syncs[0], ClockSync::identity());
        // Same machine, same base instant: offsets are near zero, bounded
        // by each sample's RTT.
        for s in &syncs[1..] {
            assert!(s.offset_ns.unsigned_abs() <= s.rtt_ns.max(1));
        }
    }
}
