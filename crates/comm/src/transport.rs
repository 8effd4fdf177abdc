//! The transport abstraction: keyed, deadline-aware point-to-point
//! messaging between ranks.

use std::sync::Arc;
use std::time::Duration;

use chimera_tensor::Tensor;

/// Global endpoint id within one fabric: `0..world`.
///
/// The training runtime lays ranks out group-major: rank
/// `group · D + local_worker` is worker `local_worker` of data-parallel
/// group `group`.
pub type Rank = u32;

/// Addresses one message. Receivers wait for a *specific* key, so delivery
/// order on the wire never matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKey {
    /// Forward boundary activation produced by `stage` of `replica` for
    /// micro-batch `micro`.
    Act {
        /// Producing pipeline replica.
        replica: u32,
        /// Producing stage.
        stage: u32,
        /// Global micro-batch id.
        micro: u64,
    },
    /// Backward boundary gradient produced by `stage` of `replica` for
    /// micro-batch `micro`.
    Grad {
        /// Producing pipeline replica.
        replica: u32,
        /// Producing stage.
        stage: u32,
        /// Global micro-batch id.
        micro: u64,
    },
    /// Collective traffic: contribution to (or result of) round `round` of
    /// the collective identified by `tag`, sent by rank `from`.
    Coll {
        /// Which collective group (the runtime uses the stage id).
        tag: u32,
        /// Round number within the group (per-member call order).
        round: u64,
        /// Sending rank.
        from: Rank,
    },
    /// Control-plane traffic (rendezvous, result gathering).
    Ctrl {
        /// Application-defined tag.
        tag: u32,
        /// Sending rank.
        from: Rank,
    },
}

impl MsgKey {
    /// Short human-readable form for error messages, e.g. `act m3@s1/r0`.
    pub fn describe(&self) -> String {
        match *self {
            MsgKey::Act {
                replica,
                stage,
                micro,
            } => format!("act m{micro}@s{stage}/r{replica}"),
            MsgKey::Grad {
                replica,
                stage,
                micro,
            } => format!("grad m{micro}@s{stage}/r{replica}"),
            MsgKey::Coll { tag, round, from } => {
                format!("coll t{tag} round {round} from w{from}")
            }
            MsgKey::Ctrl { tag, from } => format!("ctrl t{tag} from w{from}"),
        }
    }
}

/// What a message carries. The local backend moves these values without
/// copying; the TCP backend encodes them with the framing in [`crate::wire`].
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A boundary tensor (activation or gradient).
    Tensor(Tensor),
    /// A keyed-allreduce contribution: `(key, vector)` pairs.
    Keyed(Vec<(u64, Vec<f32>)>),
    /// A flat `f32` vector (reduced result, parameter shard).
    Flat(Vec<f32>),
    /// Per-micro losses: `(global_micro, loss)` pairs.
    Losses(Vec<(u64, f32)>),
    /// Raw bytes (control plane).
    Bytes(Vec<u8>),
}

impl Payload {
    /// Approximate wire size in bytes (exact for the TCP framing's body,
    /// used by the local backend's byte counters).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Payload::Tensor(t) => 8 + t.len() as u64 * 4,
            Payload::Keyed(pairs) => {
                8 + pairs
                    .iter()
                    .map(|(_, v)| 12 + v.len() as u64 * 4)
                    .sum::<u64>()
            }
            Payload::Flat(v) => 8 + v.len() as u64 * 4,
            Payload::Losses(l) => 8 + l.len() as u64 * 12,
            Payload::Bytes(b) => 8 + b.len() as u64,
        }
    }

    /// Unwrap a [`Payload::Tensor`]; panics on any other variant (a wire
    /// protocol violation, not a recoverable condition).
    pub fn into_tensor(self) -> Tensor {
        match self {
            Payload::Tensor(t) => t,
            other => panic!("expected tensor payload, got {other:?}"),
        }
    }

    /// Unwrap a [`Payload::Flat`]; panics on any other variant.
    pub fn into_flat(self) -> Vec<f32> {
        match self {
            Payload::Flat(v) => v,
            other => panic!("expected flat payload, got {other:?}"),
        }
    }

    /// Unwrap a [`Payload::Keyed`]; panics on any other variant.
    pub fn into_keyed(self) -> Vec<(u64, Vec<f32>)> {
        match self {
            Payload::Keyed(v) => v,
            other => panic!("expected keyed payload, got {other:?}"),
        }
    }

    /// Unwrap a [`Payload::Losses`]; panics on any other variant.
    pub fn into_losses(self) -> Vec<(u64, f32)> {
        match self {
            Payload::Losses(v) => v,
            other => panic!("expected losses payload, got {other:?}"),
        }
    }
}

/// Why a transport operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A deadlined receive expired with no matching message.
    Timeout {
        /// The key that never arrived (described).
        key: String,
        /// How long the receiver waited.
        waited: Duration,
    },
    /// The peer is unreachable (channel closed, connection refused after
    /// the retry budget, write failed).
    PeerGone {
        /// The unreachable rank.
        to: Rank,
    },
    /// The rendezvous / rank-assignment phase failed.
    Rendezvous(String),
    /// A malformed frame arrived on the wire.
    Protocol(String),
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { key, waited } => {
                write!(f, "receive of {key} timed out after {waited:?}")
            }
            CommError::PeerGone { to } => write!(f, "peer rank {to} is gone"),
            CommError::Rendezvous(msg) => write!(f, "rendezvous failed: {msg}"),
            CommError::Protocol(msg) => write!(f, "wire protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for CommError {}

/// One endpoint of an interconnect fabric.
///
/// Implementations must be usable from the single worker thread that owns
/// the endpoint plus any helper threads the backend itself spawns; all
/// methods take `&self`.
pub trait Transport: Send + Sync {
    /// This endpoint's rank.
    fn rank(&self) -> Rank;

    /// Number of endpoints in the fabric.
    fn world(&self) -> u32;

    /// Send `payload` to `to` under `key`. Never blocks on the receiver
    /// (backends buffer); fails only when the peer is unreachable.
    fn send(&self, to: Rank, key: MsgKey, payload: Payload) -> Result<(), CommError>;

    /// Wait until a message with `key` arrives, up to `timeout`. Messages
    /// with other keys received while waiting are buffered for their own
    /// future receives.
    fn recv_deadline(&self, key: MsgKey, timeout: Duration) -> Result<Payload, CommError>;

    /// Total payload bytes sent by this endpoint.
    fn bytes_sent(&self) -> u64;

    /// Total payload bytes received by this endpoint.
    fn bytes_received(&self) -> u64;
}

/// A keyed-ordered allreduce participant, the gradient-synchronization
/// contract the training runtime programs against. Implemented by the
/// shared-memory `chimera_collectives::KeyedMember` and by the
/// transport-backed distributed reduction.
pub trait KeyedReduce: Send {
    /// File one gradient under `key` in this member's current round — the
    /// one its next [`Self::deposit`] closes. Keys must increase from call
    /// to call within a round. A member that folds gradients as they arrive
    /// puts exactly one buffer of `grad`'s pool class back into the caller's
    /// thread-local pool at once, so a caller that draws one buffer per
    /// gradient from its pool never runs it dry; one that holds them until
    /// the launch ships them with it and puts nothing back.
    fn contribute(&self, key: u64, grad: Vec<f32>);

    /// Non-blocking launch: add `(key, vector)` pairs to this member's
    /// current round and close its part of it.
    fn deposit(&self, contribution: Vec<(u64, Vec<f32>)>);

    /// Deadline-aware wait for this member's next un-fetched round; `None`
    /// on expiry. A wait that expires does not consume the round: the next
    /// call waits for the same one.
    fn fetch_deadline(&self, timeout: Duration) -> Option<Reduced>;
}

/// One round's reduced vector: a read-only handle (it derefs to `[f32]`)
/// that every member of the group may hold on the same buffer, so a fetch
/// copies nothing. What happens to the buffer when the last handle drops is
/// the backend's business — the shared-memory group recycles it.
#[derive(Clone)]
pub struct Reduced(Arc<dyn AsRef<[f32]> + Send + Sync>);

impl Reduced {
    /// Share `buf` as a round's result.
    pub fn new(buf: impl AsRef<[f32]> + Send + Sync + 'static) -> Self {
        Reduced(Arc::new(buf))
    }
}

impl std::ops::Deref for Reduced {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        (*self.0).as_ref()
    }
}

impl std::fmt::Debug for Reduced {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Poll with bounded exponential backoff until `f` produces a value or the
/// deadline passes. The stub-friendly waiting primitive every deadline in
/// this crate uses (no timed condition variables required).
pub(crate) fn poll_deadline<T>(timeout: Duration, mut f: impl FnMut() -> Option<T>) -> Option<T> {
    let deadline = std::time::Instant::now() + timeout;
    let mut backoff_us = 10u64;
    loop {
        if let Some(v) = f() {
            return Some(v);
        }
        if std::time::Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_micros(backoff_us));
        backoff_us = (backoff_us * 2).min(500);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_descriptions_are_compact() {
        let k = MsgKey::Act {
            replica: 0,
            stage: 1,
            micro: 3,
        };
        assert_eq!(k.describe(), "act m3@s1/r0");
        let g = MsgKey::Grad {
            replica: 1,
            stage: 2,
            micro: 9,
        };
        assert_eq!(g.describe(), "grad m9@s2/r1");
    }

    #[test]
    fn wire_bytes_counts_payload() {
        assert_eq!(Payload::Flat(vec![0.0; 4]).wire_bytes(), 8 + 16);
        let t = Tensor::zeros(2, 3);
        assert_eq!(Payload::Tensor(t).wire_bytes(), 8 + 24);
    }

    #[test]
    fn poll_deadline_times_out() {
        let start = std::time::Instant::now();
        let out: Option<()> = poll_deadline(Duration::from_millis(20), || None);
        assert!(out.is_none());
        assert!(start.elapsed() >= Duration::from_millis(20));
    }
}
