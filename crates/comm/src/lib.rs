#![warn(missing_docs)]

//! # chimera-comm
//!
//! The pluggable interconnect of the training runtime: a [`Transport`]
//! trait for **keyed, deadline-aware point-to-point messaging** between
//! pipeline workers, with two backends:
//!
//! * [`local`] — crossbeam channels inside one process, preserving the
//!   original zero-copy fast path (tensors move, they are never
//!   serialized);
//! * [`tcp`] — length-prefixed binary frames over `std::net` sockets, with
//!   a rendezvous protocol for rank assignment, bounded-backoff connect
//!   retry, and wire-byte counters flowing into the `chimera-trace`
//!   metrics registry. This is what lets a Chimera pipeline train across
//!   real OS process boundaries (the role GLOO plays in the paper's
//!   implementation, §4).
//!
//! Messages are addressed by [`MsgKey`] — (direction, replica, stage,
//! micro) for pipeline boundary tensors, (stage, round, sender) for
//! collective traffic — so receivers wait for *the message they need*
//! rather than the next one to arrive, regardless of network reordering.
//! Every blocking receive takes a deadline and fails with
//! [`CommError::Timeout`] instead of hanging on a dead peer.
//!
//! The TCP backend is **self-healing**: frames sent through the trait join
//! per-link sessions (sequence numbers, cumulative acks, a bounded
//! retransmit buffer, receive-side dedup), a heartbeat failure detector
//! tracks per-peer [`Liveness`], and a broken socket is reconnected with
//! the session replayed — a transient link failure is invisible above the
//! [`Transport`] trait. See [`tcp`] for the protocol.
//!
//! Faults live in two layers. **Beneath the session** they are the
//! transport's: a seeded [`NetChaos`] plan degrades whole links — flaky
//! loss healed by retransmit, duplication, reordering, slow links, partition
//! windows, hard socket breaks — deterministically in its seed, on both
//! backends. **Above the session** (kill a worker, lose or stall one
//! boundary message for good) they are the worker's, in `chimera-runtime`;
//! no endpoint knows about them. `chimera-sim`'s `FaultPlan` is the analytic
//! mirror of both.
//!
//! For multi-process tracing, [`clock`] aligns every process's trace clock
//! to rank 0's via a probe/response rendezvous ([`rendezvous_epoch`]), so
//! per-rank trace exports share one time axis.
//!
//! [`listen`] is the accept loop and HTTP codec the control-plane servers share.

pub mod chaos;
pub mod clock;
pub mod listen;
pub mod local;
pub mod modelcheck;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use chaos::{LinkChaos, NetChaos, Verdict};
pub use clock::{rendezvous_epoch, ClockSync, EPOCH_TAG};
pub use listen::{HttpRequest, HttpResponder, Listener};
pub use local::{LocalEndpoint, LocalFabric};
pub use modelcheck::{explore, Exploration, StepOutcome};
pub use tcp::{Liveness, SessionStats, TcpConfig, TcpEndpoint, TcpFabric, TAG_HEARTBEAT};
pub use transport::{CommError, KeyedReduce, MsgKey, Payload, Rank, Reduced, Transport};
pub use wire::{read_raw_frame, write_raw_frame, Frame, MAX_FRAME, SEQ_UNSEQUENCED, WIRE_VERSION};
