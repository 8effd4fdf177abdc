//! Injected faults above the session layer — the ones no transport can heal.
//!
//! A [`FaultSpec`] describes deterministic, targeted faults: kill one worker
//! at a given iteration, or lose / stall one specific p2p boundary message
//! for good. All three are interpreted in one place, the worker
//! (iteration start for kills, `send` for message faults), so they behave
//! the same over every fabric and transport, and a faulty run
//! is exactly reproducible — which is what lets the recovery tests assert
//! bit-identical final parameters against the fault-free run. Faults
//! *beneath* the session (loss healed by retransmit, duplication, reorder,
//! partition, break) are the transport's: `chimera_comm::NetChaos`.
//! `chimera_sim`'s `FaultPlan` mirrors both analytically.

use std::time::Duration;

/// Kill one worker thread at the start of one training iteration.
///
/// The targeted worker returns a `Killed` error (standing in for a crashed
/// rank); its peers observe the death through send failures and wait
/// timeouts, and the supervisor restores from the last checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillFault {
    /// Data-parallel group of the victim (`0..W`).
    pub group: u32,
    /// Local worker id within the group (`0..D`).
    pub worker: u32,
    /// Global (0-based) training iteration at whose start the kill fires.
    pub iteration: u32,
}

/// Identify one p2p boundary message by its sender and payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgFault {
    /// Data-parallel group of the *sending* worker.
    pub group: u32,
    /// Local id of the sending worker within its group.
    pub from_worker: u32,
    /// `true` to match the backward (gradient) message, `false` the forward
    /// (activation) message.
    pub grad: bool,
    /// Global micro-batch id of the message.
    pub micro: u64,
}

/// A deterministic fault-injection plan for one training run.
#[derive(Debug, Clone, Default)]
pub struct FaultSpec {
    /// Kill a worker at an iteration boundary. Consumed once: the replay
    /// after recovery does not re-kill.
    pub kill: Option<KillFault>,
    /// Silently drop one p2p message at its sender. The expecting receiver
    /// hits its recv deadline, yielding a descriptive timeout error rather
    /// than a hang.
    pub drop_msg: Option<MsgFault>,
    /// Delay one p2p message at its sender by the given duration.
    pub delay_msg: Option<(MsgFault, Duration)>,
}

impl FaultSpec {
    /// A plan that kills `worker` of `group` at `iteration`.
    pub fn kill_at(group: u32, worker: u32, iteration: u32) -> Self {
        FaultSpec {
            kill: Some(KillFault {
                group,
                worker,
                iteration,
            }),
            ..FaultSpec::default()
        }
    }
}
