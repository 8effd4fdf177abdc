#![warn(missing_docs)]

//! # chimera-runtime
//!
//! A real pipeline-parallel training runtime: one worker per pipeline rank,
//! a pluggable [`chimera_comm::Transport`] as the interconnect (in-process
//! channels by default, TCP across OS processes via [`dist`]), and
//! keyed-ordered allreduce for gradient synchronization.
//!
//! It executes any `chimera-core` schedule — Chimera's bidirectional
//! schedules as well as the baselines — on actual `chimera-nn` transformer
//! stages, and is the executable proof of the paper's synchronous-equivalence
//! claim: training under a synchronous pipeline schedule produces parameters
//! **bit-identical** to sequential mini-batch SGD (see
//! `tests/sync_equivalence.rs` at the workspace root).

pub mod dist;
pub mod error;
pub mod fault;
pub mod mem;
pub mod runtime;
mod setup;
pub mod worker;

pub use dist::{train_worker_process, train_worker_process_recoverable, DistOutcome, RecoverySpec};
pub use error::{TrainError, WorkerError};
pub use fault::{FaultSpec, KillFault, MsgFault};
pub use mem::{MemReport, ModelFootprint, WorkerMemPlan};
pub use runtime::{train, train_hybrid, TrainResult};
pub use worker::TrainOptions;
