#![warn(missing_docs)]
// `clippy.toml` keeps libm off the training path; tests use it as the oracle.
#![cfg_attr(test, allow(clippy::disallowed_methods))]

//! # chimera-nn
//!
//! A from-scratch transformer implementation with *explicit* forward and
//! backward passes — the model substrate the pipeline runtime trains.
//!
//! Key properties for reproducing the paper's claims:
//!
//! * **Partition-independent initialization**: every layer's parameters are
//!   derived from `(seed, layer_index)`, so a model split into any number of
//!   pipeline stages starts bit-identical ([`stage::Stage::build`]).
//! * **Exact gradients**: every layer is gradient-checked against central
//!   differences.
//! * **Deterministic accumulation**: each micro-batch's weight gradient is
//!   one chain per weight, summed into the accumulator in micro-batch order,
//!   so synchronous pipeline schedules can be compared bit-for-bit against
//!   the sequential reference ([`reference::ReferenceTrainer`]), which runs
//!   its micro-batches stacked ([`micros`]).
//! * **Activation recomputation**: stashes can be dropped to the stage
//!   boundary and rebuilt ([`stage::MicroStash::drop_to_boundary`]),
//!   matching the "R" configurations of §4.

pub mod attention;
pub mod block;
pub mod checkpoint;
pub mod data;
pub mod embedding;
pub mod head;
pub mod linear;
pub mod micros;
pub mod optim;
pub mod reference;
pub mod stage;

pub use attention::Attention;
pub use block::{LayerNorm, TransformerBlock};
pub use checkpoint::CheckpointError;
pub use data::SyntheticData;
pub use embedding::Embedding;
pub use head::OutputHead;
pub use linear::Linear;
pub use micros::Micros;
pub use optim::{LrSchedule, Optimizer, OptimizerKind, StepInFlight};
pub use reference::ReferenceTrainer;
pub use stage::{MicroStash, ModelConfig, Stage, StageOutput};
