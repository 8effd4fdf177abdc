#![warn(missing_docs)]

//! # chimera-core
//!
//! Pipeline-parallel schedule generation for deep-learning training,
//! reproducing **"Chimera: Efficiently Training Large-Scale Neural Networks
//! with Bidirectional Pipelines"** (Li & Hoefler, SC'21).
//!
//! The crate provides:
//!
//! * a schedule IR ([`op::Op`], [`schedule::Schedule`]) in which a schedule is
//!   each worker's *op order* — timing emerges from dependency-driven
//!   execution, as in a real pipeline runtime;
//! * the **Chimera** bidirectional schedule generator ([`chimera::chimera`])
//!   with any even depth `D`, `f ≥ 1` pipeline pairs (§3.6), and the §3.5
//!   scaling strategies (direct concatenation / forward doubling / backward
//!   halving);
//! * all baselines evaluated in the paper: GPipe, DAPPLE, GEMS, PipeDream,
//!   and PipeDream-2BW ([`baselines`]);
//! * gradient-synchronization placement (§3.2): post-hoc, eager, and
//!   eager-opt ([`sync`]);
//! * lowering ([`program`]): the one program-order walk of a schedule, into
//!   the row tables the verifier prices and the runtime executes — stash
//!   slots, weight-version slots (Table 2's "weights memory"), boundary
//!   messages — plus the typed defects that keep it from being executed as
//!   written;
//! * an abstract-cost executor ([`unit_time`]) for timing, bubble-ratio and
//!   activation-memory analysis, and the closed-form Table 2/3 formulas
//!   ([`analysis`]).
//!
//! ```
//! use chimera_core::chimera::{chimera, ChimeraConfig};
//! use chimera_core::unit_time::{execute, UnitCosts};
//!
//! let sched = chimera(&ChimeraConfig::new(8, 8)).unwrap();
//! let timeline = execute(&sched, UnitCosts::practical()).unwrap();
//! // Chimera halves the bubbles of GPipe/DAPPLE: D/2-1 per phase.
//! assert!(timeline.bubble_ratio() < 0.4);
//! ```

pub mod analysis;
pub mod baselines;
pub mod chimera;
mod compact;
pub mod dep;
pub mod ids;
pub mod named;
pub mod onefb;
pub mod op;
pub mod placement;
pub mod program;
pub mod render;
pub mod repeat;
pub mod schedule;
pub mod sync;
pub mod unit_time;

pub use crate::chimera::{chimera as chimera_schedule, ChimeraConfig, ScaleMethod};
pub use crate::ids::{MicroId, ReplicaId, StageId, WorkerId};
pub use crate::named::{build_named, NAMED_SCHEMES};
pub use crate::op::{Chunk, Op, OpKind};
pub use crate::placement::Placement;
pub use crate::schedule::{Schedule, Scheme, SyncStrategy};
pub use crate::unit_time::{execute, Timeline, UnitCosts};
