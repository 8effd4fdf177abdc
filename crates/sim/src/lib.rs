#![warn(missing_docs)]

//! # chimera-sim
//!
//! Discrete-event cluster simulator for pipeline-parallel training schedules.
//!
//! The paper evaluates on up to 2,048 GPU nodes of Piz Daint; this crate
//! replaces that testbed with a dependency-driven simulation of the same
//! per-worker op orders under:
//!
//! * an α-β point-to-point network with intra/inter-node link classes
//!   ([`network`]),
//! * the Rabenseifner / ring / flat-tree collective cost models of §3.4
//!   ([`collective`]),
//! * per-stage compute costs and byte footprints ([`cost`]; [`memory`] holds
//!   the weight term of the coarse Table-2 bound),
//! * an admissible lower bound on the simulated makespan, priced from op
//!   counts without executing ([`bound`]),
//! * the runtime's injected faults (worker crashes, mirrored network chaos)
//!   with checkpoint-restart recovery accounting ([`fault`]).
//!
//! Timing, bubbles and communication overlap (eager non-blocking allreduce,
//! §3.2) emerge from executing the schedule, exactly as they do on the real
//! machine. What is resident when is not a question of time: `chimera-verify`
//! prices the schedule's lowered rows under this crate's byte footprints
//! (`memory_v2`).

pub mod bound;
pub mod collective;
pub mod cost;
pub mod engine;
pub mod fault;
pub mod memory;
pub mod network;
pub mod scenario;
pub mod trace;

pub use bound::SpanBound;
pub use collective::{allreduce_time, AllReduceAlgo};
pub use cost::{SimCostModel, StageCosts};
pub use engine::{simulate, simulate_span, Breakdown, SimReport, WorkerBreakdown};
pub use fault::{simulate_faulty, CrashRecord, FaultPlan, RecoveryAccounting, RecoveryModel};
pub use network::{LinkParams, NetworkModel, Topology};
pub use scenario::NetScenario;
pub use trace::timeline_events;
