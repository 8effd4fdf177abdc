#![warn(missing_docs)]

//! # chimera-perf
//!
//! Performance modelling and configuration planning for pipeline-parallel
//! training (§3.4, §4.2 of the paper):
//!
//! * [`device`] — P100/V100 profiles with saturating batch-efficiency curves;
//! * [`model`] — the Table-4 model zoo (Bert-48, GPT-2) with per-stage
//!   parameter/FLOP/activation accounting;
//! * [`costs`] — builds the simulator cost model for a concrete
//!   `(model, cluster, D, W, B)` configuration;
//! * [`eq1`] — the paper's Equation 1 performance model with critical-path
//!   extraction and gradient-sync overlap analysis;
//! * [`planner`] — the one (W, D, B) search: Chimera's pick ranked by
//!   Eq. 1, a baseline's best ranked by a bound on its simulated span;
//! * [`structure`] — what a candidate's schedule shape says for itself
//!   (the schedule with its sync ops, its verdict, its critical path),
//!   generated and analysed once per `(scheme, D, N)` in a table its owner
//!   keeps.

pub mod costs;
pub mod device;
pub mod eq1;
pub mod model;
pub mod planner;
pub mod structure;

pub use costs::{ClusterSpec, TrainConfig};
pub use device::DeviceProfile;
pub use eq1::{predict, PerfPrediction};
pub use model::ModelSpec;
pub use planner::{
    best, evaluate, plan_chimera, plan_until, sweep, Candidate, PlanScheme, SearchError,
};
pub use structure::{StructureKey, StructureTable, Unclean};
