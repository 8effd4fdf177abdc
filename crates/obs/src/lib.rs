//! # chimera-obs — pipeline profiler and live metrics aggregation
//!
//! Observability for Chimera training runs, in three pillars:
//!
//! * **Timeline attribution** ([`timeline`]) — reconstruct per-rank
//!   timelines from a trace event stream and decompose each rank's wall
//!   clock into exclusive categories (compute, comm waits, gradient sync,
//!   fault recovery, bubble). Categories sum to the analysis window by
//!   construction, so the reported bubble ratios are trustworthy.
//! * **Critical path & drift** ([`critical`], [`mod@drift`]) — the longest
//!   dependency chain through the executed spans (the only ops whose
//!   speedup shortens the run), and scale-free predicted-vs-actual drift
//!   against the `chimera-sim` unit-cost model for the same
//!   `(scheme, D, N)`, including α-β comm-model residuals.
//! * **Live aggregation** ([`live`]) — per-rank [`chimera_trace::MetricsRegistry`]
//!   snapshots shipped over the training fabric itself as control
//!   messages to a rank-0 aggregator, exposed as merged JSON and
//!   Prometheus exposition text, optionally over a `std::net` HTTP
//!   endpoint.
//!
//! The [`report`] module combines the offline pillars into one
//! [`ProfileReport`] with a stable JSON schema (`chimera-obs/profile/v1`),
//! surfaced by `chimera-cli profile`.

pub mod critical;
pub mod drift;
pub mod live;
pub mod report;
pub mod timeline;

pub use critical::{critical_path, CriticalOp, CriticalPath};
pub use drift::{
    comm_residuals, drift, drift_with_costs, load_comm_fits, parse_comm_fits, ClassDrift, CommFit,
    CommResiduals, DriftReport,
};
pub use live::{prometheus_text, MetricsAggregator, MetricsPublisher, MetricsServer, METRICS_TAG};
pub use report::{profile, ProfileReport};
pub use timeline::{analyze, Breakdown, Lane, TraceAnalysis};
