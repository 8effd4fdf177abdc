//! chimera-serve: planning as a service.
//!
//! A long-running multi-tenant front end over the `chimera-perf` planner:
//! clients submit (model, topology, device count, memory budget, scheme
//! filter) queries and get back verified pipeline schedules — every served
//! candidate is rebuilt and re-checked by `chimera-verify`'s static
//! schedule verifier before it leaves the process.
//!
//! The moving parts:
//!
//! * [`query`] — query parsing, validation against [`query::QueryLimits`],
//!   and the canonical cache key (order-insensitive in scheme list, default
//!   values collapse onto the explicit equivalents).
//! * [`cache`] — bounded LRU plan cache with single-flight coalescing:
//!   identical in-flight queries share one search.
//! * [`engine`] — bounded worker pool with admission control (queue full →
//!   typed `shed` error), per-query deadlines, `serve.*` trace counters,
//!   and the engine's `chimera_perf::StructureTable`: what the planner
//!   derives from a schedule's shape alone is analysed once per engine, so
//!   *different* queries share work the plan cache cannot. Answers go to a
//!   [`Responder`] callback; the engine knows no wire format.
//! * [`search`] — the production [`search::Searcher`] running the planner
//!   searches against that table and the verify gate (lookup + price
//!   against the tenant's budget).
//! * [`server`] — two front doors on `chimera_comm::listen`, the framed
//!   protocol ([`server::PlanServer`]) and JSON-over-HTTP
//!   ([`server::HttpServer`]), with one request path behind them.
//! * [`client`] — pipelined framed-protocol client.
//! * [`error`] — the typed client-facing error enum.
//! * [`response`] — the one plan serializer shared with `chimera-cli plan
//!   --json` and the bench crate.

pub mod cache;
pub mod client;
pub mod engine;
pub mod error;
pub mod query;
pub mod response;
pub mod search;
pub mod server;

pub use cache::{Claim, Flight, PlanCache};
pub use client::PlanClient;
pub use engine::{PlanEngine, Responder, ServeConfig};
pub use error::ServeError;
pub use query::{PlanQuery, QueryLimits};
pub use response::{candidate_json, plan_results_json, PlanContext};
pub use search::{load_measured_floor, RealSearcher, Searcher};
pub use server::{HttpServer, PlanServer};
