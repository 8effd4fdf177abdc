//! The actual planning work behind a query: resolve the model and
//! topology, run the per-scheme `(W, D, B)` searches under the request
//! deadline, and gate every candidate through the static schedule verifier
//! before it can be served.

use std::time::Instant;

use chimera_core::chimera::ScaleMethod;
use chimera_perf::planner::reopen;
use chimera_perf::{plan_until, Candidate, ClusterSpec, PlanScheme, StructureTable};
use chimera_sim::NetScenario;
use chimera_verify::MEMORY_SCHEMA_V2;
use serde_json::Value;

use crate::error::ServeError;
use crate::query::{model_by_name, PlanQuery};
use crate::response::{plan_results_json, PlanContext};

/// Strategy object the engine runs per cache miss. The indirection exists
/// so tests can count/stall searches deterministically; production uses
/// [`RealSearcher`].
pub trait Searcher: Send + Sync {
    /// Answer `q`, observing `deadline` (abort with
    /// [`ServeError::DeadlineExceeded`] once it passes).
    fn search(&self, q: &PlanQuery, deadline: Option<Instant>) -> Result<Value, ServeError>;

    /// [`Searcher::search`] for a caller that plans repeatedly and keeps the
    /// planner's per-shape analyses between queries (the engine does; see
    /// [`StructureTable`]). The answer must not depend on what `structures`
    /// holds. Searchers that do not plan ignore it.
    fn search_with(
        &self,
        q: &PlanQuery,
        deadline: Option<Instant>,
        structures: &StructureTable,
    ) -> Result<Value, ServeError> {
        let _ = structures;
        self.search(q, deadline)
    }
}

/// The production searcher: the full `chimera-perf` planner pipeline.
#[derive(Debug, Default, Clone)]
pub struct RealSearcher {
    /// Measured inter-node (α seconds, β s/byte) software floor applied to
    /// every topology preset — typically the TCP transport's fit from
    /// `results/comm_overhead.json` (see [`load_measured_floor`]).
    pub measured_floor: Option<(f64, f64)>,
}

/// Read the measured TCP α-β fit out of a `comm_overhead.json` results
/// file, for seeding [`RealSearcher::measured_floor`]. Returns `None` when
/// the file or the fit is missing — the presets then stand unadjusted.
pub fn load_measured_floor(path: &str) -> Option<(f64, f64)> {
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).ok()?).ok()?;
    let fits = doc.get("fits")?.as_array()?;
    let tcp = fits
        .iter()
        .find(|f| f.get("link").and_then(Value::as_str) == Some("tcp"))?;
    let alpha_s = tcp.get("alpha_us")?.as_f64()? * 1e-6;
    let beta = tcp.get("beta_s_per_byte")?.as_f64()?;
    Some((alpha_s, beta))
}

/// The planner's name for a canonical scheme id.
fn scheme_of(id: &str) -> PlanScheme {
    let chimera = |f, scale| PlanScheme::Chimera { f, scale };
    match id {
        "chimera" => chimera(1, ScaleMethod::Direct),
        "chimera-f2" => chimera(2, ScaleMethod::Direct),
        "doubling" => chimera(1, ScaleMethod::ForwardDoubling),
        "halving" => chimera(1, ScaleMethod::BackwardHalving),
        "gpipe" => PlanScheme::GPipe,
        "dapple" => PlanScheme::Dapple,
        "gems" => PlanScheme::Gems,
        "pipedream" => PlanScheme::PipeDream,
        "pipedream-2bw" => PlanScheme::PipeDream2Bw,
        other => unreachable!("scheme id {other:?} passed query validation"),
    }
}

/// Build the concrete cluster a query plans against: topology preset, the
/// measured software floor, the congestion factor, then the tenant's memory
/// quota.
pub fn resolve_cluster(
    q: &PlanQuery,
    measured_floor: Option<(f64, f64)>,
) -> Result<ClusterSpec, ServeError> {
    let mut scen = NetScenario::by_name(&q.topology)
        .ok_or_else(|| ServeError::UnknownTopology(q.topology.clone()))?;
    if let Some((alpha_s, beta)) = measured_floor {
        scen = scen.with_measured_floor(alpha_s, beta);
    }
    if q.congestion_pct > 100 {
        scen = scen.with_congestion(f64::from(q.congestion_pct) / 100.0);
    }
    let mut cluster = ClusterSpec::from_scenario(&scen);
    if let Some(budget) = q.mem_budget_bytes {
        cluster = cluster.with_mem_budget(budget);
    }
    Ok(cluster)
}

impl Searcher for RealSearcher {
    /// A one-off search: plans against a fresh table.
    fn search(&self, q: &PlanQuery, deadline: Option<Instant>) -> Result<Value, ServeError> {
        self.search_with(q, deadline, &StructureTable::new())
    }

    fn search_with(
        &self,
        q: &PlanQuery,
        deadline: Option<Instant>,
        structures: &StructureTable,
    ) -> Result<Value, ServeError> {
        let model =
            model_by_name(&q.model).ok_or_else(|| ServeError::UnknownModel(q.model.clone()))?;
        let cluster = resolve_cluster(q, self.measured_floor)?;

        let mut results: Vec<(String, Candidate, Value)> = Vec::new();
        let mut infeasible: Vec<String> = Vec::new();
        for id in q.scheme_list() {
            let scheme = scheme_of(id);
            let (p, b_hat) = (q.devices, q.b_hat);
            match plan_until(structures, scheme, model, cluster, p, b_hat, deadline)? {
                Some(c) => {
                    // Re-verify before serving: the shape's structure — the
                    // schedule the candidate was priced from and its
                    // structural report, looked up; generated and analysed
                    // here if the winner is a recomputation retry nobody
                    // verified yet — joined with the exact liveness memory
                    // check against this tenant's budget. A schedule that
                    // fails here is a planner bug — refuse to serve it rather
                    // than hand a deadlocked or OOM plan to a tenant.
                    let Some(opened) = reopen(structures, &c, model, cluster) else {
                        return Err(ServeError::Internal(format!(
                            "candidate for {id} does not rebuild"
                        )));
                    };
                    let (_, _, mem) = opened.check(cluster.usable_mem()).map_err(|e| {
                        ServeError::Internal(format!(
                            "candidate for {id} failed re-verification: {e}"
                        ))
                    })?;
                    let mem_json = serde_json::json!({
                        "schema": MEMORY_SCHEMA_V2,
                        "exact_peak_bytes": mem.max_exact_peak(),
                        "min_slack_ratio": mem.min_slack_ratio(),
                    });
                    results.push((id.to_string(), c, mem_json));
                }
                None => infeasible.push(id.to_string()),
            }
        }
        let ctx = PlanContext {
            model: &q.model,
            devices: q.devices,
            b_hat: q.b_hat,
            topology: &q.topology,
            congestion_pct: q.congestion_pct,
        };
        Ok(plan_results_json(&ctx, &results, &infeasible))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryLimits;

    fn q(v: Value) -> PlanQuery {
        PlanQuery::parse(&v, &QueryLimits::default()).unwrap()
    }

    #[test]
    fn real_search_returns_verified_plans() {
        let s = RealSearcher::default();
        let out = s
            .search(
                &q(serde_json::json!({
                    "model": "bert48", "devices": 4, "b_hat": 16,
                    "schemes": ["chimera", "gpipe"],
                })),
                None,
            )
            .unwrap();
        let results = out["results"].as_array().unwrap();
        assert!(!results.is_empty());
        for r in results {
            assert_eq!(r["verified"], serde_json::json!(true));
            assert!(r["throughput"].as_f64().unwrap() > 0.0);
        }
        assert!(out["best"].as_str().is_some());
    }

    #[test]
    fn deadline_propagates_to_the_planner() {
        let s = RealSearcher::default();
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let err = s
            .search(
                &q(serde_json::json!({
                    "model": "bert48", "devices": 4, "b_hat": 16,
                    "schemes": ["gpipe"],
                })),
                Some(past),
            )
            .unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded);
    }

    #[test]
    fn congested_topology_changes_the_cluster() {
        let quiet = resolve_cluster(
            &q(serde_json::json!({"model": "bert48", "devices": 8, "topology": "fat-tree"})),
            None,
        )
        .unwrap();
        let busy = resolve_cluster(
            &q(serde_json::json!({
                "model": "bert48", "devices": 8, "topology": "fat-tree",
                "congestion_pct": 300,
            })),
            None,
        )
        .unwrap();
        assert!(busy.network.inter.beta_s_per_byte > quiet.network.inter.beta_s_per_byte);

        // The measured floor only makes links slower, never faster.
        let floored = resolve_cluster(
            &q(serde_json::json!({"model": "bert48", "devices": 8, "topology": "fat-tree"})),
            Some((64e-6, 1.75e-9)),
        )
        .unwrap();
        assert!(floored.network.inter.alpha_s >= quiet.network.inter.alpha_s);
    }

    #[test]
    fn measured_floor_loads_from_results_file() {
        let dir = std::env::temp_dir().join(format!("serve-floor-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("comm_overhead.json");
        std::fs::write(
            &path,
            r#"{"fits": [{"link": "local", "alpha_us": 88.0, "beta_s_per_byte": 0.0},
                         {"link": "tcp", "alpha_us": 64.0, "beta_s_per_byte": 1.7e-9}]}"#,
        )
        .unwrap();
        let (a, b) = load_measured_floor(path.to_str().unwrap()).unwrap();
        assert!((a - 64e-6).abs() < 1e-12);
        assert!((b - 1.7e-9).abs() < 1e-15);
        assert!(load_measured_floor("/nonexistent/comm_overhead.json").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
