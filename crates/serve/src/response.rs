//! The one plan-response serializer.
//!
//! Both front doors of the service *and* `chimera-cli plan --json` emit
//! plan results through these functions, so the schema cannot drift between
//! the CLI and the server (`chimera-serve/plan/v1`).

use chimera_perf::Candidate;
use serde_json::Value;

/// Canonical JSON form of one planner [`Candidate`].
pub fn candidate_json(c: &Candidate) -> Value {
    serde_json::json!({
        "scheme": c.scheme.label(),
        "w": c.w,
        "d": c.d,
        "b": c.b,
        "n": c.n,
        "recompute": c.recompute,
        "fits": c.fits,
        "iter_time_s": c.iter_time_s,
        "throughput": c.throughput,
        "peak_mem_bytes": c.peak_mem,
        "bubble_ratio": c.bubble_ratio,
        "predicted_s": c.predicted_s,
        "b_hat": c.b_hat,
    })
}

/// Parameters echoed back in every plan response.
#[derive(Debug, Clone)]
pub struct PlanContext<'a> {
    /// Canonical model name.
    pub model: &'a str,
    /// Device count `P`.
    pub devices: u32,
    /// Mini-batch size `B̂`.
    pub b_hat: u64,
    /// Canonical topology preset name.
    pub topology: &'a str,
    /// Congestion factor, integer percent (100 = quiet).
    pub congestion_pct: u32,
}

/// Full plan response: per-scheme best candidates (each already re-verified
/// by the static schedule verifier, carrying its exact `memory/v2` summary
/// from the liveness engine), the schemes with no feasible configuration,
/// and the overall throughput winner.
pub fn plan_results_json(
    ctx: &PlanContext<'_>,
    results: &[(String, Candidate, Value)],
    infeasible: &[String],
) -> Value {
    let best = results
        .iter()
        .max_by(|(_, a, _), (_, b, _)| a.throughput.partial_cmp(&b.throughput).unwrap())
        .map(|(id, ..)| Value::String(id.clone()))
        .unwrap_or(Value::Null);
    serde_json::json!({
        "ok": true,
        "schema": "chimera-serve/plan/v1",
        "model": ctx.model,
        "devices": ctx.devices,
        "b_hat": ctx.b_hat,
        "topology": ctx.topology,
        "congestion_pct": ctx.congestion_pct,
        "results": results.iter().map(|(id, c, mem)| {
            let mut v = candidate_json(c);
            let obj = v.as_object_mut().expect("candidate_json is an object");
            obj.insert("scheme_id".into(), Value::String(id.clone()));
            obj.insert("verified".into(), Value::Bool(true));
            obj.insert("memory".into(), mem.clone());
            v
        }).collect::<Vec<_>>(),
        "infeasible": infeasible,
        "best": best,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_perf::planner::{evaluate, PlanScheme};
    use chimera_perf::{ClusterSpec, ModelSpec, StructureTable};

    #[test]
    fn response_schema_holds() {
        let c = evaluate(
            &StructureTable::new(),
            PlanScheme::Dapple,
            ModelSpec::bert48(),
            ClusterSpec::piz_daint(),
            8,
            64,
            2,
            4,
            4,
        )
        .unwrap()
        .unwrap();
        let ctx = PlanContext {
            model: "bert48",
            devices: 8,
            b_hat: 64,
            topology: "piz-daint",
            congestion_pct: 100,
        };
        let mem = serde_json::json!({
            "schema": "memory/v2",
            "exact_peak_bytes": c.peak_mem,
            "min_slack_ratio": 1.25,
        });
        let v = plan_results_json(&ctx, &[("dapple".into(), c, mem)], &["gems".into()]);
        assert_eq!(v["ok"], serde_json::json!(true));
        assert_eq!(v["schema"].as_str().unwrap(), "chimera-serve/plan/v1");
        assert_eq!(v["best"].as_str().unwrap(), "dapple");
        let r = &v["results"].as_array().unwrap()[0];
        assert_eq!(r["scheme_id"].as_str().unwrap(), "dapple");
        assert_eq!(r["verified"], serde_json::json!(true));
        assert!(r["throughput"].as_f64().unwrap() > 0.0);
        assert_eq!(r["memory"]["schema"].as_str().unwrap(), "memory/v2");
        assert!(r["memory"]["exact_peak_bytes"].as_u64().unwrap() > 0);
        assert_eq!(v["infeasible"].as_array().unwrap().len(), 1);

        let empty = plan_results_json(&ctx, &[], &[]);
        assert!(empty["best"].is_null());
    }
}
