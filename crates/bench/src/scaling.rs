//! Shared logic for the weak-scaling and large-mini-batch figures.
//!
//! A figure plans many `(P, B̂)` points whose candidates fall on one small
//! lattice of schedule shapes (weak scaling keeps `B̂ / P`, hence every `N`,
//! fixed), so each bin run plans against one [`StructureTable`].

use chimera_core::chimera::ScaleMethod;
use chimera_perf::planner::{plan_until, Candidate, PlanScheme};
use chimera_perf::{ClusterSpec, ModelSpec, StructureTable};

use crate::{candidate_headers, candidate_json, candidate_row, print_table, save_json};

/// The baseline schemes in the paper's legend order.
pub fn baseline_schemes() -> Vec<PlanScheme> {
    vec![
        PlanScheme::PipeDream,
        PlanScheme::PipeDream2Bw,
        PlanScheme::GPipe,
        PlanScheme::Gems,
        PlanScheme::Dapple,
    ]
}

/// `scheme`'s search against the bin's table. A figure has no deadline, and
/// a planner bug stops it.
fn search(
    table: &StructureTable,
    scheme: PlanScheme,
    model: ModelSpec,
    cluster: ClusterSpec,
    p: u32,
    b_hat: u64,
) -> Option<Candidate> {
    plan_until(table, scheme, model, cluster, p, b_hat, None).unwrap_or_else(|e| panic!("{e}"))
}

/// Chimera (`f = 1`) under each of its three §3.5 scaling methods.
fn chimera_variants() -> [PlanScheme; 3] {
    [
        ScaleMethod::Direct,
        ScaleMethod::ForwardDoubling,
        ScaleMethod::BackwardHalving,
    ]
    .map(|scale| PlanScheme::Chimera { f: 1, scale })
}

/// Best candidate per scheme at `(p, b_hat)`: baselines via full grid
/// search; Chimera via Eq. 1 planning (§4.2.2), empirically picking the best
/// of its three §3.5 scaling methods — "to select the best of the three
/// methods is not a priori, which we rely on empirical results".
pub fn best_per_scheme(
    table: &StructureTable,
    model: ModelSpec,
    cluster: ClusterSpec,
    p: u32,
    b_hat: u64,
) -> Vec<(String, Option<Candidate>)> {
    let mut out: Vec<(String, Option<Candidate>)> = baseline_schemes()
        .into_iter()
        .map(|s| (s.label(), search(table, s, model, cluster, p, b_hat)))
        .collect();
    let mut chim: Option<Candidate> = None;
    for variant in chimera_variants() {
        if let Some(c) = search(table, variant, model, cluster, p, b_hat) {
            if chim.as_ref().is_none_or(|b| c.throughput > b.throughput) {
                chim = Some(c);
            }
        }
    }
    let label = chim
        .as_ref()
        .map(|c| c.scheme.label())
        .unwrap_or_else(|| "Chimera".to_string());
    out.push((label, chim));
    out
}

/// Speedup of the last entry (Chimera) over every other entry that produced
/// a candidate.
pub fn chimera_speedups(results: &[(String, Option<Candidate>)]) -> Vec<(String, f64)> {
    let chim = results
        .last()
        .and_then(|(_, c)| c.as_ref())
        .map(|c| c.throughput)
        .unwrap_or(0.0);
    results[..results.len() - 1]
        .iter()
        .filter_map(|(name, c)| c.as_ref().map(|c| (name.clone(), chim / c.throughput)))
        .collect()
}

/// A weak-scaling figure (Figs. 14–16): for every `(P, B̂)` of `points`,
/// print the best candidate per scheme and Chimera's speedup over each,
/// then save all candidates to `results/<name>.json`. `title` is the part
/// of each table heading before `, P=…`. Returns Chimera's `(P, samples/s)`
/// per point.
pub fn weak_scaling(
    name: &str,
    title: &str,
    model: ModelSpec,
    cluster: ClusterSpec,
    points: &[(u32, u64)],
) -> Vec<(u32, f64)> {
    let table = StructureTable::new();
    let mut json = Vec::new();
    let mut chimera_throughputs = Vec::new();
    for &(p, b_hat) in points {
        let results = best_per_scheme(&table, model, cluster, p, b_hat);
        let rows: Vec<Vec<String>> = results
            .iter()
            .filter_map(|(_, c)| c.as_ref().map(candidate_row))
            .collect();
        print_table(
            &format!("{title}, P={p}, B̂={b_hat}"),
            &candidate_headers(),
            &rows,
        );
        for (name, speedup) in chimera_speedups(&results) {
            println!("  Chimera vs {name}: {speedup:.2}x");
        }
        if let Some((_, Some(c))) = results.last() {
            chimera_throughputs.push((p, c.throughput));
        }
        for (name, c) in &results {
            if let Some(c) = c {
                let mut j = candidate_json(c);
                j["p"] = serde_json::json!(p);
                j["label"] = serde_json::json!(name);
                json.push(j);
            }
        }
    }
    save_json(name, serde_json::json!(json));
    chimera_throughputs
}

/// A large-mini-batch figure (Figs. 17/18): on `p` workers, for B̂ from 512
/// to 8,192, print the tuned baselines next to each of Chimera's three §3.5
/// strategies and save all candidates to `results/<name>.json`. `title` is
/// the part of each table heading before `, B̂=…`.
pub fn large_batch(name: &str, title: &str, model: ModelSpec, cluster: ClusterSpec, p: u32) {
    let table = StructureTable::new();
    let mut json = Vec::new();
    for b_hat in [512u64, 1024, 2048, 4096, 8192] {
        let mut rows = Vec::new();
        let mut add = |c: Option<Candidate>| {
            if let Some(c) = c {
                rows.push(candidate_row(&c));
                let mut j = candidate_json(&c);
                j["b_hat_setting"] = serde_json::json!(b_hat);
                j["label"] = serde_json::json!(c.scheme.label());
                json.push(j);
            }
        };
        for scheme in baseline_schemes().into_iter().chain(chimera_variants()) {
            add(search(&table, scheme, model, cluster, p, b_hat));
        }
        print_table(&format!("{title}, B̂={b_hat}"), &candidate_headers(), &rows);
    }
    save_json(name, serde_json::json!(json));
}
