//! Predicted-vs-actual drift: align an executed trace against the
//! abstract-cost simulation of the same `(scheme, D, N)` configuration.
//!
//! Tick counts and nanoseconds live on different scales, so raw
//! subtraction is meaningless; instead every op class is normalized by the
//! forward-pass mean on its own side, and **drift** is the ratio of those
//! relative costs. A drift of 1.0 means the class costs exactly what the
//! simulator's cost model assumes relative to a forward pass; 1.5 means
//! the class is 50% more expensive in reality than modeled. The module
//! also compares bubble ratios (did the schedule's predicted overlap
//! materialize?) and, where communication spans carry payload sizes,
//! computes residuals against the α-β fits recorded by the comm-overhead
//! benchmark (`results/comm_overhead.json`).

use std::collections::BTreeMap;

use chimera_core::named::build_named;
use chimera_core::op::OpKind;
use chimera_core::unit_time::{execute, UnitCosts};
use chimera_trace::{Event, SpanKind};

use crate::timeline::analyze;

/// Drift of one op class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassDrift {
    /// Mean measured duration, nanoseconds.
    pub measured_mean_ns: f64,
    /// Mean simulated duration, ticks.
    pub sim_mean_ticks: f64,
    /// Measured mean over the measured forward mean.
    pub measured_rel: f64,
    /// Simulated mean over the simulated forward mean.
    pub sim_rel: f64,
    /// `measured_rel / sim_rel` — 1.0 when the cost model is exact.
    pub drift: f64,
    /// Measured spans in the class.
    pub count: u64,
}

/// The aligned comparison of one trace against its simulation.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// Scheme name the simulation was built from.
    pub scheme: String,
    /// Pipeline depth.
    pub d: u32,
    /// Micro-batches per iteration.
    pub n: u32,
    /// Per-class drift, keyed by span label (forward/backward/recompute/
    /// allreduce). Only classes present in the measured trace appear.
    pub classes: BTreeMap<String, ClassDrift>,
    /// Bubble ratio reconstructed from the measured trace.
    pub measured_bubble: f64,
    /// Bubble ratio of the unit-cost simulation.
    pub sim_bubble: f64,
    /// `measured - sim`: positive when the real run wastes more of its
    /// wall clock than the schedule predicts.
    pub bubble_delta: f64,
}

impl DriftReport {
    /// The report as a JSON object (embedded in profile reports).
    pub fn to_json(&self) -> serde_json::Value {
        let mut classes = serde_json::Map::new();
        for (name, c) in &self.classes {
            classes.insert(
                name.clone(),
                serde_json::json!({
                    "measured_mean_ns": c.measured_mean_ns,
                    "sim_mean_ticks": c.sim_mean_ticks,
                    "measured_rel": c.measured_rel,
                    "sim_rel": c.sim_rel,
                    "drift": c.drift,
                    "count": c.count,
                }),
            );
        }
        serde_json::json!({
            "scheme": self.scheme,
            "d": self.d,
            "n": self.n,
            "classes": serde_json::Value::Object(classes),
            "measured_bubble": self.measured_bubble,
            "sim_bubble": self.sim_bubble,
            "bubble_delta": self.bubble_delta,
        })
    }
}

/// One α-β communication-model fit, as recorded by the comm-overhead
/// benchmark in `results/comm_overhead.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct CommFit {
    /// Link name (`local`, `tcp`, ...).
    pub link: String,
    /// Latency term, microseconds.
    pub alpha_us: f64,
    /// Inverse-bandwidth term, seconds per byte.
    pub beta_s_per_byte: f64,
}

impl CommFit {
    /// Predicted transfer time in nanoseconds for a `bytes`-sized payload.
    pub fn predict_ns(&self, bytes: u64) -> f64 {
        self.alpha_us * 1e3 + self.beta_s_per_byte * 1e9 * bytes as f64
    }
}

/// Residuals of measured p2p spans against one α-β fit.
#[derive(Debug, Clone, PartialEq)]
pub struct CommResiduals {
    /// The fit's link name.
    pub link: String,
    /// Number of sized communication spans measured.
    pub count: u64,
    /// Mean signed residual `measured − predicted`, nanoseconds. Positive:
    /// transfers run slower than the fitted model.
    pub mean_ns: f64,
    /// Mean magnitude of the residual, nanoseconds.
    pub mean_abs_ns: f64,
    /// Largest magnitude, nanoseconds.
    pub max_abs_ns: f64,
}

impl CommResiduals {
    /// The residual summary as a JSON object.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "link": self.link,
            "count": self.count,
            "mean_ns": self.mean_ns,
            "mean_abs_ns": self.mean_abs_ns,
            "max_abs_ns": self.max_abs_ns,
        })
    }
}

/// Parse the `fits` array of a comm-overhead results document.
pub fn parse_comm_fits(doc: &serde_json::Value) -> Vec<CommFit> {
    let Some(fits) = doc["fits"].as_array() else {
        return Vec::new();
    };
    fits.iter()
        .filter_map(|f| {
            Some(CommFit {
                link: f["link"].as_str()?.to_string(),
                alpha_us: f["alpha_us"].as_f64()?,
                beta_s_per_byte: f["beta_s_per_byte"].as_f64()?,
            })
        })
        .collect()
}

/// Load α-β fits from a comm-overhead results file.
pub fn load_comm_fits(path: impl AsRef<std::path::Path>) -> Result<Vec<CommFit>, String> {
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
    let doc: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
    Ok(parse_comm_fits(&doc))
}

/// Residuals of every sized p2p span in `events` against `fit`. `None`
/// when the trace has no sized communication spans (e.g. in-process runs
/// whose transfers are pointer moves).
pub fn comm_residuals(events: &[Event], fit: &CommFit) -> Option<CommResiduals> {
    let mut count = 0u64;
    let mut sum = 0.0f64;
    let mut sum_abs = 0.0f64;
    let mut max_abs = 0.0f64;
    for ev in events {
        let Event::Span(s) = ev else { continue };
        if s.kind != SpanKind::P2p {
            continue;
        }
        let Some(bytes) = s.bytes else { continue };
        let r = s.dur_ns as f64 - fit.predict_ns(bytes);
        count += 1;
        sum += r;
        sum_abs += r.abs();
        max_abs = max_abs.max(r.abs());
    }
    if count == 0 {
        return None;
    }
    Some(CommResiduals {
        link: fit.link.clone(),
        count,
        mean_ns: sum / count as f64,
        mean_abs_ns: sum_abs / count as f64,
        max_abs_ns: max_abs,
    })
}

fn class_of(kind: SpanKind) -> Option<&'static str> {
    match kind {
        SpanKind::Forward => Some("forward"),
        SpanKind::Backward => Some("backward"),
        SpanKind::Recompute => Some("recompute"),
        SpanKind::AllReduce => Some("allreduce"),
        _ => None,
    }
}

fn sim_class_of(kind: OpKind) -> Option<&'static str> {
    match kind {
        OpKind::Forward => Some("forward"),
        OpKind::Backward { recompute: false } => Some("backward"),
        OpKind::Backward { recompute: true } => Some("recompute"),
        OpKind::AllReduceWait => Some("allreduce"),
        OpKind::AllReduceLaunch => None,
    }
}

fn means<K: Ord>(samples: BTreeMap<K, (u64, u64)>) -> BTreeMap<K, (f64, u64)> {
    samples
        .into_iter()
        .map(|(k, (sum, n))| (k, (sum as f64 / n.max(1) as f64, n)))
        .collect()
}

/// Compare `events` against the unit-cost simulation of `(scheme, d, n)`
/// under the default [`UnitCosts::practical`] model (backward = 2×
/// forward).
///
/// Errors on unknown scheme names, configurations the simulator cannot
/// execute, or traces with no forward spans (nothing to normalize by).
pub fn drift(events: &[Event], scheme: &str, d: u32, n: u32) -> Result<DriftReport, String> {
    drift_with_costs(events, scheme, d, n, UnitCosts::practical())
}

/// [`drift`] under an explicit cost model — typically
/// [`UnitCosts::calibrated`] built from the `calibration.bwd_over_fwd`
/// ratio `fig_kernels` measures on a real transformer block, so the drift
/// baseline reflects *this machine's* backward/forward ratio instead of
/// the textbook 2×.
pub fn drift_with_costs(
    events: &[Event],
    scheme: &str,
    d: u32,
    n: u32,
    costs: UnitCosts,
) -> Result<DriftReport, String> {
    let sched = build_named(scheme, d, n).map_err(|e| format!("{scheme} D={d} N={n}: {e}"))?;
    let sim =
        execute(&sched, costs).map_err(|e| format!("simulating {scheme} D={d} N={n}: {e:?}"))?;

    // Measured per-class (sum, count) over all lanes.
    let mut measured: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for ev in events {
        let Event::Span(s) = ev else { continue };
        if let Some(class) = class_of(s.kind) {
            let e = measured.entry(class).or_default();
            e.0 += s.dur_ns;
            e.1 += 1;
        }
    }
    let measured = means(measured);
    let &(measured_fwd, _) = measured
        .get("forward")
        .ok_or("trace has no forward spans to normalize against")?;
    if measured_fwd <= 0.0 {
        return Err("measured forward spans have zero mean duration".into());
    }

    // Simulated per-class (sum, count).
    let mut simulated: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for spans in &sim.spans {
        for sp in spans {
            if let Some(class) = sim_class_of(sp.op.kind) {
                let e = simulated.entry(class).or_default();
                e.0 += sp.finish - sp.start;
                e.1 += 1;
            }
        }
    }
    let simulated = means(simulated);
    let sim_fwd = simulated.get("forward").map_or(0.0, |&(m, _)| m);
    if sim_fwd <= 0.0 {
        return Err(format!("simulation of {scheme} has no forward cost"));
    }

    let mut classes = BTreeMap::new();
    for (class, &(m_mean, count)) in &measured {
        let (s_mean, _) = simulated.get(class).copied().unwrap_or((0.0, 0));
        let measured_rel = m_mean / measured_fwd;
        let sim_rel = s_mean / sim_fwd;
        let drift = if sim_rel > 0.0 {
            measured_rel / sim_rel
        } else {
            // The class exists in reality but is free in the model (e.g.
            // allreduce waits already satisfied): infinite relative drift
            // is unhelpful, report the relative cost itself.
            measured_rel
        };
        classes.insert(
            (*class).to_string(),
            ClassDrift {
                measured_mean_ns: m_mean,
                sim_mean_ticks: s_mean,
                measured_rel,
                sim_rel,
                drift,
                count,
            },
        );
    }

    let measured_bubble = analyze(events).bubble_ratio();
    let sim_bubble = sim.bubble_ratio();
    Ok(DriftReport {
        scheme: scheme.to_string(),
        d,
        n,
        classes,
        measured_bubble,
        sim_bubble,
        bubble_delta: measured_bubble - sim_bubble,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_trace::SpanEvent;

    fn span(kind: SpanKind, track: u32, start: u64, dur: u64, bytes: Option<u64>) -> Event {
        Event::Span(SpanEvent {
            kind,
            name: kind.label().to_string(),
            pid: 0,
            track,
            start_ns: start,
            dur_ns: dur,
            stage: Some(0),
            replica: Some(0),
            micro: Some(0),
            bytes,
        })
    }

    #[test]
    fn perfectly_modeled_trace_has_unit_drift() {
        // practical() costs: fwd 2, bwd 4 -> backward/forward = 2. A trace
        // where backward is exactly twice forward must drift 1.0.
        let events = vec![
            span(SpanKind::Forward, 0, 0, 100, None),
            span(SpanKind::Forward, 0, 100, 100, None),
            span(SpanKind::Backward, 0, 200, 200, None),
            span(SpanKind::Backward, 0, 400, 200, None),
        ];
        let r = drift(&events, "dapple", 2, 2).unwrap();
        assert!((r.classes["backward"].drift - 1.0).abs() < 1e-9);
        assert!((r.classes["forward"].drift - 1.0).abs() < 1e-9);
        assert_eq!(r.classes["backward"].count, 2);
    }

    #[test]
    fn slow_backward_drifts_above_one() {
        let events = vec![
            span(SpanKind::Forward, 0, 0, 100, None),
            span(SpanKind::Backward, 0, 100, 600, None), // 6x fwd vs modeled 2x
        ];
        let r = drift(&events, "dapple", 2, 2).unwrap();
        assert!((r.classes["backward"].drift - 3.0).abs() < 1e-9);
    }

    #[test]
    fn calibrated_costs_shift_the_baseline() {
        // Backward measured at 3x forward. Under the default 2x model that
        // drifts 1.5; under a calibration that measured 3x it drifts 1.0.
        let events = vec![
            span(SpanKind::Forward, 0, 0, 100, None),
            span(SpanKind::Backward, 0, 100, 300, None),
        ];
        let default = drift(&events, "dapple", 2, 2).unwrap();
        assert!((default.classes["backward"].drift - 1.5).abs() < 1e-9);
        let cal = drift_with_costs(&events, "dapple", 2, 2, UnitCosts::calibrated(3.0)).unwrap();
        assert!((cal.classes["backward"].drift - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_scheme_and_empty_trace_error() {
        assert!(drift(&[], "nope", 2, 2).is_err());
        assert!(drift(&[], "dapple", 2, 2).is_err());
    }

    #[test]
    fn comm_residuals_measure_against_fit() {
        let fit = CommFit {
            link: "tcp".into(),
            alpha_us: 1.0,         // 1000 ns
            beta_s_per_byte: 1e-9, // 1 ns per byte
        };
        assert_eq!(fit.predict_ns(500), 1500.0);
        let events = vec![
            span(SpanKind::P2p, 0, 0, 1600, Some(500)), // +100
            span(SpanKind::P2p, 0, 0, 1200, Some(500)), // -300
            span(SpanKind::P2p, 0, 0, 999, None),       // unsized: skipped
            span(SpanKind::Forward, 0, 0, 50, Some(1)), // not p2p: skipped
        ];
        let r = comm_residuals(&events, &fit).unwrap();
        assert_eq!(r.count, 2);
        assert!((r.mean_ns - (-100.0)).abs() < 1e-9);
        assert!((r.mean_abs_ns - 200.0).abs() < 1e-9);
        assert!((r.max_abs_ns - 300.0).abs() < 1e-9);
        assert!(comm_residuals(&[], &fit).is_none());
    }

    #[test]
    fn parse_comm_fits_reads_results_schema() {
        let doc = serde_json::json!({
            "fits": [
                {"link": "local", "alpha_us": 88.474, "beta_s_per_byte": 0.0},
                {"link": "tcp", "alpha_us": 64.266, "beta_s_per_byte": 1.75e-9},
                {"link": "broken"},
            ]
        });
        let fits = parse_comm_fits(&doc);
        assert_eq!(fits.len(), 2);
        assert_eq!(fits[0].link, "local");
        assert!(fits[1].beta_s_per_byte > 0.0);
        assert!(parse_comm_fits(&serde_json::json!({})).is_empty());
    }
}
