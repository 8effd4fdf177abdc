//! Weight-version staleness lint per stage replica.
//!
//! (The activation-stash discipline — `overwritten_stash`, `use_before_def`,
//! `double_free` — is checked where the schedule is lowered,
//! `chimera_core::program`, and rendered by [`liveness`](crate::liveness).)
//!
//! Synchronous schedules only: replays `validate::weight_analysis` with a
//! per-iteration update rule. Any nonzero staleness means some forward read a
//! weight version that a later update in the same span overwrote before the
//! matching backward — a WAR hazard that breaks the scheme's
//! mini-batch-SGD equivalence (Table 2's "convergence friendly" column).
//! Neither lowering nor the executor sees this: the ops pair up and the
//! schedule completes.

use std::collections::HashMap;

use chimera_core::ids::{ReplicaId, StageId};
use chimera_core::op::OpKind;
use chimera_core::schedule::Schedule;
use chimera_core::validate::{weight_analysis, UpdateRule};

use crate::{Diagnostic, OpLoc, Severity};

/// Weight-version WAR via `weight_analysis`: nonzero staleness in a flushing
/// (synchronous) schedule is a hazard.
pub fn lint(sched: &Schedule, iterations: u32) -> Vec<Diagnostic> {
    if !sched.flushes || iterations == 0 {
        return Vec::new();
    }
    // The per-iteration update quota of a (replica, stage) is the number of
    // micro backwards it actually runs per iteration — counted from the
    // schedule, since generators may load replicas non-uniformly (e.g.
    // Chimera at small N). Counted in half-micros so Half/Full/Pair chunks
    // compose. The lint only applies when the load is uniform across all
    // active pairs and divides into the iterations; otherwise no single
    // quota describes the schedule and we skip.
    let mut halves: HashMap<(ReplicaId, StageId), u32> = HashMap::new();
    for (_, _, op) in sched.iter_ops() {
        if matches!(op.kind, OpKind::Backward { .. }) {
            *halves.entry((op.replica, op.stage)).or_insert(0) += op.chunk.half_micros();
        }
    }
    let mut counts = halves.values().copied();
    let Some(per_pair) = counts.next() else {
        return Vec::new();
    };
    if counts.any(|c| c != per_pair) || !per_pair.is_multiple_of(2 * iterations) {
        return Vec::new();
    }
    let quota = per_pair / (2 * iterations);
    if quota == 0 {
        return Vec::new();
    }
    let rule = UpdateRule::PerIteration {
        micros_per_iter: quota,
        delay: 0,
    };
    let report = weight_analysis(sched, rule);
    if report.max_staleness == 0 {
        return Vec::new();
    }
    let loc = report
        .first_stale
        .map(|(w, i)| OpLoc::of(sched, w.idx(), i));
    vec![Diagnostic {
        code: "weight_war",
        severity: Severity::Error,
        message: format!(
            "synchronous schedule applies a gradient computed on weights {} update(s) old: \
             a forward read a weight version that a later per-iteration update overwrote \
             before the matching backward (WAR); the scheme is no longer mini-batch-SGD \
             equivalent",
            report.max_staleness
        ),
        locations: loc.into_iter().collect(),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_core::baselines::{dapple, gems, gpipe};
    use chimera_core::chimera::{chimera, ChimeraConfig};
    use chimera_core::program::lower;
    use chimera_core::repeat::concat_iterations;
    use chimera_core::unit_time::{execute, UnitCosts};

    #[test]
    fn builtin_schemes_are_hazard_free() {
        for s in [
            gpipe(4, 8),
            dapple(4, 8),
            gems(4, 8),
            chimera(&ChimeraConfig::new(4, 8)).unwrap(),
        ] {
            assert!(lint(&s, 1).is_empty(), "{:?}: {:?}", s.scheme, lint(&s, 1));
        }
        let multi = concat_iterations(&chimera(&ChimeraConfig::new(4, 8)).unwrap(), 3, false);
        assert!(lint(&multi, 3).is_empty());
    }

    #[test]
    fn late_forward_is_weight_war_but_lowers_and_executes() {
        // Two GPipe iterations; slide iteration-2's first forward on worker 0
        // before iteration-1's last backward. Executable (no defect, no
        // deadlock) but the forward now reads pre-update weights for a
        // post-update gradient — staleness 1.
        let s = concat_iterations(&gpipe(2, 2), 2, false);
        let mut s = s;
        // Worker 0 ops: F0 F1 B0 B1 | F2 F3 B2 B3  ->  F0 F1 B0 F2 B1 ...
        let ops = &mut s.workers[0];
        let f2 = ops.remove(4);
        ops.insert(3, f2);
        assert_eq!(lower(&s, 2).defects, []);
        execute(&s, UnitCosts::equal()).expect("still completes");
        let diags = lint(&s, 2);
        let war = diags
            .iter()
            .find(|d| d.code == "weight_war")
            .expect("weight WAR detected");
        assert_eq!(war.locations.len(), 1);
        assert_eq!(war.locations[0].worker, 0);
    }
}
