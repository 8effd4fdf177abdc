//! Weight-version staleness lint per stage replica, folded over lowered rows.
//!
//! (The activation-stash discipline — `overwritten_stash`, `use_before_def`,
//! `double_free` — is checked where the schedule is lowered,
//! `chimera_core::program`, and rendered by [`liveness`](crate::liveness).)
//!
//! Synchronous schedules only. A held stage's weights advance once per
//! iteration, when its backwards have covered the iteration's micro-batches —
//! the quota lowering derives per held stage and holds every launch to
//! (`premature_sync`). A forward reads the version current when it runs; its
//! backward applies a gradient to the version current *then*. Any difference
//! means some forward read a weight version that a later update in the same
//! span overwrote before the matching backward — a WAR hazard that breaks the
//! scheme's mini-batch-SGD equivalence (Table 2's "convergence friendly"
//! column). Neither lowering nor the executor refuses this: the ops pair up
//! and the schedule completes.
//!
//! The fold runs per worker as the programs stream out of `lower_each`; the
//! verdict needs them all, because the lint applies only when one quota
//! describes the whole schedule.

use chimera_core::op::{Chunk, OpKind};
use chimera_core::program::Program;
use chimera_core::schedule::Schedule;

use crate::{Diagnostic, OpLoc, Severity};

/// Weight-version staleness of the programs pushed so far.
#[derive(Default)]
pub(crate) struct Staleness {
    /// The per-iteration quota of every held stage with a backward so far, in
    /// half-micros.
    quota: Option<u32>,
    /// No single quota describes the schedule — generators may load replicas
    /// non-uniformly (e.g. Chimera at small N), an asynchronous scheme has
    /// none, a count may not divide into whole micro-batches per iteration —
    /// so the lint does not apply.
    skip: bool,
    /// Most updates between a forward and its backward.
    max: u32,
    /// `(worker, op index)` of the first backward (in the order the programs
    /// are pushed — `lower_each`'s is worker order — then program order) that
    /// applies a stale gradient.
    first: Option<(usize, usize)>,
}

impl Staleness {
    /// Fold the next worker's rows in.
    pub(crate) fn push(&mut self, program: &Program) {
        if self.skip {
            return;
        }
        let n = program.n as usize;
        // Per held stage: micro-batch backwards complete; the version current
        // is that over the quota. Per (held, micro): the version its forward
        // read while it is in flight, and its half backwards seen, so a halved
        // backward counts once.
        let mut done = vec![0u32; program.held.len()];
        let mut read = vec![None; program.held.len() * n];
        let mut halves_seen = vec![0u8; program.held.len() * n];
        for row in &program.rows {
            let h = row.held as usize;
            let (quota, per_iteration) = (program.quota[h], program.quota[h] / 2);
            match row.op.kind {
                OpKind::Forward => {
                    for cov in row.covered() {
                        read[h * n + cov.micro as usize] = done[h].checked_div(per_iteration);
                    }
                }
                OpKind::Backward { .. } => {
                    let whole = per_iteration > 0 && quota.is_multiple_of(2);
                    if !whole || *self.quota.get_or_insert(quota) != quota {
                        self.skip = true;
                        return;
                    }
                    for cov in row.covered() {
                        let at = h * n + cov.micro as usize;
                        if let Chunk::Half(_) = row.op.chunk {
                            halves_seen[at] = halves_seen[at].saturating_add(1);
                            if halves_seen[at] != 2 {
                                continue;
                            }
                        }
                        let version = done[h] / per_iteration;
                        let stale = version - read[at].take().unwrap_or(version);
                        if stale > 0 && self.first.is_none() {
                            self.first = Some((program.worker as usize, row.op_ix));
                        }
                        self.max = self.max.max(stale);
                        done[h] += 1;
                    }
                }
                _ => {}
            }
        }
    }

    /// `weight_war` if any backward of the programs — all of `sched`'s —
    /// applied a gradient computed on superseded weights.
    pub(crate) fn lint(self, sched: &Schedule) -> Option<Diagnostic> {
        if self.skip || self.max == 0 {
            return None;
        }
        Some(Diagnostic {
            code: "weight_war",
            severity: Severity::Error,
            message: format!(
                "synchronous schedule applies a gradient computed on weights {} update(s) old: \
                 a forward read a weight version that a later per-iteration update overwrote \
                 before the matching backward (WAR); the scheme is no longer mini-batch-SGD \
                 equivalent",
                self.max
            ),
            locations: (self.first.iter())
                .map(|&(w, i)| OpLoc::of(sched, w, i))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use chimera_core::baselines::{dapple, gems, gpipe};
    use chimera_core::chimera::{chimera, ChimeraConfig};
    use chimera_core::program::lower;
    use chimera_core::repeat::concat_iterations;
    use chimera_core::schedule::Schedule;
    use chimera_core::unit_time::{execute, UnitCosts};

    use crate::{verify_span, Diagnostic};

    fn weight_wars(sched: &Schedule, iterations: u32) -> Vec<Diagnostic> {
        let mut found = verify_span(sched, iterations).diagnostics;
        found.retain(|d| d.code == "weight_war");
        found
    }

    #[test]
    fn builtin_schemes_are_hazard_free() {
        for s in [
            gpipe(4, 8),
            dapple(4, 8),
            gems(4, 8),
            chimera(&ChimeraConfig::new(4, 8)).unwrap(),
        ] {
            assert_eq!(weight_wars(&s, 1), [], "{:?}", s.scheme);
        }
        let multi = concat_iterations(&chimera(&ChimeraConfig::new(4, 8)).unwrap(), 3, false);
        assert_eq!(weight_wars(&multi, 3), []);
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
        let diags = weight_wars(&s, 2);
        let war = diags.first().expect("weight WAR detected");
        assert_eq!(war.locations.len(), 1);
        assert_eq!(war.locations[0].worker, 0);
    }
}
