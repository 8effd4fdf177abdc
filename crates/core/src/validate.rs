//! Weight-version analysis: what an update *rule* does to a schedule.
//!
//! Whether a schedule is executable as written — every forward meets its
//! backward, gradients synchronize after the iteration's last backward —
//! is [`crate::program::lower`]'s verdict, and whether it completes is the
//! executor's ([`crate::unit_time::execute`]). This module answers a
//! different question: for synchronous schemes, that a single weight version
//! per stage suffices, and for asynchronous ones the staleness and
//! weight-stash requirements that Table 2 reports.

use crate::ids::{MicroId, ReplicaId, StageId, WorkerId};
use crate::op::{Chunk, OpKind};
use crate::schedule::Schedule;

/// When weights advance (the update rule of the scheme under analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateRule {
    /// PipeDream: the stage's weights advance after every micro-batch
    /// backward.
    PerMicro,
    /// Updates at iteration boundaries (every `micros_per_iter` backwards on
    /// a stage replica), becoming visible `delay` iterations later.
    /// Synchronous schemes are `delay = 0`; PipeDream-2BW is `delay = 1`.
    PerIteration {
        /// Micros per iteration per worker.
        micros_per_iter: u32,
        /// Iterations between gradient availability and weight visibility.
        delay: u32,
    },
}

/// Weight-version requirements and staleness of a schedule under an update
/// rule (Table 2's "weights memory" and "convergence friendly" columns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightReport {
    /// Maximum weight versions simultaneously alive, per worker (in units of
    /// one stage replica's weights, summed over the replicas it holds).
    pub max_versions: Vec<u32>,
    /// Maximum staleness observed: number of updates that happened between
    /// the version a micro-batch's forward used and the version current when
    /// its gradient was applied. Zero iff the schedule is equivalent to
    /// mini-batch SGD.
    pub max_staleness: u32,
    /// `(worker, op index)` of the first backward (worker order, then
    /// program order) that observes nonzero staleness.
    pub first_stale: Option<(WorkerId, usize)>,
}

/// One `(replica, stage)` of one worker during [`weight_analysis`].
#[derive(Default)]
struct StageState {
    /// Version forwards read now.
    version: u32,
    /// Updates produced so far.
    produced: u32,
    /// Versions produced but not yet visible.
    pending: Vec<u32>,
    backwards: u32,
    /// By micro id: the version its forward used, while in flight.
    used: Vec<Option<u32>>,
    /// By micro id: half backwards seen, so a micro's backward counts once.
    halves_seen: Vec<u8>,
    /// By version: in-flight micros using it.
    refs: Vec<u32>,
    /// Versions with a nonzero `refs`.
    in_use: u32,
}

impl StageState {
    /// Versions alive right now: the current one plus each older version
    /// still needed by an in-flight micro.
    fn alive(&self) -> u32 {
        let current = self.refs.get(self.version as usize);
        self.in_use + u32::from(current.is_none_or(|&refs| refs == 0))
    }

    /// Record that micro `m` now uses `version` (`None`: no longer in
    /// flight); returns the version it used before.
    fn set_used(&mut self, m: MicroId, version: Option<u32>) -> Option<u32> {
        if m.idx() >= self.used.len() {
            self.used.resize(m.idx() + 1, None);
        }
        let before = std::mem::replace(&mut self.used[m.idx()], version);
        if let Some(old) = before {
            self.refs[old as usize] -= 1;
            self.in_use -= u32::from(self.refs[old as usize] == 0);
        }
        if let Some(new) = version {
            if new as usize >= self.refs.len() {
                self.refs.resize(new as usize + 1, 0);
            }
            self.in_use += u32::from(self.refs[new as usize] == 0);
            self.refs[new as usize] += 1;
        }
        before
    }
}

/// Analyze weight versions. The schedule is walked per worker in op order;
/// for a stage replica, forward `m` records the current version, backward `m`
/// requires it (stashed until then) and may trigger an update per `rule`.
pub fn weight_analysis(sched: &Schedule, rule: UpdateRule) -> WeightReport {
    let mut max_versions = Vec::with_capacity(sched.num_workers());
    let mut max_staleness = 0u32;
    let mut first_stale = None;
    for (w, ops) in sched.workers.iter().enumerate() {
        // One state per (replica, stage) seen on this worker — the few it
        // holds — found by scan; the count of live versions is kept as a
        // running sum over them.
        let mut states: Vec<((ReplicaId, StageId), StageState)> = Vec::new();
        let mut alive = 0u32;
        let mut worker_peak = 0u32;
        for (i, op) in ops.iter().enumerate() {
            if !op.is_compute() {
                continue;
            }
            let pair = (op.replica, op.stage);
            let found = states.iter().position(|(p, _)| *p == pair);
            let at = found.unwrap_or_else(|| {
                alive += 1;
                states.push((pair, StageState::default()));
                states.len() - 1
            });
            let st = &mut states[at].1;
            let alive_before = st.alive();
            let mut observe = |staleness: u32| {
                if staleness > 0 && first_stale.is_none() {
                    first_stale = Some((WorkerId(w as u32), i));
                }
                max_staleness = max_staleness.max(staleness);
            };
            for m in op.covered_micros() {
                if op.kind == OpKind::Forward {
                    st.set_used(m, Some(st.version));
                    continue;
                }
                if let Chunk::Half(_) = op.chunk {
                    if m.idx() >= st.halves_seen.len() {
                        st.halves_seen.resize(m.idx() + 1, 0);
                    }
                    let seen = &mut st.halves_seen[m.idx()];
                    *seen = seen.saturating_add(1);
                    if *seen != 2 {
                        continue;
                    }
                }
                let used = st.set_used(m, None).unwrap_or(st.version);
                observe(st.version - used);
                st.backwards += 1;
                match rule {
                    UpdateRule::PerMicro => {
                        st.version += 1;
                    }
                    UpdateRule::PerIteration {
                        micros_per_iter,
                        delay,
                    } => {
                        if st.backwards.is_multiple_of(micros_per_iter) {
                            st.produced += 1;
                            // Update `produced` creates version `produced`
                            // from gradients computed at the current version;
                            // SGD equivalence requires them computed at
                            // `produced-1`. The shortfall is the
                            // *application* staleness (PipeDream-2BW: 1).
                            observe((st.produced - 1).saturating_sub(st.version));
                            st.pending.push(st.produced);
                            if st.pending.len() > delay as usize {
                                st.version = st.pending.remove(0).max(st.version);
                            }
                        }
                    }
                }
            }
            alive = alive + st.alive() - alive_before;
            worker_peak = worker_peak.max(alive);
        }
        max_versions.push(worker_peak);
    }
    WeightReport {
        max_versions,
        max_staleness,
        first_stale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{dapple, gems, gpipe, pipedream, pipedream_2bw};
    use crate::chimera::{chimera, ChimeraConfig};
    use crate::repeat::concat_iterations;

    #[test]
    fn synchronous_schemes_have_zero_staleness() {
        for sched in [
            gpipe(4, 8),
            dapple(4, 8),
            gems(4, 8),
            chimera(&ChimeraConfig::new(4, 8)).unwrap(),
        ] {
            let rep = weight_analysis(
                &sched,
                UpdateRule::PerIteration {
                    micros_per_iter: 8,
                    delay: 0,
                },
            );
            assert_eq!(rep.max_staleness, 0, "{:?}", sched.scheme);
        }
    }

    /// PipeDream stashes up to D weight versions at the first stage and 1 at
    /// the last (Table 2: [Mθ, D·Mθ]) and is stale.
    #[test]
    fn pipedream_weight_stash_matches_table2() {
        let d = 4;
        let s = concat_iterations(&pipedream(d, 8), 3, false);
        let rep = weight_analysis(&s, UpdateRule::PerMicro);
        assert_eq!(rep.max_versions[0], d, "first stage stashes D versions");
        assert_eq!(
            rep.max_versions[(d - 1) as usize],
            1,
            "last stage stashes 1"
        );
        assert!(rep.max_staleness > 0, "PipeDream is asynchronous");
        // Monotone decrease along the pipeline.
        for w in 1..d as usize {
            assert!(rep.max_versions[w] <= rep.max_versions[w - 1]);
        }
    }

    /// PipeDream-2BW's gradient accumulation + 1-delay double buffering needs
    /// exactly 2 versions everywhere (Table 2: 2Mθ) but stays stale.
    #[test]
    fn pipedream_2bw_double_buffering() {
        let d = 4;
        let n = 8;
        let s = concat_iterations(&pipedream_2bw(d, n), 4, true);
        let rep = weight_analysis(
            &s,
            UpdateRule::PerIteration {
                micros_per_iter: n,
                delay: 1,
            },
        );
        for (w, &v) in rep.max_versions.iter().enumerate() {
            assert!(v <= 2, "worker {w} needs {v} versions");
        }
        assert!(rep.max_staleness > 0, "2BW uses 1-stale weights");
    }

    /// Chimera over several iterations remains staleness-free.
    #[test]
    fn chimera_multi_iteration_synchronous() {
        let s = chimera(&ChimeraConfig::new(4, 8)).unwrap();
        let many = concat_iterations(&s, 3, false);
        let rep = weight_analysis(
            &many,
            UpdateRule::PerIteration {
                micros_per_iter: 8,
                delay: 0,
            },
        );
        assert_eq!(rep.max_staleness, 0);
        // One version per stage replica; each worker holds two replicas.
        for &v in &rep.max_versions {
            assert_eq!(v, 2);
        }
    }
}
