//! The exhaustive single-op mutant set behind the one-verdict contract:
//! `chimera-runtime`'s `front_door` test and `chimera-verify`'s `one_verdict`
//! test include this file by path and must agree on every schedule it yields.
//!
//! The defects are the drop and move-to-other-worker operators of
//! `chimera-verify`'s `comm_lint_differential` test, applied exhaustively:
//! every op of every worker dropped, and moved to the front and the back of
//! the next worker's list.

use chimera_core::named::build_named;
use chimera_core::schedule::{Schedule, SyncStrategy};
use chimera_core::sync::place_sync;
use chimera_core::unit_time::UnitCosts;

/// Full-chunk schemes the runtime executes.
pub const SCHEMES: [&str; 7] = [
    "chimera",
    "chimera-f2",
    "dapple",
    "gpipe",
    "gems",
    "pipedream",
    "pipedream-2bw",
];

/// Each scheme as generated and, where that differs, with explicit eager
/// allreduce ops, so sync rows are mutated too.
pub fn clean_schedules(d: u32) -> Vec<(String, Schedule)> {
    let mut out = Vec::new();
    for scheme in SCHEMES {
        if scheme == "chimera-f2" && !(d / 2).is_multiple_of(2) {
            continue; // f = 2 needs f | D/2
        }
        let sched = build_named(scheme, d, 2 * d).expect("known scheme");
        if sched.flushes && sched.sync == SyncStrategy::None {
            let eager = place_sync(sched.clone(), SyncStrategy::Eager, UnitCosts::practical());
            out.push((format!("{scheme}+eager D={d}"), eager));
        }
        out.push((format!("{scheme} D={d}"), sched));
    }
    out
}

/// Hand `visit` every mutant of `clean` with what was done to it; returns
/// how many there were (three per op).
pub fn for_each_mutant(
    name: &str,
    clean: &Schedule,
    mut visit: impl FnMut(&Schedule, &str),
) -> usize {
    let mut mutants = 0;
    for w in 0..clean.workers.len() {
        for i in 0..clean.workers[w].len() {
            let mut dropped = clean.clone();
            let op = dropped.workers[w].remove(i);
            visit(&dropped, &format!("{name}: drop {op} from P{w}"));

            let to = (w + 1) % clean.workers.len();
            for front in [true, false] {
                let mut moved = dropped.clone();
                let at = if front { 0 } else { moved.workers[to].len() };
                moved.workers[to].insert(at, op);
                visit(&moved, &format!("{name}: move {op} P{w} → P{to} #{at}"));
            }
            mutants += 3;
        }
    }
    mutants
}
