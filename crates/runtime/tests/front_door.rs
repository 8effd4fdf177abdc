//! Schedules the runtime cannot execute are refused with a typed error when
//! they are lowered — before a worker thread exists that could panic on the
//! op or leave its peers waiting out their deadlines.
//!
//! The defects are the drop and move-to-other-worker operators of
//! `chimera-verify`'s `comm_lint_differential` test, applied exhaustively:
//! every op of every worker dropped, and moved to the front and the back of
//! the next worker's list.

use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

use chimera_core::named::build_named;
use chimera_core::schedule::{Schedule, SyncStrategy};
use chimera_core::sync::place_sync;
use chimera_core::unit_time::UnitCosts;
use chimera_nn::ModelConfig;
use chimera_runtime::{train, TrainError, TrainOptions};

/// Full-chunk schemes the runtime executes.
const SCHEMES: [&str; 7] = [
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
fn clean_schedules(d: u32) -> Vec<(String, Schedule)> {
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

/// Lowering must refuse `mutant`; a hang would show as a deadline error
/// (or, at worst, as this test's own clock).
fn assert_refused(mutant: &Schedule, what: &str) {
    let opts = TrainOptions {
        micro_batch: 1,
        iterations: 1,
        recv_timeout: Duration::from_secs(2),
        ..TrainOptions::default()
    };
    let cfg = ModelConfig {
        layers: 8,
        ..ModelConfig::tiny()
    };
    let start = Instant::now();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| train(mutant, cfg, opts)));
    let refused = matches!(outcome, Ok(Err(TrainError::UnsupportedSchedule { .. })));
    assert!(
        refused,
        "{what}: expected UnsupportedSchedule, got {}",
        match &outcome {
            Err(_) => "a panic".to_string(),
            Ok(Ok(_)) => "a completed run".to_string(),
            Ok(Err(e)) => e.to_string(),
        }
    );
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "{what}: refused only after {:?} — were workers spawned?",
        start.elapsed()
    );
}

#[test]
fn dropped_and_misplaced_ops_are_refused_at_lowering() {
    let mut mutants = 0;
    for d in [2u32, 4] {
        for (name, clean) in clean_schedules(d) {
            for w in 0..clean.workers.len() {
                for i in 0..clean.workers[w].len() {
                    let mut dropped = clean.clone();
                    let op = dropped.workers[w].remove(i);
                    assert_refused(&dropped, &format!("{name}: drop {op} from P{w}"));

                    let to = (w + 1) % clean.workers.len();
                    for front in [true, false] {
                        let mut moved = dropped.clone();
                        let at = if front { 0 } else { moved.workers[to].len() };
                        moved.workers[to].insert(at, op);
                        assert_refused(&moved, &format!("{name}: move {op} P{w} → P{to} #{at}"));
                        mutants += 1;
                    }
                    mutants += 1;
                }
            }
        }
    }
    assert!(mutants > 1000, "only {mutants} mutants tried");
}

/// The error names the worker and the op, and says what is wrong with it.
#[test]
fn the_error_names_the_op_and_the_reason() {
    let mut sched = build_named("dapple", 2, 4).expect("known scheme");
    let backward = sched.workers[1]
        .iter()
        .position(chimera_core::Op::is_backward)
        .expect("a backward");
    let op = sched.workers[1].remove(backward);
    let err = train(&sched, ModelConfig::tiny(), TrainOptions::default()).unwrap_err();
    let TrainError::UnsupportedSchedule { worker, reason, .. } = &err else {
        panic!("expected UnsupportedSchedule, got {err}");
    };
    assert_eq!(*worker, 1);
    assert!(
        reason.contains("backward is not on this worker"),
        "{reason}"
    );
    // The forward left without its backward is the op blamed.
    let text = err.to_string();
    assert!(
        text.contains("w1") && text.contains(&format!("F{}", op.micro)),
        "{text}"
    );
}
