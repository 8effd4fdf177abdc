//! Schedules the runtime cannot execute are refused with a typed error when
//! they are lowered — before a worker thread exists that could panic on the
//! op or leave its peers waiting out their deadlines — and the verifier,
//! which reads the same lowering, calls exactly those schedules not clean.
//!
//! The defects are `tests/support/mutants.rs`'s: every op of every worker
//! dropped, and moved to the front and the back of the next worker's list.

use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

use chimera_core::named::build_named;
use chimera_core::schedule::{Schedule, SyncStrategy};
use chimera_core::sync::place_sync;
use chimera_core::unit_time::UnitCosts;
use chimera_nn::ModelConfig;
use chimera_runtime::{train, TrainError, TrainOptions};
use chimera_verify::verify_span;

#[path = "../../../tests/support/mutants.rs"]
mod mutants;
use mutants::{clean_schedules, for_each_mutant};

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
            mutants += for_each_mutant(&name, &clean, assert_refused);
        }
    }
    assert!(mutants > 1000, "only {mutants} mutants tried");
}

/// One lowering, one verdict: on every base and every mutant, the verifier
/// calls the schedule clean exactly when `train` does not refuse it.
#[test]
fn verify_is_clean_exactly_when_train_lowers() {
    let refused = |sched: &Schedule| {
        let opts = TrainOptions {
            micro_batch: 1,
            iterations: 1,
            ..TrainOptions::default()
        };
        let cfg = ModelConfig {
            layers: 8,
            ..ModelConfig::tiny()
        };
        matches!(
            train(sched, cfg, opts),
            Err(TrainError::UnsupportedSchedule { .. })
        )
    };
    let (mut inputs, mut runnable) = (0, 0);
    for d in [2u32, 4] {
        for (name, clean) in clean_schedules(d) {
            let mut check = |sched: &Schedule, what: &str| {
                let clean = verify_span(sched, 1).is_clean();
                assert_eq!(clean, !refused(sched), "{what}: verify clean = {clean}");
                inputs += 1;
                runnable += usize::from(clean);
            };
            check(&clean, &name);
            for_each_mutant(&name, &clean, check);
        }
    }
    assert_eq!((inputs, runnable), (4128 + 22, 22));
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

/// A flushing schedule whose allreduce launches before the last backward of
/// the gradients it carries would train — the ops pair up, nothing stalls —
/// and quietly stop being mini-batch SGD: the late micro-batch's gradient
/// rides into the next iteration's round. Refused, with the launch named.
#[test]
fn a_premature_sync_is_refused_with_the_launch_named() {
    let mut sched = place_sync(
        build_named("dapple", 2, 4).expect("known scheme"),
        SyncStrategy::Eager,
        UnitCosts::practical(),
    );
    // P0: … B3 AR+ AR?  →  … AR+ AR? B3
    let ops = &mut sched.workers[0];
    let last_backward = ops
        .iter()
        .rposition(chimera_core::Op::is_backward)
        .expect("a backward");
    assert_eq!(
        last_backward + 3,
        ops.len(),
        "launch and wait close the list"
    );
    ops[last_backward..].rotate_left(1);
    let launch = ops[last_backward];

    let err = train(&sched, ModelConfig::tiny(), TrainOptions::default()).unwrap_err();
    let TrainError::UnsupportedSchedule { worker, op, reason } = &err else {
        panic!("expected UnsupportedSchedule, got {err}");
    };
    assert_eq!((*worker, op), (0, &launch.to_string()));
    assert!(reason.contains("before the last backward"), "{reason}");
    assert!(!verify_span(&sched, 1).is_clean());

    // Asynchronous schemes synchronize mid-stream by design.
    let pipedream = build_named("pipedream", 2, 4).expect("known scheme");
    assert!(!pipedream.flushes);
    train(&pipedream, ModelConfig::tiny(), TrainOptions::default()).expect("pipedream trains");
}

/// A stage one holder synchronizes with explicit ops and its partner post-hoc
/// is not a schedule any generator or `place_sync` strategy emits, and the
/// executor's collective model stalls on it: refused, with the explicit
/// holder's launch named, and not clean.
#[test]
fn mixed_explicit_and_implicit_sync_is_refused() {
    let mut sched = place_sync(
        build_named("chimera", 4, 4).expect("known scheme"),
        SyncStrategy::Eager,
        UnitCosts::practical(),
    );
    // Stage 0 lives on P0 and P3; P3 keeps its explicit ops.
    sched.workers[0].retain(|op| op.is_compute() || op.stage.0 != 0);
    let err = train(&sched, ModelConfig::tiny(), TrainOptions::default()).unwrap_err();
    let TrainError::UnsupportedSchedule { worker, op, reason } = &err else {
        panic!("expected UnsupportedSchedule, got {err}");
    };
    assert_eq!(*worker, 3);
    assert!(op.starts_with("AR+(s0"), "{op}");
    assert!(reason.contains("disagree on its rounds"), "{reason}");
    assert!(!verify_span(&sched, 1).is_clean());
}

/// Gradients fold in key order as the backwards make them, so a worker
/// must run one stage's backwards in increasing micro-batch order between
/// launches. GPipe with its first two backwards swapped on both workers
/// lowers without a defect — the messages still pair up — and the verifier
/// has nothing against it, but `train` refuses it, naming the first
/// backward that comes after a later micro-batch's.
#[test]
fn backwards_out_of_micro_order_are_refused() {
    let mut sched = build_named("gpipe", 2, 4).expect("known scheme");
    for ops in &mut sched.workers {
        let first = ops
            .iter()
            .position(chimera_core::Op::is_backward)
            .expect("a backward");
        assert_eq!((ops[first].micro.0, ops[first + 1].micro.0), (0, 1));
        ops.swap(first, first + 1);
    }
    assert!(chimera_core::program::lower(&sched, 1).defects.is_empty());
    assert!(verify_span(&sched, 1).is_clean());

    let err = train(&sched, ModelConfig::tiny(), TrainOptions::default()).unwrap_err();
    let TrainError::UnsupportedSchedule { worker, op, reason } = &err else {
        panic!("expected UnsupportedSchedule, got {err}");
    };
    let late = sched.workers[0]
        .iter()
        .find(|op| op.is_backward() && op.micro.0 == 0)
        .expect("B0");
    assert_eq!((*worker, op), (0, &late.to_string()));
    assert!(reason.contains("increasing micro-batch order"), "{reason}");
}
