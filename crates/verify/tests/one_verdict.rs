//! One lowering, one verdict: `verify_span` reads the defects of
//! `chimera_core::program::lower` — the lowering the runtime executes — so a
//! schedule it calls clean is one `train` will run, and one it cannot lower
//! is never clean. Pinned on `tests/support/mutants.rs`'s exhaustive mutant
//! set (`chimera-runtime`'s `front_door` test holds the `train` side): every
//! mutant gets a report — no panic — with an error in it, every base is
//! clean, and clean ⇔ no defect on each of them.

use std::panic::AssertUnwindSafe;

use chimera_core::ids::{MicroId, ReplicaId, StageId};
use chimera_core::named::build_named;
use chimera_core::op::Op;
use chimera_core::placement::Placement;
use chimera_core::program::lower;
use chimera_core::schedule::{Schedule, SyncStrategy};
use chimera_core::sync::place_sync;
use chimera_core::unit_time::UnitCosts;
use chimera_verify::{verify_span, VerifyReport};

#[path = "../../../tests/support/mutants.rs"]
mod mutants;
use mutants::{clean_schedules, for_each_mutant};

/// `verify_span`, which must return whatever it is given.
fn verdict(sched: &Schedule, what: &str) -> VerifyReport {
    std::panic::catch_unwind(AssertUnwindSafe(|| verify_span(sched, 1)))
        .unwrap_or_else(|_| panic!("{what}: verify_span panicked"))
}

fn codes(report: &VerifyReport) -> Vec<&'static str> {
    report.errors().map(|d| d.code).collect()
}

#[test]
fn every_mutant_gets_a_report_and_none_is_clean() {
    let (mut bases, mut mutants) = (0, 0);
    for d in [2u32, 4] {
        for (name, clean) in clean_schedules(d) {
            let report = verdict(&clean, &name);
            assert!(report.is_clean(), "{name}:\n{report}");
            assert_eq!(lower(&clean, 1).defects, [], "{name}");
            bases += 1;
            mutants += for_each_mutant(&name, &clean, |mutant, what| {
                let report = verdict(mutant, what);
                assert!(!report.is_clean(), "{what}: called clean");
                // Not clean for the reason the runtime refuses it: a defect.
                assert!(!lower(mutant, 1).defects.is_empty(), "{what}: lowers");
            });
        }
    }
    assert_eq!((bases, mutants), (22, 4128));
}

/// §3.5's chunked schedules lower without defects and verify clean, though
/// the runtime does not execute their rows yet.
#[test]
fn doubling_and_halving_lower_cleanly() {
    for scheme in ["doubling", "halving"] {
        for d in [4u32, 8] {
            let sched = build_named(scheme, d, 2 * d).expect("known scheme");
            assert_eq!(lower(&sched, 1).defects, [], "{scheme} D={d}");
            let report = verdict(&sched, scheme);
            assert!(report.is_clean(), "{scheme} D={d}:\n{report}");
        }
    }
}

/// The schedule the parent commit trained without complaint (14174 of 14239
/// parameters off after three iterations): P0's launch and wait run before
/// its last backward. Not clean, with the launch located.
#[test]
fn a_premature_sync_is_an_error_located_at_the_launch() {
    let mut sched = place_sync(
        build_named("dapple", 2, 4).expect("known scheme"),
        SyncStrategy::Eager,
        UnitCosts::practical(),
    );
    let ops = &mut sched.workers[0];
    let last_backward = ops.iter().rposition(Op::is_backward).expect("a backward");
    ops[last_backward..].rotate_left(1);
    let report = verdict(&sched, "premature sync");
    let premature: Vec<_> = (report.errors())
        .filter(|d| d.code == "premature_sync")
        .collect();
    assert_eq!(premature.len(), 1, "{report}");
    let at = &premature[0].locations[0];
    assert_eq!((at.worker, at.op_index), (0, last_backward), "{report}");
    assert!(at.op.starts_with("AR+"), "{at}");

    // Per iteration of a span: three iterations back to back keep each
    // round behind its own iteration's backwards and stay clean…
    let eager = |d, n| {
        place_sync(
            build_named("dapple", d, n).expect("known scheme"),
            SyncStrategy::Eager,
            UnitCosts::practical(),
        )
    };
    let span = chimera_core::repeat::concat_iterations(&eager(2, 4), 3, false);
    assert!(verify_span(&span, 3).is_clean());
    // …while the same ops read as one iteration launch two rounds early.
    assert_eq!(
        codes(&verify_span(&span, 1)),
        ["premature_sync"; 4],
        "two early rounds on each of two workers"
    );

    // Asynchronous schemes synchronize mid-stream by design.
    let pipedream = build_named("pipedream", 4, 8).expect("known scheme");
    assert!(!pipedream.flushes && verify_span(&pipedream, 2).is_clean());
}

/// An unbalanced launch/wait used to pass: the executor completes a
/// collective once enough launches arrived, whoever waits.
#[test]
fn an_unwaited_launch_is_an_error() {
    let mut sched = place_sync(
        build_named("gpipe", 2, 2).expect("known scheme"),
        SyncStrategy::Eager,
        UnitCosts::practical(),
    );
    let wait = sched.workers[1].pop().expect("the wait closes the list");
    assert_eq!(wait, Op::allreduce_wait(StageId(1), ReplicaId(0)));
    assert_eq!(codes(&verdict(&sched, "dropped wait")), ["unbalanced_sync"]);
}

/// A stage synchronized explicitly by one holder and post-hoc by the other:
/// the executor's collective stalls on it and lowering refuses it, so not
/// clean ⇔ has a defect holds off the mutant set's operators too.
#[test]
fn mixed_explicit_and_implicit_sync_is_not_clean_and_does_not_lower() {
    let eager = place_sync(
        build_named("chimera", 4, 4).expect("known scheme"),
        SyncStrategy::Eager,
        UnitCosts::practical(),
    );
    // Stage 0 lives on P0 and P3.
    for (stripped, explicit) in [(0usize, 3u32), (3, 0)] {
        let mut sched = eager.clone();
        sched.workers[stripped].retain(|op| op.is_compute() || op.stage.0 != 0);
        let defects = lower(&sched, 1).defects;
        let named: Vec<_> = defects.iter().map(|d| (d.worker, d.kind.code())).collect();
        assert_eq!(named, [(explicit, "sync_rounds_mismatch")]);
        let launch = sched.workers[explicit as usize][defects[0].op_ix];
        assert_eq!(launch, Op::allreduce_launch(StageId(0), launch.replica));
        let report = verdict(&sched, "mixed sync");
        assert!(report.deadlock && !report.is_clean(), "{report}");
    }
}

/// What `assert_well_formed` panics on is a report with a structural code.
#[test]
fn malformed_schedules_get_structural_diagnostics() {
    let base = build_named("gpipe", 2, 2).expect("known scheme");
    let forward = |m, s, r| Op::forward(MicroId(m), StageId(s), ReplicaId(r));

    for bad in [forward(0, 7, 0), forward(0, 0, 3), forward(9, 0, 0)] {
        let mut sched = base.clone();
        sched.workers[0].push(bad);
        let what = format!("{bad} appended");
        assert_eq!(
            codes(&verdict(&sched, &what)),
            ["id_out_of_range"],
            "{what}"
        );
    }

    let mut sched = base.clone();
    let moved = sched.workers[0].remove(0);
    sched.workers[1].insert(0, moved);
    let report = verdict(&sched, "forward on the wrong worker");
    assert!(codes(&report).contains(&"misplaced_op"), "{report}");

    let mut sched = base.clone();
    sched.workers.pop();
    assert_eq!(
        codes(&verdict(&sched, "a worker short")),
        ["malformed_schedule"]
    );
    let mut sched = base.clone();
    sched.placement = Placement::linear(4);
    assert_eq!(
        codes(&verdict(&sched, "placement of another depth")),
        ["malformed_schedule"]
    );
    let mut sched = base;
    sched.workers.clear();
    sched.d = 0;
    assert!(!verdict(&sched, "no workers at all").is_clean());
}
