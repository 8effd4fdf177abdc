//! Agreement property test: the static deadlock verdict must coincide with
//! dynamic execution — on valid schedules of every scheme and on randomized
//! within-worker mutations of them. `static-pass ∧ dynamic-deadlock` (or the
//! reverse) is a failure, and when both deadlock the blocked frontier sets
//! must be identical.

use std::collections::HashMap;

use chimera_core::baselines::{dapple, gems, gpipe, pipedream, pipedream_2bw};
use chimera_core::chimera::{chimera, ChimeraConfig, ScaleMethod};
use chimera_core::schedule::Schedule;
use chimera_core::unit_time::{execute, ExecError, UnitCosts};
use chimera_verify::graph::analyze;
use chimera_verify::verify_span;

/// Deterministic xorshift64* RNG (the vendored proptest stub is not a real
/// property engine, so randomness is hand-rolled and seeded).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// All generator outputs for one depth.
fn schedules_for(d: u32) -> Vec<Schedule> {
    let n = 2 * d;
    let mut out = vec![
        gpipe(d, n),
        dapple(d, n),
        pipedream(d, n),
        pipedream_2bw(d, n),
        gems(d, n),
        chimera(&ChimeraConfig::new(d, n)).unwrap(),
        chimera(&ChimeraConfig {
            d,
            n,
            f: 1,
            scale: ScaleMethod::BackwardHalving,
        })
        .unwrap(),
        chimera(&ChimeraConfig {
            d,
            n,
            f: 1,
            scale: ScaleMethod::ForwardDoubling,
        })
        .unwrap(),
    ];
    // f = 2 needs f | D/2.
    if (d / 2).is_multiple_of(2) {
        out.push(
            chimera(&ChimeraConfig {
                d,
                n,
                f: 2,
                scale: ScaleMethod::Direct,
            })
            .unwrap(),
        );
    }
    out
}

/// Static analysis and dynamic execution must agree on the deadlock verdict
/// and, when deadlocked, on the exact blocked set.
fn assert_agreement(s: &Schedule, ctx: &str) {
    let a = analyze(s);
    match execute(s, UnitCosts::equal()) {
        Ok(_) => {
            assert!(
                !a.deadlock,
                "{ctx}: static says deadlock, dynamic completes; static blocked: {:?}",
                a.blocked
            );
        }
        Err(ExecError::Deadlock { blocked }) => {
            assert!(
                a.deadlock,
                "{ctx}: dynamic deadlocks ({blocked:?}), static says clean"
            );
            let stat: Vec<(u32, usize)> =
                a.blocked.iter().map(|b| (b.worker, b.op_index)).collect();
            let dynamic: Vec<(u32, usize)> =
                blocked.iter().map(|b| (b.worker.0, b.op_index)).collect();
            assert_eq!(stat, dynamic, "{ctx}: blocked sets differ");
            assert!(
                !a.diagnostics.is_empty(),
                "{ctx}: deadlock must carry a cycle/missing-producer diagnostic"
            );
        }
        Err(other) => panic!("{ctx}: unexpected exec error {other:?}"),
    }
}

/// A stash defect is one `(op, micro)`; it must surface under exactly one of
/// the three stable codes, located (last) at the offending op — never twice,
/// and never under a retired twin code.
fn assert_one_code_per_stash_defect(s: &Schedule, ctx: &str) {
    const STASH_CODES: [&str; 3] = ["overwritten_stash", "use_before_def", "double_free"];
    let report = verify_span(s, 1);
    let mut per_op: HashMap<(u32, usize), usize> = HashMap::new();
    for d in &report.diagnostics {
        assert!(
            !d.code.starts_with("stash_"),
            "{ctx}: retired code {}",
            d.code
        );
        if STASH_CODES.contains(&d.code) {
            let at = d.locations.last().expect("stash defects name their op");
            *per_op.entry((at.worker, at.op_index)).or_insert(0) += 1;
        }
    }
    for ((w, i), count) in per_op {
        let micros = s.workers[w as usize][i].covered_micros().count();
        assert!(
            count <= micros,
            "{ctx}: P{w} op #{i} covers {micros} micro(s) but carries {count} stash diagnostics"
        );
    }
}

/// Mutate `s` in place without breaking structural well-formedness: ops only
/// ever move *within* a worker (placement stays consistent) or get deleted.
fn mutate(s: &mut Schedule, rng: &mut Rng) -> String {
    loop {
        let w = rng.below(s.workers.len());
        let len = s.workers[w].len();
        if len < 2 {
            continue;
        }
        return match rng.below(4) {
            0 => {
                let i = rng.below(len);
                let j = rng.below(len);
                s.workers[w].swap(i, j);
                format!("swap P{w} #{i} <-> #{j}")
            }
            1 => {
                let i = rng.below(len);
                let j = rng.below(len);
                let (lo, hi) = (i.min(j), i.max(j));
                s.workers[w][lo..=hi].rotate_left(1);
                format!("rotate P{w} #{lo}..=#{hi}")
            }
            2 => {
                let i = rng.below(len);
                let op = s.workers[w].remove(i);
                let j = rng.below(s.workers[w].len() + 1);
                s.workers[w].insert(j, op);
                format!("move P{w} #{i} -> #{j}")
            }
            _ => {
                let i = rng.below(len);
                s.workers[w].remove(i);
                format!("delete P{w} #{i}")
            }
        };
    }
}

#[test]
fn valid_schedules_agree_and_verify_clean() {
    for d in [2u32, 4, 8] {
        for s in schedules_for(d) {
            let ctx = format!("{} D={d} N={}", s.scheme, s.n);
            assert_agreement(&s, &ctx);
            let report = verify_span(&s, 1);
            assert!(!report.deadlock, "{ctx}");
            assert!(
                report.is_clean(),
                "{ctx}: {:?}",
                report.errors().collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn mutated_schedules_agree() {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut deadlocks = 0usize;
    let mut total = 0usize;
    for d in [2u32, 4, 8] {
        for base in schedules_for(d) {
            for _ in 0..24 {
                let mut s = base.clone();
                let mut desc = Vec::new();
                // 1-3 stacked mutations.
                for _ in 0..=rng.below(3) {
                    desc.push(mutate(&mut s, &mut rng));
                }
                let ctx = format!("{} D={d} [{}]", s.scheme, desc.join("; "));
                assert_agreement(&s, &ctx);
                assert_one_code_per_stash_defect(&s, &ctx);
                total += 1;
                if analyze(&s).deadlock {
                    deadlocks += 1;
                }
            }
        }
    }
    // The mutation space must actually exercise both outcomes.
    assert!(deadlocks > 0, "no mutation deadlocked ({total} runs)");
    assert!(deadlocks < total, "every mutation deadlocked");
}
