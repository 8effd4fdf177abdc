//! What the Chimera generator produces, pinned: per-worker bubble slots
//! under the merge's own equal-slot costs and per-worker stash peaks for the
//! three §3.5 methods, and a digest of every op order over a wider matrix.
//!
//! The bubble and stash columns make EXPERIMENTS' deviation 2 a checked
//! fact: past N = D the merge keeps more than §3.5's minimum of D/f − 2
//! bubble slots per worker, because its micro window holds the stash peak
//! down. The ignored `print_pins` test prints both tables; regenerate them
//! only from a build whose schedules are meant to change, and say so.

use chimera_core::chimera::{chimera, ChimeraConfig, ScaleMethod};
use chimera_core::program::lower;
use chimera_core::unit_time::{execute, UnitCosts};
use std::fmt::Write;

const SCALES: [ScaleMethod; 3] = [
    ScaleMethod::Direct,
    ScaleMethod::ForwardDoubling,
    ScaleMethod::BackwardHalving,
];

fn scale_name(scale: ScaleMethod) -> &'static str {
    match scale {
        ScaleMethod::Direct => "direct",
        ScaleMethod::ForwardDoubling => "doubling",
        ScaleMethod::BackwardHalving => "halving",
    }
}

/// The costs the merge orders a method's ops under, and the ticks of one
/// slot: every forward and backward of the method then takes one slot.
fn merge_costs(scale: ScaleMethod) -> (UnitCosts, u64) {
    match scale {
        ScaleMethod::Direct => (UnitCosts::equal(), 2),
        // A paired forward and a recomputing backward: 4 ticks each.
        ScaleMethod::ForwardDoubling => (UnitCosts::equal(), 4),
        // A forward and a half backward: 2 ticks each.
        ScaleMethod::BackwardHalving => (UnitCosts::practical(), 2),
    }
}

/// `f` values §3.6 allows at depth `d`.
fn pairs(d: u32) -> impl Iterator<Item = u32> {
    (1..=d / 2).filter(move |f| (d / 2).is_multiple_of(*f))
}

fn spaced(values: impl IntoIterator<Item = u64>) -> String {
    let v: Vec<String> = values.into_iter().map(|x| x.to_string()).collect();
    v.join(" ")
}

/// `(label, bubble slots per worker, stash slots per worker)` over
/// D ∈ {2, 4, 8, 16}, f ∈ {1, 2} and N ∈ {D, 2D, 4D, 8D}.
fn slot_rows() -> Vec<(String, String, String)> {
    let mut rows = Vec::new();
    for scale in SCALES {
        for d in [2, 4, 8, 16] {
            for f in pairs(d).filter(|&f| f <= 2) {
                for n in [d, 2 * d, 4 * d, 8 * d] {
                    let sched = chimera(&ChimeraConfig { d, n, f, scale }).unwrap();
                    let (costs, slot) = merge_costs(scale);
                    let label = format!("{}/d{d}/f{f}/n{n}", scale_name(scale));
                    let bubbles = execute(&sched, costs).unwrap().per_worker_bubbles();
                    assert!(
                        bubbles.iter().all(|b| b % slot == 0),
                        "{label}: {bubbles:?}"
                    );
                    let programs = lower(&sched, 1).programs;
                    let stash = spaced(programs.iter().map(|p| p.stash_slots as u64));
                    rows.push((label, spaced(bubbles.iter().map(|b| b / slot)), stash));
                }
            }
        }
    }
    rows
}

/// FNV-1a of every worker's op order, over each f | D/2, the three methods
/// and N ∈ 1..=4D ∪ {5D, 6D, 7D, 8D}.
fn digest(d: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut text = String::new();
    for f in pairs(d) {
        for scale in SCALES {
            for n in (1..=4 * d).chain([5 * d, 6 * d, 7 * d, 8 * d]) {
                let sched = chimera(&ChimeraConfig { d, n, f, scale }).unwrap();
                text.clear();
                for ops in &sched.workers {
                    for op in ops {
                        write!(text, "{op} ").unwrap();
                    }
                    text.push('|');
                }
                for b in text.bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    h
}

/// Depths the digest covers; a debug build leaves out D = 32 (CI runs the
/// whole list in `--release`).
fn digest_depths() -> Vec<u32> {
    let depths = [2, 4, 6, 8, 12, 16, 32];
    let full = !cfg!(debug_assertions);
    depths.into_iter().filter(|&d| full || d < 32).collect()
}

#[test]
fn bubble_and_stash_slots_are_pinned() {
    let rows = slot_rows();
    assert_eq!(rows.len(), SLOTS.len(), "the case matrix changed");
    for ((label, bubbles, stash), (pinned, pinned_bubbles, pinned_stash)) in rows.iter().zip(SLOTS)
    {
        assert_eq!(label, pinned, "the case matrix changed");
        assert_eq!(bubbles, pinned_bubbles, "{label}: bubble slots per worker");
        assert_eq!(stash, pinned_stash, "{label}: stash slots per worker");
    }
}

#[test]
fn op_orders_match_the_pinned_digests() {
    for d in digest_depths() {
        let pinned = DIGESTS.iter().find(|(pd, _)| *pd == d).expect("pinned");
        assert_eq!(digest(d), pinned.1, "D={d}: some Chimera op order moved");
    }
}

#[test]
#[ignore = "prints the tables to paste into SLOTS and DIGESTS"]
fn print_pins() {
    for (label, bubbles, stash) in slot_rows() {
        println!("    (\"{label}\", \"{bubbles}\", \"{stash}\"),");
    }
    for d in digest_depths() {
        println!("    ({d}, {:#018x}),", digest(d));
    }
}

#[rustfmt::skip]
const SLOTS: &[(&str, &str, &str)] = &[
    ("direct/d2/f1/n2", "0 0", "2 2"),
    ("direct/d2/f1/n4", "0 0", "2 2"),
    ("direct/d2/f1/n8", "0 0", "2 2"),
    ("direct/d2/f1/n16", "0 0", "2 2"),
    ("direct/d4/f1/n4", "2 2 2 2", "3 4 4 3"),
    ("direct/d4/f1/n8", "2 2 2 2", "3 4 4 3"),
    ("direct/d4/f1/n16", "2 2 2 2", "3 4 4 3"),
    ("direct/d4/f1/n32", "2 2 2 2", "3 4 4 3"),
    ("direct/d4/f2/n4", "0 0 0 0", "4 4 4 4"),
    ("direct/d4/f2/n8", "0 0 0 0", "4 4 4 4"),
    ("direct/d4/f2/n16", "0 0 0 0", "4 4 4 4"),
    ("direct/d4/f2/n32", "0 0 0 0", "4 4 4 4"),
    ("direct/d8/f1/n8", "6 6 6 6 6 6 6 6", "5 6 7 8 8 7 6 5"),
    ("direct/d8/f1/n16", "10 10 10 10 10 10 10 10", "5 6 7 8 8 7 6 5"),
    ("direct/d8/f1/n32", "18 18 18 18 18 18 18 18", "5 6 7 8 8 7 6 5"),
    ("direct/d8/f1/n64", "34 34 34 34 34 34 34 34", "5 6 7 8 8 7 6 5"),
    ("direct/d8/f2/n8", "2 2 2 2 2 2 2 2", "7 8 8 7 7 8 8 7"),
    ("direct/d8/f2/n16", "4 4 4 4 4 4 4 4", "7 8 8 7 7 8 8 7"),
    ("direct/d8/f2/n32", "8 8 8 8 8 8 8 8", "7 8 8 7 7 8 8 7"),
    ("direct/d8/f2/n64", "16 16 16 16 16 16 16 16", "7 8 8 7 7 8 8 7"),
    ("direct/d16/f1/n16", "14 14 14 14 14 14 14 14 14 14 14 14 14 14 14 14", "9 10 11 12 13 14 15 16 16 15 14 13 12 11 10 9"),
    ("direct/d16/f1/n32", "26 26 26 26 26 26 26 26 26 26 26 26 26 26 26 26", "9 10 11 12 13 14 15 16 16 15 14 13 12 11 10 9"),
    ("direct/d16/f1/n64", "48 48 48 48 48 48 48 48 48 48 48 48 48 48 48 48", "9 10 11 12 13 14 15 16 16 15 14 13 12 11 10 9"),
    ("direct/d16/f1/n128", "92 92 92 92 92 92 92 92 92 92 92 92 92 92 92 92", "9 10 11 12 13 14 15 16 16 15 14 13 12 11 10 9"),
    ("direct/d16/f2/n16", "6 6 6 6 6 6 6 6 6 6 6 6 6 6 6 6", "13 14 15 16 16 15 14 13 13 14 15 16 16 15 14 13"),
    ("direct/d16/f2/n32", "13 13 13 13 13 13 13 13 13 13 13 13 13 13 13 13", "13 14 15 16 16 15 14 13 13 14 15 16 16 15 14 13"),
    ("direct/d16/f2/n64", "27 27 27 27 27 27 27 27 27 27 27 27 27 27 27 27", "13 14 15 16 16 15 14 13 13 14 15 16 16 15 14 13"),
    ("direct/d16/f2/n128", "55 55 55 55 55 55 55 55 55 55 55 55 55 55 55 55", "13 14 15 16 16 15 14 13 13 14 15 16 16 15 14 13"),
    ("doubling/d2/f1/n2", "2 2", "2 2"),
    ("doubling/d2/f1/n4", "0 0", "4 4"),
    ("doubling/d2/f1/n8", "0 0", "4 4"),
    ("doubling/d2/f1/n16", "0 0", "4 4"),
    ("doubling/d4/f1/n4", "4 4 4 4", "4 4 4 4"),
    ("doubling/d4/f1/n8", "2 2 2 2", "6 8 8 6"),
    ("doubling/d4/f1/n16", "2 2 2 2", "6 8 8 6"),
    ("doubling/d4/f1/n32", "2 2 2 2", "6 8 8 6"),
    ("doubling/d4/f2/n4", "4 4 4 4", "4 4 4 4"),
    ("doubling/d4/f2/n8", "0 0 0 0", "8 8 8 8"),
    ("doubling/d4/f2/n16", "0 0 0 0", "8 8 8 8"),
    ("doubling/d4/f2/n32", "0 0 0 0", "8 8 8 8"),
    ("doubling/d8/f1/n8", "10 10 10 10 10 10 10 10", "6 8 8 8 8 8 8 6"),
    ("doubling/d8/f1/n16", "6 6 6 6 6 6 6 6", "10 12 14 16 16 14 12 10"),
    ("doubling/d8/f1/n32", "10 10 10 10 10 10 10 10", "10 12 14 16 16 14 12 10"),
    ("doubling/d8/f1/n64", "18 18 18 18 18 18 18 18", "10 12 14 16 16 14 12 10"),
    ("doubling/d8/f2/n8", "6 6 6 6 6 6 6 6", "8 8 8 8 8 8 8 8"),
    ("doubling/d8/f2/n16", "2 2 2 2 2 2 2 2", "14 16 16 14 14 16 16 14"),
    ("doubling/d8/f2/n32", "4 4 4 4 4 4 4 4", "14 16 16 14 14 16 16 14"),
    ("doubling/d8/f2/n64", "8 8 8 8 8 8 8 8", "14 16 16 14 14 16 16 14"),
    ("doubling/d16/f1/n16", "22 22 22 22 22 22 22 22 22 22 22 22 22 22 22 22", "10 12 14 16 16 16 16 16 16 16 16 16 16 14 12 10"),
    ("doubling/d16/f1/n32", "14 14 14 14 14 14 14 14 14 14 14 14 14 14 14 14", "18 20 22 24 26 28 30 32 32 30 28 26 24 22 20 18"),
    ("doubling/d16/f1/n64", "25 25 25 25 25 25 25 25 25 25 25 25 25 25 25 25", "18 20 22 24 26 28 30 32 32 30 28 26 24 22 20 18"),
    ("doubling/d16/f1/n128", "48 48 48 48 48 48 48 48 48 48 48 48 48 48 48 48", "18 20 22 24 26 28 30 32 32 30 28 26 24 22 20 18"),
    ("doubling/d16/f2/n16", "14 14 14 14 14 14 14 14 14 14 14 14 14 14 14 14", "14 16 16 16 16 16 16 14 14 16 16 16 16 16 16 14"),
    ("doubling/d16/f2/n32", "6 6 6 6 6 6 6 6 6 6 6 6 6 6 6 6", "26 28 30 32 32 30 28 26 26 28 30 32 32 30 28 26"),
    ("doubling/d16/f2/n64", "13 13 13 13 13 13 13 13 13 13 13 13 13 13 13 13", "26 28 30 32 32 30 28 26 26 28 30 32 32 30 28 26"),
    ("doubling/d16/f2/n128", "27 27 27 27 27 27 27 27 27 27 27 27 27 27 27 27", "26 28 30 32 32 30 28 26 26 28 30 32 32 30 28 26"),
    ("halving/d2/f1/n2", "0 0", "2 2"),
    ("halving/d2/f1/n4", "0 0", "3 3"),
    ("halving/d2/f1/n8", "0 0", "3 3"),
    ("halving/d2/f1/n16", "0 0", "3 3"),
    ("halving/d4/f1/n4", "2 2 2 2", "3 4 4 3"),
    ("halving/d4/f1/n8", "2 2 2 2", "5 5 5 5"),
    ("halving/d4/f1/n16", "3 3 3 3", "5 5 5 5"),
    ("halving/d4/f1/n32", "3 3 3 3", "5 5 5 5"),
    ("halving/d4/f2/n4", "0 0 0 0", "4 4 4 4"),
    ("halving/d4/f2/n8", "0 0 0 0", "7 7 7 7"),
    ("halving/d4/f2/n16", "0 0 0 0", "7 7 7 7"),
    ("halving/d4/f2/n32", "0 0 0 0", "7 7 7 7"),
    ("halving/d8/f1/n8", "6 6 6 6 6 6 6 6", "5 6 7 8 8 7 6 5"),
    ("halving/d8/f1/n16", "6 6 6 6 6 6 6 6", "9 9 9 9 9 9 9 9"),
    ("halving/d8/f1/n32", "10 10 10 10 10 10 10 10", "9 9 9 9 9 9 9 9"),
    ("halving/d8/f1/n64", "18 18 18 18 18 18 18 18", "9 9 9 9 9 9 9 9"),
    ("halving/d8/f2/n8", "2 2 2 2 2 2 2 2", "7 8 8 7 7 8 8 7"),
    ("halving/d8/f2/n16", "2 2 2 2 2 2 2 2", "13 13 13 13 13 13 13 13"),
    ("halving/d8/f2/n32", "4 4 4 4 4 4 4 4", "13 13 13 13 13 13 13 13"),
    ("halving/d8/f2/n64", "8 8 8 8 8 8 8 8", "13 13 13 13 13 13 13 13"),
    ("halving/d16/f1/n16", "14 14 14 14 14 14 14 14 14 14 14 14 14 14 14 14", "9 10 11 12 13 14 15 16 16 15 14 13 12 11 10 9"),
    ("halving/d16/f1/n32", "14 14 14 14 14 14 14 14 14 14 14 14 14 14 14 14", "17 17 17 17 17 17 17 17 17 17 17 17 17 17 17 17"),
    ("halving/d16/f1/n64", "26 26 26 26 26 26 26 26 26 26 26 26 26 26 26 26", "17 17 17 17 17 17 17 17 17 17 17 17 17 17 17 17"),
    ("halving/d16/f1/n128", "50 50 50 50 50 50 50 50 50 50 50 50 50 50 50 50", "17 17 17 17 17 17 17 17 17 17 17 17 17 17 17 17"),
    ("halving/d16/f2/n16", "6 6 6 6 6 6 6 6 6 6 6 6 6 6 6 6", "13 14 15 16 16 15 14 13 13 14 15 16 16 15 14 13"),
    ("halving/d16/f2/n32", "6 6 6 6 6 6 6 6 6 6 6 6 6 6 6 6", "25 25 25 25 25 25 25 25 25 25 25 25 25 25 25 25"),
    ("halving/d16/f2/n64", "12 12 12 12 12 12 12 12 12 12 12 12 12 12 12 12", "25 25 25 25 25 25 25 25 25 25 25 25 25 25 25 25"),
    ("halving/d16/f2/n128", "24 24 24 24 24 24 24 24 24 24 24 24 24 24 24 24", "25 25 25 25 25 25 25 25 25 25 25 25 25 25 25 25"),
];

#[rustfmt::skip]
const DIGESTS: &[(u32, u64)] = &[
    (2, 0x623c0c8f4858fc0f),
    (4, 0x12936f7ea768973f),
    (6, 0xe8286ba36e032b01),
    (8, 0x0079a4715836ebf5),
    (12, 0xd8885e9751835757),
    (16, 0x8849a1406018d09f),
    (32, 0x3752c4330e78655d),
];
