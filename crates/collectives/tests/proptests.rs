//! Property tests over the keyed thread collective: the key-ordered sum, for
//! any group size, vector length, and values.

use std::thread;

use proptest::prelude::*;

use chimera_collectives::{keyed_group, sum_in_key_order};
use chimera_tensor::ops::SUM_CHUNK;

fn scatter(n: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
    (0..n)
        .map(|r| {
            (0..len)
                .map(|i| {
                    let x = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add((r * len + i) as u64);
                    ((x >> 33) as i32 % 1000) as f32 / 100.0
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Keyed reduction equals summing all contributions in global key order,
    /// regardless of how keys are distributed among ranks.
    #[test]
    fn keyed_reduce_matches_sequential(n in 1usize..5, items in 1usize..10, len in 1usize..8, seed in 0u64..10_000) {
        // Build `items` keyed vectors, assign them round-robin to ranks.
        let parts = scatter(items, len, seed);
        let expect = {
            let mut acc = parts[0].clone();
            for p in &parts[1..] {
                for (a, b) in acc.iter_mut().zip(p) {
                    *a += b;
                }
            }
            acc
        };
        let members = keyed_group(n);
        let handles: Vec<_> = members
            .into_iter()
            .map(|m| {
                let mine: Vec<(u64, Vec<f32>)> = parts
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % n == m.rank())
                    .map(|(i, v)| (i as u64, v.clone()))
                    .collect();
                thread::spawn(move || m.reduce(mine).to_vec())
            })
            .collect();
        let outs: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for out in &outs {
            // Key-ordered summation == sequential left fold: bitwise equal.
            prop_assert_eq!(out.clone(), expect.clone());
        }
    }

    /// The blocked one-pass reduction equals the pass-per-contribution oracle
    /// it replaced, bit for bit, on values whose sum depends on the order
    /// (1e8, 1, −1e8), with members that contribute nothing, and with vector
    /// lengths on both sides of the kernel's block edge.
    #[test]
    fn blocked_reduce_matches_the_pass_per_contribution_oracle(
        n in 1usize..=5,
        around in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let len = SUM_CHUNK - 1 + around;
        let pick = |i: u64| [1e8f32, 1.0, -1e8][((seed >> 3).wrapping_add(i * 7 + i / 3) % 3) as usize];
        // Member `r` contributes `(seed + r) % 3` vectors — some none at all
        // — under keys that interleave across members.
        let contributions: Vec<Vec<(u64, Vec<f32>)>> = (0..n)
            .map(|r| {
                (0..(seed as usize + r) % 3)
                    .map(|j| {
                        let key = (j * n + (n - 1 - r)) as u64;
                        let v = (0..len as u64).map(|i| pick(i + key)).collect();
                        (key, v)
                    })
                    .collect()
            })
            .collect();
        let expect = sum_in_key_order(
            contributions
                .iter()
                .enumerate()
                .flat_map(|(r, c)| c.iter().map(move |(k, v)| (*k, r, v.clone()))),
        );
        let handles: Vec<_> = keyed_group(n)
            .into_iter()
            .zip(contributions)
            .map(|(m, mine)| thread::spawn(move || m.reduce(mine).to_vec()))
            .collect();
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for h in handles {
            prop_assert_eq!(bits(&h.join().unwrap()), bits(&expect));
        }
    }
}
