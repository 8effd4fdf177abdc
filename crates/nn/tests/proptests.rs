//! Property tests over the parameter-update path.

use proptest::prelude::*;

use chimera_nn::{ModelConfig, Optimizer, OptimizerKind, Stage};

/// xorshift64*: the vendored proptest stub samples scalars only, so
/// gradients are expanded from a sampled seed.
struct Rng(u64);

impl Rng {
    fn next_f32(&mut self) -> f32 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        let bits = self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40;
        bits as f32 / (1u64 << 23) as f32 - 1.0
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Stage::step` updates the parameter tensors where they live; the
    /// flatten → whole-vector step → load-back path it replaced is the
    /// oracle. Parameters and optimizer moments must agree bit for bit over
    /// consecutive steps, for both update rules and every stage role.
    #[test]
    fn in_place_step_matches_flatten_step_load(
        seed in 1u64..u64::MAX,
        role in 0u32..3,
        adam in 0u32..2,
    ) {
        // Depth 4 over four layers: stage 0 holds the embedding, 1 is a bare
        // block, 3 holds the head.
        let index = [0, 1, 3][role as usize];
        let kind = if adam == 1 {
            OptimizerKind::adam()
        } else {
            OptimizerKind::Sgd { momentum: 0.9 }
        };
        let mut in_place = Stage::build(ModelConfig::tiny(), index, 4);
        let mut oracle = in_place.clone();
        let n = in_place.num_params();
        let (mut opt_a, mut opt_b) = (Optimizer::new(kind, n), Optimizer::new(kind, n));
        let mut rng = Rng(seed);
        for step in 0..3 {
            let grad: Vec<f32> = (0..n).map(|_| rng.next_f32()).collect();
            let lr = 0.01 * (step + 1) as f32;

            in_place.step(&mut opt_a, &grad, lr);

            let mut flat = oracle.params();
            opt_b.step(&mut flat, &grad, lr);
            oracle.set_params(&flat);

            prop_assert_eq!(bits(&in_place.params()), bits(&oracle.params()), "step {}", step);
            let ((ma, va, ta), (mb, vb, tb)) = (opt_a.state(), opt_b.state());
            prop_assert_eq!((bits(ma), bits(va), ta), (bits(mb), bits(vb), tb));
        }
    }
}
