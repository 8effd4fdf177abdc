//! The model at every SIMD level the host supports: attention's forward and
//! backward, and whole training steps, must produce the same bits whichever
//! bodies ran — the packed engine's three tiles, `gemm_batch`'s two, the
//! lockstep softmax or the portable rows. `chimera-tensor`'s suites hold
//! each kernel to its reference; this one holds the composition, which is
//! what the runtime's bit-identity claims rest on.
//!
//! A binary of its own: the level cap is process-global.

use chimera_nn::{Attention, ModelConfig, ReferenceTrainer, Stage, SyntheticData};
use chimera_tensor::{Rng, Tensor};

#[path = "../../tensor/tests/common/mod.rs"]
mod common;
use common::at_every_level;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `run` at every level, each result compared with the lowest level's.
fn assert_same_at_every_level(what: &str, mut run: impl FnMut() -> Vec<Vec<f32>>) {
    let mut want: Option<Vec<Vec<u32>>> = None;
    at_every_level(|level| {
        let got: Vec<Vec<u32>> = run().iter().map(|v| bits(v)).collect();
        let want = want.get_or_insert_with(|| got.clone());
        for (part, (got, want)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(got, want, "{what}: part {part} at {}", level.name());
        }
    });
}

/// The shapes of `attention.rs`'s own grid — ragged row and column tiles,
/// `d < LANES`, `d ≥ NR`, one and two samples, masked and not — and the
/// benchmark's long-sequence layer, where both wide bodies run.
#[test]
fn attention_forward_and_backward() {
    let shapes = [
        (1, 3, 2),
        (4, 5, 2),
        (8, 19, 2),
        (16, 16, 2),
        (64, 8, 2),
        (8, 128, 8),
    ];
    for (d, s, heads) in shapes {
        for (b, causal) in [(1, false), (1, true), (2, false), (2, true)] {
            let mut rng = Rng::new(7);
            let h = heads * d;
            let layer = Attention::new(h, heads, s, causal, &mut rng);
            let x = Tensor::normal(b * s, h, 0.5, &mut rng);
            let dy = Tensor::normal(b * s, h, 1.0, &mut rng);
            let what = format!("d={d} s={s} b={b} causal={causal}");
            assert_same_at_every_level(&what, || {
                let (y, stash) = layer.forward(&x);
                let mut grad = vec![0.0; layer.num_params()];
                let dx = layer.backward(&stash, &dy, &mut grad);
                vec![y.data().to_vec(), dx.data().to_vec(), grad]
            });
        }
    }
}

/// Two optimizer steps of the sequential trainer on the benchmark's
/// long-sequence and small shapes (one layer of the former: the scalar
/// level runs it too): losses and updated parameters.
#[test]
fn training_steps() {
    let shapes = [("A", 128, 64, 128, 1, 8, 1), ("S", 64, 64, 16, 4, 4, 2)];
    for (name, vocab, hidden, seq, layers, heads, micro_batch) in shapes {
        let cfg = ModelConfig {
            vocab,
            hidden,
            seq,
            layers,
            heads,
            causal: true,
            seed: 5,
        };
        assert_same_at_every_level(name, || {
            let (stages, data) = (Stage::build_all(cfg, 1), SyntheticData::new(cfg, 9));
            let mut trainer = ReferenceTrainer::new(stages, data, micro_batch, 0.05, 0.9);
            let losses: Vec<f32> = (0..2).map(|i| trainer.train_iteration(2 * i, 2)).collect();
            vec![losses, trainer.flat_params()]
        });
    }
}
