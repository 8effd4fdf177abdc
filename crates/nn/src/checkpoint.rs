//! Binary model checkpoints.
//!
//! Long pipeline-parallel training runs checkpoint their model state; this
//! module serializes a stage-partitioned model to a compact little-endian
//! binary format and restores it bit-exactly. Restoring can re-partition:
//! a checkpoint written from a `D=4` partition can be loaded as `D=8`
//! stages (parameters are partition-independent, see [`crate::stage`]).
//!
//! One format exists, version 2 ([`save_state`] / [`load_state`]): the
//! parameters followed by per-parameter optimizer state (momentum / Adam
//! moments and the step count), which a supervised training runtime needs
//! to resume **bit-identically** after a worker failure: under momentum or
//! Adam, restarting with zeroed moments changes every subsequent update.
//! Optimizer moments are flat per-parameter vectors, so they re-partition
//! exactly like the parameters themselves. Any other version, the retired
//! parameters-only version 1 included, is refused as
//! [`CheckpointError::BadVersion`].

use std::borrow::Borrow;

use bytes::BytesMut;
/// The little-endian cursor traits checkpoints are written and read through,
/// and the buffer [`save_state`] returns; re-exported so the runtime's
/// checkpoint and result files use the same ones.
pub use bytes::{Buf, BufMut, Bytes};

use crate::optim::{Optimizer, OptimizerKind};
use crate::stage::{ModelConfig, Stage};

/// Format magic ("CHIM").
const MAGIC: u32 = 0x4348_494D;
/// The one format version: parameters + optimizer state.
const VERSION: u32 = 2;

/// Optimizer tags in the state section.
const OPT_TAG_SGD: u8 = 0;
const OPT_TAG_ADAM: u8 = 1;

/// Checkpoint decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Not a chimera checkpoint (bad magic).
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The byte stream ended early or has trailing garbage.
    Truncated,
    /// The stored parameter count does not match the configuration.
    ShapeMismatch {
        /// Parameters expected from the stored config.
        expected: usize,
        /// Parameters present in the stream.
        got: usize,
    },
    /// The requested partition depth does not divide the layer count.
    BadDepth(u32),
    /// The optimizer-state section names an optimizer this build does not
    /// know.
    UnknownOptimizer(u8),
    /// A well-formed checkpoint that another run wrote: what differs from
    /// the run restoring it.
    NotThisRun(&'static str),
    /// Reading or writing the checkpoint's backing storage failed.
    Io(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a chimera checkpoint"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated or has trailing bytes"),
            CheckpointError::ShapeMismatch { expected, got } => {
                write!(
                    f,
                    "parameter count mismatch: expected {expected}, got {got}"
                )
            }
            CheckpointError::BadDepth(d) => {
                write!(f, "layers do not divide evenly into {d} stages")
            }
            CheckpointError::UnknownOptimizer(t) => {
                write!(f, "unknown optimizer tag {t} in checkpoint state section")
            }
            CheckpointError::NotThisRun(what) => {
                write!(f, "checkpoint belongs to another run: {what}")
            }
            CheckpointError::Io(e) => write!(f, "checkpoint storage: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Split the next `n` bytes off the front of `buf`, or
/// [`CheckpointError::Truncated`] — the length check every little-endian
/// decoder in the workspace reads through: check one fixed-layout group,
/// then read its fields off the returned slice.
pub fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], CheckpointError> {
    let (head, tail) = buf.split_at_checked(n).ok_or(CheckpointError::Truncated)?;
    *buf = tail;
    Ok(head)
}

/// Append `vals` as little-endian `f32`s (no length prefix).
pub fn put_f32s(buf: &mut impl BufMut, vals: &[f32]) {
    for &v in vals {
        buf.put_f32_le(v);
    }
}

/// Read `n` little-endian `f32`s, length-checked before anything is
/// allocated for them.
pub fn get_f32s(buf: &mut &[u8], n: usize) -> Result<Vec<f32>, CheckpointError> {
    let bytes = n.checked_mul(4).ok_or(CheckpointError::Truncated)?;
    let mut raw = take(buf, bytes)?;
    Ok((0..n).map(|_| raw.get_f32_le()).collect())
}

fn put_header(buf: &mut BytesMut, cfg: &ModelConfig, total: usize) {
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(cfg.vocab as u64);
    buf.put_u64_le(cfg.hidden as u64);
    buf.put_u64_le(cfg.seq as u64);
    buf.put_u64_le(cfg.layers as u64);
    buf.put_u64_le(cfg.heads as u64);
    buf.put_u8(u8::from(cfg.causal));
    buf.put_u64_le(cfg.seed);
    buf.put_u64_le(total as u64);
}

/// Serialize a full model together with its per-stage optimizer state:
/// `model[s]` is stage `s` and the optimizer managing exactly its
/// parameters, owned or borrowed. All stages must share one update rule and
/// step count (true whenever every stage steps once per training iteration).
pub fn save_state<S: Borrow<Stage>, O: Borrow<Optimizer>>(model: &[(S, O)]) -> Bytes {
    let (stages, optimizers): (Vec<&Stage>, Vec<&Optimizer>) = (model.iter())
        .map(|(s, o)| (s.borrow(), o.borrow()))
        .unzip();
    assert!(!stages.is_empty(), "cannot checkpoint an empty model");
    let cfg = *stages[0].config();
    let total: usize = stages.iter().map(|s| s.num_params()).sum();
    let kind = optimizers[0].kind();
    let (_, _, t) = optimizers[0].state();
    for (stage, opt) in stages.iter().zip(&optimizers) {
        assert_eq!(
            opt.len(),
            stage.num_params(),
            "optimizer/stage size mismatch"
        );
        assert_eq!(opt.kind(), kind, "stages must share one optimizer kind");
        assert_eq!(opt.steps(), t, "stages must share one step count");
    }
    let per_param = match kind {
        OptimizerKind::Sgd { .. } => 2,  // params + m
        OptimizerKind::Adam { .. } => 3, // params + m + v
    };
    let mut buf = BytesMut::with_capacity(96 + total * 4 * per_param);
    put_header(&mut buf, &cfg, total);
    for stage in &stages {
        put_f32s(&mut buf, &stage.params());
    }
    match kind {
        OptimizerKind::Sgd { momentum } => {
            buf.put_u8(OPT_TAG_SGD);
            buf.put_f32_le(momentum);
        }
        OptimizerKind::Adam { beta1, beta2, eps } => {
            buf.put_u8(OPT_TAG_ADAM);
            buf.put_f32_le(beta1);
            buf.put_f32_le(beta2);
            buf.put_f32_le(eps);
        }
    }
    buf.put_u64_le(t);
    for opt in &optimizers {
        put_f32s(&mut buf, opt.state().0);
    }
    if matches!(kind, OptimizerKind::Adam { .. }) {
        for opt in &optimizers {
            put_f32s(&mut buf, opt.state().1);
        }
    }
    buf.freeze()
}

/// Restore a model **and** its per-stage optimizer state, re-partitioned
/// into `depth` stages.
pub fn load_state(
    bytes: &[u8],
    depth: u32,
) -> Result<(Vec<Stage>, Vec<Optimizer>), CheckpointError> {
    let mut buf = bytes;
    let mut head = take(&mut buf, 8)?;
    if head.get_u32_le() != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = head.get_u32_le();
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let mut head = take(&mut buf, 5 * 8 + 1 + 8 + 8)?;
    let cfg = ModelConfig {
        vocab: head.get_u64_le() as usize,
        hidden: head.get_u64_le() as usize,
        seq: head.get_u64_le() as usize,
        layers: head.get_u64_le() as usize,
        heads: head.get_u64_le() as usize,
        causal: head.get_u8() != 0,
        seed: head.get_u64_le(),
    };
    if !cfg.layers.is_multiple_of(depth as usize) || depth == 0 {
        return Err(CheckpointError::BadDepth(depth));
    }
    let total = head.get_u64_le() as usize;
    if buf.remaining() / 4 < total {
        return Err(CheckpointError::ShapeMismatch {
            expected: total,
            got: buf.remaining() / 4,
        });
    }
    let mut stages = Stage::build_all(cfg, depth);
    let expected: usize = stages.iter().map(Stage::num_params).sum();
    if expected != total {
        return Err(CheckpointError::ShapeMismatch {
            expected,
            got: total,
        });
    }
    for stage in &mut stages {
        stage.set_params(&get_f32s(&mut buf, stage.num_params())?);
    }
    let kind = match take(&mut buf, 1)?[0] {
        OPT_TAG_SGD => OptimizerKind::Sgd {
            momentum: take(&mut buf, 4)?.get_f32_le(),
        },
        OPT_TAG_ADAM => {
            let mut hyper = take(&mut buf, 12)?;
            OptimizerKind::Adam {
                beta1: hyper.get_f32_le(),
                beta2: hyper.get_f32_le(),
                eps: hyper.get_f32_le(),
            }
        }
        other => return Err(CheckpointError::UnknownOptimizer(other)),
    };
    let t = take(&mut buf, 8)?.get_u64_le();
    let m_flat = get_f32s(&mut buf, total)?;
    let v_flat = match kind {
        OptimizerKind::Sgd { .. } => Vec::new(),
        OptimizerKind::Adam { .. } => get_f32s(&mut buf, total)?,
    };
    if buf.remaining() != 0 {
        return Err(CheckpointError::Truncated);
    }
    // Moments are flat per-parameter vectors in the same global order as
    // the parameters, so they re-partition by the same split.
    let mut optimizers = Vec::with_capacity(stages.len());
    let mut off = 0;
    for stage in &stages {
        let n = stage.num_params();
        let m = m_flat[off..off + n].to_vec();
        let v = v_flat.get(off..off + n).unwrap_or_default().to_vec();
        optimizers.push(Optimizer::from_state(kind, m, v, t));
        off += n;
    }
    Ok((stages, optimizers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticData;
    use crate::reference::ReferenceTrainer;

    fn trained_model() -> Vec<Stage> {
        let cfg = ModelConfig::tiny();
        let mut t = ReferenceTrainer::new(
            Stage::build_all(cfg, 2),
            SyntheticData::new(cfg, 1),
            2,
            0.05,
            0.9,
        );
        t.train_iteration(0, 4);
        t.stages
    }

    /// Magic, version, five config words, the causal flag, seed and
    /// parameter count: where the parameters start.
    const HEADER: usize = 8 + 5 * 8 + 1 + 8 + 8;

    /// A trained D=2 model with momentum-SGD state, and its checkpoint.
    fn saved() -> (Vec<Stage>, Bytes) {
        let stages = trained_model();
        let optimizers: Vec<Optimizer> = stages
            .iter()
            .map(|s| Optimizer::new(OptimizerKind::Sgd { momentum: 0.9 }, s.num_params()))
            .collect();
        let model: Vec<_> = stages.iter().zip(&optimizers).collect();
        let bytes = save_state(&model);
        (stages, bytes)
    }

    #[test]
    fn repartition_on_load() {
        let (stages, bytes) = saved(); // trained as D=2
        for depth in [1u32, 2, 4] {
            let (restored, optimizers) = load_state(&bytes, depth).unwrap();
            assert_eq!(restored.len(), depth as usize);
            assert_eq!(optimizers.len(), depth as usize);
            let a: Vec<f32> = stages.iter().flat_map(Stage::params).collect();
            let b: Vec<f32> = restored.iter().flat_map(Stage::params).collect();
            assert_eq!(a, b, "depth {depth}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            load_state(b"nope", 2).unwrap_err(),
            CheckpointError::Truncated
        );
        let mut bytes = saved().1.to_vec();
        bytes[0] ^= 0xFF;
        assert_eq!(
            load_state(&bytes, 2).unwrap_err(),
            CheckpointError::BadMagic
        );
    }

    #[test]
    fn truncation_detected() {
        // Cut inside the parameters: fewer floats than the stored count.
        let (stages, bytes) = saved();
        let total: usize = stages.iter().map(Stage::num_params).sum();
        let cut = &bytes[..HEADER + total * 4 - 4];
        assert!(matches!(
            load_state(cut, 2),
            Err(CheckpointError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn bad_depth_rejected() {
        let bytes = saved().1;
        assert_eq!(
            load_state(&bytes, 3).unwrap_err(),
            CheckpointError::BadDepth(3)
        );
        assert_eq!(
            load_state(&bytes, 0).unwrap_err(),
            CheckpointError::BadDepth(0)
        );
    }

    #[test]
    fn version_checked() {
        let mut bytes = saved().1.to_vec();
        bytes[4] = 99;
        assert_eq!(
            load_state(&bytes, 2).unwrap_err(),
            CheckpointError::BadVersion(99)
        );
    }

    /// The retired parameters-only format (version 1: the header and the
    /// parameters, nothing after them) is refused by its version, not
    /// decoded.
    #[test]
    fn version_1_is_refused() {
        let (stages, bytes) = saved();
        let total: usize = stages.iter().map(Stage::num_params).sum();
        let mut v1 = bytes[..HEADER + total * 4].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            load_state(&v1, 2).unwrap_err(),
            CheckpointError::BadVersion(1)
        );
    }

    #[test]
    fn stored_config_shape_mismatch_detected() {
        // Corrupt the stored hidden size: the config then disagrees with the
        // stored parameter count.
        let mut bytes = saved().1.to_vec();
        bytes[16] = bytes[16].wrapping_add(8); // hidden u64 at offset 16
        assert!(matches!(
            load_state(&bytes, 2),
            Err(CheckpointError::ShapeMismatch { .. })
        ));
    }

    /// Train with a real optimizer, checkpoint params+state, restore under a
    /// different partition depth, and check every float is bit-identical.
    fn state_roundtrip(kind: OptimizerKind, save_depth: u32, load_depth: u32) {
        let cfg = ModelConfig {
            layers: 8,
            ..ModelConfig::tiny()
        };
        let mut stages = Stage::build_all(cfg, save_depth);
        let mut optimizers: Vec<Optimizer> = stages
            .iter()
            .map(|s| Optimizer::new(kind, s.num_params()))
            .collect();
        // A few non-trivial steps so m/v/t are all non-zero.
        for step in 0..3u64 {
            for (stage, opt) in stages.iter_mut().zip(&mut optimizers) {
                let n = stage.num_params();
                let grad: Vec<f32> = (0..n)
                    .map(|i| ((i as f32) + step as f32).sin() * 0.01)
                    .collect();
                let mut params = stage.params();
                opt.step(&mut params, &grad, 0.05);
                stage.set_params(&params);
            }
        }
        let model: Vec<_> = stages.iter().zip(&optimizers).collect();
        let bytes = save_state(&model);
        let (restored, ropts) = load_state(&bytes, load_depth).unwrap();
        assert_eq!(restored.len(), load_depth as usize);
        assert_eq!(ropts.len(), load_depth as usize);

        let p0: Vec<u32> = stages
            .iter()
            .flat_map(Stage::params)
            .map(f32::to_bits)
            .collect();
        let p1: Vec<u32> = restored
            .iter()
            .flat_map(Stage::params)
            .map(f32::to_bits)
            .collect();
        assert_eq!(p0, p1, "params differ after re-partition");

        let flat = |opts: &[Optimizer], pick: fn(&Optimizer) -> Vec<f32>| -> Vec<u32> {
            opts.iter().flat_map(pick).map(f32::to_bits).collect()
        };
        let m = |o: &Optimizer| o.state().0.to_vec();
        let v = |o: &Optimizer| o.state().1.to_vec();
        assert_eq!(flat(&optimizers, m), flat(&ropts, m), "m differs");
        assert_eq!(flat(&optimizers, v), flat(&ropts, v), "v differs");
        for o in &ropts {
            assert_eq!(o.steps(), 3);
            assert_eq!(o.kind(), kind);
        }
    }

    #[test]
    fn state_roundtrip_repartitions_d4_to_d8() {
        state_roundtrip(OptimizerKind::Sgd { momentum: 0.9 }, 4, 8);
        state_roundtrip(OptimizerKind::adam(), 4, 8);
    }

    #[test]
    fn state_roundtrip_same_depth() {
        state_roundtrip(OptimizerKind::adam(), 2, 2);
    }

    #[test]
    fn truncated_state_section_detected() {
        let stages = trained_model();
        let optimizers: Vec<Optimizer> = stages
            .iter()
            .map(|s| Optimizer::new(OptimizerKind::adam(), s.num_params()))
            .collect();
        let model: Vec<_> = stages.iter().zip(&optimizers).collect();
        let bytes = save_state(&model);
        let cut = &bytes[..bytes.len() - 4];
        assert_eq!(load_state(cut, 2).unwrap_err(), CheckpointError::Truncated);
    }

    #[test]
    fn unknown_optimizer_tag_rejected() {
        let (stages, bytes) = saved();
        let total: usize = stages.iter().map(Stage::num_params).sum();
        let mut bytes = bytes.to_vec();
        bytes[HEADER + total * 4] = 7;
        assert_eq!(
            load_state(&bytes, 2).unwrap_err(),
            CheckpointError::UnknownOptimizer(7)
        );
    }
}
