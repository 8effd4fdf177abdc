//! Optimizers (SGD with momentum, Adam) and learning-rate schedules over
//! flat parameter vectors.
//!
//! The paper's evaluation trains Bert/GPT-2, which in practice use Adam
//! with LR warmup; the equivalence harness therefore supports both update
//! rules. Every operation is elementwise and deterministic, so pipelined
//! and sequential training stay bit-identical for any optimizer choice.

/// Which update rule to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// `v ← μ v + g`, `p ← p − η v`.
    Sgd {
        /// Momentum μ.
        momentum: f32,
    },
    /// Adam (Kingma & Ba) with bias correction.
    Adam {
        /// First-moment decay β₁.
        beta1: f32,
        /// Second-moment decay β₂.
        beta2: f32,
        /// Numerical-stability term ε.
        eps: f32,
    },
}

impl OptimizerKind {
    /// Standard Adam hyper-parameters (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn adam() -> Self {
        OptimizerKind::Adam {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// Learning-rate schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Fixed learning rate.
    Constant(f32),
    /// Linear warmup to `base` over `warmup` steps, then cosine decay to
    /// `min` at `total` steps (the common transformer recipe).
    WarmupCosine {
        /// Peak learning rate.
        base: f32,
        /// Warmup steps.
        warmup: u64,
        /// Total steps for the cosine phase.
        total: u64,
        /// Final learning rate.
        min: f32,
    },
}

impl LrSchedule {
    /// Learning rate at (0-indexed) update step `t`.
    pub fn at(&self, t: u64) -> f32 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::WarmupCosine {
                base,
                warmup,
                total,
                min,
            } => {
                if warmup > 0 && t < warmup {
                    base * (t + 1) as f32 / warmup as f32
                } else if t >= total {
                    min
                } else {
                    let progress = (t - warmup) as f64 / (total - warmup).max(1) as f64;
                    let cos = 0.5 * (1.0 + cos_pi(progress));
                    min + (base - min) * cos as f32
                }
            }
        }
    }
}

/// `cos(π·p)` for `p ∈ [0, 1]` as a fixed chain of exactly-rounded `f64`
/// operations: the learning rate scales every update, and libm's `cos`
/// leaves its last bits to the platform. `cos πp = sin π(½ − p)` puts the
/// argument within ±π/2, where the Taylor series through `x¹⁷` (nested so
/// each step is one multiply and one divide) is within 1e-13 of the truth.
fn cos_pi(p: f64) -> f64 {
    let x = std::f64::consts::PI * (0.5 - p);
    let x2 = x * x;
    let mut s = 1.0;
    for k in (1..=8).rev() {
        s = 1.0 - s * x2 / f64::from(2 * k * (2 * k + 1));
    }
    x * s
}

/// `base^n` as a fixed sequence of exactly-rounded multiplications
/// (`f32::powi` leaves its precision, and so its bits, to the platform).
fn pow_by_squaring(base: f32, mut n: u64) -> f32 {
    let (mut acc, mut square) = (1.0f32, base);
    while n > 0 {
        if n & 1 == 1 {
            acc *= square;
        }
        square *= square;
        n >>= 1;
    }
    acc
}

/// Optimizer state for one flat parameter vector.
#[derive(Debug, Clone)]
pub struct Optimizer {
    kind: OptimizerKind,
    /// First-moment / momentum buffer.
    m: Vec<f32>,
    /// Second-moment buffer (Adam only).
    v: Vec<f32>,
    /// Update steps taken.
    t: u64,
}

impl Optimizer {
    /// New optimizer for `num_params` parameters.
    pub fn new(kind: OptimizerKind, num_params: usize) -> Self {
        let v = match kind {
            OptimizerKind::Adam { .. } => vec![0.0; num_params],
            OptimizerKind::Sgd { .. } => Vec::new(),
        };
        Optimizer {
            kind,
            m: vec![0.0; num_params],
            v,
            t: 0,
        }
    }

    /// Apply one update with learning rate `lr` to the whole flat vector:
    /// [`Self::begin_step`] and one [`StepInFlight::apply`] over everything.
    pub fn step(&mut self, params: &mut [f32], grad: &[f32], lr: f32) {
        assert_eq!(params.len(), self.m.len());
        self.begin_step(lr).apply(0, params, grad);
    }

    /// Open update `t + 1`: the step count advances and Adam's bias
    /// corrections are fixed here, once; the caller then applies the update
    /// range by range — every element exactly once — wherever the parameters
    /// live (see `Stage::step`, which never flattens them).
    pub fn begin_step(&mut self, lr: f32) -> StepInFlight<'_> {
        self.t += 1;
        let (bc1, bc2) = match self.kind {
            OptimizerKind::Sgd { .. } => (1.0, 1.0),
            OptimizerKind::Adam { beta1, beta2, .. } => (
                1.0 - pow_by_squaring(beta1, self.t),
                1.0 - pow_by_squaring(beta2, self.t),
            ),
        };
        StepInFlight {
            opt: self,
            lr,
            bc1,
            bc2,
        }
    }

    /// Update steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// The update rule this optimizer applies.
    pub fn kind(&self) -> OptimizerKind {
        self.kind
    }

    /// Borrow the raw state: first-moment buffer, second-moment buffer
    /// (empty for SGD), and update-step count — everything a checkpoint
    /// needs for a bit-exact restart.
    pub fn state(&self) -> (&[f32], &[f32], u64) {
        (&self.m, &self.v, self.t)
    }

    /// Rebuild an optimizer from checkpointed state (inverse of
    /// [`Optimizer::state`]). `v` must be empty for SGD and `m.len()` long
    /// for Adam.
    pub fn from_state(kind: OptimizerKind, m: Vec<f32>, v: Vec<f32>, t: u64) -> Self {
        match kind {
            OptimizerKind::Sgd { .. } => assert!(v.is_empty(), "SGD carries no second moment"),
            OptimizerKind::Adam { .. } => {
                assert_eq!(v.len(), m.len(), "Adam moments must have equal length");
            }
        }
        Optimizer { kind, m, v, t }
    }

    /// Number of parameters managed.
    pub fn len(&self) -> usize {
        self.m.len()
    }

    /// True when managing zero parameters.
    pub fn is_empty(&self) -> bool {
        self.m.is_empty()
    }
}

/// One optimizer update being applied range by range; see
/// [`Optimizer::begin_step`].
pub struct StepInFlight<'a> {
    opt: &'a mut Optimizer,
    lr: f32,
    bc1: f32,
    bc2: f32,
}

impl StepInFlight<'_> {
    /// Update `params`, the parameters at `offset..offset + params.len()` of
    /// the flat layout, from the matching `grad` range. Elementwise, so the
    /// bits do not depend on how the layout is cut into ranges.
    pub fn apply(&mut self, offset: usize, params: &mut [f32], grad: &[f32]) {
        assert_eq!(params.len(), grad.len());
        let range = offset..offset + params.len();
        let lr = self.lr;
        match self.opt.kind {
            OptimizerKind::Sgd { momentum } => {
                for ((p, m), &g) in params.iter_mut().zip(&mut self.opt.m[range]).zip(grad) {
                    *m = momentum * *m + g;
                    *p -= lr * *m;
                }
            }
            OptimizerKind::Adam { beta1, beta2, eps } => {
                let (bc1, bc2) = (self.bc1, self.bc2);
                for (((p, m), v), &g) in params
                    .iter_mut()
                    .zip(&mut self.opt.m[range.clone()])
                    .zip(&mut self.opt.v[range])
                    .zip(grad)
                {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *v = beta2 * *v + (1.0 - beta2) * g * g;
                    let mhat = *m / bc1;
                    let vhat = *v / bc2;
                    *p -= lr * mhat / (vhat.sqrt() + eps);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_step() {
        let mut opt = Optimizer::new(OptimizerKind::Sgd { momentum: 0.0 }, 2);
        let mut p = vec![1.0, 2.0];
        opt.step(&mut p, &[1.0, -1.0], 0.1);
        assert_eq!(p, vec![0.9, 2.1]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Optimizer::new(OptimizerKind::Sgd { momentum: 0.9 }, 1);
        let mut p = vec![0.0];
        opt.step(&mut p, &[1.0], 0.1); // v=1, p=-0.1
        opt.step(&mut p, &[1.0], 0.1); // v=1.9, p=-0.29
        assert!((p[0] + 0.29).abs() < 1e-6);
    }

    #[test]
    fn adam_first_step_is_lr_signed() {
        // With bias correction, the first Adam step is ≈ lr·sign(g).
        let mut opt = Optimizer::new(OptimizerKind::adam(), 2);
        let mut p = vec![0.0, 0.0];
        opt.step(&mut p, &[0.5, -3.0], 0.01);
        assert!((p[0] + 0.01).abs() < 1e-4, "{}", p[0]);
        assert!((p[1] - 0.01).abs() < 1e-4, "{}", p[1]);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(x) = (x-3)².
        let mut opt = Optimizer::new(OptimizerKind::adam(), 1);
        let mut p = vec![0.0f32];
        for _ in 0..2000 {
            let g = 2.0 * (p[0] - 3.0);
            opt.step(&mut p, &[g], 0.05);
        }
        assert!((p[0] - 3.0).abs() < 0.05, "{}", p[0]);
    }

    #[test]
    fn warmup_cosine_shape() {
        let s = LrSchedule::WarmupCosine {
            base: 1.0,
            warmup: 10,
            total: 110,
            min: 0.1,
        };
        // Warmup is linear.
        assert!((s.at(0) - 0.1).abs() < 1e-6);
        assert!((s.at(9) - 1.0).abs() < 1e-6);
        // Peak at end of warmup, decays after.
        assert!(s.at(10) <= 1.0 + 1e-6);
        assert!(s.at(60) < s.at(10));
        assert!(s.at(60) > s.at(100));
        // Floor at min.
        assert!((s.at(110) - 0.1).abs() < 1e-6);
        assert!((s.at(10_000) - 0.1).abs() < 1e-6);
    }

    #[test]
    fn cos_pi_matches_libm() {
        for i in 0..=1000 {
            let p = f64::from(i) / 1000.0;
            let want = (std::f64::consts::PI * p).cos();
            assert!((cos_pi(p) - want).abs() < 1e-12, "cos_pi({p})");
        }
    }

    #[test]
    fn constant_schedule() {
        assert_eq!(LrSchedule::Constant(0.3).at(0), 0.3);
        assert_eq!(LrSchedule::Constant(0.3).at(999), 0.3);
    }

    #[test]
    fn len_and_empty() {
        let sgd = OptimizerKind::Sgd { momentum: 0.0 };
        assert_eq!(Optimizer::new(sgd, 5).len(), 5);
        assert!(Optimizer::new(sgd, 0).is_empty());
        let o = Optimizer::new(OptimizerKind::adam(), 3);
        assert_eq!(o.len(), 3);
        assert_eq!(o.steps(), 0);
    }
}
