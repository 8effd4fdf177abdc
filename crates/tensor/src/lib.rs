#![warn(missing_docs)]
// `clippy.toml` keeps libm off the training path; tests use it as the oracle.
#![cfg_attr(test, allow(clippy::disallowed_methods))]

//! # chimera-tensor
//!
//! A minimal, deterministic CPU tensor substrate for the `chimera-nn`
//! transformer layers: a dense row-major `f32` matrix with the BLAS-like
//! kernels used by explicit forward/backward passes, plus softmax / GELU /
//! layernorm with exact gradients (over the libm-free `exp`/`tanh` of
//! [`vmath`]) and a platform-independent RNG.
//!
//! Every kernel is gradient-checked against central differences in the unit
//! tests, because the paper's synchronous-equivalence claim is validated by
//! comparing pipelined training against sequential SGD bit-for-bit.
//!
//! The hot path runs on the cache-blocked, multi-threaded kernels in
//! [`kernels`] (bit-identical at any thread count — see that module's
//! determinism contract) and recycles tensor backing stores through
//! [`pool`], so steady-state training allocates nothing per micro-batch.

pub mod kernels;
mod micro;
pub mod ops;
pub mod pool;
pub mod rng;
pub mod tensor;
pub mod vmath;

pub use ops::{
    gelu, gelu_backward, layernorm, layernorm_backward, scale_mask_softmax_rows, softmax_rows,
    softmax_rows_backward, LayerNormStash,
};
pub use rng::Rng;
pub use tensor::{dot, Tensor};
