#![warn(missing_docs)]

//! # chimera-collectives
//!
//! Real shared-memory collective operations across threads, used by the
//! pipeline training runtime for gradient synchronization (the role GLOO's
//! allreduce plays in the paper's implementation):
//!
//! * [`exact`] — gather → rank-ordered sum → broadcast: bitwise
//!   deterministic regardless of thread timing, enabling the bit-exact
//!   pipelined-vs-sequential equivalence tests;
//! * [`ring`] — bandwidth-optimal ring reduce-scatter + allgather over
//!   crossbeam channels, benchmarked against the exact variant;
//! * [`dist`] — the same reductions over a [`chimera_comm::Transport`], so
//!   a group can span OS processes (TCP backend) without the caller
//!   changing anything;
//! * [`compress`] — QSGD quantization and top-k sparsification with error
//!   feedback (the paper's stated future work, §5).

pub mod compress;
pub mod dist;
pub mod exact;
pub mod keyed;
pub mod ring;

pub use compress::{dequantize, quantize, top_k, Quantized, Sparse};
pub use dist::{exact_allreduce, ring_allreduce, TransportKeyed};
pub use exact::{exact_group, ExactMember};
pub use keyed::{keyed_group, sum_in_key_order, KeyedMember, PendingReduction};
pub use ring::{ring_group, RingMember};
