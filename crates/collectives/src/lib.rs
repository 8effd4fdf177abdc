#![warn(missing_docs)]

//! # chimera-collectives
//!
//! Real collective operations, used by the pipeline training runtime for
//! gradient synchronization (the role GLOO's allreduce plays in the paper's
//! implementation):
//!
//! * [`keyed`] — every member contributes `(key, gradient)` pairs as they
//!   are made (or deposits them at launch); the result is their sum in
//!   global key order, folded as the pairs arrive, whichever member folds
//!   and however the threads interleave: bitwise deterministic, which is what
//!   the bit-exact pipelined-vs-sequential equivalence tests rest on (and why
//!   there is no ring allreduce here: it sums in ring-position order);
//! * [`dist`] — the same reduction over a [`chimera_comm::Transport`], so
//!   a group can span OS processes (TCP backend) without the caller
//!   changing anything.

pub mod dist;
pub mod keyed;

pub use dist::TransportKeyed;
pub use keyed::{keyed_group, sum_in_key_order, Fold, KeyedMember};
