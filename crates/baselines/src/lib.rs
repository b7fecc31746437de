//! Baseline CGRA mappers used as comparison points in the paper's
//! evaluation (§4.1.3):
//!
//! * [`ExactMapper`] — stand-in for CGRA-ME (ILP): a systematic,
//!   complete branch-and-bound search over placement + routing. Like
//!   the ILP it is exact-or-timeout: given enough time it finds a valid
//!   mapping at the target II whenever one exists under the fixed
//!   modulo schedule, and it blows up on large DFGs.
//! * [`SaMapper`] — stand-in for CGRA-ME (SA): simulated annealing over
//!   placements with a routing-violation cost, 100 random perturbations
//!   per annealing step.
//! * [`LisaMapper`] — stand-in for LISA: SA guided by precomputed
//!   per-node labels emulating LISA's GNN labels. The labels assume
//!   single-cycle multi-hop interconnects, so they guide well on
//!   HyCube-class crossbar fabrics and mis-generalize on plain
//!   mesh-class topologies — reproducing the behaviour reported in
//!   §4.2.
//!
//! All baselines implement the shared [`mapzero_core::Mapper`] trait and
//! the same outer II search loop as MapZero (start at MII, increase on
//! failure).

mod exact;
mod lisa;
mod sa;

pub mod cost;

pub use exact::{ExactConfig, ExactMapper};
pub use lisa::LisaMapper;
pub use sa::{SaConfig, SaMapper};
