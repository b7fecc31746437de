//! MapZero: an RL + MCTS placement-and-routing engine for CGRAs.
//!
//! This crate is the paper's primary contribution: given a data flow
//! graph (from [`mapzero_dfg`]) and a fabric (from [`mapzero_arch`]), it
//! finds a valid spatio-temporal mapping — an assignment of every DFG
//! node to a (PE, time slice) pair with all operands routed — at the
//! smallest achievable initiation interval.
//!
//! The pipeline (Fig. 4 of the paper):
//!
//! 1. [`problem`] — modulo-schedule the DFG, fix the node placement
//!    order, and derive the action space;
//! 2. [`ledger`] / [`router`] — the modulo routing resource model and
//!    the Dijkstra router that claims registers/switches per time slice;
//! 3. [`env`](mod@env) — the Markov decision process of §3.3 (placement actions,
//!    −100-per-conflict routing penalties, action masking);
//! 4. [`embed`] + [`network`] — GAT encoders over the DFG and the
//!    current-slice CGRA graph plus the policy/value heads of Fig. 5;
//! 5. [`mcts`] — Algorithm 1: network-guided tree search with capped
//!    expansion and early exit on the first complete mapping;
//! 6. [`agent`] — the inference loop with backtracking (§3.6.2);
//! 7. [`train`] / [`replay`] / [`augment`] — self-play training with
//!    prioritized replay, symmetry augmentation and curriculum
//!    pre-training;
//! 8. [`search`] / [`compiler`] — the II search (start at MII, bump on
//!    failure) that MapZero and the baseline mappers share, and the
//!    user-facing compiler.
//!
//! # Example
//!
//! ```
//! use mapzero_core::{Compiler, MapZeroConfig};
//! use mapzero_arch::presets;
//! use mapzero_dfg::suite;
//!
//! let dfg = suite::by_name("sum").expect("kernel exists");
//! let cgra = presets::hrea();
//! let mut compiler = Compiler::new(MapZeroConfig::fast_test());
//! let outcome = compiler.map(&dfg, &cgra);
//! let report = outcome.expect("sum maps onto HReA");
//! assert!(report.mapping.is_some());
//! ```

pub mod agent;
pub mod augment;
pub mod candidates;
pub mod checkpoint;
pub mod compiler;
pub mod embed;
pub mod env;
pub mod failpoint;
pub mod ledger;
pub mod mapping;
pub mod mcts;
pub mod network;
pub mod persist;
pub mod problem;
pub mod replay;
pub mod router;
pub mod search;
pub mod search_space;
pub mod supervise;
pub mod train;
pub mod validate;
pub mod viz;

pub use agent::{AgentConfig, MapZeroAgent};
pub use candidates::{CandidateMap, CandidateState};
pub use checkpoint::{CheckpointError, CheckpointStore, LoadedGeneration};
pub use compiler::{Compiler, MapZeroConfig};
pub use failpoint::{FailAction, FailScope};
pub use env::{MapEnv, StepOutcome};
pub use mapping::{MapError, MapReport, Mapper, Mapping, PartialMapStats, Placement};
pub use mcts::{Mcts, MctsConfig, PredictCache};
pub use network::{MapZeroNet, NetConfig, Prediction};
pub use problem::Problem;
pub use search::IiBounds;
pub use supervise::Budget;
pub use train::{TrainConfig, TrainError, Trainer, TrainingMetrics};
