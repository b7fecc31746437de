//! # MapZero
//!
//! A reproduction of *"MapZero: Mapping for Coarse-grained Reconfigurable
//! Architectures with Reinforcement Learning and Monte-Carlo Tree
//! Search"* (ISCA 2023) as a production-quality Rust workspace.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`dfg`] — data flow graph IR, modulo scheduling, the Table 2
//!   benchmark suite and random-DFG curriculum generation;
//! * [`arch`] — CGRA fabric models, the Fig. 7 interconnects, the
//!   Table 1 preset architectures and fabric symmetries;
//! * [`nn`] — the from-scratch autograd engine with graph attention
//!   layers;
//! * [`core`] — the MapZero compiler itself: MDP environment, router,
//!   network, MCTS, agent, trainer and the II-search compiler loop;
//! * [`baselines`] — the comparison mappers (exact branch-and-bound
//!   "ILP", simulated annealing, label-guided "LISA");
//! * [`obs`] — the telemetry subsystem: metrics registry, span
//!   tracing, per-phase budget attribution (DESIGN.md §7).
//!
//! ## Quickstart
//!
//! ```
//! use mapzero::prelude::*;
//!
//! // A kernel from the paper's Table 2 benchmark suite…
//! let dfg = suite::by_name("mac").expect("kernel exists");
//! // …and a target architecture from Table 1.
//! let cgra = presets::hrea();
//!
//! // Map it with MapZero (tiny test-sized configuration).
//! let mut compiler = Compiler::new(MapZeroConfig::fast_test());
//! let report = compiler.map(&dfg, &cgra).expect("instance is mappable");
//! let mapping = report.mapping.expect("mac maps onto HReA");
//! assert!(mapping.validate(&dfg, &cgra).is_empty());
//! assert_eq!(mapping.ii, report.mii); // minimal initiation interval
//! ```

pub use mapzero_arch as arch;
pub use mapzero_baselines as baselines;
pub use mapzero_core as core;
pub use mapzero_dfg as dfg;
pub use mapzero_nn as nn;
pub use mapzero_obs as obs;

/// Commonly-used items, importable with `use mapzero::prelude::*`.
pub mod prelude {
    pub use mapzero_arch::{presets, Capability, Cgra, CgraBuilder, Interconnect, PeId};
    pub use mapzero_baselines::{ExactMapper, LisaMapper, SaMapper};
    pub use mapzero_core::{
        Budget, Compiler, MapError, MapReport, MapZeroConfig, Mapper, Mapping, PartialMapStats,
        Problem, TrainConfig, TrainError, Trainer,
    };
    pub use mapzero_dfg::{suite, Dfg, DfgBuilder, NodeId, OpClass, Opcode};
}
