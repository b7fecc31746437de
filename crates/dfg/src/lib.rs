//! Data flow graph (DFG) intermediate representation for the MapZero CGRA
//! compiler.
//!
//! This crate provides everything the mapper needs to know about the
//! *software* side of the mapping problem:
//!
//! * the DFG IR itself ([`Dfg`], [`Node`], [`Edge`]) with inter-iteration
//!   dependence distances and self-cycles,
//! * opcodes grouped into the three functional classes the paper's PEs
//!   expose (arithmetic / logical / memory, [`OpClass`]),
//! * modulo scheduling: minimum initiation interval computation
//!   ([`mii`]) and a resource-constrained modulo list scheduler
//!   ([`schedule`]),
//! * the 10-dimensional per-node feature vectors of §3.2.1
//!   ([`features`]),
//! * the benchmark suite of Table 2 ([`suite`]) and a random DFG
//!   generator used for curriculum pre-training ([`random`]),
//! * text / DOT serialization ([`textfmt`], [`dot`]).
//!
//! # Example
//!
//! ```
//! use mapzero_dfg::{DfgBuilder, Opcode};
//!
//! # fn main() -> Result<(), mapzero_dfg::DfgError> {
//! let mut b = DfgBuilder::new("dotprod");
//! let a = b.node(Opcode::Load);
//! let x = b.node(Opcode::Load);
//! let m = b.node(Opcode::Mul);
//! let s = b.node(Opcode::Add);
//! let o = b.node(Opcode::Store);
//! b.edge(a, m)?;
//! b.edge(x, m)?;
//! b.edge(m, s)?;
//! b.back_edge(s, s, 1)?; // accumulation across iterations
//! b.edge(s, o)?;
//! let dfg = b.finish()?;
//! assert_eq!(dfg.node_count(), 5);
//! assert!(dfg.node(s).has_self_cycle);
//! # Ok(())
//! # }
//! ```

mod error;
mod graph;
mod op;

pub mod dot;
pub mod features;
pub mod mii;
pub mod random;
pub mod schedule;
pub mod suite;
pub mod textfmt;

pub use error::DfgError;
pub use graph::{Dfg, DfgBuilder, Edge, EdgeId, Node, NodeId};
pub use mii::{rec_mii, res_mii, ResourceModel};
pub use op::{OpClass, Opcode};
pub use schedule::{modulo_schedule, modulo_schedule_at, Schedule, ScheduleError};
