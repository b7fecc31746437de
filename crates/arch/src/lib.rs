//! CGRA architecture models for the MapZero compiler.
//!
//! This crate captures everything the mapper needs to know about the
//! *hardware* side of the problem:
//!
//! * processing elements with per-class functional capabilities
//!   ([`Capability`], [`Pe`]),
//! * the interconnect generators of Fig. 7 (mesh, 1-hop, diagonal,
//!   toroidal, HyCube-style circuit-switched crossbar — [`Interconnect`]),
//! * whole-fabric descriptions ([`Cgra`]) including the ADRES row-shared
//!   memory bus constraint and the routing style (registered
//!   neighbour-to-neighbour vs. single-cycle multi-hop crossbar),
//! * the preset target architectures of Table 1 and the heterogeneous
//!   fabric of Fig. 14 ([`presets`]),
//! * 7-dimensional PE feature vectors of §3.2.2 ([`features`]),
//! * the fabric symmetry group used for training-data augmentation
//!   (§3.6.1, [`symmetry`]).
//!
//! # Example
//!
//! ```
//! use mapzero_arch::{presets, Interconnect};
//!
//! let hycube = presets::hycube();
//! assert_eq!(hycube.pe_count(), 16);
//! assert!(hycube.style().is_circuit_switched());
//! let hrea = presets::hrea();
//! assert!(hrea.interconnects().contains(&Interconnect::Diagonal));
//! ```

mod capability;
mod cgra;
mod topology;

pub mod analysis;
pub mod features;
pub mod presets;
pub mod symmetry;
pub mod textfmt;

pub use capability::Capability;
pub use cgra::{Cgra, CgraBuilder, Pe, PeId, RoutingStyle};
pub use topology::Interconnect;
