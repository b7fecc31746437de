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
//! All three are unit structs behind the one engine contract,
//! [`mapzero_core::Mapper::map`]: they map under the caller's
//! [`mapzero_core::Budget`] and II window, and climb II through
//! MapZero's driver, [`mapzero_core::search::IiSearch`]: one attempt per
//! II with its share of the clock, and
//! [`mapzero_core::MapError::Timeout`] when the budget runs out
//! unmapped. They poll the budget's expansion cap but never charge it;
//! only MapZero's MCTS draws on that pool.

mod exact;
mod lisa;
mod sa;

pub mod cost;

pub use exact::ExactMapper;
pub use lisa::LisaMapper;
pub use sa::SaMapper;

/// Five constants feeding one add: unmappable at II 1 on a 4-neighbour
/// mesh (the add would need five neighbours), mappable at II 2.
#[cfg(test)]
fn fanin5() -> mapzero_dfg::Dfg {
    let mut b = mapzero_dfg::DfgBuilder::new("fanin5");
    let parents: Vec<_> = (0..5).map(|_| b.node(mapzero_dfg::Opcode::Const)).collect();
    let sink = b.node(mapzero_dfg::Opcode::Add);
    for p in parents {
        b.edge(p, sink).expect("a fresh edge between existing nodes");
    }
    b.finish().expect("an acyclic kernel")
}
