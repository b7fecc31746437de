//! Build a custom heterogeneous CGRA with the fabric builder, inspect
//! its properties, and map a hand-written DFG onto it — the workflow a
//! CGRA architect follows to try a new fabric.
//!
//! ```text
//! cargo run --release --example custom_fabric
//! ```

use mapzero::dfg::dot;
use mapzero::prelude::*;

fn main() {
    // A 4x4 fabric: mesh + diagonal links, memory ports only on the
    // left column, logic units everywhere, one "dead" corner PE that
    // only routes.
    let mut builder = CgraBuilder::new("custom-het", 4, 4)
        .interconnect(Interconnect::Mesh)
        .interconnect(Interconnect::Diagonal)
        .all_capabilities(Capability::COMPUTE);
    for row in 0..4 {
        builder = builder.capability(row, 0, Capability::ALL);
    }
    let cgra = builder.capability(3, 3, Capability::NONE).finish();

    println!("fabric `{}`:", cgra.name());
    println!("  PEs: {}   directed links: {}", cgra.pe_count(), cgra.link_count());
    let caps = cgra.class_capacity();
    println!("  capacity: logic={} arith={} mem={}", caps[0], caps[1], caps[2]);
    println!("  homogeneous: {}", cgra.is_homogeneous());

    // A small stencil-like kernel written by hand.
    let mut b = DfgBuilder::new("stencil3");
    let loads: Vec<NodeId> = (0..3).map(|_| b.node(Opcode::Load)).collect();
    let m0 = b.node(Opcode::Mul);
    let m1 = b.node(Opcode::Mul);
    let s0 = b.node(Opcode::Add);
    let s1 = b.node(Opcode::Add);
    let out = b.node(Opcode::Store);
    b.edge(loads[0], m0).expect("valid edge");
    b.edge(loads[1], m0).expect("valid edge");
    b.edge(loads[1], m1).expect("valid edge");
    b.edge(loads[2], m1).expect("valid edge");
    b.edge(m0, s0).expect("valid edge");
    b.edge(m1, s0).expect("valid edge");
    b.edge(s0, s1).expect("valid edge");
    b.back_edge(s1, s1, 1).expect("valid self-cycle");
    b.edge(s1, out).expect("valid edge");
    let dfg = b.finish().expect("valid DFG");

    println!("\nDFG `{}` in Graphviz DOT:\n{}", dfg.name(), dot::to_dot(&dfg));

    let mii = Problem::mii(&dfg, &cgra).expect("fabric supports all op classes");
    println!("MII on this fabric: {mii}");

    let mut compiler = Compiler::new(MapZeroConfig::fast_test());
    let report = compiler.map(&dfg, &cgra).expect("mappable");
    match &report.mapping {
        Some(m) => {
            println!("mapped at II = {} ({} routing resources)", m.ii, m.route_cost());
            for u in dfg.node_ids() {
                let p = m.placement(u);
                let pe = cgra.pe(p.pe);
                println!(
                    "  {} ({}) -> ({}, {}) @ t={}",
                    u,
                    dfg.node(u).opcode,
                    pe.row,
                    pe.col,
                    p.time
                );
            }
        }
        None => println!("no mapping found within the II window"),
    }
}
