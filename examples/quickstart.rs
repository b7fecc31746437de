//! Quickstart: map one benchmark kernel onto one CGRA and print the
//! resulting placement.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mapzero::core::validate::check_mapping;
use mapzero::prelude::*;

fn main() {
    // Pick a kernel from the paper's Table 2 suite and a Table 1 fabric.
    let dfg = suite::by_name("mac").expect("kernel exists");
    let cgra = presets::hrea();
    println!(
        "kernel `{}`: {} ops, {} deps; fabric `{}`: {}x{} PEs",
        dfg.name(),
        dfg.node_count(),
        dfg.edge_count(),
        cgra.name(),
        cgra.rows(),
        cgra.cols()
    );

    // The compiler starts at the minimum initiation interval and climbs
    // until a valid mapping exists.
    let mut compiler = Compiler::new(MapZeroConfig::fast_test());
    let report = compiler.map(&dfg, &cgra).expect("instance is mappable");
    let mapping = report.mapping.expect("mac maps onto HReA");

    println!(
        "mapped at II = {} (MII = {}) in {:.1?} with {} backtracks",
        mapping.ii, report.mii, report.elapsed, report.backtracks
    );
    println!("\n node  op       PE   time  slot");
    for u in dfg.node_ids() {
        let p = mapping.placement(u);
        println!(
            " {:>4}  {:<7}  {:<4} {:>4}  {:>4}",
            u.to_string(),
            dfg.node(u).opcode.to_string(),
            p.pe.to_string(),
            p.time,
            p.time % mapping.ii
        );
    }
    if let Err(errs) = check_mapping(&dfg, &cgra, &mapping, mapping.ii) {
        panic!("invalid mapping: {errs:?}");
    }
    println!("\nmapping validated: all constraints satisfied");
}
