//! Head-to-head: MapZero vs the baseline compilers (exact
//! branch-and-bound "ILP", simulated annealing, label-guided "LISA") on
//! a few kernels, the §4.2/§4.3 experiment in miniature.
//!
//! ```text
//! cargo run --release --example compare_mappers
//! ```

use mapzero::prelude::*;
use std::time::Duration;

fn main() {
    let limit = Duration::from_secs(20);
    let cgra = presets::hycube();
    let kernels = ["sum", "mac", "conv2", "accumulate"];

    let mut mapzero = Compiler::new(MapZeroConfig::fast_test());
    let mut ilp = ExactMapper::default();
    let mut sa = SaMapper::default();
    let mut lisa = LisaMapper;

    println!("fabric: {}  (time limit {limit:?} per attempt)\n", cgra.name());
    println!(
        "{:<12} {:<9} {:>4} {:>5} {:>10} {:>12}",
        "kernel", "mapper", "MII", "II", "time", "backtracks*"
    );
    for name in kernels {
        let dfg = suite::by_name(name).expect("kernel exists");
        let mut reports: Vec<MapReport> = Vec::new();
        reports.push(mapzero.map(&dfg, &cgra).expect("mappable"));
        for mapper in [&mut ilp as &mut dyn Mapper, &mut sa, &mut lisa] {
            reports.push(mapper.map(&dfg, &cgra, limit).expect("mappable"));
        }
        for r in reports {
            let ii = r
                .achieved_ii()
                .map_or_else(|| "--".to_owned(), |ii| ii.to_string());
            println!(
                "{:<12} {:<9} {:>4} {:>5} {:>10.1?} {:>12}",
                r.kernel, r.mapper, r.mii, ii, r.elapsed, r.backtracks
            );
        }
        println!();
    }
    println!("* annealing steps for the SA-family mappers");
}
