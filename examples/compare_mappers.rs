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
    let mut ilp = ExactMapper;
    let mut sa = SaMapper;
    let mut lisa = LisaMapper;

    println!("fabric: {}  (time limit {limit:?} per attempt)\n", cgra.name());
    println!(
        "{:<12} {:<9} {:>4} {:>7} {:>10} {:>12}",
        "kernel", "mapper", "MII", "II", "time", "backtracks*"
    );
    for name in kernels {
        let dfg = suite::by_name(name).expect("kernel exists");
        let mii = Problem::mii(&dfg, &cgra).expect("HyCube supports every op class");
        let mappers: [&mut dyn Mapper; 4] = [&mut mapzero, &mut ilp, &mut sa, &mut lisa];
        for mapper in mappers {
            // Every engine shares one contract: a report, or a Timeout
            // carrying the work it did before the clock ran out.
            let budget = Budget::with_deadline(limit);
            let outcome = mapper.map(&dfg, &cgra, &budget, IiBounds::default());
            let (ii, elapsed, backtracks) = match outcome {
                Ok(r) => {
                    let ii = r.achieved_ii().map_or_else(|| "--".to_owned(), |ii| ii.to_string());
                    (ii, r.elapsed, r.backtracks)
                }
                Err(MapError::Timeout { best_partial }) => {
                    ("timeout".to_owned(), limit, best_partial.backtracks)
                }
                Err(e) => panic!("{name} with {}: {e}", mapper.name()),
            };
            println!(
                "{:<12} {:<9} {:>4} {:>7} {:>10.1?} {:>12}",
                name,
                mapper.name(),
                mii,
                ii,
                elapsed,
                backtracks
            );
        }
        println!();
    }
    println!("* annealing steps for the SA-family mappers");
}
