//! Convenience driver: regenerate every table and figure in sequence by
//! spawning the individual harness binaries (so each writes its own CSV
//! and can also be run standalone).

use mapzero_bench::Harness;
use std::process::Command;

const HARNESSES: [&str; 9] = [
    "table1_architectures",
    "table2_dfg_stats",
    "search_space",
    "headtohead",
    "fig12_learning_curves",
    "fig13_scalability",
    "fig15_heterogeneous",
    "ablation_no_mcts",
    "ablation_design",
];

fn main() {
    let h = Harness::begin("Regenerating every table and figure");
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("binary directory");
    let mut failures = Vec::new();
    for name in HARNESSES {
        println!("\n================ {name} ================\n");
        let status = Command::new(dir.join(name)).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{name} exited with {s}");
                failures.push(name);
            }
            Err(e) => {
                eprintln!("could not launch {name}: {e} (build with `cargo build --release -p mapzero-bench`)");
                failures.push(name);
            }
        }
    }
    if failures.is_empty() {
        h.note(format!("\nall {} experiment harnesses completed", HARNESSES.len()));
        h.finish();
    } else {
        eprintln!("\nfailed harnesses: {failures:?}");
        h.finish();
        std::process::exit(1);
    }
}
