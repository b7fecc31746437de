//! Per-kernel fine-tuning (§3.6.2): start from a compiler's network,
//! fine-tune it on one particular DFG, and compare backtracking before
//! and after — "When higher quality solutions are expected, the
//! pre-trained agent can be further fine-tuned on the particular DFG."
//!
//! ```text
//! cargo run --release --example fine_tune
//! ```

use mapzero::core::checkpoint::save_compiler_generation;
use mapzero::prelude::*;
use std::time::Duration;

fn main() {
    let cgra = presets::hrea();
    let dfg = suite::by_name("accumulate").expect("kernel exists");
    let mut compiler = Compiler::new(MapZeroConfig::fast_test());

    let before = compiler.map(&dfg, &cgra).expect("mappable");
    println!(
        "before fine-tuning: II {:?} in {:.1?} with {} backtracks",
        before.achieved_ii(),
        before.elapsed,
        before.backtracks
    );

    let config = TrainConfig {
        epochs: 4,
        episodes_per_epoch: 4,
        episode_deadline: Duration::from_secs(10),
        ..TrainConfig::fast_test()
    };
    println!("\nfine-tuning on `{}` …", dfg.name());
    let metrics = compiler.fine_tune(&dfg, &cgra, config).expect("fine-tuning converges");
    for e in &metrics.epochs {
        println!(
            "  epoch {}: loss {:.3}, success rate {:.2}",
            e.epoch, e.total_loss, e.success_rate
        );
    }

    let after = compiler.map(&dfg, &cgra).expect("mappable");
    println!(
        "\nafter fine-tuning:  II {:?} in {:.1?} with {} backtracks",
        after.achieved_ii(),
        after.elapsed,
        after.backtracks
    );

    // Persist the tuned network for later sessions.
    let dir = std::env::temp_dir().join("mapzero_finetuned");
    match save_compiler_generation(&compiler, &dir) {
        Ok(generation) => println!("saved generation {generation} to {}", dir.display()),
        Err(e) => eprintln!("checkpoint failed: {e}"),
    }
}
