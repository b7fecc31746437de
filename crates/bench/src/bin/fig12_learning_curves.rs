//! Reproduces **Fig. 12**: learning curves during self-play training on
//! an HReA-class fabric — (a) average total loss, (b) value loss,
//! (c) policy loss, (d) average reward, (e) routing penalty in
//! evaluation (> −100 means a successful mapping), (f) learning rate.

use mapzero_bench::{print_table, write_csv, BenchMode, Harness};
use mapzero_core::network::NetConfig;
use mapzero_core::{MctsConfig, TrainConfig, Trainer};
use mapzero_nn::LrSchedule;
use std::time::Duration;

fn main() {
    let mode = BenchMode::from_env();
    let (epochs, episodes, net) = match mode {
        BenchMode::Quick => (10, 4, NetConfig::tiny()),
        BenchMode::Full => (60, 12, NetConfig::default()),
    };
    let h = Harness::begin(format!(
        "Fig. 12: learning curves on HReA ({mode:?} mode: {epochs} epochs)"
    ));

    let cgra = mapzero_arch::presets::hrea();
    let config = TrainConfig {
        epochs,
        episodes_per_epoch: episodes,
        batch_size: 32,
        updates_per_epoch: 4,
        replay_capacity: 10_000,
        lr: LrSchedule { initial: 3e-3, decay: 0.75, step_every: epochs.max(8) / 8, floor: 2e-4 },
        curriculum_nodes: (3, if mode == BenchMode::Quick { 10 } else { 30 }),
        curriculum_per_size: 2,
        mcts: MctsConfig { simulations: 16, ..MctsConfig::default() },
        episode_deadline: Duration::from_secs(15),
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(cgra, net, config);
    let metrics = trainer.run().expect("learning-curve training converges");

    let header =
        ["epoch", "total loss", "value loss", "policy loss", "avg reward", "eval penalty", "lr", "success"];
    let mut rows = Vec::new();
    let mut csv = vec![header.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()];
    for e in &metrics.epochs {
        let row = vec![
            e.epoch.to_string(),
            format!("{:.4}", e.total_loss),
            format!("{:.4}", e.value_loss),
            format!("{:.4}", e.policy_loss),
            format!("{:.2}", e.avg_reward),
            format!("{:.2}", e.eval_penalty),
            format!("{:.5}", e.lr),
            format!("{:.2}", e.success_rate),
        ];
        csv.push(row.clone());
        rows.push(row);
    }
    print_table(&header, &rows);

    // Skip warm-up epochs that ran no gradient updates (buffer filling).
    let trained: Vec<_> =
        metrics.epochs.iter().filter(|e| e.total_loss > 0.0).collect();
    if let (Some(first), Some(last)) = (trained.first(), trained.last()) {
        h.note(format!(
            "\ntrend: total loss {:.3} -> {:.3}, reward {:.1} -> {:.1}, lr {:.4} -> {:.4}",
            first.total_loss, last.total_loss, first.avg_reward, last.avg_reward,
            first.lr, last.lr,
        ));
        h.note("routing penalty > -100 in evaluation means a valid mapping (§4.4)");
    }
    write_csv("fig12_learning_curves", &csv);
    h.finish();
}
