//! Ablation bench for the design choice called out in DESIGN.md §5:
//! **playout** — greedy router-aware rollouts (this repo's early-exit
//! engine) vs network-value-only leaf evaluation.
//!
//! Each variant maps the same kernels; the table reports MII hits,
//! time, and backtracks.

use mapzero_bench::{print_table, write_csv, BenchMode, Harness};
use mapzero_core::network::{MapZeroNet, NetConfig};
use mapzero_core::{AgentConfig, MapZeroAgent, MctsConfig, Problem};

fn main() {
    let mode = BenchMode::from_env();
    let limit = mode.time_limit();
    let h = Harness::begin(format!("Design-choice ablation ({mode:?} mode)"));

    let variants = [("baseline (playout)", true), ("no playout", false)];
    let kernels = ["sum", "mac", "conv2", "accumulate"];
    let fabrics = [mapzero_arch::presets::hrea(), mapzero_arch::presets::hycube()];

    let header = ["variant", "MII hits", "total secs", "total backtracks"];
    let mut rows = Vec::new();
    let mut csv = vec![header.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()];
    for (name, playout) in variants {
        let mut hits = 0usize;
        let mut total = 0usize;
        let mut secs = 0.0f64;
        let mut backtracks = 0u64;
        for cgra in &fabrics {
            let net = MapZeroNet::new(cgra.pe_count(), NetConfig::tiny());
            let agent_config = AgentConfig {
                mcts: MctsConfig {
                    simulations: 24,
                    expansion_cap: 32,
                    playout,
                    ..MctsConfig::default()
                },
                backtrack_budget: 256,
                mcts_backtrack_cutoff: u64::MAX,
                ..AgentConfig::default()
            };
            let agent = MapZeroAgent::new(&net, agent_config);
            for name in kernels {
                let dfg = mapzero_dfg::suite::by_name(name).expect("kernel exists");
                let Ok(mii) = Problem::mii(&dfg, cgra) else { continue };
                let Ok(problem) = Problem::new(&dfg, cgra, mii) else { continue };
                total += 1;
                let start = std::time::Instant::now();
                let result = agent.run_episode(&problem, limit);
                secs += start.elapsed().as_secs_f64();
                backtracks += result.backtracks;
                if result.mapping.is_some_and(|m| m.ii == mii) {
                    hits += 1;
                }
            }
        }
        let row = vec![
            name.to_owned(),
            format!("{hits}/{total}"),
            format!("{secs:.2}"),
            backtracks.to_string(),
        ];
        csv.push(row.clone());
        rows.push(row);
    }
    print_table(&header, &rows);
    h.note("\nlower MII hits for a variant = that design choice matters");
    write_csv("ablation_design", &csv);
    h.finish();
}
