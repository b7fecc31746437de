//! Reproduces the **§4.7 ablation study**: remove MCTS (greedy policy
//! placement with backtracking only) and count how many of the
//! kernel × fabric cases still reach MII in time. The paper reports
//! 35/52 without MCTS versus 52/52 with it.

use mapzero_bench::{print_table, write_csv, BenchMode, Harness};
use mapzero_core::network::MapZeroNet;
use mapzero_core::{AgentConfig, MapZeroAgent, Problem};
use std::collections::HashMap;

fn main() {
    let mode = BenchMode::from_env();
    let limit = mode.time_limit();
    let h = Harness::begin(format!(
        "§4.7 ablation: MapZero with and without MCTS ({mode:?} mode)"
    ));

    let fabrics = mapzero_arch::presets::evaluation_fabrics();
    let kernels = mode.kernels();
    let config = mode.mapzero_config();

    let mut nets: HashMap<usize, MapZeroNet> = HashMap::new();
    let header = ["fabric", "kernel", "with MCTS", "without MCTS"];
    let mut rows = Vec::new();
    let mut csv = vec![header.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()];
    let mut with_ok = 0usize;
    let mut without_ok = 0usize;
    let mut total = 0usize;
    for cgra in &fabrics {
        let net = nets
            .entry(cgra.pe_count())
            .or_insert_with(|| MapZeroNet::new(cgra.pe_count(), config.net));
        for name in &kernels {
            let dfg = mapzero_dfg::suite::by_name(name).expect("kernel exists");
            h.progress(format_args!("running {} on {}", name, cgra.name()));
            let Ok(mii) = Problem::mii(&dfg, cgra) else { continue };
            total += 1;
            let mut outcome = ["fail"; 2];
            for (i, use_mcts) in [true, false].into_iter().enumerate() {
                // Modest backtracking and no systematic-search fallback:
                // the ablation isolates per-decision quality (§4.7), not
                // the DFS safety net.
                let agent_config = AgentConfig {
                    use_mcts,
                    backtrack_budget: 48,
                    mcts_backtrack_cutoff: u64::MAX,
                    ..config.agent
                };
                let agent = MapZeroAgent::new(net, agent_config);
                // Same II climb as the compiler.
                let mut success = false;
                for ii in mii..=mii + config.max_extra_ii {
                    let Ok(problem) = Problem::new(&dfg, cgra, ii) else { continue };
                    let result = agent.run_episode(&problem, limit);
                    if let Some(m) = result.mapping {
                        success = m.ii == mii; // the ablation counts MII hits
                        break;
                    }
                    if result.timed_out {
                        break;
                    }
                }
                outcome[i] = if success { "MII" } else { "fail" };
                if success {
                    if use_mcts {
                        with_ok += 1;
                    } else {
                        without_ok += 1;
                    }
                }
            }
            let row = vec![
                cgra.name().to_owned(),
                (*name).to_owned(),
                outcome[0].to_owned(),
                outcome[1].to_owned(),
            ];
            csv.push(row.clone());
            rows.push(row);
        }
    }
    print_table(&header, &rows);
    h.note(format!(
        "\nwith MCTS: {with_ok}/{total} reached MII; without MCTS: {without_ok}/{total}"
    ));
    h.note("(paper: 52/52 with MCTS vs 35/52 without)");
    write_csv("ablation_no_mcts", &csv);
    h.finish();
}
