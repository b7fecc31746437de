//! The exact mapper and the agent's systematic fallback are one search.
//!
//! An agent whose MCTS cutoff is 0 ranks every state by the distance
//! heuristic alone, and with an unlimited backtrack budget it never
//! keeps a step whose routes fail. That is the exact mapper's
//! depth-first search: both rank states with `search::systematic` (no
//! candidates when doomed, else the live candidates in distance order),
//! so on the same schedule-order [`Problem`] and II ladder both must
//! return the same mapping after the same number of backtracks and
//! placement steps.

use mapzero::core::agent::{AgentConfig, MapZeroAgent};
use mapzero::core::network::{MapZeroNet, NetConfig};
use mapzero::core::search::{IiBounds, IiSearch, MAX_EXTRA_II};
use mapzero::prelude::*;
use std::time::Duration;

const LIMIT: Duration = Duration::from_secs(60);

/// The systematic agent climbing the exact mapper's II ladder through
/// the same driver: the first mapping found, with backtracks and steps
/// summed over every II tried.
fn systematic_agent(dfg: &Dfg, cgra: &Cgra) -> (Option<Mapping>, u64, u64) {
    let net = MapZeroNet::new(cgra.pe_count(), NetConfig::tiny());
    let config = AgentConfig {
        mcts_backtrack_cutoff: 0,
        backtrack_budget: u64::MAX,
        ..AgentConfig::default()
    };
    let agent = MapZeroAgent::new(&net, config);
    let search = IiSearch::new(dfg, cgra, MAX_EXTRA_II, IiBounds::default()).unwrap();
    let climb = search
        .climb(std::convert::identity, 1, &Budget::with_deadline(LIMIT), |problem, slice| {
            Ok(agent.run_episode_budgeted(problem, slice).into())
        })
        .unwrap();
    assert!(!climb.timed_out, "{} on {} timed out", dfg.name(), cgra.name());
    (climb.mapping, climb.stats.backtracks, climb.stats.explored)
}

#[test]
fn exact_mapper_and_systematic_agent_walk_the_same_tree() {
    let kernels = ["sum", "mac", "conv2", "accumulate", "conv3", "matmul"];
    let fabrics = [
        presets::hrea(),
        presets::hycube(),
        presets::simple_mesh(4, 4),
        presets::simple_mesh(3, 3),
    ];
    for cgra in &fabrics {
        for name in kernels {
            let dfg = suite::by_name(name).unwrap();
            let what = format!("{name} on {}", cgra.name());
            let budget = Budget::with_deadline(LIMIT);
            let report = ExactMapper.map(&dfg, cgra, &budget, IiBounds::default()).unwrap();
            assert!(!report.timed_out, "{what}: exact mapper timed out");
            let (mapping, backtracks, steps) = systematic_agent(&dfg, cgra);
            assert_eq!(mapping, report.mapping, "{what}: mapping");
            assert_eq!(backtracks, report.backtracks, "{what}: backtracks");
            assert_eq!(steps, report.explored, "{what}: explored");
        }
    }
}
