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
use mapzero::core::mcts::MctsConfig;
use mapzero::core::network::{MapZeroNet, NetConfig};
use mapzero::core::search::{IiBounds, IiSearch, MAX_EXTRA_II};
use mapzero::core::validate::check_mapping;
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

/// Fig. 13's 16×16 filter_u under the quick figure agent (24
/// simulations, MCTS for the first 256 backtracks, a 50,000-backtrack
/// cap): the guided walk spends its cap at II 1, and the episode's
/// restart of the plain walk maps it there, at MII.
#[test]
fn guided_walk_that_spends_its_cap_restarts_into_a_mapping_at_mii() {
    let dfg = suite::by_name("filter_u").unwrap();
    let cgra = presets::baseline16();
    let config = MapZeroConfig {
        agent: AgentConfig {
            mcts: MctsConfig {
                simulations: 24,
                expansion_cap: 32,
                playout_step_limit: 96,
                ..MctsConfig::default()
            },
            backtrack_budget: 50_000,
            mcts_backtrack_cutoff: 256,
            ..AgentConfig::default()
        },
        attempts_per_ii: 1,
        ..MapZeroConfig::fast_test()
    };
    let mut compiler = Compiler::new(config);
    let budget = Budget::with_deadline(LIMIT);
    let report = Mapper::map(&mut compiler, &dfg, &cgra, &budget, IiBounds::default()).unwrap();
    let mapping = report.mapping.expect("filter_u maps");
    assert_eq!((mapping.ii, report.mii), (1, 1));
    assert!(report.backtracks > 50_000, "the guided walk spent its cap first");
    assert_eq!(check_mapping(&dfg, &cgra, &mapping, mapping.ii), Ok(()));
}
