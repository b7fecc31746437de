//! The inference agent: MCTS-guided placement with backtracking
//! (§3.6.2).
//!
//! "When mapping a new DFG with the pre-trained agent, we allow
//! backtracking when traversing down the search tree. Once the PE
//! assignment for a node is found to yield an undesirable reward, we
//! unmap it and allow the agent to perform a different action."

use crate::embed::{observe, Observation};
use crate::env::MapEnv;
use crate::mapping::Mapping;
use crate::mcts::{Mcts, MctsConfig, PredictCache};
use crate::network::MapZeroNet;
use crate::problem::Problem;
use crate::search::{self, Ranked};
use crate::supervise::Budget;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Agent configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentConfig {
    /// MCTS parameters.
    pub mcts: MctsConfig,
    /// Run MCTS; `false` degrades to greedy policy-network placement
    /// (the §4.7 ablation).
    pub use_mcts: bool,
    /// Maximum number of backtracking operations per episode.
    pub backtrack_budget: u64,
    /// After this many backtracks the episode stops paying for MCTS on
    /// fresh states and decides by the distance heuristic alone — the
    /// systematic-search fallback for states the model keeps
    /// misjudging. `u64::MAX` never falls back.
    pub mcts_backtrack_cutoff: u64,
    /// Record `(state, π, reward)` steps for training.
    pub collect_trajectory: bool,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            mcts: MctsConfig::default(),
            use_mcts: true,
            backtrack_budget: 256,
            mcts_backtrack_cutoff: u64::MAX,
            collect_trajectory: false,
        }
    }
}

impl AgentConfig {
    /// Small configuration for unit tests.
    #[must_use]
    pub fn fast_test() -> Self {
        AgentConfig {
            mcts: MctsConfig::fast_test(),
            use_mcts: true,
            backtrack_budget: 64,
            mcts_backtrack_cutoff: u64::MAX,
            collect_trajectory: false,
        }
    }
}

/// One recorded decision of an episode.
#[derive(Debug, Clone)]
pub struct TrajectoryStep {
    /// The observation the decision was made from.
    pub observation: Observation,
    /// The policy target (MCTS visit distribution, or one-hot on the
    /// action stepped for the greedy ablation and cheap mode).
    pub policy: Vec<f32>,
    /// Immediate environment reward.
    pub reward: f64,
}

/// Result of one mapping episode.
#[derive(Debug, Clone)]
pub struct EpisodeResult {
    /// The mapping, when the episode succeeded.
    pub mapping: Option<Mapping>,
    /// Backtracking operations performed (Fig. 9).
    pub backtracks: u64,
    /// Placement actions taken (including undone ones).
    pub steps: u64,
    /// Cumulative environment reward.
    pub total_reward: f64,
    /// Recorded decisions (empty unless requested).
    pub trajectory: Vec<TrajectoryStep>,
    /// True when the episode stopped on the deadline.
    pub timed_out: bool,
    /// Most nodes simultaneously placed at any point of the episode —
    /// how close the search got, even when backtracking later unwound
    /// the progress. Feeds partial-result reports on timeout.
    pub peak_placed: usize,
    /// DFG edges routed in the final environment state (all of them on
    /// success). Feeds partial-result reports on timeout.
    pub routed_edges: u64,
}

impl From<EpisodeResult> for search::Attempt {
    fn from(episode: EpisodeResult) -> Self {
        search::Attempt {
            mapping: episode.mapping,
            backtracks: episode.backtracks,
            explored: episode.steps,
            peak_placed: episode.peak_placed,
            routed_edges: episode.routed_edges,
            timed_out: episode.timed_out,
        }
    }
}

/// The MapZero placement agent.
pub struct MapZeroAgent<'n> {
    net: &'n MapZeroNet,
    config: AgentConfig,
    /// Read and written by every episode's search: the agent's own, or
    /// one shared with other agents.
    cache: Arc<Mutex<PredictCache>>,
}

impl<'n> MapZeroAgent<'n> {
    /// Create an agent around a (possibly pre-trained) network, with a
    /// private prediction cache carried across its episodes (and the
    /// compiler's II attempts, which share early search states).
    #[must_use]
    pub fn new(net: &'n MapZeroNet, config: AgentConfig) -> Self {
        let cache = Arc::new(Mutex::new(PredictCache::new(PredictCache::CAPACITY)));
        MapZeroAgent { net, config, cache }
    }

    /// Create an agent whose episodes read and write a cache shared
    /// with other agents, possibly on other threads and networks (the
    /// serve worker pool). Entries are keyed by the network's
    /// parameters, the problem's structural fingerprint and the search
    /// state, so a hit replays a prediction of the same state,
    /// bit-identical to a recompute (see [`PredictCache`]).
    #[must_use]
    pub fn with_shared_cache(
        net: &'n MapZeroNet,
        config: AgentConfig,
        cache: Arc<Mutex<PredictCache>>,
    ) -> Self {
        MapZeroAgent { net, config, cache }
    }

    /// Run one mapping episode on `problem` with a wall-clock deadline.
    #[must_use]
    pub fn run_episode(&self, problem: &Problem<'_>, deadline: Duration) -> EpisodeResult {
        self.run_episode_budgeted(problem, &Budget::with_deadline(deadline))
    }

    /// Budget-aware [`MapZeroAgent::run_episode`]: the placement loop
    /// *and* the MCTS inside each decision poll the shared `budget`, so
    /// an exhausted budget interrupts mid-search rather than waiting for
    /// the current (possibly long) decision to finish.
    ///
    /// The placement loop is the shared depth-first search, ranking
    /// each state once, on its first visit. Re-deciding after a
    /// backtrack walks down that stored ranking instead of re-searching,
    /// so backtracking costs no network call (§3.6.2: "timely remediate
    /// ... with little time overhead").
    #[must_use]
    pub fn run_episode_budgeted(&self, problem: &Problem<'_>, budget: &Budget) -> EpisodeResult {
        let AgentConfig { backtrack_budget, mcts_backtrack_cutoff, .. } = self.config;
        let mut mcts = Mcts::with_cache(self.net, self.config.mcts, Arc::clone(&self.cache));
        let mut probs_scratch: Vec<f32> = Vec::new();
        let walk = search::depth_first(problem, budget, backtrack_budget, |env, backtracks| {
            let cheap_mode = backtracks >= mcts_backtrack_cutoff;
            self.rank_state(&mut mcts, env, cheap_mode, budget, &mut probs_scratch)
        });
        let attempt = walk.attempt;
        mapzero_obs::counter!("agent.backtracks", attempt.backtracks);
        mapzero_obs::counter!("agent.steps", attempt.explored);
        let pe_count = problem.cgra().pe_count();
        let trajectory = walk
            .path
            .into_iter()
            .filter_map(|step| {
                let Decision { observation, policy } = step.data?;
                let policy = policy.unwrap_or_else(|| {
                    let mut one_hot = vec![0.0f32; pe_count];
                    one_hot[step.action.index()] = 1.0;
                    one_hot
                });
                Some(TrajectoryStep { observation, policy, reward: step.reward })
            })
            .collect();
        EpisodeResult {
            mapping: attempt.mapping,
            backtracks: attempt.backtracks,
            steps: attempt.explored,
            total_reward: walk.total_reward,
            trajectory,
            timed_out: attempt.timed_out,
            peak_placed: attempt.peak_placed,
            routed_edges: attempt.routed_edges,
        }
    }

    /// Rank the candidates of a newly visited state: by MCTS visit
    /// counts, by the network policy in the greedy ablation, or — in
    /// `cheap_mode`, the systematic-search fallback — by the distance
    /// tie-break of [`search::systematic`], the exact mapper's ranking.
    /// A doomed state gets no candidates; an MCTS rollout that completed
    /// the mapping ends the episode. The decision is kept for the
    /// trajectory when one is collected.
    fn rank_state(
        &self,
        mcts: &mut Mcts<'_>,
        env: &MapEnv<'_>,
        cheap_mode: bool,
        budget: &Budget,
        probs_scratch: &mut Vec<f32>,
    ) -> Ranked<Option<Decision>> {
        let collect = self.config.collect_trajectory;
        if cheap_mode {
            // Systematic-search fallback; its target is one-hot on the
            // action stepped, as in the greedy ablation.
            let candidates = search::systematic(env);
            let data = (collect && !candidates.is_empty())
                .then(|| Decision { observation: observe(env), policy: None });
            return Ranked::Next { candidates, data };
        }
        if env.doomed() {
            mapzero_obs::counter!("search.prune.dead_state");
            return Ranked::Next { candidates: Vec::new(), data: None };
        }
        let legal = env.search_actions();
        let (candidates, observation, policy) = if self.config.use_mcts {
            let result = mcts.search_with_budget(env, budget);
            if let Some(mapping) = result.solution {
                // Early exit: a rollout completed the mapping (§3.5).
                return Ranked::Solved(mapping);
            }
            let visits = result.visit_distribution;
            (search::rank(env, legal, |pe| visits[pe.index()]), None, collect.then_some(visits))
        } else {
            // Greedy policy placement (no-MCTS ablation); its target is
            // one-hot on the action stepped.
            let observation = observe(env);
            self.net.predict(&observation).probs_into(probs_scratch);
            (search::rank(env, legal, |pe| probs_scratch[pe.index()]), Some(observation), None)
        };
        let data = collect.then(|| Decision {
            observation: observation.unwrap_or_else(|| observe(env)),
            policy,
        });
        Ranked::Next { candidates, data }
    }
}

/// What a collected trajectory keeps of one state's ranking.
struct Decision {
    observation: Observation,
    /// The policy target; `None` is one-hot on the action stepped (the
    /// greedy ablation and the cheap-mode fallback).
    policy: Option<Vec<f32>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{MapZeroNet, NetConfig};
    use crate::validate::check_mapping;
    use mapzero_arch::presets;
    use mapzero_dfg::suite;

    fn agent_net(pes: usize) -> MapZeroNet {
        MapZeroNet::new(pes, NetConfig::tiny())
    }

    #[test]
    fn maps_small_kernel_on_hrea() {
        let dfg = suite::by_name("sum").unwrap();
        let cgra = presets::hrea();
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let net = agent_net(16);
        let agent = MapZeroAgent::new(&net, AgentConfig::fast_test());
        let result = agent.run_episode(&problem, Duration::from_secs(30));
        let mapping = result.mapping.expect("sum should map");
        assert_eq!(check_mapping(&dfg, &cgra, &mapping, mapping.ii), Ok(()));
    }

    #[test]
    fn greedy_ablation_runs_and_counts_backtracks() {
        let dfg = suite::by_name("mac").unwrap();
        let cgra = presets::hrea();
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let net = agent_net(16);
        let config = AgentConfig { use_mcts: false, ..AgentConfig::fast_test() };
        let agent = MapZeroAgent::new(&net, config);
        let result = agent.run_episode(&problem, Duration::from_secs(30));
        // Greedy with backtracking may or may not succeed with an
        // untrained net, but the episode must terminate cleanly.
        assert!(result.steps > 0);
        if let Some(m) = &result.mapping {
            assert_eq!(check_mapping(&dfg, &cgra, m, m.ii), Ok(()));
        }
    }

    #[test]
    fn trajectory_collection_records_steps() {
        // conv3 backtracks on the 4x4 mesh, so some targets are recorded
        // at states re-decided after a backtrack.
        let dfg = suite::by_name("conv3").unwrap();
        let cgra = presets::simple_mesh(4, 4);
        let problem = Problem::new(&dfg, &cgra, Problem::mii(&dfg, &cgra).unwrap()).unwrap();
        let net = agent_net(16);
        // The greedy ablation, and MCTS whose every state is decided in
        // cheap mode (cutoff 0): both record a one-hot target on the
        // action taken, which the recorded mask allows.
        let configs = [
            AgentConfig { collect_trajectory: true, use_mcts: false, ..AgentConfig::fast_test() },
            AgentConfig {
                collect_trajectory: true,
                mcts_backtrack_cutoff: 0,
                ..AgentConfig::fast_test()
            },
        ];
        for config in configs {
            let agent = MapZeroAgent::new(&net, config);
            let result = agent.run_episode(&problem, Duration::from_secs(30));
            assert!(result.backtracks > 0);
            assert!(!result.trajectory.is_empty());
            for step in &result.trajectory {
                let hot: Vec<usize> =
                    (0..step.policy.len()).filter(|&pe| step.policy[pe] == 1.0).collect();
                assert_eq!(hot.len(), 1, "{:?}", step.policy);
                assert_eq!(
                    step.policy.iter().filter(|&&p| p == 0.0).count(),
                    step.policy.len() - 1
                );
                assert!(step.observation.mask[hot[0]], "target on a masked PE");
            }
        }
    }

    #[test]
    fn deadline_is_respected() {
        let dfg = suite::by_name("arf").unwrap();
        let cgra = presets::hrea();
        let mii = Problem::mii(&dfg, &cgra).unwrap();
        let problem = Problem::new(&dfg, &cgra, mii).unwrap();
        let net = agent_net(16);
        let agent = MapZeroAgent::new(&net, AgentConfig::fast_test());
        let result = agent.run_episode(&problem, Duration::from_millis(0));
        assert!(result.timed_out);
        assert!(result.mapping.is_none());
    }

    #[test]
    fn expansion_budget_interrupts_episode_and_reports_progress() {
        let dfg = suite::by_name("arf").unwrap();
        let cgra = presets::hrea();
        let mii = Problem::mii(&dfg, &cgra).unwrap();
        let problem = Problem::new(&dfg, &cgra, mii).unwrap();
        let net = agent_net(16);
        let agent = MapZeroAgent::new(&net, AgentConfig::fast_test());
        let budget = Budget::with_deadline(Duration::from_secs(60)).with_expansion_cap(30);
        let result = agent.run_episode_budgeted(&problem, &budget);
        // 54 nodes cannot be placed within 30 tree expansions; the
        // episode must stop on the drained budget, having recorded how
        // far it got.
        assert!(result.timed_out);
        assert!(result.mapping.is_none());
        assert!(result.peak_placed > 0, "some progress before the cap");
        assert!(result.peak_placed < problem.node_count());
    }
}
