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
use crate::supervise::Budget;
use mapzero_arch::PeId;
use std::cell::RefCell;
use std::sync::{Arc, Mutex, PoisonError};
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
    /// The policy target (MCTS visit distribution, or one-hot for the
    /// greedy ablation).
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

/// Where an agent keeps its prediction cache between episodes.
///
/// The local variant carries the cache across one agent's episodes (and
/// the compiler's II attempts, which share early search states). The
/// shared variant is the serve worker pool's: every worker's agent
/// drains and refills one process-wide cache, so requests for the same
/// fabric warm each other up. Either way a panic mid-episode merely
/// loses the borrowed cache contents, never corrupts the slot — the
/// cache is moved out by value before the episode runs.
enum CacheSlot {
    Local(RefCell<PredictCache>),
    Shared(Arc<Mutex<PredictCache>>),
}

impl CacheSlot {
    /// Move the cache out, leaving a placeholder; guarantees at least
    /// `capacity` on what is handed to the episode.
    fn take(&self, capacity: usize) -> PredictCache {
        let mut cache = match self {
            CacheSlot::Local(cell) => cell.take(),
            CacheSlot::Shared(slot) => std::mem::take(
                &mut *slot.lock().unwrap_or_else(PoisonError::into_inner),
            ),
        };
        cache.reserve_capacity(capacity);
        cache
    }

    /// Return the cache after an episode. Two workers may have raced
    /// for a shared slot (the loser ran on the placeholder); keep
    /// whichever copy memoizes more states.
    fn put_back(&self, cache: PredictCache) {
        match self {
            CacheSlot::Local(cell) => {
                cell.replace(cache);
            }
            CacheSlot::Shared(slot) => {
                let mut held = slot.lock().unwrap_or_else(PoisonError::into_inner);
                if cache.len() >= held.len() {
                    *held = cache;
                }
            }
        }
    }
}

/// The MapZero placement agent.
pub struct MapZeroAgent<'n> {
    net: &'n MapZeroNet,
    config: AgentConfig,
    cache: CacheSlot,
}

impl<'n> MapZeroAgent<'n> {
    /// Create an agent around a (possibly pre-trained) network.
    #[must_use]
    pub fn new(net: &'n MapZeroNet, config: AgentConfig) -> Self {
        let cache = CacheSlot::Local(RefCell::new(PredictCache::new(config.mcts.cache_capacity)));
        MapZeroAgent { net, config, cache }
    }

    /// Create an agent whose episodes drain and refill a cache shared
    /// with other agents (the serve worker pool). Entries are keyed by
    /// the problem's structural fingerprint and the search state, so a
    /// hit replays a prediction of the same state; it can differ from a
    /// recompute only within the batched forward's tolerance (see
    /// [`PredictCache`]).
    #[must_use]
    pub fn with_shared_cache(
        net: &'n MapZeroNet,
        config: AgentConfig,
        cache: Arc<Mutex<PredictCache>>,
    ) -> Self {
        MapZeroAgent { net, config, cache: CacheSlot::Shared(cache) }
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
    #[must_use]
    pub fn run_episode_budgeted(&self, problem: &Problem<'_>, budget: &Budget) -> EpisodeResult {
        let cache = self.cache.take(self.config.mcts.cache_capacity);
        let mut mcts = Mcts::with_cache(self.net, self.config.mcts, cache);
        let result = self.episode_loop(&mut mcts, problem, budget);
        self.cache.put_back(mcts.into_cache());
        result
    }

    /// The placement loop of one episode (see
    /// [`MapZeroAgent::run_episode_budgeted`], which wraps it with the
    /// prediction-cache handover).
    fn episode_loop(
        &self,
        mcts: &mut Mcts<'_>,
        problem: &Problem<'_>,
        budget: &Budget,
    ) -> EpisodeResult {
        let mut env = MapEnv::new(problem);
        let mut probs_scratch: Vec<f32> = Vec::new();
        // Actions banned per depth, as bitsets over PE ids.
        let mut banned: Vec<Vec<u64>> = vec![vec![0; problem.words()]; problem.node_count() + 1];
        // Cached policy per depth: re-deciding after a backtrack walks
        // down the stored MCTS ranking instead of re-searching, so
        // backtracking costs O(1) network-free decisions (§3.6.2:
        // "timely remediate ... with little time overhead").
        let mut cached: Vec<Option<Vec<f32>>> = vec![None; problem.node_count() + 1];
        let mut trajectory: Vec<TrajectoryStep> = Vec::new();
        let mut backtracks = 0u64;
        let mut steps = 0u64;
        let mut timed_out = false;
        let mut peak_placed = 0usize;

        while !env.done() {
            if budget.exhausted() {
                timed_out = true;
                break;
            }
            let depth = env.placed_count();
            // Pick an action not banned at this depth.
            let decision = self.decide(
                mcts,
                &env,
                &banned[depth],
                &mut cached[depth],
                backtracks >= self.config.mcts_backtrack_cutoff,
                budget,
                &mut probs_scratch,
            );
            let Some((action, policy, solution)) = decision else {
                // Everything at this depth is banned or illegal:
                // backtrack if allowed, otherwise the episode is stuck.
                if backtracks < self.config.backtrack_budget && depth > 0 {
                    // Capture the parent action before unwinding it.
                    let parent_node = problem.order()[depth - 1];
                    let parent_action = env.placement(parent_node).map(|p| p.pe);
                    if env.undo().is_some() {
                        backtracks += 1;
                        banned[depth].fill(0);
                        cached[depth] = None;
                        trajectory.pop();
                        if let Some(prev) = parent_action {
                            ban(&mut banned[depth - 1], prev);
                        }
                        continue;
                    }
                }
                break;
            };
            if let Some(mapping) = solution {
                // Early exit: a rollout completed the mapping (§3.5).
                mapzero_obs::counter!("agent.backtracks", backtracks);
                mapzero_obs::counter!("agent.steps", steps);
                return EpisodeResult {
                    mapping: Some(mapping),
                    backtracks,
                    steps,
                    total_reward: env.total_reward(),
                    trajectory,
                    timed_out: false,
                    peak_placed: problem.node_count(),
                    routed_edges: problem.dfg().edge_count() as u64,
                };
            }
            let observation =
                if self.config.collect_trajectory { Some(observe(&env)) } else { None };
            let outcome = env.step(action);
            steps += 1;
            peak_placed = peak_placed.max(env.placed_count());
            // Any stale policy cached for the next depth belonged to a
            // different prefix.
            cached[env.placed_count()] = None;
            if let Some(observation) = observation {
                trajectory.push(TrajectoryStep { observation, policy, reward: outcome.reward });
            }
            if outcome.failed_routes > 0 && backtracks < self.config.backtrack_budget {
                // Undesirable reward: unmap and try a different action.
                env.undo();
                backtracks += 1;
                ban(&mut banned[depth], action);
                trajectory.pop();
            }
        }

        mapzero_obs::counter!("agent.backtracks", backtracks);
        mapzero_obs::counter!("agent.steps", steps);
        EpisodeResult {
            mapping: env.final_mapping(),
            backtracks,
            steps,
            total_reward: env.total_reward(),
            trajectory,
            timed_out,
            peak_placed,
            routed_edges: env.routed_edge_count(),
        }
    }

    /// Choose an action for the current state. Returns `None` if no
    /// unbanned legal action exists; otherwise the action, the policy
    /// target, and (for MCTS) an early-exit solution if one was found.
    ///
    /// `cached` holds the policy computed on the first visit to this
    /// depth under the current prefix, so post-backtrack re-decisions
    /// just walk down the stored ranking.
    #[allow(clippy::too_many_arguments)]
    fn decide(
        &self,
        mcts: &mut Mcts<'_>,
        env: &MapEnv<'_>,
        banned: &[u64],
        cached: &mut Option<Vec<f32>>,
        cheap_mode: bool,
        budget: &Budget,
        probs_scratch: &mut Vec<f32>,
    ) -> Option<(PeId, Vec<f32>, Option<Mapping>)> {
        if env.doomed() {
            // Forward checking proved no conflict-free completion exists
            // here; force a backtrack instead of searching the subtree.
            mapzero_obs::counter!("search.prune.dead_state");
            return None;
        }
        let legal = env.search_actions_except(banned);
        if legal.is_empty() {
            return None;
        }
        if let Some(policy) = cached.as_ref() {
            let action = best_by_score(&legal, policy, env)?;
            return Some((action, policy.clone(), None));
        }
        if cheap_mode {
            // Systematic-search fallback: flat policy, ordering purely
            // by the distance tie-break in `best_by_score`.
            let pe_count = env.problem().cgra().pe_count();
            let flat = vec![1.0 / pe_count as f32; pe_count];
            let action = best_by_score(&legal, &flat, env)?;
            *cached = Some(flat.clone());
            return Some((action, flat, None));
        }
        if self.config.use_mcts {
            let result = mcts.search_with_budget(env, budget);
            if result.solution.is_some() {
                return Some((result.best_action, result.visit_distribution, result.solution));
            }
            let action = best_by_score(&legal, &result.visit_distribution, env)?;
            *cached = Some(result.visit_distribution.clone());
            Some((action, result.visit_distribution, None))
        } else {
            // Greedy policy placement (no-MCTS ablation). The episode's
            // scratch buffer absorbs the softmax output, so the per-
            // decision allocation is only the cached copy.
            let pred = self.net.predict(&observe(env));
            pred.probs_into(probs_scratch);
            let action = best_by_score(&legal, probs_scratch, env)?;
            *cached = Some(probs_scratch.clone());
            let pe_count = env.problem().cgra().pe_count();
            let mut policy = vec![0.0f32; pe_count];
            policy[action.index()] = 1.0;
            Some((action, policy, None))
        }
    }
}

/// Add `pe` to a per-depth ban bitset.
fn ban(banned: &mut [u64], pe: PeId) {
    banned[pe.index() / 64] |= 1u64 << (pe.index() % 64);
}

/// Highest-scoring action among `legal` under a per-PE score vector,
/// breaking ties (an untrained or flat policy) by grid distance to the
/// current node's placed neighbours. The tie-break makes the
/// post-backtrack walk down the ranking degrade gracefully into the
/// same distance-ordered systematic search the exact mapper uses.
/// Returns `None` on an empty candidate set; NaN scores (a poisoned
/// network) order below every finite score instead of panicking.
fn best_by_score(legal: &[PeId], scores: &[f32], env: &MapEnv<'_>) -> Option<PeId> {
    let dist = env.neighbour_distance();
    legal.iter().copied().max_by(|a, b| {
        scores[a.index()]
            .total_cmp(&scores[b.index()])
            .then_with(|| dist(*b).cmp(&dist(*a)))
    })
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
        let dfg = suite::by_name("sum").unwrap();
        let cgra = presets::simple_mesh(4, 4);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let net = agent_net(16);
        let config = AgentConfig {
            collect_trajectory: true,
            use_mcts: false,
            ..AgentConfig::fast_test()
        };
        let agent = MapZeroAgent::new(&net, config);
        let result = agent.run_episode(&problem, Duration::from_secs(30));
        assert!(!result.trajectory.is_empty());
        for step in &result.trajectory {
            let total: f32 = step.policy.iter().sum();
            assert!((total - 1.0).abs() < 1e-4);
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
