//! Monte-Carlo tree search guided by the policy/value network
//! (Algorithm 1 of the paper).
//!
//! Each tree edge stores a prior probability `P(s,a)`, a visit count
//! `N(s,a)` and a mean action value `Q(s,a)`. Selection maximizes the
//! UCT score with the network prior (PUCT, as in AlphaZero). Expansion
//! is capped at a configurable number of children per stage (§4.2:
//! "The MCTS tree expands 100 nodes per expansion stage", 200 for
//! 16×16). As soon as a rollout completes a valid mapping at the target
//! II, the whole search ends and returns it (§3.5).

use crate::checkpoint::Fnv64;
use crate::embed::Observer;
use crate::env::{MapEnv, CONFLICT_PENALTY};
use crate::mapping::Mapping;
use crate::network::{MapZeroNet, Prediction};
use crate::supervise::Budget;
use mapzero_arch::PeId;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Exploration constant (`C_p` in Eq. 4).
const C_PUCT: f64 = 1.4;

/// MCTS hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MctsConfig {
    /// Simulations per placement decision.
    pub simulations: usize,
    /// Maximum children created per expansion stage.
    pub expansion_cap: usize,
    /// Run a greedy distance-guided playout from each expanded leaf.
    /// Playouts complete mappings, enabling the §3.5 early exit; with
    /// `false` the leaf value is the network estimate alone.
    pub playout: bool,
    /// Maximum environment steps per playout. Large DFGs cap the
    /// rollout and score the reached state by mapping progress instead
    /// of playing to completion, keeping per-decision cost bounded.
    pub playout_step_limit: usize,
    /// Playout RNG seed (tie-breaking).
    pub seed: u64,
    /// Maximum leaves evaluated per batched forward (K): each selection
    /// sweep collects up to this many leaves under virtual loss and
    /// evaluates them in one [`MapZeroNet::predict_batch`] call. Values
    /// `< 1` behave as 1. At larger batch sizes selection diverges by
    /// design (virtual loss); each leaf evaluation is bit-identical to
    /// an unbatched one.
    pub leaf_batch: usize,
}

impl Default for MctsConfig {
    fn default() -> Self {
        MctsConfig {
            simulations: 64,
            expansion_cap: 100,
            playout: true,
            playout_step_limit: usize::MAX,
            seed: 0,
            leaf_batch: 8,
        }
    }
}

impl MctsConfig {
    /// Small configuration for unit tests.
    #[must_use]
    pub fn fast_test() -> Self {
        MctsConfig { simulations: 12, expansion_cap: 16, ..MctsConfig::default() }
    }
}

#[derive(Debug, Clone)]
struct EdgeStat {
    action: PeId,
    prior: f64,
    visits: u32,
    total_value: f64,
    child: Option<usize>,
}

impl EdgeStat {
    fn q(&self) -> f64 {
        if self.visits == 0 {
            0.0
        } else {
            self.total_value / f64::from(self.visits)
        }
    }
}

#[derive(Debug, Clone)]
struct TreeNode {
    edges: Vec<EdgeStat>,
    visits: u32,
}

/// Result of one MCTS decision.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The most-visited action.
    pub best_action: PeId,
    /// Visit-count distribution over all PEs (the policy target π).
    pub visit_distribution: Vec<f32>,
    /// Root value estimate (mean of simulation returns).
    pub root_value: f64,
    /// A complete valid mapping discovered during simulation, if any.
    pub solution: Option<Mapping>,
}

/// Transposition-keyed memo of network predictions.
///
/// The network's parameter fingerprint, the problem's identity (its
/// structural `Problem::fingerprint` and II), the node being placed and
/// the placement vector determine a prediction: they fix the
/// observation, its search mask included (the live candidate sets are
/// a pure function of the placements), and equal parameter
/// fingerprints mean equal weights. A cached [`Prediction`] is
/// therefore what the network computes for that state, and a hit is
/// bit-identical to a recompute. The tree is reset at every decision,
/// so hits come from states an earlier decision's search already
/// evaluated: the subtree below the chosen action, re-decisions after
/// backtracking, shared early states across a compiler's II attempts
/// and episodes (the agent holds one cache for all of them), and
/// repeated requests through a cache shared by several agents.
///
/// Nothing is ever invalidated. A weight update draws a new parameter
/// fingerprint, so older entries stop matching and age out; a training
/// rollback restores the snapshot's fingerprint together with its
/// values, so the snapshot's entries are exact again. Networks of
/// different fabric sizes keep their entries side by side.
///
/// Bounded by a two-segment ("flip-flop") LRU approximation: inserts go
/// to the current segment; when it fills, the previous segment is
/// dropped and the segments swap. A hit in the previous segment
/// promotes the entry. O(1) per operation, worst-case memory two
/// half-capacity segments.
#[derive(Debug)]
pub struct PredictCache {
    cur: HashMap<u64, Prediction>,
    prev: HashMap<u64, Prediction>,
    capacity: usize,
}

impl PredictCache {
    /// Entries held by the cache of every search, agent and serve pool.
    pub const CAPACITY: usize = 4096;

    /// Create an empty cache holding at most ~`capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        // Register both legs of the hit-rate pair up front so traces
        // and metric dumps always show the pair, even when a short run
        // never hits (a lazily-registered `hit` would be absent rather
        // than zero).
        mapzero_obs::counter!("search.predict_cache.hit", 0);
        mapzero_obs::counter!("search.predict_cache.miss", 0);
        PredictCache { cur: HashMap::new(), prev: HashMap::new(), capacity: capacity.max(2) }
    }

    /// Look up a state key, promoting previous-segment hits.
    fn get(&mut self, key: u64) -> Option<Prediction> {
        if let Some(p) = self.cur.get(&key) {
            return Some(p.clone());
        }
        let p = self.prev.remove(&key)?;
        self.cur.insert(key, p.clone());
        Some(p)
    }

    /// Insert, swapping segments when the current one is full.
    fn insert(&mut self, key: u64, pred: Prediction) {
        if self.cur.len() >= self.capacity / 2 {
            std::mem::swap(&mut self.cur, &mut self.prev);
            self.cur.clear();
        }
        self.cur.insert(key, pred);
    }

    /// Number of live entries across both segments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cur.len() + self.prev.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Lock a (possibly shared) cache. The lock is held only around probes
/// and inserts, never across a forward pass or a failpoint, so a panic
/// in a search cannot leave the cache half-written: a poisoned lock is
/// recovered, not propagated.
fn lock(cache: &Mutex<PredictCache>) -> MutexGuard<'_, PredictCache> {
    cache.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Hash the search state: the network's parameters, the problem's
/// identity, the node being placed and the placement ledger (which
/// together determine the prediction — see [`PredictCache`]). Under one
/// placement order the current node follows from the placements; it is
/// hashed because two orders can reach the same placements.
fn state_key(net: &MapZeroNet, env: &MapEnv<'_>) -> u64 {
    let problem = env.problem();
    let mut h = Fnv64::new();
    h.write_u64(net.params_fingerprint());
    h.write_u64(u64::from(problem.ii()));
    h.write_usize(env.current_node().map_or(0, |u| 1 + u.index()));
    h.write_u64(problem.fingerprint());
    for p in env.placements() {
        match p {
            Some(pl) => {
                h.write_usize(1 + pl.pe.index());
                h.write_u64(u64::from(pl.time));
            }
            None => h.write_usize(0),
        }
    }
    h.finish()
}

/// Network-guided MCTS over a mapping environment.
pub struct Mcts<'n> {
    net: &'n MapZeroNet,
    config: MctsConfig,
    nodes: Vec<TreeNode>,
    root: usize,
    rng: mapzero_nn::SeedRng,
    observer: Observer,
    cache: Arc<Mutex<PredictCache>>,
    playout_scratch: PlayoutScratch,
}

/// The buffers [`Mcts`]'s greedy playouts rank into, reused across
/// steps and playouts.
#[derive(Default)]
struct PlayoutScratch {
    actions: Vec<PeId>,
    anchors: Vec<(usize, usize)>,
    /// Per search action: `(neighbour distance, jittered position, PE)`.
    keys: Vec<(usize, usize, PeId)>,
}

/// Normalize an environment step reward to roughly [−1, 0].
fn norm_reward(reward: f64) -> f64 {
    (reward / CONFLICT_PENALTY).clamp(-1.0, 0.0)
}

/// Virtual loss applied to every edge a batched walk selects: until the
/// leaf is evaluated the edge carries one extra visit valued at −1, so
/// later walks in the same sweep are steered toward different leaves.
/// Reverted exactly at backup time, so finished statistics carry no
/// trace of it.
const VIRTUAL_LOSS: f64 = 1.0;

/// A leaf selected by a batched walk, awaiting network evaluation.
/// Holds everything the flush needs to expand, evaluate and back up
/// without re-walking the tree.
struct PendingLeaf<'p> {
    /// `(node, edge index)` pairs from the root to the leaf's parent
    /// edge, in selection order. Every listed edge carries a virtual
    /// loss until backup.
    path: Vec<(usize, usize)>,
    /// Normalized step reward observed along each path edge.
    rewards: Vec<f64>,
    /// Environment at the leaf state (after stepping the final edge).
    env: MapEnv<'p>,
    /// Legal actions at the leaf (non-empty; dead ends resolve inline).
    legal: Vec<PeId>,
    /// Transposition key of the leaf state. Captured before the
    /// playout mutates `env`.
    key: u64,
}

/// Outcome of one batched selection walk.
enum WalkResult<'p> {
    /// The walk resolved inline (terminal, dead end) and was backed up;
    /// carries the root-level value of the simulation.
    Resolved(f64),
    /// The walk reached a fresh leaf that needs a network evaluation.
    Pending(Box<PendingLeaf<'p>>),
    /// The walk re-selected an edge whose leaf is already in flight;
    /// all of its increments were undone and the sweep should flush.
    Collision,
}

impl<'n> Mcts<'n> {
    /// Create a search over the given network with a private
    /// prediction cache.
    #[must_use]
    pub fn new(net: &'n MapZeroNet, config: MctsConfig) -> Self {
        let cache = Arc::new(Mutex::new(PredictCache::new(PredictCache::CAPACITY)));
        Mcts::with_cache(net, config, cache)
    }

    /// Create a search that reads and writes a given prediction cache
    /// (the agent's, held across episodes and II attempts, or one
    /// shared by several agents).
    #[must_use]
    pub fn with_cache(
        net: &'n MapZeroNet,
        config: MctsConfig,
        cache: Arc<Mutex<PredictCache>>,
    ) -> Self {
        // Pre-register the batching counters so metric dumps show zeros
        // (not absences) for runs that never flush a batch.
        mapzero_obs::counter!("search.batch.flush", 0);
        mapzero_obs::counter!("search.batch.partial", 0);
        mapzero_obs::counter!("search.batch.cache_short_circuit", 0);
        mapzero_obs::counter!("search.expand.offered", 0);
        let rng = mapzero_nn::SeedRng::new(config.seed);
        Mcts {
            net,
            config,
            nodes: Vec::new(),
            root: 0,
            rng,
            observer: Observer::new(),
            cache,
            playout_scratch: PlayoutScratch::default(),
        }
    }

    /// Number of nodes currently in the tree.
    #[must_use]
    pub fn tree_size(&self) -> usize {
        self.nodes.len()
    }

    /// Reset the tree (e.g. after the environment was rolled back).
    /// The prediction cache is keyed by state, not by tree, and stays.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.root = 0;
    }

    /// Run simulations from `root_env` and pick an action for the
    /// current node.
    ///
    /// # Panics
    /// Panics if the episode is already done or the root state is
    /// [doomed](MapEnv::doomed).
    pub fn search(&mut self, root_env: &MapEnv<'_>) -> SearchResult {
        self.search_with_budget(root_env, &Budget::unlimited())
    }

    /// Budget-aware [`Mcts::search`]: the simulation loop polls
    /// `budget` between rollouts and stops early when it is exhausted,
    /// so a compile deadline interrupts *inside* a placement decision
    /// rather than at the next episode boundary. Tree expansions are
    /// charged to the budget's shared expansion pool.
    ///
    /// With fewer simulations the returned policy is noisier but still
    /// well-formed (the root is always expanded, even on an exhausted
    /// budget, so `best_action` is always a legal move).
    ///
    /// # Panics
    /// Panics if the episode is already done or the root state is
    /// [doomed](MapEnv::doomed).
    pub fn search_with_budget(&mut self, root_env: &MapEnv<'_>, budget: &Budget) -> SearchResult {
        let _span = mapzero_obs::span!("mcts.search");
        let _phase = mapzero_obs::phase::phase_guard(mapzero_obs::Phase::Expand);
        self.expand_root(root_env, budget);
        let mut solution = None;
        let root_return = self.run_batched_sims(root_env, budget, &mut solution);
        self.search_result(root_env, root_return, solution)
    }

    /// Reset the tree and expand `root_env` as its root, charging the
    /// expansion to `budget`.
    fn expand_root(&mut self, root_env: &MapEnv<'_>, budget: &Budget) {
        assert!(!root_env.done(), "search requires an unfinished episode");
        self.reset();
        let (root, _) = self.expand(root_env);
        self.root = root;
        budget.charge(1);
        assert!(
            !self.nodes[root].edges.is_empty(),
            "the root state is doomed"
        );
    }

    /// Read the decision off the root's visit counts.
    fn search_result(
        &self,
        root_env: &MapEnv<'_>,
        root_return: f64,
        solution: Option<Mapping>,
    ) -> SearchResult {
        let pe_count = root_env.problem().cgra().pe_count();
        let mut visit_distribution = vec![0.0f32; pe_count];
        let root_node = &self.nodes[self.root];
        let total: u32 = root_node.edges.iter().map(|e| e.visits).sum();
        for e in &root_node.edges {
            if total > 0 {
                // Actions are PEs, so `index() < pe_count` always holds.
                if let Some(v) = visit_distribution.get_mut(e.action.index()) {
                    *v = e.visits as f32 / total as f32;
                }
            }
        }
        let best_action = root_node
            .edges
            .iter()
            .max_by_key(|e| e.visits)
            .map(|e| e.action)
            .unwrap_or_else(|| {
                // Unreachable: root edges were asserted non-empty above.
                // Degrade to PE 0 rather than panic mid-search.
                debug_assert!(false, "root lost its edges during search");
                PeId(0)
            });
        let sims = self.nodes[self.root].visits.max(1);
        SearchResult {
            best_action,
            visit_distribution,
            root_value: root_return / f64::from(sims),
            solution,
        }
    }

    /// The batched simulation loop: sweeps of selection walks collect
    /// up to `leaf_batch` fresh leaves under virtual loss, one
    /// [`MapZeroNet::predict_batch`] call evaluates them, and the flush
    /// backs every walk up (reverting its virtual losses) in selection
    /// order. Returns the accumulated root-level return.
    ///
    /// Determinism: the walk/backup sequence is a pure function of the
    /// network, the config, the root state and the cache contents.
    /// Cache hits are resolved at flush time — they skip the forward
    /// pass but never change which walks run or when values are applied.
    /// A hit replays the prediction of whichever forward first computed
    /// that state, which is bit-identical to a recompute at any batch
    /// width, so a warm and a cold cache give the same search. With
    /// `leaf_batch == 1` each sweep holds one leaf and the loop
    /// reproduces the one-leaf-at-a-time recursion (the test-only
    /// `simulate`) update for update.
    fn run_batched_sims<'p>(
        &mut self,
        root_env: &MapEnv<'p>,
        budget: &Budget,
        solution: &mut Option<Mapping>,
    ) -> f64 {
        let batch = self.config.leaf_batch.max(1);
        let mut in_flight: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
        let mut pending: Vec<PendingLeaf<'p>> = Vec::new();
        let mut root_return = 0.0f64;
        let mut sims_done = 0usize;
        while sims_done < self.config.simulations {
            // Collect one sweep.
            while sims_done < self.config.simulations && pending.len() < batch {
                if budget.exhausted() || solution.is_some() {
                    break;
                }
                match self.batched_walk(root_env, &in_flight, solution, budget) {
                    WalkResult::Resolved(value) => {
                        mapzero_obs::counter!("mcts.simulations");
                        root_return += value;
                        sims_done += 1;
                    }
                    WalkResult::Pending(leaf) => {
                        mapzero_obs::counter!("mcts.simulations");
                        in_flight.insert(*leaf.path.last().expect("pending walk has a path"));
                        pending.push(*leaf);
                        sims_done += 1;
                    }
                    WalkResult::Collision => break,
                }
            }
            if pending.is_empty() {
                break;
            }
            root_return += self.flush_pending(&mut pending, batch, solution);
            in_flight.clear();
            if budget.exhausted() || solution.is_some() {
                break;
            }
        }
        root_return
    }

    /// One selection walk of the batched loop: descend under PUCT,
    /// applying a visit increment per node and a virtual loss per edge,
    /// until the walk resolves inline (terminal or dead end), reaches a
    /// fresh leaf (returned as [`WalkResult::Pending`]), or collides
    /// with an in-flight leaf (all increments undone).
    fn batched_walk<'p>(
        &mut self,
        root_env: &MapEnv<'p>,
        in_flight: &std::collections::HashSet<(usize, usize)>,
        solution: &mut Option<Mapping>,
        budget: &Budget,
    ) -> WalkResult<'p> {
        let mut env = root_env.clone();
        let mut node = self.root;
        let mut path: Vec<(usize, usize)> = Vec::new();
        let mut rewards: Vec<f64> = Vec::new();
        loop {
            self.nodes[node].visits += 1;
            if self.nodes[node].edges.is_empty() {
                // Dead end reached through an existing child.
                return WalkResult::Resolved(self.backup(&path, &rewards, -1.0));
            }
            let edge_idx = self.select_edge(node);
            let child = self.nodes[node].edges[edge_idx].child;
            if child.is_none() && in_flight.contains(&(node, edge_idx)) {
                // Another walk of this sweep already owns this leaf:
                // undo every increment this walk applied and stop the
                // sweep so the pending batch flushes.
                self.nodes[node].visits -= 1;
                for &(n, e) in path.iter().rev() {
                    self.nodes[n].visits -= 1;
                    let edge = &mut self.nodes[n].edges[e];
                    edge.visits -= 1;
                    edge.total_value += VIRTUAL_LOSS;
                }
                return WalkResult::Collision;
            }
            {
                let edge = &mut self.nodes[node].edges[edge_idx];
                edge.visits += 1;
                edge.total_value -= VIRTUAL_LOSS;
            }
            let action = self.nodes[node].edges[edge_idx].action;
            let outcome = env.step(action);
            path.push((node, edge_idx));
            rewards.push(norm_reward(outcome.reward));
            if env.success() {
                *solution = env.final_mapping();
                return WalkResult::Resolved(self.backup(&path, &rewards, 1.0));
            }
            if env.done() {
                return WalkResult::Resolved(self.backup(&path, &rewards, -1.0));
            }
            match child {
                Some(c) => node = c,
                None => {
                    if env.doomed() {
                        // Forward checking emptied some node's candidate
                        // set: back a failure up without a network query
                        // or a playout (neither can rescue the state).
                        mapzero_obs::counter!("search.prune.dead_state");
                        mapzero_obs::counter!("mcts.expansions");
                        self.nodes.push(TreeNode { edges: Vec::new(), visits: 1 });
                        let leaf = self.nodes.len() - 1;
                        self.nodes[node].edges[edge_idx].child = Some(leaf);
                        budget.charge(1);
                        return WalkResult::Resolved(self.backup(&path, &rewards, -1.0));
                    }
                    let legal = env.search_actions();
                    // Reserve the expansion against the budget now so a
                    // sweep can never overshoot the pool by more than
                    // the node the pre-walk poll already allowed.
                    budget.charge(1);
                    let key = state_key(self.net, &env);
                    return WalkResult::Pending(Box::new(PendingLeaf {
                        path,
                        rewards,
                        env,
                        legal,
                        key,
                    }));
                }
            }
        }
    }

    /// Evaluate and resolve every pending leaf of a sweep, in selection
    /// order: predict all of them through the cache (hits never occupy
    /// a batch slot; the misses share one batched forward), then
    /// expand, play out and back up each leaf. Returns the summed
    /// root-level values.
    fn flush_pending(
        &mut self,
        pending: &mut Vec<PendingLeaf<'_>>,
        batch: usize,
        solution: &mut Option<Mapping>,
    ) -> f64 {
        mapzero_obs::counter!("search.batch.flush");
        if pending.len() < batch {
            mapzero_obs::counter!("search.batch.partial");
        }
        let states: Vec<(u64, &MapEnv<'_>)> =
            pending.iter().map(|leaf| (leaf.key, &leaf.env)).collect();
        let predictions = self.predict_cached(&states, true);
        let mut total = 0.0f64;
        for (leaf, pred) in pending.drain(..).zip(predictions) {
            let (child, net_value) = self.expand_scored(leaf.legal, &pred);
            let &(parent, edge_idx) = leaf.path.last().expect("pending walk has a path");
            self.nodes[parent].edges[edge_idx].child = Some(child);
            self.nodes[child].visits += 1;
            let mut env = leaf.env;
            let leaf_value = if self.config.playout {
                let playout_value = self.playout(&mut env, solution);
                0.5 * (net_value + playout_value)
            } else {
                net_value
            };
            total += self.backup(&leaf.path, &leaf.rewards, leaf_value);
        }
        total
    }

    /// Back one walk up: fold the leaf value through the per-step
    /// rewards (clamped at every level, like the one-leaf recursion) and
    /// revert each edge's virtual loss while applying its real value.
    /// Returns the root-level value of the simulation.
    fn backup(&mut self, path: &[(usize, usize)], rewards: &[f64], leaf_value: f64) -> f64 {
        debug_assert_eq!(path.len(), rewards.len());
        let mut value = leaf_value;
        for (&(node, edge_idx), &reward) in path.iter().zip(rewards).rev() {
            value = (reward + value).clamp(-1.0, 1.0);
            let edge = &mut self.nodes[node].edges[edge_idx];
            edge.total_value += VIRTUAL_LOSS + value;
        }
        value
    }

    /// Create a tree node for the environment state; returns the node
    /// index and the network's value estimate.
    fn expand(&mut self, env: &MapEnv<'_>) -> (usize, f64) {
        if env.doomed() {
            // An unplaced node lost its last candidate: no conflict-free
            // completion exists, so record the failure without burning
            // a network query or a subtree on it.
            mapzero_obs::counter!("search.prune.dead_state");
            mapzero_obs::counter!("mcts.expansions");
            self.nodes.push(TreeNode { edges: Vec::new(), visits: 0 });
            return (self.nodes.len() - 1, -1.0);
        }
        let legal = env.search_actions();
        let preds = self.predict_cached(&[(state_key(self.net, env), env)], false);
        self.expand_scored(legal, &preds[0])
    }

    /// Create a tree node from an already-computed prediction; the
    /// shared expansion kernel of root and leaf expansion.
    fn expand_scored(&mut self, legal: Vec<PeId>, pred: &Prediction) -> (usize, f64) {
        mapzero_obs::counter!("mcts.expansions");
        // Actions offered to this expansion (pre-cap): together with
        // `mcts.expansions` this yields the effective branching factor
        // the ledger's trace reports (`mcts.branching`).
        mapzero_obs::counter!("search.expand.offered", legal.len() as u64);
        let mut scored: Vec<(PeId, f64)> = legal
            .into_iter()
            .map(|pe| (pe, f64::from(pred.log_probs[pe.index()].exp())))
            .collect();
        // Keep the most promising `expansion_cap` actions. `total_cmp`
        // gives a total order even if a prior degenerates to NaN (a
        // poisoned network must not panic the search; NaNs sort last).
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.truncate(self.config.expansion_cap);
        let norm: f64 = scored.iter().map(|(_, p)| *p).sum::<f64>().max(1e-12);
        let edges = scored
            .into_iter()
            .map(|(action, p)| EdgeStat {
                action,
                prior: p / norm,
                visits: 0,
                total_value: 0.0,
                child: None,
            })
            .collect();
        self.nodes.push(TreeNode { edges, visits: 0 });
        (self.nodes.len() - 1, f64::from(pred.value))
    }

    /// Network predictions for keyed states, in order, through the
    /// cache: the one place a search reads or writes it. One locked
    /// probe, the forward over the misses with the lock released, then
    /// one locked insert. Hits skip featurization and the forward pass
    /// entirely. `batched` (the leaf flush) runs the misses through one
    /// [`MapZeroNet::predict_batch`] and counts its hits as
    /// `search.batch.cache_short_circuit`; otherwise (the root) each
    /// miss gets its own [`MapZeroNet::predict`]. Hits and misses are
    /// counted as `search.predict_cache.{hit,miss}`.
    fn predict_cached(
        &mut self,
        states: &[(u64, &MapEnv<'_>)],
        batched: bool,
    ) -> Vec<Prediction> {
        let mut preds: Vec<Option<Prediction>> = {
            let mut cache = lock(&self.cache);
            states.iter().map(|&(key, _)| cache.get(key)).collect()
        };
        let mut miss_at: Vec<usize> = Vec::new();
        for (i, pred) in preds.iter().enumerate() {
            if pred.is_some() {
                mapzero_obs::counter!("search.predict_cache.hit");
                if batched {
                    mapzero_obs::counter!("search.batch.cache_short_circuit");
                }
            } else {
                mapzero_obs::counter!("search.predict_cache.miss");
                miss_at.push(i);
            }
        }
        if !miss_at.is_empty() {
            let fresh: Vec<Prediction> = if batched {
                let obs: Vec<crate::embed::Observation> =
                    miss_at.iter().map(|&i| self.observer.observe(states[i].1).clone()).collect();
                self.net.predict_batch(&obs.iter().collect::<Vec<_>>())
            } else {
                let observer = &mut self.observer;
                miss_at.iter().map(|&i| self.net.predict(observer.observe(states[i].1))).collect()
            };
            let mut cache = lock(&self.cache);
            for (i, pred) in miss_at.into_iter().zip(fresh) {
                cache.insert(states[i].0, pred.clone());
                preds[i] = Some(pred);
            }
        }
        preds.into_iter().map(|p| p.expect("every state was predicted")).collect()
    }

    /// Greedy playout to the end of the episode: each remaining node is
    /// placed on the free PE closest (grid distance) to its already-
    /// placed neighbours, with random tie-breaking. Returns the
    /// normalized return of the playout and records any complete
    /// mapping found.
    fn playout(&mut self, env: &mut MapEnv<'_>, solution: &mut Option<Mapping>) -> f64 {
        mapzero_obs::counter!("mcts.playouts");
        let mut acc = 0.0f64;
        let mut steps = 0usize;
        while !env.done() {
            if steps >= self.config.playout_step_limit {
                // Budget exhausted: score by how far the rollout got
                // without a conflict.
                let frac = env.placed_count() as f64 / env.problem().node_count() as f64;
                return (acc + frac - 0.5).clamp(-1.0, 1.0);
            }
            steps += 1;
            if env.doomed() {
                // Forward checking proved the rollout unwinnable; stop
                // instead of placing the remaining nodes.
                mapzero_obs::counter!("search.prune.dead_state");
                return (acc - 1.0).clamp(-1.0, 1.0);
            }
            let scratch = &mut self.playout_scratch;
            env.search_actions_into(&mut scratch.actions);
            if env.current_node().is_none() {
                // `!env.done()` at the loop head guarantees a current
                // node; treat a violation as a dead-end playout.
                debug_assert!(false, "playout env has no current node");
                return (acc - 1.0).clamp(-1.0, 1.0);
            }
            // Rank by distance to the placed neighbours, ties broken by
            // the position in PE order rotated by a random jitter. Each
            // key is computed once; the positions are distinct, so the
            // unstable sort is a total order.
            let len = scratch.actions.len();
            let jitter = self.rng.below(len);
            let dist = env.neighbour_distance(&mut scratch.anchors);
            scratch.keys.clear();
            scratch.keys.extend(
                scratch.actions.iter().enumerate().map(|(i, &pe)| (dist(pe), (i + jitter) % len, pe)),
            );
            scratch.keys.sort_unstable();
            // Router-aware greedy: try the nearest candidates and keep
            // the first that routes cleanly; accept the final failure
            // only when every candidate conflicts.
            let tries = len.min(4);
            let mut outcome = None;
            for k in 0..tries {
                let o = env.step(scratch.keys[k].2);
                if o.failed_routes == 0 || k + 1 == tries {
                    outcome = Some(o);
                    break;
                }
                env.undo();
            }
            let Some(outcome) = outcome else {
                // `tries >= 1` because a state that is not doomed has a
                // search action, so the loop always records an outcome;
                // fail the playout otherwise.
                debug_assert!(false, "no playout candidate was tried");
                return (acc - 1.0).clamp(-1.0, 1.0);
            };
            acc += norm_reward(outcome.reward);
            if outcome.failed_routes > 0 {
                // The playout already failed; finish cheaply.
                return (acc - 1.0).clamp(-1.0, 1.0);
            }
        }
        if env.success() {
            *solution = env.final_mapping();
            (acc + 1.0).clamp(-1.0, 1.0)
        } else {
            (acc - 1.0).clamp(-1.0, 1.0)
        }
    }

    /// PUCT selection over the edges of `node` (AlphaZero's rule with
    /// the stored priors `P(s,a)` of Alg. 1):
    /// `Q + c · P · sqrt(N) / (1 + n)`.
    fn select_edge(&self, node: usize) -> usize {
        mapzero_obs::counter!("mcts.selections");
        let n = &self.nodes[node];
        let parent_visits = f64::from(n.visits.max(1));
        let mut best = 0;
        let mut best_score = f64::NEG_INFINITY;
        for (i, e) in n.edges.iter().enumerate() {
            let score = e.q()
                + C_PUCT * e.prior * parent_visits.sqrt() / (1.0 + f64::from(e.visits));
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetConfig;
    use crate::problem::Problem;
    use crate::validate::check_mapping;
    use mapzero_arch::presets;
    use mapzero_dfg::random::{random_dfg, RandomDfgConfig};
    use mapzero_dfg::{suite, DfgBuilder, Opcode};
    use proptest::prelude::*;

    impl Mcts<'_> {
        /// The one-leaf-at-a-time simulation loop the batched loop
        /// replaced, kept as its oracle: one recursive
        /// [`Mcts::simulate`] pass and one network call per simulation.
        fn search_scalar(&mut self, root_env: &MapEnv<'_>) -> SearchResult {
            self.expand_root(root_env, &Budget::unlimited());
            let mut root_return = 0.0f64;
            let mut solution = None;
            for _ in 0..self.config.simulations {
                let mut env = root_env.clone();
                root_return += self.simulate(self.root, &mut env, &mut solution);
                if solution.is_some() {
                    break;
                }
            }
            self.search_result(root_env, root_return, solution)
        }

        /// One selection→expansion→evaluation→backpropagation pass.
        /// Returns the (normalized) value observed from `node`.
        fn simulate(
            &mut self,
            node: usize,
            env: &mut MapEnv<'_>,
            solution: &mut Option<Mapping>,
        ) -> f64 {
            self.nodes[node].visits += 1;
            if env.done() {
                return if env.success() { 1.0 } else { -1.0 };
            }
            if self.nodes[node].edges.is_empty() {
                // Dead end: the state is doomed.
                return -1.0;
            }
            let edge_idx = self.select_edge(node);
            let action = self.nodes[node].edges[edge_idx].action;
            let outcome = env.step(action);
            let step_value = norm_reward(outcome.reward);

            let child_value = if env.success() {
                *solution = env.final_mapping();
                1.0
            } else if env.done() {
                -1.0
            } else {
                match self.nodes[node].edges[edge_idx].child {
                    Some(child) => self.simulate(child, env, solution),
                    None => {
                        // Expansion + evaluation of the new leaf: network
                        // value plus, optionally, a greedy playout that can
                        // complete the mapping (early exit, §3.5).
                        let (child, net_value) = self.expand(env);
                        self.nodes[node].edges[edge_idx].child = Some(child);
                        self.nodes[child].visits += 1;
                        // A doomed leaf cannot complete conflict-free, so a
                        // playout from it is wasted work.
                        if self.config.playout && !env.doomed() {
                            let playout_value = self.playout(env, solution);
                            0.5 * (net_value + playout_value)
                        } else {
                            net_value
                        }
                    }
                }
            };
            let value = (step_value + child_value).clamp(-1.0, 1.0);
            let edge = &mut self.nodes[node].edges[edge_idx];
            edge.visits += 1;
            edge.total_value += value;
            value
        }
    }

    #[test]
    fn search_finds_solution_for_tiny_kernel() {
        let dfg = suite::by_name("sum").unwrap();
        let cgra = presets::hrea();
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let env = MapEnv::new(&problem);
        let net = MapZeroNet::new(cgra.pe_count(), NetConfig::tiny());
        let mut mcts = Mcts::new(&net, MctsConfig { simulations: 200, ..MctsConfig::fast_test() });
        let result = mcts.search(&env);
        // With an early exit, a trivially-mappable kernel must be solved
        // inside the search.
        let mapping = result.solution.expect("sum maps on HReA at II=1");
        assert_eq!(check_mapping(&dfg, &cgra, &mapping, mapping.ii), Ok(()));
    }

    #[test]
    fn visit_distribution_sums_to_one() {
        let dfg = suite::by_name("mac").unwrap();
        let cgra = presets::simple_mesh(4, 4);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let env = MapEnv::new(&problem);
        let net = MapZeroNet::new(16, NetConfig::tiny());
        let mut mcts = Mcts::new(&net, MctsConfig::fast_test());
        let result = mcts.search(&env);
        let total: f32 = result.visit_distribution.iter().sum();
        assert!((total - 1.0).abs() < 1e-4);
        assert!(result.root_value.abs() <= 1.0 + 1e-9);
    }

    #[test]
    fn expansion_cap_limits_branching() {
        let dfg = suite::by_name("mac").unwrap();
        let cgra = presets::simple_mesh(4, 4);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let env = MapEnv::new(&problem);
        let net = MapZeroNet::new(16, NetConfig::tiny());
        let config = MctsConfig { expansion_cap: 3, simulations: 10, ..MctsConfig::default() };
        let mut mcts = Mcts::new(&net, config);
        let result = mcts.search(&env);
        let nonzero = result.visit_distribution.iter().filter(|&&v| v > 0.0).count();
        assert!(nonzero <= 3, "visited {nonzero} root actions, cap is 3");
    }

    #[test]
    fn impossible_instance_yields_no_solution() {
        // Two loads one cycle apart on a 1x2 strip with II=1: the second
        // placement always conflicts spatially; every rollout fails.
        let mut b = DfgBuilder::new("hard");
        let a = b.node(Opcode::Load);
        let c = b.node(Opcode::Load);
        let d = b.node(Opcode::Add);
        let e = b.node(Opcode::Add);
        b.edge(a, d).unwrap();
        b.edge(c, e).unwrap();
        b.edge(a, e).unwrap();
        b.edge(c, d).unwrap();
        let dfg = b.finish().unwrap();
        let cgra = presets::simple_mesh(1, 4);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let env = MapEnv::new(&problem);
        let net = MapZeroNet::new(4, NetConfig::tiny());
        let mut mcts = Mcts::new(&net, MctsConfig::fast_test());
        let result = mcts.search(&env);
        // d and e each need both a and c as neighbours on a strip —
        // geometrically impossible, so no solution can be found.
        assert!(result.solution.is_none());
    }

    #[test]
    fn dead_end_states_expand_without_network_query() {
        // Two adds are placed before the load (topological order); if a
        // rollout parks an add on the only memory-capable PE, the load
        // reaches a state with zero legal actions. The search must
        // value that as a -1 dead end, not panic in the masked softmax.
        let mut b = DfgBuilder::new("greedy-trap");
        let a0 = b.node(Opcode::Add);
        let a1 = b.node(Opcode::Add);
        let ld = b.node(Opcode::Load);
        let sink = b.node(Opcode::Add);
        b.edge(a0, sink).unwrap();
        b.edge(a1, sink).unwrap();
        b.edge(ld, sink).unwrap();
        let dfg = b.finish().unwrap();
        let mut builder = mapzero_arch::CgraBuilder::new("one-mem", 2, 2)
            .interconnect(mapzero_arch::Interconnect::Mesh)
            .all_capabilities(mapzero_arch::Capability::COMPUTE);
        builder = builder.capability(0, 0, mapzero_arch::Capability::ALL);
        let cgra = builder.finish();
        let problem = Problem::new(&dfg, &cgra, 2).unwrap();
        let env = MapEnv::new(&problem);
        let net = MapZeroNet::new(4, NetConfig::tiny());
        let mut mcts = Mcts::new(
            &net,
            MctsConfig { simulations: 64, ..MctsConfig::fast_test() },
        );
        // Must terminate without panicking; dead ends are -1 leaves.
        let result = mcts.search(&env);
        assert!(result.visit_distribution.iter().sum::<f32>() > 0.0);
    }

    #[test]
    fn expired_budget_still_returns_a_legal_action() {
        let dfg = suite::by_name("mac").unwrap();
        let cgra = presets::simple_mesh(4, 4);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let env = MapEnv::new(&problem);
        let net = MapZeroNet::new(16, NetConfig::tiny());
        let mut mcts = Mcts::new(&net, MctsConfig::fast_test());
        let budget = Budget::with_deadline(std::time::Duration::ZERO);
        let result = mcts.search_with_budget(&env, &budget);
        assert!(env.legal_actions().contains(&result.best_action));
        // Only the root was expanded; no simulations ran.
        assert_eq!(mcts.tree_size(), 1);
    }

    #[test]
    fn expansion_budget_bounds_tree_growth() {
        let dfg = suite::by_name("mac").unwrap();
        let cgra = presets::simple_mesh(4, 4);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let env = MapEnv::new(&problem);
        let net = MapZeroNet::new(16, NetConfig::tiny());
        let config = MctsConfig { simulations: 500, playout: false, ..MctsConfig::fast_test() };
        let mut mcts = Mcts::new(&net, config);
        let budget = Budget::unlimited().with_expansion_cap(8);
        let _ = mcts.search_with_budget(&env, &budget);
        // Each simulation expands at most one leaf, so the tree may
        // overshoot the cap by a single node before the next poll.
        assert!(mcts.tree_size() <= 9, "tree grew to {}", mcts.tree_size());
        assert!(budget.exhausted());
    }

    /// A search through a cache warmed by other searches — another
    /// seed and batch width at the root, then the state below it —
    /// makes the same decision as a search through a cold cache.
    #[test]
    fn warm_cache_search_matches_cold_cache_search() {
        let dfg = suite::by_name("mac").unwrap();
        let cgra = presets::simple_mesh(4, 4);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap().with_candidate_pruning();
        let env = MapEnv::new(&problem);
        let net = MapZeroNet::new(16, NetConfig::tiny());
        let base = MctsConfig { playout: false, ..MctsConfig::fast_test() };
        let cold = Mcts::new(&net, base).search(&env);

        let cache = Arc::new(Mutex::new(PredictCache::new(PredictCache::CAPACITY)));
        let warmer_config = MctsConfig { seed: 99, leaf_batch: 3, ..base };
        let mut warmer = Mcts::with_cache(&net, warmer_config, Arc::clone(&cache));
        let first = warmer.search(&env);
        let mut child = env.clone();
        child.step(first.best_action);
        let _ = warmer.search(&child);
        assert!(!lock(&cache).is_empty(), "the warming searches must fill the cache");
        let warm = Mcts::with_cache(&net, base, cache).search(&env);

        assert_eq!(cold.best_action, warm.best_action);
        assert_eq!(cold.visit_distribution, warm.visit_distribution);
        assert_eq!(cold.root_value.to_bits(), warm.root_value.to_bits());
    }

    /// One `Mcts` reused across two problems of equal size and II —
    /// built in one loop, so they can share an address — searches the
    /// second exactly like a fresh `Mcts` does: no observation or
    /// prediction of the first leaks into it.
    #[test]
    fn reused_search_matches_fresh_search_across_equal_shape_problems() {
        let cgra = presets::adres();
        let net = MapZeroNet::new(cgra.pe_count(), NetConfig::tiny());
        let config = MctsConfig { playout: false, ..MctsConfig::fast_test() };
        let mut reused = Mcts::new(&net, config);
        for kernel in ["cap", "mults2"] {
            let dfg = suite::by_name(kernel).unwrap();
            let problem = Problem::new(&dfg, &cgra, 2).unwrap();
            let env = MapEnv::new(&problem);
            reused.reset();
            let got = reused.search(&env);
            let want = Mcts::new(&net, config).search(&env);
            assert_eq!(got.best_action, want.best_action, "{kernel}");
            assert_eq!(got.visit_distribution, want.visit_distribution, "{kernel}");
            assert_eq!(got.root_value.to_bits(), want.root_value.to_bits(), "{kernel}");
        }
    }

    /// Entries are keyed by the network's parameters: after a weight
    /// update a search through the warm cache equals a cold search
    /// under the new weights, and after a rollback to a snapshot the
    /// snapshot's entries hit again.
    #[test]
    fn cache_follows_weight_updates_and_rollbacks() {
        let dfg = suite::by_name("mac").unwrap();
        let cgra = presets::simple_mesh(4, 4);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let env = MapEnv::new(&problem);
        let mut net = MapZeroNet::new(16, NetConfig::tiny());
        // No playouts: the root value is a mix of network values alone,
        // so a stale prediction shows in its bits.
        let config = MctsConfig { playout: false, ..MctsConfig::fast_test() };
        let cache = Arc::new(Mutex::new(PredictCache::new(PredictCache::CAPACITY)));
        let snapshot = net.params.clone();
        let before = Mcts::with_cache(&net, config, Arc::clone(&cache)).search(&env);
        assert!(!lock(&cache).is_empty(), "search should have populated the cache");

        let sample = crate::network::TrainSample {
            observation: crate::embed::observe(&env),
            policy: vec![1.0 / 16.0; 16],
            value: 0.1,
        };
        let _ = net.train_batch(&[sample], 0.01, 5.0);
        let warm = Mcts::with_cache(&net, config, Arc::clone(&cache)).search(&env);
        let cold = Mcts::new(&net, config).search(&env);
        assert_ne!(warm.root_value.to_bits(), before.root_value.to_bits(), "served a stale entry");
        assert_eq!(warm.best_action, cold.best_action);
        assert_eq!(warm.visit_distribution, cold.visit_distribution);
        assert_eq!(warm.root_value.to_bits(), cold.root_value.to_bits());

        net.restore_params(snapshot);
        let entries = lock(&cache).len();
        let restored = Mcts::with_cache(&net, config, Arc::clone(&cache)).search(&env);
        assert_eq!(lock(&cache).len(), entries, "every state of the snapshot must hit");
        assert_eq!(restored.best_action, before.best_action);
        assert_eq!(restored.visit_distribution, before.visit_distribution);
        assert_eq!(restored.root_value.to_bits(), before.root_value.to_bits());
    }

    /// The flip-flop LRU keeps the entry count bounded by the capacity.
    #[test]
    fn predict_cache_is_bounded() {
        let mut cache = PredictCache::new(8);
        for k in 0..100u64 {
            cache.insert(k, Prediction { log_probs: vec![0.0], value: 0.0 });
        }
        assert!(cache.len() <= 8, "cache grew to {}", cache.len());
        // Most-recent entries stay resident.
        assert!(cache.get(99).is_some());
    }

    #[test]
    #[should_panic(expected = "unfinished episode")]
    fn search_on_done_episode_panics() {
        let mut b = DfgBuilder::new("one");
        b.node(Opcode::Add);
        let dfg = b.finish().unwrap();
        let cgra = presets::simple_mesh(2, 2);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut env = MapEnv::new(&problem);
        env.step(mapzero_arch::PeId(0));
        let net = MapZeroNet::new(4, NetConfig::tiny());
        let mut mcts = Mcts::new(&net, MctsConfig::fast_test());
        let _ = mcts.search(&env);
    }

    fn dfg_strategy() -> impl Strategy<Value = mapzero_dfg::Dfg> {
        (2usize..10, 0usize..6, any::<u64>()).prop_map(|(nodes, extra, seed)| {
            random_dfg(
                "prop-batch",
                &RandomDfgConfig {
                    nodes,
                    edges: nodes - 1 + extra,
                    self_cycles: 0,
                    max_fanin: 3,
                    seed,
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// With `leaf_batch == 1` the batched loop is bit-identical to
        /// the one-leaf-at-a-time loop: same best action, visit
        /// distribution, root value, tree size and solution presence,
        /// in schedule and fail-first order.
        #[test]
        fn batch_of_one_is_bit_identical_to_scalar_loop(
            dfg in dfg_strategy(),
            seed in any::<u64>(),
            fail_first in any::<bool>(),
        ) {
            let cgra = presets::simple_mesh(3, 3);
            let Ok(mii) = Problem::mii(&dfg, &cgra) else { return Ok(()) };
            let Ok(problem) = Problem::new(&dfg, &cgra, mii) else { return Ok(()) };
            let problem = if fail_first { problem.with_candidate_pruning() } else { problem };
            let env = MapEnv::new(&problem);
            if env.done() || env.doomed() {
                return Ok(());
            }
            let net = MapZeroNet::new(cgra.pe_count(), NetConfig::tiny());
            let config =
                MctsConfig { seed, simulations: 24, leaf_batch: 1, ..MctsConfig::fast_test() };
            let mut scalar = Mcts::new(&net, config);
            let mut batched = Mcts::new(&net, config);
            let a = scalar.search_scalar(&env);
            let b = batched.search(&env);
            prop_assert_eq!(a.best_action, b.best_action);
            prop_assert_eq!(a.visit_distribution, b.visit_distribution);
            prop_assert_eq!(a.root_value.to_bits(), b.root_value.to_bits());
            prop_assert_eq!(a.solution.is_some(), b.solution.is_some());
            prop_assert_eq!(scalar.tree_size(), batched.tree_size());
        }
    }
}
