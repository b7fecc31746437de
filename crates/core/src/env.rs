//! The mapping environment: the Markov decision process of §3.3.
//!
//! State = (CGRA occupancy per modulo slice, DFG with per-node mapping
//! features, metadata of the node being placed). Action = choice of PE
//! for the current node (invalid PEs are masked). Reward = the negative
//! routing penalty introduced by the placement: −100 per routing
//! conflict plus a small wire-cost term for claimed resources.

use crate::candidates::CandidateState;
use crate::ledger::Ledger;
use crate::mapping::{Mapping, Placement};
use crate::problem::Problem;
use crate::router::{route_edge, Route};
use mapzero_arch::PeId;
use mapzero_dfg::{EdgeId, NodeId, OpClass};

/// Penalty per routing conflict (§4.4: "each node placement causing a
/// routing conflict introduces a penalty of −100").
pub const CONFLICT_PENALTY: f64 = 100.0;

/// Result of one environment step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Reward (negative routing penalty) for this action.
    pub reward: f64,
    /// Number of edges that failed to route.
    pub failed_routes: usize,
    /// Newly-claimed routing resources.
    pub route_cost: usize,
    /// True when every node has been placed after this step.
    pub done: bool,
}

#[derive(Debug, Clone)]
struct StepRecord {
    checkpoint: crate::ledger::Checkpoint,
    routed_edges: Vec<usize>,
    failed_edges: Vec<usize>,
    reward: f64,
}

/// The placement environment over one [`Problem`].
#[derive(Debug, Clone)]
pub struct MapEnv<'a> {
    problem: &'a Problem<'a>,
    ledger: Ledger,
    placements: Vec<Option<Placement>>,
    routes: Vec<Option<Route>>,
    edge_failed: Vec<bool>,
    cursor: usize,
    history: Vec<StepRecord>,
    total_reward: f64,
    /// Live candidate sets (forward checking), present iff the problem
    /// was built with [`Problem::with_candidate_pruning`].
    cands: Option<CandidateState>,
}

impl<'a> MapEnv<'a> {
    /// Fresh environment with an empty mapping.
    #[must_use]
    pub fn new(problem: &'a Problem<'a>) -> Self {
        let n = problem.node_count();
        let e = problem.dfg().edge_count();
        MapEnv {
            problem,
            ledger: Ledger::new(problem.cgra(), problem.ii()),
            placements: vec![None; n],
            routes: vec![None; e],
            edge_failed: vec![false; e],
            cursor: 0,
            history: Vec::with_capacity(n),
            total_reward: 0.0,
            cands: problem.candidates().map(CandidateState::new),
        }
    }

    /// The underlying problem.
    #[must_use]
    pub fn problem(&self) -> &Problem<'a> {
        self.problem
    }

    /// The node to be placed next, or `None` when done.
    #[must_use]
    pub fn current_node(&self) -> Option<NodeId> {
        self.problem.order().get(self.cursor).copied()
    }

    /// Number of nodes placed so far.
    #[must_use]
    pub fn placed_count(&self) -> usize {
        self.cursor
    }

    /// True when all nodes are placed.
    #[must_use]
    pub fn done(&self) -> bool {
        self.cursor == self.problem.node_count()
    }

    /// Cumulative reward so far.
    #[must_use]
    pub fn total_reward(&self) -> f64 {
        self.total_reward
    }

    /// Number of edges that failed to route so far.
    #[must_use]
    pub fn failed_route_count(&self) -> usize {
        self.edge_failed.iter().filter(|&&f| f).count()
    }

    /// True when the episode ended with a complete, conflict-free
    /// mapping.
    #[must_use]
    pub fn success(&self) -> bool {
        self.done() && self.failed_route_count() == 0
    }

    /// Placement of a node, if placed.
    #[must_use]
    pub fn placement(&self, node: NodeId) -> Option<Placement> {
        self.placements[node.index()]
    }

    /// Grid distance from a PE to the current node's placed DFG
    /// neighbours: the sum of Manhattan distances to every placed
    /// parent and child. Unplaced neighbours are ignored, and every PE
    /// scores 0 when no node is current. The neighbours' positions are
    /// collected once, here; the returned closure scores one PE per
    /// call, so one decision ranks all its candidates with one scan of
    /// the DFG.
    pub fn neighbour_distance(&self) -> impl Fn(PeId) -> usize + 'a {
        let cgra = self.problem.cgra();
        let dfg = self.problem.dfg();
        let mut anchors: Vec<(usize, usize)> = Vec::new();
        if let Some(u) = self.current_node() {
            for e in dfg.in_edges(u).chain(dfg.out_edges(u)) {
                let other = if e.src == u { e.dst } else { e.src };
                if let Some(p) = self.placement(other) {
                    let pe = cgra.pe(p.pe);
                    anchors.push((pe.row, pe.col));
                }
            }
        }
        move |pe| {
            let info = cgra.pe(pe);
            anchors
                .iter()
                .map(|&(r, c)| info.row.abs_diff(r) + info.col.abs_diff(c))
                .sum()
        }
    }

    /// Current placements (`None` for unplaced nodes).
    #[must_use]
    pub fn placements(&self) -> &[Option<Placement>] {
        &self.placements
    }

    /// Number of DFG edges with a committed route right now.
    #[must_use]
    pub fn routed_edge_count(&self) -> u64 {
        self.routes.iter().filter(|r| r.is_some()).count() as u64
    }

    /// Occupancy of the modulo slice the current node is scheduled into
    /// (for the CGRA feature encoder); empty-slice view when done.
    #[must_use]
    pub fn current_slice_occupancy(&self) -> Vec<Option<usize>> {
        let slot = self
            .current_node()
            .map_or(0, |u| self.problem.schedule().modulo_slot(u));
        self.ledger.slice_occupancy(slot)
    }

    /// Word `k` of the legal-action bitset of node `u`: capable, functional
    /// unit free in the node's modulo slice, and (on ADRES) memory bus
    /// free.
    fn legal_word(&self, u: NodeId, k: usize) -> u64 {
        let slot = self.problem.schedule().modulo_slot(u);
        let mut word = self.problem.capable(u)[k] & !self.ledger.fu_busy(slot)[k];
        if let Some(rows) = self.problem.bus_rows() {
            if self.problem.dfg().node(u).opcode.class() == OpClass::Memory {
                for (row, pes) in rows.iter().enumerate() {
                    if self.ledger.membus(row, slot).is_some() {
                        word &= !pes[k];
                    }
                }
            }
        }
        word
    }

    /// The action bitset of the current node (empty when done): the
    /// legal actions, intersected with the live candidate set when
    /// `search` is set and pruning is on. The legal actions pruned away
    /// are counted as `search.prune.masked_actions`.
    fn action_words(&self, search: bool) -> Vec<u64> {
        let words = self.problem.words();
        let Some(u) = self.current_node() else { return vec![0; words] };
        let mut out: Vec<u64> = (0..words).map(|k| self.legal_word(u, k)).collect();
        if let (true, Some(cands)) = (search, self.cands.as_ref()) {
            let mut removed = 0u64;
            for (w, live) in out.iter_mut().zip(cands.live_set(u)) {
                removed += u64::from((*w & !live).count_ones());
                *w &= live;
            }
            if removed > 0 {
                mapzero_obs::counter!("search.prune.masked_actions", removed);
            }
        }
        out
    }

    /// The boolean action mask over PEs for the current node: capable,
    /// functional unit free in the node's modulo slice, and (on ADRES)
    /// memory bus free. All-false when done.
    #[must_use]
    pub fn action_mask(&self) -> Vec<bool> {
        bool_mask(&self.action_words(false), self.problem.cgra().pe_count())
    }

    /// Legal actions as PE ids.
    #[must_use]
    pub fn legal_actions(&self) -> Vec<PeId> {
        pe_ids(&self.action_words(false))
    }

    /// True when this environment carries live candidate sets (the
    /// problem was built with [`Problem::with_candidate_pruning`]).
    #[must_use]
    pub fn pruning_enabled(&self) -> bool {
        self.cands.is_some()
    }

    /// True when some unplaced node has an empty live candidate set —
    /// no conflict-free completion exists from this state, so the
    /// search can back a failure value up immediately instead of
    /// expanding the subtree. Always `false` without candidate pruning.
    #[must_use]
    pub fn doomed(&self) -> bool {
        self.cands.as_ref().is_some_and(CandidateState::doomed)
    }

    /// [`MapEnv::action_mask`] intersected with the current node's live
    /// candidate set. Identical to the plain mask without pruning; the
    /// pruned-away legal actions are counted as
    /// `search.prune.masked_actions`.
    #[must_use]
    pub fn search_mask(&self) -> Vec<bool> {
        bool_mask(&self.action_words(true), self.problem.cgra().pe_count())
    }

    /// Legal actions restricted to the current node's live candidate
    /// set (equal to [`MapEnv::legal_actions`] without pruning).
    #[must_use]
    pub fn search_actions(&self) -> Vec<PeId> {
        pe_ids(&self.action_words(true))
    }

    /// [`MapEnv::search_actions`] minus the PEs set in `banned` (a bitset
    /// over PE ids), ascending.
    pub(crate) fn search_actions_except(&self, banned: &[u64]) -> Vec<PeId> {
        let mut words = self.action_words(true);
        for (w, b) in words.iter_mut().zip(banned) {
            *w &= !b;
        }
        pe_ids(&words)
    }

    /// Place the current node on `pe`, route every edge whose endpoints
    /// are now both placed, and return the step outcome.
    ///
    /// # Panics
    /// Panics if the episode is done or `pe` is masked (callers must
    /// respect [`MapEnv::action_mask`]).
    pub fn step(&mut self, pe: PeId) -> StepOutcome {
        let u = self.current_node().expect("episode not done");
        assert!(
            pe.index() < self.problem.cgra().pe_count()
                && self.legal_word(u, pe.index() / 64) & (1u64 << (pe.index() % 64)) != 0,
            "action {pe} is masked for node {u}"
        );
        let dfg = self.problem.dfg();
        let cgra = self.problem.cgra();
        let schedule = self.problem.schedule();
        let time = schedule.time(u);
        let slot = schedule.modulo_slot(u);

        let checkpoint = self.ledger.checkpoint();
        assert!(self.ledger.claim_fu(pe, slot, u), "mask guaranteed a free FU");
        if cgra.row_shared_mem_bus() && dfg.node(u).opcode.class() == OpClass::Memory {
            assert!(
                self.ledger.claim_membus(cgra.pe(pe).row, slot, u),
                "mask guaranteed a free bus"
            );
        }
        let placement = Placement { pe, time };
        self.placements[u.index()] = Some(placement);
        if let Some(cands) = self.cands.as_mut() {
            let map = self.problem.candidates().expect("live state implies a map");
            cands.on_place(map, u, pe, &self.placements);
        }

        // Route every edge whose endpoints are now both placed. Those
        // are exactly the edges incident to `u` with the other end
        // placed: every edge placed at both ends before this step was
        // already routed or failed. Ascending edge index keeps the
        // routing order of a full edge scan.
        let mut failed = 0usize;
        let mut cost = 0usize;
        let mut routed_edges = Vec::new();
        let mut failed_edges = Vec::new();
        for &idx in self.problem.incident_edges(u) {
            let e = dfg.edge(EdgeId(idx as u32));
            debug_assert!(self.routes[idx].is_none() && !self.edge_failed[idx]);
            let (Some(from), Some(to)) =
                (self.placements[e.src.index()], self.placements[e.dst.index()])
            else {
                continue;
            };
            match route_edge(cgra, &mut self.ledger, e.src, from, to, e.dist) {
                Some(route) => {
                    cost += route.cost;
                    self.routes[idx] = Some(route);
                    routed_edges.push(idx);
                }
                None => {
                    failed += 1;
                    self.edge_failed[idx] = true;
                    failed_edges.push(idx);
                }
            }
        }

        let reward = -(CONFLICT_PENALTY * failed as f64 + cost as f64);
        self.total_reward += reward;
        self.history.push(StepRecord { checkpoint, routed_edges, failed_edges, reward });
        self.cursor += 1;
        StepOutcome { reward, failed_routes: failed, route_cost: cost, done: self.done() }
    }

    /// Undo the most recent step (the backtracking primitive of §3.6.2).
    ///
    /// Returns the node that was unplaced, or `None` at the initial
    /// state.
    pub fn undo(&mut self) -> Option<NodeId> {
        let record = self.history.pop()?;
        self.cursor -= 1;
        let u = self.problem.order()[self.cursor];
        self.placements[u.index()] = None;
        for idx in record.routed_edges {
            self.routes[idx] = None;
        }
        for idx in record.failed_edges {
            self.edge_failed[idx] = false;
        }
        self.ledger.undo_to(record.checkpoint);
        self.total_reward -= record.reward;
        if let Some(cands) = self.cands.as_mut() {
            cands.on_undo();
        }
        Some(u)
    }

    /// Extract the final mapping after a successful episode.
    #[must_use]
    pub fn final_mapping(&self) -> Option<Mapping> {
        if !self.success() {
            return None;
        }
        // `success()` means every node is placed; a hole here would be a
        // broken invariant, so degrade to "no mapping" instead of panic.
        let placements = match self.placements.iter().copied().collect::<Option<Vec<_>>>() {
            Some(p) => p,
            None => {
                debug_assert!(false, "successful episode with an unplaced node");
                return None;
            }
        };
        let routes = self
            .routes
            .iter()
            .map(|r| r.as_ref().map(|r| r.hops.clone()).unwrap_or_default())
            .collect();
        Some(Mapping { ii: self.problem.ii(), placements, routes })
    }
}

/// A bitset over PE ids as a boolean mask of `pe_count` entries.
fn bool_mask(words: &[u64], pe_count: usize) -> Vec<bool> {
    (0..pe_count).map(|p| words[p / 64] & (1u64 << (p % 64)) != 0).collect()
}

/// The set bits of a bitset over PE ids, ascending.
fn pe_ids(words: &[u64]) -> Vec<PeId> {
    let mut out = Vec::with_capacity(words.iter().map(|w| w.count_ones() as usize).sum());
    for (k, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            out.push(PeId((k * 64) as u32 + w.trailing_zeros()));
            w &= w - 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_mapping;
    use mapzero_arch::presets;
    use mapzero_dfg::{DfgBuilder, Opcode};

    fn chain3() -> mapzero_dfg::Dfg {
        let mut b = DfgBuilder::new("chain3");
        let a = b.node(Opcode::Load);
        let m = b.node(Opcode::Mul);
        let s = b.node(Opcode::Store);
        b.edge(a, m).unwrap();
        b.edge(m, s).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn happy_path_maps_chain() {
        let dfg = chain3();
        let cgra = presets::simple_mesh(2, 2);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut env = MapEnv::new(&problem);
        // Place along a mesh path: pe0 -> pe1 -> pe3.
        let o1 = env.step(PeId(0));
        assert_eq!(o1.failed_routes, 0);
        let o2 = env.step(PeId(1));
        assert_eq!(o2.failed_routes, 0);
        let o3 = env.step(PeId(3));
        assert!(o3.done);
        assert!(env.success());
        let m = env.final_mapping().unwrap();
        assert_eq!(check_mapping(&dfg, &cgra, &m, m.ii), Ok(()));
    }

    #[test]
    fn bad_placement_incurs_conflict_penalty() {
        let dfg = chain3();
        let cgra = presets::simple_mesh(2, 2);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut env = MapEnv::new(&problem);
        env.step(PeId(0));
        // pe3 is diagonal from pe0: at II=1 with a 1-cycle deadline the
        // route must fail.
        let o = env.step(PeId(3));
        assert_eq!(o.failed_routes, 1);
        assert!(o.reward <= -CONFLICT_PENALTY);
        assert!(!env.success());
        assert!(env.final_mapping().is_none());
    }

    #[test]
    fn mask_blocks_occupied_pe() {
        let dfg = chain3();
        let cgra = presets::simple_mesh(2, 2);
        // II=1: every node shares the single modulo slice.
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut env = MapEnv::new(&problem);
        env.step(PeId(0));
        assert!(!env.action_mask()[0]);
        assert_eq!(env.legal_actions().len(), 3);
    }

    #[test]
    fn undo_restores_everything() {
        let dfg = chain3();
        let cgra = presets::simple_mesh(2, 2);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut env = MapEnv::new(&problem);
        env.step(PeId(0));
        let before_mask = env.action_mask();
        let before_reward = env.total_reward();
        env.step(PeId(3)); // fails to route
        assert_eq!(env.failed_route_count(), 1);
        let undone = env.undo().unwrap();
        assert_eq!(env.failed_route_count(), 0);
        assert_eq!(env.action_mask(), before_mask);
        assert!((env.total_reward() - before_reward).abs() < 1e-9);
        // Re-place correctly.
        env.step(PeId(1));
        env.step(PeId(3));
        assert!(env.success());
        let _ = undone;
    }

    #[test]
    fn undo_at_start_returns_none() {
        let dfg = chain3();
        let cgra = presets::simple_mesh(2, 2);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut env = MapEnv::new(&problem);
        assert!(env.undo().is_none());
    }

    #[test]
    fn adres_mask_enforces_row_bus() {
        let mut b = DfgBuilder::new("loads");
        let l0 = b.node(Opcode::Load);
        let l1 = b.node(Opcode::Load);
        let a = b.node(Opcode::Add);
        b.edge(l0, a).unwrap();
        b.edge(l1, a).unwrap();
        let dfg = b.finish().unwrap();
        let cgra = presets::adres();
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut env = MapEnv::new(&problem);
        env.step(PeId(0)); // load on row 0
        // Every other row-0 PE is now masked for the second load.
        let mask = env.action_mask();
        for col in 1..8 {
            assert!(!mask[cgra.at(0, col).index()], "col {col} should be masked");
        }
        assert!(mask[cgra.at(1, 0).index()]);
    }

    #[test]
    fn current_slice_occupancy_tracks_fu() {
        let dfg = chain3();
        let cgra = presets::simple_mesh(2, 2);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut env = MapEnv::new(&problem);
        env.step(PeId(2));
        let occ = env.current_slice_occupancy();
        assert_eq!(occ[2], Some(0));
    }

    #[test]
    #[should_panic(expected = "is masked")]
    fn stepping_masked_action_panics() {
        let dfg = chain3();
        let cgra = presets::simple_mesh(2, 2);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut env = MapEnv::new(&problem);
        env.step(PeId(0));
        env.step(PeId(0));
    }

    #[test]
    #[should_panic(expected = "is masked")]
    fn stepping_out_of_range_pe_panics() {
        let dfg = chain3();
        let cgra = presets::simple_mesh(2, 2);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut env = MapEnv::new(&problem);
        env.step(PeId(4));
    }

    #[test]
    fn neighbour_distance_sums_placed_neighbours_only() {
        // a, b -> c -> d: when c is current, a and b are placed and d,
        // its unplaced child, must not count.
        let mut b = DfgBuilder::new("fan_in");
        let (na, nb) = (b.node(Opcode::Load), b.node(Opcode::Load));
        let (nc, nd) = (b.node(Opcode::Add), b.node(Opcode::Store));
        b.edge(na, nc).unwrap();
        b.edge(nb, nc).unwrap();
        b.edge(nc, nd).unwrap();
        let dfg = b.finish().unwrap();
        let cgra = presets::simple_mesh(4, 4);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        assert_eq!(problem.order(), &[na, nb, nc, nd]);
        let mut env = MapEnv::new(&problem);
        assert!(
            (0..16).all(|pe| env.neighbour_distance()(PeId(pe)) == 0),
            "c is unplaced"
        );
        env.step(cgra.at(0, 0));
        env.step(cgra.at(0, 3));
        assert_eq!(env.current_node(), Some(nc));
        let dist = env.neighbour_distance();
        // |r - 0| + |c - 0| + |r - 0| + |c - 3|
        assert_eq!(dist(cgra.at(0, 0)), 3);
        assert_eq!(dist(cgra.at(0, 2)), 3);
        assert_eq!(dist(cgra.at(1, 1)), 5);
        assert_eq!(dist(cgra.at(2, 3)), 7);
        assert_eq!(dist(cgra.at(3, 0)), 9);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// After any step/undo sequence, exactly the DFG edges with both
        /// endpoints placed are routed or failed (never both). `step`
        /// routes only the placed node's incident edges on the strength
        /// of this invariant.
        #[test]
        fn exactly_the_edges_placed_at_both_ends_are_routed_or_failed(
            nodes in 2usize..14,
            extra in 0usize..8,
            cycles in 0usize..3,
            seed in proptest::any::<u64>(),
            fabric in 0usize..3,
            ops in proptest::collection::vec((0usize..64, 0usize..4), 0..32),
        ) {
            let dfg = mapzero_dfg::random::random_dfg(
                "prop",
                &mapzero_dfg::random::RandomDfgConfig {
                    nodes,
                    edges: nodes - 1 + extra,
                    self_cycles: cycles,
                    max_fanin: 3,
                    seed,
                },
            );
            let cgra = [presets::simple_mesh(3, 3), presets::adres(), presets::hycube()][fabric]
                .clone();
            let Ok(mii) = Problem::mii(&dfg, &cgra) else { return Ok(()); };
            let Ok(problem) = Problem::new(&dfg, &cgra, mii) else { return Ok(()); };
            let mut env = MapEnv::new(&problem);
            for (pick, op) in ops {
                let legal = env.legal_actions();
                if op == 0 || env.done() || legal.is_empty() {
                    if env.undo().is_none() {
                        break;
                    }
                } else {
                    env.step(legal[pick % legal.len()]);
                }
                for (idx, e) in dfg.edges().enumerate() {
                    let placed = env.placement(e.src).is_some() && env.placement(e.dst).is_some();
                    let routed = env.routes[idx].is_some();
                    let failed = env.edge_failed[idx];
                    proptest::prop_assert!(!(routed && failed), "edge {idx} routed and failed");
                    proptest::prop_assert_eq!(routed || failed, placed, "edge {}", idx);
                }
            }
        }
    }
}
