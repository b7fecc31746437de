//! The mapping environment: the Markov decision process of §3.3.
//!
//! State = (CGRA occupancy per modulo slice, DFG with per-node mapping
//! features, metadata of the node being placed). Action = choice of PE
//! for the current node (invalid PEs are masked). Reward = the negative
//! routing penalty introduced by the placement: −100 per routing
//! conflict plus a small wire-cost term for claimed resources.

use crate::candidates::CandidateState;
use crate::ledger::Ledger;
use crate::mapping::{Mapping, Placement, RouteHop};
use crate::problem::Problem;
use crate::router::route_edge;
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

/// What one step appended, for [`MapEnv::undo`]: the lengths of the
/// ledger journal, the hop arena and the lost witnesses before it, and
/// its reward.
#[derive(Debug, Clone, Copy)]
struct StepRecord {
    checkpoint: crate::ledger::Checkpoint,
    hops_len: usize,
    lost_len: usize,
    reward: f64,
}

/// The routing state of one DFG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeRoute {
    /// An endpoint is unplaced.
    Pending,
    /// Routed: its hops are `hops[start..start + len]` of the arena.
    Routed { start: u32, len: u32 },
    /// Both endpoints placed, but no route exists.
    Failed,
}

/// "No node" and "no witness" in [`Witnesses`].
const NONE: u32 = u32::MAX;

/// True when `u` is a memory op on a fabric whose rows share one
/// memory bus, so it also needs its row's bus free.
fn on_bus(problem: &Problem<'_>, u: NodeId) -> bool {
    problem.cgra().row_shared_mem_bus() && problem.dfg().node(u).opcode.class() == OpClass::Memory
}

/// Watched witnesses for [`MapEnv::doomed`], after the watched literals
/// of SAT solvers.
///
/// Every unplaced node either has a *witness* — a PE of its live set
/// whose FU is free in the node's modulo slot and, for a memory op on a
/// row-bus fabric, whose row bus is free there too — or is *lost*: no
/// such PE exists. A step only takes FUs and buses and clears live
/// bits, so a lost node stays lost until that step is undone; an undo
/// only frees them and restores bits, so every witness stays valid
/// across it. A step therefore re-finds the witness of the nodes that
/// watch what it took, and an undo relinks the node it unplaces and the
/// nodes its step lost, restoring nothing else.
///
/// The nodes watching one `(slot, PE)` form a doubly linked list
/// threaded through flat per-node arrays, so a clone copies a few
/// vectors.
#[derive(Debug, Clone)]
struct Witnesses {
    pes: usize,
    /// Per node: its witness PE, or `NONE` while lost. A placed node
    /// keeps the witness it had, for the undo that unplaces it.
    witness: Vec<u32>,
    /// Per `(slot, PE)`, at `slot * pes + pe`: the first node watching
    /// it, or `NONE`.
    head: Vec<u32>,
    /// Per node: the next and previous node on its watch list.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// `(node, the witness it lost)`, in step order.
    lost: Vec<(u32, u32)>,
    /// Lost nodes that are unplaced.
    lost_unplaced: usize,
}

impl Witnesses {
    /// Witnesses for a fresh environment: nodes that start lost stay
    /// lost for good.
    fn new(problem: &Problem<'_>, ledger: &Ledger, cands: &CandidateState) -> Self {
        let n = problem.node_count();
        let pes = problem.cgra().pe_count();
        let mut watch = Witnesses {
            pes,
            witness: vec![NONE; n],
            head: vec![NONE; problem.ii() as usize * pes],
            next: vec![NONE; n],
            prev: vec![NONE; n],
            lost: Vec::new(),
            lost_unplaced: 0,
        };
        for w in 0..n {
            watch.rewatch(problem, ledger, cands, w);
        }
        watch
    }

    /// The watch-list index of `(slot of w, pe)`.
    fn cell(&self, problem: &Problem<'_>, w: usize, pe: u32) -> usize {
        problem.schedule().modulo_slot(NodeId(w as u32)) as usize * self.pes + pe as usize
    }

    fn link(&mut self, w: usize, cell: usize) {
        let head = self.head[cell];
        self.next[w] = head;
        self.prev[w] = NONE;
        if head != NONE {
            self.prev[head as usize] = w as u32;
        }
        self.head[cell] = w as u32;
    }

    fn unlink(&mut self, w: usize, cell: usize) {
        let (next, prev) = (self.next[w], self.prev[w]);
        if prev == NONE {
            self.head[cell] = next;
        } else {
            self.next[prev as usize] = next;
        }
        if next != NONE {
            self.prev[next as usize] = prev;
        }
    }

    /// Give the unlinked, unplaced node `w` a witness of the current
    /// state (the lowest free PE of its live set), or record it as lost.
    fn rewatch(
        &mut self,
        problem: &Problem<'_>,
        ledger: &Ledger,
        cands: &CandidateState,
        w: usize,
    ) {
        let node = NodeId(w as u32);
        let slot = problem.schedule().modulo_slot(node);
        let (live, fu, bus) = (cands.live_set(node), ledger.fu_busy(slot), ledger.bus_busy(slot));
        let bus_mask = if on_bus(problem, node) { u64::MAX } else { 0 };
        let found = live
            .iter()
            .zip(fu)
            .zip(bus)
            .map(|((&l, &f), &b)| l & !f & !(b & bus_mask))
            .enumerate()
            .find(|&(_, word)| word != 0);
        match found {
            Some((k, word)) => {
                let pe = (k * 64) as u32 + word.trailing_zeros();
                self.witness[w] = pe;
                self.link(w, slot as usize * self.pes + pe as usize);
            }
            None => {
                self.lost.push((w as u32, self.witness[w]));
                self.witness[w] = NONE;
                self.lost_unplaced += 1;
            }
        }
    }

    /// Restore the invariant after `u` was placed on `pe`: the ledger
    /// has claimed its FU (and row bus) and `cands` holds the step's
    /// trail frame. Re-finds the witness of exactly the nodes watching
    /// `pe`'s FU, the memory ops watching a PE of the row whose bus was
    /// claimed, and the nodes whose witness bit the frame cleared.
    fn on_step(
        &mut self,
        problem: &Problem<'_>,
        ledger: &Ledger,
        cands: &CandidateState,
        u: NodeId,
        pe: PeId,
    ) {
        let ui = u.index();
        match self.witness[ui] {
            NONE => self.lost_unplaced -= 1,
            p => self.unlink(ui, self.cell(problem, ui, p)),
        }
        let slot = problem.schedule().modulo_slot(u) as usize;
        // Every node watching the FU just taken: detach the whole list.
        let mut w = std::mem::replace(&mut self.head[slot * self.pes + pe.index()], NONE);
        while w != NONE {
            let next = self.next[w as usize];
            self.rewatch(problem, ledger, cands, w as usize);
            w = next;
        }
        if on_bus(problem, u) {
            let cgra = problem.cgra();
            let row = cgra.pe(pe).row;
            for col in 0..cgra.cols() {
                let cell = slot * self.pes + cgra.at(row, col).index();
                let mut w = self.head[cell];
                while w != NONE {
                    let next = self.next[w as usize];
                    if on_bus(problem, NodeId(w)) {
                        self.unlink(w as usize, cell);
                        self.rewatch(problem, ledger, cands, w as usize);
                    }
                    w = next;
                }
            }
        }
        for (w, k, cleared) in cands.last_removals() {
            let p = self.witness[w];
            if p != NONE && p as usize / 64 == k && cleared & (1u64 << (p % 64)) != 0 {
                self.unlink(w, self.cell(problem, w, p));
                self.rewatch(problem, ledger, cands, w);
            }
        }
    }

    /// Undo [`Self::on_step`] for `u`, whose step found `lost.len()` at
    /// `lost_len`: relink the nodes that step lost at their old
    /// witnesses, and `u` at its own.
    fn on_undo(&mut self, problem: &Problem<'_>, u: NodeId, lost_len: usize) {
        while self.lost.len() > lost_len {
            let Some((w, p)) = self.lost.pop() else { break };
            let w = w as usize;
            self.witness[w] = p;
            self.link(w, self.cell(problem, w, p));
            self.lost_unplaced -= 1;
        }
        let ui = u.index();
        match self.witness[ui] {
            NONE => self.lost_unplaced += 1,
            p => self.link(ui, self.cell(problem, ui, p)),
        }
    }
}

/// The placement environment over one [`Problem`].
///
/// Every step's state lives in flat vectors: the ledger's journal and
/// one arena holding the hops of every committed route grow and shrink
/// LIFO, with one `Copy` record per step; each edge holds a span of the
/// arena. Undo truncates them, so a clone (every MCTS walk clones its
/// root environment) is a fixed handful of `memcpy`s with no per-edge
/// or per-step allocation.
#[derive(Debug, Clone)]
pub struct MapEnv<'a> {
    problem: &'a Problem<'a>,
    ledger: Ledger,
    placements: Vec<Option<Placement>>,
    /// Per edge, indexed like the DFG's edges.
    edges: Vec<EdgeRoute>,
    /// Hops of every committed route, in step order.
    hops: Vec<RouteHop>,
    /// Number of `EdgeRoute::Routed` and `EdgeRoute::Failed` entries.
    routed: usize,
    failed: usize,
    cursor: usize,
    history: Vec<StepRecord>,
    total_reward: f64,
    /// Live candidate sets (forward checking).
    cands: CandidateState,
    /// One witness per unplaced node, for [`MapEnv::doomed`].
    watch: Witnesses,
}

impl<'a> MapEnv<'a> {
    /// Fresh environment with an empty mapping.
    #[must_use]
    pub fn new(problem: &'a Problem<'a>) -> Self {
        let n = problem.node_count();
        let e = problem.dfg().edge_count();
        let ledger = Ledger::new(problem.cgra(), problem.ii());
        let cands = CandidateState::new(problem.candidates());
        let watch = Witnesses::new(problem, &ledger, &cands);
        MapEnv {
            problem,
            ledger,
            placements: vec![None; n],
            edges: vec![EdgeRoute::Pending; e],
            hops: Vec::new(),
            routed: 0,
            failed: 0,
            cursor: 0,
            history: Vec::with_capacity(n),
            total_reward: 0.0,
            cands,
            watch,
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
        self.failed
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
    /// collected once, here, into `anchors` (cleared first, so a caller
    /// can reuse it); the returned closure scores one PE per call, so
    /// one decision ranks all its candidates with one scan of the DFG.
    pub fn neighbour_distance<'b>(
        &self,
        anchors: &'b mut Vec<(usize, usize)>,
    ) -> impl Fn(PeId) -> usize + 'b
    where
        'a: 'b,
    {
        let cgra = self.problem.cgra();
        let dfg = self.problem.dfg();
        anchors.clear();
        if let Some(u) = self.current_node() {
            for e in dfg.in_edges(u).chain(dfg.out_edges(u)) {
                let other = if e.src == u { e.dst } else { e.src };
                if let Some(p) = self.placement(other) {
                    let pe = cgra.pe(p.pe);
                    anchors.push((pe.row, pe.col));
                }
            }
        }
        let anchors = &*anchors;
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
        self.routed as u64
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
        if on_bus(self.problem, u) {
            word &= !self.ledger.bus_busy(slot)[k];
        }
        word
    }

    /// Feed `f` each word `k` of the current node's action bitset, for
    /// every `k` (nothing when done): the legal actions, intersected
    /// with the live candidate set when `search` is set. The legal
    /// actions pruned away are counted as `search.prune.masked_actions`.
    fn action_words(&self, search: bool, mut f: impl FnMut(usize, u64)) {
        let Some(u) = self.current_node() else { return };
        let live = self.cands.live_set(u);
        let mut removed = 0u64;
        for (k, &l) in live.iter().enumerate() {
            let mut word = self.legal_word(u, k);
            if search {
                removed += u64::from((word & !l).count_ones());
                word &= l;
            }
            f(k, word);
        }
        if removed > 0 {
            mapzero_obs::counter!("search.prune.masked_actions", removed);
        }
    }

    /// The action bitset as a boolean mask over PEs.
    fn mask(&self, search: bool) -> Vec<bool> {
        let mut mask = vec![false; self.problem.cgra().pe_count()];
        self.action_words(search, |k, word| for_each_bit(k, word, |pe| mask[pe.index()] = true));
        mask
    }

    /// Append the action bitset's PEs to `out`, ascending.
    fn push_actions(&self, search: bool, out: &mut Vec<PeId>) {
        self.action_words(search, |k, word| for_each_bit(k, word, |pe| out.push(pe)));
    }

    /// The boolean action mask over PEs for the current node: capable,
    /// functional unit free in the node's modulo slice, and (on ADRES)
    /// memory bus free. All-false when done.
    #[must_use]
    pub fn action_mask(&self) -> Vec<bool> {
        self.mask(false)
    }

    /// Legal actions as PE ids.
    #[must_use]
    pub fn legal_actions(&self) -> Vec<PeId> {
        let mut out = Vec::new();
        self.push_actions(false, &mut out);
        out
    }

    /// True when some unplaced node has no live candidate left that is
    /// also free in its modulo slot — no conflict-free completion exists
    /// from this state, so the search can back a failure value up
    /// immediately instead of expanding the subtree. A live set lies
    /// within its node's capable set, so a current node with no search
    /// action makes the state doomed.
    ///
    /// O(1): a distance bound emptied a live set
    /// ([`CandidateState::doomed`]), or an unplaced node has no witness
    /// left (see `Witnesses`, kept up to date by `step` and `undo`).
    #[must_use]
    pub fn doomed(&self) -> bool {
        self.cands.doomed() || self.watch.lost_unplaced > 0
    }

    /// [`MapEnv::action_mask`] intersected with the current node's live
    /// candidate set; the pruned-away legal actions are counted as
    /// `search.prune.masked_actions`.
    #[must_use]
    pub fn search_mask(&self) -> Vec<bool> {
        self.mask(true)
    }

    /// Legal actions restricted to the current node's live candidate
    /// set.
    #[must_use]
    pub fn search_actions(&self) -> Vec<PeId> {
        let mut out = Vec::new();
        self.search_actions_into(&mut out);
        out
    }

    /// [`MapEnv::search_actions`] into a reused buffer, which is cleared
    /// first.
    pub fn search_actions_into(&self, out: &mut Vec<PeId>) {
        out.clear();
        self.push_actions(true, out);
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

        let record = StepRecord {
            checkpoint: self.ledger.checkpoint(),
            hops_len: self.hops.len(),
            lost_len: self.watch.lost.len(),
            reward: 0.0,
        };
        assert!(self.ledger.claim_fu(pe, slot, u), "mask guaranteed a free FU");
        if on_bus(self.problem, u) {
            assert!(
                self.ledger.claim_membus(cgra.pe(pe).row, slot),
                "mask guaranteed a free bus"
            );
        }
        let placement = Placement { pe, time };
        self.placements[u.index()] = Some(placement);
        self.cands.on_place(self.problem.candidates(), u, pe);
        // Routing claims only registers and switches, so the witnesses
        // can settle before it.
        self.watch.on_step(self.problem, &self.ledger, &self.cands, u, pe);

        // Route every edge whose endpoints are now both placed. Those
        // are exactly the edges incident to `u` with the other end
        // placed: every edge placed at both ends before this step was
        // already routed or failed. Ascending edge index keeps the
        // routing order of a full edge scan.
        let mut failed = 0usize;
        let mut cost = 0usize;
        for &idx in self.problem.incident_edges(u) {
            let e = dfg.edge(EdgeId(idx as u32));
            debug_assert_eq!(self.edges[idx], EdgeRoute::Pending);
            let (Some(from), Some(to)) =
                (self.placements[e.src.index()], self.placements[e.dst.index()])
            else {
                continue;
            };
            let start = self.hops.len();
            self.edges[idx] =
                match route_edge(cgra, &mut self.ledger, e.src, from, to, e.dist, &mut self.hops) {
                    Some(c) => {
                        cost += c;
                        self.routed += 1;
                        let span = |n: usize| u32::try_from(n).expect("hop arena fits u32");
                        EdgeRoute::Routed { start: span(start), len: span(self.hops.len() - start) }
                    }
                    None => {
                        failed += 1;
                        self.failed += 1;
                        EdgeRoute::Failed
                    }
                };
        }

        let reward = -(CONFLICT_PENALTY * failed as f64 + cost as f64);
        self.total_reward += reward;
        self.history.push(StepRecord { reward, ..record });
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
        // The step resolved exactly the incident edges of `u` that are
        // not pending: every later node is already unplaced.
        for &idx in self.problem.incident_edges(u) {
            let edge = &mut self.edges[idx];
            match *edge {
                EdgeRoute::Routed { .. } => self.routed -= 1,
                EdgeRoute::Failed => self.failed -= 1,
                EdgeRoute::Pending => continue,
            }
            *edge = EdgeRoute::Pending;
        }
        self.hops.truncate(record.hops_len);
        self.ledger.undo_to(record.checkpoint);
        self.total_reward -= record.reward;
        self.cands.on_undo();
        self.watch.on_undo(self.problem, u, record.lost_len);
        Some(u)
    }

    /// The hops of an edge's committed route (empty unless routed).
    fn route_hops(&self, edge: EdgeRoute) -> &[RouteHop] {
        match edge {
            EdgeRoute::Routed { start, len } => &self.hops[start as usize..][..len as usize],
            EdgeRoute::Pending | EdgeRoute::Failed => &[],
        }
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
        let routes = self.edges.iter().map(|&e| self.route_hops(e).to_vec()).collect();
        Some(Mapping { ii: self.problem.ii(), placements, routes })
    }
}

/// Call `f` on each PE whose bit is set in word `k` of a bitset over PE
/// ids, ascending.
fn for_each_bit(k: usize, mut word: u64, mut f: impl FnMut(PeId)) {
    while word != 0 {
        f(PeId((k * 64) as u32 + word.trailing_zeros()));
        word &= word - 1;
    }
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
    fn search_mask_applies_fu_exclusivity() {
        // Load on PE 0 at II=1: the mul's live set keeps PE 0 (one hop
        // is within its slack), but the search mask drops it because the
        // load holds PE 0's FU in the shared slot.
        let dfg = chain3();
        let cgra = presets::simple_mesh(2, 2);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap().with_candidate_pruning();
        assert_eq!(problem.order()[0], NodeId(0));
        let mut env = MapEnv::new(&problem);
        env.step(PeId(0));
        assert_eq!(env.current_node(), Some(NodeId(1)));
        assert!(env.cands.live_set(NodeId(1))[0] & 1 != 0);
        assert_eq!(env.search_mask(), vec![false, true, true, false]);
        assert!(!env.doomed());
    }

    #[test]
    fn doomed_when_exclusivity_empties_a_set() {
        // Two adds feeding a sink on a 1x3 strip at II=1: parking the
        // sources on PEs 0 and 1 leaves the sink no PE that is within
        // one hop of both and unoccupied. Its live set still holds
        // {0, 1}; the ledger's FU claims empty it, so the state is
        // doomed, and undo lifts the doom.
        let mut b = DfgBuilder::new("vee-strip");
        let a = b.node(Opcode::Add);
        let c = b.node(Opcode::Add);
        let d = b.node(Opcode::Add);
        b.edge(a, d).unwrap();
        b.edge(c, d).unwrap();
        let dfg = b.finish().unwrap();
        let cgra = presets::simple_mesh(1, 3);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap().with_candidate_pruning();
        assert_eq!(problem.order(), &[a, c, d]);
        let mut env = MapEnv::new(&problem);
        env.step(PeId(0));
        assert!(!env.doomed());
        env.step(PeId(1));
        assert!(!env.cands.doomed(), "no distance bound emptied a set");
        assert_eq!(env.search_mask(), vec![false; 3]);
        assert!(env.doomed());
        assert_eq!(env.watch.lost, vec![(d.0, 1)], "the sink lost its last witness, PE 1");
        env.undo();
        assert!(!env.doomed());
        assert!(env.watch.lost.is_empty());
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
        let mut anchors = Vec::new();
        assert!(
            (0..16).all(|pe| env.neighbour_distance(&mut anchors)(PeId(pe)) == 0),
            "c is unplaced"
        );
        env.step(cgra.at(0, 0));
        env.step(cgra.at(0, 3));
        assert_eq!(env.current_node(), Some(nc));
        let dist = env.neighbour_distance(&mut anchors);
        // |r - 0| + |c - 0| + |r - 0| + |c - 3|
        assert_eq!(dist(cgra.at(0, 0)), 3);
        assert_eq!(dist(cgra.at(0, 2)), 3);
        assert_eq!(dist(cgra.at(1, 1)), 5);
        assert_eq!(dist(cgra.at(2, 3)), 7);
        assert_eq!(dist(cgra.at(3, 0)), 9);
    }

    /// The committed route of edge `idx`, if any.
    fn hops_of(env: &MapEnv<'_>, idx: usize) -> Option<Vec<RouteHop>> {
        let edge = env.edges[idx];
        matches!(edge, EdgeRoute::Routed { .. }).then(|| env.route_hops(edge).to_vec())
    }

    /// The failed flag of every edge.
    fn failed_flags(env: &MapEnv<'_>) -> Vec<bool> {
        env.edges.iter().map(|&e| e == EdgeRoute::Failed).collect()
    }

    /// Every claim the ledger holds, per slot: FU occupants, register and
    /// switch signals, and the bus-busy bitset.
    type Claims = Vec<(Vec<Option<NodeId>>, Vec<Option<NodeId>>, Vec<Option<NodeId>>, Vec<u64>)>;

    fn claims(ledger: &Ledger, pes: usize) -> Claims {
        (0..ledger.ii())
            .map(|slot| {
                let per_pe = |f: &dyn Fn(PeId) -> Option<NodeId>| {
                    (0..pes).map(|p| f(PeId(p as u32))).collect::<Vec<_>>()
                };
                (
                    per_pe(&|pe| ledger.fu(pe, slot)),
                    per_pe(&|pe| ledger.reg(pe, slot)),
                    per_pe(&|pe| ledger.switch(pe, slot)),
                    ledger.bus_busy(slot).to_vec(),
                )
            })
            .collect()
    }

    /// Seeded 200-operation step/undo walks on a registered fabric
    /// (stencil_u on the 16x16 baseline at II 1) and the circuit-switched
    /// one (conv3 on HyCube at MII). After every operation the walked
    /// environment's route store — each edge's hops, the failed flags,
    /// the total reward and the ledger's claims — equals that of a fresh
    /// environment that replays the same placements in order.
    #[test]
    fn step_undo_route_store_matches_a_fresh_replay() {
        for (kernel, cgra, at_ii) in [
            ("stencil_u", presets::baseline16(), Some(1)),
            ("conv3", presets::hycube(), None),
        ] {
            let dfg = mapzero_dfg::suite::by_name(kernel).expect("kernel exists");
            let ii = at_ii.unwrap_or_else(|| Problem::mii(&dfg, &cgra).unwrap());
            let problem = Problem::new(&dfg, &cgra, ii).unwrap();
            let mut env = MapEnv::new(&problem);
            let mut rng = mapzero_nn::SeedRng::new(0x5eed);
            let (mut routed, mut failed, mut max_depth) = (0usize, 0usize, 0usize);
            for op in 0..200 {
                let legal = env.legal_actions();
                if rng.below(4) == 0 || env.done() || legal.is_empty() {
                    env.undo();
                } else {
                    env.step(legal[rng.below(legal.len())]);
                }
                max_depth = max_depth.max(env.placed_count());
                let mut fresh = MapEnv::new(&problem);
                for &u in &problem.order()[..env.placed_count()] {
                    fresh.step(env.placement(u).expect("placed prefix").pe);
                }
                for idx in 0..dfg.edge_count() {
                    let hops = hops_of(&env, idx);
                    assert_eq!(hops, hops_of(&fresh, idx), "{kernel}: edge {idx} at op {op}");
                    routed += usize::from(hops.is_some());
                }
                let flags = failed_flags(&env);
                assert_eq!(flags, failed_flags(&fresh), "{kernel}: failed at op {op}");
                failed += flags.iter().filter(|&&f| f).count();
                assert_eq!(env.failed_route_count(), fresh.failed_route_count());
                assert_eq!(env.routed_edge_count(), fresh.routed_edge_count());
                assert_eq!(
                    env.total_reward().to_bits(),
                    fresh.total_reward().to_bits(),
                    "{kernel}: reward at op {op}"
                );
                assert_eq!(
                    claims(&env.ledger, cgra.pe_count()),
                    claims(&fresh.ledger, cgra.pe_count()),
                    "{kernel}: ledger claims at op {op}"
                );
            }
            assert!(routed > 0 && failed > 0, "{kernel}: routed {routed}, failed {failed}");
            assert!(max_depth >= 10, "{kernel}: the walk only reached depth {max_depth}");
        }
    }

    /// The dead-state check as a full scan: some unplaced node has no
    /// live PE whose FU (and, for a memory op on a row-bus fabric, row
    /// bus) is free in its slot.
    fn scan_doomed(env: &MapEnv<'_>) -> bool {
        let schedule = env.problem.schedule();
        env.cands.doomed()
            || env.problem.order()[env.cursor..].iter().any(|&w| {
                let slot = schedule.modulo_slot(w);
                let (fu, bus) = (env.ledger.fu_busy(slot), env.ledger.bus_busy(slot));
                let on_bus = on_bus(env.problem, w);
                env.cands.live_set(w).iter().enumerate().all(|(k, &l)| {
                    l & !fu[k] & !(if on_bus { bus[k] } else { 0 }) == 0
                })
            })
    }

    /// The watch lists hold exactly the unplaced nodes that have a
    /// witness, each once and at its own `(slot, witness)`; every
    /// witness is a free live PE; `lost_unplaced` counts the rest.
    fn check_witnesses(env: &MapEnv<'_>) {
        let watch = &env.watch;
        let n = env.problem.node_count();
        let mut seen = vec![false; n];
        for (cell, &head) in watch.head.iter().enumerate() {
            let (mut w, mut prev) = (head, NONE);
            while w != NONE {
                let wi = w as usize;
                assert!(!seen[wi], "node {w} is on two watch lists");
                seen[wi] = true;
                assert_eq!(watch.prev[wi], prev, "node {w}: broken back link");
                assert_eq!(watch.cell(env.problem, wi, watch.witness[wi]), cell);
                (prev, w) = (w, watch.next[wi]);
            }
        }
        let mut lost = 0;
        for (w, (&linked, &p)) in seen.iter().zip(&watch.witness).enumerate() {
            let node = NodeId(w as u32);
            let unplaced = env.placement(node).is_none();
            assert_eq!(linked, unplaced && p != NONE, "node {w} linkage");
            if !linked {
                lost += usize::from(unplaced);
                continue;
            }
            let p = p as usize;
            let slot = env.problem.schedule().modulo_slot(node);
            let bit = |words: &[u64]| words[p / 64] & (1u64 << (p % 64)) != 0;
            assert!(bit(env.cands.live_set(node)), "node {w}: witness {p} not live");
            assert!(!bit(env.ledger.fu_busy(slot)), "node {w}: witness {p} FU busy");
            if on_bus(env.problem, node) {
                assert!(!bit(env.ledger.bus_busy(slot)), "node {w}: witness {p} bus held");
            }
        }
        assert_eq!(watch.lost_unplaced, lost, "lost_unplaced");
    }

    /// Seeded step/undo walks whose steps take any legal PE, live or
    /// not, from doomed states too, and which now and then continue on
    /// a clone: after every operation `doomed()` equals a full scan and
    /// the watch lists are consistent. Covers the 16x16 baseline at
    /// II 1 and 2 (one and several slots) and the ADRES row bus; each
    /// walk must step a non-live PE, undo past a lost witness, continue
    /// on a clone and reach both doomed and live states.
    #[test]
    fn witness_doomed_matches_a_full_scan() {
        for (kernel, cgra, at_ii) in [
            ("stencil_u", presets::baseline16(), Some(1)),
            ("stencil_u", presets::baseline16(), Some(2)),
            ("mulul", presets::adres(), None),
        ] {
            let dfg = mapzero_dfg::suite::by_name(kernel).expect("kernel exists");
            let ii = at_ii.unwrap_or_else(|| Problem::mii(&dfg, &cgra).unwrap());
            let problem = Problem::new(&dfg, &cgra, ii).unwrap().with_candidate_pruning();
            let mut env = MapEnv::new(&problem);
            let mut rng = mapzero_nn::SeedRng::new(0x5eed);
            let (mut non_live, mut relinked, mut doomed, mut clones) = (0, 0, 0, 0);
            for op in 0..400 {
                let legal = env.legal_actions();
                if rng.below(4) == 0 || env.done() || legal.is_empty() {
                    let lost = env.watch.lost.len();
                    env.undo();
                    relinked += usize::from(env.watch.lost.len() < lost);
                } else {
                    let search = env.search_actions();
                    let pe = legal[rng.below(legal.len())];
                    non_live += usize::from(!search.contains(&pe));
                    env.step(pe);
                }
                if rng.below(16) == 0 {
                    env = env.clone();
                    clones += 1;
                }
                check_witnesses(&env);
                assert_eq!(env.doomed(), scan_doomed(&env), "{kernel} II {ii}: op {op}");
                doomed += usize::from(env.doomed());
            }
            let label = format!("{kernel} II {ii}");
            assert!(non_live > 0, "{label}: no step took a non-live PE");
            assert!(relinked > 0, "{label}: no undo relinked a lost witness");
            assert!(doomed > 0 && doomed < 400, "{label}: {doomed} of 400 states doomed");
            assert!(clones > 0, "{label}: the walk never continued on a clone");
        }
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
                    let routed = matches!(env.edges[idx], EdgeRoute::Routed { .. });
                    let failed = env.edges[idx] == EdgeRoute::Failed;
                    proptest::prop_assert!(!(routed && failed), "edge {idx} routed and failed");
                    proptest::prop_assert_eq!(routed || failed, placed, "edge {}", idx);
                }
            }
        }
    }
}
