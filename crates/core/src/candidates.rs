//! Space/time-decoupled candidate pruning (the monomorphism idea):
//! per-DFG-node sets of feasible PEs, precomputed against the fabric
//! *before* search starts and maintained incrementally as placements
//! commit.
//!
//! The modulo schedule fixes every node's time slice up front, so
//! placement feasibility decouples into a spatial test per node:
//!
//! * **capability** — the PE's functional unit supports the opcode;
//! * **routability** — for every DFG edge `(u, v, dist)` the value must
//!   travel `hops(pe_u, pe_v)` links within `slack = t_v + dist·II −
//!   t_u` cycles. Registered-neighbour fabrics move one link per cycle
//!   (`hops ≤ slack`); circuit-switched crossbars cross any number of
//!   switches at one boundary (reachability only);
//! * **exclusivity** — two nodes sharing a modulo slot need distinct
//!   PEs (one FU claim per slot), and on row-shared-memory-bus fabrics
//!   two same-slot memory ops need distinct rows.
//!
//! [`CandidateMap::build`] intersects the capability filter with an
//! arc-consistency fixpoint over the routability constraints: a PE
//! stays a candidate for `u` only while every neighbour `v` retains a
//! compatible candidate. [`CandidateState`] then forward-checks the
//! live sets during search — each committed placement removes
//! candidates its occupancy and distance bounds invalidate, and a trail
//! restores them exactly on backtrack, so the live sets are a pure
//! function of the current placement set (the property that keeps the
//! MCTS transposition cache sound).
//!
//! The search consumes the sets three ways on any problem built with
//! [`Problem::with_candidate_pruning`](crate::problem::Problem::with_candidate_pruning)
//! (the compiler and the trainer always build them so):
//! action-mask hard pruning ([`MapEnv::search_mask`](crate::env::MapEnv::search_mask)),
//! fail-first placement ordering (scarcest node first), and
//! dead-state early termination ([`MapEnv::doomed`](crate::env::MapEnv::doomed)).

use crate::mapping::Placement;
use mapzero_arch::{Cgra, PeId, RoutingStyle};
use mapzero_dfg::{Dfg, NodeId, OpClass, Schedule};

/// One routability constraint incident to a node, from that node's own
/// perspective.
#[derive(Debug, Clone, Copy)]
struct Constraint {
    /// The node at the other end of the DFG edge.
    other: u32,
    /// Hop bound (capped at the fabric diameter + 1; an index into the
    /// precomputed reachability tables).
    bound: u32,
    /// True when the value flows from this node to `other`.
    forward: bool,
    /// Both endpoints share a modulo slot, so they also need distinct
    /// PEs.
    same_slot: bool,
}

/// Immutable candidate sets for one `(DFG, CGRA, II)` problem, plus the
/// reachability tables the live propagation needs. Built once per II
/// attempt (rebuilt on an II bump — the slacks change).
#[derive(Debug, Clone)]
pub struct CandidateMap {
    pe_count: usize,
    /// Bitset words per node.
    words: usize,
    /// Arc-consistent candidate bitsets, node-major.
    sets: Vec<u64>,
    counts: Vec<u32>,
    /// Per-node incident constraints.
    constraints: Vec<Vec<Constraint>>,
    /// `fwd[b]` is PE-major: bit `q` of row `p` set iff `hops(p→q) ≤ b`.
    fwd: Vec<Vec<u64>>,
    /// `rev[b]`: bit `q` of row `p` set iff `hops(q→p) ≤ b`.
    rev: Vec<Vec<u64>>,
    /// Nodes per modulo slot (for FU-exclusivity propagation).
    slot_nodes: Vec<Vec<u32>>,
    slot_of: Vec<u32>,
    /// Memory-class flag per node (row-bus propagation).
    is_mem: Vec<bool>,
    /// Row-shared memory bus: PEs per row, as bitsets.
    row_sets: Option<Vec<Vec<u64>>>,
    row_of: Vec<u32>,
}

#[inline]
fn test_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1u64 << (i % 64)) != 0
}

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1u64 << (i % 64);
}

#[inline]
fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1u64 << (i % 64));
}

/// Static capability filter as node-major bitsets of
/// `pe_count.div_ceil(64)` words: bit `p` of node `u` is set iff PE `p`'s
/// functional unit supports `u`'s opcode.
pub(crate) fn capability_sets(dfg: &Dfg, cgra: &Cgra) -> Vec<u64> {
    let words = cgra.pe_count().div_ceil(64);
    let mut sets = vec![0u64; dfg.node_count() * words];
    for u in dfg.node_ids() {
        let op = dfg.node(u).opcode;
        for p in cgra.pe_ids() {
            if cgra.pe(p).capability.supports(op) {
                set_bit(&mut sets[u.index() * words..(u.index() + 1) * words], p.index());
            }
        }
    }
    sets
}

/// The PEs of each fabric row, as bitsets (the row-shared memory bus).
pub(crate) fn row_sets(cgra: &Cgra) -> Vec<Vec<u64>> {
    let mut rows = vec![vec![0u64; cgra.pe_count().div_ceil(64)]; cgra.rows()];
    for p in cgra.pe_ids() {
        set_bit(&mut rows[cgra.pe(p).row], p.index());
    }
    rows
}

impl CandidateMap {
    /// Precompute the candidate sets for `(dfg, cgra, schedule)`.
    ///
    /// Registers the `search.prune.*` counters (so metric deltas show
    /// zeros rather than absences on runs that never prune) and records
    /// the post-fixpoint set sizes in the `search.candidates.per_node`
    /// histogram.
    #[must_use]
    pub fn build(dfg: &Dfg, cgra: &Cgra, schedule: &Schedule) -> Self {
        mapzero_obs::counter!("search.prune.candidate_rebuild");
        mapzero_obs::counter!("search.prune.masked_actions", 0);
        mapzero_obs::counter!("search.prune.dead_state", 0);
        let _span = mapzero_obs::span!("candidates.build");
        let n = dfg.node_count();
        let pe_count = cgra.pe_count();
        let words = pe_count.div_ceil(64);
        let ii = schedule.ii();

        // Reachability tables from all-pairs shortest hop distances.
        // Any finite distance is at most the diameter, so bounds are
        // capped at `diameter + 1` ("any reachable PE").
        let dist = mapzero_arch::analysis::shortest_paths(cgra);
        let diameter = dist
            .iter()
            .flatten()
            .filter_map(|d| *d)
            .max()
            .unwrap_or(0);
        let max_bound = diameter + 1;
        let mut fwd = vec![vec![0u64; pe_count * words]; max_bound as usize + 1];
        let mut rev = vec![vec![0u64; pe_count * words]; max_bound as usize + 1];
        for (p, row) in dist.iter().enumerate() {
            for (q, d) in row.iter().enumerate() {
                let Some(d) = *d else { continue };
                for b in d.min(max_bound)..=max_bound {
                    set_bit(&mut fwd[b as usize][p * words..(p + 1) * words], q);
                    set_bit(&mut rev[b as usize][q * words..(q + 1) * words], p);
                }
            }
        }

        let sets = capability_sets(dfg, cgra);

        // Per-edge hop bounds. A placement of `u` at `p_u` and `v` at
        // `p_v` can only route conflict-free when `hops(p_u→p_v)` fits
        // the edge's slack (registered fabrics) or `p_v` is reachable at
        // all (circuit-switched). Self-loops constrain nothing spatial.
        let mut constraints: Vec<Vec<Constraint>> = vec![Vec::new(); n];
        for e in dfg.edges() {
            if e.src == e.dst {
                continue;
            }
            let slack = schedule.time(e.dst) + e.dist * ii - schedule.time(e.src);
            let bound = match cgra.style() {
                RoutingStyle::NeighborRegister => slack.min(max_bound),
                RoutingStyle::CircuitSwitched => max_bound,
            };
            let same_slot = schedule.modulo_slot(e.src) == schedule.modulo_slot(e.dst);
            constraints[e.src.index()].push(Constraint {
                other: e.dst.0,
                bound,
                forward: true,
                same_slot,
            });
            constraints[e.dst.index()].push(Constraint {
                other: e.src.0,
                bound,
                forward: false,
                same_slot,
            });
        }

        let slot_of: Vec<u32> = dfg.node_ids().map(|u| schedule.modulo_slot(u)).collect();
        let mut slot_nodes: Vec<Vec<u32>> = vec![Vec::new(); ii as usize];
        for u in dfg.node_ids() {
            slot_nodes[slot_of[u.index()] as usize].push(u.0);
        }
        let is_mem: Vec<bool> =
            dfg.node_ids().map(|u| dfg.node(u).opcode.class() == OpClass::Memory).collect();
        let row_of: Vec<u32> = cgra.pe_ids().map(|p| cgra.pe(p).row as u32).collect();
        let row_sets = cgra.row_shared_mem_bus().then(|| row_sets(cgra));

        let mut map = CandidateMap {
            pe_count,
            words,
            sets,
            counts: vec![0; n],
            constraints,
            fwd,
            rev,
            slot_nodes,
            slot_of,
            is_mem,
            row_sets,
            row_of,
        };
        map.arc_consistency();
        for u in 0..n {
            map.counts[u] = map.node_set(NodeId(u as u32)).iter().map(|w| w.count_ones()).sum();
            mapzero_obs::observe!("search.candidates.per_node", u64::from(map.counts[u]));
        }
        map
    }

    /// Refine the static sets to arc consistency: drop a PE from a
    /// node's set while any incident constraint has no compatible
    /// candidate at the other end. Deterministic fixpoint (the result
    /// is order-independent: arc consistency has a unique largest
    /// fixpoint).
    fn arc_consistency(&mut self) {
        let n = self.constraints.len();
        let words = self.words;
        let mut scratch = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            for u in 0..n {
                for ci in 0..self.constraints[u].len() {
                    let c = self.constraints[u][ci];
                    let other = c.other as usize;
                    for p in 0..self.pe_count {
                        if !test_bit(&self.sets[u * words..(u + 1) * words], p) {
                            continue;
                        }
                        let reach = self.reach(c, p);
                        let other_set = &self.sets[other * words..(other + 1) * words];
                        for (w, s) in scratch.iter_mut().zip(other_set) {
                            *w = *s;
                        }
                        for (w, r) in scratch.iter_mut().zip(reach) {
                            *w &= *r;
                        }
                        if c.same_slot {
                            clear_bit(&mut scratch, p);
                        }
                        if scratch.iter().all(|&w| w == 0) {
                            clear_bit(&mut self.sets[u * words..(u + 1) * words], p);
                            changed = true;
                        }
                    }
                }
            }
        }
    }

    /// Reachability row for one constraint endpoint placed at `p`.
    fn reach(&self, c: Constraint, p: usize) -> &[u64] {
        let table = if c.forward { &self.fwd } else { &self.rev };
        &table[c.bound as usize][p * self.words..(p + 1) * self.words]
    }

    /// The arc-consistent candidate bitset of `u`.
    #[must_use]
    pub fn node_set(&self, u: NodeId) -> &[u64] {
        &self.sets[u.index() * self.words..(u.index() + 1) * self.words]
    }

    /// Post-fixpoint candidate count of `u`.
    #[must_use]
    pub fn candidate_count(&self, u: NodeId) -> u32 {
        self.counts[u.index()]
    }

    /// True when `p` is a static candidate for `u`.
    #[must_use]
    pub fn is_candidate(&self, u: NodeId, p: PeId) -> bool {
        test_bit(self.node_set(u), p.index())
    }

    /// Number of PEs covered by the map.
    #[must_use]
    pub fn pe_count(&self) -> usize {
        self.pe_count
    }
}

/// One forward-checking removal on the trail: the bits `cleared` of
/// word `word` in `node`'s live set.
#[derive(Debug, Clone, Copy)]
struct Removal {
    node: u32,
    word: u32,
    cleared: u64,
}

/// Live candidate sets during an episode: the static [`CandidateMap`]
/// narrowed by forward checking from every committed placement, with a
/// trail so [`CandidateState::on_undo`] restores the previous state
/// exactly. Cloned with the environment (MCTS walks clone their root
/// env), so all bookkeeping lives in flat vectors.
#[derive(Debug, Clone)]
pub struct CandidateState {
    /// Bitset words per node.
    words: usize,
    sets: Vec<u64>,
    counts: Vec<u32>,
    placed: Vec<bool>,
    /// Unplaced nodes whose live set is empty. Any positive value means
    /// the state cannot reach a conflict-free mapping ([`Self::doomed`]).
    empty_unplaced: usize,
    trail: Vec<Removal>,
    /// Per-step frames: `(trail length at entry, node placed)`.
    frames: Vec<(usize, u32)>,
}

impl CandidateState {
    /// Fresh live state equal to the static sets.
    #[must_use]
    pub fn new(map: &CandidateMap) -> Self {
        let n = map.counts.len();
        CandidateState {
            words: map.words,
            sets: map.sets.clone(),
            counts: map.counts.clone(),
            placed: vec![false; n],
            empty_unplaced: map.counts.iter().filter(|&&c| c == 0).count(),
            trail: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// Clear the bits of `mask` from word `word` of `node`'s live set,
    /// recording the bits that were actually set.
    fn clear(&mut self, node: usize, word: usize, mask: u64) {
        let cell = &mut self.sets[node * self.words + word];
        let cleared = *cell & mask;
        if cleared == 0 {
            return;
        }
        *cell &= !cleared;
        self.counts[node] -= cleared.count_ones();
        if self.counts[node] == 0 && !self.placed[node] {
            self.empty_unplaced += 1;
        }
        self.trail.push(Removal { node: node as u32, word: word as u32, cleared });
    }

    /// Forward-check one committed placement: `u` landed on `p`.
    ///
    /// Removes `p` from every unplaced node sharing `u`'s modulo slot
    /// (FU exclusivity), the whole row from unplaced same-slot memory
    /// nodes on row-bus fabrics, and every PE outside the placement's
    /// reach from unplaced neighbours of `u` (distance bounds). Must be
    /// called after the environment records the placement.
    pub fn on_place(
        &mut self,
        map: &CandidateMap,
        u: NodeId,
        p: PeId,
        placements: &[Option<Placement>],
    ) {
        self.frames.push((self.trail.len(), u.0));
        let ui = u.index();
        if self.counts[ui] == 0 {
            self.empty_unplaced -= 1;
        }
        self.placed[ui] = true;

        let slot = map.slot_of[ui] as usize;
        let (pe_word, pe_bit) = (p.index() / 64, 1u64 << (p.index() % 64));
        for &w in &map.slot_nodes[slot] {
            let wi = w as usize;
            if wi != ui && placements[wi].is_none() {
                self.clear(wi, pe_word, pe_bit);
            }
        }
        if let Some(rows) = &map.row_sets {
            if map.is_mem[ui] {
                let row = &rows[map.row_of[p.index()] as usize];
                for &w in &map.slot_nodes[slot] {
                    let wi = w as usize;
                    if wi == ui || !map.is_mem[wi] || placements[wi].is_some() {
                        continue;
                    }
                    for (k, &r) in row.iter().enumerate() {
                        self.clear(wi, k, r);
                    }
                }
            }
        }
        for c in &map.constraints[ui] {
            let vi = c.other as usize;
            if placements[vi].is_some() {
                continue;
            }
            for (k, &r) in map.reach(*c, p.index()).iter().enumerate() {
                self.clear(vi, k, !r);
            }
        }
    }

    /// Undo the most recent [`Self::on_place`] frame, restoring every
    /// candidate it removed.
    ///
    /// # Panics
    /// Panics if no frame is outstanding (an env undo/step imbalance).
    pub fn on_undo(&mut self) {
        let (start, u) = self.frames.pop().expect("candidate frame per step");
        for r in self.trail.drain(start..) {
            let node = r.node as usize;
            if self.counts[node] == 0 && !self.placed[node] {
                self.empty_unplaced -= 1;
            }
            self.sets[node * self.words + r.word as usize] |= r.cleared;
            self.counts[node] += r.cleared.count_ones();
        }
        let ui = u as usize;
        self.placed[ui] = false;
        if self.counts[ui] == 0 {
            self.empty_unplaced += 1;
        }
    }

    /// True when some unplaced node has an empty live candidate set: no
    /// conflict-free completion exists from this state.
    #[must_use]
    pub fn doomed(&self) -> bool {
        self.empty_unplaced > 0
    }

    /// The live candidate bitset of `u` (bit `p` set iff PE `p` is a
    /// live candidate).
    #[must_use]
    pub fn live_set(&self, u: NodeId) -> &[u64] {
        &self.sets[u.index() * self.words..(u.index() + 1) * self.words]
    }

    /// True when `p` is a live candidate for `u`.
    #[must_use]
    pub fn is_candidate(&self, u: NodeId, p: PeId) -> bool {
        test_bit(self.live_set(u), p.index())
    }

    /// Live candidate count of `u`.
    #[must_use]
    pub fn candidate_count(&self, u: NodeId) -> u32 {
        self.counts[u.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;
    use mapzero_arch::presets;
    use mapzero_dfg::{DfgBuilder, Opcode};

    fn chain3() -> Dfg {
        let mut b = DfgBuilder::new("chain3");
        let a = b.node(Opcode::Load);
        let m = b.node(Opcode::Mul);
        let s = b.node(Opcode::Store);
        b.edge(a, m).unwrap();
        b.edge(m, s).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn capability_filter_excludes_incapable_pes() {
        let mut b = DfgBuilder::new("one-load");
        b.node(Opcode::Load);
        let dfg = b.finish().unwrap();
        let mut builder = mapzero_arch::CgraBuilder::new("one-mem", 2, 2)
            .interconnect(mapzero_arch::Interconnect::Mesh)
            .all_capabilities(mapzero_arch::Capability::COMPUTE);
        builder = builder.capability(0, 0, mapzero_arch::Capability::ALL);
        let cgra = builder.finish();
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let map = CandidateMap::build(&dfg, &cgra, problem.schedule());
        assert_eq!(map.candidate_count(NodeId(0)), 1);
        assert!(map.is_candidate(NodeId(0), PeId(0)));
    }

    #[test]
    fn candidate_sets_respect_distance_bounds_after_placement() {
        let dfg = chain3();
        let cgra = presets::simple_mesh(2, 2);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let map = CandidateMap::build(&dfg, &cgra, problem.schedule());
        let mut live = CandidateState::new(&map);
        // Place the load on PE 0. At II=1 the mul has slack 1: it must
        // sit on PE 0's neighbourhood minus PE 0 itself (FU exclusivity)
        // = {1, 2} on a 2x2 mesh.
        let mut placements = vec![None; 3];
        placements[0] = Some(Placement { pe: PeId(0), time: 0 });
        live.on_place(&map, NodeId(0), PeId(0), &placements);
        assert!(!live.is_candidate(NodeId(1), PeId(0)), "FU exclusivity");
        assert!(!live.is_candidate(NodeId(1), PeId(3)), "diagonal exceeds slack");
        assert!(live.is_candidate(NodeId(1), PeId(1)));
        assert!(live.is_candidate(NodeId(1), PeId(2)));
        assert!(!live.doomed());
    }

    #[test]
    fn undo_restores_sets_exactly() {
        let dfg = chain3();
        let cgra = presets::simple_mesh(2, 2);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let map = CandidateMap::build(&dfg, &cgra, problem.schedule());
        let mut live = CandidateState::new(&map);
        let baseline = live.clone();
        let mut placements = vec![None; 3];
        placements[0] = Some(Placement { pe: PeId(0), time: 0 });
        live.on_place(&map, NodeId(0), PeId(0), &placements);
        placements[1] = Some(Placement { pe: PeId(1), time: 1 });
        live.on_place(&map, NodeId(1), PeId(1), &placements);
        live.on_undo();
        live.on_undo();
        assert_eq!(live.sets, baseline.sets);
        assert_eq!(live.counts, baseline.counts);
        assert_eq!(live.placed, baseline.placed);
        assert_eq!(live.empty_unplaced, baseline.empty_unplaced);
    }

    #[test]
    fn doomed_when_propagation_empties_a_set() {
        // Two adds feeding a sink on a 1x3 strip at II=1: parking the
        // sources on PEs 0 and 1 leaves the sink no PE that is within
        // one hop of both and unoccupied — forward checking must empty
        // its set and flag the state doomed.
        let mut b = DfgBuilder::new("vee-strip");
        let a = b.node(Opcode::Add);
        let c = b.node(Opcode::Add);
        let d = b.node(Opcode::Add);
        b.edge(a, d).unwrap();
        b.edge(c, d).unwrap();
        let dfg = b.finish().unwrap();
        let cgra = presets::simple_mesh(1, 3);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let map = CandidateMap::build(&dfg, &cgra, problem.schedule());
        let mut live = CandidateState::new(&map);
        let mut placements = vec![None; 3];
        placements[0] = Some(Placement { pe: PeId(0), time: 0 });
        live.on_place(&map, NodeId(0), PeId(0), &placements);
        assert!(!live.doomed());
        placements[1] = Some(Placement { pe: PeId(1), time: 0 });
        live.on_place(&map, NodeId(1), PeId(1), &placements);
        assert_eq!(live.candidate_count(NodeId(2)), 0);
        assert!(live.doomed());
        live.on_undo();
        assert!(!live.doomed());
    }

    #[test]
    fn arc_consistency_prunes_statically_impossible_pes() {
        // A node with two same-slot neighbours on a 1x4 strip: the
        // middle of a 3-clique needs two distinct adjacent PEs, so strip
        // ends keep candidates but the AC fixpoint still reflects the
        // adjacency structure (every PE of the sink needs two distinct
        // neighbours in its sources' sets).
        let mut b = DfgBuilder::new("vee");
        let a = b.node(Opcode::Add);
        let c = b.node(Opcode::Add);
        let d = b.node(Opcode::Add);
        b.edge(a, d).unwrap();
        b.edge(c, d).unwrap();
        let dfg = b.finish().unwrap();
        let cgra = presets::simple_mesh(1, 2);
        // II=2: a,c in slot 0, d in slot 1 — both sources same slot,
        // need distinct PEs among {0,1}; d needs both within 1 hop.
        let problem = Problem::new(&dfg, &cgra, 2).unwrap();
        let map = CandidateMap::build(&dfg, &cgra, problem.schedule());
        for u in dfg.node_ids() {
            assert!(map.candidate_count(u) > 0, "node {u} lost all candidates");
        }
    }
}
