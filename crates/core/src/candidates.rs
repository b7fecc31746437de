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
//! distance bounds during search — each committed placement removes
//! the candidates of its unplaced neighbours that lie out of reach, and
//! a trail restores them exactly on backtrack. Exclusivity is never
//! written into the live sets: the ledger already holds it as per-slot
//! FU-busy and bus-busy bitsets, so the environment reads a node's
//! effective candidates as its live set intersected with its legal
//! actions. Both halves are pure functions of the current placement
//! set (the property that keeps the MCTS transposition cache sound).
//!
//! Every [`Problem`](crate::problem::Problem) carries its map, built on
//! first use, and every environment forward-checks. The search consumes
//! the sets three ways: action-mask hard pruning
//! ([`MapEnv::search_mask`](crate::env::MapEnv::search_mask)),
//! dead-state early termination ([`MapEnv::doomed`](crate::env::MapEnv::doomed)),
//! and, on problems re-sorted by
//! [`Problem::with_candidate_pruning`](crate::problem::Problem::with_candidate_pruning)
//! (the compiler and the trainer always do), fail-first placement
//! ordering (scarcest node first). Neither prune drops a conflict-free
//! completion: `tests/prune.rs` enumerates every completion of small
//! kernels on every fabric kind to check it, so a systematic search of
//! the pruned problem stays exact.

use mapzero_arch::{Cgra, PeId, RoutingStyle};
use mapzero_dfg::{Dfg, NodeId, Schedule};

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
    /// PEs (used by the static fixpoint only).
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
}

#[inline]
fn test_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1u64 << (i % 64)) != 0
}

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1u64 << (i % 64);
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
        // Each pair sets its bit at its own distance; a prefix OR over
        // the bounds then makes table `b` hold every pair within `b`.
        let mut fwd = vec![vec![0u64; pe_count * words]; max_bound as usize + 1];
        let mut rev = vec![vec![0u64; pe_count * words]; max_bound as usize + 1];
        for (p, row) in dist.iter().enumerate() {
            for (q, d) in row.iter().enumerate() {
                let Some(d) = *d else { continue };
                let b = d.min(max_bound) as usize;
                set_bit(&mut fwd[b][p * words..(p + 1) * words], q);
                set_bit(&mut rev[b][q * words..(q + 1) * words], p);
            }
        }
        for table in [&mut fwd, &mut rev] {
            for b in 1..table.len() {
                let (lower, upper) = table.split_at_mut(b);
                for (w, &l) in upper[0].iter_mut().zip(&lower[b - 1]) {
                    *w |= l;
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

        let mut map =
            CandidateMap { pe_count, words, sets, counts: vec![0; n], constraints, fwd, rev };
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
        let words = self.words;
        let mut changed = true;
        while changed {
            changed = false;
            for u in 0..self.constraints.len() {
                for ci in 0..self.constraints[u].len() {
                    let c = self.constraints[u][ci];
                    let other = c.other as usize * words;
                    for k in 0..words {
                        let mut bits = self.sets[u * words + k];
                        while bits != 0 {
                            let bit = bits & bits.wrapping_neg();
                            bits &= !bit;
                            let reach = self.reach(c, k * 64 + bit.trailing_zeros() as usize);
                            // A support: a candidate of `other` within
                            // reach, on another PE if they share a slot.
                            let supported = (0..words).any(|j| {
                                let own = if c.same_slot && j == k { bit } else { 0 };
                                self.sets[other + j] & reach[j] & !own != 0
                            });
                            if !supported {
                                self.sets[u * words + k] &= !bit;
                                changed = true;
                            }
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
/// narrowed by the distance bounds of every committed placement, with a
/// trail so [`CandidateState::on_undo`] restores the previous state
/// exactly. FU and bus-row exclusivity are not applied here: the
/// environment intersects a live set with the ledger's free PEs of the
/// node's slot when it reads it ([`MapEnv::search_mask`](crate::env::MapEnv::search_mask),
/// [`MapEnv::doomed`](crate::env::MapEnv::doomed)), so a placement
/// writes trail entries only for the neighbours it constrains. Cloned
/// with the environment (every MCTS walk clones its root env), so all
/// bookkeeping lives in five flat vectors — sets, counts, placed flags,
/// trail and frames — and a clone is one copy of each.
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
    /// Removes every PE outside the placement's reach from the unplaced
    /// neighbours of `u` (distance bounds). Exclusivity is left to the
    /// ledger (see the type docs).
    pub fn on_place(&mut self, map: &CandidateMap, u: NodeId, p: PeId) {
        self.frames.push((self.trail.len(), u.0));
        let ui = u.index();
        if self.counts[ui] == 0 {
            self.empty_unplaced -= 1;
        }
        self.placed[ui] = true;

        for c in &map.constraints[ui] {
            let vi = c.other as usize;
            if self.placed[vi] {
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

    /// The removals of the most recent [`Self::on_place`] frame, as
    /// `(node, word, cleared bits)`; every node named is unplaced.
    pub(crate) fn last_removals(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        let start = self.frames.last().map_or(self.trail.len(), |&(start, _)| start);
        self.trail[start..].iter().map(|r| (r.node as usize, r.word as usize, r.cleared))
    }

    /// True when some unplaced node has an empty live set: no
    /// conflict-free completion exists from this state. A `false` here
    /// still leaves exclusivity to check ([`MapEnv::doomed`](crate::env::MapEnv::doomed)).
    #[must_use]
    pub fn doomed(&self) -> bool {
        self.empty_unplaced > 0
    }

    /// The live candidate bitset of `u`: bit `p` is set iff PE `p` is a
    /// static candidate within every placed neighbour's distance bound.
    #[must_use]
    pub fn live_set(&self, u: NodeId) -> &[u64] {
        &self.sets[u.index() * self.words..(u.index() + 1) * self.words]
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
        // Place the load on PE 0. At II=1 the mul has slack 1: the
        // distance bound keeps PE 0's neighbourhood {0, 1, 2} on a 2x2
        // mesh (FU exclusivity on PE 0 is the ledger's, see
        // `env::tests::search_mask_applies_fu_exclusivity`).
        live.on_place(&map, NodeId(0), PeId(0));
        let mul = live.live_set(NodeId(1));
        assert!(!test_bit(mul, 3), "diagonal exceeds slack");
        assert!(test_bit(mul, 1));
        assert!(test_bit(mul, 2));
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
        live.on_place(&map, NodeId(0), PeId(0));
        live.on_place(&map, NodeId(1), PeId(1));
        live.on_undo();
        live.on_undo();
        assert_eq!(live.sets, baseline.sets);
        assert_eq!(live.counts, baseline.counts);
        assert_eq!(live.placed, baseline.placed);
        assert_eq!(live.empty_unplaced, baseline.empty_unplaced);
    }

    #[test]
    fn doomed_when_propagation_empties_a_set() {
        // Two adds feeding a sink on a 1x4 strip at II=1: parking the
        // sources on the two ends leaves the sink no PE within one hop
        // of both, so the distance bounds empty its live set and flag
        // the state doomed.
        let mut b = DfgBuilder::new("vee-strip");
        let a = b.node(Opcode::Add);
        let c = b.node(Opcode::Add);
        let d = b.node(Opcode::Add);
        b.edge(a, d).unwrap();
        b.edge(c, d).unwrap();
        let dfg = b.finish().unwrap();
        let cgra = presets::simple_mesh(1, 4);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let map = CandidateMap::build(&dfg, &cgra, problem.schedule());
        let mut live = CandidateState::new(&map);
        live.on_place(&map, a, PeId(0));
        assert!(!live.doomed());
        live.on_place(&map, c, PeId(3));
        assert!(live.live_set(d).iter().all(|&w| w == 0));
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

    /// The build as first written: one table bit per bound per pair, and
    /// a fixpoint that copies the other end's set into scratch for every
    /// candidate. Returns `(fwd, rev, sets)`; the constraints are the
    /// map's own, which both versions build the same way.
    fn reference_build(
        cgra: &mapzero_arch::Cgra,
        dfg: &Dfg,
        constraints: &[Vec<Constraint>],
    ) -> (Vec<Vec<u64>>, Vec<Vec<u64>>, Vec<u64>) {
        let pe_count = cgra.pe_count();
        let words = pe_count.div_ceil(64);
        let dist = mapzero_arch::analysis::shortest_paths(cgra);
        let max_bound = dist.iter().flatten().filter_map(|d| *d).max().unwrap_or(0) + 1;
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
        let mut sets = capability_sets(dfg, cgra);
        let mut scratch = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            for (u, incident) in constraints.iter().enumerate() {
                for c in incident {
                    let other = c.other as usize;
                    for p in 0..pe_count {
                        if !test_bit(&sets[u * words..(u + 1) * words], p) {
                            continue;
                        }
                        let table = if c.forward { &fwd } else { &rev };
                        let reach = &table[c.bound as usize][p * words..(p + 1) * words];
                        let other_set = &sets[other * words..(other + 1) * words];
                        for ((w, s), r) in scratch.iter_mut().zip(other_set).zip(reach) {
                            *w = s & r;
                        }
                        if c.same_slot {
                            scratch[p / 64] &= !(1u64 << (p % 64));
                        }
                        if scratch.iter().all(|&w| w == 0) {
                            sets[u * words + p / 64] &= !(1u64 << (p % 64));
                            changed = true;
                        }
                    }
                }
            }
        }
        (fwd, rev, sets)
    }

    #[test]
    fn build_matches_the_per_bound_scan_and_the_scratch_fixpoint() {
        // Fabrics of one, two and four words, the row-bus and
        // circuit-switched presets, and IIs above the MII so bounds and
        // slots differ. The fixpoint prunes only where capabilities
        // differ across PEs: the heterogeneous preset and a 10×10 mesh
        // whose memory ops fit column 0 only.
        let mut memory_column = mapzero_arch::CgraBuilder::new("mem-column", 10, 10)
            .interconnect(mapzero_arch::Interconnect::Mesh)
            .all_capabilities(mapzero_arch::Capability::COMPUTE);
        for row in 0..10 {
            memory_column = memory_column.capability(row, 0, mapzero_arch::Capability::ALL);
        }
        let cases = [
            ("arf", presets::hrea(), 0),
            ("cap", presets::adres(), 0),
            ("mults1", presets::hycube(), 1),
            ("stencil_u", presets::heterogeneous(), 0),
            ("stencil_u", presets::heterogeneous(), 1),
            ("h2v2", memory_column.finish(), 0),
            ("filter_u", presets::baseline16(), 0),
        ];
        let mut pruned = 0;
        for (kernel, cgra, extra) in cases {
            let dfg = mapzero_dfg::suite::by_name(kernel).unwrap();
            let ii = Problem::mii(&dfg, &cgra).unwrap() + extra;
            let problem = Problem::new(&dfg, &cgra, ii).unwrap();
            let map = CandidateMap::build(&dfg, &cgra, problem.schedule());
            let (fwd, rev, sets) = reference_build(&cgra, &dfg, &map.constraints);
            let case = format!("{kernel} on {} at II {ii}", cgra.name());
            assert_eq!(map.fwd, fwd, "{case}: forward reach tables");
            assert_eq!(map.rev, rev, "{case}: reverse reach tables");
            assert_eq!(map.sets, sets, "{case}: arc-consistent sets");
            pruned += usize::from(sets != capability_sets(&dfg, &cgra));
        }
        assert_eq!(pruned, 3, "the three uneven-capability cases exercise the fixpoint");
    }
}
