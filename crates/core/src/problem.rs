//! A fully-specified mapping problem instance at a fixed II.

use crate::candidates::{capability_sets, CandidateMap};
use crate::checkpoint::Fnv64;
use crate::mapping::MapError;
use mapzero_arch::Cgra;
use mapzero_dfg::{mii, modulo_schedule_at, Dfg, NodeId, Schedule, ScheduleError};
use std::sync::OnceLock;

/// A (DFG, CGRA, II) triple with the modulo schedule, the placement
/// order and the candidate sets fixed.
///
/// All mappers operate on `Problem`s: the compiler builds one per II in
/// its outer search loop (§4.2: "start with MII and gradually increase
/// the target II if mapping fails"). Every problem carries its
/// [`CandidateMap`], built on first use, so every
/// [`MapEnv`](crate::env::MapEnv) forward-checks; mappers that never
/// build an environment (annealing, LISA) never pay for it.
#[derive(Debug, Clone)]
pub struct Problem<'a> {
    dfg: &'a Dfg,
    cgra: &'a Cgra,
    schedule: Schedule,
    /// Placement order: ascending time slice, topological rank breaking
    /// ties (the paper's "scheduling order obtained by topological
    /// sorting"). [`Problem::with_candidate_pruning`] makes candidate
    /// scarcity the primary key (fail-first).
    order: Vec<NodeId>,
    /// Precomputed per-node candidate sets, built on first use.
    candidates: OnceLock<CandidateMap>,
    /// Bitset words per PE set: `pe_count.div_ceil(64)`.
    words: usize,
    /// Per-node capability bitsets, node-major.
    capable: Vec<u64>,
    /// Per-node incident DFG edge indices, ascending (a self-loop once).
    incident: Vec<Vec<usize>>,
    /// Structural hash of the DFG and the fabric (see
    /// [`Problem::fingerprint`]).
    fingerprint: u64,
}

impl<'a> Problem<'a> {
    /// Build the problem for a specific II.
    ///
    /// # Errors
    /// [`MapError::Unmappable`] when a required op class has no capable
    /// PE; [`MapError::NoSchedule`] when modulo scheduling fails at `ii`.
    pub fn new(dfg: &'a Dfg, cgra: &'a Cgra, ii: u32) -> Result<Self, MapError> {
        let res = cgra.resource_model();
        let schedule = modulo_schedule_at(dfg, &res, ii).map_err(|e| match e {
            ScheduleError::UnsupportedClass(c) => MapError::Unmappable(format!(
                "{} needs {c} ops but {} has no capable PE",
                dfg.name(),
                cgra.name()
            )),
            ScheduleError::Infeasible { ii } => {
                MapError::NoSchedule(format!("II = {ii} infeasible for {}", dfg.name()))
            }
        })?;
        let rank = dfg.topological_rank();
        let mut order: Vec<NodeId> = dfg.node_ids().collect();
        order.sort_by_key(|u| (schedule.time(*u), rank[u.index()]));
        let mut incident: Vec<Vec<usize>> = vec![Vec::new(); dfg.node_count()];
        for (idx, e) in dfg.edges().enumerate() {
            incident[e.src.index()].push(idx);
            if e.dst != e.src {
                incident[e.dst.index()].push(idx);
            }
        }
        Ok(Problem {
            dfg,
            cgra,
            schedule,
            order,
            candidates: OnceLock::new(),
            words: cgra.pe_count().div_ceil(64),
            capable: capability_sets(dfg, cgra),
            incident,
            fingerprint: fingerprint(dfg, cgra),
        })
    }

    /// Re-sort the placement order fail-first: scarcest candidate set
    /// first, then schedule time, topological rank and node id — a fully
    /// deterministic key, so identical runs stay bit-reproducible across
    /// platforms. Builds the candidate sets if they are not built yet.
    ///
    /// The search masks and doomed-state checks of
    /// [`crate::env::MapEnv`] prune the same way in either order; see
    /// [`crate::env::MapEnv::search_mask`].
    #[must_use]
    pub fn with_candidate_pruning(mut self) -> Self {
        let map =
            self.candidates.get_or_init(|| CandidateMap::build(self.dfg, self.cgra, &self.schedule));
        let rank = self.dfg.topological_rank();
        let schedule = &self.schedule;
        self.order.sort_by_key(|u| {
            (map.candidate_count(*u), schedule.time(*u), rank[u.index()], u.0)
        });
        self
    }

    /// The precomputed candidate sets (the space/time-decoupled pruning
    /// of the monomorphism mappers), built on the first call.
    #[must_use]
    pub fn candidates(&self) -> &CandidateMap {
        self.candidates.get_or_init(|| CandidateMap::build(self.dfg, self.cgra, &self.schedule))
    }

    /// The minimum II bound for this (DFG, CGRA) pair.
    ///
    /// # Errors
    /// [`MapError::Unmappable`] when a required class is unsupported.
    pub fn mii(dfg: &Dfg, cgra: &Cgra) -> Result<u32, MapError> {
        mii::mii(dfg, &cgra.resource_model()).ok_or_else(|| {
            MapError::Unmappable(format!(
                "{} cannot execute on {}",
                dfg.name(),
                cgra.name()
            ))
        })
    }

    /// The data flow graph.
    #[must_use]
    pub fn dfg(&self) -> &'a Dfg {
        self.dfg
    }

    /// The fabric.
    #[must_use]
    pub fn cgra(&self) -> &'a Cgra {
        self.cgra
    }

    /// The modulo schedule.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The target II.
    #[must_use]
    pub fn ii(&self) -> u32 {
        self.schedule.ii()
    }

    /// Placement order of the DFG nodes.
    #[must_use]
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.dfg.node_count()
    }

    /// FNV-1a over the DFG's text form and the fabric's full structure
    /// (text form, routing style and every link). Two problems with
    /// equal fingerprints present the network with the same graphs, so
    /// the prediction cache keys on it to tell problems apart.
    #[must_use]
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// PEs whose functional unit supports `u`'s opcode, as a bitset.
    pub(crate) fn capable(&self, u: NodeId) -> &[u64] {
        &self.capable[u.index() * self.words..(u.index() + 1) * self.words]
    }

    /// Indices of the DFG edges incident to `u`, ascending.
    pub(crate) fn incident_edges(&self, u: NodeId) -> &[usize] {
        &self.incident[u.index()]
    }
}

fn fingerprint(dfg: &Dfg, cgra: &Cgra) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(mapzero_dfg::textfmt::emit(dfg).as_bytes());
    // The fabric's text form omits the routing style and any links
    // added beyond the named interconnects.
    h.write_bytes(mapzero_arch::textfmt::emit(cgra).as_bytes());
    h.write_usize(usize::from(cgra.style().is_circuit_switched()));
    for p in cgra.pe_ids() {
        for q in cgra.links_from(p) {
            h.write_usize(1 + q.index());
        }
        h.write_usize(0);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapzero_arch::presets;
    use mapzero_dfg::suite;

    #[test]
    fn order_respects_time_then_rank() {
        let dfg = suite::by_name("conv2").unwrap();
        let cgra = presets::hrea();
        let mii = Problem::mii(&dfg, &cgra).unwrap();
        let p = Problem::new(&dfg, &cgra, mii).unwrap();
        let times: Vec<u32> = p.order().iter().map(|&u| p.schedule().time(u)).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(p.order().len(), dfg.node_count());
    }

    #[test]
    fn mii_of_big_kernel_on_small_fabric() {
        let dfg = suite::by_name("arf").unwrap(); // 54 nodes
        let cgra = presets::hrea(); // 16 PEs
        let mii = Problem::mii(&dfg, &cgra).unwrap();
        assert_eq!(mii, 4); // ceil(54/16)
    }

    #[test]
    fn unmappable_reported() {
        let dfg = suite::by_name("sum").unwrap();
        let cgra = mapzero_arch::CgraBuilder::new("no-mem", 2, 2)
            .all_capabilities(mapzero_arch::Capability::COMPUTE)
            .finish();
        assert!(matches!(Problem::mii(&dfg, &cgra), Err(MapError::Unmappable(_))));
        assert!(matches!(Problem::new(&dfg, &cgra, 4), Err(MapError::Unmappable(_))));
    }

    #[test]
    fn fingerprint_separates_equal_sized_problems() {
        let (cap, mults2) = (suite::by_name("cap").unwrap(), suite::by_name("mults2").unwrap());
        assert_eq!(cap.node_count(), mults2.node_count());
        let adres = presets::adres();
        let fp = |dfg: &Dfg, cgra: &Cgra| {
            Problem::new(dfg, cgra, Problem::mii(dfg, cgra).unwrap()).unwrap().fingerprint()
        };
        assert_eq!(fp(&cap, &adres), fp(&cap, &adres));
        assert_ne!(fp(&cap, &adres), fp(&mults2, &adres));
        let (hrea, hycube) = (presets::hrea(), presets::hycube());
        assert_eq!(hrea.pe_count(), hycube.pe_count());
        assert_ne!(fp(&cap, &hrea), fp(&cap, &hycube));
    }

    #[test]
    fn infeasible_ii_reported() {
        let dfg = suite::by_name("arf").unwrap();
        let cgra = presets::hrea();
        // II = 1 cannot fit 54 nodes on 16 PEs.
        assert!(matches!(Problem::new(&dfg, &cgra, 1), Err(MapError::NoSchedule(_))));
    }
}
