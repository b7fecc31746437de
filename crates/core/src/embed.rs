//! Featurization: turning an environment state into the tensors the
//! network consumes (§3.2).

use crate::env::MapEnv;
use mapzero_arch::features as arch_features;
use mapzero_dfg::features as dfg_features;
use mapzero_nn::Matrix;

/// The observation consumed by [`crate::network::MapZeroNet`].
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// DFG node features, `(n x 10)`, normalized.
    pub dfg_nodes: Matrix,
    /// DFG message edges (both directions of every dependence, so
    /// information flows from parents *and* children).
    pub dfg_edges: Vec<(usize, usize)>,
    /// CGRA PE features for the current node's modulo slice, `(p x 7)`,
    /// normalized.
    pub cgra_nodes: Matrix,
    /// CGRA link edges.
    pub cgra_edges: Vec<(usize, usize)>,
    /// Metadata row for the node being placed, `(1 x 11)`.
    pub metadata: Matrix,
    /// Action mask over PEs.
    pub mask: Vec<bool>,
}

/// Build the observation for the environment's current state.
///
/// When the episode is done (no current node) the metadata row is zero
/// and the mask is all-false; callers should not query the policy then.
#[must_use]
pub fn observe(env: &MapEnv<'_>) -> Observation {
    let _phase = mapzero_obs::phase::phase_guard(mapzero_obs::Phase::Embed);
    let problem = env.problem();
    let dfg = problem.dfg();
    let cgra = problem.cgra();
    let schedule = problem.schedule();

    // DFG side.
    let assigned: Vec<Option<usize>> =
        env.placements().iter().map(|p| p.map(|pl| pl.pe.index())).collect();
    let mut rows = dfg_features::node_features(dfg, schedule, &assigned);
    dfg_features::normalize_features(&mut rows, dfg, schedule, cgra.pe_count());
    let dfg_nodes = matrix_from_rows(&rows);
    let mut dfg_edges = Vec::with_capacity(dfg.edge_count() * 2);
    for e in dfg.edges() {
        dfg_edges.push((e.src.index(), e.dst.index()));
        if e.src != e.dst {
            dfg_edges.push((e.dst.index(), e.src.index()));
        }
    }

    // CGRA side: the slice the current node is scheduled into.
    let occupancy = env.current_slice_occupancy();
    let mut pe_rows = arch_features::pe_features(cgra, &occupancy);
    arch_features::normalize_pe_features(&mut pe_rows, cgra, dfg.node_count());
    let cgra_nodes = matrix_from_rows(&pe_rows);
    let cgra_edges = arch_features::edge_list(cgra);

    // Metadata for the node being placed.
    let metadata = match env.current_node() {
        Some(u) => {
            let fraction = env.placed_count() as f32 / dfg.node_count() as f32;
            let meta = dfg_features::node_metadata(&rows, u, fraction);
            Matrix::row(&meta)
        }
        None => Matrix::zeros(1, dfg_features::METADATA_DIM),
    };

    Observation {
        dfg_nodes,
        dfg_edges,
        cgra_nodes,
        cgra_edges,
        metadata,
        // With candidate pruning the policy only sees (and only ever
        // normalizes over) the live candidate set; otherwise this is
        // exactly the legal-action mask.
        mask: env.search_mask(),
    }
}

fn matrix_from_rows<const D: usize>(rows: &[[f32; D]]) -> Matrix {
    let mut data = Vec::with_capacity(rows.len() * D);
    for r in rows {
        data.extend_from_slice(r);
    }
    Matrix::from_vec(rows.len(), D, data)
}

/// Identity of the problem an [`Observer`] was primed for: its
/// structural fingerprint (the DFG and the fabric, see
/// `Problem::fingerprint`) and II, which together fix every static
/// tensor of the observation. A mismatch forces a full rebuild instead
/// of an incremental patch. (The problem's address is no identity: two
/// problems built one after the other can share it.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProblemSig {
    fingerprint: u64,
    ii: u32,
}

impl ProblemSig {
    fn of(env: &MapEnv<'_>) -> Self {
        let problem = env.problem();
        ProblemSig { fingerprint: problem.fingerprint(), ii: problem.ii() }
    }
}

/// Incremental featurizer: holds the last [`Observation`] and patches
/// only what the environment state can change, instead of rebuilding
/// every tensor from scratch per query (the [`observe`] path, kept as
/// the naive reference).
///
/// Of the whole observation, only four pieces depend on mapping state:
/// DFG feature column 9 (assigned PE, patched for rows whose assignment
/// changed since the last call — covers both placements and backtrack
/// unmaps), CGRA feature column 6 (slice occupancy, rewritten each call
/// since the active modulo slice follows the cursor), the metadata row,
/// and the action mask. Everything else — static feature columns, both
/// edge lists, normalization constants — is computed once per problem.
///
/// Both patches replicate the reference normalization expression (a
/// single division of the raw value) so the result is bit-identical to
/// [`observe`]; `proptest_hotpath` enforces this.
#[derive(Debug, Default)]
pub struct Observer {
    sig: Option<ProblemSig>,
    assigned: Vec<Option<usize>>,
    obs: Option<Observation>,
}

impl Observer {
    /// Create an unprimed observer; the first [`Observer::observe`]
    /// call performs a full rebuild.
    #[must_use]
    pub fn new() -> Self {
        Observer::default()
    }

    /// Featurize the environment's current state, reusing everything
    /// the last call already computed. Bit-identical to [`observe`].
    pub fn observe(&mut self, env: &MapEnv<'_>) -> &Observation {
        let sig = ProblemSig::of(env);
        if self.sig != Some(sig) || self.obs.is_none() {
            self.sig = Some(sig);
            self.assigned =
                env.placements().iter().map(|p| p.map(|pl| pl.pe.index())).collect();
            self.obs = Some(observe(env));
            return self.obs.as_ref().expect("just rebuilt");
        }
        let _phase = mapzero_obs::phase::phase_guard(mapzero_obs::Phase::Embed);
        mapzero_obs::counter!("embed.incremental");
        let obs = self.obs.as_mut().expect("checked above");
        let problem = env.problem();
        let dfg = problem.dfg();

        // DFG column 9: assigned PE, normalized by PE count. Patch only
        // rows whose assignment changed (same expression as the full
        // rebuild: one division of the raw value).
        let pes = problem.cgra().pe_count().max(1) as f32;
        for (u, placement) in env.placements().iter().enumerate() {
            let now = placement.map(|pl| pl.pe.index());
            if self.assigned[u] != now {
                self.assigned[u] = now;
                obs.dfg_nodes[(u, 9)] = now.map_or(-1.0, |p| p as f32) / pes;
            }
        }

        // CGRA column 6: occupancy of the cursor's modulo slice,
        // normalized by DFG size. The slice itself moves with the
        // cursor, so rewrite the whole column (one entry per PE).
        let dn = dfg.node_count().max(1) as f32;
        for (p, occ) in env.current_slice_occupancy().iter().enumerate() {
            obs.cgra_nodes[(p, 6)] = occ.map_or(-1.0, |n| n as f32) / dn;
        }

        // Metadata: the current node's normalized feature row plus the
        // mapped fraction (node_metadata over the rebuilt rows does
        // exactly this copy).
        match env.current_node() {
            Some(u) => {
                let fraction = env.placed_count() as f32 / dfg.node_count() as f32;
                let d = dfg_features::DFG_FEATURE_DIM;
                let start = u.index() * d;
                let Observation { dfg_nodes, metadata, .. } = obs;
                let meta = metadata.row_slice_mut(0);
                meta[..d].copy_from_slice(&dfg_nodes.data()[start..start + d]);
                meta[d] = fraction;
            }
            None => obs.metadata.fill(0.0),
        }

        // Must match `observe` exactly (the proptest suite pins the
        // incremental path against the from-scratch one).
        obs.mask = env.search_mask();
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;
    use mapzero_arch::{presets, PeId};
    use mapzero_dfg::suite;

    #[test]
    fn observation_shapes() {
        let dfg = suite::by_name("sum").unwrap();
        let cgra = presets::hrea();
        let mii = Problem::mii(&dfg, &cgra).unwrap();
        let problem = Problem::new(&dfg, &cgra, mii).unwrap();
        let env = MapEnv::new(&problem);
        let obs = observe(&env);
        assert_eq!(obs.dfg_nodes.rows(), dfg.node_count());
        assert_eq!(obs.dfg_nodes.cols(), 10);
        assert_eq!(obs.cgra_nodes.rows(), 16);
        assert_eq!(obs.cgra_nodes.cols(), 7);
        assert_eq!(obs.metadata.cols(), 11);
        assert_eq!(obs.mask.len(), 16);
        assert!(obs.mask.iter().all(|&m| m), "empty fabric: all PEs legal");
    }

    #[test]
    fn observation_changes_after_step() {
        let dfg = suite::by_name("sum").unwrap();
        let cgra = presets::hrea();
        let mii = Problem::mii(&dfg, &cgra).unwrap();
        let problem = Problem::new(&dfg, &cgra, mii).unwrap();
        let mut env = MapEnv::new(&problem);
        let before = observe(&env);
        let pe = env.legal_actions()[0];
        env.step(pe);
        let after = observe(&env);
        assert_ne!(before.dfg_nodes, after.dfg_nodes, "assigned-PE feature must change");
        assert_ne!(before.metadata, after.metadata);
        let _ = PeId(0);
    }

    /// The incremental observer must match the naive rebuild exactly at
    /// every step of an episode, including after backtrack unmaps.
    #[test]
    fn observer_matches_naive_rebuild_through_episode() {
        let dfg = suite::by_name("sum").unwrap();
        let cgra = presets::hrea();
        let mii = Problem::mii(&dfg, &cgra).unwrap();
        let problem = Problem::new(&dfg, &cgra, mii).unwrap();
        let mut env = MapEnv::new(&problem);
        let mut observer = Observer::new();
        assert_eq!(*observer.observe(&env), observe(&env), "initial");
        let mut step = 0;
        while !env.done() {
            let actions = env.legal_actions();
            if actions.is_empty() {
                break;
            }
            env.step(actions[step % actions.len()]);
            assert_eq!(*observer.observe(&env), observe(&env), "after step {step}");
            // Exercise the unmap path mid-episode.
            if step == 1 {
                let undone = env.undo();
                assert!(undone.is_some());
                assert_eq!(*observer.observe(&env), observe(&env), "after undo");
            }
            step += 1;
        }
    }

    /// Switching problems (e.g. a new II attempt) must trigger a full
    /// rebuild rather than patching tensors of the wrong shape.
    #[test]
    fn observer_detects_problem_switch() {
        let dfg = suite::by_name("sum").unwrap();
        let cgra = presets::hrea();
        let p1 = Problem::new(&dfg, &cgra, 1).unwrap();
        let p2 = Problem::new(&dfg, &cgra, 2).unwrap();
        let mut observer = Observer::new();
        let env1 = MapEnv::new(&p1);
        assert_eq!(*observer.observe(&env1), observe(&env1));
        let env2 = MapEnv::new(&p2);
        assert_eq!(*observer.observe(&env2), observe(&env2));
    }

    /// Two problems of equal size and II built one after the other in
    /// a loop (cap and mults2 on ADRES, 42 nodes each, II 2) can sit at
    /// the same address; the observer must still rebuild for the second.
    #[test]
    fn observer_rebuilds_for_an_equal_shape_problem_at_the_same_address() {
        let cgra = presets::adres();
        let mut observer = Observer::new();
        for kernel in ["cap", "mults2", "cap"] {
            let dfg = suite::by_name(kernel).unwrap();
            let problem = Problem::new(&dfg, &cgra, 2).unwrap();
            let mut env = MapEnv::new(&problem);
            for step in 0..4 {
                assert_eq!(*observer.observe(&env), observe(&env), "{kernel} step {step}");
                let legal = env.legal_actions();
                env.step(legal[step % legal.len()]);
            }
        }
    }

    #[test]
    fn dfg_edges_are_bidirectional() {
        let dfg = suite::by_name("sum").unwrap();
        let cgra = presets::hrea();
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let env = MapEnv::new(&problem);
        let obs = observe(&env);
        for e in dfg.edges() {
            if e.src != e.dst {
                assert!(obs.dfg_edges.contains(&(e.src.index(), e.dst.index())));
                assert!(obs.dfg_edges.contains(&(e.dst.index(), e.src.index())));
            }
        }
    }
}
