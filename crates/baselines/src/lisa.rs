//! Label-guided simulated annealing — the LISA stand-in.
//!
//! LISA (Li et al., HPCA'22) trains a GNN to emit per-node labels —
//! expected spatial distances between communicating nodes and a
//! centrality score for high-fanout nodes — and biases SA's cost toward
//! placements agreeing with the labels. We compute the same *kinds* of
//! labels analytically from the DFG. Crucially, like LISA's training
//! set, the labels assume a **single-cycle multi-hop** (crossbar)
//! interconnect: the expected distance between producer and consumer is
//! the schedule-time difference, which physically matches HyCube but
//! systematically mis-estimates registered mesh fabrics. This
//! reproduces the §4.2 observation that "LISA is only applicable to
//! single-cycle multi-hop interconnect architectures like HyCube … and
//! fails on other topologies."

use crate::sa::{run_annealing_mapper, CostShaper};
use mapzero_core::mapping::{MapError, MapReport, Mapper};
use mapzero_core::problem::Problem;
use mapzero_core::search::IiBounds;
use mapzero_core::supervise::Budget;
use mapzero_arch::{Cgra, PeId};
use mapzero_dfg::Dfg;
use std::cell::OnceCell;

/// Weight of the label-agreement term relative to the routing cost.
const LABEL_WEIGHT: f64 = 12.0;

/// Per-edge and per-node labels emulating LISA's GNN output.
#[derive(Debug, Clone)]
pub struct Labels {
    /// Expected placement distance per DFG edge (crossbar assumption:
    /// one hop of distance per cycle of schedule slack, capped by the
    /// fabric diameter).
    pub edge_distance: Vec<f64>,
    /// Centrality score per node: high-fanout nodes want central PEs.
    pub centrality: Vec<f64>,
}

/// Compute the labels for a scheduled problem.
#[must_use]
pub fn compute_labels(problem: &Problem<'_>) -> Labels {
    let _span = mapzero_obs::span!("lisa.labels");
    let dfg = problem.dfg();
    let cgra = problem.cgra();
    let schedule = problem.schedule();
    let diameter = (cgra.rows() + cgra.cols()) as f64;
    let edge_distance = dfg
        .edges()
        .map(|e| {
            let slack = f64::from(
                (schedule.time(e.dst) + e.dist * problem.ii())
                    .saturating_sub(schedule.time(e.src)),
            );
            // Crossbar assumption: any distance is reachable within one
            // cycle, so the expected distance scales with slack but is
            // never forced to zero.
            (slack * 2.0).min(diameter).max(1.0)
        })
        .collect();
    let max_deg = dfg
        .node_ids()
        .map(|u| dfg.out_degree(u) + dfg.in_degree(u))
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let centrality = dfg
        .node_ids()
        .map(|u| (dfg.out_degree(u) + dfg.in_degree(u)) as f64 / max_deg)
        .collect();
    Labels { edge_distance, centrality }
}

/// Labels are computed once per instance, on the first problem annealed
/// (the lowest schedulable II, as LISA infers once per kernel), and
/// reused across IIs.
#[derive(Default)]
struct LabelShaper {
    labels: OnceCell<Labels>,
}

impl CostShaper for LabelShaper {
    fn extra_cost(&self, problem: &Problem<'_>, assignment: &[PeId]) -> f64 {
        let labels = self.labels.get_or_init(|| compute_labels(problem));
        let dfg = problem.dfg();
        let cgra = problem.cgra();
        let mut cost = 0.0;
        for (i, e) in dfg.edges().enumerate() {
            let a = cgra.pe(assignment[e.src.index()]);
            let b = cgra.pe(assignment[e.dst.index()]);
            let dist = (a.row.abs_diff(b.row) + a.col.abs_diff(b.col)) as f64;
            cost += (dist - labels.edge_distance[i]).abs();
        }
        let (cr, cc) = ((cgra.rows() - 1) as f64 / 2.0, (cgra.cols() - 1) as f64 / 2.0);
        for u in dfg.node_ids() {
            let p = cgra.pe(assignment[u.index()]);
            let off_center = (p.row as f64 - cr).abs() + (p.col as f64 - cc).abs();
            cost += labels.centrality[u.index()] * off_center;
        }
        LABEL_WEIGHT * cost
    }
}

/// The LISA-style mapper: SA over the default II window, label-guided.
#[derive(Debug, Clone, Default)]
pub struct LisaMapper;

impl Mapper for LisaMapper {
    fn name(&self) -> &str {
        "LISA"
    }

    fn map(
        &mut self,
        dfg: &Dfg,
        cgra: &Cgra,
        budget: &Budget,
        window: IiBounds,
    ) -> Result<MapReport, MapError> {
        let shaper = LabelShaper::default();
        run_annealing_mapper("LISA", &shaper, dfg, cgra, budget, window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapzero_core::validate::check_mapping;
    use mapzero_arch::presets;
    use mapzero_dfg::suite;
    use std::time::Duration;

    #[test]
    fn labels_have_expected_shape() {
        let dfg = suite::by_name("mac").unwrap();
        let cgra = presets::hycube();
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let labels = compute_labels(&problem);
        assert_eq!(labels.edge_distance.len(), dfg.edge_count());
        assert_eq!(labels.centrality.len(), dfg.node_count());
        assert!(labels.edge_distance.iter().all(|&d| d >= 1.0));
        assert!(labels.centrality.iter().all(|&c| (0.0..=1.0).contains(&c)));
    }

    #[test]
    fn maps_on_hycube() {
        let cgra = presets::hycube();
        let dfg = suite::by_name("sum").unwrap();
        let mut mapper = LisaMapper;
        let budget = Budget::with_deadline(Duration::from_secs(60));
        let report = mapper.map(&dfg, &cgra, &budget, IiBounds::default()).unwrap();
        let mapping = report.mapping.expect("sum should map via LISA on HyCube");
        assert_eq!(check_mapping(&dfg, &cgra, &mapping, mapping.ii), Ok(()));
    }

    #[test]
    fn label_guidance_changes_search() {
        // Same seed, same kernel: LISA and plain SA should explore
        // differently because their costs differ.
        let cgra = presets::hycube();
        let dfg = suite::by_name("mac").unwrap();
        let mut lisa = LisaMapper;
        let mut sa = crate::SaMapper;
        let budget = Budget::with_deadline(Duration::from_secs(60));
        let rl = lisa.map(&dfg, &cgra, &budget, IiBounds::default()).unwrap();
        let rs = sa.map(&dfg, &cgra, &budget, IiBounds::default()).unwrap();
        assert!(rl.mapping.is_some());
        assert!(rs.mapping.is_some());
    }
}
