//! Shared full-placement evaluation for the annealing-based baselines.
//!
//! Given a complete placement (one PE per DFG node, already consistent
//! with the modulo schedule's slots), replay it through a fresh ledger:
//! claim every functional unit, route every edge, and count violations.

use mapzero_core::ledger::Ledger;
use mapzero_core::mapping::{Mapping, Placement};
use mapzero_core::problem::Problem;
use mapzero_core::router::route_edge;
use mapzero_arch::PeId;
use mapzero_dfg::OpClass;

/// Penalty weight for a routing failure or placement conflict.
pub const VIOLATION_WEIGHT: f64 = 100.0;

/// Outcome of evaluating a full placement.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Number of unroutable edges plus invalid placements.
    pub violations: usize,
    /// Total routing resources claimed by successful routes.
    pub wirelen: usize,
    /// The mapping, when `violations == 0`.
    pub mapping: Option<Mapping>,
}

impl Evaluation {
    /// Scalar SA cost.
    #[must_use]
    pub fn cost(&self) -> f64 {
        VIOLATION_WEIGHT * self.violations as f64 + self.wirelen as f64
    }

    /// True when the placement is a complete valid mapping.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.violations == 0
    }
}

/// Evaluate a complete placement vector (`assignment[i]` = PE of node
/// `i`).
///
/// # Panics
/// Panics if `assignment.len() != problem.node_count()`.
#[must_use]
pub fn evaluate(problem: &Problem<'_>, assignment: &[PeId]) -> Evaluation {
    let dfg = problem.dfg();
    let cgra = problem.cgra();
    let schedule = problem.schedule();
    assert_eq!(assignment.len(), dfg.node_count(), "one PE per node");

    let mut ledger = Ledger::new(cgra, problem.ii());
    let mut violations = 0usize;

    // Placement legality.
    for u in dfg.node_ids() {
        let pe = assignment[u.index()];
        let op = dfg.node(u).opcode;
        let slot = schedule.modulo_slot(u);
        if !cgra.pe(pe).capability.supports(op) {
            violations += 1;
            continue;
        }
        if !ledger.claim_fu(pe, slot, u) {
            violations += 1;
            continue;
        }
        if cgra.row_shared_mem_bus()
            && op.class() == OpClass::Memory
            && !ledger.claim_membus(cgra.pe(pe).row, slot)
        {
            violations += 1;
        }
    }

    // Routing, in edge order.
    let mut wirelen = 0usize;
    let mut routes = Vec::with_capacity(dfg.edge_count());
    for e in dfg.edges() {
        let from = Placement { pe: assignment[e.src.index()], time: schedule.time(e.src) };
        let to = Placement { pe: assignment[e.dst.index()], time: schedule.time(e.dst) };
        let mut hops = Vec::new();
        match route_edge(cgra, &mut ledger, e.src, from, to, e.dist, &mut hops) {
            Some(cost) => wirelen += cost,
            None => violations += 1,
        }
        routes.push(hops);
    }

    let mapping = (violations == 0).then(|| Mapping {
        ii: problem.ii(),
        placements: dfg
            .node_ids()
            .map(|u| Placement { pe: assignment[u.index()], time: schedule.time(u) })
            .collect(),
        routes,
    });
    Evaluation { violations, wirelen, mapping }
}

/// Build a random initial placement: nodes of each modulo slot are
/// assigned distinct capable PEs where possible.
#[must_use]
pub fn random_assignment(
    problem: &Problem<'_>,
    rng: &mut mapzero_nn::SeedRng,
) -> Vec<PeId> {
    let dfg = problem.dfg();
    let cgra = problem.cgra();
    let schedule = problem.schedule();
    let mut assignment = vec![PeId(0); dfg.node_count()];
    for slot_nodes in schedule.slots() {
        let mut free: Vec<PeId> = cgra.pe_ids().collect();
        for u in slot_nodes {
            let op = dfg.node(u).opcode;
            let candidates: Vec<usize> = free
                .iter()
                .enumerate()
                .filter(|(_, &pe)| cgra.pe(pe).capability.supports(op))
                .map(|(i, _)| i)
                .collect();
            if candidates.is_empty() {
                // Slot overfull (shouldn't happen with a feasible
                // schedule) — collide deliberately; cost will reflect it.
                assignment[u.index()] = PeId(rng.below(cgra.pe_count()) as u32);
            } else {
                let pick = candidates[rng.below(candidates.len())];
                assignment[u.index()] = free.swap_remove(pick);
            }
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapzero_core::validate::check_mapping;
    use mapzero_arch::presets;
    use mapzero_dfg::suite;
    use mapzero_nn::SeedRng;

    #[test]
    fn random_assignment_is_slot_exclusive() {
        let dfg = suite::by_name("mac").unwrap();
        let cgra = presets::hrea();
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut rng = SeedRng::new(3);
        let a = random_assignment(&problem, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for pe in &a {
            assert!(seen.insert(pe.0), "II=1 assignment must be injective");
        }
    }

    #[test]
    fn evaluation_counts_conflicts() {
        let dfg = suite::by_name("mac").unwrap();
        let cgra = presets::hrea();
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        // Everything on PE 0: massive conflicts.
        let a = vec![PeId(0); dfg.node_count()];
        let eval = evaluate(&problem, &a);
        assert!(eval.violations >= dfg.node_count() - 1);
        assert!(eval.cost() >= VIOLATION_WEIGHT);
        assert!(eval.mapping.is_none());
    }

    #[test]
    fn valid_assignment_produces_mapping() {
        // Place the 3-node chain by hand on a 2x2 mesh.
        let mut b = mapzero_dfg::DfgBuilder::new("chain");
        let x = b.node(mapzero_dfg::Opcode::Load);
        let y = b.node(mapzero_dfg::Opcode::Add);
        let z = b.node(mapzero_dfg::Opcode::Store);
        b.edge(x, y).unwrap();
        b.edge(y, z).unwrap();
        let dfg = b.finish().unwrap();
        let cgra = presets::simple_mesh(2, 2);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let eval = evaluate(&problem, &[PeId(0), PeId(1), PeId(3)]);
        assert!(eval.is_valid(), "violations: {}", eval.violations);
        let mapping = eval.mapping.unwrap();
        assert_eq!(check_mapping(&dfg, &cgra, &mapping, mapping.ii), Ok(()));
    }

    #[test]
    fn cost_orders_better_placements_first() {
        let mut b = mapzero_dfg::DfgBuilder::new("pair");
        let x = b.node(mapzero_dfg::Opcode::Load);
        let y = b.node(mapzero_dfg::Opcode::Store);
        b.edge(x, y).unwrap();
        let dfg = b.finish().unwrap();
        let cgra = presets::simple_mesh(3, 3);
        let problem = Problem::new(&dfg, &cgra, 2).unwrap();
        let near = evaluate(&problem, &[PeId(0), PeId(1)]);
        let far = evaluate(&problem, &[PeId(0), PeId(8)]);
        assert!(near.cost() <= far.cost());
    }
}
