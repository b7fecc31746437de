//! Simulated annealing mapper — the CGRA-ME (SA) stand-in.
//!
//! Placements are perturbed by moving a node to a free capable PE or
//! swapping two nodes of the same modulo slot; "100 random
//! perturbations are made before each annealing" (§4.3), with Metropolis
//! acceptance and geometric cooling. The annealing-step count is
//! reported as `backtracks` for Fig. 10.

use crate::cost::{evaluate, random_assignment};
use mapzero_core::mapping::{MapError, MapReport, Mapper};
use mapzero_core::problem::Problem;
use mapzero_core::search::{self, Attempt, IiBounds};
use mapzero_core::supervise::Budget;
use mapzero_arch::{Cgra, PeId};
use mapzero_dfg::Dfg;
use mapzero_nn::SeedRng;

/// Initial temperature.
const T_START: f64 = 300.0;
/// Stop temperature.
const T_MIN: f64 = 0.2;
/// Geometric cooling factor per annealing step.
const ALPHA: f64 = 0.92;
/// Perturbation proposals per annealing step (paper: 100).
const MOVES_PER_STEP: usize = 100;
/// Restarts with fresh random placements before giving up on an II.
const RESTARTS: usize = 2;

/// The annealing mapper over the default II window.
#[derive(Debug, Clone, Default)]
pub struct SaMapper;

/// Extra cost terms layered on top of the routing cost; the plain SA
/// uses none, LISA adds its label guidance.
pub(crate) trait CostShaper {
    fn extra_cost(&self, problem: &Problem<'_>, assignment: &[PeId]) -> f64;
}

pub(crate) struct NoShaping;

impl CostShaper for NoShaping {
    fn extra_cost(&self, _problem: &Problem<'_>, _assignment: &[PeId]) -> f64 {
        0.0
    }
}

/// One annealing run on a fixed-II problem, until a valid placement,
/// the end of the cooling schedule or an exhausted `budget`, which is
/// polled before every proposal. Annealing steps count as backtracks
/// and proposals as explored placements.
pub(crate) fn anneal(
    problem: &Problem<'_>,
    shaper: &dyn CostShaper,
    rng: &mut SeedRng,
    budget: &Budget,
) -> Attempt {
    let _span = mapzero_obs::span!("sa.anneal");
    let mut attempt = Attempt::default();
    'restarts: for _restart in 0..=RESTARTS {
        let mut current = random_assignment(problem, rng);
        let mut current_eval = evaluate(problem, &current);
        let mut current_cost = current_eval.cost() + shaper.extra_cost(problem, &current);
        if current_eval.is_valid() {
            attempt.mapping = current_eval.mapping;
            break;
        }
        let mut temperature = T_START;
        while temperature > T_MIN {
            for proposal in 0..MOVES_PER_STEP {
                if budget.exhausted() {
                    attempt.timed_out = true;
                    break 'restarts;
                }
                if proposal == 0 {
                    attempt.backtracks += 1;
                }
                attempt.explored += 1;
                let mut candidate = current.clone();
                perturb(problem, &mut candidate, rng);
                let eval = evaluate(problem, &candidate);
                let cost = eval.cost() + shaper.extra_cost(problem, &candidate);
                let accept = cost <= current_cost || {
                    let p = ((current_cost - cost) / temperature).exp();
                    rng.unit() < p
                };
                if accept {
                    current = candidate;
                    current_cost = cost;
                    current_eval = eval;
                    if current_eval.is_valid() {
                        attempt.mapping = current_eval.mapping;
                        break 'restarts;
                    }
                }
            }
            temperature *= ALPHA;
        }
    }
    mapzero_obs::counter!("sa.annealings", attempt.backtracks);
    mapzero_obs::counter!("sa.proposals", attempt.explored);
    attempt
}

/// Move a random node to a free capable PE of its slot, or swap two
/// nodes within a slot.
fn perturb(problem: &Problem<'_>, assignment: &mut [PeId], rng: &mut SeedRng) {
    let dfg = problem.dfg();
    let cgra = problem.cgra();
    let schedule = problem.schedule();
    let n = dfg.node_count();
    let u = mapzero_dfg::NodeId(rng.below(n) as u32);
    let slot = schedule.modulo_slot(u);
    let op = dfg.node(u).opcode;

    if rng.unit() < 0.5 {
        // Move to a random capable PE not used by another node of the
        // same slot.
        let used: Vec<PeId> = dfg
            .node_ids()
            .filter(|&v| v != u && schedule.modulo_slot(v) == slot)
            .map(|v| assignment[v.index()])
            .collect();
        let free: Vec<PeId> = cgra
            .capable_pes(op)
            .filter(|pe| !used.contains(pe))
            .collect();
        if !free.is_empty() {
            assignment[u.index()] = free[rng.below(free.len())];
        }
    } else {
        // Swap with another node of the same slot (capability permitting).
        let peers: Vec<mapzero_dfg::NodeId> = dfg
            .node_ids()
            .filter(|&v| v != u && schedule.modulo_slot(v) == slot)
            .collect();
        if peers.is_empty() {
            return;
        }
        let v = peers[rng.below(peers.len())];
        let (pu, pv) = (assignment[u.index()], assignment[v.index()]);
        let ou = dfg.node(u).opcode;
        let ov = dfg.node(v).opcode;
        if cgra.pe(pv).capability.supports(ou) && cgra.pe(pu).capability.supports(ov) {
            assignment[u.index()] = pv;
            assignment[v.index()] = pu;
        }
    }
}

/// The annealing-family `Mapper::map`: one anneal per II, climbed by
/// [`search::map_climbing`], with one RNG stream across IIs.
pub(crate) fn run_annealing_mapper(
    name: &str,
    shaper: &dyn CostShaper,
    dfg: &Dfg,
    cgra: &Cgra,
    budget: &Budget,
    window: IiBounds,
) -> Result<MapReport, MapError> {
    let capture = mapzero_obs::RunCapture::begin();
    let mut rng = SeedRng::new(dfg.name().len() as u64);
    let report = search::map_climbing(name, dfg, cgra, budget, window, |problem, slice| {
        anneal(problem, shaper, &mut rng, slice)
    })?;
    Ok(MapReport { telemetry: capture.map(mapzero_obs::RunCapture::finish), ..report })
}

impl Mapper for SaMapper {
    fn name(&self) -> &str {
        "SA"
    }

    fn map(
        &mut self,
        dfg: &Dfg,
        cgra: &Cgra,
        budget: &Budget,
        window: IiBounds,
    ) -> Result<MapReport, MapError> {
        run_annealing_mapper("SA", &NoShaping, dfg, cgra, budget, window)
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
    fn maps_tiny_kernel() {
        let cgra = presets::hrea();
        let dfg = suite::by_name("sum").unwrap();
        let mut mapper = SaMapper;
        let budget = Budget::with_deadline(Duration::from_secs(60));
        let report = mapper.map(&dfg, &cgra, &budget, IiBounds::default()).unwrap();
        let mapping = report.mapping.expect("sum should map via SA");
        assert_eq!(check_mapping(&dfg, &cgra, &mapping, mapping.ii), Ok(()));
    }

    #[test]
    fn annealing_steps_counted() {
        // A kernel small enough to solve but unlikely at the first
        // random shot on a crossbar.
        let cgra = presets::hycube();
        let dfg = suite::by_name("mac").unwrap();
        let mut mapper = SaMapper;
        let budget = Budget::with_deadline(Duration::from_secs(60));
        let report = mapper.map(&dfg, &cgra, &budget, IiBounds::default()).unwrap();
        assert!(report.mapping.is_some());
        // Either an immediate lucky hit (0) or counted annealings.
        assert!(report.explored >= report.backtracks);
    }

    #[test]
    fn respects_time_limit() {
        let cgra = presets::hrea();
        let dfg = suite::by_name("arf").unwrap();
        let mut mapper = SaMapper;
        let start = std::time::Instant::now();
        let budget = Budget::with_deadline(Duration::from_millis(100));
        let outcome = mapper.map(&dfg, &cgra, &budget, IiBounds::default());
        assert!(start.elapsed() < Duration::from_secs(20));
        match outcome {
            Ok(report) => assert!(report.mapping.is_some(), "{report:?}"),
            Err(MapError::Timeout { best_partial }) => assert!(best_partial.explored > 0),
            Err(e) => panic!("expected a mapping or a Timeout, got {e}"),
        }
    }

    /// The climb splits the clock: an II whose anneal cannot finish
    /// within its share is cut, and the IIs above it still run. II 1
    /// cannot map, so an anneal there runs its whole cooling schedule.
    /// The clock is half of that; a climb that handed the first II the
    /// whole deadline would spend it all at II 1 and map nothing.
    #[test]
    fn a_cut_ii_leaves_the_clock_to_the_next() {
        let dfg = crate::fanin5();
        let cgra = presets::simple_mesh(3, 3);
        let first = Problem::new(&dfg, &cgra, 1).unwrap();
        let start = std::time::Instant::now();
        let full = anneal(&first, &NoShaping, &mut SeedRng::new(0), &Budget::unlimited());
        let full_anneal = start.elapsed();
        assert!(full.mapping.is_none() && !full.timed_out, "II 1 is infeasible");
        let budget = Budget::with_deadline(full_anneal / 2);
        let report = SaMapper.map(&dfg, &cgra, &budget, IiBounds::default()).unwrap();
        assert_eq!(report.mii, 1);
        let mapping = report.mapping.expect("an II above 1 maps");
        assert!(mapping.ii > 1);
        assert_eq!(check_mapping(&dfg, &cgra, &mapping, mapping.ii), Ok(()));
        assert!(report.timed_out, "II 1 ended on its share of the clock");
    }

    /// Charges one unit of `budget` per cost evaluation: once for each
    /// restart's initial placement, once per proposal.
    struct ChargesPerCost<'b>(&'b Budget);

    impl CostShaper for ChargesPerCost<'_> {
        fn extra_cost(&self, _problem: &Problem<'_>, _assignment: &[PeId]) -> f64 {
            self.0.charge(1);
            0.0
        }
    }

    /// The budget is polled before every proposal, not once per
    /// annealing step: with a cap of 150 charges the anneal stops after
    /// 149 proposals (one charge went to the initial placement), not at
    /// the end of the second 100-proposal step.
    #[test]
    fn an_exhausted_budget_stops_the_anneal_within_one_proposal() {
        let dfg = crate::fanin5();
        let cgra = presets::simple_mesh(3, 3);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let budget = Budget::unlimited().with_expansion_cap(150);
        let attempt =
            anneal(&problem, &ChargesPerCost(&budget), &mut SeedRng::new(0), &budget);
        assert!(attempt.mapping.is_none() && attempt.timed_out, "II 1 is infeasible");
        assert_eq!(attempt.explored, 149);
        assert_eq!(budget.spent(), 150);
        assert_eq!(attempt.backtracks, 2, "two annealing steps began");
    }

    #[test]
    fn runs_are_deterministic() {
        let cgra = presets::hrea();
        let dfg = suite::by_name("sum").unwrap();
        let budget = Budget::with_deadline(Duration::from_secs(60));
        let ra = SaMapper.map(&dfg, &cgra, &budget, IiBounds::default()).unwrap();
        let rb = SaMapper.map(&dfg, &cgra, &budget, IiBounds::default()).unwrap();
        assert_eq!(ra.mapping, rb.mapping);
        assert_eq!(ra.backtracks, rb.backtracks);
    }
}
