//! Simulated annealing mapper — the CGRA-ME (SA) stand-in.
//!
//! Placements are perturbed by moving a node to a free capable PE or
//! swapping two nodes of the same modulo slot; "100 random
//! perturbations are made before each annealing" (§4.3), with Metropolis
//! acceptance and geometric cooling. The annealing-step count is
//! reported as `backtracks` for Fig. 10.

use crate::cost::{evaluate, random_assignment};
use mapzero_core::mapping::{MapError, MapReport, Mapper, Mapping};
use mapzero_core::problem::Problem;
use mapzero_arch::{Cgra, PeId};
use mapzero_dfg::Dfg;
use mapzero_nn::SeedRng;
use std::time::{Duration, Instant};

/// Annealing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaConfig {
    /// Initial temperature.
    pub t_start: f64,
    /// Stop temperature.
    pub t_min: f64,
    /// Geometric cooling factor per annealing step.
    pub alpha: f64,
    /// Perturbation proposals per annealing step (paper: 100).
    pub moves_per_step: usize,
    /// Restarts with fresh random placements before giving up on an II.
    pub restarts: usize,
    /// How many IIs above MII to try.
    pub max_extra_ii: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            t_start: 300.0,
            t_min: 0.2,
            alpha: 0.92,
            moves_per_step: 100,
            restarts: 2,
            max_extra_ii: 4,
            seed: 0,
        }
    }
}

/// The annealing mapper.
#[derive(Debug, Clone, Default)]
pub struct SaMapper {
    config: SaConfig,
}

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

impl SaMapper {
    /// Create with the given configuration.
    #[must_use]
    pub fn new(config: SaConfig) -> Self {
        SaMapper { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SaConfig {
        &self.config
    }
}

/// One annealing run on a fixed-II problem. Returns `(best evaluation,
/// annealing steps, proposals, timed_out)`.
pub(crate) fn anneal(
    problem: &Problem<'_>,
    config: &SaConfig,
    shaper: &dyn CostShaper,
    rng: &mut SeedRng,
    deadline: Instant,
) -> (Option<Mapping>, u64, u64, bool) {
    let _span = mapzero_obs::span!("sa.anneal");
    let mut annealings = 0u64;
    let mut proposals = 0u64;

    for _restart in 0..=config.restarts {
        let mut current = random_assignment(problem, rng);
        let mut current_eval = evaluate(problem, &current);
        let mut current_cost = current_eval.cost() + shaper.extra_cost(problem, &current);
        if current_eval.is_valid() {
            return (current_eval.mapping, annealings, proposals, false);
        }
        let mut temperature = config.t_start;
        while temperature > config.t_min {
            if Instant::now() > deadline {
                return (None, annealings, proposals, true);
            }
            annealings += 1;
            for _ in 0..config.moves_per_step {
                proposals += 1;
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
                        return (current_eval.mapping.clone(), annealings, proposals, false);
                    }
                }
            }
            temperature *= config.alpha;
        }
    }
    (None, annealings, proposals, false)
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

/// Shared II-search driver for the annealing-family mappers.
pub(crate) fn run_annealing_mapper(
    name: &str,
    config: &SaConfig,
    shaper: &dyn CostShaper,
    dfg: &Dfg,
    cgra: &Cgra,
    time_limit: Duration,
) -> Result<MapReport, MapError> {
    let start = Instant::now();
    let capture = mapzero_obs::RunCapture::begin();
    let deadline = start + time_limit;
    let mii = Problem::mii(dfg, cgra)?;
    let mut rng = SeedRng::new(config.seed ^ dfg.name().len() as u64);
    let mut annealings = 0u64;
    let mut proposals = 0u64;
    let mut timed_out = false;
    let mut mapping = None;
    for ii in mii..=mii + config.max_extra_ii {
        let problem = match Problem::new(dfg, cgra, ii) {
            Ok(p) => p,
            Err(MapError::NoSchedule(_)) => continue,
            Err(e) => return Err(e),
        };
        let (m, a, p, t) = anneal(&problem, config, shaper, &mut rng, deadline);
        annealings += a;
        proposals += p;
        timed_out |= t;
        if m.is_some() {
            mapping = m;
            break;
        }
        if timed_out {
            break;
        }
    }
    mapzero_obs::counter!("sa.annealings", annealings);
    mapzero_obs::counter!("sa.proposals", proposals);
    Ok(MapReport {
        mapper: name.to_owned(),
        engine: name.to_owned(),
        kernel: dfg.name().to_owned(),
        fabric: cgra.name().to_owned(),
        mii,
        mapping,
        elapsed: start.elapsed(),
        backtracks: annealings,
        explored: proposals,
        timed_out,
        telemetry: capture.map(mapzero_obs::RunCapture::finish),
    })
}

impl Mapper for SaMapper {
    fn name(&self) -> &str {
        "SA"
    }

    fn map(
        &mut self,
        dfg: &Dfg,
        cgra: &Cgra,
        time_limit: Duration,
    ) -> Result<MapReport, MapError> {
        run_annealing_mapper("SA", &self.config, &NoShaping, dfg, cgra, time_limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapzero_core::validate::check_mapping;
    use mapzero_arch::presets;
    use mapzero_dfg::suite;

    #[test]
    fn maps_tiny_kernel() {
        let cgra = presets::hrea();
        let dfg = suite::by_name("sum").unwrap();
        let mut mapper = SaMapper::default();
        let report = mapper.map(&dfg, &cgra, Duration::from_secs(60)).unwrap();
        let mapping = report.mapping.expect("sum should map via SA");
        assert_eq!(check_mapping(&dfg, &cgra, &mapping, mapping.ii), Ok(()));
    }

    #[test]
    fn annealing_steps_counted() {
        // A kernel small enough to solve but unlikely at the first
        // random shot on a crossbar.
        let cgra = presets::hycube();
        let dfg = suite::by_name("mac").unwrap();
        let mut mapper = SaMapper::default();
        let report = mapper.map(&dfg, &cgra, Duration::from_secs(60)).unwrap();
        assert!(report.mapping.is_some());
        // Either an immediate lucky hit (0) or counted annealings.
        assert!(report.explored >= report.backtracks);
    }

    #[test]
    fn respects_time_limit() {
        let cgra = presets::hrea();
        let dfg = suite::by_name("arf").unwrap();
        let mut mapper = SaMapper::default();
        let start = Instant::now();
        let report = mapper.map(&dfg, &cgra, Duration::from_millis(100)).unwrap();
        assert!(start.elapsed() < Duration::from_secs(20));
        assert!(report.timed_out || report.mapping.is_some());
    }

    #[test]
    fn seeded_runs_are_deterministic() {
        let cgra = presets::hrea();
        let dfg = suite::by_name("sum").unwrap();
        let mut a = SaMapper::new(SaConfig { seed: 9, ..Default::default() });
        let mut b = SaMapper::new(SaConfig { seed: 9, ..Default::default() });
        let ra = a.map(&dfg, &cgra, Duration::from_secs(60)).unwrap();
        let rb = b.map(&dfg, &cgra, Duration::from_secs(60)).unwrap();
        assert_eq!(ra.mapping, rb.mapping);
        assert_eq!(ra.backtracks, rb.backtracks);
    }
}
