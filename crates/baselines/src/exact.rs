//! Exact branch-and-bound mapper — the CGRA-ME (ILP) stand-in.
//!
//! A systematic depth-first search over placements in schedule order
//! with incremental routing: every partial placement whose newest node
//! cannot be routed is pruned immediately (the combinatorial
//! "systematic backtracking algorithm" of §1). Complete: within the
//! time limit it finds a valid mapping at the target II under the fixed
//! modulo schedule whenever one exists, or proves there is none. Like
//! the ILP it therefore delivers optimal IIs on small kernels and times
//! out on large ones.

use mapzero_core::env::MapEnv;
use mapzero_core::mapping::{MapError, MapReport, Mapper, Mapping};
use mapzero_core::problem::Problem;
use mapzero_arch::{Cgra, PeId};
use mapzero_dfg::Dfg;
use std::time::{Duration, Instant};

/// Configuration for the exact mapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactConfig {
    /// How many IIs above MII to try.
    pub max_extra_ii: u32,
    /// Order candidate PEs by distance to placed parents (much faster;
    /// disable to measure raw search behaviour).
    pub order_by_distance: bool,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig { max_extra_ii: 4, order_by_distance: true }
    }
}

/// The exact branch-and-bound mapper.
#[derive(Debug, Clone, Default)]
pub struct ExactMapper {
    config: ExactConfig,
}

impl ExactMapper {
    /// Create with the given configuration.
    #[must_use]
    pub fn new(config: ExactConfig) -> Self {
        ExactMapper { config }
    }

    /// Solve one fixed-II instance. Returns `(mapping, backtracks,
    /// explored, timed_out)`.
    fn solve(
        problem: &Problem<'_>,
        deadline: Instant,
        order_by_distance: bool,
    ) -> (Option<Mapping>, u64, u64, bool) {
        let mut env = MapEnv::new(problem);
        let cgra = problem.cgra();
        let dfg = problem.dfg();
        let mut backtracks = 0u64;
        let mut explored = 0u64;
        // DFS stack: per depth, remaining candidate actions.
        let mut stack: Vec<Vec<PeId>> = Vec::with_capacity(problem.node_count());
        stack.push(candidates(&env, cgra, dfg, order_by_distance));
        loop {
            if Instant::now() > deadline {
                return (None, backtracks, explored, true);
            }
            let Some(frame) = stack.last_mut() else {
                // Exhausted the whole tree: proven infeasible.
                return (None, backtracks, explored, false);
            };
            match frame.pop() {
                Some(action) => {
                    let outcome = env.step(action);
                    explored += 1;
                    if outcome.failed_routes > 0 {
                        env.undo();
                        backtracks += 1;
                        continue;
                    }
                    if env.done() {
                        if env.success() {
                            return (env.final_mapping(), backtracks, explored, false);
                        }
                        env.undo();
                        backtracks += 1;
                        continue;
                    }
                    stack.push(candidates(&env, cgra, dfg, order_by_distance));
                }
                None => {
                    stack.pop();
                    if env.undo().is_some() {
                        backtracks += 1;
                    }
                }
            }
        }
    }
}

/// Candidate PEs for the current node, worst-first (the DFS pops from
/// the back).
fn candidates(
    env: &MapEnv<'_>,
    cgra: &Cgra,
    dfg: &Dfg,
    order_by_distance: bool,
) -> Vec<PeId> {
    let mut legal = env.legal_actions();
    if !order_by_distance {
        legal.reverse();
        return legal;
    }
    let Some(u) = env.current_node() else {
        return legal;
    };
    let mut anchors: Vec<(usize, usize)> = Vec::new();
    for e in dfg.in_edges(u).chain(dfg.out_edges(u)) {
        let other = if e.src == u { e.dst } else { e.src };
        if let Some(p) = env.placement(other) {
            let pe = cgra.pe(p.pe);
            anchors.push((pe.row, pe.col));
        }
    }
    // Sort descending so the closest PE is tried first (popped last-in).
    legal.sort_by_key(|&pe| {
        let info = cgra.pe(pe);
        let d: usize = anchors
            .iter()
            .map(|&(r, c)| info.row.abs_diff(r) + info.col.abs_diff(c))
            .sum();
        std::cmp::Reverse(d)
    });
    legal
}

impl Mapper for ExactMapper {
    fn name(&self) -> &str {
        "ILP"
    }

    fn map(
        &mut self,
        dfg: &Dfg,
        cgra: &Cgra,
        time_limit: Duration,
    ) -> Result<MapReport, MapError> {
        let start = Instant::now();
        let deadline = start + time_limit;
        let mii = Problem::mii(dfg, cgra)?;
        let mut backtracks = 0u64;
        let mut explored = 0u64;
        let mut mapping = None;
        let mut timed_out = false;
        for ii in mii..=mii + self.config.max_extra_ii {
            let problem = match Problem::new(dfg, cgra, ii) {
                Ok(p) => p,
                Err(MapError::NoSchedule(_)) => continue,
                Err(e) => return Err(e),
            };
            // Budget slice per II so an unroutable MII cannot starve
            // the larger IIs (mirrors the MapZero compiler loop).
            let remaining_iis = mii + self.config.max_extra_ii - ii + 1;
            let now = Instant::now();
            let slice_deadline = if now >= deadline {
                deadline
            } else {
                let remaining = deadline - now;
                now + remaining / remaining_iis
            };
            let (m, b, e, t) =
                Self::solve(&problem, slice_deadline, self.config.order_by_distance);
            backtracks += b;
            explored += e;
            timed_out |= t;
            if m.is_some() {
                mapping = m;
                timed_out = false;
                break;
            }
            if Instant::now() >= deadline {
                timed_out = true;
                break;
            }
        }
        Ok(MapReport {
            mapper: self.name().to_owned(),
            engine: self.name().to_owned(),
            kernel: dfg.name().to_owned(),
            fabric: cgra.name().to_owned(),
            mii,
            mapping,
            elapsed: start.elapsed(),
            backtracks,
            explored,
            timed_out,
            telemetry: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapzero_core::validate::check_mapping;
    use mapzero_arch::presets;
    use mapzero_dfg::suite;

    #[test]
    fn maps_small_kernels_optimally() {
        let cgra = presets::hrea();
        let mut mapper = ExactMapper::default();
        for dfg in suite::small() {
            let report = mapper.map(&dfg, &cgra, Duration::from_secs(60)).unwrap();
            let mapping = report
                .mapping
                .as_ref()
                .unwrap_or_else(|| panic!("{} should map", dfg.name()));
            assert_eq!(check_mapping(&dfg, &cgra, mapping, mapping.ii), Ok(()), "{}", dfg.name());
            assert_eq!(mapping.ii, report.mii, "{} must reach MII", dfg.name());
        }
    }

    #[test]
    fn maps_on_hycube() {
        let cgra = presets::hycube();
        let dfg = suite::by_name("mac").unwrap();
        let mut mapper = ExactMapper::default();
        let report = mapper.map(&dfg, &cgra, Duration::from_secs(60)).unwrap();
        let mapping = report.mapping.expect("mac maps on HyCube");
        assert_eq!(check_mapping(&dfg, &cgra, &mapping, mapping.ii), Ok(()));
        assert_eq!(mapping.ii, report.mii);
    }

    #[test]
    fn proves_infeasibility_by_exhaustion() {
        // Node with 5 parents at the next cycle on a 4-neighbour 3x3
        // mesh at II large enough to schedule: unroutable at low IIs but
        // the search terminates and reports honestly.
        let mut b = mapzero_dfg::DfgBuilder::new("fanin5");
        let parents: Vec<_> = (0..5).map(|_| b.node(mapzero_dfg::Opcode::Const)).collect();
        let sink = b.node(mapzero_dfg::Opcode::Add);
        for p in parents {
            b.edge(p, sink).unwrap();
        }
        let dfg = b.finish().unwrap();
        let cgra = presets::simple_mesh(3, 3);
        let mut mapper = ExactMapper::new(ExactConfig { max_extra_ii: 0, ..Default::default() });
        let report = mapper.map(&dfg, &cgra, Duration::from_secs(30)).unwrap();
        // At II=1 all six nodes share one slice; the sink needs five
        // simultaneously-adjacent live registers — a corner/edge PE
        // cannot host it, and with 4-neighbour links only 4 distinct
        // neighbour registers exist. Mapping must fail, without timeout.
        assert!(report.mapping.is_none());
        assert!(!report.timed_out);
        assert!(report.backtracks > 0);
    }

    #[test]
    fn times_out_on_large_kernel_with_tiny_budget() {
        let dfg = suite::by_name("arf").unwrap();
        let cgra = presets::hrea();
        let mut mapper = ExactMapper::default();
        let report = mapper.map(&dfg, &cgra, Duration::from_millis(50)).unwrap();
        assert!(report.timed_out || report.mapping.is_some());
    }
}
