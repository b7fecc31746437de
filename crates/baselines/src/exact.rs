//! Exact branch-and-bound mapper — the CGRA-ME (ILP) stand-in.
//!
//! A systematic depth-first search over placements in schedule order
//! with incremental routing: every partial placement whose newest node
//! cannot be routed is pruned immediately (the combinatorial
//! "systematic backtracking algorithm" of §1). It is the agent's
//! [`search::depth_first`] ranked by [`search::systematic`], with no
//! backtrack limit: each state offers its live candidates (the
//! problem's forward-checked candidate sets, see
//! [`mapzero_core::candidates`]) closest to the placed neighbours
//! first, and a doomed state offers none. Exact over that pruned
//! problem: the live sets and the doomed check never drop a
//! conflict-free completion (`tests/prune.rs` enumerates every
//! completion of small kernels to check it), so within the time limit
//! it finds a valid mapping at the target II under the fixed modulo
//! schedule whenever one exists, or proves there is none. Like the ILP
//! it therefore delivers optimal IIs on small kernels and times out on
//! large ones.

use mapzero_core::mapping::{MapError, MapReport, Mapper};
use mapzero_core::problem::Problem;
use mapzero_core::search::{self, Ranked};
use mapzero_core::supervise::Budget;
use mapzero_arch::Cgra;
use mapzero_dfg::Dfg;
use std::time::{Duration, Instant};

/// Configuration for the exact mapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactConfig {
    /// How many IIs above MII to try.
    pub max_extra_ii: u32,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig { max_extra_ii: 4 }
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
            // Live candidates in pure distance order, closest first,
            // with no backtrack limit.
            let walk = search::depth_first(
                &problem,
                &Budget::from_deadline_at(slice_deadline),
                u64::MAX,
                |env, _| Ranked::Next { candidates: search::systematic(env), data: () },
            );
            backtracks += walk.backtracks;
            explored += walk.steps;
            timed_out |= walk.timed_out;
            if walk.mapping.is_some() {
                mapping = walk.mapping;
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
        let mut mapper = ExactMapper::new(ExactConfig { max_extra_ii: 0 });
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
    fn a_clock_cut_lower_ii_stays_reported_when_a_higher_ii_maps() {
        // One constant feeding five adds on a 4x4 mesh: at II=1 the adds
        // need five distinct neighbours of the constant's PE in one
        // slot, which no PE has. Five const→add pairs, placed first,
        // fill the slot to all 16 PEs, so exhausting II=1 takes far
        // longer than its half of the clock. At II=2 an add can sit on
        // the constant's own PE, and the search maps at once.
        let mut b = mapzero_dfg::DfgBuilder::new("fanout5-full");
        for _ in 0..5 {
            let c = b.node(mapzero_dfg::Opcode::Const);
            let a = b.node(mapzero_dfg::Opcode::Add);
            b.edge(c, a).unwrap();
        }
        let src = b.node(mapzero_dfg::Opcode::Const);
        for _ in 0..5 {
            let a = b.node(mapzero_dfg::Opcode::Add);
            b.edge(src, a).unwrap();
        }
        let dfg = b.finish().unwrap();
        let cgra = presets::simple_mesh(4, 4);
        let mut mapper = ExactMapper::new(ExactConfig { max_extra_ii: 1 });
        let report = mapper.map(&dfg, &cgra, Duration::from_secs(1)).unwrap();
        assert_eq!(report.mii, 1);
        let mapping = report.mapping.expect("maps at II 2");
        assert_eq!(mapping.ii, 2);
        assert_eq!(check_mapping(&dfg, &cgra, &mapping, mapping.ii), Ok(()));
        assert!(report.timed_out, "the II=1 slice ended on the clock");
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
