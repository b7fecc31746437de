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
use mapzero_core::search::{self, Attempt, IiBounds, Ranked};
use mapzero_core::supervise::Budget;
use mapzero_arch::Cgra;
use mapzero_dfg::Dfg;

/// The exact branch-and-bound mapper.
#[derive(Debug, Clone, Default)]
pub struct ExactMapper;

/// One II of the exact search: the live candidates of every state in
/// pure distance order, closest first, with no backtrack limit.
fn attempt(problem: &Problem<'_>, budget: &Budget) -> Attempt {
    search::depth_first(problem, budget, u64::MAX, |env, _| Ranked::Next {
        candidates: search::systematic(env),
        data: (),
    })
    .attempt
}

impl Mapper for ExactMapper {
    fn name(&self) -> &str {
        "ILP"
    }

    fn map(
        &mut self,
        dfg: &Dfg,
        cgra: &Cgra,
        budget: &Budget,
        window: IiBounds,
    ) -> Result<MapReport, MapError> {
        search::map_climbing("ILP", dfg, cgra, budget, window, attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapzero_core::search::IiSearch;
    use mapzero_core::validate::check_mapping;
    use mapzero_arch::presets;
    use mapzero_dfg::suite;
    use std::time::Duration;

    #[test]
    fn maps_small_kernels_optimally() {
        let cgra = presets::hrea();
        let mut mapper = ExactMapper;
        for dfg in suite::small() {
            let budget = Budget::with_deadline(Duration::from_secs(60));
            let report = mapper.map(&dfg, &cgra, &budget, IiBounds::default()).unwrap();
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
        let mut mapper = ExactMapper;
        let budget = Budget::with_deadline(Duration::from_secs(60));
        let report = mapper.map(&dfg, &cgra, &budget, IiBounds::default()).unwrap();
        let mapping = report.mapping.expect("mac maps on HyCube");
        assert_eq!(check_mapping(&dfg, &cgra, &mapping, mapping.ii), Ok(()));
        assert_eq!(mapping.ii, report.mii);
    }

    #[test]
    fn proves_infeasibility_by_exhaustion() {
        // A node with 5 parents at the next cycle on a 4-neighbour 3x3
        // mesh. At II=1 all six nodes share one slice; the sink needs
        // five simultaneously-adjacent live registers — a corner/edge PE
        // cannot host it, and with 4-neighbour links only 4 distinct
        // neighbour registers exist. The search must exhaust II=1 (not
        // stop on the clock) and map at II=2.
        let dfg = crate::fanin5();
        let cgra = presets::simple_mesh(3, 3);
        let budget = Budget::with_deadline(Duration::from_secs(30));
        let report = ExactMapper.map(&dfg, &cgra, &budget, IiBounds::default()).unwrap();
        assert_eq!(report.mii, 1);
        let mapping = report.mapping.expect("maps at II 2");
        assert_eq!(mapping.ii, 2);
        assert_eq!(check_mapping(&dfg, &cgra, &mapping, mapping.ii), Ok(()));
        assert!(!report.timed_out, "II=1 was exhausted, not cut by the clock");
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
        let search = IiSearch::new(&dfg, &cgra, 1, IiBounds::default()).unwrap();
        let budget = Budget::with_deadline(Duration::from_secs(1));
        let climb = search
            .climb(std::convert::identity, 1, &budget, |problem, slice| Ok(attempt(problem, slice)))
            .unwrap();
        let report = search.report(climb, "ILP", "ILP", &budget).unwrap();
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
        let budget = Budget::with_deadline(Duration::from_millis(50));
        match ExactMapper.map(&dfg, &cgra, &budget, IiBounds::default()) {
            Ok(report) => assert!(report.mapping.is_some(), "{report:?}"),
            Err(MapError::Timeout { best_partial }) => assert!(best_partial.explored > 0),
            Err(e) => panic!("expected a mapping or a Timeout, got {e}"),
        }
    }
}
