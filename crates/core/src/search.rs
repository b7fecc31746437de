//! The one depth-first search over placements, and the one II search
//! around every engine.
//!
//! Both engines that backtrack run [`depth_first`]: the agent (§3.6.2:
//! "once the PE assignment for a node is found to yield an undesirable
//! reward, we unmap it and allow the agent to perform a different
//! action") and the exact mapper, the "systematic backtracking
//! algorithm" of §1. They differ only in how a state's candidates are
//! ranked, which the caller supplies as a hook.
//!
//! The search keeps an explicit stack of frames, one per depth. A frame
//! is built the first time its state is visited, after the budget
//! check, from the hook's ranking; every later visit of that state (the
//! step tried there failed, or the subtree below it was exhausted) is
//! one `pop()` of the next candidate.
//!
//! Every engine climbs II through [`IiSearch`] (§4.2: "start with MII
//! and gradually increase the target II if mapping fails").

use crate::env::MapEnv;
use crate::mapping::{MapError, MapReport, Mapping, PartialMapStats};
use crate::problem::Problem;
use crate::supervise::Budget;
use mapzero_arch::{Cgra, PeId};
use mapzero_dfg::Dfg;
use std::time::Instant;

/// A ranking hook's verdict on a newly visited state.
pub enum Ranked<T> {
    /// A complete mapping was found from this state (the MCTS early
    /// exit of §3.5); the search stops and returns it.
    Solved(Mapping),
    /// The state's candidates, ordered so that `pop()` yields the
    /// action to try first (see [`rank`]), plus whatever the caller
    /// keeps per frame. No candidates sends the search back up.
    Next {
        /// Candidate PEs, best last.
        candidates: Vec<PeId>,
        /// The caller's per-frame data.
        data: T,
    },
}

/// One placement on the final search path.
#[derive(Debug, Clone)]
pub struct PathStep<T> {
    /// The data the ranking hook returned for the state the step left.
    pub data: T,
    /// The PE the step placed the node on.
    pub action: PeId,
    /// The environment reward of the step.
    pub reward: f64,
}

/// Result of one depth-first search: one [`Attempt`] at the problem's
/// II, whose `backtracks` are the placements undone (failed steps plus
/// exhausted frames left) and `explored` the placements made.
#[derive(Debug, Clone)]
pub struct Walk<T> {
    /// What the search found and did.
    pub attempt: Attempt,
    /// Cumulative environment reward of the final state.
    pub total_reward: f64,
    /// The placements of the final state, one per depth, root first.
    pub path: Vec<PathStep<T>>,
}

struct Frame<T> {
    candidates: Vec<PeId>,
    data: T,
    /// The action and reward of the step this frame last kept.
    kept: Option<(PeId, f64)>,
}

/// Order `candidates` for a frame: `pop()` yields the highest score,
/// ties going to the smallest grid distance to the current node's
/// placed neighbours, then to the highest PE id. With flat scores this
/// is the exact mapper's distance order, so a policy that cannot tell
/// candidates apart degrades into systematic search. NaN scores order
/// by [`f32::total_cmp`] instead of panicking.
pub fn rank(env: &MapEnv<'_>, candidates: Vec<PeId>, score: impl Fn(PeId) -> f32) -> Vec<PeId> {
    let mut anchors = Vec::new();
    let dist = env.neighbour_distance(&mut anchors);
    let mut keyed: Vec<(f32, usize, PeId)> =
        candidates.into_iter().map(|pe| (score(pe), dist(pe), pe)).collect();
    keyed.sort_unstable_by(|a, b| {
        a.0.total_cmp(&b.0).then_with(|| b.1.cmp(&a.1)).then_with(|| a.2.cmp(&b.2))
    });
    keyed.into_iter().map(|(_, _, pe)| pe).collect()
}

/// The systematic ranking of a state: no candidates when it is doomed
/// (counted as `search.prune.dead_state`), and otherwise its live legal
/// actions ([`MapEnv::search_actions`]) in the flat-score distance order
/// of [`rank`]. The exact mapper ranks every state with it, and the
/// agent every state of its cheap mode.
pub fn systematic(env: &MapEnv<'_>) -> Vec<PeId> {
    if env.doomed() {
        // Forward checking proved no conflict-free completion exists
        // here; force a backtrack instead of searching the subtree.
        mapzero_obs::counter!("search.prune.dead_state");
        return Vec::new();
    }
    rank(env, env.search_actions(), |_| 0.0)
}

/// Search `problem` depth-first in its placement order.
///
/// Each iteration polls `budget`, builds the current depth's frame with
/// `rank_state(env, backtracks)` if it is new, and pops its next
/// candidate. A step whose routes fail is undone while fewer than
/// `backtrack_budget` backtracks were spent, and kept afterwards; an
/// exhausted frame unwinds to its parent under the same allowance, and
/// otherwise (or at the root) ends the search.
pub fn depth_first<T>(
    problem: &Problem<'_>,
    budget: &Budget,
    backtrack_budget: u64,
    mut rank_state: impl FnMut(&MapEnv<'_>, u64) -> Ranked<T>,
) -> Walk<T> {
    let mut env = MapEnv::new(problem);
    let mut frames: Vec<Frame<T>> = Vec::with_capacity(problem.node_count());
    let mut backtracks = 0u64;
    let mut steps = 0u64;
    let mut timed_out = false;
    let mut peak_placed = 0usize;

    while !env.done() {
        if budget.exhausted() {
            timed_out = true;
            break;
        }
        let depth = env.placed_count();
        if frames.len() == depth {
            match rank_state(&env, backtracks) {
                Ranked::Solved(mapping) => {
                    return Walk {
                        attempt: Attempt {
                            mapping: Some(mapping),
                            backtracks,
                            explored: steps,
                            peak_placed: problem.node_count(),
                            routed_edges: problem.dfg().edge_count() as u64,
                            timed_out: false,
                        },
                        total_reward: env.total_reward(),
                        path: path(frames),
                    };
                }
                Ranked::Next { candidates, data } => {
                    frames.push(Frame { candidates, data, kept: None });
                }
            }
        }
        let frame = &mut frames[depth];
        let Some(action) = frame.candidates.pop() else {
            if backtracks < backtrack_budget && depth > 0 && env.undo().is_some() {
                backtracks += 1;
                frames.pop();
                continue;
            }
            break;
        };
        let outcome = env.step(action);
        steps += 1;
        peak_placed = peak_placed.max(env.placed_count());
        if outcome.failed_routes > 0 && backtracks < backtrack_budget {
            env.undo();
            backtracks += 1;
        } else {
            frame.kept = Some((action, outcome.reward));
        }
    }

    frames.truncate(env.placed_count());
    Walk {
        attempt: Attempt {
            mapping: env.final_mapping(),
            backtracks,
            explored: steps,
            peak_placed,
            routed_edges: env.routed_edge_count(),
            timed_out,
        },
        total_reward: env.total_reward(),
        path: path(frames),
    }
}

/// The kept steps of the frames below the current depth.
fn path<T>(frames: Vec<Frame<T>>) -> Vec<PathStep<T>> {
    frames
        .into_iter()
        .filter_map(|f| f.kept.map(|(action, reward)| PathStep { data: f.data, action, reward }))
        .collect()
}

/// How many IIs above MII the baselines try, and the compiler's default
/// ([`crate::MapZeroConfig::max_extra_ii`]).
pub const MAX_EXTRA_II: u32 = 4;

/// Requested II range for one [`Mapper::map`](crate::Mapper::map) call,
/// intersected with the engine's own window (`mii ..= mii +
/// max_extra_ii`): a serve request's `ii_min`/`ii_max`, or the window
/// the compiler hands its fallback ([`IiSearch::window`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IiBounds {
    /// Lowest II to try (clamped up to MII; `None` = start at MII).
    pub min: Option<u32>,
    /// Highest II to try (`None` = the engine's default ceiling).
    pub max: Option<u32>,
}

/// What one engine attempt at one II did. The annealers count annealing
/// steps as backtracks and proposals as explored, and leave the
/// progress fields at 0.
#[derive(Debug, Clone, Default)]
pub struct Attempt {
    /// The mapping, when the attempt found one.
    pub mapping: Option<Mapping>,
    /// Backtracks.
    pub backtracks: u64,
    /// Placements explored.
    pub explored: u64,
    /// Most nodes simultaneously placed.
    pub peak_placed: usize,
    /// DFG edges routed in the final state.
    pub routed_edges: u64,
    /// True when the attempt stopped on its budget slice.
    pub timed_out: bool,
}

/// The outcome of one climb.
#[derive(Debug, Clone, Default)]
pub struct Climb {
    /// The first mapping found, at the lowest II that mapped.
    pub mapping: Option<Mapping>,
    /// Work summed over attempts, peak progress and the mapped II.
    pub stats: PartialMapStats,
    /// Sticky: an attempt stopped on its slice, or the climb was cut.
    pub timed_out: bool,
    /// The budget ran out before an attempt, ending the climb.
    pub cut: bool,
}

/// One mapping call's II search over `mii ..= mii + max_extra_ii`,
/// intersected with the caller's [`IiBounds`].
#[derive(Debug, Clone, Copy)]
pub struct IiSearch<'a> {
    dfg: &'a Dfg,
    cgra: &'a Cgra,
    start: Instant,
    mii: u32,
    lo: u32,
    hi: u32,
}

impl<'a> IiSearch<'a> {
    /// The II window of `dfg` on `cgra`. The call's clock starts here.
    ///
    /// # Errors
    /// [`MapError::Unmappable`] when a required op class has no capable
    /// PE; [`MapError::NoSchedule`] when `bounds` and the window do not
    /// intersect.
    pub fn new(
        dfg: &'a Dfg,
        cgra: &'a Cgra,
        max_extra_ii: u32,
        bounds: IiBounds,
    ) -> Result<Self, MapError> {
        let start = Instant::now();
        let mii = Problem::mii(dfg, cgra)?;
        let lo = mii.max(bounds.min.unwrap_or(mii));
        let hi = (mii + max_extra_ii).min(bounds.max.unwrap_or(u32::MAX));
        if lo > hi {
            return Err(MapError::NoSchedule(format!(
                "requested II window {:?}..={:?} excludes the feasible range {}..={}",
                bounds.min,
                bounds.max,
                mii,
                mii + max_extra_ii
            )));
        }
        Ok(IiSearch { dfg, cgra, start, mii, lo, hi })
    }

    /// The IIs this search climbs, as bounds another engine's search
    /// can be narrowed to (the compiler's fallback climbs this window).
    #[must_use]
    pub fn window(&self) -> IiBounds {
        IiBounds { min: Some(self.lo), max: Some(self.hi) }
    }

    /// Climb the window from its lowest II, giving `engine` up to
    /// `attempts` tries per II, and stop at the first mapping. An II that
    /// cannot be modulo scheduled is skipped, and an exhausted `budget`
    /// before an attempt cuts the climb. Each attempt gets an even share
    /// of what is left over the attempts left in the climb, but never
    /// less than an eighth, so an unroutable low II cannot starve the
    /// rest, and the last attempt gets all that is left.
    ///
    /// `order` sets each problem's placement order once per II:
    /// [`Problem::with_candidate_pruning`] for fail-first (the compiler)
    /// or [`std::convert::identity`] for schedule order (the baselines).
    ///
    /// # Errors
    /// [`MapError::Unmappable`] from [`Problem::new`], and any error
    /// `engine` returns (the compiler's contained panics).
    pub fn climb(
        &self,
        order: fn(Problem<'a>) -> Problem<'a>,
        attempts: usize,
        budget: &Budget,
        mut engine: impl FnMut(&Problem<'a>, &Budget) -> Result<Attempt, MapError>,
    ) -> Result<Climb, MapError> {
        let stats = PartialMapStats { total_nodes: self.dfg.node_count(), ..Default::default() };
        let mut climb = Climb { stats, ..Default::default() };
        for ii in self.lo..=self.hi {
            let problem = match Problem::new(self.dfg, self.cgra, ii) {
                Ok(p) => order(p),
                Err(MapError::NoSchedule(_)) => continue,
                Err(e) => return Err(e),
            };
            let remaining_iis = self.hi - ii + 1;
            for done in 0..attempts {
                if budget.exhausted() {
                    climb.timed_out = true;
                    climb.cut = true;
                    return Ok(climb);
                }
                // Attempts left in the climb, this one included: the
                // last one gets all that is left.
                let left_attempts = remaining_iis * attempts as u32 - done as u32;
                let slice = match budget.remaining_time() {
                    Some(left) => budget.slice((left / left_attempts).max(left / 8)),
                    None => budget.clone(),
                };
                let attempt = engine(&problem, &slice)?;
                let stats = &mut climb.stats;
                stats.backtracks += attempt.backtracks;
                stats.explored += attempt.explored;
                stats.nodes_placed = stats.nodes_placed.max(attempt.peak_placed);
                stats.routed_edges = stats.routed_edges.max(attempt.routed_edges);
                climb.timed_out |= attempt.timed_out;
                if let Some(m) = attempt.mapping {
                    stats.best_ii = Some(m.ii);
                    climb.mapping = Some(m);
                    return Ok(climb);
                }
            }
        }
        Ok(climb)
    }

    /// The outcome contract every engine shares: no mapping with the
    /// budget exhausted (the climb was cut, or `budget` has run out
    /// since) is [`MapError::Timeout`]; anything else is a report.
    ///
    /// # Errors
    /// [`MapError::Timeout`] as above.
    pub fn report(
        &self,
        climb: Climb,
        mapper: &str,
        engine: &str,
        budget: &Budget,
    ) -> Result<MapReport, MapError> {
        if climb.mapping.is_none() && (climb.cut || budget.exhausted()) {
            return Err(MapError::Timeout { best_partial: climb.stats });
        }
        Ok(MapReport {
            mapper: mapper.to_owned(),
            engine: engine.to_owned(),
            kernel: self.dfg.name().to_owned(),
            fabric: self.cgra.name().to_owned(),
            mii: self.mii,
            mapping: climb.mapping,
            elapsed: self.start.elapsed(),
            backtracks: climb.stats.backtracks,
            explored: climb.stats.explored,
            timed_out: climb.timed_out,
            telemetry: None,
        })
    }
}

/// A baseline's whole [`Mapper::map`](crate::Mapper::map): one attempt
/// per II in schedule order over `mii ..= mii + MAX_EXTRA_II`
/// intersected with `window`, under `budget`.
///
/// # Errors
/// As [`IiSearch::new`] and [`IiSearch::report`].
pub fn map_climbing(
    name: &str,
    dfg: &Dfg,
    cgra: &Cgra,
    budget: &Budget,
    window: IiBounds,
    mut engine: impl FnMut(&Problem<'_>, &Budget) -> Attempt,
) -> Result<MapReport, MapError> {
    let search = IiSearch::new(dfg, cgra, MAX_EXTRA_II, window)?;
    let climb = search.climb(std::convert::identity, 1, budget, |problem, slice| {
        Ok(engine(problem, slice))
    })?;
    search.report(climb, name, name, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapzero_arch::presets;
    use mapzero_dfg::{suite, DfgBuilder, Opcode};
    use std::time::Duration;

    fn mapping_at(ii: u32) -> Mapping {
        Mapping { ii, placements: Vec::new(), routes: Vec::new() }
    }

    /// Climb with a fake engine that returns `outcome(ii)` at once, and
    /// the II and remaining slice of every attempt it was handed.
    fn fake_climb(
        search: &IiSearch<'_>,
        attempts: usize,
        budget: &Budget,
        outcome: impl Fn(u32) -> Attempt,
    ) -> (Climb, Vec<(u32, Duration)>) {
        let mut seen = Vec::new();
        let climb = search
            .climb(std::convert::identity, attempts, budget, |problem, slice| {
                seen.push((problem.ii(), slice.remaining_time().unwrap_or(Duration::MAX)));
                Ok(outcome(problem.ii()))
            })
            .unwrap();
        (climb, seen)
    }

    fn work() -> Attempt {
        Attempt { backtracks: 2, explored: 3, ..Attempt::default() }
    }

    #[test]
    fn slices_split_what_is_left_with_an_eighth_floor() {
        let dfg = suite::by_name("sum").unwrap();
        let cgra = presets::hrea();
        let search = IiSearch::new(&dfg, &cgra, 4, IiBounds::default()).unwrap();
        let mii = Problem::mii(&dfg, &cgra).unwrap();
        let budget = Budget::with_deadline(Duration::from_secs(100));
        let (climb, seen) = fake_climb(&search, 3, &budget, |_| work());
        // By hand, with 100 s left at every attempt (the fake returns at
        // once): max(100 s / attempts left, 100 s / 8) for 15, 14, ..., 1
        // attempts left, three per II.
        let expected: Vec<(u32, f64)> = (0..15u32)
            .map(|k| (mii + k / 3, (100.0 / f64::from(15 - k)).max(12.5)))
            .collect();
        assert_eq!(seen.len(), expected.len());
        for ((ii, slice), (want_ii, want_s)) in seen.iter().zip(&expected) {
            assert_eq!(ii, want_ii);
            assert!((slice.as_secs_f64() - want_s).abs() < 0.5, "II {ii}: {slice:?} vs {want_s} s");
        }
        assert_eq!((climb.stats.backtracks, climb.stats.explored), (30, 45));
        assert!(climb.mapping.is_none() && !climb.timed_out && !climb.cut);
        let report = search.report(climb, "fake", "fake", &budget).unwrap();
        assert!(report.mapping.is_none(), "a finished climb with time left is a report");
    }

    #[test]
    fn unschedulable_iis_are_skipped() {
        // 3 -> 1 at distance 1 without a cycle: MII is 1, but node 3
        // starts two cycles after node 1, which only II >= 2 allows.
        let mut b = DfgBuilder::new("late-back-edge");
        let n: Vec<_> = (0..4).map(|_| b.node(Opcode::Add)).collect();
        b.edge(n[0], n[1]).unwrap();
        b.edge(n[0], n[2]).unwrap();
        b.edge(n[2], n[3]).unwrap();
        b.back_edge(n[3], n[1], 1).unwrap();
        let dfg = b.finish().unwrap();
        let cgra = presets::simple_mesh(2, 2);
        let search = IiSearch::new(&dfg, &cgra, 4, IiBounds::default()).unwrap();
        assert_eq!(Problem::mii(&dfg, &cgra).unwrap(), 1);
        assert!(matches!(Problem::new(&dfg, &cgra, 1), Err(MapError::NoSchedule(_))));
        let budget = Budget::with_deadline(Duration::from_secs(100));
        let (_, seen) = fake_climb(&search, 1, &budget, |_| work());
        let iis: Vec<u32> = seen.iter().map(|&(ii, _)| ii).collect();
        assert_eq!(iis, [2, 3, 4, 5]);
        // The skipped II still counts in the window: II 2 gets a quarter.
        assert!((seen[0].1.as_secs_f64() - 25.0).abs() < 0.5, "{:?}", seen[0].1);
    }

    #[test]
    fn the_first_mapping_ends_the_climb_and_timed_out_sticks() {
        let dfg = suite::by_name("sum").unwrap();
        let cgra = presets::hrea();
        let search = IiSearch::new(&dfg, &cgra, 4, IiBounds::default()).unwrap();
        let mii = Problem::mii(&dfg, &cgra).unwrap();
        let budget = Budget::with_deadline(Duration::from_secs(100));
        let (climb, seen) = fake_climb(&search, 2, &budget, |ii| match ii - mii {
            0 => Attempt { timed_out: true, peak_placed: 4, routed_edges: 5, ..work() },
            1 => Attempt { mapping: Some(mapping_at(ii)), peak_placed: 1, ..work() },
            _ => panic!("the climb went past the first mapping"),
        });
        assert_eq!(seen.iter().map(|&(ii, _)| ii).collect::<Vec<_>>(), [mii, mii, mii + 1]);
        assert_eq!(climb.mapping.as_ref().map(|m| m.ii), Some(mii + 1));
        assert_eq!(climb.stats.best_ii, Some(mii + 1));
        assert_eq!((climb.stats.nodes_placed, climb.stats.routed_edges), (4, 5));
        assert_eq!((climb.stats.backtracks, climb.stats.explored), (6, 9));
        assert!(climb.timed_out && !climb.cut);
        let report = search.report(climb, "fake", "fake", &budget).unwrap();
        assert!(report.timed_out, "a clock-cut lower II stays reported");
    }

    #[test]
    fn an_exhausted_budget_cuts_the_climb_into_a_timeout() {
        let dfg = suite::by_name("sum").unwrap();
        let cgra = presets::hrea();
        let search = IiSearch::new(&dfg, &cgra, 4, IiBounds::default()).unwrap();
        let budget = Budget::unlimited().with_expansion_cap(1);
        let climb = search
            .climb(std::convert::identity, 2, &budget, |_, slice| {
                slice.charge(1);
                Ok(work())
            })
            .unwrap();
        assert!(climb.cut && climb.timed_out);
        let err = search.report(climb, "fake", "fake", &budget).unwrap_err();
        let MapError::Timeout { best_partial } = err else { panic!("{err:?}") };
        assert_eq!((best_partial.backtracks, best_partial.explored), (2, 3));
        assert_eq!(best_partial.total_nodes, dfg.node_count());
    }
}
