//! The one depth-first search over placements.
//!
//! Both engines that backtrack run this loop: the agent (§3.6.2: "once
//! the PE assignment for a node is found to yield an undesirable
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

use crate::env::MapEnv;
use crate::mapping::Mapping;
use crate::problem::Problem;
use crate::supervise::Budget;
use mapzero_arch::PeId;

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

/// Result of one depth-first search.
#[derive(Debug, Clone)]
pub struct Walk<T> {
    /// The mapping, when the search found one.
    pub mapping: Option<Mapping>,
    /// Placements undone: failed steps plus exhausted frames left.
    pub backtracks: u64,
    /// Placements made, undone ones included.
    pub steps: u64,
    /// Cumulative environment reward of the final state.
    pub total_reward: f64,
    /// True when the search stopped on the budget.
    pub timed_out: bool,
    /// Most nodes simultaneously placed at any point.
    pub peak_placed: usize,
    /// DFG edges routed in the final state (all of them on success).
    pub routed_edges: u64,
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
    let dist = env.neighbour_distance();
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
                        mapping: Some(mapping),
                        backtracks,
                        steps,
                        total_reward: env.total_reward(),
                        timed_out: false,
                        peak_placed: problem.node_count(),
                        routed_edges: problem.dfg().edge_count() as u64,
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
        mapping: env.final_mapping(),
        backtracks,
        steps,
        total_reward: env.total_reward(),
        timed_out,
        peak_placed,
        routed_edges: env.routed_edge_count(),
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
