//! Routing over the modulo routing resource graph.
//!
//! Two timing models, matching §3.3:
//!
//! * **Registered neighbour routing** (mesh-class fabrics): a value
//!   advances at most one link per cycle and parks in a PE output
//!   register each cycle. Placement and routing are coupled; the router
//!   runs a 0/1-cost Dijkstra over `(PE, cycle)` states, where reusing a
//!   register already claimed by the same signal is free.
//! * **Circuit-switched crossbar** (HyCube): a value can traverse many
//!   switches within one cycle boundary ("clockless repeaters", §3.2.2).
//!   The router picks a departure cycle, holds the value in the
//!   producer register until then, BFS-routes through free switches at
//!   the boundary, and parks it in the consumer register until the
//!   consumption cycle.
//!
//! Values of the same signal (producer node) share resources, so a
//! multi-fan-out net is routed as a tree. Lifetimes longer than II rely
//! on rotating registers (the DRESC convention).
//!
//! The router runs on every environment step, so it allocates nothing
//! in steady state: the search state lives in a per-thread `Scratch`
//! whose entries are invalidated by a generation stamp, and the hops
//! are written straight into the caller's buffer.

use crate::ledger::Ledger;
use crate::mapping::{Placement, RouteHop};
use mapzero_arch::{Cgra, PeId, RoutingStyle};
use mapzero_dfg::NodeId;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Route the value of `src` (placed at `from`) to `dst` (placed at `to`)
/// whose consumption deadline is `to.time + dist * ii`.
///
/// On success the route's resources are claimed in `ledger`, its hops
/// are appended to `hops` in traversal order, and the number of *new*
/// resources claimed is returned (shared hops cost nothing): the
/// routing-penalty contribution of the route. On failure `ledger` and
/// `hops` are left as they were and `None` is returned. A deadline at
/// or before the producer's issue cycle (an inverted pair, which no
/// valid modulo schedule builds) has no route.
///
/// The search state is a per-thread scratch reused across calls, so
/// the answer depends only on the arguments, never on earlier queries.
pub fn route_edge(
    cgra: &Cgra,
    ledger: &mut Ledger,
    src: NodeId,
    from: Placement,
    to: Placement,
    dist: u32,
    hops: &mut Vec<RouteHop>,
) -> Option<usize> {
    // Chaos-testing hook: tests arm this failpoint (e.g. a countdown
    // panic) to prove the supervisor contains faults from deep inside
    // the mapper.
    crate::failpoint!("route.pre");
    let _phase = mapzero_obs::phase::phase_guard(mapzero_obs::Phase::Route);
    let deadline = dist
        .checked_mul(ledger.ii())
        .and_then(|d| to.time.checked_add(d))
        .filter(|&d| d > from.time);
    let result = deadline.and_then(|deadline| {
        SCRATCH.with_borrow_mut(|scratch| match cgra.style() {
            RoutingStyle::NeighborRegister => route_registered(
                cgra, ledger, src, from.pe, from.time, to.pe, deadline, hops, scratch,
            ),
            RoutingStyle::CircuitSwitched => route_circuit_switched(
                cgra, ledger, src, from.pe, from.time, to.pe, deadline, hops, scratch,
            ),
        })
    });
    match result {
        Some(_) => mapzero_obs::counter!("route.routed"),
        None => mapzero_obs::counter!("route.conflicts"),
    }
    result
}

/// The router's search state, kept per thread and reused by every
/// query. An entry is live only while its stamp equals the current
/// generation, so a query starts by bumping the generation instead of
/// refilling; the vectors grow to the largest query seen and never
/// shrink.
#[derive(Debug, Default)]
struct Scratch {
    generation: u32,
    /// Registered routing, per `(step, pe)` state: stamp, best cost and
    /// predecessor state.
    stamp: Vec<u32>,
    best: Vec<u32>,
    prev: Vec<u32>,
    /// Dijkstra frontier, popped in ascending `(cost, state)` order.
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// Crossbar BFS, per PE: stamp (seen) and predecessor; and the FIFO
    /// queue of PEs.
    pe_stamp: Vec<u32>,
    pe_prev: Vec<u32>,
    queue: Vec<u32>,
}

impl Scratch {
    /// Start a search over `states` registered-routing states or the
    /// `pes` PEs of a crossbar: grow the arrays if needed and bump the
    /// generation, which makes every entry stale at once.
    fn begin(&mut self, states: usize, pes: usize) -> u32 {
        for (v, n) in [
            (&mut self.stamp, states),
            (&mut self.best, states),
            (&mut self.prev, states),
            (&mut self.pe_stamp, pes),
            (&mut self.pe_prev, pes),
        ] {
            if v.len() < n {
                v.reserve_exact(n - v.len());
                v.resize(n, 0);
            }
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: a stamp left from 2^32 queries ago would read as
            // live, so clear them all once.
            self.stamp.fill(0);
            self.pe_stamp.fill(0);
            self.generation = 1;
        }
        self.generation
    }
}

/// Dijkstra over `(pe, cycle)` states for registered neighbour routing.
#[allow(clippy::too_many_arguments)]
fn route_registered(
    cgra: &Cgra,
    ledger: &mut Ledger,
    signal: NodeId,
    from: PeId,
    t_start: u32,
    to: PeId,
    deadline: u32,
    hops: &mut Vec<RouteHop>,
    scratch: &mut Scratch,
) -> Option<usize> {
    let ii = ledger.ii();
    let pes = cgra.pe_count();
    // Steps available (at least one), and the states: index
    // `(step - 1) * pes + pe` for steps `1..=horizon`. States are heap
    // entries, so their count must fit the u32 index.
    let horizon = (deadline - t_start) as usize;
    let nstates = horizon.checked_mul(pes).filter(|&n| u32::try_from(n).is_ok())?;
    let generation = scratch.begin(nstates, 0);
    let Scratch { stamp, best, prev, heap, .. } = scratch;
    heap.clear();

    // First hop: the value lands in the producer's own output register
    // one cycle after issue; consumers later read it over a link.
    let slot = (t_start + 1) % ii;
    if ledger.reg_available(from, slot, signal) {
        let s = from.index();
        let cost = u32::from(ledger.reg(from, slot).is_none());
        stamp[s] = generation;
        best[s] = cost;
        heap.push(Reverse((cost, s as u32)));
    }

    let mut goal: Option<usize> = None;
    while let Some(Reverse((cost, s))) = heap.pop() {
        // Every pushed state was stamped in this generation.
        let s = s as usize;
        if cost > best[s] {
            continue;
        }
        let step = s / pes + 1;
        let pe = PeId((s % pes) as u32);
        let tau = t_start + step as u32;
        if tau == deadline {
            // The consumer reads from its own or a neighbour's register.
            if pe == to || cgra.links_from(pe).contains(&to) {
                goal = Some(s);
                break;
            }
            continue;
        }
        let next_slot = (tau + 1) % ii;
        for &next in std::iter::once(&pe).chain(cgra.links_from(pe)) {
            if !ledger.reg_available(next, next_slot, signal) {
                continue;
            }
            let ncost = cost + u32::from(ledger.reg(next, next_slot).is_none());
            // `step < horizon` here (tau < deadline), so `ns` is a state.
            let ns = step * pes + next.index();
            if stamp[ns] != generation || ncost < best[ns] {
                stamp[ns] = generation;
                best[ns] = ncost;
                prev[ns] = s as u32;
                heap.push(Reverse((ncost, ns as u32)));
            }
        }
    }

    // The goal sits at the last step, so the route has exactly `horizon`
    // hops: write them back to front along the predecessors, then claim
    // them front to back.
    let mut s = goal?;
    let start = hops.len();
    hops.resize(start + horizon, RouteHop::Register { pe: from, slot });
    for (step, hop) in hops[start..].iter_mut().enumerate().rev() {
        debug_assert_eq!(s / pes, step, "one predecessor per step");
        let pe = PeId((s % pes) as u32);
        *hop = RouteHop::Register { pe, slot: (t_start + step as u32 + 1) % ii };
        s = prev[s] as usize;
    }
    claim_hops(ledger, signal, hops, start)
}

/// Circuit-switched routing: pick a departure cycle, cross the crossbar
/// in one boundary, wait at the destination.
#[allow(clippy::too_many_arguments)]
fn route_circuit_switched(
    cgra: &Cgra,
    ledger: &mut Ledger,
    signal: NodeId,
    from: PeId,
    t_start: u32,
    to: PeId,
    deadline: u32,
    hops: &mut Vec<RouteHop>,
    scratch: &mut Scratch,
) -> Option<usize> {
    let ii = ledger.ii();
    let base = hops.len();
    if from == to {
        // Same-PE transfer: the value stays in the producer's register.
        hops.extend(
            (t_start + 1..deadline).map(|tau| RouteHop::Register { pe: from, slot: tau % ii }),
        );
        return claim_hops(ledger, signal, hops, base);
    }
    // The cheapest departure so far occupies `hops[base..]` as
    // `(cost, len)`; each candidate is written after it and moved down
    // when it is strictly cheaper, so ties keep the earliest departure.
    let mut best: Option<(usize, usize)> = None;
    for t_dep in t_start..deadline {
        let cand = base + best.map_or(0, |(_, len)| len);
        match try_departure(cgra, ledger, signal, from, t_start, to, deadline, t_dep, hops, scratch)
        {
            Some(cost) if best.is_none_or(|(c, _)| cost < c) => {
                let len = hops.len() - cand;
                hops.copy_within(cand.., base);
                hops.truncate(base + len);
                best = Some((cost, len));
                if cost == 0 {
                    break;
                }
            }
            _ => hops.truncate(cand),
        }
    }
    best?;
    claim_hops(ledger, signal, hops, base)
}

/// Append the hops of one departure cycle without claiming anything.
/// Returns the new-resource cost on success; on failure the hops
/// written so far are left for the caller to truncate.
#[allow(clippy::too_many_arguments)]
fn try_departure(
    cgra: &Cgra,
    ledger: &Ledger,
    signal: NodeId,
    from: PeId,
    t_start: u32,
    to: PeId,
    deadline: u32,
    t_dep: u32,
    hops: &mut Vec<RouteHop>,
    scratch: &mut Scratch,
) -> Option<usize> {
    let ii = ledger.ii();
    let arrival = t_dep + 1;
    debug_assert!(arrival <= deadline);
    let mut cost = 0usize;
    // Hold at the producer until departure.
    for tau in t_start + 1..=t_dep {
        let slot = tau % ii;
        if !ledger.reg_available(from, slot, signal) {
            return None;
        }
        cost += usize::from(ledger.reg(from, slot).is_none());
        hops.push(RouteHop::Register { pe: from, slot });
    }
    // Cross the crossbar at the boundary entering `arrival`.
    let slot = arrival % ii;
    cost += crossbar_bfs(cgra, ledger, signal, from, to, slot, hops, scratch)?;
    // Wait at the consumer until the consumption cycle.
    if arrival < deadline {
        for tau in arrival..=deadline {
            let slot = tau % ii;
            if !ledger.reg_available(to, slot, signal) {
                return None;
            }
            cost += usize::from(ledger.reg(to, slot).is_none());
            hops.push(RouteHop::Register { pe: to, slot });
        }
    }
    Some(cost)
}

/// BFS through the crossbar grid at one boundary slot: appends to `hops`
/// a switch hop for each intermediate PE (endpoints excluded) of a
/// shortest path whose switches are available to `signal`, and returns
/// how many of those switches are free. Returns `None`, appending
/// nothing, when no such path exists.
#[allow(clippy::too_many_arguments)]
fn crossbar_bfs(
    cgra: &Cgra,
    ledger: &Ledger,
    signal: NodeId,
    from: PeId,
    to: PeId,
    slot: u32,
    hops: &mut Vec<RouteHop>,
    scratch: &mut Scratch,
) -> Option<usize> {
    if cgra.links_from(from).contains(&to) {
        return Some(0);
    }
    let generation = scratch.begin(0, cgra.pe_count());
    let Scratch { pe_stamp: seen, pe_prev: prev, queue, .. } = scratch;
    queue.clear();
    seen[from.index()] = generation;
    queue.push(from.0);
    let mut head = 0;
    while let Some(&x) = queue.get(head) {
        head += 1;
        let x = PeId(x);
        for &y in cgra.links_from(x) {
            if seen[y.index()] == generation {
                continue;
            }
            if y == to {
                // Every enqueued PE recorded its predecessor before
                // insertion, so the walk back reaches `from`.
                let start = hops.len();
                let mut free = 0;
                let mut cur = x;
                while cur != from {
                    free += usize::from(ledger.switch(cur, slot).is_none());
                    hops.push(RouteHop::Switch { pe: cur, slot });
                    cur = PeId(prev[cur.index()]);
                }
                hops[start..].reverse();
                return Some(free);
            }
            // Intermediate hop: the switch must be usable.
            if ledger.switch_available(y, slot, signal) {
                seen[y.index()] = generation;
                prev[y.index()] = x.0;
                queue.push(y.0);
            }
        }
    }
    None
}

/// Claim `hops[start..]` for `signal`, in order, and return the number
/// of newly claimed resources. On a conflict every claim is released,
/// the hops are dropped and `None` is returned.
fn claim_hops(
    ledger: &mut Ledger,
    signal: NodeId,
    hops: &mut Vec<RouteHop>,
    start: usize,
) -> Option<usize> {
    let cp = ledger.checkpoint();
    let mut cost = 0;
    let conflict = hops[start..].iter().any(|&hop| {
        let (was_free, ok) = match hop {
            RouteHop::Register { pe, slot } => {
                (ledger.reg(pe, slot).is_none(), ledger.claim_reg(pe, slot, signal))
            }
            RouteHop::Switch { pe, slot } => {
                (ledger.switch(pe, slot).is_none(), ledger.claim_switch(pe, slot, signal))
            }
        };
        cost += usize::from(ok && was_free);
        !ok
    });
    if conflict {
        ledger.undo_to(cp);
        hops.truncate(start);
        return None;
    }
    Some(cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapzero_arch::presets;

    fn place(pe: u32, time: u32) -> Placement {
        Placement { pe: PeId(pe), time }
    }

    /// Route into a fresh hop buffer: `(hops, cost)` on success.
    fn route(
        cgra: &Cgra,
        ledger: &mut Ledger,
        src: NodeId,
        from: Placement,
        to: Placement,
        dist: u32,
    ) -> Option<(Vec<RouteHop>, usize)> {
        let mut hops = Vec::new();
        route_edge(cgra, ledger, src, from, to, dist, &mut hops).map(|cost| (hops, cost))
    }

    #[test]
    fn inverted_or_overflowing_deadlines_have_no_route() {
        // Consumer deadlines at or before the producer's issue cycle, and
        // one that overflows u32, on both routing styles: `None`, with
        // the hop buffer, the ledger and the scratch untouched.
        for cgra in [presets::simple_mesh(4, 4), presets::hycube()] {
            let mut ledger = Ledger::new(&cgra, 2);
            assert!(ledger.claim_reg(PeId(3), 1, NodeId(7)));
            let cp = ledger.checkpoint();
            let sizes = || SCRATCH.with_borrow(|s| (s.stamp.len(), s.pe_stamp.len()));
            let before = sizes();
            for (from, to, dist) in [
                (place(5, 9), place(6, 2), 0),
                (place(5, 9), place(5, 9), 0),
                (place(5, 9), place(6, 3), 3),
                (place(5, 0), place(6, 1), u32::MAX),
            ] {
                let mut hops = vec![RouteHop::Register { pe: PeId(1), slot: 0 }];
                let got = route_edge(&cgra, &mut ledger, NodeId(0), from, to, dist, &mut hops);
                assert_eq!(got, None, "{from:?} -> {to:?} dist {dist}");
                assert_eq!(hops, [RouteHop::Register { pe: PeId(1), slot: 0 }]);
                assert_eq!(ledger.checkpoint(), cp, "no claim left behind");
            }
            assert_eq!(sizes(), before, "no scratch grown for a routeless query");
            assert_eq!(ledger.reg(PeId(3), 1), Some(NodeId(7)));
        }
    }

    mod registered {
        use super::*;

        #[test]
        fn adjacent_single_cycle() {
            let cgra = presets::simple_mesh(2, 2);
            let mut ledger = Ledger::new(&cgra, 1);
            let (hops, cost) =
                route(&cgra, &mut ledger, NodeId(0), place(0, 0), place(1, 1), 0).unwrap();
            // One register: the producer's output read by the neighbour.
            assert_eq!(hops.len(), 1);
            assert_eq!(cost, 1);
        }

        #[test]
        fn multi_hop_needs_cycles() {
            // 3x3 mesh, corner to corner is 4 hops; consumer at t=2 can
            // only be reached if it is <= 2 hops away.
            let cgra = presets::simple_mesh(3, 3);
            let mut ledger = Ledger::new(&cgra, 8);
            // pe0 -> pe8 with deadline 2 cycles: impossible.
            assert!(route(&cgra, &mut ledger, NodeId(0), place(0, 0), place(8, 2), 0).is_none());
            // With 4 cycles of slack it works.
            let (hops, _) =
                route(&cgra, &mut ledger, NodeId(0), place(0, 0), place(8, 4), 0).unwrap();
            assert!(!hops.is_empty());
        }

        #[test]
        fn fanout_shares_resources() {
            let cgra = presets::simple_mesh(2, 2);
            let mut ledger = Ledger::new(&cgra, 2);
            let (_, a) = route(&cgra, &mut ledger, NodeId(0), place(0, 0), place(1, 1), 0).unwrap();
            // Second consumer of the same signal at the same cycle: the
            // producer register is shared, cost 0.
            let (_, b) = route(&cgra, &mut ledger, NodeId(0), place(0, 0), place(2, 1), 0).unwrap();
            assert_eq!(a, 1);
            assert_eq!(b, 0, "fan-out must share the producer register");
        }

        #[test]
        fn conflicting_signals_blocked() {
            let cgra = presets::simple_mesh(1, 3);
            let mut ledger = Ledger::new(&cgra, 1);
            // Signal A holds pe1's register at slot 0 (the only slot).
            assert!(ledger.claim_reg(PeId(1), 0, NodeId(42)));
            // pe0 -> pe2 must pass through pe1's register at II=1 and a
            // 2-cycle deadline; blocked by signal 42. Direct neighbour
            // read also impossible (pe0 is not adjacent to pe2).
            let got = route(&cgra, &mut ledger, NodeId(0), place(0, 0), place(2, 2), 0);
            assert!(got.is_none());
        }

        #[test]
        fn failed_route_leaves_no_claims() {
            let cgra = presets::simple_mesh(1, 3);
            let mut ledger = Ledger::new(&cgra, 1);
            assert!(ledger.claim_reg(PeId(1), 0, NodeId(42)));
            let cp = ledger.checkpoint();
            let _ = route(&cgra, &mut ledger, NodeId(0), place(0, 0), place(2, 2), 0);
            // Checkpoint still valid == nothing appended.
            ledger.undo_to(cp);
            assert_eq!(ledger.reg(PeId(1), 0), Some(NodeId(42)));
        }

        #[test]
        fn self_cycle_routes_in_place() {
            let cgra = presets::simple_mesh(2, 2);
            let mut ledger = Ledger::new(&cgra, 1);
            // u -> u with dist 1 at II=1: deadline = t+1.
            let (hops, _) =
                route(&cgra, &mut ledger, NodeId(3), place(0, 5), place(0, 5), 1).unwrap();
            assert_eq!(hops.len(), 1);
        }

        #[test]
        fn waiting_in_place_allowed() {
            let cgra = presets::simple_mesh(2, 2);
            let mut ledger = Ledger::new(&cgra, 4);
            // Producer at t=0, consumer 3 cycles later on a neighbour.
            let (hops, _) =
                route(&cgra, &mut ledger, NodeId(0), place(0, 0), place(1, 3), 0).unwrap();
            assert_eq!(hops.len(), 3, "value parks for three cycles");
        }
    }

    mod circuit_switched {
        use super::*;

        #[test]
        fn long_distance_single_cycle() {
            // HyCube: corner to corner within one cycle.
            let cgra = presets::hycube();
            let mut ledger = Ledger::new(&cgra, 1);
            let (hops, _) =
                route(&cgra, &mut ledger, NodeId(0), place(0, 0), place(15, 1), 0).unwrap();
            // Only switches, no waiting registers.
            assert!(hops.iter().all(|h| matches!(h, RouteHop::Switch { .. })));
            assert!(!hops.is_empty());
        }

        #[test]
        fn adjacent_uses_no_switches() {
            let cgra = presets::hycube();
            let mut ledger = Ledger::new(&cgra, 1);
            let (hops, cost) =
                route(&cgra, &mut ledger, NodeId(0), place(0, 0), place(1, 1), 0).unwrap();
            assert!(hops.is_empty());
            assert_eq!(cost, 0);
        }

        #[test]
        fn waiting_claims_registers() {
            let cgra = presets::hycube();
            let mut ledger = Ledger::new(&cgra, 4);
            let (hops, _) =
                route(&cgra, &mut ledger, NodeId(0), place(0, 0), place(1, 3), 0).unwrap();
            assert!(hops.iter().any(|h| matches!(h, RouteHop::Register { .. })));
        }

        #[test]
        fn switch_congestion_forces_detour_or_failure() {
            let cgra = presets::hycube();
            let mut ledger = Ledger::new(&cgra, 1);
            // Block the entire second column's switches with another
            // signal at the only slot.
            for row in 0..4 {
                assert!(ledger.claim_switch(cgra.at(row, 1), 0, NodeId(99)));
            }
            // pe(0,0) -> pe(0,2) must cross column 1; all switches are
            // blocked, so either it routes around... but column 1 is a
            // full wall on a 4x4 mesh. It must fail.
            let got = route(
                &cgra,
                &mut ledger,
                NodeId(0),
                place(0, 0),
                Placement { pe: cgra.at(0, 2), time: 1 },
                0,
            );
            assert!(got.is_none());
        }

        #[test]
        fn same_pe_transfer() {
            let cgra = presets::hycube();
            let mut ledger = Ledger::new(&cgra, 4);
            let (hops, _) =
                route(&cgra, &mut ledger, NodeId(1), place(5, 0), place(5, 2), 0).unwrap();
            assert_eq!(hops.len(), 1); // parks one intermediate cycle
        }

        #[test]
        fn same_pe_back_to_back_needs_no_resources() {
            // Consumer on the same PE one cycle later: direct register
            // feedback, zero claims.
            let cgra = presets::hycube();
            let mut ledger = Ledger::new(&cgra, 2);
            let (hops, cost) =
                route(&cgra, &mut ledger, NodeId(1), place(5, 0), place(5, 1), 0).unwrap();
            assert!(hops.is_empty());
            assert_eq!(cost, 0);
        }

        #[test]
        fn back_edge_wraps_across_iterations() {
            // Self-cycle at II = 2: producer at t=1, consumer at t=1 of
            // the next iteration (deadline t=3).
            let cgra = presets::hycube();
            let mut ledger = Ledger::new(&cgra, 2);
            let (hops, _) =
                route(&cgra, &mut ledger, NodeId(0), place(3, 1), place(3, 1), 1).unwrap();
            assert!(!hops.is_empty());
            for hop in &hops {
                let RouteHop::Register { pe, .. } = hop else {
                    panic!("self route stays in registers");
                };
                assert_eq!(*pe, PeId(3));
            }
        }

        #[test]
        fn crossbar_fanout_shares_switches() {
            // Two consumers behind the same first hop: the shared switch
            // is claimed once.
            let cgra = presets::hycube();
            let mut ledger = Ledger::new(&cgra, 1);
            // pe(0,0) -> pe(0,2): crosses the switch at (0,1).
            let (_, a) = route(
                &cgra,
                &mut ledger,
                NodeId(0),
                place(0, 0),
                Placement { pe: cgra.at(0, 2), time: 1 },
                0,
            )
            .unwrap();
            // pe(0,0) -> pe(0,3): reuses (0,1) and claims (0,2).
            let (_, b) = route(
                &cgra,
                &mut ledger,
                NodeId(0),
                place(0, 0),
                Placement { pe: cgra.at(0, 3), time: 1 },
                0,
            )
            .unwrap();
            assert_eq!(a, 1);
            assert!(b <= 2, "shared prefix must cap the cost, got {b}");
        }
    }
}
