//! Independent mapping validator: re-derives the legality of a complete
//! mapping from the architecture model alone.
//!
//! This is deliberately *not* built on the router or the [`Ledger`]
//! bookkeeping that produced the mapping — it re-checks every invariant
//! from first principles (§3.2–3.3 of the paper), so a defect in the
//! mapper's incremental state cannot certify its own output. The serve
//! layer runs [`check_mapping`] on every `mapped` response before it
//! leaves the process; a failure is downgraded to `internal` and dumped
//! to the flight recorder, never shipped to a client.
//!
//! Invariants checked:
//! 1. **Structure** — one placement per node, one route per edge, every
//!    PE id in range, every modulo slot `< II`.
//! 2. **Capability** — each opcode runs on a PE whose capability mask
//!    supports it.
//! 3. **Exclusivity** — one op per `(PE, slot)` FU slice; on ADRES-class
//!    fabrics additionally one memory op per `(row, slot)` bus slice.
//! 4. **Timing** — every edge satisfies
//!    `t(src) + latency <= t(dst) + dist * II`.
//! 5. **Route shape** — each route is a physically realizable chain for
//!    the fabric's routing style: registered fabrics advance at most one
//!    link per cycle from the producer's output register to a register
//!    the consumer can read; circuit-switched fabrics hold at the
//!    producer, cross adjacent switches within one cycle boundary, and
//!    park at the consumer until the consumption cycle.
//! 6. **Route exclusivity** — a register or switch slice is claimed by
//!    at most one signal (fan-out of the same producer shares freely).
//!
//! [`Ledger`]: crate::ledger::Ledger

use crate::mapping::{Mapping, Placement, RouteHop};
use mapzero_arch::{Cgra, PeId, RoutingStyle};
use mapzero_dfg::{Dfg, NodeId, OpClass};
use std::collections::BTreeMap;

/// Check `mapping` against the problem definition. `ii` is the II the
/// caller believes was achieved (the service passes the response II so a
/// disagreement between the report and the mapping is itself caught).
///
/// # Errors
/// Returns every violated invariant, most structural first. An empty
/// `Ok(())` means the mapping is a legal modulo-scheduled CGRA mapping.
pub fn check_mapping(
    dfg: &Dfg,
    cgra: &Cgra,
    mapping: &Mapping,
    ii: u32,
) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    if ii == 0 || mapping.ii == 0 {
        errs.push("II must be >= 1".to_string());
        return Err(errs);
    }
    if mapping.ii != ii {
        errs.push(format!("mapping II {} disagrees with reported II {ii}", mapping.ii));
        return Err(errs);
    }
    if mapping.placements.len() != dfg.node_count() {
        errs.push(format!(
            "expected {} placements, got {}",
            dfg.node_count(),
            mapping.placements.len()
        ));
        return Err(errs);
    }
    if mapping.routes.len() != dfg.edge_count() {
        errs.push(format!(
            "expected {} routes, got {}",
            dfg.edge_count(),
            mapping.routes.len()
        ));
        return Err(errs);
    }
    let pes = u32::try_from(cgra.pe_count()).unwrap_or(u32::MAX);
    // PE ids must be in range before anything dereferences them.
    for (i, p) in mapping.placements.iter().enumerate() {
        if p.pe.0 >= pes {
            errs.push(format!("node{i} placed on nonexistent {}", p.pe));
        }
    }
    for (i, route) in mapping.routes.iter().enumerate() {
        for hop in route {
            let (RouteHop::Register { pe, slot } | RouteHop::Switch { pe, slot }) = hop;
            if pe.0 >= pes {
                errs.push(format!("edge{i} route visits nonexistent {pe}"));
            }
            if *slot >= ii {
                errs.push(format!("edge{i} route slot {slot} >= II {ii}"));
            }
        }
    }
    if !errs.is_empty() {
        return Err(errs);
    }

    // Capability + FU exclusivity per (pe, modulo slot).
    let mut fu: BTreeMap<(u32, u32), NodeId> = BTreeMap::new();
    for u in dfg.node_ids() {
        let p = mapping.placements[u.index()];
        let op = dfg.node(u).opcode;
        if !cgra.pe(p.pe).capability.supports(op) {
            errs.push(format!("{u} ({op}) placed on incapable {}", p.pe));
        }
        let key = (p.pe.0, p.time % ii);
        if let Some(prev) = fu.insert(key, u) {
            errs.push(format!("{u} and {prev} share {} at slot {}", p.pe, key.1));
        }
    }
    // ADRES: one memory op per row per slot.
    if cgra.row_shared_mem_bus() {
        let mut bus: BTreeMap<(usize, u32), NodeId> = BTreeMap::new();
        for u in dfg.node_ids() {
            if dfg.node(u).opcode.class() == OpClass::Memory {
                let p = mapping.placements[u.index()];
                let key = (cgra.pe(p.pe).row, p.time % ii);
                if let Some(prev) = bus.insert(key, u) {
                    errs.push(format!(
                        "memory ops {u} and {prev} share the row-{} bus at slot {}",
                        key.0, key.1
                    ));
                }
            }
        }
    }

    // Per-edge timing + route shape + route exclusivity.
    let mut regs: BTreeMap<(u32, u32), NodeId> = BTreeMap::new();
    let mut switches: BTreeMap<(u32, u32), NodeId> = BTreeMap::new();
    for (i, e) in dfg.edges().enumerate() {
        let from = mapping.placements[e.src.index()];
        let to = mapping.placements[e.dst.index()];
        let Some(deadline) = e.dist.checked_mul(ii).and_then(|s| s.checked_add(to.time))
        else {
            errs.push(format!("edge {} -> {}: schedule time overflows", e.src, e.dst));
            continue;
        };
        let lat = dfg.node(e.src).opcode.latency();
        if from.time + lat > deadline {
            errs.push(format!(
                "edge {} -> {} violates timing ({} + {lat} > {deadline})",
                e.src, e.dst, from.time
            ));
            continue; // route shape is meaningless for an unschedulable edge
        }
        let route = &mapping.routes[i];
        let shape = match cgra.style() {
            RoutingStyle::NeighborRegister => {
                check_registered_route(cgra, from, to, deadline, ii, route)
            }
            RoutingStyle::CircuitSwitched => {
                check_circuit_route(cgra, from, to, deadline, ii, route)
            }
        };
        if let Err(why) = shape {
            errs.push(format!("edge {} -> {}: {why}", e.src, e.dst));
            continue; // don't charge claims for a malformed route
        }
        // Exclusivity: each slice belongs to one signal (the producer);
        // fan-out of the same signal shares.
        for hop in route {
            let (table, kind) = match hop {
                RouteHop::Register { .. } => (&mut regs, "register"),
                RouteHop::Switch { .. } => (&mut switches, "switch"),
            };
            let (RouteHop::Register { pe, slot } | RouteHop::Switch { pe, slot }) = hop;
            match table.insert((pe.0, *slot), e.src) {
                Some(owner) if owner != e.src => {
                    errs.push(format!(
                        "signals {} and {owner} both claim the {kind} of {pe} at slot {slot}",
                        e.src
                    ));
                }
                _ => {}
            }
        }
    }

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Registered neighbour routing: the value enters the producer's output
/// register one cycle after issue and advances at most one link per
/// cycle, so a legal route is exactly `deadline - t_src` register hops —
/// hop k parks at cycle `t_src + 1 + k` — ending in a register the
/// consumer reads directly or over one link.
fn check_registered_route(
    cgra: &Cgra,
    from: Placement,
    to: Placement,
    deadline: u32,
    ii: u32,
    route: &[RouteHop],
) -> Result<(), String> {
    let expect = (deadline - from.time) as usize;
    if route.len() != expect {
        return Err(format!("expected {expect} register hops, got {}", route.len()));
    }
    let mut prev: Option<PeId> = None;
    for (k, hop) in route.iter().enumerate() {
        let RouteHop::Register { pe, slot } = hop else {
            return Err("switch hop on a registered fabric".to_string());
        };
        let want = (from.time + 1 + k as u32) % ii;
        if *slot != want {
            return Err(format!("hop {k} at slot {slot}, schedule requires {want}"));
        }
        match prev {
            None if *pe != from.pe => {
                return Err(format!(
                    "route starts at {pe}, not the producer's register {}",
                    from.pe
                ));
            }
            Some(p) if *pe != p && !cgra.links_from(p).contains(pe) => {
                return Err(format!("hop {k} jumps {p} -> {pe} without a link"));
            }
            _ => {}
        }
        prev = Some(*pe);
    }
    // `expect >= 1` (timing guarantees at least one cycle), so `prev` is set.
    let last = prev.unwrap_or(from.pe);
    if last != to.pe && !cgra.links_from(last).contains(&to.pe) {
        return Err(format!("final register {last} is unreadable from consumer {}", to.pe));
    }
    Ok(())
}

/// Circuit-switched routing: hold in the producer's register until a
/// departure cycle, traverse adjacent crossbar switches within one cycle
/// boundary, then park in the consumer's register until consumption.
fn check_circuit_route(
    cgra: &Cgra,
    from: Placement,
    to: Placement,
    deadline: u32,
    ii: u32,
    route: &[RouteHop],
) -> Result<(), String> {
    if from.pe == to.pe {
        // Same-PE transfer: pure register feedback, one hop per
        // intermediate cycle.
        let expect = (deadline - from.time - 1) as usize;
        if route.len() != expect {
            return Err(format!(
                "same-PE transfer needs {expect} register hops, got {}",
                route.len()
            ));
        }
        for (k, hop) in route.iter().enumerate() {
            let RouteHop::Register { pe, slot } = hop else {
                return Err("switch hop in a same-PE transfer".to_string());
            };
            if *pe != from.pe {
                return Err(format!("same-PE transfer strays to {pe}"));
            }
            let want = (from.time + 1 + k as u32) % ii;
            if *slot != want {
                return Err(format!("hop {k} at slot {slot}, schedule requires {want}"));
            }
        }
        return Ok(());
    }

    // Segment the route: hold registers at the producer, then switches,
    // then park registers. A direct-neighbour route crosses no switch,
    // so the hold segment ends at the first register elsewhere. Any
    // other interleaving is not a circuit-switched route.
    let hold = route
        .iter()
        .take_while(|h| matches!(h, RouteHop::Register { pe, .. } if *pe == from.pe))
        .count();
    let cross = route[hold..]
        .iter()
        .take_while(|h| matches!(h, RouteHop::Switch { .. }))
        .count();
    if route[hold + cross..].iter().any(|h| matches!(h, RouteHop::Switch { .. })) {
        return Err("switch hop after the park segment".to_string());
    }

    // Hold at the producer: cycles t_src+1 ..= t_dep.
    for (k, hop) in route[..hold].iter().enumerate() {
        let RouteHop::Register { slot, .. } = hop else { unreachable!() };
        let want = (from.time + 1 + k as u32) % ii;
        if *slot != want {
            return Err(format!("hold hop {k} at slot {slot}, schedule requires {want}"));
        }
    }
    let arrival = from.time + hold as u32 + 1;
    if arrival > deadline {
        return Err(format!("departs at cycle {}, past the deadline {deadline}", arrival - 1));
    }

    // Cross the crossbar at the boundary entering `arrival`: every
    // switch at the same slot, the chain link-adjacent end to end.
    let boundary = arrival % ii;
    let mut at = from.pe;
    for hop in &route[hold..hold + cross] {
        let RouteHop::Switch { pe, slot } = hop else { unreachable!() };
        if *slot != boundary {
            return Err(format!(
                "switch at slot {slot}, the boundary into cycle {arrival} is slot {boundary}"
            ));
        }
        if !cgra.links_from(at).contains(pe) {
            return Err(format!("switch chain jumps {at} -> {pe} without a link"));
        }
        at = *pe;
    }
    if !cgra.links_from(at).contains(&to.pe) {
        return Err(format!("switch chain ends at {at}, not adjacent to consumer {}", to.pe));
    }

    // Park at the consumer: cycles arrival ..= deadline (empty exactly
    // when the value arrives on the consumption cycle).
    let park = &route[hold + cross..];
    let expect = if arrival == deadline { 0 } else { (deadline - arrival + 1) as usize };
    if park.len() != expect {
        return Err(format!("park segment needs {expect} register hops, got {}", park.len()));
    }
    for (k, hop) in park.iter().enumerate() {
        let RouteHop::Register { pe, slot } = hop else { unreachable!() };
        if *pe != to.pe {
            return Err(format!("park segment strays to {pe}"));
        }
        let want = (arrival + k as u32) % ii;
        if *slot != want {
            return Err(format!("park hop {k} at slot {slot}, schedule requires {want}"));
        }
    }
    Ok(())
}

/// Deterministically damage a mapping so that [`check_mapping`] must
/// reject it — the `validate.corrupt` failpoint's payload, proving the
/// serve-side validator gate end to end.
pub fn corrupt(mapping: &mut Mapping) {
    if mapping.placements.len() >= 2 {
        // Two nodes on one (PE, slot): an exclusivity violation no
        // schedule can excuse.
        mapping.placements[0] = mapping.placements[1];
    } else if let Some(p) = mapping.placements.first_mut() {
        p.pe = PeId(u32::MAX);
    } else {
        mapping.ii = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Ledger;
    use crate::router::route_edge;
    use mapzero_arch::presets;
    use mapzero_dfg::{DfgBuilder, Opcode};

    fn tiny() -> Dfg {
        let mut b = DfgBuilder::new("tiny");
        let a = b.node(Opcode::Load);
        let c = b.node(Opcode::Add);
        b.edge(a, c).unwrap();
        b.finish().unwrap()
    }

    fn fanout() -> Dfg {
        let mut b = DfgBuilder::new("fanout");
        let a = b.node(Opcode::Load);
        let x = b.node(Opcode::Add);
        let y = b.node(Opcode::Add);
        b.edge(a, x).unwrap();
        b.edge(a, y).unwrap();
        b.finish().unwrap()
    }

    /// Build the routes with the real router and assert the validator
    /// agrees with it on a registered-routing fabric.
    #[test]
    fn router_built_mapping_validates_registered() {
        let dfg = tiny();
        let cgra = presets::simple_mesh(2, 2);
        let ii = 1;
        let placements =
            vec![Placement { pe: PeId(0), time: 0 }, Placement { pe: PeId(1), time: 1 }];
        let mut ledger = Ledger::new(&cgra, ii);
        let mut hops = Vec::new();
        route_edge(&cgra, &mut ledger, NodeId(0), placements[0], placements[1], 0, &mut hops)
            .unwrap();
        let m = Mapping { ii, placements, routes: vec![hops] };
        assert_eq!(check_mapping(&dfg, &cgra, &m, ii), Ok(()));
    }

    #[test]
    fn router_built_mapping_validates_circuit_switched() {
        let dfg = tiny();
        let cgra = presets::hycube();
        let ii = 1;
        let placements =
            vec![Placement { pe: PeId(0), time: 0 }, Placement { pe: PeId(15), time: 1 }];
        let mut ledger = Ledger::new(&cgra, ii);
        let mut hops = Vec::new();
        route_edge(&cgra, &mut ledger, NodeId(0), placements[0], placements[1], 0, &mut hops)
            .unwrap();
        assert!(!hops.is_empty(), "corner to corner crosses switches");
        let m = Mapping { ii, placements, routes: vec![hops] };
        assert_eq!(check_mapping(&dfg, &cgra, &m, ii), Ok(()));
    }

    #[test]
    fn circuit_switched_park_segment_validates() {
        // Consumer three cycles after the producer on a neighbour PE:
        // the route holds and parks in registers around the crossbar.
        let dfg = tiny();
        let cgra = presets::hycube();
        let ii = 4;
        let placements =
            vec![Placement { pe: PeId(0), time: 0 }, Placement { pe: PeId(1), time: 3 }];
        let mut ledger = Ledger::new(&cgra, ii);
        let mut hops = Vec::new();
        route_edge(&cgra, &mut ledger, NodeId(0), placements[0], placements[1], 0, &mut hops)
            .unwrap();
        let m = Mapping { ii, placements, routes: vec![hops] };
        assert_eq!(check_mapping(&dfg, &cgra, &m, ii), Ok(()));
    }

    #[test]
    fn circuit_switched_register_between_hold_and_park_rejected() {
        // pe0 -> pe1 holds at the producer and parks at the consumer;
        // a register at a third PE in between is no circuit-switched
        // route.
        let dfg = tiny();
        let cgra = presets::hycube();
        let m = Mapping {
            ii: 4,
            placements: vec![
                Placement { pe: PeId(0), time: 0 },
                Placement { pe: PeId(1), time: 3 },
            ],
            routes: vec![vec![
                RouteHop::Register { pe: PeId(0), slot: 1 },
                RouteHop::Register { pe: PeId(5), slot: 2 },
                RouteHop::Register { pe: PeId(1), slot: 3 },
            ]],
        };
        let errs = check_mapping(&dfg, &cgra, &m, 4).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("strays to pe5")), "{errs:?}");
    }

    /// HyCube kernels whose direct-neighbour routes cross no switch
    /// (hold registers straight into park registers) validate when
    /// compiled with the quick benchmark configuration.
    #[test]
    fn hycube_direct_neighbour_routes_validate() {
        use crate::agent::AgentConfig;
        use crate::compiler::{Compiler, MapZeroConfig};
        use crate::mcts::MctsConfig;
        use crate::network::NetConfig;
        let config = MapZeroConfig {
            net: NetConfig::tiny(),
            agent: AgentConfig {
                mcts: MctsConfig {
                    simulations: 24,
                    expansion_cap: 32,
                    playout_step_limit: 96,
                    ..MctsConfig::default()
                },
                backtrack_budget: 2_000_000,
                mcts_backtrack_cutoff: 256,
                ..AgentConfig::default()
            },
            attempts_per_ii: 2,
            pretrain: None,
            ..MapZeroConfig::fast_test()
        };
        let cgra = presets::hycube();
        for name in ["matmul", "mults1"] {
            let dfg = mapzero_dfg::suite::by_name(name).expect("suite kernel");
            let mut compiler = Compiler::new(config);
            let report = compiler
                .map_with_limit(&dfg, &cgra, std::time::Duration::from_secs(60))
                .unwrap_or_else(|e| panic!("{name} maps on HyCube: {e:?}"));
            let mapping = report.mapping.expect("a mapping");
            assert_eq!(check_mapping(&dfg, &cgra, &mapping, mapping.ii), Ok(()), "{name}");
        }
    }

    #[test]
    fn fanout_shares_the_producer_register() {
        let dfg = fanout();
        let cgra = presets::simple_mesh(2, 2);
        let ii = 2;
        let placements = vec![
            Placement { pe: PeId(0), time: 0 },
            Placement { pe: PeId(1), time: 1 },
            Placement { pe: PeId(2), time: 1 },
        ];
        let mut ledger = Ledger::new(&cgra, ii);
        let (mut r0, mut r1) = (Vec::new(), Vec::new());
        route_edge(&cgra, &mut ledger, NodeId(0), placements[0], placements[1], 0, &mut r0)
            .unwrap();
        let cost =
            route_edge(&cgra, &mut ledger, NodeId(0), placements[0], placements[2], 0, &mut r1);
        assert_eq!(cost, Some(0), "fan-out shares the register");
        let m = Mapping { ii, placements, routes: vec![r0, r1] };
        assert_eq!(check_mapping(&dfg, &cgra, &m, ii), Ok(()));
    }

    #[test]
    fn cross_signal_register_conflict_rejected() {
        // 1x3 mesh at II=2: a@pe0/t0 -> c@pe2/t2 relays through pe1's
        // register at slot 0; b@pe1/t1 -> c@pe2/t2 parks in the same
        // register. Each route is individually well-shaped; only the
        // cross-edge exclusivity check can see the clash.
        let mut b = DfgBuilder::new("conflict");
        let a = b.node(Opcode::Load);
        let bb = b.node(Opcode::Load);
        let c = b.node(Opcode::Add);
        b.edge(a, c).unwrap();
        b.edge(bb, c).unwrap();
        let dfg = b.finish().unwrap();
        let cgra = presets::simple_mesh(1, 3);
        let m = Mapping {
            ii: 2,
            placements: vec![
                Placement { pe: PeId(0), time: 0 },
                Placement { pe: PeId(1), time: 1 },
                Placement { pe: PeId(2), time: 2 },
            ],
            routes: vec![
                vec![
                    RouteHop::Register { pe: PeId(0), slot: 1 },
                    RouteHop::Register { pe: PeId(1), slot: 0 },
                ],
                vec![RouteHop::Register { pe: PeId(1), slot: 0 }],
            ],
        };
        let errs = check_mapping(&dfg, &cgra, &m, 2).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("both claim")), "{errs:?}");
    }

    #[test]
    fn switch_hop_on_registered_fabric_rejected() {
        let dfg = tiny();
        let cgra = presets::simple_mesh(2, 2);
        let m = Mapping {
            ii: 1,
            placements: vec![
                Placement { pe: PeId(0), time: 0 },
                Placement { pe: PeId(1), time: 1 },
            ],
            routes: vec![vec![RouteHop::Switch { pe: PeId(0), slot: 0 }]],
        };
        let errs = check_mapping(&dfg, &cgra, &m, 1).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("switch hop")), "{errs:?}");
    }

    #[test]
    fn wrong_hop_count_rejected() {
        let dfg = tiny();
        let cgra = presets::simple_mesh(2, 2);
        // Consumer two cycles out but only one register hop: the value
        // would have to teleport across the missing cycle.
        let m = Mapping {
            ii: 4,
            placements: vec![
                Placement { pe: PeId(0), time: 0 },
                Placement { pe: PeId(1), time: 2 },
            ],
            routes: vec![vec![RouteHop::Register { pe: PeId(0), slot: 1 }]],
        };
        let errs = check_mapping(&dfg, &cgra, &m, 4).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("register hops")), "{errs:?}");
    }

    #[test]
    fn route_must_start_at_the_producer() {
        let dfg = tiny();
        let cgra = presets::simple_mesh(2, 2);
        let m = Mapping {
            ii: 1,
            placements: vec![
                Placement { pe: PeId(0), time: 0 },
                Placement { pe: PeId(1), time: 1 },
            ],
            // pe2 never held the value: pe0 produced it.
            routes: vec![vec![RouteHop::Register { pe: PeId(2), slot: 0 }]],
        };
        let errs = check_mapping(&dfg, &cgra, &m, 1).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("not the producer")), "{errs:?}");
    }

    #[test]
    fn disconnected_switch_chain_rejected() {
        let dfg = tiny();
        let cgra = presets::hycube();
        // pe0 -> pe15 needs a connected switch chain; a single switch at
        // pe5 is adjacent to neither endpoint's row/column path.
        let m = Mapping {
            ii: 1,
            placements: vec![
                Placement { pe: PeId(0), time: 0 },
                Placement { pe: PeId(15), time: 1 },
            ],
            routes: vec![vec![RouteHop::Switch { pe: PeId(5), slot: 0 }]],
        };
        let errs = check_mapping(&dfg, &cgra, &m, 1).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("without a link") || e.contains("not adjacent")), "{errs:?}");
    }

    #[test]
    fn incapable_pe_rejected() {
        let dfg = tiny();
        let cgra = presets::heterogeneous();
        // PE 1 (row 0, col 1) has no memory port in the Fig. 14 fabric.
        let m = Mapping {
            ii: 1,
            placements: vec![
                Placement { pe: PeId(1), time: 0 },
                Placement { pe: PeId(2), time: 1 },
            ],
            routes: vec![vec![RouteHop::Register { pe: PeId(1), slot: 0 }]],
        };
        let errs = check_mapping(&dfg, &cgra, &m, 1).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("incapable")), "{errs:?}");
    }

    #[test]
    fn shared_fu_slot_rejected() {
        let dfg = tiny();
        let cgra = presets::simple_mesh(2, 2);
        let m = Mapping {
            ii: 1,
            placements: vec![
                Placement { pe: PeId(0), time: 0 },
                Placement { pe: PeId(0), time: 1 }, // same slot at II=1
            ],
            routes: vec![vec![RouteHop::Register { pe: PeId(0), slot: 0 }]],
        };
        let errs = check_mapping(&dfg, &cgra, &m, 1).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("share")), "{errs:?}");
    }

    #[test]
    fn shared_row_bus_rejected() {
        let mut b = DfgBuilder::new("two-loads");
        let l0 = b.node(Opcode::Load);
        let l1 = b.node(Opcode::Load);
        let s = b.node(Opcode::Add);
        b.edge(l0, s).unwrap();
        b.edge(l1, s).unwrap();
        let dfg = b.finish().unwrap();
        let cgra = presets::adres();
        let m = Mapping {
            ii: 1,
            placements: vec![
                Placement { pe: PeId(0), time: 0 },
                Placement { pe: PeId(1), time: 0 }, // same row, same slot
                Placement { pe: PeId(2), time: 1 },
            ],
            routes: vec![vec![], vec![]],
        };
        let errs = check_mapping(&dfg, &cgra, &m, 1).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("bus")), "{errs:?}");
    }

    #[test]
    fn timing_violation_rejected() {
        let dfg = tiny();
        let cgra = presets::simple_mesh(2, 2);
        let m = Mapping {
            ii: 2,
            placements: vec![
                Placement { pe: PeId(0), time: 1 },
                Placement { pe: PeId(1), time: 1 },
            ],
            routes: vec![vec![]],
        };
        let errs = check_mapping(&dfg, &cgra, &m, 2).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("violates timing")), "{errs:?}");
    }

    #[test]
    fn missing_route_between_distant_pes_rejected() {
        let dfg = tiny();
        let cgra = presets::simple_mesh(3, 3);
        let m = Mapping {
            ii: 4,
            placements: vec![
                Placement { pe: PeId(0), time: 0 },
                Placement { pe: PeId(8), time: 3 }, // opposite corner
            ],
            routes: vec![vec![]],
        };
        let errs = check_mapping(&dfg, &cgra, &m, 4).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("expected 3 register hops, got 0")), "{errs:?}");
    }

    #[test]
    fn ii_disagreement_rejected() {
        let dfg = tiny();
        let cgra = presets::simple_mesh(2, 2);
        let m = Mapping {
            ii: 2,
            placements: vec![
                Placement { pe: PeId(0), time: 0 },
                Placement { pe: PeId(1), time: 1 },
            ],
            routes: vec![vec![RouteHop::Register { pe: PeId(0), slot: 1 }]],
        };
        let errs = check_mapping(&dfg, &cgra, &m, 3).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("disagrees")), "{errs:?}");
    }

    #[test]
    fn corrupt_breaks_any_valid_mapping() {
        let dfg = tiny();
        let cgra = presets::simple_mesh(2, 2);
        let ii = 1;
        let placements =
            vec![Placement { pe: PeId(0), time: 0 }, Placement { pe: PeId(1), time: 1 }];
        let mut ledger = Ledger::new(&cgra, ii);
        let mut hops = Vec::new();
        route_edge(&cgra, &mut ledger, NodeId(0), placements[0], placements[1], 0, &mut hops)
            .unwrap();
        let mut m = Mapping { ii, placements, routes: vec![hops] };
        assert_eq!(check_mapping(&dfg, &cgra, &m, ii), Ok(()));
        corrupt(&mut m);
        assert!(check_mapping(&dfg, &cgra, &m, ii).is_err());
    }

    #[test]
    fn corrupt_degenerate_shapes_still_fail() {
        // One node, no edges.
        let mut b = DfgBuilder::new("one");
        b.node(Opcode::Add);
        let dfg = b.finish().unwrap();
        let cgra = presets::simple_mesh(2, 2);
        let mut m = Mapping {
            ii: 1,
            placements: vec![Placement { pe: PeId(0), time: 0 }],
            routes: vec![],
        };
        assert_eq!(check_mapping(&dfg, &cgra, &m, 1), Ok(()));
        corrupt(&mut m);
        assert!(check_mapping(&dfg, &cgra, &m, 1).is_err());

        // Zero placements (structurally broken to begin with).
        let mut empty = Mapping { ii: 1, placements: vec![], routes: vec![] };
        corrupt(&mut empty);
        assert!(check_mapping(&dfg, &cgra, &empty, 1).is_err());
    }

    /// The real compiler's output on a suite kernel must pass — the
    /// validator certifies, it does not second-guess.
    #[test]
    fn compiler_output_validates() {
        let dfg = mapzero_dfg::suite::by_name("mac").unwrap();
        let cgra = presets::hrea();
        let mut compiler =
            crate::compiler::Compiler::new(crate::compiler::MapZeroConfig::fast_test());
        let report = compiler
            .map_with_limit(&dfg, &cgra, std::time::Duration::from_secs(60))
            .expect("mac maps on hrea");
        let mapping = report.mapping.expect("a mapping");
        assert_eq!(check_mapping(&dfg, &cgra, &mapping, mapping.ii), Ok(()));
    }
}
