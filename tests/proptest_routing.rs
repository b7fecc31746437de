//! Property tests over the router and the mapping/symmetry interplay.

use mapzero::core::ledger::Ledger;
use mapzero::core::mapping::{Mapping, Placement as CorePlacement, RouteHop};
use mapzero::core::router::route_edge;
use mapzero::core::validate::check_mapping;
use mapzero::dfg::NodeId;
use mapzero::prelude::*;
use proptest::prelude::*;

/// Every register and switch claim of a ledger, per `(slot, pe)`.
fn route_claims(ledger: &Ledger, cgra: &Cgra) -> Vec<(Option<NodeId>, Option<NodeId>)> {
    (0..ledger.ii())
        .flat_map(|slot| {
            cgra.pe_ids().map(move |pe| (ledger.reg(pe, slot), ledger.switch(pe, slot)))
        })
        .collect()
}

/// A routed edge: `(producer, consumer, distance)` over node indices.
type Edge = (usize, usize, u32);

/// Nodes placed at `(pe, time)` with no two sharing a PE in one modulo
/// slot, and directed edges between them: a pair at distinct times runs
/// earlier -> later, a pair at one time (a node with itself included)
/// is a loop-carried edge of distance 1. Duplicate edges are dropped.
fn placed_edges(
    cgra: &Cgra,
    ii: u32,
    nodes: &[(usize, u32)],
    pairs: &[(usize, usize)],
) -> (Vec<CorePlacement>, Vec<Edge>) {
    let mut placements: Vec<CorePlacement> = Vec::new();
    for &(pe, time) in nodes {
        let p = CorePlacement { pe: PeId((pe % cgra.pe_count()) as u32), time };
        if !placements.iter().any(|q| q.pe == p.pe && q.time % ii == p.time % ii) {
            placements.push(p);
        }
    }
    let n = placements.len();
    let mut edges: Vec<Edge> = Vec::new();
    for &(a, b) in pairs {
        let (a, b) = (a % n, b % n);
        let (ta, tb) = (placements[a].time, placements[b].time);
        let edge = match ta.cmp(&tb) {
            std::cmp::Ordering::Less => (a, b, 0),
            std::cmp::Ordering::Greater => (b, a, 0),
            std::cmp::Ordering::Equal => (a, b, 1),
        };
        if !edges.iter().any(|&(s, d, _)| (s, d) == (edge.0, edge.1)) {
            edges.push(edge);
        }
    }
    (placements, edges)
}

/// The mapping of `placements` with the given edges and routes, and its
/// DFG (every node an add).
fn mapping_of(
    ii: u32,
    placements: &[CorePlacement],
    routed: &[(Edge, Vec<RouteHop>)],
) -> (Dfg, Mapping) {
    let mut b = DfgBuilder::new("routes");
    let ids: Vec<NodeId> = placements.iter().map(|_| b.node(Opcode::Add)).collect();
    for &((src, dst, dist), _) in routed {
        if dist == 0 {
            b.edge(ids[src], ids[dst]).expect("fresh edge");
        } else {
            b.back_edge(ids[src], ids[dst], dist).expect("fresh edge");
        }
    }
    let dfg = b.finish().expect("time-ordered forward edges are acyclic");
    let routes = routed.iter().map(|(_, hops)| hops.clone()).collect();
    (dfg, Mapping { ii, placements: placements.to_vec(), routes })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Registered routing: every returned route is a chain of registers
    /// whose PEs advance by at most one link per cycle and whose length
    /// matches the schedule slack.
    #[test]
    fn registered_routes_are_adjacent_chains(
        from in 0u32..16,
        to in 0u32..16,
        slack in 1u32..6,
        ii in 1u32..4,
    ) {
        let cgra = presets::simple_mesh(4, 4);
        let mut ledger = Ledger::new(&cgra, ii);
        let src = CorePlacement { pe: PeId(from), time: 0 };
        let dst = CorePlacement { pe: PeId(to), time: slack };
        let mut hops = Vec::new();
        if route_edge(&cgra, &mut ledger, NodeId(0), src, dst, 0, &mut hops).is_some() {
            // Exactly `slack` register hops, one per cycle.
            prop_assert_eq!(hops.len(), slack as usize);
            let mut prev = PeId(from);
            for (step, hop) in hops.iter().enumerate() {
                let RouteHop::Register { pe, slot } = *hop else {
                    return Err(TestCaseError::fail("mesh routes use registers only"));
                };
                prop_assert_eq!(slot, (step as u32 + 1) % ii);
                prop_assert!(
                    pe == prev || cgra.links_from(prev).contains(&pe),
                    "hop {step} jumps {prev} -> {pe}"
                );
                prev = pe;
            }
            // The final register must be readable by the consumer.
            prop_assert!(
                prev == PeId(to) || cgra.links_from(prev).contains(&PeId(to))
            );
        }
    }

    /// Circuit-switched routing on HyCube always succeeds on an empty
    /// fabric with >= 1 cycle of slack, and all switch hops share the
    /// arrival slot.
    #[test]
    fn hycube_empty_fabric_always_routes(
        from in 0u32..16,
        to in 0u32..16,
        slack in 1u32..5,
    ) {
        let cgra = presets::hycube();
        let mut ledger = Ledger::new(&cgra, 4);
        let src = CorePlacement { pe: PeId(from), time: 0 };
        let dst = CorePlacement { pe: PeId(to), time: slack };
        let route = route_edge(&cgra, &mut ledger, NodeId(0), src, dst, 0, &mut Vec::new());
        prop_assert!(route.is_some(), "empty crossbar must route anything");
    }

    /// Routing twice from the same producer costs no more the second
    /// time (net sharing is monotone).
    #[test]
    fn fanout_sharing_is_monotone(
        from in 0u32..16,
        to_a in 0u32..16,
        to_b in 0u32..16,
    ) {
        let cgra = presets::hycube();
        let mut ledger = Ledger::new(&cgra, 2);
        let src = CorePlacement { pe: PeId(from), time: 0 };
        let hops = &mut Vec::new();
        let a = route_edge(
            &cgra, &mut ledger, NodeId(0), src, CorePlacement { pe: PeId(to_a), time: 1 }, 0, hops,
        );
        if to_a == to_b {
            return Ok(());
        }
        let b = route_edge(
            &cgra, &mut ledger, NodeId(0), src, CorePlacement { pe: PeId(to_b), time: 1 }, 0, hops,
        );
        if let (Some(first), Some(second)) = (a, b) {
            // The shared prefix means the second route claims at most as
            // many *new* resources as a fresh route would.
            let mut fresh_ledger = Ledger::new(&cgra, 2);
            let fresh = route_edge(
                &cgra,
                &mut fresh_ledger,
                NodeId(0),
                src,
                CorePlacement { pe: PeId(to_b), time: 1 },
                0,
                hops,
            ).expect("empty fabric routes");
            prop_assert!(second <= fresh + first);
        }
    }

    /// The router against the independent validator, in both
    /// directions, on a partly claimed ledger: random edges between
    /// placed nodes are routed in turn through one ledger and one hop
    /// buffer (the earlier routes claim what the later ones must avoid).
    /// Every route returned passes `check_mapping` together with the
    /// others; a failed route leaves the buffer and the ledger as they
    /// were; and a route mutated by dropping a hop, shifting its slot or
    /// moving its PE off the previous one's neighbourhood fails.
    #[test]
    fn routes_on_a_claimed_ledger_validate_and_their_mutants_do_not(
        circuit in any::<bool>(),
        ii in 1u32..5,
        nodes in proptest::collection::vec((0usize..16, 0u32..8), 2..9),
        pairs in proptest::collection::vec((0usize..16, 0usize..16), 1..12),
        victim in 0usize..64,
        hop_pick in 0usize..64,
        pe_pick in 0usize..64,
    ) {
        let cgra = if circuit { presets::hycube() } else { presets::simple_mesh(4, 4) };
        let (placements, edges) = placed_edges(&cgra, ii, &nodes, &pairs);
        let mut ledger = Ledger::new(&cgra, ii);
        let mut arena: Vec<RouteHop> = Vec::new();
        let mut routed: Vec<(Edge, Vec<RouteHop>)> = Vec::new();
        for &(src, dst, dist) in &edges {
            let (before, claims) = (arena.clone(), route_claims(&ledger, &cgra));
            let cp = ledger.checkpoint();
            let signal = NodeId(src as u32);
            let (from, to) = (placements[src], placements[dst]);
            match route_edge(&cgra, &mut ledger, signal, from, to, dist, &mut arena) {
                Some(_) => {
                    prop_assert_eq!(&arena[..before.len()], &before[..], "earlier hops kept");
                    routed.push(((src, dst, dist), arena[before.len()..].to_vec()));
                }
                None => {
                    prop_assert_eq!(&arena, &before, "a failed route appends nothing");
                    prop_assert_eq!(ledger.checkpoint(), cp, "a failed route claims nothing");
                    prop_assert_eq!(route_claims(&ledger, &cgra), claims);
                }
            }
        }
        let (dfg, mapping) = mapping_of(ii, &placements, &routed);
        let checked = check_mapping(&dfg, &cgra, &mapping, ii);
        prop_assert!(checked.is_ok(), "{checked:?}");

        let Some(victim) = (!routed.is_empty()).then(|| victim % routed.len()) else {
            return Ok(());
        };
        let hops = &mapping.routes[victim];
        if hops.is_empty() {
            return Ok(());
        }
        let k = hop_pick % hops.len();
        let (RouteHop::Register { pe, slot } | RouteHop::Switch { pe, slot }) = hops[k];
        let src = routed[victim].0 .0;
        let before_pe = if k == 0 { placements[src].pe } else {
            let (RouteHop::Register { pe, .. } | RouteHop::Switch { pe, .. }) = hops[k - 1];
            pe
        };
        let far: Vec<PeId> = cgra
            .pe_ids()
            .filter(|&q| q != before_pe && !cgra.links_from(before_pe).contains(&q))
            .collect();
        // Hop `k` of the same kind, at another PE or slot.
        let with = |pe: PeId, slot: u32| match hops[k] {
            RouteHop::Register { .. } => RouteHop::Register { pe, slot },
            RouteHop::Switch { .. } => RouteHop::Switch { pe, slot },
        };
        let mut mutants: Vec<(&str, Vec<RouteHop>)> = Vec::new();
        let mut dropped = hops.clone();
        dropped.remove(k);
        mutants.push(("dropped hop", dropped));
        if ii > 1 {
            let mut shifted = hops.clone();
            shifted[k] = with(pe, (slot + 1) % ii);
            mutants.push(("shifted slot", shifted));
        }
        let mut moved = hops.clone();
        moved[k] = with(far[pe_pick % far.len()], slot);
        mutants.push(("moved PE", moved));
        for (what, route) in mutants {
            let mut bad = mapping.clone();
            bad.routes[victim] = route;
            prop_assert!(
                check_mapping(&dfg, &cgra, &bad, ii).is_err(),
                "{what} at hop {k} of edge {victim} still validates: {:?}", bad.routes[victim]
            );
        }
    }

    /// The per-thread scratch never changes an answer: after a query
    /// with a much larger horizon on the 16x16 baseline and a query on
    /// the other routing style, the same query on the same ledger gives
    /// the same cost, hops and claims as on a fresh thread.
    #[test]
    fn scratch_reuse_gives_the_answer_of_a_fresh_thread(
        circuit in any::<bool>(),
        ii in 1u32..5,
        claims in proptest::collection::vec((0usize..16, 0usize..16, 1u32..4), 0..6),
        from in 0usize..16,
        to in 0usize..16,
        slack in 1u32..6,
    ) {
        let cgra = if circuit { presets::hycube() } else { presets::simple_mesh(4, 4) };
        // A partly claimed ledger: a few other signals routed first.
        let mut ledger = Ledger::new(&cgra, ii);
        for (i, &(a, b, s)) in claims.iter().enumerate() {
            let (pa, pb) = (
                CorePlacement { pe: PeId(a as u32), time: 0 },
                CorePlacement { pe: PeId(b as u32), time: s },
            );
            let _ = route_edge(&cgra, &mut ledger, NodeId(100 + i as u32), pa, pb, 0, &mut Vec::new());
        }
        let src = CorePlacement { pe: PeId(from as u32), time: 1 };
        let dst = CorePlacement { pe: PeId(to as u32), time: 1 + slack };
        let query = move |cgra: &Cgra, mut ledger: Ledger| {
            let mut hops = Vec::new();
            let cost = route_edge(cgra, &mut ledger, NodeId(0), src, dst, 0, &mut hops);
            (cost, hops, route_claims(&ledger, cgra))
        };
        let fresh = {
            let (cgra, ledger) = (cgra.clone(), ledger.clone());
            std::thread::spawn(move || query(&cgra, ledger)).join().expect("no panic")
        };

        let big = presets::baseline16();
        let mut big_ledger = Ledger::new(&big, 2);
        let far = CorePlacement { pe: PeId(255), time: 40 };
        let long = route_edge(
            &big, &mut big_ledger, NodeId(0), CorePlacement { pe: PeId(0), time: 0 }, far, 0,
            &mut Vec::new(),
        );
        prop_assert!(long.is_some(), "an empty 16x16 fabric routes a 40-cycle edge");
        let other = if circuit { presets::simple_mesh(4, 4) } else { presets::hycube() };
        let _ = route_edge(
            &other, &mut Ledger::new(&other, 3), NodeId(0),
            CorePlacement { pe: PeId(0), time: 0 }, CorePlacement { pe: PeId(15), time: 2 }, 0,
            &mut Vec::new(),
        );
        prop_assert_eq!(query(&cgra, ledger), fresh);
    }
}

proptest! {
    // About ten cases per fabric: the larger fabrics cost more per map
    // than the 4x4 mesh this test once ran 128 cases on.
    #![proptest_config(ProptestConfig::with_cases(80))]

    /// A valid mapping stays valid under every fabric symmetry: permute
    /// the placements and every route hop by a verified automorphism
    /// and re-validate. Each case draws one of the seven presets or the
    /// 4x4 mesh, so every fabric's transform set is exercised.
    #[test]
    fn mappings_are_invariant_under_fabric_automorphisms(seed in 0u64..50, fabric in 0usize..8) {
        use mapzero::arch::symmetry::valid_transforms;
        let dfg = mapzero::dfg::random::random_dfg(
            "sym",
            &mapzero::dfg::random::RandomDfgConfig {
                nodes: 8,
                edges: 10,
                self_cycles: 0,
                max_fanin: 3,
                seed,
            },
        );
        let cgra = presets::table1()
            .into_iter()
            .chain([presets::heterogeneous(), presets::simple_mesh(4, 4)])
            .nth(fabric)
            .expect("eight fabrics");
        let mut mapper = ExactMapper;
        let budget = Budget::with_deadline(std::time::Duration::from_secs(5));
        let outcome = Mapper::map(&mut mapper, &dfg, &cgra, &budget, IiBounds::default());
        // A run that ends on the clock is a Timeout, and a kernel the
        // heterogeneous fabric cannot execute is Unmappable: neither has
        // a mapping to permute.
        if let Err(MapError::Timeout { .. } | MapError::Unmappable(_)) = outcome {
            return Ok(());
        }
        let Some(mapping) = outcome.unwrap().mapping else { return Ok(()); };
        for t in valid_transforms(&cgra) {
            let Some(perm) = t.permutation(&cgra) else { continue };
            let mut permuted = mapping.clone();
            for p in &mut permuted.placements {
                p.pe = perm[p.pe.index()];
            }
            for hop in permuted.routes.iter_mut().flatten() {
                let (RouteHop::Register { pe, .. } | RouteHop::Switch { pe, .. }) = hop;
                *pe = perm[pe.index()];
            }
            let checked = check_mapping(&dfg, &cgra, &permuted, permuted.ii);
            prop_assert!(checked.is_ok(), "{t:?}: {checked:?}");
        }
    }
}

/// ADRES's rows share a memory bus, so only transforms that map rows to
/// rows are its symmetries: two loads in one slot on rows 0 and 1 of
/// column 0 are valid, and stay valid under every transform
/// `valid_transforms` keeps (a quarter turn would put both on row 0's
/// bus).
#[test]
fn adres_symmetries_keep_same_slot_loads_on_distinct_buses() {
    use mapzero::arch::symmetry::{valid_transforms, Transform};
    let mut b = DfgBuilder::new("two-loads");
    b.node(Opcode::Load);
    b.node(Opcode::Load);
    let dfg = b.finish().expect("two isolated loads");
    let cgra = presets::adres();
    let at = |row, col| CorePlacement { pe: cgra.at(row, col), time: 0 };
    let mapping = Mapping { ii: 1, placements: vec![at(0, 0), at(1, 0)], routes: Vec::new() };
    assert_eq!(check_mapping(&dfg, &cgra, &mapping, 1), Ok(()));
    let moved = |t: Transform| {
        let perm = t.permutation(&cgra).expect("ADRES is square");
        let mut moved = mapping.clone();
        for p in &mut moved.placements {
            p.pe = perm[p.pe.index()];
        }
        moved
    };
    assert!(check_mapping(&dfg, &cgra, &moved(Transform::Rot90), 1).is_err());
    let transforms = valid_transforms(&cgra);
    assert_eq!(
        transforms,
        [Transform::Identity, Transform::FlipH, Transform::FlipV, Transform::Rot180]
    );
    for t in transforms {
        assert_eq!(check_mapping(&dfg, &cgra, &moved(t), 1), Ok(()), "{t:?}");
    }
}
