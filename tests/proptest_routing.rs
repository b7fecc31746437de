//! Property tests over the router and the mapping/symmetry interplay.

use mapzero::core::ledger::Ledger;
use mapzero::core::mapping::{Placement as CorePlacement, RouteHop};
use mapzero::core::router::route_edge;
use mapzero::core::validate::check_mapping;
use mapzero::dfg::NodeId;
use mapzero::prelude::*;
use proptest::prelude::*;

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
        if let Some(route) = route_edge(&cgra, &mut ledger, NodeId(0), src, dst, 0) {
            // Exactly `slack` register hops, one per cycle.
            prop_assert_eq!(route.hops.len(), slack as usize);
            let mut prev = PeId(from);
            for (step, hop) in route.hops.iter().enumerate() {
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
        let route = route_edge(&cgra, &mut ledger, NodeId(0), src, dst, 0);
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
        let a = route_edge(
            &cgra, &mut ledger, NodeId(0), src, CorePlacement { pe: PeId(to_a), time: 1 }, 0,
        );
        if to_a == to_b {
            return Ok(());
        }
        let b = route_edge(
            &cgra, &mut ledger, NodeId(0), src, CorePlacement { pe: PeId(to_b), time: 1 }, 0,
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
            ).expect("empty fabric routes");
            prop_assert!(second.cost <= fresh.cost + first.cost);
        }
    }

    /// A valid mapping stays valid under every fabric symmetry: permute
    /// the placements and every route hop by a verified automorphism
    /// and re-validate.
    #[test]
    fn mappings_are_invariant_under_fabric_automorphisms(seed in 0u64..50) {
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
        let cgra = presets::simple_mesh(4, 4);
        let mut mapper = ExactMapper::default();
        let report = Mapper::map(
            &mut mapper, &dfg, &cgra, std::time::Duration::from_secs(5),
        ).unwrap();
        let Some(mapping) = report.mapping else { return Ok(()); };
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
