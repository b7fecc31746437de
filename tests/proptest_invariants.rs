//! Property-based tests over the core data structures and the mapping
//! invariants, spanning all workspace crates.

use mapzero::core::ledger::Ledger;
use mapzero::core::MapEnv;
use mapzero::core::validate::check_mapping;
use mapzero::dfg::random::{random_dfg, RandomDfgConfig};
use mapzero::dfg::{modulo_schedule, textfmt, ResourceModel};
use mapzero::prelude::*;
use proptest::prelude::*;

fn dfg_strategy() -> impl Strategy<Value = Dfg> {
    (2usize..24, 0usize..12, 0usize..2, any::<u64>()).prop_map(
        |(nodes, extra, cycles, seed)| {
            random_dfg(
                "prop",
                &RandomDfgConfig {
                    nodes,
                    edges: nodes - 1 + extra,
                    self_cycles: cycles,
                    max_fanin: 3,
                    seed,
                },
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_dfgs_round_trip_through_text_format(dfg in dfg_strategy()) {
        let text = textfmt::emit(&dfg);
        let back = textfmt::parse(&text).unwrap();
        prop_assert_eq!(back, dfg);
    }

    #[test]
    fn modulo_schedules_satisfy_all_constraints(
        dfg in dfg_strategy(),
        pes in 2usize..20,
    ) {
        let res = ResourceModel::homogeneous(pes);
        if let Ok(s) = modulo_schedule(&dfg, &res, 64) {
            // Dependences.
            for e in dfg.edges() {
                let lat = dfg.node(e.src).opcode.latency();
                prop_assert!(
                    s.time(e.src) + lat <= s.time(e.dst) + e.dist * s.ii(),
                    "edge {:?}", e
                );
            }
            // Capacity per modulo slot.
            let mut per_slot = vec![0usize; s.ii() as usize];
            for u in dfg.node_ids() {
                per_slot[s.modulo_slot(u) as usize] += 1;
            }
            prop_assert!(per_slot.iter().all(|&c| c <= pes));
        }
    }

    #[test]
    fn exact_mapper_outputs_always_validate(
        dfg in dfg_strategy(),
        fabric in 0usize..3,
    ) {
        let cgra = match fabric {
            0 => presets::simple_mesh(4, 4),
            1 => presets::hycube(),
            _ => presets::hrea(),
        };
        let mut mapper = ExactMapper;
        let budget = Budget::with_deadline(std::time::Duration::from_secs(5));
        let outcome = Mapper::map(&mut mapper, &dfg, &cgra, &budget, IiBounds::default());
        // A run that ends on the clock is a Timeout, with nothing to check.
        if let Err(MapError::Timeout { .. }) = outcome {
            return Ok(());
        }
        let report = outcome.unwrap();
        if let Some(m) = report.mapping {
            prop_assert_eq!(
                check_mapping(&dfg, &cgra, &m, m.ii), Ok(()),
                "invalid mapping for seed kernel on {}", cgra.name()
            );
            prop_assert!(m.ii >= report.mii);
        }
    }

    #[test]
    fn env_step_undo_is_identity(
        dfg in dfg_strategy(),
        choice in any::<u64>(),
    ) {
        let cgra = presets::simple_mesh(4, 4);
        let Ok(mii) = Problem::mii(&dfg, &cgra) else { return Ok(()); };
        let Ok(problem) = Problem::new(&dfg, &cgra, mii) else { return Ok(()); };
        let mut env = MapEnv::new(&problem);
        // Take two steps, undo both, compare masks & rewards to fresh.
        let mut actions = Vec::new();
        for k in 0..2 {
            let legal = env.legal_actions();
            if legal.is_empty() || env.done() {
                break;
            }
            let a = legal[(choice as usize + k) % legal.len()];
            env.step(a);
            actions.push(a);
        }
        for _ in 0..actions.len() {
            env.undo();
        }
        let fresh = MapEnv::new(&problem);
        prop_assert_eq!(env.action_mask(), fresh.action_mask());
        prop_assert_eq!(env.total_reward(), fresh.total_reward());
        prop_assert_eq!(env.placed_count(), 0);
    }

    #[test]
    fn ledger_checkpoint_undo_restores_claims(
        claims in proptest::collection::vec((0u32..16, 0u32..4, 0u32..8), 1..20),
    ) {
        let cgra = presets::simple_mesh(4, 4);
        let mut ledger = Ledger::new(&cgra, 4);
        let cp = ledger.checkpoint();
        for (pe, slot, node) in claims {
            let _ = ledger.claim_fu(PeId(pe), slot, mapzero::dfg::NodeId(node));
            let _ = ledger.claim_reg(PeId(pe), slot, mapzero::dfg::NodeId(node));
        }
        ledger.undo_to(cp);
        for pe in 0..16u32 {
            for slot in 0..4u32 {
                prop_assert_eq!(ledger.fu(PeId(pe), slot), None);
                prop_assert_eq!(ledger.reg(PeId(pe), slot), None);
            }
        }
    }

    #[test]
    fn sa_mapping_when_found_is_valid(dfg in dfg_strategy()) {
        let cgra = presets::hycube();
        let mut mapper = SaMapper;
        let budget = Budget::with_deadline(std::time::Duration::from_secs(3));
        let outcome = Mapper::map(&mut mapper, &dfg, &cgra, &budget, IiBounds::default());
        // A run that ends on the clock is a Timeout, with nothing to check.
        if let Err(MapError::Timeout { .. }) = outcome {
            return Ok(());
        }
        let report = outcome.unwrap();
        if let Some(m) = report.mapping {
            prop_assert_eq!(check_mapping(&dfg, &cgra, &m, m.ii), Ok(()));
        }
    }
}

// The supervisor contract (DESIGN.md §Robustness): whatever the DFG, a
// tiny wall-clock budget is honoured to within 50 ms and the compiler
// returns a structured result — never a panic, never a hang.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tiny_budget_always_returns_within_deadline(
        dfg in dfg_strategy(),
        fabric in 0usize..2,
    ) {
        use mapzero::core::MapError;
        let cgra = match fabric {
            0 => presets::simple_mesh(4, 4),
            _ => presets::hycube(),
        };
        let deadline = std::time::Duration::from_millis(30);
        let mut compiler = Compiler::new(MapZeroConfig::fast_test());
        let start = std::time::Instant::now();
        let result = compiler.map_with_limit(&dfg, &cgra, deadline);
        let elapsed = start.elapsed();
        prop_assert!(
            elapsed <= deadline + std::time::Duration::from_millis(50),
            "map took {elapsed:?} against a {deadline:?} budget"
        );
        match result {
            // A report (with or without a mapping) is a structured result.
            Ok(report) => prop_assert_eq!(report.mapper, "MapZero"),
            Err(MapError::Timeout { best_partial }) => {
                prop_assert_eq!(best_partial.total_nodes, dfg.node_count());
            }
            // Structurally unmappable / unschedulable random DFGs are
            // legitimate; internal faults are not.
            Err(MapError::Internal(msg)) => {
                return Err(TestCaseError::fail(format!("internal fault: {msg}")));
            }
            Err(_) => {}
        }
    }
}
