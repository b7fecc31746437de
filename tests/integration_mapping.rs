//! Cross-crate integration tests: full compile pipelines over the
//! benchmark suite and the preset fabrics.

use mapzero::core::validate;
use mapzero::prelude::*;
use std::time::Duration;

const LIMIT: Duration = Duration::from_secs(60);

/// Hold `mapping` to the independent validator.
fn assert_valid(dfg: &Dfg, cgra: &Cgra, mapping: &Mapping, what: &str) {
    if let Err(e) = validate::check_mapping(dfg, cgra, mapping, mapping.ii) {
        panic!("{what}: validate::check_mapping: {e:?}");
    }
}

#[test]
fn exact_mapper_reaches_mii_on_every_small_kernel_and_fabric() {
    let kernels = ["sum", "mac", "conv2"];
    // MII is a lower bound, not a guarantee: on the bare 4-neighbour
    // mesh the single II=1 routing slot per PE is exhausted by "mac"'s
    // 14 edges (the exact search proves infeasibility in milliseconds),
    // so one II of slack is legitimate there. The richer HReA/HyCube
    // interconnects must reach MII exactly.
    let fabrics = [(presets::hrea(), 0), (presets::hycube(), 0), (presets::simple_mesh(4, 4), 1)];
    for (cgra, slack) in fabrics {
        for name in kernels {
            let dfg = suite::by_name(name).unwrap();
            let mut mapper = ExactMapper;
            let budget = Budget::with_deadline(LIMIT);
            let report = mapper.map(&dfg, &cgra, &budget, IiBounds::default()).unwrap();
            let mapping = report
                .mapping
                .unwrap_or_else(|| panic!("{name} on {}", cgra.name()));
            assert_valid(&dfg, &cgra, &mapping, &format!("{name} on {}", cgra.name()));
            assert!(
                mapping.ii <= report.mii + slack,
                "{name} on {}: II {} vs MII {}",
                cgra.name(),
                mapping.ii,
                report.mii
            );
        }
    }
}

#[test]
fn mapzero_maps_small_kernels_on_all_evaluation_fabrics() {
    let mut compiler = Compiler::new(MapZeroConfig::fast_test());
    for cgra in presets::evaluation_fabrics() {
        let dfg = suite::by_name("sum").unwrap();
        let report = compiler.map(&dfg, &cgra).unwrap();
        let mapping = report
            .mapping
            .unwrap_or_else(|| panic!("sum should map on {}", cgra.name()));
        assert_valid(&dfg, &cgra, &mapping, cgra.name());
    }
}

#[test]
fn mapzero_handles_temporal_mapping_ii_greater_than_one() {
    // arf has 54 nodes; on a 16-PE fabric MII = 4, forcing II > 1.
    let dfg = suite::by_name("conv3").unwrap(); // 28 nodes on 16 PEs -> MII 2
    let cgra = presets::hrea();
    let mii = Problem::mii(&dfg, &cgra).unwrap();
    assert!(mii > 1, "test needs a temporal instance");
    let mut compiler = Compiler::new(MapZeroConfig::fast_test());
    let report = compiler.map(&dfg, &cgra).unwrap();
    if let Some(m) = report.mapping {
        assert!(m.ii >= mii);
        assert_valid(&dfg, &cgra, &m, "conv3 on HReA");
    }
}

#[test]
fn heterogeneous_fabric_respects_capabilities_end_to_end() {
    let dfg = suite::by_name("mac").unwrap();
    let cgra = presets::heterogeneous();
    let mut mapper = ExactMapper;
    let budget = Budget::with_deadline(LIMIT);
    let report = mapper.map(&dfg, &cgra, &budget, IiBounds::default()).unwrap();
    let mapping = report.mapping.expect("mac maps on the Fig. 14 fabric");
    assert_valid(&dfg, &cgra, &mapping, "mac on the Fig. 14 fabric");
    for u in dfg.node_ids() {
        let pe = mapping.placement(u).pe;
        assert!(
            cgra.pe(pe).capability.supports(dfg.node(u).opcode),
            "{u} on incapable {pe}"
        );
    }
}

#[test]
fn adres_row_bus_holds_in_full_pipeline() {
    let dfg = suite::by_name("conv2").unwrap();
    let cgra = presets::adres();
    let mut mapper = ExactMapper;
    let budget = Budget::with_deadline(LIMIT);
    let report = mapper.map(&dfg, &cgra, &budget, IiBounds::default()).unwrap();
    let mapping = report.mapping.expect("conv2 maps on ADRES");
    // Both validators re-check the bus constraint independently.
    assert_valid(&dfg, &cgra, &mapping, "conv2 on ADRES");
}

#[test]
fn all_mappers_agree_on_achievable_ii_for_tiny_kernel() {
    let dfg = suite::by_name("sum").unwrap();
    let cgra = presets::hycube();
    let mut results = Vec::new();
    let mut mapzero = Compiler::new(MapZeroConfig::fast_test());
    results.push(mapzero.map(&dfg, &cgra).unwrap());
    let baselines: [&mut dyn Mapper; 3] = [&mut ExactMapper, &mut SaMapper, &mut LisaMapper];
    for mapper in baselines {
        let budget = Budget::with_deadline(LIMIT);
        results.push(mapper.map(&dfg, &cgra, &budget, IiBounds::default()).unwrap());
    }
    for r in &results {
        let m = r.mapping.as_ref().unwrap_or_else(|| panic!("{} failed", r.mapper));
        assert_valid(&dfg, &cgra, m, &r.mapper);
        assert_eq!(m.ii, r.mii, "{} missed MII", r.mapper);
    }
}

#[test]
fn suite_miis_match_resource_bounds() {
    // MII on a 16-PE homogeneous fabric equals ceil(|V|/16) for DAG-ish
    // kernels with RecMII 1.
    let cgra = presets::hrea();
    for spec in mapzero::dfg::suite::KERNELS.iter().filter(|k| !k.unrolled) {
        let dfg = mapzero::dfg::suite::build(spec);
        let mii = Problem::mii(&dfg, &cgra).unwrap();
        let res_bound = spec.vertices.div_ceil(16) as u32;
        assert!(mii >= res_bound, "{}", spec.name);
    }
}
