//! Integration tests for the extension features: structured kernels,
//! DFG transforms, fabric text format, DSE and checkpointing —
//! exercised end-to-end through the mappers.

use mapzero::arch::textfmt as arch_textfmt;
use mapzero::core::checkpoint::{load_compiler, save_compiler};
use mapzero::dfg::{kernels, transform};
use mapzero::prelude::*;
use std::time::Duration;

const LIMIT: Duration = Duration::from_secs(30);

#[test]
fn structured_kernels_map_end_to_end() {
    let cgra = presets::hrea();
    let mut mapper = ExactMapper::default();
    for dfg in [kernels::fir(3), kernels::reduction(8), kernels::matmul_inner(3)] {
        let report = Mapper::map(&mut mapper, &dfg, &cgra, LIMIT).unwrap();
        let mapping = report
            .mapping
            .unwrap_or_else(|| panic!("{} should map on HReA", dfg.name()));
        assert!(mapping.validate(&dfg, &cgra).is_empty(), "{}", dfg.name());
        assert_eq!(mapping.ii, report.mii, "{}", dfg.name());
    }
}

#[test]
fn unrolled_accumulator_maps_with_internalized_carry() {
    // mac has a self-cycle; unrolling by 2 internalizes one carry and
    // doubles the work per initiation.
    let base = suite::by_name("mac").unwrap();
    let unrolled = transform::unroll(&base, 2);
    assert_eq!(unrolled.node_count(), 2 * base.node_count());
    let cgra = presets::hrea();
    let mii_base = Problem::mii(&base, &cgra).unwrap();
    let mii_unrolled = Problem::mii(&unrolled, &cgra).unwrap();
    assert!(mii_unrolled >= mii_base);
    let mut mapper = ExactMapper::default();
    let report = Mapper::map(&mut mapper, &unrolled, &cgra, LIMIT).unwrap();
    let mapping = report.mapping.expect("unrolled mac maps");
    assert!(mapping.validate(&unrolled, &cgra).is_empty());
}

#[test]
fn balanced_fanout_graph_still_maps() {
    let g = kernels::stencil3(4); // shares loads, fanout >= 3
    let balanced = transform::balance_fanout(&g, 2);
    assert!(balanced.node_ids().all(|u| balanced.out_degree(u) <= 2));
    let cgra = presets::hycube();
    let mut mapper = ExactMapper::default();
    let report = Mapper::map(&mut mapper, &balanced, &cgra, LIMIT).unwrap();
    assert!(report.mapping.is_some(), "balanced stencil maps on HyCube");
}

#[test]
fn fabric_text_format_round_trips_through_the_compiler() {
    let text = arch_textfmt::emit(&presets::hycube());
    let cgra = arch_textfmt::parse(&text).unwrap();
    let dfg = suite::by_name("sum").unwrap();
    let mut compiler = Compiler::new(MapZeroConfig::fast_test());
    let report = compiler.map(&dfg, &cgra).unwrap();
    let mapping = report.mapping.expect("parsed fabric behaves like the preset");
    assert!(mapping.validate(&dfg, &cgra).is_empty());
}

#[test]
fn checkpoint_survives_process_boundary_shape() {
    let dir = std::env::temp_dir().join("mapzero_integration_ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let dfg = suite::by_name("sum").unwrap();
    let cgra = presets::hrea();
    let mut first = Compiler::new(MapZeroConfig::fast_test());
    let _ = first.map(&dfg, &cgra).unwrap();
    assert_eq!(save_compiler(&first, &dir).unwrap(), 1);

    let mut second = Compiler::new(MapZeroConfig::fast_test());
    assert_eq!(load_compiler(&mut second, &dir).unwrap(), 1);
    let report = second.map(&dfg, &cgra).unwrap();
    assert!(report.mapping.is_some());
}

#[test]
fn fabric_metrics_predict_mappability() {
    use mapzero::arch::analysis::metrics;
    // Denser fabrics (smaller diameter) never need a *larger* II for
    // the same kernel with the exact mapper.
    let sparse = presets::simple_mesh(4, 4);
    let dense = mapzero::arch::CgraBuilder::new("dense", 4, 4)
        .interconnect(Interconnect::Mesh)
        .interconnect(Interconnect::OneHop)
        .interconnect(Interconnect::Diagonal)
        .finish();
    assert!(metrics(&dense).diameter < metrics(&sparse).diameter);
    let dfg = suite::by_name("mac").unwrap();
    let mut mapper = ExactMapper::default();
    let on_sparse = Mapper::map(&mut mapper, &dfg, &sparse, LIMIT).unwrap();
    let on_dense = Mapper::map(&mut mapper, &dfg, &dense, LIMIT).unwrap();
    if let (Some(a), Some(b)) = (on_sparse.achieved_ii(), on_dense.achieved_ii()) {
        assert!(b <= a, "denser fabric must not be worse: {b} vs {a}");
    }
}
