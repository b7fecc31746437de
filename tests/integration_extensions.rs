//! Integration tests for the fabric text format, checkpointing and
//! fabric connectivity — exercised end-to-end through the mappers.

use mapzero::arch::textfmt as arch_textfmt;
use mapzero::core::checkpoint::{load_compiler_latest, save_compiler_generation};
use mapzero::core::validate::check_mapping;
use mapzero::prelude::*;
use std::time::Duration;

const LIMIT: Duration = Duration::from_secs(30);

#[test]
fn fabric_text_format_round_trips_through_the_compiler() {
    let text = arch_textfmt::emit(&presets::hycube());
    let cgra = arch_textfmt::parse(&text).unwrap();
    let dfg = suite::by_name("sum").unwrap();
    let mut compiler = Compiler::new(MapZeroConfig::fast_test());
    let report = compiler.map(&dfg, &cgra).unwrap();
    let mapping = report.mapping.expect("parsed fabric behaves like the preset");
    assert_eq!(check_mapping(&dfg, &cgra, &mapping, mapping.ii), Ok(()));
}

#[test]
fn checkpoint_survives_process_boundary_shape() {
    let dir = std::env::temp_dir().join("mapzero_integration_ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let dfg = suite::by_name("sum").unwrap();
    let cgra = presets::hrea();
    let mut first = Compiler::new(MapZeroConfig::fast_test());
    let _ = first.map(&dfg, &cgra).unwrap();
    assert_eq!(save_compiler_generation(&first, &dir).unwrap(), 1);

    let mut second = Compiler::new(MapZeroConfig::fast_test());
    assert_eq!(load_compiler_latest(&mut second, &dir).unwrap(), Some((1, 1)));
    let report = second.map(&dfg, &cgra).unwrap();
    assert!(report.mapping.is_some());
}

#[test]
fn fabric_metrics_predict_mappability() {
    // Denser fabrics (smaller diameter) never need a *larger* II for
    // the same kernel with the exact mapper.
    let diameter = |cgra: &Cgra| {
        mapzero::arch::analysis::shortest_paths(cgra)
            .into_iter()
            .flatten()
            .map(|hops| hops.expect("connected fabric"))
            .max()
            .unwrap_or(0)
    };
    let sparse = presets::simple_mesh(4, 4);
    let dense = mapzero::arch::CgraBuilder::new("dense", 4, 4)
        .interconnect(Interconnect::Mesh)
        .interconnect(Interconnect::OneHop)
        .interconnect(Interconnect::Diagonal)
        .finish();
    assert!(diameter(&dense) < diameter(&sparse));
    let dfg = suite::by_name("mac").unwrap();
    let mut mapper = ExactMapper;
    let budget = Budget::with_deadline(LIMIT);
    let on_sparse = Mapper::map(&mut mapper, &dfg, &sparse, &budget, IiBounds::default()).unwrap();
    let on_dense = Mapper::map(&mut mapper, &dfg, &dense, &budget, IiBounds::default()).unwrap();
    if let (Some(a), Some(b)) = (on_sparse.achieved_ii(), on_dense.achieved_ii()) {
        assert!(b <= a, "denser fabric must not be worse: {b} vs {a}");
    }
}
