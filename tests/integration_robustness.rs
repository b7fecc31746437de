//! Integration tests for the supervisor contract (DESIGN.md
//! §Robustness): budgets are hard deadlines, panics are contained,
//! training divergence rolls back, and the compiler degrades to the SA
//! fallback instead of failing silently.

use mapzero::core::failpoint::{self, FailAction};
use mapzero::core::network::NetConfig;
use mapzero::core::validate::check_mapping;
use mapzero::core::{MapError, TrainError};
use mapzero::prelude::*;
use std::time::{Duration, Instant};

/// An injected panic deep inside the router surfaces as a structured
/// `MapError::Internal` from `Compiler::map`, not an unwind.
#[test]
fn injected_route_panic_is_contained_as_internal_error() {
    let cgra = presets::hrea();
    let dfg = suite::by_name("sum").unwrap();
    let mut compiler = Compiler::new(MapZeroConfig::fast_test());
    let result = {
        let _fault = failpoint::scoped("route.pre", 5, FailAction::Panic);
        compiler.map(&dfg, &cgra)
    };
    let err = result.expect_err("armed fault must abort the mapping");
    let MapError::Internal(msg) = err else {
        panic!("expected MapError::Internal, got {err:?}");
    };
    assert!(msg.contains("route.pre"), "{msg}");

    // The compiler object survives the fault and maps cleanly afterwards.
    let report = compiler.map(&dfg, &cgra).unwrap();
    assert!(report.mapping.is_some(), "compiler must recover after a contained fault");
}

/// A divergence no rollback can cure exhausts the trainer's retries and
/// surfaces as `Diverged`, convertible into the compiler error taxonomy.
#[test]
fn forced_nan_loss_diverges_with_rollback() {
    let cgra = presets::simple_mesh(2, 2);
    // The first attempt's loss is poisoned, and no retry can meet a
    // negative gradient-norm bound.
    let config = TrainConfig { max_grad_norm: -1.0, max_retries: 1, ..TrainConfig::fast_test() };
    let mut trainer = Trainer::new(cgra, NetConfig::tiny(), config);
    let _nan = failpoint::scoped("train.nan_loss", 1, FailAction::IoError);
    let err = trainer.run().unwrap_err();
    assert_eq!(err, TrainError::Diverged { epoch: 0 });
    assert_eq!(MapError::from(err), MapError::Diverged { epoch: 0 });
}

/// A transiently-NaN loss is absorbed: rollback, halve the LR, retry,
/// and finish the full epoch schedule.
#[test]
fn transient_nan_loss_recovers_via_rollback() {
    let cgra = presets::simple_mesh(2, 2);
    let config = TrainConfig::fast_test();
    let epochs = config.epochs as usize;
    let mut trainer = Trainer::new(cgra, NetConfig::tiny(), config);
    let _nan = failpoint::scoped("train.nan_loss", 1, FailAction::IoError);
    let metrics = trainer.run().unwrap();
    assert_eq!(metrics.epochs.len(), epochs);
    assert!(metrics.rollbacks >= 1);
}

/// Acceptance: a 1-second budget on an oversubscribed instance returns
/// a structured timeout (or a fallback mapping) within ~1.5 s, carrying
/// partial-mapping statistics either way.
#[test]
fn one_second_budget_returns_structured_result_in_time() {
    // 60 nodes on a 4x4 mesh with fast-test search settings: far more
    // work than one second allows.
    let dfg = mapzero::dfg::random::random_dfg(
        "oversubscribed",
        &mapzero::dfg::random::RandomDfgConfig {
            nodes: 60,
            edges: 75,
            self_cycles: 0,
            max_fanin: 3,
            seed: 7,
        },
    );
    let cgra = presets::simple_mesh(4, 4);
    let mut compiler =
        Compiler::new(MapZeroConfig::fast_test()).with_fallback(Box::new(SaMapper));

    let start = Instant::now();
    let result = compiler.map_with_limit(&dfg, &cgra, Duration::from_secs(1));
    let elapsed = start.elapsed();
    assert!(
        elapsed <= Duration::from_millis(1500),
        "budgeted map must return within ~1.5s, took {elapsed:?}"
    );
    match result {
        Err(MapError::Timeout { best_partial }) => {
            assert_eq!(best_partial.total_nodes, 60);
            assert!(
                best_partial.nodes_placed > 0 || best_partial.explored > 0,
                "partial stats must show progress: {best_partial:?}"
            );
        }
        Ok(report) => {
            // Either engine may get lucky; the report must say which.
            assert!(report.mapping.is_some());
            assert!(report.engine == "MapZero" || report.engine == "SA");
        }
        Err(e) => panic!("expected Timeout or a mapping, got {e:?}"),
    }
}

/// One timeout contract for every engine: jpegdct_u (255 nodes) cannot
/// map on HReA in 50 ms, and each engine says so as a `Timeout` carrying
/// the work it did, within the deadline plus one engine step (the
/// annealers poll the budget before every proposal, the exact mapper
/// before every placement and MapZero's MCTS before every simulation).
#[test]
fn every_engine_reports_a_tiny_deadline_as_a_timeout_with_its_work() {
    let dfg = suite::by_name("jpegdct_u").unwrap();
    let cgra = presets::hrea();
    let deadline = Duration::from_millis(50);
    for mut engine in all_engines() {
        let start = Instant::now();
        let outcome =
            engine.map(&dfg, &cgra, &Budget::with_deadline(deadline), IiBounds::default());
        let elapsed = start.elapsed();
        let name = engine.name();
        assert!(elapsed <= deadline + Duration::from_millis(150), "{name} took {elapsed:?}");
        let Err(MapError::Timeout { best_partial }) = outcome else {
            panic!("{name}: expected Timeout, got {outcome:?}");
        };
        assert_eq!(best_partial.total_nodes, dfg.node_count(), "{name}");
        assert_eq!(best_partial.best_ii, None, "{name}");
        assert!(best_partial.explored > 0, "{name}: no work counted: {best_partial:?}");
    }
}

/// A legal but large request stays inside its deadline: huf_u (592
/// nodes, the suite's largest kernel) on the 16×16 baseline under a
/// 10 ms limit returns a structured `Timeout` within the deadline plus
/// the margin the other robustness tests allow, although the first
/// attempt's candidate-map build is not charged to the budget.
#[test]
fn largest_kernel_on_the_16x16_baseline_times_out_in_time() {
    let dfg = suite::by_name("huf_u").unwrap();
    assert_eq!(dfg.node_count(), 592);
    let cgra = presets::baseline16();
    let mut compiler = Compiler::new(MapZeroConfig::fast_test());
    let deadline = Duration::from_millis(10);
    let start = Instant::now();
    let outcome = compiler.map_with_limit(&dfg, &cgra, deadline);
    let elapsed = start.elapsed();
    assert!(elapsed <= deadline + Duration::from_millis(150), "took {elapsed:?}");
    let Err(MapError::Timeout { best_partial }) = outcome else {
        panic!("expected Timeout, got {outcome:?}");
    };
    assert_eq!(best_partial.total_nodes, 592);
    assert_eq!(best_partial.best_ii, None);
}

fn all_engines() -> [Box<dyn Mapper>; 4] {
    [
        Box::new(ExactMapper),
        Box::new(SaMapper),
        Box::new(LisaMapper),
        Box::new(Compiler::new(MapZeroConfig::fast_test())),
    ]
}

/// One window contract for every engine: asked for exactly MII + 1,
/// no engine maps at MII (where `mac` maps on HReA) or above MII + 1.
#[test]
fn every_engine_stays_inside_the_requested_window() {
    let dfg = suite::by_name("mac").unwrap();
    let cgra = presets::hrea();
    let mii = Problem::mii(&dfg, &cgra).unwrap();
    let window = IiBounds { min: Some(mii + 1), max: Some(mii + 1) };
    for mut engine in all_engines() {
        let name = engine.name().to_owned();
        let budget = Budget::with_deadline(Duration::from_secs(30));
        match engine.map(&dfg, &cgra, &budget, window) {
            Ok(report) => {
                if let Some(m) = report.mapping {
                    assert_eq!(m.ii, mii + 1, "{name} mapped outside the window");
                    assert_eq!(check_mapping(&dfg, &cgra, &m, m.ii), Ok(()), "{name}");
                }
            }
            Err(MapError::Timeout { .. }) => {}
            Err(e) => panic!("{name}: {e}"),
        }
    }
}

/// A budget drained before the call is a `Timeout` from every engine,
/// with no attempt run.
#[test]
fn every_engine_times_out_on_a_drained_budget_without_an_attempt() {
    let dfg = suite::by_name("mac").unwrap();
    let cgra = presets::hrea();
    for mut engine in all_engines() {
        let budget = Budget::unlimited().with_expansion_cap(0);
        let outcome = engine.map(&dfg, &cgra, &budget, IiBounds::default());
        let name = engine.name();
        let Err(MapError::Timeout { best_partial }) = outcome else {
            panic!("{name}: expected Timeout, got {outcome:?}");
        };
        assert_eq!((best_partial.backtracks, best_partial.explored), (0, 0), "{name}");
        assert_eq!(best_partial.nodes_placed, 0, "{name}");
    }
}

/// The fallback rescuing a starved primary climbs the request's window:
/// each kernel maps at MII on HReA, and asked for MII + 1 ..= MII + 2
/// the SA fallback must map inside that window.
#[test]
fn sa_fallback_climbs_the_requested_window() {
    let cgra = presets::hrea();
    let config = MapZeroConfig { expansion_budget: Some(1), ..MapZeroConfig::fast_test() };
    let mut compiler = Compiler::new(config).with_fallback(Box::new(SaMapper));
    for kernel in ["sum", "mac", "conv2", "accumulate"] {
        let dfg = suite::by_name(kernel).unwrap();
        let mii = Problem::mii(&dfg, &cgra).unwrap();
        let window = IiBounds { min: Some(mii + 1), max: Some(mii + 2) };
        let budget = Budget::with_deadline(Duration::from_secs(60));
        let report = Mapper::map(&mut compiler, &dfg, &cgra, &budget, window)
            .unwrap_or_else(|e| panic!("{kernel}: {e}"));
        assert_eq!(report.engine, "SA", "{kernel}");
        let mapping = report.mapping.unwrap_or_else(|| panic!("{kernel}: no mapping"));
        let ii = mapping.ii;
        assert!((mii + 1..=mii + 2).contains(&ii), "{kernel}: II {ii} (MII {mii})");
        assert_eq!(check_mapping(&dfg, &cgra, &mapping, mapping.ii), Ok(()), "{kernel}");
    }
}

/// Graceful degradation: when the primary engine's budget is too small
/// to do anything, the SA fallback still produces a mapping and the
/// report credits it.
#[test]
fn sa_fallback_maps_when_primary_budget_is_exhausted() {
    let cgra = presets::hrea();
    let dfg = suite::by_name("sum").unwrap();
    // 1 expansion: the primary cannot finish a single MCTS decision.
    let config = MapZeroConfig { expansion_budget: Some(1), ..MapZeroConfig::fast_test() };
    let mut compiler = Compiler::new(config).with_fallback(Box::new(SaMapper));
    let report = compiler.map(&dfg, &cgra).expect("SA maps `sum` easily");
    assert_eq!(report.engine, "SA");
    assert_eq!(report.mapper, "MapZero");
    let mapping = report.mapping.expect("fallback produced a mapping");
    assert_eq!(check_mapping(&dfg, &cgra, &mapping, mapping.ii), Ok(()));
}
