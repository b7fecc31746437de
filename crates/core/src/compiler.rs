//! The user-facing compiler: the agent inside the shared II search
//! ([`crate::search::IiSearch`]), the same climb every baseline runs.
//!
//! The compiler doubles as the *supervisor* of the pipeline (see
//! DESIGN.md §Robustness): every mapping attempt runs under a shared
//! [`Budget`] and inside a panic-isolation boundary, and when the
//! primary engine runs out of budget an optional fallback mapper climbs
//! the same II window under the remaining deadline before the compiler
//! reports [`MapError::Timeout`] with partial-progress statistics.

use crate::agent::{AgentConfig, MapZeroAgent};
use crate::mapping::{MapError, MapReport, Mapper};
use crate::mcts::PredictCache;
use crate::network::{MapZeroNet, NetConfig};
use crate::problem::Problem;
use crate::search::{Attempt, IiBounds, IiSearch, MAX_EXTRA_II};
use crate::supervise::{isolated, Budget};
use crate::train::{TrainConfig, TrainError, Trainer, TrainingMetrics};
use mapzero_arch::Cgra;
use mapzero_dfg::Dfg;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Compiler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapZeroConfig {
    /// Network hyper-parameters.
    pub net: NetConfig,
    /// Agent (MCTS + backtracking) parameters.
    pub agent: AgentConfig,
    /// How many IIs above MII to try before giving up.
    pub max_extra_ii: u32,
    /// Mapping episodes per II before moving to the next II.
    pub attempts_per_ii: usize,
    /// Default wall-clock budget when using [`Compiler::map`].
    pub time_limit: Duration,
    /// Optional cap on total MCTS tree expansions across all attempts
    /// of one `map` call — a deterministic work budget that composes
    /// with the wall-clock limit (`None` = time-limited only).
    pub expansion_budget: Option<u64>,
    /// Optional pre-training run per fabric (§3.6.2); `None` maps with
    /// a randomly-initialized network (slower, more backtracking).
    pub pretrain: Option<TrainConfig>,
}

impl Default for MapZeroConfig {
    fn default() -> Self {
        MapZeroConfig {
            net: NetConfig::default(),
            agent: AgentConfig::default(),
            max_extra_ii: MAX_EXTRA_II,
            attempts_per_ii: 2,
            time_limit: Duration::from_secs(300),
            expansion_budget: None,
            pretrain: Some(TrainConfig::default()),
        }
    }
}

impl MapZeroConfig {
    /// Seconds-scale configuration for tests and doc examples: tiny
    /// network, small MCTS, no pre-training.
    #[must_use]
    pub fn fast_test() -> Self {
        MapZeroConfig {
            net: NetConfig::tiny(),
            agent: AgentConfig::fast_test(),
            max_extra_ii: 3,
            attempts_per_ii: 2,
            time_limit: Duration::from_secs(60),
            expansion_budget: None,
            pretrain: None,
        }
    }
}

/// Fraction of the remaining deadline reserved for the primary engine
/// when a fallback mapper is installed; the rest is the fallback's
/// guaranteed slot.
const PRIMARY_SHARE: f64 = 0.7;

/// The MapZero compiler. Caches one network per action-space size, so
/// fabrics with equal PE counts share weights (§4.5).
///
/// Networks are held behind `Arc` so a pool of compilers (the serve
/// worker pool) can share one trained network per fabric size instead
/// of each worker paying for its own; see [`Compiler::install_shared_net`].
pub struct Compiler {
    config: MapZeroConfig,
    nets: HashMap<usize, Arc<MapZeroNet>>,
    fallback: Option<Box<dyn Mapper + Send>>,
    /// When set, agents read and write this cache instead of a private
    /// one per `map*` call, so compilers sharing it — on any thread,
    /// for any fabric — warm each other up. Entries are keyed by the
    /// network's parameters, the problem's fingerprint and the search
    /// state, so a hit replays a prediction of the same state.
    shared_cache: Option<Arc<Mutex<PredictCache>>>,
}

impl Compiler {
    /// Create a compiler.
    #[must_use]
    pub fn new(config: MapZeroConfig) -> Self {
        Compiler { config, nets: HashMap::new(), fallback: None, shared_cache: None }
    }

    /// Install a fallback mapper (typically the SA baseline) that climbs
    /// the same II window under the remaining deadline when MapZero
    /// itself fails or times out. The report's `engine` field records
    /// who actually produced the mapping.
    #[must_use]
    pub fn with_fallback(mut self, fallback: Box<dyn Mapper + Send>) -> Self {
        self.fallback = Some(fallback);
        self
    }

    /// Share a prediction cache with other compilers (the serve worker
    /// pool): every mapping episode's search reads and writes it under
    /// its lock, which is held only around probes and inserts. Without
    /// one, each `map*` call starts from an empty private cache.
    #[must_use]
    pub fn with_shared_cache(mut self, cache: Arc<Mutex<PredictCache>>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Name of the installed fallback engine, if any.
    #[must_use]
    pub fn fallback_name(&self) -> Option<&str> {
        self.fallback.as_deref().map(Mapper::name)
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &MapZeroConfig {
        &self.config
    }

    /// Install a pre-trained network for fabrics with this PE count.
    pub fn install_net(&mut self, net: MapZeroNet) {
        self.nets.insert(net.action_count(), Arc::new(net));
    }

    /// Install a network already shared with other compilers (the serve
    /// worker pool: one `Arc<MapZeroNet>` per fabric size, cloned into
    /// every worker's compiler).
    pub fn install_shared_net(&mut self, net: Arc<MapZeroNet>) {
        self.nets.insert(net.action_count(), net);
    }

    /// Borrow the network used for a given PE count, if one exists yet.
    #[must_use]
    pub fn net_for(&self, pe_count: usize) -> Option<&MapZeroNet> {
        self.nets.get(&pe_count).map(|net| &**net)
    }

    /// The shared handle to the network for a given PE count, for
    /// installing into sibling compilers.
    #[must_use]
    pub fn shared_net_for(&self, pe_count: usize) -> Option<Arc<MapZeroNet>> {
        self.nets.get(&pe_count).map(Arc::clone)
    }

    /// The action-space sizes for which networks exist, ascending.
    #[must_use]
    pub fn net_sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self.nets.keys().copied().collect();
        sizes.sort_unstable();
        sizes
    }

    /// Explicitly pre-train on a fabric (otherwise done lazily when
    /// `pretrain` is configured).
    ///
    /// # Errors
    /// Returns [`TrainError::Diverged`] when training diverged past its
    /// rollback-retry allowance; the network cache is left unchanged.
    pub fn pretrain_on(
        &mut self,
        cgra: &Cgra,
        config: TrainConfig,
    ) -> Result<TrainingMetrics, TrainError> {
        let mut trainer = Trainer::new(cgra.clone(), self.config.net, config);
        let metrics = trainer.run()?;
        self.nets.insert(cgra.pe_count(), Arc::new(trainer.into_net()));
        Ok(metrics)
    }

    /// Fine-tune the fabric's network on one particular DFG (§3.6.2:
    /// "When higher quality solutions are expected, the pre-trained
    /// agent can be further fine-tuned on the particular DFG").
    ///
    /// Returns the fine-tuning learning curves.
    ///
    /// # Errors
    /// Returns [`TrainError::Diverged`] when fine-tuning diverged past
    /// its retry allowance. The fabric's network stays usable either
    /// way: the trainer rolls back to the last healthy snapshot before
    /// giving up, and that network is re-installed.
    pub fn fine_tune(
        &mut self,
        dfg: &Dfg,
        cgra: &Cgra,
        mut config: TrainConfig,
    ) -> Result<TrainingMetrics, TrainError> {
        self.ensure_net(cgra);
        let Some(shared) = self.nets.remove(&cgra.pe_count()) else {
            return Err(TrainError::Unusable(MapError::Internal(
                "network missing after ensure_net".to_owned(),
            )));
        };
        // The trainer needs an owned network. Take it out of the Arc
        // when we are the last holder; otherwise (another compiler in a
        // pool still shares it) rebuild an identical one from the
        // shared parameters — the sibling's copy is left untouched.
        let net = Arc::try_unwrap(shared).unwrap_or_else(|shared| {
            let mut fresh = MapZeroNet::new(shared.action_count(), self.config.net);
            fresh.restore_params(shared.params.clone());
            fresh
        });
        // Fine-tuning trains on the target kernel only.
        config.curriculum_per_size = 0;
        let mut trainer =
            Trainer::with_net(cgra.clone(), net, config).with_kernel(dfg.clone());
        let result = trainer.run();
        // Re-install even on divergence: the trainer has rolled back to
        // the last healthy parameters by then.
        self.nets.insert(cgra.pe_count(), Arc::new(trainer.into_net()));
        result
    }

    fn ensure_net(&mut self, cgra: &Cgra) {
        if self.nets.contains_key(&cgra.pe_count()) {
            return;
        }
        if let Some(train_config) = self.config.pretrain {
            if self.pretrain_on(cgra, train_config).is_ok() {
                return;
            }
            // Divergent pre-training degrades to an untrained network:
            // mapping still works, just with more backtracking.
        }
        self.nets
            .insert(cgra.pe_count(), Arc::new(MapZeroNet::new(cgra.pe_count(), self.config.net)));
    }

    /// Map with the configured default time limit.
    ///
    /// # Errors
    /// Returns [`MapError`] for structurally unmappable instances,
    /// [`MapError::Timeout`] when the budget expired with no mapping
    /// (and the fallback, if any, also failed), and
    /// [`MapError::Internal`] for a contained panic.
    pub fn map(&mut self, dfg: &Dfg, cgra: &Cgra) -> Result<MapReport, MapError> {
        self.map_with_limit(dfg, cgra, self.config.time_limit)
    }

    /// Map with an explicit wall-clock budget, over the compiler's own
    /// II window.
    ///
    /// # Errors
    /// Same contract as [`Compiler::map`].
    pub fn map_with_limit(
        &mut self,
        dfg: &Dfg,
        cgra: &Cgra,
        time_limit: Duration,
    ) -> Result<MapReport, MapError> {
        Mapper::map(self, dfg, cgra, &Budget::with_deadline(time_limit), IiBounds::default())
    }

    /// The unsupervised body of [`Mapper::map`] — the trait method adds
    /// the run-level telemetry capture and outcome counters around it.
    fn map_attempts(
        &mut self,
        dfg: &Dfg,
        cgra: &Cgra,
        budget: &Budget,
        bounds: IiBounds,
    ) -> Result<MapReport, MapError> {
        let search = IiSearch::new(dfg, cgra, self.config.max_extra_ii, bounds)?;
        self.ensure_net(cgra);

        // Reserve the tail of the deadline for the fallback engine, so
        // a primary that burns its whole share still leaves the
        // fallback a real time slot.
        let primary_budget = match (self.fallback.is_some(), budget.remaining_time()) {
            (true, Some(remaining)) => budget.slice(remaining.mul_f64(PRIMARY_SHARE)),
            _ => budget.clone(),
        };

        let Some(net) = self.nets.get(&cgra.pe_count()) else {
            return Err(MapError::Internal("network missing after ensure_net".to_owned()));
        };
        let agent = match &self.shared_cache {
            Some(cache) => {
                MapZeroAgent::with_shared_cache(net, self.config.agent, Arc::clone(cache))
            }
            None => MapZeroAgent::new(net, self.config.agent),
        };
        let mut climb = search.climb(
            Problem::with_candidate_pruning,
            self.config.attempts_per_ii,
            &primary_budget,
            |problem, slice| {
                isolated("mapping attempt", || {
                    crate::failpoint!("compile.attempt");
                    agent.run_episode_budgeted(problem, slice)
                })
                .map(Attempt::from)
            },
        )?;

        // Graceful degradation: the fallback engine climbs the same
        // window under the caller's deadline. It never draws on the
        // MCTS expansion pool, so it does not inherit the cap that may
        // have starved the primary.
        let mut engine = "MapZero".to_owned();
        if climb.mapping.is_none() {
            if let Some(fb) = self.fallback.as_mut() {
                let deadline =
                    budget.deadline().map_or_else(Budget::unlimited, Budget::from_deadline_at);
                match fb.map(dfg, cgra, &deadline, search.window()) {
                    Ok(rep) => {
                        climb.stats.backtracks += rep.backtracks;
                        climb.stats.explored += rep.explored;
                        if let Some(m) = rep.mapping {
                            climb.stats.best_ii = Some(m.ii);
                            climb.stats.nodes_placed = dfg.node_count();
                            climb.stats.routed_edges = dfg.edge_count() as u64;
                            engine = fb.name().to_owned();
                            climb.mapping = Some(m);
                        }
                    }
                    // Both engines timed out: keep whichever engine's
                    // partial progress went further, so the Timeout
                    // error reports the true best.
                    Err(MapError::Timeout { best_partial }) => {
                        climb.timed_out = true;
                        climb.stats.absorb_better(&best_partial);
                    }
                    // Other fallback failures (unmappable per the
                    // fallback's own model, internal faults) do not
                    // improve on the primary's diagnosis.
                    Err(_) => {}
                }
            }
        }
        search.report(climb, "MapZero", &engine, budget)
    }
}

/// The full supervised pipeline, and the serve layer's entry point:
///
/// 1. `config.expansion_budget`, when set, caps the expansions the
///    call's MCTS may charge to `budget` (a cap the caller already set
///    is never loosened).
/// 2. The II search ([`IiSearch`]) runs attempts under per-attempt
///    slices of the budget over the compiler's window intersected with
///    `window`; each attempt is panic-isolated (a fault in routing or
///    search becomes [`MapError::Internal`], not an unwind).
/// 3. When a fallback engine is installed, the primary only gets
///    `PRIMARY_SHARE` of the deadline; on primary failure the fallback
///    climbs the primary's window under whatever deadline remains, and
///    the report's `engine` field records who produced the mapping.
/// 4. A budget that expires with no mapping from either engine is an
///    error: [`MapError::Timeout`] carrying
///    [`PartialMapStats`](crate::PartialMapStats) (best II, peak nodes
///    placed, routed edges, backtracks, explored states).
/// 5. With telemetry enabled (see [`mapzero_obs`]), the whole call runs
///    under a `compile.map` span and a run capture, and the returned
///    report carries per-phase budget attribution in
///    `MapReport::telemetry`.
impl Mapper for Compiler {
    fn name(&self) -> &str {
        "MapZero"
    }

    fn map(
        &mut self,
        dfg: &Dfg,
        cgra: &Cgra,
        budget: &Budget,
        window: IiBounds,
    ) -> Result<MapReport, MapError> {
        let _span = mapzero_obs::span!("compile.map");
        let capture = mapzero_obs::RunCapture::begin();
        let budget = match self.config.expansion_budget {
            Some(cap) => budget.clone().with_expansion_cap(cap),
            None => budget.clone(),
        };
        let result = self.map_attempts(dfg, cgra, &budget, window);
        match &result {
            Ok(report) if report.engine == report.mapper => {
                mapzero_obs::counter!("compile.success");
            }
            Ok(_) => mapzero_obs::counter!("compile.fallback_success"),
            Err(e) => {
                let name = match e {
                    MapError::Unmappable(_) => "compile.err.unmappable",
                    MapError::NoSchedule(_) => "compile.err.no_schedule",
                    MapError::Timeout { .. } => "compile.err.timeout",
                    MapError::Diverged { .. } => "compile.err.diverged",
                    MapError::Internal(_) => "compile.err.internal",
                };
                mapzero_obs::metrics::registry().counter(name).inc();
                if let MapError::Timeout { best_partial } = e {
                    mapzero_obs::gauge!(
                        "compile.partial.nodes_placed",
                        best_partial.nodes_placed as u64
                    );
                    mapzero_obs::gauge!(
                        "compile.partial.routed_edges",
                        best_partial.routed_edges
                    );
                }
            }
        }
        result.map(|mut report| {
            report.telemetry = capture.map(mapzero_obs::RunCapture::finish);
            report
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{Mapping, PartialMapStats};
    use crate::validate::check_mapping;
    use mapzero_arch::presets;
    use mapzero_dfg::suite;

    #[test]
    fn maps_small_suite_kernels_on_hrea() {
        let cgra = presets::hrea();
        let mut compiler = Compiler::new(MapZeroConfig::fast_test());
        for dfg in suite::small() {
            let report = compiler.map(&dfg, &cgra).unwrap();
            let mapping = report
                .mapping
                .as_ref()
                .unwrap_or_else(|| panic!("{} should map on HReA", dfg.name()));
            assert_eq!(check_mapping(&dfg, &cgra, mapping, mapping.ii), Ok(()), "{}", dfg.name());
            assert!(report.mii <= mapping.ii);
        }
    }

    #[test]
    fn maps_on_hycube_circuit_switched() {
        let cgra = presets::hycube();
        let mut compiler = Compiler::new(MapZeroConfig::fast_test());
        let dfg = suite::by_name("mac").unwrap();
        let report = compiler.map(&dfg, &cgra).unwrap();
        let mapping = report.mapping.expect("mac maps on HyCube");
        assert_eq!(check_mapping(&dfg, &cgra, &mapping, mapping.ii), Ok(()));
    }

    #[test]
    fn network_reused_across_equal_sized_fabrics() {
        let mut compiler = Compiler::new(MapZeroConfig::fast_test());
        let dfg = suite::by_name("sum").unwrap();
        let _ = compiler.map(&dfg, &presets::hrea()).unwrap();
        assert!(compiler.net_for(16).is_some());
        let _ = compiler.map(&dfg, &presets::hycube()).unwrap();
        // Still exactly one 16-PE network.
        assert_eq!(compiler.nets.len(), 1);
    }

    #[test]
    fn unmappable_instance_is_an_error() {
        let cgra = mapzero_arch::CgraBuilder::new("no-mem", 2, 2)
            .all_capabilities(mapzero_arch::Capability::COMPUTE)
            .finish();
        let mut compiler = Compiler::new(MapZeroConfig::fast_test());
        let dfg = suite::by_name("sum").unwrap();
        assert!(compiler.map(&dfg, &cgra).is_err());
    }

    #[test]
    fn zero_time_budget_is_a_structured_timeout() {
        let cgra = presets::hrea();
        let mut compiler = Compiler::new(MapZeroConfig::fast_test());
        let dfg = suite::by_name("accumulate").unwrap();
        let err = compiler.map_with_limit(&dfg, &cgra, Duration::ZERO).unwrap_err();
        let MapError::Timeout { best_partial } = err else {
            panic!("expected Timeout, got {err:?}");
        };
        assert_eq!(best_partial.total_nodes, dfg.node_count());
        assert_eq!(best_partial.best_ii, None);
    }

    #[test]
    fn expansion_budget_alone_bounds_the_search() {
        let cgra = presets::hrea();
        let config = MapZeroConfig { expansion_budget: Some(10), ..MapZeroConfig::fast_test() };
        let mut compiler = Compiler::new(config);
        // 54 nodes cannot map within 10 tree expansions.
        let dfg = suite::by_name("arf").unwrap();
        let err = compiler.map(&dfg, &cgra).unwrap_err();
        let MapError::Timeout { best_partial } = err else {
            panic!("expected Timeout, got {err:?}");
        };
        assert!(best_partial.explored > 0 || best_partial.nodes_placed > 0);
    }

    #[test]
    fn successful_map_reports_primary_engine() {
        let cgra = presets::hrea();
        let mut compiler = Compiler::new(MapZeroConfig::fast_test());
        let dfg = suite::by_name("sum").unwrap();
        let report = compiler.map(&dfg, &cgra).unwrap();
        assert_eq!(report.engine, "MapZero");
        assert!(report.mapping.is_some());
    }

    /// A fallback stub that records invocation and always fails.
    struct NeverMaps {
        called: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl Mapper for NeverMaps {
        fn name(&self) -> &str {
            "never"
        }
        fn map(
            &mut self,
            _dfg: &Dfg,
            _cgra: &Cgra,
            _budget: &Budget,
            _window: IiBounds,
        ) -> Result<MapReport, MapError> {
            self.called.store(true, std::sync::atomic::Ordering::Relaxed);
            Err(MapError::Unmappable("stub".into()))
        }
    }

    /// A fallback stub that always times out, carrying a partial result
    /// further along than anything the starved primary can reach.
    struct TimesOutFurther;

    impl Mapper for TimesOutFurther {
        fn name(&self) -> &str {
            "slow-but-deep"
        }
        fn map(
            &mut self,
            dfg: &Dfg,
            _cgra: &Cgra,
            _budget: &Budget,
            _window: IiBounds,
        ) -> Result<MapReport, MapError> {
            Err(MapError::Timeout {
                best_partial: PartialMapStats {
                    total_nodes: dfg.node_count(),
                    nodes_placed: dfg.node_count() - 1,
                    routed_edges: dfg.edge_count() as u64 - 1,
                    backtracks: 3,
                    explored: 40,
                    best_ii: None,
                },
            })
        }
    }

    #[test]
    fn both_engines_timing_out_reports_the_better_partial() {
        // Regression: the fallback's Timeout partial used to be dropped
        // entirely (`if let Ok(..)`), so a primary starved to zero
        // progress reported zero even when the fallback nearly
        // finished.
        let cgra = presets::hrea();
        let config = MapZeroConfig { expansion_budget: Some(1), ..MapZeroConfig::fast_test() };
        let mut compiler = Compiler::new(config).with_fallback(Box::new(TimesOutFurther));
        let dfg = suite::by_name("arf").unwrap();
        let err = compiler.map(&dfg, &cgra).unwrap_err();
        let MapError::Timeout { best_partial } = err else {
            panic!("expected Timeout, got {err:?}");
        };
        assert_eq!(best_partial.nodes_placed, dfg.node_count() - 1);
        assert_eq!(best_partial.routed_edges, dfg.edge_count() as u64 - 1);
        // Work counters sum across engines rather than being replaced.
        assert!(best_partial.explored >= 40);
        assert!(best_partial.backtracks >= 3);
    }

    #[test]
    fn empty_ii_window_is_no_schedule() {
        let cgra = presets::hrea();
        let mut compiler = Compiler::new(MapZeroConfig::fast_test());
        let dfg = suite::by_name("sum").unwrap();
        let unlimited = Budget::unlimited();
        let window = IiBounds { min: Some(50), max: Some(60) };
        let err = Mapper::map(&mut compiler, &dfg, &cgra, &unlimited, window).unwrap_err();
        assert!(matches!(err, MapError::NoSchedule(_)), "{err:?}");
        // A max below MII is likewise empty.
        let window = IiBounds { min: None, max: Some(0) };
        let err = Mapper::map(&mut compiler, &dfg, &cgra, &unlimited, window).unwrap_err();
        assert!(matches!(err, MapError::NoSchedule(_)), "{err:?}");
    }

    #[test]
    fn ii_bounds_respected_by_successful_mapping() {
        let cgra = presets::hrea();
        let mut compiler = Compiler::new(MapZeroConfig::fast_test());
        let dfg = suite::by_name("sum").unwrap();
        let window = IiBounds { min: Some(2), max: None };
        let report = Mapper::map(&mut compiler, &dfg, &cgra, &Budget::unlimited(), window).unwrap();
        let mapping = report.mapping.expect("sum maps at II >= 2");
        assert!(mapping.ii >= 2, "ii_min must floor the search, got {}", mapping.ii);
        assert_eq!(check_mapping(&dfg, &cgra, &mapping, mapping.ii), Ok(()));
    }

    #[test]
    fn shared_cache_compilers_produce_identical_mappings() {
        let cgra = presets::hrea();
        let dfg = suite::by_name("mac").unwrap();
        let mut solo = Compiler::new(MapZeroConfig::fast_test());
        let baseline = solo.map(&dfg, &cgra).unwrap();

        let cache = Arc::new(Mutex::new(PredictCache::new(256)));
        let mut a = Compiler::new(MapZeroConfig::fast_test())
            .with_shared_cache(Arc::clone(&cache));
        let first = a.map(&dfg, &cgra).unwrap();
        // Second compiler starts with a warm shared cache; its hits
        // replay what the first compile computed at the same states, so
        // the mapping cannot change.
        let net = a.shared_net_for(cgra.pe_count()).unwrap();
        let mut b = Compiler::new(MapZeroConfig::fast_test())
            .with_shared_cache(Arc::clone(&cache));
        b.install_shared_net(net);
        let second = b.map(&dfg, &cgra).unwrap();
        assert!(!cache.lock().unwrap().is_empty(), "shared cache must be warmed");
        assert_eq!(baseline.mapping, first.mapping);
        assert_eq!(first.mapping, second.mapping);
    }

    /// One cache shared across problems of equal size (the serve
    /// pool's) never serves one problem's predictions to another:
    /// `mults2` compiled after `cap` (both 42 nodes) on ADRES through
    /// one cache maps exactly as a cold `mults2` compile.
    #[test]
    fn shared_cache_never_serves_another_problems_predictions() {
        let cgra = presets::adres();
        let cap = suite::by_name("cap").unwrap();
        let mults2 = suite::by_name("mults2").unwrap();
        assert_eq!(cap.node_count(), mults2.node_count());
        let cold = Compiler::new(MapZeroConfig::fast_test()).map(&mults2, &cgra).unwrap();

        let cache = Arc::new(Mutex::new(PredictCache::new(4096)));
        let mut shared =
            Compiler::new(MapZeroConfig::fast_test()).with_shared_cache(Arc::clone(&cache));
        let _ = shared.map(&cap, &cgra);
        assert!(!cache.lock().unwrap().is_empty(), "cap must warm the shared cache");
        let warm = shared.map(&mults2, &cgra).unwrap();
        assert_eq!(cold.mapping, warm.mapping);
    }

    fn cold_mapping(dfg: &Dfg, cgra: &Cgra) -> Option<Mapping> {
        Compiler::new(MapZeroConfig::fast_test()).map(dfg, cgra).unwrap().mapping
    }

    /// One shared cache keeps every network's entries side by side:
    /// `sum` on HReA, then `mults1` on ADRES (another fabric size, so
    /// another network), then `sum` on HReA again through one compiler.
    /// The third compile hits on every state, so the cache does not
    /// grow, and each mapping equals a cold compile's.
    #[test]
    fn shared_cache_keeps_entries_across_network_switches() {
        let (hrea, adres) = (presets::hrea(), presets::adres());
        let sum = suite::by_name("sum").unwrap();
        let mults1 = suite::by_name("mults1").unwrap();
        assert_ne!(hrea.pe_count(), adres.pe_count());
        let cache = Arc::new(Mutex::new(PredictCache::new(PredictCache::CAPACITY)));
        let mut shared =
            Compiler::new(MapZeroConfig::fast_test()).with_shared_cache(Arc::clone(&cache));
        assert_eq!(shared.map(&sum, &hrea).unwrap().mapping, cold_mapping(&sum, &hrea));
        assert_eq!(shared.map(&mults1, &adres).unwrap().mapping, cold_mapping(&mults1, &adres));
        let entries = cache.lock().unwrap().len();
        assert_eq!(shared.map(&sum, &hrea).unwrap().mapping, cold_mapping(&sum, &hrea));
        assert_eq!(cache.lock().unwrap().len(), entries, "the repeated compile missed the cache");
    }

    /// Two threads, each with its own compiler over one shared cache and
    /// shared networks, interleave HReA and ADRES kernels: every mapping
    /// equals its cold compile's, whatever the other thread inserted.
    #[test]
    fn shared_cache_across_threads_matches_cold_compiles() {
        let (hrea, adres) = (presets::hrea(), presets::adres());
        let jobs: Vec<(Dfg, &Cgra)> =
            [("sum", &hrea), ("mults1", &adres), ("mac", &hrea), ("cap", &adres)]
                .into_iter()
                .map(|(kernel, cgra)| (suite::by_name(kernel).unwrap(), cgra))
                .collect();
        let cold: Vec<Option<Mapping>> =
            jobs.iter().map(|(dfg, cgra)| cold_mapping(dfg, cgra)).collect();
        let cache = Arc::new(Mutex::new(PredictCache::new(PredictCache::CAPACITY)));
        let mut owner = Compiler::new(MapZeroConfig::fast_test());
        owner.ensure_net(&hrea);
        owner.ensure_net(&adres);
        let nets =
            [hrea.pe_count(), adres.pe_count()].map(|pes| owner.shared_net_for(pes).unwrap());
        std::thread::scope(|scope| {
            for offset in 0..2 {
                let (jobs, cold, cache, nets) = (&jobs, &cold, &cache, &nets);
                scope.spawn(move || {
                    let mut compiler = Compiler::new(MapZeroConfig::fast_test())
                        .with_shared_cache(Arc::clone(cache));
                    for net in nets {
                        compiler.install_shared_net(Arc::clone(net));
                    }
                    for i in (0..jobs.len()).map(|k| (k + offset) % jobs.len()) {
                        let (dfg, cgra) = &jobs[i];
                        let report = compiler.map(dfg, cgra).unwrap();
                        assert_eq!(report.mapping, cold[i], "{} on thread {offset}", dfg.name());
                    }
                });
            }
        });
        assert!(!cache.lock().unwrap().is_empty());
    }

    #[test]
    fn failed_fallback_still_times_out_with_stats() {
        let called = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let fb = NeverMaps { called: std::sync::Arc::clone(&called) };
        let cgra = presets::hrea();
        let config = MapZeroConfig { expansion_budget: Some(10), ..MapZeroConfig::fast_test() };
        let mut compiler = Compiler::new(config).with_fallback(Box::new(fb));
        assert_eq!(compiler.fallback_name(), Some("never"));
        let dfg = suite::by_name("arf").unwrap();
        let err = compiler.map(&dfg, &cgra).unwrap_err();
        assert!(matches!(err, MapError::Timeout { .. }), "{err:?}");
        assert!(
            called.load(std::sync::atomic::Ordering::Relaxed),
            "fallback must be consulted before giving up"
        );
    }
}

#[cfg(test)]
mod fine_tune_tests {
    use super::*;
    use mapzero_arch::presets;
    use mapzero_dfg::suite;

    #[test]
    fn fine_tune_runs_and_keeps_network_usable() {
        let cgra = presets::hrea();
        let dfg = suite::by_name("mac").unwrap();
        let mut compiler = Compiler::new(MapZeroConfig::fast_test());
        let metrics = compiler.fine_tune(&dfg, &cgra, TrainConfig::fast_test()).unwrap();
        assert!(!metrics.epochs.is_empty());
        // The tuned network still maps the kernel.
        let report = compiler.map(&dfg, &cgra).unwrap();
        assert!(report.mapping.is_some());
    }
}
