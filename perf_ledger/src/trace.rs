//! Outside-in tracing: every layer is timed by calls into its public
//! functions, never by code inside it.
//!
//! * [`replay`] re-runs one compile's II loop the way
//!   `Compiler::map_with_limit` runs it — `Problem::mii`, `Problem::new`
//!   per II, `with_candidate_pruning`, one `MapZeroAgent` running
//!   `run_episode_budgeted` under the compiler's per-attempt budget
//!   slices — then `validate::check_mapping`. Each call is timed, and
//!   the `mapzero_obs` phase ledger splits the episodes into embed,
//!   infer, expand and route. The replay must reproduce the untraced
//!   compile's counts exactly.
//! * [`probe`] walks a finished mapping through `MapEnv::step` and
//!   `MapEnv::undo`, calls `embed::observe` at every prefix, and runs
//!   `predict`, `predict_batch` and one 32-sample `train_batch` on the
//!   observations.
//! * [`Span`] is the `{wall, children, unattributed}` tree; a child's
//!   time is always measured inside its parent's interval, so
//!   Σ children ≤ parent holds at every level.

use crate::stats::{geomean, median};
use crate::{secs_since, RunResult};
use mapzero_arch::{Cgra, PeId};
use mapzero_core::embed::{observe, Observation};
use mapzero_core::network::TrainSample;
use mapzero_core::{
    validate, Budget, Compiler, MapEnv, MapError, MapZeroAgent, MapZeroConfig, MapZeroNet, Mapping,
    Problem,
};
use mapzero_dfg::Dfg;
use mapzero_obs::json::Json;
use mapzero_obs::metrics::{registry, Counter};
use mapzero_obs::{Phase, PhaseLedger};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counters (always live, traced or not) a compile's work is counted
/// in.
const COUNTER_NAMES: [&str; 8] = [
    "mcts.expansions",
    "mcts.simulations",
    "route.routed",
    "route.conflicts",
    "search.prune.dead_state",
    "search.expand.offered",
    "search.predict_cache.hit",
    "search.predict_cache.miss",
];
const EXPANSIONS: usize = 0;
const SIMULATIONS: usize = 1;
const ROUTED: usize = 2;
const CONFLICTS: usize = 3;
const DEAD_STATES: usize = 4;
const OFFERED: usize = 5;
const CACHE_HIT: usize = 6;
const CACHE_MISS: usize = 7;

/// Handles to [`COUNTER_NAMES`], read before and after a call to
/// attribute the work it did. Only meaningful while nothing else in the
/// process compiles.
pub struct Counters(Vec<Arc<Counter>>);

impl Counters {
    /// Look the counters up once.
    #[must_use]
    pub fn new() -> Self {
        Counters(
            COUNTER_NAMES
                .iter()
                .map(|name| registry().counter(name))
                .collect(),
        )
    }

    /// Current values.
    #[must_use]
    pub fn read(&self) -> [u64; 8] {
        std::array::from_fn(|i| self.0[i].get())
    }

    /// Work counted since `before` (an earlier [`Counters::read`]).
    #[must_use]
    pub fn since(&self, before: [u64; 8]) -> [u64; 8] {
        let now = self.read();
        std::array::from_fn(|i| now[i].saturating_sub(before[i]))
    }
}

/// The work one compile did. A deterministic compile repeats these
/// exactly, traced or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Achieved II (0 when unmapped).
    pub ii: u32,
    /// Agent backtracks summed over attempts.
    pub backtracks: u64,
    /// Agent placement steps summed over attempts.
    pub explored: u64,
    /// MCTS tree expansions.
    pub expansions: u64,
    /// MCTS simulations.
    pub simulations: u64,
    /// Edges routed.
    pub routed: u64,
    /// Route attempts that found no path.
    pub conflicts: u64,
    /// States the candidate sets proved dead.
    pub dead_states: u64,
}

impl Counts {
    /// Counts of a compile from its achieved II, its agent totals and
    /// the counter deltas over the call.
    #[must_use]
    pub fn new(ii: u32, backtracks: u64, explored: u64, counters: [u64; 8]) -> Self {
        Counts {
            ii,
            backtracks,
            explored,
            expansions: counters[EXPANSIONS],
            simulations: counters[SIMULATIONS],
            routed: counters[ROUTED],
            conflicts: counters[CONFLICTS],
            dead_states: counters[DEAD_STATES],
        }
    }

    /// The counts as a JSON object.
    #[must_use]
    pub fn to_json(self) -> Json {
        Json::obj(vec![
            ("ii", Json::from(u64::from(self.ii))),
            ("backtracks", Json::from(self.backtracks)),
            ("explored", Json::from(self.explored)),
            ("expansions", Json::from(self.expansions)),
            ("simulations", Json::from(self.simulations)),
            ("routed", Json::from(self.routed)),
            ("conflicts", Json::from(self.conflicts)),
            ("dead_states", Json::from(self.dead_states)),
        ])
    }
}

/// Per-instance counts as a JSON object keyed by instance label.
#[must_use]
pub fn counts_json(counts: &[(String, Counts)]) -> Json {
    Json::Obj(
        counts
            .iter()
            .map(|(label, c)| (label.clone(), c.to_json()))
            .collect(),
    )
}

/// One node of the time tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or call name.
    pub name: String,
    /// Wall seconds (thread seconds for multi-threaded parents).
    pub wall_s: f64,
    /// Parts measured inside this span.
    pub children: Vec<Span>,
}

impl Span {
    /// A span with children.
    #[must_use]
    pub fn new(name: &str, wall_s: f64, children: Vec<Span>) -> Self {
        Span {
            name: name.to_owned(),
            wall_s,
            children,
        }
    }

    /// A span without children.
    #[must_use]
    pub fn leaf(name: &str, wall_s: f64) -> Self {
        Span::new(name, wall_s, Vec::new())
    }

    /// Time inside this span that no child accounts for.
    #[must_use]
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s - self.children.iter().map(|c| c.wall_s).sum::<f64>()
    }

    /// Every place where Σ children exceeds the parent (beyond float
    /// rounding) or a time is negative, as `path: detail` strings.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_violations("", &mut out);
        out
    }

    fn collect_violations(&self, prefix: &str, out: &mut Vec<String>) {
        let path = format!("{prefix}{}", self.name);
        let slack = 1e-9 * self.wall_s.abs().max(1.0);
        if self.wall_s.is_nan() || self.wall_s < 0.0 || self.unattributed_s() < -slack {
            out.push(format!(
                "{path}: wall {:.9} s, children {:.9} s",
                self.wall_s,
                self.wall_s - self.unattributed_s()
            ));
        }
        for child in &self.children {
            child.collect_violations(&format!("{path}/"), out);
        }
    }

    /// `{name, wall_s, children, unattributed_s}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::from(self.name.as_str())),
            ("wall_s", Json::Num(self.wall_s)),
            (
                "children",
                Json::Arr(self.children.iter().map(Span::to_json).collect()),
            ),
            ("unattributed_s", Json::Num(self.unattributed_s())),
        ])
    }
}

/// Record a set of trees in the run: their violations and their JSON.
pub fn record_trees(result: &mut RunResult, trees: &[Span]) {
    for tree in trees {
        result.tree_violations.extend(tree.violations());
    }
    result.detail("tree", Json::Arr(trees.iter().map(Span::to_json).collect()));
}

/// Seconds of one phase in a ledger delta.
#[must_use]
pub fn phase_s(ledger: &PhaseLedger, phase: Phase) -> f64 {
    ledger.get(phase).as_secs_f64()
}

/// The compile phases an agent episode splits into.
pub const EPISODE_PHASES: [Phase; 4] = [Phase::Embed, Phase::Infer, Phase::Expand, Phase::Route];

/// Observations fed to `predict` and samples in the `train_batch` probe.
const SAMPLES: usize = 32;
/// Leaves per `predict_batch` probe (the MCTS leaf batch).
const LEAVES: usize = 8;

/// One compile to replay.
pub struct Replay<'a> {
    /// Instance label (`kernel/fabric`).
    pub label: &'a str,
    /// The kernel.
    pub dfg: &'a Dfg,
    /// The fabric.
    pub cgra: &'a Cgra,
    /// The network the untraced compile used.
    pub net: &'a MapZeroNet,
    /// The compiler configuration the untraced compile used.
    pub config: &'a MapZeroConfig,
    /// The wall-clock limit the untraced compile ran under.
    pub limit: Duration,
    /// The untraced compile's counts, which the replay must reproduce.
    pub reference: Counts,
    /// The untraced compile's median wall seconds (tracing overhead).
    pub untraced_s: f64,
}

/// Layer totals accumulated over a workload's replays and probes.
#[derive(Debug, Default)]
pub struct Layers {
    replay_s: f64,
    schedule_s: f64,
    candidates_s: f64,
    episode_s: f64,
    episode_phases: [f64; 4],
    validate_s: f64,
    attempts: u64,
    successes: u64,
    backtracks: u64,
    steps: u64,
    counters: [u64; 8],
    batch_count: u64,
    batch_sum: u64,
    overhead: Vec<f64>,
    probe_s: f64,
    observe_us: Vec<f64>,
    step_us: Vec<f64>,
    undo_us: Vec<f64>,
    predict_us: Vec<f64>,
    batch_leaf_us: Vec<f64>,
    train_batch_ms: Vec<f64>,
    probe_backprop_s: f64,
}

fn batch_histogram() -> (u64, u64) {
    let snap = registry().histogram("nn.batch.size").snapshot();
    (snap.count, snap.sum)
}

/// Replay one compile (tracing must be on, via
/// `mapzero_obs::set_enabled`). Returns the mapping it found. A replay
/// that does not reproduce the reference counts, or whose mapping the
/// validator rejects, is a failed operation.
pub fn replay(
    r: &Replay<'_>,
    counters: &Counters,
    layers: &mut Layers,
    result: &mut RunResult,
) -> Option<Mapping> {
    result.attempted += 1;
    let counters_before = counters.read();
    let (batch_count, batch_sum) = batch_histogram();
    let start = Instant::now();
    let budget = Budget::with_deadline(r.limit);

    let t = Instant::now();
    let mii = match Problem::mii(r.dfg, r.cgra) {
        Ok(mii) => mii,
        Err(e) => {
            result.fail(format!("{}: replay: {e}", r.label));
            return None;
        }
    };
    let mut schedule_s = secs_since(t);
    let mut candidates_s = 0.0;
    let mut episode_s = 0.0;
    let mut phases = [0.0; 4];
    let (mut attempts, mut successes, mut backtracks, mut steps) = (0u64, 0u64, 0u64, 0u64);
    let mut timed_out = false;
    let mut mapping = None;
    let ii_hi = mii + r.config.max_extra_ii;
    let per_ii = r.config.attempts_per_ii;
    let agent = MapZeroAgent::new(r.net, r.config.agent);
    'outer: for ii in mii..=ii_hi {
        let t = Instant::now();
        let problem = match Problem::new(r.dfg, r.cgra, ii) {
            Ok(p) => p,
            Err(MapError::NoSchedule(_)) => {
                schedule_s += secs_since(t);
                continue;
            }
            Err(e) => {
                result.fail(format!("{}: replay: {e}", r.label));
                return None;
            }
        };
        schedule_s += secs_since(t);
        let t = Instant::now();
        let problem = problem.with_candidate_pruning();
        candidates_s += secs_since(t);
        let remaining_iis = ii_hi - ii + 1;
        for _ in 0..per_ii {
            if budget.exhausted() {
                timed_out = true;
                break 'outer;
            }
            // The compiler's slicing: an even share of what is left per
            // remaining attempt, but never less than an eighth.
            let slice = match budget.remaining_time() {
                Some(left) => budget.slice((left / remaining_iis / per_ii as u32).max(left / 8)),
                None => budget.clone(),
            };
            let ledger = PhaseLedger::snapshot();
            let t = Instant::now();
            let episode = agent.run_episode_budgeted(&problem, &slice);
            episode_s += secs_since(t);
            let spent = PhaseLedger::snapshot().delta(&ledger);
            for (acc, phase) in phases.iter_mut().zip(EPISODE_PHASES) {
                *acc += phase_s(&spent, phase);
            }
            attempts += 1;
            backtracks += episode.backtracks;
            steps += episode.steps;
            timed_out |= episode.timed_out;
            if let Some(m) = episode.mapping {
                successes += 1;
                mapping = Some(m);
                break 'outer;
            }
        }
    }
    let work = counters.since(counters_before);
    let (batch_count_after, batch_sum_after) = batch_histogram();

    let t = Instant::now();
    let verdict = mapping
        .as_ref()
        .map(|m| validate::check_mapping(r.dfg, r.cgra, m, m.ii));
    let validate_s = secs_since(t);
    let wall = secs_since(start);

    let counts = Counts::new(
        mapping.as_ref().map_or(0, |m| m.ii),
        backtracks,
        steps,
        work,
    );
    if counts != r.reference {
        result.fail(format!(
            "{}: replay mismatch: untraced {} vs traced {}",
            r.label,
            r.reference.to_json().to_string_compact(),
            counts.to_json().to_string_compact()
        ));
        result.unstable.push(format!("{}: traced replay", r.label));
    }
    match verdict {
        None => result.fail(format!("{}: replay found no mapping", r.label)),
        Some(Err(errs)) => result.fail(format!(
            "{}: replay mapping rejected: {}",
            r.label,
            errs.join("; ")
        )),
        Some(Ok(())) => {}
    }
    if timed_out {
        result.fail(format!("{}: replay hit the deadline", r.label));
    }

    layers.replay_s += wall;
    layers.schedule_s += schedule_s;
    layers.candidates_s += candidates_s;
    layers.episode_s += episode_s;
    for (acc, p) in layers.episode_phases.iter_mut().zip(phases) {
        *acc += p;
    }
    layers.validate_s += validate_s;
    layers.attempts += attempts;
    layers.successes += successes;
    layers.backtracks += backtracks;
    layers.steps += steps;
    for (acc, w) in layers.counters.iter_mut().zip(work) {
        *acc += w;
    }
    layers.batch_count += batch_count_after.saturating_sub(batch_count);
    layers.batch_sum += batch_sum_after.saturating_sub(batch_sum);
    if r.untraced_s > 0.0 {
        layers.overhead.push(wall / r.untraced_s);
    }
    mapping
}

/// Compile `dfg` on `cgra` once untraced with `compiler` (the
/// reference), then replay and probe the same compile traced with the
/// compiler's network and configuration. Returns the reference II.
#[allow(clippy::too_many_arguments)]
pub fn compile_and_replay(
    label: &str,
    dfg: &Dfg,
    cgra: &Cgra,
    compiler: &mut Compiler,
    limit: Duration,
    counters: &Counters,
    layers: &mut Layers,
    result: &mut RunResult,
) -> Option<u32> {
    result.attempted += 1;
    let before = counters.read();
    let t = Instant::now();
    let report = compiler.map_with_limit(dfg, cgra, limit);
    let untraced_s = secs_since(t);
    let work = counters.since(before);
    let reference = match report {
        Ok(r) if r.mapping.is_some() && !r.timed_out => {
            Counts::new(r.achieved_ii().unwrap_or(0), r.backtracks, r.explored, work)
        }
        Ok(r) => {
            result.fail(format!(
                "{label}: untraced compile: mapped {}, deadline hit {}",
                r.mapping.is_some(),
                r.timed_out
            ));
            return None;
        }
        Err(e) => {
            result.fail(format!("{label}: untraced compile: {e}"));
            return None;
        }
    };
    let config = *compiler.config();
    let net = compiler
        .net_for(cgra.pe_count())
        .expect("the untraced compile installed it");
    mapzero_obs::set_enabled(true);
    let replay = Replay {
        label,
        dfg,
        cgra,
        net,
        config: &config,
        limit,
        reference,
        untraced_s,
    };
    if let Some(mapping) = self::replay(&replay, counters, layers, result) {
        probe(label, dfg, cgra, net, &mapping, layers, result);
    }
    mapzero_obs::set_enabled(false);
    Some(reference.ii)
}

/// Probe the environment, embedding and network layers on a finished
/// mapping of `dfg` on `cgra` (see the module docs). A mapping whose
/// placements do not step through the environment cleanly is a failed
/// operation.
pub fn probe(
    label: &str,
    dfg: &Dfg,
    cgra: &Cgra,
    net: &MapZeroNet,
    mapping: &Mapping,
    layers: &mut Layers,
    result: &mut RunResult,
) {
    let start = Instant::now();
    let problem = match Problem::new(dfg, cgra, mapping.ii) {
        Ok(p) => p.with_candidate_pruning(),
        Err(e) => {
            result.fail(format!("{label}: probe: {e}"));
            return;
        }
    };
    let mut env = MapEnv::new(&problem);
    let mut observations: Vec<(Observation, PeId)> = Vec::with_capacity(dfg.node_count());
    while let Some(node) = env.current_node() {
        let pe = mapping.placement(node).pe;
        let t = Instant::now();
        let obs = observe(&env);
        layers.observe_us.push(secs_since(t) * 1e6);
        if !env.action_mask()[pe.index()] {
            result.fail(format!("{label}: probe: mapped {pe} is masked for {node}"));
            return;
        }
        let t = Instant::now();
        let outcome = env.step(pe);
        layers.step_us.push(secs_since(t) * 1e6);
        observations.push((obs, pe));
        if outcome.failed_routes > 0 {
            result.fail(format!(
                "{label}: probe: placing {node} on {pe} fails to route"
            ));
            return;
        }
    }
    if !env.success() {
        result.fail(format!(
            "{label}: probe: placements do not replay to a mapping"
        ));
        return;
    }
    while env.placed_count() > 0 {
        let t = Instant::now();
        env.undo();
        layers.undo_us.push(secs_since(t) * 1e6);
    }

    let stride = observations.len().div_ceil(SAMPLES).max(1);
    let picked: Vec<&Observation> = observations
        .iter()
        .step_by(stride)
        .map(|(o, _)| o)
        .collect();
    for obs in &picked {
        let t = Instant::now();
        std::hint::black_box(net.predict(obs));
        layers.predict_us.push(secs_since(t) * 1e6);
    }
    for leaves in picked.chunks_exact(LEAVES) {
        let t = Instant::now();
        std::hint::black_box(net.predict_batch(leaves));
        layers
            .batch_leaf_us
            .push(secs_since(t) * 1e6 / LEAVES as f64);
    }

    let mut trainee = MapZeroNet::new(net.action_count(), net.config());
    trainee.restore_params(net.params.clone());
    let batch: Vec<TrainSample> = (0..SAMPLES)
        .map(|i| {
            let (obs, pe) = &observations[i % observations.len()];
            let mut policy = vec![0.0; cgra.pe_count()];
            policy[pe.index()] = 1.0;
            TrainSample {
                observation: obs.clone(),
                policy,
                value: 1.0,
            }
        })
        .collect();
    let ledger = PhaseLedger::snapshot();
    let t = Instant::now();
    let loss = trainee.train_batch(&batch, 1e-3, 5.0);
    layers.train_batch_ms.push(secs_since(t) * 1e3);
    layers.probe_backprop_s += phase_s(&PhaseLedger::snapshot().delta(&ledger), Phase::Backprop);
    if !loss.total.is_finite() {
        result.fail(format!(
            "{label}: probe: train_batch loss is {}",
            loss.total
        ));
    }
    layers.probe_s += secs_since(start);
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

/// Median of a probe sample; 0 when the layer was never probed.
fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

impl Layers {
    /// Insert the compile-layer and probe metrics of [`crate::PER_LAYER`]
    /// (everything except the `serve.*` metrics).
    pub fn insert_metrics(&self, metrics: &mut BTreeMap<&'static str, f64>) {
        let c = &self.counters;
        let [embed, infer, expand, route] = self.episode_phases;
        let children = self.schedule_s + self.candidates_s + self.episode_s + self.validate_s;
        let values: [(&'static str, f64); 30] = [
            ("compiler.ii_attempts", self.attempts as f64),
            ("compiler.unattributed_s", self.replay_s - children),
            ("problem.schedule_ms", self.schedule_s * 1e3),
            ("candidates.build_ms", self.candidates_s * 1e3),
            ("candidates.dead_states", c[DEAD_STATES] as f64),
            ("agent.episode_s", self.episode_s),
            (
                "agent.other_s",
                self.episode_s - embed - infer - expand - route,
            ),
            ("agent.backtracks", self.backtracks as f64),
            ("agent.steps", self.steps as f64),
            (
                "agent.episode_success",
                ratio(self.successes, self.attempts),
            ),
            ("mcts.expand_s", expand),
            ("mcts.expansions", c[EXPANSIONS] as f64),
            ("mcts.simulations", c[SIMULATIONS] as f64),
            ("mcts.branching", ratio(c[OFFERED], c[EXPANSIONS])),
            ("network.infer_s", infer),
            ("network.predict_us", median_or_zero(&self.predict_us)),
            (
                "network.predict_batch_leaf_us",
                median_or_zero(&self.batch_leaf_us),
            ),
            (
                "network.batch_mean",
                ratio(self.batch_sum, self.batch_count),
            ),
            (
                "network.cache_hit",
                ratio(c[CACHE_HIT], c[CACHE_HIT] + c[CACHE_MISS]),
            ),
            (
                "network.train_batch_ms",
                median_or_zero(&self.train_batch_ms),
            ),
            ("train.backprop_s", self.probe_backprop_s),
            ("embed.observe_us", median_or_zero(&self.observe_us)),
            ("embed.s", embed),
            ("router.route_s", route),
            ("router.routed", c[ROUTED] as f64),
            ("router.conflicts", c[CONFLICTS] as f64),
            (
                "router.ok_ratio",
                ratio(c[ROUTED], c[ROUTED] + c[CONFLICTS]),
            ),
            ("env.step_us", median_or_zero(&self.step_us)),
            ("env.undo_us", median_or_zero(&self.undo_us)),
            ("validate.check_ms", self.validate_s * 1e3),
        ];
        metrics.extend(values);
    }

    /// Traced compile wall over untraced compile wall, geomean over the
    /// replayed instances.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        geomean(&self.overhead)
    }

    /// The replay and probe trees.
    #[must_use]
    pub fn trees(&self) -> [Span; 2] {
        let phases: Vec<Span> = EPISODE_PHASES
            .iter()
            .zip(self.episode_phases)
            .map(|(p, s)| Span::leaf(p.name(), s))
            .collect();
        let replay = Span::new(
            "compile.replay",
            self.replay_s,
            vec![
                Span::leaf("problem.schedule", self.schedule_s),
                Span::leaf("candidates.build", self.candidates_s),
                Span::new("agent.episode", self.episode_s, phases),
                Span::leaf("validate.check", self.validate_s),
            ],
        );
        let us = |v: &[f64]| sum(v) * 1e-6;
        let probes = Span::new(
            "layer.probes",
            self.probe_s,
            vec![
                Span::leaf("embed.observe", us(&self.observe_us)),
                Span::leaf("env.step", us(&self.step_us)),
                Span::leaf("env.undo", us(&self.undo_us)),
                Span::leaf("network.predict", us(&self.predict_us)),
                Span::leaf(
                    "network.predict_batch",
                    us(&self.batch_leaf_us) * LEAVES as f64,
                ),
                Span::leaf("network.train_batch", sum(&self.train_batch_ms) * 1e-3),
            ],
        );
        [replay, probes]
    }
}

/// The `serve.*` metrics of a workload that bypasses the service.
pub fn serve_bypassed(metrics: &mut BTreeMap<&'static str, f64>) {
    for name in [
        "serve.queue_wait_p50_ms",
        "serve.queue_wait_p99_ms",
        "serve.service_p50_ms",
        "serve.service_p99_ms",
        "serve.shed",
        "serve.gen_late_ms",
    ] {
        metrics.insert(name, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_tree_invariant() {
        let ok = Span::new(
            "root",
            1.0,
            vec![
                Span::leaf("a", 0.4),
                Span::new("b", 0.5, vec![Span::leaf("c", 0.5)]),
            ],
        );
        assert!(ok.violations().is_empty());
        assert!((ok.unattributed_s() - 0.1).abs() < 1e-12);
        let bad = Span::new(
            "root",
            1.0,
            vec![
                Span::leaf("a", 0.4),
                Span::new("b", 0.7, vec![Span::leaf("c", 0.8)]),
            ],
        );
        let v = bad.violations();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].starts_with("root:"));
        assert!(v[1].starts_with("root/b:"));
        let json = ok.to_json();
        assert_eq!(json.get("name").and_then(Json::as_str), Some("root"));
        assert!(json.get("unattributed_s").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn counts_compare_field_by_field() {
        let a = Counts::new(2, 10, 20, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(a, Counts::new(2, 10, 20, [1, 2, 3, 4, 5, 0, 0, 0]));
        assert_ne!(a, Counts::new(2, 10, 20, [1, 2, 3, 5, 5, 6, 7, 8]));
        assert_eq!(a.to_json().get("routed").and_then(Json::as_u64), Some(3));
    }
}
