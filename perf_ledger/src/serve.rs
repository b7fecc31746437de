//! The `serve_mixed` workload: an open loop of seeded Poisson arrivals
//! against a `MapService`, first at a fixed nominal rate, then at a
//! fixed overload rate.
//!
//! One generator thread submits each request at its scheduled instant;
//! the calling thread collects the responses. Latency runs from the
//! scheduled send time, so a stall delays every request due during it.

use crate::compile::{self, fabric, kernel, SAFETY_LIMIT, TABLE2_BACKTRACKS};
use crate::speed::Speed;
use crate::stats::{mean, median, percentile};
use crate::trace::{self, Counters, Layers, Span, EPISODE_PHASES};
use crate::{record_peak_rss, secs_since, RunCtx, RunResult, SplitMix64};
use mapzero_arch::Cgra;
use mapzero_core::{validate, Compiler, MapZeroConfig, MapZeroNet};
use mapzero_dfg::Dfg;
use mapzero_obs::json::Json;
use mapzero_obs::PhaseLedger;
use mapzero_serve::queue::QueueConfig;
use mapzero_serve::service::{MapService, ServeConfig};
use mapzero_serve::slo::SloConfig;
use mapzero_serve::wire::{MapRequest, MapResponse, Outcome};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Arrival rate of the `nominal` phase, about an eighth of the measured
/// capacity (about 520 requests per second): at higher load the two
/// workers overlap often enough that latencies swing with which requests
/// collide (see LEDGER.md).
pub const NOMINAL_RPS: f64 = 70.0;
/// Arrival rate of the `overload` phase, about 1.5 times the capacity:
/// a third of the arrivals are shed, so the goodput measures the
/// service rather than the arrivals.
pub const OVERLOAD_RPS: f64 = 800.0;
/// Latency limit of a good response in `overload`.
pub const SLO: Duration = Duration::from_millis(250);
/// Rates of the `--smoke` mode.
const SMOKE_RPS: (f64, f64) = (20.0, 60.0);
/// Per-request deadline; a request that misses it fails.
const DEADLINE: Duration = Duration::from_secs(30);
/// Latency charged to a refused or failed request when percentiles are
/// taken: it counts as missing any limit.
const MISS_MS: f64 = 30_000.0;
/// Worker threads of the service.
const WORKERS: usize = 2;

/// Small HReA kernels, each compiled in about a millisecond: 70% of the
/// requests, so the median request is always one of them.
const HREA_KERNELS: [&str; 6] = ["sum", "mac", "conv2", "accumulate", "matmul", "conv3"];
const HREA_SHARE: f64 = 0.7;
/// Mid-size kernels on the 8×8 fabrics: the other 30%. Not h2v2: on
/// ADRES it compiles in 150–230 ms, ten times any other pair, and two
/// at once stall both workers long enough to overflow the queue at
/// nominal load.
const MID_KERNELS: [&str; 4] = ["mults1", "mac2", "cap", "mults2"];
const MID_FABRICS: [&str; 2] = ["ADRES", "MorphoSys"];
/// Tenants and their weights; arrivals are split in the same ratio.
const TENANTS: [(&str, u32); 3] = [("alpha", 2), ("beta", 1), ("gamma", 1)];

/// The service configuration under test.
#[must_use]
pub fn service_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        queue: QueueConfig {
            capacity: 16,
            tenant_inflight_cap: 8,
        },
        compiler: compiler_config(),
        hedge: false,
        // Each burst of sheds would print the flight recorder to stderr;
        // under overload that printing, not the service, would be
        // measured.
        slo: SloConfig {
            shed_burst: usize::MAX,
            ..SloConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn compiler_config() -> MapZeroConfig {
    compile::quick_config(TABLE2_BACKTRACKS)
}

/// The (kernel, fabric) pairs requests draw from: the HReA kernels
/// first, then the mid kernels on each 8×8 fabric.
#[must_use]
pub fn pairs() -> Vec<(&'static str, &'static str)> {
    let mut out: Vec<(&str, &str)> = HREA_KERNELS.iter().map(|k| (*k, "HReA")).collect();
    for k in MID_KERNELS {
        for f in MID_FABRICS {
            out.push((k, f));
        }
    }
    out
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Seconds after the phase starts.
    pub at: f64,
    /// Index into [`pairs`].
    pub pair: usize,
    /// Index into the tenant table.
    pub tenant: usize,
}

/// Poisson arrivals at `rate` per second over `seconds`, each with a
/// seeded pair and tenant draw.
#[must_use]
pub fn arrivals(rng: &mut SplitMix64, rate: f64, seconds: f64) -> Vec<Arrival> {
    let weights: u32 = TENANTS.iter().map(|t| t.1).sum();
    let mut out = Vec::new();
    let mut at = 0.0;
    loop {
        at += -(1.0 - rng.unit()).ln() / rate;
        if at >= seconds {
            return out;
        }
        let pair = if rng.unit() < HREA_SHARE {
            rng.below(HREA_KERNELS.len())
        } else {
            HREA_KERNELS.len() + rng.below(MID_KERNELS.len() * MID_FABRICS.len())
        };
        let mut ticket = rng.below(weights as usize) as u32;
        let tenant = TENANTS
            .iter()
            .position(|(_, w)| {
                let hit = ticket < *w;
                ticket = ticket.saturating_sub(*w);
                hit
            })
            .expect("ticket below the weight total");
        out.push(Arrival { at, pair, tenant });
    }
}

/// FNV-1a digest of an arrival sequence (recorded so runs can show
/// which load they saw).
#[must_use]
pub fn digest(arrivals: &[Arrival]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for a in arrivals {
        for word in [a.at.to_bits(), a.pair as u64, a.tenant as u64] {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

struct Inputs {
    labels: Vec<String>,
    dfgs: Vec<Dfg>,
    cgras: Vec<Cgra>,
}

fn inputs() -> Inputs {
    let pairs = pairs();
    Inputs {
        labels: compile::labels(&pairs),
        dfgs: pairs.iter().map(|(k, _)| kernel(k)).collect(),
        cgras: pairs.iter().map(|(_, f)| fabric(f)).collect(),
    }
}

fn request(id: usize, tenant: usize, pair: usize, inputs: &Inputs) -> MapRequest {
    let (name, weight) = TENANTS[tenant];
    let mut req = MapRequest::new(
        &id.to_string(),
        name,
        inputs.dfgs[pair].clone(),
        inputs.cgras[pair].clone(),
    );
    req.weight = weight;
    req.deadline = Some(DEADLINE);
    req
}

/// Achieved II per pair, which must not change between responses.
struct Iis {
    first: Vec<Option<u32>>,
}

impl Iis {
    fn record(&mut self, pair: usize, ii: u32, labels: &[String], result: &mut RunResult) {
        match self.first[pair] {
            None => self.first[pair] = Some(ii),
            Some(first) if first != ii => {
                result
                    .unstable
                    .push(format!("{}: served II {first} then {ii}", labels[pair]));
            }
            Some(_) => {}
        }
    }
}

/// Check one response; returns whether it is a valid mapping.
fn check(
    resp: &MapResponse,
    pair: usize,
    inputs: &Inputs,
    iis: &mut Iis,
    result: &mut RunResult,
) -> bool {
    let label = &inputs.labels[pair];
    match resp.outcome {
        Outcome::Mapped => {}
        Outcome::Rejected => return false,
        other => {
            result.fail(format!(
                "{label}: {} ({})",
                other.as_str(),
                resp.error.as_deref().unwrap_or("no error message")
            ));
            return false;
        }
    }
    let (Some(mapping), Some(ii)) = (&resp.mapping, resp.achieved_ii) else {
        result.fail(format!("{label}: mapped response without a mapping"));
        return false;
    };
    if let Err(errs) = validate::check_mapping(&inputs.dfgs[pair], &inputs.cgras[pair], mapping, ii)
    {
        result.fail(format!("{label}: validator: {}", errs.join("; ")));
        return false;
    }
    iis.record(pair, ii, &inputs.labels, result);
    true
}

/// What one phase measured.
#[derive(Default)]
struct PhaseStats {
    /// Per arrival, from scheduled send to response; refused or failed
    /// requests read [`MISS_MS`].
    latency_ms: Vec<f64>,
    /// How late the generator submitted each request (wall ms, as are
    /// the queue waits and service times).
    late_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    service_ms: Vec<f64>,
    /// MII / II per valid mapping.
    ii_ratio: Vec<f64>,
    /// Wall service ms per pair.
    service_by_pair: Vec<Vec<f64>>,
    /// Prediction-cache hits and misses over the phase.
    cache: [u64; 2],
    good: usize,
    shed: usize,
    /// From the first scheduled send to the last response.
    wall_s: f64,
    /// Phase-ledger delta over the phase.
    phases: PhaseLedger,
}

/// Drive one open-loop phase and check every response.
/// The calling thread collects the responses and checks each one as it
/// arrives, after taking its timestamp, so no mapping outlives its check.
fn drive(
    service: &MapService,
    inputs: &Inputs,
    arrivals: &[Arrival],
    iis: &mut Iis,
    result: &mut RunResult,
) -> PhaseStats {
    let ledger = PhaseLedger::snapshot();
    let cache_before = cache_counts();
    let mut stats = PhaseStats {
        service_by_pair: vec![Vec::new(); inputs.labels.len()],
        ..PhaseStats::default()
    };
    // A short lead so the generator is parked before the first send.
    let start = Instant::now() + Duration::from_millis(5);
    let due = |a: &Arrival| start + Duration::from_secs_f64(a.at);
    let (tx, rx) = mpsc::channel::<MapResponse>();
    let mut answered = vec![false; arrivals.len()];
    stats.late_ms = std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut late = Vec::with_capacity(arrivals.len());
            for (id, a) in arrivals.iter().enumerate() {
                let at = due(a);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let req = request(id, a.tenant, a.pair, inputs);
                late.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
                // Every submit is answered on `tx`, admitted or not.
                let _ = service.submit(req, &tx);
            }
            late
        });
        let mut remaining = arrivals.len();
        while remaining > 0 {
            let Ok(resp) = rx.recv_timeout(DEADLINE * 2) else {
                break;
            };
            let at = Instant::now();
            let Some(id) = resp
                .id
                .parse::<usize>()
                .ok()
                .filter(|&i| i < arrivals.len() && !answered[i])
            else {
                continue;
            };
            answered[id] = true;
            remaining -= 1;
            record(
                &mut stats,
                &resp,
                arrivals[id].pair,
                at.saturating_duration_since(due(&arrivals[id])),
                inputs,
                iis,
                result,
            );
        }
        generator.join().expect("generator thread panicked")
    });
    for (a, _) in arrivals
        .iter()
        .zip(answered)
        .filter(|(_, answered)| !answered)
    {
        result.attempted += 1;
        result.fail(format!("{}: no response", inputs.labels[a.pair]));
        stats.latency_ms.push(MISS_MS);
    }
    stats.wall_s = secs_since(start);
    stats.phases = PhaseLedger::snapshot().delta(&ledger);
    let after = cache_counts();
    stats.cache = [after[0] - cache_before[0], after[1] - cache_before[1]];
    stats
}

/// Check one response and add it to the phase's statistics.
fn record(
    stats: &mut PhaseStats,
    resp: &MapResponse,
    pair: usize,
    latency: Duration,
    inputs: &Inputs,
    iis: &mut Iis,
    result: &mut RunResult,
) {
    result.attempted += 1;
    let valid = check(resp, pair, inputs, iis, result);
    stats.latency_ms.push(if valid {
        latency.as_secs_f64() * 1e3
    } else {
        MISS_MS
    });
    if resp.outcome == Outcome::Rejected {
        stats.shed += 1;
    } else {
        stats
            .queue_wait_ms
            .push(resp.queue_wait.as_secs_f64() * 1e3);
        stats.service_ms.push(resp.service_time.as_secs_f64() * 1e3);
        stats.service_by_pair[pair].push(resp.service_time.as_secs_f64() * 1e3);
    }
    if valid {
        stats.good += usize::from(latency <= SLO);
        if let (Some(mii), Some(ii)) = (resp.mii, resp.achieved_ii) {
            stats.ii_ratio.push(f64::from(mii) / f64::from(ii));
        }
    }
}

/// The prediction cache's hit and miss counters.
fn cache_counts() -> [u64; 2] {
    let reg = mapzero_obs::metrics::registry();
    [
        reg.counter("search.predict_cache.hit").get(),
        reg.counter("search.predict_cache.miss").get(),
    ]
}

/// Start a service and send one request per pair, one at a time so no
/// two compiles overlap. Every warm response must be a valid mapping.
fn start_warm(inputs: &Inputs, iis: &mut Iis, result: &mut RunResult) -> MapService {
    let service = MapService::start(service_config());
    for pair in 0..inputs.labels.len() {
        let batch = vec![request(pair, pair % TENANTS.len(), pair, inputs)];
        for resp in service.process_batch(batch) {
            result.attempted += 1;
            if !check(&resp, pair, inputs, iis, result) {
                result.fail(format!("{}: warm request not mapped", inputs.labels[pair]));
            }
        }
    }
    service
}

/// Run the serve workload.
#[must_use]
pub fn run(ctx: &RunCtx) -> RunResult {
    let mut result = RunResult::default();
    let (nominal_rps, overload_rps) = if ctx.smoke {
        SMOKE_RPS
    } else {
        (NOMINAL_RPS, OVERLOAD_RPS)
    };
    let mut rng = SplitMix64::new(ctx.seed);
    let mut iis = Iis {
        first: vec![None; pairs().len()],
    };
    let build = || {
        let inputs = inputs();
        let service = start_warm(&inputs, &mut iis, &mut result);
        (inputs, service)
    };
    let mut speed = Speed::default();
    let ((inputs, service), setup_s) = ctx.set_up(&mut speed, build, |(_, old)| old.shutdown());

    let measure = ctx.measure_seconds();
    let (nominal_s, overload_s) = (0.6 * measure, 0.4 * measure);
    if !ctx.smoke {
        let warm = arrivals(&mut rng, nominal_rps, 1.0);
        let _ = drive(&service, &inputs, &warm, &mut iis, &mut result);
    }
    let nominal_load = arrivals(&mut rng, nominal_rps, nominal_s);
    let overload_load = arrivals(&mut rng, overload_rps, overload_s);
    let nominal = drive(&service, &inputs, &nominal_load, &mut iis, &mut result);

    let traced = ctx.trace.then(|| {
        mapzero_obs::set_enabled(true);
        let load = arrivals(&mut rng, nominal_rps, nominal_s);
        let stats = drive(&service, &inputs, &load, &mut iis, &mut result);
        (
            stats,
            service
                .stats()
                .validate_fail
                .load(std::sync::atomic::Ordering::Relaxed),
        )
    });
    let overload = drive(&service, &inputs, &overload_load, &mut iis, &mut result);
    mapzero_obs::set_enabled(false);
    service.shutdown();

    result.metrics.insert("setup_s", setup_s);
    result
        .metrics
        .insert("latency_ms", percentile(&nominal.latency_ms, 0.5));
    result
        .metrics
        .insert("throughput_per_s", overload.good as f64 / overload_s);
    result.metrics.insert("quality", mean(&nominal.ii_ratio));
    result.detail("speed", speed.to_json());

    if let Some((stats, validate_fail)) = traced {
        if validate_fail > 0 {
            result.fail(format!(
                "service validator rejected {validate_fail} mappings"
            ));
        }
        let untraced_p50 = percentile(&nominal.latency_ms, 0.5);
        result.metrics.insert(
            "trace.overhead",
            percentile(&stats.latency_ms, 0.5) / untraced_p50,
        );
        result.metrics.insert(
            "serve.queue_wait_p50_ms",
            percentile(&stats.queue_wait_ms, 0.5),
        );
        result.metrics.insert(
            "serve.queue_wait_p99_ms",
            percentile(&stats.queue_wait_ms, 0.99),
        );
        result
            .metrics
            .insert("serve.service_p50_ms", percentile(&stats.service_ms, 0.5));
        result
            .metrics
            .insert("serve.service_p99_ms", percentile(&stats.service_ms, 0.99));
        result.metrics.insert("serve.shed", overload.shed as f64);
        result
            .metrics
            .insert("serve.gen_late_ms", percentile(&stats.late_ms, 0.99));
        let service_s: f64 = stats.service_ms.iter().sum::<f64>() / 1e3;
        let phases = EPISODE_PHASES
            .iter()
            .map(|&p| Span::leaf(p.name(), trace::phase_s(&stats.phases, p)))
            .collect();
        let workers = Span::new(
            "serve.worker_threads",
            stats.wall_s * WORKERS as f64,
            vec![Span::new("serve.service", service_s, phases)],
        );
        let layers = replay_pairs(&inputs, &iis, &mut result);
        layers.insert_metrics(&mut result.metrics);
        let [replay, probes] = layers.trees();
        trace::record_trees(&mut result, &[workers, replay, probes]);
    }
    record_peak_rss(&mut result);

    result.detail(
        "instances",
        Json::Arr(
            inputs
                .labels
                .iter()
                .map(|l| Json::from(l.as_str()))
                .collect(),
        ),
    );
    result.detail(
        "phases",
        Json::obj(vec![
            (
                "nominal",
                phase_json(
                    &nominal,
                    &inputs.labels,
                    nominal_rps,
                    nominal_s,
                    &nominal_load,
                ),
            ),
            (
                "overload",
                phase_json(
                    &overload,
                    &inputs.labels,
                    overload_rps,
                    overload_s,
                    &overload_load,
                ),
            ),
        ]),
    );
    result.detail(
        "served_ii",
        Json::Obj(
            inputs
                .labels
                .iter()
                .zip(&iis.first)
                .map(|(l, ii)| {
                    (
                        l.clone(),
                        ii.map_or(Json::Null, |ii| Json::from(u64::from(ii))),
                    )
                })
                .collect(),
        ),
    );
    result
}

fn phase_json(
    stats: &PhaseStats,
    labels: &[String],
    rate: f64,
    seconds: f64,
    load: &[Arrival],
) -> Json {
    let service = labels
        .iter()
        .zip(&stats.service_by_pair)
        .map(|(l, v)| (l.clone(), Json::Num(median(v))))
        .collect();
    let [hit, miss] = stats.cache;
    Json::obj(vec![
        ("rate_rps", Json::Num(rate)),
        ("seconds", Json::Num(seconds)),
        ("sent", Json::from(load.len() as u64)),
        ("good_within_slo", Json::from(stats.good as u64)),
        ("shed", Json::from(stats.shed as u64)),
        ("p50_ms", Json::Num(percentile(&stats.latency_ms, 0.5))),
        ("p99_ms", Json::Num(percentile(&stats.latency_ms, 0.99))),
        (
            "gen_late_p99_ms",
            Json::Num(percentile(&stats.late_ms, 0.99)),
        ),
        (
            "arrival_digest",
            Json::from(format!("{:016x}", digest(load))),
        ),
        (
            "cache_hit_ratio",
            Json::Num(hit as f64 / (hit + miss).max(1) as f64),
        ),
        ("service_median_ms", Json::Obj(service)),
    ])
}

/// Replay every pair through the layers. The reference is an untraced
/// direct compile with the service's configuration and network, whose
/// II must equal the II the service returned for the pair.
fn replay_pairs(inputs: &Inputs, iis: &Iis, result: &mut RunResult) -> Layers {
    let config = compiler_config();
    let counters = Counters::new();
    let mut layers = Layers::default();
    let mut compiler = Compiler::new(config);
    for (i, label) in inputs.labels.iter().enumerate() {
        let (dfg, cgra) = (&inputs.dfgs[i], &inputs.cgras[i]);
        if compiler.net_for(cgra.pe_count()).is_none() {
            compiler.install_net(MapZeroNet::new(cgra.pe_count(), config.net));
        }
        let ii = trace::compile_and_replay(
            label,
            dfg,
            cgra,
            &mut compiler,
            SAFETY_LIMIT,
            &counters,
            &mut layers,
            result,
        );
        if let (Some(served), Some(direct)) = (iis.first[i], ii) {
            if served != direct {
                result.unstable.push(format!(
                    "{label}: served II {served}, direct compile II {direct}"
                ));
            }
        }
    }
    layers
}
