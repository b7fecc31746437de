//! The long-lived mapping service: a worker pool over the tenant-fair
//! queue, sharing one network per fabric size and one prediction cache,
//! wrapped in the supervision layer that makes one request unable to
//! hurt another:
//!
//! - **Admission**: [`MapService::submit`] load-sheds with a `Rejected`
//!   response (carrying the observed queue depth) instead of queueing
//!   without bound.
//! - **Deadlines**: a request's wall-clock allowance is charged from
//!   *enqueue* time ([`Budget::from_deadline_at`]), so queue wait counts
//!   and an expired request is answered `deadline` without burning a
//!   worker on it.
//! - **Retries**: a contained internal fault ([`MapError::Internal`],
//!   e.g. a panic inside the compiler's isolation boundary) is retried
//!   with exponential backoff up to `max_retries`, never past the
//!   deadline.
//! - **Worker death**: a panic that escapes the compiler's own
//!   isolation (e.g. the `serve.worker.pre_map` failpoint) kills only
//!   that worker; the thread is respawned, and the in-flight request is
//!   either requeued (front of its tenant's lane — admission already
//!   happened) or answered `internal`. Exactly one response per
//!   admitted request, always.
//! - **Hedging**: with [`ServeConfig::hedge`], each worker's compiler
//!   carries the SA baseline as a fallback lane — the primary gets ~70%
//!   of the remaining deadline (the compiler's `PRIMARY_SHARE`), the
//!   annealer the rest.
//!
//! Shared state is confined to things a dying worker cannot poison: the
//! queue (mutex with explicit poison recovery), `Arc`'d read-only
//! networks, and the prediction cache (drained by value per episode — a
//! panic loses borrowed entries, never corrupts the slot).

use crate::breaker::{Admission, BreakerConfig, CircuitBreakers};
use crate::journal::Journal;
use crate::queue::{Job, JobQueue, QueueConfig, SubmitError};
use crate::slo::{Anomaly, RequestRecord, SloConfig, SloTable};
use crate::wire::{MapRequest, MapResponse, Outcome};
use mapzero_baselines::{SaConfig, SaMapper};
use mapzero_core::failpoint::{self, FailScope};
use mapzero_core::mapping::MapError;
use mapzero_core::mcts::PredictCache;
use mapzero_core::network::MapZeroNet;
use mapzero_core::supervise::Budget;
use mapzero_core::validate;
use mapzero_core::{Compiler, IiBounds, MapZeroConfig};
use mapzero_obs::json::Json;
use mapzero_obs::metrics::registry;
use mapzero_obs::FlightRecorder;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service lifecycle: admitting and processing.
const STATE_RUNNING: u8 = 0;
/// Draining: admission rejects, in-flight work finishes.
const STATE_DRAINING: u8 = 1;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Queue capacity and per-tenant in-flight caps.
    pub queue: QueueConfig,
    /// Compiler configuration shared by every worker.
    pub compiler: MapZeroConfig,
    /// Retries for contained internal faults (and worker deaths) per
    /// request.
    pub max_retries: u32,
    /// Base backoff before an internal-fault retry; doubles per retry,
    /// always capped by the request's remaining deadline.
    pub retry_backoff: Duration,
    /// Install the SA baseline as each worker's hedged fallback lane.
    pub hedge: bool,
    /// Deadline applied to requests that carry none (`None` = such
    /// requests run unbounded).
    pub default_deadline: Option<Duration>,
    /// SLO windows and anomaly-detection thresholds.
    pub slo: SloConfig,
    /// Flight-recorder capacity (last N terminal request records).
    pub flight_capacity: usize,
    /// Per-tenant circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue: QueueConfig::default(),
            compiler: MapZeroConfig::fast_test(),
            max_retries: 2,
            retry_backoff: Duration::from_millis(25),
            hedge: true,
            default_deadline: Some(Duration::from_secs(300)),
            slo: SloConfig::default(),
            flight_capacity: 256,
            breaker: BreakerConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Seconds-scale deterministic configuration for tests: small pool,
    /// no hedging (one engine = bit-reproducible outputs), tiny
    /// backoff.
    #[must_use]
    pub fn fast_test() -> Self {
        ServeConfig {
            workers: 2,
            queue: QueueConfig { capacity: 32, tenant_inflight_cap: 2 },
            compiler: MapZeroConfig::fast_test(),
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            hedge: false,
            default_deadline: None,
            slo: SloConfig::default(),
            flight_capacity: 64,
            breaker: BreakerConfig::fast_test(),
        }
    }
}

/// Monotonic service-level counters (also mirrored into the global
/// metrics registry as `serve.*`).
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Requests admitted into the queue.
    pub admitted: AtomicU64,
    /// Requests shed at admission.
    pub shed: AtomicU64,
    /// Contained internal-fault retries.
    pub retries: AtomicU64,
    /// Worker threads killed by an escaping panic.
    pub worker_deaths: AtomicU64,
    /// Worker threads respawned after a death.
    pub respawns: AtomicU64,
    /// Responses delivered (every admitted request produces exactly
    /// one).
    pub responses: AtomicU64,
    /// Anomalies detected (shed bursts, worker deaths, deadline-miss
    /// streaks), each of which dumped the flight recorder.
    pub anomalies: AtomicU64,
    /// Mapped responses rejected by the independent validator (each
    /// became an `internal` response; healthy runs hold this at zero).
    pub validate_fail: AtomicU64,
    /// Admissions rejected fast because the tenant's breaker was open.
    pub breaker_rejected: AtomicU64,
    /// Requests re-admitted from the journal at startup.
    pub replayed: AtomicU64,
}

struct QueuedRequest {
    request: MapRequest,
    respond: Sender<MapResponse>,
    /// Worker deaths this request has survived so far.
    worker_deaths: u32,
}

struct Shared {
    config: ServeConfig,
    queue: JobQueue<QueuedRequest>,
    /// One network per fabric size, shared by every worker's compiler.
    nets: Mutex<HashMap<usize, Arc<MapZeroNet>>>,
    /// One prediction cache shared by every worker.
    cache: Arc<Mutex<PredictCache>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    stats: ServiceStats,
    /// Interned `serve.inflight.<tenant>` gauge names (the registry
    /// wants `&'static str`; one leak per distinct tenant).
    tenant_gauges: Mutex<HashMap<String, &'static str>>,
    /// Per-tenant SLO windows and anomaly detectors.
    slo: SloTable,
    /// Last N terminal request records, dumped on demand and on
    /// anomalies.
    flight: FlightRecorder<RequestRecord>,
    /// Service start instant (`/status` uptime).
    started_at: Instant,
    /// Write-ahead request journal (`--journal DIR`); `None` runs
    /// without durability.
    journal: Option<Journal>,
    /// Per-tenant circuit breakers.
    breakers: CircuitBreakers,
    /// `STATE_RUNNING` or `STATE_DRAINING`.
    state: AtomicU8,
}

/// The running service. Cloneable handle; [`MapService::shutdown`]
/// drains and joins the pool.
#[derive(Clone)]
pub struct MapService {
    shared: Arc<Shared>,
}

impl MapService {
    /// Start the worker pool without a journal.
    #[must_use]
    pub fn start(config: ServeConfig) -> Self {
        Self::start_with_journal(config, None)
    }

    /// Start the worker pool with an (optional) write-ahead journal.
    /// Requests recovered by [`Journal::open`] should be re-admitted via
    /// [`MapService::submit_replayed`] after this returns.
    #[must_use]
    pub fn start_with_journal(config: ServeConfig, journal: Option<Journal>) -> Self {
        let cache_capacity = config.compiler.agent.mcts.cache_capacity.max(2);
        let workers = config.workers.max(1);
        let breakers = CircuitBreakers::new(config.breaker);
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue),
            nets: Mutex::new(HashMap::new()),
            cache: Arc::new(Mutex::new(PredictCache::new(cache_capacity))),
            handles: Mutex::new(Vec::new()),
            stats: ServiceStats::default(),
            tenant_gauges: Mutex::new(HashMap::new()),
            slo: SloTable::new(config.slo),
            flight: FlightRecorder::new(config.flight_capacity),
            started_at: Instant::now(),
            journal,
            breakers,
            state: AtomicU8::new(STATE_RUNNING),
            config,
        });
        for _ in 0..workers {
            spawn_worker(Arc::clone(&shared));
        }
        MapService { shared }
    }

    /// Submit one request. Exactly one response — including a
    /// `Rejected` one when the queue sheds it, or an `Internal` one
    /// after shutdown — arrives on `respond`. Returns whether the
    /// request was admitted into the queue.
    pub fn submit(&self, request: MapRequest, respond: &Sender<MapResponse>) -> bool {
        self.submit_inner(request, respond, true)
    }

    /// Re-admit a request recovered from the journal. Identical to
    /// [`MapService::submit`] except the admit record is *not*
    /// re-appended: [`Journal::open`] already carried it into the
    /// current generation during compaction.
    pub fn submit_replayed(&self, request: MapRequest, respond: &Sender<MapResponse>) -> bool {
        self.shared.stats.replayed.fetch_add(1, Ordering::Relaxed);
        mapzero_obs::counter!("serve.journal.replayed");
        self.submit_inner(request, respond, false)
    }

    fn submit_inner(
        &self,
        request: MapRequest,
        respond: &Sender<MapResponse>,
        journal_admit: bool,
    ) -> bool {
        mapzero_core::failpoint!("serve.enqueue");
        // Draining: answer fast, never queue — in-flight work is what
        // the drain is waiting on.
        if self.shared.state.load(Ordering::SeqCst) != STATE_RUNNING {
            let mut response = rejected_response(&request.id, &request.tenant, 0);
            response.queue_depth = None;
            response.error = Some("service is draining".to_owned());
            mapzero_obs::counter!("serve.drain.rejected");
            account_and_send(&self.shared, respond, response, None);
            return false;
        }
        // Circuit breaker: a tenant that has been killing workers is
        // answered from here, without touching the queue or a worker.
        match self.shared.breakers.admit(&request.tenant, Instant::now()) {
            Admission::Reject => {
                let mut response = rejected_response(&request.id, &request.tenant, 0);
                response.queue_depth = None;
                response.error = Some("breaker_open: tenant circuit breaker is open".to_owned());
                self.shared.stats.breaker_rejected.fetch_add(1, Ordering::Relaxed);
                registry().counter_family("serve.breaker.rejected").with(&request.tenant).inc();
                account_and_send(&self.shared, respond, response, None);
                return false;
            }
            Admission::Probe => {
                mapzero_obs::counter!("serve.breaker.probe");
            }
            Admission::Allow => {}
        }
        // Write-ahead: the admit record is durable before the request
        // becomes processable, so a crash after this point replays it.
        // A journal I/O failure degrades to an unjournaled admission
        // (counted) rather than refusing service.
        if journal_admit {
            if let Some(journal) = &self.shared.journal {
                if let Err(e) = journal.record_admit(&request) {
                    mapzero_obs::counter!("serve.journal.error");
                    eprintln!("serve: journal append failed for `{}`: {e}", request.id);
                }
            }
        }
        let tenant = request.tenant.clone();
        let weight = request.weight;
        let queued = QueuedRequest { request, respond: respond.clone(), worker_deaths: 0 };
        match self.shared.queue.submit(&tenant, weight, queued) {
            Ok(()) => {
                self.shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
                self.shared.slo.record_admitted(&tenant);
                registry().counter_family("serve.admitted").with(&tenant).inc();
                mapzero_obs::gauge!("serve.queue.depth", self.shared.queue.depth() as u64);
                true
            }
            Err((SubmitError::Shed { queue_depth }, refused)) => {
                self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                mapzero_obs::counter!("serve.shed");
                registry().counter_family("serve.shed.tenant").with(&tenant).inc();
                if let Some(anomaly) = self.shared.slo.record_shed(&tenant, Instant::now()) {
                    note_anomaly(&self.shared, &anomaly);
                }
                let response =
                    rejected_response(&refused.request.id, &refused.request.tenant, queue_depth);
                account_and_send(&self.shared, &refused.respond, response, None);
                false
            }
            Err((SubmitError::Closed, refused)) => {
                let mut response = rejected_response(&refused.request.id, &refused.request.tenant, 0);
                response.outcome = Outcome::Internal;
                response.queue_depth = None;
                response.error = Some("service is shut down".to_owned());
                account_and_send(&self.shared, &refused.respond, response, None);
                false
            }
        }
    }

    /// Submit a whole batch and block for every response; returned in
    /// request order. Shed requests appear as `Rejected` records.
    pub fn process_batch(&self, requests: Vec<MapRequest>) -> Vec<MapResponse> {
        let (tx, rx) = std::sync::mpsc::channel();
        let order: Vec<String> = requests.iter().map(|r| r.id.clone()).collect();
        let mut received = Vec::with_capacity(order.len());
        for request in requests {
            // Every submit produces exactly one response on `tx`
            // (mapped, rejected, or internal) — admitted or not.
            let _ = self.submit(request, &tx);
        }
        for _ in 0..order.len() {
            match rx.recv() {
                Ok(resp) => received.push(resp),
                Err(_) => break,
            }
        }
        // Request order, not completion order.
        let mut by_id: HashMap<String, Vec<MapResponse>> = HashMap::new();
        for resp in received {
            by_id.entry(resp.id.clone()).or_default().push(resp);
        }
        order
            .iter()
            .filter_map(|id| by_id.get_mut(id).and_then(Vec::pop))
            .collect()
    }

    /// Current queue depth (jobs admitted but not yet running).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// In-flight jobs for one tenant.
    #[must_use]
    pub fn inflight(&self, tenant: &str) -> usize {
        self.shared.queue.inflight(tenant)
    }

    /// Service counters.
    #[must_use]
    pub fn stats(&self) -> &ServiceStats {
        &self.shared.stats
    }

    /// The retained flight records (last N terminal requests, oldest
    /// first).
    #[must_use]
    pub fn flight_snapshot(&self) -> Vec<RequestRecord> {
        self.shared.flight.snapshot()
    }

    /// Mark one response as delivered to the client. Called by the
    /// transport *after* the response line is written and flushed — not
    /// at accounting time — so a crash between compute and delivery
    /// still replays the request (at-least-once delivery, exactly-once
    /// across the journal's admit/terminal pair). No-op without a
    /// journal.
    pub fn mark_delivered(&self, response: &MapResponse) {
        if let Some(journal) = &self.shared.journal {
            if let Err(e) = journal.record_terminal(&response.id, response.outcome) {
                mapzero_obs::counter!("serve.journal.error");
                eprintln!("serve: journal terminal append failed for `{}`: {e}", response.id);
            }
        }
    }

    /// Stop admission (new submissions are answered `rejected` with a
    /// drain reason) while letting queued and in-flight work finish.
    /// Returns whether this call initiated the drain (idempotent).
    pub fn begin_drain(&self) -> bool {
        let first = self
            .shared
            .state
            .compare_exchange(STATE_RUNNING, STATE_DRAINING, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if first {
            mapzero_obs::counter!("serve.drain.begin");
            eprintln!("serve: draining — admission stopped, finishing in-flight work");
        }
        first
    }

    /// Whether the service is draining.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.shared.state.load(Ordering::SeqCst) != STATE_RUNNING
    }

    /// Block until the queue and every in-flight job are empty, or the
    /// deadline passes. Returns `true` when fully drained.
    #[must_use]
    pub fn await_drained(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.shared.queue.depth() == 0 && self.shared.queue.inflight_total() == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Fsync the journal (drain/shutdown hygiene). No-op without one.
    pub fn flush_journal(&self) {
        if let Some(journal) = &self.shared.journal {
            if let Err(e) = journal.flush() {
                eprintln!("serve: journal flush failed: {e}");
            }
        }
    }

    /// Per-tenant circuit-breaker states, sorted by tenant.
    #[must_use]
    pub fn breaker_status(&self) -> Vec<crate::breaker::BreakerStatus> {
        self.shared.breakers.status()
    }

    /// The `/status` document: uptime, queue depth, worker liveness,
    /// service counters, cache hit rates, flight-recorder occupancy,
    /// and a per-tenant object merging queue occupancy with the SLO
    /// table. The per-tenant invariant (once the queue is idle):
    /// `admitted == mapped + failed + timeout + deadline + internal`,
    /// with `shed` counted separately.
    #[must_use]
    pub fn status_json(&self) -> Json {
        let shared = &self.shared;
        let stats = &shared.stats;
        let load = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
        let depths: HashMap<String, (usize, usize)> = shared
            .queue
            .tenant_depths()
            .into_iter()
            .map(|(name, queued, inflight)| (name, (queued, inflight)))
            .collect();
        let tenants: Vec<(String, Json)> = shared
            .slo
            .snapshot()
            .into_iter()
            .map(|(name, t)| {
                let (queued, inflight) = depths.get(&name).copied().unwrap_or((0, 0));
                let mut fields = vec![
                    ("queued", Json::from(queued as u64)),
                    ("inflight", Json::from(inflight as u64)),
                    ("admitted", Json::from(t.admitted)),
                    ("shed", Json::from(t.shed)),
                    ("mapped", Json::from(t.mapped)),
                    ("failed", Json::from(t.failed)),
                    ("timeout", Json::from(t.timeout)),
                    ("deadline", Json::from(t.deadline)),
                    ("internal", Json::from(t.internal)),
                ];
                if let Some(rate) = t.deadline_hit_rate {
                    fields.push(("deadline_hit_rate", Json::from(rate)));
                }
                (name, Json::obj(fields))
            })
            .collect();
        let breakers: Vec<(String, Json)> = shared
            .breakers
            .status()
            .into_iter()
            .map(|b| {
                (
                    b.tenant,
                    Json::obj(vec![
                        ("state", Json::from(b.state)),
                        ("failures", Json::from(u64::from(b.failures))),
                        ("trips", Json::from(b.trips)),
                    ]),
                )
            })
            .collect();
        let journal = match shared.journal.as_ref().map(Journal::snapshot) {
            Some(j) => Json::obj(vec![
                ("generation", Json::from(j.generation)),
                ("appended", Json::from(j.appended)),
                ("terminal", Json::from(j.terminal)),
                ("replayed", Json::from(j.replayed)),
                ("compacted", Json::from(j.compacted)),
                ("torn", Json::from(j.torn)),
            ]),
            None => Json::Null,
        };
        let reg = registry();
        Json::obj(vec![
            (
                "uptime_us",
                Json::from(
                    u64::try_from(shared.started_at.elapsed().as_micros()).unwrap_or(u64::MAX),
                ),
            ),
            (
                "state",
                Json::from(if self.draining() { "draining" } else { "running" }),
            ),
            ("queue_depth", Json::from(shared.queue.depth() as u64)),
            (
                "workers",
                Json::obj(vec![
                    ("configured", Json::from(shared.config.workers.max(1) as u64)),
                    ("deaths", load(&stats.worker_deaths)),
                    ("respawns", load(&stats.respawns)),
                ]),
            ),
            (
                "stats",
                Json::obj(vec![
                    ("admitted", load(&stats.admitted)),
                    ("responses", load(&stats.responses)),
                    ("shed", load(&stats.shed)),
                    ("retries", load(&stats.retries)),
                    ("anomalies", load(&stats.anomalies)),
                    ("validate_fail", load(&stats.validate_fail)),
                    ("breaker_rejected", load(&stats.breaker_rejected)),
                    ("replayed", load(&stats.replayed)),
                ]),
            ),
            ("journal", journal),
            ("breakers", Json::Obj(breakers)),
            (
                "cache",
                Json::obj(vec![
                    ("predict_hit", Json::from(reg.counter("search.predict_cache.hit").get())),
                    ("predict_miss", Json::from(reg.counter("search.predict_cache.miss").get())),
                ]),
            ),
            (
                "flight",
                Json::obj(vec![
                    ("capacity", Json::from(shared.flight.capacity() as u64)),
                    ("recorded", Json::from(shared.flight.recorded())),
                ]),
            ),
            ("tenants", Json::Obj(tenants)),
        ])
    }

    /// Stop admissions, drain the queue, and join every worker.
    pub fn shutdown(self) {
        self.shared.queue.close();
        loop {
            let handle = {
                let mut handles =
                    self.shared.handles.lock().unwrap_or_else(PoisonError::into_inner);
                handles.pop()
            };
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

/// A `Rejected` response built at the shed point.
fn rejected_response(id: &str, tenant: &str, queue_depth: usize) -> MapResponse {
    MapResponse {
        id: id.to_owned(),
        tenant: tenant.to_owned(),
        outcome: Outcome::Rejected,
        engine: None,
        mii: None,
        achieved_ii: None,
        mapping: None,
        queue_wait: Duration::ZERO,
        service_time: Duration::ZERO,
        retries: 0,
        worker_deaths: 0,
        queue_depth: Some(queue_depth),
        error: Some("queue full".to_owned()),
        telemetry: None,
    }
}

fn spawn_worker(shared: Arc<Shared>) {
    let for_thread = Arc::clone(&shared);
    let handle = std::thread::spawn(move || worker_loop(&for_thread));
    shared.handles.lock().unwrap_or_else(PoisonError::into_inner).push(handle);
}

fn build_compiler(shared: &Shared) -> Compiler {
    let mut compiler = Compiler::new(shared.config.compiler)
        .with_shared_cache(Arc::clone(&shared.cache));
    if shared.config.hedge {
        let sa = SaConfig {
            max_extra_ii: shared.config.compiler.max_extra_ii,
            ..SaConfig::default()
        };
        compiler = compiler.with_fallback(Box::new(SaMapper::new(sa)));
    }
    compiler
}

/// Look up (or deterministically create) the shared network for this
/// fabric size and install it into the worker's compiler, so every
/// worker maps with identical weights.
fn install_net(shared: &Shared, compiler: &mut Compiler, pe_count: usize) {
    if compiler.net_for(pe_count).is_some() {
        return;
    }
    let mut nets = shared.nets.lock().unwrap_or_else(PoisonError::into_inner);
    let net = nets.entry(pe_count).or_insert_with(|| {
        // MapZeroNet::new is deterministic in (size, config.seed): every
        // service instance with the same config serves identical nets.
        Arc::new(MapZeroNet::new(pe_count, shared.config.compiler.net))
    });
    compiler.install_shared_net(Arc::clone(net));
}

fn tenant_inflight_gauge(shared: &Shared, tenant: &str) {
    let value = shared.queue.inflight(tenant) as u64;
    let mut names = shared.tenant_gauges.lock().unwrap_or_else(PoisonError::into_inner);
    let name: &'static str = names
        .entry(tenant.to_owned())
        .or_insert_with(|| Box::leak(format!("serve.inflight.{tenant}").into_boxed_str()));
    registry().gauge(name).set(value);
}

/// The request's absolute deadline (enqueue instant + allowance); a
/// duration too large for the clock degrades to unbounded, matching the
/// `Budget::with_deadline` contract.
fn effective_deadline(config: &ServeConfig, job: &Job<QueuedRequest>) -> Option<Instant> {
    let allowance = job.item.request.deadline.or(config.default_deadline)?;
    job.enqueued_at.checked_add(allowance)
}

fn worker_loop(shared: &Arc<Shared>) {
    let mut compiler = build_compiler(shared);
    while let Some((tenant, job)) = shared.queue.pop() {
        mapzero_obs::gauge!("serve.queue.depth", shared.queue.depth() as u64);
        tenant_inflight_gauge(shared, &tenant);
        let outcome =
            catch_unwind(AssertUnwindSafe(|| process_job(shared, &mut compiler, &job)));
        shared.queue.finish(&tenant);
        tenant_inflight_gauge(shared, &tenant);
        let deadline_applied = effective_deadline(&shared.config, &job).is_some();
        match outcome {
            Ok(response) => deliver(shared, &job.item.respond, response, deadline_applied),
            Err(_) => {
                // Worker death: contain, account, hand the request back
                // (retry) or answer it (structural failure) — never
                // lose it, never answer twice (nothing was delivered
                // yet), then respawn a clean worker and die.
                shared.stats.worker_deaths.fetch_add(1, Ordering::Relaxed);
                mapzero_obs::counter!("serve.worker.death");
                note_anomaly(shared, &Anomaly::WorkerDeath);
                record_breaker_failure(shared, &tenant);
                // Account the respawn and start the replacement before
                // handing the request back: the retry's response must
                // not be able to outrun the death bookkeeping (a caller
                // reading stats after its last response would see a
                // death with no matching respawn).
                shared.stats.respawns.fetch_add(1, Ordering::Relaxed);
                mapzero_obs::counter!("serve.worker.respawn");
                spawn_worker(Arc::clone(shared));
                let mut job = job;
                job.attempts += 1;
                job.item.worker_deaths += 1;
                let expired = effective_deadline(&shared.config, &job)
                    .is_some_and(|d| Instant::now() >= d);
                if job.attempts <= shared.config.max_retries && !expired {
                    shared.queue.requeue_front(&tenant, job);
                } else {
                    let response = death_response(&job);
                    deliver(shared, &job.item.respond, response, deadline_applied);
                }
                return;
            }
        }
    }
}

/// Terminal response for a request whose worker died past its retry or
/// deadline allowance.
fn death_response(job: &Job<QueuedRequest>) -> MapResponse {
    let req = &job.item.request;
    MapResponse {
        id: req.id.clone(),
        tenant: req.tenant.clone(),
        outcome: Outcome::Internal,
        engine: None,
        mii: None,
        achieved_ii: None,
        mapping: None,
        queue_wait: Instant::now().saturating_duration_since(job.enqueued_at),
        service_time: Duration::ZERO,
        retries: 0,
        worker_deaths: job.item.worker_deaths,
        queue_depth: None,
        error: Some(format!(
            "worker died {} time(s) processing this request",
            job.item.worker_deaths
        )),
        telemetry: None,
    }
}

/// Deliver exactly one response line. The `serve.respond` failpoint
/// models a broken transport: a fired fault drops the line (counted)
/// without killing the worker or affecting any other request.
fn deliver(
    shared: &Shared,
    respond: &Sender<MapResponse>,
    response: MapResponse,
    deadline_applied: bool,
) {
    let transport = catch_unwind(|| failpoint::trigger("serve.respond"));
    match transport {
        Ok(Ok(())) => account_and_send(shared, respond, response, Some(deadline_applied)),
        _ => {
            mapzero_obs::counter!("serve.respond.dropped");
        }
    }
}

/// Terminal accounting for one response — the single place a request
/// becomes observable: the response counter, the flight record, the
/// labeled outcome/engine counters, the latency sketches, and (for
/// admitted requests, `slo = Some(deadline_applied)`) the tenant's SLO
/// window — then the send itself. A hung-up receiver (caller stopped
/// listening) is its problem, not the worker's.
fn account_and_send(
    shared: &Shared,
    respond: &Sender<MapResponse>,
    response: MapResponse,
    slo: Option<bool>,
) {
    shared.stats.responses.fetch_add(1, Ordering::Relaxed);
    shared.flight.push(RequestRecord::from_response(&response));
    let reg = registry();
    reg.counter_family("serve.outcome").with(response.outcome.as_str()).inc();
    if let Some(engine) = &response.engine {
        reg.counter_family("serve.engine").with(engine).inc();
    }
    if response.outcome != Outcome::Rejected {
        let wait_us = u64::try_from(response.queue_wait.as_micros()).unwrap_or(u64::MAX);
        let service_us = u64::try_from(response.service_time.as_micros()).unwrap_or(u64::MAX);
        reg.sketch("serve.latency.queue_wait_us").record(wait_us);
        reg.sketch("serve.latency.service_us").record(service_us);
        reg.sketch_family("serve.tenant.service_us").with(&response.tenant).record(service_us);
    }
    if let Some(deadline_applied) = slo {
        if let Some(anomaly) =
            shared.slo.record_outcome(&response.tenant, response.outcome, deadline_applied)
        {
            note_anomaly(shared, &anomaly);
        }
        // Breaker verdict for this admitted request. Worker deaths were
        // already recorded at death time (`worker_deaths == 0` gate
        // avoids double-counting a death that ended `internal`); honest
        // negative answers (failed/timeout/deadline) count as successes
        // — they close a half-open probe instead of punishing hard
        // kernels.
        match response.outcome {
            Outcome::Internal if response.worker_deaths == 0 => {
                record_breaker_failure(shared, &response.tenant);
            }
            Outcome::Mapped | Outcome::Failed | Outcome::Timeout | Outcome::Deadline => {
                shared.breakers.record_success(&response.tenant);
            }
            _ => {}
        }
    }
    let _ = respond.send(response);
}

/// Record one tenant-caused failure; when it trips the breaker open,
/// surface the transition as an anomaly (flight-recorder dump included).
fn record_breaker_failure(shared: &Shared, tenant: &str) {
    if let Some(failures) = shared.breakers.record_failure(tenant, Instant::now()) {
        registry().counter_family("serve.breaker.open").with(tenant).inc();
        note_anomaly(shared, &Anomaly::BreakerOpen { tenant: tenant.to_owned(), failures });
    }
}

/// Count an anomaly and dump the flight recorder to stderr: the last N
/// terminal requests, oldest first, as JSONL under a one-line header.
fn note_anomaly(shared: &Shared, anomaly: &Anomaly) {
    shared.stats.anomalies.fetch_add(1, Ordering::Relaxed);
    mapzero_obs::counter!("serve.anomaly");
    let dump = shared.flight.snapshot();
    eprintln!("serve: anomaly: {} — flight recorder ({} records):", anomaly.describe(), dump.len());
    for record in dump {
        eprintln!("{}", record.to_json().to_string_compact());
    }
}

/// Process one admitted request on this worker: deadline gate, fault
/// arming, budgeted mapping with bounded internal-fault retries.
/// Panics escaping this function (e.g. `serve.worker.pre_map`) are the
/// worker-death path handled by the caller.
fn process_job(shared: &Shared, compiler: &mut Compiler, job: &Job<QueuedRequest>) -> MapResponse {
    let req = &job.item.request;
    let started = Instant::now();
    let queue_wait = started.saturating_duration_since(job.enqueued_at);
    let wait_us = u64::try_from(queue_wait.as_micros()).unwrap_or(u64::MAX);
    mapzero_obs::observe!("serve.queue_wait_us", wait_us);
    // Scope every span emitted while this request is on the worker —
    // including the compiler's own tree, and including spans emitted
    // during a worker-death unwind — to the request id. Declared before
    // the `serve.request` guard so the guard's drop still sees the id.
    let _req_scope = mapzero_obs::trace::request_scope(&req.id);
    // No code runs while a request waits in the queue, so its wait is
    // reconstructed as a synthetic span at pickup time.
    mapzero_obs::trace::emit_span(
        "serve.queue.wait",
        mapzero_obs::trace::now_us().saturating_sub(wait_us),
        wait_us,
        Some(&req.id),
    );
    let _request_span = mapzero_obs::span!("serve.request");
    let capture = mapzero_obs::RunCapture::begin();
    let deadline = effective_deadline(&shared.config, job);

    let mut response = MapResponse {
        id: req.id.clone(),
        tenant: req.tenant.clone(),
        outcome: Outcome::Internal,
        engine: None,
        mii: None,
        achieved_ii: None,
        mapping: None,
        queue_wait,
        service_time: Duration::ZERO,
        retries: 0,
        worker_deaths: job.item.worker_deaths,
        queue_depth: None,
        error: None,
        telemetry: None,
    };

    // Expired while queued: answer structurally, burn no search time.
    if deadline.is_some_and(|d| started >= d) {
        mapzero_obs::counter!("serve.deadline.queued");
        response.outcome = Outcome::Deadline;
        response.error = Some("deadline expired while queued".to_owned());
        response.telemetry = capture.map(mapzero_obs::RunCapture::finish);
        return response;
    }

    // Per-request chaos faults, armed thread-locally for exactly this
    // request's processing (scope guards disarm even on unwind).
    let _fault_scopes: Vec<FailScope> = req
        .fault
        .as_deref()
        .and_then(|spec| failpoint::parse_spec(spec).ok())
        .unwrap_or_default()
        .into_iter()
        .map(|(name, action, after)| failpoint::scoped(&name, after, action))
        .collect();

    mapzero_core::failpoint!("serve.worker.pre_map");

    install_net(shared, compiler, req.cgra.pe_count());
    let mut budget = deadline.map_or_else(Budget::unlimited, Budget::from_deadline_at);
    // The compiler's expansion cap bounds each request's work, composed
    // with the wall-clock deadline.
    if let Some(cap) = shared.config.compiler.expansion_budget {
        budget = budget.with_expansion_cap(cap);
    }
    let bounds = IiBounds { min: req.ii_min, max: req.ii_max };

    let mut retries: u32 = 0;
    let result = loop {
        let attempt = compiler.map_request(&req.dfg, &req.cgra, &budget, bounds);
        match attempt {
            Err(MapError::Internal(_))
                if retries < shared.config.max_retries && !budget.exhausted() =>
            {
                retries += 1;
                shared.stats.retries.fetch_add(1, Ordering::Relaxed);
                mapzero_obs::counter!("serve.retry");
                let backoff = shared
                    .config
                    .retry_backoff
                    .saturating_mul(1 << (retries - 1).min(16));
                let nap = match budget.remaining_time() {
                    Some(remaining) => backoff.min(remaining),
                    None => backoff,
                };
                if !nap.is_zero() {
                    std::thread::sleep(nap);
                }
            }
            other => break other,
        }
    };

    response.retries = retries;
    match result {
        Ok(report) => {
            response.engine = Some(report.engine.clone());
            response.mii = Some(report.mii);
            match report.mapping {
                Some(mut mapping) => {
                    // The `validate.corrupt` failpoint damages the
                    // mapping *after* the compiler produced it — the
                    // only way to prove the validator gate fires, since
                    // a correct compiler never feeds it garbage.
                    if failpoint::trigger("validate.corrupt").is_err() {
                        validate::corrupt(&mut mapping);
                    }
                    let ii = mapping.ii;
                    match validate::check_mapping(&req.dfg, &req.cgra, &mapping, ii) {
                        Ok(()) => {
                            response.outcome = Outcome::Mapped;
                            response.achieved_ii = Some(ii);
                            response.mapping = Some(mapping);
                        }
                        Err(violations) => {
                            shared.stats.validate_fail.fetch_add(1, Ordering::Relaxed);
                            mapzero_obs::counter!("serve.validate.fail");
                            note_anomaly(
                                shared,
                                &Anomaly::InvalidMapping {
                                    id: req.id.clone(),
                                    tenant: req.tenant.clone(),
                                },
                            );
                            response.outcome = Outcome::Internal;
                            response.error = Some(format!(
                                "mapping rejected by independent validation ({} violation(s), first: {})",
                                violations.len(),
                                violations.first().map_or("?", String::as_str),
                            ));
                        }
                    }
                }
                None => {
                    // The compiler can answer Ok with no mapping (II
                    // window exhausted without a legal result); that is
                    // a structural failure, not a success.
                    response.outcome = Outcome::Failed;
                    response.error =
                        Some("no mapping produced within the II window".to_owned());
                }
            }
        }
        Err(MapError::Unmappable(msg)) => {
            response.outcome = Outcome::Failed;
            response.error = Some(format!("unmappable: {msg}"));
        }
        Err(MapError::NoSchedule(msg)) => {
            response.outcome = Outcome::Failed;
            response.error = Some(format!("no schedule: {msg}"));
        }
        Err(MapError::Timeout { best_partial }) => {
            let expired = deadline.is_some_and(|d| Instant::now() >= d);
            response.outcome = if expired { Outcome::Deadline } else { Outcome::Timeout };
            response.error = Some(format!(
                "budget exhausted: {}/{} nodes placed, best II {:?}",
                best_partial.nodes_placed, best_partial.total_nodes, best_partial.best_ii
            ));
        }
        Err(MapError::Diverged { epoch }) => {
            response.outcome = Outcome::Internal;
            response.error = Some(format!("training diverged at epoch {epoch}"));
        }
        Err(MapError::Internal(msg)) => {
            response.outcome = Outcome::Internal;
            response.error = Some(msg);
        }
    }
    response.service_time = started.elapsed();
    mapzero_obs::observe!(
        "serve.service_us",
        u64::try_from(response.service_time.as_micros()).unwrap_or(u64::MAX)
    );
    response.telemetry = capture.map(mapzero_obs::RunCapture::finish);
    response
}
