//! The observability plane's acceptance suite: `/status` counters
//! reconcile with the JSONL responses, the flight recorder holds every
//! terminal request exactly once (worker deaths included), request-
//! scoped tracing yields one complete tree per request even when its
//! worker was killed mid-flight, and the admin socket serves all three
//! payloads.
//!
//! Tests serialize on one lock: they arm process-global failpoints and
//! install the process-global trace sink.

use mapzero_arch::presets;
use mapzero_core::failpoint::{self, FailAction};
use mapzero_dfg::suite;
use mapzero_obs::sink::{install_sink, uninstall_sink, MemorySink, TelemetrySink};
use mapzero_serve::admin;
use mapzero_serve::queue::QueueConfig;
use mapzero_serve::service::{MapService, ServeConfig};
use mapzero_serve::wire::{MapRequest, Outcome};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn request(id: &str, tenant: &str, kernel: &str) -> MapRequest {
    MapRequest::new(id, tenant, suite::by_name(kernel).unwrap(), presets::hrea())
}

fn field(json: &mapzero_obs::json::Json, path: &[&str]) -> u64 {
    let mut cur = json;
    for key in path {
        cur = cur.get(key).unwrap_or_else(|| panic!("missing field {path:?}"));
    }
    cur.as_u64().unwrap_or_else(|| panic!("field {path:?} not a number"))
}

/// The reconciliation invariant: once the queue is idle, per-tenant
/// `admitted == mapped + failed + timeout + deadline + internal`, shed
/// counted separately — and the `/status` numbers agree with the
/// responses actually delivered.
#[test]
fn status_counters_reconcile_with_responses() {
    let _g = serial();
    // Tiny queue so the burst sheds; one request expires in the queue.
    let config = ServeConfig {
        workers: 1,
        queue: QueueConfig { capacity: 2, tenant_inflight_cap: 2 },
        ..ServeConfig::fast_test()
    };
    let service = MapService::start(config);
    let mut batch = vec![
        request("a-1", "acme", "sum"),
        request("a-2", "acme", "mac"),
        request("b-1", "beta", "sum"),
        request("b-2", "beta", "mac"),
        request("b-3", "beta", "accumulate"),
    ];
    batch[1].deadline = Some(Duration::ZERO); // expires while queued
    let responses = service.process_batch(batch);
    assert_eq!(responses.len(), 5);

    // Tally the ground truth from the delivered responses.
    let mut by_tenant: HashMap<String, HashMap<&'static str, u64>> = HashMap::new();
    for r in &responses {
        *by_tenant.entry(r.tenant.clone()).or_default().entry(r.outcome.as_str()).or_default() +=
            1;
    }

    let status = service.status_json();
    let mut admitted_total = 0;
    for (tenant, outcomes) in &by_tenant {
        let t = status.get("tenants").and_then(|ts| ts.get(tenant)).unwrap_or_else(|| {
            panic!("tenant {tenant} missing from status: {}", status.to_string_compact())
        });
        let terminal = field(t, &["mapped"])
            + field(t, &["failed"])
            + field(t, &["timeout"])
            + field(t, &["deadline"])
            + field(t, &["internal"]);
        assert_eq!(field(t, &["admitted"]), terminal, "tenant {tenant} does not reconcile");
        let shed_responses = outcomes.get("rejected").copied().unwrap_or(0);
        assert_eq!(field(t, &["shed"]), shed_responses, "tenant {tenant} shed mismatch");
        for outcome in ["mapped", "failed", "timeout", "deadline", "internal"] {
            assert_eq!(
                field(t, &[outcome]),
                outcomes.get(outcome).copied().unwrap_or(0),
                "tenant {tenant} outcome {outcome} mismatch"
            );
        }
        admitted_total += field(t, &["admitted"]);
    }
    assert_eq!(field(&status, &["stats", "admitted"]), admitted_total);
    assert_eq!(field(&status, &["stats", "responses"]), 5);
    assert_eq!(field(&status, &["queue_depth"]), 0);

    // Exactly-once in the flight recorder: every response id appears
    // exactly once, shed ones included.
    let mut flight_ids: Vec<String> =
        service.flight_snapshot().into_iter().map(|r| r.id).collect();
    flight_ids.sort();
    let mut response_ids: Vec<String> = responses.iter().map(|r| r.id.clone()).collect();
    response_ids.sort();
    assert_eq!(flight_ids, response_ids);
    service.shutdown();
}

/// Chaos: a request whose worker is killed mid-flight still appears
/// exactly once in the flight recorder and still yields one complete,
/// well-formed trace tree — the queue-wait span, a `serve.request`
/// span per attempt (the killed attempt's span is emitted during the
/// unwind), and the compiler's own `compile.map` span, all carrying
/// the request id.
#[test]
fn killed_worker_request_keeps_exactly_one_flight_record_and_trace_tree() {
    let _g = serial();
    let sink = Arc::new(MemorySink::new());
    install_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
    let service = MapService::start(ServeConfig::fast_test());
    // Fires on exactly one worker visit; the retry runs clean. The
    // victim is served alone while the failpoint is armed, so the one
    // panic can only hit its worker, never the clean request's.
    failpoint::arm_global("serve.worker.pre_map", 1, FailAction::Panic);
    let mut responses = service.process_batch(vec![request("victim", "acme", "sum")]);
    failpoint::disarm_global("serve.worker.pre_map");
    responses.extend(service.process_batch(vec![request("clean", "beta", "mac")]));
    uninstall_sink();

    assert_eq!(responses.len(), 2);
    let victim = responses.iter().find(|r| r.id == "victim").unwrap();
    assert_eq!(victim.outcome, Outcome::Mapped, "{:?}", victim.error);
    assert_eq!(victim.worker_deaths, 1);

    // Flight recorder: both requests exactly once, the death visible.
    let flight = service.flight_snapshot();
    let victims: Vec<_> = flight.iter().filter(|r| r.id == "victim").collect();
    assert_eq!(victims.len(), 1, "exactly one flight record for the killed-worker request");
    assert_eq!(victims[0].worker_deaths, 1);
    assert_eq!(victims[0].outcome, Outcome::Mapped);
    assert_eq!(flight.iter().filter(|r| r.id == "clean").count(), 1);
    assert_eq!(
        service.stats().anomalies.load(Ordering::Relaxed),
        1,
        "the worker death is an anomaly"
    );

    // Trace trees: group spans by request id.
    let events = sink.take();
    let mut by_req: HashMap<String, Vec<&mapzero_obs::TraceEvent>> = HashMap::new();
    for e in &events {
        if let Some(req) = &e.req {
            by_req.entry(req.clone()).or_default().push(e);
        }
    }
    for id in ["victim", "clean"] {
        let spans = by_req.get(id).unwrap_or_else(|| panic!("no spans for request {id}"));
        let names: Vec<&str> = spans.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"serve.queue.wait"), "{id}: {names:?}");
        assert!(names.contains(&"serve.request"), "{id}: {names:?}");
        assert!(names.contains(&"compile.map"), "{id}: {names:?}");
        // Well-formed: every span nests under a root `serve.request`
        // at the shallowest depth (the killed attempt contributes a
        // second, shallower-or-equal tree of its own).
        let root_depth =
            spans.iter().filter(|e| e.name == "serve.request").map(|e| e.depth).min().unwrap();
        let compile_depth =
            spans.iter().filter(|e| e.name == "compile.map").map(|e| e.depth).min().unwrap();
        assert!(compile_depth > root_depth, "{id}: compile.map outside serve.request");
    }
    // The killed attempt emitted its own serve.request span on unwind:
    // the victim has two, the clean request one.
    let victim_roots =
        by_req["victim"].iter().filter(|e| e.name == "serve.request").count();
    assert_eq!(victim_roots, 2, "one aborted + one successful attempt");
    assert_eq!(by_req["clean"].iter().filter(|e| e.name == "serve.request").count(), 1);
    service.shutdown();
}

/// The admin socket round trip: all three commands answer over a real
/// Unix socket, and `status` is the same JSON `status_json` builds.
#[test]
fn admin_socket_serves_status_metrics_and_flight() {
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    let _g = serial();
    let service = MapService::start(ServeConfig::fast_test());
    let _ = service.process_batch(vec![request("r-1", "acme", "sum")]);

    let path = std::env::temp_dir().join(format!("mapzero-admin-test-{}.sock", std::process::id()));
    let path = path.to_string_lossy().into_owned();
    admin::spawn_admin_socket(&service, &path).expect("bind admin socket");

    let fetch = |command: &str| -> String {
        let mut stream = UnixStream::connect(&path).expect("connect");
        writeln!(stream, "{command}").expect("send command");
        stream.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut payload = String::new();
        stream.read_to_string(&mut payload).expect("read payload");
        payload
    };

    let status = mapzero_obs::json::parse(fetch("status").trim()).expect("status is JSON");
    assert_eq!(field(&status, &["stats", "responses"]), 1);
    assert!(status.get("tenants").and_then(|t| t.get("acme")).is_some());

    // The registry is process-global (tests in this binary share it),
    // so assert sample presence, not exact values.
    let metrics = fetch("metrics");
    assert!(metrics.contains("serve_outcome{label=\"mapped\"}"), "{metrics}");
    assert!(metrics.contains("serve_latency_service_us{quantile=\"0.5\"}"), "{metrics}");

    let flight = fetch("flight");
    let lines: Vec<&str> = flight.lines().collect();
    assert_eq!(lines.len(), 1);
    let record = mapzero_obs::json::parse(lines[0]).expect("flight line is JSON");
    assert_eq!(record.get("id").and_then(|j| j.as_str()), Some("r-1"));

    assert!(fetch("bogus").starts_with("error:"));
    let _ = std::fs::remove_file(&path);
    service.shutdown();
}
