//! Behavioral tests for the compile service: admission, deadlines,
//! retries, hedging, worker death, overload, and per-request telemetry.
//!
//! Tests in this binary serialize on one lock: several arm process-wide
//! failpoints (`arm_global`) or flip the process-global telemetry
//! switch, which concurrent services would race on.

use mapzero_arch::presets;
use mapzero_core::failpoint::{self, FailAction};
use mapzero_core::validate;
use mapzero_dfg::suite;
use mapzero_serve::queue::QueueConfig;
use mapzero_serve::service::{MapService, ServeConfig};
use mapzero_serve::wire::{MapRequest, Outcome};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn request(id: &str, tenant: &str, kernel: &str) -> MapRequest {
    MapRequest::new(id, tenant, suite::by_name(kernel).unwrap(), presets::hrea())
}

#[test]
fn maps_a_batch_and_answers_in_request_order() {
    let _g = serial();
    let service = MapService::start(ServeConfig::fast_test());
    let batch = vec![
        request("a-1", "acme", "sum"),
        request("b-1", "beta", "mac"),
        request("a-2", "acme", "accumulate"),
    ];
    let responses = service.process_batch(batch);
    assert_eq!(responses.len(), 3);
    assert_eq!(
        responses.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
        ["a-1", "b-1", "a-2"]
    );
    for r in &responses {
        assert_eq!(r.outcome, Outcome::Mapped, "{}: {:?}", r.id, r.error);
        assert!(r.mapping.is_some());
        assert_eq!(r.worker_deaths, 0);
    }
    service.shutdown();
}

#[test]
fn zero_capacity_queue_sheds_with_rejected_response() {
    let _g = serial();
    let config = ServeConfig {
        queue: QueueConfig { capacity: 0, tenant_inflight_cap: 2 },
        ..ServeConfig::fast_test()
    };
    let service = MapService::start(config);
    let responses = service.process_batch(vec![request("r", "acme", "sum")]);
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].outcome, Outcome::Rejected);
    assert_eq!(responses[0].queue_depth, Some(0));
    assert_eq!(service.stats().shed.load(std::sync::atomic::Ordering::Relaxed), 1);
    service.shutdown();
}

#[test]
fn expired_deadline_in_queue_is_answered_structurally() {
    let _g = serial();
    let service = MapService::start(ServeConfig::fast_test());
    let mut req = request("late", "acme", "sum");
    // The allowance is consumed entirely by queue wait (any wait > 0).
    req.deadline = Some(Duration::ZERO);
    let responses = service.process_batch(vec![req]);
    assert_eq!(responses[0].outcome, Outcome::Deadline);
    assert!(responses[0].error.as_deref().unwrap().contains("queued"));
    service.shutdown();
}

#[test]
fn internal_fault_is_retried_to_success() {
    let _g = serial();
    let service = MapService::start(ServeConfig::fast_test());
    let mut req = request("flaky", "acme", "sum");
    // The compiler's own isolation boundary converts this panic into
    // MapError::Internal; the service retries and the (self-disarmed)
    // failpoint stays quiet on the second attempt.
    req.fault = Some("compile.attempt=panic".to_owned());
    let responses = service.process_batch(vec![req]);
    assert_eq!(responses[0].outcome, Outcome::Mapped, "{:?}", responses[0].error);
    assert_eq!(responses[0].retries, 1);
    assert_eq!(responses[0].worker_deaths, 0, "contained fault must not kill the worker");
    service.shutdown();
}

#[test]
fn one_worker_death_is_contained_and_the_request_retried() {
    let _g = serial();
    let service = MapService::start(ServeConfig::fast_test());
    // Process-global: fires on exactly one worker visit, so the retry
    // (on the respawned or sibling worker) runs clean.
    failpoint::arm_global("serve.worker.pre_map", 1, FailAction::Panic);
    let responses = service.process_batch(vec![request("victim", "acme", "sum")]);
    failpoint::disarm_global("serve.worker.pre_map");
    assert_eq!(responses[0].outcome, Outcome::Mapped, "{:?}", responses[0].error);
    assert_eq!(responses[0].worker_deaths, 1);
    let stats = service.stats();
    assert_eq!(stats.worker_deaths.load(std::sync::atomic::Ordering::Relaxed), 1);
    assert_eq!(stats.respawns.load(std::sync::atomic::Ordering::Relaxed), 1);
    // The pool is intact: the next request maps normally.
    let responses = service.process_batch(vec![request("after", "acme", "mac")]);
    assert_eq!(responses[0].outcome, Outcome::Mapped);
    service.shutdown();
}

#[test]
fn repeated_worker_death_fails_structurally_never_lost() {
    let _g = serial();
    let config = ServeConfig { max_retries: 1, ..ServeConfig::fast_test() };
    let service = MapService::start(config);
    let mut req = request("doomed", "acme", "sum");
    // A per-request fault re-arms on every attempt (the worker arms it
    // from the request itself), so each retry dies again until the
    // allowance is spent — the request must still get exactly one
    // structured response.
    req.fault = Some("serve.worker.pre_map=panic".to_owned());
    let responses = service.process_batch(vec![req]);
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].outcome, Outcome::Internal);
    assert_eq!(responses[0].worker_deaths, 2, "initial attempt + one retry");
    // Two workers died; two were respawned; service still serves.
    let responses = service.process_batch(vec![request("after", "beta", "sum")]);
    assert_eq!(responses[0].outcome, Outcome::Mapped);
    service.shutdown();
}

#[test]
fn expansion_budget_timeout_is_reported() {
    let _g = serial();
    let mut config = ServeConfig::fast_test();
    config.compiler.expansion_budget = Some(10);
    let service = MapService::start(config);
    // 54 nodes cannot map within 10 expansions and there is no
    // deadline, so the outcome is a work-budget timeout.
    let responses = service.process_batch(vec![request("big", "acme", "arf")]);
    assert_eq!(responses[0].outcome, Outcome::Timeout, "{:?}", responses[0].error);
    service.shutdown();
}

#[test]
fn hedged_fallback_rescues_a_starved_primary() {
    let _g = serial();
    let mut config = ServeConfig { hedge: true, ..ServeConfig::fast_test() };
    config.compiler.expansion_budget = Some(1);
    let service = MapService::start(config);
    // A one-expansion budget starves the primary before it can place
    // anything; the SA lane (not expansion-limited) produces the
    // mapping.
    let responses = service.process_batch(vec![request("hedged", "acme", "sum")]);
    assert_eq!(responses[0].outcome, Outcome::Mapped, "{:?}", responses[0].error);
    assert_eq!(responses[0].engine.as_deref(), Some("SA"));
    service.shutdown();
}

#[test]
fn hedged_fallback_stays_inside_the_request_ii_window() {
    let _g = serial();
    let mut config = ServeConfig { hedge: true, ..ServeConfig::fast_test() };
    config.compiler.expansion_budget = Some(1);
    let service = MapService::start(config);
    // `sum` maps at II 1; the SA lane rescuing the starved primary must
    // climb the request's window, not its own from MII.
    let mut req = request("hedged-window", "acme", "sum");
    req.ii_min = Some(2);
    let responses = service.process_batch(vec![req]);
    assert_eq!(responses[0].outcome, Outcome::Mapped, "{:?}", responses[0].error);
    assert_eq!(responses[0].engine.as_deref(), Some("SA"));
    assert!(responses[0].achieved_ii.is_some_and(|ii| ii >= 2), "{:?}", responses[0].achieved_ii);
    service.shutdown();
}

#[test]
fn per_request_telemetry_delta_is_attached() {
    let _g = serial();
    let was = mapzero_obs::enabled();
    mapzero_obs::set_enabled(true);
    let service = MapService::start(ServeConfig::fast_test());
    let responses = service.process_batch(vec![request("traced", "acme", "sum")]);
    service.shutdown();
    mapzero_obs::set_enabled(was);
    let telemetry = responses[0].telemetry.as_ref().expect("telemetry enabled");
    assert!(
        telemetry.counter("compile.success") >= 1,
        "the request's own compile outcome is in its delta: {:?}",
        telemetry.counters
    );
    // And it shows up in the JSONL rendering.
    let line = responses[0].to_jsonl();
    assert!(line.contains("\"telemetry\""), "{line}");
}

#[test]
fn ii_bounds_flow_through_to_the_mapper() {
    let _g = serial();
    let service = MapService::start(ServeConfig::fast_test());
    let mut req = request("bounded", "acme", "sum");
    req.ii_min = Some(2);
    let mut impossible = request("impossible", "acme", "sum");
    impossible.ii_min = Some(40);
    impossible.ii_max = Some(50);
    let responses = service.process_batch(vec![req, impossible]);
    assert_eq!(responses[0].outcome, Outcome::Mapped);
    assert!(responses[0].achieved_ii.unwrap() >= 2);
    assert_eq!(responses[1].outcome, Outcome::Failed);
    assert!(responses[1].error.as_deref().unwrap().contains("no schedule"));
    service.shutdown();
}

#[test]
fn tenant_inflight_cap_is_enforced_under_load() {
    let _g = serial();
    let config = ServeConfig {
        workers: 4,
        queue: QueueConfig { capacity: 32, tenant_inflight_cap: 1 },
        ..ServeConfig::fast_test()
    };
    let service = MapService::start(config);
    // 6 requests from one tenant across 4 workers: with an in-flight
    // cap of 1 they serialize; all complete, none is lost.
    let batch: Vec<MapRequest> =
        (0..6).map(|i| request(&format!("q-{i}"), "mono", "sum")).collect();
    let responses = service.process_batch(batch);
    assert_eq!(responses.len(), 6);
    assert!(responses.iter().all(|r| r.outcome == Outcome::Mapped));
    service.shutdown();
}

#[test]
fn overload_burst_answers_every_request_and_maps_only_valid() {
    let _g = serial();
    let config = ServeConfig {
        workers: 2,
        queue: QueueConfig { capacity: 16, tenant_inflight_cap: 8 },
        ..ServeConfig::fast_test()
    };
    let service = MapService::start(config);
    // 64 requests against a 16-deep queue: admission control must shed
    // the excess with a `Rejected` answer, never drop it.
    let kernels = ["sum", "mac", "accumulate", "conv2"];
    let tenants = [("alpha", 2), ("beta", 1), ("gamma", 1)];
    let batch: Vec<MapRequest> = (0..64)
        .map(|i| {
            let (tenant, weight) = tenants[i % tenants.len()];
            let mut req = request(&format!("{tenant}-{i}"), tenant, kernels[i % kernels.len()]);
            req.weight = weight;
            req.deadline = Some(Duration::from_secs(60));
            req
        })
        .collect();
    let responses = service.process_batch(batch.clone());
    let validate_fail =
        service.stats().validate_fail.load(std::sync::atomic::Ordering::Relaxed);
    service.shutdown();

    assert_eq!(responses.len(), 64, "every offered request is answered");
    assert!(
        responses.iter().any(|r| r.outcome == Outcome::Rejected),
        "a 64-request burst overflows a 16-deep queue"
    );
    assert!(responses.iter().any(|r| r.outcome == Outcome::Mapped));
    assert_eq!(validate_fail, 0, "a healthy service never emits an invalid mapping");
    // Responses come back in request order.
    for (req, r) in batch.iter().zip(&responses).filter(|(_, r)| r.outcome == Outcome::Mapped) {
        let mapping = r.mapping.as_ref().expect("a mapped response carries its mapping");
        assert_eq!(
            validate::check_mapping(&req.dfg, &req.cgra, mapping, mapping.ii),
            Ok(()),
            "{}",
            r.id
        );
    }
}
