//! Human-readable end-of-run summaries, the `/metrics`-style text
//! exposition, and the `mapzero_top` status renderer.

use crate::json::Json;
use crate::metrics::MetricsSnapshot;
use crate::phase::{RunTelemetry, PHASES};
use std::fmt::Write as _;
use std::time::Duration;

fn pct(part: Duration, whole: Duration) -> f64 {
    if whole.is_zero() {
        0.0
    } else {
        100.0 * part.as_secs_f64() / whole.as_secs_f64()
    }
}

/// Render one run's telemetry as an aligned per-phase table:
/// phase self-time, share of `elapsed`, and the headline counters.
#[must_use]
pub fn render_run(telemetry: &RunTelemetry, elapsed: Duration) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<10} {:>12} {:>7}", "phase", "self-time", "share");
    let mut attributed = Duration::ZERO;
    for phase in PHASES {
        let t = telemetry.phases.get(phase);
        attributed += t;
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>6.1}%",
            phase.name(),
            format_duration(t),
            pct(t, elapsed)
        );
    }
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>6.1}%",
        "(other)",
        format_duration(elapsed.saturating_sub(attributed)),
        pct(elapsed.saturating_sub(attributed), elapsed)
    );
    let _ = writeln!(out, "{:<10} {:>12}", "total", format_duration(elapsed));
    if !telemetry.counters.is_empty() {
        let _ = writeln!(out);
        for (name, value) in &telemetry.counters {
            let _ = writeln!(out, "{name:<24} {value:>12}");
        }
    }
    for (name, &(count, sum)) in &telemetry.histograms {
        let mean = if count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                sum as f64 / count as f64
            }
        };
        let _ = writeln!(out, "{name:<24} {count:>12} obs, mean {mean:.1}");
    }
    out
}

/// Mangle one metric name for text exposition: `[a-zA-Z0-9_:]` pass
/// through, everything else (dots in our names) becomes `_`.
fn expo_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect()
}

/// Split a flattened `name{label}` snapshot key into its parts.
fn split_labeled(key: &str) -> (&str, Option<&str>) {
    match key.strip_suffix('}').and_then(|k| k.split_once('{')) {
        Some((name, label)) => (name, Some(label)),
        None => (key, None),
    }
}

fn expo_key(key: &str) -> String {
    match split_labeled(key) {
        (name, Some(label)) => format!("{}{{label=\"{label}\"}}", expo_name(name)),
        (name, None) => expo_name(name),
    }
}

/// Render a registry snapshot as a Prometheus-style text exposition:
/// one `name value` line per counter/gauge sample, `_count`/`_sum`
/// lines per histogram, and `{quantile="..."}` samples per sketch.
/// Labeled family members carry a `label="..."` dimension. This is the
/// payload of the serve admin endpoint's `metrics` command.
#[must_use]
pub fn render_exposition(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (key, value) in &snapshot.counters {
        let _ = writeln!(out, "{} {value}", expo_key(key));
    }
    for (key, value) in &snapshot.gauges {
        let _ = writeln!(out, "{} {value}", expo_key(key));
    }
    for (key, h) in &snapshot.histograms {
        let (name, label) = split_labeled(key);
        let name = expo_name(name);
        let suffix = label.map_or(String::new(), |l| format!("{{label=\"{l}\"}}"));
        let _ = writeln!(out, "{name}_count{suffix} {}", h.count);
        let _ = writeln!(out, "{name}_sum{suffix} {}", h.sum);
    }
    for (key, sketch) in &snapshot.sketches {
        let (name, label) = split_labeled(key);
        let name = expo_name(name);
        let extra = label.map_or(String::new(), |l| format!(",label=\"{l}\""));
        for (q, v) in
            [("0.5", sketch.p50()), ("0.9", sketch.quantile(0.9)), ("0.99", sketch.p99())]
        {
            let _ = writeln!(out, "{name}{{quantile=\"{q}\"{extra}}} {v}");
        }
        let suffix = label.map_or(String::new(), |l| format!("{{label=\"{l}\"}}"));
        let _ = writeln!(out, "{name}_count{suffix} {}", sketch.count());
        let _ = writeln!(out, "{name}_sum{suffix} {}", sketch.sum());
    }
    out
}

fn field_u64(json: &Json, name: &str) -> u64 {
    json.get(name).and_then(Json::as_u64).unwrap_or(0)
}

/// Render the serve `/status` JSON (see `mapzero-serve::admin`) as the
/// `mapzero_top`-style one-shot console view: service headline plus a
/// per-tenant table with queue occupancy, outcome counts, and the
/// sliding-window deadline-hit rate.
#[must_use]
pub fn render_status(status: &Json) -> String {
    let mut out = String::new();
    let uptime = Duration::from_micros(field_u64(status, "uptime_us"));
    let _ = write!(out, "uptime {:<10}", format_duration(uptime));
    // Only surface the lifecycle state when it is unusual.
    if let Some(state) = status.get("state").and_then(Json::as_str) {
        if state != "running" {
            let _ = write!(out, " [{state}]");
        }
    }
    let _ = write!(out, " queue {:<5}", field_u64(status, "queue_depth"));
    if let Some(workers) = status.get("workers") {
        let _ = write!(
            out,
            " workers {} (deaths {}, respawns {})",
            field_u64(workers, "configured"),
            field_u64(workers, "deaths"),
            field_u64(workers, "respawns"),
        );
    }
    let _ = writeln!(out);
    if let Some(stats) = status.get("stats") {
        let _ = writeln!(
            out,
            "admitted {}  responses {}  shed {}  retries {}  anomalies {}",
            field_u64(stats, "admitted"),
            field_u64(stats, "responses"),
            field_u64(stats, "shed"),
            field_u64(stats, "retries"),
            field_u64(stats, "anomalies"),
        );
    }
    if let Some(cache) = status.get("cache") {
        let hit = field_u64(cache, "predict_hit");
        let miss = field_u64(cache, "predict_miss");
        let total = hit + miss;
        if total > 0 {
            #[allow(clippy::cast_precision_loss)]
            let rate = 100.0 * hit as f64 / total as f64;
            let _ = writeln!(out, "predict cache {hit}/{total} hits ({rate:.1}%)");
        }
    }
    if let Some(flight) = status.get("flight") {
        let _ = writeln!(
            out,
            "flight recorder {} recorded, last {} retained",
            field_u64(flight, "recorded"),
            field_u64(flight, "capacity").min(field_u64(flight, "recorded")),
        );
    }
    if let Some(journal) = status.get("journal") {
        if journal.get("generation").is_some() {
            let _ = writeln!(
                out,
                "journal gen {} — {} appended, {} terminal, {} replayed",
                field_u64(journal, "generation"),
                field_u64(journal, "appended"),
                field_u64(journal, "terminal"),
                field_u64(journal, "replayed"),
            );
        }
    }
    if let Some(Json::Obj(breakers)) = status.get("breakers") {
        for (tenant, b) in breakers {
            let state = b.get("state").and_then(Json::as_str).unwrap_or("?");
            if state != "closed" {
                let _ = writeln!(
                    out,
                    "breaker {tenant}: {state} ({} trips)",
                    field_u64(b, "trips"),
                );
            }
        }
    }
    if let Some(Json::Obj(tenants)) = status.get("tenants") {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>8} {:>8} {:>5} {:>6} {:>6} {:>7} {:>6} {:>8} {:>7}",
            "tenant", "queued", "inflight", "admitted", "shed", "mapped", "failed",
            "timeout", "deadl", "internal", "slo"
        );
        for (name, t) in tenants {
            let slo = t
                .get("deadline_hit_rate")
                .and_then(Json::as_f64)
                .map_or("   n/a".to_owned(), |r| format!("{:.1}%", 100.0 * r));
            let _ = writeln!(
                out,
                "{name:<16} {:>6} {:>8} {:>8} {:>5} {:>6} {:>6} {:>7} {:>6} {:>8} {slo:>7}",
                field_u64(t, "queued"),
                field_u64(t, "inflight"),
                field_u64(t, "admitted"),
                field_u64(t, "shed"),
                field_u64(t, "mapped"),
                field_u64(t, "failed"),
                field_u64(t, "timeout"),
                field_u64(t, "deadline"),
                field_u64(t, "internal"),
            );
        }
    }
    out
}

/// Fixed-width humane duration: µs under 1 ms, ms under 1 s, else s.
#[must_use]
pub fn format_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.2}s", d.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseLedger;

    #[test]
    fn run_table_lists_every_phase_and_other() {
        let t = RunTelemetry {
            phases: PhaseLedger::default(),
            counters: [("mcts.expansions".to_owned(), 42u64)].into_iter().collect(),
            histograms: [("nn.forward_us".to_owned(), (10u64, 1000u64))].into_iter().collect(),
        };
        let table = render_run(&t, Duration::from_millis(5));
        for phase in PHASES {
            assert!(table.contains(phase.name()), "{table}");
        }
        assert!(table.contains("(other)"));
        assert!(table.contains("mcts.expansions"));
        assert!(table.contains("nn.forward_us"));
        assert!(table.contains("mean 100.0"));
    }

    #[test]
    fn exposition_renders_every_instrument_kind() {
        let r = crate::metrics::Registry::default();
        r.counter("expo.count").add(5);
        r.gauge("expo.gauge").set(2);
        r.histogram("expo.hist").record(8);
        r.sketch("expo.lat_us").record(100);
        r.counter_family("expo.outcome").with("acme").add(3);
        let text = render_exposition(&r.snapshot());
        assert!(text.contains("expo_count 5"), "{text}");
        assert!(text.contains("expo_gauge 2"), "{text}");
        assert!(text.contains("expo_hist_count 1"), "{text}");
        assert!(text.contains("expo_hist_sum 8"), "{text}");
        assert!(text.contains("expo_lat_us{quantile=\"0.5\"} 100"), "{text}");
        assert!(text.contains("expo_outcome{label=\"acme\"} 3"), "{text}");
        // One sample per line, no raw dots in sample names (labels may
        // contain them, e.g. quantile="0.5").
        for line in text.lines() {
            assert_eq!(line.split_whitespace().count(), 2, "{line}");
            let key = line.split_whitespace().next().unwrap();
            let bare = key.split('{').next().unwrap();
            assert!(!bare.contains('.'), "{line}");
        }
    }

    #[test]
    fn status_renderer_tabulates_tenants() {
        let status = crate::json::parse(
            r#"{"uptime_us":1500000,"queue_depth":2,
                "workers":{"configured":2,"deaths":1,"respawns":1},
                "stats":{"admitted":9,"responses":8,"shed":1,"retries":0,"anomalies":1},
                "tenants":{"acme":{"queued":1,"inflight":1,"admitted":5,"shed":1,
                    "mapped":3,"failed":0,"timeout":0,"deadline":0,"internal":0,
                    "deadline_hit_rate":0.75}}}"#,
        )
        .unwrap();
        let text = render_status(&status);
        assert!(text.contains("uptime 1.50s"), "{text}");
        assert!(text.contains("workers 2 (deaths 1, respawns 1)"), "{text}");
        assert!(text.contains("acme"), "{text}");
        assert!(text.contains("75.0%"), "{text}");
        assert!(text.contains("anomalies 1"), "{text}");
    }

    #[test]
    fn durations_format_by_magnitude() {
        assert_eq!(format_duration(Duration::from_micros(7)), "7µs");
        assert_eq!(format_duration(Duration::from_micros(2500)), "2.50ms");
        assert_eq!(format_duration(Duration::from_millis(1500)), "1.50s");
    }
}
