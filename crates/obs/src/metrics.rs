//! Lock-free metrics registry.
//!
//! Counters, gauges and fixed-bucket histograms keyed by a static name.
//! Registration (first use of a name) takes a mutex; every subsequent
//! update goes through a cached [`Arc`] handle and is a single relaxed
//! atomic RMW, so hot paths never contend on a lock. The update path is
//! exact under concurrency: `fetch_add` never loses increments, which
//! the crate's proptest asserts across thread counts.
//!
//! Two labeled extensions serve the ops plane (DESIGN.md §11):
//! [`Family`] adds one bounded-cardinality label dimension (tenant,
//! engine, outcome) to any instrument, and [`Sketch`] wraps the
//! mergeable [`QuantileSketch`] as a
//! registry instrument so `/metrics` can expose true p50/p99 instead of
//! power-of-two bucket shapes.

use crate::json::Json;
use crate::quantile::QuantileSketch;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge (e.g. replay-buffer occupancy).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of exponential buckets: bucket `i` holds values whose
/// bit-length is `i` (i.e. `v == 0` → bucket 0, else `64 - v.leading_zeros()`),
/// so the range 1 µs .. ~1 minute of microsecond latencies is covered
/// with power-of-two resolution.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-bucket histogram with exponential (power-of-two) buckets.
///
/// `count` and `sum` are exact; the bucket array gives the shape. All
/// updates are relaxed atomics — no locks, no lost updates.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, value: u64) {
        let bits = 64 - value.leading_zeros() as usize;
        let idx = bits.min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Immutable copy of the current state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Per-bucket observation counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum as f64 / self.count as f64
            }
        }
    }

    /// This snapshot minus an earlier one (saturating).
    #[must_use]
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets: self
                .buckets
                .iter()
                .zip(earlier.buckets.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }
}

/// A shareable quantile-sketch instrument: a mutex around the
/// mergeable [`QuantileSketch`]. The lock is uncontended in practice —
/// one record per *request*, not per search step — and keeps the sketch
/// itself allocation-light.
#[derive(Debug, Default)]
pub struct Sketch(Mutex<QuantileSketch>);

impl Sketch {
    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).record(value);
    }

    /// Clone of the current sketch state (itself mergeable).
    #[must_use]
    pub fn snapshot(&self) -> QuantileSketch {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

/// Hard cap on distinct label values per [`Family`]. The first
/// `MAX_LABEL_CARDINALITY` distinct (sanitized) labels get their own
/// instrument; every later label shares the [`OVERFLOW_LABEL`] slot, so
/// an adversarial tenant spraying unique names cannot grow the registry
/// without bound.
pub const MAX_LABEL_CARDINALITY: usize = 64;

/// The shared slot labels collapse into past the cardinality cap.
pub const OVERFLOW_LABEL: &str = "__other__";

/// Longest sanitized label kept verbatim; longer ones are truncated.
pub const MAX_LABEL_LEN: usize = 48;

/// Sanitize one label value for use in metric keys and text
/// exposition: printable ASCII from a conservative set, bounded length,
/// never empty. Quotes, braces, newlines and other exposition-breaking
/// characters become `_`.
#[must_use]
pub fn sanitize_label(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len().min(MAX_LABEL_LEN));
    for ch in raw.chars().take(MAX_LABEL_LEN) {
        if ch.is_ascii_alphanumeric() || matches!(ch, '.' | '_' | '-' | ':' | '/') {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push_str("unknown");
    }
    out
}

/// One instrument per label value, under one metric name, with bounded
/// cardinality (see [`MAX_LABEL_CARDINALITY`]). `T` is any default-
/// constructible instrument ([`Counter`], [`Histogram`], [`Sketch`]).
#[derive(Debug)]
pub struct Family<T> {
    name: &'static str,
    slots: Mutex<BTreeMap<String, Arc<T>>>,
}

impl<T: Default> Family<T> {
    fn new(name: &'static str) -> Self {
        Family { name, slots: Mutex::new(BTreeMap::new()) }
    }

    /// The metric name this family was registered under.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The instrument for `label` (sanitized), creating it on first
    /// use. Past the cardinality cap, returns the shared
    /// [`OVERFLOW_LABEL`] instrument instead of growing.
    #[must_use]
    pub fn with(&self, label: &str) -> Arc<T> {
        let label = sanitize_label(label);
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if !slots.contains_key(&label) && slots.len() >= MAX_LABEL_CARDINALITY {
            return Arc::clone(slots.entry(OVERFLOW_LABEL.to_owned()).or_default());
        }
        Arc::clone(slots.entry(label).or_default())
    }

    /// Distinct label values currently registered (sanitized form).
    #[must_use]
    pub fn labels(&self) -> Vec<String> {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect()
    }

    /// Snapshot every `(label, instrument)` pair.
    fn entries(&self) -> Vec<(String, Arc<T>)> {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }
}

/// Flattened snapshot key for one family member: `name{label}`.
fn labeled_key(name: &str, label: &str) -> String {
    format!("{name}{{{label}}}")
}

/// The global name → instrument map.
///
/// The cold path (name lookup) locks; hot paths keep the returned
/// handle (see [`crate::counter!`]) and never come back here.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
    sketches: Mutex<BTreeMap<&'static str, Arc<Sketch>>>,
    counter_families: Mutex<BTreeMap<&'static str, Arc<Family<Counter>>>>,
    sketch_families: Mutex<BTreeMap<&'static str, Arc<Family<Sketch>>>>,
}

impl Registry {
    /// The counter registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// Panics if the registry mutex was poisoned (a prior panic while
    /// registering — not reachable from safe use).
    #[must_use]
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        Arc::clone(self.counters.lock().expect("registry poisoned").entry(name).or_default())
    }

    /// The gauge registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// Panics if the registry mutex was poisoned.
    #[must_use]
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        Arc::clone(self.gauges.lock().expect("registry poisoned").entry(name).or_default())
    }

    /// The histogram registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// Panics if the registry mutex was poisoned.
    #[must_use]
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        Arc::clone(self.histograms.lock().expect("registry poisoned").entry(name).or_default())
    }

    /// The quantile sketch registered under `name`, creating it on
    /// first use.
    #[must_use]
    pub fn sketch(&self, name: &'static str) -> Arc<Sketch> {
        Arc::clone(
            self.sketches
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(name)
                .or_default(),
        )
    }

    /// The labeled counter family under `name`.
    #[must_use]
    pub fn counter_family(&self, name: &'static str) -> Arc<Family<Counter>> {
        Arc::clone(
            self.counter_families
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(name)
                .or_insert_with(|| Arc::new(Family::new(name))),
        )
    }

    /// The labeled quantile-sketch family under `name`.
    #[must_use]
    pub fn sketch_family(&self, name: &'static str) -> Arc<Family<Sketch>> {
        Arc::clone(
            self.sketch_families
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(name)
                .or_insert_with(|| Arc::new(Family::new(name))),
        )
    }

    /// Point-in-time copy of every registered instrument. Labeled
    /// family members are flattened in under `name{label}` keys, so
    /// snapshot deltas and text exposition treat them like any other
    /// instrument.
    ///
    /// # Panics
    /// Panics if a registry mutex was poisoned.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: BTreeMap<String, u64> = self
            .counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(&k, v)| (k.to_owned(), v.get()))
            .collect();
        for family in self.counter_families.lock().unwrap_or_else(PoisonError::into_inner).values()
        {
            for (label, counter) in family.entries() {
                counters.insert(labeled_key(family.name(), &label), counter.get());
            }
        }
        let histograms: BTreeMap<String, HistogramSnapshot> = self
            .histograms
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(&k, v)| (k.to_owned(), v.snapshot()))
            .collect();
        let mut sketches: BTreeMap<String, QuantileSketch> = self
            .sketches
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(&k, v)| (k.to_owned(), v.snapshot()))
            .collect();
        for family in self.sketch_families.lock().unwrap_or_else(PoisonError::into_inner).values()
        {
            for (label, sketch) in family.entries() {
                sketches.insert(labeled_key(family.name(), &label), sketch.snapshot());
            }
        }
        MetricsSnapshot {
            counters,
            gauges: self
                .gauges
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(&k, v)| (k.to_owned(), v.get()))
                .collect(),
            histograms,
            sketches,
        }
    }
}

/// The process-wide registry.
#[must_use]
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Point-in-time copy of the registry contents. Labeled family members
/// appear under flattened `name{label}` keys.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Quantile-sketch states by name. Like gauges, sketches are not
    /// subtracted by [`MetricsSnapshot::delta`] (they merge, they do
    /// not subtract) — a delta carries the latest state.
    pub sketches: BTreeMap<String, QuantileSketch>,
}

impl MetricsSnapshot {
    /// This snapshot minus an earlier one: counters and histograms are
    /// subtracted (saturating), gauges keep their latest value. Used to
    /// attribute global metrics to one compile run.
    #[must_use]
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| {
                    (k.clone(), v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)))
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| {
                    let base = earlier.histograms.get(k).cloned().unwrap_or_default();
                    (k.clone(), v.delta(&base))
                })
                .collect(),
            sketches: self.sketches.clone(),
        }
    }

    /// Render as a JSON object `{counters: {...}, gauges: {...},
    /// histograms: {name: {count, sum, mean}}}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let counters =
            self.counters.iter().map(|(k, &v)| (k.clone(), Json::from(v))).collect::<Vec<_>>();
        let gauges =
            self.gauges.iter().map(|(k, &v)| (k.clone(), Json::from(v))).collect::<Vec<_>>();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    Json::obj(vec![
                        ("count", Json::from(v.count)),
                        ("sum", Json::from(v.sum)),
                        ("mean", Json::from(v.mean())),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        let sketches = self
            .sketches
            .iter()
            .map(|(k, s)| {
                (
                    k.clone(),
                    Json::obj(vec![
                        ("count", Json::from(s.count())),
                        ("mean", Json::from(s.mean())),
                        ("p50", Json::from(s.p50())),
                        ("p99", Json::from(s.p99())),
                        ("max", Json::from(s.max())),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        Json::Obj(vec![
            ("counters".to_owned(), Json::Obj(counters)),
            ("gauges".to_owned(), Json::Obj(gauges)),
            ("histograms".to_owned(), Json::Obj(histograms)),
            ("sketches".to_owned(), Json::Obj(sketches)),
        ])
    }
}

/// Bump a named counter through a call-site-cached handle: the registry
/// lock is taken once per call site, after which each hit is a single
/// relaxed `fetch_add`.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {
        $crate::counter!($name, 1)
    };
    ($name:literal, $n:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Counter>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics::registry().counter($name)).add($n);
    }};
}

/// Set a named gauge through a call-site-cached handle.
#[macro_export]
macro_rules! gauge {
    ($name:literal, $value:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Gauge>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics::registry().gauge($name)).set($value);
    }};
}

/// Record an observation into a named histogram through a
/// call-site-cached handle.
#[macro_export]
macro_rules! observe {
    ($name:literal, $value:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics::registry().histogram($name)).record($value);
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let r = Registry::default();
        let c = r.counter("t.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.snapshot().counters["t.count"], 5);
        // Same name → same instrument.
        r.counter("t.count").inc();
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn histogram_buckets_cover_the_range() {
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(3);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.buckets[0], 1); // value 0
        assert_eq!(s.buckets[1], 1); // value 1
        assert_eq!(s.buckets[2], 1); // values 2..=3
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1); // clamp
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
    }

    #[test]
    fn snapshot_delta_subtracts() {
        let r = Registry::default();
        let c = r.counter("d.count");
        let h = r.histogram("d.hist");
        c.add(3);
        h.record(10);
        let before = r.snapshot();
        c.add(2);
        h.record(20);
        let after = r.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.counters["d.count"], 2);
        assert_eq!(d.histograms["d.hist"].count, 1);
        assert_eq!(d.histograms["d.hist"].sum, 20);
    }

    #[test]
    fn labeled_families_flatten_into_snapshots() {
        let r = Registry::default();
        let family = r.counter_family("f.outcome");
        family.with("acme").add(2);
        family.with("beta").inc();
        family.with("acme").inc();
        r.sketch_family("f.lat").with("acme").record(150);
        let snap = r.snapshot();
        assert_eq!(snap.counters["f.outcome{acme}"], 3);
        assert_eq!(snap.counters["f.outcome{beta}"], 1);
        assert_eq!(snap.sketches["f.lat{acme}"].count(), 1);
    }

    #[test]
    fn label_cardinality_is_bounded() {
        let r = Registry::default();
        let family = r.counter_family("b.outcome");
        for i in 0..(MAX_LABEL_CARDINALITY + 40) {
            family.with(&format!("tenant-{i}")).inc();
        }
        let labels = family.labels();
        assert!(labels.len() <= MAX_LABEL_CARDINALITY + 1, "{}", labels.len());
        assert!(labels.iter().any(|l| l == OVERFLOW_LABEL));
        // Nothing lost: overflow absorbed the excess increments.
        let total: u64 = family.labels().iter().map(|l| family.with(l).get()).sum();
        assert_eq!(total, (MAX_LABEL_CARDINALITY + 40) as u64);
    }

    #[test]
    fn labels_are_sanitized() {
        assert_eq!(sanitize_label("acme"), "acme");
        assert_eq!(sanitize_label("a b\"c{d}e\n"), "a_b_c_d_e_");
        assert_eq!(sanitize_label(""), "unknown");
        let long = "x".repeat(300);
        assert_eq!(sanitize_label(&long).len(), MAX_LABEL_LEN);
        let family = Registry::default().counter_family("s.c");
        family.with("we\"ird{}").inc();
        assert_eq!(family.labels(), vec!["we_ird__".to_owned()]);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let r = Registry::default();
        r.counter("j.count").add(7);
        r.histogram("j.hist").record(4);
        let json = r.snapshot().to_json();
        let text = json.to_string_compact();
        let back = crate::json::parse(&text).unwrap();
        assert_eq!(back.get("counters").and_then(|c| c.get("j.count")).and_then(Json::as_u64), Some(7));
        assert_eq!(
            back.get("histograms")
                .and_then(|h| h.get("j.hist"))
                .and_then(|h| h.get("sum"))
                .and_then(Json::as_u64),
            Some(4)
        );
    }
}
