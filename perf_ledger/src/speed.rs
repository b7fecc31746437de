//! Machine-speed reference.
//!
//! On a shared VM the CPU's speed drifts: the same compile takes
//! 0.66 s for minutes, then 1.1 s, then 0.66 s again, with on-CPU time
//! equal to wall time (the drift is a slower core, not preemption).
//! No statistic within one run removes that from a wall time. So the
//! thread that runs an operation also times a fixed calibration round
//! just before it — vector `f32` arithmetic plus ordered-map work, the
//! two kinds of work a compile mixes, and no code of the measured
//! crates — and the operation is reported at the reference speed:
//! `wall × REFERENCE_S / round`, with `round` taken around it (see
//! [`Timeline`]). On a machine in the reference state the numbers are
//! wall times. The raw times are kept in the ledger record.

use crate::stats::median;
use mapzero_obs::json::Json;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one calibration round takes at the reference speed (its
/// median on a 2-vCPU x86-64 VM in the machine's fast state).
pub const REFERENCE_S: f64 = 2.45e-3;

const N: usize = 64;
const MATMUL_REPS: usize = 24;
const MAP_OPS: usize = 10_000;

/// One calibration round; returns its wall seconds.
#[must_use]
pub fn round() -> f64 {
    let t = Instant::now();
    arithmetic();
    ordered_map();
    t.elapsed().as_secs_f64()
}

/// Vector `f32` arithmetic: repeated 64×64 matrix products.
#[inline(never)]
fn arithmetic() {
    let scale = black_box(0.1f32);
    let a: Vec<f32> = (0..N * N).map(|i| (i % 17) as f32 * scale).collect();
    let b = a.clone();
    let mut c = vec![0f32; N * N];
    for _ in 0..MATMUL_REPS {
        for i in 0..N {
            for k in 0..N {
                let x = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += x * b[k * N + j];
                }
            }
        }
    }
    black_box(&c);
}

/// Pointer-heavy work: inserts and lookups in an ordered map.
#[inline(never)]
fn ordered_map() {
    let mut map = BTreeMap::new();
    let mut x = black_box(1u64);
    let mut hits = 0u64;
    for _ in 0..MAP_OPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key = x >> 52;
        *map.entry(key).or_insert(0u64) += 1;
        hits += map.get(&(key ^ 5)).copied().unwrap_or(0);
    }
    black_box((hits, map.len()));
}

/// Calibration rounds sampled through one run.
#[derive(Debug, Default)]
pub struct Speed {
    samples: Vec<f64>,
}

impl Speed {
    /// Time `rounds` calibration rounds; returns their median.
    pub fn sample(&mut self, rounds: usize) -> f64 {
        let start = self.samples.len();
        self.samples.extend((0..rounds).map(|_| round()));
        median(&self.samples[start..])
    }

    /// Reference seconds per second over the whole run: above 1 on a
    /// machine faster than the reference, below 1 on a slower one. NaN
    /// before the first sample.
    #[must_use]
    pub fn factor(&self) -> f64 {
        REFERENCE_S / median(&self.samples)
    }

    /// Time `build` at the reference speed: [`MAX_ROUNDS`] rounds just
    /// before and just after it (outside the timed interval) give the
    /// speed. Returns the result and its reference seconds.
    pub fn timed<T>(&mut self, build: impl FnOnce() -> T) -> (T, f64) {
        let before = self.sample(MAX_ROUNDS);
        let t = Instant::now();
        let out = build();
        let secs = t.elapsed().as_secs_f64();
        let after = self.sample(MAX_ROUNDS);
        (out, secs * 2.0 * REFERENCE_S / (before + after))
    }

    /// The samples' summary for the ledger record.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("round_ms", Json::Num(median(&self.samples) * 1e3)),
            ("rounds", Json::from(self.samples.len() as u64)),
            ("factor", Json::Num(self.factor())),
        ])
    }
}

/// Fewest calibration rounds at one calibration point.
pub const MIN_ROUNDS: usize = 2;
/// Most calibration rounds at one calibration point.
pub const MAX_ROUNDS: usize = 8;

/// Operations in the order they ran, each with the calibration taken
/// just before it. An operation's reference time uses the calibration
/// before it and the one before the next operation (or the closing
/// one), so each is judged by the speed around it. A calibration point
/// spends about 1% of the previous operation's time, within
/// [`MIN_ROUNDS`]..=[`MAX_ROUNDS`] rounds.
#[derive(Debug, Default)]
pub struct Timeline {
    ops: Vec<(usize, f64, f64)>,
    closing: Option<f64>,
}

impl Timeline {
    fn calibrate(&self, speed: &mut Speed) -> f64 {
        let last = self.ops.last().map_or(0.0, |op| op.1);
        let rounds = ((0.01 * last / REFERENCE_S).ceil() as usize).clamp(MIN_ROUNDS, MAX_ROUNDS);
        speed.sample(rounds)
    }

    /// Calibrate, then run `op`; records its wall seconds for
    /// `instance` when it returns some.
    pub fn run(&mut self, speed: &mut Speed, instance: usize, op: impl FnOnce() -> Option<f64>) {
        let round = self.calibrate(speed);
        if let Some(secs) = op() {
            self.ops.push((instance, secs, round));
        }
    }

    /// Take the closing calibration after the last operation.
    pub fn close(&mut self, speed: &mut Speed) {
        self.closing = Some(self.calibrate(speed));
    }

    /// Per instance (`0..instances`), the raw seconds and the reference
    /// seconds of its operations.
    #[must_use]
    pub fn by_instance(&self, instances: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
        let mut out = vec![(Vec::new(), Vec::new()); instances];
        for (k, &(instance, secs, before)) in self.ops.iter().enumerate() {
            let after = self
                .ops
                .get(k + 1)
                .map(|op| op.2)
                .or(self.closing)
                .unwrap_or(before);
            out[instance].0.push(secs);
            out[instance]
                .1
                .push(secs * 2.0 * REFERENCE_S / (before + after));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_reference_over_median_round() {
        let mut s = Speed::default();
        assert!(s.factor().is_nan());
        s.samples = vec![REFERENCE_S * 2.0, REFERENCE_S * 2.0, REFERENCE_S * 10.0];
        assert!((s.factor() - 0.5).abs() < 1e-12);
        assert!(s.sample(1) > 0.0);
        assert_eq!(s.samples.len(), 4);
    }

    #[test]
    fn timeline_scales_each_op_by_the_rounds_around_it() {
        let t = Timeline {
            ops: vec![
                (0, 1.0, REFERENCE_S),
                (1, 1.0, 3.0 * REFERENCE_S),
                (0, 2.0, REFERENCE_S),
            ],
            closing: Some(REFERENCE_S),
        };
        let by = t.by_instance(2);
        assert_eq!(by[0].0, [1.0, 2.0]);
        // Op 0 ran between rounds at 1× and 3× the reference time.
        assert!((by[0].1[0] - 0.5).abs() < 1e-12);
        assert!((by[1].1[0] - 0.5).abs() < 1e-12);
        assert!((by[0].1[1] - 2.0).abs() < 1e-12);
    }
}
