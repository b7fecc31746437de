//! Binary serialization of resumable training state.
//!
//! The weight file (`net_<pe>.mzw`, [`mapzero_nn::encode_params`]) only
//! captures the parameters; continuing a killed run *bit-for-bit* also
//! needs everything else the epoch loop consumes: the replay buffer
//! (samples + priorities + eviction cursor), the RNG stream position,
//! the curriculum position (next epoch), the optimizer moments, the LR
//! divergence penalty and retry allowance, and the metrics recorded so
//! far. [`TrainState`] bundles those; `trainer.mzt` is its on-disk
//! form, stored alongside the weights inside one checkpoint generation.
//!
//! Layout (little-endian): magic `MZT1`, u32 version, then the fields
//! in declaration order. Decoding is defensive: every read is
//! length-checked first, so a torn or hostile payload yields
//! [`CheckpointError::Corrupt`], never a panic — the generation
//! manifest's checksum normally catches corruption first, but the
//! decoder must not rely on it.

use crate::checkpoint::CheckpointError;
use crate::embed::Observation;
use crate::network::TrainSample;
use crate::train::{EpochMetrics, TrainConfig};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use mapzero_nn::{AdamState, Matrix, RngState};

/// Canonical payload name of the trainer state inside a generation.
pub const TRAINER_STATE_FILE: &str = "trainer.mzt";

const MAGIC: &[u8; 4] = b"MZT1";
const VERSION: u32 = 1;

/// Everything (beyond the network weights) needed to continue a
/// training run exactly where it stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainState {
    /// Fingerprint of the [`TrainConfig`] that produced this state;
    /// resuming under a different configuration is refused.
    pub fingerprint: u64,
    /// RNG stream position.
    pub rng: RngState,
    /// Curriculum position: the next epoch to run.
    pub next_epoch: u32,
    /// Rollback retries already consumed.
    pub retries: u32,
    /// Divergence-rollback LR multiplier in effect.
    pub lr_penalty: f32,
    /// Rollbacks performed so far (for the resumed metrics).
    pub rollbacks: u32,
    /// Per-epoch metrics recorded so far.
    pub epochs: Vec<EpochMetrics>,
    /// Optimizer moments + step count.
    pub adam: AdamState,
    /// Replay-buffer samples.
    pub samples: Vec<TrainSample>,
    /// Replay-buffer priorities (pairs with `samples`).
    pub priorities: Vec<f64>,
    /// Replay-buffer round-robin eviction cursor.
    pub next_slot: u64,
}

/// A stable fingerprint of the configuration fields that shape the
/// training stream. Two configs with equal fingerprints generate the
/// same curriculum, batch schedule and RNG demand, so a checkpoint from
/// one resumes correctly under the other.
#[must_use]
pub fn config_fingerprint(config: &TrainConfig) -> u64 {
    let rendered = format!(
        "seed={};epochs={};eppe={};batch={};updates={};cap={};aug={};curr={:?};cps={};lr={:08x}/{:08x}/{}/{:08x}",
        config.seed,
        config.epochs,
        config.episodes_per_epoch,
        config.batch_size,
        config.updates_per_epoch,
        config.replay_capacity,
        config.augment_copies,
        config.curriculum_nodes,
        config.curriculum_per_size,
        config.lr.initial.to_bits(),
        config.lr.decay.to_bits(),
        config.lr.step_every,
        config.lr.floor.to_bits(),
    );
    crate::checkpoint::fnv1a64(rendered.as_bytes())
}

fn corrupt(what: &str) -> CheckpointError {
    CheckpointError::Corrupt(format!("trainer state: {what}"))
}

fn need(buf: &Bytes, n: usize, what: &str) -> Result<(), CheckpointError> {
    if buf.remaining() < n {
        return Err(corrupt(&format!("truncated reading {what}")));
    }
    Ok(())
}

fn put_matrix(out: &mut BytesMut, m: &Matrix) {
    out.put_u32_le(m.rows() as u32);
    out.put_u32_le(m.cols() as u32);
    for &v in m.data() {
        out.put_f32_le(v);
    }
}

fn get_matrix(buf: &mut Bytes) -> Result<Matrix, CheckpointError> {
    need(buf, 8, "matrix header")?;
    let rows = buf.get_u32_le() as usize;
    let cols = buf.get_u32_le() as usize;
    let count = rows
        .checked_mul(cols)
        .filter(|&c| c <= buf.remaining() / 4)
        .ok_or_else(|| corrupt("matrix payload overruns buffer"))?;
    let data: Vec<f32> = (0..count).map(|_| buf.get_f32_le()).collect();
    Ok(Matrix::from_vec(rows, cols, data))
}

fn put_edges(out: &mut BytesMut, edges: &[(usize, usize)]) {
    out.put_u32_le(edges.len() as u32);
    for &(a, b) in edges {
        out.put_u32_le(a as u32);
        out.put_u32_le(b as u32);
    }
}

fn get_edges(buf: &mut Bytes) -> Result<Vec<(usize, usize)>, CheckpointError> {
    need(buf, 4, "edge count")?;
    let count = buf.get_u32_le() as usize;
    need(buf, count.saturating_mul(8), "edge list")?;
    Ok((0..count)
        .map(|_| (buf.get_u32_le() as usize, buf.get_u32_le() as usize))
        .collect())
}

fn put_observation(out: &mut BytesMut, obs: &Observation) {
    put_matrix(out, &obs.dfg_nodes);
    put_edges(out, &obs.dfg_edges);
    put_matrix(out, &obs.cgra_nodes);
    put_edges(out, &obs.cgra_edges);
    put_matrix(out, &obs.metadata);
    out.put_u32_le(obs.mask.len() as u32);
    for &bit in &obs.mask {
        out.put_u8(u8::from(bit));
    }
}

fn get_observation(buf: &mut Bytes) -> Result<Observation, CheckpointError> {
    let dfg_nodes = get_matrix(buf)?;
    let dfg_edges = get_edges(buf)?;
    let cgra_nodes = get_matrix(buf)?;
    let cgra_edges = get_edges(buf)?;
    let metadata = get_matrix(buf)?;
    need(buf, 4, "mask length")?;
    let mask_len = buf.get_u32_le() as usize;
    need(buf, mask_len, "mask bits")?;
    let mask = (0..mask_len).map(|_| buf.get_u8() != 0).collect();
    Ok(Observation { dfg_nodes, dfg_edges, cgra_nodes, cgra_edges, metadata, mask })
}

fn put_sample(out: &mut BytesMut, sample: &TrainSample) {
    put_observation(out, &sample.observation);
    out.put_u32_le(sample.policy.len() as u32);
    for &p in &sample.policy {
        out.put_f32_le(p);
    }
    out.put_f32_le(sample.value);
}

fn get_sample(buf: &mut Bytes) -> Result<TrainSample, CheckpointError> {
    let observation = get_observation(buf)?;
    need(buf, 4, "policy length")?;
    let len = buf.get_u32_le() as usize;
    need(buf, len.saturating_mul(4) + 4, "policy + value")?;
    let policy = (0..len).map(|_| buf.get_f32_le()).collect();
    let value = buf.get_f32_le();
    Ok(TrainSample { observation, policy, value })
}

fn put_epoch(out: &mut BytesMut, e: &EpochMetrics) {
    out.put_u32_le(e.epoch);
    out.put_f32_le(e.total_loss);
    out.put_f32_le(e.value_loss);
    out.put_f32_le(e.policy_loss);
    out.put_f64_le(e.avg_reward);
    out.put_f64_le(e.eval_penalty);
    out.put_f32_le(e.lr);
    out.put_f64_le(e.success_rate);
}

fn get_epoch(buf: &mut Bytes) -> Result<EpochMetrics, CheckpointError> {
    need(buf, 5 * 4 + 3 * 8, "epoch metrics")?;
    Ok(EpochMetrics {
        epoch: buf.get_u32_le(),
        total_loss: buf.get_f32_le(),
        value_loss: buf.get_f32_le(),
        policy_loss: buf.get_f32_le(),
        avg_reward: buf.get_f64_le(),
        eval_penalty: buf.get_f64_le(),
        lr: buf.get_f32_le(),
        success_rate: buf.get_f64_le(),
    })
}

/// Serialize a [`TrainState`] into its on-disk form.
#[must_use]
pub fn encode_train_state(state: &TrainState) -> Vec<u8> {
    let mut out = BytesMut::new();
    out.put_slice(MAGIC);
    out.put_u32_le(VERSION);
    out.put_u64_le(state.fingerprint);
    out.put_u64_le(state.rng.seed);
    out.put_u64_le(state.rng.draws);
    out.put_u32_le(state.next_epoch);
    out.put_u32_le(state.retries);
    out.put_f32_le(state.lr_penalty);
    out.put_u32_le(state.rollbacks);
    out.put_u32_le(state.epochs.len() as u32);
    for e in &state.epochs {
        put_epoch(&mut out, e);
    }
    out.put_u64_le(state.adam.t);
    out.put_u32_le(state.adam.m.len() as u32);
    for m in &state.adam.m {
        put_matrix(&mut out, m);
    }
    for v in &state.adam.v {
        put_matrix(&mut out, v);
    }
    out.put_u32_le(state.samples.len() as u32);
    for s in &state.samples {
        put_sample(&mut out, s);
    }
    for &p in &state.priorities {
        out.put_f64_le(p);
    }
    out.put_u64_le(state.next_slot);
    out.freeze().as_ref().to_vec()
}

/// Decode a [`TrainState`] from bytes.
///
/// # Errors
/// Returns [`CheckpointError::Corrupt`] on any malformed, truncated or
/// oversized payload — never panics.
pub fn decode_train_state(bytes: &[u8]) -> Result<TrainState, CheckpointError> {
    let mut buf = Bytes::from(bytes.to_vec());
    need(&buf, 8, "header")?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(corrupt(&format!("unsupported version {version}")));
    }
    need(&buf, 8 * 3 + 4 * 4, "fixed fields")?;
    let fingerprint = buf.get_u64_le();
    let rng = RngState { seed: buf.get_u64_le(), draws: buf.get_u64_le() };
    let next_epoch = buf.get_u32_le();
    let retries = buf.get_u32_le();
    let lr_penalty = buf.get_f32_le();
    let rollbacks = buf.get_u32_le();
    need(&buf, 4, "epoch count")?;
    let epoch_count = buf.get_u32_le() as usize;
    let epochs = (0..epoch_count).map(|_| get_epoch(&mut buf)).collect::<Result<_, _>>()?;
    need(&buf, 12, "adam header")?;
    let adam_t = buf.get_u64_le();
    let moment_count = buf.get_u32_le() as usize;
    let m: Vec<Matrix> =
        (0..moment_count).map(|_| get_matrix(&mut buf)).collect::<Result<_, _>>()?;
    let v: Vec<Matrix> =
        (0..moment_count).map(|_| get_matrix(&mut buf)).collect::<Result<_, _>>()?;
    need(&buf, 4, "sample count")?;
    let sample_count = buf.get_u32_le() as usize;
    let samples: Vec<TrainSample> =
        (0..sample_count).map(|_| get_sample(&mut buf)).collect::<Result<_, _>>()?;
    need(&buf, sample_count.saturating_mul(8) + 8, "priorities + next_slot")?;
    let priorities = (0..sample_count).map(|_| buf.get_f64_le()).collect();
    let next_slot = buf.get_u64_le();
    if buf.remaining() != 0 {
        return Err(corrupt("trailing bytes"));
    }
    Ok(TrainState {
        fingerprint,
        rng,
        next_epoch,
        retries,
        lr_penalty,
        rollbacks,
        epochs,
        adam: AdamState { t: adam_t, m, v },
        samples,
        priorities,
        next_slot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> TrainState {
        let obs = Observation {
            dfg_nodes: Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            dfg_edges: vec![(0, 1), (1, 0)],
            cgra_nodes: Matrix::from_vec(1, 2, vec![0.5, -0.5]),
            cgra_edges: vec![(0, 0)],
            metadata: Matrix::from_vec(1, 1, vec![9.0]),
            mask: vec![true, false, true],
        };
        TrainState {
            fingerprint: 0xfeed,
            rng: RngState { seed: 7, draws: 123 },
            next_epoch: 4,
            retries: 1,
            lr_penalty: 0.5,
            rollbacks: 2,
            epochs: vec![EpochMetrics {
                epoch: 3,
                total_loss: 0.25,
                value_loss: 0.1,
                policy_loss: 0.15,
                avg_reward: -12.5,
                eval_penalty: -100.0,
                lr: 3e-3,
                success_rate: 0.75,
            }],
            adam: AdamState {
                t: 9,
                m: vec![Matrix::from_vec(1, 2, vec![0.1, 0.2])],
                v: vec![Matrix::from_vec(1, 2, vec![0.3, 0.4])],
            },
            samples: vec![TrainSample {
                observation: obs,
                policy: vec![0.2, 0.8],
                value: -0.5,
            }],
            priorities: vec![0.75],
            next_slot: 0,
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let state = sample_state();
        let bytes = encode_train_state(&state);
        let back = decode_train_state(&bytes).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn truncation_at_every_offset_is_a_clean_error() {
        let bytes = encode_train_state(&sample_state());
        for cut in 0..bytes.len() {
            let err = decode_train_state(&bytes[..cut])
                .expect_err("every truncation must be rejected");
            assert!(matches!(err, CheckpointError::Corrupt(_)), "cut at {cut}: {err:?}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode_train_state(&sample_state());
        bytes.push(0);
        assert!(decode_train_state(&bytes).is_err());
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = encode_train_state(&sample_state());
        bytes[0] = b'X';
        assert!(decode_train_state(&bytes).is_err());
        let mut bytes = encode_train_state(&sample_state());
        bytes[4] = 99;
        assert!(decode_train_state(&bytes).is_err());
    }

    #[test]
    fn oversized_counts_rejected_without_allocation_blowup() {
        // Patch the epoch count (fixed offset 48) to u32::MAX: the
        // decoder must reject it on the length check, not allocate.
        let mut bytes = encode_train_state(&sample_state());
        bytes[48..52].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_train_state(&bytes).expect_err("oversized count");
        assert!(matches!(err, CheckpointError::Corrupt(_)));
    }

    #[test]
    fn fingerprint_tracks_stream_shaping_fields() {
        let base = TrainConfig::fast_test();
        let same = base;
        assert_eq!(config_fingerprint(&base), config_fingerprint(&same));
        let other_seed = TrainConfig { seed: base.seed + 1, ..base };
        assert_ne!(config_fingerprint(&base), config_fingerprint(&other_seed));
        let other_epochs = TrainConfig { epochs: base.epochs + 1, ..base };
        assert_ne!(config_fingerprint(&base), config_fingerprint(&other_epochs));
        // Non-shaping fields (wall-clock deadline) don't change it.
        let other_deadline = TrainConfig {
            episode_deadline: std::time::Duration::from_secs(999),
            ..base
        };
        assert_eq!(config_fingerprint(&base), config_fingerprint(&other_deadline));
    }
}
