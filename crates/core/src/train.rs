//! Self-play training (§3.6, Algorithm 1) with the metrics of Fig. 12.
//!
//! Episodes are generated with MCTS self-play on a curriculum of random
//! DFGs (easy → hard, §3.6.2), converted to `(s, π, r)` samples,
//! symmetry-augmented (§3.6.1) and stored in the prioritized replay
//! buffer; batches are drawn to update the network by minimizing
//! `(r − v)² − π·log p` with gradient clipping.

use crate::agent::{AgentConfig, MapZeroAgent, TrajectoryStep};
use crate::checkpoint::{CheckpointError, CheckpointStore};
use crate::env::CONFLICT_PENALTY;
use crate::mcts::MctsConfig;
use crate::network::{MapZeroNet, NetConfig, TrainSample};
use crate::persist::{self, TrainState, TRAINER_STATE_FILE};
use crate::problem::Problem;
use crate::replay::ReplayBuffer;
use crate::supervise::isolated;
use crate::{augment, mapping::MapError};
use bytes::Bytes;
use mapzero_arch::Cgra;
use mapzero_dfg::{random::curriculum, Dfg};
use mapzero_nn::{decode_params, encode_params, LrSchedule, SeedRng};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Duration;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of training epochs.
    pub epochs: u32,
    /// Self-play episodes per epoch.
    pub episodes_per_epoch: usize,
    /// Optimization batch size (paper: 32).
    pub batch_size: usize,
    /// Gradient updates per epoch.
    pub updates_per_epoch: usize,
    /// Replay-buffer capacity (paper: 10 000).
    pub replay_capacity: usize,
    /// Learning-rate schedule.
    pub lr: LrSchedule,
    /// Global gradient-norm clip.
    pub clip: f32,
    /// Maximum symmetry copies per sample.
    pub augment_copies: usize,
    /// Curriculum node-count range (paper: 3–30).
    pub curriculum_nodes: (usize, usize),
    /// Random DFGs per curriculum size.
    pub curriculum_per_size: usize,
    /// MCTS parameters used during self-play.
    pub mcts: MctsConfig,
    /// Per-episode wall-clock budget.
    pub episode_deadline: Duration,
    /// Self-play worker threads per epoch (§3.6.2: "we use
    /// multi-threading during execution"). 1 = sequential.
    pub workers: usize,
    /// RNG seed.
    pub seed: u64,
    /// Divergence threshold on the pre-clip gradient norm: an update
    /// whose raw gradients exceed this (or whose loss is non-finite)
    /// marks the epoch unhealthy and triggers a rollback.
    pub max_grad_norm: f32,
    /// Total rollback retries allowed per run before training reports
    /// [`TrainError::Diverged`].
    pub max_retries: u32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            episodes_per_epoch: 8,
            batch_size: 32,
            updates_per_epoch: 8,
            replay_capacity: 10_000,
            lr: LrSchedule { initial: 3e-3, decay: 0.7, step_every: 5, floor: 3e-4 },
            clip: 5.0,
            augment_copies: 4,
            curriculum_nodes: (3, 30),
            curriculum_per_size: 2,
            mcts: MctsConfig { simulations: 24, ..MctsConfig::default() },
            episode_deadline: Duration::from_secs(20),
            workers: 4,
            seed: 0,
            max_grad_norm: 1e3,
            max_retries: 3,
        }
    }
}

impl TrainConfig {
    /// A minutes-scale configuration for tests and examples.
    #[must_use]
    pub fn fast_test() -> Self {
        TrainConfig {
            epochs: 3,
            episodes_per_epoch: 2,
            batch_size: 8,
            updates_per_epoch: 2,
            replay_capacity: 512,
            curriculum_nodes: (3, 8),
            curriculum_per_size: 1,
            mcts: MctsConfig::fast_test(),
            episode_deadline: Duration::from_secs(5),
            ..TrainConfig::default()
        }
    }
}

/// Metrics recorded for one epoch (the series plotted in Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochMetrics {
    /// Epoch index.
    pub epoch: u32,
    /// Average total loss per update.
    pub total_loss: f32,
    /// Average value loss per update (Fig. 12(b)).
    pub value_loss: f32,
    /// Average policy loss per update (Fig. 12(c)).
    pub policy_loss: f32,
    /// Average self-play episode reward (Fig. 12(d)).
    pub avg_reward: f64,
    /// Routing penalty of the held-out evaluation episode
    /// (Fig. 12(e); > −100 means a successful mapping).
    pub eval_penalty: f64,
    /// Learning rate (Fig. 12(f)).
    pub lr: f32,
    /// Fraction of self-play episodes that mapped successfully.
    pub success_rate: f64,
}

/// The full learning curves of one training run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainingMetrics {
    /// One entry per epoch.
    pub epochs: Vec<EpochMetrics>,
    /// Divergence rollbacks performed during the run (0 for a healthy
    /// run; each rollback restored the last-good parameters and halved
    /// the learning rate).
    pub rollbacks: u32,
}

impl TrainingMetrics {
    /// Final epoch metrics, if any epoch ran.
    #[must_use]
    pub fn last(&self) -> Option<&EpochMetrics> {
        self.epochs.last()
    }
}

/// Self-play trainer bound to one fabric.
pub struct Trainer {
    cgra: Cgra,
    net: MapZeroNet,
    config: TrainConfig,
    buffer: ReplayBuffer,
    rng: SeedRng,
    curriculum: Vec<Dfg>,
    eval_dfg: Dfg,
    start: ResumeState,
}

/// Where a (possibly resumed) run starts: the supervision state a
/// checkpoint restored, or the fresh-run defaults.
#[derive(Debug, Clone)]
struct ResumeState {
    next_epoch: u32,
    retries: u32,
    lr_penalty: f32,
    rollbacks: u32,
    epochs: Vec<EpochMetrics>,
}

impl Default for ResumeState {
    fn default() -> Self {
        ResumeState {
            next_epoch: 0,
            retries: 0,
            lr_penalty: 1.0,
            rollbacks: 0,
            epochs: Vec::new(),
        }
    }
}

impl Trainer {
    /// Create a trainer with a freshly-initialized network.
    #[must_use]
    pub fn new(cgra: Cgra, net_config: NetConfig, config: TrainConfig) -> Self {
        let net = MapZeroNet::new(cgra.pe_count(), net_config);
        Trainer::with_net(cgra, net, config)
    }

    /// Create a trainer around an existing network (fine-tuning).
    ///
    /// # Panics
    /// Panics if the network's action count differs from the fabric.
    #[must_use]
    pub fn with_net(cgra: Cgra, net: MapZeroNet, config: TrainConfig) -> Self {
        assert_eq!(net.action_count(), cgra.pe_count(), "network/fabric mismatch");
        let (lo, hi) = config.curriculum_nodes;
        let curriculum = curriculum(lo, hi, config.curriculum_per_size, config.seed);
        let eval_dfg = mapzero_dfg::random::random_dfg(
            "eval",
            &mapzero_dfg::random::RandomDfgConfig {
                nodes: hi.min(cgra.pe_count()),
                edges: hi.min(cgra.pe_count()) + 2,
                self_cycles: 0,
                max_fanin: 3,
                seed: config.seed ^ 0xdead_beef,
            },
        );
        Trainer {
            buffer: ReplayBuffer::new(config.replay_capacity),
            rng: SeedRng::new(config.seed),
            cgra,
            net,
            config,
            curriculum,
            eval_dfg,
            start: ResumeState::default(),
        }
    }

    /// Rebuild a trainer from the newest valid checkpoint generation in
    /// `dir`, restoring the network weights, optimizer moments, replay
    /// buffer, RNG stream position and curriculum position. A
    /// subsequent [`Trainer::run_checkpointed`] continues the killed
    /// run *bit-for-bit*: under the same seed it produces the same
    /// per-epoch losses the uninterrupted run would have.
    ///
    /// When `dir` holds no valid generation (fresh directory, or every
    /// generation torn) a fresh trainer is returned, so callers can use
    /// one code path for cold starts and restarts.
    ///
    /// # Errors
    /// Returns [`TrainError::Checkpoint`] when the checkpoint exists
    /// but cannot be applied: trainer state missing or corrupt, weight
    /// decode failure, or a [`TrainConfig`] whose fingerprint differs
    /// from the one that wrote the checkpoint.
    pub fn resume(
        cgra: Cgra,
        net_config: NetConfig,
        config: TrainConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Self, TrainError> {
        let store = CheckpointStore::open(dir).map_err(checkpoint_err)?;
        let Some(generation) = store.load_latest_valid().map_err(checkpoint_err)? else {
            return Ok(Trainer::new(cgra, net_config, config));
        };
        let raw = generation.file(TRAINER_STATE_FILE).ok_or_else(|| {
            TrainError::Checkpoint(format!(
                "generation {} lacks {TRAINER_STATE_FILE}",
                generation.generation
            ))
        })?;
        let state = persist::decode_train_state(raw).map_err(checkpoint_err)?;
        if state.fingerprint != persist::config_fingerprint(&config) {
            return Err(TrainError::Checkpoint(
                "config fingerprint mismatch: checkpoint was written under a different \
                 training configuration"
                    .to_owned(),
            ));
        }
        let mut trainer = Trainer::new(cgra, net_config, config);
        let weight_name = format!("net_{}.mzw", trainer.cgra.pe_count());
        let weights = generation.file(&weight_name).ok_or_else(|| {
            TrainError::Checkpoint(format!(
                "generation {} lacks {weight_name}",
                generation.generation
            ))
        })?;
        decode_params(&mut trainer.net.params, Bytes::from(weights.to_vec()))
            .map_err(|e| TrainError::Checkpoint(format!("weight decode: {e}")))?;
        trainer.net.restore_optimizer(state.adam);
        trainer.buffer = ReplayBuffer::from_parts(
            trainer.config.replay_capacity,
            state.samples,
            state.priorities,
            usize::try_from(state.next_slot)
                .map_err(|_| TrainError::Checkpoint("next_slot overflows usize".to_owned()))?,
        )
        .map_err(TrainError::Checkpoint)?;
        trainer.rng = SeedRng::from_state(state.rng);
        trainer.start = ResumeState {
            next_epoch: state.next_epoch,
            retries: state.retries,
            lr_penalty: state.lr_penalty,
            rollbacks: state.rollbacks,
            epochs: state.epochs,
        };
        Ok(trainer)
    }

    /// The epoch the next [`Trainer::run`] / [`Trainer::run_checkpointed`]
    /// call starts from (0 for a fresh trainer, the first unfinished
    /// epoch after [`Trainer::resume`]).
    #[must_use]
    pub fn start_epoch(&self) -> u32 {
        self.start.next_epoch
    }

    /// Add a specific kernel to the training curriculum (used for
    /// fine-tuning on one DFG); returns `self` for chaining.
    #[must_use]
    pub fn with_kernel(mut self, dfg: Dfg) -> Self {
        self.curriculum.push(dfg);
        self
    }

    /// The fabric this trainer targets.
    #[must_use]
    pub fn cgra(&self) -> &Cgra {
        &self.cgra
    }

    /// Run the configured number of epochs under numeric-health
    /// supervision and return the learning curves.
    ///
    /// After every healthy epoch the parameters are snapshotted. An
    /// unhealthy epoch — non-finite loss or pre-clip gradient norm
    /// above `max_grad_norm` — rolls the network back to the snapshot
    /// (resetting the optimizer moments), halves the effective learning
    /// rate, and retries the epoch, up to `max_retries` times per run.
    ///
    /// # Errors
    /// Returns [`TrainError::Diverged`] when the retry allowance is
    /// spent; the network holds the last healthy parameters.
    pub fn run(&mut self) -> Result<TrainingMetrics, TrainError> {
        self.run_supervised(None)
    }

    /// Like [`Trainer::run`], but after every healthy epoch commits a
    /// checkpoint generation to `dir` (weights + optimizer + replay
    /// buffer + RNG position + curriculum position), so a kill at any
    /// instant — including mid-checkpoint-write — can be continued with
    /// [`Trainer::resume`].
    ///
    /// # Errors
    /// [`TrainError::Diverged`] as for [`Trainer::run`];
    /// [`TrainError::Checkpoint`] when a commit fails.
    pub fn run_checkpointed(
        &mut self,
        dir: impl AsRef<Path>,
    ) -> Result<TrainingMetrics, TrainError> {
        let store = CheckpointStore::open(dir).map_err(checkpoint_err)?;
        self.run_supervised(Some(&store))
    }

    fn run_supervised(
        &mut self,
        store: Option<&CheckpointStore>,
    ) -> Result<TrainingMetrics, TrainError> {
        let start = std::mem::take(&mut self.start);
        let mut metrics =
            TrainingMetrics { epochs: start.epochs, rollbacks: start.rollbacks };
        let mut snapshot = self.net.params.clone();
        let mut retries = start.retries;
        let mut lr_penalty = start.lr_penalty;
        let mut epoch = start.next_epoch;
        while epoch < self.config.epochs {
            crate::failpoint!("train.pre_epoch");
            let (m, max_grad) = self.run_epoch_attempt(epoch, lr_penalty);
            let healthy = m.total_loss.is_finite()
                && m.value_loss.is_finite()
                && m.policy_loss.is_finite()
                && max_grad <= self.config.max_grad_norm;
            if healthy {
                metrics.epochs.push(m);
                snapshot = self.net.params.clone();
                epoch += 1;
                mapzero_obs::counter!("train.epochs");
                if let Some(store) = store {
                    self.commit_checkpoint(store, epoch, retries, lr_penalty, &metrics)
                        .map_err(checkpoint_err)?;
                }
                continue;
            }
            if retries >= self.config.max_retries {
                // Leave the network in its last healthy state.
                self.net.restore_params(snapshot);
                metrics.rollbacks += 1;
                mapzero_obs::counter!("train.rollbacks");
                return Err(TrainError::Diverged { epoch });
            }
            self.net.restore_params(snapshot.clone());
            lr_penalty *= 0.5;
            retries += 1;
            metrics.rollbacks += 1;
            mapzero_obs::counter!("train.rollbacks");
        }
        Ok(metrics)
    }

    /// Commit one checkpoint generation: the current weights plus the
    /// full resumable trainer state ([`TrainState`]).
    fn commit_checkpoint(
        &self,
        store: &CheckpointStore,
        next_epoch: u32,
        retries: u32,
        lr_penalty: f32,
        metrics: &TrainingMetrics,
    ) -> Result<u64, CheckpointError> {
        let (samples, priorities, next_slot) = self.buffer.export();
        let state = TrainState {
            fingerprint: persist::config_fingerprint(&self.config),
            rng: self.rng.state(),
            next_epoch,
            retries,
            lr_penalty,
            rollbacks: metrics.rollbacks,
            epochs: metrics.epochs.clone(),
            adam: self.net.optimizer_state(),
            samples,
            priorities,
            next_slot: next_slot as u64,
        };
        let files = vec![
            (
                format!("net_{}.mzw", self.cgra.pe_count()),
                encode_params(&self.net.params).as_ref().to_vec(),
            ),
            (TRAINER_STATE_FILE.to_owned(), persist::encode_train_state(&state)),
        ];
        store.commit(&files)
    }

    /// One epoch attempt; returns the metrics and the largest pre-clip
    /// gradient norm seen across the epoch's updates.
    fn run_epoch_attempt(&mut self, epoch: u32, lr_penalty: f32) -> (EpochMetrics, f32) {
        let _span = mapzero_obs::span!("train.epoch");
        let lr = self.config.lr.at(epoch) * lr_penalty;
        // Curriculum position advances with the epoch, easy -> hard.
        let span = self.curriculum.len().max(1);
        let window = ((epoch as usize + 1) * span).div_ceil(self.config.epochs as usize);
        let mut reward_sum = 0.0;
        let mut successes = 0usize;
        let picks: Vec<Dfg> = (0..self.config.episodes_per_epoch)
            .map(|_| self.curriculum[self.rng.below(window.clamp(1, span))].clone())
            .collect();
        for outcome in self.run_episodes(&picks, epoch) {
            let (reward, success, trajectory) = outcome;
            reward_sum += reward;
            successes += usize::from(success);
            for sample in trajectory_to_samples(&trajectory, success) {
                for aug in augment::augment(&sample, &self.cgra, self.config.augment_copies) {
                    self.buffer.push(aug);
                }
            }
        }
        mapzero_obs::gauge!("replay.occupancy", self.buffer.len() as u64);

        // Gradient updates.
        let mut vloss = 0.0f32;
        let mut ploss = 0.0f32;
        let mut updates = 0usize;
        let mut max_grad = 0.0f32;
        for _ in 0..self.config.updates_per_epoch {
            if self.buffer.len() < self.config.batch_size {
                break;
            }
            let batch = self.buffer.sample(self.config.batch_size, &mut self.rng);
            let loss = self.net.train_batch(&batch, lr, self.config.clip);
            vloss += loss.value_loss;
            ploss += loss.policy_loss;
            max_grad = max_grad.max(loss.grad_norm);
            updates += 1;
        }
        // An armed `train.nan_loss` poisons this attempt's loss, the
        // divergence the supervisor must roll back.
        if crate::failpoint::trigger("train.nan_loss").is_err() {
            vloss = f32::NAN;
        }
        let updates_f = updates.max(1) as f32;
        let (value_loss, policy_loss) = (vloss / updates_f, ploss / updates_f);

        // Held-out evaluation.
        let eval_penalty = self.evaluate();

        let metrics = EpochMetrics {
            epoch,
            total_loss: value_loss + policy_loss,
            value_loss,
            policy_loss,
            avg_reward: reward_sum / self.config.episodes_per_epoch.max(1) as f64,
            eval_penalty,
            lr,
            success_rate: successes as f64 / self.config.episodes_per_epoch.max(1) as f64,
        };
        (metrics, max_grad)
    }

    /// Run a batch of self-play episodes, using worker threads when
    /// configured; returns per-episode (reward, success, trajectory) in
    /// input order. Each episode runs inside a panic-isolation
    /// boundary: a panicking episode is recorded as a failed episode
    /// (zero reward, no trajectory) instead of unwinding the trainer or
    /// poisoning its worker thread.
    fn run_episodes(&self, picks: &[Dfg], epoch: u32) -> Vec<(f64, bool, Vec<TrajectoryStep>)> {
        let run_one = |episode: usize, dfg: &Dfg| -> (f64, bool, Vec<TrajectoryStep>) {
            isolated("self-play episode", || {
                crate::failpoint!("train.episode");
                let Ok(mii) = Problem::mii(dfg, &self.cgra) else {
                    return (0.0, false, Vec::new());
                };
                let Ok(problem) = Problem::new(dfg, &self.cgra, mii) else {
                    return (0.0, false, Vec::new());
                };
                let problem = problem.with_candidate_pruning();
                // Self-play per Algorithm 1: the MCTS leaf evaluation is
                // the network value (no playout shortcut), so every action
                // is committed and recorded as an (s, pi, r) step.
                //
                // Each episode gets its own RNG stream derived from
                // (run seed, epoch, episode index) — a function of the
                // episode's position, never of which worker thread runs
                // it, so results are identical for any worker count.
                let agent_config = AgentConfig {
                    mcts: crate::mcts::MctsConfig {
                        playout: false,
                        seed: episode_seed(self.config.seed, epoch, episode),
                        ..self.config.mcts
                    },
                    use_mcts: true,
                    backtrack_budget: 32,
                    mcts_backtrack_cutoff: u64::MAX,
                    collect_trajectory: true,
                };
                let agent = MapZeroAgent::new(&self.net, agent_config);
                let result = agent.run_episode(&problem, self.config.episode_deadline);
                (result.total_reward, result.mapping.is_some(), result.trajectory)
            })
            .unwrap_or((0.0, false, Vec::new()))
        };
        let workers = self.config.workers;
        if workers <= 1 || picks.len() <= 1 {
            return picks.iter().enumerate().map(|(i, d)| run_one(i, d)).collect();
        }
        let chunk = picks.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = picks
                .chunks(chunk)
                .enumerate()
                .map(|(c, slice)| {
                    let run_one = &run_one;
                    scope.spawn(move || {
                        slice
                            .iter()
                            .enumerate()
                            .map(|(j, d)| run_one(c * chunk + j, d))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                // Episodes are individually isolated, so a worker can
                // only die from a fault outside the episode body; treat
                // that as "all episodes of the chunk failed". Joining in
                // spawn order keeps the merged vector in episode order
                // regardless of which worker finishes first.
                .flat_map(|h| h.join().unwrap_or_default())
                .collect()
        })
    }

    /// Map the held-out DFG greedily and report the routing penalty
    /// (total negative reward; > −100 means success).
    fn evaluate(&self) -> f64 {
        let Ok(mii) = Problem::mii(&self.eval_dfg, &self.cgra) else {
            return -f64::from(u32::MAX);
        };
        let Ok(problem) = Problem::new(&self.eval_dfg, &self.cgra, mii) else {
            return -f64::from(u32::MAX);
        };
        let problem = problem.with_candidate_pruning();
        let agent_config = AgentConfig {
            mcts: crate::mcts::MctsConfig { playout: false, ..self.config.mcts },
            use_mcts: true,
            backtrack_budget: 0, // evaluation measures raw decisions
            mcts_backtrack_cutoff: u64::MAX,
            collect_trajectory: false,
        };
        let agent = MapZeroAgent::new(&self.net, agent_config);
        let result = agent.run_episode(&problem, self.config.episode_deadline);
        if result.mapping.is_some() && result.total_reward == 0.0 {
            // Perfect episode: distinguishable from "no data".
            return 0.0;
        }
        result.total_reward
    }

    /// Consume the trainer, keeping the trained network.
    #[must_use]
    pub fn into_net(self) -> MapZeroNet {
        self.net
    }

    /// Borrow the network (e.g. for checkpointing mid-training).
    #[must_use]
    pub fn net(&self) -> &MapZeroNet {
        &self.net
    }
}

/// Convert a recorded trajectory into training samples: the value target
/// of step `t` is the clamped normalized return
/// `Σ_{k≥t} r_k / 100 + terminal bonus`.
#[must_use]
pub fn trajectory_to_samples(trajectory: &[TrajectoryStep], success: bool) -> Vec<TrainSample> {
    let bonus = if success { 1.0 } else { -1.0 };
    let mut samples = Vec::with_capacity(trajectory.len());
    let mut suffix = 0.0f64;
    let mut rev = Vec::with_capacity(trajectory.len());
    for step in trajectory.iter().rev() {
        suffix += step.reward / CONFLICT_PENALTY;
        rev.push((suffix + bonus).clamp(-1.0, 1.0));
    }
    rev.reverse();
    for (step, value) in trajectory.iter().zip(rev) {
        samples.push(TrainSample {
            observation: step.observation.clone(),
            policy: step.policy.clone(),
            value: value as f32,
        });
    }
    samples
}

/// Errors surfaced by high-level training helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// The fabric cannot execute the curriculum kernels.
    Unusable(MapError),
    /// Training diverged (non-finite loss or exploding gradients) and
    /// exhausted its rollback-retry allowance. The trainer's network
    /// holds the last healthy parameters.
    Diverged {
        /// Epoch at which the unrecoverable divergence occurred.
        epoch: u32,
    },
    /// A checkpoint could not be written, read or applied.
    Checkpoint(String),
}

/// Derive the RNG seed of one self-play episode from the run seed, the
/// epoch and the episode's index within the epoch. FNV-mixed so
/// neighbouring episodes get well-separated streams; independent of
/// worker assignment so any worker count replays the same episodes.
fn episode_seed(seed: u64, epoch: u32, episode: usize) -> u64 {
    let mut h = crate::checkpoint::Fnv64::new();
    h.write_u64(seed);
    h.write_u64(u64::from(epoch));
    h.write_usize(episode);
    h.finish()
}

fn checkpoint_err(e: impl std::fmt::Display) -> TrainError {
    TrainError::Checkpoint(e.to_string())
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Unusable(e) => write!(f, "fabric unusable for training: {e}"),
            TrainError::Diverged { epoch } => {
                write!(f, "training diverged at epoch {epoch} (retries exhausted)")
            }
            TrainError::Checkpoint(msg) => write!(f, "checkpoint failure: {msg}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<TrainError> for MapError {
    fn from(e: TrainError) -> Self {
        match e {
            TrainError::Unusable(inner) => inner,
            TrainError::Diverged { epoch } => MapError::Diverged { epoch },
            TrainError::Checkpoint(msg) => MapError::Internal(format!("checkpoint: {msg}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::{self, FailAction};
    use mapzero_arch::presets;

    #[test]
    fn trajectory_returns_are_clamped_and_ordered() {
        use crate::embed::Observation;
        use mapzero_nn::Matrix;
        let step = |reward: f64| TrajectoryStep {
            observation: Observation {
                dfg_nodes: Matrix::scalar(0.0),
                dfg_edges: vec![],
                cgra_nodes: Matrix::scalar(0.0),
                cgra_edges: vec![],
                metadata: Matrix::scalar(0.0),
                mask: vec![true],
            },
            policy: vec![1.0],
            reward,
        };
        let traj = vec![step(0.0), step(-100.0), step(0.0)];
        let samples = trajectory_to_samples(&traj, false);
        assert_eq!(samples.len(), 3);
        // All targets within [-1, 1].
        assert!(samples.iter().all(|s| s.value.abs() <= 1.0));
        // Failure trajectory: first step already sees the future conflict.
        assert!(samples[0].value <= -1.0 + 1e-6);
        // Success bonus dominates a clean run.
        let good = trajectory_to_samples(&[step(0.0)], true);
        assert!((good[0].value - 1.0).abs() < 1e-6);
    }

    #[test]
    fn training_epoch_produces_metrics() {
        let cgra = presets::simple_mesh(4, 4);
        let mut trainer = Trainer::new(cgra, NetConfig::tiny(), TrainConfig::fast_test());
        let metrics = trainer.run().unwrap();
        assert_eq!(metrics.epochs.len(), 3);
        assert_eq!(metrics.rollbacks, 0);
        let last = metrics.last().unwrap();
        assert!(last.lr > 0.0);
        assert!(last.total_loss.is_finite());
        assert!(last.avg_reward.is_finite());
    }

    #[test]
    fn learning_rate_follows_schedule() {
        let cgra = presets::simple_mesh(2, 2);
        let config = TrainConfig {
            epochs: 2,
            lr: LrSchedule { initial: 0.01, decay: 0.5, step_every: 1, floor: 1e-5 },
            ..TrainConfig::fast_test()
        };
        let mut trainer = Trainer::new(cgra, NetConfig::tiny(), config);
        let metrics = trainer.run().unwrap();
        assert!(metrics.epochs[0].lr > metrics.epochs[1].lr);
    }

    #[test]
    fn transient_nan_loss_rolls_back_and_recovers() {
        let cgra = presets::simple_mesh(2, 2);
        let config = TrainConfig::fast_test();
        let epochs = config.epochs;
        let mut trainer = Trainer::new(cgra, NetConfig::tiny(), config);
        // Poison epoch 1's first attempt: the loss site is visited once
        // per attempt, so that is the second visit.
        let _nan = failpoint::scoped("train.nan_loss", 2, FailAction::IoError);
        let metrics = trainer.run().unwrap();
        // The poisoned attempt was rolled back and retried; the final run
        // still delivers the full epoch count with healthy losses.
        assert_eq!(metrics.epochs.len(), epochs as usize);
        assert_eq!(metrics.rollbacks, 1);
        assert!(metrics.epochs.iter().all(|e| e.total_loss.is_finite()));
    }

    #[test]
    fn persistent_divergence_exhausts_retries_and_restores_snapshot() {
        let cgra = presets::simple_mesh(2, 2);
        // No attempt's gradient norm (always >= 0) can meet a negative
        // bound, so every retry diverges again.
        let config =
            TrainConfig { max_grad_norm: -1.0, max_retries: 2, ..TrainConfig::fast_test() };
        let mut trainer = Trainer::new(cgra, NetConfig::tiny(), config);
        let snapshot = trainer.net().params.clone();
        let err = trainer.run().unwrap_err();
        assert_eq!(err, TrainError::Diverged { epoch: 0 });
        // Divergence maps into the compiler-facing error taxonomy.
        assert_eq!(MapError::from(err), MapError::Diverged { epoch: 0 });
        // The network was restored to the last healthy snapshot (here:
        // the initial parameters, since epoch 0 never went healthy).
        let restored = &trainer.net().params;
        assert_eq!(restored.len(), snapshot.len());
        for id in restored.ids() {
            assert_eq!(restored.value(id).data(), snapshot.value(id).data());
        }
    }

    #[test]
    fn episode_panics_are_contained() {
        let cgra = presets::simple_mesh(2, 2);
        // One worker: the episodes run on this thread, where the
        // failpoint is armed.
        let config = TrainConfig { workers: 1, ..TrainConfig::fast_test() };
        let epochs = config.epochs;
        let mut trainer = Trainer::new(cgra, NetConfig::tiny(), config);
        let _panic = failpoint::scoped("train.episode", 1, FailAction::Panic);
        // The panicking self-play episode is isolated and degrades to a
        // failed, empty trajectory: training completes instead of crashing.
        let metrics = trainer.run().unwrap();
        assert!(failpoint::armed_sites().is_empty(), "the episode failpoint fired");
        assert_eq!(metrics.epochs.len(), epochs as usize);
        assert!(metrics.epochs[0].success_rate < 1.0, "the panicked episode counts as failed");
    }

    /// Parallel self-play is a pure throughput knob: the training
    /// stream (episode order, per-episode seeds, merged trajectories)
    /// must be bit-identical for any worker count.
    #[test]
    fn worker_count_does_not_change_training_results() {
        let run = |workers: usize| {
            let cgra = presets::simple_mesh(4, 4);
            let config = TrainConfig { workers, ..TrainConfig::fast_test() };
            let mut trainer = Trainer::new(cgra, NetConfig::tiny(), config);
            let metrics = trainer.run().unwrap();
            (metrics, trainer)
        };
        let (m1, t1) = run(1);
        let (m3, t3) = run(3);
        assert_eq!(m1.epochs.len(), m3.epochs.len());
        for (a, b) in m1.epochs.iter().zip(&m3.epochs) {
            assert_eq!(a.total_loss.to_bits(), b.total_loss.to_bits());
            assert_eq!(a.avg_reward.to_bits(), b.avg_reward.to_bits());
        }
        let (p1, p3) = (&t1.net().params, &t3.net().params);
        for id in p1.ids() {
            assert_eq!(p1.value(id).data(), p3.value(id).data());
        }
    }

    #[test]
    fn episode_seeds_are_distinct_and_stable() {
        assert_eq!(episode_seed(7, 1, 2), episode_seed(7, 1, 2));
        assert_ne!(episode_seed(7, 1, 2), episode_seed(7, 1, 3));
        assert_ne!(episode_seed(7, 1, 2), episode_seed(7, 2, 2));
        assert_ne!(episode_seed(7, 1, 2), episode_seed(8, 1, 2));
    }

    #[test]
    #[should_panic(expected = "network/fabric mismatch")]
    fn mismatched_net_panics() {
        let cgra = presets::simple_mesh(4, 4);
        let net = MapZeroNet::new(4, NetConfig::tiny());
        let _ = Trainer::with_net(cgra, net, TrainConfig::fast_test());
    }
}
