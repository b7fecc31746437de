//! The MapZero network (Fig. 5): GAT encoders for the DFG and the CGRA
//! slice, an FC encoder for the current node's metadata, an MLP trunk
//! producing the joint state vector, and policy / value heads.

use crate::embed::Observation;
use mapzero_nn::infer::{log_softmax_masked_fused_into, log_softmax_masked_into};
use mapzero_nn::{
    clip_gradients, Adam, AdamState, BufId, GatLayer, InferCtx, Linear, Matrix,
    MessageIndex, Mlp, Optimizer, Params, SeedRng,
};
use std::cell::RefCell;

/// Network hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Per-head output width of the GAT layers.
    pub head_dim: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Width of the metadata FC embedding.
    pub meta_dim: usize,
    /// Width of the joint state vector.
    pub state_dim: usize,
    /// Hidden width of the policy / value heads.
    pub head_hidden: usize,
    /// Weight-init seed.
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            head_dim: 16,
            heads: 2,
            meta_dim: 16,
            state_dim: 64,
            head_hidden: 64,
            seed: 0,
        }
    }
}

impl NetConfig {
    /// A tiny configuration for fast tests.
    #[must_use]
    pub fn tiny() -> Self {
        NetConfig {
            head_dim: 4,
            heads: 2,
            meta_dim: 8,
            state_dim: 16,
            head_hidden: 16,
            ..NetConfig::default()
        }
    }
}

/// Network output for one state.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Log-probability per PE (masked actions get a large negative
    /// value).
    pub log_probs: Vec<f32>,
    /// Value estimate in [−1, 1].
    pub value: f32,
}

impl Prediction {
    /// Probabilities (exp of log-probs; masked ≈ 0).
    #[must_use]
    pub fn probs(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.probs_into(&mut out);
        out
    }

    /// Probabilities written into a caller-provided buffer, so per-step
    /// decision loops can reuse one allocation instead of taking a
    /// fresh `Vec` per expansion.
    pub fn probs_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend(self.log_probs.iter().map(|lp| lp.exp()));
    }

    /// Index of the most likely action.
    #[must_use]
    pub fn argmax(&self) -> usize {
        self.log_probs
            .iter()
            .enumerate()
            // `total_cmp`: a NaN log-prob (poisoned weights) sorts low
            // instead of panicking inference.
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// One training sample: an observation with its MCTS policy target and
/// value target.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSample {
    /// The observed state.
    pub observation: Observation,
    /// Target distribution over actions (MCTS visit proportions).
    pub policy: Vec<f32>,
    /// Target value in [−1, 1].
    pub value: f32,
}

/// Losses of one optimization step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossBreakdown {
    /// `(r − v)²` averaged over the batch.
    pub value_loss: f32,
    /// `−π·log p` averaged over the batch.
    pub policy_loss: f32,
    /// Sum of the two.
    pub total: f32,
    /// Pre-clip gradient norm.
    pub grad_norm: f32,
}

/// Per-thread scratch for the tape-free forward and backward: the
/// bump-arena workspace, the two message indices, which are kept while
/// the problem's graphs stay the same, and the training step's policy
/// row. Thread-local so [`MapZeroNet::predict`] keeps its `&self`
/// signature and the net stays shareable across self-play worker
/// threads.
#[derive(Default)]
struct InferState {
    ctx: InferCtx,
    dfg_index: MessageIndex,
    cgra_index: MessageIndex,
    log_probs: Vec<f32>,
}

thread_local! {
    static INFER_STATE: RefCell<InferState> = RefCell::new(InferState::default());
}

/// The slots of one tape-free forward that the training backward
/// reads (every other intermediate is found through its layer).
struct ForwardSlots {
    x_dfg: BufId,
    h1: BufId,
    h2: BufId,
    dfg_emb: BufId,
    x_cgra: BufId,
    c1: BufId,
    c2: BufId,
    cgra_emb: BufId,
    meta_in: BufId,
    meta_emb: BufId,
    /// `dfg_emb ‖ cgra_emb`.
    graphs: BufId,
    joined: BufId,
    state: BufId,
    logits: BufId,
    values: BufId,
}

/// The MapZero policy/value network.
pub struct MapZeroNet {
    /// Parameter store (exposed for checkpointing).
    pub params: Params,
    config: NetConfig,
    action_count: usize,
    gat_dfg1: GatLayer,
    gat_dfg2: GatLayer,
    gat_cgra1: GatLayer,
    gat_cgra2: GatLayer,
    fc_meta: Linear,
    trunk: Mlp,
    policy_head: Mlp,
    value_head: Mlp,
    optimizer: Adam,
}

const DFG_DIM: usize = mapzero_dfg::features::DFG_FEATURE_DIM;
const CGRA_DIM: usize = mapzero_arch::features::PE_FEATURE_DIM;
const META_DIM: usize = mapzero_dfg::features::METADATA_DIM;

impl MapZeroNet {
    /// Create a network for a fabric with `action_count` PEs.
    ///
    /// The GAT encoders only depend on feature dimensionality, so the
    /// same weights transfer across fabrics of equal PE count (§4.5).
    #[must_use]
    pub fn new(action_count: usize, config: NetConfig) -> Self {
        let mut params = Params::new();
        let mut rng = SeedRng::new(config.seed);
        let gat_out = config.head_dim * config.heads;
        let (d, heads) = (config.head_dim, config.heads);
        let gat_dfg1 = GatLayer::new(&mut params, DFG_DIM, d, heads, &mut rng);
        let gat_dfg2 = GatLayer::new(&mut params, gat_out, d, heads, &mut rng);
        let gat_cgra1 = GatLayer::new(&mut params, CGRA_DIM, d, heads, &mut rng);
        let gat_cgra2 = GatLayer::new(&mut params, gat_out, d, heads, &mut rng);
        let fc_meta = Linear::new(&mut params, META_DIM, config.meta_dim, &mut rng);
        let joint = gat_out * 2 + config.meta_dim;
        let trunk = Mlp::new(&mut params, joint, &[config.state_dim, config.state_dim], &mut rng);
        let policy_head =
            Mlp::new(&mut params, config.state_dim, &[config.head_hidden, action_count], &mut rng);
        let value_head = Mlp::new(&mut params, config.state_dim, &[config.head_hidden, 1], &mut rng);
        MapZeroNet {
            params,
            config,
            action_count,
            gat_dfg1,
            gat_dfg2,
            gat_cgra1,
            gat_cgra2,
            fc_meta,
            trunk,
            policy_head,
            value_head,
            optimizer: Adam::new(),
        }
    }

    /// Number of actions (PEs) this network scores.
    #[must_use]
    pub fn action_count(&self) -> usize {
        self.action_count
    }

    /// Replace the parameters with a previously-cloned snapshot and
    /// reset the optimizer state. Used by the trainer's divergence
    /// rollback: keeping Adam's moment estimates would immediately
    /// re-apply the exploded update direction the rollback just undid.
    pub fn restore_params(&mut self, params: Params) {
        self.params = params;
        self.optimizer = Adam::new();
    }

    /// The configuration used at construction.
    #[must_use]
    pub fn config(&self) -> NetConfig {
        self.config
    }

    /// Snapshot the optimizer state (Adam step count + moments) for
    /// checkpointing.
    #[must_use]
    pub fn optimizer_state(&self) -> AdamState {
        self.optimizer.export_state()
    }

    /// Restore a checkpointed optimizer state. Called *after*
    /// [`MapZeroNet::restore_params`] when resuming (restore resets the
    /// optimizer), so the resumed run takes the exact update directions
    /// the interrupted run would have.
    pub fn restore_optimizer(&mut self, state: AdamState) {
        self.optimizer.import_state(state);
    }

    /// Inference: predict the action distribution and state value.
    ///
    /// The `K = 1` case of [`MapZeroNet::predict_batch`]'s forward
    /// body: the tape-free [`InferCtx`] path (no autodiff graph, no
    /// per-op allocations), bit-identical to the forward over the
    /// autodiff tape (the test-only oracle `predict_reference`).
    ///
    /// # Panics
    /// Panics if the observation mask has no legal action or its mask
    /// length differs from the action count.
    #[must_use]
    pub fn predict(&self, obs: &Observation) -> Prediction {
        self.forward_tape_free(&[obs]).pop().expect("one prediction per observation")
    }

    /// Batched inference: one forward pass over `K` observations of the
    /// same problem, returning one [`Prediction`] per observation in
    /// input order. This is the evaluation kernel behind virtual-loss
    /// MCTS leaf batching: K skinny per-leaf matvecs become one
    /// cache-friendly matmul per layer.
    ///
    /// Node features are row-stacked ([`InferCtx::load_stacked`]) and
    /// every GAT message pass runs each of the K copies over the one
    /// per-problem [`MessageIndex`] with its own row offset, so there
    /// are no cross-observation messages. Per-graph pooling uses
    /// [`InferCtx::mean_rows_grouped`].
    ///
    /// # Determinism contract
    /// - `K == 1` is [`MapZeroNet::predict`] and therefore
    ///   **bit-identical** to the tape forward.
    /// - `K > 1` is deterministic (same inputs → same outputs) and
    ///   bit-identical to the unbatched pass everywhere except the
    ///   policy log-softmax, whose normalizer uses the fused-order SIMD
    ///   reduction ([`log_softmax_masked_fused_into`]): per-observation
    ///   outputs match the tape forward within the documented 1e-5
    ///   kernel tolerance. Batch *composition* never affects a result
    ///   beyond that contract — every other op (matmul, message pass,
    ///   grouped mean) preserves the per-observation accumulation order
    ///   of the single-graph pass.
    ///
    /// The realized batch size is recorded in the `nn.batch.size`
    /// histogram.
    ///
    /// # Panics
    /// Panics on an empty batch, a mask/action mismatch, or (debug)
    /// observations of differing graph shape.
    #[must_use]
    pub fn predict_batch(&self, obs: &[&Observation]) -> Vec<Prediction> {
        assert!(!obs.is_empty(), "predict_batch needs at least one observation");
        mapzero_obs::observe!("nn.batch.size", obs.len() as u64);
        self.forward_tape_free(obs)
    }

    /// The one tape-free forward body behind [`MapZeroNet::predict`]
    /// and [`MapZeroNet::predict_batch`]; mirrors the tape forward op
    /// for op on each stacked observation.
    fn forward_tape_free(&self, obs: &[&Observation]) -> Vec<Prediction> {
        for o in obs {
            assert_eq!(o.mask.len(), self.action_count, "mask/action mismatch");
        }
        debug_assert!(
            obs.iter().all(|o| {
                o.dfg_nodes.rows() == obs[0].dfg_nodes.rows()
                    && o.dfg_edges == obs[0].dfg_edges
                    && o.cgra_nodes.rows() == obs[0].cgra_nodes.rows()
                    && o.cgra_edges == obs[0].cgra_edges
            }),
            "batched observations must share one problem's graph shapes"
        );
        crate::failpoint!("infer.predict");
        let _phase = mapzero_obs::phase::phase_guard(mapzero_obs::Phase::Infer);
        let started = mapzero_obs::enabled().then(std::time::Instant::now);
        let k = obs.len();
        let predictions = INFER_STATE.with(|cell| {
            let st = &mut *cell.borrow_mut();
            let ForwardSlots { logits, values, .. } = self.forward_slots(st, obs);
            let ctx = &st.ctx;
            obs.iter()
                .enumerate()
                .map(|(i, o)| {
                    let row = ctx.value(logits).row_slice(i);
                    let mut log_probs = Vec::with_capacity(self.action_count);
                    if k == 1 {
                        log_softmax_masked_into(row, &o.mask, &mut log_probs);
                    } else {
                        log_softmax_masked_fused_into(row, &o.mask, &mut log_probs);
                    }
                    Prediction {
                        log_probs,
                        value: mapzero_nn::simd::tanh1(ctx.value(values)[(i, 0)]),
                    }
                })
                .collect()
        });
        if let Some(start) = started {
            mapzero_obs::observe!(
                "nn.forward_us",
                u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
            );
        }
        predictions
    }

    /// The forward op sequence over `K` stacked observations, from a
    /// fresh [`InferCtx::begin`] up to the policy logits and raw values.
    /// Shared by inference and the training step, so both run exactly
    /// the same ops.
    fn forward_slots(&self, st: &mut InferState, obs: &[&Observation]) -> ForwardSlots {
        let k = obs.len();
        let InferState { ctx, dfg_index, cgra_index, .. } = st;
        ctx.begin();

        dfg_index.rebuild(&obs[0].dfg_edges, obs[0].dfg_nodes.rows());
        let dfg_mats: Vec<&Matrix> = obs.iter().map(|o| &o.dfg_nodes).collect();
        let x_dfg = ctx.load_stacked(&dfg_mats);
        let h1 = self.gat_dfg1.infer(ctx, &self.params, x_dfg, dfg_index);
        let h2 = self.gat_dfg2.infer(ctx, &self.params, h1, dfg_index);
        let dfg_emb = ctx.mean_rows_grouped(h2, k);

        cgra_index.rebuild(&obs[0].cgra_edges, obs[0].cgra_nodes.rows());
        let cgra_mats: Vec<&Matrix> = obs.iter().map(|o| &o.cgra_nodes).collect();
        let x_cgra = ctx.load_stacked(&cgra_mats);
        let c1 = self.gat_cgra1.infer(ctx, &self.params, x_cgra, cgra_index);
        let c2 = self.gat_cgra2.infer(ctx, &self.params, c1, cgra_index);
        let cgra_emb = ctx.mean_rows_grouped(c2, k);

        let meta_mats: Vec<&Matrix> = obs.iter().map(|o| &o.metadata).collect();
        let meta_in = ctx.load_stacked(&meta_mats);
        let meta_emb = self.fc_meta.infer(ctx, &self.params, meta_in);
        ctx.relu(meta_emb);

        let graphs = ctx.concat_cols(dfg_emb, cgra_emb);
        let joined = ctx.concat_cols(graphs, meta_emb);
        let state = self.trunk.infer(ctx, &self.params, joined);
        ctx.relu(state);

        let logits = self.policy_head.infer(ctx, &self.params, state);
        let values = self.value_head.infer(ctx, &self.params, state);
        ForwardSlots {
            x_dfg,
            h1,
            h2,
            dfg_emb,
            x_cgra,
            c1,
            c2,
            cgra_emb,
            meta_in,
            meta_emb,
            graphs,
            joined,
            state,
            logits,
            values,
        }
    }

    /// A cheap identity fingerprint of the current parameter values
    /// (see [`Params::fingerprint`]); prediction caches key on this to
    /// detect weight updates and rollbacks.
    #[must_use]
    pub fn params_fingerprint(&self) -> u64 {
        self.params.fingerprint()
    }

    /// One optimization step on a batch of samples, minimizing
    /// `(r − v)² − π·log p` (Alg. 1 line 21) with gradient clipping.
    ///
    /// Each sample runs the `K = 1` forward of [`MapZeroNet::predict`]
    /// and a hand-derived backward over the same workspace (no autodiff
    /// tape); gradients accumulate per sample, in sample order. The
    /// parameters, the Adam state and the returned losses are
    /// bit-identical to differentiating the tape forward with
    /// `Graph::backward`.
    ///
    /// # Panics
    /// Panics on an empty batch, or — before any state changes — on a
    /// sample whose mask length differs from the action count, whose
    /// policy length differs from its mask's, that has no legal action,
    /// or that has a graph edge endpoint out of range.
    pub fn train_batch(&mut self, batch: &[TrainSample], lr: f32, clip: f32) -> LossBreakdown {
        assert!(!batch.is_empty(), "batch must not be empty");
        for sample in batch {
            self.check_sample(sample);
        }
        let _phase = mapzero_obs::phase::phase_guard(mapzero_obs::Phase::Backprop);
        let started = mapzero_obs::enabled().then(std::time::Instant::now);
        self.params.zero_grads();
        let mut value_loss_total = 0.0f32;
        let mut policy_loss_total = 0.0f32;
        let scale = 1.0 / batch.len() as f32;
        INFER_STATE.with(|cell| {
            let st = &mut *cell.borrow_mut();
            for sample in batch {
                let (vloss, ploss) = self.accumulate_gradients(st, sample, scale);
                value_loss_total += vloss;
                policy_loss_total += ploss;
            }
        });
        let grad_norm = clip_gradients(&mut self.params, clip);
        self.optimizer.step(&mut self.params, lr);
        self.params.zero_grads();
        let value_loss = value_loss_total * scale;
        let policy_loss = policy_loss_total * scale;
        if let Some(start) = started {
            mapzero_obs::observe!(
                "nn.train_us",
                u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
            );
        }
        LossBreakdown { value_loss, policy_loss, total: value_loss + policy_loss, grad_norm }
    }

    /// The malformed-sample checks of [`MapZeroNet::train_batch`].
    fn check_sample(&self, sample: &TrainSample) {
        let obs = &sample.observation;
        assert_eq!(obs.mask.len(), self.action_count, "mask/action mismatch");
        assert_eq!(sample.policy.len(), obs.mask.len(), "policy/mask length mismatch");
        assert!(obs.mask.iter().any(|&m| m), "at least one action must be legal");
        for (edges, n) in [
            (&obs.dfg_edges, obs.dfg_nodes.rows()),
            (&obs.cgra_edges, obs.cgra_nodes.rows()),
        ] {
            for &(s, d) in edges {
                assert!(s < n && d < n, "edge ({s}, {d}) out of range for {n} nodes");
            }
        }
    }

    /// Forward and backward of one sample with loss weight `scale`:
    /// adds its parameter gradients into `self.params` and returns its
    /// unscaled `(value loss, policy loss)`.
    ///
    /// Every step mirrors the tape graph of `(r − v)² − π·log p`
    /// walked in reverse creation order; where a buffer has several
    /// consumers, it sums their terms in that order (`state` takes the
    /// value head's before the policy head's).
    fn accumulate_gradients(
        &mut self,
        st: &mut InferState,
        sample: &TrainSample,
        scale: f32,
    ) -> (f32, f32) {
        let obs = &sample.observation;
        let f = self.forward_slots(st, &[obs]);
        let InferState { ctx, dfg_index, cgra_index, log_probs } = st;
        log_softmax_masked_into(ctx.value(f.logits).row_slice(0), &obs.mask, log_probs);
        let value = mapzero_nn::simd::tanh1(ctx.value(f.values)[(0, 0)]);
        let diff = value - sample.value;
        let vloss = diff * diff;
        // π with illegal actions zeroed, as a weight on each log p.
        let pi = |c: usize| if obs.mask[c] { sample.policy[c] } else { 0.0 };
        let psum: f32 = log_probs.iter().enumerate().map(|(c, &lp)| pi(c) * lp).sum();
        // `x * -1.0`, not `-x`: the tape's `scale(·, −1)`, bit for bit
        // even on a NaN.
        #[allow(clippy::neg_multiply)]
        let ploss = psum * -1.0;

        // Seed: ∂loss/∂vloss = ∂loss/∂ploss = scale.
        #[allow(clippy::neg_multiply)]
        let g_psum = scale * -1.0;
        let g_diff = scale * diff + scale * diff;
        let g_value_raw = (1.0 - value * value) * g_diff;
        ctx.begin_backward();
        ctx.grad_mut(f.values)[(0, 0)] = g_value_raw;
        let mut gsum = 0.0f32;
        for (c, &legal) in obs.mask.iter().enumerate() {
            if legal {
                gsum += g_psum * pi(c);
            }
        }
        let g_logits = ctx.grad_mut(f.logits).row_slice_mut(0);
        for (c, &legal) in obs.mask.iter().enumerate() {
            if legal {
                g_logits[c] = g_psum * pi(c) - log_probs[c].exp() * gsum;
            }
        }

        let params = &mut self.params;
        self.value_head.backward(ctx, params, f.state, f.values, true);
        self.policy_head.backward(ctx, params, f.state, f.logits, true);
        ctx.relu_backward(f.state);
        self.trunk.backward(ctx, params, f.joined, f.state, true);
        ctx.concat_cols_backward(f.graphs, f.meta_emb, f.joined);
        ctx.concat_cols_backward(f.dfg_emb, f.cgra_emb, f.graphs);
        ctx.relu_backward(f.meta_emb);
        self.fc_meta.backward(ctx, params, f.meta_in, f.meta_emb, false);
        ctx.mean_rows_grouped_backward(f.c2, f.cgra_emb, 1);
        self.gat_cgra2.backward(ctx, params, f.c1, f.c2, cgra_index, true);
        self.gat_cgra1.backward(ctx, params, f.x_cgra, f.c1, cgra_index, false);
        ctx.mean_rows_grouped_backward(f.h2, f.dfg_emb, 1);
        self.gat_dfg2.backward(ctx, params, f.h1, f.h2, dfg_index, true);
        self.gat_dfg1.backward(ctx, params, f.x_dfg, f.h1, dfg_index, false);
        (vloss, ploss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::observe;
    use crate::env::MapEnv;
    use crate::problem::Problem;
    use mapzero_arch::presets;
    use mapzero_dfg::random::{random_dfg, RandomDfgConfig};
    use mapzero_dfg::suite;
    use mapzero_nn::{Graph, VarId};
    use proptest::prelude::*;

    fn sample_obs() -> Observation {
        let dfg = suite::by_name("sum").unwrap();
        let cgra = presets::hrea();
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let env = MapEnv::new(&problem);
        observe(&env)
    }

    #[test]
    fn predict_produces_distribution() {
        let net = MapZeroNet::new(16, NetConfig::tiny());
        let obs = sample_obs();
        let pred = net.predict(&obs);
        let total: f32 = pred.probs().iter().sum();
        assert!((total - 1.0).abs() < 1e-4, "sums to {total}");
        assert!(pred.value.abs() <= 1.0);
        assert!(pred.argmax() < 16);
    }

    #[test]
    fn prediction_is_deterministic() {
        let net = MapZeroNet::new(16, NetConfig::tiny());
        let obs = sample_obs();
        assert_eq!(net.predict(&obs), net.predict(&obs));
    }

    #[test]
    fn masked_actions_get_zero_probability() {
        let net = MapZeroNet::new(16, NetConfig::tiny());
        let mut obs = sample_obs();
        obs.mask[3] = false;
        obs.mask[7] = false;
        let pred = net.predict(&obs);
        assert!(pred.probs()[3] < 1e-6);
        assert!(pred.probs()[7] < 1e-6);
    }

    #[test]
    fn training_reduces_loss_on_fixed_target() {
        let mut net = MapZeroNet::new(16, NetConfig::tiny());
        let obs = sample_obs();
        let mut policy = vec![0.0f32; 16];
        policy[5] = 1.0;
        let sample = TrainSample { observation: obs, policy, value: 0.8 };
        let first = net.train_batch(std::slice::from_ref(&sample), 0.01, 5.0);
        let mut last = first;
        for _ in 0..30 {
            last = net.train_batch(std::slice::from_ref(&sample), 0.01, 5.0);
        }
        assert!(
            last.total < first.total,
            "loss should fall: {} -> {}",
            first.total,
            last.total
        );
        // The policy should now prefer action 5.
        let pred = net.predict(&sample.observation);
        assert_eq!(pred.argmax(), 5);
    }

    #[test]
    fn gradient_norm_reported_positive() {
        let mut net = MapZeroNet::new(16, NetConfig::tiny());
        let obs = sample_obs();
        let sample =
            TrainSample { observation: obs, policy: vec![1.0 / 16.0; 16], value: -0.5 };
        let loss = net.train_batch(&[sample], 0.001, 10.0);
        assert!(loss.grad_norm > 0.0);
        assert!(loss.total.is_finite());
    }

    #[test]
    #[should_panic(expected = "batch must not be empty")]
    fn empty_batch_panics() {
        let mut net = MapZeroNet::new(16, NetConfig::tiny());
        let _ = net.train_batch(&[], 0.01, 1.0);
    }

    /// The tape-free predict must be bit-identical to the autodiff
    /// reference — fresh, repeated, and after a weight update.
    #[test]
    fn fast_predict_matches_reference_bitwise() {
        let mut net = MapZeroNet::new(16, NetConfig::tiny());
        let obs = sample_obs();
        let reference = net.predict_reference(&obs);
        assert_eq!(net.predict(&obs), reference, "fresh");
        assert_eq!(net.predict(&obs), reference, "repeat");

        let sample = TrainSample {
            observation: sample_obs(),
            policy: vec![1.0 / 16.0; 16],
            value: 0.3,
        };
        let _ = net.train_batch(&[sample], 0.01, 5.0);
        let updated = net.predict_reference(&obs);
        assert_ne!(updated, reference, "training should move the outputs");
        assert_eq!(net.predict(&obs), updated, "after a weight update");
    }

    /// Mid-episode observations of `kernel` on `cgra` (one problem).
    fn episode_obs(kernel: &str, cgra: &mapzero_arch::Cgra, count: usize) -> Vec<Observation> {
        let dfg = suite::by_name(kernel).unwrap();
        let problem = Problem::new(&dfg, cgra, Problem::mii(&dfg, cgra).unwrap()).unwrap();
        let mut env = MapEnv::new(&problem);
        let mut out = vec![observe(&env)];
        while out.len() < count && !env.done() {
            let legal = env.legal_actions();
            let Some(&pe) = legal.get(out.len() % legal.len().max(1)) else { break };
            let _ = env.step(pe);
            if !env.done() && !env.legal_actions().is_empty() {
                out.push(observe(&env));
            }
        }
        out
    }

    /// The per-thread message indices are reused only for an equal edge
    /// list: alternating between two 16-PE fabrics with different links
    /// (and two DFGs) must never serve one problem's index to the other.
    #[test]
    fn alternating_fabrics_never_reuse_a_stale_index() {
        let net = MapZeroNet::new(16, NetConfig::tiny());
        let hrea = presets::hrea();
        let mesh = presets::simple_mesh(4, 4);
        assert_eq!(hrea.pe_count(), mesh.pe_count());
        let on_hrea = episode_obs("sum", &hrea, 3);
        let on_mesh = episode_obs("mac", &mesh, 3);
        assert_ne!(on_hrea[0].cgra_edges, on_mesh[0].cgra_edges, "fabrics must differ in links");
        // Same PE count *and* link count, different links: one link of
        // the mesh redirected.
        let mut rewired = on_mesh[0].clone();
        let (s, _) = rewired.cgra_edges[0];
        rewired.cgra_edges[0] = (s, (s + 5) % 16);
        assert_ne!(rewired.cgra_edges, on_mesh[0].cgra_edges);
        for round in 0..3 {
            for obs in on_hrea.iter().chain(&on_mesh).chain([&rewired]) {
                assert_eq!(net.predict(obs), net.predict_reference(obs), "round {round}");
            }
            for (a, b) in on_hrea.iter().zip(&on_mesh) {
                assert_eq!(net.predict(a), net.predict_reference(a), "round {round}, interleaved");
                assert_eq!(net.predict(b), net.predict_reference(b), "round {round}, interleaved");
            }
        }
    }

    /// Alternating batch sizes on one problem reuse one index: every
    /// result stays within the batched contract of the reference, K=1
    /// stays bit-identical, and a repeated K reproduces itself exactly.
    #[test]
    fn alternating_batch_sizes_share_one_index() {
        let net = MapZeroNet::new(16, NetConfig::tiny());
        let states = episode_obs("sum", &presets::hrea(), 6);
        assert!(states.len() >= 5, "episode too short: {}", states.len());
        let refs: Vec<&Observation> = states.iter().collect();
        let first_three = net.predict_batch(&refs[..3]);
        for k in [1usize, 5, 2, 1, 3, 4, 1] {
            let batch = net.predict_batch(&refs[..k]);
            for (obs, got) in refs.iter().zip(&batch) {
                let want = net.predict_reference(obs);
                if k == 1 {
                    assert_eq!(got, &want, "K=1 must be bit-identical");
                    continue;
                }
                assert_eq!(got.value.to_bits(), want.value.to_bits(), "K={k} value");
                for (g, w) in got.log_probs.iter().zip(&want.log_probs) {
                    assert!((g - w).abs() <= 1e-5, "K={k}: {g} vs {w}");
                }
            }
            if k == 3 {
                assert_eq!(batch, first_three, "same batch, same bits");
            }
        }
    }

    impl MapZeroNet {
        /// The forward over the autodiff tape that the `InferCtx` forward
        /// replaced, kept as its oracle: `(masked log-softmax logits,
        /// value)` tape variables.
        fn forward(&self, g: &mut Graph, obs: &Observation) -> (VarId, VarId) {
            let x_dfg = g.input(obs.dfg_nodes.clone());
            let h1 = self.gat_dfg1.forward(g, &self.params, x_dfg, &obs.dfg_edges);
            let h2 = self.gat_dfg2.forward(g, &self.params, h1, &obs.dfg_edges);
            let dfg_emb = g.mean_rows(h2);

            let x_cgra = g.input(obs.cgra_nodes.clone());
            let c1 = self.gat_cgra1.forward(g, &self.params, x_cgra, &obs.cgra_edges);
            let c2 = self.gat_cgra2.forward(g, &self.params, c1, &obs.cgra_edges);
            let cgra_emb = g.mean_rows(c2);

            let meta_in = g.input(obs.metadata.clone());
            let meta_lin = self.fc_meta.forward(g, &self.params, meta_in);
            let meta_emb = g.relu(meta_lin);

            let joined = g.concat_cols(dfg_emb, cgra_emb);
            let joined = g.concat_cols(joined, meta_emb);
            let trunk_out = self.trunk.forward(g, &self.params, joined);
            let state = g.relu(trunk_out);

            let logits = self.policy_head.forward(g, &self.params, state);
            let log_probs = g.log_softmax_masked(logits, &obs.mask);
            let value_raw = self.value_head.forward(g, &self.params, state);
            let value = g.tanh(value_raw);
            (log_probs, value)
        }

        /// Inference through the tape forward: the oracle that
        /// [`MapZeroNet::predict`] and `predict_batch` at `K = 1` must
        /// match bit for bit.
        fn predict_reference(&self, obs: &Observation) -> Prediction {
            assert_eq!(obs.mask.len(), self.action_count, "mask/action mismatch");
            let mut g = Graph::new();
            let (log_probs, value) = self.forward(&mut g, obs);
            Prediction {
                log_probs: g.value(log_probs).data().to_vec(),
                value: g.value(value)[(0, 0)],
            }
        }

        /// The tape train step [`MapZeroNet::train_batch`] replaced,
        /// kept as its oracle: each sample's loss graph built on the
        /// autodiff tape and differentiated by `Graph::backward`.
        fn train_batch_reference(
            &mut self,
            batch: &[TrainSample],
            lr: f32,
            clip: f32,
        ) -> LossBreakdown {
            self.params.zero_grads();
            let mut value_loss_total = 0.0f32;
            let mut policy_loss_total = 0.0f32;
            let scale = 1.0 / batch.len() as f32;
            for sample in batch {
                let mut g = Graph::new();
                let (log_probs, value) = self.forward(&mut g, &sample.observation);
                let target = g.input(Matrix::scalar(sample.value));
                let diff = g.sub(value, target);
                let vloss = g.mul(diff, diff);
                let mut pi = sample.policy.clone();
                for (i, &legal) in sample.observation.mask.iter().enumerate() {
                    if !legal {
                        pi[i] = 0.0;
                    }
                }
                let pi_row = g.input(Matrix::row(&pi));
                let weighted = g.mul(pi_row, log_probs);
                let psum = g.sum_all(weighted);
                let ploss = g.scale(psum, -1.0);
                let combined = g.add(vloss, ploss);
                let loss = g.scale(combined, scale);
                g.backward(loss, &mut self.params);
                value_loss_total += g.value(vloss)[(0, 0)];
                policy_loss_total += g.value(ploss)[(0, 0)];
            }
            let grad_norm = clip_gradients(&mut self.params, clip);
            self.optimizer.step(&mut self.params, lr);
            self.params.zero_grads();
            let value_loss = value_loss_total * scale;
            let policy_loss = policy_loss_total * scale;
            LossBreakdown { value_loss, policy_loss, total: value_loss + policy_loss, grad_norm }
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    fn loss_bits(l: &LossBreakdown) -> [u32; 4] {
        [l.value_loss, l.policy_loss, l.total, l.grad_norm].map(f32::to_bits)
    }

    /// Training samples of mixed shapes: states of three DFGs on HReA,
    /// including single-legal-action states and policies that put mass
    /// on illegal actions (which the loss must ignore).
    fn mixed_samples() -> Vec<TrainSample> {
        let hrea = presets::hrea();
        let mut out = Vec::new();
        for (k, kernel) in ["sum", "mac", "conv3"].into_iter().enumerate() {
            for (i, observation) in episode_obs(kernel, &hrea, 4).into_iter().enumerate() {
                let j = k * 4 + i;
                let mut observation = observation;
                let policy: Vec<f32> = if j % 3 == 0 {
                    // Uniform over all PEs, legal or not.
                    vec![1.0 / 16.0; 16]
                } else {
                    let legal: Vec<usize> =
                        (0..16).filter(|&pe| observation.mask[pe]).collect();
                    let mut p = vec![0.0; 16];
                    p[legal[j % legal.len()]] = 0.7;
                    p[legal[(j + 1) % legal.len()]] += 0.3;
                    p
                };
                if j % 4 == 1 {
                    // Exactly one legal action.
                    let keep = observation.mask.iter().position(|&m| m).unwrap();
                    for (pe, m) in observation.mask.iter_mut().enumerate() {
                        *m = pe == keep;
                    }
                }
                let value = [0.8, -0.6, 0.0, -1.0, 0.35][j % 5];
                out.push(TrainSample { observation, policy, value });
            }
        }
        out
    }

    /// The tape-free train step must leave the parameters, the Adam
    /// state and the reported losses bit-identical to the tape step,
    /// after every one of several consecutive updates. Run under
    /// `MAPZERO_SIMD=scalar` too (see `scripts/ci.sh`).
    #[test]
    fn train_batch_matches_tape_reference_bitwise() {
        let samples = mixed_samples();
        assert!(samples.len() >= 10, "too few samples: {}", samples.len());
        assert!(samples.iter().any(|s| s.observation.mask.iter().filter(|&&m| m).count() == 1));
        let config = NetConfig { seed: 3, ..NetConfig::tiny() };
        let mut fast = MapZeroNet::new(16, config);
        let mut tape = MapZeroNet::new(16, config);
        for step in 0..6 {
            let size = 1 + (step * 5) % 9;
            let batch: Vec<TrainSample> =
                (0..size).map(|i| samples[(step * 7 + i) % samples.len()].clone()).collect();
            let got = fast.train_batch(&batch, 0.01, 0.5);
            let want = tape.train_batch_reference(&batch, 0.01, 0.5);
            let at = format!("step {step}");
            assert_eq!(loss_bits(&got), loss_bits(&want), "{at}: losses {got:?} vs {want:?}");
            for id in fast.params.ids() {
                assert_eq!(bits(fast.params.value(id)), bits(tape.params.value(id)), "{at}: {id:?}");
            }
            let (a, b) = (fast.optimizer_state(), tape.optimizer_state());
            assert_eq!(a.t, b.t, "{at}: Adam step");
            for (ma, mb) in a.m.iter().zip(&b.m).chain(a.v.iter().zip(&b.v)) {
                assert_eq!(bits(ma), bits(mb), "{at}: Adam moments");
            }
        }
    }

    #[test]
    #[should_panic(expected = "policy/mask length mismatch")]
    fn short_policy_panics_up_front() {
        let mut net = MapZeroNet::new(16, NetConfig::tiny());
        let sample = TrainSample { observation: sample_obs(), policy: vec![1.0; 15], value: 0.0 };
        let _ = net.train_batch(&[sample], 0.01, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one action must be legal")]
    fn sample_without_legal_action_panics() {
        let mut net = MapZeroNet::new(16, NetConfig::tiny());
        let mut observation = sample_obs();
        observation.mask.fill(false);
        let _ = net.train_batch(&[TrainSample { observation, policy: vec![0.0; 16], value: 0.0 }], 0.01, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut net = MapZeroNet::new(16, NetConfig::tiny());
        let mut observation = sample_obs();
        observation.cgra_edges.push((0, 16));
        let _ = net.train_batch(&[TrainSample { observation, policy: vec![0.0; 16], value: 0.0 }], 0.01, 1.0);
    }

    #[test]
    fn probs_into_matches_probs() {
        let net = MapZeroNet::new(16, NetConfig::tiny());
        let pred = net.predict(&sample_obs());
        let mut buf = vec![999.0; 3]; // stale contents must be cleared
        pred.probs_into(&mut buf);
        assert_eq!(buf, pred.probs());
    }

    fn dfg_strategy() -> impl Strategy<Value = mapzero_dfg::Dfg> {
        (2usize..14, 0usize..8, 0usize..2, any::<u64>()).prop_map(
            |(nodes, extra, cycles, seed)| {
                random_dfg(
                    "prop",
                    &RandomDfgConfig {
                        nodes,
                        edges: nodes - 1 + extra,
                        self_cycles: cycles,
                        max_fanin: 3,
                        seed,
                    },
                )
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Tape-free predict, and `predict_batch` at K=1, equal the
        /// tape forward bit for bit at random points of random episodes,
        /// on the first call and on a repeat (which reuses the
        /// per-thread message indices). Run under `MAPZERO_SIMD=scalar`
        /// too (see `scripts/ci.sh`).
        #[test]
        fn fast_predict_is_bit_identical_to_reference(
            dfg in dfg_strategy(),
            choices in proptest::collection::vec(0usize..64, 8..9),
        ) {
            let cgra = presets::simple_mesh(3, 3);
            let Ok(mii) = Problem::mii(&dfg, &cgra) else { return Ok(()) };
            let Ok(problem) = Problem::new(&dfg, &cgra, mii) else { return Ok(()) };
            let mut env = MapEnv::new(&problem);
            let net = MapZeroNet::new(cgra.pe_count(), NetConfig::tiny());
            for (i, &pick) in choices.iter().enumerate() {
                let legal = env.legal_actions();
                if env.done() || legal.is_empty() {
                    break;
                }
                let obs = observe(&env);
                let reference = net.predict_reference(&obs);
                prop_assert_eq!(&net.predict(&obs), &reference, "step {}: first call", i);
                prop_assert_eq!(&net.predict(&obs), &reference, "step {}: index reused", i);
                prop_assert_eq!(&net.predict_batch(&[&obs])[0], &reference, "step {}: K=1", i);
                env.step(legal[pick % legal.len()]);
            }
        }
    }
}
