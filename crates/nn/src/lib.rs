//! A minimal, dependency-free neural-network library built for the
//! MapZero compiler.
//!
//! The paper implements its model in PyTorch; the Rust ecosystem offers
//! no comparable GNN stack offline, so this crate provides exactly the
//! pieces MapZero's network (Fig. 5) needs:
//!
//! * dense row-major [`Matrix`] values,
//! * layers: [`Linear`], [`Mlp`] and the multi-head [`GatLayer`] of
//!   Eqs. 5–8, each with a tape-free `infer` over an [`InferCtx`]
//!   workspace and a hand-derived `backward` over the same workspace,
//! * a tape-based autograd [`Graph`] with the graph-neural-network
//!   primitives (gather / scatter-add / per-segment softmax) required by
//!   graph attention layers — the reference the tape-free paths are
//!   held to,
//! * optimizers: SGD with momentum and Adam, both with gradient
//!   clipping, plus step-decay learning-rate schedules,
//! * deterministic Xavier initialization and a self-describing binary
//!   weight format.
//!
//! The tape's gradients are verified against finite differences; each
//! layer's `infer` and `backward` must equal the tape's forward and
//! [`Graph::backward`] bit for bit (`tests/message_passing_oracle.rs`,
//! `tests/backward_oracle.rs`).
//!
//! # Example
//!
//! ```
//! use mapzero_nn::{Graph, Linear, Matrix, Params, SeedRng};
//!
//! let mut params = Params::new();
//! let mut rng = SeedRng::new(7);
//! let layer = Linear::new(&mut params, 4, 2, &mut rng);
//! let mut g = Graph::new();
//! let x = g.input(Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
//! let y = layer.forward(&mut g, &params, x);
//! let loss = g.sum_all(y);
//! g.backward(loss, &mut params);
//! assert_eq!(params.grad(layer.weight).rows(), 4);
//! ```

mod graph;
pub mod infer;
mod init;
mod layers;
mod matrix;
mod optim;
mod serialize;
pub mod simd;

pub use graph::{Graph, VarId};
pub use infer::{BufId, InferCtx, MessageIndex};
pub use init::{RngState, SeedRng};
pub use layers::{GatLayer, Linear, Mlp};
pub use matrix::Matrix;
pub use optim::{clip_gradients, Adam, AdamState, LrSchedule, Optimizer, Sgd};
pub use serialize::{decode_params, encode_params, WeightFormatError};

/// The value masked-out logits are pinned to (also used by the
/// inference path's masked log-softmax, which must stay bit-identical
/// to the tape op).
pub(crate) const NEG_INF: f32 = -1.0e9;

/// Monotone global counter behind [`Params::fingerprint`]. Every
/// registration or mutable-value access draws a fresh tick, so two
/// parameter stores only ever share a fingerprint when one is an
/// unmodified clone of the other (in which case their values are
/// equal by construction).
static PARAMS_VERSION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn next_params_version() -> u64 {
    PARAMS_VERSION.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1
}

/// Parameter storage shared across forward passes.
///
/// Parameters live outside the tape; every tape forward copies the
/// current values into graph leaves, and both `Graph::backward` and the
/// layers' tape-free `backward` accumulate gradients back here. Call
/// [`Params::zero_grads`] after each optimizer step.
#[derive(Debug, Clone, Default)]
pub struct Params {
    values: Vec<Matrix>,
    grads: Vec<Matrix>,
    version: u64,
}

/// Handle to one parameter matrix inside [`Params`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl Params {
    /// Empty parameter store.
    #[must_use]
    pub fn new() -> Self {
        Params::default()
    }

    /// Register a parameter with an initial value.
    pub fn register(&mut self, value: Matrix) -> ParamId {
        let id = ParamId(self.values.len());
        self.grads.push(Matrix::zeros(value.rows(), value.cols()));
        self.values.push(value);
        self.version = next_params_version();
        id
    }

    /// Number of registered parameters (matrices, not scalars).
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no parameters are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Current value of a parameter.
    #[must_use]
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable value (used by optimizers and loaders).
    ///
    /// Conservatively advances the fingerprint: every handout of a
    /// mutable value counts as a mutation even if the caller ends up
    /// writing the same bytes back.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        self.version = next_params_version();
        &mut self.values[id.0]
    }

    /// A cheap identity fingerprint of the current parameter values.
    ///
    /// Two equal fingerprints guarantee equal values: the fingerprint
    /// is a globally unique version drawn from a process-wide monotone
    /// counter on every registration or [`Params::value_mut`] call, so
    /// the only way to observe the same fingerprint twice is an
    /// untouched snapshot (`clone`) of the same store. Prediction
    /// caches key on this to detect weight updates and training
    /// rollbacks without hashing the full parameter tensor.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.version
    }

    /// Accumulated gradient of a parameter.
    #[must_use]
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.grads[id.0]
    }

    /// Mutable gradient (used by `Graph::backward` and clipping).
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.grads[id.0]
    }

    /// Iterate over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }

    /// Reset all gradients to zero.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.fill(0.0);
        }
    }

    /// Global L2 norm of all gradients.
    #[must_use]
    pub fn grad_norm(&self) -> f32 {
        self.grads
            .iter()
            .map(|g| g.data().iter().map(|v| f64::from(*v) * f64::from(*v)).sum::<f64>())
            .sum::<f64>()
            .sqrt() as f32
    }
}

#[cfg(test)]
mod fingerprint_tests {
    use super::*;

    #[test]
    fn fingerprint_tracks_value_mutations_not_grads() {
        let mut params = Params::new();
        let id = params.register(Matrix::zeros(2, 2));
        let registered = params.fingerprint();
        assert_ne!(registered, 0, "registration draws a version");

        let snapshot = params.clone();
        assert_eq!(snapshot.fingerprint(), registered, "clones share identity");

        params.grad_mut(id).fill(1.0);
        params.zero_grads();
        assert_eq!(params.fingerprint(), registered, "gradients are not identity");

        params.value_mut(id).fill(3.0);
        assert_ne!(params.fingerprint(), registered, "value writes advance it");
        assert_ne!(params.fingerprint(), snapshot.fingerprint());
    }

    #[test]
    fn distinct_stores_never_share_fingerprints() {
        let mut a = Params::new();
        let mut b = Params::new();
        a.register(Matrix::zeros(1, 1));
        b.register(Matrix::zeros(1, 1));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
