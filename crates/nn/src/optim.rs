//! The Adam optimizer, gradient clipping and learning-rate schedules.

use crate::{Matrix, Params};

/// Adam optimizer.
#[derive(Debug, Clone)]
pub struct Adam {
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

/// The serializable part of an [`Adam`] optimizer: step count and
/// moment estimates. Checkpoint/resume must carry this alongside the
/// parameters — resuming with fresh moments would take different update
/// directions than the uninterrupted run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdamState {
    /// Update steps taken (drives bias correction).
    pub t: u64,
    /// First-moment estimates, one per parameter.
    pub m: Vec<Matrix>,
    /// Second-moment estimates, one per parameter.
    pub v: Vec<Matrix>,
}

impl Adam {
    /// Create with standard coefficients (β₁ = 0.9, β₂ = 0.999).
    #[must_use]
    pub fn new() -> Self {
        Adam { beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Snapshot the optimizer state for checkpointing.
    #[must_use]
    pub fn export_state(&self) -> AdamState {
        AdamState { t: self.t, m: self.m.clone(), v: self.v.clone() }
    }

    /// Restore a previously exported state (coefficients are
    /// construction-time constants and are kept).
    ///
    /// # Panics
    /// Panics if the two moment vectors disagree in length.
    pub fn import_state(&mut self, state: AdamState) {
        assert_eq!(state.m.len(), state.v.len(), "moment vectors must pair up");
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
    }

    /// Apply one update step with the given learning rate, consuming
    /// the accumulated gradients in `params` (gradients are *not*
    /// zeroed; call [`Params::zero_grads`] afterwards).
    pub fn step(&mut self, params: &mut Params, lr: f32) {
        let ids: Vec<_> = params.ids().collect();
        if self.m.len() != ids.len() {
            self.m = ids
                .iter()
                .map(|&id| {
                    let g = params.grad(id);
                    Matrix::zeros(g.rows(), g.cols())
                })
                .collect();
            self.v = self.m.clone();
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, id) in ids.into_iter().enumerate() {
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((mi, vi), &gi) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(params.grad(id).data())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            }
            let value = params.value_mut(id);
            for ((val, &mi), &vi) in
                value.data_mut().iter_mut().zip(m.data()).zip(v.data())
            {
                let mhat = mi / bc1;
                let vhat = vi / bc2;
                *val -= lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

impl Default for Adam {
    fn default() -> Self {
        Adam::new()
    }
}

/// Clip the *global* gradient norm to `max_norm` (the paper clips
/// gradients "to avoid gradient explosion", Alg. 1 line 21).
///
/// Returns the pre-clip norm.
pub fn clip_gradients(params: &mut Params, max_norm: f32) -> f32 {
    let norm = params.grad_norm();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for id in params.ids().collect::<Vec<_>>() {
            params.grad_mut(id).scale_assign(scale);
        }
    }
    norm
}

/// Step-decay learning-rate schedule (Fig. 12(f) shows a decaying LR).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrSchedule {
    /// Initial learning rate.
    pub initial: f32,
    /// Multiplicative decay factor applied every `step_every` epochs.
    pub decay: f32,
    /// Number of epochs between decays.
    pub step_every: u32,
    /// Lower bound on the learning rate.
    pub floor: f32,
}

impl LrSchedule {
    /// Constant learning rate.
    #[must_use]
    pub fn constant(lr: f32) -> Self {
        LrSchedule { initial: lr, decay: 1.0, step_every: 1, floor: lr }
    }

    /// Learning rate at `epoch` (0-based).
    #[must_use]
    pub fn at(&self, epoch: u32) -> f32 {
        let steps = epoch / self.step_every.max(1);
        (self.initial * self.decay.powi(steps as i32)).max(self.floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, ParamId};

    fn quadratic_setup() -> (Params, ParamId) {
        let mut params = Params::new();
        let id = params.register(Matrix::filled(1, 2, 4.0));
        (params, id)
    }

    /// One gradient step for loss = sum(x^2).
    fn accumulate_quadratic_grad(params: &mut Params, id: ParamId) -> f32 {
        let mut g = Graph::new();
        let x = g.param(params, id);
        let sq = g.mul(x, x);
        let loss = g.sum_all(sq);
        let out = g.value(loss)[(0, 0)];
        g.backward(loss, params);
        out
    }

    #[test]
    fn adam_converges() {
        let (mut params, id) = quadratic_setup();
        let mut opt = Adam::new();
        for _ in 0..500 {
            let _ = accumulate_quadratic_grad(&mut params, id);
            opt.step(&mut params, 0.05);
            params.zero_grads();
        }
        assert!(params.value(id).norm() < 0.1);
    }

    #[test]
    fn clip_scales_down_large_gradients() {
        let (mut params, id) = quadratic_setup();
        let _ = accumulate_quadratic_grad(&mut params, id);
        let before = clip_gradients(&mut params, 1.0);
        assert!(before > 1.0);
        assert!((params.grad_norm() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn clip_leaves_small_gradients() {
        let (mut params, id) = quadratic_setup();
        let _ = accumulate_quadratic_grad(&mut params, id);
        let norm = params.grad_norm();
        let reported = clip_gradients(&mut params, norm + 1.0);
        assert!((reported - norm).abs() < 1e-5);
        assert!((params.grad_norm() - norm).abs() < 1e-5);
    }

    #[test]
    fn schedule_decays_with_floor() {
        let s = LrSchedule { initial: 0.1, decay: 0.5, step_every: 10, floor: 0.02 };
        assert!((s.at(0) - 0.1).abs() < 1e-7);
        assert!((s.at(10) - 0.05).abs() < 1e-7);
        assert!((s.at(20) - 0.025).abs() < 1e-7);
        assert!((s.at(80) - 0.02).abs() < 1e-7); // floored
    }

    #[test]
    fn constant_schedule_is_flat() {
        let s = LrSchedule::constant(0.01);
        assert_eq!(s.at(0), s.at(1000));
    }
}
