//! First-order optimizers over flat parameter slices.
//!
//! Every optimizer-trained model in the workspace (the autoencoder, USAD,
//! N-BEATS) exposes its parameters as one flat `[f64]` buffer; the
//! optimizer consumes an equally shaped gradient buffer. This
//! mirrors the paper's `grads := Σ Opt(∂L/∂θ)` formulation (§IV-B) where the
//! optimizer is an interchangeable component of the fine-tuning step.

/// A stateful first-order optimizer.
///
/// `step` applies one update `θ ← θ - f(grad)` in place. Implementations may
/// keep per-parameter state (momentum, Adam moments); the state vector is
/// lazily sized on first use so one optimizer instance can only ever serve
/// one parameter buffer.
pub trait Optimizer {
    /// Applies one in-place update to `params` given `grads`.
    ///
    /// # Panics
    /// Panics if `params.len() != grads.len()`, or if the same optimizer is
    /// reused on a buffer of a different length.
    fn step(&mut self, params: &mut [f64], grads: &[f64]);

    /// Begins one *segmented* step over a logical parameter buffer of
    /// `total_len` scalars that is physically split across several slices
    /// (e.g. the weight matrix and bias vector of every layer of an MLP).
    ///
    /// Advances step counters once and (lazily, on first use) sizes any
    /// per-parameter state to `total_len`. Follow with one
    /// [`Optimizer::step_segment`] call per slice; together the segments
    /// must tile `0..total_len` for the per-parameter state to stay aligned.
    ///
    /// A full segmented step over slices that tile the buffer in order is
    /// **bitwise identical** to flattening the parameters and calling
    /// [`Optimizer::step`] once — this is what lets the NN training path
    /// update layer parameters in place with zero allocations instead of
    /// round-tripping through `params_flat()`/`set_params_flat()`.
    ///
    /// # Panics
    /// Panics if the optimizer was previously used on a buffer of a
    /// different total length.
    fn begin_step(&mut self, total_len: usize);

    /// Updates one parameter slice living at `offset` within the logical
    /// buffer declared by the preceding [`Optimizer::begin_step`].
    ///
    /// # Panics
    /// Panics if `params.len() != grads.len()` or the segment exceeds the
    /// declared buffer.
    fn step_segment(&mut self, offset: usize, params: &mut [f64], grads: &[f64]);
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f64,
    /// Momentum factor in `[0, 1)`; `0.0` disables momentum.
    pub momentum: f64,
    velocity: Vec<f64>,
}

impl Sgd {
    /// Creates plain SGD with the given learning rate.
    pub fn new(lr: f64) -> Self {
        Self { lr, momentum: 0.0, velocity: Vec::new() }
    }

    /// Creates SGD with momentum.
    pub fn with_momentum(lr: f64, momentum: f64) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Self { lr, momentum, velocity: Vec::new() }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        self.begin_step(params.len());
        self.step_segment(0, params, grads);
    }

    fn begin_step(&mut self, total_len: usize) {
        if self.momentum == 0.0 {
            return;
        }
        if self.velocity.is_empty() {
            self.velocity = vec![0.0; total_len];
        }
        assert_eq!(self.velocity.len(), total_len, "optimizer reused on different buffer");
    }

    fn step_segment(&mut self, offset: usize, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        if self.momentum == 0.0 {
            for (p, g) in params.iter_mut().zip(grads) {
                *p -= self.lr * g;
            }
            return;
        }
        let velocity = &mut self.velocity[offset..offset + params.len()];
        for ((p, g), v) in params.iter_mut().zip(grads).zip(velocity) {
            *v = self.momentum * *v + g;
            *p -= self.lr * *v;
        }
    }
}

/// The Adam optimizer (Kingma & Ba, 2015) with bias-corrected moments.
///
/// Per parameter the update is, in this order and with no contraction,
///
/// ```text
/// m ← β₁·m + (1−β₁)·g        v ← β₂·v + ((1−β₂)·g)·g
/// p ← p − (α·(m/bc₁)) / (√(v/bc₂) + ε)      bcᵢ = 1 − βᵢ^t
/// ```
///
/// **Dispatch.** With the `simd` feature on an x86-64 CPU that reports
/// AVX2 and FMA at runtime, [`Optimizer::step_segment`] runs the 4-lane
/// head of each segment through an AVX2+FMA kernel that replaces the two
/// bias-correction divisions by a multiply with `RN(1/bcᵢ)` (computed once
/// per step in [`Optimizer::begin_step`]) plus two exact-remainder FMA
/// corrections — one division and one square root per parameter instead
/// of three and one. The correction returns the correctly rounded quotient
/// (the proof is on the kernel, `microkernel::adam_step_f64_avx2_fma`), so
/// every bit equals [`Adam::step_segment_pinned`], the portable loop that
/// runs everywhere else and on the `n % 4` tail.
///
/// **Guard.** The proof needs its premises, and they are checked rather
/// than assumed: a lane whose `m` or `v` lies outside [2⁻⁸⁰⁰, 2⁸⁰⁰] in
/// magnitude (±0, subnormals, ±∞ and NaN included) takes the true
/// division, and a step whose `bc₁` or `bc₂` lies outside [2⁻³², 2³²]
/// runs the pinned loop whole.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate (α).
    pub lr: f64,
    /// Exponential decay for the first moment.
    pub beta1: f64,
    /// Exponential decay for the second moment.
    pub beta2: f64,
    /// Numerical-stability constant.
    pub eps: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
    /// Bias corrections `1 − βᵢ^t` of the step opened by `begin_step`.
    bc: (f64, f64),
    /// `(RN(1/bc₁), RN(1/bc₂))` when both bias corrections lie in
    /// [`BC_MIN`, `BC_MAX`]; `None` sends the whole step to the pinned loop.
    inv_bc: Option<(f64, f64)>,
}

/// Smallest bias correction the reciprocal kernel accepts (2⁻³²).
const BC_MIN: f64 = 1.0 / 4_294_967_296.0;
/// Largest bias correction the reciprocal kernel accepts (2³²).
const BC_MAX: f64 = 4_294_967_296.0;

impl Adam {
    /// Creates Adam with the canonical β₁=0.9, β₂=0.999, ε=1e-8.
    pub fn new(lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
            bc: (1.0, 1.0),
            inv_bc: None,
        }
    }

    /// The portable pinned loop behind [`Optimizer::step_segment`]: three
    /// divisions and one square root per parameter, in the order the type
    /// docs give. It is what every build without the AVX2+FMA kernel runs,
    /// and public as the reference that kernel is benchmarked against
    /// (`optim/adam_step` in `sad-bench`).
    ///
    /// # Panics
    /// Panics if `params.len() != grads.len()` or the segment exceeds the
    /// buffer declared by [`Optimizer::begin_step`].
    pub fn step_segment_pinned(&mut self, offset: usize, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        let (bc1, bc2) = self.bc;
        let m = &mut self.m[offset..offset + params.len()];
        let v = &mut self.v[offset..offset + params.len()];
        for i in 0..params.len() {
            let g = grads[i];
            m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g;
            v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = m[i] / bc1;
            let v_hat = v[i] / bc2;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        self.begin_step(params.len());
        self.step_segment(0, params, grads);
    }

    fn begin_step(&mut self, total_len: usize) {
        if self.m.is_empty() {
            self.m = vec![0.0; total_len];
            self.v = vec![0.0; total_len];
        }
        assert_eq!(self.m.len(), total_len, "optimizer reused on different buffer");
        self.t += 1;
        // `powi` takes an i32: saturate rather than wrap, so a stream past
        // 2³¹ steps keeps the limit bias corrections (both 1.0 by then)
        // instead of −∞ (t = 2³¹) or 0 (t = 2³²).
        let t = i32::try_from(self.t).unwrap_or(i32::MAX);
        let bc = (1.0 - self.beta1.powi(t), 1.0 - self.beta2.powi(t));
        let in_range = |b: f64| (BC_MIN..=BC_MAX).contains(&b);
        self.bc = bc;
        self.inv_bc = (in_range(bc.0) && in_range(bc.1)).then(|| (1.0 / bc.0, 1.0 / bc.1));
    }

    fn step_segment(&mut self, offset: usize, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if let Some(inv_bc) = self.inv_bc {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                let coeffs = crate::microkernel::AdamCoeffs {
                    lr: self.lr,
                    beta1: self.beta1,
                    beta2: self.beta2,
                    eps: self.eps,
                    bc: self.bc,
                    inv_bc,
                };
                let m = &mut self.m[offset..offset + params.len()];
                let v = &mut self.v[offset..offset + params.len()];
                // SAFETY: AVX2 and FMA support were just verified at runtime;
                // all four slices have `params.len()` elements.
                let head = unsafe {
                    crate::microkernel::adam_step_f64_avx2_fma(&coeffs, params, grads, m, v)
                };
                let (params, grads) = (&mut params[head..], &grads[head..]);
                self.step_segment_pinned(offset + head, params, grads);
                return;
            }
        }
        self.step_segment_pinned(offset, params, grads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = (x - 3)^2 and returns the final x.
    fn minimize(opt: &mut dyn Optimizer, steps: usize) -> f64 {
        let mut x = [0.0_f64];
        for _ in 0..steps {
            let g = [2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        x[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        assert!((minimize(&mut opt, 200) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn sgd_momentum_converges_on_quadratic() {
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        assert!((minimize(&mut opt, 400) - 3.0).abs() < 1e-4);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        assert!((minimize(&mut opt, 500) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn sgd_single_step_is_lr_times_grad() {
        let mut opt = Sgd::new(0.5);
        let mut p = [1.0, 2.0];
        opt.step(&mut p, &[2.0, -2.0]);
        assert_eq!(p, [0.0, 3.0]);
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        // With bias correction, the very first Adam step is ≈ lr * sign(g).
        let mut opt = Adam::new(0.01);
        let mut p = [0.0];
        opt.step(&mut p, &[123.0]);
        assert!((p[0] + 0.01).abs() < 1e-6, "got {}", p[0]);
    }

    #[test]
    #[should_panic(expected = "param/grad length mismatch")]
    fn mismatched_grads_panic() {
        let mut opt = Sgd::new(0.1);
        let mut p = [0.0];
        opt.step(&mut p, &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "optimizer reused on different buffer")]
    fn buffer_reuse_is_detected() {
        let mut opt = Adam::new(0.1);
        let mut p = [0.0];
        opt.step(&mut p, &[1.0]);
        let mut q = [0.0, 0.0];
        opt.step(&mut q, &[1.0, 1.0]);
    }

    /// Runs `steps` flat updates and `steps` segmented updates (split at
    /// `split`) from identical starting points and asserts the trajectories
    /// are bitwise identical — the contract that lets the NN training path
    /// step layer parameters in place without flattening.
    fn assert_segmented_matches_flat(
        mut flat_opt: impl Optimizer,
        mut seg_opt: impl Optimizer,
        split: usize,
        steps: usize,
    ) {
        let mut flat = [0.7, -1.3, 2.1, 0.4, -0.9];
        let mut seg = flat;
        for k in 0..steps {
            let grads: Vec<f64> =
                flat.iter().enumerate().map(|(i, p)| 2.0 * p + (i + k) as f64 * 0.01).collect();
            flat_opt.step(&mut flat, &grads);
            // Gradients for the segmented twin must come from its own params.
            let seg_grads: Vec<f64> =
                seg.iter().enumerate().map(|(i, p)| 2.0 * p + (i + k) as f64 * 0.01).collect();
            seg_opt.begin_step(seg.len());
            let (pa, pb) = seg.split_at_mut(split);
            let (ga, gb) = seg_grads.split_at(split);
            seg_opt.step_segment(0, pa, ga);
            seg_opt.step_segment(split, pb, gb);
            assert_eq!(
                flat.map(f64::to_bits),
                seg.map(f64::to_bits),
                "diverged at step {k}"
            );
        }
    }

    #[test]
    fn adam_segmented_step_is_bitwise_flat_step() {
        assert_segmented_matches_flat(Adam::new(0.05), Adam::new(0.05), 2, 25);
    }

    #[test]
    fn adam_step_counter_saturates_instead_of_wrapping() {
        // `powi` takes an i32. A wrapping cast made the step at t = 2³¹
        // use powi(i32::MIN) (bias corrections −∞, every update −0) and the
        // step at t = 2³² use powi(0) (bias corrections 0, weights NaN).
        let grads = [0.3, -1.2, 4.0e-3, 2.5, -0.7];
        let step_at = |t: u64| {
            let mut opt = Adam::new(0.01);
            let mut p = [0.5, -0.25, 1.0, 0.0, 2.0];
            opt.step(&mut p, &grads);
            let before = p;
            opt.t = t - 1;
            opt.step(&mut p, &grads);
            assert!(p.iter().all(|x| x.is_finite()), "t = {t}: {p:?}");
            assert!(p.iter().zip(&before).all(|(a, b)| a != b), "t = {t}: no update");
            p.map(f64::to_bits)
        };
        let limit = step_at(i32::MAX as u64);
        assert_eq!(step_at(1 << 31), limit);
        assert_eq!(step_at(u64::from(u32::MAX) + 1), limit);
    }

    #[test]
    fn sgd_momentum_segmented_step_is_bitwise_flat_step() {
        assert_segmented_matches_flat(
            Sgd::with_momentum(0.05, 0.9),
            Sgd::with_momentum(0.05, 0.9),
            3,
            25,
        );
    }

    #[test]
    fn sgd_plain_segmented_step_is_bitwise_flat_step() {
        assert_segmented_matches_flat(Sgd::new(0.1), Sgd::new(0.1), 1, 10);
    }
}
