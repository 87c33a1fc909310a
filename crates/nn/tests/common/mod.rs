//! A recording optimizer: the way the streamed training step's gradient
//! is read back for comparison with the per-sample reference.

use sad_nn::{Mlp, MlpWorkspace};
use sad_tensor::Optimizer;

/// Records the gradient slice of every `step_segment` call, with its
/// offset, and leaves the parameters alone.
#[derive(Debug, Default)]
pub struct Recorder {
    /// The gradient of the last step, in parameter order (NaN where no
    /// segment wrote).
    pub grads: Vec<f64>,
    /// `(offset, len)` of each segment of the last step, in call order.
    pub segments: Vec<(usize, usize)>,
}

impl Optimizer for Recorder {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        self.begin_step(params.len());
        self.step_segment(0, params, grads);
    }

    fn begin_step(&mut self, total_len: usize) {
        self.grads = vec![f64::NAN; total_len];
        self.segments.clear();
    }

    fn step_segment(&mut self, offset: usize, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        self.grads[offset..offset + grads.len()].copy_from_slice(grads);
        self.segments.push((offset, grads.len()));
    }
}

/// The gradient [`Mlp::step_terms`] forms from `terms`, read through a
/// [`Recorder`] (the parameters do not move).
pub fn streamed_grads(net: &mut Mlp, terms: &[&MlpWorkspace]) -> Vec<f64> {
    let mut rec = Recorder::default();
    rec.begin_step(net.num_params());
    assert_eq!(net.step_terms(terms, &mut rec, 0), net.num_params());
    rec.grads
}

/// `sum` as the streamed step scales it: times `1/batch` when `batch > 1`.
pub fn minibatch_mean(sum: &[f64], batch: usize) -> Vec<f64> {
    if batch > 1 {
        sum.iter().map(|g| g * (1.0 / batch as f64)).collect()
    } else {
        sum.to_vec()
    }
}
