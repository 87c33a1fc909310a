//! Live-heap guard for the neural models' training state.
//!
//! A fitted NN model must hold nothing the size of its parameters except
//! the parameters themselves and the optimizer moments: the training step
//! forms each gradient from the workspaces' deltas a chunk at a time
//! (`sad_nn::Mlp::step_terms`), so no gradient buffer stays alive between
//! steps. Each case fits one model at a benchmark shape with a counting
//! allocator armed, then checks that the live heap it holds, minus the
//! parameters and the Adam moments, stays below one parameter set. One
//! leftover full-size gradient buffer per network breaks that bound.
//!
//! The counter is thread-local and armed only around construction and
//! fit, so the test harness's other threads never pollute it. This file is
//! a separate integration-test binary because `#[global_allocator]` is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn record(delta: isize) {
        // `try_with` keeps allocator re-entrancy during thread setup or
        // teardown from panicking.
        let _ = ARMED.try_with(|armed| {
            if armed.get() {
                let _ = LIVE.try_with(|c| c.set(c.get() + delta));
            }
        });
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::record(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

use sad_core::{FeatureVector, StreamModel};
use sad_models::{NBeats, TwoLayerAe, Usad};

const F64: usize = std::mem::size_of::<f64>();

/// Parameters of a dense stack with layer widths `dims`.
fn dense_params(dims: &[usize]) -> usize {
    dims.windows(2).map(|p| p[0] * p[1] + p[1]).sum()
}

/// `count` windows of `w` steps over `n` smooth channels.
fn windows(count: usize, w: usize, n: usize) -> Vec<FeatureVector> {
    (0..count)
        .map(|s| {
            let data: Vec<f64> = (0..w * n)
                .map(|i| (((s + i / n) as f64) * 0.3 + (i % n) as f64).sin())
                .collect();
            FeatureVector::new(data, w, n)
        })
        .collect()
}

/// Builds a model with the counter armed, fits it on `train` and returns
/// the live heap it holds, in bytes.
fn fitted_heap(build: impl FnOnce() -> Box<dyn StreamModel>, train: &[FeatureVector]) -> usize {
    LIVE.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let mut model = build();
    model.fit_initial(train, 2);
    ARMED.with(|a| a.set(false));
    let live = LIVE.with(|c| c.get());
    drop(model);
    usize::try_from(live).expect("a model holds a non-negative heap")
}

/// Checks `heap − (params + moments) < params`, all in doubles.
fn assert_no_gradient_buffers(label: &str, heap: usize, params: usize, moments: usize) {
    let rest = heap.saturating_sub((params + moments) * F64);
    eprintln!(
        "{label}: live {:.1} KiB = params {:.1} + moments {:.1} + rest {:.1} KiB",
        heap as f64 / 1024.0,
        (params * F64) as f64 / 1024.0,
        (moments * F64) as f64 / 1024.0,
        rest as f64 / 1024.0,
    );
    assert!(
        rest < params * F64,
        "{label}: {rest} B beyond parameters and Adam moments, at least one parameter set \
         ({} B): a gradient buffer outlives the training step",
        params * F64,
    );
}

/// The `serve_churn` detector's AE: w = 5 over 38 channels, hidden width
/// 190 / 4 = 47, one Adam (two moments per parameter).
#[test]
fn fitted_ae_holds_no_gradient_buffer() {
    let train = windows(16, 5, 38);
    let heap = fitted_heap(|| Box::new(TwoLayerAe::for_dim(190, 7)), &train);
    let params = dense_params(&[190, 47, 190]);
    assert_no_gradient_buffers("AE 5x38", heap, params, 2 * params);
}

/// The grid's USAD: w = 20 over 9 channels (dim 180), latent 16, hidden
/// widths 64 and 32. The encoder has one Adam per phase, each decoder one.
#[test]
fn fitted_usad_holds_no_gradient_buffer() {
    let train = windows(24, 20, 9);
    let heap = fitted_heap(|| Box::new(Usad::for_dim(180, 7)), &train);
    let encoder = dense_params(&[180, 64, 32, 16]);
    let decoder = dense_params(&[16, 32, 64, 180]);
    let params = encoder + 2 * decoder;
    let moments = 2 * (2 * encoder + 2 * decoder);
    assert_no_gradient_buffers("USAD 20x9", heap, params, moments);
}

/// The grid's N-BEATS: w = 20 over 9 channels, two generic blocks over a
/// 19·9 = 171-wide history, hidden 64, θ 8, one Adam per block.
#[test]
fn fitted_nbeats_holds_no_gradient_buffer() {
    let train = windows(24, 20, 9);
    let heap = fitted_heap(|| Box::new(NBeats::for_dims(20, 9, 7)), &train);
    let block =
        dense_params(&[171, 64, 64]) + dense_params(&[64, 8, 171]) + dense_params(&[64, 8, 9]);
    let params = 2 * block;
    assert_no_gradient_buffers("N-BEATS 20x9", heap, params, 2 * params);
}
