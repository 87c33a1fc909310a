//! Allocation-count guard for the batched training hot loop.
//!
//! The whole point of `MlpWorkspace` is that the steady-state fine-tune
//! inner loop performs **zero heap allocations**: buffers are sized once,
//! then every forward/backward/optimizer step reuses them in place. This
//! test pins that property with a counting global allocator — a regression
//! that reintroduces a per-step `Vec` (the old `DenseCache` clone, the
//! `params_flat` round-trip, …) fails the build instead of silently
//! re-inflating the allocator pressure the ISSUE removed.
//!
//! The counter is thread-local and armed only around the measured loop, so
//! the test harness's own threads never pollute the count. This file is a
//! separate integration-test binary because `#[global_allocator]` is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn record() {
        // `try_with` keeps allocator re-entrancy during thread setup or
        // teardown from panicking.
        let _ = ARMED.try_with(|armed| {
            if armed.get() {
                let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            }
        });
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with the counter armed and returns how many heap allocations
/// happened on this thread.
fn count_allocs(f: impl FnOnce()) -> usize {
    ALLOCS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(|c| c.get())
}

use rand::rngs::StdRng;
use rand::SeedableRng;
use sad_nn::{Activation, Mlp};
use sad_tensor::Adam;

#[test]
fn steady_state_training_loop_does_not_allocate() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut net = Mlp::new(
        &[16, 8, 16],
        &[Activation::Sigmoid, Activation::Identity],
        &mut rng,
    );
    let mut ws = net.workspace(4);
    let mut opt = Adam::new(1e-3);
    let xs: Vec<Vec<f64>> = (0..8)
        .map(|k| (0..16).map(|i| ((k * 17 + i) as f64 * 0.37).sin()).collect())
        .collect();

    // Warm-up: the first step lazily sizes the Adam moment buffers.
    for chunk in xs.chunks(4) {
        ws.set_batch(chunk.len());
        for (b, x) in chunk.iter().enumerate() {
            ws.input_row_mut(b).copy_from_slice(x);
        }
        net.train_batch_mse_identity(&mut ws, &mut opt);
    }

    // Steady state: 25 epochs over the same data, alternating batch sizes
    // (the models shrink to ragged tail chunks), must be allocation-free.
    let n = count_allocs(|| {
        for _ in 0..25 {
            for chunk in xs.chunks(3) {
                ws.set_batch(chunk.len());
                for (b, x) in chunk.iter().enumerate() {
                    ws.input_row_mut(b).copy_from_slice(x);
                }
                net.train_batch_mse_identity(&mut ws, &mut opt);
            }
        }
    });
    assert_eq!(n, 0, "steady-state batched training must not allocate, saw {n} allocations");
}

#[test]
fn per_sample_compat_path_still_allocates_which_is_why_models_moved_off_it() {
    // Sanity check that the counter actually counts: the legacy per-sample
    // path heap-allocates its caches every step.
    let mut rng = StdRng::seed_from_u64(1);
    let mut net =
        Mlp::new(&[8, 4, 8], &[Activation::Sigmoid, Activation::Identity], &mut rng);
    let mut opt = Adam::new(1e-3);
    let x: Vec<f64> = (0..8).map(|i| (i as f64 * 0.2).cos()).collect();
    net.train_step_mse(&x, &x, &mut opt); // size the moments
    let n = count_allocs(|| {
        net.train_step_mse(&x, &x, &mut opt);
    });
    assert!(n > 0, "the counting allocator must observe the legacy path's allocations");
}
