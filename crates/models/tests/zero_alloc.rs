//! Allocation-count guard for the neural models' fine-tune loops.
//!
//! The nn-level guard (`sad-nn/tests/zero_alloc.rs`) pins the substrate;
//! this one pins the full model layer: after warm-up, `fine_tune` on the
//! 2-layer AE, USAD and N-BEATS must not touch the heap — the scaler
//! writes into workspace rows (`transform_into`), the adversarial /
//! residual chains run entirely through preallocated workspaces, and the
//! optimizers step parameters in place. The same holds for the f32
//! serving snapshot's re-sync after a fine-tune (the fleet's
//! training-event hook): it converts every weight and scaler statistic in
//! place.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn record() {
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

fn count_allocs(f: impl FnOnce()) -> usize {
    ALLOCS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(|c| c.get())
}

use sad_core::{FeatureVector, StreamModel};
use sad_models::{infer_view, InferSnapshot, KnnDistanceModel, NBeats, TwoLayerAe, Usad};

fn sine_windows(count: usize, w: usize) -> Vec<FeatureVector> {
    (0..count)
        .map(|s| {
            let data: Vec<f64> = (0..w)
                .flat_map(|i| {
                    let t = (s + i) as f64 * 0.3;
                    vec![t.sin(), (t * 0.5).cos() * 2.0]
                })
                .collect();
            FeatureVector::new(data, w, 2)
        })
        .collect()
}

fn assert_fine_tune_is_allocation_free(mut model: Box<dyn StreamModel>, batch_label: &str) {
    let train = sine_windows(24, 8);
    // Warm-up sizes nets, scalers, workspaces and optimizer moments.
    model.fit_initial(&train, 2);
    let n = count_allocs(|| {
        for _ in 0..5 {
            model.fine_tune(&train);
        }
    });
    assert_eq!(
        n, 0,
        "{}: steady-state fine_tune must not allocate, saw {n} allocations",
        batch_label
    );
}

#[test]
fn ae_fine_tune_is_allocation_free() {
    assert_fine_tune_is_allocation_free(Box::new(TwoLayerAe::for_dim(16, 7)), "AE b=1");
    assert_fine_tune_is_allocation_free(
        Box::new(TwoLayerAe::for_dim(16, 7).with_batch_size(8)),
        "AE b=8",
    );
}

#[test]
fn usad_fine_tune_is_allocation_free() {
    assert_fine_tune_is_allocation_free(Box::new(Usad::for_dim(16, 7)), "USAD b=1");
    assert_fine_tune_is_allocation_free(
        Box::new(Usad::for_dim(16, 7).with_batch_size(8)),
        "USAD b=8",
    );
}

/// The kNN predict path must not allocate in steady state: the packed
/// snapshot is rebuilt only on training events and the squared-distance
/// scratch is sized on the first query, so subsequent queries run the
/// sweep + quickselect entirely in place.
#[test]
fn knn_predict_is_allocation_free_after_first_query() {
    let train = sine_windows(40, 8);
    let mut model = KnnDistanceModel::new(3);
    model.fit_initial(&train, 1); // also sizes the distance scratch
    let probes = sine_windows(10, 8);
    let n = count_allocs(|| {
        for x in &probes {
            let _ = model.predict(x);
        }
    });
    assert_eq!(n, 0, "steady-state kNN predict must not allocate, saw {n} allocations");
}

#[test]
fn nbeats_fine_tune_is_allocation_free() {
    assert_fine_tune_is_allocation_free(Box::new(NBeats::for_dims(8, 2, 7)), "N-BEATS b=1");
    assert_fine_tune_is_allocation_free(
        Box::new(NBeats::for_dims(8, 2, 7).with_batch_size(8)),
        "N-BEATS b=8",
    );
}

fn assert_snapshot_resync_is_allocation_free(mut model: Box<dyn StreamModel>, label: &str) {
    let train = sine_windows(24, 8);
    model.fit_initial(&train, 2);
    let mut snapshot = InferSnapshot::<f32>::new(infer_view(&*model).expect("fitted NN model"));
    model.fine_tune(&train);
    let n = count_allocs(|| snapshot.resync(infer_view(&*model).expect("fitted NN model")));
    assert_eq!(n, 0, "{label}: f32 snapshot re-sync must not allocate, saw {n} allocations");
}

#[test]
fn f32_snapshot_resync_after_fine_tune_is_allocation_free() {
    assert_snapshot_resync_is_allocation_free(Box::new(TwoLayerAe::for_dim(16, 7)), "AE");
    assert_snapshot_resync_is_allocation_free(Box::new(Usad::for_dim(16, 7)), "USAD");
    assert_snapshot_resync_is_allocation_free(Box::new(NBeats::for_dims(8, 2, 7)), "N-BEATS");
}
