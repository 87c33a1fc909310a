//! Allocation-count guard for the steady-state detector step.
//!
//! The shared-prefix tree makes the detector hot loop the dominant cost of
//! the Table III grid, so it must stay off the heap: `RawWindow::push_into`
//! overwrites the detector's scratch feature vector in place, the Task-1
//! strategies recycle evicted training windows through a spare buffer, the
//! μ/σ drift detector keeps its running statistics in preallocated rows,
//! and the scorers run over fixed-capacity rings. This guard pins all of
//! that: after warm-up, `Detector::step` on a drift-free stream must not
//! allocate at all.
//!
//! The model under the detector emits a direct [`ModelOutput::Score`] so
//! the guard isolates the framework machinery — the model layers have
//! their own guards (`sad-nn` / `sad-models` `zero_alloc` tests).

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

use sad_core::{
    AnomalyLikelihood, AnomalyScorer, Detector, DetectorConfig, FeatureVector, ModelOutput,
    MovingAverage, MuSigmaChange, RawScore, SlidingWindowSet, StreamModel,
};

/// Heap-free stand-in model: a direct nonconformity score computed from the
/// feature vector without touching the heap, so every allocation the guard
/// sees belongs to the detector machinery itself.
#[derive(Debug, Clone)]
struct HeapFreeScore;

impl StreamModel for HeapFreeScore {
    fn name(&self) -> &'static str {
        "heap-free score"
    }

    fn predict(&mut self, x: &FeatureVector) -> ModelOutput {
        let s: f64 = x.last_step().iter().map(|v| v.abs()).sum::<f64>()
            / x.last_step().len() as f64;
        ModelOutput::Score((s * 0.5).clamp(0.0, 1.0))
    }

    fn fit_initial(&mut self, _train: &[FeatureVector], _epochs: usize) {}

    fn fine_tune(&mut self, _train: &[FeatureVector]) {}

    fn clone_box(&self) -> Box<dyn StreamModel> {
        Box::new(self.clone())
    }
}

const CHANNELS: usize = 3;

/// Stationary stream, periodic with the detector's window length: every
/// length-8 window holds the same multiset of values per channel, so the
/// training-set statistics are constant and μ/σ-Change never fires — the
/// measured window below is pure steady-state stepping.
fn stream_vector(t: usize) -> [f64; CHANNELS] {
    let phase = std::f64::consts::TAU * (t % 8) as f64 / 8.0;
    [phase.sin(), phase.cos() * 0.5, (2.0 * phase).sin() * 0.25]
}

fn detector_with(scorer: Box<dyn AnomalyScorer>) -> Detector {
    let config = DetectorConfig {
        window: 8,
        channels: CHANNELS,
        warmup: 64,
        initial_epochs: 1,
        fine_tune_epochs: 1,
    };
    Detector::new(
        config,
        Box::new(HeapFreeScore),
        Box::new(SlidingWindowSet::new(16)),
        Box::new(MuSigmaChange::new()),
        scorer,
    )
}

/// Warm up and then step well past every ring's fill point, so the armed
/// window below measures nothing but the steady state.
fn settle(det: &mut Detector, until: &mut usize) {
    for _ in 0..128 {
        det.step(&stream_vector(*until));
        *until += 1;
    }
    assert!(det.drift_times().is_empty(), "stream must be drift-free for this guard");
}

fn assert_step_is_allocation_free(scorer: Box<dyn AnomalyScorer>, label: &str) {
    let mut det = detector_with(scorer);
    let mut t = 0usize;
    settle(&mut det, &mut t);
    let n = count_allocs(|| {
        for _ in 0..256 {
            let out = det.step(&stream_vector(t)).expect("past warm-up");
            assert!(!out.drift, "stream must stay drift-free");
            t += 1;
        }
    });
    assert_eq!(n, 0, "{label}: steady-state Detector::step must not allocate, saw {n}");
}

#[test]
fn steady_state_step_is_allocation_free_raw() {
    assert_step_is_allocation_free(Box::new(RawScore), "SW + μ/σ + Raw");
}

#[test]
fn steady_state_step_is_allocation_free_moving_average() {
    assert_step_is_allocation_free(Box::new(MovingAverage::new(8)), "SW + μ/σ + Avg");
}

#[test]
fn steady_state_step_is_allocation_free_anomaly_likelihood() {
    assert_step_is_allocation_free(Box::new(AnomalyLikelihood::new(12, 3)), "SW + μ/σ + AL");
}
