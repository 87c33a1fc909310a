//! Allocation-count guard for the steady-state detector step.
//!
//! The shared-prefix tree makes the detector hot loop the dominant cost of
//! the Table III grid, so it must stay off the heap: `RawWindow::push_into`
//! overwrites the detector's scratch feature vector in place, the Task-1
//! strategies recycle evicted training windows through a spare buffer, the
//! μ/σ drift detector keeps its running statistics in preallocated rows,
//! KSWIN updates its run multisets in place and refreshes its snapshot
//! into the old one's buffers, and the scorers run over fixed-capacity
//! rings. This guard pins all of that: after warm-up, `Detector::step` on
//! a drift-free stream must not allocate at all.
//!
//! The same counting allocator also tracks live bytes, for the KSWIN
//! live-heap bound: a detector holds its channel multisets as runs, so its
//! heap follows the distinct values of its training set, not `m·w`.
//!
//! The model under the detector emits a direct [`ModelOutput::Score`] so
//! the guard isolates the framework machinery — the model layers have
//! their own guards (`sad-nn` / `sad-models` `zero_alloc` tests).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    /// Counts an allocation (`alloc` true) and `bytes` more live heap.
    fn record(alloc: bool, bytes: isize) {
        let _ = ARMED.try_with(|armed| {
            if armed.get() {
                let _ = ALLOCS.try_with(|c| c.set(c.get() + usize::from(alloc)));
                let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
            }
        });
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(true, layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(true, layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(true, new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::record(false, -(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` armed; returns the allocations it made and the live bytes it
/// left behind.
fn measure(f: impl FnOnce()) -> (usize, isize) {
    ALLOCS.with(|c| c.set(0));
    LIVE.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.with(|c| c.get()), LIVE.with(|c| c.get()))
}

fn count_allocs(f: impl FnOnce()) -> usize {
    measure(f).0
}

use sad_core::{
    AnomalyLikelihood, AnomalyScorer, Detector, DetectorConfig, DriftDetector, FeatureVector,
    KswinDetector, ModelOutput, MovingAverage, MuSigmaChange, RawScore, SlidingWindowSet,
    StreamModel, TrainingSetStrategy, UniformReservoir,
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
/// training-set statistics are constant, μ/σ-Change never fires and
/// KSWIN's statistic stays 0 — the measured window below is pure
/// steady-state stepping.
fn stream_vector(t: usize) -> [f64; CHANNELS] {
    let phase = std::f64::consts::TAU * (t % 8) as f64 / 8.0;
    [phase.sin(), phase.cos() * 0.5, (2.0 * phase).sin() * 0.25]
}

fn detector_with(
    task1: Box<dyn TrainingSetStrategy>,
    drift: Box<dyn DriftDetector>,
    scorer: Box<dyn AnomalyScorer>,
) -> Detector {
    let config = DetectorConfig {
        window: 8,
        channels: CHANNELS,
        warmup: 64,
        initial_epochs: 1,
        fine_tune_epochs: 1,
    };
    Detector::new(config, Box::new(HeapFreeScore), task1, drift, scorer)
}

/// The SW + μ/σ detector the scorer cases run.
fn mu_sigma_with(scorer: Box<dyn AnomalyScorer>) -> Detector {
    detector_with(Box::new(SlidingWindowSet::new(16)), Box::new(MuSigmaChange::new()), scorer)
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

fn assert_step_is_allocation_free(mut det: Detector, label: &str) {
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
    assert_step_is_allocation_free(mu_sigma_with(Box::new(RawScore)), "SW + μ/σ + Raw");
}

#[test]
fn steady_state_step_is_allocation_free_moving_average() {
    assert_step_is_allocation_free(mu_sigma_with(Box::new(MovingAverage::new(8))), "SW + μ/σ + Avg");
}

#[test]
fn steady_state_step_is_allocation_free_anomaly_likelihood() {
    let det = mu_sigma_with(Box::new(AnomalyLikelihood::new(12, 3)));
    assert_step_is_allocation_free(det, "SW + μ/σ + AL");
}

#[test]
fn steady_state_step_is_allocation_free_kswin_sliding_window() {
    let det = detector_with(
        Box::new(SlidingWindowSet::new(16)),
        Box::new(KswinDetector::new(KswinDetector::DEFAULT_ALPHA)),
        Box::new(RawScore),
    );
    assert_step_is_allocation_free(det, "SW + KSWIN + Raw");
}

#[test]
fn steady_state_step_is_allocation_free_kswin_uniform_reservoir() {
    let det = detector_with(
        Box::new(UniformReservoir::new(16, 7)),
        Box::new(KswinDetector::new(KswinDetector::DEFAULT_ALPHA)),
        Box::new(RawScore),
    );
    assert_step_is_allocation_free(det, "URES + KSWIN + Raw");
}

/// A KSWIN detector warmed over a 38-channel sliding training set
/// (w = 100, m = 50) of a stream whose every value is distinct, then
/// stepped and fine-tuned past warm-up, holds two multisets of the 149
/// distinct time points per channel: well under 0.5 MB, where sorted
/// arrays of all `m·w` values per channel take 2 × 38 × 5,000 doubles
/// (3.04 MB).
#[test]
fn kswin_live_heap_follows_distinct_values() {
    let (n, w, m) = (38, 100, 50);
    let value = |t: usize, j: usize| (t * n + j) as f64 * 1e-3 - 7.0;
    let mut strat = SlidingWindowSet::new(m);
    let mut det = None;
    let mut live = measure(|| det = Some(KswinDetector::new(KswinDetector::DEFAULT_ALPHA))).1;
    let det = det.as_mut().expect("built above");
    for t in 0..m + 40 {
        let x = FeatureVector::new((0..w * n).map(|i| value(t + i / n, i % n)).collect(), w, n);
        let update = strat.update(&x, 0.0);
        live += measure(|| {
            det.observe(&x, &update, strat.training_set());
            if t + 1 == m || t % 16 == 0 {
                det.on_fine_tune(strat.training_set());
            }
        })
        .1;
    }
    assert!(live < 500_000, "KSWIN holds {live} live bytes");
}
