//! Allocation-count guard for the fleet's steady-state shard loop.
//!
//! Extends the counting-allocator pattern of `sad-core/tests/zero_alloc.rs`
//! to the serving layer: once a cohort has formed and every reusable
//! buffer has reached its steady-state capacity, a full serving round —
//! per-stream `enqueue` into the ring queues, batch packing via
//! `transform_into`, the shared `forward_batch`, `emit_into` scatter into
//! the reused output buffers, and `finish_step` — must not allocate at
//! all on a drift-free stream.
//!
//! Unlike the core guard (which pins the framework under a heap-free
//! stand-in model), this one runs a real 2-layer AE: the batched
//! inference path is exactly what makes the NN predict step heap-free —
//! the scalar `predict` builds its scaled/inverse vectors per call, while
//! `InferBatch` owns them once per arch group.

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

use sad_core::{Detector, DetectorConfig, ScoreKind, StepOutput};
use sad_fleet::{DetectorFleet, FleetConfig};
use sad_models::{build_detector, BuildParams};

const CHANNELS: usize = 2;
const STREAMS: usize = 2;

/// Stationary stream, periodic with the detector's window length (8):
/// every window holds the same multiset of values per channel, so the
/// training-set statistics are constant and μ/σ-Change never fires — the
/// armed rounds below are pure steady-state serving.
fn stream_vector(t: usize) -> [f64; CHANNELS] {
    let phase = std::f64::consts::TAU * (t % 8) as f64 / 8.0;
    [phase.sin(), phase.cos() * 0.5]
}

fn ae_detector() -> Detector {
    let config = DetectorConfig {
        window: 8,
        channels: CHANNELS,
        warmup: 64,
        initial_epochs: 1,
        fine_tune_epochs: 1,
    };
    let spec = sad_core::paper_algorithms()
        .iter()
        .copied()
        .find(|s| s.label().contains("AE") && s.label().contains("SW") && s.label().contains("μ"))
        .expect("AE / SW / μσ combination exists");
    let params =
        BuildParams::new(config).with_capacity(16).with_score(ScoreKind::Raw).with_seed(11);
    build_detector(spec, &params)
}

/// Both streams identically seeded on an identical stationary stream:
/// they form (and keep) one cohort, so the armed window measures the
/// batched shard loop, not the scalar fallback.
#[test]
fn steady_state_fleet_round_is_allocation_free() {
    let dets: Vec<Detector> = (0..STREAMS).map(|_| ae_detector()).collect();
    let mut fleet = DetectorFleet::new(dets, FleetConfig::default());
    let mut out: Vec<Option<StepOutput>> = Vec::new();
    let mut t = 0usize;

    // Settle: warm-up (64) plus well past every ring's fill point and the
    // first batched emit (which right-sizes the per-slot output buffers).
    for _ in 0..192 {
        let s = stream_vector(t);
        for i in 0..STREAMS {
            assert!(fleet.enqueue(i, &s));
        }
        fleet.drain_round(&mut out);
        t += 1;
    }
    for i in 0..STREAMS {
        assert!(
            fleet.detector(i).drift_times().is_empty(),
            "stream must be drift-free for this guard",
        );
    }
    let settled = fleet.stats();
    assert!(settled.batched_rows > 0, "cohort must have formed during settle: {settled:?}");

    let n = count_allocs(|| {
        for _ in 0..256 {
            let s = stream_vector(t);
            for i in 0..STREAMS {
                assert!(fleet.enqueue(i, &s));
            }
            let consumed = fleet.drain_round(&mut out);
            assert_eq!(consumed, STREAMS);
            for o in &out {
                let o = o.expect("past warm-up");
                assert!(!o.drift, "stream must stay drift-free");
            }
            t += 1;
        }
    });
    assert_eq!(n, 0, "steady-state fleet round must not allocate, saw {n}");

    // And the window really went through the batched path.
    let stats = fleet.stats();
    assert_eq!(
        stats.batched_rows - settled.batched_rows,
        256 * STREAMS,
        "armed window must be fully batched: {stats:?}",
    );
    assert_eq!(stats.cohort_rebuilds, settled.cohort_rebuilds, "no training events while armed");
}

/// Same guard for the f32 snapshot path (`FleetConfig::f32_infer`): the
/// group's f32 `InferBatch` owns every buffer and each cohort's
/// `InferSnapshot<f32>` its converted weights, so a steady-state round —
/// f32 pack, snapshot `forward_batch`, widening emit — must not allocate
/// either.
#[test]
fn steady_state_f32_fleet_round_is_allocation_free() {
    let dets: Vec<Detector> = (0..STREAMS).map(|_| ae_detector()).collect();
    let config = FleetConfig { f32_infer: true, ..FleetConfig::default() };
    let mut fleet = DetectorFleet::new(dets, config);
    let mut out: Vec<Option<StepOutput>> = Vec::new();
    let mut t = 0usize;

    for _ in 0..192 {
        let s = stream_vector(t);
        for i in 0..STREAMS {
            assert!(fleet.enqueue(i, &s));
        }
        fleet.drain_round(&mut out);
        t += 1;
    }
    for i in 0..STREAMS {
        assert!(
            fleet.detector(i).drift_times().is_empty(),
            "stream must be drift-free for this guard",
        );
    }
    let settled = fleet.stats();
    assert!(settled.f32_rows > 0, "f32 cohort must have formed during settle: {settled:?}");

    let n = count_allocs(|| {
        for _ in 0..256 {
            let s = stream_vector(t);
            for i in 0..STREAMS {
                assert!(fleet.enqueue(i, &s));
            }
            let consumed = fleet.drain_round(&mut out);
            assert_eq!(consumed, STREAMS);
            t += 1;
        }
    });
    assert_eq!(n, 0, "steady-state f32 fleet round must not allocate, saw {n}");

    let stats = fleet.stats();
    assert_eq!(
        stats.f32_rows - settled.f32_rows,
        256 * STREAMS,
        "armed window must be fully f32-batched: {stats:?}",
    );
    assert_eq!(stats.cohort_rebuilds, settled.cohort_rebuilds, "no training events while armed");
}
