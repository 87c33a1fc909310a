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
//! The guard counts the calling thread's allocations and, while armed,
//! those of the fleet's pool helpers (threads named `sad-fleet-*`), which
//! run the finish steps; the tests run one at a time so that no other
//! fleet's helpers are alive, and each checks that its armed rounds ran
//! jobs on a helper.
//!
//! Unlike the core guard (which pins the framework under a heap-free
//! stand-in model), this one runs a real 2-layer AE: the batched
//! inference path is exactly what makes the NN predict step heap-free —
//! the scalar `predict` builds its scaled/inverse vectors per call, while
//! `InferBatch` owns them once per arch group.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Mutex, MutexGuard, PoisonError};

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Whether this thread is a fleet pool helper, decided by its name at
    /// its first allocation while the helpers are armed.
    static ROLE: Cell<Role> = const { Cell::new(Role::Unknown) };
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Unknown,
    /// Reading the thread's name; an allocation that makes is not counted.
    Deciding,
    Helper,
    Other,
}

/// Allocations on the fleet's pool helpers (threads named `sad-fleet-*`)
/// count while this is set.
static HELPERS_ARMED: AtomicBool = AtomicBool::new(false);
static HELPER_ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// The tests of this file run one at a time, so while one is armed the
/// only pool helpers alive are its own fleet's.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn is_helper() -> bool {
    ROLE.try_with(|role| match role.get() {
        Role::Helper => true,
        Role::Other | Role::Deciding => false,
        Role::Unknown => {
            role.set(Role::Deciding);
            let thread = std::thread::current();
            let helper = thread.name().is_some_and(|name| name.starts_with("sad-fleet-"));
            role.set(if helper { Role::Helper } else { Role::Other });
            helper
        }
    })
    .unwrap_or(false)
}

struct CountingAllocator;

impl CountingAllocator {
    fn record() {
        let _ = ARMED.try_with(|armed| {
            if armed.get() {
                let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            }
        });
        if HELPERS_ARMED.load(SeqCst) && is_helper() {
            HELPER_ALLOCS.fetch_add(1, SeqCst);
        }
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

/// Allocations `f` makes on this thread and on the fleet's pool helpers.
fn count_allocs(f: impl FnOnce()) -> (usize, usize) {
    ALLOCS.with(|c| c.set(0));
    HELPER_ALLOCS.store(0, SeqCst);
    HELPERS_ARMED.store(true, SeqCst);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    HELPERS_ARMED.store(false, SeqCst);
    (ALLOCS.with(|c| c.get()), HELPER_ALLOCS.load(SeqCst))
}

use sad_core::{Detector, DetectorConfig, ScoreKind, StepOutput};
use sad_fleet::{DetectorFleet, FleetConfig};
use sad_models::{build_detector, BuildParams};

const CHANNELS: usize = 2;
/// Enough finish steps per round that the pool's helpers win some of
/// them: with two, the caller often runs both before a helper reacts.
const STREAMS: usize = 8;

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

/// One round: every stream's next vector, then a drain.
fn serve_round(fleet: &mut DetectorFleet, out: &mut Vec<Option<StepOutput>>, t: &mut usize) {
    let s = stream_vector(*t);
    for i in 0..STREAMS {
        assert!(fleet.enqueue(i, &s));
    }
    assert_eq!(fleet.drain_round(out), STREAMS);
    *t += 1;
}

/// Settle: warm-up (64) plus well past every ring's fill point and the
/// first batched emit (which right-sizes the per-slot output buffers);
/// then, with helpers, until one has run a job. A helper thread starts
/// when the OS first schedules it, which can be after the rounds above,
/// and its start allocates.
fn settle(fleet: &mut DetectorFleet, out: &mut Vec<Option<StepOutput>>, t: &mut usize) {
    for _ in 0..192 {
        serve_round(fleet, out, t);
    }
    let started = std::time::Instant::now();
    while fleet.helpers() > 0 && fleet.helper_jobs() == 0 {
        assert!(started.elapsed().as_secs() < 30, "no helper ran a job in 30 s of rounds");
        serve_round(fleet, out, t);
    }
    for i in 0..STREAMS {
        assert!(
            fleet.detector(i).drift_times().is_empty(),
            "stream must be drift-free for this guard",
        );
    }
}

/// Most armed windows a guard runs to see a helper run a job: the host
/// can keep a helper off the CPU for whole windows of tiny rounds.
const MAX_WINDOWS: usize = 32;

/// Runs armed windows, each one call of `serve`, until one of them ran a
/// job on a pool helper (one window without helpers). Every window must
/// be allocation-free on the caller and on the helpers. Returns the
/// windows run.
fn armed_windows(fleet: &mut DetectorFleet, mut serve: impl FnMut(&mut DetectorFleet)) -> usize {
    for window in 1..=MAX_WINDOWS {
        let helper_jobs = fleet.helper_jobs();
        let (n, on_helpers) = count_allocs(|| serve(fleet));
        assert_eq!(n, 0, "steady-state fleet round must not allocate, saw {n}");
        assert_eq!(on_helpers, 0, "steady-state finish steps on the pool must not allocate");
        if fleet.helpers() == 0 || fleet.helper_jobs() > helper_jobs {
            return window;
        }
    }
    panic!("no armed window of {MAX_WINDOWS} ran a job on the pool's {} helpers", fleet.helpers());
}

/// Every stream identically seeded on an identical stationary stream:
/// they form (and keep) one cohort, so the armed window measures the
/// batched shard loop, not the scalar fallback, and each round hands
/// [`STREAMS`] finish steps to the pool.
#[test]
fn steady_state_fleet_round_is_allocation_free() {
    let _serial = serial();
    let dets: Vec<Detector> = (0..STREAMS).map(|_| ae_detector()).collect();
    let mut fleet = DetectorFleet::new(dets, FleetConfig::default());
    let mut out: Vec<Option<StepOutput>> = Vec::new();
    let mut t = 0usize;
    settle(&mut fleet, &mut out, &mut t);
    let settled = fleet.stats();
    assert!(settled.batched_rows > 0, "cohort must have formed during settle: {settled:?}");

    let windows = armed_windows(&mut fleet, |fleet| {
        for _ in 0..256 {
            serve_round(fleet, &mut out, &mut t);
            for o in &out {
                let o = o.expect("past warm-up");
                assert!(!o.drift, "stream must stay drift-free");
            }
        }
    });

    // And the windows really went through the batched path.
    let stats = fleet.stats();
    assert_eq!(
        stats.batched_rows - settled.batched_rows,
        windows * 256 * STREAMS,
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
    let _serial = serial();
    let dets: Vec<Detector> = (0..STREAMS).map(|_| ae_detector()).collect();
    let config = FleetConfig { f32_infer: true, ..FleetConfig::default() };
    let mut fleet = DetectorFleet::new(dets, config);
    let mut out: Vec<Option<StepOutput>> = Vec::new();
    let mut t = 0usize;
    settle(&mut fleet, &mut out, &mut t);
    let settled = fleet.stats();
    assert!(settled.f32_rows > 0, "f32 cohort must have formed during settle: {settled:?}");

    let windows = armed_windows(&mut fleet, |fleet| {
        for _ in 0..256 {
            serve_round(fleet, &mut out, &mut t);
        }
    });

    let stats = fleet.stats();
    assert_eq!(
        stats.f32_rows - settled.f32_rows,
        windows * 256 * STREAMS,
        "armed window must be fully f32-batched: {stats:?}",
    );
    assert_eq!(stats.cohort_rebuilds, settled.cohort_rebuilds, "no training events while armed");
}

/// Stream `stream`'s vector at `t`: the stationary signal above, shifted
/// by a level that flips every 160 steps, 37 steps later per stream, so
/// each stream drifts again and again on its own schedule.
fn drifting_vector(t: usize, stream: usize) -> [f64; CHANNELS] {
    let [a, b] = stream_vector(t);
    let level = if ((t + 37 * stream) / 160).is_multiple_of(2) { 0.0 } else { 3.0 };
    [a + level, b - level]
}

/// A round in which streams that drifted the round before land their
/// adaptations and rejoin the cohorts allocates nothing once the groups
/// have had as many cohorts before: a founding reuses an emptied
/// cohort's record (its member list and, in f32, its snapshot, re-synced
/// in place). Rounds in which a stream drifts are served but not
/// checked: the detector appends the drift time to its log, which grows
/// now and then.
fn assert_landing_rounds_are_allocation_free(f32_infer: bool) {
    let _serial = serial();
    let dets: Vec<Detector> = (0..STREAMS).map(|_| ae_detector()).collect();
    let config = FleetConfig { f32_infer, ..FleetConfig::default() };
    let mut fleet = DetectorFleet::new(dets, config);
    let mut out: Vec<Option<StepOutput>> = Vec::new();
    let round = |fleet: &mut DetectorFleet, out: &mut Vec<Option<StepOutput>>, t: usize| {
        for i in 0..STREAMS {
            assert!(fleet.enqueue(i, &drifting_vector(t, i)));
        }
        assert_eq!(fleet.drain_round(out), STREAMS);
    };
    let drifted = |out: &[Option<StepOutput>]| out.iter().flatten().filter(|o| o.drift).count();
    // Warm up, then, as in `settle`, serve until a helper has run a job.
    let (started, mut t) = (std::time::Instant::now(), 0);
    while t < 2000 || (fleet.helpers() > 0 && fleet.helper_jobs() == 0) {
        assert!(started.elapsed().as_secs() < 30, "no helper ran a job in 30 s of rounds");
        round(&mut fleet, &mut out, t);
        t += 1;
    }
    let (mut checked, mut landed, mut joins, mut resyncs) = (0, 0, 0, 0);
    for t in t..t + 1280 {
        let landing = drifted(&out);
        let before = fleet.stats();
        let (n, on_helpers) = count_allocs(|| round(&mut fleet, &mut out, t));
        if landing == 0 || drifted(&out) > 0 {
            continue;
        }
        let label = format!("f32_infer={f32_infer} t={t}");
        assert_eq!(n, 0, "{label}: a round that lands {landing} streams allocated {n} times");
        assert_eq!(on_helpers, 0, "{label}: the pool allocated {on_helpers} times");
        let after = fleet.stats();
        checked += 1;
        landed += landing;
        joins += after.cohort_rebuilds - before.cohort_rebuilds;
        resyncs += after.f32_resyncs - before.f32_resyncs;
    }
    assert!(checked >= 16, "f32_infer={f32_infer}: only {checked} landing rounds without a drift");
    assert!(joins > 0, "f32_infer={f32_infer}: {landed} landings joined no cohort");
    assert_eq!(resyncs > 0, f32_infer, "f32_infer={f32_infer}: {resyncs} snapshots re-synced");
}

#[test]
fn a_round_of_landings_is_allocation_free() {
    assert_landing_rounds_are_allocation_free(false);
}

#[test]
fn a_round_of_landings_is_allocation_free_in_f32() {
    assert_landing_rounds_are_allocation_free(true);
}
