//! Allocation-count guard for the steady-state ingest path.
//!
//! Extends the counting-allocator pattern of `sad-fleet/tests/zero_alloc.rs`
//! one layer up: once every stream has been admitted and every reusable
//! buffer (transport body/line buffer, `Frame::values`, ring queues,
//! batch workspaces, output slots) has reached steady-state capacity, a
//! full wire step — `Transport::next` decode, route lookup, `offer`,
//! and the scheduled `drain_round` with its idle sweep — must not
//! allocate at all. Admission and retirement are the only allocating
//! paths, and both are per-entity-lifetime events.
//!
//! Both framings are pinned: the binary decoder reads into a reused body
//! buffer, and the CSV decoder parses floats out of a reused line buffer.
//!
//! The guard counts the calling thread's allocations and, while armed,
//! those of the fleet's pool helpers (threads named `sad-fleet-*`), which
//! run the finish steps; the tests run one at a time so that no other
//! engine's helpers are alive, and each checks that its armed rounds ran
//! jobs on a helper.

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

use std::io::Cursor;
use sad_core::{AlgorithmSpec, DetectorConfig, ModelKind, ScoreKind, Task1, Task2};
use sad_fleet::FleetConfig;
use sad_ingest::{
    CsvTransport, DetectorTemplate, EngineConfig, Frame, FrameWriter, FramedTransport, Framing,
    IngestEngine, Transport,
};
use sad_models::BuildParams;

const CHANNELS: usize = 2;
/// Enough finish steps per round that the pool's helpers win some of
/// them: with two, the caller often runs both before a helper reacts.
const STREAMS: usize = 8;
const SETTLE_ROUNDS: usize = 192;
/// Most rounds the settle may add until a pool helper has run a job.
const POOL_ROUNDS: usize = 20_000;
const ARMED_ROUNDS: usize = 256;
/// Most armed windows a guard runs to see a helper run a job: the host
/// can keep a helper off the CPU for whole windows of tiny rounds.
const MAX_WINDOWS: usize = 32;

/// Stationary stream, periodic with the detector's window length (8):
/// constant training-set statistics, so μ/σ-Change never fires and the
/// armed window is pure steady-state serving (training allocates, and is
/// exactly what this guard must not see).
fn stream_vector(t: usize) -> [f64; CHANNELS] {
    let phase = std::f64::consts::TAU * (t % 8) as f64 / 8.0;
    [phase.sin(), phase.cos() * 0.5]
}

fn engine() -> IngestEngine {
    let spec = AlgorithmSpec {
        model: ModelKind::TwoLayerAe,
        task1: Task1::SlidingWindow,
        task2: Task2::MuSigma,
    };
    let config = DetectorConfig {
        window: 8,
        channels: CHANNELS,
        warmup: 64,
        initial_epochs: 1,
        fine_tune_epochs: 1,
    };
    let params =
        BuildParams::new(config).with_capacity(16).with_score(ScoreKind::Raw).with_seed(11);
    // An armed idle sweep runs every round (nothing qualifies — every
    // streams send every round), proving the sweep itself is alloc-free.
    let cfg = EngineConfig { idle_rounds: Some(10_000), ..EngineConfig::default() };
    IngestEngine::new(DetectorTemplate::new(spec, params), FleetConfig::default(), cfg)
}

/// Interleaved wire bytes for `rounds` rounds starting at step `t0`.
fn wire_bytes(framing: Framing, t0: usize, rounds: usize) -> Vec<u8> {
    let mut writer = FrameWriter::new(Vec::new(), framing);
    for t in t0..t0 + rounds {
        let s = stream_vector(t);
        for i in 0..STREAMS {
            writer.send(i as u64, &s).expect("in-memory write");
        }
    }
    writer.into_inner()
}

/// Pumps exactly `frames` frames from the transport into the engine,
/// reusing the caller's decode buffer.
fn pump(
    transport: &mut dyn Transport,
    frame: &mut Frame,
    engine: &mut IngestEngine,
    outputs: &Cell<usize>,
    frames: usize,
) {
    let mut sink = |_: u64, _: &sad_core::StepOutput| outputs.set(outputs.get() + 1);
    for _ in 0..frames {
        assert!(transport.next(frame).expect("well-formed wire"), "wire ended early");
        engine.ingest(frame, &mut sink);
    }
}

fn steady_state_is_allocation_free(framing: Framing) {
    let _serial = serial();
    let mut engine = engine();
    let outputs = Cell::new(0usize);
    let mut frame = Frame::default();

    // One continuous wire: the same transport (and decode buffers) carry
    // both phases, exactly like a long-lived connection.
    let rounds = SETTLE_ROUNDS + POOL_ROUNDS + MAX_WINDOWS * ARMED_ROUNDS;
    let wire = wire_bytes(framing, 0, rounds);
    let mut binary;
    let mut csv;
    let transport: &mut dyn Transport = match framing {
        Framing::Binary => {
            binary = FramedTransport::new(Cursor::new(wire));
            &mut binary
        }
        Framing::Csv => {
            csv = CsvTransport::new(Cursor::new(wire));
            &mut csv
        }
    };

    // Settle: admission, warm-up (64), cohort formation, and every
    // reusable buffer stretched to steady-state capacity.
    pump(transport, &mut frame, &mut engine, &outputs, SETTLE_ROUNDS * STREAMS);
    // A helper thread starts when the OS first schedules it, which can be
    // after the rounds above, and its start allocates: with helpers, go on
    // until one has run a job.
    let mut extra = 0;
    while engine.fleet().helpers() > 0 && engine.fleet().helper_jobs() == 0 {
        assert!(extra < POOL_ROUNDS, "no helper ran a job in {POOL_ROUNDS} rounds");
        pump(transport, &mut frame, &mut engine, &outputs, STREAMS);
        extra += 1;
    }
    let settled = engine.stats();
    assert_eq!(settled.fleet.admitted, STREAMS, "every stream admitted during settle");
    assert!(settled.fleet.batched_rows > 0, "cohort must have formed during settle: {settled:?}");

    // Armed: the full wire step — decode, route, offer, drain — on
    // already-live streams, one window at a time until a window ran a job
    // on a pool helper (one window without helpers). Every window must be
    // allocation-free.
    let mut windows = 0;
    loop {
        windows += 1;
        let helper_jobs = engine.fleet().helper_jobs();
        let (n, on_helpers) = count_allocs(|| {
            pump(transport, &mut frame, &mut engine, &outputs, ARMED_ROUNDS * STREAMS);
        });
        assert_eq!(n, 0, "steady-state {framing:?} ingest must not allocate, saw {n}");
        assert_eq!(on_helpers, 0, "{framing:?}: finish steps on the pool must not allocate");
        let fleet = engine.fleet();
        if fleet.helpers() == 0 || fleet.helper_jobs() > helper_jobs {
            break;
        }
        assert!(windows < MAX_WINDOWS, "no armed window ran a job on the pool's helpers");
    }

    // And the armed windows really served every frame through the engine.
    let stats = engine.stats();
    let armed = windows * ARMED_ROUNDS * STREAMS;
    assert_eq!(stats.frames - settled.frames, armed);
    assert_eq!(stats.fleet.steps - settled.fleet.steps, armed);
    assert_eq!(stats.fleet.admitted, STREAMS, "no re-admission while armed");
    assert_eq!(stats.idle_retired, 0, "nothing idles while every stream sends");
    assert!(outputs.get() > 0, "post-warm-up outputs flowed through the sink");
}

#[test]
fn steady_state_binary_ingest_is_allocation_free() {
    steady_state_is_allocation_free(Framing::Binary);
}

#[test]
fn steady_state_csv_ingest_is_allocation_free() {
    steady_state_is_allocation_free(Framing::Csv);
}
