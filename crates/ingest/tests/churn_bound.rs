//! Serving cost follows the live streams, not the ids ever issued.
//!
//! A churn soak: 10⁵ fresh wire ids pass through one `IngestEngine`, 32
//! sending at a time. Each id sends 32 frames, one per tick, and a new id
//! starts every tick, so one id arrives and one goes quiet per 32 frames;
//! quiet ids retire on the idle timeout. Every stream runs ARIMA/SW/μσ at
//! window 3, warm-up 8 and training-set and queue capacity 4.
//!
//! A counting allocator tracks this thread's live heap bytes. At one and
//! at two shards the soak checks that
//! * every fleet id the engine maps a wire id to stays below twice the
//!   peak live stream count (fleet ids are slot addresses, reused after a
//!   retirement);
//! * the live heap after the last tenth of ids is within a fixed slack of
//!   the live heap after the first tenth (a retired id costs nothing);
//! * every frame is accounted for: each one steps its stream, and each
//!   id gets one verdict per post-warm-up frame.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// Adds `delta` to the calling thread's live-byte count.
fn track(delta: isize) {
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + delta));
}

struct LiveBytesAllocator;

unsafe impl GlobalAlloc for LiveBytesAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytesAllocator = LiveBytesAllocator;

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

use sad_core::{AlgorithmSpec, DetectorConfig, ModelKind, ScoreKind, StepOutput, Task1, Task2};
use sad_fleet::FleetConfig;
use sad_ingest::{DetectorTemplate, EngineConfig, Frame, IngestEngine};
use sad_models::BuildParams;

const IDS: usize = 100_000;
/// Frames each wire id sends; also the number of ids sending at once.
const LIFETIME: usize = 32;
const WARMUP: usize = 8;
/// Live-heap change allowed between the two measurements: a few
/// detectors' worth, against the ~8 MB that 90,000 retired ids cost when
/// each one leaves ~90 bytes of bookkeeping behind.
const HEAP_SLACK: isize = 16 * 1024;

fn engine(shards: usize) -> IngestEngine {
    let spec = AlgorithmSpec {
        model: ModelKind::OnlineArima,
        task1: Task1::SlidingWindow,
        task2: Task2::MuSigma,
    };
    let config =
        DetectorConfig { window: 3, channels: 2, warmup: WARMUP, initial_epochs: 1, fine_tune_epochs: 1 };
    let params = BuildParams::new(config).with_capacity(4).with_score(ScoreKind::Raw).with_seed(3);
    let fleet = FleetConfig { shards, queue_capacity: 4, ..FleetConfig::default() };
    let cfg = EngineConfig { idle_rounds: Some(2), ..EngineConfig::default() };
    IngestEngine::new(DetectorTemplate::new(spec, params), fleet, cfg)
}

/// Wire id `w`'s frame `t` of its life.
fn fill(frame: &mut Frame, w: usize, t: usize) {
    let x = t as f64 * 0.3 + w as f64 * 0.7;
    frame.stream = w as u64;
    frame.values.clear();
    frame.values.extend([x.sin(), (0.6 * x).cos()]);
}

fn soak(shards: usize) {
    let mut engine = engine(shards);
    let mut verdicts = vec![0u8; IDS];
    let mut sink = |w: u64, _: &StepOutput| verdicts[w as usize] += 1;
    let mut frame = Frame { stream: 0, values: Vec::with_capacity(2) };
    let (mut peak_live, mut top_id) = (0, 0);
    // Live heap once the first tenth and once every id has been admitted,
    // both with 32 ids sending.
    let (mut heap_first_tenth, mut heap_all) = (0, 0);
    for tick in 0..IDS + LIFETIME - 1 {
        for w in (tick + 1).saturating_sub(LIFETIME)..=tick.min(IDS - 1) {
            fill(&mut frame, w, tick - w);
            engine.ingest(&frame, &mut sink);
            if w == tick {
                let id = engine.stream_id(w as u64).expect("a fresh id is admitted");
                top_id = top_id.max(id);
            }
            peak_live = peak_live.max(engine.fleet().live());
        }
        if tick == IDS / 10 - 1 {
            heap_first_tenth = live_bytes();
        } else if tick == IDS - 1 {
            heap_all = live_bytes();
        }
    }
    engine.finish(&mut sink);

    assert!(
        top_id < 2 * peak_live,
        "{shards} shard(s): fleet ids reached {top_id} with at most {peak_live} streams live"
    );
    assert!(
        (heap_all - heap_first_tenth).abs() <= HEAP_SLACK,
        "{shards} shard(s): the live heap went from {heap_first_tenth} to {heap_all} bytes \
         over the last {} ids",
        IDS - IDS / 10
    );
    let stats = engine.stats();
    assert_eq!(stats.frames, IDS * LIFETIME, "{shards} shard(s)");
    assert_eq!(stats.fleet.steps, stats.frames, "{shards} shard(s): every frame stepped: {stats:?}");
    assert_eq!(stats.fleet.admitted, IDS, "{shards} shard(s): each id admitted once");
    assert_eq!(stats.fleet.admitted - stats.fleet.retired, engine.fleet().live());
    let short = verdicts.iter().filter(|&&n| n as usize != LIFETIME - WARMUP).count();
    assert_eq!(short, 0, "{shards} shard(s): ids without one verdict per post-warm-up frame");
}

#[test]
fn fleet_ids_and_live_heap_follow_the_live_streams() {
    // One test runs both shard counts in turn on one thread, so each
    // soak's live-byte count sees only its own engine.
    for shards in [1, 2] {
        soak(shards);
    }
}
