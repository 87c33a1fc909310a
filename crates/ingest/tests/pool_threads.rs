//! An engine's fleet spawns its pool helpers when it opens and joins them
//! when it drops, and an idle fleet's helpers park instead of spinning.
//!
//! The only test of its binary: it reads the process's thread count
//! (`Threads:` in `/proc/self/status`) and CPU time (`/proc/self/stat`),
//! which other tests' threads would change.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use sad_core::{AlgorithmSpec, DetectorConfig, ModelKind, ScoreKind, StepOutput, Task1, Task2};
use sad_fleet::FleetConfig;
use sad_ingest::{DetectorTemplate, EngineConfig, Frame, IngestEngine};
use sad_models::BuildParams;

const ENGINES: usize = 32;
const STREAMS: u64 = 4;

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("a Threads: line");
    line["Threads:".len()..].trim().parse().expect("a thread count")
}

/// User plus system CPU time of the process, in clock ticks.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line.
    let rest = &stat[stat.rfind(')').expect("a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

/// Polls `threads()` until it equals `want` (an exiting thread may still
/// be counted for a moment after it was joined); returns the last count.
fn settle_threads(want: usize) -> usize {
    let since = Instant::now();
    loop {
        let now = threads();
        if now == want || since.elapsed() > Duration::from_secs(5) {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn engine(shards: usize) -> IngestEngine {
    let spec = AlgorithmSpec {
        model: ModelKind::TwoLayerAe,
        task1: Task1::SlidingWindow,
        task2: Task2::MuSigma,
    };
    let config = DetectorConfig {
        window: 4,
        channels: 2,
        warmup: 16,
        initial_epochs: 1,
        fine_tune_epochs: 1,
    };
    let params = BuildParams::new(config).with_capacity(8).with_score(ScoreKind::Raw).with_seed(9);
    let fleet = FleetConfig { shards, ..FleetConfig::default() };
    IngestEngine::new(DetectorTemplate::new(spec, params), fleet, EngineConfig::default())
}

/// Serves 40 frames per stream, enough for the streams to warm up, group
/// and hand finish steps to the pool.
fn serve(engine: &mut IngestEngine) {
    let mut sink = |_: u64, _: &StepOutput| {};
    let mut frame = Frame::default();
    for t in 0..40 {
        for id in 0..STREAMS {
            let x = t as f64 * 0.3 + id as f64;
            frame.stream = id;
            frame.values.clear();
            frame.values.extend([x.sin(), (0.5 * x).cos()]);
            engine.ingest(&frame, &mut sink);
        }
    }
    engine.finish(&mut sink);
}

#[test]
fn engines_join_their_pool_helpers_and_idle_helpers_park() {
    let start = threads();
    for i in 0..ENGINES {
        let mut engine = engine(1 + i % 2);
        serve(&mut engine);
        let helpers = engine.fleet().helpers();
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(helpers, cores - 1, "engine {i}: one helper per core beside the caller");
        assert_eq!(threads(), start + helpers, "engine {i}: its helpers are running");
        if i == 0 {
            // Idle: once their poll runs out, the helpers park.
            std::thread::sleep(Duration::from_millis(50));
            let before = cpu_ticks();
            std::thread::sleep(Duration::from_millis(500));
            let spent = cpu_ticks() - before;
            assert!(spent <= 5, "an idle engine burnt {spent} clock ticks in 500 ms");
        }
        drop(engine);
        assert_eq!(settle_threads(start), start, "engine {i}: its helpers were joined on drop");
    }
}
