//! Under the block policy a frame never queues behind frames of its own
//! stream that a round has passed over. On traffic that sends one frame
//! per stream per tick, that is enough for every verdict to reach the
//! sink within its frame's own `ingest` call or in the first round after
//! that call.
//!
//! The shape is a miniature of a churning population: 12 entities under
//! fresh wire ids, one arriving every 5 ticks, each sending 40 frames (one
//! per tick) and then going quiet until the idle timeout (4 rounds)
//! retires it. Every stream runs ARIMA/SW/μσ at window 3, warm-up 8,
//! training-set capacity 4 and 2 channels, behind a 4-deep queue. A
//! retiring stream keeps the live-stream count one above the streams
//! still sending, so a drain cadence of one round per live-stream-count
//! frames drifts off the ticks and lets a stream put two frames into one
//! round's window. The second of them closes that window, and the round
//! serves the first. With the count cadence alone, one round per tick
//! then never clears the second: the stream's verdicts arrive two to four
//! rounds after their `ingest` call returned. Under the block policy the
//! stream's next frame finds its queued frame passed over and first
//! closes a round that serves it. The test needs no clock: the sink
//! stamps each verdict with the round that delivered it.

use sad_core::{AlgorithmSpec, DetectorConfig, ModelKind, ScoreKind, StepOutput, Task1, Task2};
use sad_fleet::{BackpressurePolicy, FleetConfig};
use sad_ingest::{DetectorTemplate, EngineConfig, EngineSink, Frame, IngestEngine, IngestStats};
use sad_models::BuildParams;

const ENTITIES: usize = 12;
/// Frames each entity sends, one per tick.
const FRAMES: usize = 40;
/// Ticks between two arrivals.
const STAGGER: usize = 5;
const WARMUP: usize = 8;

/// Records, per entity and frame, the round that delivered its verdict.
struct Stamps {
    /// This round's verdicts so far: wire id and step index.
    current: Vec<(u64, usize)>,
    delivered: Vec<[Option<u64>; FRAMES]>,
}

impl EngineSink for Stamps {
    fn output(&mut self, stream: u64, out: &StepOutput) {
        self.current.push((stream, out.t));
    }

    fn round(&mut self, rounds: u64, _: &IngestStats) {
        for (stream, t) in self.current.drain(..) {
            self.delivered[stream as usize][t] = Some(rounds);
        }
    }
}

#[test]
fn every_verdict_arrives_by_the_round_after_its_ingest_call() {
    let spec = AlgorithmSpec {
        model: ModelKind::OnlineArima,
        task1: Task1::SlidingWindow,
        task2: Task2::MuSigma,
    };
    let config = DetectorConfig {
        window: 3,
        channels: 2,
        warmup: WARMUP,
        initial_epochs: 1,
        fine_tune_epochs: 1,
    };
    let params = BuildParams::new(config).with_capacity(4).with_score(ScoreKind::Raw).with_seed(3);
    let fleet = FleetConfig { queue_capacity: 4, ..FleetConfig::default() };
    let cfg = EngineConfig {
        policy: BackpressurePolicy::Block,
        idle_rounds: Some(4),
        ..EngineConfig::default()
    };
    let mut engine = IngestEngine::new(DetectorTemplate::new(spec, params), fleet, cfg);

    let mut sink = Stamps { current: Vec::new(), delivered: vec![[None; FRAMES]; ENTITIES] };
    // The round count when each frame's `ingest` call returned.
    let mut returned = vec![[0u64; FRAMES]; ENTITIES];
    let mut frame = Frame::default();
    for tick in 0..STAGGER * (ENTITIES - 1) + FRAMES {
        for (id, returned) in returned.iter_mut().enumerate() {
            let Some(t) = tick.checked_sub(STAGGER * id).filter(|&t| t < FRAMES) else {
                continue;
            };
            let x = t as f64 * 0.3 + id as f64;
            frame.stream = id as u64;
            frame.values.clear();
            frame.values.extend([x.sin(), (0.7 * x).cos()]);
            engine.ingest(&frame, &mut sink);
            returned[t] = engine.rounds();
        }
    }
    engine.finish(&mut sink);

    // (entity, frame, rounds waited after its `ingest` call returned).
    let mut late = Vec::new();
    for (id, (delivered, returned)) in sink.delivered.iter().zip(&returned).enumerate() {
        for (t, (delivered, &returned)) in delivered.iter().zip(returned).enumerate().skip(WARMUP) {
            let delivered = delivered.expect("every post-warm-up frame has a verdict");
            if delivered > returned + 1 {
                late.push((id, t, delivered - returned));
            }
        }
    }
    let verdicts = ENTITIES * (FRAMES - WARMUP);
    assert!(
        late.is_empty(),
        "{} of {verdicts} verdicts waited past the next round: {late:?}",
        late.len()
    );
    let high_water = engine.export_metrics().gauge_by_name("sad_fleet_queue_high_water");
    assert_eq!(high_water, Some(2.0), "two frames in one round window, and never more");
}
