//! Serve-mode parity: frames over the wire must produce the exact
//! outputs of the offline fleet driver.
//!
//! The engine's contract is that per-stream traces are invariant to the
//! drain schedule — each detector consumes its own queue in arrival
//! order, and the batched shard path is bitwise-identical to scalar
//! stepping — so anything the wire does to frame pacing (TCP chunking, a
//! bursty client, block-policy stalls) must leave every `StepOutput`
//! bitwise unchanged vs [`DetectorFleet::run`] over the same per-stream
//! data. These tests pin that end to end:
//!
//! * real TCP loopback, binary framing, interleaved arrival;
//! * CSV framing (value-exact shortest-round-trip floats);
//! * a bursty client (whole series sequentially) under the block policy,
//!   where back-pressure provably engages and still loses nothing;
//! * the drop policies, which shed load but keep served streams sane.

use std::io::Cursor;
use std::net::TcpListener;
use sad_core::{
    AlgorithmSpec, Detector, DetectorConfig, ModelKind, ScoreKind, StepOutput, Task1, Task2,
};
use sad_data::LabeledSeries;
use sad_fleet::{DetectorFleet, FleetConfig};
use sad_ingest::{
    replay_interleaved, replay_series, BackpressurePolicy, CsvTransport, DetectorTemplate,
    EngineConfig, EngineSink, FrameWriter, FramedTransport, Framing, IngestEngine,
};
use sad_models::{build_detector, BuildParams};

const CHANNELS: usize = 2;
const WINDOW: usize = 8;
const WARMUP: usize = 40;
const LEN: usize = 160;
const STREAMS: usize = 6;
const SEED: u64 = 11;

fn spec() -> AlgorithmSpec {
    AlgorithmSpec {
        model: ModelKind::TwoLayerAe,
        task1: Task1::SlidingWindow,
        task2: Task2::MuSigma,
    }
}

fn params() -> BuildParams {
    let config = DetectorConfig {
        window: WINDOW,
        channels: CHANNELS,
        warmup: WARMUP,
        initial_epochs: 1,
        fine_tune_epochs: 1,
    };
    BuildParams::new(config).with_capacity(12).with_score(ScoreKind::Raw).with_seed(SEED)
}

/// Distinct per-stream series (phase-shifted sine mixtures) so streams
/// drift and fine-tune on their own schedules — parity must survive
/// cohort splits, not just the steady state.
fn series(i: usize) -> LabeledSeries {
    let data: Vec<Vec<f64>> = (0..LEN)
        .map(|t| {
            let x = t as f64 * 0.11 + i as f64 * 0.7;
            vec![x.sin(), (x * 0.63).cos() + i as f64 * 0.01]
        })
        .collect();
    LabeledSeries::new(format!("s{i}"), data, vec![false; LEN])
}

fn fleet_config() -> FleetConfig {
    FleetConfig { shards: 2, queue_capacity: 4, ..FleetConfig::default() }
}

/// The offline reference: identically-built detectors through
/// [`DetectorFleet::run`].
fn reference_traces(sources: &[LabeledSeries]) -> Vec<Vec<StepOutput>> {
    let detectors: Vec<Detector> =
        sources.iter().map(|_| build_detector(spec(), &params())).collect();
    let mut fleet = DetectorFleet::new(detectors, fleet_config());
    let data: Vec<Vec<Vec<f64>>> = sources.iter().map(|s| s.data.clone()).collect();
    fleet.run(&data)
}

/// Collects served outputs per wire stream id.
#[derive(Default)]
struct Traces {
    by: Vec<Vec<StepOutput>>,
}

impl EngineSink for Traces {
    fn output(&mut self, stream: u64, out: &StepOutput) {
        let s = stream as usize;
        if self.by.len() <= s {
            self.by.resize_with(s + 1, Vec::new);
        }
        self.by[s].push(*out);
    }
}

fn engine(policy: BackpressurePolicy) -> IngestEngine {
    let cfg = EngineConfig { policy, ..EngineConfig::default() };
    IngestEngine::new(DetectorTemplate::new(spec(), params()), fleet_config(), cfg)
}

fn assert_bitwise(wire: &[StepOutput], reference: &[StepOutput], stream: usize) {
    assert_eq!(wire.len(), reference.len(), "stream {stream}: output count");
    for (w, r) in wire.iter().zip(reference) {
        assert_eq!(w.t, r.t, "stream {stream} step index");
        assert_eq!(
            w.nonconformity.to_bits(),
            r.nonconformity.to_bits(),
            "stream {stream} t={}: nonconformity",
            w.t,
        );
        assert_eq!(
            w.anomaly_score.to_bits(),
            r.anomaly_score.to_bits(),
            "stream {stream} t={}: anomaly score",
            w.t,
        );
        assert_eq!(
            (w.drift, w.fine_tuned),
            (r.drift, r.fine_tuned),
            "stream {stream} t={}: flags",
            w.t,
        );
    }
}

#[test]
fn tcp_loopback_framed_serving_matches_offline_run_bitwise() {
    let sources: Vec<LabeledSeries> = (0..STREAMS).map(series).collect();
    let reference = reference_traces(&sources);

    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().unwrap();
    let client_sources = sources.clone();
    let client = std::thread::spawn(move || {
        let socket = std::net::TcpStream::connect(addr).expect("loopback connect");
        let mut writer = FrameWriter::new(std::io::BufWriter::new(socket), Framing::Binary);
        let pairs: Vec<(u64, &LabeledSeries)> =
            client_sources.iter().enumerate().map(|(i, s)| (i as u64, s)).collect();
        let frames = replay_interleaved(&mut writer, &pairs).expect("replay over TCP");
        writer.flush().expect("flush");
        frames
    });

    let (socket, _) = listener.accept().expect("accept");
    let mut engine = engine(BackpressurePolicy::Block);
    let mut traces = Traces::default();
    engine.run(&mut FramedTransport::new(socket), &mut traces).expect("clean EOF");
    let frames = client.join().expect("client thread");

    assert_eq!(frames, STREAMS * LEN);
    let stats = engine.stats();
    assert_eq!(stats.frames, STREAMS * LEN);
    assert_eq!(stats.fleet.admitted, STREAMS, "every wire id admitted once");
    assert_eq!(stats.fleet.steps, STREAMS * LEN, "lossless under block policy");
    assert_eq!(stats.fleet.bp_dropped_newest + stats.fleet.bp_dropped_oldest, 0);
    assert_eq!(traces.by.len(), STREAMS);
    for (i, reference) in reference.iter().enumerate() {
        assert_bitwise(&traces.by[i], reference, i);
    }
}

#[test]
fn csv_framing_is_value_exact_and_matches_offline_run_bitwise() {
    let sources: Vec<LabeledSeries> = (0..STREAMS).map(series).collect();
    let reference = reference_traces(&sources);

    let mut writer = FrameWriter::new(Vec::new(), Framing::Csv);
    let pairs: Vec<(u64, &LabeledSeries)> =
        sources.iter().enumerate().map(|(i, s)| (i as u64, s)).collect();
    replay_interleaved(&mut writer, &pairs).expect("replay to memory");
    let wire = writer.into_inner();

    let mut engine = engine(BackpressurePolicy::Block);
    let mut traces = Traces::default();
    engine.run(&mut CsvTransport::new(Cursor::new(wire)), &mut traces).expect("clean EOF");

    assert_eq!(engine.stats().fleet.steps, STREAMS * LEN);
    for (i, reference) in reference.iter().enumerate() {
        assert_bitwise(&traces.by[i], reference, i);
    }
}

/// A client that sends each stream's whole series back to back overruns
/// the 4-deep queues (the engine is the slow consumer mid-burst). Under
/// the block policy the engine drains and retries: back-pressure provably
/// engages, nothing is lost, and every trace stays bitwise equal.
#[test]
fn bursty_client_under_block_policy_is_lossless_and_bitwise() {
    let sources: Vec<LabeledSeries> = (0..STREAMS).map(series).collect();
    let reference = reference_traces(&sources);

    let mut writer = FrameWriter::new(Vec::new(), Framing::Binary);
    for (i, s) in sources.iter().enumerate() {
        replay_series(&mut writer, i as u64, s).expect("replay to memory");
    }
    let wire = writer.into_inner();

    let mut engine = engine(BackpressurePolicy::Block);
    let mut traces = Traces::default();
    engine.run(&mut FramedTransport::new(Cursor::new(wire)), &mut traces).expect("clean EOF");

    let stats = engine.stats();
    assert!(stats.fleet.bp_blocked > 0, "burst must actually hit back-pressure: {stats:?}");
    assert_eq!(stats.fleet.steps, STREAMS * LEN, "block policy loses nothing");
    for (i, reference) in reference.iter().enumerate() {
        assert_bitwise(&traces.by[i], reference, i);
    }
}

/// The same burst under the drop policies: load is shed (and counted)
/// instead of stalling the transport, and what is served stays coherent —
/// the step budget accounts for every accepted frame.
#[test]
fn drop_policies_shed_the_burst_and_count_it() {
    for policy in [BackpressurePolicy::DropNewest, BackpressurePolicy::DropOldest] {
        let sources: Vec<LabeledSeries> = (0..STREAMS).map(series).collect();
        let mut writer = FrameWriter::new(Vec::new(), Framing::Binary);
        for (i, s) in sources.iter().enumerate() {
            replay_series(&mut writer, i as u64, s).expect("replay to memory");
        }
        let wire = writer.into_inner();

        let mut engine = engine(policy);
        let mut traces = Traces::default();
        engine.run(&mut FramedTransport::new(Cursor::new(wire)), &mut traces).expect("clean EOF");

        let stats = engine.stats();
        let dropped = stats.fleet.bp_dropped_newest + stats.fleet.bp_dropped_oldest;
        assert!(dropped > 0, "{policy:?}: burst must shed load: {stats:?}");
        assert_eq!(stats.fleet.bp_blocked, 0, "{policy:?}: drop policies never block");
        assert_eq!(
            stats.fleet.steps + dropped,
            STREAMS * LEN,
            "{policy:?}: every frame either served or counted dropped",
        );
        // Served outputs stay per-stream sequential: t is the detector's
        // own step counter, so each trace must be 0,1,2,… with no gaps.
        for (i, trace) in traces.by.iter().enumerate() {
            for (k, o) in trace.iter().enumerate() {
                assert_eq!(o.t, WARMUP + k, "{policy:?}: stream {i} trace is sequential");
            }
        }
    }
}

/// Back-to-back frames of drifting streams: every tick each stream sends
/// two to four frames in a row (the count cycles per stream and tick), so
/// rounds close on the count cadence and under the block policy's early
/// drains while adaptations are still in flight. Every trace is bitwise
/// the offline run's, and every frame is a step.
#[test]
fn back_to_back_frames_of_drifting_streams_match_offline_run_bitwise() {
    let sources: Vec<LabeledSeries> = (0..STREAMS).map(series).collect();
    let reference = reference_traces(&sources);
    let fine_tunes = reference.iter().flatten().filter(|o| o.fine_tuned).count();
    assert!(fine_tunes > STREAMS, "the streams drift and adapt: {fine_tunes}");

    let mut writer = FrameWriter::new(Vec::new(), Framing::Binary);
    let mut sent = [0usize; STREAMS];
    for tick in 0.. {
        if sent.iter().all(|&n| n == LEN) {
            break;
        }
        for (i, source) in sources.iter().enumerate() {
            let k = 2 + (i + tick) % 3;
            for _ in 0..k {
                if sent[i] < LEN {
                    writer.send(i as u64, &source.data[sent[i]]).expect("in-memory encode");
                    sent[i] += 1;
                }
            }
        }
    }
    let wire = writer.into_inner();

    let mut engine = engine(BackpressurePolicy::Block);
    let mut traces = Traces::default();
    engine.run(&mut FramedTransport::new(Cursor::new(wire)), &mut traces).expect("clean EOF");

    let stats = engine.stats();
    let dropped = stats.fleet.bp_dropped_newest + stats.fleet.bp_dropped_oldest;
    assert_eq!(stats.frames, STREAMS * LEN);
    assert_eq!(stats.fleet.steps + dropped, stats.frames, "every frame served or dropped");
    assert_eq!(dropped, 0, "block policy loses nothing");
    for (i, reference) in reference.iter().enumerate() {
        assert_bitwise(&traces.by[i], reference, i);
    }
}
