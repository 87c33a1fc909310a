//! Serving: binary frames from an in-memory wire through `FramedTransport`
//! → `IngestEngine` (Block policy) → `DetectorFleet`, one thread, closed
//! loop: the next frame is handed over as soon as the previous `ingest`
//! call returns.
//!
//! * `serve_churn`: about 32 live entities, each a distinct smd-like series
//!   with drift under a fresh wire id. Entities arrive staggered, live
//!   160 frames, go silent and are retired by `idle_rounds`.
//! * The replica probes of the traced `serve_churn` run: 64 identically
//!   seeded AE / SW / μσ detectors on a drift-free window-periodic stream
//!   (the `fleet_throughput` and `ingest_throughput` set-up), every round
//!   one 64-row cohort forward pass; f64 with telemetry on and off, f32
//!   weight snapshots, and two shards with the parallel drain on and off.
//!
//! A verdict's latency runs from handing its frame to `IngestEngine::ingest`
//! until the call that delivers its `StepOutput` to the sink returns.

use std::collections::VecDeque;
use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

use sad_core::{
    AlgorithmSpec, Detector, DetectorConfig, ModelKind, ScoreKind, StepOutput, Task1, Task2,
};
use sad_data::{smd_like, CorpusParams};
use sad_ingest::{
    DetectorTemplate, EngineConfig, FleetConfig, Frame, FrameWriter, FramedTransport, Framing,
    IngestEngine, IngestStats, Transport,
};
use sad_models::{build_detector, BuildParams};

use crate::split::{report_core_and_models, SplitStepper};
use crate::stats::{mean, median, quantile};
use crate::trace::{self, Name, Tracer};
use crate::{Args, Report, UnitLatency, DEFAULT_SEED};

const CHANNELS: usize = 38;
const WINDOW: usize = 10;
const WARMUP: usize = 200;
const STREAMS: usize = 64;
/// Untimed rounds before measuring: warm-up, the initial fit, cohort
/// formation.
const SETTLE_ROUNDS: usize = WARMUP + 32;
/// Rounds in one replay of the replica wire; a multiple of the stream's
/// period, so replaying the same bytes continues the stream exactly.
const SEGMENT_ROUNDS: usize = 500;
/// Churn set-ups timed before the run and again after it, beside the one
/// that serves; `setup_s` is the median of them all. None of them is live
/// beside the serving engine, so they leave peak RSS alone.
const SPARE_SETUPS: usize = 5;
/// The f32 serving contract (`FleetConfig::f32_infer`).
const F32_TOLERANCE: f64 = 5e-3;

/// Churn: distinct series, far more than live at once (no two live
/// entities share weights, and a run averages over many series); window,
/// warm-up, training-set capacity, frames per entity, entities live at
/// once. The detectors are smaller than the replica's: on smd-like noise
/// μσ-Change fires every dozen steps or so, each fine-tune costs about a
/// hundred predicts, and a run must serve enough entities that its
/// figures do not hinge on a few series.
const ENTITIES: usize = 160;
const CHURN_WINDOW: usize = 5;
const CHURN_WARMUP: usize = 50;
const CHURN_CAPACITY: usize = 16;
const LIFETIME: usize = 160;
const POPULATION: usize = 32;
const STAGGER: usize = LIFETIME / POPULATION;
/// One measured churn chunk admits this many entities.
const CHUNK_ENTITIES: usize = 40;
const CHUNK_TICKS: usize = CHUNK_ENTITIES * STAGGER;
const IDLE_ROUNDS: u64 = 4;

fn ae_spec() -> AlgorithmSpec {
    AlgorithmSpec {
        model: ModelKind::TwoLayerAe,
        task1: Task1::SlidingWindow,
        task2: Task2::MuSigma,
    }
}

fn build_params(seed: u64, window: usize, warmup: usize, capacity: usize) -> BuildParams {
    let config = DetectorConfig {
        window,
        channels: CHANNELS,
        warmup,
        initial_epochs: 4,
        fine_tune_epochs: 1,
    };
    BuildParams::new(config)
        .with_capacity(capacity)
        .with_score(ScoreKind::Raw)
        .with_seed(seed)
}

fn replica_params(seed: u64) -> BuildParams {
    build_params(seed, WINDOW, WARMUP, 32)
}

fn churn_params(seed: u64) -> BuildParams {
    build_params(seed, CHURN_WINDOW, CHURN_WARMUP, CHURN_CAPACITY)
}

fn fleet_config(f32_infer: bool, telemetry: bool, shards: usize, parallel: bool) -> FleetConfig {
    FleetConfig {
        shards,
        batching: true,
        parallel,
        queue_capacity: 4,
        f32_infer,
        telemetry,
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Folds one output into a running hash of a stream's trace.
fn fold(h: u64, o: &StepOutput) -> u64 {
    let flags = u64::from(o.drift) | u64::from(o.fine_tuned) << 1;
    [
        o.t as u64,
        o.nonconformity.to_bits(),
        o.anomaly_score.to_bits(),
        flags,
    ]
    .iter()
    .fold(h, |h, &x| splitmix(h ^ x))
}

fn same_bits(a: &StepOutput, b: &StepOutput) -> bool {
    a.t == b.t
        && a.nonconformity.to_bits() == b.nonconformity.to_bits()
        && a.anomaly_score.to_bits() == b.anomaly_score.to_bits()
        && a.drift == b.drift
        && a.fine_tuned == b.fine_tuned
}

/// The replica stream of `fleet_throughput`: period `WINDOW`, so the
/// training-set statistics are constant and μσ-Change never fires. Each
/// channel gets a phase shift drawn from the seed; none at the default
/// seed, which reproduces the committed benches' stream.
struct ReplicaStream {
    phase: Vec<f64>,
}

impl ReplicaStream {
    fn new(seed: u64) -> Self {
        let phase = (0..CHANNELS)
            .map(|c| {
                if seed == DEFAULT_SEED {
                    0.0
                } else {
                    let u = splitmix(seed ^ splitmix(c as u64)) >> 11;
                    std::f64::consts::TAU * u as f64 / (1u64 << 53) as f64
                }
            })
            .collect();
        Self { phase }
    }

    fn vector(&self, t: usize) -> Vec<f64> {
        let base = std::f64::consts::TAU * (t % WINDOW) as f64 / WINDOW as f64;
        (0..CHANNELS)
            .map(|c| {
                let scale = 1.0 + c as f64 * 0.1;
                (base + self.phase[c] + c as f64 * 0.37).sin() * scale + c as f64
            })
            .collect()
    }

    fn wire(&self, t0: usize, rounds: usize) -> Vec<u8> {
        let mut writer = FrameWriter::new(Vec::new(), Framing::Binary);
        for t in t0..t0 + rounds {
            let v = self.vector(t);
            for i in 0..STREAMS {
                writer.send(i as u64, &v).expect("in-memory encode");
            }
        }
        writer.into_inner()
    }
}

/// Per-frame bookkeeping of the measured loop.
#[derive(Default)]
struct Meter {
    /// Per wire id: ingest start of every frame still owed a verdict.
    pending: Vec<VecDeque<Instant>>,
    /// Frames per stream that get no verdict (the detectors' warm-up).
    warmup: usize,
    /// Per wire id: frames handed over.
    seen: Vec<usize>,
    delivered: Vec<(u64, StepOutput)>,
    latency_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    frames: u64,
    /// Verdicts for which no frame was waiting.
    unexpected: u64,
    live_max: usize,
}

impl Meter {
    /// Feeds every frame of `transport` to `engine`. With `TRACE`, each
    /// `Transport::next` and `ingest` call is a span, classified by what
    /// the call did.
    fn pump<const TRACE: bool>(
        &mut self,
        transport: &mut impl Transport,
        engine: &mut IngestEngine,
        tracer: &mut Tracer,
        mut on_output: impl FnMut(u64, &StepOutput),
    ) {
        let mut frame = Frame::default();
        loop {
            let more = if TRACE {
                let id = tracer.enter(Name::Decode, 0);
                let more = transport.next(&mut frame);
                tracer.exit(id);
                more
            } else {
                transport.next(&mut frame)
            };
            if !more.expect("the in-memory wire is well formed") {
                return;
            }
            let wire = frame.stream as usize;
            if wire >= self.seen.len() {
                self.seen.resize(wire + 1, 0);
                self.pending.resize_with(wire + 1, VecDeque::new);
            }
            let (known, rounds) = if TRACE {
                (engine.stream_id(frame.stream).is_some(), engine.rounds())
            } else {
                (true, 0)
            };
            let delivered = &mut self.delivered;
            let mut sink = |stream: u64, out: &StepOutput| delivered.push((stream, *out));
            let (start, end, span) = if TRACE {
                let span = tracer.enter(Name::RouteOffer, 0);
                let start = Instant::now();
                engine.ingest(&frame, &mut sink);
                let end = Instant::now();
                tracer.exit(span);
                (start, end, span)
            } else {
                let start = Instant::now();
                engine.ingest(&frame, &mut sink);
                (start, Instant::now(), 0)
            };
            if self.seen[wire] >= self.warmup {
                self.pending[wire].push_back(start);
            }
            self.seen[wire] += 1;
            self.frames += 1;
            if TRACE {
                let drained = engine.rounds() != rounds;
                if !known {
                    tracer.relabel(span, Name::Admit, 0);
                } else if drained {
                    tracer.relabel(span, Name::Round, 0);
                }
                if drained {
                    self.live_max = self.live_max.max(engine.fleet().live());
                }
            }
            self.deliver(Some((start, end)), TRACE, &mut on_output);
        }
    }

    /// Matches the verdicts the last call delivered with their frames; with
    /// `call` (its start and end), records their latency and, if `waits`,
    /// how long each frame queued before that call.
    fn deliver(
        &mut self,
        call: Option<(Instant, Instant)>,
        waits: bool,
        on_output: &mut impl FnMut(u64, &StepOutput),
    ) {
        for (stream, out) in self.delivered.drain(..) {
            match self
                .pending
                .get_mut(stream as usize)
                .and_then(VecDeque::pop_front)
            {
                Some(sent) => {
                    if let Some((start, end)) = call {
                        self.latency_us.push((end - sent).as_secs_f64() * 1e6);
                        if waits {
                            self.queue_wait_us.push((start - sent).as_secs_f64() * 1e6);
                        }
                    }
                }
                None => self.unexpected += 1,
            }
            on_output(stream, &out);
        }
    }

    /// Drains every queue (untimed end of run).
    fn finish(&mut self, engine: &mut IngestEngine, mut on_output: impl FnMut(u64, &StepOutput)) {
        let delivered = &mut self.delivered;
        engine.finish(&mut |stream: u64, out: &StepOutput| delivered.push((stream, *out)));
        self.deliver(None, false, &mut on_output);
    }

    /// Frames that never got their verdict.
    fn missing(&self) -> u64 {
        self.pending.iter().map(|p| p.len() as u64).sum()
    }
}

/// Failed share accounting common to the serving workloads: frames
/// rejected, dropped or width-mismatched, verdicts missing or unexpected,
/// and `steps + dropped = frames`.
fn account(report: &mut Report, meter: &Meter, stats: &IngestStats) {
    let f = &stats.fleet;
    let dropped = (f.bp_dropped_newest + f.bp_dropped_oldest) as u64;
    let lost = stats.rejected as u64 + stats.channel_mismatches as u64 + dropped;
    report.attempted += meter.frames;
    report.failed += lost + meter.missing() + meter.unexpected;
    report.check(lost == 0, || {
        format!("{lost} frames rejected, dropped or width-mismatched")
    });
    report.check(meter.missing() == 0, || {
        format!("{} verdicts missing", meter.missing())
    });
    report.check(meter.unexpected == 0, || {
        format!("{} verdicts unexpected", meter.unexpected)
    });
    report.check(
        (f.steps as u64) + dropped == meter.frames && stats.frames as u64 == meter.frames,
        || {
            format!(
                "steps {} + dropped {dropped} != frames {} (engine saw {})",
                f.steps, meter.frames, stats.frames
            )
        },
    );
}

/// One replica engine with its settle done, plus what its outputs fold to.
struct Replica {
    engine: IngestEngine,
    meter: Meter,
    /// Per stream: hash of its whole trace.
    hashes: Vec<u64>,
    /// Stream 0's whole trace, compared with the standalone replay.
    trace0: Vec<StepOutput>,
    replays: usize,
    f32_infer: bool,
}

impl Replica {
    fn new(settle: &[u8], seed: u64, config: FleetConfig) -> Self {
        let f32_infer = config.f32_infer;
        let engine = IngestEngine::new(
            DetectorTemplate::new(ae_spec(), replica_params(seed)),
            config,
            EngineConfig::default(),
        );
        let mut r = Replica {
            engine,
            meter: Meter {
                warmup: WARMUP,
                ..Meter::default()
            },
            hashes: vec![0; STREAMS],
            trace0: Vec::new(),
            replays: 0,
            f32_infer,
        };
        r.feed::<false>(settle, &mut Tracer::new());
        r.meter.latency_us.clear();
        r
    }

    /// Feeds one wire; returns its wall time.
    fn feed<const TRACE: bool>(&mut self, wire: &[u8], tracer: &mut Tracer) -> f64 {
        let Replica {
            engine,
            meter,
            hashes,
            trace0,
            ..
        } = self;
        let mut transport = FramedTransport::new(Cursor::new(wire));
        let t0 = Instant::now();
        meter.pump::<TRACE>(&mut transport, engine, tracer, |s, o| {
            hashes[s as usize] = fold(hashes[s as usize], o);
            if s == 0 {
                trace0.push(*o);
            }
        });
        t0.elapsed().as_secs_f64()
    }

    fn replay<const TRACE: bool>(&mut self, segment: &[u8], tracer: &mut Tracer) -> f64 {
        self.replays += 1;
        let wall = self.feed::<TRACE>(segment, tracer);
        self.meter.latency_us.clear();
        wall
    }

    /// Output checks: every stream's trace equals stream 0's, which must
    /// match the standalone replay (bitwise, or within the f32 contract).
    fn check(&mut self, report: &mut Report, reference: &[StepOutput], what: &str) {
        let Replica {
            engine,
            meter,
            hashes,
            trace0,
            f32_infer,
            ..
        } = self;
        let f32_infer = *f32_infer;
        meter.finish(engine, |s, o| {
            hashes[s as usize] = fold(hashes[s as usize], o);
            if s == 0 {
                trace0.push(*o);
            }
        });
        account(report, meter, &engine.stats());
        let split = hashes.iter().filter(|&&h| h != hashes[0]).count();
        report.check(split == 0, || {
            format!("{what}: {split} replicas diverge from stream 0")
        });
        report.check(trace0.len() <= reference.len(), || {
            format!("{what}: longer than its reference")
        });
        let bad = trace0
            .iter()
            .zip(reference)
            .filter(|(a, b)| {
                if f32_infer {
                    a.t != b.t
                        || a.drift != b.drift
                        || a.fine_tuned != b.fine_tuned
                        || (a.nonconformity - b.nonconformity).abs() > F32_TOLERANCE
                        || (a.anomaly_score - b.anomaly_score).abs() > F32_TOLERANCE
                } else {
                    !same_bits(a, b)
                }
            })
            .count();
        report.failed += bad as u64;
        report.check(bad == 0, || {
            format!(
                "{what}: {bad} of {} verdicts differ from the standalone replay",
                trace0.len()
            )
        });
        let stats = engine.stats().fleet;
        report.check(
            stats.admitted - stats.retired == engine.fleet().live(),
            || format!("{what}: admitted - retired != live"),
        );
        if f32_infer {
            report.check(stats.f32_rows > 0, || {
                format!("{what}: no rows took the f32 path")
            });
        } else {
            report.check(stats.f32_rows == 0, || {
                format!("{what}: f64 serving touched the f32 path")
            });
        }
    }
}

/// The standalone `Detector::step` replay of one replica stream, `len`
/// steps long.
fn replica_reference(stream: &ReplicaStream, seed: u64, len: usize) -> Vec<StepOutput> {
    let mut det = build_detector(ae_spec(), &replica_params(seed));
    (0..len)
        .filter_map(|t| det.step(&stream.vector(t)))
        .collect()
}

/// The replica probes' name for a serving-layer metric, for those the
/// replica's steady state exercises.
fn replica_name(name: &str) -> Option<&'static str> {
    Some(match name {
        "ingest.decode_ns" => "replica.decode_ns",
        "ingest.route_offer_ns" => "replica.route_offer_ns",
        "fleet.round_us.p50" => "replica.round_us.p50",
        "fleet.round_us.p99" => "replica.round_us.p99",
        "fleet.queue_wait_us" => "replica.queue_wait_us",
        "fleet.rows_per_batch" => "replica.rows_per_batch",
        "fleet.scalar_share" => "replica.scalar_share",
        _ => return None,
    })
}

/// The `ingest.*` / `fleet.*` metrics of a traced serving region.
fn report_serving_layers(
    report: &mut Report,
    tracer: &Tracer,
    meter: &mut Meter,
    engine: &IngestEngine,
    before: &IngestStats,
) {
    let after = engine.stats();
    let (a, b) = (&after.fleet, &before.fleet);
    let mut rounds = tracer.durations(Name::Round, None);
    let mut admits = tracer.durations(Name::Admit, None);
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    report.metric(
        "ingest.decode_ns",
        mean(tracer.durations(Name::Decode, None)),
    );
    report.metric(
        "ingest.route_offer_ns",
        mean(tracer.durations(Name::RouteOffer, None)),
    );
    report.metric(
        "ingest.admit_us",
        if admits.is_empty() {
            0.0
        } else {
            median(&mut admits) / 1e3
        },
    );
    report.metric("ingest.ids_issued", engine.fleet().len() as f64);
    report.metric("ingest.live_max", meter.live_max as f64);
    report.metric("ingest.retired", a.retired as f64);
    report.metric(
        "ingest.frames_per_round",
        ratio(
            after.frames - before.frames,
            (after.rounds - before.rounds) as usize,
        ),
    );
    report.metric("fleet.round_us.p50", quantile(&mut rounds, 0.5) / 1e3);
    report.metric("fleet.round_us.p99", quantile(&mut rounds, 0.99) / 1e3);
    report.metric("fleet.queue_wait_us", median(&mut meter.queue_wait_us));
    let steps = a.steps - b.steps;
    report.metric(
        "fleet.rows_per_batch",
        ratio(a.batched_rows - b.batched_rows, a.batches - b.batches),
    );
    report.metric(
        "fleet.scalar_share",
        ratio(a.scalar_steps - b.scalar_steps, steps),
    );
    report.metric(
        "fleet.cohort_rebuilds",
        (a.cohort_rebuilds - b.cohort_rebuilds) as f64,
    );
    report.metric("fleet.bp_blocked", (a.bp_blocked - b.bp_blocked) as f64);
}

fn write_spans(report: &mut Report, args: &Args, part: &str, tracer: &Tracer) {
    let path = format!(
        ".bench_out/spans-{}-{part}-seed{}.csv",
        args.workload, args.seed
    );
    if let Err(e) = tracer.write_csv(Path::new(&path)) {
        report.note(format!("could not write {path}: {e}"));
    }
}

/// The replica probes of the traced `serve_churn` run: the batched 64-stream
/// fleet of the committed `fleet_throughput` / `ingest_throughput` benches.
/// Untraced replays with telemetry on and off, interleaved, for a third of
/// the budget; as many traced replays; then f32 weight snapshots and two
/// shards with the parallel drain on and off. Every engine is checked
/// against one standalone replay.
fn replica_probes(args: &Args, report: &mut Report) {
    let seed = args.seed;
    let stream = ReplicaStream::new(seed);
    let settle = stream.wire(0, SETTLE_ROUNDS);
    let segment = stream.wire(SETTLE_ROUNDS, SEGMENT_ROUNDS);
    let mut main = Replica::new(&settle, seed, fleet_config(false, true, 1, false));
    let mut off = Replica::new(&settle, seed, fleet_config(false, false, 1, false));
    let mut tracer = Tracer::new();
    let (mut walls, mut off_walls, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while walls.len() < 3 || started.elapsed() < args.budget / 3 {
        walls.push(main.replay::<false>(&segment, &mut tracer));
        off_walls.push(off.replay::<false>(&segment, &mut tracer));
    }
    let before = main.engine.stats();
    main.meter.queue_wait_us.clear();
    for _ in 0..walls.len() {
        traced_walls.push(main.replay::<true>(&segment, &mut tracer));
    }
    let mut layers = Report::default();
    report_serving_layers(&mut layers, &tracer, &mut main.meter, &main.engine, &before);
    for (name, value) in layers.metrics {
        if let Some(name) = replica_name(name) {
            report.metric(name, value);
        }
    }
    let frames = (SEGMENT_ROUNDS * STREAMS) as f64;
    report.metric(
        "replica.steps_per_s",
        frames * walls.len() as f64 / walls.iter().sum::<f64>(),
    );
    let (on, off_median) = (median(&mut walls.clone()), median(&mut off_walls));
    report.metric("obs.telemetry_tax_pct", 100.0 * (on / off_median - 1.0));
    let mut probes = vec![("telemetry off", off)];
    // Each probe reports its median round.
    for (name, metric, config) in [
        (
            "f32",
            "fleet.f32_round_us",
            fleet_config(true, true, 1, false),
        ),
        (
            "shards=2 parallel",
            "fleet.parallel_round_us",
            fleet_config(false, true, 2, true),
        ),
        (
            "shards=2 serial",
            "fleet.serial_round_us",
            fleet_config(false, true, 2, false),
        ),
    ] {
        let mut probe = Replica::new(&settle, seed, config);
        let mut spans = Tracer::new();
        let before = probe.engine.stats().fleet;
        for _ in 0..walls.len().min(8) {
            probe.replay::<true>(&segment, &mut spans);
        }
        report.metric(
            metric,
            median(&mut spans.durations(Name::Round, None)) / 1e3,
        );
        if probe.f32_infer {
            let after = probe.engine.stats().fleet;
            let share =
                (after.f32_rows - before.f32_rows) as f64 / (after.steps - before.steps) as f64;
            report.metric("fleet.f32_share", share);
        }
        probes.push((name, probe));
    }

    // Output checks, outside the measured region.
    let longest = SETTLE_ROUNDS
        + SEGMENT_ROUNDS
            * probes
                .iter()
                .map(|(_, r)| r.replays)
                .chain([main.replays])
                .max()
                .unwrap_or(0);
    let reference = replica_reference(&stream, seed, longest);
    main.check(report, &reference, "replica");
    for (what, r) in &mut probes {
        r.check(report, &reference, &format!("replica {what}"));
    }
    // A drift-free stream never drifts or fine-tunes; the f32 probe's
    // flags are held to the f64 replay's in `check`. All replicas are
    // equal to stream 0, so its count stands for every stream.
    let tunes = main.trace0.iter().filter(|o| o.fine_tuned).count() * STREAMS;
    let drifts = main.trace0.iter().filter(|o| o.drift).count();
    report.check(drifts + tunes == 0, || {
        format!("{drifts} drifts and {tunes} fine-tunes on a drift-free stream")
    });
    report.metric("replica.fine_tunes", tunes as f64);
    write_spans(report, args, "replica", &tracer);
    report.note(format!(
        "replica probes: {} untraced and {} traced replays of {frames} frames",
        walls.len(),
        traced_walls.len(),
    ));
}

/// The churn schedule: entity `j` sends frames at ticks
/// `j·STAGGER .. j·STAGGER + LIFETIME` under wire id `j`, replaying series
/// `j % ENTITIES`.
struct Churn {
    series: Vec<Vec<Vec<f64>>>,
}

impl Churn {
    fn new(seed: u64) -> Self {
        let cp = CorpusParams {
            length: LIFETIME,
            n_series: ENTITIES,
            anomalies_per_series: 2,
            with_drift: true,
        };
        Self {
            series: smd_like(seed, cp)
                .series
                .into_iter()
                .map(|s| s.data)
                .collect(),
        }
    }

    /// Encodes ticks `from..to` into `out`; entities starting at or after
    /// `admit_before` are left out (the end-of-run flush).
    fn encode(&self, from: usize, to: usize, admit_before: usize, out: &mut Vec<u8>) {
        out.clear();
        let mut writer = FrameWriter::new(std::mem::take(out), Framing::Binary);
        for tick in from..to {
            let first = (tick + 1).saturating_sub(LIFETIME).div_ceil(STAGGER);
            let last = (tick / STAGGER).min(admit_before.saturating_sub(1));
            for j in first..=last {
                if j * STAGGER > tick || j >= admit_before {
                    continue;
                }
                let values = &self.series[j % ENTITIES][tick - j * STAGGER];
                writer.send(j as u64, values).expect("in-memory encode");
            }
        }
        *out = writer.into_inner();
    }
}

/// One churn set-up: the series, the first chunk's wire and the engine.
fn churn_setup(seed: u64, wire: &mut Vec<u8>, times: &mut Vec<f64>) -> (Churn, IngestEngine) {
    let t0 = Instant::now();
    let churn = Churn::new(seed);
    churn.encode(0, CHUNK_TICKS, usize::MAX, wire);
    let engine = IngestEngine::new(
        DetectorTemplate::new(ae_spec(), churn_params(seed)),
        fleet_config(false, true, 1, false),
        EngineConfig {
            idle_rounds: Some(IDLE_ROUNDS),
            ..EngineConfig::default()
        },
    );
    times.push(t0.elapsed().as_secs_f64());
    (churn, engine)
}

/// Per wire id: a running hash of the verdicts delivered and their count.
/// The check compares them with the standalone runs, so the run keeps no
/// copy of its outputs.
#[derive(Default)]
struct Received {
    per_id: Vec<(u64, usize)>,
    fine_tunes: u64,
}

impl Received {
    fn add(&mut self, stream: u64, out: &StepOutput) {
        let j = stream as usize;
        if j >= self.per_id.len() {
            self.per_id.resize(j + 1, (0, 0));
        }
        let (hash, count) = &mut self.per_id[j];
        *hash = fold(*hash, out);
        *count += 1;
        self.fine_tunes += u64::from(out.fine_tuned);
    }

    fn get(&self, j: usize) -> (u64, usize) {
        self.per_id.get(j).copied().unwrap_or((0, 0))
    }
}

pub fn churn(args: &Args) -> Report {
    let mut report = Report::default();
    let seed = args.seed;
    let spares = if args.trace { 0 } else { SPARE_SETUPS };
    let mut setup_times = Vec::new();
    let mut wire = Vec::new();
    for _ in 0..spares {
        drop(churn_setup(seed, &mut wire, &mut setup_times));
    }
    let (churn, mut engine) = churn_setup(seed, &mut wire, &mut setup_times);
    let mut meter = Meter {
        warmup: CHURN_WARMUP,
        ..Meter::default()
    };
    let mut tracer = Tracer::new();
    let mut received = Received::default();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut units = Vec::new();
    let mut chunk = 0usize;
    let mut before = engine.stats();
    let started = Instant::now();
    let budget = if args.trace {
        args.budget / 2
    } else {
        args.budget
    };
    loop {
        if chunk > 0 {
            churn.encode(
                chunk * CHUNK_TICKS,
                (chunk + 1) * CHUNK_TICKS,
                usize::MAX,
                &mut wire,
            );
        }
        let traced = args.trace && !walls.is_empty() && started.elapsed() >= budget;
        if traced && traced_walls.is_empty() {
            before = engine.stats();
            meter.queue_wait_us.clear();
        }
        let mut transport = FramedTransport::new(Cursor::new(&wire[..]));
        let sink = |s: u64, o: &StepOutput| received.add(s, o);
        let t0 = Instant::now();
        if traced {
            meter.pump::<true>(&mut transport, &mut engine, &mut tracer, sink);
            traced_walls.push(t0.elapsed().as_secs_f64());
        } else {
            meter.pump::<false>(&mut transport, &mut engine, &mut tracer, sink);
            walls.push(t0.elapsed().as_secs_f64());
            units.push(UnitLatency::take(&mut meter.latency_us));
        }
        chunk += 1;
        let done = if args.trace {
            traced_walls.len() >= walls.len()
        } else {
            walls.len() >= 3 && started.elapsed() >= budget
        };
        if done {
            break;
        }
    }
    let peak_rss_mb = crate::peak_rss_mb();
    if args.trace {
        report_serving_layers(&mut report, &tracer, &mut meter, &engine, &before);
        let traced_ns: f64 = traced_walls.iter().sum::<f64>() * 1e9;
        trace::self_pct(&mut report, &tracer, traced_ns);
        let (plain, traced) = (
            median(&mut walls.clone()),
            median(&mut traced_walls.clone()),
        );
        report.metric("trace.overhead_pct", 100.0 * (traced / plain - 1.0));
    }
    let timed_frames = meter.frames;

    // Untimed: let every admitted entity finish its series, then drain.
    let admitted = chunk * CHUNK_ENTITIES;
    churn.encode(
        chunk * CHUNK_TICKS,
        chunk * CHUNK_TICKS + LIFETIME,
        admitted,
        &mut wire,
    );
    let mut transport = FramedTransport::new(Cursor::new(&wire[..]));
    meter.pump::<false>(&mut transport, &mut engine, &mut tracer, |s, o| {
        received.add(s, o)
    });
    meter.finish(&mut engine, |s, o| received.add(s, o));

    // Output checks: each entity against a standalone run of its series.
    let mut ref_tracer = Tracer::new();
    let t0 = Instant::now();
    let reference: Vec<(u64, usize)> = churn.series[..admitted.min(ENTITIES)]
        .iter()
        .map(|series| {
            let mut det: Detector = build_detector(ae_spec(), &churn_params(seed));
            let outs = if args.trace {
                let mut stepper = SplitStepper::new(ModelKind::TwoLayerAe, Task2::MuSigma);
                (0..series.len())
                    .filter_map(|i| stepper.step(&mut det, series, i, &mut ref_tracer))
                    .collect()
            } else {
                det.run(series)
            };
            (outs.iter().fold(0, fold), outs.len())
        })
        .collect();
    let ref_ns = t0.elapsed().as_secs_f64() * 1e9;
    let mut differ = 0usize;
    for j in 0..admitted {
        let (got, expect) = (received.get(j), reference[j % ENTITIES]);
        if got != expect {
            differ += 1;
            report.failed += got.1.max(expect.1) as u64;
        }
    }
    account(&mut report, &meter, &engine.stats());
    report.check(differ == 0, || {
        format!("{differ} of {admitted} entities' verdicts differ from their standalone runs")
    });
    let stats = engine.stats().fleet;
    report.check(stats.admitted == admitted, || {
        format!("admitted {} of {admitted} entities", stats.admitted)
    });
    report.check(
        stats.admitted - stats.retired == engine.fleet().live(),
        || {
            format!(
                "admitted {} - retired {} != live {}",
                stats.admitted,
                stats.retired,
                engine.fleet().live()
            )
        },
    );

    if args.trace {
        report_core_and_models(&mut report, &ref_tracer, ref_ns);
        write_spans(&mut report, args, "churn", &tracer);
        report.note(format!(
            "serve_churn: {} untraced and {} traced chunks, {admitted} entities",
            walls.len(),
            traced_walls.len()
        ));
        drop((churn, engine));
        replica_probes(args, &mut report);
        return report;
    }
    drop((churn, engine));
    for _ in 0..spares {
        drop(churn_setup(seed, &mut wire, &mut setup_times));
    }
    let total: f64 = walls.iter().sum();
    report.note(format!(
        "serve_churn: {} chunks, {timed_frames} frames, {admitted} entities, {} fine-tunes",
        walls.len(),
        received.fine_tunes,
    ));
    crate::report_end_to_end(
        &mut report,
        timed_frames as f64 / total,
        &units,
        peak_rss_mb,
        median(&mut setup_times),
    );
    report
}
