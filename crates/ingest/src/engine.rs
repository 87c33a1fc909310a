//! The ingestion engine: frames in, [`StepOutput`]s out.
//!
//! [`IngestEngine`] sits between a [`Transport`](crate::Transport) and a
//! [`DetectorFleet`]: it routes each decoded frame to the fleet stream
//! serving that wire id, admits a freshly-built detector on first contact
//! with an unknown id ([`DetectorTemplate`]), resolves full queues under
//! the configured [`BackpressurePolicy`], schedules fleet drain rounds,
//! and retires streams that have gone idle. The frame→enqueue→drain hot
//! path is zero-alloc in steady state (`tests/zero_alloc.rs`): routing is
//! a hash lookup, admission/retirement are the only allocating paths and
//! both are per-entity-lifetime events, not per-frame ones.
//!
//! ## Round scheduling
//!
//! The engine drains one fleet round after every `live-stream-count`
//! frames. A round serves one queued frame per stream, so the frames a
//! stream sends between two rounds (its share of one round window) are
//! served one per round, in order. Under [`BackpressurePolicy::Block`] a
//! frame never queues behind frames of its own stream that a round has
//! passed over: if a stream sends again while frames it queued before
//! the latest round still wait, the engine first drains rounds until
//! they are served, and a full queue is drained the same way. So a
//! stream's queue only ever holds frames from one round window, and the
//! *k*-th frame a stream queues in a window is served by the *k*-th round
//! after it is queued. On the churn shape of `tests/next_round.rs` (one
//! frame per stream per tick, a retiring stream live beside the senders)
//! that serves every frame by the first round after its `ingest` call,
//! or within that call when it closes a round. A repeat within one window
//! does not close a round: frames sent back to back queue behind each
//! other and the count rule paces them, so a burst does not cost a round
//! per frame. The drop policies keep the count cadence alone: they exist
//! to shed a stream that outpaces the rounds, and an early round would
//! serve that stream instead.
//!
//! A round's verdicts do not wait for the fine-tunes the round triggers:
//! a drifted stream's adaptation runs in the fleet's background from the
//! end of its scoring step until the next round in which the stream has
//! a frame, which finishes it first if it is still running
//! ([`DetectorFleet::drain_round`]). So a verdict waits for another
//! stream's fine-tune only when that stream resumes in the verdict's own
//! round before its fine-tune is done.
//!
//! Per-stream traces are invariant to the drain schedule — each detector
//! consumes its own queue in arrival order, and the batched path is
//! bitwise-identical to scalar stepping — so serve-mode outputs match
//! [`DetectorFleet::run`] exactly no matter how the wire interleaves
//! frames (`tests/serve_parity.rs`).
//!
//! ## Dynamic admission
//!
//! A frame with an unknown wire id builds a detector through the
//! template (channel count taken from the frame) and admits it to the
//! least-loaded shard. A live stream is retired by the first round that
//! finds its queue empty once more than [`EngineConfig::idle_rounds`]
//! rounds have run since its last frame was queued. Every round counts,
//! early ones included. For a stream whose last frame the next round
//! serves, that is after N quiet rounds: with N idle rounds, a stream
//! whose last frame round *r* serves is retired at the end of round
//! *r* + N. Its detector (and memory) is dropped, its fleet id is free
//! for the next admission, and the same wire id arriving later is
//! admitted again from scratch with a fresh warm-up. A stream never
//! retires while its own `ingest` call drains rounds for it: the call
//! stamps the stream before each of them.

use std::collections::HashMap;
use std::io;

use sad_core::{AlgorithmSpec, Detector, StepOutput};
use sad_fleet::{BackpressurePolicy, DetectorFleet, FleetConfig, FleetStats, OfferOutcome};
use sad_models::{build_detector, BuildParams};
use sad_obs::{Histogram, Registry};

use crate::frame::Frame;
use crate::transport::Transport;

/// Recipe for detectors built on dynamic admission: a Table I algorithm
/// plus build parameters whose channel count is stamped per stream from
/// the first frame's width.
#[derive(Debug, Clone)]
pub struct DetectorTemplate {
    spec: AlgorithmSpec,
    params: BuildParams,
}

impl DetectorTemplate {
    /// A template from an algorithm spec and its build parameters. The
    /// `channels` field of `params.config` is overwritten per admission.
    pub fn new(spec: AlgorithmSpec, params: BuildParams) -> Self {
        Self { spec, params }
    }

    /// Builds one detector for a stream with `channels` channels.
    pub fn build(&self, channels: usize) -> Detector {
        let mut params = self.params.clone();
        params.config.channels = channels;
        build_detector(self.spec, &params)
    }

    /// The algorithm this template instantiates.
    pub fn spec(&self) -> AlgorithmSpec {
        self.spec
    }
}

/// Engine policy knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// How a stream that sends faster than the rounds run is held back.
    /// `Block` (lossless) never queues a frame behind frames of its own
    /// stream that a round has passed over, nor into a full queue: it
    /// drains rounds until they are served. The drop policies keep the
    /// count cadence and shed load once a stream's queue holds
    /// `FleetConfig::queue_capacity` frames. That capacity bounds every
    /// policy's burst: under `Block`, the frames one stream may queue in
    /// one round window.
    pub policy: BackpressurePolicy,
    /// Retire a stream once its queue is empty and more than this many
    /// drain rounds, early ones included, have run since its last frame
    /// was queued: for a stream whose last frame the next round serves,
    /// after this many quiet rounds. Must be positive; `None` = never
    /// retire.
    pub idle_rounds: Option<u64>,
    /// Cap on concurrently live streams. Frames for unknown ids beyond
    /// the cap are rejected (counted in `sad_ingest_rejected_total`).
    pub max_streams: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            policy: BackpressurePolicy::Block,
            idle_rounds: None,
            max_streams: 65_536,
        }
    }
}

/// Receives engine outputs. `output` fires once per post-warm-up detector
/// step, keyed by *wire* stream id; `round` fires after every drain round
/// (periodic reporting hook — default no-op).
pub trait EngineSink {
    /// One detector step result for wire stream `stream`.
    fn output(&mut self, stream: u64, out: &StepOutput);

    /// A drain round completed. `rounds` counts them from engine start.
    fn round(&mut self, rounds: u64, engine_stats: &IngestStats) {
        let _ = (rounds, engine_stats);
    }
}

/// Closures are sinks: `|stream, out| …`.
impl<F: FnMut(u64, &StepOutput)> EngineSink for F {
    fn output(&mut self, stream: u64, out: &StepOutput) {
        self(stream, out)
    }
}

/// Cumulative engine counters plus the fleet's own serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Frames handed to the engine, whatever became of them: queued, shed
    /// by a drop policy, rejected for a non-finite value, rejected by the
    /// live-stream cap, or ignored for a wrong channel width.
    pub frames: usize,
    /// Payload bytes consumed from transports.
    pub bytes: u64,
    /// Frames rejected for holding a NaN or ±∞ value.
    pub non_finite: usize,
    /// Frames for unknown wire ids rejected by the live-stream cap.
    pub rejected: usize,
    /// Frames whose channel count disagreed with their stream's detector.
    pub channel_mismatches: usize,
    /// Drain rounds executed.
    pub rounds: u64,
    /// Streams retired by the idle timeout.
    pub idle_retired: usize,
    /// The fleet's serving counters (steps, batching, back-pressure,
    /// admission).
    pub fleet: FleetStats,
}

/// One fleet stream's engine state, overwritten when an admission reuses
/// the fleet id.
#[derive(Clone, Copy, Default)]
struct StreamRecord {
    /// The wire id the stream serves.
    wire: u64,
    /// The channel width of its detector, taken from its first frame.
    channels: usize,
    /// Drain-round count when its last frame was queued (or when its
    /// `ingest` call last drained a round for it).
    last_input: u64,
}

/// The ingestion engine. See the module docs for the routing, round
/// scheduling and admission model.
pub struct IngestEngine {
    fleet: DetectorFleet,
    template: DetectorTemplate,
    cfg: EngineConfig,
    /// Wire id → fleet stream id (live streams only).
    route: HashMap<u64, usize>,
    /// Indexed by fleet stream id, so it spans the fleet's slot table.
    streams: Vec<StreamRecord>,
    frames_since_drain: usize,
    out: Vec<Option<StepOutput>>,
    /// The engine's own counters (`rounds` is the drain-round clock);
    /// `fleet` stays default here and is read from the fleet by
    /// [`Self::stats`].
    stats: IngestStats,
    /// Frames ingested between consecutive drain rounds.
    round_frames: Histogram,
}

impl IngestEngine {
    /// An engine over an empty fleet ([`DetectorFleet::open`]); streams
    /// are admitted from the wire on first contact.
    pub fn new(template: DetectorTemplate, fleet: FleetConfig, cfg: EngineConfig) -> Self {
        assert!(cfg.max_streams > 0, "an engine needs room for at least one stream");
        assert!(cfg.idle_rounds != Some(0), "idle_rounds must be positive");
        Self {
            fleet: DetectorFleet::open(fleet),
            template,
            cfg,
            route: HashMap::new(),
            streams: Vec::new(),
            frames_since_drain: 0,
            out: Vec::new(),
            stats: IngestStats::default(),
            round_frames: Histogram::log2(1.0, 65_536.0),
        }
    }

    /// Ingests one decoded frame: route (admitting on first contact),
    /// offer under the back-pressure policy, and drain once one frame per
    /// live stream has arrived. Under [`BackpressurePolicy::Block`], a
    /// frame whose stream still has frames a round has passed over, or a
    /// full queue, first drains rounds until they are served.
    ///
    /// A frame holding a NaN or ±∞ is counted in
    /// [`IngestStats::non_finite`] and goes no further: it admits no
    /// detector, refreshes no idle timer and does not count toward the
    /// drain cadence.
    pub fn ingest(&mut self, frame: &Frame, sink: &mut impl EngineSink) {
        self.stats.frames += 1;
        if !frame.values.iter().all(|v| v.is_finite()) {
            self.stats.non_finite += 1;
            return;
        }
        let id = match self.route.get(&frame.stream) {
            Some(&id) => id,
            None => {
                if self.fleet.live() >= self.cfg.max_streams {
                    self.stats.rejected += 1;
                    return;
                }
                let channels = frame.values.len();
                let id = self.fleet.admit(self.template.build(channels));
                self.route.insert(frame.stream, id);
                self.streams.resize(self.streams.len().max(id + 1), StreamRecord::default());
                let last_input = self.stats.rounds;
                self.streams[id] = StreamRecord { wire: frame.stream, channels, last_input };
                id
            }
        };
        if self.streams[id].channels != frame.values.len() {
            self.stats.channel_mismatches += 1;
            return;
        }
        // Under Block a frame never queues behind frames of its own stream
        // that a round has passed over (module docs), nor into a full
        // queue. A stream in contact is not idle: stamping it before each
        // round keeps those rounds from retiring it.
        loop {
            let passed_over = self.cfg.policy == BackpressurePolicy::Block
                && self.streams[id].last_input < self.stats.rounds
                && self.fleet.queued(id) > 0;
            if !passed_over {
                match self.fleet.offer(id, &frame.values, self.cfg.policy) {
                    OfferOutcome::Enqueued
                    | OfferOutcome::DroppedNewest
                    | OfferOutcome::DroppedOldest => break,
                    OfferOutcome::WouldBlock => {}
                }
            }
            self.streams[id].last_input = self.stats.rounds;
            self.drain(sink);
        }
        self.streams[id].last_input = self.stats.rounds;
        self.frames_since_drain += 1;
        if self.frames_since_drain >= self.fleet.live().max(1) {
            self.drain(sink);
        }
    }

    /// Runs one fleet drain round, delivers its outputs, and sweeps for
    /// idle streams to retire.
    fn drain(&mut self, sink: &mut impl EngineSink) {
        self.round_frames.record(self.frames_since_drain as f64);
        self.frames_since_drain = 0;
        self.fleet.drain_round(&mut self.out);
        self.stats.rounds += 1;
        for (id, o) in self.out.iter().enumerate() {
            if let Some(o) = o {
                sink.output(self.streams[id].wire, o);
            }
        }

        if let Some(idle) = self.cfg.idle_rounds {
            for (id, stream) in self.streams.iter().enumerate() {
                if self.fleet.is_live(id)
                    && self.stats.rounds - stream.last_input > idle
                    && self.fleet.queued(id) == 0
                {
                    self.fleet.retire(id);
                    self.route.remove(&stream.wire);
                    self.stats.idle_retired += 1;
                }
            }
        }
        sink.round(self.stats.rounds, &self.stats());
    }

    /// Drains until every queue is empty (end-of-stream flush), closing
    /// the round of any frame ingested since the last drain, then settles
    /// the fleet ([`DetectorFleet::settle`]): every adaptation in flight
    /// lands, so the fleet's detectors and [`Self::export_metrics`] see
    /// them all.
    pub fn finish(&mut self, sink: &mut impl EngineSink) {
        while self.frames_since_drain > 0 || self.fleet.pending() > 0 {
            self.drain(sink);
        }
        self.fleet.settle();
    }

    /// Pumps `transport` to end-of-stream: decode → [`Self::ingest`] →
    /// flush. On a transport/protocol error the backlog already queued is
    /// still drained before the error is returned, so no accepted frame
    /// is lost to a dirty disconnect.
    pub fn run<T: Transport>(&mut self, transport: &mut T, sink: &mut impl EngineSink) -> io::Result<()> {
        let mut frame = Frame::default();
        let before = transport.bytes_read();
        let result = loop {
            match transport.next(&mut frame) {
                Ok(true) => self.ingest(&frame, sink),
                Ok(false) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        self.stats.bytes += transport.bytes_read() - before;
        self.finish(sink);
        result
    }

    /// Counter snapshot (engine + fleet).
    pub fn stats(&self) -> IngestStats {
        IngestStats { fleet: self.fleet.stats(), ..self.stats }
    }

    /// The fleet this engine feeds.
    pub fn fleet(&self) -> &DetectorFleet {
        &self.fleet
    }

    /// Drain rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.stats.rounds
    }

    /// Fleet stream id currently serving wire id `stream`, if live.
    pub fn stream_id(&self, stream: u64) -> Option<usize> {
        self.route.get(&stream).copied()
    }

    /// Exports the full metric registry: the `sad_ingest_*` families plus
    /// everything [`DetectorFleet::export_metrics`] aggregates (shard
    /// serving counters, back-pressure/admission counters, detector
    /// lifecycle). Allocates — export path only.
    ///
    /// # Panics
    /// Panics while a stream is away on its adaptation, that is, between
    /// rounds before [`Self::finish`] (see [`DetectorFleet::drain_round`]).
    pub fn export_metrics(&self) -> Registry {
        let mut reg = self.fleet.export_metrics();
        let s = &self.stats;
        for (name, help, value) in [
            ("sad_ingest_frames_total", "Frames decoded and routed.", s.frames as u64),
            ("sad_ingest_bytes_total", "Payload bytes consumed from transports.", s.bytes),
            (
                "sad_ingest_non_finite_total",
                "Frames rejected for holding a NaN or infinite value.",
                s.non_finite as u64,
            ),
            (
                "sad_ingest_rejected_total",
                "Frames for unknown wire ids rejected by the live-stream cap.",
                s.rejected as u64,
            ),
            (
                "sad_ingest_channel_mismatch_total",
                "Frames whose channel count disagreed with their stream's detector.",
                s.channel_mismatches as u64,
            ),
            ("sad_ingest_rounds_total", "Fleet drain rounds executed.", s.rounds),
            (
                "sad_ingest_idle_retired_total",
                "Streams retired by the idle timeout.",
                s.idle_retired as u64,
            ),
        ] {
            reg.register_counter(name, help, value);
        }
        reg.register_histogram(
            "sad_ingest_round_frames",
            "Frames ingested between consecutive drain rounds.",
            self.round_frames.clone(),
        );
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sad_core::{DetectorConfig, ModelKind, ScoreKind, Task1, Task2};

    fn template(window: usize, warmup: usize) -> DetectorTemplate {
        let spec = AlgorithmSpec {
            model: ModelKind::TwoLayerAe,
            task1: Task1::SlidingWindow,
            task2: Task2::MuSigma,
        };
        let config =
            DetectorConfig { window, channels: 1, warmup, initial_epochs: 1, fine_tune_epochs: 1 };
        DetectorTemplate::new(
            spec,
            BuildParams::new(config).with_capacity(12).with_score(ScoreKind::Raw).with_seed(5),
        )
    }

    fn frame(stream: u64, values: &[f64]) -> Frame {
        Frame { stream, values: values.to_vec() }
    }

    #[derive(Default)]
    struct Collect {
        outputs: Vec<(u64, StepOutput)>,
        /// The round that retired each idle stream, in retirement order.
        retired_at: Vec<u64>,
    }

    impl EngineSink for Collect {
        fn output(&mut self, stream: u64, out: &StepOutput) {
            self.outputs.push((stream, *out));
        }

        fn round(&mut self, rounds: u64, engine_stats: &IngestStats) {
            self.retired_at.resize(engine_stats.idle_retired, rounds);
        }
    }

    #[test]
    fn first_contact_admits_and_channel_width_comes_from_the_frame() {
        let mut engine = IngestEngine::new(
            template(4, 30),
            FleetConfig::default(),
            EngineConfig::default(),
        );
        let mut sink = Collect::default();
        engine.ingest(&frame(99, &[0.5, 1.0, -0.5]), &mut sink);
        engine.ingest(&frame(7, &[0.5]), &mut sink);
        assert_eq!(engine.fleet().live(), 2);
        let id99 = engine.stream_id(99).unwrap();
        assert_eq!(engine.fleet().detector(id99).config().channels, 3);
        let id7 = engine.stream_id(7).unwrap();
        assert_eq!(engine.fleet().detector(id7).config().channels, 1);
        // A later frame with the wrong width is counted and ignored.
        engine.ingest(&frame(99, &[1.0]), &mut sink);
        assert_eq!(engine.stats().channel_mismatches, 1);
        assert_eq!(engine.stats().frames, 3);
        // Non-finite frames, for a known and an unknown id, are counted
        // and go no further: nothing is admitted, queued or stepped.
        let queued = engine.fleet().queued(id7);
        engine.ingest(&frame(7, &[f64::NAN]), &mut sink);
        engine.ingest(&frame(5, &[f64::INFINITY, 0.5]), &mut sink);
        let stats = engine.stats();
        assert_eq!((stats.non_finite, stats.frames), (2, 5));
        assert_eq!((engine.fleet().live(), stats.fleet.admitted), (2, 2));
        assert!(engine.stream_id(5).is_none());
        assert_eq!(engine.fleet().queued(id7), queued, "the NaN frame was not queued");
        engine.finish(&mut sink);
        assert_eq!(engine.stats().fleet.steps, 2, "only the two admitting frames stepped");
    }

    #[test]
    fn live_stream_cap_rejects_new_ids_but_serves_known_ones() {
        let cfg = EngineConfig { max_streams: 1, ..EngineConfig::default() };
        let mut engine = IngestEngine::new(template(4, 10), FleetConfig::default(), cfg);
        let mut sink = Collect::default();
        engine.ingest(&frame(1, &[0.1]), &mut sink);
        engine.ingest(&frame(2, &[0.2]), &mut sink);
        engine.ingest(&frame(1, &[0.3]), &mut sink);
        let stats = engine.stats();
        assert_eq!(engine.fleet().live(), 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.fleet.admitted, 1);
    }

    #[test]
    fn idle_streams_retire_and_return_on_next_contact() {
        let cfg = EngineConfig { idle_rounds: Some(4), ..EngineConfig::default() };
        let mut engine = IngestEngine::new(template(4, 10), FleetConfig::default(), cfg);
        let mut sink = Collect::default();
        // Two streams; stream 2 goes quiet while stream 1 keeps rounds
        // ticking. Its NaN frames are rejected and refresh no idle timer.
        for t in 0..6 {
            engine.ingest(&frame(1, &[t as f64]), &mut sink);
            engine.ingest(&frame(2, &[t as f64]), &mut sink);
        }
        assert_eq!(engine.fleet().live(), 2);
        let last_input = engine.rounds();
        for t in 6..20 {
            engine.ingest(&frame(1, &[t as f64]), &mut sink);
            engine.ingest(&frame(2, &[f64::NAN]), &mut sink);
        }
        assert_eq!(engine.fleet().live(), 1, "idle stream 2 was retired");
        assert!(engine.stream_id(2).is_none());
        assert_eq!(engine.stats().idle_retired, 1);
        // Round `last_input + 1` served stream 2's last frame; four quiet
        // rounds later, the last of them retired it.
        assert_eq!(sink.retired_at, [last_input + 1 + 4]);
        // Stream 2 comes back: admitted afresh with a fresh detector.
        engine.ingest(&frame(2, &[0.0]), &mut sink);
        assert_eq!(engine.fleet().live(), 2);
        assert_eq!(engine.stats().fleet.admitted, 3);
        assert_eq!(engine.stream_id(2), Some(1), "the vacated slot's id is reused");
    }

    #[test]
    fn finish_flushes_every_queued_frame() {
        // Three live streams drain once per three frames. Interleaved
        // ticks keep every queue short; after the first frame of the next
        // tick closes the last round, two back-to-back frames for wire id
        // 2 stay below the cadence and leave it a two-deep backlog that
        // `finish` needs two rounds to serve.
        let mut engine =
            IngestEngine::new(template(4, 6), FleetConfig::default(), EngineConfig::default());
        let mut sink = Collect::default();
        let value = |t: usize, id: u64| [(t as f64 * 0.4 + id as f64).sin()];
        for t in 0..20 {
            for id in [1, 2, 3] {
                engine.ingest(&frame(id, &value(t, id)), &mut sink);
            }
        }
        engine.ingest(&frame(1, &value(20, 1)), &mut sink);
        assert_eq!(engine.stats().fleet.steps, 61, "the cadence served every frame so far");
        engine.ingest(&frame(2, &value(20, 2)), &mut sink);
        engine.ingest(&frame(2, &value(21, 2)), &mut sink);
        assert_eq!(engine.fleet().queued(engine.stream_id(2).unwrap()), 2, "backlog of two");
        let rounds = engine.stats().rounds;
        engine.finish(&mut sink);
        assert_eq!(engine.stats().rounds, rounds + 2, "one round per queued frame");
        assert_eq!(engine.stats().fleet.steps, 63, "finish served the whole backlog");
        // warm-up 6: 21, 22 and 20 frames give 15, 16 and 14 outputs.
        let outputs = |id| sink.outputs.iter().filter(|(s, _)| *s == id).count();
        assert_eq!((outputs(1), outputs(2), outputs(3)), (15, 16, 14));
    }

    #[test]
    fn a_backlog_a_round_passed_over_is_served_before_its_stream_queues_again() {
        // The set-up of `finish_flushes_every_queued_frame`: wire id 2
        // holds two back-to-back frames, queued within one round window.
        use BackpressurePolicy::{Block, DropOldest};
        for policy in [Block, DropOldest] {
            let cfg = EngineConfig { policy, ..EngineConfig::default() };
            let mut engine = IngestEngine::new(template(4, 6), FleetConfig::default(), cfg);
            let mut sink = Collect::default();
            let value = |t: usize, id: u64| [(t as f64 * 0.4 + id as f64).sin()];
            for t in 0..20 {
                for id in [1, 2, 3] {
                    engine.ingest(&frame(id, &value(t, id)), &mut sink);
                }
            }
            engine.ingest(&frame(1, &value(20, 1)), &mut sink);
            engine.ingest(&frame(2, &value(20, 2)), &mut sink);
            engine.ingest(&frame(2, &value(21, 2)), &mut sink);
            let id2 = engine.stream_id(2).unwrap();
            // The next count round serves one of them and passes over the
            // other.
            let rounds = engine.rounds();
            engine.ingest(&frame(3, &value(20, 3)), &mut sink);
            let state = (engine.rounds(), engine.fleet().queued(id2));
            assert_eq!(state, (rounds + 1, 1), "{policy:?}");
            // Wire id 2 sends again. Under Block one early round serves
            // the passed-over frame first, so the new one queues alone;
            // the drop policies keep the count cadence and stack it.
            engine.ingest(&frame(2, &value(22, 2)), &mut sink);
            let (early, depth) = if policy == Block { (1, 1) } else { (0, 2) };
            let state = (engine.rounds(), engine.fleet().queued(id2));
            assert_eq!(state, (rounds + 1 + early, depth), "{policy:?}");
            // A repeat within the same round window queues under either.
            engine.ingest(&frame(2, &value(23, 2)), &mut sink);
            let state = (engine.rounds(), engine.fleet().queued(id2));
            assert_eq!(state, (rounds + 1 + early, depth + 1), "{policy:?}");
        }
    }

    #[test]
    fn back_to_back_frames_keep_the_count_cadence_and_the_idle_clock() {
        // Four streams each send two frames back to back per tick. One
        // round per four frames serves every queue once per round, and
        // no frame meets a backlog a round passed over: the rounds keep
        // pace with the frames, two per tick, whatever the stream count.
        let cfg = EngineConfig { idle_rounds: Some(4), ..EngineConfig::default() };
        let mut engine = IngestEngine::new(template(4, 6), FleetConfig::default(), cfg);
        let mut sink = Collect::default();
        let value = |t: usize, id: u64| [(t as f64 * 0.4 + id as f64).sin()];
        let tick = |engine: &mut IngestEngine, sink: &mut Collect, t: usize, ids: &[u64]| {
            for &id in ids {
                for k in 0..2 {
                    engine.ingest(&frame(id, &value(2 * t + k, id)), sink);
                }
            }
        };
        tick(&mut engine, &mut sink, 0, &[1, 2, 3, 4]);
        let rounds = engine.rounds();
        for t in 1..11 {
            tick(&mut engine, &mut sink, t, &[1, 2, 3, 4]);
            assert!(engine.fleet().pending() <= 2, "tick {t}: no backlog builds up");
        }
        assert_eq!(engine.rounds(), rounds + 20, "two rounds per tick");
        // Wire id 4 goes quiet. Its last frame was queued just before the
        // round its own ingest call closed; that round and the next serve
        // its two frames, and it is retired at the first round that finds
        // its queue empty more than four rounds after that stamp.
        let last_input = engine.rounds() - 1;
        for t in 11..16 {
            tick(&mut engine, &mut sink, t, &[1, 2, 3]);
        }
        assert_eq!(sink.retired_at, [last_input + 4 + 1]);
        assert!(engine.stream_id(4).is_none());
    }
}
