//! Wire properties: no byte stream can make a decoder panic or yield an
//! out-of-range frame, and the engine puts every frame it is handed in
//! exactly one place.
//!
//! * Decoders. Arbitrary bytes, and valid frame streams cut or corrupted
//!   at a random byte, go through `FramedTransport` and `CsvTransport`.
//!   Every decoded frame carries 1..=`MAX_FRAME_CHANNELS` values, and the
//!   frame count is bounded by the input length (a binary frame takes at
//!   least 20 bytes, a CSV line at least `0,1` and a newline).
//! * Engine. Random frame sequences from a small set of wire ids, whose
//!   widths change mid-stream and whose values mix NaN, ±∞, ±1e308 and
//!   ±5e-324 into ordinary ones, go through an `IngestEngine` running one
//!   of the 26 Table I algorithms, with fewer stream slots than ids, queue
//!   capacity 2, an idle timeout of 1–3 rounds, each back-pressure policy
//!   and 1 or 2 shards. Under the block policy a frame never joins frames
//!   of its stream that a round has passed over: after every `ingest`
//!   call that ran no round, the frame's stream holds no more frames than
//!   it queued since the latest round. The run keeps a step budget: the
//!   sink's `round` hook sees every drain round raise the fleet's step
//!   count, so after `finish` there are no more rounds than frames. After
//!   `finish`, each frame is exactly one of: a detector step, a
//!   non-finite rejection, a cap rejection, a width mismatch or a
//!   back-pressure drop; and admissions minus retirements equal the live
//!   streams. The random churn also drives fleet ids through retirement
//!   and reuse.

use std::io::{Cursor, ErrorKind};

use proptest::prelude::*;
use sad_core::{paper_algorithms, DetectorConfig, ScoreKind, StepOutput};
use sad_fleet::{BackpressurePolicy, FleetConfig};
use sad_ingest::{
    CsvTransport, DetectorTemplate, EngineConfig, EngineSink, Frame, FrameWriter, FramedTransport,
    Framing, IngestEngine, IngestStats, Transport, MAX_FRAME_CHANNELS,
};
use sad_models::BuildParams;

/// splitmix64: each case derives its inputs from one proptest seed, so a
/// failure reports the seed that reproduces it.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// An ordinary value, or one time in `1/rare` an extreme one.
    fn value(&mut self, t: usize, rare: usize) -> f64 {
        const EXTREME: [f64; 8] =
            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e308, -1e308, 5e-324, -5e-324, 0.0];
        if self.below(rare) == 0 {
            EXTREME[self.below(EXTREME.len())]
        } else {
            (t as f64 * 0.3).sin() + self.below(1000) as f64 * 1e-3
        }
    }
}

/// Decodes `input` to its end or its first error and checks every frame.
/// Returns the frames decoded and the error, if any.
fn decode_all(
    framing: Framing,
    input: &[u8],
) -> Result<(Vec<Frame>, Option<std::io::Error>), TestCaseError> {
    let mut transport: Box<dyn Transport> = match framing {
        Framing::Binary => Box::new(FramedTransport::new(Cursor::new(input))),
        Framing::Csv => Box::new(CsvTransport::new(Cursor::new(input))),
    };
    // Fewest input bytes one decoded frame can take (the last CSV line
    // may lack its newline, hence the `+ 1` below).
    let min_bytes = match framing {
        Framing::Binary => 20,
        Framing::Csv => 4,
    };
    let mut frames = Vec::new();
    let mut frame = Frame::default();
    loop {
        match transport.next(&mut frame) {
            Ok(true) => {
                let width = frame.values.len();
                prop_assert!((1..=MAX_FRAME_CHANNELS).contains(&width), "{framing:?}: {width} values");
                frames.push(frame.clone());
                prop_assert!(
                    frames.len() * min_bytes <= input.len() + 1,
                    "{framing:?}: {} frames out of {} bytes",
                    frames.len(),
                    input.len()
                );
            }
            Ok(false) => return Ok((frames, None)),
            Err(e) => return Ok((frames, Some(e))),
        }
    }
}

/// A valid wire of `n` random frames in `framing`, and the frames.
fn random_wire(rng: &mut Rng, framing: Framing, n: usize) -> (Vec<u8>, Vec<Frame>) {
    let mut writer = FrameWriter::new(Vec::new(), framing);
    let frames: Vec<Frame> = (0..n)
        .map(|t| {
            // Mostly narrow frames, now and then the widest legal one.
            let width = if rng.below(40) == 0 { MAX_FRAME_CHANNELS } else { 1 + rng.below(3) };
            let stream = if rng.below(8) == 0 { rng.next() } else { rng.below(4) as u64 };
            Frame { stream, values: (0..width).map(|_| rng.value(t, 4)).collect() }
        })
        .collect();
    for f in &frames {
        writer.send(f.stream, &f.values).expect("in-memory write");
    }
    (writer.into_inner(), frames)
}

fn same_frame(a: &Frame, b: &Frame) -> bool {
    a.stream == b.stream
        && a.values.len() == b.values.len()
        && a.values.iter().zip(&b.values).all(|(x, y)| x == y || (x.is_nan() && y.is_nan()))
}

/// Counts verdicts and keeps the step budget: through the `round` hook it
/// notes every drain round that left the fleet's step count where the
/// round before left it.
#[derive(Default)]
struct Budget {
    outputs: usize,
    steps: usize,
    stepless_rounds: Vec<u64>,
}

impl EngineSink for Budget {
    fn output(&mut self, _: u64, _: &StepOutput) {
        self.outputs += 1;
    }

    fn round(&mut self, rounds: u64, engine_stats: &IngestStats) {
        if engine_stats.fleet.steps <= self.steps {
            self.stepless_rounds.push(rounds);
        }
        self.steps = engine_stats.fleet.steps;
    }
}

const POLICIES: [BackpressurePolicy; 3] =
    [BackpressurePolicy::Block, BackpressurePolicy::DropNewest, BackpressurePolicy::DropOldest];

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn decoders_survive_arbitrary_bytes(bytes in collection::vec(0u8..=255u8, 0..2048)) {
        for framing in [Framing::Binary, Framing::Csv] {
            decode_all(framing, &bytes)?;
        }
    }

    #[test]
    fn decoders_survive_cut_and_corrupted_frame_streams(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        for framing in [Framing::Binary, Framing::Csv] {
            let n = 1 + rng.below(12);
            let (mut wire, sent) = random_wire(&mut rng, framing, n);
            let (whole, err) = decode_all(framing, &wire)?;
            prop_assert!(err.is_none(), "{framing:?}: a valid wire decodes: {err:?}");
            prop_assert_eq!(whole.len(), sent.len());
            prop_assert!(whole.iter().zip(&sent).all(|(a, b)| same_frame(a, b)), "{framing:?} round trip");

            let at = rng.below(wire.len());
            if rng.below(2) == 0 {
                wire.truncate(at);
                let (cut, err) = decode_all(framing, &wire)?;
                if framing == Framing::Binary {
                    // Whole frames before the cut decode as sent; a frame
                    // cut inside is an error, never a short frame.
                    prop_assert!(cut.iter().zip(&sent).all(|(a, b)| same_frame(a, b)));
                    if let Some(e) = err {
                        prop_assert_eq!(e.kind(), ErrorKind::UnexpectedEof);
                    }
                }
            } else {
                wire[at] = rng.next() as u8;
                decode_all(framing, &wire)?;
            }
        }
    }

    #[test]
    fn engine_puts_every_frame_in_exactly_one_place(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let specs = paper_algorithms();
        let spec = specs[rng.below(specs.len())];
        let policy = POLICIES[rng.below(POLICIES.len())];
        let ids = 3 + rng.below(4);
        let config = DetectorConfig {
            window: 3,
            channels: 1,
            warmup: 8,
            initial_epochs: 1,
            fine_tune_epochs: 1,
        };
        let params = BuildParams::new(config).with_capacity(6).with_score(ScoreKind::Raw).with_seed(seed);
        let fleet = FleetConfig { shards: 1 + rng.below(2), queue_capacity: 2, ..FleetConfig::default() };
        let cfg = EngineConfig {
            policy,
            idle_rounds: Some(1 + rng.below(3) as u64),
            max_streams: 1 + rng.below(ids - 1),
        };
        let mut engine = IngestEngine::new(DetectorTemplate::new(spec, params), fleet, cfg);

        let mut widths: Vec<usize> = (0..ids).map(|_| 1 + rng.below(3)).collect();
        let n_frames = 50 + rng.below(350);
        let mut sink = Budget::default();
        let mut frame = Frame::default();
        // Per wire id, the frames it queued since the latest round; one
        // too many, at most, when the call that queued it also ran one.
        let mut since_round = vec![0usize; ids];
        for t in 0..n_frames {
            // Skewed toward low ids, so high ones go quiet and retire.
            let skew = 1 + rng.below(ids);
            let id = rng.below(skew);
            if rng.below(30) == 0 {
                widths[id] = 1 + rng.below(3);
            }
            frame.stream = id as u64;
            frame.values.clear();
            for _ in 0..widths[id] {
                let v = rng.value(t, 20);
                frame.values.push(v);
            }
            let before = engine.stats();
            engine.ingest(&frame, &mut sink);
            let after = engine.stats();
            if after.rounds != before.rounds {
                since_round.fill(0);
            }
            let queued_it = (after.non_finite, after.rejected, after.channel_mismatches)
                == (before.non_finite, before.rejected, before.channel_mismatches);
            if policy == BackpressurePolicy::Block && queued_it {
                since_round[id] += 1;
                if after.rounds == before.rounds {
                    let stream = engine.stream_id(id as u64).expect("its stream is live");
                    let queued = engine.fleet().queued(stream);
                    prop_assert!(
                        queued <= since_round[id],
                        "{:?}: wire id {} holds {} frames, {} of them since the latest round",
                        spec, id, queued, since_round[id]
                    );
                }
            }
        }
        engine.finish(&mut sink);

        let s = engine.stats();
        prop_assert_eq!(s.frames, n_frames);
        let placed = s.fleet.steps
            + s.non_finite
            + s.rejected
            + s.channel_mismatches
            + s.fleet.bp_dropped_newest
            + s.fleet.bp_dropped_oldest;
        prop_assert_eq!(s.frames, placed, "{:?} {:?}: {:?}", spec, policy, s);
        prop_assert_eq!(s.fleet.admitted - s.fleet.retired, engine.fleet().live());
        prop_assert_eq!(engine.fleet().pending(), 0, "finish drained every queue");
        prop_assert!(sink.outputs <= s.fleet.steps);
        prop_assert!(
            sink.stepless_rounds.is_empty(),
            "{:?} {:?}: rounds {:?} served no step",
            spec, policy, sink.stepless_rounds
        );
        prop_assert!(s.rounds as usize <= s.frames, "{} rounds for {} frames", s.rounds, s.frames);
    }
}
