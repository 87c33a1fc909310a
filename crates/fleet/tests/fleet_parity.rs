//! Bitwise parity of the sharded, cross-stream-batched fleet against K
//! standalone detectors.
//!
//! The tentpole guarantee of the fleet layer: serving K streams through
//! [`DetectorFleet`] — at any shard count, with batched NN stepping on or
//! off, serial or parallel — produces, per stream, the **bit-identical**
//! `StepOutput` trace of a standalone `Detector::run` over the same
//! series, plus identical drift times and fine-tune counts. The batched
//! path shares one `forward_batch` per weight-identical cohort, so the
//! mixed fleet below deliberately plants:
//!
//! - two AE streams with the same seed **and** the same series (they stay
//!   one cohort through every fine-tune and exercise the shared pass),
//! - a same-seed AE on a different series and a different-seed AE on the
//!   same series (same arch group, separate cohorts after the warm-up
//!   fit),
//! - a USAD and an N-BEATS stream (their own arch groups),
//! - a PCB-iForest stream (never batchable — permanent scalar path),
//!
//! and level shifts mid-series so drift → fine-tune → cohort leave and
//! rejoin events happen inside the measured window. Comparisons are `to_bits`
//! with no tolerance, in the style of `eval_parity.rs`.

use sad_core::{paper_algorithms, AlgorithmSpec, Detector, DetectorConfig, ScoreKind, StepOutput};
use sad_fleet::{DetectorFleet, FleetConfig};
use sad_models::{build_detector, BuildParams};

/// Table I algorithm by registry index, with a label guard so a registry
/// reshuffle fails loudly instead of silently testing the wrong model.
fn spec(idx: usize, expect: &str) -> AlgorithmSpec {
    let specs = paper_algorithms();
    let s = specs[idx];
    assert!(s.label().contains(expect), "registry moved: {} is {:?}", idx, s.label());
    s
}

fn tiny_config() -> DetectorConfig {
    DetectorConfig { window: 5, channels: 2, warmup: 50, initial_epochs: 2, fine_tune_epochs: 1 }
}

fn detector(idx: usize, expect: &str, seed: u64) -> Detector {
    let params = BuildParams::new(tiny_config())
        .with_capacity(16)
        .with_score(ScoreKind::Raw)
        .with_seed(seed);
    build_detector(spec(idx, expect), &params)
}

/// Deterministic 2-channel series; `shift_at` plants a level shift so the
/// μ/σ drift detector fires and fine-tunes land inside the trace.
fn series(len: usize, phase: f64, shift_at: Option<usize>) -> Vec<Vec<f64>> {
    (0..len)
        .map(|t| {
            let x = t as f64 * 0.09 + phase;
            let jump = match shift_at {
                Some(s) if t >= s => 2.5,
                _ => 0.0,
            };
            vec![x.sin() + jump, (x * 0.63).cos() - 0.5 * jump]
        })
        .collect()
}

/// One stream of the mixed fleet: algorithm index, label guard, seed, and
/// its input series.
fn mixed_streams() -> Vec<(usize, &'static str, u64, Vec<Vec<f64>>)> {
    vec![
        (6, "AE", 7, series(180, 0.0, Some(110))),
        (6, "AE", 7, series(180, 0.0, Some(110))), // cohort twin of stream 0
        (6, "AE", 7, series(180, 1.3, None)),      // same seed, different data
        (6, "AE", 9, series(180, 0.0, Some(110))), // same data, different seed
        (12, "USAD", 5, series(180, 0.7, Some(120))),
        (18, "N-BEATS", 11, series(180, 0.4, None)),
        (24, "PCB-iForest", 3, series(180, 0.9, Some(100))), // scalar forever
    ]
}

fn assert_traces_identical(fleet: &[StepOutput], standalone: &[StepOutput], label: &str) {
    assert_eq!(fleet.len(), standalone.len(), "{label}: trace length");
    for (t, (a, b)) in fleet.iter().zip(standalone).enumerate() {
        assert_eq!(a.t, b.t, "{label}: step index at trace position {t}");
        assert_eq!(
            a.nonconformity.to_bits(),
            b.nonconformity.to_bits(),
            "{label}: nonconformity diverges at t={}",
            a.t,
        );
        assert_eq!(
            a.anomaly_score.to_bits(),
            b.anomaly_score.to_bits(),
            "{label}: anomaly score diverges at t={}",
            a.t,
        );
        assert_eq!(a.drift, b.drift, "{label}: drift flag diverges at t={}", a.t);
        assert_eq!(a.fine_tuned, b.fine_tuned, "{label}: fine-tune flag diverges at t={}", a.t);
    }
}

/// The mixed fleet against standalone references, for shard counts 1/2/4
/// × batching on/off (the ISSUE acceptance matrix), plus a parallel
/// drain. Identical outputs everywhere.
#[test]
fn mixed_fleet_matches_standalone_detectors_at_all_shard_counts() {
    let streams = mixed_streams();
    let fleet_series: Vec<Vec<Vec<f64>>> = streams.iter().map(|s| s.3.clone()).collect();

    // Standalone references: one independent detector per stream.
    let mut references = Vec::new();
    for &(idx, expect, seed, ref data) in &streams {
        let mut det = detector(idx, expect, seed);
        let trace = det.run(data);
        references.push((trace, det));
    }
    // The planted level shifts must actually fine-tune an NN stream, or
    // no stream leaves and rejoins its cohort.
    assert!(
        references[0].1.fine_tune_count() > 0,
        "level shift must fine-tune the AE cohort stream",
    );

    for shards in [1usize, 2, 4] {
        for batching in [true, false] {
            for parallel in [false, true] {
                if parallel && (shards == 1 || !batching) {
                    continue; // parallelism is orthogonal; one batched probe per shard count
                }
                let label = format!("shards={shards} batching={batching} parallel={parallel}");
                let dets: Vec<Detector> =
                    streams.iter().map(|&(idx, expect, seed, _)| detector(idx, expect, seed)).collect();
                let config = FleetConfig { shards, batching, parallel, queue_capacity: 4, ..FleetConfig::default() };
                let mut fleet = DetectorFleet::new(dets, config);
                let traces = fleet.run(&fleet_series);
                for (i, (ref_trace, ref_det)) in references.iter().enumerate() {
                    let stream = format!("{label} stream {i}");
                    assert_traces_identical(&traces[i], ref_trace, &stream);
                    let det = fleet.detector(i);
                    assert_eq!(det.drift_times(), ref_det.drift_times(), "{stream}: drift times");
                    assert_eq!(
                        det.fine_tune_count(),
                        ref_det.fine_tune_count(),
                        "{stream}: fine-tune count",
                    );
                }
                let stats = fleet.stats();
                if batching {
                    assert!(stats.batched_rows > 0, "{label}: batched path never engaged");
                    assert!(stats.cohort_rebuilds > 0, "{label}: cohorts never rebuilt");
                } else {
                    assert_eq!(stats.batched_rows, 0, "{label}: batching off must stay scalar");
                }
                assert_eq!(
                    stats.steps,
                    streams.iter().map(|s| s.3.len()).sum::<usize>(),
                    "{label}: every vector consumed exactly once",
                );
            }
        }
    }
}

/// The cohort twins (streams 0 and 1 on one shard) really share forward
/// passes: strictly fewer batched passes than batched rows.
#[test]
fn cohort_twins_amortize_forward_passes() {
    let streams = mixed_streams();
    let fleet_series: Vec<Vec<Vec<f64>>> = streams.iter().map(|s| s.3.clone()).collect();
    let dets: Vec<Detector> =
        streams.iter().map(|&(idx, expect, seed, _)| detector(idx, expect, seed)).collect();
    let mut fleet = DetectorFleet::new(dets, FleetConfig::default());
    let _ = fleet.run(&fleet_series);
    let stats = fleet.stats();
    assert!(
        stats.batches < stats.batched_rows,
        "twin AE streams must share passes: {stats:?}",
    );
}

/// A vector holding a NaN or ±∞ reaches a grouped stream's `begin_step`
/// only when the fleet is fed directly (the serving engine rejects such
/// frames first). Its detector drops and counts it, the rest of the round
/// is served, and every trace is the clean series' trace.
#[test]
fn a_non_finite_vector_on_a_grouped_stream_is_dropped_as_if_absent() {
    let streams = mixed_streams();
    let clean: Vec<Vec<Vec<f64>>> = streams.iter().map(|s| s.3.clone()).collect();
    // Past warm-up (50 steps), once every batchable stream is grouped.
    let mut dirty = clean.clone();
    for (i, series) in dirty.iter_mut().enumerate() {
        let mut bad = series[80].clone();
        bad[i % 2] = if i % 2 == 0 { f64::NAN } else { f64::INFINITY };
        series.insert(80, bad);
    }
    let fresh = || -> Vec<Detector> {
        streams.iter().map(|&(idx, expect, seed, _)| detector(idx, expect, seed)).collect()
    };
    let mut fleet = DetectorFleet::new(fresh(), FleetConfig::default());
    let traces = fleet.run(&dirty);
    for (i, (mut det, series)) in fresh().into_iter().zip(&clean).enumerate() {
        assert_traces_identical(&traces[i], &det.run(series), &format!("stream {i}"));
        assert_eq!(fleet.detector(i).non_finite(), 1, "stream {i}");
    }
    assert!(fleet.stats().batched_rows > 0, "grouped streams served batched rows");
    // A dropped vector is not a step, grouped or not: the fleet counts
    // the clean series' steps.
    let clean_steps: usize = clean.iter().map(Vec::len).sum();
    assert_eq!(clean_steps, 1_260);
    assert_eq!(fleet.stats().steps, clean_steps);
}

/// An AE/SW/μσ detector with no fine-tune epochs: a drift re-anchors its
/// drift test, and its weights stay those of its warm-up fit.
fn frozen_detector(seed: u64) -> Detector {
    let config = DetectorConfig { fine_tune_epochs: 0, ..tiny_config() };
    let params =
        BuildParams::new(config).with_capacity(16).with_score(ScoreKind::Raw).with_seed(seed);
    build_detector(spec(6, "AE"), &params)
}

/// A landed stream rejoins a cohort of home members. Four frozen AE
/// replicas share their warm-up, so their weights stay bitwise equal
/// through every drift; their series then shift at different steps, so
/// they drift, go away and land in different rounds, and each landing
/// joins the cohort its replicas kept serving. At 1 and 2 shards the
/// traces, drift times and fine-tune counts are bitwise those of
/// standalone detectors, and each round serves, per shard, the replicas
/// that are home in one forward pass and those that resumed in one more.
#[test]
fn landed_streams_rejoin_cohorts_of_home_members() {
    let data: Vec<Vec<Vec<f64>>> =
        [70, 85, 100, 115].iter().map(|&at| series(180, 0.0, Some(at))).collect();
    let mut references = Vec::new();
    for series in &data {
        let mut det = frozen_detector(13);
        let trace = det.run(series);
        references.push((trace, det));
    }
    let drifts: Vec<&[usize]> = references.iter().map(|(_, det)| det.drift_times()).collect();
    assert!(drifts.iter().all(|d| d.len() > 1), "every replica drifts: {drifts:?}");
    assert!(drifts.windows(2).all(|w| w[0] != w[1]), "on its own schedule: {drifts:?}");

    for shards in [1usize, 2] {
        let dets = (0..data.len()).map(|_| frozen_detector(13)).collect();
        let config = FleetConfig { shards, queue_capacity: 4, ..FleetConfig::default() };
        let mut fleet = DetectorFleet::new(dets, config);
        let traces = fleet.run(&data);
        for (i, (ref_trace, ref_det)) in references.iter().enumerate() {
            let stream = format!("frozen shards={shards} stream {i}");
            assert_traces_identical(&traces[i], ref_trace, &stream);
            let det = fleet.detector(i);
            assert_eq!(det.drift_times(), ref_det.drift_times(), "{stream}: drift times");
            assert_eq!(det.fine_tune_count(), ref_det.fine_tune_count(), "{stream}: fine-tunes");
        }

        // A stream whose step at t drifted resumes at t + 1: it is served
        // in the round's resume pass, the others in the cohort phase.
        let drifted = |i: usize, t: usize| references[i].1.drift_times().contains(&t);
        let mut passes = 0;
        for t in tiny_config().warmup..180 {
            for shard in 0..shards {
                let on_shard = (0..data.len()).filter(|i| i % shards == shard);
                let resumed = on_shard.clone().filter(|&i| drifted(i, t - 1)).count();
                let home = on_shard.count() - resumed;
                passes += usize::from(home > 0) + usize::from(resumed > 0);
            }
        }
        let stats = fleet.stats();
        assert_eq!(stats.batched_rows, data.len() * (180 - tiny_config().warmup));
        assert_eq!(stats.batches, passes, "shards={shards}: one cohort of replicas: {stats:?}");
    }
}

mod props {
    use super::*;
    use proptest::prelude::*;

    /// Decode one generated pick into (algorithm index, label guard, seed).
    /// Seeds repeat (mod 3) so same-arch same-seed cohorts arise by chance.
    fn decode(pick: usize) -> (usize, &'static str, u64) {
        let table = [(6, "AE"), (12, "USAD"), (18, "N-BEATS"), (24, "PCB-iForest")];
        let (idx, expect) = table[pick % 4];
        (idx, expect, (pick / 4) as u64 % 3)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

        /// Random fleet composition (2–5 streams over all four model
        /// families × 3 seeds), random shard count, batching on or off:
        /// per-stream bitwise parity with standalone detectors.
        #[test]
        fn random_fleet_matches_standalone(
            picks in collection::vec(0usize..12, 2..=5),
            shards in 1usize..=4,
            batching in 0u8..2,
            shift in 90usize..130,
        ) {
            let batching = batching == 1;
            let streams: Vec<(usize, &'static str, u64)> =
                picks.iter().map(|&p| decode(p)).collect();
            let fleet_series: Vec<Vec<Vec<f64>>> = streams
                .iter()
                .enumerate()
                .map(|(i, _)| series(150, (i % 2) as f64 * 0.8, Some(shift)))
                .collect();

            let mut references = Vec::new();
            for (i, &(idx, expect, seed)) in streams.iter().enumerate() {
                let mut det = detector(idx, expect, seed);
                let trace = det.run(&fleet_series[i]);
                references.push((trace, det));
            }

            let dets: Vec<Detector> =
                streams.iter().map(|&(idx, expect, seed)| detector(idx, expect, seed)).collect();
            let config = FleetConfig { shards, batching, parallel: false, queue_capacity: 4, ..FleetConfig::default() };
            let mut fleet = DetectorFleet::new(dets, config);
            let traces = fleet.run(&fleet_series);

            for (i, (ref_trace, ref_det)) in references.iter().enumerate() {
                let label = format!(
                    "picks={picks:?} shards={shards} batching={batching} stream {i}"
                );
                assert_traces_identical(&traces[i], ref_trace, &label);
                prop_assert_eq!(fleet.detector(i).drift_times(), ref_det.drift_times());
                prop_assert_eq!(fleet.detector(i).fine_tune_count(), ref_det.fine_tune_count());
            }
        }
    }
}

/// Where a fleet's drift-triggered fine-tunes ran.
#[derive(Default)]
struct FineTuneLog {
    threads: std::sync::Mutex<Vec<std::thread::ThreadId>>,
    /// Whether a fine-tune waits, at most five seconds, until one has run
    /// on another thread: the round's other fine-tunes then go to the
    /// other threads even when the host starves a helper.
    await_peer: bool,
}

impl FineTuneLog {
    fn record(&self) {
        let me = std::thread::current().id();
        self.threads.lock().unwrap().push(me);
        let since = std::time::Instant::now();
        while self.await_peer
            && since.elapsed() < std::time::Duration::from_secs(5)
            && self.threads.lock().unwrap().iter().all(|&t| t == me)
        {
            std::thread::yield_now();
        }
    }
}

/// A μσ drift detector that logs every drift-triggered fine-tune.
/// `on_fine_tune` also runs once at the warm-up fit; that first call is
/// not logged.
#[derive(Clone)]
struct ThreadRecorder {
    inner: Box<dyn sad_core::DriftDetector>,
    warmed: bool,
    log: std::sync::Arc<FineTuneLog>,
}

impl sad_core::DriftDetector for ThreadRecorder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observe(
        &mut self,
        x: &sad_core::FeatureVector,
        update: &sad_core::SetUpdate,
        train: &[sad_core::FeatureVector],
    ) -> bool {
        self.inner.observe(x, update, train)
    }

    fn on_fine_tune(&mut self, train: &[sad_core::FeatureVector]) {
        if self.warmed {
            self.log.record();
        }
        self.warmed = true;
        self.inner.on_fine_tune(train);
    }

    fn ops(&self) -> sad_core::OpCount {
        self.inner.ops()
    }

    fn removal_misses(&self) -> u64 {
        self.inner.removal_misses()
    }

    fn clone_box(&self) -> Box<dyn sad_core::DriftDetector> {
        Box::new(self.clone())
    }
}

/// `detector(idx, …)` with its μσ drift detector wrapped in a
/// [`ThreadRecorder`] (batching keys on the model only).
fn recording_detector(
    idx: usize,
    expect: &str,
    seed: u64,
    log: &std::sync::Arc<FineTuneLog>,
) -> Detector {
    let spec = spec(idx, expect);
    assert_eq!(spec.task2, sad_core::Task2::MuSigma, "{expect}: a μσ combination");
    let params = BuildParams::new(tiny_config())
        .with_capacity(16)
        .with_score(ScoreKind::Raw)
        .with_seed(seed);
    let drift = ThreadRecorder {
        inner: sad_models::build_task2(spec.task2, &params),
        warmed: false,
        log: log.clone(),
    };
    Detector::new(
        params.config.clone(),
        sad_models::build_model(spec.model, &params),
        sad_models::build_task1(spec.task1, &params),
        Box::new(drift),
        sad_models::build_scorer(params.score, &params),
    )
}

/// Parity under real concurrency: eight AE streams and a USAD stream
/// whose level shifts land in the same rounds, so each of those rounds
/// queues several fine-tunes for the caller and the pool's helpers to
/// claim. Traces, drift times and fine-tune counts are bitwise those of
/// standalone detectors at 1 and 2 shards, and with a second core the
/// fine-tunes ran on more than one thread (the first fine-tunes wait for
/// a peer thread's, so a starved helper still gets its share).
#[test]
fn pooled_fine_tunes_match_standalone_detectors() {
    let streams: Vec<(usize, &str, u64, Vec<Vec<f64>>)> = (0..9u64)
        .map(|i| {
            let (idx, expect) = if i == 8 { (12, "USAD") } else { (6, "AE") };
            let shift = Some(90 + 40 * (i as usize % 3));
            (idx, expect, 20 + i % 3, series(240, i as f64 * 0.35, shift))
        })
        .collect();
    let fleet_series: Vec<Vec<Vec<f64>>> = streams.iter().map(|s| s.3.clone()).collect();
    let standalone = std::sync::Arc::new(FineTuneLog::default());
    let mut references = Vec::new();
    for &(idx, expect, seed, ref data) in &streams {
        let mut det = recording_detector(idx, expect, seed, &standalone);
        let trace = det.run(data);
        references.push((trace, det));
    }
    let tunes: usize = references.iter().map(|(_, det)| det.fine_tune_count()).sum();
    assert!(tunes >= 2 * streams.len(), "the level shifts must fine-tune every stream: {tunes}");

    for shards in [1usize, 2] {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let await_peer = cores >= 2;
        let log = std::sync::Arc::new(FineTuneLog { await_peer, ..FineTuneLog::default() });
        let dets: Vec<Detector> = streams
            .iter()
            .map(|&(idx, expect, seed, _)| recording_detector(idx, expect, seed, &log))
            .collect();
        let config = FleetConfig { shards, queue_capacity: 4, ..FleetConfig::default() };
        let mut fleet = DetectorFleet::new(dets, config);
        let traces = fleet.run(&fleet_series);
        for (i, (ref_trace, ref_det)) in references.iter().enumerate() {
            let stream = format!("pooled shards={shards} stream {i}");
            assert_traces_identical(&traces[i], ref_trace, &stream);
            let det = fleet.detector(i);
            assert_eq!(det.drift_times(), ref_det.drift_times(), "{stream}: drift times");
            assert_eq!(det.fine_tune_count(), ref_det.fine_tune_count(), "{stream}: fine-tunes");
        }
        let stats = fleet.stats();
        assert!(stats.batched_rows > 0, "shards={shards}: the streams were grouped");
        let threads = log.threads.lock().unwrap();
        assert_eq!(threads.len(), tunes, "shards={shards}: one record per fine-tune");
        if cores >= 2 {
            let mut distinct = threads.clone();
            distinct.sort_unstable_by_key(|id| format!("{id:?}"));
            distinct.dedup();
            assert!(
                distinct.len() > 1,
                "shards={shards}: {tunes} fine-tunes ran on one thread ({} helpers)",
                fleet.helpers(),
            );
        }
    }
}

/// Rounds the test has seen `drain_round` return, the adaptations a
/// helper has started, and those it held until the round that scored
/// their drift had returned.
#[derive(Default)]
struct Rounds {
    returned: std::sync::atomic::AtomicUsize,
    entered: std::sync::atomic::AtomicUsize,
    held: std::sync::atomic::AtomicUsize,
}

/// A μσ drift detector whose drift-triggered adaptation, when a pool
/// helper runs it, waits (at most five seconds) until the round that
/// scored the drift has returned to the test. `on_fine_tune` also runs
/// once at the warm-up fit; that first call never waits.
#[derive(Clone)]
struct HeldAdaptation {
    inner: Box<dyn sad_core::DriftDetector>,
    warmed: bool,
    /// Rounds returned when the last observation was scored.
    scored_in: usize,
    rounds: std::sync::Arc<Rounds>,
}

impl sad_core::DriftDetector for HeldAdaptation {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observe(
        &mut self,
        x: &sad_core::FeatureVector,
        update: &sad_core::SetUpdate,
        train: &[sad_core::FeatureVector],
    ) -> bool {
        use std::sync::atomic::Ordering::SeqCst;
        self.scored_in = self.rounds.returned.load(SeqCst);
        self.inner.observe(x, update, train)
    }

    fn on_fine_tune(&mut self, train: &[sad_core::FeatureVector]) {
        use std::sync::atomic::Ordering::SeqCst;
        let thread = std::thread::current();
        let on_helper = thread.name().is_some_and(|name| name.starts_with("sad-fleet-"));
        let returned = || self.rounds.returned.load(SeqCst) > self.scored_in;
        if self.warmed && on_helper {
            self.rounds.entered.fetch_add(1, SeqCst);
        }
        if self.warmed && on_helper && !returned() {
            let since = std::time::Instant::now();
            while !returned() && since.elapsed() < std::time::Duration::from_secs(5) {
                std::thread::yield_now();
            }
            if returned() {
                self.rounds.held.fetch_add(1, SeqCst);
            }
        }
        self.warmed = true;
        self.inner.on_fine_tune(train);
    }

    fn ops(&self) -> sad_core::OpCount {
        self.inner.ops()
    }

    fn removal_misses(&self) -> u64 {
        self.inner.removal_misses()
    }

    fn clone_box(&self) -> Box<dyn sad_core::DriftDetector> {
        Box::new(self.clone())
    }
}

/// `detector(idx, …)` with its μσ drift detector wrapped in a
/// [`HeldAdaptation`].
fn held_detector(
    idx: usize,
    expect: &str,
    seed: u64,
    rounds: &std::sync::Arc<Rounds>,
) -> Detector {
    let spec = spec(idx, expect);
    assert_eq!(spec.task2, sad_core::Task2::MuSigma, "{expect}: a μσ combination");
    let params = BuildParams::new(tiny_config())
        .with_capacity(16)
        .with_score(ScoreKind::Raw)
        .with_seed(seed);
    let drift = HeldAdaptation {
        inner: sad_models::build_task2(spec.task2, &params),
        warmed: false,
        scored_in: 0,
        rounds: rounds.clone(),
    };
    Detector::new(
        params.config.clone(),
        sad_models::build_model(spec.model, &params),
        sad_models::build_task1(spec.task1, &params),
        Box::new(drift),
        sad_models::build_scorer(params.score, &params),
    )
}

/// Verdict before adaptation: a drifted grouped stream's adaptation runs
/// after the round that scored it has returned, and the stream's next
/// round finishes it before the stream steps again. Six AE streams and a
/// USAD stream drift on their own schedules while every helper-run
/// adaptation is held until the test has seen its scoring round return.
/// After a round with a drift, the test first waits (at most five
/// seconds) for a helper to start an adaptation, so with a helper some
/// adaptation is held across the end of its round. At 1 and 2 shards the
/// traces, drift times and fine-tune counts are bitwise those of
/// standalone detectors, and the serving counters equal those of a fleet
/// whose adaptations run unheld.
#[test]
fn adaptations_outlive_their_rounds_and_traces_stay_bitwise() {
    use std::sync::atomic::Ordering::SeqCst;
    let streams: Vec<(usize, &str, u64, Vec<Vec<f64>>)> = (0..7u64)
        .map(|i| {
            let (idx, expect) = if i == 6 { (12, "USAD") } else { (6, "AE") };
            let shift = Some(80 + 25 * (i as usize % 4));
            (idx, expect, 30 + i % 2, series(220, i as f64 * 0.45, shift))
        })
        .collect();
    let mut references = Vec::new();
    for &(idx, expect, seed, ref data) in &streams {
        let mut det = detector(idx, expect, seed);
        let trace = det.run(data);
        references.push((trace, det));
    }
    let tunes: usize = references.iter().map(|(_, det)| det.fine_tune_count()).sum();
    assert!(tunes >= 2 * streams.len(), "the series must fine-tune every stream: {tunes}");

    for shards in [1usize, 2] {
        let config = FleetConfig { shards, queue_capacity: 4, ..FleetConfig::default() };
        let rounds = std::sync::Arc::new(Rounds::default());
        let dets = streams
            .iter()
            .map(|&(idx, expect, seed, _)| held_detector(idx, expect, seed, &rounds))
            .collect();
        let mut fleet = DetectorFleet::new(dets, config.clone());
        let mut traces: Vec<Vec<StepOutput>> = vec![Vec::new(); streams.len()];
        let mut out = Vec::new();
        for t in 0..220 {
            for (i, stream) in streams.iter().enumerate() {
                assert!(fleet.enqueue(i, &stream.3[t]));
            }
            let entered = rounds.entered.load(SeqCst);
            fleet.drain_round(&mut out);
            if fleet.helpers() > 0 && out.iter().flatten().any(|o| o.drift) {
                let since = std::time::Instant::now();
                while rounds.entered.load(SeqCst) == entered
                    && since.elapsed() < std::time::Duration::from_secs(5)
                {
                    std::thread::yield_now();
                }
            }
            rounds.returned.fetch_add(1, SeqCst);
            for (trace, o) in traces.iter_mut().zip(&out) {
                trace.extend(*o);
            }
        }
        fleet.settle();
        for (i, (ref_trace, ref_det)) in references.iter().enumerate() {
            let stream = format!("held shards={shards} stream {i}");
            assert_traces_identical(&traces[i], ref_trace, &stream);
            let det = fleet.detector(i);
            assert_eq!(det.drift_times(), ref_det.drift_times(), "{stream}: drift times");
            assert_eq!(det.fine_tune_count(), ref_det.fine_tune_count(), "{stream}: fine-tunes");
        }

        let dets =
            streams.iter().map(|&(idx, expect, seed, _)| detector(idx, expect, seed)).collect();
        let mut unheld = DetectorFleet::new(dets, config);
        let data: Vec<Vec<Vec<f64>>> = streams.iter().map(|s| s.3.clone()).collect();
        assert_eq!(unheld.run(&data), traces, "shards={shards}: unheld traces");
        let stats = fleet.stats();
        assert_eq!(stats, unheld.stats(), "shards={shards}: counters do not depend on timing");
        assert!(stats.batched_rows > 0, "shards={shards}: the streams were grouped");
        if fleet.helpers() > 0 {
            let held = rounds.held.load(SeqCst);
            assert!(held > 0, "shards={shards}: no adaptation outlived its round");
        }
    }
}
