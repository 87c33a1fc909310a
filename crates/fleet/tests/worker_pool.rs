//! The fleet's worker pool under failure.
//!
//! A drain round runs grouped streams' `score_step` on the caller and the
//! pool's helper threads, and every ungrouped step on the caller; a
//! drifted grouped stream's adaptation runs on the pool's background lane
//! after its round returns. These tests script a μσ drift detector to
//! panic or stall at a chosen observation (`observe` runs inside the step
//! of either kind), or to panic in an adaptation, and check that
//! * a panic in a pooled job reaches the caller through `drain_round`,
//!   whichever thread ran the job, and a panic in the caller's own work
//!   does too;
//! * when the caller's own work panics, `drain_round` unwinds only after
//!   the job a helper claimed has finished;
//! * a panic in an adaptation a helper ran reaches the caller when its
//!   stream resumes, and every stream is home afterwards.
//!
//! Each scenario runs on a worker thread and reports through a channel
//! with a deadline, so a round that hangs fails the test instead of
//! stalling the suite.

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use sad_core::{
    paper_algorithms, AlgorithmSpec, Detector, DetectorConfig, DriftDetector, FeatureVector,
    OpCount, ScoreKind, SetUpdate, StepOutput,
};
use sad_fleet::{DetectorFleet, FleetConfig};
use sad_models::{build_model, build_scorer, build_task1, build_task2, BuildParams};

const WINDOW: usize = 5;
const WARMUP: usize = 40;
/// The observation the script acts on: `observe` runs once per step from
/// the first full window on, so this is a post-warm-up step.
const CUE: usize = WARMUP + 10;
const DEADLINE: Duration = Duration::from_secs(60);

/// What a scripted drift detector does at observation [`CUE`].
#[derive(Clone)]
enum Act {
    /// Sets the flag, if any, and panics, naming the thread that ran the
    /// step.
    Panic(Option<Arc<AtomicBool>>),
    /// Waits (at most ten seconds) until the flag is set, then panics if
    /// `panic`.
    Await { flag: Arc<AtomicBool>, panic: bool },
    /// Sets `started`, sleeps `nap`, sets `finished`.
    Stall { started: Arc<AtomicBool>, finished: Arc<AtomicBool>, nap: Duration },
}

#[derive(Clone)]
struct Scripted {
    inner: Box<dyn DriftDetector>,
    seen: usize,
    act: Act,
    /// Reports no drift before observation [`CUE`], so that a pooled
    /// stream is home, not away on an adaptation, at its cue round.
    calm: bool,
}

fn panic_here() -> ! {
    let thread = std::thread::current();
    panic!("scripted step panic on thread {:?}", thread.name().unwrap_or("?"));
}

impl DriftDetector for Scripted {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observe(&mut self, x: &FeatureVector, update: &SetUpdate, train: &[FeatureVector]) -> bool {
        if self.seen == CUE {
            match &self.act {
                Act::Panic(flag) => {
                    if let Some(flag) = flag {
                        flag.store(true, SeqCst);
                    }
                    panic_here();
                }
                Act::Await { flag, panic } => {
                    let since = Instant::now();
                    while !flag.load(SeqCst) && since.elapsed() < Duration::from_secs(10) {
                        std::thread::yield_now();
                    }
                    if *panic {
                        panic_here();
                    }
                }
                Act::Stall { started, finished, nap } => {
                    started.store(true, SeqCst);
                    std::thread::sleep(*nap);
                    finished.store(true, SeqCst);
                }
            }
        }
        self.seen += 1;
        let drift = self.inner.observe(x, update, train);
        drift && !(self.calm && self.seen <= CUE)
    }

    fn on_fine_tune(&mut self, train: &[FeatureVector]) {
        self.inner.on_fine_tune(train);
    }

    fn ops(&self) -> OpCount {
        self.inner.ops()
    }

    fn clone_box(&self) -> Box<dyn DriftDetector> {
        Box::new(self.clone())
    }
}

/// A μσ detector of Table I algorithm `idx` whose drift detector follows
/// `act`, and reports no drift before [`CUE`] if `calm`.
fn scripted(idx: usize, expect: &str, act: Act, calm: bool) -> Detector {
    let spec: AlgorithmSpec = paper_algorithms()[idx];
    assert!(spec.label().contains(expect), "registry moved: {idx} is {:?}", spec.label());
    let config = DetectorConfig {
        window: WINDOW,
        channels: 2,
        warmup: WARMUP,
        initial_epochs: 1,
        fine_tune_epochs: 1,
    };
    let params = BuildParams::new(config).with_capacity(12).with_score(ScoreKind::Raw).with_seed(4);
    let drift = Scripted { inner: build_task2(spec.task2, &params), seen: 0, act, calm };
    Detector::new(
        params.config.clone(),
        build_model(spec.model, &params),
        build_task1(spec.task1, &params),
        Box::new(drift),
        build_scorer(params.score, &params),
    )
}

/// ARIMA / SW / μσ: never batchable, so every step runs on the caller.
fn on_caller(act: Act) -> Detector {
    scripted(0, "ARIMA", act, false)
}

/// AE / SW / μσ: grouped after warm-up, so its `finish_step` is pooled.
fn pooled(act: Act) -> Detector {
    scripted(6, "AE", act, false)
}

/// [`pooled`], home at its cue round: its scoring job goes out with the
/// round's first, before the caller's own steps. (A stream that resumes
/// from an adaptation is scored only once every other scoring job of the
/// round is back.)
fn pooled_home_at_cue(act: Act) -> Detector {
    scripted(6, "AE", act, true)
}

fn flag() -> Arc<AtomicBool> {
    Arc::new(AtomicBool::new(false))
}

/// A pooled stream whose script does nothing.
fn quiet() -> Detector {
    pooled(Act::Stall { started: flag(), finished: flag(), nap: Duration::ZERO })
}

/// Serves `detectors` one vector per stream per round until a round
/// panics; returns that round's number, the panic message and what
/// `probe` reads as `drain_round` unwinds (before the fleet, and its
/// helpers, are dropped), or `None` if no round panicked.
fn serve_until_panic<T>(
    detectors: Vec<Detector>,
    shards: usize,
    probe: impl Fn() -> T,
) -> Option<(usize, String, T)> {
    let streams = detectors.len();
    let config = FleetConfig { shards, ..FleetConfig::default() };
    let mut fleet = DetectorFleet::new(detectors, config);
    let mut out: Vec<Option<StepOutput>> = Vec::new();
    for round in 0..2 * CUE {
        let x = round as f64 * 0.2;
        for id in 0..streams {
            assert!(fleet.enqueue(id, &[(x + id as f64).sin(), (0.7 * x).cos()]));
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fleet.drain_round(&mut out);
        }));
        if let Err(payload) = caught {
            let seen = probe();
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "<non-string panic>".to_owned());
            return Some((round, message, seen));
        }
    }
    None
}

/// Runs `scenario` on a worker thread and waits for its report at most
/// [`DEADLINE`].
fn within_deadline<T: Send + 'static>(scenario: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(scenario());
    });
    rx.recv_timeout(DEADLINE).expect("a drain round hung instead of returning or panicking")
}

fn helpers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from) - 1
}

/// A pooled `finish_step` that panics makes `drain_round` panic on the
/// caller. With a helper, the caller's own step waits until the pooled job
/// has raised its panic, so the job ran on the helper; a panic in the
/// caller's own step reaches it as well.
#[test]
fn a_step_panic_reaches_the_caller_whichever_thread_ran_it() {
    for shards in [1, 2] {
        let (round, message) = within_deadline(move || {
            let raised = flag();
            let caller = if helpers() > 0 {
                Act::Await { flag: raised.clone(), panic: false }
            } else {
                Act::Stall { started: flag(), finished: flag(), nap: Duration::ZERO }
            };
            let dets = vec![on_caller(caller), pooled(Act::Panic(Some(raised))), quiet(), quiet()];
            let (round, message, ()) =
                serve_until_panic(dets, shards, || ()).expect("the scripted panic propagated");
            (round, message)
        });
        let cue_round = CUE + WINDOW - 1;
        assert_eq!(round, cue_round, "shards={shards}: {message}");
        assert!(message.starts_with("scripted step panic"), "shards={shards}: {message}");
        if helpers() > 0 {
            assert!(
                message.contains("sad-fleet-"),
                "shards={shards}: a helper ran the job: {message}"
            );
        }

        let (round, message) = within_deadline(move || {
            let dets = vec![quiet(), on_caller(Act::Panic(None)), quiet()];
            let (round, message, ()) =
                serve_until_panic(dets, shards, || ()).expect("the scripted panic propagated");
            (round, message)
        });
        assert_eq!(round, cue_round, "shards={shards}: {message}");
        assert!(!message.contains("sad-fleet-"), "shards={shards}: the caller ran it: {message}");
    }
}

/// When the caller's own step panics while a helper runs a pooled job,
/// `drain_round` unwinds only after that job has finished. The caller's
/// step panics only once the helper has started the job. The stalling
/// stream reports no drift before its cue, so it is home at the cue round
/// and its scoring job is out before the caller's step.
#[test]
fn a_caller_panic_waits_for_the_helpers_before_it_unwinds() {
    if helpers() == 0 {
        return;
    }
    for shards in [1, 2] {
        let (started, finished) = within_deadline(move || {
            let (started, finished) = (flag(), flag());
            let stall = Act::Stall {
                started: started.clone(),
                finished: finished.clone(),
                nap: Duration::from_millis(200),
            };
            let caller = Act::Await { flag: started.clone(), panic: true };
            let dets = vec![pooled_home_at_cue(stall), on_caller(caller), quiet()];
            let probe = || (started.load(SeqCst), finished.load(SeqCst));
            let (_, message, seen) =
                serve_until_panic(dets, shards, probe).expect("the caller's panic propagated");
            assert!(message.starts_with("scripted step panic"), "{message}");
            seen
        });
        assert!(started, "shards={shards}: a helper claimed the stalling job");
        assert!(finished, "shards={shards}: unwound while a helper was mid-job");
    }
}

/// A μσ drift detector that forces a drift at observation [`CUE`] and
/// panics, naming its thread, in the adaptation that drift owes, after
/// setting `adapted`.
#[derive(Clone)]
struct PanickingAdaptation {
    inner: Box<dyn DriftDetector>,
    seen: usize,
    armed: bool,
    adapted: Arc<AtomicBool>,
}

impl DriftDetector for PanickingAdaptation {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observe(&mut self, x: &FeatureVector, update: &SetUpdate, train: &[FeatureVector]) -> bool {
        let forced = self.seen == CUE;
        self.seen += 1;
        self.armed |= forced;
        self.inner.observe(x, update, train) || forced
    }

    fn on_fine_tune(&mut self, train: &[FeatureVector]) {
        if self.armed {
            self.adapted.store(true, SeqCst);
            panic_here();
        }
        self.inner.on_fine_tune(train);
    }

    fn ops(&self) -> OpCount {
        self.inner.ops()
    }

    fn clone_box(&self) -> Box<dyn DriftDetector> {
        Box::new(self.clone())
    }
}

/// An adaptation runs after the round that scored its drift has returned,
/// and a panic in it reaches the caller when its stream resumes: with a
/// helper, the test waits for the helper to run (and panic in) the
/// adaptation between the two rounds, and the message names the helper.
/// Afterwards every stream is home: `detector` serves each of them.
#[test]
fn an_adaptation_panic_reaches_the_caller_and_every_stream_comes_home() {
    for shards in [1, 2] {
        let (round, message, home) = within_deadline(move || {
            let adapted = flag();
            let spec: AlgorithmSpec = paper_algorithms()[6];
            assert!(spec.label().contains("AE"), "registry moved: {:?}", spec.label());
            let config = DetectorConfig {
                window: WINDOW,
                channels: 2,
                warmup: WARMUP,
                initial_epochs: 1,
                fine_tune_epochs: 1,
            };
            let params =
                BuildParams::new(config).with_capacity(12).with_score(ScoreKind::Raw).with_seed(4);
            let drift = PanickingAdaptation {
                inner: build_task2(spec.task2, &params),
                seen: 0,
                armed: false,
                adapted: adapted.clone(),
            };
            let panicking = Detector::new(
                params.config.clone(),
                build_model(spec.model, &params),
                build_task1(spec.task1, &params),
                Box::new(drift),
                build_scorer(params.score, &params),
            );
            let nap = Duration::ZERO;
            let quiet_caller = on_caller(Act::Stall { started: flag(), finished: flag(), nap });
            let dets = vec![quiet(), panicking, quiet_caller, quiet()];
            let streams = dets.len();
            let config = FleetConfig { shards, ..FleetConfig::default() };
            let mut fleet = DetectorFleet::new(dets, config);
            let mut out: Vec<Option<StepOutput>> = Vec::new();
            let mut raised = None;
            for round in 0..2 * CUE {
                let x = round as f64 * 0.2;
                for id in 0..streams {
                    assert!(fleet.enqueue(id, &[(x + id as f64).sin(), (0.7 * x).cos()]));
                }
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fleet.drain_round(&mut out);
                }));
                if let Err(payload) = caught {
                    let message = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_else(|| "<non-string panic>".to_owned());
                    raised = Some((round, message));
                    break;
                }
                if round == CUE + WINDOW - 1 && helpers() > 0 {
                    let since = Instant::now();
                    while !adapted.load(SeqCst) && since.elapsed() < Duration::from_secs(10) {
                        std::thread::yield_now();
                    }
                }
            }
            let (round, message) = raised.expect("the adaptation's panic propagated");
            let home = (0..streams).all(|id| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fleet.detector(id).time()))
                    .is_ok()
            });
            (round, message, home)
        });
        assert_eq!(round, CUE + WINDOW, "shards={shards}: raised as its stream resumed: {message}");
        assert!(message.starts_with("scripted step panic"), "shards={shards}: {message}");
        if helpers() > 0 {
            assert!(message.contains("sad-fleet-"), "shards={shards}: a helper ran it: {message}");
        }
        assert!(home, "shards={shards}: every stream is home after the panic");
    }
}
