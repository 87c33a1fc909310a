//! f32 serving under admission churn: the wire-fed engine with
//! `FleetConfig::f32_infer` on against an identical engine with it off.
//!
//! `serve_parity.rs` pins the f64 engine bitwise; this suite covers what
//! only the f32 path has: per-cohort weight snapshots that must follow
//! the fleet through every membership change. The traffic admits streams
//! staggered over time — so the arch group outgrows the workspace it was
//! created with — retires streams on the idle timeout, reuses their slots
//! for later admissions, and plants level shifts so fine-tunes re-sync
//! snapshots mid-trace.
//!
//! Every stream keeps its training set with a sliding window and detects
//! drift with μ/σ-Change on stream statistics, so no training decision
//! reads a score: drift and fine-tune flags must be exactly equal, and
//! scores agree to f32 accuracy.

use sad_core::{AlgorithmSpec, DetectorConfig, ModelKind, ScoreKind, StepOutput, Task1, Task2};
use sad_fleet::FleetConfig;
use sad_ingest::{DetectorTemplate, EngineConfig, EngineSink, Frame, IngestEngine, IngestStats};
use sad_models::BuildParams;

const WINDOW: usize = 8;
const IDLE_ROUNDS: u64 = 4;
const ABS_TOL: f64 = 5e-3;

fn template() -> DetectorTemplate {
    let spec = AlgorithmSpec {
        model: ModelKind::TwoLayerAe,
        task1: Task1::SlidingWindow,
        task2: Task2::MuSigma,
    };
    let config = DetectorConfig {
        window: WINDOW,
        channels: 2,
        warmup: 40,
        initial_epochs: 1,
        fine_tune_epochs: 1,
    };
    let params =
        BuildParams::new(config).with_capacity(12).with_score(ScoreKind::Raw).with_seed(11);
    DetectorTemplate::new(spec, params)
}

/// What a stream sends at its local step `t`.
#[derive(Clone, Copy)]
enum Signal {
    /// Periodic with the window length: every window holds the same
    /// values, so these streams share one cohort whenever they are live.
    Periodic,
    /// Phase-shifted sine pair with a level shift at local step `shift`.
    Shifted { phase: f64, shift: usize },
}

impl Signal {
    fn at(self, t: usize) -> [f64; 2] {
        match self {
            Signal::Periodic => {
                let phase = std::f64::consts::TAU * (t % WINDOW) as f64 / WINDOW as f64;
                [phase.sin(), phase.cos() * 0.5]
            }
            Signal::Shifted { phase, shift } => {
                let x = t as f64 * 0.09 + phase;
                let jump = if t >= shift { 2.5 } else { 0.0 };
                [x.sin() + jump, (x * 0.63).cos() - 0.5 * jump]
            }
        }
    }
}

/// `(start tick, frames sent, signal)` per wire id. Streams 2 and 8 stop
/// early and are retired by the idle timeout; 10 and 11 arrive after
/// that and reuse the vacated slots.
fn plan() -> Vec<(usize, usize, Signal)> {
    use Signal::{Periodic, Shifted};
    vec![
        (0, 200, Periodic),
        (0, 200, Periodic),
        (5, 90, Shifted { phase: 0.7, shift: 60 }),
        (12, 200, Periodic),
        (20, 200, Shifted { phase: 1.9, shift: 80 }),
        (45, 160, Periodic),
        (55, 150, Periodic),
        (65, 120, Shifted { phase: 0.3, shift: 70 }),
        (75, 60, Periodic),
        (85, 120, Periodic),
        (110, 100, Periodic),
        (150, 70, Shifted { phase: 2.4, shift: 50 }),
    ]
}

/// Served outputs per wire id.
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

/// Feeds the plan tick by tick (one frame per live stream per tick, in
/// wire-id order) and flushes.
fn serve(f32_infer: bool) -> (IngestStats, Traces) {
    let fleet = FleetConfig { f32_infer, ..FleetConfig::default() };
    let cfg = EngineConfig { idle_rounds: Some(IDLE_ROUNDS), ..EngineConfig::default() };
    let mut engine = IngestEngine::new(template(), fleet, cfg);
    let mut traces = Traces::default();
    let plan = plan();
    let ticks = plan.iter().map(|&(start, len, _)| start + len).max().unwrap_or(0);
    let mut frame = Frame::default();
    for tick in 0..ticks {
        for (id, &(start, len, signal)) in plan.iter().enumerate() {
            if (start..start + len).contains(&tick) {
                frame.stream = id as u64;
                frame.values.clear();
                frame.values.extend_from_slice(&signal.at(tick - start));
                engine.ingest(&frame, &mut traces);
            }
        }
    }
    engine.finish(&mut traces);
    (engine.stats(), traces)
}

#[test]
fn f32_serving_tracks_f64_under_admission_churn() {
    let (f64_stats, f64_traces) = serve(false);
    let (f32_stats, f32_traces) = serve(true);
    let plan = plan();

    for stats in [&f64_stats, &f32_stats] {
        let dropped = stats.fleet.bp_dropped_newest + stats.fleet.bp_dropped_oldest;
        assert_eq!(stats.fleet.steps + dropped, stats.frames, "frame accounting: {stats:?}");
        assert_eq!(stats.frames, plan.iter().map(|p| p.1).sum::<usize>());
        assert_eq!(stats.fleet.admitted, plan.len(), "one admission per wire id: {stats:?}");
        assert!(stats.idle_retired >= 2, "early leavers retire on the idle timeout: {stats:?}");
    }
    assert_eq!(f64_stats.fleet.f32_rows, 0, "f64 engine must not serve f32 rows");
    assert!(f32_stats.fleet.f32_rows > 0, "f32 snapshot path engaged: {f32_stats:?}");
    assert_eq!(
        f32_stats.fleet.f32_rows, f32_stats.fleet.batched_rows,
        "every batched row served in f32: {f32_stats:?}",
    );
    // Same serving decisions on both engines: churn is precision-blind.
    assert_eq!(f32_stats.fleet.batched_rows, f64_stats.fleet.batched_rows);
    assert_eq!(f32_stats.fleet.batches, f64_stats.fleet.batches);
    assert_eq!(f32_stats.fleet.cohort_rebuilds, f64_stats.fleet.cohort_rebuilds);

    assert_eq!(f32_traces.by.len(), plan.len());
    assert_eq!(f64_traces.by.len(), plan.len());
    let mut fine_tunes = 0;
    for (id, (a, b)) in f32_traces.by.iter().zip(&f64_traces.by).enumerate() {
        assert_eq!(a.len(), b.len(), "wire {id}: output count");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.t, y.t, "wire {id}: step index");
            assert_eq!(
                (x.drift, x.fine_tuned),
                (y.drift, y.fine_tuned),
                "wire {id} t={}: flags",
                x.t,
            );
            let tol = |want: f64| ABS_TOL * want.abs().max(1.0);
            assert!(
                (x.nonconformity - y.nonconformity).abs() <= tol(y.nonconformity),
                "wire {id} t={}: nonconformity {} vs {}",
                x.t,
                x.nonconformity,
                y.nonconformity,
            );
            assert!(
                (x.anomaly_score - y.anomaly_score).abs() <= tol(y.anomaly_score),
                "wire {id} t={}: anomaly score {} vs {}",
                x.t,
                x.anomaly_score,
                y.anomaly_score,
            );
            fine_tunes += usize::from(x.fine_tuned);
        }
    }
    assert!(fine_tunes > 0, "planted shifts must re-sync snapshots mid-trace");
}
