//! f32 serving agreement: the `FleetConfig::f32_infer` snapshot path
//! against the bitwise-parity f64 fleet, on the standard mixed fleet from
//! `fleet_parity.rs`.
//!
//! What "agreement" means here is precise, not hand-wavy:
//!
//! * **Training is bitwise untouched.** The f32 path only perturbs emitted
//!   model outputs; every stream in this fleet maintains its training set
//!   with a sliding window and detects drift from *stream* statistics
//!   (μ/σ-Change, KS), neither of which reads a score. So drift times,
//!   fine-tune counts and flags must be **exactly** equal — any divergence
//!   is a bug, not rounding. (Components that branch on scores would not
//!   get this guarantee; see EXPERIMENTS.md §E12's eligibility rule.)
//! * **Scores agree to f32 accuracy.** Nonconformity and anomaly score
//!   per step within a small absolute + relative tolerance.
//! * **f32 serving is itself deterministic to the bit.** The tolerance
//!   above would let a reordered reduction or a changed scaler rounding
//!   slip through, so a frozen FNV-1a digest of every f32 output's bits
//!   pins the snapshot path exactly. The f32 kernels keep a fixed lane
//!   order on both simd legs, so one constant serves both.

use sad_core::{paper_algorithms, AlgorithmSpec, Detector, DetectorConfig, ScoreKind, StepOutput};
use sad_fleet::{DetectorFleet, FleetConfig};
use sad_models::{build_detector, BuildParams};

fn spec(idx: usize, expect: &str) -> AlgorithmSpec {
    let specs = paper_algorithms();
    let s = specs[idx];
    assert!(s.label().contains(expect), "registry moved: {} is {:?}", idx, s.label());
    s
}

fn detector(idx: usize, expect: &str, seed: u64) -> Detector {
    let config =
        DetectorConfig { window: 5, channels: 2, warmup: 50, initial_epochs: 2, fine_tune_epochs: 1 };
    let params =
        BuildParams::new(config).with_capacity(16).with_score(ScoreKind::Raw).with_seed(seed);
    build_detector(spec(idx, expect), &params)
}

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

/// The `fleet_parity.rs` mixed fleet: cohort twins, same-arch separate
/// cohorts, three NN families, one never-batchable stream, and planted
/// level shifts so fine-tune → refresh events land inside the trace.
fn mixed_streams() -> Vec<(usize, &'static str, u64, Vec<Vec<f64>>)> {
    vec![
        (6, "AE", 7, series(180, 0.0, Some(110))),
        (6, "AE", 7, series(180, 0.0, Some(110))),
        (6, "AE", 7, series(180, 1.3, None)),
        (6, "AE", 9, series(180, 0.0, Some(110))),
        (12, "USAD", 5, series(180, 0.7, Some(120))),
        (18, "N-BEATS", 11, series(180, 0.4, None)),
        (24, "PCB-iForest", 3, series(180, 0.9, Some(100))),
    ]
}

const ABS_TOL: f64 = 5e-3;

fn assert_scores_close(f32_trace: &[StepOutput], f64_trace: &[StepOutput], label: &str) {
    assert_eq!(f32_trace.len(), f64_trace.len(), "{label}: trace length");
    for (a, b) in f32_trace.iter().zip(f64_trace) {
        assert_eq!(a.t, b.t, "{label}: step index");
        assert_eq!(a.drift, b.drift, "{label}: drift flag diverges at t={}", a.t);
        assert_eq!(a.fine_tuned, b.fine_tuned, "{label}: fine-tune flag diverges at t={}", a.t);
        let tol = |want: f64| ABS_TOL * want.abs().max(1.0);
        assert!(
            (a.nonconformity - b.nonconformity).abs() <= tol(b.nonconformity),
            "{label}: nonconformity {} vs {} at t={}",
            a.nonconformity,
            b.nonconformity,
            a.t,
        );
        assert!(
            (a.anomaly_score - b.anomaly_score).abs() <= tol(b.anomaly_score),
            "{label}: anomaly score {} vs {} at t={}",
            a.anomaly_score,
            b.anomaly_score,
            a.t,
        );
    }
}

/// Runs the mixed fleet with f32 serving on or off.
fn run_mixed(f32_infer: bool) -> (DetectorFleet, Vec<Vec<StepOutput>>) {
    let streams = mixed_streams();
    let fleet_series: Vec<Vec<Vec<f64>>> = streams.iter().map(|s| s.3.clone()).collect();
    let dets: Vec<Detector> =
        streams.iter().map(|&(idx, expect, seed, _)| detector(idx, expect, seed)).collect();
    let config = FleetConfig { f32_infer, ..FleetConfig::default() };
    let mut fleet = DetectorFleet::new(dets, config);
    let traces = fleet.run(&fleet_series);
    (fleet, traces)
}

#[test]
fn f32_infer_agrees_with_f64_on_mixed_fleet() {
    let streams = mixed_streams();
    let (f64_fleet, f64_traces) = run_mixed(false);
    let (f32_fleet, f32_traces) = run_mixed(true);

    for i in 0..streams.len() {
        let label = format!("stream {i}");
        assert_scores_close(&f32_traces[i], &f64_traces[i], &label);
        // Training is score-independent here → exact equality.
        assert_eq!(
            f32_fleet.detector(i).drift_times(),
            f64_fleet.detector(i).drift_times(),
            "{label}: drift times",
        );
        assert_eq!(
            f32_fleet.detector(i).fine_tune_count(),
            f64_fleet.detector(i).fine_tune_count(),
            "{label}: fine-tune count",
        );
    }

    // The fleets really took different serving paths.
    let f64_stats = f64_fleet.stats();
    let f32_stats = f32_fleet.stats();
    assert_eq!(f64_stats.f32_rows, 0, "f64 fleet must not touch the snapshot path");
    assert!(f32_stats.batched_rows > 0, "batched path engaged");
    assert_eq!(
        f32_stats.f32_rows, f32_stats.batched_rows,
        "every batched row served through an f32 snapshot: {f32_stats:?}",
    );
    // Fine-tunes landed inside the trace, so snapshots were refreshed via
    // the dirty-on-training-event hook (not just built once).
    assert!(f32_stats.cohort_rebuilds > 1, "snapshot refreshes exercised: {f32_stats:?}");
    // The structural serving counters agree: same batching decisions.
    assert_eq!(f32_stats.steps, f64_stats.steps);
    assert_eq!(f32_stats.batched_rows, f64_stats.batched_rows);
    assert_eq!(f32_stats.scalar_steps, f64_stats.scalar_steps);
    assert_eq!(f32_stats.cohort_rebuilds, f64_stats.cohort_rebuilds);
}

/// Scores must not be *identical* either — an f32 path that bitwise equals
/// f64 on every step would mean the snapshot path silently isn't running.
#[test]
fn f32_infer_actually_runs_in_reduced_precision() {
    let data = series(180, 0.0, None);
    let run = |f32_infer: bool| {
        let config = FleetConfig { f32_infer, ..FleetConfig::default() };
        let mut fleet = DetectorFleet::new(vec![detector(6, "AE", 7)], config);
        fleet.run(std::slice::from_ref(&data))
    };
    let f64_trace = run(false);
    let f32_trace = run(true);
    assert!(
        f64_trace[0]
            .iter()
            .zip(&f32_trace[0])
            .any(|(a, b)| a.nonconformity.to_bits() != b.nonconformity.to_bits()),
        "f32 serving must produce f32-rounded scores, not the f64 bits",
    );
}

/// FNV-1a over every output's `t`, score bits and flags, stream-major.
/// Returns the digest and the number of outputs hashed.
fn trace_digest(traces: &[Vec<StepOutput>]) -> (u64, usize) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut outputs = 0;
    for o in traces.iter().flatten() {
        feed(&(o.t as u64).to_le_bytes());
        feed(&o.nonconformity.to_bits().to_le_bytes());
        feed(&o.anomaly_score.to_bits().to_le_bytes());
        feed(&[u8::from(o.drift), u8::from(o.fine_tuned)]);
        outputs += 1;
    }
    (hash, outputs)
}

/// Digest of the mixed fleet's f32 outputs, frozen when the snapshot path
/// was first pinned. Any change to f32 arithmetic (lane order, activation,
/// scaler rounding, snapshot re-sync timing) moves it.
const F32_MIXED_FLEET_DIGEST: u64 = 0xc860_6453_afbc_cba8;

#[test]
fn f32_serving_is_pinned_to_the_bit() {
    let (fleet, traces) = run_mixed(true);
    let stats = fleet.stats();
    assert_eq!(stats.f32_rows, 780, "six NN streams × 130 post-warm-up steps: {stats:?}");
    let (digest, outputs) = trace_digest(&traces);
    assert_eq!(outputs, 910, "seven streams × 130 post-warm-up steps");
    assert_eq!(digest, F32_MIXED_FLEET_DIGEST, "f32 serving output bits moved: {digest:#018x}");
}
