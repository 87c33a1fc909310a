//! Shared-pass scorer fan-out vs per-scorer evaluation.
//!
//! Measures one `(spec, corpus)` Table III group (a one-variant
//! [`sad_bench::evaluate_tree`] root) evaluated two ways:
//!
//! * `shared_pass` — the fan-out path: one detector pass per series, the
//!   nonconformity trace replayed through a three-scorer
//!   [`sad_core::ScorerBank`] (what [`sad_bench::run_grid`] schedules).
//! * `per_scorer` — three independent detector passes, one per scorer.
//!
//! The ratio is the tentpole speedup of the fan-out refactor (~3× for
//! scorer-feedback-free groups, which are 24 of 26 Table I specs ×
//! corpora). An ARES group is measured too: it shares only the warm-up,
//! so its ratio is bounded by the warm-up share of the series.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sad_bench::{evaluate_tree, TreeEval};
use sad_core::{paper_algorithms, AlgorithmSpec, DetectorConfig, ModelKind, ScoreKind, Task1, Task2};
use sad_data::{daphnet_like, Corpus, CorpusParams};
use sad_models::BuildParams;
use std::hint::black_box;

const SCORERS: [ScoreKind; 3] =
    [ScoreKind::Raw, ScoreKind::Average, ScoreKind::AnomalyLikelihood];

/// One spec on its own: a one-variant shared-prefix root.
fn spec_root(
    spec: AlgorithmSpec,
    params: &BuildParams,
    corpus: &Corpus,
    scorers: &[ScoreKind],
) -> TreeEval {
    evaluate_tree(spec.model, spec.task1, &[spec.task2], params, corpus, scorers)
}

fn bench_group(c: &mut Criterion) {
    let cp = CorpusParams { length: 900, n_series: 1, anomalies_per_series: 2, with_drift: true };
    let corpus = daphnet_like(42, cp);
    let config = DetectorConfig {
        window: 20,
        channels: corpus.series[0].channels(),
        warmup: 300,
        initial_epochs: 2,
        fine_tune_epochs: 1,
    };
    let params = BuildParams::new(config).with_capacity(40).with_kswin_stride(5);

    // One cheap feedback-free spec (shared pass) and its ARES sibling
    // (warm-up share only).
    let shared_spec = paper_algorithms()
        .into_iter()
        .find(|s| s.model == ModelKind::OnlineArima && s.task1 == Task1::SlidingWindow)
        .expect("ARIMA/SW is in Table I");
    let ares_spec = paper_algorithms()
        .into_iter()
        .find(|s| s.model == ModelKind::OnlineArima && s.task1 == Task1::AnomalyAwareReservoir)
        .expect("ARIMA/ARES is in Table I");

    let mut group = c.benchmark_group("table3_group");
    group.sample_size(10);
    for (name, spec) in [("shared_pass/ARIMA-SW", shared_spec), ("warmup_share/ARIMA-ARES", ares_spec)]
    {
        group.bench_with_input(BenchmarkId::from_parameter(name), &spec, |b, &spec| {
            b.iter(|| black_box(spec_root(spec, &params, &corpus, &SCORERS)));
        });
    }
    // The same group without fan-out: three independent single-scorer
    // evaluations, i.e. exactly one detector pass per scorer.
    group.bench_with_input(
        BenchmarkId::from_parameter("per_scorer/ARIMA-SW"),
        &shared_spec,
        |b, &spec| {
            b.iter(|| {
                for &kind in &SCORERS {
                    black_box(spec_root(spec, &params, &corpus, &[kind]));
                }
            });
        },
    );
    group.finish();
}

/// Shared-prefix tree root vs two independent warm-ups.
///
/// Measures one `(model, SW)` drift-variant pair evaluated two ways:
///
/// * `shared_fit_fork` — the tree path: one warm-up + one `fit_initial`,
///   forked into the μ/σ and KSWIN arms (what [`sad_bench::run_grid`]
///   schedules per root since the shared-prefix tree).
/// * `independent_refit` — one one-variant root per drift variant: each
///   does its own warm-up + initial fit.
///
/// The ratio is the tentpole speedup of this refactor; it grows with the
/// cost of `fit_initial`, so the AE pair separates further than the
/// ARIMA pair.
fn bench_warmup_fork(c: &mut Criterion) {
    let cp = CorpusParams { length: 900, n_series: 1, anomalies_per_series: 2, with_drift: true };
    let corpus = daphnet_like(42, cp);
    let config = DetectorConfig {
        window: 20,
        channels: corpus.series[0].channels(),
        warmup: 300,
        initial_epochs: 2,
        fine_tune_epochs: 1,
    };
    let params = BuildParams::new(config).with_capacity(40).with_kswin_stride(5);
    let task2s = [Task2::MuSigma, Task2::Kswin];

    let mut group = c.benchmark_group("warmup_fork_vs_refit");
    group.sample_size(10);
    for (name, model) in [("ARIMA-SW", ModelKind::OnlineArima), ("AE-SW", ModelKind::TwoLayerAe)] {
        group.bench_with_input(BenchmarkId::new("shared_fit_fork", name), &model, |b, &model| {
            b.iter(|| {
                black_box(evaluate_tree(
                    model,
                    Task1::SlidingWindow,
                    &task2s,
                    &params,
                    &corpus,
                    &SCORERS,
                ))
            });
        });
        group.bench_with_input(BenchmarkId::new("independent_refit", name), &model, |b, &model| {
            b.iter(|| {
                for &task2 in &task2s {
                    let spec = AlgorithmSpec { model, task1: Task1::SlidingWindow, task2 };
                    black_box(spec_root(spec, &params, &corpus, &SCORERS));
                }
            });
        });
    }
    group.finish();
}

/// kNN k-th-neighbour query: per-point scalar distances vs the packed
/// snapshot sweep.
///
/// * `per_point` — the frozen legacy path
///   ([`sad_models::KnnDistanceModel::kth_distance_of`]): one sequential
///   squared-difference sum per reference vector.
/// * `snapshot_sweep` — the offline-scoring path: the reference set packed
///   transposed into a contiguous matrix at training time, every query
///   answered by a feature-major `sq_dist_accum` sweep + quickselect
///   (bitwise-equal to `per_point`, pinned in `knn_snapshot_parity`).
///
/// Shapes use the Table III quick-profile feature dim (w·N = 180) at two
/// reference-set sizes bracketing the SW/reservoir capacities.
fn bench_knn_sweep(c: &mut Criterion) {
    use sad_core::{FeatureVector, StreamModel};
    use sad_models::KnnDistanceModel;

    let dim = 180usize;
    let k = 5usize;
    let mut state = 0x0005_1ee7_u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let mut group = c.benchmark_group("knn_sweep");
    for &m in &[40usize, 200] {
        let refs: Vec<FeatureVector> =
            (0..m).map(|_| FeatureVector::new((0..dim).map(|_| next()).collect(), dim, 1)).collect();
        let query = FeatureVector::new((0..dim).map(|_| next()).collect(), dim, 1);
        let mut model = KnnDistanceModel::new(k);
        model.fine_tune(&refs);
        let id = format!("m{m}_dim{dim}");
        group.bench_with_input(BenchmarkId::new("per_point", &id), &m, |b, _| {
            b.iter(|| {
                black_box(KnnDistanceModel::kth_distance_of(k, black_box(&query), &refs))
            });
        });
        group.bench_with_input(BenchmarkId::new("snapshot_sweep", &id), &m, |b, _| {
            b.iter(|| black_box(model.snapshot_kth_distance(k, black_box(&query))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_group, bench_warmup_fork, bench_knn_sweep);
criterion_main!(benches);
