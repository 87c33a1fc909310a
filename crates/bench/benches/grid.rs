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

criterion_group!(benches, bench_group, bench_warmup_fork);
criterion_main!(benches);
