//! Bitwise parity of every evaluation path against one oracle.
//!
//! The oracle is a standalone detector per `(spec, scorer)`: built fresh by
//! `build_detector` and streamed over the whole series by `Detector::run`.
//! Every shortcut the Table III grid takes is compared with it bit for bit
//! (`f64::to_bits`, never an epsilon):
//!
//! | case | path under test |
//! |---|---|
//! | fan-out traces | `Detector::run_fanout` over a three-scorer bank, all 26 specs |
//! | shared-warm-up forks | `SharedWarmup::fork` per drift variant and scorer, all 14 roots |
//! | tree rows | `evaluate_tree` rows, all 14 roots / 26 specs |
//! | grid | `run_grid` at `--jobs` 1/2/4/8 |
//! | proptest | a random root, seed and series through the fan-out and `evaluate_tree` |
//!
//! With the anomaly-feedback strategy (ARES) `f_t` feeds the reservoir, so
//! a fan-out pass follows its driver scorer: only the driver's trace is a
//! standalone run, and every bank scorer replays the driver's
//! nonconformity sequence.

use sad_bench::{
    cell_index, evaluate_tree, harness_params, plan_roots, run_grid, EvalRow, GridDims,
    HarnessScale, JobPool,
};
use sad_core::{
    paper_algorithms, AlgorithmSpec, DetectorConfig, ModelKind, ScoreKind, StepOutput, Task1,
};
use sad_data::{daphnet_like, smd_like, Corpus, CorpusParams, LabeledSeries};
use sad_metrics::{best_f1, best_nab, pr_auc, vus_pr};
use sad_models::{
    build_detector, build_scorer, build_scorer_bank, build_shared_warmup, BuildParams,
};

const SCORERS: [ScoreKind; 3] = [ScoreKind::Raw, ScoreKind::Average, ScoreKind::AnomalyLikelihood];

/// A standalone detector's run over one whole series.
struct Oracle {
    outputs: Vec<StepOutput>,
    drift_times: Vec<usize>,
    /// First post-warm-up step (`series.len()` when warm-up never ended).
    offset: usize,
}

impl Oracle {
    fn run(
        spec: AlgorithmSpec,
        params: &BuildParams,
        kind: ScoreKind,
        series: &[Vec<f64>],
    ) -> Self {
        let mut det = build_detector(spec, &params.clone().with_score(kind));
        let outputs = det.run(series);
        let offset = outputs.first().map_or(series.len(), |o| o.t);
        Self { outputs, drift_times: det.drift_times().to_vec(), offset }
    }

    fn scores(&self) -> Vec<f64> {
        self.outputs.iter().map(|o| o.anomaly_score).collect()
    }
}

/// The oracle's corpus-averaged metric row for `(spec, kind)`.
fn oracle_row(
    spec: AlgorithmSpec,
    params: &BuildParams,
    kind: ScoreKind,
    corpus: &Corpus,
) -> EvalRow {
    let rows: Vec<EvalRow> = corpus
        .series
        .iter()
        .map(|series| {
            let oracle = Oracle::run(spec, params, kind, &series.data);
            metrics_row(&oracle.scores(), &series.labels[oracle.offset..], params.config.window)
        })
        .collect();
    EvalRow::mean(&rows)
}

/// The five-metric sweep of one score trace (40 thresholds, as the
/// harness uses).
fn metrics_row(scores: &[f64], labels: &[bool], window: usize) -> EvalRow {
    let n = 40;
    let (_th, precision, recall, _f1) = best_f1(scores, labels, n);
    let (_nab_th, nab) = best_nab(scores, labels, n);
    EvalRow {
        precision,
        recall,
        auc: pr_auc(scores, labels, n),
        vus: vus_pr(scores, labels, window, n),
        nab: nab.score,
        train_seconds: 0.0,
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The metric bits of a row; `train_seconds` is wall-clock telemetry.
fn row_bits(row: &EvalRow) -> [u64; 5] {
    [row.precision, row.recall, row.auc, row.vus, row.nab].map(f64::to_bits)
}

fn step_bits(outputs: &[StepOutput]) -> Vec<(usize, u64, u64, bool, bool)> {
    outputs
        .iter()
        .map(|o| (o.t, o.nonconformity.to_bits(), o.anomaly_score.to_bits(), o.drift, o.fine_tuned))
        .collect()
}

/// Small-but-real detector configuration for trace-level checks.
fn tiny_params(channels: usize, seed: u64) -> BuildParams {
    let config =
        DetectorConfig { window: 6, channels, warmup: 80, initial_epochs: 2, fine_tune_epochs: 1 };
    BuildParams::new(config).with_capacity(12).with_kswin_stride(3).with_seed(seed)
}

/// Deterministic synthetic multivariate series with a planted level shift.
fn synthetic_series(len: usize, channels: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..len)
        .map(|t| {
            (0..channels)
                .map(|c| {
                    let phase = (seed % 17) as f64 * 0.31 + c as f64 * 0.7;
                    let base = ((t as f64) * 0.11 + phase).sin();
                    let shift = if t > 2 * len / 3 { 0.8 } else { 0.0 };
                    base + 0.05 * (((t * (c + 3)) % 23) as f64 - 11.0) / 11.0 + shift
                })
                .collect()
        })
        .collect()
}

/// One `run_fanout` pass over a three-scorer bank against the oracle.
fn assert_fanout_matches_oracle(spec: AlgorithmSpec, params: &BuildParams, series: &[Vec<f64>]) {
    let label = spec.label();
    let mut det = build_detector(spec, &params.clone().with_score(SCORERS[0]));
    let feedback_free = det.scorer_feedback_free();
    assert_eq!(feedback_free, spec.task1 != Task1::AnomalyAwareReservoir, "{label}");
    let run = det.run_fanout(series, &mut build_scorer_bank(&SCORERS, params));
    let driver = Oracle::run(spec, params, SCORERS[0], series);
    assert_eq!(run.offset, driver.offset, "{label}: offset");
    assert_eq!(det.drift_times(), driver.drift_times, "{label}: drift times");
    assert_eq!(run.traces.len(), SCORERS.len(), "{label}");
    assert_eq!(bits(&run.traces[0]), bits(&driver.scores()), "{label}: driver trace");
    for (k, &kind) in SCORERS.iter().enumerate() {
        // Every bank scorer replays the driver's nonconformity sequence…
        let mut scorer = build_scorer(kind, params);
        let replay: Vec<f64> =
            driver.outputs.iter().map(|o| scorer.update(o.nonconformity)).collect();
        assert_eq!(bits(&run.traces[k]), bits(&replay), "{label} / {kind:?}: replay");
        // …which is that scorer's own standalone run when the trajectory
        // ignores `f_t`.
        if feedback_free {
            let own = Oracle::run(spec, params, kind, series);
            assert_eq!(bits(&run.traces[k]), bits(&own.scores()), "{label} / {kind:?}");
        }
    }
}

#[test]
fn fanout_traces_match_the_oracle_for_all_26_specs() {
    let series = synthetic_series(260, 2, 5);
    let params = tiny_params(2, 9);
    let specs = paper_algorithms();
    assert_eq!(specs.iter().filter(|s| s.task1 == Task1::AnomalyAwareReservoir).count(), 9);
    for spec in specs {
        assert_fanout_matches_oracle(spec, &params, &series);
    }
}

/// Warming a root once and forking it per drift variant and scorer gives
/// each standalone detector's post-warm-up outputs and drift times.
#[test]
fn shared_warmup_forks_match_the_oracle_for_all_14_roots() {
    let series = synthetic_series(260, 2, 5);
    let params = tiny_params(2, 9);
    let warm = params.config.warmup;
    let specs = paper_algorithms();
    for root in plan_roots(&specs) {
        let mut shared = build_shared_warmup(root.model, root.task1, &root.task2s, &params);
        for s in &series[..warm] {
            shared.step(s);
        }
        assert!(shared.is_warmed_up(), "{}", root.label());
        for (v, &spec_idx) in root.members.iter().enumerate() {
            let spec = specs[spec_idx];
            for &kind in &SCORERS {
                let mut fork = shared.fork(v, build_scorer(kind, &params));
                let outputs = fork.run(&series[warm..]);
                let oracle = Oracle::run(spec, &params, kind, &series);
                assert_eq!(
                    step_bits(&outputs),
                    step_bits(&oracle.outputs),
                    "{} / {kind:?}",
                    spec.label()
                );
                assert_eq!(fork.drift_times(), oracle.drift_times, "{} / {kind:?}", spec.label());
            }
        }
    }
}

/// `evaluate_tree` rows for every root, drift variant and scorer — with one
/// shared `fit_initial` per series, not one per variant.
#[test]
fn tree_rows_match_the_oracle_for_all_14_roots_and_26_specs() {
    let cp = CorpusParams { length: 520, n_series: 1, anomalies_per_series: 2, with_drift: true };
    let corpus = smd_like(3, cp);
    let params = tiny_params(corpus.series[0].channels(), 21);
    let specs = paper_algorithms();
    let roots = plan_roots(&specs);
    assert_eq!(roots.len(), 14);
    let mut covered = 0usize;
    for root in &roots {
        let tree = evaluate_tree(root.model, root.task1, &root.task2s, &params, &corpus, &SCORERS);
        assert_eq!(tree.rows.len(), root.members.len(), "{}", root.label());
        assert_eq!(tree.initial_fits, corpus.series.len(), "{}", root.label());
        assert_eq!(
            tree.shared_pass,
            root.task1 != Task1::AnomalyAwareReservoir,
            "{}",
            root.label()
        );
        for (v, &spec_idx) in root.members.iter().enumerate() {
            let spec = specs[spec_idx];
            assert_eq!(tree.rows[v].len(), SCORERS.len());
            for (k, &kind) in SCORERS.iter().enumerate() {
                assert_eq!(
                    row_bits(&tree.rows[v][k]),
                    row_bits(&oracle_row(spec, &params, kind, &corpus)),
                    "{} / {kind:?}",
                    spec.label(),
                );
            }
            covered += 1;
        }
    }
    assert_eq!(covered, 26);
}

/// The root-scheduled grid lands every cell on the oracle's row at any
/// worker count, rebuilding its corpora from the seed on every run.
#[test]
fn grid_matches_the_oracle_at_every_worker_count() {
    let cp = CorpusParams { length: 600, n_series: 1, anomalies_per_series: 2, with_drift: true };
    let corpora = || vec![daphnet_like(13, cp), smd_like(13, cp)];
    // Paired roots under all three Task-1 strategies plus both PCB-iForest
    // singletons.
    let specs: Vec<AlgorithmSpec> = paper_algorithms()
        .into_iter()
        .filter(|s| matches!(s.model, ModelKind::OnlineArima | ModelKind::PcbIForest))
        .collect();
    assert_eq!(specs.len(), 8);
    let roots = plan_roots(&specs);
    let dims = GridDims { corpora: 2, scorers: SCORERS.len() };
    let n_roots = roots.len() * dims.corpora;

    let mut reference = Vec::new();
    let mut names = Vec::new();
    for spec in &specs {
        for corpus in &corpora() {
            let params = harness_params(corpus.series[0].channels(), HarnessScale::Quick);
            for &kind in &SCORERS {
                reference.push(oracle_row(*spec, &params, kind, corpus));
                names.push(format!("{} @ {} / {kind:?}", spec.label(), corpus.name));
            }
        }
    }
    // Per job, root-major then corpus.
    let root_labels: Vec<String> = roots
        .iter()
        .flat_map(|r| corpora().into_iter().map(move |c| format!("{} @ {}", r.label(), c.name)))
        .collect();
    let shared: Vec<bool> = roots
        .iter()
        .flat_map(|r| std::iter::repeat_n(r.task1 != Task1::AnomalyAwareReservoir, dims.corpora))
        .collect();

    for jobs in [1usize, 2, 4, 8] {
        let grid = run_grid(&specs, &corpora(), &SCORERS, HarnessScale::Quick, JobPool::new(jobs));
        assert_eq!(grid.rows.len(), specs.len() * dims.corpora * dims.scorers, "jobs={jobs}");
        assert_eq!(grid.root_times.len(), n_roots, "jobs={jobs}");
        assert_eq!(grid.root_labels, root_labels, "jobs={jobs}");
        assert_eq!(grid.root_shared, shared, "jobs={jobs}");
        // One fit per root and series, whatever the variant count.
        assert_eq!(grid.initial_fits(), n_roots, "jobs={jobs}");
        assert_eq!(grid.jobs_used, jobs.min(n_roots), "jobs={jobs}");
        for si in 0..specs.len() {
            for ci in 0..dims.corpora {
                for ki in 0..dims.scorers {
                    let idx = cell_index(si, ci, ki, dims);
                    assert_eq!(
                        row_bits(&grid.rows[idx]),
                        row_bits(&reference[idx]),
                        "jobs={jobs}: {}",
                        names[idx],
                    );
                }
            }
        }
    }
}

mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

        /// A random root, seed and series: every member's fan-out traces and
        /// every `(variant, scorer)` tree row equal the oracle's.
        #[test]
        fn random_root_seed_and_series_match_the_oracle(
            root_idx in 0usize..14,
            seed in 0u64..1000,
            len in 200usize..320,
        ) {
            let specs = paper_algorithms();
            let root = &plan_roots(&specs)[root_idx];
            let series = synthetic_series(len, 2, seed);
            let params = tiny_params(2, seed);
            for &spec_idx in &root.members {
                assert_fanout_matches_oracle(specs[spec_idx], &params, &series);
            }
            // Label the tail of the planted level shift so the metric sweep
            // is non-degenerate.
            let labels: Vec<bool> = (0..len).map(|t| t > 3 * len / 4).collect();
            let corpus = Corpus {
                name: "prop".into(),
                series: vec![LabeledSeries::new("prop-s0", series, labels)],
            };
            let tree =
                evaluate_tree(root.model, root.task1, &root.task2s, &params, &corpus, &SCORERS);
            prop_assert_eq!(tree.initial_fits, 1);
            for (v, &spec_idx) in root.members.iter().enumerate() {
                for (k, &kind) in SCORERS.iter().enumerate() {
                    let oracle = oracle_row(specs[spec_idx], &params, kind, &corpus);
                    prop_assert_eq!(row_bits(&tree.rows[v][k]), row_bits(&oracle));
                }
            }
        }
    }
}
