//! Shared evaluation loop: run one Table I algorithm over one corpus and
//! compute the paper's five metrics.
//!
//! Protocol (mirroring §V-B): per series, the detector warms up on the
//! prefix, streams the remainder, and its anomaly scores are evaluated
//! against the post-warm-up labels. Precision and recall are reported at
//! the best-F1 threshold of the score sweep (the paper does not state its
//! thresholding rule; best-F1 is the conventional choice and is applied
//! uniformly to every algorithm). Metrics are averaged across the corpus's
//! series.

use sad_core::{DetectorConfig, ModelKind, ScoreKind, Task1, Task2};
use sad_data::Corpus;
use sad_metrics::{best_f1, best_nab, pr_auc, vus_pr};
use sad_models::{build_scorer, build_scorer_bank, build_shared_warmup, BuildParams};

/// One row of Table III: the five metrics for one algorithm on one corpus.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalRow {
    /// Range-based precision at the best-F1 threshold.
    pub precision: f64,
    /// Range-based recall at the best-F1 threshold.
    pub recall: f64,
    /// Area under the range-based precision-recall curve.
    pub auc: f64,
    /// Volume under the PR surface.
    pub vus: f64,
    /// Point-wise NAB score.
    pub nab: f64,
    /// Wall time (seconds) the detectors spent in model training (initial
    /// fit + drift-triggered fine-tunes), summed over the corpus's series.
    /// Telemetry, not a metric: excluded from the table output and from
    /// the bitwise-determinism guarantees. The harness reads the per-root
    /// total ([`TreeEval::train_seconds`]) instead.
    pub train_seconds: f64,
}

impl EvalRow {
    /// Element-wise mean of several rows, skipping NaN cells per metric.
    ///
    /// A NaN metric (e.g. a VUS that degenerated on an all-negative series)
    /// previously poisoned the whole averaged row. Each metric now averages
    /// only its finite values; a metric with *no* finite values stays NaN so
    /// the degenerate case remains visible instead of being silently zeroed.
    pub fn mean(rows: &[EvalRow]) -> EvalRow {
        if rows.is_empty() {
            return EvalRow::default();
        }
        let mean_of = |field: fn(&EvalRow) -> f64| -> f64 {
            let mut sum = 0.0;
            let mut n = 0usize;
            for row in rows {
                let v = field(row);
                if !v.is_nan() {
                    sum += v;
                    n += 1;
                }
            }
            if n == 0 {
                f64::NAN
            } else {
                sum / n as f64
            }
        };
        EvalRow {
            precision: mean_of(|r| r.precision),
            recall: mean_of(|r| r.recall),
            auc: mean_of(|r| r.auc),
            vus: mean_of(|r| r.vus),
            nab: mean_of(|r| r.nab),
            // Wall time is a cost, not a quality metric: totals add up.
            train_seconds: rows.iter().map(|r| r.train_seconds).sum(),
        }
    }
}

/// Harness size profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HarnessScale {
    /// Fast profile for iteration: short series, strided KSWIN.
    Quick,
    /// Paper-shaped profile: `w = 100`, warm-up 5000, per-step KSWIN.
    Full,
}

/// Build parameters for a corpus with `channels` channels under a scale
/// profile.
pub fn harness_params(channels: usize, scale: HarnessScale) -> BuildParams {
    match scale {
        HarnessScale::Quick => {
            let config = DetectorConfig {
                window: 20,
                channels,
                warmup: 400,
                initial_epochs: 5,
                fine_tune_epochs: 1,
            };
            BuildParams::new(config).with_capacity(40).with_kswin_stride(5)
        }
        HarnessScale::Full => {
            let config = DetectorConfig::paper(channels);
            BuildParams::new(config).with_capacity(50).with_kswin_stride(1)
        }
    }
}

/// Number of thresholds in every metric sweep (one value for the whole
/// harness so PR curves are comparable across algorithms).
const N_THRESHOLDS: usize = 40;

/// Computes the five-metric row for one score trace against its aligned
/// labels.
fn metrics_row(
    scores: &[f64],
    labels: &[bool],
    window: usize,
    train_seconds: f64,
) -> EvalRow {
    debug_assert_eq!(scores.len(), labels.len());
    let (_th, precision, recall, _f1) = best_f1(scores, labels, N_THRESHOLDS);
    let auc = pr_auc(scores, labels, N_THRESHOLDS);
    let vus = vus_pr(scores, labels, window, N_THRESHOLDS);
    // NAB gets its own best operating point, symmetric with the best-F1
    // treatment of precision/recall (the paper does not state its
    // thresholding rule).
    let (_nab_th, report) = best_nab(scores, labels, N_THRESHOLDS);
    EvalRow { precision, recall, auc, vus, nab: report.score, train_seconds }
}

/// Result of evaluating one **root** of the shared-prefix evaluation tree:
/// a `(model, Task1, corpus)` node whose warm-up segment + initial fit is
/// streamed ONCE and forked across several Task-2 drift variants, each
/// fork fanned out over every scorer.
#[derive(Debug, Clone)]
pub struct TreeEval {
    /// `rows[variant][scorer]`: one corpus-averaged metric row per
    /// `(drift variant, scorer)` leaf, both in input order.
    pub rows: Vec<Vec<EvalRow>>,
    /// Whether the scorer fan-out shared a single detector pass per fork.
    /// `false` only for anomaly-feedback strategies (ARES) evaluated over
    /// several scorers.
    pub shared_pass: bool,
    /// True training wall time of the root (seconds): the shared initial
    /// fit counted ONCE across all variants and scorers, plus every fork's
    /// own fine-tune cost.
    pub train_seconds: f64,
    /// Number of `fit_initial` invocations actually performed — one per
    /// series that reached warm-up, *regardless of the variant count*.
    pub initial_fits: usize,
}

/// Evaluates one shared-prefix root: `(model, task1)` on `corpus`, forked
/// over the drift variants in `task2s`, fanned out over `scorers` — the
/// harness's one evaluation path. A single spec is a one-variant root.
///
/// Bitwise identical to one standalone detector per
/// `(model, task1, task2, scorer)` streamed over each whole series, but
/// the expensive shared prefix — warm-up streaming of the representation
/// and Task-1 strategy, and the initial model fit — is computed once per
/// series instead of once per leaf. This is sound because the warm-up
/// trajectory is drift-verdict-independent (the verdict is ignored and
/// `f_t` is pinned to 0; see [`sad_core::SharedWarmup`]) and every
/// component seeds its own RNG chain.
///
/// Per fork the scorer dimension then collapses:
///
/// * **Shared pass** (SW / URES): one [`sad_core::Detector::run_fanout`]
///   pass over the post-warm-up suffix, replayed through a
///   [`sad_core::ScorerBank`].
/// * **Scorer forks** (ARES): `f_t` feeds the reservoir, so each scorer
///   gets its own fork of the warmed root.
pub fn evaluate_tree(
    model: ModelKind,
    task1: Task1,
    task2s: &[Task2],
    params: &BuildParams,
    corpus: &Corpus,
    scorers: &[ScoreKind],
) -> TreeEval {
    assert!(!task2s.is_empty(), "at least one drift variant required");
    assert!(!scorers.is_empty(), "at least one scorer required");
    let window = params.config.window;
    // Per-(variant, scorer) accumulation of per-series rows.
    let mut per_leaf: Vec<Vec<Vec<EvalRow>>> =
        vec![vec![Vec::new(); scorers.len()]; task2s.len()];
    let mut root_train = 0.0f64;
    let mut initial_fits = 0usize;
    let mut shared_pass = true;
    for series in &corpus.series {
        // One warm-up + initial fit for the whole variant fan.
        let mut shared = build_shared_warmup(model, task1, task2s, params);
        let warm = params.config.warmup.min(series.data.len());
        for s in &series.data[..warm] {
            shared.step(s);
        }
        let base_train = shared.train_time().as_secs_f64();
        root_train += base_train;
        initial_fits += shared.is_warmed_up() as usize;
        // A series ending inside warm-up has `warm == series.data.len()`,
        // so this uniformly aligns labels with the (possibly empty)
        // post-warm-up traces.
        let (suffix, labels) = (&series.data[warm..], &series.labels[warm..]);
        let feedback_free = shared.scorer_feedback_free();
        shared_pass &= feedback_free || scorers.len() == 1;
        for (v, leaves) in per_leaf.iter_mut().enumerate() {
            if feedback_free {
                // The fork's own scorer drives `f_t` exactly as a
                // standalone detector built with `scorers[0]` would; the
                // bank replays the same pass for every scorer.
                let mut fork = shared.fork(v, build_scorer(scorers[0], params));
                let run = fork.run_fanout(suffix, &mut build_scorer_bank(scorers, params));
                let train = fork.train_time().as_secs_f64();
                // The fork's telemetry carries the shared fit; only its
                // post-fork fine-tunes are new cost for the root.
                root_train += train - base_train;
                for (k, trace) in run.traces.iter().enumerate() {
                    leaves[k].push(metrics_row(trace, labels, window, train));
                }
            } else {
                for (k, &kind) in scorers.iter().enumerate() {
                    let mut fork = shared.fork(v, build_scorer(kind, params));
                    let (scores, _) = fork.score_series(suffix);
                    let train = fork.train_time().as_secs_f64();
                    root_train += train - base_train;
                    leaves[k].push(metrics_row(&scores, labels, window, train));
                }
            }
        }
    }
    TreeEval {
        rows: per_leaf
            .iter()
            .map(|leaves| leaves.iter().map(|rows| EvalRow::mean(rows)).collect())
            .collect(),
        shared_pass,
        train_seconds: root_train,
        initial_fits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sad_core::paper_algorithms;
    use sad_data::{daphnet_like, CorpusParams};

    #[test]
    fn quick_profile_evaluates_one_algorithm() {
        let mut params = CorpusParams::small();
        params.length = 900;
        params.n_series = 1;
        let corpus = daphnet_like(3, params);
        let spec = paper_algorithms()[0]; // Online ARIMA / SW / μσ
        let bp = harness_params(9, HarnessScale::Quick);
        let tree = evaluate_tree(
            spec.model,
            spec.task1,
            &[spec.task2],
            &bp,
            &corpus,
            &[ScoreKind::AnomalyLikelihood],
        );
        assert!(tree.shared_pass);
        assert_eq!(tree.initial_fits, 1);
        let row = tree.rows[0][0];
        assert!((0.0..=1.0).contains(&row.precision));
        assert!((0.0..=1.0).contains(&row.recall));
        assert!((0.0..=1.0).contains(&row.auc));
        assert!((0.0..=1.0).contains(&row.vus));
        assert!(row.nab.is_finite());
    }

    #[test]
    fn mean_skips_nan_cells_per_metric() {
        let rows = [
            EvalRow { precision: 0.8, recall: 0.6, auc: 0.5, vus: f64::NAN, nab: 1.0, ..EvalRow::default() },
            EvalRow { precision: 0.4, recall: 0.2, auc: 0.7, vus: 0.3, nab: 3.0, ..EvalRow::default() },
        ];
        let m = EvalRow::mean(&rows);
        // NaN VUS in one row must not poison the other metrics…
        assert!((m.precision - 0.6).abs() < 1e-12);
        assert!((m.recall - 0.4).abs() < 1e-12);
        assert!((m.auc - 0.6).abs() < 1e-12);
        assert!((m.nab - 2.0).abs() < 1e-12);
        // …and VUS averages only its finite values.
        assert!((m.vus - 0.3).abs() < 1e-12);
    }

    #[test]
    fn mean_with_all_nan_metric_stays_nan() {
        let rows = [
            EvalRow { vus: f64::NAN, ..EvalRow::default() },
            EvalRow { vus: f64::NAN, ..EvalRow::default() },
        ];
        let m = EvalRow::mean(&rows);
        assert!(m.vus.is_nan(), "fully-degenerate metric must stay visible");
        assert_eq!(m.precision, 0.0);
    }

    #[test]
    fn mean_of_rows() {
        let rows = [
            EvalRow { precision: 1.0, recall: 0.0, auc: 0.5, vus: 0.2, nab: -2.0, train_seconds: 0.5 },
            EvalRow { precision: 0.0, recall: 1.0, auc: 0.5, vus: 0.4, nab: 4.0, train_seconds: 0.25 },
        ];
        let m = EvalRow::mean(&rows);
        assert_eq!(m.precision, 0.5);
        assert_eq!(m.recall, 0.5);
        assert_eq!(m.auc, 0.5);
        assert!((m.vus - 0.3).abs() < 1e-12);
        assert_eq!(m.nab, 1.0);
        // Train time is a cost: it sums instead of averaging.
        assert!((m.train_seconds - 0.75).abs() < 1e-12);
    }
}
