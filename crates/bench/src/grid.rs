//! The shared (spec × corpus × scorer) evaluation grid behind Table III.
//!
//! [`run_grid`] schedules one job per **root** of the shared-prefix
//! evaluation tree — a `(model, Task1, corpus)` node covering every
//! Task-2 drift variant of that pair ([`plan_roots`]). Inside each root
//! the warm-up segment and the initial model fit are streamed **once**
//! and forked per drift variant ([`crate::eval::evaluate_tree`]); inside
//! each fork the scorer dimension is fanned out through a single shared
//! detector pass per series. The paper grid (26 specs × 3 corpora)
//! schedules 42 roots: 12 paired `(model, Task1)` combos plus 2
//! PCB-iForest singletons, × 3 corpora.
//!
//! Root results are scattered into the cell layout: cell order stays
//! fixed (spec-major, then corpus, then scorer) and results come back in
//! that order regardless of worker count, so table assembly downstream is
//! purely positional and parallel output is byte-identical to serial
//! output. Timing is reported per root, the unit actually measured.

use crate::eval::{evaluate_tree, harness_params, EvalRow, HarnessScale};
use crate::parallel::{JobPool, JobReport};
use sad_core::{AlgorithmSpec, ModelKind, ScoreKind, Task1, Task2};
use sad_data::Corpus;
use std::time::Duration;

/// Flat result of one grid run.
#[derive(Debug, Clone)]
pub struct GridRun {
    /// One metric row per cell, in [`cell_index`] order.
    pub rows: Vec<EvalRow>,
    /// Measured wall time per root — the actual scheduling unit — in root
    /// order (root-major, then corpus).
    pub root_times: Vec<Duration>,
    /// True training seconds per root (the shared initial fit counted
    /// once across all drift variants and scorers).
    pub root_train_seconds: Vec<f64>,
    /// End-to-end wall time of the grid run.
    pub wall_time: Duration,
    /// Worker threads used.
    pub jobs_used: usize,
    /// Total `fit_initial` invocations (see [`GridRun::initial_fits`]).
    initial_fits: usize,
}

impl GridRun {
    /// Sum of per-root wall times (see `JobReport::cpu_time` for the
    /// oversubscription caveat).
    pub fn cpu_time(&self) -> Duration {
        self.root_times.iter().sum()
    }

    /// Total `fit_initial` invocations across the grid — the headline
    /// saving of the shared-prefix tree (42 on the paper grid's quick
    /// profile, one per root and series).
    pub fn initial_fits(&self) -> usize {
        self.initial_fits
    }
}

/// Grid dimensions needed to map a cell triple to its flat index.
#[derive(Debug, Clone, Copy)]
pub struct GridDims {
    /// Number of corpora.
    pub corpora: usize,
    /// Number of scorers.
    pub scorers: usize,
}

/// Flat index of `(spec_idx, corpus_idx, scorer_idx)` — spec-major, then
/// corpus, then scorer.
#[inline]
pub fn cell_index(spec_idx: usize, corpus_idx: usize, scorer_idx: usize, dims: GridDims) -> usize {
    (spec_idx * dims.corpora + corpus_idx) * dims.scorers + scorer_idx
}

/// One root of the shared-prefix evaluation tree: a `(model, Task1)` pair
/// and the specs (identified by index into the scheduled spec list) that
/// share its warm-up + initial fit, differing only in their Task-2 drift
/// variant.
#[derive(Debug, Clone)]
pub struct RootSpec {
    /// The shared ML model.
    pub model: ModelKind,
    /// The shared Task-1 training-set strategy.
    pub task1: Task1,
    /// Indices into the spec list, in first-occurrence order.
    pub members: Vec<usize>,
    /// The members' drift variants, aligned with `members`.
    pub task2s: Vec<Task2>,
}

impl RootSpec {
    /// Display label, e.g. `"USAD / ARES"`.
    pub fn label(&self) -> String {
        format!("{} / {}", self.model.label(), self.task1.label())
    }
}

/// Groups a spec list into shared-prefix roots by `(model, Task1)`,
/// preserving first-occurrence order. On the paper grid this folds the
/// 26 specs into 14 roots (12 drift-variant pairs + the 2 PCB-iForest
/// singletons).
pub fn plan_roots(specs: &[AlgorithmSpec]) -> Vec<RootSpec> {
    let mut roots: Vec<RootSpec> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        match roots.iter_mut().find(|r| r.model == spec.model && r.task1 == spec.task1) {
            Some(root) => {
                root.members.push(i);
                root.task2s.push(spec.task2);
            }
            None => roots.push(RootSpec {
                model: spec.model,
                task1: spec.task1,
                members: vec![i],
                task2s: vec![spec.task2],
            }),
        }
    }
    roots
}

/// Evaluates the grid on `pool`, one job per `(root, corpus)` with the
/// drift-variant and scorer dimensions collapsed inside the job.
///
/// Each root job is a pure function of its index: it derives its own
/// [`harness_params`] and seeds its own detectors, so execution order
/// cannot leak into the results.
pub fn run_grid(
    specs: &[AlgorithmSpec],
    corpora: &[Corpus],
    scorers: &[ScoreKind],
    scale: HarnessScale,
    pool: JobPool,
) -> GridRun {
    let dims = GridDims { corpora: corpora.len(), scorers: scorers.len() };
    let roots = plan_roots(specs);
    let n_jobs = roots.len() * corpora.len();
    let JobReport { results, job_times, wall_time, jobs_used } = pool.run(n_jobs, |job| {
        let corpus_idx = job % dims.corpora;
        let root = &roots[job / dims.corpora];
        let corpus = &corpora[corpus_idx];
        let params = harness_params(corpus.series[0].channels(), scale);
        evaluate_tree(root.model, root.task1, &root.task2s, &params, corpus, scorers)
    });

    // Scatter root results into the cell layout. Scatter (not
    // concatenation): a root's member specs are interleaved with other
    // roots' in cell order, but each `(spec, corpus, scorer)` slot is
    // written exactly once.
    let mut rows = vec![EvalRow::default(); specs.len() * dims.corpora * dims.scorers];
    for (job, tree) in results.iter().enumerate() {
        let root = &roots[job / dims.corpora];
        for (&spec_idx, leaves) in root.members.iter().zip(&tree.rows) {
            for (k, row) in leaves.iter().enumerate() {
                rows[cell_index(spec_idx, job % dims.corpora, k, dims)] = *row;
            }
        }
    }
    GridRun {
        rows,
        root_times: job_times,
        root_train_seconds: results.iter().map(|tree| tree.train_seconds).collect(),
        wall_time,
        jobs_used,
        initial_fits: results.iter().map(|tree| tree.initial_fits).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sad_core::paper_algorithms;

    #[test]
    fn cell_index_is_a_bijection() {
        let dims = GridDims { corpora: 3, scorers: 5 };
        let mut seen = [false; 4 * 3 * 5];
        for s in 0..4 {
            for c in 0..3 {
                for k in 0..5 {
                    let idx = cell_index(s, c, k, dims);
                    assert!(!seen[idx], "duplicate index {idx}");
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// The paper grid folds into 14 roots: 12 drift-variant pairs plus
    /// the two PCB-iForest singletons — 42 scheduled jobs over 3 corpora.
    #[test]
    fn paper_grid_plans_fourteen_roots() {
        let specs = paper_algorithms();
        let roots = plan_roots(&specs);
        assert_eq!(roots.len(), 14);
        let members: usize = roots.iter().map(|r| r.members.len()).sum();
        assert_eq!(members, specs.len());
        let pairs = roots.iter().filter(|r| r.members.len() == 2).count();
        let singletons = roots.iter().filter(|r| r.members.len() == 1).count();
        assert_eq!((pairs, singletons), (12, 2));
        for root in &roots {
            assert_eq!(
                root.members.len() == 1,
                root.model == ModelKind::PcbIForest,
                "{}: only PCB-iForest lacks a drift pair",
                root.label()
            );
            // Every member really shares the root's prefix…
            for (&m, &task2) in root.members.iter().zip(&root.task2s) {
                assert_eq!(specs[m].model, root.model);
                assert_eq!(specs[m].task1, root.task1);
                assert_eq!(specs[m].task2, task2);
            }
        }
        // …and every spec index appears in exactly one root.
        let mut seen = vec![false; specs.len()];
        for root in &roots {
            for &m in &root.members {
                assert!(!seen[m], "spec {m} scheduled twice");
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
