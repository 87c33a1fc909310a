//! # sad-bench
//!
//! The experiment harness regenerating every table and figure of the paper
//! (see DESIGN.md's experiment index):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1_combinations` | Table I — the 26 evaluated combinations |
//! | `table2_ops` | Table II — μ/σ-Change vs KSWIN operation counts |
//! | `table3_results` | Table III — 26 algorithms × 3 corpora × 5 metrics |
//! | `fig1_finetune` | Figure 1 — fine-tune vs frozen after drift |
//! | `ablation_drift_agreement` | §V-B claim: μ/σ ≈ KSWIN triggers |
//! | `ablation_task1` | §V-B claim: ARES helps |
//!
//! Criterion micro-benches live in `benches/`. The [`eval`] module holds
//! the shared corpus-evaluation loop; [`fmt`] the plain-text table printer.

pub mod eval;
pub mod fmt;
pub mod grid;
pub mod parallel;
pub mod timing;

pub use eval::{evaluate_tree, harness_params, EvalRow, HarnessScale, TreeEval};
pub use fmt::Table;
pub use grid::{cell_index, plan_roots, run_grid, GridDims, GridRun, RootSpec};
pub use parallel::{available_workers, HarnessArgs, JobPool, JobReport};
pub use timing::{RootTiming, TimingArtifact};
