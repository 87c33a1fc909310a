//! # sad-stats
//!
//! Streaming statistics substrate for the `streamad` workspace.
//!
//! The paper's two concept-drift detectors are built entirely from the
//! primitives in this crate:
//!
//! * **μ/σ-Change** (paper §IV-B, Task 2) needs a running mean and standard
//!   deviation over a training set that changes by single-element
//!   insert/replace operations — [`running::RunningStats`] and
//!   [`running::VectorRunningStats`] provide exactly the `O(1)` update rules
//!   the paper's Table II counts operations for.
//! * **KSWIN** needs the two-sample Kolmogorov–Smirnov test with the
//!   `c(α)√((r_i+r_t)/(r_i r_t))` critical value — [`ks`].
//!
//! The **anomaly likelihood** score (§IV-E) needs the Gaussian tail function
//! `Q(x)` — [`gaussian`]. [`opcount`] carries the arithmetic-operation
//! bookkeeping used to regenerate Table II, and [`mod@quantile`] provides the
//! order statistics used by evaluation and threshold selection.

pub mod gaussian;
pub mod ks;
pub mod opcount;
pub mod quantile;
pub mod running;

pub use gaussian::{erfc, normal_cdf, normal_pdf, q_function};
pub use ks::{
    ks_critical_value, ks_statistic, ks_statistic_runs, ks_test, KsOutcome, Run, RunMultiset,
};
pub use opcount::OpCount;
pub use quantile::{median, quantile};
pub use running::{RunningStats, VectorRunningStats};
