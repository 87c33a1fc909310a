//! End-to-end and per-layer benchmark of `streamad`'s two user-facing
//! paths: the offline Table III evaluation grid and wire-fed serving.
//!
//! ```sh
//! python3 perfbench/run.py --workload serve_churn --seed 42 --seconds 10 --trace 0
//! ```
//!
//! `run.py` builds this package and forwards its arguments. The last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. See
//! `perfbench/README.md` for the workloads, the metric definitions and
//! which end-to-end number each layer metric should move.

mod grid;
mod serve;
mod split;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

/// The seed that reproduces the committed reference artifacts.
pub const DEFAULT_SEED: u64 = 42;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("steps_per_s", "1/s"),
    ("verdict_latency_p50_us", "us"),
    ("verdict_latency_p90_us", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ingest.decode_ns", "ns"),
    ("ingest.route_offer_ns", "ns"),
    ("ingest.admit_us", "us"),
    ("ingest.ids_issued", "count"),
    ("ingest.live_max", "count"),
    ("ingest.retired", "count"),
    ("ingest.frames_per_round", "count"),
    ("fleet.round_us.p50", "us"),
    ("fleet.round_us.p99", "us"),
    ("fleet.queue_wait_us", "us"),
    ("fleet.rows_per_batch", "count"),
    ("fleet.scalar_share", "ratio"),
    ("fleet.f32_share", "ratio"),
    ("fleet.f32_round_us", "us"),
    ("fleet.cohort_rebuilds", "count"),
    ("fleet.bp_blocked", "count"),
    ("fleet.parallel_round_us", "us"),
    ("fleet.serial_round_us", "us"),
    ("replica.steps_per_s", "1/s"),
    ("replica.decode_ns", "ns"),
    ("replica.route_offer_ns", "ns"),
    ("replica.round_us.p50", "us"),
    ("replica.round_us.p99", "us"),
    ("replica.queue_wait_us", "us"),
    ("replica.rows_per_batch", "count"),
    ("replica.scalar_share", "ratio"),
    ("replica.fine_tunes", "count"),
    ("core.begin_step_ns", "ns"),
    ("core.warmup_step_ns", "ns"),
    ("core.finish_step_ns.mu_sigma", "ns"),
    ("core.finish_step_ns.kswin", "ns"),
    ("core.drift_events", "count"),
    ("models.predict_ns.ae", "ns"),
    ("models.predict_ns.usad", "ns"),
    ("models.predict_ns.nbeats", "ns"),
    ("models.predict_ns.arima", "ns"),
    ("models.predict_ns.pcb", "ns"),
    ("models.fit_initial_ms", "ms"),
    ("models.fine_tune_ms.ae", "ms"),
    ("models.fine_tune_ms.usad", "ms"),
    ("models.fine_tune_ms.nbeats", "ms"),
    ("models.fine_tune_ms.arima", "ms"),
    ("models.fine_tune_ms.pcb", "ms"),
    ("models.fine_tunes", "count"),
    ("models.train_share", "ratio"),
    ("metrics.score_trace_ms", "ms"),
    ("bench.root_s.ae", "s"),
    ("bench.root_s.usad", "s"),
    ("bench.root_s.nbeats", "s"),
    ("bench.root_s.arima", "s"),
    ("bench.root_s.pcb", "s"),
    ("bench.initial_fits", "count"),
    ("bench.train_share", "ratio"),
    ("obs.telemetry_tax_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.clock_ns", "ns"),
    ("trace.spans", "count"),
    ("self_pct.bench", "%"),
    ("self_pct.ingest", "%"),
    ("self_pct.fleet", "%"),
    ("self_pct.core", "%"),
    ("self_pct.models", "%"),
    ("self_pct.metrics", "%"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured region.
    pub budget: Duration,
    pub trace: bool,
    /// `grid_quick` only, a check without metrics: evaluate all three
    /// corpora and compare the whole rendered table with the committed one
    /// (60–80 s serial).
    pub full_grid: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            budget: Duration::from_secs(10),
            trace: false,
            full_grid: false,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    args.budget = Duration::from_secs_f64(s);
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    }
                }
                "--full-grid" => args.full_grid = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        if args.full_grid && (args.workload != "grid_quick" || args.trace) {
            return Err("--full-grid needs --workload grid_quick and --trace 0".into());
        }
        Ok(args)
    }
}

/// What a workload hands back: the correctness verdict, the attempt
/// accounting and the measured metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed ahead of the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Verdict latency of one measured unit (grid pass, wire replay, churn
/// chunk). Only the percentiles are kept, so memory does not grow with
/// the length of the run.
#[derive(Debug, Clone, Copy)]
pub struct UnitLatency {
    p50: f64,
    p90: f64,
    samples: usize,
}

impl UnitLatency {
    /// Summarises and clears `latency_us`.
    pub fn take(latency_us: &mut Vec<f64>) -> Self {
        let unit = Self {
            p50: stats::quantile(latency_us, 0.5),
            p90: stats::quantile(latency_us, 0.9),
            samples: latency_us.len(),
        };
        latency_us.clear();
        unit
    }
}

/// Reports the end-to-end metrics; `peak_rss_mb` is read when the clock
/// stops, before the output checks allocate their references.
///
/// The machine's speed drifts over seconds, so a percentile of a run's
/// pooled samples jumps between its fast and slow periods; each reported
/// percentile is the mean over units of the unit's percentile, which
/// averages over them the way throughput does.
pub fn report_end_to_end(
    report: &mut Report,
    steps_per_s: f64,
    units: &[UnitLatency],
    peak_rss_mb: f64,
    setup_s: f64,
) {
    let samples: usize = units.iter().map(|u| u.samples).sum();
    let p50 = stats::mean(units.iter().map(|u| u.p50));
    let p90 = stats::mean(units.iter().map(|u| u.p90));
    report.note(format!(
        "verdict latency over {} units and {samples} samples",
        units.len()
    ));
    report.metric("steps_per_s", steps_per_s);
    report.metric("verdict_latency_p50_us", p50);
    report.metric("verdict_latency_p90_us", p90);
    report.metric("peak_rss_mb", peak_rss_mb);
    report.metric("setup_s", setup_s);
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The environment a result set was measured in. `run.py compare`
/// refuses to compare result sets whose `nproc` or `simd_leg` differ.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    #[cfg(target_arch = "x86_64")]
    let (avx2, avx512f) = (
        std::is_x86_feature_detected!("avx2"),
        std::is_x86_feature_detected!("avx512f"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, avx512f) = (false, false);
    let leg = if cfg!(feature = "simd") {
        "simd"
    } else {
        "portable"
    };
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"avx2\": {avx2}, \"avx512f\": {avx512f}, \
         \"simd_leg\": \"{leg}\", \"git_rev\": {}, \"rustc\": {}}}",
        json_str(&cpu),
        json_str(&env("PERFBENCH_GIT_REV")),
        json_str(&env("PERFBENCH_RUSTC")),
    )
}

/// Checks the report's metric set against the contract for this mode and
/// fills per-layer metrics the workload never exercised with 0.
fn complete_metrics(report: &mut Report, trace: bool) -> Result<(), String> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    for (name, _) in &report.metrics {
        if !table.iter().any(|(n, _)| n == name) {
            return Err(format!("workload reported unexpected metric {name}"));
        }
    }
    for (name, _) in table {
        if !report.metrics.iter().any(|(n, _)| n == name) {
            if trace {
                report.metrics.push((name, 0.0));
            } else {
                return Err(format!("workload did not report end-to-end metric {name}"));
            }
        }
    }
    for (name, value) in &report.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
    }
    report
        .metrics
        .sort_by_key(|(n, _)| table.iter().position(|(m, _)| m == n));
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "grid_quick" => grid::run(&args),
        "serve_churn" => serve::churn(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    println!("fingerprint {}", fingerprint());
    for line in &report.notes {
        println!("{line}");
    }
    // `--full-grid` is a check only and reports no metrics.
    if !args.full_grid {
        if let Err(e) = complete_metrics(&mut report, args.trace) {
            report.problems.push(e);
        }
    }
    let correct = report.problems.is_empty();
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    // A run that fails a check reports the failure, not a number.
    let metrics = if correct {
        let table = if args.trace { PER_LAYER } else { END_TO_END };
        report
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = table.iter().find(|(n, _)| n == name).map_or("", |(_, u)| u);
                format!(
                    "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    } else {
        String::new()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted.max(1),
        report.failed,
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
