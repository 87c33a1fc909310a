//! Scoped-thread job pool for the evaluation grid (std-only).
//!
//! The Table III grid runs as 42 independent shared-prefix roots (one
//! `(model, Task1, corpus)` node each; see [`crate::grid`]) —
//! embarrassingly parallel. [`JobPool::run`] executes an indexed set of
//! jobs on `N` worker threads that self-schedule off a shared atomic
//! cursor (each worker `fetch_add`s the next job index — the classic
//! work-queue pattern, so an unlucky worker stuck on a slow N-BEATS root
//! never blocks the rest of the queue).
//!
//! **Determinism:** every job is a pure function of its index (each root
//! seeds its own RNG chains), and results land in a pre-allocated slot
//! vector indexed by job id. Output is therefore *byte-identical* across
//! any `--jobs` value, including `--serial`; only wall time changes. The
//! `pool_props` proptest pins the pool's side of this, and the
//! `eval_parity` suite checks `run_grid` at `--jobs` 1/2/4/8 against one
//! standalone detector per cell.
//!
//! Per-job wall times are captured and surfaced through [`JobReport`];
//! `run_grid` keeps them per root in `GridRun::root_times`, which
//! perfbench's `grid_quick` workload reads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Outcome of one pool run: ordered results plus timing telemetry.
#[derive(Debug, Clone)]
pub struct JobReport<T> {
    /// Job results in submission order (slot `i` holds job `i`'s output),
    /// regardless of which worker ran which job when.
    pub results: Vec<T>,
    /// Per-job wall time, same order as `results`.
    pub job_times: Vec<Duration>,
    /// End-to-end wall time of the pool run.
    pub wall_time: Duration,
    /// Number of worker threads actually used.
    pub jobs_used: usize,
}

impl<T> JobReport<T> {
    /// Sum of per-job wall times.
    ///
    /// On an uncontended machine this is the serial-equivalent cost of the
    /// run. When more workers run than physical cores are available (e.g. a
    /// cgroup-limited container), concurrent jobs time-slice and each job's
    /// wall time — and therefore this sum — is inflated by the
    /// oversubscription factor, so `cpu_time / wall_time` measures observed
    /// *concurrency*, which is an upper bound on real speedup.
    pub fn cpu_time(&self) -> Duration {
        self.job_times.iter().sum()
    }
}

/// A fixed-width worker pool over scoped threads.
#[derive(Debug, Clone, Copy)]
pub struct JobPool {
    workers: usize,
}

impl JobPool {
    /// Creates a pool with exactly `workers` threads (min 1).
    pub fn new(workers: usize) -> Self {
        Self { workers: workers.max(1) }
    }

    /// Creates a pool sized to the machine's available parallelism.
    pub fn auto() -> Self {
        Self::new(available_workers())
    }

    /// Number of worker threads this pool will spawn.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `n_jobs` jobs, where job `i` computes `run(i)`, and returns
    /// the results in index order together with timing telemetry.
    ///
    /// With one worker (or one job) the pool degrades to a plain serial
    /// loop on the calling thread — the `--serial` escape hatch costs no
    /// thread spawns.
    pub fn run<T, F>(&self, n_jobs: usize, run: F) -> JobReport<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let started = Instant::now();
        let workers = self.workers.min(n_jobs).max(1);

        if workers <= 1 {
            let mut results = Vec::with_capacity(n_jobs);
            let mut job_times = Vec::with_capacity(n_jobs);
            for i in 0..n_jobs {
                let t0 = Instant::now();
                results.push(run(i));
                job_times.push(t0.elapsed());
            }
            return JobReport { results, job_times, wall_time: started.elapsed(), jobs_used: 1 };
        }

        // Shared cursor: workers self-schedule by claiming the next index.
        let cursor = AtomicUsize::new(0);
        let run = &run;
        let mut completed: Vec<(usize, T, Duration)> = Vec::with_capacity(n_jobs);

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    scope.spawn(move || {
                        let mut local: Vec<(usize, T, Duration)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n_jobs {
                                break;
                            }
                            let t0 = Instant::now();
                            let out = run(i);
                            local.push((i, out, t0.elapsed()));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                completed.extend(handle.join().expect("pool worker panicked"));
            }
        });

        // Deterministic ordering: place every result in its slot by index.
        debug_assert_eq!(completed.len(), n_jobs, "every job runs exactly once");
        let mut slots: Vec<Option<(T, Duration)>> = (0..n_jobs).map(|_| None).collect();
        for (i, out, took) in completed {
            debug_assert!(slots[i].is_none(), "job {i} ran twice");
            slots[i] = Some((out, took));
        }
        let mut results = Vec::with_capacity(n_jobs);
        let mut job_times = Vec::with_capacity(n_jobs);
        for slot in slots {
            let (out, took) = slot.expect("every job slot filled");
            results.push(out);
            job_times.push(took);
        }
        JobReport { results, job_times, wall_time: started.elapsed(), jobs_used: workers }
    }
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Shared CLI contract of the harness binaries.
///
/// ```text
/// --full        paper-shaped profile (where the binary supports it)
/// --jobs N      worker threads (default: available parallelism)
/// --serial      alias for --jobs 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessArgs {
    /// `--full`: run the paper-shaped profile.
    pub full: bool,
    /// Worker-thread count after resolving `--jobs`/`--serial`.
    pub jobs: usize,
}

impl HarnessArgs {
    /// Parses the process arguments (panics with a usage message on
    /// malformed `--jobs`).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut full = false;
        let mut jobs: Option<usize> = None;
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--full" => full = true,
                "--serial" => jobs = Some(1),
                "--jobs" => {
                    let value = iter.next().unwrap_or_else(|| usage("--jobs needs a value"));
                    jobs = Some(parse_jobs(&value));
                }
                other => {
                    if let Some(value) = other.strip_prefix("--jobs=") {
                        jobs = Some(parse_jobs(value));
                    } else {
                        usage(&format!("unknown argument `{other}`"));
                    }
                }
            }
        }
        Self { full, jobs: jobs.unwrap_or_else(available_workers).max(1) }
    }

    /// The pool described by these arguments.
    pub fn pool(&self) -> JobPool {
        JobPool::new(self.jobs)
    }
}

fn parse_jobs(value: &str) -> usize {
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => usage(&format!("--jobs expects a positive integer, got `{value}`")),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: [--full] [--jobs N | --serial]");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn serial_and_parallel_results_are_identical() {
        let f = |i: usize| (i * 31 + 7) % 97;
        let serial = JobPool::new(1).run(40, f);
        let parallel = JobPool::new(4).run(40, f);
        assert_eq!(serial.results, parallel.results);
        assert_eq!(serial.jobs_used, 1);
        assert_eq!(parallel.jobs_used, 4);
    }

    #[test]
    fn results_are_in_submission_order() {
        let report = JobPool::new(8).run(100, |i| i);
        assert_eq!(report.results, (0..100).collect::<Vec<_>>());
        assert_eq!(report.job_times.len(), 100);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let report = JobPool::new(3).run(57, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 57);
        let distinct: HashSet<usize> = report.results.iter().copied().collect();
        assert_eq!(distinct.len(), 57);
    }

    #[test]
    fn zero_jobs_is_fine() {
        let report = JobPool::new(4).run(0, |i| i);
        assert!(report.results.is_empty());
        assert!(report.job_times.is_empty());
    }

    #[test]
    fn pool_never_spawns_more_workers_than_jobs() {
        let report = JobPool::new(16).run(2, |i| i);
        assert!(report.jobs_used <= 2);
    }

    #[test]
    fn cpu_time_sums_job_times() {
        let report = JobPool::new(2).run(4, |i| {
            std::thread::sleep(Duration::from_millis(2));
            i
        });
        assert!(report.cpu_time() >= Duration::from_millis(8));
    }

    #[test]
    fn args_default_to_available_parallelism() {
        let args = HarnessArgs::parse(Vec::<String>::new());
        assert!(!args.full);
        assert_eq!(args.jobs, available_workers().max(1));
    }

    #[test]
    fn args_parse_jobs_and_serial() {
        let parse = |v: &[&str]| HarnessArgs::parse(v.iter().map(|s| s.to_string()));
        assert_eq!(parse(&["--jobs", "7"]).jobs, 7);
        assert_eq!(parse(&["--jobs=3"]).jobs, 3);
        assert_eq!(parse(&["--serial"]).jobs, 1);
        let full = parse(&["--full", "--jobs", "2"]);
        assert!(full.full);
        assert_eq!(full.jobs, 2);
    }

    mod pool_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The pool executes every submitted cell exactly once and
            /// keeps submission order, for arbitrary (n_jobs, n_cells).
            #[test]
            fn every_cell_exactly_once(workers in 1usize..9, n_cells in 0usize..120) {
                let counter = AtomicU64::new(0);
                let report = JobPool::new(workers).run(n_cells, |i| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    i
                });
                prop_assert_eq!(counter.load(Ordering::Relaxed), n_cells as u64);
                prop_assert_eq!(report.results.len(), n_cells);
                prop_assert_eq!(report.job_times.len(), n_cells);
                prop_assert!(report.results.iter().enumerate().all(|(i, &r)| i == r));
            }

            /// Parallel output equals serial output for pure jobs.
            #[test]
            fn parallel_matches_serial(workers in 2usize..9, n_cells in 0usize..80) {
                let f = |i: usize| i.wrapping_mul(0x9E3779B9) ^ (i << 3);
                let serial = JobPool::new(1).run(n_cells, f);
                let parallel = JobPool::new(workers).run(n_cells, f);
                prop_assert_eq!(serial.results, parallel.results);
            }
        }
    }
}
