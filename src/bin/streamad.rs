//! `streamad` — command-line streaming anomaly detection.
//!
//! Runs any of the paper's 26 algorithms over a CSV time series
//! (`t,ch0,…,chN-1,label` — the format of `streamad::data::csv`; the label
//! column may be all zeros if unlabelled) and reports detections. With
//! ground-truth labels present, the full metric suite is printed. A row
//! holding a NaN or ±∞ is dropped with its label before the detector
//! runs, as `serve` drops such a frame; stderr says how many rows went
//! and where the first one was.
//!
//! ```sh
//! streamad --list                         # show the 26 algorithms
//! streamad data.csv                       # run the default algorithm
//! streamad data.csv --algo 13 --window 50 --warmup 1000 --threshold 0.9
//! ```
//!
//! `--metrics-json PATH` writes the run's telemetry registry (detector
//! lifecycle counters; under `serve` also the engine's and the fleet's
//! serving counters and latency histograms) as a JSON snapshot on exit.
//!
//! ## Serving over the wire
//!
//! `streamad serve` runs the ingestion engine instead of a file replay:
//! frames arrive over TCP (`--listen ADDR`) or stdin (`--stdin`), each
//! unknown stream id admits a freshly built detector (channel count taken
//! from its first frame), idle streams retire after `--idle-rounds` quiet
//! rounds, and `--policy block|drop-newest|drop-oldest` holds back a
//! stream that sends faster than the rounds run: `block` serves the
//! frames a round passed over, or a full `--queue-cap` queue, before
//! queuing the next one, the drop policies shed frames beyond
//! `--queue-cap`. Detections at or above `--threshold` print to stdout as
//! they happen; `--metrics-json` snapshots are flushed on EOF, after
//! every connection, *and* on dirty disconnects, so an interrupted server
//! still leaves its final counters behind, and `--metrics-every N` prints
//! a compact metrics line to stderr every `N` rounds. If stdout closes
//! (say, piped into `head`), printing stops and serving goes on. A flag
//! that only `serve` reads is rejected in a file run.
//!
//! ```sh
//! streamad serve --stdin < frames.bin
//! streamad serve --listen 127.0.0.1:7650 --shards 4 --idle-rounds 2000
//! # a file as 64 identical streams, one batching cohort:
//! cargo run --release --example serve_client -- data.csv --streams 64 \
//!   | streamad serve --stdin --algo 6 --metrics-json fleet.json
//! ```

use std::fmt::Display;
use std::io::Write;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;
use streamad::core::{paper_algorithms, AlgorithmSpec, DetectorConfig, ScoreKind, StepOutput};
use streamad::data::csv::load_csv;
use streamad::fleet::FleetConfig;
use streamad::ingest::{
    BackpressurePolicy, CsvTransport, DetectorTemplate, EngineConfig, EngineSink, FramedTransport,
    IngestEngine, IngestStats,
};
use streamad::metrics::{best_f1, intervals_from_labels, nab_score, pr_auc, vus_pr};
use streamad::models::{build_detector, min_window, BuildParams};
use streamad::obs::Registry;

/// Writes to stdout until a write fails, then drops all further output:
/// a closed pipe (e.g. `streamad … | head`) must not panic the process,
/// and a server keeps serving without its log consumer.
fn out(text: std::fmt::Arguments) {
    use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
    // Relaxed: the flag guards nothing but itself.
    static CLOSED: AtomicBool = AtomicBool::new(false);
    if !CLOSED.load(Relaxed) && std::io::stdout().write_fmt(text).is_err() {
        CLOSED.store(true, Relaxed);
    }
}

/// `println!` through [`out`].
macro_rules! outln {
    ($($arg:tt)*) => { out(format_args!("{}\n", format_args!($($arg)*))) };
}

struct Args {
    path: Option<String>,
    algo: usize,
    window: usize,
    warmup: usize,
    capacity: usize,
    threshold: f64,
    score: ScoreKind,
    seed: u64,
    list: bool,
    shards: usize,
    f32_infer: bool,
    metrics_json: Option<String>,
    metrics_every: Option<usize>,
    serve: bool,
    listen: Option<String>,
    stdin: bool,
    csv: bool,
    policy: BackpressurePolicy,
    idle_rounds: Option<u64>,
    max_streams: usize,
    queue_cap: usize,
    max_conns: usize,
    /// The first serving flag given, which a file run rejects.
    serve_only: Option<&'static str>,
}

fn score_name(score: ScoreKind) -> &'static str {
    match score {
        ScoreKind::Raw => "raw",
        ScoreKind::Average => "avg",
        ScoreKind::AnomalyLikelihood => "al",
    }
}

/// The `--list` table: a header carrying the run defaults (so the values
/// behind `--seed`/`--score` are visible without reading the source),
/// then one row per Table I algorithm.
fn algorithm_table(specs: &[AlgorithmSpec], args: &Args) -> String {
    let mut out = format!(
        "the {} paper algorithms (run settings: --score {}, --seed {})\n\
         \x20#  model / Task 1 / Task 2\n",
        specs.len(),
        score_name(args.score),
        args.seed,
    );
    for (i, s) in specs.iter().enumerate() {
        out.push_str(&format!("{i:2}  {}\n", s.label()));
    }
    out
}

/// The serving flags. A file run rejects them rather than ignore them.
const SERVE_ONLY: [&str; 11] = [
    "--shards",
    "--f32-infer",
    "--metrics-every",
    "--listen",
    "--stdin",
    "--csv",
    "--policy",
    "--idle-rounds",
    "--max-streams",
    "--queue-cap",
    "--max-conns",
];

/// `--help`'s text, and what follows a parse error. The `serve` line names
/// every flag `serve` reads.
const USAGE: &str = "usage: streamad <csv> [--algo N] [--window W] [--warmup N] [--capacity M] \
                     [--score raw|avg|al] [--threshold T] [--seed S] [--metrics-json PATH] [--list]\n\
                     \x20      streamad serve (--listen ADDR [--max-conns N] | --stdin) [--csv] \
                     [--policy block|drop-newest|drop-oldest] [--idle-rounds N] [--max-streams N] \
                     [--queue-cap N] [--algo N] [--window W] [--warmup N] [--capacity M] \
                     [--score raw|avg|al] [--threshold T] [--seed S] [--shards S] [--f32-infer] \
                     [--metrics-json PATH] [--metrics-every N]";

/// `flag`'s value parsed as a `T`, or an error naming the flag.
fn number<T: FromStr>(flag: &str, value: String) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// [`number`] for a count that must not be zero.
fn positive<T: FromStr + PartialEq + From<u8>>(flag: &str, value: String) -> Result<T, String>
where
    T::Err: Display,
{
    let n = number(flag, value)?;
    if n == T::from(0) {
        return Err(format!("{flag} must be positive"));
    }
    Ok(n)
}

/// The settings on the command line, or `None` for `--help`.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        path: None,
        algo: 12, // USAD / SW / μσ
        window: 25,
        warmup: 500,
        capacity: 40,
        threshold: 0.9,
        score: ScoreKind::AnomalyLikelihood,
        seed: 42,
        list: false,
        shards: 1,
        f32_infer: false,
        metrics_json: None,
        metrics_every: None,
        serve: false,
        listen: None,
        stdin: false,
        csv: false,
        policy: BackpressurePolicy::Block,
        idle_rounds: None,
        max_streams: 65_536,
        queue_cap: 4,
        max_conns: 0,
        serve_only: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        args.serve_only = args.serve_only.or(SERVE_ONLY.into_iter().find(|&flag| flag == arg));
        let flag = arg.as_str();
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--list" => args.list = true,
            "--algo" => args.algo = number(flag, value()?)?,
            "--window" => args.window = number(flag, value()?)?,
            "--warmup" => args.warmup = number(flag, value()?)?,
            "--capacity" => args.capacity = number(flag, value()?)?,
            "--threshold" => args.threshold = number(flag, value()?)?,
            "--seed" => args.seed = number(flag, value()?)?,
            "--shards" => args.shards = positive(flag, value()?)?,
            "--f32-infer" => args.f32_infer = true,
            "--listen" => args.listen = Some(value()?),
            "--stdin" => args.stdin = true,
            "--csv" => args.csv = true,
            "--policy" => {
                args.policy = match value()?.as_str() {
                    "block" => BackpressurePolicy::Block,
                    "drop-newest" => BackpressurePolicy::DropNewest,
                    "drop-oldest" => BackpressurePolicy::DropOldest,
                    other => {
                        return Err(format!(
                            "unknown policy {other:?} (block|drop-newest|drop-oldest)"
                        ))
                    }
                }
            }
            "--idle-rounds" => args.idle_rounds = Some(positive(flag, value()?)?),
            "--max-streams" => args.max_streams = positive(flag, value()?)?,
            "--queue-cap" => args.queue_cap = positive(flag, value()?)?,
            "--max-conns" => args.max_conns = number(flag, value()?)?,
            "--metrics-json" => args.metrics_json = Some(value()?),
            "--metrics-every" => args.metrics_every = Some(positive(flag, value()?)?),
            "--score" => {
                args.score = match value()?.as_str() {
                    "raw" => ScoreKind::Raw,
                    "avg" => ScoreKind::Average,
                    "al" => ScoreKind::AnomalyLikelihood,
                    other => return Err(format!("unknown score {other:?} (raw|avg|al)")),
                }
            }
            "--help" | "-h" => return Ok(None),
            "serve" if !args.serve && args.path.is_none() => args.serve = true,
            other if !other.starts_with('-') && args.path.is_none() && !args.serve => {
                args.path = Some(other.to_string())
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Some(args))
}

/// Rejects detector settings that would panic once input arrives (a
/// window the model cannot be built with, a warm-up shorter than one
/// window, an empty training set) or silently flag nothing (a non-finite
/// threshold). Both modes call it before reading any input.
fn check_detector_args(args: &Args, spec: AlgorithmSpec) -> Result<(), String> {
    let min = min_window(spec.model);
    if args.window < min {
        return Err(format!(
            "--window {} is too small: {} needs at least {min}",
            args.window,
            spec.model.label()
        ));
    }
    if args.warmup < args.window {
        return Err(format!(
            "--warmup {} must cover at least one window (--window {})",
            args.warmup, args.window
        ));
    }
    if !args.threshold.is_finite() {
        return Err(format!("--threshold must be a finite number, got {}", args.threshold));
    }
    if args.capacity == 0 {
        return Err("--capacity must be positive".into());
    }
    Ok(())
}

/// The detector settings both modes build from, at `channels` wide.
fn build_params(args: &Args, channels: usize) -> BuildParams {
    let config = DetectorConfig {
        window: args.window,
        channels,
        warmup: args.warmup,
        initial_epochs: 10,
        fine_tune_epochs: 1,
    };
    BuildParams::new(config)
        .with_capacity(args.capacity)
        .with_score(args.score)
        .with_seed(args.seed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            outln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let (Some(flag), false) = (args.serve_only, args.serve) {
        eprintln!("{flag} applies only to `streamad serve`");
        return ExitCode::FAILURE;
    }
    let specs = paper_algorithms();
    if args.list {
        out(format_args!("{}", algorithm_table(&specs, &args)));
        return ExitCode::SUCCESS;
    }
    if args.algo >= specs.len() {
        // Show the whole table, not just the bound — the index→algorithm
        // mapping is exactly what the user is missing here.
        let msg = format!(
            "--algo {} is out of range; pick one of:\n{}",
            args.algo,
            algorithm_table(&specs, &args),
        );
        let _ = std::io::stderr().write_all(msg.as_bytes());
        return ExitCode::FAILURE;
    }
    if let Err(msg) = check_detector_args(&args, specs[args.algo]) {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }
    if args.serve {
        return run_serve(&args, specs[args.algo]);
    }
    let Some(path) = &args.path else {
        eprintln!("no input file (try --help)");
        return ExitCode::FAILURE;
    };
    let mut series = match load_csv(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to load {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The engine's rule for a non-finite frame: such a row reaches no
    // window, training set or drift test, where one NaN would poison
    // every later fine-tune.
    let finite = |s: &[f64]| s.iter().all(|v| v.is_finite());
    if let Some(first) = series.data.iter().position(|s| !finite(s)) {
        let rows = series.len();
        let labels = std::mem::take(&mut series.labels);
        let pairs = std::mem::take(&mut series.data).into_iter().zip(labels);
        (series.data, series.labels) = pairs.filter(|(s, _)| finite(s)).unzip();
        eprintln!(
            "dropped {} row(s) holding a NaN or infinite value, the first at row {first}",
            rows - series.len()
        );
    }
    if series.len() <= args.warmup {
        eprintln!(
            "series has {} steps but warm-up needs more than {} (use --warmup)",
            series.len(),
            args.warmup
        );
        return ExitCode::FAILURE;
    }

    let spec = specs[args.algo];
    eprintln!(
        "running {} on {} ({} steps x {} channels), w={}, warm-up {}",
        spec.label(),
        series.name,
        series.len(),
        series.channels(),
        args.window,
        args.warmup
    );
    let mut detector = build_detector(spec, &build_params(&args, series.channels()));
    let (scores, offset) = detector.score_series(&series.data);

    // Detections: maximal runs of scores above the threshold.
    let pred: Vec<bool> = scores.iter().map(|&s| s >= args.threshold).collect();
    let detections = intervals_from_labels(&pred);
    outln!("detections (threshold {}):", args.threshold);
    for iv in &detections {
        let peak = scores[iv.start..iv.end].iter().cloned().fold(0.0f64, f64::max);
        outln!("  t = {}..{}  peak score {:.3}", offset + iv.start, offset + iv.end, peak);
    }
    if detections.is_empty() {
        outln!("  (none)");
    }
    eprintln!("fine-tune sessions: {}", detector.fine_tune_count());
    eprintln!(
        "drift state: {} drift event(s){}, {} removal miss(es)",
        detector.drift_times().len(),
        match detector.drift_times() {
            [] => String::new(),
            times => format!(" at t = {times:?}"),
        },
        detector.drift_removal_misses(),
    );
    if let Some(path) = &args.metrics_json {
        if !write_metrics_json(path, &detector.export_metrics()) {
            return ExitCode::FAILURE;
        }
    }

    // If the file carries ground truth, report metrics.
    let labels = &series.labels[offset..];
    if labels.iter().any(|&l| l) {
        let (th, p, r, f1) = best_f1(&scores, labels, 40);
        let auc = pr_auc(&scores, labels, 40);
        let vus = vus_pr(&scores, labels, args.window, 40);
        let fixed: Vec<bool> = scores.iter().map(|&s| s >= args.threshold).collect();
        let nab = nab_score(&fixed, labels).score;
        outln!("\nmetrics vs ground truth:");
        outln!("  best-F1 threshold {th:.3}: precision {p:.3}, recall {r:.3}, F1 {f1:.3}");
        outln!("  PR-AUC {auc:.3}   VUS-PR {vus:.3}   NAB (at --threshold) {nab:.3}");
    }
    ExitCode::SUCCESS
}

/// Writes a registry snapshot as JSON to `path`; reports failure on stderr
/// and returns `false` so callers can exit non-zero.
fn write_metrics_json(path: &str, reg: &Registry) -> bool {
    let mut json = String::new();
    reg.render_json(&mut json);
    match std::fs::write(path, &json) {
        Ok(()) => {
            eprintln!("metrics -> {path}");
            true
        }
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            false
        }
    }
}

/// Serve-mode sink: prints detections at or above the threshold as they
/// happen, plus the periodic `--metrics-every` stderr line.
struct ServeSink {
    threshold: f64,
    every: Option<u64>,
    outputs: u64,
    detections: u64,
}

impl EngineSink for ServeSink {
    fn output(&mut self, stream: u64, out: &StepOutput) {
        self.outputs += 1;
        if out.anomaly_score >= self.threshold {
            self.detections += 1;
            outln!(
                "detect stream={} t={} score={:.3}{}",
                stream,
                out.t,
                out.anomaly_score,
                if out.drift { " drift" } else { "" },
            );
        }
    }

    fn round(&mut self, rounds: u64, stats: &IngestStats) {
        if let Some(every) = self.every {
            if rounds.is_multiple_of(every) {
                eprintln!(
                    "[metrics] round {}: {} frames, {} steps, {} live streams, \
                     {} dropped, {} detections",
                    rounds,
                    stats.frames,
                    stats.fleet.steps,
                    stats.fleet.admitted - stats.fleet.retired,
                    stats.fleet.bp_dropped_newest + stats.fleet.bp_dropped_oldest,
                    self.detections,
                );
            }
        }
    }
}

/// `streamad serve`: run the ingestion engine over TCP or stdin. Streams
/// admit on first contact (channel count from the first frame) and retire
/// after `--idle-rounds`; the engine — and so every stream's detector
/// state — persists across TCP connections.
fn run_serve(args: &Args, spec: AlgorithmSpec) -> ExitCode {
    if args.stdin == args.listen.is_some() {
        eprintln!("serve needs exactly one of --stdin or --listen ADDR (try --help)");
        return ExitCode::FAILURE;
    }
    // Channel count is a placeholder: the template stamps each stream's
    // real width from its first frame.
    let template = DetectorTemplate::new(spec, build_params(args, 1));
    let fleet_config = FleetConfig {
        shards: args.shards,
        batching: true,
        parallel: false,
        queue_capacity: args.queue_cap,
        f32_infer: args.f32_infer,
        telemetry: true,
    };
    let engine_config = EngineConfig {
        policy: args.policy,
        idle_rounds: args.idle_rounds,
        max_streams: args.max_streams,
    };
    let mut engine = IngestEngine::new(template, fleet_config, engine_config);
    let mut sink = ServeSink {
        threshold: args.threshold,
        every: args.metrics_every.map(|n| n as u64),
        outputs: 0,
        detections: 0,
    };
    eprintln!(
        "serving {} ({} framing, {:?} back-pressure, {} shard(s){})",
        spec.label(),
        if args.csv { "csv" } else { "binary" },
        args.policy,
        args.shards,
        if args.f32_infer { ", f32 inference" } else { "" },
    );

    let started = Instant::now();
    let clean = if args.stdin {
        let stdin = std::io::stdin();
        let result = if args.csv {
            engine.run(&mut CsvTransport::new(stdin.lock()), &mut sink)
        } else {
            engine.run(&mut FramedTransport::new(stdin.lock()), &mut sink)
        };
        match result {
            Ok(()) => true,
            Err(e) => {
                eprintln!("stdin stream failed: {e}");
                false
            }
        }
    } else {
        serve_listener(args, &mut engine, &mut sink)
    };

    // Final snapshot no matter how the stream ended — a dirty disconnect
    // must still leave the counters behind.
    if let Some(path) = &args.metrics_json {
        if !write_metrics_json(path, &engine.export_metrics()) {
            return ExitCode::FAILURE;
        }
    }
    let stats = engine.stats();
    let secs = started.elapsed().as_secs_f64();
    eprintln!(
        "served {} frames as {} detector steps over {} rounds ({:.0} frames/s)",
        stats.frames,
        stats.fleet.steps,
        stats.rounds,
        stats.frames as f64 / secs.max(1e-9),
    );
    eprintln!(
        "streams: {} admitted, {} idle-retired; {} frames dropped, {} rejected; \
         {} outputs, {} detections",
        stats.fleet.admitted,
        stats.idle_retired,
        stats.fleet.bp_dropped_newest + stats.fleet.bp_dropped_oldest,
        stats.rejected,
        sink.outputs,
        sink.detections,
    );
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Accepts TCP connections sequentially into one shared engine. A client
/// dying mid-frame is logged and the server keeps listening (its backlog
/// is still drained and the metrics snapshot still flushed); with
/// `--max-conns N` the server exits after `N` connections.
fn serve_listener(args: &Args, engine: &mut IngestEngine, sink: &mut ServeSink) -> bool {
    let addr = args.listen.as_deref().expect("listen mode");
    let listener = match std::net::TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("could not bind {addr}: {e}");
            return false;
        }
    };
    match listener.local_addr() {
        Ok(a) => eprintln!("listening on {a}"),
        Err(_) => eprintln!("listening on {addr}"),
    }
    let mut clean = true;
    let mut conns = 0usize;
    loop {
        let (socket, peer) = match listener.accept() {
            Ok(x) => x,
            Err(e) => {
                eprintln!("accept failed: {e}");
                return false;
            }
        };
        conns += 1;
        let result = if args.csv {
            engine.run(&mut CsvTransport::new(&socket), sink)
        } else {
            engine.run(&mut FramedTransport::new(&socket), sink)
        };
        match result {
            Ok(()) => eprintln!("connection {conns} from {peer} drained cleanly"),
            Err(e) => {
                eprintln!("connection {conns} from {peer} failed: {e}");
                clean = false;
            }
        }
        // Keep the on-disk snapshot current between connections so an
        // interrupted server still leaves its latest counters.
        if let Some(path) = &args.metrics_json {
            write_metrics_json(path, &engine.export_metrics());
        }
        if args.max_conns > 0 && conns >= args.max_conns {
            return clean;
        }
    }
}
