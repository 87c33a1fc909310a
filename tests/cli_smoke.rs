//! End-to-end smoke tests for the `streamad` binary: the `--list` table
//! (header carries the run settings), the out-of-range `--algo` UX (show
//! the whole table, not just the bound), settings rejected at startup, a
//! plain detection run, and `serve` over stdin and TCP.

use std::fmt::Write as _;
use std::io::Read;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn streamad() -> Command {
    Command::new(env!("CARGO_BIN_EXE_streamad"))
}

/// A small labelled CSV in the `t,ch0,ch1,label` format, written to a
/// unique temp path per test.
fn write_csv(name: &str, len: usize) -> std::path::PathBuf {
    let mut csv = String::from("t,ch0,ch1,label\n");
    for t in 0..len {
        let x = t as f64 * 0.09;
        let shift = if t >= 3 * len / 4 { 2.0 } else { 0.0 };
        let label = u8::from(t >= 3 * len / 4);
        let _ = writeln!(csv, "{t},{},{},{label}", x.sin() + shift, (x * 0.63).cos());
    }
    let path = std::env::temp_dir().join(format!("streamad-cli-smoke-{name}-{}.csv", std::process::id()));
    std::fs::write(&path, csv).expect("temp CSV is writable");
    path
}

#[test]
fn list_prints_header_with_run_settings_and_all_rows() {
    let out = streamad().arg("--list").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut lines = stdout.lines();
    let header = lines.next().expect("header line");
    assert!(header.contains("--score al"), "header shows the score setting: {header:?}");
    assert!(header.contains("--seed 42"), "header shows the seed setting: {header:?}");
    assert!(stdout.contains(" 0  Online ARIMA / SW"), "first algorithm row present");
    assert!(stdout.contains("25  PCB-iForest"), "last algorithm row present");
    // Header (2 lines) + one row per algorithm.
    assert_eq!(stdout.lines().count(), 2 + 26, "one row per Table I algorithm");
}

#[test]
fn out_of_range_algo_shows_the_full_table() {
    let csv = write_csv("range", 40);
    let out = streamad().arg(&csv).args(["--algo", "99"]).output().expect("binary runs");
    std::fs::remove_file(&csv).ok();
    assert!(!out.status.success(), "out-of-range --algo must fail");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--algo 99 is out of range"), "names the bad value: {stderr}");
    assert!(stderr.contains(" 0  Online ARIMA / SW"), "table starts in the error: {stderr}");
    assert!(stderr.contains("25  PCB-iForest"), "table ends in the error: {stderr}");
}

/// `--help` prints the usage on stdout and succeeds, and its `serve` line
/// names every flag `serve` reads; a parse error prints the usage on
/// stderr after the error and fails.
#[test]
fn help_succeeds_on_stdout_and_a_parse_error_shows_the_usage_on_stderr() {
    let out = streamad().arg("--help").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "--help succeeds");
    assert!(out.stderr.is_empty(), "--help writes nothing on stderr");
    let usage = String::from_utf8(out.stdout).unwrap();
    assert!(usage.starts_with("usage: streamad <csv>"), "{usage}");
    let serve = usage.lines().find(|l| l.contains("streamad serve")).expect("a serve line");
    let serve_flags = [
        "--listen", "--max-conns", "--stdin", "--csv", "--policy", "--idle-rounds",
        "--max-streams", "--queue-cap", "--algo", "--window", "--warmup", "--capacity",
        "--score", "--threshold", "--seed", "--shards", "--f32-infer", "--metrics-json",
        "--metrics-every",
    ];
    let named: Vec<&str> = serve
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|word| word.starts_with("--"))
        .collect();
    for flag in serve_flags {
        assert!(named.contains(&flag), "{flag} missing: {serve}");
    }

    let bad = streamad().args(["serve", "--stdin", "--bogus"]).output().expect("binary runs");
    assert_eq!(bad.status.code(), Some(1), "a parse error fails");
    assert!(bad.stdout.is_empty());
    let stderr = String::from_utf8(bad.stderr).unwrap();
    assert!(stderr.starts_with("unknown argument \"--bogus\"\n"), "{stderr}");
    assert!(stderr.ends_with(&usage), "the usage follows the error: {stderr}");
}

/// `len` wire frames for stream 0 in `serve --csv` form (`id,v0,v1`),
/// written to a unique temp path per test.
fn write_wire_csv(name: &str, len: usize) -> std::path::PathBuf {
    let mut csv = String::new();
    for t in 0..len {
        let x = t as f64 * 0.09;
        let _ = writeln!(csv, "0,{},{}", x.sin(), (x * 0.63).cos());
    }
    let path =
        std::env::temp_dir().join(format!("streamad-cli-smoke-{name}-{}.wire.csv", std::process::id()));
    std::fs::write(&path, csv).expect("temp CSV is writable");
    path
}

/// Runs `streamad` with `args`, stdin from `input`, and asserts it exits 1
/// with one stderr line that names `flag`.
fn assert_rejected_at_startup(args: &[&str], input: &std::path::Path, flag: &str) {
    let mut cmd = streamad();
    cmd.args(args);
    let out = output_within(cmd, input, Duration::from_secs(60));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: one line: {stderr}");
    assert!(stderr.contains(flag), "{args:?}: names {flag}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing served or detected");
}

/// A window the model cannot be built with fails at startup instead of in
/// `Trunk::new` (`--window 0`) or in an N-BEATS layer of width
/// `(w − 1)·N = 0` once warm-up ends (`--window 1`, algorithms 18–23).
#[test]
fn window_below_the_model_minimum_is_rejected_at_startup() {
    let csv = write_csv("window", 700);
    let path = csv.to_str().unwrap();
    assert_rejected_at_startup(&[path, "--window", "0"], &csv, "--window");
    for algo in ["18", "23"] {
        assert_rejected_at_startup(&[path, "--algo", algo, "--window", "1"], &csv, "--window");
    }
    let wire = write_wire_csv("window", 700);
    let serve = ["serve", "--stdin", "--csv", "--algo", "18", "--window", "1"];
    assert_rejected_at_startup(&serve, &wire, "--window");
    std::fs::remove_file(&csv).ok();
    std::fs::remove_file(&wire).ok();
}

/// A warm-up shorter than one window fails at startup instead of in
/// `Trunk::new`, in a file run and on the first served frame.
#[test]
fn warmup_shorter_than_the_window_is_rejected_at_startup() {
    let csv = write_csv("warmup", 100);
    let path = csv.to_str().unwrap();
    assert_rejected_at_startup(&[path, "--window", "16", "--warmup", "10"], &csv, "--warmup");
    let wire = write_wire_csv("warmup", 100);
    let serve = ["serve", "--stdin", "--csv", "--window", "16", "--warmup", "3"];
    assert_rejected_at_startup(&serve, &wire, "--warmup");
    std::fs::remove_file(&csv).ok();
    std::fs::remove_file(&wire).ok();
}

/// No score is `>=` a NaN threshold, so a run with one would silently flag
/// nothing; a non-finite threshold fails at startup in both modes.
#[test]
fn non_finite_threshold_is_rejected_at_startup() {
    let csv = write_csv("threshold", 320);
    let path = csv.to_str().unwrap();
    let run = [path, "--algo", "0", "--window", "6", "--warmup", "80", "--threshold", "nan"];
    assert_rejected_at_startup(&run, &csv, "--threshold");
    let wire = write_wire_csv("threshold", 100);
    let serve = ["serve", "--stdin", "--csv", "--algo", "0", "--threshold", "inf"];
    assert_rejected_at_startup(&serve, &wire, "--threshold");
    std::fs::remove_file(&csv).ok();
    std::fs::remove_file(&wire).ok();
}

/// An empty training set fails at startup instead of panicking when the
/// first detector is built: in a file run, and in `serve`, where the
/// panic would come with the first admitted frame and end the server.
#[test]
fn zero_capacity_is_rejected_at_startup() {
    let csv = write_csv("capacity", 320);
    let path = csv.to_str().unwrap();
    let run = [path, "--algo", "0", "--window", "6", "--warmup", "80", "--capacity", "0"];
    assert_rejected_at_startup(&run, &csv, "--capacity");
    let wire = write_wire_csv("capacity", 100);
    let serve = ["serve", "--stdin", "--csv", "--algo", "0", "--capacity", "0"];
    assert_rejected_at_startup(&serve, &wire, "--capacity");
    std::fs::remove_file(&csv).ok();
    std::fs::remove_file(&wire).ok();
}

/// A serving count of zero is a parse error: its line comes first on
/// stderr, before the usage, and nothing is served.
#[test]
fn a_zero_serving_count_is_rejected_at_startup() {
    for flag in ["--shards", "--idle-rounds", "--max-streams", "--queue-cap", "--metrics-every"] {
        let out = streamad().args(["serve", "--stdin", flag, "0"]).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} 0 must exit 1: {stderr}");
        let first = stderr.lines().next();
        assert_eq!(first, Some(format!("{flag} must be positive").as_str()), "{stderr}");
        assert!(out.stdout.is_empty(), "{flag} 0: nothing served");
    }
}

/// A file run reads none of the serving flags, so it rejects each of them
/// instead of running without it.
#[test]
fn a_serving_flag_in_a_file_run_is_rejected_at_startup() {
    let csv = write_csv("serveflag", 320);
    let path = csv.to_str().unwrap();
    let flags: [&[&str]; 11] = [
        &["--shards", "4"],
        &["--f32-infer"],
        &["--metrics-every", "5"],
        &["--listen", "127.0.0.1:0"],
        &["--stdin"],
        &["--csv"],
        &["--policy", "block"],
        &["--idle-rounds", "2"],
        &["--max-streams", "8"],
        &["--queue-cap", "4"],
        &["--max-conns", "1"],
    ];
    for flag in flags {
        let run = [&[path, "--algo", "0", "--window", "6", "--warmup", "80"], flag].concat();
        assert_rejected_at_startup(&run, &csv, flag[0]);
    }
    std::fs::remove_file(&csv).ok();
}

#[test]
fn detection_run_reports_detections_and_metrics() {
    let csv = write_csv("run", 320);
    let out = streamad()
        .arg(&csv)
        .args(["--algo", "0", "--window", "6", "--warmup", "80", "--capacity", "16"])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&csv).ok();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("detections"), "detection report present: {stdout}");
    assert!(stdout.contains("metrics vs ground truth"), "labelled CSV yields metrics: {stdout}");
}

#[test]
fn single_run_metrics_json_exports_lifecycle_and_stderr_shows_drift_state() {
    let csv = write_csv("runmetrics", 320);
    let json_path = std::env::temp_dir()
        .join(format!("streamad-cli-smoke-runmetrics-{}.json", std::process::id()));
    let out = streamad()
        .arg(&csv)
        .args(["--algo", "0", "--window", "6", "--warmup", "80", "--capacity", "16"])
        .args(["--metrics-json", json_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&csv).ok();
    let json = std::fs::read_to_string(&json_path).expect("--metrics-json wrote the snapshot");
    std::fs::remove_file(&json_path).ok();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(json.contains("\"sad_detector_steps_total\""), "lifecycle counter: {json}");
    assert!(json.contains("\"sad_detector_removal_misses_total\""), "removal misses: {json}");
    assert!(json.contains("\"sad_detector_nonconformity\""), "score histogram: {json}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("removal miss(es)"), "drift-state debug line: {stderr}");
}

/// A NaN row in a file is dropped with its label before the detector
/// runs, the way `serve` drops a NaN frame, so the report equals the one
/// for the file without that row. Admitted, the NaN would enter the
/// training set and the next fine-tune would turn the weights of a neural
/// model (USAD, the default, and AE) into NaN for the rest of the run.
#[test]
fn file_run_drops_a_nan_row_and_reports_as_without_it() {
    let clean = write_csv("nanrow", 1500);
    let text = std::fs::read_to_string(&clean).expect("temp CSV reads");
    std::fs::remove_file(&clean).ok();
    // Line 0 is the header, so line 701 is row t = 700.
    let lines: Vec<&str> = text.lines().collect();
    let mut fields: Vec<&str> = lines[701].split(',').collect();
    fields[1] = "NaN";
    let nan_row = fields.join(",");
    let with_nan = [&lines[..701], &[nan_row.as_str()], &lines[702..]].concat().join("\n");
    let without = [&lines[..701], &lines[702..]].concat().join("\n");
    let dir = std::env::temp_dir();
    let nan_csv = dir.join(format!("streamad-cli-smoke-nanrow-{}.csv", std::process::id()));
    let cut_csv = dir.join(format!("streamad-cli-smoke-nancut-{}.csv", std::process::id()));
    std::fs::write(&nan_csv, with_nan + "\n").expect("temp CSV is writable");
    std::fs::write(&cut_csv, without + "\n").expect("temp CSV is writable");
    for algo in ["12", "6"] {
        let run = |csv: &std::path::Path| {
            streamad()
                .arg(csv)
                .args(["--algo", algo, "--window", "10", "--warmup", "300", "--threshold", "0.9"])
                .output()
                .expect("binary runs")
        };
        let (nan, cut) = (run(&nan_csv), run(&cut_csv));
        let stderr = String::from_utf8_lossy(&nan.stderr);
        assert!(nan.status.success() && cut.status.success(), "--algo {algo}: {stderr}");
        let stdout = String::from_utf8(nan.stdout).unwrap();
        assert_eq!(stdout, String::from_utf8(cut.stdout).unwrap(), "--algo {algo}");
        let late = stdout
            .lines()
            .filter_map(|l| l.trim().strip_prefix("t = ")?.split_once("..")?.0.parse().ok())
            .filter(|&start: &usize| start > 700)
            .count();
        assert!(late > 0, "--algo {algo}: detections after the NaN row: {stdout}");
        let note = "dropped 1 row(s) holding a NaN or infinite value, the first at row 700";
        assert!(stderr.contains(note), "--algo {algo}: {stderr}");
    }
    std::fs::remove_file(&nan_csv).ok();
    std::fs::remove_file(&cut_csv).ok();
}

/// A binary frame file replaying `streams` interleaved sine streams of
/// `len` steps each (2 channels), via the library's own replay encoder.
fn write_frames(name: &str, streams: usize, len: usize) -> std::path::PathBuf {
    use streamad::ingest::{FrameWriter, Framing};
    let mut writer = FrameWriter::new(Vec::new(), Framing::Binary);
    for t in 0..len {
        for i in 0..streams {
            let x = t as f64 * 0.09 + i as f64 * 0.5;
            writer.send(i as u64, &[x.sin(), (x * 0.63).cos()]).expect("in-memory encode");
        }
    }
    let path = std::env::temp_dir()
        .join(format!("streamad-cli-smoke-{name}-{}.bin", std::process::id()));
    std::fs::write(&path, writer.into_inner()).expect("temp frame file is writable");
    path
}

#[test]
fn serve_stdin_admits_streams_and_flushes_metrics() {
    let frames = write_frames("serve", 3, 200);
    let json_path = std::env::temp_dir()
        .join(format!("streamad-cli-smoke-serve-{}.json", std::process::id()));
    let out = streamad()
        .args(["serve", "--stdin", "--window", "6", "--warmup", "60", "--capacity", "16"])
        .args(["--threshold", "0", "--shards", "2"])
        .args(["--metrics-json", json_path.to_str().unwrap()])
        .stdin(std::fs::File::open(&frames).expect("frame file opens"))
        .output()
        .expect("binary runs");
    std::fs::remove_file(&frames).ok();
    let json = std::fs::read_to_string(&json_path).expect("--metrics-json wrote the snapshot");
    std::fs::remove_file(&json_path).ok();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    // --threshold 0 prints every post-warm-up output: 3 x (200 - 60).
    assert_eq!(
        stdout.lines().filter(|l| l.starts_with("detect stream=")).count(),
        3 * 140,
        "one detect line per post-warm-up step: {stdout}",
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("served 600 frames as 600 detector steps"), "summary: {stderr}");
    assert!(stderr.contains("3 admitted"), "dynamic admission: {stderr}");
    // The snapshot carries the engine families next to the fleet's.
    assert!(json.contains("\"sad_ingest_frames_total\": 600"), "engine counter: {json}");
    assert!(json.contains("\"sad_fleet_steps_total\": 600"), "fleet counter: {json}");
    assert!(json.contains("\"sad_fleet_admitted_total\": 3"), "admission counter: {json}");
}

/// Serves `streams` identical replicas of a `len`-step labelled CSV
/// through `serve --stdin` (AE, window 6, warm-up 80, capacity 16) with
/// `flags`, and returns the output and the `--metrics-json` snapshot. The
/// replicas are interleaved binary frames under ids `0..streams`, as
/// `examples/serve_client.rs` replays a file: every detector fits the same
/// weights, so the fleet serves them as one batching cohort.
fn serve_replicas(name: &str, streams: usize, len: usize, flags: &[&str]) -> (Output, String) {
    use streamad::ingest::{replay_interleaved, FrameWriter, Framing};
    let csv = write_csv(name, len);
    let series = streamad::data::csv::load_csv(&csv).expect("temp CSV loads");
    std::fs::remove_file(&csv).ok();
    let pairs: Vec<_> = (0..streams as u64).map(|id| (id, &series)).collect();
    let mut writer = FrameWriter::new(Vec::new(), Framing::Binary);
    replay_interleaved(&mut writer, &pairs).expect("in-memory encode");
    let frames = csv.with_extension("bin");
    std::fs::write(&frames, writer.into_inner()).expect("temp frame file is writable");
    let json_path = csv.with_extension("json");
    let mut cmd = streamad();
    cmd.args(["serve", "--stdin", "--algo", "6", "--window", "6", "--warmup", "80"]);
    cmd.args(["--capacity", "16", "--metrics-json", json_path.to_str().unwrap()]).args(flags);
    let out = output_within(cmd, &frames, Duration::from_secs(120));
    std::fs::remove_file(&frames).ok();
    let json = std::fs::read_to_string(&json_path).expect("--metrics-json wrote the snapshot");
    std::fs::remove_file(&json_path).ok();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    (out, json)
}

/// The value of counter `name` in a `--metrics-json` snapshot.
fn counter(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    json.split(&key)
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok())
        .unwrap_or_else(|| panic!("{name} in the snapshot: {json}"))
}

#[test]
fn serve_replicas_on_two_shards_step_every_frame_and_batch_rows() {
    let (out, json) = serve_replicas("replicas", 6, 220, &["--shards", "2"]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    // 220 steps x 6 streams, every frame served exactly once.
    assert!(stderr.contains("served 1320 frames as 1320 detector steps"), "summary: {stderr}");
    assert!(stderr.contains(" frames/s)"), "throughput in the summary: {stderr}");
    assert_eq!(counter(&json, "sad_fleet_shards"), 2, "{json}");
    assert!(counter(&json, "sad_fleet_batched_rows_total") > 0, "replicas batch: {json}");
    let rounds = json.split("\"sad_fleet_round_seconds\": ").nth(1).unwrap_or_default();
    assert!(rounds.contains("\"p50\"") && rounds.contains("\"p99\""), "round latency: {json}");
}

#[test]
fn serve_f32_infer_serves_every_batched_row_through_snapshots() {
    let (_, json) = serve_replicas("f32infer", 6, 220, &["--f32-infer"]);
    let batched = counter(&json, "sad_fleet_batched_rows_total");
    assert!(batched > 0, "identical streams must batch: {json}");
    assert_eq!(counter(&json, "sad_fleet_f32_rows_total"), batched, "every row as f32: {json}");
}

#[test]
fn serve_metrics_json_counts_every_step_and_periodic_report_hits_stderr() {
    let flags = ["--shards", "2", "--metrics-every", "100"];
    let (out, json) = serve_replicas("metrics", 6, 220, &flags);
    // 220 steps x 6 streams through the per-shard serving counters.
    assert_eq!(counter(&json, "sad_fleet_steps_total"), 1320, "{json}");
    // Aggregated detector lifecycle rides along in the same snapshot —
    // lifecycle steps count scored steps only: 6 x (220 - 80 warm-up).
    assert_eq!(counter(&json, "sad_detector_steps_total"), 840, "{json}");
    assert_eq!(counter(&json, "sad_detector_warmup_completions_total"), 6, "{json}");
    assert!(json.contains("\"sad_fleet_round_seconds\""), "round latency histogram: {json}");
    // One round per time step, plus the first frame's: 221 rounds with
    // --metrics-every 100 report at rounds 100 and 200 only.
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("over 221 rounds"), "round count: {stderr}");
    let reports: Vec<&str> = stderr.lines().filter(|l| l.starts_with("[metrics] round ")).collect();
    assert_eq!(reports.len(), 2, "only every Nth round reports: {stderr}");
    assert!(reports[0].starts_with("[metrics] round 100:"), "{stderr}");
    assert!(reports[1].starts_with("[metrics] round 200:"), "{stderr}");
}

#[test]
fn serve_stdin_dirty_disconnect_still_flushes_metrics() {
    let frames = write_frames("servecut", 2, 80);
    // Cut the stream mid-frame: a dirty disconnect, not a clean EOF.
    let mut bytes = std::fs::read(&frames).unwrap();
    let cut = bytes.len() - 5;
    bytes.truncate(cut);
    std::fs::write(&frames, &bytes).unwrap();
    let json_path = std::env::temp_dir()
        .join(format!("streamad-cli-smoke-servecut-{}.json", std::process::id()));
    let out = streamad()
        .args(["serve", "--stdin", "--window", "6", "--warmup", "60", "--capacity", "16"])
        .args(["--metrics-json", json_path.to_str().unwrap()])
        .stdin(std::fs::File::open(&frames).expect("frame file opens"))
        .output()
        .expect("binary runs");
    std::fs::remove_file(&frames).ok();
    let json = std::fs::read_to_string(&json_path);
    std::fs::remove_file(&json_path).ok();
    assert!(!out.status.success(), "a truncated frame must fail the serve");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("stream ended inside a frame"), "names the failure: {stderr}");
    // The bugfix under test: the snapshot still lands after the error,
    // with every complete frame (2 x 80 - 1 truncated) accounted for.
    let json = json.expect("interrupted serve still flushes --metrics-json");
    assert!(json.contains("\"sad_ingest_frames_total\": 159"), "engine counter: {json}");
    assert!(stderr.contains("served 159 frames"), "backlog still drained: {stderr}");
}

#[test]
fn serve_keeps_serving_after_stdout_closes() {
    use std::io::BufRead;
    use std::process::Stdio;
    // 4 x (2000 - 60) detect lines (~250 KB) overrun the pipe buffer, so the
    // server is still printing when the reader goes away.
    let frames = write_frames("servepipe", 4, 2000);
    let json_path = std::env::temp_dir()
        .join(format!("streamad-cli-smoke-servepipe-{}.json", std::process::id()));
    let mut child = streamad()
        .args(["serve", "--stdin", "--window", "6", "--warmup", "60", "--capacity", "16"])
        .args(["--threshold", "0", "--metrics-json", json_path.to_str().unwrap()])
        .stdin(std::fs::File::open(&frames).expect("frame file opens"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first detect line");
    // The reader is dropped here: stdout is now a closed pipe.
    let out = child.wait_with_output().expect("binary exits");
    std::fs::remove_file(&frames).ok();
    let json = std::fs::read_to_string(&json_path);
    std::fs::remove_file(&json_path).ok();
    assert!(first.starts_with("detect stream="), "first line: {first:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "a closed stdout must not kill the server: {stderr}");
    let json = json.expect("--metrics-json written after stdout closed");
    assert!(json.contains("\"sad_fleet_steps_total\": 8000"), "every frame stepped: {json}");
}

/// Runs `cmd` with stdin read from `input` and returns its output, killing
/// it and failing the test if it has not exited within `deadline`.
fn output_within(mut cmd: Command, input: &std::path::Path, deadline: Duration) -> Output {
    let mut child = cmd
        .stdin(std::fs::File::open(input).expect("input file opens"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // Drain both pipes on their own threads so a full pipe cannot stall
    // the child while it is being timed.
    let drain = |mut pipe: Box<dyn Read + Send>| {
        std::thread::spawn(move || {
            let mut bytes = Vec::new();
            pipe.read_to_end(&mut bytes).expect("pipe reads");
            bytes
        })
    };
    let stdout = drain(Box::new(child.stdout.take().expect("piped stdout")));
    let stderr = drain(Box::new(child.stderr.take().expect("piped stderr")));
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("child status") {
            break status;
        }
        if started.elapsed() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("{cmd:?} did not exit within {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    Output { status, stdout: stdout.join().unwrap(), stderr: stderr.join().unwrap() }
}

/// One `NaN` on the wire must neither stall `serve` nor silence a stream.
/// The NaN frame is rejected and counted; every other post-warm-up frame
/// gets a finite verdict. Admitted, the NaN would reach the KS walk under
/// `--algo 1` (ARIMA/SW/KS), and under the default (USAD/SW/μσ) it would
/// turn later scores into NaN, which no threshold prints.
#[test]
fn serve_rejects_and_counts_a_nan_frame_and_keeps_serving() {
    let mut csv = String::new();
    for t in 0..900 {
        let x = t as f64 * 0.09;
        let first = if t == 700 { "NaN".to_string() } else { x.sin().to_string() };
        let _ = writeln!(csv, "0,{first},{}", (x * 0.63).cos());
    }
    let frames = std::env::temp_dir()
        .join(format!("streamad-cli-smoke-servenan-{}.csv", std::process::id()));
    std::fs::write(&frames, csv).expect("temp CSV is writable");
    for algo in [Some("1"), None] {
        let json_path = std::env::temp_dir().join(format!(
            "streamad-cli-smoke-servenan-{}-{}.json",
            algo.unwrap_or("default"),
            std::process::id()
        ));
        let mut cmd = streamad();
        cmd.args(["serve", "--stdin", "--csv", "--warmup", "300", "--window", "10"]);
        cmd.args(["--threshold", "0", "--metrics-json", json_path.to_str().unwrap()]);
        if let Some(algo) = algo {
            cmd.args(["--algo", algo]);
        }
        let out = output_within(cmd, &frames, Duration::from_secs(120));
        let json = std::fs::read_to_string(&json_path);
        std::fs::remove_file(&json_path).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--algo {algo:?} must exit 0: {stderr}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let scores: Vec<f64> = stdout
            .lines()
            .filter(|l| l.starts_with("detect stream="))
            .map(|l| {
                let score = l.split(" score=").nth(1).expect("verdicts carry a score");
                score.split(' ').next().unwrap().parse().expect("score parses")
            })
            .collect();
        // 899 accepted frames, 300 of them warm-up.
        assert_eq!(scores.len(), 599, "--algo {algo:?}: one verdict per accepted step");
        assert!(scores.iter().all(|s| s.is_finite()), "--algo {algo:?}: {stdout}");
        let json = json.expect("--metrics-json written");
        assert!(json.contains("\"sad_ingest_non_finite_total\": 1"), "--algo {algo:?}: {json}");
    }
    std::fs::remove_file(&frames).ok();
}

/// `--idle-rounds N` retires a stream after N quiet rounds, not counting
/// the round that serves its last frame. Two interleaved streams send one
/// frame each per round, so at `--idle-rounds 1` neither is quiet while
/// both send: each is admitted once and every post-warm-up frame gets a
/// verdict. A sweep that counted the serving round as quiet would retire
/// each stream after every frame, and each frame would admit a fresh
/// detector that never finishes its warm-up.
#[test]
fn serve_idle_rounds_one_keeps_two_interleaved_streams_live() {
    let mut csv = String::new();
    for t in 0..900 {
        for id in 0..2 {
            let x = t as f64 * 0.09 + id as f64 * 0.5;
            let _ = writeln!(csv, "{id},{},{}", x.sin(), (x * 0.63).cos());
        }
    }
    let frames = std::env::temp_dir()
        .join(format!("streamad-cli-smoke-serveidle-{}.csv", std::process::id()));
    std::fs::write(&frames, csv).expect("temp CSV is writable");
    let mut cmd = streamad();
    cmd.args(["serve", "--stdin", "--csv", "--algo", "6", "--window", "10", "--warmup", "300"]);
    cmd.args(["--idle-rounds", "1", "--threshold", "0"]);
    let out = output_within(cmd, &frames, Duration::from_secs(120));
    std::fs::remove_file(&frames).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("streams: 2 admitted,"), "summary: {stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let verdicts = stdout.lines().filter(|l| l.starts_with("detect stream=")).count();
    // 2 streams x (900 frames - 300 warm-up).
    assert_eq!(verdicts, 1200, "one verdict per post-warm-up frame");
}

/// A child process killed on drop, so a failed assertion cannot leave a
/// server listening.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// Moves lines from `lines` into `log` until one contains `want` (with
/// `None`, until the sender hangs up), failing the test at `deadline`.
fn read_until(
    lines: &std::sync::mpsc::Receiver<String>,
    log: &mut Vec<String>,
    want: Option<&str>,
    deadline: Instant,
) {
    use std::sync::mpsc::RecvTimeoutError;
    loop {
        match lines.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(line) => {
                let hit = want.is_some_and(|w| line.contains(w));
                log.push(line);
                if hit {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) if want.is_none() => return,
            Err(e) => panic!("waiting for {want:?}: {e}; stderr so far: {log:#?}"),
        }
    }
}

/// `serve --listen` binds an ephemeral port and names it on stderr, feeds
/// sequential connections into one engine, flushes the snapshot after
/// each, and exits after `--max-conns`. Stream 0's 100 frames arrive over
/// two connections and its 60-frame warm-up spans both, so a detector
/// rebuilt per connection would print no verdict at all.
#[test]
fn serve_listen_keeps_detectors_across_connections_and_exits_after_max_conns() {
    use std::io::{BufRead, Write};
    use streamad::ingest::{FrameWriter, Framing};
    let json_path = std::env::temp_dir()
        .join(format!("streamad-cli-smoke-listen-{}.json", std::process::id()));
    let mut server = KillOnDrop(
        streamad()
            .args(["serve", "--listen", "127.0.0.1:0", "--max-conns", "2", "--threshold", "0"])
            .args(["--window", "6", "--warmup", "60", "--capacity", "16"])
            .args(["--metrics-json", json_path.to_str().unwrap()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs"),
    );
    let mut stdout = server.0.stdout.take().expect("piped stdout");
    let stdout = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).expect("stdout reads");
        text
    });
    let stderr = std::io::BufReader::new(server.0.stderr.take().expect("piped stderr"));
    let (tx, lines) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in stderr.lines() {
            if tx.send(line.expect("stderr reads")).is_err() {
                break;
            }
        }
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut log = Vec::new();
    read_until(&lines, &mut log, Some("listening on "), deadline);
    let addr: std::net::SocketAddr = log[log.len() - 1]
        .split("listening on ")
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("bound address on stderr: {log:?}"));
    for (conn, steps) in [(1, 0..40), (2, 40..100)] {
        let mut writer = FrameWriter::new(Vec::new(), Framing::Binary);
        for t in steps {
            let x = t as f64 * 0.09;
            writer.send(0, &[x.sin(), (x * 0.63).cos()]).expect("in-memory encode");
        }
        let mut socket = std::net::TcpStream::connect(addr).expect("server accepts");
        socket.write_all(&writer.into_inner()).expect("frames sent");
        drop(socket);
        read_until(&lines, &mut log, Some(&format!("connection {conn} from")), deadline);
        assert!(log[log.len() - 1].ends_with("drained cleanly"), "{log:?}");
        read_until(&lines, &mut log, Some("metrics -> "), deadline);
        if conn == 1 {
            let json = std::fs::read_to_string(&json_path).expect("snapshot after connection 1");
            assert_eq!(counter(&json, "sad_ingest_frames_total"), 40, "{json}");
        }
    }
    read_until(&lines, &mut log, None, deadline);
    let status = server.0.wait().expect("server exits");
    let json = std::fs::read_to_string(&json_path).expect("final snapshot");
    std::fs::remove_file(&json_path).ok();
    assert!(status.success(), "exit after --max-conns 2: {log:#?}");
    assert_eq!(log.iter().filter(|l| l.ends_with("drained cleanly")).count(), 2, "{log:#?}");
    assert!(log.iter().any(|l| l.starts_with("streams: 1 admitted,")), "{log:#?}");
    assert_eq!(counter(&json, "sad_ingest_frames_total"), 100, "{json}");
    assert_eq!(counter(&json, "sad_fleet_admitted_total"), 1, "{json}");
    let stdout = stdout.join().expect("stdout drained");
    // --threshold 0 prints every post-warm-up verdict: 100 - 60.
    let verdicts = stdout.lines().filter(|l| l.starts_with("detect stream=0 ")).count();
    assert_eq!(verdicts, 40, "{stdout}");
}
