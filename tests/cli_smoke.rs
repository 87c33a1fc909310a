//! End-to-end smoke tests for the `streamad` binary: the `--list` table
//! (header carries the run settings), the out-of-range `--algo` UX (show
//! the whole table, not just the bound), detector settings rejected at
//! startup, a plain detection run, the `--fleet` serving mode and `serve`.

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
fn fleet_mode_reports_throughput_and_batched_rows() {
    let csv = write_csv("fleet", 220);
    let out = streamad()
        .arg(&csv)
        .args(["--algo", "6", "--window", "6", "--warmup", "80", "--capacity", "16"])
        .args(["--fleet", "6", "--shards", "2"])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&csv).ok();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("batched rows"), "serving breakdown present: {stdout}");
    assert!(stdout.contains("throughput:"), "throughput line present: {stdout}");
    assert!(stdout.contains("round latency: p50"), "latency percentiles present: {stdout}");
    // 220 steps x 6 streams, every vector served exactly once.
    assert!(stdout.contains("served 1320 detector steps"), "step accounting: {stdout}");
}

#[test]
fn fleet_f32_infer_serves_batched_rows_through_snapshots() {
    let csv = write_csv("f32infer", 220);
    let out = streamad()
        .arg(&csv)
        .args(["--algo", "6", "--window", "6", "--warmup", "80", "--capacity", "16"])
        .args(["--fleet", "6", "--f32-infer"])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&csv).ok();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout
        .lines()
        .find(|l| l.contains("batched rows"))
        .unwrap_or_else(|| panic!("serving breakdown present: {stdout}"));
    // "… N batched rows in P shared passes (F f32), S scalar" — every
    // batched row must have gone through an f32 snapshot.
    let batched: usize = line
        .split(" batched rows")
        .next()
        .and_then(|s| s.rsplit(' ').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("batched row count parses: {line}"));
    let f32_rows: usize = line
        .split(" f32)")
        .next()
        .and_then(|s| s.rsplit('(').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("f32 row count parses: {line}"));
    assert!(batched > 0, "identical streams must batch: {line}");
    assert_eq!(f32_rows, batched, "--f32-infer serves every batched row as f32: {line}");
}

#[test]
fn fleet_metrics_json_counts_every_step_and_periodic_report_hits_stderr() {
    let csv = write_csv("metrics", 220);
    let json_path = std::env::temp_dir()
        .join(format!("streamad-cli-smoke-metrics-{}.json", std::process::id()));
    let out = streamad()
        .arg(&csv)
        .args(["--algo", "6", "--window", "6", "--warmup", "80", "--capacity", "16"])
        .args(["--fleet", "6", "--shards", "2"])
        .args(["--metrics-json", json_path.to_str().unwrap(), "--metrics-every", "100"])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&csv).ok();
    let json = std::fs::read_to_string(&json_path).expect("--metrics-json wrote the snapshot");
    std::fs::remove_file(&json_path).ok();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    // 220 steps x 6 streams through the per-shard serving registries.
    assert!(json.contains("\"sad_fleet_steps_total\": 1320"), "step counter: {json}");
    // Aggregated detector lifecycle rides along in the same snapshot —
    // lifecycle steps count scored steps only: 6 x (220 - 80 warm-up).
    assert!(json.contains("\"sad_detector_steps_total\": 840"), "lifecycle counter: {json}");
    assert!(json.contains("\"sad_detector_warmup_completions_total\": 6"), "warm-ups: {json}");
    assert!(json.contains("\"sad_cli_round_seconds\""), "CLI latency histogram: {json}");
    // 220 rounds with --metrics-every 100 → reports at rounds 100 and 200.
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("[metrics] round 100:"), "periodic report: {stderr}");
    assert!(stderr.contains("[metrics] round 200:"), "periodic report: {stderr}");
    assert!(!stderr.contains("[metrics] round 220:"), "only every Nth round reports: {stderr}");
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

#[test]
fn fleet_no_batch_serves_scalar_only() {
    let csv = write_csv("nobatch", 160);
    let out = streamad()
        .arg(&csv)
        .args(["--algo", "6", "--window", "6", "--warmup", "80", "--capacity", "16"])
        .args(["--fleet", "3", "--no-batch"])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&csv).ok();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("0 batched rows in 0 shared passes (0 f32), 480 scalar"),
        "batching off serves everything scalar: {stdout}",
    );
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
