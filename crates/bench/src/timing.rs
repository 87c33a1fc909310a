//! Machine-readable timing artifacts for the harness binaries.
//!
//! Each grid run can be serialized to a small JSON file (e.g.
//! `bench_output/table3_timing.json`) holding total wall time, worker
//! count, and per-root times — a perf trajectory to regress against.
//! Written by hand with only `std` (the vendored serde stand-in has no
//! data format).

use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// Timing telemetry of one harness run.
#[derive(Debug, Clone)]
pub struct TimingArtifact {
    /// Which artifact produced this (e.g. `"table3_results"`).
    pub harness: String,
    /// Profile name (`"quick"` / `"full"`).
    pub profile: String,
    /// Worker threads used.
    pub jobs: usize,
    /// End-to-end wall time.
    pub wall_time: Duration,
    /// Sum of per-job wall times (serial-equivalent cost when the
    /// workers were not oversubscribed; see `JobReport::cpu_time`).
    pub cpu_time: Duration,
    /// Per-root timing breakdown — the scheduling unit of the
    /// shared-prefix evaluation tree (one warm-up + initial fit per
    /// `(model, Task1, corpus)` node, forked across drift variants).
    pub roots: Vec<RootTiming>,
}

/// Timing of one shared-prefix tree root — the `(model, Task1, corpus)`
/// scheduling unit whose warm-up + initial fit is forked across drift
/// variants.
#[derive(Debug, Clone)]
pub struct RootTiming {
    /// Root label (`model / task1 @ corpus`).
    pub label: String,
    /// Measured end-to-end root wall time (shared warm-up + initial fit,
    /// every drift-variant fork, every scorer).
    pub wall: Duration,
    /// True training seconds of the root: the shared initial fit counted
    /// once across all variants and scorers, plus per-fork fine-tunes.
    pub train_seconds: f64,
    /// Number of `fit_initial` invocations (one per series that reached
    /// warm-up — deduplicated across the root's drift variants).
    pub initial_fits: usize,
    /// Whether the root's scorers shared a single detector pass per fork.
    pub shared_pass: bool,
    /// Number of drift variants forked from the shared warm-up.
    pub variants: usize,
    /// Number of scorers fanned out inside each fork.
    pub scorers: usize,
}

impl TimingArtifact {
    /// Renders the artifact as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.roots.len() * 192);
        out.push_str("{\n");
        out.push_str(&format!("  \"harness\": {},\n", json_string(&self.harness)));
        out.push_str(&format!("  \"profile\": {},\n", json_string(&self.profile)));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"wall_seconds\": {:.6},\n", self.wall_time.as_secs_f64()));
        out.push_str(&format!("  \"cpu_seconds\": {:.6},\n", self.cpu_time.as_secs_f64()));
        // Observed concurrency (sum of per-root wall times over total wall
        // time). Equal to real speedup only when the workers had physical
        // cores to themselves; under cgroup CPU limits the per-root times
        // are inflated by time-slicing, so this is an upper bound.
        out.push_str(&format!(
            "  \"concurrency\": {:.3},\n",
            self.cpu_time.as_secs_f64() / self.wall_time.as_secs_f64().max(1e-12)
        ));
        // Total model-training share (the hot loop the batched NN path
        // optimizes); roots count the shared initial fit once.
        let train_total: f64 = self.roots.iter().map(|r| r.train_seconds).sum();
        out.push_str(&format!("  \"train_seconds_total\": {train_total:.6},\n"));
        // Total `fit_initial` invocations — the headline saving of the
        // shared-prefix tree (42 on the quick paper grid, down from 78).
        let fits_total: usize = self.roots.iter().map(|r| r.initial_fits).sum();
        out.push_str(&format!("  \"initial_fits_total\": {fits_total},\n"));
        out.push_str("  \"roots\": [\n");
        for (i, root) in self.roots.iter().enumerate() {
            let comma = if i + 1 == self.roots.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"label\": {}, \"seconds\": {:.6}, \"train_seconds\": {:.6}, \"initial_fits\": {}, \"shared_pass\": {}, \"variants\": {}, \"scorers\": {}}}{comma}\n",
                json_string(&root.label),
                root.wall.as_secs_f64(),
                root.train_seconds,
                root.initial_fits,
                root.shared_pass,
                root.variants,
                root.scorers,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON artifact to `path`, creating parent directories.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().as_bytes())
    }

    /// Projects the run into a `sad_obs` registry so grid evaluations flow
    /// through the same telemetry substrate as the serving layers: run
    /// shape as gauges, per-root wall/train times as labelled gauges, and
    /// a wall-time histogram over the roots.
    pub fn to_registry(&self) -> sad_obs::Registry {
        use sad_obs::{with_label, Histogram, Registry};
        let mut reg = Registry::new();
        reg.register_gauge("sad_grid_jobs", "Worker threads used.", self.jobs as f64);
        reg.register_gauge(
            "sad_grid_wall_seconds",
            "End-to-end grid wall time.",
            self.wall_time.as_secs_f64(),
        );
        reg.register_gauge(
            "sad_grid_cpu_seconds",
            "Serial-equivalent grid cost.",
            self.cpu_time.as_secs_f64(),
        );
        reg.register_counter(
            "sad_grid_initial_fits_total",
            "fit_initial invocations across the grid.",
            self.roots.iter().map(|r| r.initial_fits as u64).sum(),
        );
        let mut unit_wall = Histogram::log2(1e-3, 4096.0);
        for root in &self.roots {
            unit_wall.record(root.wall.as_secs_f64());
            reg.register_gauge(
                &with_label("sad_grid_unit_wall_seconds", "unit", &root.label),
                "Wall time of one scheduling unit.",
                root.wall.as_secs_f64(),
            );
            reg.register_gauge(
                &with_label("sad_grid_unit_train_seconds", "unit", &root.label),
                "Model-training share of one scheduling unit.",
                root.train_seconds,
            );
        }
        reg.register_histogram(
            "sad_grid_unit_seconds",
            "Wall time per scheduling unit (root).",
            unit_wall,
        );
        reg
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact() -> TimingArtifact {
        TimingArtifact {
            harness: "table3_results".into(),
            profile: "quick".into(),
            jobs: 4,
            wall_time: Duration::from_millis(500),
            cpu_time: Duration::from_millis(1800),
            roots: vec![
                RootTiming {
                    label: "Online ARIMA / SW @ daphnet-like".into(),
                    wall: Duration::from_millis(1500),
                    train_seconds: 0.2,
                    initial_fits: 1,
                    shared_pass: true,
                    variants: 2,
                    scorers: 3,
                },
                RootTiming {
                    label: "2-layer AE / ARES @ \"quoted\"".into(),
                    wall: Duration::from_millis(800),
                    train_seconds: 0.1,
                    initial_fits: 1,
                    shared_pass: false,
                    variants: 2,
                    scorers: 3,
                },
            ],
        }
    }

    #[test]
    fn json_has_expected_fields() {
        let json = artifact().to_json();
        for needle in [
            "\"harness\": \"table3_results\"",
            "\"profile\": \"quick\"",
            "\"jobs\": 4",
            "\"wall_seconds\": 0.500000",
            "\"cpu_seconds\": 1.800000",
            "\"concurrency\": 3.600",
            "\"roots\": [",
            "\"label\": \"Online ARIMA / SW @ daphnet-like\"",
            "\"seconds\": 1.500000",
            "\"initial_fits\": 1",
            "\"shared_pass\": false",
            "\"variants\": 2",
            "\"scorers\": 3",
            "\"initial_fits_total\": 2",
            // The shared fit is counted once per root: 0.2 + 0.1.
            "\"train_seconds_total\": 0.300000",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        assert!(json.ends_with("}\n  ]\n}\n"), "roots close the document:\n{json}");
    }

    #[test]
    fn registry_projection_tracks_roots() {
        let reg = artifact().to_registry();
        assert_eq!(reg.gauge_by_name("sad_grid_jobs"), Some(4.0));
        assert_eq!(reg.counter_by_name("sad_grid_initial_fits_total"), Some(2));
        let h = reg.histogram_by_name("sad_grid_unit_seconds").unwrap();
        assert_eq!(h.count(), 2, "one observation per root");
        assert_eq!(
            reg.gauge_by_name(
                "sad_grid_unit_wall_seconds{unit=\"Online ARIMA / SW @ daphnet-like\"}"
            ),
            Some(1.5)
        );
        let mut prom = String::new();
        reg.render_prometheus(&mut prom);
        assert!(prom.contains("# TYPE sad_grid_unit_wall_seconds gauge"), "{prom}");
    }

    #[test]
    fn strings_are_escaped() {
        let json = artifact().to_json();
        assert!(json.contains("@ \\\"quoted\\\""));
        assert_eq!(json_string("a\nb\\c"), "\"a\\nb\\\\c\"");
    }

    #[test]
    fn write_round_trips_to_disk() {
        let dir = std::env::temp_dir().join("sad_bench_timing_test");
        let path = dir.join("t.json");
        artifact().write(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with('{') && content.trim_end().ends_with('}'));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
