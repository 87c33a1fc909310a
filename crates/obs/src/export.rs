//! Export sinks for a [`Registry`](crate::Registry): Prometheus-style text
//! exposition and a JSON snapshot.
//!
//! Both renderers are plain `std` string building (the vendored serde
//! stand-in has no data format, matching `sad_bench::timing`'s hand-rolled
//! JSON). Exporting allocates freely — it runs outside the guarded hot
//! paths — and stays pluggable: anything that can ship a `String` (a file,
//! stderr, the future TCP transport) is a sink.

use crate::{Histogram, Registry};

/// Splits a full metric name into `(base, labels)` — `"m{k=\"v\"}"` →
/// `("m", "{k=\"v\"}")` — so `# HELP`/`# TYPE` lines carry the bare name.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    }
}

/// Formats an `f64` for the exposition format (finite shortest-roundtrip,
/// `+Inf`/`-Inf`/`NaN` spelled the Prometheus way).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

/// Formats an `f64` as a JSON value (non-finite readings become `null` —
/// JSON has no Inf/NaN literals).
fn json_f64(v: f64) -> String {
    if v.is_finite() { format!("{v}") } else { "null".into() }
}

/// Inserts label(s) in front of an existing label set:
/// `("m{a=\"1\"}", "le=\"5\"")` → `m{le="5",a="1"}`.
fn name_with(base: &str, labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{base}{{{extra}}}")
    } else {
        format!("{base}{{{extra},{}", &labels[1..])
    }
}

fn render_histogram_prom(out: &mut String, name: &str, h: &Histogram) {
    let (base, labels) = split_labels(name);
    let mut cum = 0u64;
    for (i, &count) in h.counts().iter().enumerate() {
        cum += count;
        let le = if i < h.bounds().len() {
            prom_f64(h.bounds()[i])
        } else {
            "+Inf".into()
        };
        out.push_str(&format!(
            "{} {cum}\n",
            name_with(&format!("{base}_bucket"), labels, &format!("le=\"{le}\""))
        ));
    }
    out.push_str(&format!("{}_sum{labels} {}\n", base, prom_f64(h.sum())));
    out.push_str(&format!("{}_count{labels} {}\n", base, h.count()));
}

impl Registry {
    /// Renders the registry in the Prometheus text exposition format
    /// (`# HELP`/`# TYPE` preambles, cumulative `_bucket{le=…}` series,
    /// `_sum`/`_count` per histogram). Labelled variants sharing a base
    /// name get one preamble — the first variant's.
    pub fn render_prometheus(&self, out: &mut String) {
        let mut seen: Vec<String> = Vec::new();
        let mut preamble = |out: &mut String, base: &str, help: &str, kind: &str| {
            if seen.iter().any(|s| s == base) {
                return;
            }
            seen.push(base.to_string());
            if !help.is_empty() {
                out.push_str(&format!("# HELP {base} {help}\n"));
            }
            out.push_str(&format!("# TYPE {base} {kind}\n"));
        };
        for (name, help, value) in self.counters() {
            let (base, _) = split_labels(name);
            preamble(out, base, help, "counter");
            out.push_str(&format!("{name} {value}\n"));
        }
        for (name, help, value) in self.gauges() {
            let (base, _) = split_labels(name);
            preamble(out, base, help, "gauge");
            out.push_str(&format!("{name} {}\n", prom_f64(value)));
        }
        for (name, help, hist) in self.histograms() {
            let (base, _) = split_labels(name);
            preamble(out, base, help, "histogram");
            render_histogram_prom(out, name, hist);
        }
    }

    /// Renders the registry as a pretty-printed JSON snapshot: counters
    /// and gauges as name→value maps, histograms with count/sum/min/max,
    /// derived p50/p99, and the raw `[le, count]` bucket pairs (the
    /// overflow bucket carries `"le": null`).
    pub fn render_json(&self, out: &mut String) {
        out.push_str("{\n  \"counters\": {");
        let mut first = true;
        for (name, _, value) in self.counters() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    {}: {value}", json_string(name)));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (name, _, value) in self.gauges() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    {}: {}", json_string(name), json_f64(value)));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (name, _, h) in self.histograms() {
            if !first {
                out.push(',');
            }
            first = false;
            let (min, max) = if h.count() == 0 { (0.0, 0.0) } else { (h.min(), h.max()) };
            out.push_str(&format!(
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p99\": {}, \"buckets\": [",
                json_string(name),
                h.count(),
                json_f64(h.sum()),
                json_f64(min),
                json_f64(max),
                json_f64(h.quantile(0.50)),
                json_f64(h.quantile(0.99)),
            ));
            for (i, &count) in h.counts().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let le = if i < h.bounds().len() {
                    json_f64(h.bounds()[i])
                } else {
                    "null".into()
                };
                out.push_str(&format!("[{le}, {count}]"));
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
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
    use crate::with_label;

    fn sample() -> Registry {
        let mut reg = Registry::new();
        reg.register_counter("steps_total", "Detector steps served.", 7);
        reg.register_counter(&with_label("drift_events_total", "task2", "KS"), "Drift.", 2);
        reg.register_gauge("queue_high_water", "Deepest queue.", 3.0);
        let mut h = Histogram::linear(0.0, 1.0, 2);
        h.record(0.25);
        h.record(0.75);
        h.record(5.0);
        reg.register_histogram("round_seconds", "Round latency.", h);
        reg
    }

    #[test]
    fn prometheus_exposition_has_types_buckets_and_labels() {
        let mut out = String::new();
        sample().render_prometheus(&mut out);
        assert!(out.contains("# TYPE steps_total counter\nsteps_total 7\n"), "{out}");
        assert!(
            out.contains("# TYPE drift_events_total counter\ndrift_events_total{task2=\"KS\"} 2\n"),
            "TYPE line uses the bare name, sample line keeps labels: {out}"
        );
        assert!(out.contains("# TYPE queue_high_water gauge\nqueue_high_water 3\n"), "{out}");
        assert!(out.contains("# TYPE round_seconds histogram"), "{out}");
        assert!(out.contains("round_seconds_bucket{le=\"0.5\"} 1\n"), "{out}");
        assert!(out.contains("round_seconds_bucket{le=\"1\"} 2\n"), "cumulative: {out}");
        assert!(out.contains("round_seconds_bucket{le=\"+Inf\"} 3\n"), "{out}");
        assert!(out.contains("round_seconds_sum 6\n"), "{out}");
        assert!(out.contains("round_seconds_count 3\n"), "{out}");
        assert!(out.contains("# HELP steps_total Detector steps served.\n"), "{out}");
    }

    #[test]
    fn json_snapshot_is_well_formed_and_complete() {
        let mut out = String::new();
        sample().render_json(&mut out);
        assert!(out.contains("\"steps_total\": 7"), "{out}");
        assert!(out.contains("\"drift_events_total{task2=\\\"KS\\\"}\": 2"), "{out}");
        assert!(out.contains("\"queue_high_water\": 3"), "{out}");
        assert!(out.contains("\"count\": 3"), "{out}");
        assert!(out.contains("[null, 1]"), "overflow bucket has le null: {out}");
        // Brace/bracket balance is a cheap well-formedness smoke check.
        let balance = |open: char, close: char| {
            out.chars().filter(|&c| c == open).count()
                == out.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'), "{out}");
    }

    #[test]
    fn empty_registry_renders_empty_sections() {
        let mut prom = String::new();
        let mut json = String::new();
        let reg = Registry::new();
        reg.render_prometheus(&mut prom);
        reg.render_json(&mut json);
        assert!(prom.is_empty());
        assert!(json.contains("\"counters\": {"));
    }
}
