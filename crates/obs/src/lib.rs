//! # sad-obs
//!
//! Hand-rolled, dependency-free observability substrate for the streamad
//! workspace: a metric [`Registry`] of counters, gauges and fixed-bucket
//! [`Histogram`]s, plus two export sinks (Prometheus-style text exposition
//! and a JSON snapshot — see [`export`]).
//!
//! ## Design rules
//!
//! * **Count in plain fields, register at export.** Each layer keeps its
//!   counts where the events happen — integer fields next to the state
//!   they describe (a detector's drift times, a shard's `FleetStats`, the
//!   ingest engine's `IngestStats`) — and nowhere else. A [`Registry`] is
//!   built only when someone asks for one: one schema function per layer
//!   registers every metric together with its current value, in a fixed
//!   order, so the rendered text is a pure function of those fields.
//! * **Histograms are the only recorded type, and recording never
//!   allocates.** A [`Histogram`] is allocated at construction;
//!   [`Histogram::record`] is a binary search plus a few scalar updates —
//!   zero heap allocations, pinned by the counting-allocator guard in
//!   `tests/zero_alloc.rs` — so the guarded steady-state loops can record
//!   with telemetry on. Populations (the shards of a fleet, the live
//!   detectors) fold their histograms at export with
//!   [`Histogram::merge_from`]; the merge loses and double-counts nothing
//!   and is order-insensitive, proptest-pinned in
//!   `tests/histogram_props.rs`.
//! * **Observation must not perturb results.** Nothing in this crate feeds
//!   back into detection: the load-bearing grid/parity invariants of the
//!   workspace hold with instrumentation compiled in and enabled.

mod histogram;

pub mod export;

pub use histogram::Histogram;

/// Name + help text of a registered metric.
#[derive(Debug, Clone, PartialEq)]
struct Meta {
    name: String,
    help: String,
}

/// A metric registry: named counters, gauges and histograms with their
/// values, in registration order. See the crate docs for when one is
/// built.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: Vec<(Meta, u64)>,
    gauges: Vec<(Meta, f64)>,
    histograms: Vec<(Meta, Histogram)>,
}

/// Formats `base{key="value"}` with the label value escaped for the
/// Prometheus exposition format (`\`, `"` and newlines). Metric names in
/// this workspace bake their labels in at registration time — recording
/// never touches strings.
pub fn with_label(base: &str, key: &str, value: &str) -> String {
    let mut escaped = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => escaped.push_str("\\\\"),
            '"' => escaped.push_str("\\\""),
            '\n' => escaped.push_str("\\n"),
            other => escaped.push(other),
        }
    }
    format!("{base}{{{key}=\"{escaped}\"}}")
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn assert_fresh(&self, name: &str) {
        let taken = self.counters.iter().map(|(m, _)| m.name.as_str())
            .chain(self.gauges.iter().map(|(m, _)| m.name.as_str()))
            .chain(self.histograms.iter().map(|(m, _)| m.name.as_str()))
            .any(|n| n == name);
        assert!(!taken, "metric {name:?} registered twice");
    }

    /// Registers a counter with its value.
    ///
    /// # Panics
    /// Panics if `name` is already registered.
    pub fn register_counter(&mut self, name: &str, help: &str, value: u64) {
        self.assert_fresh(name);
        self.counters.push((Meta { name: name.into(), help: help.into() }, value));
    }

    /// Registers a gauge with its reading.
    ///
    /// # Panics
    /// Panics if `name` is already registered.
    pub fn register_gauge(&mut self, name: &str, help: &str, value: f64) {
        self.assert_fresh(name);
        self.gauges.push((Meta { name: name.into(), help: help.into() }, value));
    }

    /// Registers a histogram with its recorded observations.
    ///
    /// # Panics
    /// Panics if `name` is already registered.
    pub fn register_histogram(&mut self, name: &str, help: &str, histogram: Histogram) {
        self.assert_fresh(name);
        self.histograms.push((Meta { name: name.into(), help: help.into() }, histogram));
    }

    /// Looks up a counter value by full metric name (exporters / tests).
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(m, _)| m.name == name).map(|(_, v)| *v)
    }

    /// Looks up a gauge reading by full metric name.
    pub fn gauge_by_name(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(m, _)| m.name == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram by full metric name.
    pub fn histogram_by_name(&self, name: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|(m, _)| m.name == name).map(|(_, h)| h)
    }

    /// Number of registered metrics (all kinds).
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Whether no metric is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates `(name, help, value)` over counters, registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.counters.iter().map(|(m, v)| (m.name.as_str(), m.help.as_str(), *v))
    }

    /// Iterates `(name, help, value)` over gauges, registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &str, f64)> {
        self.gauges.iter().map(|(m, v)| (m.name.as_str(), m.help.as_str(), *v))
    }

    /// Iterates `(name, help, histogram)` over histograms, registration
    /// order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &str, &Histogram)> {
        self.histograms.iter().map(|(m, h)| (m.name.as_str(), m.help.as_str(), h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_values_are_found_by_name() {
        let mut reg = Registry::new();
        reg.register_counter("steps_total", "steps", 5);
        reg.register_gauge("queue_high_water", "depth", 9.0);
        let mut latency = Histogram::log2(1e-6, 1.0);
        latency.record(1e-4);
        reg.register_histogram("latency", "s", latency);
        assert_eq!(reg.counter_by_name("steps_total"), Some(5));
        assert_eq!(reg.gauge_by_name("queue_high_water"), Some(9.0));
        assert_eq!(reg.histogram_by_name("latency").unwrap().count(), 1);
        assert_eq!(reg.counter_by_name("nope"), None);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_name_panics_across_kinds() {
        let mut reg = Registry::new();
        reg.register_counter("m", "", 0);
        reg.register_gauge("m", "", 0.0);
    }

    #[test]
    fn with_label_escapes_quotes_and_backslashes() {
        assert_eq!(with_label("m", "k", "v"), "m{k=\"v\"}");
        assert_eq!(with_label("m", "k", "a\"b\\c"), "m{k=\"a\\\"b\\\\c\"}");
        assert_eq!(with_label("m", "k", "a\nb"), "m{k=\"a\\nb\"}");
    }
}
