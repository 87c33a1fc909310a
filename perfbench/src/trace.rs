//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own code, around calls into the
//! public API of each crate, so the program under test is unchanged. Each
//! span has a name, a tag (model kind or drift variant, where it matters),
//! start and end, and the span that was open when it started. Spans stay
//! in memory until the pass ends and are then written out as CSV.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// The crate a span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Bench,
    Ingest,
    Fleet,
    Core,
    Models,
    Metrics,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Bench,
        Layer::Ingest,
        Layer::Fleet,
        Layer::Core,
        Layer::Models,
        Layer::Metrics,
    ];

    pub fn self_pct_metric(self) -> &'static str {
        match self {
            Layer::Bench => "self_pct.bench",
            Layer::Ingest => "self_pct.ingest",
            Layer::Fleet => "self_pct.fleet",
            Layer::Core => "self_pct.core",
            Layer::Models => "self_pct.models",
            Layer::Metrics => "self_pct.metrics",
        }
    }
}

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One `(model, Task1)` root of the grid on one corpus (`sad_bench`).
    Root,
    /// `SharedWarmup::step` or a warm-up `Detector::begin_step`.
    WarmupStep,
    /// A warm-up step that ran the model's initial fit.
    FitInitial,
    /// `SharedWarmup::fork`.
    Fork,
    /// A post-warm-up `Detector::begin_step`.
    BeginStep,
    /// `StreamModel::predict` (tag: model kind).
    Predict,
    /// `Detector::finish_step` without a fine-tune (tag: drift variant).
    FinishStep,
    /// `Detector::finish_step` that fine-tuned the model (tag: model kind).
    FineTune,
    /// A whole `Detector::step` of a model whose predict is stateful.
    Step,
    /// `ScorerBank::replay_packed`.
    ReplayPacked,
    /// The four `sad_metrics` sweeps over one score trace.
    ScoreTrace,
    /// `Transport::next`.
    Decode,
    /// `IngestEngine::ingest` that neither admitted a stream nor drained.
    RouteOffer,
    /// `IngestEngine::ingest` that admitted a new stream.
    Admit,
    /// `IngestEngine::ingest` that ran a fleet drain round.
    Round,
}

impl Name {
    pub fn layer(self) -> Layer {
        match self {
            Name::Root => Layer::Bench,
            Name::WarmupStep | Name::Fork | Name::BeginStep | Name::FinishStep => Layer::Core,
            Name::Step | Name::ReplayPacked => Layer::Core,
            Name::FitInitial | Name::Predict | Name::FineTune => Layer::Models,
            Name::ScoreTrace => Layer::Metrics,
            Name::Decode | Name::RouteOffer | Name::Admit => Layer::Ingest,
            Name::Round => Layer::Fleet,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Name::Root => "bench.root",
            Name::WarmupStep => "core.warmup_step",
            Name::FitInitial => "models.fit_initial",
            Name::Fork => "core.fork",
            Name::BeginStep => "core.begin_step",
            Name::Predict => "models.predict",
            Name::FinishStep => "core.finish_step",
            Name::FineTune => "models.fine_tune",
            Name::Step => "core.step",
            Name::ReplayPacked => "core.replay_packed",
            Name::ScoreTrace => "metrics.score_trace",
            Name::Decode => "ingest.decode",
            Name::RouteOffer => "ingest.route_offer",
            Name::Admit => "ingest.admit",
            Name::Round => "fleet.round",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub tag: u8,
    pub parent: u32,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> f64 {
        (self.end - self.start) as f64
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    enabled: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            enabled: true,
        }
    }

    /// A tracer that records nothing and reads no clock: the baseline that
    /// `trace.overhead_pct` compares the same traced code path with.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: Name, tag: u8) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            name,
            tag,
            parent,
            start,
            end: start,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    #[inline]
    pub fn exit(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        self.spans[id as usize].end = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Re-classifies a span once the call has shown what it did (an
    /// ingest call that drained, a warm-up step that fitted).
    pub fn relabel(&mut self, id: u32, name: Name, tag: u8) {
        if !self.enabled {
            return;
        }
        let span = &mut self.spans[id as usize];
        span.name = name;
        span.tag = tag;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ns) of every span called `name`, optionally with `tag`.
    pub fn durations(&self, name: Name, tag: Option<u8>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(Span::ns)
            .collect()
    }

    /// Self time (ns) per layer: each span's duration minus the part its
    /// child spans cover, summed over the layer's spans.
    pub fn self_ns(&self) -> [f64; 6] {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out = [0.0; 6];
        for (s, c) in self.spans.iter().zip(&child) {
            let layer = Layer::ALL
                .iter()
                .position(|&l| l == s.name.layer())
                .expect("known layer");
            out[layer] += (s.end - s.start).saturating_sub(*c) as f64;
        }
        out
    }

    /// Writes every span as one CSV line.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,name,tag,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{id},{parent},{},{},{},{}",
                s.name.label(),
                s.tag,
                s.start,
                s.end
            )?;
        }
        w.flush()
    }
}

/// Cost of one clock read (ns): every span pays about this much on top of
/// the call it wraps.
pub fn clock_ns() -> f64 {
    let n = 200_000u32;
    let t0 = Instant::now();
    let mut last = t0;
    for _ in 0..n {
        last = std::hint::black_box(Instant::now());
    }
    (last - t0).as_nanos() as f64 / f64::from(n)
}

/// Reports self time per layer as a share of `wall_ns`; whatever no span
/// covers is the benchmark's own loop and is charged to `bench`.
pub fn self_pct(report: &mut crate::Report, tracer: &Tracer, wall_ns: f64) {
    let mut own = tracer.self_ns();
    let covered: f64 = tracer
        .spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(Span::ns)
        .sum();
    own[0] += (wall_ns - covered).max(0.0);
    for (layer, ns) in Layer::ALL.iter().zip(own) {
        report.metric(layer.self_pct_metric(), 100.0 * ns / wall_ns);
    }
    report.metric("trace.spans", tracer.len() as f64);
    report.metric("trace.clock_ns", clock_ns());
}
