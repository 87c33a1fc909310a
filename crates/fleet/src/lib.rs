//! # sad-fleet
//!
//! Multi-stream serving: a sharded [`DetectorFleet`] owning N independent
//! `sad_core::Detector` instances — one per monitored entity (SMD server,
//! user session, …) — partitioned deterministically across worker shards
//! and fed through per-stream input queues.
//!
//! ## Cross-stream batched stepping
//!
//! The headline optimisation: within a shard, streams whose models share
//! the same NN architecture (AE/USAD/N-BEATS with identical layer
//! dimensions — `sad_models::batch_arch_key`) form an *arch group*.
//! Inside a group, streams whose models are **bitwise-identical in every
//! parameter `predict` reads** (`sad_models::infer_state_equal`) form a
//! *cohort*; each cohort's per-step feature windows are packed into one
//! row-major matrix and pushed through a single `Mlp::forward_batch` per
//! sub-network via the group's one inference workspace
//! (`sad_models::InferBatch`), amortizing inference the way the training
//! workspace amortizes fine-tuning. A model's own `predict`, which a
//! scalar `Detector::step` calls, is that same loop run at one row, and
//! `forward_batch` computes every output row independently of the others
//! (`sad-nn`'s batch parity tests), so a cohort's batched step is bitwise
//! identical to N scalar `Detector::step` calls — the `fleet_parity`
//! suite proves it in the same style as `eval_parity.rs`.
//!
//! Cohorts are kept, not rebuilt. A model's weights change only when its
//! learning strategy fine-tunes it, so a stream's cohort changes only on
//! two events, and parameters are compared only on the first:
//!
//! * a *join*, when the stream's warm-up fit or a landed adaptation
//!   leaves it home with new weights: it is compared with each cohort's
//!   first member and joins the equal cohort, or founds a new one;
//! * a *leave*, when a drift sends the stream away on its adaptation, or
//!   when it retires; a cohort left empty goes. The group keeps its
//!   record (member list and, in f32, snapshot) for its next founding,
//!   so a join allocates on the caller only when its group has more
//!   cohorts than ever before or a cohort outgrows its member list.
//!
//! A grouped stream stays grouped, if need be as a cohort of one. Streams
//! whose models never materialize a batchable network (PCB-iForest,
//! ARIMA) — and every stream when `FleetConfig::batching` is off — run
//! the plain scalar `Detector::step` path.
//!
//! ## One serving loop, two precisions
//!
//! `InferBatch<T>` is generic over the tensor precision, and a group's
//! workspace is in the precision it serves. Each round serves a cohort by
//! the same pack → forward → emit loop against an `InferView` of that
//! cohort's networks and scaler:
//!
//! * **f64** (default): the view borrows the live parameters of the
//!   cohort's first member. Nothing is copied: under entity churn nearly
//!   every round founds a cohort, and per-cohort f64 copies would add
//!   their weights to memory and a full copy to each of those rounds.
//! * **f32** (`FleetConfig::f32_infer`): the view borrows the cohort's
//!   `InferSnapshot<f32>`, which holds only converted weights and scaler.
//!   A cohort's snapshot is converted from its founder's parameters when
//!   the cohort is founded (re-synced in place, when the cohort reuses an
//!   emptied one's record), and holds as long as the cohort does, since
//!   no member's weights change while it is in it. Outputs agree with the
//!   f64 path to f32 accuracy; training stays f64.
//!
//! ## Sharding and the worker pool
//!
//! A stream id is the address of its slot: slot `k` of shard `s` is id
//! `k · shards + s`, reused once its stream retires (see [`DetectorFleet`]).
//! A fleet built by [`DetectorFleet::new`] puts stream `i` on shard
//! `i % shards` (deterministic, so parity holds at any shard count). Shards
//! own disjoint state, and outputs are always scattered back into
//! stream-id order.
//!
//! Every fleet owns one pool of `available_parallelism() − 1` helper
//! threads, spawned by [`DetectorFleet::open`] and joined when the fleet
//! drops. The pool has two lanes: the *round* lane, whose jobs a round
//! waits for, and the *background* lane, whose jobs it does not. A drain
//! round runs in four phases:
//!
//! 1. *Cohorts*, on the calling thread: for each cohort, `begin_step` of
//!    every member with input, then one shared forward pass over those
//!    that began. With two or more shards each shard's cohort phase is one
//!    pool job, so the shards' forward passes overlap.
//! 2. *Streams*: the caller and the helpers claim grouped streams one at
//!    a time and run each one's `Detector::score_step`. A drift makes the
//!    scoring job hand the stream's detector on to its adaptation
//!    (`Detector::adapt`: the fine-tune epochs, then the drift re-anchor)
//!    on the background lane; the stream is *away* and leaves its cohort.
//!    Every ungrouped stream's `Detector::step` stays on the caller:
//!    warm-up steps fill the training set and end in the allocating
//!    initial fit, and a non-batchable model's scalar predict builds its
//!    output per call. Away streams with input *resume*: after its
//!    ungrouped steps the caller lands each one's adaptation and begins
//!    its step while the scoring jobs run (queued adaptations are
//!    recalled to the front of the round lane, where the caller or a
//!    helper runs them; one a helper holds is waited for).
//! 3. *Resume pass*, once every scoring job is back, so that every
//!    grouped stream that is not away is home: the streams the round
//!    landed join their cohorts, in slot order, the resumed ones are
//!    served through the cohort loop of phase 1, and their scoring jobs go
//!    out in a second round of the pool.
//! 4. *Bookkeeping*, on the caller, in slot order: serving counters,
//!    batching eligibility and warm-up joins.
//!
//! So a round returns once its verdicts are out, and each fine-tune runs
//! beside the rest of its round, the next ingest window and the next
//! cohort phase. Whether a helper has already finished an adaptation is
//! never looked at before the stream's next round with input, or
//! [`DetectorFleet::settle`], lands it, and joins run in slot order (a
//! leave commutes with other leaves): which streams are away, the cohorts
//! and every counter depend on the input alone.
//!
//! Each job touches only its own stream's detector (or its own shard), so
//! every trace is bitwise the same at any shard or helper count
//! (`tests/fleet_parity.rs`); the pool only overlaps the work. Jobs are
//! moved by value through preallocated queues: dispatch allocates
//! nothing and the crate has no `unsafe`. A panicking job is caught where
//! it ran. `drain_round` re-raises a round job's panic on the caller once
//! every job of the round is back, and an adaptation's when its stream
//! resumes; [`DetectorFleet::settle`] re-raises the adaptations' panics
//! it meets. Before a panic leaves the fleet, every adaptation in flight
//! has landed, so every stream is home. If no helper can be spawned, the
//! same protocol runs inline.
//!
//! ## Telemetry
//!
//! Each shard counts its own serving events in a plain [`FleetStats`]
//! (shard-local — no atomics, matching the disjoint-state model), next to
//! a queue-depth high-water mark and batch-width / round-latency
//! `sad_obs::Histogram`s. Counting is an integer add and recording is
//! zero-alloc (the steady-state allocation guard runs with telemetry on),
//! and nothing observed feeds back into detection.
//! [`DetectorFleet::stats`] sums the shards' counters;
//! [`DetectorFleet::export_metrics`] builds a `sad_obs::Registry` from
//! them, the merged histograms and the live detectors' lifecycle
//! (`sad_core::register_lifecycle`) for the Prometheus/JSON sinks.
//! `FleetConfig::telemetry` gates only the clock reads and the queue sweep
//! (the measured overhead knob).

mod pool;

use sad_core::{Detector, ModelOutput, StepOutput, StreamModel};
use sad_models::{
    batch_arch_key, infer_state_equal, infer_view, ArchKey, InferBatch, InferSnapshot, InferView,
    Scalar,
};
use sad_obs::{Histogram, Registry};

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::pool::{Panic, Pool};

/// What to do with an incoming stream vector when its bounded per-stream
/// queue is full ([`DetectorFleet::offer`]). Every policy is counted in
/// [`FleetStats`] (exported as `sad_fleet_bp_*_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Refuse the vector and report [`OfferOutcome::WouldBlock`]: the
    /// caller is expected to drain a round and retry — lossless, the
    /// producer stalls instead. The default.
    #[default]
    Block,
    /// Discard the incoming vector (the queue keeps its older backlog).
    DropNewest,
    /// Evict the oldest queued vector to make room for the incoming one.
    DropOldest,
}

/// Result of [`DetectorFleet::offer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferOutcome {
    /// The vector was enqueued.
    Enqueued,
    /// Queue full under [`BackpressurePolicy::Block`]: nothing was
    /// enqueued; drain a round and retry.
    WouldBlock,
    /// Queue full under [`BackpressurePolicy::DropNewest`]: the incoming
    /// vector was discarded.
    DroppedNewest,
    /// Queue full under [`BackpressurePolicy::DropOldest`]: the oldest
    /// queued vector was evicted and the incoming one enqueued.
    DroppedOldest,
}

/// Static configuration of a [`DetectorFleet`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shards (stream `i` → shard `i % shards`).
    pub shards: usize,
    /// Enables cross-stream batched NN stepping (off = every stream runs
    /// the scalar `Detector::step` path).
    pub batching: bool,
    /// Ignored. Every fleet runs its rounds on its worker pool (crate
    /// docs, "Sharding and the worker pool"), whose size comes from
    /// `std::thread::available_parallelism()`. Kept so that existing
    /// struct literals still compile.
    pub parallel: bool,
    /// Per-stream input queue capacity (stream vectors).
    pub queue_capacity: usize,
    /// Serves each arch group through an f32 `InferBatch`, with every
    /// cohort's view borrowing its own f32 snapshot of weights and scaler
    /// (`sad_models::InferSnapshot`) instead of its first member's live
    /// f64 parameters. Halves the bytes streamed per weight in the
    /// memory-bound serving GEMMs; outputs agree with the f64 path to f32
    /// relative accuracy rather than bitwise. Training, fine-tuning and
    /// the detector's score/threshold state stay f64 — a cohort's
    /// snapshot is converted when the cohort is founded, and no member's
    /// weights change while it is in the cohort. Requires `batching`; off
    /// by default (the parity-proof default).
    pub f32_infer: bool,
    /// Enables the timed/shape telemetry: per-round latency histograms,
    /// queue-depth high-water marks, and batch-width histograms. The
    /// serving counters behind [`DetectorFleet::stats`] are maintained
    /// regardless (they cost a handful of zero-alloc integer adds); this
    /// flag only gates the clock reads and the per-slot queue sweep, which
    /// is what the `obs_overhead` bench compares. On by default.
    pub telemetry: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            batching: true,
            parallel: false,
            queue_capacity: 64,
            f32_infer: false,
            telemetry: true,
        }
    }
}

/// Cumulative serving counters. Each shard counts its own; a snapshot from
/// [`DetectorFleet::stats`] sums them over shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Detector steps completed (warm-up steps included): always
    /// `scalar_steps + batched_rows`, derived when the stats are read.
    pub steps: usize,
    /// Steps served through the scalar per-stream path.
    pub scalar_steps: usize,
    /// Steps served through a shared batched forward pass.
    pub batched_rows: usize,
    /// Batched forward passes executed (`batched_rows / batches` = mean
    /// rows amortized per pass).
    pub batches: usize,
    /// Subset of `batched_rows` served in f32, against a cohort's
    /// `InferSnapshot<f32>` (`FleetConfig::f32_infer`; with it on, every
    /// batched row is an f32 row).
    pub f32_rows: usize,
    /// Cohort phases that found an arch group's cohorts changed since the
    /// group's last one: one per group at the first cohort phase after a
    /// join (a warm-up fit or a landed adaptation) or a retirement in it.
    /// Cohorts are no longer rebuilt; the name is kept from when they were.
    pub cohort_rebuilds: usize,
    /// f32 snapshots converted, one per cohort founded in an f32 group:
    /// fresh, or re-synced in place into an emptied cohort's snapshot
    /// (0 unless `FleetConfig::f32_infer`).
    pub f32_resyncs: usize,
    /// `offer` calls refused on a full queue under
    /// [`BackpressurePolicy::Block`].
    pub bp_blocked: usize,
    /// Incoming vectors discarded under [`BackpressurePolicy::DropNewest`].
    pub bp_dropped_newest: usize,
    /// Queued vectors evicted under [`BackpressurePolicy::DropOldest`].
    pub bp_dropped_oldest: usize,
    /// Streams admitted dynamically through [`DetectorFleet::admit`].
    pub admitted: usize,
    /// Streams retired through [`DetectorFleet::retire`].
    pub retired: usize,
}

/// Fixed-capacity ring queue of `n`-channel stream vectors. Steady-state
/// push/pop never allocates.
struct RingQueue {
    buf: Vec<f64>,
    n: usize,
    cap: usize,
    head: usize,
    len: usize,
}

impl RingQueue {
    fn new(n: usize, cap: usize) -> Self {
        assert!(n > 0 && cap > 0, "queue dimensions must be positive");
        Self { buf: vec![0.0; n * cap], n, cap, head: 0, len: 0 }
    }

    /// Enqueues one stream vector; `false` when full (caller backpressure).
    fn push(&mut self, s: &[f64]) -> bool {
        assert_eq!(s.len(), self.n, "stream vector has wrong channel count");
        if self.len == self.cap {
            return false;
        }
        let slot = (self.head + self.len) % self.cap;
        self.buf[slot * self.n..(slot + 1) * self.n].copy_from_slice(s);
        self.len += 1;
        true
    }

    fn front(&self) -> Option<&[f64]> {
        (self.len > 0).then(|| &self.buf[self.head * self.n..(self.head + 1) * self.n])
    }

    fn pop_front(&mut self) {
        debug_assert!(self.len > 0, "pop from empty queue");
        self.head = (self.head + 1) % self.cap;
        self.len -= 1;
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// A stream's part in the current round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Work {
    /// No input this round.
    Idle,
    /// An ungrouped stream's `Detector::step` (warm-up, a non-batchable
    /// model, or batching off). Runs on the caller.
    Step,
    /// A grouped stream's `Detector::score_step` on the output of its
    /// cohort's shared forward pass. Pooled.
    Finish,
    /// A stream away on its adaptation, with input: the adaptation is
    /// finished first, then the stream lands and begins its step
    /// ([`Work::Resumed`]). A landed stream whose begin dropped a
    /// non-finite vector stays `Resume`: it joins its cohort in the
    /// resume pass, but is not served.
    Resume,
    /// A landed stream that has begun its step: the resume pass joins it
    /// to its cohort, serves it there and scores it.
    Resumed,
}

/// One stream's state on its shard. The slot stays in the shard while the
/// stream's detector is out on a job: its queue takes input and its group
/// keeps its place.
struct StreamSlot {
    /// The stream's detector; `None` while it is out on a round's scoring
    /// job or on its adaptation.
    det: Option<Box<Detector>>,
    /// Whether the stream is away on its adaptation: from the round whose
    /// scoring owed it until the next round with input for the stream, or
    /// [`DetectorFleet::settle`], lands it. Whether a helper has already
    /// finished it (the detector is parked back in `det`) is never looked
    /// at before then, so what a round does depends on the input alone.
    /// An away stream belongs to no cohort; a landed one joins its cohort
    /// in the round's resume pass, or at once when `settle` lands it.
    away: bool,
    /// The panic a parked adaptation raised, re-raised when it lands.
    adapt_panic: Option<Panic>,
    queue: RingQueue,
    /// Index into the shard's arch groups once the stream joined one.
    group: Option<usize>,
    /// Whether batching eligibility has been decided (checked once, at
    /// the warm-up transition — models materialize their networks there).
    eligibility_checked: bool,
    /// What the current round does with this stream (set by the cohort
    /// phase).
    work: Work,
    /// This stream's output of the current round.
    out: Option<StepOutput>,
}

impl StreamSlot {
    /// The detector of a stream that is home.
    fn det(&self) -> &Detector {
        self.det.as_deref().expect("the stream's detector is home")
    }

    /// The detector of stream `id` between rounds: panics if the stream
    /// is away on its adaptation.
    fn home_det(&self, id: usize) -> &Detector {
        assert!(!self.away, "stream {id} is away on its adaptation; settle the fleet first");
        self.det()
    }

    /// Whether the stream resumes this round with its adaptation back and
    /// not yet landed.
    fn parked_resume(&self) -> bool {
        self.work == Work::Resume && self.away && self.det.is_some()
    }
}

/// A unit of pooled work, moved by value to whichever thread claims it
/// and back.
enum Job {
    /// One shard's cohort phase (fleets of two or more shards).
    Cohorts(Box<Shard>),
    /// One grouped stream's [`Work::Finish`]: its scoring half. A drift
    /// sends the detector on to its adaptation ([`Job::Adapt`], the job's
    /// follow-up), so `det` comes back `None`.
    Score {
        shard: usize,
        slot: usize,
        det: Option<Box<Detector>>,
        /// The stream's batched output, moved out of the shard's
        /// `out_bufs` and back.
        output: ModelOutput,
        out: Option<StepOutput>,
    },
    /// One drifted stream's adaptation, on the pool's background lane.
    Adapt { shard: usize, slot: usize, det: Box<Detector> },
}

impl pool::Job for Job {
    fn run(&mut self) -> Option<Job> {
        match self {
            Job::Cohorts(shard) => shard.cohort_phase(),
            Job::Score { shard, slot, det, output, out } => {
                let scored = det.as_deref_mut().expect("a scoring job holds its detector");
                *out = Some(scored.score_step(output));
                if scored.owes_adaptation() {
                    let (shard, slot) = (*shard, *slot);
                    return det.take().map(|det| Job::Adapt { shard, slot, det });
                }
            }
            Job::Adapt { det, .. } => det.adapt(),
        }
        None
    }
}

/// One arch group: streams sharing a batchable architecture, partitioned
/// into weight-identical cohorts.
struct ArchGroup {
    arch: ArchKey,
    serving: Serving,
    /// The group's members that are home, as cohorts. A member away on
    /// its adaptation belongs to none.
    cohorts: Vec<Cohort>,
    /// Emptied cohorts, kept so that founding one reuses a record rather
    /// than allocating: its members' buffer and, in f32, its snapshot.
    emptied: Vec<Cohort>,
    /// Whether a member joined or retired since the last cohort phase,
    /// which counts one [`FleetStats::cohort_rebuilds`].
    changed: bool,
    /// Round scratch: the slots of the cohort being served.
    rows: Vec<usize>,
}

/// Group members whose models are bitwise-identical in every parameter
/// `predict` reads (`sad_models::infer_state_equal`).
struct Cohort {
    /// Member slot indices, in join order; a joining stream is compared
    /// with the first.
    members: Vec<usize>,
    /// In an f32 group, the f32 copy of the members' weights and scaler,
    /// converted from the founder's when the cohort was founded.
    snapshot: Option<InferSnapshot<f32>>,
}

impl ArchGroup {
    /// Joins home stream `slot` to the cohort whose first member's model
    /// equals its own, or founds a cohort for it, converting the cohort's
    /// snapshot in an f32 group. Returns the snapshots converted.
    ///
    /// A founding reuses an emptied cohort's record when there is one,
    /// re-syncing its snapshot in place, so a join allocates only when
    /// its group has more cohorts than ever before or a cohort outgrows
    /// its members' buffer.
    fn join(&mut self, slot: usize, slots: &[Option<StreamSlot>]) -> usize {
        let live = |slot: usize| slots[slot].as_ref().expect("group members are live");
        let model = |slot: usize| live(slot).det().model();
        let joining = model(slot);
        let f32_infer = matches!(self.serving, Serving::F32(_));
        self.changed = true;
        let equal = |cohort: &&mut Cohort| infer_state_equal(joining, model(cohort.members[0]));
        let (rows, converted) = match self.cohorts.iter_mut().find(equal) {
            Some(cohort) => {
                cohort.members.push(slot);
                (cohort.members.len(), 0)
            }
            None => {
                let view = infer_view(joining).expect("grouped models are batchable");
                let cohort = match self.emptied.pop() {
                    Some(mut cohort) => {
                        cohort.members.push(slot);
                        if let Some(snapshot) = &mut cohort.snapshot {
                            snapshot.resync(view);
                        }
                        cohort
                    }
                    None => Cohort {
                        members: vec![slot],
                        snapshot: f32_infer.then(|| InferSnapshot::new(view)),
                    },
                };
                self.cohorts.push(cohort);
                (1, usize::from(f32_infer))
            }
        };
        // Dynamic admission can grow a shard past the rows the workspace
        // was sized for; grow it here (a join, never per step).
        if rows > self.serving.capacity() {
            self.serving = Serving::new(joining, rows.max(slots.len()), f32_infer)
                .expect("grouped arch stays batchable");
        }
        converted
    }

    /// Removes `slot` from its cohort; a cohort left empty goes to
    /// [`Self::emptied`]. Leaves commute, so the cohorts do not depend on
    /// their order.
    fn leave(&mut self, slot: usize) {
        let c = self
            .cohorts
            .iter()
            .position(|cohort| cohort.members.contains(&slot))
            .expect("a home group member is in a cohort");
        let members = &mut self.cohorts[c].members;
        members.retain(|&member| member != slot);
        if members.is_empty() {
            self.emptied.push(self.cohorts.remove(c));
        }
    }
}

/// An arch group's one batch workspace, in the precision the group
/// serves. The workspace holds no parameters, so it serves every cohort
/// of the group in turn against that cohort's inference view: in f64 the
/// live parameters of its first member, in f32 its snapshot.
enum Serving {
    F64(InferBatch),
    F32(InferBatch<f32>),
}

impl Serving {
    /// A workspace for `model`'s architecture with room for `capacity`
    /// rows, or `None` when the model is not batchable.
    fn new(model: &dyn StreamModel, capacity: usize, f32_infer: bool) -> Option<Self> {
        Some(if f32_infer {
            Serving::F32(InferBatch::new(model, capacity)?)
        } else {
            Serving::F64(InferBatch::new(model, capacity)?)
        })
    }

    fn capacity(&self) -> usize {
        match self {
            Serving::F64(batch) => batch.capacity(),
            Serving::F32(batch) => batch.capacity(),
        }
    }
}

/// Serves one cohort through `batch` against `view`: packs the feature
/// window of every stream in `rows` (slot indices), runs the shared
/// forward pass, and scatters each row's model output into its slot's
/// buffer.
fn serve_cohort<T: Scalar>(
    batch: &mut InferBatch<T>,
    view: InferView<'_, T>,
    rows: &[usize],
    slots: &[Option<StreamSlot>],
    out_bufs: &mut [ModelOutput],
) {
    batch.begin(rows.len());
    for (row, &slot) in rows.iter().enumerate() {
        let stream = slots[slot].as_ref().expect("cohort members are live");
        batch.pack(view, row, stream.det().feature());
    }
    batch.forward(view);
    for (row, &slot) in rows.iter().enumerate() {
        batch.emit_into(view, row, &mut out_bufs[slot]);
    }
}

/// One shard: a disjoint subset of streams plus their batching state.
/// All per-round buffers are reused; the steady-state drain loop performs
/// zero heap allocations (`fleet/tests/zero_alloc.rs`).
///
/// A slot is `None` when its stream has been retired
/// ([`DetectorFleet::retire`]); vacant slots are reused by later
/// admissions so slot indices stay stable for the group membership lists.
struct Shard {
    /// Position in the fleet's shard list.
    index: usize,
    slots: Vec<Option<StreamSlot>>,
    /// Occupied slots.
    live: usize,
    /// Per-slot model-output buffer (sibling of `slots` so the batched
    /// path can borrow a slot's detector and its output buffer at once).
    out_bufs: Vec<ModelOutput>,
    groups: Vec<ArchGroup>,
    batching: bool,
    f32_infer: bool,
    /// Gates the timed/shape telemetry (see [`FleetConfig::telemetry`]).
    telemetry: bool,
    /// This shard's serving counters; `steps` stays 0 here and is derived
    /// by [`DetectorFleet::stats`].
    stats: FleetStats,
    /// Steps this shard served in the current round.
    round_steps: usize,
    /// Deepest per-stream input queue seen at a round start.
    queue_high_water: f64,
    /// Rows amortized per shared forward pass.
    batch_rows: Histogram,
    /// Latency of rounds that served at least one step.
    round_seconds: Histogram,
}

impl Shard {
    fn new(index: usize, batching: bool, f32_infer: bool, telemetry: bool) -> Self {
        Self {
            index,
            slots: Vec::new(),
            live: 0,
            out_bufs: Vec::new(),
            groups: Vec::new(),
            batching,
            f32_infer,
            telemetry,
            stats: FleetStats::default(),
            round_steps: 0,
            queue_high_water: 0.0,
            batch_rows: Histogram::log2(1.0, 4096.0),
            round_seconds: Histogram::log2(1e-6, 16.0),
        }
    }

    fn slot(&self, slot: usize) -> &StreamSlot {
        self.slots[slot].as_ref().expect("addressed slot is live")
    }

    fn slot_mut(&mut self, slot: usize) -> &mut StreamSlot {
        self.slots[slot].as_mut().expect("addressed slot is live")
    }

    /// Installs a stream into the first vacant slot, appending one when
    /// none is vacant. Returns the slot index.
    fn install(&mut self, det: Detector, queue_capacity: usize) -> usize {
        let channels = det.config().channels;
        let slot = StreamSlot {
            det: Some(Box::new(det)),
            away: false,
            adapt_panic: None,
            queue: RingQueue::new(channels, queue_capacity),
            group: None,
            eligibility_checked: false,
            work: Work::Idle,
            out: None,
        };
        self.live += 1;
        if let Some(vacant) = self.slots.iter().position(Option::is_none) {
            // The vacated output buffer is kept — the first batched emit
            // right-sizes it for the new stream's model.
            self.slots[vacant] = Some(slot);
            return vacant;
        }
        self.slots.push(Some(slot));
        // Placeholder variant; the first batched emit replaces it with a
        // right-sized buffer that is then reused forever.
        self.out_bufs.push(ModelOutput::Score(0.0));
        self.slots.len() - 1
    }

    /// Removes `slot` from the shard: drops the detector and any queued
    /// backlog, and leaves its cohort. The stream must be home.
    fn vacate(&mut self, slot: usize) {
        let stream = self.slots[slot].take().expect("retire of a live stream");
        debug_assert!(!stream.away, "a retiring stream is settled first");
        self.live -= 1;
        if let Some(gi) = stream.group {
            let group = &mut self.groups[gi];
            group.leave(slot);
            group.changed = true;
        }
        self.stats.retired += 1;
    }

    /// Joins `slot` to the arch group matching its model, creating the
    /// group on first sight of the architecture, and to its cohort there.
    /// A new group's batch capacity is the shard's stream count — the
    /// widest batch a round can need.
    fn join_group(&mut self, slot: usize) {
        let det = self.slot(slot).det();
        let Some(arch) = batch_arch_key(det.model()) else { return };
        let gi = match self.groups.iter().position(|g| g.arch == arch) {
            Some(gi) => gi,
            None => {
                let capacity = self.slots.len();
                let Some(serving) = Serving::new(det.model(), capacity, self.f32_infer) else {
                    return;
                };
                self.groups.push(ArchGroup {
                    arch,
                    serving,
                    cohorts: Vec::new(),
                    emptied: Vec::new(),
                    changed: false,
                    rows: Vec::new(),
                });
                self.groups.len() - 1
            }
        };
        self.slot_mut(slot).group = Some(gi);
        self.join(slot);
    }

    /// Joins grouped home stream `slot` to its cohort ([`ArchGroup::join`]).
    fn join(&mut self, slot: usize) {
        let gi = self.slot(slot).group.expect("a joining stream is grouped");
        self.stats.f32_resyncs += self.groups[gi].join(slot, &self.slots);
    }

    /// Round phase 1: decides each stream's [`Work`], counts the groups
    /// whose cohorts changed since the last cohort phase, and serves every
    /// cohort's members with input ([`Self::serve_cohorts`]): each begins
    /// its step, and its cohort's shared forward pass leaves its output for
    /// the pooled `score_step`.
    fn cohort_phase(&mut self) {
        self.round_steps = 0;
        for slot in self.slots.iter_mut().flatten() {
            if self.telemetry {
                self.queue_high_water = self.queue_high_water.max(slot.queue.len() as f64);
            }
            slot.out = None;
            // A grouped stream with input that is home becomes `Finish`
            // below.
            slot.work = match (slot.queue.len() > 0, slot.away, slot.group) {
                (false, _, _) => Work::Idle,
                (true, true, _) => Work::Resume,
                (true, false, None) => Work::Step,
                (true, false, Some(_)) => Work::Idle,
            };
        }
        for group in self.groups.iter_mut().filter(|group| group.changed) {
            group.changed = false;
            self.stats.cohort_rebuilds += 1;
        }
        // Every cohort member is home and past warm-up, so a begin yields
        // a feature vector unless the vector held a NaN or ±∞, which the
        // detector drops and counts: that stream stays idle this round.
        self.serve_cohorts(|stream| {
            let Some(s) = stream.queue.front() else { return false };
            let ready = stream.det.as_deref_mut().expect("cohort members are home").begin_step(s);
            stream.queue.pop_front();
            if ready {
                stream.work = Work::Finish;
            }
            ready
        });
    }

    /// Serves, cohort by cohort, the members `ready` picks: one shared
    /// forward pass per cohort at the group's precision, leaving each
    /// row's output in its slot's `out_bufs` entry for the pooled
    /// `score_step`. The cohort phase and the resume pass both serve
    /// through it.
    fn serve_cohorts(&mut self, mut ready: impl FnMut(&mut StreamSlot) -> bool) {
        let Shard { slots, out_bufs, groups, telemetry, stats, round_steps, batch_rows, .. } = self;
        for ArchGroup { serving, cohorts, rows, .. } in groups.iter_mut() {
            for Cohort { members, snapshot } in cohorts.iter() {
                rows.clear();
                for &slot in members {
                    if ready(slots[slot].as_mut().expect("cohort members are live")) {
                        rows.push(slot);
                    }
                }
                if rows.is_empty() {
                    continue;
                }
                match serving {
                    Serving::F64(batch) => {
                        let first = slots[members[0]].as_ref().expect("cohort members are live");
                        let view =
                            infer_view(first.det().model()).expect("grouped models are batchable");
                        serve_cohort(batch, view, rows, slots, out_bufs);
                    }
                    Serving::F32(batch) => {
                        let snapshot = snapshot.as_ref().expect("an f32 cohort holds its snapshot");
                        serve_cohort(batch, snapshot.view(), rows, slots, out_bufs);
                        stats.f32_rows += rows.len();
                    }
                }
                stats.batched_rows += rows.len();
                stats.batches += 1;
                *round_steps += rows.len();
                if *telemetry {
                    batch_rows.record(rows.len() as f64);
                }
            }
        }
    }

    /// Runs the caller's ungrouped steps. A vector holding a NaN or ±∞ is
    /// dropped by the detector without a step (its time does not advance),
    /// so its stream goes back to [`Work::Idle`] and the round does not
    /// count it.
    fn step_ungrouped(&mut self) {
        for slot in self.slots.iter_mut().flatten().filter(|slot| slot.work == Work::Step) {
            let det = slot.det.as_deref_mut().expect("a stepping stream is home");
            let s = slot.queue.front().expect("a stepping stream has input");
            let t = det.time();
            slot.out = det.step(s);
            slot.queue.pop_front();
            if det.time() == t {
                slot.work = Work::Idle;
            }
        }
    }

    /// Whether this round has work for the caller before it claims: a
    /// resumed stream, or an ungrouped step.
    fn has_caller_work(&self) -> bool {
        self.slots.iter().flatten().any(|slot| matches!(slot.work, Work::Step | Work::Resume))
    }

    /// Moves the detectors of this shard's streams whose round `work` is
    /// at the scoring step, with their batched outputs, out into scoring
    /// jobs, in slot order; their work becomes [`Work::Finish`].
    fn score_jobs(&mut self, work: Work) -> impl Iterator<Item = Job> + '_ {
        let shard = self.index;
        let Shard { slots, out_bufs, .. } = self;
        let streams = slots.iter_mut().zip(out_bufs.iter_mut()).enumerate();
        streams.filter_map(move |(slot, (entry, buf))| {
            let stream = entry.as_mut().filter(|stream| stream.work == work)?;
            stream.work = Work::Finish;
            let det = stream.det.take();
            debug_assert!(det.is_some(), "a stream at its scoring step is home");
            let output = std::mem::replace(buf, ModelOutput::Score(0.0));
            Some(Job::Score { shard, slot, det, output, out: None })
        })
    }

    /// Puts a stream's batched output, step output and detector back from
    /// its scoring job. A job that comes back without its detector sent it
    /// on to its adaptation: the stream is away from now on, and leaves
    /// its cohort.
    fn land_score(
        &mut self,
        slot: usize,
        det: Option<Box<Detector>>,
        output: ModelOutput,
        out: Option<StepOutput>,
    ) {
        self.out_bufs[slot] = output;
        let stream = self.slot_mut(slot);
        stream.out = out;
        match det {
            Some(det) => stream.det = Some(det),
            // The adaptation may even be back already, parked in `det`.
            None => {
                stream.away = true;
                let gi = stream.group.expect("a scored stream is grouped");
                self.groups[gi].leave(slot);
            }
        }
    }

    /// Parks a detector back from its adaptation in its slot, with the
    /// panic the adaptation raised. The stream stays away until it lands.
    /// (An adaptation that follows a scoring job of the current round may
    /// park before that job lands.)
    fn park(&mut self, slot: usize, det: Box<Detector>, panic: Option<Panic>) {
        let stream = self.slot_mut(slot);
        debug_assert!(stream.det.is_none(), "only a detector that is out parks");
        stream.det = Some(det);
        stream.adapt_panic = panic;
    }

    /// Lands a parked stream: runs its adaptation on the caller if it came
    /// back unrun (a round stopped by a panic lands its jobs unrun). The
    /// stream is home, in no cohort until it joins. Returns the panic its
    /// adaptation raised.
    fn land(&mut self, slot: usize) -> Option<Panic> {
        let stream = self.slot_mut(slot);
        let det = stream.det.as_deref_mut().expect("a landing stream is parked");
        let panic = stream.adapt_panic.take().or_else(|| {
            let unrun = det.owes_adaptation();
            unrun.then(|| catch_unwind(AssertUnwindSafe(|| det.adapt())).err()).flatten()
        });
        stream.away = false;
        panic
    }

    /// Resumes a parked stream with input this round: lands it and begins
    /// its step ([`Work::Resumed`]), which the resume pass completes.
    /// Returns a panic of the adaptation or the begin.
    fn land_resume(&mut self, slot: usize) -> Option<Panic> {
        if let Some(panic) = self.land(slot) {
            return Some(panic);
        }
        let stream = self.slot_mut(slot);
        let (Some(det), Some(s)) = (stream.det.as_deref_mut(), stream.queue.front()) else {
            unreachable!("a resumed stream is home, with input");
        };
        let ready = catch_unwind(AssertUnwindSafe(|| det.begin_step(s)));
        stream.queue.pop_front();
        if matches!(ready, Ok(true)) {
            stream.work = Work::Resumed;
        }
        ready.err()
    }

    /// The resume pass's joins: every stream this round landed joins its
    /// cohort, in slot order.
    fn join_landed(&mut self) {
        for slot in 0..self.slots.len() {
            let landed = self.slots[slot].as_ref().is_some_and(|stream| {
                !stream.away && matches!(stream.work, Work::Resume | Work::Resumed)
            });
            if landed {
                self.join(slot);
            }
        }
    }

    /// Whether a resumed stream's adaptation is still out: queued, or run
    /// by a helper.
    fn awaiting(&self) -> bool {
        self.slots.iter().flatten().any(|slot| slot.work == Work::Resume && slot.det.is_none())
    }

    /// Whether any adaptation of this shard's streams is still out.
    fn adapting(&self) -> bool {
        self.slots.iter().flatten().any(|slot| slot.away && slot.det.is_none())
    }

    /// Round phase 4, in slot order: counts scalar steps and decides
    /// batching eligibility at the warm-up transition (models materialize
    /// their networks at the warm-up fit).
    fn bookkeeping(&mut self) {
        for i in 0..self.slots.len() {
            let Some(slot) = self.slots[i].as_mut() else { continue };
            if slot.work != Work::Step {
                continue;
            }
            self.stats.scalar_steps += 1;
            self.round_steps += 1;
            if self.batching && !slot.eligibility_checked && slot.det().is_warmed_up() {
                slot.eligibility_checked = true;
                self.join_group(i);
            }
        }
    }

    /// Streams on this shard with at least one queued vector.
    fn pending(&self) -> usize {
        self.slots.iter().flatten().filter(|s| s.queue.len() > 0).count()
    }
}

/// Hands a job back to its shard, keeping the round's first panic in
/// `panic`: a scoring job lands (and its stream is away if it drifted);
/// an adaptation parks, and its stream lands and begins at once if the
/// round has input for it and no panic so far.
fn land_job(
    shards: &mut [Box<Shard>],
    panic: &mut Option<Panic>,
    job: Job,
    raised: Option<Panic>,
) {
    match job {
        Job::Score { shard, slot, det, output, out } => {
            shards[shard].land_score(slot, det, output, out);
            *panic = panic.take().or(raised);
        }
        Job::Adapt { shard, slot, det } => {
            let shard = &mut shards[shard];
            shard.park(slot, det, raised);
            if panic.is_none() && shard.slot(slot).work == Work::Resume {
                *panic = shard.land_resume(slot);
            }
        }
        Job::Cohorts(_) => unreachable!("the stream phase queues streams only"),
    }
}

/// Parks an adaptation back in its shard (see [`Shard::park`]).
fn park_job(shards: &mut [Box<Shard>], job: Job, raised: Option<Panic>) {
    match job {
        Job::Adapt { shard, slot, det } => shards[shard].park(slot, det, raised),
        Job::Cohorts(_) | Job::Score { .. } => unreachable!("only adaptations run between rounds"),
    }
}

/// A sharded multi-stream detector fleet. See the crate docs for the
/// batching and sharding model.
///
/// Streams can be fixed at construction ([`DetectorFleet::new`]) or come
/// and go dynamically ([`DetectorFleet::admit`] / [`DetectorFleet::retire`]
/// on a fleet started with [`DetectorFleet::open`]). A stream id is the
/// address of its slot, and the next admission into a retired stream's
/// slot reuses its id: [`Self::len`] counts installs, and
/// [`Self::drain_round`] fills one output per slot, not per id issued.
pub struct DetectorFleet {
    #[expect(
        clippy::vec_box,
        reason = "a round moves shards into pool jobs; boxed, a shard job is as small as a \
                  stream job, and the pool's queues hold one job per slot"
    )]
    shards: Vec<Box<Shard>>,
    config: FleetConfig,
    pool: Pool<Job>,
}

impl DetectorFleet {
    /// Builds a fleet over `detectors` (stream `i` = `detectors[i]`,
    /// assigned to shard `i % config.shards`).
    ///
    /// # Panics
    /// Panics on an empty detector list or a zero shard count /
    /// queue capacity.
    pub fn new(detectors: Vec<Detector>, config: FleetConfig) -> Self {
        assert!(!detectors.is_empty(), "a fleet needs at least one stream");
        let n_shards = config.shards.min(detectors.len());
        let mut fleet = Self::open(FleetConfig { shards: n_shards, ..config });
        for det in detectors {
            fleet.install(det);
        }
        fleet
    }

    /// Opens an *empty* fleet with exactly `config.shards` shards, ready
    /// for dynamic admission — the serving-engine entry point, where
    /// entities appear on first contact rather than at construction.
    ///
    /// Spawns the fleet's worker pool: `available_parallelism() − 1`
    /// helper threads named `sad-fleet-<i>`, joined when the fleet drops.
    /// A failed spawn is not an error; the fleet runs with the helpers it
    /// got, or inline with none.
    ///
    /// # Panics
    /// Panics on a zero shard count / queue capacity.
    pub fn open(config: FleetConfig) -> Self {
        let helpers = std::thread::available_parallelism().map_or(1, usize::from) - 1;
        Self::with_pool(config, helpers, |i| {
            std::thread::Builder::new().name(format!("sad-fleet-{i}"))
        })
    }

    /// [`Self::open`] with `helpers` pool threads, each spawned from
    /// `builder(i)`.
    fn with_pool(
        config: FleetConfig,
        helpers: usize,
        builder: impl Fn(usize) -> std::thread::Builder,
    ) -> Self {
        assert!(config.shards > 0, "shard count must be positive");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        let shards: Vec<Box<Shard>> = (0..config.shards)
            .map(|i| {
                let f32_infer = config.batching && config.f32_infer;
                Box::new(Shard::new(i, config.batching, f32_infer, config.telemetry))
            })
            .collect();
        Self { shards, config, pool: Pool::new(helpers, builder) }
    }

    /// Admits a new stream and returns its id, which a retired stream may
    /// have held before.
    pub fn admit(&mut self, det: Detector) -> usize {
        let id = self.install(det);
        let n = self.shards.len();
        self.shards[id % n].stats.admitted += 1;
        id
    }

    /// Installs `det` in the first vacant slot of the shard with the fewest
    /// live streams (lowest index on ties) and returns the slot's address.
    fn install(&mut self, det: Detector) -> usize {
        let n = self.shards.len();
        let shard = (0..n)
            .min_by_key(|&i| (self.shards[i].live, i))
            .expect("a fleet has at least one shard");
        let slot = self.shards[shard].install(det, self.config.queue_capacity);
        // One job per slot, plus one per shard: a round's dispatch never
        // grows the pool's queues.
        let slots: usize = self.shards.iter().map(|s| s.slots.len()).sum();
        self.pool.reserve(slots + n);
        slot * n + shard
    }

    /// Retires `stream`: its detector (and any queued backlog) is dropped
    /// and its slot, with its id, is free for a later [`Self::admit`]. A
    /// stream away on its adaptation is settled first ([`Self::settle`]).
    ///
    /// # Panics
    /// Panics if `stream` is not live.
    pub fn retire(&mut self, stream: usize) {
        let (shard, slot) = self.live_addr(stream);
        if self.shards[shard].slot(slot).away {
            self.settle();
        }
        self.shards[shard].vacate(slot);
    }

    /// Whether a live stream holds id `stream`.
    pub fn is_live(&self, stream: usize) -> bool {
        let n = self.shards.len();
        self.shards[stream % n].slots.get(stream / n).is_some_and(Option::is_some)
    }

    /// Number of live streams, kept per shard at install and retirement.
    pub fn live(&self) -> usize {
        self.shards.iter().map(|s| s.live).sum()
    }

    /// Number of streams ever installed (live + retired), not of ids.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.live + s.stats.retired).sum()
    }

    /// Whether the fleet has never had a stream.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued (not yet served) vectors for `stream`.
    ///
    /// # Panics
    /// Panics if `stream` is not live.
    pub fn queued(&self, stream: usize) -> usize {
        let (shard, slot) = self.live_addr(stream);
        self.shards[shard].slot(slot).queue.len()
    }

    fn live_addr(&self, stream: usize) -> (usize, usize) {
        assert!(self.is_live(stream), "stream {stream} is retired or was never admitted");
        (stream % self.shards.len(), stream / self.shards.len())
    }

    /// Enqueues one stream vector for `stream`; `false` when that
    /// stream's queue is full (drain first).
    ///
    /// # Panics
    /// Panics if `stream` is not live or `s` has the wrong channel count.
    pub fn enqueue(&mut self, stream: usize, s: &[f64]) -> bool {
        let (shard, slot) = self.live_addr(stream);
        self.shards[shard].slot_mut(slot).queue.push(s)
    }

    /// Enqueues one stream vector under a back-pressure `policy`: like
    /// [`Self::enqueue`], but a full queue is resolved per policy (refuse /
    /// drop the incoming vector / evict the oldest queued one) and the
    /// outcome is counted in the owning shard's [`FleetStats`]
    /// (`sad_fleet_bp_*_total`). Zero-alloc — safe on the ingest hot path.
    ///
    /// # Panics
    /// Panics if `stream` is not live or `s` has the wrong channel count.
    pub fn offer(&mut self, stream: usize, s: &[f64], policy: BackpressurePolicy) -> OfferOutcome {
        let (shard, slot) = self.live_addr(stream);
        let sh = &mut self.shards[shard];
        let queue = &mut sh.slots[slot].as_mut().expect("addressed slot is live").queue;
        if queue.push(s) {
            return OfferOutcome::Enqueued;
        }
        match policy {
            BackpressurePolicy::Block => {
                sh.stats.bp_blocked += 1;
                OfferOutcome::WouldBlock
            }
            BackpressurePolicy::DropNewest => {
                sh.stats.bp_dropped_newest += 1;
                OfferOutcome::DroppedNewest
            }
            BackpressurePolicy::DropOldest => {
                queue.pop_front();
                let accepted = queue.push(s);
                debug_assert!(accepted, "eviction frees exactly one slot");
                sh.stats.bp_dropped_oldest += 1;
                OfferOutcome::DroppedOldest
            }
        }
    }

    /// Streams with at least one queued vector: the number of vectors the
    /// next [`Self::drain_round`] consumes.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.pending()).sum()
    }

    /// Drains one round: every stream with queued input advances exactly
    /// one step. `out` is resized to span the slot table, `shards ×` the
    /// longest shard (up to `shards − 1` of its ids address no slot);
    /// `out[i]` is `Some` iff stream `i` consumed a vector *and* is past
    /// warm-up *and* the vector was finite — exactly `Detector::step`'s
    /// contract, under which a vector holding a NaN or ±∞ is dropped and
    /// counted by its detector, not stepped. The serving engine rejects
    /// such frames before they reach the fleet. Returns the vectors
    /// consumed.
    ///
    /// The round runs on the caller and the fleet's helper threads (crate
    /// docs, "Sharding and the worker pool"), and returns once every
    /// verdict is out: the adaptation (fine-tune and drift re-anchor) that
    /// a grouped stream's drift owes is left running in the background,
    /// and the next round with input for that stream finishes it before
    /// the stream steps again. Until then the stream is away: its queue
    /// takes input, but [`Self::detector`] and [`Self::export_metrics`]
    /// need [`Self::settle`] first.
    ///
    /// # Panics
    /// Re-raises, on the caller, the first panic of any step or adaptation
    /// of the round, whichever thread ran it, once every job of the round
    /// is back and every adaptation in flight has landed
    /// ([`Self::settle`]): every stream is home again, though the one that
    /// panicked may be left mid-step.
    pub fn drain_round(&mut self, out: &mut Vec<Option<StepOutput>>) -> usize {
        let consumed = self.pending();
        let started = self.config.telemetry.then(std::time::Instant::now);

        // Phase 1: cohorts. With two or more shards, one pool job each.
        if self.shards.len() == 1 {
            for shard in &mut self.shards {
                shard.cohort_phase();
            }
        } else {
            let mut shards = std::mem::take(&mut self.shards);
            self.pool.dispatch(shards.drain(..).map(Job::Cohorts), false);
            let mut panic = None;
            self.pool.complete(false, |job, raised| {
                panic = panic.take().or(raised);
                match job {
                    Job::Cohorts(shard) => shards.push(shard),
                    _ => unreachable!("the cohort phase queues shards only"),
                }
            });
            shards.sort_unstable_by_key(|shard| shard.index);
            self.shards = shards;
            self.raise(panic);
        }

        // Phase 2: streams. The adaptations of resumed streams that no
        // helper has claimed are recalled from the background lane to the
        // front of the round lane, and the scoring jobs of the streams
        // served in phase 1 go out behind them; adaptations the helpers
        // finished since the last round park in their slots. The caller
        // runs its ungrouped steps, lands and begins the parked resumed
        // streams, then claims round jobs beside the helpers, landing and
        // beginning each resumed stream as its adaptation comes back, and
        // last waits for the adaptations the helpers hold.
        let (shards, pool) = (&mut self.shards, &self.pool);
        pool.take_returned(|job, raised| park_job(shards, job, raised));
        pool.recall(|job| match job {
            Job::Adapt { shard, slot, .. } => shards[*shard].slot(*slot).work == Work::Resume,
            _ => false,
        });
        let caller_busy = shards.iter().any(|shard| shard.has_caller_work());
        let scoring = shards.iter_mut().flat_map(|shard| shard.score_jobs(Work::Finish));
        pool.dispatch(scoring, caller_busy);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            for shard in shards.iter_mut() {
                shard.step_ungrouped();
            }
        }));
        let mut panic = caught.err();
        for shard in shards.iter_mut() {
            for slot in 0..shard.slots.len() {
                let parked = shard.slots[slot].as_ref().is_some_and(StreamSlot::parked_resume);
                if panic.is_none() && parked {
                    panic = shard.land_resume(slot);
                }
            }
        }
        let stop = panic.is_some();
        pool.complete(stop, |job, raised| land_job(shards, &mut panic, job, raised));
        while panic.is_none() && shards.iter().any(|shard| shard.awaiting()) {
            pool.wait_back(|job, raised| land_job(shards, &mut panic, job, raised));
        }

        // Phase 3: the resume pass. Every scoring job is back, so every
        // grouped stream that is not away is home. The streams the round
        // landed join their cohorts in slot order (after a panic too, so
        // that every home stream is in its cohort when it is raised); the
        // resumed ones are served through the cohort loop of phase 1 and
        // scored in a second round of the pool.
        for shard in shards.iter_mut() {
            shard.join_landed();
        }
        if panic.is_none() {
            for shard in shards.iter_mut() {
                shard.serve_cohorts(|stream| stream.work == Work::Resumed);
            }
            let scoring = shards.iter_mut().flat_map(|shard| shard.score_jobs(Work::Resumed));
            pool.dispatch(scoring, false);
            pool.complete(false, |job, raised| land_job(shards, &mut panic, job, raised));
        }
        self.raise(panic);

        // Phase 4: bookkeeping.
        for shard in &mut self.shards {
            shard.bookkeeping();
        }
        // Round latency covers rounds that actually served a step — an
        // idle drain would otherwise drag the percentiles toward zero.
        if let Some(started) = started {
            let seconds = started.elapsed().as_secs_f64();
            for shard in self.shards.iter_mut().filter(|shard| shard.round_steps > 0) {
                shard.round_seconds.record(seconds);
            }
        }

        // Scatter shard-local outputs back into stream-id order.
        let n = self.shards.len();
        let longest = self.shards.iter().map(|s| s.slots.len()).max().unwrap_or(0);
        out.clear();
        out.resize(n * longest, None);
        for (s, shard) in self.shards.iter().enumerate() {
            for (k, slot) in shard.slots.iter().enumerate() {
                out[k * n + s] = slot.as_ref().and_then(|slot| slot.out);
            }
        }
        consumed
    }

    /// Waits for every adaptation in flight and lands it: the helpers
    /// finish the ones they hold, and the caller runs the ones no helper
    /// has claimed (with the helpers, if they are free). Afterwards every
    /// stream is home, so [`Self::detector`] and [`Self::export_metrics`]
    /// see every detector. [`Self::run`], [`Self::retire`] of an away
    /// stream and the serving engine's `finish` call it. Each landed
    /// stream joins its cohort, in slot order.
    ///
    /// # Panics
    /// Re-raises, once every stream is home, the first panic an adaptation
    /// raised.
    pub fn settle(&mut self) {
        let panic = self.settle_caught();
        if let Some(panic) = panic {
            resume_unwind(panic);
        }
    }

    /// [`Self::settle`], returning the first panic instead of raising it.
    fn settle_caught(&mut self) -> Option<Panic> {
        let (shards, pool) = (&mut self.shards, &self.pool);
        loop {
            pool.take_returned(|job, raised| park_job(shards, job, raised));
            pool.recall(|_| true);
            pool.dispatch(std::iter::empty(), false);
            pool.complete(false, |job, raised| park_job(shards, job, raised));
            if !shards.iter().any(|shard| shard.adapting()) {
                break;
            }
            pool.wait_back(|job, raised| park_job(shards, job, raised));
        }
        let mut panic = None;
        for shard in shards.iter_mut() {
            for slot in 0..shard.slots.len() {
                if shard.slots[slot].as_ref().is_some_and(|stream| stream.away) {
                    let raised = shard.land(slot);
                    panic = panic.or(raised);
                    shard.join(slot);
                }
            }
        }
        panic
    }

    /// Re-raises a panic a round caught, once every adaptation in flight
    /// has landed.
    fn raise(&mut self, panic: Option<Panic>) {
        if let Some(panic) = panic {
            let _ = self.settle_caught();
            resume_unwind(panic);
        }
    }

    /// Helper threads in the fleet's worker pool; 0 when rounds run
    /// inline on the caller.
    pub fn helpers(&self) -> usize {
        self.pool.helpers()
    }

    /// Jobs the pool's helper threads have run: a diagnostic of how much
    /// of the serving work left the calling thread. It depends on thread
    /// scheduling, so it is no serving counter and is not exported.
    pub fn helper_jobs(&self) -> usize {
        self.pool.helper_jobs()
    }

    /// Convenience driver: streams `series[i]` into stream `i` and
    /// returns each stream's post-warm-up outputs — per stream, the exact
    /// trace of a standalone `Detector::run` over the same series. It
    /// settles the fleet at the end ([`Self::settle`]).
    pub fn run(&mut self, series: &[Vec<Vec<f64>>]) -> Vec<Vec<StepOutput>> {
        assert_eq!(series.len(), self.len(), "one series per stream");
        let n_streams = self.len();
        let mut traces: Vec<Vec<StepOutput>> = (0..n_streams).map(|_| Vec::new()).collect();
        let mut round_out: Vec<Option<StepOutput>> = Vec::new();
        let longest = series.iter().map(Vec::len).max().unwrap_or(0);
        let mut cursor = vec![0usize; n_streams];
        for _ in 0..longest {
            for (i, s) in series.iter().enumerate() {
                if cursor[i] < s.len() {
                    let accepted = self.enqueue(i, &s[cursor[i]]);
                    assert!(accepted, "queues cannot fill at one vector per round");
                    cursor[i] += 1;
                }
            }
            self.drain_round(&mut round_out);
            for (trace, o) in traces.iter_mut().zip(&round_out) {
                if let Some(o) = o {
                    trace.push(*o);
                }
            }
        }
        self.settle();
        traces
    }

    /// The detector serving `stream`.
    ///
    /// # Panics
    /// Panics if `stream` is not live, or is away on its adaptation (see
    /// [`Self::drain_round`]; [`Self::settle`] brings it home).
    pub fn detector(&self, stream: usize) -> &Detector {
        let (shard, slot) = self.live_addr(stream);
        self.shards[shard].slot(slot).home_det(stream)
    }

    /// Cumulative serving counters, summed over shards.
    pub fn stats(&self) -> FleetStats {
        let mut total = FleetStats::default();
        for shard in &self.shards {
            let s = &shard.stats;
            total.scalar_steps += s.scalar_steps;
            total.batched_rows += s.batched_rows;
            total.batches += s.batches;
            total.f32_rows += s.f32_rows;
            total.cohort_rebuilds += s.cohort_rebuilds;
            total.f32_resyncs += s.f32_resyncs;
            total.bp_blocked += s.bp_blocked;
            total.bp_dropped_newest += s.bp_dropped_newest;
            total.bp_dropped_oldest += s.bp_dropped_oldest;
            total.admitted += s.admitted;
            total.retired += s.retired;
        }
        total.steps = total.scalar_steps + total.batched_rows;
        total
    }

    /// Exports the fleet's metric registry: the serving counters of
    /// [`Self::stats`], the deepest queue seen on any shard, two
    /// fleet-shape gauges (`sad_fleet_streams`, `sad_fleet_shards`), the
    /// shards' batch-width and round-latency histograms merged
    /// bucket-wise, and the live detectors' lifecycle
    /// (`sad_core::register_lifecycle`; retired detectors are gone, their
    /// serving history stays in the counters). Allocates — export path
    /// only, never called from `drain_round`.
    ///
    /// # Panics
    /// Panics if a stream is away on its adaptation: call
    /// [`Self::settle`] first.
    pub fn export_metrics(&self) -> Registry {
        let stats = self.stats();
        let mut reg = Registry::new();
        for (name, help, value) in [
            ("sad_fleet_steps_total", "Detector steps served (all paths).", stats.steps),
            (
                "sad_fleet_scalar_steps_total",
                "Steps served through the scalar per-stream path.",
                stats.scalar_steps,
            ),
            (
                "sad_fleet_batched_rows_total",
                "Steps served through a shared batched forward pass.",
                stats.batched_rows,
            ),
            ("sad_fleet_batches_total", "Shared batched forward passes executed.", stats.batches),
            (
                "sad_fleet_f32_rows_total",
                "Batched rows served through an f32 weight snapshot.",
                stats.f32_rows,
            ),
            (
                "sad_fleet_cohort_rebuilds_total",
                "Cohort rebuilds triggered by training events.",
                stats.cohort_rebuilds,
            ),
            (
                "sad_fleet_f32_resyncs_total",
                "f32 weight-snapshot re-syncs performed by cohort rebuilds.",
                stats.f32_resyncs,
            ),
            (
                "sad_fleet_bp_blocked_total",
                "offer() refusals on a full queue under the block policy.",
                stats.bp_blocked,
            ),
            (
                "sad_fleet_bp_dropped_newest_total",
                "Incoming vectors discarded under the drop-newest policy.",
                stats.bp_dropped_newest,
            ),
            (
                "sad_fleet_bp_dropped_oldest_total",
                "Queued vectors evicted under the drop-oldest policy.",
                stats.bp_dropped_oldest,
            ),
            (
                "sad_fleet_admitted_total",
                "Streams admitted dynamically after fleet construction.",
                stats.admitted,
            ),
            ("sad_fleet_retired_total", "Streams retired from the fleet.", stats.retired),
        ] {
            reg.register_counter(name, help, value as u64);
        }
        reg.register_gauge(
            "sad_fleet_queue_high_water",
            "Deepest per-stream input queue observed at a round start.",
            self.shards.iter().map(|s| s.queue_high_water).fold(0.0, f64::max),
        );
        let live = self.live() as f64;
        reg.register_gauge("sad_fleet_streams", "Live streams served by this fleet.", live);
        reg.register_gauge("sad_fleet_shards", "Worker shards.", self.shards.len() as f64);
        let merged = |pick: fn(&Shard) -> &Histogram| {
            let mut total = pick(&self.shards[0]).clone();
            for shard in &self.shards[1..] {
                total.merge_from(pick(shard));
            }
            total
        };
        reg.register_histogram(
            "sad_fleet_batch_rows",
            "Rows amortized per shared forward pass.",
            merged(|s| &s.batch_rows),
        );
        reg.register_histogram(
            "sad_fleet_round_seconds",
            "Shard round latency (rounds that served at least one step).",
            merged(|s| &s.round_seconds),
        );
        let n = self.shards.len();
        let live = self.shards.iter().flat_map(|shard| {
            let slots = shard.slots.iter().enumerate();
            slots.filter_map(move |(k, slot)| Some(slot.as_ref()?.home_det(k * n + shard.index)))
        });
        sad_core::register_lifecycle(&mut reg, live);
        reg
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sad_core::{DetectorConfig, ScoreKind};
    use sad_models::{build_detector, BuildParams};

    fn series(len: usize, phase: f64) -> Vec<Vec<f64>> {
        (0..len)
            .map(|t| {
                let x = t as f64 * 0.07 + phase;
                vec![x.sin(), (x * 0.6).cos()]
            })
            .collect()
    }

    fn ae_detector(seed: u64) -> Detector {
        ae_tuned(seed, 1)
    }

    /// The AE/SW detector of [`ae_detector`] with `fine_tune_epochs`.
    fn ae_tuned(seed: u64, fine_tune_epochs: usize) -> Detector {
        let (spec, params) = ae_parts(seed, fine_tune_epochs);
        build_detector(spec, &params)
    }

    fn ae_parts(seed: u64, fine_tune_epochs: usize) -> (sad_core::AlgorithmSpec, BuildParams) {
        let config = DetectorConfig {
            window: 6,
            channels: 2,
            warmup: 60,
            initial_epochs: 2,
            fine_tune_epochs,
        };
        let spec = sad_core::paper_algorithms()
            .iter()
            .copied()
            .find(|s| s.label().contains("AE") && s.label().contains("SW"))
            .expect("AE/SW combination exists");
        let params =
            BuildParams::new(config).with_capacity(20).with_score(ScoreKind::Raw).with_seed(seed);
        (spec, params)
    }

    #[test]
    fn ring_queue_round_trips_in_order() {
        let mut q = RingQueue::new(2, 3);
        assert!(q.push(&[1.0, 2.0]));
        assert!(q.push(&[3.0, 4.0]));
        assert!(q.push(&[5.0, 6.0]));
        assert!(!q.push(&[7.0, 8.0]), "full queue rejects");
        assert_eq!(q.front().unwrap(), &[1.0, 2.0]);
        q.pop_front();
        assert!(q.push(&[7.0, 8.0]), "slot freed");
        assert_eq!(q.front().unwrap(), &[3.0, 4.0]);
        q.pop_front();
        q.pop_front();
        assert_eq!(q.front().unwrap(), &[7.0, 8.0]);
        q.pop_front();
        assert!(q.front().is_none());
    }

    #[test]
    fn fleet_runs_and_reports_batched_rows() {
        // Two identically-seeded AE streams on identical warm-up data stay
        // one cohort: their steps are served batched.
        let fleet_series = vec![series(140, 0.0), series(140, 0.0)];
        let mut fleet =
            DetectorFleet::new(vec![ae_detector(7), ae_detector(7)], FleetConfig::default());
        let traces = fleet.run(&fleet_series);
        assert_eq!(traces[0].len(), 80);
        assert_eq!(traces[1].len(), 80);
        let stats = fleet.stats();
        assert!(stats.batched_rows >= 140, "post-warm-up steps batch: {stats:?}");
        assert!(stats.batches <= stats.batched_rows / 2 + 2, "rows amortize: {stats:?}");
    }

    #[test]
    fn batching_disabled_serves_everything_scalar() {
        let fleet_series = vec![series(100, 0.0), series(100, 0.0)];
        let config = FleetConfig { batching: false, ..FleetConfig::default() };
        let mut fleet = DetectorFleet::new(vec![ae_detector(7), ae_detector(7)], config);
        let _ = fleet.run(&fleet_series);
        let stats = fleet.stats();
        assert_eq!(stats.batched_rows, 0);
        assert_eq!(stats.scalar_steps, 200);
    }

    #[test]
    fn enqueue_backpressure_reports_full_queue() {
        let config = FleetConfig { queue_capacity: 2, ..FleetConfig::default() };
        let mut fleet = DetectorFleet::new(vec![ae_detector(1)], config);
        assert!(fleet.enqueue(0, &[0.0, 0.0]));
        assert!(fleet.enqueue(0, &[0.0, 0.0]));
        assert!(!fleet.enqueue(0, &[0.0, 0.0]), "queue of 2 is full");
        let mut out = Vec::new();
        assert_eq!(fleet.drain_round(&mut out), 1, "one round serves one step per stream");
        assert!(fleet.enqueue(0, &[0.0, 0.0]), "drained slot is reusable");
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn empty_fleet_panics() {
        let _ = DetectorFleet::new(Vec::new(), FleetConfig::default());
    }

    #[test]
    fn offer_policies_resolve_full_queues_and_count() {
        let config = FleetConfig { queue_capacity: 2, ..FleetConfig::default() };
        let mut fleet = DetectorFleet::new(vec![ae_detector(1)], config);
        assert_eq!(fleet.offer(0, &[1.0, 0.0], BackpressurePolicy::Block), OfferOutcome::Enqueued);
        assert_eq!(fleet.offer(0, &[2.0, 0.0], BackpressurePolicy::Block), OfferOutcome::Enqueued);
        assert_eq!(fleet.queued(0), 2);
        // Full queue: each policy resolves it its own way.
        assert_eq!(
            fleet.offer(0, &[3.0, 0.0], BackpressurePolicy::Block),
            OfferOutcome::WouldBlock
        );
        assert_eq!(fleet.queued(0), 2, "block leaves the queue untouched");
        assert_eq!(
            fleet.offer(0, &[4.0, 0.0], BackpressurePolicy::DropNewest),
            OfferOutcome::DroppedNewest
        );
        assert_eq!(fleet.queued(0), 2, "drop-newest discards the incoming vector");
        assert_eq!(
            fleet.offer(0, &[5.0, 0.0], BackpressurePolicy::DropOldest),
            OfferOutcome::DroppedOldest
        );
        assert_eq!(fleet.queued(0), 2, "drop-oldest evicts to make room");
        let stats = fleet.stats();
        assert_eq!(
            (stats.bp_blocked, stats.bp_dropped_newest, stats.bp_dropped_oldest),
            (1, 1, 1),
            "per-policy counters: {stats:?}",
        );
        // After the eviction the queue holds [2.0, 5.0]: vector 1 was
        // evicted, 5.0 took its place at the back.
        let mut out = Vec::new();
        fleet.drain_round(&mut out);
        fleet.drain_round(&mut out);
        assert_eq!(fleet.queued(0), 0);
        let reg = fleet.export_metrics();
        assert_eq!(reg.counter_by_name("sad_fleet_bp_dropped_oldest_total"), Some(1));
    }

    #[test]
    fn admit_and_retire_reuse_slots_and_their_ids() {
        let config = FleetConfig { shards: 2, ..FleetConfig::default() };
        let mut fleet = DetectorFleet::open(config);
        assert!(fleet.is_empty());
        let a = fleet.admit(ae_detector(1));
        let b = fleet.admit(ae_detector(2));
        let c = fleet.admit(ae_detector(3));
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(fleet.live(), 3);

        // Serve a few rounds across all three streams. Shard 0 holds a
        // and c, shard 1 holds b: the output table spans two slots per
        // shard, and id 3 (slot 1 of shard 1) addresses no stream.
        let data = series(40, 0.0);
        let mut out = Vec::new();
        for s in &data {
            for id in [a, b, c] {
                assert!(fleet.enqueue(id, s));
            }
            fleet.drain_round(&mut out);
            assert_eq!(out.len(), 4);
            assert_eq!(out[3], None);
        }

        // Retire b: its id goes dead, everyone else keeps serving.
        fleet.retire(b);
        assert!(!fleet.is_live(b));
        assert_eq!(fleet.live(), 2);
        for s in &data {
            for id in [a, c] {
                assert!(fleet.enqueue(id, s));
            }
            fleet.drain_round(&mut out);
            assert_eq!(out[b], None, "retired id yields no output");
        }

        // A later admission lands in b's vacant slot and takes b's id,
        // with a fresh detector.
        let d = fleet.admit(ae_detector(4));
        assert_eq!(d, b);
        assert!(fleet.is_live(d));
        assert_eq!(fleet.live(), 3);
        assert!(!fleet.detector(d).is_warmed_up(), "a fresh detector serves the reused id");
        assert!(fleet.detector(a).is_warmed_up());
        assert!(fleet.enqueue(d, &data[0]));
        fleet.drain_round(&mut out);
        assert_eq!(out.len(), 4, "outputs span the slot table, not the ids issued");
        assert_eq!(fleet.len(), 4, "len counts installs");
        let stats = fleet.stats();
        assert_eq!((stats.admitted, stats.retired), (4, 1), "{stats:?}");
        let reg = fleet.export_metrics();
        assert_eq!(reg.gauge_by_name("sad_fleet_streams"), Some(3.0), "live streams gauge");
    }

    #[test]
    #[should_panic(expected = "retired")]
    fn enqueue_to_retired_stream_panics() {
        let mut fleet = DetectorFleet::open(FleetConfig::default());
        let id = fleet.admit(ae_detector(1));
        fleet.retire(id);
        let _ = fleet.enqueue(id, &[0.0, 0.0]);
    }

    /// Admit/retire cycles reuse slots, and `live()` — the sum of the
    /// shards' live counts — agrees with the ids still live after every
    /// cycle, however many streams have been installed.
    #[test]
    fn live_counts_occupied_slots_through_admit_retire_cycles() {
        let config = FleetConfig { shards: 3, ..FleetConfig::default() };
        let mut fleet = DetectorFleet::open(config);
        let template = ae_detector(1);
        let mut live_ids = Vec::new();
        for cycle in 0..200usize {
            live_ids.push(fleet.admit(template.clone()));
            if cycle % 3 == 0 {
                live_ids.push(fleet.admit(template.clone()));
            }
            while live_ids.len() > 4 {
                fleet.retire(live_ids.remove(cycle % live_ids.len()));
            }
            let by_id = (0..fleet.len()).filter(|&id| fleet.is_live(id)).count();
            assert_eq!(fleet.live(), by_id, "cycle {cycle}");
            assert_eq!(fleet.live(), live_ids.len(), "cycle {cycle}");
        }
        let stats = fleet.stats();
        assert_eq!(stats.admitted - stats.retired, fleet.live());
        assert!(fleet.len() > 250, "installs keep counting: {}", fleet.len());
        // At most 6 streams are ever live at once, and admission to the
        // least-loaded shard keeps each of the 3 shards at most 3 deep.
        let slots: usize = fleet.shards.iter().map(|s| s.slots.len()).sum();
        assert!(slots <= 9, "slots are reused, bounded by the live peak: {slots}");
    }

    /// Dynamically-admitted replicas of a construction-time fleet must
    /// batch together: admission joins the same arch groups and cohorts
    /// once the stream warms up.
    #[test]
    fn admitted_replicas_join_the_batching_cohort() {
        let data = series(220, 0.0);
        let config = FleetConfig { shards: 1, ..FleetConfig::default() };
        let mut fleet = DetectorFleet::new(vec![ae_detector(7)], config);
        let b = fleet.admit(ae_detector(7));
        let mut out = Vec::new();
        for s in &data {
            assert!(fleet.enqueue(0, s));
            assert!(fleet.enqueue(b, s));
            fleet.drain_round(&mut out);
        }
        let stats = fleet.stats();
        assert!(stats.batched_rows > 0, "admitted twin joins the cohort: {stats:?}");
        assert!(
            stats.batches <= stats.batched_rows / 2 + 2,
            "twin rows amortize into shared passes: {stats:?}",
        );
    }

    /// A round steps each stream once, also across its warm-up transition
    /// with a second vector queued: the stream joins its arch group in the
    /// round's bookkeeping, after its step, and its next vector waits for
    /// the next round's batched pass.
    #[test]
    fn a_round_steps_a_stream_once_across_its_warm_up_transition() {
        let data = series(62, 0.0);
        let mut fleet = DetectorFleet::new(vec![ae_detector(7)], FleetConfig::default());
        let mut out = Vec::new();
        // Warm-up 60: the 60th vector runs the initial fit.
        for s in &data[..59] {
            assert!(fleet.enqueue(0, s));
            fleet.drain_round(&mut out);
        }
        assert!(fleet.enqueue(0, &data[59]));
        assert!(fleet.enqueue(0, &data[60]));
        assert_eq!(fleet.drain_round(&mut out), 1);
        assert_eq!(fleet.queued(0), 1, "one step per stream per round");
        assert_eq!(out[0], None, "the fitting step emits nothing");
        assert_eq!(fleet.stats().steps, 60);
        fleet.drain_round(&mut out);
        assert!(out[0].is_some());
        assert_eq!(fleet.stats().batched_rows, 1, "the next step is batched");
    }

    /// A fleet whose helpers cannot be spawned runs every round inline on
    /// the caller, adaptations included, with the traces and serving
    /// counters of a fleet whose helpers run.
    #[test]
    fn a_failed_helper_spawn_runs_rounds_inline() {
        let fleet_series: Vec<_> = (0..4).map(|i| series(160, i as f64 * 0.4)).collect();
        let detectors = || (0..4).map(|i| ae_detector(7 + i % 2)).collect::<Vec<_>>();
        for shards in [1, 2] {
            let config = FleetConfig { shards, ..FleetConfig::default() };
            let mut pooled = DetectorFleet::with_pool(config.clone(), 2, |i| {
                std::thread::Builder::new().name(format!("sad-fleet-{i}"))
            });
            // No stack of 2^60 bytes can be mapped: every spawn fails
            // before a thread starts.
            let mut inline = DetectorFleet::with_pool(config, 2, |_| {
                std::thread::Builder::new().stack_size(1 << 60)
            });
            assert_eq!((pooled.helpers(), inline.helpers()), (2, 0));
            for det in detectors() {
                pooled.install(det);
            }
            for det in detectors() {
                inline.install(det);
            }
            let (a, b) = (pooled.run(&fleet_series), inline.run(&fleet_series));
            assert_eq!(a, b, "shards={shards}: inline rounds serve the same traces");
            assert_eq!(pooled.stats(), inline.stats(), "shards={shards}");
            assert_eq!(inline.helper_jobs(), 0);
            let tunes: usize = (0..4).map(|i| inline.detector(i).fine_tune_count()).sum();
            assert!(tunes > 4, "shards={shards}: the streams drifted and adapted: {tunes}");
        }
    }

    /// The exported registry agrees with the `stats()` snapshot, carries
    /// the fleet-shape gauges and the detector lifecycle aggregate, and
    /// its round-latency histogram saw every non-idle round.
    #[test]
    fn export_metrics_matches_stats_and_aggregates_lifecycle() {
        let fleet_series = vec![series(140, 0.0), series(140, 0.25)];
        let config = FleetConfig { shards: 2, ..FleetConfig::default() };
        let mut fleet = DetectorFleet::new(vec![ae_detector(7), ae_detector(8)], config);
        let _ = fleet.run(&fleet_series);
        let stats = fleet.stats();
        let reg = fleet.export_metrics();
        assert_eq!(reg.counter_by_name("sad_fleet_steps_total"), Some(stats.steps as u64));
        assert_eq!(
            reg.counter_by_name("sad_fleet_scalar_steps_total"),
            Some(stats.scalar_steps as u64)
        );
        assert_eq!(
            reg.counter_by_name("sad_fleet_batched_rows_total"),
            Some(stats.batched_rows as u64)
        );
        assert_eq!(reg.gauge_by_name("sad_fleet_streams"), Some(2.0));
        assert_eq!(reg.gauge_by_name("sad_fleet_shards"), Some(2.0));
        assert!(reg.gauge_by_name("sad_fleet_queue_high_water").unwrap() >= 1.0);
        let latency = reg.histogram_by_name("sad_fleet_round_seconds").unwrap();
        assert!(latency.count() > 0, "timed rounds were recorded");
        // Lifecycle aggregate: both detectors warmed up and stepped.
        assert_eq!(reg.counter_by_name("sad_detector_warmup_completions_total"), Some(2));
        assert_eq!(reg.counter_by_name("sad_detector_steps_total"), Some(160));
        assert_eq!(
            reg.histogram_by_name("sad_detector_nonconformity").unwrap().count(),
            160
        );
        // Telemetry off: counters still flow, timed telemetry stays empty.
        let quiet_cfg = FleetConfig { telemetry: false, ..FleetConfig::default() };
        let mut quiet = DetectorFleet::new(vec![ae_detector(7)], quiet_cfg);
        let _ = quiet.run(&[series(120, 0.0)]);
        let qreg = quiet.export_metrics();
        assert_eq!(qreg.counter_by_name("sad_fleet_steps_total"), Some(120));
        assert_eq!(qreg.histogram_by_name("sad_fleet_round_seconds").unwrap().count(), 0);
        assert_eq!(qreg.gauge_by_name("sad_fleet_queue_high_water"), Some(0.0));
    }

    /// [`series`] with a level shift of both channels from step `at` on.
    fn shifted(len: usize, at: usize) -> Vec<Vec<f64>> {
        let mut data = series(len, 0.0);
        for s in &mut data[at..] {
            s[0] += 2.0;
            s[1] -= 1.5;
        }
        data
    }

    /// A drift detector that forces a drift at observation `at` and
    /// panics in the adaptation that drift owes.
    #[derive(Clone)]
    struct FailingAdaptation {
        inner: Box<dyn sad_core::DriftDetector>,
        seen: usize,
        at: usize,
    }

    impl sad_core::DriftDetector for FailingAdaptation {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn observe(
            &mut self,
            x: &sad_core::FeatureVector,
            update: &sad_core::SetUpdate,
            train: &[sad_core::FeatureVector],
        ) -> bool {
            self.seen += 1;
            self.inner.observe(x, update, train) || self.seen == self.at + 1
        }

        fn on_fine_tune(&mut self, train: &[sad_core::FeatureVector]) {
            assert!(self.seen <= self.at, "scripted adaptation panic");
            self.inner.on_fine_tune(train);
        }

        fn ops(&self) -> sad_core::OpCount {
            self.inner.ops()
        }

        fn clone_box(&self) -> Box<dyn sad_core::DriftDetector> {
            Box::new(self.clone())
        }
    }

    /// What `view` serves for `det`'s current feature window, at one row.
    fn served(
        batch: &mut InferBatch<f32>,
        view: InferView<'_, f32>,
        det: &Detector,
    ) -> ModelOutput {
        let mut out = ModelOutput::Score(0.0);
        batch.begin(1);
        batch.pack(view, 0, det.feature());
        batch.forward(view);
        batch.emit_into(view, 0, &mut out);
        out
    }

    /// The cohort invariant: in each arch group, the cohorts hold every
    /// home member exactly once and no away member, and they are the
    /// members' `infer_state_equal` classes. A cohort holds a snapshot iff
    /// its group serves f32, and the snapshot serves what a fresh
    /// conversion of its first member's weights serves.
    fn assert_cohorts_are_classes(fleet: &DetectorFleet, when: &str) {
        for shard in &fleet.shards {
            let model = |slot: usize| shard.slot(slot).det().model();
            for (gi, group) in shard.groups.iter().enumerate() {
                let at = format!("{when}: shard {} group {gi}", shard.index);
                let home: Vec<usize> = (0..shard.slots.len())
                    .filter(|&k| {
                        let stream = shard.slots[k].as_ref();
                        stream.is_some_and(|stream| stream.group == Some(gi) && !stream.away)
                    })
                    .collect();
                let mut members: Vec<usize> =
                    group.cohorts.iter().flat_map(|c| c.members.iter().copied()).collect();
                members.sort_unstable();
                assert_eq!(members, home, "{at}: the cohorts hold exactly the home members");
                for (c, cohort) in group.cohorts.iter().enumerate() {
                    let first = model(cohort.members[0]);
                    for &m in &cohort.members {
                        assert!(infer_state_equal(first, model(m)), "{at}: slot {m} in cohort {c}");
                    }
                    for other in &group.cohorts[c + 1..] {
                        let apart = !infer_state_equal(first, model(other.members[0]));
                        assert!(apart, "{at}: cohort {c} and a later one are one class");
                    }
                    match (&group.serving, &cohort.snapshot) {
                        (Serving::F64(_), None) => {}
                        (Serving::F32(_), Some(snapshot)) => {
                            let fresh = InferSnapshot::new(infer_view(first).unwrap());
                            let mut batch = InferBatch::<f32>::new(first, 1).unwrap();
                            let det = shard.slot(cohort.members[0]).det();
                            assert_eq!(
                                served(&mut batch, snapshot.view(), det),
                                served(&mut batch, fresh.view(), det),
                                "{at}: cohort {c}'s snapshot is its members' weights",
                            );
                        }
                        _ => panic!("{at}: cohort {c} holds a snapshot iff its group serves f32"),
                    }
                }
            }
        }
    }

    /// Cohorts are kept by joins and leaves alone, yet after every round,
    /// after `settle` and after a re-raised panic they are exactly the
    /// `infer_state_equal` classes of each group's home members, f64 and
    /// f32, at one and two shards. Three frozen replicas (no fine-tune
    /// epochs) share their warm-up, then drift at different times and
    /// keep their weights, so each landing rejoins a cohort of home
    /// members, one of them with a NaN vector that its begin drops; two
    /// fine-tuned twins drift in the same round and found one new cohort;
    /// a last stream's adaptation panics when it resumes.
    #[test]
    fn cohorts_are_the_classes_of_home_members() {
        const PANIC_AT: usize = 150;
        for f32_infer in [false, true] {
            for shards in [1, 2] {
                let label = format!("f32_infer={f32_infer} shards={shards}");
                let (spec, params) = ae_parts(9, 1);
                let failing = Detector::new(
                    params.config.clone(),
                    sad_models::build_model(spec.model, &params),
                    sad_models::build_task1(spec.task1, &params),
                    Box::new(FailingAdaptation {
                        inner: sad_models::build_task2(spec.task2, &params),
                        seen: 0,
                        at: PANIC_AT,
                    }),
                    sad_models::build_scorer(params.score, &params),
                );
                let detectors = vec![
                    ae_tuned(7, 0),
                    ae_tuned(7, 0),
                    ae_tuned(7, 0),
                    ae_detector(7),
                    ae_detector(7),
                    ae_detector(8),
                    failing,
                ];
                let data = [80, 100, 120, 95, 95, 110, 200].map(|at| shifted(220, at));
                let config = FleetConfig { shards, f32_infer, ..FleetConfig::default() };
                let mut fleet = DetectorFleet::new(detectors, config);
                let mut out = Vec::new();
                let mut raised = None;
                // Stream 0 resumes once, after its own shift, on a NaN.
                let (mut poison, mut poisoned) = (false, false);
                for t in 0..220 {
                    for (id, series) in data.iter().enumerate() {
                        let nan = [f64::NAN, 0.0];
                        let s = if id == 0 && poison { &nan[..] } else { &series[t][..] };
                        assert!(fleet.enqueue(id, s));
                    }
                    let round = catch_unwind(AssertUnwindSafe(|| fleet.drain_round(&mut out)));
                    assert_cohorts_are_classes(&fleet, &format!("{label} round {t}"));
                    if round.is_err() {
                        raised = Some(t);
                        break;
                    }
                    if poison {
                        assert_eq!(out[0], None, "{label}: stream 0's NaN is no step at {t}");
                        poisoned = true;
                    }
                    poison = !poisoned && t >= 80 && out[0].is_some_and(|o| o.drift);
                    if t == 125 {
                        fleet.settle();
                        assert_cohorts_are_classes(&fleet, &format!("{label} settled at {t}"));
                    }
                }
                let raised = raised.expect("the scripted adaptation panic is raised");
                assert!(raised > PANIC_AT, "{label}: raised as its stream resumed, at {raised}");
                fleet.settle();
                assert_cohorts_are_classes(&fleet, &format!("{label} settled after the panic"));

                // The frozen replicas drifted at different times and
                // ended in one cohort per shard (slots 0 and 1 of shard 0
                // hold streams 0 and 2 at two shards).
                let drifts: Vec<&[usize]> =
                    (0..3).map(|i| fleet.detector(i).drift_times()).collect();
                let apart = drifts[0] != drifts[1] && drifts[1] != drifts[2];
                assert!(apart && drifts.iter().all(|d| !d.is_empty()), "{label}: {drifts:?}");
                let cohorts = &fleet.shards[0].groups[0].cohorts;
                let cohort = cohorts.iter().find(|c| c.members.contains(&0)).unwrap();
                let mut replicas = cohort.members.clone();
                replicas.sort_unstable();
                let expected = if shards == 1 { vec![0, 1, 2] } else { vec![0, 1] };
                assert_eq!(replicas, expected, "{label}");
                assert_eq!(fleet.detector(0).non_finite(), 1, "{label}");
                let stats = fleet.stats();
                assert_eq!(stats.f32_resyncs > 0, f32_infer, "{label}: {stats:?}");
            }
        }
    }
}
