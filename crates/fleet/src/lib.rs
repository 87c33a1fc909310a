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
//! workspace amortizes fine-tuning. `forward_batch` computes every output
//! row independently and identically to `Mlp::infer`, so the batched path
//! is bitwise identical to N scalar `Detector::step` calls — the
//! `fleet_parity` suite proves it in the same style as `tree_parity.rs`.
//!
//! Cohorts are maintained exactly: parameters are only compared on
//! *training events* (a member joins at its warm-up fit; a member is
//! re-cohorted after any fine-tune in its group), never per step. Streams
//! whose models never materialize a batchable network (PCB-iForest,
//! ARIMA, kNN, …) — and every stream when `FleetConfig::batching` is off
//! — run the plain scalar `Detector::step` path.
//!
//! ## One serving loop, two precisions
//!
//! `InferBatch<T>` is generic over the tensor precision, and a group's
//! workspace is in the precision it serves. Each round serves a cohort by
//! the same pack → forward → emit loop against an `InferView` of that
//! cohort's networks and scaler:
//!
//! * **f64** (default): the view borrows the cohort leader's live
//!   parameters. Nothing is copied: under entity churn nearly every round
//!   rebuilds cohorts, and per-cohort f64 copies would add their weights
//!   to memory and a full copy to each of those rounds.
//! * **f32** (`FleetConfig::f32_infer`): the view borrows the cohort's
//!   `InferSnapshot<f32>`, which holds only converted weights and scaler.
//!   Snapshots are re-synced in place (allocation-free) on the same
//!   dirty-on-training-event hook that rebuilds cohorts. Outputs agree
//!   with the f64 path to f32 accuracy; training stays f64.
//!
//! ## Sharding
//!
//! Stream `i` lives on shard `i % shards` (deterministic, so parity holds
//! at any shard count). Shards own disjoint state; with
//! `FleetConfig::parallel` a drain round runs one scoped thread per shard
//! (the PR 1 scoped-thread pattern). Outputs are always scattered back
//! into stream-id order, so results are byte-identical across shard
//! counts and parallelism settings.
//!
//! ## Telemetry
//!
//! Each shard owns a `sad_obs` metric registry (shard-local — no atomics,
//! matching the disjoint-state model): serving counters, a queue-depth
//! high-water gauge, and batch-width / round-latency histograms. Every
//! recording call in the drain loop is zero-alloc (the steady-state
//! allocation guard runs with telemetry on), and nothing observed feeds
//! back into detection. [`DetectorFleet::stats`] is a snapshot of those
//! counters; [`DetectorFleet::export_metrics`] merges the shard
//! registries with the per-detector lifecycle aggregate for the
//! Prometheus/JSON sinks. `FleetConfig::telemetry` gates only the clock
//! reads and the queue sweep (the measured overhead knob).

use sad_core::{Detector, ModelOutput, StepOutput, StreamModel};
use sad_models::{
    batch_arch_key, infer_state_equal, infer_view, ArchKey, InferBatch, InferSnapshot, InferView,
    Scalar,
};
use sad_obs::{CounterId, GaugeId, Histogram, HistogramId, Registry};

/// What to do with an incoming stream vector when its bounded per-stream
/// queue is full ([`DetectorFleet::offer`]). Every policy is accounted in
/// the shard metric registries (`sad_fleet_bp_*_total`).
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
    /// Drains shards on one scoped thread each. Off by default: the
    /// batching win is orthogonal to parallelism and benches honestly on
    /// a single core.
    pub parallel: bool,
    /// Per-stream input queue capacity (stream vectors).
    pub queue_capacity: usize,
    /// Serves each arch group through an f32 `InferBatch`, with every
    /// cohort's view borrowing its own f32 snapshot of weights and scaler
    /// (`sad_models::InferSnapshot`) instead of the leader's live f64
    /// parameters. Halves the bytes streamed per weight in the
    /// memory-bound serving GEMMs; outputs agree with the f64 path to f32
    /// relative accuracy rather than bitwise. Training, fine-tuning and
    /// the detector's score/threshold state stay f64 — snapshots are
    /// re-synced on the same dirty-on-training-event hook that rebuilds
    /// cohorts. Requires `batching`; off by default (the parity-proof
    /// default).
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

/// Cumulative serving counters — a snapshot derived from the per-shard
/// metric registries by [`DetectorFleet::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Detector steps completed (warm-up steps included).
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
    /// Cohort rebuilds triggered by training events.
    pub cohort_rebuilds: usize,
    /// f32 snapshot re-syncs (one per cohort per rebuild, fresh snapshots
    /// included) performed by those rebuilds (0 unless
    /// `FleetConfig::f32_infer`).
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

/// A shard's metric registry plus the preregistered handles its hot loop
/// records through. Built once per shard; every recording call in
/// [`Shard::round`] is zero-alloc by the `sad_obs` registry contract (the
/// shard's steady-state allocation guard runs with these live).
struct ShardMetrics {
    reg: Registry,
    steps: CounterId,
    scalar_steps: CounterId,
    batched_rows: CounterId,
    batches: CounterId,
    f32_rows: CounterId,
    cohort_rebuilds: CounterId,
    f32_resyncs: CounterId,
    bp_blocked: CounterId,
    bp_dropped_newest: CounterId,
    bp_dropped_oldest: CounterId,
    admitted: CounterId,
    retired: CounterId,
    queue_high_water: GaugeId,
    batch_rows: HistogramId,
    round_seconds: HistogramId,
}

impl ShardMetrics {
    fn new() -> Self {
        let mut reg = Registry::new();
        let steps =
            reg.register_counter("sad_fleet_steps_total", "Detector steps served (all paths).");
        let scalar_steps = reg.register_counter(
            "sad_fleet_scalar_steps_total",
            "Steps served through the scalar per-stream path.",
        );
        let batched_rows = reg.register_counter(
            "sad_fleet_batched_rows_total",
            "Steps served through a shared batched forward pass.",
        );
        let batches = reg
            .register_counter("sad_fleet_batches_total", "Shared batched forward passes executed.");
        let f32_rows = reg.register_counter(
            "sad_fleet_f32_rows_total",
            "Batched rows served through an f32 weight snapshot.",
        );
        let cohort_rebuilds = reg.register_counter(
            "sad_fleet_cohort_rebuilds_total",
            "Cohort rebuilds triggered by training events.",
        );
        let f32_resyncs = reg.register_counter(
            "sad_fleet_f32_resyncs_total",
            "f32 weight-snapshot re-syncs performed by cohort rebuilds.",
        );
        let bp_blocked = reg.register_counter(
            "sad_fleet_bp_blocked_total",
            "offer() refusals on a full queue under the block policy.",
        );
        let bp_dropped_newest = reg.register_counter(
            "sad_fleet_bp_dropped_newest_total",
            "Incoming vectors discarded under the drop-newest policy.",
        );
        let bp_dropped_oldest = reg.register_counter(
            "sad_fleet_bp_dropped_oldest_total",
            "Queued vectors evicted under the drop-oldest policy.",
        );
        let admitted = reg.register_counter(
            "sad_fleet_admitted_total",
            "Streams admitted dynamically after fleet construction.",
        );
        let retired = reg.register_counter(
            "sad_fleet_retired_total",
            "Streams retired from the fleet.",
        );
        let queue_high_water = reg.register_gauge(
            "sad_fleet_queue_high_water",
            "Deepest per-stream input queue observed at a round start.",
        );
        let batch_rows = reg.register_histogram(
            "sad_fleet_batch_rows",
            "Rows amortized per shared forward pass.",
            Histogram::log2(1.0, 4096.0),
        );
        let round_seconds = reg.register_histogram(
            "sad_fleet_round_seconds",
            "Shard round latency (rounds that served at least one step).",
            Histogram::log2(1e-6, 16.0),
        );
        Self {
            reg,
            steps,
            scalar_steps,
            batched_rows,
            batches,
            f32_rows,
            cohort_rebuilds,
            f32_resyncs,
            bp_blocked,
            bp_dropped_newest,
            bp_dropped_oldest,
            admitted,
            retired,
            queue_high_water,
            batch_rows,
            round_seconds,
        }
    }
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

/// One stream's state on its shard.
struct StreamSlot {
    /// Global stream id.
    id: usize,
    det: Detector,
    queue: RingQueue,
    /// Index into the shard's arch groups once the stream joined one.
    group: Option<usize>,
    /// Whether batching eligibility has been decided (checked once, at
    /// the warm-up transition — models materialize their networks there).
    eligibility_checked: bool,
}

/// One arch group: streams sharing a batchable architecture, partitioned
/// into weight-identical cohorts.
struct ArchGroup {
    arch: ArchKey,
    serving: Serving,
    /// Member slot indices (shard-local).
    members: Vec<usize>,
    /// Cohort id per member (parallel to `members`).
    cohort_of: Vec<usize>,
    n_cohorts: usize,
    /// Set on any member's training event; cohorts are rebuilt at the
    /// start of the next round.
    dirty: bool,
    /// Round scratch: positions (into `members`) with input this round.
    active: Vec<usize>,
    /// Round scratch: the subset of `active` in the cohort being served.
    cohort_rows: Vec<usize>,
}

/// An arch group's one batch workspace, in the precision the group
/// serves. The workspace holds no parameters, so it serves every cohort
/// of the group in turn against that cohort's inference view.
enum Serving {
    /// Views borrow each cohort leader's live f64 parameters.
    F64(InferBatch),
    /// Views borrow `snapshots[c]`, cohort `c`'s f32 copy of its leader's
    /// weights and scaler (`FleetConfig::f32_infer`), maintained by
    /// `rebuild_cohorts`: existing snapshots are re-synced in place
    /// (allocation-free), new cohorts get fresh ones, surplus ones are
    /// dropped.
    F32 { batch: InferBatch<f32>, snapshots: Vec<InferSnapshot<f32>> },
}

impl Serving {
    /// A workspace for `leader`'s architecture with room for `capacity`
    /// rows, or `None` when the model is not batchable.
    fn new(leader: &dyn StreamModel, capacity: usize, f32_infer: bool) -> Option<Self> {
        Some(if f32_infer {
            Serving::F32 { batch: InferBatch::new(leader, capacity)?, snapshots: Vec::new() }
        } else {
            Serving::F64(InferBatch::new(leader, capacity)?)
        })
    }

    fn capacity(&self) -> usize {
        match self {
            Serving::F64(batch) => batch.capacity(),
            Serving::F32 { batch, .. } => batch.capacity(),
        }
    }
}

/// Serves one cohort through `batch` against `view`: packs the feature
/// window of every member at `positions`, runs the shared forward pass,
/// and scatters each row's model output into its slot's buffer.
fn serve_cohort<T: Scalar>(
    batch: &mut InferBatch<T>,
    view: InferView<'_, T>,
    positions: &[usize],
    members: &[usize],
    slots: &[Option<StreamSlot>],
    out_bufs: &mut [ModelOutput],
) {
    batch.begin(positions.len());
    for (row, &pos) in positions.iter().enumerate() {
        let slot = slots[members[pos]].as_ref().expect("group members are live");
        batch.pack(view, row, slot.det.feature());
    }
    batch.forward(view);
    for (row, &pos) in positions.iter().enumerate() {
        batch.emit_into(view, row, &mut out_bufs[members[pos]]);
    }
}

/// One worker shard: a disjoint subset of streams plus their batching
/// state. All per-round buffers are reused; the steady-state drain loop
/// performs zero heap allocations (`fleet/tests/zero_alloc.rs`).
///
/// A slot is `None` when its stream has been retired
/// ([`DetectorFleet::retire`]); vacant slots are reused by later
/// admissions so slot indices stay stable for the group membership lists.
struct Shard {
    slots: Vec<Option<StreamSlot>>,
    /// Per-slot model-output buffer (sibling of `slots` so the batched
    /// path can borrow a slot's detector and its output buffer at once).
    out_bufs: Vec<ModelOutput>,
    /// Per-slot output of the current round.
    outs: Vec<Option<StepOutput>>,
    groups: Vec<ArchGroup>,
    batching: bool,
    f32_infer: bool,
    /// Gates the timed/shape telemetry (see [`FleetConfig::telemetry`]).
    telemetry: bool,
    metrics: ShardMetrics,
}

impl Shard {
    fn new(batching: bool, f32_infer: bool, telemetry: bool) -> Self {
        Self {
            slots: Vec::new(),
            out_bufs: Vec::new(),
            outs: Vec::new(),
            groups: Vec::new(),
            batching,
            f32_infer,
            telemetry,
            metrics: ShardMetrics::new(),
        }
    }

    /// Installs a stream into a vacant slot when one exists, else appends
    /// a new slot. Returns the slot index.
    fn push_stream(&mut self, id: usize, det: Detector, queue_capacity: usize) -> usize {
        let channels = det.config().channels;
        let slot = StreamSlot {
            id,
            det,
            queue: RingQueue::new(channels, queue_capacity),
            group: None,
            eligibility_checked: false,
        };
        if let Some(vacant) = self.slots.iter().position(Option::is_none) {
            self.slots[vacant] = Some(slot);
            // The vacated output buffer is kept — the first batched emit
            // right-sizes it for the new stream's model.
            self.outs[vacant] = None;
            return vacant;
        }
        self.slots.push(Some(slot));
        // Placeholder variant; the first batched emit replaces it with a
        // right-sized buffer that is then reused forever.
        self.out_bufs.push(ModelOutput::Score(0.0));
        self.outs.push(None);
        self.slots.len() - 1
    }

    /// Live (non-vacant) slot count.
    fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Removes `slot` from the shard: drops the detector and any queued
    /// backlog, and detaches it from its arch group (the group rebuilds
    /// its cohorts at the next round).
    fn vacate(&mut self, slot: usize) {
        let stream = self.slots[slot].take().expect("retire of a live stream");
        if let Some(gi) = stream.group {
            let group = &mut self.groups[gi];
            let pos = group
                .members
                .iter()
                .position(|&m| m == slot)
                .expect("grouped slot is a member of its group");
            group.members.remove(pos);
            group.cohort_of.remove(pos);
            group.dirty = true;
        }
        self.outs[slot] = None;
        self.metrics.reg.inc(self.metrics.retired, 1);
    }

    /// Joins `slot` to the arch group matching its model, creating the
    /// group on first sight of the architecture. Group batch capacity is
    /// the shard's stream count — the widest batch a round can need.
    fn join_group(&mut self, slot: usize) {
        let det = &self.slots[slot].as_ref().expect("joining slot is live").det;
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
                    members: Vec::new(),
                    cohort_of: Vec::new(),
                    n_cohorts: 0,
                    dirty: false,
                    active: Vec::new(),
                    cohort_rows: Vec::new(),
                });
                self.groups.len() - 1
            }
        };
        let group = &mut self.groups[gi];
        // Dynamic admission can grow a shard past the capacity the group's
        // workspace was sized for at creation; grow it here (a
        // training-event path, never per step). f32 snapshots go with it
        // and the dirty rebuild below recreates them.
        if group.members.len() + 1 > group.serving.capacity() {
            let capacity = self.slots.len().max(group.members.len() + 1);
            group.serving = Serving::new(det.model(), capacity, self.f32_infer)
                .expect("grouped arch stays batchable");
        }
        group.members.push(slot);
        group.cohort_of.push(0);
        group.dirty = true;
        self.slots[slot].as_mut().expect("joining slot is live").group = Some(gi);
    }

    /// Re-partitions a group into weight-identical cohorts by exact
    /// parameter comparison against each cohort's first member. O(k·c)
    /// comparisons for k members and c cohorts — and it only runs on
    /// training events, never in the per-step hot path.
    fn rebuild_cohorts(group: &mut ArchGroup, slots: &[Option<StreamSlot>]) -> usize {
        let live = |slot: usize| slots[slot].as_ref().expect("group members are live");
        group.n_cohorts = 0;
        for i in 0..group.members.len() {
            let model = live(group.members[i]).det.model();
            let mut assigned = None;
            'cohorts: for c in 0..group.n_cohorts {
                // The cohort's representative: its first member.
                for j in 0..i {
                    if group.cohort_of[j] == c {
                        if infer_state_equal(model, live(group.members[j]).det.model()) {
                            assigned = Some(c);
                        }
                        continue 'cohorts;
                    }
                }
            }
            group.cohort_of[i] = assigned.unwrap_or_else(|| {
                group.n_cohorts += 1;
                group.n_cohorts - 1
            });
        }
        // f32 serving: re-sync one snapshot per cohort. This is the
        // training-event hook — it never runs in the per-step hot path, and
        // re-syncing an existing snapshot is allocation-free, so
        // steady-state rounds stay zero-alloc. Cohort ids shuffle across
        // rebuilds; snapshot `c` is simply re-synced from the *new* cohort
        // `c`'s leader (same architecture by the group invariant).
        let mut resyncs = 0;
        if let Serving::F32 { snapshots, .. } = &mut group.serving {
            for c in 0..group.n_cohorts {
                let leader_pos = (0..group.members.len())
                    .find(|&i| group.cohort_of[i] == c)
                    .expect("every cohort has a member");
                let leader = live(group.members[leader_pos]).det.model();
                let view = infer_view(leader).expect("grouped models are batchable");
                match snapshots.get_mut(c) {
                    Some(snapshot) => snapshot.resync(view),
                    None => snapshots.push(InferSnapshot::new(view)),
                }
                resyncs += 1;
            }
            snapshots.truncate(group.n_cohorts);
        }
        group.dirty = false;
        resyncs
    }

    /// Serves one round: each stream with queued input advances exactly
    /// one step. Results land in `self.outs` (slot order).
    fn round(&mut self) {
        // Timed/shape telemetry: clock reads and the queue-depth sweep are
        // the only per-round costs the flag adds — every recording call
        // below them is zero-alloc indexed arithmetic.
        let started = self.telemetry.then(std::time::Instant::now);
        if self.telemetry {
            for slot in self.slots.iter().flatten() {
                self.metrics
                    .reg
                    .gauge_max(self.metrics.queue_high_water, slot.queue.len() as f64);
            }
        }
        let steps_before = self.metrics.reg.counter(self.metrics.steps);

        for out in &mut self.outs {
            *out = None;
        }

        // ---- Scalar path: ungrouped streams (warm-up, non-NN models,
        // batching disabled).
        for i in 0..self.slots.len() {
            {
                let Some(slot) = self.slots[i].as_mut() else { continue };
                if slot.group.is_some() {
                    continue;
                }
                let Some(s) = slot.queue.front() else { continue };
                let out = slot.det.step(s);
                slot.queue.pop_front();
                self.outs[i] = out;
            }
            self.metrics.reg.inc(self.metrics.steps, 1);
            self.metrics.reg.inc(self.metrics.scalar_steps, 1);
            // Batching eligibility is decided once the model has fitted
            // (networks materialize at the warm-up fit).
            let slot = self.slots[i].as_ref().expect("slot was live above");
            if self.batching && !slot.eligibility_checked && slot.det.is_warmed_up() {
                self.slots[i].as_mut().expect("slot was live above").eligibility_checked = true;
                self.join_group(i);
            }
        }

        // ---- Batched path, one arch group at a time.
        let Shard { slots, out_bufs, outs, groups, telemetry, metrics, .. } = self;
        for group in groups.iter_mut() {
            if group.dirty {
                let resyncs = Self::rebuild_cohorts(group, slots);
                metrics.reg.inc(metrics.cohort_rebuilds, 1);
                metrics.reg.inc(metrics.f32_resyncs, resyncs as u64);
            }
            // begin_step every member with input; all are post-warm-up, so
            // every begin yields a feature vector.
            group.active.clear();
            for (pos, &si) in group.members.iter().enumerate() {
                let slot = slots[si].as_mut().expect("group members are live");
                let Some(s) = slot.queue.front() else { continue };
                let ready = slot.det.begin_step(s);
                slot.queue.pop_front();
                debug_assert!(ready, "grouped streams are past warm-up");
                if ready {
                    group.active.push(pos);
                }
            }
            // One shared forward pass per cohort with active members; the
            // cohort invariant makes any member's model a valid leader.
            for c in 0..group.n_cohorts {
                group.cohort_rows.clear();
                group
                    .cohort_rows
                    .extend(group.active.iter().copied().filter(|&pos| group.cohort_of[pos] == c));
                if group.cohort_rows.is_empty() {
                    continue;
                }
                let rows = group.cohort_rows.len();
                // Scatter every row's output *before* any finish_step: a
                // fine-tune inside finish must not be able to perturb a
                // sibling's emit (it can't — fine-tunes never refit the
                // scaler — but the ordering makes parity unconditional).
                let (positions, members) = (&group.cohort_rows[..], &group.members[..]);
                match &mut group.serving {
                    Serving::F64(batch) => {
                        let leader = slots[members[positions[0]]]
                            .as_ref()
                            .expect("group members are live")
                            .det
                            .model();
                        let view = infer_view(leader).expect("grouped models are batchable");
                        serve_cohort(batch, view, positions, members, slots, out_bufs);
                    }
                    Serving::F32 { batch, snapshots } => {
                        let view = snapshots[c].view();
                        serve_cohort(batch, view, positions, members, slots, out_bufs);
                        metrics.reg.inc(metrics.f32_rows, rows as u64);
                    }
                }
                for &pos in group.cohort_rows.iter() {
                    let si = group.members[pos];
                    let slot = slots[si].as_mut().expect("group members are live");
                    let out = slot.det.finish_step(&out_bufs[si]);
                    if out.fine_tuned {
                        group.dirty = true;
                    }
                    outs[si] = Some(out);
                    metrics.reg.inc(metrics.steps, 1);
                    metrics.reg.inc(metrics.batched_rows, 1);
                }
                metrics.reg.inc(metrics.batches, 1);
                if *telemetry {
                    metrics.reg.record(metrics.batch_rows, rows as f64);
                }
            }
        }

        // Round latency covers rounds that actually served a step — an
        // idle drain would otherwise drag the percentiles toward zero.
        if let Some(started) = started {
            if self.metrics.reg.counter(self.metrics.steps) > steps_before {
                self.metrics
                    .reg
                    .record(self.metrics.round_seconds, started.elapsed().as_secs_f64());
            }
        }
    }

    /// Streams on this shard with at least one queued vector.
    fn pending(&self) -> usize {
        self.slots.iter().flatten().filter(|s| s.queue.len() > 0).count()
    }
}

/// A sharded multi-stream detector fleet. See the crate docs for the
/// batching and sharding model.
///
/// Streams can be fixed at construction ([`DetectorFleet::new`]) or come
/// and go dynamically ([`DetectorFleet::admit`] / [`DetectorFleet::retire`]
/// on a fleet started with [`DetectorFleet::open`]): every stream gets a
/// fresh monotonically-increasing id, and retired ids stay valid history
/// (outputs are indexed by id forever) while their shard slots are reused
/// by later admissions.
pub struct DetectorFleet {
    shards: Vec<Shard>,
    config: FleetConfig,
    /// Stream id → (shard, slot); `None` once the stream is retired.
    /// Fleets built by [`DetectorFleet::new`] lay ids out round-robin
    /// (`id % shards`, `id / shards`) — this table generalizes that
    /// arithmetic to dynamic admission.
    addr: Vec<Option<(usize, usize)>>,
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
        for (id, det) in detectors.into_iter().enumerate() {
            let slot = fleet.shards[id % n_shards].push_stream(id, det, fleet.config.queue_capacity);
            fleet.addr.push(Some((id % n_shards, slot)));
        }
        fleet
    }

    /// Opens an *empty* fleet with exactly `config.shards` shards, ready
    /// for dynamic admission — the serving-engine entry point, where
    /// entities appear on first contact rather than at construction.
    ///
    /// # Panics
    /// Panics on a zero shard count / queue capacity.
    pub fn open(config: FleetConfig) -> Self {
        assert!(config.shards > 0, "shard count must be positive");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        let shards: Vec<Shard> = (0..config.shards)
            .map(|_| {
                Shard::new(config.batching, config.batching && config.f32_infer, config.telemetry)
            })
            .collect();
        Self { shards, config, addr: Vec::new() }
    }

    /// Admits a new stream: the detector lands on the shard with the
    /// fewest live streams (lowest index on ties — deterministic), reusing
    /// a retired slot when one exists. Returns the new stream id.
    pub fn admit(&mut self, det: Detector) -> usize {
        let shard = (0..self.shards.len())
            .min_by_key(|&i| (self.shards[i].live(), i))
            .expect("a fleet has at least one shard");
        let slot = self.shards[shard].push_stream(self.addr.len(), det, self.config.queue_capacity);
        let m = &mut self.shards[shard].metrics;
        m.reg.inc(m.admitted, 1);
        self.addr.push(Some((shard, slot)));
        self.addr.len() - 1
    }

    /// Retires `stream`: its detector (and any queued backlog) is dropped
    /// and the slot becomes reusable by a later [`Self::admit`]. The id
    /// stays valid history — [`Self::is_live`] turns `false`, and
    /// re-admitting the same entity later builds a fresh detector.
    ///
    /// # Panics
    /// Panics if `stream` is out of range or already retired.
    pub fn retire(&mut self, stream: usize) {
        assert!(stream < self.addr.len(), "stream {stream} out of 0..{}", self.addr.len());
        let (shard, slot) = self.addr[stream].take().expect("retire of a live stream");
        self.shards[shard].vacate(slot);
    }

    /// Whether `stream` is currently live (admitted and not retired).
    pub fn is_live(&self, stream: usize) -> bool {
        self.addr.get(stream).is_some_and(Option::is_some)
    }

    /// Number of live streams.
    pub fn live(&self) -> usize {
        self.addr.iter().filter(|a| a.is_some()).count()
    }

    /// Number of stream ids ever issued (live + retired).
    pub fn len(&self) -> usize {
        self.addr.len()
    }

    /// Whether the fleet has never had a stream.
    pub fn is_empty(&self) -> bool {
        self.addr.is_empty()
    }

    /// Queued (not yet served) vectors for `stream`.
    ///
    /// # Panics
    /// Panics if `stream` is out of range or retired.
    pub fn queued(&self, stream: usize) -> usize {
        let (shard, slot) = self.live_addr(stream);
        self.shards[shard].slots[slot].as_ref().expect("addressed slot is live").queue.len()
    }

    fn live_addr(&self, stream: usize) -> (usize, usize) {
        assert!(stream < self.addr.len(), "stream {stream} out of 0..{}", self.addr.len());
        self.addr[stream].expect("stream has been retired")
    }

    /// Enqueues one stream vector for `stream`; `false` when that
    /// stream's queue is full (drain first).
    ///
    /// # Panics
    /// Panics if `stream` is out of range or retired, or `s` has the
    /// wrong channel count.
    pub fn enqueue(&mut self, stream: usize, s: &[f64]) -> bool {
        let (shard, slot) = self.live_addr(stream);
        self.shards[shard].slots[slot].as_mut().expect("addressed slot is live").queue.push(s)
    }

    /// Enqueues one stream vector under a back-pressure `policy`: like
    /// [`Self::enqueue`], but a full queue is resolved per policy (refuse /
    /// drop the incoming vector / evict the oldest queued one) and the
    /// outcome is counted in the owning shard's metric registry
    /// (`sad_fleet_bp_*_total`). Zero-alloc — safe on the ingest hot path.
    ///
    /// # Panics
    /// Panics if `stream` is out of range or retired, or `s` has the
    /// wrong channel count.
    pub fn offer(&mut self, stream: usize, s: &[f64], policy: BackpressurePolicy) -> OfferOutcome {
        let (shard, slot) = self.live_addr(stream);
        let sh = &mut self.shards[shard];
        let queue = &mut sh.slots[slot].as_mut().expect("addressed slot is live").queue;
        if queue.push(s) {
            return OfferOutcome::Enqueued;
        }
        let m = &mut sh.metrics;
        match policy {
            BackpressurePolicy::Block => {
                m.reg.inc(m.bp_blocked, 1);
                OfferOutcome::WouldBlock
            }
            BackpressurePolicy::DropNewest => {
                m.reg.inc(m.bp_dropped_newest, 1);
                OfferOutcome::DroppedNewest
            }
            BackpressurePolicy::DropOldest => {
                queue.pop_front();
                let accepted = queue.push(s);
                debug_assert!(accepted, "eviction frees exactly one slot");
                m.reg.inc(m.bp_dropped_oldest, 1);
                OfferOutcome::DroppedOldest
            }
        }
    }

    /// Drains one round: every stream with queued input advances exactly
    /// one step. `out` is resized to one entry per stream (stream-id
    /// order); `out[i]` is `Some` iff stream `i` consumed a vector *and*
    /// is past warm-up — exactly `Detector::step`'s contract. Returns the
    /// number of vectors consumed.
    pub fn drain_round(&mut self, out: &mut Vec<Option<StepOutput>>) -> usize {
        out.resize(self.addr.len(), None);
        for o in out.iter_mut() {
            *o = None;
        }
        let consumed: usize = self.shards.iter().map(Shard::pending).sum();

        if self.config.parallel && self.shards.len() > 1 {
            // One scoped worker per shard; shards own disjoint state.
            std::thread::scope(|scope| {
                for shard in &mut self.shards {
                    scope.spawn(|| shard.round());
                }
            });
        } else {
            for shard in &mut self.shards {
                shard.round();
            }
        }

        // Scatter shard-local outputs back into stream-id order.
        for shard in &self.shards {
            for (slot, o) in shard.slots.iter().zip(&shard.outs) {
                if let Some(slot) = slot {
                    out[slot.id] = *o;
                }
            }
        }
        consumed
    }

    /// Convenience driver: streams `series[i]` into stream `i` and
    /// returns each stream's post-warm-up outputs — per stream, the exact
    /// trace of a standalone `Detector::run` over the same series.
    pub fn run(&mut self, series: &[Vec<Vec<f64>>]) -> Vec<Vec<StepOutput>> {
        assert_eq!(series.len(), self.addr.len(), "one series per stream");
        let n_streams = self.addr.len();
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
        traces
    }

    /// The detector serving `stream`.
    ///
    /// # Panics
    /// Panics if `stream` is out of range or retired.
    pub fn detector(&self, stream: usize) -> &Detector {
        let (shard, slot) = self.live_addr(stream);
        &self.shards[shard].slots[slot].as_ref().expect("addressed slot is live").det
    }

    /// Cumulative serving counters — a snapshot of the per-shard metric
    /// registries, summed over shards.
    pub fn stats(&self) -> FleetStats {
        let mut total = FleetStats::default();
        for shard in &self.shards {
            let m = &shard.metrics;
            total.steps += m.reg.counter(m.steps) as usize;
            total.scalar_steps += m.reg.counter(m.scalar_steps) as usize;
            total.batched_rows += m.reg.counter(m.batched_rows) as usize;
            total.batches += m.reg.counter(m.batches) as usize;
            total.f32_rows += m.reg.counter(m.f32_rows) as usize;
            total.cohort_rebuilds += m.reg.counter(m.cohort_rebuilds) as usize;
            total.f32_resyncs += m.reg.counter(m.f32_resyncs) as usize;
            total.bp_blocked += m.reg.counter(m.bp_blocked) as usize;
            total.bp_dropped_newest += m.reg.counter(m.bp_dropped_newest) as usize;
            total.bp_dropped_oldest += m.reg.counter(m.bp_dropped_oldest) as usize;
            total.admitted += m.reg.counter(m.admitted) as usize;
            total.retired += m.reg.counter(m.retired) as usize;
        }
        total
    }

    /// Exports the fleet's full metric registry: the per-shard serving
    /// registries folded together (counters add, the queue high-water
    /// gauge takes the max, latency/batch-width histograms merge
    /// bucket-wise), the aggregated per-detector lifecycle registries, and
    /// two fleet-shape gauges (`sad_fleet_streams`, `sad_fleet_shards`).
    /// Allocates — export path only, never called from `drain_round`.
    pub fn export_metrics(&self) -> Registry {
        let mut reg = self.shards[0].metrics.reg.clone();
        for shard in &self.shards[1..] {
            reg.merge_from(&shard.metrics.reg);
        }
        let streams = reg.register_gauge("sad_fleet_streams", "Live streams served by this fleet.");
        reg.set_gauge(streams, self.live() as f64);
        let shards = reg.register_gauge("sad_fleet_shards", "Worker shards.");
        reg.set_gauge(shards, self.shards.len() as f64);

        // Detector lifecycle aggregate: every live detector's snapshot
        // shares one schema, so they fold into a single population
        // registry. Retired detectors are gone — their serving history
        // stays in the shard counters above.
        let mut lifecycle: Option<Registry> = None;
        for shard in &self.shards {
            for slot in shard.slots.iter().flatten() {
                let snap = slot.det.export_metrics();
                match &mut lifecycle {
                    None => lifecycle = Some(snap),
                    Some(acc) => acc.merge_from(&snap),
                }
            }
        }
        if let Some(lifecycle) = lifecycle {
            reg.absorb(&lifecycle);
        }
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
        let config = DetectorConfig {
            window: 6,
            channels: 2,
            warmup: 60,
            initial_epochs: 2,
            fine_tune_epochs: 1,
        };
        let spec = sad_core::paper_algorithms()
            .iter()
            .copied()
            .find(|s| s.label().contains("AE") && s.label().contains("SW"))
            .expect("AE/SW combination exists");
        let params =
            BuildParams::new(config).with_capacity(20).with_score(ScoreKind::Raw).with_seed(seed);
        build_detector(spec, &params)
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
    fn admit_and_retire_reuse_slots_and_keep_ids_stable() {
        let config = FleetConfig { shards: 2, ..FleetConfig::default() };
        let mut fleet = DetectorFleet::open(config);
        assert!(fleet.is_empty());
        let a = fleet.admit(ae_detector(1));
        let b = fleet.admit(ae_detector(2));
        let c = fleet.admit(ae_detector(3));
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(fleet.live(), 3);

        // Serve a few rounds across all three streams.
        let data = series(40, 0.0);
        let mut out = Vec::new();
        for s in &data {
            for id in [a, b, c] {
                assert!(fleet.enqueue(id, s));
            }
            fleet.drain_round(&mut out);
            assert_eq!(out.len(), 3);
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

        // A later admission reuses b's slot under a fresh id.
        let d = fleet.admit(ae_detector(4));
        assert_eq!(d, 3);
        assert_eq!(fleet.live(), 3);
        assert!(fleet.enqueue(d, &data[0]));
        fleet.drain_round(&mut out);
        assert_eq!(out.len(), 4, "outputs indexed by id history");
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
}
