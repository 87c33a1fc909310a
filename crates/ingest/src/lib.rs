//! Streaming ingestion front-end for the detector fleet.
//!
//! Everything between a socket and [`sad_fleet::DetectorFleet::enqueue`]
//! lives here:
//!
//! * `frame` ([`Frame`], [`encode_frame_into`], [`encode_csv_line_into`])
//!   — the length-prefixed binary wire format and its CSV line fallback.
//!   Binary frames round-trip `f64`s bitwise; CSV lines are value-exact
//!   via shortest-round-trip formatting.
//! * [`Transport`] — pluggable frame sources ([`FramedTransport`],
//!   [`CsvTransport`]) decoding into caller-owned reusable buffers, plus
//!   the mirroring [`FrameWriter`] and the [`replay_series`] /
//!   [`replay_interleaved`] replay client.
//! * [`IngestEngine`] — routes frames to fleet streams, admits detectors
//!   on first contact ([`DetectorTemplate`]), maps back-pressure onto the
//!   bounded per-stream queues ([`BackpressurePolicy`]), schedules drain
//!   rounds, and retires idle streams.
//!
//! The steady-state path — decode, route, enqueue, drain — performs zero
//! heap allocations (pinned by `tests/zero_alloc.rs` under a counting
//! allocator), and serve-mode outputs are bitwise-identical to the
//! offline [`sad_fleet::DetectorFleet::run`] over the same per-stream
//! data (pinned by `tests/serve_parity.rs`). The `streamad serve`
//! subcommand and the `ingest_throughput` bench are thin wrappers over
//! these pieces.

mod engine;
mod frame;
mod transport;

pub use engine::{DetectorTemplate, EngineConfig, EngineSink, IngestEngine, IngestStats};
pub use frame::{encode_csv_line_into, encode_frame_into, Frame, MAX_FRAME_CHANNELS};
pub use transport::{
    replay_interleaved, replay_series, CsvTransport, FrameWriter, FramedTransport, Framing,
    Transport,
};

// The fleet types a transport caller needs to configure an engine.
pub use sad_fleet::{BackpressurePolicy, FleetConfig, OfferOutcome};
