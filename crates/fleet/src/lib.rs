//! **cordial-fleet** — a self-healing supervisor for fleets of Cordial
//! monitors.
//!
//! The paper's deployment target is a production platform with >80,000
//! HBMs; one clean stream into one monitor is not the serving reality.
//! This crate adds the layer above a single
//! [`CordialMonitor`](cordial::monitor::CordialMonitor):
//!
//! * [`DeviceHost`] owns one monitor per device ([`DeviceId`]:
//!   node/NPU/HBM-socket) behind a circuit breaker, contains monitor
//!   panics, and checkpoints into and restores from the durable store. The
//!   supervisor and every shard of the `cordial-served` daemon own one.
//! * [`FleetSupervisor`] demultiplexes an interleaved fleet stream into its
//!   host and self-heals at two levels —
//! * **device level**: a per-device [`CircuitBreaker`]
//!   (Closed → Open → HalfOpen → Evicted) trips on contained panics, guard
//!   rejection rates or a stalled-stream watchdog; quarantine backs off
//!   exponentially with seeded jitter, and each re-probe restarts the
//!   monitor from its last
//!   [`MonitorCheckpoint`](cordial::monitor::MonitorCheckpoint);
//! * **model level**: [`ModelRegistry`] keeps the incumbent and
//!   last-known-good models, a shadow-scoring promotion gate
//!   ([`shadow_score`]/[`clears_gate`]) admits candidates only when they
//!   clear the incumbent by fixed margins, and live precision
//!   (from [`MonitorStats`](cordial::monitor::MonitorStats)) below the
//!   floor triggers automatic rollback.
//!
//! [`run_fleet_harness`] wires it to `cordial-chaos`: kill a fraction of
//! devices (sticky panic injection), corrupt a fraction of streams, and
//! assert that the supervisor quarantines exactly the offenders while the
//! healthy fleet's stats stay byte-identical to an uninjected run.
//!
//! Everything runs on *stream time* with seeded randomness: no wall-clock
//! reads, no thread-count dependence, bit-reproducible verdicts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The supervisor must degrade, never panic, on any input.
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod breaker;
mod harness;
mod host;
mod registry;
mod supervisor;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, MAX_BACKOFF_DOUBLINGS};
pub use cordial_topology::DeviceId;
pub use harness::{run_fleet_harness, FleetHarnessConfig, FleetReport};
pub use host::{DeviceHost, DeviceStatus, HostConfig, RouteOutcome, SharedStore};
pub use registry::{clears_gate, shadow_score, ModelRegistry, PromotionDecision, ShadowScore};
pub use supervisor::{FleetSupervisor, RelearnOutcomes, SupervisorConfig, AVAILABILITY_BOUNDS};
