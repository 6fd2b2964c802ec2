//! Fleet-scale governor service: many device sessions, one power budget.
//!
//! Harmonia (the core crate) governs a single GPU. This crate is the
//! deployment layer the ROADMAP's north star asks for: a [`FleetScheduler`]
//! drives hundreds to thousands of concurrent device sessions in lock-step
//! ticks, batching every device's per-tick decision work over the shared
//! work-stealing [`SweepPool`](harmonia_sim::SweepPool) from `harmonia-sim`.
//! Three pieces make fleet scale cheap and safe:
//!
//! * One shared [`PlanStore`](harmonia::governor::PlanStore), core's
//!   oracle store, keyed by *(device class, kernel fingerprint)*. Every
//!   device decides each invocation once, through the store handle it
//!   resolved for the kernel on its first tick, so the first device of a
//!   class to meet a kernel pays the one batched cold sweep and every
//!   other device of that class running the same kernel replays the
//!   memoized decision (`BENCH_sweep.json` puts the warm re-decision at
//!   ~0.1 µs, so fleet cost is orchestration, not modeling). That
//!   decision is the oracle's ED² argmin and carries its own simulation,
//!   so an uncapped device never probes the cache outside a sweep.
//!   Heterogeneous fleets register extra catalog devices with
//!   [`FleetScheduler::with_class`] and run via
//!   [`FleetScheduler::run_mixed`]; the shared cache never aliases across
//!   devices because its key embeds the device fingerprint.
//! * [`ClusterGovernor`] — partitions one global power cap across devices
//!   by water-filling on each device's predicted ED² marginal benefit per
//!   watt, re-balancing every tick as workloads phase-shift. Each device
//!   enforces its share with the core
//!   [`CappedGovernor`](harmonia::governor::CappedGovernor): the session
//!   hands its decision to
//!   [`CappedGovernor::grant`](harmonia::governor::CappedGovernor::grant),
//!   the same clamp a single session's `Governor::decide` runs, so no
//!   fleet path asks a plan twice.
//! * Deterministic merge — device steps run in parallel, but every
//!   reduction (cluster power sums, cap partitioning, report assembly)
//!   happens serially in device-id order, and all shared-cache access for
//!   one kernel is serialized through that kernel's plan lock. The
//!   resulting [`FleetReport`] is byte-identical for any worker count;
//!   [`FleetReport::canonical`] exposes the bit-exact form tests compare.
//!
//! Policies parse from [`FleetSpec`]: `fleet:oracle` (the oracle over the
//! shared store, no budget) and `fleet:capped[@W]` (global cluster cap,
//! default [`DEFAULT_CAP`](harmonia::governor::DEFAULT_CAP) per device) —
//! the fleet-level generalization of the core registry's `capped[@W]`.

pub mod cluster;
pub mod device;
pub mod report;
pub mod scheduler;
pub mod spec;

pub use cluster::{Allocation, ClusterGovernor, DeviceDemand};
pub use device::{DeviceReport, DeviceSession, TickOutcome};
pub use report::{FleetReport, FleetRun};
pub use scheduler::FleetScheduler;
pub use spec::FleetSpec;
