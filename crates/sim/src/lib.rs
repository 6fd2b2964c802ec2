//! GCN-class GPU timing simulator for the Harmonia reproduction.
//!
//! The paper evaluates on a real AMD Radeon HD7970 (Section 2.2): 32 compute
//! units of 4 × 16-lane SIMDs, per-CU L1/LDS, a shared 768 KiB L2, and six
//! dual-channel GDDR5 memory controllers, with the compute and memory
//! subsystems on *separate clock domains*. This crate models that platform
//! closely enough that Harmonia's sensitivity predictors and governors
//! behave as they do on silicon:
//!
//! * [`device`] — the machine description ([`GpuDescriptor`]).
//! * [`profile`] — [`KernelProfile`], a characterization-driven kernel model
//!   (instruction mix, register/LDS usage, divergence, cache behaviour,
//!   per-iteration phase modulation).
//! * [`occupancy`] — the GCN occupancy calculator (wave slots, VGPR, SGPR,
//!   LDS limits), reproducing e.g. `Sort.BottomScan`'s 30% VGPR-limited
//!   occupancy (Figure 7).
//! * [`counters`] — the performance-counter sample of Table 2 plus the
//!   derived icActivity and compute-to-memory intensity metrics (Eqs. 1–3).
//! * [`interval`] — a fast analytic *interval* timing model (roofline with
//!   occupancy-limited latency hiding, clock-domain crossing, and CU-count-
//!   dependent L2 thrashing).
//! * [`event`] — a discrete-event queueing model of the same machine
//!   (SIMD issue arbitration, memory-channel servers, crossing server),
//!   used to cross-validate the interval model.
//! * [`trace`] — seeded per-wave instruction traces and their replay, the
//!   finest rung of the interval → event → trace fidelity ladder.
//! * [`servers`] — the machine both event-driven models play out on (SIMD
//!   bank, crossing and memory channels) and their future-event set, the
//!   [`SlotQueue`](servers::SlotQueue): a tournament tree with one slot per
//!   resident wave, since each wave has exactly one pending event.
//! * [`model`] — the [`TimingModel`] trait unifying the three, including the
//!   batched `simulate_batch` entry point.
//! * [`batch`] — batched config-grid sweeps: [`SweepPlan`] with per-scale
//!   decision memoization and incremental (frontier-only) re-sweeps driven
//!   by the interval model's phase-scale factorization ([`SweepTerms`]).
//! * [`pool`] — the shared, lazily-initialized sweep worker pool
//!   ([`SweepPool`]), so nested sweeps never oversubscribe the machine.
//! * [`sweep`] — the sweep engine façade: [`sweep::run_indexed`] with
//!   deterministic index-ordered results plus the sharded [`SimCache`]
//!   memoizing simulations across iterations, governors, and figures.
//!
//! # Examples
//!
//! ```
//! use harmonia_sim::{GpuDescriptor, IntervalModel, KernelProfile, TimingModel};
//! use harmonia_types::HwConfig;
//!
//! let gpu = GpuDescriptor::hd7970();
//! let kernel = KernelProfile::builder("stream")
//!     .workitems(1 << 20)
//!     .valu_insts_per_item(8.0)
//!     .vfetch_insts_per_item(4.0)
//!     .build();
//! let model = IntervalModel::new(gpu);
//! let result = model.simulate(HwConfig::max_hd7970(), &kernel, 0);
//! assert!(result.time.value() > 0.0);
//! assert!(result.counters.mem_unit_busy_pct >= 0.0);
//! ```

pub mod batch;
pub mod counters;
pub mod device;
pub mod event;
pub mod faults;
pub mod interval;
pub mod model;
pub mod noise;
pub mod occupancy;
pub mod pool;
pub mod profile;
pub mod servers;
pub mod sweep;
pub mod trace;

pub use batch::{
    Decision, DecisionKind, PlanStats, ScaleKeyHasher, SweepObjective, SweepPlan, SweepPoint,
    SweepTerms,
};
pub use counters::CounterSample;
pub use device::{GpuDescriptor, GridSpec};
pub use event::{EventModel, FastForwardPolicy};
pub use faults::{ActuationOutcome, FaultKind, FaultPlan, FaultSpec, FaultyModel};
pub use interval::IntervalModel;
pub use model::{FastForwardStats, SimResult, TimingModel};
pub use noise::NoisyModel;
pub use occupancy::{Occupancy, OccupancyLimiter};
pub use pool::SweepPool;
pub use profile::{KernelProfile, KernelProfileBuilder, PhaseModulation, PhaseScale};
pub use sweep::{CacheStats, CachedModel, SimCache};
pub use trace::{TraceGenerator, TraceModel, TraceOp, WaveTrace};
