//! Analytic power model of the AMD Radeon HD7970 graphics card.
//!
//! The paper measures three quantities with a National Instruments DAQ
//! (Section 6):
//!
//! * **GPUCardPwr** — total card power at the PCIe connector,
//! * **GPUPwr** — GPU chip power (compute + integrated memory controller),
//! * **OtherPwr** — fan, voltage regulators, board losses (held constant by
//!   pinning the fan at maximum RPM),
//!
//! and derives memory power as `MemPwr = GPUCardPwr − GPUPwr − OtherPwr`
//! (Equation 4). This crate reproduces those observables analytically:
//!
//! * [`compute`] — per-CU dynamic CV²f power, voltage-dependent leakage, and
//!   uncore (L2/crossbar) power; inactive CUs are power gated.
//! * [`memory`] — GDDR5 power split into background, activate/pre-charge,
//!   read/write, and termination components plus the DDR PHY and PLL
//!   (Section 2.4 enumerates exactly these components), at the platform's
//!   fixed memory voltage.
//! * [`model`] — [`PowerModel`] combining the pieces into a
//!   [`PowerBreakdown`] for any ([`HwConfig`], [`Activity`]) pair.
//! * [`trace`] — a 1 kHz [`PowerTrace`] sampler mimicking the paper's DAQ
//!   setup, with energy integration.
//!
//! Absolute watt values are calibrated to the published *shapes* (Figures 1,
//! 4 and 5), not to the authors' exact card — see `DESIGN.md`.
//!
//! [`HwConfig`]: harmonia_types::HwConfig
//!
//! # Examples
//!
//! ```
//! use harmonia_power::{Activity, PowerModel};
//! use harmonia_types::HwConfig;
//!
//! let model = PowerModel::hd7970();
//! // Moderately busy ALUs, hot memory.
//! let busy = Activity::streaming_on(model.grid(), 0.4, 0.9);
//! let p = model.breakdown(HwConfig::max_hd7970(), &busy);
//! assert!(p.card_pwr().value() > 100.0);
//! assert!(p.mem_pwr().value() > 0.0);
//! ```

pub mod compute;
pub mod memory;
pub mod model;
pub mod thermal;
pub mod trace;

pub use compute::ComputePowerParams;
pub use memory::MemoryPowerParams;
pub use model::{Activity, PowerBreakdown, PowerModel};
pub use thermal::{ThermalModel, ThermalParams};
pub use trace::{PowerSample, PowerTrace};
