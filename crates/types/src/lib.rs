//! Shared foundation types for the Harmonia (ISCA 2015) reproduction.
//!
//! This crate defines the vocabulary every other crate in the workspace
//! speaks:
//!
//! * [`units`] — zero-cost newtypes for physical quantities ([`MegaHertz`],
//!   [`Volts`], [`Watts`], [`Joules`], [`Seconds`], [`GigabytesPerSec`]).
//!   Using distinct types for frequencies, voltages, and energies prevents
//!   the classic "passed the memory clock where the core clock was expected"
//!   bug that a plain `f64` API invites.
//! * [`config`] — the hardware tunables of the AMD Radeon HD7970 platform the
//!   paper manages: number of active compute units, compute-unit frequency,
//!   and memory bus frequency, together with [`ConfigSpace`], the ~450-point
//!   design space the paper sweeps (Section 3.1).
//! * [`dvfs`] — the DPM voltage/frequency table of Table 1 (plus the 1 GHz
//!   boost state) and voltage interpolation for intermediate frequencies.
//! * [`device`] — the device catalog: [`DeviceSpec`] bundles a
//!   configuration grid ([`GridSpec`]), the simulator geometry
//!   ([`GpuDescriptor`]), a DVFS table, and the power-model calibration for
//!   each named part (`hd7970`, `v100`, `h100`, `jetson-orin`).
//! * [`session`] — the typed [`Session`] configuration centralizing the
//!   `HARMONIA_TRACE` / `HARMONIA_THREADS` / `HARMONIA_FAULT_SEED` /
//!   `HARMONIA_DEVICE` environment knobs behind one parser with
//!   programmatic overrides.
//!
//! # Examples
//!
//! ```
//! use harmonia_types::{ComputeConfig, MemoryConfig, HwConfig, ConfigSpace};
//!
//! let space = ConfigSpace::hd7970();
//! assert_eq!(space.len(), 448); // "approximately 450" in the paper
//!
//! let max = HwConfig::new(ComputeConfig::max_hd7970(), MemoryConfig::max_hd7970());
//! assert!(space.contains(max));
//! // Hardware ops/byte delivered by the platform at this configuration:
//! let ops_per_byte = max.hw_ops_per_byte_on(space.grid());
//! assert!(ops_per_byte > 0.0);
//! ```

pub mod config;
pub mod device;
pub mod dvfs;
pub mod session;
pub mod units;

pub use config::{
    ComputeConfig, ConfigError, ConfigPoint, ConfigSpace, HwConfig, MemoryConfig, Tunable,
    TunableLevel,
};
pub use device::{
    ComputePowerParams, DevicePower, DeviceSpec, GpuDescriptor, GridSpec, MemoryPowerParams,
    ParseDeviceError,
};
pub use dvfs::{DpmState, DvfsTable};
pub use session::{
    Session, DEFAULT_FAULT_SEED, DEVICE_ENV, FAULT_SEED_ENV, THREADS_ENV, TRACE_ENV,
};
pub use units::{GigabytesPerSec, Joules, MegaHertz, Seconds, Volts, Watts};
