//! Measured performance sensitivities (Section 4.1).
//!
//! "Sensitivity ... is computed as the ratio of the relative change in the
//! performance metric to the relative change in the corresponding values of
//! the hardware tunable", with the *other* tunables held at their maxima so
//! they are not the limiting factor. CU-count and CU-frequency sensitivities
//! are aggregated into a single compute-throughput sensitivity.

use harmonia_sim::{CachedModel, KernelProfile, SimCache, TimingModel};
use harmonia_types::{ComputeConfig, GridSpec, HwConfig, MegaHertz, MemoryConfig};
use serde::{Deserialize, Serialize};

/// The four probe configurations sensitivity measurement simulates on a
/// grid: the shared maximum plus one lowered point per tunable (half the
/// CUs, half the compute clock — both snapped onto the grid — and the
/// minimum memory clock). On [`GridSpec::HD7970`] these are the paper's
/// (32, 1000, 1375) / (16, 1000, 1375) / (32, 500, 1375) / (32, 1000, 475).
fn probe_points(grid: &GridSpec) -> [(u32, MegaHertz, MegaHertz); 4] {
    let cu_hi = grid.cu_max;
    let cu_target = grid.cu_max / 2;
    let cu_lo = if cu_target <= grid.cu_min {
        grid.cu_min
    } else {
        grid.cu_min + ((cu_target - grid.cu_min) / grid.cu_step) * grid.cu_step
    };
    let f_hi = grid.cu_freq_max;
    let f_lo = grid.snap_cu_freq(MegaHertz(f_hi.value() / 2));
    let m_hi = grid.mem_freq_max;
    let m_lo = grid.mem_freq_min;
    [(cu_hi, f_hi, m_hi), (cu_lo, f_hi, m_hi), (cu_hi, f_lo, m_hi), (cu_hi, f_hi, m_lo)]
}

/// A kernel's measured (or predicted) sensitivities, as fractions where 1.0
/// means perfect proportional scaling with the tunable and 0.0 means no
/// effect. Values may exceed [0, 1] slightly (super-linear effects) or go
/// negative (e.g. cache thrashing makes *fewer* CUs faster).
///
/// Sensitivity is kept *per tunable* — "Sensitivity is computed for each
/// tunable using weighted linear equation per Table 3" (Section 5.2) — with
/// [`Sensitivity::compute`] providing the aggregated compute-throughput
/// number the paper also reports.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Sensitivity {
    /// Sensitivity to the number of active CUs.
    pub cu: f64,
    /// Sensitivity to the CU clock frequency.
    pub freq: f64,
    /// Sensitivity to memory bandwidth (memory bus frequency).
    pub bandwidth: f64,
}

impl Sensitivity {
    /// The aggregated compute-throughput sensitivity (Section 4.1: "the
    /// sensitivity to the number of CUs and CU frequency are aggregated into
    /// a single compute throughput sensitivity metric").
    pub fn compute(&self) -> f64 {
        0.5 * (self.cu + self.freq)
    }

    /// Invocations averaged by [`Sensitivity::measure`].
    pub const MEASURE_ITERATIONS: u64 = 4;

    /// Simulations one [`Sensitivity::measure`] call issues when nothing is
    /// memoized: per iteration, each of the three sensitivities probes a
    /// high and a low point (the shared high point is re-simulated by each).
    pub const SIMULATIONS_PER_MEASURE: usize = 6 * Self::MEASURE_ITERATIONS as usize;

    /// Measures all sensitivities of `kernel` on `model`, averaged over
    /// the first four invocations so data-dependent phases contribute (the
    /// paper executes "multiple times for multiple iterations" and averages;
    /// Section 4.1).
    pub fn measure<M: TimingModel>(model: &M, kernel: &KernelProfile) -> Sensitivity {
        Self::measure_on(&GridSpec::HD7970, model, kernel)
    }

    /// [`Sensitivity::measure`] on an arbitrary device grid: the probe
    /// points come from the grid (see `probe_points`) so catalog devices
    /// measure sensitivity across *their* tunable ranges.
    pub fn measure_on<M: TimingModel>(
        grid: &GridSpec,
        model: &M,
        kernel: &KernelProfile,
    ) -> Sensitivity {
        Self::measure_cached_on(grid, model, &SimCache::new(), kernel)
    }

    /// [`Sensitivity::measure`] through a shared simulation cache: the four
    /// probe configurations are pre-warmed with one batched sweep per
    /// averaged invocation, then the probe ratios are read back as pure
    /// cache hits. Callers that already swept the configuration space
    /// (training collection) pass their cache so every probe point is free.
    pub fn measure_cached<M: TimingModel>(
        model: &M,
        cache: &SimCache,
        kernel: &KernelProfile,
    ) -> Sensitivity {
        Self::measure_cached_on(&GridSpec::HD7970, model, cache, kernel)
    }

    /// [`Sensitivity::measure_cached`] on an arbitrary device grid.
    pub fn measure_cached_on<M: TimingModel>(
        grid: &GridSpec,
        model: &M,
        cache: &SimCache,
        kernel: &KernelProfile,
    ) -> Sensitivity {
        const ITERS: u64 = Sensitivity::MEASURE_ITERATIONS;
        let probe_cfgs: Vec<HwConfig> = probe_points(grid)
            .iter()
            .map(|&(cu, freq, mem)| {
                HwConfig::new(
                    ComputeConfig::new_on(grid, cu, freq).expect("valid grid point"),
                    MemoryConfig::new_on(grid, mem).expect("valid grid point"),
                )
            })
            .collect();
        let cached = CachedModel::new(model, cache);
        for i in 0..ITERS {
            cached.simulate_batch(&probe_cfgs, kernel, i);
        }
        let mut acc = Sensitivity::default();
        for i in 0..ITERS {
            let s = Self::measure_at_on(grid, &cached, kernel, i);
            acc.cu += s.cu;
            acc.freq += s.freq;
            acc.bandwidth += s.bandwidth;
        }
        Sensitivity {
            cu: acc.cu / ITERS as f64,
            freq: acc.freq / ITERS as f64,
            bandwidth: acc.bandwidth / ITERS as f64,
        }
    }

    /// Measures sensitivities at a specific invocation index (phase).
    pub fn measure_at<M: TimingModel>(
        model: &M,
        kernel: &KernelProfile,
        iteration: u64,
    ) -> Sensitivity {
        Self::measure_at_on(&GridSpec::HD7970, model, kernel, iteration)
    }

    /// [`Sensitivity::measure_at`] on an arbitrary device grid.
    pub fn measure_at_on<M: TimingModel>(
        grid: &GridSpec,
        model: &M,
        kernel: &KernelProfile,
        iteration: u64,
    ) -> Sensitivity {
        Sensitivity {
            cu: cu_sensitivity_on(grid, model, kernel, iteration),
            freq: freq_sensitivity_on(grid, model, kernel, iteration),
            bandwidth: bandwidth_sensitivity_on(grid, model, kernel, iteration),
        }
    }
}

fn time_at<M: TimingModel>(
    grid: &GridSpec,
    model: &M,
    kernel: &KernelProfile,
    iteration: u64,
    cu: u32,
    freq: MegaHertz,
    mem: MegaHertz,
) -> f64 {
    let cfg = HwConfig::new(
        ComputeConfig::new_on(grid, cu, freq).expect("valid grid point"),
        MemoryConfig::new_on(grid, mem).expect("valid grid point"),
    );
    model.simulate(cfg, kernel, iteration).time.value()
}

/// Sensitivity of execution time to the number of active CUs, measured
/// between 16 and 32 CUs with frequency and bandwidth at maximum.
pub fn cu_sensitivity<M: TimingModel>(model: &M, kernel: &KernelProfile, iteration: u64) -> f64 {
    cu_sensitivity_on(&GridSpec::HD7970, model, kernel, iteration)
}

/// [`cu_sensitivity`] on an arbitrary device grid: between roughly half
/// the CUs and all of them, clocks at maximum.
pub fn cu_sensitivity_on<M: TimingModel>(
    grid: &GridSpec,
    model: &M,
    kernel: &KernelProfile,
    iteration: u64,
) -> f64 {
    let [(cu_hi, f_hi, m_hi), (cu_lo, _, _), _, _] = probe_points(grid);
    let t_hi = time_at(grid, model, kernel, iteration, cu_hi, f_hi, m_hi);
    let t_lo = time_at(grid, model, kernel, iteration, cu_lo, f_hi, m_hi);
    relative_sensitivity(t_lo, t_hi, f64::from(cu_hi) / f64::from(cu_lo))
}

/// Sensitivity to CU frequency, measured between 500 MHz and 1 GHz.
pub fn freq_sensitivity<M: TimingModel>(model: &M, kernel: &KernelProfile, iteration: u64) -> f64 {
    freq_sensitivity_on(&GridSpec::HD7970, model, kernel, iteration)
}

/// [`freq_sensitivity`] on an arbitrary device grid: between roughly half
/// the maximum compute clock (snapped on-grid) and the maximum.
pub fn freq_sensitivity_on<M: TimingModel>(
    grid: &GridSpec,
    model: &M,
    kernel: &KernelProfile,
    iteration: u64,
) -> f64 {
    let [(cu_hi, f_hi, m_hi), _, (_, f_lo, _), _] = probe_points(grid);
    let t_hi = time_at(grid, model, kernel, iteration, cu_hi, f_hi, m_hi);
    let t_lo = time_at(grid, model, kernel, iteration, cu_hi, f_lo, m_hi);
    relative_sensitivity(t_lo, t_hi, f64::from(f_hi.value()) / f64::from(f_lo.value()))
}

/// Sensitivity to memory bandwidth, measured between 475 MHz and 1375 MHz
/// bus clocks (90 → 264 GB/s).
pub fn bandwidth_sensitivity<M: TimingModel>(
    model: &M,
    kernel: &KernelProfile,
    iteration: u64,
) -> f64 {
    bandwidth_sensitivity_on(&GridSpec::HD7970, model, kernel, iteration)
}

/// [`bandwidth_sensitivity`] on an arbitrary device grid: between the
/// grid's minimum and maximum memory bus clocks.
pub fn bandwidth_sensitivity_on<M: TimingModel>(
    grid: &GridSpec,
    model: &M,
    kernel: &KernelProfile,
    iteration: u64,
) -> f64 {
    let [(cu_hi, f_hi, m_hi), _, _, (_, _, m_lo)] = probe_points(grid);
    let t_hi = time_at(grid, model, kernel, iteration, cu_hi, f_hi, m_hi);
    let t_lo = time_at(grid, model, kernel, iteration, cu_hi, f_hi, m_lo);
    relative_sensitivity(t_lo, t_hi, f64::from(m_hi.value()) / f64::from(m_lo.value()))
}

/// `((t_low / t_high) − 1) / (ratio − 1)`: 1.0 when time scales perfectly
/// inversely with the tunable, 0.0 when the tunable does not matter,
/// negative when *more* resource makes things slower.
fn relative_sensitivity(t_low: f64, t_high: f64, resource_ratio: f64) -> f64 {
    (t_low / t_high - 1.0) / (resource_ratio - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_sim::IntervalModel;
    use harmonia_workloads::suite;

    fn model() -> IntervalModel {
        IntervalModel::default()
    }

    #[test]
    fn maxflops_is_compute_sensitive_not_bandwidth() {
        let app = suite::maxflops();
        let s = Sensitivity::measure(&model(), &app.kernels[0]);
        assert!(s.compute() > 0.8, "MaxFlops compute sensitivity {}", s.compute());
        assert!(s.bandwidth < 0.1, "MaxFlops bandwidth sensitivity {}", s.bandwidth);
    }

    #[test]
    fn devicememory_is_bandwidth_sensitive() {
        let app = suite::devicememory();
        let s = Sensitivity::measure(&model(), &app.kernels[0]);
        assert!(s.bandwidth > 0.6, "DeviceMemory bandwidth sensitivity {}", s.bandwidth);
        // Compute sensitivity is moderate (clock-domain crossing; Fig 9),
        // not zero.
        assert!(s.compute() < 0.6);
    }

    #[test]
    fn bottom_scan_compute_sensitive_bandwidth_insensitive() {
        // Figure 8 / Section 7.1: high compute sensitivity, can drop the
        // memory bus to 475 MHz.
        let app = suite::sort();
        let k = app.kernel("Sort.BottomScan").unwrap();
        let s = Sensitivity::measure(&model(), k);
        assert!(s.compute() > 0.5, "BottomScan compute {}", s.compute());
        assert!(s.bandwidth < 0.25, "BottomScan bandwidth {}", s.bandwidth);
    }

    #[test]
    fn srad_prepare_is_insensitive_to_compute() {
        // Figure 8: 75% divergence but 8 instructions — overhead dominated.
        let app = suite::srad();
        let k = app.kernel("SRAD.Prepare").unwrap();
        let s = Sensitivity::measure(&model(), k);
        assert!(s.compute() < 0.3, "SRAD.Prepare compute {}", s.compute());
    }

    #[test]
    fn advance_velocity_more_bandwidth_sensitive_than_bottom_scan() {
        // Figure 7's ordering.
        let comd = suite::comd();
        let sort = suite::sort();
        let av = Sensitivity::measure(&model(), comd.kernel("CoMD.AdvanceVelocity").unwrap());
        let bs = Sensitivity::measure(&model(), sort.kernel("Sort.BottomScan").unwrap());
        assert!(
            av.bandwidth > bs.bandwidth + 0.1,
            "AdvanceVelocity {} vs BottomScan {}",
            av.bandwidth,
            bs.bandwidth
        );
    }

    #[test]
    fn bpt_cu_sensitivity_is_negative() {
        // Thrashing: fewer CUs are faster, so CU sensitivity < 0.
        let app = suite::bpt();
        let k = app.kernel("BPT.FindK").unwrap();
        let cu = cu_sensitivity(&model(), k, 0);
        assert!(cu < 0.05, "BPT CU sensitivity {cu} should be ~negative");
    }

    #[test]
    fn probe_points_are_on_grid_for_every_catalog_device() {
        use harmonia_types::DeviceSpec;
        // The HD7970 probes are exactly the paper's four points.
        assert_eq!(
            probe_points(&GridSpec::HD7970),
            [
                (32, MegaHertz(1000), MegaHertz(1375)),
                (16, MegaHertz(1000), MegaHertz(1375)),
                (32, MegaHertz(500), MegaHertz(1375)),
                (32, MegaHertz(1000), MegaHertz(475)),
            ]
        );
        for name in DeviceSpec::catalog() {
            let spec = DeviceSpec::lookup(name).expect(name);
            let grid = spec.grid();
            for (cu, f, m) in probe_points(grid) {
                assert!(ComputeConfig::new_on(grid, cu, f).is_ok(), "{name} ({cu}, {f:?})");
                assert!(MemoryConfig::new_on(grid, m).is_ok(), "{name} {m:?}");
            }
            // Each lowered probe genuinely differs from the shared maximum,
            // so the sensitivity ratios are well-defined on every device.
            let [(cu_hi, f_hi, m_hi), (cu_lo, _, _), (_, f_lo, _), (_, _, m_lo)] =
                probe_points(grid);
            assert!(cu_lo < cu_hi, "{name} CU probe");
            assert!(f_lo < f_hi, "{name} freq probe");
            assert!(m_lo < m_hi, "{name} mem probe");
        }
    }

    #[test]
    fn catalog_devices_measure_finite_sensitivities() {
        let app = suite::maxflops();
        for name in harmonia_types::DeviceSpec::catalog() {
            let spec = harmonia_types::DeviceSpec::lookup(name).expect(name);
            let m = IntervalModel::new(spec.gpu);
            let s = Sensitivity::measure_on(spec.grid(), &m, &app.kernels[0]);
            assert!(s.cu.is_finite() && s.freq.is_finite() && s.bandwidth.is_finite(), "{name}");
            // MaxFlops stays compute-bound on every catalog part.
            assert!(s.compute() > 0.5, "{name} compute sensitivity {}", s.compute());
        }
    }

    #[test]
    fn relative_sensitivity_identities() {
        // Perfect scaling: halving the resource doubles the time.
        assert!((relative_sensitivity(2.0, 1.0, 2.0) - 1.0).abs() < 1e-12);
        // No effect.
        assert!(relative_sensitivity(1.0, 1.0, 2.0).abs() < 1e-12);
        // Inverse effect (more resource is slower).
        assert!(relative_sensitivity(0.5, 1.0, 2.0) < 0.0);
    }

    #[test]
    fn sensitivities_bounded_for_whole_suite() {
        let m = model();
        for (_, k) in suite::training_kernels() {
            let s = Sensitivity::measure(&m, &k);
            assert!(
                (-1.0..=1.5).contains(&s.compute()),
                "{} compute {} out of band",
                k.name,
                s.compute()
            );
            assert!(
                (-0.5..=1.5).contains(&s.bandwidth),
                "{} bandwidth {} out of band",
                k.name,
                s.bandwidth
            );
        }
    }
}
