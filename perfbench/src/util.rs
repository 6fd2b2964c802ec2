//! Small helpers: seeded input generation, digests, order statistics and
//! process counters read from `/proc`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fs;
use std::hash::BuildHasherDefault;
use std::time::Duration;

/// SplitMix64: the seeded generator every workload input is drawn from.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index below `n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A fixed task, timed before every op so that op latency can be read
/// against the host's speed at the time: 6,000 upserts of formatted
/// kernel-like names into a map of 1,500 keys, the string building,
/// hashing and small allocations the governor stacks and recorders do.
/// It takes about 1 ms on a 2-vCPU Xeon cloud host, and it calls no
/// workspace code, so a change to the workspace leaves it as it is.
pub fn reference_task() {
    let mut map: HashMap<String, f64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut rng = SplitMix::new(0x5EED);
    for i in 0..6_000u32 {
        let key = format!("Kernel.{}", rng.next_u64() % 1_500);
        *map.entry(key).or_insert(0.0) += f64::from(i) * 0.5;
    }
    std::hint::black_box(&map);
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Median of `values` (sorted in place; 0 for none).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The `q`-quantile of `sorted` (nearest rank).
pub fn quantile(sorted: &[Duration], q: f64) -> Duration {
    let last = sorted.len().saturating_sub(1);
    sorted
        .get((last as f64 * q).round() as usize)
        .copied()
        .unwrap_or_default()
}

/// The op-latency tail: the highest percentile with at least ten ops
/// beyond it, as (latency, percentile, ops beyond). With fewer than eleven
/// ops it is the slowest op.
pub fn tail(sorted: &[Duration]) -> (Duration, f64, usize) {
    const BEYOND: usize = 10;
    let n = sorted.len();
    if n <= BEYOND {
        return (sorted.last().copied().unwrap_or_default(), 100.0, 0);
    }
    let rank = n - BEYOND - 1;
    (sorted[rank], 100.0 * (rank + 1) as f64 / n as f64, BEYOND)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// CPU time consumed so far by the live threads of this process, summed
/// from `/proc/self/task/*/schedstat` (nanosecond resolution).
pub fn process_cpu() -> Result<Duration, String> {
    let tasks = fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    let mut ns = 0u64;
    for task in tasks {
        let path = task.map_err(|e| e.to_string())?.path().join("schedstat");
        // A thread may exit between the listing and the read.
        let Ok(stat) = fs::read_to_string(&path) else {
            continue;
        };
        ns += stat
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("{}: malformed", path.display()))?;
    }
    Ok(Duration::from_nanos(ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_has_ten_ops_beyond_it() {
        let lat: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let (v, p, beyond) = tail(&lat);
        assert_eq!((v, beyond), (Duration::from_millis(90), 10));
        assert!((p - 90.0).abs() < 1e-12);
        assert_eq!(tail(&lat[..5]).0, Duration::from_millis(5));
    }

    #[test]
    fn quantiles_take_the_nearest_rank() {
        let lat: Vec<Duration> = (0..=100).map(Duration::from_millis).collect();
        assert_eq!(quantile(&lat, 0.1), Duration::from_millis(10));
        assert_eq!(quantile(&lat, 0.5), Duration::from_millis(50));
        assert_eq!(quantile(&[], 0.1), Duration::ZERO);
    }

    #[test]
    fn shuffles_are_seeded_permutations() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..50).collect();
            SplitMix::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(shuffled(7), shuffled(7));
        assert_ne!(shuffled(7), shuffled(8));
        let mut sorted = shuffled(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn medians() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
