//! `repro`: a cold reproduction of every paper experiment, as a user
//! running `experiments all` pays it.

use crate::harness::{same_as_first, Harness, Workload};
use crate::util::fnv1a;
use harmonia_experiments::{Context, Report, ALL_EXPERIMENTS};
use harmonia_stats::geometric_mean;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// The CSV digests every op's reports must match, one `<id> <fnv1a hex>`
/// line per experiment. Regenerate with `--bless` after a deliberate
/// change to what an experiment prints.
pub const DIGESTS: &str = include_str!("../repro_digests.txt");

/// Parses [`DIGESTS`]-formatted text.
pub fn parse_digests(text: &str) -> Result<BTreeMap<String, u64>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let (id, hex) = l
                .split_once(' ')
                .ok_or_else(|| format!("malformed digest line {l:?}"))?;
            let digest = u64::from_str_radix(hex.trim(), 16).map_err(|e| format!("{l:?}: {e}"))?;
            Ok((id.to_string(), digest))
        })
        .collect()
}

/// One op: all 32 experiment ids through `harmonia_experiments::run` on a
/// fresh `Context`, predictor training and fit included.
pub struct Repro<'h> {
    h: &'h Harness,
    expected: BTreeMap<String, u64>,
    /// Where each op's CSVs are written for the digest check.
    out: PathBuf,
    last: Vec<Report>,
    last_ratio: f64,
    /// Bits of the first op's ED² ratio.
    reference_ratio: Option<u64>,
    /// Digest over the CSV digests of the last checked op.
    checked: u64,
}

impl<'h> Repro<'h> {
    /// Loads the expected digests; CSVs go under `out`.
    pub fn new(h: &'h Harness, out: &Path) -> Result<Self, String> {
        Ok(Self {
            h,
            expected: parse_digests(DIGESTS)?,
            out: out.to_path_buf(),
            last: Vec::new(),
            last_ratio: f64::NAN,
            reference_ratio: None,
            checked: 0,
        })
    }

    /// The CSV digest of every report of the last op.
    pub fn digests(&self) -> Result<BTreeMap<String, u64>, String> {
        self.last
            .iter()
            .map(|report| {
                let path = report
                    .write_csv(&self.out)
                    .map_err(|e| format!("{}: {e}", self.out.display()))?;
                let bytes = fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                Ok((report.id.clone(), fnv1a(&bytes)))
            })
            .collect()
    }
}

impl Workload for Repro<'_> {
    fn op(&mut self) {
        let t = &self.h.tracer;
        let ctx = Context::new();
        t.span(t.name("core.training"), || ctx.training());
        t.span(t.name("core.fit"), || ctx.predictor());
        self.last = ALL_EXPERIMENTS
            .iter()
            .map(|id| {
                t.span(t.name(&format!("experiments.{id}")), || {
                    harmonia_experiments::run(&ctx, id).expect("every listed experiment id runs")
                })
            })
            .collect();
        // Fig 10's headline: Harmonia's ED² over the baseline's, per app.
        let ratios: Vec<f64> = ctx
            .matrix()
            .iter()
            .map(|e| e.harmonia.ed2() / e.baseline.ed2())
            .collect();
        self.last_ratio = geometric_mean(&ratios).unwrap_or(f64::NAN);
    }

    fn check(&mut self) -> Result<(), String> {
        let digests = self.digests()?;
        let bytes: Vec<u8> = digests.values().flat_map(|v| v.to_le_bytes()).collect();
        self.checked = fnv1a(&bytes);
        let wrong: BTreeSet<&str> = self
            .expected
            .keys()
            .chain(digests.keys())
            .filter(|id| digests.get(*id) != self.expected.get(*id))
            .map(String::as_str)
            .collect();
        if !wrong.is_empty() {
            return Err(format!(
                "CSV digests differ from repro_digests.txt for {}",
                wrong.into_iter().collect::<Vec<_>>().join(", ")
            ));
        }
        same_as_first(
            &mut self.reference_ratio,
            &self.last_ratio.to_bits(),
            "ED² ratio bits",
        )
    }

    fn ed2_ratio(&self) -> f64 {
        self.reference_ratio.map_or(f64::NAN, f64::from_bits)
    }

    fn fingerprint(&self) -> String {
        format!(
            "repro ed2-ratio-bits={:016x} csv-digests={:016x}",
            self.ed2_ratio().to_bits(),
            self.checked
        )
    }

    fn describe(&self) -> String {
        format!(
            "op = all {} experiments on a fresh Context; the seed is unused because the paper suite is fixed",
            ALL_EXPERIMENTS.len()
        )
    }
}
