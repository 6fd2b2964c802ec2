//! A warm governor decision allocates nothing.
//!
//! Harmonia's controller runs at every kernel boundary, so the per-decision
//! path of every registry stack — `decide`, `condition` and `observe` — must
//! do only per-decision work: per-kernel state is created the first time a
//! kernel is seen, and a warm invocation reuses it. A counting global
//! allocator with a thread-local counter measures the allocations made
//! inside those three calls while each of the nine `session` stacks governs
//! the 14 suite apps with telemetry off, from each app's third iteration on.
//! The same counter pins two pieces every stack uses: a coarse-grain jump
//! (`HwConfig::with_fraction_on`) allocates nothing, and a stack's shared
//! counters (`PolicyStats`) are one allocation. It also pins the session
//! trace of a recorded chaos session: every kernel-bearing event shares
//! its profile's name, and reading the stream back — `Recorder::events`
//! and `codec::decode` — allocates per distinct name and per retry
//! resolution's fault-kind list, never per decision, sample, sanitizer
//! substitution or actuator fault. Encoding that session takes a fixed
//! handful of allocations, and diffing it against its decoded copy none.

use harmonia::dataset::TrainingSet;
use harmonia::governor::{PolicyResources, PolicySpec, PolicyStats};
use harmonia::predictor::SensitivityPredictor;
use harmonia::runtime::{RetryPolicy, Runtime};
use harmonia::telemetry::TraceHandle;
use harmonia_experiments::rr_cmd::chaos_plan;
use harmonia_power::PowerModel;
use harmonia_rr::{codec, differ, Recorder, SessionEvent};
use harmonia_sim::{FaultyModel, IntervalModel, TimingModel};
use harmonia_types::{DeviceSpec, HwConfig, Tunable};
use harmonia_workloads::suite;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting every allocation made on the calling
/// thread (allocations, zeroed allocations and reallocations alike).
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the counter may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f`, returning its result and the allocations it made on this
/// thread.
fn counting<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The registry stacks the `session` benchmark runs.
const STACKS: [&str; 9] = [
    "baseline",
    "cg",
    "harmonia",
    "freq-only",
    "powertune",
    "capped",
    "hardened:harmonia",
    "hardened:capped",
    "hardened:ladder",
];

/// Warm invocations may allocate this often on average: a fine-grain step
/// can still grow a per-kernel list (a newly blacklisted configuration),
/// but a steady decision must not allocate at all.
const MAX_ALLOCATIONS_PER_INVOCATION: f64 = 0.25;

/// Iterations of each app before its invocations count as warm.
const WARM_FROM: u64 = 2;

#[test]
fn warm_governor_decisions_do_not_allocate() {
    let spec = DeviceSpec::lookup("hd7970").expect("catalog device");
    let model = IntervalModel::new(spec.gpu);
    let power = PowerModel::for_device(&spec);
    let predictor =
        SensitivityPredictor::fit(&TrainingSet::collect(&model)).expect("fit on the suite");
    let res = PolicyResources::new(&predictor, &model, &power).with_device(&spec);
    let apps = suite::all();

    let mut report = Vec::new();
    for name in STACKS {
        let policy: PolicySpec = name.parse().expect("registry name");
        let (mut allocations, mut invocations) = (0u64, 0u64);
        for app in &apps {
            let mut governor = policy.build(&res).governor;
            governor.set_trace(TraceHandle::disabled());
            for iteration in 0..app.iterations {
                for kernel in &app.kernels {
                    let (cfg, decide) = counting(|| governor.decide(kernel, iteration));
                    let result = model.simulate(cfg, kernel, iteration);
                    let ((_, counters), condition) = counting(|| {
                        governor.condition(kernel, iteration, cfg, result.time, result.counters)
                    });
                    let ((), observe) =
                        counting(|| governor.observe(kernel, iteration, cfg, &counters));
                    if iteration >= WARM_FROM {
                        allocations += decide + condition + observe;
                        invocations += 1;
                    }
                }
            }
        }
        assert!(invocations > 0, "{name}: no warm invocations");
        report.push((name, allocations as f64 / invocations as f64));
    }

    let over: Vec<String> = report
        .iter()
        .filter(|(_, per)| *per > MAX_ALLOCATIONS_PER_INVOCATION)
        .map(|(name, per)| format!("{name}: {per:.3}"))
        .collect();
    assert!(
        over.is_empty(),
        "warm governor calls allocate more than {MAX_ALLOCATIONS_PER_INVOCATION} times per \
         invocation: {over:?} (all stacks: {report:?})"
    );
}

#[test]
fn coarse_grain_jumps_index_the_grid_without_allocating() {
    let fractions = [
        0.0,
        1.0,
        0.25,
        1.0 / 3.0,
        0.5,
        0.74,
        0.99,
        -0.5,
        1.5,
        f64::NEG_INFINITY,
        f64::INFINITY,
    ];
    for name in DeviceSpec::catalog() {
        let spec = DeviceSpec::lookup(name).expect("catalog device");
        let grid = spec.grid();
        let from = HwConfig::min_on(grid);
        for tunable in Tunable::ALL {
            let levels: Vec<u32> = match tunable {
                Tunable::CuCount => grid.cu_levels(),
                Tunable::CuFreq => grid.cu_freq_levels().iter().map(|f| f.value()).collect(),
                Tunable::MemFreq => grid.mem_freq_levels().iter().map(|f| f.value()).collect(),
            };
            for fraction in fractions {
                let (jumped, allocations) =
                    counting(|| from.with_fraction_on(grid, tunable, fraction));
                let nearest = (fraction.clamp(0.0, 1.0) * (levels.len() - 1) as f64).round();
                assert_eq!(
                    jumped.raw_value(tunable),
                    levels[nearest as usize],
                    "{name}/{tunable:?} at {fraction}"
                );
                assert_eq!(
                    jumped.with_fraction_on(grid, tunable, 0.0),
                    from,
                    "only {tunable:?} moves"
                );
                assert_eq!(allocations, 0, "{name}/{tunable:?} at {fraction} allocated");
            }
        }
    }
}

#[test]
fn policy_stats_are_one_allocation() {
    let (stats, allocations) = counting(PolicyStats::new);
    assert_eq!(allocations, 1, "a stack's counters share one allocation");
    let (shared, allocations) = counting(|| stats.clone());
    assert_eq!(allocations, 0, "a clone shares the counters");
    assert_eq!(shared.rung_residency(), [0; 4]);
}

/// Allocations reading a session stream back may make regardless of its
/// length: the event vector, the decoder's name table, and the header's
/// application and policy strings.
const STREAM_ALLOCATIONS: u64 = 4;

/// Allocations `codec::encode` makes for the Graph500 chaos session below:
/// the output buffer, its one regrowth past the 64-bytes-per-event guess,
/// and the encoder's name table.
const ENCODE_ALLOCATIONS: u64 = 3;

#[test]
fn session_traces_share_kernel_names() {
    let spec = DeviceSpec::lookup("hd7970").expect("catalog device");
    let model = IntervalModel::new(spec.gpu);
    let power = PowerModel::for_device(&spec);
    let predictor =
        SensitivityPredictor::fit(&TrainingSet::collect(&model)).expect("fit on the suite");
    let res = PolicyResources::new(&predictor, &model, &power).with_device(&spec);
    let app = suite::all().into_iter().find(|a| a.name == "Graph500").expect("suite app");
    let policy: PolicySpec = "hardened:capped".parse().expect("registry name");
    let plan = chaos_plan(0xFA17);

    let recorder = Recorder::new();
    recorder.record(SessionEvent::SessionStart {
        app: app.name.clone(),
        policy: policy.name(),
        fault_seed: plan.seed(),
    });
    let faulty = FaultyModel::new(&model, plan.clone());
    Runtime::new(&faulty, &power)
        .with_faults(&plan)
        .with_recorder(recorder.clone())
        .with_actuator(RetryPolicy::default())
        .run(&app, &mut policy.build(&res).governor);

    let (events, recorded) = counting(|| recorder.events());
    let (bytes, encoded) = counting(|| codec::encode(&events));
    assert_eq!(bytes, recorder.encode());
    let (decoded, decoded_allocations) = counting(|| codec::decode(&bytes).expect("decodes"));
    let (divergence, diffed) = counting(|| differ::first_divergence(&events, &decoded));
    assert_eq!(divergence, None);
    assert!(encoded <= ENCODE_ALLOCATIONS, "encode allocated {encoded} > {ENCODE_ALLOCATIONS}");
    assert_eq!(diffed, 0, "first_divergence of equal streams allocated");

    let named = events.iter().filter_map(SessionEvent::kernel);
    for name in named.clone() {
        assert!(
            app.kernels.iter().any(|k| std::ptr::eq(&*k.name, name)),
            "{name}: recorded a copy of the profile's name"
        );
    }
    let resolved = events.iter().filter(|e| e.label() == "actuation-resolved").count() as u64;
    let distinct = app.kernels.len() as u64;
    let allowed = STREAM_ALLOCATIONS + distinct + resolved;
    assert!(
        resolved > 0 && named.count() as u64 > 2 * allowed,
        "the session must exercise the retry shim and outnumber the allowance"
    );
    assert!(recorded <= allowed, "Recorder::events allocated {recorded} > {allowed}");
    assert!(decoded_allocations <= allowed, "decode allocated {decoded_allocations} > {allowed}");
}
