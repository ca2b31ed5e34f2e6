//! Running a workload's points: the untraced timing passes, the traced
//! pass with the program's own observers attached, and the outcome
//! checks every point must pass.

use crate::workloads::{Built, Point};
use dmhpc_core::sim::{SimBuilder, SimulationOutcome};
use dmhpc_core::telemetry::{Phase, Profile, TelemetryCollector, TelemetrySpec};
use dmhpc_core::trace::{CountingSink, RunMetrics};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// FNV-1a 64 over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of a simulated outcome: every stats field (Debug formatting
/// prints each float with enough digits to round-trip its bits), the
/// feasibility flag, and the bits of every response time in order.
fn digest(out: &SimulationOutcome) -> u64 {
    let mut h = Fnv::new();
    h.bytes(format!("{:?}", out.stats).as_bytes());
    h.bytes(&[u8::from(out.feasible)]);
    for t in &out.response_times_s {
        h.bytes(&t.to_bits().to_le_bytes());
    }
    h.0
}

/// Fold several values (digests, input bits) into one digest, in order.
pub fn combine(values: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for v in values {
        h.bytes(&v.to_le_bytes());
    }
    h.0
}

/// Median of `xs` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// CPU seconds the calling thread has run, from the kernel's
/// per-thread clock. Unlike wall time it leaves out the time the thread
/// waits for a CPU, and on a virtual machine with steal-time accounting
/// the time the host runs other guests on its CPU.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere, wall seconds since the first call stand in for the
/// thread's CPU seconds.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_s() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Seconds the calibration kernel takes on the reference host: a host
/// speed at which [`Calibrated`] times read as plain CPU seconds.
pub const REFERENCE_KERNEL_S: f64 = 0.05;

/// Entries of the calibration kernel's map (about 5 MB with its nodes).
const KERNEL_KEYS: usize = 100_000;

/// Remove/insert/lookup rounds of the calibration kernel.
const KERNEL_ROUNDS: usize = 50_000;

/// The calibration kernel: a fixed churn of a standard-library
/// `BTreeMap` and `BinaryHeap` (allocation, pointer chasing, branches
/// over a few MB, like the simulator's queues and indexes) that depends
/// on nothing in the program. Returns the CPU seconds it took.
pub fn kernel_s() -> f64 {
    use std::collections::{BTreeMap, BinaryHeap};
    let start = thread_cpu_s();
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut keys: Vec<u64> = Vec::with_capacity(KERNEL_KEYS);
    for _ in 0..KERNEL_KEYS {
        let k = next();
        map.insert(k, k);
        keys.push(k);
    }
    let mut heap = BinaryHeap::new();
    let mut acc = 0u64;
    for round in 0..KERNEL_ROUNDS {
        let slot = (next() % KERNEL_KEYS as u64) as usize;
        if let Some(v) = map.remove(&keys[slot]) {
            acc = acc.wrapping_add(v);
        }
        let k = next();
        map.insert(k, round as u64);
        keys[slot] = k;
        heap.push(k >> 3);
        if heap.len() > 4096 {
            acc ^= heap.pop().unwrap_or(0);
        }
        if let Some((_, v)) = map.range(k..).next() {
            acc = acc.wrapping_add(*v);
        }
    }
    std::hint::black_box(acc);
    thread_cpu_s() - start
}

/// Times measured against the host's current speed. On a shared host
/// the simulation thread runs up to 1.6× slower for minutes at a time
/// while other tenants load the machine's caches and memory; the
/// calibration kernel slows by the same factor, a register-only loop
/// does not. Each timed section runs between two kernel runs, and its
/// CPU seconds are scaled by [`REFERENCE_KERNEL_S`] over their mean:
/// the seconds the section would take on the reference host.
pub struct Calibrated {
    /// Kernel seconds of the latest kernel run.
    last_kernel_s: f64,
    /// Every kernel run's seconds, in order.
    pub kernel_s: Vec<f64>,
}

impl Calibrated {
    /// Start with one kernel run.
    pub fn new() -> Self {
        let k = kernel_s();
        Calibrated {
            last_kernel_s: k,
            kernel_s: vec![k],
        }
    }

    /// Run `section`, then the kernel; returns the section's result,
    /// its CPU seconds and its reference-host seconds.
    pub fn time<T>(&mut self, section: impl FnOnce() -> T) -> (T, f64, f64) {
        let start = thread_cpu_s();
        let out = section();
        let cpu_s = thread_cpu_s() - start;
        let reference_s = self.scale(cpu_s);
        (out, cpu_s, reference_s)
    }

    /// Run the kernel after a section that took `cpu_s` CPU seconds;
    /// returns the section's reference-host seconds.
    fn scale(&mut self, cpu_s: f64) -> f64 {
        let k = kernel_s();
        self.kernel_s.push(k);
        let around = (self.last_kernel_s + k) / 2.0;
        self.last_kernel_s = k;
        cpu_s * REFERENCE_KERNEL_S / around
    }
}

/// What one run of one point produced.
struct PointRun {
    /// Host (wall) seconds of the run.
    secs: f64,
    /// CPU seconds of the simulation thread during the run.
    cpu_s: f64,
    /// `stats.total_jobs` (0 when the run panicked).
    total_jobs: u32,
    /// `stats.oom_kills` (0 when the run panicked).
    oom_kills: u32,
    /// Outcome digest (0 when the run panicked).
    digest: u64,
    /// `None` when every check passed, else the first failure.
    failure: Option<String>,
}

/// Run one point, with observers when given, and check its outcome: no
/// panic, `Stats::reconcile` holds, and every job of the point's
/// workload is accounted for. The digest check against other runs is
/// the [`Checker`]'s.
fn run_point(point: &Point, observers: Option<(&TelemetryCollector, &CountingSink)>) -> PointRun {
    let mut builder = SimBuilder::new(point.system.clone(), Arc::clone(&point.workload))
        .policy(point.policy)
        .seed(point.sim_seed);
    if let Some((collector, sink)) = observers {
        builder = builder
            .telemetry(collector.clone())
            .trace_sink(Box::new(sink.clone()));
    }
    let sim = builder.build();
    let start = Instant::now();
    let cpu_start = thread_cpu_s();
    let result = catch_unwind(AssertUnwindSafe(move || sim.run()));
    let cpu_s = thread_cpu_s() - cpu_start;
    let secs = start.elapsed().as_secs_f64();
    let out = match result {
        Ok(out) => out,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            return PointRun {
                secs,
                cpu_s,
                total_jobs: 0,
                oom_kills: 0,
                digest: 0,
                failure: Some(format!("{}: panicked: {msg}", point.label)),
            };
        }
    };
    let expected_jobs = point.workload.len() as u32;
    let failure = if let Err(e) = out.stats.reconcile() {
        Some(format!("{}: reconcile failed: {e}", point.label))
    } else if out.stats.total_jobs != expected_jobs {
        Some(format!(
            "{}: total_jobs {} but the workload has {expected_jobs} jobs",
            point.label, out.stats.total_jobs
        ))
    } else {
        None
    };
    PointRun {
        secs,
        cpu_s,
        total_jobs: out.stats.total_jobs,
        oom_kills: out.stats.oom_kills,
        digest: digest(&out),
        failure,
    }
}

/// Checks digests across runs of the same points: the first complete
/// run of each point sets its reference digest.
pub struct Checker {
    reference: Vec<Option<u64>>,
    /// Point runs attempted.
    pub attempted: u64,
    /// Point runs that failed a check.
    pub failed: u64,
    /// Failure descriptions, in order.
    pub failures: Vec<String>,
}

impl Checker {
    /// A checker for `points` points.
    pub fn new(points: usize) -> Self {
        Checker {
            reference: vec![None; points],
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Record the run of point `i`, comparing its digest with the
    /// point's first run.
    fn record(&mut self, i: usize, label: &str, run: &PointRun) {
        self.attempted += 1;
        let mut failure = run.failure.clone();
        if failure.is_none() {
            match self.reference[i] {
                None => self.reference[i] = Some(run.digest),
                Some(d) if d != run.digest => {
                    failure = Some(format!(
                        "{label}: digest {:016x} differs from the first run's {d:016x}",
                        run.digest
                    ));
                }
                Some(_) => {}
            }
        }
        if let Some(f) = failure {
            self.failed += 1;
            self.failures.push(f);
        }
    }

    /// The per-point reference digests (0 for a point that never
    /// completed a run).
    pub fn digests(&self) -> Vec<u64> {
        self.reference.iter().map(|d| d.unwrap_or(0)).collect()
    }
}

/// Timings of one untraced pass over every point.
pub struct Pass {
    /// Host seconds of the whole pass.
    pub secs: f64,
    /// Simulation-thread CPU seconds of each point.
    pub point_cpu_s: Vec<f64>,
    /// Reference-host seconds of each point (see [`Calibrated`]).
    pub point_ref_s: Vec<f64>,
    /// Σ `stats.total_jobs` over the points.
    pub jobs: u64,
}

/// One untimed pass over every point, recorded into `checker`.
pub fn warm_up_pass(built: &Built, checker: &mut Checker) {
    for (i, p) in built.points.iter().enumerate() {
        checker.record(i, &p.label, &run_point(p, None));
    }
}

/// One untraced pass over every point, recorded into `checker`, each
/// point timed against the host's speed by `cal`.
pub fn untraced_pass(built: &Built, checker: &mut Checker, cal: &mut Calibrated) -> Pass {
    let mut pass = Pass {
        secs: 0.0,
        point_cpu_s: Vec::with_capacity(built.points.len()),
        point_ref_s: Vec::with_capacity(built.points.len()),
        jobs: 0,
    };
    for (i, p) in built.points.iter().enumerate() {
        let run = run_point(p, None);
        let reference_s = cal.scale(run.cpu_s);
        checker.record(i, &p.label, &run);
        pass.secs += run.secs;
        pass.point_cpu_s.push(run.cpu_s);
        pass.point_ref_s.push(reference_s);
        pass.jobs += u64::from(run.total_jobs);
    }
    pass
}

/// What a traced pass measured at one point.
pub struct TracedPoint {
    /// Host seconds of the traced run.
    pub secs: f64,
    /// Phase profile.
    pub profile: Profile,
    /// Trace-event counts.
    pub counts: RunMetrics,
    /// OOM kill events (`stats.oom_kills`).
    pub oom_kills: u64,
}

impl TracedPoint {
    /// Every deterministic count of the traced run, for comparing runs.
    pub fn count_key(&self) -> Vec<u64> {
        let c = &self.counts;
        let mut key = vec![
            c.total_events,
            c.mem_decides,
            c.mem_holds,
            c.mem_grows,
            c.mem_shrinks,
            c.jobs_considered,
            c.jobs_placed,
            c.job_requeues,
            c.node_crashes,
            self.oom_kills,
        ];
        key.extend(Phase::ALL.iter().map(|&ph| self.profile.phase_calls(ph)));
        key
    }

    /// Seconds of `phase`.
    pub fn phase_s(&self, phase: Phase) -> f64 {
        self.profile.phase_ns(phase) as f64 / 1e9
    }

    /// Traced wall seconds no phase covers (negative where phases
    /// overlap).
    pub fn unattributed_s(&self) -> f64 {
        self.secs - self.profile.total_ns() as f64 / 1e9
    }
}

/// One traced pass: every point with a fresh `TelemetryCollector` and
/// `CountingSink` attached. The observers must not change outcomes, so
/// each traced run is checked against the untraced digest too.
pub fn traced_pass(built: &Built, checker: &mut Checker) -> Vec<TracedPoint> {
    built
        .points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let spec = TelemetrySpec::default();
            let collector = TelemetryCollector::new(spec);
            let sink = CountingSink::new(spec.sample_interval_s);
            let run = run_point(p, Some((&collector, &sink)));
            checker.record(i, &p.label, &run);
            TracedPoint {
                secs: run.secs,
                profile: collector.snapshot().profile,
                counts: sink.metrics(),
                oom_kills: u64::from(run.oom_kills),
            }
        })
        .collect()
}
