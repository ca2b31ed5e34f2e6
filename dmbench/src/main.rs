//! The dmhpc benchmark: one command that generates each workload from
//! a seed, simulates its points one after another on one thread, checks
//! every outcome, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path dmbench/Cargo.toml -- \
//!     --workload tight_ledger --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (a traced pass plus layer replays). Without `--workload` every
//! workload runs; without `--trace` both runs do. The last line of
//! standard output is one JSON object; see README.md.

mod layers;
mod measure;
mod workloads;

use measure::{
    combine, median, traced_pass, untraced_pass, warm_up_pass, Calibrated, Checker,
    REFERENCE_KERNEL_S,
};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Built, Size};

/// Fewest workload builds in an untraced run; `setup_s` is the median.
const MIN_SETUPS: usize = 3;

/// Most workload builds in an untraced run (a traced run builds once).
const MAX_SETUPS: usize = 25;

/// Build CPU seconds after which an untraced run stops rebuilding.
const SETUP_BUDGET_S: f64 = 1.0;

/// One printed metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// The metrics and checks of one run.
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit of `v` (non-finite values, which no
/// metric should produce, print as 0 so the line stays valid JSON).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident memory of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The git revision of the checkout the benchmark runs in, read from
/// `.git` in the working directory, or `unknown` outside a git checkout.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Rebuild the workload at least [`MIN_SETUPS`] times and until
/// [`SETUP_BUDGET_S`] CPU seconds of building have been measured, at
/// most [`MAX_SETUPS`] times; returns the median build time in
/// reference-host seconds, like the simulation times. Every build must
/// digest the same inputs as `built`.
fn setup_s(
    name: &str,
    seed: u64,
    size: Size,
    built: &Built,
    cal: &mut Calibrated,
) -> Result<f64, String> {
    let expected = input_digest(built);
    let mut cpu_s = 0.0;
    let mut secs: Vec<f64> = Vec::new();
    while secs.len() < MIN_SETUPS || (secs.len() < MAX_SETUPS && cpu_s < SETUP_BUDGET_S) {
        let (b, cpu, reference_s) = cal.time(|| workloads::build(name, seed, size));
        cpu_s += cpu;
        secs.push(reference_s);
        if input_digest(&b.ok_or_else(|| unknown(name))?) != expected {
            return Err(format!("{name}: the same seed built different inputs"));
        }
    }
    Ok(median(secs))
}

/// Digest of the generated inputs (job shapes and usage traces).
fn input_digest(b: &Built) -> u64 {
    let mut bits: Vec<u64> = Vec::new();
    for j in b.replicas.iter().flat_map(|w| &w.jobs) {
        bits.push(j.submit_s.to_bits());
        bits.push(u64::from(j.nodes));
        bits.push(j.base_runtime_s.to_bits());
        bits.push(j.mem_request_mb);
        for &(p, m) in j.usage.points() {
            bits.push(p.to_bits());
            bits.push(m);
        }
    }
    combine(&bits)
}

fn unknown(name: &str) -> String {
    format!(
        "unknown workload '{name}' (expected one of: {}, all)",
        workloads::NAMES.join(", ")
    )
}

/// The untraced run. A first, untimed pass over every point warms the
/// process up and sets `peak_rss_mb` before the calibration kernel's
/// own memory can count. Then the workload is rebuilt for `setup_s`, and
/// timed passes repeat until `seconds` have gone by since the start (at
/// least two, so every digest is checked against reruns). Each point's
/// time is the median over passes of its simulation thread's CPU
/// seconds scaled to the reference host (see [`Calibrated`]), so the
/// figures hold still while other tenants slow the whole host.
fn end_to_end(name: &str, seed: u64, seconds: f64, size: Size) -> Result<Report, String> {
    let start = Instant::now();
    let built = workloads::build(name, seed, size).ok_or_else(|| unknown(name))?;
    println!("{name}: {}", built.params);
    let mut checker = Checker::new(built.points.len());
    warm_up_pass(&built, &mut checker);
    let peak_rss_mb = peak_rss_mb();
    let mut cal = Calibrated::new();
    let setup_s = setup_s(name, seed, size, &built, &mut cal)?;
    let mut passes = Vec::new();
    loop {
        let pass = untraced_pass(&built, &mut checker, &mut cal);
        println!(
            "{name}: pass {} took {:.3} s, {:.3} reference s",
            passes.len(),
            pass.secs,
            pass.point_ref_s.iter().sum::<f64>()
        );
        passes.push(pass);
        let elapsed = start.elapsed().as_secs_f64();
        let mean_pass = elapsed / passes.len() as f64;
        if passes.len() >= 2 && elapsed + mean_pass / 2.0 >= seconds {
            break;
        }
    }
    let per_point = |f: &dyn Fn(&measure::Pass) -> &Vec<f64>, i: usize| -> f64 {
        median(passes.iter().map(|pass| f(pass)[i]).collect())
    };
    let point_s: Vec<f64> = (0..built.points.len())
        .map(|i| per_point(&|p| &p.point_ref_s, i))
        .collect();
    let sim_s: f64 = point_s.iter().sum();
    let kernel_s = median(cal.kernel_s.clone());
    println!(
        "{name}: calibration kernel median {kernel_s:.4} s over {} runs \
         ({:.3}x the reference host's {REFERENCE_KERNEL_S} s)",
        cal.kernel_s.len(),
        kernel_s / REFERENCE_KERNEL_S
    );
    // The slowest configuration sets a parallel sweep's wall time: per
    // (memory, policy) configuration, the mean over replicas of its
    // points' times.
    let mut configs: Vec<(&str, f64, usize)> = Vec::new();
    for (i, (p, &secs)) in built.points.iter().zip(&point_s).enumerate() {
        println!(
            "{name}: point {} median {secs:.3} reference s, {:.3} CPU s",
            p.label,
            per_point(&|p| &p.point_cpu_s, i)
        );
        match configs.iter_mut().find(|c| c.0 == p.config) {
            Some(c) => {
                c.1 += secs;
                c.2 += 1;
            }
            None => configs.push((&p.config, secs, 1)),
        }
    }
    let slowest_point_s = configs
        .iter()
        .map(|&(_, secs, n)| secs / n as f64)
        .fold(0.0, f64::max);
    let jobs = passes[0].jobs as f64;
    print_checks(name, &built, &checker, passes.len());
    let mut r = Report {
        metrics: Vec::new(),
        attempted: checker.attempted,
        failed: checker.failed,
    };
    r.push("setup_s", setup_s, "s");
    r.push("sim_s", sim_s, "s");
    r.push("slowest_point_s", slowest_point_s, "s");
    r.push("sim_jobs_per_s", ratio(jobs, sim_s), "jobs/s");
    r.push("peak_rss_mb", peak_rss_mb, "MB");
    r.push(
        "point_ok_share",
        ratio(
            (checker.attempted - checker.failed) as f64,
            checker.attempted as f64,
        ),
        "share",
    );
    Ok(r)
}

fn print_checks(name: &str, built: &Built, checker: &Checker, passes: usize) {
    for f in &checker.failures {
        println!("{name}: FAILED {f}");
    }
    let digests = checker.digests();
    for (p, d) in built.points.iter().zip(&digests) {
        println!("{name}: digest {} {d:016x}", p.label);
    }
    println!(
        "{name}: digest {:016x} over {} points, {passes} passes, {} of {} point runs failed",
        combine(&digests),
        built.points.len(),
        checker.failed,
        checker.attempted
    );
}

/// The traced run: untraced and traced passes alternate until `seconds`
/// have been measured, then the layer replays run on the same inputs.
fn per_layer(name: &str, seed: u64, seconds: f64, size: Size) -> Result<Report, String> {
    use dmhpc_core::telemetry::Phase;
    let built = workloads::build(name, seed, size).ok_or_else(|| unknown(name))?;
    let mut cal = Calibrated::new();
    println!("{name}: {}", built.params);
    let mut checker = Checker::new(built.points.len());
    let mut untraced_s = Vec::new();
    let mut traced_passes = Vec::new();
    let start = Instant::now();
    loop {
        untraced_s.push(untraced_pass(&built, &mut checker, &mut cal).secs);
        traced_passes.push(traced_pass(&built, &mut checker));
        let elapsed = start.elapsed().as_secs_f64();
        let mean_pair = elapsed / untraced_s.len() as f64;
        if elapsed + mean_pair / 2.0 >= seconds {
            break;
        }
    }
    // Wall-clock figures: medians over traced passes of the per-pass
    // sums over points. Counts come from the first traced pass and
    // must repeat exactly in every other.
    let per_pass = |f: &dyn Fn(&measure::TracedPoint) -> f64| -> f64 {
        median(
            traced_passes
                .iter()
                .map(|pass| pass.iter().map(f).sum())
                .collect(),
        )
    };
    let phase = |ph: Phase| per_pass(&|t| t.phase_s(ph));
    let calls = |ph: Phase| -> f64 {
        traced_passes[0]
            .iter()
            .map(|t| t.profile.phase_calls(ph) as f64)
            .sum()
    };
    let traced_s = per_pass(&|t| t.secs);
    let unattributed_s = per_pass(&|t| t.unattributed_s());
    let count = |f: &dyn Fn(&measure::TracedPoint) -> u64| -> f64 {
        traced_passes[0].iter().map(f).sum::<u64>() as f64
    };
    // The counts are deterministic: every traced pass must repeat them.
    let mut count_failures = 0;
    for pass in &traced_passes[1..] {
        for ((a, b), p) in pass.iter().zip(&traced_passes[0]).zip(&built.points) {
            if a.count_key() != b.count_key() {
                println!(
                    "{name}: FAILED {}: trace counts differ between traced passes",
                    p.label
                );
                count_failures += 1;
            }
        }
    }
    for (t, p) in traced_passes[0].iter().zip(&built.points) {
        let shares: Vec<String> = Phase::ALL
            .iter()
            .map(|&ph| format!("{} {:.1}%", ph.name(), 100.0 * t.phase_s(ph) / t.secs))
            .collect();
        println!(
            "{name}: traced {} wall {:.3} s: {}, unattributed {:.1}%",
            p.label,
            t.secs,
            shares.join(", "),
            100.0 * t.unattributed_s() / t.secs
        );
    }
    print_checks(name, &built, &checker, untraced_s.len());

    let layer_start = Instant::now();
    let costs = layers::replay(&built);
    println!(
        "{name}: layer replays took {:.3} s",
        layer_start.elapsed().as_secs_f64()
    );

    let decides = count(&|t| t.counts.mem_decides);
    let holds = count(&|t| t.counts.mem_holds);
    let considered = count(&|t| t.counts.jobs_considered);
    let placed = count(&|t| t.counts.jobs_placed);
    let jobs: usize = built.replicas.iter().map(|w| w.len()).sum();
    let usage_points: usize = built
        .replicas
        .iter()
        .flat_map(|w| &w.jobs)
        .map(|j| j.usage.len())
        .sum();
    let mut r = Report {
        metrics: Vec::new(),
        attempted: checker.attempted,
        failed: checker.failed + count_failures,
    };
    for (i, k) in layers::LENDERS.iter().enumerate() {
        r.push(&format!("cluster.grow_ns.l{k}"), costs.grow_ns[i], "ns");
    }
    for (i, k) in layers::LENDERS.iter().enumerate() {
        r.push(&format!("cluster.shrink_ns.l{k}"), costs.shrink_ns[i], "ns");
    }
    r.push("cluster.start_finish_ns", costs.start_finish_ns, "ns");
    r.push("sim.unattributed_s", unattributed_s, "s");
    r.push("dynloop.self_s", phase(Phase::DynLoop), "s");
    r.push("dynloop.calls", calls(Phase::DynLoop), "count");
    r.push(
        "dynloop.us_per_update",
        1e6 * ratio(phase(Phase::DynLoop), calls(Phase::DynLoop)),
        "us",
    );
    r.push("dynmem.decides", decides, "count");
    r.push("dynmem.hold_ratio", ratio(holds, decides), "ratio");
    r.push("dynmem.grows", count(&|t| t.counts.mem_grows), "count");
    r.push("dynmem.shrinks", count(&|t| t.counts.mem_shrinks), "count");
    r.push("dynmem.sample_ns", costs.sample_ns, "ns");
    r.push("dynmem.decide_ns", costs.decide_ns, "ns");
    r.push("schedule.self_s", phase(Phase::Schedule), "s");
    r.push("schedule.calls", calls(Phase::Schedule), "count");
    r.push(
        "schedule.us_per_pass",
        1e6 * ratio(phase(Phase::Schedule), calls(Phase::Schedule)),
        "us",
    );
    r.push("schedule.jobs_considered", considered, "count");
    r.push("schedule.jobs_placed", placed, "count");
    r.push("schedule.place_ratio", ratio(placed, considered), "ratio");
    r.push("schedule.pass_ns", costs.pass_ns, "ns");
    r.push(
        "oom.wall_share",
        ratio(phase(Phase::Oom), traced_s),
        "share",
    );
    r.push("oom.calls", calls(Phase::Oom), "count");
    r.push("oom.kills", count(&|t| t.oom_kills), "count");
    r.push("oom.requeues", count(&|t| t.counts.job_requeues), "count");
    r.push(
        "recovery.wall_share",
        ratio(phase(Phase::Recovery), traced_s),
        "share",
    );
    r.push("recovery.calls", calls(Phase::Recovery), "count");
    r.push(
        "recovery.node_crashes",
        count(&|t| t.counts.node_crashes),
        "count",
    );
    r.push("engine.push_pop_ns", costs.push_pop_ns, "ns");
    r.push("contention.slowdown_ns", costs.slowdown_ns, "ns");
    r.push("traces.jobs", jobs as f64, "count");
    r.push("traces.usage_points", usage_points as f64, "count");
    r.push("sweep.aggregate_s", costs.aggregate_s, "s");
    r.push("trace.events", count(&|t| t.counts.total_events), "count");
    r.push(
        "trace.overhead_ratio",
        ratio(traced_s, median(untraced_s)),
        "ratio",
    );
    r.push("finalize.self_s", phase(Phase::Finalize), "s");
    Ok(r)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 30.0,
        trace: None,
        size: Size::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                })
            }
            "--smoke" => args.size = Size::Smoke,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dmbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else if workloads::NAMES.contains(&args.workload.as_str()) {
        vec![args.workload.as_str()]
    } else {
        eprintln!("dmbench: {}", unknown(&args.workload));
        return ExitCode::from(2);
    };
    let modes: Vec<bool> = match args.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    println!(
        "dmbench: revision {} seed {} seconds {} threads 1 (available parallelism {})",
        git_revision(),
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut all_ok = true;
    for name in names {
        for &traced in &modes {
            let result = if traced {
                per_layer(name, args.seed, args.seconds, args.size)
            } else {
                end_to_end(name, args.seed, args.seconds, args.size)
            };
            let report = match result {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("dmbench: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for m in &report.metrics {
                println!("{name}: {} = {} {}", m.name, json_number(m.value), m.unit);
            }
            all_ok &= report.failed == 0;
            println!("{}", report.json());
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
