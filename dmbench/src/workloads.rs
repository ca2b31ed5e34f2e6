//! The benchmark's workloads: the inputs generated from the seed plus
//! the simulation points (replica × system × policy) run on them.
//!
//! Job shapes play the part of the recorded traces the paper samples
//! them from (Google shapes, Grizzly's LDMS data) and stay fixed; the
//! seed draws what the paper randomises: the arrival process, the
//! update jitter, and for Grizzly weeks the time limits, application
//! profiles and fault schedule. Redrawing the shapes as well makes a
//! run's cost swing by more than 2× from seed to seed (a few jobs that
//! borrow from many lenders dominate the ledger's cost), which no
//! benchmark bound could absorb.

use dmhpc_core::cluster::{MemoryMix, TopologySpec};
use dmhpc_core::config::SystemConfig;
use dmhpc_core::faults::FaultConfig;
use dmhpc_core::policy::PolicySpec;
use dmhpc_core::sim::Workload;
use dmhpc_model::rng::Rng64;
use dmhpc_traces::grizzly::{GrizzlyConfig, GrizzlyDataset};
use dmhpc_traces::workload::{grizzly_workload, WorkloadBuilder};
use dmhpc_traces::CirneModel;
use std::sync::Arc;

/// Every workload name, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["tight_ledger", "roomy_hold", "faulted_racks"];

/// Input size: the measured size, or a seconds-long smoke size for the
/// benchmark's own test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark measures.
    Full,
    /// A trimmed size with the same shape and points.
    Smoke,
}

/// One simulation point of a workload.
#[derive(Clone, Debug)]
pub struct Point {
    /// Short label, e.g. `r0 dynamic@37%`.
    pub label: String,
    /// The configuration the point runs, shared by its replicas, e.g.
    /// `dynamic@37%`.
    pub config: String,
    /// The jobs this point simulates (shared with the replica's other
    /// points, never copied).
    pub workload: Arc<Workload>,
    /// The simulated system.
    pub system: SystemConfig,
    /// The memory policy.
    pub policy: PolicySpec,
    /// Seed of the simulation's own random streams.
    pub sim_seed: u64,
}

/// A generated workload: its input replicas and its points.
pub struct Built {
    /// The input replicas, in order.
    pub replicas: Vec<Arc<Workload>>,
    /// The points, run one after another.
    pub points: Vec<Point>,
    /// Parameters as `key=value` text, printed with the results.
    pub params: String,
}

impl Built {
    /// The system of the first point: where the layer replays run.
    pub fn system(&self) -> &SystemConfig {
        &self.points[0].system
    }
}

/// Split the benchmark seed into independent per-purpose seeds.
fn sub_seed(seed: u64, purpose: u64) -> u64 {
    Rng64::stream(seed, purpose).next()
}

/// The paper's memory-axis mix at `pct` percent.
fn axis_mix(pct: u32) -> MemoryMix {
    MemoryMix::paper_axis()
        .into_iter()
        .find(|&(p, _)| p == pct)
        .map(|(_, mix)| mix)
        .expect("percent is on the paper's memory axis")
}

/// Build workload `name` from `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64, size: Size) -> Option<Built> {
    match name {
        "tight_ledger" => Some(tight_ledger(seed, size)),
        "roomy_hold" => Some(roomy_hold(seed, size)),
        "faulted_racks" => Some(faulted_racks(seed, size)),
        _ => None,
    }
}

/// Underprovisioned memory with overestimated requests: the paper's
/// headline regime, where contention-ledger upkeep dominates.
fn tight_ledger(seed: u64, size: Size) -> Built {
    let (nodes, jobs, pool, replicas) = match size {
        Size::Full => (1024, 1000, 1500, 2),
        Size::Smoke => (128, 120, 200, 1),
    };
    let cirne = CirneModel {
        max_nodes: nodes / 8,
        ..CirneModel::default()
    };
    let shapes = WorkloadBuilder::new(SHAPES_SEED)
        .jobs(jobs)
        .large_job_fraction(0.5)
        .overestimation(0.6)
        .google_pool(pool)
        .cirne(cirne.clone())
        .build_for(&all_large(nodes));
    let mut built = Built {
        replicas: Vec::new(),
        points: Vec::new(),
        params: format!(
            "replicas={replicas} nodes={nodes} jobs={jobs} large=0.5 overest=0.6 \
             google_pool={pool} mem=37%,43% policies=static,dynamic"
        ),
    };
    for r in 0..replicas {
        let workload = Arc::new(seeded_arrivals(
            &shapes,
            &cirne,
            nodes,
            sub_seed(seed, 0x100 + r),
        ));
        for pct in [37, 43] {
            for policy in [PolicySpec::Static, PolicySpec::Dynamic] {
                let config = format!("{policy}@{pct}%");
                built.points.push(Point {
                    label: format!("r{r} {config}"),
                    config,
                    workload: Arc::clone(&workload),
                    system: SystemConfig::with_nodes(nodes).with_memory_mix(axis_mix(pct)),
                    policy,
                    sim_seed: sub_seed(seed, 0x200 + r) ^ u64::from(pct),
                });
            }
        }
        built.replicas.push(workload);
    }
    built
}

/// The all-large (100 % memory) `nodes`-node system.
fn all_large(nodes: u32) -> SystemConfig {
    SystemConfig::with_nodes(nodes).with_memory_mix(MemoryMix::all_large())
}

/// `shapes` with its submit times replaced by a draw of the CIRNE
/// arrival process from `seed`, rescaled onto the original arrival span
/// so the offered load is unchanged; jobs keep their id (arrival) order.
fn seeded_arrivals(shapes: &Workload, cirne: &CirneModel, nodes: u32, seed: u64) -> Workload {
    let span = shapes.jobs.iter().map(|j| j.submit_s).fold(0.0, f64::max);
    let mut rng = Rng64::stream(seed, 0xA77);
    let mut arrivals: Vec<f64> = cirne
        .generate(&mut rng, shapes.len(), nodes)
        .iter()
        .map(|j| j.submit_s)
        .collect();
    arrivals.sort_by(f64::total_cmp);
    let last = arrivals.last().copied().unwrap_or(0.0).max(1.0);
    let mut jobs = shapes.jobs.clone();
    for (job, t) in jobs.iter_mut().zip(arrivals) {
        job.submit_s = t * span / last;
    }
    Workload::try_new(jobs, shapes.pool.clone()).expect("job ids are unchanged")
}

/// Roomy memory with hours-long jobs: nearly every memory update takes
/// the hold fast path and the ledger is rarely touched.
fn roomy_hold(seed: u64, size: Size) -> Built {
    let (nodes, jobs, pool) = match size {
        Size::Full => (4096, 20_000, 4000),
        Size::Smoke => (128, 150, 300),
    };
    // The long-job shape of the repository's dynloop stress scenario.
    let cirne = CirneModel {
        max_nodes: 128.min(nodes / 8),
        runtime_ln_mean: 10.2,
        runtime_ln_sigma: 0.9,
        min_runtime_s: 3600.0,
        ..CirneModel::default()
    };
    let shapes = WorkloadBuilder::new(SHAPES_SEED)
        .jobs(jobs)
        .large_job_fraction(0.5)
        .overestimation(0.6)
        .google_pool(pool)
        .cirne(cirne.clone())
        .rdp_epsilon(0.08)
        .build_for(&all_large(nodes));
    let workload = Arc::new(seeded_arrivals(
        &shapes,
        &cirne,
        nodes,
        sub_seed(seed, 0x100),
    ));
    let system = all_large(nodes);
    let policies: [PolicySpec; 2] = [
        PolicySpec::Dynamic,
        "overcommit:factor=0.8"
            .parse()
            .expect("overcommit spec parses"),
    ];
    let points = policies
        .into_iter()
        .map(|policy| Point {
            label: format!("{policy}@100%"),
            config: format!("{policy}@100%"),
            workload: Arc::clone(&workload),
            system: system.clone(),
            policy,
            sim_seed: sub_seed(seed, 0x200),
        })
        .collect();
    Built {
        replicas: vec![workload],
        points,
        params: format!(
            "nodes={nodes} jobs={jobs} large=0.5 overest=0.6 google_pool={pool} \
             runtime_ln_mean=10.2 rdp_epsilon=0.08 mem=100% \
             policies=dynamic,overcommit:factor=0.8"
        ),
    }
}

/// Grizzly weeks at paper scale under heavy faults on 32-node racks:
/// the scheduling pass, OOM and recovery do most of the work.
fn faulted_racks(seed: u64, size: Size) -> Built {
    let (nodes, synthesized, replicas) = match size {
        Size::Full => (1490, 8, 3),
        Size::Smoke => (96, 2, 1),
    };
    let ds = GrizzlyDataset::synthesize(GrizzlyConfig {
        weeks: synthesized,
        nodes,
        seed: GRIZZLY_SEED,
        ..GrizzlyConfig::default()
    });
    // The weeks nearest Grizzly's published 78% average utilisation.
    let mut weeks: Vec<(f64, usize)> = ds
        .weeks
        .iter()
        .map(|w| ((w.cpu_utilization - 0.78).abs(), w.index))
        .collect();
    weeks.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    weeks.truncate(replicas);
    let topology: TopologySpec = "racks:size=32".parse().expect("topology spec parses");
    let faults = FaultConfig::heavy().with_seed(sub_seed(seed, 0x300));
    let system = SystemConfig::with_nodes(nodes)
        .with_memory_mix(axis_mix(MEM_PCT_FAULTED))
        .with_faults(faults)
        .with_topology(topology);
    let mut built = Built {
        replicas: Vec::new(),
        points: Vec::new(),
        params: String::new(),
    };
    let mut chosen = Vec::new();
    for (r, &(_, week)) in weeks.iter().enumerate() {
        let workload = Arc::new(grizzly_workload(&ds, week, 0.6, sub_seed(seed, 0x200)));
        chosen.push(format!("{week}:{}", workload.len()));
        for policy in [PolicySpec::Static, PolicySpec::Dynamic] {
            let config = format!("{policy}@{MEM_PCT_FAULTED}%");
            built.points.push(Point {
                label: format!("r{r} {config}"),
                config,
                workload: Arc::clone(&workload),
                system: system.clone(),
                policy,
                sim_seed: sub_seed(seed, 0x400 + r as u64),
            });
        }
        built.replicas.push(workload);
    }
    built.params = format!(
        "replicas={replicas} grizzly nodes={nodes} weeks_synthesized={synthesized} \
         weeks:jobs={} overest=0.6 mem={MEM_PCT_FAULTED}% faults=heavy \
         topology=racks:size=32 policies=static,dynamic",
        chosen.join(",")
    );
    built
}

/// Memory point of `faulted_racks`, percent of the all-large system.
/// At 50 % one week costs 4–16 s per point, by seed; at 62 % the same
/// layers still lead and three weeks fit a run.
const MEM_PCT_FAULTED: u32 = 62;

/// Seed of the fixed job shapes of the synthetic workloads (the
/// repository's experiment base seed).
const SHAPES_SEED: u64 = 0xD15A_66E6;

/// Seed of the fixed synthetic Grizzly dataset (the repository's
/// paper-scale default).
const GRIZZLY_SEED: u64 = 0x6121;
