//! Layer replays: the benchmark times calls into each layer's public
//! functions from here, on inputs taken from the workload, so a layer's
//! cost per operation is known apart from the whole simulation.

use crate::measure::median;
use crate::workloads::Built;
use dmhpc_core::cluster::{AllocEntry, Cluster, JobAlloc, NodeId, TopologySpec};
use dmhpc_core::dynmem::{decide, Monitor};
use dmhpc_core::engine::{EventKind, EventQueue, SimTime};
use dmhpc_core::job::JobId;
use dmhpc_core::policy::PolicySpec;
use dmhpc_core::sim::SchedPassBench;
use dmhpc_experiments::bench_huge::{self, HugeLegConfig};
use dmhpc_experiments::scenario::memory_axis;
use dmhpc_model::rng::Rng64;
use dmhpc_model::{ContentionModel, RemoteAccess};
use std::hint::black_box;
use std::time::Instant;

/// Batches per replay; each replay reports the median batch.
const BATCHES: usize = 5;

/// Lender counts per job the ledger replay runs at.
pub const LENDERS: [usize; 3] = [1, 8, 64];

/// Per-operation costs measured by the replays.
pub struct LayerCosts {
    /// `Cluster::grow_entry` ns at each of [`LENDERS`].
    pub grow_ns: [f64; 3],
    /// `Cluster::shrink_job` ns at each of [`LENDERS`].
    pub shrink_ns: [f64; 3],
    /// `Cluster::start_job` + `Cluster::finish_job` ns, 8 lenders.
    pub start_finish_ns: f64,
    /// `Monitor::sample_demand_at` ns.
    pub sample_ns: f64,
    /// `dynmem::decide` ns.
    pub decide_ns: f64,
    /// `SchedPassBench::run_pass` ns.
    pub pass_ns: f64,
    /// `EventQueue::push` + `EventQueue::pop` ns.
    pub push_pop_ns: f64,
    /// `ContentionModel::slowdown` ns.
    pub slowdown_ns: f64,
    /// Seconds of the sweep's aggregation step.
    pub aggregate_s: f64,
}

/// Median over [`BATCHES`] of `batch()`'s ns per operation; `batch`
/// returns the ns it spent and the operations it timed.
fn per_op(mut batch: impl FnMut() -> (f64, usize)) -> f64 {
    median(
        (0..BATCHES)
            .map(|_| {
                let (ns, ops) = batch();
                ns / ops.max(1) as f64
            })
            .collect(),
    )
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Run every replay on `built`'s inputs.
pub fn replay(built: &Built) -> LayerCosts {
    let (grow_ns, shrink_ns) = ledger_grow_shrink(built);
    let (sample_ns, decide_ns) = monitor_decide(built);
    LayerCosts {
        grow_ns,
        shrink_ns,
        start_finish_ns: ledger_start_finish(built),
        sample_ns,
        decide_ns,
        pass_ns: sched_pass(built),
        push_pop_ns: event_queue(built),
        slowdown_ns: contention(built),
        aggregate_s: aggregate(),
    }
}

/// Jobs placed side by side in the ledger replays, on compute nodes
/// `0..jobs`; lenders come from the nodes after them.
fn ledger_jobs(cluster: &Cluster) -> usize {
    (cluster.len() - LENDERS[2]).min(32)
}

/// Bandwidth of the replayed jobs, GB/s (mid-range of the profile pool).
const REPLAY_BW_GBS: f64 = 6.0;

/// Borrowed slice per lender, MB.
const SLICE_MB: u64 = 256;

/// `grow_entry` then `shrink_job` back to local-only, for a batch of
/// jobs that each borrow from `k` lenders, on the first point's system.
fn ledger_grow_shrink(built: &Built) -> ([f64; 3], [f64; 3]) {
    let mut grow = [0.0; 3];
    let mut shrink = [0.0; 3];
    for (i, &k) in LENDERS.iter().enumerate() {
        let mut cluster = Cluster::from_config(built.system());
        let jobs = ledger_jobs(&cluster);
        for j in 0..jobs {
            let alloc = JobAlloc {
                entries: vec![AllocEntry {
                    node: NodeId(j as u32),
                    local_mb: 1024,
                    remote: Vec::new(),
                }],
            };
            cluster.start_job(JobId(j as u32), alloc, REPLAY_BW_GBS);
        }
        let borrows: Vec<(NodeId, u64)> = (0..k)
            .map(|l| (NodeId((jobs + l) as u32), SLICE_MB))
            .collect();
        let mut grow_samples = Vec::new();
        let mut shrink_samples = Vec::new();
        for _ in 0..BATCHES {
            let t = Instant::now();
            for j in 0..jobs {
                cluster.grow_entry(
                    JobId(j as u32),
                    NodeId(j as u32),
                    0,
                    black_box(&borrows),
                    REPLAY_BW_GBS,
                );
            }
            grow_samples.push(elapsed_ns(t) / jobs as f64);
            let t = Instant::now();
            for j in 0..jobs {
                black_box(cluster.shrink_job(JobId(j as u32), 1024, REPLAY_BW_GBS));
            }
            shrink_samples.push(elapsed_ns(t) / jobs as f64);
        }
        grow[i] = median(grow_samples);
        shrink[i] = median(shrink_samples);
    }
    (grow, shrink)
}

/// `start_job` + `finish_job` of a batch of jobs borrowing from 8
/// lenders each.
fn ledger_start_finish(built: &Built) -> f64 {
    let mut cluster = Cluster::from_config(built.system());
    let jobs = ledger_jobs(&cluster);
    let allocs: Vec<JobAlloc> = (0..jobs)
        .map(|j| JobAlloc {
            entries: vec![AllocEntry {
                node: NodeId(j as u32),
                local_mb: 1024,
                remote: (0..LENDERS[1])
                    .map(|l| (NodeId((jobs + l) as u32), SLICE_MB))
                    .collect(),
            }],
        })
        .collect();
    per_op(|| {
        let batch = allocs.clone();
        let t = Instant::now();
        for (j, alloc) in batch.into_iter().enumerate() {
            cluster.start_job(JobId(j as u32), alloc, REPLAY_BW_GBS);
        }
        for j in 0..jobs {
            black_box(cluster.finish_job(JobId(j as u32)));
        }
        (elapsed_ns(t), jobs)
    })
}

/// Cap on Monitor samples per replay batch.
const MAX_SAMPLES: usize = 1_000_000;

/// Step every job of the workload forward through its usage trace one
/// nominal update at a time (full speed), as the Monitor does, then
/// feed the samples to the Decider with the allocation trailing demand.
fn monitor_decide(built: &Built) -> (f64, f64) {
    let monitor = Monitor::new(built.system().mem_update_interval_s)
        .expect("configured update interval is valid");
    // The sampled progress points, so the timed loop does no planning.
    let mut plan: Vec<(usize, f64)> = Vec::new();
    'jobs: for (j, job) in built.replicas[0].jobs.iter().enumerate() {
        let mut progress = 0.0;
        while progress < 1.0 {
            if plan.len() == MAX_SAMPLES {
                break 'jobs;
            }
            plan.push((j, progress));
            progress = monitor.horizon(progress, 1.0, job.base_runtime_s);
        }
    }
    let jobs = &built.replicas[0].jobs;
    let mut demands = vec![0u64; plan.len()];
    let sample_ns = per_op(|| {
        let mut cursor = 0usize;
        let mut last_job = usize::MAX;
        let t = Instant::now();
        for (slot, &(j, progress)) in demands.iter_mut().zip(&plan) {
            if j != last_job {
                cursor = 0;
                last_job = j;
            }
            let job = &jobs[j];
            *slot = monitor.sample_demand_at(
                &job.usage,
                black_box(progress),
                1.0,
                job.base_runtime_s,
                &mut cursor,
            );
        }
        (elapsed_ns(t), plan.len())
    });
    let mut entries: Vec<(NodeId, u64)> = Vec::new();
    let decide_ns = per_op(|| {
        let mut last_job = usize::MAX;
        let mut total = 0.0;
        for (&demand, &(j, _)) in demands.iter().zip(&plan) {
            if j != last_job {
                last_job = j;
                entries.clear();
                entries.extend((0..jobs[j].nodes).map(|n| (NodeId(n), jobs[j].mem_request_mb)));
            }
            let t = Instant::now();
            let d = decide(black_box(&entries), demand);
            total += elapsed_ns(t);
            black_box(&d);
            for e in entries.iter_mut() {
                e.1 = demand;
            }
        }
        (total, plan.len())
    });
    (sample_ns, decide_ns)
}

/// Queued jobs in the scheduling-pass fixture.
const PASS_QUEUE: usize = 256;

/// One `schedule_pass` on the repository's frozen fixture at the
/// workload's node count (with the fixture seed the repository's own
/// scheduling benches use); a fresh clone per pass replays the same
/// pass.
fn sched_pass(built: &Built) -> f64 {
    let fixture = SchedPassBench::new(built.system().nodes, PASS_QUEUE, 0xBE7C, false);
    per_op(|| {
        let mut ns = 0.0;
        let passes = 20;
        for _ in 0..passes {
            let mut b = fixture.clone();
            let t = Instant::now();
            black_box(b.run_pass());
            ns += elapsed_ns(t);
        }
        (ns, passes)
    })
}

/// Push each job's submit, first memory-update (one jittered interval
/// later) and end events, then pop everything.
fn event_queue(built: &Built) -> f64 {
    let mut rng = Rng64::stream(0xE7E7, built.replicas[0].len() as u64);
    let times: Vec<(SimTime, EventKind)> = built.replicas[0]
        .jobs
        .iter()
        .flat_map(|job| {
            let at = job.submit_s;
            [
                (SimTime::from_secs(at), EventKind::Submit(job.id)),
                (
                    SimTime::from_secs(at + rng.range_f64(240.0, 360.0)),
                    EventKind::MemUpdate {
                        job: job.id,
                        epoch: 0,
                    },
                ),
                (
                    SimTime::from_secs(at + job.base_runtime_s),
                    EventKind::JobEnd {
                        job: job.id,
                        epoch: 0,
                    },
                ),
            ]
        })
        .collect();
    per_op(|| {
        let mut q = EventQueue::new();
        let t = Instant::now();
        for &(at, kind) in &times {
            q.push(at, kind);
        }
        while let Some(e) = q.pop() {
            black_box(e);
        }
        (elapsed_ns(t), times.len())
    })
}

/// `ContentionModel::slowdown` over every profile of the workload's
/// pool across a grid of remote fractions and link pressures.
fn contention(built: &Built) -> f64 {
    let model = ContentionModel::new(built.system().link_capacity_gbs);
    let grid: Vec<RemoteAccess> = (1..=16)
        .flat_map(|r| {
            (0..16).map(move |p| RemoteAccess {
                remote_fraction: r as f64 / 16.0,
                pressure: p as f64 / 8.0,
            })
        })
        .collect();
    let profiles = built.replicas[0].pool.profiles();
    per_op(|| {
        let mut sum = 0.0;
        let t = Instant::now();
        for prof in profiles {
            for &access in &grid {
                sum += model.slowdown(black_box(prof), access);
            }
        }
        black_box(sum);
        (elapsed_ns(t), profiles.len() * grid.len())
    })
}

/// The sweep's aggregation step, as the repository's `bench-huge` leg
/// reports it: a tiny leg over the full memory axis and the paper's
/// three policies (24 raw points). The aggregation function is private
/// to its crate; this is its only public timing.
fn aggregate() -> f64 {
    let cfg = HugeLegConfig {
        nodes: 32,
        jobs: 24,
        max_job_nodes: 4,
        google_pool: 50,
        mem_points: memory_axis(),
        policies: vec![
            PolicySpec::Baseline,
            PolicySpec::Static,
            PolicySpec::Dynamic,
        ],
        topology: TopologySpec::Flat,
        samples: 1,
        telemetry: None,
    };
    median(
        (0..3)
            .map(|_| bench_huge::run(cfg.clone(), 1).aggregate_s)
            .collect(),
    )
}
