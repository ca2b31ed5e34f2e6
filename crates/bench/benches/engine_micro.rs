//! Micro-benchmarks of the simulator's hot paths: the event queue, job
//! placement, the memory ledger, one full simulation, and the metric
//! kernels.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dmhpc_core::cluster::{AllocEntry, Cluster, JobAlloc, MemoryMix, NodeId};
use dmhpc_core::config::SystemConfig;
use dmhpc_core::engine::{EventKind, EventQueue, SimTime};
use dmhpc_core::job::JobId;
use dmhpc_core::policy::{try_place, PolicyKind};
use dmhpc_core::sim::{SchedPassBench, Simulation};
use dmhpc_experiments::scenario::{synthetic_system, synthetic_workload};
use dmhpc_experiments::Scale;
use dmhpc_metrics::ecdf::Ecdf;
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    let n = 100_000u64;
    g.throughput(Throughput::Elements(n));
    g.bench_function("push_pop_100k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            // Interleaved times exercise heap reordering.
            for i in 0..n {
                let t = SimTime((i * 2_654_435_761) % 1_000_000_000);
                q.push(t, EventKind::Submit(JobId(i as u32)));
            }
            let mut last = SimTime::ZERO;
            while let Some(e) = q.pop() {
                debug_assert!(e.time >= last);
                last = e.time;
            }
            black_box(last)
        })
    });
    g.finish();
}

fn busy_cluster(nodes: u32) -> Cluster {
    let cfg = SystemConfig::with_nodes(nodes).with_memory_mix(MemoryMix::half_large());
    let mut c = Cluster::from_config(&cfg);
    // Occupy 70% of nodes with 48 GB jobs.
    let mut id = 0u32;
    for _ in 0..(nodes * 7 / 10) {
        if let Some(alloc) = try_place(&c, PolicyKind::Static, 1, 48 * 1024) {
            c.start_job(JobId(id), alloc, 4.0);
            id += 1;
        }
    }
    c
}

fn bench_placement(c: &mut Criterion) {
    let mut g = c.benchmark_group("placement");
    for &nodes in &[256u32, 1024] {
        let cluster = busy_cluster(nodes);
        g.bench_function(format!("try_place_local_{nodes}"), |b| {
            b.iter(|| black_box(try_place(&cluster, PolicyKind::Static, 4, 16 * 1024)))
        });
        g.bench_function(format!("try_place_borrowing_{nodes}"), |b| {
            b.iter(|| black_box(try_place(&cluster, PolicyKind::Static, 4, 100 * 1024)))
        });
    }
    g.finish();
}

fn bench_sched_pass(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched_pass");
    // 1490 ≈ the paper's Grizzly cluster; 256/1024 are the synthetic
    // scales. Each iteration replays one scheduling pass on a clone of
    // the frozen high-pressure state (clone time excluded).
    for &nodes in &[256u32, 1024, 1490] {
        for (label, reference) in [("indexed", false), ("reference", true)] {
            let fixture = SchedPassBench::new(nodes, 256, 0xBE7C, reference);
            g.bench_function(format!("pass_{label}_{nodes}"), |b| {
                b.iter_batched(
                    || fixture.clone(),
                    |mut f| black_box(f.run_pass()),
                    BatchSize::SmallInput,
                )
            });
        }
    }
    g.finish();
}

fn bench_ledger(c: &mut Criterion) {
    let mut g = c.benchmark_group("ledger");
    g.bench_function("start_finish_roundtrip_1024", |b| {
        let cluster = busy_cluster(1024);
        let alloc = try_place(&cluster, PolicyKind::Static, 8, 100 * 1024).expect("fits");
        b.iter_batched(
            || cluster.clone(),
            |mut cl| {
                cl.start_job(JobId(9999), alloc.clone(), 6.0);
                cl.shrink_job(JobId(9999), 20 * 1024, 6.0);
                cl.finish_job(JobId(9999));
                black_box(cl.idle_count())
            },
            BatchSize::SmallInput,
        )
    });
    // Contention-ledger upkeep at 1, 8 and 64 lenders per job: one
    // grown entry (top-ups on every lender), a shrink back to local,
    // and the two reads `update_speed` makes per re-speed.
    for k in [1usize, 8, 64] {
        let (cluster, top_up) = ledger_fixture(k);
        g.bench_function(format!("grow_entry_l{k}"), |b| {
            b.iter_batched(
                || cluster.clone(),
                |mut cl| {
                    cl.grow_entry(JobId(0), NodeId(0), 0, black_box(&top_up), 6.0);
                    cl
                },
                BatchSize::SmallInput,
            )
        });
        g.bench_function(format!("shrink_job_l{k}"), |b| {
            b.iter_batched(
                || cluster.clone(),
                |mut cl| {
                    black_box(cl.shrink_job(JobId(0), 1024, 6.0));
                    cl
                },
                BatchSize::SmallInput,
            )
        });
        g.bench_function(format!("update_speed_reads_l{k}"), |b| {
            b.iter(|| {
                black_box((
                    cluster.hottest_lender_demand_gbs(black_box(JobId(0))),
                    cluster.priced_remote_fraction(black_box(JobId(0))),
                ))
            })
        });
    }
    g.finish();
}

/// Compute nodes of the ledger fixture's main job.
const LEDGER_ENTRIES: u32 = 4;

/// A cluster where job 0 runs on `LEDGER_ENTRIES` nodes and every entry
/// borrows 256 MB from each of `k` lenders (so `k` distinct lenders over
/// `4k` slices), and job 1 borrows from the same lenders, so the
/// per-lender demand is shared. Returns the cluster and a top-up grow of
/// 64 MB on every lender.
fn ledger_fixture(k: usize) -> (Cluster, Vec<(NodeId, u64)>) {
    let first_lender = LEDGER_ENTRIES + 1;
    let mut c = Cluster::new(vec![64 * 1024; first_lender as usize + k], 0.5);
    let slices = |mb: u64| -> Vec<(NodeId, u64)> {
        (0..k as u32)
            .map(|l| (NodeId(first_lender + l), mb))
            .collect()
    };
    let entries = (0..LEDGER_ENTRIES)
        .map(|n| AllocEntry {
            node: NodeId(n),
            local_mb: 1024,
            remote: slices(256),
        })
        .collect();
    c.start_job(JobId(0), JobAlloc { entries }, 6.0);
    let other = AllocEntry {
        node: NodeId(LEDGER_ENTRIES),
        local_mb: 1024,
        remote: slices(128),
    };
    c.start_job(
        JobId(1),
        JobAlloc {
            entries: vec![other],
        },
        4.0,
    );
    (c, slices(64))
}

fn bench_simulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulation");
    g.sample_size(10);
    let system = synthetic_system(Scale::Small, MemoryMix::half_large());
    let workload = synthetic_workload(Scale::Small, 0.5, 0.6, 42);
    for policy in PolicyKind::ALL {
        g.bench_function(format!("end_to_end_{policy}"), |b| {
            b.iter(|| {
                black_box(
                    Simulation::new(system.clone(), workload.clone(), policy)
                        .run()
                        .stats
                        .completed,
                )
            })
        });
    }
    g.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics");
    let samples: Vec<f64> = (0..100_000)
        .map(|i| ((i * 48_271) % 1_000_003) as f64)
        .collect();
    g.throughput(Throughput::Elements(samples.len() as u64));
    g.bench_function("ecdf_build_100k", |b| {
        b.iter(|| black_box(Ecdf::new(samples.clone()).unwrap()))
    });
    let e = Ecdf::new(samples).unwrap();
    g.throughput(Throughput::Elements(1));
    g.bench_function("ecdf_quantiles", |b| {
        b.iter(|| black_box((e.quantile(0.5), e.quantile(0.95), e.eval(500_000.0))))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_placement,
    bench_sched_pass,
    bench_ledger,
    bench_simulation,
    bench_metrics
);
criterion_main!(benches);
