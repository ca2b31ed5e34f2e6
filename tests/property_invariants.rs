//! Property-based tests on core invariants (proptest).

use dmhpc::core::cluster::{AllocEntry, Cluster, JobAlloc, MemoryMix, NodeId};
use dmhpc::core::config::SystemConfig;
use dmhpc::core::job::{JobId, MemoryUsageTrace};
use dmhpc::core::policy::{plan_growth, try_place, PolicyKind};
use dmhpc::core::sim::{Simulation, Workload};
use dmhpc::metrics::ecdf::Ecdf;
use dmhpc::metrics::summary::binned_percentages;
use dmhpc::model::rng::Rng64;
use dmhpc::model::{ProfilePool, SensitivityCurve};
use dmhpc::traces::rdp::{max_polyline_error, rdp};
use proptest::prelude::*;

/// The allocation's distinct lenders in first-appearance order, by the
/// obvious quadratic scan: the oracle for the cluster's linear ledger.
fn naive_lenders(alloc: &JobAlloc) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::new();
    for e in &alloc.entries {
        for &(l, _) in &e.remote {
            if !out.contains(&l) {
                out.push(l);
            }
        }
    }
    out
}

/// Pick `k` distinct slices of `pool` (in random order) as borrows of
/// 1–64 MB each, skipping `exclude`.
fn draw_borrows(rng: &mut Rng64, pool: &[NodeId], k: usize, exclude: NodeId) -> Vec<(NodeId, u64)> {
    let mut picks: Vec<NodeId> = pool.iter().copied().filter(|&l| l != exclude).collect();
    rng.shuffle(&mut picks);
    picks.truncate(k);
    picks
        .into_iter()
        .map(|l| (l, rng.range_u64(1, 64)))
        .collect()
}

/// Check the linear lender reads of every placed job against the naive
/// dedup of its allocation: `lenders_into` order and the bits of
/// `hottest_lender_demand_gbs`.
fn check_lender_reads(cluster: &Cluster, placed: &[(JobId, Vec<NodeId>)]) -> Result<(), String> {
    let mut got = Vec::new();
    for (id, _) in placed {
        let naive = naive_lenders(cluster.alloc_of(*id).unwrap());
        cluster.lenders_into(*id, &mut got);
        prop_assert_eq!(&got, &naive);
        let hottest = naive
            .iter()
            .map(|&l| cluster.node(l).remote_demand_gbs)
            .fold(0.0, f64::max);
        prop_assert_eq!(
            cluster.hottest_lender_demand_gbs(*id).to_bits(),
            hottest.to_bits()
        );
    }
    Ok(())
}

proptest! {
    /// RDP keeps endpoints, returns a subsequence, and respects the
    /// perpendicular error bound.
    #[test]
    fn rdp_guarantees(
        ys in prop::collection::vec(0.0f64..10_000.0, 2..200),
        eps in 0.0f64..500.0,
    ) {
        let pts: Vec<(f64, f64)> = ys.iter().enumerate()
            .map(|(i, &y)| (i as f64, y))
            .collect();
        let r = rdp(&pts, eps);
        prop_assert!(r.len() >= 2);
        prop_assert_eq!(r[0], pts[0]);
        prop_assert_eq!(*r.last().unwrap(), *pts.last().unwrap());
        // Subsequence of the input.
        let mut idx = 0usize;
        for p in &r {
            while idx < pts.len() && pts[idx] != *p { idx += 1; }
            prop_assert!(idx < pts.len(), "reduced point not in input order");
        }
        prop_assert!(max_polyline_error(&pts, &r) <= eps + 1e-9);
    }

    /// The ECDF is a valid CDF: monotone, in [0,1], quantiles in range,
    /// and eval(quantile(q)) >= q.
    #[test]
    fn ecdf_is_a_cdf(
        samples in prop::collection::vec(-1e6f64..1e6, 1..300),
        q in 0.0f64..1.0,
        probe in -2e6f64..2e6,
    ) {
        let e = Ecdf::new(samples.clone()).unwrap();
        let y = e.eval(probe);
        prop_assert!((0.0..=1.0).contains(&y));
        prop_assert!(e.eval(probe + 1.0) >= y);
        let xq = e.quantile(q);
        prop_assert!(xq >= e.min() && xq <= e.max());
        prop_assert!(e.eval(xq) >= q - 1e-12);
    }

    /// Binned percentages sum to 100 for non-empty input.
    #[test]
    fn bins_partition(samples in prop::collection::vec(0.0f64..200.0, 1..200)) {
        let p = binned_percentages(&samples, &[0.0, 12.0, 24.0, 48.0, 96.0, 128.0]);
        prop_assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&x| x >= 0.0));
    }

    /// Sensitivity curves built from the kneed family are monotone and
    /// >= their base everywhere.
    #[test]
    fn sensitivity_monotone(
        base in 1.0f64..2.0,
        knee in 0.1f64..2.0,
        slope in 0.0f64..10.0,
        p1 in 0.0f64..5.0,
        p2 in 0.0f64..5.0,
    ) {
        let c = SensitivityCurve::kneed(base, knee, slope);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(c.slowdown(lo) <= c.slowdown(hi) + 1e-12);
        prop_assert!(c.slowdown(lo) >= base - 1e-12);
    }

    /// Usage traces: max_in dominates usage_at at both ends, and peak
    /// dominates everything.
    #[test]
    fn usage_trace_bounds(
        mems in prop::collection::vec(1u64..100_000, 1..40),
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let n = mems.len();
        let points: Vec<(f64, u64)> = mems.iter().enumerate()
            .map(|(i, &m)| (i as f64 / n as f64, m))
            .collect();
        let t = MemoryUsageTrace::new(points).unwrap();
        let mx = t.max_in(a, b);
        prop_assert!(mx >= t.usage_at(a.min(b)));
        prop_assert!(mx >= t.usage_at(a.max(b)));
        prop_assert!(mx <= t.peak());
        prop_assert!(t.average() <= t.peak() as f64);
    }

    /// Random placement/release sequences keep the cluster ledger
    /// consistent and conserve memory exactly.
    #[test]
    fn cluster_ledger_conserves(
        caps in prop::collection::vec(512u64..4096, 3..12),
        ops in prop::collection::vec((1u32..4, 64u64..6000, 0u8..4), 1..60),
    ) {
        let mut cluster = Cluster::new(caps, 0.5);
        let mut placed: Vec<JobId> = Vec::new();
        let mut next_id = 0u32;
        for (nodes, req, action) in ops {
            match action {
                // Try to place a new job via the static policy.
                0 | 1 => {
                    if let Some(alloc) = try_place(&cluster, PolicyKind::Static, nodes, req) {
                        let id = JobId(next_id);
                        next_id += 1;
                        cluster.start_job(id, alloc, 3.0);
                        placed.push(id);
                    }
                }
                // Finish the oldest job.
                2 => {
                    if !placed.is_empty() {
                        let id = placed.remove(0);
                        cluster.finish_job(id);
                    }
                }
                // Shrink then regrow the newest job.
                _ => {
                    if let Some(&id) = placed.last() {
                        cluster.shrink_job(id, req / 2, 3.0);
                        let alloc = cluster.alloc_of(id).unwrap().clone();
                        for e in &alloc.entries {
                            let computes: Vec<_> =
                                alloc.entries.iter().map(|x| x.node).collect();
                            if let Some((l, borrows)) =
                                plan_growth(&cluster, e.node, &computes, 128)
                            {
                                cluster.grow_entry(id, e.node, l, &borrows, 3.0);
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(cluster.check_invariants(), Ok(()));
            prop_assert!(cluster.total_allocated_mb() <= cluster.total_capacity_mb());
        }
        // Draining everything returns the ledger to zero.
        for id in placed {
            cluster.finish_job(id);
        }
        prop_assert_eq!(cluster.total_allocated_mb(), 0);
        prop_assert_eq!(cluster.idle_count(), cluster.len());
    }

    /// Every simulation conserves jobs: completed + permanently failed +
    /// unschedulable == total, and is deterministic.
    #[test]
    fn simulation_conserves_jobs(
        seed in 0u64..1000,
        n_jobs in 5usize..40,
        policy_idx in 0usize..3,
    ) {
        use dmhpc::core::job::Job;
        use dmhpc::model::rng::Rng64;
        let policy = PolicyKind::ALL[policy_idx];
        let mut rng = Rng64::new(seed);
        let jobs: Vec<Job> = (0..n_jobs as u32).map(|i| {
            let peak = rng.range_u64(64, 3000);
            Job {
                id: JobId(i),
                submit_s: rng.range_f64(0.0, 5000.0),
                nodes: rng.range_u64(1, 4) as u32,
                base_runtime_s: rng.range_f64(200.0, 4000.0),
                time_limit_s: 6000.0,
                mem_request_mb: (peak as f64 * rng.range_f64(0.8, 1.8)) as u64,
                usage: MemoryUsageTrace::new(vec![
                    (0.0, peak / 2),
                    (0.5, peak),
                ]).unwrap(),
                profile: dmhpc::model::ProfileId(0),
            }
        }).collect();
        let cfg = SystemConfig::with_nodes(8)
            .with_memory_mix(MemoryMix::new(1024, 2048, 0.5));
        let mk = || Simulation::new(
            cfg.clone(),
            Workload::try_new(jobs.clone(), ProfilePool::synthetic(4, 1)).unwrap(),
            policy,
        ).with_seed(seed).run();
        let out = mk();
        let s = &out.stats;
        prop_assert_eq!(
            s.completed + s.unschedulable + s.failed_exceeded + s.failed_restarts,
            n_jobs as u32
        );
        prop_assert_eq!(out.response_times_s.len(), s.completed as usize);
        // Determinism.
        let out2 = mk();
        prop_assert_eq!(out.stats.makespan_s, out2.stats.makespan_s);
        prop_assert_eq!(&out.response_times_s, &out2.response_times_s);
        // Response times are at least the shortest base runtime (no
        // time travel).
        for rt in &out.response_times_s {
            prop_assert!(*rt >= 200.0 - 1e-6);
        }
    }

    /// Random start/grow/shrink/revoke/finish sequences with up to 64
    /// lenders per job keep the linear lender reads equal to a naive
    /// first-appearance dedup, bit for bit, and the ledger audit clean.
    #[test]
    fn lender_reads_match_naive_dedup(seed in 0u64..1_000_000, n_ops in 1usize..60) {
        const NODES: u32 = 96;
        let mut rng = Rng64::new(seed);
        let mut cluster = Cluster::new(vec![100_000; NODES as usize], 0.5);
        // Each placed job borrows only from its own pool of ≤ 64 lenders.
        let mut placed: Vec<(JobId, Vec<NodeId>)> = Vec::new();
        let mut next_id = 0u32;
        for _ in 0..n_ops {
            let bw = rng.range_f64(0.5, 40.0);
            match rng.below(6) {
                0 | 1 => {
                    let mut idle: Vec<NodeId> = (0..NODES)
                        .map(NodeId)
                        .filter(|&n| cluster.node(n).running.is_none())
                        .collect();
                    rng.shuffle(&mut idle);
                    idle.truncate(rng.range_u64(1, 3) as usize);
                    if idle.is_empty() {
                        continue;
                    }
                    let mut pool: Vec<NodeId> = (0..NODES).map(NodeId).collect();
                    rng.shuffle(&mut pool);
                    pool.truncate(rng.range_u64(0, 64) as usize);
                    let entries = idle
                        .iter()
                        .map(|&node| {
                            let k = rng.range_u64(0, pool.len() as u64) as usize;
                            AllocEntry {
                                node,
                                local_mb: rng.range_u64(0, 4096),
                                remote: draw_borrows(&mut rng, &pool, k, node),
                            }
                        })
                        .collect();
                    let id = JobId(next_id);
                    next_id += 1;
                    cluster.start_job(id, JobAlloc { entries }, bw);
                    placed.push((id, pool));
                }
                2 if !placed.is_empty() => {
                    let (id, pool) = &placed[rng.below(placed.len() as u64) as usize];
                    let entries = &cluster.alloc_of(*id).unwrap().entries;
                    let node = entries[rng.below(entries.len() as u64) as usize].node;
                    let k = rng.range_u64(0, 8) as usize;
                    let mut borrows = draw_borrows(&mut rng, pool, k, node);
                    // A lender may repeat within one grow; it merges.
                    if !borrows.is_empty() && rng.chance(0.3) {
                        borrows.push(borrows[0]);
                    }
                    let local = rng.range_u64(0, 256);
                    cluster.grow_entry(*id, node, local, &borrows, bw);
                }
                3 if !placed.is_empty() => {
                    let (id, _) = &placed[rng.below(placed.len() as u64) as usize];
                    cluster.shrink_job(*id, rng.range_u64(0, 6000), bw);
                }
                4 if !placed.is_empty() => {
                    let (id, pool) = &placed[rng.below(placed.len() as u64) as usize];
                    if !pool.is_empty() {
                        let lender = pool[rng.below(pool.len() as u64) as usize];
                        cluster.revoke_lender(*id, lender, bw);
                    }
                }
                _ if !placed.is_empty() => {
                    let i = rng.below(placed.len() as u64) as usize;
                    let (id, _) = placed.swap_remove(i);
                    cluster.finish_job(id);
                }
                _ => {}
            }
            prop_assert_eq!(cluster.check_invariants(), Ok(()));
            check_lender_reads(&cluster, &placed)?;
        }
    }
}
