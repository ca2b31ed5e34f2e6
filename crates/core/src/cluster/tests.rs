use super::*;
use crate::error::CoreError;
use crate::job::JobId;

fn cluster4() -> Cluster {
    // 4 nodes of 1000 MB, lend cap 50%.
    Cluster::new(vec![1000; 4], 0.5)
}

fn local_alloc(nodes: &[u32], mb: u64) -> JobAlloc {
    JobAlloc {
        entries: nodes
            .iter()
            .map(|&n| AllocEntry {
                node: NodeId(n),
                local_mb: mb,
                remote: vec![],
            })
            .collect(),
    }
}

#[test]
fn memory_mix_axis_fractions() {
    for (pct, mix) in MemoryMix::paper_axis() {
        let total = mix.total_memory_mb(1024) as f64;
        let frac = total / (1024 * MemoryMix::FULL_NODE_MB) as f64 * 100.0;
        // Label is the floor-ish value used in the paper.
        assert!(
            (frac - pct as f64).abs() < 1.0,
            "axis point {pct}: got {frac:.2}"
        );
    }
}

#[test]
fn memory_mix_large_nodes_spread() {
    let mix = MemoryMix::new(64, 128, 0.25);
    let caps = mix.capacities(8);
    assert_eq!(caps.iter().filter(|&&c| c == 128).count(), 2);
    // Evenly spread: one large in each half.
    assert!(caps[..4].contains(&128) && caps[4..].contains(&128));
}

#[test]
fn memory_mix_extremes() {
    let all = MemoryMix::all_large();
    assert_eq!(all.large_nodes(10), 10);
    let none = MemoryMix::new(64, 128, 0.0);
    assert_eq!(none.large_nodes(10), 0);
}

#[test]
fn start_and_finish_job_roundtrip() {
    let mut c = cluster4();
    c.start_job(JobId(1), local_alloc(&[0, 1], 600), 5.0);
    assert_eq!(c.idle_count(), 2);
    assert_eq!(c.node(NodeId(0)).local_alloc_mb, 600);
    assert_eq!(c.total_allocated_mb(), 1200);
    let alloc = c.finish_job(JobId(1));
    assert_eq!(alloc.total_mb(), 1200);
    assert_eq!(c.idle_count(), 4);
    assert_eq!(c.total_allocated_mb(), 0);
    assert_eq!(c.check_invariants(), Ok(()));
}

#[test]
fn borrow_accounting() {
    let mut c = cluster4();
    let alloc = JobAlloc {
        entries: vec![AllocEntry {
            node: NodeId(0),
            local_mb: 1000,
            remote: vec![(NodeId(1), 400), (NodeId(2), 100)],
        }],
    };
    c.start_job(JobId(7), alloc, 8.0);
    assert_eq!(c.node(NodeId(1)).lent_mb, 400);
    assert_eq!(c.node(NodeId(2)).lent_mb, 100);
    assert_eq!(c.node(NodeId(1)).free_mb(), 600);
    assert_eq!(c.borrowers_of(NodeId(1)), &[JobId(7)]);
    // Demand split by slice share: total 1500, node1 carries 400.
    let d1 = c.node(NodeId(1)).remote_demand_gbs;
    assert!((d1 - 8.0 * 400.0 / 1500.0).abs() < 1e-9);
    assert!(c.hottest_lender_demand_gbs(JobId(7)) >= d1);
    c.finish_job(JobId(7));
    assert_eq!(c.node(NodeId(1)).lent_mb, 0);
    assert!(c.node(NodeId(1)).remote_demand_gbs.abs() < 1e-9);
    assert!(c.borrowers_of(NodeId(1)).is_empty());
}

#[test]
fn schedulable_respects_lend_cap() {
    let mut c = cluster4();
    // Job on node 0 borrowing 600 from node 1 (> 50% of 1000).
    let alloc = JobAlloc {
        entries: vec![AllocEntry {
            node: NodeId(0),
            local_mb: 1000,
            remote: vec![(NodeId(1), 600)],
        }],
    };
    c.start_job(JobId(1), alloc, 1.0);
    assert!(!c.schedulable(NodeId(1)), "memory node must not schedule");
    assert!(c.schedulable(NodeId(2)));
    assert!(!c.schedulable(NodeId(0)), "busy node must not schedule");
}

#[test]
fn shrink_releases_remote_first() {
    let mut c = cluster4();
    let alloc = JobAlloc {
        entries: vec![AllocEntry {
            node: NodeId(0),
            local_mb: 500,
            remote: vec![(NodeId(1), 300)],
        }],
    };
    c.start_job(JobId(1), alloc, 4.0);
    // Shrink 800 -> 600: only remote shrinks (300 -> 100).
    let released = c.shrink_job(JobId(1), 600, 4.0);
    assert_eq!(released, 200);
    let a = c.alloc_of(JobId(1)).unwrap();
    assert_eq!(a.entries[0].local_mb, 500);
    assert_eq!(a.entries[0].remote, vec![(NodeId(1), 100)]);
    assert_eq!(c.node(NodeId(1)).lent_mb, 100);
    // Shrink to 200: remote gone, local 500 -> 200.
    let released = c.shrink_job(JobId(1), 200, 4.0);
    assert_eq!(released, 400);
    let a = c.alloc_of(JobId(1)).unwrap();
    assert_eq!(a.entries[0].local_mb, 200);
    assert!(a.entries[0].remote.is_empty());
    assert!(c.borrowers_of(NodeId(1)).is_empty());
    assert_eq!(c.check_invariants(), Ok(()));
}

#[test]
fn shrink_below_target_is_noop() {
    let mut c = cluster4();
    c.start_job(JobId(1), local_alloc(&[0], 300), 1.0);
    assert_eq!(c.shrink_job(JobId(1), 500, 1.0), 0);
    assert_eq!(c.alloc_of(JobId(1)).unwrap().total_mb(), 300);
}

#[test]
fn grow_local_and_remote() {
    let mut c = cluster4();
    c.start_job(JobId(1), local_alloc(&[0], 300), 6.0);
    c.grow_entry(JobId(1), NodeId(0), 700, &[(NodeId(3), 250)], 6.0);
    let a = c.alloc_of(JobId(1)).unwrap();
    assert_eq!(a.entries[0].local_mb, 1000);
    assert_eq!(a.entries[0].remote, vec![(NodeId(3), 250)]);
    assert_eq!(c.node(NodeId(0)).free_mb(), 0);
    assert_eq!(c.node(NodeId(3)).lent_mb, 250);
    assert_eq!(c.borrowers_of(NodeId(3)), &[JobId(1)]);
    // Growing again merges into the same lender slot.
    c.grow_entry(JobId(1), NodeId(0), 0, &[(NodeId(3), 50)], 6.0);
    let a = c.alloc_of(JobId(1)).unwrap();
    assert_eq!(a.entries[0].remote, vec![(NodeId(3), 300)]);
    assert_eq!(c.borrowers_of(NodeId(3)), &[JobId(1)]);
}

#[test]
#[should_panic(expected = "busy")]
fn start_on_busy_node_panics() {
    let mut c = cluster4();
    c.start_job(JobId(1), local_alloc(&[0], 100), 1.0);
    c.start_job(JobId(2), local_alloc(&[0], 100), 1.0);
}

#[test]
#[should_panic(expected = "free")]
fn over_allocation_panics() {
    let mut c = cluster4();
    c.start_job(JobId(1), local_alloc(&[0], 1500), 1.0);
}

#[test]
#[should_panic(expected = "own node")]
fn self_borrow_panics() {
    let mut c = cluster4();
    let alloc = JobAlloc {
        entries: vec![AllocEntry {
            node: NodeId(0),
            local_mb: 100,
            remote: vec![(NodeId(0), 50)],
        }],
    };
    c.start_job(JobId(1), alloc, 1.0);
}

#[test]
#[should_panic(expected = "lender")]
fn overdrawn_lender_panics() {
    let mut c = cluster4();
    // Lender 1 has 1000 free; two entries borrowing 600 each overdraw.
    let alloc = JobAlloc {
        entries: vec![
            AllocEntry {
                node: NodeId(0),
                local_mb: 0,
                remote: vec![(NodeId(1), 600)],
            },
            AllocEntry {
                node: NodeId(2),
                local_mb: 0,
                remote: vec![(NodeId(1), 600)],
            },
        ],
    };
    c.start_job(JobId(1), alloc, 1.0);
}

#[test]
fn hottest_lender_is_the_max_across_lenders() {
    let mut c = Cluster::new(vec![1000; 4], 0.5);
    // Job 1 borrows lightly from node 2.
    c.start_job(
        JobId(1),
        JobAlloc {
            entries: vec![AllocEntry {
                node: NodeId(0),
                local_mb: 900,
                remote: vec![(NodeId(2), 100)],
            }],
        },
        2.0,
    );
    // Job 2 borrows heavily from node 3 AND lightly from node 2.
    c.start_job(
        JobId(2),
        JobAlloc {
            entries: vec![AllocEntry {
                node: NodeId(1),
                local_mb: 200,
                remote: vec![(NodeId(3), 700), (NodeId(2), 100)],
            }],
        },
        10.0,
    );
    // Node 3 carries 10 × 700/1000 = 7 GB/s; node 2 carries
    // 2×0.1 + 10×0.1 = 1.2 GB/s.
    let hot1 = c.hottest_lender_demand_gbs(JobId(1));
    let hot2 = c.hottest_lender_demand_gbs(JobId(2));
    assert!((hot1 - 1.2).abs() < 1e-9, "job1 sees node2: {hot1}");
    assert!((hot2 - 7.0).abs() < 1e-9, "job2 sees node3: {hot2}");
    // Both jobs appear in node 2's borrower list.
    assert_eq!(c.borrowers_of(NodeId(2)).len(), 2);
}

#[test]
fn fully_local_job_has_zero_hot_demand() {
    let mut c = cluster4();
    c.start_job(JobId(1), local_alloc(&[0], 500), 9.0);
    assert_eq!(c.hottest_lender_demand_gbs(JobId(1)), 0.0);
    assert_eq!(c.hottest_lender_demand_gbs(JobId(99)), 0.0);
}

#[test]
fn down_node_leaves_pool_and_indexes() {
    let mut c = cluster4();
    assert_eq!(c.free_pool_mb(), 4000);
    c.set_node_down(NodeId(1));
    assert!(c.is_down(NodeId(1)));
    assert_eq!(c.down_count(), 1);
    assert_eq!(c.total_offline_mb(), 1000);
    assert_eq!(c.free_pool_mb(), 3000);
    assert_eq!(c.node(NodeId(1)).free_mb(), 0);
    assert!(!c.schedulable(NodeId(1)));
    assert_eq!(c.schedulable_count(), 3);
    // The free/sched indexes must not offer the down node.
    assert!(c.free_by_free_desc().all(|(_, id)| id != NodeId(1)));
    assert!(c.schedulable_by_free_asc(0).all(|(_, id)| id != NodeId(1)));
    c.repair_node(NodeId(1));
    assert_eq!(c.total_offline_mb(), 0);
    assert_eq!(c.schedulable_count(), 4);
    assert_eq!(c.node(NodeId(1)).free_mb(), 1000);
    assert_eq!(c.check_invariants(), Ok(()));
}

#[test]
fn degrade_and_restore_roundtrip() {
    let mut c = cluster4();
    c.apply_degrade(NodeId(2), 400);
    assert_eq!(c.node(NodeId(2)).free_mb(), 600);
    assert_eq!(c.total_offline_mb(), 400);
    assert_eq!(c.free_pool_mb(), 3600);
    // Degraded slices accumulate.
    c.apply_degrade(NodeId(2), 100);
    assert_eq!(c.node(NodeId(2)).degraded_mb, 500);
    c.restore_degrade(NodeId(2), 500);
    assert_eq!(c.node(NodeId(2)).free_mb(), 1000);
    assert_eq!(c.total_offline_mb(), 0);
    assert_eq!(c.check_invariants(), Ok(()));
}

#[test]
fn degrade_on_down_node_does_not_double_count() {
    let mut c = cluster4();
    c.set_node_down(NodeId(0));
    c.apply_degrade(NodeId(0), 300);
    // The whole node is already offline; degradation adds nothing.
    assert_eq!(c.total_offline_mb(), 1000);
    c.repair_node(NodeId(0));
    // Back up, but still missing the degraded slice.
    assert_eq!(c.total_offline_mb(), 300);
    assert_eq!(c.node(NodeId(0)).free_mb(), 700);
    c.restore_degrade(NodeId(0), 300);
    assert_eq!(c.total_offline_mb(), 0);
    assert_eq!(c.check_invariants(), Ok(()));
}

#[test]
#[should_panic(expected = "overlaps allocated")]
fn degrade_cannot_overlap_allocation() {
    let mut c = cluster4();
    c.start_job(JobId(1), local_alloc(&[0], 800), 1.0);
    c.apply_degrade(NodeId(0), 300);
}

#[test]
fn revoke_lender_strips_borrows_and_reports_loss() {
    let mut c = cluster4();
    let alloc = JobAlloc {
        entries: vec![
            AllocEntry {
                node: NodeId(0),
                local_mb: 1000,
                remote: vec![(NodeId(2), 300)],
            },
            AllocEntry {
                node: NodeId(1),
                local_mb: 1000,
                remote: vec![(NodeId(2), 200), (NodeId(3), 100)],
            },
        ],
    };
    c.start_job(JobId(5), alloc, 6.0);
    let lost = c.revoke_lender(JobId(5), NodeId(2), 6.0);
    assert_eq!(lost, vec![(NodeId(0), 300), (NodeId(1), 200)]);
    assert_eq!(c.node(NodeId(2)).lent_mb, 0);
    assert!(c.borrowers_of(NodeId(2)).is_empty());
    assert_eq!(c.borrowers_of(NodeId(3)), &[JobId(5)]);
    let a = c.alloc_of(JobId(5)).unwrap();
    assert_eq!(a.remote_mb(), 100);
    assert_eq!(c.check_invariants(), Ok(()));
    // Revoking a lender the job does not use is a no-op.
    assert!(c.revoke_lender(JobId(5), NodeId(2), 6.0).is_empty());
}

#[test]
fn two_borrowers_share_lender_demand() {
    let mut c = cluster4();
    let mk = |node: u32, lender: u32| JobAlloc {
        entries: vec![AllocEntry {
            node: NodeId(node),
            local_mb: 500,
            remote: vec![(NodeId(lender), 500)],
        }],
    };
    c.start_job(JobId(1), mk(0, 2), 10.0);
    c.start_job(JobId(2), mk(1, 3), 4.0);
    // Each job is half remote: contributes bandwidth × 0.5.
    assert!((c.node(NodeId(2)).remote_demand_gbs - 5.0).abs() < 1e-9);
    assert!((c.node(NodeId(3)).remote_demand_gbs - 2.0).abs() < 1e-9);
    c.finish_job(JobId(1));
    assert!(c.node(NodeId(2)).remote_demand_gbs.abs() < 1e-9);
    assert!((c.node(NodeId(3)).remote_demand_gbs - 2.0).abs() < 1e-9);
}

#[test]
fn skewed_demand_ledger_is_a_typed_ledger_error() {
    let mut c = cluster4();
    let alloc = JobAlloc {
        entries: vec![AllocEntry {
            node: NodeId(0),
            local_mb: 500,
            remote: vec![(NodeId(2), 300), (NodeId(3), 200)],
        }],
    };
    c.start_job(JobId(1), alloc, 10.0);
    assert_eq!(c.check_invariants(), Ok(()));
    // Drift below the tolerance is accepted …
    c.nodes[2].remote_demand_gbs += 1e-12;
    assert_eq!(c.check_invariants(), Ok(()));
    // … a lost contribution is not.
    c.nodes[2].remote_demand_gbs += 0.5;
    let err = c.check_invariants().unwrap_err();
    assert!(matches!(err, CoreError::Ledger(_)), "{err:?}");
    assert!(err.to_string().contains("demand ledger"), "{err}");
}

#[test]
fn contribution_order_mismatch_is_a_ledger_error() {
    let mut c = cluster4();
    let alloc = JobAlloc {
        entries: vec![AllocEntry {
            node: NodeId(0),
            local_mb: 500,
            remote: vec![(NodeId(2), 300), (NodeId(3), 200)],
        }],
    };
    c.start_job(JobId(1), alloc, 10.0);
    let mut lenders = Vec::new();
    c.lenders_into(JobId(1), &mut lenders);
    assert_eq!(lenders, vec![NodeId(2), NodeId(3)]);
    // Same lenders, wrong order: the hottest-lender read relies on the
    // contribution list mirroring the allocation's first appearances.
    c.demand_contribs.get_mut(&JobId(1)).unwrap().reverse();
    let err = c.check_invariants().unwrap_err();
    assert!(matches!(err, CoreError::Ledger(_)), "{err:?}");
}

#[test]
fn lender_sets_are_first_appearance_across_entries() {
    let mut c = Cluster::new(vec![1000; 6], 0.5);
    let alloc = JobAlloc {
        entries: vec![
            AllocEntry {
                node: NodeId(0),
                local_mb: 600,
                remote: vec![(NodeId(4), 100), (NodeId(2), 100)],
            },
            AllocEntry {
                node: NodeId(1),
                local_mb: 600,
                remote: vec![(NodeId(2), 100), (NodeId(5), 100), (NodeId(4), 50)],
            },
        ],
    };
    c.start_job(JobId(3), alloc, 8.0);
    let mut lenders = Vec::new();
    c.lenders_into(JobId(3), &mut lenders);
    assert_eq!(lenders, vec![NodeId(4), NodeId(2), NodeId(5)]);
    // A grow that adds a new lender and tops up an old one.
    c.grow_entry(
        JobId(3),
        NodeId(0),
        0,
        &[(NodeId(3), 10), (NodeId(4), 10)],
        8.0,
    );
    c.lenders_into(JobId(3), &mut lenders);
    assert_eq!(lenders, vec![NodeId(4), NodeId(2), NodeId(3), NodeId(5)]);
    assert_eq!(c.borrowers_of(NodeId(3)), &[JobId(3)]);
    let e0 = &c.alloc_of(JobId(3)).unwrap().entries[0];
    assert_eq!(
        e0.remote,
        vec![(NodeId(4), 110), (NodeId(2), 100), (NodeId(3), 10)]
    );
    // The union keeps the snapshot's order and appends what is new.
    let mut union = vec![NodeId(5), NodeId(1)];
    c.union_lenders_into(JobId(3), &mut union);
    assert_eq!(
        union,
        vec![NodeId(5), NodeId(1), NodeId(4), NodeId(2), NodeId(3)]
    );
    // Shrinking to local drops every lender and its borrower entry.
    c.shrink_job(JobId(3), 600, 8.0);
    c.lenders_into(JobId(3), &mut lenders);
    assert!(lenders.is_empty());
    assert!(c.borrowers_of(NodeId(4)).is_empty());
    assert_eq!(c.hottest_lender_demand_gbs(JobId(3)), 0.0);
    assert_eq!(c.check_invariants(), Ok(()));
}
