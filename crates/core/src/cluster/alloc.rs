//! The allocation ledger: per-job allocation records and the checked
//! start/finish/shrink/grow mutations that keep every node's ledger and
//! the cluster-wide counters consistent.

use super::{Cluster, NodeId};
use crate::job::JobId;
use serde::{Deserialize, Serialize};

/// Checked ledger addition: MB counters must never wrap, even under
/// fault-driven churn (crash evacuation, degrade/restore cycles).
#[inline]
pub(super) fn mb_add(a: u64, b: u64) -> u64 {
    a.checked_add(b)
        .unwrap_or_else(|| panic!("MB ledger overflow: {a} + {b}"))
}

/// Checked ledger subtraction: an underflow means a release without a
/// matching reservation — fail loudly instead of wrapping to ~2^64 MB.
#[inline]
pub(super) fn mb_sub(a: u64, b: u64) -> u64 {
    a.checked_sub(b)
        .unwrap_or_else(|| panic!("MB ledger underflow: {a} - {b}"))
}

/// The memory allocation of one running job: one entry per compute node.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct JobAlloc {
    /// Per-compute-node allocation entries.
    pub entries: Vec<AllocEntry>,
}

/// Allocation on a single compute node: a local slice plus zero or more
/// remote slices borrowed from lender nodes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AllocEntry {
    /// The compute node the job runs on.
    pub node: NodeId,
    /// Local memory allocated on that node, MB.
    pub local_mb: u64,
    /// Borrowed slices as `(lender, mb)`; a lender appears at most once.
    pub remote: Vec<(NodeId, u64)>,
}

impl AllocEntry {
    /// Total memory of this entry (local + remote), MB.
    pub fn total_mb(&self) -> u64 {
        self.local_mb + self.remote_mb()
    }

    /// Remote memory of this entry, MB.
    pub fn remote_mb(&self) -> u64 {
        self.remote.iter().map(|&(_, mb)| mb).sum()
    }
}

impl JobAlloc {
    /// Total allocated memory across all compute nodes, MB.
    pub fn total_mb(&self) -> u64 {
        self.entries.iter().map(AllocEntry::total_mb).sum()
    }

    /// Total remote memory, MB.
    pub fn remote_mb(&self) -> u64 {
        self.entries.iter().map(AllocEntry::remote_mb).sum()
    }

    /// Remote fraction of the whole allocation in `[0,1]` (0 when the
    /// allocation is empty).
    pub fn remote_fraction(&self) -> f64 {
        let total = self.total_mb();
        if total == 0 {
            0.0
        } else {
            self.remote_mb() as f64 / total as f64
        }
    }
}

impl Cluster {
    /// Place a job on the cluster with the given allocation, recording
    /// its bandwidth demand `bandwidth_gbs` for contention accounting.
    ///
    /// # Panics
    /// Panics if the allocation violates the ledger (node busy, not
    /// enough free memory on a compute node or lender, job already
    /// placed, self-borrow, duplicate lender within an entry).
    pub fn start_job(&mut self, job: JobId, alloc: JobAlloc, bandwidth_gbs: f64) {
        assert!(!self.allocs.contains_key(&job), "{job} is already placed");
        assert!(!alloc.entries.is_empty(), "empty allocation for {job}");
        // Validate first so a panic cannot leave a half-applied ledger.
        // Borrows are aggregated per lender (first-appearance order)
        // through the node→slot map, together with the local slice the
        // job places on that lender when it is also a compute node.
        let mut per_lender = std::mem::take(&mut self.scratch_per_lender);
        per_lender.clear();
        self.lender_slots.clear();
        for e in &alloc.entries {
            let n = self.node(e.node);
            assert!(n.running.is_none(), "node {:?} is busy", e.node);
            assert!(
                e.local_mb <= n.free_mb(),
                "node {:?}: local {} > free {}",
                e.node,
                e.local_mb,
                n.free_mb()
            );
            let first = per_lender.len();
            for &(lender, mb) in &e.remote {
                assert!(lender != e.node, "{job} borrows from its own node");
                assert!(mb > 0, "zero-size borrow from {lender:?}");
                match self.lender_slots.get(lender) {
                    Some(slot) => {
                        assert!(slot < first, "duplicate lender {lender:?}");
                        per_lender[slot].1 += mb;
                    }
                    None => {
                        self.lender_slots.insert(lender, per_lender.len());
                        per_lender.push((lender, mb, 0));
                    }
                }
            }
        }
        for e in &alloc.entries {
            if let Some(slot) = self.lender_slots.get(e.node) {
                per_lender[slot].2 += e.local_mb;
            }
        }
        for &(lender, mb, local_here) in &per_lender {
            // If the lender is also one of the job's compute nodes, its
            // free memory shrinks by the local slice being placed there.
            let free = self.node(lender).free_mb().saturating_sub(local_here);
            assert!(mb <= free, "lender {lender:?}: borrow {mb} > free {free}");
        }
        // Apply.
        for e in &alloc.entries {
            self.touch(e.node, |n| {
                n.running = Some(job);
                n.local_alloc_mb = mb_add(n.local_alloc_mb, e.local_mb);
            });
            self.total_alloc_mb = mb_add(self.total_alloc_mb, e.local_mb);
            self.idle_nodes -= 1;
        }
        for &(lender, mb, _) in &per_lender {
            self.touch(lender, |n| n.lent_mb = mb_add(n.lent_mb, mb));
            self.total_alloc_mb = mb_add(self.total_alloc_mb, mb);
            self.borrowers.entry(lender).or_default().push(job);
        }
        for e in &alloc.entries {
            for &(lender, mb) in &e.remote {
                self.total_remote_mb = mb_add(self.total_remote_mb, mb);
                if self.is_cross(e.node, lender) {
                    self.total_cross_mb = mb_add(self.total_cross_mb, mb);
                }
            }
        }
        self.scratch_per_lender = per_lender;
        self.allocs.insert(job, alloc);
        self.bump_alloc_version(job);
        self.refresh_demand(job, bandwidth_gbs);
        self.debug_check();
    }

    /// Remove a finished (or killed) job, releasing all its memory.
    /// Returns the final allocation.
    ///
    /// # Panics
    /// Panics if the job is not placed.
    pub fn finish_job(&mut self, job: JobId) -> JobAlloc {
        let alloc = self.allocs.remove(&job).expect("finish of unplaced job");
        for e in &alloc.entries {
            debug_assert_eq!(self.nodes[e.node.0 as usize].running, Some(job));
            self.touch(e.node, |n| {
                n.running = None;
                n.local_alloc_mb = mb_sub(n.local_alloc_mb, e.local_mb);
            });
            self.total_alloc_mb = mb_sub(self.total_alloc_mb, e.local_mb);
            self.idle_nodes += 1;
            for &(lender, mb) in &e.remote {
                self.touch(lender, |n| n.lent_mb = mb_sub(n.lent_mb, mb));
                self.total_alloc_mb = mb_sub(self.total_alloc_mb, mb);
                self.total_remote_mb = mb_sub(self.total_remote_mb, mb);
                if self.is_cross(e.node, lender) {
                    self.total_cross_mb = mb_sub(self.total_cross_mb, mb);
                }
            }
        }
        self.clear_demand(job);
        self.clear_alloc_version(job);
        self.debug_check();
        alloc
    }

    /// Shrink a job's allocation towards `target_mb` per compute node,
    /// releasing remote memory first, then local (paper §2.2: "It will
    /// deallocate remote memory before deallocating local memory").
    /// Entries already at or below target are untouched. Returns the MB
    /// released.
    ///
    /// # Panics
    /// Panics if the job is not placed.
    pub fn shrink_job(&mut self, job: JobId, target_mb: u64, bandwidth_gbs: f64) -> u64 {
        let mut alloc = self.allocs.remove(&job).expect("shrink of unplaced job");
        let mut released = 0u64;
        let mut touched_lenders = std::mem::take(&mut self.scratch_touched);
        touched_lenders.clear();
        self.lender_slots.clear();
        for e in &mut alloc.entries {
            let mut excess = e.total_mb().saturating_sub(target_mb);
            if excess == 0 {
                continue;
            }
            released += excess;
            // Remote first: peel borrows from the back (most recently
            // added lender first — the coldest slice in the local-first
            // allocation order).
            while excess > 0 {
                let Some(&mut (lender, ref mut mb)) = e.remote.last_mut() else {
                    break;
                };
                let take = (*mb).min(excess);
                *mb -= take;
                excess -= take;
                self.touch(lender, |n| n.lent_mb = mb_sub(n.lent_mb, take));
                self.total_remote_mb = mb_sub(self.total_remote_mb, take);
                if self.is_cross(e.node, lender) {
                    self.total_cross_mb = mb_sub(self.total_cross_mb, take);
                }
                if self.lender_slots.get(lender).is_none() {
                    self.lender_slots.insert(lender, touched_lenders.len());
                    touched_lenders.push(lender);
                }
                if *mb == 0 {
                    e.remote.pop();
                }
            }
            // Then local.
            if excess > 0 {
                e.local_mb = mb_sub(e.local_mb, excess);
                self.touch(e.node, |n| {
                    n.local_alloc_mb = mb_sub(n.local_alloc_mb, excess)
                });
            }
        }
        self.total_alloc_mb = mb_sub(self.total_alloc_mb, released);
        self.allocs.insert(job, alloc);
        self.bump_alloc_version(job);
        self.refresh_demand(job, bandwidth_gbs);
        // Drop reverse-index entries for touched lenders the job no
        // longer uses (its refreshed contributions are the lenders left).
        self.mark_job_lenders(job);
        for &lender in &touched_lenders {
            if self.lender_slots.get(lender).is_none() {
                self.unlink_borrower(lender, job);
            }
        }
        self.scratch_touched = touched_lenders;
        self.debug_check();
        released
    }

    /// Grow one compute-node entry of a job: `add_local` MB locally plus
    /// the given borrowed slices. The caller (the policy) has already
    /// chosen the lenders; this method validates and applies.
    ///
    /// # Panics
    /// Panics on ledger violations (not enough free local memory, lender
    /// without free memory, self-borrow) or if the job/entry is unknown.
    pub fn grow_entry(
        &mut self,
        job: JobId,
        node: NodeId,
        add_local: u64,
        add_remote: &[(NodeId, u64)],
        bandwidth_gbs: f64,
    ) {
        {
            let n = self.node(node);
            assert_eq!(n.running, Some(job), "grow on a node not running {job}");
            assert!(
                add_local <= n.free_mb(),
                "grow local {} > free {}",
                add_local,
                n.free_mb()
            );
        }
        for &(lender, mb) in add_remote {
            assert!(lender != node, "{job} borrowing from its own node");
            assert!(mb > 0, "zero-size borrow");
            assert!(
                mb <= self.node(lender).free_mb(),
                "lender {lender:?} lacks {mb} MB"
            );
        }
        {
            let alloc = self.allocs.get(&job).expect("grow of unplaced job");
            assert!(
                alloc.entries.iter().any(|e| e.node == node),
                "grow on a node outside the job's allocation"
            );
        }
        // Apply to the node ledgers (through the index-tracking `touch`),
        // then mirror into the job's allocation entry.
        self.touch(node, |n| {
            n.local_alloc_mb = mb_add(n.local_alloc_mb, add_local)
        });
        self.total_alloc_mb = mb_add(self.total_alloc_mb, add_local);
        // The job is in the borrower list of exactly its current
        // lenders; it joins the list of each lender new to it.
        self.mark_job_lenders(job);
        for &(lender, mb) in add_remote {
            self.touch(lender, |n| n.lent_mb = mb_add(n.lent_mb, mb));
            self.total_alloc_mb = mb_add(self.total_alloc_mb, mb);
            self.total_remote_mb = mb_add(self.total_remote_mb, mb);
            if self.is_cross(node, lender) {
                self.total_cross_mb = mb_add(self.total_cross_mb, mb);
            }
            if self.lender_slots.get(lender).is_none() {
                self.lender_slots.insert(lender, 0);
                self.borrowers.entry(lender).or_default().push(job);
            }
        }
        let alloc = self.allocs.get_mut(&job).expect("grow of unplaced job");
        let entry = alloc
            .entries
            .iter_mut()
            .find(|e| e.node == node)
            .expect("grow on a node outside the job's allocation");
        entry.local_mb = mb_add(entry.local_mb, add_local);
        self.lender_slots.clear();
        for (i, &(l, _)) in entry.remote.iter().enumerate() {
            self.lender_slots.insert(l, i);
        }
        for &(lender, mb) in add_remote {
            match self.lender_slots.get(lender) {
                Some(slot) => entry.remote[slot].1 = mb_add(entry.remote[slot].1, mb),
                None => {
                    self.lender_slots.insert(lender, entry.remote.len());
                    entry.remote.push((lender, mb));
                }
            }
        }
        self.bump_alloc_version(job);
        self.refresh_demand(job, bandwidth_gbs);
        self.debug_check();
    }
}
