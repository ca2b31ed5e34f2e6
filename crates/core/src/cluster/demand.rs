//! The contention ledger: per-job bandwidth contributions to each
//! lender, mirrored into `Node::remote_demand_gbs`, and the dense
//! node→slot map that keeps every lender dedup linear in a job's
//! remote slices.
//!
//! A job's contribution list is its distinct-lender set in
//! first-appearance order (entry by entry, slice by slice), so every
//! reader that needs "the job's lenders" reads that list instead of
//! deduplicating the allocation again.

use super::{Cluster, NodeId};
use crate::error::CoreError;
use crate::job::JobId;
use std::collections::{HashMap, HashSet};

/// Largest drift the audit accepts between a lender's incremental
/// `remote_demand_gbs` and a from-scratch sum of the contributions,
/// relative to `max(1, sum)`. The ledger is maintained by
/// subtract-then-add with a `.max(0.0)` clamp, so it carries rounding
/// error of about one ulp per update; this bound leaves room for
/// billions of updates on one lender while still catching a lost or
/// doubled contribution.
const DEMAND_TOLERANCE: f64 = 1e-6;

/// Dense node→slot map for linear-time lender dedup: `slots[node]`
/// holds `(generation, slot)`, and a node is in the current set exactly
/// when its generation is current. Starting a new set is one increment,
/// so no reset pass is needed and a panic mid-use leaves nothing stale.
#[derive(Clone, Debug)]
pub(super) struct LenderSlots {
    slots: Vec<(u32, u32)>,
    generation: u32,
}

impl LenderSlots {
    pub(super) fn new(nodes: usize) -> Self {
        Self {
            slots: vec![(0, 0); nodes],
            generation: 0,
        }
    }

    /// Begin a new, empty set.
    #[inline]
    pub(super) fn clear(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.slots.fill((0, 0));
            self.generation = 1;
        }
    }

    /// The slot `node` was given in the current set, if any.
    #[inline]
    pub(super) fn get(&self, node: NodeId) -> Option<usize> {
        let (generation, slot) = self.slots[node.0 as usize];
        (generation == self.generation).then_some(slot as usize)
    }

    /// Put `node` into the current set at `slot`.
    #[inline]
    pub(super) fn insert(&mut self, node: NodeId, slot: usize) {
        self.slots[node.0 as usize] = (self.generation, slot as u32);
    }
}

/// The job's `(lender, gbs)` contributions in first-appearance order
/// (empty for fully local or unplaced jobs). A free function over the
/// map so callers can hold it while mutating the slot map.
fn contribs(map: &HashMap<JobId, Vec<(NodeId, f64)>>, job: JobId) -> &[(NodeId, f64)] {
    map.get(&job).map_or(&[], Vec::as_slice)
}

impl Cluster {
    /// The distinct lenders of `job`'s allocation, in first-appearance
    /// order, copied into `out` (cleared first). Empty for fully local
    /// or unplaced jobs. O(lenders): reads the contribution list.
    pub fn lenders_into(&self, job: JobId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(contribs(&self.demand_contribs, job).iter().map(|&(l, _)| l));
    }

    /// Append to `out` every lender of `job` not already in it, in
    /// first-appearance order: the union of a lender snapshot taken
    /// before a resize with the lenders after it. O(|out| + lenders).
    pub fn union_lenders_into(&mut self, job: JobId, out: &mut Vec<NodeId>) {
        self.lender_slots.clear();
        for (i, &l) in out.iter().enumerate() {
            self.lender_slots.insert(l, i);
        }
        for &(l, _) in contribs(&self.demand_contribs, job) {
            if self.lender_slots.get(l).is_none() {
                self.lender_slots.insert(l, out.len());
                out.push(l);
            }
        }
    }

    /// Load the job's current lenders into the node→slot map as a fresh
    /// set (slot = position in its contribution list).
    pub(super) fn mark_job_lenders(&mut self, job: JobId) {
        self.lender_slots.clear();
        for (i, &(l, _)) in contribs(&self.demand_contribs, job).iter().enumerate() {
            self.lender_slots.insert(l, i);
        }
    }

    /// Maximum remote-bandwidth demand across the lenders of `job`'s
    /// allocation, GB/s. Zero for fully local or unplaced jobs.
    pub fn hottest_lender_demand_gbs(&self, job: JobId) -> f64 {
        contribs(&self.demand_contribs, job)
            .iter()
            .map(|&(l, _)| self.node(l).remote_demand_gbs)
            .fold(0.0, f64::max)
    }

    /// Recompute the job's bandwidth contributions to its lenders from its
    /// current allocation. Contribution to lender `L` is
    /// `bandwidth × (mb on L) / (total mb)` summed over compute nodes —
    /// the slice-weighted share of the job's traffic that crosses `L`'s
    /// link. The job's previous contributions are subtracted first (with
    /// a `.max(0.0)` clamp) and its buffer is reused.
    pub(super) fn refresh_demand(&mut self, job: JobId, bandwidth_gbs: f64) {
        let mut contribs = self.demand_contribs.remove(&job).unwrap_or_default();
        for &(lender, gbs) in &contribs {
            let n = &mut self.nodes[lender.0 as usize];
            n.remote_demand_gbs = (n.remote_demand_gbs - gbs).max(0.0);
        }
        contribs.clear();
        let alloc = &self.allocs[&job];
        let total = alloc.total_mb();
        if total == 0 {
            return;
        }
        self.lender_slots.clear();
        for e in &alloc.entries {
            for &(lender, mb) in &e.remote {
                let gbs = bandwidth_gbs * mb as f64 / total as f64;
                match self.lender_slots.get(lender) {
                    Some(slot) => contribs[slot].1 += gbs,
                    None => {
                        self.lender_slots.insert(lender, contribs.len());
                        contribs.push((lender, gbs));
                    }
                }
            }
        }
        for &(lender, gbs) in &contribs {
            self.nodes[lender.0 as usize].remote_demand_gbs += gbs;
        }
        if !contribs.is_empty() {
            self.demand_contribs.insert(job, contribs);
        }
    }

    /// Drop a finished job's contributions and its reverse-index
    /// entries. Callers that need the lender set snapshot it first.
    pub(super) fn clear_demand(&mut self, job: JobId) {
        let Some(contribs) = self.demand_contribs.remove(&job) else {
            return;
        };
        for &(lender, gbs) in &contribs {
            let n = &mut self.nodes[lender.0 as usize];
            n.remote_demand_gbs = (n.remote_demand_gbs - gbs).max(0.0);
            self.unlink_borrower(lender, job);
        }
    }

    /// Remove `job` from `lender`'s borrower list, dropping the list
    /// when it empties.
    pub(super) fn unlink_borrower(&mut self, lender: NodeId, job: JobId) {
        if let Some(bs) = self.borrowers.get_mut(&lender) {
            bs.retain(|&j| j != job);
            if bs.is_empty() {
                self.borrowers.remove(&lender);
            }
        }
    }

    /// Demand-ledger audit: every job's contribution lenders are its
    /// allocation's distinct lenders in first-appearance order, the
    /// borrower index lists exactly those (job, lender) pairs, and every
    /// lender's `remote_demand_gbs` matches a from-scratch sum of the
    /// contributions within [`DEMAND_TOLERANCE`].
    pub(super) fn check_demand(&self) -> Result<(), CoreError> {
        let err = |msg: String| Err(CoreError::Ledger(msg));
        let mut seen = HashSet::new();
        let mut distinct = Vec::new();
        let mut pairs = 0usize;
        for (job, alloc) in &self.allocs {
            seen.clear();
            distinct.clear();
            for e in &alloc.entries {
                for &(lender, _) in &e.remote {
                    if seen.insert(lender) {
                        distinct.push(lender);
                    }
                }
            }
            if !contribs(&self.demand_contribs, *job)
                .iter()
                .map(|&(l, _)| l)
                .eq(distinct.iter().copied())
            {
                return err(format!(
                    "{job} contribution lenders differ from its allocation's lenders"
                ));
            }
            for &l in &distinct {
                if !self.borrowers_of(l).contains(job) {
                    return err(format!("{job} missing from borrowers of {l:?}"));
                }
            }
            pairs += distinct.len();
        }
        if let Some(job) = self
            .demand_contribs
            .keys()
            .find(|j| !self.allocs.contains_key(j))
        {
            return err(format!("{job} has contributions but no allocation"));
        }
        let indexed: usize = self.borrowers.values().map(Vec::len).sum();
        if indexed != pairs {
            return err(format!(
                "borrower index holds {indexed} pairs, allocations {pairs}"
            ));
        }
        let mut expected: HashMap<NodeId, f64> = HashMap::new();
        for contribs in self.demand_contribs.values() {
            for &(lender, gbs) in contribs {
                *expected.entry(lender).or_insert(0.0) += gbs;
            }
        }
        for (id, n) in self.iter() {
            let want = expected.get(&id).copied().unwrap_or(0.0);
            if (n.remote_demand_gbs - want).abs() > DEMAND_TOLERANCE * want.max(1.0) {
                return err(format!(
                    "{id:?} demand ledger {} GB/s vs recomputed {want} GB/s",
                    n.remote_demand_gbs
                ));
            }
        }
        Ok(())
    }
}
