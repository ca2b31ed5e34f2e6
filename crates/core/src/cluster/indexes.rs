//! The incremental free-memory indexes and the whole-cluster invariant
//! audit that keeps them honest.
//!
//! Both indexes are `BTreeMap<free_mb, Vec<NodeId>>` with ids ascending
//! within each bucket, so forward iteration yields `(free asc, id asc)`
//! and reverse bucket iteration yields `(free desc, id asc)` — exactly
//! the two orders the placement policy sorts by. They are maintained
//! solely by [`Cluster::touch`]; [`Cluster::check_invariants`] compares
//! them against a from-scratch rebuild.

use super::{Cluster, NodeId};
use crate::error::CoreError;
use std::collections::{BTreeMap, HashMap};

/// Insert `id` into the `key` bucket, keeping ids sorted ascending.
pub(super) fn index_insert(index: &mut BTreeMap<u64, Vec<NodeId>>, key: u64, id: NodeId) {
    let ids = index.entry(key).or_default();
    match ids.binary_search(&id) {
        Ok(_) => debug_assert!(false, "{id:?} already indexed at {key}"),
        Err(pos) => ids.insert(pos, id),
    }
}

/// Remove `id` from the `key` bucket, dropping the bucket when empty.
pub(super) fn index_remove(index: &mut BTreeMap<u64, Vec<NodeId>>, key: u64, id: NodeId) {
    let ids = index.get_mut(&key).expect("index bucket missing");
    let pos = ids
        .binary_search(&id)
        .expect("node missing from index bucket");
    ids.remove(pos);
    if ids.is_empty() {
        index.remove(&key);
    }
}

impl Cluster {
    /// Full invariant check; `debug_assert!`ed after every mutation and
    /// callable from tests.
    pub fn check_invariants(&self) -> Result<(), CoreError> {
        let err = |msg: String| Err(CoreError::Ledger(msg));
        let mut lent_expected: HashMap<NodeId, u64> = HashMap::new();
        let mut local_expected: HashMap<NodeId, u64> = HashMap::new();
        for (job, alloc) in &self.allocs {
            for e in &alloc.entries {
                let n = self.node(e.node);
                if n.running != Some(*job) {
                    return err(format!("{job} allocated on {:?} but not running", e.node));
                }
                *local_expected.entry(e.node).or_insert(0) += e.local_mb;
                for &(lender, mb) in &e.remote {
                    *lent_expected.entry(lender).or_insert(0) += mb;
                }
            }
        }
        for (id, n) in self.iter() {
            if n.local_alloc_mb + n.lent_mb + n.degraded_mb > n.capacity_mb {
                return err(format!("{id:?} over capacity"));
            }
            if n.local_alloc_mb != local_expected.get(&id).copied().unwrap_or(0) {
                return err(format!("{id:?} local ledger mismatch"));
            }
            if n.lent_mb != lent_expected.get(&id).copied().unwrap_or(0) {
                return err(format!("{id:?} lent ledger mismatch"));
            }
            if n.running.is_none() && n.local_alloc_mb != 0 {
                return err(format!("{id:?} idle but has local allocation"));
            }
            if n.remote_demand_gbs < -1e-9 {
                return err(format!("{id:?} negative demand"));
            }
        }
        let idle = self.nodes.iter().filter(|n| n.running.is_none()).count();
        if idle != self.idle_nodes {
            return err("idle counter mismatch".to_string());
        }
        let down = self.nodes.iter().filter(|n| n.down).count();
        if down != self.down_count {
            return err(format!(
                "down counter mismatch: rebuild {down} vs counter {}",
                self.down_count
            ));
        }
        let offline_sum: u64 = self
            .nodes
            .iter()
            .map(|n| if n.down { n.capacity_mb } else { n.degraded_mb })
            .sum();
        if offline_sum != self.total_offline_mb {
            return err(format!(
                "offline counter mismatch: rebuild {offline_sum} vs counter {}",
                self.total_offline_mb
            ));
        }
        let alloc_sum: u64 = self
            .nodes
            .iter()
            .map(|n| n.local_alloc_mb + n.lent_mb)
            .sum();
        if alloc_sum != self.total_alloc_mb {
            return err(format!(
                "allocated counter mismatch: ledger {alloc_sum} vs counter {}",
                self.total_alloc_mb
            ));
        }
        // The remote/cross-rack occupancy counters must match a rebuild
        // from the allocation ledger.
        let mut remote_sum = 0u64;
        let mut cross_sum = 0u64;
        for alloc in self.allocs.values() {
            for e in &alloc.entries {
                for &(lender, mb) in &e.remote {
                    remote_sum += mb;
                    if self.is_cross(e.node, lender) {
                        cross_sum += mb;
                    }
                }
            }
        }
        if remote_sum != self.total_remote_mb {
            return err(format!(
                "remote counter mismatch: rebuild {remote_sum} vs counter {}",
                self.total_remote_mb
            ));
        }
        if cross_sum != self.total_cross_mb {
            return err(format!(
                "cross-rack counter mismatch: rebuild {cross_sum} vs counter {}",
                self.total_cross_mb
            ));
        }
        // The contention ledger must match a rebuild from the
        // per-job contributions, which must match the allocations.
        self.check_demand()?;
        // The incremental indexes must match a from-scratch rebuild.
        let mut sched_expected: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
        let mut free_expected: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
        let mut sched_count = 0usize;
        for (id, n) in self.iter() {
            if n.free_mb() > 0 {
                free_expected.entry(n.free_mb()).or_default().push(id);
            }
            if self.schedulable(id) {
                sched_expected.entry(n.free_mb()).or_default().push(id);
                sched_count += 1;
            }
        }
        if free_expected != self.free_index {
            return err("free index out of sync with node ledgers".to_string());
        }
        if sched_expected != self.sched_index {
            return err("schedulable index out of sync with node ledgers".to_string());
        }
        if sched_count != self.schedulable_count {
            return err(format!(
                "schedulable counter mismatch: rebuild {sched_count} vs counter {}",
                self.schedulable_count
            ));
        }
        // Per-rack lender indexes exist exactly when the topology has
        // more than one rack, and must match a per-rack rebuild.
        if self.rack_free.is_empty() {
            if self.topology.racks() > 1 {
                return err("multi-rack topology without rack indexes".to_string());
            }
        } else {
            if self.rack_free.len() != self.topology.racks() as usize {
                return err("rack index count mismatch".to_string());
            }
            let mut rack_expected: Vec<BTreeMap<u64, Vec<NodeId>>> =
                vec![BTreeMap::new(); self.rack_free.len()];
            for (id, n) in self.iter() {
                if n.free_mb() > 0 {
                    rack_expected[self.topology.rack_of(id) as usize]
                        .entry(n.free_mb())
                        .or_default()
                        .push(id);
                }
            }
            if rack_expected != self.rack_free {
                return err("rack lender indexes out of sync with node ledgers".to_string());
            }
        }
        Ok(())
    }

    #[inline]
    pub(super) fn debug_check(&self) {
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }
}
