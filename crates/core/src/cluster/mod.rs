//! Cluster state: nodes, the disaggregated-memory ledger, and the
//! lend/borrow accounting rules of the static and dynamic policies.
//!
//! Every node owns `capacity_mb` of DRAM. At any instant it splits into
//!
//! * `local_alloc_mb` — allocated to the job running *on this node*,
//! * `lent_mb` — lent to jobs running on *other* nodes, and
//! * free memory (`capacity − local_alloc − lent`).
//!
//! Node allocation is exclusive: a node runs at most one job (paper §2.1),
//! but it can lend spare memory while running one. A node that has lent
//! more than `lend_cap_fraction` of its capacity temporarily becomes a
//! *memory node*: it keeps lending but accepts no new jobs until enough
//! borrowed memory is returned.
//!
//! All mutations go through checked operations that preserve the ledger
//! invariants; `debug_assert!`ed globally by [`Cluster::check_invariants`].
//!
//! The module tree splits the surface by concern:
//!
//! * `node` — node-level types ([`NodeId`], [`MemoryMix`], [`Node`]);
//! * `alloc` — the allocation ledger ([`JobAlloc`], [`AllocEntry`])
//!   and the start/finish/shrink/grow mutations;
//! * `demand` — the contention ledger: per-job bandwidth contributions
//!   to each lender, the hottest-lender read, the borrower index upkeep
//!   and its audit, all linear in a job's remote slices through one
//!   dense node→slot map;
//! * `indexes` — the incremental free-memory indexes and the
//!   invariant audit. To keep the scheduler hot path free of O(N)
//!   scans, the cluster maintains two persistent indexes updated
//!   incrementally by every mutation: a sorted set of schedulable nodes
//!   keyed by free memory (serving best-fit placement directly) and the
//!   lender pool of all nodes with free memory. Both store node ids
//!   ascending within each free-memory bucket, so forward iteration
//!   yields `(free asc, id asc)` and reverse bucket iteration yields
//!   `(free desc, id asc)` — exactly the two orders the placement
//!   policy sorts by, which keeps indexed placement bit-identical to
//!   the reference scan implementation;
//! * `faults` — node crash/repair, blade degradation, and lender
//!   revocation;
//! * [`topology`] — the fabric partition ([`TopologySpec`],
//!   [`Topology`]): racks, per-rack lender indexes, and the pricing of
//!   cross-rack borrowing. The flat topology builds none of the rack
//!   machinery, so the pre-topology hot path is untouched.

mod alloc;
mod demand;
mod faults;
mod indexes;
mod node;
#[cfg(test)]
mod tests;
pub mod topology;

pub use alloc::{AllocEntry, JobAlloc};
pub use node::{MemoryMix, Node, NodeId};
pub use topology::{Topology, TopologyInfo, TopologySpec, CROSS_RACK_WEIGHT};

use crate::job::JobId;
use demand::LenderSlots;
use indexes::{index_insert, index_remove};
use std::collections::{BTreeMap, HashMap};

/// Whole-cluster state: node ledgers plus the per-job allocation table
/// and the lender→borrowers index used for contention propagation.
#[derive(Clone, Debug)]
pub struct Cluster {
    nodes: Vec<Node>,
    lend_cap_fraction: f64,
    allocs: HashMap<JobId, JobAlloc>,
    /// Per-job remote bandwidth contributions: `(lender, gbs)` pairs in
    /// first-appearance order (so also the job's distinct-lender set),
    /// mirrored into `Node::remote_demand_gbs`. Fully local jobs have
    /// no entry.
    demand_contribs: HashMap<JobId, Vec<(NodeId, f64)>>,
    /// Reverse index: which jobs borrow from each lender.
    borrowers: HashMap<NodeId, Vec<JobId>>,
    idle_nodes: usize,
    total_capacity_mb: u64,
    /// Running total of allocated memory (local + lent), maintained by
    /// every mutation so utilisation accounting is O(1) per event.
    total_alloc_mb: u64,
    /// Capacity currently unavailable to the pool: the full capacity of
    /// down nodes plus the degraded slices of up nodes. Maintained
    /// incrementally so pool-availability accounting is O(1) per event.
    total_offline_mb: u64,
    /// Number of nodes currently down.
    down_count: usize,
    /// Schedulable nodes (idle, within lend cap) keyed by free MB, node
    /// ids ascending per bucket. Serves best-fit placement directly.
    sched_index: BTreeMap<u64, Vec<NodeId>>,
    /// All nodes with free memory — the lender pool — keyed the same way.
    free_index: BTreeMap<u64, Vec<NodeId>>,
    /// The fabric partition. Flat topologies carry no per-node table.
    topology: Topology,
    /// Per-rack lender indexes, keyed like `free_index`. Empty (never
    /// allocated, never maintained) on flat topologies, so the flat hot
    /// path pays one `Vec::is_empty` branch per mutation and nothing
    /// else.
    rack_free: Vec<BTreeMap<u64, Vec<NodeId>>>,
    /// Running total of borrowed (remote) MB across all allocations.
    /// Maintained by every mutation so the metrics loop can integrate
    /// remote occupancy in O(1) per event.
    total_remote_mb: u64,
    /// The cross-rack slice of `total_remote_mb`. Always zero on flat
    /// topologies (every pair of nodes shares rack 0).
    total_cross_mb: u64,
    /// Cached `sched_index` population for O(1) feasibility checks.
    schedulable_count: usize,
    /// Monotone clock stamping per-job allocation versions: every
    /// mutation that touches a job's allocation (start/shrink/grow/
    /// revoke) advances the clock and stamps the job with it, so a
    /// stamp observed once can never recur — the dynamic-memory fast
    /// path compares stamps to prove an allocation unchanged.
    alloc_clock: u64,
    /// Per-job allocation version stamps, indexed by job id and grown
    /// lazily on first bump (0 = not placed). A flat vector rather than
    /// a map: the fast path reads this on every memory update, and an
    /// indexed load beats hashing the id.
    alloc_versions: Vec<u64>,
    /// The one dense node→slot map behind every lender dedup.
    lender_slots: LenderSlots,
    /// Reusable buffers for mutation internals (per-lender aggregation,
    /// touched-lender sets); kept here so the hot path never allocates.
    scratch_per_lender: Vec<(NodeId, u64, u64)>,
    scratch_touched: Vec<NodeId>,
}

impl Cluster {
    /// Build a cluster from per-node capacities on the flat topology.
    pub fn new(capacities: Vec<u64>, lend_cap_fraction: f64) -> Self {
        Self::new_with_topology(capacities, lend_cap_fraction, TopologySpec::Flat)
    }

    /// Build a cluster from per-node capacities on an explicit topology.
    pub fn new_with_topology(
        capacities: Vec<u64>,
        lend_cap_fraction: f64,
        spec: TopologySpec,
    ) -> Self {
        assert!(!capacities.is_empty(), "cluster needs at least one node");
        assert!((0.0..=1.0).contains(&lend_cap_fraction));
        spec.validate().expect("invalid topology spec");
        let topology = spec.build(capacities.len() as u32);
        let total_capacity_mb = capacities.iter().sum();
        let idle_nodes = capacities.len();
        let nodes = capacities
            .into_iter()
            .map(|capacity_mb| Node {
                capacity_mb,
                local_alloc_mb: 0,
                lent_mb: 0,
                running: None,
                remote_demand_gbs: 0.0,
                down: false,
                degraded_mb: 0,
            })
            .collect::<Vec<Node>>();
        let lender_slots = LenderSlots::new(nodes.len());
        // Rack indexes exist only when there is more than one rack:
        // with a single rack (flat included) the global lender pool is
        // already the rack's pool.
        let rack_free = if topology.racks() > 1 {
            vec![BTreeMap::new(); topology.racks() as usize]
        } else {
            Vec::new()
        };
        let mut cluster = Self {
            nodes,
            lend_cap_fraction,
            allocs: HashMap::new(),
            demand_contribs: HashMap::new(),
            borrowers: HashMap::new(),
            idle_nodes,
            total_capacity_mb,
            total_alloc_mb: 0,
            total_offline_mb: 0,
            down_count: 0,
            sched_index: BTreeMap::new(),
            free_index: BTreeMap::new(),
            topology,
            rack_free,
            total_remote_mb: 0,
            total_cross_mb: 0,
            schedulable_count: 0,
            alloc_clock: 0,
            alloc_versions: Vec::new(),
            lender_slots,
            scratch_per_lender: Vec::new(),
            scratch_touched: Vec::new(),
        };
        // Every node starts idle with its full capacity free.
        for i in 0..cluster.nodes.len() {
            let id = NodeId(i as u32);
            let free = cluster.nodes[i].free_mb();
            if free > 0 {
                index_insert(&mut cluster.free_index, free, id);
                if !cluster.rack_free.is_empty() {
                    let rack = cluster.topology.rack_of(id) as usize;
                    index_insert(&mut cluster.rack_free[rack], free, id);
                }
            }
            index_insert(&mut cluster.sched_index, free, id);
        }
        cluster.schedulable_count = cluster.nodes.len();
        cluster
    }

    /// Apply a mutation to one node and resync the indexes from its
    /// before/after `(free, schedulable)` state. Every node mutation
    /// that can move free memory or schedulability goes through here.
    #[inline]
    fn touch<F: FnOnce(&mut Node)>(&mut self, id: NodeId, f: F) {
        let i = id.0 as usize;
        let old_free = self.nodes[i].free_mb();
        let old_sched = self.schedulable(id);
        f(&mut self.nodes[i]);
        let new_free = self.nodes[i].free_mb();
        let new_sched = self.schedulable(id);
        if old_free != new_free {
            if old_free > 0 {
                index_remove(&mut self.free_index, old_free, id);
            }
            if new_free > 0 {
                index_insert(&mut self.free_index, new_free, id);
            }
            if !self.rack_free.is_empty() {
                let rack = self.topology.rack_of(id) as usize;
                if old_free > 0 {
                    index_remove(&mut self.rack_free[rack], old_free, id);
                }
                if new_free > 0 {
                    index_insert(&mut self.rack_free[rack], new_free, id);
                }
            }
        }
        if old_sched && (!new_sched || old_free != new_free) {
            index_remove(&mut self.sched_index, old_free, id);
        }
        if new_sched && (!old_sched || old_free != new_free) {
            index_insert(&mut self.sched_index, new_free, id);
        }
        if old_sched != new_sched {
            if new_sched {
                self.schedulable_count += 1;
            } else {
                self.schedulable_count -= 1;
            }
        }
    }

    /// Build the cluster described by a [`crate::config::SystemConfig`],
    /// including its topology.
    pub fn from_config(cfg: &crate::config::SystemConfig) -> Self {
        Self::new_with_topology(
            cfg.memory_mix.capacities(cfg.nodes),
            cfg.lend_cap_fraction,
            cfg.topology,
        )
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to one node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Iterate over `(NodeId, &Node)`.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Number of idle (not running a job) nodes.
    pub fn idle_count(&self) -> usize {
        self.idle_nodes
    }

    /// Total cluster capacity in MB.
    pub fn total_capacity_mb(&self) -> u64 {
        self.total_capacity_mb
    }

    /// Total memory currently allocated (local + lent views coincide:
    /// lent memory is counted once, on the lender). O(1): maintained
    /// incrementally because the simulator reads it on every event for
    /// the utilisation integral.
    pub fn total_allocated_mb(&self) -> u64 {
        self.total_alloc_mb
    }

    /// Whether a node may accept a new job: up, idle, and within its lend
    /// cap (otherwise it is temporarily a memory-only node).
    pub fn schedulable(&self, id: NodeId) -> bool {
        let n = self.node(id);
        !n.down
            && n.running.is_none()
            && (n.lent_mb as f64) <= self.lend_cap_fraction * n.capacity_mb as f64
    }

    /// Number of nodes currently able to accept a job. O(1).
    pub fn schedulable_count(&self) -> usize {
        self.schedulable_count
    }

    /// Total free memory across the cluster in MB, excluding down-node
    /// and degraded capacity. O(1).
    pub fn free_pool_mb(&self) -> u64 {
        self.total_capacity_mb - self.total_alloc_mb - self.total_offline_mb
    }

    /// Capacity currently unavailable to the pool (down nodes plus
    /// degraded slices), MB. O(1).
    pub fn total_offline_mb(&self) -> u64 {
        self.total_offline_mb
    }

    /// Whether the node is down.
    pub fn is_down(&self, id: NodeId) -> bool {
        self.node(id).down
    }

    /// Number of nodes currently down. O(1).
    pub fn down_count(&self) -> usize {
        self.down_count
    }

    /// Schedulable nodes with at least `min_free` MB free, ascending by
    /// `(free, id)` — the phase-1 best-fit order.
    pub fn schedulable_by_free_asc(
        &self,
        min_free: u64,
    ) -> impl Iterator<Item = (u64, NodeId)> + '_ {
        self.sched_index
            .range(min_free..)
            .flat_map(|(&f, ids)| ids.iter().map(move |&id| (f, id)))
    }

    /// All schedulable nodes, descending by free memory with ids
    /// ascending within ties — the phase-2 compute-node order.
    pub fn schedulable_by_free_desc(&self) -> impl Iterator<Item = (u64, NodeId)> + '_ {
        self.sched_index
            .iter()
            .rev()
            .flat_map(|(&f, ids)| ids.iter().map(move |&id| (f, id)))
    }

    /// The lender pool: every node with free memory, descending by free
    /// with ids ascending within ties.
    pub fn free_by_free_desc(&self) -> impl Iterator<Item = (u64, NodeId)> + '_ {
        self.free_index
            .iter()
            .rev()
            .flat_map(|(&f, ids)| ids.iter().map(move |&id| (f, id)))
    }

    /// The allocation of a running job, if any.
    pub fn alloc_of(&self, job: JobId) -> Option<&JobAlloc> {
        self.allocs.get(&job)
    }

    /// The job's allocation version: a stamp off a cluster-wide
    /// monotone clock, advanced by every mutation of the job's
    /// allocation ([`Self::start_job`], [`Self::shrink_job`],
    /// [`Self::grow_entry`], [`Self::revoke_lender`]) — crash/degrade
    /// recovery routes through those same mutations. Two equal stamps
    /// therefore prove the allocation has not changed in between; 0
    /// means the job is not placed. The dynamic-memory update loop uses
    /// this to skip the Decider when nothing could have changed.
    pub fn alloc_version(&self, job: JobId) -> u64 {
        self.alloc_versions
            .get(job.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Advance the allocation clock and stamp `job` with the new value.
    #[inline]
    pub(super) fn bump_alloc_version(&mut self, job: JobId) {
        self.alloc_clock += 1;
        let slot = job.0 as usize;
        if slot >= self.alloc_versions.len() {
            self.alloc_versions.resize(slot + 1, 0);
        }
        self.alloc_versions[slot] = self.alloc_clock;
    }

    /// Drop a finished job's version stamp (the clock itself never
    /// rewinds, so a later restart gets a fresh, never-seen stamp).
    #[inline]
    pub(super) fn clear_alloc_version(&mut self, job: JobId) {
        if let Some(v) = self.alloc_versions.get_mut(job.0 as usize) {
            *v = 0;
        }
    }

    /// Jobs currently borrowing memory from `lender`.
    pub fn borrowers_of(&self, lender: NodeId) -> &[JobId] {
        self.borrowers
            .get(&lender)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The fabric partition this cluster was built on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Whether the cluster is on the flat (single-domain) topology.
    /// Placement uses this to keep the original scan on the hot path.
    #[inline]
    pub fn is_flat(&self) -> bool {
        self.topology.is_flat()
    }

    /// Rack of a node (0 on flat topologies).
    #[inline]
    pub fn rack_of(&self, id: NodeId) -> u32 {
        self.topology.rack_of(id)
    }

    /// Whether two nodes sit in different racks. Always `false` on flat
    /// topologies.
    #[inline]
    pub fn is_cross(&self, a: NodeId, b: NodeId) -> bool {
        self.topology.rack_of(a) != self.topology.rack_of(b)
    }

    /// Total borrowed (remote) MB across all allocations. O(1).
    pub fn total_remote_mb(&self) -> u64 {
        self.total_remote_mb
    }

    /// The cross-rack slice of [`Self::total_remote_mb`]. O(1); zero on
    /// flat topologies.
    pub fn total_cross_rack_mb(&self) -> u64 {
        self.total_cross_mb
    }

    /// Lenders in rack `rack`, descending by free memory with ids
    /// ascending within ties. Empty unless the topology has more than
    /// one rack.
    pub fn rack_lenders_desc(&self, rack: u32) -> impl Iterator<Item = (u64, NodeId)> + '_ {
        self.rack_free
            .get(rack as usize)
            .into_iter()
            .flat_map(|idx| {
                idx.iter()
                    .rev()
                    .flat_map(|(&f, ids)| ids.iter().map(move |&id| (f, id)))
            })
    }

    /// Locality-aware lender order for a borrower homed on `home`:
    /// intra-rack lenders first (free desc, id asc), then cross-rack
    /// lenders in the same order. When the topology has a single domain
    /// — flat, or a racked spec whose one rack holds every node (no
    /// per-rack index is built) — this is exactly
    /// [`Self::free_by_free_desc`]: nothing is cross.
    pub fn lenders_from(&self, home: NodeId) -> impl Iterator<Item = (u64, NodeId)> + '_ {
        let home_rack = self.topology.rack_of(home);
        let single_domain = self.topology.racks() <= 1;
        let intra = self.rack_lenders_desc(home_rack);
        let cross = self
            .free_by_free_desc()
            .filter(move |&(_, id)| single_domain || self.topology.rack_of(id) != home_rack);
        intra.chain(cross)
    }

    /// Effective remote fraction of a job's allocation with cross-rack
    /// slices priced at [`CROSS_RACK_WEIGHT`]×. On flat topologies this
    /// is exactly [`JobAlloc::remote_fraction`]. May exceed 1; the
    /// contention model clamps. Zero for unplaced jobs.
    pub fn priced_remote_fraction(&self, job: JobId) -> f64 {
        let Some(alloc) = self.allocs.get(&job) else {
            return 0.0;
        };
        if self.is_flat() {
            return alloc.remote_fraction();
        }
        let total = alloc.total_mb();
        if total == 0 {
            return 0.0;
        }
        let mut weighted = 0.0;
        for e in &alloc.entries {
            let home = self.topology.rack_of(e.node);
            for &(lender, mb) in &e.remote {
                let w = if self.topology.rack_of(lender) != home {
                    CROSS_RACK_WEIGHT
                } else {
                    1.0
                };
                weighted += w * mb as f64;
            }
        }
        weighted / total as f64
    }
}
