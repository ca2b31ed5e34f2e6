//! The scheduling layer: FCFS + EASY-backfill passes, job start-up, and
//! the contention-driven speed refresh that re-keys end events.

use crate::cluster::NodeId;
use crate::engine::EventKind;
use crate::job::JobId;
use crate::policy::PlacementScratch;
use crate::sched::{compute_reservation, Release};
use crate::trace::TraceKind;
use dmhpc_model::RemoteAccess;

use super::hooks::MemManagement;
use super::runner::Runner;
use super::state::Status;

/// Reusable buffers for the scheduling hot path: one set per run, so a
/// steady-state pass performs no heap allocation beyond the `JobAlloc`s
/// it actually places.
#[derive(Clone, Default)]
pub(crate) struct SchedScratch {
    /// Queue-window snapshot for the current pass.
    pub(crate) window: Vec<JobId>,
    /// Jobs started in the current pass.
    pub(crate) started: Vec<JobId>,
    /// Future releases for the EASY reservation, sorted once per pass.
    pub(crate) releases: Vec<Release>,
    /// `(nodes, mem)` requests that failed placement since the last job
    /// start in this pass; dominated requests are pruned without a
    /// placement attempt.
    pub(crate) failed: Vec<(u32, u64)>,
    /// Distinct lenders of an allocation being started or torn down.
    pub(crate) lenders: Vec<NodeId>,
    /// Jobs whose speed needs recomputing after a ledger change.
    pub(crate) affected: Vec<JobId>,
    /// Per-job membership flags for `affected`, indexed by job id and
    /// all `false` between uses.
    pub(crate) affected_mark: Vec<bool>,
    /// Snapshot of one lender's borrower list.
    pub(crate) borrowers: Vec<JobId>,
    /// Per-entry `(node, total_mb)` view for the Decider.
    pub(crate) entries: Vec<(NodeId, u64)>,
    /// Compute nodes of the job being resized.
    pub(crate) compute_ids: Vec<NodeId>,
    /// Placement working set.
    pub(crate) place: PlacementScratch,
}

impl Runner {
    /// One FCFS + EASY-backfill scheduling pass.
    pub(crate) fn schedule_pass(&mut self) {
        let mut window = std::mem::take(&mut self.scratch.window);
        window.clear();
        window.extend(self.pending.iter().take(self.cfg.queue_depth));
        if window.is_empty() {
            self.scratch.window = window;
            return;
        }
        // Span covers only passes that examine at least one job, so the
        // profile's call count matches the traced pass count.
        let span = self.phase_start();
        // Passes over an empty queue return above without a trace: only
        // passes that examine at least one job appear in the stream.
        if self.trace_on {
            let kind = TraceKind::SchedPassStart {
                queued: self.pending.len() as u32,
                alloc_mb: self.cluster.total_allocated_mb(),
                cap_mb: self.cluster.total_capacity_mb(),
            };
            self.emit(kind);
        }
        let mut started = std::mem::take(&mut self.scratch.started);
        started.clear();
        // Dominance pruning: placement failure at a *fixed* cluster state
        // is monotone in (nodes, mem) — on flat clusters the feasibility
        // condition is `Σ max(mem, free_i) ≤ total free` over the top-n
        // schedulable nodes, nondecreasing in both arguments, and the
        // `placement_failure_is_monotone` property test checks racks
        // too — so a candidate needing at least as much of both as an
        // already-failed request is skipped without a placement attempt.
        // Starting a job does NOT merely tighten that condition (a busy
        // node's leftover memory joins the lender pool, which can make a
        // previously failed request feasible), so the failed set resets
        // on every start.
        let mut failed = std::mem::take(&mut self.scratch.failed);
        failed.clear();
        let mut head_blocked: Option<(JobId, Option<crate::sched::Reservation>)> = None;
        let mut backfill_seen = 0usize;
        for &jid in &window {
            let job = &self.workload.jobs[jid.0 as usize];
            let (nodes, time_limit_s) = (job.nodes, job.time_limit_s);
            // Placement, reservation, and dominance all key on the
            // policy-sized request, not the raw submission.
            let req = self.effective_request(jid);
            match head_blocked {
                None => {
                    if let Some(alloc) = self.place(nodes, req) {
                        self.start_job(jid, alloc, req);
                        started.push(jid);
                        failed.clear();
                    } else {
                        failed.push((nodes, req));
                        let res = self.head_reservation(jid);
                        head_blocked = Some((jid, res));
                    }
                }
                Some((_, ref mut res)) => {
                    backfill_seen += 1;
                    if backfill_seen > self.cfg.backfill_depth {
                        break;
                    }
                    let Some(r) = res else { break };
                    // Reservation first: whether the head's reservation
                    // admits this candidate depends only on its shape and
                    // time limit, never on the allocation, so a candidate
                    // it rejects is skipped before any placement work.
                    // Exact: a skipped candidate would not have started,
                    // and it only leaves `failed` smaller, which changes
                    // which later candidates are tried (pruning skips
                    // only certain failures), never which ones start.
                    let ends_before = self.now.as_secs() + time_limit_s <= r.at_s;
                    let total_req = nodes as u64 * req;
                    let within_surplus = nodes <= r.surplus_nodes && total_req <= r.surplus_mem_mb;
                    if !ends_before && !within_surplus {
                        continue;
                    }
                    if failed.iter().any(|&(fn_, fm)| nodes >= fn_ && req >= fm) {
                        continue; // dominated by a fresher failure
                    }
                    let Some(alloc) = self.place(nodes, req) else {
                        failed.push((nodes, req));
                        continue;
                    };
                    if !ends_before {
                        // Consumes part of the projected surplus at the
                        // reservation time.
                        r.surplus_nodes -= nodes;
                        r.surplus_mem_mb -= total_req;
                    }
                    self.start_job(jid, alloc, req);
                    started.push(jid);
                    failed.clear();
                }
            }
        }
        self.pending.remove_started(&started);
        let (considered, placed) = (window.len() as u32, started.len() as u32);
        self.scratch.window = window;
        self.scratch.started = started;
        self.scratch.failed = failed;
        self.emit(TraceKind::SchedPassEnd {
            considered,
            started: placed,
            backfill_depth: backfill_seen as u32,
        });
        self.phase_end(crate::telemetry::Phase::Schedule, span);
    }

    /// Aggregate EASY reservation for a blocked queue head. Builds and
    /// sorts the release list once (at most once per pass — the head can
    /// only block once).
    fn head_reservation(&mut self, head: JobId) -> Option<crate::sched::Reservation> {
        let mut releases = std::mem::take(&mut self.scratch.releases);
        releases.clear();
        releases.extend(self.running.iter().map(|&r| {
            let s = &self.st[r.0 as usize];
            let j = &self.workload.jobs[r.0 as usize];
            let est_end = (s.start.as_secs() + j.time_limit_s).max(self.now.as_secs());
            let mem = self.cluster.alloc_of(r).map(|a| a.total_mb()).unwrap_or(0);
            Release {
                at_s: est_end,
                nodes: j.nodes,
                mem_mb: mem,
            }
        }));
        releases.sort_unstable_by(|a, b| a.at_s.total_cmp(&b.at_s));
        // Reserve for what the policy will actually place, which may
        // differ from the raw submission (predictive/overcommit sizing).
        let head_req = self.effective_request(head);
        let job = self.job(head);
        // Down nodes count as idle (nothing runs on them) but are not
        // available to a reservation.
        let available = self
            .cluster
            .idle_count()
            .saturating_sub(self.cluster.down_count());
        let res = compute_reservation(
            self.now.as_secs(),
            job.nodes,
            job.nodes as u64 * head_req,
            available as u32,
            self.cluster.free_pool_mb(),
            &releases,
        );
        self.scratch.releases = releases;
        res
    }

    /// Start `jid` on `alloc`. `sized_mb` is the per-node request the
    /// placement used (the policy's `size_request` answer); it is
    /// recorded so management-mode checks can tell an undersized
    /// attempt from a right-sized one.
    pub(crate) fn start_job(&mut self, jid: JobId, alloc: crate::cluster::JobAlloc, sized_mb: u64) {
        let bw = self.workload.pool.get(self.job(jid).profile).bandwidth_gbs;
        self.cluster.start_job(jid, alloc, bw);
        let mut lenders = std::mem::take(&mut self.scratch.lenders);
        self.cluster.lenders_into(jid, &mut lenders);
        let s = &mut self.st[jid.0 as usize];
        s.status = Status::Running;
        s.sized_mb = sized_mb;
        s.start = self.now;
        s.last_advance = self.now;
        s.work_done_s = s.checkpoint_s;
        s.credit_at_start_s = s.checkpoint_s;
        s.speed = 1.0;
        s.reset_dynloop_cache();
        if s.first_start.is_none() {
            s.first_start = Some(self.now);
        }
        self.running.push(jid);
        self.change_counter += 1;
        if self.trace_on {
            let (mem_mb, remote_mb) = {
                let a = self.cluster.alloc_of(jid).expect("job just started");
                (a.total_mb(), a.remote_mb())
            };
            let nodes = self.job(jid).nodes;
            self.emit(TraceKind::JobStart {
                job: jid,
                nodes,
                mem_mb,
                remote_mb,
            });
        }
        // Contention changed for this job and everyone sharing its lenders.
        self.refresh_speeds(jid, &lenders);
        self.scratch.lenders = lenders;
        // Managed allocations begin the monitor/update loop. Pinned
        // allocations schedule the exceeded-request kill probe if the
        // trace will overflow the request. The answer is cached on the
        // job state: its inputs (`static_mode`, `sized_mb`) are fixed
        // until the next (re)start, so every memory update of this
        // attempt sees the same mode without re-asking the policy.
        let management = self.job_management(jid);
        self.st[jid.0 as usize].management = management;
        if management == MemManagement::Pinned {
            // Pinned jobs (static/baseline policies, and managed jobs
            // demoted to the static-fallback mitigation) keep their
            // request; the only event they need is the exceeded-request
            // kill probe.
            if self.job(jid).peak_mb() > self.job(jid).mem_request_mb {
                if let Some(t) = self.time_to_exceed(jid) {
                    let epoch = self.st[jid.0 as usize].life_epoch;
                    self.queue.push(
                        self.now.plus_secs(t),
                        EventKind::MemUpdate { job: jid, epoch },
                    );
                }
            }
        } else {
            let epoch = self.st[jid.0 as usize].life_epoch;
            let dt = self.next_update_interval();
            self.queue.push(
                self.now.plus_secs(dt),
                EventKind::MemUpdate { job: jid, epoch },
            );
        }
    }

    /// Recompute the slowdown of `jid` and of every job borrowing from
    /// any of `touched_lenders`, re-keying their end events.
    pub(crate) fn refresh_speeds(&mut self, jid: JobId, touched_lenders: &[NodeId]) {
        let mut affected = std::mem::take(&mut self.scratch.affected);
        let mut mark = std::mem::take(&mut self.scratch.affected_mark);
        mark.resize(self.st.len(), false);
        affected.clear();
        affected.push(jid);
        mark[jid.0 as usize] = true;
        for &l in touched_lenders {
            for &b in self.cluster.borrowers_of(l) {
                if !mark[b.0 as usize] {
                    mark[b.0 as usize] = true;
                    affected.push(b);
                }
            }
        }
        for &a in &affected {
            mark[a.0 as usize] = false;
        }
        self.scratch.affected_mark = mark;
        for &a in &affected {
            self.update_speed(a);
        }
        self.scratch.affected = affected;
    }

    pub(crate) fn update_speed(&mut self, jid: JobId) {
        if self.st[jid.0 as usize].status != Status::Running {
            return;
        }
        if self.cluster.alloc_of(jid).is_none() {
            return;
        }
        // Topology-priced: cross-rack slices weigh extra on racked
        // topologies; exactly `alloc.remote_fraction()` on flat.
        let access = RemoteAccess {
            remote_fraction: self.cluster.priced_remote_fraction(jid),
            pressure: self
                .model
                .pressure(self.cluster.hottest_lender_demand_gbs(jid)),
        };
        let profile = self.workload.pool.get(self.job(jid).profile);
        let slowdown = self.model.slowdown(profile, access);
        let new_speed = 1.0 / slowdown;
        self.advance_work(jid);
        let job_base = self.job(jid).base_runtime_s;
        let s = &mut self.st[jid.0 as usize];
        s.speed = new_speed;
        s.end_epoch += 1;
        let remaining = (job_base - s.work_done_s).max(0.0) / new_speed;
        let epoch = s.end_epoch;
        // A running job always has exactly one pending JobEnd; bumping
        // the epoch just orphaned it in the heap.
        self.queue.note_stale(1);
        self.queue.push(
            self.now.plus_secs(remaining),
            EventKind::JobEnd { job: jid, epoch },
        );
    }

    /// Recompute the speed of every job borrowing from the given lenders
    /// (snapshotting each borrower list into scratch, since
    /// `update_speed` needs `&mut self`).
    pub(crate) fn update_borrower_speeds(&mut self, lenders: &[NodeId]) {
        let mut borrowers = std::mem::take(&mut self.scratch.borrowers);
        for &l in lenders {
            borrowers.clear();
            borrowers.extend_from_slice(self.cluster.borrowers_of(l));
            for &b in &borrowers {
                self.update_speed(b);
            }
        }
        self.scratch.borrowers = borrowers;
    }
}
