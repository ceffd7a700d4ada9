//! The workload manager: FIFO + EASY-backfill scheduling over
//! node-granular (exclusive) and core-granular (shared) allocations, with
//! SPANK plugins, drain/offline control and accounting.
//!
//! The §6 integration scenarios all revolve around *who allocates nodes
//! and who accounts usage*; this simulator provides both knobs, plus the
//! §6.1 drain/offline/return operations for on-demand reallocation.

use crate::accounting::{Ledger, UsageRecord, UsageSource};
use crate::spank::{SpankContext, SpankError, SpankPlugin};
use crate::types::{Job, JobId, JobRequest, JobState, NodeId, NodeSpec, NodeState};
use hpcc_sim::sym;
#[cfg(test)]
use hpcc_sim::SimSpan;
use hpcc_sim::{FaultInjector, FaultKind, SimTime, Stage, Tracer};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Errors from WLM operations.
#[derive(Debug)]
pub enum WlmError {
    Spank(SpankError),
    UnknownPartition(String),
    UnknownJob(JobId),
    UnknownNode(NodeId),
    /// Request can never be satisfied (more nodes than the partition has).
    Unsatisfiable {
        requested: u32,
        capacity: u32,
    },
    /// Node is busy and cannot be offlined without draining.
    NodeBusy(NodeId),
}

impl std::fmt::Display for WlmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WlmError::Spank(e) => write!(f, "spank: {e}"),
            WlmError::UnknownPartition(p) => write!(f, "unknown partition {p}"),
            WlmError::UnknownJob(j) => write!(f, "unknown job {}", j.0),
            WlmError::UnknownNode(n) => write!(f, "unknown node {}", n.0),
            WlmError::Unsatisfiable {
                requested,
                capacity,
            } => {
                write!(f, "requested {requested} nodes, partition has {capacity}")
            }
            WlmError::NodeBusy(n) => write!(f, "node {} is busy", n.0),
        }
    }
}

impl std::error::Error for WlmError {}

impl From<SpankError> for WlmError {
    fn from(e: SpankError) -> Self {
        WlmError::Spank(e)
    }
}

struct NodeRec {
    spec: NodeSpec,
    state: NodeState,
    free_cores: u32,
}

impl NodeRec {
    /// Idle and wholly free: claimable without touching running work.
    fn is_idle(&self) -> bool {
        self.state == NodeState::Idle && self.free_cores == self.spec.cores
    }
}

/// The workload manager.
pub struct Slurm {
    nodes: BTreeMap<NodeId, NodeRec>,
    /// How many of `nodes` are [`NodeRec::is_idle`].
    idle: usize,
    partitions: BTreeMap<String, Vec<NodeId>>,
    jobs: BTreeMap<JobId, Job>,
    queue: VecDeque<JobId>,
    /// Running jobs: (actual end, limit end).
    running: BTreeMap<JobId, (SimTime, SimTime)>,
    next_id: u64,
    next_node: u32,
    plugins: Vec<Box<dyn SpankPlugin>>,
    contexts: HashMap<JobId, SpankContext>,
    ledger: Ledger,
    faults: Arc<FaultInjector>,
    /// Automatic requeues consumed per job after prolog failures.
    requeues: HashMap<JobId, u32>,
    max_requeues: u32,
    /// Requeued jobs held out of the queue until the next scheduling pass
    /// (a prolog that just failed would fail again at the same instant).
    held: Vec<JobId>,
    /// Journalled execution epoch per job: bumped every time the job
    /// *starts* executing. A job requeued off a crashed node runs again
    /// under a new epoch; a job whose completion is already journalled is
    /// never re-executed, so at most one epoch ever reaches the ledger.
    epochs: HashMap<JobId, u32>,
    /// Tracer recording schedule/prolog/epilog/job spans; disabled by
    /// default.
    tracer: Arc<Tracer>,
    /// `Some(t)`: the scheduling pass at `t` started nothing, and no node,
    /// queue entry or running job has changed since. Head fit and backfill
    /// spare do not depend on the time of the pass, and the one test that
    /// does (`now + walltime_limit <= shadow_time`) only gets harder later,
    /// so until something changes every later pass starts nothing either.
    /// Cleared by [`Slurm::update_node`] when a node moves, and by whatever
    /// edits `queue`, `held` or `running` — a start attempt that fails its
    /// prolog included.
    settled: Option<SimTime>,
    /// Reference scheduler for the tests: never skip a pass.
    #[cfg(test)]
    every_pass_in_full: bool,
}

impl Default for Slurm {
    fn default() -> Self {
        Slurm::new()
    }
}

impl Slurm {
    pub fn new() -> Slurm {
        Slurm {
            nodes: BTreeMap::new(),
            idle: 0,
            partitions: BTreeMap::new(),
            jobs: BTreeMap::new(),
            queue: VecDeque::new(),
            running: BTreeMap::new(),
            next_id: 0,
            next_node: 0,
            plugins: Vec::new(),
            contexts: HashMap::new(),
            ledger: Ledger::new(),
            faults: FaultInjector::disabled(),
            requeues: HashMap::new(),
            max_requeues: 2,
            held: Vec::new(),
            epochs: HashMap::new(),
            tracer: Tracer::disabled(),
            settled: None,
            #[cfg(test)]
            every_pass_in_full: false,
        }
    }

    /// Install a fault schedule; prologs consult it, and prolog/epilog
    /// failure handling records its decisions to it.
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.faults = injector;
    }

    /// Attach a tracer recording scheduling and job lifecycle spans.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = tracer;
    }

    /// Maximum automatic requeues after a prolog failure before the job is
    /// marked [`JobState::Failed`] (Slurm's `--requeue` behaviour).
    pub fn set_max_requeues(&mut self, n: u32) {
        self.max_requeues = n;
    }

    /// The job's journalled execution epoch: how many times it has started
    /// executing (0 = never started).
    pub fn epoch(&self, id: JobId) -> u32 {
        self.epochs.get(&id).copied().unwrap_or(0)
    }

    /// Add a partition of `count` identical nodes. Returns their ids.
    pub fn add_partition(&mut self, name: &str, spec: NodeSpec, count: u32) -> Vec<NodeId> {
        self.settled = None;
        self.idle += count as usize;
        let mut ids = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let id = NodeId(self.next_node);
            self.next_node += 1;
            self.nodes.insert(
                id,
                NodeRec {
                    spec,
                    state: NodeState::Idle,
                    free_cores: spec.cores,
                },
            );
            ids.push(id);
        }
        self.partitions
            .entry(name.to_string())
            .or_default()
            .extend(ids.iter().copied());
        ids
    }

    /// Register a SPANK plugin.
    pub fn register_plugin(&mut self, plugin: Box<dyn SpankPlugin>) {
        self.plugins.push(plugin);
    }

    /// Total cores across the cluster (capacity for utilization).
    pub fn capacity_cores(&self) -> u64 {
        self.nodes.values().map(|n| n.spec.cores as u64).sum()
    }

    /// The accounting ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Record usage that happened outside the WLM (k8s pods on
    /// reallocated nodes).
    pub fn record_external_usage(&mut self, rec: UsageRecord) {
        debug_assert_eq!(rec.source, UsageSource::External);
        self.ledger.record(rec);
    }

    /// Look up a job.
    pub fn job(&self, id: JobId) -> Result<&Job, WlmError> {
        self.jobs.get(&id).ok_or(WlmError::UnknownJob(id))
    }

    /// The SPANK context of a job (set up in the prolog).
    pub fn context(&self, id: JobId) -> Option<&SpankContext> {
        self.contexts.get(&id)
    }

    /// Nodes allocated to a running job.
    pub fn allocated_nodes(&self, id: JobId) -> Vec<NodeId> {
        match self.jobs.get(&id).map(|j| &j.state) {
            Some(JobState::Running { nodes, .. }) => nodes.clone(),
            _ => Vec::new(),
        }
    }

    /// Queue depth (including requeued jobs held for the next pass).
    pub fn pending_count(&self) -> usize {
        self.queue.len() + self.held.len()
    }

    /// Running-job count.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Idle node count (schedulable).
    pub fn idle_nodes(&self) -> usize {
        debug_assert_eq!(
            self.idle,
            self.nodes.values().filter(|n| n.is_idle()).count()
        );
        self.idle
    }

    /// The one place a node changes after it was added: keeps the idle
    /// count, and unsettles the scheduler only if the node's state or free
    /// cores actually moved.
    fn update_node(&mut self, id: NodeId, change: impl FnOnce(&mut NodeRec)) {
        let n = self.nodes.get_mut(&id).expect("node exists");
        let (state, free_cores, was_idle) = (n.state, n.free_cores, n.is_idle());
        change(n);
        if (n.state, n.free_cores) != (state, free_cores) {
            self.idle = self.idle + usize::from(n.is_idle()) - usize::from(was_idle);
            self.settled = None;
        }
    }

    /// Hand `id` back what a job of this shape held on it.
    fn release_node(&mut self, id: NodeId, exclusive: bool, cores_per_node: u32) {
        self.update_node(id, |n| {
            if exclusive {
                n.free_cores = n.spec.cores;
            } else {
                n.free_cores += cores_per_node;
            }
            if n.free_cores > 0 && matches!(n.state, NodeState::Allocated(_)) {
                n.state = NodeState::Idle;
            }
        });
    }

    // -------------------------------------------------------- submission

    /// Submit a job at `now`. Runs SPANK submit hooks; the job then waits
    /// for [`schedule`](Self::schedule) / [`advance_to`](Self::advance_to).
    pub fn submit(&mut self, mut req: JobRequest, now: SimTime) -> Result<JobId, WlmError> {
        let part = self
            .partitions
            .get(&req.partition)
            .ok_or_else(|| WlmError::UnknownPartition(req.partition.clone()))?;
        if req.nodes as usize > part.len() {
            return Err(WlmError::Unsatisfiable {
                requested: req.nodes,
                capacity: part.len() as u32,
            });
        }
        for plugin in &self.plugins {
            plugin.job_submit(&mut req)?;
        }
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.jobs.insert(
            id,
            Job {
                id,
                request: req,
                state: JobState::Pending,
                submitted: now,
            },
        );
        self.queue.push_back(id);
        self.settled = None;
        Ok(id)
    }

    // -------------------------------------------------------- scheduling

    /// Nodes of `req`'s partition it could start on right now, in
    /// partition order.
    fn schedulable<'a>(&'a self, req: &'a JobRequest) -> impl Iterator<Item = NodeId> + 'a {
        let ids = self.partitions.get(&req.partition);
        ids.into_iter().flatten().copied().filter(move |id| {
            let n = &self.nodes[id];
            match n.state {
                NodeState::Idle if req.exclusive => n.free_cores == n.spec.cores,
                NodeState::Idle => n.free_cores >= req.cores_per_node,
                _ => false,
            }
        })
    }

    /// How many nodes [`schedulable`](Self::schedulable) yields for the
    /// queued job `id`, beside how many it asks for.
    fn free_and_wanted(&self, id: JobId) -> (u32, u32) {
        let req = &self.jobs[&id].request;
        (self.schedulable(req).count() as u32, req.nodes)
    }

    /// Try to start `id` on free nodes at `now`. Returns false when the
    /// prolog failed — the allocation is released and the job requeued (or
    /// marked [`JobState::Failed`] once its requeues are exhausted).
    fn start_job(&mut self, id: JobId, now: SimTime) -> bool {
        self.settled = None;
        let job = self.jobs.get(&id).expect("queued jobs exist").clone();
        let req = &job.request;
        let chosen: Vec<NodeId> = self.schedulable(req).take(req.nodes as usize).collect();
        debug_assert_eq!(chosen.len() as u32, req.nodes);
        for nid in &chosen {
            self.update_node(*nid, |n| {
                if req.exclusive {
                    n.free_cores = 0;
                } else {
                    n.free_cores -= req.cores_per_node;
                }
                if n.free_cores == 0 {
                    n.state = NodeState::Allocated(id);
                }
            });
        }

        // Prolog on "each node" (one context per job in the model). A
        // failure — a plugin error or an injected fault (stale cache, bad
        // mount) — releases the allocation instead of starting the job.
        let mut ctx = SpankContext::new();
        let mut failure: Option<String> = self
            .faults
            .roll(FaultKind::PrologFailure, now)
            .map(|f| format!("injected prolog failure #{}", f.seq));
        for plugin in &self.plugins {
            if let Err(e) = plugin.prolog(&job, &mut ctx) {
                ctx.insert(format!("prolog.error.{}", plugin.name()), e.to_string());
                if failure.is_none() {
                    failure = Some(format!("{}: {e}", plugin.name()));
                }
            }
        }
        self.contexts.insert(id, ctx);

        self.tracer.record(
            sym!("wlm.prolog"),
            Stage::Schedule,
            now,
            now,
            [
                (sym!("job"), id.0.into()),
                (sym!("ok"), failure.is_none().into()),
            ],
        );

        if let Some(reason) = failure {
            // Release the allocation.
            for nid in &chosen {
                self.release_node(*nid, req.exclusive, req.cores_per_node);
            }
            let m = self.faults.metrics();
            m.incr("wlm.prolog.failures");
            let used = self.requeues.entry(id).or_insert(0);
            if *used < self.max_requeues {
                *used += 1;
                m.incr("wlm.prolog.requeues");
                self.faults.note(format!(
                    "- {now} job {} prolog failed ({reason}); requeue {}/{}",
                    id.0, used, self.max_requeues
                ));
                self.held.push(id);
            } else {
                m.incr("wlm.prolog.job_failed");
                self.faults.note(format!(
                    "- {now} job {} failed after {} requeues: {reason}",
                    id.0, self.max_requeues
                ));
                self.jobs.get_mut(&id).expect("exists").state =
                    JobState::Failed { at: now, reason };
            }
            return false;
        }

        let actual_end = now + job.request.actual_runtime;
        let limit_end = now + job.request.walltime_limit;
        *self.epochs.entry(id).or_insert(0) += 1;
        self.running.insert(id, (actual_end, limit_end));
        self.jobs.get_mut(&id).expect("exists").state = JobState::Running {
            started: now,
            nodes: chosen,
        };
        true
    }

    /// One scheduling pass at `now`: FIFO head start + EASY backfill.
    /// Returns jobs started.
    pub fn schedule(&mut self, now: SimTime) -> Vec<JobId> {
        let fruitless = self.settled.is_some_and(|at| at <= now);
        #[cfg(test)]
        let fruitless = fruitless && !self.every_pass_in_full;
        if fruitless {
            return Vec::new();
        }
        // Every start attempt below clears this again.
        self.settled = Some(now);
        let mut started = Vec::new();
        // Jobs requeued by a failed prolog become eligible again now.
        for id in self.held.drain(..) {
            self.queue.push_back(id);
        }
        // Start queue-head jobs while they fit.
        while let Some(&head) = self.queue.front() {
            let (free, wanted) = self.free_and_wanted(head);
            if free >= wanted {
                self.queue.pop_front();
                if self.start_job(head, now) {
                    started.push(head);
                }
            } else {
                break;
            }
        }

        // EASY backfill around the blocked head.
        if let Some(&head) = self.queue.front() {
            let (free_now, head_nodes) = self.free_and_wanted(head);

            // Shadow time: when enough nodes free for the head, assuming
            // running jobs end at their wall-time limits.
            let mut ends: Vec<(SimTime, u32)> = self
                .running
                .iter()
                .map(|(jid, (_, limit_end))| {
                    let nodes = match &self.jobs[jid].state {
                        JobState::Running { nodes, .. } => nodes.len() as u32,
                        _ => 0,
                    };
                    (*limit_end, nodes)
                })
                .collect();
            ends.sort();
            let mut avail = free_now;
            let mut shadow_time = SimTime(u64::MAX);
            let mut avail_at_shadow = avail;
            for (t, n) in ends {
                avail += n;
                if avail >= head_nodes {
                    shadow_time = t;
                    avail_at_shadow = avail;
                    break;
                }
            }
            let spare = avail_at_shadow.saturating_sub(head_nodes);

            // Scan the rest of the queue for backfill candidates.
            let rest: Vec<JobId> = self.queue.iter().skip(1).copied().collect();
            for cand in rest {
                let (free, wanted) = self.free_and_wanted(cand);
                if wanted > free {
                    continue;
                }
                let ends_before_shadow =
                    now + self.jobs[&cand].request.walltime_limit <= shadow_time;
                if ends_before_shadow || wanted <= spare {
                    self.queue.retain(|j| *j != cand);
                    if self.start_job(cand, now) {
                        started.push(cand);
                    }
                }
            }
        }
        if !started.is_empty() {
            self.tracer.record(
                sym!("wlm.schedule"),
                Stage::Schedule,
                now,
                now,
                [(sym!("started"), started.len().into())],
            );
        }
        started
    }

    // -------------------------------------------------------- completion

    fn finish_job(&mut self, id: JobId, now: SimTime, timed_out: bool) {
        let Some(job) = self.jobs.get(&id) else {
            return;
        };
        let (started, nodes) = match &job.state {
            JobState::Running { started, nodes } => (*started, nodes.clone()),
            _ => return,
        };
        let req = job.request.clone();
        self.settled = None;
        // Free the nodes.
        for nid in &nodes {
            self.release_node(*nid, req.exclusive, req.cores_per_node);
        }
        // Account.
        let cores = if req.exclusive {
            nodes
                .iter()
                .map(|nid| self.nodes[nid].spec.cores as u64)
                .sum()
        } else {
            (req.cores_per_node as u64) * nodes.len() as u64
        };
        self.ledger.record(UsageRecord {
            job: Some(id),
            user: req.user,
            cores,
            gpus: (req.gpus_per_node as u64) * nodes.len() as u64,
            start: started,
            end: now,
            source: UsageSource::Wlm,
        });
        // Epilog. Failures cannot un-complete the job, but they must not
        // vanish either: cleanup debt (leaked mounts, stale caches) is what
        // the next prolog trips over.
        let job_snapshot = self.jobs[&id].clone();
        let mut ctx = self.contexts.remove(&id).unwrap_or_default();
        let mut epilog_ok = true;
        for plugin in &self.plugins {
            if let Err(e) = plugin.epilog(&job_snapshot, &mut ctx) {
                epilog_ok = false;
                ctx.insert(format!("epilog.error.{}", plugin.name()), e.to_string());
                self.faults.metrics().incr("wlm.epilog.failures");
                self.faults.note(format!(
                    "- {now} job {} epilog failed in {}: {e}",
                    id.0,
                    plugin.name()
                ));
            }
        }
        if !self.plugins.is_empty() {
            self.tracer.record(
                sym!("wlm.epilog"),
                Stage::Schedule,
                now,
                now,
                [(sym!("job"), id.0.into()), (sym!("ok"), epilog_ok.into())],
            );
        }
        self.contexts.insert(id, ctx);

        self.tracer.record(
            sym!("wlm.job"),
            Stage::Schedule,
            started,
            now,
            [
                (sym!("job"), id.0.into()),
                (sym!("nodes"), nodes.len().into()),
                (sym!("timed_out"), timed_out.into()),
            ],
        );

        self.running.remove(&id);
        self.jobs.get_mut(&id).expect("exists").state = if timed_out {
            JobState::TimedOut {
                started,
                ended: now,
            }
        } else {
            JobState::Completed {
                started,
                ended: now,
                nodes,
            }
        };
    }

    /// Advance the WLM to `now`: completes finished jobs in time order,
    /// rescheduling after every completion. Returns jobs that reached a
    /// terminal state.
    pub fn advance_to(&mut self, now: SimTime) -> Vec<JobId> {
        let mut finished = Vec::new();
        loop {
            // Next completion (actual or timeout) not later than `now`.
            let next = self
                .running
                .iter()
                .map(|(id, (actual, limit))| (*id, (*actual).min(*limit), *actual > *limit))
                .filter(|(_, t, _)| *t <= now)
                .min_by_key(|(_, t, _)| *t);
            match next {
                Some((id, t, timed_out)) => {
                    self.finish_job(id, t, timed_out);
                    finished.push(id);
                    self.schedule(t);
                }
                None => break,
            }
        }
        self.schedule(now);
        finished
    }

    /// Cancel a pending or running job.
    pub fn cancel(&mut self, id: JobId, now: SimTime) -> Result<(), WlmError> {
        if !self.jobs.contains_key(&id) {
            return Err(WlmError::UnknownJob(id));
        }
        if self.running.contains_key(&id) {
            self.finish_job(id, now, false);
        }
        self.queue.retain(|j| *j != id);
        self.held.retain(|j| *j != id);
        self.settled = None;
        self.jobs.get_mut(&id).expect("checked").state = JobState::Cancelled;
        Ok(())
    }

    // ----------------------------------------------- node administration

    /// Start draining a node (no new jobs; running work continues). A
    /// node that is already draining, offline or down is left as it is.
    pub fn drain_node(&mut self, id: NodeId) -> Result<(), WlmError> {
        match self.node_state(id)? {
            NodeState::Idle => self.update_node(id, |n| n.state = NodeState::Draining),
            // Real slurm marks "draining"; model: keep allocation, flag
            // handled at completion by caller re-draining.
            NodeState::Allocated(_) => return Err(WlmError::NodeBusy(id)),
            NodeState::Draining | NodeState::Offline => {}
        }
        Ok(())
    }

    /// Take a drained node offline (hand it to Kubernetes, §6.1).
    pub fn offline_node(&mut self, id: NodeId) -> Result<NodeSpec, WlmError> {
        match self.node_state(id)? {
            NodeState::Draining | NodeState::Idle => {
                self.update_node(id, |n| n.state = NodeState::Offline);
                Ok(self.nodes[&id].spec)
            }
            _ => Err(WlmError::NodeBusy(id)),
        }
    }

    /// Return an offline node to service; any other node is left as it is.
    pub fn return_node(&mut self, id: NodeId) -> Result<(), WlmError> {
        if self.node_state(id)? == NodeState::Offline {
            self.update_node(id, |n| {
                n.state = NodeState::Idle;
                n.free_cores = n.spec.cores;
            });
        }
        Ok(())
    }

    /// Node state (inspection).
    pub(crate) fn node_state(&self, id: NodeId) -> Result<NodeState, WlmError> {
        self.nodes
            .get(&id)
            .map(|n| n.state)
            .ok_or(WlmError::UnknownNode(id))
    }

    // ------------------------------------------------- crash & recovery

    /// A compute node dies at `now`. Every job running on it loses its
    /// whole allocation (the WLM kills the sibling processes) and is
    /// requeued under a new epoch — *except* jobs whose completion is
    /// already journalled: the epoch ledger is what prevents a crashed
    /// node from double-executing work that already finished. Returns the
    /// requeued jobs; the node itself goes offline until
    /// [`node_recover`](Self::node_recover).
    pub fn node_crash(&mut self, id: NodeId, now: SimTime) -> Result<Vec<JobId>, WlmError> {
        if !self.nodes.contains_key(&id) {
            return Err(WlmError::UnknownNode(id));
        }
        // Jobs in `running` are by construction not yet completed — a
        // finished job left this map when its completion was journalled —
        // so requeueing exactly this set can never re-execute one.
        let affected: Vec<JobId> = self
            .running
            .keys()
            .filter(|jid| {
                matches!(&self.jobs[jid].state,
                         JobState::Running { nodes, .. } if nodes.contains(&id))
            })
            .copied()
            .collect();
        for jid in &affected {
            let job = &self.jobs[jid];
            let (req, nodes) = match &job.state {
                JobState::Running { nodes, .. } => (job.request.clone(), nodes.clone()),
                _ => continue,
            };
            // Release the surviving nodes of the allocation; the crashed
            // node's cores die with it.
            for nid in nodes.into_iter().filter(|nid| *nid != id) {
                self.release_node(nid, req.exclusive, req.cores_per_node);
            }
            self.running.remove(jid);
            self.settled = None;
            self.jobs.get_mut(jid).expect("exists").state = JobState::Pending;
            self.held.push(*jid);
            self.faults.metrics().incr("wlm.crash.requeues");
            self.faults.note(format!(
                "- {now} job {} requeued off crashed node {} (epoch {})",
                jid.0,
                id.0,
                self.epoch(*jid)
            ));
            self.tracer.record(
                sym!("recover.wlm.requeue"),
                Stage::Schedule,
                now,
                now,
                [
                    (sym!("job"), jid.0.into()),
                    (sym!("epoch"), self.epoch(*jid).into()),
                ],
            );
        }
        self.update_node(id, |n| {
            n.state = NodeState::Offline;
            n.free_cores = 0;
        });
        self.faults.metrics().incr("wlm.node.crashes");
        self.tracer.record(
            sym!("crash.wlm.node"),
            Stage::Schedule,
            now,
            now,
            [
                (sym!("node"), id.0.into()),
                (sym!("requeued"), affected.len().into()),
            ],
        );
        Ok(affected)
    }

    /// Bring a crashed node back into service at `now` and run a
    /// scheduling pass, so requeued jobs restart under their next epoch.
    pub fn node_recover(&mut self, id: NodeId, now: SimTime) -> Result<Vec<JobId>, WlmError> {
        self.return_node(id)?;
        self.tracer.record(
            sym!("recover.wlm.node"),
            Stage::Schedule,
            now,
            now,
            [(sym!("node"), id.0.into())],
        );
        Ok(self.schedule(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spank::ContainerSpank;

    fn cluster(nodes: u32) -> Slurm {
        let mut s = Slurm::new();
        s.add_partition("batch", NodeSpec::cpu_node(), nodes);
        s
    }

    fn job(nodes: u32, secs: u64) -> JobRequest {
        JobRequest::batch("j", 1000, nodes, SimSpan::secs(secs))
    }

    #[test]
    fn fifo_start_and_complete() {
        let mut s = cluster(4);
        let id = s.submit(job(2, 100), SimTime::ZERO).unwrap();
        s.schedule(SimTime::ZERO);
        assert!(s.job(id).unwrap().is_running());
        assert_eq!(s.idle_nodes(), 2);
        let done = s.advance_to(SimTime::ZERO + SimSpan::secs(101));
        assert_eq!(done, vec![id]);
        assert_eq!(s.idle_nodes(), 4);
        assert!(matches!(
            s.job(id).unwrap().state,
            JobState::Completed { .. }
        ));
    }

    #[test]
    fn queueing_when_full() {
        let mut s = cluster(2);
        let a = s.submit(job(2, 100), SimTime::ZERO).unwrap();
        let b = s.submit(job(2, 100), SimTime::ZERO).unwrap();
        s.schedule(SimTime::ZERO);
        assert!(s.job(a).unwrap().is_running());
        assert_eq!(s.job(b).unwrap().state, JobState::Pending);
        // b starts when a completes.
        s.advance_to(SimTime::ZERO + SimSpan::secs(100));
        assert!(s.job(b).unwrap().is_running());
        let started = SimTime::ZERO + SimSpan::secs(100);
        assert!(
            matches!(s.job(b).unwrap().state, JobState::Running { started: t, .. } if t == started),
            "b waited exactly a's runtime"
        );
    }

    #[test]
    fn easy_backfill_fills_holes() {
        let mut s = cluster(4);
        // Job A: 3 nodes, long. Job B (head-blocker): 4 nodes. Job C:
        // 1 node, short — backfills into the hole without delaying B.
        let _a = s.submit(job(3, 1000), SimTime::ZERO).unwrap();
        let b = s.submit(job(4, 100), SimTime::ZERO).unwrap();
        let mut c_req = job(1, 100);
        c_req.walltime_limit = SimSpan::secs(200); // ends before A's limit
        let c = s.submit(c_req, SimTime::ZERO).unwrap();
        s.schedule(SimTime::ZERO);
        assert_eq!(s.job(b).unwrap().state, JobState::Pending, "head blocked");
        assert!(s.job(c).unwrap().is_running(), "c backfilled");
    }

    #[test]
    fn backfill_never_delays_the_head() {
        let mut s = cluster(4);
        // A: 3 nodes until t=2000 (limit). B: 4 nodes (head, blocked).
        // C: 1 node with a limit *past* A's end — would delay B; must NOT
        // backfill.
        let mut a_req = job(3, 1000);
        a_req.walltime_limit = SimSpan::secs(1000);
        s.submit(a_req, SimTime::ZERO).unwrap();
        let b = s.submit(job(4, 100), SimTime::ZERO).unwrap();
        let mut c_req = job(1, 3000);
        c_req.walltime_limit = SimSpan::secs(3000);
        let c = s.submit(c_req, SimTime::ZERO).unwrap();
        s.schedule(SimTime::ZERO);
        assert_eq!(
            s.job(c).unwrap().state,
            JobState::Pending,
            "c would delay b"
        );
        // When A ends at 1000, B starts.
        s.advance_to(SimTime::ZERO + SimSpan::secs(1000));
        assert!(s.job(b).unwrap().is_running());
    }

    #[test]
    fn walltime_limit_kills_jobs() {
        let mut s = cluster(1);
        let mut req = job(1, 1000);
        req.walltime_limit = SimSpan::secs(100);
        let id = s.submit(req, SimTime::ZERO).unwrap();
        s.schedule(SimTime::ZERO);
        s.advance_to(SimTime::ZERO + SimSpan::secs(200));
        assert!(matches!(
            s.job(id).unwrap().state,
            JobState::TimedOut { .. }
        ));
        assert_eq!(s.idle_nodes(), 1);
    }

    #[test]
    fn accounting_records_core_seconds() {
        let mut s = cluster(2);
        let id = s.submit(job(2, 100), SimTime::ZERO).unwrap();
        s.schedule(SimTime::ZERO);
        s.advance_to(SimTime::ZERO + SimSpan::secs(100));
        let _ = id;
        // 2 nodes x 128 cores x 100 s.
        assert_eq!(s.ledger().user_core_seconds(1000), 2.0 * 128.0 * 100.0);
    }

    #[test]
    fn shared_allocation_packs_cores() {
        let mut s = cluster(1);
        let mut r1 = job(1, 100);
        r1.exclusive = false;
        r1.cores_per_node = 64;
        let mut r2 = r1.clone();
        r2.name = "second".into();
        let a = s.submit(r1, SimTime::ZERO).unwrap();
        let b = s.submit(r2, SimTime::ZERO).unwrap();
        s.schedule(SimTime::ZERO);
        assert!(s.job(a).unwrap().is_running());
        assert!(s.job(b).unwrap().is_running(), "both fit on one node");
    }

    #[test]
    fn exclusive_job_refuses_shared_node() {
        let mut s = cluster(1);
        let mut r1 = job(1, 1000);
        r1.exclusive = false;
        r1.cores_per_node = 4;
        s.submit(r1, SimTime::ZERO).unwrap();
        let excl = s.submit(job(1, 10), SimTime::ZERO).unwrap();
        s.schedule(SimTime::ZERO);
        assert_eq!(s.job(excl).unwrap().state, JobState::Pending);
    }

    #[test]
    fn unsatisfiable_requests_rejected() {
        let mut s = cluster(2);
        assert!(matches!(
            s.submit(job(5, 10), SimTime::ZERO),
            Err(WlmError::Unsatisfiable { .. })
        ));
        let mut req = job(1, 10);
        req.partition = "ghost".into();
        assert!(matches!(
            s.submit(req, SimTime::ZERO),
            Err(WlmError::UnknownPartition(_))
        ));
    }

    #[test]
    fn spank_plugin_rejects_and_stages() {
        let mut s = cluster(2);
        s.register_plugin(Box::new(ContainerSpank::default()));
        // Bad submission rejected.
        let mut bad = job(1, 10);
        bad.name = "run@".into();
        assert!(matches!(
            s.submit(bad, SimTime::ZERO),
            Err(WlmError::Spank(_))
        ));
        // Good container job gets its context staged in the prolog.
        let mut good = job(1, 10);
        good.name = "run@hpc/solver:v1".into();
        good.gpus_per_node = 2;
        let id = s.submit(good, SimTime::ZERO).unwrap();
        s.schedule(SimTime::ZERO);
        let ctx = s.context(id).unwrap();
        assert_eq!(
            ctx.get("container.image").map(String::as_str),
            Some("hpc/solver:v1")
        );
        assert_eq!(
            ctx.get("wlm.granted_devices").map(String::as_str),
            Some("0,1")
        );
        // Epilog runs at completion.
        s.advance_to(SimTime::ZERO + SimSpan::secs(10));
        assert_eq!(
            s.context(id)
                .unwrap()
                .get("container.cleaned")
                .map(String::as_str),
            Some("true")
        );
    }

    #[test]
    fn cancel_pending_and_running() {
        let mut s = cluster(1);
        let a = s.submit(job(1, 100), SimTime::ZERO).unwrap();
        let b = s.submit(job(1, 100), SimTime::ZERO).unwrap();
        s.schedule(SimTime::ZERO);
        s.cancel(b, SimTime::ZERO).unwrap(); // pending
        s.cancel(a, SimTime::ZERO + SimSpan::secs(50)).unwrap(); // running
        assert!(matches!(s.job(b).unwrap().state, JobState::Cancelled));
        assert_eq!(s.idle_nodes(), 1);
        // Accounting captured the partial run.
        assert!(s.ledger().user_core_seconds(1000) > 0.0);
    }

    #[test]
    fn drain_offline_return_cycle() {
        let mut s = cluster(2);
        let node = NodeId(0);
        s.drain_node(node).unwrap();
        assert_eq!(s.node_state(node).unwrap(), NodeState::Draining);
        let spec = s.offline_node(node).unwrap();
        assert_eq!(spec.cores, 128);
        // Offline node not schedulable: a 2-node job queues.
        let id = s.submit(job(2, 10), SimTime::ZERO).unwrap();
        s.schedule(SimTime::ZERO);
        assert_eq!(s.job(id).unwrap().state, JobState::Pending);
        s.return_node(node).unwrap();
        s.schedule(SimTime::ZERO);
        assert!(s.job(id).unwrap().is_running());
    }

    #[test]
    fn busy_node_cannot_offline() {
        let mut s = cluster(1);
        s.submit(job(1, 100), SimTime::ZERO).unwrap();
        s.schedule(SimTime::ZERO);
        assert!(matches!(
            s.offline_node(NodeId(0)),
            Err(WlmError::NodeBusy(_))
        ));
    }

    #[test]
    fn des_driven_arrivals_match_direct_stepping() {
        // Drive staggered submissions through the discrete-event engine
        // and verify the end state matches stepping the WLM directly —
        // the DES kernel and the WLM's internal timeline must agree.
        use hpcc_sim::des::Engine;

        let arrivals: [(u64, u32, u64); 4] = [(0, 2, 100), (30, 1, 50), (60, 2, 80), (90, 1, 40)];

        // DES-driven.
        let mut des_world = cluster(2);
        let mut eng = Engine::<Slurm>::new();
        for (at, nodes, secs) in arrivals {
            eng.at(SimTime::ZERO + SimSpan::secs(at), move |e, w| {
                let now = e.now();
                w.advance_to(now);
                w.submit(
                    JobRequest::batch("j", 1000, nodes, SimSpan::secs(secs)),
                    now,
                )
                .unwrap();
                w.schedule(now);
            });
        }
        eng.run_to_completion(&mut des_world, 100);
        des_world.advance_to(SimTime::ZERO + SimSpan::secs(3600));

        // Directly stepped.
        let mut direct = cluster(2);
        for (at, nodes, secs) in arrivals {
            let now = SimTime::ZERO + SimSpan::secs(at);
            direct.advance_to(now);
            direct
                .submit(
                    JobRequest::batch("j", 1000, nodes, SimSpan::secs(secs)),
                    now,
                )
                .unwrap();
            direct.schedule(now);
        }
        direct.advance_to(SimTime::ZERO + SimSpan::secs(3600));

        assert_eq!(
            des_world.ledger().user_core_seconds(1000),
            direct.ledger().user_core_seconds(1000)
        );
        assert_eq!(des_world.running_count(), 0);
        assert_eq!(direct.pending_count(), 0);
    }

    #[test]
    fn prolog_fault_requeues_then_recovers() {
        use hpcc_sim::{FaultKind, FaultRule};
        let mut s = cluster(2);
        // Prologs fail for the first 100 s (stale cache on the nodes).
        let inj = std::sync::Arc::new(FaultInjector::new(
            7,
            vec![FaultRule::sticky(
                FaultKind::PrologFailure,
                SimTime::ZERO,
                SimTime::ZERO + SimSpan::secs(100),
            )],
        ));
        s.set_fault_injector(std::sync::Arc::clone(&inj));
        s.set_max_requeues(5);
        let id = s.submit(job(2, 50), SimTime::ZERO).unwrap();
        // Inside the window every start attempt fails and requeues.
        let started = s.schedule(SimTime::ZERO);
        assert!(started.is_empty());
        assert_eq!(s.job(id).unwrap().state, JobState::Pending);
        assert!(s.requeues[&id] >= 1);
        assert_eq!(s.idle_nodes(), 2, "failed prolog must release the nodes");
        // Past the window the requeued job starts and completes.
        let t = SimTime::ZERO + SimSpan::secs(100);
        s.schedule(t);
        assert!(s.job(id).unwrap().is_running());
        s.advance_to(t + SimSpan::secs(51));
        assert!(matches!(
            s.job(id).unwrap().state,
            JobState::Completed { .. }
        ));
        assert!(inj.metrics().get("wlm.prolog.requeues") >= 1);
        assert!(inj.metrics().get("faults.injected.prolog_failure") >= 1);
    }

    #[test]
    fn prolog_faults_exhaust_requeues_into_failed() {
        use hpcc_sim::{FaultKind, FaultRule};
        let mut s = cluster(1);
        let inj = std::sync::Arc::new(FaultInjector::new(
            3,
            vec![FaultRule::sticky(
                FaultKind::PrologFailure,
                SimTime::ZERO,
                SimTime(u64::MAX),
            )],
        ));
        s.set_fault_injector(std::sync::Arc::clone(&inj));
        s.set_max_requeues(2);
        let id = s.submit(job(1, 10), SimTime::ZERO).unwrap();
        // 1 initial try + 2 requeues (one per scheduling pass), all failed:
        // typed terminal state, nodes free, queue empty — no panic
        // anywhere on the path.
        for _ in 0..3 {
            s.schedule(SimTime::ZERO);
        }
        assert!(s.job(id).unwrap().is_failed());
        assert_eq!(s.requeues[&id], 2);
        assert_eq!(s.pending_count(), 0);
        assert_eq!(s.idle_nodes(), 1);
        assert_eq!(inj.metrics().get("wlm.prolog.failures"), 3);
        assert_eq!(inj.metrics().get("wlm.prolog.job_failed"), 1);
        // The cluster still schedules other work afterwards... but the
        // window is permanent here, so a fresh job also fails — with its
        // own requeue budget.
        let other = s.submit(job(1, 10), SimTime::ZERO).unwrap();
        for _ in 0..3 {
            s.schedule(SimTime::ZERO);
        }
        assert!(s.job(other).unwrap().is_failed());
    }

    #[test]
    fn node_crash_requeues_running_but_never_completed_jobs() {
        let mut s = cluster(2);
        let done = s.submit(job(1, 100), SimTime::ZERO).unwrap();
        let victim = s.submit(job(1, 500), SimTime::ZERO).unwrap();
        s.schedule(SimTime::ZERO);
        let t = SimTime::ZERO + SimSpan::secs(150);
        s.advance_to(t); // `done` completed at t=100, `victim` still runs
        assert!(matches!(
            s.job(done).unwrap().state,
            JobState::Completed { .. }
        ));
        let crashed_node = s.allocated_nodes(victim)[0];

        let requeued = s.node_crash(crashed_node, t).unwrap();
        assert_eq!(requeued, vec![victim], "completed job must not requeue");
        assert_eq!(s.job(victim).unwrap().state, JobState::Pending);
        assert_eq!(s.node_state(crashed_node).unwrap(), NodeState::Offline);
        assert_eq!(s.epoch(victim), 1, "crashed epoch stays journalled");

        // The node comes back; the job restarts under epoch 2 (it may
        // also have restarted on the surviving node already).
        s.node_recover(crashed_node, t).unwrap();
        s.schedule(t);
        assert!(s.job(victim).unwrap().is_running());
        assert_eq!(s.epoch(victim), 2);
        s.advance_to(t + SimSpan::secs(501));
        assert!(matches!(
            s.job(victim).unwrap().state,
            JobState::Completed { .. }
        ));
        // Exactly one accounted execution per job — the crashed partial
        // run was lost work, the completed run was journalled once.
        for id in [done, victim] {
            let runs = s
                .ledger()
                .records()
                .iter()
                .filter(|r| r.job == Some(id))
                .count();
            assert_eq!(runs, 1, "job {} must be accounted exactly once", id.0);
        }
        assert_eq!(s.epoch(done), 1, "completed job never re-executed");
    }

    #[test]
    fn node_crash_releases_sibling_nodes_of_wide_jobs() {
        let mut s = cluster(4);
        let wide = s.submit(job(3, 500), SimTime::ZERO).unwrap();
        s.schedule(SimTime::ZERO);
        let nodes = s.allocated_nodes(wide);
        assert_eq!(nodes.len(), 3);
        let t = SimTime::ZERO + SimSpan::secs(10);
        s.node_crash(nodes[0], t).unwrap();
        // The two surviving allocation nodes are idle again; only the
        // crashed one is down.
        assert_eq!(s.idle_nodes(), 3);
        assert_eq!(s.node_state(nodes[0]).unwrap(), NodeState::Offline);
        // With 3 idle nodes the requeued 3-node job restarts at once.
        s.schedule(t);
        assert!(s.job(wide).unwrap().is_running());
        assert!(!s.allocated_nodes(wide).contains(&nodes[0]));
    }

    // ------------------------------------------ settled passes are skipped

    /// A scheduler that runs every pass in full: what `schedule` did before
    /// it learned to skip, and the oracle the skipping one answers to.
    fn reference(mut s: Slurm) -> Slurm {
        s.every_pass_in_full = true;
        s
    }

    fn job_in(partition: &str, nodes: u32, limit_secs: u64) -> JobRequest {
        let mut req = job(nodes, limit_secs);
        req.partition = partition.into();
        req.walltime_limit = SimSpan::secs(limit_secs);
        req
    }

    /// Backfill computes shadow time and spare once, before its loop, and
    /// counts running jobs of every partition toward the head's: `x`, which
    /// this pass starts, hands the next pass an earlier shadow with a node
    /// to spare, and `y`, refused a moment ago, now backfills. A pass that
    /// started something must therefore never count as settled.
    #[test]
    fn a_pass_that_started_a_job_leaves_the_next_pass_due() {
        let build = || {
            let mut s = Slurm::new();
            s.add_partition("p1", NodeSpec::cpu_node(), 4);
            s.add_partition("p2", NodeSpec::cpu_node(), 4);
            s.submit(job_in("p1", 2, 1000), SimTime::ZERO).unwrap();
            s.submit(job_in("p1", 1, 2000), SimTime::ZERO).unwrap();
            assert_eq!(s.schedule(SimTime::ZERO).len(), 2);
            s.submit(job_in("p1", 3, 100), SimTime::ZERO).unwrap(); // blocked head
            let y = s.submit(job_in("p2", 1, 5000), SimTime::ZERO).unwrap();
            let x = s.submit(job_in("p2", 3, 500), SimTime::ZERO).unwrap();
            (s, x, y)
        };
        let (mut s, x, y) = build();
        assert_eq!(s.schedule(SimTime::ZERO), [x]);
        assert_eq!(s.settled, None, "a start leaves the state changed");
        assert_eq!(s.schedule(SimTime::ZERO), [y]);
        // Now nothing is left to admit, and only now is the scheduler settled.
        assert!(s.schedule(SimTime::ZERO).is_empty());
        assert_eq!(s.settled, Some(SimTime::ZERO));

        let (full, ..) = build();
        let mut full = reference(full);
        assert_eq!(full.schedule(SimTime::ZERO), [x]);
        assert_eq!(full.schedule(SimTime::ZERO), [y]);
    }

    /// A pass whose only start attempt failed its prolog returns nothing,
    /// like a fruitless one — but the job it requeued must be retried.
    #[test]
    fn a_held_job_forces_the_next_pass() {
        use hpcc_sim::{FaultKind, FaultRule};
        let mut s = cluster(1);
        let healed = SimTime::ZERO + SimSpan::secs(100);
        s.set_fault_injector(Arc::new(FaultInjector::new(
            7,
            vec![FaultRule::sticky(
                FaultKind::PrologFailure,
                SimTime::ZERO,
                healed,
            )],
        )));
        let id = s.submit(job(1, 50), SimTime::ZERO).unwrap();
        assert!(s.schedule(SimTime::ZERO).is_empty());
        assert_eq!(s.held, [id]);
        assert_eq!(s.settled, None, "the pass started nothing, and is due");
        assert_eq!(s.schedule(healed), [id]);
    }

    /// The controller's grow loop drains and offlines every WLM node every
    /// tick while demand exceeds supply. On a busy partition every one of
    /// those calls is refused, and a refusal is not a change.
    #[test]
    fn refused_node_administration_leaves_a_settled_scheduler_settled() {
        let build = || {
            let mut s = cluster(4);
            for _ in 0..4 {
                s.submit(job(1, 1000), SimTime::ZERO).unwrap();
            }
            s.submit(job(2, 10), SimTime::ZERO).unwrap(); // queued behind them
            assert_eq!(s.schedule(SimTime::ZERO).len(), 4);
            assert!(s.schedule(SimTime::ZERO).is_empty());
            s
        };
        let (mut s, mut full) = (build(), reference(build()));
        assert_eq!(s.settled, Some(SimTime::ZERO));
        for round in 0..1000u64 {
            for node in (0..4).map(NodeId) {
                for s in [&mut s, &mut full] {
                    assert!(matches!(s.drain_node(node), Err(WlmError::NodeBusy(_))));
                    assert!(matches!(s.offline_node(node), Err(WlmError::NodeBusy(_))));
                }
            }
            assert_eq!(s.settled, Some(SimTime::ZERO), "round {round}");
            // The oracle: the full pass the skip stands in for starts nothing.
            let now = SimTime::ZERO + SimSpan::millis(round);
            assert!(full.schedule(now).is_empty());
            assert!(s.schedule(now).is_empty());
        }
        assert_eq!(s.idle_nodes(), 0);
    }

    /// What the calls return is what they always returned; only a call
    /// that moves a node unsettles the scheduler.
    #[test]
    fn node_administration_counts_only_real_transitions() {
        let mut s = cluster(2);
        let node = NodeId(0);
        assert!(s.schedule(SimTime::ZERO).is_empty());
        let settled = s.settled;
        assert!(settled.is_some());

        s.return_node(node).unwrap(); // not offline: nothing to return
        assert_eq!(s.settled, settled);
        s.drain_node(node).unwrap();
        assert_eq!(s.settled, None, "Idle -> Draining is a change");
        assert_eq!(s.idle_nodes(), 1);

        s.schedule(SimTime::ZERO);
        s.drain_node(node).unwrap(); // already draining: Ok, as before
        assert_eq!(s.settled, settled);
        s.offline_node(node).unwrap();
        assert_eq!(s.settled, None, "Draining -> Offline is a change");

        s.schedule(SimTime::ZERO);
        s.drain_node(node).unwrap(); // offline: still Ok, still nothing
        assert!(matches!(s.offline_node(node), Err(WlmError::NodeBusy(_))));
        assert_eq!(s.settled, settled);
        assert_eq!(s.node_state(node).unwrap(), NodeState::Offline);
        s.return_node(node).unwrap();
        assert_eq!(s.settled, None, "Offline -> Idle is a change");
        assert_eq!(s.idle_nodes(), 2);
    }

    /// One step of a random stream of everything that can reach a `Slurm`.
    /// Operands are reduced modulo what exists when the step runs.
    type Step = (u8, u32, u64, bool);

    /// Apply `step` at `*now`; returns the job ids the call returned.
    fn apply(s: &mut Slurm, step: Step, now: &mut SimTime) -> Vec<JobId> {
        let (op, a, b, flag) = step;
        let node = NodeId(a % 6);
        let known_job = JobId(b % s.next_id.max(1));
        match op {
            0 | 1 => {
                let mut req = job(1 + a % 4, 1 + b % 600);
                if flag {
                    // Shared jobs pack cores; exclusive ones take nodes.
                    req.exclusive = false;
                    req.cores_per_node = 32 * (1 + a % 4);
                }
                if op == 1 {
                    req.walltime_limit = SimSpan::secs(1 + b % 200);
                }
                s.submit(req, *now).map_or(Vec::new(), |id| vec![id])
            }
            2 | 3 => {
                *now += SimSpan::secs(b % 300);
                s.advance_to(*now)
            }
            4 => s.schedule(*now),
            // A pass at an earlier instant than the last one.
            5 => s.schedule(SimTime(now.0 / 2)),
            6 => {
                let _ = s.drain_node(node);
                if flag {
                    let _ = s.offline_node(node);
                }
                Vec::new()
            }
            7 => {
                let _ = s.return_node(node);
                Vec::new()
            }
            8 => {
                let _ = s.cancel(known_job, *now);
                Vec::new()
            }
            _ if flag => s.node_crash(node, *now).unwrap_or_default(),
            _ => s.node_recover(node, *now).unwrap_or_default(),
        }
    }

    proptest::proptest! {
        /// Two schedulers fed one stream — prolog faults on, so failed
        /// starts and requeues are in it — one of them forced to run every
        /// pass in full: every call returns the same jobs, and every job,
        /// node and ledger record ends up the same. A skipped pass that was
        /// due would start a job late (or never) and show here.
        #[test]
        fn skipping_settled_passes_changes_no_outcome(
            stream in proptest::collection::vec(
                (0u8..10u8, 0u32..16u32, 0u64..1000u64, proptest::any::<bool>()),
                1..80,
            ),
        ) {
            use hpcc_sim::{FaultKind, FaultRule};
            let build = || {
                let mut s = cluster(6);
                s.set_fault_injector(Arc::new(FaultInjector::new(
                    11,
                    vec![FaultRule::background(FaultKind::PrologFailure, 0.25)],
                )));
                s
            };
            let (mut fast, mut full) = (build(), reference(build()));
            let (mut t_fast, mut t_full) = (SimTime::ZERO, SimTime::ZERO);
            for step in stream {
                let returned = apply(&mut fast, step, &mut t_fast);
                proptest::prop_assert_eq!(&returned, &apply(&mut full, step, &mut t_full));
                let states = |s: &Slurm| -> Vec<JobState> {
                    s.jobs.values().map(|j| j.state.clone()).collect()
                };
                proptest::prop_assert_eq!(states(&fast), states(&full));
                let nodes = |s: &Slurm| -> Vec<(NodeState, u32)> {
                    s.nodes.values().map(|n| (n.state, n.free_cores)).collect()
                };
                proptest::prop_assert_eq!(nodes(&fast), nodes(&full));
                proptest::prop_assert_eq!(fast.idle_nodes(), full.idle_nodes());
                proptest::prop_assert_eq!(fast.ledger().records(), full.ledger().records());
                proptest::prop_assert_eq!(fast.pending_count(), full.pending_count());
            }
        }
    }

    #[test]
    fn completions_trigger_cascading_starts() {
        let mut s = cluster(1);
        let ids: Vec<JobId> = (0..3)
            .map(|_| s.submit(job(1, 100), SimTime::ZERO).unwrap())
            .collect();
        s.schedule(SimTime::ZERO);
        s.advance_to(SimTime::ZERO + SimSpan::secs(350));
        for id in &ids {
            assert!(
                matches!(s.job(*id).unwrap().state, JobState::Completed { .. }),
                "job {id:?} should have run serially"
            );
        }
        // Serial packing: third job started at t=200.
        let started = SimTime::ZERO + SimSpan::secs(200);
        assert!(matches!(
            s.job(ids[2]).unwrap().state,
            JobState::Completed { started: t, .. } if t == started
        ));
    }
}
