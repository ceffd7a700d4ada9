//! The closed-loop partition controller and its deterministic harness.
//!
//! One controller owns the boundary between a WLM partition and a
//! Kubernetes agent pool on the same hardware. Every tick it:
//!
//! 1. snapshots [`DemandSignals`] (pod queue, WLM queue, idle supply),
//! 2. asks the policy how many nodes to **grow**, then applies its own
//!    limits — grow cooldown and the reprovision-budget limiter — and
//!    cordons+drains idle WLM nodes (`drain → offline`),
//! 3. finishes in-flight reprovisions: each node that has cooked for
//!    [`ControllerConfig::reprovision`] boots a kubelet and joins the
//!    agent pool (a seeded [`FaultKind::NodeFlap`] can restart the cycle),
//! 4. finishes in-flight returns (`Offline → Idle` in the WLM),
//! 5. runs the Kubernetes control loop (schedule, sync, reap),
//! 6. asks the policy how many idle-ready agents to **release**, applies
//!    the release cooldown, and hands nodes back (another reprovision
//!    latency before the WLM sees them).
//!
//! Per-node lifecycle (the state machine the controller enforces):
//!
//! ```text
//!            grow                 reprovision done
//!   Wlm ──────────▶ Provisioning ──────────────────▶ Agent
//!    ▲                │      ▲ └──────── NodeFlap ────┘ (retry loop)
//!    │                │ budget exhausted               │ release
//!    │                ▼                                ▼
//!    └───────────── Returning ◀────────────────────────┘
//!         reprovision done
//! ```
//!
//! [`run`] steps the loop on [`World::drive`], admitting the trace's
//! arrivals ahead of each tick. The world it steps, the driver and the
//! outcome epilogue are [`crate::cosim`]'s and step 5 is
//! [`hpcc_k8s::ControlPlane::tick`]: the same code the hand-written §6
//! scenarios in `hpcc-core` run, so the [`crate::presets`] sit in one
//! table with them.

use crate::cosim::{external_pod_usage, node_cgroups, World};
use crate::policy::PartitionPolicy;
use crate::signals::DemandSignals;
use crate::traces::TimedWorkload;
use hpcc_k8s::kubelet::{CriRuntime, Kubelet, KubeletMode};
use hpcc_k8s::objects::{PodSpec, Resources};
use hpcc_sim::sym;
use hpcc_sim::{
    AttrValue, DomainHealth, DomainSchedule, FaultInjector, FaultKind, SimSpan, SimTime, Stage,
    Symbol, Tracer,
};
use hpcc_wlm::accounting::{UsageRecord, UsageSource};
use hpcc_wlm::types::{NodeId, NodeSpec};
use std::collections::BTreeMap;
use std::iter::Peekable;
use std::sync::Arc;

/// How pod usage reaches (or escapes) the WLM's accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccountingModel {
    /// Each finished pod lands as one `External` usage record (the §6.6
    /// static-partition baseline: usage visible, but not WLM-accounted).
    PerPod,
    /// A node's whole Kubernetes tenure lands as one `External` record
    /// when it is handed back (§6.1: the WLM only sees the hole).
    AgentTenure,
}

/// Controller tuning: timing, partition shape, damping and budgets.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Control-loop period.
    pub tick: SimSpan,
    /// Hard stop for the simulation.
    pub horizon: SimSpan,
    /// Time to reimage/reconfigure a node in either direction.
    pub reprovision: SimSpan,
    /// An agent must idle this long before it becomes returnable.
    pub idle_return_after: SimSpan,
    /// Nodes registered with the WLM (the movable pool).
    pub wlm_nodes: u32,
    /// Permanent kubelets booted outside the WLM at t=0 (static carve-out).
    pub static_agents: u32,
    /// Minimum spacing between grow actuations (damping).
    pub grow_cooldown: SimSpan,
    /// Minimum spacing between release actuations (damping).
    pub release_cooldown: SimSpan,
    /// Cap on WLM→Kubernetes reprovision operations, flap retries
    /// included. `None` is unlimited (the §6.1 preset).
    pub reprovision_budget: Option<u32>,
    pub accounting: AccountingModel,
    /// Node-name prefix for dynamically reprovisioned agents; the WLM
    /// node id is appended.
    pub dynamic_agent_prefix: &'static str,
    /// Node-name prefix for the static carve-out; a 0-based index is
    /// appended.
    pub static_agent_prefix: &'static str,
    /// User id external usage records are billed to.
    pub external_user: u32,
    /// Pod-startup SLO: arrival→running above this counts as a violation.
    pub slo_pod_start: SimSpan,
    /// Hardware of every node on either side of the boundary.
    pub node_spec: NodeSpec,
}

impl ControllerConfig {
    /// The §6 scenario timing defaults over a movable pool of
    /// `wlm_nodes` plus `static_agents` permanent kubelets.
    pub fn new(wlm_nodes: u32, static_agents: u32) -> ControllerConfig {
        ControllerConfig {
            tick: SimSpan::secs(1),
            horizon: SimSpan::secs(6 * 3600),
            reprovision: SimSpan::secs(60),
            idle_return_after: SimSpan::secs(120),
            wlm_nodes,
            static_agents,
            grow_cooldown: SimSpan::ZERO,
            release_cooldown: SimSpan::ZERO,
            reprovision_budget: None,
            accounting: AccountingModel::AgentTenure,
            dynamic_agent_prefix: "realloc-",
            static_agent_prefix: "k8s-",
            external_user: 2000,
            slo_pod_start: SimSpan::secs(30),
            node_spec: NodeSpec::cpu_node(),
        }
    }

    /// Total cores on both sides of the boundary.
    pub fn capacity_cores(&self) -> u64 {
        (self.wlm_nodes + self.static_agents) as u64 * self.node_spec.cores as u64
    }
}

/// Where a movable node currently is in the controller's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodePhase {
    /// Under WLM control (idle or running jobs).
    Wlm,
    /// Drained, offline, being reimaged toward Kubernetes.
    Provisioning { ready_at: SimTime, attempts: u32 },
    /// Serving as a Kubernetes agent.
    Agent { since: SimTime },
    /// Being reimaged back toward the WLM.
    Returning { ready_at: SimTime },
}

/// What the controller decided at one tick (the auditable policy output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    Grow,
    Release,
}

/// One actuation: what the policy asked for and what the controller —
/// after cooldowns, budgets and node availability — actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    pub at: SimTime,
    pub kind: DecisionKind,
    pub requested: u32,
    pub applied: u32,
}

/// A CRI charging a fixed startup latency per pod — the cheap stand-in
/// for the measured engine pipeline in unit tests and policy sweeps.
#[derive(Debug, Clone, Copy)]
pub struct FixedCri(pub SimSpan);

impl CriRuntime for FixedCri {
    fn start_pod(&self, _pod: &PodSpec) -> Result<SimSpan, String> {
        Ok(self.0)
    }
}

/// Everything one controller run needs.
pub struct RunSpec<'a> {
    pub workload: &'a TimedWorkload,
    pub policy: Box<dyn PartitionPolicy>,
    pub config: ControllerConfig,
    /// Container runtime agents launch pods through (the §6 scenarios
    /// pass the measured-startup CRI; tests pass [`FixedCri`]).
    pub cri: Arc<dyn CriRuntime>,
    pub tracer: Arc<Tracer>,
    pub faults: Arc<FaultInjector>,
    /// Failure-domain outage schedule, mapped over the movable pool in
    /// `node_ids` order. `None` runs with every domain healthy (the
    /// pre-existing behavior, bit-for-bit). With a schedule, the
    /// controller snapshots [`DomainHealth`] into every
    /// [`DemandSignals`] and refuses to provision into nodes that are
    /// down or partitioned from the origin registry — a dead rack can't
    /// be grown into, and the policy sees enough to drain around it.
    pub domains: Option<Arc<DomainSchedule>>,
    /// Root-span name attribute (`scenario` span in the trace corpus).
    pub scenario: &'a str,
}

/// Result of one controller run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptOutcome {
    pub policy: String,
    /// Completion of the whole workload *and* the partition settling home
    /// (§6 scenario semantics: includes draining agents back).
    pub makespan: SimSpan,
    /// Last pod/job completion — the window utilization is honest over.
    pub work_makespan: SimSpan,
    pub first_pod_start: Option<SimSpan>,
    pub mean_pod_start: Option<SimSpan>,
    /// Arrival→running latency percentiles (nearest-rank).
    pub p50_pod_start: Option<SimSpan>,
    pub p95_pod_start: Option<SimSpan>,
    /// Ledger usage (WLM + external) over capacity × makespan — the §6.6
    /// table's utilization column.
    pub utilization: f64,
    /// (Job + pod core-seconds) / (capacity × work-makespan): actual
    /// compute delivered, comparable across policies.
    pub combined_utilization: f64,
    /// Job core-seconds over the nominal WLM partition.
    pub wlm_utilization: f64,
    /// Pod core-seconds over the capacity-time agents actually offered.
    pub k8s_utilization: f64,
    pub accounting_coverage: f64,
    pub pods_succeeded: usize,
    pub pods_failed: usize,
    pub jobs_completed: usize,
    /// WLM→Kubernetes reprovision operations (flap retries included).
    pub reprovisions: u32,
    /// Node flaps survived during reprovisioning.
    pub flaps: u32,
    /// Agents handed back to the WLM.
    pub releases: u32,
    /// Reprovisions abandoned because the budget ran out.
    pub abandoned: u32,
    /// Pods that started later than the SLO allows (failed pods count).
    pub slo_violations: usize,
    /// Full actuation log, in tick order — pure function of the inputs.
    pub decisions: Vec<Decision>,
}

struct AgentSlot {
    /// WLM node this agent was carved from; `None` for the static pool.
    wlm_id: Option<NodeId>,
    kubelet: Kubelet,
    /// Time the node became a k8s agent (for usage records on return).
    since: SimTime,
    idle_since: Option<SimTime>,
}

impl AgentSlot {
    /// A dynamic agent that has idled for at least `after` by `t`.
    fn returnable(&self, t: SimTime, after: SimSpan) -> bool {
        self.wlm_id.is_some() && self.idle_since.is_some_and(|s| t.since(s) >= after)
    }
}

struct Provisioning {
    node: NodeId,
    ready_at: SimTime,
    drained_at: SimTime,
    attempts: u32,
}

struct Returning {
    node: NodeId,
    ready_at: SimTime,
    released_at: SimTime,
}

struct Controller {
    cfg: ControllerConfig,
    policy: Box<dyn PartitionPolicy>,
    faults: Arc<FaultInjector>,
    domains: Option<Arc<DomainSchedule>>,

    agents: Vec<AgentSlot>,
    provisioning: Vec<Provisioning>,
    returning: Vec<Returning>,
    phases: BTreeMap<NodeId, NodePhase>,

    /// The arrivals still to come as `(at, index)`, pods numbered after
    /// jobs, sorted: a job before a pod of the same instant, each in trace
    /// order.
    due: Peekable<std::vec::IntoIter<(SimTime, usize)>>,
    total_pods: usize,

    last_grow: Option<SimTime>,
    last_release: Option<SimTime>,
    reprovisions: u32,
    flaps: u32,
    releases: u32,
    abandoned: u32,
    decisions: Vec<Decision>,
    pod_core_seconds: f64,
    agent_capacity_core_seconds: f64,
}

impl Controller {
    fn set_phase(&mut self, node: NodeId, next: NodePhase) {
        let prev = self.phases.get(&node).copied().unwrap_or(NodePhase::Wlm);
        debug_assert!(
            matches!(
                (prev, next),
                (NodePhase::Wlm, NodePhase::Provisioning { .. })
                    | (
                        NodePhase::Provisioning { .. },
                        NodePhase::Provisioning { .. }
                    )
                    | (NodePhase::Provisioning { .. }, NodePhase::Agent { .. })
                    | (NodePhase::Provisioning { .. }, NodePhase::Returning { .. })
                    | (NodePhase::Agent { .. }, NodePhase::Returning { .. })
                    | (NodePhase::Returning { .. }, NodePhase::Wlm)
            ),
            "illegal node transition {prev:?} -> {next:?}"
        );
        self.phases.insert(node, next);
    }

    /// Whether the failure domain of the movable node at position `idx`
    /// (in `wlm_nodes` order) can take a reprovision at `t`: its rack has
    /// power and its row can still reach the origin registry.
    fn domain_allows(&self, idx: usize, t: SimTime) -> bool {
        self.domains
            .as_ref()
            .is_none_or(|d| !d.node_down(idx, t) && !d.partitioned_from_origin(idx, t))
    }

    fn dynamic_agents(&self) -> usize {
        self.agents.iter().filter(|a| a.wlm_id.is_some()).count()
    }

    fn idle_ready(&self, t: SimTime) -> usize {
        self.agents
            .iter()
            .filter(|a| a.returnable(t, self.cfg.idle_return_after))
            .count()
    }

    /// True once every pod and job has arrived and finished. Pod phases
    /// reflect the last kubelet sync, so at the top of a tick this reports
    /// the state as of the end of the previous tick.
    fn workload_done(&self, w: &World) -> bool {
        self.due.len() == 0 && w.drained(self.total_pods)
    }

    /// Admit every arrival due by `t`, each at its own trace time.
    fn admit(&mut self, w: &mut World, wl: &TimedWorkload, t: SimTime) {
        while let Some((at, i)) = self.due.next_if(|(at, _)| *at <= t) {
            match i.checked_sub(wl.jobs.len()) {
                None => w.submit(wl.jobs[i].0.clone(), at),
                Some(p) => w.k8s.api.create_pod(wl.pods[p].0.clone()).unwrap(),
            }
        }
    }

    /// Start (or, after a flap, restart) reimaging `node` toward Kubernetes.
    fn provision(&mut self, node: NodeId, drained_at: SimTime, attempts: u32, t: SimTime) {
        let ready_at = t + self.cfg.reprovision;
        self.set_phase(node, NodePhase::Provisioning { ready_at, attempts });
        self.provisioning.push(Provisioning {
            node,
            ready_at,
            drained_at,
            attempts,
        });
        self.reprovisions += 1;
    }

    /// Start reimaging `node` back toward the WLM.
    fn send_home(&mut self, node: NodeId, t: SimTime) {
        let ready_at = t + self.cfg.reprovision;
        self.set_phase(node, NodePhase::Returning { ready_at });
        self.returning.push(Returning {
            node,
            ready_at,
            released_at: t,
        });
    }

    /// Log one actuation to the decision list and the trace.
    fn decide<const N: usize>(
        &mut self,
        w: &World,
        t: SimTime,
        kind: DecisionKind,
        requested: u32,
        applied: u32,
        context: [(Symbol, AttrValue); N],
    ) {
        self.decisions.push(Decision {
            at: t,
            kind,
            requested,
            applied,
        });
        let action = match kind {
            DecisionKind::Grow => "grow",
            DecisionKind::Release => "release",
        };
        let attrs = [
            (sym!("policy"), self.policy.name().into()),
            (sym!("action"), action.into()),
            (sym!("requested"), requested.into()),
            (sym!("applied"), applied.into()),
        ];
        w.tracer.record(
            sym!("adapt.decision"),
            Stage::Adapt,
            t,
            t,
            attrs.into_iter().chain(context),
        );
    }

    /// Close `agent`'s books at `t`: the capacity it offered, and — for a
    /// node borrowed from the WLM under tenure accounting — its whole
    /// Kubernetes tenure as one external usage record.
    fn retire(&mut self, w: &mut World, agent: &AgentSlot, t: SimTime) {
        self.agent_capacity_core_seconds +=
            self.cfg.node_spec.cores as f64 * t.since(agent.since).as_secs_f64();
        if agent.wlm_id.is_some() && self.cfg.accounting == AccountingModel::AgentTenure {
            w.slurm.record_external_usage(UsageRecord {
                job: None,
                user: self.cfg.external_user,
                cores: self.cfg.node_spec.cores as u64,
                gpus: 0,
                start: agent.since,
                end: t,
                source: UsageSource::External,
            });
        }
    }

    /// One control-loop tick at `t`. Returns true when the workload is
    /// done and the partition has settled home.
    fn step(&mut self, w: &mut World, t: SimTime) -> bool {
        w.slurm.advance_to(t);

        // Demand signal: pending pods needing capacity, active pod load.
        let pods = w.k8s.api.pod_tallies();
        // Workload status at the top of the tick (job queues just advanced;
        // pod phases reflect the end of the previous tick). Once everything
        // is done, growth is pointless: without this gate a policy with a
        // warm-pool floor (EwmaForecast) would re-grow the pool every time
        // the drain-down releases it and the partition would never settle.
        let workload_done_pre = self.workload_done(w);

        let node_cpu_millis = Resources::from(self.cfg.node_spec).cpu_millis;
        let signals = DemandSignals {
            now: t,
            pending_pods: pods.pending,
            pending_pod_millis: pods.pending_cpu_millis,
            running_pod_millis: pods.bound_cpu_millis,
            wlm_pending_jobs: w.slurm.pending_count(),
            wlm_idle_nodes: w.slurm.idle_nodes(),
            agents: self.dynamic_agents(),
            provisioning: self.provisioning.len(),
            agents_idle_ready: self.idle_ready(t),
            node_cpu_millis,
            domain: self
                .domains
                .as_ref()
                .map(|d| d.health(t))
                .unwrap_or_else(|| DomainHealth::all_healthy(w.wlm_nodes.len())),
        };

        // Policy: grow, damped by cooldown and the reprovision budget.
        let requested = if workload_done_pre {
            0
        } else {
            self.policy.grow(&signals)
        };
        let mut granted = requested;
        if cooling(self.last_grow, self.cfg.grow_cooldown, t) {
            granted = 0;
        }
        if let Some(budget) = self.cfg.reprovision_budget {
            granted = granted.min(budget.saturating_sub(self.reprovisions));
        }
        let mut drained = 0u32;
        let mut domain_skipped = 0u32;
        if granted > 0 {
            // Grab idle WLM nodes (cordon: drain, then take offline) —
            // skipping nodes whose failure domain is down or partitioned:
            // a reprovision there would boot a kubelet nobody can reach,
            // or pull images through a severed origin path.
            let mut need = granted;
            for idx in 0..w.wlm_nodes.len() {
                let id = w.wlm_nodes[idx];
                if need == 0 {
                    break;
                }
                if !self.domain_allows(idx, t) {
                    domain_skipped += 1;
                    continue;
                }
                if w.slurm.drain_node(id).is_ok() && w.slurm.offline_node(id).is_ok() {
                    self.provision(id, t, 0, t);
                    need -= 1;
                    drained += 1;
                }
            }
            if drained > 0 {
                self.last_grow = Some(t);
            }
            if domain_skipped > 0 {
                w.tracer.record(
                    sym!("adapt.domain_skip"),
                    Stage::Adapt,
                    t,
                    t,
                    [
                        (sym!("skipped"), domain_skipped.into()),
                        (sym!("granted"), granted.into()),
                    ],
                );
            }
        }
        if requested > 0 {
            let context = [
                (sym!("pending_pods"), pods.pending.into()),
                (sym!("supplying"), signals.supplying().into()),
            ];
            self.decide(w, t, DecisionKind::Grow, requested, drained, context);
        }

        // Finish provisioning → boot kubelets (or flap and go around).
        let (ready, still): (Vec<_>, Vec<_>) =
            self.provisioning.drain(..).partition(|p| p.ready_at <= t);
        self.provisioning = still;
        for prov in ready {
            if self.faults.roll(FaultKind::NodeFlap, t).is_some() {
                self.flaps += 1;
                let attempts = prov.attempts + 1;
                let within_budget = self
                    .cfg
                    .reprovision_budget
                    .is_none_or(|b| self.reprovisions < b);
                w.tracer.record(
                    sym!("adapt.flap"),
                    Stage::Adapt,
                    t,
                    t,
                    [
                        (sym!("node"), prov.node.0.into()),
                        (sym!("attempts"), attempts.into()),
                        (sym!("retried"), within_budget.into()),
                    ],
                );
                if within_budget {
                    self.provision(prov.node, prov.drained_at, attempts, t);
                } else {
                    self.abandoned += 1;
                    self.send_home(prov.node, t);
                }
                continue;
            }
            // A reprovisioned agent boots on the shared clock, at `t`.
            w.clock.advance_to(t);
            let kubelet = w
                .boot_kubelet(
                    &format!("{}{}", self.cfg.dynamic_agent_prefix, prov.node.0),
                    KubeletMode::Rootful,
                    &mut node_cgroups(KubeletMode::Rootful),
                    &w.clock,
                )
                .expect("rootful kubelet boots");
            w.tracer.record(
                sym!("adapt.reprovision"),
                Stage::Adapt,
                prov.drained_at,
                t,
                [
                    (sym!("node"), prov.node.0.into()),
                    (sym!("attempts"), (prov.attempts + 1).into()),
                ],
            );
            self.set_phase(prov.node, NodePhase::Agent { since: t });
            self.agents.push(AgentSlot {
                wlm_id: Some(prov.node),
                kubelet,
                since: t,
                idle_since: None,
            });
        }

        // Finish returns.
        let (back, still): (Vec<_>, Vec<_>) =
            self.returning.drain(..).partition(|r| r.ready_at <= t);
        self.returning = still;
        for ret in back {
            w.slurm.return_node(ret.node).expect("offline node returns");
            self.set_phase(ret.node, NodePhase::Wlm);
            w.tracer.record(
                sym!("adapt.return"),
                Stage::Adapt,
                ret.released_at,
                t,
                [(sym!("node"), ret.node.0.into())],
            );
        }

        // K8s control loop.
        let kubelets = self.agents.iter_mut().map(|a| &mut a.kubelet);
        w.k8s.tick(kubelets, &w.clock, t, |pod| {
            self.pod_core_seconds += pod.resources.cpu_millis as f64 / 1000.0
                * pod.ended.since(pod.started).as_secs_f64();
            if self.cfg.accounting == AccountingModel::PerPod {
                // Pod usage is invisible to the WLM: External.
                w.slurm
                    .record_external_usage(external_pod_usage(self.cfg.external_user, &pod));
            }
        });
        for agent in &mut self.agents {
            agent.idle_since = if agent.kubelet.running_count() == 0 {
                agent.idle_since.or(Some(t))
            } else {
                None
            };
        }

        // Workload status (drives the forced drain-down and completion).
        let workload_done = self.workload_done(w);

        // Policy: release idle-ready agents, damped by cooldown; a fully
        // drained workload overrides the policy so standing pools retire.
        let idle_ready = self.idle_ready(t);
        let release_signals = DemandSignals {
            agents: self.dynamic_agents(),
            provisioning: self.provisioning.len(),
            agents_idle_ready: idle_ready,
            ..signals
        };
        let req_release = self.policy.release(&release_signals);
        let mut to_release = req_release.min(idle_ready as u32);
        if cooling(self.last_release, self.cfg.release_cooldown, t) {
            to_release = 0;
        }
        if workload_done {
            to_release = idle_ready as u32;
        }
        let mut released = 0u32;
        if to_release > 0 {
            let mut keep = Vec::with_capacity(self.agents.len());
            let slots = std::mem::take(&mut self.agents);
            for mut agent in slots {
                if agent.returnable(t, self.cfg.idle_return_after) && released < to_release {
                    agent.kubelet.shutdown(&w.k8s.api);
                    self.retire(w, &agent, t);
                    self.send_home(agent.wlm_id.expect("dynamic agent"), t);
                    released += 1;
                    self.releases += 1;
                } else {
                    keep.push(agent);
                }
            }
            self.agents = keep;
            if released > 0 {
                self.last_release = Some(t);
            }
            let context = [(sym!("idle_ready"), idle_ready.into())];
            self.decide(w, t, DecisionKind::Release, to_release, released, context);
        }

        workload_done && self.dynamic_agents() == 0 && self.returning.is_empty()
    }
}

/// Whether an actuation at `t` falls inside the cooldown after `last`.
fn cooling(last: Option<SimTime>, cooldown: SimSpan, t: SimTime) -> bool {
    last.is_some_and(|last| t.since(last) < cooldown)
}

/// `num / den`, or zero when there was nothing to divide over.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank percentile of sorted spans.
fn percentile(sorted: &[SimSpan], q: f64) -> Option<SimSpan> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Run one controller configuration over one workload trace: every tick
/// admits the arrivals due by then, then steps the controller. A trace that
/// outlasts the ticks still arrives in full, after the last of them.
pub fn run(spec: RunSpec<'_>) -> AdaptOutcome {
    let (wl, cfg) = (spec.workload, spec.config);
    let (mut ctl, mut w) = Controller::start(spec);
    let done_at = w.drive(cfg.tick, cfg.horizon, |w, t| {
        ctl.admit(w, wl, t);
        ctl.step(w, t)
    });
    ctl.admit(&mut w, wl, SimTime(u64::MAX));
    ctl.finish(w, wl, done_at)
}

impl Controller {
    /// The world at t=0 — partition, control plane, static carve-out — and
    /// the controller beside it, nothing of the trace admitted yet.
    fn start(spec: RunSpec<'_>) -> (Controller, World) {
        let cfg = spec.config;
        let w = World::new(
            spec.scenario,
            &spec.tracer,
            spec.cri,
            cfg.node_spec,
            cfg.wlm_nodes,
        );
        w.tracer.attr(w.span, sym!("policy"), spec.policy.name());

        // Static carve-out: permanent kubelets on a dedicated control plane,
        // booted in parallel before the t=0 workload (fresh clocks).
        let names = (0..cfg.static_agents).map(|i| format!("{}{i}", cfg.static_agent_prefix));
        let agents = w
            .boot_fleet(names, KubeletMode::Rootful)
            .into_iter()
            .map(|kubelet| AgentSlot {
                wlm_id: None,
                kubelet,
                since: SimTime::ZERO,
                idle_since: None,
            })
            .collect();

        let (jobs, pods) = (&spec.workload.jobs, &spec.workload.pods);
        let times = jobs.iter().map(|j| j.1).chain(pods.iter().map(|p| p.1));
        let mut due: Vec<(SimTime, usize)> = times.zip(0..).collect();
        due.sort_unstable();
        let ctl = Controller {
            policy: spec.policy,
            faults: spec.faults,
            domains: spec.domains,
            agents,
            provisioning: Vec::new(),
            returning: Vec::new(),
            phases: BTreeMap::new(),
            total_pods: pods.len(),
            due: due.into_iter().peekable(),
            last_grow: None,
            last_release: None,
            reprovisions: 0,
            flaps: 0,
            releases: 0,
            abandoned: 0,
            decisions: Vec::new(),
            pod_core_seconds: 0.0,
            agent_capacity_core_seconds: 0.0,
            cfg,
        };
        (ctl, w)
    }

    /// Close the books on a run of `wl` that settled at `done_at` (`None`:
    /// the horizon stopped it) and read the outcome off the final state.
    fn finish(
        mut self,
        mut w: World,
        wl: &TimedWorkload,
        done_at: Option<SimTime>,
    ) -> AdaptOutcome {
        let cfg = self.cfg;
        // Account anything still out when the run stops.
        let final_t = done_at.unwrap_or(SimTime::ZERO + cfg.horizon);
        for agent in std::mem::take(&mut self.agents) {
            self.retire(&mut w, &agent, final_t);
        }

        let capacity = cfg.capacity_cores();
        let stats = w.finish(done_at, cfg.horizon, capacity);

        // Arrival→running latency of every pod that got to run.
        let arrivals: BTreeMap<&str, SimTime> =
            (wl.pods.iter().map(|(pod, at)| (pod.name.as_str(), *at))).collect();
        let mut latencies: Vec<SimSpan> = (stats.pod_starts.iter())
            .map(|(name, started)| started.since(arrivals[name.as_str()]))
            .collect();
        latencies.sort();
        let slo_violations =
            latencies.iter().filter(|l| **l > cfg.slo_pod_start).count() + stats.pods_failed;

        let wlm_core_seconds = w.slurm.ledger().total_core_seconds(Some(UsageSource::Wlm));
        let work_secs = stats.work_makespan.as_secs_f64();
        let wlm_capacity = cfg.wlm_nodes as u64 * cfg.node_spec.cores as u64;

        AdaptOutcome {
            policy: self.policy.name().to_string(),
            makespan: stats.makespan,
            work_makespan: stats.work_makespan,
            first_pod_start: stats.first_pod_start,
            mean_pod_start: stats.mean_pod_start,
            p50_pod_start: percentile(&latencies, 0.50),
            p95_pod_start: percentile(&latencies, 0.95),
            utilization: stats.utilization,
            combined_utilization: ratio(
                wlm_core_seconds + self.pod_core_seconds,
                capacity as f64 * work_secs,
            ),
            wlm_utilization: ratio(wlm_core_seconds, wlm_capacity as f64 * work_secs),
            k8s_utilization: ratio(self.pod_core_seconds, self.agent_capacity_core_seconds),
            accounting_coverage: stats.accounting_coverage,
            pods_succeeded: stats.pods_succeeded,
            pods_failed: stats.pods_failed,
            jobs_completed: stats.jobs_completed,
            reprovisions: self.reprovisions,
            flaps: self.flaps,
            releases: self.releases,
            abandoned: self.abandoned,
            slo_violations,
            decisions: self.decisions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{QueueThresholdPolicy, StaticPolicy};
    use crate::presets;
    use crate::traces::{generate, TimedWorkload, TraceConfig, TraceShape};
    use hpcc_sim::des::Engine;
    use hpcc_sim::FaultRule;
    use hpcc_wlm::types::JobRequest;
    use proptest::prelude::*;

    /// The event-driven driver [`run`] replaced, kept as its
    /// executable specification: every arrival is an event at its trace
    /// time (jobs scheduled before pods, so `(at, id)` order puts a job
    /// ahead of a pod of the same instant and both ahead of that instant's
    /// tick), the tick reschedules itself until the run settles or the next
    /// one would reach the horizon, and the queue drains to the end — so
    /// arrivals later than the last tick still land. It reads `due` only
    /// as the count of arrivals pending, never for their order. (It always
    /// runs the tick at t=0; `World::drive` runs none under a zero horizon.)
    fn run_on_des(spec: RunSpec<'_>) -> AdaptOutcome {
        struct Des {
            c: Controller,
            w: World,
            done_at: Option<SimTime>,
        }
        fn tick_event(eng: &mut Engine<Des>, d: &mut Des) {
            let t = eng.now();
            if d.c.step(&mut d.w, t) {
                d.done_at = Some(t);
                return;
            }
            if (t + d.c.cfg.tick).since(SimTime::ZERO) < d.c.cfg.horizon {
                eng.after(d.c.cfg.tick, tick_event);
            }
        }
        let (workload, cfg) = (spec.workload, spec.config);
        let (c, w) = Controller::start(spec);
        let arrivals_pending = c.due.len();
        let mut d = Des {
            c,
            w,
            done_at: None,
        };

        // Arrivals as events; the self-rescheduling tick drives the loop.
        let mut eng = Engine::<Des>::new();
        for (job, at) in workload.jobs.iter().cloned() {
            eng.at(at, move |e, d: &mut Des| {
                d.c.due.next(); // counts what is pending; the order here is the engine's
                d.w.submit(job, e.now());
            });
        }
        for (pod, at) in workload.pods.iter().cloned() {
            eng.at(at, move |_, d: &mut Des| {
                d.c.due.next(); // counts what is pending; the order here is the engine's
                d.w.k8s.api.create_pod(pod).unwrap();
            });
        }
        eng.at(SimTime::ZERO, tick_event);
        let max_events = cfg.horizon.0 / cfg.tick.0.max(1) + arrivals_pending as u64 + 16;
        eng.run_to_completion(&mut d, max_events);
        d.c.finish(d.w, workload, d.done_at)
    }

    /// A trace from `(runtime s, arrival ms)` jobs and `(duration s, cores,
    /// arrival ms)` pods, in the order given.
    fn trace_of(jobs: &[(u64, u64)], pods: &[(u64, u64, u64)]) -> TimedWorkload {
        let at = |ms: u64| SimTime::ZERO + SimSpan::millis(ms);
        let job = |(i, &(secs, ms)): (usize, &(u64, u64))| {
            let nodes = 1 + i as u32 % 2;
            let req = JobRequest::batch(&format!("job-{i}"), 1000, nodes, SimSpan::secs(secs));
            (req, at(ms))
        };
        let pod = |(i, &(secs, cores, ms)): (usize, &(u64, u64, u64))| {
            let mut pod = PodSpec::simple(&format!("pod-{i}"), "a/b:v1", SimSpan::secs(secs));
            pod.resources.cpu_millis = cores * 1000;
            (pod, at(ms))
        };
        TimedWorkload {
            jobs: jobs.iter().enumerate().map(job).collect(),
            pods: pods.iter().enumerate().map(pod).collect(),
        }
    }

    /// `run` and `run_on_des` over `wl` under each of the three presets on
    /// eight nodes; returns the (identical) outcomes in preset order.
    fn on_both_drivers(
        wl: &TimedWorkload,
        tick: SimSpan,
        horizon: SimSpan,
        flaps: Option<u64>,
    ) -> Vec<AdaptOutcome> {
        let on_preset = |i: usize| {
            let spec = || {
                let (policy, mut config) = match i {
                    0 => presets::static_partition(8),
                    1 => presets::on_demand_reallocation(8),
                    _ => presets::ewma_forecast(8, SimSpan::secs(300), 2),
                };
                (config.tick, config.horizon) = (tick, horizon);
                RunSpec {
                    workload: wl,
                    policy,
                    config,
                    cri: Arc::new(FixedCri(SimSpan::millis(1200))),
                    tracer: Tracer::disabled(),
                    faults: flaps.map_or_else(FaultInjector::disabled, |seed| {
                        let rule = FaultRule::background(FaultKind::NodeFlap, 0.3);
                        Arc::new(FaultInjector::new(seed, vec![rule]))
                    }),
                    domains: None,
                    scenario: "test",
                }
            };
            let stepped = run(spec());
            assert_eq!(stepped, run_on_des(spec()), "preset {i} over {wl:?}");
            stepped
        };
        (0..3).map(on_preset).collect()
    }

    /// Arrival instants in ms: t=0, on a 1 s and a 3 s tick, on a coarse
    /// grid (so a job and a pod often share one), anywhere in the first two
    /// minutes, late enough that what came before has drained, and at
    /// 700 s and after — the horizon and past it for a 700 s run.
    fn arrival_ms() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            (0u64..40).prop_map(|k| k * 3000),
            (0u64..20).prop_map(|k| k * 500),
            0u64..120_000,
            400_000u64..900_000,
            Just(700_000u64),
            700_001u64..790_000,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any trace — arrival vectors unsorted, instants shared, on and
        /// between ticks, after the drain, on and past the horizon — under
        /// any preset: the fixed-step driver is the event-driven one.
        #[test]
        fn run_matches_the_event_driven_driver(
            jobs in collection::vec((20u64..240, arrival_ms()), 0..6),
            pods in collection::vec((10u64..120, 2u64..17, arrival_ms()), 0..10),
            tick_ms in prop_oneof![Just(1000u64), Just(3000u64)],
            horizon_s in prop_oneof![Just(700u64), Just(2000u64)],
            flaps in prop_oneof![Just(None), (1u64..100).prop_map(Some)],
        ) {
            let wl = trace_of(&jobs, &pods);
            on_both_drivers(&wl, SimSpan::millis(tick_ms), SimSpan::secs(horizon_s), flaps);
        }
    }

    /// The same edges, one literal trace each on a 3 s tick under a 900 s
    /// horizon, with what the on-demand preset makes of them: jobs
    /// completed, pods succeeded, makespan in ms.
    #[test]
    fn arrival_edges_match_the_event_driven_driver() {
        type Edge = (
            &'static str,
            &'static [(u64, u64)],
            &'static [(u64, u64, u64)],
            (usize, usize, u64),
        );
        let edges: [Edge; 8] = [
            ("empty trace", &[], &[], (0, 0, 0)),
            (
                "unsorted arrival vectors",
                &[(60, 5000), (30, 0), (45, 2500)],
                &[(20, 4, 4000), (20, 4, 1000), (30, 8, 1000)],
                (3, 3, 279_000),
            ),
            (
                "a job and a pod at one instant, on a tick",
                &[(60, 3000)],
                &[(20, 4, 3000)],
                (1, 1, 270_000),
            ),
            (
                "a job and a pod at one instant, between ticks",
                &[(60, 3500)],
                &[(20, 4, 3500)],
                (1, 1, 273_000),
            ),
            (
                "arrivals after the workload drained and the agents went home",
                &[(30, 0), (30, 450_250)],
                &[(20, 4, 0), (20, 4, 450_000)],
                (2, 2, 717_000),
            ),
            (
                "arrivals on the last tick",
                &[(30, 897_000)],
                &[(20, 4, 897_000)],
                (0, 0, 0),
            ),
            (
                "arrivals on the horizon",
                &[(30, 0), (30, 900_000)],
                &[(20, 4, 0), (20, 4, 900_000)],
                (1, 1, 84_200),
            ),
            (
                "arrivals past the horizon",
                &[(30, 0), (30, 900_001)],
                &[(20, 4, 0), (20, 4, 1_200_000)],
                (1, 1, 84_200),
            ),
        ];
        for (name, jobs, pods, expected) in edges {
            let wl = trace_of(jobs, pods);
            let outcomes = on_both_drivers(&wl, SimSpan::secs(3), SimSpan::secs(900), None);
            let o = &outcomes[1];
            let got = (o.jobs_completed, o.pods_succeeded, o.makespan.0 / 1_000_000);
            assert_eq!(got, expected, "{name}");
        }
    }

    fn small_trace(seed: u64) -> TimedWorkload {
        generate(&TraceConfig {
            seed,
            shape: TraceShape::Bursty {
                bursts: 2,
                pods_per_burst: 4,
                spacing: SimSpan::secs(900),
                first_at: SimSpan::secs(60),
            },
            duration: SimSpan::secs(3600),
            nodes: 8,
            n_jobs: 3,
            n_pods: 8,
            job_window: SimSpan::secs(1200),
        })
    }

    fn run_with(
        policy: Box<dyn PartitionPolicy>,
        cfg: ControllerConfig,
        wl: &TimedWorkload,
        faults: Arc<FaultInjector>,
    ) -> AdaptOutcome {
        run_with_domains(policy, cfg, wl, faults, None)
    }

    fn run_with_domains(
        policy: Box<dyn PartitionPolicy>,
        cfg: ControllerConfig,
        wl: &TimedWorkload,
        faults: Arc<FaultInjector>,
        domains: Option<Arc<DomainSchedule>>,
    ) -> AdaptOutcome {
        run(RunSpec {
            workload: wl,
            policy,
            config: cfg,
            cri: Arc::new(FixedCri(SimSpan::secs(2))),
            tracer: Tracer::disabled(),
            faults,
            domains,
            scenario: "test",
        })
    }

    #[test]
    fn queue_threshold_completes_and_returns_every_node() {
        let wl = small_trace(5);
        let out = run_with(
            Box::new(QueueThresholdPolicy::default()),
            ControllerConfig::new(8, 0),
            &wl,
            FaultInjector::disabled(),
        );
        assert_eq!(out.pods_succeeded, wl.pods.len());
        assert_eq!(out.pods_failed, 0);
        assert_eq!(out.jobs_completed, wl.jobs.len());
        assert!(out.reprovisions > 0, "bursts must trigger reprovisions");
        assert_eq!(
            out.releases + out.abandoned,
            out.reprovisions - out.flaps,
            "every provisioned agent must go home"
        );
        assert!(out.makespan > SimSpan::ZERO);
    }

    #[test]
    fn static_policy_with_carveout_never_reprovisions() {
        let wl = small_trace(5);
        let mut cfg = ControllerConfig::new(4, 4);
        cfg.accounting = AccountingModel::PerPod;
        let out = run_with(Box::new(StaticPolicy), cfg, &wl, FaultInjector::disabled());
        assert_eq!(out.reprovisions, 0);
        assert_eq!(out.releases, 0);
        assert_eq!(out.pods_succeeded, wl.pods.len());
        assert!(out.decisions.is_empty(), "static policy never actuates");
        assert!(out.accounting_coverage < 1.0, "pod usage leaks external");
    }

    #[test]
    fn runs_are_deterministic_including_decisions() {
        let wl = small_trace(9);
        let mk = || {
            run_with(
                Box::new(QueueThresholdPolicy::default()),
                ControllerConfig::new(8, 0),
                &wl,
                Arc::new(FaultInjector::new(
                    7,
                    vec![FaultRule::background(FaultKind::NodeFlap, 0.3)],
                )),
            )
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn node_flaps_delay_but_do_not_break_reprovisioning() {
        let wl = small_trace(5);
        let calm = run_with(
            Box::new(QueueThresholdPolicy::default()),
            ControllerConfig::new(8, 0),
            &wl,
            FaultInjector::disabled(),
        );
        let flappy = run_with(
            Box::new(QueueThresholdPolicy::default()),
            ControllerConfig::new(8, 0),
            &wl,
            Arc::new(FaultInjector::new(
                11,
                vec![FaultRule::background(FaultKind::NodeFlap, 0.5)],
            )),
        );
        assert!(flappy.flaps > 0, "injector must fire");
        assert_eq!(flappy.pods_succeeded, wl.pods.len(), "flaps are survivable");
        assert_eq!(flappy.jobs_completed, wl.jobs.len());
        assert!(
            flappy.reprovisions >= calm.reprovisions,
            "retries cost extra reprovisions"
        );
    }

    #[test]
    fn reprovision_budget_caps_partition_movement() {
        let wl = small_trace(5);
        let mut cfg = ControllerConfig::new(8, 0);
        cfg.reprovision_budget = Some(1);
        let out = run_with(
            Box::new(QueueThresholdPolicy::default()),
            cfg,
            &wl,
            FaultInjector::disabled(),
        );
        assert!(
            out.reprovisions <= 1,
            "budget violated: {}",
            out.reprovisions
        );
        // The cost of the cap is stranded demand: once the lone agent is
        // released, the later burst has nobody to run on.
        assert!(
            out.pods_succeeded < wl.pods.len(),
            "exhausted budget should strand the second burst"
        );
        assert!(out.pods_succeeded > 0, "the first burst still runs");
    }

    #[test]
    fn grow_cooldown_spaces_actuations() {
        let wl = small_trace(5);
        let mut cfg = ControllerConfig::new(8, 0);
        cfg.grow_cooldown = SimSpan::secs(300);
        let damped = run_with(
            Box::new(QueueThresholdPolicy::default()),
            cfg,
            &wl,
            FaultInjector::disabled(),
        );
        let grows: Vec<SimTime> = damped
            .decisions
            .iter()
            .filter(|d| d.kind == DecisionKind::Grow && d.applied > 0)
            .map(|d| d.at)
            .collect();
        for pair in grows.windows(2) {
            assert!(
                pair[1].since(pair[0]) >= SimSpan::secs(300),
                "grow actuations {:?} closer than the cooldown",
                pair
            );
        }
        assert_eq!(damped.pods_succeeded, wl.pods.len());
    }

    #[test]
    fn decision_spans_reach_the_tracer() {
        let wl = small_trace(5);
        let tracer = Tracer::new();
        run(RunSpec {
            workload: &wl,
            policy: Box::new(QueueThresholdPolicy::default()),
            config: ControllerConfig::new(8, 0),
            cri: Arc::new(FixedCri(SimSpan::secs(2))),
            tracer: Arc::clone(&tracer),
            faults: FaultInjector::disabled(),
            domains: None,
            scenario: "test",
        });
        let spans = tracer.finished();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"adapt.decision"));
        assert!(names.contains(&"adapt.reprovision"));
        assert!(names.contains(&"adapt.return"));
        let errs = hpcc_sim::obs::check_invariants(&spans);
        assert!(errs.is_empty(), "{}", errs.join("\n"));
    }

    #[test]
    fn controller_never_provisions_into_a_dead_rack() {
        use hpcc_sim::{DomainTopology, OutageEvent, OutageKind};
        let wl = small_trace(5);
        // 8 movable nodes in two racks of 4; rack 0 loses power for the
        // whole run.
        let topo = DomainTopology::new(8, 4, 2);
        let schedule = Arc::new(DomainSchedule::new(
            topo,
            vec![OutageEvent {
                kind: OutageKind::RackPower { rack: 0 },
                from: SimTime::ZERO,
                until: SimTime::ZERO + SimSpan::secs(24 * 3600),
            }],
        ));
        let tracer = Tracer::new();
        let out = run(RunSpec {
            workload: &wl,
            policy: Box::new(QueueThresholdPolicy::default()),
            config: ControllerConfig::new(8, 0),
            cri: Arc::new(FixedCri(SimSpan::secs(2))),
            tracer: Arc::clone(&tracer),
            faults: FaultInjector::disabled(),
            domains: Some(schedule),
            scenario: "test",
        });
        // The workload still lands — on the surviving rack only.
        assert_eq!(out.pods_succeeded, wl.pods.len());
        assert!(out.reprovisions > 0, "healthy rack must absorb the burst");
        let spans = tracer.finished();
        let mut skipped = false;
        for s in &spans {
            match s.name.as_str() {
                // Fresh Slurm: node ids are 0..8 in node_ids order, so the
                // trace attribute is the domain index directly.
                "adapt.reprovision" => {
                    let node: u64 = s
                        .attrs
                        .iter()
                        .find(|(k, _)| k.as_str() == "node")
                        .map(|(_, v)| match v {
                            AttrValue::U64(n) => *n,
                            v => panic!("node attribute {v:?} is not a number"),
                        })
                        .unwrap();
                    assert!(node >= 4, "provisioned node {node} sits in the dead rack");
                }
                "adapt.domain_skip" => skipped = true,
                _ => {}
            }
        }
        assert!(skipped, "the dead rack must have been skipped over");
    }
}
