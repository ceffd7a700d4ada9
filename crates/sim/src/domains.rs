//! Correlated failure domains: node → rack → row → site topology plus a
//! seeded, timed outage schedule every fleet-scale workload can run under.
//!
//! PR 1's [`FaultInjector`](crate::FaultInjector) injects *independent*
//! per-operation faults. Real incidents are correlated: a rack loses
//! power and sixteen nodes vanish together; a row switch partitions every
//! rack below it from the origin registry while the rack/row caches keep
//! answering (split-brain); the origin registry itself saturates and
//! starts shedding. This module models those domain-scoped events:
//!
//! * [`DomainTopology`] — the containment hierarchy (node → rack → row →
//!   site) plus the named network links (`rack<r>.uplink`,
//!   `row<w>.uplink`, `site.origin-uplink`) an outage can sever.
//! * [`OutageKind`] / [`OutageEvent`] — what fails and over which time
//!   window; every event carries its own *timed recovery* (`until`).
//! * [`DomainSchedule`] — an ordered event list with point-in-time
//!   queries (`node_down`, `partitioned_from_origin`,
//!   `origin_overloaded`, `heal_time`) and a seeded game-day generator,
//!   so a chaos run is a pure function of (topology, seed).
//! * [`DomainHealth`] — the controller-facing snapshot `hpcc-adapt`
//!   consumes as a demand signal: how many nodes are dead or partitioned
//!   right now, so a policy stops provisioning into a dead rack.
//!
//! The schedule can also be lowered onto a [`FaultInjector`](crate::FaultInjector) rule set via
//! [`DomainSchedule::fault_rules`], so per-operation layers (retry loops,
//! brownout models) see the same windows the domain queries report.

use crate::faults::{FaultKind, FaultRule};
use crate::rng::DetRng;
use crate::time::{SimSpan, SimTime};

/// The containment hierarchy of one site: `nodes` leaf nodes grouped
/// into racks of `rack_size`, racks grouped into rows of
/// `racks_per_row`. Node ids are dense `0..nodes`, matching the node
/// indexing used by the tiered registry and the P2P fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainTopology {
    /// Total leaf nodes at the site.
    pub nodes: usize,
    /// Nodes per rack (the blast radius of a rack power event).
    pub rack_size: usize,
    /// Racks per row (the blast radius of a row switch partition).
    pub racks_per_row: usize,
}

impl DomainTopology {
    /// A topology with explicit group sizes.
    pub fn new(nodes: usize, rack_size: usize, racks_per_row: usize) -> DomainTopology {
        DomainTopology {
            nodes,
            rack_size: rack_size.max(1),
            racks_per_row: racks_per_row.max(1),
        }
    }

    /// The default shape, aligned with the tiered registry's grouping:
    /// 16-node racks, 16 racks per row.
    pub fn default_for(nodes: usize) -> DomainTopology {
        DomainTopology::new(nodes, 16, 16)
    }

    /// Rack index of a node.
    pub fn rack_of(&self, node: usize) -> usize {
        node / self.rack_size
    }

    /// Row index of a node.
    pub fn row_of(&self, node: usize) -> usize {
        self.rack_of(node) / self.racks_per_row
    }

    /// Number of racks (last one may be partial).
    pub fn racks(&self) -> usize {
        self.nodes.div_ceil(self.rack_size)
    }

    /// Number of rows (last one may be partial).
    pub fn rows(&self) -> usize {
        self.racks().div_ceil(self.racks_per_row)
    }

    /// The dense node-id range of one rack, clamped to the fleet.
    pub fn rack_nodes(&self, rack: usize) -> std::ops::Range<usize> {
        let lo = rack * self.rack_size;
        lo.min(self.nodes)..((rack + 1) * self.rack_size).min(self.nodes)
    }

    /// The dense node-id range of one row, clamped to the fleet.
    pub fn row_nodes(&self, row: usize) -> std::ops::Range<usize> {
        let lo = row * self.racks_per_row * self.rack_size;
        let hi = (row + 1) * self.racks_per_row * self.rack_size;
        lo.min(self.nodes)..hi.min(self.nodes)
    }

    /// Every named network link in the topology: one uplink per rack,
    /// one per row, and the site's origin uplink. Severing a link is
    /// expressed as [`OutageKind::LinkDown`] on one of these names.
    pub fn link_names(&self) -> Vec<String> {
        let mut names: Vec<String> = (0..self.racks())
            .map(|r| format!("rack{r}.uplink"))
            .collect();
        names.extend((0..self.rows()).map(|w| format!("row{w}.uplink")));
        names.push("site.origin-uplink".to_string());
        names
    }
}

/// What a correlated outage strikes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutageKind {
    /// A rack loses power: every node in it is dead for the window
    /// (pulls from those nodes fail, P2P peers on them churn together).
    RackPower { rack: usize },
    /// A row switch partitions: nodes in the row still reach their rack
    /// and row caches (below the cut) but not the site tier or origin —
    /// the split-brain case where stale caches keep answering.
    RowPartition { row: usize },
    /// The origin registry saturates: its admission queue sheds load and
    /// service degrades for everyone until the window ends.
    OriginOverload,
    /// A named network link (see [`DomainTopology::link_names`]) is cut.
    /// `rack<r>.uplink` isolates one rack from everything above it;
    /// `row<w>.uplink` behaves like [`OutageKind::RowPartition`];
    /// `site.origin-uplink` cuts the whole site off the origin.
    LinkDown { link: String },
}

impl OutageKind {
    /// Stable label for metrics and trace lines.
    pub fn label(&self) -> &'static str {
        match self {
            OutageKind::RackPower { .. } => "rack_power",
            OutageKind::RowPartition { .. } => "row_partition",
            OutageKind::OriginOverload => "origin_overload",
            OutageKind::LinkDown { .. } => "link_down",
        }
    }
}

impl std::fmt::Display for OutageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OutageKind::RackPower { rack } => write!(f, "rack_power(rack{rack})"),
            OutageKind::RowPartition { row } => write!(f, "row_partition(row{row})"),
            OutageKind::OriginOverload => f.write_str("origin_overload"),
            OutageKind::LinkDown { link } => write!(f, "link_down({link})"),
        }
    }
}

/// One correlated outage with its timed recovery: active over
/// `[from, until)`, healed at `until`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutageEvent {
    pub kind: OutageKind,
    pub from: SimTime,
    pub until: SimTime,
}

impl OutageEvent {
    /// True while the event is in force.
    pub fn active_at(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }
}

/// The controller-facing health snapshot: what fraction of the fleet a
/// partition policy can actually provision into right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainHealth {
    /// Fleet size the counts are against.
    pub nodes_total: usize,
    /// Nodes dead under an active rack-power (or rack-uplink) event.
    pub nodes_down: usize,
    /// Live nodes cut off from the origin by a partition. They still
    /// serve local work but cannot complete cold pulls.
    pub nodes_partitioned: usize,
    /// True while the origin registry is shedding under overload.
    pub origin_overloaded: bool,
}

impl DomainHealth {
    /// The no-outage snapshot every existing call site defaults to.
    pub fn all_healthy(nodes_total: usize) -> DomainHealth {
        DomainHealth {
            nodes_total,
            nodes_down: 0,
            nodes_partitioned: 0,
            origin_overloaded: false,
        }
    }

    /// Nodes that are neither dead nor partitioned.
    pub fn healthy_nodes(&self) -> usize {
        self.nodes_total
            .saturating_sub(self.nodes_down)
            .saturating_sub(self.nodes_partitioned)
    }

    /// True when nothing is impaired.
    pub fn is_all_healthy(&self) -> bool {
        self.nodes_down == 0 && self.nodes_partitioned == 0 && !self.origin_overloaded
    }
}

/// A topology plus its ordered outage schedule. All queries are pure
/// functions of `(topology, events, now)`, so two runs over the same
/// schedule are bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainSchedule {
    topo: DomainTopology,
    events: Vec<OutageEvent>,
}

impl DomainSchedule {
    /// An empty schedule: every query reports healthy forever.
    pub fn quiet(topo: DomainTopology) -> DomainSchedule {
        DomainSchedule {
            topo,
            events: Vec::new(),
        }
    }

    /// A schedule with an explicit event list.
    pub fn new(topo: DomainTopology, mut events: Vec<OutageEvent>) -> DomainSchedule {
        events.sort_by_key(|e| (e.from, e.until));
        DomainSchedule { topo, events }
    }

    /// A seeded game-day schedule: one rack power loss, one row
    /// partition and one origin overload, placed deterministically from
    /// `seed` inside `[warmup, warmup + 3 * outage)` with staggered,
    /// non-overlapping windows — the standard `bench chaos` storyline.
    pub fn game_day(
        topo: DomainTopology,
        seed: u64,
        warmup: SimSpan,
        outage: SimSpan,
    ) -> DomainSchedule {
        let mut rng = DetRng::seeded(seed ^ 0xd0_d0_0d);
        let rack = rng.uniform(0, topo.racks().max(1) as u64) as usize;
        let row = rng.uniform(0, topo.rows().max(1) as u64) as usize;
        let t0 = SimTime::ZERO + warmup;
        let events = vec![
            OutageEvent {
                kind: OutageKind::RackPower { rack },
                from: t0,
                until: t0 + outage,
            },
            OutageEvent {
                kind: OutageKind::RowPartition { row },
                from: t0 + outage,
                until: t0 + outage + outage,
            },
            OutageEvent {
                kind: OutageKind::OriginOverload,
                from: t0 + outage + outage,
                until: t0 + outage + outage + outage,
            },
        ];
        DomainSchedule::new(topo, events)
    }

    /// The topology the events are scoped to.
    pub fn topology(&self) -> &DomainTopology {
        &self.topo
    }

    /// The ordered event list.
    pub fn events(&self) -> &[OutageEvent] {
        &self.events
    }

    fn active(&self, now: SimTime) -> impl Iterator<Item = &OutageEvent> {
        self.events.iter().filter(move |e| e.active_at(now))
    }

    /// True when `node` is dead at `now` (rack power loss, or its rack
    /// uplink cut — an unreachable node is operationally down).
    pub fn node_down(&self, node: usize, now: SimTime) -> bool {
        let rack = self.topo.rack_of(node);
        self.active(now).any(|e| match &e.kind {
            OutageKind::RackPower { rack: r } => *r == rack,
            OutageKind::LinkDown { link } => link == &format!("rack{rack}.uplink"),
            _ => false,
        })
    }

    /// True when `node` is alive but cut off from the origin/site tier
    /// at `now` (row partition, row uplink or site origin-uplink down).
    pub fn partitioned_from_origin(&self, node: usize, now: SimTime) -> bool {
        let row = self.topo.row_of(node);
        self.active(now).any(|e| match &e.kind {
            OutageKind::RowPartition { row: w } => *w == row,
            OutageKind::LinkDown { link } => {
                link == "site.origin-uplink" || link == &format!("row{row}.uplink")
            }
            _ => false,
        })
    }

    /// True when a row-level cut severs `row` from the site tier at
    /// `now` — the query the tiered registry's recursion gates on.
    pub fn row_partitioned(&self, row: usize, now: SimTime) -> bool {
        self.active(now).any(|e| match &e.kind {
            OutageKind::RowPartition { row: w } => *w == row,
            OutageKind::LinkDown { link } => {
                link == "site.origin-uplink" || link == &format!("row{row}.uplink")
            }
            _ => false,
        })
    }

    /// True while the origin registry is saturated.
    pub fn origin_overloaded(&self, now: SimTime) -> bool {
        self.active(now)
            .any(|e| matches!(e.kind, OutageKind::OriginOverload))
    }

    /// True when the named link is cut at `now`.
    pub fn link_down(&self, link: &str, now: SimTime) -> bool {
        self.active(now)
            .any(|e| matches!(&e.kind, OutageKind::LinkDown { link: l } if l == link))
    }

    /// When every event active at `now` has healed (`None` when nothing
    /// is active). This is the timed-recovery instant a chaos gate
    /// measures recovery-to-baseline from.
    pub fn heal_time(&self, now: SimTime) -> Option<SimTime> {
        self.active(now).map(|e| e.until).max()
    }

    /// The nodes dead under any event active at `now`, dense-sorted.
    /// Feed this to the P2P repair fast path to re-parent around a dead
    /// rack in one sweep instead of one peer at a time.
    pub fn dead_nodes(&self, now: SimTime) -> Vec<usize> {
        let mut dead: Vec<usize> = Vec::new();
        for e in self.active(now) {
            match &e.kind {
                OutageKind::RackPower { rack } => dead.extend(self.topo.rack_nodes(*rack)),
                OutageKind::LinkDown { link } => {
                    if let Some(rest) = link.strip_prefix("rack") {
                        if let Some(r) = rest.strip_suffix(".uplink") {
                            if let Ok(r) = r.parse::<usize>() {
                                dead.extend(self.topo.rack_nodes(r));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        dead.sort_unstable();
        dead.dedup();
        dead
    }

    /// The controller-facing snapshot at `now`.
    pub fn health(&self, now: SimTime) -> DomainHealth {
        let mut down = vec![false; self.topo.nodes];
        for n in self.dead_nodes(now) {
            down[n] = true;
        }
        let nodes_down = down.iter().filter(|d| **d).count();
        let nodes_partitioned = (0..self.topo.nodes)
            .filter(|n| !down[*n] && self.partitioned_from_origin(*n, now))
            .count();
        DomainHealth {
            nodes_total: self.topo.nodes,
            nodes_down,
            nodes_partitioned,
            origin_overloaded: self.origin_overloaded(now),
        }
    }

    /// Lower the schedule onto per-operation fault rules so retry loops
    /// see the same windows: a partition or origin cut surfaces as
    /// sticky registry timeouts, an overload as sticky 5xx, and a rack
    /// power loss as peer churn for the broadcast sweep.
    pub fn fault_rules(&self) -> Vec<FaultRule> {
        self.events
            .iter()
            .map(|e| match &e.kind {
                OutageKind::RackPower { .. } => {
                    FaultRule::sticky(FaultKind::PeerChurn, e.from, e.until)
                }
                OutageKind::RowPartition { .. } | OutageKind::LinkDown { .. } => {
                    FaultRule::sticky(FaultKind::RegistryTimeout, e.from, e.until)
                }
                OutageKind::OriginOverload => {
                    FaultRule::sticky(FaultKind::RegistryUnavailable, e.from, e.until)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimSpan::secs(s)
    }

    #[test]
    fn containment_maps_nodes_to_racks_and_rows() {
        let topo = DomainTopology::new(100, 16, 2);
        assert_eq!(topo.rack_of(0), 0);
        assert_eq!(topo.rack_of(15), 0);
        assert_eq!(topo.rack_of(16), 1);
        assert_eq!(topo.row_of(31), 0);
        assert_eq!(topo.row_of(32), 1);
        assert_eq!(topo.racks(), 7);
        assert_eq!(topo.rows(), 4);
        assert_eq!(topo.rack_nodes(6), 96..100, "last rack is partial");
        assert_eq!(topo.row_nodes(3), 96..100);
        let links = topo.link_names();
        assert!(links.contains(&"rack0.uplink".to_string()));
        assert!(links.contains(&"row3.uplink".to_string()));
        assert!(links.contains(&"site.origin-uplink".to_string()));
        assert_eq!(links.len(), 7 + 4 + 1);
    }

    #[test]
    fn rack_power_kills_exactly_that_rack_for_the_window() {
        let topo = DomainTopology::new(64, 16, 2);
        let sched = DomainSchedule::new(
            topo,
            vec![OutageEvent {
                kind: OutageKind::RackPower { rack: 1 },
                from: t(10),
                until: t(20),
            }],
        );
        assert!(!sched.node_down(16, t(9)), "before the window");
        assert!(sched.node_down(16, t(10)));
        assert!(sched.node_down(31, t(19)));
        assert!(!sched.node_down(32, t(15)), "rack 2 unaffected");
        assert!(!sched.node_down(16, t(20)), "timed recovery");
        assert_eq!(sched.dead_nodes(t(15)), (16..32).collect::<Vec<_>>());
        assert_eq!(sched.heal_time(t(15)), Some(t(20)));
        assert_eq!(sched.heal_time(t(25)), None);
    }

    #[test]
    fn row_partition_splits_brain_but_keeps_nodes_alive() {
        let topo = DomainTopology::new(64, 16, 2);
        let sched = DomainSchedule::new(
            topo,
            vec![OutageEvent {
                kind: OutageKind::RowPartition { row: 0 },
                from: t(5),
                until: t(15),
            }],
        );
        assert!(!sched.node_down(0, t(10)), "partitioned nodes stay alive");
        assert!(sched.partitioned_from_origin(0, t(10)));
        assert!(sched.row_partitioned(0, t(10)));
        assert!(!sched.partitioned_from_origin(32, t(10)), "row 1 fine");
        assert!(!sched.partitioned_from_origin(0, t(15)), "healed");
        let h = sched.health(t(10));
        assert_eq!(h.nodes_down, 0);
        assert_eq!(h.nodes_partitioned, 32);
        assert_eq!(h.healthy_nodes(), 32);
        assert!(!h.is_all_healthy());
    }

    #[test]
    fn link_cuts_map_to_their_blast_radius() {
        let topo = DomainTopology::new(64, 16, 2);
        let sched = DomainSchedule::new(
            topo,
            vec![
                OutageEvent {
                    kind: OutageKind::LinkDown {
                        link: "rack0.uplink".to_string(),
                    },
                    from: t(0),
                    until: t(10),
                },
                OutageEvent {
                    kind: OutageKind::LinkDown {
                        link: "site.origin-uplink".to_string(),
                    },
                    from: t(20),
                    until: t(30),
                },
            ],
        );
        assert!(sched.node_down(3, t(5)), "rack uplink cut isolates rack 0");
        assert!(!sched.node_down(17, t(5)));
        assert!(sched.link_down("rack0.uplink", t(5)));
        assert!(!sched.link_down("rack0.uplink", t(15)));
        // Origin uplink: everyone partitioned, nobody dead.
        assert!(sched.partitioned_from_origin(50, t(25)));
        assert!(!sched.node_down(50, t(25)));
        assert_eq!(sched.dead_nodes(t(5)), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn origin_overload_is_global_and_timed() {
        let topo = DomainTopology::default_for(256);
        let sched = DomainSchedule::new(
            topo,
            vec![OutageEvent {
                kind: OutageKind::OriginOverload,
                from: t(100),
                until: t(160),
            }],
        );
        assert!(!sched.origin_overloaded(t(99)));
        assert!(sched.origin_overloaded(t(100)));
        assert!(sched.health(t(120)).origin_overloaded);
        assert!(!sched.origin_overloaded(t(160)));
        assert!(sched.health(t(200)).is_all_healthy());
    }

    #[test]
    fn game_day_is_deterministic_and_staggered() {
        let topo = DomainTopology::default_for(1024);
        let a = DomainSchedule::game_day(topo, 42, SimSpan::secs(10), SimSpan::secs(30));
        let b = DomainSchedule::game_day(topo, 42, SimSpan::secs(10), SimSpan::secs(30));
        assert_eq!(a, b, "same seed, same schedule");
        let c = DomainSchedule::game_day(topo, 43, SimSpan::secs(10), SimSpan::secs(30));
        assert_eq!(c.events().len(), 3);
        // Windows are disjoint and ordered.
        for w in a.events().windows(2) {
            assert!(w[0].until <= w[1].from);
        }
        // Struck domains are inside the topology.
        for e in a.events() {
            match &e.kind {
                OutageKind::RackPower { rack } => assert!(*rack < topo.racks()),
                OutageKind::RowPartition { row } => assert!(*row < topo.rows()),
                _ => {}
            }
        }
    }

    #[test]
    fn fault_rules_mirror_the_event_windows() {
        let topo = DomainTopology::default_for(64);
        let sched = DomainSchedule::game_day(topo, 7, SimSpan::secs(5), SimSpan::secs(10));
        let rules = sched.fault_rules();
        assert_eq!(rules.len(), 3);
        let kinds: Vec<FaultKind> = rules.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&FaultKind::PeerChurn));
        assert!(kinds.contains(&FaultKind::RegistryTimeout));
        assert!(kinds.contains(&FaultKind::RegistryUnavailable));
        for (rule, event) in rules.iter().zip(sched.events()) {
            assert_eq!(rule.from, event.from);
            assert_eq!(rule.until, event.until);
            assert!(rule.probability >= 1.0, "domain outages are sticky");
        }
    }
}
