//! Network fabric model.
//!
//! The Figure 1 proof of concept runs Kubernetes control traffic over a
//! compute cluster's *high-speed network* (Slingshot in the paper) while
//! login/management traffic rides a slower management Ethernet. The model
//! is intentionally coarse: each link class has a fixed per-message latency
//! and a bandwidth; transfers are latency + size/bandwidth, with an optional
//! per-node serialization through a [`QueueServer`] to model NIC contention.

use crate::resource::QueueServer;
use crate::time::{SimSpan, SimTime};
use crate::units::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The two link classes of a typical HPC system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkClass {
    /// Management / provisioning Ethernet: high latency, modest bandwidth.
    Management,
    /// High-speed interconnect (Slingshot/InfiniBand class).
    HighSpeed,
}

/// Latency/bandwidth parameters of one link class.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkParams {
    pub latency: SimSpan,
    pub bandwidth_bytes_per_sec: f64,
}

/// Identifier of a node endpoint on the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// A cluster fabric: a set of nodes reachable over both link classes, with
/// per-node NIC serialization.
#[derive(Debug)]
pub struct Fabric {
    params: HashMap<LinkClass, LinkParams>,
    nics: HashMap<NodeId, QueueServer>,
}

impl Fabric {
    /// A fabric with typical defaults: 50 µs / 1 GiB/s management Ethernet,
    /// 2 µs / 25 GiB/s high-speed network.
    pub fn with_defaults(nodes: impl IntoIterator<Item = NodeId>) -> Fabric {
        let mut params = HashMap::new();
        params.insert(
            LinkClass::Management,
            LinkParams {
                latency: SimSpan::micros(50),
                bandwidth_bytes_per_sec: 1.0 * (1u64 << 30) as f64,
            },
        );
        params.insert(
            LinkClass::HighSpeed,
            LinkParams {
                latency: SimSpan::micros(2),
                bandwidth_bytes_per_sec: 25.0 * (1u64 << 30) as f64,
            },
        );
        Fabric {
            params,
            nics: nodes
                .into_iter()
                .map(|n| (n, QueueServer::new(1)))
                .collect(),
        }
    }

    /// Parameters of a link class.
    pub fn params(&self, class: LinkClass) -> LinkParams {
        self.params[&class]
    }

    /// Send `size` bytes from `from` to `to` over `class`, the message
    /// leaving at `at`. Returns the delivery time. The sender's NIC
    /// serializes its outgoing transfers.
    pub fn send(
        &self,
        from: NodeId,
        to: NodeId,
        class: LinkClass,
        size: Bytes,
        at: SimTime,
    ) -> Result<SimTime, NetError> {
        if !self.nics.contains_key(&from) {
            return Err(NetError::UnknownNode(from));
        }
        if !self.nics.contains_key(&to) {
            return Err(NetError::UnknownNode(to));
        }
        let p = self.params[&class];
        // NIC occupies for the bandwidth term; latency overlaps in flight.
        let wire = SimSpan::from_secs_f64(size.as_u64() as f64 / p.bandwidth_bytes_per_sec);
        let (_, sent) = self.nics[&from].submit(at, wire);
        Ok(sent + p.latency)
    }
}

/// Errors from fabric operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    UnknownNode(NodeId),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "node {} is not on the fabric", n.0),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> Fabric {
        Fabric::with_defaults((0..4).map(NodeId))
    }

    #[test]
    fn highspeed_beats_management() {
        let f = fabric();
        let size = Bytes::mib(64);
        let hs = f
            .send(
                NodeId(0),
                NodeId(1),
                LinkClass::HighSpeed,
                size,
                SimTime::ZERO,
            )
            .unwrap();
        let f2 = fabric();
        let mgmt = f2
            .send(
                NodeId(0),
                NodeId(1),
                LinkClass::Management,
                size,
                SimTime::ZERO,
            )
            .unwrap();
        assert!(hs < mgmt, "HSN {hs:?} should beat mgmt {mgmt:?}");
        // Roughly the 25x bandwidth ratio for a large transfer.
        let ratio = mgmt.since(SimTime::ZERO).as_secs_f64() / hs.since(SimTime::ZERO).as_secs_f64();
        assert!(ratio > 15.0, "ratio {ratio}");
    }

    #[test]
    fn latency_dominates_small_messages() {
        let f = fabric();
        let t = f
            .send(
                NodeId(0),
                NodeId(1),
                LinkClass::Management,
                Bytes::new(64),
                SimTime::ZERO,
            )
            .unwrap();
        let span = t.since(SimTime::ZERO);
        assert!(span >= SimSpan::micros(50));
        assert!(span < SimSpan::micros(51));
    }

    #[test]
    fn sender_nic_serializes() {
        let f = fabric();
        let size = Bytes::gib(1);
        let t1 = f
            .send(
                NodeId(0),
                NodeId(1),
                LinkClass::HighSpeed,
                size,
                SimTime::ZERO,
            )
            .unwrap();
        let t2 = f
            .send(
                NodeId(0),
                NodeId(2),
                LinkClass::HighSpeed,
                size,
                SimTime::ZERO,
            )
            .unwrap();
        assert!(t2 > t1, "second transfer from the same NIC queues");
    }

    #[test]
    fn different_senders_do_not_contend() {
        let f = fabric();
        let size = Bytes::gib(1);
        let t1 = f
            .send(
                NodeId(0),
                NodeId(2),
                LinkClass::HighSpeed,
                size,
                SimTime::ZERO,
            )
            .unwrap();
        let t2 = f
            .send(
                NodeId(1),
                NodeId(2),
                LinkClass::HighSpeed,
                size,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn unknown_node_is_an_error() {
        let f = fabric();
        let err = f
            .send(
                NodeId(0),
                NodeId(99),
                LinkClass::HighSpeed,
                Bytes::new(1),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, NetError::UnknownNode(NodeId(99)));
    }
}
