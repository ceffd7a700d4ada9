//! Q10 (§7 outlook): Dragonfly-style peer-to-peer image distribution vs
//! everyone pulling from the shared filesystem.

use hpcc_sim::net::{Fabric, NodeId};
use hpcc_sim::{Bytes, FaultInjector, SimTime, Tracer};
use hpcc_storage::p2p::{broadcast_p2p, broadcast_via_shared_fs, ideal_p2p_rounds};
use hpcc_storage::shared_fs::SharedFs;
use std::io::{self, Write};

pub(crate) fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Q10 — image broadcast to an allocation: shared FS vs P2P swarm (§7 Dragonfly)\n"
    )?;
    let image = Bytes::gib(2);
    writeln!(
        out,
        "image: {image}; 4 seed nodes pull from shared storage, then the swarm spreads\n"
    )?;
    writeln!(
        out,
        "{:>7} {:>14} {:>14} {:>9} {:>16} {:>10}",
        "nodes", "shared-fs", "p2p swarm", "speedup", "FS bytes saved", "rounds"
    )?;
    for nodes in [8usize, 32, 128, 512, 2048] {
        let shared_a = SharedFs::with_defaults();
        let base = broadcast_via_shared_fs(&shared_a, image, nodes, SimTime::ZERO);

        let ids: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
        let shared_b = SharedFs::with_defaults();
        let fabric = Fabric::with_defaults(ids.iter().copied());
        let p2p = broadcast_p2p(
            &shared_b,
            &fabric,
            image,
            &ids,
            4,
            SimTime::ZERO,
            &FaultInjector::disabled(),
            &Tracer::disabled(),
        );

        let a = base.all_done.since(SimTime::ZERO).as_secs_f64();
        let b = p2p.all_done.since(SimTime::ZERO).as_secs_f64();
        writeln!(
            out,
            "{:>7} {:>12.2}s {:>12.2}s {:>8.1}x {:>16} {:>10}",
            nodes,
            a,
            b,
            a / b,
            base.shared_fs_bytes
                .saturating_sub(p2p.shared_fs_bytes)
                .to_string(),
            ideal_p2p_rounds(nodes, 4),
        )?;
    }
    writeln!(
        out,
        "\nThe shared filesystem serves 4 image copies regardless of scale;"
    )?;
    writeln!(
        out,
        "the swarm completes in ~log2(N) rounds over the high-speed network."
    )?;
    Ok(())
}
