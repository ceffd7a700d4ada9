//! Q2 (§3.2/§4.1.4): cold-starting a many-small-files image from the
//! shared filesystem vs staging one squash image, as node count grows.
//!
//! Paper claim: many small files "put strain on the cluster filesystem,
//! slowing down startup"; single-file images trade CPU (decompression)
//! for IO and win at scale.

use hpcc_codec::compress::Codec;
use hpcc_sim::{Bytes, SimTime};
use hpcc_storage::local::{stage_image_to_nodes, NodeLocalDisk};
use hpcc_storage::shared_fs::SharedFs;
use hpcc_vfs::fs::MemFs;
use hpcc_vfs::path::VPath;
use hpcc_vfs::squash::SquashImage;
use std::io::{self, Write};
use std::sync::Arc;

fn python_like_tree(files: usize) -> MemFs {
    let mut fs = MemFs::new();
    for i in 0..files {
        let body = format!("import os\n# module {i}\n").repeat(30).into_bytes();
        fs.write_p(
            &VPath::parse(&format!("/site-packages/pkg{}/m{i}.py", i % 41)),
            body,
        )
        .unwrap();
    }
    fs
}

pub(crate) fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Q2 — container cold start: 10k small files on shared FS vs one squash image\n"
    )?;
    let files = 10_000;
    let tree = python_like_tree(files);
    let image = SquashImage::build(&tree, &VPath::root(), Codec::Lz).unwrap();
    writeln!(
        out,
        "tree: {files} files, {} logical; image: {} ({}x compression)\n",
        Bytes::new(tree.total_file_bytes(&VPath::root())),
        Bytes::new(image.len_bytes()),
        tree.total_file_bytes(&VPath::root()) / image.len_bytes().max(1)
    )?;

    writeln!(
        out,
        "{:>6} {:>16} {:>16} {:>9}",
        "nodes", "small-files", "squash-staged", "speedup"
    )?;
    for nodes in [1u32, 4, 16, 64, 256] {
        // Small files: every node opens+reads every file from shared FS.
        let shared = SharedFs::with_defaults();
        shared
            .populate(|fs| {
                for p in tree.walk(&VPath::root()).unwrap() {
                    if let Ok(data) = tree.read(&p) {
                        fs.write_p(&p, data.as_ref().clone())?;
                    } else {
                        fs.mkdir_p(&p)?;
                    }
                }
                Ok(())
            })
            .unwrap();
        let mut small_done = SimTime::ZERO;
        let paths: Vec<VPath> = tree
            .walk(&VPath::root())
            .unwrap()
            .into_iter()
            .filter(|p| tree.read(p).is_ok())
            .collect();
        for _node in 0..nodes {
            // Each node reads sequentially; nodes contend on the MDS.
            let mut t = SimTime::ZERO;
            for p in &paths {
                let (_, done) = shared.read_file(p, t).unwrap();
                t = done;
            }
            small_done = small_done.max(t);
        }

        // Squash: stage the image once per node, then local reads.
        let shared2 = SharedFs::with_defaults();
        let disks: Vec<Arc<NodeLocalDisk>> =
            (0..nodes).map(|_| Arc::new(NodeLocalDisk::new())).collect();
        let report = stage_image_to_nodes(&shared2, &image, &disks, SimTime::ZERO).unwrap();
        let squash_done = report.all_done;

        let a = small_done.since(SimTime::ZERO).as_secs_f64();
        let b = squash_done.since(SimTime::ZERO).as_secs_f64();
        writeln!(
            out,
            "{:>6} {:>14.2}s {:>14.2}s {:>8.1}x",
            nodes,
            a,
            b,
            a / b
        )?;
    }

    writeln!(
        out,
        "\nablation: metadata-server service time sweep (64 nodes, small files)"
    )?;
    writeln!(out, "{:>16} {:>16}", "mds service", "cold start")?;
    for us in [30u64, 60, 120, 240, 480] {
        let cfg = hpcc_storage::shared_fs::SharedFsConfig {
            mds_service: hpcc_sim::SimSpan::micros(us),
            ..Default::default()
        };
        let shared = SharedFs::new(cfg);
        shared
            .populate(|fs| {
                for i in 0..1000usize {
                    fs.write_p(&VPath::parse(&format!("/pkg/m{i}.py")), vec![7u8; 600])?;
                }
                Ok(())
            })
            .unwrap();
        let mut worst = SimTime::ZERO;
        for _node in 0..64 {
            let mut t = SimTime::ZERO;
            for i in 0..1000usize {
                let (_, done) = shared
                    .read_file(&VPath::parse(&format!("/pkg/m{i}.py")), t)
                    .unwrap();
                t = done;
            }
            worst = worst.max(t);
        }
        writeln!(
            out,
            "{:>13} us {:>14.2}s",
            us,
            worst.since(SimTime::ZERO).as_secs_f64()
        )?;
    }
    Ok(())
}
