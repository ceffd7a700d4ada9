//! Q1 (§4.1.2): random-access IOPS and latency — in-kernel SquashFS vs
//! SquashFUSE vs unpacked directory.
//!
//! Paper claim (citing CSCS squashfs-mount benchmarks): "a magnitude lower
//! IOPS for random access and a much higher latency" for SquashFUSE.

use hpcc_codec::compress::Codec;
use hpcc_sim::rng::DetRng;
use hpcc_sim::{SimClock, SimTime};
use hpcc_vfs::driver::{DirDriver, FsDriver, SquashDriver};
use hpcc_vfs::fs::MemFs;
use hpcc_vfs::path::VPath;
use hpcc_vfs::squash::SquashImage;
use std::io::{self, Write};
use std::sync::Arc;

fn build_tree(files: usize, size: usize) -> MemFs {
    let mut fs = MemFs::new();
    for i in 0..files {
        fs.write_p(
            &VPath::parse(&format!("/data/d{}/f{i}.bin", i % 32)),
            vec![(i % 251) as u8; size],
        )
        .unwrap();
    }
    fs
}

pub(crate) fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Q1 — random 4 KiB reads through each driver (§4.1.2 claim: ~10x IOPS gap)\n"
    )?;
    let files = 512;
    let reads = 4096;
    let fs = build_tree(files, 4096);
    let image = Arc::new(SquashImage::build(&fs, &VPath::root(), Codec::Lz).unwrap());
    let fs = Arc::new(fs);

    let drivers: Vec<Box<dyn FsDriver>> = vec![
        Box::new(SquashDriver::kernel(Arc::clone(&image))),
        Box::new(SquashDriver::fuse(Arc::clone(&image))),
        Box::new(DirDriver::local(Arc::clone(&fs), VPath::root())),
    ];

    writeln!(
        out,
        "{:<18} {:>12} {:>14} {:>10}",
        "driver", "IOPS", "mean latency", "vs kernel"
    )?;
    let mut kernel_iops = 0.0;
    for driver in &drivers {
        let paths = driver.file_paths();
        let mut rng = DetRng::seeded(11);
        let clock = SimClock::new();
        for _ in 0..reads {
            let p = &paths[rng.uniform(0, paths.len() as u64) as usize];
            driver.read_file(p, &clock).unwrap();
        }
        let elapsed = clock.now().since(SimTime::ZERO).as_secs_f64();
        let iops = reads as f64 / elapsed;
        let mean_us = elapsed / reads as f64 * 1e6;
        if kernel_iops == 0.0 {
            kernel_iops = iops;
        }
        writeln!(
            out,
            "{:<18} {:>12.0} {:>11.1} us {:>9.2}x",
            driver.name(),
            iops,
            mean_us,
            iops / kernel_iops
        )?;
    }

    writeln!(
        out,
        "\nablation: FUSE per-op overhead sweep (squashfuse), same workload"
    )?;
    writeln!(
        out,
        "{:>12} {:>12} {:>18}",
        "per-op (us)", "IOPS", "kernel/FUSE ratio"
    )?;
    for per_op_us in [10u64, 25, 55, 100, 200] {
        let mut profile = hpcc_vfs::driver::DriverProfile::fuse_squash();
        profile.per_op = hpcc_sim::SimSpan::micros(per_op_us);
        let driver = SquashDriver::with_profile(Arc::clone(&image), profile, "squashfuse-sweep");
        let paths = driver.file_paths();
        let mut rng = DetRng::seeded(11);
        let clock = SimClock::new();
        for _ in 0..reads {
            let p = &paths[rng.uniform(0, paths.len() as u64) as usize];
            driver.read_file(p, &clock).unwrap();
        }
        let iops = reads as f64 / clock.now().since(SimTime::ZERO).as_secs_f64();
        writeln!(
            out,
            "{:>12} {:>12.0} {:>18.1}",
            per_op_us,
            iops,
            kernel_iops / iops
        )?;
    }
    Ok(())
}
