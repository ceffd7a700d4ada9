//! Q8 (§7 outlook): lazy pulling (eStargz/EroFS-style) vs eager squash
//! staging — time to first read, total transfer, and the crossover as
//! the touched fraction grows.

use hpcc_crypto::sha256::sha256;
use hpcc_engine::engine::PullSources;
use hpcc_engine::engines;
use hpcc_engine::lazy::publish_seekable;
use hpcc_oci::image::MediaType;
use hpcc_registry::registry::{Registry, RegistryCaps};
use hpcc_sim::{Bytes, SimClock, SimTime};
use hpcc_vfs::driver::DriverProfile;
use hpcc_vfs::fs::MemFs;
use hpcc_vfs::path::VPath;
use hpcc_vfs::seekable::DEFAULT_CHUNK_SIZE;
use hpcc_vfs::squash::SquashImage;
use std::io::{self, Write};

fn pseudo_random_tree(files: usize, size: usize) -> MemFs {
    let mut fs = MemFs::new();
    let mut x: u64 = 0x2545F4914F6CDD1D;
    for i in 0..files {
        let data: Vec<u8> = (0..size)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        fs.write_p(&VPath::parse(&format!("/app/d{}/f{i}.bin", i % 9)), data)
            .unwrap();
    }
    fs
}

pub(crate) fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Q8 — lazy pulling vs eager staging (the §7 eStargz/EroFS outlook)\n"
    )?;
    let files = 200;
    let size = 64 << 10;
    let fs = pseudo_random_tree(files, size);
    let reg = Registry::new("lazyhub", RegistryCaps::open());
    let (index_digest, index) =
        publish_seekable(&reg, &fs, &VPath::root(), DEFAULT_CHUNK_SIZE).unwrap();
    let squash = SquashImage::build(&fs, &VPath::root(), hpcc_codec::compress::Codec::Lz).unwrap();
    let sq_desc = reg
        .push_blob(
            MediaType::SquashImage,
            sha256(squash.as_bytes()),
            squash.as_bytes().to_vec(),
        )
        .unwrap();
    writeln!(
        out,
        "image: {files} files x {}, total {}\n",
        Bytes::new(size as u64),
        Bytes::new((files * size) as u64)
    )?;

    // Eager baseline: full pull, then local kernel-driver reads.
    let eager_clock = SimClock::new();
    let (bytes, done) = reg.pull_blob(&sq_desc.digest, eager_clock.now()).unwrap();
    eager_clock.advance_to(done);
    let image = SquashImage::from_bytes(bytes.as_ref().clone()).unwrap();
    let eager_ready = eager_clock.now().since(SimTime::ZERO);
    let profile = DriverProfile::kernel_squash();
    let engine = engines::sarus();

    writeln!(
        out,
        "{:>14} {:>14} {:>14} {:>16}",
        "files touched", "lazy total", "eager total", "lazy transfer"
    )?;
    for touch in [1usize, 5, 20, 50, 100, 200] {
        let lazy_clock = SimClock::new();
        let mount = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &lazy_clock)
            .unwrap();
        let paths: Vec<&str> = index.file_paths().take(touch).collect();
        for p in &paths {
            mount.read_file(p, &lazy_clock).unwrap();
        }
        let lazy_total = lazy_clock.now().since(SimTime::ZERO);

        // Eager: image must be fully present before the first read.
        let mut eager_total = eager_ready;
        for p in &paths {
            let (stored, orig) = image.stored_len(p).unwrap();
            eager_total += profile.read_cost(stored, orig);
        }

        writeln!(
            out,
            "{:>14} {:>14} {:>14} {:>16}",
            touch,
            lazy_total.to_string(),
            eager_total.to_string(),
            Bytes::new(mount.stats().bytes_fetched).to_string()
        )?;
    }
    writeln!(
        out,
        "\ncrossover: lazy wins sparse access (workflow steps touching a few\n\
         tools); eager staging wins once most of the image is read — the\n\
         trade Table 2's conversion/caching column manages today."
    )?;
    Ok(())
}
