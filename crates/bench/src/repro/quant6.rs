//! Q6 (§3.1): content-addressable storage — layer deduplication across an
//! image family sharing base layers.

use hpcc_oci::builder::{samples, ImageBuilder};
use hpcc_oci::cas::Cas;
use hpcc_vfs::path::VPath;
use std::io::{self, Write};

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Q6 — layer deduplication in content-addressable storage (§3.1)\n"
    )?;
    writeln!(
        out,
        "{:>10} {:>14} {:>14} {:>10} {:>8}",
        "variants", "logical", "stored", "dedup", "blobs"
    )?;
    for variants in [1usize, 4, 16, 64] {
        let cas = Cas::new();
        let base = samples::base_os(&cas);
        for v in 0..variants {
            ImageBuilder::from_image(&base)
                .run("variant", move |fs| {
                    fs.write_p(
                        &VPath::parse(&format!("/opt/tool-{v}/bin/run")),
                        vec![v as u8; 4096],
                    )
                    .map_err(|e| e.to_string())
                })
                .build(&cas)
                .unwrap();
        }
        let s = cas.stats();
        writeln!(
            out,
            "{:>10} {:>14} {:>14} {:>9.1}% {:>8}",
            variants,
            s.logical_bytes,
            s.stored_bytes,
            s.savings() * 100.0,
            s.blobs
        )?;
    }

    writeln!(
        out,
        "\nwithout a shared base (worst case — nothing dedups):"
    )?;
    let cas = Cas::new();
    for v in 0..16usize {
        ImageBuilder::from_scratch()
            .run("all", move |fs| {
                fs.write_p(&VPath::parse("/opt/bin/run"), vec![v as u8; 8192])
                    .map_err(|e| e.to_string())
            })
            .build(&cas)
            .unwrap();
    }
    let s = cas.stats();
    writeln!(
        out,
        "  16 unrelated images: logical {} stored {} savings {:.1}%",
        s.logical_bytes,
        s.stored_bytes,
        s.savings() * 100.0
    )?;
    Ok(())
}
