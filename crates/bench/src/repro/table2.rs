//! Regenerate Table 2: image format handling — transparent conversion,
//! native caching/sharing, execution namespacing, signature verification
//! and encrypted-container support. All cells probed live.

use crate::probes::probe_engine;
use crate::tables::{render_table, yn_opt};
use hpcc_engine::engines;
use std::io::{self, Write};

pub(crate) fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Table 2 — Image formats, conversion, caching, namespacing, signing, encryption"
    )?;
    writeln!(
        out,
        "(every cell derived from a live probe of the engine's pipeline)\n"
    )?;

    let mut rows = vec![vec![
        "Engine".to_string(),
        "Transparent Conversion".to_string(),
        "Native Caching".to_string(),
        "Native Sharing".to_string(),
        "Namespacing on Exec".to_string(),
        "Signature Verification".to_string(),
        "Encrypted Containers".to_string(),
    ]];

    for engine in engines::all() {
        let probe = probe_engine(&engine);
        let namespacing = if probe.netns_on_exec {
            "full"
        } else {
            "user and mount NS"
        };
        let signing = match (probe.oci_signing, probe.sif_signing) {
            (true, _) => "yes (detached OCI)",
            (false, true) => "yes (SIF only)",
            (false, false) => "-",
        };
        rows.push(vec![
            engine.info.name.to_string(),
            yn_opt(probe.transparent_conversion),
            yn_opt(probe.caching),
            yn_opt(probe.sharing),
            namespacing.to_string(),
            signing.to_string(),
            if probe.encryption { "yes (SIF)" } else { "no" }.to_string(),
        ]);
    }
    write!(out, "{}", render_table(&rows))?;
    writeln!(
        out,
        "\n'-' = not applicable (OCI is already the native format)."
    )?;
    Ok(())
}
