//! Regenerate Table 3: GPU/accelerator enablement, host-library hookup,
//! WLM and module-system integration, build tool, plus the community
//! metadata the survey reports.

use crate::probes::probe_engine;
use crate::tables::{render_table, yn};
use hpcc_engine::caps::{AccelSupport, WlmIntegration};
use hpcc_engine::engines;
use std::io::{self, Write};

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "Table 3 — HPC enablement and integrations")?;
    writeln!(out, "(GPU/MPI/module cells probed live; Accel/WLM from capability models; docs and contributors survey-reported)\n")?;

    let mut rows = vec![vec![
        "Engine".to_string(),
        "GPU (probed)".to_string(),
        "Accelerators".to_string(),
        "MPI Hookup (probed)".to_string(),
        "WLM Integration".to_string(),
        "Build Tool".to_string(),
        "Modules (probed)".to_string(),
        "Docs U/A/S*".to_string(),
        "#Contrib*".to_string(),
    ]];

    for engine in engines::all() {
        let probe = probe_engine(&engine);
        let mpi = match (probe.mpi_mpich, probe.mpi_openmpi) {
            (true, true) => "yes",
            (true, false) => "MPICH only",
            _ => "no (manual)",
        };
        let accel = match engine.caps.accel {
            AccelSupport::ViaOciHooks => "via OCI hooks",
            AccelSupport::ViaOciHooksOrPatch => "via OCI hooks or patch",
            AccelSupport::ViaCustomHooks => "via custom hooks",
            AccelSupport::Manual => "manually",
            AccelSupport::No => "no",
        };
        let wlm = match engine.caps.wlm {
            WlmIntegration::SpankPlugin => "yes / SPANK plugin",
            WlmIntegration::PartialViaHooks => "partially via OCI hooks",
            WlmIntegration::NoUnreleasedPlugin => "no (no SPANK release)",
            WlmIntegration::No => "no",
        };
        let (u, a, s) = engine.info.docs;
        rows.push(vec![
            engine.info.name.to_string(),
            yn(probe.gpu),
            accel.to_string(),
            mpi.to_string(),
            wlm.to_string(),
            yn(engine.caps.build_tool),
            yn(probe.module_system),
            format!("{u}/{a}/{s}"),
            engine.info.contributors.to_string(),
        ]);
    }
    write!(out, "{}", render_table(&rows))?;
    writeln!(out, "\n* = survey-reported metadata (Aug 2023).")?;
    Ok(())
}
