//! Regenerate Table 1: engine overview, rootless techniques and OCI
//! compatibility. Technical cells come from live probes; the columns
//! marked `survey-reported` carry the paper's recorded metadata.

use crate::probes::probe_engine;
use crate::tables::{render_table, yn};
use hpcc_engine::caps::{
    HookSupport, MonitorModel, OciContainerSupport, RootlessFsMech, RootlessMech,
};
use hpcc_engine::engines;
use std::io::{self, Write};

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Table 1 — Container engines: overview, rootless techniques, OCI compatibility"
    )?;
    writeln!(out, "(Version/Champion/Affiliation/Language are survey-reported, Aug 2023; all other cells probed live)\n")?;

    let mut rows = vec![vec![
        "Engine".to_string(),
        "Version*".to_string(),
        "Champion*".to_string(),
        "Affiliation*".to_string(),
        "Runtime".to_string(),
        "Lang*".to_string(),
        "Rootless".to_string(),
        "Rootless-FS (observed)".to_string(),
        "Monitor".to_string(),
        "OCI Hooks".to_string(),
        "OCI Container".to_string(),
    ]];

    for engine in engines::all() {
        let probe = probe_engine(&engine);
        let rootless = engine
            .caps
            .rootless
            .iter()
            .map(|m| match m {
                RootlessMech::UserNs => "UserNS",
                RootlessMech::Fakeroot => "fakeroot",
            })
            .collect::<Vec<_>>()
            .join(", ");
        let rootless_fs = engine
            .caps
            .rootless_fs
            .iter()
            .map(|m| match m {
                RootlessFsMech::FuseOverlayfs => "fuse-overlayfs",
                RootlessFsMech::SquashFuse => "SquashFUSE",
                RootlessFsMech::Suid => "suid",
                RootlessFsMech::Dir => "Dir",
                RootlessFsMech::Fakeroot => "fakeroot",
            })
            .collect::<Vec<_>>()
            .join(", ");
        let monitor = match probe.monitor {
            MonitorModel::PerMachineDaemon(d) => format!("per-machine ({d})"),
            MonitorModel::PerContainer(m) => format!("per-container ({m})"),
            MonitorModel::None => "no".to_string(),
        };
        let hooks = match engine.caps.oci_hooks {
            HookSupport::Yes => "yes".to_string(),
            HookSupport::ManualRootOnly => "yes (manually, requires root)".to_string(),
            HookSupport::Custom => "custom framework".to_string(),
            HookSupport::No => "no".to_string(),
        };
        let container = match engine.caps.oci_container {
            OciContainerSupport::Full => "yes".to_string(),
            OciContainerSupport::Partial => "yes (partial)".to_string(),
        };
        rows.push(vec![
            engine.info.name.to_string(),
            engine.info.version.to_string(),
            engine.info.champion.to_string(),
            engine.info.affiliation.to_string(),
            engine.runtime.name.to_string(),
            engine.info.language.to_string(),
            format!("{rootless} [rootless deploy: {}]", yn(probe.rootless_ok)),
            format!("{rootless_fs} → {}", probe.root_kind),
            monitor,
            hooks,
            container,
        ]);
    }
    write!(out, "{}", render_table(&rows))?;
    writeln!(out, "\n* = survey-reported metadata (not probeable).")?;
    Ok(())
}
