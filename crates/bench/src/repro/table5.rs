//! Regenerate Table 5: registry squashing, image formats, multi-tenancy,
//! quotas, signing, deployment and build integration.

use crate::probes::probe_registry;
use crate::tables::{render_table, yn};
use hpcc_registry::products;
use std::io::{self, Write};

pub(crate) fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Table 5 — Registries: squashing, tenancy, quota, signing, deployment"
    )?;
    writeln!(
        out,
        "(technical cells probed live; Deployment/Build survey-reported)\n"
    )?;

    let mut rows = vec![vec![
        "Registry".to_string(),
        "Squashing (probed)".to_string(),
        "Formats*".to_string(),
        "Multi-Tenancy".to_string(),
        "Quota Enforced".to_string(),
        "Signing".to_string(),
        "Deployment*".to_string(),
        "Build Integration*".to_string(),
    ]];

    for product in products::all() {
        let probe = probe_registry(&product);
        rows.push(vec![
            product.info.name.to_string(),
            if probe.squashing {
                "on-demand".to_string()
            } else {
                "no".to_string()
            },
            product.info.image_formats.to_string(),
            yn(probe.multi_tenancy),
            yn(probe.quota_enforced),
            yn(probe.signing),
            product.info.deployment.to_string(),
            product.info.build_integration.to_string(),
        ]);
    }
    write!(out, "{}", render_table(&rows))?;
    writeln!(out, "\n* = survey-reported metadata.")?;
    Ok(())
}
