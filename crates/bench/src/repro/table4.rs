//! Regenerate Table 4: registry products — protocols, artifact support,
//! proxying, mirroring, storage backends and auth providers.

use crate::probes::probe_registry;
use crate::tables::{render_table, yn};
use hpcc_registry::products;
use hpcc_registry::registry::Protocol;
use std::io::{self, Write};

pub(crate) fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Table 4 — Container registries: protocols and feature set"
    )?;
    writeln!(
        out,
        "(Version/Champion/Affiliation/Focus survey-reported; features probed live)\n"
    )?;

    let mut rows = vec![vec![
        "Registry".to_string(),
        "Version*".to_string(),
        "Champion*".to_string(),
        "Affiliation*".to_string(),
        "Focus*".to_string(),
        "Protocol (probed)".to_string(),
        "Artifacts (probed)".to_string(),
        "Proxying".to_string(),
        "Mirroring".to_string(),
        "Storage*".to_string(),
        "Auth Providers".to_string(),
    ]];

    for product in products::all() {
        let probe = probe_registry(&product);
        let mut protocols = Vec::new();
        if probe.oci {
            let v = if product.registry.caps().protocols.contains(&Protocol::OciV1) {
                "OCI v1"
            } else {
                "OCI v2"
            };
            protocols.push(v.to_string());
        }
        if probe.library_api {
            protocols.push("Library API".to_string());
        }
        let mut artifacts = Vec::new();
        if probe.helm {
            artifacts.push("Helm");
        }
        if probe.cosign_artifacts {
            artifacts.push("cosign");
        }
        if probe.user_defined {
            artifacts.push("user-def.");
        }
        let auth: Vec<String> = product
            .registry
            .auth()
            .providers()
            .iter()
            .map(|p| format!("{p:?}"))
            .collect();
        rows.push(vec![
            product.info.name.to_string(),
            product.info.version.to_string(),
            product.info.champion.to_string(),
            product.info.affiliation.to_string(),
            product.info.focus.to_string(),
            protocols.join(", "),
            if artifacts.is_empty() {
                "-".to_string()
            } else {
                artifacts.join(", ")
            },
            if probe.proxying {
                match product.registry.caps().proxying {
                    hpcc_registry::registry::ProxyMode::Auto => "yes / auto".to_string(),
                    hpcc_registry::registry::ProxyMode::Manual => "yes / manual".to_string(),
                    hpcc_registry::registry::ProxyMode::None => "yes".to_string(),
                }
            } else {
                "no".to_string()
            },
            yn(probe.mirroring),
            product.registry.caps().storage_backends.join(", "),
            auth.join(", "),
        ]);
    }
    write!(out, "{}", render_table(&rows))?;
    writeln!(out, "\n* = survey-reported metadata.")?;
    Ok(())
}
