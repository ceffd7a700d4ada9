//! Pull-side verification: the consumer half of sign-on-push.
//!
//! A verifying puller holds a *trusted tree head* (obtained out of band —
//! gossip, TUF root, site config) and, given the provenance a
//! [`SignedImage`](crate::publish::SignedImage) carries, checks three
//! independent things before trusting a pulled image:
//!
//! 1. **Signature** — the WOTS signature verifies over the manifest
//!    digest under the embedded public key.
//! 2. **Log inclusion** — the signature's log entry proves inclusion
//!    against the trusted head. A proof minted before later appends has
//!    `tree_size != head.size` and is rejected as *stale* (split-view /
//!    rollback defense).
//! 3. **Content** — every pulled blob re-hashes to the digest its signed
//!    manifest descriptor claims; any mismatch is a tampered blob.
//!
//! All failures are typed — a hostile registry must never panic a node.

use hpcc_crypto::sha256::{sha256, Digest};
use hpcc_crypto::translog::{verify_inclusion, InclusionProof, TreeHead};
use hpcc_crypto::wots::{self, PublicKey, Signature};
use hpcc_engine::engine::{Engine, EngineError, PulledImage};
use hpcc_oci::image::Manifest;
use hpcc_registry::registry::{Registry, RegistryError};
use hpcc_sim::SimClock;

/// WOTS public keys serialize to exactly 33 bytes (tag + root).
const PUBKEY_BYTES: usize = 33;

/// Typed verification failures (acceptance: no panic on hostile input).
#[derive(Debug)]
pub enum VerifyError {
    /// The registry has no signature artifact for the manifest.
    MissingSignature(Digest),
    /// Signature bytes don't parse as `pubkey ++ wots signature`.
    MalformedSignature,
    /// The WOTS signature does not verify over the manifest digest.
    BadSignature(Digest),
    /// The inclusion proof was minted against an older tree than the
    /// trusted head — stale provenance, possible rollback.
    StaleProof {
        proof_size: u64,
        head_size: u64,
    },
    /// The entry does not prove inclusion under the trusted head.
    NotInLog(Digest),
    /// A pulled blob's bytes hash to something other than the signed
    /// manifest's descriptor says.
    TamperedBlob {
        claimed: Digest,
        actual: Digest,
    },
    /// The pulled image does not carry one layer per manifest descriptor
    /// (a layer withheld, or one slipped in).
    LayerCountMismatch {
        manifest: usize,
        pulled: usize,
    },
    /// The pulled manifest is not the one the tag was signed for.
    ManifestMismatch {
        signed: Digest,
        pulled: Digest,
    },
    Registry(RegistryError),
    Engine(EngineError),
}

impl From<RegistryError> for VerifyError {
    fn from(e: RegistryError) -> VerifyError {
        VerifyError::Registry(e)
    }
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::MissingSignature(d) => write!(f, "no signature attached to {d}"),
            VerifyError::MalformedSignature => f.write_str("signature artifact malformed"),
            VerifyError::BadSignature(d) => write!(f, "signature does not verify over {d}"),
            VerifyError::StaleProof {
                proof_size,
                head_size,
            } => write!(
                f,
                "stale inclusion proof: minted at tree size {proof_size}, trusted head is {head_size}"
            ),
            VerifyError::NotInLog(d) => write!(f, "entry for {d} not proven in log"),
            VerifyError::TamperedBlob { claimed, actual } => {
                write!(f, "blob claims {claimed} but hashes to {actual}")
            }
            VerifyError::LayerCountMismatch { manifest, pulled } => {
                write!(f, "manifest names {manifest} layers, pull delivered {pulled}")
            }
            VerifyError::ManifestMismatch { signed, pulled } => {
                write!(f, "tag resolves to {pulled}, signature covers {signed}")
            }
            VerifyError::Registry(e) => write!(f, "registry: {e}"),
            VerifyError::Engine(e) => write!(f, "pull: {e}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Check a signature artifact + log provenance against `trusted_head`.
/// `signature` is the artifact as attached (`pubkey ++ sig`); the log
/// entry is reconstructed as `manifest_digest ++ signature`.
pub fn verify_provenance(
    manifest_digest: Digest,
    signature: &[u8],
    proof: &InclusionProof,
    trusted_head: &TreeHead,
) -> Result<(), VerifyError> {
    if signature.len() <= PUBKEY_BYTES {
        return Err(VerifyError::MalformedSignature);
    }
    let public =
        PublicKey::from_bytes(&signature[..PUBKEY_BYTES]).ok_or(VerifyError::MalformedSignature)?;
    let sig =
        Signature::from_bytes(&signature[PUBKEY_BYTES..]).ok_or(VerifyError::MalformedSignature)?;
    if !wots::verify(&public, &manifest_digest, &sig) {
        return Err(VerifyError::BadSignature(manifest_digest));
    }
    // Staleness first: a proof from an older tree is a distinct, more
    // actionable failure than a generic path mismatch.
    if proof.tree_size != trusted_head.size {
        return Err(VerifyError::StaleProof {
            proof_size: proof.tree_size,
            head_size: trusted_head.size,
        });
    }
    let mut entry = manifest_digest.0.to_vec();
    entry.extend_from_slice(signature);
    if !verify_inclusion(trusted_head, &entry, proof) {
        return Err(VerifyError::NotInLog(manifest_digest));
    }
    Ok(())
}

/// Re-hash every part of a pulled image against its (already verified)
/// manifest. Catches tampered registries/mirrors that substitute bytes.
pub fn verify_pulled_content(manifest: &Manifest, pulled: &PulledImage) -> Result<(), VerifyError> {
    let config_actual = sha256(&pulled.config.to_bytes());
    if config_actual != manifest.config.digest {
        return Err(VerifyError::TamperedBlob {
            claimed: manifest.config.digest,
            actual: config_actual,
        });
    }
    if manifest.layers.len() != pulled.layers.len() {
        return Err(VerifyError::LayerCountMismatch {
            manifest: manifest.layers.len(),
            pulled: pulled.layers.len(),
        });
    }
    for (desc, layer) in manifest.layers.iter().zip(pulled.layers.iter()) {
        let actual = sha256(&layer.to_bytes());
        if actual != desc.digest {
            return Err(VerifyError::TamperedBlob {
                claimed: desc.digest,
                actual,
            });
        }
    }
    Ok(())
}

/// Pull `repo:tag` through the normal engine path, then verify signature,
/// log inclusion against `trusted_head`, and blob content before handing
/// the image back.
pub fn verified_pull(
    engine: &Engine,
    registry: &Registry,
    repo: &str,
    tag: &str,
    proof: &InclusionProof,
    trusted_head: &TreeHead,
    clock: &SimClock,
) -> Result<PulledImage, VerifyError> {
    let signed_digest = registry.resolve_tag(repo, tag)?;
    let sigs = registry.signatures_of(&signed_digest)?;
    let sig_desc = sigs
        .first()
        .ok_or(VerifyError::MissingSignature(signed_digest))?;
    let (signature, done) = registry
        .pull_blob(&sig_desc.digest, clock.now())
        .map_err(VerifyError::Registry)?;
    clock.advance_to(done);

    let pulled = engine
        .pull(registry, repo, tag, clock)
        .map_err(VerifyError::Engine)?;
    let pulled_digest = pulled.manifest.digest();
    if pulled_digest != signed_digest {
        return Err(VerifyError::ManifestMismatch {
            signed: signed_digest,
            pulled: pulled_digest,
        });
    }
    verify_provenance(signed_digest, &signature, proof, trusted_head)?;
    verify_pulled_content(&pulled.manifest, &pulled)?;
    Ok(pulled)
}
