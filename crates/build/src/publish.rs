//! Sign-on-push: WOTS signature, transparency-log inclusion, journalled
//! multi-tenant registry push.
//!
//! The publish path is the durability-critical half of the build plane,
//! so it follows the engine's intent-journal discipline: every blob the
//! push uploads is first staged under one `build.push` intent (WAL record
//! then pinned store insert), named crash points bracket each externally
//! visible action, and the crash matrix kills the process at every one of
//! them to prove recovery leaves no orphaned staged blobs and that a
//! resumed push converges — registry uploads are content-addressed, so
//! the retry dedups against whatever the first attempt landed.

use crate::service::BuildOutput;
use hpcc_crypto::sha256::{sha256, Digest};
use hpcc_crypto::translog::{InclusionProof, TransparencyLog, TreeHead};
use hpcc_crypto::wots::Keypair;
use hpcc_engine::engine::{Engine, EngineError};
use hpcc_oci::cas::Cas;
use hpcc_registry::registry::{Registry, RegistryError};
use hpcc_sim::faults::{FaultInjector, RetryPolicy};
use hpcc_sim::obs::Stage;
use hpcc_sim::resilience::CircuitBreaker;
use hpcc_sim::sym;
use hpcc_sim::{CrashInjector, Crashed, SimClock, SimSpan};
use hpcc_storage::journal::JournaledStore;
use std::sync::Arc;

/// WOTS signing cost (hash-chain walks dominate).
pub const SIGN_COST: SimSpan = SimSpan(2_000_000); // 2 ms
/// Transparency-log append + proof mint round trip.
pub const LOG_APPEND_COST: SimSpan = SimSpan(500_000); // 0.5 ms
/// Per-blob upload round-trip floor (HEAD + POST handshake).
pub const PUSH_RTT: SimSpan = SimSpan(400_000); // 0.4 ms
/// Upload bandwidth toward the registry.
pub const PUSH_BPS: u64 = 128 << 20;

/// Everything a verifier needs: the signed manifest plus its log
/// provenance, as minted at push time.
#[derive(Debug, Clone)]
pub struct SignedImage {
    pub repo: String,
    pub tag: String,
    pub manifest_digest: Digest,
    /// Signature artifact as attached to the registry:
    /// `pubkey (33 bytes) ++ signature`.
    pub signature: Vec<u8>,
    /// The transparency-log entry: `manifest digest ++ signature bytes`.
    pub log_entry: Vec<u8>,
    pub log_index: u64,
    /// Inclusion proof minted at append time. Valid against
    /// [`Self::head`] — and *only* that head: later appends make it
    /// stale, which is exactly what pull-side verification checks.
    pub proof: InclusionProof,
    /// The tree head the proof was minted against.
    pub head: TreeHead,
}

/// Errors out of sign-and-push.
#[derive(Debug)]
pub enum PublishError {
    /// Signing failed (engine lacks a signing cap, or the WOTS key ran
    /// out of one-time leaves).
    Sign(EngineError),
    /// The built blob vanished from the local image store.
    MissingLocalBlob(Digest),
    Registry(RegistryError),
    /// An armed crash point fired mid-push; the intent stays open for
    /// recovery.
    Crash(Crashed),
}

impl From<Crashed> for PublishError {
    fn from(c: Crashed) -> PublishError {
        PublishError::Crash(c)
    }
}

impl From<RegistryError> for PublishError {
    fn from(e: RegistryError) -> PublishError {
        PublishError::Registry(e)
    }
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::Sign(e) => write!(f, "sign: {e}"),
            PublishError::MissingLocalBlob(d) => write!(f, "local blob missing: {d}"),
            PublishError::Registry(e) => write!(f, "registry: {e}"),
            PublishError::Crash(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for PublishError {}

/// Sign `output`'s manifest, append to the transparency log, and push the
/// image to `registry` under its tenant namespace. Blob uploads are
/// staged under a journalled `build.push` intent read back from `cas`
/// (the builder-local image store).
///
/// Idempotent on resume: content-addressed blob uploads dedup, the
/// manifest push re-tags the same digest, and an already-attached
/// signature artifact is detected and skipped (each resume does append a
/// fresh log entry — the log is append-only by design — and the returned
/// provenance always references the newest entry).
#[allow(clippy::too_many_arguments)]
pub fn sign_and_push(
    engine: &Engine,
    key: &mut Keypair,
    log: &mut TransparencyLog,
    registry: &Registry,
    output: &BuildOutput,
    cas: &Cas,
    journal: &JournaledStore,
    crash: &CrashInjector,
    clock: &SimClock,
) -> Result<SignedImage, PublishError> {
    let tracer = engine.tracer();
    let manifest = &output.image.manifest;
    let manifest_digest = manifest.digest();

    // ---- sign + log ------------------------------------------------
    let sign_span = tracer.begin(sym!("build.sign"), Stage::Request, clock.now());
    tracer.attr(
        sign_span,
        sym!("image"),
        format_args!("{}:{}", output.repo, output.tag),
    );
    let signature = engine
        .sign_manifest(manifest, key)
        .map_err(PublishError::Sign)?;
    clock.advance(SIGN_COST);
    let mut log_entry = manifest_digest.0.to_vec();
    log_entry.extend_from_slice(&signature);
    let log_index = log.append(&log_entry);
    let proof = log
        .prove_inclusion(log_index)
        .expect("just-appended entry proves");
    let head = log.head();
    clock.advance(LOG_APPEND_COST);
    tracer.attr(sign_span, sym!("log_index"), log_index);
    tracer.end(sign_span, clock.now());

    // ---- journalled push -------------------------------------------
    let push_span = tracer.begin(sym!("build.push"), Stage::Request, clock.now());
    tracer.attr(push_span, sym!("repo"), &output.repo);
    let result = push_locked(
        registry,
        output,
        cas,
        journal,
        crash,
        clock,
        &signature,
        manifest_digest,
    );
    match &result {
        Ok(()) => {}
        Err(e) => tracer.attr(push_span, sym!("error"), e),
    }
    if !matches!(result, Err(PublishError::Crash(_))) {
        // A crash never closes its span — the process is dead.
        tracer.end(push_span, clock.now());
    }
    result?;

    Ok(SignedImage {
        repo: output.repo.clone(),
        tag: output.tag.clone(),
        manifest_digest,
        signature,
        log_entry,
        log_index,
        proof,
        head,
    })
}

/// [`sign_and_push`] hardened for origin brownouts: the push is gated on
/// a per-registry [`CircuitBreaker`] and transient registry failures
/// (rate limits, 5xx, timeouts) are retried under `policy` with backoff
/// charged to the clock.
///
/// The breaker short-circuits with `Unavailable { status: 503 }` while
/// open, so a browned-out origin costs one probe per cooldown instead of
/// a full retry ladder per build. Only an exhausted ladder of transient
/// registry errors counts against the breaker ([`CircuitBreaker::settle`]);
/// signing failures, missing local blobs, and armed crash points
/// propagate immediately without tripping it. Each retry attempt re-runs
/// the full sign-and-push, so (as with crash-recovery resumes) every
/// attempt appends a fresh transparency-log entry and the returned
/// provenance references the newest one — blob uploads dedup
/// content-addressed as usual.
#[allow(clippy::too_many_arguments)]
pub fn sign_and_push_resilient(
    engine: &Engine,
    key: &mut Keypair,
    log: &mut TransparencyLog,
    registry: &Registry,
    output: &BuildOutput,
    cas: &Cas,
    journal: &JournaledStore,
    crash: &CrashInjector,
    clock: &SimClock,
    faults: &FaultInjector,
    breaker: &CircuitBreaker,
    policy: &RetryPolicy,
) -> Result<SignedImage, PublishError> {
    if !breaker.allow(faults, crash, clock.now())? {
        faults
            .metrics()
            .incr(&format!("breaker.{}.push_rejected", breaker.name()));
        return Err(PublishError::Registry(RegistryError::Unavailable {
            status: 503,
        }));
    }
    let transient = |e: &PublishError| matches!(e, PublishError::Registry(r) if r.is_transient());
    let run = policy.run_clocked(
        faults,
        "build.push",
        Stage::Request,
        clock,
        transient,
        |_| {
            sign_and_push(
                engine, key, log, registry, output, cas, journal, crash, clock,
            )
        },
    );
    breaker.settle(faults, &run, |e| matches!(e, PublishError::Crash(_)));
    run.map(|ok| ok.value).map_err(|err| {
        err.cause
            .into_op(|after| PublishError::Registry(RegistryError::Timeout { after }))
    })
}

#[allow(clippy::too_many_arguments)]
fn push_locked(
    registry: &Registry,
    output: &BuildOutput,
    cas: &Cas,
    journal: &JournaledStore,
    crash: &CrashInjector,
    clock: &SimClock,
    signature: &[u8],
    manifest_digest: Digest,
) -> Result<(), PublishError> {
    let manifest = &output.image.manifest;
    let intent = journal.begin(
        "build.push",
        &format!("{}:{}", output.repo, output.tag),
        clock.now(),
    )?;

    // Upload config + layers; abort the intent on registry rejection
    // (quota, unsupported artifact) so no staged blobs leak.
    let upload = (|| -> Result<(), PublishError> {
        for desc in std::iter::once(&manifest.config).chain(manifest.layers.iter()) {
            crash.crash_point("build.push.blob.pre", clock.now())?;
            let data = cas
                .get(&desc.digest)
                .map_err(|_| PublishError::MissingLocalBlob(desc.digest))?;
            journal.stage(intent, desc.digest, Arc::clone(&data), clock.now())?;
            registry.admit_push(clock.now())?;
            if registry.has_blob(&desc.digest) {
                // Layer-dedup HEAD check: pay only the handshake.
                clock.advance(PUSH_RTT);
            } else {
                registry.push_blob(desc.media_type, desc.digest, data.as_ref().clone())?;
                clock.advance(
                    PUSH_RTT + SimSpan(desc.size.saturating_mul(1_000_000_000) / PUSH_BPS),
                );
            }
        }
        crash.crash_point("build.push.manifest.pre", clock.now())?;
        registry.admit_push(clock.now())?;
        registry.push_manifest(&output.repo, &output.tag, manifest)?;
        clock.advance(PUSH_RTT);

        // Attach the signature artifact unless a resume already did.
        let sig_digest = sha256(signature);
        let attached = registry
            .signatures_of(&manifest_digest)?
            .iter()
            .any(|d| d.digest == sig_digest);
        if !attached {
            registry.admit_push(clock.now())?;
            registry.attach_signature(manifest_digest, signature.to_vec())?;
            clock.advance(PUSH_RTT);
        }
        Ok(())
    })();

    match upload {
        Ok(()) => {
            crash.crash_point("build.push.commit.pre", clock.now())?;
            journal.commit(intent, clock.now())?;
            Ok(())
        }
        Err(PublishError::Crash(c)) => Err(PublishError::Crash(c)),
        Err(e) => {
            // Runtime failure (not a crash): roll the intent back so its
            // staged blobs are collected now.
            journal.abort(intent, clock.now())?;
            Err(e)
        }
    }
}
