//! `hpcc-build` — the container-as-code build plane.
//!
//! Closes the survey's lifecycle loop: until now the repo only modelled
//! the *consume* side (images existed by fiat and were pulled). This
//! crate adds the produce side, in the shape SNIPPETS.md Snippet 1
//! (hpctainers' Dagger-style graphs) and the Sarus Suite describe:
//!
//! - [`spec`] — declarative [`BuildSpec`]s: base image + ordered
//!   fingerprintable steps (`run`/`copy`/`env`/`entrypoint` plus the
//!   HPC-specific `mpi_base`).
//! - [`cache`] — a content-addressed [`BuildCache`] keyed by the
//!   (parent state, step fingerprint) hash chain, with layer bytes in
//!   the shared [`hpcc_storage::BlobStore`]: unchanged prefixes replay
//!   at metadata speed, identical steps dedup across tenants.
//! - [`service`] — [`build_fleet`] lowers N tenants × M specs onto one
//!   deterministic bounded-worker [`hpcc_sim::TaskGraph`] run.
//! - [`publish`] — [`sign_and_push`]: WOTS signature, transparency-log
//!   inclusion proof, journalled (crash-safe) push to the multi-tenant
//!   registry under namespace quota.
//! - [`verify`] — [`verified_pull`]: pull through the normal engine
//!   path, then reject bad signatures, stale log proofs and tampered
//!   blobs with typed errors.

pub mod cache;
pub mod publish;
pub mod service;
pub mod spec;
pub mod verify;

pub use cache::{BuildCache, BuildCacheStats};
pub use publish::{sign_and_push, PublishError, SignedImage};
pub use service::{build_fleet, BuildError, BuildOutput, BuildRequest};
pub use spec::{BuildSpec, BuildStep, MpiFamily};
pub use verify::{verified_pull, VerifyError};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_provenance, verify_pulled_content};
    use hpcc_engine::engine::{Host, RunOptions};
    use hpcc_engine::engines;
    use hpcc_oci::cas::Cas;
    use hpcc_oci::layer;
    use hpcc_registry::registry::{Registry, RegistryCaps};
    use hpcc_sim::obs::Tracer;
    use hpcc_sim::{CrashInjector, SimClock};
    use hpcc_storage::journal::JournaledStore;
    use hpcc_storage::BlobStore;
    use hpcc_vfs::path::VPath;

    struct Stack {
        registry: Registry,
        engine: hpcc_engine::engine::Engine,
        cache: std::sync::Arc<BuildCache>,
        cas: Cas,
        journal: std::sync::Arc<JournaledStore>,
        crash: std::sync::Arc<CrashInjector>,
        log: hpcc_crypto::translog::TransparencyLog,
        key: hpcc_crypto::wots::Keypair,
        tracer: std::sync::Arc<Tracer>,
        clock: SimClock,
    }

    fn stack() -> Stack {
        let registry = Registry::new("site", RegistryCaps::open());
        registry.create_namespace("acme", None).unwrap();
        let engine = engines::podman_hpc();
        let tracer = Tracer::new();
        engine.set_tracer(std::sync::Arc::clone(&tracer));
        let store = BlobStore::node_local();
        let journal = JournaledStore::new(std::sync::Arc::clone(&store));
        let crash = CrashInjector::disabled();
        journal.set_crash_injector(std::sync::Arc::clone(&crash));
        Stack {
            registry,
            engine,
            cache: BuildCache::node_local(),
            cas: Cas::new(),
            journal,
            crash,
            log: hpcc_crypto::translog::TransparencyLog::new(),
            key: hpcc_crypto::wots::Keypair::generate(b"round-trip", 3),
            tracer,
            clock: SimClock::new(),
        }
    }

    fn app_spec() -> BuildSpec {
        BuildSpec::from_scratch("app")
            .run("base", &[("/usr/lib/libc.so", &[0xB0; 8192][..])])
            .mpi_base(MpiFamily::Mpich)
            .copy("/opt/app/run", b"#!py solver".to_vec())
            .env("OMP_NUM_THREADS", "8")
            .entrypoint(&["/opt/app/run"])
    }

    #[test]
    fn full_loop_build_sign_push_pull_run_byte_identical() {
        let mut s = stack();
        let reqs = vec![BuildRequest::new("acme", "solver", "v1", app_spec())];
        let outs = build_fleet(&reqs, 4, &s.cache, &s.cas, &s.tracer, &s.clock).unwrap();
        let out = &outs[0];

        let signed = sign_and_push(
            &s.engine,
            &mut s.key,
            &mut s.log,
            &s.registry,
            out,
            &s.cas,
            &s.journal,
            &s.crash,
            &s.clock,
        )
        .unwrap();
        assert!(s.journal.open_intents().is_empty(), "push intent committed");

        let pulled = verified_pull(
            &s.engine,
            &s.registry,
            "acme/solver",
            "v1",
            &signed.proof,
            &s.log.head(),
            &s.clock,
        )
        .unwrap();

        // Byte identity: the pulled layer stack flattens to the exact
        // tree the build produced.
        let root = layer::flatten(&pulled.layers).unwrap();
        assert_eq!(
            root.tree_digest(&VPath::parse("/")).unwrap(),
            out.root_digest,
            "pulled image is byte-identical to the build output"
        );

        // …and it runs through the normal engine path.
        let host = Host::compute_node();
        let prepared = s
            .engine
            .prepare(&pulled, 1000, &host, true, &s.clock)
            .unwrap();
        let report = s
            .engine
            .run(prepared, 1000, &host, RunOptions::default(), &s.clock)
            .unwrap();
        assert_eq!(report.container.exit_code, Some(0));
    }

    #[test]
    fn stale_proof_rejected_after_later_appends() {
        let mut s = stack();
        let reqs = vec![BuildRequest::new("acme", "solver", "v1", app_spec())];
        let outs = build_fleet(&reqs, 4, &s.cache, &s.cas, &s.tracer, &s.clock).unwrap();
        let signed = sign_and_push(
            &s.engine,
            &mut s.key,
            &mut s.log,
            &s.registry,
            &outs[0],
            &s.cas,
            &s.journal,
            &s.crash,
            &s.clock,
        )
        .unwrap();

        // The log moves on (another tenant publishes).
        s.log.append(b"later entry");
        let err = verified_pull(
            &s.engine,
            &s.registry,
            "acme/solver",
            "v1",
            &signed.proof,
            &s.log.head(),
            &s.clock,
        )
        .unwrap_err();
        match err {
            VerifyError::StaleProof {
                proof_size,
                head_size,
            } => {
                assert_eq!(proof_size, 1);
                assert_eq!(head_size, 2);
            }
            other => panic!("expected StaleProof, got {other}"),
        }
    }

    /// Build, sign, push and verified-pull `acme/solver:v1`.
    fn published_and_pulled(s: &mut Stack) -> hpcc_engine::engine::PulledImage {
        let reqs = vec![BuildRequest::new("acme", "solver", "v1", app_spec())];
        let outs = build_fleet(&reqs, 4, &s.cache, &s.cas, &s.tracer, &s.clock).unwrap();
        let signed = sign_and_push(
            &s.engine,
            &mut s.key,
            &mut s.log,
            &s.registry,
            &outs[0],
            &s.cas,
            &s.journal,
            &s.crash,
            &s.clock,
        )
        .unwrap();
        verified_pull(
            &s.engine,
            &s.registry,
            "acme/solver",
            "v1",
            &signed.proof,
            &s.log.head(),
            &s.clock,
        )
        .unwrap()
    }

    #[test]
    fn tampered_blob_rejected_with_typed_error() {
        let mut pulled = published_and_pulled(&mut stack());
        // A hostile mirror swaps one layer's bytes post-transit.
        pulled.layers[0].push(hpcc_codec::archive::Entry::file("evil", b"p0wned".to_vec()));
        let err = verify_pulled_content(&pulled.manifest, &pulled).unwrap_err();
        assert!(
            matches!(err, VerifyError::TamperedBlob { .. }),
            "expected TamperedBlob, got {err}"
        );
    }

    #[test]
    fn withheld_layer_rejected_with_typed_error() {
        let mut pulled = published_and_pulled(&mut stack());
        // Every layer that did arrive is genuine; the top one never did.
        pulled.layers.pop();
        let err = verify_pulled_content(&pulled.manifest, &pulled).unwrap_err();
        assert!(
            matches!(
                err,
                VerifyError::LayerCountMismatch {
                    manifest: 3,
                    pulled: 2
                }
            ),
            "expected LayerCountMismatch, got {err}"
        );
    }

    #[test]
    fn wrong_key_signature_rejected() {
        let mut s = stack();
        let reqs = vec![BuildRequest::new("acme", "solver", "v1", app_spec())];
        let outs = build_fleet(&reqs, 4, &s.cache, &s.cas, &s.tracer, &s.clock).unwrap();
        let signed = sign_and_push(
            &s.engine,
            &mut s.key,
            &mut s.log,
            &s.registry,
            &outs[0],
            &s.cas,
            &s.journal,
            &s.crash,
            &s.clock,
        )
        .unwrap();

        // Splice a different key's public part onto the signature.
        let mallory = hpcc_crypto::wots::Keypair::generate(b"mallory", 3);
        let mut forged = mallory.public().to_bytes();
        forged.extend_from_slice(&signed.signature[33..]);
        let err = verify_provenance(
            signed.manifest_digest,
            &forged,
            &signed.proof,
            &s.log.head(),
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::BadSignature(_)), "got {err}");
    }

    #[test]
    fn push_respects_namespace_quota() {
        let mut s = stack();
        s.registry.create_namespace("tiny", Some(64)).unwrap();
        let reqs = vec![BuildRequest::new("tiny", "solver", "v1", app_spec())];
        let outs = build_fleet(&reqs, 4, &s.cache, &s.cas, &s.tracer, &s.clock).unwrap();
        let err = sign_and_push(
            &s.engine,
            &mut s.key,
            &mut s.log,
            &s.registry,
            &outs[0],
            &s.cas,
            &s.journal,
            &s.crash,
            &s.clock,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                PublishError::Registry(
                    hpcc_registry::registry::RegistryError::QuotaExceeded { .. }
                )
            ),
            "got {err}"
        );
        assert!(
            s.journal.open_intents().is_empty(),
            "quota rejection rolls the intent back"
        );
        assert!(s.journal.orphaned_staged().is_empty());
    }

    /// Origin brownout: the registry frontend rejects uploads during
    /// `[ZERO, until)` with 503s.
    fn brownout_injector(until: hpcc_sim::SimSpan) -> std::sync::Arc<hpcc_sim::FaultInjector> {
        use hpcc_sim::{FaultKind, FaultRule, SimTime};
        std::sync::Arc::new(hpcc_sim::FaultInjector::new(
            7,
            vec![FaultRule::sticky(
                FaultKind::RegistryUnavailable,
                SimTime::ZERO,
                SimTime::ZERO + until,
            )],
        ))
    }

    #[test]
    fn brownout_push_fails_and_rolls_its_intent_back() {
        use hpcc_registry::registry::RegistryError;
        let mut s = stack();
        let reqs = vec![BuildRequest::new("acme", "solver", "v1", app_spec())];
        let outs = build_fleet(&reqs, 4, &s.cache, &s.cas, &s.tracer, &s.clock).unwrap();
        let faults = brownout_injector(hpcc_sim::SimSpan::secs(1));
        s.registry
            .set_fault_injector(std::sync::Arc::clone(&faults));

        // The brownout kills the push outright and rolls its intent back.
        let err = sign_and_push(
            &s.engine,
            &mut s.key,
            &mut s.log,
            &s.registry,
            &outs[0],
            &s.cas,
            &s.journal,
            &s.crash,
            &s.clock,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                PublishError::Registry(RegistryError::Unavailable { status: 503 })
            ),
            "got {err}"
        );
        assert!(s.journal.open_intents().is_empty());
    }
}
