//! Integration: the full containerization stack end to end — build →
//! sign → push → proxy → pull → verify → convert → mount policy → run,
//! across crate boundaries.

use hpcc_crypto::aead::AeadKey;
use hpcc_crypto::translog::{verify_inclusion, TransparencyLog};
use hpcc_crypto::wots::{verify as wots_verify, Keypair, PublicKey, Signature};
use hpcc_engine::engine::{DeployRequest, Host, RunOptions};
use hpcc_engine::engines;
use hpcc_engine::sif::SifImage;
use hpcc_oci::builder::{samples, ImageBuilder};
use hpcc_oci::cas::Cas;
use hpcc_oci::image::MediaType;
use hpcc_registry::proxy::ProxyRegistry;
use hpcc_registry::registry::{Registry, RegistryCaps};
use hpcc_runtime::container::ProcessWork;
use hpcc_sim::{SimClock, SimSpan, SimTime};
use hpcc_vfs::path::VPath;
use hpcc_vfs::squash::SquashImage;
use std::sync::Arc;

fn registry_with(repo: &str, img: &hpcc_oci::builder::BuiltImage, cas: &Cas) -> Arc<Registry> {
    let reg = Registry::new("it", RegistryCaps::open());
    reg.create_namespace(repo.split('/').next().unwrap(), None)
        .unwrap();
    reg.push_image(repo, "v1", &img.manifest, cas).unwrap();
    Arc::new(reg)
}

#[test]
fn build_sign_push_pull_verify_run() {
    // Build.
    let cas = Cas::new();
    let img = samples::mpi_solver(&cas);

    // Sign the manifest (cosign-style) and log it in the transparency log.
    let mut key = Keypair::generate(b"it-signer", 3);
    let sig = key.sign(&img.manifest.digest()).unwrap();
    let mut rekor = TransparencyLog::new();
    let entry_bytes = sig.to_bytes();
    let idx = rekor.append(&entry_bytes);
    let head = rekor.head();

    // Push with signature attached.
    let reg = registry_with("hpc/solver", &img, &cas);
    reg.attach_signature(img.manifest.digest(), sig.to_bytes())
        .unwrap();

    // Client pulls, fetches the signature, verifies both the WOTS
    // signature and the transparency-log inclusion.
    let clock = SimClock::new();
    let engine = engines::podman();
    let pulled = engine.pull(&reg, "hpc/solver", "v1", &clock).unwrap();
    let sigs = reg.signatures_of(&pulled.manifest.digest()).unwrap();
    assert_eq!(sigs.len(), 1);
    let sig_bytes = reg.cas().get(&sigs[0].digest).unwrap();
    let parsed = Signature::from_bytes(&sig_bytes).unwrap();
    assert!(wots_verify(
        &key.public(),
        &pulled.manifest.digest(),
        &parsed
    ));
    let proof = rekor.prove_inclusion(idx).unwrap();
    assert!(verify_inclusion(&head, &entry_bytes, &proof));

    // Run it.
    let host = Host::compute_node();
    let (report, ..) = engine
        .deploy(
            &DeployRequest {
                opts: RunOptions {
                    work: ProcessWork {
                        compute: SimSpan::secs(5),
                        writes: vec![("out/result".into(), vec![9])],
                    },
                    ..RunOptions::default()
                },
                ..DeployRequest::new(&reg, "hpc/solver", "v1", 1000, &host)
            },
            &clock,
        )
        .unwrap();
    assert_eq!(report.container.exit_code, Some(0));
    assert_eq!(
        report
            .container
            .rootfs
            .stat(&VPath::parse("/out/result"))
            .unwrap()
            .meta
            .uid,
        1000
    );
}

#[test]
fn tampered_layer_is_rejected_by_the_pulling_engine() {
    // A registry that (maliciously or through corruption) serves wrong
    // bytes for a digest: model by pushing a manifest whose layer digest
    // points at different content via put (the registry itself verifies,
    // so craft the mismatch at the manifest level).
    let cas = Cas::new();
    let img = samples::base_os(&cas);
    let reg = Registry::new("evil", RegistryCaps::open());
    reg.create_namespace("hpc", None).unwrap();
    // Push a manifest referencing a *different* (existing) blob under a
    // layer slot whose digest does not match what the client will hash...
    // The registry model always serves blob bytes by digest, so a digest
    // mismatch cannot be fabricated through the public API — which is
    // itself the property we assert here: every pulled layer re-hashes to
    // its descriptor digest.
    reg.push_image("hpc/base", "v1", &img.manifest, &cas)
        .unwrap();
    let engine = engines::podman();
    let clock = SimClock::new();
    let pulled = engine.pull(&reg, "hpc/base", "v1", &clock).unwrap();
    for (archive, desc) in pulled.layers.iter().zip(&pulled.manifest.layers) {
        assert_eq!(
            hpcc_crypto::sha256::sha256(&archive.to_bytes()),
            desc.digest
        );
    }
}

#[test]
fn proxy_then_convert_then_share_between_users() {
    let cas = Cas::new();
    let img = samples::python_app(&cas, 80);
    let hub = registry_with("hpc/pyapp", &img, &cas);
    let site = Registry::new("site", RegistryCaps::open());
    site.create_namespace("hpc", None).unwrap();
    let proxy = ProxyRegistry::new(Arc::new(site), hub).unwrap();

    // First user's pull warms the proxy.
    let engine = engines::sarus();
    let host = Host::compute_node();
    let clock = SimClock::new();
    proxy
        .pull_manifest("hpc/pyapp", "v1", SimTime::ZERO)
        .unwrap();
    let pulled = engine
        .pull(&proxy.local, "hpc/pyapp", "v1", &clock)
        .unwrap();
    let p1 = engine.prepare(&pulled, 1000, &host, true, &clock).unwrap();
    assert!(!p1.cache_hit);

    // Second user: proxy cache hit + Sarus' shared conversion cache hit.
    let pulled2 = engine
        .pull(&proxy.local, "hpc/pyapp", "v1", &clock)
        .unwrap();
    let p2 = engine.prepare(&pulled2, 2000, &host, true, &clock).unwrap();
    assert!(p2.cache_hit, "Sarus shares converted images across users");
    assert_eq!(proxy.stats().cache_misses, 1);
}

#[test]
fn registry_squash_runs_through_vfs_driver() {
    let cas = Cas::new();
    let img = samples::python_app(&cas, 40);
    let reg = registry_with("hpc/pyapp", &img, &cas);
    let desc = reg.squash_on_demand("hpc/pyapp", "v1").unwrap();
    assert_eq!(desc.media_type, MediaType::SquashImage);
    let bytes = reg.cas().get(&desc.digest).unwrap();
    let image = SquashImage::from_bytes(bytes.as_ref().clone()).unwrap();
    // The squashed image is the flattened tree, readable through the
    // kernel driver with costs charged.
    let driver = hpcc_vfs::driver::SquashDriver::kernel(Arc::new(image));
    let clock = SimClock::new();
    let data =
        hpcc_vfs::driver::FsDriver::read_file(&driver, "usr/bin/python3.11", &clock).unwrap();
    assert_eq!(data.len(), 6144);
    assert!(clock.now() > SimTime::ZERO);
}

#[test]
fn sif_lifecycle_across_engines_and_registries() {
    // Apptainer builds + signs + encrypts a SIF; it travels through a
    // Library-API registry; SingularityCE verifies and decrypts it.
    let cas = Cas::new();
    let img = samples::base_os(&cas);
    let rootfs = img.flatten().unwrap();
    let apptainer = engines::apptainer();
    let singularity = engines::singularity_ce();

    let mut sif = SifImage::build("Bootstrap: oci\nFrom: hpc/base\n", &rootfs).unwrap();
    let mut key = Keypair::generate(b"lab-key", 2);
    apptainer.sign_sif(&mut sif, &mut key).unwrap();

    // Push through shpc (Library API).
    let shpc = hpcc_registry::products::shpc().registry;
    shpc.library_push("lab/base/os", "v1", sif.to_bytes())
        .unwrap();
    let (fetched, _) = shpc
        .library_pull("lab/base/os", "v1", SimTime::ZERO)
        .unwrap();
    let mut fetched = SifImage::from_bytes(&fetched).unwrap();

    // Verify on the other engine; key travels out of band.
    let signers = singularity.verify_sif(&fetched).unwrap();
    assert_eq!(signers, vec![key.public().key_id()]);

    // Encrypt + decrypt roundtrip.
    let aead = AeadKey::derive(b"project-secret");
    singularity.encrypt_sif(&mut fetched, &aead).unwrap();
    assert!(fetched.is_encrypted());
    singularity.decrypt_sif(&mut fetched, &aead).unwrap();
    let part = fetched.open_partition().unwrap();
    assert!(part.read_file("usr/lib/libc.so.6").is_ok());
}

#[test]
fn public_key_roundtrips_for_out_of_band_distribution() {
    let key = Keypair::generate(b"distribute-me", 2);
    let pk = key.public();
    let restored = PublicKey::from_bytes(&pk.to_bytes()).unwrap();
    assert_eq!(restored, pk);
}

#[test]
fn layered_family_shares_storage_in_registry_cas() {
    let cas = Cas::new();
    let base = samples::base_os(&cas);
    let reg = Registry::new("family", RegistryCaps::open());
    reg.create_namespace("hpc", None).unwrap();
    for v in 0..10 {
        let child = ImageBuilder::from_image(&base)
            .run("add", move |fs| {
                fs.write_p(&VPath::parse(&format!("/opt/v{v}")), vec![v as u8; 2048])
                    .map_err(|e| e.to_string())
            })
            .build(&cas)
            .unwrap();
        for d in std::iter::once(&child.manifest.config).chain(child.manifest.layers.iter()) {
            // Skip blobs the registry already has (the HEAD-then-push
            // client protocol).
            if reg.has_blob(&d.digest) {
                continue;
            }
            let data = cas.get(&d.digest).unwrap();
            reg.push_blob(d.media_type, d.digest, data.as_ref().clone())
                .unwrap();
        }
        reg.push_manifest(&format!("hpc/child{v}"), "v1", &child.manifest)
            .unwrap();
    }
    let stats = reg.cas().stats();
    // 10 children share one base layer: far fewer than 10 base-layer
    // copies stored.
    assert!(
        stats.savings() < 0.01,
        "HEAD-check avoided duplicate pushes entirely"
    );
    assert_eq!(reg.list_repos().len(), 10);
}

#[test]
fn engine_rejects_encrypted_sif_without_key() {
    let cas = Cas::new();
    let rootfs = samples::base_os(&cas).flatten().unwrap();
    let mut sif = SifImage::build("From: x", &rootfs).unwrap();
    let engine = engines::apptainer();
    engine
        .encrypt_sif(&mut sif, &AeadKey::derive(b"right"))
        .unwrap();
    assert!(engine
        .decrypt_sif(&mut sif, &AeadKey::derive(b"wrong"))
        .is_err());
    // Partition stays sealed.
    assert!(sif.open_partition().is_err());
}
