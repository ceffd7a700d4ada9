//! OCI image structures: descriptors, manifests and image configs.
//!
//! Serialization is deterministic (our wire format with sorted maps), so
//! manifests are content-addressable exactly like real OCI JSON manifests
//! are — the digests drive registry storage, signing and caching.

use hpcc_codec::wire::{put_str, put_varint, Reader, WireError};
use hpcc_crypto::sha256::{sha256, Digest};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Media types of blobs a registry can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MediaType {
    /// Image manifest.
    Manifest,
    /// Image config (env/entrypoint/...).
    Config,
    /// Filesystem layer (archive, possibly compressed).
    Layer,
    /// Flattened single-file image (SquashFS analogue; the eStargz/EroFS
    /// discussion of Section 7 lands here too).
    SquashImage,
    /// Singularity SIF image.
    Sif,
    /// Detached signature (cosign-style).
    Signature,
    /// Software bill of materials.
    Sbom,
    /// Helm-chart-like structured artifact.
    HelmChart,
    /// Arbitrary user-defined OCI artifact.
    UserDefined,
}

impl MediaType {
    pub fn id(self) -> u8 {
        match self {
            MediaType::Manifest => 0,
            MediaType::Config => 1,
            MediaType::Layer => 2,
            MediaType::SquashImage => 3,
            MediaType::Sif => 4,
            MediaType::Signature => 5,
            MediaType::Sbom => 6,
            MediaType::HelmChart => 7,
            MediaType::UserDefined => 8,
        }
    }

    pub fn from_id(id: u8) -> Option<MediaType> {
        Some(match id {
            0 => MediaType::Manifest,
            1 => MediaType::Config,
            2 => MediaType::Layer,
            3 => MediaType::SquashImage,
            4 => MediaType::Sif,
            5 => MediaType::Signature,
            6 => MediaType::Sbom,
            7 => MediaType::HelmChart,
            8 => MediaType::UserDefined,
            _ => return None,
        })
    }
}

/// A content descriptor: type + digest + size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Descriptor {
    pub media_type: MediaType,
    pub digest: Digest,
    pub size: u64,
}

/// Errors from manifest/config decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    Wire(WireError),
    BadMagic,
    BadMediaType(u8),
    /// An exposed port that does not fit in 16 bits.
    BadPort(u64),
    /// An annotation or label key not above the key before it: `to_bytes`
    /// writes them strictly ascending, so a repeat would decode two
    /// encodings to one value.
    KeyOrder(String),
    /// Bytes after the last field.
    TrailingBytes,
}

impl From<WireError> for ImageError {
    fn from(e: WireError) -> ImageError {
        ImageError::Wire(e)
    }
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::Wire(e) => write!(f, "wire: {e}"),
            ImageError::BadMagic => f.write_str("not a manifest/config"),
            ImageError::BadMediaType(t) => write!(f, "unknown media type {t}"),
            ImageError::BadPort(p) => write!(f, "exposed port {p} is out of range"),
            ImageError::KeyOrder(k) => write!(f, "key {k:?} repeated or out of order"),
            ImageError::TrailingBytes => f.write_str("trailing bytes after the last field"),
        }
    }
}

impl std::error::Error for ImageError {}

fn put_descriptor(buf: &mut Vec<u8>, d: &Descriptor) {
    buf.push(d.media_type.id());
    buf.extend_from_slice(&d.digest.0);
    put_varint(buf, d.size);
}

/// A string map as `to_bytes` writes it: a count, then its pairs with keys
/// strictly ascending.
fn read_map(r: &mut Reader<'_>) -> Result<BTreeMap<String, String>, ImageError> {
    let n = r.varint()?;
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    for _ in 0..n {
        let k = r.str()?;
        let v = r.str()?;
        if map
            .last_key_value()
            .is_some_and(|(last, _)| last.as_str() >= k)
        {
            return Err(ImageError::KeyOrder(k.to_string()));
        }
        map.insert(k.to_string(), v.to_string());
    }
    Ok(map)
}

/// The end of an encoding: nothing may follow its last field.
fn finish(r: &Reader<'_>) -> Result<(), ImageError> {
    if r.is_empty() {
        Ok(())
    } else {
        Err(ImageError::TrailingBytes)
    }
}

fn read_descriptor(r: &mut Reader<'_>) -> Result<Descriptor, ImageError> {
    let mt = r.u8()?;
    let media_type = MediaType::from_id(mt).ok_or(ImageError::BadMediaType(mt))?;
    let mut digest = [0u8; 32];
    digest.copy_from_slice(r.take(32)?);
    let size = r.varint()?;
    Ok(Descriptor {
        media_type,
        digest: Digest(digest),
        size,
    })
}

/// An image manifest: config + ordered layers + annotations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    pub config: Descriptor,
    /// Layers bottom-first (base layer first), like OCI.
    pub layers: Vec<Descriptor>,
    pub annotations: BTreeMap<String, String>,
}

const MANIFEST_MAGIC: &[u8; 4] = b"HMAN";

impl Manifest {
    /// Deterministic serialization.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MANIFEST_MAGIC);
        put_descriptor(&mut out, &self.config);
        put_varint(&mut out, self.layers.len() as u64);
        for l in &self.layers {
            put_descriptor(&mut out, l);
        }
        put_varint(&mut out, self.annotations.len() as u64);
        for (k, v) in &self.annotations {
            put_str(&mut out, k);
            put_str(&mut out, v);
        }
        out
    }

    pub fn from_bytes(data: &[u8]) -> Result<Manifest, ImageError> {
        let mut r = Reader::new(data);
        if r.take(4)? != MANIFEST_MAGIC {
            return Err(ImageError::BadMagic);
        }
        let config = read_descriptor(&mut r)?;
        let n = r.varint()? as usize;
        let mut layers = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            layers.push(read_descriptor(&mut r)?);
        }
        let annotations = read_map(&mut r)?;
        finish(&r)?;
        Ok(Manifest {
            config,
            layers,
            annotations,
        })
    }

    /// The manifest's own digest (what tags point at).
    pub fn digest(&self) -> Digest {
        sha256(&self.to_bytes())
    }

    /// Its descriptor.
    pub fn descriptor(&self) -> Descriptor {
        let bytes = self.to_bytes();
        Descriptor {
            media_type: MediaType::Manifest,
            digest: sha256(&bytes),
            size: bytes.len() as u64,
        }
    }

    /// Total compressed size of all layers.
    pub fn total_layer_size(&self) -> u64 {
        self.layers.iter().map(|l| l.size).sum()
    }
}

/// The runnable configuration of an image.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ImageConfig {
    /// Environment as KEY=VALUE pairs.
    pub env: Vec<String>,
    /// Entrypoint argv prefix.
    pub entrypoint: Vec<String>,
    /// Default command argv.
    pub cmd: Vec<String>,
    /// Working directory.
    pub working_dir: String,
    /// User the process expects to run as ("" = root).
    pub user: String,
    /// Ports the containerized service binds (HPC engines without a
    /// network namespace can't isolate these — a Table 1 OCI-compat item).
    pub exposed_ports: Vec<u16>,
    /// Target architecture the image was built for (the §3.2
    /// "optimized for a target architecture" portability concern).
    pub architecture: String,
    /// Free-form labels.
    pub labels: BTreeMap<String, String>,
}

const CONFIG_MAGIC: &[u8; 4] = b"HCFG";

impl ImageConfig {
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(CONFIG_MAGIC);
        let put_list = |out: &mut Vec<u8>, items: &[String]| {
            put_varint(out, items.len() as u64);
            for s in items {
                put_str(out, s);
            }
        };
        put_list(&mut out, &self.env);
        put_list(&mut out, &self.entrypoint);
        put_list(&mut out, &self.cmd);
        put_str(&mut out, &self.working_dir);
        put_str(&mut out, &self.user);
        put_varint(&mut out, self.exposed_ports.len() as u64);
        for p in &self.exposed_ports {
            put_varint(&mut out, *p as u64);
        }
        put_str(&mut out, &self.architecture);
        put_varint(&mut out, self.labels.len() as u64);
        for (k, v) in &self.labels {
            put_str(&mut out, k);
            put_str(&mut out, v);
        }
        out
    }

    pub fn from_bytes(data: &[u8]) -> Result<ImageConfig, ImageError> {
        let mut r = Reader::new(data);
        if r.take(4)? != CONFIG_MAGIC {
            return Err(ImageError::BadMagic);
        }
        let read_list = |r: &mut Reader<'_>| -> Result<Vec<String>, ImageError> {
            let n = r.varint()? as usize;
            let mut out = Vec::with_capacity(n.min(256));
            for _ in 0..n {
                out.push(r.str()?.to_string());
            }
            Ok(out)
        };
        let env = read_list(&mut r)?;
        let entrypoint = read_list(&mut r)?;
        let cmd = read_list(&mut r)?;
        let working_dir = r.str()?.to_string();
        let user = r.str()?.to_string();
        let np = r.varint()? as usize;
        let mut exposed_ports = Vec::with_capacity(np.min(64));
        for _ in 0..np {
            let port = r.varint()?;
            exposed_ports.push(u16::try_from(port).map_err(|_| ImageError::BadPort(port))?);
        }
        let architecture = r.str()?.to_string();
        let labels = read_map(&mut r)?;
        finish(&r)?;
        Ok(ImageConfig {
            env,
            entrypoint,
            cmd,
            working_dir,
            user,
            exposed_ports,
            architecture,
            labels,
        })
    }

    pub fn descriptor(&self) -> Descriptor {
        let bytes = self.to_bytes();
        Descriptor {
            media_type: MediaType::Config,
            digest: sha256(&bytes),
            size: bytes.len() as u64,
        }
    }

    /// The full argv: entrypoint ++ cmd.
    pub fn argv(&self) -> Vec<String> {
        self.entrypoint
            .iter()
            .chain(self.cmd.iter())
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn desc(tag: u8, mt: MediaType) -> Descriptor {
        Descriptor {
            media_type: mt,
            digest: sha256(&[tag]),
            size: tag as u64 * 100,
        }
    }

    fn manifest() -> Manifest {
        Manifest {
            config: desc(0, MediaType::Config),
            layers: vec![desc(1, MediaType::Layer), desc(2, MediaType::Layer)],
            annotations: [("org.opencontainers.ref".to_string(), "x".to_string())]
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let m = manifest();
        assert_eq!(Manifest::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn manifest_digest_stable_and_sensitive() {
        let m = manifest();
        assert_eq!(m.digest(), manifest().digest());
        let mut m2 = manifest();
        m2.layers.pop();
        assert_ne!(m.digest(), m2.digest());
        assert_eq!(m.descriptor().media_type, MediaType::Manifest);
    }

    #[test]
    fn layer_size_totalled() {
        assert_eq!(manifest().total_layer_size(), 300);
    }

    #[test]
    fn config_roundtrip() {
        let c = ImageConfig {
            env: vec!["PATH=/usr/bin".into(), "LANG=C".into()],
            entrypoint: vec!["/opt/app/run".into()],
            cmd: vec!["--help".into()],
            working_dir: "/work".into(),
            user: "1000:100".into(),
            exposed_ports: vec![8080, 9090],
            architecture: "x86_64-v3".into(),
            labels: [("a".to_string(), "b".to_string())].into_iter().collect(),
        };
        let back = ImageConfig::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.argv(), vec!["/opt/app/run", "--help"]);
    }

    #[test]
    fn default_config_is_empty() {
        let c = ImageConfig::default();
        assert!(c.argv().is_empty());
        assert_eq!(ImageConfig::from_bytes(&c.to_bytes()).unwrap(), c);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(Manifest::from_bytes(b"XXXXrest"), Err(ImageError::BadMagic));
        assert_eq!(
            ImageConfig::from_bytes(b"XXXXrest"),
            Err(ImageError::BadMagic)
        );
    }

    #[test]
    fn bad_media_type_rejected() {
        let m = manifest();
        let mut bytes = m.to_bytes();
        bytes[4] = 99; // config descriptor's media type byte
        assert_eq!(
            Manifest::from_bytes(&bytes),
            Err(ImageError::BadMediaType(99))
        );
    }

    #[test]
    fn media_type_id_roundtrip() {
        for id in 0..=8u8 {
            let mt = MediaType::from_id(id).unwrap();
            assert_eq!(mt.id(), id);
        }
        assert_eq!(MediaType::from_id(9), None);
    }

    /// A config naming port 65536 used to decode as port 0.
    #[test]
    fn port_above_16_bits_is_rejected() {
        let mut bytes = CONFIG_MAGIC.to_vec();
        for _ in 0..3 {
            put_varint(&mut bytes, 0); // env, entrypoint, cmd
        }
        put_str(&mut bytes, "");
        put_str(&mut bytes, "");
        put_varint(&mut bytes, 2);
        put_varint(&mut bytes, 22);
        put_varint(&mut bytes, 65536);
        put_str(&mut bytes, "x86_64");
        put_varint(&mut bytes, 0);
        assert_eq!(
            ImageConfig::from_bytes(&bytes),
            Err(ImageError::BadPort(65536))
        );
    }

    /// One byte appended to a valid encoding used to decode to the same
    /// value as the encoding without it.
    #[test]
    fn trailing_byte_is_rejected() {
        let mut bytes = manifest().to_bytes();
        bytes.push(0);
        assert_eq!(Manifest::from_bytes(&bytes), Err(ImageError::TrailingBytes));
        let mut bytes = ImageConfig::default().to_bytes();
        bytes.push(0);
        assert_eq!(
            ImageConfig::from_bytes(&bytes),
            Err(ImageError::TrailingBytes)
        );
    }

    /// A key written twice used to decode, the second value winning.
    #[test]
    fn duplicated_key_is_rejected() {
        let mut bytes = manifest().to_bytes();
        let at = bytes.len() - (1 + "org.opencontainers.ref".len() + 1 + 1);
        let pair = bytes[at..].to_vec();
        bytes[at - 1] = 2; // annotation count
        bytes.extend_from_slice(&pair);
        assert_eq!(
            Manifest::from_bytes(&bytes),
            Err(ImageError::KeyOrder("org.opencontainers.ref".into()))
        );
        let mut bytes = ImageConfig::default().to_bytes();
        bytes.pop(); // label count 0
        put_varint(&mut bytes, 2);
        for value in ["b", "a"] {
            put_str(&mut bytes, "k");
            put_str(&mut bytes, value);
        }
        assert_eq!(
            ImageConfig::from_bytes(&bytes),
            Err(ImageError::KeyOrder("k".into()))
        );
    }

    fn arb_descriptor() -> impl Strategy<Value = Descriptor> {
        (0u8..9, any::<u64>(), any::<u64>()).prop_map(|(id, seed, size)| Descriptor {
            media_type: MediaType::from_id(id).expect("ids 0..9 exist"),
            digest: sha256(&seed.to_be_bytes()),
            size,
        })
    }

    fn arb_map() -> impl Strategy<Value = BTreeMap<String, String>> {
        proptest::collection::vec(("[a-z.]{1,12}", "[ -~]{0,16}"), 0..4)
            .prop_map(|kv| kv.into_iter().collect())
    }

    fn arb_list() -> impl Strategy<Value = Vec<String>> {
        proptest::collection::vec("[ -~]{0,12}", 0..4)
    }

    /// A count, length or port: small, next to `u16::MAX`, or anything.
    fn hostile_varint() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..80, 65530u64..65540, any::<u64>()]
    }

    fn hostile_tail() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..96)
    }

    /// Valid magic and a config descriptor with any media type byte and
    /// size, then a layer count and garbage.
    fn hostile_manifest() -> impl Strategy<Value = Vec<u8>> {
        (0u8..12, any::<u64>(), hostile_varint(), hostile_tail()).prop_map(
            |(media_type, size, layers, tail)| {
                let mut out = MANIFEST_MAGIC.to_vec();
                out.push(media_type);
                out.extend_from_slice(&sha256(&tail).0);
                put_varint(&mut out, size);
                put_varint(&mut out, layers);
                out.extend_from_slice(&tail);
                out
            },
        )
    }

    /// Valid magic, then list counts, string lengths and ports as
    /// varints, then garbage.
    fn hostile_config() -> impl Strategy<Value = Vec<u8>> {
        (
            proptest::collection::vec(hostile_varint(), 0..8),
            hostile_tail(),
        )
            .prop_map(|(varints, tail)| {
                let mut out = CONFIG_MAGIC.to_vec();
                for v in varints {
                    put_varint(&mut out, v);
                }
                out.extend_from_slice(&tail);
                out
            })
    }

    proptest! {
        #[test]
        fn manifest_roundtrips(
            config in arb_descriptor(),
            layers in proptest::collection::vec(arb_descriptor(), 0..6),
            annotations in arb_map(),
        ) {
            let m = Manifest { config, layers, annotations };
            prop_assert_eq!(Manifest::from_bytes(&m.to_bytes()).unwrap(), m);
        }

        #[test]
        fn config_roundtrips(
            lists in (arb_list(), arb_list(), arb_list()),
            dirs in ("[ -~]{0,12}", "[ -~]{0,12}", "[ -~]{0,12}"),
            exposed_ports in proptest::collection::vec(any::<u16>(), 0..4),
            labels in arb_map(),
        ) {
            let c = ImageConfig {
                env: lists.0,
                entrypoint: lists.1,
                cmd: lists.2,
                working_dir: dirs.0,
                user: dirs.1,
                exposed_ports,
                architecture: dirs.2,
                labels,
            };
            prop_assert_eq!(ImageConfig::from_bytes(&c.to_bytes()).unwrap(), c);
        }

        /// A valid encoding followed by anything is not that value.
        #[test]
        fn any_suffix_is_rejected(
            layers in proptest::collection::vec(arb_descriptor(), 0..3),
            labels in arb_map(),
            suffix in proptest::collection::vec(any::<u8>(), 1..16),
        ) {
            let m = Manifest { config: manifest().config, layers, annotations: labels.clone() };
            let mut bytes = m.to_bytes();
            bytes.extend_from_slice(&suffix);
            prop_assert!(Manifest::from_bytes(&bytes).is_err());
            let c = ImageConfig { labels, ..ImageConfig::default() };
            let mut bytes = c.to_bytes();
            bytes.extend_from_slice(&suffix);
            prop_assert!(ImageConfig::from_bytes(&bytes).is_err());
        }

        /// Structure-aware garbage never panics either parser, and
        /// whatever parses encodes back to a value that parses the same.
        #[test]
        fn parsers_never_panic_on_hostile_bytes(
            manifest in hostile_manifest(),
            config in hostile_config(),
        ) {
            if let Ok(m) = Manifest::from_bytes(&manifest) {
                prop_assert_eq!(Manifest::from_bytes(&m.to_bytes()).unwrap(), m);
            }
            if let Ok(c) = ImageConfig::from_bytes(&config) {
                prop_assert_eq!(ImageConfig::from_bytes(&c.to_bytes()).unwrap(), c);
            }
        }
    }
}
