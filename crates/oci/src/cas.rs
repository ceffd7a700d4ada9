//! Content-addressable blob store.
//!
//! "Layer deduplication can be employed in registries and locally based on
//! equal hashes (content-addressable storage)" — Section 3.1. Every blob
//! (layer, config, manifest, squash image, SIF, signature) lives in a CAS
//! keyed by its SHA-256; putting the same bytes twice stores them once.
//! The dedup experiment (Q6) reads the logical-vs-stored accounting here.

use crate::image::{Descriptor, MediaType};
use crate::layer::SealedLayer;
use hpcc_crypto::sha256::{sha256, Digest};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Statistics of a CAS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CasStats {
    /// Distinct blobs stored.
    pub blobs: u64,
    /// Bytes actually stored (deduplicated).
    pub stored_bytes: u64,
    /// Bytes callers have pushed (counting duplicates).
    pub logical_bytes: u64,
    /// Number of put operations that hit an existing blob.
    pub dedup_hits: u64,
}

impl CasStats {
    /// Space saved by deduplication, as a fraction of logical bytes.
    pub fn savings(&self) -> f64 {
        if self.logical_bytes == 0 {
            0.0
        } else {
            1.0 - self.stored_bytes as f64 / self.logical_bytes as f64
        }
    }
}

/// Errors from CAS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CasError {
    NotFound(Digest),
    /// The caller claimed a digest that does not match the bytes.
    DigestMismatch {
        claimed: Digest,
        actual: Digest,
    },
}

impl std::fmt::Display for CasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CasError::NotFound(d) => write!(f, "blob {} not found", d.short()),
            CasError::DigestMismatch { claimed, actual } => write!(
                f,
                "digest mismatch: claimed {} actual {}",
                claimed.short(),
                actual.short()
            ),
        }
    }
}

impl std::error::Error for CasError {}

#[derive(Default)]
struct CasState {
    blobs: HashMap<Digest, Arc<Vec<u8>>>,
    stats: CasStats,
}

/// Thread-safe content-addressable store.
#[derive(Default)]
pub struct Cas {
    state: RwLock<CasState>,
}

impl Cas {
    pub fn new() -> Cas {
        Cas::default()
    }

    /// Store bytes, returning their descriptor. Duplicate content is
    /// detected by digest and stored once.
    /// An `Arc` is stored as it is: the store and the caller then share
    /// one allocation.
    pub fn put(&self, media_type: MediaType, data: impl Into<Arc<Vec<u8>>>) -> Descriptor {
        let data = data.into();
        let digest = sha256(&data);
        self.insert(media_type, digest, data)
    }

    /// Store a sealed layer under the digest it carries, sharing its
    /// encoding rather than copying or re-hashing it.
    pub fn put_sealed(&self, layer: &SealedLayer) -> Descriptor {
        self.insert(
            MediaType::Layer,
            layer.blob_digest(),
            Arc::clone(layer.bytes()),
        )
    }

    /// Store bytes under a digest the caller claims; verified before
    /// acceptance (registries must never trust client digests).
    pub fn put_verified(
        &self,
        media_type: MediaType,
        claimed: Digest,
        data: impl Into<Arc<Vec<u8>>>,
    ) -> Result<Descriptor, CasError> {
        let data = data.into();
        let actual = sha256(&data);
        if actual != claimed {
            return Err(CasError::DigestMismatch { claimed, actual });
        }
        Ok(self.insert(media_type, actual, data))
    }

    /// `digest` must be the SHA-256 of `data`: every caller has just
    /// computed it, or holds it sealed with these bytes.
    fn insert(&self, media_type: MediaType, digest: Digest, data: Arc<Vec<u8>>) -> Descriptor {
        let size = data.len() as u64;
        let mut st = self.state.write();
        st.stats.logical_bytes += size;
        if let std::collections::hash_map::Entry::Vacant(e) = st.blobs.entry(digest) {
            e.insert(data);
            st.stats.blobs += 1;
            st.stats.stored_bytes += size;
        } else {
            st.stats.dedup_hits += 1;
        }
        Descriptor {
            media_type,
            digest,
            size,
        }
    }

    /// Fetch a blob.
    pub fn get(&self, digest: &Digest) -> Result<Arc<Vec<u8>>, CasError> {
        self.state
            .read()
            .blobs
            .get(digest)
            .map(Arc::clone)
            .ok_or(CasError::NotFound(*digest))
    }

    /// True if the blob exists (registry HEAD requests).
    pub fn has(&self, digest: &Digest) -> bool {
        self.state.read().blobs.contains_key(digest)
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> CasStats {
        self.state.read().stats
    }

    /// All digests currently stored (sorted for determinism).
    pub fn digests(&self) -> Vec<Digest> {
        let mut v: Vec<Digest> = self.state.read().blobs.keys().copied().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let cas = Cas::new();
        let d = cas.put(MediaType::Layer, b"layer-bytes".to_vec());
        assert_eq!(&**cas.get(&d.digest).unwrap(), b"layer-bytes");
        assert_eq!(d.size, 11);
        assert!(cas.has(&d.digest));
    }

    #[test]
    fn duplicate_content_stored_once() {
        let cas = Cas::new();
        let a = cas.put(MediaType::Layer, vec![7u8; 1000]);
        let b = cas.put(MediaType::Layer, vec![7u8; 1000]);
        assert_eq!(a.digest, b.digest);
        let s = cas.stats();
        assert_eq!(s.blobs, 1);
        assert_eq!(s.stored_bytes, 1000);
        assert_eq!(s.logical_bytes, 2000);
        assert_eq!(s.dedup_hits, 1);
        assert!((s.savings() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn verified_put_rejects_wrong_digest() {
        let cas = Cas::new();
        let wrong = sha256(b"something else");
        let err = cas
            .put_verified(MediaType::Layer, wrong, b"real bytes".to_vec())
            .unwrap_err();
        assert!(matches!(err, CasError::DigestMismatch { .. }));
        assert_eq!(cas.stats().blobs, 0);
    }

    #[test]
    fn verified_put_accepts_right_digest() {
        let cas = Cas::new();
        let d = sha256(b"real bytes");
        let desc = cas
            .put_verified(MediaType::Layer, d, b"real bytes".to_vec())
            .unwrap();
        assert_eq!(desc.digest, d);
        assert_eq!(&**cas.get(&d).unwrap(), b"real bytes");
        let s = cas.stats();
        assert_eq!((s.blobs, s.logical_bytes, s.dedup_hits), (1, 10, 0));
    }

    #[test]
    fn sealed_put_shares_the_layer_bytes() {
        let mut archive = hpcc_codec::archive::Archive::new();
        archive.push(hpcc_codec::archive::Entry::file("x", vec![7u8; 64]));
        let sealed = SealedLayer::seal(archive.clone());
        let cas = Cas::new();
        let desc = cas.put_sealed(&sealed);
        assert_eq!(desc, Cas::new().put(MediaType::Layer, archive.to_bytes()));
        assert!(Arc::ptr_eq(&cas.get(&desc.digest).unwrap(), sealed.bytes()));
    }

    #[test]
    fn missing_blob_errors() {
        let cas = Cas::new();
        let d = sha256(b"missing");
        assert!(matches!(cas.get(&d), Err(CasError::NotFound(_))));
        assert!(!cas.has(&d));
    }

    #[test]
    fn digests_sorted() {
        let cas = Cas::new();
        cas.put(MediaType::Layer, b"a".to_vec());
        cas.put(MediaType::Layer, b"b".to_vec());
        cas.put(MediaType::Layer, b"c".to_vec());
        let ds = cas.digests();
        assert_eq!(ds.len(), 3);
        assert!(ds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn concurrent_puts_dedup() {
        let cas = Arc::new(Cas::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cas = Arc::clone(&cas);
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        cas.put(MediaType::Layer, i.to_be_bytes().to_vec());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = cas.stats();
        assert_eq!(s.blobs, 100);
        assert_eq!(s.logical_bytes, 8 * 100 * 4);
        assert_eq!(s.stored_bytes, 100 * 4);
    }
}
