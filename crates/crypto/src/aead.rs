//! Authenticated encryption: ChaCha20 + HMAC-SHA256, encrypt-then-MAC.
//!
//! Models SIF encrypted partitions. The MAC covers
//! `nonce || aad_len || aad || ciphertext` so truncation and context-swap
//! attacks are detected, which is what the "encrypted container support"
//! rows of Table 2 actually test.

use crate::chacha20::{self, KEY_LEN, NONCE_LEN};
use crate::hmac::{hmac_sha256, verify_mac};
use crate::sha256::Digest;
use serde::{Deserialize, Serialize};

/// A symmetric AEAD key: independent cipher and MAC subkeys derived from a
/// master key.
#[derive(Clone, Serialize, Deserialize)]
pub struct AeadKey {
    enc: [u8; KEY_LEN],
    mac: [u8; KEY_LEN],
}

impl std::fmt::Debug for AeadKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("AeadKey(..)")
    }
}

impl AeadKey {
    /// Derive subkeys from a master secret (HKDF-like: HMAC with distinct
    /// info strings).
    pub fn derive(master: &[u8]) -> AeadKey {
        let enc = hmac_sha256(master, b"hpcc-aead-enc").0;
        let mac = hmac_sha256(master, b"hpcc-aead-mac").0;
        AeadKey { enc, mac }
    }

    /// A fingerprint identifying the key without revealing it.
    pub fn fingerprint(&self) -> Digest {
        hmac_sha256(&self.mac, b"hpcc-aead-fingerprint")
    }
}

/// A sealed (encrypted + authenticated) blob.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sealed {
    pub nonce: [u8; NONCE_LEN],
    pub ciphertext: Vec<u8>,
    pub tag: [u8; 32],
}

impl Sealed {
    /// Serialize: nonce || tag || ciphertext.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(NONCE_LEN + 32 + self.ciphertext.len());
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&self.tag);
        out.extend_from_slice(&self.ciphertext);
        out
    }

    /// Parse bytes produced by [`Sealed::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Option<Sealed> {
        if data.len() < NONCE_LEN + 32 {
            return None;
        }
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(&data[..NONCE_LEN]);
        let mut tag = [0u8; 32];
        tag.copy_from_slice(&data[NONCE_LEN..NONCE_LEN + 32]);
        Some(Sealed {
            nonce,
            tag,
            ciphertext: data[NONCE_LEN + 32..].to_vec(),
        })
    }
}

/// Errors from [`open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AeadError {
    /// MAC verification failed: wrong key, tampered ciphertext, or wrong
    /// associated data.
    Unauthentic,
}

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ciphertext failed authentication")
    }
}

impl std::error::Error for AeadError {}

fn mac_input(nonce: &[u8; NONCE_LEN], aad: &[u8], ciphertext: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(NONCE_LEN + 8 + aad.len() + ciphertext.len());
    buf.extend_from_slice(nonce);
    buf.extend_from_slice(&(aad.len() as u64).to_be_bytes());
    buf.extend_from_slice(aad);
    buf.extend_from_slice(ciphertext);
    buf
}

/// Encrypt `plaintext` with associated data `aad` under `key`/`nonce`.
pub fn seal(key: &AeadKey, nonce: [u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Sealed {
    let ciphertext = chacha20::apply(&key.enc, &nonce, 1, plaintext);
    let tag = hmac_sha256(&key.mac, &mac_input(&nonce, aad, &ciphertext)).0;
    Sealed {
        nonce,
        ciphertext,
        tag,
    }
}

/// Verify and decrypt a sealed blob.
pub fn open(key: &AeadKey, aad: &[u8], sealed: &Sealed) -> Result<Vec<u8>, AeadError> {
    let expected = hmac_sha256(&key.mac, &mac_input(&sealed.nonce, aad, &sealed.ciphertext));
    if !verify_mac(&expected, &Digest(sealed.tag)) {
        return Err(AeadError::Unauthentic);
    }
    Ok(chacha20::apply(
        &key.enc,
        &sealed.nonce,
        1,
        &sealed.ciphertext,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key() -> AeadKey {
        AeadKey::derive(b"test master secret")
    }

    #[test]
    fn seal_open_roundtrip() {
        let k = key();
        let sealed = seal(&k, [1; 12], b"image-ref", b"layer bytes");
        assert_eq!(open(&k, b"image-ref", &sealed).unwrap(), b"layer bytes");
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let k = key();
        let mut sealed = seal(&k, [1; 12], b"", b"payload");
        sealed.ciphertext[0] ^= 0x80;
        assert_eq!(open(&k, b"", &sealed), Err(AeadError::Unauthentic));
    }

    #[test]
    fn tampered_tag_rejected() {
        let k = key();
        let mut sealed = seal(&k, [1; 12], b"", b"payload");
        sealed.tag[0] ^= 1;
        assert_eq!(open(&k, b"", &sealed), Err(AeadError::Unauthentic));
    }

    #[test]
    fn wrong_aad_rejected() {
        let k = key();
        let sealed = seal(&k, [1; 12], b"repo-a", b"payload");
        assert_eq!(open(&k, b"repo-b", &sealed), Err(AeadError::Unauthentic));
    }

    #[test]
    fn wrong_key_rejected() {
        let sealed = seal(&key(), [1; 12], b"", b"payload");
        let other = AeadKey::derive(b"other master");
        assert_eq!(open(&other, b"", &sealed), Err(AeadError::Unauthentic));
    }

    #[test]
    fn fingerprint_is_stable_and_keyed() {
        assert_eq!(key().fingerprint(), key().fingerprint());
        assert_ne!(key().fingerprint(), AeadKey::derive(b"other").fingerprint());
    }

    #[test]
    fn debug_hides_key_material() {
        assert_eq!(format!("{:?}", key()), "AeadKey(..)");
    }

    proptest! {
        #[test]
        fn roundtrip_any(data in proptest::collection::vec(any::<u8>(), 0..1024),
                         aad in proptest::collection::vec(any::<u8>(), 0..64),
                         nonce in any::<[u8; 12]>()) {
            let k = key();
            let sealed = seal(&k, nonce, &aad, &data);
            prop_assert_eq!(open(&k, &aad, &sealed).unwrap(), data);
        }

        #[test]
        fn sealed_bytes_roundtrip(nonce in any::<[u8; 12]>(),
                                  tag in any::<[u8; 32]>(),
                                  ciphertext in proptest::collection::vec(any::<u8>(), 0..96)) {
            let sealed = Sealed { nonce, ciphertext, tag };
            prop_assert_eq!(Sealed::from_bytes(&sealed.to_bytes()), Some(sealed));
        }

        /// Any bytes: shorter than a nonce and a tag is `None`, anything
        /// longer parses and encodes back to itself.
        #[test]
        fn sealed_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
            match Sealed::from_bytes(&bytes) {
                None => prop_assert!(bytes.len() < NONCE_LEN + 32),
                Some(sealed) => prop_assert_eq!(sealed.to_bytes(), bytes),
            }
        }
    }
}
