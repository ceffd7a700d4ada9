//! The Singularity Image Format (SIF) analogue.
//!
//! §4.1.4: "all commands to build the container can be placed in a single
//! section, as layering is not available in the flat Singularity Image
//! Format. SIF integrates writable overlay data ..." and §4.1.5: Apptainer
//! "has built its signing solution on PGP ... although only for its own
//! SIF container".
//!
//! A SIF file here is: a definition text (the `.def`), one flat squash
//! partition, optional embedded signatures over the partition, an optional
//! writable overlay blob, and an optionally encrypted partition. All
//! sections serialize into a single content-digested file.

use hpcc_codec::wire::{put_bytes, put_str, put_varint, Reader, WireError};
use hpcc_crypto::aead::{self, AeadKey, Sealed};
use hpcc_crypto::sha256::{sha256, Digest};
use hpcc_crypto::wots::{self, Keypair, PublicKey, Signature};
use hpcc_vfs::fs::MemFs;
use hpcc_vfs::path::VPath;
use hpcc_vfs::squash::{SquashError, SquashImage};

const MAGIC: &[u8; 4] = b"HSIF";

/// Errors handling SIF files.
#[derive(Debug)]
pub enum SifError {
    Wire(WireError),
    BadMagic,
    Squash(SquashError),
    /// Signature present but invalid.
    BadSignature,
    /// Operation requires a plaintext partition but it is encrypted.
    Encrypted,
    /// Decryption failed (wrong key / tampered).
    DecryptFailed,
    /// The partition is not encrypted.
    NotEncrypted,
    Serde(String),
    /// Bytes after the last section.
    TrailingBytes,
}

impl From<WireError> for SifError {
    fn from(e: WireError) -> Self {
        SifError::Wire(e)
    }
}
impl From<SquashError> for SifError {
    fn from(e: SquashError) -> Self {
        SifError::Squash(e)
    }
}

impl std::fmt::Display for SifError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SifError::Wire(e) => write!(f, "wire: {e}"),
            SifError::BadMagic => f.write_str("not a SIF file"),
            SifError::Squash(e) => write!(f, "squash: {e}"),
            SifError::BadSignature => f.write_str("SIF signature invalid"),
            SifError::Encrypted => f.write_str("partition is encrypted"),
            SifError::DecryptFailed => f.write_str("decryption failed"),
            SifError::NotEncrypted => f.write_str("partition is not encrypted"),
            SifError::Serde(s) => write!(f, "serialization: {s}"),
            SifError::TrailingBytes => f.write_str("trailing bytes after the last section"),
        }
    }
}

impl std::error::Error for SifError {}

/// An in-memory SIF.
#[derive(Debug, Clone)]
pub struct SifImage {
    /// The build definition (`.def`) text.
    pub definition: String,
    /// The flat root partition: serialized squash image, or AEAD-sealed
    /// bytes when encrypted.
    partition: Vec<u8>,
    encrypted: bool,
    /// Embedded signatures: (signer public key, signature over the
    /// partition digest).
    signatures: Vec<(PublicKey, Signature)>,
    /// Writable overlay data bundled with the image (§4.1.4).
    pub overlay: Option<Vec<u8>>,
}

impl SifImage {
    /// Build from a root filesystem and a definition text.
    pub fn build(definition: &str, rootfs: &MemFs) -> Result<SifImage, SifError> {
        let squash = SquashImage::build(rootfs, &VPath::root(), hpcc_codec::compress::Codec::Lz)?;
        Ok(SifImage {
            definition: definition.to_string(),
            partition: std::sync::Arc::unwrap_or_clone(squash.into_bytes()),
            encrypted: false,
            signatures: Vec::new(),
            overlay: None,
        })
    }

    /// Digest of the partition (what signatures cover).
    pub(crate) fn partition_digest(&self) -> Digest {
        sha256(&self.partition)
    }

    pub fn is_encrypted(&self) -> bool {
        self.encrypted
    }

    /// Open the root partition for reading (fails when encrypted).
    pub fn open_partition(&self) -> Result<SquashImage, SifError> {
        if self.encrypted {
            return Err(SifError::Encrypted);
        }
        Ok(SquashImage::from_bytes(self.partition.clone())?)
    }

    /// Sign the partition, embedding the signature (GPG-for-SIF model).
    pub fn sign(&mut self, keypair: &mut Keypair) -> Result<(), SifError> {
        let digest = self.partition_digest();
        let sig = keypair
            .sign(&digest)
            .map_err(|e| SifError::Serde(e.to_string()))?;
        self.signatures.push((keypair.public(), sig));
        Ok(())
    }

    /// Verify all embedded signatures; returns the signer key ids.
    /// Fails if there are none or any is invalid.
    pub fn verify(&self) -> Result<Vec<String>, SifError> {
        if self.signatures.is_empty() {
            return Err(SifError::BadSignature);
        }
        let digest = self.partition_digest();
        let mut signers = Vec::with_capacity(self.signatures.len());
        for (pk, sig) in &self.signatures {
            if !wots::verify(pk, &digest, sig) {
                return Err(SifError::BadSignature);
            }
            signers.push(pk.key_id());
        }
        Ok(signers)
    }

    /// Encrypt the partition in place (signatures over the plaintext are
    /// dropped — they would no longer verify).
    pub(crate) fn encrypt(&mut self, key: &AeadKey, nonce: [u8; 12]) -> Result<(), SifError> {
        if self.encrypted {
            return Err(SifError::Encrypted);
        }
        let sealed = aead::seal(key, nonce, self.definition.as_bytes(), &self.partition);
        self.partition = sealed.to_bytes();
        self.encrypted = true;
        self.signatures.clear();
        Ok(())
    }

    /// Decrypt the partition in place.
    pub(crate) fn decrypt(&mut self, key: &AeadKey) -> Result<(), SifError> {
        if !self.encrypted {
            return Err(SifError::NotEncrypted);
        }
        let sealed = Sealed::from_bytes(&self.partition).ok_or(SifError::DecryptFailed)?;
        let plain = aead::open(key, self.definition.as_bytes(), &sealed)
            .map_err(|_| SifError::DecryptFailed)?;
        self.partition = plain;
        self.encrypted = false;
        Ok(())
    }

    /// Serialize the whole SIF to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.partition.len() + 1024);
        out.extend_from_slice(MAGIC);
        put_str(&mut out, &self.definition);
        out.push(self.encrypted as u8);
        put_bytes(&mut out, &self.partition);
        put_varint(&mut out, self.signatures.len() as u64);
        for (pk, sig) in &self.signatures {
            put_bytes(&mut out, &pk.to_bytes());
            put_bytes(&mut out, &sig.to_bytes());
        }
        match &self.overlay {
            Some(data) => {
                out.push(1);
                put_bytes(&mut out, data);
            }
            None => out.push(0),
        }
        out
    }

    /// Parse a SIF from bytes.
    pub fn from_bytes(data: &[u8]) -> Result<SifImage, SifError> {
        let mut r = Reader::new(data);
        if r.take(4)? != MAGIC {
            return Err(SifError::BadMagic);
        }
        // A flag byte is 0 or 1, as `to_bytes` writes it: one value, one
        // encoding.
        let flag = |r: &mut Reader<'_>| match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SifError::Serde(format!("flag byte {b}"))),
        };
        let definition = r.str()?.to_string();
        let encrypted = flag(&mut r)?;
        let partition = r.bytes()?.to_vec();
        let n = r.varint()? as usize;
        let mut signatures = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            let pk = PublicKey::from_bytes(r.bytes()?)
                .ok_or_else(|| SifError::Serde("bad public key".into()))?;
            let sig = Signature::from_bytes(r.bytes()?)
                .ok_or_else(|| SifError::Serde("bad signature".into()))?;
            signatures.push((pk, sig));
        }
        let overlay = if flag(&mut r)? {
            Some(r.bytes()?.to_vec())
        } else {
            None
        };
        if !r.is_empty() {
            return Err(SifError::TrailingBytes);
        }
        Ok(SifImage {
            definition,
            partition,
            encrypted,
            signatures,
            overlay,
        })
    }

    /// Content digest of the serialized SIF.
    pub fn digest(&self) -> Digest {
        sha256(&self.to_bytes())
    }

    /// Size in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.to_bytes().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> VPath {
        VPath::parse(s)
    }

    fn rootfs() -> MemFs {
        let mut fs = MemFs::new();
        fs.write_p(&p("/bin/tool"), vec![0xAB; 4096]).unwrap();
        fs.write_p(&p("/etc/conf"), b"mode=fast\n".to_vec())
            .unwrap();
        fs
    }

    const DEF: &str = "Bootstrap: library\nFrom: base\n%post\n  install tool\n";

    #[test]
    fn build_and_read_partition() {
        let sif = SifImage::build(DEF, &rootfs()).unwrap();
        let part = sif.open_partition().unwrap();
        assert_eq!(part.read_file("bin/tool").unwrap(), vec![0xAB; 4096]);
        assert_eq!(sif.definition, DEF);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut sif = SifImage::build(DEF, &rootfs()).unwrap();
        sif.overlay = Some(vec![9u8; 128]);
        let parsed = SifImage::from_bytes(&sif.to_bytes()).unwrap();
        assert_eq!(parsed.definition, sif.definition);
        assert_eq!(parsed.overlay, Some(vec![9u8; 128]));
        assert_eq!(parsed.digest(), sif.digest());
    }

    #[test]
    fn sign_and_verify() {
        let mut sif = SifImage::build(DEF, &rootfs()).unwrap();
        let mut key = Keypair::generate(b"signer", 2);
        sif.sign(&mut key).unwrap();
        let signers = sif.verify().unwrap();
        assert_eq!(signers, vec![key.public().key_id()]);
        // Survives serialization.
        let parsed = SifImage::from_bytes(&sif.to_bytes()).unwrap();
        assert_eq!(parsed.verify().unwrap().len(), 1);
    }

    #[test]
    fn tampered_partition_fails_verification() {
        let mut sif = SifImage::build(DEF, &rootfs()).unwrap();
        let mut key = Keypair::generate(b"signer", 1);
        sif.sign(&mut key).unwrap();
        // Tamper through serialization.
        let mut bytes = sif.to_bytes();
        let off = bytes.len() / 2;
        bytes[off] ^= 0xFF;
        if let Ok(parsed) = SifImage::from_bytes(&bytes) {
            assert!(parsed.verify().is_err());
        }
    }

    #[test]
    fn unsigned_sif_fails_verify() {
        let sif = SifImage::build(DEF, &rootfs()).unwrap();
        assert!(matches!(sif.verify(), Err(SifError::BadSignature)));
    }

    #[test]
    fn multiple_signers() {
        let mut sif = SifImage::build(DEF, &rootfs()).unwrap();
        let mut k1 = Keypair::generate(b"one", 1);
        let mut k2 = Keypair::generate(b"two", 1);
        sif.sign(&mut k1).unwrap();
        sif.sign(&mut k2).unwrap();
        assert_eq!(sif.verify().unwrap().len(), 2);
        assert_eq!(sif.signatures.len(), 2);
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut sif = SifImage::build(DEF, &rootfs()).unwrap();
        let key = AeadKey::derive(b"secret");
        sif.encrypt(&key, [3; 12]).unwrap();
        assert!(sif.is_encrypted());
        assert!(matches!(sif.open_partition(), Err(SifError::Encrypted)));
        sif.decrypt(&key).unwrap();
        assert_eq!(
            sif.open_partition().unwrap().read_file("bin/tool").unwrap(),
            vec![0xAB; 4096]
        );
    }

    #[test]
    fn wrong_key_fails_decrypt() {
        let mut sif = SifImage::build(DEF, &rootfs()).unwrap();
        sif.encrypt(&AeadKey::derive(b"right"), [3; 12]).unwrap();
        assert!(matches!(
            sif.decrypt(&AeadKey::derive(b"wrong")),
            Err(SifError::DecryptFailed)
        ));
    }

    #[test]
    fn encryption_drops_plaintext_signatures() {
        let mut sif = SifImage::build(DEF, &rootfs()).unwrap();
        let mut key = Keypair::generate(b"s", 1);
        sif.sign(&mut key).unwrap();
        sif.encrypt(&AeadKey::derive(b"k"), [0; 12]).unwrap();
        assert_eq!(sif.signatures.len(), 0);
    }

    #[test]
    fn encrypted_sif_roundtrips_serialization() {
        let mut sif = SifImage::build(DEF, &rootfs()).unwrap();
        let key = AeadKey::derive(b"k");
        sif.encrypt(&key, [7; 12]).unwrap();
        let mut parsed = SifImage::from_bytes(&sif.to_bytes()).unwrap();
        assert!(parsed.is_encrypted());
        parsed.decrypt(&key).unwrap();
        assert!(parsed.open_partition().is_ok());
    }

    #[test]
    fn double_encrypt_rejected() {
        let mut sif = SifImage::build(DEF, &rootfs()).unwrap();
        let key = AeadKey::derive(b"k");
        sif.encrypt(&key, [0; 12]).unwrap();
        assert!(matches!(
            sif.encrypt(&key, [0; 12]),
            Err(SifError::Encrypted)
        ));
        let mut plain = SifImage::build(DEF, &rootfs()).unwrap();
        assert!(matches!(plain.decrypt(&key), Err(SifError::NotEncrypted)));
    }

    /// A byte appended to a SIF used to parse as the SIF without it.
    #[test]
    fn trailing_byte_is_rejected() {
        let mut bytes = SifImage::build(DEF, &rootfs()).unwrap().to_bytes();
        bytes.push(0);
        assert!(matches!(
            SifImage::from_bytes(&bytes),
            Err(SifError::TrailingBytes)
        ));
    }

    use proptest::prelude::*;

    /// A signature-shaped encoding: leaf, 67 chains, an auth path of
    /// `path` nodes, every byte `fill`.
    fn signature(path: u8, fill: u8) -> Signature {
        let mut bytes = vec![fill; 4];
        bytes.extend_from_slice(&67u32.to_be_bytes());
        bytes.resize(bytes.len() + 67 * 32, fill);
        bytes.extend_from_slice(&u32::from(path).to_be_bytes());
        bytes.resize(bytes.len() + 32 * path as usize, fill);
        Signature::from_bytes(&bytes).expect("a well-formed signature")
    }

    fn arb_sif() -> impl Strategy<Value = SifImage> {
        (
            "[ -~]{0,24}",
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 0..64),
            proptest::collection::vec((any::<[u8; 32]>(), 0u8..13, any::<u8>()), 0..3),
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 0..32),
        )
            .prop_map(
                |(definition, encrypted, partition, signers, has_overlay, overlay)| SifImage {
                    definition,
                    partition,
                    encrypted,
                    signatures: signers
                        .into_iter()
                        .map(|(root, height, fill)| {
                            let pk = PublicKey {
                                root: Digest(root),
                                height,
                            };
                            (pk, signature(height, fill))
                        })
                        .collect(),
                    overlay: has_overlay.then_some(overlay),
                },
            )
    }

    /// A count or length: small, or anything.
    fn hostile_varint() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..80, any::<u64>()]
    }

    /// Valid magic, then the sections' varints and flag bytes, each
    /// followed by a few bytes of garbage, then a cut anywhere.
    fn hostile_sif() -> impl Strategy<Value = Vec<u8>> {
        (
            proptest::collection::vec(
                (
                    hostile_varint(),
                    0u8..3,
                    proptest::collection::vec(any::<u8>(), 0..40),
                ),
                0..6,
            ),
            any::<u16>(),
        )
            .prop_map(|(sections, cut)| {
                let mut out = MAGIC.to_vec();
                for (len, flag, body) in sections {
                    put_varint(&mut out, len);
                    out.push(flag);
                    out.extend_from_slice(&body);
                }
                if cut % 3 == 0 {
                    out.truncate(cut as usize % (out.len() + 1));
                }
                out
            })
    }

    proptest! {
        #[test]
        fn sif_roundtrips(sif in arb_sif()) {
            let bytes = sif.to_bytes();
            let back = SifImage::from_bytes(&bytes).unwrap();
            prop_assert_eq!(back.to_bytes(), bytes);
            prop_assert_eq!(back.signatures, sif.signatures);
            prop_assert_eq!(back.overlay, sif.overlay);
        }

        /// Structure-aware garbage never panics the parser, and whatever
        /// parses encodes back to bytes that parse to the same encoding.
        #[test]
        fn parser_never_panics_on_hostile_bytes(
            garbage in hostile_sif(),
            valid in arb_sif(),
            flip in (any::<u16>(), 1u8..=255),
        ) {
            let mut flipped = valid.to_bytes();
            let at = flip.0 as usize % flipped.len();
            flipped[at] ^= flip.1;
            for bytes in [garbage, flipped] {
                if let Ok(sif) = SifImage::from_bytes(&bytes) {
                    let again = sif.to_bytes();
                    prop_assert_eq!(SifImage::from_bytes(&again).unwrap().to_bytes(), again);
                }
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            SifImage::from_bytes(b"NOPE"),
            Err(SifError::BadMagic)
        ));
    }
}
