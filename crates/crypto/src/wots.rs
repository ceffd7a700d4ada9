//! Hash-based signatures: Winternitz one-time signatures (WOTS) under a
//! Merkle many-time public key (an XMSS-like construction).
//!
//! The survey compares engines and registries on *signature support* (GPG
//! for Singularity/SIF, sigstore/cosign for Podman and the registries).
//! What those rows need from the crypto layer is: keypairs with stable
//! public identities, detached signatures over digests, verification that
//! fails on any tamper, and statefulness managed safely. A hash-based
//! scheme provides all of that from SHA-256 alone, with no bignum
//! arithmetic — which is why it is the substitution of choice here (see
//! DESIGN.md).
//!
//! Parameters: Winternitz `w = 16` (4-bit digits), 64 message digits +
//! 3 checksum digits = 67 chains over 32-byte values.

#[cfg(test)]
use crate::sha256::sha256;
use crate::sha256::{Digest, Sha256, SharedPrefix};
use serde::{Deserialize, Serialize};

const DIGITS_MSG: usize = 64;
const DIGITS_CSUM: usize = 3;
const CHAINS: usize = DIGITS_MSG + DIGITS_CSUM;
const W: u32 = 16;
/// The tallest Merkle tree a keypair has (`2^12` leaves keeps generation
/// tractable); a public key declaring more is malformed.
const MAX_HEIGHT: u8 = 12;

/// Map a 32-byte digest to 67 base-16 digits (message digits + checksum).
fn digits(msg: &Digest) -> [u8; CHAINS] {
    let mut out = [0u8; CHAINS];
    for (i, byte) in msg.0.iter().enumerate() {
        out[i * 2] = byte >> 4;
        out[i * 2 + 1] = byte & 0xf;
    }
    let csum: u32 = out[..DIGITS_MSG].iter().map(|d| (W - 1) - *d as u32).sum();
    // csum <= 64 * 15 = 960 < 16^3, three base-16 digits.
    out[DIGITS_MSG] = ((csum >> 8) & 0xf) as u8;
    out[DIGITS_MSG + 1] = ((csum >> 4) & 0xf) as u8;
    out[DIGITS_MSG + 2] = (csum & 0xf) as u8;
    out
}

/// Big-endian words of `bytes`, zero-padded to `N` words.
fn be_words<const N: usize>(bytes: &[u8]) -> [u32; N] {
    let mut out = [0; N];
    for (word, chunk) in out.iter_mut().zip(bytes.chunks(4)) {
        let mut be = [0; 4];
        be[..chunk.len()].copy_from_slice(chunk);
        *word = u32::from_be_bytes(be);
    }
    out
}

fn be_bytes(words: &[u32; 8]) -> [u8; 32] {
    let mut out = [0; 32];
    for (be, word) in out.chunks_exact_mut(4).zip(words) {
        be.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// A one-time secret key: 67 chain seeds, as digest words, derived from a
/// master seed and a leaf index. Chain `c`'s seed is
/// `H("hpcc-wots-sk" || master || leaf || c)`, one 52-byte block; four
/// chains are hashed at a time.
fn ots_secret(master: &[u8; 32], leaf: u32) -> [[u32; 8]; CHAINS] {
    let m: [u32; 8] = be_words(master);
    let tag: [u32; 4] = be_words(b"hpcc-wots-sk");
    let prefix = SharedPrefix::new([tag[0], tag[1], tag[2], m[0]]);
    let mut rest = [[0; 4]; 12];
    for (lanes, word) in rest.iter_mut().zip(&m[1..]) {
        *lanes = [*word; 4];
    }
    rest[7] = [leaf; 4];
    rest[9] = [0x8000_0000; 4];
    rest[11] = [52 * 8; 4];
    let mut out = [[0; 8]; CHAINS];
    for (group, seeds) in (0..).zip(out.chunks_mut(4)) {
        rest[8] = std::array::from_fn(|lane| 4 * group + lane as u32);
        let digests = prefix.compress4(&rest);
        for (lane, seed) in seeds.iter_mut().enumerate() {
            *seed = digests.map(|w| w[lane]);
        }
    }
    out
}

/// `steps` steps of chain `chain`, from step `start`.
struct Walk {
    chain: u32,
    start: u32,
    steps: u32,
}

/// Walk chains four at a time. `values[i]` holds the start value of
/// `walks[i]` as digest words and ends holding its last. Step `s` of chain
/// `c` maps `x` to `H("hpcc-wots-chain" || c || s || x)`, one 55-byte
/// block. A lane whose chain ends takes the next one at once, so chains of
/// different lengths share the lanes.
fn walk_chains(walks: &[Walk], values: &mut [[u32; 8]]) {
    // The tag fills the first four words but their last byte, which is the
    // high byte of the chain index: zero, as `CHAINS < 2^24`.
    let prefix = SharedPrefix::new(be_words(b"hpcc-wots-chain"));
    let mut pending = (0..).zip(walks).filter(|(_, w)| w.steps > 0);
    let mut owner: [Option<usize>; 4] = [None; 4];
    let (mut chain, mut step, mut left) = ([0u32; 4], [0u32; 4], [0u32; 4]);
    // Digest words, lanes inner, as `SharedPrefix::compress4` takes them.
    let mut x = [[0u32; 4]; 8];
    loop {
        for lane in 0..4 {
            if owner[lane].is_some() {
                continue;
            }
            if let Some((i, walk)) = pending.next() {
                owner[lane] = Some(i);
                (chain[lane], step[lane], left[lane]) = (walk.chain, walk.start, walk.steps);
                for (lanes, word) in x.iter_mut().zip(values[i]) {
                    lanes[lane] = word;
                }
            }
        }
        if owner == [None; 4] {
            return;
        }
        // Words 4.. of the block: the low three bytes of the chain index,
        // the step, then x one byte late (each word straddles two of x's),
        // then the padding of a 55-byte message.
        let mut rest = [[0; 4]; 12];
        for lane in 0..4 {
            rest[0][lane] = (chain[lane] << 8) | (step[lane] >> 24);
            rest[1][lane] = (step[lane] << 8) | (x[0][lane] >> 24);
            for k in 1..8 {
                rest[k + 1][lane] = (x[k - 1][lane] << 8) | (x[k][lane] >> 24);
            }
            rest[9][lane] = (x[7][lane] << 8) | 0x80;
            rest[11][lane] = 55 * 8;
        }
        x = prefix.compress4(&rest);
        for lane in 0..4 {
            let Some(i) = owner[lane] else { continue };
            step[lane] += 1;
            left[lane] -= 1;
            if left[lane] == 0 {
                values[i] = x.map(|w| w[lane]);
                owner[lane] = None;
            }
        }
    }
}

/// The compressed OTS public key over the chains' last values.
fn ots_public_key(ends: &[[u32; 8]]) -> Digest {
    let mut h = Sha256::new();
    h.update(b"hpcc-wots-pk");
    for end in ends {
        h.update(&be_bytes(end));
    }
    h.finalize()
}

/// Compressed OTS public key for a leaf.
fn ots_public(master: &[u8; 32], leaf: u32) -> Digest {
    let mut values = ots_secret(master, leaf);
    let walks: Vec<Walk> = (0..CHAINS as u32)
        .map(|chain| Walk {
            chain,
            start: 0,
            steps: W - 1,
        })
        .collect();
    walk_chains(&walks, &mut values);
    ots_public_key(&values)
}

fn merkle_parent(l: &Digest, r: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(b"hpcc-wots-node");
    h.update(&l.0);
    h.update(&r.0);
    h.finalize()
}

/// A many-time public key: the Merkle root over `2^height` OTS leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PublicKey {
    pub root: Digest,
    pub height: u8,
}

impl PublicKey {
    /// A short printable key identifier (like a GPG key id).
    pub fn key_id(&self) -> String {
        self.root.short()
    }
}

/// A detached signature: the leaf index, the WOTS chain values, and the
/// Merkle authentication path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    pub leaf: u32,
    chains: Vec<[u8; 32]>,
    auth_path: Vec<Digest>,
}

impl Signature {
    /// Serialized size in bytes (for the registry storage accounting).
    pub(crate) fn size_bytes(&self) -> usize {
        4 + self.chains.len() * 32 + self.auth_path.len() * 32
    }

    /// Serialize to bytes (fixed layout: leaf, chain count, chains, path
    /// count, path nodes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_bytes() + 8);
        out.extend_from_slice(&self.leaf.to_be_bytes());
        out.extend_from_slice(&(self.chains.len() as u32).to_be_bytes());
        for c in &self.chains {
            out.extend_from_slice(c);
        }
        out.extend_from_slice(&(self.auth_path.len() as u32).to_be_bytes());
        for d in &self.auth_path {
            out.extend_from_slice(&d.0);
        }
        out
    }

    /// Parse from bytes produced by [`Signature::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Option<Signature> {
        fn take<'a>(data: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
            if data.len() < n {
                return None;
            }
            let (head, rest) = data.split_at(n);
            *data = rest;
            Some(head)
        }
        let mut d = data;
        let leaf = u32::from_be_bytes(take(&mut d, 4)?.try_into().ok()?);
        let nc = u32::from_be_bytes(take(&mut d, 4)?.try_into().ok()?) as usize;
        if nc > 1024 {
            return None;
        }
        let mut chains = Vec::with_capacity(nc);
        for _ in 0..nc {
            chains.push(take(&mut d, 32)?.try_into().ok()?);
        }
        let np = u32::from_be_bytes(take(&mut d, 4)?.try_into().ok()?) as usize;
        if np > 64 {
            return None;
        }
        let mut auth_path = Vec::with_capacity(np);
        for _ in 0..np {
            let arr: [u8; 32] = take(&mut d, 32)?.try_into().ok()?;
            auth_path.push(Digest(arr));
        }
        if !d.is_empty() {
            return None;
        }
        Some(Signature {
            leaf,
            chains,
            auth_path,
        })
    }
}

impl PublicKey {
    /// Serialize to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(33);
        out.extend_from_slice(&self.root.0);
        out.push(self.height);
        out
    }

    /// Parse from bytes produced by [`PublicKey::to_bytes`]. A height no
    /// keypair can have is rejected.
    pub fn from_bytes(data: &[u8]) -> Option<PublicKey> {
        if data.len() != 33 || data[32] > MAX_HEIGHT {
            return None;
        }
        let mut root = [0u8; 32];
        root.copy_from_slice(&data[..32]);
        Some(PublicKey {
            root: Digest(root),
            height: data[32],
        })
    }
}

/// Errors from signing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignError {
    /// All one-time leaves have been used; the key must be rotated.
    KeyExhausted,
}

impl std::fmt::Display for SignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("all one-time signature leaves used; rotate the key")
    }
}

impl std::error::Error for SignError {}

/// A stateful many-time signing key.
#[derive(Clone, Serialize, Deserialize)]
pub struct Keypair {
    master: [u8; 32],
    height: u8,
    next_leaf: u32,
    /// All levels of the Merkle tree, leaves first.
    tree: Vec<Vec<Digest>>,
}

impl std::fmt::Debug for Keypair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Keypair(key_id={}, used={}/{})",
            self.public().key_id(),
            self.next_leaf,
            1u32 << self.height
        )
    }
}

impl Keypair {
    /// Generate a keypair with `2^height` one-time leaves from a master
    /// seed. `height` is at most 12 (`MAX_HEIGHT`); each leaf costs 1,072
    /// one-block hashes.
    pub fn generate(seed: &[u8], height: u8) -> Keypair {
        assert!(height <= MAX_HEIGHT, "keep key generation tractable");
        let master = {
            let mut h = Sha256::new();
            h.update(b"hpcc-wots-master");
            h.update(seed);
            h.finalize().0
        };
        let n = 1usize << height;
        let leaves: Vec<Digest> = (0..n as u32).map(|i| ots_public(&master, i)).collect();
        let mut tree = vec![leaves];
        while tree.last().expect("non-empty").len() > 1 {
            let prev = tree.last().expect("non-empty");
            let next: Vec<Digest> = prev
                .chunks(2)
                .map(|pair| merkle_parent(&pair[0], &pair[1]))
                .collect();
            tree.push(next);
        }
        Keypair {
            master,
            height,
            next_leaf: 0,
            tree,
        }
    }

    /// The verifying key.
    pub fn public(&self) -> PublicKey {
        PublicKey {
            root: self.tree.last().expect("non-empty")[0],
            height: self.height,
        }
    }

    /// Leaves remaining before the key is exhausted.
    pub fn remaining(&self) -> u32 {
        (1u32 << self.height) - self.next_leaf
    }

    /// Sign a message digest, consuming one leaf.
    pub fn sign(&mut self, message: &Digest) -> Result<Signature, SignError> {
        if self.next_leaf >= 1u32 << self.height {
            return Err(SignError::KeyExhausted);
        }
        let leaf = self.next_leaf;
        self.next_leaf += 1;

        let mut values = ots_secret(&self.master, leaf);
        let walks: Vec<Walk> = (0..CHAINS as u32)
            .zip(digits(message))
            .map(|(chain, d)| Walk {
                chain,
                start: 0,
                steps: d as u32,
            })
            .collect();
        walk_chains(&walks, &mut values);
        let chains = values.iter().map(be_bytes).collect();

        // Merkle authentication path.
        let mut auth_path = Vec::with_capacity(self.height as usize);
        let mut idx = leaf as usize;
        for level in 0..self.height as usize {
            let sibling = idx ^ 1;
            auth_path.push(self.tree[level][sibling]);
            idx >>= 1;
        }

        Ok(Signature {
            leaf,
            chains,
            auth_path,
        })
    }
}

/// Verify a detached signature over `message` against `public`. Total: a
/// key or signature of any shape gets an answer, never a panic.
pub fn verify(public: &PublicKey, message: &Digest, sig: &Signature) -> bool {
    if public.height > MAX_HEIGHT
        || sig.chains.len() != CHAINS
        || sig.auth_path.len() != public.height as usize
    {
        return false;
    }
    if sig.leaf >= 1u32 << public.height {
        return false;
    }
    // Recompute the candidate OTS public key by completing every chain.
    let mut values: Vec<[u32; 8]> = sig.chains.iter().map(|c| be_words(c)).collect();
    let walks: Vec<Walk> = (0..CHAINS as u32)
        .zip(digits(message))
        .map(|(chain, d)| Walk {
            chain,
            start: d as u32,
            steps: (W - 1) - d as u32,
        })
        .collect();
    walk_chains(&walks, &mut values);
    let mut node = ots_public_key(&values);

    // Walk the authentication path to the root.
    let mut idx = sig.leaf;
    for sibling in &sig.auth_path {
        node = if idx & 1 == 0 {
            merkle_parent(&node, sibling)
        } else {
            merkle_parent(sibling, &node)
        };
        idx >>= 1;
    }
    node == public.root
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(s: &[u8]) -> Digest {
        sha256(s)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut kp = Keypair::generate(b"seed", 2);
        let pk = kp.public();
        let m = msg(b"manifest");
        let sig = kp.sign(&m).unwrap();
        assert!(verify(&pk, &m, &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let mut kp = Keypair::generate(b"seed", 2);
        let pk = kp.public();
        let sig = kp.sign(&msg(b"a")).unwrap();
        assert!(!verify(&pk, &msg(b"b"), &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut kp = Keypair::generate(b"seed-1", 2);
        let other = Keypair::generate(b"seed-2", 2).public();
        let m = msg(b"m");
        let sig = kp.sign(&m).unwrap();
        assert!(!verify(&other, &m, &sig));
    }

    #[test]
    fn all_leaves_usable_then_exhausted() {
        let mut kp = Keypair::generate(b"seed", 2);
        let pk = kp.public();
        let m = msg(b"m");
        for i in 0..4 {
            let sig = kp.sign(&m).unwrap();
            assert_eq!(sig.leaf, i);
            assert!(verify(&pk, &m, &sig), "leaf {i}");
        }
        assert_eq!(kp.sign(&m), Err(SignError::KeyExhausted));
        assert_eq!(kp.remaining(), 0);
    }

    #[test]
    fn tampered_chain_value_rejected() {
        let mut kp = Keypair::generate(b"seed", 1);
        let pk = kp.public();
        let m = msg(b"m");
        let mut sig = kp.sign(&m).unwrap();
        sig.chains[0][0] ^= 1;
        assert!(!verify(&pk, &m, &sig));
    }

    #[test]
    fn tampered_auth_path_rejected() {
        let mut kp = Keypair::generate(b"seed", 2);
        let pk = kp.public();
        let m = msg(b"m");
        let mut sig = kp.sign(&m).unwrap();
        sig.auth_path[0].0[0] ^= 1;
        assert!(!verify(&pk, &m, &sig));
    }

    #[test]
    fn forged_leaf_index_rejected() {
        let mut kp = Keypair::generate(b"seed", 2);
        let pk = kp.public();
        let m = msg(b"m");
        let mut sig = kp.sign(&m).unwrap();
        sig.leaf = 3; // wrong position for this auth path
        assert!(!verify(&pk, &m, &sig));
        sig.leaf = 99; // out of range entirely
        assert!(!verify(&pk, &m, &sig));
    }

    #[test]
    fn deterministic_keygen() {
        let a = Keypair::generate(b"same", 2).public();
        let b = Keypair::generate(b"same", 2).public();
        assert_eq!(a, b);
    }

    #[test]
    fn key_id_is_short_and_stable() {
        let pk = Keypair::generate(b"seed", 1).public();
        assert_eq!(pk.key_id().len(), 12);
        assert_eq!(pk.key_id(), Keypair::generate(b"seed", 1).public().key_id());
    }

    #[test]
    fn signature_size_accounting() {
        let mut kp = Keypair::generate(b"seed", 3);
        let sig = kp.sign(&msg(b"m")).unwrap();
        assert_eq!(sig.size_bytes(), 4 + 67 * 32 + 3 * 32);
    }

    #[test]
    fn digits_checksum_within_range() {
        // The checksum must always fit in three base-16 digits.
        for input in [&b"a"[..], b"bb", b"ccc", b""] {
            let d = digits(&sha256(input));
            assert!(d.iter().all(|x| *x < 16));
        }
    }

    /// A hostile public key declaring 40 levels, with a signature whose
    /// 40-entry path makes the lengths agree: verification used to shift
    /// `1u32` by 40 (a panic in debug builds, a wrapped bound in release).
    #[test]
    fn hostile_height_is_rejected_without_panicking() {
        let mut key = vec![0xab; 32];
        key.push(40);
        assert_eq!(PublicKey::from_bytes(&key), None);
        let sig = Signature {
            leaf: 0,
            chains: vec![[7; 32]; CHAINS],
            auth_path: vec![Digest([9; 32]); 40],
        };
        let sig = Signature::from_bytes(&sig.to_bytes()).expect("a 40-entry path parses");
        let hostile = PublicKey {
            root: Digest([0xab; 32]),
            height: 40,
        };
        assert!(!verify(&hostile, &msg(b"m"), &sig));
        // The largest height a keypair can have still verifies.
        let edge = PublicKey {
            root: Digest([0xab; 32]),
            height: MAX_HEIGHT,
        };
        assert_eq!(PublicKey::from_bytes(&edge.to_bytes()), Some(edge));
    }

    use proptest::prelude::*;

    /// Domain-separated chain step: `F(chain, step, x)`, one hash at a
    /// time over bytes. Reference model for [`walk_chains`].
    fn chain_step(chain: usize, step: u32, x: &[u8; 32]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(b"hpcc-wots-chain");
        h.update(&(chain as u32).to_be_bytes());
        h.update(&step.to_be_bytes());
        h.update(x);
        h.finalize().0
    }

    /// Apply `n` chain steps starting from `start` within chain `chain`.
    fn chain_apply(chain: usize, start: u32, n: u32, mut x: [u8; 32]) -> [u8; 32] {
        for s in start..start + n {
            x = chain_step(chain, s, &x);
        }
        x
    }

    /// Reference model for [`ots_secret`].
    fn ots_secret_reference(master: &[u8; 32], leaf: u32) -> Vec<[u8; 32]> {
        (0..CHAINS)
            .map(|c| {
                let mut h = Sha256::new();
                h.update(b"hpcc-wots-sk");
                h.update(master);
                h.update(&leaf.to_be_bytes());
                h.update(&(c as u32).to_be_bytes());
                h.finalize().0
            })
            .collect()
    }

    /// Reference model for [`ots_public`].
    fn ots_public_reference(master: &[u8; 32], leaf: u32) -> Digest {
        let mut h = Sha256::new();
        h.update(b"hpcc-wots-pk");
        for (c, s) in ots_secret_reference(master, leaf).iter().enumerate() {
            h.update(&chain_apply(c, 0, W - 1, *s));
        }
        h.finalize()
    }

    /// The chains [`Keypair::sign`] must put in leaf `leaf`'s signature.
    fn sign_reference(master: &[u8; 32], leaf: u32, message: &Digest) -> Vec<[u8; 32]> {
        let d = digits(message);
        (0..CHAINS)
            .zip(ots_secret_reference(master, leaf))
            .map(|(c, sk)| chain_apply(c, 0, d[c] as u32, sk))
            .collect()
    }

    /// Reference model for [`verify`], over [`chain_apply`].
    fn verify_reference(public: &PublicKey, message: &Digest, sig: &Signature) -> bool {
        if public.height > MAX_HEIGHT
            || sig.chains.len() != CHAINS
            || sig.auth_path.len() != public.height as usize
            || sig.leaf >= 1u32 << public.height
        {
            return false;
        }
        let d = digits(message);
        let mut h = Sha256::new();
        h.update(b"hpcc-wots-pk");
        for (c, chain) in sig.chains.iter().enumerate() {
            h.update(&chain_apply(c, d[c] as u32, (W - 1) - d[c] as u32, *chain));
        }
        let mut node = h.finalize();
        let mut idx = sig.leaf;
        for sibling in &sig.auth_path {
            node = if idx & 1 == 0 {
                merkle_parent(&node, sibling)
            } else {
                merkle_parent(sibling, &node)
            };
            idx >>= 1;
        }
        node == public.root
    }

    /// A digest that sends every chain to one end: all digits 0 (the
    /// checksum then reads 960) or all 15 (checksum 0).
    #[test]
    fn extreme_digits_match_the_reference() {
        let mut kp = Keypair::generate(b"edge", 1);
        let pk = kp.public();
        for m in [Digest([0; 32]), Digest([0xff; 32])] {
            let leaf = kp.next_leaf;
            let sig = kp.sign(&m).unwrap();
            assert_eq!(sig.chains, sign_reference(&kp.master, leaf, &m));
            assert!(verify(&pk, &m, &sig));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Keygen, every signature up to exhaustion and verification,
        /// four chains at a time, equal the one-hash-at-a-time reference;
        /// a signature with one byte flipped fails under both.
        #[test]
        fn lanes_match_the_scalar_reference(
            seed in proptest::collection::vec(any::<u8>(), 0..40),
            height in 0u8..6,
            messages in proptest::collection::vec(any::<[u8; 32]>(), 1..5),
            flip in (0usize..CHAINS, 0usize..32, 1u8..=255),
        ) {
            let mut kp = Keypair::generate(&seed, height);
            for (leaf, pk) in (0..).zip(&kp.tree[0]) {
                prop_assert_eq!(*pk, ots_public_reference(&kp.master, leaf));
            }
            let public = kp.public();
            let mut signed = 0;
            for m in messages.iter().cycle().map(|m| Digest(*m)) {
                let leaf = kp.next_leaf;
                let Ok(sig) = kp.sign(&m) else { break };
                signed += 1;
                prop_assert_eq!(&sig.chains, &sign_reference(&kp.master, leaf, &m));
                prop_assert!(verify(&public, &m, &sig));
                prop_assert!(verify_reference(&public, &m, &sig));
                let mut forged = sig.clone();
                forged.chains[flip.0][flip.1] ^= flip.2;
                prop_assert!(!verify(&public, &m, &forged));
                prop_assert!(!verify_reference(&public, &m, &forged));
            }
            prop_assert_eq!(signed, 1u32 << height);
            prop_assert_eq!(kp.remaining(), 0);
        }
    }

    /// Bytes shaped like a signature encoding: a leaf near a power of two,
    /// a chain count and a path length near the real ones, then the
    /// declared entries, some trailing bytes, and a cut anywhere.
    fn signature_bytes() -> impl Strategy<Value = Vec<u8>> {
        let leaf = prop_oneof![any::<u32>(), (0u32..32).prop_map(|k| 1u32.wrapping_shl(k))];
        let chains = prop_oneof![Just(CHAINS as u32), 0u32..80, any::<u32>()];
        let path = prop_oneof![0u32..70, any::<u32>()];
        (leaf, chains, path, any::<u8>(), 0usize..3, any::<u16>()).prop_map(
            |(leaf, nc, np, fill, trailing, cut)| {
                let mut out = leaf.to_be_bytes().to_vec();
                out.extend_from_slice(&nc.to_be_bytes());
                out.resize(out.len() + 32 * nc.min(80) as usize, fill);
                out.extend_from_slice(&np.to_be_bytes());
                out.resize(out.len() + 32 * np.min(70) as usize + trailing, fill ^ 0x5a);
                if cut % 4 == 0 {
                    out.truncate(cut as usize % (out.len() + 1));
                }
                out
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Whatever the two parsers accept, `verify` answers without
        /// panicking, and garbage never verifies, also under a key built
        /// by hand whose height matches the parsed path.
        #[test]
        fn parsed_garbage_never_panics_verify(
            sig in signature_bytes(),
            root in any::<u8>(),
            height in any::<u8>(),
            match_path in any::<bool>(),
            key_len in prop_oneof![Just(33usize), 0usize..40],
        ) {
            let mut key = vec![root; 32];
            key.push(height);
            key.resize(key_len, root);
            let public = PublicKey::from_bytes(&key);
            if let Some(public) = public {
                prop_assert!(public.height <= MAX_HEIGHT);
            }
            if let Some(sig) = Signature::from_bytes(&sig) {
                if let Some(public) = public {
                    prop_assert!(!verify(&public, &msg(b"m"), &sig));
                }
                let height = if match_path { sig.auth_path.len() as u8 } else { height };
                let by_hand = PublicKey { root: Digest([root; 32]), height };
                prop_assert!(!verify(&by_hand, &msg(b"m"), &sig));
                prop_assert!(!verify_reference(&by_hand, &msg(b"m"), &sig));
            }
        }
    }
}
