//! HMAC-SHA256 (RFC 2104).
//!
//! Used as the authentication tag in the encrypt-then-MAC AEAD and for
//! keyed cache-integrity checks in engines that share converted images
//! between users.

use crate::sha256::{Digest, Sha256};

const BLOCK: usize = 64;

/// Compute `HMAC-SHA256(key, message)`.
pub(crate) fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    // Keys longer than the block size are hashed first.
    let mut k = [0u8; BLOCK];
    if key.len() > BLOCK {
        let d = crate::sha256::sha256(key);
        k[..32].copy_from_slice(&d.0);
    } else {
        k[..key.len()].copy_from_slice(key);
    }

    let mut ipad = [0x36u8; BLOCK];
    let mut opad = [0x5cu8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] ^= k[i];
        opad[i] ^= k[i];
    }

    let mut inner = Sha256::new();
    inner.update(&ipad).update(message);
    let inner_digest = inner.finalize();

    let mut outer = Sha256::new();
    outer.update(&opad).update(&inner_digest.0);
    outer.finalize()
}

/// Constant-time comparison of two MACs (avoids modelling timing leaks even
/// though the testbed is simulated — the comparison API is part of the
/// security surface the survey discusses).
pub(crate) fn verify_mac(expected: &Digest, actual: &Digest) -> bool {
    let mut diff = 0u8;
    for (a, b) in expected.0.iter().zip(actual.0.iter()) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rfc4231_case_2() {
        // Key = "Jefe", Data = "what do ya want for nothing?"
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            crate::hex::encode(&mac.0),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_1() {
        // Key = 20 bytes of 0x0b, Data = "Hi There"
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            crate::hex::encode(&mac.0),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn long_key_is_hashed_first() {
        let long_key = vec![0xaau8; 131];
        let short = crate::sha256::sha256(&long_key);
        let via_long = hmac_sha256(&long_key, b"msg");
        let via_short = hmac_sha256(&short.0, b"msg");
        assert_eq!(via_long, via_short);
    }

    #[test]
    fn verify_mac_detects_mismatch() {
        let a = hmac_sha256(b"k", b"m");
        let mut b = a;
        b.0[31] ^= 1;
        assert!(verify_mac(&a, &a));
        assert!(!verify_mac(&a, &b));
    }

    proptest! {
        #[test]
        fn key_sensitivity(k1 in proptest::collection::vec(any::<u8>(), 1..64),
                           k2 in proptest::collection::vec(any::<u8>(), 1..64),
                           msg in proptest::collection::vec(any::<u8>(), 0..256)) {
            prop_assume!(k1 != k2);
            prop_assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
        }

        #[test]
        fn message_sensitivity(key in proptest::collection::vec(any::<u8>(), 1..64),
                               m1 in proptest::collection::vec(any::<u8>(), 0..256),
                               m2 in proptest::collection::vec(any::<u8>(), 0..256)) {
            prop_assume!(m1 != m2);
            prop_assert_ne!(hmac_sha256(&key, &m1), hmac_sha256(&key, &m2));
        }
    }
}
