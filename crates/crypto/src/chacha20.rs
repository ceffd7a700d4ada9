//! ChaCha20 stream cipher (RFC 8439 construction).
//!
//! Encrypted-container support (Table 2's last column, SIF encrypted
//! partitions) needs a real cipher. The
//! keystream generator below follows RFC 8439: 32-byte key, 12-byte nonce,
//! 32-bit block counter.

/// Key size in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce size in bytes.
pub const NONCE_LEN: usize = 12;

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Produce one 64-byte keystream block for (key, nonce, counter).
pub fn block(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> [u8; 64] {
    let mut state = [0u32; 16];
    // "expand 32-byte k"
    state[0] = 0x6170_7865;
    state[1] = 0x3320_646e;
    state[2] = 0x7962_2d32;
    state[3] = 0x6b20_6574;
    for i in 0..8 {
        state[4 + i] = u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes(nonce[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
    }

    let mut work = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut work, 0, 4, 8, 12);
        quarter_round(&mut work, 1, 5, 9, 13);
        quarter_round(&mut work, 2, 6, 10, 14);
        quarter_round(&mut work, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut work, 0, 5, 10, 15);
        quarter_round(&mut work, 1, 6, 11, 12);
        quarter_round(&mut work, 2, 7, 8, 13);
        quarter_round(&mut work, 3, 4, 9, 14);
    }

    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = work[i].wrapping_add(state[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// XOR `data` in place with the ChaCha20 keystream starting at block
/// `initial_counter`. Encryption and decryption are the same operation.
pub(crate) fn xor_stream(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    initial_counter: u32,
    data: &mut [u8],
) {
    let mut counter = initial_counter;
    for chunk in data.chunks_mut(64) {
        let ks = block(key, nonce, counter);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        counter = counter
            .checked_add(1)
            .expect("ChaCha20 counter overflow: message too long");
    }
}

/// Convenience: encrypt (or decrypt) into a new buffer.
pub fn apply(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    initial_counter: u32,
    data: &[u8],
) -> Vec<u8> {
    let mut out = data.to_vec();
    xor_stream(key, nonce, initial_counter, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key() -> [u8; 32] {
        let mut k = [0u8; 32];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    fn nonce() -> [u8; 12] {
        [7u8; 12]
    }

    #[test]
    fn rfc8439_block_test_vector() {
        // RFC 8439 §2.3.2: key 00..1f, nonce 000000090000004a00000000, ctr 1.
        let k = key();
        let mut n = [0u8; 12];
        n[3] = 0x09;
        n[7] = 0x4a;
        let ks = block(&k, &n, 1);
        assert_eq!(
            crate::hex::encode(&ks),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let msg = b"container layer payload".to_vec();
        let ct = apply(&key(), &nonce(), 0, &msg);
        assert_ne!(ct, msg);
        let pt = apply(&key(), &nonce(), 0, &ct);
        assert_eq!(pt, msg);
    }

    #[test]
    fn different_nonce_different_stream() {
        let msg = vec![0u8; 128];
        let a = apply(&key(), &[1u8; 12], 0, &msg);
        let b = apply(&key(), &[2u8; 12], 0, &msg);
        assert_ne!(a, b);
    }

    #[test]
    fn counter_offsets_are_consistent() {
        // Encrypting [block0 | block1] must equal encrypting block1 alone
        // with counter 1.
        let msg = vec![0xabu8; 128];
        let full = apply(&key(), &nonce(), 0, &msg);
        let tail = apply(&key(), &nonce(), 1, &msg[64..]);
        assert_eq!(&full[64..], &tail[..]);
    }

    #[test]
    fn empty_message_is_fine() {
        assert_eq!(apply(&key(), &nonce(), 0, &[]), Vec::<u8>::new());
    }

    proptest! {
        #[test]
        fn roundtrip_any_payload(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                 kseed in any::<u8>(), nseed in any::<u8>()) {
            let k = [kseed; 32];
            let n = [nseed; 12];
            let ct = apply(&k, &n, 0, &data);
            prop_assert_eq!(apply(&k, &n, 0, &ct), data);
        }
    }
}
