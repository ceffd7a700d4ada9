//! Hexadecimal encoding/decoding for digest display and parsing.

/// Encode bytes as lowercase hex.
pub(crate) fn encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
    }
    s
}

/// Decode a hex string (case-insensitive). Returns `None` on odd length or
/// non-hex characters.
pub fn decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in bytes.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encodes_known_values() {
        assert_eq!(encode(&[]), "");
        assert_eq!(encode(&[0x00, 0xff, 0x1a]), "00ff1a");
    }

    #[test]
    fn decodes_mixed_case() {
        assert_eq!(decode("00FF1a"), Some(vec![0x00, 0xff, 0x1a]));
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(decode("abc"), None, "odd length");
        assert_eq!(decode("zz"), None, "non-hex");
    }

    proptest! {
        #[test]
        fn roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            prop_assert_eq!(decode(&encode(&bytes)).unwrap(), bytes);
        }
    }
}
