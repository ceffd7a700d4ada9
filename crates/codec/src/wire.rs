//! Wire primitives: little-endian integers, LEB128 varints, and
//! length-prefixed byte strings. Every serialized format in the testbed
//! (archives, squash images, SIF files, registry blobs) builds on these.

/// Errors from wire decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// A varint ran longer than 10 bytes or past 64 bits.
    VarintOverflow,
    /// A varint ended in a zero byte after its first: the value has a
    /// shorter encoding, and each value has exactly one.
    VarintOverlong,
    /// A declared length exceeds the remaining input.
    BadLength(u64),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => f.write_str("input truncated"),
            WireError::VarintOverflow => f.write_str("varint overflows 64 bits"),
            WireError::VarintOverlong => f.write_str("varint is not minimally encoded"),
            WireError::BadLength(n) => write!(f, "declared length {n} exceeds input"),
            WireError::BadUtf8 => f.write_str("invalid UTF-8 in string field"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Append a length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, data: &[u8]) {
    put_varint(buf, data.len() as u64);
    buf.extend_from_slice(data);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// A cursor over a byte slice with typed reads.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when all input has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.data.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        for _ in 0..10 {
            let byte = self.u8()?;
            // The tenth byte carries bit 63 only; anything above would be
            // shifted out of the u64.
            if shift == 63 && byte > 1 {
                return Err(WireError::VarintOverflow);
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(WireError::VarintOverlong);
                }
                return Ok(v);
            }
            shift += 7;
        }
        Err(WireError::VarintOverflow)
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.varint()?;
        if len > self.remaining() as u64 {
            return Err(WireError::BadLength(len));
        }
        let start = self.pos;
        self.pos += len as usize;
        Ok(&self.data[start..self.pos])
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError::BadUtf8)
    }

    /// Read exactly `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        let start = self.pos;
        self.pos += n;
        Ok(&self.data[start..self.pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_encoding_is_minimal() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        put_varint(&mut buf, 128);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn overlong_varints_are_rejected() {
        for overlong in [&[0x80, 0x00][..], &[0xff, 0x00], &[0x81, 0x80, 0x00]] {
            let mut r = Reader::new(overlong);
            assert_eq!(
                r.varint(),
                Err(WireError::VarintOverlong),
                "{overlong:02x?}"
            );
        }
        // A lone zero is the one encoding of 0.
        assert_eq!(Reader::new(&[0x00]).varint(), Ok(0));
    }

    #[test]
    fn bytes_and_strings_roundtrip() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"hello");
        put_str(&mut buf, "wörld");
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.str().unwrap(), "wörld");
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_input_is_an_error() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"hello");
        let mut r = Reader::new(&buf[..3]);
        assert_eq!(r.bytes(), Err(WireError::BadLength(5)));
        let mut r2 = Reader::new(&[]);
        assert_eq!(r2.u8(), Err(WireError::Truncated));
    }

    #[test]
    fn overlong_varint_rejected() {
        let buf = [0x80u8; 11];
        let mut r = Reader::new(&buf);
        assert_eq!(r.varint(), Err(WireError::VarintOverflow));
    }

    /// Regression: a tenth byte above 1 was shifted out of the u64, so
    /// `[0x80 ×9, 0x02]` decoded to 0 and `[0xff ×9, 0x7f]` to `u64::MAX`.
    #[test]
    fn tenth_byte_past_bit_63_rejected() {
        for last in [0x02u8, 0x7f] {
            for fill in [0x80u8, 0xff] {
                let mut buf = vec![fill; 9];
                buf.push(last);
                assert_eq!(
                    Reader::new(&buf).varint(),
                    Err(WireError::VarintOverflow),
                    "{buf:02x?}"
                );
            }
        }
        let mut max = vec![0xffu8; 9];
        max.push(0x01);
        assert_eq!(Reader::new(&max).varint(), Ok(u64::MAX));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, &[0xff, 0xfe]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.str(), Err(WireError::BadUtf8));
    }

    #[test]
    fn take_reads_exact() {
        let mut r = Reader::new(b"abcdef");
        assert_eq!(r.take(3).unwrap(), b"abc");
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.take(4), Err(WireError::Truncated));
    }

    proptest! {
        #[test]
        fn varint_roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            prop_assert_eq!(Reader::new(&buf).varint().unwrap(), v);
        }

        #[test]
        fn mixed_sequence_roundtrip(items in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 0..16)) {
            let mut buf = Vec::new();
            for item in &items {
                put_bytes(&mut buf, item);
            }
            let mut r = Reader::new(&buf);
            for item in &items {
                prop_assert_eq!(r.bytes().unwrap(), &item[..]);
            }
            prop_assert!(r.is_empty());
        }
    }
}
