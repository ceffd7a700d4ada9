//! Self-describing compression container.
//!
//! Three real codecs:
//!
//! * [`Codec::Store`] — identity, for incompressible payloads.
//! * [`Codec::Rle`] — byte run-length encoding, cheap CPU.
//! * [`Codec::Lz`] — an LZ77-family codec with a 32 KiB window and hash
//!   chains, the workhorse for layer/squash-image payloads.
//!
//! The compressed container is `[codec-id u8][orig-len varint][payload]`,
//! so [`decompress`] is self-describing. The vfs driver cost models charge
//! decompression CPU proportional to output size — the "trade CPU for IO"
//! argument of Section 3.2 — so both directions are real transforms.
//!
//! A container is untrusted input: [`decompress`] checks the declared
//! length against what the payload can expand to before it reserves
//! anything. Independent blocks (one per file of a squash image, one per
//! chunk of a seekable one) go through [`compress_blocks`], which
//! compresses them side by side and returns them in input order.

use crate::wire::{put_varint, Reader, WireError};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Compression codec identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// No compression.
    Store,
    /// Run-length encoding.
    Rle,
    /// LZ77 with 32 KiB window.
    Lz,
}

impl Codec {
    fn id(self) -> u8 {
        match self {
            Codec::Store => 0,
            Codec::Rle => 1,
            Codec::Lz => 2,
        }
    }

    fn from_id(id: u8) -> Option<Codec> {
        match id {
            0 => Some(Codec::Store),
            1 => Some(Codec::Rle),
            2 => Some(Codec::Lz),
            _ => None,
        }
    }
}

/// Errors from decompression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Unknown codec id byte.
    UnknownCodec(u8),
    /// Container or payload truncated/corrupt.
    Corrupt(&'static str),
    /// Wire-format failure inside the container.
    Wire(WireError),
}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> CodecError {
        CodecError::Wire(e)
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnknownCodec(id) => write!(f, "unknown codec id {id}"),
            CodecError::Corrupt(what) => write!(f, "corrupt compressed data: {what}"),
            CodecError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Compress `data` with `codec` into a self-describing container.
pub fn compress(codec: Codec, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.push(codec.id());
    put_varint(&mut out, data.len() as u64);
    match codec {
        Codec::Store => out.extend_from_slice(data),
        Codec::Rle => rle_compress(data, &mut out),
        Codec::Lz => lz_compress(data, &mut out),
    }
    // Containers are kept (chunk stores, registries): give back the
    // growth slack while the block is still the newest allocation.
    out.shrink_to_fit();
    out
}

/// [`compress`] every block, side by side on the host's cores. The result
/// is in input order and byte-identical to mapping [`compress`] over
/// `blocks` one at a time: a worker sees one input slice and returns one
/// container, nothing else.
pub fn compress_blocks(codec: Codec, blocks: &[&[u8]]) -> Vec<Vec<u8>> {
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    ordered_map(blocks, width, |block| compress(codec, block))
}

/// Map `f` over `jobs` on at most `width` threads (the caller's included),
/// results in input order. Width 1 or a single job runs inline.
fn ordered_map<R: Send>(jobs: &[&[u8]], width: usize, f: impl Fn(&[u8]) -> R + Sync) -> Vec<R> {
    let width = width.min(jobs.len());
    if width <= 1 {
        return jobs.iter().map(|job| f(job)).collect();
    }
    // A ticket counter: it hands out indices and publishes nothing else
    // (results travel back through the joins), so `Relaxed` is enough.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(k) else { break done };
            done.push((k, f(job)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..width).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for h in helpers {
            done.extend(h.join().expect("compression worker panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|(k, _)| *k);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Decompress a container produced by [`compress`].
pub fn decompress(container: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut r = Reader::new(container);
    let id = r.u8()?;
    let codec = Codec::from_id(id).ok_or(CodecError::UnknownCodec(id))?;
    let orig_len = usize::try_from(r.varint()?)
        .map_err(|_| CodecError::Corrupt("declared length exceeds address space"))?;
    let payload = r.take(r.remaining())?;
    let out = match codec {
        Codec::Store => payload.to_vec(),
        Codec::Rle => rle_decompress(payload, orig_len)?,
        Codec::Lz => lz_decompress(payload, orig_len)?,
    };
    if out.len() != orig_len {
        return Err(CodecError::Corrupt("length mismatch"));
    }
    Ok(out)
}

// ---------------------------------------------------------------- RLE

fn rle_compress(data: &[u8], out: &mut Vec<u8>) {
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        let mut run = 1usize;
        while i + run < data.len() && data[i + run] == b && run < 255 {
            run += 1;
        }
        out.push(run as u8);
        out.push(b);
        i += run;
    }
}

fn rle_decompress(payload: &[u8], cap: usize) -> Result<Vec<u8>, CodecError> {
    if !payload.len().is_multiple_of(2) {
        return Err(CodecError::Corrupt("odd RLE payload"));
    }
    // A pair expands to at most 255 bytes: refuse a declared length the
    // payload cannot reach before reserving it.
    if cap > (payload.len() / 2).saturating_mul(255) {
        return Err(CodecError::Corrupt("declared length exceeds RLE payload"));
    }
    let mut out = Vec::with_capacity(cap);
    for pair in payload.chunks_exact(2) {
        let (run, b) = (pair[0] as usize, pair[1]);
        if run == 0 {
            return Err(CodecError::Corrupt("zero-length RLE run"));
        }
        if out.len() + run > cap {
            return Err(CodecError::Corrupt("RLE overrun"));
        }
        out.resize(out.len() + run, b);
    }
    Ok(out)
}

// ---------------------------------------------------------------- LZ77

const LZ_WINDOW: usize = 32 * 1024;
const LZ_MIN_MATCH: usize = 4;
const LZ_MAX_MATCH: usize = 258;
const HASH_BITS: u32 = 15;
/// How many chain entries one position examines.
const LZ_MAX_PROBES: usize = 32;
/// Slots of the `prev` ring. Twice the window, so the slot of a position
/// still inside the window has never been reused.
const LZ_RING: usize = 2 * LZ_WINDOW;
/// A match token is at least three bytes (tag, length, distance) and
/// yields at most [`LZ_MAX_MATCH`]; a literal token yields less than its
/// own size. So no payload expands by more than this factor.
const LZ_MAX_EXPANSION: usize = LZ_MAX_MATCH / 3;

#[inline]
fn read4(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(data[i..i + 4].try_into().expect("four bytes"))
}

#[inline]
fn lz_hash(v: u32) -> usize {
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of two equally long slices, eight bytes at
/// a time.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut n = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("chunks_exact(8)"));
        let y = u64::from_le_bytes(y.try_into().expect("chunks_exact(8)"));
        if x != y {
            return n + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while n < a.len() && a[n] == b[n] {
        n += 1;
    }
    n
}

/// Hash chains over the last [`LZ_WINDOW`] positions. `head[h]` is the
/// latest position whose four bytes hash to `h`, `prev` links each
/// position to the previous one in its bucket. Positions are stored as
/// `pos + 1` in a `u32` (0 = none) and compared modulo 2³², which is
/// exact for inputs under 4 GiB; past that a stale `head` entry can alias
/// into the window, which costs at most a different (still valid) match.
struct Chains {
    head: Vec<u32>,
    prev: Vec<u32>,
}

impl Chains {
    fn new() -> Chains {
        Chains {
            head: vec![0; 1 << HASH_BITS],
            prev: vec![0; LZ_RING],
        }
    }

    #[inline]
    fn insert(&mut self, h: usize, pos: usize) {
        self.prev[pos % LZ_RING] = self.head[h];
        self.head[h] = (pos as u32).wrapping_add(1);
    }

    /// Distance from `pos` back to the position a link names, if that
    /// position is still inside the window.
    #[inline]
    fn dist(link: u32, pos: usize) -> Option<usize> {
        let dist = (pos as u32).wrapping_add(1).wrapping_sub(link) as usize;
        (link != 0 && (1..=LZ_WINDOW).contains(&dist)).then_some(dist)
    }
}

/// Token stream: `0x00` literal-run (varint len, bytes); `0x01` match
/// (varint len, varint dist).
///
/// The match taken at a position is the *nearest candidate of maximal
/// length ≥ 4 among the first 32 in-window entries of its hash chain*, and
/// stored images depend on every byte of that choice. The search skips
/// only candidates the rule could not pick: ones whose first four bytes
/// differ, ones that differ where a strictly longer match would have to
/// agree, and the rest of the chain once the length cap is reached.
/// `tests::lz_reference` is the rule spelled out, and the two are held
/// equal.
fn lz_compress(data: &[u8], out: &mut Vec<u8>) {
    let mut chains = Chains::new();
    let mut lit_start = 0usize;
    let mut i = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
        if to > from {
            out.push(0x00);
            put_varint(out, (to - from) as u64);
            out.extend_from_slice(&data[from..to]);
        }
    };

    while i + LZ_MIN_MATCH <= data.len() {
        let cur = read4(data, i);
        let h = lz_hash(cur);
        let max = (data.len() - i).min(LZ_MAX_MATCH);
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut link = chains.head[h];
        for _ in 0..LZ_MAX_PROBES {
            let Some(dist) = Chains::dist(link, i) else {
                break;
            };
            let cand = i - dist;
            // Only a strictly longer match replaces the best so far, so a
            // candidate must agree at `best_len` (< max here) to matter.
            if read4(data, cand) == cur && data[cand + best_len] == data[i + best_len] {
                let len = LZ_MIN_MATCH
                    + common_prefix(
                        &data[cand + LZ_MIN_MATCH..cand + max],
                        &data[i + LZ_MIN_MATCH..i + max],
                    );
                if len > best_len {
                    best_len = len;
                    best_dist = dist;
                    if len == max {
                        break;
                    }
                }
            }
            link = chains.prev[cand % LZ_RING];
        }
        chains.insert(h, i);

        if best_len >= LZ_MIN_MATCH {
            flush_literals(out, lit_start, i);
            out.push(0x01);
            put_varint(out, best_len as u64);
            put_varint(out, best_dist as u64);
            // Index the skipped positions too (cheap, improves ratio).
            let end = (i + best_len).min(data.len().saturating_sub(LZ_MIN_MATCH - 1));
            for j in i + 1..end {
                chains.insert(lz_hash(read4(data, j)), j);
            }
            i += best_len;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(out, lit_start, data.len());
}

fn lz_decompress(payload: &[u8], cap: usize) -> Result<Vec<u8>, CodecError> {
    if cap > payload.len().saturating_mul(LZ_MAX_EXPANSION) {
        return Err(CodecError::Corrupt("declared length exceeds LZ payload"));
    }
    let mut r = Reader::new(payload);
    let mut out = Vec::with_capacity(cap);
    while !r.is_empty() {
        match r.u8()? {
            0x00 => {
                let len = r.varint()? as usize;
                let bytes = r.take(len).map_err(CodecError::from)?;
                if out.len() + len > cap {
                    return Err(CodecError::Corrupt("literal overrun"));
                }
                out.extend_from_slice(bytes);
            }
            0x01 => {
                let len = r.varint()? as usize;
                let dist = r.varint()? as usize;
                if dist == 0 || dist > out.len() {
                    return Err(CodecError::Corrupt("match distance out of range"));
                }
                // The encoder never emits more; the reservation bound
                // above relies on it.
                if len > LZ_MAX_MATCH {
                    return Err(CodecError::Corrupt("match too long"));
                }
                if out.len() + len > cap {
                    return Err(CodecError::Corrupt("match overrun"));
                }
                // Overlapping copies are the point of LZ77 (dist=1
                // replicates the last byte): everything from `start` on is
                // periodic with period `dist`, so each block copied doubles
                // the source the next one may take.
                let start = out.len() - dist;
                let mut left = len;
                while left > 0 {
                    let n = left.min(out.len() - start);
                    out.extend_from_within(start..start + n);
                    left -= n;
                }
            }
            _ => return Err(CodecError::Corrupt("bad token")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn text_like(n: usize) -> Vec<u8> {
        // Repetitive, library-directory-like content.
        let unit = b"lib/python3.11/site-packages/numpy/core/__init__.py\n";
        unit.iter().copied().cycle().take(n).collect()
    }

    /// splitmix64, so fixed corpora are the same bytes on every host.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Runs of 16..512 equal bytes.
    fn runs(rng: &mut Mix, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let run = (16 + rng.next() as usize % 497).min(len - out.len());
            let byte = rng.next() as u8;
            out.resize(out.len() + run, byte);
        }
        out
    }

    /// Uniform text over the first `symbols` letters of a 16-letter alphabet.
    fn text(rng: &mut Mix, symbols: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| b"etaoinshrdlu \n()"[(rng.next() % symbols) as usize])
            .collect()
    }

    fn noise(rng: &mut Mix, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next() as u8).collect()
    }

    /// A third runs, a third 16-symbol text, a third noise: the regimes a
    /// container layer mixes.
    fn mixed_corpus(seed: u64, len: usize) -> Vec<u8> {
        let rng = &mut Mix(seed);
        let third = len / 3;
        let mut out = runs(rng, third);
        out.extend(text(rng, 16, third));
        out.extend(noise(rng, len - 2 * third));
        out
    }

    /// The encoder as first written, kept verbatim: the exhaustive form of
    /// the match-choice rule that `lz_compress` must reproduce byte for
    /// byte.
    fn lz_reference(data: &[u8], out: &mut Vec<u8>) {
        fn lz_hash(data: &[u8], i: usize) -> usize {
            let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
            (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
        }
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; data.len()];
        let mut lit_start = 0usize;
        let mut i = 0usize;

        let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, data: &[u8]| {
            if to > from {
                out.push(0x00);
                put_varint(out, (to - from) as u64);
                out.extend_from_slice(&data[from..to]);
            }
        };

        while i < data.len() {
            if i + LZ_MIN_MATCH <= data.len() {
                let h = lz_hash(data, i);
                // Search the hash chain for the longest match in the window.
                let mut cand = head[h];
                let mut best_len = 0usize;
                let mut best_dist = 0usize;
                let mut probes = 0;
                while cand != usize::MAX && i - cand <= LZ_WINDOW && probes < 32 {
                    let max = (data.len() - i).min(LZ_MAX_MATCH);
                    let mut l = 0usize;
                    while l < max && data[cand + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                    }
                    cand = prev[cand];
                    probes += 1;
                }
                // Insert current position into the chain.
                prev[i] = head[h];
                head[h] = i;

                if best_len >= LZ_MIN_MATCH {
                    flush_literals(out, lit_start, i, data);
                    out.push(0x01);
                    put_varint(out, best_len as u64);
                    put_varint(out, best_dist as u64);
                    // Index the skipped positions too (cheap, improves ratio).
                    let end = (i + best_len).min(data.len().saturating_sub(LZ_MIN_MATCH - 1));
                    #[allow(clippy::needless_range_loop)] // j indexes head and prev together
                    for j in i + 1..end {
                        let h = lz_hash(data, j);
                        prev[j] = head[h];
                        head[h] = j;
                    }
                    i += best_len;
                    lit_start = i;
                    continue;
                }
            }
            i += 1;
        }
        flush_literals(out, lit_start, data.len(), data);
    }

    fn assert_matches_reference(data: &[u8]) {
        let (mut new, mut old) = (Vec::new(), Vec::new());
        lz_compress(data, &mut new);
        lz_reference(data, &mut old);
        assert!(new == old, "encoders diverge on {} bytes", data.len());
    }

    #[test]
    fn store_roundtrip() {
        let data = b"anything at all".to_vec();
        assert_eq!(decompress(&compress(Codec::Store, &data)).unwrap(), data);
    }

    #[test]
    fn rle_roundtrip_and_shrinks_runs() {
        let data = vec![0u8; 10_000];
        let c = compress(Codec::Rle, &data);
        assert!(
            c.len() < 200,
            "RLE of zeros should be tiny, got {}",
            c.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn lz_roundtrip_and_shrinks_text() {
        let data = text_like(50_000);
        let c = compress(Codec::Lz, &data);
        assert!(
            c.len() < data.len() / 5,
            "LZ should compress repetitive text at least 5x, got {} of {}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn lz_handles_overlapping_matches() {
        // "aaaa..." forces dist=1 overlapping copies.
        let data = vec![b'a'; 1000];
        let c = compress(Codec::Lz, &data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn empty_input_all_codecs() {
        for codec in [Codec::Store, Codec::Rle, Codec::Lz] {
            assert_eq!(decompress(&compress(codec, &[])).unwrap(), Vec::<u8>::new());
        }
    }

    #[test]
    fn unknown_codec_rejected() {
        let mut c = compress(Codec::Store, b"x");
        c[0] = 99;
        assert_eq!(decompress(&c), Err(CodecError::UnknownCodec(99)));
    }

    #[test]
    fn corrupt_lz_rejected_not_panicking() {
        let mut c = compress(Codec::Lz, &text_like(1000));
        // Flip bytes throughout the payload; decompression must error or
        // produce a wrong-length result, never panic.
        for i in 2..c.len().min(64) {
            let mut bad = c.clone();
            bad[i] ^= 0xff;
            let _ = decompress(&bad);
        }
        c.truncate(c.len() / 2);
        let _ = decompress(&c);
    }

    #[test]
    fn lz_overlapping_matches_roundtrip() {
        // A seed of `dist` distinct bytes repeated: the encoder answers
        // with one match of that distance, longer than the distance.
        for dist in [1usize, 2, 3, 7] {
            for len in [4usize, 257, 258] {
                let data: Vec<u8> = (0..dist + len).map(|k| (k % dist) as u8 + 1).collect();
                let c = compress(Codec::Lz, &data);
                let mut token = vec![0x01];
                put_varint(&mut token, len as u64);
                put_varint(&mut token, dist as u64);
                assert!(c.ends_with(&token), "dist {dist} len {len}: {c:?}");
                assert_eq!(decompress(&c).unwrap(), data, "dist {dist} len {len}");
            }
        }
    }

    #[test]
    fn hostile_length_headers_are_refused_before_reserving() {
        // LZ, declared length u64::MAX: used to panic with "capacity overflow".
        let mut lz = vec![2];
        lz.extend_from_slice(&[0xff; 9]);
        lz.push(0x01);
        assert!(matches!(decompress(&lz), Err(CodecError::Corrupt(_))));
        // RLE, declared length 64 TiB over one pair: used to abort in the allocator.
        let mut rle = vec![1];
        put_varint(&mut rle, 1 << 46);
        rle.extend_from_slice(&[1, 7]);
        assert_eq!(rle.len(), 10);
        assert!(matches!(decompress(&rle), Err(CodecError::Corrupt(_))));
        // The bounds themselves: 255 bytes a pair, 86 bytes a payload byte.
        let mut rle = vec![1];
        put_varint(&mut rle, 256);
        rle.extend_from_slice(&[255, 7]);
        assert!(matches!(decompress(&rle), Err(CodecError::Corrupt(_))));
        let mut lz = vec![2];
        put_varint(&mut lz, 4 * 86 + 1);
        lz.extend_from_slice(&[0x00, 1, b'a', 0x01]);
        assert!(matches!(decompress(&lz), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn lz_match_longer_than_the_encoder_emits_is_corrupt() {
        let mut c = vec![2];
        put_varint(&mut c, 260);
        c.extend_from_slice(&[0x00, 1, b'a', 0x01]);
        put_varint(&mut c, 259);
        c.push(1);
        assert_eq!(decompress(&c), Err(CodecError::Corrupt("match too long")));
    }

    #[test]
    fn lz_equals_reference_at_the_edges() {
        let rng = &mut Mix(15);
        // Minimum match, maximum match, window edge, ring wrap.
        for n in [
            0, 3, 4, 5, 258, 259, 260, 32_768, 32_769, 65_536, 65_537, 140_000,
        ] {
            assert_matches_reference(&vec![7u8; n]);
            assert_matches_reference(&text_like(n));
            assert_matches_reference(&runs(rng, n));
            assert_matches_reference(&text(rng, 2, n));
            assert_matches_reference(&text(rng, 16, n));
            assert_matches_reference(&noise(rng, n));
        }
        // One 64-byte block seen again at exactly the window's reach, one
        // byte past it, and across a ring wrap.
        let block = noise(rng, 64);
        for gap in [32_768 - 64, 32_769 - 64, 65_536 - 64, 65_537 - 64] {
            let mut data = block.clone();
            data.extend(noise(rng, gap));
            data.extend_from_slice(&block);
            assert_matches_reference(&data);
        }
    }

    #[test]
    fn lz_output_is_pinned() {
        // SHA-256 of `compress(Lz, ·)`, captured before the encoder was
        // rewritten: stored images and their digests must not move.
        let corpus = mixed_corpus(768, 768 * 1024);
        let third = corpus.len() / 3;
        let pinned = [
            (
                &corpus[..],
                "sha256:f506c3bd56b6bea878ad44b1bacb445c949410c8d4e6fd22035f3ead444db9ad",
            ),
            (
                &corpus[..third],
                "sha256:5f3fba4ba368c8ca3a430be9fbc87f3c2458040b7040fe6c7af04a159457e7c2",
            ),
            (
                &corpus[third..2 * third],
                "sha256:0579859ddb02969c95dcba50a986b1c60bdc4e58aa43c8133096da111bcc3692",
            ),
            (
                &corpus[2 * third..],
                "sha256:ae004a41ac8ca1972472bc29576050597d4332a72b4d88eeaba5ca3d0c938079",
            ),
        ];
        for (k, (data, want)) in pinned.into_iter().enumerate() {
            let got = hpcc_crypto::sha256::sha256(&compress(Codec::Lz, data)).to_string();
            assert_eq!(got, want, "row {k}");
        }
    }

    #[test]
    fn ordered_map_is_width_blind() {
        let rng = &mut Mix(3);
        let blocks: Vec<Vec<u8>> = (0..13)
            .map(|k| mixed_corpus(rng.next(), 1 + 3000 * (k % 5)))
            .collect();
        let jobs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
        let inline = ordered_map(&jobs, 1, |b| compress(Codec::Lz, b));
        for (job, got) in jobs.iter().zip(&inline) {
            assert_eq!(got, &compress(Codec::Lz, job));
        }
        for width in [2, 3, 8] {
            assert!(ordered_map(&jobs, width, |b| compress(Codec::Lz, b)) == inline);
        }
        assert_eq!(compress_blocks(Codec::Lz, &jobs), inline);
        assert!(ordered_map(&[], 8, |b| b.len()).is_empty());
        assert_eq!(ordered_map(&jobs[..1], 8, |b| b.len()), [blocks[0].len()]);
    }

    proptest! {
        #[test]
        fn roundtrip_any_payload(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
            for codec in [Codec::Store, Codec::Rle, Codec::Lz] {
                prop_assert_eq!(&decompress(&compress(codec, &data)).unwrap(), &data);
            }
            assert_matches_reference(&data);
        }

        #[test]
        fn roundtrip_runs(runs in proptest::collection::vec((any::<u8>(), 1usize..600), 0..32)) {
            let mut data = Vec::new();
            for (b, n) in runs {
                data.resize(data.len() + n, b);
            }
            for codec in [Codec::Store, Codec::Rle, Codec::Lz] {
                prop_assert_eq!(&decompress(&compress(codec, &data)).unwrap(), &data);
            }
            assert_matches_reference(&data);
        }

        #[test]
        fn decompress_never_panics_on_garbage(
            id in 0u8..3,
            data in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            // A valid codec id in front, or almost no case gets past it.
            let mut container = vec![id];
            container.extend_from_slice(&data);
            let _ = decompress(&container);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn lz_equals_reference_on_small_alphabets(
            symbols in prop_oneof![Just(2u64), Just(4u64), Just(16u64)],
            seed in any::<u64>(),
            len in 0usize..70_000,
        ) {
            let data = text(&mut Mix(seed), symbols, len);
            assert_matches_reference(&data);
            prop_assert_eq!(&decompress(&compress(Codec::Lz, &data)).unwrap(), &data);
        }
    }
}
