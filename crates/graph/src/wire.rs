//! Low-level helpers shared by every OCTOPUS binary codec.
//!
//! Three codecs in the workspace follow the same magic/version/`need()`
//! discipline — the graph codec ([`crate::codec`]), the dataset store
//! (`octopus-data::store`), and the offline-artifact cache
//! (`octopus-core::offline::persist`). This module is their common
//! substrate: bounds-checked reads that turn truncation into a typed error
//! instead of a panic, length-prefixed strings, the word-at-a-time
//! [`checksum`] (XXH64) that guards every payload and keys whole graphs,
//! and the byte-serial [`Fnv64`] the small fixed-width key compositions
//! use.

#![warn(missing_docs)]

use bytes::{Buf, BufMut, BytesMut};

/// A low-level codec failure: truncation, bad framing, or invalid UTF-8.
///
/// Each codec maps `WireError` into its own error enum (`GraphError::Codec`,
/// `StoreError::Corrupt`, `PersistError::Corrupt`) so callers keep their
/// crate-local error types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Fail with a truncation error unless `buf` still holds `n` bytes.
pub fn need<B: Buf + ?Sized>(buf: &B, n: usize, what: &str) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError(format!("truncated while reading {what}")))
    } else {
        Ok(())
    }
}

/// Append a `u32`-length-prefixed UTF-8 string.
pub fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Read a `u32`-length-prefixed UTF-8 string written by [`put_string`].
pub fn read_string<B: Buf + ?Sized>(buf: &mut B, what: &str) -> Result<String, WireError> {
    need(buf, 4, what)?;
    let len = buf.get_u32_le() as usize;
    need(buf, len, what)?;
    let mut raw = vec![0u8; len];
    buf.copy_to_slice(&mut raw);
    String::from_utf8(raw).map_err(|_| WireError(format!("invalid utf8 in {what}")))
}

/// Read `count` little-endian `u32`s after a bounds check.
pub fn read_u32s<B: Buf + ?Sized>(
    buf: &mut B,
    count: usize,
    what: &str,
) -> Result<Vec<u32>, WireError> {
    need(buf, count.saturating_mul(4), what)?;
    let mut v = Vec::with_capacity(count);
    for _ in 0..count {
        v.push(buf.get_u32_le());
    }
    Ok(v)
}

/// The alignment every sectioned payload starts on (and the unit all
/// fixed-width record layouts are padded to): 8 bytes, so `u64`/`f64`
/// fields inside a section sit on natural boundaries of the mapped file.
pub const SECTION_ALIGN: usize = 8;

/// Round `n` up to the next multiple of [`SECTION_ALIGN`].
pub const fn align8(n: usize) -> usize {
    (n + (SECTION_ALIGN - 1)) & !(SECTION_ALIGN - 1)
}

/// Zero bytes needed after `n` to reach the next multiple of
/// [`SECTION_ALIGN`] (0 when already aligned).
pub const fn pad8(n: usize) -> usize {
    align8(n) - n
}

/// On-disk size of one [`SectionEntry`]:
/// tag + pad + key + offset + length + checksum.
pub const SECTION_ENTRY_LEN: usize = 4 + 4 + 8 + 8 + 8 + 8;

/// One row of a sectioned container's table of contents.
///
/// A *sectioned* codec (the OCTA artifact cache) frames its payload as
/// independently keyed, independently checksummed byte ranges so a reader
/// can salvage every intact section of a file whose other sections are
/// stale, truncated, or corrupt. The table row carries everything needed to
/// decide reuse *without* decoding the payload: the section `tag` (what it
/// is), its content `key` (a fingerprint of the inputs that produced it),
/// its absolute byte offset `off` (8-aligned, so a memory-mapped reader can
/// serve `u64`/`f64` fields in place), its byte `len`, and the
/// [`checksum`] of the payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section kind, codec-defined (decoders skip unknown tags).
    pub tag: u32,
    /// Fingerprint of the inputs this section's content was computed from.
    pub key: u64,
    /// Absolute byte offset of the payload from the start of the file;
    /// must be a multiple of [`SECTION_ALIGN`].
    pub off: u64,
    /// Payload length in bytes (padding between sections is not counted).
    pub len: u64,
    /// [`checksum`] (XXH64, seed 0) over the payload bytes.
    pub checksum: u64,
}

/// Append a section-table row ([`SECTION_ENTRY_LEN`] bytes, little-endian):
/// `tag u32 | pad u32 = 0 | key u64 | off u64 | len u64 | checksum u64`.
pub fn put_section_entry(buf: &mut impl BufMut, e: &SectionEntry) {
    buf.put_u32_le(e.tag);
    buf.put_u32_le(0);
    buf.put_u64_le(e.key);
    buf.put_u64_le(e.off);
    buf.put_u64_le(e.len);
    buf.put_u64_le(e.checksum);
}

/// Read a section-table row written by [`put_section_entry`]. The pad word
/// must be zero — a nonzero pad means the bytes are not a v5 table row.
pub fn read_section_entry<B: Buf + ?Sized>(
    buf: &mut B,
    what: &str,
) -> Result<SectionEntry, WireError> {
    need(buf, SECTION_ENTRY_LEN, what)?;
    let tag = buf.get_u32_le();
    let pad = buf.get_u32_le();
    if pad != 0 {
        return Err(WireError(format!(
            "nonzero pad word {pad:#x} in section-table row of {what}"
        )));
    }
    Ok(SectionEntry {
        tag,
        key: buf.get_u64_le(),
        off: buf.get_u64_le(),
        len: buf.get_u64_le(),
        checksum: buf.get_u64_le(),
    })
}

/// Bounds- and alignment-check one section's byte range against the whole
/// file, **without** touching the payload bytes (no checksum): this is the
/// open-time validation of a memory-mapped reader, which defers checksums
/// to first touch. Returns the `(start, end)` byte range.
pub fn section_range(file_len: usize, entry: &SectionEntry) -> Result<(usize, usize), WireError> {
    let off = entry.off as usize;
    if !off.is_multiple_of(SECTION_ALIGN) {
        return Err(WireError(format!(
            "section {} is misaligned (offset {} not a multiple of {})",
            entry.tag, off, SECTION_ALIGN
        )));
    }
    let end = off
        .checked_add(entry.len as usize)
        .ok_or_else(|| WireError(format!("section {} length overflows", entry.tag)))?;
    if end > file_len {
        return Err(WireError(format!(
            "section {} extends past end of file ({} > {})",
            entry.tag, end, file_len
        )));
    }
    Ok((off, end))
}

/// Slice one section's payload out of the file bytes and verify its
/// checksum. Fails on misaligned or out-of-bounds ranges (truncated file)
/// and checksum mismatches (in-place corruption), so a successful return
/// hands the caller exactly the bytes the writer checksummed.
pub fn section_payload<'a>(raw: &'a [u8], entry: &SectionEntry) -> Result<&'a [u8], WireError> {
    let (start, end) = section_range(raw.len(), entry)?;
    let payload = &raw[start..end];
    if checksum(payload) != entry.checksum {
        return Err(WireError(format!(
            "section {} checksum mismatch (corrupted in place)",
            entry.tag
        )));
    }
    Ok(payload)
}

/// XXH64 prime 1.
const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
/// XXH64 prime 2.
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
/// XXH64 prime 3.
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
/// XXH64 prime 4.
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
/// XXH64 prime 5.
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

fn u64_le(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("eight bytes"))
}

/// One XXH64 accumulator round over an 8-byte input word.
fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

/// XXH64's final avalanche: a bijection on `u64` in which every input bit
/// affects every output bit. It is the per-term mix of every
/// order-independent key: [`crate::codec::GraphKeys`], the PIKS world
/// footprints and the autocomplete key each sum `mix` terms with wrapping
/// adds, one term per entry, so a key costs a few multiplies per entry
/// where byte-serial FNV-1a pays one per byte.
pub fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

/// XXH64 with seed 0 over `bytes` — the section checksum of the OCTA
/// container and the hash behind every whole-graph key.
///
/// Inputs of 32 bytes or more run four independent accumulator lanes, one
/// 8-byte word each per round, where byte-serial FNV-1a pays one multiply
/// per byte; the tail folds 8-, then 4-, then 1-byte pieces. The algorithm
/// and its constants are XXH64's as published, so the value is stable
/// across builds and platforms and may be persisted.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut v = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
        ];
        for stripe in &mut stripes {
            for (lane, word) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh_round(*lane, u64_le(word));
            }
        }
        let mut h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        for lane in v {
            h = (h ^ xxh_round(0, lane))
                .wrapping_mul(XXH_P1)
                .wrapping_add(XXH_P4);
        }
        h
    } else {
        XXH_P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut tail = stripes.remainder();
    while tail.len() >= 8 {
        h ^= xxh_round(0, u64_le(tail));
        h = h.rotate_left(27).wrapping_mul(XXH_P1).wrapping_add(XXH_P4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let word = u32::from_le_bytes(tail[..4].try_into().expect("four bytes"));
        h ^= (word as u64).wrapping_mul(XXH_P1);
        h = h.rotate_left(23).wrapping_mul(XXH_P2).wrapping_add(XXH_P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h ^= (b as u64).wrapping_mul(XXH_P5);
        h = h.rotate_left(11).wrapping_mul(XXH_P1);
    }
    mix(h)
}

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// An incremental FNV-1a 64-bit hasher with a **stable, documented**
/// algorithm — unlike `std::hash::DefaultHasher`, its output may be
/// persisted to disk and compared across builds and platforms.
///
/// It is byte-serial (one multiply per byte), so it only composes small
/// fixed-width unit keys from a few words. Anything that hashes a whole
/// payload uses [`checksum`], and anything that walks a graph sums
/// [`mix`] terms.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorb a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Absorb a `u32` in little-endian byte order.
    pub fn write_u32(&mut self, v: u32) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Absorb a `u16` in little-endian byte order.
    pub fn write_u16(&mut self, v: u16) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Absorb a single byte.
    pub fn write_u8(&mut self, v: u8) -> &mut Self {
        self.write(&[v])
    }

    /// Absorb an `f32` by its exact bit pattern.
    pub fn write_f32(&mut self, v: f32) -> &mut Self {
        self.write(&v.to_bits().to_le_bytes())
    }

    /// Absorb an `f64` by its exact bit pattern (distinguishes `-0.0` from
    /// `0.0` and every NaN payload — a fingerprint must not conflate values
    /// that could change downstream computation).
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn need_rejects_short_buffers() {
        let raw = [0u8; 3];
        assert!(need(&&raw[..], 4, "x").is_err());
        assert!(need(&&raw[..], 3, "x").is_ok());
    }

    #[test]
    fn strings_round_trip() {
        let mut buf = BytesMut::new();
        put_string(&mut buf, "jiawei han");
        put_string(&mut buf, "");
        let frozen = buf.freeze();
        let mut r = frozen.to_vec();
        let mut slice = &r[..];
        assert_eq!(read_string(&mut slice, "a").unwrap(), "jiawei han");
        assert_eq!(read_string(&mut slice, "b").unwrap(), "");
        // truncated string fails cleanly
        r.truncate(6);
        assert!(read_string(&mut &r[..], "t").is_err());
    }

    #[test]
    fn alignment_helpers() {
        assert_eq!(align8(0), 0);
        assert_eq!(align8(1), 8);
        assert_eq!(align8(8), 8);
        assert_eq!(align8(9), 16);
        assert_eq!(pad8(8), 0);
        assert_eq!(pad8(11), 5);
    }

    #[test]
    fn section_entries_round_trip_and_verify() {
        // two sections laid out 8-aligned with zero padding between them
        let payload_a = b"cap-section!".to_vec(); // 12 bytes -> padded to 16
        let payload_b = b"trie".to_vec();
        let a_off = 0usize;
        let b_off = align8(payload_a.len());
        let entries = [
            SectionEntry {
                tag: 1,
                key: 0xAB,
                off: a_off as u64,
                len: payload_a.len() as u64,
                checksum: checksum(&payload_a),
            },
            SectionEntry {
                tag: 6,
                key: 0xCD,
                off: b_off as u64,
                len: payload_b.len() as u64,
                checksum: checksum(&payload_b),
            },
        ];
        let mut buf = BytesMut::new();
        for e in &entries {
            put_section_entry(&mut buf, e);
        }
        assert_eq!(buf.len(), 2 * SECTION_ENTRY_LEN);
        let frozen = buf.freeze();
        let mut slice = &frozen[..];
        assert_eq!(read_section_entry(&mut slice, "a").unwrap(), entries[0]);
        assert_eq!(read_section_entry(&mut slice, "b").unwrap(), entries[1]);
        assert!(read_section_entry(&mut slice, "eof").is_err());
        // a nonzero pad word is rejected
        let mut bad = frozen.to_vec();
        bad[4] = 0xFF;
        assert!(read_section_entry(&mut &bad[..], "pad").is_err());

        let mut raw = payload_a.clone();
        raw.resize(b_off, 0); // alignment padding
        raw.extend_from_slice(&payload_b);
        assert_eq!(section_payload(&raw, &entries[0]).unwrap(), &payload_a[..]);
        assert_eq!(section_payload(&raw, &entries[1]).unwrap(), &payload_b[..]);
        assert_eq!(
            section_range(raw.len(), &entries[1]).unwrap(),
            (b_off, b_off + payload_b.len())
        );
        // truncated payload area: out-of-bounds, not a panic
        assert!(section_payload(&raw[..raw.len() - 1], &entries[1]).is_err());
        // a misaligned offset is rejected before any byte is read
        let misaligned = SectionEntry {
            off: 4,
            ..entries[1]
        };
        assert!(section_range(raw.len(), &misaligned).is_err());
        // a flipped byte fails the checksum
        let mut corrupt = raw.clone();
        corrupt[2] ^= 0x10;
        assert!(section_payload(&corrupt, &entries[0]).is_err());
        // but leaves the *other* section salvageable
        assert!(section_payload(&corrupt, &entries[1]).is_ok());
        // and section_range (the lazy-checksum open path) still accepts the
        // corrupted range — corruption is caught at first touch, by design
        assert!(section_range(corrupt.len(), &entries[0]).is_ok());
    }

    #[test]
    fn checksum_matches_reference_vectors() {
        // published XXH64 (seed 0) vectors
        assert_eq!(checksum(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum(b"abc"), 0x44BC_2CF5_AD77_0999);
        // 1-byte tail only
        assert_eq!(checksum(b"a"), 0xD24E_C4F1_A98C_6E5B);
        // one 8-byte, one 4-byte and two 1-byte tail pieces
        assert_eq!(checksum(b"message digest"), 0x066E_D728_FCEE_B3BE);
        // three 8-byte words and two single bytes
        assert_eq!(
            checksum(b"abcdefghijklmnopqrstuvwxyz"),
            0xCFE1_F278_FA89_835C
        );
        // one 32-byte stripe, then 8-, 4- and 1-byte tail pieces
        assert_eq!(
            checksum(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
            0xAAA4_6907_D304_7814
        );
        // two stripes and two 8-byte words
        assert_eq!(
            checksum(
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890"
            ),
            0xE04A_477F_19EE_145D
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // canonical FNV-1a 64 test vectors, fed in pieces
        assert_eq!(Fnv64::new().write(b"").finish(), 0xCBF2_9CE4_8422_2325);
        assert_eq!(Fnv64::new().write(b"a").finish(), 0xAF63_DC4C_8601_EC8C);
        let mut h = Fnv64::new();
        h.write(b"foo").write(b"bar");
        assert_eq!(h.finish(), 0x85944171F73967E8);
    }

    #[test]
    fn f64_hashing_uses_exact_bits() {
        let a = Fnv64::new().write_f64(0.0).finish();
        let b = Fnv64::new().write_f64(-0.0).finish();
        assert_ne!(a, b, "sign bit must participate in the fingerprint");
    }
}
