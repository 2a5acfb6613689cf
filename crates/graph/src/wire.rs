//! Low-level helpers shared by every OCTOPUS binary codec.
//!
//! Three codecs in the workspace follow the same magic/version/`need()`
//! discipline — the graph codec ([`crate::codec`]), the dataset store
//! (`octopus-data::store`), and the offline-artifact cache
//! (`octopus-core::offline::persist`). This module is their common
//! substrate: bounds-checked reads that turn truncation into a typed error
//! instead of a panic, length-prefixed strings, and a stable 64-bit hash
//! for content fingerprints and payload checksums.

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
/// serve `u64`/`f64` fields in place), its byte `len`, and an FNV-1a
/// `checksum` of the payload bytes.
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
    /// FNV-1a 64 over the payload bytes.
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
    if fnv1a(payload) != entry.checksum {
        return Err(WireError(format!(
            "section {} checksum mismatch (corrupted in place)",
            entry.tag
        )));
    }
    Ok(payload)
}

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// An incremental FNV-1a 64-bit hasher with a **stable, documented**
/// algorithm — unlike `std::hash::DefaultHasher`, its output may be
/// persisted to disk (cache keys, payload checksums) and compared across
/// builds and platforms.
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

/// One-shot FNV-1a 64 over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
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
                checksum: fnv1a(&payload_a),
            },
            SectionEntry {
                tag: 6,
                key: 0xCD,
                off: b_off as u64,
                len: payload_b.len() as u64,
                checksum: fnv1a(&payload_b),
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
    fn fnv_matches_reference_vectors() {
        // canonical FNV-1a 64 test vectors
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"foo").write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn f64_hashing_uses_exact_bits() {
        let a = Fnv64::new().write_f64(0.0).finish();
        let b = Fnv64::new().write_f64(-0.0).finish();
        assert_ne!(a, b, "sign bit must participate in the fingerprint");
    }
}
