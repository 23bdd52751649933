//! Versioned, checksummed binary snapshots of simulator state.
//!
//! A cycle-accurate simulator's whole value is that every piece of
//! architectural state is explicit — which makes *exact* checkpoint and
//! restore feasible: serialize every latch, FIFO, and counter, read it
//! back, and the machine must be cycle-for-cycle bit-identical to one
//! that never stopped.  This module is the wire format for that promise:
//!
//! * a little-endian, dependency-free byte [`Writer`]/[`Reader`] pair,
//! * a fixed header (`DSNP` magic + format version) and an FNV-1a 64
//!   trailer so truncated or bit-flipped images are rejected up front,
//! * four-byte section tags (`w.tag(b"CTRL")` / `r.tag(b"CTRL")`) so a
//!   reader that drifts out of sync fails loudly at the next section
//!   instead of silently misinterpreting bytes,
//! * the [`Snapshot`] trait, implemented by every stateful component in
//!   the workspace (datapath, control, memory, IFU, devices, fabric).
//!
//! Restore is **in place**: a snapshot holds dynamic state only, not
//! configuration.  Microcode images, decode tables, clock and memory
//! geometry stay with the live object, and `restore` validates that the
//! target was built with the same configuration (array lengths, cache
//! geometry) before overwriting anything, returning
//! [`SnapError::Mismatch`] otherwise.

use crate::{TaskId, Word, NUM_TASKS};

/// Current snapshot format version, bumped on any layout change.
pub const SNAP_VERSION: u16 = 1;

/// The four magic bytes opening every snapshot image.
pub const SNAP_MAGIC: [u8; 4] = *b"DSNP";

/// Errors from decoding or applying a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapError {
    /// The image does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The image was written by an incompatible format version.
    BadVersion {
        /// Version found in the image header.
        found: u16,
        /// Version this build understands.
        expected: u16,
    },
    /// The FNV-1a trailer does not match the image contents.
    BadChecksum {
        /// Checksum stored in the image.
        found: u64,
        /// Checksum recomputed over the image.
        expected: u64,
    },
    /// The image ended before a read completed.
    Truncated,
    /// A section tag other than the expected one was found.
    BadTag {
        /// The tag the reader expected next.
        expected: [u8; 4],
        /// The tag actually present.
        found: [u8; 4],
    },
    /// The restore target was built with a different configuration than
    /// the machine that produced the snapshot.
    Mismatch {
        /// Which configuration item disagreed.
        what: &'static str,
    },
    /// A field held a value outside its domain.
    Invalid {
        /// Which field was malformed.
        what: &'static str,
    },
    /// Bytes remained after the last reader consumed its section.
    Trailing {
        /// How many bytes were left over.
        left: usize,
    },
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::BadVersion { found, expected } => {
                write!(f, "snapshot version {found}, expected {expected}")
            }
            SnapError::BadChecksum { found, expected } => write!(
                f,
                "snapshot checksum {found:#018x} does not match contents ({expected:#018x})"
            ),
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadTag { expected, found } => write!(
                f,
                "expected section {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            SnapError::Mismatch { what } => {
                write!(f, "restore target configured differently: {what}")
            }
            SnapError::Invalid { what } => write!(f, "invalid snapshot field: {what}"),
            SnapError::Trailing { left } => {
                write!(f, "{left} byte(s) left over after restore")
            }
        }
    }
}

impl std::error::Error for SnapError {}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Serializer for snapshot images: header + body + checksum trailer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer with the header already laid down.
    pub fn new() -> Self {
        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(&SNAP_MAGIC);
        w.buf.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        w
    }

    /// Writes a four-byte section tag.
    pub fn tag(&mut self, tag: &[u8; 4]) {
        self.buf.extend_from_slice(tag);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a little-endian `u64`.
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a slice of words with no length prefix (fixed-size arrays).
    pub fn words(&mut self, ws: &[Word]) {
        for &w in ws {
            self.u16(w);
        }
    }

    /// Writes a length-prefixed sequence of words.
    pub fn word_seq(&mut self, ws: impl ExactSizeIterator<Item = Word>) {
        self.len(ws.len());
        for w in ws {
            self.u16(w);
        }
    }

    /// Writes a length-prefixed byte sequence.
    pub fn byte_seq(&mut self, bs: impl ExactSizeIterator<Item = u8>) {
        self.len(bs.len());
        for b in bs {
            self.u8(b);
        }
    }

    /// Seals the image: appends the FNV-1a checksum of everything written
    /// so far and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Deserializer over a validated snapshot body.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Validates magic, version, and checksum, returning a reader
    /// positioned at the start of the body.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadMagic`], [`SnapError::BadVersion`],
    /// [`SnapError::BadChecksum`], or [`SnapError::Truncated`] when the
    /// image is not a well-formed snapshot of this format version.
    pub fn open(bytes: &'a [u8]) -> Result<Self, SnapError> {
        if bytes.len() < SNAP_MAGIC.len() + 2 + 8 {
            return Err(SnapError::Truncated);
        }
        if bytes[..4] != SNAP_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != SNAP_VERSION {
            return Err(SnapError::BadVersion {
                found: version,
                expected: SNAP_VERSION,
            });
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let found = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        let expected = fnv1a(body);
        if found != expected {
            return Err(SnapError::BadChecksum { found, expected });
        }
        Ok(Reader {
            data: body,
            pos: 6,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        if end > self.data.len() {
            return Err(SnapError::Truncated);
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Consumes a section tag, checking it matches `expected`.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadTag`] on mismatch; [`SnapError::Truncated`] if the
    /// image ends first.
    pub fn tag(&mut self, expected: &[u8; 4]) -> Result<(), SnapError> {
        let found = self.take(4)?;
        if found != expected {
            return Err(SnapError::BadTag {
                expected: *expected,
                found: found.try_into().expect("4-byte tag"),
            });
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the image ends first.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the image ends first.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the image ends first.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the image ends first.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a sequence length written by [`Writer::len`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the image ends first;
    /// [`SnapError::Invalid`] if the value does not fit a `usize` or
    /// exceeds the bytes remaining (a corrupt length that would make a
    /// follower allocate absurdly).
    // Not a container length: this *consumes* a length prefix.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        let v: usize = v
            .try_into()
            .map_err(|_| SnapError::Invalid { what: "length" })?;
        // Every element of every sequence occupies at least one byte, so
        // a length beyond the remaining bytes is necessarily corrupt.
        if v > self.data.len() - self.pos {
            return Err(SnapError::Invalid { what: "length" });
        }
        Ok(v)
    }

    /// Reads a `bool` written by [`Writer::bool`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the image ends first;
    /// [`SnapError::Invalid`] for any byte other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Invalid { what: "bool" }),
        }
    }

    /// Reads a task number written as one byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the image ends first;
    /// [`SnapError::Invalid`] for a byte outside `0..16`.
    pub fn task(&mut self) -> Result<TaskId, SnapError> {
        let raw = self.u8()?;
        if usize::from(raw) < NUM_TASKS {
            Ok(TaskId::new(raw))
        } else {
            Err(SnapError::Invalid { what: "task" })
        }
    }

    /// Fills a fixed-size word slice written by [`Writer::words`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the image ends first.
    pub fn words(&mut self, out: &mut [Word]) -> Result<(), SnapError> {
        for w in out {
            *w = self.u16()?;
        }
        Ok(())
    }

    /// Reads a length-prefixed word sequence written by
    /// [`Writer::word_seq`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] or [`SnapError::Invalid`] as for
    /// [`Reader::len`].
    pub fn word_seq(&mut self) -> Result<Vec<Word>, SnapError> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u16()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed byte sequence written by
    /// [`Writer::byte_seq`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] or [`SnapError::Invalid`] as for
    /// [`Reader::len`].
    pub fn byte_seq(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.len()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Asserts the body was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`SnapError::Trailing`] if bytes remain.
    pub fn finish(self) -> Result<(), SnapError> {
        let left = self.data.len() - self.pos;
        if left != 0 {
            return Err(SnapError::Trailing { left });
        }
        Ok(())
    }
}

/// A component whose complete dynamic state can be serialized and
/// restored in place.
///
/// The contract: for any machine `m` built from configuration `C`, and
/// any fresh machine `m2` built from the same `C`,
/// `restore(m2, save(m))` followed by `k` steps of `m2` is bit-identical
/// to `k` further steps of `m` — same registers, same counters, same
/// trace events.
pub trait Snapshot {
    /// Appends this component's state to `w`.
    fn save(&self, w: &mut Writer);

    /// Overwrites this component's state from `r`.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`]; on error the component may be partially
    /// restored and should be discarded.
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError>;
}

/// Serializes one component (plus header and checksum) into a standalone
/// image.
pub fn save_image<T: Snapshot + ?Sized>(x: &T) -> Vec<u8> {
    let mut w = Writer::new();
    x.save(&mut w);
    w.finish()
}

/// Restores one component from an image produced by [`save_image`],
/// requiring the image to be consumed exactly.
///
/// # Errors
///
/// Any [`SnapError`] from validation or the component's own restore.
pub fn restore_image<T: Snapshot + ?Sized>(x: &mut T, bytes: &[u8]) -> Result<(), SnapError> {
    let mut r = Reader::open(bytes)?;
    x.restore(&mut r)?;
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut w = Writer::new();
        w.tag(b"TEST");
        w.u8(0xab);
        w.u16(0x1234);
        w.u32(0xdead_beef);
        w.u64(0x0123_4567_89ab_cdef);
        w.bool(true);
        w.bool(false);
        w.words(&[1, 2, 3]);
        w.word_seq([9, 8].into_iter());
        w.byte_seq([7u8, 6, 5].into_iter());
        let img = w.finish();

        let mut r = Reader::open(&img).unwrap();
        r.tag(b"TEST").unwrap();
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        let mut ws = [0u16; 3];
        r.words(&mut ws).unwrap();
        assert_eq!(ws, [1, 2, 3]);
        assert_eq!(r.word_seq().unwrap(), vec![9, 8]);
        assert_eq!(r.byte_seq().unwrap(), vec![7, 6, 5]);
        r.finish().unwrap();
    }

    #[test]
    fn bit_flip_is_detected() {
        let mut w = Writer::new();
        w.u64(42);
        let mut img = w.finish();
        for i in 0..img.len() - 8 {
            let mut bad = img.clone();
            bad[i] ^= 0x10;
            let err = Reader::open(&bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapError::BadChecksum { .. }
                        | SnapError::BadMagic
                        | SnapError::BadVersion { .. }
                ),
                "flip at {i} gave {err:?}"
            );
        }
        // And a trailer flip too.
        let last = img.len() - 1;
        img[last] ^= 1;
        assert!(matches!(
            Reader::open(&img).unwrap_err(),
            SnapError::BadChecksum { .. }
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = Writer::new();
        w.u64(42);
        let img = w.finish();
        for cut in 0..img.len() {
            assert!(Reader::open(&img[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut img = Writer::new().finish();
        // Rewrite the version field and re-seal with a valid checksum so
        // only the version check can fire.
        img.truncate(img.len() - 8);
        img[4] = 0xff;
        img[5] = 0xff;
        let sum = fnv1a(&img);
        img.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            Reader::open(&img).unwrap_err(),
            SnapError::BadVersion {
                found: 0xffff,
                expected: SNAP_VERSION
            }
        );
    }

    #[test]
    fn tag_mismatch_names_both_sides() {
        let mut w = Writer::new();
        w.tag(b"AAAA");
        let img = w.finish();
        let mut r = Reader::open(&img).unwrap();
        assert_eq!(
            r.tag(b"BBBB").unwrap_err(),
            SnapError::BadTag {
                expected: *b"BBBB",
                found: *b"AAAA"
            }
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = Writer::new();
        w.u8(1);
        let img = w.finish();
        let r = Reader::open(&img).unwrap();
        assert_eq!(r.finish().unwrap_err(), SnapError::Trailing { left: 1 });
    }

    #[test]
    fn absurd_length_is_rejected_before_allocation() {
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let img = w.finish();
        let mut r = Reader::open(&img).unwrap();
        assert!(matches!(
            r.word_seq().unwrap_err(),
            SnapError::Invalid { what: "length" }
        ));
    }

    #[test]
    fn out_of_range_task_is_rejected() {
        let mut w = Writer::new();
        w.u8(15);
        w.u8(16);
        let img = w.finish();
        let mut r = Reader::open(&img).unwrap();
        assert_eq!(r.task().unwrap(), TaskId::new(15));
        assert_eq!(r.task().unwrap_err(), SnapError::Invalid { what: "task" });
    }

    #[test]
    fn save_restore_image_round_trip() {
        struct Pair(u64, u64);
        impl Snapshot for Pair {
            fn save(&self, w: &mut Writer) {
                w.u64(self.0);
                w.u64(self.1);
            }
            fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
                self.0 = r.u64()?;
                self.1 = r.u64()?;
                Ok(())
            }
        }
        let a = Pair(3, 4);
        let mut b = Pair(0, 0);
        restore_image(&mut b, &save_image(&a)).unwrap();
        assert_eq!((b.0, b.1), (3, 4));
        assert_eq!(save_image(&a), save_image(&b));
    }
}
