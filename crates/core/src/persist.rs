//! Persistence for the Grid-index artefacts (paper §3.2) and the
//! threshold index.
//!
//! The paper stores approximate vectors as `b·d`-bit strings so that
//! "the storage overhead by the compressed 6-bit data is less than 1/10
//! of the original data" and "reading approximate vectors with
//! bit-string binary compression only has half the time costs compared
//! to regular I/O operations". This module provides that on-disk format:
//! a bit-packed approximate-vector file plus the few scalars needed to
//! rebuild the corner table (`n` and the two value ranges — the table
//! itself is recomputed in microseconds).
//!
//! Every artifact carries a magic tag, a format version, and an
//! FNV-1a-64 checksum, and the reader requires the file length to match
//! the header *exactly*. Header values are range-checked with checked
//! arithmetic before they size anything. A truncated, trailing-garbage
//! or bit-flipped file is rejected with a typed [`RrqError`] variant
//! (`ArtifactBadMagic`, `ArtifactBadVersion`, `ArtifactTruncated`,
//! `ArtifactChecksum`, `InvalidParameter`) instead of being silently
//! misread or panicking the reader.
//!
//! Approximate-vector file (`RRQA`, version 3):
//!
//! ```text
//! magic    (4 bytes)  "RRQA"
//! version  (u16 LE)   3
//! dim      (u32 LE)
//! rows     (u64 LE)
//! bits     (u8)       1..=8
//! n        (u16 LE)   grid partitions, 2..=255
//! p_range  (f64 LE)   finite, > 0
//! w_range  (f64 LE)   finite, > 0
//! words    (u64 LE)   number of 64-bit payload words
//! checksum (u64 LE)   FNV-1a-64 of every header byte before it, then
//!                     of the payload bytes
//! payload  (words × u64 LE)
//! ```
//!
//! Version 3 extended the checksum over the header: under version 2 a
//! flipped partition count or value range read back as a valid file.
//!
//! Threshold-index file (`RRQT`, version 3):
//!
//! ```text
//! magic       (4 bytes)  "RRQT"
//! version     (u16 LE)   3
//! dims        (u32 LE)
//! n_points    (u64 LE)
//! n_weights   (u64 LE)
//! n_buckets   (u64 LE)
//! epoch       (u64 LE)   mutable-engine epoch the table was stamped at
//!                        (0 for a static build)
//! fingerprint (u64 LE)   FNV-1a-64 of the (P, W, epoch) it was built from
//! n_exact     (u64 LE)   exact rungs, 1..=n_buckets; the rest are
//!                        floor rungs
//! checksum    (u64 LE)   FNV-1a-64 of the n_exact bytes, then of the
//!                        payload bytes
//! payload     buckets (n_buckets × u64 LE)
//!             then exact scores (n_exact · n_weights × f64 LE)
//!             then floor scores ((n_buckets − n_exact) · n_weights × f32 LE)
//!             then floor counts ((n_buckets − n_exact) · n_weights × u32 LE)
//! ```
//!
//! Version 2 added the epoch field; version 3 records the split between
//! exact and floor rungs of a mutable engine's table. The checksum
//! covers `n_exact` because it alone decides how the payload is read
//! without changing the file length; a flip in any other header field
//! changes the length or fails the attach-time staleness check. Older
//! versions are rejected with [`RrqError::ArtifactBadVersion`] rather
//! than read with an assumed epoch or split — an artifact that cannot
//! prove which data version it describes is stale by definition.

use crate::approx::{ApproxVectors, PackedApproxVectors};
use crate::grid::Grid;
use crate::threshold::{Fnv1a64, ThresholdIndex};
use rrq_types::{RrqError, RrqResult};
use std::path::Path;

const APPROX_MAGIC: &[u8; 4] = b"RRQA";
const APPROX_VERSION: u16 = 3;
/// Fixed byte size of the RRQA header, everything before the payload.
const APPROX_HEADER: usize = 4 + 2 + 4 + 8 + 1 + 2 + 8 + 8 + 8 + 8;

const THRESHOLD_MAGIC: &[u8; 4] = b"RRQT";
const THRESHOLD_VERSION: u16 = 3;
/// Fixed byte size of the RRQT header, everything before the payload.
const THRESHOLD_HEADER: usize = 4 + 2 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 8;

fn write_error(e: std::io::Error) -> RrqError {
    RrqError::ArtifactIo {
        op: "write",
        message: e.to_string(),
    }
}

/// Sequential reader over an in-memory artifact image that reports
/// reads past the end as typed truncation errors.
struct ArtifactCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ArtifactCursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> RrqResult<&'a [u8]> {
        let end = self.pos.saturating_add(n);
        if end > self.bytes.len() {
            return Err(RrqError::ArtifactTruncated {
                expected: end,
                actual: self.bytes.len(),
            });
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> RrqResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> RrqResult<u16> {
        let mut b = [0u8; 2];
        b.copy_from_slice(self.take(2)?);
        Ok(u16::from_le_bytes(b))
    }

    fn u32(&mut self) -> RrqResult<u32> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> RrqResult<u64> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> RrqResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn f32(&mut self) -> RrqResult<f32> {
        Ok(f32::from_bits(self.u32()?))
    }
}

fn read_file(path: &Path) -> RrqResult<Vec<u8>> {
    std::fs::read(path).map_err(|e| RrqError::ArtifactIo {
        op: "read",
        message: e.to_string(),
    })
}

/// Checks an artifact image's magic and version and returns a cursor
/// just past them.
fn open_artifact<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    magic_name: &'static str,
    version: u16,
) -> RrqResult<ArtifactCursor<'a>> {
    let mut cur = ArtifactCursor::new(bytes);
    if cur.take(4)? != magic {
        return Err(RrqError::ArtifactBadMagic {
            expected: magic_name,
        });
    }
    let actual_version = cur.u16()?;
    if actual_version != version {
        return Err(RrqError::ArtifactBadVersion {
            expected: version,
            actual: actual_version,
        });
    }
    Ok(cur)
}

/// Compares a computed FNV-1a-64 checksum with the header value.
fn check_checksum(actual: u64, recorded: u64) -> RrqResult<()> {
    if actual != recorded {
        return Err(RrqError::ArtifactChecksum {
            expected: recorded,
            actual,
        });
    }
    Ok(())
}

fn header_error(message: &str) -> RrqError {
    RrqError::InvalidParameter {
        name: "header",
        message: message.to_string(),
    }
}

/// Checks the file length equals the header-declared total exactly.
fn check_exact_len(bytes: &[u8], expected: usize) -> RrqResult<()> {
    if bytes.len() != expected {
        return Err(RrqError::ArtifactTruncated {
            expected,
            actual: bytes.len(),
        });
    }
    Ok(())
}

/// A persisted approximate-vector file: the packed cells plus the grid
/// geometry they were quantised with.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxFile {
    /// The bit-packed approximate vectors.
    pub vectors: PackedApproxVectors,
    /// Grid partitions `n`.
    pub partitions: usize,
    /// Product value range.
    pub point_range: f64,
    /// Weight value range.
    pub weight_range: f64,
}

impl ApproxFile {
    /// Rebuilds the corner table this file was quantised with. The
    /// reader has validated the geometry, so this cannot panic on a file
    /// [`read_approx`] accepted.
    pub fn rebuild_grid(&self) -> Grid {
        Grid::with_ranges(self.partitions, self.point_range, self.weight_range)
    }

    /// Unpacks to byte-format approximate vectors.
    pub fn unpack(&self) -> ApproxVectors {
        self.vectors.unpack()
    }
}

/// Writes packed approximate vectors with their grid geometry.
///
/// # Errors
///
/// Wraps I/O failures in [`RrqError::ArtifactIo`].
pub fn write_approx(path: &Path, vectors: &PackedApproxVectors, grid: &Grid) -> RrqResult<()> {
    let words = vectors.words();
    let mut payload = Vec::with_capacity(words.len() * 8);
    for &w in words {
        payload.extend_from_slice(&w.to_le_bytes());
    }
    let mut image = Vec::with_capacity(APPROX_HEADER + payload.len());
    image.extend_from_slice(APPROX_MAGIC);
    image.extend_from_slice(&APPROX_VERSION.to_le_bytes());
    image.extend_from_slice(&(vectors.dim() as u32).to_le_bytes());
    image.extend_from_slice(&(vectors.len() as u64).to_le_bytes());
    image.push(vectors.bits() as u8);
    image.extend_from_slice(&(grid.partitions() as u16).to_le_bytes());
    image.extend_from_slice(&grid.point_range().to_le_bytes());
    image.extend_from_slice(&grid.weight_range().to_le_bytes());
    image.extend_from_slice(&(words.len() as u64).to_le_bytes());
    let mut checksum = Fnv1a64::new();
    checksum.update(&image);
    checksum.update(&payload);
    image.extend_from_slice(&checksum.finish().to_le_bytes());
    image.extend_from_slice(&payload);
    std::fs::write(path, image).map_err(write_error)
}

/// Reads a packed approximate-vector file.
///
/// # Errors
///
/// [`RrqError::ArtifactIo`] on filesystem failure;
/// [`RrqError::ArtifactBadMagic`] / [`RrqError::ArtifactBadVersion`] /
/// [`RrqError::ArtifactTruncated`] / [`RrqError::ArtifactChecksum`] on
/// a corrupted file; [`RrqError::InvalidParameter`] when the header is
/// internally inconsistent.
pub fn read_approx(path: &Path) -> RrqResult<ApproxFile> {
    decode_approx(&read_file(path)?)
}

fn decode_approx(bytes: &[u8]) -> RrqResult<ApproxFile> {
    let mut cur = open_artifact(bytes, APPROX_MAGIC, "RRQA", APPROX_VERSION)?;
    let dim = cur.u32()? as usize;
    let rows = cur.u64()? as usize;
    let bits = cur.u8()? as u32;
    let partitions = cur.u16()? as usize;
    let point_range = cur.f64()?;
    let weight_range = cur.f64()?;
    let n_words = cur.u64()? as usize;
    let checksum = cur.u64()?;
    let expected_words = rows
        .checked_mul(dim)
        .and_then(|cells| cells.checked_mul(bits as usize))
        .map(|total_bits| total_bits.div_ceil(64));
    let positive = |r: f64| r.is_finite() && r > 0.0;
    if expected_words != Some(n_words)
        || !(1..=8).contains(&bits)
        || !(2..=255).contains(&partitions)
        || !positive(point_range)
        || !positive(weight_range)
    {
        return Err(header_error("inconsistent approx-file header"));
    }
    // `n_words` is at most usize::MAX / 64 here, so the length cannot
    // overflow.
    check_exact_len(bytes, APPROX_HEADER + n_words * 8)?;
    let payload = &bytes[APPROX_HEADER..];
    let mut actual = Fnv1a64::new();
    actual.update(&bytes[..APPROX_HEADER - 8]);
    actual.update(payload);
    check_checksum(actual.finish(), checksum)?;
    let mut cur = ArtifactCursor::new(payload);
    let mut words = vec![0u64; n_words];
    for w in &mut words {
        *w = cur.u64()?;
    }
    Ok(ApproxFile {
        vectors: PackedApproxVectors::from_parts(dim, bits, rows, words),
        partitions,
        point_range,
        weight_range,
    })
}

/// Writes a [`ThresholdIndex`] as a checksummed `RRQT` artifact.
///
/// # Errors
///
/// Wraps I/O failures in [`RrqError::ArtifactIo`].
pub fn write_threshold(path: &Path, index: &ThresholdIndex) -> RrqResult<()> {
    let buckets = index.buckets();
    let scores = index.scores();
    let (floor_scores, floor_counts) = (index.floor_scores(), index.floor_counts());
    let mut payload = Vec::with_capacity(
        (buckets.len() + scores.len()) * 8 + (floor_scores.len() + floor_counts.len()) * 4,
    );
    for &b in buckets {
        payload.extend_from_slice(&(b as u64).to_le_bytes());
    }
    for &s in scores {
        payload.extend_from_slice(&s.to_bits().to_le_bytes());
    }
    for &s in floor_scores {
        payload.extend_from_slice(&s.to_bits().to_le_bytes());
    }
    for &c in floor_counts {
        payload.extend_from_slice(&c.to_le_bytes());
    }
    let mut image = Vec::with_capacity(THRESHOLD_HEADER + payload.len());
    image.extend_from_slice(THRESHOLD_MAGIC);
    image.extend_from_slice(&THRESHOLD_VERSION.to_le_bytes());
    image.extend_from_slice(&(index.dims() as u32).to_le_bytes());
    image.extend_from_slice(&(index.n_points() as u64).to_le_bytes());
    image.extend_from_slice(&(index.n_weights() as u64).to_le_bytes());
    image.extend_from_slice(&(buckets.len() as u64).to_le_bytes());
    image.extend_from_slice(&index.epoch().to_le_bytes());
    image.extend_from_slice(&index.fingerprint().to_le_bytes());
    let n_exact = (index.n_exact() as u64).to_le_bytes();
    image.extend_from_slice(&n_exact);
    let mut checksum = Fnv1a64::new();
    checksum.update(&n_exact);
    checksum.update(&payload);
    image.extend_from_slice(&checksum.finish().to_le_bytes());
    image.extend_from_slice(&payload);
    std::fs::write(path, image).map_err(write_error)
}

/// Reads a `RRQT` threshold-index artifact.
///
/// The returned index still carries its build-time data fingerprint;
/// attaching it via [`crate::Gir::attach_threshold_index`] re-validates
/// it against the live data sets, so a structurally intact but stale
/// artifact is rejected at attach time, not served.
///
/// # Errors
///
/// [`RrqError::ArtifactIo`] on filesystem failure;
/// [`RrqError::ArtifactBadMagic`] / [`RrqError::ArtifactBadVersion`] /
/// [`RrqError::ArtifactTruncated`] / [`RrqError::ArtifactChecksum`] on
/// a corrupted file; [`RrqError::InvalidParameter`] when the decoded
/// table violates the index's structural invariants.
pub fn read_threshold(path: &Path) -> RrqResult<ThresholdIndex> {
    decode_threshold(&read_file(path)?)
}

fn decode_threshold(bytes: &[u8]) -> RrqResult<ThresholdIndex> {
    let mut cur = open_artifact(bytes, THRESHOLD_MAGIC, "RRQT", THRESHOLD_VERSION)?;
    let dims = cur.u32()? as usize;
    let n_points = cur.u64()? as usize;
    let n_weights = cur.u64()? as usize;
    let n_buckets = cur.u64()? as usize;
    let epoch = cur.u64()?;
    let fingerprint = cur.u64()?;
    let n_exact = cur.u64()? as usize;
    let checksum = cur.u64()?;
    if !(1..=n_buckets).contains(&n_exact) {
        return Err(header_error(
            "threshold-index exact rungs outside 1..=buckets",
        ));
    }
    let section = |rungs: usize| {
        rungs
            .checked_mul(n_weights)
            .ok_or_else(|| header_error("threshold-index table size overflows"))
    };
    let (n_scores, n_floor) = (section(n_exact)?, section(n_buckets - n_exact)?);
    // Each floor entry is an f32 score and a u32 count: 8 bytes, like an
    // exact score or a bucket.
    let file_len = n_scores
        .checked_add(n_floor)
        .and_then(|entries| entries.checked_add(n_buckets))
        .and_then(|words| words.checked_mul(8))
        .and_then(|payload| payload.checked_add(THRESHOLD_HEADER))
        .ok_or_else(|| header_error("threshold-index payload size overflows"))?;
    check_exact_len(bytes, file_len)?;
    let payload = &bytes[THRESHOLD_HEADER..];
    let mut actual = Fnv1a64::new();
    actual.update(&bytes[THRESHOLD_HEADER - 16..THRESHOLD_HEADER - 8]);
    actual.update(payload);
    check_checksum(actual.finish(), checksum)?;
    let mut cur = ArtifactCursor::new(payload);
    let mut buckets = Vec::with_capacity(n_buckets);
    for _ in 0..n_buckets {
        buckets.push(cur.u64()? as usize);
    }
    let mut scores = Vec::with_capacity(n_scores);
    for _ in 0..n_scores {
        scores.push(cur.f64()?);
    }
    let mut floor_scores = Vec::with_capacity(n_floor);
    for _ in 0..n_floor {
        floor_scores.push(cur.f32()?);
    }
    let mut floor_counts = Vec::with_capacity(n_floor);
    for _ in 0..n_floor {
        floor_counts.push(cur.u32()?);
    }
    ThresholdIndex::from_parts(
        buckets,
        n_exact,
        n_points,
        n_weights,
        dims,
        scores,
        (floor_scores, floor_counts),
        fingerprint,
        epoch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrq_data::synthetic;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rrq_persist_{}_{name}", std::process::id()))
    }

    fn sample() -> (PackedApproxVectors, Grid) {
        let grid = Grid::with_ranges(32, 10_000.0, 0.8);
        let ps = synthetic::uniform_points(6, 500, 10_000.0, 1).unwrap();
        let av = ApproxVectors::from_points(&grid, &ps);
        (PackedApproxVectors::pack(&av, 5), grid)
    }

    fn sample_threshold() -> ThresholdIndex {
        let p = synthetic::uniform_points(4, 80, 10_000.0, 3).unwrap();
        let w = synthetic::uniform_weights(4, 16, 4).unwrap();
        ThresholdIndex::build(&p, &w, &[1, 10, 50]).unwrap()
    }

    #[test]
    fn round_trips_exactly() {
        let (packed, grid) = sample();
        let path = tmp("rt.bin");
        write_approx(&path, &packed, &grid).unwrap();
        let back = read_approx(&path).unwrap();
        assert_eq!(back.vectors, packed);
        assert_eq!(back.partitions, 32);
        assert_eq!(back.point_range, 10_000.0);
        assert_eq!(back.weight_range, 0.8);
        let rebuilt = back.rebuild_grid();
        assert_eq!(rebuilt.partitions(), 32);
        assert_eq!(back.unpack(), packed.unpack());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_is_much_smaller_than_floats() {
        // §3.2: b = 5..6 bits per dim vs 64-bit floats → < 1/10 the bytes.
        let (packed, grid) = sample();
        let path = tmp("small.bin");
        write_approx(&path, &packed, &grid).unwrap();
        let file_len = std::fs::metadata(&path).unwrap().len() as usize;
        let original = 500 * 6 * 8;
        assert!(file_len * 10 < original + 1000, "{file_len} vs {original}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let (packed, grid) = sample();
        let path = tmp("corrupt.bin");
        write_approx(&path, &packed, &grid).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_approx(&path),
            Err(RrqError::ArtifactBadMagic { expected: "RRQA" })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_unknown_version() {
        let (packed, grid) = sample();
        let path = tmp("badver.bin");
        write_approx(&path, &packed, &grid).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 9; // version low byte
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_approx(&path),
            Err(RrqError::ArtifactBadVersion {
                expected: 3,
                actual: 9
            })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncated_payload() {
        let (packed, grid) = sample();
        let path = tmp("trunc.bin");
        write_approx(&path, &packed, &grid).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            read_approx(&path),
            Err(RrqError::ArtifactTruncated { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_trailing_garbage() {
        let (packed, grid) = sample();
        let path = tmp("tail.bin");
        write_approx(&path, &packed, &grid).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"garbage");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_approx(&path),
            Err(RrqError::ArtifactTruncated { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_flipped_payload_bit() {
        let (packed, grid) = sample();
        let path = tmp("flip.bin");
        write_approx(&path, &packed, &grid).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_approx(&path),
            Err(RrqError::ArtifactChecksum { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_inconsistent_word_count() {
        let (packed, grid) = sample();
        let path = tmp("badwords.bin");
        write_approx(&path, &packed, &grid).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // words count field sits after 4+2+4+8+1+2+8+8 = 37 bytes.
        bytes[37] = bytes[37].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        // The declared word count no longer matches the geometry-derived
        // count, which the reader flags before trusting any length.
        assert!(read_approx(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_missing_file_with_io_error() {
        let path = tmp("does_not_exist.bin");
        assert!(matches!(
            read_approx(&path),
            Err(RrqError::ArtifactIo { op: "read", .. })
        ));
    }

    #[test]
    fn threshold_round_trips_exactly() {
        let idx = sample_threshold();
        let path = tmp("thr_rt.bin");
        write_threshold(&path, &idx).unwrap();
        let back = read_threshold(&path).unwrap();
        assert_eq!(back, idx);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn threshold_rejects_bad_magic_and_version() {
        let idx = sample_threshold();
        let path = tmp("thr_magic.bin");
        write_threshold(&path, &idx).unwrap();
        let good = std::fs::read(&path).unwrap();

        let mut bytes = good.clone();
        bytes[1] = b'Z';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_threshold(&path),
            Err(RrqError::ArtifactBadMagic { expected: "RRQT" })
        ));

        let mut bytes = good.clone();
        bytes[4] = 7;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_threshold(&path),
            Err(RrqError::ArtifactBadVersion {
                expected: 3,
                actual: 7
            })
        ));
        // A version-2 file has no exact-rung count: refused, not guessed.
        let mut bytes = good.clone();
        bytes[4] = 2;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_threshold(&path),
            Err(RrqError::ArtifactBadVersion {
                expected: 3,
                actual: 2
            })
        ));
        std::fs::remove_file(&path).ok();
    }

    /// A mutable engine's split table after a few publishes: exact rungs
    /// up to the served k = 6, floor rungs above with moved counts.
    fn split_threshold_engine(np: usize, nw: usize) -> crate::DynamicEngine {
        let p = synthetic::uniform_points(3, np, 10_000.0, 8).unwrap();
        let w = synthetic::uniform_weights(3, nw, 9).unwrap();
        let mut engine = crate::DynamicEngine::new(p, w, crate::GirConfig::default()).unwrap();
        engine
            .enable_threshold_index(&ThresholdIndex::default_buckets(&[6], np))
            .unwrap();
        let mut stats = rrq_types::QueryStats::default();
        for round in 0..3u64 {
            engine.insert_point(&[9_000.0, 9_500.0, 8_000.0]).unwrap();
            engine.delete_point(round * 2 + 1).unwrap();
            engine.publish(&mut stats).unwrap();
        }
        engine
    }

    #[test]
    fn split_threshold_round_trips_and_checks_against_its_engine() {
        let engine = split_threshold_engine(40, 6);
        let idx = engine.snapshot().threshold_index().unwrap().clone();
        assert!(idx.n_exact() < idx.buckets().len(), "the table is split");
        let path = tmp("thr_split.bin");
        write_threshold(&path, &idx).unwrap();
        let back = read_threshold(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, idx);
        engine.check_threshold_artifact(&back).unwrap();
    }

    #[test]
    fn threshold_rejects_truncation_and_garbage() {
        let idx = sample_threshold();
        let path = tmp("thr_trunc.bin");
        write_threshold(&path, &idx).unwrap();
        let good = std::fs::read(&path).unwrap();

        std::fs::write(&path, &good[..good.len() - 5]).unwrap();
        assert!(matches!(
            read_threshold(&path),
            Err(RrqError::ArtifactTruncated { .. })
        ));

        let mut bytes = good.clone();
        bytes.push(0);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_threshold(&path),
            Err(RrqError::ArtifactTruncated { .. })
        ));

        // Headers shorter than the fixed prefix are truncation too.
        std::fs::write(&path, &good[..10]).unwrap();
        assert!(matches!(
            read_threshold(&path),
            Err(RrqError::ArtifactTruncated { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn threshold_rejects_corrupted_scores() {
        let idx = sample_threshold();
        let path = tmp("thr_flip.bin");
        write_threshold(&path, &idx).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_threshold(&path),
            Err(RrqError::ArtifactChecksum { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    /// Every single-byte corruption of `good` (XOR 0x01, 0x80 and 0xFF
    /// at each offset) and every truncation must be refused with a typed
    /// error: never a panic, and never `Ok` unless `served` then refuses
    /// the decoded value.
    fn assert_every_corruption_refused<T>(
        good: &[u8],
        decode: fn(&[u8]) -> RrqResult<T>,
        served: impl Fn(T) -> bool,
    ) {
        let mut cases = Vec::new();
        for i in 0..good.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bytes = good.to_vec();
                bytes[i] ^= mask;
                cases.push((format!("byte {i} ^ {mask:#04x}"), bytes));
            }
        }
        for len in 0..good.len() {
            cases.push((format!("truncated to {len} bytes"), good[..len].to_vec()));
        }
        for (label, bytes) in cases {
            match std::panic::catch_unwind(|| decode(&bytes)) {
                Err(_) => panic!("{label}: the reader panicked"),
                Ok(Ok(value)) => assert!(!served(value), "{label}: accepted"),
                Ok(Err(_)) => {}
            }
        }
    }

    #[test]
    fn every_byte_flip_and_truncation_is_refused() {
        let grid = Grid::with_ranges(32, 10_000.0, 0.8);
        let ps = synthetic::uniform_points(3, 20, 10_000.0, 5).unwrap();
        let packed = PackedApproxVectors::pack(&ApproxVectors::from_points(&grid, &ps), 5);
        let path = tmp("flips.rrqa");
        write_approx(&path, &packed, &grid).unwrap();
        let good = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(decode_approx(&good).unwrap().vectors, packed);
        assert_every_corruption_refused(&good, decode_approx, |file| {
            file.rebuild_grid();
            true
        });

        let p = synthetic::uniform_points(3, 20, 10_000.0, 6).unwrap();
        let w = synthetic::uniform_weights(3, 5, 7).unwrap();
        let idx = ThresholdIndex::build(&p, &w, &[1, 5, 20]).unwrap();
        let path = tmp("flips.rrqt");
        write_threshold(&path, &idx).unwrap();
        let good = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(decode_threshold(&good).unwrap(), idx);
        // A header flip the checksum does not cover (shape, epoch,
        // fingerprint) may read back; attaching must then refuse it.
        assert_every_corruption_refused(&good, decode_threshold, |idx| {
            let mut gir = crate::Gir::with_defaults(&p, &w);
            gir.attach_threshold_index(idx).is_ok()
        });

        // A split table: a flipped exact-rung count would move the
        // boundary between the f64 and the f32/u32 sections at the same
        // file length, so the checksum covers it.
        let engine = split_threshold_engine(20, 5);
        let idx = engine.snapshot().threshold_index().unwrap().clone();
        assert!(idx.n_exact() < idx.buckets().len(), "the table is split");
        let path = tmp("flips_split.rrqt");
        write_threshold(&path, &idx).unwrap();
        let good = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(decode_threshold(&good).unwrap(), idx);
        assert_every_corruption_refused(&good, decode_threshold, |idx| {
            engine.check_threshold_artifact(&idx).is_ok()
        });
    }
}
