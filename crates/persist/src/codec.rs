//! Byte-level primitives of the artifact format: a bounds-checked reader
//! for the little-endian writer of `expresso_monitor_lang::canon`, and the
//! (word-wise FNV-1a) payload checksum.
//!
//! Everything is hand-rolled on `std` — the workspace carries no serde — and
//! deliberately boring: fixed-width little-endian integers, length-prefixed
//! strings and sequences, one-byte tags for enums. The reader never panics on
//! malformed input; every failure is a [`DecodeError`] the artifact loader
//! turns into a cold start.

use std::fmt;

/// A decoding failure (truncation, invalid tag, bad UTF-8, …). The loader
/// reports it and falls back to a cold start; it is never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed cache artifact: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

pub(crate) fn err<T>(message: impl Into<String>) -> Result<T, DecodeError> {
    Err(DecodeError(message.into()))
}

/// FNV-1a's xor-then-multiply over `bytes`, taken eight at a time (the last,
/// short group padded with zeros, the length mixed in last), with the upper
/// half of the state folded into the lower after every multiply — the
/// artifact's payload checksum and the hash of an outcome key. A multiply
/// only carries upwards: without the fold a flipped bit 63 would change the
/// state by exactly 2^63 whatever came after, and two of them, in any two
/// groups, would cancel. Every step is a bijection of the state, so two
/// inputs of one length that differ in one group never collide. A byte at a
/// time the multiply chain measured 5.5 ms of a 25 ms load of the 4.3 MB
/// corpus artifact; a word at a time, under a millisecond. Not
/// cryptographic; it guards against truncation and bit rot, not adversaries.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        hash = (hash ^ word).wrapping_mul(0x1_0000_01b3);
        hash ^= hash >> 32;
    };
    let mut groups = bytes.chunks_exact(8);
    for group in groups.by_ref() {
        mix(u64::from_le_bytes(group.try_into().expect("eight bytes")));
    }
    let mut last = [0; 8];
    last[..groups.remainder().len()].copy_from_slice(groups.remainder());
    mix(u64::from_le_bytes(last));
    mix(bytes.len() as u64);
    hash
}

/// The writer the reader below mirrors; it lives with the canonical AST
/// encoding, whose bytes the artifact stores as they are.
pub use expresso_monitor_lang::canon::Writer;

/// Bounds-checked little-endian byte source over a borrowed payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| DecodeError(format!("truncated: wanted {n} bytes at {}", self.pos)))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError("invalid UTF-8".into()))
    }

    pub fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.seq()?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a reference into a node table, which must name one of its first
    /// `limit` rows. Every row number in the artifact is read through here:
    /// with `limit` the number of the row being decoded this rejects forward
    /// and self references (so the tables cannot hold a cycle), with `limit`
    /// the table length it rejects an entry pointing past the table.
    pub fn row(&mut self, limit: usize) -> Result<u32, DecodeError> {
        let row = self.u32()?;
        if row as usize >= limit {
            return err(format!("row reference {row} is not below {limit}"));
        }
        Ok(row)
    }

    /// Reads a sequence length, sanity-capped against the remaining payload
    /// so a corrupt length cannot trigger a huge allocation.
    pub fn seq(&mut self) -> Result<usize, DecodeError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return err(format!("sequence length {len} exceeds remaining payload"));
        }
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-42);
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.str().unwrap(), "héllo");
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.u64(1);
        let bytes = &w.into_bytes()[..5];
        let mut r = Reader::new(bytes);
        assert!(r.u64().is_err());
    }

    #[test]
    fn oversized_sequence_length_is_rejected() {
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.seq().is_err());
    }

    #[test]
    fn checksum_changes_on_any_bit_flip() {
        // 25 bytes: three whole groups and a short one.
        let data = b"expresso artifact payload";
        let base = checksum(data);
        for i in 0..data.len() {
            let mut flipped = data.to_vec();
            flipped[i] ^= 1;
            assert_ne!(checksum(&flipped), base, "flip at byte {i}");
        }
    }

    #[test]
    fn checksum_changes_when_the_same_bit_flips_in_two_groups() {
        // A multiply carries a difference upwards only, so the top bits of a
        // group are where an unfolded word-wise hash is weakest: bit 63
        // flipped in any two groups cancelled, and damage confined to the
        // last byte of every group was guarded by eight bits.
        let data: Vec<u8> = (0..83u8).map(|i| i.wrapping_mul(37)).collect();
        let base = checksum(&data);
        let groups = data.len() / 8;
        for bit in [0, 31, 32, 56, 62, 63] {
            let flip = |data: &mut [u8], group: usize| data[group * 8 + bit / 8] ^= 1 << (bit % 8);
            for first in 0..groups {
                for second in first + 1..groups {
                    let mut flipped = data.clone();
                    flip(&mut flipped, first);
                    flip(&mut flipped, second);
                    assert_ne!(
                        checksum(&flipped),
                        base,
                        "bit {bit} of groups {first} and {second}"
                    );
                }
            }
        }
        // Every last byte at once.
        let mut tops = data.clone();
        tops.iter_mut().skip(7).step_by(8).for_each(|b| *b ^= 0x80);
        assert_ne!(checksum(&tops), base);
    }

    #[test]
    fn checksum_tells_padding_from_content() {
        // The short last group is padded with zeros; the length keeps a
        // payload from colliding with itself plus (or minus) zero bytes.
        let sums: Vec<u64> = (0..20).map(|n| checksum(&vec![0; n])).collect();
        for (n, sum) in sums.iter().enumerate() {
            assert!(!sums[..n].contains(sum), "{n} zero bytes collide");
        }
        assert_ne!(checksum(b"abc"), checksum(b"abc\0"));
    }
}
