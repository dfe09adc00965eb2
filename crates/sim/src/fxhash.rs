//! Minimal multiply-rotate hasher for the explorer's seen-state set.
//!
//! Every dedup probe inserts an already-avalanched `u64` state key into
//! the seen set. The standard library's default SipHash is keyed and
//! DoS-resistant, which an internal table of well-mixed keys does not
//! need, and its per-probe setup cost dominates the insert. This module
//! provides the classic Fx multiply-rotate hash (one rotate, one xor,
//! one multiply per word). The seen set is its only user: thread locals
//! are dense slots (`crate::lower`), found by index, never by name.
//!
//! Collision quality is irrelevant for correctness here: `HashSet`
//! compares keys exactly, so a weaker hash can only cost probe-sequence
//! length, never dedup soundness.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the Fx hash family (a 64-bit odd constant close to
/// 2^64 / phi, chosen to spread consecutive integers).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-word-at-a-time multiply-rotate hasher.
#[derive(Debug, Default, Clone)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" and "ab\0" stay distinct.
            self.word(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.word(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.word(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;
pub(crate) type FxHashSet<T> = std::collections::HashSet<T, FxBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash<T: std::hash::Hash>(v: T) -> u64 {
        FxBuild::default().hash_one(v)
    }

    #[test]
    fn distinguishes_strings_and_prefixes() {
        assert_ne!(hash("retries"), hash("observed"));
        assert_ne!(hash("ab"), hash("ab\0"));
        assert_ne!(hash(""), hash("\0"));
    }

    #[test]
    fn works_as_a_set_hasher() {
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(42));
        assert!(!s.insert(42));
    }
}
