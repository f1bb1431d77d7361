//! A small non-randomised hasher for scratch maps keyed by arena ids.
//!
//! std's `HashMap` defaults to `RandomState`: SipHash-1-3 under a
//! per-process random seed. The seed is what keeps a map safe from hash
//! flooding when its keys come from outside, and SipHash is the price.
//! The per-batch memo maps on the perturbation hot path are keyed by
//! ids a [`crate::TokenArena`] hands out densely in first-seen order
//! (cell-id pairs, token-id pairs, tuples of cell ids). Nobody outside
//! chooses those values, so they may use [`IdHasher`] — a
//! multiply-rotate hash costing a few cycles per word.
//!
//! The rule is about the key, not the map: maps keyed by text or q-gram
//! content (the arena's own token, gram and cell maps) keep
//! `RandomState`, because `em-serve` feeds request text into them.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the constant of the
/// `rustc-hash` 2.x polynomial hash).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-accumulate hasher for integer keys; see the module docs for
/// where it may be used.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher {
    hash: u64,
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.hash = self.hash.wrapping_add(v).wrapping_mul(K);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Byte input (an id slice hashes as its raw bytes) is folded in
    /// 8-byte little-endian words, the tail zero-padded.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    /// The product's best-mixed bits are its high ones; rotating them
    /// down feeds them to the bucket index.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` keyed by arena-assigned ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(v)
    }

    #[test]
    fn hash_is_deterministic_and_separates_ids() {
        assert_eq!(hash_of(&(3u32, 7u32)), hash_of(&(3u32, 7u32)));
        assert_ne!(hash_of(&(3u32, 7u32)), hash_of(&(7u32, 3u32)));
        assert_ne!(hash_of(&vec![1u32, 2]), hash_of(&vec![1u32, 2, 0]));
    }

    #[test]
    fn id_map_round_trips_dense_keys() {
        let mut m: IdMap<(u32, u32), u32> = IdMap::default();
        for a in 0..64u32 {
            for b in 0..64u32 {
                m.insert((a, b), a * 64 + b);
            }
        }
        assert_eq!(m.len(), 64 * 64);
        for a in 0..64u32 {
            for b in 0..64u32 {
                assert_eq!(m[&(a, b)], a * 64 + b);
            }
        }
    }
}
