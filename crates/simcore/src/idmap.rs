//! A cheap, deterministic hasher for maps keyed by simulator ids.
//!
//! Every hot id-keyed map in the engine (event-queue cancellation state,
//! per-flow and per-request contexts, outstanding ops) is keyed by a
//! small integer newtype. The standard library's SipHash is built to
//! resist hash flooding, which a simulator fed by its own counters does
//! not need, and it costs tens of nanoseconds per lookup. [`IdHasher`] is
//! one multiply per integer word (the `FxHash` construction), with no
//! per-process random seed.
//!
//! Iteration order of an [`IdMap`] is a fixed function of its contents
//! and insertion history, but it is still not key order: callers that
//! need a deterministic order must sort, as they did with SipHash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed by simulator ids, hashed with [`IdHasher`].
///
/// Build one with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiplicative integer hasher (see module docs).
#[derive(Clone, Copy, Default, Debug)]
pub struct IdHasher(u64);

/// Odd 64-bit constant of the `FxHash` construction.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(v)
    }

    #[test]
    fn hashing_is_deterministic_and_separates_ids() {
        assert_eq!(hash(7u64), hash(7u64));
        assert_ne!(hash(7u64), hash(8u64));
        assert_ne!(hash(0u32), hash(1u32));
        assert_ne!(hash("abc"), hash("abd"));
    }

    #[test]
    fn map_round_trips_sequential_ids() {
        let mut m: IdMap<u64, u64> = IdMap::default();
        for i in 0..10_000 {
            m.insert(i, i * 3);
        }
        for i in 0..10_000 {
            assert_eq!(m.remove(&i), Some(i * 3));
        }
        assert!(m.is_empty());
    }
}
