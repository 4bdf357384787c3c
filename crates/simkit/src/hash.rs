//! A fixed, seedless hasher for maps keyed by simulator-internal ids.
//!
//! The simulator looks up small integer ids (`FileKey`, `ObjKey`,
//! `AppId`: 4–24 bytes of `u32`/`u64` fields) several times per event,
//! and the standard library's default SipHash, built to resist crafted
//! keys, costs more than the lookup it guards. [`IdHasher`] folds each
//! word in with one rotate, xor and multiply and mixes once at the end.
//!
//! Only for ids the simulator itself allocates. It has no seed, so keys
//! chosen by an adversary can be made to collide: anything that hashes
//! parser input or other outside data keeps the default hasher. No
//! result may depend on a map's iteration order either way — the default
//! hasher's order already differed from process to process.
//!
//! [`fnv1a`] is the one stable byte hash: schema digests, QIMODEL
//! checksums and serve-shard routing are all written down or compared
//! across processes, so they share it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with no short bit pattern (2^64 / golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Word-at-a-time multiply-rotate hasher; see the module docs.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    /// The table reads the top seven bits and the low bits, and a
    /// multiply only carries upwards: fold the high half down, multiply
    /// again and fold once more, so both ends depend on every input bit.
    #[inline]
    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(K);
        h ^ (h >> 29)
    }

    /// The fallback for fields that are not `u32`/`u64` (their integer
    /// writes land here by default): eight bytes a word, zero-padded.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v.into());
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
}

/// Builds [`IdHasher`]s; every one starts from the same state.
pub type IdBuild = BuildHasherDefault<IdHasher>;

/// A `HashMap` over simulator-internal ids. Construct with `default()`.
pub type IdMap<K, V> = HashMap<K, V, IdBuild>;

/// FNV-1a, 64-bit: stable across processes, platforms and releases.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    // The shapes of qi-pfs's `FileKey` and `ObjKey` (that crate depends
    // on this one): a derived `Hash` feeds the fields in order.
    #[derive(Hash)]
    struct FileKey {
        app: u32,
        num: u64,
    }

    #[derive(Hash)]
    struct ObjKey {
        file: FileKey,
        stripe: u32,
    }

    fn obj(app: u32, num: u64, stripe: u32) -> ObjKey {
        ObjKey {
            file: FileKey { app, num },
            stripe,
        }
    }

    #[test]
    fn published_fnv1a_vectors_hold() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn hashers_built_apart_agree() {
        let key = obj(3, 1 << 40, 7);
        assert_eq!(
            IdBuild::default().hash_one(&key),
            IdBuild::default().hash_one(&key)
        );
        let mut by_bytes = IdHasher::default();
        by_bytes.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut again = IdHasher::default();
        again.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(by_bytes.finish(), again.finish());
    }

    /// hashbrown picks the bucket from the low bits and the control byte
    /// from the top seven: consecutive file numbers must spread in both.
    #[test]
    fn sequential_file_numbers_fill_both_ends() {
        let build = IdBuild::default();
        let (mut low, mut top) = (HashSet::new(), HashSet::new());
        for num in 0..65_536 {
            let h = build.hash_one(FileKey { app: 1, num });
            low.insert(h & 0xfff);
            top.insert(h >> 57);
        }
        assert!(low.len() >= 4000, "{} of 4096 low-12-bit values", low.len());
        assert_eq!(top.len(), 128);
    }

    #[test]
    fn keys_differing_in_one_field_differ() {
        let build = IdBuild::default();
        let base = build.hash_one(obj(0, 42, 0));
        for n in 1..64 {
            assert_ne!(build.hash_one(obj(0, 42, n)), base, "stripe {n}");
            assert_ne!(build.hash_one(obj(n, 42, 0)), base, "app {n}");
        }
    }
}
