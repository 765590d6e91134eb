//! The workspace's hash functions: one hasher for the maps the program
//! keys itself, and FNV-1a for values that must never change.
//!
//! - [`FastMap`] and [`FastSet`] hash with [`FxHasher`], a fixed,
//!   word-at-a-time multiplicative hasher. Every map whose keys the
//!   program generates takes them: hosts, paths, domains, visited URLs,
//!   cookie domains, package names, addresses. A probe of such a map
//!   costs one multiply per eight key bytes, where `std`'s keyed SipHash
//!   costs several rounds. Equality and `Borrow<str>` probes work as in
//!   `std` ([`Atom`](crate::Atom) hashes as its `str`), and nothing
//!   user-visible iterates a hash map, so output does not depend on the
//!   hasher.
//! - Keys that come from outside the program (a request's query
//!   parameters, the rules of a parsed filter or hosts list) keep
//!   `std`'s keyed `RandomState`: with a fixed hasher, crafted keys
//!   could be made to collide.
//! - [`fnv1a`] is the deterministic string hash whose values seed site
//!   generators, latency jitter, persistent identifiers and the intern
//!   shards. Changing it changes every study, so it stays as it is,
//!   multiplier included (see its doc).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A hash map keyed by values the program generates, under [`FxHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastBuild>;

/// A hash set of values the program generates, under [`FxHasher`].
pub type FastSet<K> = HashSet<K, FastBuild>;

/// The `BuildHasher` of [`FastMap`] and [`FastSet`]: every hasher it
/// builds starts from the same state, so a key's hash is the same in
/// every map and every process.
pub type FastBuild = BuildHasherDefault<FxHasher>;

/// The multiplier of [`FxHasher`] (the one rustc's FxHash uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A word-at-a-time multiplicative hasher (FxHash): each word of input
/// is folded in with a rotate, an xor and one multiply. Not keyed, so
/// only for keys the program generates.
///
/// A product's high bits depend on every bit of the word, its low bits
/// only on the word's low bits, and a hash table picks its bucket from
/// the low bits. So [`finish`](Hasher::finish) rotates the state left by
/// 26 bits, as rustc-hash 2 does. Without the rotation the program's
/// own keys, which differ in a few digits (`/assets/app17.js`,
/// `www.news042.com`), filled 41–77 % of the buckets that as many
/// random keys fill; with it they fill 90–102 %.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("an 8-byte chunk")));
        }
        let mut rest = words.remainder();
        if rest.len() >= 4 {
            self.add(u32::from_le_bytes(rest[..4].try_into().expect("a 4-byte prefix")) as u64);
            rest = &rest[4..];
        }
        if rest.len() >= 2 {
            self.add(u16::from_le_bytes(rest[..2].try_into().expect("a 2-byte prefix")) as u64);
            rest = &rest[2..];
        }
        if let Some(&byte) = rest.first() {
            self.add(byte as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// FNV-1a (64-bit) of `s`: the deterministic hash behind site seeds,
/// latency jitter, persistent identifiers and intern shards.
///
/// It starts from FNV's offset basis but multiplies by
/// `0x1000_0000_01b3`, not the FNV prime `0x100_0000_01b3`, so its
/// values differ from published FNV-1a vectors for every non-empty
/// input. Every study's seeds derive from these values, so the
/// multiplier stays.
pub fn fnv1a(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Atom;
    use std::hash::BuildHasher;

    #[test]
    fn an_atom_keyed_map_is_probed_by_str() {
        let mut map: FastMap<Atom, u32> = FastMap::default();
        map.insert(Atom::intern("www.example.com"), 1);
        map.insert(Atom::owned("cdn.example.com"), 2);
        assert_eq!(map.get("www.example.com"), Some(&1));
        assert_eq!(map.get("cdn.example.com"), Some(&2));
        assert_eq!(map.get(&Atom::owned("www.example.com")), Some(&1));
        assert_eq!(map.get("example.com"), None);
        let set: FastSet<Atom> = [Atom::intern("a.example")].into_iter().collect();
        assert!(set.contains("a.example"));
    }

    #[test]
    fn the_hasher_is_not_keyed() {
        // A keyed hasher (std's RandomState) gives a different value in
        // every process; these are the values of the fixed FxHash.
        let build = FastBuild::default();
        assert_eq!(build.hash_one("www.example.com"), 0x3b68_bb5e_5dd3_8562);
        assert_eq!(build.hash_one(7u32), 0x0847_b928_4ce9_a530);
        assert_eq!(build.hash_one(Atom::owned("dns.google")), build.hash_one("dns.google"));
    }

    #[test]
    fn keys_that_differ_in_a_few_digits_fill_the_low_bits_like_random_keys() {
        // 3,000 random keys fill ~2,126 of the 4,096 slots that the low 12
        // bits pick; these families filled 47 % and 43 % of that before
        // `finish` rotated the state.
        let build = FastBuild::default();
        let expected = 4096.0 * (1.0 - (-3000.0f64 / 4096.0).exp());
        for family in ["/assets/app{}.js", "www.news{}.com"] {
            let slots: FastSet<u64> = (0..3000)
                .map(|i| build.hash_one(family.replace("{}", &format!("{i:03}"))) & 0xfff)
                .collect();
            let fill = slots.len() as f64 / expected;
            assert!(fill > 0.85, "{family}: {} slots, {fill:.2} of random", slots.len());
        }
    }

    #[test]
    fn fnv1a_keeps_its_reference_vectors() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0xf8ac_2471_f739_67e8);
    }
}
