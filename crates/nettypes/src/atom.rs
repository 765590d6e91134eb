//! Atoms: the shared strings of the capture hot path.
//!
//! An [`Atom`] is an immutable, reference-counted string (`Arc<str>`).
//! Cloning one is a reference-count bump, and equality, ordering and
//! hashing go by content, with a pointer comparison as the fast path.
//! So an atom behaves the same whichever way it was built, and there
//! are two ways:
//!
//! - [`Atom::intern`] (and the `From` impls) looks the string up in a
//!   sharded, process-wide table under one shard's lock. Equal inputs
//!   yield pointer-identical atoms, whatever thread or shard did the
//!   intern (the shard is chosen by a content hash). The table only
//!   ever grows, so only bounded vocabularies belong in it: hosts,
//!   registrable domains, package names, certificate subjects, a
//!   session's user agent, a campaign's taint header and token, and
//!   the header vocabulary of [`crate::headers::vocab`], which is
//!   interned once per process.
//! - [`Atom::owned`] copies a per-request value into an atom of its own,
//!   with no table and no lock. Referers, cookies and content lengths
//!   are built this way: in the table they would cost a locked lookup
//!   per request and grow it with every new value.
//!
//! Capture therefore interns little beyond the hosts `Url::parse` reads:
//! at quick scale the 15 pinned crawls make 1.76 interns and 48.3 heap
//! allocations per captured flow, and `tests/capture_budget.rs` pins
//! ceilings of 1.84 and 50. The deterministic `atom.intern.calls`
//! counter (under METRICS) counts every intern.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

/// Number of intern-table shards (power of two; the shard index is the
/// low bits of the content hash).
const SHARDS: usize = 16;

fn table() -> &'static [Mutex<HashSet<Arc<str>>>; SHARDS] {
    static TABLE: OnceLock<[Mutex<HashSet<Arc<str>>>; SHARDS]> = OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(|_| Mutex::new(HashSet::new())))
}

/// Per-shard hit/miss counters, resolved once. Runtime-class: the
/// intern table lives for the whole process, so a shard's hit/miss
/// balance depends on everything that ran before this snapshot, not on
/// the workload alone.
fn shard_stats() -> &'static [(
    &'static panoptes_obs::metrics::Counter,
    &'static panoptes_obs::metrics::Counter,
); SHARDS] {
    use panoptes_obs::metrics::{counter, MetricClass};
    static STATS: OnceLock<
        [(&'static panoptes_obs::metrics::Counter, &'static panoptes_obs::metrics::Counter); SHARDS],
    > = OnceLock::new();
    STATS.get_or_init(|| {
        std::array::from_fn(|i| {
            (
                counter(&format!("atom.intern.shard{i:02}.hits"), MetricClass::Runtime),
                counter(&format!("atom.intern.shard{i:02}.misses"), MetricClass::Runtime),
            )
        })
    })
}

/// FNV-1a — the deterministic hash the workspace standardises on.
fn fnv1a(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// An interned, immutable, cheaply clonable string.
#[derive(Clone)]
pub struct Atom(Arc<str>);

impl Atom {
    /// Interns `s`, returning the canonical atom for its content. Equal
    /// inputs yield pointer-identical atoms.
    pub fn intern(s: &str) -> Atom {
        panoptes_obs::count!("atom.intern.calls", Deterministic);
        let shard_index = (fnv1a(s) as usize) & (SHARDS - 1);
        let shard = &table()[shard_index];
        let mut set = shard.lock().expect("intern shard poisoned");
        if let Some(existing) = set.get(s) {
            if panoptes_obs::metrics_enabled() {
                shard_stats()[shard_index].0.incr();
            }
            return Atom(existing.clone());
        }
        if panoptes_obs::metrics_enabled() {
            shard_stats()[shard_index].1.incr();
        }
        let arc: Arc<str> = Arc::from(s);
        set.insert(arc.clone());
        Atom(arc)
    }

    /// An atom holding its own copy of `s`, outside the intern table:
    /// the form of a per-request value. It compares and hashes like the
    /// interned atom of the same content.
    pub fn owned(s: &str) -> Atom {
        Atom(Arc::from(s))
    }

    /// The string content.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True when both atoms share the same allocation. Interned atoms
    /// with equal content always do; this is the O(1) fast path behind
    /// [`PartialEq`].
    pub fn ptr_eq(a: &Atom, b: &Atom) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Default for Atom {
    fn default() -> Atom {
        Atom::intern("")
    }
}

impl Deref for Atom {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Atom {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Atom {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Atom {
    fn from(s: &str) -> Atom {
        Atom::intern(s)
    }
}

impl From<&String> for Atom {
    fn from(s: &String) -> Atom {
        Atom::intern(s)
    }
}

impl From<String> for Atom {
    fn from(s: String) -> Atom {
        Atom::intern(&s)
    }
}

impl From<&Atom> for String {
    fn from(a: &Atom) -> String {
        a.as_str().to_string()
    }
}

impl From<Atom> for String {
    fn from(a: Atom) -> String {
        a.as_str().to_string()
    }
}

impl PartialEq for Atom {
    fn eq(&self, other: &Atom) -> bool {
        // Interned equal content shares a pointer; the content fallback
        // keeps equality correct for owned atoms.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Atom {}

impl PartialEq<str> for Atom {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Atom {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for Atom {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

impl PartialEq<Atom> for str {
    fn eq(&self, other: &Atom) -> bool {
        self == &*other.0
    }
}

impl PartialEq<Atom> for &str {
    fn eq(&self, other: &Atom) -> bool {
        *self == &*other.0
    }
}

impl PartialEq<Atom> for String {
    fn eq(&self, other: &Atom) -> bool {
        self.as_str() == &*other.0
    }
}

impl PartialOrd for Atom {
    fn partial_cmp(&self, other: &Atom) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Atom {
    fn cmp(&self, other: &Atom) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            std::cmp::Ordering::Equal
        } else {
            self.0.cmp(&other.0)
        }
    }
}

// Content hash, matching `Borrow<str>`: a `HashMap<Atom, _>` can be
// probed with a plain `&str` key without interning or allocating.
impl Hash for Atom {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (*self.0).hash(state)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn equal_content_is_pointer_equal() {
        let a = Atom::intern("www.example.com");
        let b = Atom::intern("www.example.com");
        assert!(Atom::ptr_eq(&a, &b));
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_content_differs() {
        let a = Atom::intern("a.example");
        let b = Atom::intern("b.example");
        assert!(!Atom::ptr_eq(&a, &b));
        assert_ne!(a, b);
        assert!(a < b);
    }

    #[test]
    fn str_interop() {
        let a = Atom::from("host.example");
        assert_eq!(a, "host.example");
        assert_eq!("host.example", a);
        assert_eq!(a.as_str(), "host.example");
        assert_eq!(a.len(), 12);
        assert!(a.ends_with(".example"));
        assert_eq!(a.to_string(), "host.example");
        assert_eq!(format!("{a:?}"), "\"host.example\"");
    }

    #[test]
    fn map_lookup_by_str_key() {
        let mut map: HashMap<Atom, u32> = HashMap::new();
        map.insert(Atom::intern("pkg.one"), 1);
        assert_eq!(map.get("pkg.one"), Some(&1));
        assert_eq!(map.get("pkg.two"), None);
    }

    #[test]
    fn clones_share_the_allocation() {
        let a = Atom::intern("clone.me");
        let b = a.clone();
        assert!(Atom::ptr_eq(&a, &b));
    }

    #[test]
    fn default_is_empty() {
        assert_eq!(Atom::default(), "");
        assert!(Atom::default().is_empty());
    }

    #[test]
    fn owned_atoms_equal_and_hash_like_interned_ones() {
        let interned = Atom::intern("session=sim");
        let owned = Atom::owned("session=sim");
        assert!(!Atom::ptr_eq(&interned, &owned));
        assert_eq!(interned, owned);
        assert_eq!(interned.cmp(&owned), std::cmp::Ordering::Equal);
        let mut map: HashMap<Atom, u32> = HashMap::new();
        map.insert(owned, 1);
        assert_eq!(map.get(&interned), Some(&1));
        assert_eq!(map.get("session=sim"), Some(&1));
    }

    #[test]
    fn cross_thread_interning_converges() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Atom::intern("converge.example")))
            .collect();
        let atoms: Vec<Atom> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for pair in atoms.windows(2) {
            assert!(Atom::ptr_eq(&pair[0], &pair[1]));
        }
    }
}
