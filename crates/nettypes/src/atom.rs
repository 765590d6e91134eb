//! Atoms: the shared strings of the capture hot path.
//!
//! An [`Atom`] is an immutable string that is cheap to clone. Equality,
//! ordering and hashing go by content, with a pointer comparison as the
//! fast path, so an atom behaves the same whichever way it was built.
//! There are three forms, and what a string is decides its form:
//!
//! - **Static** ([`Atom::from_static`]): a process constant, held in a
//!   `static` and never freed. Cloning one copies a pointer and dropping
//!   it does nothing, so the workers of a fleet never write to a shared
//!   reference count. The header vocabulary of [`crate::headers::vocab`]
//!   (names, constant values, the taint header), [`Atom::default`] and
//!   the CA ids take this form. A string literal on the capture path is
//!   a process constant, so library code never interns one
//!   (`tools/check_no_cloning.sh` enforces it).
//! - **Interned** ([`Atom::intern`] and the `From` impls): looked up in a
//!   sharded, process-wide table under one shard's lock. Equal inputs
//!   yield pointer-identical atoms, whatever thread or shard did the
//!   intern (the shard is chosen by a content hash). The table is
//!   seeded with the static vocabulary, so interning a vocabulary string
//!   returns its static atom, whatever was interned first. Every other
//!   entry is reference-counted, and the table only ever grows, so only
//!   bounded vocabularies of the world belong in it: hosts, registrable
//!   domains, package names, certificate subjects, a session's user
//!   agent and a seed's taint token.
//! - **Owned** ([`Atom::owned`]): a per-request value copied into an
//!   atom of its own, with no table and no lock. Referers, cookies and
//!   content lengths are built this way: in the table they would cost a
//!   locked lookup per request and grow it with every new value.
//!
//! Only world build and campaign set-up intern. A world interns each of
//! its hosts once and shares the atom between a site's plan and the
//! route table; a [`crate::url::Url`] holds its host as text, so
//! parsing, building or cloning one interns nothing, and the DNS log
//! names a host by its route's atom. At quick scale the 15 pinned
//! crawls make 83 interns in all (0.004 per captured flow, each crawl's
//! set-up) and 13.67 heap allocations per captured flow, and
//! `tests/capture_budget.rs` pins ceilings of 0.00405 and 14.15. The
//! deterministic `atom.intern.calls` counter (under METRICS) counts
//! every intern.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

use crate::hash::{fnv1a, FastSet};

/// Number of intern-table shards (power of two; the shard index is the
/// low bits of the content hash).
const SHARDS: usize = 16;

fn shard_of(s: &str) -> usize {
    (fnv1a(s) as usize) & (SHARDS - 1)
}

/// The intern table, seeded with every static atom of this crate (the
/// empty atom and the header vocabulary) so that interning one of those
/// strings returns the static atom.
fn table() -> &'static [Mutex<FastSet<Atom>>; SHARDS] {
    static TABLE: OnceLock<[Mutex<FastSet<Atom>>; SHARDS]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut shards: [Mutex<FastSet<Atom>>; SHARDS] = Default::default();
        for atom in std::iter::once(&EMPTY).chain(crate::headers::vocab().atoms()) {
            let shard = shards[shard_of(atom)].get_mut().expect("fresh intern shard");
            shard.insert(atom.clone());
        }
        shards
    })
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

/// The empty atom, [`Atom::default`].
static EMPTY: Atom = Atom::from_static(&"");

/// An immutable, cheaply clonable string: static, interned or owned
/// (see the module doc).
#[derive(Clone)]
pub struct Atom(Repr);

#[derive(Clone)]
enum Repr {
    /// A process constant. The double reference keeps the pointer thin,
    /// so an atom stays two words.
    Static(&'static &'static str),
    /// An interned or owned string behind a reference count.
    Shared(Arc<str>),
}

impl Atom {
    /// The static atom of a process constant. Build it once, in a
    /// `static`, so every clone shares its pointer:
    /// `static NAME: Atom = Atom::from_static(&"name");`.
    pub const fn from_static(s: &'static &'static str) -> Atom {
        Atom(Repr::Static(s))
    }

    /// Interns `s`, returning the canonical atom for its content. Equal
    /// inputs yield pointer-identical atoms, and a string of the static
    /// vocabulary yields its static atom.
    pub fn intern(s: &str) -> Atom {
        panoptes_obs::count!("atom.intern.calls", Deterministic);
        let shard_index = shard_of(s);
        let shard = &table()[shard_index];
        let mut set = shard.lock().expect("intern shard poisoned");
        if let Some(existing) = set.get(s) {
            if panoptes_obs::metrics_enabled() {
                shard_stats()[shard_index].0.incr();
            }
            return existing.clone();
        }
        if panoptes_obs::metrics_enabled() {
            shard_stats()[shard_index].1.incr();
        }
        let atom = Atom::owned(s);
        set.insert(atom.clone());
        atom
    }

    /// An atom holding its own copy of `s`, outside the intern table:
    /// the form of a per-request value. It compares and hashes like the
    /// interned atom of the same content.
    pub fn owned(s: &str) -> Atom {
        Atom(Repr::Shared(Arc::from(s)))
    }

    /// The string content.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared(s) => s,
        }
    }

    /// True for the static form: cloning copies a pointer, and no
    /// reference count is shared.
    pub fn is_static(&self) -> bool {
        matches!(self.0, Repr::Static(_))
    }

    /// True when both atoms are the same static constant or share the
    /// same allocation. Interned atoms with equal content always do;
    /// this is the O(1) fast path behind [`PartialEq`].
    pub fn ptr_eq(a: &Atom, b: &Atom) -> bool {
        match (&a.0, &b.0) {
            (Repr::Static(a), Repr::Static(b)) => std::ptr::eq(*a, *b),
            (Repr::Shared(a), Repr::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Default for Atom {
    fn default() -> Atom {
        EMPTY.clone()
    }
}

impl Deref for Atom {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Atom {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Atom {
    fn borrow(&self) -> &str {
        self.as_str()
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
        // keeps equality correct across forms and for owned atoms.
        Atom::ptr_eq(self, other) || self.as_str() == other.as_str()
    }
}

impl Eq for Atom {}

impl PartialEq<str> for Atom {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Atom {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Atom {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Atom> for str {
    fn eq(&self, other: &Atom) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Atom> for &str {
    fn eq(&self, other: &Atom) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Atom> for String {
    fn eq(&self, other: &Atom) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialOrd for Atom {
    fn partial_cmp(&self, other: &Atom) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Atom {
    fn cmp(&self, other: &Atom) -> std::cmp::Ordering {
        if Atom::ptr_eq(self, other) {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

// Content hash, matching `Borrow<str>`: a `HashMap<Atom, _>` can be
// probed with a plain `&str` key without interning or allocating.
impl Hash for Atom {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
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
    fn default_is_the_static_empty_atom() {
        assert_eq!(Atom::default(), "");
        assert!(Atom::default().is_empty());
        assert!(Atom::default().is_static());
        assert!(Atom::ptr_eq(&Atom::default(), &Atom::intern("")));
    }

    #[test]
    fn static_atoms_stay_two_words_and_clone_by_pointer() {
        assert_eq!(std::mem::size_of::<Atom>(), 16);
        static NAME: Atom = Atom::from_static(&"static.example");
        let copy = NAME.clone();
        assert!(copy.is_static());
        assert!(Atom::ptr_eq(&NAME, &copy));
        assert_eq!(copy, Atom::owned("static.example"));
        assert!(!Atom::intern("interned.example").is_static());
        assert!(!Atom::owned("owned.example").is_static());
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
