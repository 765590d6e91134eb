//! The compiled filterlist matching engine.
//!
//! Two structures replace the per-rule probing of the indexed engine:
//!
//! * [`SubstringAutomaton`] — all substring rules compiled into one
//!   dense Aho–Corasick DFA walked byte-by-byte over the URL (case
//!   folding is compiled into the transition table, so matching never
//!   allocates a lowercased copy), behind a memchr-style rare-byte
//!   prefilter: the union of every pattern's rarest byte is intersected
//!   with the URL's byte set in four word ops, and the DFA only runs
//!   when a pattern *could* be present.
//! * [`AnchorSet`] — `||domain^` rules interned as [`Atom`]s in a
//!   [`FastSet`] probed once per host label suffix (SipHash would cost
//!   more than the probe), behind a 64-bit length mask that skips
//!   suffixes no anchor length can match.
//!
//! Both are pure functions of the parsed rule set; compilation happens
//! once in `FilterList::parse` and matching takes `&self`.

use std::collections::VecDeque;

use panoptes_http::hash::FastSet;
use panoptes_http::Atom;

/// 256-bit presence bitmap of the bytes occurring in a string.
#[derive(Debug, Clone)]
pub(crate) struct ByteSet(pub(crate) [u64; 4]);

impl ByteSet {
    /// The byte set of `text`, case-sensitive.
    pub(crate) fn of(text: &str) -> ByteSet {
        let mut set = [0u64; 4];
        for &b in text.as_bytes() {
            set[(b >> 6) as usize] |= 1 << (b & 63);
        }
        ByteSet(set)
    }

    pub(crate) fn contains(&self, b: u8) -> bool {
        self.0[(b >> 6) as usize] & (1 << (b & 63)) != 0
    }

    fn insert(&mut self, b: u8) {
        self.0[(b >> 6) as usize] |= 1 << (b & 63);
    }

    fn intersects(&self, other: &ByteSet) -> bool {
        (self.0[0] & other.0[0])
            | (self.0[1] & other.0[1])
            | (self.0[2] & other.0[2])
            | (self.0[3] & other.0[3])
            != 0
    }
}

/// How rare a byte is in serialized URL text; higher is rarer. Used to
/// pick each substring rule's prefilter byte so the rare-byte gate
/// rejects as many URLs as possible before the DFA runs. The ranking
/// follows byte frequency in real URL corpora: scheme/host plumbing and
/// the most common letters first, then digits and query punctuation
/// (ubiquitous in ids and parameters), then mid-frequency letters, with
/// the genuinely rare letters (`j k q x z`) on top. Any choice is
/// *sound* — a pattern match requires its chosen byte to be present —
/// so the table only tunes how often the DFA can be skipped.
pub(crate) fn rarity(b: u8) -> u8 {
    match b {
        b'/' | b'.' | b':' | b'e' | b'a' | b't' | b'o' | b'i' | b'n' | b's' | b'r' | b'c' => 0,
        b'0'..=b'9' | b'=' | b'&' | b'?' | b'%' | b'-' | b'_' => 1,
        b'j' | b'k' | b'q' | b'x' | b'z' => 4,
        b'b' | b'f' | b'v' | b'w' | b'y' => 3,
        b'a'..=b'z' => 2,
        _ => 5,
    }
}

/// The rarest byte of a (non-empty, already lowercased) pattern.
pub(crate) fn bucket_byte(pattern: &str) -> u8 {
    pattern
        .bytes()
        .max_by_key(|&b| rarity(b))
        .expect("zero-length substring patterns are rejected at parse")
}

/// The rarity table the PR-2 indexed engine shipped with, frozen. The
/// indexed engine is kept as a *measured baseline*, so its bucket
/// choices must not drift when the compiled engine's prefilter is
/// retuned — otherwise the bench compares the automaton against a
/// moving target instead of against PR 2.
pub(crate) fn rarity_pr2(b: u8) -> u8 {
    match b {
        b'/' | b'.' | b':' | b'e' | b'a' | b't' | b'o' | b'i' | b'n' | b's' | b'r' | b'c' => 0,
        b'a'..=b'z' => 1,
        b'0'..=b'9' => 2,
        b'-' | b'_' | b'=' | b'&' | b'?' | b'%' => 3,
        _ => 4,
    }
}

/// [`bucket_byte`] under the frozen PR-2 table.
pub(crate) fn bucket_byte_pr2(pattern: &str) -> u8 {
    pattern
        .bytes()
        .max_by_key(|&b| rarity_pr2(b))
        .expect("zero-length substring patterns are rejected at parse")
}

/// All substring rules of one rule set, compiled into a dense
/// Aho–Corasick DFA: `dfa[state << 8 | byte]` is the next-state entry,
/// with bit 31 set when that state completes some pattern (the BFS
/// construction folds fail-chain outputs in, so one flag per state
/// suffices). Case folding is compiled into the table — each state's
/// `A..Z` entries alias its `a..z` entries — and the match flag rides
/// in the entry word itself, so the scan loop is a single dependent
/// load per byte: no lowercase fixup, no second flag lookup. The DFA
/// built from lowercased patterns therefore decides exactly like
/// `url.to_ascii_lowercase().contains(pattern)` — without the copy.
#[derive(Clone)]
pub(crate) struct SubstringAutomaton {
    dfa: Vec<u32>,
    /// Union of every pattern's rarest byte (plus its uppercase alias):
    /// a URL whose byte set misses all of them cannot match any pattern.
    rare: ByteSet,
    patterns: usize,
}

/// Bit 31 of a DFA entry: the transition target completes a pattern.
const MATCH_BIT: u32 = 1 << 31;

impl Default for SubstringAutomaton {
    fn default() -> SubstringAutomaton {
        SubstringAutomaton::compile(std::iter::empty())
    }
}

impl std::fmt::Debug for SubstringAutomaton {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubstringAutomaton")
            .field("patterns", &self.patterns)
            .field("states", &(self.dfa.len() / 256))
            .finish()
    }
}

impl SubstringAutomaton {
    /// Compiles `patterns` (already lowercased, all non-empty).
    pub(crate) fn compile<'a, I>(patterns: I) -> SubstringAutomaton
    where
        I: IntoIterator<Item = &'a str>,
    {
        const VACANT: u32 = u32::MAX;
        // Trie phase: dense rows so the BFS below can fill fail
        // transitions in place and the result IS the DFA.
        let mut rows: Vec<[u32; 256]> = vec![[VACANT; 256]];
        let mut matching = vec![false];
        let mut rare = ByteSet([0; 4]);
        let mut count = 0usize;
        for pattern in patterns {
            debug_assert!(!pattern.is_empty());
            debug_assert!(!pattern.bytes().any(|b| b.is_ascii_uppercase()));
            count += 1;
            let rare_byte = bucket_byte(pattern);
            rare.insert(rare_byte);
            // The prefilter reads the URL's bytes unlowered, so a rare
            // letter must also admit its uppercase form.
            rare.insert(rare_byte.to_ascii_uppercase());
            let mut state = 0usize;
            for &b in pattern.as_bytes() {
                let slot = rows[state][b as usize];
                state = if slot == VACANT {
                    rows.push([VACANT; 256]);
                    matching.push(false);
                    let next = (rows.len() - 1) as u32;
                    rows[state][b as usize] = next;
                    next as usize
                } else {
                    slot as usize
                };
            }
            matching[state] = true;
        }

        // BFS phase: compute fail links and flatten them into the rows
        // (processing in BFS order guarantees a parent's row is already
        // dense when its children borrow from it).
        let mut fail = vec![0u32; rows.len()];
        let mut queue = VecDeque::new();
        for slot in rows[0].iter_mut() {
            match *slot {
                VACANT => *slot = 0,
                child => {
                    fail[child as usize] = 0;
                    queue.push_back(child);
                }
            }
        }
        while let Some(state) = queue.pop_front() {
            let s = state as usize;
            if matching[fail[s] as usize] {
                matching[s] = true;
            }
            let fail_row = rows[fail[s] as usize];
            for (b, slot) in rows[s].iter_mut().enumerate() {
                let via_fail = fail_row[b];
                match *slot {
                    VACANT => *slot = via_fail,
                    child => {
                        fail[child as usize] = via_fail;
                        queue.push_back(child);
                    }
                }
            }
        }

        // Flatten: fold the match flag into each entry and alias the
        // uppercase rows onto the lowercase transitions. Patterns are
        // lowercased at parse, so no trie edge ever leaves on `A..Z`;
        // aliasing reproduces per-byte `to_ascii_lowercase` exactly.
        let mut dfa = Vec::with_capacity(rows.len() * 256);
        for row in &rows {
            let base = dfa.len();
            for &next in row.iter() {
                let flag = if matching[next as usize] { MATCH_BIT } else { 0 };
                dfa.push(next | flag);
            }
            for b in b'A'..=b'Z' {
                dfa[base + b as usize] = dfa[base + (b + 32) as usize];
            }
        }
        SubstringAutomaton { dfa, rare, patterns: count }
    }

    /// True when some pattern occurs in `text` lowercased. Never
    /// allocates: case folding is baked into the transition table.
    pub(crate) fn matches_anycase(&self, text: &str) -> bool {
        if self.patterns == 0 {
            return false;
        }
        if !ByteSet::of(text).intersects(&self.rare) {
            // Four word ops proved no pattern's rarest byte occurs.
            panoptes_obs::count!("blocklist.automaton.prefilter_rejects", Deterministic);
            return false;
        }
        panoptes_obs::count!("blocklist.automaton.scans", Deterministic);
        let mut state = 0usize;
        for &b in text.as_bytes() {
            let entry = self.dfa[(state << 8) | b as usize];
            if entry & MATCH_BIT != 0 {
                return true;
            }
            state = entry as usize;
        }
        false
    }
}

/// `||domain^` rules as interned [`Atom`]s, probed per host label
/// suffix. The 64-bit length mask (bit *l* set when an anchor of byte
/// length *l* exists, lengths ≥ 63 sharing the top bit) skips the hash
/// probe for suffixes whose length no anchor has — on clean traffic
/// that is nearly all of them.
#[derive(Debug, Clone, Default)]
pub(crate) struct AnchorSet {
    set: FastSet<Atom>,
    len_mask: u64,
}

impl AnchorSet {
    /// Interns and inserts one (already lowercased) anchor domain.
    pub(crate) fn insert(&mut self, domain: &Atom) {
        self.len_mask |= 1 << domain.len().min(63);
        self.set.insert(domain.clone());
    }

    fn may_have_len(&self, len: usize) -> bool {
        self.len_mask & (1 << len.min(63)) != 0
    }

    /// True when the host or any of its dot-suffixes is an anchor —
    /// `||d^` semantics. The host must already be lowercased.
    pub(crate) fn matches_host(&self, host_lower: &str) -> bool {
        if self.set.is_empty() {
            return false;
        }
        if self.may_have_len(host_lower.len()) && self.set.contains(host_lower) {
            return true;
        }
        let n = host_lower.len();
        for (i, b) in host_lower.bytes().enumerate() {
            if b == b'.'
                && self.may_have_len(n - i - 1)
                && self.set.contains(&host_lower[i + 1..])
            {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panoptes_http::atom::Atom;

    fn compiled(patterns: &[&str]) -> SubstringAutomaton {
        SubstringAutomaton::compile(patterns.iter().copied())
    }

    #[test]
    fn finds_patterns_anywhere() {
        let a = compiled(&["/ads/", "sdk07ping"]);
        assert!(a.matches_anycase("https://x.com/a/ads/banner.js"));
        assert!(a.matches_anycase("https://x.com/sdk07ping?y"));
        assert!(!a.matches_anycase("https://x.com/news/story"));
        assert_eq!(a.patterns, 2);
    }

    #[test]
    fn lowercases_on_the_fly() {
        let a = compiled(&["/ads/"]);
        assert!(a.matches_anycase("https://x.com/ADS/banner"));
        assert!(a.matches_anycase("HTTPS://X.COM/Ads/"));
    }

    #[test]
    fn overlapping_patterns_all_match() {
        let a = compiled(&["abcd", "bc", "cde"]);
        assert!(a.matches_anycase("xxabcdexx"));
        assert!(a.matches_anycase("xbcx"));
        assert!(a.matches_anycase("xcdex"));
        assert!(!a.matches_anycase("xacbdx"));
    }

    #[test]
    fn prefix_and_suffix_patterns() {
        let a = compiled(&["aaa"]);
        assert!(a.matches_anycase("aaa"));
        assert!(!a.matches_anycase("aa"));
        assert!(a.matches_anycase("baaab"));
        assert!(a.matches_anycase("aaaa"));
    }

    #[test]
    fn empty_automaton_matches_nothing() {
        let a = compiled(&[]);
        assert!(!a.matches_anycase("anything"));
        assert_eq!(a.patterns, 0);
    }

    #[test]
    fn utf8_patterns_behave_like_contains() {
        let a = compiled(&["é-ads"]);
        assert!(a.matches_anycase("https://x.com/é-ads/y"));
        assert!(!a.matches_anycase("https://x.com/e-ads/y"));
    }

    #[test]
    fn anchor_set_walks_label_suffixes() {
        let mut anchors = AnchorSet::default();
        anchors.insert(&Atom::from("doubleclick.net"));
        assert!(anchors.matches_host("doubleclick.net"));
        assert!(anchors.matches_host("stats.g.doubleclick.net"));
        assert!(!anchors.matches_host("notdoubleclick.net"));
        assert!(!anchors.matches_host("doubleclick.net.evil.com"));
    }

    #[test]
    fn anchor_length_mask_is_conservative() {
        let mut anchors = AnchorSet::default();
        let long = format!("{}.com", "a".repeat(80));
        anchors.insert(&Atom::from(long.as_str()));
        assert!(anchors.matches_host(&long));
        assert!(anchors.matches_host(&format!("www.{long}")));
        assert!(!anchors.matches_host("short.com"));
    }
}
