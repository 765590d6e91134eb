//! An ordered, case-insensitive HTTP header multimap.
//!
//! Order preservation matters for the taint protocol (§2.3 of the paper):
//! the MITM addon must strip exactly the injected `x-` header and forward
//! the rest byte-identically, otherwise origin servers could detect the
//! measurement. Lookups are ASCII-case-insensitive per RFC 9110.

use crate::atom::Atom;

/// One `name: value` header field.
///
/// Both halves are atoms, so cloning a field (into a forwarded request,
/// or into a captured flow record) copies no string. Names and constant
/// values, the taint header among them, are the static atoms of
/// [`vocab`], so cloning one copies a pointer and touches no shared
/// reference count. A session's user agent and a seed's taint token are
/// interned once, and per-request values (referers, cookies, content
/// lengths, redirect targets) are [`Atom::owned`], outside the intern
/// table; cloning either is a reference-count bump. An engine request's
/// referer is the root of its own URL (`https://{host}/`,
/// `Url::root`), copied from the URL's text into its owned atom with no
/// formatting. Setting a header on the capture path therefore takes no
/// lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderField {
    /// Field name exactly as set (original casing preserved for the wire).
    pub name: Atom,
    /// Field value.
    pub value: Atom,
}

/// An ordered multimap of HTTP header fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    fields: Vec<HeaderField>,
}

impl Headers {
    /// Creates an empty header map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty header map with room for `fields` fields, for a
    /// request whose header count is known before it is built.
    pub fn with_capacity(fields: usize) -> Self {
        Headers { fields: Vec::with_capacity(fields) }
    }

    /// Appends a field, keeping any existing fields with the same name.
    pub fn append(&mut self, name: impl Into<Atom>, value: impl Into<Atom>) {
        self.fields.push(HeaderField { name: name.into(), value: value.into() });
    }

    /// Sets a field, replacing every existing field with the same
    /// (case-insensitive) name. The new field is appended at the end.
    pub fn set(&mut self, name: impl Into<Atom>, value: impl Into<Atom>) {
        let name = name.into();
        self.fields.retain(|f| !f.name.eq_ignore_ascii_case(&name));
        self.fields.push(HeaderField { name, value: value.into() });
    }

    /// Returns the first value for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|f| f.name.eq_ignore_ascii_case(name))
            .map(|f| f.value.as_str())
    }

    /// Returns every value for `name`, in insertion order.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.fields
            .iter()
            .filter(move |f| f.name.eq_ignore_ascii_case(name))
            .map(|f| f.value.as_str())
    }

    /// True if at least one field named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Removes every field named `name`; returns the removed values in
    /// order (shared atoms — no copies are made).
    pub fn remove(&mut self, name: &str) -> Vec<Atom> {
        let mut removed = Vec::new();
        self.fields.retain(|f| {
            if f.name.eq_ignore_ascii_case(name) {
                removed.push(f.value.clone());
                false
            } else {
                true
            }
        });
        removed
    }

    /// Removes every field named `name` in place, reporting how many
    /// were removed and whether every removed value equalled
    /// `expected`. The allocation-free form of [`Headers::remove`] for
    /// strip-and-verify protocols (the taint addon) that never need the
    /// removed values themselves.
    pub fn strip_matching(&mut self, name: &str, expected: &str) -> (usize, bool) {
        let mut removed = 0;
        let mut all_match = true;
        self.fields.retain(|f| {
            if f.name.eq_ignore_ascii_case(name) {
                removed += 1;
                all_match &= f.value == expected;
                false
            } else {
                true
            }
        });
        (removed, all_match)
    }

    /// Iterates fields in wire order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.fields.iter().map(|f| (f.name.as_str(), f.value.as_str()))
    }

    /// Iterates fields in wire order as atoms, for consumers that keep
    /// the fields (cloning an [`Atom`] copies no string).
    pub fn iter_interned(&self) -> impl Iterator<Item = (&Atom, &Atom)> {
        self.fields.iter().map(|f| (&f.name, &f.value))
    }

    /// Number of fields (counting duplicates).
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when no fields are present.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Estimated on-the-wire size of the header block in bytes
    /// (`name: value\r\n` per field), used for the Figure 4 volume analysis.
    pub fn wire_size(&self) -> u64 {
        self.fields
            .iter()
            .map(|f| f.name.len() as u64 + f.value.len() as u64 + 4)
            .sum()
    }

    /// Names of custom (`x-`-prefixed) header fields — the prefix the taint
    /// protocol piggybacks on.
    pub fn custom_field_names(&self) -> Vec<&str> {
        self.fields
            .iter()
            .filter(|f| f.name.len() >= 2 && f.name[..2].eq_ignore_ascii_case("x-"))
            .map(|f| f.name.as_str())
            .collect()
    }
}

impl<'a> IntoIterator for &'a Headers {
    type Item = (&'a str, &'a str);
    type IntoIter = std::vec::IntoIter<(&'a str, &'a str)>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter().collect::<Vec<_>>().into_iter()
    }
}

impl FromIterator<(String, String)> for Headers {
    fn from_iter<T: IntoIterator<Item = (String, String)>>(iter: T) -> Self {
        let mut headers = Headers::new();
        for (name, value) in iter {
            headers.append(name, value);
        }
        headers
    }
}

macro_rules! vocabulary {
    ($($field:ident = $text:literal,)*) => {
        /// The header names and constant header values the capture path
        /// sends and serves, as static atoms ([`vocab`]).
        #[derive(Debug)]
        pub struct Vocabulary {
            $(#[doc = concat!("`", $text, "`")] pub $field: Atom,)*
        }

        static VOCAB: Vocabulary = Vocabulary { $($field: Atom::from_static(&$text),)* };

        impl Vocabulary {
            /// Every entry, in declaration order (the intern table's seed).
            pub(crate) fn atoms(&self) -> impl Iterator<Item = &Atom> {
                [$(&self.$field,)*].into_iter()
            }
        }
    };
}

vocabulary! {
    // Names.
    user_agent = "user-agent",
    accept = "accept",
    accept_language = "accept-language",
    accept_encoding = "accept-encoding",
    referer = "referer",
    cookie = "cookie",
    content_type = "content-type",
    content_length = "content-length",
    set_cookie = "set-cookie",
    location = "location",
    // The taint header the instrumentation injects into every engine
    // request (§2.3; `panoptes_mitm::TAINT_HEADER`).
    taint = "x-panoptes-taint",
    // The browser engine's constant request values.
    accept_document = "text/html,application/xhtml+xml,*/*;q=0.8",
    languages = "en-GR,en;q=0.9,el;q=0.8",
    encodings = "gzip, deflate, br",
    // Content types: DoH answers, vendor APIs and site content.
    dns_json = "application/dns-json",
    json = "application/json",
    javascript = "application/javascript",
    css = "text/css",
    jpeg = "image/jpeg",
    html = "text/html",
    // The simulated web's cookies.
    session_cookie = "session=sim; Path=/",
    ad_cookie = "aduid=sim-cookie-1; Max-Age=31536000",
}

/// The header vocabulary: static atoms shared by every thread of the
/// process. Taking an entry is an atom clone that copies a pointer: no
/// intern-table lookup, no lock, and no reference count that two
/// workers write. [`Atom::intern`] of a vocabulary string returns the
/// same static atom.
pub fn vocab() -> &'static Vocabulary {
    &VOCAB
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_insensitive_lookup() {
        let mut h = Headers::new();
        h.append("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        assert!(h.contains("Content-type"));
    }

    #[test]
    fn append_keeps_duplicates_set_replaces() {
        let mut h = Headers::new();
        h.append("Accept", "a");
        h.append("accept", "b");
        assert_eq!(h.get_all("Accept").collect::<Vec<_>>(), vec!["a", "b"]);
        h.set("ACCEPT", "c");
        assert_eq!(h.get_all("Accept").collect::<Vec<_>>(), vec!["c"]);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn remove_returns_values_and_preserves_order_of_rest() {
        let mut h = Headers::new();
        h.append("A", "1");
        h.append("X-Taint", "t");
        h.append("B", "2");
        assert_eq!(h.remove("x-taint"), vec!["t".to_string()]);
        let order: Vec<_> = h.iter().map(|(n, _)| n).collect();
        assert_eq!(order, vec!["A", "B"]);
    }

    #[test]
    fn wire_size_counts_separators() {
        let mut h = Headers::new();
        h.append("A", "1"); // "A: 1\r\n" = 6
        assert_eq!(h.wire_size(), 6);
    }

    #[test]
    fn custom_field_names_finds_x_prefix() {
        let mut h = Headers::new();
        h.append("Accept", "a");
        h.append("X-Panoptes-Taint", "tok");
        h.append("x-requested-with", "app");
        assert_eq!(h.custom_field_names(), vec!["X-Panoptes-Taint", "x-requested-with"]);
    }

    #[test]
    fn vocabulary_is_static_and_shared() {
        let here = vocab();
        let there = std::thread::spawn(|| vocab().user_agent.clone()).join().unwrap();
        assert!(Atom::ptr_eq(&here.user_agent, &there));
        assert!(here.atoms().all(Atom::is_static));
        for atom in here.atoms() {
            assert!(Atom::ptr_eq(atom, &Atom::intern(atom)), "{atom} interns apart");
        }
        assert_eq!(here.set_cookie, "set-cookie");
    }

    #[test]
    fn from_iter_collects() {
        let h: Headers =
            vec![("A".to_string(), "1".to_string()), ("B".to_string(), "2".to_string())]
                .into_iter()
                .collect();
        assert_eq!(h.len(), 2);
    }
}
