//! Cookies and a per-domain cookie jar.
//!
//! Browsers in the simulation keep ordinary engine-side cookie state; the
//! point the paper makes (§3.2) is that clearing this state does *not*
//! defeat native tracking because vendors attach their own persistent
//! identifiers outside the cookie jar. The jar models the part the user
//! *can* clear.

use crate::hash::FastMap;

/// A single cookie.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cookie {
    /// Cookie name.
    pub name: String,
    /// Cookie value.
    pub value: String,
    /// Domain the cookie is scoped to (registrable domain, host-only
    /// semantics are not modelled).
    pub domain: String,
    /// Whether the cookie survives the session (incognito drops them all
    /// regardless).
    pub persistent: bool,
}

impl Cookie {
    /// Parses a `Set-Cookie` header value in the context of `origin_domain`.
    /// Returns `None` for syntactically empty cookies.
    pub fn parse_set_cookie(value: &str, origin_domain: &str) -> Option<Cookie> {
        let mut parts = value.split(';').map(str::trim);
        let (name, val) = parts.next()?.split_once('=')?;
        if name.is_empty() {
            return None;
        }
        let mut domain = origin_domain.to_string();
        let mut persistent = false;
        for attr in parts {
            let (k, v) = attr.split_once('=').unwrap_or((attr, ""));
            if k.eq_ignore_ascii_case("domain") {
                domain = v.trim_start_matches('.').to_ascii_lowercase();
            } else if k.eq_ignore_ascii_case("max-age") || k.eq_ignore_ascii_case("expires") {
                persistent = true;
            }
        }
        Some(Cookie {
            name: name.to_string(),
            value: val.to_string(),
            domain,
            persistent,
        })
    }
}

/// A cookie jar indexed by cookie domain.
///
/// The naive jar — one flat `Vec`, scanned per request and `retain`ed
/// per `Set-Cookie` — is quadratic over a long crawl: by the 100k-site
/// world a single browser holds ~10⁵ cookies and issues ~10⁶ requests.
/// This layout keeps cookies in insertion-ordered slots (tombstoned on
/// replacement) with a per-domain index over slot numbers, so a lookup
/// touches only the few label-suffixes of the request host and a store
/// touches only its own domain's bucket. The rendered `Cookie` header
/// is byte-identical to the flat scan: matches are emitted in ascending
/// slot order, which *is* insertion order.
#[derive(Debug, Clone, Default)]
pub struct CookieJar {
    /// Insertion-ordered storage; `None` marks a replaced/expired slot.
    slots: Vec<Option<Cookie>>,
    /// Cookie domain → live slot numbers (each bucket stays sorted
    /// because slots are assigned in increasing order).
    by_domain: FastMap<String, Vec<u32>>,
    live: usize,
}

impl CookieJar {
    /// Creates an empty jar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a cookie, replacing any same-name cookie for the same domain.
    /// The domain's bucket is probed by `&str`; the domain is copied only
    /// when it opens a new bucket.
    pub fn store(&mut self, cookie: Cookie) {
        // Keep tombstones from accumulating past the live population:
        // compaction preserves insertion order, so headers are unchanged.
        if self.slots.len() > 32 && self.slots.len() >= 2 * self.live {
            let kept: Vec<Cookie> = self.slots.drain(..).flatten().collect();
            self.rebuild(kept);
        }
        let idx = self.slots.len() as u32;
        match self.by_domain.get_mut(cookie.domain.as_str()) {
            Some(bucket) => {
                let slots = &mut self.slots;
                if let Some(pos) = bucket.iter().position(|&i| {
                    slots[i as usize].as_ref().is_some_and(|c| c.name == cookie.name)
                }) {
                    slots[bucket.remove(pos) as usize] = None;
                    self.live -= 1;
                }
                bucket.push(idx);
            }
            None => {
                self.by_domain.insert(cookie.domain.clone(), vec![idx]);
            }
        }
        self.slots.push(Some(cookie));
        self.live += 1;
    }

    /// Returns the `Cookie` header value for a request to `host`, matching
    /// the cookie domain as a suffix label match. `None` when no cookies
    /// apply.
    ///
    /// Only the label-suffixes of `host` (`a.b.com` → `a.b.com`,
    /// `b.com`, `com`) can hold matching cookies, so the lookup probes
    /// that handful of buckets instead of scanning the jar. The header
    /// is written into one `String` of its final size.
    pub fn header_for(&self, host: &str) -> Option<String> {
        if self.live == 0 {
            return None;
        }
        let mut buckets = domain_suffixes(host).filter_map(|suffix| self.by_domain.get(suffix));
        let first = buckets.next()?;
        let merged: Vec<u32>;
        let matches: &[u32] = match buckets.next() {
            // One bucket is already in slot (insertion) order.
            None => first,
            // Several are merged back into slot order.
            Some(second) => {
                let mut all: Vec<u32> =
                    first.iter().chain(second).chain(buckets.flatten()).copied().collect();
                all.sort_unstable();
                merged = all;
                &merged
            }
        };
        if matches.is_empty() {
            return None;
        }
        let cookies = || matches.iter().filter_map(|&i| self.slots[i as usize].as_ref());
        let len: usize = cookies().map(|c| c.name.len() + c.value.len() + 3).sum();
        let mut header = String::with_capacity(len.saturating_sub(2));
        for cookie in cookies() {
            if !header.is_empty() {
                header.push_str("; ");
            }
            header.push_str(&cookie.name);
            header.push('=');
            header.push_str(&cookie.value);
        }
        Some(header)
    }

    /// Drops every cookie (what "Clear browsing data" or leaving incognito
    /// does).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.by_domain.clear();
        self.live = 0;
    }

    /// Drops session cookies only.
    pub fn clear_session(&mut self) {
        let kept: Vec<Cookie> =
            self.slots.drain(..).flatten().filter(|c| c.persistent).collect();
        self.rebuild(kept);
    }

    /// Reindexes from an insertion-ordered live set.
    fn rebuild(&mut self, cookies: Vec<Cookie>) {
        self.by_domain.clear();
        self.live = cookies.len();
        self.slots = cookies
            .into_iter()
            .enumerate()
            .map(|(idx, c)| {
                self.by_domain.entry(c.domain.clone()).or_default().push(idx as u32);
                Some(c)
            })
            .collect();
    }

    /// Number of cookies held.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the jar is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// The label-suffixes of `host` that a cookie domain can equal under
/// [`domain_matches`]: the host itself, then everything after each dot.
fn domain_suffixes(host: &str) -> impl Iterator<Item = &str> {
    std::iter::once(host).chain(host.match_indices('.').map(move |(i, _)| &host[i + 1..]))
}

/// Label-suffix domain match: `sub.example.com` matches `example.com`
/// but `evilexample.com` does not. Reference predicate for the indexed
/// lookup — the tests assert [`domain_suffixes`]-based probing renders
/// exactly what a flat scan under this predicate would.
#[cfg_attr(not(test), allow(dead_code))]
fn domain_matches(host: &str, cookie_domain: &str) -> bool {
    host == cookie_domain
        || (host.len() > cookie_domain.len()
            && host.ends_with(cookie_domain)
            && host.as_bytes()[host.len() - cookie_domain.len() - 1] == b'.')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_set_cookie() {
        let c = Cookie::parse_set_cookie("sid=abc123; Path=/; HttpOnly", "example.com").unwrap();
        assert_eq!(c.name, "sid");
        assert_eq!(c.value, "abc123");
        assert_eq!(c.domain, "example.com");
        assert!(!c.persistent);
    }

    #[test]
    fn parse_persistent_and_domain_attrs() {
        let c = Cookie::parse_set_cookie(
            "uid=x; Domain=.Tracker.NET; Max-Age=31536000",
            "sub.tracker.net",
        )
        .unwrap();
        assert_eq!(c.domain, "tracker.net");
        assert!(c.persistent);
    }

    #[test]
    fn attribute_names_match_in_any_case_but_not_with_stray_spaces() {
        let c = Cookie::parse_set_cookie("a=1; DOMAIN=.X.example; EXPIRES=never", "e.com").unwrap();
        assert_eq!(c.domain, "x.example");
        assert!(c.persistent);
        let c = Cookie::parse_set_cookie("a=1; Domain =x.example; Max-Age =5", "e.com").unwrap();
        assert_eq!(c.domain, "e.com");
        assert!(!c.persistent);
    }

    #[test]
    fn rejects_empty_name() {
        assert!(Cookie::parse_set_cookie("=v", "e.com").is_none());
        assert!(Cookie::parse_set_cookie("novalue", "e.com").is_none());
    }

    #[test]
    fn jar_replaces_same_name_same_domain() {
        let mut jar = CookieJar::new();
        jar.store(Cookie::parse_set_cookie("a=1", "e.com").unwrap());
        jar.store(Cookie::parse_set_cookie("a=2", "e.com").unwrap());
        assert_eq!(jar.len(), 1);
        assert_eq!(jar.header_for("e.com"), Some("a=2".to_string()));
    }

    #[test]
    fn domain_suffix_matching() {
        let mut jar = CookieJar::new();
        jar.store(Cookie::parse_set_cookie("t=1; Domain=tracker.net", "tracker.net").unwrap());
        assert_eq!(jar.header_for("cdn.tracker.net"), Some("t=1".to_string()));
        assert_eq!(jar.header_for("eviltracker.net"), None);
        assert_eq!(jar.header_for("other.com"), None);
    }

    #[test]
    fn indexed_header_matches_flat_scan_order() {
        // The domain-indexed jar must render the exact bytes the old
        // flat insertion-order scan did, including after replacements
        // and compaction.
        let mut jar = CookieJar::new();
        let mut flat: Vec<Cookie> = Vec::new();
        let sets = [
            ("a=1", "example.com"),
            ("t=x; Domain=tracker.net", "cdn.tracker.net"),
            ("b=2", "example.com"),
            ("h=1; Domain=www.example.com", "www.example.com"), // a second bucket
            ("a=9", "example.com"), // replaces a=1: moves to the end
            ("u=z; Domain=example.com", "www.example.com"),
        ];
        for (value, origin) in sets {
            let c = Cookie::parse_set_cookie(value, origin).unwrap();
            flat.retain(|f| !(f.name == c.name && f.domain == c.domain));
            flat.push(c.clone());
            jar.store(c);
        }
        // Force many replacements so compaction kicks in.
        for i in 0..100 {
            let c = Cookie::parse_set_cookie(&format!("churn={i}"), "churn.org").unwrap();
            flat.retain(|f| !(f.name == c.name && f.domain == c.domain));
            flat.push(c.clone());
            jar.store(c);
        }
        for host in ["example.com", "www.example.com", "cdn.tracker.net", "churn.org", "no.match"]
        {
            let scan: Vec<String> = flat
                .iter()
                .filter(|c| domain_matches(host, &c.domain))
                .map(|c| format!("{}={}", c.name, c.value))
                .collect();
            let expect = (!scan.is_empty()).then(|| scan.join("; "));
            assert_eq!(jar.header_for(host), expect, "host {host}");
        }
        assert_eq!(jar.len(), flat.len());
    }

    #[test]
    fn clear_session_keeps_persistent() {
        let mut jar = CookieJar::new();
        jar.store(Cookie::parse_set_cookie("s=1", "e.com").unwrap());
        jar.store(Cookie::parse_set_cookie("p=1; Max-Age=60", "e.com").unwrap());
        jar.clear_session();
        assert_eq!(jar.len(), 1);
        assert_eq!(jar.header_for("e.com"), Some("p=1".to_string()));
        jar.clear();
        assert!(jar.is_empty());
    }
}
