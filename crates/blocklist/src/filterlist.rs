//! An easylist-lite filterlist engine.
//!
//! Supports the rule forms that dominate real easylist usage:
//!
//! * `||domain.com^` — domain anchor: matches the domain and subdomains,
//! * `/substring/` or any bare token — substring match on the full URL,
//! * `@@` prefix — exception rule (overrides blocks),
//! * `!` prefix — comment.
//!
//! This powers the CocCoc model's engine-side ad blocking (§3.1: CocCoc
//! "is an ad-blocking browser that enforces the easylist filterlist in
//! its web engine").
//!
//! # Matching engines
//!
//! [`FilterList::should_block`] runs the **compiled** engine: all
//! substring rules in one dense Aho–Corasick DFA behind a rare-byte
//! prefilter, domain anchors as interned [`Atom`]s in a `FastSet` with a
//! length-mask gate — see [`crate::automaton`]. The hot path allocates
//! nothing: bytes are lowercased as they feed the DFA.
//!
//! [`FilterList::should_block_linear`] is the original rule-by-rule
//! scan, the reference the proptest equivalence suite pins the compiled
//! engine to and `bench_analysis` times it against. The two decide
//! identically on every (rules, host, url).

use std::borrow::Cow;
use std::collections::HashSet;

use panoptes_http::Atom;

use crate::automaton::{AnchorSet, SubstringAutomaton};

/// One parsed rule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Pattern {
    /// `||domain^` — matches the URL host (and subdomains). Interned:
    /// the same network's anchor in blocks, exceptions and across lists
    /// shares one allocation.
    DomainAnchor(Atom),
    /// Bare substring on the serialized URL.
    Substring(String),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Rule {
    pattern: Pattern,
    exception: bool,
}

/// One rule set compiled for the hot path: interned anchors behind a
/// length mask, substrings as one Aho–Corasick DFA behind the rare-byte
/// prefilter.
#[derive(Debug, Clone, Default)]
struct CompiledRules {
    anchors: AnchorSet,
    substrings: SubstringAutomaton,
}

impl CompiledRules {
    fn compile(patterns: &[Pattern]) -> CompiledRules {
        let mut anchors = AnchorSet::default();
        for p in patterns {
            if let Pattern::DomainAnchor(d) = p {
                anchors.insert(d);
            }
        }
        let substrings = SubstringAutomaton::compile(patterns.iter().filter_map(|p| match p {
            Pattern::Substring(s) => Some(s.as_str()),
            Pattern::DomainAnchor(_) => None,
        }));
        CompiledRules { anchors, substrings }
    }

    /// "Any pattern matches (host, url)". The host must be lowercased;
    /// the URL is matched as-is (the DFA lowercases while scanning).
    fn matches(&self, host_lower: &str, url_text: &str) -> bool {
        self.anchors.matches_host(host_lower) || self.substrings.matches_anycase(url_text)
    }
}

/// A parsed filterlist.
#[derive(Debug, Clone, Default)]
pub struct FilterList {
    blocks: Vec<Pattern>,
    exceptions: Vec<Pattern>,
    compiled_blocks: CompiledRules,
    compiled_exceptions: CompiledRules,
}

impl FilterList {
    /// An empty list (blocks nothing).
    pub fn new() -> FilterList {
        FilterList::default()
    }

    /// Parses filterlist text. Identical rules are deduplicated; rules
    /// whose pattern would be zero-length (`||^`, a bare `$options`
    /// line) are dropped rather than becoming match-everything rules.
    pub fn parse(text: &str) -> FilterList {
        let mut list = FilterList::new();
        let mut seen: HashSet<Rule> = HashSet::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('!') || line.starts_with('[') {
                continue;
            }
            if let Some(rule) = parse_rule(line) {
                if !seen.insert(rule.clone()) {
                    continue;
                }
                if rule.exception {
                    list.exceptions.push(rule.pattern);
                } else {
                    list.blocks.push(rule.pattern);
                }
            }
        }
        list.compiled_blocks = CompiledRules::compile(&list.blocks);
        list.compiled_exceptions = CompiledRules::compile(&list.exceptions);
        list
    }

    /// True when a request for `url_text` (to `host`) should be blocked.
    ///
    /// Runs the compiled engine: anchor set with length gate, then the
    /// substring DFA behind its rare-byte prefilter; exceptions are
    /// consulted only after a block rule hit. Allocation-free unless the
    /// caller passes an upper-case host (hosts arrive lowercased from
    /// the URL layer).
    pub fn should_block(&self, host: &str, url_text: &str) -> bool {
        panoptes_obs::count!("blocklist.probes", Deterministic);
        if self.blocks.is_empty() {
            return false;
        }
        let host_lower: Cow<'_, str> = if host.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(host.to_ascii_lowercase()) // alloc-ok: uppercase-host slow path
        } else {
            Cow::Borrowed(host)
        };
        if !self.compiled_blocks.matches(&host_lower, url_text) {
            return false;
        }
        !self.compiled_exceptions.matches(&host_lower, url_text)
    }

    /// The original rule-by-rule scan, kept as the reference the compiled
    /// engine is proven equivalent to (and benchmarked against).
    pub fn should_block_linear(&self, host: &str, url_text: &str) -> bool {
        let blocked = self.blocks.iter().any(|p| pattern_matches(p, host, url_text));
        if !blocked {
            return false;
        }
        !self.exceptions.iter().any(|p| pattern_matches(p, host, url_text))
    }

    /// Number of blocking rules.
    pub fn len(&self) -> usize {
        self.blocks.len() + self.exceptions.len()
    }

    /// True when no rules are loaded.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty() && self.exceptions.is_empty()
    }
}

fn parse_rule(line: &str) -> Option<Rule> {
    let (exception, body) = match line.strip_prefix("@@") {
        Some(rest) => (true, rest),
        None => (false, line),
    };
    // Strip trailing options (`$third-party` etc.) — matched permissively.
    let body = body.split('$').next().unwrap_or(body);
    if body.is_empty() {
        return None;
    }
    let pattern = if let Some(anchored) = body.strip_prefix("||") {
        let domain = anchored.trim_end_matches('^').trim_end_matches('/');
        if domain.is_empty() {
            return None;
        }
        // Interning dedupes storage across blocks/exceptions/lists: the
        // same network's anchor is one shared allocation everywhere.
        Pattern::DomainAnchor(Atom::from(domain.to_ascii_lowercase())) // alloc-ok: parse time
    } else {
        if body.chars().all(|c| c == '^') {
            return None; // separator-only token: would match nothing useful
        }
        Pattern::Substring(body.to_ascii_lowercase()) // alloc-ok: parse time
    };
    Some(Rule { pattern, exception })
}

fn pattern_matches(pattern: &Pattern, host: &str, url_text: &str) -> bool {
    match pattern {
        Pattern::DomainAnchor(domain) => {
            let host = host.to_ascii_lowercase(); // alloc-ok: linear reference engine
            let domain = domain.as_str();
            host == domain
                || (host.ends_with(domain)
                    && host.as_bytes().get(host.len() - domain.len() - 1) == Some(&b'.'))
        }
        Pattern::Substring(s) => {
            url_text.to_ascii_lowercase().contains(s.as_str()) // alloc-ok: linear reference
        }
    }
}

/// A pragmatic easylist excerpt: the generic ad-path rules plus domain
/// anchors for the ad/tracking networks embedded by the simulated web.
pub fn easylist_excerpt() -> FilterList {
    FilterList::parse(
        "! easylist (excerpt)\n\
         ||doubleclick.net^\n\
         ||googlesyndication.com^\n\
         ||google-analytics.com^\n\
         ||adnxs.com^\n\
         ||rubiconproject.com^\n\
         ||pubmatic.com^\n\
         ||openx.net^\n\
         ||criteo.com^\n\
         ||bidswitch.net^\n\
         ||demdex.net^\n\
         ||scorecardresearch.com^\n\
         ||quantserve.com^\n\
         ||taboola.com^\n\
         ||outbrain.com^\n\
         ||zemanta.com^\n\
         ||amazon-adsystem.com^\n\
         ||smartadserver.com^\n\
         ||indexexchange.com^\n\
         ||sovrn.com^\n\
         ||triplelift.com^\n\
         ||googletagmanager.com^\n\
         ||facebook.net^\n\
         /ads/\n\
         /adserver/\n\
         @@||example-ads-allowed.com^\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_anchor_blocks_subdomains() {
        let list = FilterList::parse("||doubleclick.net^");
        assert!(list.should_block("doubleclick.net", "https://doubleclick.net/pixel"));
        assert!(list.should_block("stats.g.doubleclick.net", "https://stats.g.doubleclick.net/x"));
        assert!(!list.should_block("notdoubleclick.net", "https://notdoubleclick.net/"));
    }

    #[test]
    fn substring_rules_match_path() {
        let list = FilterList::parse("/ads/");
        assert!(list.should_block("site.com", "https://site.com/ads/banner.js"));
        assert!(!list.should_block("site.com", "https://site.com/news/article"));
    }

    #[test]
    fn exception_overrides_block() {
        let list = FilterList::parse("||tracker.com^\n@@||tracker.com^$document");
        assert!(!list.should_block("tracker.com", "https://tracker.com/t.gif"));
    }

    #[test]
    fn comments_and_options_ignored() {
        let list = FilterList::parse("! comment\n[Adblock Plus 2.0]\n||x.com^$third-party\n");
        assert_eq!(list.len(), 1);
        assert!(list.should_block("x.com", "https://x.com/"));
    }

    #[test]
    fn duplicate_rules_are_deduplicated() {
        let list = FilterList::parse("||x.com^\n||x.com^\n/ads/\n/ads/\n@@||y.com^\n@@||y.com^");
        assert_eq!(list.len(), 3);
        assert!(list.should_block("x.com", "https://x.com/"));
    }

    #[test]
    fn degenerate_rules_are_dropped() {
        // `||^` and a bare separator would otherwise become
        // match-everything rules; `$third-party` alone is pure options.
        let list = FilterList::parse("||^\n^\n^^\n$third-party\n@@||^");
        assert!(list.is_empty());
        assert!(!list.should_block("site.com", "https://site.com/"));
    }

    #[test]
    fn case_is_insensitive_both_ways() {
        let list = FilterList::parse("||DoubleClick.NET^\n/ADS/");
        assert!(list.should_block("STATS.DOUBLECLICK.net", "https://x/"));
        assert!(list.should_block("site.com", "https://site.com/Ads/banner"));
    }

    #[test]
    fn compiled_and_linear_agree_on_the_excerpt() {
        let list = easylist_excerpt();
        let cases = [
            ("doubleclick.net", "https://doubleclick.net/pixel"),
            ("stats.g.doubleclick.net", "https://stats.g.doubleclick.net/x"),
            ("site.com", "https://site.com/ads/banner.js"),
            ("site.com", "https://site.com/adserver/bid"),
            ("site.com", "https://site.com/news"),
            ("example-ads-allowed.com", "https://example-ads-allowed.com/ads/x"),
            ("notdoubleclick.net", "https://notdoubleclick.net/"),
            ("a.b.c.rubiconproject.com", "https://a.b.c.rubiconproject.com/"),
        ];
        for (host, url) in cases {
            assert_eq!(
                list.should_block(host, url),
                list.should_block_linear(host, url),
                "{host} {url}"
            );
        }
    }

    #[test]
    fn cloned_list_decides_identically() {
        let list = easylist_excerpt();
        let clone = list.clone();
        for (host, url) in [
            ("doubleclick.net", "https://doubleclick.net/pixel"),
            ("site.com", "https://site.com/ads/banner.js"),
            ("site.com", "https://site.com/news"),
        ] {
            assert_eq!(clone.should_block(host, url), list.should_block(host, url));
        }
    }

    #[test]
    fn excerpt_blocks_paper_networks() {
        let list = easylist_excerpt();
        for host in [
            "doubleclick.net",
            "rubiconproject.com",
            "adnxs.com",
            "openx.net",
            "pubmatic.com",
            "bidswitch.net",
            "demdex.net",
        ] {
            let url = format!("https://{host}/bid");
            assert!(list.should_block(host, &url), "{host} should be blocked");
        }
        assert!(!list.should_block("news.example.com", "https://news.example.com/story"));
    }

    #[test]
    fn empty_list_blocks_nothing() {
        let list = FilterList::new();
        assert!(list.is_empty());
        assert!(!list.should_block("doubleclick.net", "https://doubleclick.net/"));
    }
}
