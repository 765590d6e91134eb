//! Property-based tests for the blocklist engines.

use proptest::prelude::*;

use panoptes_blocklist::{FilterList, HostsList};

proptest! {
    #[test]
    fn hosts_contains_is_subdomain_closed(
        entry in "[a-z]{1,8}\\.[a-z]{2,3}",
        label in "[a-z]{1,8}",
        deeper in "[a-z]{1,8}",
    ) {
        let mut list = HostsList::new();
        list.add(&entry);
        let sub = format!("{label}.{entry}");
        let deep = format!("{deeper}.{label}.{entry}");
        let fake = format!("{label}{entry}");
        prop_assert!(list.contains(&entry));
        prop_assert!(list.contains(&sub));
        prop_assert!(list.contains(&deep));
        // Superstring hosts are NOT matched.
        prop_assert!(!list.contains(&fake));
    }

    #[test]
    fn hosts_parse_never_panics(text in "\\PC{0,500}") {
        let _ = HostsList::parse(&text);
    }

    #[test]
    fn filterlist_parse_never_panics(text in "\\PC{0,500}") {
        let _ = FilterList::parse(&text);
    }

    #[test]
    fn domain_anchor_semantics(
        domain in "[a-z]{1,8}\\.(com|net|org)",
        sub in "[a-z]{1,8}",
        path in "[a-z0-9/]{0,20}",
    ) {
        let list = FilterList::parse(&format!("||{domain}^"));
        let url = format!("https://{domain}/{path}");
        prop_assert!(list.should_block(&domain, &url));
        let sub_host = format!("{sub}.{domain}");
        let sub_url = format!("https://{sub_host}/{path}");
        prop_assert!(list.should_block(&sub_host, &sub_url));
        // A look-alike superstring must not be blocked.
        let fake = format!("{sub}{domain}");
        let fake_url = format!("https://{fake}/");
        prop_assert!(!list.should_block(&fake, &fake_url));
    }

    #[test]
    fn exception_always_wins(domain in "[a-z]{1,8}\\.com") {
        let list = FilterList::parse(&format!("||{domain}^\n@@||{domain}^"));
        let url = format!("https://{domain}/x");
        prop_assert!(!list.should_block(&domain, &url));
    }
}

/// One random filterlist line covering every rule form the parser
/// understands: anchors, bare tokens, exceptions, options, comments.
fn arb_rule_line() -> impl Strategy<Value = String> {
    let domain = "[a-z]{1,6}\\.(com|net|org)";
    let token = "[a-z/^.=-]{1,8}";
    prop_oneof![
        domain.prop_map(|d| format!("||{d}^")),
        domain.prop_map(|d| format!("||{d}")),
        domain.prop_map(|d| format!("@@||{d}^")),
        domain.prop_map(|d| format!("||{d}^$third-party")),
        token.prop_map(|t| t.to_string()),
        token.prop_map(|t| format!("@@{t}")),
        token.prop_map(|t| format!("{t}$script")),
        Just("! a comment".to_string()),
        Just("||^".to_string()),
        Just("^".to_string()),
    ]
}

proptest! {
    /// The engine equivalence: the compiled engine and the reference
    /// linear scan agree on every (rules, host, url) — including probes
    /// built from the list's own domains so block/exception paths are
    /// actually exercised, not just misses.
    #[test]
    fn compiled_engine_matches_linear_scan(
        lines in proptest::collection::vec(arb_rule_line(), 0..40),
        sub in "[a-z]{1,6}",
        host in "[a-z]{1,8}\\.(com|net|org)",
        path in "[a-zA-Z0-9/^.=-]{0,24}",
    ) {
        let list = FilterList::parse(&lines.join("\n"));

        let mut probes: Vec<(String, String)> = Vec::new();
        probes.push((host.clone(), format!("https://{host}/{path}")));
        // Recombine the generated rules into hosts that should hit.
        for line in &lines {
            let body = line.trim_start_matches("@@");
            if let Some(domain) =
                body.strip_prefix("||").map(|d| d.split('$').next().unwrap().trim_end_matches('^'))
            {
                if !domain.is_empty() {
                    probes.push((domain.to_string(), format!("https://{domain}/{path}")));
                    let subbed = format!("{sub}.{domain}");
                    probes.push((subbed.clone(), format!("https://{subbed}/{path}")));
                    let fake = format!("{sub}{domain}");
                    probes.push((fake.clone(), format!("https://{fake}/{path}")));
                }
            } else if !body.starts_with('!') {
                let token = body.split('$').next().unwrap();
                probes.push((host.clone(), format!("https://{host}/{token}/{path}")));
            }
        }

        for (h, u) in &probes {
            prop_assert_eq!(
                list.should_block(h, u),
                list.should_block_linear(h, u),
                "compiled engine diverged on host={} url={} rules={:?}", h, u, lines
            );
        }
    }

    /// Hostile-input equivalence: arbitrary rule sets against URLs with
    /// mixed case, separators, percent-escapes, repeated fragments and
    /// non-ASCII — the compiled DFA (which lowercases on the fly and
    /// walks raw bytes) must still decide exactly like the reference
    /// scan.
    #[test]
    fn compiled_engine_matches_linear_scan_on_hostile_urls(
        lines in proptest::collection::vec(arb_rule_line(), 0..40),
        host in "[a-zA-Z0-9.-]{1,24}",
        url in "[ -~éß°\u{2603}]{0,60}",
        stutter in "[a-z^/.]{0,6}",
    ) {
        let list = FilterList::parse(&lines.join("\n"));
        // Repeat a fragment so partial-match resets inside the DFA are
        // exercised (aaab-style prefixes that almost match).
        let url = format!("https://{host}/{url}{stutter}{stutter}{url}");
        prop_assert_eq!(
            list.should_block(&host, &url),
            list.should_block_linear(&host, &url),
            "compiled engine diverged on host={} url={} rules={:?}", host, url, lines
        );
    }

    /// Dedupe is pure: a list parsed from duplicated text decides
    /// exactly like the original.
    #[test]
    fn duplicated_text_decides_identically(
        lines in proptest::collection::vec(arb_rule_line(), 0..20),
        host in "[a-z]{1,8}\\.(com|net|org)",
        path in "[a-z0-9/]{0,16}",
    ) {
        let once = FilterList::parse(&lines.join("\n"));
        let doubled = FilterList::parse(&format!("{}\n{}", lines.join("\n"), lines.join("\n")));
        prop_assert_eq!(once.len(), doubled.len(), "dedupe removes the copies");
        let url = format!("https://{host}/{path}");
        prop_assert_eq!(once.should_block(&host, &url), doubled.should_block(&host, &url));
    }
}
