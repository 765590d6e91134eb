//! Deterministic workloads for the `bench_analysis` filterlist race: a
//! synthetic ≥1k-rule filterlist and a mixed hit/miss URL workload.
//! Everything is arithmetic — no RNG — so every run, machine and CI job
//! measures the exact same work.

use panoptes_blocklist::FilterList;

/// A synthetic filterlist: `anchors` domain-anchor rules, `substrings`
/// bare-token rules, plus a sprinkle of exceptions (one per 50 block
/// rules), in easylist syntax.
pub fn synthetic_filterlist(anchors: usize, substrings: usize) -> FilterList {
    let mut text = String::from("! synthetic benchmark list\n");
    for i in 0..anchors {
        text.push_str(&format!("||ad{i:04}.tracker{:02}.com^\n", i % 37));
        if i % 50 == 0 {
            text.push_str(&format!("@@||ad{i:04}.tracker{:02}.com/allowed^\n", i % 37));
        }
    }
    for i in 0..substrings {
        text.push_str(&format!("/sdk{i:03}ping/\n"));
    }
    FilterList::parse(&text)
}

/// A `(host, url)` workload against [`synthetic_filterlist`]: mostly
/// clean traffic (the realistic case — the vast majority of requests
/// match no rule) with periodic anchor hits, subdomain hits and
/// substring hits.
pub fn filterlist_workload(n: usize) -> Vec<(String, String)> {
    (0..n)
        .map(|i| {
            let (host, url) = match i % 10 {
                // Anchor hit on the exact domain.
                0 => {
                    let k = (i / 10) % 1200;
                    let host = format!("ad{k:04}.tracker{:02}.com", k % 37);
                    let url = format!("https://{host}/bid?slot={i}");
                    (host, url)
                }
                // Anchor hit via a subdomain.
                1 => {
                    let k = (i / 10) % 1200;
                    let host = format!("cdn{}.ad{k:04}.tracker{:02}.com", i % 7, k % 37);
                    let url = format!("https://{host}/pixel");
                    (host, url)
                }
                // Substring hit on the path.
                2 => {
                    let k = (i / 10) % 300;
                    let host = format!("site{}.example", i % 53);
                    let url = format!("https://{host}/assets/sdk{k:03}ping/v2?uid={i}");
                    (host, url)
                }
                // Clean traffic.
                _ => {
                    let host = format!("news{}.example.org", i % 211);
                    let url =
                        format!("https://{host}/story/{i}/index.html?ref=home&page={}", i % 9);
                    (host, url)
                }
            };
            (host, url)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_list_is_big_enough_and_engines_agree() {
        let list = synthetic_filterlist(1200, 300);
        assert!(list.len() >= 1000, "got {}", list.len());
        let urls = filterlist_workload(500);
        let mut hits = 0usize;
        for (h, u) in &urls {
            let compiled = list.should_block(h, u);
            assert_eq!(compiled, list.should_block_linear(h, u), "{h} {u}");
            hits += compiled as usize;
        }
        // The workload exercises both outcomes.
        assert!(hits > 0 && hits < urls.len(), "hits={hits}");
    }
}
