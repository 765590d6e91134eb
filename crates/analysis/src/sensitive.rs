//! §3.2's sensitive-content check: the history-leaking browsers
//! "continue to leak the entire URL the user visits" even for sites in
//! Google Ads' blocked sensitive categories (religion, sexuality,
//! politics, health) — no local filtering at all.

use std::borrow::Cow;
use std::collections::BTreeSet;

use crate::engine::CrawlContext;

/// One browser's sensitive-leak row.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitiveRow {
    /// Browser name.
    pub browser: String,
    /// Sensitive URLs visited in the campaign.
    pub sensitive_visits: usize,
    /// How many of them were observed leaking in full (path included).
    pub sensitive_urls_leaked: usize,
    /// Example leaked URL (the smoking gun for the report).
    pub example: Option<String>,
}

/// Accumulator form of the §3.2 sensitive-content detector: the set of
/// sensitive visit URLs seen leaving the device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SensitivePartial {
    leaked: BTreeSet<String>,
}

impl SensitivePartial {
    /// Tests one observation's decodings against the sensitive ground
    /// truth. The fused pass ([`crate::engine::CrawlPartials::observe`])
    /// decides which flows reach it.
    pub(crate) fn scan_values(&mut self, decoded_values: &[Cow<'_, str>], ctx: &CrawlContext) {
        for decoded in decoded_values {
            let decoded: &str = decoded;
            // The ground truth holds full visit URLs, which always
            // contain a `/`; skip the set hash for values that cannot
            // match.
            if decoded.contains('/')
                && ctx.sensitive_urls.contains(decoded)
                && !self.leaked.contains(decoded)
            {
                self.leaked.insert(decoded.to_string());
            }
        }
    }

    /// Finalises the browser's sensitive-leak row.
    pub fn finish(self, browser: &str, sensitive_visits: usize) -> SensitiveRow {
        let example = self.leaked.iter().next().cloned();
        SensitiveRow {
            browser: browser.to_string(),
            sensitive_visits,
            sensitive_urls_leaked: self.leaked.len(),
            example,
        }
    }
}

#[cfg(test)]
mod tests {
    use panoptes::campaign::run_crawl;
    use panoptes::config::CampaignConfig;
    use panoptes_browsers::registry::profile_by_name;
    use panoptes_web::generator::GeneratorConfig;
    use panoptes_web::World;

    use crate::engine::{analyze_crawl, AnalysisResources};

    #[test]
    fn full_url_leakers_spare_nothing_sensitive() {
        let world =
            World::build(&GeneratorConfig { popular: 4, sensitive: 8, ..Default::default() });
        let config = CampaignConfig::default();
        let res = AnalysisResources::standard();
        for name in ["Yandex", "QQ", "UC International"] {
            let result =
                run_crawl(&world, &profile_by_name(name).unwrap(), &world.sites, &config);
            let row = analyze_crawl(&result, &res).sensitive;
            assert_eq!(row.sensitive_visits, 8, "{name}");
            assert_eq!(
                row.sensitive_urls_leaked, 8,
                "{name}: no local filtering of sensitive categories"
            );
            let example = row.example.unwrap();
            assert!(
                example.contains("/health/")
                    || example.contains("/religion/")
                    || example.contains("/sexuality/")
                    || example.contains("/society/"),
                "{example}"
            );
        }
    }

    #[test]
    fn domain_only_leakers_do_not_leak_full_sensitive_urls() {
        let world =
            World::build(&GeneratorConfig { popular: 4, sensitive: 6, ..Default::default() });
        let result = run_crawl(
            &world,
            &profile_by_name("Edge").unwrap(),
            &world.sites,
            &CampaignConfig::default(),
        );
        let row = analyze_crawl(&result, &AnalysisResources::standard()).sensitive;
        assert_eq!(row.sensitive_urls_leaked, 0, "Edge reports domains, not full URLs");
    }
}
