//! Figure 3: the share of distinct native-contact domains that are
//! third-party ad/analytics domains, "as classified by the popular
//! Steven Black host list" (§3.1).

use std::collections::BTreeSet;

use panoptes_blocklist::HostsList;
use panoptes_mitm::{Flow, FlowClass};

/// One browser's Figure 3 row.
#[derive(Debug, Clone, PartialEq)]
pub struct AdDomainRow {
    /// Browser name.
    pub browser: String,
    /// Distinct hosts contacted natively.
    pub native_hosts: Vec<String>,
    /// The subset classified ad/analytics-related.
    pub ad_hosts: Vec<String>,
    /// `ad_hosts / native_hosts` as a percentage.
    pub ad_percent: f64,
}

/// Accumulator form of the Figure 3 detector: the distinct native-host
/// set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdDomainPartial {
    hosts: BTreeSet<String>,
}

impl AdDomainPartial {
    /// Folds one captured flow into the accumulator.
    pub fn observe(&mut self, flow: &Flow) {
        if flow.class == FlowClass::Native && !self.hosts.contains(flow.host.as_str()) {
            self.hosts.insert(flow.host.to_string());
        }
    }

    /// Finalises the browser's Figure 3 row against `list`.
    pub fn finish(self, browser: &str, list: &HostsList) -> AdDomainRow {
        let ad_hosts: Vec<String> =
            self.hosts.iter().filter(|h| list.contains(h)).cloned().collect();
        let percent = if self.hosts.is_empty() {
            0.0
        } else {
            100.0 * ad_hosts.len() as f64 / self.hosts.len() as f64
        };
        AdDomainRow {
            browser: browser.to_string(),
            native_hosts: self.hosts.into_iter().collect(),
            ad_hosts,
            ad_percent: percent,
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
    fn kiwi_is_ad_heavy_chrome_is_clean() {
        let world =
            World::build(&GeneratorConfig { popular: 6, sensitive: 3, ..Default::default() });
        let config = CampaignConfig::default();
        let res = AnalysisResources::standard();
        let row = |name| {
            let profile = profile_by_name(name).unwrap();
            analyze_crawl(&run_crawl(&world, &profile, &world.sites, &config), &res).addomains
        };
        let kiwi = row("Kiwi");
        assert!(
            (30.0..=50.0).contains(&kiwi.ad_percent),
            "kiwi ≈40%, got {:.1} ({:?})",
            kiwi.ad_percent,
            kiwi.ad_hosts
        );
        assert!(kiwi.ad_hosts.iter().any(|h| h.contains("rubiconproject")));

        let chrome = row("Chrome");
        assert_eq!(chrome.ad_percent, 0.0, "{:?}", chrome.ad_hosts);
    }
}
