//! §3.2's DNS finding: "8 out of all 15 mobile browsers in our dataset
//! query Cloudflare's or Google's third-party DNS-over-HTTPS services
//! for the visited domains with the rest (7) of them using the device's
//! local DNS stub resolver."

use panoptes_simnet::dns::{DnsLogEntry, DohProvider, ResolverKind};

/// What the wire shows about a browser's resolver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservedResolver {
    /// Plain UDP/53 to the device stub.
    LocalStub,
    /// DoH to the given provider.
    Doh(DohProvider),
    /// No lookups observed at all.
    None,
}

/// One browser's DNS row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsRow {
    /// Browser name.
    pub browser: String,
    /// The resolver observed.
    pub resolver: ObservedResolver,
    /// Number of lookups observed.
    pub lookups: usize,
}

/// Accumulator form of the DNS detector, fed with resolver-log entries
/// instead of flows, in log order: the first DoH lookup wins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DnsPartial {
    doh: Option<DohProvider>,
    lookups: usize,
}

impl DnsPartial {
    /// Folds one resolver-log entry into the accumulator.
    pub fn observe(&mut self, entry: &DnsLogEntry) {
        if self.doh.is_none() {
            if let ResolverKind::Doh(p) = entry.resolver {
                self.doh = Some(p);
            }
        }
        self.lookups += 1;
    }

    /// Finalises the browser's DNS row.
    pub fn finish(self, browser: &str) -> DnsRow {
        let resolver = match (self.doh, self.lookups) {
            (Some(p), _) => ObservedResolver::Doh(p),
            (None, 0) => ObservedResolver::None,
            (None, _) => ObservedResolver::LocalStub,
        };
        DnsRow { browser: browser.to_string(), resolver, lookups: self.lookups }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panoptes::campaign::run_crawl;
    use panoptes::config::CampaignConfig;
    use panoptes_browsers::registry::all_profiles;
    use panoptes_web::generator::GeneratorConfig;
    use panoptes_web::World;

    use crate::engine::{analyze_crawl, AnalysisResources};

    #[test]
    fn split_is_8_doh_7_stub() {
        let world =
            World::build(&GeneratorConfig { popular: 4, sensitive: 2, ..Default::default() });
        let config = CampaignConfig::default();
        let res = AnalysisResources::standard();
        let rows: Vec<DnsRow> = all_profiles()
            .iter()
            .map(|p| analyze_crawl(&run_crawl(&world, p, &world.sites, &config), &res).dns)
            .collect();
        let doh = rows.iter().filter(|r| matches!(r.resolver, ObservedResolver::Doh(_))).count();
        let stub = rows.iter().filter(|r| r.resolver == ObservedResolver::LocalStub).count();
        assert_eq!(doh, 8, "{rows:?}");
        assert_eq!(stub, 7);
        let edge = rows.iter().find(|r| r.browser == "Edge").unwrap();
        assert_eq!(edge.resolver, ObservedResolver::Doh(DohProvider::Cloudflare));
        let chrome = rows.iter().find(|r| r.browser == "Chrome").unwrap();
        assert_eq!(chrome.resolver, ObservedResolver::LocalStub);
        assert!(chrome.lookups > 0);
    }
}
