//! §3.4: international data transfers.
//!
//! "We extract the IP address of every remote server receiving native
//! requests from the tested browsers, and use a popular
//! IP-to-geolocation service to extract its country-level location. We
//! see that while the crawls took place from EU, in case of the mobile
//! browsers Yandex, QQ and UC International which leak in full detail
//! the browsing history of the users, the requests are being received by
//! servers located in Russia, China, and Canada, respectively."

use panoptes_geo::{Country, GeoDb};
use panoptes_http::hash::FastMap;
use panoptes_http::netaddr::IpAddr;
use panoptes_http::Atom;
use panoptes_mitm::Flow;

use crate::history::{HistoryLeak, LeakGranularity};

/// Where one browser's history leaks land.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferRow {
    /// Browser name.
    pub browser: String,
    /// Worst leak granularity (context for severity).
    pub granularity: LeakGranularity,
    /// `(destination host, country)` of each leak destination.
    pub destinations: Vec<(String, Country)>,
    /// True when any full-detail leak lands outside the EU.
    pub leaves_eu: bool,
}

/// Accumulator form of the §3.4 detector's capture pass: the
/// destination-host → first-seen IP map, so flows must be observed in
/// capture order. The geolocation itself happens at `finish` against
/// the history leaks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransferPartial {
    dest_ip: FastMap<Atom, IpAddr>,
}

impl TransferPartial {
    /// Folds one captured flow into the accumulator.
    pub fn observe(&mut self, flow: &Flow) {
        if !self.dest_ip.contains_key(flow.host.as_str()) {
            self.dest_ip.insert(flow.host.clone(), flow.dst_ip);
        }
    }

    /// Finalises the browser's transfer row against its history leaks.
    pub fn finish(
        self,
        browser: &str,
        leaks: &[HistoryLeak],
        geo: &GeoDb,
    ) -> Option<TransferRow> {
        let worst = leaks.iter().map(|l| l.granularity).max()?;
        let mut destinations = Vec::new();
        for leak in leaks {
            if leak.granularity != worst {
                continue;
            }
            if let Some(country) =
                self.dest_ip.get(leak.destination.as_str()).and_then(|ip| geo.country_of(*ip))
            {
                if !destinations.iter().any(|(h, _)| h == &leak.destination) {
                    destinations.push((leak.destination.clone(), country));
                }
            }
        }
        let leaves_eu = destinations.iter().any(|(_, c)| !c.is_eu());
        Some(TransferRow {
            browser: browser.to_string(),
            granularity: worst,
            destinations,
            leaves_eu,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panoptes::campaign::run_crawl;
    use panoptes::config::CampaignConfig;
    use panoptes_browsers::registry::profile_by_name;
    use panoptes_web::generator::GeneratorConfig;
    use panoptes_web::World;

    use crate::engine::{analyze_crawl, AnalysisResources};

    #[test]
    fn full_detail_leakers_land_outside_eu() {
        let world =
            World::build(&GeneratorConfig { popular: 6, sensitive: 3, ..Default::default() });
        let config = CampaignConfig::default();
        let res = AnalysisResources::standard();
        let cases = [
            ("Yandex", "RU"),
            ("QQ", "CN"),
            ("UC International", "CA"),
        ];
        for (name, country) in cases {
            let result =
                run_crawl(&world, &profile_by_name(name).unwrap(), &world.sites, &config);
            let row = analyze_crawl(&result, &res)
                .transfers
                .unwrap_or_else(|| panic!("{name} leaks"));
            assert_eq!(row.granularity, LeakGranularity::FullUrl, "{name}");
            assert!(row.leaves_eu, "{name}");
            assert!(
                row.destinations.iter().any(|(_, c)| c.as_str() == country),
                "{name} → {country}, got {:?}",
                row.destinations
            );
        }
    }

    #[test]
    fn clean_browser_has_no_transfer_row() {
        let world =
            World::build(&GeneratorConfig { popular: 4, sensitive: 2, ..Default::default() });
        let result = run_crawl(
            &world,
            &profile_by_name("Brave").unwrap(),
            &world.sites,
            &CampaignConfig::default(),
        );
        assert!(analyze_crawl(&result, &AnalysisResources::standard()).transfers.is_none());
    }
}
