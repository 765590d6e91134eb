//! Device/user identifier tracking across native destinations.
//!
//! §3.1/§3.3 of the paper: browsers communicate "with third-party ad
//! servers while leaking personal and device identifiers" — Listing 1's
//! `operaId` is the canonical example. This analysis finds every
//! high-entropy token that stays *stable across flows* to a destination:
//! each one is a tracking handle that survives cookie clearing, IP
//! changes and VPNs.

use std::collections::BTreeMap;

use panoptes_blocklist::HostsList;
use panoptes_http::hash::FastSet;

use crate::engine::IDENTIFIER_MIN_FLOWS;
use crate::scan::looks_like_identifier;

/// One stable identifier observed at one destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdentifierSighting {
    /// Browser under test.
    pub browser: String,
    /// Destination receiving the identifier.
    pub destination: String,
    /// Parameter name / JSON path carrying it.
    pub key: String,
    /// The identifier value.
    pub value: String,
    /// Number of flows carrying exactly this value.
    pub flows: usize,
    /// Whether the destination is on the ad/tracker hosts list — the
    /// §3.3 aggravating factor (identifier shared with an ad server, not
    /// the vendor).
    pub ad_related: bool,
}

/// Accumulator form of the stable-identifier detector: the per-flow
/// dedup is local to one flow's scan, and the cross-flow state is a
/// count map of the flows carrying each token.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdentifierPartial {
    /// (destination, key, value) → flow count.
    counts: BTreeMap<(String, String, String), usize>,
}

impl IdentifierPartial {
    /// Tests one observation of a native flow for a high-entropy token
    /// and counts it once per flow (`seen_in_flow` is the flow-local
    /// dedup, reset per flow).
    pub(crate) fn scan_observation<'a>(
        &mut self,
        destination: &str,
        obs: &'a crate::scan::Observation<'_>,
        seen_in_flow: &mut FastSet<(&'a str, &'a str)>,
    ) {
        if !looks_like_identifier(&obs.value) {
            return;
        }
        // Count each (key,value) once per flow.
        if seen_in_flow.insert((&obs.key, &obs.value)) {
            *self
                .counts
                .entry((destination.to_string(), obs.key.to_string(), obs.value.to_string()))
                .or_default() += 1;
        }
    }

    /// Finalises the browser's identifier sightings: the tokens that
    /// recur in at least [`IDENTIFIER_MIN_FLOWS`] flows to the same
    /// destination under the same key.
    pub fn finish(self, browser: &str, ad_list: &HostsList) -> Vec<IdentifierSighting> {
        self.counts
            .into_iter()
            .filter(|(_, n)| *n >= IDENTIFIER_MIN_FLOWS)
            .map(|((destination, key, value), flows)| IdentifierSighting {
                browser: browser.to_string(),
                ad_related: ad_list.contains(&destination),
                destination,
                key,
                value,
                flows,
            })
            .collect()
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
    use crate::scan::{Observation, Source};

    fn identifiers(name: &str) -> Vec<IdentifierSighting> {
        let world =
            World::build(&GeneratorConfig { popular: 5, sensitive: 3, ..Default::default() });
        let result = run_crawl(
            &world,
            &profile_by_name(name).unwrap(),
            &world.sites,
            &CampaignConfig::default(),
        );
        analyze_crawl(&result, &AnalysisResources::standard()).identifiers
    }

    #[test]
    fn opera_id_reaches_the_oleads_ad_server() {
        // Listing 1: the 64-hex operaId rides every ad-SDK fetch.
        let sighting = identifiers("Opera")
            .into_iter()
            .find(|s| s.ad_related)
            .expect("operaId found");
        assert_eq!(sighting.destination, "s-odx.oleads.com");
        assert_eq!(sighting.key, "operaId");
        assert_eq!(sighting.value.len(), 64);
        assert!(sighting.flows >= 8, "every visit carries it: {}", sighting.flows);
        assert!(sighting.ad_related);
    }

    #[test]
    fn yandex_uid_is_stable_but_goes_to_the_vendor() {
        let sightings = identifiers("Yandex");
        let yuid = sightings
            .iter()
            .find(|s| s.destination == "api.browser.yandex.ru")
            .expect("yandexuid");
        assert_eq!(yuid.key, "yandexuid");
        assert!(!yuid.ad_related, "vendor endpoint, not an ad server");
    }

    #[test]
    fn clean_browsers_have_no_stable_identifiers() {
        for name in ["Chrome", "Brave", "DuckDuckGo"] {
            let sightings = identifiers(name);
            assert!(sightings.is_empty(), "{name}: {sightings:?}");
        }
    }

    #[test]
    fn threshold_filters_one_off_tokens() {
        let recurring = "0123456789abcdef0123456789abcdef";
        let one_off = "fedcba9876543210fedcba9876543210";
        let obs = |value: &'static str| Observation {
            key: "id".into(),
            value: value.into(),
            source: Source::Query,
        };
        // The recurring token rides two flows (twice in the second, which
        // counts once); the one-off token rides one.
        let flows = [vec![obs(recurring), obs(one_off)], vec![obs(recurring), obs(recurring)]];
        let mut partial = IdentifierPartial::default();
        for flow in &flows {
            let mut seen_in_flow = FastSet::default();
            for o in flow {
                partial.scan_observation("t.example.com", o, &mut seen_in_flow);
            }
        }
        let sightings = partial.finish("Test", &HostsList::new());
        assert_eq!(sightings.len(), 1, "{sightings:?}");
        assert_eq!(sightings[0].value, recurring);
        assert_eq!(sightings[0].flows, IDENTIFIER_MIN_FLOWS);
    }
}
