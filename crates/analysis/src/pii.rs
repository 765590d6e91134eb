//! Table 2: PII and device-specific information leaked natively.
//!
//! §3.3: "we use keyword matching (via regex) and heuristics to extract
//! potential Personally Identifying Information (PII) and
//! device-specific information the browsers may leak via the URL
//! parameters of the natively generated requests. We exclude the Android
//! version and the device model ... as such information is reported by
//! default ... through the HTTP User-Agent header."
//!
//! The detectors below combine a value match (against the known device
//! state — ReCon-style) with key-name hints where the value alone is
//! ambiguous (e.g. DPI numbers).

use panoptes_browsers::PiiField;
use panoptes_device::DeviceProperties;

/// One browser's Table 2 row: which fields were observed leaking, with
/// an example destination per field.
#[derive(Debug, Clone, PartialEq)]
pub struct PiiRow {
    /// Browser name.
    pub browser: String,
    /// `(field, example destination host)` for each leaked field.
    pub leaked: Vec<(PiiField, String)>,
}

impl PiiRow {
    /// Whether `field` was observed.
    pub fn leaks(&self, field: PiiField) -> bool {
        self.leaked.iter().any(|(f, _)| *f == field)
    }
}

fn key_hint(key_lower: &str, hints: &[&str]) -> bool {
    hints.iter().any(|h| key_lower.contains(h))
}

/// The Table 2 matcher with the device ground truth's string forms
/// rendered up front, so the per-observation tests are pure comparisons
/// — no allocation on the capture-scan hot path.
pub struct PiiMatcher<'a> {
    props: &'a DeviceProperties,
    resolution_string: String,
    resolution_w: String,
    resolution_h: String,
    local_ip: String,
    dpi: String,
}

impl<'a> PiiMatcher<'a> {
    /// Prepares the matcher for one device's ground truth.
    pub fn new(props: &'a DeviceProperties) -> PiiMatcher<'a> {
        PiiMatcher {
            props,
            resolution_string: props.resolution_string(),
            resolution_w: props.resolution.0.to_string(),
            resolution_h: props.resolution.1.to_string(),
            local_ip: props.local_ip.to_string(),
            dpi: props.dpi.to_string(),
        }
    }

    /// Tests one observation (key pre-lowercased) against one field.
    fn matches_field(&self, field: PiiField, key_lower: &str, value: &str) -> bool {
        let props = self.props;
        match field {
            PiiField::DeviceType => value.eq_ignore_ascii_case(&props.device_type),
            PiiField::DeviceManufacturer => {
                value.eq_ignore_ascii_case(&props.manufacturer)
                    && key_hint(key_lower, &["vendor", "manuf", "brand", "make"])
            }
            PiiField::Timezone => value == props.timezone,
            PiiField::Resolution => {
                value == self.resolution_string
                    || (key_hint(key_lower, &["width"]) && value == self.resolution_w)
                    || (key_hint(key_lower, &["height"]) && value == self.resolution_h)
            }
            PiiField::LocalIp => value == self.local_ip,
            PiiField::Dpi => key_hint(key_lower, &["dpi", "density"]) && value == self.dpi,
            PiiField::RootedStatus => {
                key_hint(key_lower, &["root"]) && matches!(value, "true" | "1" | "TRUE")
            }
            PiiField::Locale => value == props.locale,
            PiiField::Country => {
                value == props.country && key_hint(key_lower, &["country", "geo", "region"])
            }
            PiiField::Location => {
                let Ok(v) = value.parse::<f64>() else { return false };
                (key_hint(key_lower, &["lat"]) && (v - props.location.0).abs() < 0.05)
                    || (key_hint(key_lower, &["lon", "lng"]) && (v - props.location.1).abs() < 0.05)
            }
            PiiField::ConnectionType => value == props.connection.as_str(),
            PiiField::NetworkType => value == props.network.as_str(),
        }
    }
}

/// Accumulator form of the Table 2 detector. Each field keeps its
/// *first* matching destination in capture order, so flows must be
/// observed in the order they were captured.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PiiPartial {
    leaked: Vec<(PiiField, String)>,
}

impl PiiPartial {
    /// Tests one observation of a native flow against every still-unseen
    /// field.
    pub(crate) fn scan_observation(
        &mut self,
        matcher: &PiiMatcher<'_>,
        destination: &str,
        obs: &crate::scan::Observation<'_>,
    ) {
        if self.leaked.len() == PiiField::ALL.len() {
            return;
        }
        let key_lower: std::borrow::Cow<'_, str> =
            if obs.key.bytes().any(|b| b.is_ascii_uppercase()) {
                std::borrow::Cow::Owned(obs.key.to_ascii_lowercase())
            } else {
                std::borrow::Cow::Borrowed(&obs.key)
            };
        for field in PiiField::ALL {
            if self.leaked.iter().any(|(f, _)| *f == field) {
                continue;
            }
            if matcher.matches_field(field, &key_lower, &obs.value) {
                self.leaked.push((field, destination.to_string()));
            }
        }
    }

    /// Finalises the browser's Table 2 row.
    pub fn finish(self, browser: &str) -> PiiRow {
        let mut leaked = self.leaked;
        leaked.sort_by_key(|(f, _)| PiiField::ALL.iter().position(|x| x == f));
        PiiRow { browser: browser.to_string(), leaked }
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

    fn row(name: &str) -> PiiRow {
        let world =
            World::build(&GeneratorConfig { popular: 5, sensitive: 3, ..Default::default() });
        let result = run_crawl(
            &world,
            &profile_by_name(name).unwrap(),
            &world.sites,
            &CampaignConfig::default(),
        );
        analyze_crawl(&result, &AnalysisResources::standard()).pii
    }

    #[test]
    fn whale_row_matches_table2() {
        let whale = row("Whale");
        for field in [
            PiiField::Resolution,
            PiiField::LocalIp,
            PiiField::RootedStatus,
            PiiField::Locale,
            PiiField::Country,
            PiiField::NetworkType,
        ] {
            assert!(whale.leaks(field), "whale should leak {field:?}: {:?}", whale.leaked);
        }
        assert!(!whale.leaks(PiiField::Location));
        assert!(!whale.leaks(PiiField::Dpi));
    }

    #[test]
    fn opera_leaks_coordinates_to_ad_server() {
        let opera = row("Opera");
        assert!(opera.leaks(PiiField::Location), "{:?}", opera.leaked);
        let (_, dest) =
            opera.leaked.iter().find(|(f, _)| *f == PiiField::Location).unwrap();
        assert_eq!(dest, "s-odx.oleads.com", "shared with the ad server, not the vendor (§3.3)");
    }

    #[test]
    fn chrome_and_brave_leak_nothing() {
        for name in ["Chrome", "Brave", "DuckDuckGo", "Dolphin", "Kiwi"] {
            let r = row(name);
            assert!(r.leaked.is_empty(), "{name}: {:?}", r.leaked);
        }
    }

    #[test]
    fn field_detectors_are_value_grounded() {
        let props = DeviceProperties::testbed_tablet();
        let m = PiiMatcher::new(&props);
        let check = |field, key: &str, value: &str| {
            m.matches_field(field, &key.to_ascii_lowercase(), value)
        };
        assert!(check(PiiField::Timezone, "tz", "Europe/Athens"));
        assert!(!check(PiiField::Timezone, "tz", "Europe/Berlin"));
        assert!(check(PiiField::Resolution, "screen", "1200x1920"));
        assert!(check(PiiField::Resolution, "deviceScreenWidth", "1200"));
        assert!(!check(PiiField::Resolution, "slot", "1200"));
        assert!(check(PiiField::Dpi, "dpi", "224"));
        assert!(!check(PiiField::Dpi, "count", "224"));
        assert!(check(PiiField::Location, "latitude", "35.3387"));
        assert!(!check(PiiField::Location, "latitude", "48.85"));
        assert!(check(PiiField::Country, "countryCode", "GR"));
        assert!(!check(PiiField::Country, "param", "GR"));
    }
}
