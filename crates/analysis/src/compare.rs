//! Study comparison: per-browser deltas between two runs — the
//! longitudinal workflow (did an update start/stop leaking?) and the A/B
//! workflow (what did the guard change?).

use crate::engine::CampaignAnalysis;
use crate::history::LeakGranularity;

/// The delta between two campaigns of the same browser.
#[derive(Debug, Clone, PartialEq)]
pub struct BrowserDelta {
    /// Browser name.
    pub browser: String,
    /// Worst leak granularity in run A.
    pub leak_a: Option<LeakGranularity>,
    /// Worst leak granularity in run B.
    pub leak_b: Option<LeakGranularity>,
    /// Native/engine request ratio in run A.
    pub ratio_a: f64,
    /// Native/engine request ratio in run B.
    pub ratio_b: f64,
    /// Native request count change (B − A).
    pub native_delta: i64,
}

impl BrowserDelta {
    /// The leak classification changed between the runs.
    pub fn leak_changed(&self) -> bool {
        self.leak_a != self.leak_b
    }

    /// The browser got *better* (leak granularity dropped or vanished).
    pub fn improved(&self) -> bool {
        self.leak_b < self.leak_a
    }

    /// The browser got *worse* (leak granularity appeared or grew).
    pub fn regressed(&self) -> bool {
        self.leak_b > self.leak_a
    }
}

/// Compares the analyses of two runs of the same browser.
pub fn compare_campaigns(a: &CampaignAnalysis, b: &CampaignAnalysis) -> BrowserDelta {
    assert_eq!(a.browser, b.browser, "comparing different browsers");
    BrowserDelta {
        browser: a.browser.clone(),
        leak_a: a.leak_summary().worst,
        leak_b: b.leak_summary().worst,
        ratio_a: a.volume.request_ratio,
        ratio_b: b.volume.request_ratio,
        native_delta: b.volume.native_requests as i64 - a.volume.native_requests as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panoptes::campaign::{run_crawl, run_crawl_with};
    use panoptes::config::CampaignConfig;
    use panoptes_browsers::registry::profile_by_name;
    use panoptes_web::generator::GeneratorConfig;
    use panoptes_web::World;

    use crate::engine::{analyze_crawl, AnalysisResources};

    #[test]
    fn identical_runs_have_zero_delta() {
        let world =
            World::build(&GeneratorConfig { popular: 4, sensitive: 3, ..Default::default() });
        let p = profile_by_name("Edge").unwrap();
        let res = AnalysisResources::standard();
        let a = analyze_crawl(&run_crawl(&world, &p, &world.sites, &CampaignConfig::default()), &res);
        let b = analyze_crawl(&run_crawl(&world, &p, &world.sites, &CampaignConfig::default()), &res);
        let delta = compare_campaigns(&a, &b);
        assert!(!delta.leak_changed());
        assert_eq!(delta.native_delta, 0);
        assert_eq!(delta.ratio_a, delta.ratio_b);
        assert!(!delta.improved() && !delta.regressed());
    }

    #[test]
    fn guard_shows_up_as_an_improvement() {
        // The A/B this module exists for: guard off vs guard on.
        let world =
            World::build(&GeneratorConfig { popular: 4, sensitive: 3, ..Default::default() });
        let p = profile_by_name("Yandex").unwrap();
        let a = run_crawl(&world, &p, &world.sites, &CampaignConfig::default());
        let b = run_crawl_with(
            &world,
            &p,
            &world.sites,
            &CampaignConfig::default(),
            panoptes_guard_shim::install_guard,
        );
        let res = AnalysisResources::standard();
        let delta = compare_campaigns(&analyze_crawl(&a, &res), &analyze_crawl(&b, &res));
        assert_eq!(delta.leak_a, Some(LeakGranularity::FullUrl));
        assert_eq!(delta.leak_b, None);
        assert!(delta.improved());
        assert!(!delta.regressed());
        assert!(delta.native_delta < 0, "blocked flows leave the native count");
    }

    /// Tiny local shim so the analysis crate's tests can enable the guard
    /// without a dependency cycle (guard depends on analysis only in
    /// dev-tests; analysis must not depend on guard). It re-implements
    /// the minimal redaction addon inline.
    mod panoptes_guard_shim {
        use panoptes_http::url::Url;
        use panoptes_mitm::addon::{Addon, Verdict};
        use panoptes_mitm::{FlowClass, InterceptedRequest, TransparentProxy};

        struct RedactUrls;
        impl Addon for RedactUrls {
            fn name(&self) -> &str {
                "test-redactor"
            }
            fn on_request(&self, ir: &mut InterceptedRequest<'_>) {
                if *ir.class != FlowClass::Native {
                    return;
                }
                if ir.request.url.host().ends_with("yandex.net")
                    || ir.request.url.host().ends_with("yandex.ru")
                {
                    // Block the vendor phone-homes outright.
                    *ir.verdict = Verdict::Block;
                }
                let _ = ir.request.url.map_query_values(|_, v| {
                    Url::parse(v).ok().map(|_| "redacted".to_string())
                });
            }
        }

        pub fn install_guard(proxy: &mut TransparentProxy) {
            proxy.install_addon(Box::new(RedactUrls));
        }
    }
}
