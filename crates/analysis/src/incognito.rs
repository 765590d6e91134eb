//! §3.2's incognito experiment: "we find that these browsers that leak
//! the browsing history of their users, continue to do so, no matter
//! what mode the user is browsing on."

use crate::engine::CampaignAnalysis;
use crate::history::LeakGranularity;

/// Comparison of one browser's normal vs incognito campaigns.
#[derive(Debug, Clone, PartialEq)]
pub struct IncognitoRow {
    /// Browser name.
    pub browser: String,
    /// Worst granularity leaked in normal mode.
    pub normal: Option<LeakGranularity>,
    /// Worst granularity leaked in incognito mode.
    pub incognito: Option<LeakGranularity>,
    /// The paper's finding: leaking continued in incognito.
    pub still_leaks: bool,
}

/// Compares the analyses of two campaigns of the same browser (normal,
/// incognito).
pub fn compare(normal: &CampaignAnalysis, incognito: &CampaignAnalysis) -> IncognitoRow {
    assert_eq!(normal.browser, incognito.browser, "comparing different browsers");
    let worst = |a: &CampaignAnalysis| a.history_leaks.iter().map(|l| l.granularity).max();
    let (n, i) = (worst(normal), worst(incognito));
    IncognitoRow {
        browser: normal.browser.clone(),
        normal: n,
        incognito: i,
        still_leaks: n.is_some() && i == n,
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
    fn edge_opera_uc_keep_leaking_in_incognito() {
        let world =
            World::build(&GeneratorConfig { popular: 5, sensitive: 3, ..Default::default() });
        let normal_cfg = CampaignConfig::default();
        let incog_cfg = CampaignConfig::default().incognito();
        let res = AnalysisResources::standard();
        // The three §3.2 incognito subjects (Yandex and QQ have no
        // incognito mode to test — footnote 5).
        for name in ["Edge", "Opera", "UC International"] {
            let p = profile_by_name(name).unwrap();
            let normal = analyze_crawl(&run_crawl(&world, &p, &world.sites, &normal_cfg), &res);
            let incognito = analyze_crawl(&run_crawl(&world, &p, &world.sites, &incog_cfg), &res);
            let row = compare(&normal, &incognito);
            assert!(row.still_leaks, "{name}: {row:?}");
        }
    }

    #[test]
    fn clean_browser_is_clean_in_both() {
        let world =
            World::build(&GeneratorConfig { popular: 4, sensitive: 2, ..Default::default() });
        let p = profile_by_name("Chrome").unwrap();
        let res = AnalysisResources::standard();
        let normal = run_crawl(&world, &p, &world.sites, &CampaignConfig::default());
        let incognito =
            run_crawl(&world, &p, &world.sites, &CampaignConfig::default().incognito());
        let row = compare(&analyze_crawl(&normal, &res), &analyze_crawl(&incognito, &res));
        assert_eq!(row.normal, None);
        assert_eq!(row.incognito, None);
        assert!(!row.still_leaks);
    }
}
