//! Figure 5 and §3.5: idle-time native activity.
//!
//! Figure 5 plots, per browser, the cumulative number of native requests
//! over a 10-minute idle window: "the activity of most browsers grows
//! exponentially within the first minute ... before they reach a
//! relative plateau", with Opera's News feed producing a linear climb.
//! §3.5 additionally reports destination shares (Dolphin: 46% to
//! Facebook Graph; Mint 8%; CocCoc 6.7% to adjust.com; Opera 21.9% to
//! doubleclick.net and 1.7% to appsflyer).

use std::collections::BTreeMap;

use panoptes_http::url::registrable_domain;
use panoptes_mitm::{Flow, FlowClass};
use panoptes_simnet::clock::SimDuration;

/// One browser's Figure 5 series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdleTimeline {
    /// Browser name.
    pub browser: String,
    /// Bucket width in seconds.
    pub bucket_secs: u64,
    /// `(end-of-bucket second, cumulative native requests)` samples.
    pub cumulative: Vec<(u64, u64)>,
}

impl IdleTimeline {
    /// Cumulative count at the end of the window.
    pub fn total(&self) -> u64 {
        self.cumulative.last().map(|(_, n)| *n).unwrap_or(0)
    }

    /// Cumulative count at (or before) `secs` into the window.
    pub fn at(&self, secs: u64) -> u64 {
        self.cumulative
            .iter()
            .take_while(|(t, _)| *t <= secs)
            .map(|(_, n)| *n)
            .last()
            .unwrap_or(0)
    }

    /// The "front-loading" of the curve: fraction of all requests that
    /// landed in the first minute. Burst-then-plateau browsers score
    /// high; Opera's linear feed scores near `60/duration`.
    pub fn first_minute_share(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.at(60) as f64 / total as f64
    }
}

/// Accumulator form of the idle detectors: per-second offset
/// counts feed [`IdlePartial::timeline`], per-domain counts feed
/// [`IdlePartial::destination_shares`] — both derived from one pass over
/// the capture instead of one pass each.
///
/// The two views differ deliberately: the timeline drops flows past the
/// idle window, while destination shares count every
/// in-window-or-later native flow.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdlePartial {
    /// Seconds-since-idle-start → native flow count (no upper bound).
    offsets: BTreeMap<u64, u64>,
    /// Registrable destination domain → native flow count.
    domains: BTreeMap<String, u64>,
    /// All native flows at or after idle start.
    total: u64,
}

impl IdlePartial {
    /// Folds one captured flow into the accumulator. `start_us` is the
    /// idle window's start timestamp; launch traffic before it is
    /// excluded.
    pub fn observe(&mut self, flow: &Flow, start_us: u64) {
        if flow.class != FlowClass::Native || flow.time_us < start_us {
            return;
        }
        let offset_secs = (flow.time_us - start_us) / 1_000_000;
        *self.offsets.entry(offset_secs).or_default() += 1;
        *self.domains.entry(registrable_domain(&flow.host)).or_default() += 1;
        self.total += 1;
    }

    /// Finalises the Figure 5 cumulative timeline at `bucket` width over
    /// an idle window of `duration`.
    pub fn timeline(&self, browser: &str, bucket: SimDuration, duration: SimDuration) -> IdleTimeline {
        let bucket_secs = bucket.as_secs().max(1);
        let total_secs = duration.as_secs();
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        for (&offset_secs, &n) in &self.offsets {
            if offset_secs > total_secs {
                continue;
            }
            let bucket_end = ((offset_secs / bucket_secs) + 1) * bucket_secs;
            *counts.entry(bucket_end).or_default() += n;
        }
        let mut cumulative = Vec::new();
        let mut running = 0u64;
        let mut t = bucket_secs;
        while t <= total_secs {
            running += counts.get(&t).copied().unwrap_or(0);
            cumulative.push((t, running));
            t += bucket_secs;
        }
        IdleTimeline { browser: browser.to_string(), bucket_secs, cumulative }
    }

    /// Finalises the §3.5 destination shares, largest first.
    pub fn destination_shares(&self) -> Vec<DestinationShare> {
        let total = self.total;
        let mut shares: Vec<DestinationShare> = self
            .domains
            .iter()
            .map(|(domain, &count)| DestinationShare {
                domain: domain.clone(),
                count,
                percent: if total == 0 { 0.0 } else { 100.0 * count as f64 / total as f64 },
            })
            .collect();
        shares.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.domain.cmp(&b.domain)));
        shares
    }
}

/// One destination's share of a browser's idle natives (§3.5).
#[derive(Debug, Clone, PartialEq)]
pub struct DestinationShare {
    /// Registrable domain of the destination.
    pub domain: String,
    /// Requests to it during the idle window.
    pub count: u64,
    /// Share of all idle natives, in percent.
    pub percent: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use panoptes::config::CampaignConfig;
    use panoptes::idle::run_idle;
    use panoptes_browsers::registry::profile_by_name;
    use panoptes_web::generator::GeneratorConfig;
    use panoptes_web::World;

    use crate::engine::{analyze_idle, IdleAnalysis};

    fn idle(name: &str) -> IdleAnalysis {
        let world =
            World::build(&GeneratorConfig { popular: 3, sensitive: 2, ..Default::default() });
        analyze_idle(&run_idle(
            &world,
            &profile_by_name(name).unwrap(),
            SimDuration::from_secs(600),
            &CampaignConfig::default(),
        ))
    }

    /// One domain's share of the idle natives, in percent.
    fn domain_percent(analysis: &IdleAnalysis, domain: &str) -> f64 {
        analysis
            .destination_shares()
            .into_iter()
            .find(|s| s.domain == domain)
            .map_or(0.0, |s| s.percent)
    }

    #[test]
    fn burst_browsers_are_front_loaded_opera_is_linear() {
        let edge = idle("Edge").timeline(SimDuration::from_secs(10));
        let opera = idle("Opera").timeline(SimDuration::from_secs(10));
        assert!(edge.total() > 0 && opera.total() > 0);
        // Edge: burst + slow plateau ⇒ clearly front-loaded relative to
        // uniform (60s/600s = 10%).
        assert!(
            edge.first_minute_share() > 0.2,
            "edge share {}",
            edge.first_minute_share()
        );
        // Opera: dominated by the constant news cadence ⇒ near-uniform.
        assert!(
            opera.first_minute_share() < 0.2,
            "opera share {}",
            opera.first_minute_share()
        );
        // Cumulative curves never decrease.
        for w in opera.cumulative.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn dolphin_share_matches_paper() {
        let share = domain_percent(&idle("Dolphin"), "facebook.com");
        assert!(
            (40.0..=52.0).contains(&share),
            "Dolphin → Facebook Graph ≈46%, got {share:.1}"
        );
    }

    #[test]
    fn opera_ad_shares_match_paper() {
        let opera = idle("Opera");
        let dc = domain_percent(&opera, "doubleclick.net");
        let af = domain_percent(&opera, "appsflyer.com");
        assert!((17.0..=27.0).contains(&dc), "doubleclick ≈21.9%, got {dc:.1}");
        assert!((0.5..=4.0).contains(&af), "appsflyer ≈1.7%, got {af:.1}");
    }

    #[test]
    fn coccoc_adjust_share_matches_paper() {
        let share = domain_percent(&idle("CocCoc"), "adjust.com");
        assert!((3.0..=11.0).contains(&share), "adjust ≈6.7%, got {share:.1}");
    }
}
