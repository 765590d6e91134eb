//! The fused, sharded study engine: the only code that walks a capture.
//!
//! Every detector of §3 exists once, as a mergeable `Partial`
//! accumulator (`merge`/`finish`, fed per flow or per observation).
//! This module turns the whole report into a map-reduce over the
//! capture:
//!
//! * **fused** — [`CrawlPartials`] bundles the crawl detectors, and its
//!   [`observe`](CrawlPartials::observe) is the one place that decides
//!   which flows reach which detector, so one iteration over the
//!   snapshot feeds them all ([`analyze_crawl`]); [`analyze_idle`] does
//!   the same for an idle capture;
//! * **sharded** — the fused pass splits the capture into contiguous
//!   [`shard_ranges`](fleet::shard_ranges) executed across the fleet
//!   worker pool, then merges the per-shard partials **in shard order**
//!   ([`analyze_crawl_sharded`]). Because every partial's merge is
//!   either order-insensitive (sums, set unions) or explicitly ordered
//!   (first-occurrence fields), the merged report is byte-identical to
//!   the sequential one for any shard count.
//!
//! `tests/study_engine_determinism.rs` (workspace root) enforces the
//! byte-identity across these paths end-to-end and pins the quick-scale
//! report to a golden document.

use std::collections::{HashMap, HashSet};

use panoptes::campaign::CampaignResult;
use panoptes::fleet::{self, FleetOptions};
use panoptes::idle::IdleResult;
use panoptes_blocklist::data::steven_black_excerpt;
use panoptes_blocklist::HostsList;
use panoptes_device::DeviceProperties;
use panoptes_geo::GeoDb;
use panoptes_http::url::Url;
use panoptes_mitm::FlowClass;
use panoptes_simnet::clock::SimDuration;

use crate::addomains::{AdDomainPartial, AdDomainRow};
use crate::cost::{CostPartial, CostRow, EnergyModel};
use crate::dns::{DnsPartial, DnsRow};
use crate::facts::capture_facts;
use crate::history::{
    is_doh_flow, summarize_from, BrowserLeakSummary, HistoryLeak, HistoryPartial,
};
use crate::identifiers::{IdentifierPartial, IdentifierSighting};
use crate::idle::{DestinationShare, IdlePartial, IdleTimeline};
use crate::pii::{PiiMatcher, PiiPartial, PiiRow};
use crate::sensitive::{SensitivePartial, SensitiveRow};
use crate::transfers::{TransferPartial, TransferRow};
use crate::volume::{VolumePartial, VolumeRow};

/// Stable identifiers are reported when they recur in at least this
/// many flows to one destination (the §3.3 threshold).
pub const IDENTIFIER_MIN_FLOWS: usize = 2;

/// The Opera ad-SDK endpoint whose request body Listing 1 quotes.
pub const LISTING1_HOST: &str = "s-odx.oleads.com";

/// Listing 1: one captured native request, quoted as sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuotedRequest {
    /// The full request URL.
    pub url: String,
    /// The request body.
    pub body: String,
}

/// The per-campaign ground truth every context-dependent detector joins
/// against — visited URLs/hosts/domains and the sensitive subset —
/// built once per campaign and shared by all shards.
pub struct CrawlContext<'a> {
    /// URLs the harness navigated to.
    pub visited_urls: HashSet<&'a str>,
    /// Hostnames of the visited URLs.
    pub visited_hosts: HashSet<String>,
    /// Registrable domains of the visited sites.
    pub visited_domains: HashSet<&'a str>,
    /// URLs of the visits flagged sensitive in the ground truth.
    pub sensitive_urls: HashSet<&'a str>,
    /// Total visits in the campaign.
    pub total_visits: usize,
}

impl<'a> CrawlContext<'a> {
    /// Builds the context from a campaign's ground-truth visit log.
    pub fn of(result: &'a CampaignResult) -> CrawlContext<'a> {
        let visited_urls: HashSet<&str> = result.visits.iter().map(|v| v.url.as_str()).collect();
        let visited_hosts: HashSet<String> = result
            .visits
            .iter()
            .filter_map(|v| Url::parse(&v.url).ok())
            .map(|u| u.host().to_string())
            .collect();
        let visited_domains: HashSet<&str> =
            result.visits.iter().map(|v| v.domain.as_str()).collect();
        let sensitive_urls: HashSet<&str> = result
            .visits
            .iter()
            .filter(|v| v.sensitive)
            .map(|v| v.url.as_str())
            .collect();
        CrawlContext {
            visited_urls,
            visited_hosts,
            visited_domains,
            sensitive_urls,
            total_visits: result.visits.len(),
        }
    }
}

/// The shared lookup tables the detectors finalise against: device
/// ground truth for PII matching, the geolocation database, the
/// ad/tracker hosts list, and the radio energy model. Built once per
/// study, shared by every campaign's analysis.
pub struct AnalysisResources {
    /// The testbed device's ground-truth properties (Table 2 matching).
    pub props: DeviceProperties,
    /// IP → country database (§3.4 transfers).
    pub geo: GeoDb,
    /// Ad/tracker hosts list (Figure 3, §3.3 ad-related flags).
    pub ad_list: HostsList,
    /// Radio energy model for the §3.1 cost rows.
    pub energy: EnergyModel,
}

impl AnalysisResources {
    /// The paper's standard resources: the testbed tablet, the bundled
    /// geo database and hosts list, and the LTE energy model.
    pub fn standard() -> AnalysisResources {
        AnalysisResources {
            props: DeviceProperties::testbed_tablet(),
            geo: GeoDb::standard(),
            ad_list: steven_black_excerpt(),
            energy: EnergyModel::lte(),
        }
    }
}

/// Every crawl detector's accumulator, bundled so one fused iteration
/// over the capture feeds them all. `merge` is **ordered**: `other`
/// must cover flows strictly after `self`'s shard (shard order), which
/// is what lets the first-occurrence detectors (PII, transfers, Listing
/// 1) reproduce the sequential result exactly.
#[derive(Debug, Default, PartialEq)]
pub struct CrawlPartials {
    /// Figure 2/4 sums.
    pub volume: VolumePartial,
    /// Figure 3 native-host set.
    pub addomains: AdDomainPartial,
    /// §3.2 history-leak buckets.
    pub history: HistoryPartial,
    /// Table 2 first-match fields.
    pub pii: PiiPartial,
    /// §3.3 identifier counts.
    pub identifiers: IdentifierPartial,
    /// §3.4 destination-IP map.
    pub transfers: TransferPartial,
    /// §3.2 sensitive-leak set.
    pub sensitive: SensitivePartial,
    /// §3.1 cost sums.
    pub cost: CostPartial,
    /// Listing 1: the first native request to [`LISTING1_HOST`].
    pub listing1: Option<QuotedRequest>,
}

impl CrawlPartials {
    /// Folds one captured flow into every detector — the fused pass, and
    /// the only place that decides which flows reach which detector.
    ///
    /// Fusion shares more than the snapshot iteration: the first-party
    /// test runs once for history *and* sensitive, one decoded-values
    /// sweep feeds both, and one raw-observations sweep feeds pii *and*
    /// identifiers.
    pub fn observe(
        &mut self,
        view: &crate::facts::FlowView<'_>,
        ctx: &CrawlContext<'_>,
        pii: &PiiMatcher<'_>,
    ) {
        let flow = view.flow();
        self.volume.observe(flow);
        self.addomains.observe(flow);
        self.cost.observe(flow);
        self.transfers.observe(flow);

        // Blocked flows never left the device and pinned flows are
        // opaque, so neither can leak a visit. Nor is a site reporting
        // itself to itself a leak: skip flows to any *visited* site's
        // own domain.
        if let Some(channel) = HistoryPartial::channel_of(flow.class) {
            if !ctx.visited_domains.contains(view.registrable_domain()) {
                // DNS-over-HTTPS lookups necessarily carry the queried
                // hostname; the paper reports the DoH behaviour
                // separately (§3.2, see `crate::dns`) rather than as a
                // history leak.
                let history = !is_doh_flow(flow);
                let mut flow_leaked = false;
                for (obs, decoded_values) in view.decoded_observations() {
                    if history {
                        flow_leaked |= self.history.scan_observation(
                            &flow.host,
                            channel,
                            obs,
                            decoded_values,
                            ctx,
                        );
                    }
                    self.sensitive.scan_values(decoded_values, ctx);
                }
                if flow_leaked {
                    self.history.record_leak_flow(view);
                }
            }
        }

        if flow.class == FlowClass::Native {
            if self.listing1.is_none() && flow.host == LISTING1_HOST {
                self.listing1 = Some(QuotedRequest {
                    url: flow.url.clone(),
                    body: flow.request_body.clone(),
                });
            }
            let mut seen_in_flow: HashMap<(&str, &str), ()> = HashMap::new();
            for obs in view.observations() {
                self.pii.scan_observation(pii, &flow.host, obs);
                self.identifiers
                    .scan_observation(&flow.host, obs, &mut seen_in_flow);
            }
        }
    }

    /// Absorbs a later shard's accumulators, detector by detector.
    pub fn merge(&mut self, other: CrawlPartials) {
        self.volume.merge(other.volume);
        self.addomains.merge(other.addomains);
        self.history.merge(other.history);
        self.pii.merge(other.pii);
        self.identifiers.merge(other.identifiers);
        self.transfers.merge(other.transfers);
        self.sensitive.merge(other.sensitive);
        self.cost.merge(other.cost);
        if self.listing1.is_none() {
            self.listing1 = other.listing1;
        }
    }
}

/// Every §3 result of one crawl campaign, computed by the fused pass.
/// Self-contained: rendering a report needs no further access to the
/// capture.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignAnalysis {
    /// Browser name.
    pub browser: String,
    /// Browser version (Table 1).
    pub version: String,
    /// Pages visited.
    pub visits: usize,
    /// Figure 2/4 row.
    pub volume: VolumeRow,
    /// Figure 3 row.
    pub addomains: AdDomainRow,
    /// §3.2 history leaks.
    pub history_leaks: Vec<HistoryLeak>,
    /// Table 2 row.
    pub pii: PiiRow,
    /// §3.3 stable identifiers (at [`IDENTIFIER_MIN_FLOWS`]).
    pub identifiers: Vec<IdentifierSighting>,
    /// §3.4 transfer row (None when the browser leaks nothing).
    pub transfers: Option<TransferRow>,
    /// §3.2 sensitive-category row.
    pub sensitive: SensitiveRow,
    /// §3.2 DNS row.
    pub dns: DnsRow,
    /// §3.1 cost row.
    pub cost: CostRow,
    /// Listing 1: the first native request to [`LISTING1_HOST`], if the
    /// browser sent one.
    pub listing1: Option<QuotedRequest>,
}

impl CampaignAnalysis {
    /// The §3.2 per-browser leak roll-up.
    pub fn leak_summary(&self) -> BrowserLeakSummary {
        summarize_from(&self.browser, &self.history_leaks)
    }
}

/// Finalises a campaign's merged partials into the full analysis.
fn finish_crawl(
    result: &CampaignResult,
    partials: CrawlPartials,
    dns: DnsPartial,
    ctx: &CrawlContext<'_>,
    res: &AnalysisResources,
) -> CampaignAnalysis {
    let browser = result.profile.name.as_str();
    let history_leaks = partials.history.finish(browser, ctx.total_visits);
    let transfers = partials.transfers.finish(browser, &history_leaks, &res.geo);
    CampaignAnalysis {
        browser: browser.to_string(),
        version: result.profile.version.to_string(),
        visits: result.visits.len(),
        volume: partials.volume.finish(browser),
        addomains: partials.addomains.finish(browser, &res.ad_list),
        history_leaks,
        pii: partials.pii.finish(browser),
        identifiers: partials.identifiers.finish(browser, &res.ad_list),
        transfers,
        sensitive: partials.sensitive.finish(browser, ctx.sensitive_urls.len()),
        dns: dns.finish(browser),
        cost: partials
            .cost
            .finish(browser, result.visits.len(), &res.energy),
        listing1: partials.listing1,
    }
}

/// The campaign's resolver-log accumulator (one pass over the DNS log).
fn dns_partial(result: &CampaignResult) -> DnsPartial {
    let mut dns = DnsPartial::default();
    for entry in result.dns_log.iter() {
        dns.observe(entry);
    }
    dns
}

/// Analyses one crawl campaign with the fused single-pass engine: one
/// iteration over the snapshot feeds every detector.
pub fn analyze_crawl(result: &CampaignResult, res: &AnalysisResources) -> CampaignAnalysis {
    let _span = panoptes_obs::trace::span_with("study.analyze_crawl", None, || {
        result.profile.name.to_string()
    });
    let ctx = CrawlContext::of(result);
    let matcher = PiiMatcher::new(&res.props);
    let snap = result.store.snapshot();
    let facts = capture_facts(&snap);
    panoptes_obs::count!(
        "study.flows.observed",
        Deterministic,
        snap.all().len() as u64
    );
    let mut partials = CrawlPartials::default();
    for view in facts.views(snap.all()) {
        partials.observe(&view, &ctx, &matcher);
    }
    finish_crawl(result, partials, dns_partial(result), &ctx, res)
}

/// Analyses one crawl campaign with the fused pass **sharded** across
/// the fleet worker pool: the capture splits into contiguous near-equal
/// ranges, each shard folds its range into its own [`CrawlPartials`],
/// and the shards merge in order. Byte-identical to [`analyze_crawl`]
/// for any worker count.
pub fn analyze_crawl_sharded(
    result: &CampaignResult,
    res: &AnalysisResources,
    options: &FleetOptions,
) -> CampaignAnalysis {
    let _span = panoptes_obs::trace::span_with("study.analyze_crawl_sharded", None, || {
        result.profile.name.to_string()
    });
    let ctx = CrawlContext::of(result);
    let matcher = PiiMatcher::new(&res.props);
    let snap = result.store.snapshot();
    let facts = capture_facts(&snap);
    let flows = snap.all();
    panoptes_obs::count!("study.flows.observed", Deterministic, flows.len() as u64);
    let ranges = fleet::shard_ranges(flows.len(), options.effective_jobs(flows.len()));
    for range in &ranges {
        // Runtime-class: the shard topology changes with `--jobs` by
        // construction, so the skew histogram is excluded from the
        // byte-identity guarantee.
        panoptes_obs::record!("study.shard.flows", Runtime, range.len() as u64);
    }
    let labels: Vec<String> = ranges
        .iter()
        .enumerate()
        .map(|(i, r)| {
            format!(
                "{} analysis shard {i} ({} flows)",
                result.profile.name,
                r.len()
            )
        })
        .collect();
    let shards = fleet::execute(&labels, options, |i| {
        let mut partials = CrawlPartials::default();
        for view in facts.views(flows.slice(ranges[i].clone())) {
            partials.observe(&view, &ctx, &matcher);
        }
        partials
    })
    .unwrap_or_else(|e| panic!("sharded analysis failed: {e}"));
    let merge_start = std::time::Instant::now();
    let mut merged = CrawlPartials::default();
    for shard in shards {
        merged.merge(shard);
    }
    panoptes_obs::record!(
        "study.merge.wall_us",
        Runtime,
        merge_start.elapsed().as_micros() as u64
    );
    finish_crawl(result, merged, dns_partial(result), &ctx, res)
}

/// Every §3.5 result of one idle campaign. The offset/domain histograms
/// stay in accumulator form so any bucket width can be rendered without
/// touching the capture again.
pub struct IdleAnalysis {
    /// Browser name.
    pub browser: String,
    /// Native requests the browser model reports sending while idle.
    pub idle_sent: u32,
    /// The idle window's length.
    pub duration: SimDuration,
    partial: IdlePartial,
}

impl IdleAnalysis {
    /// The Figure 5 cumulative timeline at `bucket` width.
    pub fn timeline(&self, bucket: SimDuration) -> IdleTimeline {
        self.partial.timeline(&self.browser, bucket, self.duration)
    }

    /// The §3.5 destination shares, largest first.
    pub fn destination_shares(&self) -> Vec<DestinationShare> {
        self.partial.destination_shares()
    }
}

/// Analyses one idle campaign (one fused pass over the capture).
pub fn analyze_idle(result: &IdleResult) -> IdleAnalysis {
    let _span = panoptes_obs::trace::span_with("study.analyze_idle", None, || {
        result.profile.name.to_string()
    });
    let mut partial = IdlePartial::default();
    let start = result.idle_start.0;
    panoptes_obs::count!(
        "study.idle_flows.observed",
        Deterministic,
        result.store.snapshot().len() as u64
    );
    for flow in result.store.snapshot().iter() {
        partial.observe(flow, start);
    }
    IdleAnalysis {
        browser: result.profile.name.to_string(),
        idle_sent: result.idle_sent,
        duration: result.duration,
        partial,
    }
}

/// Like [`analyze_idle`], sharded across the worker pool with in-order
/// merge — byte-identical for any worker count.
pub fn analyze_idle_sharded(result: &IdleResult, options: &FleetOptions) -> IdleAnalysis {
    let _span = panoptes_obs::trace::span_with("study.analyze_idle_sharded", None, || {
        result.profile.name.to_string()
    });
    let snap = result.store.snapshot();
    let flows = snap.all();
    let start = result.idle_start.0;
    panoptes_obs::count!(
        "study.idle_flows.observed",
        Deterministic,
        flows.len() as u64
    );
    let ranges = fleet::shard_ranges(flows.len(), options.effective_jobs(flows.len()));
    for range in &ranges {
        panoptes_obs::record!("study.shard.flows", Runtime, range.len() as u64);
    }
    let labels: Vec<String> = ranges
        .iter()
        .enumerate()
        .map(|(i, r)| format!("{} idle shard {i} ({} flows)", result.profile.name, r.len()))
        .collect();
    let shards = fleet::execute(&labels, options, |i| {
        let mut partial = IdlePartial::default();
        for flow in flows.slice(ranges[i].clone()) {
            partial.observe(flow, start);
        }
        partial
    })
    .unwrap_or_else(|e| panic!("sharded idle analysis failed: {e}"));
    let mut merged = IdlePartial::default();
    for shard in shards {
        merged.merge(shard);
    }
    IdleAnalysis {
        browser: result.profile.name.to_string(),
        idle_sent: result.idle_sent,
        duration: result.duration,
        partial: merged,
    }
}

/// The full study's analyses: one [`CampaignAnalysis`] per crawl and
/// one [`IdleAnalysis`] per idle run, both in input (profile) order.
pub struct StudyAnalyses {
    /// Crawl analyses, in input order.
    pub crawls: Vec<CampaignAnalysis>,
    /// Idle analyses, in input order.
    pub idles: Vec<IdleAnalysis>,
}

/// Analyses a completed study sequentially (fused single-pass per
/// campaign).
pub fn analyze_study(
    results: &[CampaignResult],
    idles: &[IdleResult],
    res: &AnalysisResources,
) -> StudyAnalyses {
    StudyAnalyses {
        crawls: results.iter().map(|r| analyze_crawl(r, res)).collect(),
        idles: idles.iter().map(analyze_idle).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panoptes::campaign::run_crawl;
    use panoptes::config::CampaignConfig;
    use panoptes::idle::run_idle;
    use panoptes_browsers::registry::profile_by_name;
    use panoptes_web::generator::GeneratorConfig;
    use panoptes_web::World;

    fn small_world() -> World {
        World::build(&GeneratorConfig {
            popular: 6,
            sensitive: 4,
            ..Default::default()
        })
    }

    #[test]
    fn sharded_analysis_matches_sequential_for_any_worker_count() {
        let world = small_world();
        let config = CampaignConfig::default();
        let res = AnalysisResources::standard();
        // Opera also covers the Listing 1 ad request.
        for name in ["Yandex", "Opera"] {
            let result = run_crawl(
                &world,
                &profile_by_name(name).unwrap(),
                &world.sites,
                &config,
            );
            let sequential = analyze_crawl(&result, &res);
            if name == "Opera" {
                assert!(sequential.listing1.is_some(), "Opera sends its ad request");
            }
            for jobs in [1usize, 2, 3, 8] {
                let sharded = analyze_crawl_sharded(&result, &res, &FleetOptions::with_jobs(jobs));
                assert_eq!(sharded, sequential, "{name} jobs={jobs}");
            }
        }
    }

    #[test]
    fn sharded_idle_matches_sequential() {
        let world = small_world();
        let config = CampaignConfig::default();
        let result = run_idle(
            &world,
            &profile_by_name("Opera").unwrap(),
            SimDuration::from_secs(300),
            &config,
        );
        let bucket = SimDuration::from_secs(10);
        let sequential = analyze_idle(&result);
        for jobs in [2usize, 5] {
            let sharded = analyze_idle_sharded(&result, &FleetOptions::with_jobs(jobs));
            assert_eq!(
                sharded.timeline(bucket),
                sequential.timeline(bucket),
                "jobs={jobs}"
            );
            assert_eq!(
                sharded.destination_shares(),
                sequential.destination_shares(),
                "jobs={jobs}"
            );
        }
    }
}
