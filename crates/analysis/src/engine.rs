//! The fused study engine: the only code that walks a capture.
//!
//! Every detector of §3 exists once, as a `Partial` accumulator
//! (`observe`/`finish`, fed per flow or per observation).
//! [`CrawlPartials`] bundles the crawl detectors, and its
//! [`observe`](CrawlPartials::observe) is the one place that decides
//! which flows reach which detector, so one fold over the flows feeds
//! them all, in capture order:
//!
//! * [`capture_crawl`] folds each flow while the crawl records it — how
//!   every study analyses its crawls, offline and served;
//! * [`analyze_crawl`] folds a kept capture (`repro --har`, the
//!   examples, the tests), and [`analyze_idle`] folds an idle unit's
//!   capture (at most 155 flows in the paper's 10-minute window) before
//!   it is dropped.
//!
//! `tests/study_engine_determinism.rs` (workspace root) enforces that
//! both folds yield the same analyses and pins the quick-scale report
//! to a golden document.

use std::cell::OnceCell;

use panoptes::campaign::{run_crawl_folding, CampaignResult};
use panoptes::config::CampaignConfig;
use panoptes::idle::IdleResult;
use panoptes_blocklist::data::steven_black_excerpt;
use panoptes_blocklist::HostsList;
use panoptes_browsers::BrowserProfile;
use panoptes_device::DeviceProperties;
use panoptes_geo::GeoDb;
use panoptes_http::hash::FastSet;
use panoptes_http::url::{host_of, registrable_suffix};
use panoptes_mitm::{Flow, FlowClass};
use panoptes_simnet::clock::SimDuration;
use panoptes_web::site::SiteSpec;
use panoptes_web::World;

use crate::addomains::{AdDomainPartial, AdDomainRow};
use crate::cost::{CostPartial, CostRow, EnergyModel};
use crate::dns::{DnsPartial, DnsRow};
use crate::history::{
    is_doh_flow, summarize_from, BrowserLeakSummary, HistoryLeak, HistoryPartial,
};
use crate::identifiers::{IdentifierPartial, IdentifierSighting};
use crate::idle::{DestinationShare, IdlePartial, IdleTimeline};
use crate::pii::{PiiMatcher, PiiPartial, PiiRow};
use crate::scan::{decodings, observations};
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
/// built once per campaign.
#[derive(Debug, Default, PartialEq)]
pub struct CrawlContext {
    /// URLs the harness navigated to.
    pub visited_urls: FastSet<String>,
    /// Hostnames of the visited URLs.
    pub visited_hosts: FastSet<String>,
    /// Registrable domains of the visited sites.
    pub visited_domains: FastSet<String>,
    /// URLs of the visits flagged sensitive in the ground truth.
    pub sensitive_urls: FastSet<String>,
    /// Total visits in the campaign.
    pub total_visits: usize,
}

impl CrawlContext {
    /// Builds the context from a campaign's ground-truth visit log.
    pub fn of(result: &CampaignResult) -> CrawlContext {
        let mut ctx = CrawlContext::default();
        for v in &result.visits {
            ctx.record(&v.url, host_of(&v.url), &v.domain, v.sensitive);
        }
        ctx
    }

    /// Builds, before the crawl starts, the context a crawl of `sites`
    /// records: the crawl visits each site once, in order, at its `url`,
    /// so this equals [`CrawlContext::of`] the finished crawl. Each host
    /// is read from the world's URL, not parsed.
    pub fn of_sites(sites: &[SiteSpec]) -> CrawlContext {
        let mut ctx = CrawlContext::default();
        for s in sites {
            let sensitive = s.category.is_sensitive();
            ctx.record(s.url.as_str(), Some(s.url.host()), &s.domain, sensitive);
        }
        ctx
    }

    /// Adds one visit: its URL, its host (when it has one), its
    /// registrable domain and whether it is sensitive.
    fn record(&mut self, url: &str, host: Option<&str>, domain: &str, sensitive: bool) {
        if let Some(host) = host {
            self.visited_hosts.insert(host.to_owned());
        }
        self.visited_domains.insert(domain.to_owned());
        if sensitive {
            self.sensitive_urls.insert(url.to_owned());
        }
        self.visited_urls.insert(url.to_owned());
        self.total_visits += 1;
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
/// over the capture feeds them all. Flows must arrive in capture order:
/// the first-occurrence detectors (PII, transfers, Listing 1) keep the
/// first match they see.
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
    /// Fusion shares more than the iteration: the first-party test runs
    /// once for history *and* sensitive, one decoded-values sweep feeds
    /// both, and one observations sweep feeds pii *and* identifiers. A
    /// flow's observations are extracted at most once, and only when a
    /// branch below reads them; the URL's query pairs come from the
    /// flow's text, never from a second parse.
    pub fn observe(&mut self, flow: &Flow, ctx: &CrawlContext, pii: &PiiMatcher<'_>) {
        self.volume.observe(flow);
        self.addomains.observe(flow);
        self.cost.observe(flow);
        self.transfers.observe(flow);

        let scanned = OnceCell::new();
        let flow_observations = || scanned.get_or_init(|| observations(flow)).as_slice();

        // Blocked flows never left the device and pinned flows are
        // opaque, so neither can leak a visit. Nor is a site reporting
        // itself to itself a leak: skip flows to any *visited* site's
        // own domain.
        if let Some(channel) = HistoryPartial::channel_of(flow.class) {
            if !ctx.visited_domains.contains(registrable_suffix(&flow.host)) {
                // DNS-over-HTTPS lookups necessarily carry the queried
                // hostname; the paper reports the DoH behaviour
                // separately (§3.2, see `crate::dns`) rather than as a
                // history leak.
                let history = !is_doh_flow(flow);
                let mut flow_leaked = false;
                for obs in flow_observations() {
                    let decoded_values = decodings(&obs.value);
                    if history {
                        flow_leaked |= self.history.scan_observation(
                            &flow.host,
                            channel,
                            obs,
                            &decoded_values,
                            ctx,
                        );
                    }
                    self.sensitive.scan_values(&decoded_values, ctx);
                }
                if flow_leaked {
                    self.history.record_leak_flow(flow, flow_observations());
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
            let mut seen_in_flow = FastSet::default();
            for obs in flow_observations() {
                self.pii.scan_observation(pii, &flow.host, obs);
                self.identifiers
                    .scan_observation(&flow.host, obs, &mut seen_in_flow);
            }
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

/// Finalises a campaign's partials, and its resolver log, into
/// the full analysis.
fn finish_crawl(
    result: &CampaignResult,
    partials: CrawlPartials,
    ctx: &CrawlContext,
    res: &AnalysisResources,
) -> CampaignAnalysis {
    let mut dns = DnsPartial::default();
    for entry in result.dns_log.iter() {
        dns.observe(entry);
    }
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

/// Analyses one stored crawl capture with the fused single-pass engine:
/// one iteration over the snapshot feeds every detector.
pub fn analyze_crawl(result: &CampaignResult, res: &AnalysisResources) -> CampaignAnalysis {
    let _span = panoptes_obs::trace::span_with("study.analyze_crawl", None, || {
        result.profile.name.to_string()
    });
    let ctx = CrawlContext::of(result);
    let matcher = PiiMatcher::new(&res.props);
    let snap = result.store.snapshot();
    panoptes_obs::count!("study.flows.observed", Deterministic, snap.len() as u64);
    let mut partials = CrawlPartials::default();
    for flow in snap.iter() {
        partials.observe(flow, &ctx, &matcher);
    }
    finish_crawl(result, partials, &ctx, res)
}

/// One crawl analysed while it was captured ([`capture_crawl`]).
pub struct CapturedCrawl {
    /// The finished crawl: its visits, DNS log and counters. Its store
    /// is empty, because every flow went to the fold.
    pub result: CampaignResult,
    /// How many flows the crawl captured and folded.
    pub flows: usize,
    /// The crawl's analysis: what [`analyze_crawl`] computes from the
    /// same crawl's stored capture.
    pub analysis: CampaignAnalysis,
}

/// Crawls `sites` with `profile` under `config` and analyses the crawl
/// as it is captured: every flow goes from the proxy straight into the
/// fused pass, after the browser starts and after each visit, so no
/// capture is kept, sealed or torn down. The context comes from `sites`
/// before the crawl begins.
pub fn capture_crawl(
    world: &World,
    profile: &BrowserProfile,
    sites: &[SiteSpec],
    config: &CampaignConfig,
    res: &AnalysisResources,
) -> CapturedCrawl {
    let ctx = CrawlContext::of_sites(sites);
    let matcher = PiiMatcher::new(&res.props);
    let mut partials = CrawlPartials::default();
    let mut flows = 0;
    let result = run_crawl_folding(world, profile, sites, config, |flow| {
        flows += 1;
        partials.observe(flow, &ctx, &matcher);
    });
    panoptes_obs::count!("study.flows.observed", Deterministic, flows as u64);
    let analysis = finish_crawl(&result, partials, &ctx, res);
    CapturedCrawl {
        result,
        flows,
        analysis,
    }
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
