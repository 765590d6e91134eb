//! Site and page models.

use panoptes_http::url::Url;
use panoptes_http::Atom;

/// The sensitive Curlie categories the paper selected (§3: "websites
/// associated with sensitive issues regarding Society (e.g., warfare and
/// conflict), Religion, Sexuality and Health (e.g., mental health)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensitiveCategory {
    /// Society: warfare, conflict, political activism.
    Society,
    /// Religion.
    Religion,
    /// Sexuality.
    Sexuality,
    /// Health, including mental health.
    Health,
}

impl SensitiveCategory {
    /// All four categories in a fixed order.
    pub const ALL: [SensitiveCategory; 4] = [
        SensitiveCategory::Society,
        SensitiveCategory::Religion,
        SensitiveCategory::Sexuality,
        SensitiveCategory::Health,
    ];

    /// Label used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            SensitiveCategory::Society => "society",
            SensitiveCategory::Religion => "religion",
            SensitiveCategory::Sexuality => "sexuality",
            SensitiveCategory::Health => "health",
        }
    }
}

/// Whether a site is from the popularity ranking or the sensitive set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteCategory {
    /// From the Tranco-like top ranking.
    Popular,
    /// From the Curlie-like sensitive directory.
    Sensitive(SensitiveCategory),
}

impl SiteCategory {
    /// True for sensitive-directory sites.
    pub fn is_sensitive(self) -> bool {
        matches!(self, SiteCategory::Sensitive(_))
    }
}

/// What kind of resource a page element is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// The main HTML document.
    Document,
    /// First-party or CDN script.
    Script,
    /// Stylesheet.
    Style,
    /// Image/media.
    Image,
    /// XHR/fetch to an API.
    Xhr,
    /// A third-party advertising request (bid, creative).
    Ad,
    /// A third-party analytics/tracking beacon.
    Tracker,
}

impl ResourceKind {
    /// True for the third-party ad/tracking kinds an engine-side
    /// ad-blocker goes after.
    pub fn is_ad_related(self) -> bool {
        matches!(self, ResourceKind::Ad | ResourceKind::Tracker)
    }
}

/// One resource a page load fetches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceSpec {
    /// The resource's `https` URL, built once with the world. A page
    /// load clones it into its request; the host and path are slices of
    /// its text.
    pub url: Url,
    /// Response body size in bytes.
    pub size: u32,
    /// Resource kind.
    pub kind: ResourceKind,
}

/// The load plan of a site's landing page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageSpec {
    /// Size of the main document in bytes.
    pub document_size: u32,
    /// Everything fetched after the document, in order.
    pub resources: Vec<ResourceSpec>,
    /// Virtual time until `DOMContentLoaded` fires, in milliseconds
    /// (past which the crawler's 60-second budget would apply).
    pub dom_content_loaded_ms: u32,
}

impl PageSpec {
    /// Number of requests a full load issues (document + resources).
    pub fn request_count(&self) -> usize {
        1 + self.resources.len()
    }

    /// Total response bytes of a full load.
    pub fn total_bytes(&self) -> u64 {
        self.document_size as u64 + self.resources.iter().map(|r| r.size as u64).sum::<u64>()
    }

    /// Distinct hosts contacted by a full load (document host excluded —
    /// pass it separately since `PageSpec` doesn't know its own domain).
    pub fn third_party_hosts(&self) -> Vec<&str> {
        let mut hosts: Vec<&str> = self.resources.iter().map(|r| r.url.host()).collect();
        hosts.sort_unstable();
        hosts.dedup();
        hosts
    }
}

/// One website in the crawl population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteSpec {
    /// 1-based popularity rank (or position within the sensitive set).
    pub rank: u32,
    /// Registrable domain of the site.
    pub domain: String,
    /// Hostname of the landing page (usually `www.` + domain), interned
    /// once with the world and shared with its route table.
    pub host: Atom,
    /// The URL the crawler navigates to, built once with the world: the
    /// apex URL for a redirecting site, the landing page on `host`
    /// otherwise. Its path is the landing path, which is topical on
    /// sensitive sites, so full-URL leaks are distinguishable from
    /// hostname-only leaks.
    pub url: Url,
    /// Ranking bucket / sensitive category.
    pub category: SiteCategory,
    /// The page load plan.
    pub page: PageSpec,
    /// When true, the canonical entry point is the apex domain, which
    /// answers `301` to the `www.` host — the redirect dance most real
    /// top sites perform.
    pub apex_redirect: bool,
    /// True for deep-tail sites (ranks beyond the paper's head set):
    /// self-hosted, size-addressed resources served formulaically by the
    /// origin instead of from the pre-rendered directory, so a 100k-site
    /// world does not pre-render ~2M response templates.
    pub tail: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resource(url: &str, size: u32, kind: ResourceKind) -> ResourceSpec {
        ResourceSpec { url: Url::parse(url).unwrap(), size, kind }
    }

    fn page() -> PageSpec {
        PageSpec {
            document_size: 50_000,
            resources: vec![
                resource("https://cdn.a.com/app.js", 10_000, ResourceKind::Script),
                resource("https://doubleclick.net/bid", 2_000, ResourceKind::Ad),
                resource("https://cdn.a.com/logo.png", 4_000, ResourceKind::Image),
            ],
            dom_content_loaded_ms: 900,
        }
    }

    #[test]
    fn page_accounting() {
        let p = page();
        assert_eq!(p.request_count(), 4);
        assert_eq!(p.total_bytes(), 66_000);
        assert_eq!(p.third_party_hosts(), vec!["cdn.a.com", "doubleclick.net"]);
    }

    #[test]
    fn kinds_classify() {
        assert!(ResourceKind::Ad.is_ad_related());
        assert!(ResourceKind::Tracker.is_ad_related());
        assert!(!ResourceKind::Script.is_ad_related());
        assert!(SiteCategory::Sensitive(SensitiveCategory::Health).is_sensitive());
        assert!(!SiteCategory::Popular.is_sensitive());
    }

    /// The world's memory bound rests on this layout: a resource is its
    /// URL plus 8 bytes, and a site keeps one URL.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn world_urls_are_compact() {
        assert_eq!(std::mem::size_of::<Url>(), 48);
        assert!(std::mem::size_of::<ResourceSpec>() <= 56);
    }
}
