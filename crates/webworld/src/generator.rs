//! The seeded site-population generator.
//!
//! Replaces the paper's crawl list — "the top 500 most popular websites
//! based on the Tranco list" plus "500 websites associated with sensitive
//! information based on the Curlie directory" (§3) — with a deterministic
//! synthetic population of the same shape: a handful of globally
//! recognizable head sites, a long tail of themed filler sites, and four
//! sensitive categories (society / religion / sexuality / health) with
//! topical landing paths so that *full-URL* leaks reveal strictly more
//! than *hostname* leaks, the distinction §4 of the paper emphasizes.

use std::fmt::{self, Write as _};

use panoptes_http::hash::fnv1a;
use panoptes_http::url::Url;
use panoptes_http::Atom;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::site::{
    PageSpec, ResourceKind, ResourceSpec, SensitiveCategory, SiteCategory, SiteSpec,
};
use crate::thirdparty::{AD_NETWORKS, CDNS, TRACKERS};

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct GeneratorConfig {
    /// Master seed; the same seed reproduces the identical web.
    pub seed: u64,
    /// Number of popularity-ranked sites (paper: 500).
    pub popular: u32,
    /// Number of sensitive-directory sites (paper: 500).
    pub sensitive: u32,
    /// Number of deep-tail sites appended after the head set (Tranco-100k
    /// scaling; 0 reproduces the paper's 1,000-site web exactly).
    ///
    /// Prefix-stability contract: for any `tail`, the first
    /// `popular + sensitive` generated sites are byte-identical to a
    /// `tail: 0` run — the tail only ever *appends*.
    pub tail: u32,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig { seed: 0x50_41_4e_4f, popular: 500, sensitive: 500, tail: 0 }
    }
}

/// Recognizable head-of-ranking domains (stand-ins for Tranco's top).
const HEAD_SITES: &[&str] = &[
    "youtube.com",
    "wikipedia.org",
    "reddit.com",
    "amazon.com",
    "netflix.com",
    "twitch.tv",
    "nytimes.com",
    "bbc.co.uk",
    "stackoverflow.com",
    "github.com",
    "imdb.com",
    "spotify.com",
    "ebay.com",
    "cnn.com",
    "weather.com",
    "espn.com",
    "booking.com",
    "yelp.com",
    "etsy.com",
    "quora.com",
];

const THEMES: &[&str] =
    &["news", "shop", "video", "sports", "games", "weather", "travel", "music", "tech", "food"];
const TLDS: &[&str] = &["com", "net", "org", "io"];

const SOCIETY_TOPICS: &[&str] =
    &["war-crimes-tribunal", "conflict-refugees", "protest-rights", "conscription-debate"];
const RELIGION_TOPICS: &[&str] =
    &["conversion-stories", "interfaith-marriage", "leaving-the-faith", "scripture-study"];
const SEXUALITY_TOPICS: &[&str] =
    &["coming-out-support", "lgbtq-rights", "gender-identity", "relationship-advice"];
const HEALTH_TOPICS: &[&str] =
    &["depression-support", "hiv-treatment", "addiction-recovery", "anxiety-therapy"];

/// Generates the crawl population: `popular` ranked sites, then
/// `sensitive` directory sites, then the deep tail. The head set
/// (`popular + sensitive`) is byte-identical for every `tail` value —
/// the prefix-stability contract `repro_output.md` depends on.
pub fn generate(config: &GeneratorConfig) -> Vec<SiteSpec> {
    let mut sites =
        Vec::with_capacity((config.popular + config.sensitive + config.tail) as usize);
    let mut writer = UrlWriter::default();
    for rank in 1..=config.popular {
        sites.push(popular_site(config.seed, rank, &mut writer));
    }
    for index in 1..=config.sensitive {
        sites.push(sensitive_site(config.seed, index, &mut writer));
    }
    let head = config.popular + config.sensitive;
    for index in 1..=config.tail {
        sites.push(tail_site(config.seed, head, index, &mut writer));
    }
    sites
}

/// Writes the world's landing hosts and URL targets through one reused
/// buffer. A URL is then one allocation of exact size
/// ([`Url::https_at`]) and a host one intern, with no formatted
/// intermediate and no parse.
#[derive(Default)]
struct UrlWriter {
    scratch: String,
}

impl UrlWriter {
    fn write(&mut self, text: fmt::Arguments<'_>) -> &str {
        self.scratch.clear();
        self.scratch.write_fmt(text).expect("writing to a String cannot fail");
        &self.scratch
    }

    /// Interns the host that `host` formats.
    fn host(&mut self, host: fmt::Arguments<'_>) -> Atom {
        Atom::intern(self.write(host))
    }

    /// The `https` URL of `host` at the canonical path and query that
    /// `target` formats.
    fn https(&mut self, host: &str, target: fmt::Arguments<'_>) -> Url {
        Url::https_at(host, self.write(target))
    }
}

fn site_rng(seed: u64, domain: &str) -> StdRng {
    StdRng::seed_from_u64(seed ^ fnv1a(domain))
}

fn popular_site(seed: u64, rank: u32, writer: &mut UrlWriter) -> SiteSpec {
    let domain = if (rank as usize) <= HEAD_SITES.len() {
        HEAD_SITES[rank as usize - 1].to_string()
    } else {
        let theme = THEMES[(rank as usize) % THEMES.len()];
        let tld = TLDS[(rank as usize / THEMES.len()) % TLDS.len()];
        format!("{theme}{rank:03}.{tld}")
    };
    let host = writer.host(format_args!("www.{domain}"));
    let mut rng = site_rng(seed, &domain);

    // Head sites are heavier; the tail thins out (Zipf-flavoured).
    let weight = 1.0 / (1.0 + (rank as f64).ln());
    let n_static = 6 + (rng.gen_range(8..26) as f64 * (0.6 + weight)) as u32;
    let n_ads = rng.gen_range(3..=10);
    let n_trackers = rng.gen_range(1..=4);
    let page = build_page(&mut rng, writer, &domain, &host, n_static, n_ads, n_trackers, rank);

    // Most real top sites answer on the apex with a redirect to www;
    // every 9th site models that dance so the engine's redirect-following
    // is exercised at scale.
    let apex_redirect = rank.is_multiple_of(9);
    let url = Url::https_at(if apex_redirect { &domain } else { &host }, "/");
    SiteSpec {
        rank,
        domain,
        host,
        url,
        category: SiteCategory::Popular,
        page,
        apex_redirect,
        tail: false,
    }
}

/// SplitMix64 finalizer: the tail generator's whole entropy source.
/// Cheaper than seeding a `StdRng` per site and — unlike `StdRng` — a
/// pure function the origin server can re-derive at request time, so a
/// 100k-site world needs no per-resource state.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The `stream`-th draw for a tail site, in `lo..hi`.
fn tail_draw(site_key: u64, stream: u64, lo: u32, hi: u32) -> u32 {
    lo + (mix(site_key ^ stream.wrapping_mul(0x2545_f491_4f6c_dd1d)) % (hi - lo) as u64) as u32
}

/// One deep-tail site: a light, self-hosted page (`www.` host only — no
/// per-site CDN subdomains, which would double the world's host count)
/// whose static resources carry their byte size in the path
/// (`/s/{size}/...`), letting the origin answer them formulaically.
/// Third-party ads/trackers still come from the shared networks so
/// blocklist and tracking analyses see realistic tail traffic.
fn tail_site(seed: u64, head: u32, index: u32, writer: &mut UrlWriter) -> SiteSpec {
    let rank = head + index;
    let theme = THEMES[(index as usize) % THEMES.len()];
    let tld = TLDS[(index as usize / THEMES.len()) % TLDS.len()];
    // 6-digit slot keeps tail domains disjoint from the 3-digit head
    // naming (`news042.com` vs `news100042.com`) for any head < 100_000.
    let domain = format!("{theme}{}.{tld}", 100_000 + index);
    let host = writer.host(format_args!("www.{domain}"));
    let key = seed ^ fnv1a(&domain);

    // Zipf-flavoured thinning: deeper ranks carry fewer resources.
    let depth = 1 + (64 - (rank as u64).leading_zeros()) / 4; // ~1..9
    let n_static = 3 + tail_draw(key, 1, 0, 5).saturating_sub(depth.min(2)); // 3..=7
    let n_ads = tail_draw(key, 2, 0, 4);
    let n_trackers = tail_draw(key, 3, 0, 3);
    let document_size = tail_draw(key, 4, 8_000, 48_000);

    let mut resources = Vec::with_capacity((n_static + n_ads + n_trackers) as usize);
    for i in 0..n_static {
        let size = tail_draw(key, 16 + i as u64, 500, 60_000);
        let (kind, url) = match i % 4 {
            0 => (ResourceKind::Script, writer.https(&host, format_args!("/s/{size}/app{i}.js"))),
            1 => (ResourceKind::Style, writer.https(&host, format_args!("/s/{size}/style{i}.css"))),
            2 => (ResourceKind::Image, writer.https(&host, format_args!("/s/{size}/media{i}.jpg"))),
            _ => (ResourceKind::Xhr, writer.https(&host, format_args!("/s/{size}/feed{i}"))),
        };
        resources.push(ResourceSpec { url, size, kind });
    }
    for i in 0..n_ads {
        let network = AD_NETWORKS[tail_draw(key, 64 + i as u64, 0, AD_NETWORKS.len() as u32) as usize];
        resources.push(ResourceSpec {
            url: writer.https(network, format_args!("/bid?slot={i}&site={domain}")),
            size: tail_draw(key, 96 + i as u64, 800, 6_000),
            kind: ResourceKind::Ad,
        });
    }
    for i in 0..n_trackers {
        let tracker = TRACKERS[tail_draw(key, 128 + i as u64, 0, TRACKERS.len() as u32) as usize];
        resources.push(ResourceSpec {
            url: writer
                .https(tracker, format_args!("/collect?v=1&cid={i}&dl=https%3A%2F%2F{host}%2F")),
            size: tail_draw(key, 160 + i as u64, 35, 600),
            kind: ResourceKind::Tracker,
        });
    }

    let dom_content_loaded_ms =
        if rank.is_multiple_of(167) { 70_000 } else { tail_draw(key, 5, 300, 2_500) };

    SiteSpec {
        rank,
        domain,
        url: Url::https_at(&host, "/"),
        host,
        category: SiteCategory::Popular,
        page: PageSpec { document_size, resources, dom_content_loaded_ms },
        apex_redirect: false,
        tail: true,
    }
}

fn sensitive_site(seed: u64, index: u32, writer: &mut UrlWriter) -> SiteSpec {
    let category = SensitiveCategory::ALL[(index as usize - 1) % 4];
    let (label, topics) = match category {
        SensitiveCategory::Society => ("society-watch", SOCIETY_TOPICS),
        SensitiveCategory::Religion => ("faith-community", RELIGION_TOPICS),
        SensitiveCategory::Sexuality => ("identity-forum", SEXUALITY_TOPICS),
        SensitiveCategory::Health => ("health-support", HEALTH_TOPICS),
    };
    let domain = format!("{label}{index:03}.org");
    let host = writer.host(format_args!("www.{domain}"));
    let mut rng = site_rng(seed, &domain);
    let topic = topics[rng.gen_range(0..topics.len())];
    let url = writer.https(&host, format_args!("/{}/{}", category.as_str(), topic));

    // Sensitive community sites are lighter and carry fewer ads.
    let n_static = rng.gen_range(5..16);
    let n_ads = rng.gen_range(0..=3);
    let n_trackers = rng.gen_range(0..=2);
    let page =
        build_page(&mut rng, writer, &domain, &host, n_static, n_ads, n_trackers, 500 + index);

    SiteSpec {
        rank: index,
        domain,
        host,
        url,
        category: SiteCategory::Sensitive(category),
        page,
        apex_redirect: false,
        tail: false,
    }
}

#[allow(clippy::too_many_arguments)]
fn build_page(
    rng: &mut StdRng,
    writer: &mut UrlWriter,
    domain: &str,
    host: &str,
    n_static: u32,
    n_ads: u32,
    n_trackers: u32,
    rank: u32,
) -> PageSpec {
    let document_size = rng.gen_range(20_000..150_000);
    let mut resources = Vec::new();
    let cdn = format!("cdn.{domain}");
    let statics = format!("static.{domain}");

    for i in 0..n_static {
        // Static assets split between the site host, its CDN subdomain
        // and shared CDNs.
        let res_host = match i % 5 {
            0 | 1 => host,
            2 => &cdn,
            3 => &statics,
            _ => CDNS[(i as usize) % CDNS.len()],
        };
        let (kind, url, size) = match i % 4 {
            0 => (
                ResourceKind::Script,
                writer.https(res_host, format_args!("/assets/app{i}.js")),
                rng.gen_range(4_000..80_000),
            ),
            1 => (
                ResourceKind::Style,
                writer.https(res_host, format_args!("/assets/style{i}.css")),
                rng.gen_range(1_000..30_000),
            ),
            2 => (
                ResourceKind::Image,
                writer.https(res_host, format_args!("/img/media{i}.jpg")),
                rng.gen_range(5_000..120_000),
            ),
            _ => (
                ResourceKind::Xhr,
                writer.https(res_host, format_args!("/api/feed?page={i}")),
                rng.gen_range(500..8_000),
            ),
        };
        resources.push(ResourceSpec { url, size, kind });
    }

    for i in 0..n_ads {
        let network = AD_NETWORKS[rng.gen_range(0..AD_NETWORKS.len())];
        resources.push(ResourceSpec {
            url: writer.https(network, format_args!("/bid?slot={i}&site={domain}")),
            size: rng.gen_range(800..6_000),
            kind: ResourceKind::Ad,
        });
    }

    for i in 0..n_trackers {
        let tracker = TRACKERS[rng.gen_range(0..TRACKERS.len())];
        resources.push(ResourceSpec {
            url: writer
                .https(tracker, format_args!("/collect?v=1&cid={i}&dl=https%3A%2F%2F{host}%2F")),
            size: rng.gen_range(35..600),
            kind: ResourceKind::Tracker,
        });
    }

    // A sprinkle of slow sites exercises the crawler's 60-second budget
    // (§2.1): every 167th site never fires DOMContentLoaded in time.
    let dom_content_loaded_ms =
        if rank.is_multiple_of(167) { 70_000 } else { rng.gen_range(300..2_500) };

    PageSpec { document_size, resources, dom_content_loaded_ms }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_size_and_split() {
        let sites = generate(&GeneratorConfig::default());
        assert_eq!(sites.len(), 1000);
        assert_eq!(sites.iter().filter(|s| !s.category.is_sensitive()).count(), 500);
        assert_eq!(sites.iter().filter(|s| s.category.is_sensitive()).count(), 500);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&GeneratorConfig::default());
        let b = generate(&GeneratorConfig::default());
        assert_eq!(a, b);
        let c = generate(&GeneratorConfig { seed: 99, ..Default::default() });
        assert_ne!(a, c);
    }

    #[test]
    fn head_sites_are_recognizable() {
        let sites = generate(&GeneratorConfig::default());
        assert_eq!(sites[0].domain, "youtube.com");
        assert_eq!(sites[0].host, "www.youtube.com");
        assert_eq!(sites[0].rank, 1);
    }

    #[test]
    fn domains_are_unique() {
        let sites = generate(&GeneratorConfig::default());
        let mut domains: Vec<&str> = sites.iter().map(|s| s.domain.as_str()).collect();
        domains.sort_unstable();
        let n = domains.len();
        domains.dedup();
        assert_eq!(domains.len(), n);
    }

    #[test]
    fn sensitive_sites_have_topical_paths() {
        let sites = generate(&GeneratorConfig::default());
        let sensitive: Vec<&SiteSpec> =
            sites.iter().filter(|s| s.category.is_sensitive()).collect();
        for s in &sensitive {
            assert!(s.url.path().len() > 1, "{} lacks a topical path", s.domain);
            assert!(s.url.path().starts_with('/'));
        }
        // All four categories present in equal measure.
        for cat in SensitiveCategory::ALL {
            let count = sensitive
                .iter()
                .filter(|s| s.category == SiteCategory::Sensitive(cat))
                .count();
            assert_eq!(count, 125, "{cat:?}");
        }
    }

    #[test]
    fn pages_have_realistic_structure() {
        let sites = generate(&GeneratorConfig::default());
        for s in &sites {
            assert!(s.page.request_count() >= 6, "{} too thin", s.domain);
            assert!(s.page.total_bytes() > 20_000);
        }
        // Popular sites carry ads; a typical page has several.
        let with_ads = sites
            .iter()
            .filter(|s| !s.category.is_sensitive())
            .filter(|s| s.page.resources.iter().any(|r| r.kind == ResourceKind::Ad))
            .count();
        assert!(with_ads == 500, "all popular sites embed ads, got {with_ads}");
    }

    #[test]
    fn tail_appends_without_touching_the_head() {
        let head = generate(&GeneratorConfig::default());
        let grown = generate(&GeneratorConfig { tail: 2_000, ..Default::default() });
        assert_eq!(grown.len(), 3_000);
        // Prefix-stability contract: the paper's 1,000 sites are a
        // byte-identical prefix of every larger world.
        assert_eq!(&grown[..1_000], &head[..]);
        for (i, s) in grown[1_000..].iter().enumerate() {
            assert!(s.tail, "{} not marked tail", s.domain);
            assert_eq!(s.rank, 1_001 + i as u32);
            assert!(!s.category.is_sensitive());
            assert!(!s.apex_redirect);
        }
    }

    #[test]
    fn tail_domains_do_not_collide() {
        let sites = generate(&GeneratorConfig { tail: 5_000, ..Default::default() });
        let mut domains: Vec<&str> = sites.iter().map(|s| s.domain.as_str()).collect();
        domains.sort_unstable();
        let n = domains.len();
        domains.dedup();
        assert_eq!(domains.len(), n);
    }

    #[test]
    fn tail_resources_are_self_hosted_or_shared() {
        let sites = generate(&GeneratorConfig { tail: 300, ..Default::default() });
        for s in sites.iter().filter(|s| s.tail) {
            for r in &s.page.resources {
                let host = r.url.host();
                let own = host == s.host;
                let shared = AD_NETWORKS.contains(&host) || TRACKERS.contains(&host);
                assert!(own || shared, "{} serves from {}", s.domain, host);
                if own {
                    // Size-addressed path: the origin re-derives the
                    // response size from the path alone.
                    let encoded: u32 = r
                        .url
                        .path()
                        .strip_prefix("/s/")
                        .and_then(|rest| rest.split('/').next())
                        .and_then(|n| n.parse().ok())
                        .expect("size-addressed path");
                    assert_eq!(encoded, r.size, "{}", r.url);
                }
            }
            assert!(s.page.request_count() >= 4);
        }
    }

    #[test]
    fn some_sites_are_slow() {
        let sites = generate(&GeneratorConfig::default());
        let slow = sites.iter().filter(|s| s.page.dom_content_loaded_ms > 60_000).count();
        assert!(slow >= 2, "expected slow sites for the timeout path, got {slow}");
    }
}
