//! World assembly: generate the site population, allocate every host an
//! address from its country's block, and install hosts + servers on a
//! [`Network`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use panoptes_http::hash::{fnv1a, FastMap};
use panoptes_http::netaddr::{Cidr, IpAddr};
use panoptes_http::Atom;
use panoptes_simnet::{Network, RouteTable};

use crate::generator::{generate, GeneratorConfig};
use crate::origin::{Directory, OriginServer};
use crate::site::SiteSpec;
use crate::thirdparty::{AD_NETWORKS, CDNS, TRACKERS};
use crate::vendors::all_endpoints;

/// Countries generic web content is hosted in (the crawl runs from an
/// EU vantage point; most of the web it reaches is EU/US-hosted).
const SITE_HOSTING: &[&str] = &["US", "DE", "NL", "IE", "GR"];

/// The assembled simulated Web.
pub struct World {
    /// The crawl population in rank order (popular then sensitive).
    pub sites: Vec<SiteSpec>,
    /// Every host's address, keyed by the host atom the route table
    /// shares (a site's landing host is the one in its `SiteSpec`).
    host_ips: BTreeMap<Atom, IpAddr>,
    /// Prebuilt host/endpoint routing, shared by every network this
    /// world is installed on.
    routes: Arc<RouteTable>,
}

/// Site-plan cache: one built [`World`] per (seed, popular, sensitive,
/// tail) generator configuration, shared immutably by every browser
/// session and fleet worker of a study. Generation is deterministic in
/// the config, so sharing is transparent; the handful of configurations
/// a process ever uses makes this a bounded cache, not a leak.
type PlanCache = Mutex<FastMap<(u64, u32, u32, u32), Arc<World>>>;

fn plan_cache() -> &'static PlanCache {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(Mutex::default)
}

impl World {
    /// Builds the world for the given generator configuration.
    pub fn build(config: &GeneratorConfig) -> World {
        let sites = generate(config);
        let directory = Directory::from_sites(&sites);
        let origin = Arc::new(OriginServer::new(directory));

        let mut allocator = Allocator::new();
        let mut host_ips = BTreeMap::new();

        // Vendor endpoints pin their country (that is the §3.4 finding).
        for ep in all_endpoints() {
            host_ips.insert(Atom::intern(ep.host), allocator.allocate(ep.country));
        }
        // Ad networks / trackers / shared CDNs are US-hosted.
        for host in AD_NETWORKS.iter().chain(TRACKERS).chain(CDNS) {
            host_ips.entry(Atom::intern(host)).or_insert_with(|| allocator.allocate("US"));
        }
        // Site hosts hash across the generic hosting countries. A host is
        // interned once, on first sight; the landing host is the site's
        // own atom.
        for site in &sites {
            let country = SITE_HOSTING[(fnv1a(&site.domain) % SITE_HOSTING.len() as u64) as usize];
            for host in site_hosts(site) {
                if !host_ips.contains_key(host) {
                    let atom =
                        if site.host == host { site.host.clone() } else { Atom::intern(host) };
                    host_ips.insert(atom, allocator.allocate(country));
                }
            }
        }

        let mut routes = RouteTable::new();
        for (host, ip) in &host_ips {
            routes.add_host(host.clone(), *ip);
            routes.add_endpoint(*ip, origin.clone());
        }

        World { sites, host_ips, routes: Arc::new(routes) }
    }

    /// The cached, shared world for `config`: built on first request,
    /// then returned as the same `Arc` for every later caller (browser
    /// sessions, fleet workers, benches). Use this instead of
    /// [`World::build`] whenever the world is read-only.
    pub fn shared(config: &GeneratorConfig) -> Arc<World> {
        let key = (config.seed, config.popular, config.sensitive, config.tail);
        let mut cache = plan_cache().lock().expect("plan cache poisoned");
        cache.entry(key).or_insert_with(|| Arc::new(World::build(config))).clone()
    }

    /// Registers every host and server endpoint on `net` — a single
    /// `Arc` install of the prebuilt route table, not O(hosts) map
    /// inserts.
    pub fn install(&self, net: &Network) {
        net.install_routes(self.routes.clone());
    }

    /// Address of `host`, if it exists in this world.
    pub fn ip_of(&self, host: &str) -> Option<IpAddr> {
        self.host_ips.get(host).copied()
    }

    /// Number of distinct hosts in the world.
    pub fn host_count(&self) -> usize {
        self.host_ips.len()
    }

    /// Iterates `(host, ip)` pairs.
    pub fn hosts(&self) -> impl Iterator<Item = (&str, IpAddr)> {
        self.host_ips.iter().map(|(h, ip)| (h.as_str(), *ip))
    }
}

/// Every hostname a site's page load can touch that belongs to the site
/// itself, sorted.
fn site_hosts(site: &SiteSpec) -> Vec<&str> {
    let mut hosts = vec![site.host.as_str(), site.url.host()];
    for r in &site.page.resources {
        let host = r.url.host();
        if host.ends_with(&site.domain) {
            hosts.push(host);
        }
    }
    hosts.sort_unstable();
    hosts.dedup();
    hosts
}

/// Allocates sequential host addresses within each country's plan block.
struct Allocator {
    counters: FastMap<&'static str, u32>,
    blocks: FastMap<&'static str, Cidr>,
}

impl Allocator {
    fn new() -> Allocator {
        let mut blocks = FastMap::default();
        for (block, country) in panoptes_geo::db::ADDRESS_PLAN {
            // First plan block per country wins (one hosting range each).
            blocks.entry(*country).or_insert_with(|| Cidr::parse(block).expect("plan"));
        }
        Allocator { counters: FastMap::default(), blocks }
    }

    fn allocate(&mut self, country: &'static str) -> IpAddr {
        let block = *self
            .blocks
            .get(country)
            .unwrap_or_else(|| panic!("no plan block for {country}"));
        let counter = self.counters.entry(country).or_insert(10);
        *counter += 1;
        block.host(*counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panoptes_geo::{Country, GeoDb};

    fn small_world() -> World {
        World::build(&GeneratorConfig { popular: 10, sensitive: 8, ..Default::default() })
    }

    #[test]
    fn vendor_hosts_land_in_their_country() {
        let world = small_world();
        let geo = GeoDb::standard();
        let cases = [
            ("sba.yandex.net", "RU"),
            ("wup.browser.qq.com", "CN"),
            ("collect.ucweb.com", "CA"),
            ("sitecheck2.opera.com", "NO"),
            ("app.adjust.com", "DE"),
            ("graph.facebook.com", "US"),
        ];
        for (host, country) in cases {
            let ip = world.ip_of(host).unwrap_or_else(|| panic!("{host} missing"));
            assert_eq!(geo.country_of(ip), Some(Country::new(country)), "{host}");
        }
    }

    #[test]
    fn site_hosts_resolve_and_are_distinct() {
        let world = small_world();
        let site = &world.sites[0];
        let ip = world.ip_of(&site.host).expect("landing host allocated");
        let geo = GeoDb::standard();
        assert!(geo.country_of(ip).is_some());
        // Distinct hosts get distinct addresses.
        let mut ips: Vec<IpAddr> = world.hosts().map(|(_, ip)| ip).collect();
        let n = ips.len();
        ips.sort_unstable();
        ips.dedup();
        assert_eq!(ips.len(), n, "address collision");
    }

    #[test]
    fn install_registers_everything() {
        use panoptes_simnet::tls::{CaId, CertificateAuthority};
        let world = small_world();
        let net = Network::new(
            CertificateAuthority::new(CaId::public_web_pki()),
            IpAddr::new(192, 168, 1, 50),
        );
        world.install(&net);
        for (host, ip) in world.hosts() {
            assert_eq!(net.resolve_silent(host), Some(ip));
        }
    }

    #[test]
    fn shared_worlds_are_cached_per_config() {
        let config = GeneratorConfig { popular: 7, sensitive: 3, ..Default::default() };
        let a = World::shared(&config);
        let b = World::shared(&config);
        assert!(Arc::ptr_eq(&a, &b), "same config reuses the cached world");
        let other = World::shared(&GeneratorConfig { popular: 7, sensitive: 4, ..Default::default() });
        assert!(!Arc::ptr_eq(&a, &other), "different config builds a different world");
        // The cached world equals a cold build.
        let cold = World::build(&config);
        assert_eq!(a.sites, cold.sites);
        assert_eq!(a.hosts().collect::<Vec<_>>(), cold.hosts().collect::<Vec<_>>());
    }

    #[test]
    fn world_is_deterministic() {
        let a = small_world();
        let b = small_world();
        assert_eq!(a.sites, b.sites);
        let a_ips: Vec<_> = a.hosts().collect();
        let b_ips: Vec<_> = b.hosts().collect();
        assert_eq!(a_ips, b_ips);
    }

    #[test]
    fn cdn_subdomains_belong_to_site() {
        let world = small_world();
        for site in &world.sites {
            for r in &site.page.resources {
                let host = r.url.host();
                if host.ends_with(&site.domain) {
                    assert!(world.ip_of(host).is_some(), "{host} unallocated");
                }
            }
        }
    }
}
