//! Consistency between the browser models and the simulated world: every
//! endpoint a profile can ever contact must exist (DNS + server), or the
//! measurement would silently undercount native traffic.

use std::collections::BTreeSet;

use panoptes_suite::browsers::registry::all_profiles;
use panoptes_suite::geo::GeoDb;
use panoptes_suite::web::generator::GeneratorConfig;
use panoptes_suite::web::World;

/// Every host a profile's catalogues reference.
fn profile_hosts() -> BTreeSet<String> {
    let mut hosts = BTreeSet::new();
    for p in all_profiles() {
        for call in p.startup.iter().chain(p.per_visit.iter()) {
            hosts.insert(call.host.to_string());
        }
        for call in p.idle.burst {
            hosts.insert(call.host.to_string());
        }
        for (_, call) in p.idle.periodic {
            hosts.insert(call.host.to_string());
        }
        if let Some(collector) = p.injects_js_collector {
            hosts.insert(collector.to_string());
        }
        match p.resolver {
            panoptes_suite::simnet::dns::ResolverKind::Doh(provider) => {
                hosts.insert(provider.host().to_string());
            }
            panoptes_suite::simnet::dns::ResolverKind::LocalStub => {}
        }
    }
    hosts
}

#[test]
fn every_profile_host_is_allocated_in_the_world() {
    let world = World::build(&GeneratorConfig { popular: 2, sensitive: 2, ..Default::default() });
    for host in profile_hosts() {
        assert!(world.ip_of(&host).is_some(), "{host} referenced by a profile but unallocated");
    }
}

#[test]
fn every_profile_host_geolocates() {
    let world = World::build(&GeneratorConfig { popular: 2, sensitive: 2, ..Default::default() });
    let geo = GeoDb::standard();
    for host in profile_hosts() {
        let ip = world.ip_of(&host).unwrap();
        assert!(geo.country_of(ip).is_some(), "{host} ({ip}) outside the geo plan");
    }
}

#[test]
fn every_site_resource_host_is_allocated() {
    let world = World::build(&GeneratorConfig { popular: 30, sensitive: 20, ..Default::default() });
    for site in &world.sites {
        assert!(world.ip_of(&site.host).is_some(), "{} landing host", site.domain);
        for r in &site.page.resources {
            assert!(
                world.ip_of(r.url.host()).is_some(),
                "{} references unallocated {}",
                site.domain,
                r.url.host()
            );
        }
    }
}

#[test]
fn pinned_domains_cover_real_hosts() {
    // A pin on a domain nothing contacts would silently test nothing.
    let world = World::build(&GeneratorConfig { popular: 2, sensitive: 2, ..Default::default() });
    for p in all_profiles() {
        for pinned in p.pinned_domains {
            let covered = profile_hosts().iter().any(|h| {
                panoptes_suite::http::url::registrable_domain(h) == *pinned
            });
            assert!(covered, "{}: pin on {pinned} covers no catalogued host", p.name);
            // The pinned registrable domain itself need not resolve, but
            // at least one covered host must.
            let resolvable = profile_hosts()
                .iter()
                .filter(|h| panoptes_suite::http::url::registrable_domain(h) == *pinned)
                .any(|h| world.ip_of(h).is_some());
            assert!(resolvable, "{}: pinned hosts unresolvable", p.name);
        }
    }
}
