//! Property-based tests for the site generator and the plan cache.

use std::sync::Arc;

use proptest::prelude::*;

use panoptes_http::url::Url;
use panoptes_web::generator::GeneratorConfig;
use panoptes_web::World;

/// Every URL of a built world: each site's entry URL, then its
/// subresource URLs, in rank order.
fn urls(world: &World) -> impl Iterator<Item = &Url> {
    world.sites.iter().flat_map(|site| {
        std::iter::once(&site.url).chain(site.page.resources.iter().map(|r| &r.url))
    })
}

/// Deterministic fingerprint of a built world: every URL's text, and the
/// full host→IP table.
fn fingerprint(world: &World) -> (Vec<String>, Vec<(String, String)>) {
    let urls = urls(world).map(|u| u.as_str().to_owned()).collect();
    let hosts = world.hosts().map(|(h, ip)| (h.to_string(), ip.to_string())).collect();
    (urls, hosts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The generator is a pure function of its configuration: two cold
    /// builds from the same seed produce the identical world.
    #[test]
    fn build_is_deterministic(seed in 0u64..1000, popular in 1u32..12, sensitive in 0u32..8, tail in 0u32..6) {
        let config = GeneratorConfig { seed, popular, sensitive, tail };
        prop_assert_eq!(fingerprint(&World::build(&config)), fingerprint(&World::build(&config)));
    }

    /// The generator writes each URL's canonical text without parsing
    /// it, so every world URL must be a fixed point of `Url::parse`: the
    /// tracker paths' `%3A%2F` escapes included, parsing its text gives
    /// back the same URL.
    #[test]
    fn world_urls_are_canonical(seed in 0u64..1000, popular in 1u32..12, sensitive in 0u32..8, tail in 0u32..6) {
        let world = World::build(&GeneratorConfig { seed, popular, sensitive, tail });
        for url in urls(&world) {
            prop_assert_eq!(&Url::parse(url.as_str()).unwrap(), url);
        }
    }

    /// The plan cache is transparent: the warm shared world is
    /// indistinguishable from a cold build, and repeat lookups hand back
    /// the same shared plan instead of regenerating.
    #[test]
    fn plan_cache_matches_cold_build(seed in 0u64..1000, popular in 1u32..12, sensitive in 0u32..8, tail in 0u32..6) {
        let config = GeneratorConfig { seed, popular, sensitive, tail };
        let cold = World::build(&config);
        let warm = World::shared(&config);
        prop_assert_eq!(fingerprint(&cold), fingerprint(&warm));
        prop_assert!(Arc::ptr_eq(&warm, &World::shared(&config)));
    }
}
