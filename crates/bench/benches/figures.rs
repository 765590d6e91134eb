//! One benchmark per paper artefact: each target regenerates the
//! corresponding table or figure end-to-end (crawl → capture → analysis)
//! at a reduced-but-representative scale, so `cargo bench` both times
//! the pipeline and re-validates every result's shape.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use panoptes::campaign::{run_crawl, CampaignResult};
use panoptes::config::CampaignConfig;
use panoptes::idle::run_idle;
use panoptes_analysis::engine::{analyze_crawl, analyze_idle, AnalysisResources};
use panoptes_browsers::registry::{all_profiles, profile_by_name};
use panoptes_simnet::clock::SimDuration;
use panoptes_web::generator::GeneratorConfig;
use panoptes_web::World;

fn bench_world() -> World {
    World::build(&GeneratorConfig { popular: 12, sensitive: 8, ..Default::default() })
}

/// Crawls all 15 browsers once; reused by the analysis bench.
fn crawl_everyone(world: &World) -> Vec<CampaignResult> {
    let config = CampaignConfig::default();
    all_profiles()
        .iter()
        .map(|p| run_crawl(world, p, &world.sites, &config))
        .collect()
}

fn table1_registry(c: &mut Criterion) {
    c.bench_function("table1_registry", |b| {
        b.iter(|| {
            let profiles = all_profiles();
            assert_eq!(profiles.len(), 15);
            profiles
        })
    });
}

fn fig2_native_ratio(c: &mut Criterion) {
    let world = bench_world();
    let config = CampaignConfig::default();
    let res = AnalysisResources::standard();
    c.bench_function("fig2_native_ratio", |b| {
        b.iter(|| {
            let yandex = run_crawl(
                &world,
                &profile_by_name("Yandex").unwrap(),
                &world.sites,
                &config,
            );
            let row = analyze_crawl(&yandex, &res).volume;
            assert!(row.request_ratio > 0.25);
            row
        })
    });
}

fn fig3_ad_domains(c: &mut Criterion) {
    let world = bench_world();
    let config = CampaignConfig::default();
    let res = AnalysisResources::standard();
    let kiwi = run_crawl(&world, &profile_by_name("Kiwi").unwrap(), &world.sites, &config);
    c.bench_function("fig3_ad_domains", |b| {
        b.iter(|| {
            let row = analyze_crawl(&kiwi, &res).addomains;
            assert!(row.ad_percent > 30.0);
            row
        })
    });
}

fn fig4_volume(c: &mut Criterion) {
    let world = bench_world();
    let config = CampaignConfig::default();
    let res = AnalysisResources::standard();
    let qq = run_crawl(&world, &profile_by_name("QQ").unwrap(), &world.sites, &config);
    c.bench_function("fig4_volume", |b| {
        b.iter(|| {
            let row = analyze_crawl(&qq, &res).volume;
            assert!(row.volume_ratio > 0.3);
            row
        })
    });
}

/// Every crawl detector at once — Table 2, the §3.2 leak, DoH,
/// incognito and sensitive checks, §3.4 transfers — as the one fused
/// pass per campaign captured in advance. Their shape assertions run in
/// tier-1 as `tests/paper_findings.rs`.
fn sec3_analyze_crawl(c: &mut Criterion) {
    let world = bench_world();
    let results = crawl_everyone(&world);
    let res = AnalysisResources::standard();
    c.bench_function("sec3_analyze_crawl", |b| {
        b.iter(|| {
            let analyses: Vec<_> = results.iter().map(|r| analyze_crawl(r, &res)).collect();
            assert_eq!(analyses.len(), 15);
            analyses
        })
    });
}

fn fig5_idle(c: &mut Criterion) {
    let world = bench_world();
    let config = CampaignConfig::default();
    c.bench_function("fig5_idle", |b| {
        b.iter(|| {
            let opera = run_idle(
                &world,
                &profile_by_name("Opera").unwrap(),
                SimDuration::from_secs(600),
                &config,
            );
            let analysis = analyze_idle(&opera);
            let tl = analysis.timeline(SimDuration::from_secs(10));
            assert!(tl.total() > 50);
            let shares = analysis.destination_shares();
            assert!(!shares.is_empty());
            (tl, shares)
        })
    });
}

fn full_campaign_crawl(c: &mut Criterion) {
    let world = bench_world();
    let config = CampaignConfig::default();
    let profile = profile_by_name("Edge").unwrap();
    c.bench_function("full_campaign_crawl_20_sites", |b| {
        b.iter_batched(
            || (),
            |_| run_crawl(&world, &profile, &world.sites, &config),
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets =
        table1_registry,
        fig2_native_ratio,
        fig3_ad_domains,
        fig4_volume,
        sec3_analyze_crawl,
        fig5_idle,
        full_campaign_crawl,
}
criterion_main!(figures);
