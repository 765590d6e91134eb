//! The study's scale, and the raw-capture drivers for callers that
//! analyse captures themselves. The whole study — capture, analysis and
//! rendering — runs through [`Study`](crate::study::Study).

use std::sync::Arc;

use panoptes::campaign::CampaignResult;
use panoptes::config::CampaignConfig;
use panoptes::fleet::{self, FleetError, FleetOptions, UnitOutput};
use panoptes::idle::IdleResult;
use panoptes_browsers::registry::population;
use panoptes_simnet::clock::SimDuration;
use panoptes_web::generator::GeneratorConfig;
use panoptes_web::World;

/// Scale of a reproduction run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Popular (Tranco-like) sites.
    pub popular: u32,
    /// Sensitive (Curlie-like) sites.
    pub sensitive: u32,
    /// Deep-tail sites appended after the head set (`--sites N` beyond
    /// `popular + sensitive`); 0 is the paper's exact web.
    pub tail: u32,
    /// Idle-window length.
    pub idle: SimDuration,
    /// Campaign seed.
    pub seed: u64,
}

impl Scale {
    /// The paper's full workload: 500 + 500 sites, 10-minute idle.
    pub fn paper() -> Scale {
        Scale {
            popular: 500,
            sensitive: 500,
            tail: 0,
            idle: SimDuration::from_secs(600),
            seed: CampaignConfig::default().seed,
        }
    }

    /// A reduced workload for quick runs and benches.
    pub fn quick() -> Scale {
        Scale {
            popular: 30,
            sensitive: 20,
            tail: 0,
            idle: SimDuration::from_secs(600),
            seed: CampaignConfig::default().seed,
        }
    }

    /// Sets the total site count: `n` beyond `popular + sensitive`
    /// becomes deep tail (`--sites N`); `n` at or below the head leaves
    /// the scale untouched, so `--sites 1000` at paper scale is exact.
    pub fn with_sites(mut self, n: u32) -> Scale {
        self.tail = n.saturating_sub(self.popular.saturating_add(self.sensitive));
        self
    }

    /// The total site count, `popular + sensitive + tail`, summed in
    /// `u64`, which no three `u32` counts overflow.
    pub fn sites(&self) -> u64 {
        u64::from(self.popular) + u64::from(self.sensitive) + u64::from(self.tail)
    }

    /// The (cached, shared) world for this scale: the plan cache builds
    /// it once per configuration and every caller reuses the same
    /// immutable instance.
    pub fn world(&self) -> Arc<World> {
        World::shared(&GeneratorConfig {
            seed: self.seed,
            popular: self.popular,
            sensitive: self.sensitive,
            tail: self.tail,
        })
    }

    /// The campaign configuration for this scale.
    pub fn config(&self) -> CampaignConfig {
        CampaignConfig { seed: self.seed, ..Default::default() }
    }
}

/// Crawls every browser of an `n`-browser population — the paper's 15
/// pinned browsers first, then variants sampled from the scale's seed —
/// across the fleet worker pool, results in population order.
pub fn crawl_population_jobs(
    scale: &Scale,
    options: &FleetOptions,
    n: usize,
) -> Result<(Arc<World>, Vec<CampaignResult>), FleetError<UnitOutput>> {
    let world = scale.world();
    let profiles = population(scale.seed, n);
    let results =
        fleet::run_crawl_jobs_with(&world, &world.sites, &scale.config(), options, &profiles)?;
    Ok((world, results))
}

/// Runs the idle experiment for every browser of an `n`-browser
/// population across the fleet worker pool.
pub fn idle_population_jobs(
    scale: &Scale,
    options: &FleetOptions,
    n: usize,
) -> Result<Vec<IdleResult>, FleetError<UnitOutput>> {
    let world = scale.world();
    let profiles = population(scale.seed, n);
    fleet::run_idle_jobs_with(&world, scale.idle, &scale.config(), options, &profiles)
}
