//! The paper's study: one plan and one runner.
//!
//! The study is fixed (§3): every browser of the population crawls the
//! web, the §3.2 browsers re-crawl it normal and incognito, and every
//! browser idles for the scale's window (§3.5). [`Study::plan`] lays
//! those campaign units out by phase in document order, and
//! [`Study::run`] captures and analyses the phases a caller selects, one
//! after another, handing each over the moment it is analysed. The study
//! server schedules the same plan on its own pool.

use panoptes::campaign::CampaignResult;
use panoptes::config::CampaignConfig;
use panoptes::fleet::{self, FleetOptions, FleetUnit, UnitOutput};
use panoptes_analysis::engine::{
    analyze_study_jobs, AnalysisResources, CampaignAnalysis, IdleAnalysis,
};
use panoptes_browsers::registry::{population, profile_by_name};
use panoptes_browsers::BrowserProfile;

use crate::experiments::Scale;
use crate::render;

/// The §3.2 browsers, re-crawled normal and incognito.
const INCOGNITO_BROWSERS: [&str; 3] = ["Edge", "Opera", "UC International"];

/// One phase of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Every browser crawls the web (§2.1).
    Crawl,
    /// The §3.2 browsers re-crawl the web, normal then incognito.
    Incognito,
    /// Every browser idles (§3.5).
    Idle,
}

impl Phase {
    /// Every phase, in document order.
    pub const ALL: [Phase; 3] = [Phase::Crawl, Phase::Incognito, Phase::Idle];

    /// The names of the document sections this phase renders, as the
    /// render builders name them.
    pub fn sections(self) -> Vec<&'static str> {
        let empty = match self {
            Phase::Crawl => Analysed::Crawl { results: Vec::new(), analyses: Vec::new() },
            Phase::Incognito => Analysed::Incognito(Vec::new()),
            Phase::Idle => Analysed::Idle(Vec::new()),
        };
        empty.sections().into_iter().map(|(name, _)| name).collect()
    }
}

/// One analysed phase, handed to [`Study::run`]'s caller.
pub enum Analysed {
    /// The population's crawls.
    Crawl {
        /// The raw captures, for exports that need flows (HAR,
        /// Listing 1).
        results: Vec<CampaignResult>,
        /// One analysis per capture, in population order.
        analyses: Vec<CampaignAnalysis>,
    },
    /// One `(normal, incognito)` analysis pair per §3.2 browser.
    Incognito(Vec<(CampaignAnalysis, CampaignAnalysis)>),
    /// One idle analysis per browser, in population order.
    Idle(Vec<IdleAnalysis>),
}

impl Analysed {
    /// This phase's document sections as `(name, bytes)` pairs, in
    /// document order.
    pub fn sections(&self) -> Vec<(&'static str, String)> {
        match self {
            Analysed::Crawl { results, analyses } => render::crawl_sections(results, analyses),
            Analysed::Incognito(pairs) => vec![render::incognito_section(pairs)],
            Analysed::Idle(analyses) => render::idle_sections(analyses),
        }
    }
}

/// What one study computes: its sites, idle window and seed, and the
/// size of its browser population (the paper's 15 pinned browsers
/// first, then sampled variants).
#[derive(Debug, Clone, Copy)]
pub struct Study {
    /// Sites, idle window and seed.
    pub scale: Scale,
    /// Browser population size.
    pub population: usize,
}

impl Study {
    /// Checks the study and an optional single section to print, for
    /// every front end alike.
    pub fn validate(&self, only: Option<&str>) -> Result<(), String> {
        if self.population == 0 {
            return Err("population must be >= 1".to_string());
        }
        match only {
            Some(name) if Study::phases(Some(name)).is_empty() => {
                let names: Vec<&str> = Phase::ALL.iter().flat_map(|p| p.sections()).collect();
                Err(format!("unknown section {name:?}; sections: {}", names.join(" ")))
            }
            _ => Ok(()),
        }
    }

    /// The phases that render the selected section, or every phase when
    /// `only` is `None`.
    pub fn phases(only: Option<&str>) -> Vec<Phase> {
        Phase::ALL
            .into_iter()
            .filter(|phase| only.is_none_or(|name| phase.sections().contains(&name)))
            .collect()
    }

    /// How many campaign units the whole study runs.
    pub fn unit_count(&self) -> usize {
        2 * self.population + 2 * INCOGNITO_BROWSERS.len()
    }

    /// The study's campaign units grouped by phase, in document order:
    /// one crawl per profile, a normal and an incognito re-crawl per
    /// §3.2 browser, one idle run per profile. The incognito re-crawls
    /// carry `config` in incognito mode; every other unit runs under the
    /// fleet-wide config.
    pub fn plan(
        &self,
        profiles: &[BrowserProfile],
        config: &CampaignConfig,
    ) -> [(Phase, Vec<FleetUnit>); 3] {
        let incognito = config.clone().incognito();
        let recrawls = INCOGNITO_BROWSERS
            .iter()
            .map(|name| profile_by_name(name).expect("the §3.2 browsers are pinned"))
            .flat_map(|profile| {
                [
                    FleetUnit::crawl(profile.clone()),
                    FleetUnit::crawl(profile).with_config(incognito.clone()),
                ]
            })
            .collect();
        [
            (Phase::Crawl, profiles.iter().cloned().map(FleetUnit::crawl).collect()),
            (Phase::Incognito, recrawls),
            (
                Phase::Idle,
                profiles.iter().map(|p| FleetUnit::idle(p.clone(), self.scale.idle)).collect(),
            ),
        ]
    }

    /// Runs the selected `phases` in document order, each as one
    /// capture fleet followed by one analysis fleet at `options`' width,
    /// and hands each phase to `on_phase` as soon as it is analysed.
    /// Output is identical for every worker count. A phase's captures
    /// are dropped before the next phase starts unless `on_phase` keeps
    /// them.
    pub fn run(
        &self,
        phases: &[Phase],
        options: &FleetOptions,
        mut on_phase: impl FnMut(Analysed),
    ) -> Result<(), String> {
        let world = self.scale.world();
        let config = self.scale.config();
        let profiles = population(self.scale.seed, self.population);
        let res = AnalysisResources::standard();
        for (phase, units) in self.plan(&profiles, &config) {
            if !phases.contains(&phase) {
                continue;
            }
            if options.progress {
                panoptes_obs::progress::emit(
                    "study",
                    &options.decorate(&format!("{phase:?} phase: {} units", units.len())),
                );
            }
            let analysed = {
                let outputs = fleet::run_units(&world, &world.sites, &config, &units, options)
                    .map_err(|e| format!("{phase:?} capture failed: {e}"))?;
                let (mut crawls, mut idles) = (Vec::new(), Vec::new());
                for output in outputs {
                    match output {
                        UnitOutput::Crawl(result) => crawls.push(result),
                        UnitOutput::Idle(result) => idles.push(result),
                    }
                }
                let analyses = analyze_study_jobs(&crawls, &idles, &res, options)
                    .map_err(|e| format!("{phase:?} analysis failed: {e}"))?;
                match phase {
                    Phase::Crawl => Analysed::Crawl { results: crawls, analyses: analyses.crawls },
                    Phase::Incognito => {
                        let mut runs = analyses.crawls.into_iter();
                        Analysed::Incognito(
                            std::iter::from_fn(|| Some((runs.next()?, runs.next()?))).collect(),
                        )
                    }
                    Phase::Idle => Analysed::Idle(analyses.idles),
                }
            };
            on_phase(analysed);
        }
        Ok(())
    }
}
