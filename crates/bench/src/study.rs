//! The paper's study: one plan and one runner.
//!
//! The study is fixed (§3): every browser of the population crawls the
//! web, the §3.2 browsers crawl it again incognito, and every browser
//! idles for the scale's window (§3.5). The normal arm of the §3.2
//! comparison is the population crawl itself; only a §3.2 browser that
//! crawl does not cover is crawled normally a second time.
//! [`Study::plan`] lays those campaign units out by phase in document
//! order, and [`Study::run`] runs the phases a caller selects, one after
//! another: each fleet job captures one unit, analyses it on the same
//! worker and drops the capture, so at most one capture per worker is
//! alive. Each phase is handed over the moment its last unit is
//! analysed. The study server schedules the same plan on its own pool.

use std::sync::OnceLock;

use panoptes::campaign::CampaignResult;
use panoptes::config::CampaignConfig;
use panoptes::fleet::{self, FleetOptions, FleetUnit, UnitOutput};
use panoptes_analysis::engine::{
    analyze_crawl, analyze_idle, AnalysisResources, CampaignAnalysis, IdleAnalysis,
};
use panoptes_browsers::registry::{all_profiles, population, profile_by_name};
use panoptes_browsers::BrowserProfile;

use crate::experiments::Scale;
use crate::render;

/// The §3.2 browsers, crawled normal and incognito.
const INCOGNITO_BROWSERS: [&str; 3] = ["Edge", "Opera", "UC International"];

/// One phase of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Every browser crawls the web (§2.1).
    Crawl,
    /// The §3.2 browsers crawl the web incognito, and normally too where
    /// the crawl phase does not cover them.
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
        /// The raw captures, in population order, when the caller asked
        /// [`Study::run`] to keep them (`repro --har`); empty otherwise.
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
            Analysed::Crawl { analyses, .. } => render::crawl_sections(&[], analyses),
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

    /// How many campaign units [`Study::plan`] lays out for `phases`.
    pub fn unit_count(&self, phases: &[Phase]) -> usize {
        let recrawls =
            INCOGNITO_BROWSERS.iter().filter(|name| !self.crawl_covers(phases, name)).count();
        Phase::ALL
            .into_iter()
            .filter(|phase| phases.contains(phase))
            .map(|phase| match phase {
                Phase::Crawl | Phase::Idle => self.population,
                Phase::Incognito => INCOGNITO_BROWSERS.len() + recrawls,
            })
            .sum()
    }

    /// Whether the selected crawl phase already crawls the §3.2 browser
    /// `name` in normal mode. `population` starts with the pinned Table 1
    /// browsers, so it does when the crawl runs and the population
    /// reaches the browser's pinned position. That crawl unit is the very
    /// unit a normal re-crawl would run, so its capture is the same.
    fn crawl_covers(&self, phases: &[Phase], name: &str) -> bool {
        phases.contains(&Phase::Crawl)
            && pinned_position(name).is_some_and(|pinned| pinned < self.population)
    }

    /// The campaign units of the selected `phases`, grouped by phase in
    /// document order; a phase not in `phases` plans no units. The crawl
    /// runs one unit per profile and the idle experiment one idle run
    /// per profile. The incognito phase runs, per §3.2 browser, a normal
    /// crawl unless the selected crawl phase covers that browser, then
    /// an incognito crawl under `config` in incognito mode; every other
    /// unit runs under the fleet-wide config.
    pub fn plan(
        &self,
        phases: &[Phase],
        profiles: &[BrowserProfile],
        config: &CampaignConfig,
    ) -> [(Phase, Vec<FleetUnit>); 3] {
        let incognito_config = config.clone().incognito();
        let units = |phase: Phase| -> Vec<FleetUnit> {
            if !phases.contains(&phase) {
                return Vec::new();
            }
            match phase {
                Phase::Crawl => profiles.iter().cloned().map(FleetUnit::crawl).collect(),
                Phase::Incognito => INCOGNITO_BROWSERS
                    .iter()
                    .flat_map(|name| {
                        let profile = profile_by_name(name).expect("the §3.2 browsers are pinned");
                        let normal = (!self.crawl_covers(phases, name))
                            .then(|| FleetUnit::crawl(profile.clone()));
                        let incognito =
                            FleetUnit::crawl(profile).with_config(incognito_config.clone());
                        normal.into_iter().chain([incognito])
                    })
                    .collect(),
                Phase::Idle => {
                    profiles.iter().map(|p| FleetUnit::idle(p.clone(), self.scale.idle)).collect()
                }
            }
        };
        Phase::ALL.map(|phase| (phase, units(phase)))
    }

    /// Runs the selected `phases` in document order, each as one fleet
    /// at `options`' width, and hands each phase to `on_phase` as soon as
    /// its last unit is analysed. Each fleet job captures one unit,
    /// analyses it and drops the capture, unless `keep_captures` asks for
    /// the crawl phase's raw captures (`Analysed::Crawl::results`).
    /// Output is identical for every worker count.
    pub fn run(
        &self,
        phases: &[Phase],
        keep_captures: bool,
        options: &FleetOptions,
        mut on_phase: impl FnMut(Analysed),
    ) -> Result<(), String> {
        let world = self.scale.world();
        let config = self.scale.config();
        let profiles = population(self.scale.seed, self.population);
        let res = AnalysisResources::standard();
        // The crawl phase's analyses of the §3.2 browsers: the normal arms
        // the incognito phase reuses.
        let mut normal_arms = Vec::new();
        for (phase, units) in self.plan(phases, &profiles, &config) {
            if !phases.contains(&phase) {
                continue;
            }
            if options.progress {
                panoptes_obs::progress::emit(
                    "study",
                    &options.decorate(&format!("{phase:?} phase: {} units", units.len())),
                );
            }
            let keep = keep_captures && phase == Phase::Crawl;
            let labels: Vec<String> = units.iter().map(FleetUnit::label).collect();
            let outputs = fleet::execute(&labels, options, |i| {
                let output = fleet::run_unit(&world, &world.sites, &config, &units[i]);
                fleet::narrate_capture(&units[i], &output, options);
                match output {
                    UnitOutput::Crawl(result) => {
                        let analysis = Box::new(analyze_crawl(&result, &res));
                        UnitAnalysis::Crawl(analysis, keep.then(|| Box::new(result)))
                    }
                    UnitOutput::Idle(result) => UnitAnalysis::Idle(analyze_idle(&result)),
                }
            })
            .map_err(|e| format!("{phase:?} phase failed: {e}"))?;
            let (mut results, mut analyses, mut idles) = (Vec::new(), Vec::new(), Vec::new());
            for output in outputs {
                match output {
                    UnitAnalysis::Crawl(analysis, result) => {
                        analyses.push(*analysis);
                        results.extend(result.map(|capture| *capture));
                    }
                    UnitAnalysis::Idle(analysis) => idles.push(analysis),
                }
            }
            on_phase(match phase {
                Phase::Crawl => {
                    normal_arms = analyses
                        .iter()
                        .filter(|a| INCOGNITO_BROWSERS.contains(&a.browser.as_str()))
                        .cloned()
                        .collect();
                    Analysed::Crawl { results, analyses }
                }
                Phase::Incognito => Analysed::Incognito(incognito_pairs(&normal_arms, analyses)),
                Phase::Idle => Analysed::Idle(idles),
            });
        }
        Ok(())
    }
}

/// The position of the pinned browser `name` in Table 1 order, the
/// order `population` starts with. The names are read once per process:
/// building the pinned profiles takes about a millisecond, more than a
/// served study replayed from the cache.
fn pinned_position(name: &str) -> Option<usize> {
    static PINNED: OnceLock<Vec<String>> = OnceLock::new();
    PINNED
        .get_or_init(|| all_profiles().into_iter().map(|profile| profile.name).collect())
        .iter()
        .position(|pinned| pinned == name)
}

/// What one fleet job of [`Study::run`] hands back: the unit's analysis,
/// and for a crawl its capture when the caller keeps captures.
enum UnitAnalysis {
    Crawl(Box<CampaignAnalysis>, Option<Box<CampaignResult>>),
    Idle(IdleAnalysis),
}

/// Pairs each §3.2 browser's normal and incognito analyses, in
/// [`Study::plan`]'s browser order. `crawls` holds the crawl phase's
/// analyses (empty when that phase did not run) and `incognito` the
/// incognito phase's, in plan order. A browser's normal arm is its
/// analysis in `crawls` when there is one; otherwise the plan crawled it
/// normally right before its incognito arm.
pub fn incognito_pairs(
    crawls: &[CampaignAnalysis],
    incognito: Vec<CampaignAnalysis>,
) -> Vec<(CampaignAnalysis, CampaignAnalysis)> {
    let mut arms = incognito.into_iter();
    let mut next_arm = || arms.next().expect("the plan runs every §3.2 arm");
    INCOGNITO_BROWSERS
        .iter()
        .map(|name| {
            let crawled = crawls.iter().find(|a| a.browser == *name).cloned();
            (crawled.unwrap_or_else(&mut next_arm), next_arm())
        })
        .collect()
}
