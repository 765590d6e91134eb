//! The paper's study: one plan and one runner.
//!
//! The study is fixed (§3): every browser of the population crawls the
//! web, the §3.2 browsers crawl it again incognito, and every browser
//! idles for the scale's window (§3.5). The normal arm of the §3.2
//! comparison is the population crawl itself; only a §3.2 browser that
//! crawl does not cover is crawled normally a second time.
//! [`Study::plan`] lays those campaign units out by phase in document
//! order, and [`Study::run`] runs the phases a caller selects in one
//! fleet pass: each fleet job runs one unit and analyses it on the same
//! worker ([`analyse_unit`]). A crawl unit is analysed as it is
//! captured, so a worker holds one visit's flows, not a capture; an idle
//! unit's capture is analysed and dropped. An [`Assembly`] hands each
//! phase over in document order the moment its last unit is analysed.
//! The study server schedules the same plan on its own pool and runs the
//! same two halves, so a served study equals `repro` because it runs the
//! same code.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::OnceLock;

use panoptes::campaign::CampaignResult;
use panoptes::config::CampaignConfig;
use panoptes::fleet::{self, FleetOptions, FleetUnit, UnitKind, UnitOutput};
use panoptes_analysis::engine::{
    analyze_crawl, analyze_idle, capture_crawl, AnalysisResources, CampaignAnalysis, IdleAnalysis,
};
use panoptes_browsers::registry::{all_profiles, population, profile_by_name};
use panoptes_browsers::BrowserProfile;
use panoptes_web::World;

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
        if u32::try_from(self.scale.sites()).is_err() {
            return Err("the site count (popular + sensitive + tail) overflows u32".to_string());
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

    /// Runs the selected `phases`' units in one fleet pass at `options`'
    /// width, each as one [`analyse_unit`], and hands each phase to
    /// `on_phase` once complete ([`Assembly`]). A crawl keeps its capture
    /// (`Analysed::Crawl::results`) only when `keep_captures` asks. Output
    /// is identical for every worker count. Once a unit fails, no further
    /// phase is handed over, and the error names the unit and its panic.
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
        let plan = self.plan(phases, &profiles, &config);
        let mut assembly = Assembly::new(&plan);
        // The crawl phase, whose captures `keep_captures` keeps, is first.
        let kept = if keep_captures { plan[0].1.len() } else { 0 };
        let units: Vec<FleetUnit> = plan.into_iter().flat_map(|(_, units)| units).collect();
        let labels: Vec<String> = units.iter().map(FleetUnit::label).collect();
        let analyse = |i: usize| analyse_unit(&world, &config, &res, &units[i], i < kept, options);
        let mut result = Ok(());
        fleet::execute_each(&labels, options, analyse, |i, outcome| match (outcome, &result) {
            (Ok(unit), Ok(())) => assembly.accept(i, unit).into_iter().for_each(&mut on_phase),
            (Err(failure), Ok(())) => result = Err(failure.to_string()),
            _ => {}
        });
        result
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

/// What one study unit yields ([`analyse_unit`]): its analysis, and for
/// a crawl its capture when the caller keeps captures.
pub enum UnitAnalysis {
    /// A crawl's analysis, and its capture when it was kept.
    Crawl(Box<CampaignAnalysis>, Option<Box<CampaignResult>>),
    /// An idle run's analysis.
    Idle(IdleAnalysis),
}

/// Runs one planned unit on the calling thread and analyses it: the
/// unit job of [`Study::run`] and of the study server. A crawl is
/// analysed as it is captured ([`capture_crawl`]) unless `keep` asks for
/// its capture (`repro --har`): then the crawl is captured, its stored
/// capture analysed and kept. An idle unit is captured, analysed and
/// dropped. `config` is the study-wide config, which the unit's own
/// override beats; `options` narrate the unit's capture line.
pub fn analyse_unit(
    world: &World,
    config: &CampaignConfig,
    res: &AnalysisResources,
    unit: &FleetUnit,
    keep: bool,
    options: &FleetOptions,
) -> UnitAnalysis {
    if unit.kind == UnitKind::Crawl && !keep {
        let crawl = capture_crawl(world, &unit.profile, &world.sites, unit.config_or(config), res);
        fleet::narrate_crawl(unit, &crawl.result, crawl.flows, options);
        return UnitAnalysis::Crawl(Box::new(crawl.analysis), None);
    }
    let output = fleet::run_unit(world, &world.sites, config, unit);
    fleet::narrate_capture(unit, &output, options);
    match output {
        UnitOutput::Crawl(result) => {
            let analysis = Box::new(analyze_crawl(&result, res));
            UnitAnalysis::Crawl(analysis, Some(Box::new(result)))
        }
        UnitOutput::Idle(result) => UnitAnalysis::Idle(analyze_idle(&result)),
    }
}

/// Re-sequences a study's unit analyses, which arrive in any order,
/// into its phases in document order: the one place that knows the
/// order phases are handed over in. [`Study::run`] and the study server
/// both feed it.
pub struct Assembly {
    /// The phases not handed over yet, with their units' plan indices.
    phases: VecDeque<(Phase, Range<usize>)>,
    /// One slot per planned unit, until its phase is handed over.
    slots: Vec<Option<UnitAnalysis>>,
    /// The crawl phase's §3.2 analyses: the incognito phase's normal arms.
    normal_arms: Vec<CampaignAnalysis>,
}

impl Assembly {
    /// An assembly for `plan` ([`Study::plan`]), whose units are numbered
    /// in plan order; a phase that plans no units is never handed over.
    pub fn new(plan: &[(Phase, Vec<FleetUnit>)]) -> Assembly {
        let (mut phases, mut end) = (VecDeque::new(), 0);
        for (phase, units) in plan.iter().filter(|(_, units)| !units.is_empty()) {
            phases.push_back((*phase, end..end + units.len()));
            end += units.len();
        }
        Assembly { phases, slots: (0..end).map(|_| None).collect(), normal_arms: Vec::new() }
    }

    /// Takes the analysis of the unit at `plan_index` and returns the
    /// phases it completes, assembled, in document order: none while an
    /// earlier phase still waits for a unit.
    pub fn accept(&mut self, plan_index: usize, analysis: UnitAnalysis) -> Vec<Analysed> {
        self.slots[plan_index] = Some(analysis);
        let mut complete = Vec::new();
        while let Some((phase, units)) = self.phases.front().cloned() {
            if self.slots[units.clone()].iter().any(Option::is_none) {
                break;
            }
            self.phases.pop_front();
            complete.push(self.assemble(phase, units));
        }
        complete
    }

    /// How many analyses wait for their phase to complete.
    pub fn buffered(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Assembles `phase` from its `units`' analyses, in plan order. The
    /// crawl phase keeps its §3.2 analyses as the normal arms of the
    /// incognito phase, which is assembled after it.
    fn assemble(&mut self, phase: Phase, units: Range<usize>) -> Analysed {
        let (mut results, mut analyses, mut idles) = (Vec::new(), Vec::new(), Vec::new());
        for slot in &mut self.slots[units] {
            match slot.take().expect("the phase is complete") {
                UnitAnalysis::Crawl(analysis, result) => {
                    analyses.push(*analysis);
                    results.extend(result.map(|capture| *capture));
                }
                UnitAnalysis::Idle(analysis) => idles.push(analysis),
            }
        }
        match phase {
            Phase::Crawl => {
                self.normal_arms = analyses
                    .iter()
                    .filter(|a| INCOGNITO_BROWSERS.contains(&a.browser.as_str()))
                    .cloned()
                    .collect();
                Analysed::Crawl { results, analyses }
            }
            Phase::Incognito => Analysed::Incognito(incognito_pairs(&self.normal_arms, analyses)),
            Phase::Idle => Analysed::Idle(idles),
        }
    }
}

/// Pairs each §3.2 browser's normal and incognito analyses, in
/// [`Study::plan`]'s browser order. `crawls` holds the crawl phase's
/// §3.2 analyses (empty when that phase did not run) and `incognito` the
/// incognito phase's, in plan order. A browser's normal arm is its
/// analysis in `crawls` when there is one; otherwise the plan crawled it
/// normally right before its incognito arm.
fn incognito_pairs(
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

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(units: &[FleetUnit]) -> Vec<String> {
        units.iter().map(FleetUnit::label).collect()
    }

    #[test]
    fn assembly_hands_phases_over_in_document_order() {
        let scale = Scale { popular: 4, sensitive: 2, ..Scale::quick() };
        let study = Study { scale, population: 3 };
        let (world, config, res) = (scale.world(), scale.config(), AnalysisResources::standard());
        let profiles = population(scale.seed, study.population);
        let plan = study.plan(&Phase::ALL, &profiles, &config);
        let units: Vec<&FleetUnit> = plan.iter().flat_map(|(_, units)| units).collect();
        let options = FleetOptions::with_jobs(1);
        let analyse = |i: usize| analyse_unit(&world, &config, &res, units[i], false, &options);
        let sections = |phases: Vec<Analysed>| -> Vec<(&str, String)> {
            phases.iter().flat_map(Analysed::sections).collect()
        };
        let mut in_order = Assembly::new(&plan);
        let expected: Vec<_> =
            (0..units.len()).flat_map(|i| sections(in_order.accept(i, analyse(i)))).collect();
        // Every unit but the first arrives first: the crawl phase waits
        // for its first unit, and the later phases wait for the crawl.
        let mut reversed = Assembly::new(&plan);
        for i in (1..units.len()).rev() {
            assert!(reversed.accept(i, analyse(i)).is_empty(), "unit {i}");
        }
        assert_eq!(reversed.buffered(), units.len() - 1);
        let phases = reversed.accept(0, analyse(0));
        assert_eq!(phases.len(), 3);
        assert_eq!(sections(phases), expected);
        assert_eq!(reversed.buffered(), 0);
    }

    #[test]
    fn validate_rejects_a_site_count_that_overflows() {
        let scale = Scale { popular: u32::MAX, sensitive: 1, ..Scale::quick() };
        assert!(Study { scale, population: 1 }.validate(None).is_err());
        let scale = Scale { popular: u32::MAX - 1, sensitive: 1, ..Scale::quick() };
        assert!(Study { scale, population: 1 }.validate(None).is_ok());
        let scale = Scale { tail: 1, ..scale };
        assert!(Study { scale, population: 1 }.validate(None).is_err());
    }

    #[test]
    fn incognito_arms_are_named_apart_from_the_crawl() {
        let scale = Scale::quick();
        let config = scale.config();
        for population_size in [15, 3] {
            let study = Study { scale, population: population_size };
            let profiles = population(scale.seed, population_size);
            let [(_, crawl), (_, incognito), _] = study.plan(&Phase::ALL, &profiles, &config);
            let (crawl, incognito) = (labels(&crawl), labels(&incognito));
            for name in INCOGNITO_BROWSERS {
                assert!(incognito.contains(&format!("{name} incognito crawl")), "{incognito:?}");
            }
            assert!(
                incognito.iter().all(|label| !crawl.contains(label)),
                "population {population_size}: {crawl:?} vs {incognito:?}"
            );
        }
    }
}
