//! One study driven layer by layer through the layers' public functions,
//! with a `bench.*` span around each call.
//!
//! The driver follows `repro`'s order — set-up, crawl, incognito
//! re-crawls, idle — and renders through the same document builders, so
//! its document is byte-identical to `repro` stdout for the same spec.
//! Each experiment runs as three fleets at the default width: capture
//! (`fleet::run_unit`), seal (an explicit `FlowStore::snapshot`, so the
//! seal is not hidden inside the first detector call) and analysis.
//! Keeping the three apart in time makes the process-wide allocation
//! counter attribute each delta to one layer.
//!
//! With the trace layer off the spans are inert, so the same driver also
//! renders the untraced reference documents for served requests.

use std::collections::HashMap;

use panoptes::config::CampaignConfig;
use panoptes::fleet::{self, FleetOptions, FleetUnit, UnitOutput};
use panoptes_analysis::engine::{analyze_crawl, analyze_idle, AnalysisResources};
use panoptes_bench::experiments::Scale;
use panoptes_bench::{mem, render};
use panoptes_browsers::registry::{population, profile_by_name};
use panoptes_obs::ctx::{self, TraceCtx};
use panoptes_obs::trace;
use panoptes_serve::study::StudyParams;
use panoptes_web::generator::GeneratorConfig;
use panoptes_web::World;

/// The browsers `repro` re-crawls normal + incognito for §3.2.
const INCOGNITO_BROWSERS: [&str; 3] = ["Edge", "Opera", "UC International"];

/// What one study computes and prints.
#[derive(Debug, Clone, Copy)]
pub struct StudySpec {
    /// Sites, idle window and seed.
    pub scale: Scale,
    /// Browser population size.
    pub population: usize,
    /// `repro --only SECTION`; `None` prints every section.
    pub only: Option<&'static str>,
}

impl StudySpec {
    /// `repro` with no flags: the paper's experiment.
    pub fn paper() -> StudySpec {
        StudySpec {
            scale: Scale::paper(),
            population: 15,
            only: None,
        }
    }

    /// `repro --sites 50000 --population 1 --only fig2`.
    pub fn wide_web() -> StudySpec {
        StudySpec {
            scale: Scale::paper().with_sites(50_000),
            population: 1,
            only: Some("fig2"),
        }
    }

    /// The study one served request asks for.
    pub fn served(seed: u64) -> StudySpec {
        let params = served_params(seed);
        StudySpec {
            scale: params.scale(),
            population: params.population,
            only: None,
        }
    }

    fn wants(&self, section: &str) -> bool {
        self.only.is_none_or(|only| only == section)
    }

    /// The generator configuration of this spec's world.
    pub fn generator(&self) -> GeneratorConfig {
        GeneratorConfig {
            seed: self.scale.seed,
            popular: self.scale.popular,
            sensitive: self.scale.sensitive,
            tail: self.scale.tail,
        }
    }
}

/// The parameters of every served request: a small but complete study,
/// so per-study fixed costs weigh as they do for a real tenant.
pub fn served_params(seed: u64) -> StudyParams {
    StudyParams {
        seed,
        popular: 8,
        sensitive: 5,
        tail: 0,
        population: 6,
        idle_secs: 60,
    }
}

/// Allocations made inside each layer's fleets.
#[derive(Debug, Default, Clone, Copy)]
pub struct Allocs {
    /// `fleet::run_unit`, crawl and idle.
    pub capture: u64,
    /// `FlowStore::snapshot`.
    pub seal: u64,
    /// `analyze_crawl` and `analyze_idle`.
    pub analysis: u64,
}

/// One driven study.
pub struct StudyRun {
    /// The report, byte-identical to `repro` stdout.
    pub doc: String,
    /// Host count of the built world.
    pub hosts: usize,
    /// Bytes the render builders produced (printed or not).
    pub rendered_bytes: usize,
    /// Allocation counts per layer (0 without the counting allocator).
    pub allocs: Allocs,
}

/// Runs `spec` at the fleet width `options` gives.
pub fn run(spec: &StudySpec, options: &FleetOptions) -> StudyRun {
    let root = trace::span("bench.study");
    let root_id = root.id().unwrap_or(0);
    let _ctx = ctx::enter(TraceCtx {
        request: ctx::next_request_id(),
        parent_span: root_id,
    });
    let scale = spec.scale;
    let world = {
        let _span = trace::span("bench.webworld.build");
        World::build(&spec.generator())
    };
    let profiles = {
        let _span = trace::span("bench.browsers.population");
        population(scale.seed, spec.population)
    };
    let res = {
        let _span = trace::span("bench.analysis.resources");
        AnalysisResources::standard()
    };
    let config = scale.config();
    let mut driver = Driver {
        world: &world,
        options,
        root_id,
        allocs: Allocs::default(),
        rendered: 0,
    };

    let mut doc = driver.render(|| render::header_md(&scale));
    let crawl_units: Vec<FleetUnit> = profiles.iter().cloned().map(FleetUnit::crawl).collect();
    let crawls = driver.capture("bench.capture.crawl", &config, &crawl_units);
    let crawls: Vec<_> = crawls
        .into_iter()
        .filter_map(UnitOutput::into_crawl)
        .collect();
    driver.seal(crawls.len(), |i| {
        crawls[i].store.snapshot();
    });
    let analyses = driver.analyze("bench.analysis.crawl", crawls.len(), |i| {
        analyze_crawl(&crawls[i], &res)
    });
    for (name, text) in driver.render(|| render::crawl_sections(&crawls, &analyses)) {
        if spec.wants(name) {
            doc.push_str(&text);
        }
    }

    if spec.wants("incognito") {
        let incognito = config.clone().incognito();
        let units: Vec<FleetUnit> = INCOGNITO_BROWSERS
            .iter()
            .map(|name| profile_by_name(name).expect("a pinned browser"))
            .flat_map(|p| {
                [
                    FleetUnit::crawl(p.clone()),
                    FleetUnit::crawl(p).with_config(incognito.clone()),
                ]
            })
            .collect();
        let recrawls = driver.capture("bench.capture.crawl", &config, &units);
        let recrawls: Vec<_> = recrawls
            .into_iter()
            .filter_map(UnitOutput::into_crawl)
            .collect();
        driver.seal(recrawls.len(), |i| {
            recrawls[i].store.snapshot();
        });
        let mut analyses = driver
            .analyze("bench.analysis.crawl", recrawls.len(), |i| {
                analyze_crawl(&recrawls[i], &res)
            })
            .into_iter();
        let pairs: Vec<_> =
            std::iter::from_fn(|| Some((analyses.next()?, analyses.next()?))).collect();
        doc.push_str(&driver.render(|| render::incognito_section(&pairs)).1);
    }

    if spec.wants("fig5") || spec.wants("idle-dest") {
        let units: Vec<FleetUnit> = profiles
            .iter()
            .cloned()
            .map(|p| FleetUnit::idle(p, scale.idle))
            .collect();
        let idles = driver.capture("bench.capture.idle", &config, &units);
        let idles: Vec<_> = idles
            .into_iter()
            .filter_map(UnitOutput::into_idle)
            .collect();
        driver.seal(idles.len(), |i| {
            idles[i].store.snapshot();
        });
        let analyses = driver.analyze("bench.analysis.idle", idles.len(), |i| {
            analyze_idle(&idles[i])
        });
        for (name, text) in driver.render(|| render::idle_sections(&analyses)) {
            if spec.wants(name) {
                doc.push_str(&text);
            }
        }
    }
    StudyRun {
        doc,
        hosts: world.host_count(),
        rendered_bytes: driver.rendered,
        allocs: driver.allocs,
    }
}

struct Driver<'a> {
    world: &'a World,
    options: &'a FleetOptions,
    root_id: u64,
    allocs: Allocs,
    rendered: usize,
}

impl Driver<'_> {
    /// Runs `labels.len()` units through `fleet::execute`, one
    /// `unit_span` per unit, under a `bench.fleet` span that records the
    /// fleet's width. Returns the outputs and the allocations made.
    fn fleet<T: Send>(
        &self,
        unit_span: &'static str,
        labels: &[String],
        work: impl Fn(usize) -> T + Sync,
    ) -> (Vec<T>, u64) {
        let jobs = self.options.effective_jobs(labels.len());
        let span = trace::span_with("bench.fleet", None, || jobs.to_string());
        // Worker threads inherit the context, so their unit spans name
        // this fleet as their parent across the thread hand-off.
        ctx::set_parent(span.id().unwrap_or(0));
        let before = mem::allocations();
        let out = fleet::execute(labels, self.options, |i| {
            let _unit = trace::span(unit_span);
            work(i)
        })
        .unwrap_or_else(|e| panic!("{unit_span} fleet failed: {e}"));
        let allocs = mem::allocations() - before;
        ctx::set_parent(self.root_id);
        (out, allocs)
    }

    fn capture(
        &mut self,
        span: &'static str,
        config: &CampaignConfig,
        units: &[FleetUnit],
    ) -> Vec<UnitOutput> {
        let labels: Vec<String> = units.iter().map(FleetUnit::label).collect();
        let (out, allocs) = self.fleet(span, &labels, |i| {
            fleet::run_unit(self.world, &self.world.sites, config, &units[i])
        });
        self.allocs.capture += allocs;
        out
    }

    /// Seals `n` captures; `seal(i)` snapshots the i-th store.
    fn seal(&mut self, n: usize, seal: impl Fn(usize) + Sync) {
        let labels: Vec<String> = (0..n).map(|i| format!("seal {i}")).collect();
        self.allocs.seal += self.fleet("bench.mitm.seal", &labels, seal).1;
    }

    fn analyze<T: Send>(
        &mut self,
        span: &'static str,
        n: usize,
        work: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let labels: Vec<String> = (0..n).map(|i| format!("analysis {i}")).collect();
        let (out, allocs) = self.fleet(span, &labels, work);
        self.allocs.analysis += allocs;
        out
    }

    fn render<T: Rendered>(&mut self, f: impl FnOnce() -> T) -> T {
        let _span = trace::span("bench.render");
        let out = f();
        self.rendered += out.bytes();
        out
    }
}

/// What the render builders return, measured in bytes.
trait Rendered {
    fn bytes(&self) -> usize;
}

impl Rendered for String {
    fn bytes(&self) -> usize {
        self.len()
    }
}

impl Rendered for (&'static str, String) {
    fn bytes(&self) -> usize {
        self.1.len()
    }
}

impl Rendered for Vec<(&'static str, String)> {
    fn bytes(&self) -> usize {
        self.iter().map(|(_, text)| text.len()).sum()
    }
}

/// Renders the untraced reference document of each seed's served study,
/// one study per worker, in seed order.
pub fn served_references(seeds: &[u64], workers: usize) -> HashMap<u64, String> {
    let labels: Vec<String> = seeds.iter().map(|s| format!("reference {s:#x}")).collect();
    let docs = fleet::execute(&labels, &FleetOptions::with_jobs(workers), |i| {
        run(&StudySpec::served(seeds[i]), &FleetOptions::with_jobs(1)).doc
    })
    .unwrap_or_else(|e| panic!("reference renders failed: {e}"));
    seeds.iter().copied().zip(docs).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_driver_reproduces_the_offline_document() {
        // The serve determinism suite's reference flow, at a size that
        // runs in milliseconds.
        let params = StudyParams {
            seed: 7,
            popular: 3,
            sensitive: 2,
            tail: 0,
            population: 3,
            idle_secs: 60,
        };
        let scale = params.scale();
        let spec = StudySpec {
            scale,
            population: 3,
            only: None,
        };
        let options = FleetOptions::with_jobs(2);
        let res = AnalysisResources::standard();
        let (world, results) =
            panoptes_bench::experiments::crawl_population_jobs(&scale, &options, 3).expect("crawl");
        let crawls: Vec<_> = results.iter().map(|r| analyze_crawl(r, &res)).collect();
        let config = scale.config();
        let incognito = config.clone().incognito();
        let units: Vec<FleetUnit> = INCOGNITO_BROWSERS
            .iter()
            .map(|name| profile_by_name(name).expect("pinned"))
            .flat_map(|p| {
                [
                    FleetUnit::crawl(p.clone()),
                    FleetUnit::crawl(p).with_config(incognito.clone()),
                ]
            })
            .collect();
        let recrawls: Vec<_> = fleet::run_units(&world, &world.sites, &config, &units, &options)
            .expect("recrawl")
            .into_iter()
            .filter_map(UnitOutput::into_crawl)
            .collect();
        let pairs: Vec<_> = recrawls
            .chunks(2)
            .map(|p| (analyze_crawl(&p[0], &res), analyze_crawl(&p[1], &res)))
            .collect();
        let idles =
            panoptes_bench::experiments::idle_population_jobs(&scale, &options, 3).expect("idle");
        let idle_analyses: Vec<_> = idles.iter().map(analyze_idle).collect();
        let expected = render::full_doc(&scale, &results, &crawls, &pairs, &idle_analyses);

        let driven = run(&spec, &options);
        assert_eq!(driven.doc, expected);
        assert_eq!(driven.hosts, world.host_count());
        assert!(driven.rendered_bytes >= expected.len());

        let only = StudySpec {
            only: Some("fig2"),
            ..spec
        };
        let fig2 = run(&only, &options).doc;
        assert_eq!(
            fig2,
            format!("{}{}\n", render::header_md(&scale), render::fig2(&crawls))
        );
    }
}
