//! `--only` slicing through the study runner: for every section, the
//! phases that section needs print exactly the header plus that
//! section's bytes of the full document, and no unit of any other phase
//! is submitted — selecting a crawl section never pays for the
//! incognito crawls or the idle experiment. Every run's trace holds one
//! `fleet.unit` span per planned unit: the runner joins each worker, so
//! no worker's trace ring is lost.
//!
//! The fleet counters and the trace are process-global, so the whole
//! check is one `#[test]`.

use panoptes::fleet::FleetOptions;
use panoptes_bench::experiments::Scale;
use panoptes_bench::render;
use panoptes_bench::study::{Phase, Study};
use panoptes_browsers::registry::population;
use panoptes_obs::metrics::{counter, MetricClass};
use panoptes_obs::trace::{self, EventKind};
use panoptes_simnet::clock::SimDuration;

#[test]
fn each_section_prints_alone_and_runs_only_its_phase() {
    let scale = Scale {
        popular: 4,
        sensitive: 2,
        idle: SimDuration::from_secs(60),
        ..Scale::quick()
    };
    let study = Study { scale, population: 3 };
    let options = FleetOptions::with_jobs(2);
    let header = render::header_md(&scale);
    let (profiles, config) = (population(scale.seed, study.population), scale.config());
    let planned = |phases: &[Phase]| -> Vec<usize> {
        study.plan(phases, &profiles, &config).iter().map(|(_, units)| units.len()).collect()
    };
    // Population 3 holds Edge and Opera but not UC International, so the
    // full study crawls only UC International's §3.2 normal arm again;
    // alone, the incognito phase crawls all three normal arms itself.
    assert_eq!(planned(&Phase::ALL), [3, 4, 3]);
    assert_eq!(planned(&[Phase::Incognito]), [0, 6, 0]);
    for phases in [&Phase::ALL[..], &[Phase::Incognito]] {
        assert_eq!(study.unit_count(phases), planned(phases).iter().sum::<usize>());
    }
    let submitted = counter("fleet.units.submitted", MetricClass::Runtime);
    panoptes_obs::enable(panoptes_obs::METRICS | panoptes_obs::TRACE);
    let unit_spans = || {
        let events = trace::drain();
        events.iter().filter(|e| e.kind == EventKind::Start && e.name == "fleet.unit").count()
    };

    let mut full = Vec::new();
    study
        .run(&Phase::ALL, false, &options, |phase| full.extend(phase.sections()))
        .expect("full study");
    assert_eq!(unit_spans(), study.unit_count(&Phase::ALL));

    for phase in Phase::ALL {
        for name in phase.sections() {
            let only = Some(name);
            let phases = Study::phases(only);
            assert_eq!(phases, [phase], "{name}");
            let before = submitted.value();
            let mut doc = header.clone();
            study
                .run(&phases, false, &options, |analysed| {
                    for (section, text) in analysed.sections() {
                        if only.is_none_or(|o| o == section) {
                            doc.push_str(&text);
                        }
                    }
                })
                .expect("sliced study");
            // One fleet job per planned unit of this phase, none of any
            // other.
            assert_eq!(submitted.value() - before, study.unit_count(&phases) as u64, "{name}");
            assert_eq!(unit_spans(), study.unit_count(&phases), "{name}");
            let (_, text) = full.iter().find(|(n, _)| *n == name).expect("in the full document");
            assert_eq!(doc, format!("{header}{text}"), "{name}");
        }
    }
    panoptes_obs::disable(panoptes_obs::METRICS | panoptes_obs::TRACE);
}
