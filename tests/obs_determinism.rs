//! The metrics report's headline split, enforced end-to-end: every
//! metric classed [`Deterministic`] is a pure function of the workload,
//! so the deterministic section of the report renders **byte-identical**
//! no matter how the study executes — in order on the calling thread
//! (`--jobs 1`) or through the fleet at any worker count up to 8.
//! Runtime-class metrics (timings, shard topology, process-lifetime
//! caches) are allowed to differ and are excluded by construction.
//!
//! Metrics are process-global and cumulative, so the whole check lives
//! in one `#[test]` (parallel test threads would interleave counts) and
//! each run is isolated via snapshot deltas.
//!
//! [`Deterministic`]: panoptes_obs::metrics::MetricClass::Deterministic

use panoptes::fleet::FleetOptions;
use panoptes_bench::experiments::Scale;
use panoptes_bench::study::{Phase, Study};
use panoptes_obs::metrics::snapshot;
use panoptes_obs::report::render_deterministic;
use panoptes_simnet::clock::SimDuration;

#[test]
fn deterministic_metrics_identical_across_jobs() {
    let scale = Scale {
        popular: 8,
        sensitive: 5,
        idle: SimDuration::from_secs(120),
        ..Scale::quick()
    };
    let study = Study { scale, population: 15 };
    panoptes_obs::enable(panoptes_obs::METRICS);

    let run = |jobs: usize| {
        study
            .run(&Phase::ALL, false, &FleetOptions::with_jobs(jobs), |phase| {
                std::hint::black_box(phase.sections().len());
            })
            .unwrap_or_else(|e| panic!("study failed at jobs={jobs}: {e}"));
    };

    // Warm-up: registers every metric handle and fills the
    // process-lifetime caches (atom interner, cached site plans) so
    // all measured runs see identical cache state.
    run(1);

    let deterministic_of = |jobs: usize| {
        let before = snapshot();
        run(jobs);
        render_deterministic(&snapshot().delta(&before))
    };

    let reference = deterministic_of(1);
    for must_have in ["mitm.flows.built", "simnet.dns.queries", "blocklist.probes"] {
        assert!(
            reference.contains(must_have),
            "reference deterministic section is missing {must_have}:\n{reference}"
        );
    }

    // The same study at every worker count must tally identically,
    // byte for byte.
    for jobs in 2..=8usize {
        assert_eq!(
            reference,
            deterministic_of(jobs),
            "deterministic metrics diverged between jobs=1 and jobs={jobs}"
        );
    }

    panoptes_obs::disable(panoptes_obs::METRICS);
}
