//! The fleet's headline guarantee, enforced end-to-end: running the
//! full study across a worker pool changes **nothing** about what the
//! study observes. For every worker count the per-browser capture
//! export, the ground-truth visit log, the DNS log, and the rendered
//! study report are byte-identical to the sequential path (`--jobs 1`,
//! every unit in order on the calling thread).
//!
//! This is what makes `repro --jobs N` safe to use for the paper's
//! artefacts: parallelism buys wall-clock time only, never a different
//! dataset.

use panoptes::campaign::CampaignResult;
use panoptes::fleet::{self, FleetOptions};
use panoptes::idle::IdleResult;
use panoptes_analysis::summary::study_report;
use panoptes_bench::experiments::{crawl_population_jobs, idle_population_jobs, Scale};
use panoptes_browsers::registry::all_profiles;
use panoptes_simnet::clock::SimDuration;

const IDLE: SimDuration = SimDuration::from_secs(120);

/// The paper study's crawl and idle captures at quick scale, run by
/// `jobs` workers.
fn captures(jobs: usize) -> (Vec<CampaignResult>, Vec<IdleResult>) {
    let scale = Scale { idle: IDLE, ..Scale::quick() };
    let options = FleetOptions::with_jobs(jobs);
    let (_, crawls) = crawl_population_jobs(&scale, &options, 15)
        .unwrap_or_else(|e| panic!("jobs={jobs}: {e}"));
    let idles =
        idle_population_jobs(&scale, &options, 15).unwrap_or_else(|e| panic!("jobs={jobs}: {e}"));
    (crawls, idles)
}

#[test]
fn full_study_is_byte_identical_across_worker_counts() {
    let (seq_crawls, seq_idles) = captures(1);
    let reference_report = study_report(&seq_crawls, &seq_idles);

    for jobs in [2usize, 8] {
        let (crawls, idles) = captures(jobs);

        assert_eq!(crawls.len(), seq_crawls.len(), "jobs={jobs}");
        for (par, seq) in crawls.iter().zip(&seq_crawls) {
            let name = &seq.profile.name;
            assert_eq!(par.profile.name, *name, "jobs={jobs}: crawl order");
            assert_eq!(
                par.store.export_jsonl(),
                seq.store.export_jsonl(),
                "jobs={jobs} {name}: capture export diverged"
            );
            assert_eq!(par.visits, seq.visits, "jobs={jobs} {name}: visit log diverged");
            assert_eq!(par.dns_log, seq.dns_log, "jobs={jobs} {name}: DNS log diverged");
            assert_eq!(par.engine_sent, seq.engine_sent, "jobs={jobs} {name}");
            assert_eq!(par.native_sent, seq.native_sent, "jobs={jobs} {name}");
        }

        assert_eq!(idles.len(), seq_idles.len(), "jobs={jobs}");
        for (par, seq) in idles.iter().zip(&seq_idles) {
            let name = &seq.profile.name;
            assert_eq!(par.profile.name, *name, "jobs={jobs}: idle order");
            assert_eq!(
                par.store.export_jsonl(),
                seq.store.export_jsonl(),
                "jobs={jobs} {name}: idle capture diverged"
            );
            assert_eq!(par.idle_sent, seq.idle_sent, "jobs={jobs} {name}");
        }

        assert_eq!(
            study_report(&crawls, &idles),
            reference_report,
            "jobs={jobs}: rendered study report diverged"
        );
    }
}

/// The snapshot migration's determinism guarantee, end-to-end: the
/// rendered study report is byte-identical whether the analysis runs
/// over the live zero-copy snapshots or over stores rebuilt flow-by-flow
/// from the JSONL archive (the pre-refactor materialised form). Any
/// divergence between the sealed-snapshot/parse-once path and a naive
/// re-read of the same capture would surface here.
#[test]
fn study_report_is_byte_identical_across_snapshot_rebuilds() {
    use panoptes_mitm::{FlowClass, FlowStore};
    use std::sync::Arc;

    let (crawls, idles) = captures(1);
    let reference_report = study_report(&crawls, &idles);

    let rebuilt_crawls: Vec<_> = crawls
        .iter()
        .map(|c| {
            let store = FlowStore::import_jsonl(&c.store.export_jsonl())
                .unwrap_or_else(|line| panic!("{}: bad line {line}", c.profile.name));
            // Same capture, fresh store: every snapshot, facts slot and
            // index is rebuilt from scratch.
            let mut rebuilt = c.clone();
            rebuilt.store = Arc::new(store);
            rebuilt
        })
        .collect();
    let rebuilt_idles: Vec<_> = idles
        .iter()
        .map(|i| {
            let store = FlowStore::import_jsonl(&i.store.export_jsonl())
                .unwrap_or_else(|line| panic!("{}: bad line {line}", i.profile.name));
            let mut rebuilt = i.clone();
            rebuilt.store = Arc::new(store);
            rebuilt
        })
        .collect();

    assert_eq!(
        study_report(&rebuilt_crawls, &rebuilt_idles),
        reference_report,
        "report over archive-roundtripped stores diverged"
    );

    // And the sealed snapshot views agree exactly with naive filters of
    // the capture order on real campaign captures.
    for c in &crawls {
        let snap = c.store.snapshot();
        let naive = |class| snap.iter().filter(move |f| f.class == class);
        assert!(snap.all().iter().eq(snap.iter()), "{}", c.profile.name);
        assert!(snap.native().iter().eq(naive(FlowClass::Native)), "{}", c.profile.name);
        assert!(snap.engine().iter().eq(naive(FlowClass::Engine)), "{}", c.profile.name);
    }
}

#[test]
fn panicking_campaign_fails_only_its_own_unit() {
    // A 15-unit fleet where the Yandex slot panics mid-campaign: the
    // failure must carry the browser's name and the other 14 units'
    // results must still come back, in order.
    let profiles = all_profiles();
    let labels: Vec<String> = profiles.iter().map(|p| p.name.to_string()).collect();
    let poisoned = labels.iter().position(|n| n == "Yandex").expect("Yandex in registry");

    let err = fleet::execute(&labels, &FleetOptions::with_jobs(4), |i| {
        if i == poisoned {
            panic!("simulated campaign crash");
        }
        labels[i].clone()
    })
    .expect_err("the poisoned unit must fail the fleet");

    assert_eq!(err.failures.len(), 1);
    assert_eq!(err.failures[0].unit, "Yandex");
    assert_eq!(err.failures[0].index, poisoned);
    assert!(err.failures[0].message.contains("simulated campaign crash"));

    assert_eq!(err.completed.len(), labels.len());
    assert!(err.completed[poisoned].is_none());
    for (i, slot) in err.completed.iter().enumerate() {
        if i != poisoned {
            assert_eq!(slot.as_deref(), Some(labels[i].as_str()), "unit {i} missing");
        }
    }
}
