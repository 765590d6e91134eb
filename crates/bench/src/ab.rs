//! A/B measurement isolation for the bench binaries.
//!
//! Two systematic biases haunt naive two-arm comparisons on this
//! pipeline:
//!
//! * **cold start** — an arm's first iterations run against cold
//!   caches and lazily built state, so timing them penalises whichever
//!   arm runs first;
//! * **host drift** — on a small shared container a frequency dip or
//!   noisy neighbour can hit one arm's entire measurement window.
//!
//! The helpers here make the protocol explicit: warmup iterations run
//! both arms and are excluded from every statistic, and timed reps
//! interleave arm-by-arm so drift lands on both sides.

use std::time::Instant;

/// The A/B protocol knobs: `warmups` untimed iterations per arm, then
/// `reps` timed ones.
#[derive(Debug, Clone, Copy)]
pub struct AbConfig {
    /// Untimed iterations per arm before measurement (cache/branch
    /// warm-up; excluded from all statistics).
    pub warmups: usize,
    /// Timed iterations per arm.
    pub reps: usize,
}

impl AbConfig {
    /// A protocol with `warmups` excluded iterations and `reps` timed.
    pub fn new(warmups: usize, reps: usize) -> AbConfig {
        AbConfig { warmups, reps: reps.max(1) }
    }
}

/// One arm's timed samples (warmups already excluded).
#[derive(Debug, Clone)]
pub struct ArmStats {
    /// Arm label for reports.
    pub label: String,
    /// Per-rep wall-clock seconds, in execution order.
    pub secs: Vec<f64>,
}

impl ArmStats {
    /// An arm from pre-collected samples (e.g. per-request latencies).
    pub fn from_samples(label: &str, secs: Vec<f64>) -> ArmStats {
        ArmStats { label: label.to_string(), secs }
    }

    /// Best (minimum) sample — the low-noise wall-clock estimator.
    pub fn best(&self) -> f64 {
        self.secs.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        if self.secs.is_empty() {
            return 0.0;
        }
        self.secs.iter().sum::<f64>() / self.secs.len() as f64
    }

    /// The `p`-th percentile (0..=100, nearest-rank on a sorted copy).
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.secs, p)
    }
}

/// Both arms of a comparison.
#[derive(Debug, Clone)]
pub struct AbOutcome {
    /// The first (usually baseline) arm.
    pub a: ArmStats,
    /// The second (usually candidate) arm.
    pub b: ArmStats,
}

impl AbOutcome {
    /// best(a) / best(b): >1 means arm B is faster.
    pub fn speedup_best(&self) -> f64 {
        self.a.best() / self.b.best()
    }
}

/// The `p`-th percentile of `samples` (nearest-rank; sorts a copy, so
/// callers keep their data in arrival order).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Best-of-`reps` wall-clock seconds of `f`, after `warmups` excluded
/// runs.
pub fn best_of<F: FnMut()>(config: AbConfig, mut f: F) -> f64 {
    for _ in 0..config.warmups {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..config.reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// `reps` timed samples of `f` in execution order, after `warmups`
/// excluded runs — the single-arm version of the protocol, for bench
/// sections that report spread rather than a comparison.
pub fn samples<F: FnMut()>(config: AbConfig, mut f: F) -> Vec<f64> {
    for _ in 0..config.warmups {
        f();
    }
    let mut secs = Vec::with_capacity(config.reps);
    for _ in 0..config.reps {
        let start = Instant::now();
        f();
        secs.push(start.elapsed().as_secs_f64());
    }
    secs
}

/// Times two arms over shared state: both arms run `warmups` untimed
/// iterations first (so neither inherits the other's cold-cache
/// penalty — the shared-warm-state bias), then `reps` timed
/// iterations interleaved rep-by-rep (so host drift hits both arms).
pub fn interleaved<FA, FB>(
    config: AbConfig,
    label_a: &str,
    mut a: FA,
    label_b: &str,
    mut b: FB,
) -> AbOutcome
where
    FA: FnMut(),
    FB: FnMut(),
{
    for _ in 0..config.warmups {
        a();
        b();
    }
    let mut secs_a = Vec::with_capacity(config.reps);
    let mut secs_b = Vec::with_capacity(config.reps);
    for _ in 0..config.reps {
        let start = Instant::now();
        a();
        secs_a.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        b();
        secs_b.push(start.elapsed().as_secs_f64());
    }
    AbOutcome {
        a: ArmStats { label: label_a.to_string(), secs: secs_a },
        b: ArmStats { label: label_b.to_string(), secs: secs_b },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn warmups_are_excluded_from_samples() {
        let calls = AtomicUsize::new(0);
        let outcome = interleaved(
            AbConfig::new(2, 3),
            "a",
            || {
                calls.fetch_add(1, Ordering::SeqCst);
            },
            "b",
            || {
                calls.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(calls.load(Ordering::SeqCst), 10, "2 warmups + 3 reps per arm");
        assert_eq!(outcome.a.secs.len(), 3);
        assert_eq!(outcome.b.secs.len(), 3);
    }

    #[test]
    fn samples_exclude_warmups_and_keep_order() {
        let calls = AtomicUsize::new(0);
        let secs = samples(AbConfig::new(2, 4), || {
            calls.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(calls.load(Ordering::SeqCst), 6, "2 warmups + 4 reps");
        assert_eq!(secs.len(), 4);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 50.0), 3.0);
        assert_eq!(percentile(&samples, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn best_and_mean_summarise_samples() {
        let arm = ArmStats::from_samples("x", vec![2.0, 4.0]);
        assert_eq!(arm.best(), 2.0);
        assert_eq!(arm.mean(), 3.0);
        assert_eq!(arm.percentile(100.0), 4.0);
    }
}
