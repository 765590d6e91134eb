//! Order statistics and failure accounting for one benchmark run.

/// A p90 is reported only from a run that holds at least this many
/// samples, so that ten of them lie beyond it.
pub const P90_MIN_SAMPLES: usize = 100;

/// Nearest-rank percentile: the `ceil(p/100 · n)`-th smallest sample
/// (the smallest for `p = 0`). `None` for an empty sample.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 50.0)
}

/// The nearest-rank p90, or `None` when the sample is below
/// [`P90_MIN_SAMPLES`].
pub fn p90(samples: &[f64]) -> Option<f64> {
    if samples.len() < P90_MIN_SAMPLES {
        return None;
    }
    nearest_rank(samples, 90.0)
}

/// `num / den`, with 0 for an empty denominator (a layer that never ran).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Why one operation (a `repro` process or a served request) failed.
/// An operation counts as failed once, under the first kind found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// No connection, or no response head.
    Connect,
    /// A response status other than 200.
    Status,
    /// The stream carried an `error` event.
    ErrorEvent,
    /// The stream ended without a `done` event.
    MissingDone,
    /// No `timing` trailer, or one whose phases do not reconcile with
    /// its `total_us`.
    Timing,
    /// The process exited unsuccessfully.
    Exit,
    /// The report bytes differ from the reference.
    Mismatch,
}

impl Failure {
    /// The label the run summary prints.
    pub fn label(self) -> &'static str {
        match self {
            Failure::Connect => "connect",
            Failure::Status => "status",
            Failure::ErrorEvent => "error-event",
            Failure::MissingDone => "missing-done",
            Failure::Timing => "timing",
            Failure::Exit => "exit",
            Failure::Mismatch => "mismatch",
        }
    }
}

/// Attempted and failed operations of one run.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// The failure of each failed operation, one entry per operation.
    pub failures: Vec<Failure>,
}

impl Tally {
    /// Records one operation: `None` when it succeeded.
    pub fn record(&mut self, outcome: Option<Failure>) {
        self.attempted += 1;
        if let Some(failure) = outcome {
            self.failures.push(failure);
        }
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failed operations divided by attempted ones.
    pub fn failed_share(&self) -> f64 {
        ratio(self.failed() as f64, self.attempted as f64)
    }

    /// `kind=count` for each failure kind seen, for the run summary.
    pub fn breakdown(&self) -> String {
        let mut kinds = self.failures.clone();
        kinds.sort();
        kinds.dedup();
        kinds
            .iter()
            .map(|k| {
                format!(
                    "{}={}",
                    k.label(),
                    self.failures.iter().filter(|f| *f == k).count()
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(
            nearest_rank(&samples, 50.0),
            Some(3.0),
            "rank ceil(2.5) = 3"
        );
        assert_eq!(
            nearest_rank(&samples, 90.0),
            Some(5.0),
            "rank ceil(4.5) = 5"
        );
        assert_eq!(nearest_rank(&samples, 20.0), Some(1.0), "rank exactly 1");
        assert_eq!(nearest_rank(&samples, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&samples, 100.0), Some(5.0));
        assert_eq!(
            median(&[2.0, 1.0, 4.0, 3.0]),
            Some(2.0),
            "the lower middle of an even sample"
        );
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90(&ninety_nine), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90(&hundred), Some(90.0), "ten samples lie beyond it");
        let reversed: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(p90(&reversed), Some(180.0));
    }

    #[test]
    fn each_failed_operation_counts_once() {
        let mut tally = Tally::default();
        tally.record(None);
        tally.record(Some(Failure::Connect));
        tally.record(Some(Failure::Mismatch));
        tally.record(Some(Failure::Mismatch));
        tally.record(None);
        assert_eq!(tally.attempted, 5);
        assert_eq!(tally.failed(), 3);
        assert!((tally.failed_share() - 0.6).abs() < 1e-12);
        assert_eq!(tally.breakdown(), "connect=1 mismatch=2");
        assert_eq!(
            Tally::default().failed_share(),
            0.0,
            "nothing attempted, nothing failed"
        );
    }
}
