//! Virtual time.
//!
//! Panoptes' crawl logic is full of wall-clock waits — "60 seconds since
//! the visit started", "an additional period of 5 seconds", "leave them
//! idle for 10 minutes" (§2.1, §3.5). In the reproduction all of these run
//! on a virtual clock so a 10-minute idle experiment completes in
//! microseconds and is bit-for-bit repeatable.

use std::fmt;

/// A point in virtual time, microseconds since the campaign epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimInstant(pub u64);

/// A span of virtual time in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From whole seconds.
    pub const fn from_secs(secs: u64) -> SimDuration {
        SimDuration(secs * 1_000_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000)
    }

    /// Whole seconds (truncating).
    pub fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Milliseconds (truncating).
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Saturating multiplication by an integer factor.
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl SimInstant {
    /// The campaign epoch.
    pub const EPOCH: SimInstant = SimInstant(0);

    /// Instant advanced by `d`.
    pub fn plus(self, d: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_add(d.0))
    }

    /// Duration elapsed since `earlier` (saturating at zero).
    pub fn since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl std::ops::Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        self.plus(rhs)
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}s", self.0 as f64 / 1_000_000.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0 as f64 / 1_000_000.0)
    }
}

/// The campaign clock: monotonically advancing virtual time.
#[derive(Debug, Default)]
pub struct SimClock {
    now: SimInstant,
}

impl SimClock {
    /// A clock at the epoch.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// Advances by `d` and returns the new time.
    pub fn advance(&mut self, d: SimDuration) -> SimInstant {
        self.now = self.now.plus(d);
        self.now
    }

    /// Jumps directly to `t`; panics if `t` is in the past — virtual time
    /// never runs backwards.
    pub fn advance_to(&mut self, t: SimInstant) {
        assert!(t >= self.now, "clock cannot run backwards ({t} < {})", self.now);
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimInstant::EPOCH + SimDuration::from_secs(60);
        assert_eq!(t.0, 60_000_000);
        assert_eq!(t.since(SimInstant::EPOCH), SimDuration::from_secs(60));
        assert_eq!(SimInstant::EPOCH.since(t), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_millis(1500).as_secs(),
            1,
        );
        assert_eq!(SimDuration::from_millis(1500).as_secs_f64(), 1.5);
    }

    #[test]
    fn clock_advances() {
        let mut clock = SimClock::new();
        assert_eq!(clock.now(), SimInstant::EPOCH);
        clock.advance(SimDuration::from_secs(5));
        clock.advance(SimDuration::from_millis(250));
        assert_eq!(clock.now().0, 5_250_000);
        clock.advance_to(SimInstant(6_000_000));
        assert_eq!(clock.now().0, 6_000_000);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn clock_rejects_backwards_jump() {
        let mut clock = SimClock::new();
        clock.advance(SimDuration::from_secs(10));
        clock.advance_to(SimInstant(1));
    }

    #[test]
    fn display_forms() {
        assert_eq!(SimInstant(1_500_000).to_string(), "t+1.500s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250s");
    }
}
