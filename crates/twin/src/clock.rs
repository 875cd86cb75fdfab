//! The twin's time source.
//!
//! The runtime is driven by a virtual clock, not the wall clock: time
//! only moves when the runtime advances it to the next delivery
//! instant or round barrier. That makes runs bit-identical regardless
//! of host load or worker count — wall-clock never enters the
//! schedule — while keeping the shape of a real event loop (the same
//! runtime later drives real sockets by swapping this clock for a
//! wall-clock sleeper).

use cs_sim::SimTime;

/// A monotone virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VirtualClock {
    now: SimTime,
}

impl VirtualClock {
    /// A clock at the origin of simulated time.
    pub fn new() -> Self {
        VirtualClock { now: SimTime::ZERO }
    }

    /// The current instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance to `t`.
    ///
    /// # Panics
    /// If `t` is in the past — the runtime delivers in due-time order,
    /// so a regression is a scheduling bug, never a recoverable
    /// condition.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "virtual clock regression: {t} < {}",
            self.now
        );
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance_to(SimTime::from_millis(50));
        assert_eq!(c.now(), SimTime::from_millis(50));
        // Advancing to the current instant is a no-op, not a regression.
        c.advance_to(SimTime::from_millis(50));
        assert_eq!(c.now(), SimTime::from_millis(50));
    }

    #[test]
    #[should_panic(expected = "regression")]
    fn regression_panics() {
        let mut c = VirtualClock::new();
        c.advance_to(SimTime::from_secs(2));
        c.advance_to(SimTime::from_secs(1));
    }
}
