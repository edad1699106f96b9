//! Open-loop arrival schedule: requests fall due on a fixed grid
//! `start + k * period`, whatever the system under test is doing.

use std::time::{Duration, Instant};

/// What an open-loop generator should do at a given instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// The next slot is not due yet; sleep this long.
    Wait(Duration),
    /// Issue the request of slot `index` now.
    Fire {
        /// Grid index of the slot being issued.
        index: u64,
        /// How late it is issued relative to its due time.
        late: Duration,
    },
}

/// A fixed-rate schedule that never issues catch-up bursts: when the
/// generator falls more than one period behind, the slots already overtaken
/// by a later due slot are skipped (and counted) instead of being fired back
/// to back, so a stall cannot be hidden behind a burst of fast requests.
/// How late the generator ran is recorded either way.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    start: Instant,
    period: Duration,
    next: u64,
    late_max: Duration,
    skipped: u64,
    fired: u64,
}

impl OpenLoop {
    /// A schedule whose slot 0 is due at `start`.
    pub fn new(start: Instant, period: Duration) -> Self {
        assert!(!period.is_zero(), "open-loop period must be positive");
        Self {
            start,
            period,
            next: 0,
            late_max: Duration::ZERO,
            skipped: 0,
            fired: 0,
        }
    }

    /// Due time of slot `index`.
    pub fn due(&self, index: u64) -> Instant {
        due(self.start, self.period, index)
    }

    /// Decide what to do at `now`.
    pub fn poll(&mut self, now: Instant) -> Slot {
        let due = self.due(self.next);
        if now < due {
            return Slot::Wait(due - now);
        }
        // The generator's lateness is measured against the oldest slot it
        // still owed, before any skipping.
        self.late_max = self.late_max.max(now - due);
        let overtaken = ((now - due).as_nanos() / self.period.as_nanos()) as u64;
        let index = self.next + overtaken;
        self.skipped += overtaken;
        self.fired += 1;
        self.next = index + 1;
        Slot::Fire {
            index,
            late: now - self.due(index),
        }
    }

    /// Largest lateness seen so far.
    pub fn late_max(&self) -> Duration {
        self.late_max
    }

    /// Slots skipped because the generator fell behind.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Slots fired.
    pub fn fired(&self) -> u64 {
        self.fired
    }
}

/// Due time of slot `index` on the grid `start + index * period`.
pub fn due(start: Instant, period: Duration, index: u64) -> Instant {
    start + Duration::from_nanos((period.as_nanos() * index as u128) as u64)
}

/// Sleep until `deadline` (returns at once when it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn waits_until_due_and_fires_in_order() {
        let t0 = Instant::now();
        let mut s = OpenLoop::new(t0, MS);
        assert_eq!(
            s.poll(t0),
            Slot::Fire {
                index: 0,
                late: Duration::ZERO
            }
        );
        assert_eq!(s.poll(t0 + MS / 2), Slot::Wait(MS / 2));
        assert_eq!(
            s.poll(t0 + MS),
            Slot::Fire {
                index: 1,
                late: Duration::ZERO
            }
        );
        assert_eq!(s.poll(t0 + MS + MS / 4), Slot::Wait(MS * 3 / 4));
        assert_eq!(s.skipped(), 0);
        assert_eq!(s.late_max(), Duration::ZERO);
    }

    #[test]
    fn stall_skips_overtaken_slots_instead_of_bursting() {
        let t0 = Instant::now();
        let mut s = OpenLoop::new(t0, MS);
        assert!(matches!(s.poll(t0), Slot::Fire { index: 0, .. }));
        // Stall: slots 1..=10 all fell due while the generator was away.
        let resumed = t0 + MS * 10 + MS / 5;
        assert_eq!(
            s.poll(resumed),
            Slot::Fire {
                index: 10,
                late: MS / 5
            }
        );
        assert_eq!(s.skipped(), 9);
        // Lateness is recorded against the oldest owed slot (slot 1).
        assert_eq!(s.late_max(), MS * 9 + MS / 5);
        // No burst: right after the stall the next slot is in the future.
        assert_eq!(s.poll(resumed), Slot::Wait(MS - MS / 5));
        assert_eq!(s.fired(), 2);
    }

    #[test]
    fn lateness_within_one_period_fires_the_owed_slot() {
        let t0 = Instant::now();
        let mut s = OpenLoop::new(t0, MS);
        let late = MS / 2;
        assert_eq!(s.poll(t0 + late), Slot::Fire { index: 0, late });
        assert_eq!(s.skipped(), 0);
        assert_eq!(s.late_max(), late);
    }

    #[test]
    fn grid_due_times() {
        let t0 = Instant::now();
        assert_eq!(due(t0, MS, 0), t0);
        assert_eq!(due(t0, MS * 250, 4), t0 + Duration::from_secs(1));
    }
}
