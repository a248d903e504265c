//! Hashed timer wheel scheduling the per-instance gossip cadence of a
//! [`Cluster`](crate::Cluster).
//!
//! One process multiplexes hundreds-to-thousands of protocol instances;
//! each owes a `tick` every gossip period `T` (§3.3 — periods are *not*
//! synchronized across processes). A wheel keeps that O(1) per
//! schedule/fire: deadlines hash into `slot = tick % slots` buckets and
//! [`TimerWheel::advance`] only touches the buckets the clock actually
//! crossed, so a recv storm that calls `advance` thousands of times
//! between deadlines does near-zero work per call.
//!
//! Time is quantized to the wheel granularity; deadlines round *up*, so
//! a timer never fires early. Keys are caller-chosen `usize`s (instance
//! indices); rescheduling is the caller's job after a fire (periodic
//! timers re-arm with `schedule`).

use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
struct Entry {
    due: u64, // absolute wheel tick
    key: usize,
}

/// A hashed timing wheel over caller-chosen `usize` keys.
#[derive(Debug)]
pub struct TimerWheel {
    start: Instant,
    granularity: Duration,
    slots: Vec<Vec<Entry>>,
    /// Absolute tick the wheel has been advanced to: every entry with
    /// `due <= cursor` has already fired.
    cursor: u64,
    armed: usize,
}

impl TimerWheel {
    /// Creates a wheel with `slots` buckets of `granularity` width.
    /// Granularities below 1µs and zero slot counts are clamped.
    #[expect(
        clippy::disallowed_methods,
        reason = "D2 waiver: the real-clock runtime's timer wheel is anchored to the wall clock"
    )]
    pub fn new(granularity: Duration, slots: usize) -> Self {
        TimerWheel {
            start: Instant::now(),
            granularity: granularity.max(Duration::from_micros(1)),
            slots: vec![Vec::new(); slots.max(1)],
            cursor: 0,
            armed: 0,
        }
    }

    /// Absolute wheel tick containing `at`, rounding up so deadlines
    /// never fire early.
    fn tick_of(&self, at: Instant) -> u64 {
        let elapsed = at.saturating_duration_since(self.start);
        let g = self.granularity.as_nanos().max(1);
        let ticks = elapsed.as_nanos().div_ceil(g);
        u64::try_from(ticks).unwrap_or(u64::MAX)
    }

    /// Arms `key` to fire at `deadline`. Deadlines at or before the
    /// wheel's current position fire on the next [`advance`](Self::advance).
    pub fn schedule(&mut self, key: usize, deadline: Instant) {
        let due = self.tick_of(deadline).max(self.cursor.saturating_add(1));
        let slot_count = self.slots.len().max(1) as u64;
        let idx = usize::try_from(due % slot_count).unwrap_or(0);
        if let Some(slot) = self.slots.get_mut(idx) {
            slot.push(Entry { due, key });
            self.armed = self.armed.saturating_add(1);
        }
    }

    /// Advances the wheel to `now`, appending every key whose deadline
    /// passed to `fired` (in bucket order). Returns how many fired.
    pub fn advance(&mut self, now: Instant, fired: &mut Vec<usize>) -> usize {
        let target = self.tick_of(now);
        if target <= self.cursor || self.armed == 0 {
            self.cursor = self.cursor.max(target);
            return 0;
        }
        let slot_count = self.slots.len().max(1) as u64;
        // Visiting more than one full lap re-inspects the same buckets;
        // one pass over every bucket suffices when the clock jumps far.
        let steps = (target - self.cursor).min(slot_count);
        let mut count = 0usize;
        for step in 1..=steps {
            let tick = self.cursor.saturating_add(step);
            let idx = usize::try_from(tick % slot_count).unwrap_or(0);
            let Some(slot) = self.slots.get_mut(idx) else {
                continue;
            };
            // Entries in this bucket due on a *later* lap stay put.
            let mut i = 0;
            while i < slot.len() {
                if slot.get(i).is_some_and(|e| e.due <= target) {
                    let entry = slot.swap_remove(i);
                    fired.push(entry.key);
                    count = count.saturating_add(1);
                } else {
                    i = i.saturating_add(1);
                }
            }
        }
        self.cursor = target;
        self.armed = self.armed.saturating_sub(count);
        count
    }

    /// Earliest armed deadline, if any — what an event loop should cap
    /// its poll timeout to. O(armed entries).
    pub fn next_deadline(&self) -> Option<Instant> {
        let min_due = self
            .slots
            .iter()
            .flat_map(|s| s.iter().map(|e| e.due))
            .min()?;
        // A deadline the cursor already passed is due immediately.
        let due = min_due.max(self.cursor);
        let nanos = u128::from(due).saturating_mul(self.granularity.as_nanos().max(1));
        let dur = u64::try_from(nanos).map_or(Duration::MAX, Duration::from_nanos);
        self.start.checked_add(dur).or(Some(self.start))
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.armed
    }

    /// Whether no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.armed == 0
    }

    /// The wheel's quantum.
    pub fn granularity(&self) -> Duration {
        self.granularity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: Duration = Duration::from_millis(1);

    #[test]
    fn fires_in_deadline_order_not_before() {
        let mut wheel = TimerWheel::new(G, 8);
        let t0 = wheel.start;
        wheel.schedule(1, t0 + Duration::from_millis(5));
        wheel.schedule(2, t0 + Duration::from_millis(3));
        assert_eq!(wheel.len(), 2);

        let mut fired = Vec::new();
        // Before the first deadline: nothing.
        wheel.advance(t0 + Duration::from_millis(2), &mut fired);
        assert!(fired.is_empty());
        // Crossing 3ms fires key 2 only.
        wheel.advance(t0 + Duration::from_millis(3), &mut fired);
        assert_eq!(fired, vec![2]);
        fired.clear();
        wheel.advance(t0 + Duration::from_millis(10), &mut fired);
        assert_eq!(fired, vec![1]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn far_future_deadline_survives_wheel_laps() {
        // 4 slots × 1ms: a 9ms deadline shares a bucket with ~1ms ticks.
        let mut wheel = TimerWheel::new(G, 4);
        let t0 = wheel.start;
        wheel.schedule(42, t0 + Duration::from_millis(9));
        let mut fired = Vec::new();
        for ms in 1..9 {
            wheel.advance(t0 + Duration::from_millis(ms), &mut fired);
            assert!(fired.is_empty(), "fired {fired:?} early at {ms}ms");
        }
        wheel.advance(t0 + Duration::from_millis(9), &mut fired);
        assert_eq!(fired, vec![42]);
    }

    #[test]
    fn cadence_holds_under_recv_storm_advances() {
        // A recv storm means advance() is called very often with tiny
        // increments; a periodic re-arming timer must fire once per
        // period, never more, and the storm itself must not starve it.
        let mut wheel = TimerWheel::new(G, 32);
        let t0 = wheel.start;
        let period = Duration::from_millis(10);
        wheel.schedule(0, t0 + period);
        let mut fires = 0u32;
        let mut fired = Vec::new();
        // 10_000 advance calls sweeping 100ms in 10µs steps.
        for step in 1..=10_000u32 {
            let now = t0 + Duration::from_micros(u64::from(step) * 10);
            wheel.advance(now, &mut fired);
            for _ in fired.drain(..) {
                fires += 1;
                wheel.schedule(0, now + period);
            }
        }
        // 100ms / 10ms period = 10 fires (±1 for quantization).
        assert!((9..=11).contains(&fires), "got {fires} fires");
    }

    #[test]
    fn next_deadline_tracks_earliest_entry() {
        let mut wheel = TimerWheel::new(G, 8);
        let t0 = wheel.start;
        assert!(wheel.next_deadline().is_none());
        wheel.schedule(1, t0 + Duration::from_millis(20));
        wheel.schedule(2, t0 + Duration::from_millis(7));
        let next = wheel.next_deadline().expect("armed");
        let offset = next.saturating_duration_since(t0);
        assert_eq!(offset, Duration::from_millis(7));
        let mut fired = Vec::new();
        wheel.advance(t0 + Duration::from_millis(8), &mut fired);
        assert_eq!(fired, vec![2]);
        let next = wheel.next_deadline().expect("one left");
        assert_eq!(
            next.saturating_duration_since(t0),
            Duration::from_millis(20)
        );
    }

    #[test]
    fn past_deadlines_fire_on_next_advance() {
        let mut wheel = TimerWheel::new(G, 8);
        let t0 = wheel.start;
        let mut fired = Vec::new();
        wheel.advance(t0 + Duration::from_millis(50), &mut fired);
        // Scheduled "in the past" relative to the cursor:
        wheel.schedule(9, t0 + Duration::from_millis(1));
        wheel.advance(t0 + Duration::from_millis(51), &mut fired);
        assert_eq!(fired, vec![9]);
    }
}
