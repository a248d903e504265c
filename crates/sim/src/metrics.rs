//! Infection and reliability metrics.
//!
//! # Layout
//!
//! The tracker interns every `ProcessId` it sees into a dense slot and
//! keeps one record per event in a `Vec`, found through an
//! `EventId → position` map. A record holds a flat `Vec<u32>` of
//! first-seen rounds indexed by slot (sentinel-encoded for "unseen") and a
//! maintained infected count. The engine resolves the slot of a node once
//! per step output, so recording a sighting is one map probe plus one
//! cell write — no sort, no per-sighting intern probe, and no nested
//! `HashMap<EventId, HashSet<ProcessId>>` walks on the simulator's hot
//! path. The query API is unchanged from the original
//! hash-based tracker.

use lpbcast_types::{EventId, ProcessId};

use lpbcast_types::FastMap;

/// Sentinel: the process has not seen the event.
const UNSEEN: u32 = u32::MAX;

/// A round as stored in a first-seen cell, saturating below the sentinel.
fn round_cell(round: u64) -> u32 {
    round.min(u64::from(UNSEEN) - 1) as u32
}

/// Per-event dense state.
#[derive(Debug, Clone)]
struct EventRecord {
    /// The event, for [`InfectionTracker::published_events`].
    id: EventId,
    /// Round of publication, if [`InfectionTracker::record_publish`] ran.
    publish_round: Option<u64>,
    /// First-seen round per intern slot, sentinel-encoded.
    first_seen: Vec<u32>,
    /// Number of non-[`UNSEEN`] entries (maintained incrementally).
    seen_count: usize,
}

impl EventRecord {
    fn new(id: EventId) -> Self {
        EventRecord {
            id,
            publish_round: None,
            first_seen: Vec::new(),
            seen_count: 0,
        }
    }

    /// Marks `slot` seen at `round`; keeps the first round on
    /// re-sightings.
    fn mark(&mut self, slot: u32, round: u32) {
        let slot = slot as usize;
        if self.first_seen.len() <= slot {
            self.first_seen.resize(slot + 1, UNSEEN);
        }
        let cell = &mut self.first_seen[slot];
        if *cell == UNSEEN {
            *cell = round;
            self.seen_count += 1;
        }
    }
}

/// Tracks which processes have seen which events, and when events were
/// published.
///
/// "Seen" follows the paper's §5.2 measurement convention when digest
/// deliveries are enabled: payload deliveries and digest-learnt ids both
/// count.
#[derive(Debug, Clone, Default)]
pub struct InfectionTracker {
    /// `ProcessId` → dense intern slot.
    intern: FastMap<ProcessId, u32>,
    /// `EventId` → position in `records`.
    index: FastMap<EventId, u32>,
    /// One record per event, in the order the tracker first met them.
    records: Vec<EventRecord>,
}

impl InfectionTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// The dense slot of `process`, interned on first use. The engine
    /// resolves it once per step output and hands the sightings of that
    /// output to [`record_slot_batch`](Self::record_slot_batch).
    pub(crate) fn slot(&mut self, process: ProcessId) -> u32 {
        let next = self.intern.len() as u32;
        *self.intern.entry(process).or_insert(next)
    }

    /// The record of `id`, created on first use.
    fn record(&mut self, id: EventId) -> &mut EventRecord {
        let next = self.records.len() as u32;
        let at = *self.index.entry(id).or_insert(next);
        if at == next {
            self.records.push(EventRecord::new(id));
        }
        &mut self.records[at as usize]
    }

    fn get(&self, id: EventId) -> Option<&EventRecord> {
        self.index.get(&id).map(|&at| &self.records[at as usize])
    }

    /// Records that `origin` published `id` at `round` (the origin counts
    /// as infected — s₀ = 1, latency 0).
    pub fn record_publish(&mut self, id: EventId, origin: ProcessId, round: u64) {
        let slot = self.slot(origin);
        let record = self.record(id);
        record.publish_round = Some(round);
        record.mark(slot, round_cell(round));
    }

    /// Records that `process` has seen `id` (payload delivery or learnt
    /// digest id) at `round`. Re-sightings keep the first round.
    pub fn record_seen_at(&mut self, id: EventId, process: ProcessId, round: u64) {
        let slot = self.slot(process);
        self.record(id).mark(slot, round_cell(round));
    }

    /// Records a whole step's sightings in one call, all at `round`, each
    /// with its process already resolved to its [`slot`](Self::slot): one
    /// record probe and one cell write per sighting. Re-sightings keep the
    /// first round.
    ///
    /// The batch vector is drained (left empty, capacity retained) so
    /// the caller can reuse its allocation across steps.
    pub(crate) fn record_slot_batch(&mut self, round: u64, sightings: &mut Vec<(EventId, u32)>) {
        let round = round_cell(round);
        for (id, slot) in sightings.drain(..) {
            self.record(id).mark(slot, round);
        }
    }

    fn first_seen_cell(&self, id: EventId, process: ProcessId) -> Option<u32> {
        let slot = *self.intern.get(&process)? as usize;
        let cell = *self.get(id)?.first_seen.get(slot)?;
        (cell != UNSEEN).then_some(cell)
    }

    /// Rounds between the publication of `id` and `process` first seeing
    /// it; `None` if untracked or unseen.
    pub fn delivery_latency(&self, id: EventId, process: ProcessId) -> Option<u64> {
        let published = self.get(id)?.publish_round?;
        let first = self.first_seen_cell(id, process)?;
        Some((first as u64).saturating_sub(published))
    }

    /// Histogram of delivery latencies for `id`: `hist[d]` = processes
    /// that first saw it `d` rounds after publication.
    pub fn latency_histogram(&self, id: EventId) -> Vec<usize> {
        let Some(record) = self.get(id) else {
            return Vec::new();
        };
        let Some(published) = record.publish_round else {
            return Vec::new();
        };
        let latencies: Vec<u64> = record
            .first_seen
            .iter()
            .filter(|&&cell| cell != UNSEEN)
            .map(|&cell| (cell as u64).saturating_sub(published))
            .collect();
        if latencies.is_empty() {
            return Vec::new();
        }
        let max = latencies.iter().copied().max().unwrap_or(0) as usize;
        let mut hist = vec![0usize; max + 1];
        for d in latencies {
            hist[d as usize] += 1;
        }
        hist
    }

    /// Mean delivery latency of `id` over the processes that saw it
    /// (origin included at latency 0); `None` if untracked.
    pub fn mean_latency(&self, id: EventId) -> Option<f64> {
        let hist = self.latency_histogram(id);
        let count: usize = hist.iter().sum();
        if count == 0 {
            return None;
        }
        let total: usize = hist.iter().enumerate().map(|(d, &c)| d * c).sum();
        Some(total as f64 / count as f64)
    }

    /// How many processes have seen `id`.
    pub fn infected_count(&self, id: EventId) -> usize {
        self.get(id).map_or(0, |r| r.seen_count)
    }

    /// Whether `process` has seen `id`.
    pub fn has_seen(&self, id: EventId, process: ProcessId) -> bool {
        self.first_seen_cell(id, process).is_some()
    }

    /// The round `id` was published, if tracked.
    pub fn published_at(&self, id: EventId) -> Option<u64> {
        self.get(id)?.publish_round
    }

    /// All tracked events with their publish rounds.
    pub fn published_events(&self) -> impl Iterator<Item = (EventId, u64)> + '_ {
        self.records
            .iter()
            .filter_map(|r| r.publish_round.map(|round| (r.id, round)))
    }

    /// Fraction of `population` that has seen `id` — the per-event
    /// reliability (1 − β for that event).
    pub fn reliability_of(&self, id: EventId, population: usize) -> f64 {
        if population == 0 {
            return 0.0;
        }
        self.infected_count(id) as f64 / population as f64
    }

    /// Builds the reliability report over events published in
    /// `rounds` (inclusive window), against a fixed population size.
    pub fn reliability_report(
        &self,
        window: std::ops::RangeInclusive<u64>,
        population: usize,
    ) -> ReliabilityReport {
        let mut per_event: Vec<f64> = self
            .published_events()
            .filter(|(_, round)| window.contains(round))
            .map(|(id, _)| self.reliability_of(id, population))
            .collect();
        per_event.sort_by(|a, b| a.partial_cmp(b).expect("reliability is finite"));
        ReliabilityReport::from_sorted(per_event)
    }
}

/// Distribution of per-event reliability over a measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityReport {
    /// Per-event delivery fractions, ascending.
    pub per_event: Vec<f64>,
    /// Mean reliability — the paper's 1 − β estimate.
    pub mean: f64,
    /// Worst event.
    pub min: f64,
    /// Median event.
    pub median: f64,
}

impl ReliabilityReport {
    fn from_sorted(per_event: Vec<f64>) -> Self {
        if per_event.is_empty() {
            return ReliabilityReport {
                per_event,
                mean: 0.0,
                min: 0.0,
                median: 0.0,
            };
        }
        let mean = per_event.iter().sum::<f64>() / per_event.len() as f64;
        let min = per_event[0];
        let median = per_event[per_event.len() / 2];
        ReliabilityReport {
            per_event,
            mean,
            min,
            median,
        }
    }

    /// Number of events measured.
    pub fn event_count(&self) -> usize {
        self.per_event.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(p: u64) -> ProcessId {
        ProcessId::new(p)
    }

    fn eid(p: u64, s: u64) -> EventId {
        EventId::new(pid(p), s)
    }

    #[test]
    fn publish_counts_origin_as_infected() {
        let mut t = InfectionTracker::new();
        t.record_publish(eid(0, 0), pid(0), 0);
        assert_eq!(t.infected_count(eid(0, 0)), 1);
        assert!(t.has_seen(eid(0, 0), pid(0)));
        assert_eq!(t.published_at(eid(0, 0)), Some(0));
    }

    #[test]
    fn seen_is_idempotent() {
        let mut t = InfectionTracker::new();
        t.record_publish(eid(0, 0), pid(0), 0);
        t.record_seen_at(eid(0, 0), pid(1), 1);
        t.record_seen_at(eid(0, 0), pid(1), 2);
        assert_eq!(t.infected_count(eid(0, 0)), 2);
    }

    #[test]
    fn reliability_fractions() {
        let mut t = InfectionTracker::new();
        t.record_publish(eid(0, 0), pid(0), 5);
        for p in 1..8 {
            t.record_seen_at(eid(0, 0), pid(p), 6);
        }
        assert!((t.reliability_of(eid(0, 0), 10) - 0.8).abs() < 1e-12);
        assert_eq!(t.reliability_of(eid(9, 9), 10), 0.0, "unknown event");
    }

    #[test]
    fn report_windows_and_statistics() {
        let mut t = InfectionTracker::new();
        // Event inside the window: 100% of 4.
        t.record_publish(eid(0, 0), pid(0), 10);
        for p in 1..4 {
            t.record_seen_at(eid(0, 0), pid(p), 11);
        }
        // Another inside: 50%.
        t.record_publish(eid(1, 0), pid(1), 12);
        t.record_seen_at(eid(1, 0), pid(2), 13);
        // Outside the window: ignored.
        t.record_publish(eid(2, 0), pid(2), 99);

        let report = t.reliability_report(10..=20, 4);
        assert_eq!(report.event_count(), 2);
        assert!((report.mean - 0.75).abs() < 1e-12);
        assert!((report.min - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_report() {
        let t = InfectionTracker::new();
        let report = t.reliability_report(0..=10, 5);
        assert_eq!(report.event_count(), 0);
        assert_eq!(report.mean, 0.0);
    }

    #[test]
    fn sighting_without_publish_still_counts() {
        // The original hash-based tracker recorded sightings of events it
        // never saw published; the dense tracker must too.
        let mut t = InfectionTracker::new();
        t.record_seen_at(eid(4, 4), pid(1), 3);
        assert_eq!(t.infected_count(eid(4, 4)), 1);
        assert!(t.has_seen(eid(4, 4), pid(1)));
        assert_eq!(t.published_at(eid(4, 4)), None);
        assert_eq!(t.delivery_latency(eid(4, 4), pid(1)), None);
        assert!(t.latency_histogram(eid(4, 4)).is_empty());
        assert_eq!(t.published_events().count(), 0);
    }
}

#[cfg(test)]
mod latency_tests {
    use super::*;

    fn pid(p: u64) -> ProcessId {
        ProcessId::new(p)
    }

    fn eid(p: u64, s: u64) -> EventId {
        EventId::new(pid(p), s)
    }

    #[test]
    fn latency_counts_from_publish_round() {
        let mut t = InfectionTracker::new();
        t.record_publish(eid(0, 0), pid(0), 5);
        t.record_seen_at(eid(0, 0), pid(1), 6);
        t.record_seen_at(eid(0, 0), pid(2), 8);
        assert_eq!(t.delivery_latency(eid(0, 0), pid(0)), Some(0));
        assert_eq!(t.delivery_latency(eid(0, 0), pid(1)), Some(1));
        assert_eq!(t.delivery_latency(eid(0, 0), pid(2)), Some(3));
        assert_eq!(t.delivery_latency(eid(0, 0), pid(9)), None);
    }

    #[test]
    fn resighting_keeps_first_round() {
        let mut t = InfectionTracker::new();
        t.record_publish(eid(0, 0), pid(0), 0);
        t.record_seen_at(eid(0, 0), pid(1), 2);
        t.record_seen_at(eid(0, 0), pid(1), 7);
        assert_eq!(t.delivery_latency(eid(0, 0), pid(1)), Some(2));
    }

    #[test]
    fn histogram_and_mean() {
        let mut t = InfectionTracker::new();
        t.record_publish(eid(0, 0), pid(0), 10);
        t.record_seen_at(eid(0, 0), pid(1), 11);
        t.record_seen_at(eid(0, 0), pid(2), 11);
        t.record_seen_at(eid(0, 0), pid(3), 13);
        let hist = t.latency_histogram(eid(0, 0));
        assert_eq!(hist, vec![1, 2, 0, 1]); // origin@0, two@1, one@3
        assert!((t.mean_latency(eid(0, 0)).unwrap() - 5.0 / 4.0).abs() < 1e-12);
        assert!(t.mean_latency(eid(9, 9)).is_none());
        assert!(t.latency_histogram(eid(9, 9)).is_empty());
    }
}

#[cfg(test)]
mod model_tests {
    use super::*;
    use proptest::prelude::*;

    /// The recording path of one sighting.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Path {
        Publish,
        SeenAt,
        /// Into the round's `(EventId, slot)` batch, the engine's path.
        SlotBatch,
    }

    /// A path, one of twelve events of origin 1 (some never published)
    /// and a process below 48, which the test caps per round so that
    /// processes first appear late.
    fn call() -> impl Strategy<Value = (Path, usize, u64)> {
        let paths = [Path::Publish, Path::SeenAt, Path::SlotBatch];
        (0usize..3, 0usize..12, 0u64..48).prop_map(move |(path, e, p)| (paths[path], e, p))
    }

    /// The naive tracker: first-seen rounds by `(event, process)` and
    /// publish rounds by event.
    #[derive(Default)]
    struct Naive {
        first: FastMap<(EventId, ProcessId), u64>,
        published: FastMap<EventId, u64>,
    }

    impl Naive {
        fn seen(&mut self, id: EventId, process: ProcessId, round: u64) {
            self.first.entry((id, process)).or_insert(round);
        }

        fn latency_histogram(&self, id: EventId) -> Vec<usize> {
            let Some(&published) = self.published.get(&id) else {
                return Vec::new();
            };
            let mut hist = Vec::new();
            for (_, &round) in self.first.iter().filter(|((e, _), _)| *e == id) {
                let d = round.saturating_sub(published) as usize;
                if hist.len() <= d {
                    hist.resize(d + 1, 0);
                }
                hist[d] += 1;
            }
            hist
        }

        fn reliability(
            &self,
            window: std::ops::RangeInclusive<u64>,
            population: usize,
        ) -> Vec<f64> {
            let mut per_event: Vec<f64> = self
                .published
                .iter()
                .filter(|(_, round)| window.contains(round))
                .map(|(id, _)| {
                    let count = self.first.keys().filter(|(e, _)| e == id).count();
                    count as f64 / population as f64
                })
                .collect();
            per_event.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            per_event
        }
    }

    proptest! {
        /// Random sighting streams — re-sightings, unpublished ids,
        /// sightings in later rounds, processes that first appear late,
        /// through every recording path — answer every query as the naive
        /// `(event, process) → round` map does.
        #[test]
        fn tracker_matches_the_naive_map(
            rounds in proptest::collection::vec(
                (1u64..4, proptest::collection::vec(call(), 0..40)),
                0..12,
            ),
            caps in proptest::collection::vec(4u64..=48, 12),
        ) {
            let events: Vec<EventId> = (0..12).map(|seq| EventId::new(ProcessId::new(1), seq)).collect();
            let (mut tracker, mut naive) = (InfectionTracker::new(), Naive::default());
            let mut round = 0;
            for (k, (gap, calls)) in rounds.iter().enumerate() {
                round += gap;
                let mut slot_batch = Vec::new();
                for &(path, e, p) in calls {
                    let (id, process) = (events[e], ProcessId::new(p % caps[k]));
                    match path {
                        Path::Publish => tracker.record_publish(id, process, round),
                        Path::SeenAt => tracker.record_seen_at(id, process, round),
                        Path::SlotBatch => slot_batch.push((id, tracker.slot(process))),
                    }
                    if path == Path::Publish {
                        naive.published.insert(id, round);
                    }
                    naive.seen(id, process, round);
                }
                tracker.record_slot_batch(round, &mut slot_batch);
                prop_assert!(slot_batch.is_empty(), "batch drained");
            }
            for &id in events.iter().chain([&EventId::new(ProcessId::new(2), 0)]) {
                let infected = naive.first.keys().filter(|(e, _)| *e == id).count();
                prop_assert_eq!(tracker.infected_count(id), infected, "{}", id);
                prop_assert_eq!(tracker.published_at(id), naive.published.get(&id).copied());
                prop_assert_eq!(tracker.latency_histogram(id), naive.latency_histogram(id));
                for process in (0..50).map(ProcessId::new) {
                    let first = naive.first.get(&(id, process)).copied();
                    let latency = naive.published.get(&id).and_then(|&published| {
                        first.map(|round| round.saturating_sub(published))
                    });
                    prop_assert_eq!(tracker.has_seen(id, process), first.is_some());
                    prop_assert_eq!(tracker.delivery_latency(id, process), latency);
                }
            }
            for (window, population) in [(0..=round, 50), (round / 2..=round, 7), (3..=5, 1)] {
                let report = tracker.reliability_report(window.clone(), population);
                prop_assert_eq!(report.per_event, naive.reliability(window, population));
            }
        }
    }
}
