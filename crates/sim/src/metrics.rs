//! Infection and reliability metrics.
//!
//! # Layout
//!
//! The tracker interns every `ProcessId` it sees into a dense slot and
//! keeps one record per event in a `Vec`, found through an
//! `EventId → position` map. A record holds a flat vector of first-seen
//! rounds indexed by slot and a maintained infected count. The engine
//! interns a node's slot when the node enters its slab, so recording a
//! sighting is one map probe plus one cell write — no sort, no intern
//! probe, and no nested `HashMap<EventId, HashSet<ProcessId>>` walks on
//! the simulator's hot path.
//!
//! A record's cells are `u16`s, two bytes per (event, node). Each holds
//! the round as an offset from the record's first-marked round, plus
//! one, in its low 15 bits; 0 means unseen, so the cells come from one
//! zeroed allocation the size of the membership interned when the
//! record is created. The top bit is always clear, free for a tag of
//! the sighting's kind. The first time a mark lands before that base,
//! or more than 2¹⁵ − 2 rounds past it, the record widens once,
//! exactly, to absolute `u32` rounds with `u32::MAX` as the sentinel. A
//! slot interned after a record exists grows its cells, exactly, to the
//! slots interned by then. The query API is unchanged from the original
//! hash-based tracker.

use lpbcast_types::{EventId, ProcessId};

use lpbcast_types::FastMap;

/// Sentinel of a wide cell: the process has not seen the event.
const UNSEEN: u32 = u32::MAX;

/// The largest offset from its base that a narrow cell holds, 2¹⁵ − 2:
/// stored plus one, it leaves 0 for "unseen" and the top bit clear.
const NARROW_MAX: u32 = (1 << 15) - 2;

/// A round as stored in a first-seen cell, saturating below the sentinel.
fn round_cell(round: u64) -> u32 {
    round.min(u64::from(UNSEEN) - 1) as u32
}

/// The round a narrow cell over `base` holds, if it is seen.
fn unpack(base: u32, cell: u16) -> Option<u32> {
    (cell != 0).then(|| base + u32::from(cell) - 1)
}

/// Sets `cells[slot]` to `round` unless the slot was seen already, and
/// returns whether it was unseen. Cells past the end are first added up
/// to `slots`, the interned count, with no growth overshoot.
fn set_first<T: Copy + PartialEq>(
    cells: &mut Vec<T>,
    slot: usize,
    slots: usize,
    unseen: T,
    round: T,
) -> bool {
    if cells.len() <= slot {
        cells.reserve_exact(slots - cells.len());
        cells.resize(slots, unseen);
    }
    let cell = &mut cells[slot];
    let fresh = *cell == unseen;
    if fresh {
        *cell = round;
    }
    fresh
}

/// The first-seen rounds of one event, indexed by intern slot.
#[derive(Debug, Clone)]
enum Cells {
    /// `round − base + 1` per slot, 0 for unseen.
    Narrow { base: u32, cells: Vec<u16> },
    /// Absolute rounds, [`UNSEEN`] for unseen.
    Wide(Vec<u32>),
}

impl Cells {
    /// The round `slot` first saw the event, if it did.
    fn get(&self, slot: usize) -> Option<u32> {
        match self {
            Cells::Narrow { base, cells } => unpack(*base, *cells.get(slot)?),
            Cells::Wide(cells) => cells.get(slot).copied().filter(|&cell| cell != UNSEEN),
        }
    }

    /// Calls `f` with every first-seen round, in slot order.
    fn for_each_seen(&self, mut f: impl FnMut(u32)) {
        match self {
            Cells::Narrow { base, cells } => cells
                .iter()
                .filter_map(|&cell| unpack(*base, cell))
                .for_each(f),
            Cells::Wide(cells) => cells
                .iter()
                .filter(|&&cell| cell != UNSEEN)
                .for_each(|&cell| f(cell)),
        }
    }
}

/// Per-event dense state.
#[derive(Debug, Clone)]
struct EventRecord {
    /// The event, for [`InfectionTracker::published_events`].
    id: EventId,
    /// Round of publication, if [`InfectionTracker::record_publish`] ran.
    publish_round: Option<u64>,
    /// First-seen round per intern slot.
    cells: Cells,
    /// Number of seen cells (maintained incrementally).
    seen_count: usize,
}

impl EventRecord {
    /// A record whose first mark lands at `round`, with a cell for each
    /// of `slots` interned slots.
    fn new(id: EventId, round: u32, slots: usize) -> Self {
        EventRecord {
            id,
            publish_round: None,
            cells: Cells::Narrow {
                base: round,
                cells: vec![0; slots],
            },
            seen_count: 0,
        }
    }

    /// Marks `slot` seen at `round`; keeps the first round on
    /// re-sightings. `slots` is how many slots are interned.
    fn mark(&mut self, slot: usize, round: u32, slots: usize) {
        if let Cells::Narrow { base, cells } = &self.cells {
            if round
                .checked_sub(*base)
                .is_none_or(|offset| offset > NARROW_MAX)
            {
                let wide = cells
                    .iter()
                    .map(|&cell| unpack(*base, cell).unwrap_or(UNSEEN))
                    .collect();
                self.cells = Cells::Wide(wide);
            }
        }
        let fresh = match &mut self.cells {
            Cells::Narrow { base, cells } => {
                set_first(cells, slot, slots, 0, (round - *base + 1) as u16)
            }
            Cells::Wide(cells) => set_first(cells, slot, slots, UNSEEN, round),
        };
        self.seen_count += usize::from(fresh);
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
    /// interns each node as it enters the slab and hands the sightings of
    /// a step to [`record_slot_batch`](Self::record_slot_batch).
    pub(crate) fn slot(&mut self, process: ProcessId) -> u32 {
        let next = self.intern.len() as u32;
        *self.intern.entry(process).or_insert(next)
    }

    /// Marks `slot` as having seen `id` at `round`, creating the record on
    /// first use with a cell for every interned slot; returns the record.
    fn mark(&mut self, id: EventId, slot: u32, round: u32) -> &mut EventRecord {
        let slots = self.intern.len();
        let next = self.records.len() as u32;
        let at = *self.index.entry(id).or_insert(next);
        if at == next {
            self.records.push(EventRecord::new(id, round, slots));
        }
        let record = &mut self.records[at as usize];
        record.mark(slot as usize, round, slots);
        record
    }

    fn get(&self, id: EventId) -> Option<&EventRecord> {
        self.index.get(&id).map(|&at| &self.records[at as usize])
    }

    /// Records that `origin` published `id` at `round` (the origin counts
    /// as infected — s₀ = 1, latency 0).
    pub fn record_publish(&mut self, id: EventId, origin: ProcessId, round: u64) {
        let slot = self.slot(origin);
        self.mark(id, slot, round_cell(round)).publish_round = Some(round);
    }

    /// Records that `process` has seen `id` (payload delivery or learnt
    /// digest id) at `round`. Re-sightings keep the first round.
    pub fn record_seen_at(&mut self, id: EventId, process: ProcessId, round: u64) {
        let slot = self.slot(process);
        self.mark(id, slot, round_cell(round));
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
            self.mark(id, slot, round);
        }
    }

    fn first_seen_cell(&self, id: EventId, process: ProcessId) -> Option<u32> {
        let slot = *self.intern.get(&process)? as usize;
        self.get(id)?.cells.get(slot)
    }

    /// The bytes `id`'s cells hold allocated.
    #[cfg(test)]
    fn cell_bytes(&self, id: EventId) -> usize {
        match &self.get(id).expect("tracked event").cells {
            Cells::Narrow { cells, .. } => cells.capacity() * std::mem::size_of::<u16>(),
            Cells::Wide(cells) => cells.capacity() * std::mem::size_of::<u32>(),
        }
    }

    /// Rounds between the publication of `id` and `process` first seeing
    /// it; `None` if untracked or unseen.
    pub fn delivery_latency(&self, id: EventId, process: ProcessId) -> Option<u64> {
        let published = self.get(id)?.publish_round?;
        let first = self.first_seen_cell(id, process)?;
        Some(u64::from(first).saturating_sub(published))
    }

    /// Histogram of delivery latencies for `id`: `hist[d]` = processes
    /// that first saw it `d` rounds after publication.
    pub fn latency_histogram(&self, id: EventId) -> Vec<usize> {
        let mut hist = Vec::new();
        let Some(record) = self.get(id) else {
            return hist;
        };
        let Some(published) = record.publish_round else {
            return hist;
        };
        record.cells.for_each_seen(|round| {
            let d = u64::from(round).saturating_sub(published) as usize;
            if hist.len() <= d {
                hist.resize(d + 1, 0);
            }
            hist[d] += 1;
        });
        hist
    }

    /// Mean delivery latency of `id` over the processes that saw it
    /// (origin included at latency 0); `None` if untracked.
    pub fn mean_latency(&self, id: EventId) -> Option<f64> {
        let record = self.get(id)?;
        let published = record.publish_round?;
        let (mut count, mut total) = (0usize, 0usize);
        record.cells.for_each_seen(|round| {
            count += 1;
            total += u64::from(round).saturating_sub(published) as usize;
        });
        (count > 0).then(|| total as f64 / count as f64)
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
mod layout_tests {
    use super::*;

    fn pid(p: u64) -> ProcessId {
        ProcessId::new(p)
    }

    /// E events over N slots interned up front: the cells of each are one
    /// allocation of exactly N `u16`s, and a record that widens holds
    /// exactly N `u32`s.
    #[test]
    fn cells_cost_two_bytes_per_node_until_a_record_widens() {
        const E: u64 = 6;
        const N: u64 = 1000;
        let mut t = InfectionTracker::new();
        for p in 0..N {
            t.slot(pid(p));
        }
        let id = |seq| EventId::new(pid(0), seq);
        for seq in 0..E {
            t.record_publish(id(seq), pid(0), 10);
            for p in (2..N).step_by(2) {
                t.record_seen_at(id(seq), pid(p), 11 + p);
            }
        }
        // The top of the offset range stays narrow.
        let edge = 10 + u64::from(NARROW_MAX);
        t.record_seen_at(id(0), pid(999), edge);
        let total = |t: &InfectionTracker| (0..E).map(|seq| t.cell_bytes(id(seq))).sum::<usize>();
        assert_eq!(total(&t), (E * N * 2) as usize);

        // One round further widens its record; a mark before the base
        // widens another.
        t.record_seen_at(id(1), pid(999), edge + 1);
        t.record_seen_at(id(2), pid(997), 9);
        assert_eq!(t.cell_bytes(id(1)), (N * 4) as usize);
        assert_eq!(t.cell_bytes(id(2)), (N * 4) as usize);
        assert_eq!(total(&t), ((E - 2) * N * 2 + 2 * N * 4) as usize);

        // Every record answers as before it widened.
        for seq in 0..3 {
            assert_eq!(t.infected_count(id(seq)), 501);
            assert_eq!(t.delivery_latency(id(seq), pid(0)), Some(0));
            assert_eq!(t.delivery_latency(id(seq), pid(998)), Some(999));
            assert!(!t.has_seen(id(seq), pid(1)));
        }
        let narrow = u64::from(NARROW_MAX);
        assert_eq!(t.delivery_latency(id(0), pid(999)), Some(narrow));
        assert_eq!(t.delivery_latency(id(1), pid(999)), Some(narrow + 1));
        assert_eq!(t.delivery_latency(id(2), pid(997)), Some(0));
    }

    /// A slot interned after a record exists grows the record's cells to
    /// the slots interned by then, not by a growth factor.
    #[test]
    fn a_late_slot_grows_the_cells_exactly() {
        let mut t = InfectionTracker::new();
        let id = EventId::new(pid(0), 0);
        t.record_publish(id, pid(0), 0);
        assert_eq!(t.cell_bytes(id), 2);
        for p in 1..=100 {
            t.slot(pid(p));
        }
        t.record_seen_at(id, pid(50), 1);
        assert_eq!(t.cell_bytes(id), 101 * 2);
        assert_eq!(t.delivery_latency(id, pid(50)), Some(1));
        assert!(!t.has_seen(id, pid(100)));
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
        /// `record_seen_at` the given number of rounds before the current
        /// one, which may be before the record's first mark.
        Earlier(u64),
    }

    /// A path, one of twelve events of origin 1 (some never published)
    /// and a process below 48, which the test caps per round so that
    /// processes first appear late.
    fn call() -> impl Strategy<Value = (Path, usize, u64)> {
        let path = (0usize..16, 1u64..40_000).prop_map(|(k, back)| match k {
            0..=4 => Path::Publish,
            5..=9 => Path::SeenAt,
            10..=14 => Path::SlotBatch,
            _ => Path::Earlier(if back % 2 == 0 { back % 4 } else { back }),
        });
        (path, 0usize..12, 0u64..48)
    }

    /// The gap to the next round: mostly a few rounds, sometimes about
    /// the narrow cells' offset range.
    fn gap() -> impl Strategy<Value = u64> {
        let narrow = u64::from(NARROW_MAX);
        (0usize..8, 0u64..6).prop_map(move |(k, d)| match k {
            0 => narrow - 2 + d,
            _ => 1 + d % 3,
        })
    }

    /// The round a stream starts at: 0, or a few dozen rounds below where
    /// the tracker's rounds saturate at `u32::MAX − 1`. (A stream that ran
    /// from 0 into saturation would ask for a latency histogram of 2³²
    /// entries.)
    fn start() -> impl Strategy<Value = u64> {
        (0usize..2, 0u64..48).prop_map(|(k, d)| k as u64 * (u64::from(u32::MAX) - d))
    }

    /// The naive tracker: first-seen rounds by `(event, process)` and
    /// publish rounds by event. First-seen rounds saturate at
    /// `u32::MAX − 1`, as the tracker's cells do.
    #[derive(Default)]
    struct Naive {
        first: FastMap<(EventId, ProcessId), u64>,
        published: FastMap<EventId, u64>,
    }

    impl Naive {
        fn seen(&mut self, id: EventId, process: ProcessId, round: u64) {
            let round = round.min(u64::from(u32::MAX) - 1);
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

        fn mean_latency(&self, id: EventId) -> Option<f64> {
            let hist = self.latency_histogram(id);
            let count: usize = hist.iter().sum();
            let total: usize = hist.iter().enumerate().map(|(d, &c)| d * c).sum();
            (count > 0).then(|| total as f64 / count as f64)
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
        /// publishes after sightings, sightings in later rounds and before
        /// a record's first mark, gaps across the narrow cells' offset
        /// range, rounds into saturation, processes that first appear
        /// after a record exists, through every recording path — answer
        /// every query as the naive `(event, process) → round` map does.
        #[test]
        fn tracker_matches_the_naive_map(
            rounds in proptest::collection::vec(
                (gap(), proptest::collection::vec(call(), 0..40)),
                0..12,
            ),
            caps in proptest::collection::vec(4u64..=48, 12),
            start in start(),
        ) {
            let events: Vec<EventId> = (0..12).map(|seq| EventId::new(ProcessId::new(1), seq)).collect();
            let (mut tracker, mut naive) = (InfectionTracker::new(), Naive::default());
            let mut round = start;
            for (k, (gap, calls)) in rounds.iter().enumerate() {
                round += gap;
                // The batch lands at the end of the round, after the
                // round's direct calls, which may mark earlier rounds.
                let (mut slot_batch, mut naive_batch) = (Vec::new(), Vec::new());
                for &(path, e, p) in calls {
                    let (id, process) = (events[e], ProcessId::new(p % caps[k]));
                    let at = match path {
                        Path::Earlier(back) => round.saturating_sub(back),
                        _ => round,
                    };
                    match path {
                        Path::Publish => {
                            tracker.record_publish(id, process, at);
                            naive.published.insert(id, at);
                            naive.seen(id, process, at);
                        }
                        Path::SeenAt | Path::Earlier(_) => {
                            tracker.record_seen_at(id, process, at);
                            naive.seen(id, process, at);
                        }
                        Path::SlotBatch => {
                            slot_batch.push((id, tracker.slot(process)));
                            naive_batch.push((id, process));
                        }
                    }
                }
                tracker.record_slot_batch(round, &mut slot_batch);
                prop_assert!(slot_batch.is_empty(), "batch drained");
                for (id, process) in naive_batch {
                    naive.seen(id, process, round);
                }
            }
            for &id in events.iter().chain([&EventId::new(ProcessId::new(2), 0)]) {
                let infected = naive.first.keys().filter(|(e, _)| *e == id).count();
                prop_assert_eq!(tracker.infected_count(id), infected, "{}", id);
                prop_assert_eq!(tracker.published_at(id), naive.published.get(&id).copied());
                prop_assert_eq!(tracker.latency_histogram(id), naive.latency_histogram(id));
                prop_assert_eq!(tracker.mean_latency(id), naive.mean_latency(id));
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
