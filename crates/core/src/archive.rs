//! Archive of old notifications for serving retransmission requests.
//!
//! §3.2: *"Older notifications are stored in a different buffer, which is
//! only required to satisfy retransmission requests."* A bounded FIFO
//! keyed by event id.

use std::collections::VecDeque;

use lpbcast_types::{Event, EventId, FastMap};

/// Bounded FIFO store of delivered notifications, indexed by id.
///
/// Capacity 0 disables archiving entirely (the configuration used by the
/// paper's measurements, which *"did not consider retransmissions"*).
#[derive(Debug, Clone)]
pub struct EventArchive {
    order: VecDeque<EventId>,
    events: FastMap<EventId, Event>,
    capacity: usize,
}

impl EventArchive {
    /// Creates an archive holding at most `capacity` notifications.
    pub fn new(capacity: usize) -> Self {
        EventArchive {
            order: VecDeque::new(),
            events: FastMap::default(),
            capacity,
        }
    }

    /// The configured capacity.
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of archived notifications.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Stores a notification, evicting the oldest if full. Duplicate ids
    /// are ignored. Returns the evicted notification, if any. The event is
    /// cloned only when it is kept — with capacity 0 (the measured
    /// configuration) every delivery passes through here for nothing.
    pub fn store(&mut self, event: &Event) -> Option<Event> {
        if self.capacity == 0 || self.events.contains_key(&event.id()) {
            return None;
        }
        self.order.push_back(event.id());
        self.events.insert(event.id(), event.clone());
        if self.order.len() > self.capacity {
            let oldest = self.order.pop_front().expect("non-empty");
            return self.events.remove(&oldest);
        }
        None
    }

    /// Looks up a notification by id.
    pub fn get(&self, id: EventId) -> Option<&Event> {
        self.events.get(&id)
    }

    /// Returns the archived notifications among `ids` — the reply to a
    /// retransmission request (requests for already-evicted notifications
    /// are silently unmet, exactly the buffering loss the paper's
    /// reliability measurements quantify).
    pub fn lookup_all(&self, ids: &[EventId]) -> Vec<Event> {
        ids.iter()
            .filter_map(|id| self.events.get(id).cloned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpbcast_types::ProcessId;

    fn ev(p: u64, s: u64) -> Event {
        Event::new(EventId::new(ProcessId::new(p), s), b"payload".as_ref())
    }

    #[test]
    fn stores_and_serves() {
        let mut a = EventArchive::new(10);
        a.store(&ev(1, 0));
        a.store(&ev(1, 1));
        assert_eq!(a.len(), 2);
        let found = a.lookup_all(&[ev(1, 0).id(), ev(9, 9).id()]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].id(), ev(1, 0).id());
    }

    #[test]
    fn evicts_oldest_beyond_capacity() {
        let mut a = EventArchive::new(2);
        assert!(a.store(&ev(1, 0)).is_none());
        assert!(a.store(&ev(1, 1)).is_none());
        let evicted = a.store(&ev(1, 2)).expect("eviction");
        assert_eq!(evicted.id(), ev(1, 0).id());
        assert!(a.get(ev(1, 0).id()).is_none());
        assert!(a.get(ev(1, 2).id()).is_some());
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut a = EventArchive::new(2);
        a.store(&ev(1, 0));
        a.store(&ev(1, 0));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut a = EventArchive::new(0);
        a.store(&ev(1, 0));
        assert!(a.is_empty());
        assert!(a.lookup_all(&[ev(1, 0).id()]).is_empty());
    }
}
