//! Process-id → socket-address directory of a [`Cluster`](crate::Cluster).

use std::net::SocketAddr;
use std::sync::{PoisonError, RwLock};

use lpbcast_types::{FastMap, ProcessId};

/// Process-id → socket-address directory.
///
/// In the paper's deployment this knowledge came from the testbed
/// configuration; the protocol itself only ever names processes by id.
/// Hosted instances register themselves; the harness fills in remote
/// peers. Sends to unregistered ids are silently dropped
/// (indistinguishable from message loss, which gossip tolerates by
/// design).
///
/// Registration goes through `&self` so a driver can cross-register two
/// clusters it only holds shared references to. A poisoned lock is
/// recovered, not propagated: the map is a plain id → address table with
/// no invariant a panicking writer could have left half-applied.
#[derive(Debug, Default)]
pub struct AddressBook {
    by_id: RwLock<FastMap<ProcessId, SocketAddr>>,
}

impl AddressBook {
    /// Creates an empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or updates) a process's address.
    pub fn register(&self, id: ProcessId, addr: SocketAddr) {
        self.by_id
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, addr);
    }

    /// Address of `id`, if registered.
    pub fn lookup(&self, id: ProcessId) -> Option<SocketAddr> {
        self.by_id
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .copied()
    }

    /// Number of registered processes.
    pub fn len(&self) -> usize {
        self.by_id
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the book is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_book_roundtrip() {
        let book = AddressBook::new();
        assert!(book.is_empty());
        let addr: SocketAddr = "127.0.0.1:9999".parse().unwrap();
        book.register(ProcessId::new(1), addr);
        assert_eq!(book.lookup(ProcessId::new(1)), Some(addr));
        assert_eq!(book.len(), 1);
        // Re-registration moves the address.
        let addr2: SocketAddr = "127.0.0.1:9998".parse().unwrap();
        book.register(ProcessId::new(1), addr2);
        assert_eq!(book.lookup(ProcessId::new(1)), Some(addr2));
        assert_eq!(book.len(), 1);
    }

    #[test]
    fn unknown_ids_resolve_to_none() {
        let book = AddressBook::new();
        assert_eq!(book.lookup(ProcessId::new(5)), None);
    }
}
