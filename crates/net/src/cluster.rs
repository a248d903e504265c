//! Readiness-driven cluster runtime: hundreds-to-thousands of sans-IO
//! [`Protocol`] instances multiplexed over a handful of nonblocking UDP
//! sockets in one process.
//!
//! One socket and one thread per process is faithful to the paper's
//! one-process-per-machine deployment, but a loopback testbed that wants
//! 10³–10⁴ processes dies on thread and fd counts long before the
//! protocol is stressed. [`Cluster`] is a single caller-driven loop that
//! owns
//!
//! * a few sockets registered with a readiness [`UdpPoller`] (instances
//!   are striped across them round-robin),
//! * a [`TimerWheel`] firing each instance's gossip `tick` every period
//!   `T` (initial deadlines are staggered, §3.3's non-synchronized
//!   rounds),
//! * one shared recv buffer, each datagram dispatched from it in place,
//!   and
//! * an egress table keyed by (local socket, remote socket): every frame
//!   any hosted instance sends to one remote socket during one loop
//!   phase is appended to that entry's datagram, which leaves in one
//!   `send_to` when the phase ends (or early, when the next frame would
//!   pass `MAX_DATAGRAM`). Messages between two instances of the
//!   *same* cluster short-circuit through an in-memory queue without
//!   touching a socket.
//!
//! Datagrams between clusters carry the [`wire`] *cluster envelope*: a
//! datagram holds every frame one socket sends to one remote socket in
//! one loop phase, whichever hosted instances sent them and whichever
//! remote instances they are for, each frame in its own section naming
//! its `from`/`dest` instances, because a socket address does not
//! identify an instance; a datagram without the envelope is dropped as
//! loss. Coalescing pays off when many instances in one
//! process send to the same remote socket; the paper's §5.2 layout — one
//! process, one socket — is a cluster with one instance, where a
//! datagram carries what that instance sends to one peer in one phase.
//!
//! The deployment harness drives faults at the socket boundary through
//! two hooks: an ingress **drop filter** (drop everything arriving from a
//! given source address — the harness builds partitions out of these)
//! and an egress [`LinkFate`] hook consulted per remote message (the
//! serialisable `FaultSpec` of the sim crate plugs in here as a boxed
//! closure, keeping this crate free of a sim dependency).

use std::collections::VecDeque;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};

use lpbcast_types::{Event, EventId, FastMap, FastSet, Payload, ProcessId, Protocol};

use crate::book::AddressBook;
use crate::error::NetError;
use crate::poll::{drain_socket, recv_datagram, UdpPoller};
use crate::timer::TimerWheel;
use crate::wire::{self, WireMessage};

/// Keep coalesced datagrams under the 64 KiB UDP limit with headroom for
/// IP/UDP headers.
const MAX_DATAGRAM: usize = 60 * 1024;

/// Poller key of the optional control socket — far above any data-socket
/// index.
const CONTROL_KEY: usize = usize::MAX;

/// Initial tick deadlines are spread across the gossip period in this
/// many phases so a freshly started cluster doesn't fire every instance
/// in one burst (§3.3: gossip rounds are not synchronized).
const STAGGER_PHASES: u32 = 16;

/// Egress verdict for one remote message, decided by the fault hook at
/// the socket boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFate {
    /// Send normally.
    Deliver,
    /// Silently drop (the paper's ε at the sender side).
    Drop,
    /// Send twice (UDP duplication).
    Duplicate,
}

type FaultHook = Box<dyn FnMut(ProcessId, ProcessId) -> LinkFate + Send>;

/// Lifetime counters of a [`Cluster`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterStats {
    /// Datagrams sent / received on the data sockets.
    pub datagrams_tx: u64,
    /// See [`datagrams_tx`](Self::datagrams_tx).
    pub datagrams_rx: u64,
    /// Payload bytes handed to / taken from the data sockets.
    pub wire_tx_bytes: u64,
    /// See [`wire_tx_bytes`](Self::wire_tx_bytes).
    pub wire_rx_bytes: u64,
    /// Ingress datagrams discarded by the drop filter (partitions).
    pub dropped_filtered: u64,
    /// Egress messages discarded by the [`LinkFate`] hook.
    pub dropped_fault: u64,
    /// Egress messages duplicated by the [`LinkFate`] hook.
    pub duplicated_fault: u64,
    /// Messages short-circuited between co-located instances.
    pub local_messages: u64,
    /// Protocol ticks fired.
    pub ticks: u64,
    /// Egress datagrams whose `send_to` failed (e.g. past the UDP size
    /// limit), plus frames too long for any datagram, which are never
    /// handed to the socket.
    pub send_errors: u64,
}

/// Builder for a [`Cluster`] (socket layout + cadence).
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    interval: Duration,
    sockets: usize,
    bind_addrs: Vec<SocketAddr>,
}

impl ClusterBuilder {
    /// Starts a builder with gossip period `interval` and one socket.
    pub fn new(interval: Duration) -> Self {
        ClusterBuilder {
            interval,
            sockets: 1,
            bind_addrs: Vec::new(),
        }
    }

    /// Number of data sockets to stripe instances over (clamped to ≥1).
    /// Ignored when explicit [`bind_addrs`](Self::bind_addrs) are given.
    #[must_use]
    pub fn sockets(mut self, n: usize) -> Self {
        self.sockets = n.max(1);
        self
    }

    /// Binds the data sockets to these exact addresses (port 0 asks the
    /// OS for an ephemeral port) instead of `sockets × 127.0.0.1:0`.
    #[must_use]
    pub fn bind_addrs(mut self, addrs: Vec<SocketAddr>) -> Self {
        self.bind_addrs = addrs;
        self
    }

    /// Binds the sockets, registers them with a fresh poller and returns
    /// an empty cluster.
    ///
    /// # Errors
    ///
    /// Propagates bind/registration failures.
    pub fn build<P>(self) -> Result<Cluster<P>, NetError>
    where
        P: Protocol,
        P::Msg: WireMessage,
    {
        let addrs: Vec<SocketAddr> = if self.bind_addrs.is_empty() {
            let any: SocketAddr = SocketAddr::from(([127, 0, 0, 1], 0));
            vec![any; self.sockets.max(1)]
        } else {
            self.bind_addrs
        };
        let poller = UdpPoller::new()?;
        let mut sockets = Vec::with_capacity(addrs.len());
        for (key, addr) in addrs.iter().enumerate() {
            let socket = UdpSocket::bind(addr)?;
            poller.register(&socket, key)?;
            sockets.push(socket);
        }
        // Timer-wheel quantum: a tick fires within an eighth of its
        // period, bounded so the wheel neither spins nor goes coarse.
        let granularity =
            (self.interval / 8).clamp(Duration::from_micros(500), Duration::from_millis(5));
        Ok(Cluster {
            interval: self.interval,
            poller,
            sockets,
            control: None,
            instances: Vec::new(),
            index: FastMap::default(),
            book: AddressBook::new(),
            timers: TimerWheel::new(granularity, 256),
            recv_buf: vec![0u8; 64 * 1024],
            drop_filter: FastSet::default(),
            fault: None,
            deliveries: Vec::new(),
            local_queue: VecDeque::new(),
            egress: FastMap::default(),
            stats: ClusterStats::default(),
            fired: Vec::new(),
        })
    }
}

struct Instance<P> {
    machine: P,
    socket_idx: usize,
}

/// A multiplexing runtime for many [`Protocol`] instances (see the
/// module docs). Single-threaded and caller-driven: call
/// [`step`](Cluster::step) in a loop.
pub struct Cluster<P: Protocol>
where
    P::Msg: WireMessage,
{
    interval: Duration,
    poller: UdpPoller,
    sockets: Vec<UdpSocket>,
    control: Option<UdpSocket>,
    instances: Vec<Instance<P>>,
    index: FastMap<ProcessId, usize>,
    book: AddressBook,
    timers: TimerWheel,
    recv_buf: Vec<u8>,
    drop_filter: FastSet<SocketAddr>,
    fault: Option<FaultHook>,
    deliveries: Vec<(ProcessId, Event)>,
    local_queue: VecDeque<(ProcessId, ProcessId, P::Msg)>,
    /// (local socket index, remote socket) → the datagram being filled
    /// for it this loop phase, header included; flushed with
    /// [`flush_egress`](Self::flush_egress).
    egress: FastMap<(usize, SocketAddr), BytesMut>,
    stats: ClusterStats,
    fired: Vec<usize>,
}

impl<P: Protocol> core::fmt::Debug for Cluster<P>
where
    P::Msg: WireMessage,
{
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Cluster")
            .field("instances", &self.instances.len())
            .field("sockets", &self.sockets.len())
            .field("interval", &self.interval)
            .finish_non_exhaustive()
    }
}

impl<P> Cluster<P>
where
    P: Protocol,
    P::Msg: WireMessage,
{
    /// Adds a protocol instance, registering its id at the data socket it
    /// is striped onto and arming its gossip timer (staggered start).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the instance id is already hosted here.
    #[expect(
        clippy::disallowed_methods,
        reason = "D2 waiver: the real-clock runtime arms its gossip timer from the wall clock"
    )]
    pub fn add_instance(&mut self, machine: P) -> Result<ProcessId, NetError> {
        let id = machine.id();
        if self.index.contains_key(&id) {
            return Err(NetError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("instance {id} already hosted"),
            )));
        }
        let idx = self.instances.len();
        let socket_idx = idx % self.sockets.len().max(1);
        let addr = self
            .sockets
            .get(socket_idx)
            .ok_or_else(|| NetError::Io(std::io::ErrorKind::NotFound.into()))?
            .local_addr()?;
        self.book.register(id, addr);
        self.index.insert(id, idx);
        self.instances.push(Instance {
            machine,
            socket_idx,
        });
        // Stagger the first deadline across the period so a cold start
        // doesn't tick every instance at once.
        let phase = (idx as u32 % STAGGER_PHASES) + 1;
        let offset = (self.interval / STAGGER_PHASES) * phase;
        self.timers.schedule(idx, Instant::now() + offset);
        Ok(id)
    }

    /// Registers (or updates) a remote peer's address.
    pub fn register_peer(&self, id: ProcessId, addr: SocketAddr) {
        self.book.register(id, addr);
    }

    /// The address book (local instances self-register; the harness
    /// fills in remote peers).
    pub fn address_book(&self) -> &AddressBook {
        &self.book
    }

    /// Bound addresses of the data sockets, in stripe order.
    pub fn local_addrs(&self) -> Vec<SocketAddr> {
        self.sockets
            .iter()
            .filter_map(|s| s.local_addr().ok())
            .collect()
    }

    /// Ids of all hosted instances, in insertion order.
    pub fn instance_ids(&self) -> Vec<ProcessId> {
        self.instances.iter().map(|i| i.machine.id()).collect()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Attaches a pre-bound control socket: its datagrams are surfaced
    /// verbatim from [`step`](Cluster::step) instead of being decoded as
    /// protocol traffic.
    ///
    /// # Errors
    ///
    /// Propagates poller registration failures.
    pub fn attach_control(&mut self, socket: UdpSocket) -> Result<SocketAddr, NetError> {
        let addr = socket.local_addr()?;
        self.poller.register(&socket, CONTROL_KEY)?;
        self.control = Some(socket);
        Ok(addr)
    }

    /// Sends a reply on the control socket (no-op without one).
    pub fn control_send(&self, payload: &[u8], to: SocketAddr) {
        if let Some(control) = &self.control {
            let _ = control.send_to(payload, to);
        }
    }

    /// Starts (or stops) dropping every ingress datagram whose source is
    /// `addr` — the harness builds partitions from pairs of these.
    pub fn set_drop(&mut self, addr: SocketAddr, dropped: bool) {
        if dropped {
            self.drop_filter.insert(addr);
        } else {
            self.drop_filter.remove(&addr);
        }
    }

    /// Clears every ingress drop filter (partition heal).
    pub fn clear_drops(&mut self) {
        self.drop_filter.clear();
    }

    /// Installs the egress fault hook consulted once per remote message.
    pub fn set_link_fault(
        &mut self,
        hook: impl FnMut(ProcessId, ProcessId) -> LinkFate + Send + 'static,
    ) {
        self.fault = Some(Box::new(hook));
    }

    /// Publishes a notification from instance `id` (LPB-CAST). Returns
    /// `None` when the id is not hosted here.
    pub fn broadcast(&mut self, id: ProcessId, payload: impl Into<Payload>) -> Option<EventId> {
        let idx = self.index.get(&id).copied()?;
        let (event_id, output) = {
            let inst = self.instances.get_mut(idx)?;
            inst.machine.broadcast(payload.into())
        };
        self.absorb_output(idx, output);
        self.flush_egress();
        Some(event_id)
    }

    /// Runs `f` against a hosted instance's state.
    pub fn with_instance<R>(&self, id: ProcessId, f: impl FnOnce(&P) -> R) -> Option<R> {
        let idx = self.index.get(&id).copied()?;
        self.instances.get(idx).map(|i| f(&i.machine))
    }

    /// Runs `f` against a hosted instance's state, mutably — for calls
    /// the [`Protocol`] trait does not carry (e.g. `Lpbcast::unsubscribe`).
    pub fn with_instance_mut<R>(
        &mut self,
        id: ProcessId,
        f: impl FnOnce(&mut P) -> R,
    ) -> Option<R> {
        let idx = self.index.get(&id).copied()?;
        self.instances.get_mut(idx).map(|i| f(&mut i.machine))
    }

    /// Deliveries (LPB-DELIVER) accumulated since the last call, as
    /// `(instance, event)` pairs.
    pub fn take_deliveries(&mut self) -> Vec<(ProcessId, Event)> {
        std::mem::take(&mut self.deliveries)
    }

    /// Runs one event-loop iteration: fires due ticks, waits up to
    /// `max_wait` (capped by the next timer deadline) for socket
    /// readiness, drains and dispatches every pending datagram, fires
    /// what fell due meanwhile, and returns the control-socket datagrams
    /// received, if any. The egress table is flushed before the wait and
    /// before returning, so no frame waits across a poll.
    ///
    /// # Errors
    ///
    /// Propagates poller failures; per-datagram decode errors are
    /// dropped silently (loss), per the gossip model.
    #[expect(
        clippy::disallowed_methods,
        reason = "D2 waiver: the real-clock runtime's event loop reads the wall clock"
    )]
    pub fn step(&mut self, max_wait: Duration) -> Result<Vec<(SocketAddr, Vec<u8>)>, NetError> {
        let now = Instant::now();
        self.fire_due(now);
        self.drain_local_queue();
        self.flush_egress();

        let wait = match self.timers.next_deadline() {
            Some(deadline) => deadline
                .saturating_duration_since(Instant::now())
                .min(max_wait),
            None => max_wait,
        };
        let ready: Vec<usize> = self.poller.wait(Some(wait))?.to_vec();

        let mut control_msgs = Vec::new();
        for key in ready {
            if key == CONTROL_KEY {
                if let Some(control) = &self.control {
                    let mut buf = [0u8; 2048];
                    let _ = drain_socket(control, &mut buf, |data, from| {
                        control_msgs.push((from, data.to_vec()));
                    });
                }
                continue;
            }
            self.drain_data_socket(key)?;
        }

        self.fire_due(Instant::now());
        self.drain_local_queue();
        self.flush_egress();
        Ok(control_msgs)
    }

    /// Fires every tick whose deadline passed and re-arms it one period
    /// out.
    fn fire_due(&mut self, now: Instant) {
        let mut fired = std::mem::take(&mut self.fired);
        fired.clear();
        self.timers.advance(now, &mut fired);
        for idx in fired.drain(..) {
            let output = match self.instances.get_mut(idx) {
                Some(inst) => inst.machine.tick(),
                None => continue,
            };
            self.stats.ticks = self.stats.ticks.saturating_add(1);
            self.absorb_output(idx, output);
            self.timers.schedule(idx, now + self.interval);
        }
        self.fired = fired;
    }

    /// Routes one instance's protocol output: deliveries are queued for
    /// the caller, outgoing messages are short-circuited locally or, past
    /// the fault hook, framed into the egress table.
    fn absorb_output(&mut self, from_idx: usize, output: lpbcast_types::Output<P::Msg>) {
        let (from_id, socket_idx) = match self.instances.get(from_idx) {
            Some(inst) => (inst.machine.id(), inst.socket_idx),
            None => return,
        };
        for event in output.delivered {
            self.deliveries.push((from_id, event));
        }
        // `Arc`-shared gossip bodies are encoded once for all their
        // fanout copies.
        let mut cached: Option<(usize, Bytes)> = None;
        let mut scratch = BytesMut::new();
        for (to, msg) in output.outgoing {
            if self.index.contains_key(&to) {
                self.stats.local_messages = self.stats.local_messages.saturating_add(1);
                self.local_queue.push_back((from_id, to, msg));
                continue;
            }
            let Some(addr) = self.book.lookup(to) else {
                continue; // unknown peer: indistinguishable from loss
            };
            let fate = match &mut self.fault {
                Some(hook) => hook(from_id, to),
                None => LinkFate::Deliver,
            };
            let copies = match fate {
                LinkFate::Drop => {
                    self.stats.dropped_fault = self.stats.dropped_fault.saturating_add(1);
                    continue;
                }
                LinkFate::Deliver => 1,
                LinkFate::Duplicate => {
                    self.stats.duplicated_fault = self.stats.duplicated_fault.saturating_add(1);
                    2
                }
            };
            let frame: &[u8] = match msg.body_key() {
                Some(key) => match &mut cached {
                    Some((k, f)) if *k == key => f,
                    slot => {
                        let mut f = BytesMut::with_capacity(256);
                        wire::encode_frame(&msg, &mut f);
                        &slot.insert((key, f.freeze())).1
                    }
                },
                None => {
                    scratch.clear();
                    wire::encode_frame(&msg, &mut scratch);
                    &scratch
                }
            };
            for _ in 0..copies {
                self.push_section(socket_idx, addr, from_id, to, frame);
            }
        }
    }

    /// Appends one frame as a section to the datagram the instance's
    /// socket is filling for `addr`, sending that datagram first when the
    /// section would take it past [`MAX_DATAGRAM`].
    fn push_section(
        &mut self,
        socket_idx: usize,
        addr: SocketAddr,
        from: ProcessId,
        to: ProcessId,
        frame: &[u8],
    ) {
        let Some(socket) = self.sockets.get(socket_idx) else {
            return;
        };
        let datagram = self.egress.entry((socket_idx, addr)).or_insert_with(|| {
            let mut header = BytesMut::new();
            wire::encode_datagram_header(&mut header);
            header
        });
        if datagram.len() > wire::CLUSTER_HEADER_LEN
            && datagram.len() + wire::section_header_len(from, to, frame.len()) + frame.len()
                > MAX_DATAGRAM
        {
            send_datagram(socket, datagram, addr, &mut self.stats);
            datagram.truncate(wire::CLUSTER_HEADER_LEN);
        }
        if wire::encode_section(datagram, from, to, frame).is_err() {
            // Longer than any datagram can carry: refused like an
            // oversized `send_to`.
            self.stats.send_errors = self.stats.send_errors.saturating_add(1);
        }
    }

    /// Sends every datagram the egress table holds sections for.
    fn flush_egress(&mut self) {
        for ((socket_idx, addr), datagram) in &mut self.egress {
            if datagram.len() <= wire::CLUSTER_HEADER_LEN {
                continue;
            }
            if let Some(socket) = self.sockets.get(*socket_idx) {
                send_datagram(socket, datagram, *addr, &mut self.stats);
            }
            datagram.truncate(wire::CLUSTER_HEADER_LEN);
        }
    }

    /// Hands queued intra-process messages to their destinations. Bounded
    /// to the queue length at entry so two chatty instances cannot starve
    /// the socket path.
    fn drain_local_queue(&mut self) {
        let mut budget = self.local_queue.len();
        while budget > 0 {
            budget -= 1;
            let Some((from, to, msg)) = self.local_queue.pop_front() else {
                break;
            };
            let Some(idx) = self.index.get(&to).copied() else {
                continue;
            };
            let output = match self.instances.get_mut(idx) {
                Some(inst) => inst.machine.handle_message(from, msg),
                None => continue,
            };
            self.absorb_output(idx, output);
        }
    }

    /// Drains one ready data socket to `WouldBlock`, dispatching each
    /// datagram straight from the shared recv buffer.
    fn drain_data_socket(&mut self, key: usize) -> Result<(), NetError> {
        // The dispatch needs `&mut self`, so the buffer is taken out of
        // `self` for the drain and put back whatever the outcome.
        let mut buf = std::mem::take(&mut self.recv_buf);
        let result = loop {
            let Some(socket) = self.sockets.get(key) else {
                break Ok(());
            };
            match recv_datagram(socket, &mut buf) {
                Ok(Some((len, from))) => {
                    if let Some(data) = buf.get(..len) {
                        self.dispatch_datagram(data, from);
                    }
                }
                Ok(None) => break Ok(()),
                Err(e) => break Err(e.into()),
            }
        };
        self.recv_buf = buf;
        result
    }

    /// Routes one ingress datagram: drop filter, then section demux.
    fn dispatch_datagram(&mut self, data: &[u8], from_addr: SocketAddr) {
        if self.drop_filter.contains(&from_addr) {
            self.stats.dropped_filtered = self.stats.dropped_filtered.saturating_add(1);
            return;
        }
        self.stats.datagrams_rx = self.stats.datagrams_rx.saturating_add(1);
        self.stats.wire_rx_bytes = self.stats.wire_rx_bytes.saturating_add(data.len() as u64);

        let Ok(sections) = wire::decode_sections(data) else {
            return; // missing, hostile or foreign-version envelope: drop whole
        };
        for section in sections {
            let Some(dest_idx) = self.index.get(&section.dest).copied() else {
                continue; // not hosted (e.g. killed and restarted elsewhere)
            };
            let Ok(messages) = wire::decode_frames::<P::Msg>(section.frames) else {
                continue; // torn section: skip it alone, like loss
            };
            for message in messages {
                let output = match self.instances.get_mut(dest_idx) {
                    Some(inst) => inst.machine.handle_message(section.from, message),
                    None => break,
                };
                self.absorb_output(dest_idx, output);
            }
        }
    }
}

/// Hands one datagram to `socket`, counting it, and counting a failed
/// `send_to` as a send error (the datagram is then lost, like any UDP
/// loss).
fn send_datagram(socket: &UdpSocket, datagram: &[u8], to: SocketAddr, stats: &mut ClusterStats) {
    stats.datagrams_tx = stats.datagrams_tx.saturating_add(1);
    stats.wire_tx_bytes = stats.wire_tx_bytes.saturating_add(datagram.len() as u64);
    if socket.send_to(datagram, to).is_err() {
        stats.send_errors = stats.send_errors.saturating_add(1);
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "D2 waiver: loopback tests bound their waits by the wall clock"
)]
mod tests {
    use super::*;
    use lpbcast_core::{Config, Lpbcast};

    fn config(view: usize) -> Config {
        // Retransmission on and roomy buffers (cf. examples/udp_cluster):
        // real-clock runs take many rounds, so events must stay
        // recoverable from the archive instead of aging out.
        Config::builder()
            .view_size(view)
            .fanout(3)
            .event_ids_max(512)
            .events_max(512)
            .retransmit_request_max(16)
            .retransmit_retry_ticks(4)
            .archive_capacity(1024)
            .build()
    }

    fn cluster_of(
        n: usize,
        id_base: u64,
        all_ids: &[ProcessId],
        interval: Duration,
    ) -> Cluster<Lpbcast> {
        let mut cluster = ClusterBuilder::new(interval)
            .sockets(2)
            .build::<Lpbcast>()
            .expect("build");
        for i in 0..n {
            let id = ProcessId::new(id_base + i as u64);
            let view: Vec<ProcessId> = all_ids.iter().copied().filter(|p| *p != id).collect();
            let machine = Lpbcast::with_initial_view(id, config(8), id.as_u64() ^ 0xC0FFEE, view);
            cluster.add_instance(machine).expect("add");
        }
        cluster
    }

    #[test]
    fn two_clusters_reach_full_delivery_over_loopback() {
        let interval = Duration::from_millis(5);
        let n_per = 8usize;
        let all_ids: Vec<ProcessId> = (0..2 * n_per as u64).map(ProcessId::new).collect();
        let mut a = cluster_of(n_per, 0, &all_ids, interval);
        let mut b = cluster_of(n_per, n_per as u64, &all_ids, interval);

        // Cross-register: every instance of `b` at `b`'s sockets, seen
        // from `a`, and vice versa.
        for id in b.instance_ids() {
            let addr = b.address_book().lookup(id).expect("b addr");
            a.register_peer(id, addr);
        }
        for id in a.instance_ids() {
            let addr = a.address_book().lookup(id).expect("a addr");
            b.register_peer(id, addr);
        }

        let event = a
            .broadcast(ProcessId::new(0), b"hello".as_ref())
            .expect("hosted");
        let mut delivered: FastSet<ProcessId> = FastSet::default();
        delivered.insert(ProcessId::new(0)); // origin delivers at publish
        let deadline = Instant::now() + Duration::from_secs(20);
        while delivered.len() < 2 * n_per && Instant::now() < deadline {
            a.step(Duration::from_millis(2)).expect("step a");
            b.step(Duration::from_millis(2)).expect("step b");
            for (id, ev) in a.take_deliveries().into_iter().chain(b.take_deliveries()) {
                if ev.id() == event {
                    delivered.insert(id);
                }
            }
        }
        assert_eq!(
            delivered.len(),
            2 * n_per,
            "all instances deliver across two processes"
        );
        assert!(a.stats().datagrams_tx > 0, "cross-cluster traffic flowed");
        assert!(a.stats().local_messages > 0, "local fast path used");
    }

    #[test]
    fn egress_coalesces_frames_per_remote_socket() {
        // One socket per cluster; every instance starts out knowing only
        // the other cluster's ids, so its gossip crosses the socket.
        let interval = Duration::from_millis(5);
        let n_per = 16u64;
        let side = |base: u64, other: u64| {
            let mut cluster = ClusterBuilder::new(interval)
                .build::<Lpbcast>()
                .expect("build");
            let view: Vec<ProcessId> = (other..other + n_per).map(ProcessId::new).collect();
            for id in (base..base + n_per).map(ProcessId::new) {
                let machine =
                    Lpbcast::with_initial_view(id, config(8), id.as_u64() ^ 0xC0FFEE, view.clone());
                cluster.add_instance(machine).expect("add");
            }
            cluster
        };
        let (mut a, mut b) = (side(0, n_per), side(n_per, 0));
        for id in b.instance_ids() {
            a.register_peer(id, b.address_book().lookup(id).expect("b addr"));
        }
        for id in a.instance_ids() {
            b.register_peer(id, a.address_book().lookup(id).expect("a addr"));
        }
        let until = Instant::now() + Duration::from_millis(300);
        while Instant::now() < until {
            a.step(Duration::from_millis(2)).expect("step a");
            b.step(Duration::from_millis(2)).expect("step b");
        }
        // Gossip views mix, so some of b's gossip is local; what b took
        // off its socket is the rest.
        let gossips: u64 = b
            .instance_ids()
            .into_iter()
            .filter_map(|id| b.with_instance(id, |m| m.stats().gossips_received))
            .sum();
        let remote_gossips = gossips.saturating_sub(b.stats().local_messages);
        let datagrams = b.stats().datagrams_rx;
        assert!(datagrams > 0, "cross-cluster traffic flowed");
        assert!(
            2 * datagrams <= remote_gossips,
            "{remote_gossips} remote gossips arrived in {datagrams} datagrams"
        );
    }

    #[test]
    fn drop_filter_blocks_ingress_and_heals() {
        let interval = Duration::from_millis(5);
        let ids: Vec<ProcessId> = (0..4u64).map(ProcessId::new).collect();
        let mut a = cluster_of(2, 0, &ids, interval);
        let mut b = cluster_of(2, 2, &ids, interval);
        for id in b.instance_ids() {
            a.register_peer(id, b.address_book().lookup(id).expect("addr"));
        }
        for id in a.instance_ids() {
            b.register_peer(id, a.address_book().lookup(id).expect("addr"));
        }
        // Partition: b drops everything arriving from a's sockets.
        for addr in a.local_addrs() {
            b.set_drop(addr, true);
        }
        let event = a
            .broadcast(ProcessId::new(0), b"cut".as_ref())
            .expect("hosted");
        let until = Instant::now() + Duration::from_millis(200);
        let mut b_saw = false;
        while Instant::now() < until {
            a.step(Duration::from_millis(2)).expect("step");
            b.step(Duration::from_millis(2)).expect("step");
            b_saw |= b.take_deliveries().iter().any(|(_, ev)| ev.id() == event);
        }
        assert!(!b_saw, "partitioned side must not deliver");
        assert!(b.stats().dropped_filtered > 0, "filter engaged");

        // Heal and confirm gossip flows again: a *fresh* event crosses
        // (the cut one may recover too, but that depends on how long the
        // archive holds it — the filter, not the protocol, is under test).
        b.clear_drops();
        let fresh = a
            .broadcast(ProcessId::new(1), b"post-heal".as_ref())
            .expect("hosted");
        let mut fresh_seen = false;
        let deadline = Instant::now() + Duration::from_secs(20);
        while !fresh_seen && Instant::now() < deadline {
            a.step(Duration::from_millis(2)).expect("step");
            b.step(Duration::from_millis(2)).expect("step");
            fresh_seen |= b
                .take_deliveries()
                .iter()
                .any(|(_, ev)| ev.id() == fresh || ev.id() == event);
        }
        assert!(fresh_seen, "delivery resumes after heal");
    }

    #[test]
    fn link_fault_hook_can_black_hole_egress() {
        let interval = Duration::from_millis(5);
        let ids: Vec<ProcessId> = (0..4u64).map(ProcessId::new).collect();
        let mut a = cluster_of(2, 0, &ids, interval);
        let b = cluster_of(2, 2, &ids, interval);
        for id in b.instance_ids() {
            a.register_peer(id, b.address_book().lookup(id).expect("addr"));
        }
        a.set_link_fault(|_, _| LinkFate::Drop);
        a.broadcast(ProcessId::new(0), b"void".as_ref())
            .expect("hosted");
        for _ in 0..40 {
            a.step(Duration::from_millis(2)).expect("step");
        }
        assert_eq!(
            a.stats().datagrams_tx,
            0,
            "every egress message faulted away"
        );
        assert!(a.stats().dropped_fault > 0);
    }
}
