//! Readiness polling for UDP sockets: a thin, panic-free wrapper around
//! the vendored [`polling`] crate (epoll on Linux, portable `poll(2)`
//! elsewhere).
//!
//! [`UdpPoller`] owns the OS poller and the key space: sockets register
//! under a caller-chosen `usize` key, [`UdpPoller::wait`] parks until at
//! least one is readable (or a timeout elapses) and reports the ready
//! keys. Registration switches the socket to nonblocking mode — the
//! event loop is expected to drain each ready socket to `WouldBlock`
//! (level-triggered readiness re-reports anything left unread).

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

use polling::{Event, Poller};

/// Readiness poller for a small set of nonblocking UDP sockets.
#[derive(Debug)]
pub struct UdpPoller {
    poller: Poller,
    events: Vec<Event>,
    ready: Vec<usize>,
}

impl UdpPoller {
    /// Creates a poller (epoll where available, `poll(2)` otherwise).
    ///
    /// # Errors
    ///
    /// Propagates poller-creation failures from the OS.
    pub fn new() -> io::Result<Self> {
        Ok(UdpPoller {
            poller: Poller::new()?,
            events: Vec::new(),
            ready: Vec::new(),
        })
    }

    /// Registers `socket` for readable-readiness under `key` and switches
    /// it to nonblocking mode.
    ///
    /// # Errors
    ///
    /// Fails on duplicate registration or OS errors.
    pub fn register(&self, socket: &UdpSocket, key: usize) -> io::Result<()> {
        socket.set_nonblocking(true)?;
        self.poller.add(socket, Event::readable(key))
    }

    /// Blocks until at least one registered socket is readable or
    /// `timeout` elapses (`None` waits indefinitely), returning the ready
    /// keys. An empty slice means the timeout fired (or the wait was
    /// interrupted by a signal).
    ///
    /// # Errors
    ///
    /// Propagates OS poll errors.
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<&[usize]> {
        self.poller.wait(&mut self.events, timeout)?;
        self.ready.clear();
        self.ready
            .extend(self.events.iter().filter(|e| e.readable).map(|e| e.key));
        Ok(&self.ready)
    }
}

/// Receives the next pending datagram of a nonblocking socket into `buf`
/// as `(length, source)`, or `None` once the socket reports
/// `WouldBlock`. Errors as [`drain_socket`].
pub(crate) fn recv_datagram(
    socket: &UdpSocket,
    buf: &mut [u8],
) -> io::Result<Option<(usize, SocketAddr)>> {
    loop {
        match socket.recv_from(buf) {
            Ok(received) => return Ok(Some(received)),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(None)
            }
            // On some platforms an ICMP port-unreachable surfaces as a
            // reset on the *next* recv; for fire-and-forget gossip that
            // is just loss, not an error.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted | io::ErrorKind::ConnectionReset
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        }
    }
}

/// Drains a nonblocking socket, invoking `on_datagram` for every pending
/// datagram until the socket reports `WouldBlock`. Returns the number of
/// datagrams handled.
///
/// # Errors
///
/// Propagates unexpected socket errors (anything other than
/// `WouldBlock`/`TimedOut`/`Interrupted`; spurious `ConnectionReset`
/// reports from connectionless UDP are swallowed too).
pub fn drain_socket(
    socket: &UdpSocket,
    buf: &mut [u8],
    mut on_datagram: impl FnMut(&[u8], SocketAddr),
) -> io::Result<usize> {
    let mut handled = 0usize;
    while let Some((len, from)) = recv_datagram(socket, buf)? {
        if let Some(datagram) = buf.get(..len) {
            handled = handled.saturating_add(1);
            on_datagram(datagram, from);
        }
    }
    Ok(handled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (UdpSocket, UdpSocket) {
        let a = UdpSocket::bind("127.0.0.1:0").expect("bind a");
        let b = UdpSocket::bind("127.0.0.1:0").expect("bind b");
        (a, b)
    }

    #[test]
    fn wait_reports_ready_key_and_times_out_when_idle() {
        let (a, b) = pair();
        let mut poller = UdpPoller::new().expect("poller");
        poller.register(&a, 7).expect("register");

        // Idle: times out with no keys.
        let ready = poller.wait(Some(Duration::from_millis(5))).expect("wait");
        assert!(ready.is_empty());

        b.send_to(b"ping", a.local_addr().expect("addr"))
            .expect("send");
        let ready = poller.wait(Some(Duration::from_secs(2))).expect("wait");
        assert_eq!(ready, &[7]);
    }

    #[test]
    fn drain_socket_consumes_all_pending_datagrams() {
        let (a, b) = pair();
        a.set_nonblocking(true).expect("nonblocking");
        let addr = a.local_addr().expect("addr");
        for i in 0..5u8 {
            b.send_to(&[i], addr).expect("send");
        }
        // Give loopback a moment to land all five.
        std::thread::sleep(Duration::from_millis(20));
        let mut buf = [0u8; 64];
        let mut seen = Vec::new();
        let n = drain_socket(&a, &mut buf, |d, _| seen.push(d.to_vec())).expect("drain");
        assert_eq!(n, 5);
        assert_eq!(seen.len(), 5);
        // A second drain finds nothing and does not block.
        let n = drain_socket(&a, &mut buf, |_, _| {}).expect("drain empty");
        assert_eq!(n, 0);
    }
}
