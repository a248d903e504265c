//! One worker process of the multi-process cluster harness: a
//! [`Cluster`] runtime hosting a slice of the global instance id space,
//! remote-controlled over a UDP control socket by
//! `scripts/cluster_harness.py`.
//!
//! The harness spawns N of these, collects their `READY` lines (instance
//! id → data-socket address), cross-registers everyone's address book
//! (`BOOK`), releases them (`GO`), then drives scenario waves:
//! `PUBLISH`/`REPORT` for delivery measurement, `DROP`/`UNDROP` ingress
//! filters for partitions, process kill/restart (with `--join` workers
//! bootstrapping through the §3.4 subscription handshake) for churn, and
//! a serialisable [`FaultSpec`] applied at the socket boundary via the
//! cluster's [`LinkFate`] hook for loss/duplication regimes.
//!
//! Control protocol (one ASCII datagram per command, loopback-reliable):
//!
//! ```text
//! worker → harness:  READY <proc> <id@addr,...>      after binding
//!                    BOOKN <count>                   answer to BOOKN?
//!                    STATS <wave> <expected> <done> <instances>
//!                          <min> <mean> <latency_ms> <tx> <rx>
//!                    PONG <proc>
//! harness → worker:  BOOK <id@addr> ...              cumulative, chunked
//!                    BOOKN?
//!                    GO                              build instances, run
//!                    PUBLISH <wave> <k> <expected>   publish k events
//!                    REPORT <wave>
//!                    DROP <addr> | UNDROP <addr> | CLEARDROP
//!                    PING | STOP
//! ```
//!
//! Delivery accounting: wave payloads are `w<wave>:<origin id>`; each
//! instance's per-wave distinct-event count is compared against the
//! published total, giving the min/mean reliability the TSV rows report.

use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use lpbcast_core::{Config, Lpbcast};
use lpbcast_membership::{Swim, SwimConfig};
use lpbcast_net::{Cluster, ClusterBuilder, LinkFate, WireMessage};
use lpbcast_sim::{FaultPlane, FaultSpec};
use lpbcast_types::{Event, FastMap, FastSet, ProcessId, Protocol};

/// Gossip config shared by every worker: retransmission on, buffers
/// sized so events stay recoverable across many real-clock rounds
/// (mirrors `examples/udp_cluster.rs`).
fn gossip_config(view: usize) -> Config {
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

/// SWIM tuned for a shared real-clock event loop. The sim's tick is
/// instantaneous, so `scaled` can afford 1-tick ack windows; here a
/// mass-eviction burst (a whole process dying takes its instance slice
/// with it) can stall the loop for tens of milliseconds, and an ack
/// delayed past the window reads as a failed probe. A false *suspicion*
/// is refutable, but a false *confirm* is sticky — so stretch every
/// detection window well past any plausible loop stall, trading
/// detection latency (still well under the harness's scenario phases).
fn swim_config(n: usize) -> SwimConfig {
    let mut config = SwimConfig::scaled(n);
    config.ack_timeout *= 4;
    config.indirect_timeout *= 4;
    config.suspect_timeout *= 6;
    config.hearsay_slack *= 6;
    config
}

#[derive(Debug, Clone)]
struct Args {
    harness: SocketAddr,
    proc_idx: usize,
    id_base: u64,
    count: u64,
    total_nodes: u64,
    protocol: String,
    interval: Duration,
    sockets: usize,
    view_size: usize,
    seed: u64,
    fault: Option<FaultSpec>,
    join: bool,
    contacts: Vec<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        harness: "127.0.0.1:0".parse().map_err(|e| format!("{e}"))?,
        proc_idx: 0,
        id_base: 0,
        count: 0,
        total_nodes: 0,
        protocol: "lpbcast".into(),
        interval: Duration::from_millis(30),
        sockets: 2,
        view_size: 8,
        seed: 1,
        fault: None,
        join: false,
        contacts: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    let mut saw_harness = false;
    while let Some(flag) = it.next() {
        if flag == "--join" {
            args.join = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--harness" => {
                args.harness = value.parse().map_err(|e| format!("--harness: {e}"))?;
                saw_harness = true;
            }
            "--proc" => args.proc_idx = value.parse().map_err(|e| format!("--proc: {e}"))?,
            "--id-base" => args.id_base = value.parse().map_err(|e| format!("--id-base: {e}"))?,
            "--count" => args.count = value.parse().map_err(|e| format!("--count: {e}"))?,
            "--nodes" => {
                args.total_nodes = value.parse().map_err(|e| format!("--nodes: {e}"))?;
            }
            "--protocol" => args.protocol = value,
            "--interval-ms" => {
                let ms: u64 = value.parse().map_err(|e| format!("--interval-ms: {e}"))?;
                args.interval = Duration::from_millis(ms.max(1));
            }
            "--sockets" => args.sockets = value.parse().map_err(|e| format!("--sockets: {e}"))?,
            "--view-size" => {
                args.view_size = value.parse().map_err(|e| format!("--view-size: {e}"))?;
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--fault" => {
                args.fault = Some(value.parse().map_err(|e| format!("--fault: {e}"))?);
            }
            "--contacts" => {
                args.contacts = value
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().map_err(|e| format!("--contacts: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !saw_harness || args.count == 0 || args.total_nodes == 0 {
        return Err("required: --harness ADDR --count N --nodes TOTAL".into());
    }
    Ok(args)
}

/// Per-wave delivery ledger: who published how much, who has seen what.
#[derive(Debug, Default)]
struct Wave {
    expected: u64,
    started: Option<Instant>,
    last_delivery: Option<Instant>,
    /// instance id → distinct wave events delivered.
    seen: FastMap<ProcessId, FastSet<u64>>,
}

#[derive(Debug, Default)]
struct Ledger {
    waves: FastMap<u64, Wave>,
}

impl Ledger {
    fn wave(&mut self, wave: u64) -> &mut Wave {
        self.waves.entry(wave).or_default()
    }

    fn record(&mut self, instance: ProcessId, event: &Event, now: Instant) {
        let Ok(text) = std::str::from_utf8(event.payload()) else {
            return;
        };
        let Some(rest) = text.strip_prefix('w') else {
            return;
        };
        let Some((wave_s, origin_s)) = rest.split_once(':') else {
            return;
        };
        let (Ok(wave), Ok(origin)) = (wave_s.parse::<u64>(), origin_s.parse::<u64>()) else {
            return;
        };
        let w = self.wave(wave);
        if w.seen.entry(instance).or_default().insert(origin) {
            w.last_delivery = Some(now);
        }
    }

    /// `(done, min, mean, latency_ms)` across `instances` local ids.
    fn stats(&self, wave: u64, instances: &[ProcessId]) -> (u64, f64, f64, f64) {
        let Some(w) = self.waves.get(&wave) else {
            return (0, 0.0, 0.0, 0.0);
        };
        if w.expected == 0 || instances.is_empty() {
            return (0, 0.0, 0.0, 0.0);
        }
        let mut done = 0u64;
        let mut min: f64 = 1.0;
        let mut sum = 0.0;
        for id in instances {
            let got = w.seen.get(id).map_or(0, FastSet::len) as u64;
            let frac = got.min(w.expected) as f64 / w.expected as f64;
            if got >= w.expected {
                done += 1;
            }
            min = min.min(frac);
            sum += frac;
        }
        let latency = match (w.started, w.last_delivery) {
            (Some(s), Some(l)) => l.saturating_duration_since(s).as_secs_f64() * 1e3,
            _ => 0.0,
        };
        (done, min, sum / instances.len() as f64, latency)
    }
}

/// Everything the control loop needs besides the protocol-generic
/// cluster itself.
struct Control {
    harness: SocketAddr,
    proc_idx: usize,
    ids: Vec<ProcessId>,
    ledger: Ledger,
    go: bool,
    stop: bool,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("net_harness: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.protocol.as_str() {
        "lpbcast" => {
            let a = args.clone();
            run(&args, move |id, view, contacts| {
                let seed = a.seed ^ (id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let config = gossip_config(a.view_size);
                if a.join {
                    Lpbcast::joining(ProcessId::new(id), config, seed, contacts)
                } else {
                    Lpbcast::with_initial_view(ProcessId::new(id), config, seed, view)
                }
            })
        }
        "swim+lpbcast" => {
            let a = args.clone();
            let swim_n = args.total_nodes as usize;
            run(&args, move |id, view, contacts| {
                let seed = a.seed ^ (id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let config = gossip_config(a.view_size);
                let inner = if a.join {
                    Lpbcast::joining(ProcessId::new(id), config, seed, contacts)
                } else {
                    Lpbcast::with_initial_view(ProcessId::new(id), config, seed, view)
                };
                Swim::new(inner, swim_config(swim_n), seed ^ 0x5157_494D)
            })
        }
        other => {
            eprintln!("net_harness: unknown --protocol {other} (lpbcast | swim+lpbcast)");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("net_harness[{}]: {e}", args.proc_idx);
        std::process::exit(1);
    }
}

/// Builds the cluster, reports READY, then runs the control loop.
/// `make(id, initial_view, contacts)` constructs one instance.
#[expect(
    clippy::disallowed_methods,
    reason = "D2 waiver: the real-network harness stamps deliveries with the wall clock"
)]
fn run<P, F>(args: &Args, make: F) -> Result<(), Box<dyn std::error::Error>>
where
    P: Protocol,
    P::Msg: WireMessage,
    F: Fn(u64, Vec<ProcessId>, Vec<ProcessId>) -> P,
{
    let mut cluster: Cluster<P> = ClusterBuilder::new(args.interval)
        .sockets(args.sockets)
        .build()?;
    let control_socket = UdpSocket::bind("127.0.0.1:0")?;
    cluster.attach_control(control_socket)?;

    if let Some(spec) = &args.fault {
        let plane = FaultPlane::new(*spec, args.seed);
        let mut rounds: FastMap<(u64, u64), u64> = FastMap::default();
        cluster.set_link_fault(move |from, to| {
            let round = rounds.entry((from.as_u64(), to.as_u64())).or_insert(0);
            *round += 1;
            // Delay has no socket-boundary analogue (there is no round
            // buffer to park a datagram in), so a delayed fate sends
            // immediately; drop and duplicate map one-to-one.
            let fate = plane.fate(from, to, *round, 0);
            match (fate.primary, fate.duplicate) {
                (None, None) => LinkFate::Drop,
                (_, Some(_)) => LinkFate::Duplicate,
                _ => LinkFate::Deliver,
            }
        });
    }

    // Stripe mapping is insertion-order % sockets — precompute each id's
    // data address so READY can go out before instances exist (the
    // harness must BOOK everyone before GO releases the protocols).
    let addrs = cluster.local_addrs();
    let ids: Vec<ProcessId> = (args.id_base..args.id_base + args.count)
        .map(ProcessId::new)
        .collect();
    let pairs: Vec<String> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| format!("{}@{}", id.as_u64(), addrs[i % addrs.len()]))
        .collect();
    let ready = format!("READY {} {}", args.proc_idx, pairs.join(","));
    cluster.control_send(ready.as_bytes(), args.harness);

    let mut ctl = Control {
        harness: args.harness,
        proc_idx: args.proc_idx,
        ids: ids.clone(),
        ledger: Ledger::default(),
        go: false,
        stop: false,
    };

    while !ctl.stop {
        let msgs = cluster.step(Duration::from_millis(2))?;
        for (from, raw) in msgs {
            handle(&mut ctl, &mut cluster, args, &make, from, &raw)?;
        }
        let now = Instant::now();
        for (instance, event) in cluster.take_deliveries() {
            ctl.ledger.record(instance, &event, now);
        }
    }
    Ok(())
}

#[expect(
    clippy::disallowed_methods,
    reason = "D2 waiver: the real-network harness stamps each wave's start with the wall clock"
)]
fn handle<P, F>(
    ctl: &mut Control,
    cluster: &mut Cluster<P>,
    args: &Args,
    make: &F,
    from: SocketAddr,
    raw: &[u8],
) -> Result<(), Box<dyn std::error::Error>>
where
    P: Protocol,
    P::Msg: WireMessage,
    F: Fn(u64, Vec<ProcessId>, Vec<ProcessId>) -> P,
{
    let line = String::from_utf8_lossy(raw);
    let mut words = line.split_whitespace();
    match words.next().unwrap_or("") {
        "BOOK" => {
            for pair in words {
                let Some((id_s, addr_s)) = pair.split_once('@') else {
                    continue;
                };
                if let (Ok(id), Ok(addr)) = (id_s.parse::<u64>(), addr_s.parse::<SocketAddr>()) {
                    cluster.register_peer(ProcessId::new(id), addr);
                }
            }
        }
        "BOOKN?" => {
            let reply = format!("BOOKN {}", cluster.address_book().len());
            cluster.control_send(reply.as_bytes(), from);
        }
        "GO" => {
            if !ctl.go {
                ctl.go = true;
                build_instances(cluster, args, make)?;
            }
            cluster.control_send(b"GONE", from);
        }
        "PUBLISH" => {
            let wave: u64 = words.next().unwrap_or("0").parse().unwrap_or(0);
            let k: usize = words.next().unwrap_or("0").parse().unwrap_or(0);
            let expected: u64 = words.next().unwrap_or("0").parse().unwrap_or(0);
            let now = Instant::now();
            let w = ctl.ledger.wave(wave);
            w.expected = expected;
            w.started.get_or_insert(now);
            let publishers: Vec<ProcessId> = ctl.ids.iter().copied().take(k).collect();
            for id in publishers {
                let payload = format!("w{wave}:{}", id.as_u64());
                cluster.broadcast(id, payload);
                // The origin never re-delivers its own event (§3.2), so
                // count it as seen here or full delivery is unreachable.
                let w = ctl.ledger.wave(wave);
                w.seen.entry(id).or_default().insert(id.as_u64());
            }
            cluster.control_send(b"PUBLISHED", from);
        }
        "REPORT" => {
            let wave: u64 = words.next().unwrap_or("0").parse().unwrap_or(0);
            let (done, min, mean, latency) = ctl.ledger.stats(wave, &ctl.ids);
            let expected = ctl.ledger.wave(wave).expected;
            let stats = cluster.stats();
            let reply = format!(
                "STATS {wave} {expected} {done} {} {min:.6} {mean:.6} {latency:.1} {} {}",
                ctl.ids.len(),
                stats.wire_tx_bytes,
                stats.wire_rx_bytes,
            );
            cluster.control_send(reply.as_bytes(), from);
        }
        "DROP" => {
            if let Some(Ok(addr)) = words.next().map(str::parse::<SocketAddr>) {
                cluster.set_drop(addr, true);
            }
        }
        "UNDROP" => {
            if let Some(Ok(addr)) = words.next().map(str::parse::<SocketAddr>) {
                cluster.set_drop(addr, false);
            }
        }
        "CLEARDROP" => cluster.clear_drops(),
        "PING" => {
            let reply = format!("PONG {}", ctl.proc_idx);
            cluster.control_send(reply.as_bytes(), from);
        }
        "STOP" => {
            cluster.control_send(b"BYE", ctl.harness);
            ctl.stop = true;
        }
        _ => {}
    }
    Ok(())
}

/// Constructs and registers this worker's protocol instances. Bootstrap
/// workers get a ring initial view over the global id space (gossip
/// membership does the rest); `--join` replacements subscribe through
/// the supplied contacts (§3.4).
fn build_instances<P, F>(
    cluster: &mut Cluster<P>,
    args: &Args,
    make: &F,
) -> Result<(), Box<dyn std::error::Error>>
where
    P: Protocol,
    P::Msg: WireMessage,
    F: Fn(u64, Vec<ProcessId>, Vec<ProcessId>) -> P,
{
    let contacts: Vec<ProcessId> = args.contacts.iter().copied().map(ProcessId::new).collect();
    for id in args.id_base..args.id_base + args.count {
        // Ring neighbours across the whole cluster — spans processes, so
        // cross-process links exist from round one.
        let view: Vec<ProcessId> = (1..=3)
            .map(|d| ProcessId::new((id + d) % args.total_nodes))
            .filter(|p| p.as_u64() != id)
            .collect();
        let machine = make(id, view, contacts.clone());
        cluster.add_instance(machine)?;
    }
    Ok(())
}
