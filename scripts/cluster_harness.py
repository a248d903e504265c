#!/usr/bin/env python3
"""Multi-process deployment harness for the real-network cluster runtime.

    python3 scripts/cluster_harness.py --processes 3 --nodes-per 60
    python3 scripts/cluster_harness.py --protocols lpbcast,swim+lpbcast \\
        --scenarios steady,loss,churn,partition --strict

Spawns N ``net_harness`` worker processes (the ``Cluster`` runtime from
``lpbcast-net``, each hosting a slice of the instance id space over a few
UDP sockets), cross-registers their address books over a UDP control
socket, and drives real-network versions of the scenario suite:

* ``steady``    — publish a wave, wait for full delivery;
* ``loss``      — same wave under a socket-boundary ``FaultSpec``
                  (uniform link loss, the paper's epsilon on real sockets);
* ``churn``     — kill a worker with SIGKILL mid-run, spawn a ``--join``
                  replacement (fresh ids; SWIM confirmations are sticky)
                  that bootstraps through the Sec. 3.4 handshake, then
                  require the next wave to reach every live instance;
* ``partition`` — cut the process set in two with harness-injected
                  ingress drop filters, verify the far side starves,
                  heal, and measure recovery time.

Each scenario appends one row to ``results/net_scenarios.tsv`` in the
schema ``check_results_schema.py`` validates; ``--strict`` makes any
incomplete delivery a non-zero exit. Stdlib only — CI must not need pip.
"""

import argparse
import os
import signal
import socket
import subprocess
import sys
import time

HEADER = [
    "scenario", "protocol", "processes", "nodes", "sockets", "loss",
    "kills", "kill_schedule", "fault", "reliability_mean",
    "reliability_min", "latency_ms", "recovery_ms", "wire_tx_bytes",
    "wire_rx_bytes",
]

BOOK_CHUNK = 25          # id@addr pairs per BOOK datagram
CTRL_TIMEOUT = 0.25      # seconds per control-socket recv
REQUEST_RETRIES = 40     # control request retransmissions (UDP, loopback)


class Worker:
    """One spawned net_harness process and what we know about it."""

    def __init__(self, idx, id_base, count, popen):
        self.idx = idx
        self.id_base = id_base
        self.count = count
        self.popen = popen
        self.ctrl_addr = None      # where its control socket answers
        self.entries = {}          # instance id -> "ip:port" data address

    def data_addrs(self):
        return sorted(set(self.entries.values()))


class Harness:
    """The control-socket side: spawn, book, publish, report, kill."""

    def __init__(self, args, protocol, fault=None):
        self.args = args
        self.protocol = protocol
        self.fault = fault
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(CTRL_TIMEOUT)
        self.addr = "%s:%d" % self.sock.getsockname()
        self.workers = {}
        self.next_wave = 1

    # -- process lifecycle ------------------------------------------------

    def spawn(self, idx, id_base, count, join=False, contacts=()):
        argv = [
            self.args.bin,
            "--harness", self.addr,
            "--proc", str(idx),
            "--id-base", str(id_base),
            "--count", str(count),
            "--nodes", str(self.args.processes * self.args.nodes_per),
            "--protocol", self.protocol,
            "--interval-ms", str(self.args.interval_ms),
            "--sockets", str(self.args.sockets),
            "--seed", str(self.args.seed + idx),
        ]
        if self.fault:
            argv += ["--fault", self.fault]
        if join:
            argv += ["--join", "--contacts", ",".join(str(c) for c in contacts)]
        popen = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self.workers[idx] = Worker(idx, id_base, count, popen)

    def kill(self, idx):
        worker = self.workers.pop(idx)
        worker.popen.kill()
        worker.popen.wait()
        return worker

    def stop_all(self):
        for worker in self.workers.values():
            if worker.ctrl_addr:
                self._send(b"STOP", worker.ctrl_addr)
        deadline = time.monotonic() + 5
        for worker in self.workers.values():
            budget = max(0.1, deadline - time.monotonic())
            try:
                worker.popen.wait(timeout=budget)
            except subprocess.TimeoutExpired:
                worker.popen.kill()
                worker.popen.wait()
        self.workers.clear()

    def close(self):
        self.stop_all()
        self.sock.close()

    # -- control-socket plumbing ------------------------------------------

    def _send(self, payload, addr):
        host, port = addr.rsplit(":", 1)
        self.sock.sendto(payload, (host, int(port)))

    def _recv(self):
        try:
            data, src = self.sock.recvfrom(65536)
        except socket.timeout:
            return None, None
        return data.decode("utf-8", "replace").split(), "%s:%d" % src

    def wait_ready(self, idxs, timeout):
        """Collects READY lines from the given worker indexes."""
        pending = set(idxs)
        deadline = time.monotonic() + timeout
        while pending and time.monotonic() < deadline:
            words, src = self._recv()
            if not words or words[0] != "READY" or len(words) < 3:
                self._check_crashed(pending)
                continue
            idx = int(words[1])
            worker = self.workers.get(idx)
            if worker is None:
                continue
            worker.ctrl_addr = src
            for pair in words[2].split(","):
                ident, _, addr = pair.partition("@")
                if addr:
                    worker.entries[int(ident)] = addr
            pending.discard(idx)
        if pending:
            raise RuntimeError("workers never became READY: %s" % sorted(pending))

    def _check_crashed(self, pending):
        for idx in list(pending):
            worker = self.workers.get(idx)
            if worker and worker.popen.poll() is not None:
                err = worker.popen.stderr.read().decode("utf-8", "replace")
                raise RuntimeError(
                    "worker %d exited %s before READY: %s"
                    % (idx, worker.popen.returncode, err.strip()))

    def request(self, worker, payload, expect):
        """Sends a control request until a reply starting `expect` arrives."""
        for _ in range(REQUEST_RETRIES):
            self._send(payload, worker.ctrl_addr)
            words, _ = self._recv()
            if words and words[0] == expect:
                return words
        raise RuntimeError(
            "worker %d never answered %r" % (worker.idx, payload[:20]))

    # -- phases ------------------------------------------------------------

    def book_and_go(self, idxs=None):
        """Cross-registers every worker's entries, then releases them."""
        idxs = sorted(self.workers) if idxs is None else sorted(idxs)
        entries = {}
        for worker in self.workers.values():
            entries.update(worker.entries)
        pairs = ["%d@%s" % (i, a) for i, a in sorted(entries.items())]
        for idx in idxs:
            worker = self.workers[idx]
            for lo in range(0, len(pairs), BOOK_CHUNK):
                chunk = " ".join(pairs[lo:lo + BOOK_CHUNK])
                self._send(("BOOK " + chunk).encode(), worker.ctrl_addr)
            words = self.request(worker, b"BOOKN?", "BOOKN")
            if int(words[1]) < len(entries):
                # UDP lost a chunk: BOOK registration is idempotent, retry.
                for lo in range(0, len(pairs), BOOK_CHUNK):
                    chunk = " ".join(pairs[lo:lo + BOOK_CHUNK])
                    self._send(("BOOK " + chunk).encode(), worker.ctrl_addr)
                words = self.request(worker, b"BOOKN?", "BOOKN")
                if int(words[1]) < len(entries):
                    raise RuntimeError("worker %d book incomplete" % idx)
            self.request(worker, b"GO", "GONE")

    def publish(self, publishers, among=None):
        """Starts a wave: `publishers` events spread across the workers
        in `among` (default all). Every worker learns the expected count,
        even ones publishing nothing. Returns (wave, expected)."""
        wave = self.next_wave
        self.next_wave += 1
        idxs = sorted(self.workers)
        sources = sorted(among) if among is not None else idxs
        per = {i: 0 for i in idxs}
        for i in sources:
            per[i] = publishers // len(sources)
        for i in sources[:publishers % len(sources)]:
            per[i] += 1
        expected = sum(per.values())
        for idx in idxs:
            cmd = "PUBLISH %d %d %d" % (wave, per[idx], expected)
            self.request(self.workers[idx], cmd.encode(), "PUBLISHED")
        return wave, expected

    def report(self, wave):
        """One REPORT round-trip per worker -> list of per-worker stats."""
        stats = []
        for idx in sorted(self.workers):
            worker = self.workers[idx]
            words = self.request(worker, ("REPORT %d" % wave).encode(), "STATS")
            stats.append({
                "idx": idx,
                "expected": int(words[2]),
                "done": int(words[3]),
                "instances": int(words[4]),
                "min": float(words[5]),
                "mean": float(words[6]),
                "latency_ms": float(words[7]),
                "tx": int(words[8]),
                "rx": int(words[9]),
            })
        return stats

    def await_wave(self, wave, deadline_s):
        """Polls REPORT until every instance of every worker is done."""
        deadline = time.monotonic() + deadline_s
        stats = self.report(wave)
        while time.monotonic() < deadline:
            if all(s["done"] == s["instances"] for s in stats):
                return stats, True
            time.sleep(0.2)
            stats = self.report(wave)
        return stats, all(s["done"] == s["instances"] for s in stats)

    def set_partition(self, side_a, side_b, active):
        """Installs/removes bidirectional ingress drops between sides."""
        cmd = "DROP" if active else "UNDROP"
        for near, far in ((side_a, side_b), (side_b, side_a)):
            far_addrs = [a for i in far for a in self.workers[i].data_addrs()]
            for idx in near:
                worker = self.workers[idx]
                for addr in far_addrs:
                    self._send(("%s %s" % (cmd, addr)).encode(), worker.ctrl_addr)
                # PING fences the unacknowledged DROP/UNDROP stream.
                self.request(worker, b"PING", "PONG")


def summarize(stats):
    total = sum(s["instances"] for s in stats)
    mean = sum(s["mean"] * s["instances"] for s in stats) / max(total, 1)
    return {
        "mean": mean,
        "min": min(s["min"] for s in stats),
        "latency_ms": max(s["latency_ms"] for s in stats),
        "tx": sum(s["tx"] for s in stats),
        "rx": sum(s["rx"] for s in stats),
        "complete": all(s["done"] == s["instances"] for s in stats),
        "per_proc": stats,
    }


def fmt(value, digits=4):
    return "%.*f" % (digits, value)


def row(scenario, protocol, args, summary, loss=0.0, kills=0,
        kill_schedule="-", fault="-", latency=None, recovery=None):
    return [
        scenario, protocol, str(args.processes),
        str(args.processes * args.nodes_per), str(args.sockets),
        fmt(loss, 3), str(kills), kill_schedule, fault,
        fmt(summary["mean"]), fmt(summary["min"]),
        "-" if latency is None else fmt(latency, 1),
        "-" if recovery is None else fmt(recovery, 1),
        str(summary["tx"]), str(summary["rx"]),
    ]


# -- scenarios -------------------------------------------------------------

def boot(args, protocol, fault=None):
    harness = Harness(args, protocol, fault=fault)
    try:
        for idx in range(args.processes):
            harness.spawn(idx, idx * args.nodes_per, args.nodes_per)
        harness.wait_ready(range(args.processes), args.ready_timeout)
        harness.book_and_go()
    except Exception:
        harness.close()
        raise
    return harness


def run_steady(args, protocol, fault=None, loss=0.0, name="steady"):
    harness = boot(args, protocol, fault=fault)
    try:
        wave, _ = harness.publish(args.publishers)
        stats, _ = harness.await_wave(wave, args.deadline)
        summary = summarize(stats)
    finally:
        harness.close()
    return row(name, protocol, args, summary, loss=loss,
               fault=fault or "-", latency=summary["latency_ms"]), summary


def run_churn(args, protocol):
    harness = boot(args, protocol)
    try:
        wave1, _ = harness.publish(args.publishers)
        stats, warm = harness.await_wave(wave1, args.deadline)
        if not warm:
            summary = summarize(stats)
            return row("churn", protocol, args, summary, kills=1,
                       kill_schedule="warmup-incomplete"), summary

        victim = args.processes - 1
        harness.kill(victim)
        # Replacement: fresh ids past the original space (SWIM confirmed
        # deaths are sticky, a reused id would stay dead), joining via
        # contacts on the surviving workers.
        nodes = args.processes * args.nodes_per
        survivors = sorted(harness.workers)
        contacts = [harness.workers[survivors[0]].id_base + k for k in range(3)]
        harness.spawn(victim, nodes, args.nodes_per, join=True,
                      contacts=contacts)
        harness.wait_ready([victim], args.ready_timeout)
        harness.book_and_go(idxs=[victim])
        # Survivors need the replacement's addresses too.
        harness.book_and_go(idxs=survivors)

        t0 = time.monotonic()
        wave2, _ = harness.publish(args.publishers)
        stats, _ = harness.await_wave(wave2, args.deadline)
        recovery_ms = (time.monotonic() - t0) * 1e3
        summary = summarize(stats)
        schedule = "p%d@w%d:kill+join" % (victim, wave2)
        return row("churn", protocol, args, summary, kills=1,
                   kill_schedule=schedule, latency=summary["latency_ms"],
                   recovery=recovery_ms), summary
    finally:
        harness.close()


def run_partition(args, protocol):
    harness = boot(args, protocol)
    try:
        wave1, _ = harness.publish(args.publishers)
        stats, warm = harness.await_wave(wave1, args.deadline)
        if not warm:
            summary = summarize(stats)
            return row("partition", protocol, args, summary,
                       kill_schedule="warmup-incomplete"), summary

        half = max(1, args.processes // 2)
        side_a = list(range(half))
        side_b = list(range(half, args.processes))
        harness.set_partition(side_a, side_b, True)
        # Publish only on side A so the cut side has nothing local to
        # deliver — its starvation then proves the filters bite.
        wave2, _ = harness.publish(args.publishers, among=side_a)
        time.sleep(args.partition_s)
        # The far side must have starved while the cut was up.
        cut = [s for s in harness.report(wave2) if s["idx"] in side_b]
        starved = all(s["min"] == 0.0 for s in cut)

        harness.set_partition(side_a, side_b, False)
        t0 = time.monotonic()
        schedule = "cut[%s|%s]@w%d/%.1fs" % (
            ",".join(map(str, side_a)), ",".join(map(str, side_b)),
            wave2, args.partition_s)
        if protocol.startswith("swim"):
            # SWIM confirmed the cut side dead during the partition, and
            # confirmed deaths are sticky — per the SWIM paper a healed
            # side rejoins under fresh identities. Replace side B with
            # --join workers and require the next wave to cover everyone.
            nodes = args.processes * args.nodes_per
            contacts = [harness.workers[side_a[0]].id_base + k
                        for k in range(3)]
            for k, idx in enumerate(side_b):
                harness.kill(idx)
                harness.spawn(idx, nodes + k * args.nodes_per,
                              args.nodes_per, join=True, contacts=contacts)
            harness.wait_ready(side_b, args.ready_timeout)
            harness.book_and_go(idxs=side_b)
            harness.book_and_go(idxs=side_a)
            wave3, _ = harness.publish(args.publishers, among=side_a)
            stats, _ = harness.await_wave(wave3, args.deadline)
            schedule += "+rejoin@w%d" % wave3
        else:
            stats, _ = harness.await_wave(wave2, args.deadline)
        recovery_ms = (time.monotonic() - t0) * 1e3
        summary = summarize(stats)
        summary["complete"] = summary["complete"] and starved
        return row("partition", protocol, args, summary,
                   kill_schedule=schedule, recovery=recovery_ms), summary
    finally:
        harness.close()


SCENARIOS = {
    "steady": lambda args, proto: run_steady(args, proto),
    "loss": lambda args, proto: run_steady(
        args, proto, fault="lossy_links=1;link_loss=%s;seed=7" % args.loss,
        loss=args.loss, name="loss"),
    "churn": run_churn,
    "partition": run_partition,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--bin", default=os.path.join(
        "target", "release", "net_harness"))
    parser.add_argument("--processes", type=int, default=3)
    parser.add_argument("--nodes-per", type=int, default=60)
    parser.add_argument("--sockets", type=int, default=2)
    parser.add_argument("--interval-ms", type=int, default=25)
    parser.add_argument("--publishers", type=int, default=10)
    parser.add_argument("--loss", type=float, default=0.05)
    parser.add_argument("--partition-s", type=float, default=2.0)
    parser.add_argument("--deadline", type=float, default=90.0,
                        help="full-delivery deadline per wave (seconds)")
    parser.add_argument("--ready-timeout", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--protocols", default="lpbcast,swim+lpbcast")
    parser.add_argument("--scenarios", default="steady,loss,churn,partition")
    parser.add_argument("--out", default=os.path.join(
        "results", "net_scenarios.tsv"))
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero unless every scenario reached "
                             "full delivery")
    args = parser.parse_args(argv)

    if not os.path.exists(args.bin):
        print("cluster_harness: %s not built (cargo build --release)"
              % args.bin, file=sys.stderr)
        return 2

    rows, failures = [], []
    for protocol in args.protocols.split(","):
        for name in args.scenarios.split(","):
            runner = SCENARIOS.get(name)
            if runner is None:
                print("cluster_harness: unknown scenario %r" % name,
                      file=sys.stderr)
                return 2
            t0 = time.monotonic()
            tsv_row, summary = runner(args, protocol)
            rows.append(tsv_row)
            verdict = "ok" if summary["complete"] else "INCOMPLETE"
            if not summary["complete"]:
                failures.append("%s/%s" % (name, protocol))
                for s in summary.get("per_proc", ()):
                    print("  proc %d: done %d/%d min=%.4f mean=%.4f"
                          % (s["idx"], s["done"], s["instances"],
                             s["min"], s["mean"]), file=sys.stderr)
            print("%-10s %-14s min=%s mean=%s %5.1fs  %s" % (
                name, protocol, tsv_row[10], tsv_row[9],
                time.monotonic() - t0, verdict))

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write("# real-network cluster scenarios: %d processes x %d "
                "instances, %d sockets/process\n"
                % (args.processes, args.nodes_per, args.sockets))
        f.write("\t".join(HEADER) + "\n")
        for tsv_row in rows:
            f.write("\t".join(tsv_row) + "\n")
    print("wrote %s (%d rows)" % (args.out, len(rows)))

    if failures:
        print("incomplete scenarios: %s" % ", ".join(failures),
              file=sys.stderr)
        if args.strict:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
