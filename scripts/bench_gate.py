#!/usr/bin/env python3
"""Soft drift report over two ``results/net_scenarios.tsv`` files.

Usage:
    python3 scripts/bench_gate.py --net COMMITTED.tsv FRESH.tsv

Compares the real-network cluster harness output
(``scripts/cluster_harness.py``) of a fresh run against the committed
baseline and prints one ``OK`` / ``WARN`` line per row. Every net row is
soft — WARN-only — because the rows measure a real UDP deployment on a
shared runner and CI runs a miniature grid whose process/instance shape
differs from the committed full-scale rows; see ``net_rows``. A value
that rose by more than 10% WARNs, and so does any rise from a committed
0 (``net_unreliability`` 0% -> some loss is the drift these rows exist to
show).

This is the only mode. Simulator wall clock is measured and judged by
``lpbench`` against ``BENCHMARK.json``; the simulator's deterministic
columns are pinned exactly by the golden tests under ``cargo test``.

Stdlib only by design: the repository's Rust workspace is
fully vendored and CI must not need pip.
"""

import sys

WARN_THRESHOLD = 0.10


def net_rows(path):
    """Maps real-network scenario labels -> higher-is-worse values.

    Parses a ``results/net_scenarios.tsv`` written by
    ``scripts/cluster_harness.py``. One label family per quality metric,
    keyed by scenario, protocol and deployment shape so a row names the
    exact experiment behind it:

    * ``net_unreliability <scenario>/<protocol> p=<procs> n=<nodes>`` —
      ``(1 - reliability_min) * 100`` (percent of the wave the worst
      instance missed);
    * ``net_recovery …`` / ``net_latency …`` — milliseconds, omitted for
      ``-`` cells (the row-set WARN surfaces a disappearance);
    * ``wire net …`` — bytes sent on the wire over the scenario.

    Every net row is SOFT: these are wall-clock measurements of a real
    UDP deployment on a shared runner, and CI runs a miniature grid
    whose (p, n) shape differs from the committed full-scale rows, so
    row-set mismatches and noisy drifts must never hard-fail the gate.
    """
    rows = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = [ln.rstrip("\n") for ln in f]
    except OSError as err:
        print(f"bench_gate: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    if not data:
        return rows
    header = data[0].split("\t")
    for line in data[1:]:
        cells = dict(zip(header, line.split("\t")))
        key = (f"{cells.get('scenario', '?')}/{cells.get('protocol', '?')} "
               f"p={cells.get('processes', '?')} n={cells.get('nodes', '?')}")

        def put(label, column, transform=float):
            raw = cells.get(column, "-")
            if raw != "-":
                try:
                    rows[label] = transform(raw)
                except ValueError:
                    pass

        put(f"net_unreliability {key}", "reliability_min",
            lambda v: (1.0 - float(v)) * 100.0)
        put(f"net_latency {key}", "latency_ms")
        put(f"net_recovery {key}", "recovery_ms")
        put(f"wire net {key}", "wire_tx_bytes")
    return rows


def gate_net(committed_path, fresh_path):
    """The ``--net`` mode: soft-compare two net_scenarios.tsv files."""
    committed = net_rows(committed_path)
    fresh = net_rows(fresh_path)
    if not committed and not fresh:
        print("bench_gate: no net scenario rows on either side", file=sys.stderr)
        return 2
    for label in sorted(set(committed) - set(fresh)):
        print(f"WARN  {label}: committed net row has no fresh counterpart (soft row; grid-shape-tuned)")
    for label in sorted(set(fresh) - set(committed)):
        print(f"WARN  {label}: only in fresh run (soft row)")
    for label in sorted(set(committed) & set(fresh)):
        compare(label, committed[label], fresh[label])
    print("bench_gate: net scenario rows are soft; gate passes")
    return 0


def compare(label, old, new):
    """Prints the verdict line of one row present on both sides."""
    if label.startswith("net_unreliability "):
        unit, scale = "% missed", 1.0
    elif label.startswith("wire net "):
        unit, scale = "KB", 1e3
    else:
        unit, scale = "ms", 1.0
    line = f"{label}: {old / scale:.1f} -> {new / scale:.1f} {unit}"
    if old > 0:
        line += f" ({(new / old - 1.0) * 100.0:+.1f}%)"
    # Against a committed 0 (perfect reliability) no ratio exists, but
    # any rise from it is exactly the drift to show.
    drifted = new > old * (1.0 + WARN_THRESHOLD)
    print(f"{'WARN ' if drifted else 'OK   '} {line}")


def main(argv):
    if len(argv) == 4 and argv[1] == "--net":
        return gate_net(argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
