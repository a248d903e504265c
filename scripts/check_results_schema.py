#!/usr/bin/env python3
"""Schema check over the artifacts the workspace writes into results/.

    python3 scripts/check_results_schema.py [results_dir]
    python3 scripts/check_results_schema.py --tsv results/net_scenarios.tsv
    python3 scripts/check_results_schema.py --json BENCH_sim.json

CI uploads ``results/*.tsv`` as artifacts; downstream tooling (plot
scripts, dashboards) indexes them by column name, so a silently renamed
or reordered column corrupts every consumer. This validates, for each
known figure:

* the first non-comment line is exactly the expected header;
* every data row has exactly as many columns as the header;
* numeric-looking columns contain parseable values.

Unknown ``*.tsv`` files only get the column-count consistency check (new
figures are how the directory grows).

``scenarios.tsv`` and ``mass_scenarios.tsv`` are the one scenario
renderer's long format (``spec seed metric value``): the spec string names
the cell, ``value`` is free-form (``never``, ``true``).

``--json`` loads ``BENCH_sim.json`` strictly: ``NaN`` / ``Infinity`` and a
repeated key with two different values are errors, the schema must be
``bench_sim/v11`` with no top-level key beyond v11's (so a section an
earlier schema had cannot linger), and every ``cells`` entry must carry
the shared report fields.

``--tsv`` checks one known figure alone — the mode the CI ``net_cluster``
job uses, where the other figures (regenerated by ``bench_sim`` in the
test job) are absent from the checkout. Stdlib only by design — CI must
not need pip.
"""

import json
import os
import sys

EXPECTED_HEADERS = {
    "scaling.tsv": [
        "n", "view_size", "buffer_bound", "mean_latency_rounds",
        "model_latency_rounds", "reliability", "wire_bytes_per_round",
    ],
    "scenarios.tsv": ["spec", "seed", "metric", "value"],
    "mass_scenarios.tsv": ["spec", "seed", "metric", "value"],
    "net_scenarios.tsv": [
        "scenario", "protocol", "processes", "nodes", "sockets", "loss",
        "kills", "kill_schedule", "fault", "reliability_mean",
        "reliability_min", "latency_ms", "recovery_ms", "wire_tx_bytes",
        "wire_rx_bytes",
    ],
}

# Columns whose every value must parse as a number ("never"/"true" style
# values live only in the free-form `value` column of the scenario
# renderer's long format).
NUMERIC = {
    "n", "view_size", "buffer_bound", "mean_latency_rounds",
    "model_latency_rounds", "reliability",
    "wire_bytes_per_round", "seed", "reliability_mean", "reliability_min",
    "processes", "nodes", "sockets", "loss",
    "kills", "latency_ms", "recovery_ms", "wire_tx_bytes", "wire_rx_bytes",
}

# Per-figure non-numeric tokens allowed in otherwise-numeric columns:
# net_scenarios.tsv dashes latency_ms when a scenario's completion time is
# dominated by an injected outage and recovery_ms when nothing was cut or
# killed.
TOKENS_OK = {
    "net_scenarios.tsv": {"latency_ms": {"-"}, "recovery_ms": {"-"}},
}

# The BENCH_sim.json schema this checks and its top-level keys: a section
# an earlier schema carried and this one dropped is an error.
SCHEMA = "bench_sim/v11"
KEYS = ["schema", "scaling", "scaling_xl", "cells"]

# The shared report fields every scenario cell carries, in renderer order.
CELL_FIELDS = [
    "spec", "seed", "protocol", "generator", "n", "rounds", "wire_bytes",
    "wire_messages", "reliability_mean", "reliability_min", "recovery_rounds",
]


def check_file(path, expected):
    """Returns a list of problem strings for one TSV file."""
    tokens_ok = TOKENS_OK.get(os.path.basename(path), {})
    problems = []
    with open(path, encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f]
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    if not rows:
        return [f"{path}: no header or data rows"]
    header = rows[0].split("\t")
    if expected is not None and header != expected:
        problems.append(
            f"{path}: header mismatch\n  expected: {expected}\n  found:    {header}")
        return problems
    for i, row in enumerate(rows[1:], start=2):
        cells = row.split("\t")
        if len(cells) != len(header):
            problems.append(
                f"{path}: data row {i} has {len(cells)} columns, header has {len(header)}")
            continue
        for name, cell in zip(header, cells):
            if name in NUMERIC and cell not in tokens_ok.get(name, set()):
                try:
                    float(cell)
                except ValueError:
                    problems.append(
                        f"{path}: row {i} column {name!r}: {cell!r} is not numeric")
    if expected is not None and len(rows) == 1:
        problems.append(f"{path}: header only, no data rows")
    return problems


def strict_pairs(pairs):
    """A JSON object whose repeated keys must repeat the same value."""
    obj = {}
    for key, value in pairs:
        if key in obj and obj[key] != value:
            raise ValueError(f"key {key!r} repeated with {obj[key]!r} and {value!r}")
        obj[key] = value
    return obj


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def check_bench_json(path):
    """Returns a list of problem strings for a BENCH_sim.json file."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, parse_constant=reject_constant,
                            object_pairs_hook=strict_pairs)
    except (OSError, ValueError) as e:
        return [f"{path}: {e}"]
    if doc.get("schema") != SCHEMA:
        return [f"{path}: schema {doc.get('schema')!r}, expected {SCHEMA!r}"]
    unknown = [key for key in doc if key not in KEYS]
    if unknown:
        return [f"{path}: keys {unknown} are not in {SCHEMA} ({KEYS})"]
    if "cells" not in doc:
        return [f"{path}: no cells"]
    problems = []
    for i, cell in enumerate(doc["cells"]):
        keys = list(cell)[:len(CELL_FIELDS)]
        if keys != CELL_FIELDS:
            problems.append(f"{path}: cells[{i}] starts with {keys}, expected {CELL_FIELDS}")
    return problems


def main(argv):
    if len(argv) > 2 and argv[1] == "--json":
        problems = check_bench_json(argv[2])
        for problem in problems:
            print(f"SCHEMA VIOLATION: {problem}")
        if problems:
            return 1
        print(f"checked {argv[2]} (strict JSON, {SCHEMA})")
        return 0
    if len(argv) > 2 and argv[1] == "--tsv":
        path = argv[2]
        expected = EXPECTED_HEADERS.get(os.path.basename(path))
        if expected is None:
            print(f"check_results_schema: no known schema for {path}",
                  file=sys.stderr)
            return 2
        try:
            problems = check_file(path, expected)
        except OSError as e:
            problems = [f"{path}: unreadable: {e}"]
        for problem in problems:
            print(f"SCHEMA VIOLATION: {problem}")
        if problems:
            return 1
        print(f"checked {path} (schema-checked)")
        return 0
    results_dir = argv[1] if len(argv) > 1 else "results"
    if not os.path.isdir(results_dir):
        print(f"check_results_schema: {results_dir}/ does not exist", file=sys.stderr)
        return 2
    tsvs = sorted(f for f in os.listdir(results_dir) if f.endswith(".tsv"))
    if not tsvs:
        print(f"check_results_schema: no .tsv files in {results_dir}/", file=sys.stderr)
        return 2
    missing = [name for name in EXPECTED_HEADERS if name not in tsvs]
    problems = [f"{results_dir}/{name}: expected figure missing" for name in missing]
    for name in tsvs:
        expected = EXPECTED_HEADERS.get(name)
        problems.extend(check_file(os.path.join(results_dir, name), expected))
        verdict = "schema-checked" if name in EXPECTED_HEADERS else "column-count only"
        print(f"checked {results_dir}/{name} ({verdict})")
    for problem in problems:
        print(f"SCHEMA VIOLATION: {problem}")
    if problems:
        return 1
    print("check_results_schema: all figures conform")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
