#!/usr/bin/env python3
"""Unit tests for check_results_schema.py (stdlib only).

    python3 scripts/test_check_results_schema.py
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_results_schema as mod  # noqa: E402


class TsvTests(unittest.TestCase):
    def test_header_mismatch_is_reported(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "scenarios.tsv")
            with open(path, "w", encoding="utf-8") as f:
                f.write("scenario\tprotocol\tn\tmetric\n")  # missing `value`
                f.write("s\tp\t10\tm\n")
            problems = mod.check_file(path, mod.EXPECTED_HEADERS["scenarios.tsv"])
        self.assertTrue(any("header mismatch" in p for p in problems), problems)

    def test_good_tsvs_pass_dir_mode(self):
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "scenarios.tsv"), "w", encoding="utf-8") as f:
                f.write("scenario\tprotocol\tn\tmetric\tvalue\n")
                f.write("s\tp\t10\tm\t0.5\n")
            for name in mod.EXPECTED_HEADERS:
                if name == "scenarios.tsv":
                    continue
                with open(os.path.join(d, name), "w", encoding="utf-8") as f:
                    f.write("\t".join(mod.EXPECTED_HEADERS[name]) + "\n")
                    row = ["1" if c in mod.NUMERIC else "x"
                           for c in mod.EXPECTED_HEADERS[name]]
                    f.write("\t".join(row) + "\n")
            self.assertEqual(mod.main(["prog", d]), 0)


class NetScenariosTests(unittest.TestCase):
    HEADER = mod.EXPECTED_HEADERS["net_scenarios.tsv"]

    def check_rows(self, *rows):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "net_scenarios.tsv")
            with open(path, "w", encoding="utf-8") as f:
                f.write("\t".join(self.HEADER) + "\n")
                for row in rows:
                    f.write("\t".join(row) + "\n")
            return mod.check_file(path, self.HEADER)

    def row(self, **overrides):
        cells = {
            "scenario": "steady", "protocol": "lpbcast", "processes": "3",
            "nodes": "240", "sockets": "2", "loss": "0.000", "kills": "0",
            "kill_schedule": "-", "fault": "-", "reliability_mean": "1.0",
            "reliability_min": "1.0", "latency_ms": "207.9",
            "recovery_ms": "-", "wire_tx_bytes": "1750850",
            "wire_rx_bytes": "1750850",
        }
        cells.update(overrides)
        return [cells[c] for c in self.HEADER]

    def test_dashes_allowed_only_where_metrics_are_omissible(self):
        ok = self.row(latency_ms="-", recovery_ms="-")
        self.assertEqual(self.check_rows(ok), [])
        bad = self.row(reliability_min="-")
        problems = self.check_rows(bad)
        self.assertTrue(
            any("reliability_min" in p for p in problems), problems)

    def test_free_form_columns_accept_schedules_and_fault_specs(self):
        row = self.row(
            scenario="partition",
            kill_schedule="cut[0|1,2]@w2/2.0s+rejoin@w3",
            fault="lossy_links=1;link_loss=0.05;seed=7",
            recovery_ms="1009.2", latency_ms="-")
        self.assertEqual(self.check_rows(row), [])

    def test_process_count_and_wire_columns_must_be_numeric(self):
        for col in ("processes", "kills", "wire_tx_bytes"):
            problems = self.check_rows(self.row(**{col: "many"}))
            self.assertTrue(
                any(col in p for p in problems), (col, problems))

    def test_committed_results_file_conforms(self):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join(repo, "results", "net_scenarios.tsv")
        self.assertTrue(os.path.exists(path), "results/net_scenarios.tsv missing")
        self.assertEqual(mod.check_file(path, self.HEADER), [])

    def test_single_file_tsv_mode(self):
        # The CI net_cluster job checks the one figure it produces; the
        # rest of results/ does not exist in that checkout.
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "net_scenarios.tsv")
            with open(path, "w", encoding="utf-8") as f:
                f.write("\t".join(self.HEADER) + "\n")
                f.write("\t".join(self.row()) + "\n")
            self.assertEqual(mod.main(["prog", "--tsv", path]), 0)
            with open(path, "w", encoding="utf-8") as f:
                f.write("\t".join(self.HEADER) + "\n")
                f.write("\t".join(self.row(processes="many")) + "\n")
            self.assertEqual(mod.main(["prog", "--tsv", path]), 1)
            unknown = os.path.join(d, "mystery.tsv")
            with open(unknown, "w", encoding="utf-8") as f:
                f.write("a\tb\n")
            self.assertEqual(mod.main(["prog", "--tsv", unknown]), 2)


if __name__ == "__main__":
    unittest.main()
