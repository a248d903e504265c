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
    HEADER = "spec\tseed\tmetric\tvalue\n"
    SPEC = "proto=lpbcast;gen=catastrophe;n=500;rounds=0;rate=20;publishers=16;loss=0.05;fraction=0;cycles=0"

    def check_scenarios(self, *rows):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "scenarios.tsv")
            with open(path, "w", encoding="utf-8") as f:
                f.write(self.HEADER)
                for row in rows:
                    f.write(row + "\n")
            return mod.check_file(path, mod.EXPECTED_HEADERS["scenarios.tsv"])

    def test_header_mismatch_is_reported(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "scenarios.tsv")
            with open(path, "w", encoding="utf-8") as f:
                f.write("spec\tseed\tmetric\n")  # missing `value`
                f.write(f"{self.SPEC}\t1\tn\n")
            problems = mod.check_file(path, mod.EXPECTED_HEADERS["scenarios.tsv"])
        self.assertTrue(any("header mismatch" in p for p in problems), problems)

    def test_scenario_values_are_free_form_and_seeds_numeric(self):
        ok = [f"{self.SPEC}\t1\t{metric}\t{value}" for metric, value in
              [("protocol", "lpbcast"), ("reliability_mean", "0.9989183006535948"),
               ("recovery_rounds", "never"), ("partitioned_after", "false")]]
        self.assertEqual(self.check_scenarios(*ok), [])
        problems = self.check_scenarios(f"{self.SPEC}\tone\tn\t500")
        self.assertTrue(any("seed" in p for p in problems), problems)

    def test_good_tsvs_pass_dir_mode(self):
        with tempfile.TemporaryDirectory() as d:
            for name in mod.EXPECTED_HEADERS:
                with open(os.path.join(d, name), "w", encoding="utf-8") as f:
                    f.write("\t".join(mod.EXPECTED_HEADERS[name]) + "\n")
                    row = ["1" if c in mod.NUMERIC else "x"
                           for c in mod.EXPECTED_HEADERS[name]]
                    f.write("\t".join(row) + "\n")
            self.assertEqual(mod.main(["prog", d]), 0)


class BenchJsonTests(unittest.TestCase):
    CELL = (
        '{"spec": "proto=lpbcast;gen=catastrophe;n=500", "seed": 1, '
        '"protocol": "lpbcast", "generator": "catastrophe", "n": 500, '
        '"rounds": 53, "wire_bytes": 26609976, "wire_messages": 66000, '
        '"reliability_mean": 0.9972, "reliability_min": 0.96, '
        '"recovery_rounds": 12, "crashed": 150, "recovery_rounds": 12}'
    )

    def check(self, text):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "BENCH_sim.json")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            return mod.check_bench_json(path)

    def doc(self, cell=CELL, schema="bench_sim/v11", extra=""):
        return f'{{"schema": "{schema}",{extra} "cells": [{cell}]}}'

    def test_a_v11_document_passes(self):
        self.assertEqual(self.check(self.doc()), [])
        self.assertEqual(self.check(self.doc(cell="")), [])

    def test_a_key_outside_v11_is_rejected(self):
        # Sections earlier schemas had; v10's two engine self-check keys
        # fail the same way.
        for key in ("sparse_mode", "scenarios", "detector"):
            problems = self.check(self.doc(extra=f' "{key}": 1,'))
            self.assertTrue(any(key in p for p in problems), (key, problems))
        extra = ' "scaling": [], "scaling_xl": [],'
        self.assertEqual(self.check(self.doc(extra=extra)), [])

    def test_non_finite_numbers_are_rejected(self):
        for constant in ("NaN", "Infinity", "-Infinity"):
            cell = self.CELL.replace("0.9972", constant)
            problems = self.check(self.doc(cell=cell))
            self.assertTrue(any(constant in p for p in problems), (constant, problems))

    def test_a_key_repeated_with_another_value_is_rejected(self):
        cell = self.CELL.replace('"crashed": 150, "recovery_rounds": 12',
                                 '"crashed": 150, "recovery_rounds": 13')
        problems = self.check(self.doc(cell=cell))
        self.assertTrue(any("recovery_rounds" in p for p in problems), problems)

    def test_wrong_schema_and_missing_fields_are_reported(self):
        self.assertTrue(self.check(self.doc(schema="bench_sim/v10")))
        cell = self.CELL.replace('"seed": 1, ', "")
        problems = self.check(self.doc(cell=cell))
        self.assertTrue(any("cells[0]" in p for p in problems), problems)
        self.assertTrue(self.check('{"schema": "bench_sim/v11"}'))
        self.assertTrue(self.check("{"))

    def test_main_json_mode_exit_codes(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "BENCH_sim.json")
            with open(path, "w", encoding="utf-8") as f:
                f.write(self.doc())
            self.assertEqual(mod.main(["prog", "--json", path]), 0)
            with open(path, "w", encoding="utf-8") as f:
                f.write(self.doc(cell=self.CELL.replace("0.9972", "NaN")))
            self.assertEqual(mod.main(["prog", "--json", path]), 1)


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
