#!/usr/bin/env python3
"""Unit tests for scripts/bench_gate.py — stdlib only, run by CI's
net_cluster job *before* the drift report so a broken report fails
loudly instead of silently printing nothing.

    python3 scripts/test_bench_gate.py
"""

import contextlib
import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_gate  # noqa: E402


NET_HEADER = (
    "scenario\tprotocol\tprocesses\tnodes\tsockets\tloss\tkills\t"
    "kill_schedule\tfault\treliability_mean\treliability_min\t"
    "latency_ms\trecovery_ms\twire_tx_bytes\twire_rx_bytes")


def net_tsv(min_rel="1.0000", latency="207.9", recovery="-",
            tx="1750850", scenario="steady"):
    row = (f"{scenario}\tlpbcast\t3\t240\t2\t0.000\t0\t-\t-\t1.0000\t"
           f"{min_rel}\t{latency}\t{recovery}\t{tx}\t{tx}")
    return f"# comment line\n{NET_HEADER}\n{row}\n"


class NetGateTests(unittest.TestCase):
    def run_net(self, committed_text, fresh_text):
        with tempfile.TemporaryDirectory() as d:
            old = os.path.join(d, "committed.tsv")
            new = os.path.join(d, "fresh.tsv")
            with open(old, "w", encoding="utf-8") as f:
                f.write(committed_text)
            with open(new, "w", encoding="utf-8") as f:
                f.write(fresh_text)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = bench_gate.main(["bench_gate.py", "--net", old, new])
            return code, out.getvalue()

    def test_identical_runs_pass(self):
        code, out = self.run_net(net_tsv(), net_tsv())
        self.assertEqual(code, 0, out)
        self.assertIn("OK    net_latency steady/lpbcast p=3 n=240", out)
        # Perfect on both sides stays quiet.
        self.assertIn("OK    net_unreliability steady/lpbcast p=3 n=240", out)
        self.assertNotIn("WARN", out)

    def test_reliability_drop_and_wire_growth_warn_but_pass(self):
        fresh = net_tsv(min_rel="0.5000", tx="9750850")
        code, out = self.run_net(net_tsv(min_rel="0.9000"), fresh)
        self.assertEqual(code, 0, out)
        self.assertIn(
            "WARN  net_unreliability steady/lpbcast p=3 n=240", out)
        self.assertIn("WARN  wire net steady/lpbcast p=3 n=240", out)

    def test_large_latency_regression_is_still_soft(self):
        code, out = self.run_net(net_tsv(latency="100.0"),
                                 net_tsv(latency="1000.0"))
        self.assertEqual(code, 0, out)
        self.assertIn("WARN  net_latency steady/lpbcast p=3 n=240", out)
        self.assertNotIn("FAIL", out)

    def test_grid_shape_mismatch_warns_on_both_sides(self):
        code, out = self.run_net(net_tsv(scenario="partition"),
                                 net_tsv(scenario="churn"))
        self.assertEqual(code, 0, out)
        self.assertIn("no fresh counterpart", out)
        self.assertIn("only in fresh run", out)

    def test_dash_cells_drop_the_row_softly(self):
        code, out = self.run_net(net_tsv(recovery="431.1"),
                                 net_tsv(recovery="-"))
        self.assertEqual(code, 0, out)
        self.assertIn(
            "WARN  net_recovery steady/lpbcast p=3 n=240: committed net "
            "row has no fresh counterpart", out)

    def test_fall_from_perfect_reliability_warns(self):
        # (1 - 1.0) * 100 = 0 on the committed side: no ratio exists,
        # but 0% -> 10% missed is the drift the net rows exist to show.
        code, out = self.run_net(net_tsv(), net_tsv(min_rel="0.9000"))
        self.assertEqual(code, 0, out)
        self.assertIn(
            "WARN  net_unreliability steady/lpbcast p=3 n=240: "
            "0.0 -> 10.0 % missed", out)
        self.assertNotIn("SKIP", out)

    def test_empty_files_are_usage_error(self):
        code, _ = self.run_net("# nothing\n", "# nothing\n")
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main(verbosity=2)
