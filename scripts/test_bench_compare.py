#!/usr/bin/env python3
"""Self-test of bench_compare.py on the two fixtures in scripts/fixtures.

Stdlib only; registered with ctest.
"""

import io
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import bench_compare  # noqa: E402

OLD = os.path.join(HERE, "fixtures", "bench_compare_old.json")
NEW = os.path.join(HERE, "fixtures", "bench_compare_new.json")


def run(old, new):
    out = io.StringIO()
    code = bench_compare.compare(old, new, out)
    return code, out.getvalue()


def row(text, name):
    for line in text.splitlines():
        if line.split() and line.split()[0] == name:
            return line.split()[1:]
    raise AssertionError(f"no row {name} in:\n{text}")


class BenchCompareTest(unittest.TestCase):
    def test_ratios_per_row_across_time_units(self):
        _, text = run(OLD, NEW)
        self.assertEqual(row(text, "BM_Kernel"), ["0.500", "2.000"])
        # 4 ms -> 3000 us: the units normalize before the ratio.
        self.assertEqual(row(text, "BM_Session/real_time"),
                         ["0.750", "1.333"])
        # A row that counts no items has no throughput ratio.
        self.assertEqual(row(text, "BM_Build"), ["1.250", "-"])

    def test_rows_on_one_side_are_listed(self):
        _, text = run(OLD, NEW)
        self.assertIn("only in old: BM_Retired", text)
        self.assertIn("only in new: BM_Added", text)

    def test_dirty_new_file_fails_and_clean_one_passes(self):
        code, text = run(OLD, NEW)
        self.assertEqual(code, 1)
        self.assertIn("def5678-dirty", text)
        # The same rows stamped clean compare with status 0; a dirty OLD
        # does not matter.
        code, _ = run(NEW, OLD)
        self.assertEqual(code, 0)

    def test_unreadable_input_exits_2(self):
        with tempfile.TemporaryDirectory() as d:
            bad = os.path.join(d, "bad.json")
            with open(bad, "w", encoding="utf-8") as f:
                f.write("{not json")
            self.assertEqual(run(OLD, bad)[0], 2)
            self.assertEqual(run(OLD, os.path.join(d, "missing.json"))[0], 2)

    def test_unstamped_file_compares(self):
        with tempfile.TemporaryDirectory() as d:
            plain = os.path.join(d, "plain.json")
            with open(OLD, encoding="utf-8") as f:
                doc = json.load(f)
            del doc["context"]["fpisa_git_describe"]
            with open(plain, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            code, text = run(OLD, plain)
            self.assertEqual(code, 0)
            self.assertIn("unstamped", text)


if __name__ == "__main__":
    unittest.main()
