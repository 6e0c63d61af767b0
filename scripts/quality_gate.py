#!/usr/bin/env python3
"""Seed-paired quality gate: does CHANGE tune worse than PARENT?

Reads two `bench_fig5_tables678_budgets --json` files, run at the same
--reps and --seed, and pairs their cells by (benchmark, method, seed).
Each cell holds a repetition's performance relative to expert at the
tiny, small and full budgets and the evaluations it needed to reach
expert (-1 if never).

For each (benchmark, method, tier) whose seed-paired differences are not
all zero, an exact one-sided Wilcoxon signed-rank test asks whether
CHANGE is worse than PARENT (zero differences dropped, tied magnitudes
given their mean rank). The p-values of all tested cells are
Holm-corrected at alpha 0.05; a cell whose hypothesis Holm rejects fails
the gate. A cell with n nonzero differences cannot reach a p below 2^-n,
so when that bound, for the cell with the most nonzero differences,
exceeds Holm's first threshold alpha/m (m tested cells), no cell could
fail whatever the data: the gate then reports "underpowered" instead of
a pass. With 10 seeds that happens above 51 tested cells.

Prints, for each framework x tier x method, the mean over all cells of
both files and how many benchmarks went up and down (by their seed
mean), then the expert-reached counts, the tested cells' smallest p
against its Holm threshold, the smallest p any cell could reach, and
every failing cell.

Usage: scripts/quality_gate.py PARENT.json CHANGE.json
       scripts/quality_gate.py --self-test

Exit status: 0 pass, 1 a cell is significantly worse, 2 unreadable or
mismatched inputs, 3 underpowered (more seeds needed). Standard library
only.
"""

import json
import math
import sys
from collections import defaultdict

ALPHA = 0.05
TIERS = ("tiny", "small", "full")
EXIT = {"pass": 0, "worse": 1, "underpowered": 3}
FRAMEWORKS = ("TACO", "RISE", "HPVM2FPGA")


class InputError(Exception):
    """The two files cannot be paired."""


def midranks(values):
    """Ranks 1..n of values, ties given the mean of the ranks they span."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def wilcoxon_worse_p(diffs):
    """Exact one-sided p that CHANGE is worse, from change - parent diffs.

    The statistic is W+, the rank sum of the positive differences; small
    W+ means CHANGE is worse. Under the null every sign is a fair coin,
    so p = P(W+ <= observed) over the 2^n sign patterns of the nonzero
    differences, counted by a subset-sum over doubled (integer) ranks.
    No nonzero difference gives p = 1.
    """
    nonzero = [d for d in diffs if d != 0]
    if not nonzero:
        return 1.0
    ranks = [int(round(2 * r)) for r in midranks([abs(d) for d in nonzero])]
    observed = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    counts = [0] * (sum(ranks) + 1)
    counts[0] = 1
    for r in ranks:
        for s in range(len(counts) - 1, r - 1, -1):
            counts[s] += counts[s - r]
    return sum(counts[: observed + 1]) / 2 ** len(nonzero)


def holm_rejections(pvalues, alpha):
    """Keys whose hypothesis Holm's step-down procedure rejects.

    pvalues maps key -> p. Sorted ascending, the k-th smallest (from 0)
    is rejected while p <= alpha / (m - k); the first p above its
    threshold stops the procedure.
    """
    ordered = sorted(pvalues.items(), key=lambda kv: (kv[1], kv[0]))
    m = len(ordered)
    rejected = []
    for k, (key, p) in enumerate(ordered):
        if p > alpha / (m - k):
            break
        rejected.append(key)
    return rejected


def load_cells(path):
    """(benchmark, method, seed) -> cell, checked for shape."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise InputError(f"{path}: {e}")
    cells = {}
    for cell in doc.get("cells", []) if isinstance(doc, dict) else []:
        try:
            key = (str(cell["benchmark"]), str(cell["method"]),
                   int(cell["seed"]))
            values = [float(cell[t]) for t in TIERS]
            int(cell["evals_to_expert"])
            str(cell["framework"])
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(f"{path}: malformed cell {cell!r}: {e}")
        if not all(math.isfinite(v) for v in values):
            raise InputError(f"{path}: non-finite value in {key}")
        if key in cells:
            raise InputError(f"{path}: duplicate cell {key}")
        cells[key] = cell
    if not cells:
        raise InputError(f"{path}: no cells")
    return cells


def pair(parent, change):
    """Check the two files hold the same cells; return the sorted keys."""
    if parent.keys() != change.keys():
        only_p = sorted(parent.keys() - change.keys())
        only_c = sorted(change.keys() - parent.keys())
        raise InputError("cells differ: only in PARENT "
                         f"{only_p[:3]}, only in CHANGE {only_c[:3]}")
    for key in parent:
        if parent[key]["framework"] != change[key]["framework"]:
            raise InputError(f"framework differs for {key}")
    return sorted(parent)


def mean(xs):
    return sum(xs) / len(xs) if xs else float("nan")


def gate(parent, change, out):
    """Print the report for two loaded files; return the verdict:
    "pass", "worse" or "underpowered"."""
    keys = pair(parent, change)
    # (benchmark, method) -> framework, and tier -> seed-ordered values.
    fw = {}
    series = defaultdict(lambda: {t: ([], []) for t in TIERS})
    reached = defaultdict(lambda: [0, 0])
    for key in keys:
        bench, method, _ = key
        p, c = parent[key], change[key]
        fw[(bench, method)] = p["framework"]
        for t in TIERS:
            series[(bench, method)][t][0].append(float(p[t]))
            series[(bench, method)][t][1].append(float(c[t]))
        counts = reached[(p["framework"], method)]
        counts[0] += int(p["evals_to_expert"]) >= 0
        counts[1] += int(c["evals_to_expert"]) >= 0

    methods = sorted({m for _, m in series})
    frameworks = [f for f in FRAMEWORKS if f in fw.values()]
    frameworks += sorted(set(fw.values()) - set(frameworks))
    seeds = len(keys) // len(series)
    out.write(f"quality_gate: {len(series) // len(methods)} benchmarks x "
              f"{len(methods)} methods x {seeds} seeds\n\n")
    out.write(f"{'framework':<10} {'tier':<6} {'method':<8} "
              f"{'parent':>7} {'change':>7} {'up':>4} {'down':>5}\n")
    for f in frameworks:
        for t in TIERS:
            for m in methods:
                cells = [s[t] for (b, mm), s in series.items()
                         if mm == m and fw[(b, mm)] == f]
                if not cells:
                    continue
                up = sum(mean(c) > mean(p) for p, c in cells)
                down = sum(mean(c) < mean(p) for p, c in cells)
                out.write(f"{f:<10} {t:<6} {m:<8} "
                          f"{mean([v for p, _ in cells for v in p]):>7.3f} "
                          f"{mean([v for _, c in cells for v in c]):>7.3f} "
                          f"{up:>4} {down:>5}\n")

    out.write("\nruns reaching expert at the full budget "
              "(parent -> change)\n")
    for f in frameworks:
        row = [f"{m} {reached[(f, m)][0]} -> {reached[(f, m)][1]}"
               for m in methods if (f, m) in reached]
        out.write(f"{f:<10} " + ", ".join(row) + "\n")

    pvalues = {}
    most_nonzero = 0
    for (bench, method), s in series.items():
        for t in TIERS:
            p, c = s[t]
            nonzero = sum(cv != pv for pv, cv in zip(p, c))
            if nonzero:
                pvalues[(bench, method, t)] = wilcoxon_worse_p(
                    [cv - pv for pv, cv in zip(p, c)])
                most_nonzero = max(most_nonzero, nonzero)
    out.write(f"\ntested cells (any nonzero seed difference): "
              f"{len(pvalues)}; Holm alpha {ALPHA}\n")
    underpowered = False
    if pvalues:
        key, p = min(pvalues.items(), key=lambda kv: (kv[1], kv[0]))
        threshold = ALPHA / len(pvalues)
        attainable = 2.0 ** -most_nonzero
        out.write(f"smallest one-sided p: {p:.4g} ({' '.join(key)}), "
                  f"Holm threshold {threshold:.4g}\n")
        out.write(f"smallest attainable p: {attainable:.4g} "
                  f"({most_nonzero} nonzero differences)\n")
        underpowered = attainable > threshold
    failing = holm_rejections(pvalues, ALPHA)
    for key in failing:
        out.write(f"FAIL {' '.join(key)}: p = {pvalues[key]:.4g}\n")
    if failing:
        verdict = "worse"
    elif underpowered:
        verdict = "underpowered"
        out.write("no cell can reach the Holm threshold: "
                  "rerun with more seeds\n")
    else:
        verdict = "pass"
    out.write(f"verdict: {verdict}\n")
    return verdict


def main(argv, out=sys.stdout, err=sys.stderr):
    if len(argv) != 2:
        err.write("usage: quality_gate.py PARENT.json CHANGE.json "
                  "| --self-test\n")
        return 2
    try:
        verdict = gate(load_cells(argv[0]), load_cells(argv[1]), out)
    except InputError as e:
        err.write(f"quality_gate: {e}\n")
        return 2
    return EXIT[verdict]


def self_test():
    """Checks of the statistics and exit codes; returns an exit status."""
    import io
    import itertools
    import os
    import tempfile
    import unittest

    def brute_p(diffs):
        nonzero = [d for d in diffs if d != 0]
        ranks = midranks([abs(d) for d in nonzero])
        observed = sum(r for r, d in zip(ranks, nonzero) if d > 0)
        hits = sum(
            sum(r for r, s in zip(ranks, signs) if s) <= observed + 1e-9
            for signs in itertools.product((0, 1), repeat=len(ranks)))
        return hits / 2 ** len(ranks)

    class Statistics(unittest.TestCase):
        def test_ten_of_ten_worse(self):
            diffs = [-(k + 1) * 0.01 for k in range(10)]
            self.assertEqual(wilcoxon_worse_p(diffs), 1 / 1024)
            self.assertEqual(wilcoxon_worse_p([-d for d in diffs]), 1.0)

        def test_zero_differences_are_dropped(self):
            self.assertEqual(wilcoxon_worse_p([0.0] * 10), 1.0)
            self.assertEqual(wilcoxon_worse_p([-0.5, 0.0, 0.0]), 0.5)
            self.assertEqual(wilcoxon_worse_p([-1.0, -2.0, 0.0, 0.0]),
                             0.25)

        def test_ties_take_mean_ranks(self):
            self.assertEqual(midranks([3.0, 1.0, 3.0, 2.0]),
                             [3.5, 1.0, 3.5, 2.0])
            # |d| all tied: W+ = 2 of {0, 2, 2, 2, 4, 4, 4, 6}.
            self.assertEqual(wilcoxon_worse_p([-1.0, -1.0, 1.0]), 0.5)
            for diffs in ([-1, -1, 2, -2, 0.5, -3], [1, -1, 1, -1, 0, 2],
                          [-0.1, -0.1, -0.1, 0.2, -0.2, 0, -0.3]):
                self.assertAlmostEqual(wilcoxon_worse_p(diffs),
                                       brute_p(diffs), places=12)

        def test_holm_steps_down_and_stops(self):
            ps = {"a": 0.01, "b": 0.04, "c": 0.03, "d": 0.005}
            # 0.005 <= .05/4, 0.01 <= .05/3, 0.03 > .05/2: stop, so 0.04
            # is kept although it is below alpha.
            self.assertEqual(holm_rejections(ps, 0.05), ["d", "a"])
            self.assertEqual(holm_rejections({"a": 0.024, "b": 0.03}, 0.05),
                             ["a", "b"])
            self.assertEqual(holm_rejections({"a": 0.026, "b": 0.04}, 0.05),
                             [])
            self.assertEqual(holm_rejections({}, 0.05), [])

    def write(tmp, name, cells):
        path = os.path.join(tmp, name)
        with open(path, "w") as f:
            json.dump({"bench": "fig5_tables678_budgets", "cells": cells}, f)
        return path

    def cells(shift=0.0, seeds=10, benchmarks=1):
        return [{"framework": "TACO", "benchmark": f"SpMM/{b}",
                 "method": "BaCO", "seed": s, "tiny": 1.0 + s / 100,
                 "small": 1.0 + shift * (s + 1), "full": 1.2,
                 "evals_to_expert": -1}
                for b in range(benchmarks) for s in range(1, seeds + 1)]

    class ExitCodes(unittest.TestCase):
        def run_gate(self, parent, change):
            with tempfile.TemporaryDirectory() as tmp:
                return main([write(tmp, "p.json", parent),
                             write(tmp, "c.json", change)],
                            out=io.StringIO(), err=io.StringIO())

        def test_identical_passes(self):
            self.assertEqual(self.run_gate(cells(), cells()), 0)

        def test_better_passes(self):
            self.assertEqual(self.run_gate(cells(), cells(0.01)), 0)

        def test_ten_seeds_worse_fails(self):
            self.assertEqual(self.run_gate(cells(), cells(-0.01)), 1)

        def test_too_many_cells_for_ten_seeds_is_underpowered(self):
            # 1/1024 <= 0.05/51, so 51 cells all worse on 10/10 seeds fail;
            # at 52 cells no p can reach 0.05/52, whatever the data.
            self.assertEqual(self.run_gate(cells(benchmarks=51),
                                           cells(-0.01, benchmarks=51)), 1)
            self.assertEqual(self.run_gate(cells(benchmarks=52),
                                           cells(-0.01, benchmarks=52)), 3)
            self.assertEqual(self.run_gate(cells(benchmarks=52),
                                           cells(0.01, benchmarks=52)), 3)
            self.assertEqual(self.run_gate(cells(benchmarks=52),
                                           cells(benchmarks=52)), 0)

        def test_mismatched_inputs(self):
            self.assertEqual(self.run_gate(cells(), cells(seeds=9)), 2)
            self.assertEqual(self.run_gate(cells(), []), 2)
            renamed = cells()
            renamed[0]["framework"] = "RISE"
            self.assertEqual(self.run_gate(cells(), renamed), 2)

    suite = unittest.TestSuite()
    loader = unittest.defaultTestLoader
    suite.addTests(loader.loadTestsFromTestCase(Statistics))
    suite.addTests(loader.loadTestsFromTestCase(ExitCodes))
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return 0 if ok else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    sys.exit(main(sys.argv[1:]))
