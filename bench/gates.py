"""Margins of the acceptance suite's wall-clock gates.

Criteria 01-04 and 10 of ``tests/test_acceptance.py`` time fixed regions of
public calls against fixed bounds.  Each function below repeats one such
region exactly (the same calls, the same best-of-5 for criterion 01) and
returns its time; the margin is the bound divided by the median of several
repeats, so a gate drifting toward its bound shows before the test flakes.
The asserted values are checked too, and a wrong one is reported as a
failure.
"""

from __future__ import annotations

import time

from spans import median

MIXED_CYCLE = [[0, 1, 0, 1], [1, 0, -1, 0], [0, -1, 0, 1], [1, 0, 1, 0]]
BLOCK_PAIRED = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
BOUNDS_S = {"c01": 0.001, "c02": 1.0, "c03": 1.0, "c04": 1.0, "c10": 10.0}


def _c01(nc, oracles, bad):
    a = nc.control.adjacency_matrix(nc.graphs.path_graph(4))
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        r = nc.linalg.rank(nc.control.walk_matrix(a, (2,)))
        best = min(best, time.perf_counter() - t0)
    if r != 4:
        bad.append(f"c01: rank {r}")
    return best


def _c02(nc, oracles, bad):
    t0 = time.perf_counter()
    g = nc.graphs.path_graph(4)
    a = nc.control.adjacency_matrix(g)
    zfs = nc.forcing.is_zfs(g, (2,))
    lie = nc.control.lie_controllable(a, (2,))
    elapsed = time.perf_counter() - t0
    if zfs is not False or lie != (True, 16):
        bad.append(f"c02: is_zfs {zfs}, lie {lie}")
    return elapsed


def _c03(nc, oracles, bad):
    t0 = time.perf_counter()
    a = nc.control.pattern_matrix(MIXED_CYCLE)
    kalman = nc.control.kalman_controllable(a, (1, 3))
    lie = nc.control.lie_controllable(a, (1, 3))
    golden = oracles.control_lie_dim_bruteforce(MIXED_CYCLE, (1, 3))
    elapsed = time.perf_counter() - t0
    if kalman != (True, 4) or lie != (False, 8) or golden != 8:
        bad.append(f"c03: kalman {kalman}, lie {lie}, oracle {golden}")
    return elapsed


def _c04(nc, oracles, bad):
    t0 = time.perf_counter()
    a = nc.control.pattern_matrix(BLOCK_PAIRED)
    block = oracles.walk_rank_bruteforce([[0, 1], [1, 0]], (1,))
    sub = nc.control.pattern_matrix([[0, 1], [1, 0]])
    sub_rank = nc.linalg.rank(nc.control.walk_matrix(sub, (1,)))
    kalman = nc.control.kalman_controllable(a, (1, 3))
    lie = nc.control.lie_controllable(a, (1, 3))
    elapsed = time.perf_counter() - t0
    if (block, sub_rank) != (2, 2) or kalman != (True, 4) or lie != (False, 8):
        bad.append(f"c04: blocks {block} {sub_rank}, kalman {kalman}, lie {lie}")
    return elapsed


def _c10(nc, oracles, bad):
    g = nc.graphs
    min_zfs = nc.forcing.min_zfs
    t0 = time.perf_counter()
    zs = ([min_zfs(g.path_graph(n))[0] for n in range(1, 9)]
          + [min_zfs(g.complete_graph(n))[0] for n in range(2, 7)]
          + [min_zfs(g.cycle_graph(n))[0] for n in range(3, 9)])
    elapsed = time.perf_counter() - t0
    want = [1] * 8 + [n - 1 for n in range(2, 7)] + [2] * 6
    if zs != want:
        bad.append(f"c10: Z values {zs}")
    return elapsed


GATES = {"c01": _c01, "c02": _c02, "c03": _c03, "c04": _c04, "c10": _c10}


def gate_margins(nc, oracles, repeats: int = 5) -> tuple:
    """({"gate.cNN_margin": bound / median time}, [failed checks])."""
    bad: list = []
    margins = {}
    for gate, fn in GATES.items():
        times = [fn(nc, oracles, bad) for _ in range(repeats)]
        margins[f"gate.{gate}_margin"] = BOUNDS_S[gate] / median(times)
    return margins, bad
