"""Tests of the benchmark itself: reference data, span arithmetic, attribution.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import netctrl
from netctrl import control, forcing, graphs, harness, intlinalg, linalg
from tests import oracles

import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent
NC = SimpleNamespace(control=control, forcing=forcing, graphs=graphs, harness=harness,
                     intlinalg=intlinalg, linalg=linalg)


def _ints(a):
    return [[int(x) for x in row] for row in a.matrix.entries]


# ---------------------------------------------------------------------------
# Reference data and expected answers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["path", "cycle", "complete"])
@pytest.mark.parametrize("n", [4, 5])
def test_reference_grid_matches_oracles(family, n):
    table = json.loads(workloads.REFERENCE_GRID.read_text())
    s = tuple(table["control_set"])
    g = graphs.generate(family, n)
    a = _ints(control.adjacency_matrix(g))
    black = oracles.forcing_closure_bruteforce(graphs.adjacency_sets(g), n, s)
    want = [oracles.walk_rank_bruteforce(a, s), oracles.pspan_dim_bruteforce(a, s),
            oracles.control_lie_dim_bruteforce(a, s), len(black) == n]
    assert table["adjacency"][f"{family}/{n}"] == want


@pytest.mark.parametrize("family", ["path", "cycle", "complete"])
def test_random_cell_rule_matches_oracles(family):
    """p_span_dim = r^2 and lie_dim = n^2 iff r = n, on the grid's random kind."""
    n = 4
    for seed in range(3):
        a = _ints(control.build_matrix(graphs.generate(family, n), f"random:{seed}"))
        r = oracles.walk_rank_bruteforce(a, (1,))
        assert oracles.pspan_dim_bruteforce(a, (1,)) == r * r
        assert (oracles.control_lie_dim_bruteforce(a, (1,)) == n * n) == (r == n)


def test_grid_checks_pass_and_catch_a_wrong_report():
    grid = workloads.AnalyzeGrid(NC, seed=3)
    grid.cells = {k: v for k, v in grid.cells.items() if k.split("/")[2] == "4"}
    grid.derive_expected(oracles)
    for label, _, thunk in grid.calls():
        report = thunk()
        assert grid.check(label, report) == (1, 0, None)
    wrong = control.ControllabilityReport(**{**vars(report), "lie_dim": report.lie_dim - 1})
    assert grid.check(label, wrong)[1] == 1


def test_connected_graph_counts():
    # labeled connected graphs on 1..n (OEIS A001187)
    assert [len(workloads.connected_graph_edges(n)) for n in range(1, 6)] == [1, 1, 4, 38, 728]


def test_sweep_expectation_matches_the_sweeps():
    class Sweep3(workloads.Sweep4):
        max_order = 3

    sweep = Sweep3(NC, seed=11)
    sweep.derive_expected(oracles)
    for label, _, thunk in sweep.calls():
        decisions, failed, why = sweep.check(label, thunk())
        assert (failed, why) == (0, None)
        assert decisions == sweep.expected[label][0] > 0
    outcome = harness.sweep_equivalence(sweep.configs["adjacency"])
    tampered = harness.SweepOutcome(**{**vars(outcome), "instances_checked": 0})
    assert sweep.check("equivalence/adjacency", tampered)[1] > 0


def test_tree_path_cover_is_the_forcing_number():
    rng = random.Random(5)
    for n in range(3, 10):
        for _ in range(4):
            edges = workloads.prufer_tree(n, rng)
            g = graphs.graph(n, edges)
            assert len(g.edges) == n - 1 and graphs.is_connected(g)
            z = oracles.min_zfs_size_bruteforce(graphs.adjacency_sets(g), n)
            assert workloads.tree_path_cover(n, edges) == z


def test_zfs_checks_pass_and_catch_a_bad_witness():
    zs = workloads.ZfsSearch(NC, seed=2)
    zs.cases = {k: g for k, g in zs.cases.items() if g.order == 12}
    zs.derive_expected(oracles)
    for label, _, thunk in zs.calls():
        assert zs.check(label, thunk()) == (1, 0, None)
    assert zs.check("star/12", (10, tuple(range(1, 11))))[1] == 1
    assert zs.check("tree/12/0", (0, ()))[1] == 1
    assert zs.check("path/12", (1, (2,)))[1] == 1


# ---------------------------------------------------------------------------
# Spans: self time, attribution, tail percentile, file round trip
# ---------------------------------------------------------------------------

def test_self_time_arithmetic():
    #   root [0, 100] -> a [10, 40] -> b [15, 25];  root -> c [50, 90]
    names = ["root", "a", "b", "c"]
    st = spans.self_times(names, [0, 1, 2, 3], [0, 10, 15, 50], [100, 40, 25, 90],
                          [-1, 0, 1, 0])
    assert st == {"root": [1, 100, 30], "a": [1, 30, 20], "b": [1, 10, 10], "c": [1, 40, 40]}
    assert sum(row[2] for row in st.values()) == 100


def test_traced_self_times_sum_to_the_root():
    tracer = spans.Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap("m.leaf", leaf)

    def middle(x):
        return sum(traced_leaf(i) for i in range(x))

    traced_middle = tracer.wrap("m.middle", middle)
    with tracer.span(spans.ROOT_NAME):
        assert traced_middle(5) == 15
        assert traced_leaf(1) == 2
    st = tracer.self_times()
    assert st["m.leaf"][0] == 6 and st["m.middle"][0] == 1
    assert list(tracer.parent[:3]) == [-1, 0, 1]
    assert sum(row[2] for row in st.values()) == tracer.end[0] - tracer.start[0]
    assert not tracer.stack


def test_insert_kind_rule():
    assert spans.insert_kind(16, 4, in_lie=True) == "lie_insert"
    assert spans.insert_kind(16, 4, in_lie=False) == "pspan_insert"
    assert spans.insert_kind(4, 4, in_lie=False) == "walk_insert"
    assert spans.insert_kind(8, 4, in_lie=False) == "walk_insert"
    assert spans.insert_kind(1, 1, in_lie=False) == "walk_insert"


def _inserts_by_call_site(run):
    """Attribute every insert by the function that called it (no spans)."""
    counts = Counter()
    original = intlinalg.EchelonBasis.insert

    def recording(basis, values):
        caller = sys._getframe(1)
        site = caller.f_code.co_name
        if site == "_offer":
            counts["lie_insert"] += 1
        elif site == "_extend_state":
            n = caller.f_locals["n"]
            counts["walk_insert" if basis.ambient == n else "pspan_insert"] += 1
        elif site == "rank":
            counts["walk_insert"] += 1
        elif site == "insert":  # MatrixSpaceBasis.insert from p_span_dim
            counts["pspan_insert"] += 1
        else:
            counts["other:" + site] += 1
        return original(basis, values)

    intlinalg.EchelonBasis.insert = recording
    try:
        run()
    finally:
        intlinalg.EchelonBasis.insert = original
    return counts


@pytest.mark.parametrize("case", ["sweep", "analyze"])
def test_insert_attribution_by_enclosing_span(case):
    cfg = harness.SweepConfig(max_order=3, matrix_kinds=("adjacency", "random:4"),
                              subset_policy="all")
    a = control.build_matrix(graphs.cycle_graph(5), "adjacency")
    runs = {"sweep": lambda: (harness.sweep_equivalence(cfg), harness.sweep_zfs_implication(cfg)),
            "analyze": lambda: control.analyze(a, (1, 3))}
    by_site = _inserts_by_call_site(runs[case])
    tracer = spans.Tracer()
    undo = spans.instrument(tracer, NC)
    try:
        with tracer.span(spans.ROOT_NAME):
            runs[case]()
    finally:
        undo()
    st = tracer.self_times()
    by_span = {k: st["intlinalg." + k][0] for k in ("lie_insert", "walk_insert", "pspan_insert")}
    assert by_span == dict(by_site)
    assert all(by_span.values())
    assert intlinalg.EchelonBasis.insert is vars(intlinalg.EchelonBasis)["insert"]
    assert control.analyze is netctrl.analyze


def test_tail_percentile_rule():
    assert spans.tail_percentile([3, 1, 2]) == ("max", 3, 3)
    assert spans.tail_percentile(range(11)) == ("p9.091", 0, 11)
    assert spans.tail_percentile(range(1, 21)) == ("p50", 10, 20)
    assert spans.tail_percentile(range(1, 101)) == ("p90", 90, 100)
    for n in range(11, 400):
        xs = random.Random(n).sample(range(10 * n), n)
        _, value, count = spans.tail_percentile(xs)
        assert count == n
        assert sum(x > value for x in xs) == 10


def test_per_call_median_of_scaled_rounds():
    rows = [("a", "random", 2, 0.1, 0.2), ("a", "random", 2, 0.3, 0.3), ("a", "random", 0, 0.2, 0.4),
            ("b", "adjacency", 1, 0.5, 0.5)]
    assert run.per_call(rows) == {"a": ("random", 0, 0.2), "b": ("adjacency", 1, 0.5)}
    assert run.per_call(rows, raw=True)["a"] == ("random", 0, 0.3)
    ref = run.PROBE_REF_S
    assert run.host_slowness([ref, 2 * ref], [2 * ref, 3 * ref, 2 * ref]) == 2.0


def test_spans_file_round_trip(tmp_path):
    tracer = spans.Tracer()
    with tracer.span(spans.ROOT_NAME):
        tracer.wrap("m.f", abs)(-3)
    path = tmp_path / "spans.bin.gz"
    tracer.write(path)
    rows = spans.read_spans(path)
    assert [(r[0], r[3]) for r in rows] == [(spans.ROOT_NAME, -1), ("m.f", 0)]
    assert all(r[1] <= r[2] for r in rows)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "zfs-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
