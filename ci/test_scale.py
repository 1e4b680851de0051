"""Scale probes past the benchmark's orders: the one-shot decisions at orders
16 to 60, the order-5 sweeps through the CLI and ``min_zfs`` past its cap.

Run them with ``python -m pytest ci``; the order-5 sweeps keep them out of
the Tier-1 ``testpaths``.  Each probe has a time budget, a child process's
timeout or an alarm here, so a search that stops terminating fails it.
"""
import contextlib
import hashlib
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import pytest

from bench.workloads import prufer_tree
from netctrl import (SweepConfig, adjacency_matrix, build_matrix, complete_graph, control, cycle_graph, forcing,
                     format_graph, graph, harness, intlinalg, is_zfs, kalman_controllable, lie_closure,
                     lie_controllable, p_span_dim, path_graph, pattern_matrix, sweep_equivalence,
                     sweep_zfs_implication)
from netctrl.control import control_generators
from tests.test_acceptance import OUTCOME_SHA256

SRC = Path(__file__).resolve().parent.parent / "src"


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def python(seconds, *args, max_order=None):
    """Stdout of a child ``python args`` that sees ``src/``; it must exit 0 within ``seconds``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    if max_order:
        env["NETCTRL_MAX_ORDER"] = str(max_order)
    return subprocess.run([sys.executable, *args], env=env, stdout=subprocess.PIPE, text=True,
                          timeout=seconds, check=True).stdout


def cli_json(tmp_path, seconds, subcommand, g, *args, max_order=None):
    """The JSON report of ``netctrl subcommand --graph g args``, ``g`` written to ``tmp_path``."""
    path = tmp_path / "graph.txt"
    path.write_text(format_graph(g))
    return json.loads(python(seconds, "-m", "netctrl.cli", subcommand, "--graph", str(path), *args,
                             "--report", "json", max_order=max_order))


def analyze(tmp_path, seconds, g, kind, members, max_order=None):
    """``netctrl analyze``'s (walk_rank, p_span_dim, lie_dim); fails on a violated record."""
    r = cli_json(tmp_path, seconds, "analyze", g, "--matrix", kind, "--set", members, max_order=max_order)
    assert [c for c in r["consistency"] if c["status"] == "violated"] == []
    return r["walk_rank"], r["p_span_dim"], r["lie_dim"]


def spy(monkeypatch, owner, name, note):
    """Call ``note`` with the arguments of each call of ``owner.name``; return the real one."""
    real = getattr(owner, name)

    def noted(*args, **kwargs):
        note(*args, **kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, noted)
    return real


def exact_span_insert(basis):
    """Whether an insert ``spy`` notes is a span insert at ambient 1600 beside an exact walk.

    The span carries no modulus: the walk in the frame of the
    ``_extend_state`` call that makes the insert tells an exact insert from
    a modular one.
    """
    if basis.ambient != 1600:
        return False
    frame = sys._getframe(1)
    while frame.f_code is not control._extend_state.__code__:
        frame = frame.f_back
    return frame.f_locals["walk"].modulus is None


def modular_walk_rank(a):
    """The rank of the walk from vertex 1 modulo the working prime alone."""
    session = control._Session(a)
    modular = control._NodeState(session, control._PRIME, ("walk",))
    control._extend_state(modular, session, 1)
    return modular.walk.dim


def spider(legs):
    """The spider with ``legs`` legs of length 2 about vertex 1."""
    return graph(2 * legs + 1, [e for i in range(1, legs + 1) for e in ((1, 2 * i), (2 * i, 2 * i + 1))])


def verify5(tmp_path, *args):
    """``netctrl verify`` at order 5 over the acceptance kinds: passed, and each section's count and sha256."""
    out = tmp_path / "verify.json"
    python(120, "-m", "netctrl.cli", "verify", "--max-order", "5",
           "--kinds", "adjacency,laplacian,random:101,random:202,random:303", *args, "--out", str(out))
    r = json.loads(out.read_text())
    sections = (r["equivalence"], r["zfs_implication"])
    return r["passed"], [(s["instances_checked"], hashlib.sha256(
        json.dumps(s, sort_keys=True, separators=(",", ":")).encode()).hexdigest()) for s in sections]


def test_one_shot_analyze_at_order_24(tmp_path):
    # the modular walk and the product span grown from its rows, at ambient
    # 576; with one control vertex the Lie dimension is read off the walk of
    # vertex 1, so no closure is built
    assert analyze(tmp_path, 120, path_graph(24), "random:7", "1", max_order=24) == (24, 576, 576)


def test_dense_one_shot_analyze_at_order_24(tmp_path):
    # the complete graph has the densest walk and span: every power of A
    # fills its rows, and the walk has rank 24 from vertex 1 alone
    assert analyze(tmp_path, 60, complete_graph(24), "random:7", "1", max_order=24) == (24, 576, 576)


def test_dense_one_shot_analyze_at_order_30(tmp_path):
    # ambient 900, each product one multiplication of two walk rows'
    # support masks, kept as its lead alone.  lie_closure still builds the
    # closure over the integers: the hub's walk A^2 e_1, A^3 e_1, ...
    # certifies it once row 1's hub rows reach rank 29, with no bracket and
    # only A and E_11 kept as elements
    assert analyze(tmp_path, 60, complete_graph(30), "random:7", "1", max_order=30) == (30, 900, 900)
    # certified by the hub walk, with no bracket, so no warning past the
    # default cap
    with deadline(60), warnings.catch_warnings():
        warnings.simplefilter("error")
        generators = control_generators(build_matrix(complete_graph(30), "random:7"), (1,))
        assert lie_closure(generators, max_order=30)[0] == 900


def test_exact_fallback_at_the_lie_cap(tmp_path, monkeypatch):
    # K16 from one vertex has a deficient walk (rank 2), so the walk and
    # span run exactly at the default cap, and the Lie dimension 2^2 + 1 is
    # read off the walk of vertex 1, whose power A e_1 gives row 1 of its
    # elements rank 1 (lemma 1), with no closure built
    assert analyze(tmp_path, 60, complete_graph(16), "adjacency", "1") == (2, 4, 5)
    # two paths of 8 and 9 vertices from {1, 9} have a full walk and the
    # closure gl(8) + gl(9), which no hub row proves, so the closure runs to
    # its fixpoint past the default cap and warns
    monkeypatch.setenv("NETCTRL_MAX_ORDER", "17")
    two_paths = graph(17, [(v, v + 1) for v in range(1, 17) if v != 8])
    with deadline(60), pytest.warns(UserWarning):
        assert lie_controllable(build_matrix(two_paths, "random:7"), (1, 9)) == (False, 145)


def test_two_control_vertices_at_the_lie_cap(tmp_path, monkeypatch):
    # no other probe brackets with a projector that is not the hub.
    # cycle-16 adjacency from {1, 5} has a short walk and runs a deficient
    # closure toward 13^2 + 1; cycle-20 random:3 from {1, 11} has a full walk
    # from vertex 1 alone, so its Lie dimension is read off that walk with
    # no closure; cycle-20 adjacency from {1, 2} has a full walk that vertex
    # 1 alone does not span, so a full two-vertex closure runs past the
    # default cap and warns
    assert [analyze(tmp_path, 60, cycle_graph(16), "adjacency", "1,5"),
            analyze(tmp_path, 60, cycle_graph(20), "random:3", "1,11", max_order=20),
            analyze(tmp_path, 60, cycle_graph(20), "adjacency", "1,2", max_order=20),
            ] == [(13, 169, 170), (20, 400, 400), (20, 400, 400)]
    bounds = []
    spy(monkeypatch, control._LieEngine, "extend", lambda engine, int_generators, bound: bounds[-1].append(bound))
    monkeypatch.setenv("NETCTRL_MAX_ORDER", "20")
    with deadline(60), pytest.warns(UserWarning):
        for a, members in ((adjacency_matrix(cycle_graph(16)), (1, 5)),
                           (adjacency_matrix(cycle_graph(20)), (1, 2)),
                           (build_matrix(cycle_graph(20), "random:3"), (1, 11))):
            bounds.append([])
            lie_controllable(a, members)
    assert bounds == [[170], [400], []]


def test_deficient_walk_at_order_40(monkeypatch):
    # cycle-40 from one vertex has walk rank 21, modulo the prime and
    # exactly, so the modular walk comes out short and grows no span; the
    # exact walk and span are grown next, and all 441 span inserts at
    # ambient 1600 are exact.  No Lie part is asked, so no order cap applies
    exact = []
    spy(monkeypatch, intlinalg.EchelonBasis, "insert",
        lambda basis, values: exact.append(exact_span_insert(basis)))
    a = adjacency_matrix(cycle_graph(40))
    with deadline(60):
        assert (kalman_controllable(a, (1,)), p_span_dim(a, (1,))) == ((False, 21), 441)
    assert sum(exact) == 441


def test_modular_false_short_at_order_40(monkeypatch):
    # a path of order 40 whose edge (20, 21) has weight equal to the working
    # prime: each residue power A^k e_1 crosses that edge as zero, so the
    # modular walk from vertex 1 stays on vertices 1..20, though the exact
    # one is full.  The short modular walk grows no span, so the exact walk
    # and span are grown next, once: p_span_dim steps the exact powers of
    # vertex 1 in one walk and makes its 1600 span inserts at ambient 1600
    exact, moduli = [], []
    spy(monkeypatch, intlinalg.EchelonBasis, "insert",
        lambda basis, values: exact.append(exact_span_insert(basis)))
    spy(monkeypatch, control, "_walk", lambda a, j, modulus=None: moduli.append(modulus))
    a = pattern_matrix([[control._PRIME if {u, v} == {19, 20} else int(abs(u - v) == 1) for v in range(40)]
                        for u in range(40)])
    with deadline(60):
        assert (modular_walk_rank(a), kalman_controllable(a, (1,))) == (20, (True, 40))
        moduli.clear()
        assert p_span_dim(a, (1,)) == 1600
    assert sum(exact) == 1600 and moduli == [control._PRIME, None]


def test_modular_walk_at_order_60(monkeypatch):
    # the modular echelon basis at ambient 60: the banded walk of a path and
    # the dense one of the complete graph are full modulo the prime from
    # vertex 1 alone, and the cycle's walk stops at rank 31 by its
    # reflection symmetry, so it is recomputed exactly.  A short modular
    # rank is repaired by that exact walk, so the modular ranks are read
    # too; a full modular walk takes residue powers alone and steps no
    # exact power (modulus None)
    moduli = []
    spy(monkeypatch, control, "_walk", lambda a, j, modulus=None: moduli.append(modulus))
    with deadline(60):
        for a, want in ((build_matrix(path_graph(60), "random:7"), (True, 60)),
                        (build_matrix(complete_graph(60), "random:7"), (True, 60)),
                        (adjacency_matrix(cycle_graph(60)), (False, 31))):
            moduli.clear()
            assert (modular_walk_rank(a), kalman_controllable(a, (1,))) == (want[1], want)
            assert not want[0] or None not in moduli


def test_deficient_lie_closure_at_order_40(tmp_path):
    # cycle-40 adjacency from {1, 5} has walk rank 37; the closure runs over
    # the integers toward 37^2 + 1 and stops once row 1 of its elements
    # reaches rank 36 (lemma 1), where the fixpoint would keep 1370 elements
    assert analyze(tmp_path, 60, cycle_graph(40), "adjacency", "1,5", max_order=40) == (37, 1369, 1370)


def test_hub_walk_at_order_40(tmp_path):
    # analyze reads the Lie dimension off the full walk with no closure.
    # lie_closure builds the closure over the integers, and the hub's walk
    # alone certifies it: A^2 e_1, ..., A^39 e_1, each growing row 1's hub
    # rows beside A's, at ambient 1600, with no bracket and no Lie-basis
    # insert past A and E_11
    assert analyze(tmp_path, 60, path_graph(40), "random:7", "1", max_order=40) == (40, 1600, 1600)
    with deadline(60), warnings.catch_warnings():
        warnings.simplefilter("error")
        generators = control_generators(build_matrix(path_graph(40), "random:7"), (1,))
        assert lie_closure(generators, max_order=40)[0] == 1600


def test_packed_product_span_at_order_40():
    # the walk is full modulo the prime, so its 1600 outer products each go
    # into the lead set as its support mask, one multiplication of two walk
    # rows' masks, and are kept as their leads alone; a repeated lead
    # raises.  Only the span is asked, so no Lie order cap applies
    with deadline(60):
        assert p_span_dim(build_matrix(path_graph(40), "random:7"), (1,)) == 1600


def test_product_span_at_order_60():
    # ambient 3600: the dense walk of the complete graph and the banded one
    # of the path are full modulo the prime from vertex 1, and the cycle's
    # stops at rank 31 both ways, so its modular walk grows no span and its
    # 961 products are formed beside the exact walk.  Each product is one
    # multiplication of support masks
    with deadline(60):
        assert p_span_dim(build_matrix(complete_graph(60), "random:7"), (1,)) == 3600
        assert p_span_dim(build_matrix(path_graph(60), "random:7"), (1,)) == 3600
        assert p_span_dim(adjacency_matrix(cycle_graph(60)), (1,)) == 961


def test_sweeps_through_the_cli_at_order_5(tmp_path):
    # Tier-1 runs the acceptance sweeps through the library; this runs them
    # through netctrl verify, and each section, re-serialized canonically,
    # has the sha256 that tests/test_acceptance.py pins
    assert verify5(tmp_path) == (True, [(115_850, OUTCOME_SHA256["outcome5"]), (73_340, OUTCOME_SHA256["outcome6"])])


def test_sampled_sweeps_through_the_cli_at_order_5(tmp_path):
    # a random:K:SEED family reads only the sets it draws and their
    # one-vertex drops, and sweep4 stops at order 4, so this is the one run
    # of that path at order 5; the pins were computed before forcing
    # statuses were closed on read
    assert verify5(tmp_path, "--subsets", "random:8:1") == (True, [
        (30_800, "097a8b857ae36bead3416979f668181cfb36021754d40ece8a4e29f37dc1671c"),
        (5_845, "a2cd2f28260fccc89ff0ee9b0aa00ee15a8bb5e3f6693c749015c10de10ea1b8")])


def test_sweep_memory_at_order_5(monkeypatch):
    # a random:SEED kind has one class per labeled graph, 728 at order 5,
    # and each class's session and table are dropped after its one unit, so
    # both sweeps over three random kinds peak at most 18 MiB over a bare
    # import (7.0 to 7.3 MiB on Python 3.11, x86)
    sweeps = ("from netctrl import SweepConfig, sweep_equivalence, sweep_zfs_implication; "
              "cfg = SweepConfig(max_order=5, matrix_kinds=('random:101', 'random:202', 'random:303')); "
              "assert sweep_equivalence(cfg).passed and sweep_zfs_implication(cfg).passed; ")
    # each child's own peak RSS in KiB; its ru_maxrss would start from the
    # RSS of this process, which it is forked from
    report = "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))"
    swept, bare = (int(python(120, "-c", code + report)) for code in (sweeps, "import netctrl; "))
    assert swept - bare <= 18 * 1024
    # a table holds little once the exact span keeps only its leads, so
    # keeping every table of an order to its end peaks at 14.3 to 14.4 MiB,
    # inside that bound.  The number of sessions alive at once does not move
    # with their size: at most two, the one in use and the next one being
    # built, where keeping every table holds all 3 x 728
    alive, peak = weakref.WeakSet(), []

    class Counted(control._Session):
        def __init__(self, a):
            super().__init__(a)
            alive.add(self)
            peak.append(len(alive))

    monkeypatch.setattr(control, "_Session", Counted)
    cfg = SweepConfig(max_order=5, matrix_kinds=("random:101", "random:202", "random:303"))
    with deadline(120):
        assert sweep_equivalence(cfg).passed and sweep_zfs_implication(cfg).passed
    assert 0 < max(peak) <= 2


def burnside_orbits(max_order):
    """Orbits of (connected graph, nonempty vertex set) pairs of orders 1..max_order, by Burnside's lemma."""
    orbits = 0
    for n in range(1, max_order + 1):
        pairs = list(itertools.combinations(range(n), 2))
        perms = list(itertools.permutations(range(n)))
        fixed = 0
        for mask in range(1 << len(pairs)):
            edges = {p for i, p in enumerate(pairs) if mask >> i & 1}
            reached = {0}
            for _ in range(n):
                reached |= {w for v, w in edges if v in reached} | {v for v, w in edges if w in reached}
            if len(reached) < n:
                continue
            for p in perms:
                if {tuple(sorted((p[u], p[v]))) for u, v in edges} == edges:
                    fixed += sum(all((s >> p[v] & 1) == (s >> v & 1) for v in range(n)) for s in range(1, 1 << n))
        orbits += fixed // len(perms)
    return orbits


def test_orbit_sharing_at_order_5(monkeypatch):
    # for adjacency and laplacian an automorphism of a class's
    # representative fixes its matrix, so control._grow takes one control
    # set per automorphism orbit, keyed off one class record per isomorphism
    # class: 776 and 446 grown sets (1,518 and 840 when every set of a class
    # was grown), and 1 + 1 + 2 + 6 + 21 class records, one per isomorphism
    # class of orders 1 to 5 (Tier-1 checks that count only up to order 4)
    grown, labelings, found = [], [], []
    spy(monkeypatch, control, "_grow", lambda session, subsets, parts: grown.append(len(set(subsets))))
    spy(monkeypatch, harness, "_canonical_labeling", lambda g: labelings.append(g.order))
    cfg = SweepConfig(max_order=5, matrix_kinds=("adjacency", "laplacian"))
    with deadline(60):
        assert 2 * burnside_orbits(5) == 776
        for sweep in (sweep_equivalence, sweep_zfs_implication):
            grown.clear()
            labelings.clear()
            out = sweep(cfg)
            found.append((out.passed, out.instances_checked, sum(grown), [labelings.count(n) for n in range(1, 6)]))
    assert found == [(True, 46_340, 776, [1, 1, 2, 6, 21]), (True, 29_336, 446, [1, 1, 2, 6, 21])]


def test_exhaustive_search_at_the_cap(tmp_path):
    # no bench workload passes order 16; the spider with nine legs has order 19
    assert cli_json(tmp_path, 60, "zfs", spider(9), "--minimum")["zero_forcing_number"] == 8


def test_exhaustive_search_past_the_cap(tmp_path):
    # order 25 with the cap raised: the scan skips every candidate that
    # misses a fort of a recent failure
    assert cli_json(tmp_path, 60, "zfs", spider(12), "--minimum", max_order=25)["zero_forcing_number"] == 11


def test_prefix_tree_scan_past_the_cap(tmp_path, monkeypatch):
    # order 27 with the cap raised; a tree, so every closure of min_zfs is
    # the witness scan's: the prefix-tree scan makes 29,832, closing the
    # candidates one by one took 412,696
    g = spider(13)
    r = cli_json(tmp_path, 20, "zfs", g, "--minimum", max_order=27)
    witness = tuple(range(2, 24, 2)) + (25,)
    assert (r["zero_forcing_number"], tuple(r["witness"])) == (12, witness) and is_zfs(g, witness)
    closes = []
    spy(monkeypatch, forcing, "_close", lambda *args: closes.append(1))
    with deadline(20):
        assert forcing.min_zfs(g, max_order=27) == (12, witness)
    assert len(closes) <= 40_000


def test_forest_zero_forcing_number_at_order_20(monkeypatch):
    # on a forest min_zfs reads Z off the path cover number and runs no
    # wavefront search: 20 seeded Pruefer trees and 5 seeded forests (trees
    # less some edges) of order 20, at the cap, drawn by the zfs-search
    # workload's tree generator
    rng = random.Random(20)
    forests = [graph(20, prufer_tree(20, rng)) for _ in range(20)]
    forests += [graph(20, [e for e in prufer_tree(20, rng) if rng.random() < 0.75]) for _ in range(5)]
    calls = []
    wavefront = spy(monkeypatch, forcing, "_wavefront", lambda *args: calls.append(args))
    with deadline(60):
        found = [forcing.min_zfs(g) for g in forests]
        assert calls == []
        for g, (z, witness) in zip(forests, found):
            masks = forcing._masks(g)
            assert z == wavefront(masks, forcing._twin_classes(masks)) == len(witness)
            assert is_zfs(g, witness)
