"""Zero forcing closure, ZFS decision, and exact minimum search."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netctrl import (
    adjacency_matrix,
    analyze,
    closure,
    complete_graph,
    cycle_graph,
    graph,
    is_connected,
    is_zfs,
    kalman_controllable,
    lie_controllable,
    min_zfs,
    p_span_dim,
    path_graph,
    vertex_set,
    walk_matrix,
)
from netctrl import forcing, graphs
from netctrl.graphs import adjacency_sets

from .oracles import forcing_closure_bruteforce, is_fort, min_zfs_size_bruteforce


def graph_and_subset():
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=6))
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = graph(n, chosen)
        s = draw(st.lists(st.integers(min_value=1, max_value=n), unique=True))
        return g, tuple(s)
    return st.composite(build)()


def every_small_graph(max_order=5):
    """Every labeled graph of order 1..max_order."""
    for n in range(1, max_order + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            yield graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@st.composite
def sparse_graph(draw, max_order=8):
    """A graph of order <= max_order with at most as many edges as vertices,
    so isolated vertices are common."""
    n = draw(st.integers(min_value=1, max_value=max_order))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n)) if pairs else []
    return graph(n, chosen)


def every_small_forest(max_order=6):
    """Every labeled forest of order 1..max_order: the edge sets of fewer
    than n edges that close no cycle, isolated vertices included."""
    for n in range(1, max_order + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for m in range(n):
            for edges in itertools.combinations(pairs, m):
                root = list(range(n + 1))

                def find(v):
                    while root[v] != v:
                        v = root[v]
                    return v

                for u, v in edges:
                    ru, rv = find(u), find(v)
                    if ru == rv:
                        break
                    root[ru] = rv
                else:
                    yield graph(n, edges)


def prufer_edges(code, n):
    """The edges of the labeled tree on 1..n with the Pruefer code ``code``."""
    degree = [1] * (n + 1)
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = min(u for u in range(1, n + 1) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    if n > 1:
        edges.append(tuple(u for u in range(1, n + 1) if degree[u] == 1))
    return edges


@st.composite
def drawn_forest(draw, max_order=14):
    """A tree drawn by its Pruefer code, less some of its edges, relabeled."""
    n = draw(st.integers(min_value=1, max_value=max_order))
    code = draw(st.lists(st.integers(min_value=1, max_value=n), min_size=max(n - 2, 0),
                         max_size=max(n - 2, 0)))
    keep = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    label = [0] + draw(st.permutations(range(1, n + 1)))
    return graph(n, [(label[u], label[v]) for (u, v), kept in zip(prufer_edges(code, n), keep) if kept])


def lexicographic_min_zfs(g):
    """The first forcing set of a plain scan by size, then lexicographically."""
    for k in range(1, g.order + 1):
        for cand in itertools.combinations(g.vertices, k):
            if is_zfs(g, cand):
                return k, cand
    raise AssertionError("unreachable")


def assert_smallest_forcer_chronicle(g, s):
    """Replay ``closure(g, s)`` step by step against the chronicle rule.

    Each force comes from the smallest black vertex with exactly one white
    neighbor, and forces that neighbor; at the end no black vertex has
    exactly one white neighbor.
    """
    adj = adjacency_sets(g)
    black, chron = closure(g, s)
    seen = set(s)

    def ready():
        return [v for v in sorted(seen) if len(adj[v] - seen) == 1]

    for forcer, forced in chron:
        assert forcer in seen
        assert adj[forcer] - seen == {forced}
        assert ready()[0] == forcer
        seen.add(forced)
    assert ready() == []
    assert tuple(sorted(seen)) == black


class TestVertexSet:
    def test_sorts_and_dedupes(self):
        assert vertex_set([3, 1, 3, 2], 4) == (1, 2, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            vertex_set([0], 3)
        with pytest.raises(ValueError):
            vertex_set([4], 3)

    def test_empty_ok(self):
        assert vertex_set([], 3) == ()

    @pytest.mark.parametrize("label", [1.5, 2.0, True, "1"], ids=repr)
    def test_closure_rejects_a_label_that_is_not_an_int(self, label):
        # True once read as vertex 1, and 2.0 as vertex 2
        for s in ((label,), (1, label)):
            with pytest.raises(ValueError, match=rf"^vertex label {label!r} is not an int$"):
                closure(path_graph(4), s)

    @pytest.mark.parametrize("decide", [analyze, kalman_controllable, p_span_dim, lie_controllable, walk_matrix])
    @pytest.mark.parametrize("members", [1, None])
    def test_control_set_that_is_not_iterable(self, decide, members):
        # once TypeError: 'int' object is not iterable
        with pytest.raises(ValueError, match=rf"^vertex set {members!r} is not an iterable of vertex labels$"):
            decide(adjacency_matrix(path_graph(3)), members)

    @pytest.mark.parametrize("decide", [is_zfs, closure])
    @pytest.mark.parametrize("members", [1, None])
    def test_forcing_set_that_is_not_iterable(self, decide, members):
        with pytest.raises(ValueError, match=rf"^vertex set {members!r} is not an iterable of vertex labels$"):
            decide(path_graph(3), members)

    def test_one_definition(self):
        assert vertex_set is graphs.vertex_set


class TestClosure:
    def test_path_endpoint_forces_all(self):
        g = path_graph(4)
        black, chron = closure(g, [1])
        assert black == (1, 2, 3, 4)
        assert chron == ((1, 2), (2, 3), (3, 4))

    def test_path_middle_stalls(self):
        g = path_graph(4)
        black, chron = closure(g, [2])
        assert black == (2,)
        assert chron == ()

    def test_smallest_forcer_first(self):
        # both 1 and 3 could force; the chronicle must pick 1 first
        g = path_graph(5)
        black, chron = closure(g, [1, 3])
        assert black == (1, 2, 3, 4, 5)
        assert chron[0][0] == 1

    def test_chronicle_replays(self):
        assert_smallest_forcer_chronicle(cycle_graph(6), (1, 2))

    @settings(max_examples=80)
    @given(graph_and_subset())
    def test_matches_simultaneous_rounds_oracle(self, gs):
        g, s = gs
        black, _ = closure(g, s)
        assert set(black) == forcing_closure_bruteforce(adjacency_sets(g), g.order, s)

    @settings(max_examples=500, deadline=None)
    @given(graph_and_subset())
    def test_chronicle_takes_the_smallest_ready_forcer(self, gs):
        assert_smallest_forcer_chronicle(*gs)

    def test_chronicle_rule_on_seeded_random_graphs(self):
        rng = random.Random(20111)
        for _ in range(200):
            n = rng.randint(2, 30)
            p = rng.choice((0.05, 0.1, 0.2, 0.4))
            edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                     if rng.random() < p]
            s = rng.sample(range(1, n + 1), rng.randint(1, max(1, n // 3)))
            assert_smallest_forcer_chronicle(graph(n, edges), s)

    def test_long_path_forces_from_one_end(self):
        n = 100_000
        black, chron = closure(path_graph(n), (1,))
        assert black == tuple(range(1, n + 1))
        assert chron == tuple((v, v + 1) for v in range(1, n))

    def test_memory_does_not_grow_with_the_declared_order(self):
        g = graph(10**6, [(1, 2)])
        tracemalloc.start()
        try:
            assert closure(g, (1,)) == ((1, 2), ((1, 2),))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestMaskClosure:
    def test_agrees_with_oracle_on_every_small_graph_and_subset(self):
        for g in every_small_graph():
            nb, adj = forcing._masks(g), adjacency_sets(g)
            for r in range(g.order + 1):
                for s in itertools.combinations(g.vertices, r):
                    want = forcing_closure_bruteforce(adj, g.order, s)
                    assert forcing._close(nb, forcing._mask(s)) == forcing._mask(want), (g, s)

    def test_isolated_vertex_has_an_empty_mask(self):
        assert forcing._masks(graph(3, [(1, 3)])) == [0, 0b1000, 0, 0b10]


def wavefront(g):
    nb = forcing._masks(g)
    return forcing._wavefront(nb, forcing._twin_classes(nb))


def forest_z(g):
    return forcing._forest_z(forcing._masks(g), len(g.edges))


def seeded_graphs():
    """150 seeded graphs of order 6..9 at four densities."""
    rng = random.Random(1723)
    for _ in range(150):
        n = rng.randint(6, 9)
        p = rng.choice((0.15, 0.3, 0.5, 0.75))
        yield graph(n, [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p])


def closures(monkeypatch, run) -> tuple:
    """What ``run()`` returns, and the ``_close`` calls it made."""
    calls = 0
    close = forcing._close

    def counted(nb, black, todo=None):
        nonlocal calls
        calls += 1
        return close(nb, black, todo)

    monkeypatch.setattr(forcing, "_close", counted)
    try:
        return run(), calls
    finally:
        monkeypatch.setattr(forcing, "_close", close)


def wavefront_closures(monkeypatch, gs) -> int:
    """The ``_close`` calls ``_wavefront`` makes over the graphs ``gs``."""
    return closures(monkeypatch, lambda: [wavefront(g) for g in gs])[1]


def spider(legs):
    """The spider with ``legs`` legs of length 2 on vertex 1: Z is legs - 1."""
    return graph(2 * legs + 1, [(1, 2 * i) for i in range(1, legs + 1)]
                 + [(2 * i, 2 * i + 1) for i in range(1, legs + 1)])


def scan(g, z):
    """``forcing._scan`` of g at size z: the witness and the forts kept."""
    nb = forcing._masks(g)
    return forcing._scan(nb, z, forcing._twin_classes(nb))


def scan_closures(monkeypatch, g) -> tuple:
    """The witness of g's scan at its zero forcing number, and the ``_close``
    calls that scan alone makes."""
    z = wavefront(g)
    (witness, _), calls = closures(monkeypatch, lambda: scan(g, z))
    return witness, calls


def seeded_sparse_graphs(count=40):
    """``count`` seeded graphs of order 9..14 with n to 3n/2 edges, where
    failed candidates leave forts that later ones miss."""
    rng = random.Random(2019)
    for _ in range(count):
        n = rng.randint(9, 14)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        yield graph(n, rng.sample(pairs, rng.randint(n, 3 * n // 2)))


class TestWavefront:
    def test_matches_bruteforce_on_every_small_graph(self):
        # isolated vertices and disconnected graphs included
        for g in every_small_graph():
            assert wavefront(g) == min_zfs_size_bruteforce(adjacency_sets(g), g.order), g

    def test_matches_bruteforce_on_seeded_random_graphs(self):
        for g in seeded_graphs():
            assert wavefront(g) == min_zfs_size_bruteforce(adjacency_sets(g), g.order), g

    def test_a_costly_first_full_mask_does_not_hide_z(self):
        # the first full mask queued is N[1], coloured from the empty mask for
        # 3; the cheaper path colours 2 and then 3 for 1 each, and 1 forces 4
        g = graph(4, [(1, 2), (1, 3), (1, 4)])
        assert min_zfs_size_bruteforce(adjacency_sets(g), g.order) == 2
        assert wavefront(g) == 2

    # closures made with the bound and the repeat skip in place; with the
    # bound alone they were 2,585 and 4,448, and with neither 4,543 and 5,092

    def test_bound_saves_closures_on_seeded_random_graphs(self, monkeypatch):
        assert wavefront_closures(monkeypatch, seeded_graphs()) <= 2_060

    def test_bound_saves_closures_on_the_spider(self, monkeypatch):
        # nine legs of length 2 on vertex 1, order 19: the slowest search at the cap
        g = spider(9)
        assert wavefront_closures(monkeypatch, [g]) <= 512
        assert wavefront(g) == 8

    # closed forms past brute force: the twin classes keep each search small

    def test_star(self):
        g = graph(40, [(1, j) for j in range(2, 41)])
        assert wavefront(g) == 38
        assert min_zfs(g, max_order=40) == (38, tuple(range(2, 40)))

    @pytest.mark.parametrize("a, b", [(2, 2), (2, 9), (5, 7), (12, 15)])
    def test_complete_bipartite(self, a, b):
        g = graph(a + b, [(u, v) for u in range(1, a + 1) for v in range(a + 1, a + b + 1)])
        assert wavefront(g) == a + b - 2
        assert min_zfs(g, max_order=a + b)[0] == a + b - 2

    def test_complete(self):
        g = complete_graph(30)
        assert wavefront(g) == 29
        assert min_zfs(g, max_order=30) == (29, tuple(range(1, 30)))

    def test_empty(self):
        g = graph(20, [])
        assert wavefront(g) == 20
        assert min_zfs(g, max_order=20) == (20, tuple(range(1, 21)))


def wavefront_calls(monkeypatch, g) -> int:
    """The ``_wavefront`` calls ``min_zfs(g)`` makes."""
    calls = 0
    real = forcing._wavefront

    def counted(nb, twins):
        nonlocal calls
        calls += 1
        return real(nb, twins)

    monkeypatch.setattr(forcing, "_wavefront", counted)
    min_zfs(g)
    return calls


class TestForestZ:
    def test_matches_bruteforce_and_a_plain_scan_on_every_small_forest(self):
        # every labeled forest of order <= 6: 1 + 2 + 7 + 38 + 291 + 2932,
        # isolated vertices and several components included
        forests = list(every_small_forest())
        assert len(forests) == 3271
        assert sum(not is_connected(g) for g in forests) > 1000
        for g in forests:
            z, witness = min_zfs(g)
            assert z == min_zfs_size_bruteforce(adjacency_sets(g), g.order), g
            assert (z, witness) == lexicographic_min_zfs(g), g

    @settings(max_examples=150, deadline=None)
    @given(drawn_forest())
    def test_matches_the_wavefront_on_drawn_forests(self, g):
        assert forest_z(g) == wavefront(g)

    def test_is_none_exactly_on_graphs_with_a_cycle(self):
        forests = set(every_small_forest(5))
        for g in every_small_graph():
            assert (forest_z(g) is None) == (g not in forests), g

    @pytest.mark.parametrize("g", [
        graph(8, [(1, 2), (2, 3), (2, 4), (4, 5), (4, 6), (6, 7), (6, 8)]),
        graph(12, [(1, j) for j in range(2, 13)]),
        path_graph(20),
        graph(9, [(1, 2), (2, 3), (5, 6), (6, 7), (6, 8)]),
    ], ids=["tree", "star", "path", "forest-with-isolated-vertices"])
    def test_forests_skip_the_wavefront(self, monkeypatch, g):
        assert wavefront_calls(monkeypatch, g) == 0

    @pytest.mark.parametrize("g", [cycle_graph(5), graph(5, [(1, 2), (2, 3), (1, 3)])],
                             ids=["cycle-5", "triangle-and-two-isolated-vertices"])
    def test_a_cycle_runs_the_wavefront(self, monkeypatch, g):
        # the triangle has m < n, yet a cycle
        assert wavefront_calls(monkeypatch, g) == 1
        assert min_zfs(g) == lexicographic_min_zfs(g)

    @pytest.mark.parametrize("g", [cycle_graph(5), graph(12, [(1, j) for j in range(2, 13)])],
                             ids=["cycle-5", "star"])
    def test_one_twin_table_per_search(self, monkeypatch, g):
        # the wavefront and the scan read the one table min_zfs makes
        calls = []
        real = forcing._twin_classes
        monkeypatch.setattr(forcing, "_twin_classes", lambda nb: calls.append(1) or real(nb))
        assert min_zfs(g) == lexicographic_min_zfs(g)
        assert len(calls) == 1

    def test_a_forest_z_below_z_is_caught(self, monkeypatch):
        # as for the wavefront: the scan at a Z too low finds no forcing set
        g = graph(8, [(1, 2), (2, 3), (2, 4), (4, 5), (4, 6), (6, 7), (6, 8)])
        real = forcing._forest_z
        assert real(forcing._masks(g), len(g.edges)) == min_zfs(g)[0] == 3
        monkeypatch.setattr(forcing, "_forest_z", lambda nb, m: real(nb, m) - 1)
        with pytest.raises(AssertionError):
            min_zfs(g)

    def test_the_order_cap_refuses_before_any_other_work(self, monkeypatch):
        calls = []
        for name in ("_masks", "_twin_classes", "_forest_z", "_wavefront", "_scan"):
            monkeypatch.setattr(forcing, name, lambda *args, name=name: calls.append(name))
        with pytest.raises(ValueError, match="^order 21 exceeds the exhaustive-search cap 20"):
            min_zfs(path_graph(21))
        assert calls == []


class TestIsZfs:
    def test_empty_set_never_forces(self):
        assert not is_zfs(path_graph(3), [])

    def test_full_vertex_set_always_forces(self):
        g = cycle_graph(5)
        assert is_zfs(g, g.vertices)

    def test_path_examples(self):
        g = path_graph(4)
        assert is_zfs(g, [1])
        assert not is_zfs(g, [2])

    def test_cycle_pairs(self):
        g = cycle_graph(5)
        assert is_zfs(g, [1, 2])
        assert not is_zfs(g, [1, 3])

    def test_singleton_graph(self):
        g = graph(1, [])
        assert is_zfs(g, [1])
        assert not is_zfs(g, [])


class TestMinZfs:
    def test_known_families(self):
        assert min_zfs(path_graph(6))[0] == 1
        assert min_zfs(cycle_graph(6))[0] == 2
        assert min_zfs(complete_graph(5))[0] == 4
        assert min_zfs(graph(1, []))[0] == 1

    def test_witness_is_lexicographically_least(self):
        size, witness = min_zfs(cycle_graph(5))
        assert size == 2
        assert witness == (1, 2)
        assert min_zfs(path_graph(4))[1] == (1,)

    def test_isolated_vertices_stay_in_the_witness(self):
        assert min_zfs(graph(4, [(1, 2)])) == (3, (1, 3, 4))
        assert min_zfs(graph(5, [(2, 4)])) == (4, (1, 2, 3, 5))

    @settings(max_examples=150, deadline=None)
    @given(sparse_graph())
    def test_matches_a_plain_lexicographic_scan(self, g):
        assert min_zfs(g) == lexicographic_min_zfs(g)

    def test_matches_a_plain_lexicographic_scan_where_forts_skip(self, monkeypatch):
        skipped = 0
        for g in seeded_sparse_graphs():
            z, witness = lexicographic_min_zfs(g)
            assert min_zfs(g) == (z, witness), g
            # the candidates the scan passed before its winner, each closed or skipped
            before = list(itertools.combinations(g.vertices, z)).index(witness)
            skipped += scan_closures(monkeypatch, g)[1] < before + 1
        assert skipped >= 30  # the filter fired on most of the 40 graphs

    @pytest.mark.parametrize("kept", [0, 1, 10**6])
    def test_the_witness_does_not_depend_on_the_forts_kept(self, monkeypatch, kept):
        want = [min_zfs(g) for g in seeded_sparse_graphs()]
        monkeypatch.setattr(forcing, "SCAN_FORTS", kept)
        assert [min_zfs(g) for g in seeded_sparse_graphs()] == want

    def test_every_kept_fort_is_a_fort(self, monkeypatch):
        # every fort the scan stores is kept, so all of them are replayed: at
        # the zero forcing number, up to the winner, and one below it, where
        # every candidate fails.  Only closures that force something leave a
        # fort, so it takes 300 sparse graphs to replay more than 6,000
        monkeypatch.setattr(forcing, "SCAN_FORTS", 10**6)
        replayed = 0
        for g in itertools.chain(seeded_sparse_graphs(300), seeded_graphs()):
            adj = adjacency_sets(g)
            z, _ = min_zfs(g)
            for size in (z, z - 1):
                witness, forts = scan(g, size)
                assert (witness is None) == (size < z)
                for fort in forts:
                    members = [v for v in g.vertices if fort >> v & 1]
                    assert is_fort(adj, g.order, members), (g, size, members)
                replayed += len(forts)
        assert replayed > 6_000

    def test_forts_cut_the_scan_on_the_spider(self, monkeypatch):
        # order 19: the plain scan closed 42,486 candidates, its winner included
        witness, calls = scan_closures(monkeypatch, spider(9))
        assert witness == (2, 4, 6, 8, 10, 12, 14, 17)
        assert calls <= 2_550

    def test_a_wavefront_below_z_is_caught(self, monkeypatch):
        # only the size the wavefront reports is scanned, so a Z too low
        # finds no forcing set there and must not fall through to a larger size
        monkeypatch.setattr(forcing, "_wavefront", lambda nb, twins: 1)
        with pytest.raises(AssertionError):
            min_zfs(cycle_graph(5))

    def test_witness_actually_forces(self):
        g = graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)])
        size, witness = min_zfs(g)
        assert is_zfs(g, witness)
        assert len(witness) == size

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**10 - 1))
    def test_matches_bruteforce_on_order_5(self, mask):
        pairs = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
        edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
        g = graph(5, edges)
        assert min_zfs(g)[0] == min_zfs_size_bruteforce(adjacency_sets(g), g.order)

    def test_order_cap_raises(self):
        g = path_graph(21)
        with pytest.raises(ValueError):
            min_zfs(g)

    def test_explicit_max_order_overrides_cap(self):
        g = path_graph(21)
        assert min_zfs(g, max_order=21) == (1, (1,))

    def test_env_var_lowers_cap(self, monkeypatch):
        monkeypatch.setenv("NETCTRL_MAX_ORDER", "3")
        with pytest.raises(ValueError):
            min_zfs(path_graph(4))
        assert min_zfs(path_graph(3))[0] == 1

    def test_env_var_raises_cap(self, monkeypatch):
        monkeypatch.setenv("NETCTRL_MAX_ORDER", "21")
        assert min_zfs(path_graph(21))[0] == 1

    def test_env_var_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("NETCTRL_MAX_ORDER", "lots")
        with pytest.raises(ValueError):
            min_zfs(path_graph(4))

    @pytest.mark.parametrize("raw", ["\u0663", "+3", "1_0", " 20 "], ids=repr)
    def test_env_var_takes_ascii_digits_only(self, monkeypatch, raw):
        monkeypatch.setenv("NETCTRL_MAX_ORDER", raw)
        with pytest.raises(ValueError) as exc:
            min_zfs(path_graph(4))
        assert str(exc.value) == f"NETCTRL_MAX_ORDER must be an integer, got {raw!r}"

    def test_explicit_max_order_beats_env(self, monkeypatch):
        monkeypatch.setenv("NETCTRL_MAX_ORDER", "3")
        assert min_zfs(path_graph(4), max_order=4)[0] == 1

    @pytest.mark.parametrize("bad", ["5", 5.0, True, False, 0, -5])
    def test_max_order_must_be_a_positive_int(self, bad):
        with pytest.raises(ValueError) as exc:
            min_zfs(path_graph(4), max_order=bad)
        assert str(exc.value) == f"max_order must be a positive integer, got {bad!r}"

    def test_refusal_names_what_overrides_the_cap(self, monkeypatch):
        monkeypatch.delenv("NETCTRL_MAX_ORDER", raising=False)
        with pytest.raises(ValueError) as exc:
            min_zfs(path_graph(21))
        assert str(exc.value) == (
            "order 21 exceeds the exhaustive-search cap 20; set NETCTRL_MAX_ORDER to override")
        with pytest.raises(ValueError) as exc:
            min_zfs(path_graph(5), max_order=4)
        assert str(exc.value) == (
            "order 5 exceeds the exhaustive-search cap 4; pass a larger max_order argument to override")


@st.composite
def any_graph(draw, max_order=12):
    """A graph of order <= max_order at any density."""
    n = draw(st.integers(min_value=1, max_value=max_order))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    size = draw(st.integers(min_value=0, max_value=len(pairs)))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=size, max_size=size)) if pairs else []
    return graph(n, chosen)


class TestPrefixScan:
    def test_matches_a_plain_lexicographic_scan_on_every_small_graph(self):
        for g in every_small_graph():
            assert min_zfs(g) == lexicographic_min_zfs(g), g

    @settings(max_examples=150, deadline=None)
    @given(any_graph())
    def test_matches_a_plain_lexicographic_scan_up_to_order_12(self, g):
        assert min_zfs(g) == lexicographic_min_zfs(g)

    @pytest.mark.parametrize("legs", [10, 11, 12])
    def test_spider_witness(self, legs):
        # the middles of the first legs - 2 legs, then the end of the next
        g = spider(legs)
        assert min_zfs(g, max_order=g.order) == (legs - 1, tuple(range(2, 2 * legs - 2, 2)) + (2 * legs - 1,))

    def test_prefix_closures_cut_the_spider(self, monkeypatch):
        # order 25, a tree, so every closure is the scan's: 111,182 with the
        # candidates closed one by one and the recent forts skipped
        g = spider(12)
        (z, _), calls = closures(monkeypatch, lambda: min_zfs(g, max_order=25))
        assert z == 11
        assert calls <= 13_600

    def test_twins_cut_the_star(self, monkeypatch):
        # the leaves are twins, so only sets holding the lowest leaves are
        # closed, and of the 105 sets of the hub and 13 leaves only the
        # first; it took 106 closures with the sets closed one by one
        g = graph(16, [(1, j) for j in range(2, 17)])
        found, calls = closures(monkeypatch, lambda: min_zfs(g))
        assert found == (14, tuple(range(2, 16)))
        assert calls <= 30

    def test_a_last_vertex_that_starts_no_force_is_not_closed(self, monkeypatch):
        # three dense draws of order 14, wavefront included: closing every
        # last vertex took 1,232 closures
        gs = [graphs.random_connected(14, Fraction(3, 4), seed=seed) for seed in range(3)]
        found, calls = closures(monkeypatch, lambda: [min_zfs(g) for g in gs])
        assert found == [(9, (1, 2, 3, 4, 5, 7, 8, 9, 10)), (8, (1, 3, 4, 5, 6, 7, 10, 11)),
                         (10, (1, 2, 3, 4, 5, 6, 8, 9, 11, 12))]
        assert calls <= 370

    def test_only_forts_of_closures_that_force_are_kept(self, monkeypatch):
        # a closure of a mask of the scanned size that forces nothing leaves
        # at least n - size white vertices; its fort is not kept.  Such
        # closures are rare, as a last vertex that can start no force is
        # not closed, so every fort of many scans is checked
        monkeypatch.setattr(forcing, "SCAN_FORTS", 10**6)
        kept = 0
        for g in itertools.chain(seeded_sparse_graphs(300), seeded_graphs()):
            z, _ = min_zfs(g)
            for size in (z, z - 1):
                _, forts = scan(g, size)
                assert all(fort.bit_count() < g.order - size for fort in forts), (g, size)
                kept += len(forts)
        assert kept > 6_000
