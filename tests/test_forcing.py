"""Zero forcing closure, ZFS decision, and exact minimum search."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netctrl import (
    closure,
    complete_graph,
    cycle_graph,
    graph,
    is_zfs,
    min_zfs,
    path_graph,
    vertex_set,
)
from netctrl import forcing, graphs
from netctrl.graphs import adjacency_sets

from .oracles import forcing_closure_bruteforce, min_zfs_size_bruteforce


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
    return forcing._wavefront(forcing._masks(g), g.vertices, forcing._mask(g.vertices))


class TestWavefront:
    def test_matches_bruteforce_on_every_small_graph(self):
        # isolated vertices and disconnected graphs included
        for g in every_small_graph():
            assert wavefront(g) == min_zfs_size_bruteforce(adjacency_sets(g), g.order), g

    def test_matches_bruteforce_on_seeded_random_graphs(self):
        rng = random.Random(1723)
        for _ in range(150):
            n = rng.randint(6, 9)
            p = rng.choice((0.15, 0.3, 0.5, 0.75))
            g = graph(n, [e for e in itertools.combinations(range(1, n + 1), 2)
                          if rng.random() < p])
            assert wavefront(g) == min_zfs_size_bruteforce(adjacency_sets(g), g.order), g

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

    def test_explicit_max_order_beats_env(self, monkeypatch):
        monkeypatch.setenv("NETCTRL_MAX_ORDER", "3")
        assert min_zfs(path_graph(4), max_order=4)[0] == 1

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
