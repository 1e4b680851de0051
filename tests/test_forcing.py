"""Zero forcing closure, ZFS decision, and exact minimum search."""

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
        g = path_graph(17)
        with pytest.raises(ValueError):
            min_zfs(g)

    def test_explicit_max_order_overrides_cap(self):
        g = path_graph(17)
        assert min_zfs(g, max_order=17) == (1, (1,))

    def test_env_var_lowers_cap(self, monkeypatch):
        monkeypatch.setenv("NETCTRL_MAX_ORDER", "3")
        with pytest.raises(ValueError):
            min_zfs(path_graph(4))
        assert min_zfs(path_graph(3))[0] == 1

    def test_env_var_raises_cap(self, monkeypatch):
        monkeypatch.setenv("NETCTRL_MAX_ORDER", "17")
        assert min_zfs(path_graph(17))[0] == 1

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
            min_zfs(path_graph(17))
        assert str(exc.value) == (
            "order 17 exceeds the exhaustive-search cap 16; set NETCTRL_MAX_ORDER to override")
        with pytest.raises(ValueError) as exc:
            min_zfs(path_graph(5), max_order=4)
        assert str(exc.value) == (
            "order 5 exceeds the exhaustive-search cap 4; pass a larger max_order argument to override")
