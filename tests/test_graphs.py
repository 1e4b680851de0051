"""Graph type, parsing, generators, and traversal helpers."""

import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netctrl import (
    Graph,
    GraphFormatError,
    adjacency_matrix,
    build_matrix,
    closure,
    complete_graph,
    cycle_graph,
    distance,
    format_graph,
    generate,
    graph,
    is_connected,
    is_zfs,
    laplacian_matrix,
    min_zfs,
    parse_graph,
    path_graph,
    random_connected,
    random_same_sign_matrix,
    to_dot,
)
from netctrl import forcing
from netctrl.graphs import adjacency_sets, degree, neighbours, parse_int


def random_graph_strategy(max_order=6):
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_order))
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return graph(n, chosen)
    return st.composite(build)()


class TestGraphType:
    def test_vertices_range(self):
        g = graph(3, [(1, 2)])
        assert list(g.vertices) == [1, 2, 3]

    def test_edges_normalized(self):
        g = graph(3, [(2, 1), (1, 2), (3, 2)])
        assert g.edges == frozenset({(1, 2), (2, 3)})

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            graph(0, [])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            graph(3, [(2, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            graph(3, [(1, 4)])

    @pytest.mark.parametrize("label", [1.5, 2.0, True, "1"], ids=repr)
    def test_rejects_a_label_or_order_that_is_not_an_int(self, label):
        # 1.5 once made a graph that is_connected called disconnected and
        # min_zfs failed on with TypeError
        with pytest.raises(ValueError, match=rf"^vertex label {label!r} is not an int$"):
            graph(3, [(label, 3)])
        with pytest.raises(ValueError, match=rf"^vertex label {label!r} is not an int$"):
            Graph(3, frozenset({(label, 3)}))
        with pytest.raises(ValueError, match=rf"^graph order must be an int >= 1, got {label!r}$"):
            graph(label, [])


# every exported function that takes a Graph; each once raised AttributeError on None
GRAPH_TAKERS = {
    "min_zfs": min_zfs,
    "closure": lambda g: closure(g, (1,)),
    "is_zfs": lambda g: is_zfs(g, (1,)),
    "is_connected": is_connected,
    "distance": lambda g: distance(g, 1, 2),
    "format_graph": format_graph,
    "to_dot": to_dot,
    "adjacency_matrix": adjacency_matrix,
    "laplacian_matrix": laplacian_matrix,
    "random_same_sign_matrix": lambda g: random_same_sign_matrix(g, 7),
    **{f"build_matrix:{kind}": lambda g, kind=kind: build_matrix(g, kind)
       for kind in ("adjacency", "laplacian", "random:7")},
}


@pytest.mark.parametrize("call", GRAPH_TAKERS.values(), ids=GRAPH_TAKERS.keys())
@pytest.mark.parametrize("bad", [None, "2\n1 2\n", [(1, 2)], {1: (2,)}], ids=repr)
def test_what_is_not_a_graph_is_refused(call, bad):
    with pytest.raises(ValueError, match=f"^expected a Graph, got {type(bad).__name__}$"):
        call(bad)


class TestParsing:
    def test_basic(self):
        g = parse_graph("4\n1 2\n2 3\n3 4\n")
        assert g == path_graph(4)

    def test_comments_blanks_crlf(self):
        text = "# path\r\n\r\n4\r\n1 2\r\n# middle\r\n2 3\r\n3 4\r\n"
        assert parse_graph(text) == path_graph(4)

    def test_duplicate_edges_collapse(self):
        g = parse_graph("2\n1 2\n2 1\n")
        assert g.edges == frozenset({(1, 2)})

    def test_error_carries_line_number(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph("3\n1 2\nnope\n")
        assert exc.value.line_number == 3

    def test_rejects_vertex_out_of_range(self):
        with pytest.raises(GraphFormatError):
            parse_graph("2\n1 3\n")

    @pytest.mark.parametrize("token, value", [("0", 0), ("7", 7), ("-1", -1), ("007", 7), ("1" * 30, int("1" * 30))])
    def test_parse_int_reads_ascii_digits(self, token, value):
        assert parse_int(token) == value

    @pytest.mark.parametrize("token", ["", "-", "+3", "1_0", " 20 ", "20\n", "\u0663", "1.0", "--1", "0x1"],
                             ids=repr)
    def test_parse_int_refuses_everything_else(self, token):
        with pytest.raises(ValueError, match=r"^not an integer: "):
            parse_int(token)

    def test_rejects_empty_document(self):
        with pytest.raises(GraphFormatError):
            parse_graph("# nothing\n")

    def test_rejects_bad_order(self):
        with pytest.raises(GraphFormatError):
            parse_graph("0\n")

    @pytest.mark.parametrize("text, line, words", [
        ("# order\n4 5\n1 2\n", 2, "expected the graph order"),
        ("four\n1 2\n", 1, "order is not an integer"),
        ("3\n1 2\n\n2 x\n", 4, "vertices are not integers"),
        ("3\n1 2\n3 3\n", 3, "loop edge not allowed"),
        ("\u0663\n1 2\n", 1, "order is not an integer"),
        ("3\n2 +3\n", 2, "vertices are not integers"),
        ("12_0\n1 2\n", 1, "order is not an integer"),
        ("3\n1 \uff12\n", 2, "vertices are not integers"),
    ], ids=["two-token-order", "non-integer-order", "non-integer-vertex", "loop-edge",
            "arabic-indic-order", "plus-vertex", "underscore-order", "fullwidth-vertex"])
    def test_malformed_lines_name_their_line(self, text, line, words):
        with pytest.raises(GraphFormatError, match=words) as exc:
            parse_graph(text)
        assert exc.value.line_number == line

    @settings(max_examples=60)
    @given(random_graph_strategy())
    def test_format_parse_round_trip(self, g):
        assert parse_graph(format_graph(g)) == g

    def test_to_dot_mentions_all_vertices_and_edges(self):
        g = path_graph(3)
        dot = to_dot(g)
        for v in g.vertices:
            assert str(v) in dot
        assert "1 -- 2" in dot and "2 -- 3" in dot


class TestGenerators:
    def test_path(self):
        g = path_graph(4)
        assert g.edges == frozenset({(1, 2), (2, 3), (3, 4)})

    def test_path_single_vertex(self):
        assert path_graph(1).edges == frozenset()

    def test_cycle(self):
        g = cycle_graph(4)
        assert g.edges == frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})

    def test_cycle_needs_three(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_complete(self):
        g = complete_graph(4)
        assert len(g.edges) == 6

    @pytest.mark.parametrize("family", ["path", "cycle", "complete"])
    @pytest.mark.parametrize("order", ["3", 3.0, None, True], ids=repr)
    def test_order_that_is_not_an_int(self, family, order):
        # once TypeError, e.g. cycle_graph('3') on '<' not supported
        maker = {"path": path_graph, "cycle": cycle_graph, "complete": complete_graph}[family]
        for build in (maker, lambda n: generate(family, n), lambda n: random_connected(n, "1/2", seed=1)):
            with pytest.raises(ValueError, match=rf"^graph order must be an int >= 1, got {order!r}$"):
                build(order)

    def test_generate_dispatch(self):
        assert generate("path", 4) == path_graph(4)
        assert generate("cycle", 5) == cycle_graph(5)
        assert generate("complete", 3) == complete_graph(3)
        with pytest.raises(ValueError):
            generate("mystery", 3)


class TestRandomConnected:
    def test_connected_and_deterministic(self):
        g1 = random_connected(6, "1/2", seed=42)
        g2 = random_connected(6, "1/2", seed=42)
        assert g1 == g2
        assert g1.order == 6
        assert is_connected(g1)

    def test_different_seeds_differ_somewhere(self):
        draws = {random_connected(7, "1/2", seed=s) for s in range(8)}
        assert len(draws) > 1

    def test_probability_one_gives_complete(self):
        assert random_connected(5, 1, seed=0) == complete_graph(5)

    def test_probability_zero_exhausts_tries(self):
        with pytest.raises(ValueError):
            random_connected(3, 0, seed=0, max_tries=50)

    def test_sparse_draws_run_out_of_tries(self):
        msg = r"no connected graph found in 3 draws \(n=6, p=1/1000, seed=0\)"
        with pytest.raises(RuntimeError, match=msg):
            random_connected(6, "1/1000", seed=0, max_tries=3)

    @pytest.mark.parametrize("seed", ["1", 1.5, None, True], ids=repr)
    def test_seed_that_is_not_an_int(self, seed):
        with pytest.raises(ValueError, match=rf"^seed must be an int, got {re.escape(repr(seed))}$"):
            random_connected(5, 1, seed=seed)

    # 1.5 once raised TypeError in range(), 0 the RuntimeError of an exhausted draw
    @pytest.mark.parametrize("tries", [0, -1, 1.5, "3", None, True], ids=repr)
    def test_max_tries_that_is_not_an_int_of_at_least_one(self, tries):
        with pytest.raises(ValueError, match=rf"^max_tries must be an int >= 1, got {re.escape(repr(tries))}$"):
            random_connected(5, 1, seed=0, max_tries=tries)

    # None once raised TypeError from Fraction(), and inf OverflowError
    @pytest.mark.parametrize("prob, why", [(None, "a rational"), (float("inf"), "a rational"),
                                           ("x", "a rational"), (0, "in"), ("3/2", "in")], ids=repr)
    def test_probability_that_is_not_a_rational_in_range(self, prob, why):
        with pytest.raises(ValueError, match=rf"^edge probability must be {why}"):
            random_connected(5, prob, seed=1)

    def test_one_try_is_enough_when_it_connects(self):
        assert random_connected(4, 1, seed=0, max_tries=1) == complete_graph(4)


class TestTraversal:
    def test_is_connected(self):
        assert is_connected(path_graph(5))
        assert not is_connected(graph(4, [(1, 2), (3, 4)]))
        assert is_connected(graph(1, []))

    def test_distance(self):
        g = path_graph(5)
        assert distance(g, 1, 5) == 4
        assert distance(g, 3, 3) == 0
        disconnected = graph(4, [(1, 2), (3, 4)])
        assert distance(disconnected, 1, 3) == float("inf")

    def test_distance_symmetric(self):
        g = cycle_graph(6)
        for u in g.vertices:
            for v in g.vertices:
                assert distance(g, u, v) == distance(g, v, u)

    def test_neighborhood_and_degree(self):
        g = path_graph(4)
        assert degree(g, 2) == 2
        assert degree(g, 1) == 1
        with pytest.raises(ValueError):
            degree(g, 5)

    def test_isolated_vertex_has_degree_zero(self):
        g = graph(5, [(1, 2)])
        assert [degree(g, v) for v in g.vertices] == [1, 1, 0, 0, 0]

    def test_labels_out_of_range_are_refused(self):
        g = path_graph(4)
        cases = (
            (lambda: degree(g, 5), 5),
            (lambda: distance(g, 1, 5), 5),
            (lambda: distance(g, 0, 2), 0),
            (lambda: distance(g, 5, 0), 5),
        )
        for call, label in cases:
            with pytest.raises(ValueError, match=rf"^vertex {label} out of range 1\.\.4$"):
                call()

    def test_adjacency_sets(self):
        g = cycle_graph(3)
        adj = adjacency_sets(g)
        assert adj[1] == {2, 3}

    @settings(max_examples=40)
    @given(random_graph_strategy(max_order=5))
    def test_distance_triangle_inequality(self, g):
        vs = list(g.vertices)
        for u in vs:
            for v in vs:
                for w in vs:
                    assert distance(g, u, w) <= distance(g, u, v) + distance(g, v, w)


class TestNeighbours:
    @settings(max_examples=60)
    @given(random_graph_strategy(max_order=7))
    def test_agrees_with_adjacency_sets(self, g):
        nbrs = neighbours(g)
        adj = adjacency_sets(g)
        assert set(nbrs) == {v for v in g.vertices if adj[v]}
        for v, ws in nbrs.items():
            assert type(ws) is frozenset
            assert ws == adj[v]

    def test_memory_does_not_grow_with_the_declared_order(self):
        g = graph(10**6, [(1, 2)])
        neighbours.cache_clear()
        tracemalloc.start()
        try:
            assert neighbours(g) == {1: frozenset({2}), 2: frozenset({1})}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_min_zfs_builds_no_neighbour_map(self):
        # its bitmask table comes straight from the edge list (forcing._masks)
        g = random_connected(14, Fraction(1, 2), seed=5)
        neighbours.cache_clear()
        forcing.min_zfs(g)
        assert neighbours.cache_info()[:2] == (0, 0)
