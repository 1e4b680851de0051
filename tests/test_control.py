"""Controllability decisions: walk rank, product span, Lie closure, analyze."""

import itertools
import math
import random
import re
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netctrl import (
    ALL_NEGATIVE,
    ALL_POSITIVE,
    CHECK_PASSED,
    CHECK_SKIPPED,
    CHECK_VIOLATED,
    MIXED,
    adjacency_matrix,
    analyze,
    build_matrix,
    complete_graph,
    cycle_graph,
    distance_power_defects,
    graph,
    kalman_controllable,
    laplacian_matrix,
    lie_closure,
    lie_controllable,
    matrix,
    p_span_dim,
    path_graph,
    pattern_matrix,
    projector,
    random_same_sign_matrix,
    rank,
    report_from_dict,
    walk_matrix,
)
from netctrl import control, forcing, graphs, harness
from netctrl.control import _LieEngine, _Session, _packing, control_generators
from netctrl.intlinalg import EchelonBasis, primitive
from netctrl.linalg import MatrixSpaceBasis, mat_mul, mat_pow

from . import oracles

P4_ADJ = [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
MIXED_CYCLE = [[0, 1, 0, 1], [1, 0, -1, 0], [0, -1, 0, 1], [1, 0, 1, 0]]
BLOCK_PAIRED = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
C4_ADJ = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]


def symmetric_strategy(max_side=4, lo=-4, hi=4):
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_side))
        e = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = draw(st.integers(min_value=lo, max_value=hi))
                e[i][j] = x
                e[j][i] = x
        s = draw(st.lists(st.integers(min_value=1, max_value=n), unique=True, min_size=1))
        return pattern_matrix(e), tuple(s)
    return st.composite(build)()


class TestPatternMatrix:
    def test_sign_classes(self):
        assert pattern_matrix(P4_ADJ).sign_class == ALL_POSITIVE
        assert pattern_matrix([[0, -1], [-1, 0]]).sign_class == ALL_NEGATIVE
        assert pattern_matrix(MIXED_CYCLE).sign_class == MIXED

    def test_diagonal_only_counts_as_all_positive(self):
        a = pattern_matrix([[3, 0], [0, -5]])
        assert a.sign_class == ALL_POSITIVE
        assert a.pattern.edges == frozenset()

    def test_pattern_ignores_diagonal(self):
        a = pattern_matrix([[7, 1], [1, -2]])
        assert a.pattern.edges == frozenset({(1, 2)})

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            pattern_matrix([[1, 2, 3], [4, 5, 6]])
        # nor anything that is not a matrix of rationals: inf once raised
        # OverflowError, and an int TypeError
        for bad in ([[float("inf")]], 5, [[None]]):
            with pytest.raises(ValueError, match="^not a matrix of rationals"):
                pattern_matrix(bad)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            pattern_matrix([[0, 1], [2, 0]])

    def test_rational_entries(self):
        a = pattern_matrix([[0, "1/2"], ["1/2", 0]])
        assert a.matrix[(0, 1)] == Fraction(1, 2)


class TestBuilders:
    def test_adjacency_of_path(self):
        a = adjacency_matrix(path_graph(4))
        assert a.matrix == matrix(P4_ADJ)
        assert a.pattern == path_graph(4)
        assert a.sign_class == ALL_POSITIVE

    def test_laplacian_of_path(self):
        a = laplacian_matrix(path_graph(4))
        expected = [[1, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 1]]
        assert a.matrix == matrix(expected)
        assert a.sign_class == ALL_NEGATIVE
        assert a.pattern == path_graph(4)

    def test_laplacian_of_singleton(self):
        a = laplacian_matrix(graph(1, []))
        assert a.matrix == matrix([[0]])

    def test_laplacian_rows_sum_to_zero(self):
        a = laplacian_matrix(cycle_graph(5))
        for row in a.matrix.entries:
            assert sum(row) == 0

    def test_random_matrix_deterministic(self):
        g = cycle_graph(5)
        a = random_same_sign_matrix(g, 7)
        b = random_same_sign_matrix(g, 7)
        assert a.matrix == b.matrix
        assert a.matrix != random_same_sign_matrix(g, 8).matrix

    def test_random_matrix_draw_order_is_pinned(self):
        g = cycle_graph(5)
        rng = random.Random(7)
        want = [[0] * 5 for _ in range(5)]
        for u, v in sorted(g.edges):
            want[u - 1][v - 1] = want[v - 1][u - 1] = rng.randint(1, 9)
        for j in range(5):
            want[j][j] = rng.randint(-9, 9)
        literal = [[8, 6, 0, 0, 3], [6, -6, 7, 0, 0], [0, 7, 2, 1, 0], [0, 0, 1, 9, 2], [3, 0, 0, 2, -8]]
        assert want == literal
        assert random_same_sign_matrix(g, 7).matrix == matrix(literal)

    def test_adjacency_and_laplacian_match_their_definitions(self):
        cases = [graph(1, []), graph(6, [(2, 4)])]
        for n in range(2, 6):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for r in range(len(pairs) + 1):
                cases.extend(graph(n, chosen) for chosen in itertools.combinations(pairs, r))
        for g in cases:
            adj = [[int(tuple(sorted((u, v))) in g.edges) for v in g.vertices] for u in g.vertices]
            lap = [
                [sum(adj[u]) if u == v else -adj[u][v] for v in range(g.order)]
                for u in range(g.order)
            ]
            assert adjacency_matrix(g).matrix == matrix(adj)
            assert laplacian_matrix(g).matrix == matrix(lap)

    def test_graph_built_matrices_are_their_own_pattern_matrices(self, monkeypatch):
        # the builders place only nonzero weights, so the graph is the
        # pattern and the weights' signs are the sign class; pattern_matrix
        # derives both from the entries, and the builders never call it
        cases = [graph(1, []), graph(6, [(2, 4)])]
        for n in range(2, 5):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for r in range(len(pairs) + 1):
                cases.extend(graph(n, chosen) for chosen in itertools.combinations(pairs, r))
        derive = control.pattern_matrix
        built = []
        monkeypatch.setattr(control, "pattern_matrix", lambda m: pytest.fail("a builder derived its pattern"))
        for g in cases:
            for kind in ("adjacency", "laplacian", "random:1", "random:2"):
                built.append((g, build_matrix(g, kind)))
        monkeypatch.setattr(control, "pattern_matrix", derive)
        for g, a in built:
            assert a == pattern_matrix(a.matrix)
            assert a.pattern == g

    @pytest.mark.parametrize("seed", ["7", 1.5, None, True], ids=repr)
    def test_random_matrix_refuses_a_seed_that_is_not_an_int(self, seed):
        with pytest.raises(ValueError, match=rf"^seed must be an int, got {re.escape(repr(seed))}$"):
            random_same_sign_matrix(cycle_graph(5), seed)

    def test_random_matrix_pattern_and_ranges(self):
        g = cycle_graph(6)
        a = random_same_sign_matrix(g, 3)
        assert a.pattern == g
        assert a.sign_class == ALL_POSITIVE
        for i in range(6):
            for j in range(6):
                x = a.matrix[(i, j)]
                if i == j:
                    assert -9 <= x <= 9
                elif x:
                    assert 1 <= x <= 9

    def test_build_matrix_dispatch(self):
        g = path_graph(3)
        assert build_matrix(g, "adjacency").matrix == adjacency_matrix(g).matrix
        assert build_matrix(g, "laplacian").matrix == laplacian_matrix(g).matrix
        assert build_matrix(g, "random:5").matrix == random_same_sign_matrix(g, 5).matrix
        with pytest.raises(ValueError):
            build_matrix(g, "hadamard")
        with pytest.raises(ValueError):
            build_matrix(g, "random:x")

    def test_parse_kind_reports_label_invariance(self):
        assert control.parse_kind("adjacency") == ("adjacency", None, True)
        assert control.parse_kind("laplacian") == ("laplacian", None, True)
        assert control.parse_kind("random:7") == ("random", 7, False)
        for bad in ("hadamard", "random:", "random:x", "Adjacency"):
            with pytest.raises(ValueError):
                control.parse_kind(bad)

    # int() alone reads each of these seeds; a leading minus is the grammar's
    @pytest.mark.parametrize("seed", ["\u0663", "+3", "1_0", " 3", "3 "], ids=repr)
    def test_seed_takes_ascii_digits_only(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"malformed matrix kind {f'random:{seed}'!r}")):
            control.parse_kind(f"random:{seed}")

    def test_seed_may_be_negative(self):
        g = path_graph(3)
        assert control.parse_kind("random:-3") == ("random", -3, False)
        assert build_matrix(g, "random:-3").matrix == random_same_sign_matrix(g, -3).matrix


class TestWalkMatrix:
    def test_path_single_vertex(self):
        a = adjacency_matrix(path_graph(4))
        w = walk_matrix(a, [2])
        assert w == matrix([[0, 1, 0, 2], [1, 0, 2, 0], [0, 1, 0, 3], [0, 0, 1, 0]])
        assert rank(w) == 4

    def test_block_order_ascending(self):
        a = adjacency_matrix(path_graph(3))
        w = walk_matrix(a, [3, 1])
        assert w.cols == 6
        # first block is vertex 1, second is vertex 3
        assert tuple(r[0] for r in w.entries) == (1, 0, 0)
        assert tuple(r[3] for r in w.entries) == (0, 0, 1)

    def test_empty_set_rejected(self):
        a = adjacency_matrix(path_graph(3))
        with pytest.raises(ValueError):
            walk_matrix(a, [])

    def test_out_of_range_rejected(self):
        a = adjacency_matrix(path_graph(3))
        with pytest.raises(ValueError):
            walk_matrix(a, [4])


class TestKalman:
    def test_path_examples(self):
        a = adjacency_matrix(path_graph(4))
        assert kalman_controllable(a, [1]) == (True, 4)
        assert kalman_controllable(a, [2]) == (True, 4)

    def test_zero_matrix(self):
        a = pattern_matrix([[0, 0], [0, 0]])
        assert kalman_controllable(a, [1]) == (False, 1)

    def test_cycle_needs_two(self):
        a = adjacency_matrix(cycle_graph(4))
        ok, r = kalman_controllable(a, [1])
        assert not ok and r < 4
        assert kalman_controllable(a, [1, 2])[0]

    @settings(max_examples=50, deadline=None)
    @given(symmetric_strategy())
    def test_matches_bruteforce(self, inst):
        a, s = inst
        entries = [list(r) for r in a.matrix.entries]
        assert kalman_controllable(a, s)[1] == oracles.walk_rank_bruteforce(entries, s)


class TestProductSpan:
    def test_examples(self):
        a = adjacency_matrix(path_graph(4))
        assert p_span_dim(a, [2]) == 16
        z = pattern_matrix([[0, 0], [0, 0]])
        assert p_span_dim(z, [1]) == 1

    def test_empty_set_rejected(self):
        a = adjacency_matrix(path_graph(3))
        with pytest.raises(ValueError):
            p_span_dim(a, [])

    @settings(max_examples=40, deadline=None)
    @given(symmetric_strategy(max_side=3))
    def test_matches_literal_products(self, inst):
        a, s = inst
        entries = [list(r) for r in a.matrix.entries]
        assert p_span_dim(a, s) == oracles.pspan_dim_bruteforce(entries, s)

    @staticmethod
    def _assert_span_is_the_walk_products(a, s):
        # the exact span, a subspace of row-major n-by-n matrices, against a
        # MatrixSpaceBasis of the literal products u w^T of walk_matrix columns
        session = _Session(a)
        state = control._NodeState(session, parts=("pspan",))
        for j in sorted(set(s)):
            control._extend_state(state, session, j)
        cols = list(zip(*walk_matrix(a, s).entries))
        want = MatrixSpaceBasis(a.n)
        for u in cols:
            for w in cols:
                want.insert([[x * y for y in w] for x in u])
        assert state.pspan.rational_rows() == want.vectors()

    @settings(max_examples=40, deadline=None)
    @given(symmetric_strategy())
    def test_span_is_the_walk_products(self, inst):
        self._assert_span_is_the_walk_products(*inst)

    @pytest.mark.parametrize("g, s, rank", [
        (cycle_graph(5), (1,), 3), (complete_graph(4), (1,), 2), (complete_graph(4), (1, 2), 3),
    ], ids=["C5-1", "K4-1", "K4-12"])
    def test_deficient_span_is_the_walk_products(self, g, s, rank):
        a = adjacency_matrix(g)
        assert kalman_controllable(a, s) == (False, rank)
        self._assert_span_is_the_walk_products(a, s)

    @pytest.mark.parametrize("g, kind", [
        (cycle_graph(3), "adjacency"), (cycle_graph(4), "adjacency"),
        (complete_graph(4), "adjacency"), (cycle_graph(4), "random:2"), (path_graph(4), "random:3"),
        (cycle_graph(5), "random:3"),
    ], ids=["C3", "C4", "K4", "C4-random:2", "P4-random:3", "C5-random:3"])
    def test_every_subset_matches_literal_products(self, monkeypatch, g, kind):
        # the cycles and K4 have deficient walks on some sets; small primes
        # make the modular walk deficient on more and send them exact
        a = build_matrix(g, kind)
        entries = [[int(x) for x in row] for row in a.matrix.entries]
        for k in range(1, g.order + 1):
            for s in itertools.combinations(range(1, g.order + 1), k):
                want = oracles.pspan_dim_bruteforce(entries, s)
                for p in (control._PRIME, 2, 3, 5):
                    monkeypatch.setattr(control, "_PRIME", p)
                    assert p_span_dim(a, s) == want, (s, p)

    def test_span_inserts_grow_without_row_operations(self, monkeypatch):
        # a new span product is zero on every stored pivot, so reducing it
        # makes no row operation, and it is never already in the span
        seen = {"inserts": 0, "modular": 0}
        real = EchelonBasis.insert

        def checking(basis, values):
            caller = sys._getframe(1)
            if caller.f_code is not control._extend_state.__code__ or basis is not caller.f_locals["span"]:
                return real(basis, values)
            p = basis.modulus
            if p is None:
                hit = [c for c in basis.pivots if values[c]]
            else:
                mask = (1 << basis.width) - 1
                hit = [c for c in basis.pivots if (values >> c * basis.width & mask) % p]
            assert not hit, f"a span product meets stored pivots {hit}"
            row = real(basis, values)
            assert row is not None, "a span product did not grow the span"
            seen["inserts"] += 1
            seen["modular"] += p is not None
            return row

        monkeypatch.setattr(EchelonBasis, "insert", checking)
        cfg = harness.SweepConfig(max_order=4, matrix_kinds=("adjacency", "random:4"))
        assert harness.sweep_equivalence(cfg).passed
        assert harness.sweep_zfs_implication(cfg).passed
        exact = seen["inserts"]
        assert exact > 0
        rep = analyze(build_matrix(cycle_graph(6), "random:1"), (1, 4))
        assert (rep.walk_rank, rep.p_span_dim) == (6, 36)
        assert seen["modular"] == seen["inserts"] - exact == 36

    @settings(max_examples=40, deadline=None)
    @given(symmetric_strategy())
    def test_equals_walk_rank_squared(self, inst):
        a, s = inst
        _, r = kalman_controllable(a, s)
        assert p_span_dim(a, s) == r * r


class TestLieClosure:
    def test_single_scalar(self):
        dim, basis = lie_closure([matrix([[2]])])
        assert dim == 1
        assert basis.vectors() == ((Fraction(1),),)

    def test_single_projector_stays_one_dimensional(self):
        dim, _ = lie_closure([projector(1, 3)])
        assert dim == 1

    def test_full_gl4_from_path_control(self):
        a = adjacency_matrix(path_graph(4))
        dim, basis = lie_closure(control_generators(a, (2,)))
        assert dim == 16
        assert basis.dim == 16

    def test_mixed_cycle_stalls_at_eight(self):
        a = pattern_matrix(MIXED_CYCLE)
        dim, _ = lie_closure(control_generators(a, (1, 3)))
        assert dim == 8

    @staticmethod
    def _oracle_rows(gens):
        """The closure's reduced row echelon form, from the all-pairs fixpoint oracle."""
        return tuple(map(tuple, oracles.lie_basis_bruteforce([g.entries for g in gens])))

    @pytest.mark.parametrize("gens", [
        [matrix([[2]])],
        control_generators(adjacency_matrix(path_graph(4)), (2,)),
        control_generators(random_same_sign_matrix(complete_graph(5), 7), (1,)),
    ], ids=["scalar", "P4", "K5-random:7"])
    def test_full_closure_is_the_unit_basis(self, monkeypatch, gens):
        want = self._oracle_rows(gens)
        runs = _lie_engines(monkeypatch)
        dim, basis = lie_closure(gens)
        n = basis.side
        # one engine, bounded by n^2
        assert [bound for bound, _ in runs] == [n * n]
        assert dim == len(want) == basis.dim == n * n
        assert basis.vectors() == want
        assert basis == MatrixSpaceBasis.full(n)

    def test_full_exact_closure_is_the_unit_basis(self, monkeypatch):
        # A's hub row (2) certifies the closure with A and E_11 its only
        # elements, and lie_closure returns the unit basis for it
        gens = control_generators(pattern_matrix([[0, 2], [2, 1]]), (1,))
        want = self._oracle_rows(gens)
        runs = _lie_engines(monkeypatch)
        dim, basis = lie_closure(gens)
        [(_, engine)] = runs
        assert _certified(engine) and len(engine.elems) == 2
        assert dim == len(want) == 4
        assert basis.vectors() == want and basis == MatrixSpaceBasis.full(2)

    def test_deficient_closure_is_the_exact_basis(self, monkeypatch):
        gens = control_generators(pattern_matrix(MIXED_CYCLE), (1, 3))
        want = self._oracle_rows(gens)
        runs = _lie_engines(monkeypatch)
        dim, basis = lie_closure(gens)
        assert [bound for bound, _ in runs] == [16]
        assert dim == len(want) == 8
        assert basis.vectors() == want

    @settings(max_examples=25, deadline=None)
    @given(symmetric_strategy(max_side=3))
    def test_matches_the_exact_closure(self, inst):
        a, s = inst
        gens = control_generators(a, s)
        dim, basis = lie_closure(gens)
        want = self._oracle_rows(gens)
        assert dim == len(want)
        assert basis.vectors() == want

    def test_asymmetric_generator_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            lie_closure([matrix([[0, 1], [1, 0]]), matrix([[0, 1], [0, 0]])])

    def test_no_generators_rejected(self):
        with pytest.raises(ValueError):
            lie_closure([])

    def test_generators_that_are_not_an_iterable_rejected(self):
        # once TypeError: 'int' object is not iterable
        with pytest.raises(ValueError, match=r"^generators must be an iterable of matrices, got 5$"):
            lie_closure(5)

    def test_mismatched_sides_rejected(self):
        with pytest.raises(ValueError):
            lie_closure([matrix([[1]]), matrix([[1, 0], [0, 1]])])
        # nor a generator that is not a matrix of rationals: a PatternMatrix
        # once raised TypeError, and inf OverflowError
        for bad in (build_matrix(path_graph(3), "adjacency"), [[float("inf")]]):
            with pytest.raises(ValueError, match="^not a matrix of rationals"):
                lie_closure([bad])

    def test_order_cap_raises(self):
        big = [[0] * 17 for _ in range(17)]
        with pytest.raises(ValueError):
            lie_closure([matrix(big)])

    def test_order_past_the_default_cap_warns(self):
        big = [[Fraction(0)] * 17 for _ in range(17)]
        big[0][0] = Fraction(1)
        with pytest.warns(UserWarning):
            dim, _ = lie_closure([matrix(big)], max_order=17)
        assert dim == 1

    def test_env_var_adjusts_cap(self, monkeypatch):
        monkeypatch.setenv("NETCTRL_MAX_ORDER", "2")
        with pytest.raises(ValueError):
            lie_closure([matrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])])
        monkeypatch.setenv("NETCTRL_MAX_ORDER", "17")
        big = [[Fraction(0)] * 17 for _ in range(17)]
        with pytest.warns(UserWarning):
            dim, _ = lie_closure([matrix(big)])
        assert dim == 0

    def test_refusal_names_the_argument_that_set_the_cap(self, monkeypatch):
        monkeypatch.setenv("NETCTRL_MAX_ORDER", "17")
        path3 = matrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        with pytest.raises(ValueError) as exc:
            lie_closure([path3], max_order=2)
        assert str(exc.value) == (
            "order 3 exceeds the Lie-closure cap 2; pass a larger max_order argument to override")

    @pytest.mark.parametrize("bad", ["5", 5.0, True, False, 0, -5])
    def test_max_order_must_be_a_positive_int(self, bad):
        with pytest.raises(ValueError) as exc:
            lie_closure([matrix([[0, 1], [1, 0]])], max_order=bad)
        assert str(exc.value) == f"max_order must be a positive integer, got {bad!r}"

    def test_takes_no_cap(self):
        # n^2 bounds every closure; no caller stops one short of its fixpoint
        with pytest.raises(TypeError):
            lie_closure([matrix([[0, 1], [1, 0]])], cap=5)

    @settings(max_examples=25, deadline=None)
    @given(symmetric_strategy(max_side=3))
    def test_matches_fixpoint_oracle(self, inst):
        a, s = inst
        entries = [list(r) for r in a.matrix.entries]
        dim, _ = lie_closure(control_generators(a, s))
        assert dim == oracles.control_lie_dim_bruteforce(entries, s)

    @settings(max_examples=25, deadline=None)
    @given(symmetric_strategy(max_side=3))
    def test_closure_closed_under_brackets(self, inst):
        a, s = inst
        _, basis = lie_closure(control_generators(a, s))
        mats = basis.matrices()
        for x in mats:
            for y in mats:
                bracket = mat_mul(x, y) - mat_mul(y, x)
                assert basis.contains(bracket)


class TestIncrementalLieEngine:
    """The engine driven the way the sweeps drive it, against the oracle.

    A first, then one projector per extend call on a copy of the parent
    state; the parent must keep its own dimension.
    """

    @pytest.mark.parametrize("entries, members, final_dim", [
        (MIXED_CYCLE, (1, 3), 8),
        (BLOCK_PAIRED, (1, 3), 8),
        (C4_ADJ, (1,), 9),
        # the algebra of (1, 3) is gl(2) + gl(2), which already holds e_2 e_2^T
        (BLOCK_PAIRED, (1, 3, 2), 8),
    ])
    def test_prefix_chain_matches_oracle(self, entries, members, final_dim):
        n = len(entries)
        a = tuple(tuple(row) for row in entries)
        root = _LieEngine(n)
        assert root.extend([a], n * n) == 1
        engine = root
        for k, j in enumerate(members, 1):
            parent_dim = engine.dim
            child = engine.copy()
            p = tuple(tuple(int(r == c == j - 1) for c in range(n)) for r in range(n))
            dim = child.extend([p], n * n)
            assert engine.dim == parent_dim
            assert dim == oracles.control_lie_dim_bruteforce(entries, members[:k])
            if dim == parent_dim:
                assert child.gens == engine.gens
            engine = child
        assert dim == final_dim
        # a sibling grown from the root after its descendants sees none of them
        assert root.extend([p], n * n) == oracles.control_lie_dim_bruteforce(entries, (j,))
        gens = list(engine.gens)
        assert engine.extend([a], n * n) == final_dim
        assert engine.gens == gens
        assert not engine.pending


def _int_matrix(a):
    return tuple(tuple(int(x) for x in row) for row in a.matrix.entries)


def _control_engine(a, s, bound=None):
    """The engine's closure of A and the projectors of ``s``, bounded by ``bound`` (n^2 by default)."""
    n = a.n
    gens = [_int_matrix(a)]
    for j in s:
        gens.append(tuple(tuple(int(r == c == j - 1) for c in range(n)) for r in range(n)))
    engine = _LieEngine(n)
    engine.extend(gens, n * n if bound is None else bound)
    return engine


def _certified(engine):
    """Whether the closure stopped on a projector's cross: it holds fewer elements than its dimension."""
    return engine.dim > engine.bases[0].dim + engine.bases[1].dim


class TestSplitLieEngine:
    """The closure kept as symmetric and skew parts, against the oracle."""

    @settings(max_examples=30, deadline=None)
    @given(symmetric_strategy())
    def test_matches_fixpoint_oracle(self, inst):
        a, s = inst
        engine = _control_engine(a, s)
        assert engine.dim == oracles.control_lie_dim_bruteforce(
            [list(r) for r in a.matrix.entries], s)
        for parity, packed in engine.elems:
            x = engine._matrix(parity, packed)
            sign = -1 if parity else 1
            assert x == tuple(tuple(sign * v for v in col) for col in zip(*x))
            assert engine.bases[parity].contains(packed)


class TestCrossCertificate:
    """A full closure stops once the hub rows of its elements reach rank n - 1."""

    @settings(max_examples=60, deadline=None)
    @given(symmetric_strategy(max_side=5))
    def test_certified_closure_has_oracle_dimension_n_squared(self, inst):
        a, s = inst
        n = a.n
        want = oracles.control_lie_dim_bruteforce([list(r) for r in a.matrix.entries], s)
        engine = _control_engine(a, s)
        assert engine.dim == want
        if engine.hub_rows is not None and engine.hub_rows.dim == n - 1:
            assert engine.dim == want == n * n
        if _certified(engine):
            # the hub is a control vertex and its rows reached rank n - 1
            assert engine.hub + 1 in s
            assert engine.hub_rows.dim == n - 1

    @staticmethod
    def _counting_brackets(monkeypatch):
        brackets = []
        real = _LieEngine._bracket
        monkeypatch.setattr(_LieEngine, "_bracket",
                            lambda self, ad, elem: brackets.append(ad) or real(self, ad, elem))
        return brackets

    # a hub past vertex 1 reads skew entries left of its diagonal
    @pytest.mark.parametrize("member", [1, 5])
    def test_complete_8_stops_after_n_plus_2_elements(self, monkeypatch, member):
        brackets = self._counting_brackets(monkeypatch)
        engine = _control_engine(random_same_sign_matrix(complete_graph(8), 7), (member,))
        # run to the end, the same closure keeps 64 elements after 121
        # brackets; the hub's walk A^2 e_j, ..., A^7 e_j certifies it beside
        # A's hub row with no bracket (each step grows the hub rows), and
        # the elements stay A and E_jj
        assert (engine.dim, len(engine.elems), len(brackets)) == (64, 2, 0)
        assert engine.hub == member - 1 and engine.hub_rows.dim == 7
        assert not engine.pending
        # the same closure grown by the engine beside its full walk
        brackets.clear()
        session = _Session(random_same_sign_matrix(complete_graph(8), 7))
        state = control._NodeState(session, parts=("walk", "lie"))
        control._extend_state(state, session, member)
        assert state.walk.dim == 8
        assert (state.lie.dim, len(state.lie.elems), len(brackets)) == (64, 2, 0)

    @pytest.mark.parametrize("g, kind, members, walk, elems, brackets", [
        (cycle_graph(16), "adjacency", (1,), 9, 82, 161),
        (cycle_graph(8), "adjacency", (1,), 5, 26, 49),
        (complete_graph(6), "adjacency", (1, 2), 3, 10, 24),
    ], ids=["C16-1", "C8-1", "K6-12"])
    def test_short_walk_closure_is_never_certified(self, monkeypatch, g, kind, members, walk, elems, brackets):
        # beside a short walk of rank r the closure grows with bound n^2 as
        # beside a full one, but its hub rows stay at most r - 1 < n - 1
        # (lemma 1), so it never certifies and runs to its fixpoint
        counted = self._counting_brackets(monkeypatch)
        session = _Session(build_matrix(g, kind))
        state = control._NodeState(session, parts=("walk", "lie"))
        for j in members:
            control._extend_state(state, session, j)
        assert state.walk.dim == walk
        assert (state.lie.dim, len(state.lie.elems), len(counted)) == (elems, elems, brackets)
        if g.order <= 6:  # the oracle takes seconds past that
            assert elems == oracles.control_lie_dim_bruteforce(
                [list(r) for r in build_matrix(g, kind).matrix.entries], members)
        assert state.lie.hub_rows.dim == walk - 1 < g.order - 1
        assert not _certified(state.lie)

    def test_generator_order_does_not_matter(self, monkeypatch):
        a = _int_matrix(random_same_sign_matrix(complete_graph(8), 7))
        e33 = control._projector_rows(8, 2)
        brackets = self._counting_brackets(monkeypatch)
        dims, counts = [], []
        for gens in ([a, e33], [e33, a]):
            engine = _LieEngine(8)
            dims.append(engine.extend(gens, 64))
            assert engine.hub == 2 and engine.hub_rows.dim == 7
            counts.append((len(engine.elems), len(brackets)))
            brackets.clear()
        assert dims == [64, 64]
        # the hub's walk starts only when E_33 becomes the hub with A in;
        # A offered after the hub leaves the hub rows to the brackets
        assert counts == [(2, 0), (10, 9)]

    def test_non_projector_generators_have_no_hub(self):
        a = _int_matrix(random_same_sign_matrix(complete_graph(4), 7))
        b = _int_matrix(random_same_sign_matrix(complete_graph(4), 3))
        engine = _LieEngine(4)
        assert engine.extend([a, b], 16) == len(engine.elems) == 16
        assert engine.hub is None and engine.hub_rows is None

    def test_hub_rows_start_from_every_earlier_element(self):
        # A and A^2 of P4 commute; when E_22 arrives both hub rows, (1, 1, 0)
        # and (0, 0, 1), go in at once and one bracket chain fills the third
        a = _int_matrix(adjacency_matrix(path_graph(4)))
        a2 = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*a)) for row in a)
        gens = [a, a2]
        want = len(oracles.lie_basis_bruteforce(gens + [control._projector_rows(4, 1)]))
        engine = _LieEngine(4)
        assert engine.extend(gens, 16) == len(engine.elems) == 2
        assert engine.extend([control._projector_rows(4, 1)], 16) == want == 16
        assert engine.hub == 1 and engine.hub_rows.dim == 3
        assert _certified(engine)

    def test_projectors_alone_never_certify(self):
        # every projector's hub row is zero: the closure is the diagonal
        engine = _LieEngine(4)
        assert engine.extend([control._projector_rows(4, j) for j in range(4)], 16) == 4
        assert len(engine.elems) == 4
        assert engine.hub == 0 and engine.hub_rows.dim == 0

    # the oracle's dimensions; the isolated vertex 6 keeps every bracket's
    # last row and column zero, so P5 + K1 closes to gl(5)
    @pytest.mark.parametrize("edges, n, members, want", [
        ([(1, 2), (2, 3), (3, 4), (4, 5)], 6, (1,), 25),
        ([(1, 2), (2, 3)], 4, (1,), 9),
        (list(itertools.combinations(range(1, 5), 2)), 4, (2, 3), 10),
    ], ids=["P5+K1", "P3+K1", "K4"])
    def test_deficient_closures_stay_uncertified(self, edges, n, members, want):
        engine = _control_engine(adjacency_matrix(graph(n, edges)), members)
        assert engine.dim == len(engine.elems) == want
        assert engine.hub_rows.dim < n - 1


class TestOneBound:
    """``extend``'s bound is the engine's one stop: its root less one is the certifying rank."""

    def test_engine_takes_its_side_alone(self):
        with pytest.raises(TypeError):
            _LieEngine(4, (3, 16))
        with pytest.raises(TypeError):
            _LieEngine(4).extend([control._projector_rows(4, 0)])

    # the oracle's fixpoints, below n^2, with hub rows of rank n - 2, one
    # short of the root of n^2 less one
    @pytest.mark.parametrize("g, members, want", [
        (cycle_graph(4), (1,), 9),
        (graph(4, [(1, 2), (1, 3), (1, 4)]), (2,), 9),
        (path_graph(5), (2,), 16),
    ], ids=["C4-1", "star3-2", "P5-2"])
    def test_hub_rows_one_short_run_to_the_fixpoint(self, g, members, want):
        a = adjacency_matrix(g)
        n = g.order
        engine = _control_engine(a, members)
        assert engine.hub_rows.dim == math.isqrt(n * n) - 2
        assert engine.dim == len(engine.elems) == want < n * n
        assert not engine.pending and not _certified(engine)
        assert want == oracles.control_lie_dim_bruteforce([list(r) for r in a.matrix.entries], members)

    @pytest.mark.parametrize("g, kind, member", [
        (complete_graph(8), "random:7", 1),
        (path_graph(6), "adjacency", 1),
        (path_graph(4), "adjacency", 2),
    ], ids=["K8-1", "P6-1", "P4-2"])
    def test_certified_closure_takes_no_more_generators(self, g, kind, member):
        # every generator lies in gl(n) once the closure is certified there,
        # so the engine returns before it inserts one
        a = build_matrix(g, kind)
        n = g.order
        engine = _control_engine(a, (member,))
        assert _certified(engine) and engine.dim == n * n
        elems, gens = list(engine.elems), list(engine.gens)
        more = [control._projector_rows(n, j) for j in range(n)]
        more.append(_int_matrix(random_same_sign_matrix(g, 3)))
        assert engine.extend(more, n * n) == n * n
        assert (engine.elems, engine.gens) == (elems, gens)
        assert not engine.pending

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_closure_with_no_hub_stops_at_the_bound(self, n):
        # two generic generators on K_n generate gl(n) with no projector to
        # certify it: the closure stops at n^2 with pairs still queued
        gens = [_int_matrix(random_same_sign_matrix(complete_graph(n), seed)) for seed in (7, 3)]
        engine = _LieEngine(n)
        assert engine.extend(gens, n * n) == len(engine.elems) == n * n
        assert engine.hub is None and engine.pending
        assert len(oracles.lie_basis_bruteforce(gens)) == n * n


@st.composite
def _sparse_symmetric(draw):
    """(A, S): a mixed-sign symmetric integer A of side 1..6 with many zeros, and 1..3 controls.

    With a split point k, every entry between vertices 1..k and k+1..n is
    zero, so the pattern is disconnected.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    split = draw(st.integers(min_value=0, max_value=n))
    e = [[0] * n for _ in range(n)]
    for i in range(n):
        e[i][i] = draw(st.integers(min_value=-2, max_value=2))
        for j in range(i + 1, n):
            if (i < split) == (j < split):
                e[i][j] = e[j][i] = draw(st.sampled_from([0, 0, 0, -2, -1, 1, 3]))
    s = draw(st.lists(st.integers(min_value=1, max_value=n), unique=True, min_size=1,
                      max_size=min(3, n)))
    return e, tuple(s)


def _lie_engines(monkeypatch):
    """Every ``extend`` call on a Lie engine the library builds from here on, as (bound, engine).

    The library's ``lie_closure`` and ``_dimensions`` extend each engine
    they build once; an engine built in a test is not recorded.
    """
    runs = []

    class Recorded(control._LieEngine):
        def extend(self, int_generators, bound):
            runs.append((bound, self))
            return super().extend(int_generators, bound)

    monkeypatch.setattr(control, "_LieEngine", Recorded)
    return runs


def _star(leaves):
    return graph(leaves + 1, [(1, v) for v in range(2, leaves + 2)])


class TestKrylovCertificate:
    """A deficient closure stops once the hub rows reach rank r - 1 (lemma 1, ``_LieEngine``).

    r is the walk rank; the dimension is then r^2 + delta, with delta = 1
    exactly when some column of A lies outside the Krylov space of the
    controls.  The decisions run one exact closure toward it, which runs
    to its fixpoint when the hub rows stay short (``_dimensions``).
    """

    # the oracle takes about 0.8 s on a median side-6 instance, up to 5 s
    @settings(max_examples=15, deadline=None)
    @given(_sparse_symmetric())
    def test_matches_oracle_at_every_prime(self, inst):
        entries, s = inst
        want = oracles.control_lie_dim_bruteforce(entries, s)
        a = pattern_matrix(entries)
        n = a.n
        walk = []
        for j in s:
            v = oracles.basis_vec(j, n)
            for _ in range(n):
                walk.append(v)
                v = oracles.mat_vec(entries, v)
        r = oracles.frac_rank(walk)
        # delta: some column of A (a row, A being symmetric) lies outside K
        delta = int(oracles.frac_rank(walk + entries) > r)
        assert want <= r * r + delta
        # the prime reaches the walk, which the Lie bound and the first-walk
        # rule read, and nothing of the closure
        for p in (control._PRIME, 2, 3, 5):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(control, "_PRIME", p)
                runs = _lie_engines(mp)
                assert lie_controllable(a, s) == (want == n * n, want), f"prime {p}"
                decided = len(runs)
                rep = analyze(a, s)
            assert (rep.walk_rank, rep.lie_dim) == (r, want), f"prime {p}"
            # at most one exact engine per decision, the same for both
            assert decided <= 1 and len(runs) == 2 * decided
            for bound, engine in runs:
                assert bound == r * r + delta
                # every hub is a control vertex, or A itself when A is a
                # multiple of a projector (``_LieEngine``)
                assert engine.hub is None or engine.hub + 1 in s or engine.gens[0] == engine.hub
            if want < r * r + delta:
                # no hub-row rank proves such a closure: it runs to its fixpoint
                assert decided == 1 and all(engine.dim == want for _, engine in runs)

    # (graph, kind, S, walk rank r, delta, whether the walk of the first
    # control vertex alone has rank r): each certified by its hub rows
    @pytest.mark.parametrize("g, kind, s, r, delta, first_spans", [
        (cycle_graph(16), "adjacency", (1,), 9, 1, True),
        (cycle_graph(16), "adjacency", (1, 5), 13, 1, False),
        (complete_graph(16), "adjacency", (1,), 2, 1, True),
        (_star(4), "adjacency", (1,), 2, 0, True),
        # vertex 4 lies in the Krylov space of vertex 1, which the closure
        # from {1} already certifies: the projector E_44 adds nothing
        (cycle_graph(6), "adjacency", (1, 4), 4, 1, True),
    ], ids=["C16-1", "C16-15", "K16-1", "star-centre", "C6-14"])
    def test_certified_pins(self, monkeypatch, g, kind, s, r, delta, first_spans):
        a = build_matrix(g, kind)
        runs = _lie_engines(monkeypatch)
        assert lie_controllable(a, s) == (False, r * r + delta)
        if first_spans:
            # the first vertex's walk is the certificate: the decisions build
            # no engine (``_dimensions``), and the engine run on the same
            # generators and bound certifies the same dimension
            assert runs == []
            engine = _control_engine(a, s, r * r + delta)
            assert engine.dim == r * r + delta
        else:
            [(bound, engine)] = runs
            assert bound == r * r + delta
        assert engine.hub + 1 == s[0] and engine.hub_rows.dim == r - 1
        assert _certified(engine)
        rep = analyze(a, s)
        assert (rep.walk_rank, rep.p_span_dim, rep.lie_dim) == (r, r * r, r * r + delta)
        assert len(runs) == (0 if first_spans else 2)
        if g.order <= 6:
            assert r * r + delta == oracles.control_lie_dim_bruteforce(
                [list(row) for row in a.matrix.entries], s)

    def test_example_c_falls_back_to_its_exact_closure(self, monkeypatch):
        # the walk of the two blocks is full, yet the closure is gl(2) + gl(2)
        runs = _lie_engines(monkeypatch)
        assert lie_controllable(pattern_matrix(BLOCK_PAIRED), (1, 3)) == (False, 8)
        [(bound, engine)] = runs
        assert bound == 16 and engine.hub_rows.dim < 3
        assert engine.dim == len(engine.elems) == 8

    def test_example_b_falls_back_to_its_exact_closure(self, monkeypatch):
        # a connected mixed-sign pattern whose walk is full: its hub rows
        # stop short of rank 3, so the closure runs to its fixpoint, 8 < 16
        a = pattern_matrix(MIXED_CYCLE)
        runs = _lie_engines(monkeypatch)
        assert lie_controllable(a, (1, 3)) == (False, 8)
        [(bound, engine)] = runs
        assert bound == 16 and engine.hub_rows.dim < 3
        assert engine.dim == len(engine.elems) == 8
        assert oracles.control_lie_dim_bruteforce(MIXED_CYCLE, (1, 3)) == 8


# two paths, on vertices 1..4 and 5..7: from {1, 5} the walk is full and the
# closure is gl(4) + gl(3), while the walk of vertex 1 stays on the first
TWO_PATHS = [[int(x) for x in row] for row in build_matrix(
    graph(7, [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7)]), "random:7").matrix.entries]


class TestHubWalk:
    """The hub's walk A^2 e_j, A^3 e_j, ..., entry j dropped, stepped by ``_LieEngine._offer``.

    With u_k = A^k e_j, the element X_k of the chain X_0 = [E_jj, A],
    X_{k+1} = [A, X_k] has row j equal to +-u_{k+1} plus a combination of
    u_0 ... u_k, so with entry j dropped the hub rows of X_0 ... X_k span
    what u_1 ... u_{k+1} span.  The walk feeds those rows and brackets
    nothing, and stops at the certifying rank, a zero power or a row that does
    not grow the hub rows; one that stalls leaves the closure to the queue,
    which runs to the oracle's fixpoint with every (generator, element)
    pair bracketed once.
    """

    @staticmethod
    def _walks(mp):
        """The rows each hub walk draws, entry j dropped, one list per walk started.

        A hub walk is a ``control._walk`` that ``_offer`` draws from; it
        skips e_j and A e_j, so its rows start at A^2 e_j.
        """
        walks = []
        real = control._walk
        offer = _LieEngine._offer.__code__

        def record(powers, j, rows, n):
            for k, u in enumerate(powers):
                if k >= 2:
                    rows.append(u[:j] + u[j + 1:])
                    # n - 2 rows that grow and one that does not, at most
                    assert len(rows) < n, "runaway walk"
                yield u

        def recording(a, j, modulus=None):
            powers = real(a, j, modulus)
            if sys._getframe(1).f_code is not offer:
                return powers
            walks.append([])
            return record(powers, j, walks[-1], len(a))

        mp.setattr(control, "_walk", recording)
        return walks

    @staticmethod
    def _assert_stops(entries, j, walked):
        """Check a hub walk's stop rules; return A's hub row, then every walked row.

        Every walked row but the last grew the hub rows, none was drawn once
        they had the certifying rank n - 1, and the walk stopped there, at a row
        that did not grow them, or at a zero power A^k e_j (k = n is past
        the walk).
        """
        n = len(entries)
        rows = [[x for c, x in enumerate(entries[j]) if c != j]] + [list(r) for r in walked]
        ranks = [oracles.frac_rank(rows[:k + 1]) for k in range(len(rows))]
        assert all(ranks[k - 1] < ranks[k] for k in range(1, len(rows) - 1))
        assert all(rank < n - 1 for rank in ranks[:-1])
        k, u = len(rows) + 1, [int(c == j) for c in range(n)]
        for _ in range(k):
            u = [sum(x * y for x, y in zip(row, u)) for row in entries]
        stalled = len(rows) > 1 and ranks[-1] == ranks[-2]
        assert ranks[-1] == n - 1 or stalled or k >= n or not any(u)
        return rows

    @staticmethod
    def _brackets(monkeypatch, limit):
        # fail past the limit instead of running away
        calls = []
        real = _LieEngine._bracket

        def counting(self, g, elem):
            calls.append(g)
            assert len(calls) <= limit, "runaway closure"
            return real(self, g, elem)

        monkeypatch.setattr(_LieEngine, "_bracket", counting)
        return calls

    @settings(max_examples=40, deadline=None)
    @given(_sparse_symmetric())
    def test_walk_spans_the_chain_hub_rows(self, inst):
        entries, s = inst
        n, j = len(entries), s[0] - 1
        e_jj = control._projector_rows(n, j)
        with pytest.MonkeyPatch.context() as mp:
            walks = self._walks(mp)
            engine = _LieEngine(n)
            engine.extend([tuple(map(tuple, entries)), e_jj], n * n)
        # a walk starts once E_jj becomes the hub with A in: not when A is
        # zero or a multiple of a projector, which is the hub itself
        assert len(walks) == (engine.hub == j and len(engine.gens) == 2)
        if not walks:
            return
        [walked] = walks
        rows = self._assert_stops(entries, j, walked)
        x = oracles.mat_sub(oracles.mat_mul(e_jj, entries), oracles.mat_mul(entries, e_jj))
        chain = []
        for k in range(n + 1):
            chain.append([int(v) for c, v in enumerate(x[j]) if c != j])
            prefix = rows[:k + 1]
            ranks = [oracles.frac_rank(part) for part in (chain, prefix, chain + prefix)]
            assert ranks[0] == ranks[1] == ranks[2], (k, ranks)
            x = oracles.mat_sub(oracles.mat_mul(entries, x), oracles.mat_mul(x, entries))

    @pytest.mark.parametrize("entries, s", [(MIXED_CYCLE, (1, 3)), (TWO_PATHS, (1, 5))],
                             ids=["example-b", "two-paths-15"])
    def test_stalled_walk_leaves_the_closure_to_the_queue(self, monkeypatch, entries, s):
        want = oracles.control_lie_dim_bruteforce(entries, s)
        a = pattern_matrix(entries)
        n = a.n
        walks = self._walks(monkeypatch)
        brackets = self._brackets(monkeypatch, n ** 4)
        engine = _control_engine(a, s)
        assert len(walks) == 1
        self._assert_stops(entries, s[0] - 1, walks[0])
        assert engine.hub == s[0] - 1 and engine.hub_rows.dim < n - 1
        assert engine.dim == len(engine.elems) == want
        # each generator with those before it, each other element with every generator
        g, e = len(engine.gens), len(engine.elems)
        assert len(brackets) == g * (g - 1) // 2 + g * (e - g)
        assert lie_controllable(a, s) == (False, want)
        assert analyze(a, s).lie_dim == want

    def test_zero_hub_row_walks_nothing(self, monkeypatch):
        # vertex 3 of the path 1-2 plus an isolated vertex: row 3 of A is
        # zero, so A^2 e_3 is zero and the walk yields no row
        a = pattern_matrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        walks = self._walks(monkeypatch)
        brackets = self._brackets(monkeypatch, 100)
        engine = _control_engine(a, (3,))
        assert engine.dim == len(engine.elems) == 2
        assert engine.hub == 2 and engine.hub_rows.dim == 0
        assert walks == [[]]
        # [E_33, A], bracketed once by the closure
        assert len(brackets) == 1
        assert oracles.control_lie_dim_bruteforce([[0, 1, 0], [1, 0, 0], [0, 0, 0]], (3,)) == 2

    def test_walk_stops_at_the_certifying_rank(self, monkeypatch):
        # P4 with B = E_14 + E_41 offered before E_11: the hub rows of A and
        # B are (1, 0, 0) and (0, 0, 1), and A^2 e_1 = e_1 + e_3 gives
        # (0, 1, 0), rank 3 = n - 1; the walk stops there, before A^3 e_1
        a = _int_matrix(adjacency_matrix(path_graph(4)))
        b = ((0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0))
        gens = [a, b, control._projector_rows(4, 0)]
        walks = self._walks(monkeypatch)
        brackets = self._brackets(monkeypatch, 0)
        engine = _LieEngine(4)
        assert engine.extend(gens, 16) == 16 == len(oracles.lie_basis_bruteforce(gens))
        assert [[list(row) for row in w] for w in walks] == [[[0, 1, 0]]]
        assert engine.hub == 0 and engine.hub_rows.dim == 3 and len(engine.elems) == 3
        assert not brackets

    def test_walk_starts_from_the_hub(self, monkeypatch):
        # vertex 1 is isolated and the path 2-3-4-5 is controlled from 2:
        # the walk is full, the closure gl(1) + gl(4) has dimension 17, and
        # the hub's walk from vertex 1 yields one zero row.  Vertex 2's walk
        # would fill row 1's hub rows and certify 25.
        a = build_matrix(graph(5, [(2, 3), (3, 4), (4, 5)]), "random:7")
        walks = self._walks(monkeypatch)
        assert lie_controllable(a, (1, 2)) == (False, 17)
        assert [[list(row) for row in w] for w in walks] == [[[0] * 4]]
        rep = analyze(a, (1, 2))
        assert (rep.walk_rank, rep.lie_dim) == (5, 17)
        assert oracles.control_lie_dim_bruteforce([list(r) for r in a.matrix.entries], (1, 2)) == 17


class TestFirstVertexWalk:
    """A one-shot Lie dimension read off the first control vertex's walk (``_dimensions``).

    When the walk of the first control vertex alone has the rank r of the
    whole walk, its powers are the hub rows of lemma 1, so the dimension
    is r^2 + delta and no engine is built; otherwise the engine runs.
    """

    # (A, S, prime, Lie dimension, whether the rule fires)
    @pytest.mark.parametrize("a, s, prime, want, fires", [
        # the first walk is short of K: a rule that fired anyway would read
        # r^2 + delta, 49 for the two paths and 16 for example b
        (pattern_matrix(TWO_PATHS), (1, 5), None, 25, False),
        (pattern_matrix(MIXED_CYCLE), (1, 3), None, 8, False),
        (adjacency_matrix(cycle_graph(16)), (1, 5), None, 170, False),
        # delta = 1, which a rule with delta 0 would drop
        (adjacency_matrix(cycle_graph(6)), (1, 4), None, 17, True),
        # delta = 0; modulo 2 A e_1 is e_1, so the walk is short there, but
        # the exact walk of vertex 1 is full
        (pattern_matrix([[1, 2], [2, 1]]), (1,), 2, 4, True),
    ], ids=["two-paths-15", "example-b", "C16-15", "C6-14", "2x2-mod-2"])
    def test_rule_pins(self, monkeypatch, a, s, prime, want, fires):
        if prime is not None:
            monkeypatch.setattr(control, "_PRIME", prime)
        runs = _lie_engines(monkeypatch)
        assert lie_controllable(a, s) == (want == a.n ** 2, want)
        assert analyze(a, s).lie_dim == want
        assert (runs == []) == fires


@st.composite
def _bracket_generator(draw):
    """(n, g): a symmetric integer g of side 1..6, including the sparse shapes the engine meets.

    Shapes: a projector e_j e_j^T, a diagonal matrix with no entry 1 (so
    not a projector), a symmetric matrix with some rows (and so columns)
    zero, and any symmetric matrix.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    shape = draw(st.sampled_from(["projector", "diagonal", "zero rows", "any"]))
    if shape == "projector":
        j = draw(st.integers(min_value=0, max_value=n - 1))
        return n, tuple(tuple(int(r == c == j) for c in range(n)) for r in range(n))
    g = [[0] * n for _ in range(n)]
    if shape == "diagonal":
        for i in range(n):
            g[i][i] = draw(st.sampled_from([-3, -1, 0, 2, 5]))
        return n, tuple(map(tuple, g))
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(st.integers(min_value=-4, max_value=4))
    if shape == "zero rows":
        for r in draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, unique=True)):
            for c in range(n):
                g[r][c] = g[c][r] = 0
    return n, tuple(map(tuple, g))


def _packed(x, parity):
    return tuple(x[i][j] for i, j in _packing(len(x), parity))


def _unpacked(n, parity, packed):
    """The full matrix of a packed element: x at (i, j) and +-x at (j, i)."""
    x = [[0] * n for _ in range(n)]
    for (i, j), v in zip(_packing(n, parity), packed):
        x[i][j], x[j][i] = v, (1 - 2 * parity) * v
    return x


def _units(n):
    """Every packed unit of both parities, as (parity, packed) elements."""
    for parity in (0, 1):
        size = len(_packing(n, parity))
        for k in range(size):
            yield parity, tuple(int(t == k) for t in range(size))


def _assert_brackets(n, g, elements):
    """``_bracket`` of g's stored form on each element is the Fraction commutator [g, X].

    g goes through an engine of its own, so the form is the one ``extend``
    stores: a projector e_j e_j^T (one nonzero entry, on the diagonal) as
    j, then bracketed as E_jj, and any other nonzero g as its sparse rows.
    """
    engine = _LieEngine(n)
    engine.extend([g], n * n)
    if not any(map(any, g)):
        assert engine.gens == []
        return
    (form,) = engine.gens
    if type(form) is int:
        assert [(r, c) for r in range(n) for c in range(n) if g[r][c]] == [(form, form)]
        g = control._projector_rows(n, form)
    else:
        assert form == [[(c, v) for c, v in enumerate(row) if v] for row in g]
    for parity, packed in elements:
        x = _unpacked(n, parity, packed)
        want = _packed(oracles.mat_sub(oracles.mat_mul(g, x), oracles.mat_mul(x, g)), 1 - parity)
        assert engine._bracket(form, (parity, packed)) == (list(want) if any(want) else None)


class TestBracket:
    """[g, .] on packed coordinates, as ``_LieEngine._bracket`` builds it.

    The reference is the commutator gX - Xg in ``oracles``' Fraction
    arithmetic.  At n = 1 the skew packing is empty, so both parities are
    checked on their degenerate sides too.
    """

    @settings(max_examples=120, deadline=None)
    @given(_bracket_generator())
    def test_unit_brackets_are_packed_commutators(self, case):
        n, g = case
        _assert_brackets(n, g, _units(n))

    # the dense form, sparse forms and every projector, not only a hub's
    @pytest.mark.parametrize("n", range(1, 8))
    def test_seeded_unit_brackets_are_packed_commutators(self, n):
        rng = random.Random(n)
        gens = [control._projector_rows(n, k) for k in range(n)]
        for values in [(1, -2, 3, 7, -9)] + [(0, 0, 1, -2, 3, 7)] * 6:
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = rng.choice(values)
            gens.append(tuple(map(tuple, g)))
        elements = list(_units(n))
        for parity in (0, 1):
            size = len(_packing(n, parity))
            elements += [(parity, tuple(rng.randint(-5, 5) for _ in range(size))) for _ in range(3)]
        for g in gens:
            _assert_brackets(n, g, elements)

    @settings(max_examples=120, deadline=None)
    @given(_bracket_generator(), st.integers(min_value=0, max_value=1), st.data())
    def test_bracket_is_the_packed_commutator(self, case, parity, data):
        n, g = case
        size = len(_packing(n, parity))
        packed = tuple(data.draw(st.lists(st.integers(min_value=-5, max_value=5), min_size=size, max_size=size)))
        _assert_brackets(n, g, [(parity, packed)])


class TestLieControllable:
    def test_examples(self):
        a = adjacency_matrix(path_graph(4))
        assert lie_controllable(a, [2]) == (True, 16)
        m = pattern_matrix(MIXED_CYCLE)
        assert lie_controllable(m, [1, 3]) == (False, 8)
        b = pattern_matrix(BLOCK_PAIRED)
        assert lie_controllable(b, [1, 3]) == (False, 8)
        d = pattern_matrix([[1, 0], [0, 2]])
        assert lie_controllable(d, [1]) == (False, 2)

    def test_empty_set_rejected(self):
        a = adjacency_matrix(path_graph(3))
        with pytest.raises(ValueError):
            lie_controllable(a, [])

    def test_exact_fallback_builds_no_basis_and_matches_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("lie_closure built a basis only to read its dimension")

        monkeypatch.setattr(control, "lie_closure", refuse)
        cases = [
            (pattern_matrix(MIXED_CYCLE), (1, 3)),
            (pattern_matrix(BLOCK_PAIRED), (1, 3)),
            (adjacency_matrix(cycle_graph(4)), (1,)),
            (adjacency_matrix(complete_graph(4)), (2,)),
            (laplacian_matrix(cycle_graph(4)), (1, 3)),
            (pattern_matrix([[1, 0], [0, 2]]), (1,)),
        ]
        for a, s in cases:
            want = oracles.control_lie_dim_bruteforce([list(r) for r in a.matrix.entries], s)
            assert want < a.n * a.n
            assert lie_controllable(a, s) == (False, want)

    def test_exact_fallback_past_the_default_cap_warns(self, monkeypatch):
        # every closure built past the default cap warns, and a decision
        # that reads its dimension off the first vertex's walk builds none
        monkeypatch.setenv("NETCTRL_MAX_ORDER", "20")
        edges = [(v, v + 1) for v in range(1, 8)] + [(v, v + 1) for v in range(9, 17)]
        k17 = control_generators(build_matrix(complete_graph(17), "random:7"), (1,))
        cases = [
            # two paths of 8 and 9 vertices, one control on each: the walk is
            # full, but the closure is gl(8) + gl(9), so the hub rows stop at
            # rank 7 < 16 and the closure runs to its fixpoint
            (lambda: lie_controllable(build_matrix(graph(17, edges), "random:7"), (1, 9)),
             (False, 8 * 8 + 9 * 9), [289]),
            # the walk of vertex 1 of cycle-20 is short, that of {1, 2} full
            (lambda: lie_controllable(adjacency_matrix(cycle_graph(20)), (1, 2)), (True, 400), [400]),
            (lambda: lie_closure(k17, max_order=17)[0], 289, [289]),
            # the first vertex's walk is full: no closure, no warning
            (lambda: lie_controllable(build_matrix(path_graph(20), "random:7"), (1,)), (True, 400), []),
            (lambda: lie_controllable(build_matrix(cycle_graph(20), "random:3"), (1, 11)), (True, 400), []),
        ]
        for call, want, bounds in cases:
            with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                runs = _lie_engines(mp)
                assert call() == want
            assert [bound for bound, _ in runs] == bounds
            assert [w.category for w in caught] == [UserWarning] * len(bounds), want

    def test_order_cap_holds_on_the_modular_route(self, monkeypatch):
        # the path is controllable, so its first vertex's walk alone would
        # certify the closure
        monkeypatch.delenv("NETCTRL_MAX_ORDER", raising=False)
        with pytest.raises(ValueError, match="exceeds the Lie-closure cap 16"):
            lie_controllable(adjacency_matrix(path_graph(17)), [1])


class TestAnalyze:
    @pytest.mark.parametrize("family", [path_graph, cycle_graph])
    def test_order_20_runs_the_modular_kernel_at_ambient_400(self, monkeypatch, family):
        # past the bench's orders: a banded path and a cycle, full in every part
        monkeypatch.setenv("NETCTRL_MAX_ORDER", "20")
        rep = analyze(build_matrix(family(20), "random:7"), [1])
        assert (rep.walk_rank, rep.p_span_dim, rep.lie_dim) == (20, 400, 400)

    def test_path_controllable_instance(self):
        a = adjacency_matrix(path_graph(4))
        rep = analyze(a, [1])
        assert rep.n == 4
        assert rep.control_set == (1,)
        assert rep.walk_rank == 4
        assert rep.kalman_controllable
        assert rep.p_span_dim == 16
        assert rep.lie_dim == 16
        assert rep.lie_controllable
        assert rep.zfs_status
        assert rep.hypotheses == {"connected": True, "same_sign": True}
        assert {c["check"]: c["status"] for c in rep.consistency} == {
            "kalman_iff_lie": CHECK_PASSED,
            "zfs_implies_lie": CHECK_PASSED,
            "span_dimension_identity": CHECK_PASSED,
        }
        assert rep.theorem_violations == ()

    def test_one_neighbour_map_per_call(self, monkeypatch):
        # is_zfs builds the pattern's neighbour map, and the connectivity
        # hypothesis joins components over the edge list without one
        built = []
        build = graphs.neighbours
        for module in (graphs, forcing):
            monkeypatch.setattr(module, "neighbours", lambda g: built.append(g) or build(g))
        for a, s in ((adjacency_matrix(path_graph(4)), [1]), (pattern_matrix(BLOCK_PAIRED), [1, 3])):
            built.clear()
            rep = analyze(a, s)
            assert built == [a.pattern]
            assert rep.hypotheses["connected"] == (a.pattern == path_graph(4))

    def test_path_interior_vertex_not_forcing(self):
        a = adjacency_matrix(path_graph(4))
        rep = analyze(a, [2])
        assert rep.kalman_controllable and rep.lie_controllable
        assert not rep.zfs_status
        status = {c["check"]: c["status"] for c in rep.consistency}
        assert status["zfs_implies_lie"] == CHECK_PASSED

    def test_mixed_sign_checks_are_skipped(self):
        rep = analyze(pattern_matrix(MIXED_CYCLE), [1, 3])
        assert rep.hypotheses == {"connected": True, "same_sign": False}
        status = {c["check"]: c["status"] for c in rep.consistency}
        assert status["kalman_iff_lie"] == CHECK_SKIPPED
        assert status["zfs_implies_lie"] == CHECK_SKIPPED
        assert status["span_dimension_identity"] == CHECK_PASSED
        skipped = [c for c in rep.consistency if c["status"] == CHECK_SKIPPED]
        for c in skipped:
            assert c["detail"] == (
                "requires a connected pattern with same-sign off-diagonal entries"
            )
        # the genuine counterexample: kalman holds, lie fails, no violation
        assert rep.kalman_controllable and not rep.lie_controllable
        assert rep.theorem_violations == ()

    def test_disconnected_checks_are_skipped(self):
        rep = analyze(pattern_matrix(BLOCK_PAIRED), [1, 3])
        assert rep.hypotheses["connected"] is False
        status = {c["check"]: c["status"] for c in rep.consistency}
        assert status["kalman_iff_lie"] == CHECK_SKIPPED
        assert rep.kalman_controllable and not rep.lie_controllable
        assert rep.zfs_status
        assert rep.theorem_violations == ()

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            analyze(adjacency_matrix(path_graph(3)), [])
        # a matrix that is not a PatternMatrix once raised AttributeError
        for call in (analyze, kalman_controllable, p_span_dim, lie_controllable, walk_matrix):
            with pytest.raises(ValueError, match="^expected a PatternMatrix"):
                call([[0, 1], [1, 0]], (1,))

    @pytest.mark.parametrize("label", [1.5, 2.0, True, "1"], ids=repr)
    def test_label_that_is_not_an_int_rejected(self, label):
        # 1.5 once gave walk rank 0 and lie_dim 1, and True a control set (True,)
        a = adjacency_matrix(path_graph(4))
        for call in (analyze, kalman_controllable):
            with pytest.raises(ValueError, match=rf"^vertex label {label!r} is not an int$"):
                call(a, (label,))

    def test_over_cap_order_fails_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("decision started past the order cap")

        monkeypatch.delenv("NETCTRL_MAX_ORDER", raising=False)
        for name in ("kalman_controllable", "p_span_dim", "lie_controllable"):
            monkeypatch.setattr(control, name, refuse)
        with pytest.raises(ValueError, match="exceeds the Lie-closure cap 16"):
            analyze(adjacency_matrix(path_graph(40)), [1])

    def test_decisions_without_a_lie_part_ignore_the_cap(self, monkeypatch):
        # the cap guards the Lie closure alone: the walk and the span run on
        # the path of order 40 with no override set
        monkeypatch.delenv("NETCTRL_MAX_ORDER", raising=False)
        a = adjacency_matrix(path_graph(40))
        assert kalman_controllable(a, [1]) == (True, 40)
        assert p_span_dim(a, [1]) == 1600

    @pytest.mark.parametrize("g, s, most", [(path_graph(4), (2,), 4), (cycle_graph(6), (1,), 12)],
                             ids=["P4", "C6"])
    def test_walk_is_not_rebuilt_per_decision(self, monkeypatch, g, s, most):
        # the walk is one modular pass, which the modular span grows from in
        # the same state, plus one exact pass when deficient (the cycle): 4
        # and 12 inserts, where three separate decisions took 12 and 24
        a = adjacency_matrix(g)
        walk_inserts = []
        real = EchelonBasis.insert

        def counting(basis, values):
            if basis.ambient == a.n:
                walk_inserts.append(basis.modulus)
            return real(basis, values)

        monkeypatch.setattr(EchelonBasis, "insert", counting)
        analyze(a, s)
        assert len(walk_inserts) <= most

    def test_report_dict_round_trip(self):
        rep = analyze(adjacency_matrix(cycle_graph(4)), [1, 2])
        assert report_from_dict(rep.to_dict()) == rep

    def test_malformed_report_images_raise_value_error(self):
        # once KeyError on a missing field and TypeError on a list
        image = analyze(adjacency_matrix(cycle_graph(4)), [1, 2]).to_dict()
        del image["lie_dim"]
        with pytest.raises(ValueError, match="lacks field 'lie_dim'"):
            report_from_dict(image)
        with pytest.raises(ValueError, match="lacks field 'control_set'"):
            report_from_dict({"n": 1})
        with pytest.raises(ValueError, match="expected a dict, got list"):
            report_from_dict([])

    @settings(max_examples=25, deadline=None)
    @given(symmetric_strategy())
    def test_span_identity_always_passes(self, inst):
        a, s = inst
        rep = analyze(a, s)
        status = {c["check"]: c["status"] for c in rep.consistency}
        assert status["span_dimension_identity"] == CHECK_PASSED

    @settings(max_examples=20, deadline=None)
    @given(
        symmetric_strategy(max_side=3),
        st.fractions(min_value="1/5", max_value=5),
        st.booleans(),
    )
    def test_decisions_invariant_under_scaling(self, inst, c, neg):
        a, s = inst
        if neg:
            c = -c
        scaled = pattern_matrix(a.matrix.scale(c))
        assert kalman_controllable(a, s)[1] == kalman_controllable(scaled, s)[1]
        assert p_span_dim(a, s) == p_span_dim(scaled, s)
        assert lie_controllable(a, s)[1] == lie_controllable(scaled, s)[1]


def _echelon_input():
    def build(draw):
        k = draw(st.integers(min_value=1, max_value=5))
        row = st.lists(st.integers(min_value=-6, max_value=6), min_size=k, max_size=k)
        return k, draw(st.lists(row, max_size=7))
    return st.composite(build)()


class TestModularRoute:
    """The decisions with a small prime in place of the working one.

    Small primes make deficient residues common, so both the certified
    route and the exact fallback run; every answer must stay the exact one.
    """

    @settings(max_examples=30, deadline=None)
    @given(symmetric_strategy())
    def test_small_primes_match_oracles(self, inst):
        a, s = inst
        entries = [list(r) for r in a.matrix.entries]
        want = (
            oracles.walk_rank_bruteforce(entries, s),
            oracles.pspan_dim_bruteforce(entries, s),
            oracles.control_lie_dim_bruteforce(entries, s),
        )
        for p in (2, 3, 5):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(control, "_PRIME", p)
                got = (kalman_controllable(a, s)[1], p_span_dim(a, s), lie_controllable(a, s)[1])
            assert got == want, f"prime {p}"

    @staticmethod
    def _spy_on_states(monkeypatch):
        """Every engine state a decision grows, as (modulus, {part: dim})."""
        states = []

        class Spy(control._NodeState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                states.append(self)

        monkeypatch.setattr(control, "_NodeState", Spy)
        # a state keeps no modulus of its own: its walk carries it
        return lambda: [
            (st.walk.modulus,
             {name: getattr(st, name).dim
              for name in ("walk", "pspan", "lie") if getattr(st, name) is not None})
            for st in states
        ]

    def test_walk_rank_deficient_mod_p_falls_back(self, monkeypatch):
        grown = self._spy_on_states(monkeypatch)
        # at the working prime: a path of order 24 whose edge (12, 13) has
        # weight p is cut there modulo p, so the walk from vertex 1 stops at
        # rank 12; exactly it is full, and so is the span.  The packed span
        # beside the modular walk has 144 products; the exact walk alone
        # comes next, and since it is longer (a false short) the exact walk
        # and span are grown once more
        p, n = control._PRIME, 24
        path = [[0] * n for _ in range(n)]
        for v in range(n - 1):
            path[v][v + 1] = path[v + 1][v] = p if v == 11 else 1
        a = pattern_matrix(path)
        assert kalman_controllable(a, [1]) == (True, n)
        assert p_span_dim(a, [1]) == n * n
        assert grown() == [(p, {"walk": 12}), (None, {"walk": n}),
                           (p, {"walk": 12, "pspan": 144}), (None, {"walk": n}),
                           (None, {"walk": n, "pspan": n * n})]
        monkeypatch.setattr(control, "_PRIME", 2)
        # A e_1 = (1, 2) is e_1 modulo 2, yet the walk rank is 2
        a = pattern_matrix([[1, 2], [2, 1]])
        assert kalman_controllable(a, [1]) == (True, 2)
        assert grown()[5:] == [(2, {"walk": 1}), (None, {"walk": 2})]
        assert p_span_dim(a, [1]) == 4
        lie_runs = _lie_engines(monkeypatch)
        assert lie_controllable(a, [1]) == (True, 4)
        # a false short again: the packed span of the rank-1 modular walk
        # proves 1 alone, so the exact span is grown; the Lie part reads
        # the exact walk, where vertex 1 alone has rank 2 = r, so it builds
        # no engine (``_dimensions``)
        assert grown()[7:] == [(2, {"walk": 1, "pspan": 1}), (None, {"walk": 2}),
                               (None, {"walk": 2, "pspan": 4}), (2, {"walk": 1}), (None, {"walk": 2})]
        assert lie_runs == []

    @pytest.mark.parametrize("g, kind, s, modular, exact", [
        (cycle_graph(8), "adjacency", (1,), 25, 0),
        (cycle_graph(6), "random:1", (1, 4), 36, 0),
    ], ids=["C8-short-walk", "C6-random:1-full-walk"])
    def test_packed_span_kept_at_exact_rank(self, monkeypatch, g, kind, s, modular, exact):
        # cycle-8 from one vertex has walk rank 5, modulo the prime and
        # exactly: the 25 packed products prove a span of at least 25, and
        # the walk's products lie in K ⊗ K, of dimension 25, so the packed
        # span is kept and no exact product is formed; a full walk grows
        # all 36 modulo p and no exact one either
        a = build_matrix(g, kind)
        inserts = {None: 0, control._PRIME: 0}
        real = EchelonBasis.insert

        def counting(basis, values):
            if basis.ambient == a.n * a.n:
                inserts[basis.modulus] += 1
            return real(basis, values)

        monkeypatch.setattr(EchelonBasis, "insert", counting)
        rep = analyze(a, s)
        assert inserts == {control._PRIME: modular, None: exact}
        assert rep.p_span_dim == rep.walk_rank ** 2 == modular + exact

    # (packed, exact) span inserts modulo 2, 3 and 5: r_p^2 packed ones
    # beside every modular walk of rank r_p, and r^2 exact ones only after
    # a false short, where the exact rank r is larger
    @pytest.mark.parametrize("g, kind, s, grows", [
        (path_graph(4), "random:3", (1,), [(1, 16), (4, 16), (16, 0)]),
        (cycle_graph(5), "random:3", (1,), [(4, 25), (4, 25), (25, 0)]),
        (cycle_graph(6), "random:1", (1, 4), [(16, 36), (36, 0), (36, 0)]),
        (complete_graph(4), "adjacency", (1, 2), [(9, 0), (9, 0), (9, 0)]),
    ], ids=["P4-random:3", "C5-random:3", "C6-random:1", "K4-12"])
    def test_packed_span_at_small_primes(self, monkeypatch, g, kind, s, grows):
        # P4 and C5 from {1} are full exactly but short modulo 2 and 3, and
        # C6 from {1, 4} modulo 2; K4 from {1, 2} has rank 3 at every prime.
        # Either way the span's dimension is the literal products'
        a = build_matrix(g, kind)
        want = oracles.pspan_dim_bruteforce([[int(x) for x in row] for row in a.matrix.entries], s)
        grown = []
        real = EchelonBasis.insert

        def counting(basis, values):
            row = real(basis, values)
            if basis.ambient == a.n * a.n and row is not None:
                # [packed, exact]: only the exact span has no modulus
                grown[-1][basis.modulus is None] += 1
            return row

        monkeypatch.setattr(EchelonBasis, "insert", counting)
        for p in (2, 3, 5):
            monkeypatch.setattr(control, "_PRIME", p)
            grown.append([0, 0])
            assert p_span_dim(a, s) == want, p
        assert list(map(tuple, grown)) == grows

    @settings(max_examples=40, deadline=None)
    @given(symmetric_strategy(max_side=5), st.sampled_from([control._PRIME, 2, 3, 5]))
    @example((build_matrix(path_graph(4), "random:3"), (1,)), 2)
    def test_packed_span_is_kept_unless_the_walk_was_a_false_short(self, inst, p):
        # p_span_dim and analyze each grow the packed span beside the
        # modular walk, of rank r_p; a short one is followed by the exact
        # walk alone, of rank r, and only a false short (r_p < r) by the
        # exact walk and span, whose r^2 is reported.  P4 random:3 modulo
        # 2 is a false short: a packed span kept there would report 1
        a, s = inst
        entries = [list(r) for r in a.matrix.entries]
        want = oracles.pspan_dim_bruteforce(entries, s)
        r = oracles.walk_rank_bruteforce(entries, s)
        for decide in (p_span_dim, lambda a, s: analyze(a, s).p_span_dim):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(control, "_PRIME", p)
                grown = self._spy_on_states(mp)
                assert decide(a, s) == want == r * r
            r_p = grown()[0][1]["walk"]
            route = [(p, {"walk": r_p, "pspan": r_p * r_p})]
            if r_p < a.n:
                route.append((None, {"walk": r}))
            if r_p < r:
                route.append((None, {"walk": r, "pspan": r * r}))
            assert grown() == route, (p, r_p, r)

    @settings(max_examples=60, deadline=None)
    @given(symmetric_strategy(max_side=5), st.sampled_from([2, 3, 5, control._PRIME]))
    def test_residue_walk_is_the_residue_powers(self, inst, p):
        # the residue walk of vertex j is A^k e_j modulo p, A the cleared
        # integer matrix, from k = 0 up to the first power zero modulo p, n
        # at most
        a, s = inst
        session = _Session(a)
        for j in s:
            want, v = [], [int(i == j - 1) for i in range(a.n)]
            while len(want) < a.n and any(x % p for x in v):
                want.append(tuple(x % p for x in v))
                v = [sum(x * y for x, y in zip(row, v)) for row in session.int_a]
            assert tuple(control._walk(session.int_a, j - 1, p)) == tuple(want), (j, p)

    @pytest.mark.parametrize("p", [control._PRIME, 2, 3, 5])
    def test_residue_walk_stops_at_a_power_zero_modulo_p(self, monkeypatch, p):
        # A e_1 = (p, p) is zero modulo p, so the residue walk from {1} has
        # rank 1, though its primitive form (1, 1) is not; exactly the walk
        # is full, and the decisions are the oracles'
        monkeypatch.setattr(control, "_PRIME", p)
        entries = [[p, p], [p, 1]]
        a = pattern_matrix(entries)
        session = _Session(a)
        assert tuple(control._walk(session.int_a, 0, p)) == ((1, 0),)
        state = control._NodeState(session, p, ("walk",))
        control._extend_state(state, session, 1)
        assert state.walk.dim == 1
        assert kalman_controllable(a, [1]) == (True, 2)
        assert p_span_dim(a, [1]) == 4 == oracles.pspan_dim_bruteforce(entries, [1])
        assert lie_controllable(a, [1]) == (True, 4)
        assert oracles.walk_rank_bruteforce(entries, [1]) == 2
        assert oracles.control_lie_dim_bruteforce(entries, [1]) == 4

    @settings(max_examples=60, deadline=None)
    @given(symmetric_strategy(max_side=5), st.sampled_from([None, 2, 3, control._PRIME]))
    def test_walk_stops_at_its_first_column_in_the_span(self, inst, p):
        # no later column could grow the walk, so it keeps the rows that
        # every column of every control vertex gives
        a, s = inst
        session = _Session(a)
        state = control._NodeState(session, p, ("walk",))
        every = EchelonBasis(a.n, p)
        for j in s:
            control._extend_state(state, session, j)
            for col in control._walk(session.int_a, j - 1, p):
                every.insert(col)
            assert (state.walk.pivots, state.walk.rows) == (every.pivots, every.rows)

    def test_short_walk_makes_one_insert_past_its_rank(self, monkeypatch):
        # K8 adjacency from {1}: e_1 and A e_1 grow the walk and A^2 e_1 does
        # not, both modulo the prime and exactly, so each walk makes 3 inserts
        inserts = {control._PRIME: 0, None: 0}
        real = EchelonBasis.insert

        def counting(basis, values):
            if basis.ambient == 8:
                inserts[basis.modulus] += 1
            return real(basis, values)

        monkeypatch.setattr(EchelonBasis, "insert", counting)
        assert kalman_controllable(adjacency_matrix(complete_graph(8)), [1]) == (False, 2)
        assert inserts == {control._PRIME: 3, None: 3}

    def test_full_residue_walk_builds_no_exact_columns(self, monkeypatch):
        # the walk of K8 random:7 from {1} is full modulo the prime, so the
        # one-shot route steps residue powers alone
        moduli = []
        real = control._walk

        def spying(a, j, modulus=None):
            moduli.append(modulus)
            return real(a, j, modulus)

        monkeypatch.setattr(control, "_walk", spying)
        rep = analyze(build_matrix(complete_graph(8), "random:7"), (1,))
        assert (rep.walk_rank, rep.p_span_dim, rep.lie_dim) == (8, 64, 64)
        assert moduli and None not in moduli

    def test_walk_is_cleared_before_reduction(self, monkeypatch):
        monkeypatch.setattr(control, "_PRIME", 2)
        grown = self._spy_on_states(monkeypatch)
        # A is scaled to [[0, 1], [1, 0]] first, so its walk is full modulo 2
        assert kalman_controllable(pattern_matrix([[0, 2], [2, 0]]), [1]) == (True, 2)
        assert grown() == [(2, {"walk": 2})]

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), _echelon_input())
    def test_modular_echelon_never_exceeds_exact_rank(self, p, case):
        k, rows = case
        exact, modular = EchelonBasis(k), EchelonBasis(k, modulus=p)
        for row in rows:
            exact.insert(row)
            modular.insert(row)
            assert modular.dim <= exact.dim
        assert exact.dim == oracles.frac_rank(rows)
        for c, row in zip(modular.pivots, modular.rows):
            assert row[c] == 1 and not any(row[:c])
            assert all(0 <= x < p for x in row)
        assert modular.pivots == sorted(modular.pivots)


class TestWalkGenerator:
    """``control._walk``, the one loop that steps the powers A^k e_j."""

    @settings(max_examples=80, deadline=None)
    @given(symmetric_strategy(max_side=5), st.fractions(min_value=-3, max_value=3, max_denominator=4),
           st.sampled_from([control._PRIME, 2, 3, 5]))
    def test_yields_the_powers_up_to_the_first_zero_and_n_at_most(self, inst, scale, p):
        a, s = inst
        m = a.matrix.scale(scale)
        entries = [list(row) for row in m.entries]
        int_a = control._int_rows(m)
        n = a.n
        for j in s:
            # exactly: a primitive multiple of each Fraction power A^k e_j
            want, v = [], oracles.basis_vec(j, n)
            while len(want) < n and any(v):
                want.append(v)
                v = oracles.mat_vec(entries, v)
            got = list(control._walk(int_a, j - 1))
            assert len(got) == len(want), j
            for u, w in zip(got, want):
                assert u == primitive(u)
                assert oracles.frac_rank([u, w]) == 1
            # modulo p: the residues of the cleared integer powers
            want, v = [], [int(i == j - 1) for i in range(n)]
            while len(want) < n and any(x % p for x in v):
                want.append(tuple(x % p for x in v))
                v = [sum(x * y for x, y in zip(row, v)) for row in int_a]
            assert list(control._walk(int_a, j - 1, p)) == want, (j, p)

    def test_steps_only_the_powers_the_walk_reads(self, monkeypatch):
        # K8 adjacency from {1} has walk rank 2: e_1, A e_1 and A^2 e_1, in
        # their span, are drawn in each route, so each steps 2 powers, not
        # the 7 of a walk built in full
        drawn = []
        real = control._walk

        def counting(a, j, modulus=None):
            drawn.append([modulus, 0])
            for v in real(a, j, modulus):
                drawn[-1][1] += 1
                yield v

        monkeypatch.setattr(control, "_walk", counting)
        rep = analyze(adjacency_matrix(complete_graph(8)), (1,))
        assert (rep.walk_rank, rep.p_span_dim, rep.lie_dim) == (2, 4, 5)
        assert drawn == [[control._PRIME, 3], [None, 3]]

    def test_zero_matrix_walks_e_j_alone(self):
        # A = 0 is an all-zero integer matrix, which the Lie engine skips
        a = pattern_matrix([[0, 0], [0, 0]])
        int_a = control._int_rows(a.matrix)
        assert int_a == ((0, 0), (0, 0))
        assert [list(control._walk(int_a, 1, p)) for p in (None, 2)] == [[(0, 1)]] * 2
        for s in ((1,), (1, 2)):
            assert lie_controllable(a, s)[1] == oracles.control_lie_dim_bruteforce([[0, 0], [0, 0]], s)
        assert lie_closure([a.matrix])[0] == 0


class TestDistancePowers:
    @settings(max_examples=80, deadline=None)
    @given(_sparse_symmetric())
    def test_matches_fraction_powers_at_bfs_distances(self, inst):
        entries, _ = inst
        a = pattern_matrix(entries)
        n = a.n
        want = []
        for k in range(1, n + 1):
            dist, queue = {k: 0}, [k]
            for u in queue:
                for w in range(1, n + 1):
                    if w != u and entries[u - 1][w - 1] and w not in dist:
                        dist[w] = dist[u] + 1
                        queue.append(w)
            for j in range(k + 1, n + 1):
                if j in dist and mat_pow(a.matrix, dist[j]).entries[k - 1][j - 1] == 0:
                    want.append((k, j, dist[j]))
        assert distance_power_defects(a) == tuple(want)

    def test_connected_same_sign_has_no_defects(self):
        for g in (path_graph(5), cycle_graph(6), complete_graph(4)):
            assert distance_power_defects(adjacency_matrix(g)) == ()
            assert distance_power_defects(laplacian_matrix(g)) == ()
            assert distance_power_defects(random_same_sign_matrix(g, 11)) == ()

    def test_refuses_what_is_not_a_pattern_matrix(self):
        # a nested list once raised AttributeError on .n
        for bad in ([[0, 1], [1, 0]], matrix([[0, 1], [1, 0]])):
            with pytest.raises(ValueError, match=r"^expected a PatternMatrix \(see pattern_matrix\), got "):
                distance_power_defects(bad)

    def test_mixed_signs_can_cancel(self):
        # walks 2-1-4 and 2-3-4 contribute +1 and -1, so (A^2)_{2,4} = 0
        defects = distance_power_defects(pattern_matrix(MIXED_CYCLE))
        assert (2, 4, 2) in defects

    def test_disconnected_pairs_skipped(self):
        assert distance_power_defects(pattern_matrix(BLOCK_PAIRED)) == ()
