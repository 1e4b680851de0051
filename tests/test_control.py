"""Controllability decisions: walk rank, product span, Lie closure, analyze."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
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
from netctrl import control
from netctrl.control import _LieEngine, _Session, _ad_map, _packing, _span_parts, control_generators
from netctrl.intlinalg import EchelonBasis, int_commutator, primitive
from netctrl.linalg import mat_mul

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

    @settings(max_examples=40, deadline=None)
    @given(symmetric_strategy(max_side=3))
    def test_split_span_matches_literal_products(self, inst):
        a, s = inst
        entries = [list(r) for r in a.matrix.entries]
        session = _Session(a)
        cols = [u for j in s for u in session.columns(j)]
        span = EchelonBasis(a.n * a.n)
        for i, u in enumerate(cols):
            for w in cols[i:]:
                for part in _span_parts(u, w):
                    span.insert(part)
        assert span.dim == oracles.pspan_dim_bruteforce(entries, s)

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

    def test_cap_stops_early(self):
        a = adjacency_matrix(path_graph(4))
        dim, _ = lie_closure(control_generators(a, (2,)), cap=5)
        assert dim == 5

    def test_asymmetric_generator_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            lie_closure([matrix([[0, 1], [1, 0]]), matrix([[0, 1], [0, 0]])])

    def test_no_generators_rejected(self):
        with pytest.raises(ValueError):
            lie_closure([])

    def test_mismatched_sides_rejected(self):
        with pytest.raises(ValueError):
            lie_closure([matrix([[1]]), matrix([[1, 0], [0, 1]])])

    def test_order_cap_raises(self):
        big = [[0] * 13 for _ in range(13)]
        with pytest.raises(ValueError):
            lie_closure([matrix(big)])

    def test_order_past_twelve_warns(self):
        big = [[Fraction(0)] * 13 for _ in range(13)]
        big[0][0] = Fraction(1)
        with pytest.warns(UserWarning):
            dim, _ = lie_closure([matrix(big)], max_order=13)
        assert dim == 1

    def test_env_var_adjusts_cap(self, monkeypatch):
        monkeypatch.setenv("NETCTRL_MAX_ORDER", "2")
        with pytest.raises(ValueError):
            lie_closure([matrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])])
        monkeypatch.setenv("NETCTRL_MAX_ORDER", "13")
        big = [[Fraction(0)] * 13 for _ in range(13)]
        with pytest.warns(UserWarning):
            dim, _ = lie_closure([matrix(big)])
        assert dim == 0

    def test_refusal_names_the_argument_that_set_the_cap(self, monkeypatch):
        monkeypatch.setenv("NETCTRL_MAX_ORDER", "13")
        path3 = matrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        with pytest.raises(ValueError) as exc:
            lie_closure([path3], max_order=2)
        assert str(exc.value) == (
            "order 3 exceeds the Lie-closure cap 2; pass a larger max_order argument to override")

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


def _control_engine(a, s, modulus=None):
    n = a.n
    gens = [tuple(tuple(int(x) for x in row) for row in a.matrix.entries)]
    for j in s:
        gens.append(tuple(tuple(int(r == c == j - 1) for c in range(n)) for r in range(n)))
    engine = _LieEngine(n, modulus)
    engine.extend(gens, n * n)
    return engine


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

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3, 5]), symmetric_strategy())
    def test_modular_never_exceeds_exact(self, p, inst):
        a, s = inst
        exact = _control_engine(a, s)
        modular = _control_engine(a, s, p)
        for part in (0, 1):
            assert modular.bases[part].dim <= exact.bases[part].dim


@st.composite
def _ad_generator(draw):
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


class TestAdMap:
    """ad_g on packed coordinates against the matrix commutator.

    At n = 1 the skew packing is empty, so both parities' maps are checked
    on their degenerate sides too.
    """

    @settings(max_examples=120, deadline=None)
    @given(_ad_generator())
    def test_unit_images_are_packed_commutators(self, case):
        n, g = case
        ad = _ad_map(g, n)
        for parity in (0, 1):
            sign = 1 - 2 * parity
            assert len(ad[parity]) == len(_packing(n, parity))
            for (i, j), image in zip(_packing(n, parity), ad[parity]):
                unit = [[0] * n for _ in range(n)]
                unit[i][j], unit[j][i] = 1, sign
                assert all(v for _, v in image)
                assert len({t for t, _ in image}) == len(image)
                got = [0] * len(_packing(n, 1 - parity))
                for t, v in image:
                    got[t] = v
                assert tuple(got) == _packed(int_commutator(g, unit, sign), 1 - parity)

    @settings(max_examples=120, deadline=None)
    @given(_ad_generator(), st.integers(min_value=0, max_value=1), st.data())
    def test_bracket_is_the_packed_commutator(self, case, parity, data):
        n, g = case
        size = len(_packing(n, parity))
        packed = tuple(data.draw(st.lists(st.integers(min_value=-5, max_value=5), min_size=size, max_size=size)))
        engine = _LieEngine(n)
        want = _packed(int_commutator(g, engine._matrix(parity, packed), 1 - 2 * parity), 1 - parity)
        assert engine._bracket(_ad_map(g, n), (parity, packed)) == primitive(want)


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

    def test_exact_fallback_past_twelve_warns(self, monkeypatch):
        monkeypatch.setenv("NETCTRL_MAX_ORDER", "13")
        with pytest.warns(UserWarning):
            controllable, dim = lie_controllable(adjacency_matrix(complete_graph(13)), [1])
        assert not controllable and dim < 13 * 13

    def test_order_cap_holds_on_the_modular_route(self, monkeypatch):
        # the path is controllable, so the modular closure alone would succeed
        monkeypatch.delenv("NETCTRL_MAX_ORDER", raising=False)
        with pytest.raises(ValueError, match="exceeds the Lie-closure cap 12"):
            lie_controllable(adjacency_matrix(path_graph(13)), [1])


class TestAnalyze:
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

    def test_over_cap_order_fails_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("decision started past the order cap")

        monkeypatch.delenv("NETCTRL_MAX_ORDER", raising=False)
        for name in ("kalman_controllable", "p_span_dim", "lie_controllable"):
            monkeypatch.setattr(control, name, refuse)
        with pytest.raises(ValueError, match="exceeds the Lie-closure cap 12"):
            analyze(adjacency_matrix(path_graph(40)), [1])

    @pytest.mark.parametrize("g, s, most", [(path_graph(4), (2,), 8), (cycle_graph(6), (1,), 12)],
                             ids=["P4", "C6"])
    def test_walk_is_not_rebuilt_per_decision(self, monkeypatch, g, s, most):
        # the walk is one modular pass, plus one exact pass when deficient
        # (the cycle): 4 and 12 inserts, where three separate decisions took
        # 12 and 24
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
        return lambda: [
            (st.modulus, {name: getattr(st, name).dim
                          for name in ("walk", "pspan", "lie") if getattr(st, name) is not None})
            for st in states
        ]

    def test_walk_rank_deficient_mod_p_falls_back(self, monkeypatch):
        monkeypatch.setattr(control, "_PRIME", 2)
        grown = self._spy_on_states(monkeypatch)
        # A e_1 = (1, 2) is e_1 modulo 2, yet the walk rank is 2
        a = pattern_matrix([[1, 2], [2, 1]])
        assert kalman_controllable(a, [1]) == (True, 2)
        assert grown() == [(2, {"walk": 1}), (None, {"walk": 2})]
        # no modular attempt at the span or the closure, which could not be full
        assert p_span_dim(a, [1]) == 4
        assert lie_controllable(a, [1]) == (True, 4)
        assert grown()[2:] == [(2, {"walk": 1}), (None, {"pspan": 4}),
                               (2, {"walk": 1}), (None, {"lie": 4})]

    def test_walk_is_cleared_before_reduction(self, monkeypatch):
        monkeypatch.setattr(control, "_PRIME", 2)
        grown = self._spy_on_states(monkeypatch)
        # A is scaled to [[0, 1], [1, 0]] first, so its walk is full modulo 2
        assert kalman_controllable(pattern_matrix([[0, 2], [2, 0]]), [1]) == (True, 2)
        assert grown() == [(2, {"walk": 2})]

    def test_lie_closure_deficient_mod_p_falls_back(self, monkeypatch):
        entries = [[1, 1], [1, -2]]
        a = pattern_matrix(entries)
        gens = [tuple(map(tuple, entries)), ((1, 0), (0, 0))]
        # modulo 2 the symmetric and skew parts agree off the diagonal: the
        # split closure stops at dimension 3
        assert _LieEngine(2, 2).extend(gens, 4) == 3
        assert oracles.control_lie_dim_bruteforce(entries, (1,)) == 4
        runs = []
        real = control._LieEngine
        monkeypatch.setattr(control, "_LieEngine",
                            lambda side, modulus=None: runs.append(modulus) or real(side, modulus))
        assert lie_controllable(a, [1]) == (True, 4)
        assert runs == [control._PRIME]
        monkeypatch.setattr(control, "_PRIME", 2)
        assert lie_controllable(a, [1]) == (True, 4)
        # one exact closure, the fallback
        assert runs[1:] == [2, None]

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


class TestDistancePowers:
    def test_connected_same_sign_has_no_defects(self):
        for g in (path_graph(5), cycle_graph(6), complete_graph(4)):
            assert distance_power_defects(adjacency_matrix(g)) == ()
            assert distance_power_defects(laplacian_matrix(g)) == ()
            assert distance_power_defects(random_same_sign_matrix(g, 11)) == ()

    def test_mixed_signs_can_cancel(self):
        # walks 2-1-4 and 2-3-4 contribute +1 and -1, so (A^2)_{2,4} = 0
        defects = distance_power_defects(pattern_matrix(MIXED_CYCLE))
        assert (2, 4, 2) in defects

    def test_disconnected_pairs_skipped(self):
        assert distance_power_defects(pattern_matrix(BLOCK_PAIRED)) == ()
