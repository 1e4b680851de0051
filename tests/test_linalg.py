"""Exact rational matrices, rank, and canonical matrix-space bases."""

import copy
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netctrl import (
    MatrixSpaceBasis,
    RationalMatrix,
    commutator,
    format_matrix,
    identity,
    mat_mul,
    mat_pow,
    matrix,
    parse_matrix,
    rank,
)
from netctrl.control import _PRIME
from netctrl.intlinalg import (
    EchelonBasis,
    PackedBasis,
    clear_denominators,
    int_commutator,
    int_mat_mul,
    pack,
    slot_width,
)
from netctrl.linalg import basis_column, mat_vec, outer

from .oracles import FractionBasis, ModularEchelon, frac_rank

fraction_entries = st.fractions(min_value=-30, max_value=30, max_denominator=7)


def matrix_strategy(max_side=4, entries=fraction_entries):
    def build(draw):
        r = draw(st.integers(min_value=1, max_value=max_side))
        c = draw(st.integers(min_value=1, max_value=max_side))
        return matrix([[draw(entries) for _ in range(c)] for _ in range(r)])
    return st.composite(build)()


def square_strategy(side=3, entries=fraction_entries):
    def build(draw):
        return matrix([[draw(entries) for _ in range(side)] for _ in range(side)])
    return st.composite(build)()


class TestRationalMatrix:
    def test_construction_and_indexing(self):
        m = matrix([[1, "1/2"], [0, 3]])
        assert m[(0, 1)] == Fraction(1, 2)
        assert m.rows == 2 and m.cols == 2

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            matrix([[1, 2], [3]])
        # rows that are not iterables, or entries Fraction cannot read,
        # once raised TypeError or OverflowError
        for bad in (5, [5], [[None]], [[float("inf")]], [[float("nan")]], [["x"]]):
            with pytest.raises(ValueError):
                matrix(bad)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            matrix([])

    def test_transpose(self):
        m = matrix([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().entries == ((1, 4), (2, 5), (3, 6))

    def test_symmetry(self):
        assert matrix([[0, 1], [1, 0]]).is_symmetric()
        assert not matrix([[0, 1], [2, 0]]).is_symmetric()

    def test_arithmetic(self):
        a = matrix([[1, 2], [3, 4]])
        b = matrix([[0, 1], [1, 0]])
        assert (a + b).entries == ((1, 3), (4, 4))
        assert (a - b).entries == ((1, 1), (2, 4))
        assert a.scale("1/2")[(1, 1)] == Fraction(2)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            matrix([[1]]) + matrix([[1, 2]])
        with pytest.raises(ValueError):
            mat_mul(matrix([[1, 2]]), matrix([[1, 2]]))


class TestProductsAndPowers:
    def test_identity_is_neutral(self):
        a = matrix([[1, 2], [3, 4]])
        assert mat_mul(identity(2), a) == a
        assert mat_mul(a, identity(2)) == a

    def test_zeroth_power_is_identity(self):
        a = matrix([[2, 1], [1, 2]])
        assert mat_pow(a, 0) == identity(2)

    # identity(0) once gave a matrix with no rows, whose .cols raised IndexError
    @pytest.mark.parametrize("order", [0, -1, 1.5, "2", None, True], ids=repr)
    def test_identity_refuses_an_order_that_is_not_an_int_of_at_least_one(self, order):
        with pytest.raises(ValueError, match=rf"^order must be an int >= 1, got {re.escape(repr(order))}$"):
            identity(order)

    # mat_pow(m, True) once returned m, and mat_pow(m, 1.5) raised TypeError
    @pytest.mark.parametrize("power", [-1, 1.5, "2", None, True, False], ids=repr)
    def test_mat_pow_refuses_a_power_that_is_not_an_int_of_at_least_zero(self, power):
        with pytest.raises(ValueError, match=rf"^power must be an int >= 0, got {re.escape(repr(power))}$"):
            mat_pow(matrix([[2, 1], [1, 2]]), power)

    def test_path_adjacency_powers(self):
        # powers of the path-on-4 adjacency matrix applied to e2
        a = matrix([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]])
        e2 = basis_column(2, 4)
        assert mat_vec(a, e2) == (1, 0, 1, 0)
        assert mat_vec(mat_pow(a, 2), e2) == (0, 2, 0, 1)
        assert mat_vec(mat_pow(a, 3), e2) == (2, 0, 3, 0)

    def test_mat_pow_rejects_bad_input(self):
        with pytest.raises(ValueError):
            mat_pow(matrix([[1, 2]]), 2)
        with pytest.raises(ValueError):
            mat_pow(identity(2), -1)

    def test_basis_column_bounds(self):
        assert basis_column(1, 3) == (1, 0, 0)
        for label in (0, 4, 1.0, True, "1"):
            with pytest.raises(ValueError):
                basis_column(label, 3)

    def test_outer(self):
        m = outer((1, 2), (3, 4, 5))
        assert m.entries == ((3, 4, 5), (6, 8, 10))


class TestCommutator:
    def test_elementary_pair(self):
        e12 = outer(basis_column(1, 2), basis_column(2, 2))
        e21 = outer(basis_column(2, 2), basis_column(1, 2))
        got = commutator(e12, e21)
        assert got == matrix([[1, 0], [0, -1]])

    def test_commuting_matrices_vanish(self):
        a = matrix([[1, 0], [0, 2]])
        b = matrix([[3, 0], [0, 4]])
        assert commutator(a, b) == matrix([[0, 0], [0, 0]])

    @settings(max_examples=40)
    @given(square_strategy(), square_strategy())
    def test_antisymmetry(self, x, y):
        assert commutator(x, y) == matrix([[0] * 3] * 3) - commutator(y, x)

    @settings(max_examples=40)
    @given(square_strategy(), square_strategy(), square_strategy())
    def test_bilinearity_in_first_slot(self, x, y, z):
        assert commutator(x + y, z) == commutator(x, z) + commutator(y, z)


def _sym_and_signed_pair():
    """A symmetric integer a, a symmetric or skew b of the same side, b's sign."""
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=4))
        sign = draw(st.sampled_from([1, -1]))
        ent = st.integers(min_value=-9, max_value=9)
        a = [[0] * n for _ in range(n)]
        b = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = draw(ent)
                if i < j or sign > 0:
                    b[i][j] = draw(ent)
                    b[j][i] = sign * b[i][j]
        return tuple(map(tuple, a)), tuple(map(tuple, b)), sign
    return st.composite(build)()


class TestIntegerCommutator:
    @settings(max_examples=60)
    @given(_sym_and_signed_pair())
    def test_one_product_bracket_is_ab_minus_ba(self, case):
        a, b, sign = case
        ab, ba = int_mat_mul(a, b), int_mat_mul(b, a)
        want = tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(ab, ba))
        assert int_commutator(a, b, sign) == want


def _cleared_by_fractions(values):
    """The primitive integer direction of a rational vector, by Fraction arithmetic.

    Dividing by the first nonzero entry makes it 1; scaling by the lcm of
    the denominators then gives integers whose gcd is 1 (a prime dividing
    that lcm has an entry whose denominator it divides as often), with a
    positive leading entry.  A zero vector is integer zeros.
    """
    vec = [Fraction(x) for x in values]
    lead = next((x for x in vec if x), None)
    if lead is None:
        return tuple(int(x) for x in vec)
    vec = [x / lead for x in vec]
    scale = math.lcm(*(x.denominator for x in vec))
    return tuple(int(x * scale) for x in vec)


_rational_entries = st.one_of(
    st.integers(min_value=-10**12, max_value=10**12),
    st.fractions(max_denominator=10**30),
    st.sampled_from([0, Fraction(0), Fraction(-1, 10**40 + 1), Fraction(7, 2**64)]),
)


class TestClearDenominators:
    """``clear_denominators`` against the Fraction reference."""

    @settings(max_examples=300)
    @given(st.lists(_rational_entries, max_size=8))
    def test_matches_the_fraction_reference(self, values):
        assert clear_denominators(values) == _cleared_by_fractions(values)

    @pytest.mark.parametrize("values, want", [
        ([], ()),
        ([0, Fraction(0), 0], (0, 0, 0)),
        ([Fraction(-3, 4), 2, 0], (3, -8, 0)),
        ([0, -6, Fraction(9, 2)], (0, 4, -3)),
        ([Fraction(1, 10**40 + 1), Fraction(1, 3)], (3, 10**40 + 1)),
        ([4, 6, 8], (2, 3, 4)),
    ], ids=["empty", "all-zero", "negative-lead", "zero-then-negative", "large-denominator", "content"])
    def test_examples(self, values, want):
        assert clear_denominators(values) == want == _cleared_by_fractions(values)


class TestExactEchelonBasis:
    """Echelon rows on insert, the canonical reduced form only when read."""

    @settings(max_examples=60)
    @given(
        st.integers(min_value=1, max_value=5).flatmap(lambda k: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=k, max_size=k),
            max_size=7)),
        st.randoms(use_true_random=False),
    )
    def test_rational_rows_match_fraction_oracle_in_any_order(self, rows, rnd):
        if not rows:
            return
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        oracle = FractionBasis(len(rows[0]))
        for row in rows:
            oracle.insert(row)
        basis = EchelonBasis(len(rows[0]))
        for row in shuffled:
            before = list(basis.rows)
            added = basis.insert(row)
            # no older row is rewritten, and the insert returns the one row it adds
            assert all(r in basis.rows for r in before)
            assert [r for r in basis.rows if r not in before] == ([added] if added else [])
        for c, row in zip(basis.pivots, basis.rows):
            assert row[c] > 0 and not any(row[:c])
        assert basis.pivots == sorted(basis.pivots)
        assert basis.rational_rows() == tuple(tuple(r) for r in oracle.rows)


@st.composite
def _sparse_rows(draw):
    """An ambient size and vectors mostly zero: windows with zeros on both
    sides, zero vectors, and combinations of earlier vectors."""
    k = draw(st.integers(min_value=1, max_value=9))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -5, 7, _PRIME + 3, -2 * _PRIME])
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        shape = draw(st.sampled_from(["window", "window", "zero", "combination"]))
        if shape == "zero":
            rows.append([0] * k)
        elif shape == "combination" and rows:
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(st.integers(min_value=-3, max_value=3)), draw(st.integers(min_value=-3, max_value=3))
            rows.append([a * s + b * t for s, t in zip(x, y)])
        else:
            lo = draw(st.integers(min_value=0, max_value=k - 1))
            hi = draw(st.integers(min_value=lo + 1, max_value=k))
            rows.append([0] * lo + [draw(entries) for _ in range(lo, hi)] + [0] * (k - hi))
    return k, rows


class TestModularEchelon:
    """The modular basis, copies included, against the oracle's rows on sparse and banded input."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, _PRIME]), _sparse_rows(), st.lists(st.booleans(), max_size=10))
    def test_support_kernel_matches_full_length_oracle(self, p, case, copies):
        k, rows = case
        basis, oracle = EchelonBasis(k, modulus=p), ModularEchelon(k, p)
        forks = []
        for step, row in enumerate(rows):
            if step < len(copies) and copies[step]:
                # the original must not see what its copy takes in
                forks.append((basis, copy.deepcopy(oracle)))
                basis = basis.copy()
            member = basis.contains(row)
            added = basis.insert(row)
            assert added == oracle.insert(row)
            assert member == (added is None)
            assert (basis.dim, basis.pivots, basis.rows) == (oracle.dim, oracle.pivots, oracle.rows)
        for basis, oracle in forks:
            for row in rows:
                assert basis.insert(row) == oracle.insert(row)


def _slots(v, width, count):
    """The ``count`` slots of a packed int, lowest first."""
    mask = (1 << width) - 1
    return [v >> i * width & mask for i in range(count)]


@st.composite
def _monic_echelon_rows(draw):
    """(p, n, rows): monic residue rows modulo p with ascending pivots, as a walk keeps them."""
    p = draw(st.sampled_from([2, 3, 5, _PRIME]))
    n = draw(st.integers(min_value=1, max_value=6))
    pivots = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1))))
    residues = st.integers(min_value=0, max_value=p - 1)
    return p, n, [[0] * c + [1] + [draw(residues) for _ in range(c + 1, n)] for c in pivots]


class TestPackedBasis:
    """The append-only packed span: leads past the last one grow it, anything else is refused."""

    @settings(max_examples=200, deadline=None)
    @given(_monic_echelon_rows())
    def test_lead_ordered_products_each_grow_once(self, case):
        # the products _extend_state inserts: r_a r_b^T in ascending (c_a, c_b)
        p, n, rows = case
        w = slot_width(p)
        packed, listed = PackedBasis(n * n, p), EchelonBasis(n * n, modulus=p)
        for r_a in rows:
            for r_b in rows:
                product = pack(r_a, n * w) * pack(r_b, w)
                assert packed.insert(product) == product
                assert listed.insert([x * y % p for x in r_a for y in r_b]) is not None
        assert packed.dim == len(rows) ** 2 == listed.dim
        assert packed.pivots == listed.pivots

    @pytest.mark.parametrize("p, first, second", [
        (3, [0, 1, 2], [0, 1, 2]),
        (3, [0, 1, 2], [0, 2, 0]),
        (5, [0, 4, 1], [1, 0, 0]),
        (3, [], [3, 1, 0]),
        (3, [1, 0, 0], [0, 6, 1]),
    ], ids=["repeated-lead", "same-lead", "lead-before-last", "lead-slot-3-mod-3", "lead-slot-6-mod-3"])
    def test_refuses_a_vector_out_of_lead_order(self, p, first, second):
        w = slot_width(p)
        basis = PackedBasis(3, p)
        if first:
            assert basis.insert(pack(first, w)) == pack(first, w)
        with pytest.raises(ValueError, match=r"^a packed vector must lead past slot"):
            basis.insert(pack(second, w))
        assert basis.dim == len(basis.pivots) == (1 if first else 0)

    def test_zero_vector_is_in_the_span(self):
        basis = PackedBasis(2, 3)
        assert basis.insert(0) is None and basis.dim == 0

    @pytest.mark.parametrize("p", [2, 3, 185_363, _PRIME])
    def test_outer_product_slots_do_not_overflow(self, p):
        # every slot holds the largest product (p - 1)^2, whose top bit is the
        # slot's own; modulo 2 that fills the one-bit slot, and 185,363 is the
        # prime below 2 * 10^5 with the least headroom relative to 2^width
        w = slot_width(p)
        assert (p - 1) ** 2 >> (w - 1) == 1
        if p == _PRIME:
            # the working prime is the largest whose residue products fit one
            # 30-bit CPython digit: no prime lies between it and 2^15
            assert w == 30
            assert not [q for q in range(p + 1, (1 << 15) + 1)
                        if all(q % d for d in range(2, math.isqrt(q) + 1))]
        n = 5
        for r_a, r_b in (([p - 1] * n, [p - 1] * n), ([p - 1, 0, 1, p - 1, 2 % p], [0, p - 1, p - 1, 1, p - 1])):
            product = pack(r_a, n * w) * pack(r_b, w)
            assert _slots(product, w, n * n) == [x * y for x in r_a for y in r_b]
            assert product < 1 << n * n * w
        basis = PackedBasis(n * n, p)
        # row c leads at slot c, so the products lead at c_a·n + c_b, in order;
        # modulo 3 each lead slot holds 4, whose lowest set bit is the top bit
        # of its 3-bit slot
        rows = [[0] * c + [p - 1] * (n - c) for c in range(n)]
        for r_a in rows:
            for r_b in rows:
                assert basis.insert(pack(r_a, n * w) * pack(r_b, w)) is not None
        assert basis.dim == n * n

    def test_copy_diverges_from_the_original(self):
        # the leads are the whole state: after a copy each side takes its own
        # next lead, and neither sees the other's
        w = slot_width(5)
        basis = PackedBasis(4, 5)
        basis.insert(pack([1, 2, 0, 0], w))
        dup = basis.copy()
        assert (dup.ambient, dup.modulus, dup.width, dup.pivots) == (4, 5, w, [0])
        assert basis.insert(pack([0, 1, 4, 0], w)) and dup.insert(pack([0, 0, 3, 1], w))
        assert dup.insert(pack([0, 0, 0, 2], w))
        assert (basis.pivots, basis.dim) == ([0, 1], 2)
        assert (dup.pivots, dup.dim) == ([0, 2, 3], 3)

    def test_rejects_a_vector_it_cannot_hold(self):
        basis = PackedBasis(2, 5)
        with pytest.raises(ValueError):
            basis.insert(1 << 2 * slot_width(5))
        with pytest.raises(ValueError):
            basis.insert(-1)


class TestRank:
    def test_spec_values(self):
        assert rank(matrix([[0] * 3] * 3)) == 0
        assert rank(identity(4)) == 4
        assert rank(matrix([[1, 2], [2, 4]])) == 1
        a = matrix([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]])
        assert rank(a) == 4

    @settings(max_examples=80)
    @given(matrix_strategy())
    def test_matches_fraction_oracle(self, m):
        assert rank(m) == frac_rank([list(r) for r in m.entries])

    def test_refuses_what_is_not_a_rational_matrix(self):
        # a nested list once raised AttributeError on .cols
        for bad in ([[1, 2]], ((1, 0), (0, 1)), None):
            with pytest.raises(ValueError, match=r"^expected a RationalMatrix \(see matrix\), got "):
                rank(bad)

    @settings(max_examples=60)
    @given(matrix_strategy())
    def test_transpose_invariant(self, m):
        assert rank(m) == rank(m.transpose())

    @settings(max_examples=40)
    @given(matrix_strategy(), st.fractions(min_value="1/7", max_value=9))
    def test_scaling_invariant(self, m, c):
        assert rank(m.scale(c)) == rank(m)
        assert rank(m.scale(-c)) == rank(m)


class TestMatrixSpaceBasis:
    def test_rejects_bad_side(self):
        # 1.5 once built a basis of ambient 2.25, and True one of side 1
        for side in (0, -1, 1.5, 2.0, True, "2", None):
            with pytest.raises(ValueError, match=r"^matrix side must be an int >= 1"):
                MatrixSpaceBasis(side)

    def test_insert_and_dim(self):
        b = MatrixSpaceBasis(2)
        assert b.insert(matrix([[1, 0], [0, 0]]))
        assert b.insert(matrix([[0, 0], [0, 1]]))
        assert not b.insert(matrix([[2, 0], [0, 3]]))
        assert b.dim == 2
        assert b.dim_ambient == 4

    def test_zero_matrix_never_grows(self):
        b = MatrixSpaceBasis(2)
        assert not b.insert(matrix([[0, 0], [0, 0]]))
        assert b.contains(matrix([[0, 0], [0, 0]]))

    def test_contains_identity_from_diagonal_units(self):
        b = MatrixSpaceBasis(2)
        b.insert(matrix([[1, 0], [0, 0]]))
        b.insert(matrix([[0, 0], [0, 1]]))
        assert b.contains(identity(2))
        assert not b.contains(matrix([[0, 1], [0, 0]]))

    def test_vectors_canonical_form(self):
        b = MatrixSpaceBasis(2)
        b.insert(matrix([[2, 0], [0, 6]]))
        b.insert(matrix([[0, 0], [0, 3]]))
        rows = b.vectors()
        pivots = []
        for row in rows:
            lead = next(i for i, x in enumerate(row) if x != 0)
            assert row[lead] == 1
            pivots.append(lead)
            # pivot column is zero in every other row
            for other in rows:
                if other is not row:
                    assert other[lead] == 0
        assert pivots == sorted(pivots)

    def test_canonical_across_insertion_orders(self):
        mats = [
            matrix([[1, 2], [0, 1]]),
            matrix([[0, 1], [1, 0]]),
            matrix([[1, 3], [1, 1]]),
        ]
        b1 = MatrixSpaceBasis(2)
        b2 = MatrixSpaceBasis(2)
        for m in mats:
            b1.insert(m)
        for m in reversed(mats):
            b2.insert(m)
        assert b1 == b2
        assert b1.vectors() == b2.vectors()

    def test_matrices_reshape(self):
        b = MatrixSpaceBasis(2)
        b.insert(matrix([[0, 5], [0, 0]]))
        (m,) = b.matrices()
        assert m == matrix([[0, 1], [0, 0]])

    def test_shape_check(self):
        b = MatrixSpaceBasis(2)
        with pytest.raises(ValueError):
            b.insert(matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))

    def test_nested_float_entries_are_read_exactly(self):
        # nested input goes through matrix, so 0.5 is 1/2, not int(0.5) = 0
        b = MatrixSpaceBasis(2)
        assert b.insert([[0.5, 0], [0, 0]])
        assert b.dim == 1
        assert b.vectors() == ((1, 0, 0, 0),)

    def test_nested_float_entries_keep_their_direction(self):
        # 1.5 against 1 is the direction (3, 2), not the truncated (1, 1)
        b = MatrixSpaceBasis(2)
        assert b.insert([[1.5, 1], [0, 0]])
        assert b.vectors() == ((1, Fraction(2, 3), 0, 0),)
        assert b.contains([[3, 2], [0, 0]]) and not b.contains([[1, 1], [0, 0]])

    def test_nested_fractional_entry_is_not_in_the_empty_span(self):
        assert not MatrixSpaceBasis(2).contains([[0.3, 0], [0, 0]])

    @pytest.mark.parametrize("bad", [None, "x", float("inf"), float("nan")])
    def test_nested_entry_that_is_not_rational_raises_value_error(self, bad):
        b = MatrixSpaceBasis(2)
        for method in (b.insert, b.contains):
            with pytest.raises(ValueError):
                method([[bad, 0], [0, 0]])
        assert b.dim == 0

    def test_nested_input_of_the_wrong_shape_raises_value_error(self):
        # four entries are not enough: the rows must be two of two
        b = MatrixSpaceBasis(2)
        for bad in ([[1, 2, 3, 4]], [[1, 2, 3], [4]], []):
            with pytest.raises(ValueError):
                b.insert(bad)

    def test_copy_is_independent(self):
        b = MatrixSpaceBasis(2)
        b.insert(matrix([[1, 0], [0, 0]]))
        c = b.copy()
        c.insert(matrix([[0, 1], [0, 0]]))
        assert b.dim == 1 and c.dim == 2

    @settings(max_examples=40)
    @given(st.lists(square_strategy(side=2), min_size=1, max_size=5))
    def test_dim_bounded_and_membership_closed(self, mats):
        b = MatrixSpaceBasis(2)
        for m in mats:
            b.insert(m)
        assert 0 <= b.dim <= 4
        for m in mats:
            assert b.contains(m)
        for m in b.matrices():
            assert b.contains(m)


class TestMatrixText:
    def test_round_trip(self):
        m = matrix([[1, "1/2"], ["-2/3", 0]])
        assert parse_matrix(format_matrix(m)) == m

    def test_parse_example(self):
        m = parse_matrix("2 3\n1 0 1/2\n-1 2 0\n")
        assert m.rows == 2 and m.cols == 3
        assert m[(0, 2)] == Fraction(1, 2)

    def test_malformed_inputs(self):
        with pytest.raises(ValueError):
            parse_matrix("")
        # the header takes ASCII digits only, as every integer the package reads
        for header in ("x y", "+1 1", "1_0 1", "\u0663 1", "1 +1", "1.0 1"):
            with pytest.raises(ValueError, match=r"^malformed header"):
                parse_matrix(header + "\n1")
        with pytest.raises(ValueError):
            parse_matrix("2 2\n1 2 3")
        with pytest.raises(ValueError):
            parse_matrix("2 2\n1 2 3 oops")
        with pytest.raises(ValueError):
            parse_matrix("0 2\n")
        with pytest.raises(ValueError):
            parse_matrix("1 1\n1/0")

    # Fraction() alone took the first six, and built a 3.3-million-bit
    # integer for 1e1000000
    @pytest.mark.parametrize("entry", ["1_0", "\u0661", "0.5", "-2e1", "+1", "1e1000000",
                                       "1/2/3", "1/0", "3/-4", "-"], ids=repr)
    def test_refuses_an_entry_outside_the_grammar(self, entry):
        with pytest.raises(ValueError, match=r"^malformed entry: "):
            parse_matrix(f"1 2\n1 {entry}")

    @settings(max_examples=60)
    @given(matrix_strategy())
    def test_round_trip_property(self, m):
        assert parse_matrix(format_matrix(m)) == m
