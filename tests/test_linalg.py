"""Exact rational matrices, rank, and canonical matrix-space bases."""

import copy
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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
from netctrl import intlinalg
from netctrl.intlinalg import (
    EchelonBasis,
    PackedBasis,
    int_commutator,
    int_mat_mul,
    pack,
    slot_width,
    unpack,
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
        with pytest.raises(ValueError):
            basis_column(0, 3)
        with pytest.raises(ValueError):
            basis_column(4, 3)

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
    """The modular row operations over each row's support against full-length ones."""

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


@st.composite
def _slot_rows(draw):
    """(p, k, rows): slot vectors of length k for a PackedBasis modulo p.

    Entries are any value a slot holds, weighted toward 0, the residues 1
    and p - 1, the largest product (p - 1)^2, nonzero multiples of p, the
    slot's top bit alone and its largest value.  A combination of earlier
    rows is taken modulo p and lifted by p where that still fits, so the
    basis sees vectors already in its span under other slot values.
    """
    p = draw(st.sampled_from([2, 3, 5, _PRIME]))
    top = (1 << slot_width(p)) - 1
    special = {1, p - 1, (p - 1) ** 2, (top + 1) // 2, top} | {m for m in (p, 2 * p, top - top % p) if m <= top}
    entries = st.one_of(st.just(0), st.sampled_from(sorted(special)), st.integers(min_value=0, max_value=top))
    k = draw(st.integers(min_value=1, max_value=9))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        shape = draw(st.sampled_from(["window", "window", "zero", "combination"]))
        if shape == "zero":
            rows.append([0] * k)
        elif shape == "combination" and rows:
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(st.integers(min_value=0, max_value=p - 1)), draw(st.integers(min_value=0, max_value=p - 1))
            mixed = [(a * s + b * t) % p for s, t in zip(x, y)]
            rows.append([r + p if r + p <= top and draw(st.booleans()) else r for r in mixed])
        else:
            lo = draw(st.integers(min_value=0, max_value=k - 1))
            hi = draw(st.integers(min_value=lo + 1, max_value=k))
            rows.append([0] * lo + [draw(entries) for _ in range(lo, hi)] + [0] * (k - hi))
    return p, k, rows


def _monic(slots, p):
    c = next(i for i, x in enumerate(slots) if x)
    inv = pow(slots[c], -1, p)
    return tuple(x * inv % p for x in slots)


class TestPackedBasis:
    """The packed modular kernel against the list kernel and the full-length oracle."""

    # leads collide on slot 0, so the second row takes the row-operation path
    @example(case=(3, 2, [[1, 2], [2, 1], [1, 1]]), copies=[])
    # the lead slot 3 is a multiple of 3, so the first nonzero residue is slot 1
    @example(case=(3, 3, [[3, 1, 0], [0, 6, 7], [0, 0, 1]]), copies=[])
    # the lowest set bit of 16 is its slot's top bit (slot width 5 for p = 5)
    @example(case=(5, 2, [[16, 0], [0, 16], [16, 16]]), copies=[])
    @settings(max_examples=300, deadline=None)
    @given(_slot_rows(), st.lists(st.booleans(), max_size=10))
    def test_packed_kernel_matches_list_kernel(self, case, copies):
        p, k, rows = case
        w = slot_width(p)
        packed, listed, oracle = PackedBasis(k, p), EchelonBasis(k, modulus=p), ModularEchelon(k, p)
        forks = []
        for step, row in enumerate(rows):
            if step < len(copies) and copies[step]:
                # the original must not see what its copy takes in
                forks.append((packed, listed.copy()))
                packed = packed.copy()
            v = pack(row, w)
            member = packed.contains(v)
            added = packed.insert(v)
            want = listed.insert(row)
            assert want == oracle.insert(row)
            assert member == (added is None) == (want is None)
            assert (packed.dim, packed.pivots) == (listed.dim, listed.pivots)
            if added is not None:
                # the residue modulo p is the list kernel's row up to scale
                assert _monic([x % p for x in unpack(added, w, k)], p) == want
        for c, row in zip(packed.pivots, packed.rows):
            slots = unpack(row, w, k)
            assert packed.entry(row, c) and not any(slots[:c])
        for original, listed in forks:
            for row in rows:
                assert (original.insert(pack(row, w)) is None) == (listed.insert(row) is None)
                assert original.pivots == listed.pivots

    def test_each_path_is_taken(self, monkeypatch):
        unpacked = []
        real = intlinalg.unpack
        monkeypatch.setattr(intlinalg, "unpack", lambda *args: unpacked.append(args) or real(*args))
        p = 3
        w = slot_width(p)
        basis = PackedBasis(3, p)
        # distinct leads past every pivot: stored as they come, no slot unpacked
        for row in ([1, 2, 0], [0, 4, 1]):
            assert basis.insert(pack(row, w)) == pack(row, w)
        assert not unpacked and basis.pivots == [0, 1]
        # lead 0 meets pivot 0: (2, 0, 0) - 2 (1, 2, 0) - 2 (0, 1, 1) = (0, 0, 1) mod 3
        assert basis.insert(pack([2, 0, 0], w)) == pack([0, 0, 1], w)
        assert unpacked and basis.pivots == [0, 1, 2]
        # a lead slot 3 = 0 mod 3 and nothing else: the zero vector modulo 3
        fresh = PackedBasis(2, p)
        assert fresh.insert(pack([3, 0], w)) is None and fresh.dim == 0
        assert fresh.insert(pack([6, 2], w)) == pack([0, 2], w) and fresh.pivots == [1]

    @pytest.mark.parametrize("p", [2, 3, 185_363, _PRIME])
    def test_outer_product_slots_do_not_overflow(self, p):
        # every slot holds the largest product (p - 1)^2, whose top bit is the
        # slot's own; modulo 2 that fills the one-bit slot, and 185,363 is the
        # prime below 2 * 10^5 with the least headroom relative to 2^width
        w = slot_width(p)
        assert (p - 1) ** 2 >> (w - 1) == 1
        n = 5
        for r_a, r_b in (([p - 1] * n, [p - 1] * n), ([p - 1, 0, 1, p - 1, 2 % p], [0, p - 1, p - 1, 1, p - 1])):
            product = pack(r_a, n * w) * pack(r_b, w)
            assert unpack(product, w, n * n) == [x * y for x in r_a for y in r_b]
            assert product < 1 << n * n * w
        basis = PackedBasis(n * n, p)
        rows = [[p - 1] * c + [0] * (n - c) for c in range(n, 0, -1)]
        for r_a in rows:
            for r_b in rows:
                assert basis.insert(pack(r_a, n * w) * pack(r_b, w)) is not None
        assert basis.dim == n * n

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
        with pytest.raises(ValueError):
            MatrixSpaceBasis(0)

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
        with pytest.raises(ValueError):
            parse_matrix("x y\n1 2")
        with pytest.raises(ValueError):
            parse_matrix("2 2\n1 2 3")
        with pytest.raises(ValueError):
            parse_matrix("2 2\n1 2 3 oops")
        with pytest.raises(ValueError):
            parse_matrix("0 2\n")
        with pytest.raises(ValueError):
            parse_matrix("1 1\n1/0")

    @settings(max_examples=60)
    @given(matrix_strategy())
    def test_round_trip_property(self, m):
        assert parse_matrix(format_matrix(m)) == m
