"""Integer kernels for exact linear algebra (internal).

All spans and ranks over the rationals are computed here on primitive
integer vectors: scaling a vector by a nonzero rational changes neither
independence nor the subspace it spans, so every incoming vector is cleared
of denominators and divided by its content first.  Elimination is
fraction-free (cross-multiplication), which keeps every intermediate value
an integer; Python integers make it exact at any size.

An echelon basis keeps its rows in echelon form only: an insert reduces the
new vector against the stored rows and never rewrites them.  Dimensions,
membership and the residue an insert adds need nothing more; the canonical
reduced form is computed on demand, where it is read.

An echelon basis can also run modulo a prime.  For integer vectors the rank
modulo p is at most the rank over the rationals, so a full rank found
modulo p proves full rank over the rationals; a smaller one proves nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from operator import mul


def primitive(values) -> tuple:
    """Divide an integer vector by its content; make the leading entry positive.

    Returns None for the zero vector.
    """
    vec = tuple(values)
    g = math.gcd(*vec)
    if g == 0:
        return None
    if next(filter(None, vec)) < 0:
        g = -g
    if g == 1:
        return vec
    return tuple(x // g for x in vec)


def clear_denominators(values) -> tuple:
    """Scale a rational vector to a primitive integer vector (None if zero)."""
    vec = list(values)
    scale = 1
    for x in vec:
        d = getattr(x, "denominator", 1)
        if d != 1:
            scale = scale * d // math.gcd(scale, d)
    return primitive(int(x * scale) if scale != 1 else int(x) for x in vec)


class EchelonBasis:
    """Incremental echelon basis of integer rows, exact or modulo a prime.

    Rows are stored in ascending pivot order, each zero left of its pivot.
    An insert stores the reduced residue of the new vector in its place
    without back-substituting it into the older rows: every reading on the
    hot path
    (``dim``, ``reduce``, ``contains`` and the row an insert adds) needs
    the echelon form only.

    Exact (``modulus`` None): each row is primitive with a positive pivot.
    The residue of a vector is zero on every pivot column, which fixes it
    up to scale, so the row an insert adds is the same whatever form the
    older rows are in.  ``reduced_rows`` and ``rational_rows`` compute the
    canonical reduced form on demand: two bases span the same subspace iff
    those compare equal.

    Modulo a prime p: entries are residues in 0..p-1 and every row is monic
    (its pivot entry is 1).  This mode is read only for its dimension and
    for the rows it adds.  For integer input that dimension is at most the
    exact one: each stored row is the reduction of an integer combination
    of the inserted vectors.
    """

    __slots__ = ("ambient", "rows", "pivots", "modulus")

    def __init__(self, ambient: int, modulus=None):
        self.ambient = ambient
        self.modulus = modulus
        self.rows: list = []
        self.pivots: list = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def copy(self) -> "EchelonBasis":
        dup = EchelonBasis(self.ambient, self.modulus)
        dup.rows = list(self.rows)
        dup.pivots = list(self.pivots)
        return dup

    def reduce(self, values):
        """Residue of an integer vector modulo the current span.

        Returns None when the vector already lies in the span.  Exact: a
        primitive integer tuple.  Modulo p: a list of residues, not yet
        monic; the one ``% p`` pass comes after all row operations, since
        the pivot entries are 1 and only the entry on each pivot is read.
        Pivots ascend and each row is zero left of its pivot, so a pivot
        entry of the vector is final once the rows before it are applied.
        """
        v = list(values)
        p = self.modulus
        if p is None:
            for c, row in zip(self.pivots, self.rows):
                vc = v[c]
                if vc:
                    pc = row[c]
                    v = [pc * a - vc * b for a, b in zip(v, row)]
            return primitive(v)
        for c, row in zip(self.pivots, self.rows):
            vc = v[c] % p
            if vc:
                v = [a - vc * b for a, b in zip(v, row)]
        v = [a % p for a in v]
        return v if any(v) else None

    def insert(self, values) -> bool:
        """Add an integer vector to the span; True iff the dimension grew."""
        if len(values) != self.ambient:
            raise ValueError(f"expected length {self.ambient}, got {len(values)}")
        v = self.reduce(values)
        if v is None:
            return False
        c_new = 0
        while not v[c_new]:
            c_new += 1
        p = self.modulus
        if p is not None:
            inv = pow(v[c_new], -1, p)
            v = tuple(a * inv % p for a in v)
        pos = bisect_left(self.pivots, c_new)
        self.rows.insert(pos, v)
        self.pivots.insert(pos, c_new)
        return True

    def contains(self, values) -> bool:
        return self.reduce(values) is None

    def reduced_rows(self) -> tuple:
        """The canonical form of the span: the fully reduced primitive rows.

        Every pivot column is zero in every other row, pivots ascend and
        each row is primitive with a positive pivot.  Computed from the
        echelon rows by one back-substitution pass, last row first.
        """
        if self.modulus is not None:
            raise ValueError("a basis modulo a prime has no canonical rational form")
        rows = list(self.rows)
        for i in range(len(rows) - 1, 0, -1):
            c, row = self.pivots[i], rows[i]
            pc = row[c]
            for k in range(i):
                rc = rows[k][c]
                if rc:
                    rows[k] = primitive(pc * a - rc * b for a, b in zip(rows[k], row))
        return tuple(rows)

    def rational_rows(self) -> tuple:
        """The canonical rows as exact rationals, scaled so every leading entry is 1."""
        return tuple(
            tuple(Fraction(x, row[c]) for x in row)
            for c, row in zip(self.pivots, self.reduced_rows())
        )


# ---------------------------------------------------------------------------
# Integer matrices as tuples of row tuples
# ---------------------------------------------------------------------------

def int_mat_mul(a, b) -> tuple:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def int_commutator(a, b, sign: int) -> tuple:
    """[a, b] = ab - ba for a symmetric ``a`` and b^T = sign * b.

    ``sign`` is 1 for a symmetric ``b`` and -1 for a skew one.  Then
    ab = (b^T a^T)^T = sign * (ba)^T, so the one product ba gives the
    bracket: [a, b] = sign * (ba)^T - ba.  Returns its integer rows.
    """
    ba = int_mat_mul(b, a)
    if sign > 0:
        return tuple(tuple(x - y for x, y in zip(col, row)) for col, row in zip(zip(*ba), ba))
    return tuple(tuple(-x - y for x, y in zip(col, row)) for col, row in zip(zip(*ba), ba))
