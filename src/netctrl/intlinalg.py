"""Integer kernels for exact linear algebra (internal).

All spans and ranks over the rationals are computed here on primitive
integer vectors: scaling a vector by a nonzero rational changes neither
independence nor the subspace it spans, so every incoming vector is cleared
of denominators and divided by its content first.  Elimination is
fraction-free (cross-multiplication), which keeps every intermediate value
an integer; Python integers make it exact at any size.
"""

from __future__ import annotations

import math
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
    """Incremental reduced echelon basis of primitive integer rows.

    Rows are kept fully reduced: every pivot column is zero in every other
    row, pivot columns strictly increase, each row is primitive with a
    positive pivot.  This form is the canonical representative of the row
    span, so two bases are equal iff they span the same subspace.
    """

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: list = []
        self.pivots: list = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def copy(self) -> "EchelonBasis":
        dup = EchelonBasis(self.ambient)
        dup.rows = list(self.rows)
        dup.pivots = list(self.pivots)
        return dup

    def reduce(self, values):
        """Residue of an integer vector modulo the current span.

        Returns a primitive integer tuple, or None when the vector already
        lies in the span.
        """
        v = list(values)
        for c, row in zip(self.pivots, self.rows):
            vc = v[c]
            if vc:
                p = row[c]
                v = [p * a - vc * b for a, b in zip(v, row)]
        return primitive(v)

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
        p_new = v[c_new]
        for i, row in enumerate(self.rows):
            rc = row[c_new]
            if rc:
                self.rows[i] = primitive(p_new * a - rc * b for a, b in zip(row, v))
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < c_new:
            pos += 1
        self.rows.insert(pos, v)
        self.pivots.insert(pos, c_new)
        return True

    def contains(self, values) -> bool:
        return self.reduce(values) is None

    def rational_rows(self) -> tuple:
        """The rows as exact rationals, scaled so every leading entry is 1."""
        out = []
        for c, row in zip(self.pivots, self.rows):
            p = row[c]
            out.append(tuple(Fraction(x, p) for x in row))
        return tuple(out)


def int_rank(rows) -> int:
    """Exact rank over the rationals of a matrix given as integer rows."""
    rows = list(rows)
    if not rows:
        return 0
    basis = EchelonBasis(len(rows[0]))
    for row in rows:
        basis.insert(row)
    return basis.dim


# ---------------------------------------------------------------------------
# Integer matrices as tuples of row tuples
# ---------------------------------------------------------------------------

def int_identity(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def int_mat_mul(a, b) -> tuple:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def int_commutator(a, b) -> tuple:
    ab = int_mat_mul(a, b)
    ba = int_mat_mul(b, a)
    return tuple(tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(ab, ba))


def flatten(m) -> tuple:
    return tuple(x for row in m for x in row)
