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
Its input may be residues already, which reduce the integer vectors they
stand for: the modular walk (``control._walk`` with a modulus) is made of
residue powers alone, with no exact arithmetic.

``LeadBasis`` holds the product span, whose vectors are outer products of
echelon rows with distinct leads: it keeps only their leads, which prove
the dimension by triangularity, and makes no row operation.  A lead needs
only the vector's support, so each vector goes in as its support mask, one
int with bit i set where entry i is nonzero.  Entry (a, b) of an outer
product r_a r_b^T is r_a[a]·r_b[b], nonzero iff both factors are, over the
integers and modulo a prime alike (a field has no zero divisors), so the
mask of the row-major product is ``support(r_a, n) * support(r_b)``: the
bits a·n + b it sums are distinct, and nothing carries.  The exact and the
modular walk give the span in this one form.
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
    """Scale a rational vector to a primitive integer vector; a zero one stays zero.

    Each entry, an int or a ``Fraction``, is read once as the pair
    ``as_integer_ratio()`` gives, in lowest terms with a positive
    denominator; the entries are scaled by the lcm of the denominators
    with integer arithmetic alone.  A zero vector comes back as integer
    zeros, which lie in every span, so no caller tells it apart.
    """
    pairs = [x.as_integer_ratio() for x in values]
    scale = math.lcm(*[d for _, d in pairs])
    cleared = [num * (scale // d) for num, d in pairs]
    return primitive(cleared) or tuple(cleared)


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
        return len(self.pivots)

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
        if len(v) != self.ambient:
            raise ValueError(f"expected length {self.ambient}, got {len(v)}")
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

    def insert(self, values):
        """Add an integer vector to the span; return the row it adds, or None.

        The row is the residue of the vector modulo the earlier span (monic
        modulo p); None means the vector already lay in the span, so the
        dimension grew iff the result is truthy.
        """
        v = self.reduce(values)
        if v is None:
            return None
        return self._store(v)

    def _store(self, v):
        """Store a nonzero residue in its pivot's place; return the row stored."""
        c_new = 0
        while not v[c_new]:
            c_new += 1
        pos = bisect_left(self.pivots, c_new)
        p = self.modulus
        if p is not None:
            inv = pow(v[c_new], -1, p)
            v = tuple(a * inv % p for a in v)
        self.rows.insert(pos, v)
        self.pivots.insert(pos, c_new)
        return v

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


def support(values, stride: int = 1) -> int:
    """The support mask of a vector: bit i·stride set for each nonzero entry i."""
    return sum(1 << i * stride for i, x in enumerate(values) if x)


class LeadBasis(EchelonBasis):
    """Span of vectors with distinct leads, kept as its set of leads alone.

    The lead of a vector is its first nonzero entry.  Vectors whose leads
    are distinct, each nonzero on its own lead, are independent by
    triangularity: order them by lead, and each is zero on the leads of
    those after it.  So a basis that takes only vectors with a new lead
    grows by one on each, ``dim`` counts the leads, and the vectors
    themselves need not be kept: ``reduce`` finds the lead, ``_store``
    records it, and no row operation runs.  ``pivots`` holds the leads in
    ascending order, as an ``EchelonBasis`` with the same vectors would.

    A vector of length ``ambient`` goes in as its support mask
    (``support``), a nonnegative int below 2^ambient; its lead is the
    lowest set bit, and it has no modulus.  Its one caller,
    ``control._extend_state``, inserts the masks of the outer products
    r_a r_b^T of echelon walk rows, exact or residue, which lead at
    c_a·n + c_b for the pivots c_a and c_b, so the leads are distinct.  The
    span grows along a prefix tree of control sets, where a new walk row
    may lead before an older one, so any lead not yet stored is taken.  A
    repeated lead is a fault there, and raises ValueError instead of being
    reduced, as does a negative mask or one past ``ambient`` bits.  The
    zero mask lies in every span (``reduce`` gives None).

    ``insert`` is inherited: every insert runs through
    ``EchelonBasis.insert``, which calls the ``reduce`` and ``_store``
    here.  The leads are the whole state, so ``copy`` copies them alone.
    """

    __slots__ = ()

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.pivots: list = []

    def reduce(self, v):
        """``(v, lead, position)`` if it grows the span, None if it is zero; else ValueError."""
        if v < 0 or v.bit_length() > self.ambient:
            raise ValueError(f"expected a support mask of at most {self.ambient} bits")
        if not v:
            return None
        lead = (v & -v).bit_length() - 1
        leads = self.pivots
        pos = bisect_left(leads, lead)
        if pos < len(leads) and leads[pos] == lead:
            raise ValueError(f"a vector must lead at an entry not yet stored; this one leads at {lead}")
        return v, lead, pos

    def _store(self, found):
        v, lead, pos = found
        self.pivots.insert(pos, lead)
        return v

    def copy(self) -> "LeadBasis":
        dup = LeadBasis(self.ambient)
        dup.pivots = list(self.pivots)
        return dup


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
