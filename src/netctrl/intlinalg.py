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

``PackedBasis`` holds the product span modulo a prime, whose vectors are
outer products.  Each vector is one int of fixed-width slots, wide
enough for the product of two residues, so the row-major outer product
u w^T of two residue vectors is one multiplication,
``pack(u, n * width) * pack(w, width)``.  Modulo a prime p with
(p - 1)^2 < 2^30, as ``control._PRIME`` is, a slot is 30 bits, one CPython
digit: the packed left row is n^2 digits and the right one n, so the
multiplication costs about n^3 digit steps.  It is append-only: it takes
only a vector whose lead is past every stored lead, finds that lead and
reads its slot once per insert, and keeps the leads alone.
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


def slot_width(modulus: int) -> int:
    """Bits per slot that hold the product of any two residues modulo p.

    The largest such product is (p - 1)^2, so one bit fewer does not hold it.
    """
    return ((modulus - 1) ** 2).bit_length()


def pack(values, width: int) -> int:
    """Nonnegative ints below 2^width as one int: entry i in bits [i·width, (i+1)·width)."""
    v = 0
    for x in reversed(values):
        v = v << width | x
    return v


class PackedBasis(EchelonBasis):
    """Append-only span modulo a prime of packed vectors, each leading past the last.

    A vector of length ``ambient`` is one nonnegative int with entry i in
    slot i (``pack``) of ``width = slot_width(p)`` bits, read modulo p slot
    by slot.  Its slots may hold up to 2^width - 1, so the row-major outer
    product of two residue vectors r_a and r_b is one multiplication: with
    r_a packed at width n·width and r_b at width, slot a·n + b of
    ``pack(r_a, n * width) * pack(r_b, width)`` is r_a[a]·r_b[b] <= (p - 1)^2,
    and no slot carries into the next.  At the working prime, 32,749, the
    width is 30 bits, so each slot is one CPython digit.

    The lead of a vector, its first nonzero slot, is one bit scan.  The
    basis takes a vector only when its lead is past every stored lead and
    its lead slot is nonzero modulo p.  Such a vector is zero modulo p on
    every stored lead, so it is independent of the stored vectors modulo p
    and grows the span by one; the leads are the pivots an ``EchelonBasis``
    with the same modulus would have.  So only the leads are kept, ``dim``
    counts them, and an insert finds its lead and reads that one slot once:
    ``reduce`` returns the vector with its lead, which ``_store`` appends.
    Any other nonzero vector raises ValueError instead of being reduced:
    the one caller, ``control._extend_state``, inserts the outer products
    of monic echelon rows by ascending lead, and a vector out of that order
    is a fault there.  The zero vector lies in every span (``reduce`` gives
    None).

    ``insert`` is inherited: every insert runs through
    ``EchelonBasis.insert``, which calls the ``reduce`` and ``_store`` here.
    The leads are the whole state, so ``copy`` copies them alone.
    """

    __slots__ = ("width",)

    def __init__(self, ambient: int, modulus: int):
        self.ambient = ambient
        self.modulus = modulus
        self.width = slot_width(modulus)
        self.pivots: list = []

    def reduce(self, values: int):
        """``(values, lead)`` if it grows the span, None if it is zero; else ValueError."""
        v, w = values, self.width
        if v < 0 or v.bit_length() > self.ambient * w:
            raise ValueError(f"expected a packed vector of {self.ambient} slots of {w} bits")
        if not v:
            return None
        lead = ((v & -v).bit_length() - 1) // w
        last = self.pivots[-1] if self.pivots else -1
        if lead <= last or not (v >> lead * w & (1 << w) - 1) % self.modulus:
            raise ValueError(f"a packed vector must lead past slot {last} with a slot nonzero "
                             f"modulo {self.modulus}; this one leads at slot {lead}")
        return v, lead

    def _store(self, found) -> int:
        v, lead = found
        self.pivots.append(lead)
        return v

    def copy(self) -> "PackedBasis":
        dup = PackedBasis(self.ambient, self.modulus)
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
