"""Exact rational matrices and span bases of vectorized square matrices.

Every decision here is made over the rationals with no tolerance: rank is
the exact rank, span membership is exact.  Entries are ``fractions.Fraction``
values; the elimination work is delegated to the integer kernels in
``intlinalg`` after clearing denominators, which never changes a rank or a
span.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import intlinalg
from .graphs import check_int, parse_int


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable matrix of exact rationals stored as a tuple of row tuples."""

    entries: tuple

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def __getitem__(self, pos):
        i, j = pos
        return self.entries[i][j]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(tuple(zip(*self.entries)))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and self.entries == tuple(zip(*self.entries))

    def scale(self, c) -> "RationalMatrix":
        c = Fraction(c)
        return RationalMatrix(tuple(tuple(x * c for x in row) for row in self.entries))

    def __add__(self, other):
        _check_same_shape(self, other)
        return RationalMatrix(
            tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries))
        )

    def __sub__(self, other):
        _check_same_shape(self, other)
        return RationalMatrix(
            tuple(tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries))
        )


def matrix(rows) -> RationalMatrix:
    """Build a RationalMatrix from any nested iterable of rational-like values.

    Raises:
      ValueError: no rows or columns, ragged rows, or rows that are not
        iterables of values ``Fraction`` reads (inf, NaN and None among them).
    """
    try:
        entries = tuple(tuple(Fraction(x) for x in row) for row in rows)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"not a matrix of rationals: {exc}") from None
    if not entries or not entries[0]:
        raise ValueError("matrix must have at least one row and one column")
    width = len(entries[0])
    if any(len(row) != width for row in entries):
        raise ValueError("ragged rows")
    return RationalMatrix(entries)


def identity(n: int) -> RationalMatrix:
    check_int(n, "order", 1)
    return RationalMatrix(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))


def basis_column(j: int, n: int) -> tuple:
    """The j-th standard basis vector of length n (1-based j) as a tuple."""
    if type(j) is not int or not (1 <= j <= n):  # bool is an int subclass
        raise ValueError(f"index {j!r} is not an int in 1..{n}")
    return tuple(Fraction(int(i == j - 1)) for i in range(n))


def outer(u, v) -> RationalMatrix:
    return RationalMatrix(tuple(tuple(Fraction(a) * Fraction(b) for b in v) for a in u))


def _check_same_shape(a: RationalMatrix, b: RationalMatrix) -> None:
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")


def mat_mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    cols = tuple(zip(*b.entries))
    return RationalMatrix(
        tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a.entries)
    )


def mat_vec(a: RationalMatrix, v) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a.entries)


def mat_pow(a: RationalMatrix, k: int) -> RationalMatrix:
    """Exact k-th power; the zeroth power is the identity."""
    if not a.is_square():
        raise ValueError("power of a non-square matrix")
    result = identity(a.rows)
    for _ in range(check_int(k, "power", 0)):
        result = mat_mul(result, a)
    return result


def commutator(x: RationalMatrix, y: RationalMatrix) -> RationalMatrix:
    """xy - yx, exactly."""
    if not (x.is_square() and y.is_square() and x.rows == y.rows):
        raise ValueError("commutator needs two square matrices of equal side")
    return mat_mul(x, y) - mat_mul(y, x)


def rank(m: RationalMatrix) -> int:
    """Exact rank over the rationals.

    Rows are individually scaled to primitive integer vectors first (rank
    is invariant under row scaling), then reduced fraction-free.
    """
    if not isinstance(m, RationalMatrix):
        raise ValueError(f"expected a RationalMatrix (see matrix), got {type(m).__name__}")
    basis = intlinalg.EchelonBasis(m.cols)
    for row in m.entries:
        if basis.insert(intlinalg.clear_denominators(row)) and basis.dim == m.cols:
            break
    return basis.dim


class MatrixSpaceBasis:
    """Linearly independent set of n-by-n matrices in echelon form.

    Matrices are vectorized row-major and kept in an exact echelon basis.
    Reading the basis (``vectors``, ``matrices``, ``==``) computes the
    reduced row-echelon form of the span with leading entries 1, a
    canonical representative: two spans are equal iff their bases compare
    equal.  Mutation happens only through :meth:`insert` (single writer);
    :meth:`full` builds the whole space without it.
    """

    def __init__(self, side: int):
        self.side = check_int(side, "matrix side", 1)
        self._inner = intlinalg.EchelonBasis(side * side)

    @classmethod
    def full(cls, side: int) -> "MatrixSpaceBasis":
        """All n-by-n matrices, spanned by the unit matrices.

        Their vectors are the n^2 unit rows with pivots 0 .. n^2 - 1, which
        is already the canonical reduced form, so the rows are set directly
        instead of inserted one by one, each from a zero row with one entry
        set.
        """
        basis = cls(side)
        amb = side * side
        rows = []
        for k in range(amb):
            row = [0] * amb
            row[k] = 1
            rows.append(tuple(row))
        basis._inner.rows = rows
        basis._inner.pivots = list(range(amb))
        return basis

    @property
    def dim_ambient(self) -> int:
        return self.side * self.side

    @property
    def dim(self) -> int:
        return self._inner.dim

    def copy(self) -> "MatrixSpaceBasis":
        dup = MatrixSpaceBasis(self.side)
        dup._inner = self._inner.copy()
        return dup

    def _vectorize(self, m) -> list:
        """``m`` row-major; nested input is read by ``matrix``, so every entry is exact."""
        if not isinstance(m, RationalMatrix):
            m = matrix(m)
        if m.rows != self.side or m.cols != self.side:
            raise ValueError(f"expected a {self.side}x{self.side} matrix")
        return [x for row in m.entries for x in row]

    def insert(self, m) -> bool:
        """Extend the span by a matrix; True iff the dimension grew."""
        return self._inner.insert(intlinalg.clear_denominators(self._vectorize(m))) is not None

    def contains(self, m) -> bool:
        """Exact span-membership test; does not mutate the basis."""
        return self._inner.contains(intlinalg.clear_denominators(self._vectorize(m)))

    def vectors(self) -> tuple:
        """Basis as vectorized rational rows with leading entries 1."""
        return self._inner.rational_rows()

    def matrices(self) -> tuple:
        """Basis as RationalMatrix values."""
        n = self.side
        out = []
        for row in self.vectors():
            out.append(RationalMatrix(tuple(row[i * n : (i + 1) * n] for i in range(n))))
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, MatrixSpaceBasis):
            return NotImplemented
        return self.side == other.side and self._inner.reduced_rows() == other._inner.reduced_rows()

    def __repr__(self):
        return f"MatrixSpaceBasis(side={self.side}, dim={self.dim})"


# ---------------------------------------------------------------------------
# Matrix text format: first line "rows cols", then row-major entries as
# integers or "p/q" fractions, whitespace-separated.
# ---------------------------------------------------------------------------

def _entry(token: str) -> Fraction:
    """``token`` read as ``[-]digits[/digits]``, its digits by ``parse_int``, with q > 0."""
    num, slash, den = token.partition("/")
    q = parse_int(den) if slash else 1
    if q <= 0:  # the sign belongs to the numerator
        raise ValueError(f"denominator must be positive: {token!r}")
    return Fraction(parse_int(num), q)


def parse_matrix(text: str) -> RationalMatrix:
    """Read the matrix text format; ValueError on any other input.

    Each entry is an integer or a fraction p/q, read by ``_entry``:
    ASCII digits, a leading ``-`` on p alone and q > 0, so ``format_matrix``
    output reads back exactly and nothing that ``Fraction`` alone would
    also take (``1_0``, ``0.5``, ``-2e1``, other scripts' digits) passes.
    """
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("matrix document must start with 'rows cols'")
    try:
        nrows, ncols = parse_int(tokens[0]), parse_int(tokens[1])
    except ValueError:
        raise ValueError(f"malformed header: {tokens[0]!r} {tokens[1]!r}") from None
    if nrows < 1 or ncols < 1:
        raise ValueError(f"matrix shape must be positive, got {nrows}x{ncols}")
    body = tokens[2:]
    if len(body) != nrows * ncols:
        raise ValueError(f"expected {nrows * ncols} entries, got {len(body)}")
    try:
        values = [_entry(tok) for tok in body]
    except ValueError as exc:
        raise ValueError(f"malformed entry: {exc}") from None
    return RationalMatrix(
        tuple(tuple(values[i * ncols : (i + 1) * ncols]) for i in range(nrows))
    )


def format_matrix(m: RationalMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for row in m.entries:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
