"""Walk matrices, product spans, Lie closures, and controllability verdicts.

Three notions are decided here for a symmetric rational matrix A and a
control set S of vertices, each by exact computation:

* Kalman: the extended walk matrix [z, Az, ..., A^{n-1}z, ...] over all
  z = e_j with j in S has rank n.
* Product span: the dimension of span{A^m e_k e_j^T A^l} over k, j in S
  and powers 0 <= m, l <= n-1.
* Lie: the real Lie algebra generated by A and the projectors e_j e_j^T
  is all of gl(n, R), detected by its dimension reaching n^2.

The quantum-control condition lives in u(n) over the complex numbers, but
it holds iff the real gl(n, R) condition does, so nothing here touches
complex arithmetic.

All three are read off one engine: a ``_NodeState`` holds the walk,
product-span and Lie bases of a control set, and ``_extend_state`` grows it
by one control vertex, growing only the parts a caller names.  The sweeps
in ``harness`` drive it through ``_grow``: given a family of control sets,
it grows each node of their prefix tree from its parent and returns the
dimensions of every set.  The one-shot decisions grow one state along
their set in ``_dimensions``, which also reads the walk's basis.

Every power A^k e_j the package reads over the integers, for the walk,
the distance powers and the Lie engine's hub walk, is stepped by one
generator, ``_walk``, as its reader draws it.  Every reported number is
exact.  The walk is first grown modulo one fixed prime, on integer-scaled
data, from residue powers alone: each element found there reduces an
integer combination of genuine elements, so its rank there is at most the
rational one.  So a modular walk answers only at full rank: a full walk
is exact, and the span grown beside it is then n^2, while a short one
grows no span and the walk and the span are grown exactly, once
(``_dimensions``).  The prime is 32,749, the largest whose residue
products fit one 30-bit CPython digit, so a residue and the product of
two residues are each one digit, in the residue powers of ``_walk`` and
in the row operations of the modular ``intlinalg.EchelonBasis``.  The
product span needs no digit of its own: each product goes in as its
support mask, the same for the exact and the modular walk
(``_extend_state``).  The Lie closure runs over the integers alone
(``_LieEngine``).
"""

from __future__ import annotations

import itertools
import math
import random
import sys
import warnings
from collections import deque
from dataclasses import MISSING, dataclass, fields, is_dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import graphs, intlinalg
from .forcing import check_order, is_zfs, vertex_set
from .graphs import Graph
from .linalg import (
    MatrixSpaceBasis,
    RationalMatrix,
    basis_column,
    mat_vec,
    matrix,
    outer,
    rank,  # noqa: F401 -- unused here, but bench/spans.py traces control.rank
)

ALL_POSITIVE = "all_positive_offdiag"
ALL_NEGATIVE = "all_negative_offdiag"
MIXED = "mixed"

CHECK_PASSED = "passed"
CHECK_VIOLATED = "violated"
CHECK_SKIPPED = "hypothesis not met"

DEFAULT_LIE_MAX_ORDER = 16

# the largest prime p with (p - 1)^2 < 2^30: a residue and the product of
# two are each one 30-bit CPython digit, in _walk's residue powers and in
# the modular EchelonBasis's row operations
_PRIME = 32_749


def check_lie_order(n: int, max_order=None) -> None:
    """Raise ValueError for an order past the Lie-closure cap (``forcing.check_order``).

    The cap is ``max_order``, by default 16 or the NETCTRL_MAX_ORDER
    environment variable.
    """
    check_order(n, "Lie-closure", DEFAULT_LIE_MAX_ORDER, max_order)


@dataclass(frozen=True)
class PatternMatrix:
    """A symmetric rational matrix together with its pattern graph.

    ``pattern`` has an edge {k, j} exactly where the off-diagonal entry
    (k, j) is nonzero.  ``sign_class`` records whether the nonzero
    off-diagonal entries are all positive, all negative, or mixed; a
    matrix with no off-diagonal support counts as all positive.
    """

    n: int
    matrix: RationalMatrix
    sign_class: str
    pattern: Graph


def pattern_matrix(m) -> PatternMatrix:
    """Validate a symmetric matrix and derive its pattern and sign class.

    Args:
      m: a square RationalMatrix, or nested rationals convertible to one.

    Returns:
      The PatternMatrix wrapping ``m``.

    Raises:
      ValueError: if the matrix is not square, not exactly symmetric, or
        not a matrix of rationals (``linalg.matrix``).
    """
    if not isinstance(m, RationalMatrix):
        m = matrix(m)
    if not m.is_square():
        raise ValueError(f"expected a square matrix, got {m.rows}x{m.cols}")
    if not m.is_symmetric():
        raise ValueError("matrix is not symmetric")
    n = m.rows
    edges = set()
    signs = set()
    for k in range(n):
        row = m.entries[k]
        for j in range(k + 1, n):
            x = row[j]
            if x:
                edges.add((k + 1, j + 1))
                signs.add(x > 0)
    return PatternMatrix(n=n, matrix=m, sign_class=_sign_class(signs), pattern=graphs.graph(n, edges))


def _sign_class(signs: set) -> str:
    """The sign class of the nonzero off-diagonal entries, from the set of their ``x > 0``."""
    return MIXED if len(signs) > 1 else ALL_NEGATIVE if signs == {False} else ALL_POSITIVE


def _edge_matrix(g: Graph, weights, diagonal) -> PatternMatrix:
    """Fill a graph-built matrix: weights on the sorted edges, then the diagonal.

    Weight i goes to both entries of the i-th edge of ``sorted(g.edges)``
    and ``diagonal[j]`` to (j, j); every other entry is zero.  Every
    caller's weights are nonzero, so ``g`` is the pattern and the signs of
    the weights are the sign class, with nothing to re-derive from the
    entries (``pattern_matrix``).
    """
    entries = [[Fraction(0)] * g.order for _ in range(g.order)]
    for (u, v), w in zip(sorted(g.edges), weights, strict=True):
        entries[u - 1][v - 1] = entries[v - 1][u - 1] = Fraction(w)
    for j, d in enumerate(diagonal):
        entries[j][j] = Fraction(d)
    sign_class = _sign_class({w > 0 for w in weights})
    return PatternMatrix(g.order, RationalMatrix(tuple(map(tuple, entries))), sign_class, g)


def adjacency_matrix(g: Graph) -> PatternMatrix:
    """The 0/1 adjacency matrix of ``g`` (zero diagonal)."""
    return _edge_matrix(g, [1] * len(graphs.check_graph(g).edges), [0] * g.order)


def laplacian_matrix(g: Graph) -> PatternMatrix:
    """The combinatorial Laplacian D - A; off-diagonal entries are -1 on edges."""
    nbrs = graphs.neighbours(graphs.check_graph(g))
    return _edge_matrix(g, [-1] * len(g.edges), [len(nbrs.get(v, ())) for v in g.vertices])


def random_same_sign_matrix(g: Graph, seed: int) -> PatternMatrix:
    """Seeded random integer matrix with pattern ``g``.

    Off-diagonal entries on edges are uniform in 1..9 and the diagonal is
    uniform in -9..9, drawn from ``random.Random(seed)`` in a fixed order
    (sorted edges first, then the diagonal), so a seed pins the matrix.
    A ``g`` that is not a Graph, or a seed that is not an int, raises
    ValueError.
    """
    graphs.check_graph(g)
    rng = random.Random(graphs.check_int(seed, "seed"))
    weights = [rng.randint(1, 9) for _ in g.edges]
    return _edge_matrix(g, weights, [rng.randint(-9, 9) for _ in g.vertices])


def parse_kind(kind: str) -> tuple:
    """Parse a matrix-kind spec into (name, seed, label_invariant).

    SEED is read by ``graphs.parse_int``: ASCII digits with at most a
    leading ``-``.  "adjacency" and "laplacian" carry no seed.  They are
    label-invariant: relabeling the graph by a permutation P turns the
    matrix A into P A P^T, so every rank and dimension decided here is
    unchanged once the control set is relabeled too.  "random:SEED" draws
    its weights in sorted-edge order, so a relabeled graph gets other
    weights and the kind is not label-invariant.

    Raises:
      ValueError: unknown or malformed kind spec, or one that is not a string.
    """
    if kind in ("adjacency", "laplacian"):
        return kind, None, True
    if isinstance(kind, str) and kind.startswith("random:"):
        try:
            return "random", graphs.parse_int(kind.split(":", 1)[1]), False
        except ValueError:
            raise ValueError(f"malformed matrix kind {kind!r}; want random:SEED") from None
    raise ValueError(f"unknown matrix kind {kind!r}; want adjacency, laplacian, or random:SEED")


def build_matrix(g: Graph, kind: str) -> PatternMatrix:
    """Build a matrix for ``g`` from a kind spec.

    Args:
      g: pattern graph.
      kind: "adjacency", "laplacian", or "random:SEED" with an integer seed.

    Raises:
      ValueError: unknown or malformed kind spec, or ``g`` not a Graph.
    """
    name, seed, _ = parse_kind(kind)
    if name == "adjacency":
        return adjacency_matrix(g)
    if name == "laplacian":
        return laplacian_matrix(g)
    return random_same_sign_matrix(g, seed)


def projector(j: int, n: int) -> RationalMatrix:
    """The rank-one projector e_j e_j^T (1-based j)."""
    v = basis_column(j, n)
    return outer(v, v)


def _pattern(a) -> PatternMatrix:
    """``a`` itself if it is a PatternMatrix; else ValueError naming its type."""
    if not isinstance(a, PatternMatrix):
        raise ValueError(f"expected a PatternMatrix (see pattern_matrix), got {type(a).__name__}")
    return a


def _control_set(a: PatternMatrix, s) -> tuple:
    members = vertex_set(s, _pattern(a).n)
    if not members:
        raise ValueError("control set must be nonempty")
    return members


def _int_rows(m: RationalMatrix) -> tuple:
    """``m`` scaled to a primitive integer matrix of row tuples; all zero if ``m`` is."""
    flat = intlinalg.clear_denominators([x for row in m.entries for x in row])
    k = m.cols
    return tuple(flat[i * k : (i + 1) * k] for i in range(m.rows))


def _walk(a, j: int, modulus=None):
    """e_j, A e_j, A^2 e_j, ... for the integer rows ``a`` of A and a 0-based j.

    The one loop that steps these powers; each reader draws them as it
    reads, so a power past the last one read is never made.  Exactly
    (``modulus`` None) each power is made primitive before A multiplies it,
    so the k-th is a nonzero multiple of A^k e_j.  Modulo a prime p, ``a``
    is reduced once per call and each power is A times the last modulo p:
    the residue of the integer vector a^k e_j, itself a multiple of
    A^k e_j, with no exact power made.  The first power, A e_j, is row j
    of ``a`` (A is symmetric), read with no multiplication.  The walk stops
    before the first zero power (modulo p: zero there), since every later
    one is zero too, and after n vectors.
    """
    if modulus is not None:
        a = [[x % modulus for x in row] for row in a]
    v = (0,) * j + (1,) + (0,) * (len(a) - j - 1)
    yield v
    for k in range(1, len(a)):
        if modulus is None:
            v = intlinalg.primitive([sum(map(mul, row, v)) for row in a] if k > 1 else a[j])
        else:
            v = tuple(sum(map(mul, row, v)) % modulus for row in a) if k > 1 else tuple(a[j])
        if v is None or not any(v):
            return
        yield v


def walk_matrix(a: PatternMatrix, s) -> RationalMatrix:
    """The n-by-(n·|S|) extended walk matrix of (A, S).

    Column blocks appear in ascending control-vertex order; block j holds
    e_j, A e_j, ..., A^{n-1} e_j.

    Raises:
      ValueError: empty control set or labels out of range.
    """
    members = _control_set(a, s)
    cols = []
    for j in members:
        v = basis_column(j, a.n)
        for _ in range(a.n):
            cols.append(v)
            v = mat_vec(a.matrix, v)
    return RationalMatrix(tuple(zip(*cols)))


_SYM, _SKEW = 0, 1


@lru_cache(maxsize=None)
def _packing(n: int, parity: int) -> list:
    """The (i, j) positions a packed Lie element of this parity stores, in order."""
    return [(i, j) for i in range(n) for j in range(i + parity, n)]


@lru_cache(maxsize=None)
def _packed_index(n: int, parity: int) -> tuple:
    """Packed coordinate of each (row, column) position of this parity's packing.

    Returns the table by rows and by columns: entry [r][c] of the first and
    [c][r] of the second is the index k of (r, c) in ``_packing(n, parity)``,
    None off the stored triangle.
    """
    table = [[None] * n for _ in range(n)]
    for k, (i, j) in enumerate(_packing(n, parity)):
        table[i][j] = k
    return tuple(map(tuple, table)), tuple(zip(*table))


@lru_cache(maxsize=None)
def _projector_rows(n: int, j: int) -> tuple:
    """The projector e_j e_j^T (0-based j) as integer row tuples."""
    return tuple(tuple(int(r == c == j) for c in range(n)) for r in range(n))


@lru_cache(maxsize=None)
def _hub_coords(n: int, j: int, parity: int) -> tuple:
    """Where row j of a packed element of this parity lies, diagonal dropped.

    Returns the packed coordinates of entries (j, c) for c < j and for
    c > j, in column order: left of the diagonal the stored entry is
    (c, j), so a skew element's entry there is the negated stored one.
    """
    by_row, by_col = _packed_index(n, parity)
    return tuple(by_col[j][:j]), tuple(by_row[j][j + 1:])


class _LieEngine:
    """Incremental integer Lie-closure state, split into symmetric and skew parts.

    The Lie algebra generated by a set G is the smallest subspace that
    contains G and is invariant under ad_g = [g, .] for every g in G, since
    the right-normed brackets [g1, [g2, ..., gk]] span it.  So the engine
    brackets (generator, element) pairs only: O(dim·|G|) brackets, not the
    O(dim^2) of all pairs of elements.

    Every generator is symmetric, and gl(n) = Sym + Skew is a Z/2 grading:
    [Sym, Sym] and [Skew, Skew] lie in Skew, [Sym, Skew] in Sym.  So every
    element is kept pure, symmetric or skew, each bracket with a generator
    flips its parity, and the closure is the direct sum of its symmetric
    and skew parts.  ``bases`` holds one echelon basis per parity on packed
    coordinates (the i <= j entries of a symmetric matrix, the i < j
    entries of a skew one); ``dim``, the sum of their dimensions, is kept
    as a running count that ``_offer`` raises.

    ``elems`` spans the closure: one (parity, packed) pair per insert that
    grew it, the generator itself for a generator and the reduced residue
    for a bracket.  ``gens`` holds each generator that grew the span in the
    form ``_bracket`` reads: a projector e_j e_j^T as its 0-based j, any
    other generator as its sparse rows, the (column, value) pairs of each
    row's nonzero entries.  A generator already in the span lies in the
    algebra of the earlier ones, so it adds nothing and is dropped.
    ``pending`` holds the (generator, element) index pairs not yet
    bracketed: a new element is queued against every generator, and a new
    generator against every earlier element.  Projector pairs go to the
    front, since a projector's bracket costs O(n) (``_bracket``).  ``extend``
    may be called again with more generators and only the new pairs are
    bracketed, which is what lets a harness share closure work along chains
    of growing control sets.
    Scaling spanning-set elements changes neither the span nor its closure.

    A generator and a bracket are offered as they are, unscaled: the
    insert alone scales what it stores.  Its residue comes out primitive,
    and scaling the offered vector by k scales each of its row operations
    by k, so the stored row is the one a primitive offer gives.

    A full closure stops as soon as the rows of one control vertex prove
    it.  The first projector E_jj that grows the span is the hub j, and
    ``hub_rows`` is an echelon basis of ambient n - 1 of the hub rows of
    the kept elements: row j of each, its diagonal entry dropped (for a
    skew element the entries left of the diagonal are the negated stored
    ones).  Write C+(r) and C-(r) for
    sum_k r_k (E_jk ± E_kj) over k != j, the two halves of the cross of j.

    * For X in the algebra, [E_jj, X] is C-(r) for a symmetric X and C+(r)
      for a skew one, r the hub row of X.
    * [E_jj, C+(r)] = C-(r) and [E_jj, C-(r)] = C+(r).
    * So once the hub rows reach rank n - 1, both halves of the whole cross
      are in the algebra, and the cross and E_jj generate gl(n):
      [E_kj, E_jl] = E_kl for k != l and [E_kj, E_jk] = E_kk - E_jj.

    Then ``dim`` is set to n^2, the queue is dropped and ``elems`` and
    ``bases`` stay short of it.  The rule needs no count of brackets: n - 1
    brackets of E_jj that grew one part are independent cross elements of
    one half, whose hub rows are independent and all in ``hub_rows``.

    The same rule certifies a deficient closure (lemma 1).  Let K be the
    Krylov space of A from the e_j (j in S), r its dimension (the walk
    rank), and take A and the E_jj (j in S) as the generators.

    * Upper bound.  K holds each e_j and A K is in K; A is symmetric, so
      A maps K^perp into itself too, and each E_jj kills it.  So every
      element of the algebra L maps K and K^perp into themselves, and on
      K^perp the brackets vanish and the projectors are zero: L lies in
      gl(K) + span(A|K^perp), of dimension r^2 + delta, where delta = 1
      exactly when some column of A lies outside K.
    * The hub row of X is X e_j up to sign, entry j dropped: it lies in K
      and is orthogonal to e_j, so the hub rows span at most r - 1
      dimensions.
    * Lower bound.  Once they reach r - 1, the cross of j inside K is in L,
      and with E_jj it generates gl(K), as above.  So A|K is in L, hence
      A|K^perp = A - A|K, and dim L = r^2 + delta.

    ``extend`` takes that dimension as its ``bound``: n^2 in general, the
    case K = R^n, or r^2 + delta from a caller that knows r and delta.  No
    closure of the generators offered exceeds it, so the closure stops
    there: one that reaches it without the rank is proved there too, and a
    certified one returns at once when offered more generators (they lie
    in L already).  The rank that certifies is the bound's root less one,
    isqrt(bound) - 1: delta <= 1 < 2r + 1, so the root of r^2 + delta is
    r.  A closure whose hub rows stay short of that rank runs to its
    fixpoint, which can lie below r^2 + delta (the paper's example b).  A
    multiple of a projector E_kk offered first, as A, is the hub even for
    k not in S; then every generator is diagonal, the hub rows stay zero,
    and rank r - 1 = 0 means one control vertex s with A e_s in
    span(e_s), where L = span(A, E_ss) has dimension 1 + delta as well.

    Hub walk: the certificate reads hub rows only, and needs only that
    each row fed lies in the span of the hub rows of elements of L.  Take
    the chain X_0 = [E_jj, A], X_{k+1} = [A, X_k] and u_k = A^k e_j.  X_k
    is an integer combination of the products u_p u_q^T with p + q = k + 1,
    in which u_0 u_{k+1}^T has coefficient (-1)^k, so row j of X_k is
    +-u_{k+1} plus a combination of u_0 ... u_k.  With entry j dropped
    (u_0 = e_j drops to zero), the hub rows of X_0 ... X_k span what
    u_1 ... u_{k+1} span.  So when a projector becomes the hub with A, the
    first generator, already in, ``_offer`` feeds ``hub_rows`` with
    A^2 e_j, A^3 e_j, ... beside A's own hub row u_1, with no bracket, no
    Lie-basis insert and no queued pair, until the certifying rank, a zero
    power or a step that does not grow the hub rows (a power in the span
    of u_0 ... u_k keeps every later one there).  It draws them from
    ``_walk`` on ``a``, the dense rows of the first generator, kept for
    it.  On the complete graphs every step grows the hub rows, and with one
    control vertex the closure is certified with its elements still A and
    E_jj.  The walk lies in the
    Krylov space of e_j alone, so it stalls whenever that space is smaller
    than K, as well as on every closure short of its bound (the paper's
    example b); then the closure goes on by the queue rule from its
    generators, and every (generator, element) pair is bracketed once.

    Queue rule: an element whose hub row grew ``hub_rows`` has its pairs
    queued at the front, the non-projector (A) pairs on top; every other
    pair is queued as above.  ``hub_rows`` is fed in ``_offer`` only, the
    walk's rows included, so every Lie-basis and hub-row insert keeps one
    call site (``bench/spans.py`` attributes inserts by it).
    """

    __slots__ = ("side", "bases", "dim", "elems", "gens", "a", "pending", "hub", "hub_rows")

    def __init__(self, side: int):
        self.side = side
        self.bases = tuple(intlinalg.EchelonBasis(len(_packing(side, parity))) for parity in (_SYM, _SKEW))
        self.dim = 0
        self.elems: list = []
        self.gens: list = []
        self.a = None
        self.pending = deque()
        self.hub = None
        self.hub_rows = None

    def copy(self) -> "_LieEngine":
        dup = _LieEngine.__new__(_LieEngine)
        dup.side = self.side
        dup.bases = (self.bases[_SYM].copy(), self.bases[_SKEW].copy())
        dup.dim = self.dim
        dup.elems = list(self.elems)
        dup.gens = list(self.gens)
        dup.a = self.a
        dup.pending = deque(self.pending)
        dup.hub = self.hub
        dup.hub_rows = None if self.hub_rows is None else self.hub_rows.copy()
        return dup

    def _hub_row(self, parity: int, packed) -> list:
        """Row ``hub`` of a packed element, diagonal entry dropped."""
        left, right = _hub_coords(self.side, self.hub, parity)
        if parity == _SKEW:
            return [-packed[k] for k in left] + [packed[k] for k in right]
        return [packed[k] for k in left] + [packed[k] for k in right]

    def _offer(self, parity: int, packed, residue: bool = True, hub=None, rank: int = 0) -> int:
        """Insert a packed element; keep it if the span grew.

        Returns 0 if the span did not grow, 2 if it did and a hub row grew
        ``hub_rows``, 1 otherwise.  With ``residue`` (a
        bracket) the element kept is the row the insert added, zero on
        every earlier pivot column, so more of its projector brackets
        vanish before they reach an insert than those of the raw bracket
        would.  Without it (a generator) it is kept as offered.  ``hub``,
        the 0-based j of a projector E_jj offered while the engine has no
        hub, makes j the hub if the span grows, and ``hub_rows`` then
        starts from the hub rows of every kept element.  With A in (``a``
        set) they then take the hub walk A^2 e_j, A^3 e_j, ..., entry j
        dropped, drawn from ``_walk`` on ``a`` (A e_j, A's own hub row, is
        read off row j of ``a`` and skipped), until they reach ``rank``,
        the certifying rank of ``extend``, at a zero power, or at a power
        that does not grow them.
        """
        row = self.bases[parity].insert(packed)
        if row is None:
            return 0
        self.dim += 1
        elem = (parity, row if residue else packed)
        self.elems.append(elem)
        if hub is not None:
            self.hub = hub
            self.hub_rows = intlinalg.EchelonBasis(self.side - 1)
            rows = [self._hub_row(*e) for e in self.elems]
        elif self.hub_rows is not None:
            rows = (self._hub_row(*elem),)
        else:
            return 1
        grew = 1
        for r in rows:
            if any(r) and self.hub_rows.insert(r) is not None:
                grew = 2
        if hub is not None and self.a is not None:
            # grew is 2 already if any walk row can grow the hub rows: A's
            # row u_1 went in above, and u_1 = 0 puts every later power on e_j
            powers = itertools.islice(_walk(self.a, hub), 2, None)
            while self.hub_rows.dim < rank:
                u = next(powers, ())  # () once the powers run out
                r = u[:hub] + u[hub + 1:]
                if not any(r) or self.hub_rows.insert(r) is None:
                    break
        return grew

    def _matrix(self, parity: int, packed) -> tuple:
        """The full integer matrix of a packed element."""
        n = self.side
        x = [[0] * n for _ in range(n)]
        sign = -1 if parity == _SKEW else 1
        for (i, j), v in zip(_packing(n, parity), packed):
            x[i][j] = v
            x[j][i] = sign * v
        return tuple(map(tuple, x))

    def _queue(self, pairs, lead: bool = False) -> None:
        """Queue (generator, element) pairs; with ``lead`` all at the front, A's on top."""
        top = []
        for g, e in pairs:
            if type(self.gens[g]) is int:
                self.pending.appendleft((g, e))
            elif lead:
                top.append((g, e))
            else:
                self.pending.append((g, e))
        self.pending.extendleft(reversed(top))

    def _bracket(self, g, elem):
        """[g, elem] packed in the opposite parity, g as ``gens`` holds it; None when zero.

        For a projector, [E_gg, X] is the cross element of the other parity
        whose row g is row g of X, read and written through ``_hub_coords``:
        one of the two parities is skew, so left of the diagonal the stored
        entry changes sign.  For A, [A, X] = P - sP^T with P = AX and s = +-1
        the sign with X^T = sX.  An entry x of X at (i, j), and sx at (j, i)
        for i != j, puts x times row i of A (A is symmetric) in column j of
        P and sx times row j in column i.  A column k of P that holds y times
        row r adds y A_ra at (a, k) for a < k and -s y A_ra at (k, a) for
        a > k, and on the diagonal, stored only in a symmetric target (s =
        -1), 2 y A_rk: so each nonzero entry of X makes one pass over each
        of its rows of A, and every term lands on the target's triangle.
        """
        parity, packed = elem
        n = self.side
        out = [0] * self.bases[1 - parity].ambient
        if type(g) is int:
            left, right = _hub_coords(n, g, parity)
            to_left, to_right = _hub_coords(n, g, 1 - parity)
            for s, t in zip(left, to_left):
                out[t] = -packed[s]
            for s, t in zip(right, to_right):
                out[t] = packed[s]
            return out if any(out) else None
        by_row, by_col = _packed_index(n, 1 - parity)
        sign = 1 - 2 * parity
        for (i, j), x in zip(_packing(n, parity), packed):
            if not x:
                continue
            for r, k, y in ((i, j, x),) if i == j else ((i, j, x), (j, i, sign * x)):
                col, row, z = by_col[k], by_row[k], -sign * y
                for a, v in g[r]:
                    if a < k:
                        out[col[a]] += v * y
                    elif a > k:
                        out[row[a]] += v * z
                    elif parity:
                        out[row[a]] += v * (y + z)
        return out if any(out) else None

    def _certify(self, rank: int, bound: int) -> bool:
        """Whether the hub rows reach ``rank``; if so, record ``bound`` as the dimension and drop the queue."""
        if self.hub_rows is None or self.hub_rows.dim < rank:
            return False
        self.dim = bound
        self.pending.clear()
        return True

    def extend(self, int_generators, bound: int) -> int:
        """Add symmetric generators, restore bracket closure, return the dimension.

        ``bound`` is a dimension that no closure of the generators offered
        exceeds, n^2 or r^2 + delta: the closure stops there, and certifies
        once the hub rows reach rank isqrt(bound) - 1 (lemma 1).  Past the
        default order cap it warns that it may be very slow when it goes on
        to bracket after the generators and the hub walk, and only then: a
        closure that the hub walk certifies takes no bracket.
        """
        rank = math.isqrt(bound) - 1
        for gen in int_generators:
            if self.dim >= bound:
                return self.dim
            packed = tuple(gen[i][j] for i, j in _packing(self.side, _SYM))
            support = [k for k, v in enumerate(packed) if v]
            if not support:
                continue
            i, j = _packing(self.side, _SYM)[support[0]]
            # one nonzero, on the diagonal: the projector e_j e_j^T
            projector = len(support) == 1 and i == j
            hub = j if projector and self.hub is None else None
            # the element is the generator itself, not its residue: then
            # [gen, gen] = 0 and [g_old, gen] = -[gen, g_old], so only the
            # new generator's pairs are queued
            grew = self._offer(_SYM, packed, residue=False, hub=hub, rank=rank)
            if not grew:
                continue
            if not self.gens:
                self.a = gen
            self.gens.append(j if projector else [[(a, v) for a, v in enumerate(row) if v] for row in gen])
            g = len(self.gens) - 1
            self._queue(((g, e) for e in range(len(self.elems) - 1)), grew == 2)
            if self._certify(rank, bound):
                return self.dim
        gens, elems, pending = self.gens, self.elems, self.pending
        if pending and self.dim < bound and self.side > DEFAULT_LIE_MAX_ORDER:
            _warn_slow(self.side)
        while pending and self.dim < bound:
            g, e = pending.popleft()
            parity = 1 - elems[e][0]
            packed = self._bracket(gens[g], elems[e])
            grew = 0 if packed is None else self._offer(parity, packed)
            if grew:
                if grew == 2 and self._certify(rank, bound):
                    break
                self._queue(((h, len(elems) - 1) for h in range(len(gens))), grew == 2)
        return self.dim


def _warn_slow(n: int) -> None:
    """Warn, at the first caller outside this module, that a closure on order n may be very slow."""
    frame, level = sys._getframe(1), 2
    while frame.f_globals is globals():
        frame, level = frame.f_back, level + 1
    warnings.warn(f"Lie closure on order {n} goes on past its hub walk with exact arithmetic "
                  f"on length-{n * n} vectors and may be very slow", stacklevel=level)


def lie_closure(generators, max_order=None) -> tuple:
    """Smallest subspace containing the generators and closed under [x, y].

    Args:
      generators: symmetric square RationalMatrix values (or nested
        rationals), all of one side n.  The closure is computed on its
        symmetric and skew parts separately, which needs every generator
        symmetric.
      max_order: refuse sides beyond this; exact closure cost grows
        steeply with n (vectors of length n^2, O(dim·|G|) brackets for
        |G| generators; a full one with one control vertex is often
        certified by its hub's walk with no bracket, ``_LieEngine``).
        Defaults to 16, or the NETCTRL_MAX_ORDER environment variable;
        a closure past 16 that goes on past its hub walk to bracket emits
        a warning (``_LieEngine.extend``).

    One closure runs, over the integers, bounded by n^2, the dimension of
    gl(n, R), which no closure exceeds.  One that comes out full returns
    the canonical basis of gl(n, R), the unit matrices
    (``MatrixSpaceBasis.full``), since a certified closure keeps fewer
    elements than its dimension: with ``control_generators`` of a
    ``random:7`` matrix and S = {1}, all of ``lie_closure`` on the complete
    graph took 1.6 ms at n = 14 and 2.3 ms at n = 16, of which
    ``MatrixSpaceBasis.full`` 0.4 and 0.6 ms (min of 15 CPU runs, 2-CPU
    x86, Python 3.11).  A deficient closure keeps all of its elements,
    since its basis is returned, so it takes no r^2 + delta certificate
    (``_LieEngine``, lemma 1) and coefficient growth sets its cost.

    Returns:
      (dim, basis) with basis the MatrixSpaceBasis of the closure in
      row-major coordinates, exact; its canonical reduced form is what
      ``vectors()``, ``matrices()`` and ``==`` read.

    Raises:
      ValueError: generators that are not an iterable, no generators, a
        generator that is not a matrix of rationals (``linalg.matrix``),
        mismatched sides, a generator that is not symmetric, or order over
        max_order.
    """
    try:
        mats = [m if isinstance(m, RationalMatrix) else matrix(m) for m in generators]
    except TypeError:  # not an iterable: ``matrix`` itself raises ValueError
        raise ValueError(f"generators must be an iterable of matrices, got {generators!r}") from None
    if not mats:
        raise ValueError("need at least one generator")
    n = mats[0].rows
    for m in mats:
        if not m.is_square() or m.rows != n:
            raise ValueError("generators must be square matrices of one common side")
        if not m.is_symmetric():
            raise ValueError("generators must be symmetric")
    check_lie_order(n, max_order)
    engine = _LieEngine(n)
    dim = engine.extend(map(_int_rows, mats), n * n)
    if dim == n * n:
        return dim, MatrixSpaceBasis.full(n)
    basis = MatrixSpaceBasis(n)
    for parity, packed in engine.elems:
        # integer rows, exact as they are: no entry needs reading as a Fraction
        basis.insert(RationalMatrix(engine._matrix(parity, packed)))
    return dim, basis


def control_generators(a: PatternMatrix, members) -> list:
    """A together with the projectors e_j e_j^T for j in the control set."""
    gens = [a.matrix]
    for j in members:
        gens.append(projector(j, a.n))
    return gens


# ---------------------------------------------------------------------------
# The decision engine: one state per control set, grown one vertex at a time
# ---------------------------------------------------------------------------

_PARTS = ("walk", "pspan", "lie")


class _Session:
    """Integer data shared by every control set of one matrix.

    ``int_a`` is A scaled to a primitive integer matrix (all zero for
    A = 0).  It holds no walk: each reader steps the powers of A it reads
    from ``int_a`` with ``_walk``.  ``defects`` keeps the distance-power
    defects of the matrix once a sweep has read them.
    """

    __slots__ = ("a", "n", "int_a", "_defects")

    def __init__(self, a: PatternMatrix):
        self.a = a
        self.n = a.n
        self.int_a = _int_rows(a.matrix)
        self._defects = None

    def defects(self) -> tuple:
        """``distance_power_defects`` of the matrix, computed once."""
        if self._defects is None:
            self._defects = distance_power_defects(self.a, self)
        return self._defects


class _NodeState:
    """Walk, product-span and Lie bases of one control set.

    A fresh state is the root: the empty control set, with A alone in the
    Lie closure; ``_extend_state`` adds one control vertex.  ``parts``
    names the bases the state holds; the others are None and never grown,
    so a caller pays only for what it reads.  The span grows from the
    walk's echelon rows, so the walk is kept whenever the span is.  The
    span is an ``intlinalg.LeadBasis``: its products have distinct leads,
    which prove its dimension, so it keeps the set of their leads and no
    rows, and takes each product as its support mask.  With a prime
    ``modulus`` the walk runs modulo it and carries it.  The span has no
    modulus and grows from the walk's rows by one rule: beside an exact
    walk in each call that grows it, and beside a modular walk only in the
    call that makes it full, since a modular walk answers only at full
    rank (``_extend_state``).  The Lie part is always exact and grows the same
    way beside any walk or none.
    """

    __slots__ = ("walk", "pspan", "lie")

    def __init__(self, session: _Session, modulus=None, parts=_PARTS):
        n = session.n
        self.walk = intlinalg.EchelonBasis(n, modulus) if {"walk", "pspan"} & set(parts) else None
        self.pspan = intlinalg.LeadBasis(n * n) if "pspan" in parts else None
        self.lie = _LieEngine(n) if "lie" in parts else None
        if self.lie is not None:
            self.lie.extend([session.int_a], n * n)

    def copy(self) -> "_NodeState":
        dup = _NodeState.__new__(_NodeState)
        for name in _PARTS:
            part = getattr(self, name)
            setattr(dup, name, None if part is None else part.copy())
        return dup


def _extend_state(state: _NodeState, session: _Session, j: int) -> None:
    """Grow a parent's bases by control vertex j.

    The walk draws the powers of j from ``_walk`` while it inserts them,
    modulo the walk's prime when it has one, and stops at the first that
    is already in its span, so no later power is made.  Each is a nonzero
    multiple of A^k e_j (modulo p, the residue of one), so they span what
    block j of the walk matrix spans and their outer products span its
    products.  The parent's walk span W is mapped into itself by A (modulo p,
    by A's residue): the empty one is, and once A^k e_j lies in
    W' = W + span(e_j, ..., A^{k-1} e_j), A maps W' into W + span(A e_j,
    ..., A^k e_j), inside W'; the same holds when the powers run out, at
    rank n or at a zero power.  So no later power could grow the walk,
    and it keeps the rows all of them give.

    The product span then grows from the walk's echelon rows, not from the
    powers.  By bilinearity the outer products of the powers span
    what the outer products of any basis of their span do, so the span's
    new elements are the row-major flattenings of r_a r_b^T over the
    ordered pairs of walk rows with at least one of them new.  With pivots
    c_a and c_b such a product is zero before position c_a·n + c_b and
    holds the product of the two pivot entries there.  The walk's pivots
    are distinct, so these leads are too, and each new one differs from
    every lead stored before this call, whose pivots are both old.  So
    every insert grows the span and the span's dimension is the square of
    the walk's.  The span is therefore kept as its set of leads alone
    (``intlinalg.LeadBasis``): each product is formed and its lead found,
    distinct leads prove independence by triangularity, and a lead
    already stored raises instead of being reduced, since it would break
    this proof.  The products lie in K ⊗ K, of dimension r^2 for the walk
    rank r, so the r^2 leads are all of the span.
    A lead needs only the product's support.  Entry (a, b) of r_a r_b^T
    is r_a[a]·r_b[b], nonzero iff both factors are, over the integers and
    modulo a prime alike, so with ``left`` holding bit a·n for each
    nonzero r_a[a] and ``right`` bit b for each nonzero r_b[b], ``left *
    right`` is the product's support mask: its bits a·n + b are distinct,
    so nothing carries, and its lowest is the lead.  One loop takes the
    exact and the modular walk alike, but a modular walk answers only at
    full rank: there the exact rank is n too, and the span n^2, while a
    short one proves nothing and is grown again exactly with its span
    (``_dimensions``).  So a modular walk grows its span only in the call
    that makes it full.  Until then the span holds nothing, so a modular
    walk takes every row as new and that call inserts all n^2 products
    (once full, the walk is never grown again); an exact walk grows its
    span in each call that grows the walk.  The inserts are made here,
    not in a helper, so each span insert keeps this call site, which
    ``bench/test_bench.py`` and ``tests/test_bench_hooks.py`` attribute
    inserts by, splitting the walk's from the span's by the local ``n``.
    The powers are drawn only when the walk still grows, so a Lie-only
    state never steps one.

    The Lie closure grows after the walk, with bound n^2 beside any walk.
    Beside a short walk of rank r it cannot certify: its hub rows stay at
    most r - 1 < n - 1 (``_LieEngine``, lemma 1), so it runs to its
    fixpoint, whose dimension does not depend on the queue order.
    """
    n = session.n
    walk, span = state.walk, state.pspan
    if walk is not None and walk.dim < n:
        old = set(walk.pivots) if walk.modulus is None else set()
        for col in _walk(session.int_a, j - 1, walk.modulus):
            if walk.insert(col) is None:
                break
        if span is not None and len(old) < walk.dim and (walk.modulus is None or walk.dim == n):
            # bit a·n + b of left * right is set iff r_a[a]·r_b[b] is nonzero
            rows = [(c in old, intlinalg.support(row, n), intlinalg.support(row))
                    for c, row in zip(walk.pivots, walk.rows)]
            for old_a, left, _ in rows:
                for old_b, _, right in rows:
                    if not (old_a and old_b):
                        span.insert(left * right)
    if state.lie is not None:
        state.lie.extend([_projector_rows(n, j - 1)], n * n)


def _grow(session: _Session, subsets, parts=_PARTS) -> dict:
    """{members: dims} for every distinct set in ``subsets``, in first-seen order.

    Each dims tuple holds the exact dimensions named by ``parts``, in that
    order.  The sets are grown along their prefix tree from one fresh root
    with exact bases: every child grows a copy of its parent's state,
    except the last, which takes it over.  A dimension does not depend on
    the order in which a span was built, so each equals that of a fresh
    root grown by its set alone.

    A full node grows nothing below it.  Walk rank, span dimension and Lie
    dimension are each monotone in S: the walk columns, their products and
    the generators of S lie among those of any superset.  Each is bounded,
    by n for the walk and by n^2, the dimension of gl(n, R), for the span
    and the Lie closure.  So once a node reaches the bound in every part
    named, every set of its subtree, each a superset of the node, has
    those dimensions too; the span at n^2 holds the walk at n, so a part
    held but not named is at its bound as well.  ``_grow`` writes them for
    each set of the subtree, found through ``kids``, and copies no state
    and grows none there.  No check of the engine is lost: grown, such a
    set would do no engine work either, since the walk stops at rank n,
    the span grows only with the walk, and ``_LieEngine.extend`` returns
    at its bound n^2.
    """
    n = session.n
    full = tuple(n if name == "walk" else n * n for name in parts)
    dims = dict.fromkeys(subsets)
    kids: dict = {}
    for s in dims:
        for i in range(len(s)):
            kids.setdefault(s[:i], set()).add(s[i])
    stack = [((), _NodeState(session, parts=parts))]
    while stack:
        parent, base = stack.pop()
        children = sorted(kids.get(parent, ()))
        for j in children:
            members = parent + (j,)
            state = base if j == children[-1] else base.copy()
            _extend_state(state, session, j)
            got = tuple(getattr(state, name).dim for name in parts)
            if got == full:
                below = [members]
                while below:
                    node = below.pop()
                    if node in dims:
                        dims[node] = full
                    below.extend(node + (k,) for k in kids.get(node, ()))
                continue
            if members in dims:
                dims[members] = got
            if members in kids:
                stack.append((members, state))
    return dims


def _dimensions(a: PatternMatrix, members: tuple, parts: tuple) -> tuple:
    """The exact dimensions named by ``parts`` for (A, members), in that order.

    The one place that chooses between the modular and the exact route of
    the walk and the span, and the decisions' one check of the Lie-closure
    cap, made before any work when ``parts`` names the Lie part.  The rule:
    a modular walk answers only at full rank.  Modulo the prime the walk
    rank is at most the rational one, so a full modular walk is exact and
    the span beside it is n^2; a short one proves nothing, so it grows no
    span, and the walk and the span are grown exactly, once.  A false
    short (an exact walk longer than the modular one) costs no more than a
    true one; ``ci/test_scale.py`` makes one on purpose at order 40.  The
    walk stages grow states along ``members`` by ``_extend_state``, and
    the dimensions are read from the one state kept:

    1. Modulo the prime, the walk, and in the same state the span when it
       is asked, grown once the walk is full.
    2. Only when that walk is short, exactly, the walk and the span when it
       is asked.
    3. For the Lie part, its bound from the walk rank r and delta
       (``_LieEngine``, lemma 1): delta is 1 exactly when some row of A
       (A is symmetric) lies outside the exact walk's span K, and 0 when
       r = n; the bound is r^2 + delta, whose root less one, r - 1, is the
       hub-row rank that certifies it.  When the walk of the first
       control vertex j alone already has rank r, read off the same state
       (modular or exact) that gives r, the dimension is r^2 + delta with
       no closure.  Proof: u_k = A^k e_j for k < r is then a basis of K.
       With entry j dropped, u_1 ... u_{r-1} stay independent, since a
       combination of them that is zero off j is a multiple of e_j = u_0.
       By the hub-walk identity of ``_LieEngine``, they span what the hub
       rows of the chain [E_jj, A], [A, [E_jj, A]], ... span, and those
       are elements of L, so the hub rows of j reach rank r - 1 and lemma
       1 gives r^2 + delta over Q.  Modulo p the state is kept only when
       its walk is full, so the rule fires there only when vertex j's own
       modular walk has rank n, and then both exact ranks are n too.  No
       engine is built, so ``analyze`` on any one-vertex set runs no
       closure.  Otherwise one exact engine takes A and every projector in
       one call, so its hub rows see every control vertex (grown one
       vertex at a time, cycle-40 from {1, 5} first ran all 442 elements
       of the closure from {1}).  A comes first, so the first
       control vertex becomes the hub and its walk feeds the hub rows
       before the other projectors go in; if it stalls, the closure leads
       with the hub rows.  It stops once they reach rank r - 1, at
       dimension r^2 + delta, or runs to its fixpoint short of that bound.
       Past the default order cap it warns once it goes on past the hub
       walk, as ``lie_closure`` does.

    So a short walk gives a short Lie closure by construction here, as the
    span identity does (``_consistency``), and so does a full walk whose
    first control vertex spans it: kalman_iff_lie checks the engine
    against itself in one-shot reports.  The sweeps still grow every
    closure (``_grow``), and ``tests/oracles.py`` still checks it.  The
    lemma keeps the one-shot closures short: ``analyze`` on the adjacency
    matrix of cycle-40 takes 3.3 to 3.4 ms from {1}, with no closure, and
    19.6 to 19.8 ms from {1, 5}, whose closure stops at 37^2 + 1 where its
    fixpoint would keep 1,370 elements (min of 7 and of 3 CPU runs, two
    processes, 2-CPU x86, Python 3.11).

    The modular walk, on one-digit residue powers (``_PRIME``), pays off
    at large n: from vertex 1 of complete-60 with a ``random:7`` matrix it
    takes 16 to 17 ms and the exact one 2.9 to 3.0 s, while at n <= 8 the
    exact one is still a little faster, 0.089 to 0.092 against 0.097 to
    0.100 ms on path-8 (min of 3 and of 15 rounds of 200 CPU runs, four
    processes, 2-CPU x86, Python 3.11).
    """
    n = a.n
    if "lie" in parts:
        check_lie_order(n)
    session = _Session(a)

    def grown(modulus, held) -> tuple:
        """The state grown along ``members``, and its walk rank after the first."""
        state, first = _NodeState(session, modulus, held), None
        for j in members:
            _extend_state(state, session, j)
            first = first or state.walk.dim
        return state, first

    held = ("walk", "pspan") if "pspan" in parts else ("walk",)
    state, first = grown(_PRIME, held)
    if state.walk.dim < n:
        state, first = grown(None, held)
    dims = {name: getattr(state, name).dim for name in held}
    if "lie" in parts:
        r = dims["walk"]
        delta = r < n and not all(map(state.walk.contains, session.int_a))
        bound = r * r + delta
        if first == r:
            # the first control vertex's walk spans K: it is the certificate
            dims["lie"] = bound
        else:
            gens = [session.int_a] + [_projector_rows(n, j - 1) for j in members]
            dims["lie"] = _LieEngine(n).extend(gens, bound)
    return tuple(dims[name] for name in parts)


def kalman_controllable(a: PatternMatrix, s) -> tuple:
    """Kalman decision: (walk_rank == n, walk_rank), both exact.

    A modular walk answers only at full rank, where it is a proof; a short
    one is grown again exactly (``_dimensions``).

    Raises:
      ValueError: empty control set or labels out of range.
    """
    (r,) = _dimensions(a, _control_set(a, s), ("walk",))
    return r == a.n, r


def p_span_dim(a: PatternMatrix, s) -> int:
    """Dimension of span{A^m e_k e_j^T A^l : k, j in S, 0 <= m, l <= n-1}.

    Since A is symmetric, e_j^T A^l = (A^l e_j)^T, so each product is the
    outer product u w^T of two walk-matrix columns, and the products over
    all pairs k, j in S are the outer products of all pairs of columns.
    The engine grows their span from the row-major outer products of the
    walk's echelon rows, one per ordered pair.  Their leads are distinct,
    so the span keeps its set of leads alone (``intlinalg.LeadBasis``) and
    has dimension walk_rank^2 (``_extend_state``).  Each product goes in
    as its support mask, one multiplication of two walk rows' masks, by
    the same rule beside the exact and the modular walk.  The result is
    exact (``_dimensions``): a modular walk answers only at full rank,
    where its span is n^2, and a short one grows no span, so the walk and
    the span are then grown exactly, once.  Path-40 with a ``random:7``
    matrix from S = {1}, 1,600 products, takes 5.2 to 5.6 ms, and
    complete-60 from {1}, 3,600 products, 20 to 22 ms (min of 5 CPU runs,
    two processes, 2-CPU x86, Python 3.11).

    Raises:
      ValueError: empty control set or labels out of range.
    """
    (dim,) = _dimensions(a, _control_set(a, s), ("pspan",))
    return dim


def lie_controllable(a: PatternMatrix, s) -> tuple:
    """Lie decision: (lie_dim == n^2, lie_dim) for L(A, {e_j : j in S}).

    Both are exact.  The dimension is read off the walk rank r
    (``_dimensions``): n^2 on a full walk, and r^2 + delta on a short one,
    proved once row j of the elements, for a control vertex j, reaches
    rank r - 1 (lemma 1, ``_LieEngine``); delta is 1 exactly when some
    column of A lies outside the walk's span.  When the walk of the first
    control vertex alone has rank r, its powers are such rows, so no
    closure is built: every one-vertex set is such a case.  Otherwise one
    exact closure runs, bounded by r^2 + delta, and only counts the
    dimension (``lie_closure`` also builds the canonical basis it
    returns); past the default order cap it warns if it goes on past its
    hub walk, as ``lie_closure`` does.  So a short walk gives a short
    closure by construction, as it gives the span r^2; the sweeps still grow every closure and
    ``tests/oracles.py`` still checks it.

    Raises:
      ValueError: empty control set, labels out of range, or an order past
        the Lie-closure cap (checked by ``_dimensions`` before any work).
    """
    (dim,) = _dimensions(a, _control_set(a, s), ("lie",))
    return dim == a.n * a.n, dim


@dataclass(frozen=True)
class ControllabilityReport:
    """Everything analyze() decides about one (matrix, control set) instance.

    ``consistency`` holds one record per cross-check, each a dict with
    keys check, status, detail; status is one of "passed", "violated",
    "hypothesis not met".  A violated record means a proved statement
    failed on a concrete instance, which callers treat as an error.
    """

    n: int
    control_set: tuple
    walk_rank: int
    kalman_controllable: bool
    p_span_dim: int
    lie_dim: int
    lie_controllable: bool
    zfs_status: bool
    hypotheses: dict
    consistency: tuple

    @property
    def theorem_violations(self) -> tuple:
        return tuple(c for c in self.consistency if c["status"] == CHECK_VIOLATED)

    def to_dict(self) -> dict:
        return _image(self)


def report_from_dict(d: dict) -> ControllabilityReport:
    """Rebuild a report from its to_dict() image (inverse round-trip)."""
    return _from_image(ControllabilityReport, d)


def _image(value):
    """The JSON image of a record: a dataclass's fields in order, tuples as lists, dicts copied."""
    if is_dataclass(value):
        return {f.name: _image(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [_image(x) for x in value]
    if isinstance(value, dict):
        return {k: _image(x) for k, x in value.items()}
    return value


def _from_image(cls, d: dict):
    """Rebuild a record dataclass from its ``_image``, lists as tuples.

    A field missing from ``d`` keeps its default.  A ``d`` that is not a
    dict raises ValueError naming its type, and one that lacks a field
    with no default raises ValueError naming the field.
    """
    if not isinstance(d, dict):
        raise ValueError(f"expected a dict, got {type(d).__name__}")
    missing = [f.name for f in fields(cls) if f.name not in d and f.default is MISSING]
    if missing:
        raise ValueError(f"{cls.__name__} image lacks field {', '.join(map(repr, missing))}")

    def frozen(value):
        if isinstance(value, list):
            return tuple(map(frozen, value))
        if isinstance(value, dict):
            return {k: frozen(x) for k, x in value.items()}
        return value

    return cls(**{f.name: frozen(d[f.name]) for f in fields(cls) if f.name in d or f.default is MISSING})


_HYPOTHESIS_TEXT = "requires a connected pattern with same-sign off-diagonal entries"


def _hypotheses(a: PatternMatrix) -> dict:
    """The theorems' hypotheses on A: a connected pattern, same-sign off-diagonal entries."""
    return {"connected": graphs.is_connected(a.pattern), "same_sign": a.sign_class != MIXED}


def _zfs_implies_lie(n: int, lie_dim: int, zfs_status: bool, hyp: bool) -> tuple:
    """The zfs_implies_lie record: a zero forcing set is Lie controllable.

    Asserted only when ``hyp`` (the hypotheses hold; the sign-mixed and
    disconnected counterexamples are genuine).  It reads the Lie dimension
    alone, so the implication sweep grows nothing else.
    """
    if not hyp:
        zfs_lie = (CHECK_SKIPPED, _HYPOTHESIS_TEXT)
    elif not zfs_status:
        zfs_lie = (CHECK_PASSED, "control set is not a zero forcing set, nothing to imply")
    elif lie_dim == n * n:
        zfs_lie = (CHECK_PASSED, "zero forcing set and lie_controllable")
    else:
        zfs_lie = (CHECK_VIOLATED, f"zero forcing set with lie_dim {lie_dim} < {n * n}")
    return ("zfs_implies_lie", *zfs_lie)


def _consistency(n: int, walk_rank: int, p_dim: int, lie_dim: int, zfs_status: bool, hyp: bool) -> tuple:
    """The theorem checks on one instance's numbers: (check, status, detail) each.

    In order: the Kalman and Lie verdicts agree, only when ``hyp`` (the
    hypotheses hold); the ``_zfs_implies_lie`` record; and p_span_dim =
    walk_rank^2, unconditionally.  ``analyze`` reports these records and
    the sweeps count them, so both read one rule.

    The engine grows the span from the outer products of the walk's
    echelon rows, r^2 independent ones for walk rank r (``_extend_state``),
    so span_dimension_identity holds by construction and checks the engine
    against itself.  In one-shot reports so does kalman_iff_lie whenever
    the walk of the first control vertex alone spans the walk's span,
    every one-vertex set included: ``_dimensions`` then reads the Lie
    dimension r^2 + delta off that walk.  The sweeps (``control._grow``)
    still grow and certify every closure from its own rows, so there
    kalman_iff_lie checks the walk against a Lie dimension no walk rank
    enters, and the oracles' literal products
    (``tests/oracles.py::pspan_dim_bruteforce``) check the span.
    """
    if not hyp:
        kalman_lie = (CHECK_SKIPPED, _HYPOTHESIS_TEXT)
    elif (walk_rank == n) == (lie_dim == n * n):
        kalman_lie = (CHECK_PASSED, f"walk_rank {walk_rank} and lie_dim {lie_dim} agree on controllability")
    else:
        kalman_lie = (CHECK_VIOLATED, f"walk_rank {walk_rank} but lie_dim {lie_dim}")
    if p_dim == walk_rank * walk_rank:
        span = (CHECK_PASSED, f"p_span_dim {p_dim} equals walk_rank^2")
    else:
        span = (CHECK_VIOLATED, f"p_span_dim {p_dim} but walk_rank {walk_rank}")
    return (("kalman_iff_lie", *kalman_lie), _zfs_implies_lie(n, lie_dim, zfs_status, hyp),
            ("span_dimension_identity", *span))


def analyze(a: PatternMatrix, s) -> ControllabilityReport:
    """Run every controllability decision on one instance and cross-check.

    The consistency records are those of ``_consistency``: the equivalence
    of the Kalman and Lie verdicts and the forcing-set implication under
    the hypotheses of ``_hypotheses``, plus the unconditional identity
    p_span_dim = walk_rank^2.  One ``_dimensions`` call grows all three;
    when the first control vertex's walk spans the whole walk it reads
    lie_dim off that walk, so kalman_iff_lie holds by construction there
    and the sweeps, which grow every closure, are what check it.

    Raises:
      ValueError: empty control set, labels out of range, or an order past
        the Lie-closure cap (checked by ``_dimensions`` before any work).
    """
    members = _control_set(a, s)
    walk_rank, p_dim, lie_dim = _dimensions(a, members, _PARTS)
    zfs_status = is_zfs(a.pattern, members)
    hypotheses = _hypotheses(a)
    checks = _consistency(a.n, walk_rank, p_dim, lie_dim, zfs_status, all(hypotheses.values()))
    return ControllabilityReport(
        n=a.n,
        control_set=members,
        walk_rank=walk_rank,
        kalman_controllable=walk_rank == a.n,
        p_span_dim=p_dim,
        lie_dim=lie_dim,
        lie_controllable=lie_dim == a.n * a.n,
        zfs_status=zfs_status,
        hypotheses=hypotheses,
        consistency=tuple(
            {"check": check, "status": status, "detail": detail} for check, status, detail in checks
        ),
    )


def distance_power_defects(a: PatternMatrix, session=None) -> tuple:
    """Pairs where the distance-power entry (A^d(k,j))_{kj} vanishes.

    For a connected pattern with same-sign off-diagonal entries every
    walk of minimal length d(k, j) contributes a product of one sign, so
    the entry cannot cancel and the result should be empty.  Pairs in
    different components are skipped.  Returns a tuple of (k, j, d) with
    k < j, in ascending order.

    Each vertex j is walked once: one breadth-first pass over the pattern
    gives the layers of vertices at distance d = 0, 1, ... from j, and the
    entry (k, j) for k in layer d is entry k of A^d e_j, which power d of
    ``_walk`` holds up to a nonzero scale.  The powers are drawn layer by
    layer, so none past the last layer is made, and they never run out
    first: there are at most n layers, and A is symmetric, so A^d e_j is
    zero only when A e_j is, when j has no neighbour and one layer.
    The integer matrix is read from ``session``, a ``_Session`` of ``a``
    (a fresh one by default).
    """
    n = _pattern(a).n
    int_a = (session or _Session(a)).int_a
    nbrs = graphs.neighbours(a.pattern)
    defects = []
    for j in range(2, n + 1):
        before, layer = set(), {j}
        for d, u in enumerate(_walk(int_a, j - 1)):
            defects += [(k, j, d) for k in layer if k < j and not u[k - 1]]
            # a neighbour of layer d lies in layer d - 1, d or d + 1
            before, layer = layer, {w for v in layer for w in nbrs.get(v, ())} - layer - before
            if not layer:
                break
    return tuple(sorted(defects))
