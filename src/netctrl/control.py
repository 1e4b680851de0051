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
by one control vertex.  The one-shot decisions grow a fresh root by each
control vertex in turn; the sweeps in ``harness`` grow each child of a
subset prefix tree from its parent.

Every reported number is exact.  A full result (walk rank n, product-span
dimension n^2, Lie dimension n^2) is first sought modulo one fixed prime on
integer-scaled data: each element found there is the reduction of an
integer combination of genuine elements, so a dimension modulo the prime is
at most the rational one and a full one proves it.  Only a deficient result
is recomputed over the integers (``_dimensions``).
"""

from __future__ import annotations

import random
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

DEFAULT_LIE_MAX_ORDER = 12

# the largest prime below 2^30: residues stay one-digit Python integers
_PRIME = 1_073_741_789


def check_lie_order(n: int, max_order=None) -> None:
    """Raise ValueError for an order past the Lie-closure cap (``forcing.check_order``).

    The cap is ``max_order``, by default 12 or the NETCTRL_MAX_ORDER
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
      ValueError: if the matrix is not square or not exactly symmetric.
    """
    if not isinstance(m, RationalMatrix):
        m = matrix(m)
    if not m.is_square():
        raise ValueError(f"expected a square matrix, got {m.rows}x{m.cols}")
    if not m.is_symmetric():
        raise ValueError("matrix is not symmetric")
    n = m.rows
    edges = set()
    positive = negative = False
    for k in range(n):
        row = m.entries[k]
        for j in range(k + 1, n):
            x = row[j]
            if x:
                edges.add((k + 1, j + 1))
                if x > 0:
                    positive = True
                else:
                    negative = True
    if positive and negative:
        sign_class = MIXED
    elif negative:
        sign_class = ALL_NEGATIVE
    else:
        sign_class = ALL_POSITIVE
    return PatternMatrix(n=n, matrix=m, sign_class=sign_class, pattern=graphs.graph(n, edges))


def adjacency_matrix(g: Graph) -> PatternMatrix:
    """The 0/1 adjacency matrix of ``g`` (zero diagonal)."""
    nbrs = graphs.adjacency_sets(g)
    rows = tuple(
        tuple(Fraction(1 if v in nbrs[u] else 0) for v in g.vertices)
        for u in g.vertices
    )
    return pattern_matrix(RationalMatrix(rows))


def laplacian_matrix(g: Graph) -> PatternMatrix:
    """The combinatorial Laplacian D - A; off-diagonal entries are -1 on edges."""
    nbrs = graphs.adjacency_sets(g)
    rows = tuple(
        tuple(
            Fraction(len(nbrs[u]) if u == v else (-1 if v in nbrs[u] else 0))
            for v in g.vertices
        )
        for u in g.vertices
    )
    return pattern_matrix(RationalMatrix(rows))


def random_same_sign_matrix(g: Graph, seed: int) -> PatternMatrix:
    """Seeded random integer matrix with pattern ``g``.

    Off-diagonal entries on edges are uniform in 1..9 and the diagonal is
    uniform in -9..9, drawn from ``random.Random(seed)`` in a fixed order
    (sorted edges first, then the diagonal), so a seed pins the matrix.
    """
    rng = random.Random(seed)
    entries = [[Fraction(0)] * g.order for _ in range(g.order)]
    for u, v in sorted(g.edges):
        w = Fraction(rng.randint(1, 9))
        entries[u - 1][v - 1] = w
        entries[v - 1][u - 1] = w
    for j in range(g.order):
        entries[j][j] = Fraction(rng.randint(-9, 9))
    return pattern_matrix(RationalMatrix(tuple(tuple(row) for row in entries)))


def parse_kind(kind: str) -> tuple:
    """Parse a matrix-kind spec into (name, seed, label_invariant).

    "adjacency" and "laplacian" carry no seed.  They are label-invariant:
    relabeling the graph by a permutation P turns the matrix A into
    P A P^T, so every rank and dimension decided here is unchanged once the
    control set is relabeled too.  "random:SEED" draws its weights in
    sorted-edge order, so a relabeled graph gets other weights and the kind
    is not label-invariant.

    Raises:
      ValueError: unknown or malformed kind spec.
    """
    if kind in ("adjacency", "laplacian"):
        return kind, None, True
    if kind.startswith("random:"):
        try:
            return "random", int(kind.split(":", 1)[1]), False
        except ValueError:
            raise ValueError(f"malformed matrix kind {kind!r}; want random:SEED") from None
    raise ValueError(f"unknown matrix kind {kind!r}; want adjacency, laplacian, or random:SEED")


def build_matrix(g: Graph, kind: str) -> PatternMatrix:
    """Build a matrix for ``g`` from a kind spec.

    Args:
      g: pattern graph.
      kind: "adjacency", "laplacian", or "random:SEED" with an integer seed.

    Raises:
      ValueError: unknown or malformed kind spec.
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


def _control_set(a: PatternMatrix, s) -> tuple:
    members = vertex_set(s, a.n)
    if not members:
        raise ValueError("control set must be nonempty")
    return members


def _int_rows(m: RationalMatrix):
    """``m`` scaled to a primitive integer matrix of row tuples; None if zero."""
    flat = intlinalg.clear_denominators([x for row in m.entries for x in row])
    if flat is None:
        return None
    k = m.cols
    return tuple(flat[i * k : (i + 1) * k] for i in range(m.rows))


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


def _span_parts(u, w) -> list:
    """The packed parts of the outer product u w^T: symmetric, then skew unless u = w.

    The span of outer products u w^T is closed under transpose, so u w^T
    and w u^T enter it through their symmetric part u w^T + w u^T and skew
    part u w^T - w u^T (only the former when u = w), an invertible change
    of generators.  Both parts go into one echelon basis of ambient n^2
    whose coordinates are the i <= j entries of a symmetric matrix followed
    by the i < j entries of a skew one, so a part is zero on the other block
    and only meets rows of its own kind.  Each part is a genuine integer
    element of the span, so a dimension modulo a prime is still at most the
    exact one; modulo 2 the change of generators is not invertible (the
    symmetric part has an even diagonal), and there the span can come out
    smaller.
    """
    n = len(u)
    if u == w:
        return [[x * y for i, x in enumerate(u) for y in u[i:]] + [0] * (n * (n - 1) // 2)]
    sym, skew = [], []
    for i in range(n):
        ui, wi = u[i], w[i]
        sym.append(2 * ui * wi)
        for j in range(i + 1, n):
            a, b = ui * w[j], wi * u[j]
            sym.append(a + b)
            skew.append(a - b)
    return [sym + [0] * len(skew), [0] * len(sym) + skew]


_SYM, _SKEW = 0, 1


@lru_cache(maxsize=None)
def _packing(n: int, parity: int) -> list:
    """The (i, j) positions a packed matrix of this parity stores, in order."""
    return [(i, j) for i in range(n) for j in range(i + parity, n)]


def _ad_map(g, n: int) -> tuple:
    """ad_g = [g, .] on packed coordinates, for a symmetric integer matrix g.

    Entry [parity][k] lists the (target, coefficient) pairs of [g, U_k] in
    the other parity's packing, U_k the packed unit of that parity.  As g is
    symmetric, [g, E_rc] is row r of g placed in column c minus row c of g
    placed in row r: O(n) pairs per unit, fewer where g is sparse.
    """
    rows = [[(a, v) for a, v in enumerate(row) if v] for row in g]
    maps = []
    for parity in (_SYM, _SKEW):
        # U_k is E_ij + E_ji (E_ii when i = j) or, skew, E_ij - E_ji
        target = {pos: k for k, pos in enumerate(_packing(n, 1 - parity))}
        images = []
        for i, j in _packing(n, parity):
            acc: dict = {}
            for r, c, s in ((i, j, 1),) if i == j else ((i, j, 1), (j, i, 1 - 2 * parity)):
                for a, v in rows[r]:
                    acc[a, c] = acc.get((a, c), 0) + s * v
                for b, v in rows[c]:
                    acc[r, b] = acc.get((r, b), 0) - s * v
            images.append(tuple((target[pos], v) for pos, v in acc.items() if v and pos in target))
        maps.append(tuple(images))
    return tuple(maps)


@lru_cache(maxsize=None)
def _projector_ad(n: int, j: int) -> tuple:
    """``_ad_map`` of the projector e_j e_j^T (0-based j)."""
    return _ad_map([[int(r == c == j) for c in range(n)] for r in range(n)], n)


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
    entries of a skew one); the dimension is the sum of the two.

    ``elems`` spans the closure: one (parity, packed) pair per insert that
    grew it, the generator itself for a generator and the reduced residue
    for a bracket.  ``gens`` holds, per generator that grew the span, its
    ``_ad_map`` and whether it is a projector e_j e_j^T.  A generator
    already in the span lies in the algebra of the earlier ones, so it adds
    nothing and is dropped.  ``pending`` holds the (generator, element)
    index pairs not yet bracketed: a new element is queued against every
    generator, and a new generator against every earlier element.
    Projector pairs go to the front, since their maps are the sparsest.
    ad_g is linear on packed coordinates, so every bracket is one loop:
    [g, X] is the sum of x_k times the image of the unit U_k over the
    nonzero entries x_k of X.  A projector's map is cached per (n, j); any
    other generator's is built when it is added, so A's once per root
    engine, shared by its copies.  ``extend`` may be called again with more
    generators and only the new pairs are bracketed, which is what lets a
    harness share closure work along chains of growing control sets.
    Scaling spanning-set elements changes neither the span nor its closure.

    With a prime ``modulus`` the same closure runs over the integers modulo
    that prime and brackets are reduced instead of made primitive.  Each
    part's rows are reductions of integer combinations of genuine integer
    elements of that part, so each part's dimension modulo any prime, 2
    included, is at most its rational one, and n^2 there proves n^2.
    Modulo 2 the parts need not form a direct sum, which only lowers the
    modular result.
    """

    __slots__ = ("side", "bases", "elems", "gens", "pending")

    def __init__(self, side: int, modulus=None):
        self.side = side
        self.bases = (
            intlinalg.EchelonBasis(side * (side + 1) // 2, modulus),
            intlinalg.EchelonBasis(side * (side - 1) // 2, modulus),
        )
        self.elems: list = []
        self.gens: list = []
        self.pending = deque()

    @property
    def dim(self) -> int:
        return self.bases[_SYM].dim + self.bases[_SKEW].dim

    def copy(self) -> "_LieEngine":
        dup = _LieEngine.__new__(_LieEngine)
        dup.side = self.side
        dup.bases = (self.bases[_SYM].copy(), self.bases[_SKEW].copy())
        dup.elems = list(self.elems)
        dup.gens = list(self.gens)
        dup.pending = deque(self.pending)
        return dup

    def _offer(self, parity: int, packed, residue: bool = True) -> bool:
        """Insert a packed element; keep it and return True if the span grew.

        With ``residue`` (a bracket) the element kept is the row the insert
        added, zero on every earlier pivot column, so more of its projector
        brackets vanish before they reach an insert than those of the raw
        bracket would.  Without it (a generator) it is kept as offered.
        """
        row = self.bases[parity].insert(packed)
        if row is None:
            return False
        self.elems.append((parity, row if residue else packed))
        return True

    def _matrix(self, parity: int, packed) -> tuple:
        """The full integer matrix of a packed element."""
        n = self.side
        x = [[0] * n for _ in range(n)]
        sign = -1 if parity == _SKEW else 1
        for (i, j), v in zip(_packing(n, parity), packed):
            x[i][j] = v
            x[j][i] = sign * v
        return tuple(map(tuple, x))

    def _queue(self, pairs) -> None:
        for g, e in pairs:
            if self.gens[g][1]:
                self.pending.appendleft((g, e))
            else:
                self.pending.append((g, e))

    def _normalize(self, packed):
        """A packed integer element as it is offered; None when it is zero.

        Exact: made primitive.  Modulo p: left for the insert to reduce, so
        only checked for a nonzero residue.
        """
        p = self.bases[_SYM].modulus
        if p is None:
            return intlinalg.primitive(packed)
        return packed if any(x % p for x in packed) else None

    def _bracket(self, ad, elem):
        """[g, elem] packed in the opposite parity and normalized, ``ad`` the map of g; None when zero."""
        parity, packed = elem
        out = [0] * self.bases[1 - parity].ambient
        for x, image in zip(packed, ad[parity]):
            if x:
                for t, v in image:
                    out[t] += v * x
        return self._normalize(out)

    def extend(self, int_generators, cap: int) -> int:
        """Add symmetric generators, restore bracket closure, return the dimension."""
        for gen in int_generators:
            if self.dim >= cap:
                return self.dim
            packed = self._normalize([v for i, row in enumerate(gen) for v in row[i:]])
            # the element is the generator itself, not its residue: then
            # [gen, gen] = 0 and [g_old, gen] = -[gen, g_old], so only the
            # new generator's pairs are queued
            if packed is None or not self._offer(_SYM, packed, residue=False):
                continue
            support = [k for k, v in enumerate(packed) if v]
            i, j = _packing(self.side, _SYM)[support[0]]
            # one nonzero, on the diagonal: the projector e_j e_j^T
            projector = len(support) == 1 and i == j
            self.gens.append((_projector_ad(self.side, j) if projector else _ad_map(gen, self.side), projector))
            g = len(self.gens) - 1
            self._queue((g, e) for e in range(len(self.elems) - 1))
        gens, elems, pending = self.gens, self.elems, self.pending
        while pending and self.dim < cap:
            g, e = pending.popleft()
            parity = 1 - elems[e][0]
            packed = self._bracket(gens[g][0], elems[e])
            if packed is not None and self._offer(parity, packed):
                e = len(elems) - 1
                self._queue((h, e) for h in range(len(gens)))
        return self.dim


def _warn_if_past_default(n: int, stacklevel: int = 3) -> None:
    """Warn that an exact closure past the default order cap may be very slow."""
    if n > DEFAULT_LIE_MAX_ORDER:
        warnings.warn(f"Lie closure on order {n} runs exact arithmetic on length-{n * n} vectors and may be very slow", stacklevel=stacklevel)


def lie_closure(generators, cap=None, max_order=None) -> tuple:
    """Smallest subspace containing the generators and closed under [x, y].

    Args:
      generators: symmetric square RationalMatrix values (or nested
        rationals), all of one side n.  The closure is computed on its
        symmetric and skew parts separately, which needs every generator
        symmetric.
      cap: stop once the dimension reaches this value; defaults to n^2,
        the dimension of gl(n, R), which no closure exceeds.
      max_order: refuse sides beyond this; exact closure cost grows
        steeply with n (vectors of length n^2, O(dim·|G|) brackets for
        |G| generators).
        Defaults to 12, or the NETCTRL_MAX_ORDER environment variable;
        going past 12 emits a warning.

    Returns:
      (dim, basis) with basis the MatrixSpaceBasis of the closure in
      row-major coordinates, computed exactly; its canonical reduced form
      is what ``vectors()``, ``matrices()`` and ``==`` read.

    Raises:
      ValueError: no generators, mismatched sides, a generator that is not
        symmetric, or order over max_order.
    """
    mats = [m if isinstance(m, RationalMatrix) else matrix(m) for m in generators]
    if not mats:
        raise ValueError("need at least one generator")
    n = mats[0].rows
    for m in mats:
        if not m.is_square() or m.rows != n:
            raise ValueError("generators must be square matrices of one common side")
        if not m.is_symmetric():
            raise ValueError("generators must be symmetric")
    check_lie_order(n, max_order)
    _warn_if_past_default(n)
    if cap is None:
        cap = n * n
    int_gens = [g for g in map(_int_rows, mats) if g is not None]
    engine = _LieEngine(n)
    dim = engine.extend(int_gens, cap)
    basis = MatrixSpaceBasis(n)
    for parity, packed in engine.elems:
        basis.insert(engine._matrix(parity, packed))
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

    ``int_a`` is A scaled to a primitive integer matrix, None for A = 0.
    ``columns(j)`` is the walk of vertex j, built once on demand: e_j, then
    each A v made primitive, n vectors at most.  Each is a nonzero multiple
    of a walk-matrix column A^k e_j, so they span what block j spans and
    their outer products span its products.  Once a power is zero every
    later one is too, and those are left out.  ``columns(j, p)`` reduces
    the same integer columns modulo p, so A is cleared of denominators and
    content before anything is reduced.
    """

    __slots__ = ("a", "n", "int_a", "_cols", "_defects")

    def __init__(self, a: PatternMatrix):
        self.a = a
        self.n = a.n
        self.int_a = _int_rows(a.matrix)
        self._cols: dict = {}
        self._defects = None

    def columns(self, j: int, modulus=None) -> tuple:
        cols = self._cols.get((j, modulus))
        if cols is not None:
            return cols
        if modulus is not None:
            cols = tuple(tuple(x % modulus for x in u) for u in self.columns(j))
        else:
            v = tuple(int(i == j - 1) for i in range(self.n))
            cols = [v]
            for _ in range(self.n - 1 if self.int_a is not None else 0):
                v = intlinalg.primitive([sum(map(mul, row, v)) for row in self.int_a])
                if v is None:
                    break
                cols.append(v)
            cols = tuple(cols)
        self._cols[j, modulus] = cols
        return cols

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
    so a caller pays only for what it reads.  With a prime ``modulus``
    every part runs modulo it.
    """

    __slots__ = ("modulus", "walk", "pspan", "lie")

    def __init__(self, session: _Session, modulus=None, parts=_PARTS):
        n = session.n
        self.modulus = modulus
        self.walk = intlinalg.EchelonBasis(n, modulus) if "walk" in parts else None
        self.pspan = intlinalg.EchelonBasis(n * n, modulus) if "pspan" in parts else None
        self.lie = None
        if "lie" in parts:
            self.lie = _LieEngine(n, modulus)
            if session.int_a is not None:
                self.lie.extend([session.int_a], n * n)

    def copy(self) -> "_NodeState":
        dup = _NodeState.__new__(_NodeState)
        dup.modulus = self.modulus
        for name in _PARTS:
            part = getattr(self, name)
            setattr(dup, name, None if part is None else part.copy())
        return dup


def _extend_state(state: _NodeState, session: _Session, members: tuple, j: int) -> None:
    """Grow a parent's bases by control vertex j (members already include j)."""
    n = session.n
    cols_j = session.columns(j, state.modulus)
    if state.walk is not None and state.walk.dim < n:
        for col in cols_j:
            state.walk.insert(col)
    if state.lie is not None:
        proj = tuple(tuple(int(r == c == j - 1) for c in range(n)) for r in range(n))
        state.lie.extend([proj], n * n)
    span = state.pspan
    amb = n * n
    if span is None or span.dim >= amb:
        return
    # new span products are exactly the pairs involving j, each unordered
    # pair of columns taken once; stop as soon as either part fills the span
    for k in members:
        cols_k = session.columns(k, state.modulus)
        for m, ckm in enumerate(cols_k):
            for ckj in cols_j[m if k == j else 0:]:
                for part in _span_parts(ckm, ckj):
                    if span.insert(part) and span.dim == amb:
                        return


def _dimensions(a: PatternMatrix, members: tuple, parts: tuple) -> tuple:
    """The exact dimensions named by ``parts`` for (A, members), in that order.

    This is the one place that chooses between the modular and the exact
    route.  Each part is grown on a fresh root, one control vertex at a
    time.  Modulo the prime a dimension is at most the rational one, so a
    full one (walk rank n, span or Lie dimension n^2) proves it; any other
    is recomputed over the integers.

    The walk is taken first, alone, modulo the prime.  When its rank there
    is below n, the modular span and closure cannot be full either, so
    every part goes straight to the exact route.  Every product part has
    its image in the span U of the reduced walk columns, a proper subspace.
    The Krylov space of A modulo the prime from the e_j (j in S) lies in U,
    so it is proper too; it holds each e_j and is mapped into itself by A
    and by each e_j e_j^T, hence by every bracket, which not every matrix
    does.  Skipping those modular attempts saves their cost and changes no
    answer, since the exact route decides alone.
    """
    n = a.n
    session = _Session(a)
    full = {"walk": n, "pspan": n * n, "lie": n * n}

    def grown(modulus, held) -> dict:
        state = _NodeState(session, modulus, held)
        for k, j in enumerate(members, 1):
            _extend_state(state, session, members[:k], j)
        return {name: getattr(state, name).dim for name in held}

    dims = grown(_PRIME, ("walk",))
    exact = parts
    if dims["walk"] == n:
        rest = [name for name in parts if name != "walk"]
        if rest:
            dims.update(grown(_PRIME, rest))
        exact = [name for name in parts if dims[name] < full[name]]
    if exact:
        if "lie" in exact:
            _warn_if_past_default(n, stacklevel=4)
        dims.update(grown(None, exact))
    return tuple(dims[name] for name in parts)


def kalman_controllable(a: PatternMatrix, s) -> tuple:
    """Kalman decision: (walk_rank == n, walk_rank), both exact.

    A full rank is certified modulo a prime; a smaller rank there is
    recomputed exactly.

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
    That set is closed under transpose, so it spans what the symmetric and
    skew parts of u w^T span over unordered pairs {u, w}, which is what is
    inserted (see ``_span_parts``).  Each column is scaled to a primitive
    integer vector and zero columns are skipped, which changes no span.
    Insertion stops early only when the span is already all of gl(n, R).

    The result is exact.  The span is first taken modulo a prime, where
    n^2 certifies n^2; any smaller result is recomputed exactly.

    Raises:
      ValueError: empty control set or labels out of range.
    """
    (dim,) = _dimensions(a, _control_set(a, s), ("pspan",))
    return dim


def lie_controllable(a: PatternMatrix, s) -> tuple:
    """Lie decision: (lie_dim == n^2, lie_dim) for L(A, {e_j : j in S}).

    Both are exact.  The closure is first run modulo a prime, where n^2
    certifies n^2; any smaller dimension is recomputed by the same engine
    over the integers, which only counts the dimension (``lie_closure``
    also builds the canonical basis it returns).  Past the default order
    cap that exact route warns, as ``lie_closure`` does.

    Raises:
      ValueError: empty control set, labels out of range, or an order past
        the Lie-closure cap.
    """
    members = _control_set(a, s)
    check_lie_order(a.n)
    (dim,) = _dimensions(a, members, ("lie",))
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

    A field missing from ``d`` keeps its default; one without a default
    raises KeyError.
    """
    def frozen(value):
        if isinstance(value, list):
            return tuple(map(frozen, value))
        if isinstance(value, dict):
            return {k: frozen(x) for k, x in value.items()}
        return value

    return cls(**{f.name: frozen(d[f.name]) for f in fields(cls) if f.name in d or f.default is MISSING})


_HYPOTHESIS_TEXT = "requires a connected pattern with same-sign off-diagonal entries"


def _check(name: str, status: str, detail: str) -> dict:
    return {"check": name, "status": status, "detail": detail}


def _hypotheses(a: PatternMatrix) -> dict:
    """The theorems' hypotheses on A: a connected pattern, same-sign off-diagonal entries."""
    return {"connected": graphs.is_connected(a.pattern), "same_sign": a.sign_class != MIXED}


def _consistency(n: int, walk_rank: int, p_dim: int, lie_dim: int, zfs_status: bool, hyp: bool) -> tuple:
    """The theorem checks on one instance's numbers, one record each.

    In order: the Kalman and Lie verdicts agree, and a zero forcing set is
    Lie controllable, both only when ``hyp`` (the hypotheses hold; the
    sign-mixed and disconnected counterexamples are genuine); and
    p_span_dim = walk_rank^2, unconditionally.  ``analyze`` reports these
    records and the sweeps count them, so both read one rule.
    """
    lie = lie_dim == n * n
    if not hyp:
        kalman_lie = (CHECK_SKIPPED, _HYPOTHESIS_TEXT)
        zfs_lie = (CHECK_SKIPPED, _HYPOTHESIS_TEXT)
    else:
        if (walk_rank == n) == lie:
            kalman_lie = (CHECK_PASSED, f"walk_rank {walk_rank} and lie_dim {lie_dim} agree on controllability")
        else:
            kalman_lie = (CHECK_VIOLATED, f"walk_rank {walk_rank} but lie_dim {lie_dim}")
        if not zfs_status:
            zfs_lie = (CHECK_PASSED, "control set is not a zero forcing set, nothing to imply")
        elif lie:
            zfs_lie = (CHECK_PASSED, "zero forcing set and lie_controllable")
        else:
            zfs_lie = (CHECK_VIOLATED, f"zero forcing set with lie_dim {lie_dim} < {n * n}")
    if p_dim == walk_rank * walk_rank:
        span = (CHECK_PASSED, f"p_span_dim {p_dim} equals walk_rank^2")
    else:
        span = (CHECK_VIOLATED, f"p_span_dim {p_dim} but walk_rank {walk_rank}")
    return (_check("kalman_iff_lie", *kalman_lie), _check("zfs_implies_lie", *zfs_lie),
            _check("span_dimension_identity", *span))


def analyze(a: PatternMatrix, s) -> ControllabilityReport:
    """Run every controllability decision on one instance and cross-check.

    The consistency records are those of ``_consistency``: the equivalence
    of the Kalman and Lie verdicts and the forcing-set implication under
    the hypotheses of ``_hypotheses``, plus the unconditional identity
    p_span_dim = walk_rank^2.

    Raises:
      ValueError: empty control set, labels out of range, or an order past
        the Lie-closure cap (checked before any work is done).
    """
    members = _control_set(a, s)
    check_lie_order(a.n)
    walk_rank, p_dim, lie_dim = _dimensions(a, members, _PARTS)
    zfs_status = is_zfs(a.pattern, members)
    hypotheses = _hypotheses(a)
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
        consistency=_consistency(
            a.n, walk_rank, p_dim, lie_dim, zfs_status, all(hypotheses.values())
        ),
    )


def distance_power_defects(a: PatternMatrix, session=None) -> tuple:
    """Pairs where the distance-power entry (A^d(k,j))_{kj} vanishes.

    For a connected pattern with same-sign off-diagonal entries every
    walk of minimal length d(k, j) contributes a product of one sign, so
    the entry cannot cancel and the result should be empty.  Pairs in
    different components are skipped.  Returns a tuple of (k, j, d).
    The walk columns are read from ``session``, a ``_Session`` of ``a``
    (a fresh one by default), so a sweep builds them once per matrix.
    """
    n = a.n
    if session is None:
        session = _Session(a)
    defects = []
    for k in range(1, n + 1):
        for j in range(k + 1, n + 1):
            d = graphs.distance(a.pattern, k, j)
            if d == float("inf"):
                continue
            # the entry is entry k of A^d e_j, which the walk column d of
            # vertex j holds up to a nonzero scale (left out when zero)
            cols = session.columns(j)
            if d >= len(cols) or cols[d][k - 1] == 0:
                defects.append((k, j, d))
    return tuple(defects)
