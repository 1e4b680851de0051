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
"""

from __future__ import annotations

import os
import random
import warnings
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import graphs, intlinalg
from .forcing import is_zfs, vertex_set
from .graphs import Graph
from .linalg import (
    MatrixSpaceBasis,
    RationalMatrix,
    basis_column,
    mat_vec,
    matrix,
    outer,
    rank,
)

ALL_POSITIVE = "all_positive_offdiag"
ALL_NEGATIVE = "all_negative_offdiag"
MIXED = "mixed"

CHECK_PASSED = "passed"
CHECK_VIOLATED = "violated"
CHECK_SKIPPED = "hypothesis not met"

DEFAULT_LIE_MAX_ORDER = 12


def _order_cap(default: int) -> int:
    # NETCTRL_MAX_ORDER overrides the exact-arithmetic cost guardrails
    raw = os.environ.get("NETCTRL_MAX_ORDER")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"NETCTRL_MAX_ORDER must be an integer, got {raw!r}") from None


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


def build_matrix(g: Graph, kind: str) -> PatternMatrix:
    """Build a matrix for ``g`` from a kind spec.

    Args:
      g: pattern graph.
      kind: "adjacency", "laplacian", or "random:SEED" with an integer seed.

    Raises:
      ValueError: unknown or malformed kind spec.
    """
    if kind == "adjacency":
        return adjacency_matrix(g)
    if kind == "laplacian":
        return laplacian_matrix(g)
    if kind.startswith("random:"):
        try:
            seed = int(kind.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed matrix kind {kind!r}; want random:SEED") from None
        return random_same_sign_matrix(g, seed)
    raise ValueError(f"unknown matrix kind {kind!r}")


def projector(j: int, n: int) -> RationalMatrix:
    """The rank-one projector e_j e_j^T (1-based j)."""
    v = basis_column(j, n)
    return outer(v, v)


def _walk_blocks(a: PatternMatrix, members) -> dict:
    """Columns e_j, A e_j, ..., A^{n-1} e_j for each control vertex j."""
    blocks = {}
    for j in members:
        v = basis_column(j, a.n)
        block = []
        for _ in range(a.n):
            block.append(v)
            v = mat_vec(a.matrix, v)
        blocks[j] = block
    return blocks


def walk_matrix(a: PatternMatrix, s) -> RationalMatrix:
    """The n-by-(n·|S|) extended walk matrix of (A, S).

    Column blocks appear in ascending control-vertex order; block j holds
    e_j, A e_j, ..., A^{n-1} e_j.

    Raises:
      ValueError: empty control set or labels out of range.
    """
    members = vertex_set(s, a.n)
    if not members:
        raise ValueError("control set must be nonempty")
    blocks = _walk_blocks(a, members)
    cols = [col for j in members for col in blocks[j]]
    return RationalMatrix(tuple(zip(*cols)))


def kalman_controllable(a: PatternMatrix, s) -> tuple:
    """Kalman decision: (walk_rank == n, walk_rank), both exact."""
    r = rank(walk_matrix(a, s))
    return r == a.n, r


def p_span_dim(a: PatternMatrix, s) -> int:
    """Dimension of span{A^m e_k e_j^T A^l : k, j in S, 0 <= m, l <= n-1}.

    Every product in the index set is inserted into one matrix-space
    basis; since A is symmetric, e_j^T A^l = (A^l e_j)^T, so each product
    is the outer product of two walk-matrix columns.  Each column is first
    scaled to a primitive integer vector and zero columns are skipped,
    which changes no span.  Insertion stops early only when the span is
    already all of gl(n, R).
    """
    members = vertex_set(s, a.n)
    if not members:
        raise ValueError("control set must be nonempty")
    n = a.n
    blocks = _walk_blocks(a, members)
    cols = {}
    for j in members:
        cleared = (intlinalg.clear_denominators(v) for v in blocks[j])
        cols[j] = [v for v in cleared if v is not None]
    basis = MatrixSpaceBasis(n)
    ambient = n * n
    for k in members:
        for j in members:
            for u in cols[k]:
                for w in cols[j]:
                    basis.insert(tuple(tuple(x * y for y in w) for x in u))
                    if basis.dim == ambient:
                        return ambient
    return basis.dim


class _LieEngine:
    """Incremental integer Lie-closure state.

    The Lie algebra generated by a set G is the smallest subspace that
    contains G and is invariant under ad_g = [g, .] for every g in G, since
    the right-normed brackets [g1, [g2, ..., gk]] span it.  So the engine
    brackets (generator, element) pairs only: O(dim·|G|) brackets, not the
    O(dim^2) of all pairs of elements.

    ``elems`` spans the basis: one primitive integer matrix per insert
    that grew it, the generator itself for a generator and the reduced
    residue for a bracket.  ``gens`` holds the generators that grew the
    span, a projector e_j e_j^T as its 0-based index j and any other
    generator as its integer matrix.  A generator already in the span lies
    in the algebra of the earlier ones, so it adds nothing and is dropped.
    ``pending`` holds the (generator, element) index pairs not yet
    bracketed: a new element is queued against every generator, and a new
    generator against every earlier element.  Projector pairs go to the
    front, since ad_{P_j} only copies and negates entries of one row and
    one column: it needs no product and grows no coefficients.  ``extend``
    may be called again with more generators and only the new pairs are
    bracketed, which is what lets a harness share closure work along
    chains of growing control sets.  Scaling spanning-set elements changes
    neither the span nor its closure.
    """

    __slots__ = ("side", "basis", "elems", "gens", "pending")

    def __init__(self, side: int):
        self.side = side
        self.basis = intlinalg.EchelonBasis(side * side)
        self.elems: list = []
        self.gens: list = []
        self.pending = deque()

    def copy(self) -> "_LieEngine":
        dup = _LieEngine(self.side)
        dup.basis = self.basis.copy()
        dup.elems = list(self.elems)
        dup.gens = list(self.gens)
        dup.pending = deque(self.pending)
        return dup

    def _offer(self, flat):
        """Insert a flattened matrix; return its residue if the span grew.

        The residue modulo the earlier span is the row the insert added:
        its pivot is the one new pivot column, by which the pivot sum grew.
        It is zero on every earlier pivot column, so more of its projector
        brackets vanish before they reach an insert than those of the raw
        matrix would.  Returns None when the span did not grow.
        """
        pivots = self.basis.pivots
        before = sum(pivots)
        if not self.basis.insert(flat):
            return None
        return self.basis.rows[bisect_left(pivots, sum(pivots) - before)]

    def _keep(self, flat) -> None:
        n = self.side
        self.elems.append(tuple(flat[i * n : (i + 1) * n] for i in range(n)))

    def _queue(self, pairs) -> None:
        for g, e in pairs:
            if isinstance(self.gens[g], int):
                self.pending.appendleft((g, e))
            else:
                self.pending.append((g, e))

    def _bracket(self, g, x):
        """[g, x] flattened and made primitive; None when it is zero."""
        n = self.side
        if isinstance(g, int):
            # ad_{P_j} x = e_j x[j, :] - x[:, j] e_j^T: row j of x, minus column j
            flat = [0] * (n * n)
            flat[g * n : (g + 1) * n] = x[g]
            for r in range(n):
                flat[r * n + g] -= x[r][g]
            return intlinalg.primitive(flat)
        return intlinalg.primitive(intlinalg.flatten(intlinalg.int_commutator(g, x)))

    def extend(self, int_generators, cap: int) -> int:
        """Add generators, restore bracket closure, return the dimension."""
        n = self.side
        for gen in int_generators:
            if self.basis.dim >= cap:
                return self.basis.dim
            flat = intlinalg.primitive(intlinalg.flatten(gen))
            if flat is None or self._offer(flat) is None:
                continue
            # the element is the generator itself, not its residue: then
            # [gen, gen] = 0 and [g_old, gen] = -[gen, g_old], so only the
            # new generator's pairs are queued
            self._keep(flat)
            support = [i for i, x in enumerate(flat) if x]
            # one nonzero, on the diagonal: the projector e_j e_j^T
            if len(support) == 1 and support[0] % (n + 1) == 0:
                self.gens.append(support[0] // (n + 1))
            else:
                self.gens.append(self.elems[-1])
            g = len(self.gens) - 1
            self._queue((g, e) for e in range(len(self.elems) - 1))
        gens, elems, pending = self.gens, self.elems, self.pending
        while pending and self.basis.dim < cap:
            g, e = pending.popleft()
            flat = self._bracket(gens[g], elems[e])
            residue = None if flat is None else self._offer(flat)
            if residue is not None:
                self._keep(residue)
                e = len(elems) - 1
                self._queue((h, e) for h in range(len(gens)))
        return self.basis.dim


def lie_closure(generators, cap=None, max_order=None) -> tuple:
    """Smallest subspace containing the generators and closed under [x, y].

    Args:
      generators: square RationalMatrix values (or nested rationals), all
        of one side n.
      cap: stop once the dimension reaches this value; defaults to n^2,
        the dimension of gl(n, R), which no closure exceeds.
      max_order: refuse sides beyond this; exact closure cost grows
        steeply with n (vectors of length n^2, O(dim·|G|) brackets for
        |G| generators).
        Defaults to 12, or the NETCTRL_MAX_ORDER environment variable;
        going past 12 emits a warning.

    Returns:
      (dim, basis) with basis the canonical echelon MatrixSpaceBasis of
      the closure.

    Raises:
      ValueError: no generators, mismatched sides, or order over max_order.
    """
    if max_order is None:
        max_order = _order_cap(DEFAULT_LIE_MAX_ORDER)
    mats = [m if isinstance(m, RationalMatrix) else matrix(m) for m in generators]
    if not mats:
        raise ValueError("need at least one generator")
    n = mats[0].rows
    for m in mats:
        if not m.is_square() or m.rows != n:
            raise ValueError("generators must be square matrices of one common side")
    if n > max_order:
        raise ValueError(
            f"order {n} exceeds the Lie-closure cap {max_order}; pass a larger max_order to override"
        )
    if n > DEFAULT_LIE_MAX_ORDER:
        warnings.warn(f"Lie closure on order {n} runs exact arithmetic on length-{n * n} vectors and may be very slow", stacklevel=2)
    if cap is None:
        cap = n * n
    int_gens = []
    for m in mats:
        flat = intlinalg.clear_denominators([x for row in m.entries for x in row])
        if flat is not None:
            int_gens.append(tuple(flat[i * n : (i + 1) * n] for i in range(n)))
    engine = _LieEngine(n)
    dim = engine.extend(int_gens, cap)
    basis = MatrixSpaceBasis(n)
    basis._inner = engine.basis
    return dim, basis


def control_generators(a: PatternMatrix, members) -> list:
    """A together with the projectors e_j e_j^T for j in the control set."""
    gens = [a.matrix]
    for j in members:
        gens.append(projector(j, a.n))
    return gens


def lie_controllable(a: PatternMatrix, s) -> tuple:
    """Lie decision: (lie_dim == n^2, lie_dim) for L(A, {e_j : j in S})."""
    members = vertex_set(s, a.n)
    if not members:
        raise ValueError("control set must be nonempty")
    dim, _ = lie_closure(control_generators(a, members))
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
        return {
            "n": self.n,
            "control_set": list(self.control_set),
            "walk_rank": self.walk_rank,
            "kalman_controllable": self.kalman_controllable,
            "p_span_dim": self.p_span_dim,
            "lie_dim": self.lie_dim,
            "lie_controllable": self.lie_controllable,
            "zfs_status": self.zfs_status,
            "hypotheses": dict(self.hypotheses),
            "consistency": [dict(c) for c in self.consistency],
        }


def report_from_dict(d: dict) -> ControllabilityReport:
    """Rebuild a report from its to_dict() image (inverse round-trip)."""
    return ControllabilityReport(
        n=d["n"],
        control_set=tuple(d["control_set"]),
        walk_rank=d["walk_rank"],
        kalman_controllable=d["kalman_controllable"],
        p_span_dim=d["p_span_dim"],
        lie_dim=d["lie_dim"],
        lie_controllable=d["lie_controllable"],
        zfs_status=d["zfs_status"],
        hypotheses=dict(d["hypotheses"]),
        consistency=tuple(dict(c) for c in d["consistency"]),
    )


def _check(name: str, status: str, detail: str) -> dict:
    return {"check": name, "status": status, "detail": detail}


def analyze(a: PatternMatrix, s) -> ControllabilityReport:
    """Run every controllability decision on one instance and cross-check.

    The consistency records cover the equivalence of the Kalman and Lie
    verdicts and the forcing-set implication, both of which hold only for
    connected patterns with same-sign off-diagonal entries (the sign-mixed
    and disconnected counterexamples are genuine), plus the unconditional
    identity p_span_dim = walk_rank^2.
    """
    members = vertex_set(s, a.n)
    if not members:
        raise ValueError("control set must be nonempty")
    kalman, walk_rank = kalman_controllable(a, members)
    p_dim = p_span_dim(a, members)
    lie, lie_dim = lie_controllable(a, members)
    zfs_status = is_zfs(a.pattern, members)
    connected = graphs.is_connected(a.pattern)
    same_sign = a.sign_class != MIXED
    hyp = connected and same_sign

    consistency = []
    if not hyp:
        consistency.append(_check(
            "kalman_iff_lie", CHECK_SKIPPED,
            "requires a connected pattern with same-sign off-diagonal entries",
        ))
    elif kalman == lie:
        consistency.append(_check(
            "kalman_iff_lie", CHECK_PASSED,
            f"walk_rank {walk_rank} and lie_dim {lie_dim} agree on controllability",
        ))
    else:
        consistency.append(_check(
            "kalman_iff_lie", CHECK_VIOLATED,
            f"kalman_controllable is {kalman} but lie_controllable is {lie}",
        ))

    if not hyp:
        consistency.append(_check(
            "zfs_implies_lie", CHECK_SKIPPED,
            "requires a connected pattern with same-sign off-diagonal entries",
        ))
    elif not zfs_status:
        consistency.append(_check(
            "zfs_implies_lie", CHECK_PASSED,
            "control set is not a zero forcing set, nothing to imply",
        ))
    elif lie:
        consistency.append(_check(
            "zfs_implies_lie", CHECK_PASSED,
            "zero forcing set and lie_controllable",
        ))
    else:
        consistency.append(_check(
            "zfs_implies_lie", CHECK_VIOLATED,
            f"control set is a zero forcing set but lie_dim is {lie_dim} < {a.n * a.n}",
        ))

    if p_dim == walk_rank * walk_rank:
        consistency.append(_check(
            "span_dimension_identity", CHECK_PASSED,
            f"p_span_dim {p_dim} equals walk_rank^2",
        ))
    else:
        consistency.append(_check(
            "span_dimension_identity", CHECK_VIOLATED,
            f"p_span_dim {p_dim} differs from walk_rank^2 = {walk_rank * walk_rank}",
        ))

    return ControllabilityReport(
        n=a.n,
        control_set=members,
        walk_rank=walk_rank,
        kalman_controllable=kalman,
        p_span_dim=p_dim,
        lie_dim=lie_dim,
        lie_controllable=lie,
        zfs_status=zfs_status,
        hypotheses={"connected": connected, "same_sign": same_sign},
        consistency=tuple(consistency),
    )


def distance_power_defects(a: PatternMatrix) -> tuple:
    """Pairs where the distance-power entry (A^d(k,j))_{kj} vanishes.

    For a connected pattern with same-sign off-diagonal entries every
    walk of minimal length d(k, j) contributes a product of one sign, so
    the entry cannot cancel and the result should be empty.  Pairs in
    different components are skipped.  Returns a tuple of (k, j, d).
    """
    n = a.n
    dist = {}
    maxd = 0
    for k in range(1, n + 1):
        for j in range(k + 1, n + 1):
            d = graphs.distance(a.pattern, k, j)
            if d != float("inf"):
                dist[(k, j)] = d
                maxd = max(maxd, d)
    powers = [intlinalg.int_identity(n)]
    cleared = intlinalg.clear_denominators([x for row in a.matrix.entries for x in row])
    if cleared is None:
        step = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    else:
        step = tuple(cleared[i * n : (i + 1) * n] for i in range(n))
    for _ in range(maxd):
        powers.append(intlinalg.int_mat_mul(powers[-1], step))
    defects = []
    for (k, j), d in sorted(dist.items()):
        if powers[d][k - 1][j - 1] == 0:
            defects.append((k, j, d))
    return tuple(defects)
