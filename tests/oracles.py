"""Independent reference implementations used to cross-check the library.

Everything here is deliberately dumb and structurally different from the
package: plain Fraction arithmetic with divide-through row reduction (the
package kernel is fraction-free integer elimination), all-pairs fixpoint
iteration for Lie closures (the package schedules pairs exactly once), and
simultaneous-force rounds for zero forcing (the package applies one force
at a time).  Agreement between the two routes is the point.
"""

from fractions import Fraction
from itertools import combinations


class FractionBasis:
    """Row basis over the rationals, reduced the textbook way."""

    def __init__(self, ambient):
        self.ambient = ambient
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def insert(self, vec):
        v = [Fraction(x) for x in vec]
        assert len(v) == self.ambient
        for piv, row in zip(self.pivots, self.rows):
            if v[piv]:
                c = v[piv]
                v = [a - c * b for a, b in zip(v, row)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        inv = v[piv]
        v = [x / inv for x in v]
        for i, row in enumerate(self.rows):
            if row[piv]:
                c = row[piv]
                self.rows[i] = [a - c * b for a, b in zip(row, v)]
        pos = sum(1 for p in self.pivots if p < piv)
        self.rows.insert(pos, v)
        self.pivots.insert(pos, piv)
        return True


class ModularEchelon:
    """Row echelon basis modulo a prime, full-length row operations.

    Like the package's modular basis it keeps its rows in echelon form only
    (no back-substitution) and makes each row monic, but every operation
    runs over the whole vector and is reduced modulo p at once; the inverse
    comes from Fermat's little theorem.
    """

    def __init__(self, ambient, p):
        self.ambient = ambient
        self.p = p
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def insert(self, vec):
        """The monic row the vector adds as a tuple, or None if it adds none."""
        p = self.p
        v = [x % p for x in vec]
        assert len(v) == self.ambient
        for piv, row in zip(self.pivots, self.rows):
            c = v[piv]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, row)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return None
        inv = pow(v[piv], p - 2, p)
        v = tuple(x * inv % p for x in v)
        pos = sum(1 for q in self.pivots if q < piv)
        self.rows.insert(pos, v)
        self.pivots.insert(pos, piv)
        return v


def frac_rank(rows):
    rows = list(rows)
    if not rows:
        return 0
    basis = FractionBasis(len(rows[0]))
    for row in rows:
        basis.insert(row)
    return basis.dim


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(Fraction(x) * Fraction(y) for x, y in zip(row, col)) for col in cols] for row in a]


def mat_sub(a, b):
    return [[Fraction(x) - Fraction(y) for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def mat_vec(a, v):
    return [sum(Fraction(x) * Fraction(y) for x, y in zip(row, v)) for row in a]


def flatten(m):
    return [x for row in m for x in row]


def basis_vec(j, n):
    return [Fraction(1 if i == j - 1 else 0) for i in range(n)]


def outer(u, v):
    return [[Fraction(a) * Fraction(b) for b in v] for a in u]


def walk_rank_bruteforce(a, members):
    """Rank of [z, Az, ..., A^{n-1}z, ...] by divide-through elimination."""
    n = len(a)
    cols = []
    for j in members:
        v = basis_vec(j, n)
        for _ in range(n):
            cols.append(list(v))
            v = mat_vec(a, v)
    return frac_rank(cols)


def pspan_dim_bruteforce(a, members):
    """Insert every literal product A^m (e_k e_j^T) A^l, no outer shortcut.

    Stops once the basis holds n^2 products: no span of n-by-n matrices is
    larger.
    """
    n = len(a)
    powers = [[[Fraction(1 if r == c else 0) for c in range(n)] for r in range(n)]]
    for _ in range(n - 1):
        powers.append(mat_mul(powers[-1], a))
    basis = FractionBasis(n * n)
    for k in members:
        for j in members:
            ekj = outer(basis_vec(k, n), basis_vec(j, n))
            for m in range(n):
                left = mat_mul(powers[m], ekj)
                for l in range(n):
                    basis.insert(flatten(mat_mul(left, powers[l])))
                    if basis.dim == n * n:
                        return basis.dim
    return basis.dim


def lie_basis_bruteforce(gens):
    """All-pairs commutator fixpoint with plain Fraction arithmetic.

    Returns the rows of its basis, row-major flattened, fully reduced and
    monic: the reduced row echelon form of the closure, with ascending
    pivots.  Stops once the basis holds n^2 elements, all of gl(n).
    """
    n = len(gens[0])
    basis = FractionBasis(n * n)
    elems = []
    for g in gens:
        g = [[Fraction(x) for x in row] for row in g]
        if basis.insert(flatten(g)):
            elems.append(g)
    changed = True
    while changed:
        changed = False
        for x in list(elems):
            for y in list(elems):
                c = mat_sub(mat_mul(x, y), mat_mul(y, x))
                if basis.insert(flatten(c)):
                    if basis.dim == n * n:
                        return basis.rows
                    elems.append(c)
                    changed = True
    return basis.rows


def control_lie_dim_bruteforce(a, members):
    n = len(a)
    gens = [a]
    for j in members:
        gens.append(outer(basis_vec(j, n), basis_vec(j, n)))
    return len(lie_basis_bruteforce(gens))


def forcing_closure_bruteforce(adj, order, start):
    """Simultaneous-rounds forcing fixpoint (order-free route)."""
    black = set(start)
    while True:
        forced = set()
        for v in black:
            white = [w for w in adj[v] if w not in black]
            if len(white) == 1:
                forced.add(white[0])
        if not forced:
            return frozenset(black)
        black |= forced


def min_zfs_size_bruteforce(adj, order):
    vertices = range(1, order + 1)
    for k in range(1, order + 1):
        for cand in combinations(vertices, k):
            if len(forcing_closure_bruteforce(adj, order, cand)) == order:
                return k
    raise AssertionError("unreachable")


def is_fort(adj, order, fort):
    """A fort is a nonempty vertex set that no vertex outside it has exactly
    one neighbour in; read off the definition, vertex by vertex."""
    fort = set(fort)
    if not fort:
        return False
    return all(len(adj[v] & fort) != 1 for v in range(1, order + 1) if v not in fort)
