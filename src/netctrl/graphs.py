"""Simple undirected graphs with 1-based vertex labels.

Vertices are always exactly ``1..n``.  The canonical interchange format is an
edge-list text document: the first significant line holds the order ``n``,
every following line holds one edge ``u v``.  Lines starting with ``#`` are
comments, blank lines are skipped, CRLF is tolerated.

Every neighbour-set query reads one map, ``neighbours(g)``: built from the
edge list in O(m) memory whatever the declared order.  The exhaustive
forcing search alone builds its bitmask table straight from the edge list
(``forcing._masks``), and ``is_connected`` needs no neighbour sets: it
joins components over the edge list.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction


class GraphFormatError(ValueError):
    """Malformed edge-list text; carries the offending 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def parse_int(token: str) -> int:
    """``token`` read as an int, if it is ASCII digits with at most a leading ``-``.

    The one integer grammar of the text inputs: graph files, ``--set`` and
    NETCTRL_MAX_ORDER.  ``int()`` alone would also take other scripts'
    digits, ``+``, ``_`` and surrounding whitespace.  Each caller turns the
    ValueError into its own message.
    """
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _label(v) -> int:
    """``v`` itself if it is an int; else ValueError naming it."""
    if type(v) is not int:  # bool is an int subclass
        raise ValueError(f"vertex label {v!r} is not an int")
    return v


def check_int(value, name: str, low=None) -> int:
    """``value`` itself if it is an int of at least ``low`` (any int if None);
    else ValueError naming it."""
    if type(value) is not int or low is not None and value < low:  # bool is an int subclass
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an int{bound}, got {value!r}")
    return value


def _order(n) -> int:
    return check_int(n, "graph order", 1)


def check_graph(g):
    """``g`` itself if it is a Graph; else ValueError naming its type."""
    if not isinstance(g, Graph):
        raise ValueError(f"expected a Graph, got {type(g).__name__}")
    return g


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``1..order``.

    Edges are stored as a frozenset of ``(u, v)`` pairs with ``u < v``; no
    loops, no multiplicity.
    """

    order: int
    edges: frozenset

    def __post_init__(self):
        _order(self.order)
        for u, v in self.edges:
            if not (1 <= _label(u) < _label(v) <= self.order):
                raise ValueError(f"invalid edge ({u}, {v}) for order {self.order}")

    @property
    def vertices(self) -> range:
        return range(1, self.order + 1)


def graph(order: int, edges=()) -> Graph:
    """Build a Graph, normalizing each edge to ``(min, max)`` form."""
    normalized = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop edge ({u}, {v}) not allowed")
        normalized.add((u, v) if _label(u) < _label(v) else (v, u))
    return Graph(order, frozenset(normalized))


def neighbours(g: Graph) -> dict:
    """Vertex -> frozenset of neighbours, for the vertices that lie on an edge.

    The one neighbour build of the package.  A vertex with no edge has no
    entry (read it as ``.get(v, ())``), so the map is O(m) whatever the
    declared order.
    """
    adj = {}
    for u, v in g.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return {v: frozenset(ws) for v, ws in adj.items()}


def adjacency_sets(g: Graph) -> dict:
    """Vertex -> set of neighbors, one fresh mutable entry per vertex."""
    nbrs = neighbours(g)
    return {v: set(nbrs.get(v, ())) for v in g.vertices}


def vertex_set(members, order: int) -> tuple:
    """Normalize an iterable of int vertex labels in 1..order to a sorted duplicate-free tuple."""
    try:
        labels = iter(members)
    except TypeError:
        raise ValueError(f"vertex set {members!r} is not an iterable of vertex labels") from None
    members = tuple(labels)
    for v in members:
        if not (1 <= _label(v) <= order):
            raise ValueError(f"vertex {v} out of range 1..{order}")
    return tuple(sorted(set(members)))


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    """Parse an edge-list document into a Graph.

    Duplicate edges collapse.  Raises GraphFormatError with the line number
    on malformed lines, out-of-range vertices, and loop edges.
    """
    order = None
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if order is None:
            if len(tokens) != 1:
                raise GraphFormatError(lineno, f"expected the graph order, got {line!r}")
            try:
                order = parse_int(tokens[0])
            except ValueError:
                raise GraphFormatError(lineno, f"order is not an integer: {tokens[0]!r}") from None
            if order < 1:
                raise GraphFormatError(lineno, f"order must be >= 1, got {order}")
            continue
        if len(tokens) != 2:
            raise GraphFormatError(lineno, f"expected 'u v', got {line!r}")
        try:
            u, v = parse_int(tokens[0]), parse_int(tokens[1])
        except ValueError:
            raise GraphFormatError(lineno, f"vertices are not integers: {line!r}") from None
        if not (1 <= u <= order and 1 <= v <= order):
            raise GraphFormatError(lineno, f"vertex out of range 1..{order}: {line!r}")
        if u == v:
            raise GraphFormatError(lineno, f"loop edge not allowed: {line!r}")
        edges.add((min(u, v), max(u, v)))
    if order is None:
        raise GraphFormatError(1, "empty document; first line must be the graph order")
    return Graph(order, frozenset(edges))


def format_graph(g: Graph) -> str:
    """Serialize to the canonical edge-list form (parse round-trips exactly)."""
    lines = [str(check_graph(g).order)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def to_dot(g: Graph) -> str:
    """DOT export for visualization; never parsed back."""
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in check_graph(g).vertices)
    lines.extend(f"  {u} -- {v};" for u, v in sorted(g.edges))
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def path_graph(n: int) -> Graph:
    """Path 1-2-...-n."""
    return graph(n, [(i, i + 1) for i in range(1, _order(n))])


def cycle_graph(n: int) -> Graph:
    """Cycle 1-2-...-n-1; requires n >= 3."""
    if _order(n) < 3:
        raise ValueError(f"cycle requires n >= 3, got {n}")
    return graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_graph(n: int) -> Graph:
    """All pairs adjacent."""
    return graph(n, itertools.combinations(range(1, _order(n) + 1), 2))


def generate(family: str, n: int) -> Graph:
    """Dispatch on family name: path, cycle, or complete."""
    makers = {"path": path_graph, "cycle": cycle_graph, "complete": complete_graph}
    if family not in makers:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(makers)}")
    return makers[family](n)


def random_connected(n: int, edge_probability, seed: int, max_tries: int = 10_000) -> Graph:
    """Erdos-Renyi draw conditioned on connectivity, by rejection sampling.

    ``edge_probability`` is an exact rational in (0, 1]; each candidate edge
    is kept with exactly that probability, so identical ``(n, p, seed)``
    reproduce the identical graph.  Raises ValueError for a probability
    that is not a rational in (0, 1], a seed that is not an int or a
    ``max_tries`` that is not an int >= 1, and RuntimeError after
    ``max_tries`` rejections.
    """
    _order(n)
    check_int(seed, "seed")
    check_int(max_tries, "max_tries", 1)
    try:
        p = Fraction(edge_probability)
    except (TypeError, ValueError, OverflowError):  # None, "x", NaN, inf
        raise ValueError(f"edge probability must be a rational, got {edge_probability!r}") from None
    if not (0 < p <= 1):
        raise ValueError(f"edge probability must be in (0, 1], got {p}")
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for _ in range(max_tries):
        edges = [e for e in pairs if rng.randrange(p.denominator) < p.numerator]
        g = graph(n, edges)
        if is_connected(g):
            return g
    raise RuntimeError(f"no connected graph found in {max_tries} draws (n={n}, p={p}, seed={seed})")


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 1 (``_spans`` of the edges)."""
    return _spans(check_graph(g).order, g.edges)


def _spans(order: int, edges) -> bool:
    """True iff the edge pairs join all of vertices 1..order into one component.

    A union-find (path halving; a vertex absent from ``root`` is a root)
    counts the edges that join two components, and the answer is yes once
    order - 1 of them have.  No neighbour map is built, so the memory is
    O(m) whatever the order, and ``harness.connected_graphs`` tests its
    edge masks here before it builds a Graph.
    """
    root = {}
    need = order - 1
    for u, v in edges:
        if not need:
            break
        u, v = _root(root, u), _root(root, v)
        if u != v:
            root[u] = v
            need -= 1
    return not need


def _root(root: dict, x: int) -> int:
    """The root of x's component in ``root``, halving x's path on the way."""
    while x in root:
        # x's parent becomes its grandparent (or stays, if it is the root)
        root[x] = x = root.get(root[x], root[x])
    return x


def distance(g: Graph, u: int, v: int):
    """Shortest-path edge count between u and v; math.inf when unreachable."""
    vertex_set((u,), check_graph(g).order)
    vertex_set((v,), g.order)
    if u == v:
        return 0
    nbrs = neighbours(g)
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for w in nbrs.get(x, ()):
            if w not in dist:
                dist[w] = dist[x] + 1
                if w == v:
                    return dist[w]
                queue.append(w)
    return float("inf")


def degree(g: Graph, v: int) -> int:
    vertex_set((v,), g.order)
    return len(neighbours(g).get(v, ()))
