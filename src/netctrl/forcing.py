"""Zero forcing: closure, forcing-set decision, and exact minimum.

A black vertex forces its unique white neighbor; the closure iterates this
until no force applies.  The final black set does not depend on the order
of forces, so the package runs two closures over ``graphs.neighbours``, the
one neighbour map of the edge list, each built for what it serves:

* ``closure`` (and ``is_zfs`` through it) applies forces one at a time,
  always choosing the smallest eligible forcer (an eligible forcer has
  exactly one white neighbor, so the forced vertex is never tied), which
  makes the chronicle deterministic.  A heap of eligible forcers takes
  O(m log n) time in O(m) memory, independent of the declared order, so
  ``netctrl zfs --set`` works at any order.
* ``_close`` is the kernel of the exhaustive queries, ``min_zfs`` and the
  sweeps' forcing maps.  It runs on Python ints, bit v for vertex v, over
  a neighbour-mask table from ``_masks``.  The table takes O(n^2) bits, so
  it serves only queries already capped by order, never ``closure``: do
  not merge the two.

``min_zfs`` finds the zero forcing number Z by the wavefront search of
``_wavefront``, then scans candidate masks of size Z in lexicographic
vertex order and returns the first that turns every vertex black: the
lexicographically least forcing set of minimum size, which ``is_zfs``
confirms.
"""

from __future__ import annotations

import heapq
import itertools
import os

# adjacency_sets and degree are unused here, but bench/spans.py traces them as
# forcing.adjacency_sets and forcing.degree
from .graphs import Graph, adjacency_sets, degree, neighbours, vertex_set  # noqa: F401

DEFAULT_MIN_ZFS_MAX_ORDER = 20


def check_order(n: int, cap_name: str, default: int, max_order=None) -> None:
    """The one order guard of every cost cap: refuse ``n`` past the cap.

    The cap is ``max_order`` when given, else NETCTRL_MAX_ORDER when it is
    set, else ``default``; one variable raises or lowers both caps (the
    exhaustive forcing-set search here, the Lie closure in ``control``).
    The refusal names what overrides the cap: the variable, or the argument
    when one was passed.

    Raises:
      ValueError: ``n`` exceeds the cap, or NETCTRL_MAX_ORDER is not an
        integer.
    """
    if max_order is None:
        raw = os.environ.get("NETCTRL_MAX_ORDER")
        try:
            cap = default if raw is None else int(raw)
        except ValueError:
            raise ValueError(f"NETCTRL_MAX_ORDER must be an integer, got {raw!r}") from None
        override = "set NETCTRL_MAX_ORDER"
    else:
        cap, override = max_order, "pass a larger max_order argument"
    if n > cap:
        raise ValueError(f"order {n} exceeds the {cap_name} cap {cap}; {override} to override")


def closure(g: Graph, s) -> tuple:
    """Run the forcing process from the black set ``s``.

    Returns ``(black, chronicle)`` where ``black`` is the final black set as
    a sorted tuple and ``chronicle`` is the replayable tuple of
    ``(forcer, forced)`` steps that produced it.
    """
    start = vertex_set(s, g.order)
    nbrs = neighbours(g)
    black = set(start)
    # black vertex -> white neighbors; a count only falls, so stale heap entries read 0
    white = {v: len(nbrs.get(v, frozenset()) - black) for v in start}
    ready = [v for v in start if white[v] == 1]  # sorted, so already a heap
    chronicle = []
    while ready:
        forcer = heapq.heappop(ready)
        if white[forcer] != 1:
            continue
        (forced,) = nbrs[forcer] - black
        black.add(forced)
        chronicle.append((forcer, forced))
        white[forced] = len(nbrs[forced] - black)
        for w in nbrs[forced] & black:
            white[w] -= 1
            if white[w] == 1:
                heapq.heappush(ready, w)
        if white[forced] == 1:
            heapq.heappush(ready, forced)
    return tuple(sorted(black)), tuple(chronicle)


def is_zfs(g: Graph, s) -> bool:
    """True iff the closure of ``s`` turns every vertex black."""
    black, _ = closure(g, s)
    return len(black) == g.order


def _masks(g: Graph) -> list:
    """Neighbour masks of g: entry v has bit w set for each neighbour w of v.

    Indexed by vertex (entry 0 is unused); a vertex with no edge has mask 0.
    """
    nbrs = neighbours(g)
    return [0] + [sum(1 << w for w in nbrs.get(v, ())) for v in g.vertices]


def _mask(vertices) -> int:
    """The vertex set as a mask, bit v for vertex v."""
    return sum(1 << v for v in vertices)


def _close(nb: list, black: int) -> int:
    """The final black mask of the forcing process from the mask ``black``.

    ``todo`` holds the black vertices that may have exactly one white
    neighbour: a vertex's white count only falls, and only when a neighbour
    turns black, so a popped vertex is queued again only then.
    """
    todo = black
    while todo:
        low = todo & -todo
        todo ^= low
        w = nb[low.bit_length() - 1] & ~black
        if w and not w & (w - 1):
            black |= w
            todo |= nb[w.bit_length() - 1] & black | w
    return black


def _wavefront(nb: list, vertices, full: int) -> int:
    """Z(G) by a least-cost search over closed masks (the wavefront search of
    Brimkov, Fast & Hicks, "Computational approaches for zero forcing and
    related problems", EJOR 273 (2019)).

    A step picks a vertex v and moves the closed black mask S to the closure
    of S | N[v].  It costs the vertices of N[v] - S that must be coloured:
    all but one when v has a white neighbour (v, then black, forces the
    last one), and all of them otherwise.  Costs go into integer buckets,
    and the cost at which ``full`` is first popped is Z(G): the vertices a
    path colours form a forcing set, and the chronological list of forces
    of a forcing set gives a path that costs no more than its size.

    Vertices with the same open, or the same closed, neighbourhood (twins)
    are swapped by an automorphism, which maps closed masks to closed masks
    and paths to paths of the same cost.  So each mask is kept only with
    the lowest-labelled members of every twin class black; without this a
    star has 2^(n-1) closed masks.
    """
    twins = {}
    for v in vertices:
        twins.setdefault((0, nb[v]), []).append(v)
        twins.setdefault((1, nb[v] | 1 << v), []).append(v)
    # (class mask, the masks of its k lowest members for k = 0..size)
    classes = [(_mask(c), [_mask(c[:k]) for k in range(len(c) + 1)])
               for c in twins.values() if len(c) > 1]
    moves = [(nb[v] | 1 << v, nb[v]) for v in vertices]
    best = {0: 0}
    buckets = [[0]] + [[] for _ in vertices]  # a path never costs more than it colours
    for cost, bucket in enumerate(buckets):
        for s in bucket:
            if best[s] < cost:
                continue
            if s == full:
                return cost
            for closed_nbhd, open_nbhd in moves:
                white = closed_nbhd & ~s
                if not white:
                    continue
                t = _close(nb, s | closed_nbhd)
                for members, lowest in classes:
                    t = t & ~members | lowest[(t & members).bit_count()]
                step = cost + white.bit_count() - (open_nbhd & white != 0)
                if step < best.get(t, step + 1):
                    best[t] = step
                    buckets[step].append(t)
    raise AssertionError("unreachable: a step from any mask short of full colours a vertex")


def min_zfs(g: Graph, max_order=None) -> tuple:
    """Exact zero forcing number with a lexicographically-least witness.

    ``_wavefront`` finds Z(G) first.  Then candidate sets are scanned by
    increasing size from Z(G), in lexicographic order within each size, and
    the first success is returned, so the witness is the lexicographically
    least forcing set of minimum size.  Each candidate is one vertex mask
    closed by ``_close``; only the winner becomes a vertex tuple.  The scan
    of the final size is what still costs, up to C(n, Z) closures, so the
    search is exponential: guarded by ``max_order`` (default 20, or the
    NETCTRL_MAX_ORDER environment variable; pass a value explicitly for
    larger graphs).  Its worst case at n = 20, on G(20, p) draws, random
    trees and the spider with legs of length 2, took about 0.2 s (2-CPU
    x86, Python 3.11).
    """
    n = g.order
    check_order(n, "exhaustive-search", DEFAULT_MIN_ZFS_MAX_ORDER, max_order)
    nb = _masks(g)
    full = _mask(g.vertices)
    bits = [1 << v for v in g.vertices]
    for k in range(_wavefront(nb, g.vertices, full), n + 1):
        for cand in itertools.combinations(bits, k):
            if _close(nb, sum(cand)) == full:
                return k, tuple(b.bit_length() - 1 for b in cand)
    raise AssertionError("unreachable: the full vertex set is always a forcing set")
