"""Zero forcing: closure, forcing-set decision, and exact minimum.

A black vertex forces its unique white neighbor; the closure iterates this
until no force applies.  The final black set does not depend on the order
of forces, so the package runs two closures on the edge list, each built
for what it serves:

* ``closure`` (and ``is_zfs`` through it) reads ``graphs.neighbours``, the
  neighbour map of the edge list, and applies forces one at a time, always
  choosing the smallest eligible forcer (an eligible forcer has exactly one
  white neighbor, so the forced vertex is never tied), which makes the
  chronicle deterministic.  A heap of eligible forcers takes
  O(m log n) time in O(m) memory, independent of the declared order, so
  ``netctrl zfs --set`` works at any order.
* ``_close`` is the kernel of the exhaustive queries: ``min_zfs`` and
  ``zfs_statuses``, the sweeps' forcing maps (kept out of the package's
  public names).  It runs on Python ints, bit v for vertex v, over the
  neighbour-mask table that ``_masks`` builds straight from ``g.edges``,
  with no neighbour sets in between.  The table takes O(n^2) bits, so
  it serves only queries already capped by order, never ``closure``: do
  not merge the two.

``min_zfs`` finds the zero forcing number Z by the wavefront search of
``_wavefront``, then scans the candidate masks of size Z alone, in
lexicographic vertex order, and returns the first that turns every vertex
black: the lexicographically least forcing set of minimum size, which
``is_zfs`` confirms.  Each half skips the closures it can prove useless:
the wavefront a step input it has closed before at no higher cost, and the
scan a candidate that misses a fort left by a recent failure.  On the
spider with nine legs of length 2 (order 19) the wavefront makes 512
closures and the scan 2,550, about 0.03 s in all, where they made 4,448
and 42,486, about 0.25 s, without the skips (2-CPU x86, Python 3.11).
"""

from __future__ import annotations

import collections
import heapq
import itertools
import os

# adjacency_sets and degree are unused here, but bench/spans.py traces them as
# forcing.adjacency_sets and forcing.degree
from .graphs import Graph, adjacency_sets, degree, neighbours, parse_int, vertex_set  # noqa: F401

DEFAULT_MIN_ZFS_MAX_ORDER = 20
#: how many forts of recent failures ``_scan`` keeps; each costs one AND per
#: candidate.  Of 4, 8, 12 and 16, 8 was as fast as any on the zfs-search
#: cases (CHANGES.md has the measurement).
SCAN_FORTS = 8


def check_order(n: int, cap_name: str, default: int, max_order=None) -> None:
    """The one order guard of every cost cap: refuse ``n`` past the cap.

    The cap is ``max_order`` when given, else NETCTRL_MAX_ORDER when it is
    set, else ``default``; one variable raises or lowers both caps (the
    exhaustive forcing-set search here, the Lie closure in ``control``).
    The refusal names what overrides the cap: the variable, or the argument
    when one was passed.

    Raises:
      ValueError: ``n`` exceeds the cap, or the cap (``max_order`` or
        NETCTRL_MAX_ORDER) is not an integer or is below 1.
    """
    if max_order is None:
        raw = os.environ.get("NETCTRL_MAX_ORDER")
        try:
            cap = default if raw is None else parse_int(raw)
        except ValueError:
            raise ValueError(f"NETCTRL_MAX_ORDER must be an integer, got {raw!r}") from None
        if cap < 1:
            raise ValueError(f"NETCTRL_MAX_ORDER must be a positive integer, got {raw!r}")
        override = "set NETCTRL_MAX_ORDER"
    elif type(max_order) is not int or max_order < 1:  # bool is an int subclass
        raise ValueError(f"max_order must be a positive integer, got {max_order!r}")
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
    Built straight from the edge list, one OR per edge end.
    """
    nb = [0] * (g.order + 1)
    for u, v in g.edges:
        nb[u] |= 1 << v
        nb[v] |= 1 << u
    return nb


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


def zfs_statuses(g: Graph, subsets) -> dict:
    """{s: whether s is a zero forcing set of g} for each vertex tuple s in ``subsets``."""
    nb, full = _masks(g), _mask(g.vertices)
    return {s: _close(nb, _mask(s)) == full for s in subsets}


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

    The search is bounded by ``bound``, the cost of the cheapest full mask
    queued so far: a step that costs ``bound`` or more is skipped before
    its closure.  That loses nothing.  ``full`` already sits in the bucket
    of ``bound``, so it is popped at that cost or less, and a path that
    reaches it for less passes only through steps that cost less than
    ``bound``, none of which is skipped.  ``full`` is its own twin-class
    form, so ``best`` and the buckets are as without the bound.  The first
    full mask queued often costs more than Z (on the star of order 4 it
    costs 3, and Z = 2), and still the bound cut the closures on the
    seed-801 ``zfs-search`` cases from 41,108 to 14,007.

    A step whose input mask S | N[v] was closed before at the same or a
    lower cost is skipped too.  Its closure would be the mask the earlier
    step got, at no lower cost, so it could lower neither ``best`` nor
    ``bound``.  That cut the seed-801 closures from 14,007 to 11,242, and
    those on the spider of order 19 from 4,448 to 512.
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
    seen = {}  # step input mask -> the lowest step cost it was closed at
    buckets = [[0]] + [[] for _ in vertices]  # a path never costs more than it colours
    bound = len(buckets)  # the cost of the cheapest full mask queued so far
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
                step = cost + white.bit_count() - (open_nbhd & white != 0)
                if step >= bound:
                    continue
                black = s | closed_nbhd
                if seen.get(black, bound) <= step:
                    continue
                seen[black] = step
                t = _close(nb, black)
                if t == full:
                    bound = step
                for members, lowest in classes:
                    t = t & ~members | lowest[(t & members).bit_count()]
                if step < best.get(t, step + 1):
                    best[t] = step
                    buckets[step].append(t)
    raise AssertionError("unreachable: a step from any mask short of full colours a vertex")


def _scan(nb: list, bits: list, z: int, full: int) -> tuple:
    """The first mask of ``z`` bits, in lexicographic order, whose closure is
    ``full``, as a vertex tuple (None when there is none), and the forts kept
    when the scan stopped, the most recent first.

    A failed candidate's white set ``full & ~cl(S)`` is a fort: no black
    vertex has exactly one neighbour in it, or the closure would go on.
    Every forcing set meets every fort, since the first force into it would
    need such a vertex.  So a candidate that misses a kept fort is skipped
    without its closure, and the skip is a proof that it cannot force.  The
    forts of the last ``SCAN_FORTS`` failures are kept.
    """
    forts = collections.deque(maxlen=SCAN_FORTS)
    for cand in itertools.combinations(bits, z):
        m = sum(cand)
        for fort in forts:
            if not m & fort:
                break
        else:
            black = _close(nb, m)
            if black == full:
                return tuple(b.bit_length() - 1 for b in cand), list(forts)
            forts.appendleft(full & ~black)
    return None, list(forts)


def min_zfs(g: Graph, max_order=None) -> tuple:
    """Exact zero forcing number with a lexicographically-least witness.

    ``_wavefront`` finds Z(G) first.  Then the candidate sets of size Z(G)
    alone are scanned in lexicographic order and the first success is
    returned, so the witness is the lexicographically least forcing set of
    minimum size.  A scan with no success means the wavefront reported a Z
    below the true one, and raises AssertionError.  Each candidate is one
    vertex mask, closed by ``_close`` unless ``_scan`` skips it for missing
    a fort of a recent failure, which proves that it cannot force; so the
    witness is the same as without the skips.  Only the winner becomes a
    vertex tuple.  The scan is what still costs, up to
    C(n, Z) closures, so the search is exponential: guarded by
    ``max_order`` (default 20, or the NETCTRL_MAX_ORDER environment
    variable; pass a positive int explicitly for larger graphs).  At the
    cap the spider with legs of length 2 (order 19) takes about 0.03 s,
    2,550 of its 3,062 closures in the scan (42,486 of 46,934 without the
    skips); G(20, p) draws (p in 1/5, 7/20, 1/2) took 0.08 s or less, and
    random trees of order 20 0.06 s or less.  Past the cap the spider of
    order 25 takes about 2 s (2-CPU x86, Python 3.11).
    """
    n = g.order
    check_order(n, "exhaustive-search", DEFAULT_MIN_ZFS_MAX_ORDER, max_order)
    nb = _masks(g)
    full = _mask(g.vertices)
    z = _wavefront(nb, g.vertices, full)
    witness, _ = _scan(nb, [1 << v for v in g.vertices], z, full)
    if witness is None:
        raise AssertionError(f"unreachable: no forcing set of size {z}, the zero forcing number found")
    return z, witness
