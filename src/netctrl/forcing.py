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

``min_zfs`` finds the zero forcing number Z first.  On a forest Z is the
path cover number (Z(T) = P(T) for every tree T: AIM Minimum Rank-Special
Graphs Work Group, Linear Algebra Appl. 428 (2008)), which ``_forest_z``
counts in linear time with no closure; on a graph with a cycle it comes
from the wavefront search of ``_wavefront``.  Then ``min_zfs`` scans the
candidate masks of size Z alone, in lexicographic vertex order, and
returns the first that turns every vertex black: the lexicographically
least forcing set of minimum size, which ``is_zfs`` confirms.  The scan
walks those masks depth first over their lexicographic prefixes, and each
prefix's closure grows from its parent's through the ``todo`` argument of
``_close``.  The search and the scan skip the closures they can prove
useless: the wavefront a step input it has closed before at no higher
cost, and every step once the cheapest full mask queued can no longer be
beaten; the scan a vertex its prefix already forces, a mask that misses a
fort left by a recent failure, a mask that holds a twin but not a lower
one, and a last vertex that can start no force.  The spider with nine
legs of length 2 (order 19) is a tree, so its 0.005 s is the scan's 1,196
closures (42,486 with every mask closed); 20 random trees of order 20
took 0.028 s in all, against 0.11 s with the masks closed one by one (min
of 5 CPU runs, 2-CPU x86, Python 3.11).
"""

from __future__ import annotations

import collections
import heapq
import os

# adjacency_sets and degree are unused here, but bench/spans.py traces them as
# forcing.adjacency_sets and forcing.degree
from .graphs import Graph, adjacency_sets, check_graph, degree, neighbours, parse_int, vertex_set  # noqa: F401

DEFAULT_MIN_ZFS_MAX_ORDER = 20
#: how many forts of recent failures ``_scan`` keeps; each costs one AND per
#: prefix.  Of 4, 8, 12 and 16, 8 was as fast as any on the zfs-search
#: cases, and with the prefix-tree scan 8 and 16 still tie there (CHANGES.md
#: has both measurements).
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
    start = vertex_set(s, check_graph(g).order)
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


def _close(nb: list, black: int, todo=None) -> int:
    """The final black mask of the forcing process from the mask ``black``.

    ``todo`` holds the black vertices that may have exactly one white
    neighbour: a vertex's white count only falls, and only when a neighbour
    turns black, so a popped vertex is queued again only then.  It starts
    as all of ``black`` unless given.  A caller that grows a closed mask C
    by a vertex v passes ``nb[v] & black | v`` (black = C | v): those are
    the only vertices whose white count changed.
    """
    if todo is None:
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


def _twin_classes(nb: list) -> list:
    """The classes of two or more vertices that share their open, or their
    closed, neighbourhood, each in increasing order, for the graph of the
    neighbour masks ``nb``.  Swapping two members of a class is an
    automorphism of the graph.

    Both neighbourhoods key one dict: an open N(u) never equals a closed
    N[w], for w in N(u) would put u in N(w), so in N[w] = N(u).
    """
    twins = {}
    for v in range(1, len(nb)):
        twins.setdefault(nb[v], []).append(v)
        twins.setdefault(nb[v] | 1 << v, []).append(v)
    return [c for c in twins.values() if len(c) > 1]


def _wavefront(nb: list, twins: list) -> int:
    """Z(G) by a least-cost search over closed masks (the wavefront search of
    Brimkov, Fast & Hicks, "Computational approaches for zero forcing and
    related problems", EJOR 273 (2019)).

    A step picks a vertex v and moves the closed black mask S to the closure
    of S | N[v].  It costs the vertices of N[v] - S that must be coloured:
    all but one when v has a white neighbour (v, then black, forces the
    last one), and all of them otherwise.  Costs go into integer buckets,
    expanded cheapest first, and the least cost of a path to ``full``, the
    mask of every vertex of the graph of the neighbour masks ``nb``, is
    Z(G): the vertices a path colours form a forcing set, and the
    chronological list of forces of a forcing set gives a path that costs
    no more than its size.

    Vertices with the same open, or the same closed, neighbourhood (twins,
    the classes ``twins`` from ``_twin_classes``) are swapped by an
    automorphism, which maps closed masks to closed masks and paths to
    paths of the same cost.  So each mask is kept only with the
    lowest-labelled members of every twin class black.  Without this,
    ``min_zfs`` made 16,392 closures on K_{2,14} against 126 with it, and
    262,186 against 365 on the star of order 20 with the edge (2, 3)
    added; a forest takes no wavefront (``min_zfs``).

    The search is bounded by ``bound``, the cost of the cheapest full mask
    queued so far: a step that costs ``bound`` or more is skipped before
    its closure.  That loses nothing.  ``full`` already sits in the bucket
    of ``bound``, so it is popped at that cost or less, and a path that
    reaches it for less passes only through steps that cost less than
    ``bound``, none of which is skipped.  ``full`` is its own twin-class
    form, so ``best`` and the buckets are as without the bound.  The first
    full mask queued often costs more than Z (on the star of order 4 with
    the edge (2, 3) added it costs 3, and Z = 2), and still the bound cut
    the closures on the seed-801 ``zfs-search`` cases from 41,108 to
    14,007.

    The search returns ``bound`` as soon as ``cost + 1 >= bound``, without
    popping ``full`` and before the bucket of ``bound - 1`` is expanded.
    Every step from a closed mask costs at least 1.  A black v of a closed
    mask with a white neighbour has at least two, and the step pays for
    all but one; a white v colours itself and its k white neighbours and
    pays for k of them, or for v alone when k = 0.  So a step from the bucket of ``bound - 1``
    costs ``bound`` or more and would be cut, and a path to ``full`` that
    costs less than ``bound`` ends in a step from a mask of cost at most
    ``bound - 2``.  Those buckets were all expanded, so such a path would
    have queued ``full`` below ``bound`` already.  The same holds within a
    bucket: once a step from the bucket of ``cost`` queues ``full`` at
    ``cost + 1``, every other step from it costs as much.  On the seed-801
    ``zfs-search`` cases the stop cut the moves read from 33,711 to
    13,994 with the same 4,402 closures.

    A step whose input mask S | N[v] was closed before at the same or a
    lower cost is skipped too.  Its closure would be the mask the earlier
    step got, at no lower cost, so it could lower neither ``best`` nor
    ``bound``.  That cut the seed-801 closures from 14,007 to 11,242, and
    those on the spider of order 19 from 4,448 to 512.
    """
    vertices = range(1, len(nb))
    full = _mask(vertices)
    # (class mask, the masks of its k lowest members for k = 0..size)
    classes = [(_mask(c), [_mask(c[:k]) for k in range(len(c) + 1)]) for c in twins]
    moves = [(nb[v] | 1 << v, nb[v]) for v in vertices]
    best = {0: 0}
    seen = {}  # step input mask -> the lowest step cost it was closed at
    buckets = [[0]] + [[] for _ in vertices]  # a path never costs more than it colours
    bound = len(buckets)  # the cost of the cheapest full mask queued so far
    for cost, bucket in enumerate(buckets):
        if cost + 1 >= bound:
            return bound
        for s in bucket:
            if best[s] < cost:
                continue
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
                    if step == cost + 1:
                        return step
                    bound = step
                for members, lowest in classes:
                    t = t & ~members | lowest[(t & members).bit_count()]
                if step < best.get(t, step + 1):
                    best[t] = step
                    buckets[step].append(t)
    raise AssertionError("unreachable: bound <= len(buckets), so the last bucket returns")


def _forest_z(nb: list, m: int):
    """Z(G) if G, given by its neighbour masks ``nb`` and its ``m`` edges, is
    a forest; else None.

    For a tree T, Z(T) equals the path cover number P(T), the fewest
    vertex-disjoint paths that cover T (AIM Minimum Rank-Special Graphs
    Work Group, "Zero forcing sets and the minimum rank of graphs", Linear
    Algebra Appl. 428 (2008) 1628-1648).  Both sides add over components,
    so Z = P on forests too, where an isolated vertex is a path of its own.
    A graph with c components has at least n - c edges, exactly n - c when
    it is a forest, so m >= n rules a forest out at once, and otherwise one
    breadth-first walk per component counts c.

    P = n - J, where J is the most edges a path cover can keep: edges of
    which no vertex meets three.  Children first, each vertex joins the
    open ends of at most two of its children, an open child being one that
    joined fewer than two of its own, and is open itself when it joined
    fewer than two.  No cover keeps more edges.  A vertex can extend at most
    one path towards its parent, and an open child extends one at no cost,
    so joining it gains an edge; a closed child would first give up one of
    its two, so joining it gains none.  The most a subtree keeps is then
    what its children's subtrees keep plus min(k, 2), k its root's open
    children, which the greedy reaches, and its root is free to join its
    parent at no cost exactly when k < 2.  A Z too low here leaves the scan
    in ``min_zfs`` with no forcing set, which raises AssertionError.
    """
    n = len(nb) - 1
    if m >= n:
        return None
    kids = [0] * (n + 1)  # vertex -> the mask of its children in the walk
    order = []  # every vertex after its parent
    seen = c = 0
    for root in range(1, n + 1):
        if seen >> root & 1:
            continue
        c += 1
        seen |= 1 << root
        queue = [root]
        for v in queue:
            k = kids[v] = nb[v] & ~seen
            seen |= k
            while k:
                low = k & -k
                k ^= low
                queue.append(low.bit_length() - 1)
        order += queue
    if m != n - c:
        return None
    joins = 0
    open_ends = 0  # the vertices that joined fewer than two children
    for v in reversed(order):
        k = (kids[v] & open_ends).bit_count()
        joins += min(k, 2)
        if k < 2:
            open_ends |= 1 << v
    return n - joins


def _scan(nb: list, z: int, twins: list) -> tuple:
    """The first mask of ``z`` bits, in lexicographic order, whose closure is
    ``full``, every vertex, as a vertex tuple (None when there is none),
    and the forts kept when the scan stopped, the most recent first.  ``z``
    is the zero forcing number Z of the graph, or less (then no mask
    forces); past Z the skips below would not hold.  ``twins`` are the
    graph's ``_twin_classes``.

    The masks are walked depth first over their lexicographic prefixes,
    the order of ``itertools.combinations``, and each prefix P is grown by
    its vertices above P's last.  A prefix carries its closure cl(P), grown
    from its parent's: ``_close(nb, black, nb[v] & black | v)`` with
    ``black = cl(P) | v`` queues only the vertices whose white count fell.
    While ``black`` has fewer vertices than the least degree it is its own
    closure: a black vertex forces only once all but one of its neighbours
    are black too, which takes as many black vertices as its degree.
    Five skips drop masks without their closure, and each is a proof that
    the dropped mask is not the lexicographically least forcing set of size
    Z, so the first mask that forces is the one the plain scan returns:

    * A vertex v in cl(P) is never added to P.  A forcing set S of size Z
      that held P and v would make S - {v} one of size Z - 1: S - {v}
      holds P, so its closure holds cl(P), hence v and all of S, and so
      everything.
    * The white set ``full & ~cl(S)`` of a failed closure is a fort: no
      black vertex has exactly one neighbour in it, or the closure would go
      on.  Every forcing set meets every fort, since the first force into
      it would need such a vertex, so a mask is dropped when it misses a
      kept fort.  The last vertex v of P | v ranges over one mask: the
      vertices above P outside the closure, inside every kept fort that
      misses P.  Each failure there ANDs its own fort into that mask, since
      that fort misses P | v.  A shorter prefix is dropped when a kept fort
      misses it and every vertex still free to join it.
    * Swapping two twins v < w (of one class of ``twins``) maps a mask S
      that holds w but not v to a mask of the same size that is
      lexicographically smaller and forces exactly when S does.  So only
      masks that hold the lowest members of each twin class are closed:
      the star of order 16 takes 25 closures, where the plain scan with
      forts took 106.
    * A last vertex v that can start no force is not closed: its mask is
      its own closure, so it forces only if it is everything.  When the
      mask B it joins is closed, B | v forces only if v has exactly one
      white neighbour, or v neighbours a black vertex with exactly two,
      which v leaves with one; no other white count changed.
    * A prefix with too few free vertices above it to reach ``z`` is
      dropped.

    The prefixes one short of ``z`` are not closed: their last vertex u is
    added with the mask's last v, from the closure of the prefix P before
    u, with u's queue kept.  The first failed closure of such a prefix
    removes cl(P | u | v), which holds cl(P | u), from the mask of its v,
    so that skip comes at no extra closure; on dense graphs, where closures
    force little, a closure per prefix would be all cost.  The black
    vertices of cl(P) with two and with three white neighbours, found once
    per P, give those of B = cl(P) | u with two: u's neighbours lose one.
    B is closed unless u or a neighbour of u that had two is left with one,
    and then every v is closed.  On the seed-801 ``zfs-search`` cases this
    cut the scan's closures from 12,212 to 4,355, and on the worst G(24,
    1/2) draw of three from 260,330 to 100,603.

    A fort is kept only when its closure forced something.  One that
    forced nothing is the complement of cl(P) | u | v, and the only masks
    inside that set are this one and masks that trade some of its vertices
    for ones that P forces.  Without the skip of idle last vertices such
    closures were most of the scan's (9,202 of the 12,212 above), and their
    forts pushed those that do cut the scan out of the ``SCAN_FORTS`` kept.
    """
    full = _mask(range(1, len(nb)))
    forts = collections.deque(maxlen=SCAN_FORTS)
    least = min(m.bit_count() for m in nb[1:])  # the least degree
    lower = [0] * len(nb)  # vertex -> the mask of its twins below it
    for members in twins:
        below = 0
        for v in members:
            lower[v] = below
            below |= 1 << v

    def leaves(base, queued, prefix, cands, pairs):
        # the first forcing set prefix | v, v in cands, closed from base;
        # ``pairs`` holds base's vertices with two white neighbours when
        # base is closed, and is None when it may not be
        for fort in forts:
            if not fort & prefix:
                cands &= fort
        while cands:
            v = cands & -cands
            cands ^= v
            i = v.bit_length() - 1
            if lower[i] & ~prefix:
                continue
            black = base | v
            if pairs is not None and not nb[i] & pairs and (nb[i] & ~black).bit_count() != 1:
                if black == full:
                    return prefix | v
                continue
            t = _close(nb, black, queued | nb[i] & black | v)
            if t == full:
                return prefix | v
            if t != black:
                forts.appendleft(full & ~t)
            cands &= ~t
        return 0

    def walk(closed, prefix, above, need):
        # the first forcing set prefix | rest, rest a mask of ``need`` > 1
        # vertices of ``above`` outside ``closed`` = cl(prefix); else 0
        avail = above & ~closed
        if need == 2:  # the vertices of ``closed`` with two and three white neighbours
            two = three = 0
            rest = closed
            while rest:
                x = rest & -rest
                rest ^= x
                k = (nb[x.bit_length() - 1] & ~closed).bit_count()
                if k == 2:
                    two |= x
                elif k == 3:
                    three |= x
        while avail:
            u = avail & -avail
            avail ^= u
            if avail.bit_count() < need - 1:
                return 0
            i = u.bit_length() - 1
            if lower[i] & ~prefix:
                continue
            p = prefix | u
            black = closed | u
            if need == 2:
                k = (nb[i] & ~black).bit_count()
                if two & nb[i] or k == 1:
                    pairs = None
                else:
                    pairs = two & ~nb[i] | three & nb[i] | (u if k == 2 else 0)
                found = leaves(black, nb[i] & black | u, p, avail, pairs)
                if found:
                    return found
                continue
            for fort in forts:
                if not fort & (p | avail):
                    break
            else:
                if black.bit_count() >= least:
                    black = _close(nb, black, nb[i] & black | u)
                found = walk(black, p, avail, need - 1)
                if found:
                    return found
        return 0

    if z > 1:
        found = walk(0, 0, full, z)
    else:  # a graph has a vertex, so the empty mask never forces
        found = leaves(0, 0, 0, full, 0) if z == 1 else 0
    if not found:
        return None, list(forts)
    return tuple(v for v in range(found.bit_length()) if found >> v & 1), list(forts)


def min_zfs(g: Graph, max_order=None) -> tuple:
    """Exact zero forcing number with a lexicographically-least witness.

    Z(G) comes first: on a forest from ``_forest_z``, the path cover number,
    which equals Z on every tree (AIM Minimum Rank-Special Graphs Work
    Group, "Zero forcing sets and the minimum rank of graphs", Linear
    Algebra Appl. 428 (2008) 1628-1648), and on a graph with a cycle from
    ``_wavefront``.  Then the candidate sets of size Z(G) alone are
    scanned in lexicographic order and the first success is returned, so
    the witness is the lexicographically least forcing set of minimum size
    whichever route found Z.  A scan with no success means that route
    reported a Z below the true one, and raises AssertionError.  ``_scan``
    walks the candidates depth first over their prefixes, each prefix
    closed once, and drops without a closure the candidates it can prove
    are not that witness: those that add a vertex the prefix already
    forces, miss a fort of a recent failure, hold a twin but not a lower
    one, or end in a vertex that can start no force; so the witness is the
    same as without the skips.  The twin classes are found once and serve
    both the wavefront and the scan.  Only the winner becomes a vertex
    tuple.  The scan is what still costs, up to C(n, Z) closures, so the
    search is exponential: guarded by ``max_order`` (default 20, or the
    NETCTRL_MAX_ORDER environment variable; pass a positive int explicitly
    for larger graphs), which is checked before any other work.  At the cap
    the spider with legs of length 2 (order 19), a tree, takes about 0.005
    s, all of it the scan's 1,196 closures (42,486 with every candidate
    closed); the worst of three G(20, p) draws took 0.011, 0.045 and 0.062
    s for p = 1/5, 7/20 and 1/2, and 20 random trees of order 20 0.009 s or
    less each, 0.028 s in all.  Past the cap the spiders of order 25 and 27
    take about 0.06 and 0.13 s, and the worst of three G(24, p) draws
    0.17, 0.009 and 0.45 s for the same p (min of 5 CPU runs, 2-CPU x86,
    Python 3.11).

    Raises:
      ValueError: ``g`` is not a Graph, or its order exceeds the cap.
    """
    n = check_graph(g).order
    check_order(n, "exhaustive-search", DEFAULT_MIN_ZFS_MAX_ORDER, max_order)
    nb = _masks(g)
    twins = _twin_classes(nb)
    z = _forest_z(nb, len(g.edges))
    if z is None:
        z = _wavefront(nb, twins)
    witness, _ = _scan(nb, z, twins)
    if witness is None:
        raise AssertionError(f"unreachable: no forcing set of size {z}, the zero forcing number found")
    return z, witness
