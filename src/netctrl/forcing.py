"""Zero forcing: closure, forcing-set decision, and exact minimum.

A black vertex forces its unique white neighbor; the closure iterates this
until no force applies.  Forces are applied one at a time, always choosing
the smallest eligible forcer (an eligible forcer has exactly one white
neighbor, so the forced vertex is never tied), which makes the chronicle
deterministic; the final black set does not depend on the order of forces.
A heap of eligible forcers over neighbor sets of the edge list takes
O(m log n) time, in memory independent of the declared order.
"""

from __future__ import annotations

import heapq
import itertools
import os
from collections import defaultdict

# adjacency_sets is unused here, but bench/spans.py traces forcing.adjacency_sets
from .graphs import Graph, adjacency_sets, degree  # noqa: F401

DEFAULT_MIN_ZFS_MAX_ORDER = 16


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


def vertex_set(members, order: int) -> tuple:
    """Normalize an iterable of vertex labels to a sorted duplicate-free tuple."""
    out = sorted(set(members))
    for v in out:
        if not (1 <= v <= order):
            raise ValueError(f"vertex {v} out of range 1..{order}")
    return tuple(out)


def closure(g: Graph, s) -> tuple:
    """Run the forcing process from the black set ``s``.

    Returns ``(black, chronicle)`` where ``black`` is the final black set as
    a sorted tuple and ``chronicle`` is the replayable tuple of
    ``(forcer, forced)`` steps that produced it.
    """
    start = vertex_set(s, g.order)
    nbrs = defaultdict(set)
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    black = set(start)
    # black vertex -> white neighbors; a count only falls, so stale heap entries read 0
    white = {v: len(nbrs[v] - black) for v in start}
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


def min_zfs(g: Graph, max_order=None) -> tuple:
    """Exact zero forcing number with a lexicographically-least witness.

    Enumerates candidate sets by increasing size starting from the minimum
    degree (a valid lower bound), in lexicographic order within each size,
    and returns the first success.  Exhaustive, so exponential: guarded by
    ``max_order`` (default 16, or the NETCTRL_MAX_ORDER environment
    variable; pass a value explicitly for larger graphs).
    """
    n = g.order
    check_order(n, "exhaustive-search", DEFAULT_MIN_ZFS_MAX_ORDER, max_order)
    lower = max(1, min(degree(g, v) for v in g.vertices))
    for k in range(lower, n + 1):
        for cand in itertools.combinations(g.vertices, k):
            if is_zfs(g, cand):
                return k, cand
    raise AssertionError("unreachable: the full vertex set is always a forcing set")
