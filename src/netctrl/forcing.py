"""Zero forcing: closure, forcing-set decision, and exact minimum.

A black vertex forces its unique white neighbor; the closure iterates this
until no force applies.  Forces are applied one at a time, always choosing
the smallest eligible forcer (ties on the forced vertex cannot occur since
an eligible forcer has exactly one white neighbor), so the recorded
chronicle is deterministic.  The final black set does not depend on the
order of forces.
"""

from __future__ import annotations

import itertools
import os

from .graphs import Graph, adjacency_sets, degree

DEFAULT_MIN_ZFS_MAX_ORDER = 16
# one forcing closure is about n^2 steps on a path and one set per vertex:
# about 1 s at 2,000 vertices
DEFAULT_CLOSURE_MAX_ORDER = 2_000


def order_cap(default: int) -> int:
    """An order guardrail: ``default``, or NETCTRL_MAX_ORDER when it is set.

    One variable raises or lowers every cost guardrail (the exhaustive
    forcing-set search and the command-line forcing closure here, the Lie
    closure in ``control``).
    """
    raw = os.environ.get("NETCTRL_MAX_ORDER")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"NETCTRL_MAX_ORDER must be an integer, got {raw!r}") from None


def vertex_set(members, order: int) -> tuple:
    """Normalize an iterable of vertex labels to a sorted duplicate-free tuple."""
    out = sorted(set(members))
    for v in out:
        if not (1 <= v <= order):
            raise ValueError(f"vertex {v} out of range 1..{order}")
    return tuple(out)


def check_closure_order(n: int) -> None:
    """Refuse a graph order past the forcing-closure cap.

    The cap is 2,000, or the NETCTRL_MAX_ORDER environment variable.  It
    guards a forcing closure on a graph read from outside, whose declared
    order alone sets the memory ``closure`` takes; ``closure`` itself, and
    so ``min_zfs``, does not check it.

    Raises:
      ValueError: ``n`` exceeds the cap.
    """
    cap = order_cap(DEFAULT_CLOSURE_MAX_ORDER)
    if n > cap:
        raise ValueError(
            f"order {n} exceeds the forcing-closure cap {cap}; set NETCTRL_MAX_ORDER to override"
        )


def closure(g: Graph, s) -> tuple:
    """Run the forcing process from the black set ``s``.

    Returns ``(black, chronicle)`` where ``black`` is the final black set as
    a sorted tuple and ``chronicle`` is the replayable tuple of
    ``(forcer, forced)`` steps that produced it.
    """
    start = vertex_set(s, g.order)
    adj = adjacency_sets(g)
    black = set(start)
    chronicle = []
    while True:
        step = None
        for forcer in sorted(black):
            white = [w for w in adj[forcer] if w not in black]
            if len(white) == 1:
                step = (forcer, white[0])
                break
        if step is None:
            break
        black.add(step[1])
        chronicle.append(step)
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
    if max_order is None:
        max_order = order_cap(DEFAULT_MIN_ZFS_MAX_ORDER)
    n = g.order
    if n > max_order:
        raise ValueError(
            f"order {n} exceeds the exhaustive-search cap {max_order}; "
            "set NETCTRL_MAX_ORDER or a larger max_order argument to override"
        )
    lower = max(1, min(degree(g, v) for v in g.vertices))
    for k in range(lower, n + 1):
        for cand in itertools.combinations(g.vertices, k):
            if is_zfs(g, cand):
                return k, cand
    raise AssertionError("unreachable: the full vertex set is always a forcing set")
