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
# the cap of `netctrl zfs --set` (``closure`` itself checks none): one
# forcing closure is about n^2 steps on a path and one set per declared
# vertex, about 1 s at 2,000 vertices
DEFAULT_CLOSURE_MAX_ORDER = 2_000


def check_order(n: int, cap_name: str, default: int, max_order=None) -> None:
    """The one order guard of every cost cap: refuse ``n`` past the cap.

    The cap is ``max_order`` when given, else NETCTRL_MAX_ORDER when it is
    set, else ``default``; one variable raises or lowers every cap (the
    exhaustive forcing-set search and the command-line forcing closure
    here, the Lie closure in ``control``).  The refusal names what overrides
    the cap: the variable, or the argument when one was passed.

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
    n = g.order
    check_order(n, "exhaustive-search", DEFAULT_MIN_ZFS_MAX_ORDER, max_order)
    lower = max(1, min(degree(g, v) for v in g.vertices))
    for k in range(lower, n + 1):
        for cand in itertools.combinations(g.vertices, k):
            if is_zfs(g, cand):
                return k, cand
    raise AssertionError("unreachable: the full vertex set is always a forcing set")
