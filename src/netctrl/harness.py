"""Systematic verification sweeps over graphs, matrices, and control sets.

The sweeps enumerate connected graphs (exhaustively over labeled graphs up
to order 5, seeded random samples at orders 6 and 7), build each configured
matrix kind, and check the exact assertions on every selected control set:

* kalman_iff_lie: the Kalman walk-rank verdict and the Lie-algebra
  verdict agree (needs a connected, same-sign instance);
* zfs_implies_lie: a zero forcing control set is Lie controllable
  (same hypotheses);
* span_dimension_identity: the product-span dimension is the square of
  the walk rank (unconditional);
* distance_power_nonzero: the (k, j) entry of A^d(k,j) is nonzero, once
  per connected same-sign matrix;
* single_vector_equivalence: for one control vector and an arbitrary
  symmetric matrix, walk rank n iff Lie dimension n^2.

A violation never raises; it is recorded with enough data to re-run the
single instance in isolation.  The dimensions come from the decision
engine in ``control``: subsets of one matrix are processed along a tree
ordered by largest element, so each child's ``control._NodeState`` extends
its parent's walk, product-span, and Lie bases instead of starting over.
Only dimensions are read from the shared state, and a dimension does not
depend on the order in which a span was built, so the shared results equal
those of a fresh root grown by one control set alone.  ``recheck`` re-runs
an instance that way, with no prefix-tree or orbit sharing; the
structurally independent route is the brute-force oracles of the test
suite (``tests/oracles.py``).

Every instance is still checked and counted per labeled (graph, control
set) pair, but for a label-invariant kind (adjacency, laplacian) the
dimensions are computed once per isomorphism class: relabeling a graph and
its control set by one permutation conjugates the matrix and the
projectors, which changes no rank or dimension, and preserves forcing.  Per
order the labeled graphs are mapped onto a canonical representative, one
subset tree runs per (representative, kind) over every relabeled subset the
class needs, and each labeled pair reads its dimensions off that table.
The table lives inside one sweep call.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import control, forcing, graphs
from .graphs import Graph
from .linalg import format_matrix, parse_matrix, rank

MAX_SWEEP_ORDER = 7
SAMPLES_PER_LARGE_ORDER = 3


def _parse_policy(policy: str) -> tuple:
    if policy in ("all", "singletons", "zfs"):
        return policy, None, None
    if policy.startswith("random:"):
        parts = policy.split(":")
        if len(parts) == 3:
            try:
                count, seed = int(parts[1]), int(parts[2])
            except ValueError:
                count = 0
            if count >= 1:
                return "random", count, seed
    raise ValueError(
        f"unknown subset policy {policy!r}; want all, singletons, zfs, or random:K:SEED"
    )


@dataclass(frozen=True)
class SweepConfig:
    """What a sweep visits.

    ``seed`` drives only the sampled graphs at orders 6 and 7; the random
    matrix kind and the random subset policy carry their own seeds inside
    their spec strings, so one config pins every drawn object.
    """

    max_order: int
    matrix_kinds: tuple = ("adjacency", "laplacian")
    subset_policy: str = "all"
    seed: int = 0

    def __post_init__(self):
        if not (1 <= self.max_order <= MAX_SWEEP_ORDER):
            raise ValueError(f"max_order must be in 1..{MAX_SWEEP_ORDER}, got {self.max_order}")
        kinds = tuple(self.matrix_kinds)
        if not kinds:
            raise ValueError("matrix_kinds must be nonempty")
        for kind in kinds:
            control.parse_kind(kind)
        object.__setattr__(self, "matrix_kinds", kinds)
        _parse_policy(self.subset_policy)

    def to_dict(self) -> dict:
        return {
            "max_order": self.max_order,
            "matrix_kinds": list(self.matrix_kinds),
            "subset_policy": self.subset_policy,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class Violation:
    """One failed check, carrying everything needed to re-run it alone.

    ``kind`` is a matrix-kind spec, or "explicit" when the instance matrix
    is not graph-built; then ``matrix`` holds it in matrix text format.
    ``subset`` is empty for per-matrix checks.
    """

    order: int
    edges: tuple
    kind: str
    subset: tuple
    check: str
    detail: str
    matrix: str = ""

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "edges": [list(e) for e in self.edges],
            "kind": self.kind,
            "subset": list(self.subset),
            "check": self.check,
            "detail": self.detail,
            "matrix": self.matrix,
        }


def violation_from_dict(d: dict) -> Violation:
    return Violation(
        order=d["order"],
        edges=tuple((e[0], e[1]) for e in d["edges"]),
        kind=d["kind"],
        subset=tuple(d["subset"]),
        check=d["check"],
        detail=d["detail"],
        matrix=d.get("matrix", ""),
    )


def recheck(v: Violation) -> bool:
    """Re-run the single instance behind a violation record.

    Uses the one-shot public path (``analyze``), which grows the engine's
    state from a fresh root by this one control set, with no prefix-tree
    or orbit sharing: a finding of the sharing is confirmed without it.
    It is the same engine, so the structurally independent check is the
    brute-force oracles of the test suite (``tests/oracles.py``).  Returns
    True when the recorded failure reproduces.
    """
    g = graphs.graph(v.order, v.edges)
    if v.matrix:
        a = control.pattern_matrix(parse_matrix(v.matrix))
    else:
        a = control.build_matrix(g, v.kind)
    if v.check == "distance_power_nonzero":
        return bool(control.distance_power_defects(a))
    report = control.analyze(a, v.subset)
    if v.check == "single_vector_equivalence":
        return report.kalman_controllable != report.lie_controllable
    return any(
        c["check"] == v.check and c["status"] == control.CHECK_VIOLATED
        for c in report.consistency
    )


@dataclass(frozen=True)
class SweepOutcome:
    """Result of one sweep: what was checked and every violation found."""

    config: dict
    instances_checked: int
    check_counts: dict
    violations: tuple
    passed: bool

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "instances_checked": self.instances_checked,
            "check_counts": dict(self.check_counts),
            "violations": [v.to_dict() for v in self.violations],
            "passed": self.passed,
        }

    def to_json(self) -> str:
        """Canonical serialization; identical configs give identical bytes."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _outcome(config: dict, instances: int, counts: Counter, violations: list) -> SweepOutcome:
    return SweepOutcome(
        config=config,
        instances_checked=instances,
        check_counts=dict(sorted(counts.items())),
        violations=tuple(violations),
        passed=not violations,
    )


# ---------------------------------------------------------------------------
# Graph and subset enumeration
# ---------------------------------------------------------------------------

def connected_graphs(n: int):
    """All labeled connected graphs on vertices 1..n, isomorphic ones included.

    Yields in ascending edge-bitmask order over the sorted vertex pairs;
    exhaustive enumeration is limited to n <= 5 (2^10 masks).  The sweeps
    group them into isomorphism classes with ``_canonical_labeling``.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n > 5:
        raise ValueError("exhaustive enumeration is limited to n <= 5")
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for mask in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        g = graphs.graph(n, edges)
        if graphs.is_connected(g):
            yield g


def _iter_graphs(cfg: SweepConfig):
    for n in range(1, cfg.max_order + 1):
        if n <= 5:
            yield from connected_graphs(n)
        else:
            for i in range(SAMPLES_PER_LARGE_ORDER):
                yield graphs.random_connected(
                    n, Fraction(1, 2), seed=cfg.seed * 1_000_003 + n * 101 + i
                )


@lru_cache(maxsize=None)
def _relabelings(n: int) -> tuple:
    """The sorted vertex pairs of order n, and every relabeling's action on them.

    Each relabeling is a pair (pi, bits): pi[v] is the new label of vertex
    v (pi[0] is unused) and bits[i] is the edge-bitmask bit of the image of
    pair i.
    """
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    index = {p: i for i, p in enumerate(pairs)}
    perms = []
    for image in itertools.permutations(range(1, n + 1)):
        pi = (0,) + image
        bits = tuple(1 << index[min(pi[u], pi[v]), max(pi[u], pi[v])] for u, v in pairs)
        perms.append((pi, bits))
    return tuple(pairs), tuple(perms)


def _canonical_labeling(g: Graph) -> tuple:
    """A canonical representative of g's isomorphism class, and a map onto it.

    The representative is the relabeling of g with the least edge bitmask
    over the sorted vertex pairs, found by trying every permutation (n! of
    them, so meant for small n; McKay and Piperno, "Practical graph
    isomorphism, II", J. Symbolic Comput. 60 (2014), give the general
    method).  Returns (representative, pi), where pi[v] is the label that
    vertex v of g has in the representative, so isomorphic graphs get one
    representative.
    """
    pairs, perms = _relabelings(g.order)
    edges = [pairs.index(e) for e in g.edges]
    best, pi = min((sum([bits[i] for i in edges]), pi) for pi, bits in perms)
    return graphs.graph(g.order, [p for i, p in enumerate(pairs) if best >> i & 1]), pi


def _all_nonempty_subsets(n: int) -> list:
    return [
        tuple(j + 1 for j in range(n) if mask >> j & 1)
        for mask in range(1, 1 << n)
    ]


def _zfs_statuses(g: Graph) -> dict:
    return {s: forcing.is_zfs(g, s) for s in _all_nonempty_subsets(g.order)}


def _subset_family(cfg: SweepConfig, g: Graph, zfs_map: dict, rng) -> list:
    base, count, _ = _parse_policy(cfg.subset_policy)
    if base == "all":
        return _all_nonempty_subsets(g.order)
    if base == "singletons":
        return [(j,) for j in g.vertices]
    if base == "zfs":
        return [s for s in _all_nonempty_subsets(g.order) if zfs_map[s]]
    total = (1 << g.order) - 1
    masks = sorted(rng.sample(range(1, total + 1), min(count, total)))
    return [tuple(j + 1 for j in range(g.order) if mask >> j & 1) for mask in masks]


def _policy_rng(cfg: SweepConfig):
    base, _, seed = _parse_policy(cfg.subset_policy)
    return random.Random(seed) if base == "random" else None


def _minimal_members(family, zfs_map: dict) -> list:
    """The forcing sets in ``family`` with no proper forcing subset."""
    out = []
    for s in family:
        if not zfs_map[s]:
            continue
        if all(
            not zfs_map.get(tuple(v for v in s if v != drop), False)
            for drop in s
        ):
            out.append(s)
    return out


def _children_map(subsets) -> dict:
    """Prefix tree of the target subsets: parent tuple -> sorted new elements."""
    kids = {}
    for s in subsets:
        for i in range(len(s)):
            kids.setdefault(s[:i], set()).add(s[i])
    return {parent: tuple(sorted(c)) for parent, c in kids.items()}


# ---------------------------------------------------------------------------
# Prefix-tree walks over control's decision engine
# ---------------------------------------------------------------------------

def _tree_order(children: dict):
    """Every member tuple of a subset tree, depth first.

    The children of one node come one after another in ascending order,
    and the subtree of the last of them is visited first.
    """
    stack = [()]
    while stack:
        members = stack.pop()
        for j in children.get(members, ()):
            mem = members + (j,)
            yield mem
            stack.append(mem)


def _iter_unit(session, children: dict, check_set: set):
    """Walk the subset tree, yielding (members, walk_rank, lie_dim, p_span_dim).

    ``session`` is a ``control._Session``.  Nodes come in ``_tree_order``,
    each grown from its parent's ``control._NodeState`` by
    ``control._extend_state``.  Parent state is copied for all children
    but the last, which takes ownership; dimensions are snapshotted at yield
    time so later reuse of a state object cannot disturb reported values.
    """
    states = {(): control._NodeState(session)}
    for mem in _tree_order(children):
        parent, j = mem[:-1], mem[-1]
        st = states.pop(parent) if j == children[parent][-1] else states[parent].copy()
        control._extend_state(st, session, mem, j)
        if mem in check_set:
            yield mem, st.walk.dim, st.lie.dim, st.pspan.dim
        if mem in children:
            states[mem] = st


def _units(cfg: SweepConfig, select):
    """Every (labeled graph, kind) unit of a sweep, in enumeration order.

    ``select(g, zfs_map)`` gives the subsets to check on g; it is called for
    every graph of an order, in enumeration order, before that order's first
    unit is yielded.  Yields (g, kind, zfs_map, session, dims), where dims
    iterates (members, walk_rank, lie_dim, p_span_dim) over the selected
    subsets in ``_iter_unit`` order on g's own subset tree.

    For a label-invariant kind, session belongs to g's canonical
    representative and the dimensions are read off a table: one
    ``_iter_unit`` walk per (representative, kind) over the union of the
    relabeled subsets pi(S) its class needs, made once per order.  For any
    other kind, session is g's own and dims is ``_iter_unit`` itself.
    """
    invariant = dict.fromkeys(k for k in cfg.matrix_kinds if control.parse_kind(k)[2])
    for _, batch in itertools.groupby(_iter_graphs(cfg), key=lambda g: g.order):
        rows = []
        classes: dict = {}
        for g in batch:
            zfs_map = _zfs_statuses(g)
            subsets = select(g, zfs_map)
            if not subsets:
                continue
            rep = relabel = None
            if invariant:
                rep, pi = _canonical_labeling(g)
                relabel = {s: tuple(sorted(pi[v] for v in s)) for s in subsets}
                classes.setdefault(rep, set()).update(relabel.values())
            rows.append((g, zfs_map, subsets, rep, relabel))
        tables = {}
        for rep, wanted in classes.items():
            children = _children_map(wanted)
            for kind in invariant:
                session = control._Session(control.build_matrix(rep, kind))
                table = {m: dims for m, *dims in _iter_unit(session, children, wanted)}
                tables[rep, kind] = session, table
        for g, zfs_map, subsets, rep, relabel in rows:
            children = _children_map(subsets)
            check_set = set(subsets)
            for kind in cfg.matrix_kinds:
                if kind in invariant:
                    session, table = tables[rep, kind]
                    dims = [(m, *table[relabel[m]]) for m in _tree_order(children) if m in check_set]
                else:
                    session = control._Session(control.build_matrix(g, kind))
                    dims = _iter_unit(session, children, check_set)
                yield g, kind, zfs_map, session, dims


def _hypothesis(a: control.PatternMatrix) -> bool:
    """The theorems' hypothesis: connected pattern, same-sign off-diagonal entries."""
    return a.sign_class != control.MIXED and graphs.is_connected(a.pattern)


def _graph_violation(g: Graph, kind: str, subset, check: str, detail: str) -> Violation:
    return Violation(
        order=g.order,
        edges=tuple(sorted(g.edges)),
        kind=kind,
        subset=tuple(subset),
        check=check,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def sweep_equivalence(cfg: SweepConfig) -> SweepOutcome:
    """Check the Kalman/Lie equivalence and its companion identities.

    Per selected (graph, kind, subset) instance: kalman_iff_lie and
    zfs_implies_lie under the connectivity and sign hypotheses (instances
    failing them are counted under hypothesis_skipped, never asserted),
    and span_dimension_identity unconditionally.  Once per (graph, kind):
    distance_power_nonzero.  instances_checked counts subset instances.
    """
    counts: Counter = Counter()
    violations: list = []
    instances = 0
    rng = _policy_rng(cfg)
    units = _units(cfg, lambda g, zfs_map: _subset_family(cfg, g, zfs_map, rng))
    for g, kind, zfs_map, session, dims in units:
        nsq = g.order * g.order
        hyp = _hypothesis(session.a)
        if hyp:
            counts["distance_power_nonzero"] += 1
            defects = session.defects()
            if defects and session.a.pattern != g:
                # found on the representative: report them in g's labels
                defects = control.distance_power_defects(control.build_matrix(g, kind))
            if defects:
                violations.append(_graph_violation(
                    g, kind, (), "distance_power_nonzero",
                    f"zero entries at (k, j, d) = {sorted(defects)}",
                ))
        for members, walk_rank, lie_dim, p_dim in dims:
            instances += 1
            kalman = walk_rank == g.order
            lie = lie_dim == nsq
            if hyp:
                counts["kalman_iff_lie"] += 1
                if kalman != lie:
                    violations.append(_graph_violation(
                        g, kind, members, "kalman_iff_lie",
                        f"walk_rank {walk_rank} but lie_dim {lie_dim}",
                    ))
                counts["zfs_implies_lie"] += 1
                if zfs_map[members] and not lie:
                    violations.append(_graph_violation(
                        g, kind, members, "zfs_implies_lie",
                        f"zero forcing set with lie_dim {lie_dim} < {nsq}",
                    ))
            else:
                counts["hypothesis_skipped"] += 1
            counts["span_dimension_identity"] += 1
            if p_dim != walk_rank * walk_rank:
                violations.append(_graph_violation(
                    g, kind, members, "span_dimension_identity",
                    f"p_span_dim {p_dim} but walk_rank {walk_rank}",
                ))
    config = dict(op="equivalence", **cfg.to_dict())
    return _outcome(config, instances, counts, violations)


def sweep_zfs_implication(cfg: SweepConfig) -> SweepOutcome:
    """Check that every zero forcing control set is Lie controllable.

    With subset_policy "all" every forcing subset is asserted; any other
    policy asserts the minimal-by-inclusion forcing sets among its
    candidates.  Traversal is pruned to branches that still lead to a
    target, so non-forcing regions of the subset tree cost nothing.
    """
    counts: Counter = Counter()
    violations: list = []
    instances = 0
    rng = _policy_rng(cfg)
    base, _, _ = _parse_policy(cfg.subset_policy)

    def targets(g: Graph, zfs_map: dict) -> list:
        if base == "all":
            return [s for s in _all_nonempty_subsets(g.order) if zfs_map[s]]
        return _minimal_members(_subset_family(cfg, g, zfs_map, rng), zfs_map)

    for g, kind, _, session, dims in _units(cfg, targets):
        nsq = g.order * g.order
        hyp = _hypothesis(session.a)
        for members, _, lie_dim, _ in dims:
            if not hyp:
                counts["hypothesis_skipped"] += 1
                continue
            instances += 1
            counts["zfs_implies_lie"] += 1
            if lie_dim != nsq:
                violations.append(_graph_violation(
                    g, kind, members, "zfs_implies_lie",
                    f"zero forcing set with lie_dim {lie_dim} < {nsq}",
                ))
    config = dict(op="zfs_implication", **cfg.to_dict())
    return _outcome(config, instances, counts, violations)


def sweep_single_vector(samples: int, seed: int) -> SweepOutcome:
    """Spot-check the one-vector equivalence on arbitrary symmetric matrices.

    Draws seeded random symmetric integer matrices (order 1..5, entries
    uniform in -9..9 with signs free, zero entries and disconnected
    patterns allowed) and one random standard basis vector, then asserts
    walk_rank = n iff lie_dim = n^2, plus the span identity.  No graph
    hypotheses are involved.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    counts: Counter = Counter()
    violations: list = []
    rng = random.Random(seed)
    for _ in range(samples):
        n = rng.randint(1, 5)
        entries = [[0] * n for _ in range(n)]
        for k in range(n):
            for j in range(k, n):
                val = rng.randint(-9, 9)
                entries[k][j] = val
                entries[j][k] = val
        ctrl = rng.randint(1, n)
        a = control.pattern_matrix(entries)
        report = control.analyze(a, (ctrl,))
        text = format_matrix(a.matrix)
        counts["single_vector_equivalence"] += 1
        if report.kalman_controllable != report.lie_controllable:
            violations.append(Violation(
                order=n,
                edges=tuple(sorted(a.pattern.edges)),
                kind="explicit",
                subset=(ctrl,),
                check="single_vector_equivalence",
                detail=f"walk_rank {report.walk_rank} but lie_dim {report.lie_dim}",
                matrix=text,
            ))
        counts["span_dimension_identity"] += 1
        if report.p_span_dim != report.walk_rank * report.walk_rank:
            violations.append(Violation(
                order=n,
                edges=tuple(sorted(a.pattern.edges)),
                kind="explicit",
                subset=(ctrl,),
                check="span_dimension_identity",
                detail=f"p_span_dim {report.p_span_dim} but walk_rank {report.walk_rank}",
                matrix=text,
            ))
    config = {"op": "single_vector", "samples": samples, "seed": seed}
    return _outcome(config, samples, counts, violations)


# ---------------------------------------------------------------------------
# Worked-example replication
# ---------------------------------------------------------------------------

def replicate_examples() -> tuple:
    """Re-run the three worked fixtures and compare every stated fact exactly.

    Returns a tuple of rows, each a dict with id, description, expected,
    computed, and match keys; expected and computed are plain-JSON dicts
    compared for deep equality.
    """
    rows = []

    g = graphs.path_graph(4)
    a = control.adjacency_matrix(g)
    wm = control.walk_matrix(a, (2,))
    _, walk_rank = control.kalman_controllable(a, (2,))
    _, lie_dim = control.lie_controllable(a, (2,))
    expected = {
        "walk_matrix": [[0, 1, 0, 2], [1, 0, 2, 0], [0, 1, 0, 3], [0, 0, 1, 0]],
        "walk_rank": 4,
        "lie_dim": 16,
        "zfs_status": False,
    }
    computed = {
        "walk_matrix": [[int(x) for x in row] for row in wm.entries],
        "walk_rank": walk_rank,
        "lie_dim": lie_dim,
        "zfs_status": forcing.is_zfs(g, (2,)),
    }
    rows.append({
        "id": "a",
        "description": "path on four vertices, control at the second vertex",
        "expected": expected,
        "computed": computed,
        "match": expected == computed,
    })

    mixed = control.pattern_matrix(
        [[0, 1, 0, 1], [1, 0, -1, 0], [0, -1, 0, 1], [1, 0, 1, 0]]
    )
    kalman, walk_rank = control.kalman_controllable(mixed, (1, 3))
    lie, lie_dim = control.lie_controllable(mixed, (1, 3))
    expected = {
        "walk_rank": 4,
        "kalman_controllable": True,
        "lie_dim_at_most_8": True,
        "lie_dim": 8,
        "lie_controllable": False,
    }
    computed = {
        "walk_rank": walk_rank,
        "kalman_controllable": kalman,
        "lie_dim_at_most_8": lie_dim <= 8,
        "lie_dim": lie_dim,
        "lie_controllable": lie,
    }
    rows.append({
        "id": "b",
        "description": "four-cycle pattern with one negative edge pair, controls at opposite vertices",
        "expected": expected,
        "computed": computed,
        "match": expected == computed,
    })

    block = control.pattern_matrix(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )
    sub1 = control.pattern_matrix(
        [[block.matrix[r, c] for c in (0, 1)] for r in (0, 1)]
    )
    sub2 = control.pattern_matrix(
        [[block.matrix[r, c] for c in (2, 3)] for r in (2, 3)]
    )
    block_ranks = [
        rank(control.walk_matrix(sub1, (1,))),
        rank(control.walk_matrix(sub2, (1,))),
    ]
    kalman, walk_rank = control.kalman_controllable(block, (1, 3))
    lie, lie_dim = control.lie_controllable(block, (1, 3))
    expected = {
        "block_walk_ranks": [2, 2],
        "walk_rank": 4,
        "kalman_controllable": True,
        "lie_dim_at_most_8": True,
        "lie_dim": 8,
        "lie_controllable": False,
    }
    computed = {
        "block_walk_ranks": block_ranks,
        "walk_rank": walk_rank,
        "kalman_controllable": kalman,
        "lie_dim_at_most_8": lie_dim <= 8,
        "lie_dim": lie_dim,
        "lie_controllable": lie,
    }
    rows.append({
        "id": "c",
        "description": "two disjoint edges as diagonal blocks, one control vertex per block",
        "expected": expected,
        "computed": computed,
        "match": expected == computed,
    })

    return tuple(rows)
