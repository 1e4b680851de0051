"""Systematic verification sweeps over graphs, matrices, and control sets.

The sweeps enumerate connected graphs (exhaustively over labeled graphs up
to order 5, seeded random samples at orders 6 and 7), build each configured
matrix kind, and check the exact assertions on every selected control set:

* kalman_iff_lie: the Kalman walk-rank verdict and the Lie-algebra
  verdict agree;
* zfs_implies_lie: a zero forcing control set is Lie controllable;
* span_dimension_identity: the product-span dimension is the square of
  the walk rank;
* distance_power_nonzero: the (k, j) entry of A^d(k,j) is nonzero, once
  per matrix;
* single_vector_equivalence: for one control vector and an arbitrary
  symmetric matrix, walk rank n iff Lie dimension n^2.

The graph sweeps build only connected graphs, and every matrix kind is
same-sign off the diagonal (adjacency +1, laplacian -1, random:SEED
1..9), so the theorems' hypotheses (``control._hypotheses``) hold on
every instance and every check is asserted; ``analyze``, which takes
arbitrary matrices, still gates on them.  The first three checks are
those of ``control._consistency``, the table of theorem checks that
``analyze`` reports too: a sweep counts each check and turns each violated
one into a ``Violation`` with the check's detail, so ``recheck`` and the
sweeps read one rule.

A violation never raises; it is recorded with enough data to re-run the
single instance in isolation.  The dimensions come from the decision
engine in ``control``: ``control._grow`` takes every subset of one matrix
at once and grows them along their prefix tree, sharing each parent's
walk, product-span and Lie bases with its children.  This module only
reads the tables it returns.  ``recheck`` re-runs an instance from a fresh
root, with no prefix-tree or orbit sharing; the structurally independent
route is the brute-force oracles of the test suite (``tests/oracles.py``).

Every instance is still checked and counted per labeled (graph, control
set) pair, but for a label-invariant kind (adjacency, laplacian) the
dimensions are computed once per isomorphism class: relabeling a graph and
its control set by one permutation conjugates the matrix and the
projectors, which changes no rank or dimension, and preserves forcing.  Per
order the labeled graphs are mapped onto a canonical representative, one
``_grow`` runs per (representative, kind) over every relabeled subset the
class needs, and each labeled pair reads its dimensions off that table.
The table lives inside one sweep call.
"""

from __future__ import annotations

import copy
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
        kinds = () if isinstance(self.matrix_kinds, str) else tuple(self.matrix_kinds)
        if not kinds:
            raise ValueError(f"matrix_kinds must be a nonempty tuple of kinds, got {self.matrix_kinds!r}")
        keys = [control.parse_kind(kind)[:2] for kind in kinds]
        for i, kind in enumerate(kinds):
            if keys[i] in keys[:i]:
                raise ValueError(f"matrix kind {kind!r} is listed more than once")
        object.__setattr__(self, "matrix_kinds", kinds)
        _parse_policy(self.subset_policy)

    def to_dict(self) -> dict:
        return control._image(self)


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
        return control._image(self)


def violation_from_dict(d: dict) -> Violation:
    return control._from_image(Violation, d)


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
        return control._image(self)

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


def _units(cfg: SweepConfig, select):
    """Every (labeled graph, kind) unit of a sweep, in enumeration order.

    ``select(g, zfs_map)`` gives the subsets to check on g; it is called for
    every graph of an order, in enumeration order, before that order's first
    unit is yielded.  Yields (g, kind, zfs_map, session, table), where
    table maps each selected subset, in ``select`` order, to its dims
    (walk_rank, p_span_dim, lie_dim).

    Every kind reads its dims off a ``control._grow`` table.  For a
    label-invariant kind, session belongs to g's canonical representative
    and the table is that class's: one ``_grow`` per (representative, kind)
    over the union of the relabeled subsets pi(S) its class needs, made
    once per order and read through pi.  For any other kind, session is
    g's own and the table is g's, one ``_grow`` per (g, kind).
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
            for kind in invariant:
                session = control._Session(control.build_matrix(rep, kind))
                tables[rep, kind] = session, control._grow(session, wanted)
        for g, zfs_map, subsets, rep, relabel in rows:
            for kind in cfg.matrix_kinds:
                if kind in invariant:
                    session, shared = tables[rep, kind]
                    table = {s: shared[relabel[s]] for s in subsets}
                else:
                    session = control._Session(control.build_matrix(g, kind))
                    table = control._grow(session, subsets)
                yield g, kind, zfs_map, session, table


def _graph_violation(g: Graph, kind: str, subset, check: str, detail: str, matrix="") -> Violation:
    return Violation(
        order=g.order,
        edges=tuple(sorted(g.edges)),
        kind=kind,
        subset=tuple(subset),
        check=check,
        detail=detail,
        matrix=matrix,
    )


def _tally(checks, dims, counts: Counter, violations: list, g: Graph, kind: str, members, matrix="") -> None:
    """Count each ``control._consistency`` check; record each violated one with its detail."""
    for check, status, template in checks:
        counts[check] += 1
        if status == control.CHECK_VIOLATED:
            detail = control._detail(template, g.order, *dims)
            violations.append(_graph_violation(g, kind, members, check, detail, matrix))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def sweep_equivalence(cfg: SweepConfig) -> SweepOutcome:
    """Check the Kalman/Lie equivalence and its companion identities.

    Per selected (graph, kind, subset) instance: kalman_iff_lie,
    zfs_implies_lie and span_dimension_identity, all asserted, since every
    sweep matrix meets the connectivity and sign hypotheses.  Once per
    (graph, kind): distance_power_nonzero.  instances_checked counts
    subset instances.
    """
    counts: Counter = Counter()
    violations: list = []
    instances = 0
    rng = _policy_rng(cfg)
    units = _units(cfg, lambda g, zfs_map: _subset_family(cfg, g, zfs_map, rng))
    for g, kind, zfs_map, session, table in units:
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
        for members, dims in table.items():
            instances += 1
            checks = control._consistency(g.order, *dims, zfs_map[members], True)
            _tally(checks, dims, counts, violations, g, kind, members)
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

    for g, kind, _, _, table in _units(cfg, targets):
        for members, dims in table.items():
            instances += 1
            # every target is a forcing set
            zfs_lie = control._consistency(g.order, *dims, True, True)[1]
            _tally([zfs_lie], dims, counts, violations, g, kind, members)
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
            violations.append(_graph_violation(
                a.pattern, "explicit", (ctrl,), "single_vector_equivalence",
                f"walk_rank {report.walk_rank} but lie_dim {report.lie_dim}", text,
            ))
        dims = (report.walk_rank, report.p_span_dim, report.lie_dim)
        span = control._consistency(n, *dims, False, False)[2]
        _tally([span], dims, counts, violations, a.pattern, "explicit", (ctrl,), text)
    config = {"op": "single_vector", "samples": samples, "seed": seed}
    return _outcome(config, samples, counts, violations)


# ---------------------------------------------------------------------------
# Worked-example replication
# ---------------------------------------------------------------------------

# The worked fixtures: id, description, matrix entries, control set, and the
# facts the paper states, read off one ``analyze`` report or ``_EXTRA_FACTS``.
_EXAMPLES = (
    ("a", "path on four vertices, control at the second vertex",
     [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]], (2,), {
         "walk_matrix": [[0, 1, 0, 2], [1, 0, 2, 0], [0, 1, 0, 3], [0, 0, 1, 0]],
         "walk_rank": 4,
         "lie_dim": 16,
         "zfs_status": False,
     }),
    ("b", "four-cycle pattern with one negative edge pair, controls at opposite vertices",
     [[0, 1, 0, 1], [1, 0, -1, 0], [0, -1, 0, 1], [1, 0, 1, 0]], (1, 3), {
         "walk_rank": 4,
         "kalman_controllable": True,
         "lie_dim_at_most_8": True,
         "lie_dim": 8,
         "lie_controllable": False,
     }),
    ("c", "two disjoint edges as diagonal blocks, one control vertex per block",
     [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], (1, 3), {
         "block_walk_ranks": [2, 2],
         "walk_rank": 4,
         "kalman_controllable": True,
         "lie_dim_at_most_8": True,
         "lie_dim": 8,
         "lie_controllable": False,
     }),
)

_EXTRA_FACTS = {
    "walk_matrix": lambda a, report: [
        [int(x) for x in row] for row in control.walk_matrix(a, report["control_set"]).entries
    ],
    "lie_dim_at_most_8": lambda a, report: report["lie_dim"] <= 8,
    # the walk rank of each 2x2 diagonal block, controlled at its first vertex
    "block_walk_ranks": lambda a, report: [
        rank(control.walk_matrix(control.pattern_matrix(
            [row[k:k + 2] for row in a.matrix.entries[k:k + 2]]), (1,)))
        for k in range(0, a.n, 2)
    ],
}


def replicate_examples() -> tuple:
    """Re-run the three worked fixtures and compare every stated fact exactly.

    Returns a tuple of rows, each a dict with id, description, expected,
    computed, and match keys; expected and computed are plain-JSON dicts
    compared for deep equality.
    """
    rows = []
    for ident, description, entries, s, expected in _EXAMPLES:
        a = control.pattern_matrix(entries)
        report = control.analyze(a, s).to_dict()
        computed = {
            fact: _EXTRA_FACTS[fact](a, report) if fact in _EXTRA_FACTS else report[fact]
            for fact in expected
        }
        rows.append({
            "id": ident,
            "description": description,
            "expected": copy.deepcopy(expected),
            "computed": computed,
            "match": expected == computed,
        })
    return tuple(rows)
