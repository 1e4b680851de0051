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
the records of ``control._consistency``, the table of theorem checks that
``analyze`` reports too, and single_vector_equivalence is its
kalman_iff_lie record asserted without hypotheses
(``_single_vector_checks``).  Every check is one (check, status, detail)
record, and each sweep yields its records to one tally (``_outcome``),
which counts each record and turns each violated one into a
``Violation`` with its detail.  ``recheck`` reads the same records, made
by the same builders, so each theorem is stated once.

A violation never raises; it is recorded with enough data to re-run the
single instance in isolation.  The dimensions come from the decision
engine in ``control``: ``control._grow`` takes every subset of one matrix
at once and grows them along their prefix tree, sharing each parent's
bases with its children.  It grows only the parts a sweep's checks read:
the walk, product-span and Lie bases for the equivalence sweep, the Lie
closure alone for the implication sweep, whose one record
(``control._zfs_implies_lie``) reads only the Lie dimension.  This module
only reads the tables it returns.  ``recheck`` re-runs an instance
through the same engine, its one control set grown by ``control._grow``
from a fresh root (``_fresh_dims``), with no prefix-tree, isomorphism-class
or automorphism-orbit sharing: a fault of the engine reproduces there, and
a fault of the sharing does not.  The structurally independent route is
the brute-force oracles of the test suite (``tests/oracles.py``).

Every instance is still checked and counted per labeled (graph, control
set) pair, but for a label-invariant kind (adjacency, laplacian) the
dimensions are computed once per isomorphism class and, inside it, once
per automorphism orbit of control sets.  Label-invariance means that
relabeling a graph G by a permutation matrix P turns A(G) into
P A(G) P^T = A(PG).  P maps the walk columns A^k e_j of a control set S
onto those of P(S), its projectors e_j e_j^T onto theirs, and every
bracket of them onto the same bracket of the images; conjugation by P is
invertible and linear, so (G, S) and (PG, P(S)) have the same walk rank,
product-span and Lie dimensions, and P preserves forcing too.  So per
order one ``_grow`` runs per (class, kind), on the class's canonical
representative R, and it takes one control set per orbit: every
relabeling sigma with sigma(G) = R carries (G, S) onto (R, sigma(S)), so
S is keyed by its least sorted image sigma(S) over all of them, and each
labeled pair reads its dimensions off that table at its key.

For a label-invariant kind the class of a labeled graph is found, and
its sets keyed, through one class record per class and order: the
class's first graph g0 runs ``_canonical_labeling``, whose one pass over
the relabelings gives the representative, every graph of g0's orbit by
its edge bitmask with every relabeling that gives it, and the orbit
table of g0's control sets, indexed by subset bitmask.  A later graph
t(g0) of the class reads a set S at t^-1(S) in that table
(``_class_keys``).  For any other kind (``random:SEED`` draws its
weights by label) the labeled graph is its own class and each set its
own key; nothing is canonicalized.  The tables live inside one sweep
call: each is made at its class's first unit, and a labeled class's
table is dropped after its one unit.

Per-graph set-up is paid only where it is read.  ``connected_graphs``
tests each edge mask's pairs for connectivity and builds a ``Graph`` only
for a connected one, a graph-built matrix takes its graph as its pattern
(``control._edge_matrix``), the subset policy is parsed once per sweep
call (``_subset_family``), every subset's tuple is built once per order
(``_subsets``), and each graph's forcing statuses are closed on read
(``forcing._ForcingMap``): the first time the subset family, the
minimality test of ``_minimal_members`` or a zfs_implies_lie record asks
for a subset.  Under policy ``all`` every subset is still read, so every
one is closed.
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
    if isinstance(policy, str) and policy.startswith("random:"):
        parts = policy.split(":")
        if len(parts) == 3:
            try:
                count, seed = graphs.parse_int(parts[1]), graphs.parse_int(parts[2])
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
        # bool is an int subclass, as in forcing.check_order
        if type(self.max_order) is not int or not 1 <= self.max_order <= MAX_SWEEP_ORDER:
            raise ValueError(f"max_order must be an int in 1..{MAX_SWEEP_ORDER}, got {self.max_order!r}")
        graphs.check_int(self.seed, "seed")
        # a str or bytes is not read letter by letter, nor a set in hash order
        if not isinstance(self.matrix_kinds, (tuple, list)) or not self.matrix_kinds:
            raise ValueError(f"matrix_kinds must be a nonempty tuple of kinds, got {self.matrix_kinds!r}")
        kinds = tuple(self.matrix_kinds)
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


def _expect(value, cls):
    """``value`` itself if it is a ``cls``; else ValueError naming its type."""
    if not isinstance(value, cls):
        raise ValueError(f"expected a {cls.__name__}, got {type(value).__name__}")
    return value


def recheck(v: Violation) -> bool:
    """Re-run the single instance behind a violation record.

    The instance is re-run on the route the sweep took, by its engine, but
    alone: ``_fresh_dims`` grows the one control set by ``control._grow``
    from a fresh root, on its own labeled matrix, with no prefix-tree,
    isomorphism-class or automorphism-orbit sharing.  Its records
    come from the rules the sweep read: ``control._consistency`` under the
    matrix's own hypotheses and forcing status, ``_single_vector_checks``
    and ``_distance_record``.  So a fault of the engine reproduces and a
    fault of the sharing does not; the structurally independent check is
    the brute-force oracles of the test suite (``tests/oracles.py``).
    Returns True when the recorded failure reproduces; ``v`` that is not a
    ``Violation`` raises ValueError.
    """
    _expect(v, Violation)
    g = graphs.graph(v.order, v.edges)
    a = control.pattern_matrix(parse_matrix(v.matrix)) if v.matrix else control.build_matrix(g, v.kind)
    if v.check == "distance_power_nonzero":
        records = [_distance_record(control.distance_power_defects(a))]
    elif v.check == "single_vector_equivalence":
        records = _single_vector_checks(a.n, _fresh_dims(a, v.subset))
    else:
        dims = _fresh_dims(a, v.subset)
        hyp = all(control._hypotheses(a).values())
        records = control._consistency(a.n, *dims, forcing.is_zfs(a.pattern, v.subset), hyp)
    return any(check == v.check and status == control.CHECK_VIOLATED for check, status, _ in records)


def _fresh_dims(a, s) -> tuple:
    """(walk, pspan, lie) of one control set, grown alone by the sweeps' engine.

    ``control._grow`` grows the set from a fresh root and certifies every
    closure from its own rows.  ``analyze`` takes its own route: it reads
    the Lie dimension off the first control vertex's walk when that walk
    spans the whole walk (``control._dimensions``), every one-vertex set
    included, so there kalman_iff_lie holds by construction.
    """
    members = control._control_set(a, s)
    control.check_lie_order(a.n)
    return control._grow(control._Session(a), [members], parts=control._PARTS)[members]


def _distance_record(defects) -> tuple:
    """The distance_power_nonzero record of one matrix, from its defects."""
    status = control.CHECK_VIOLATED if defects else control.CHECK_PASSED
    return "distance_power_nonzero", status, f"zero entries at (k, j, d) = {sorted(defects)}"


def _single_vector_checks(n: int, dims: tuple) -> tuple:
    """The records of one single-vector sample, from its (walk, pspan, lie) dimensions.

    For one control vector, walk rank n iff Lie dimension n^2 needs no
    hypothesis, so the first record is ``control._consistency``'s
    kalman_iff_lie asserted (``hyp=True``) and renamed; the second is the
    span identity.
    """
    (_, status, detail), _, span = control._consistency(n, *dims, False, True)
    return ("single_vector_equivalence", status, detail), span


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


def _outcome(config: dict, items) -> SweepOutcome:
    """Tally every (graph, kind, members, records, matrix) item a sweep yields.

    Each (check, status, detail) record counts under its check, and each
    violated one becomes a ``Violation`` with its detail; ``matrix`` is the
    matrix text of an explicit instance, else empty.  Each item with
    members counts as one instance; a per-matrix item has none.
    """
    counts: Counter = Counter()
    violations = []
    instances = 0
    for g, kind, members, records, matrix in items:
        instances += bool(members)
        for check, status, detail in records:
            counts[check] += 1
            if status == control.CHECK_VIOLATED:
                violations.append(Violation(
                    order=g.order, edges=tuple(sorted(g.edges)), kind=kind, subset=tuple(members),
                    check=check, detail=detail, matrix=matrix,
                ))
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
    exhaustive enumeration is limited to n <= 5 (2^10 masks).  Each mask's
    edge pairs are tested for connectivity as they are (``graphs._spans``),
    so a ``Graph`` is built only for a connected one.  The sweeps group
    them into isomorphism classes with ``_canonical_labeling``.
    An order that is not an int in 1..5 raises ValueError.
    """
    if graphs.check_int(n, "order", 1) > 5:
        raise ValueError("exhaustive enumeration is limited to n <= 5")
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for mask in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        if graphs._spans(n, edges):
            yield Graph(n, frozenset(edges))


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
    """The sorted vertex pairs of order n with their bits, and every relabeling's action on them.

    Returns (index, perms): index maps each sorted pair, in order, to its
    bit position in an edge bitmask, so an edge's bit is one lookup.  Each relabeling is a pair (pi, bits):
    pi[v] is the new label of vertex v (pi[0] is unused) and bits[i] is the
    edge-bitmask bit of the image of pair i; the identity comes first.
    """
    index = {(u, v): i for i, (u, v) in enumerate(itertools.combinations(range(1, n + 1), 2))}
    perms = []
    for image in itertools.permutations(range(1, n + 1)):
        pi = (0,) + image
        bits = tuple(1 << index[min(pi[u], pi[v]), max(pi[u], pi[v])] for u, v in index)
        perms.append((pi, bits))
    return index, tuple(perms)


@lru_cache(maxsize=None)
def _subsets(n: int) -> tuple:
    """Every subset of 1..n as a sorted tuple, indexed by its bitmask: bit j - 1 holds vertex j."""
    return tuple(tuple(j + 1 for j in range(n) if mask >> j & 1) for mask in range(1 << n))


def _all_nonempty_subsets(n: int) -> tuple:
    return _subsets(n)[1:]


def _canonical_labeling(g: Graph) -> tuple:
    """g's class record: the canonical representative, g's orbit, and its control sets' orbit table.

    The representative is the relabeling of g with the least edge bitmask
    over the sorted vertex pairs, found by trying every permutation (n! of
    them, so meant for small n; McKay and Piperno, "Practical graph
    isomorphism, II", J. Symbolic Comput. 60 (2014), give the general
    method).  Returns (representative, images, canon) from that one pass.
    images maps the edge bitmask of every relabeling sigma(g) to every
    sigma, in ``_relabelings`` order, that gives it (sigma[v] is the label
    of g's vertex v), so the representative's entry is the coset C0 of the
    relabelings that map g onto it, |Aut| of them.  canon maps the bitmask
    of every subset x of g's vertices to its least sorted image c(x) over
    c in C0.
    """
    index, perms = _relabelings(g.order)
    edges = [index[e] for e in g.edges]
    images: dict = {}
    for sigma, bits in perms:
        images.setdefault(sum([bits[i] for i in edges]), []).append(sigma)
    best = min(images)
    canon = [min(tuple(sorted(c[v] for v in x)) for c in images[best]) for x in _subsets(g.order)]
    return graphs.graph(g.order, [p for p, i in index.items() if best >> i & 1]), images, canon


def _class_keys(g: Graph, orbit: dict, subsets) -> tuple:
    """(rep, keys): g's class representative and each subset's key in its class's orbit table.

    ``orbit`` maps the edge bitmask of every labeled graph in the orbit of
    a class seen so far to that class's record (``_canonical_labeling``).
    A graph outside it is canonicalized and its whole orbit added, so one
    labeling runs per class.  g is t(g0) for the class's first graph g0
    and t the first relabeling the record lists for g's mask, so a set S
    of g is t^-1(S) in g0 and is keyed by canon[t^-1(S)].
    """
    index, _ = _relabelings(g.order)
    mask = sum(1 << index[e] for e in g.edges)
    if mask not in orbit:
        record = _canonical_labeling(g)
        orbit.update(dict.fromkeys(record[1], record))
    rep, images, canon = orbit[mask]
    t = images[mask][0]
    bit = [0] * (g.order + 1)
    for v in g.vertices:
        bit[t[v]] = 1 << v - 1
    return rep, {s: canon[sum([bit[u] for u in s])] for s in subsets}


def _subset_family(policy: str):
    """The subsets ``policy`` selects on a graph, as a function of (g, zfs_map).

    The policy is parsed once per sweep call.  A ``random:K:SEED`` family
    draws from one generator seeded here, so each graph, in enumeration
    order, takes the next K distinct nonempty subsets' masks, sorted.
    Policy ``zfs`` reads the forcing status of every subset.
    """
    base, count, seed = _parse_policy(policy)
    if base == "all":
        return lambda g, zfs_map: _all_nonempty_subsets(g.order)
    if base == "singletons":
        return lambda g, zfs_map: [(j,) for j in g.vertices]
    if base == "zfs":
        return lambda g, zfs_map: [s for s in _all_nonempty_subsets(g.order) if zfs_map[s]]
    rng = random.Random(seed)

    def sample(g: Graph, zfs_map: dict) -> list:
        total = (1 << g.order) - 1
        masks = sorted(rng.sample(range(1, total + 1), min(count, total)))
        return [_subsets(g.order)[mask] for mask in masks]

    return sample


def _minimal_members(family, zfs_map: dict) -> list:
    """The forcing sets in ``family`` with no proper forcing subset.

    Forcing is closed under supersets, so a forcing set is minimal when no
    one-vertex drop forces.  A singleton's one drop is the empty set, which
    forces no graph and is not read.
    """
    return [s for s in family if zfs_map[s] and (
        len(s) == 1 or not any(zfs_map[tuple(v for v in s if v != drop)] for drop in s))]


def _units(cfg: SweepConfig, select, parts=control._PARTS):
    """Every (labeled graph, kind) unit of a sweep, in enumeration order.

    ``select(g, zfs_map)`` gives the subsets to check on g; it is called for
    every graph of an order, in enumeration order, before that order's first
    unit is yielded.  zfs_map is g's ``forcing._ForcingMap``: each subset's
    forcing status is closed the first time ``select`` or a check reads it,
    so a sampled policy closes only the subsets it draws and their drops.
    Yields (g, kind, zfs_map, session, table), where table maps each
    selected subset, in ``select`` order, to its dims: the dimensions named
    by ``parts`` (a subset of ``control._PARTS``), in that order, by
    default (walk_rank, p_span_dim, lie_dim).  Only those parts are grown.

    Every kind reads its dims off one ``control._grow`` table per (class,
    kind), over the keys of the subsets the class needs; session is the
    class's.  For a kind that is not label-invariant (``random:SEED``) g
    is its own class and each subset its own key: the table is grown over
    the selected subsets themselves, and nothing is canonicalized.

    For a label-invariant kind the class of g is its canonical
    representative R.  Relabeling by a permutation sigma with sigma(g) = R
    turns A(g) into P_sigma A(g) P_sigma^T = A(R) and maps the walk
    columns, projectors and brackets of S onto those of sigma(S), so
    (g, S) and (R, sigma(S)) have the same dimensions, for every such
    sigma.  S is keyed by the least sorted image sigma(S) over all of
    them, which is the same for every set of its orbit, and ``_grow``
    takes one set per key.  The key is read off the class record that
    ``_canonical_labeling`` makes in its one pass over the relabelings,
    at the class's first selected graph g0: C0, the relabelings c with
    c(g0) = R, and canon, each subset x of g0 keyed by its least sorted
    image c(x) over c in C0.  A graph g = t(g0) of the class reads S at
    canon[t^-1(S)] (``_class_keys``), and that is S's key: sigma(g) = R
    holds exactly when sigma o t maps g0 onto R, that is when
    sigma = c o t^-1 for some c in C0, so the images sigma(S) are the
    images c(t^-1(S)).  A table is made at its class's first unit, and a
    labeled class's is dropped as its one unit is yielded, so a
    ``random:SEED`` kind holds one session at a time, not one per labeled
    graph of the order.
    """
    invariant = {kind: control.parse_kind(kind)[2] for kind in cfg.matrix_kinds}
    for _, batch in itertools.groupby(_iter_graphs(cfg), key=lambda g: g.order):
        rows = []
        classes: dict = {}
        orbit: dict = {}
        for g in batch:
            zfs_map = forcing._ForcingMap(g)
            subsets = select(g, zfs_map)
            if not subsets:
                continue
            # (class, each subset's key) per labeling in use, shared by its kinds
            labels = {flag: _class_keys(g, orbit, subsets) if flag else (g, dict(zip(subsets, subsets)))
                      for flag in set(invariant.values())}
            for kind in cfg.matrix_kinds:
                rep, relabel = labels[invariant[kind]]
                classes.setdefault((rep, kind), set()).update(relabel.values())
            rows.append((g, zfs_map, subsets, labels))
        tables = {}
        for g, zfs_map, subsets, labels in rows:
            for kind in cfg.matrix_kinds:
                rep, relabel = labels[invariant[kind]]
                if (rep, kind) not in tables:
                    session = control._Session(control.build_matrix(rep, kind))
                    tables[rep, kind] = session, control._grow(session, classes[rep, kind], parts=parts)
                session, shared = tables[rep, kind] if invariant[kind] else tables.pop((rep, kind))
                yield g, kind, zfs_map, session, {s: shared[relabel[s]] for s in subsets}


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def sweep_equivalence(cfg: SweepConfig) -> SweepOutcome:
    """Check the Kalman/Lie equivalence and its companion identities.

    Per selected (graph, kind, subset) instance: kalman_iff_lie,
    zfs_implies_lie and span_dimension_identity, all asserted, since every
    sweep matrix meets the connectivity and sign hypotheses.  Once per
    (graph, kind): distance_power_nonzero.  instances_checked counts
    subset instances.  A ``cfg`` that is not a ``SweepConfig`` raises
    ValueError.
    """
    _expect(cfg, SweepConfig)
    units = _units(cfg, _subset_family(cfg.subset_policy))

    def items():
        for g, kind, zfs_map, session, table in units:
            defects = session.defects()
            if defects and session.a.pattern != g:
                # found on the representative: report them in g's labels
                defects = control.distance_power_defects(control.build_matrix(g, kind))
            yield g, kind, (), [_distance_record(defects)], ""
            for members, dims in table.items():
                yield g, kind, members, control._consistency(g.order, *dims, zfs_map[members], True), ""

    return _outcome(dict(op="equivalence", **cfg.to_dict()), items())


def sweep_zfs_implication(cfg: SweepConfig) -> SweepOutcome:
    """Check that every zero forcing control set is Lie controllable.

    With subset_policy "all" every forcing subset (the family of policy
    "zfs") is asserted; any other policy asserts the minimal-by-inclusion
    forcing sets among its candidates.  Traversal is pruned to branches
    that still lead to a target, so non-forcing regions of the subset tree
    cost nothing, and only the Lie closure is grown, since the one record
    reads nothing else.  A ``cfg`` that is not a ``SweepConfig`` raises
    ValueError.
    """
    _expect(cfg, SweepConfig)
    if cfg.subset_policy == "all":
        targets = _subset_family("zfs")
    else:
        family = _subset_family(cfg.subset_policy)

        def targets(g: Graph, zfs_map: dict) -> list:
            return _minimal_members(family(g, zfs_map), zfs_map)

    # every target is a forcing set
    items = ((g, kind, members, [control._zfs_implies_lie(g.order, lie_dim, True, True)], "")
             for g, kind, _, _, table in _units(cfg, targets, ("lie",))
             for members, (lie_dim,) in table.items())
    return _outcome(dict(op="zfs_implication", **cfg.to_dict()), items)


def sweep_single_vector(samples: int, seed: int) -> SweepOutcome:
    """Spot-check the one-vector equivalence on arbitrary symmetric matrices.

    Draws seeded random symmetric integer matrices (order 1..5, entries
    uniform in -9..9 with signs free, zero entries and disconnected
    patterns allowed) and one random standard basis vector, then asserts
    walk_rank = n iff lie_dim = n^2, plus the span identity.  No graph
    hypotheses are involved.  The dimensions come from the sweeps' engine
    (``_fresh_dims``), which grows every closure.
    """
    if type(samples) is not int or samples < 1:  # bool is an int subclass
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    graphs.check_int(seed, "seed")

    def items():
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
            records = _single_vector_checks(n, _fresh_dims(a, (ctrl,)))
            yield a.pattern, "explicit", (ctrl,), records, format_matrix(a.matrix)

    return _outcome({"op": "single_vector", "samples": samples, "seed": seed}, items())


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
