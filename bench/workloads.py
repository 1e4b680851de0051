"""The benchmark's three workloads: seeded inputs, their calls, and checks.

Each workload builds its inputs from the seed through netctrl's public API
(this is the set-up the benchmark times), lists its calls as ``(label, kind,
thunk)`` triples, derives the answers it expects by routes independent of
the calls it times, and checks every result.  A thunk looks its netctrl
function up at call time, so the traced run sees the wrapped name.

A run draws its inputs once and then makes every call in each of several
rounds; the run reports, per call, the median of its rounds.

* ``sweep4``: ``sweep_equivalence`` and ``sweep_zfs_implication`` at order 4,
  once with the adjacency kind and once with a seeded random kind, on a
  seeded ``random:8:SEED`` subset family.  Eight of the 15 subsets per graph
  so that the prefix tree shares nodes; the adjacency half is often rank
  deficient and brackets to a fixpoint, the random half is almost always
  full rank and stops early at n^2.  Order 4, not 5: one order-5 round
  takes about 40 s, a whole run, and a single timing of that length moves
  by 10-25% with the load other tenants put on a shared machine.  An
  order-4 round takes under 2 s, so a run takes the median of many.
* ``analyze-grid``: one-shot ``control.analyze`` with control set {1} on
  paths, cycles and complete graphs of order 4..8, each with the adjacency
  kind and three seeded random kinds.  From-scratch closure at the largest n the
  closed loop can afford; cycles and complete graphs with the adjacency kind
  are deficient.
* ``zfs-search``: ``forcing.min_zfs`` on seeded random connected graphs of
  order 12..16 at three densities (the denser ones at the smaller orders),
  plus stars and random trees (high Z) and paths, cycles and complete graphs
  (closed forms).  No linear algebra runs here.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

REFERENCE_GRID = Path(__file__).with_name("reference_grid.json")


class Workload:
    """One named workload; subclasses fill in inputs, calls and checks."""

    name = ""
    #: Seconds one round took at the seed commit on a shared 2-CPU x86 box
    #: with Python 3.11.  A run makes round(seconds / nominal_round_s)
    #: rounds (at least one), so the work per run is fixed and does not
    #: change when the code gets faster or slower.
    nominal_round_s = 1.0

    def __init__(self, nc, seed: int):
        self.nc = nc
        self.expected: dict = {}

    def calls(self) -> list:
        raise NotImplementedError

    def derive_expected(self, oracles) -> None:
        """Compute the expected answers (check work, not timed as set-up)."""
        raise NotImplementedError

    def check(self, label: str, result) -> tuple:
        """(decisions, failed decisions, reason or None) for one call's result."""
        raise NotImplementedError

    def decisions_if_raised(self, label: str) -> int:
        return 1


# ---------------------------------------------------------------------------
# sweep4
# ---------------------------------------------------------------------------

def connected_graph_edges(n: int) -> list:
    """Labeled connected graphs on 1..n as edge lists, in edge-bitmask order.

    The order is the one ``harness.connected_graphs`` documents; it fixes
    which sampled subsets each graph receives from the shared generator.
    """
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    out = []
    for mask in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        adj = adjacency(n, edges)
        seen, stack = {1}, [1]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == n:
            out.append(edges)
    return out


def adjacency(n: int, edges) -> dict:
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def expected_sweep_json(op: str, max_order: int, kind: str, policy: str, instances: int,
                        counts: dict) -> str:
    """The canonical ``SweepOutcome.to_json()`` bytes of a passing sweep."""
    outcome = {
        "config": {"op": op, "max_order": max_order, "matrix_kinds": [kind],
                   "subset_policy": policy, "seed": 0},
        "instances_checked": instances,
        "check_counts": dict(sorted(counts.items())),
        "violations": [],
        "passed": True,
    }
    return json.dumps(outcome, sort_keys=True, separators=(",", ":"))


class Sweep4(Workload):
    name = "sweep4"
    nominal_round_s = 2.0
    max_order = 4
    subsets_per_graph = 8

    def __init__(self, nc, seed: int):
        super().__init__(nc, seed)
        rng = random.Random(f"sweep4:{seed}")
        random_kind = f"random:{rng.randrange(1, 10**6)}"
        self.policy = f"random:{self.subsets_per_graph}:{rng.randrange(1, 10**6)}"
        self.configs = {
            cls: nc.harness.SweepConfig(
                max_order=self.max_order, matrix_kinds=(kind,), subset_policy=self.policy)
            for cls, kind in (("adjacency", "adjacency"), ("random", random_kind))
        }

    def calls(self) -> list:
        harness = self.nc.harness
        # sweep-major, so the two kinds' calls interleave in time
        return [(f"{op}/{cls}", cls, lambda cfg=cfg, op=op: getattr(harness, "sweep_" + op)(cfg))
                for op in ("equivalence", "zfs_implication") for cls, cfg in self.configs.items()]

    def derive_expected(self, oracles) -> None:
        """Instance counts and outcome bytes, from an independent enumeration.

        The subset family is re-drawn with the documented rule (one
        generator seeded by the policy, ``sample`` of K nonempty-subset
        masks per graph in enumeration order) and forcing sets are found
        with the oracle's simultaneous-rounds closure.
        """
        _, count, seed = self.policy.split(":")
        count = int(count)
        rng = random.Random(int(seed))
        graphs_seen = equivalence = implication = 0
        for n in range(1, self.max_order + 1):
            for edges in connected_graph_edges(n):
                graphs_seen += 1
                adj = adjacency(n, edges)
                total = (1 << n) - 1
                masks = sorted(rng.sample(range(1, total + 1), min(count, total)))
                family = [tuple(j + 1 for j in range(n) if m >> j & 1) for m in masks]
                equivalence += len(family)

                def forces(s):
                    return len(oracles.forcing_closure_bruteforce(adj, n, s)) == n

                for s in family:
                    if forces(s) and not any(
                        forces(tuple(v for v in s if v != drop)) for drop in s
                    ):
                        implication += 1
        # every connected graph with a same-sign kind meets the hypotheses
        eq_counts = {"distance_power_nonzero": graphs_seen, "kalman_iff_lie": equivalence,
                     "span_dimension_identity": equivalence, "zfs_implies_lie": equivalence}
        for cls, cfg in self.configs.items():
            kind = cfg.matrix_kinds[0]
            self.expected[f"equivalence/{cls}"] = (
                equivalence,
                expected_sweep_json("equivalence", self.max_order, kind, self.policy,
                                    equivalence, eq_counts))
            self.expected[f"zfs_implication/{cls}"] = (
                implication,
                expected_sweep_json("zfs_implication", self.max_order, kind, self.policy,
                                    implication, {"zfs_implies_lie": implication}))

    def decisions_if_raised(self, label: str) -> int:
        return self.expected[label][0]

    def check(self, label: str, result) -> tuple:
        decisions, want = self.expected[label]
        got = result.to_json()
        if got != want:
            return decisions, decisions, f"{label}: outcome bytes differ: {got[:300]}"
        return decisions, 0, None


# ---------------------------------------------------------------------------
# analyze-grid
# ---------------------------------------------------------------------------

class AnalyzeGrid(Workload):
    name = "analyze-grid"
    nominal_round_s = 9.0
    families = ("path", "cycle", "complete")
    orders = range(4, 9)
    control_set = (1,)
    #: Random matrices per (family, order).  One draw's cost varies by
    #: 10-30% with its entries, so several draws keep the cost of a round,
    #: and with it the rates, nearly the same from seed to seed.
    random_draws = 3

    def __init__(self, nc, seed: int):
        super().__init__(nc, seed)
        rng = random.Random(f"analyze-grid:{seed}")
        kinds = [("adjacency", "adjacency")] + [
            ("random", f"random:{rng.randrange(1, 10**6)}") for _ in range(self.random_draws)]
        self.cells = {}
        for n in self.orders:
            for family in self.families:
                g = nc.graphs.generate(family, n)
                for draw, (cls, kind) in enumerate(kinds):
                    self.cells[f"{family}/{cls}/{n}/{draw}"] = nc.control.build_matrix(g, kind)

    def calls(self) -> list:
        control = self.nc.control
        s = self.control_set
        return [(label, label.split("/")[1], lambda a=a: control.analyze(a, s))
                for label, a in self.cells.items()]

    def derive_expected(self, oracles) -> None:
        """Adjacency cells from the reference table; random cells by theorem.

        A random cell's walk rank r comes from the oracle's divide-through
        elimination; then p_span_dim = r^2 always, and on these connected
        same-sign matrices lie_dim = n^2 exactly when r = n.
        """
        table = json.loads(REFERENCE_GRID.read_text())
        if table["control_set"] != list(self.control_set):
            raise ValueError("reference table is for another control set")
        for label, a in self.cells.items():
            family, cls, n, _ = label.split("/")
            n = int(n)
            zfs = family == "path"  # an end vertex forces a path; n >= 3 otherwise
            if cls == "adjacency":
                walk, pspan, lie, zfs_ref = table["adjacency"][f"{family}/{n}"]
                self.expected[label] = {"walk_rank": walk, "p_span_dim": pspan,
                                        "lie_dim": lie, "zfs_status": zfs_ref}
            else:
                entries = [[int(x) for x in row] for row in a.matrix.entries]
                r = oracles.walk_rank_bruteforce(entries, self.control_set)
                self.expected[label] = {"walk_rank": r, "p_span_dim": r * r,
                                        "lie_full": r == n, "zfs_status": zfs}

    def check(self, label: str, result) -> tuple:
        want = self.expected[label]
        n = int(label.split("/")[2])
        got = {"walk_rank": result.walk_rank, "p_span_dim": result.p_span_dim,
               "lie_dim": result.lie_dim, "lie_full": result.lie_dim == n * n,
               "zfs_status": result.zfs_status}
        problems = [k for k in want if got[k] != want[k]]
        if result.theorem_violations:
            problems.append("theorem_violations")
        if problems:
            return 1, 1, f"{label}: {problems} got {got} want {want}"
        return 1, 0, None


# ---------------------------------------------------------------------------
# zfs-search
# ---------------------------------------------------------------------------

def prufer_tree(n: int, rng) -> list:
    """Edges of the labeled tree on 1..n with a uniformly drawn Pruefer code."""
    code = [rng.randint(1, n) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = next(u for u in range(1, n + 1) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(1, n + 1) if degree[x] == 1)
    edges.append((u, w))
    return edges


def tree_path_cover(n: int, edges) -> int:
    """Path cover number of a tree, which equals its zero forcing number.

    Bottom-up greedy: a vertex joins the path of one open child (it stays
    open) or of two (it closes); every joined edge saves one path.
    """
    adj = adjacency(n, edges)
    order, parent = [1], {1: 0}
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    open_end = {}
    joined = 0
    for v in reversed(order):
        k = sum(1 for w in adj[v] if w != parent[v] and open_end[w])
        joined += min(k, 2)
        open_end[v] = k < 2
    return n - joined


class ZfsSearch(Workload):
    name = "zfs-search"
    nominal_round_s = 9.0
    orders = range(12, 17)
    #: (edge probability, ((order, graphs), ...)).  One draw's search cost
    #: varies by 30-130% around the mean of its (order, density) cell, so
    #: the cells hold many draws, and the dense cells, where one draw costs
    #: as much as dozens of sparse ones, stop at smaller orders.  The
    #: deterministic stars carry the heavy end instead.
    random_graphs = (
        (Fraction(1, 4), ((12, 20), (13, 20), (14, 20), (15, 8), (16, 8))),
        (Fraction(1, 2), ((12, 32), (13, 32), (14, 12))),
        (Fraction(3, 4), ((12, 20), (13, 12))),
    )
    #: (order, trees): seeded random trees, whose Z is their path cover number
    trees = ((12, 16), (13, 16), (14, 16), (15, 6))
    closed_form_orders = (12, 16)

    def __init__(self, nc, seed: int):
        super().__init__(nc, seed)
        graphs = nc.graphs
        rng = random.Random(f"zfs-search:{seed}")
        self.cases = {}
        for p, cells in self.random_graphs:
            for n, count in cells:
                for i in range(count):
                    g = graphs.random_connected(n, p, seed=rng.randrange(2**31))
                    self.cases[f"gnp/{n}/{p}/{i}"] = g
        for n, count in self.trees:
            for i in range(count):
                self.cases[f"tree/{n}/{i}"] = graphs.graph(n, prufer_tree(n, rng))
        for n in self.orders:
            self.cases[f"star/{n}"] = graphs.graph(n, [(1, j) for j in range(2, n + 1)])
        for n in self.closed_form_orders:
            for family in ("path", "cycle", "complete"):
                self.cases[f"{family}/{n}"] = graphs.generate(family, n)
        self.oracles = None

    def calls(self) -> list:
        forcing = self.nc.forcing
        return [(label, None, lambda g=g: forcing.min_zfs(g)) for label, g in self.cases.items()]

    def derive_expected(self, oracles) -> None:
        """Closed forms for paths, cycles, complete graphs and stars; the path
        cover number for trees; none for G(n, p) draws, whose witnesses are
        only replayed."""
        self.oracles = oracles
        closed = {"path": lambda n: 1, "cycle": lambda n: 2,
                  "complete": lambda n: n - 1, "star": lambda n: n - 2}
        for label, g in self.cases.items():
            family = label.split("/", 1)[0]
            if family in closed:
                self.expected[label] = closed[family](g.order)
            elif family == "tree":
                self.expected[label] = tree_path_cover(g.order, sorted(g.edges))
            else:
                self.expected[label] = None

    def check(self, label: str, result) -> tuple:
        g = self.cases[label]
        z, witness = result
        n = g.order
        adj = adjacency(n, g.edges)
        problems = []
        want = self.expected[label]
        if want is not None and z != want:
            problems.append(f"Z {z} != {want}")
        if len(witness) != z or list(witness) != sorted(set(witness)):
            problems.append(f"witness {witness} is not a set of size {z}")
        if z < min(len(adj[v]) for v in adj):
            problems.append("Z below the minimum degree")
        black, chronicle = self.nc.forcing.closure(g, witness)
        if len(black) != n:
            problems.append("witness does not force the graph")
        if len(witness) + len(chronicle) != len(black):
            problems.append("chronicle length does not match the forced vertices")
        if len(self.oracles.forcing_closure_bruteforce(adj, n, witness)) != n:
            problems.append("oracle closure of the witness is not everything")
        if problems:
            return 1, 1, f"{label}: {problems}"
        return 1, 0, None
