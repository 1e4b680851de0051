"""Span tracing for the traced benchmark run.

The traced run wraps the calls into each netctrl module at the name its
caller looks it up by (a module attribute, or a method on a class), and
records one span per call: name, start, end and parent.  Spans are kept in
flat arrays in memory and written out once the run ends.  A span's self
time is its duration minus the time covered by its child spans; because
every traced span nests inside one root span, the self times of all spans
sum to the root's duration exactly.

Span names are ``module.what``; the module prefix is the layer a span is
charged to.  ``EchelonBasis.insert`` is split three ways by the span that
encloses it: inside a Lie-engine span it is a Lie insert, otherwise an
insert of ambient size n^2 (n the order of the instance being decided) is a
product-span insert and any other size is a walk insert.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import Counter

MODULES = ("harness", "control", "linalg", "intlinalg", "forcing", "graphs")
ROOT_NAME = "bench.round"


def insert_kind(ambient: int, order: int, in_lie: bool) -> str:
    """Which insert an ``EchelonBasis.insert`` call is, by its enclosing span."""
    if in_lie:
        return "lie_insert"
    if order > 1 and ambient == order * order:
        return "pspan_insert"
    return "walk_insert"


def tail_percentile(samples) -> tuple:
    """The highest percentile with at least 10 samples beyond it.

    That is the 11th largest sample, the 100 * (n - 10) / n percentile of n
    samples.  Returns ``(label, value, count)``; with fewer than 11 samples
    no percentile qualifies and the maximum is returned under the label
    ``"max"``.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n < 11:
        return "max", xs[-1], n
    return f"p{100 * (n - 10) / n:.4g}", xs[n - 11], n


def median(samples) -> float:
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    mid = n // 2
    return xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2


class Tracer:
    """In-memory span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack: list = []
        self.counts: Counter = Counter()
        self.bits_max = 0
        self.order = 0
        self.lie_depth = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        if self.stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn, before=None, after=None):
        """A traced stand-in for ``fn`` that records one span per call.

        ``before(args)`` runs just before the span opens; ``after(result,
        args)`` runs after it closes, so neither is charged to the span.
        """
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_insert(self, fn):
        """Traced ``EchelonBasis.insert``: one of three span names per call."""
        ids = {kind: self.name_id("intlinalg." + kind)
               for kind in ("lie_insert", "walk_insert", "pspan_insert")}
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        counts = self.counts
        clock = time.perf_counter_ns
        tracer = self

        def traced(basis, values):
            kind = insert_kind(basis.ambient, tracer.order, tracer.lie_depth > 0)
            if kind == "lie_insert":
                bits = max(map(abs, values)).bit_length() if values else 0
                if bits > tracer.bits_max:
                    tracer.bits_max = bits
            idx = len(names)
            names.append(ids[kind])
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                grew = fn(basis, values)
            finally:
                ends[idx] = clock()
                stack.pop()
            if grew:
                counts[kind + ".grew"] += 1
            return grew

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict:
        return self_times(self.names, self.name, self.start, self.end, self.parent)

    def write(self, path) -> None:
        """Write every span as a gzip file: one JSON header line, then arrays.

        The header gives the name table and the byte length of each array;
        the arrays (name id, start ns, end ns, parent index) follow in that
        order in native byte order.  ``read_spans`` loads the file back.
        """
        arrays = (self.name, self.start, self.end, self.parent)
        header = {
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "names": self.names,
            "typecodes": [a.typecode for a in arrays],
            "lengths": [len(a) * a.itemsize for a in arrays],
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in arrays:
                fh.write(a.tobytes())


class _Span:
    __slots__ = ("tracer", "label", "idx")

    def __init__(self, tracer: Tracer, label: str):
        self.tracer = tracer
        self.label = label
        self.idx = -1

    def __enter__(self):
        self.idx = self.tracer.open(self.label)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


def read_spans(path) -> list:
    """Load a file written by ``Tracer.write`` as (name, start, end, parent) rows."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code, length in zip(header["typecodes"], header["lengths"]):
            a = array(code)
            a.frombytes(fh.read(length))
            arrays.append(a)
    names = header["names"]
    return [(names[i], s, e, p) for i, s, e, p in zip(*arrays)]


def self_times(names, name, start, end, parent) -> dict:
    """Per span name: [calls, total duration ns, self time ns].

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    Every span must be closed.
    """
    count = len(name)
    covered = [0] * count
    for i in range(count):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    out: dict = {}
    for i in range(count):
        dur = end[i] - start[i]
        row = out.setdefault(names[name[i]], [0, 0, 0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - covered[i]
    return out


def module_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def child_count(tracer: Tracer, parent_name: str, child_name: str) -> int:
    """How many ``child_name`` spans have a ``parent_name`` span as parent."""
    ids = tracer._ids
    if parent_name not in ids or child_name not in ids:
        return 0
    pid, cid = ids[parent_name], ids[child_name]
    name = tracer.name
    return sum(1 for i, p in zip(name, tracer.parent) if i == cid and p >= 0 and name[p] == pid)


def instrument(tracer: Tracer, nc) -> callable:
    """Wrap netctrl's layer boundaries in spans; returns the undo function.

    Each name is patched where its caller looks it up: ``control.analyze``
    calls ``is_zfs`` and ``mat_vec`` under names bound in ``control``, the
    harness calls ``control.build_matrix`` and ``forcing.is_zfs`` through
    the modules, and methods are patched on their classes.  Calls inside a
    module that are not listed (small helpers) are charged to the caller.
    """
    c, f, g, h, i, l = nc.control, nc.forcing, nc.graphs, nc.harness, nc.intlinalg, nc.linalg

    def matrix_order(args):
        tracer.order = args[0].n

    def graph_order(args):
        tracer.order = args[0].order

    def commutator_zero(result, args):
        if not any(any(row) for row in result):
            tracer.counts["commutator.zero"] += 1

    def closure_forces(result, args):
        tracer.counts["closure.forces"] += len(result[1])

    plan = [
        (h, "sweep_equivalence", "harness.sweep_equivalence", None, None),
        (h, "sweep_zfs_implication", "harness.sweep_zfs_implication", None, None),
        (c, "analyze", "control.analyze", matrix_order, None),
        (c, "build_matrix", "control.build_matrix", graph_order, None),
        (c, "distance_power_defects", "control.distance_power", None, None),
        (c, "kalman_controllable", "control.kalman", None, None),
        (c, "p_span_dim", "control.pspan", None, None),
        (c, "lie_controllable", "control.lie_controllable", None, None),
        (c, "mat_vec", "linalg.mat_vec", None, None),
        (c, "rank", "linalg.rank", None, None),
        (c, "outer", "linalg.outer", None, None),
        (l.MatrixSpaceBasis, "insert", "linalg.space_insert", None, None),
        (i, "int_commutator", "intlinalg.commutator", None, commutator_zero),
        (c, "is_zfs", "forcing.is_zfs", None, None),
        (f, "is_zfs", "forcing.is_zfs", None, None),
        (f, "closure", "forcing.closure", None, closure_forces),
        (f, "min_zfs", "forcing.min_zfs", None, None),
        (f, "adjacency_sets", "graphs.adjacency_sets", None, None),
        (f, "degree", "graphs.degree", None, None),
        (g, "graph", "graphs.graph", None, None),
        (g, "is_connected", "graphs.is_connected", None, None),
        (g, "distance", "graphs.distance", None, None),
        (g, "adjacency_sets", "graphs.adjacency_sets", None, None),
    ]
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    for owner, attr, name, before, after in plan:
        patch(owner, attr, tracer.wrap(name, vars(owner)[attr], before, after))
    patch(i.EchelonBasis, "insert", tracer.wrap_insert(vars(i.EchelonBasis)["insert"]))

    traced_extend = tracer.wrap("control.lie", vars(c._LieEngine)["extend"])

    def extend(engine, int_generators, cap):
        tracer.lie_depth += 1
        try:
            return traced_extend(engine, int_generators, cap)
        finally:
            tracer.lie_depth -= 1

    patch(c._LieEngine, "extend", extend)

    def undo():
        while saved:
            owner, attr, original = saved.pop()
            setattr(owner, attr, original)

    return undo
