"""The traced benchmark run binds to netctrl's names.

``bench/spans.py::instrument`` patches each traced name where its caller
looks it up, and fails with ``KeyError`` on a name that is gone.  Loading it
here makes a rename or deletion fail the library's own tests at once,
instead of later under ``bench/run.py --trace 1``.  Likewise the call sites
that ``bench/test_bench.py`` attributes echelon inserts by are checked here,
instead of only under ``python3 -m pytest bench``.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from netctrl import control, forcing, graphs, harness, intlinalg, linalg

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
MODULES = SimpleNamespace(control=control, forcing=forcing, graphs=graphs, harness=harness,
                          intlinalg=intlinalg, linalg=linalg)
PATCHED = (control, forcing, graphs, harness, intlinalg, linalg,
           control._LieEngine, intlinalg.EchelonBasis, linalg.MatrixSpaceBasis)


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_binds_traces_and_undoes():
    spans = _load_spans()
    before = [dict(vars(owner)) for owner in PATCHED]
    tracer = spans.Tracer()
    undo = spans.instrument(tracer, MODULES)
    try:
        with tracer.span(spans.ROOT_NAME):
            control.analyze(control.adjacency_matrix(graphs.cycle_graph(5)), (1, 3))
    finally:
        undo()
    assert [dict(vars(owner)) for owner in PATCHED] == before
    st = tracer.self_times()
    assert all(st["intlinalg." + kind][0] for kind in ("walk_insert", "pspan_insert", "lie_insert"))


def test_inserts_come_from_the_call_sites_the_benchmark_names(monkeypatch):
    """``bench/test_bench.py`` attributes each echelon insert by its caller.

    A Lie insert must come from ``_LieEngine._offer``; a walk or span insert
    from ``control._extend_state`` (split by its local ``n`` against the
    basis size), ``linalg.rank`` or ``MatrixSpaceBasis.insert``.  An insert
    counts as a Lie insert when a ``_LieEngine.extend`` call encloses it.
    """
    lie_extend = control._LieEngine.extend.__code__
    offer = control._LieEngine._offer.__code__
    extend_state = control._extend_state.__code__
    others = {extend_state, linalg.rank.__code__, linalg.MatrixSpaceBasis.insert.__code__}
    original = intlinalg.EchelonBasis.insert
    seen = Counter()

    def recording(basis, values):
        caller = sys._getframe(1)
        frame, in_lie = caller, False
        while frame is not None and not in_lie:
            in_lie = frame.f_code is lie_extend
            frame = frame.f_back
        site = caller.f_code
        if site is extend_state:
            n = caller.f_locals["n"]
            ok = basis.ambient in (n, n * n)
        else:
            ok = site is offer if in_lie else site in others
        seen[site.co_name, in_lie, ok] += 1
        return original(basis, values)

    monkeypatch.setattr(intlinalg.EchelonBasis, "insert", recording)
    cfg = harness.SweepConfig(max_order=3, matrix_kinds=("adjacency", "random:4"))
    harness.sweep_equivalence(cfg)
    harness.sweep_zfs_implication(cfg)
    control.analyze(control.adjacency_matrix(graphs.cycle_graph(5)), (1, 3))
    assert all(ok for _, _, ok in seen), seen
    assert {(name, in_lie) for name, in_lie, _ in seen} == {("_offer", True), ("_extend_state", False)}
