"""The traced benchmark run binds to netctrl's names.

``bench/spans.py::instrument`` patches each traced name where its caller
looks it up, and fails with ``KeyError`` on a name that is gone.  Loading it
here makes a rename or deletion fail the library's own tests at once,
instead of later under ``bench/run.py --trace 1``.
"""

import importlib.util
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
