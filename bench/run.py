#!/usr/bin/env python3
"""netctrl benchmark: three workloads through the public API, one process.

Run from the repository root:

    python3 bench/run.py --workload sweep4 --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``sweep4``, ``analyze-grid`` and
``zfs-search``.  The load is a closed loop: one call at a time, single
threaded.  A run first sets up several times (fresh import of netctrl plus
input generation from the seed) and keeps the median as ``setup_s``.  It
then makes every call in each of round(seconds / nominal round time)
rounds, so the work per run is fixed, and checks every result afterwards.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
named in ``BENCHMARK.json``.  Every time is scaled to a reference host
speed: a burst of a fixed pure-Python probe runs before and after each
timed call (and each set-up), and the call's time is divided by the
median probe time around it over ``PROBE_REF_S``.  On a shared machine
the load from outside the process slows everything in it by up to 2x for
seconds to minutes at a time; raw times of the same inputs moved by 17%
(quartile spread) from run to run, scaled ones by 3-6%.  A call's time is
the median of its scaled rounds, rates divide decisions by the sum of
those times, and the raw figures and the host slowness go to the line
before the last.  With ``--trace 1`` the run measures
the acceptance timing-gate margins, makes two traced rounds alternating
with two untraced ones, which price the tracing, and reports the
per-layer metrics from the first traced round; its spans are written to
``.bench_out/`` when the run ends.  The line before the last records the
environment (python, nproc, git sha when the checkout is a
repository, a digest of ``src/``), the seed, the tail percentile used and
the failure fraction.

The run exits 2 without a result when netctrl's sources are not next to
the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

from spans import (  # noqa: E402  (the bench directory is the script's own path entry)
    MODULES, ROOT_NAME, Tracer, child_count, instrument, median, module_of, tail_percentile,
)
import gates  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {w.name: w for w in (workloads.Sweep4, workloads.AnalyzeGrid, workloads.ZfsSearch)}
SETUP_REPEATS = 15
KINDS = ("adjacency", "random")
#: The probe's time on an unloaded 2-CPU x86 box with Python 3.11; every
#: timing is scaled to the host speed at which the probe takes this long.
PROBE_REF_S = 2.0e-4
PROBE_BURST = 5


def probe() -> int:
    """A fixed slice of pure-Python work of the kinds netctrl does.

    A fraction-free integer elimination and a set-based forcing pass.  It
    never changes with netctrl, so its time tracks only how fast the host
    runs this process at that moment.
    """
    rng = random.Random(5)
    rows = []
    for _ in range(6):
        v = [rng.randint(-9, 9) for _ in range(36)]
        for r in rows:
            p = next(i for i, x in enumerate(r) if x)
            if v[p]:
                a, b = r[p], v[p]
                v = [a * x - b * y for x, y in zip(v, r)]
        if any(v):
            rows.append(v)
    adj = {i: {(i * 7 + k) % 60 for k in range(1, 5)} for i in range(60)}
    black = set(range(5))
    for _ in range(8):
        for u in sorted(black):
            white = [x for x in adj[u] if x not in black]
            if len(white) == 1:
                black.add(white[0])
    return len(rows) + len(black)


def probe_burst() -> list:
    clock = time.perf_counter
    times = []
    for _ in range(PROBE_BURST):
        t0 = clock()
        probe()
        times.append(clock() - t0)
    return times


def host_slowness(before: list, after: list) -> float:
    """How much slower than the reference the host ran around a timed region."""
    return median(before + after) / PROBE_REF_S


def load_netctrl() -> SimpleNamespace:
    """Import netctrl afresh, so that every set-up repeat pays the import."""
    for name in [m for m in sys.modules if m == "netctrl" or m.startswith("netctrl.")]:
        del sys.modules[name]
    importlib.import_module("netctrl")
    return SimpleNamespace(**{m: sys.modules["netctrl." + m] for m in MODULES})


def set_up(cls, seed: int) -> tuple:
    """(median scaled set-up time, median raw set-up time, the workload)."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = probe_burst()
        t0 = time.perf_counter()
        workload = cls(load_netctrl(), seed)
        seconds = time.perf_counter() - t0
        raw.append(seconds)
        scaled.append(seconds / host_slowness(before, probe_burst()))
    return median(scaled), median(raw), workload


def run_calls(workload) -> list:
    """One round of calls in a closed loop.

    Each record is (label, kind, seconds, slowness, result, error), with
    ``slowness`` the host's from the probe bursts just before and after
    the call.
    """
    records = []
    clock = time.perf_counter
    before = probe_burst()
    for label, kind, thunk in workload.calls():
        t0 = clock()
        try:
            result, error = thunk(), None
        except Exception as exc:  # a raising call is a failed decision; keep measuring
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = clock() - t0
        after = probe_burst()
        records.append((label, kind, seconds, host_slowness(before, after), result, error))
        before = after
    return records


def tally(workload, records, failures: list) -> tuple:
    """Check every record.

    Returns (attempted, failed, rows) with one row (label, kind, completed
    decisions, scaled seconds, raw seconds) per call; a call that raised
    completed nothing.
    """
    attempted = failed = 0
    rows = []
    for label, kind, seconds, slowness, result, error in records:
        if error is not None:
            decisions = bad = workload.decisions_if_raised(label)
            failures.append(f"{label}: raised {error}")
            completed = 0
        else:
            decisions, bad, why = workload.check(label, result)
            completed = decisions
            if why:
                failures.append(why)
        attempted += decisions
        failed += bad
        rows.append((label, kind, completed, seconds / slowness, seconds))
    return attempted, failed, rows


def per_call(rows, raw: bool = False) -> dict:
    """Per label: (kind, decisions completed in every round, median seconds).

    The seconds are scaled to the reference host speed unless ``raw``.
    """
    grouped: dict = {}
    for label, kind, completed, scaled, unscaled in rows:
        _, done, times = grouped.setdefault(label, (kind, [], []))
        done.append(completed)
        times.append(unscaled if raw else scaled)
    return {label: (kind, min(done), median(times))
            for label, (kind, done, times) in grouped.items()}


def rate(best: dict, kind=None) -> float:
    picked = [(done, sec) for k, done, sec in best.values() if kind is None or k == kind]
    return sum(done for done, _ in picked) / sum(sec for _, sec in picked)


def end_to_end(rows, setup_s: float, raw: bool = False) -> tuple:
    best = per_call(rows, raw)
    metrics = {"decisions_per_s": rate(best), "setup_s": setup_s}
    kinds = {kind for kind, _, _ in best.values()}
    for kind in KINDS:
        # a workload without matrix kinds reports its overall rate for each kind
        metrics[f"{kind}.decisions_per_s"] = rate(best, kind if kind in kinds else None)
    latencies_ms = [sec * 1000 for _, _, sec in best.values()]
    label, tail, samples = tail_percentile(latencies_ms)
    metrics["call_p50_ms"] = median(latencies_ms)
    metrics["call_tail_ms"] = tail
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    detail = {"call_tail_percentile": label, "call_samples": samples,
              "kind_split": sorted(k for k in kinds if k in KINDS)}
    return metrics, detail


def layer_metrics(tracer: Tracer, root_ns: int, failures: list) -> dict:
    st = tracer.self_times()

    def calls(name):
        return st.get(name, (0, 0, 0))[0]

    def total_s(name):
        return st.get(name, (0, 0, 0))[1] / 1e9

    def self_s(name):
        return st.get(name, (0, 0, 0))[2] / 1e9

    def frac(num, den):
        return num / den if den else 0.0

    m = {}
    for kind in ("lie_insert", "pspan_insert", "walk_insert"):
        name = "intlinalg." + kind
        m[name + ".calls"] = calls(name)
        m[name + ".s"] = total_s(name)
        m[name + ".grew_frac"] = frac(tracer.counts[kind + ".grew"], calls(name))
    m["intlinalg.lie_insert.bits_max"] = tracer.bits_max
    m["intlinalg.commutator.calls"] = calls("intlinalg.commutator")
    m["intlinalg.commutator.s"] = total_s("intlinalg.commutator")
    m["intlinalg.commutator.zero_frac"] = frac(
        tracer.counts["commutator.zero"], calls("intlinalg.commutator"))
    m["control.lie.calls"] = calls("control.lie")
    m["control.lie.self_s"] = self_s("control.lie")
    m["control.kalman.s"] = total_s("control.kalman")
    m["control.pspan.s"] = total_s("control.pspan")
    m["control.distance_power.s"] = total_s("control.distance_power")
    m["control.build_matrix.s"] = total_s("control.build_matrix")
    m["forcing.is_zfs.calls"] = calls("forcing.is_zfs")
    m["forcing.is_zfs.s"] = total_s("forcing.is_zfs")
    m["forcing.min_zfs.candidates_per_call"] = frac(
        child_count(tracer, "forcing.min_zfs", "forcing.is_zfs"), calls("forcing.min_zfs"))
    m["forcing.closure.forces"] = tracer.counts["closure.forces"]

    per_module = {mod: [0, 0] for mod in ("bench",) + MODULES}
    for name, (n_calls, _, self_ns) in st.items():
        row = per_module[module_of(name)]
        row[0] += n_calls
        row[1] += self_ns
    for mod in MODULES:
        m[f"{mod}.calls"] = per_module[mod][0]
        m[f"{mod}.s" if mod == "graphs" else f"{mod}.self_s"] = per_module[mod][1] / 1e9
    m["bench.self_s"] = per_module["bench"][1] / 1e9
    m["trace.root_s"] = root_ns / 1e9
    self_sum = sum(row[1] for row in per_module.values())
    if self_sum != root_ns:
        failures.append(f"self times sum to {self_sum} ns, root span is {root_ns} ns")
    return m


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "netctrl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "git_sha": sha,
            "src_sha256": digest.hexdigest()[:16], "seed": seed}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "netctrl" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"netctrl sources or BENCHMARK.json not found under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        from tests import oracles
    except ImportError as exc:
        print(f"cannot import the test oracles: {exc}", file=sys.stderr)
        return 2

    cls = WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / cls.nominal_round_s)) if args.trace == 0 else 2
    setup_s, raw_setup_s, workload = set_up(cls, args.seed)
    t0 = time.perf_counter()
    workload.derive_expected(oracles)
    check_s = time.perf_counter() - t0
    failures: list = []
    detail = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "rounds": rounds, "env": environment(args.seed), "check_s": check_s}

    if args.trace == 0:
        t0 = time.perf_counter()
        records = [rec for _ in range(rounds) for rec in run_calls(workload)]
        wall = time.perf_counter() - t0
        attempted, failed, rows = tally(workload, records, failures)
        metrics, extra = end_to_end(rows, setup_s)
        raw, _ = end_to_end(rows, raw_setup_s, raw=True)
        slowness = [r[3] for r in records]
        detail.update(extra, measured_s=wall, raw_metrics=raw,
                      host_slowness={"min": min(slowness), "median": median(slowness),
                                     "max": max(slowness)})
        wanted = spec["end_to_end"]
    else:
        nc = workload.nc
        metrics, gate_failures = gates.gate_margins(nc, oracles)
        failures.extend(gate_failures)
        # untraced and traced rounds alternate, so that neither side alone
        # pays the first round's warm-up or a spell of outside load
        plain, traced, tracer = [], [], None
        for _ in range(rounds):
            plain += run_calls(workload)
            round_tracer = Tracer()
            undo = instrument(round_tracer, nc)
            try:
                with round_tracer.span(ROOT_NAME):
                    traced += run_calls(workload)
            finally:
                undo()
            tracer = tracer or round_tracer
        root_ns = tracer.end[0] - tracer.start[0]
        attempted, failed, rows = tally(workload, plain + traced, failures)
        metrics.update(layer_metrics(tracer, root_ns, failures))
        plain_s, traced_s = (sum(sec for _, _, sec in per_call(part).values())
                             for part in (rows[:len(plain)], rows[len(plain):]))
        metrics["trace.overhead_frac"] = traced_s / plain_s - 1
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.bin.gz"
        tracer.write(spans_path)
        detail.update(untraced_s=plain_s, traced_s=traced_s, spans=len(tracer.name),
                      spans_file=str(spans_path.relative_to(ROOT)))
        wanted = spec["per_layer"]

    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    detail["failed_frac"] = failed / attempted
    detail["failures"] = failures[:10]
    result = {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
