"""Acceptance gate: every published claim re-verified at zero tolerance.

Each criterion is one test; the test name carries the criterion number so
`pytest -v` prints one pass/fail line per criterion.  The two large sweeps
are session fixtures shared by the criteria that consume them, and every
comparison is exact (integer or rational equality, never approximate).
"""

import hashlib
import time

import pytest

from netctrl import (
    SweepConfig,
    adjacency_matrix,
    complete_graph,
    connected_graphs,
    cycle_graph,
    is_zfs,
    lie_controllable,
    kalman_controllable,
    matrix,
    min_zfs,
    path_graph,
    pattern_matrix,
    rank,
    sweep_equivalence,
    sweep_single_vector,
    sweep_zfs_implication,
    walk_matrix,
)
from netctrl.graphs import adjacency_sets

from . import oracles

KINDS = ("adjacency", "laplacian", "random:101", "random:202", "random:303")
SINGLE_VECTOR_SAMPLES = 200
SINGLE_VECTOR_SEED = 424242

# sha256 of each order-5 outcome's to_json(): the same bytes on every run,
# so a change to any verdict, count or violation shows without another sweep
OUTCOME_SHA256 = {
    "outcome5": "db26bea366eef392cf141c71c07fd0c5eb3aa5c34fc914bbb3c35d17bdcea909",
    "outcome6": "871560a958ee9ee701259d68b11b87a66c69f342b2f955621e53cd680d5ec17d",
    "outcome9": "dbc208539adfe43b9cd57ead45d8b1e6b2dd5c49a034d484967b349f5bea624d",
}

# sha256 of each sweep's to_json() at order 6 over two kinds, one label
# invariant and one not, under the sampled, one-vertex and forcing-set
# policies: (equivalence, implication)
ORDER6_KINDS = ("adjacency", "random:101")
ORDER6_SHA256 = {
    "random:8:1": ("e1f3d3092a3d91c3fe9c24ad10e00137802358e8cfc6534bb9f996afcf535beb",
                   "773ae09b943303e5d53a76e391cbe84dcef6b94496a54a713be432fad9c44e13"),
    "singletons": ("93ce5395db56d518d51e75b65ae36de93bb5e5303f2e14fe4e1a5d8711b684de",
                   "fae4eb07eae085b606e8aefd5a8507aee89125bb5d5dcb5de67ae445f4354b36"),
    "zfs": ("7145b0202fc308f6ead6e33caa1a09ca912d5f38cbadeb32a90ad501fdffd421",
            "8c21b785c9b55da26676a41c5cc9ba3f0167ae8bf997ead0b3167d3573aac6ca"),
}

MIXED_CYCLE = [[0, 1, 0, 1], [1, 0, -1, 0], [0, -1, 0, 1], [1, 0, 1, 0]]
BLOCK_PAIRED = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]


def _sweep_config():
    return SweepConfig(max_order=5, matrix_kinds=KINDS, subset_policy="all", seed=0)


@pytest.fixture(scope="session")
def outcome5():
    return sweep_equivalence(_sweep_config())


@pytest.fixture(scope="session")
def outcome6():
    return sweep_zfs_implication(_sweep_config())


@pytest.fixture(scope="session")
def outcome9():
    return sweep_single_vector(SINGLE_VECTOR_SAMPLES, SINGLE_VECTOR_SEED)


def _best_of(n, fn):
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_p4_walk_matrix_exact_and_fast():
    a = adjacency_matrix(path_graph(4))
    w = walk_matrix(a, (2,))
    assert w == matrix([[0, 1, 0, 2], [1, 0, 2, 0], [0, 1, 0, 3], [0, 0, 1, 0]])
    assert rank(w) == 4
    elapsed = _best_of(5, lambda: rank(walk_matrix(a, (2,))))
    assert elapsed < 0.001, f"walk matrix + rank took {elapsed * 1000:.3f} ms"
    print("criterion 01 PASS: P4 walk matrix entry-exact, rank 4, under 1 ms")


def test_criterion_02_p4_converse_failure():
    t0 = time.perf_counter()
    g = path_graph(4)
    a = adjacency_matrix(g)
    assert is_zfs(g, (2,)) is False
    assert lie_controllable(a, (2,)) == (True, 16)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print("criterion 02 PASS: {2} not forcing on P4 yet Lie controllable, dim 16")


def test_criterion_03_mixed_sign_counterexample():
    t0 = time.perf_counter()
    a = pattern_matrix(MIXED_CYCLE)
    kalman, walk_rank = kalman_controllable(a, (1, 3))
    lie, lie_dim = lie_controllable(a, (1, 3))
    assert kalman is True and walk_rank == 4
    assert lie_dim <= 8
    # golden value 8, pinned by the independent fixpoint oracle
    assert oracles.control_lie_dim_bruteforce(MIXED_CYCLE, (1, 3)) == 8
    assert lie_dim == 8
    assert lie is False
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print("criterion 03 PASS: mixed-sign instance has walk rank 4, Lie dim 8")


def test_criterion_04_block_diagonal_counterexample():
    t0 = time.perf_counter()
    a = pattern_matrix(BLOCK_PAIRED)
    # block full-rank preconditions, each block checked in isolation
    assert oracles.walk_rank_bruteforce([[0, 1], [1, 0]], (1,)) == 2
    sub = pattern_matrix([[0, 1], [1, 0]])
    assert rank(walk_matrix(sub, (1,))) == 2
    kalman, walk_rank = kalman_controllable(a, (1, 3))
    lie, lie_dim = lie_controllable(a, (1, 3))
    assert kalman is True and walk_rank == 4
    assert lie_dim <= 8
    assert lie_dim == 8
    assert lie is False
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print("criterion 04 PASS: block instance has walk rank 4, Lie dim 8, not Lie controllable")


def test_criterion_05_equivalence_sweep_order_five(outcome5):
    assert outcome5.passed, outcome5.violations[:3]
    # 23,170 nonempty subsets across all labeled connected graphs, 5 kinds
    assert outcome5.instances_checked == 115_850
    assert outcome5.check_counts["kalman_iff_lie"] == 115_850
    violated = [v for v in outcome5.violations if v.check == "kalman_iff_lie"]
    assert violated == []
    print("criterion 05 PASS: kalman iff lie on all 115,850 instances")


def test_criterion_06_forcing_implication_sweep(outcome6):
    assert outcome6.passed, outcome6.violations[:3]
    forcing_sets = 0
    for n in range(1, 6):
        for g in connected_graphs(n):
            adj = adjacency_sets(g)
            for mask in range(1, 1 << n):
                s = tuple(j + 1 for j in range(n) if mask >> j & 1)
                black = oracles.forcing_closure_bruteforce(adj, n, s)
                forcing_sets += len(black) == n
    assert outcome6.instances_checked == len(KINDS) * forcing_sets
    assert outcome6.instances_checked == 73_340
    assert outcome6.check_counts["zfs_implies_lie"] == 73_340
    print("criterion 06 PASS: every forcing set Lie controllable, 73,340 instances")


def test_criterion_07_span_dimension_identity(outcome5):
    assert outcome5.check_counts["span_dimension_identity"] == 115_850
    violated = [v for v in outcome5.violations if v.check == "span_dimension_identity"]
    assert violated == []
    print("criterion 07 PASS: p_span_dim equals walk_rank^2 on all 115,850 instances")


def test_criterion_08_distance_power_nonzero(outcome5):
    # once per (graph, kind): 772 labeled connected graphs times 5 kinds
    assert outcome5.check_counts["distance_power_nonzero"] == 3_860
    violated = [v for v in outcome5.violations if v.check == "distance_power_nonzero"]
    assert violated == []
    print("criterion 08 PASS: (A^d(k,j))_kj nonzero on all 3,860 matrices")


def test_criterion_09_single_vector_equivalence(outcome9):
    assert outcome9.passed, outcome9.violations[:3]
    assert outcome9.instances_checked == SINGLE_VECTOR_SAMPLES
    assert outcome9.check_counts["single_vector_equivalence"] == SINGLE_VECTOR_SAMPLES
    print("criterion 09 PASS: single-vector equivalence on 200 arbitrary symmetric matrices")


def test_criterion_10_zero_forcing_numbers():
    t0 = time.perf_counter()
    for n in range(1, 9):
        assert min_zfs(path_graph(n))[0] == 1, f"Z(P_{n})"
    for n in range(2, 7):
        assert min_zfs(complete_graph(n))[0] == n - 1, f"Z(K_{n})"
    for n in range(3, 9):
        assert min_zfs(cycle_graph(n))[0] == 2, f"Z(C_{n})"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print("criterion 10 PASS: Z values of paths, cliques, cycles match, "
          f"{elapsed:.2f} s")


def test_criterion_11_bit_identical_reruns(outcome5, outcome9):
    again5 = sweep_equivalence(_sweep_config())
    assert again5.to_json() == outcome5.to_json()
    again9 = sweep_single_vector(SINGLE_VECTOR_SAMPLES, SINGLE_VECTOR_SEED)
    assert again9.to_json() == outcome9.to_json()
    print("criterion 11 PASS: sweep reruns serialize bit-identically")


def test_outcome_bytes_are_pinned(outcome5, outcome6, outcome9):
    outcomes = {"outcome5": outcome5, "outcome6": outcome6, "outcome9": outcome9}
    got = {name: hashlib.sha256(o.to_json().encode()).hexdigest() for name, o in outcomes.items()}
    assert got == OUTCOME_SHA256


@pytest.mark.parametrize("policy", ORDER6_SHA256)
def test_order_six_bytes_are_pinned(policy):
    cfg = SweepConfig(max_order=6, matrix_kinds=ORDER6_KINDS, subset_policy=policy)
    got = tuple(hashlib.sha256(sweep(cfg).to_json().encode()).hexdigest()
                for sweep in (sweep_equivalence, sweep_zfs_implication))
    assert got == ORDER6_SHA256[policy]
