"""Verification sweeps, violation records, and worked-example replication."""

import json
import random

import pytest

from netctrl import (
    SweepConfig,
    Violation,
    analyze,
    build_matrix,
    connected_graphs,
    cycle_graph,
    format_matrix,
    graph,
    path_graph,
    recheck,
    replicate_examples,
    sweep_equivalence,
    sweep_single_vector,
    sweep_zfs_implication,
    violation_from_dict,
)
from netctrl import control, harness
from netctrl.harness import (
    _all_nonempty_subsets,
    _canonical_labeling,
    _children_map,
    _iter_graphs,
    _iter_unit,
    _minimal_members,
    _units,
    _zfs_statuses,
)

from . import oracles

MIXED_CYCLE = [[0, 1, 0, 1], [1, 0, -1, 0], [0, -1, 0, 1], [1, 0, 1, 0]]


class TestSweepConfig:
    def test_defaults(self):
        cfg = SweepConfig(max_order=3)
        assert cfg.matrix_kinds == ("adjacency", "laplacian")
        assert cfg.subset_policy == "all"
        assert cfg.seed == 0

    def test_random_policy_accepted(self):
        cfg = SweepConfig(max_order=2, subset_policy="random:5:7")
        assert cfg.subset_policy == "random:5:7"

    def test_bad_orders_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(max_order=0)
        with pytest.raises(ValueError):
            SweepConfig(max_order=8)

    def test_bad_kinds_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(max_order=2, matrix_kinds=())
        with pytest.raises(ValueError):
            SweepConfig(max_order=2, matrix_kinds=("adjacency", "hadamard"))
        with pytest.raises(ValueError):
            SweepConfig(max_order=2, matrix_kinds=("random:x",))

    def test_bad_policies_rejected(self):
        for policy in ("some", "zfs_only", "random:2", "random:0:1", "random:a:b"):
            with pytest.raises(ValueError):
                SweepConfig(max_order=2, subset_policy=policy)

    def test_to_dict(self):
        cfg = SweepConfig(max_order=2, matrix_kinds=("adjacency",), seed=4)
        assert cfg.to_dict() == {
            "max_order": 2,
            "matrix_kinds": ["adjacency"],
            "subset_policy": "all",
            "seed": 4,
        }


class TestGraphEnumeration:
    def test_labeled_connected_counts(self):
        assert [sum(1 for _ in connected_graphs(n)) for n in range(1, 6)] == [
            1, 1, 4, 38, 728,
        ]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            list(connected_graphs(0))
        with pytest.raises(ValueError):
            list(connected_graphs(6))

    def test_large_orders_are_seeded_samples(self):
        cfg = SweepConfig(max_order=6, matrix_kinds=("adjacency",), seed=1)
        first = [g for g in _iter_graphs(cfg) if g.order == 6]
        second = [g for g in _iter_graphs(cfg) if g.order == 6]
        assert first == second
        assert len(first) == 3
        other = SweepConfig(max_order=6, matrix_kinds=("adjacency",), seed=2)
        assert first != [g for g in _iter_graphs(other) if g.order == 6]


class TestSubsetMachinery:
    def test_minimal_members_of_path4(self):
        g = path_graph(4)
        zfs_map = _zfs_statuses(g)
        family = _all_nonempty_subsets(4)
        assert set(_minimal_members(family, zfs_map)) == {(1,), (4,), (2, 3)}

    def test_children_map_prefix_tree(self):
        kids = _children_map([(1, 2), (1, 3), (2,)])
        assert kids == {(): (1, 2), (1,): (2, 3)}


def _session(g, kind):
    return control._Session(build_matrix(g, kind))


class TestSharedEngine:
    """Prefix-tree sharing against a fresh root.

    ``analyze`` grows the same engine state from a fresh root by one control
    set alone, so this checks the sharing along the subset tree, not the
    engine itself; ``tests/oracles.py`` is the independent check of that.
    """

    def test_matches_one_shot_analysis(self):
        cases = [
            (cycle_graph(4), "adjacency"),
            (path_graph(4), "laplacian"),
            (cycle_graph(5), "random:2"),
        ]
        for g, kind in cases:
            session = _session(g, kind)
            subsets = _all_nonempty_subsets(g.order)
            children = _children_map(subsets)
            a = build_matrix(g, kind)
            seen = 0
            for members, walk_rank, lie_dim, p_dim in _iter_unit(
                session, children, set(subsets)
            ):
                rep = analyze(a, members)
                assert walk_rank == rep.walk_rank
                assert lie_dim == rep.lie_dim
                assert p_dim == rep.p_span_dim
                seen += 1
            assert seen == len(subsets)


def _relabeled(g, pi):
    return graph(g.order, [(pi[u], pi[v]) for u, v in g.edges])


def _all_subsets(g, zfs_map):
    return _all_nonempty_subsets(g.order)


class TestOrbitRoute:
    def test_graph_orbit_counts_and_maps(self):
        counts = []
        for n in range(1, 6):
            reps = set()
            for g in connected_graphs(n):
                rep, pi = _canonical_labeling(g)
                assert sorted(pi[1:]) == list(range(1, n + 1))
                assert _relabeled(g, pi) == rep
                reps.add(rep)
            counts.append(len(reps))
        assert counts == [1, 1, 2, 6, 21]

    def test_isomorphic_graphs_share_a_representative(self):
        rng = random.Random(5)
        for g in connected_graphs(5):
            image = list(range(1, 6))
            rng.shuffle(image)
            other = _relabeled(g, (0, *image))
            assert _canonical_labeling(other)[0] == _canonical_labeling(g)[0]

    def test_dimensions_match_the_labeled_route(self):
        cfg = SweepConfig(max_order=4, matrix_kinds=("adjacency", "laplacian", "random:101"))
        units = 0
        for g, kind, _, _, dims in _units(cfg, _all_subsets):
            subsets = _all_nonempty_subsets(g.order)
            labeled = _iter_unit(_session(g, kind), _children_map(subsets), set(subsets))
            assert list(dims) == list(labeled)
            units += 1
        assert units == 3 * (1 + 1 + 4 + 38)

    def test_random_relabelings_agree_with_oracles(self):
        rng = random.Random(2024)
        pool = list(connected_graphs(5))
        for i in range(6):
            kind = ("adjacency", "laplacian")[i % 2]
            g = rng.choice(pool)
            image = list(range(1, 6))
            rng.shuffle(image)
            h = _relabeled(g, (0, *image))
            s = tuple(sorted(rng.sample(range(1, 6), rng.randint(1, 2))))
            rep, pi = _canonical_labeling(h)
            mapped = tuple(sorted(pi[v] for v in s))
            [(_, walk, lie, pspan)] = _iter_unit(
                _session(rep, kind), _children_map([mapped]), {mapped}
            )
            a = [list(row) for row in build_matrix(h, kind).matrix.entries]
            assert walk == oracles.walk_rank_bruteforce(a, s)
            assert pspan == oracles.pspan_dim_bruteforce(a, s)
            # the all-pairs fixpoint oracle takes seconds at order 5
            if i < 2:
                assert lie == oracles.control_lie_dim_bruteforce(a, s)

    def test_violations_keep_labels_and_order(self, monkeypatch):
        # a label-invariant fault: every two-vertex set loses one Lie
        # dimension, and every edge between vertices of degree >= 2 is
        # reported as a distance-power defect
        engine = harness._iter_unit

        def faulty_unit(session, children, check_set):
            for members, walk, lie, pspan in engine(session, children, check_set):
                yield members, walk, lie - (len(members) == 2), pspan

        def faulty_defects(a):
            deg = {v: sum(v in e for e in a.pattern.edges) for v in a.pattern.vertices}
            return tuple((u, v, 1) for u, v in sorted(a.pattern.edges) if min(deg[u], deg[v]) >= 2)

        monkeypatch.setattr(harness, "_iter_unit", faulty_unit)
        monkeypatch.setattr(control, "distance_power_defects", faulty_defects)
        cfg = SweepConfig(max_order=4, matrix_kinds=("adjacency", "laplacian"),
                          subset_policy="random:6:3")
        orbit = (sweep_equivalence(cfg), sweep_zfs_implication(cfg))
        checks = {v.check for out in orbit for v in out.violations}
        assert checks == {"kalman_iff_lie", "zfs_implies_lie", "distance_power_nonzero"}
        # the same sweeps with every kind taken through the labeled route
        parse = control.parse_kind
        monkeypatch.setattr(control, "parse_kind", lambda kind: parse(kind)[:2] + (False,))
        labeled = (sweep_equivalence(cfg), sweep_zfs_implication(cfg))
        assert [out.to_json() for out in orbit] == [out.to_json() for out in labeled]

    def test_random_kinds_pay_nothing_new(self, monkeypatch):
        def refuse(g):
            raise AssertionError("a random kind was canonicalized")

        built = []
        build = control.build_matrix
        monkeypatch.setattr(harness, "_canonical_labeling", refuse)
        monkeypatch.setattr(control, "build_matrix", lambda g, kind: built.append(g) or build(g, kind))
        out = sweep_equivalence(SweepConfig(max_order=4, matrix_kinds=("random:101",)))
        assert out.passed
        assert len(built) == 1 + 1 + 4 + 38

    def test_each_sweep_call_walks_afresh(self, monkeypatch):
        calls = []
        kinds = {}
        engine = harness._iter_unit
        build = control.build_matrix

        def building(g, kind):
            a = build(g, kind)
            kinds[id(a)] = kind
            return a

        def counting(session, children, check_set):
            calls.append(kinds[id(session.a)])
            return engine(session, children, check_set)

        monkeypatch.setattr(control, "build_matrix", building)
        monkeypatch.setattr(harness, "_iter_unit", counting)
        cfg = SweepConfig(max_order=4, matrix_kinds=("adjacency", "random:4"))
        first = sweep_equivalence(cfg).to_json()
        per_call = list(calls)
        second = sweep_equivalence(cfg).to_json()
        assert first == second
        assert calls == per_call + per_call
        # one walk per graph class for adjacency, one per labeled graph for random
        assert per_call.count("adjacency") == 1 + 1 + 2 + 6
        assert per_call.count("random:4") == 1 + 1 + 4 + 38


class TestSweepEquivalence:
    def test_order_two_counts(self):
        out = sweep_equivalence(SweepConfig(max_order=2))
        assert out.passed
        assert out.instances_checked == 8
        assert out.check_counts == {
            "distance_power_nonzero": 4,
            "kalman_iff_lie": 8,
            "span_dimension_identity": 8,
            "zfs_implies_lie": 8,
        }
        assert out.violations == ()
        assert out.config["op"] == "equivalence"

    def test_order_four_adjacency_full(self):
        out = sweep_equivalence(
            SweepConfig(max_order=4, matrix_kinds=("adjacency",))
        )
        assert out.passed
        # 1*1 + 1*3 + 4*7 + 38*15 subset instances
        assert out.instances_checked == 602
        assert out.check_counts["kalman_iff_lie"] == 602
        assert "hypothesis_skipped" not in out.check_counts

    def test_singleton_policy(self):
        out = sweep_equivalence(
            SweepConfig(max_order=3, matrix_kinds=("laplacian",), subset_policy="singletons")
        )
        assert out.passed
        # 1 + 2 + 4 graphs * 3 singletons
        assert out.instances_checked == 15

    def test_random_policy_deterministic(self):
        cfg = SweepConfig(
            max_order=3, matrix_kinds=("random:3",), subset_policy="random:3:4", seed=1
        )
        a = sweep_equivalence(cfg)
        b = sweep_equivalence(cfg)
        assert a.passed
        assert a.to_json() == b.to_json()

    def test_sampled_order_six(self):
        out = sweep_equivalence(
            SweepConfig(max_order=6, matrix_kinds=("adjacency",), subset_policy="random:1:5", seed=2)
        )
        assert out.passed
        # one subset per graph: 1 + 1 + 4 + 38 + 728 exhaustive, 3 sampled
        assert out.instances_checked == 775


class TestSweepZfsImplication:
    def test_policy_all_asserts_every_forcing_set(self):
        out = sweep_zfs_implication(SweepConfig(max_order=3, matrix_kinds=("adjacency",)))
        assert out.passed
        expected = 0
        for n in range(1, 4):
            for g in connected_graphs(n):
                expected += sum(_zfs_statuses(g).values())
        assert expected == 26
        assert out.instances_checked == 26
        assert out.check_counts == {"zfs_implies_lie": 26}
        assert out.config["op"] == "zfs_implication"

    def test_singleton_policy_keeps_minimal_forcing_singletons(self):
        out = sweep_zfs_implication(
            SweepConfig(max_order=3, matrix_kinds=("adjacency",), subset_policy="singletons")
        )
        assert out.passed
        # K1: 1, K2: 2, three labeled paths: 2 endpoints each, triangle: none
        assert out.instances_checked == 9

    def test_both_kinds_double_the_work(self):
        out = sweep_zfs_implication(SweepConfig(max_order=2))
        assert out.instances_checked == 8


class TestSweepSingleVector:
    def test_counts_and_determinism(self):
        out = sweep_single_vector(40, 9)
        assert out.passed
        assert out.instances_checked == 40
        assert out.check_counts == {
            "single_vector_equivalence": 40,
            "span_dimension_identity": 40,
        }
        assert out.to_json() == sweep_single_vector(40, 9).to_json()
        assert out.config == {"op": "single_vector", "samples": 40, "seed": 9}

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            sweep_single_vector(0, 1)

    def test_json_is_loadable(self):
        out = sweep_single_vector(5, 2)
        doc = json.loads(out.to_json())
        assert doc["passed"] is True
        assert doc["instances_checked"] == 5


class TestViolationRecords:
    def test_dict_round_trip(self):
        v = Violation(
            order=4,
            edges=((1, 2), (3, 4)),
            kind="explicit",
            subset=(1, 3),
            check="single_vector_equivalence",
            detail="walk_rank 4 but lie_dim 8",
            matrix="4 4\n0 1 0 0\n1 0 0 0\n0 0 0 1\n0 0 1 0\n",
        )
        assert violation_from_dict(v.to_dict()) == v

    def test_matrix_field_defaults_empty(self):
        v = violation_from_dict({
            "order": 2,
            "edges": [[1, 2]],
            "kind": "adjacency",
            "subset": [1],
            "check": "kalman_iff_lie",
            "detail": "",
        })
        assert v.matrix == ""

    def test_recheck_healthy_instance_does_not_reproduce(self):
        v = Violation(
            order=4,
            edges=((1, 2), (2, 3), (3, 4)),
            kind="adjacency",
            subset=(2,),
            check="kalman_iff_lie",
            detail="",
        )
        assert not recheck(v)
        assert not recheck(
            Violation(order=4, edges=((1, 2), (2, 3), (3, 4)), kind="adjacency",
                      subset=(), check="distance_power_nonzero", detail="")
        )

    def test_recheck_reproduces_explicit_matrix_failures(self):
        from netctrl import matrix

        text = format_matrix(matrix(MIXED_CYCLE))
        edges = ((1, 2), (1, 4), (2, 3), (3, 4))
        # the mixed four-cycle genuinely separates the two verdicts
        assert recheck(Violation(
            order=4, edges=edges, kind="explicit", subset=(1, 3),
            check="single_vector_equivalence", detail="", matrix=text,
        ))
        # and its minimal-distance entry (2, 4) cancels to zero
        assert recheck(Violation(
            order=4, edges=edges, kind="explicit", subset=(),
            check="distance_power_nonzero", detail="", matrix=text,
        ))


class TestReplicateExamples:
    def test_all_rows_match(self):
        rows = replicate_examples()
        assert [row["id"] for row in rows] == ["a", "b", "c"]
        for row in rows:
            assert row["match"], row
            assert row["expected"] == row["computed"]

    def test_rows_are_json_ready(self):
        json.dumps(list(replicate_examples()))
