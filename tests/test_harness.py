"""Verification sweeps, violation records, and worked-example replication."""

import itertools
import json
import math
import random
import re
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netctrl import (
    SweepConfig,
    Violation,
    analyze,
    build_matrix,
    complete_graph,
    connected_graphs,
    cycle_graph,
    format_matrix,
    graph,
    is_zfs,
    parse_matrix,
    path_graph,
    pattern_matrix,
    recheck,
    replicate_examples,
    sweep_equivalence,
    sweep_single_vector,
    sweep_zfs_implication,
    violation_from_dict,
)
from netctrl import control, forcing, harness
from netctrl.forcing import _ForcingMap
from netctrl.harness import (
    _all_nonempty_subsets,
    _canonical_labeling,
    _class_keys,
    _iter_graphs,
    _minimal_members,
    _units,
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

    @pytest.mark.parametrize("bad", [True, False, 2.5, 3.0, "3", None, 0, -1])
    def test_max_order_must_be_an_int_in_range(self, bad):
        with pytest.raises(ValueError) as exc:
            SweepConfig(max_order=bad)
        assert str(exc.value) == f"max_order must be an int in 1..7, got {bad!r}"

    @pytest.mark.parametrize("bad", [True, False, 2.5, "3", None])
    def test_seed_must_be_an_int(self, bad):
        with pytest.raises(ValueError) as exc:
            SweepConfig(max_order=2, seed=bad)
        assert str(exc.value) == f"seed must be an int, got {bad!r}"

    def test_bad_kinds_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(max_order=2, matrix_kinds=())
        with pytest.raises(ValueError):
            SweepConfig(max_order=2, matrix_kinds=("adjacency", "hadamard"))
        with pytest.raises(ValueError):
            SweepConfig(max_order=2, matrix_kinds=("random:x",))
        # a spec that is not a string is named, not read for a prefix
        with pytest.raises(ValueError, match="^unknown matrix kind 5;"):
            SweepConfig(max_order=2, matrix_kinds=(5,))
        with pytest.raises(ValueError, match="^unknown matrix kind 7;"):
            build_matrix(path_graph(3), 7)
        # a bare string is not iterated letter by letter
        with pytest.raises(ValueError, match="nonempty tuple of kinds, got 'adjacency'"):
            SweepConfig(max_order=3, matrix_kinds="adjacency")
        # a kind listed twice, compared by parsed name and seed
        for kinds in (("adjacency", "adjacency"), ("random:5", "laplacian", "random:05")):
            with pytest.raises(ValueError, match=repr(kinds[-1])):
                SweepConfig(max_order=2, matrix_kinds=kinds)
        assert SweepConfig(max_order=2, matrix_kinds=("random:5", "random:6")).matrix_kinds == ("random:5", "random:6")

    # a bytes spec was read as integers ("unknown matrix kind 97"), the
    # others raised TypeError; a set would give the kinds in hash order
    @pytest.mark.parametrize("bad", [None, 5, b"adjacency", {"adjacency"}, {"adjacency": 1}], ids=repr)
    def test_kinds_that_are_not_a_tuple_or_list_rejected(self, bad):
        with pytest.raises(ValueError) as exc:
            SweepConfig(max_order=2, matrix_kinds=bad)
        assert str(exc.value) == f"matrix_kinds must be a nonempty tuple of kinds, got {bad!r}"

    def test_kinds_may_be_a_list(self):
        assert SweepConfig(max_order=2, matrix_kinds=["laplacian"]).matrix_kinds == ("laplacian",)

    def test_bad_policies_rejected(self):
        for policy in ("some", "zfs_only", "random:2", "random:0:1", "random:a:b"):
            with pytest.raises(ValueError):
                SweepConfig(max_order=2, subset_policy=policy)
        for policy in (None, 3):
            with pytest.raises(ValueError, match=f"^unknown subset policy {policy};"):
                SweepConfig(max_order=2, subset_policy=policy)

    # int() alone reads each of these counts and seeds
    @pytest.mark.parametrize("policy", ["random:\u0662:1", "random:2:1_0", "random:+2:1", "random:2: 1"], ids=repr)
    def test_policy_takes_ascii_digits_only(self, policy):
        with pytest.raises(ValueError, match="^" + re.escape(f"unknown subset policy {policy!r};")):
            SweepConfig(max_order=2, subset_policy=policy)

    def test_policy_seed_may_be_negative(self):
        assert harness._parse_policy("random:2:-1") == ("random", 2, -1)
        with pytest.raises(ValueError):
            SweepConfig(max_order=2, subset_policy="random:-2:1")

    def test_to_dict(self):
        cfg = SweepConfig(max_order=2, matrix_kinds=("adjacency",), seed=4)
        assert cfg.to_dict() == {
            "max_order": 2,
            "matrix_kinds": ["adjacency"],
            "subset_policy": "all",
            "seed": 4,
        }


class TestEntryPointTypes:
    """The exported sweep entry points refuse a wrong-typed argument with ValueError."""

    @pytest.mark.parametrize("entry", [sweep_equivalence, sweep_zfs_implication], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("bad", [None, {"max_order": 2}, 2, "2"], ids=repr)
    def test_sweeps_refuse_a_config_that_is_not_a_sweep_config(self, entry, bad):
        with pytest.raises(ValueError) as exc:
            entry(bad)
        assert str(exc.value) == f"expected a SweepConfig, got {type(bad).__name__}"

    # a violation's dict form is read back by violation_from_dict, not here
    @pytest.mark.parametrize("bad", [
        None,
        {"order": 2, "edges": [[1, 2]], "kind": "adjacency", "subset": [1], "check": "kalman_iff_lie", "detail": ""},
        SweepConfig(max_order=2),
    ], ids=["None", "dict", "SweepConfig"])
    def test_recheck_refuses_a_record_that_is_not_a_violation(self, bad):
        with pytest.raises(ValueError) as exc:
            recheck(bad)
        assert str(exc.value) == f"expected a Violation, got {type(bad).__name__}"


def _flood_fills(n, edges):
    """Whether a flood fill from vertex 1 over ``edges`` reaches all n vertices."""
    reached = {1}
    while True:
        more = {w for e in edges if reached & set(e) for w in e} - reached
        if not more:
            return len(reached) == n
        reached |= more


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

    # once TypeError, on '<' between str and int, and in range() for 2.0
    @pytest.mark.parametrize("order", [2.0, "3", None, True], ids=repr)
    def test_rejects_an_order_that_is_not_an_int(self, order):
        with pytest.raises(ValueError, match=rf"^order must be an int >= 1, got {re.escape(repr(order))}$"):
            list(connected_graphs(order))

    def test_masks_in_ascending_order_over_the_sorted_pairs(self):
        # an enumeration of its own: every edge subset in bitmask order, kept
        # when a flood fill from vertex 1 reaches every vertex
        for n in range(1, 6):
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            want = []
            for mask in range(2 ** len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if mask & 2 ** i]
                if _flood_fills(n, edges):
                    want.append(edges)
            assert [sorted(g.edges) for g in connected_graphs(n)] == want

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
        family = _all_nonempty_subsets(4)
        zfs_map = _ForcingMap(g)
        assert set(_minimal_members(family, zfs_map)) == {(1,), (4,), (2, 3)}

    def test_a_singletons_empty_drop_reads_as_not_forcing(self):
        # a plain dict raises on any key it lacks, so the empty drop is never read
        assert _minimal_members([(1,), (2,), (1, 2)], {(1,): True, (2,): False, (1, 2): True}) == [(1,)]
        zfs_map = _ForcingMap(path_graph(3))
        assert _minimal_members([(1,), (3,)], zfs_map) == [(1,), (3,)]
        assert set(zfs_map) == {(1,), (3,)}

    def test_forcing_map_matches_is_zfs_on_every_small_graph(self):
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for mask in range(1 << len(pairs)):
                g = graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                zfs_map = _ForcingMap(g)
                for s in _all_nonempty_subsets(n):
                    assert zfs_map[s] == is_zfs(g, s), (g, s)

    def test_forcing_map_closes_each_subset_it_reads_once(self, monkeypatch):
        closed = []
        close = forcing._close
        maps = []

        class Reading(_ForcingMap):
            __slots__ = ("graph", "read")

            def __init__(self, g):
                super().__init__(g)
                self.graph, self.read = g, []
                maps.append(self)

            def __getitem__(self, s):
                self.read.append(s)
                return super().__getitem__(s)

        monkeypatch.setattr(forcing, "_close", lambda nb, black: closed.append(black) or close(nb, black))
        monkeypatch.setattr(forcing, "_ForcingMap", Reading)
        cfg = SweepConfig(max_order=4, matrix_kinds=("adjacency", "random:5"), subset_policy="random:8:3")
        for sweep in (sweep_equivalence, sweep_zfs_implication):
            closed.clear()
            maps.clear()
            assert sweep(cfg).passed
            assert len(maps) == 1 + 1 + 4 + 38
            for zfs_map in maps:
                assert set(zfs_map) == set(zfs_map.read)
                assert all(forces == is_zfs(zfs_map.graph, s) for s, forces in zfs_map.items())
            assert len(closed) == sum(len(set(zfs_map.read)) for zfs_map in maps)
            # closing every subset of every graph took 1 + 3 + 4 * 7 + 38 * 15
            assert len(closed) < 602

    def test_grow_walks_the_prefix_tree(self, monkeypatch):
        grown = []
        extend = control._extend_state

        def recording(state, session, j):
            # the node being grown is _grow's local ``members``
            grown.append(sys._getframe(1).f_locals["members"])
            extend(state, session, j)

        monkeypatch.setattr(control, "_extend_state", recording)
        dims = control._grow(_session(path_graph(3), "adjacency"), [(1, 2), (1, 3), (2,)])
        assert list(dims) == [(1, 2), (1, 3), (2,)]
        # the nodes of the tree: () -> 1, 2 and (1,) -> 2, 3, each grown once
        assert sorted(grown) == [(1,), (1, 2), (1, 3), (2,)]


def _session(g, kind):
    return control._Session(build_matrix(g, kind))


@st.composite
def _matrix_and_family(draw):
    """A symmetric integer matrix of order at most 5 and a family of control sets.

    Signs are mixed and zeros common, so disconnected patterns occur.  The
    family may be empty; it repeats some sets and holds a prefix of each,
    so its sets come duplicated, nested and disjoint.
    """
    n = draw(st.integers(min_value=1, max_value=5))
    # zeros half the time, so that deficient walks and closures are common
    weight = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3))
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = draw(weight)
    subset = st.lists(st.integers(min_value=1, max_value=n), min_size=1, unique=True)
    family = [tuple(sorted(s)) for s in draw(st.lists(subset, max_size=4))]
    if family:
        family += draw(st.lists(st.sampled_from(family), max_size=3))
    family += [s[:draw(st.integers(min_value=1, max_value=len(s)))] for s in family]
    return entries, draw(st.permutations(family))


class TestSharedEngine:
    """Prefix-tree sharing against a fresh root.

    ``analyze`` and ``control._dimensions`` grow one control set alone from
    a fresh root, on their own one-shot route, so this checks the sharing
    along the subset tree; ``tests/oracles.py`` is the independent check of
    the engine itself.
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
            a = build_matrix(g, kind)
            seen = 0
            for members, (walk_rank, p_dim, lie_dim) in control._grow(session, subsets).items():
                rep = analyze(a, members)
                assert walk_rank == rep.walk_rank
                assert lie_dim == rep.lie_dim
                assert p_dim == rep.p_span_dim
                seen += 1
            assert seen == len(subsets)

    @settings(max_examples=40, deadline=None)
    @given(_matrix_and_family())
    def test_grow_matches_fresh_roots_and_oracles(self, inst):
        entries, family = inst
        a = pattern_matrix(entries)
        table = control._grow(control._Session(a), family)
        assert set(table) == set(family)
        for members, dims in table.items():
            assert dims == control._dimensions(a, members, control._PARTS)
            walk, pspan, _ = dims
            assert walk == oracles.walk_rank_bruteforce(entries, members)
            # the literal-product oracle takes a fifth of a second at order 5
            if a.n <= 4:
                assert pspan == oracles.pspan_dim_bruteforce(entries, members)

    def test_lie_only_grow_is_the_lie_column(self):
        # every labeled graph of order <= 4, disconnected ones included
        for n in range(1, 5):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            subsets = _all_nonempty_subsets(n)
            for mask in range(1 << len(pairs)):
                g = graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                for kind in ("adjacency", "laplacian", "random:3"):
                    full = control._grow(_session(g, kind), subsets)
                    lie = control._grow(_session(g, kind), subsets, parts=("lie",))
                    assert lie == {s: dims[2:] for s, dims in full.items()}, (g, kind)

    def test_lie_only_grow_never_reads_walk_columns(self, monkeypatch):
        # the Lie engine's hub walk draws from the same generator, so only
        # a draw for the state's walk is refused
        real = control._walk

        def refuse(a, j, modulus=None):
            if sys._getframe(1).f_code.co_name == "_extend_state":
                raise AssertionError("a Lie-only state read the walk columns")
            return real(a, j, modulus)

        monkeypatch.setattr(control, "_walk", refuse)
        for g in (path_graph(5), cycle_graph(5)):
            for kind in ("adjacency", "random:7"):
                table = control._grow(_session(g, kind), _all_nonempty_subsets(5), parts=("lie",))
                assert len(table) == 31
        # an end vertex of a path is a zero forcing set
        assert control._grow(_session(path_graph(5), "adjacency"), [(1,)], parts=("lie",)) == {(1,): (25,)}

    def test_each_sweep_grows_only_what_it_reads(self, monkeypatch):
        asked = {}
        engine = control._grow
        cfg = SweepConfig(max_order=4, matrix_kinds=("adjacency", "random:4"),
                          subset_policy="random:6:3")
        for sweep in (sweep_equivalence, sweep_zfs_implication):
            seen = asked.setdefault(sweep.__name__, set())

            def recording(session, subsets, parts, seen=seen):
                seen.add(parts)
                return engine(session, subsets, parts=parts)

            monkeypatch.setattr(control, "_grow", recording)
            assert sweep(cfg).passed
        assert asked == {"sweep_equivalence": {control._PARTS},
                         "sweep_zfs_implication": {("lie",)}}


def _relabeled(g, pi):
    return graph(g.order, [(pi[u], pi[v]) for u, v in g.edges])


def _all_subsets(g, zfs_map):
    return _all_nonempty_subsets(g.order)


def _least_images(g, rep, subsets):
    """Each subset's least sorted image sigma(S) over every permutation sigma with sigma(g) = rep."""
    perms = [(0, *image) for image in itertools.permutations(range(1, g.order + 1))]
    onto = [pi for pi in perms if _relabeled(g, pi) == rep]
    return {s: min(tuple(sorted(pi[v] for v in s)) for pi in onto) for s in subsets}


class TestOrbitRoute:
    def test_graph_orbit_counts_and_maps(self):
        counts = []
        for n in range(1, 6):
            reps = set()
            for g in connected_graphs(n):
                rep, images, canon = _canonical_labeling(g)
                index, _ = harness._relabelings(n)
                for mask, sigmas in images.items():
                    for sigma in sigmas:
                        assert sorted(sigma[1:]) == list(range(1, n + 1))
                        assert sum(1 << index[e] for e in _relabeled(g, sigma).edges) == mask
                # C0, the relabelings that map g onto the representative
                assert all(_relabeled(g, c) == rep for c in images[min(images)])
                assert len(canon) == 1 << n
                reps.add(rep)
            counts.append(len(reps))
        assert counts == [1, 1, 2, 6, 21]

    def test_orbit_labels_map_every_graph_onto_its_representative(self):
        # each set's key is its least sorted image over every relabeling
        # of its graph onto the representative, brute-forced here
        for n in range(1, 6):
            orbit = {}
            subsets = _all_nonempty_subsets(n)
            for g in connected_graphs(n):
                rep, keys = _class_keys(g, orbit, subsets)
                assert rep == _canonical_labeling(g)[0]
                assert keys == _least_images(g, rep, subsets), g
            assert len(orbit) == [1, 1, 4, 38, 728][n - 1]
        for g in _iter_graphs(SweepConfig(max_order=7, seed=4)):
            if g.order > 5:
                subsets = _all_nonempty_subsets(g.order)
                rep, keys = _class_keys(g, {}, subsets)
                assert rep == _canonical_labeling(g)[0]
                assert keys == _least_images(g, rep, subsets)

    def test_one_canonical_labeling_per_class(self, monkeypatch):
        seen = []
        labeling = harness._canonical_labeling
        monkeypatch.setattr(harness, "_canonical_labeling", lambda g: seen.append(g) or labeling(g))
        for sweep in (sweep_equivalence, sweep_zfs_implication):
            seen.clear()
            assert sweep(SweepConfig(max_order=4, matrix_kinds=("adjacency", "laplacian"))).passed
            reps = [labeling(g)[0] for g in seen]
            assert len(set(reps)) == len(reps)
            assert [sum(g.order == n for g in seen) for n in range(1, 5)] == [1, 1, 2, 6]
            # a random:SEED kind's class is the labeled graph, so nothing is canonicalized
            seen.clear()
            assert sweep(SweepConfig(max_order=6, matrix_kinds=("random:5", "random:9"),
                                         subset_policy="random:4:1", seed=2)).passed
            assert seen == []

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
        for g, kind, _, _, table in _units(cfg, _all_subsets):
            subsets = _all_nonempty_subsets(g.order)
            labeled = control._grow(_session(g, kind), subsets)
            assert list(table.items()) == list(labeled.items())
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
            # g opens the class record, so h reads s through its relabeling
            orbit = {}
            _class_keys(g, orbit, ())
            rep, keys = _class_keys(h, orbit, [s])
            [(walk, pspan, lie)] = control._grow(_session(rep, kind), [keys[s]]).values()
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
        engine = control._grow

        def faulty_grow(session, subsets, parts):
            return {members: tuple(d - (name == "lie" and len(members) == 2)
                                   for name, d in zip(parts, dims))
                    for members, dims in engine(session, subsets, parts=parts).items()}

        def faulty_defects(a, session=None):
            deg = {v: sum(v in e for e in a.pattern.edges) for v in a.pattern.vertices}
            return tuple((u, v, 1) for u, v in sorted(a.pattern.edges) if min(deg[u], deg[v]) >= 2)

        monkeypatch.setattr(control, "_grow", faulty_grow)
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

    def test_one_session_per_matrix(self, monkeypatch):
        # the distance powers read the integer matrix of the session the
        # subset tree already built: one session per graph class for a
        # label-invariant kind, one per labeled graph otherwise
        built = []

        class Counting(control._Session):
            __slots__ = ()

            def __init__(self, a):
                built.append(a)
                super().__init__(a)

        monkeypatch.setattr(control, "_Session", Counting)
        for kind, sessions in (("adjacency", 1 + 1 + 2 + 6), ("random:3", 1 + 1 + 4 + 38)):
            built.clear()
            out = sweep_equivalence(SweepConfig(max_order=4, matrix_kinds=(kind,)))
            assert out.passed
            assert out.check_counts["distance_power_nonzero"] == 1 + 1 + 4 + 38
            assert len(built) == sessions

    def test_a_labeled_class_drops_its_table_after_its_unit(self, monkeypatch):
        # each labeled graph is its own class under a random kind, so the
        # sweep holds its session for one unit only, not for the whole order
        alive = weakref.WeakSet()

        class Tracked(control._Session):
            def __init__(self, a):
                super().__init__(a)
                alive.add(self)

        monkeypatch.setattr(control, "_Session", Tracked)
        peak = 0
        for _ in _units(SweepConfig(max_order=4, matrix_kinds=("random:3",)), _all_subsets):
            peak = max(peak, len(alive))
        assert 1 <= peak <= 2

    def test_each_sweep_call_walks_afresh(self, monkeypatch):
        calls = []
        kinds = {}
        engine = control._grow
        build = control.build_matrix

        def building(g, kind):
            a = build(g, kind)
            kinds[id(a)] = kind
            return a

        def counting(session, subsets, parts):
            calls.append(kinds[id(session.a)])
            return engine(session, subsets, parts=parts)

        monkeypatch.setattr(control, "build_matrix", building)
        monkeypatch.setattr(control, "_grow", counting)
        cfg = SweepConfig(max_order=4, matrix_kinds=("adjacency", "random:4"))
        first = sweep_equivalence(cfg).to_json()
        per_call = list(calls)
        second = sweep_equivalence(cfg).to_json()
        assert first == second
        assert calls == per_call + per_call
        # one walk per graph class for adjacency, one per labeled graph for random
        assert per_call.count("adjacency") == 1 + 1 + 2 + 6
        assert per_call.count("random:4") == 1 + 1 + 4 + 38


def _pair_orbits(n, forcing_only=False):
    """Orbits of (connected graph, nonempty control set) pairs of order n.

    Counted by brute force: each pair is relabeled by every permutation and
    the least (edges, set) image names its orbit.  Connectivity is a flood
    fill from vertex 1, and forcing the oracles' simultaneous-rounds closure.
    """
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    perms = [(0, *image) for image in itertools.permutations(range(1, n + 1))]
    orbits = set()
    for mask in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        if not _flood_fills(n, edges):
            continue
        adj = {v: [w for e in edges if v in e for w in e if w != v] for v in range(1, n + 1)}
        for s in itertools.chain.from_iterable(
                itertools.combinations(range(1, n + 1), k) for k in range(1, n + 1)):
            if forcing_only and len(oracles.forcing_closure_bruteforce(adj, n, s)) < n:
                continue
            orbits.add(min((tuple(sorted(tuple(sorted((pi[u], pi[v]))) for u, v in edges)),
                            tuple(sorted(pi[v] for v in s))) for pi in perms))
    return len(orbits)


class TestControlSetOrbits:
    """For a label-invariant kind ``_grow`` takes one control set per automorphism orbit.

    An automorphism sigma of the class representative fixes its matrix,
    so S and sigma(S) have the same three dimensions and one of them is
    grown for both.
    """

    def test_automorphism_groups_of_small_graphs(self):
        # C0, the relabelings of g onto its representative, has |Aut(g)| members
        def coset(g):
            rep, images, _ = _canonical_labeling(g)
            return rep, images, images[min(images)]

        for n in range(1, 6):
            for g in connected_graphs(n):
                rep, images, c0 = coset(g)
                assert len(set(c0)) == len(c0)
                assert all(_relabeled(g, c) == rep for c in c0)
                # orbit-stabilizer: the orbit holds every distinct relabeling of g
                assert len(c0) * len(images) == math.factorial(n)
        star = graph(5, [(1, v) for v in range(2, 6)])
        groups = [coset(g)[2] for g in (complete_graph(5), cycle_graph(5), path_graph(5), star)]
        assert [len(c0) for c0 in groups] == [120, 10, 2, 24]

    def test_orbit_shared_dims_match_fresh_roots_and_oracles(self):
        reps = {_canonical_labeling(g)[0] for n in range(1, 6) for g in connected_graphs(n)}

        def reps_only(g, zfs_map):
            return _all_nonempty_subsets(g.order) if g in reps else []

        units = 0
        for g, kind, _, _, table in _units(SweepConfig(max_order=5), reps_only):
            a = build_matrix(g, kind)
            entries = [list(row) for row in a.matrix.entries]
            for s, (walk, pspan, lie) in table.items():
                assert (walk, pspan, lie) == harness._fresh_dims(a, s), (g, kind, s)
                if g.order <= 4:
                    assert walk == oracles.walk_rank_bruteforce(entries, s), (g, kind, s)
                    assert lie == oracles.control_lie_dim_bruteforce(entries, s), (g, kind, s)
                # the literal-product oracle takes 5 s over the order-4 sets
                if g.order <= 3:
                    assert pspan == oracles.pspan_dim_bruteforce(entries, s), (g, kind, s)
            units += 1
        assert units == 2 * (1 + 1 + 2 + 6 + 21)

    def test_one_grown_set_per_orbit(self, monkeypatch):
        grown = []
        engine = control._grow

        def counting(session, subsets, parts):
            grown.append(len(set(subsets)))
            return engine(session, subsets, parts=parts)

        monkeypatch.setattr(control, "_grow", counting)
        cfg = SweepConfig(max_order=4)
        for sweep, forcing_only in ((sweep_equivalence, False), (sweep_zfs_implication, True)):
            grown.clear()
            assert sweep(cfg).passed
            assert sum(grown) == 2 * sum(_pair_orbits(n, forcing_only) for n in range(1, 5))

    def test_random_kinds_compute_no_automorphisms(self, monkeypatch):
        def refuse(g):
            raise AssertionError("a random kind built a class record")

        grown = []
        engine = control._grow

        def recording(session, subsets, parts):
            grown.append(set(subsets))
            return engine(session, subsets, parts=parts)

        monkeypatch.setattr(harness, "_canonical_labeling", refuse)
        monkeypatch.setattr(control, "_grow", recording)
        # each labeled graph is its own class: one table per (graph, kind),
        # over exactly the sets selected on that graph
        sampled = SweepConfig(max_order=6, matrix_kinds=("random:5", "random:9"),
                              subset_policy="random:8:1", seed=2)
        assert sweep_equivalence(sampled).passed
        family = harness._subset_family(sampled.subset_policy)
        drawn = [set(family(g, None)) for g in _iter_graphs(sampled)]
        assert grown == [sets for sets in drawn for _ in sampled.matrix_kinds]
        grown.clear()
        full = SweepConfig(max_order=4, matrix_kinds=("random:5",))
        assert sweep_zfs_implication(full).passed
        assert grown == [{s for s in _all_nonempty_subsets(g.order) if is_zfs(g, s)} for g in _iter_graphs(full)]


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

    def test_zfs_policy_visits_every_forcing_set(self):
        # both sweeps visit every forcing set, so they check as many instances
        for kinds, count in ((("adjacency",), 420), (("random:3", "laplacian"), 840)):
            eq = sweep_equivalence(SweepConfig(max_order=4, matrix_kinds=kinds, subset_policy="zfs"))
            imp = sweep_zfs_implication(SweepConfig(max_order=4, matrix_kinds=kinds))
            assert eq.passed and imp.passed
            assert eq.instances_checked == imp.instances_checked == count
            assert eq.check_counts["zfs_implies_lie"] == count

    def test_every_sweep_matrix_meets_the_hypotheses(self):
        # the sweeps assert every check unconditionally, which rests on this
        cfg = SweepConfig(max_order=6, seed=3)
        sweep_graphs = [g for g in _iter_graphs(cfg) if g.order != 5]
        assert len(sweep_graphs) == 1 + 1 + 4 + 38 + 3
        for g in sweep_graphs:
            for kind in ("adjacency", "laplacian", "random:3"):
                a = build_matrix(g, kind)
                assert control._hypotheses(a) == {"connected": True, "same_sign": True}


class TestSweepZfsImplication:
    def test_policy_all_asserts_every_forcing_set(self):
        out = sweep_zfs_implication(SweepConfig(max_order=3, matrix_kinds=("adjacency",)))
        assert out.passed
        expected = 0
        for n in range(1, 4):
            for g in connected_graphs(n):
                expected += sum(is_zfs(g, s) for s in _all_nonempty_subsets(n))
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

    def test_violations_are_recorded_and_recheck(self, monkeypatch):
        # an injected engine fault: every span and Lie dimension one short
        # in the sweeps' engine, which the samples and recheck read
        # (``harness._fresh_dims``)
        engine = control._dimensions
        grow = control._grow

        def faulty_grow(session, subsets, parts):
            return {members: tuple(d - (name != "walk") for name, d in zip(parts, dims))
                    for members, dims in grow(session, subsets, parts=parts).items()}

        monkeypatch.setattr(control, "_grow", faulty_grow)
        out = sweep_single_vector(12, 9)
        assert not out.passed
        by_check = {}
        for v in out.violations:
            by_check.setdefault(v.check, []).append(v)
        assert set(by_check) == {"single_vector_equivalence", "span_dimension_identity"}
        assert len(by_check["span_dimension_identity"]) == 12
        assert all(v.detail.startswith("p_span_dim ") for v in by_check["span_dimension_identity"])
        # each detail carries that sample's numbers under the fault
        for v in out.violations:
            walk, pspan, lie = engine(pattern_matrix(parse_matrix(v.matrix)), v.subset, control._PARTS)
            assert v.detail == {
                "single_vector_equivalence": f"walk_rank {walk} but lie_dim {lie - 1}",
                "span_dimension_identity": f"p_span_dim {pspan - 1} but walk_rank {walk}",
            }[v.check]
        assert all(recheck(v) for v in out.violations)
        monkeypatch.undo()
        assert not any(recheck(v) for v in out.violations)

        # a second fault moves the two apart: the Lie dimension reads full and
        # the span two over, so only a deficient sample (walk rank < n) breaks
        # the equivalence, and its detail must name its own walk rank and Lie
        # dimension, not n and the span dimension
        def lie_full_grow(session, subsets, parts):
            return {members: (walk, pspan + 2, session.n ** 2)
                    for members, (walk, pspan, _) in grow(session, subsets, parts=parts).items()}

        monkeypatch.setattr(control, "_grow", lie_full_grow)
        out = sweep_single_vector(40, 9)
        equivalence = [v for v in out.violations if v.check == "single_vector_equivalence"]
        assert len(equivalence) == 1
        assert len(out.violations) == 41
        for v in out.violations:
            walk, pspan, _ = engine(pattern_matrix(parse_matrix(v.matrix)), v.subset, control._PARTS)
            assert v.detail == {
                "single_vector_equivalence": f"walk_rank {walk} but lie_dim {v.order ** 2}",
                "span_dimension_identity": f"p_span_dim {pspan + 2} but walk_rank {walk}",
            }[v.check]
        assert equivalence[0].detail == "walk_rank 1 but lie_dim 4"
        assert all(recheck(v) for v in out.violations)
        monkeypatch.undo()
        assert not any(recheck(v) for v in out.violations)

    def test_samples_grow_their_lie_closure(self, monkeypatch):
        # analyze reads a one-vertex Lie dimension off the walk, so the
        # samples read the sweeps' engine, which grows the closure: a Lie
        # dimension one short there shows on every full-walk sample
        grow = control._grow

        def lie_short(session, subsets, parts):
            return {members: tuple(d - (name == "lie") for name, d in zip(parts, dims))
                    for members, dims in grow(session, subsets, parts=parts).items()}

        monkeypatch.setattr(control, "_grow", lie_short)
        out = sweep_single_vector(40, 9)
        assert out.violations
        assert all(v.check == "single_vector_equivalence" for v in out.violations)
        assert all(v.detail == f"walk_rank {v.order} but lie_dim {v.order ** 2 - 1}" for v in out.violations)
        assert all(recheck(v) for v in out.violations)

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            sweep_single_vector(0, 1)

    @pytest.mark.parametrize("bad", [True, 2.5, "3", -1])
    def test_samples_must_be_a_positive_int(self, bad):
        with pytest.raises(ValueError) as exc:
            sweep_single_vector(bad, 1)
        assert str(exc.value) == f"samples must be a positive integer, got {bad!r}"

    @pytest.mark.parametrize("bad", [True, 2.5, "3", None])
    def test_seed_must_be_an_int(self, bad):
        # None would seed from OS entropy, and no run could be replayed
        with pytest.raises(ValueError) as exc:
            sweep_single_vector(5, bad)
        assert str(exc.value) == f"seed must be an int, got {bad!r}"

    def test_json_is_loadable(self):
        out = sweep_single_vector(5, 2)
        doc = json.loads(out.to_json())
        assert doc["passed"] is True
        assert doc["instances_checked"] == 5


def _shifted_grow(monkeypatch, shift):
    """Patch ``control._grow`` alone: each dimension moves by ``shift(part, sets)``,
    ``sets`` the number of distinct sets of the call."""
    grow = control._grow

    def faulty(session, subsets, parts=control._PARTS):
        dims = grow(session, subsets, parts=parts)
        return {members: tuple(d + shift(name, len(dims)) for name, d in zip(parts, row))
                for members, row in dims.items()}

    monkeypatch.setattr(control, "_grow", faulty)


def _graph_violations(max_order):
    cfg = SweepConfig(max_order=max_order, matrix_kinds=("adjacency", "random:5"))
    return [v for out in (sweep_equivalence(cfg), sweep_zfs_implication(cfg)) for v in out.violations]


class TestRecheckRoute:
    """``recheck`` re-runs a record through the sweeps' engine, one set from a fresh root."""

    @pytest.mark.parametrize("part, found", [
        ("lie", {"kalman_iff_lie": 58, "zfs_implies_lie": 104}),
        ("pspan", {"span_dimension_identity": 64}),
    ])
    def test_an_engine_fault_reproduces(self, monkeypatch, part, found):
        _shifted_grow(monkeypatch, lambda name, sets: -(name == part))
        violations = _graph_violations(3)
        checks = {}
        for v in violations:
            checks[v.check] = checks.get(v.check, 0) + 1
        assert checks == found
        assert all(recheck(v) for v in violations)
        monkeypatch.undo()
        assert not any(recheck(v) for v in violations)

    def test_a_sharing_fault_does_not_reproduce(self, monkeypatch):
        # every dimension one short, but only where one table holds two or
        # more sets: the one set that recheck grows is sound
        _shifted_grow(monkeypatch, lambda name, sets: -(sets > 1))
        violations = _graph_violations(3)
        assert {v.check for v in violations} == {"zfs_implies_lie", "span_dimension_identity"}
        assert not any(recheck(v) for v in violations)

    def test_recheck_never_runs_analyze(self, monkeypatch):
        def refuse(a, s):
            raise AssertionError("recheck ran analyze")

        _shifted_grow(monkeypatch, lambda name, sets: -(name != "walk"))
        violations = _graph_violations(2) + list(sweep_single_vector(12, 9).violations)
        assert {v.check for v in violations} == {
            "kalman_iff_lie", "zfs_implies_lie", "span_dimension_identity", "single_vector_equivalence"}
        monkeypatch.setattr(control, "analyze", refuse)
        assert all(recheck(v) for v in violations)
        mixed = format_matrix(pattern_matrix(MIXED_CYCLE).matrix)
        edges = ((1, 2), (1, 4), (2, 3), (3, 4))
        # the mixed cycle's own hypotheses fail, so of the records under the
        # fault only the unconditional span identity is asserted and fails
        assert [recheck(Violation(order=4, edges=edges, kind="explicit", subset=(1, 3),
                                  check=check, detail="", matrix=mixed))
                for check in ("kalman_iff_lie", "zfs_implies_lie", "span_dimension_identity")] == [False, False, True]


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

    @pytest.mark.parametrize("image, message", [
        ({}, "lacks field 'order', 'edges', 'kind', 'subset', 'check', 'detail'"),
        ({"order": 2, "edges": [[1, 2]], "kind": "adjacency", "subset": [1], "check": "kalman_iff_lie"},
         "lacks field 'detail'"),
        ([], "expected a dict, got list"),
        ("order", "expected a dict, got str"),
    ], ids=["empty", "no-detail", "list", "str"])
    def test_malformed_images_raise_value_error(self, image, message):
        # once KeyError on a missing field and TypeError on a list
        with pytest.raises(ValueError, match=re.escape(message)):
            violation_from_dict(image)

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

    def test_expected_facts_are_the_papers(self):
        # the facts the paper states for its three worked examples, so the
        # fixture table cannot drift from them
        deficient = {
            "walk_rank": 4,
            "kalman_controllable": True,
            "lie_dim_at_most_8": True,
            "lie_dim": 8,
            "lie_controllable": False,
        }
        papers = {
            "a": {
                "walk_matrix": [[0, 1, 0, 2], [1, 0, 2, 0], [0, 1, 0, 3], [0, 0, 1, 0]],
                "walk_rank": 4,
                "lie_dim": 16,
                "zfs_status": False,
            },
            "b": deficient,
            "c": {"block_walk_ranks": [2, 2], **deficient},
        }
        rows = replicate_examples()
        assert {row["id"]: row["expected"] for row in rows} == papers
        for row in rows:
            assert list(row["computed"]) == list(papers[row["id"]])
        # each call returns fresh rows: editing one leaves the table alone
        rows[0]["expected"]["walk_matrix"][0][0] = 9
        assert {row["id"]: row["expected"] for row in replicate_examples()} == papers

    def test_rows_are_json_ready(self):
        json.dumps(list(replicate_examples()))
