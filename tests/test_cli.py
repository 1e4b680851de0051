"""End-to-end command-line behavior: outputs, exit codes, file emission."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import netctrl
from netctrl import analyze, adjacency_matrix, control, path_graph, report_from_dict
from netctrl.cli import main

P4_TEXT = "4\n1 2\n2 3\n3 4\n"
C4_TEXT = "4\n1 2\n2 3\n3 4\n1 4\n"
C5_TEXT = "5\n1 2\n2 3\n3 4\n4 5\n1 5\n"

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"
ENTRY_POINT = "netctrl.cli:entry"

# What a console-script launcher does: load the entry point named by the
# first argument, present itself as `netctrl`, exit with the entry's result.
LAUNCHER = (
    "import sys\n"
    "from importlib.metadata import EntryPoint\n"
    "value = sys.argv.pop(1)\n"
    "sys.argv[0] = 'netctrl'\n"
    "entry = EntryPoint(name='netctrl', value=value, group='console_scripts').load()\n"
    "sys.exit(entry())\n"
)


@pytest.fixture
def p4(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(P4_TEXT)
    return str(path)


@pytest.fixture
def c4(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(C4_TEXT)
    return str(path)


@pytest.fixture
def c5(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text(C5_TEXT)
    return str(path)


def run_child(*argv, cwd):
    """Run `python *argv` against the netctrl package this process imported.

    The directory holding that package goes first on the child's PYTHONPATH,
    so neither a relative PYTHONPATH, the working directory nor another
    installed netctrl decides which code runs.
    """
    package_root = str(Path(netctrl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        cwd=cwd, env=env, timeout=120,
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestZfsCommand:
    def test_non_forcing_text(self, capsys, p4):
        code, out, _ = run_cli(capsys, "zfs", "--graph", p4, "--set", "2")
        assert code == 0
        assert out == (
            "set = {2}\n"
            "NOT a zero forcing set; closure = {2}\n"
            "chronicle: (none)\n"
        )

    def test_forcing_text_with_chronicle(self, capsys, p4):
        code, out, _ = run_cli(capsys, "zfs", "--graph", p4, "--set", "1")
        assert code == 0
        assert "zero forcing set; closure = {1, 2, 3, 4}" in out
        assert "chronicle: 1->2, 2->3, 3->4" in out

    def test_expect_exit_codes(self, capsys, p4):
        assert run_cli(capsys, "zfs", "--graph", p4, "--set", "2", "--expect", "zfs")[0] == 1
        assert run_cli(capsys, "zfs", "--graph", p4, "--set", "2", "--expect", "not-zfs")[0] == 0
        assert run_cli(capsys, "zfs", "--graph", p4, "--set", "1", "--expect", "zfs")[0] == 0
        assert run_cli(capsys, "zfs", "--graph", p4, "--set", "1", "--expect", "not-zfs")[0] == 1

    def test_json_report(self, capsys, p4):
        code, out, _ = run_cli(capsys, "zfs", "--graph", p4, "--set", "1,3", "--report", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["set"] == [1, 3]
        assert doc["is_zfs"] is True
        assert doc["closure"] == [1, 2, 3, 4]
        assert doc["chronicle"][0] == [1, 2]

    def test_minimum_text(self, capsys, c5):
        code, out, _ = run_cli(capsys, "zfs", "--graph", c5, "--minimum")
        assert code == 0
        assert "zero forcing number = 2; witness = {1, 2}" in out

    def test_minimum_json(self, capsys, c5):
        code, out, _ = run_cli(capsys, "zfs", "--graph", c5, "--minimum", "--report", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"order": 5, "zero_forcing_number": 2, "witness": [1, 2]}

    def test_minimum_rejects_expect(self, capsys, c5):
        code, _, err = run_cli(capsys, "zfs", "--graph", c5, "--minimum", "--expect", "zfs")
        assert code == 2
        assert "error:" in err

    def test_minimum_over_cap_names_the_variable(self, capsys, tmp_path, monkeypatch):
        # the command line has no max_order flag: the message must name what overrides it
        monkeypatch.delenv("NETCTRL_MAX_ORDER", raising=False)
        path = tmp_path / "p21.txt"
        path.write_text("21\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 21)))
        code, out, err = run_cli(capsys, "zfs", "--graph", str(path), "--minimum")
        assert code == 2
        assert out == ""
        assert "exceeds the exhaustive-search cap 20" in err
        assert "NETCTRL_MAX_ORDER" in err

    def test_set_runs_on_a_large_declared_order(self, capsys, tmp_path, monkeypatch):
        # the closure reads the edge list only: a huge declared order costs nothing
        monkeypatch.delenv("NETCTRL_MAX_ORDER", raising=False)
        path = tmp_path / "big.txt"
        path.write_text("200000\n1 2\n")
        code, out, err = run_cli(capsys, "zfs", "--graph", str(path), "--set", "1")
        assert (code, err) == (0, "")
        assert "NOT a zero forcing set; closure = {1, 2}\n" in out

    def test_order_cap_governs_only_the_minimum(self, capsys, p4, monkeypatch):
        monkeypatch.setenv("NETCTRL_MAX_ORDER", "3")
        code, out, _ = run_cli(capsys, "zfs", "--graph", p4, "--set", "1")
        assert code == 0
        assert "zero forcing set; closure = {1, 2, 3, 4}" in out
        code, out, err = run_cli(capsys, "zfs", "--graph", p4, "--minimum")
        assert (code, out) == (2, "")
        assert "exceeds the exhaustive-search cap 3" in err

    # int() alone reads each of these: Arabic-Indic three, a plus sign, a
    # digit separator and surrounding spaces
    @pytest.mark.parametrize("token", ["\u0663", "+3", "1_0", " 2"], ids=repr)
    def test_set_takes_ascii_digits_only(self, capsys, p4, token):
        code, out, err = run_cli(capsys, "zfs", "--graph", p4, "--set", f"1,{token}")
        assert (code, out) == (2, "")
        assert f"malformed vertex set '1,{token}'; want e.g. 1,3" in err

    @pytest.mark.parametrize("raw", ["\u0663", "+3", "1_0", " 20 "], ids=repr)
    def test_cap_variable_takes_ascii_digits_only(self, capsys, p4, monkeypatch, raw):
        monkeypatch.setenv("NETCTRL_MAX_ORDER", raw)
        code, out, err = run_cli(capsys, "zfs", "--graph", p4, "--minimum")
        assert (code, out) == (2, "")
        assert f"NETCTRL_MAX_ORDER must be an integer, got {raw!r}" in err

    @pytest.mark.parametrize("text, words", [
        ("\u0663\n1 2\n", "line 1: order is not an integer: '\u0663'"),
        ("3\n2 +3\n", "line 2: vertices are not integers: '2 +3'"),
        ("1_0\n1 2\n", "line 1: order is not an integer: '1_0'"),
    ], ids=["arabic-indic-order", "plus-vertex", "underscore-order"])
    def test_graph_file_takes_ascii_digits_only(self, capsys, tmp_path, text, words):
        path = tmp_path / "g.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "zfs", "--graph", str(path), "--minimum")
        assert (code, out) == (2, "")
        assert words in err

    def test_set_and_minimum_mutually_exclusive(self, p4):
        with pytest.raises(SystemExit) as exc:
            main(["zfs", "--graph", p4, "--set", "1", "--minimum"])
        assert exc.value.code == 2


class TestAnalyzeCommand:
    def test_json_golden_values(self, capsys, p4):
        code, out, _ = run_cli(
            capsys, "analyze", "--graph", p4, "--set", "2", "--matrix", "adjacency",
            "--report", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["walk_rank"] == 4
        assert doc["lie_dim"] == 16
        assert doc["kalman_controllable"] is True
        assert doc["lie_controllable"] is True
        assert doc["zfs_status"] is False

    def test_json_round_trips_to_report(self, capsys, p4):
        code, out, _ = run_cli(
            capsys, "analyze", "--graph", p4, "--set", "1,3", "--report", "json"
        )
        assert code == 0
        direct = analyze(adjacency_matrix(path_graph(4)), (1, 3))
        assert report_from_dict(json.loads(out)) == direct

    def test_text_and_json_carry_the_same_facts(self, capsys, p4):
        _, text, _ = run_cli(capsys, "analyze", "--graph", p4, "--set", "2")
        _, raw, _ = run_cli(capsys, "analyze", "--graph", p4, "--set", "2", "--report", "json")
        doc = json.loads(raw)
        yn = {True: "yes", False: "no"}
        lines = text.splitlines()
        assert f"order: {doc['n']}" in lines
        assert "control set: {" + ", ".join(map(str, doc["control_set"])) + "}" in lines
        assert f"walk rank: {doc['walk_rank']}" in lines
        assert f"kalman controllable: {yn[doc['kalman_controllable']]}" in lines
        assert f"p span dim: {doc['p_span_dim']}" in lines
        assert f"lie dim: {doc['lie_dim']}" in lines
        assert f"lie controllable: {yn[doc['lie_controllable']]}" in lines
        assert f"zero forcing set: {yn[doc['zfs_status']]}" in lines
        hyp = doc["hypotheses"]
        assert (
            f"hypotheses: connected {yn[hyp['connected']]}, same sign {yn[hyp['same_sign']]}"
            in lines
        )
        for c in doc["consistency"]:
            assert f"  {c['check']}: {c['status']} ({c['detail']})" in lines

    def test_laplacian_and_random_kinds(self, capsys, p4):
        code, out, _ = run_cli(
            capsys, "analyze", "--graph", p4, "--set", "1", "--matrix", "laplacian",
            "--report", "json",
        )
        assert code == 0
        assert json.loads(out)["lie_controllable"] is True
        code, _, _ = run_cli(
            capsys, "analyze", "--graph", p4, "--set", "1", "--matrix", "random:3"
        )
        assert code == 0

    def test_expect_exit_codes(self, capsys, c4):
        # one vertex cannot control the four-cycle
        assert run_cli(
            capsys, "analyze", "--graph", c4, "--set", "1", "--expect", "controllable"
        )[0] == 1
        assert run_cli(
            capsys, "analyze", "--graph", c4, "--set", "1", "--expect", "not-controllable"
        )[0] == 0
        assert run_cli(
            capsys, "analyze", "--graph", c4, "--set", "1,2", "--expect", "controllable"
        )[0] == 0

    def test_bad_matrix_kind(self, capsys, p4):
        code, _, err = run_cli(capsys, "analyze", "--graph", p4, "--set", "1", "--matrix", "cauchy")
        assert code == 2
        assert "error:" in err

    def test_out_of_range_set(self, capsys, p4):
        code, _, err = run_cli(capsys, "analyze", "--graph", p4, "--set", "9")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("text", [
        "17\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 17)),
        "40\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 40)),
        "99999999\n1 2\n",
    ], ids=["path-17", "path-40", "declared-order"])
    def test_over_cap_order_fails_before_any_work(self, capsys, tmp_path, monkeypatch, text):
        def refuse(*args):
            raise AssertionError("matrix work started past the order cap")

        monkeypatch.delenv("NETCTRL_MAX_ORDER", raising=False)
        monkeypatch.setattr(netctrl.control, "build_matrix", refuse)
        monkeypatch.setattr(netctrl.control, "p_span_dim", refuse)
        path = tmp_path / "big.txt"
        path.write_text(text)
        code, _, err = run_cli(capsys, "analyze", "--graph", str(path), "--set", "1")
        assert code == 2
        assert "exceeds the Lie-closure cap 16" in err
        assert "NETCTRL_MAX_ORDER" in err

    def test_non_integer_cap_variable_is_input_error(self, capsys, p4, monkeypatch):
        monkeypatch.setenv("NETCTRL_MAX_ORDER", "lots")
        code, out, err = run_cli(capsys, "analyze", "--graph", p4, "--set", "1")
        assert (code, out) == (2, "")
        assert "NETCTRL_MAX_ORDER must be an integer, got 'lots'" in err

    @pytest.mark.parametrize("raw", ["-1", "0"])
    def test_cap_variable_below_one_is_input_error(self, capsys, p4, monkeypatch, raw):
        # the refusal names the variable as wrong, not as the way to raise the cap
        monkeypatch.setenv("NETCTRL_MAX_ORDER", raw)
        for argv in (("zfs", "--graph", p4, "--minimum"), ("analyze", "--graph", p4, "--set", "1")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert f"NETCTRL_MAX_ORDER must be a positive integer, got '{raw}'" in err
            assert "to override" not in err

    def test_theorem_violation_exits_3_with_the_sweep_details(self, capsys, p4, monkeypatch):
        # an injected engine fault: P4 with the forcing set {1} loses one Lie dimension
        monkeypatch.setattr(netctrl.control, "_dimensions", lambda a, members, parts: (4, 16, 15))
        code, _, err = run_cli(capsys, "analyze", "--graph", p4, "--set", "1")
        assert code == 3
        [line] = [row for row in err.splitlines() if row.startswith("THEOREM-VIOLATION: ")]
        # the same dimensions reach a sweep through its prefix-tree walk
        engine = netctrl.control._grow

        fault = {"walk": 4, "pspan": 16, "lie": 15}

        def faulty_grow(session, subsets, parts):
            table = engine(session, subsets, parts=parts)
            if session.n != 4:
                return table
            return {members: tuple(fault[name] for name in parts) for members in table}

        monkeypatch.setattr(netctrl.control, "_grow", faulty_grow)
        cfg = netctrl.SweepConfig(max_order=4, matrix_kinds=("adjacency",),
                                  subset_policy="singletons")
        found = {v.check: v for v in netctrl.sweep_equivalence(cfg).violations
                 if v.edges == ((1, 2), (2, 3), (3, 4)) and v.subset == (1,)}
        checks = ("kalman_iff_lie", "zfs_implies_lie")
        assert tuple(found) == checks
        assert line == "THEOREM-VIOLATION: " + "; ".join(f"{c}: {found[c].detail}" for c in checks)
        assert all(netctrl.recheck(v) for v in found.values())


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys, tmp_path):
        out_path = tmp_path / "outcome.json"
        code, out, _ = run_cli(
            capsys, "verify", "--max-order", "2", "--out", str(out_path)
        )
        assert code == 0
        assert "equivalence: 8 instances, 0 violations" in out
        assert "zfs_implication: 8 instances, 0 violations" in out
        assert out.rstrip().endswith("PASSED")
        doc = json.loads(out_path.read_text())
        assert doc["passed"] is True
        assert doc["equivalence"]["instances_checked"] == 8
        assert doc["zfs_implication"]["check_counts"] == {"zfs_implies_lie": 8}

    def test_kinds_and_subsets_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--max-order", "3", "--kinds", "adjacency",
            "--subsets", "singletons",
        )
        assert code == 0
        assert "equivalence: 15 instances, 0 violations" in out

    def test_zfs_subsets_policy(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--max-order", "3", "--kinds", "adjacency", "--subsets", "zfs",
        )
        assert code == 0
        assert "equivalence: 26 instances, 0 violations" in out
        assert out.rstrip().endswith("PASSED")

    def test_violations_exit_3_one_line_each(self, capsys, tmp_path, monkeypatch):
        # an injected engine fault: every span and Lie dimension one short
        engine = netctrl.control._grow

        def faulty_grow(session, subsets, parts):
            return {members: tuple(d - (name in ("pspan", "lie")) for name, d in zip(parts, dims))
                    for members, dims in engine(session, subsets, parts=parts).items()}

        monkeypatch.setattr(netctrl.control, "_grow", faulty_grow)
        out_path = tmp_path / "outcome.json"
        code, out, _ = run_cli(capsys, "verify", "--max-order", "2", "--kinds", "adjacency",
                               "--out", str(out_path))
        assert code == 3
        doc = json.loads(out_path.read_text())
        found = doc["equivalence"]["violations"] + doc["zfs_implication"]["violations"]
        assert {v["check"] for v in found} == {
            "kalman_iff_lie", "zfs_implies_lie", "span_dimension_identity"}
        lines = [row for row in out.splitlines() if row.startswith("  ")]
        assert lines == [
            f"  {v['check']}: order {v['order']}, kind {v['kind']}, "
            f"subset {{{', '.join(map(str, v['subset']))}}}: {v['detail']}"
            for v in found
        ]
        assert out.rstrip().endswith("FAILED")

    def test_unwritable_out_fails_before_sweeping(self, capsys, tmp_path, monkeypatch):
        def refuse(cfg):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(netctrl.harness, "sweep_equivalence", refuse)
        monkeypatch.setattr(netctrl.harness, "sweep_zfs_implication", refuse)
        code, out, err = run_cli(capsys, "verify", "--max-order", "5",
                                 "--out", str(tmp_path / "missing" / "x.json"))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    # int() alone reads each of these; the refusal names the token
    @pytest.mark.parametrize("flag, token", [
        ("--max-order", "\u0663"), ("--max-order", "+3"), ("--seed", "1_0"), ("--seed", " 1"),
    ], ids=repr)
    def test_integer_flags_take_ascii_digits_only(self, capsys, flag, token):
        argv = ["verify", "--max-order", "2", flag, token]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: not an integer: {token!r}" in capsys.readouterr().err

    def test_policy_and_kind_seeds_take_ascii_digits_only(self, capsys, p4):
        code, out, err = run_cli(capsys, "verify", "--max-order", "3", "--subsets", "random:2:1_0")
        assert (code, out) == (2, "")
        assert "unknown subset policy 'random:2:1_0'" in err
        code, out, err = run_cli(capsys, "analyze", "--graph", p4, "--set", "1", "--matrix", "random:\u0663")
        assert (code, out) == (2, "")
        assert "malformed matrix kind 'random:\u0663'" in err

    def test_seeds_may_be_negative(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-order", "2", "--kinds", "random:-3",
                               "--subsets", "random:1:-2", "--seed", "-4")
        assert code == 0 and out.rstrip().endswith("PASSED")

    def test_bad_config_is_input_error(self, capsys):
        assert run_cli(capsys, "verify", "--max-order", "9")[0] == 2
        assert run_cli(capsys, "verify", "--max-order", "2", "--kinds", "x")[0] == 2
        assert run_cli(capsys, "verify", "--max-order", "2", "--subsets", "few")[0] == 2
        for kinds, named in (("adjacency,adjacency", "'adjacency'"), ("random:5,random:05", "'random:05'")):
            code, out, err = run_cli(capsys, "verify", "--max-order", "2", "--kinds", kinds)
            assert (code, out) == (2, "")
            assert named in err


class TestExamplesCommand:
    def test_text_table(self, capsys):
        code, out, _ = run_cli(capsys, "examples")
        assert code == 0
        assert out.splitlines()[0] == "id  match  description"
        assert out.rstrip().endswith("all examples match")

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "examples", "--report", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["id"] for r in rows] == ["a", "b", "c"]
        assert all(r["match"] for r in rows)

    def test_mismatch_exits_3(self, capsys, monkeypatch):
        # a fault that loses one Lie dimension whenever the closure is full
        dimensions = control._dimensions

        def deficient(a, members, parts):
            dims = dimensions(a, members, parts)
            full = a.n * a.n
            return tuple(d - (name == "lie" and d == full) for name, d in zip(parts, dims))

        monkeypatch.setattr(control, "_dimensions", deficient)
        code, out, _ = run_cli(capsys, "examples")
        assert code == 3
        walk = '"walk_matrix": [[0, 1, 0, 2], [1, 0, 2, 0], [0, 1, 0, 3], [0, 0, 1, 0]]'
        assert out.splitlines() == [
            "id  match  description",
            "a   no     path on four vertices, control at the second vertex",
            f'    expected: {{"lie_dim": 16, {walk}, "walk_rank": 4, "zfs_status": false}}',
            f'    computed: {{"lie_dim": 15, {walk}, "walk_rank": 4, "zfs_status": false}}',
            "b   yes    four-cycle pattern with one negative edge pair, controls at opposite vertices",
            "c   yes    two disjoint edges as diagonal blocks, one control vertex per block",
            "EXAMPLE MISMATCH",
        ]


def readme_transcripts() -> list:
    """(command, printed text) for each `$ ` line in README's untagged code blocks."""
    out, fence, printed = [], None, None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fence, printed = (line[3:] if fence is None else None), None
        elif fence == "" and line.startswith("$ "):
            printed = []
            out.append((line[2:], printed))
        elif printed is not None:
            printed.append(line)
    return [(command, "\n".join(printed).rstrip("\n")) for command, printed in out]


class TestReadme:
    def test_transcripts_match_the_command_line(self, capsys, tmp_path, monkeypatch):
        transcripts = readme_transcripts()
        assert transcripts[0][0] == "cat p4.txt"
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("NETCTRL_MAX_ORDER", raising=False)
        (tmp_path / "p4.txt").write_text(transcripts[0][1] + "\n")
        runs = [(shlex.split(command), printed) for command, printed in transcripts[1:]]
        assert [argv[:2] for argv, _ in runs] == [
            ["netctrl", sub] for sub in ("zfs", "zfs", "analyze", "verify", "examples")
        ]
        for argv, printed in runs:
            code, out, err = run_cli(capsys, *argv[1:])
            assert (code, err) == (0, ""), argv
            assert out.splitlines() == printed.splitlines(), argv


class TestPlumbing:
    def test_missing_graph_file(self, capsys):
        code, _, err = run_cli(capsys, "zfs", "--graph", "/no/such/file", "--set", "1")
        assert code == 2
        assert "error:" in err

    def test_graph_file_not_utf8_names_the_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(capsys, "zfs", "--graph", str(bad), "--set", "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read graph file {bad}: ")
        assert "can't decode byte 0xff" in err

    @pytest.mark.parametrize("argv", [("zfs", "--minimum"), ("analyze", "--set", "1")], ids=["zfs", "analyze"])
    def test_graph_file_may_start_with_a_byte_order_mark(self, capsys, p4, tmp_path, argv):
        # once exit 2 with "line 1: order is not an integer: '\ufeff4'"
        marked = tmp_path / "bom.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + P4_TEXT.encode())
        plain = run_cli(capsys, argv[0], "--graph", p4, *argv[1:], "--report", "json")
        assert plain[0] == 0
        assert run_cli(capsys, argv[0], "--graph", str(marked), *argv[1:], "--report", "json") == plain

    def test_malformed_graph_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n1 2\nbogus\n")
        code, _, err = run_cli(capsys, "zfs", "--graph", str(bad), "--set", "1")
        assert code == 2
        assert "line 3" in err

    def test_loop_edge_names_its_line(self, capsys, tmp_path):
        bad = tmp_path / "loop.txt"
        bad.write_text("3\n1 2\n2 2\n")
        code, out, err = run_cli(capsys, "analyze", "--graph", str(bad), "--set", "1")
        assert (code, out) == (2, "")
        assert "line 3: loop edge not allowed" in err

    def test_malformed_set(self, capsys, p4):
        code, _, err = run_cli(capsys, "zfs", "--graph", p4, "--set", "1,x")
        assert code == 2
        assert "malformed vertex set" in err

    def test_out_writes_file(self, capsys, p4, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run_cli(
            capsys, "zfs", "--graph", p4, "--set", "1", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert "zero forcing set" in target.read_text()

    @pytest.mark.parametrize("argv, module, name", [
        (("zfs", "--graph", "P4", "--minimum"), netctrl.forcing, "min_zfs"),
        (("analyze", "--graph", "P4", "--set", "1"), netctrl.control, "analyze"),
        (("examples",), netctrl.harness, "replicate_examples"),
    ], ids=["zfs", "analyze", "examples"])
    def test_unwritable_out_fails_before_any_work(self, capsys, tmp_path, monkeypatch, p4,
                                                  argv, module, name):
        def refuse(*args, **kwargs):
            raise AssertionError("the work ran")

        monkeypatch.setattr(module, name, refuse)
        argv = [p4 if arg == "P4" else arg for arg in argv]
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "missing" / "x.txt"))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_out_is_truncated_before_any_work(self, capsys, p4, tmp_path):
        target = tmp_path / "report.txt"
        target.write_text("stale\n")
        code, _, err = run_cli(capsys, "zfs", "--graph", p4, "--set", "1,x", "--out", str(target))
        assert code == 2
        assert "malformed vertex set" in err
        assert target.read_text() == ""

    @pytest.mark.parametrize("argv", [("zfs", "--set", "1"), ("analyze", "--set", "1")], ids=["zfs", "analyze"])
    def test_out_naming_the_graph_file_is_refused(self, capsys, p4, tmp_path, argv):
        # once truncated the graph to 0 bytes, then failed on the empty document
        link = tmp_path / "link.txt"
        link.symlink_to(p4)
        for out in (p4, str(link)):
            code, stdout, err = run_cli(capsys, argv[0], "--graph", p4, *argv[1:], "--out", out)
            assert (code, stdout) == (2, "")
            assert err.startswith("error: ") and "--graph" in err
            assert Path(p4).read_text() == P4_TEXT

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_module_entry_point(self, p4):
        proc = run_child(
            "-m", "netctrl.cli", "zfs", "--graph", p4, "--set", "1",
            cwd=Path(p4).parent,
        )
        assert proc.returncode == 0, proc.stderr
        assert "zero forcing set" in proc.stdout

    def test_console_script(self, capsys, p4):
        argv = ["analyze", "--graph", p4, "--set", "2", "--report", "json"]
        proc = run_child("-c", LAUNCHER, ENTRY_POINT, *argv, cwd=Path(p4).parent)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["walk_rank"] == 4

        # The process exits with main's return code, not only with 0.
        unmet = argv + ["--expect", "not-controllable"]
        expected = run_cli(capsys, *unmet)[0]
        assert expected == 1
        proc = run_child("-c", LAUNCHER, ENTRY_POINT, *unmet, cwd=Path(p4).parent)
        assert proc.returncode == expected, proc.stderr

        # The declared script is the entry point run above.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["netctrl"] == ENTRY_POINT
