"""Command-line behavior: payloads, exit codes, determinism."""

import ast
import json
import shlex
from pathlib import Path

import pytest

from circulant_colorings import (
    DistanceSet,
    FiniteColoring,
    PeriodicColoring,
    canonical_form,
    coloring_to_json,
    enumerate_perfect_finite,
    enumerate_periodic_perfect,
)
from circulant_colorings.cli import main


def run(tmp_path, *argv):
    """Invoke the CLI with --out and return (exit_code, file_text)."""
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestVerify:
    def test_perfect_finite(self, tmp_path):
        code, text = run(
            tmp_path, "verify", "--distances", "1,3", "--coloring", "1,2,1,1,3,3,2,1",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["perfect"] is True
        assert payload["matrix"] == [[2, 1, 1], [2, 1, 1], [2, 1, 1]]

    def test_not_perfect_exits_one(self, tmp_path):
        code, text = run(
            tmp_path, "verify", "--distances", "1,3", "--coloring", "1,1,1,2,2,2"
        )
        assert code == 1
        payload = json.loads(text)
        assert payload["perfect"] is False and payload["witness"] is not None

    def test_table_format(self, tmp_path):
        code, text = run(
            tmp_path, "verify", "--distances", "1,3", "--coloring", "1,2,1,2,1,2",
            "--format", "table",
        )
        assert code == 0
        assert text.splitlines() == ["perfect", "  0 4", "  4 0"]
        code, text = run(
            tmp_path, "verify", "--distances", "1,3", "--coloring", "1,1,1,2,2,2",
            "--format", "table",
        )
        assert code == 1
        assert text == "not perfect: vertices 0 and 1 share a color but differ\n"

    def test_infinite_word(self, tmp_path):
        code, text = run(
            tmp_path, "verify", "--infinite", "--distances", "1,3",
            "--coloring", "1,2,3,4,5,6,7",
        )
        assert code == 0
        assert json.loads(text)["perfect"] is True

    def test_coloring_from_json_file(self, tmp_path):
        path = tmp_path / "coloring.json"
        data = coloring_to_json(FiniteColoring((1, 2, 1, 2, 1, 2), 2), DistanceSet((1, 3)))
        path.write_text(json.dumps(data))
        code, text = run(tmp_path, "verify", "--coloring", str(path))
        assert code == 0
        assert json.loads(text)["matrix"] == [[0, 4], [4, 0]]

    def test_conflicting_distances_rejected(self, tmp_path):
        path = tmp_path / "coloring.json"
        data = coloring_to_json(FiniteColoring((1, 2, 1, 2, 1, 2), 2), DistanceSet((1, 3)))
        path.write_text(json.dumps(data))
        code, _ = run(tmp_path, "verify", "--coloring", str(path), "--distances", "1")
        assert code == 2

    def test_non_integer_values_in_file_rejected(self, tmp_path):
        path = tmp_path / "coloring.json"
        data = coloring_to_json(FiniteColoring((1, 2, 1, 2, 1, 2), 2), DistanceSet((1, 3)))
        for field, value in (("distances", [1.5]), ("word", [True, 2, 1, 2, 1, 2])):
            path.write_text(json.dumps({**data, field: value}))
            code, _ = run(tmp_path, "verify", "--coloring", str(path))
            assert code == 2, field

    def test_file_options_must_agree_with_the_file(self, tmp_path, capsys):
        path = tmp_path / "coloring.json"
        data = coloring_to_json(FiniteColoring((1, 2) * 4, 2), DistanceSet((1, 3)))
        path.write_text(json.dumps(data))
        assert run(tmp_path, "verify", "--coloring", str(path))[0] == 0
        code, _ = run(tmp_path, "verify", "--coloring", str(path), "--infinite")
        assert code == 2
        assert "usage error: --infinite " in capsys.readouterr().err

    def test_periodic_file_has_no_vertex_count(self, tmp_path):
        path = tmp_path / "coloring.json"
        data = coloring_to_json(PeriodicColoring((1, 2), 2), DistanceSet((1, 3)))
        path.write_text(json.dumps(data))
        assert run(tmp_path, "verify", "--coloring", str(path), "--infinite")[0] == 0

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run(tmp_path, "verify", "--coloring", str(path))
        assert code == 2


class TestEnumerate:
    def test_finite_count_and_payload(self, tmp_path):
        code, text = run(
            tmp_path, "enumerate", "--t", "6", "--distances", "1,3", "--k", "2"
        )
        assert code == 0
        lines = text.splitlines()
        assert len(lines) == 8
        first = json.loads(lines[0])
        assert set(first) == {"coloring", "matrix"}
        assert first["coloring"]["kind"] == "finite"

    def test_infinite_default_folds_colors(self, tmp_path):
        code, text = run(tmp_path, "enumerate", "--infinite", "--n", "1", "--k", "2")
        assert code == 0
        words = [tuple(json.loads(line)["coloring"]["word"]) for line in text.splitlines()]
        assert words == [(1, 1, 2), (1, 1, 2, 2), (1, 2)]

    def test_infinite_table_format(self, tmp_path):
        code, text = run(
            tmp_path, "enumerate", "--infinite", "--n", "1", "--k", "2", "--format", "table"
        )
        assert code == 0
        assert text.splitlines() == [
            "1,1,2  [[1, 1], [2, 0]]",
            "1,1,2,2  [[1, 1], [1, 1]]",
            "1,2  [[0, 2], [2, 0]]",
        ]

    def test_infinite_rotation_only(self, tmp_path):
        code, text = run(
            tmp_path, "enumerate", "--infinite", "--n", "1", "--k", "2",
            "--symmetry", "rotation",
        )
        assert code == 0
        assert len(text.splitlines()) == 4

    # At n = 3 reflections fold 56 color classes into 46; at n = 2 they fold none.
    @pytest.mark.parametrize("n", [2, 3])
    def test_infinite_folds_reflections_and_colors(self, tmp_path, n):
        code, text = run(
            tmp_path, "enumerate", "--infinite", "--n", str(n), "--k", "2",
            "--symmetry", "rotation,reflection,colors",
        )
        assert code == 0
        matrix_of = {c.word: m.to_lists() for c, m in enumerate_periodic_perfect(n, 2).entries}
        reps = sorted(
            {canonical_form(w, reflection=True, color_permutation=True) for w in matrix_of}
        )
        printed = [json.loads(line) for line in text.splitlines()]
        assert [tuple(p["coloring"]["word"]) for p in printed] == reps
        assert all(p["matrix"] == matrix_of[tuple(p["coloring"]["word"])] for p in printed)
        assert len(reps) < len(matrix_of)

    @pytest.mark.parametrize("n, k", [(3, 2), (2, 3)])
    @pytest.mark.parametrize(
        "symmetry", ["none", "rotation", "rotation,colors", "reflection", "rotation,reflection,colors"]
    )
    def test_infinite_prints_each_canonical_form_once(self, tmp_path, n, k, symmetry):
        # the one-sweep fold against canonical_form on every search entry
        code, text = run(
            tmp_path, "enumerate", "--infinite", "--n", str(n), "--k", str(k),
            "--symmetry", symmetry,
        )
        assert code == 0
        flags = dict(reflection="reflection" in symmetry, color_permutation="colors" in symmetry)
        matrix_of = {c.word: m for c, m in enumerate_periodic_perfect(n, k).entries}
        dset = DistanceSet(tuple(range(1, 2 * n, 2)))
        expected = [
            {"coloring": coloring_to_json(PeriodicColoring(w, k), dset),
             "matrix": matrix_of[w].to_lists()}
            for w in sorted({canonical_form(w, **flags) for w in matrix_of})
        ]
        assert [json.loads(line) for line in text.splitlines()] == expected

    def test_finite_symmetry_matches_library(self, tmp_path):
        code, text = run(
            tmp_path, "enumerate", "--t", "8", "--distances", "1,3", "--k", "2",
            "--symmetry", "rotation,colors",
        )
        assert code == 0
        dset = DistanceSet((1, 3))
        result = enumerate_perfect_finite(8, dset, 2, rotation=True, color_permutation=True)
        expected = [
            {"coloring": coloring_to_json(c, dset), "matrix": m.to_lists()}
            for c, m in result.entries
        ]
        assert [json.loads(line) for line in text.splitlines()] == expected
        assert expected

    def test_unknown_symmetry_rejected(self, tmp_path):
        code, _ = run(
            tmp_path, "enumerate", "--infinite", "--n", "1", "--k", "2",
            "--symmetry", "mirror",
        )
        assert code == 2

    def test_budget_exceeded_exits_two(self, tmp_path, capsys):
        args = ("enumerate", "--t", "30", "--distances", "1", "--k", "2")
        # 376 vertices colored plus 2! for each of 4 perfect partitions
        code, text = run(tmp_path, *args)
        assert code == 0 and len(text.splitlines()) == 8
        assert run(tmp_path, *args, "--budget", "384")[0] == 0
        capsys.readouterr()
        assert run(tmp_path, *args, "--budget", "100")[0] == 2
        assert "resource limit:" in capsys.readouterr().err
        for budget in ("0", "-3"):
            assert run(tmp_path, *args, "--budget", budget)[0] == 2
            assert "invalid input" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main([*args, "--budget-words", "100"])
        assert exc.value.code == 2

    def test_byte_identical_runs(self, tmp_path):
        _, a = run(tmp_path, "enumerate", "--t", "8", "--distances", "1,3", "--k", "2")
        _, b = run(tmp_path, "enumerate", "--t", "8", "--distances", "1,3", "--k", "2")
        assert a == b


class TestConstruct:
    def test_path_family(self, tmp_path):
        code, text = run(tmp_path, "construct", "--family", "path", "--k", "3")
        assert code == 0
        assert len(text.splitlines()) == 4

    def test_two_color_family(self, tmp_path, capsys):
        code, text = run(
            tmp_path, "construct", "--family", "two-color", "--n", "2", "--t", "10"
        )
        assert code == 0
        assert len(text.splitlines()) == 32
        assert capsys.readouterr().err == "monochrome-matching: 30, bipartite: 2\n"

    def test_balanced_family(self, tmp_path):
        code, text = run(tmp_path, "construct", "--family", "balanced", "--n", "2", "--k", "2")
        assert code == 0
        assert len(text.splitlines()) == 70

    def test_matched_family(self, tmp_path):
        code, text = run(
            tmp_path, "construct", "--family", "matched", "--n", "2", "--t", "6",
            "--k", "3",
        )
        assert code == 0
        assert len(text.splitlines()) == 24

    def test_budget_reaches_the_matched_drivers(self, tmp_path, capsys):
        # per-edge assignments: 1 + 1 + 2^5 + 2^5 at (2, 10, 2) and 6 at (1, 2, 2)
        two_color = ("construct", "--family", "two-color", "--n", "2", "--t", "10")
        matched = ("construct", "--family", "matched", "--n", "1", "--t", "2", "--k", "2")
        for argv, spent in ((two_color, 66), (matched, 6)):
            assert run(tmp_path, *argv, "--budget", str(spent))[0] == 0
            capsys.readouterr()
            assert run(tmp_path, *argv, "--budget", str(spent - 1))[0] == 2
            assert f"spent {spent} units" in capsys.readouterr().err


class TestInduce:
    def test_happy_path(self, tmp_path):
        code, text = run(
            tmp_path, "induce", "--distances", "1,3", "--coloring", "1,2,1,2,1,2"
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["coloring"]["kind"] == "periodic"
        assert payload["coloring"]["word"] == [1, 2]
        assert payload["matrix"] == [[0, 4], [4, 0]]

    def test_table_format(self, tmp_path):
        code, text = run(
            tmp_path, "induce", "--distances", "1,3", "--coloring", "1,2,1,1,3,3,2,1",
            "--format", "table",
        )
        assert code == 0
        assert text == "1,1,2,1,1,3,3,2  [[2, 1, 1], [2, 1, 1], [2, 1, 1]]\n"

    def test_non_perfect_exits_one(self, tmp_path):
        code, _ = run(
            tmp_path, "induce", "--distances", "1,3", "--coloring", "1,1,1,2,2,2"
        )
        assert code == 1

    def test_checks_once(self, tmp_path, monkeypatch):
        # the pullback's matrix is the finite verdict's: one check_perfect call
        from circulant_colorings import cli, verification

        calls = []
        original = verification.check_perfect

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(verification, "check_perfect", counting)
        monkeypatch.setattr(cli, "check_perfect", counting)
        for coloring, expected in (("1,2,1,1,3,3,2,1", 0), ("1,1,1,2,2,2", 1)):
            calls.clear()
            code, _ = run(tmp_path, "induce", "--distances", "1,3", "--coloring", coloring)
            assert (code, len(calls)) == (expected, 1), coloring


class TestCheck:
    def test_theorem_smallest(self, tmp_path):
        code, text = run(tmp_path, "check", "--theorem-k2", "--n", "1")
        assert code == 0
        report = json.loads(text)
        assert report["verdict"] == "confirmed"
        assert report["missing"] == []

    def test_conjecture_smallest(self, tmp_path):
        code, text = run(tmp_path, "check", "--n", "1", "--k", "3")
        assert code == 0
        assert json.loads(text)["verdict"] == "confirmed"

    def test_missing_k_is_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "check", "--n", "1")
        assert code == 2

    def test_theorem_k2_rejects_another_k(self, tmp_path):
        code, text = run(tmp_path, "check", "--theorem-k2", "--n", "1", "--k", "5")
        assert code == 2
        assert text == ""
        code, text = run(tmp_path, "check", "--theorem-k2", "--n", "1", "--k", "2")
        assert code == 0
        assert json.loads(text)["k"] == 2


class TestExportDot:
    def test_doubled_edges_rendered_twice(self, tmp_path):
        code, text = run(
            tmp_path, "export-dot", "--distances", "1,3", "--coloring", "1,2,1,1,2,1"
        )
        assert code == 0
        edge_lines = [l for l in text.splitlines() if " -- " in l]
        assert len(edge_lines) == 12
        assert edge_lines.count("  0 -- 3;") == 1 and edge_lines.count("  3 -- 0;") == 1

    def test_complete_bipartite_render(self, tmp_path):
        code, text = run(
            tmp_path, "export-dot", "--distances", "1,3",
            "--coloring", "1,1,1,1,1,1,1,1",
        )
        assert code == 0
        assert sum(" -- " in l for l in text.splitlines()) == 16

    def test_two_vertex_doubled_pair(self, tmp_path):
        code, text = run(tmp_path, "export-dot", "--distances", "1", "--coloring", "1,2")
        assert code == 0
        edge_lines = [l for l in text.splitlines() if " -- " in l]
        assert sorted(edge_lines) == ["  0 -- 1;", "  1 -- 0;"]

    def test_fill_colors_assigned(self, tmp_path):
        _, text = run(
            tmp_path, "export-dot", "--distances", "1,3", "--coloring", "1,2,1,1,2,1"
        )
        assert '0 [fillcolor="gold"];' in text
        assert '1 [fillcolor="skyblue"];' in text


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--distances", "1,3", "--coloring", "1,2", "--budget", "5"),
        ("induce", "--distances", "1,3", "--coloring", "1,2", "--budget", "5"),
        ("export-dot", "--distances", "1,3", "--coloring", "1,2", "--budget", "5"),
        ("export-dot", "--distances", "1,3", "--coloring", "1,2", "--format", "table"),
        ("check", "--n", "1", "--k", "2", "--format", "table"),
        ("verify", "--distances", "1,3", "--coloring", "1,2,1,2,1,2,1,2", "--t", "8"),
        ("verify", "--distances", "1,3", "--coloring", "1,2", "--k", "2"),
        ("induce", "--distances", "1,3", "--coloring", "1,2", "--k", "2"),
        ("export-dot", "--distances", "1,3", "--coloring", "1,2", "--k", "2"),
        ("verify", "--infinite", "--distances", "1,3", "--coloring", "1,2", "--t", "7"),
    ],
)
def test_options_a_subcommand_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--family", "path", "--t", "6"),
        ("construct", "--family", "path", "--budget", "5"),
        ("construct", "--family", "balanced", "--n", "1", "--t", "4"),
        ("construct", "--family", "two-color", "--n", "2", "--t", "10", "--k", "3"),
    ],
)
def test_options_a_construct_family_does_not_read_are_rejected(argv, capsys):
    assert main(list(argv)) == 2
    assert f"usage error: {argv[-2]} " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--t", "6", "--distances", "1,3", "--k", "2", "--n", "9"),
        ("enumerate", "--infinite", "--n", "1", "--k", "2", "--t", "99"),
        ("enumerate", "--infinite", "--n", "1", "--k", "2", "--distances", "5"),
    ],
)
def test_options_a_mode_does_not_read_are_rejected(argv, capsys):
    assert main(list(argv)) == 2
    assert f"usage error: {argv[-2]} " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--coloring", "1,2"), "--distances is required with an inline coloring"),
        (("verify", "--coloring", "missing.json"), "cannot read coloring file 'missing.json'"),
        (
            ("verify", "--distances", "1,x", "--coloring", "1,2"),
            "--distances must be a comma-separated list of integers, got '1,x'",
        ),
        (("enumerate", "--infinite", "--k", "2"), "--infinite enumeration needs --n"),
        (("enumerate", "--t", "6", "--k", "2"), "finite enumeration needs --t and --distances"),
        (("enumerate", "--distances", "1", "--k", "2"), "finite enumeration needs --t and --distances"),
        (("construct", "--family", "balanced"), "--family balanced needs --n"),
        (("construct", "--family", "matched", "--n", "1"), "--family matched needs --n and --t"),
        (("induce", "--coloring", "periodic.json"), "induce expects a finite coloring"),
        (("export-dot", "--coloring", "periodic.json"), "export-dot expects a finite coloring"),
        (("check", "--k", "2"), "check needs --n"),
        (
            ("export-dot", "--distances", "1", "--coloring", ",".join(["1"] * 513)),
            "refusing to render 513 vertices (limit 512)",
        ),
    ],
)
def test_usage_errors_exit_two(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    data = coloring_to_json(PeriodicColoring((1, 2), 2), DistanceSet((1, 3)))
    Path("periodic.json").write_text(json.dumps(data))
    assert main(list(argv)) == 2
    assert f"usage error: {message}" in capsys.readouterr().err


def readme_block(heading, language):
    """The first `language` code block under the README's `## heading`."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    section = text.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def readme_cli_examples():
    """The commands in the sh block under the README's "## Command line"."""
    block = readme_block("Command line", "sh")
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


class TestReadmeExamples:
    def test_documented_commands_exit_zero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        commands = readme_cli_examples()
        assert len(commands) >= 9
        for argv in commands:
            assert argv[0] == "circulant-colorings", argv
            assert main(argv[1:]) == 0, argv
            capsys.readouterr()

    def test_library_tour_values(self):
        # Exec the tour, then check what its comments state: a comment that is
        # a Python literal is the value of its line's expression.
        block = readme_block("Library tour", "python")
        namespace = {}
        exec(block, namespace)
        stated = []
        for line in block.splitlines():
            code, _, comment = line.partition("  # ")
            try:
                value = ast.literal_eval(comment.strip())
            except (ValueError, SyntaxError):
                continue
            stated.append((code.strip(), value))
        assert [value for _, value in stated] == [
            True, ((2, 1, 1), (2, 1, 1), (2, 1, 1)), (1, 2), "confirmed"
        ]
        for code, value in stated:
            assert eval(code, namespace) == value, code
        f, r = namespace["f"], namespace["r"]
        assert (len(f.words()), f.stats["classes_examined"]) == (70, 35)
        assert (len(r.entries), r.stats["states_followed"]) == (18, 41)
