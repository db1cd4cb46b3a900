"""Command-line behavior: payloads, exit codes, determinism."""

import json

import pytest

from circulant_colorings import DistanceSet, FiniteColoring, coloring_to_json
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
            tmp_path, "verify", "--distances", "1,3", "--t", "8",
            "--coloring", "1,2,1,1,3,3,2,1",
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

    def test_infinite_word(self, tmp_path):
        code, text = run(
            tmp_path, "verify", "--infinite", "--distances", "1,3",
            "--coloring", "1,2,3,4,5,6,7",
        )
        assert code == 0
        assert json.loads(text)["perfect"] is True

    def test_length_mismatch_is_usage_error(self, tmp_path):
        code, _ = run(
            tmp_path, "verify", "--distances", "1,3", "--t", "6",
            "--coloring", "1,2,1,1,3,3,2,1",
        )
        assert code == 2

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

    def test_infinite_rotation_only(self, tmp_path):
        code, text = run(
            tmp_path, "enumerate", "--infinite", "--n", "1", "--k", "2",
            "--symmetry", "rotation",
        )
        assert code == 0
        assert len(text.splitlines()) == 4

    def test_unknown_symmetry_rejected(self, tmp_path):
        code, _ = run(
            tmp_path, "enumerate", "--infinite", "--n", "1", "--k", "2",
            "--symmetry", "mirror",
        )
        assert code == 2

    def test_budget_exceeded_exits_two(self, tmp_path):
        code, _ = run(
            tmp_path, "enumerate", "--t", "30", "--distances", "1", "--k", "2",
            "--budget-words", "100",
        )
        assert code == 2

    def test_byte_identical_runs(self, tmp_path):
        _, a = run(tmp_path, "enumerate", "--t", "8", "--distances", "1,3", "--k", "2")
        _, b = run(tmp_path, "enumerate", "--t", "8", "--distances", "1,3", "--k", "2")
        assert a == b


class TestConstruct:
    def test_path_family(self, tmp_path):
        code, text = run(tmp_path, "construct", "--family", "path", "--k", "3")
        assert code == 0
        assert len(text.splitlines()) == 4

    def test_two_color_family(self, tmp_path):
        code, text = run(
            tmp_path, "construct", "--family", "two-color", "--n", "2", "--t", "10"
        )
        assert code == 0
        assert len(text.splitlines()) == 32

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

    def test_non_perfect_exits_one(self, tmp_path):
        code, _ = run(
            tmp_path, "induce", "--distances", "1,3", "--coloring", "1,1,1,2,2,2"
        )
        assert code == 1


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
