"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestStudyCommands:
    def test_study1(self, capsys):
        code, out = run_cli(capsys, "study1", "--procedures", "120")
        assert code == 0
        assert "upper GI endoscopy" in out

    def test_study2_all_definitions(self, capsys):
        code, out = run_cli(capsys, "study2", "--procedures", "120")
        assert code == 0
        assert "quit 1y" in out and "quit ever" in out

    def test_study2_single_definition(self, capsys):
        code, out = run_cli(
            capsys, "study2", "--procedures", "120", "--definition", "10y"
        )
        assert code == 0
        assert "quit 10y" in out
        assert "quit ever" not in out


class TestReportCommands:
    def test_precision_recall(self, capsys):
        code, out = run_cli(capsys, "precision-recall", "--procedures", "120")
        assert code == 0
        assert "guava+multiclass" in out
        assert "context-blind" in out

    def test_patterns(self, capsys):
        code, out = run_cli(capsys, "patterns")
        assert code == 0
        for name in ("naive", "merge", "split", "generic", "audit", "blob"):
            assert name in out

    def test_export_classifiers_reimportable(self, capsys):
        from repro.multiclass import Registry

        code, out = run_cli(capsys, "export-classifiers")
        assert code == 0
        registry = Registry()
        counts = registry.import_text(out)
        assert counts["classifiers"] > 40
        assert counts["entity_classifiers"] == 3

    def test_lint(self, capsys):
        code, out = run_cli(capsys, "lint", "--procedures", "60")
        assert code == 0
        assert "medscribe_clinic:" in out
        assert "unclassified when" in out

    def test_gtree(self, capsys):
        code, out = run_cli(capsys, "gtree", "medscribe", "--procedures", "60")
        assert code == 0
        assert "Has the patient EVER smoked?" in out

    def test_gtree_named_form(self, capsys):
        code, out = run_cli(
            capsys, "gtree", "cori", "--form", "medication", "--procedures", "60"
        )
        assert code == 0
        assert "drug" in out


class TestArgHandling:
    def test_no_command_prints_help(self, capsys):
        code = main([])
        assert code == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_seed_changes_world(self, capsys):
        _, first = run_cli(capsys, "study1", "--procedures", "120", "--seed", "1")
        _, second = run_cli(capsys, "study1", "--procedures", "120", "--seed", "2")
        assert first != second


class TestTraceCommand:
    ROOTS = {"query": ("optimize", "execute:"), "workflow": ("workflow:",)}

    @pytest.mark.parametrize("target", ["query", "workflow"])
    def test_json_roots(self, capsys, tmp_path, target):
        path = tmp_path / "trace.json"
        code, out = run_cli(
            capsys, "trace", target, "--procedures", "60", "--json", str(path)
        )
        assert code == 0 and out
        roots = [span["name"] for span in json.loads(path.read_text())["spans"]]
        assert roots
        assert all(name.startswith(self.ROOTS[target]) for name in roots)
        if target == "query":
            assert roots[0] == "optimize"
            assert any(name.startswith("execute:") for name in roots)

    @pytest.mark.parametrize("target", ["query", "workflow"])
    def test_flame_lines(self, capsys, target):
        code, out = run_cli(capsys, "trace", target, "--procedures", "60", "--flame")
        assert code == 0
        lines = out.splitlines()
        assert lines
        for line in lines:
            stack, micros = line.rsplit(" ", 1)
            assert micros.isdigit(), line
            assert stack.split(";")[0].startswith(self.ROOTS[target]), line


class TestStorageCommand:
    @pytest.mark.parametrize("action", ["recover", "verify", "snapshot"])
    def test_a_missing_directory_is_refused_and_not_created(
        self, capsys, tmp_path, action
    ):
        missing = tmp_path / "no" / "store"
        assert main(["storage", action, "--dir", str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("recovery failed: ")
        assert not missing.exists() and not missing.parent.exists()
