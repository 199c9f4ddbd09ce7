"""The ``python -m repro.lint`` front end."""

import io
import json

import pytest

from repro.lint.cli import main
from repro.lint.rule import rule_ids

from tests.lint.conftest import FIXTURES

EXPECTED_RULES = {
    "wall-clock-purity",
    "seeded-randomness",
    "stable-export",
    "name-registry-sync",
    "no-bare-except",
    "layering",
    "sim-clock-monotonic",
}


def build_repo(tmp_path, fixture="bare_except_violation.py",
               dest="src/repro/mod.py"):
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'fake'\n")
    target = tmp_path / dest
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text((FIXTURES / fixture).read_text())
    return target


def run_cli(argv):
    stdout = io.StringIO()
    code = main(argv, stdout=stdout)
    return code, stdout.getvalue()


def test_registry_ships_all_seven_rules():
    assert EXPECTED_RULES <= set(rule_ids())


def test_list_rules():
    code, out = run_cli(["--list-rules"])
    assert code == 0
    for rule_id in EXPECTED_RULES:
        assert rule_id in out


def test_violations_exit_nonzero_with_location_and_hint(tmp_path, monkeypatch):
    build_repo(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(["src"])
    assert code == 1
    assert "src/repro/mod.py:7" in out          # path:line
    assert "[no-bare-except]" in out            # rule id
    assert "# lint: allow[no-bare-except] <reason>" in out  # pragma hint


def test_clean_tree_exits_zero(tmp_path, monkeypatch):
    build_repo(tmp_path, fixture="bare_except_clean.py")
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(["src"])
    assert code == 0
    assert "0 error(s)" in out


def test_json_report_is_byte_identical_across_runs(tmp_path, monkeypatch):
    build_repo(tmp_path)
    monkeypatch.chdir(tmp_path)
    code_a, out_a = run_cli(["src", "--format", "json"])
    code_b, out_b = run_cli(["src", "--format", "json"])
    assert code_a == code_b == 1
    assert out_a == out_b
    report = json.loads(out_a)
    assert report["errors"] == 2 and report["ok"] is False
    assert report["findings"][0]["rule"] == "no-bare-except"


def test_rule_selection(tmp_path, monkeypatch):
    build_repo(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(["src", "--rules", "wall-clock-purity"])
    assert code == 0  # the bare-except fixture is clean under that rule


def test_unknown_rule_is_a_usage_error(tmp_path, monkeypatch):
    build_repo(tmp_path)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["src", "--rules", "does-not-exist"])
    assert excinfo.value.code == 2


def test_missing_path_is_a_usage_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'fake'\n")
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["no-such-dir"])
    assert excinfo.value.code == 2
