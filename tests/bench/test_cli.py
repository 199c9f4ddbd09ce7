"""End-to-end orchestrator runs through the real CLI entry point.

These spin actual (cheap, quick-subset) benches, so they double as the
fast lane's smoke test of the registry -> runner -> artifact -> gate
chain: byte-identical same-seed runs, a passing --check against a
fresh baseline, and a failing --check against a perturbed one.
"""

import json
import os

import pytest

from repro.bench import cli

#: Two sub-second, fully deterministic paper_shapes benches.
CHEAP = ["--only", "raid_ablation", "--only", "elision_vs_tombstone"]


def _run(argv):
    return cli.main(argv)


def test_list_shows_the_registry(capsys):
    assert _run(["--list"]) == 0
    out = capsys.readouterr().out
    assert "raid_ablation" in out and "service" in out
    assert "[quick]" in out
    assert len(out.strip().splitlines()) == 22


def test_no_selection_runs_nothing(tmp_path, capsys):
    assert _run(["--out-dir", str(tmp_path)]) == 0
    assert list(tmp_path.iterdir()) == []


def test_unknown_bench_name_is_rejected():
    with pytest.raises(SystemExit, match="unknown bench name"):
        _run(["--only", "bench_that_never_was"])


def test_same_seed_runs_are_byte_identical(tmp_path, capsys):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert _run(CHEAP + ["--out-dir", str(dir_a)]) == 0
    assert _run(CHEAP + ["--out-dir", str(dir_b)]) == 0
    payload_a = (dir_a / "BENCH_paper_shapes.json").read_bytes()
    payload_b = (dir_b / "BENCH_paper_shapes.json").read_bytes()
    assert payload_a == payload_b
    document = json.loads(payload_a)
    assert document["passed"] is True
    assert [b["bench"] for b in document["benches"]] == \
        ["elision_vs_tombstone", "raid_ablation"]


def test_check_passes_against_fresh_baseline_and_fails_after_injection(
        tmp_path, capsys):
    baseline_path = tmp_path / "bench-baseline.json"
    assert _run(CHEAP + ["--out-dir", str(tmp_path),
                         "--baseline", str(baseline_path),
                         "--write-baseline"]) == 0
    assert _run(CHEAP + ["--out-dir", str(tmp_path / "recheck"),
                         "--baseline", str(baseline_path),
                         "--check"]) == 0
    assert "--check: ok" in capsys.readouterr().out

    # Inject a regression: pretend the baseline expected 10x the value.
    baseline = json.loads(baseline_path.read_text())
    key = sorted(k for k in baseline["metrics"]
                 if baseline["metrics"][k]["value"])[0]
    baseline["metrics"][key]["value"] *= 10
    baseline_path.write_text(json.dumps(baseline))
    assert _run(CHEAP + ["--out-dir", str(tmp_path / "regressed"),
                         "--baseline", str(baseline_path),
                         "--check"]) == 1
    out = capsys.readouterr().out
    assert "FAIL [regression] %s" % key in out


def test_check_without_out_dir_leaves_the_committed_documents_alone(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run(CHEAP + ["--write-baseline"]) == 0  # refreshes ./BENCH_*
    committed = tmp_path / "BENCH_paper_shapes.json"
    fresh = committed.read_bytes()
    committed.write_bytes(b"the committed document")
    assert _run(CHEAP + ["--check"]) == 0
    assert committed.read_bytes() == b"the committed document"
    assert (tmp_path / cli.CHECK_OUT_DIR
            / "BENCH_paper_shapes.json").read_bytes() == fresh


def test_check_flags_missing_metric_for_a_bench_that_ran(tmp_path, capsys):
    baseline_path = tmp_path / "bench-baseline.json"
    assert _run(["--only", "raid_ablation", "--out-dir", str(tmp_path),
                 "--baseline", str(baseline_path),
                 "--write-baseline"]) == 0
    baseline = json.loads(baseline_path.read_text())
    baseline["metrics"]["raid_ablation.vanished_metric"] = {
        "value": 1.0, "unit": "x"}
    baseline_path.write_text(json.dumps(baseline))
    assert _run(["--only", "raid_ablation",
                 "--out-dir", str(tmp_path / "again"),
                 "--baseline", str(baseline_path), "--check"]) == 1
    assert "missing" in capsys.readouterr().out


def test_docs_cycle_regenerates_then_reports_clean(tmp_path, capsys):
    assert _run(CHEAP + ["--out-dir", str(tmp_path)]) == 0
    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text("prose\n\n<!-- bench:raid_ablation -->\nstale\n"
                   "<!-- /bench:raid_ablation -->\n")
    assert _run(["--docs", "--out-dir", str(tmp_path),
                 "--experiments", str(doc)]) == 0
    assert "regenerated" in capsys.readouterr().out
    assert "stale" not in doc.read_text()
    assert _run(["--check-docs", "--out-dir", str(tmp_path),
                 "--experiments", str(doc)]) == 0
    assert "matches the committed data" in capsys.readouterr().out
    # Drift the doc by hand: --check-docs must fail and name the bench.
    doc.write_text(doc.read_text().replace("| yes |", "| no |", 1))
    assert _run(["--check-docs", "--out-dir", str(tmp_path),
                 "--experiments", str(doc)]) == 1
    assert "raid_ablation" in capsys.readouterr().out


def test_docs_without_artifacts_is_a_clear_error(tmp_path):
    with pytest.raises(SystemExit, match="no committed BENCH_"):
        _run(["--docs", "--out-dir", str(tmp_path / "empty"),
              "--experiments", str(tmp_path / "EXPERIMENTS.md")])


def test_committed_experiments_doc_matches_committed_data():
    """The repo's own EXPERIMENTS.md must be current — the CI drift gate."""
    repo_root = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", ".."))
    cwd = os.getcwd()
    os.chdir(repo_root)
    try:
        assert _run(["--check-docs"]) == 0
    finally:
        os.chdir(cwd)
