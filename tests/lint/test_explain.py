"""--explain output and the rationale/example contract for every rule."""

import io

import pytest

from repro.lint import all_rules
from repro.lint.cli import main


def explain(rule_id):
    out = io.StringIO()
    code = main(["--explain", rule_id], stdout=out)
    return code, out.getvalue()


def test_explain_known_rule():
    code, text = explain("layering")
    assert code == 0
    assert "layering" in text
    assert "Why:" in text
    assert "Example (violates the rule):" in text
    assert "Suppress with:" in text
    assert "allow[layering]" in text


def test_explain_unknown_rule_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--explain", "no-such-rule"])
    assert excinfo.value.code == 2
    assert "no-such-rule" in capsys.readouterr().err


def test_every_rule_documents_rationale_and_example():
    for rule in all_rules():
        assert rule.rationale.strip(), rule.id
        assert rule.example.strip(), rule.id
        code, text = explain(rule.id)
        assert code == 0
        assert rule.id in text
