"""``python -m repro.lint`` — the command-line front end.

Usage::

    python -m repro.lint src tests              # human output, exit 0/1
    python -m repro.lint src --format json      # stable JSON report
    python -m repro.lint --list-rules           # the rule catalogue
    python -m repro.lint --explain layering
    python -m repro.lint src --rules wall-clock-purity,no-bare-except

Exit codes: 0 clean, 1 findings, 2 usage errors.
"""

import argparse
import os
import sys

from repro.lint.engine import find_root, run_lint
from repro.lint.report import render_explain, render_human, render_json, \
    render_rule_list
from repro.lint.rule import all_rules, get_rule, rule_ids


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST invariant linter for the sim-deterministic data path",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="report format (json is byte-stable for identical trees)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="ID[,ID...]",
        help="run only these rule ids (default: all registered rules)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--explain", default=None, metavar="RULE_ID",
        help="print one rule's rationale and a violating example, then exit",
    )
    return parser


def _rule(rule_id, parser):
    try:
        return get_rule(rule_id)
    except KeyError:
        parser.error(
            "unknown rule id %r (known: %s)" % (rule_id, ", ".join(rule_ids()))
        )


def main(argv=None, stdout=None):
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        stdout.write(render_rule_list(all_rules()))
        return 0

    if options.explain is not None:
        stdout.write(render_explain(_rule(options.explain, parser)))
        return 0

    paths = options.paths or ["src", "tests"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        parser.error("no such path: %s" % ", ".join(missing))

    rules = None
    if options.rules is not None:
        rules = [_rule(rule_id.strip(), parser)
                 for rule_id in options.rules.split(",") if rule_id.strip()]
    result = run_lint(paths, root=find_root(paths[0]), rules=rules)
    render = render_json if options.format == "json" else render_human
    stdout.write(render(result))
    return result.exit_code()
