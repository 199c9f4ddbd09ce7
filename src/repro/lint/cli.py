"""``python -m repro.lint`` — the command-line front end.

Usage::

    python -m repro.lint src tests              # human output, exit 0/1
    python -m repro.lint src --format json      # stable JSON report
    python -m repro.lint --list-rules           # the rule catalogue
    python -m repro.lint --explain cross-domain-shared-state
    python -m repro.lint src --rules wall-clock-purity,no-bare-except
    python -m repro.lint src --write-baseline   # freeze current findings

The baseline defaults to ``lint-baseline.json`` at the repo root when
that file exists; pass ``--baseline PATH`` to point elsewhere or
``--no-baseline`` to ignore it. The whole-program pass keeps an
incremental summary cache at ``<root>/.lint-cache.json`` (``--cache
PATH`` to relocate, ``--no-cache`` to build cold). Exit codes: 0
clean, 1 error findings, 2 usage errors. Advice-severity findings
never affect the exit code.
"""

import argparse
import os
import sys

from repro.lint.baseline import empty_baseline, load_baseline, \
    write_baseline
from repro.lint.engine import find_root, run_lint
from repro.lint.report import render_explain, render_human, render_json, \
    render_rule_list
from repro.lint.rule import all_rules, rule_ids


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
        "--baseline", default=None, metavar="PATH",
        help="baseline file (default: <root>/lint-baseline.json if present)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="freeze current error findings into the baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--explain", default=None, metavar="RULE_ID",
        help="print one rule's rationale and a violating example, then exit",
    )
    parser.add_argument(
        "--cache", default=None, metavar="PATH",
        help="incremental analysis cache file "
             "(default: <root>/.lint-cache.json)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="build the whole-program graph cold (no cache read/write)",
    )
    return parser


def select_rules(spec, parser):
    if spec is None:
        return all_rules()
    from repro.lint.rule import get_rule

    selected = []
    for rule_id in spec.split(","):
        rule_id = rule_id.strip()
        if not rule_id:
            continue
        try:
            selected.append(get_rule(rule_id))
        except KeyError:
            parser.error(
                "unknown rule id %r (known: %s)"
                % (rule_id, ", ".join(rule_ids()))
            )
    return selected


def main(argv=None, stdout=None):
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        stdout.write(render_rule_list(all_rules()))
        return 0

    if options.explain is not None:
        from repro.lint.rule import get_rule

        try:
            rule = get_rule(options.explain)
        except KeyError:
            parser.error(
                "unknown rule id %r (known: %s)"
                % (options.explain, ", ".join(rule_ids()))
            )
        stdout.write(render_explain(rule))
        return 0

    paths = options.paths or ["src", "tests"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        parser.error("no such path: %s" % ", ".join(missing))

    root = find_root(paths[0])
    rules = select_rules(options.rules, parser)
    cache_path = None
    if not options.no_cache:
        cache_path = options.cache or os.path.join(root, ".lint-cache.json")

    baseline_path = options.baseline
    if baseline_path is None and not options.no_baseline:
        default = os.path.join(root, "lint-baseline.json")
        if os.path.exists(default):
            baseline_path = default
    baseline = None
    if baseline_path is not None and not options.no_baseline \
            and not options.write_baseline:
        baseline = load_baseline(baseline_path)

    if options.write_baseline:
        # Run the full pipeline (file AND project rules, post-pragma)
        # with no grandfathering, then freeze what survives.
        result = run_lint(paths, root=root, rules=rules,
                          baseline=empty_baseline(), cache_path=cache_path)
        target = baseline_path or os.path.join(root, "lint-baseline.json")
        count = write_baseline(target, result.findings)
        stdout.write("baseline: %d finding(s) written to %s\n" % (count, target))
        return 0

    result = run_lint(paths, root=root, rules=rules, baseline=baseline,
                      cache_path=cache_path)
    if options.format == "json":
        stdout.write(render_json(result))
    else:
        stdout.write(render_human(result))
    return result.exit_code()
