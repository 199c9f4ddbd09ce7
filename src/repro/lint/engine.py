"""The lint engine: file discovery, parsing, and the rule-driving loop.

One :class:`FileContext` is built per file (source, AST, pragmas,
repo-relative path) and handed to every applicable rule. Findings come
back sorted, pragma suppression applied, ready for the reporters.

Directory walks skip ``__pycache__``, hidden directories, and any
directory named ``fixtures`` — the lint test suite keeps deliberately
broken snippets under ``tests/lint/fixtures/`` and lints them by naming
them explicitly, which always wins over the walk-time skip.
"""

import ast
import os

from repro.lint import pragma as pragma_mod
from repro.lint.astutil import ImportMap
from repro.lint.rule import Finding, all_rules, rule_ids

SKIP_DIR_NAMES = {"__pycache__", "fixtures", "build", "dist"}


class FileContext:
    """Everything a rule needs to know about one source file."""

    def __init__(self, path, rel_path, source, tree):
        self.path = path
        self.rel_path = rel_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.pragmas, self.malformed_pragmas = pragma_mod.parse_pragmas(
            self.lines
        )
        self._imports = None

    @property
    def imports(self):
        if self._imports is None:
            self._imports = ImportMap(self.tree)
        return self._imports

    # -- path predicates the rules scope themselves with ----------------

    @property
    def parts(self):
        return tuple(self.rel_path.split("/"))

    @property
    def in_src(self):
        """Under the shipped package (src/repro/...)."""
        return self.parts[:2] == ("src", "repro")

    def snippet(self, line):
        """The stripped source line (1-based), for reports."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


def _rel_path(path, root):
    rel = os.path.relpath(os.path.abspath(path), root)
    return rel.replace(os.sep, "/")


def find_root(start=None):
    """The repo root: nearest ancestor with a pyproject.toml (else cwd)."""
    probe = os.path.abspath(start or os.getcwd())
    while True:
        if os.path.exists(os.path.join(probe, "pyproject.toml")):
            return probe
        parent = os.path.dirname(probe)
        if parent == probe:
            return os.path.abspath(start or os.getcwd())
        probe = parent


def iter_python_files(paths, root=None):
    """Expand ``paths`` (files or directories) into sorted .py files.

    Explicitly named files are always included — even inside a
    ``fixtures`` directory; walks skip :data:`SKIP_DIR_NAMES` and
    hidden directories.
    """
    root = root or find_root()
    seen = set()
    ordered = []

    def add(path):
        absolute = os.path.abspath(path)
        if absolute not in seen:
            seen.add(absolute)
            ordered.append(absolute)

    for path in paths:
        if os.path.isfile(path):
            add(path)
            continue
        collected = []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                name for name in dirnames
                if name not in SKIP_DIR_NAMES and not name.startswith(".")
            )
            for filename in filenames:
                if filename.endswith(".py"):
                    collected.append(os.path.join(dirpath, filename))
        for file_path in sorted(collected, key=lambda p: _rel_path(p, root)):
            add(file_path)
    return ordered


class LintResult:
    """The outcome of one lint run."""

    def __init__(self, findings, suppressed_count, checked_files):
        #: Findings surviving pragmas, sorted.
        self.findings = findings
        self.suppressed_count = suppressed_count
        self.checked_files = checked_files

    @property
    def ok(self):
        return not self.findings

    def exit_code(self):
        return 0 if self.ok else 1


def known_pragma_ids():
    """Every rule id a pragma may legitimately name."""
    return frozenset(rule_ids()) | {"parse-error", "bad-pragma",
                                    "unknown-pragma-rule"}


def lint_file(path, root=None, rules=None):
    """Lint one file; returns (findings, suppressed).

    A file that fails to parse yields a single ``parse-error`` finding:
    syntactically broken source can't be vouched for. Malformed pragmas
    and pragmas naming unknown rule ids are findings regardless of
    which rules were selected — a pragma that could never suppress
    anything is drift, not a suppression.
    """
    root = root or find_root()
    rules = rules if rules is not None else all_rules()
    rel = _rel_path(path, root)
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        return [Finding(path=rel, line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1, rule="parse-error",
                        message="file does not parse: %s" % exc.msg)], 0
    ctx = FileContext(path, rel, source, tree)
    raw = []
    for rule in rules:
        if rule.applies_to(ctx):
            raw.extend(rule.check(ctx))
    raw.extend(pragma_mod.malformed_findings(ctx, ctx.malformed_pragmas))
    raw.extend(pragma_mod.unknown_rule_findings(ctx, known_pragma_ids()))
    findings = [f for f in raw if not pragma_mod.suppressed(ctx.pragmas, f)]
    return findings, len(raw) - len(findings)


def run_lint(paths, root=None, rules=None):
    """Lint ``paths`` with ``rules`` (default: all); a :class:`LintResult`."""
    root = root or find_root()
    rules = rules if rules is not None else all_rules()
    files = iter_python_files(paths, root=root)
    findings = []
    suppressed = 0
    for path in files:
        file_findings, file_suppressed = lint_file(path, root=root,
                                                   rules=rules)
        findings.extend(file_findings)
        suppressed += file_suppressed
    findings.sort()
    return LintResult(findings, suppressed, len(files))
