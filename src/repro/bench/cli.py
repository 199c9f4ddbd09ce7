"""``python -m repro.bench``: the unified benchmark orchestrator.

One entry point for the whole suite:

* ``--all`` (or ``--group``/``--only``/``--quick`` subsets) runs the
  registered benches under their pinned seeds and writes the
  schema-versioned ``BENCH_*.json`` artifacts to the repo root;
* ``--check`` additionally compares the fresh results against the
  committed ``bench-baseline.json`` and exits nonzero on paper-shape
  breaks or out-of-tolerance regressions — the CI perf gate. A check
  is read-only: unless ``--out-dir`` says otherwise its fresh JSON
  lands in ``bench-artifacts/``, not over the committed files;
* ``--write-baseline`` adopts the fresh results as the new baseline;
* ``--docs`` regenerates the marked tables in EXPERIMENTS.md from the
  *committed* JSON; ``--check-docs`` fails if doc and data drifted;
* ``--list`` shows the registry without running anything.
"""

import argparse
import sys

from repro.bench import baseline as baseline_mod
from repro.bench import docs as docs_mod
from repro.bench.registry import REGISTRY, discover
from repro.bench.runner import (
    load_committed_documents,
    run_specs,
    summary_lines,
    write_documents,
)
from repro.bench.schema import validate_document

EXPERIMENTS_FILENAME = "EXPERIMENTS.md"
#: Where a ``--check`` run's fresh documents go by default (gitignored).
CHECK_OUT_DIR = "bench-artifacts"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description=__doc__.split("\n\n")[0],
    )
    select = parser.add_argument_group("bench selection")
    select.add_argument("--all", action="store_true",
                        help="run every registered bench")
    select.add_argument("--group", action="append",
                        choices=("paper_shapes", "hotpath", "chaos",
                                 "cluster", "service"),
                        help="run one group (repeatable)")
    select.add_argument("--only", action="append", metavar="NAME",
                        help="run the named bench (repeatable)")
    select.add_argument("--quick", action="store_true",
                        help="trim to the quick subset (the CI gate)")
    parser.add_argument("--list", action="store_true",
                        help="list registered benches and exit")
    parser.add_argument("--out-dir", default=None, metavar="DIR",
                        help="where BENCH_*.json land (default: repo root; "
                             "%s/ with --check, which leaves the committed "
                             "files alone)" % CHECK_OUT_DIR)
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock stage timings in the JSON "
                             "(breaks byte-for-byte determinism)")
    gate = parser.add_argument_group("regression gate")
    gate.add_argument("--check", action="store_true",
                      help="compare fresh results against the baseline; "
                           "exit 1 on shape breaks or regressions")
    gate.add_argument("--baseline", default=baseline_mod.BASELINE_FILENAME,
                      metavar="PATH", help="baseline file for --check / "
                                           "--write-baseline")
    gate.add_argument("--max-regression", type=float, default=None,
                      metavar="PCT", help="cap every tolerance band at PCT "
                                          "percent for this check")
    gate.add_argument("--write-baseline", action="store_true",
                      help="adopt the fresh results as the new baseline")
    doc = parser.add_argument_group("documentation")
    doc.add_argument("--docs", action="store_true",
                     help="regenerate EXPERIMENTS.md tables from the "
                          "committed BENCH_*.json")
    doc.add_argument("--check-docs", action="store_true",
                     help="fail if EXPERIMENTS.md drifted from the "
                          "committed BENCH_*.json")
    doc.add_argument("--experiments", default=EXPERIMENTS_FILENAME,
                     metavar="PATH", help="path of the experiments doc")
    return parser


def select_specs(options, registry):
    names = set(options.only) if options.only else None
    if names is not None:
        unknown = names - set(registry.names())
        if unknown:
            raise SystemExit("unknown bench name(s): %s (try --list)"
                             % ", ".join(sorted(unknown)))
    wants_run = (options.all or options.group or names is not None
                 or options.quick or options.check
                 or options.write_baseline)
    if not wants_run:
        return []
    return registry.specs(group=options.group, quick_only=options.quick,
                          names=names)


def main(argv=None):
    options = build_parser().parse_args(argv)
    doc_only = (options.docs or options.check_docs) and not (
        options.all or options.group or options.only or options.quick
        or options.check or options.write_baseline or options.list)
    registry = REGISTRY if doc_only else discover()

    if options.list:
        for name in registry.names():
            spec = registry.get(name)
            print("%-34s group=%-12s %s%s" % (
                spec.name, spec.group, spec.title,
                "  [quick]" if spec.quick else ""))
        return 0

    exit_code = 0
    specs = select_specs(options, registry)
    documents = {}
    if specs:
        def progress(spec):
            print("running %s ..." % spec.name, flush=True)

        documents = run_specs(specs, include_timings=options.timings,
                              progress=progress)
        for document in documents.values():
            validate_document(document)
        paths = write_documents(
            documents,
            options.out_dir or (CHECK_OUT_DIR if options.check else "."),
        )
        for line in summary_lines(documents):
            print(line)
        for path in paths:
            print("wrote %s" % path)

    if options.write_baseline:
        baseline = baseline_mod.baseline_from_documents(documents)
        path = baseline_mod.write_baseline(baseline, options.baseline)
        print("wrote %s (%d metrics)" % (path, len(baseline["metrics"])))

    if options.check:
        baseline = baseline_mod.load_baseline(options.baseline)
        deviations = baseline_mod.compare(
            documents, baseline, max_regression_pct=options.max_regression)
        for deviation in deviations:
            print(deviation.render())
        fatal = baseline_mod.fatal_deviations(deviations)
        if fatal:
            print("--check: %d failure(s) against %s"
                  % (len(fatal), options.baseline))
            exit_code = 1
        else:
            print("--check: ok (%d metrics within tolerance)"
                  % len(baseline.get("metrics", {})))

    if options.docs or options.check_docs:
        committed_dir = options.out_dir or "."
        committed = load_committed_documents(committed_dir)
        if not committed:
            raise SystemExit("no committed BENCH_*.json found under %r"
                             % committed_dir)
        for document in committed.values():
            validate_document(document)
        if options.docs:
            changed = docs_mod.regenerate_file(options.experiments, committed)
            print("%s: %s" % (options.experiments,
                              "regenerated" if changed else "already current"))
        if options.check_docs:
            drifted = docs_mod.check_file(options.experiments, committed)
            if drifted:
                print("%s drifted from committed data in: %s"
                      % (options.experiments, ", ".join(drifted)))
                print("re-run: python -m repro.bench --docs")
                exit_code = 1
            else:
                print("%s matches the committed data" % options.experiments)

    return exit_code


if __name__ == "__main__":
    sys.exit(main())
