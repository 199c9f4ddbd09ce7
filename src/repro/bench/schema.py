"""Schema-versioned benchmark records: metrics, shapes, validation.

Every orchestrated benchmark returns a list of :class:`Metric` rows;
the runner wraps them into a per-group document written to the repo
root (``BENCH_paper_shapes.json`` and friends). One record per metric,
carrying the measured value, its unit, the paper's expected *shape*
(direction / factor / band), and a computed pass/fail — so a JSON file
is self-describing: a reader needs no other context to see whether the
reproduction still holds the paper's claims.

Shapes are deliberately coarse. The reproduction target is never a
point value (the substrate is a miniature simulation) but a direction
("flash wins latency by at least 3x"), a band ("RDBMS reduction lands
in 2-9x"), or an exact invariant ("zero application-visible errors").

``validate_document`` is a dependency-free structural validator used
both by the test suite and by ``--check`` before trusting a baseline.
"""

SCHEMA_VERSION = 2

#: Groups map one-to-one onto the repo-root artifact files.
GROUPS = ("paper_shapes", "chaos", "cluster", "service")

SHAPE_KINDS = ("min", "max", "band", "equal")


def shape_min(expect, paper=None):
    """Pass when ``value >= expect`` (e.g. a speedup factor floor)."""
    shape = {"kind": "min", "expect": expect}
    if paper is not None:
        shape["paper"] = paper
    return shape


def shape_max(expect, paper=None):
    """Pass when ``value <= expect`` (e.g. a bounded amplification)."""
    shape = {"kind": "max", "expect": expect}
    if paper is not None:
        shape["paper"] = paper
    return shape


def shape_band(lo, hi, paper=None):
    """Pass when ``lo <= value <= hi`` (a class-of-magnitude check)."""
    shape = {"kind": "band", "lo": lo, "hi": hi}
    if paper is not None:
        shape["paper"] = paper
    return shape


def shape_equal(expect, paper=None):
    """Pass when ``value == expect`` (exact invariants and booleans)."""
    shape = {"kind": "equal", "expect": expect}
    if paper is not None:
        shape["paper"] = paper
    return shape


def evaluate_shape(shape, value):
    """Whether ``value`` satisfies ``shape``; None shape always passes."""
    if shape is None:
        return True
    kind = shape["kind"]
    if kind == "min":
        return value >= shape["expect"]
    if kind == "max":
        return value <= shape["expect"]
    if kind == "band":
        return shape["lo"] <= value <= shape["hi"]
    if kind == "equal":
        return value == shape["expect"]
    raise ValueError("unknown shape kind: %r" % (kind,))


def describe_shape(shape):
    """Compact human rendering of a shape, for tables and reports."""
    if shape is None:
        return "(informational)"
    kind = shape["kind"]
    if kind == "min":
        return ">= %s" % _compact(shape["expect"])
    if kind == "max":
        return "<= %s" % _compact(shape["expect"])
    if kind == "band":
        return "%s..%s" % (_compact(shape["lo"]), _compact(shape["hi"]))
    if kind == "equal":
        return "== %s" % _compact(shape["expect"])
    return "?"


def _compact(value):
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def round_value(value):
    """Deterministic rounding for emitted values.

    Floats are cut to 6 significant digits so files stay tidy and
    baseline diffs readable; ints and bools pass through untouched
    (bools become 0/1 so every value is a JSON number).
    """
    if isinstance(value, bool):
        return 1 if value else 0
    if isinstance(value, float):
        rounded = float("%.6g" % value)
        return int(rounded) if rounded.is_integer() else rounded
    return value


class Metric:
    """One measured quantity plus the paper shape it must satisfy."""

    __slots__ = ("name", "value", "unit", "shape")

    def __init__(self, name, value, unit, shape=None):
        self.name = name
        self.value = round_value(value)
        self.unit = unit
        self.shape = shape

    @property
    def passed(self):
        return evaluate_shape(self.shape, self.value)

    def record(self):
        record = {
            "metric": self.name,
            "value": self.value,
            "unit": self.unit,
            "passed": self.passed,
        }
        if self.shape is not None:
            record["shape"] = self.shape
        return record


def bench_record(spec, metrics, obs_stages=None):
    """The per-bench JSON object inside a group document."""
    record = {
        "bench": spec.name,
        "title": spec.title,
        "source": spec.source,
        "seeds": spec.seeds,
        "metrics": [metric.record() for metric in metrics],
        "passed": all(metric.passed for metric in metrics),
    }
    if obs_stages:
        record["obs_stages"] = obs_stages
    return record


def group_document(group, bench_records, root_seed):
    """The whole-file JSON document for one benchmark group."""
    ordered = sorted(bench_records, key=lambda record: record["bench"])
    return {
        "schema_version": SCHEMA_VERSION,
        "group": group,
        "root_seed": root_seed,
        "benches": ordered,
        "passed": all(record["passed"] for record in ordered),
    }


class SchemaError(ValueError):
    """A document does not conform to the benchmark schema."""


def _require(condition, message):
    if not condition:
        raise SchemaError(message)


def validate_metric(record, where):
    _require(isinstance(record, dict), "%s: metric must be an object" % where)
    for field in ("metric", "value", "unit", "passed"):
        _require(field in record, "%s: missing field %r" % (where, field))
    _require(isinstance(record["metric"], str) and record["metric"],
             "%s: metric name must be a non-empty string" % where)
    _require(isinstance(record["value"], (int, float))
             and not isinstance(record["value"], bool),
             "%s: value must be a JSON number" % where)
    _require(isinstance(record["unit"], str),
             "%s: unit must be a string" % where)
    _require(isinstance(record["passed"], bool),
             "%s: passed must be a bool" % where)
    shape = record.get("shape")
    if shape is not None:
        _require(isinstance(shape, dict) and shape.get("kind") in SHAPE_KINDS,
                 "%s: shape.kind must be one of %s" % (where, (SHAPE_KINDS,)))
        if shape["kind"] == "band":
            _require("lo" in shape and "hi" in shape,
                     "%s: band shape needs lo and hi" % where)
        else:
            _require("expect" in shape,
                     "%s: %s shape needs expect" % (where, shape["kind"]))
        _require(record["passed"] == evaluate_shape(shape, record["value"]),
                 "%s: stored passed flag disagrees with shape" % where)


def validate_document(document):
    """Structural validation of one BENCH_*.json document.

    Raises :class:`SchemaError` with a path-qualified message on the
    first violation; returns the document unchanged when valid.
    """
    _require(isinstance(document, dict), "document must be an object")
    _require(document.get("schema_version") == SCHEMA_VERSION,
             "schema_version must be %d" % SCHEMA_VERSION)
    _require(document.get("group") in GROUPS,
             "group must be one of %s" % (GROUPS,))
    _require(isinstance(document.get("root_seed"), int),
             "root_seed must be an int")
    benches = document.get("benches")
    _require(isinstance(benches, list) and benches,
             "benches must be a non-empty list")
    seen = set()
    previous = None
    for index, bench in enumerate(benches):
        where = "benches[%d]" % index
        _require(isinstance(bench, dict), "%s: must be an object" % where)
        for field in ("bench", "title", "source", "seeds", "metrics",
                      "passed"):
            _require(field in bench, "%s: missing field %r" % (where, field))
        name = bench["bench"]
        _require(isinstance(name, str) and name,
                 "%s: bench name must be a non-empty string" % where)
        _require(name not in seen, "%s: duplicate bench %r" % (where, name))
        seen.add(name)
        _require(previous is None or previous < name,
                 "%s: benches must be sorted by name" % where)
        previous = name
        _require(isinstance(bench["seeds"], dict),
                 "%s: seeds must be an object" % where)
        metrics = bench["metrics"]
        _require(isinstance(metrics, list) and metrics,
                 "%s: metrics must be a non-empty list" % where)
        metric_names = set()
        for metric_index, metric in enumerate(metrics):
            metric_where = "%s.metrics[%d]" % (where, metric_index)
            validate_metric(metric, metric_where)
            _require(metric["metric"] not in metric_names,
                     "%s: duplicate metric %r" % (metric_where,
                                                  metric["metric"]))
            metric_names.add(metric["metric"])
        _require(bench["passed"] == all(m["passed"] for m in metrics),
                 "%s: stored passed flag disagrees with metrics" % where)
    _require(document["passed"] == all(b["passed"] for b in benches),
             "document passed flag disagrees with benches")
    return document
