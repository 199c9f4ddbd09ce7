"""Unit tests for the project graph: resolution, folding, extraction."""

from repro.lint.graph import build_graph_from_sources, module_name_for

PKG = {
    "src/repro/pkg/__init__.py": "from repro.pkg.impl import compute\n",
    "src/repro/pkg/impl.py": (
        'VALUE = "v"\n'
        "\n"
        "def compute(x):\n"
        "    return x\n"
    ),
    "src/repro/pkg/use.py": (
        "from .impl import compute\n"
        "\n"
        "def call():\n"
        "    return compute(1)\n"
    ),
    "src/repro/client.py": (
        "from repro.pkg import compute\n"
        "\n"
        "def go():\n"
        "    return compute(2)\n"
    ),
}


def test_module_name_for():
    assert module_name_for("src/repro/a/b.py") == "repro.a.b"
    assert module_name_for("src/repro/__init__.py") == "repro"
    assert module_name_for("src/repro/pkg/__init__.py") == "repro.pkg"
    assert module_name_for("tests/lint/test_graph.py") is None
    assert module_name_for("src/repro/not_python.txt") is None


def test_relative_import_resolves_to_defining_module():
    graph = build_graph_from_sources(PKG)
    resolved = graph.resolve_call("repro.pkg.use", "call", "compute")
    assert resolved == ("repro.pkg.impl", "compute")


def test_reexport_through_package_init_resolves():
    graph = build_graph_from_sources(PKG)
    resolved = graph.resolve_call("repro.client", "go", "compute")
    assert resolved == ("repro.pkg.impl", "compute")


def test_resolve_constant():
    graph = build_graph_from_sources(PKG)
    resolved = graph.resolve_constant("repro.pkg.impl", "VALUE")
    assert resolved is not None
    assert resolved[2]["kind"] == "str"
    assert resolved[2]["value"] == "v"


def test_self_method_call_resolves_within_class():
    graph = build_graph_from_sources({
        "src/repro/svc.py": (
            "class Service:\n"
            "    def run(self):\n"
            "        return self.step()\n"
            "\n"
            "    def step(self):\n"
            "        return 1\n"
        ),
    })
    resolved = graph.resolve_call("repro.svc", "Service.run", "self.step")
    assert resolved == ("repro.svc", "Service.step")


def test_fold_string_collection_follows_cross_module_concat():
    graph = build_graph_from_sources({
        "src/repro/names_a.py": (
            "BASE = (\n"
            '    "a",\n'
            ")\n"
        ),
        "src/repro/names_b.py": (
            "from repro.names_a import BASE\n"
            "\n"
            "ALL = BASE + (\n"
            '    "b",\n'
            ")\n"
        ),
    })
    entries = graph.fold_string_collection("repro.names_b", "ALL")
    assert entries is not None
    assert [value for value, _ in entries] == ["a", "b"]


def test_decorator_chains_are_recorded_dotted():
    graph = build_graph_from_sources({
        "src/repro/w.py": (
            "import functools\n"
            "from functools import cache\n"
            "\n"
            "@cache\n"
            "def plain(items):\n"
            "    return items\n"
            "\n"
            "@functools.lru_cache(maxsize=8)\n"
            "def dotted(items):\n"
            "    return items\n"
        ),
    })
    functions = graph.by_module["repro.w"]["functions"]
    assert "cache" in functions["plain"]["decorators"]
    assert "functools.lru_cache" in functions["dotted"]["decorators"]


def test_non_src_files_contribute_only_string_literals():
    graph = build_graph_from_sources({
        "tests/test_thing.py": (
            "def test_x():\n"
            '    assert do("io.write")\n'
        ),
    })
    summary = graph.summaries["tests/test_thing.py"]
    assert summary["module"] is None
    assert summary["functions"] == {}
    assert "io.write" in summary["string_literals"]


def test_parse_failure_yields_empty_summary():
    graph = build_graph_from_sources({
        "src/repro/broken.py": "def broken(:\n",
    })
    summary = graph.summaries["src/repro/broken.py"]
    assert summary["functions"] == {}
