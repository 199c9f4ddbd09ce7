"""Unit tests for execution-domain classification."""

from repro.lint.domains import (CLUSTER_HANDLER, HOT, SIM_CALLBACK,
                                build_domains)
from repro.lint.graph import build_graph_from_sources

SOURCES = {
    "src/repro/sched.py": (
        "def arm(sim):\n"
        "    sim.call_at(5, on_timer)\n"
        "\n"
        "def on_timer():\n"
        "    return tick()\n"
        "\n"
        "def tick():\n"
        "    return 1\n"
    ),
    "src/repro/cluster/node.py": (
        "class Node:\n"
        "    def handle_ping(self, msg):\n"
        "        return msg\n"
    ),
    "src/repro/layout/geom.py": (
        "def place(x):\n"
        "    return x\n"
    ),
    "src/repro/mainline.py": (
        "def drive():\n"
        "    return 0\n"
    ),
}


def domain_map():
    return build_domains(build_graph_from_sources(SOURCES))


def test_sim_callback_closure_from_call_at_reference():
    domains = domain_map()
    assert SIM_CALLBACK in domains.domains_of("repro.sched", "on_timer")
    assert SIM_CALLBACK in domains.domains_of("repro.sched", "tick")
    assert SIM_CALLBACK not in domains.domains_of("repro.sched", "arm")


def test_cluster_handle_methods_are_handlers():
    domains = domain_map()
    assert CLUSTER_HANDLER in domains.domains_of("repro.cluster.node",
                                                 "Node.handle_ping")


def test_hot_subsystem_modules_are_tagged():
    domains = domain_map()
    assert HOT in domains.domains_of("repro.layout.geom", "place")


def test_untagged_functions_default_to_main():
    domains = domain_map()
    assert domains.domains_of("repro.mainline", "drive") == {"main"}
