"""Fixture: every name site folds into a registry entry."""

PREFIX = "io"


def write_path(obs, metrics, faults):
    with obs.begin(f"{PREFIX}.write"):
        faults.hit("segio.pre-flush")
        metrics.counter("io.write.latency")


def read_path(obs, faults):
    with obs.begin("io.read"):
        faults.hit("nvram.pre-append")
    obs.event("fault")


def bind_pool(metrics, name):
    return metrics.counter("%s.hits" % name)
