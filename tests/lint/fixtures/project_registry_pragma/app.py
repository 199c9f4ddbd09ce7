"""Fixture: the typo'd fold carries a justified pragma."""

PREFIX = "io"


def write_path(obs, metrics, faults):
    with obs.begin(f"{PREFIX}.write"):
        faults.hit("segio.pre-flush")
        metrics.counter("io.write.latency")
    # lint: allow[registry-resolution] fixture: suppression under test
    obs.begin(f"{PREFIX}.wrte")


def read_path(obs, faults):
    with obs.begin("io.read"):
        faults.hit("nvram.pre-append")
    obs.event("fault")


def bind_pool(metrics, name):
    return metrics.counter("%s.hits" % name)
