"""Fixture: name sites resolved against the fixture's own registries.

``write_path`` folds an f-string through the module constant PREFIX —
one fold lands in SPAN_NAMES, the other is a typo. ``bind_pool`` only
partially folds, so it contributes the pattern ``.*\\.hits`` which
keeps ``pool.segio.hits`` alive without any literal mention. Nothing
uses ``dead.metric``.
"""

PREFIX = "io"


def write_path(obs, metrics, faults):
    with obs.begin(f"{PREFIX}.write"):
        faults.hit("segio.pre-flush")
        metrics.counter("io.write.latency")
    obs.begin(f"{PREFIX}.wrte")


def read_path(obs, faults):
    with obs.begin("io.read"):
        faults.hit("nvram.pre-append")
    obs.event("fault")


def bind_pool(metrics, name):
    return metrics.counter("%s.hits" % name)
