"""Fixture: five typo-drifted instrumentation names (5 findings)."""


def instrument(obs, metrics, cp):
    span = obs.begin("io.wrte")
    obs.event("drive.replaced")
    metrics.counter("gc.segments_colected").inc()
    cp.hit("segwriter.mid-flsh")
    obs.end(span)
    with obs.span("segio.flsh"):
        pass
