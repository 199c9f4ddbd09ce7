"""Fixture: registered names and unresolvable dynamic names (0 findings)."""


def instrument(obs, metrics, cp, dynamic_name):
    span = obs.begin("io.write")
    obs.event("drive.replace")
    metrics.counter("gc.segments_collected").inc()
    cp.hit("segwriter.mid-flush")
    # A computed name cannot be resolved statically; not flagged.
    obs.begin(dynamic_name)
    obs.end(span)
    with obs.span("segio.flush"):
        pass
