"""Deterministic per-I/O tracing on the simulated clock.

A client operation opens a root span (``io.write``, ``io.read``);
pipeline stages open child spans (``nvram-commit``, ``dedup``,
``compress``, ``segio-append``, ``segio.flush``, ``rs-encode``,
``cblock-read``, ``segread.reconstruct``); background services get
their own roots (``gc.run``, ``scrub.run``, ``recovery``, ``rebuild``).
Point events (``fault``) share the span tree, which is what makes the
fault-correlation report a pure join.

Determinism contract: span ids are a per-:class:`Observability`
sequence, timestamps are :class:`~repro.sim.clock.SimClock` readings,
and simulated durations travel as explicit ``lat`` attributes (the sim
clock does not advance *inside* a pipeline stage — stages report the
latency their device models charged). Nothing wall-clock ever enters a
record, so the same seed emits byte-identical JSONL.

Cost contract: every instrumented site is one ``with obs.span(name,
**attrs) as span:`` block (and events one ``obs.event(...)`` call).
When tracing is off, :meth:`Observability.span` returns the shared
:data:`NO_SPAN`, whose ``set`` does nothing, and :meth:`~Observability.event`
returns ``None``: a site then costs one call and its attribute dict,
and creates no :class:`Span` and no record. Every span and event takes
the next id of the trace buffer's sequence, so an unmoved
``buffer.next_id`` is how the golden test proves the disabled hot path
allocates nothing.
"""

from repro.obs.metrics import DiscardingRegistry


class Span:
    """One open span, and the ``with`` block that traces it.

    Leaving the block ends the span; an exception unwinding through it
    adds ``crashed=True`` first, then propagates. Finished spans become
    plain trace records.
    """

    __slots__ = ("obs", "span_id", "parent_id", "name", "start", "attrs")

    def __init__(self, obs, span_id, parent_id, name, start, attrs):
        self.obs = obs
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.attrs = attrs

    def set(self, **attrs):
        """Attach attributes (e.g. the simulated latency) before end."""
        self.attrs.update(attrs)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, traceback):
        if exc_type is not None:
            self.attrs["crashed"] = True
        self.obs.end(self)
        return False


class _NoSpan:
    """What :meth:`Observability.span` yields while tracing is off."""

    __slots__ = ()

    def set(self, **attrs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, traceback):
        return False


#: The one shared do-nothing span: no allocation per disabled site.
NO_SPAN = _NoSpan()


class TraceBuffer:
    """The mutable trace state: finished records, open stack, id counter.

    Split out of :class:`Observability` so several instances can share
    one buffer while keeping separate metric registries — the cluster
    layer gives every array node its own ``Observability`` (per-node
    metrics scoping) but threads one ``TraceBuffer`` through the
    client, the metadata manager, and every node, so a single trace
    follows an I/O across the client→MDM→node hop and through a
    failover. Span ids come from the shared counter, which keeps the
    interleaved multi-node trace deterministic.
    """

    __slots__ = ("records", "stack", "next_id")

    def __init__(self):
        #: Finished spans and fired events, in completion order.
        self.records = []
        self.stack = []
        self.next_id = 1

    def reset(self):
        self.records.clear()
        self.stack.clear()
        self.next_id = 1


class Observability:
    """Trace collector + metrics registry for one simulated system.

    One instance follows a system across controller failovers (pass it
    back through ``PurityArray.recover``), so a chaos run's whole
    timeline lands in a single trace. Passing an existing ``buffer``
    (see :class:`TraceBuffer`) joins this instance onto another's
    trace while keeping its metrics registry private — the per-node
    scoping the cluster layer relies on.
    """

    def __init__(self, clock, registry=None, buffer=None):
        from repro.obs.metrics import MetricsRegistry

        self.clock = clock
        #: Read by :meth:`span` and :meth:`event`, not by call sites.
        self.tracing = False
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.buffer = buffer if buffer is not None else TraceBuffer()

    @property
    def records(self):
        """Finished spans and fired events, in completion order."""
        return self.buffer.records

    # -- switches -------------------------------------------------------

    def enable_tracing(self):
        self.tracing = True
        return self

    def disable_tracing(self):
        self.tracing = False
        return self

    def reset(self):
        """Drop collected records and restart span numbering."""
        self.buffer.reset()

    # -- spans ----------------------------------------------------------

    @property
    def current_span_id(self):
        stack = self.buffer.stack
        return stack[-1].span_id if stack else 0

    def span(self, name, **attrs):
        """Trace a block: ``with obs.span(name, **attrs) as span:``.

        Opens a child of the current span, or returns :data:`NO_SPAN`
        while tracing is off. ``span.set(...)`` adds end attributes.
        """
        if not self.tracing:
            return NO_SPAN
        return self.begin(name, **attrs)

    def begin(self, name, **attrs):
        """Open a child of the current span; returns the :class:`Span`.

        The primitive under :meth:`span`, which pairs it with
        :meth:`end`; instrumented sites use :meth:`span`.
        """
        buffer = self.buffer
        span = Span(self, buffer.next_id, self.current_span_id, name,
                    self.clock.now, attrs)
        buffer.next_id += 1
        buffer.stack.append(span)
        return span

    def end(self, span, **attrs):
        """Close ``span``; abandoned inner spans (crash unwinds that
        skipped their ``end``) are discarded, keeping replay exact."""
        if attrs:
            span.attrs.update(attrs)
        stack = self.buffer.stack
        while stack:
            top = stack.pop()
            if top is span:
                break
        self.buffer.records.append({
            "type": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "start": span.start,
            "end": self.clock.now,
            "attrs": span.attrs,
        })

    def event(self, name, **attrs):
        """Record a point event (fault firings, crashes) in the tree.

        Records nothing, and returns ``None``, while tracing is off.
        """
        if not self.tracing:
            return None
        buffer = self.buffer
        record = {
            "type": "event",
            "id": buffer.next_id,
            "parent": self.current_span_id,
            "name": name,
            "time": self.clock.now,
            "attrs": attrs,
        }
        buffer.next_id += 1
        buffer.records.append(record)
        return record

    # -- views ----------------------------------------------------------

    def spans(self, name=None):
        """Finished span records, optionally filtered by name."""
        return [
            record for record in self.records
            if record["type"] == "span" and (name is None or record["name"] == name)
        ]

    def events(self, name=None):
        return [
            record for record in self.records
            if record["type"] == "event" and (name is None or record["name"] == name)
        ]


#: Shared always-off instance for components constructed standalone
#: (unit tests); real arrays wire their own Observability in. It traces
#: nothing and its registry keeps nothing.
class _NullClock:
    now = 0.0


NULL_OBS = Observability(_NullClock(), registry=DiscardingRegistry())
