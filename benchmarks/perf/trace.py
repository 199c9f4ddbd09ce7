"""Outside-in tracing: wrap each layer's public entry points, from here.

Nothing under ``src/`` knows about this. :meth:`Tracer.install` swaps a
timing wrapper onto each entry point in :data:`TARGETS` (class-level
``setattr``; for module functions, every ``repro`` module global bound to
the function) and :meth:`Tracer.uninstall` puts the originals back.

A span is ``(name, layer, start_ns, end_ns, busy_ns, parent, op, size)``;
its id is its index in ``Tracer.spans``. The program is single-threaded,
so spans nest strictly and a span's *self time* is ``busy_ns`` minus the
``busy_ns`` of the spans that name it as parent. Generators (only
``Relation.scan``) are charged the time spent inside ``next()`` alone:
whatever the consumer does between items stays with the consumer.

Entry points, not inner loops: ``ElideTable.is_elided`` and
``DedupIndex.lookup`` run once per fact / per sector and are left
unwrapped; their time shows inside ``Relation.scan`` /
``InlineDeduper.find_matches``.
"""

import importlib
import inspect
import json
import sys
import time

_clock = time.perf_counter_ns


def _len_arg(index):
    return lambda args, result: len(args[index])


def _len_result(args, result):
    return len(result) if result is not None else 0


def _nbytes_arg(index):
    def size(args, result):
        value = args[index]
        if hasattr(value, "nbytes"):
            return value.nbytes
        return sum(len(shard) for shard in value if shard is not None)
    return size


#: layer -> [(module, owner or None, [names], size or None)]. ``owner``
#: None means module-level functions; ``size(args, result)`` is the work
#: one call did (bytes), stored on the span.
TARGETS = {
    "service": [
        ("repro.service.frontend", "ServiceFrontend", ["submit", "run"], None),
        ("repro.service.qos", "QosScheduler",
         ["enqueue", "next_request", "next_ready_time"], None),
        ("repro.service.admission", "AdmissionController", ["decide"], None),
        ("repro.service.api", "ManagementAPI", ["call"], None),
    ],
    "cluster": [
        ("repro.cluster.cluster", "Cluster",
         ["write", "read", "advance", "pump"], None),
        ("repro.cluster.client", "ClusterClient", ["write", "read"], None),
        ("repro.cluster.node", "ArrayNode",
         ["handle_write", "handle_read", "handle_unmap", "handle_snapshot",
          "handle_clone"], None),
        ("repro.cluster.fabric", "NetworkFabric", ["deliver"], None),
        ("repro.cluster.mdm", "MetadataManager", ["routing", "heartbeat"], None),
    ],
    "core": [
        ("repro.core.array", "PurityArray",
         ["write", "read", "unmap", "snapshot", "clone", "destroy_volume",
          "destroy_snapshot", "create_volume", "drain", "checkpoint", "run_gc",
          "fail_drive"], None),
        ("repro.core.datapath", "DataPath", ["write", "read"], None),
        ("repro.core.commit", "CommitPipeline",
         ["insert_meta", "insert_meta_batch", "commit_raw_write", "drain",
          "checkpoint", "compact"], None),
        ("repro.core.gc", "GarbageCollector",
         ["collect_segment", "sweep_mediums", "shorten_chains",
          "flatten_medium"], None),
    ],
    "mediums": [
        ("repro.mediums.medium", "MediumTable",
         ["create_medium", "ranges_of", "exists", "size_of", "range_covering",
          "freeze", "is_writable", "snapshot", "clone", "define_range",
          "retarget_range", "drop_medium", "all_medium_ids"], None),
        ("repro.mediums.resolver", None, ["resolve_chain", "chain_depth"], None),
    ],
    "pyramid": [
        ("repro.pyramid.relation", "Relation",
         ["insert", "insert_fact", "get", "scan", "seal", "compact", "flatten",
          "elide_key_range", "elide_prefix"], None),
    ],
    "dedup": [
        ("repro.dedup.inline", "InlineDeduper", ["find_matches"], _len_arg(1)),
    ],
    "compression": [
        ("repro.compression.engine", "ZlibCompressor", ["compress"], _len_arg(1)),
        ("repro.compression.engine", "ZlibCompressor", ["decompress"],
         _len_result),
        ("repro.compression.cblock", None, ["build_cblock"], _len_arg(0)),
        ("repro.compression.cblock", None, ["parse_cblock"], None),
    ],
    "erasure": [
        ("repro.erasure.reed_solomon", "ReedSolomon",
         ["encode", "encode_stripes"], _nbytes_arg(1)),
        ("repro.erasure.reed_solomon", "ReedSolomon",
         ["reconstruct", "verify"], None),
    ],
    "layout": [
        ("repro.layout.segwriter", "SegmentWriter",
         ["append_data", "append_log_record", "flush"], None),
        ("repro.layout.segreader", "SegmentReader",
         ["read_payload", "read_log_record", "scan_headers"], None),
    ],
    "ssd": [
        ("repro.ssd.device", "SimulatedSSD", ["read", "write", "discard"], None),
        ("repro.ssd.nvram", "NVRAMDevice", ["append"], _len_arg(1)),
        ("repro.ssd.nvram", "NVRAMDevice", ["trim", "scan"], None),
    ],
    "sim": [
        ("repro.sim.events", "EventLoop", ["call_at", "step", "run"], None),
        ("repro.sim.clock", "SimClock", ["advance"], None),
    ],
}

LAYERS = tuple(TARGETS)


class Tracer:
    """Spans of one traced repetition, kept in memory until written."""

    def __init__(self, rec):
        self.rec = rec
        self.spans = []
        self.stack = []
        #: Entry points named in TARGETS that no longer exist.
        self.missing = []
        self._undo = []

    # -- wrappers -------------------------------------------------------

    def _open(self):
        """Reserve a span slot (so ids follow call order) and push it."""
        spans = self.spans
        index = len(spans)
        spans.append(None)
        stack = self.stack
        parent = stack[-1] if stack else -1
        stack.append(index)
        return index, parent

    def _wrap_function(self, func, name, layer, size_of):
        spans, stack, rec = self.spans, self.stack, self.rec
        open_span = self._open

        def traced(*args, **kwargs):
            index, parent = open_span()
            result = None
            start = _clock()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = _clock()
                stack.pop()
                size = size_of(args, result) if size_of is not None else 0
                spans[index] = (name, layer, start, end, end - start,
                                parent, rec.op, size)

        return traced

    def _wrap_generator(self, func, name, layer):
        spans, stack, rec = self.spans, self.stack, self.rec

        def traced(*args, **kwargs):
            inner = func(*args, **kwargs)
            index = parent = first = None
            busy = items = 0
            try:
                while True:
                    start = _clock()
                    if index is None:
                        first = start
                        index = len(spans)
                        spans.append(None)
                        parent = stack[-1] if stack else -1
                    stack.append(index)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        end = _clock()
                        busy += end - start
                    items += 1
                    yield item
            finally:
                if index is not None:
                    spans[index] = (name, layer, first, end, busy,
                                    parent, rec.op, items)

        return traced

    def _wrap(self, func, name, layer, size_of):
        if inspect.isgeneratorfunction(func):
            return self._wrap_generator(func, name, layer)
        return self._wrap_function(func, name, layer, size_of)

    # -- install / uninstall --------------------------------------------

    def install(self):
        self.missing = []
        for layer, groups in TARGETS.items():
            for module_name, owner_name, names, size_of in groups:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name, None) if owner_name else module
                for name in names:
                    label = "%s.%s" % (owner_name or module_name.rsplit(".", 1)[1],
                                       name)
                    if owner is None or name not in vars(owner):
                        self.missing.append(label)
                        continue
                    if owner_name:
                        self._patch_method(owner, name, label, layer, size_of)
                    else:
                        self._patch_function(owner, name, label, layer, size_of)
        return self

    def _patch_method(self, owner, name, label, layer, size_of):
        original = vars(owner)[name]
        setattr(owner, name, self._wrap(original, label, layer, size_of))
        self._undo.append((owner, name, original))

    def _patch_function(self, module, name, label, layer, size_of):
        """Rebind every ``repro`` module global that is this function:
        ``from x import f`` copies the binding into the importer."""
        original = vars(module)[name]
        traced = self._wrap(original, label, layer, size_of)
        for other in list(sys.modules.values()):
            if other is None or not other.__name__.startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, traced)
                    self._undo.append((other, key, original))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        # A generator abandoned mid-iteration and not yet collected
        # never closed its span; ids are indices, so keep the slot.
        for index, span in enumerate(self.spans):
            if span is None:
                self.spans[index] = ("abandoned", "bench", 0, 0, 0, -1, -1, 0)

    # -- analysis -------------------------------------------------------

    def self_ns(self):
        """Per-span self time: busy minus the children's busy."""
        own = [span[4] for span in self.spans]
        for span in self.spans:
            if span[5] >= 0:
                own[span[5]] -= span[4]
        return own

    def write_jsonl(self, path):
        origin = self.spans[0][2] if self.spans else 0
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                name, layer, start, end, busy, parent, op, size = span
                handle.write(json.dumps({
                    "id": index, "parent": parent, "op": op, "layer": layer,
                    "name": name, "start_us": (start - origin) / 1e3,
                    "end_us": (end - origin) / 1e3, "busy_us": busy / 1e3,
                    "size": size,
                }) + "\n")
