"""Per-layer wall-time attribution for the traced benchmark run.

The benchmark wraps each layer's entry points at the sites where callers
bind them (a module attribute or a class method) and restores them
afterwards; nothing under ``src/`` records spans.  A span covers one call;
its *self time* is its duration minus the time its child spans cover, so
the self times of all spans plus the root's partition the traced wall time.

Layers (metric-name prefixes): ``xmldata`` parser, ``index`` publisher and
DPP, ``dht`` network and routing, ``storage`` clustered B+-tree,
``postings`` kernels, ``query`` joins and matcher, ``kadop`` execution,
serving and document phase, ``sim`` task scheduler.  ``other`` is the time
no wrapped function covers.
"""

import time
from collections import Counter, defaultdict

#: a kernel call on fewer postings than this is "small" (numpy loses there)
SMALL_CALL_POSTINGS = 40

#: the kernels of a backend module that posting hot paths dispatch to
#: (the Bloom kernels belong to the default-off ``bloom`` layer)
KERNELS = (
    "merge",
    "concat_sorted",
    "batch_bisect",
    "seek_end_ge",
    "doc_ids",
    "wire_values",
    "encode",
    "encoded_size",
    "decode",
)

#: postings a kernel call works on, from its arguments and result
_KERNEL_LEN = {
    "merge": lambda args, out: len(args[0][0]) + len(args[1][0]),
    "concat_sorted": lambda args, out: sum(len(c[0]) for c in args[0]),
    "batch_bisect": lambda args, out: len(args[0][0]),
    "seek_end_ge": lambda args, out: args[4] - args[3],
    "doc_ids": lambda args, out: len(args[0]),
    "wire_values": lambda args, out: len(args[0][0]),
    "encode": lambda args, out: len(args[0][0]),
    "encoded_size": lambda args, out: len(args[0][0]),
    "decode": lambda args, out: len(out[0][0]),
}

#: sites each workload must call at least once per traced pass; a rename
#: or import rebinding then fails the run instead of reporting 0
EXPECTED_SITES = {
    "ingest": (
        "repro.kadop.peer.parse_document",
        "Publisher.publish_many",
        "DhtNetwork.route",
        "DhtNetwork.append_batch",
        "ClusteredIndexStore.append",
        "kernel.encoded_size",
    ),
    "serve": (
        "repro.kadop.peer.parse_document",
        "Publisher.publish",
        "DhtNetwork.route",
        "DhtNetwork.locate",
        "DhtNetwork.pipelined_get",
        "ClusteredIndexStore.append",
        "ClusteredIndexStore.get",
        "kernel.encoded_size",
        "kernel.seek_end_ge",
        "repro.kadop.execution.twig_join",
        "repro.kadop.peer.match_document",
        "QueryExecutor.run",
        "KadopPeer.evaluate",
        "ServingEngine.run",
        "Scheduler.run",
        "FetchCoalescer.lookup",
    ),
    "dpp-query": (
        "repro.kadop.peer.parse_document",
        "Publisher.publish_many",
        "DppIndex.append",
        "DhtNetwork.route",
        "DhtNetwork.locate",
        "DhtNetwork.block_get",
        "ClusteredIndexStore.append",
        "ClusteredIndexStore.get",
        "kernel.merge",
        "kernel.batch_bisect",
        "kernel.seek_end_ge",
        "kernel.encoded_size",
        "repro.query.block_join.twig_join",
        "repro.kadop.execution.demand_driven_block_join",
        "repro.kadop.peer.match_document",
        "QueryExecutor.run",
        "KadopPeer.evaluate",
        "Scheduler.run",
    ),
}


class SpanRecorder:
    """Aggregates spans into per-name call counts and self times.

    Spans nest strictly (one thread), so a stack of open spans suffices:
    closing a span adds its duration to its parent's child time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.site_calls = Counter()
        self.counts = Counter()  # layer work counters (hops, postings, ...)
        self._stack = []  # [start, child seconds] per open span

    def begin(self):
        self._stack.append([self.clock(), 0.0])

    def end(self, name):
        start, child_s = self._stack.pop()
        duration = self.clock() - start
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child_s

    def wrap(self, name, site, fn, on_call=None):
        """``fn`` recording a ``name`` span per call, counted under ``site``."""
        begin, end, site_calls = self.begin, self.end, self.site_calls

        def traced(*args, **kwargs):
            begin()
            try:
                out = fn(*args, **kwargs)
            finally:
                end(name)
            site_calls[site] += 1
            if on_call is not None:
                on_call(args, out)
            return out

        return traced

    def count(self, site, fn, on_call):
        """``fn`` counted under ``site`` with no span of its own."""
        site_calls = self.site_calls

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            site_calls[site] += 1
            on_call(args, out)
            return out

        return counted


def _sites(recorder):
    """``(owner, attribute, site, make_wrapper)`` for every wrapped site."""
    import repro.kadop.execution as execution
    import repro.kadop.peer as peer
    import repro.query.block_join as block_join
    from repro.dht.network import DhtNetwork
    from repro.index.dpp import DppIndex
    from repro.index.publisher import Publisher
    from repro.kadop.execution import QueryExecutor
    from repro.kadop.peer import KadopPeer
    from repro.kadop.serving import FetchCoalescer, ServingEngine
    from repro.postings import kernels
    from repro.sim.tasks import Scheduler
    from repro.storage.clustered import ClusteredIndexStore

    counts = recorder.counts

    def published(args, receipt):
        counts["published_docs"] += receipt.documents
        counts["published_postings"] += receipt.postings

    def routed(args, out):
        counts["routes"] += 1
        counts["hops"] += out[1]

    def scheduled(args, out):
        counts["scheduled_tasks"] += len(args[0].tasks)

    def looked_up(args, out):
        counts["coalesce_lookups"] += 1
        counts["coalesce_hits"] += out is not None

    def kernel_hook(kernel):
        length = _KERNEL_LEN[kernel]

        def hook(args, out):
            n = length(args, out)
            counts["postings.%s.len" % kernel] += n
            counts["kernel_calls"] += 1
            counts["kernel_small_calls"] += n < SMALL_CALL_POSTINGS

        return hook

    def span(name, on_call=None):
        return lambda site, fn: recorder.wrap(name, site, fn, on_call)

    sites = [
        (peer, "parse_document", span("xmldata.parse")),
        (Publisher, "publish", span("index.publish", published)),
        (Publisher, "publish_many", span("index.publish", published)),
        (DppIndex, "append", span("index.dpp_append")),
        (DhtNetwork, "route", span("dht.route", routed)),
        (DhtNetwork, "locate", span("dht.locate")),
        (DhtNetwork, "append_batch", span("dht.append_batch")),
        (DhtNetwork, "get", span("dht.get")),
        (DhtNetwork, "pipelined_get", span("dht.pipelined_get")),
        (DhtNetwork, "block_get", span("dht.block_get")),
        (ClusteredIndexStore, "append", span("storage.append")),
        (ClusteredIndexStore, "get", span("storage.get")),
        (execution, "twig_join", span("query.twig_join")),
        (block_join, "twig_join", span("query.twig_join")),
        (execution, "demand_driven_block_join", span("query.block_join")),
        (peer, "match_document", span("query.match_document")),
        (QueryExecutor, "run", span("kadop.execute")),
        (KadopPeer, "evaluate", span("kadop.doc_phase")),
        (ServingEngine, "run", span("kadop.serve")),
        (Scheduler, "run", span("sim.scheduler", scheduled)),
        (
            FetchCoalescer,
            "lookup",
            lambda site, fn: recorder.count(site, fn, looked_up),
        ),
    ]
    backend = kernels.active()
    for kernel in KERNELS:
        sites.append(
            (backend, kernel, span("postings." + kernel, kernel_hook(kernel)))
        )
    for owner, attr, make in sites:
        prefix = "kernel" if owner is backend else owner.__name__
        yield owner, attr, "%s.%s" % (prefix, attr), make


class LayerTracer:
    """Installs span wrappers on entry; restores the originals on exit."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._saved = []

    def __enter__(self):
        for owner, attr, site, make in _sites(self.recorder):
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(site, original))
        return self.recorder

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(recorder, passes, queries, traced_wall_s, plain_wall_s):
    """The per-layer metrics of ``passes`` traced passes, per pass.

    ``queries`` is the per-pass query count; the
    ``*_wall_s`` are the median traced and untraced pass wall times.
    """
    calls, self_s, counts = recorder.calls, recorder.self_s, recorder.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def calls_and_self(name):
        put(name + ".calls", calls[name] / passes, "count")
        put(name + ".self_s", self_s[name] / passes, "s")

    calls_and_self("xmldata.parse")
    calls_and_self("index.publish")
    calls_and_self("index.dpp_append")
    put(
        "index.postings_per_doc",
        _ratio(counts["published_postings"], counts["published_docs"]),
        "postings",
    )
    for op in ("locate", "append_batch", "get", "pipelined_get", "block_get"):
        put("dht.%s.calls" % op, calls["dht." + op] / passes, "count")
    put(
        "dht.self_s",
        sum(v for k, v in self_s.items() if k.startswith("dht.")) / passes,
        "s",
    )
    put("dht.hops_per_route", _ratio(counts["hops"], counts["routes"]), "hops")
    calls_and_self("storage.append")
    calls_and_self("storage.get")
    for kernel in KERNELS:
        name = "postings." + kernel
        calls_and_self(name)
        put(
            name + ".mean_len",
            _ratio(counts[name + ".len"], calls[name]),
            "postings",
        )
    put(
        "postings.small_call_share",
        _ratio(counts["kernel_small_calls"], counts["kernel_calls"]),
        "ratio",
    )
    calls_and_self("query.twig_join")
    calls_and_self("query.block_join")
    calls_and_self("query.match_document")
    put("kadop.execute.self_s", self_s["kadop.execute"] / passes, "s")
    put("kadop.doc_phase.self_s", self_s["kadop.doc_phase"] / passes, "s")
    put("kadop.serve.self_s", self_s["kadop.serve"] / passes, "s")
    put("sim.scheduler.runs", calls["sim.scheduler"] / passes, "count")
    put("sim.scheduler.self_s", self_s["sim.scheduler"] / passes, "s")
    put(
        "sim.scheduler.tasks_per_query",
        _ratio(counts["scheduled_tasks"], queries * passes),
        "tasks",
    )
    put(
        "kadop.coalesce_hit_ratio",
        _ratio(counts["coalesce_hits"], counts["coalesce_lookups"]),
        "ratio",
    )
    put(
        "index.dpp_blocks_fetched_share",
        _ratio(
            counts["blocks_fetched"],
            counts["blocks_fetched"] + counts["blocks_skipped"],
        ),
        "ratio",
    )
    put(
        "kadop.candidate_precision",
        _ratio(counts["answered_docs"], counts["candidate_docs"]),
        "ratio",
    )
    put("other.self_s", self_s["other"] / passes, "s")
    put("trace.overhead_ratio", _ratio(traced_wall_s, plain_wall_s), "ratio")
    return out
