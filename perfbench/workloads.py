"""Seeded inputs, set-up and timed passes of the benchmark's workloads.

Every workload talks to the system through its public API only:
``KadopNetwork.create``, ``KadopPeer.publish_batch`` / ``publish``,
``KadopNetwork.serve`` and ``KadopNetwork.query_with_report``.

A workload provides:

* ``make_inputs(seed)``: every input, generated from the seed (not timed);
* ``setup(inputs)``: the network with its corpus loaded (``setup_s``);
* ``execute(net, inputs)``: the operations of one pass, the only timed and
  metered part; a failing operation is recorded as ``None``;
* ``summarize(raw, wall_s, wire_bytes, messages)``: the pass's
  :class:`PassResult`.  Passes repeat on identical inputs until the run's
  time is up, so every pass must produce the same digest;
* ``oracle``/``failures``/``attempted``: the correctness check.

The seed varies document text, peer placement, query order, arrival
instants and source peers.  The query *composition* of ``serve`` and
``dpp-query`` is drawn once at :data:`COMPOSITION_SEED`, so that a run's
amount of work, and with it every rate and per-operation figure, does not
swing with the seed's draw of heavy or light queries.
"""

import hashlib
import json
import random
import traceback
from dataclasses import dataclass, field, replace

from repro.kadop.config import KadopConfig
from repro.kadop.serving import QueryArrival
from repro.kadop.system import KadopNetwork
from repro.kadop.verify import oracle_answers
from repro.sim.cost import CostParams
from repro.workloads.dblp import DblpGenerator
from repro.workloads.profiles import REPEATED_QUERY_PROFILES, open_loop_workload
from repro.workloads.queries import traffic_workload

NUM_PEERS = 40

#: seed of the fixed query composition of ``serve`` and ``dpp-query``
COMPOSITION_SEED = 0


@dataclass
class PassResult:
    """What one timed pass produced."""

    ops: int
    wall_s: float
    wire_bytes: int  # TrafficMeter delta over the timed operations
    messages: int
    latencies: list  # simulated latency per operation
    sim_s: float  # simulated seconds the operations took
    answers: list = field(default_factory=list)  # per query: answer set or None
    complete: list = field(default_factory=list)  # per query: report.complete
    failed: int = 0  # documents whose publish_batch raised
    counts: dict = field(default_factory=dict)  # work counters for ratios
    digest: str = ""  # hash of every simulated output and answer of the pass


def _digest(per_op, result):
    """Set ``result.digest`` from per-operation outputs and its totals."""
    blob = json.dumps(
        [
            per_op,
            [sorted(map(repr, a)) if a is not None else None
             for a in result.answers],
            result.wire_bytes,
            result.messages,
        ],
        sort_keys=True,
        default=repr,
    )
    result.digest = hashlib.sha256(blob.encode()).hexdigest()
    return result


def _traffic(delta):
    # a meter delta lists a category once it has ever been used, even at 0
    return {k: v for k, v in delta.items() if v}


def _answer_set(answers):
    return frozenset(a.bindings for a in answers)


def _oracle(net, queries):
    """``{(text, keyword_steps): answer set}`` over ``net``'s documents."""
    return {
        query: frozenset(oracle_answers(net, net.parse(query[0], query[1])))
        for query in sorted(set(queries))
    }


def check_answers(queries, answers, complete, oracle):
    """Queries whose answers are missing, partial or differ from ``oracle``."""
    return sum(
        got is None or not done or got != oracle[query]
        for query, got, done in zip(queries, answers, complete)
    )


def _query_counts(reports, answers):
    return {
        "blocks_fetched": sum(r.blocks_fetched for r in reports),
        "blocks_skipped": sum(r.blocks_skipped for r in reports),
        "candidate_docs": sum(r.candidate_docs for r in reports),
        "answered_docs": sum(
            len({(b[0][1].peer, b[0][1].doc) for b in a})
            for a in answers
            if a is not None
        ),
    }


def _run_query(net, text, keywords, src):
    """``(answer set, report)``, or ``(None, None)`` if the query raised."""
    try:
        answers, report = net.query_with_report(
            text, keyword_steps=keywords, peer=net.peers[src]
        )
    except Exception:  # a failed query counts as failed; keep running
        traceback.print_exc()
        return None, None
    return _answer_set(answers), report


# -- ingest ---------------------------------------------------------------------


class Ingest:
    """Closed loop, one client, writes only: bulk-publish a DBLP-like corpus.

    Each pass publishes the corpus into a fresh empty network, in
    ``publish_batch`` calls from a rotating publisher peer.  A document's
    simulated latency is the duration of the batch that carried it.
    """

    name = "ingest"
    fresh_network_per_pass = True
    DOCS = 160
    DOC_BYTES = 6_000
    BATCH = 16
    #: checked against the oracle after every pass, outside the timed phase
    PROBES = (
        ("//article//author", ()),
        ("//inproceedings//title", ()),
        ("//dblp//article//journal", ()),
        ("//inproceedings[//year]//booktitle", ()),
        ("//article//author//Smith", ("Smith",)),
    )

    def make_inputs(self, seed):
        gen = DblpGenerator(seed=seed, target_doc_bytes=self.DOC_BYTES)
        docs = gen.documents(self.DOCS)
        return {
            "seed": seed,
            "batches": [
                (
                    docs[start : start + self.BATCH],
                    ["dblp:%d" % i for i in range(start, start + self.BATCH)],
                )
                for start in range(0, self.DOCS, self.BATCH)
            ],
        }

    def setup(self, inputs):
        return KadopNetwork.create(
            num_peers=NUM_PEERS, config=KadopConfig(), seed=inputs["seed"]
        )

    def execute(self, net, inputs):
        receipts = []
        for i, (texts, uris) in enumerate(inputs["batches"]):
            try:
                receipt = net.peers[i % NUM_PEERS].publish_batch(texts, uris=uris)
            except Exception:  # fails each document of the batch
                traceback.print_exc()
                receipt = None
            receipts.append((receipt, len(texts)))
        return receipts

    def summarize(self, raw, wall_s, wire_bytes, messages):
        published = [(r, n) for r, n in raw if r is not None]
        result = PassResult(
            ops=self.DOCS,
            wall_s=wall_s,
            wire_bytes=wire_bytes,
            messages=messages,
            latencies=[r.duration_s for r, n in published for _ in range(n)],
            sim_s=sum(r.duration_s for r, _ in published),
            failed=sum(n for r, n in raw if r is None),
        )
        per_op = [
            (r.duration_s, r.messages, r.postings) if r else None for r, _ in raw
        ]
        return _digest(per_op, result)

    def oracle(self, net, inputs):
        return _oracle(net, self.PROBES)

    def failures(self, net, result, inputs, oracle):
        probes = [
            _run_query(net, text, keywords, i % NUM_PEERS)
            for i, (text, keywords) in enumerate(self.PROBES)
        ]
        return result.failed + check_answers(
            self.PROBES,
            [answers for answers, _ in probes],
            [report is not None and report.complete for _, report in probes],
            oracle,
        )

    def attempted(self, result):
        return result.ops + len(self.PROBES)


# -- serve ----------------------------------------------------------------------


class Serve:
    """Open loop in simulated time, reads only: concurrent zipf-hot queries.

    A pass is :data:`SESSIONS` ``serve`` calls of :data:`QUERIES` queries
    each, on the same loaded network.  A session's arrivals are a Poisson
    process at :data:`RATE_QPS` conditioned on exactly :data:`QUERIES`
    arrivals in ``QUERIES / RATE_QPS`` simulated seconds (sorted uniform
    instants), from :data:`SOURCES` source peers in equal shares.  Every
    session serves the same query multiset — the first :data:`QUERIES`
    draws of ``open_loop_workload`` over the ``zipf-hot`` profile at
    :data:`COMPOSITION_SEED` — in its own seeded order.  Several short
    sessions average out the seed's arrangement at the cost of one long
    one, whose replay grows quadratically with its length.
    """

    name = "serve"
    fresh_network_per_pass = False
    DOCS = 40
    DOC_BYTES = 6_000
    SESSIONS = 4
    QUERIES = 50
    RATE_QPS = 16.0
    SOURCES = 4

    @staticmethod
    def config():
        # the experiments.serving configuration: slow links, so that
        # arrivals overlap and contend for egress/ingress and join CPU
        return KadopConfig(
            replication=1,
            cost=CostParams(egress_bw=100_000.0, ingress_bw=600_000.0),
        )

    def make_inputs(self, seed):
        profile = replace(
            REPEATED_QUERY_PROFILES["zipf-hot"], num_queries=self.QUERIES
        )
        composition = [
            (a.query_text, a.keyword_steps)
            for a in open_loop_workload(
                profile, self.RATE_QPS, seed=COMPOSITION_SEED,
                num_sources=self.SOURCES,
            )
        ]
        rng = random.Random("perfbench:serve:%d" % seed)
        span_s = self.QUERIES / self.RATE_QPS
        sessions = []
        for _ in range(self.SESSIONS):
            queries = list(composition)
            rng.shuffle(queries)
            instants = sorted(rng.uniform(0.0, span_s) for _ in queries)
            sources = [i % self.SOURCES for i in range(self.QUERIES)]
            rng.shuffle(sources)
            sessions.append(
                [
                    QueryArrival(t, text, keywords, src)
                    for t, (text, keywords), src in zip(
                        instants, queries, sources
                    )
                ]
            )
        gen = DblpGenerator(seed=seed, target_doc_bytes=self.DOC_BYTES)
        return {
            "seed": seed,
            "docs": gen.documents(self.DOCS),
            "queries": [
                (a.query_text, a.keyword_steps)
                for arrivals in sessions
                for a in arrivals
            ],
            "sessions": sessions,
        }

    def setup(self, inputs):
        net = KadopNetwork.create(
            num_peers=NUM_PEERS, config=self.config(), seed=inputs["seed"]
        )
        for i, text in enumerate(inputs["docs"]):
            net.peers[i % NUM_PEERS].publish(text, uri="dblp:%d" % i)
        return net

    def execute(self, net, inputs):
        served = []
        for arrivals in inputs["sessions"]:
            try:
                served.append(net.serve(arrivals))
            except Exception:  # fails each query of the session
                traceback.print_exc()
                served.append(None)
        return served

    def summarize(self, raw, wall_s, wire_bytes, messages):
        records, answers, complete, sim_s, sessions = [], [], [], 0.0, []
        for served in raw:
            if served is None:  # every query of a failed session fails
                answers.extend([None] * self.QUERIES)
                complete.extend([False] * self.QUERIES)
                sessions.append(None)
                continue
            ordered = sorted(served.queries, key=lambda q: q.seq)
            records.extend(ordered)
            answers.extend(_answer_set(q.answers) for q in ordered)
            complete.extend(q.report.complete for q in ordered)
            sim_s += served.makespan_s - min(q.arrival_s for q in ordered)
            sessions.append(served.to_dict())
        result = PassResult(
            ops=self.SESSIONS * self.QUERIES,
            wall_s=wall_s,
            wire_bytes=wire_bytes,
            messages=messages,
            latencies=[q.latency_s for q in records],
            sim_s=sim_s,
            answers=answers,
            complete=complete,
            counts=_query_counts([q.report for q in records], answers),
        )
        per_op = [(q.latency_s, _traffic(q.traffic)) for q in records]
        return _digest([per_op, sessions], result)

    def oracle(self, net, inputs):
        return _oracle(net, inputs["queries"])

    def failures(self, net, result, inputs, oracle):
        return check_answers(
            inputs["queries"], result.answers, result.complete, oracle
        )

    def attempted(self, result):
        return result.ops


# -- dpp-query ------------------------------------------------------------------


class DppQuery:
    """Closed loop, one client, reads over long posting lists under DPP.

    The corpus is loaded into a ``use_dpp=True`` network in batches, which
    splits posting lists into blocks.  Each pass runs the query list one at
    a time from rotating source peers.  The query multiset is
    ``traffic_workload`` at :data:`COMPOSITION_SEED`; the seed shuffles it
    and offsets the source rotation.
    """

    name = "dpp-query"
    fresh_network_per_pass = False
    DOCS = 16
    DOC_BYTES = 20_000
    LOAD_BATCH = 8
    QUERIES = 100

    def make_inputs(self, seed):
        rng = random.Random("perfbench:dpp-query:%d" % seed)
        queries = traffic_workload(count=self.QUERIES, seed=COMPOSITION_SEED)
        rng.shuffle(queries)
        offset = rng.randrange(NUM_PEERS)
        gen = DblpGenerator(seed=seed, target_doc_bytes=self.DOC_BYTES)
        docs = gen.documents(self.DOCS)
        return {
            "seed": seed,
            "batches": [
                docs[start : start + self.LOAD_BATCH]
                for start in range(0, self.DOCS, self.LOAD_BATCH)
            ],
            "queries": queries,
            "sources": [(offset + i) % NUM_PEERS for i in range(self.QUERIES)],
        }

    def setup(self, inputs):
        net = KadopNetwork.create(
            num_peers=NUM_PEERS,
            config=KadopConfig(use_dpp=True),
            seed=inputs["seed"],
        )
        for i, texts in enumerate(inputs["batches"]):
            start = i * self.LOAD_BATCH
            net.peers[i % NUM_PEERS].publish_batch(
                texts,
                uris=["dblp:%d" % j for j in range(start, start + len(texts))],
            )
        return net

    def execute(self, net, inputs):
        return [
            _run_query(net, text, keywords, src)
            for (text, keywords), src in zip(inputs["queries"], inputs["sources"])
        ]

    def summarize(self, raw, wall_s, wire_bytes, messages):
        reports = [report for _, report in raw if report is not None]
        latencies = [r.response_time_s for r in reports]
        result = PassResult(
            ops=self.QUERIES,
            wall_s=wall_s,
            wire_bytes=wire_bytes,
            messages=messages,
            latencies=latencies,
            sim_s=sum(latencies),
            answers=[answers for answers, _ in raw],
            complete=[r is not None and r.complete for _, r in raw],
            counts=_query_counts(reports, [answers for answers, _ in raw]),
        )
        per_op = [
            (r.response_time_s, _traffic(r.traffic), r.blocks_fetched,
             r.blocks_skipped)
            for r in reports
        ]
        return _digest(per_op, result)

    def oracle(self, net, inputs):
        return _oracle(net, inputs["queries"])

    def failures(self, net, result, inputs, oracle):
        return check_answers(
            inputs["queries"], result.answers, result.complete, oracle
        )

    def attempted(self, result):
        return result.ops


WORKLOADS = {w.name: w for w in (Ingest(), Serve(), DppQuery())}
