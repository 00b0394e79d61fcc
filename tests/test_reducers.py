"""Tests for the Bloom reducer strategies (Section 5.3)."""

import pytest

from repro.errors import ConfigError
from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.workloads.dblp import DblpGenerator

QUERIES = [
    ('//article[. contains "Smith"]', ()),
    ("//article//author//Smith", ("Smith",)),
    ("//article[//title]//author//Smith", ("Smith",)),
    ("//inproceedings//title", ()),
    ("//dblp//article//author", ()),
]


@pytest.fixture(scope="module")
def corpus_net():
    net = KadopNetwork.create(
        num_peers=10, config=KadopConfig(replication=1), seed=13
    )
    gen = DblpGenerator(seed=21, target_doc_bytes=3000)
    for i, doc in enumerate(gen.documents(10)):
        net.peers[i % 5].publish(doc, uri="d:%d" % i)
    return net


class TestStrategyCorrectness:
    @pytest.mark.parametrize("strategy", ["ab", "db", "bloom", "subquery"])
    @pytest.mark.parametrize("query,keywords", QUERIES)
    def test_answers_unchanged(self, corpus_net, strategy, query, keywords):
        """Every strategy must return exactly the baseline answers —
        filtering is one-sided, so recall and (final) precision hold."""
        baseline, _ = corpus_net.query_with_report(query, keyword_steps=keywords)
        filtered, _ = corpus_net.query_with_report(
            query, keyword_steps=keywords, strategy=strategy
        )
        assert [a.bindings for a in filtered] == [a.bindings for a in baseline]

    def test_unknown_strategy_rejected(self, corpus_net):
        with pytest.raises(ConfigError):
            corpus_net.query_with_report("//article//author", strategy="zzz")

    def test_dpp_and_filters_mutually_exclusive(self):
        config = KadopConfig(use_dpp=True, replication=1)
        net = KadopNetwork.create(num_peers=4, config=config, seed=1)
        net.peers[0].publish("<a><b>t</b><c/></a>", uri="u")
        for strategy in ("db", "pushdown", "auto"):
            with pytest.raises(ConfigError, match="use_dpp"):
                net.query_with_report("//a[//c]//b", strategy=strategy)

    @pytest.mark.parametrize(
        "strategy", ["ab", "db", "bloom", "subquery", "auto", "pushdown"]
    )
    def test_dpp_with_any_filter_rejected_at_config(self, strategy):
        # pushdown joins read term lists from the term owners, which hold
        # none under the DPP: such a config used to answer 0 documents
        # with complete=True on every multi-term query
        with pytest.raises(ConfigError, match="use_dpp"):
            KadopConfig(use_dpp=True, filter_strategy=strategy)


class TestStrategyTraffic:
    def _traffic(self, net, query, keywords, strategy):
        _, report = net.query_with_report(
            query, keyword_steps=keywords, strategy=strategy
        )
        return report

    def test_filters_traffic_recorded(self, corpus_net):
        report = self._traffic(
            corpus_net, "//article//author//Smith", ("Smith",), "db"
        )
        assert report.traffic.get("filters", 0) > 0

    def test_db_reducer_cuts_posting_volume_selective_query(self, corpus_net):
        """Figure 7(b): a selective keyword lets the DB reducer slash the
        transferred posting volume."""
        base, rb = corpus_net.query_with_report(
            "//article//author//Ullman", keyword_steps=("Ullman",)
        )
        _, rd = corpus_net.query_with_report(
            "//article//author//Ullman", keyword_steps=("Ullman",), strategy="db"
        )
        assert rd.traffic["postings"] < rb.traffic["postings"]

    def test_ab_reducer_ships_root_unfiltered(self, corpus_net):
        """Figure 7(a): AB reduction cannot shrink the root list."""
        _, base = corpus_net.query_with_report(
            '//article[. contains "Ullman"]', keyword_steps=()
        )
        _, ab = corpus_net.query_with_report(
            '//article[. contains "Ullman"]', strategy="ab"
        )
        # the article list goes at full size, plus filters: AB can only be
        # more expensive on postings+filters for this query shape
        assert (
            ab.traffic["postings"] + ab.traffic["filters"]
            >= base.traffic["postings"] * 0.9
        )

    def test_subquery_excludes_branch(self, corpus_net):
        """Figure 7(c): sub-query reduction filters only the pivot path."""
        _, sub = corpus_net.query_with_report(
            "//article[//title]//author//Ullman",
            keyword_steps=("Ullman",),
            strategy="subquery",
        )
        _, db = corpus_net.query_with_report(
            "//article[//title]//author//Ullman",
            keyword_steps=("Ullman",),
            strategy="db",
        )
        # sub-query ships fewer/cheaper filters than full DB reduction
        assert sub.traffic["filters"] <= db.traffic["filters"]
