"""Tests for the FLWOR (XQuery subset) compiler."""

import pytest

from repro.errors import QueryParseError
from repro.query.xquery import compile_xquery, _split_top_level


class TestCompilation:
    def test_simple_for_return(self):
        compiled = compile_xquery("for $a in //article return $a")
        assert len(compiled.pattern) == 1
        assert compiled.pattern.root.label == "article"
        assert compiled.output_node_id == compiled.variables["$a"]

    def test_return_path_adds_branch(self):
        compiled = compile_xquery("for $a in //article return $a//title")
        labels = {n.label for n in compiled.pattern.nodes()}
        assert labels == {"article", "title"}
        out = next(
            n for n in compiled.pattern.nodes() if n.node_id == compiled.output_node_id
        )
        assert out.label == "title"

    def test_where_contains(self):
        compiled = compile_xquery(
            'for $a in //article where $a//author contains "Ullman" return $a'
        )
        words = [n.word for n in compiled.pattern.word_nodes()]
        assert words == ["ullman"]

    def test_where_existence(self):
        compiled = compile_xquery(
            "for $a in //article where $a//title return $a"
        )
        assert {n.label for n in compiled.pattern.nodes()} == {"article", "title"}

    def test_multiple_bindings_relative(self):
        compiled = compile_xquery(
            "for $a in //article, $t in $a//title "
            'where $t contains "xml" return $t'
        )
        out = next(
            n for n in compiled.pattern.nodes() if n.node_id == compiled.output_node_id
        )
        assert out.label == "title"
        assert compiled.variables["$t"] == compiled.output_node_id

    def test_conjunction(self):
        compiled = compile_xquery(
            "for $a in //article where $a//title contains 'system' "
            "and $a//abstract contains 'interface' return $a"
        )
        labels = [n.label for n in compiled.pattern.nodes() if n.label]
        assert sorted(labels) == ["abstract", "article", "title"]

    @pytest.mark.parametrize(
        "bad",
        [
            "not a query",
            "for $a in //x",  # no return
            "for $a in //x return $b",  # unbound
            "for $a in //x where $b//y return $a",  # unbound in where
            "for $a in //x, $a in //y return $a",  # rebound
            "for $a in $b//x return $a",  # anchor unbound
            "for $a in //x where $a return $a",  # vacuous condition
            "for $a in //x, $b in //y return $a",  # two absolute roots
            "for $x in //a,$y in $x,//b where $y/c return $x",  # bare var
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(QueryParseError):
            compile_xquery(bad)

    def test_split_top_level_respects_brackets(self):
        parts = _split_top_level("a[x and y] and b", " and ")
        assert [p.strip() for p in parts] == ["a[x and y]", "b"]
        assert _split_top_level("'a,b',c", ",") == ["'a,b'", "c"]


class TestExecution:
    @pytest.fixture(scope="class")
    def net(self):
        from repro.kadop.config import KadopConfig
        from repro.kadop.system import KadopNetwork

        net = KadopNetwork.create(num_peers=6, config=KadopConfig(replication=1))
        net.peers[0].publish(
            "<lib>"
            "<article><title>xml systems</title><author>ullman</author></article>"
            "<article><title>databases</title><author>smith</author></article>"
            "</lib>",
            uri="u:1",
        )
        net.peers[1].publish(
            "<lib><article><title>xml theory</title>"
            "<author>jones</author></article></lib>",
            uri="u:2",
        )
        return net

    def test_projection(self, net):
        projected, report = net.xquery(
            "for $a in //article where $a//title contains 'xml' return $a//title"
        )
        assert len(projected) == 2
        assert {p[0] for p in projected} == {0, 1}
        assert report.candidate_docs == 2

    def test_equivalent_to_xpath(self, net):
        projected, _ = net.xquery(
            "for $a in //article where $a//author contains 'ullman' return $a"
        )
        xpath = net.query('//article[. contains "ullman"]')
        assert len(projected) == len({a.doc_id for a in xpath}) == 1

    def test_duplicates_collapsed(self, net):
        # two authors under one article must yield the article once
        projected, _ = net.xquery(
            "for $a in //lib where $a//author return $a"
        )
        assert len(projected) == 2  # one lib element per document

    def test_relative_binding_execution(self, net):
        projected, _ = net.xquery(
            "for $a in //article, $t in $a//title where $t contains 'theory' "
            "return $t"
        )
        assert len(projected) == 1
        assert projected[0][0] == 1
