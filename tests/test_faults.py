"""Fault-injection layer: corpus replays, differentials, and unit tests.

Three families:

* **corpus replays** — ``fuzz_corpus.json`` pins scenarios the fuzzer
  found interesting (crash during a DPP split, crash mid-pipelined-get,
  duplicated appends) plus the seeds behind historical data-loss bugs;
  each entry re-runs under the fuzzer's invariants and re-asserts the
  marker that made it interesting.
* **zero-fault differential** — installing an all-zero FaultPlan must
  leave answers, query reports, and meter snapshots byte-identical to
  the plain no-plan path, on Pastry and Chord alike.
* **unit tests** — duplicated messages never double receipts or stored
  postings, retries back off exponentially (capped) in simulated time,
  majority quorums tolerate a deaf replica that anti-entropy later
  catches up, and queries degrade to partial answers instead of raising.
"""

import dataclasses
import json
import os

import pytest

from repro.faults import FaultPlan, OpTimeoutError, RetryPolicy
from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.postings.posting import Posting
from repro.sim.fuzz import FuzzConfig, FuzzResult, _Iteration, repro_command

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "fuzz_corpus.json")

with open(CORPUS_PATH) as fh:
    CORPUS = json.load(fh)


def _publish_corpus(net, docs=5):
    for i in range(docs):
        net.peers[i % 3].publish(
            "<log><s>e%d</s><s>f%d</s></log>" % (i, i), uri="u:%d" % i
        )


class TestCorpus:
    @pytest.mark.parametrize(
        "entry", CORPUS, ids=[entry["name"] for entry in CORPUS]
    )
    def test_replay(self, entry, monkeypatch):
        if entry["mode"] == "fuzz":
            self._replay_fuzz(entry, monkeypatch)
        elif entry["mode"] == "scripted-crash-chunk":
            self._replay_crash_chunk(entry)
        else:  # pragma: no cover - corpus schema guard
            pytest.fail("unknown corpus mode %r" % entry["mode"])

    def _replay_fuzz(self, entry, monkeypatch):
        import repro.index.dpp as dppmod

        state = {"crash_during_split": False}
        orig_split = dppmod.DppIndex._split_block

        def counting_split(self, owner, root, node_entry):
            plan = self.net.faults
            before = plan.stats.crashes if plan else 0
            result = orig_split(self, owner, root, node_entry)
            if plan and plan.stats.crashes > before:
                state["crash_during_split"] = True
            return result

        monkeypatch.setattr(dppmod.DppIndex, "_split_block", counting_split)
        cfg = FuzzConfig(**entry["config"])
        iteration = _Iteration(entry["seed"], cfg, FuzzResult())
        iteration.run()  # raises FuzzFailure (with repro command) on regression
        expect = entry.get("expect", {})
        if "min_duplicates" in expect:
            assert iteration.plan.stats.duplicates >= expect["min_duplicates"]
        if expect.get("crash_during_split"):
            assert state["crash_during_split"]
        if "min_serves" in expect:
            assert iteration.result.actions.get("serve", 0) >= expect["min_serves"]
        if "min_serve_coalesced" in expect:
            assert iteration.served_coalesced >= expect["min_serve_coalesced"]
        balance = iteration.system.balance.summary()
        if "min_promotions" in expect:
            assert balance["promotions"] >= expect["min_promotions"]
        if "min_migrations" in expect:
            assert balance["migrations"] >= expect["min_migrations"]
        if "min_fanout_reads" in expect:
            assert balance["fanout_reads"] >= expect["min_fanout_reads"]
        if "min_pruned_acked" in expect:
            assert iteration.pruned_acked >= expect["min_pruned_acked"]
        if "min_view_dematerializations" in expect:
            views = iteration.system.views
            assert views is not None
            assert (
                views.dematerializations
                >= expect["min_view_dematerializations"]
            )

    def _replay_crash_chunk(self, entry):
        cfg = entry["config"]
        net = KadopNetwork.create(
            num_peers=cfg["num_peers"],
            config=KadopConfig(
                replication=cfg["replication"],
                use_dpp=False,
                chunk_postings=cfg["chunk_postings"],
            ),
            seed=entry["seed"],
        )
        plan = net.install_faults(FaultPlan(seed=entry["seed"]))
        _publish_corpus(net)
        baseline = {a.bindings for a in net.query("//log//s")}
        assert baseline
        start = plan.op_count
        plan.script.update(
            {start + k: "crash-chunk:0" for k in range(12)}
        )
        answers, report = net.query_with_report("//log//s")
        assert {a.bindings for a in answers} == baseline
        assert report.complete
        assert plan.stats.crashes >= 1
        assert any(event == "crash-chunk" for _, event, _ in plan.events)

    def test_repro_command_round_trips_every_knob(self):
        cfg = FuzzConfig(
            steps=9,
            num_peers=11,
            replication=2,
            crash_rate=0.07,
            drop_rate=0.03,
            delay_rate=0.01,
            duplicate_rate=0.04,
            overlay="chord",
            write_quorum="majority",
            serve_weight=2,
            store_backend="lsm",
            bulk_publish_weight=3,
            unpublish_weight=2,
            compact_weight=4,
        )
        command = repro_command(4321, cfg)
        # the printed line must pin *every* knob that shapes the scenario,
        # or replaying a failure reproduces a different run
        for flag in (
            "--seed 4321",
            "--iterations 1",
            "--steps 9",
            "--peers 11",
            "--replication 2",
            "--crash-rate 0.07",
            "--drop-rate 0.03",
            "--delay-rate 0.01",
            "--duplicate-rate 0.04",
            "--overlay chord",
            "--write-quorum majority",
            "--serve-weight 2",
            "--store-backend lsm",
            "--bulk-publish-weight 3",
            "--unpublish-weight 2",
            "--compact-weight 4",
        ):
            assert flag in command, flag


class TestZeroFaultDifferential:
    @pytest.mark.parametrize("overlay", ["pastry", "chord"])
    @pytest.mark.parametrize("use_dpp", [False, True], ids=["plain", "dpp"])
    def test_none_plan_is_byte_identical(self, overlay, use_dpp):
        def build(with_plan):
            config = KadopConfig(
                replication=3, overlay=overlay, use_dpp=use_dpp,
                dpp_block_entries=4,
            )
            net = KadopNetwork.create(num_peers=8, config=config, seed=11)
            if with_plan:
                net.install_faults(FaultPlan.none(seed=11))
            _publish_corpus(net, docs=6)
            results = []
            for query_text in ("//log//s", "//log"):
                answers, report = net.query_with_report(query_text)
                results.append((sorted(a.bindings for a in answers), report))
            return net, results

        plain_net, plain = build(with_plan=False)
        fault_net, faulted = build(with_plan=True)
        for (answers_a, report_a), (answers_b, report_b) in zip(plain, faulted):
            assert answers_a == answers_b
            assert dataclasses.asdict(report_a) == dataclasses.asdict(report_b)
        assert plain_net.net.meter.snapshot() == fault_net.net.meter.snapshot()
        plan = fault_net.net.faults
        assert plan.stats.to_dict() == {
            "ops": plan.stats.ops,  # consulted on every op...
            "drops": 0, "delays": 0, "duplicates": 0,  # ...never fires
            "crashes": 0, "restarts": 0, "retries": 0, "timeouts": 0,
        }
        assert plan.stats.ops > 0


class TestDuplicateAccounting:
    def _appended(self, script):
        net = KadopNetwork.create(
            num_peers=6, config=KadopConfig(replication=3), seed=5
        )
        plan = net.install_faults(FaultPlan(seed=5, script=script or {}))
        src = net.peers[0].node
        posting = Posting(0, 0, 1, 2, 0)
        receipt = net.net.append(src, "elem:dup", [posting])
        owner = net.net.owner_of("elem:dup")
        return net, plan, receipt, owner.store.get("elem:dup")

    def test_duplicated_append_charges_wire_not_receipt(self):
        _, _, clean_receipt, clean_list = self._appended(script=None)
        net, plan, dup_receipt, dup_list = self._appended(script={0: "duplicate"})
        assert plan.stats.duplicates == 1
        # idempotent delivery: the second copy never lands in the store
        assert dup_list.items() == clean_list.items()
        # ... and never double-bills the op's receipt (DhtNetwork._settle
        # meters the copy only), even though the wire carried it twice
        assert dup_receipt.request_bytes == clean_receipt.request_bytes
        assert dup_receipt.response_bytes == clean_receipt.response_bytes

    def test_duplicated_append_is_metered_as_real_traffic(self):
        _, clean_plan, _, _ = self._appended(script=None)
        clean_net, _, _, _ = self._appended(script=None)
        dup_net, _, _, _ = self._appended(script={0: "duplicate"})
        clean_bytes = clean_net.net.meter.bytes("postings")
        dup_bytes = dup_net.net.meter.bytes("postings")
        assert dup_bytes > clean_bytes  # the wire copy is real transmission


class TestRetryPolicy:
    def test_timeout_carries_attempts_and_backoff(self):
        net = KadopNetwork.create(
            num_peers=6, config=KadopConfig(replication=2), seed=9
        )
        net.install_faults(FaultPlan(seed=9, drop_rate=1.0))
        with pytest.raises(OpTimeoutError) as excinfo:
            net.net.locate(net.peers[0].node, "elem:gone")
        exc = excinfo.value
        retry = net.net.retry
        assert exc.key == "elem:gone"
        assert exc.op == "locate"
        assert exc.attempts == retry.max_retries + 1
        # every failed attempt waited out the op timeout plus its capped
        # exponential backoff, charged in *simulated* time on the receipt
        expected_wait = sum(
            retry.timeout_s + retry.backoff(a)
            for a in range(retry.max_retries + 1)
        )
        assert exc.receipt.duration_s >= expected_wait

    def test_backoff_cap(self):
        policy = RetryPolicy(backoff_s=0.05, backoff_cap_s=0.2, max_retries=8)
        waits = [policy.backoff(a) for a in range(9)]
        assert waits[0] == pytest.approx(0.05)
        assert waits[1] == pytest.approx(0.1)
        assert max(waits) == pytest.approx(0.2)
        assert waits[-1] == pytest.approx(0.2)


class TestWriteQuorum:
    def _net(self, quorum):
        net = KadopNetwork.create(
            num_peers=6,
            config=KadopConfig(replication=3, write_quorum=quorum),
            seed=13,
        )
        return net, net.install_faults(FaultPlan(seed=13))

    def test_majority_tolerates_one_deaf_replica(self, monkeypatch):
        net, plan = self._net("majority")
        deaf = {1}  # second backup never acks

        def replica_fate(idx, attempt, replica_index):
            return "drop" if replica_index in deaf else "deliver"

        monkeypatch.setattr(plan, "replica_fate", replica_fate)
        posting = Posting(0, 0, 1, 2, 0)
        net.net.append(net.peers[0].node, "elem:q", [posting])  # must not raise
        holders = [
            n for n in net.net.alive_nodes() if "elem:q" in n.store
        ]
        assert len(holders) == 2  # owner + one acked backup
        # anti-entropy catches the deaf replica up afterwards
        report = net.repair()
        assert report.copies_made >= 1
        holders = [n for n in net.net.alive_nodes() if "elem:q" in n.store]
        assert len(holders) == 3
        assert not report.lost_keys

    def test_all_quorum_fails_on_deaf_replica(self, monkeypatch):
        net, plan = self._net("all")

        def replica_fate(idx, attempt, replica_index):
            return "drop" if replica_index == 1 else "deliver"

        monkeypatch.setattr(plan, "replica_fate", replica_fate)
        with pytest.raises(OpTimeoutError):
            net.net.append(net.peers[0].node, "elem:q", [Posting(0, 0, 1, 2, 0)])


class TestGracefulDegradation:
    def test_unreachable_term_degrades_not_raises(self):
        net = KadopNetwork.create(
            num_peers=6, config=KadopConfig(replication=1), seed=21
        )
        plan = net.install_faults(FaultPlan(seed=21))
        _publish_corpus(net, docs=4)
        # from here on every message is lost: each term fetch exhausts its
        # retries, and the query must degrade instead of raising
        plan.drop_rate = 1.0
        answers, report = net.query_with_report("//log//s")
        assert not report.complete
        assert report.unreachable_keys
        assert answers == []  # partial answer, never an exception
        assert plan.stats.timeouts >= 1


class TestSchedulerJitter:
    def test_task_delay_is_deterministic_and_rate_gated(self):
        jittered = FaultPlan(seed=3, task_jitter_rate=1.0, task_jitter_s=0.02)
        twin = FaultPlan(seed=3, task_jitter_rate=1.0, task_jitter_s=0.02)
        other = FaultPlan(seed=4, task_jitter_rate=1.0, task_jitter_s=0.02)
        off = FaultPlan(seed=3, task_jitter_rate=0.0)
        delays = [jittered.task_delay("xfer", i) for i in range(20)]
        assert delays == [twin.task_delay("xfer", i) for i in range(20)]
        assert delays != [other.task_delay("xfer", i) for i in range(20)]
        assert all(0.0 <= d <= 0.02 for d in delays)
        assert any(d > 0.0 for d in delays)
        assert all(off.task_delay("xfer", i) == 0.0 for i in range(20))

    def test_scheduler_charges_jitter_in_simulated_time(self):
        from repro.sim.tasks import Scheduler

        def timeline(plan):
            scheduler = Scheduler()
            if plan is not None:
                scheduler.install_faults(plan)
            resource = scheduler.add_resource("link", 1)
            for i in range(4):
                scheduler.add_task("xfer", 0.1, resources=(resource,))
            return scheduler.run()

        plain = timeline(None)
        jittered = timeline(
            FaultPlan(seed=7, task_jitter_rate=1.0, task_jitter_s=0.05)
        )
        assert jittered > plain  # the stretch lands on the clock
        assert jittered == timeline(
            FaultPlan(seed=7, task_jitter_rate=1.0, task_jitter_s=0.05)
        )
