"""Exact fault-path accounting for every DHT operation.

A fixed script of ``append``, ``put``, ``append_batch``, ``get``,
``pipelined_get`` (multi-chunk), ``block_get``, ``put_object``,
``get_object``, ``delete`` and membership changes runs under hostile seeded
:class:`~repro.faults.FaultPlan`\\ s (drop, delay and duplicate rates of 0.1
plus crashes) on Pastry and Chord, with ``write_quorum`` set to ``all``
and to ``majority``.  For each op the ledger records the ``repr`` of every
:class:`~repro.dht.network.OpReceipt` field (or of the
:class:`~repro.faults.OpTimeoutError`), the meter's bytes and message
counts, the plan's stats and the plan events the op added.

The fixture ``fault_ledger.json`` pins the ledger exactly: any change to
the order of fault draws, to a metered byte, or to the order of the float
additions into ``duration_s`` shows up as a diff.  Regenerate it only for
an intended accounting change::

    PYTHONPATH=src python tests/test_fault_ledger.py > tests/fault_ledger.json
"""

import json
import os

import pytest

from repro.balance import LoadBalancer
from repro.dht.network import DhtNetwork
from repro.errors import DhtError
from repro.faults import FaultPlan, OpTimeoutError, RetryPolicy
from repro.postings.posting import Posting

LEDGER_PATH = os.path.join(os.path.dirname(__file__), "fault_ledger.json")

#: (name, overlay, write quorum, plan seed, balancer read policy or None).
#: Odd seeds read round-robin through a balancer; even seeds allow at most
#: ``seed % 3`` resends, so retries run out and both quorum rules are put
#: to the test.
SCENARIOS = [
    (
        "%s-%s-%d" % (overlay, quorum, seed),
        overlay,
        quorum,
        seed,
        "round_robin" if seed % 2 else None,
    )
    for overlay in ("pastry", "chord")
    for quorum in ("all", "majority")
    for seed in (3, 6, 10, 18)
]


def _postings(key_no, start, count):
    return [
        Posting(key_no % 4, key_no, s, s + 1, 1)
        for s in range(start, start + 2 * count, 2)
    ]


def _script():
    """The fixed op script: ``(op, args)`` tuples, interpreted below."""
    steps = []
    for rnd in range(3):
        for k in range(4):
            key = "term:k%d" % k
            steps.append(("append", key, _postings(k, 100 * rnd, 6)))
            steps.append(("append_batch", key, _postings(k, 100 * rnd + 50, 9)))
        steps.append(("put", "term:p%d" % rnd, _postings(7, 10 * rnd, 3)))
        steps.append(("put_object", "dpproot:k%d" % rnd, {"rnd": rnd}, 48 + rnd))
        for k in range(4):
            key = "term:k%d" % k
            steps.append(("get", key))
            steps.append(("pipelined_get", key, 4))
            steps.append(("block_get", "dppdata:k%d:%d" % (k, rnd), _postings(k, 0, 5)))
        steps.append(("get_object", "dpproot:k%d" % rnd))
        steps.append(("delete", "term:k%d" % rnd, Posting(rnd % 4, rnd, 0, 1, 1)))
        if rnd == 0:
            steps.append(("add_node", "peer://late"))
        if rnd == 1:
            steps.append(("remove_node", 3))
        steps.append(("repair",))
    return steps


def _receipt(receipt):
    if receipt is None:
        return None
    return [
        repr(receipt.hops),
        repr(receipt.request_bytes),
        repr(receipt.response_bytes),
        repr(receipt.duration_s),
    ]


def _run_step(net, src, step):
    """Run one script step; returns its result summary (no receipts)."""
    op = step[0]
    if op in ("append", "append_batch", "put"):
        return {"receipt": _receipt(getattr(net, op)(src, step[1], step[2]))}
    if op == "put_object":
        return {"receipt": _receipt(net.put_object(src, step[1], step[2], step[3]))}
    if op == "get":
        plist, receipt = net.get(src, step[1])
        return {"receipt": _receipt(receipt), "len": len(plist)}
    if op == "pipelined_get":
        chunks, receipt = net.pipelined_get(src, step[1], chunk_postings=step[2])
        return {"receipt": _receipt(receipt), "chunks": [len(c) for c in chunks]}
    if op == "block_get":
        return {"receipt": _receipt(net.block_get(src, step[1], _plist(step[2])))}
    if op == "get_object":
        obj, receipt = net.get_object(src, step[1])
        return {"receipt": _receipt(receipt), "obj": repr(obj)}
    if op == "delete":
        removed, receipt = net.delete(src, step[1], step[2])
        return {"receipt": _receipt(receipt), "removed": repr(removed)}
    if op == "add_node":
        from repro.storage.clustered import ClusteredIndexStore

        net.add_node(step[1], ClusteredIndexStore())
        return {}
    if op == "remove_node":
        node = net.nodes[step[1]]
        if node.alive:
            net.remove_node(node)
        return {}
    if op == "repair":
        return {"repair": repr(sorted(net.anti_entropy_repair().to_dict().items()))}
    raise AssertionError("unknown step %r" % (op,))


def _plist(postings):
    from repro.postings.plist import PostingList

    return PostingList(postings)


def run_scenario(overlay, quorum, seed, read_policy):
    """The ledger rows of one scenario, as JSON-ready lists."""
    net = DhtNetwork.create(10, replication=3, overlay=overlay)
    net.write_quorum = quorum
    if seed % 2 == 0:
        net.retry = RetryPolicy(max_retries=seed % 3)
    if read_policy is not None:
        net.balancer = LoadBalancer(
            net, read_policy=read_policy, hot_key_threshold=3
        )
    plan = FaultPlan(
        seed=seed,
        drop_rate=0.1,
        delay_rate=0.1,
        duplicate_rate=0.1,
        crash_rate=0.1,
        max_crashed=2,
        min_alive=4,
        restart_after_ops=7,
    )
    net.faults = plan
    rows = []
    for i, step in enumerate(_script()):
        alive = net.alive_nodes()
        src = alive[i % len(alive)]
        events_before = len(plan.events)
        try:
            row = _run_step(net, src, step)
        except OpTimeoutError as exc:
            row = {
                "timeout": [exc.op, exc.key, exc.attempts],
                "receipt": _receipt(exc.receipt),
            }
        except DhtError as exc:
            row = {"error": [type(exc).__name__, str(exc)]}
        row["op"] = step[0]
        row["src"] = src.peer_index
        row["bytes"] = sorted(net.meter.snapshot().items())
        row["messages"] = sorted(dict(net.meter._messages).items())
        row["stats"] = plan.stats.to_dict()
        row["events"] = [
            [idx, event, repr(detail)] for idx, event, detail in plan.events[events_before:]
        ]
        rows.append(row)
    return rows


def build_ledger():
    return {
        name: run_scenario(overlay, quorum, seed, policy)
        for name, overlay, quorum, seed, policy in SCENARIOS
    }


def _load_ledger():
    with open(LEDGER_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "name,overlay,quorum,seed,policy", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
def test_fault_ledger_matches_fixture(name, overlay, quorum, seed, policy):
    rows = json.loads(json.dumps(run_scenario(overlay, quorum, seed, policy)))
    expected = _load_ledger()[name]
    assert len(rows) == len(expected)
    for i, (got, want) in enumerate(zip(rows, expected)):
        assert got == want, "step %d (%s) diverged" % (i, want["op"])


def test_fixture_exercises_every_fault_path():
    """The pinned ledger is only useful if the hostile plans actually hit
    drops, delays, duplicates, crashes, restarts and timeouts."""
    events = set()
    timeouts = 0
    for rows in _load_ledger().values():
        for row in rows:
            events.update(event for _, event, _ in row["events"])
            timeouts += "timeout" in row
    assert {"drop", "delay", "duplicate", "crash", "restart", "crash-chunk"} <= events
    assert timeouts > 0


if __name__ == "__main__":
    # one row per line keeps fixture diffs readable
    ledger = build_ledger()
    print("{")
    for n, name in enumerate(sorted(ledger)):
        print(" %s: [" % json.dumps(name))
        rows = ledger[name]
        for i, row in enumerate(rows):
            tail = "," if i + 1 < len(rows) else ""
            print("  %s%s" % (json.dumps(row, sort_keys=True), tail))
        print(" ]%s" % ("," if n + 1 < len(ledger) else ""))
    print("}")
