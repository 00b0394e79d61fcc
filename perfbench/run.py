"""End-to-end benchmark of the KadoP reproduction, with per-layer attribution.

Run from the repository root (nothing needs installing or building):

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Workloads: ``ingest``, ``serve`` and ``dpp-query`` (see README.md here).
A run generates its inputs from ``--seed``, sets up several times, then
repeats timed passes over the same inputs until ``--seconds`` of pass time
have been measured.  Every answer is checked against the centralized
oracle.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
one untraced pass, then traced passes, and reports per-layer metrics.

Standard output: one report line (fingerprint, error rate, pass count),
then, as the last line, ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3

#: percentiles a latency may be reported at, lowest first
PERCENTILES = (50, 90, 99, 99.9)

#: samples a reported percentile needs beyond it
MIN_BEYOND = 10


def samples_beyond(count, p):
    """Samples strictly above the nearest-rank ``p``-th percentile."""
    from repro.obs.metrics import quantile_rank

    return count - quantile_rank(p / 100.0, count)


def highest_percentile(count):
    """The highest of :data:`PERCENTILES` with :data:`MIN_BEYOND` samples
    beyond it, or None when even the median has fewer."""
    allowed = [p for p in PERCENTILES if samples_beyond(count, p) >= MIN_BEYOND]
    return allowed[-1] if allowed else None


def percentile(samples, p):
    """Nearest-rank ``p``-th percentile; refuses one with too few samples
    beyond it."""
    from repro.obs.metrics import quantile_exact

    top = highest_percentile(len(samples))
    if top is None or p > top:
        raise ValueError(
            "p%g needs %d samples beyond it; %d samples allow at most p%s"
            % (p, MIN_BEYOND, len(samples), top)
        )
    return quantile_exact(sorted(samples), p / 100.0)


def git_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(seed):
    from repro.postings import kernels

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    env = os.environ.get("REPRO_KERNELS") or None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": kernels.backend_name(),
        "REPRO_KERNELS": env,
        "kernels_overridden": (
            kernels.backend_name() != kernels.resolve("auto").NAME
        ),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
    }


def _timed_setup(workload, inputs):
    gc.collect()
    start = time.perf_counter()
    net = workload.setup(inputs)
    return net, time.perf_counter() - start


def measure(workload, net, inputs):
    """Execute one pass: ``(raw, wall_s, wire_bytes, messages)``."""
    meter = net.meter
    bytes0, msgs0 = meter.bytes(), meter.messages()
    start = time.perf_counter()
    raw = workload.execute(net, inputs)
    wall_s = time.perf_counter() - start
    return raw, wall_s, meter.bytes() - bytes0, meter.messages() - msgs0


def run_plain(workload, inputs, seconds):
    """Untraced run: ``(metrics, attempted, failed, report)``."""
    setup_s = []
    for _ in range(SETUP_REPS):
        net = None  # let the previous network go before building the next
        net, took = _timed_setup(workload, inputs)
        setup_s.append(took)
    oracle = None
    passes = []
    attempted = failed = 0
    while not passes or sum(p.wall_s for p in passes) < seconds:
        if passes and workload.fresh_network_per_pass:
            net = None
            net, took = _timed_setup(workload, inputs)
            setup_s.append(took)
        gc.collect()
        result = workload.summarize(*measure(workload, net, inputs))
        if oracle is None:
            oracle = workload.oracle(net, inputs)
        failed += workload.failures(net, result, inputs, oracle)
        attempted += workload.attempted(result)
        # drop the checked answer sets, so that peak memory does not grow
        # with the number of passes
        result.answers = result.complete = None
        passes.append(result)
    first = passes[0]
    rates = [p.ops / p.wall_s for p in passes]
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
        "sim_latency_p50_s": (percentile(first.latencies, 50), "s"),
        "sim_latency_p90_s": (percentile(first.latencies, 90), "s"),
        "sim_ops_per_s": (first.ops / first.sim_s, "1/s"),
        "wire_bytes_per_op": (first.wire_bytes / first.ops, "B"),
        "messages_per_op": (first.messages / first.ops, "count"),
    }
    report = {
        "passes": len(passes),
        "pass_ops_per_s": rates,
        "setups": len(setup_s),
        "deterministic_passes": all(p.digest == first.digest for p in passes),
        "latency_samples": len(first.latencies),
        "highest_percentile": highest_percentile(len(first.latencies)),
    }
    return (
        {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        attempted,
        failed,
        report,
    )


def run_traced(workload, inputs, seconds):
    """Traced run: ``(metrics, attempted, failed, report)``.

    One untraced pass, set-up included, gives the reference outputs and
    wall time; traced passes repeat until ``seconds`` of traced time.
    Every traced pass must reproduce the untraced pass's digest."""
    from layers import EXPECTED_SITES, LayerTracer, SpanRecorder, layer_metrics

    start = time.perf_counter()
    net = workload.setup(inputs)
    measured = measure(workload, net, inputs)
    plain_wall_s = time.perf_counter() - start
    reference = workload.summarize(*measured)
    oracle = workload.oracle(net, inputs)
    failed = workload.failures(net, reference, inputs, oracle)
    attempted = workload.attempted(reference)
    recorder = SpanRecorder()
    traced_wall_s = []
    identical = True
    while sum(traced_wall_s) < seconds:
        net = None
        with LayerTracer(recorder):
            start = time.perf_counter()
            recorder.begin()
            net = workload.setup(inputs)
            measured = measure(workload, net, inputs)
            recorder.end("other")
            traced_wall_s.append(time.perf_counter() - start)
        result = workload.summarize(*measured)
        recorder.counts.update(result.counts)
        failed += workload.failures(net, result, inputs, oracle)
        attempted += workload.attempted(result)
        identical = identical and result.digest == reference.digest
    passes = len(traced_wall_s)
    metrics = layer_metrics(
        recorder,
        passes,
        queries=len(reference.answers),
        traced_wall_s=statistics.median(traced_wall_s),
        plain_wall_s=plain_wall_s,
    )
    report = {
        "passes": passes,
        "traced_identical_to_untraced": identical,
        "unexercised_sites": [
            site
            for site in EXPECTED_SITES[workload.name]
            if recorder.site_calls[site] < passes
        ],
    }
    return metrics, attempted, failed, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("ingest", "serve", "dpp-query")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    run = run_traced if args.trace else run_plain
    metrics, attempted, failed, report = run(workload, inputs, args.seconds)
    checks_ok = (
        report.get("deterministic_passes", True)
        and report.get("traced_identical_to_untraced", True)
        and not report.get("unexercised_sites")
    )
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "fingerprint": fingerprint(args.seed),
        "error_rate": failed / attempted,
    }
    info.update(report)
    if info["fingerprint"]["kernels_overridden"]:
        print(
            "warning: REPRO_KERNELS=%s overrides the default kernel backend"
            % info["fingerprint"]["REPRO_KERNELS"],
            file=sys.stderr,
        )
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0 and checks_ok,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
