"""qdeg benchmark entry point.

    python3 perfbench/run.py --workload {ideals_cech,algebra} --seed N \
        --seconds S --trace {0,1}

Run from the root of a qdeg source tree (the package is imported from
``src/``).  Every pass of a workload runs in a fresh interpreter
(``perfbench/worker.py``), so imports and qdeg's caches start cold.

``--trace 0`` runs rounds of three import-only starts and one untraced
pass until ``--seconds`` is used up (at least one round), checks every
result and prints the end-to-end metrics.  ``--trace 1`` alternates untraced passes
and passes under the span tracer for ``--seconds`` (at least one of each),
adds one pass under the call counters, and prints the per-layer metrics
with the tracing overhead.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, ROOT)

from perfbench import pace  # noqa: E402

WORKLOADS = ("ideals_cech", "algebra")
DEFAULT_SEED = 0
# Import-only starts before every pass; spread over the whole run, their
# median does not hang on one slow phase of the host.
PROBES_PER_ROUND = 3
# Each run, traced or not, must finish well inside three minutes.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def recorded_digests():
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)


def start_worker(workload, seed, mode, deadline, check=True):
    """Run one worker; returns (seconds until it was ready, its JSON
    result)."""
    env = dict(os.environ)
    env.pop("QDEG_THREADS", None)  # users see the default thread count
    begin = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, workload, str(seed), mode, str(int(check))],
        cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - begin
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("%s pass of %s ran past the time limit" % (mode, workload))
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError("worker (%s, %s) exited with %d:\n%s"
                         % (workload, mode, proc.returncode, err[-2000:]))
    return ready, json.loads(out.splitlines()[-1])


def percentile_rank(n, q):
    """Nearest-rank index of the q-quantile and the samples beyond it."""
    index = max(0, math.ceil(q * n) - 1)
    return index, n - 1 - index


def verdict(results, seed):
    """(correct, attempted, failed, notes, output digest) over the passes
    of one run."""
    notes = []
    attempted = sum(len(r["latencies"]) for r in results)
    failed = sum(len(r["failures"]) + len(r["wrong"]) for r in results)
    correct = True
    for r in results:
        for w in r["wrong"]:
            correct = False
            notes.append("WRONG %s: %s" % (w["op"], w["message"]))
        for f in r["failures"]:
            if not f["known"]:
                correct = False
            notes.append("%s %s: %s %s" % ("known defect" if f["known"] else "FAILED",
                                           f["op"], f["error"], f["message"]))
    digests = {r["digest"] for r in results}
    if len(digests) != 1:
        correct = False
        notes.append("passes of one seed disagree on their outputs")
    return correct, attempted, failed, sorted(set(notes)), digests.pop()


def check_digest(workload, seed, digest, notes):
    if seed != DEFAULT_SEED:
        return True
    want = recorded_digests().get(workload)
    if digest != want:
        notes.append("output digest %s differs from the recorded %s" % (digest, want))
        return False
    return True


def passes(workload, seed, modes, seconds, deadline, probes=0):
    """Run rounds until ``seconds`` are used up (at least one round).  A
    round is ``probes`` import-only starts, then one fresh-process pass per
    mode.  The first round checks every answer; later rounds must reproduce
    its output digest.  Returns the results per mode and, for every start,
    the seconds until the worker was ready scaled to the reference speed."""
    budget_end = time.monotonic() + seconds
    results = {mode: [] for mode in modes}
    setups, rounds = [], []

    def start(mode, check=True):
        ready, result = start_worker(workload, seed, mode, deadline, check)
        setups.append(ready * pace.REFERENCE_S / result["setup_pace"])
        return result

    while True:
        begin = time.monotonic()
        for _ in range(probes):
            start("probe")
        for mode in modes:
            results[mode].append(start(mode, check=not rounds))
        rounds.append(time.monotonic() - begin)
        if time.monotonic() + statistics.median(rounds) > budget_end:
            return results, setups


def op_latencies(results):
    """Per op, the median over the passes of its latency scaled to the
    reference speed of the host (``pace.scaled``)."""
    return [statistics.median(column) for column in
            zip(*(pace.scaled(r["latencies"], r["paces"]) for r in results))]


def end_to_end(workload, seed, seconds):
    deadline = time.monotonic() + RUN_LIMIT_S
    runs, setups = passes(workload, seed, ("plain",), seconds, deadline,
                          probes=PROBES_PER_ROUND)
    results = runs["plain"]
    correct, attempted, failed, notes, digest = verdict(results, seed)
    correct = check_digest(workload, seed, digest, notes) and correct
    scaled = op_latencies(results)
    ordered = sorted(scaled)
    index, beyond = percentile_rank(len(ordered), 0.9)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(scaled), "s"),
        "op_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "op_p90_ms": (ordered[index] * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in results) / 1024, "MB"),
    }
    kernel_ms = statistics.median(p for r in results for p in r["paces"]) * 1e3
    lines = [
        "workload %s, seed %d: %d pass(es) of %d ops, closed loop, one client"
        % (workload, seed, len(results), len(scaled)),
        "  times are scaled to the reference speed (pace kernel %.3f ms; %.3f ms in this run)"
        % (pace.REFERENCE_S * 1e3, kernel_ms),
        "  setup_s      %10.4f s    median of %d cold starts (interpreter + import qdeg, qdeg.cli)"
        % (metrics["setup_s"][0], len(setups)),
        "  wall_s       %10.4f s    sum over the %d ops of each op's median latency over the passes"
        % (metrics["wall_s"][0], len(scaled)),
        "  op_p50_ms    %10.4f ms   median of the %d per-op latencies"
        % (metrics["op_p50_ms"][0], len(scaled)),
        "  op_p90_ms    %10.4f ms   p90 of the %d per-op latencies, %d beyond it"
        % (metrics["op_p90_ms"][0], len(scaled), beyond),
        "  peak_rss_mb  %10.4f MB   median ru_maxrss over the passes"
        % metrics["peak_rss_mb"][0],
        "  failed_ratio %10.4f      %d failed of %d attempted"
        % (failed / attempted, failed, attempted),
        "  output digest %s" % digest,
    ] + ["  " + n for n in notes]
    return correct, attempted, failed, metrics, lines


def per_layer(workload, seed, seconds, names):
    deadline = time.monotonic() + RUN_LIMIT_S
    runs, _ = passes(workload, seed, ("plain", "spans"), seconds, deadline)
    _, counted = start_worker(workload, seed, "counts", deadline)
    everything = runs["plain"] + runs["spans"] + [counted]
    correct, attempted, failed, notes, digest = verdict(everything, seed)
    correct = check_digest(workload, seed, digest, notes) and correct

    values = {}
    for traced in runs["spans"]:
        for span, (calls, self_s) in traced["self_times"].items():
            module, _, rest = span.partition(".")
            function, _, tag = rest.partition(".")
            suffix = "." + tag if tag else ""
            values["%s.%s.calls%s" % (module, function, suffix)] = calls
            key = "%s.%s.self_s%s" % (module, function, suffix)
            values[key] = min(values.get(key, self_s), self_s)
    traced = runs["spans"][0]
    values.update(traced["span_counts"])
    values.update(traced["counts"])
    values.update(counted["call_counts"])
    values["cli.run.failed"] = sum(
        1 for f in traced["failures"] if f["op"].startswith("cli.run"))
    plain_wall = sum(op_latencies(runs["plain"]))
    traced_wall = sum(op_latencies(runs["spans"]))
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.spans"] = traced["spans"]

    metrics = {m["name"]: (values.get(m["name"], 0), m["unit"]) for m in names}
    lines = ["workload %s, seed %d: per-layer metrics, best of %d traced pass(es)"
             % (workload, seed, len(runs["spans"])),
             "  tracing overhead %.4f s (traced wall %.4f s - untraced wall %.4f s, %d spans)"
             % (traced_wall - plain_wall, traced_wall, plain_wall, traced["spans"])]
    for name, (value, unit) in metrics.items():
        if value:
            lines.append("  %-48s %14.6g %s" % (name, value, unit))
    lines += ["  " + n for n in notes]
    return correct, attempted, failed, metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qdeg", "__init__.py")):
        print("perfbench: no qdeg source tree at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    try:
        bench = spec()
        if args.trace:
            result = per_layer(args.workload, args.seed, args.seconds,
                               bench["per_layer"])
        else:
            result = end_to_end(args.workload, args.seed, args.seconds)
    except (BenchError, OSError, ValueError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    correct, attempted, failed, metrics, lines = result
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
