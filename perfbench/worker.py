"""One workload pass in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <mode> <check>

``mode`` is ``probe`` (import only), ``plain`` (untraced), ``spans`` (span
tracer installed) or ``counts`` (call counters installed).  The worker
imports qdeg and qdeg.cli first and then writes ``ready`` to stdout, so the
parent can time interpreter start plus import.  It then times a burst of
``pace.kernel()``, so that the parent can scale that start to the reference
speed of the host.  Unless it is a probe, it builds the op list and runs it
in a closed loop (each op starts when the previous one has returned),
timing one kernel before every op and one after the last.  It writes one
JSON object to stdout.  With ``check`` = 1 every result goes through its
oracle; every pass digests the canonical outputs, so a pass that skips the
oracles must still reproduce a checked pass byte for byte.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import qdeg  # noqa: E402
import qdeg.cli  # noqa: E402,F401

sys.stdout.write("ready\n")
sys.stdout.flush()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(0, ROOT)

from perfbench import pace  # noqa: E402


def run(workload, seed, mode, check):
    tracer = counter = None
    if mode == "spans":
        from perfbench.tracing import SpanTracer
        tracer = SpanTracer().install()
    elif mode == "counts":
        from perfbench.tracing import CallCounter
        counter = CallCounter().install()
    # imported after the tracer so that names it binds are the wrappers
    from perfbench import workloads

    counts = {}
    ops = workloads.build(workload, seed, counts)
    latencies, paces, failures, wrong = [], [], [], []
    counted = {}
    digest = hashlib.sha256()
    for i, op in enumerate(ops):
        paces.append(pace.sample())
        if counter is not None:
            before = counter.snapshot()
        if tracer is not None:
            tracer.op = i
        error = None
        start = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed op is recorded, not fatal
            error = exc
        end = perf_counter()
        if tracer is not None:
            tracer.op = None
        if counter is not None:
            for key, value in counter.snapshot().items():
                counted[key] = counted.get(key, 0) + value - before[key]
        latencies.append(end - start)
        if error is not None:
            kind = type(error).__name__
            known = workloads.KNOWN_DEFECTS.get(op.label) == kind
            failures.append({"op": op.label, "error": kind, "known": known,
                             "message": str(error)[:200]})
            text = "failed " + kind
        else:
            try:
                message = op.check(result) if check else None
                text = op.canon(result)
            except Exception as exc:  # a result the check cannot read
                message = "check raised %s: %s" % (type(exc).__name__, exc)
                text = "unreadable"
            if message is not None:
                wrong.append({"op": "%s %s" % (op.kind, op.label),
                              "message": message[:300]})
        digest.update(("%s %s = %s\n" % (op.kind, op.label, text)).encode())
    paces.append(pace.sample())
    out = {
        "latencies": latencies,
        "paces": paces,
        "failures": failures,
        "wrong": wrong,
        "digest": digest.hexdigest(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counts": counts,
    }
    if tracer is not None:
        out["self_times"] = tracer.self_times()
        out["span_counts"] = tracer.counts
        out["spans"] = len(tracer.spans)
        dump_spans(tracer.spans, workload, seed)
    if counter is not None:
        out["call_counts"] = counted
    return out


def dump_spans(spans, workload, seed):
    directory = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "spans-%s-%d.jsonl" % (workload, seed))
    with open(path, "w") as fh:
        for index, (name, start, end, parent, op) in enumerate(spans):
            fh.write(json.dumps([index, name, start, end, parent, op]) + "\n")


def main(argv):
    workload, seed, mode, check = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    setup_pace = pace.burst()
    out = {} if mode == "probe" else run(workload, seed, mode, check)
    out["setup_pace"] = setup_pace
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
