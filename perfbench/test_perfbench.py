"""The benchmark's own tests: seeded generators, oracles that reject wrong
answers, span arithmetic and the metric names against BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import qdeg  # noqa: E402
from qdeg.cohomology import CohomologyDims  # noqa: E402
from qdeg.flatten import FlattenMap  # noqa: E402
from qdeg.ideals import GroebnerBasis  # noqa: E402

from perfbench import gen, pace, run, tracing, workloads  # noqa: E402

GENERATORS = [gen.ideal_variants, gen.cech_grid, gen.algebra_inputs]


@pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
def test_generators_are_deterministic_and_seeded(generator):
    assert generator(7) == generator(7)
    assert generator(7) != generator(8)


def test_seed_changes_inputs_but_not_the_amount_of_work():
    def shapes(seed):
        twists, bases, _ = gen.cech_grid(seed)
        return (sorted((n, box * level, abs(m * level)) for n, m, level, box in twists),
                [(kind, n, abs(m * level)) for kind, n, m, level in bases])
    assert shapes(1) == shapes(2)

    def supports(seed):
        return [[[e for e, _ in g] for g in v["gens"]] for v in gen.ideal_variants(seed)]
    assert supports(1) == supports(2)


def test_every_workload_has_enough_ops_for_a_p90():
    for workload in run.WORKLOADS:
        ops = workloads.build(workload, 0, {})
        index, beyond = run.percentile_rank(len(ops), 0.9)
        assert beyond >= 10, workload


# ---------------------------------------------------------------------------
# every check must reject a planted wrong answer

def _wrong(result):
    """A plausible but wrong variant of an op's result."""
    if isinstance(result, bool):
        return not result
    if isinstance(result, GroebnerBasis):
        return GroebnerBasis(result.level, result.basis[:-1])
    if isinstance(result, qdeg.QPolynomial):
        return result + qdeg.QPolynomial.constant(result.field, result.nvars, 1)
    if isinstance(result, CohomologyDims):
        return CohomologyDims((result.h[0] + 1,) + result.h[1:], result.n,
                              result.m, result.level, result.box)
    if isinstance(result, str):
        return result + " + 1"
    if isinstance(result, (int, Fraction)):
        return result + 1
    if isinstance(result, dict):
        return dict(list(result.items())[1:])
    if result is None:
        return Fraction(1)
    if isinstance(result, list):
        return result[:-1] if result else [qdeg.Monomial.one()]
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[0], int):
        if isinstance(result[1], str):          # cli: (exit code, stdout)
            return result[0], result[1] + "x"
        return result[0] + 1, result[1]         # tangent: (dim, equations)
    if isinstance(result, tuple) and isinstance(result[0], FlattenMap):
        fmap, polys = result
        return FlattenMap(tuple(2 * o for o in fmap.orders)), polys
    if isinstance(result, tuple) and len(result) == 3 and isinstance(result[2], tuple):
        shifts, moved, (coeff, mono) = result   # noether
        return shifts, moved, (coeff + 1, mono)
    if isinstance(result, tuple) and len(result) == 3:
        d, u, v = result                        # gcd
        return d, _wrong(u), v
    if isinstance(result, tuple) and len(result) == 2:
        return _wrong(result[0]), result[1]     # the two products of a gcd input
    if isinstance(result, tuple):
        return (result[0] + 1,) + result[1:]    # kunneth
    raise AssertionError("no wrong variant for %r" % type(result))


def _cheap(op):
    if op.kind.startswith("ideals."):
        return op.label.startswith(("katsura-3/", "cyclic-4/"))
    if op.kind == "cohomology.twist_dims":
        n = int(op.label.split("/")[0][1:])
        return n <= 3
    return True


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_checks_accept_the_answer_and_reject_a_planted_wrong_one(workload):
    counts = {}
    ops = workloads.build(workload, 3, counts)
    tried = 0
    for op in ops:
        if op.label in workloads.KNOWN_DEFECTS:
            continue
        if not _cheap(op):
            continue
        result = op.call()
        assert op.check(result) is None, (op.kind, op.label)
        assert op.check(_wrong(result)) is not None, (op.kind, op.label)
        tried += 1
    assert tried >= 40


def test_known_defects_still_fail_as_listed():
    ops = [op for op in workloads.build("algebra", 0, {})
           if op.label in workloads.KNOWN_DEFECTS]
    assert len(ops) == len(workloads.KNOWN_DEFECTS)
    for op in ops:
        with pytest.raises(Exception) as info:
            op.call()
        assert type(info.value).__name__ == workloads.KNOWN_DEFECTS[op.label]


# ---------------------------------------------------------------------------
# tracing

def test_self_time_subtracts_direct_children():
    tracer = tracing.SpanTracer()

    def inner():
        time.sleep(0.02)

    traced_inner = tracer.wrap("m.inner", inner)

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_inner()

    traced_outer = tracer.wrap("m.outer", outer)
    tracer.op = 0
    traced_outer()
    tracer.op = None
    traced_outer()  # outside an op: recorded, not aggregated
    times = tracer.self_times()
    assert times["m.inner"][0] == 2 and times["m.outer"][0] == 1
    assert 0.01 <= times["m.outer"][1] < 0.03
    assert 0.04 <= times["m.inner"][1] < 0.08
    name, start, end, parent, op = tracer.spans[1]
    assert name == "m.inner" and parent == 0 and op == 0


# ---------------------------------------------------------------------------
# speed yardstick

def test_scaling_divides_out_the_host_speed_around_each_op():
    ref = pace.REFERENCE_S
    latencies = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10]
    assert pace.scaled(latencies, [ref] * 11) == pytest.approx(latencies)
    # the host runs at half speed from op 5 on: the kernel takes twice as long
    slow = [ref] * 5 + [2 * ref] * 6
    scaled = pace.scaled([x if i < 5 else 2 * x for i, x in enumerate(latencies)], slow)
    assert scaled[:2] == pytest.approx(latencies[:2])
    assert scaled[-2:] == pytest.approx(latencies[-2:])
    # one preempted kernel sample does not move the factor
    spiked = [ref] * 11
    spiked[3] = 50 * ref
    assert pace.scaled(latencies, spiked) == pytest.approx(latencies)


def test_the_yardstick_runs_no_qdeg_code():
    names = set(pace.kernel.__code__.co_names) | set(vars(pace))
    assert not any("qdeg" in name for name in names)
    assert pace.sample() > 0


# ---------------------------------------------------------------------------
# metric names

def _fake_result(n):
    return {"latencies": [0.001 * (i + 1) for i in range(n)],
            "paces": [pace.REFERENCE_S] * (n + 1), "setup_pace": pace.REFERENCE_S,
            "failures": [], "wrong": [], "digest": "d", "maxrss_kb": 2048,
            "counts": {}, "self_times": {}, "span_counts": {}, "spans": 0,
            "call_counts": {}}


def test_printed_end_to_end_metrics_match_benchmark_json(monkeypatch, capsys):
    monkeypatch.setattr(run, "start_worker",
                        lambda workload, seed, mode, deadline, check=True: (0.1, _fake_result(120)))
    assert run.main(["--workload", "ideals_cech", "--seed", "5", "--seconds", "0"]) == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    names = [m["name"] for m in run.spec()["end_to_end"]]
    assert sorted(last["metrics"]) == sorted(names)
    for m in run.spec()["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0


def test_printed_per_layer_metrics_match_benchmark_json(monkeypatch, capsys):
    monkeypatch.setattr(run, "start_worker",
                        lambda workload, seed, mode, deadline, check=True: (0.1, _fake_result(120)))
    assert run.main(["--workload", "algebra", "--seed", "5", "--seconds", "0",
                     "--trace", "1"]) == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert sorted(last["metrics"]) == sorted(m["name"] for m in run.spec()["per_layer"])


def test_every_per_layer_metric_is_one_the_tracer_can_produce():
    spans = {name for name, _ in tracing.public_functions()}
    spans |= {"poly.mul", "poly.add", "poly.pow"}
    counters = set(tracing.CallCounter().cells)
    counters |= {"parser.parse.terms", "parser.print_poly.bytes",
                 "linalg.matrix_rank.entries.q", "linalg.matrix_rank.entries.fp",
                 "flatten.flatten.level_max", "poly.mul.term_pairs",
                 "cli.run.failed", "trace.wall_s", "trace.overhead_s", "trace.spans"}
    for workload in run.WORKLOADS:
        counts = {}
        workloads.build(workload, 0, counts)
        counters |= set(counts)
    for m in run.spec()["per_layer"]:
        name = m["name"]
        if name in counters:
            continue
        parts = name.split(".")
        assert parts[2] in ("calls", "self_s"), name
        assert ".".join(parts[:2]) in spans, name
        assert parts[3:] in ([], ["q"], ["fp"]), name


def test_benchmark_json_shape():
    bench = run.spec()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert len(bench["per_layer"]) <= 128


def test_without_a_source_tree_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ideals_cech", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
