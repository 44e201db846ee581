"""Tests of the benchmark itself: inputs, references, tracer and result line.

Run with ``python -m pytest bench``.  Workers are started on small op lists,
so the whole file takes seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, package_modules, read_trace, self_times, summarize  # noqa: E402

SMALL = {
    "axioms": workloads.axioms_ops(max_leaves=4),
    "hom": workloads.hom_ops(3, count=8),
    "criteria": workloads.criteria_ops(3, count=300),
}


def plain(workload):
    return run.run_worker({"workload": workload, "ops": SMALL[workload], "seconds": None})


def traced(workload):
    return run.run_worker({"workload": workload, "ops": SMALL[workload],
                           "seconds": None, "trace": True})


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def test_generator_repeats_for_a_seed():
    for workload in ("hom", "criteria"):
        assert workloads.make_ops(workload, 11) == workloads.make_ops(workload, 11)
        assert workloads.make_ops(workload, 11) != workloads.make_ops(workload, 12)
    assert workloads.axioms_ops() == workloads.axioms_ops()


def test_axiom_sweep_matches_the_cli():
    from freeskew import cli, fsk
    from freeskew.words import format_object

    ops = workloads.axioms_ops(max_leaves=4)
    words = ops["words"]
    expected = [[k, list(map(format_object, objs))]
                for k, (_, slots) in enumerate(workloads.AXIOMS)
                for objs in ([()] if slots == 0 else cli._object_tuples(4, slots))]
    assert [[k, [words[j] for j in ids]] for k, ids in ops["calls"]] == expected
    assert all(hasattr(fsk, "axiom_" + name) for name, _ in workloads.AXIOMS)

    full = workloads.axioms_ops()
    counts = [sum(1 for k, _ in full["calls"] if k == a) for a in range(len(workloads.AXIOMS))]
    assert tuple(counts) == workloads.AXIOM_TUPLES_AT_7


def test_criteria_inputs_give_both_verdicts():
    result = plain("criteria")
    assert not run.failures("criteria", SMALL["criteria"], result)
    props = workloads.input_properties("criteria", SMALL["criteria"], result["outputs"])
    assert 0.1 < props["true_share"] < 0.9
    assert 0 < props["bijection_rejected_share"] < 0.5


# ---------------------------------------------------------------------------
# references and fail_rate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["hom", "criteria"])
def test_wrong_output_counts_as_failed(workload):
    ops = SMALL[workload]
    result = plain(workload)
    assert run.failures(workload, ops, result) == set()

    outputs = list(result["outputs"])
    if workload == "hom":
        # op 1 is initial -> terminal: shift one image of the only morphism
        head, _, images = outputs[1][0].rpartition(" ; ")
        values = workloads.parse_values(images)
        outputs[1] = [f"{head} ; {workloads.format_values(values[:-1] + (values[-1] - 1,))}"]
    else:
        i = next(i for i, out in enumerate(outputs) if out[0][0] == "true")
        outputs[i] = [["true", "false", "true"], outputs[i][1]]
    wrong = dict(result, outputs=outputs)
    bad = run.failures(workload, ops, wrong)
    assert len(bad) == 1
    assert len(run.failures(workload, ops, dict(wrong, errors=[[2, "boom"]]))) == 2


def test_counit_and_colax_closed_forms():
    from freeskew import LElement, counit_at, h_colax
    from freeskew.words import format_morphism, parse_object

    word = "((I (X I)) (X X))"
    assert format_morphism(counit_at(parse_object(word))) == workloads.counit_line(word)
    for x, i, y in (("t3", 2, "l2"), ("l2", 1, "t1"), ("t1", 1, "l0")):
        line = format_morphism(h_colax(LElement.from_text(x), i, LElement.from_text(y)))
        assert line == workloads.counit_line(workloads.colax_target(x, i, y))


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_self_time_on_a_span_nest():
    # root [0, 100] holds a [10, 40] and b [50, 90]; a holds c [15, 25]
    parent = [-1, 0, 1, 0]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 90]
    assert self_times(parent, start, end) == [30, 20, 10, 40]


def test_tracer_records_spans_and_restores_bindings(tmp_path):
    ticks = iter(range(0, 1000, 5))
    tracer = Tracer(clock=lambda: next(ticks))

    leaf = tracer.wrap(lambda: "x", "toy.leaf")
    outer = tracer.wrap(lambda: leaf() + leaf(), "toy.outer")
    assert outer() == "xx"
    summary = summarize(tracer)
    assert summary["calls"] == {"toy.outer": 1, "toy.leaf": 2}
    assert summary["calls_under"] == {"toy.outer<": 1, "toy.leaf<toy.outer": 2}
    # outer spans ticks 0..25, each leaf 5 ns
    assert summary["self_s"] == {"toy.outer": 15e-9, "toy.leaf": 10e-9}
    tracer.write(tmp_path / "toy.spans")
    names, arrays = read_trace(tmp_path / "toy.spans")
    assert names == tracer.names
    assert arrays == [tracer.name, tracer.parent, tracer.start, tracer.end]

    modules = package_modules()
    from freeskew import fsk, operads
    before = (fsk.hom, operads.hom, fsk.FskObject.__post_init__)
    tracer = Tracer()
    tracer.install(modules)
    assert fsk.hom is operads.hom is not before[0]
    tracer.restore()
    assert (fsk.hom, operads.hom, fsk.FskObject.__post_init__) == before


@pytest.mark.parametrize("workload", ["axioms", "hom", "criteria"])
def test_traced_runs_repeat_and_match_untraced(workload):
    first, second, untraced = traced(workload), traced(workload), plain(workload)
    assert first["outputs"] == untraced["outputs"]
    assert second["outputs"] == untraced["outputs"]
    assert not run.failures(workload, SMALL[workload], first)
    for key in ("calls", "calls_under", "result_sizes", "caches", "spans"):
        assert first["trace"][key] == second["trace"][key]
    metrics = run.per_layer(first["trace"], 1.0, 1.0)
    assert set(metrics) == {name for name, _, _, _ in run.PER_LAYER}


# ---------------------------------------------------------------------------
# contract
# ---------------------------------------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in run.PER_LAYER]


def test_refuses_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "hom",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
