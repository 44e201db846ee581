"""The freeskew benchmark.

    python3 bench/run.py --workload {axioms,hom,criteria} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  Inputs are made from the seed
before anything is timed; each measured pass runs in a fresh interpreter
(bench/worker.py, plain ``python``, never ``-O``) that gets only those
inputs and runs the ops in a closed loop with one client.  Outputs are
checked against independent references after the pass.

--trace 0 measures the end-to-end metrics: it times the interpreter set-up
several times, then runs the workload's ops.  Every run of a workload runs
the same number of ops; S only caps the timed pass, which stops once S
seconds have passed and at least MIN_OPS ops are done.
--trace 1 runs a fixed list of ops twice in fresh interpreters, untraced
and traced, and reports the per-layer metrics of the traced pass and the
tracing overhead; the spans go to bench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it print each
metric by name and unit, fail_rate (failed / attempted) and a JSON report
of the environment and input properties.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

# At least this many ops per timed pass, so p90 has ten samples beyond it.
MIN_OPS = 100
# Interpreter set-ups timed per run, half before and half after the timed
# pass, so that a slow spell of the machine does not set them all.  One more
# runs first and is discarded, since it may still be writing bytecode caches.
SETUP_SAMPLES = 12
# Ops in each pass of a traced run: a fixed list, so counts repeat exactly.
TRACE_OPS = {"axioms": None, "hom": 48, "criteria": 4000}
# A run stops its workers after this long in all and fails, so that it ends
# well within three minutes.
WORKER_TIMEOUT_S = 150

SETUP_PROBE = ("import freeskew, freeskew.cli; freeskew.cli.build_parser(); "
               "print('ready', flush=True)")

END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)

# Per-layer metrics of the traced run: name, unit, better, and the
# end-to-end metric and workload each should move.
PER_LAYER = (
    ("fsk.hom.self_s", "s", "lower", "ops_per_s, op_p90_ms on hom; nothing on axioms"),
    ("fsk.hom.candidates", "count", "lower", "ops_per_s, op_p90_ms on hom; nothing on axioms"),
    ("fsk.hom.yield", "ratio", "higher", "ops_per_s, op_p90_ms on hom; nothing on axioms"),
    ("ordmaps.maps_built", "count", "lower", "ops_per_s, op_p90_ms on hom; nothing on axioms"),
    ("operads.counit_at.self_s", "s", "lower", "op_p90_ms on hom"),
    ("operads.h_colax.self_s", "s", "lower", "op_p90_ms on hom"),
    ("operads.s_substitute_objects.calls", "count", "lower", "op_p90_ms on hom"),
    ("fsk.tensor.self_s", "s", "lower", "ops_per_s on axioms"),
    ("fsk.compose.self_s", "s", "lower", "ops_per_s on axioms"),
    ("fsk.object_from_word.calls", "count", "lower", "ops_per_s on axioms"),
    ("fsk.object_to_word.calls", "count", "lower", "ops_per_s on axioms"),
    ("tamari.tree_to_lbf.calls", "count", "lower", "ops_per_s on axioms"),
    ("tamari.lbf_to_tree.calls", "count", "lower", "ops_per_s on axioms"),
    ("fsk.morphisms_built", "count", "lower", "ops_per_s on axioms; factor ops of criteria"),
    ("fsk.objects_built", "count", "lower", "ops_per_s on axioms; factor ops of criteria"),
    ("fsk.is_morphism.calls", "count", "lower", "ops_per_s on axioms; factor ops of criteria"),
    ("fsk.is_morphism.self_s", "s", "lower", "ops_per_s on axioms; factor ops of criteria"),
    ("ordmaps.cache_entries", "count", "lower", "peak_rss_mb on axioms; low sharing on criteria"),
    ("ordmaps.cache_hit_ratio", "ratio", "higher", "peak_rss_mb on axioms; low sharing on criteria"),
    ("tamari.cache_entries", "count", "lower", "peak_rss_mb on axioms; low sharing on criteria"),
    ("tamari.cache_hit_ratio", "ratio", "higher", "peak_rss_mb on axioms; low sharing on criteria"),
    ("fsk.cache_entries", "count", "lower", "peak_rss_mb on axioms; low sharing on criteria"),
    ("fsk.cache_hit_ratio", "ratio", "higher", "peak_rss_mb on axioms; low sharing on criteria"),
    ("operads.cache_entries", "count", "lower", "peak_rss_mb on axioms; low sharing on criteria"),
    ("operads.cache_hit_ratio", "ratio", "higher", "peak_rss_mb on axioms; low sharing on criteria"),
    ("tamari.lbf_to_rbf.self_s", "s", "lower", "op_p50_ms, op_p90_ms on criteria"),
    ("tamari.rbf_to_lbf.self_s", "s", "lower", "op_p50_ms, op_p90_ms on criteria"),
    ("tamari.conjugate_inj.self_s", "s", "lower", "op_p50_ms, op_p90_ms on criteria"),
    ("tamari.conjugate_surj.self_s", "s", "lower", "op_p50_ms, op_p90_ms on criteria"),
    ("tamari.tamari_leq.calls", "count", "lower", "op_p50_ms, op_p90_ms on criteria"),
    ("tamari.tamari_meet.calls", "count", "lower", "op_p50_ms, op_p90_ms on criteria"),
    ("tamari.enumerate_tamari.lbfs", "count", "lower", "op_p50_ms, op_p90_ms on criteria"),
    ("tamari.lbfs_built", "count", "lower", "op_p50_ms, op_p90_ms on criteria"),
    ("ordmaps.epi_mono_factorize.self_s", "s", "lower", "op_p50_ms, op_p90_ms on criteria"),
    ("ordmaps.right_adjoint.calls", "count", "lower", "op_p50_ms, op_p90_ms on criteria"),
    ("words.parse_object.self_s", "s", "lower", "op_p50_ms on criteria"),
    ("words.format_morphism.self_s", "s", "lower", "op_p50_ms on criteria"),
    ("cli.build_parser.self_s", "s", "lower", "setup_s"),
    ("ordmaps.self_s", "s", "lower", "ops_per_s on every workload calling the layer"),
    ("tamari.self_s", "s", "lower", "ops_per_s on every workload calling the layer"),
    ("fsk.self_s", "s", "lower", "ops_per_s on every workload calling the layer"),
    ("operads.self_s", "s", "lower", "ops_per_s on every workload calling the layer"),
    ("words.self_s", "s", "lower", "ops_per_s on every workload calling the layer"),
    ("cli.self_s", "s", "lower", "ops_per_s on every workload calling the layer"),
    ("trace.spans", "count", "lower", "none: size of the trace"),
    ("trace.ops_per_s", "1/s", "higher", "none: traced pass, base of trace.overhead"),
    ("trace.untraced_ops_per_s", "1/s", "higher", "none: untraced pass, base of trace.overhead"),
    ("trace.overhead", "ratio", "lower", "none: untraced over traced ops_per_s"),
)

CACHED_LAYERS = ("ordmaps", "tamari", "fsk", "operads")
# Span names of the dataclass constructors whose calls count objects built.
BUILT = {
    "ordmaps.maps_built": "ordmaps.MonotoneMap.__post_init__",
    "tamari.lbfs_built": "tamari.Lbf.__post_init__",
    "fsk.objects_built": "fsk.FskObject.__post_init__",
    "fsk.morphisms_built": "fsk.FskMorphism.__post_init__",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# running the program
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_seconds(samples: int) -> list[float]:
    """Seconds from spawning an interpreter until freeskew and freeskew.cli
    are imported and the CLI parser is built, once per sample."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                                env=child_env(), stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError("set-up probe failed")
    return times


def run_worker(job: dict, timeout: float = WORKER_TIMEOUT_S) -> dict:
    """One pass in a fresh interpreter."""
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                              input=json.dumps(job), capture_output=True,
                              text=True, cwd=ROOT, env=child_env(),
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ran longer than {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def failures(workload: str, ops, result: dict) -> set[int]:
    """Ops that raised or whose output fails its reference check."""
    bad = set(workloads.check_outputs(workload, ops, result["outputs"]))
    return bad | {i for i, _ in result["errors"]}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def latency_quantiles(latency_ns: list[int]) -> tuple[float, float]:
    """Median and 90th percentile in milliseconds."""
    deciles = statistics.quantiles(latency_ns, n=10, method="inclusive")
    return deciles[4] / 1e6, deciles[8] / 1e6


def end_to_end(result: dict, setup: list[float]) -> dict[str, float]:
    p50, p90 = latency_quantiles(result["latency_ns"])
    return {
        "ops_per_s": len(result["outputs"]) / result["elapsed_s"],
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(setup),
    }


def per_layer(trace: dict, untraced_ops_per_s: float, traced_ops_per_s: float) -> dict:
    calls, self_s, under = trace["calls"], trace["self_s"], trace["calls_under"]
    values: dict[str, float] = {}
    for name, _, _, _ in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "self_s":
            values[name] = (self_s.get(base, 0.0) if base.count(".")
                            else sum(v for k, v in self_s.items()
                                     if k.startswith(base + ".")))
        elif stat == "calls":
            values[name] = calls.get(base, 0)
    for name, span in BUILT.items():
        values[name] = calls.get(span, 0)
    candidates = under.get("fsk.is_morphism<fsk.hom", 0)
    results = under.get("fsk.FskMorphism.__post_init__<fsk.hom", 0)
    values["fsk.hom.candidates"] = candidates
    values["fsk.hom.yield"] = results / candidates if candidates else 0.0
    values["tamari.enumerate_tamari.lbfs"] = trace["result_sizes"].get(
        "tamari.enumerate_tamari", 0)
    for layer in CACHED_LAYERS:
        cache = trace["caches"].get(layer, {"entries": 0, "hits": 0, "misses": 0})
        lookups = cache["hits"] + cache["misses"]
        values[f"{layer}.cache_entries"] = cache["entries"]
        values[f"{layer}.cache_hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    values["trace.spans"] = trace["spans"]
    values["trace.ops_per_s"] = traced_ops_per_s
    values["trace.untraced_ops_per_s"] = untraced_ops_per_s
    values["trace.overhead"] = untraced_ops_per_s / traced_ops_per_s
    return values


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    also where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "freeskew").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "seed": seed}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def timed_run(workload: str, seconds: float, ops) -> tuple[dict, dict]:
    setup_seconds(1)
    setup = setup_seconds(SETUP_SAMPLES // 2)
    result = run_worker({"workload": workload, "ops": ops, "seconds": seconds,
                         "min_ops": MIN_OPS})
    setup += setup_seconds(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    bad = failures(workload, ops, result)
    done = len(result["outputs"])
    metrics = end_to_end(result, setup)
    report = {"ops": done, "failed": len(bad), "elapsed_s": result["elapsed_s"],
              "latency_samples": len(result["latency_ns"]),
              "samples_beyond_p90": sum(1 for t in result["latency_ns"]
                                        if t > metrics["op_p90_ms"] * 1e6),
              "setup_samples": len(setup),
              "errors": result["errors"][:10],
              "inputs": workloads.input_properties(workload, ops, result["outputs"])}
    return metrics, report


def traced_run(workload: str, seed: int, ops) -> tuple[dict, dict]:
    count = TRACE_OPS[workload]
    if count is not None:
        ops = ops[:count]
    job = {"workload": workload, "ops": ops, "seconds": None}
    plain = run_worker(job, WORKER_TIMEOUT_S / 2)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-{seed}.spans"
    traced = run_worker(dict(job, trace=True, trace_path=str(trace_path)),
                        WORKER_TIMEOUT_S / 2)
    bad = failures(workload, ops, plain) | failures(workload, ops, traced)
    bad |= {i for i, (a, b) in enumerate(zip(plain["outputs"], traced["outputs"]))
            if a != b}
    done = len(traced["outputs"])
    metrics = per_layer(traced["trace"], len(plain["outputs"]) / plain["elapsed_s"],
                        done / traced["elapsed_s"])
    report = {"ops": done, "failed": len(bad), "trace_file": str(trace_path.relative_to(ROOT)),
              "untraced_elapsed_s": plain["elapsed_s"],
              "traced_elapsed_s": traced["elapsed_s"],
              "errors": traced["errors"][:10],
              "inputs": workloads.input_properties(workload, ops, traced["outputs"])}
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "freeskew" / "__init__.py").is_file():
        print(f"bench: no freeskew sources under {SRC}", file=sys.stderr)
        return 2
    ops = workloads.make_ops(args.workload, args.seed)
    try:
        if args.trace:
            metrics, report = traced_run(args.workload, args.seed, ops)
            units = {name: unit for name, unit, _, _ in PER_LAYER}
        else:
            metrics, report = timed_run(args.workload, args.seconds, ops)
            units = {name: unit for name, unit, _ in END_TO_END}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = report["ops"], report["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")
    print(f"  {'fail_rate':36s} {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    report["environment"] = environment(args.seed)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
