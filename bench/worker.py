"""Run one workload's ops against freeskew in a fresh interpreter.

Reads a JSON job on standard input, runs its ops in a closed loop (one
client: each op starts after the previous one returned) and writes one
JSON result on standard output.  run.py starts it with PYTHONPATH set to
the package sources.  It refuses to run under ``python -O``, which strips
the asserts that carry part of the library's postconditions.

Job keys: workload, ops (as made by workloads.make_ops), seconds (stop
once this much time has passed and min_ops ops are done; null runs every
op), min_ops, trace (record spans), trace_path (where to write them).
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time


def make_runner(workload: str, ops):
    """A function running op i and returning its output as JSON-able text.

    Library functions are looked up through their modules at call time, so
    a traced run sees the tracer's wrappers.
    """
    from freeskew import fsk, operads, words

    if workload == "axioms":
        from workloads import AXIOMS
        objects = [words.parse_object(word) for word in ops["words"]]
        calls = [("axiom_" + AXIOMS[k][0], tuple(objects[j] for j in ids))
                 for k, ids in ops["calls"]]

        def run(i):
            name, args = calls[i]
            return getattr(fsk, name)(*args)
        return run, len(calls)

    if workload == "hom":
        def run(i):
            op = ops[i]
            kind = op["kind"]
            if kind in ("pair", "init_term"):
                return [words.format_morphism(f) for f in fsk.hom(
                    words.parse_object(op["src"]), words.parse_object(op["dst"]))]
            if kind == "counit":
                return words.format_morphism(
                    operads.counit_at(words.parse_object(op["word"])))
            return words.format_morphism(operads.h_colax(
                operads.LElement.from_text(op["x"]), op["i"],
                operads.LElement.from_text(op["y"])))
        return run, len(ops)

    def run(i):
        op = ops[i]
        src, dst = words.parse_object(op["src"]), words.parse_object(op["dst"])
        phi = words.parse_map(op["map"], dst.m)
        verdicts = [fsk.is_morphism(src, dst, phi, mode) for mode in fsk.MODES]
        if not any(verdicts):
            return ["false"] * 3, None
        surj, middle, inj = fsk.factor_general(fsk.FskMorphism(src, dst, phi))
        return ([str(v).lower() for v in verdicts],
                [words.format_morphism(surj), words.format_object(middle),
                 words.format_morphism(inj)])
    return run, len(ops)


def run_loop(run, count: int, seconds, min_ops: int, tracer=None):
    """Closed loop over ops 0..count-1; returns outputs, errors, latencies
    in ns and the elapsed seconds.  With a tracer, each op is a root span."""
    outputs, errors, latencies = [], [], []
    clock = time.perf_counter_ns
    began = clock()
    limit = None if seconds is None else began + int(seconds * 1e9)
    for i in range(count):
        if limit is not None and i >= min_ops and clock() >= limit:
            break
        sid = tracer.open("bench.op") if tracer else None
        t0 = clock()
        try:
            out = run(i)
        except Exception as exc:  # a raising op is a failed op, not a failed run
            out = None
            errors.append([i, f"{type(exc).__name__}: {exc}"])
        latencies.append(clock() - t0)
        if tracer:
            tracer.close(sid)
        outputs.append(out)
    elapsed = (clock() - began) / 1e9
    return outputs, errors, latencies, elapsed


def main() -> int:
    if sys.flags.optimize:
        print("worker: refusing to run under -O", file=sys.stderr)
        return 2
    job = json.load(sys.stdin)
    import freeskew.cli

    run, count = make_runner(job["workload"], job["ops"])
    tracer = None
    if job.get("trace"):
        from tracer import Tracer, cache_stats, package_modules, summarize
        modules = package_modules()
        tracer = Tracer()
        tracer.install(modules)
        sid = tracer.open("bench.setup")
        freeskew.cli.build_parser()
        tracer.close(sid)
    else:
        freeskew.cli.build_parser()

    # The inputs live through the whole loop; keep the collector from
    # scanning them again and again while ops are timed.
    gc.collect()
    gc.freeze()
    outputs, errors, latencies, elapsed = run_loop(
        run, count, job.get("seconds"), job.get("min_ops", 0), tracer)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"outputs": outputs, "errors": errors, "latency_ns": latencies,
              "elapsed_s": elapsed, "peak_rss_kb": peak_rss_kb}
    if tracer:
        tracer.restore()
        result["trace"] = summarize(tracer)
        result["trace"]["caches"] = cache_stats(modules)
        if job.get("trace_path"):
            tracer.write(job["trace_path"])
    json.dump(result, sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
